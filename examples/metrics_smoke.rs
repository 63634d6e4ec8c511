//! CI smoke test for the observability layer.
//!
//! Starts a server, runs a small scripted workload over the wire, fetches
//! the `Metrics` RPC, and **exits non-zero** if the exposition is empty or
//! any required metric family shows no activity. The snapshot is written to
//! the path named by `NEPTUNE_METRICS_OUT` (default `METRICS_snapshot.prom`)
//! so CI can upload it as an artifact.
//!
//! Run with: `cargo run --example metrics_smoke`

use neptune::prelude::*;

/// Does any series of `family` (with or without labels/suffixes) report a
/// value greater than zero?
fn family_active(exposition: &str, family: &str) -> bool {
    exposition.lines().any(|line| {
        let Some(rest) = line.strip_prefix(family) else {
            return false;
        };
        // Accept `family 3`, `family{...} 3`, `family_count{...} 3` — but
        // not a different family that merely shares the prefix.
        if !rest.starts_with([' ', '{', '_']) {
            return false;
        }
        let Some((_, value)) = line.rsplit_once(' ') else {
            return false;
        };
        value
            .trim()
            .parse::<f64>()
            .map(|v| v > 0.0)
            .unwrap_or(false)
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("neptune-metrics-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT)?;
    let server = serve(ham, "127.0.0.1:0")?;
    let mut c = Client::connect(server.addr())?;

    // Scripted workload touching every layer: node/link edits (WAL traffic,
    // transaction commits), historical reads (delta replay, then the anchor
    // it leaves behind), a query, and an explicit transaction.
    c.ping()?;
    let (a, t0) = c.add_node(MAIN_CONTEXT, true)?;
    let t1 = c.modify_node(MAIN_CONTEXT, a, t0, b"first draft\n".to_vec(), vec![])?;
    c.modify_node(MAIN_CONTEXT, a, t1, b"second draft\n".to_vec(), vec![])?;
    let (b, _) = c.add_node(MAIN_CONTEXT, true)?;
    c.add_link(MAIN_CONTEXT, LinkPt::current(a, 0), LinkPt::current(b, 0))?;
    for _ in 0..3 {
        c.open_node(MAIN_CONTEXT, a, Time::CURRENT, vec![])?;
    }
    c.open_node(MAIN_CONTEXT, a, t1, vec![])?; // historical: replays one delta, keeps the result
    c.open_node(MAIN_CONTEXT, a, t1, vec![])?; // the same version again: an exact anchor hit
    c.get_graph_query(MAIN_CONTEXT, Time::CURRENT, "true", "true", vec![], vec![])?;
    c.begin_transaction()?;
    c.add_node(MAIN_CONTEXT, true)?;
    c.commit_transaction()?;

    // Deep history: enough versions to cross a 16-version skip boundary, so
    // historical opens exercise the archive's hierarchical temporal index.
    // Opening the (empty) initial version lands on the anchor the eager
    // skip build left behind — an exact index hit.
    let (d, t_first) = c.add_node(MAIN_CONTEXT, true)?;
    let mut td = t_first;
    let mut deep_times = Vec::new();
    for i in 0..24 {
        let contents = format!("deep draft {i}\n").into_bytes();
        td = c.modify_node(MAIN_CONTEXT, d, td, contents, vec![])?;
        deep_times.push(td);
    }
    c.open_node(MAIN_CONTEXT, d, t_first, vec![])?;

    // Cold restart: checkpoint persists the skip ladder, then a fresh Ham
    // (empty anchor caches) serves a mid-history read by descending the
    // *persisted* ladder — which keeps non-empty anchors, so the occupancy
    // gauges are live at scrape time.
    // Three checkpoints show all of a checkpoint's cost accounting: the
    // first writes every blob, the second (one node edited) writes one and
    // skips the rest, and the one `stop` issues finds nothing to do.
    c.checkpoint()?;
    c.modify_node(MAIN_CONTEXT, d, td, b"deep draft 24\n".to_vec(), vec![])?;
    c.checkpoint()?;
    drop(c);
    server.stop();
    let (ham, _, _) = Ham::open_existing(&dir)?;
    let server = serve(ham, "127.0.0.1:0")?;
    let mut c = Client::connect(server.addr())?;
    c.open_node(MAIN_CONTEXT, d, deep_times[2], vec![])?;

    let exposition = c.metrics()?;
    server.stop();

    let out = std::env::var("NEPTUNE_METRICS_OUT")
        .unwrap_or_else(|_| "METRICS_snapshot.prom".to_string());
    std::fs::write(&out, &exposition)?;
    println!("wrote {out} ({} bytes)", exposition.len());

    if exposition.trim().is_empty() {
        eprintln!("FAIL: Metrics RPC returned an empty exposition");
        std::process::exit(1);
    }
    // One required family per layer, plus the layer counters the workload
    // must have moved. The obs families prove the causal tracer ran: every
    // RPC above finalized a trace into the flight recorder.
    let required = [
        "neptune_server_rpc_ns",
        "neptune_ham_op_ns",
        "neptune_storage_op_ns",
        "neptune_ham_txn_commits_total",
        "neptune_ham_checkpoint_node_files_written_total",
        "neptune_ham_checkpoint_node_files_skipped_total",
        "neptune_ham_checkpoint_bytes_total",
        "neptune_ham_checkpoint_skipped_total",
        "neptune_storage_index_replays_total",
        "neptune_storage_index_exact_hits_total",
        "neptune_storage_index_hits_total",
        "neptune_storage_index_levels_depth",
        "neptune_storage_index_anchor_entries",
        "neptune_storage_index_anchor_bytes",
        "neptune_obs_traces_recorded_total",
        "neptune_obs_trace_ns",
        "neptune_obs_trace_spans_total",
    ];
    let mut failed = false;
    for family in required {
        if family_active(&exposition, family) {
            println!("ok: {family} is active");
        } else {
            eprintln!("FAIL: required family {family} missing or all-zero");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("metrics smoke passed");
    Ok(())
}
