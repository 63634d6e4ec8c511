//! The `Metrics` RPC against scripted workloads: per-RPC histogram counts
//! must match the requests issued exactly, every layer must contribute at
//! least one family, and the transaction-gate wait histogram must move when
//! a writer actually contends.
//!
//! The metrics registry is process-global, so these tests serialize on one
//! mutex and reset the registry at the start of each test.

use std::path::PathBuf;
use std::sync::Mutex;

use neptune_ham::types::{Protections, Time, MAIN_CONTEXT};
use neptune_ham::Ham;
use neptune_server::{serve, Client};

static LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-metrics-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str) -> neptune_server::ServerHandle {
    let (ham, _, _) = Ham::create_graph(tmpdir(name), Protections::DEFAULT).unwrap();
    serve(ham, "127.0.0.1:0").unwrap()
}

/// Find `series value` in a Prometheus exposition, where `series` is the
/// full name including any label set (e.g. `foo_count{op="Ping"}`).
fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[test]
fn per_rpc_histogram_counts_match_scripted_workload() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !neptune_obs::enabled() {
        return; // NEPTUNE_OBS_DISABLED set in this environment
    }
    neptune_obs::registry().reset();

    let server = start("scripted");
    let mut c = Client::connect(server.addr()).unwrap();

    // The script: 2 pings, 3 node creations, 2 check-ins, then 5 opens of
    // the same node — 4 current plus 1 historical (the historical read is
    // what descends the archive's temporal index).
    c.ping().unwrap();
    c.ping().unwrap();
    let (node, t0) = c.add_node(MAIN_CONTEXT, true).unwrap();
    c.add_node(MAIN_CONTEXT, true).unwrap();
    c.add_node(MAIN_CONTEXT, true).unwrap();
    let t1 = c
        .modify_node(MAIN_CONTEXT, node, t0, b"version one\n".to_vec(), vec![])
        .unwrap();
    c.modify_node(MAIN_CONTEXT, node, t1, b"version two\n".to_vec(), vec![])
        .unwrap();
    for _ in 0..4 {
        c.open_node(MAIN_CONTEXT, node, Time::CURRENT, vec![])
            .unwrap();
    }
    c.open_node(MAIN_CONTEXT, node, t1, vec![]).unwrap();

    let text = c.metrics().unwrap();

    // Server layer: one histogram sample per request, keyed by RPC name.
    // The Metrics request itself is recorded only after its response is
    // built, so it does not appear in its own exposition.
    let rpc = |op: &str| {
        sample(
            &text,
            &format!("neptune_server_rpc_ns_count{{op=\"{op}\"}}"),
        )
    };
    assert_eq!(rpc("Ping"), Some(2.0), "{text}");
    assert_eq!(rpc("AddNode"), Some(3.0), "{text}");
    assert_eq!(rpc("ModifyNode"), Some(2.0), "{text}");
    assert_eq!(rpc("OpenNode"), Some(5.0), "{text}");
    // Zero rather than absent when the other test in this process already
    // created the series — reset() zeroes entries in place.
    assert_eq!(rpc("Metrics").unwrap_or(0.0), 0.0, "{text}");

    // HAM layer: op spans line up one-to-one with the dispatched calls.
    // The server serves `OpenNode` lock-free from the published snapshot,
    // so reads land in the view's op family, not the live machine's.
    let ham_op = |op: &str| sample(&text, &format!("neptune_ham_op_ns_count{{op=\"{op}\"}}"));
    assert_eq!(ham_op("add_node"), Some(3.0), "{text}");
    let view_op = |op: &str| sample(&text, &format!("neptune_view_op_ns_count{{op=\"{op}\"}}"));
    assert_eq!(view_op("read_node"), Some(5.0), "{text}");
    // 2 pings + 5 opens, all served without the gate or the HAM lock.
    assert_eq!(
        sample(&text, "neptune_server_reads_lockfree_total"),
        Some(7.0),
        "{text}"
    );
    let commits = sample(&text, "neptune_ham_txn_commits_total").unwrap_or(0.0);
    assert!(
        commits >= 4.0,
        "expected >=4 commits, got {commits}\n{text}"
    );

    // Storage layer: the writes above must have appended and fsynced WAL
    // records, and the historical open went through the archive's index.
    let wal_appends = sample(&text, "neptune_storage_op_ns_count{op=\"wal_append\"}");
    assert!(wal_appends.unwrap_or(0.0) > 0.0, "{text}");
    let wal_fsyncs = sample(&text, "neptune_storage_op_ns_count{op=\"wal_fsync\"}");
    assert!(wal_fsyncs.unwrap_or(0.0) > 0.0, "{text}");
    let checkouts = sample(&text, "neptune_storage_index_exact_hits_total").unwrap_or(0.0)
        + sample(&text, "neptune_storage_index_replays_total").unwrap_or(0.0);
    assert!(checkouts > 0.0, "{text}");

    // A second scrape sees the first Metrics request, and the gauge for
    // this live connection.
    let text2 = c.metrics().unwrap();
    let metrics_rpcs = sample(&text2, "neptune_server_rpc_ns_count{op=\"Metrics\"}");
    assert_eq!(metrics_rpcs, Some(1.0), "{text2}");
    let conns = sample(&text2, "neptune_server_active_connections").unwrap_or(0.0);
    assert!(conns >= 1.0, "{text2}");

    // No writer ever contended in this single-client script.
    assert_eq!(
        sample(&text2, "neptune_server_gate_wait_ns_count").unwrap_or(0.0),
        0.0,
        "{text2}"
    );
    server.stop();
}

/// The archive keeps the version a checkout just rebuilt, whatever its
/// size: over the wire, every `openNode` of one historical version after
/// the first applies zero deltas — at 1 MiB too, four times the anchor
/// budget.
#[test]
fn repeated_historical_open_applies_no_deltas_at_any_size() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !neptune_obs::enabled() {
        return;
    }
    neptune_obs::registry().reset();

    let server = start("repeat-hist");
    let mut c = Client::connect(server.addr()).unwrap();
    let depth = neptune_obs::registry().histogram("neptune_storage_delta_replay_depth");
    for size in [1024usize, 64 * 1024, 1024 * 1024] {
        let (node, mut t) = c.add_node(MAIN_CONTEXT, true).unwrap();
        let mut times = Vec::new();
        for v in 0..4u8 {
            let mut body = vec![b'a' + v; size];
            body[size / 2] = b'\n';
            t = c.modify_node(MAIN_CONTEXT, node, t, body, vec![]).unwrap();
            times.push(t);
        }
        let cold = depth.sum();
        let first = c.open_node(MAIN_CONTEXT, node, times[1], vec![]).unwrap();
        assert_eq!(first.contents.len(), size);
        let (count, sum) = (depth.count(), depth.sum());
        assert!(sum > cold, "the first read of {size} bytes replays deltas");
        for _ in 0..5 {
            let again = c.open_node(MAIN_CONTEXT, node, times[1], vec![]).unwrap();
            assert_eq!(again.contents, first.contents);
        }
        assert_eq!(
            depth.count(),
            count + 5,
            "{size} bytes: one sample per read"
        );
        assert_eq!(depth.sum(), sum, "{size} bytes: only 0-depth samples");
    }
    let (hits, misses, entries, bytes) = c.cache_stats().unwrap();
    assert!(hits >= 15 && misses >= 3, "{hits} hits, {misses} misses");
    assert!(
        entries >= 3 && bytes >= 1024 * 1024,
        "{entries} anchors, {bytes} bytes"
    );
    server.stop();
}

#[test]
fn gate_wait_histogram_moves_under_writer_contention() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !neptune_obs::enabled() {
        return;
    }
    neptune_obs::registry().reset();

    let server = start("contention");
    let addr = server.addr();
    let mut holder = Client::connect(addr).unwrap();
    holder.begin_transaction().unwrap();
    holder.add_node(MAIN_CONTEXT, true).unwrap();

    // A second writer blocks on the transaction gate until the holder
    // commits.
    let waiter = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.add_node(MAIN_CONTEXT, true).unwrap();
    });
    // Let the waiter reach the gate, and exercise spurious wakeups while
    // it waits — pokes alone must not release it or end its wait early.
    std::thread::sleep(std::time::Duration::from_millis(200));
    for _ in 0..4 {
        server.poke_txn_waiters();
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    holder.commit_transaction().unwrap();
    waiter.join().unwrap();

    let text = holder.metrics().unwrap();
    let waits = sample(&text, "neptune_server_gate_wait_ns_count").unwrap_or(0.0);
    let waited_ns = sample(&text, "neptune_server_gate_wait_ns_sum").unwrap_or(0.0);
    assert!(waits >= 1.0, "no gate wait recorded:\n{text}");
    assert!(waited_ns > 0.0, "gate wait recorded zero time:\n{text}");
    assert_eq!(
        sample(&text, "neptune_server_lock_timeouts_total").unwrap_or(0.0),
        0.0,
        "nobody should have timed out:\n{text}"
    );
    server.stop();
}
