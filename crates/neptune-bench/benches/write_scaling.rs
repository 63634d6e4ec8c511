//! Write scaling: parallel commits on disjoint shards.
//!
//! The sharded HAM gives every shard its own lock, WAL stream, and
//! published snapshot slot, so commits touching disjoint shards validate,
//! append, and publish independently — the single-lock writer ceiling the
//! ROADMAP flagged. This bench measures what that buys and emits the
//! numbers as machine-readable JSON (`BENCH_write_scaling.json`, or the
//! path named by `NEPTUNE_BENCH_OUT`):
//!
//! 1. **Disjoint-shard scaling.** N writer threads, each committing to a
//!    context homed on its own shard of an 8-shard store. Aggregate commit
//!    throughput should rise with writers instead of flat-lining behind
//!    one mutex.
//! 2. **Single-shard baseline.** The same N writers against a one-shard
//!    store — every commit serializes on the single shard lock. This is
//!    the pre-sharding behavior, measured by the same harness in the same
//!    process so the ratio is apples-to-apples.
//! 3. **Cross-shard transaction cost.** The two-phase path (fork to
//!    another shard, merge back — two shards commit under one sequence
//!    number) measured per round trip, with the cross-shard counters
//!    recorded alongside.
//!
//! 4. **Commit cost against what it should not depend on.** One commit of
//!    a two-line edit through a `Ham` (so a published view always holds
//!    the state being replaced), with the WAL fsync inside it taken out,
//!    on a node with 10, 10³ and 10⁴ versions, in a graph of 10³ and 10⁵
//!    nodes, and with 1 and 64 contexts on the machine. A save adds one
//!    delta to one node: each pair should cost the same. Beside the grid,
//!    two report-only check-in cells: a new 2 KiB node's first version,
//!    and a one-line edit to a 64 KiB node.
//!
//! With `NEPTUNE_BENCH_GUARD` set (ci.sh smoke runs), the disjoint-vs-
//! single-shard ratio at 8 writers doubles as a regression guard: on a
//! multi-core runner it must stay ≥ 2x (the acceptance floor for the
//! sharding work), `neptune_ham_multiview_torn_total` must not move, and
//! every large commit-cost cell must stay within 2x of its small one.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use neptune_bench::harness::{BenchResult, BenchmarkId, Criterion, Throughput};
use neptune_bench::{bench_dir, edit_lines, fresh_ham, text};
use neptune_ham::context::ConflictPolicy;
use neptune_ham::types::{ContextId, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, ShardedHam};

const SHARDS: usize = 8;
const WRITER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OPS_PER_WRITER: usize = 50;
const BODY_BYTES: usize = 1024;

/// A fresh sharded store with `writers` contexts, each holding one
/// versioned node. Context ids are allocated globally (1, 2, 3, …), so on
/// an `nshards`-way store forks land on distinct home shards as long as
/// `writers < nshards`; on a one-shard store they all share shard 0.
fn setup(tag: &str, nshards: usize, writers: usize) -> (ShardedHam, Vec<(ContextId, NodeIndex)>) {
    let (sharded, _, _) =
        ShardedHam::create(bench_dir(tag), Protections::DEFAULT, nshards).expect("create store");
    let body = text(BODY_BYTES, 7);
    let mut ctxs = Vec::with_capacity(writers);
    for _ in 0..writers {
        let ctx = sharded.create_context(MAIN_CONTEXT).expect("fork");
        let mut guard = sharded.lock_home(ctx).expect("lock home");
        let (node, t0) = guard.add_node(ctx, true).expect("node");
        guard
            .modify_node(ctx, node, t0, body.clone(), &[])
            .expect("seed contents");
        drop(guard);
        ctxs.push((ctx, node));
    }
    (sharded, ctxs)
}

/// Drive `OPS_PER_WRITER` commits per writer thread: each op locks the
/// context's home shard, modifies the node, and commits (WAL append +
/// snapshot publish). Bodies alternate so every commit carries a real
/// delta.
fn commit_storm(sharded: &ShardedHam, ctxs: &[(ContextId, NodeIndex)], bodies: &[Vec<u8>; 2]) {
    std::thread::scope(|scope| {
        for &(ctx, node) in ctxs {
            scope.spawn(move || {
                for op in 0..OPS_PER_WRITER {
                    let mut guard = sharded.lock_home(ctx).expect("lock home");
                    let t = guard.get_node_time_stamp(ctx, node).expect("stamp");
                    guard
                        .modify_node(ctx, node, t, &bodies[op % 2][..], &[])
                        .expect("commit");
                }
            });
        }
    });
}

fn bench_writer_scaling(c: &mut Criterion) {
    let bodies = [text(BODY_BYTES, 7), edit_lines(&text(BODY_BYTES, 7), 2, 9)];

    let mut group = c.benchmark_group("write_scaling_commits");
    for &writers in &WRITER_COUNTS {
        group.throughput(Throughput::Elements((writers * OPS_PER_WRITER) as u64));

        let (sharded, ctxs) = setup(&format!("ws-disjoint-{writers}"), SHARDS, writers);
        let homes: std::collections::BTreeSet<usize> =
            ctxs.iter().map(|&(ctx, _)| sharded.shard_of(ctx)).collect();
        assert_eq!(homes.len(), writers, "writer contexts must be disjoint");
        group.bench_with_input(BenchmarkId::new("disjoint", writers), &writers, |b, _| {
            b.iter(|| {
                commit_storm(&sharded, &ctxs, &bodies);
                black_box(sharded.last_commit_seq())
            });
        });
        sharded.checkpoint().expect("checkpoint");

        let (single, ctxs) = setup(&format!("ws-single-{writers}"), 1, writers);
        group.bench_with_input(
            BenchmarkId::new("single_shard", writers),
            &writers,
            |b, _| {
                b.iter(|| {
                    commit_storm(&single, &ctxs, &bodies);
                    black_box(single.last_commit_seq())
                });
            },
        );
        single.checkpoint().expect("checkpoint");
    }
    group.finish();
}

/// One cross-shard round trip per iteration: fork MAIN onto another shard,
/// commit a change there, merge back through the two-phase path (both
/// shards commit under one sequence number), destroy the fork.
fn bench_cross_shard(c: &mut Criterion) {
    let (sharded, _, _) = ShardedHam::create(bench_dir("ws-cross"), Protections::DEFAULT, SHARDS)
        .expect("create store");
    let node = {
        let mut main = sharded.lock_home(MAIN_CONTEXT).expect("lock main");
        let (node, t0) = main.add_node(MAIN_CONTEXT, true).expect("node");
        main.modify_node(MAIN_CONTEXT, node, t0, text(BODY_BYTES, 7), &[])
            .expect("seed");
        node
    };
    let body = edit_lines(&text(BODY_BYTES, 7), 2, 11);

    let mut group = c.benchmark_group("write_scaling_cross_shard");
    group.bench_function("fork_merge_destroy", |b| {
        b.iter(|| {
            let fork = sharded.create_context(MAIN_CONTEXT).expect("fork");
            {
                let mut guard = sharded.lock_home(fork).expect("lock fork");
                let t = guard.get_node_time_stamp(fork, node).expect("stamp");
                guard
                    .modify_node(fork, node, t, &body[..], &[])
                    .expect("commit");
            }
            sharded
                .merge_context(fork, ConflictPolicy::PreferChild)
                .expect("merge");
            sharded.destroy_context(fork).expect("destroy");
            black_box(fork)
        });
    });
    group.finish();
}

/// Nodes in the graph of every commit-cost cell that does not vary it.
const COST_GRAPH_NODES: usize = 256;
/// Commits timed per commit-cost cell.
const COST_SAMPLES: usize = 200;
/// The commit-cost grid: each axis with its cells, the small one first.
const COST_AXES: [(&str, &[usize]); 3] = [
    ("depth", &[10, 1_000, 10_000]),
    ("nodes", &[1_000, 100_000]),
    ("contexts", &[1, 64]),
];

/// One node the commit-cost cells write to, with what the next
/// `modifyNode` must quote.
struct Slot {
    node: NodeIndex,
    time: Time,
    body: Vec<u8>,
}

/// A graph of `nodes` versioned nodes in MAIN, created in one transaction
/// so the build costs one commit, and `slots` of them (spread over the id
/// range) brought to `depth` versions of a 2 KiB body.
fn cost_graph(tag: &str, nodes: usize, slots: usize, depth: usize) -> (Ham, Vec<Slot>) {
    let mut ham = fresh_ham(tag);
    ham.begin_transaction().expect("begin");
    let created: Vec<(NodeIndex, Time)> = (0..nodes)
        .map(|_| ham.add_node(MAIN_CONTEXT, true).expect("node"))
        .collect();
    ham.commit_transaction().expect("commit");
    let stride = nodes / slots;
    let mut slots: Vec<Slot> = (0..slots)
        .map(|i| {
            let (node, time) = created[i * stride];
            let body = text(2 * BODY_BYTES, i as u64);
            Slot { node, time, body }
        })
        .collect();
    for slot in &mut slots {
        for _ in 1..depth {
            let body = slot.edited();
            slot.commit(&mut ham, body);
        }
    }
    (ham, slots)
}

impl Slot {
    /// The node's body with two lines edited.
    fn edited(&self) -> Vec<u8> {
        edit_lines(&self.body, 2, self.time.0)
    }

    /// Commit `body` as the node's next version.
    fn commit(&mut self, ham: &mut Ham, body: Vec<u8>) {
        self.time = ham
            .modify_node(MAIN_CONTEXT, self.node, self.time, &body[..], &[])
            .expect("commit");
        self.body = body;
    }
}

/// Nanoseconds `commit` takes, less the WAL fsync the registry timed
/// inside it: what the machine does for a commit, not what the disk does.
fn less_fsync(commit: impl FnOnce()) -> u64 {
    let fsync =
        neptune_obs::registry().histogram(&neptune_obs::trace::histogram_key("storage.wal_fsync"));
    let synced = fsync.sum();
    let start = Instant::now();
    commit();
    let took = start.elapsed().as_nanos() as u64;
    took.saturating_sub(fsync.sum() - synced)
}

fn median(mut samples: Vec<u64>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Median nanoseconds of one commit over [`COST_SAMPLES`] commits dealt
/// round-robin to `slots`, each less its WAL fsync.
fn commit_ns(ham: &mut Ham, slots: &mut [Slot]) -> f64 {
    let samples = (0..COST_SAMPLES)
        .map(|i| {
            let slot = &mut slots[i % slots.len()];
            let body = slot.edited();
            less_fsync(|| slot.commit(ham, body))
        })
        .collect();
    median(samples)
}

/// Two check-in cells beside the grid, report-only: the first version of
/// a new 2 KiB node (the node is added untimed, then its body checked in),
/// and a one-line edit to a 64 KiB node. A check-in's delta should cost
/// the changed middle, and nothing for a first version.
fn bench_checkin_cost() -> Vec<(String, f64)> {
    let mut ham = fresh_ham("ws-checkin");
    let body = text(2 * BODY_BYTES, 3);
    let first = (0..COST_SAMPLES)
        .map(|_| {
            let (node, time) = ham.add_node(MAIN_CONTEXT, true).expect("node");
            less_fsync(|| {
                ham.modify_node(MAIN_CONTEXT, node, time, &body[..], &[])
                    .expect("commit");
            })
        })
        .collect();
    let (node, time) = ham.add_node(MAIN_CONTEXT, true).expect("node");
    let mut slot = Slot {
        node,
        time,
        body: Vec::new(),
    };
    slot.commit(&mut ham, text(64 * BODY_BYTES, 4));
    let edit = (0..COST_SAMPLES)
        .map(|_| {
            let body = edit_lines(&slot.body, 1, slot.time.0);
            less_fsync(|| slot.commit(&mut ham, body))
        })
        .collect();
    let cells = vec![
        ("checkin/first_version_2kib".to_string(), median(first)),
        ("checkin/one_line_edit_64kib".to_string(), median(edit)),
    ];
    for (label, ns) in &cells {
        println!(
            "{:<52} {:>9.2} µs /commit",
            format!("commit_cost/{label}"),
            ns / 1e3
        );
    }
    cells
}

/// Measure the commit-cost grid: `(label, ns per commit)` per cell, in
/// [`COST_AXES`] order.
fn bench_commit_cost() -> Vec<(String, f64)> {
    let mut cells = Vec::new();
    for (axis, sizes) in COST_AXES {
        for &size in sizes {
            let tag = format!("ws-cost-{axis}-{size}");
            let (mut ham, mut slots) = match axis {
                // Few enough commits per node that its depth stays within
                // a tenth of the cell's.
                "depth" => {
                    let slots = (10 * COST_SAMPLES / size).clamp(1, COST_GRAPH_NODES);
                    cost_graph(&tag, COST_GRAPH_NODES, slots, size)
                }
                "nodes" => cost_graph(&tag, size, COST_SAMPLES, 2),
                _ => {
                    let (mut ham, slots) = cost_graph(&tag, COST_GRAPH_NODES, COST_SAMPLES, 2);
                    for _ in 1..size {
                        ham.create_context(MAIN_CONTEXT).expect("fork");
                    }
                    (ham, slots)
                }
            };
            let ns = commit_ns(&mut ham, &mut slots);
            println!(
                "{:<52} {:>9.2} µs /commit",
                format!("commit_cost/{axis}/{size}"),
                ns / 1e3
            );
            cells.push((format!("{axis}/{size}"), ns));
        }
    }
    cells
}

/// Per commit-cost axis, its dearest larger cell over its small cell.
fn cost_ratios(cells: &[(String, f64)]) -> Vec<(&'static str, f64)> {
    let mut cells = cells.iter().map(|&(_, ns)| ns);
    COST_AXES
        .iter()
        .map(|&(axis, sizes)| {
            let small = cells.next().unwrap_or(f64::NAN);
            let large = cells.by_ref().take(sizes.len() - 1).fold(0.0, f64::max);
            (axis, large / small)
        })
        .collect()
}

fn find<'a>(results: &'a [BenchResult], needle: &str) -> Option<&'a BenchResult> {
    results.iter().find(|r| r.label.contains(needle))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Aggregate commits/sec for a variant at a given writer count.
fn rate(results: &[BenchResult], variant: &str, writers: usize) -> f64 {
    find(results, &format!("{variant}/{writers}"))
        .filter(|r| r.ns_per_iter > 0.0)
        .map(|r| (writers * OPS_PER_WRITER) as f64 / (r.ns_per_iter / 1e9))
        .unwrap_or(0.0)
}

fn write_report(c: &Criterion, cost: &[(String, f64)], checkin: &[(String, f64)]) -> f64 {
    let results = c.results();
    let mut out = String::from("{\n  \"bench\": \"write_scaling\",\n");
    out.push_str(&format!(
        "  \"smoke\": {},\n",
        neptune_bench::harness::smoke_mode()
    ));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let metrics = r
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{}\": {v:.1}", json_escape(k)))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"ns_per_iter\": {:.1}, \"iterations\": {}, \"metrics\": {{{metrics}}}}}{}\n",
            json_escape(&r.label),
            r.ns_per_iter,
            r.iterations,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"derived\": {\n");
    for variant in ["disjoint", "single_shard"] {
        out.push_str(&format!(
            "    \"{variant}_commits_per_sec_by_writers\": {{\n"
        ));
        for (i, &writers) in WRITER_COUNTS.iter().enumerate() {
            out.push_str(&format!(
                "      \"{writers}\": {:.0}{}\n",
                rate(results, variant, writers),
                if i + 1 < WRITER_COUNTS.len() { "," } else { "" }
            ));
        }
        out.push_str("    },\n");
    }
    // The headline number: aggregate commit throughput of 8 writers on
    // disjoint shards over the same 8 writers behind one shard lock.
    let ratio = {
        let single = rate(results, "single_shard", 8);
        if single > 0.0 {
            rate(results, "disjoint", 8) / single
        } else {
            0.0
        }
    };
    out.push_str(&format!(
        "    \"disjoint_vs_single_shard_8_writers\": {ratio:.2},\n"
    ));
    let cross_ns = find(results, "fork_merge_destroy")
        .map(|r| r.ns_per_iter)
        .unwrap_or(0.0);
    out.push_str(&format!(
        "    \"cross_shard_round_trip_ns\": {cross_ns:.0},\n"
    ));
    // Commit cost less fsync per grid cell and check-in cell, and large
    // over small per grid axis.
    out.push_str("    \"commit_cost_ns\": {\n");
    for (label, ns) in cost.iter().chain(checkin) {
        out.push_str(&format!("      \"{label}\": {ns:.0},\n"));
    }
    let ratios: Vec<String> = cost_ratios(cost)
        .iter()
        .map(|(axis, ratio)| format!("      \"{axis}_large_vs_small\": {ratio:.2}"))
        .collect();
    out.push_str(&format!("{}\n    }},\n", ratios.join(",\n")));
    // Cross-shard and consistency counters over the whole run: the torn
    // counter is the defensive one that must never move.
    let snapshot = neptune_obs::registry().flat_snapshot();
    let flat = |key: &str| snapshot.get(key).copied().unwrap_or(0.0);
    for key in [
        "neptune_ham_cross_shard_txns_total",
        "neptune_ham_view_skew_retries_total",
        "neptune_ham_multiview_fallbacks_total",
        "neptune_ham_multiview_torn_total",
    ] {
        out.push_str(&format!("    \"{key}\": {:.0},\n", flat(key)));
    }
    // Per-shard commit distribution, to show the disjoint runs really did
    // spread across shards rather than piling onto one.
    out.push_str("    \"shard_commits\": {\n");
    let shard_counts: Vec<(String, f64)> = snapshot
        .iter()
        .filter(|(k, _)| k.starts_with("neptune_ham_shard_commits_total"))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    for (i, (key, v)) in shard_counts.iter().enumerate() {
        out.push_str(&format!(
            "      \"{}\": {v:.0}{}\n",
            json_escape(key),
            if i + 1 < shard_counts.len() { "," } else { "" }
        ));
    }
    out.push_str("    }\n  }\n}\n");

    let path = std::env::var("NEPTUNE_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_write_scaling.json".to_string());
    let mut file = std::fs::File::create(&path).expect("create bench report");
    file.write_all(out.as_bytes()).expect("write bench report");
    println!("wrote {path}");
    println!("8-writer disjoint vs single-shard commit throughput: {ratio:.2}x");
    println!(
        "cross-shard fork+merge+destroy round trip: {:.1} µs",
        cross_ns / 1e3
    );
    ratio
}

/// Regression floors for CI smoke runs (`NEPTUNE_BENCH_GUARD` set).
///
/// The disjoint-vs-single-shard ratio needs CPUs to scale onto, exactly
/// like the reader-scaling floor in `read_scaling`: with 4+ cores, 8
/// writers on disjoint shards must deliver at least 2x the aggregate
/// commit throughput of the same writers serialized behind one shard lock
/// (the acceptance floor for the sharding work — a reintroduced global
/// writer lock craters this to ~1). With 2–3 cores the parallel headroom
/// is smaller, so the floor drops to 1.2. On a single core there is no
/// parallelism to win; the guard instead checks that the sharded commit
/// path is not dramatically *slower* than the single-lock one (per-shard
/// bookkeeping should cost noise, not throughput), with a generous 0.6
/// floor.
///
/// Core-count independent: `neptune_ham_multiview_torn_total` must be
/// zero — no assembled cross-shard view may ever expose half of a
/// two-phase commit.
///
/// Also core-count independent: a commit adds one delta to one node, so a
/// commit to a node 1000x deeper, in a graph 100x larger, or beside 63
/// more contexts must cost at most 2x the small cell. A commit that
/// copies the node's history, or a publish that copies every context's
/// tables, shows up here as 2x to 100x.
fn guard(ratio: f64, cost: &[(String, f64)]) {
    if std::env::var("NEPTUNE_BENCH_GUARD").map_or(true, |v| v.is_empty()) {
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = if cores >= 4 {
        2.0
    } else if cores >= 2 {
        1.2
    } else {
        0.6
    };
    let mut failed = false;
    if ratio < floor {
        eprintln!(
            "GUARD FAIL: disjoint_vs_single_shard_8_writers = {ratio:.2} < {floor:.1} \
             ({cores} cores); disjoint-shard commits are serializing again"
        );
        failed = true;
    }
    for (axis, cost_ratio) in cost_ratios(cost) {
        if cost_ratio > 2.0 {
            eprintln!(
                "GUARD FAIL: commit_cost {axis} large/small = {cost_ratio:.2} > 2.0; \
                 a commit is paying for {axis} again"
            );
            failed = true;
        }
    }
    let torn = neptune_obs::registry()
        .counter("neptune_ham_multiview_torn_total")
        .get();
    if torn != 0 {
        eprintln!(
            "GUARD FAIL: neptune_ham_multiview_torn_total = {torn}; a cross-shard \
             snapshot assembly exposed half of a two-phase commit"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "bench guard passed (disjoint/single-shard {ratio:.2}x, floor {floor:.1}, {cores} core(s))"
    );
}

fn main() {
    // Start from zeroed counters so the emitted snapshot reflects this run
    // only (the registry is process-global).
    neptune_obs::registry().reset();
    neptune_obs::registry().set_enabled(true);
    let mut criterion = Criterion::default()
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200))
        .sample_size(10);
    bench_writer_scaling(&mut criterion);
    bench_cross_shard(&mut criterion);
    let cost = bench_commit_cost();
    let checkin = bench_checkin_cost();
    let ratio = write_report(&criterion, &cost, &checkin);
    guard(ratio, &cost);
}
