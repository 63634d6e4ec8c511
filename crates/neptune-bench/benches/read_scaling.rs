//! Read scaling: the archive's version cache, zero-copy contents, and
//! concurrent readers.
//!
//! Four claims from the read-path work are measured here and emitted as
//! machine-readable JSON (`BENCH_read_scaling.json`, or the path named by
//! `NEPTUNE_BENCH_OUT`):
//!
//! 1. **Deep-history checkout.** Opening a version `k` steps back replays
//!    `k` backward deltas; the archive's temporal index (skip ladder plus
//!    anchors, the retained target among them) turns repeated access into
//!    an exact anchor hit. Measured at depth 100 as `openNode` ("cached")
//!    against `Archive::checkout_uncached` on the same archive (full
//!    replay).
//! 2. **Zero-copy cache hits.** With `Arc<[u8]>` contents an anchor hit is
//!    a refcount bump, not a memcpy, so hit cost must stay near-flat from
//!    1 KiB to 1 MiB contents (the contents-size axis) — 1 MiB is four
//!    times the anchor budget, so this also pins "the last target is always
//!    retained".
//! 3. **Multi-reader throughput.** Read-only requests share the HAM under a
//!    reader lock, so aggregate `openNode` throughput should rise as reader
//!    clients are added instead of flat-lining behind a single mutex.
//! 4. **Round-trip amortization.** Pipelined and batched variants of the
//!    same workload show what removing the write→wait→read lockstep and
//!    the per-request gate/lock work buys (`batch_speedup`).
//! 5. **Lock-free reads under a foreign transaction.** The `lock_free`
//!    variant runs the pipelined workload while another client holds an
//!    open transaction the whole time. Before snapshot publication this
//!    was impossible — every read parked at the gate until the lock
//!    timeout; now readers serve from the published view at full speed,
//!    so `lock_free` must be at least as fast as lockstep calls at every
//!    reader count.
//!
//! With `NEPTUNE_BENCH_GUARD` set (ci.sh smoke runs), the derived numbers
//! double as a regression guard: the process exits nonzero if the cache
//! speedup, the reader-scaling ratio, or the lock-free-vs-lockstep ratio
//! falls below generous floors.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use neptune_bench::harness::{BenchResult, BenchmarkId, Criterion, Throughput};
use neptune_bench::{fresh_ham, main_ctx, versioned_node};
use neptune_ham::types::{NodeIndex, Time};
use neptune_server::{serve, Client, Request, Response};

const DEPTH: usize = 100;
const OPS_PER_READER: usize = 100;
const READER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SIZES: [(usize, &str); 3] = [(1024, "1KiB"), (64 * 1024, "64KiB"), (1024 * 1024, "1MiB")];

fn bench_deep_checkout(c: &mut Criterion) {
    let mut ham = fresh_ham("rs-depth");
    let (node, times) = versioned_node(&mut ham, main_ctx(), 16 * 1024, DEPTH, 2);
    let oldest = times[0];

    let mut group = c.benchmark_group(format!("read_scaling_checkout_depth_{DEPTH}"));
    group.bench_function("cached", |b| {
        b.iter(|| {
            let opened = ham.open_node(main_ctx(), node, oldest, &[]).unwrap();
            black_box(opened.contents.len())
        });
    });
    // The baseline is the reference replay on the node's own archive: the
    // whole chain from the head, never touching the temporal index.
    let graph = ham.graph(main_ctx()).unwrap();
    let archive = graph.node(node).unwrap().archive().unwrap();
    group.bench_function("uncached", |b| {
        b.iter(|| black_box(archive.checkout_uncached(oldest.0).unwrap().len()));
    });
    group.finish();
}

/// Cache-hit cost across contents sizes: each iteration opens a historical
/// version already held as an anchor by its archive. If contents were still
/// copied per read this would grow linearly with size; with shared
/// `Arc<[u8]>` buffers it stays near-flat.
fn bench_contents_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("read_scaling_contents_size");
    for &(bytes, label) in &SIZES {
        let mut ham = fresh_ham(&format!("rs-size-{label}"));
        let (node, times) = versioned_node(&mut ham, main_ctx(), bytes, 4, 1);
        let historical = times[1];
        // One read leaves the anchor, so the measured loop is hits only.
        ham.open_node(main_ctx(), node, historical, &[]).unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                let opened = ham.open_node(main_ctx(), node, historical, &[]).unwrap();
                black_box(opened.contents.len())
            });
        });
    }
    group.finish();
}

fn open_req(node: NodeIndex) -> Request {
    Request::OpenNode {
        context: main_ctx(),
        node,
        time: Time::CURRENT,
        attrs: vec![],
    }
}

/// Reader scaling over real sockets, three wire disciplines per reader
/// count: lockstep `call` per read, one pipelined flight of N frames, and
/// one `Batch` frame. Connections persist across iterations — connect cost
/// is not what's being measured.
fn bench_reader_scaling(c: &mut Criterion) {
    let mut ham = fresh_ham("rs-readers");
    let (node, _) = versioned_node(&mut ham, main_ctx(), 16 * 1024, 20, 2);
    let server = serve(ham, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    let mut group = c.benchmark_group("read_scaling_readers");
    for &readers in &READER_COUNTS {
        let mut clients: Vec<Client> = (0..readers)
            .map(|_| Client::connect(addr).unwrap())
            .collect();
        group.throughput(Throughput::Elements((readers * OPS_PER_READER) as u64));

        // The 1-reader lockstep rate is the denominator of both ratio
        // floors and is bimodal on small boxes (~12k/s vs ~22k/s on two
        // vCPUs): measure it three times and let `rate` take the median.
        let repeats = if readers == 1 { 3 } else { 1 };
        for _ in 0..repeats {
            group.bench_with_input(BenchmarkId::new("readers", readers), &readers, |b, _| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for client in &mut clients {
                            scope.spawn(|| {
                                for _ in 0..OPS_PER_READER {
                                    let opened = client
                                        .open_node(main_ctx(), node, Time::CURRENT, vec![])
                                        .unwrap();
                                    black_box(opened.contents.len());
                                }
                            });
                        }
                    });
                });
            });
        }

        group.bench_with_input(BenchmarkId::new("pipelined", readers), &readers, |b, _| {
            let requests = vec![open_req(node); OPS_PER_READER];
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in &mut clients {
                        scope.spawn(|| {
                            let responses = client.pipeline(&requests).unwrap();
                            black_box(responses.len());
                        });
                    }
                });
            });
        });

        group.bench_with_input(BenchmarkId::new("batched", readers), &readers, |b, _| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in &mut clients {
                        scope.spawn(|| {
                            let responses =
                                client.batch(vec![open_req(node); OPS_PER_READER]).unwrap();
                            for r in &responses {
                                assert!(matches!(r, Response::Opened { .. }));
                            }
                            black_box(responses.len());
                        });
                    }
                });
            });
        });

        group.bench_with_input(BenchmarkId::new("lock_free", readers), &readers, |b, _| {
            // A foreign client holds an open transaction for the entire
            // measurement. Readers are not the owner, so every read is
            // served lock-free from the last published snapshot — before
            // this existed, each of these flights would park at the gate
            // until the lock timeout.
            let mut holder = Client::connect(addr).unwrap();
            holder.begin_transaction().unwrap();
            let requests = vec![open_req(node); OPS_PER_READER];
            b.iter(|| {
                std::thread::scope(|scope| {
                    for client in &mut clients {
                        scope.spawn(|| {
                            let responses = client.pipeline(&requests).unwrap();
                            for r in &responses {
                                assert!(matches!(r, Response::Opened { .. }));
                            }
                            black_box(responses.len());
                        });
                    }
                });
            });
            holder.abort_transaction().unwrap();
        });
    }
    group.finish();
    server.stop();
}

/// Outcome of the paired tracing-overhead measurement.
struct TracingOverhead {
    /// Best-of-N ns per read with causal tracing on.
    traced_ns: f64,
    /// Best-of-N ns per read with the obs kill-switch thrown.
    untraced_ns: f64,
    /// Rendered exemplar traces (client → server → view → storage chains)
    /// captured during the traced rounds.
    exemplars: Vec<String>,
}

/// Causal-tracing overhead on the lock-free read path: the same pipelined
/// flight with tracing enabled versus disabled via the registry
/// kill-switch. Rounds interleave the two arms so cache/thermal drift hits
/// both equally, and each arm keeps its best time — the minimum is the
/// noise-free estimate of intrinsic cost, which is the overhead number the
/// report records. The disabled arm also drops the 17-byte wire prefix, so
/// the ratio honestly includes the propagation bytes, not just the
/// in-process bookkeeping.
fn measure_tracing_overhead() -> TracingOverhead {
    let mut ham = fresh_ham("rs-overhead");
    let (node, _) = versioned_node(&mut ham, main_ctx(), 16 * 1024, 20, 2);
    let server = serve(ham, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // A foreign transaction held open the whole time forces every read
    // through the published-snapshot path — the hot path the overhead
    // budget protects.
    let mut holder = Client::connect(server.addr()).unwrap();
    holder.begin_transaction().unwrap();

    let requests = vec![open_req(node); OPS_PER_READER];
    let (flights, rounds) = if neptune_bench::harness::smoke_mode() {
        (2, 5)
    } else {
        (5, 9)
    };
    let flight = |client: &mut Client| {
        let start = std::time::Instant::now();
        for _ in 0..flights {
            let responses = client.pipeline(&requests).unwrap();
            black_box(responses.len());
        }
        start.elapsed().as_nanos() as f64 / (flights * OPS_PER_READER) as f64
    };
    for _ in 0..3 {
        flight(&mut client);
    }
    let registry = neptune_obs::registry();
    let (mut traced_ns, mut untraced_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        registry.set_enabled(true);
        traced_ns = traced_ns.min(flight(&mut client));
        registry.set_enabled(false);
        untraced_ns = untraced_ns.min(flight(&mut client));
    }
    registry.set_enabled(true);

    let exemplars: Vec<String> = neptune_obs::recorder()
        .dump()
        .iter()
        .filter(|t| {
            t.root_name == "client.call"
                && t.root_detail == "OpenNode"
                && t.spans.iter().any(|s| s.name == "server.rpc")
        })
        .take(2)
        .map(|t| neptune_obs::render_trace_json(t))
        .collect();

    holder.abort_transaction().unwrap();
    server.stop();
    TracingOverhead {
        traced_ns,
        untraced_ns,
        exemplars,
    }
}

/// Paired median-of-rounds estimate of the round-trip amortization ratio
/// (the number behind the single-core guard fallback).
///
/// The criterion-derived `batch_speedup` divides two medians measured in
/// separate benchmark groups — in smoke mode each side is a handful of
/// iterations, so near the 1.1 floor the quotient sits inside run-to-run
/// jitter and the guard flaked. Here each round runs one lockstep flight
/// and one batched flight back-to-back on the same connection and yields
/// its own ratio; a scheduler stall or noisy neighbor then skews one
/// round, and the median round discards it. The floor itself stays at
/// 1.1 — the measurement got tighter, not the bar lower.
fn measure_batch_ratio() -> f64 {
    let mut ham = fresh_ham("rs-batch-floor");
    let (node, _) = versioned_node(&mut ham, main_ctx(), 16 * 1024, 20, 2);
    let server = serve(ham, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let requests = vec![open_req(node); OPS_PER_READER];

    let lockstep_flight = |client: &mut Client| {
        let start = Instant::now();
        for _ in 0..OPS_PER_READER {
            let opened = client
                .open_node(main_ctx(), node, Time::CURRENT, vec![])
                .unwrap();
            black_box(opened.contents.len());
        }
        start.elapsed()
    };
    let batched_flight = |client: &mut Client, requests: &[Request]| {
        let start = Instant::now();
        let responses = client.batch(requests.to_vec()).unwrap();
        black_box(responses.len());
        start.elapsed()
    };

    for _ in 0..2 {
        lockstep_flight(&mut client);
        batched_flight(&mut client, &requests);
    }
    let rounds = if neptune_bench::harness::smoke_mode() {
        9
    } else {
        15
    };
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let lockstep = lockstep_flight(&mut client);
            let batched = batched_flight(&mut client, &requests);
            lockstep.as_nanos() as f64 / batched.as_nanos().max(1) as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[(ratios.len() - 1) / 2];
    server.stop();
    median
}

fn find<'a>(results: &'a [BenchResult], needle: &str) -> Option<&'a BenchResult> {
    results.iter().find(|r| r.label.contains(needle))
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Aggregate reads/sec for a reader-scaling variant at a given count: the
/// median over however many times that cell was measured.
fn rate(results: &[BenchResult], variant: &str, readers: usize) -> f64 {
    let label = format!("/{variant}/{readers}");
    let mut ns: Vec<f64> = results
        .iter()
        .filter(|r| r.label.ends_with(&label) && r.ns_per_iter > 0.0)
        .map(|r| r.ns_per_iter)
        .collect();
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_by(f64::total_cmp);
    (readers * OPS_PER_READER) as f64 / (ns[(ns.len() - 1) / 2] / 1e9)
}

fn write_report(
    c: &Criterion,
    overhead: &TracingOverhead,
    batch_ratio_median: f64,
) -> (f64, f64, f64, f64) {
    let results = c.results();
    let mut out = String::from("{\n  \"bench\": \"read_scaling\",\n");
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
    // Registry-wide derived numbers: the share of historical checkouts over
    // the whole run that were exact anchor hits, mean transaction-gate wait (zero in this read-only workload unless a
    // writer contends).
    let snapshot = neptune_obs::registry().flat_snapshot();
    let flat = |key: &str| snapshot.get(key).copied().unwrap_or(0.0);
    let hits = flat("neptune_storage_index_exact_hits_total");
    let misses = flat("neptune_storage_index_replays_total");
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let gate_count = flat("neptune_server_gate_wait_ns_count");
    let mean_gate_wait = if gate_count > 0.0 {
        flat("neptune_server_gate_wait_ns_sum") / gate_count
    } else {
        0.0
    };
    out.push_str(&format!("    \"cache_hit_ratio\": {hit_ratio:.4},\n"));
    out.push_str(&format!(
        "    \"mean_gate_wait_ns\": {mean_gate_wait:.1},\n"
    ));
    let speedup = match (find(results, "uncached"), find(results, "/cached")) {
        (Some(u), Some(ca)) if ca.ns_per_iter > 0.0 => u.ns_per_iter / ca.ns_per_iter,
        _ => 0.0,
    };
    out.push_str(&format!(
        "    \"checkout_cache_speedup_depth_{DEPTH}\": {speedup:.2},\n"
    ));
    // Cache-hit cost by contents size: near-flat when hits are zero-copy.
    out.push_str("    \"cache_hit_ns_by_size\": {\n");
    for (i, &(_, label)) in SIZES.iter().enumerate() {
        let ns = find(results, &format!("contents_size/{label}"))
            .map(|r| r.ns_per_iter)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "      \"{label}\": {ns:.1}{}\n",
            if i + 1 < SIZES.len() { "," } else { "" }
        ));
    }
    out.push_str("    },\n");
    // Round-trip amortization at one reader: the same 100 reads, batched
    // into one frame versus 100 lockstep round trips.
    let batch_speedup = {
        let sequential = rate(results, "readers", 1);
        let batched = rate(results, "batched", 1);
        if sequential > 0.0 {
            batched / sequential
        } else {
            0.0
        }
    };
    out.push_str(&format!("    \"batch_speedup\": {batch_speedup:.2},\n"));
    // The paired median-of-rounds variant of the same ratio — the number
    // the single-core guard fallback checks (see measure_batch_ratio).
    out.push_str(&format!(
        "    \"batch_speedup_paired_median\": {batch_ratio_median:.2},\n"
    ));
    // Lock-free serving: reads completed without touching the gate or the
    // HAM lock, and the worst-case ratio of the under-foreign-transaction
    // pipelined variant to plain lockstep calls (must stay >= 1: a read
    // path that waits on writers again would crater this).
    out.push_str(&format!(
        "    \"reads_lockfree_total\": {:.0},\n",
        flat("neptune_server_reads_lockfree_total")
    ));
    // High-water mark, not the `active_connections` occupancy gauge: the
    // bench keeps its connections open across before/after snapshots, so
    // the occupancy delta cancels to zero and under-reports.
    out.push_str(&format!(
        "    \"peak_connections\": {:.0},\n",
        flat("neptune_server_peak_connections")
    ));
    let lock_free_floor = READER_COUNTS
        .iter()
        .map(|&n| {
            let lockstep = rate(results, "readers", n);
            if lockstep > 0.0 {
                rate(results, "lock_free", n) / lockstep
            } else {
                0.0
            }
        })
        .fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "    \"lock_free_vs_lockstep_min_ratio\": {lock_free_floor:.2},\n"
    ));
    for variant in ["pipelined", "batched", "lock_free"] {
        out.push_str(&format!("    \"{variant}_reads_per_sec_by_readers\": {{\n"));
        for (i, &readers) in READER_COUNTS.iter().enumerate() {
            out.push_str(&format!(
                "      \"{readers}\": {:.0}{}\n",
                rate(results, variant, readers),
                if i + 1 < READER_COUNTS.len() { "," } else { "" }
            ));
        }
        out.push_str("    },\n");
    }
    out.push_str("    \"reads_per_sec_by_readers\": {\n");
    for (i, &readers) in READER_COUNTS.iter().enumerate() {
        out.push_str(&format!(
            "      \"{readers}\": {:.0}{}\n",
            rate(results, "readers", readers),
            if i + 1 < READER_COUNTS.len() { "," } else { "" }
        ));
    }
    out.push_str("    },\n");
    // Causal-tracing cost on the lock-free read path (paired best-of-N;
    // the recorded number behind the DESIGN.md §10 overhead budget — the
    // guard enforces the budget via the 0.95 lock-free throughput floor).
    let overhead_ratio = if overhead.untraced_ns > 0.0 && overhead.untraced_ns.is_finite() {
        overhead.traced_ns / overhead.untraced_ns
    } else {
        0.0
    };
    out.push_str("    \"tracing_overhead\": {\n");
    out.push_str(&format!(
        "      \"traced_ns_per_read\": {:.1},\n",
        overhead.traced_ns
    ));
    out.push_str(&format!(
        "      \"untraced_ns_per_read\": {:.1},\n",
        overhead.untraced_ns
    ));
    out.push_str(&format!(
        "      \"tracing_overhead_ratio\": {overhead_ratio:.4}\n"
    ));
    out.push_str("    },\n");
    // The exemplars are already JSON (render_trace_json), embedded raw.
    out.push_str("    \"exemplar_traces\": [\n");
    for (i, t) in overhead.exemplars.iter().enumerate() {
        out.push_str(&format!(
            "      {t}{}\n",
            if i + 1 < overhead.exemplars.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("    ]\n  }\n}\n");

    let path = std::env::var("NEPTUNE_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_read_scaling.json".to_string());
    let mut file = std::fs::File::create(&path).expect("create bench report");
    file.write_all(out.as_bytes()).expect("write bench report");
    println!("wrote {path}");
    println!("checkout cache speedup at depth {DEPTH}: {speedup:.1}x");
    println!(
        "batch speedup at 1 reader: {batch_speedup:.2}x (paired median {batch_ratio_median:.2}x)"
    );
    let scaling = if rate(results, "readers", 1) > 0.0 {
        rate(results, "readers", 8) / rate(results, "readers", 1)
    } else {
        0.0
    };
    println!("8-reader vs 1-reader sequential throughput: {scaling:.2}x");
    println!("lock-free vs lockstep, worst reader count: {lock_free_floor:.2}x");
    println!(
        "tracing overhead on lock-free reads: {:.0}ns traced vs {:.0}ns untraced ({:.1}%)",
        overhead.traced_ns,
        overhead.untraced_ns,
        (overhead_ratio - 1.0) * 100.0
    );
    (speedup, scaling, batch_speedup, lock_free_floor)
}

/// Regression floors for CI smoke runs (`NEPTUNE_BENCH_GUARD` set):
/// generous enough not to flake on a noisy shared runner, tight enough to
/// catch a reintroduced per-read copy or a serialized read path.
///
/// The reader-scaling floor needs CPUs to scale onto: on a single-core
/// runner there is never an idle core for extra readers to reclaim, so the
/// 8-vs-1 ratio is physically pinned near 1 for any wire discipline. There
/// the guard checks the round-trip amortization win instead — batching
/// must still beat lockstep calls, which is what a reintroduced per-read
/// copy or per-element lock acquisition would break. That fallback checks
/// the *paired median-of-rounds* ratio ([`measure_batch_ratio`]), not the
/// quotient of two separately-measured medians: back-to-back flights on
/// one connection make each round its own comparison, so the 1.1 floor
/// sits against a tight number instead of smoke-run jitter. With cores to
/// spare, lock-free snapshot reads raise the bar: 8 readers must reach at
/// least `min(cores, 8)/2`× one reader (4× on an 8-core runner — the old
/// 2× floor was the single-RwLock ceiling this PR removed).
///
/// The lock-free floor is core-count independent: pipelined reads under a
/// foreign open transaction must never be slower than lockstep calls with
/// no writer at all (the pre-snapshot behavior was a gate timeout, i.e.
/// roughly zero throughput).
fn guard(
    speedup: f64,
    scaling: f64,
    batch_ratio_median: f64,
    lock_free_floor: f64,
    overhead: &TracingOverhead,
) {
    if std::env::var("NEPTUNE_BENCH_GUARD").map_or(true, |v| v.is_empty()) {
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut failed = false;
    if speedup < 10.0 {
        eprintln!("GUARD FAIL: checkout_cache_speedup_depth_{DEPTH} = {speedup:.2} < 10");
        failed = true;
    }
    if cores >= 2 {
        let floor = (cores.min(8) as f64 / 2.0).max(2.0);
        if scaling < floor {
            eprintln!(
                "GUARD FAIL: reads_per_sec_by_readers 8-vs-1 ratio = {scaling:.2} < \
                 {floor:.1} ({cores} cores)"
            );
            failed = true;
        }
    } else if batch_ratio_median < 1.1 {
        eprintln!(
            "GUARD FAIL: single-core runner and batch_speedup_paired_median = \
             {batch_ratio_median:.2} < 1.1"
        );
        failed = true;
    }
    // PR 7's floor was 1.0 (lock-free pipelined reads under a foreign
    // transaction at least match lockstep with no writer). The scaling
    // benches now run with the causal tracer always on, so the floor check
    // itself proves tracing-enabled throughput: 1.0 minus the 5% tracing
    // allowance from DESIGN.md §10, minus the ±5% run-to-run jitter a
    // single-core smoke run shows at N=1 (observed 0.93–1.06 across
    // back-to-back runs). The regression this floor defends against —
    // reads under a foreign transaction waiting on the lock — measured
    // ~0.1x before PR 7, so 0.90 loses none of its power.
    if lock_free_floor < 0.90 {
        eprintln!(
            "GUARD FAIL: lock_free_vs_lockstep_min_ratio = {lock_free_floor:.2} < 0.90 \
             (PR 7 floor 1.0, minus the 5% tracing allowance and smoke-run jitter); \
             reads under a foreign transaction are waiting on a lock again"
        );
        failed = true;
    }
    // The paired traced/untraced measurement is the recorded overhead
    // number (3–7% on an idle single-core container). The ceiling adds
    // headroom for runner noise; what it catches is a real cost
    // regression on the span hot path — a reintroduced per-span
    // allocation pair measured ~1.10, a per-span syscall would be worse.
    if overhead.untraced_ns > 0.0 && overhead.untraced_ns.is_finite() {
        let ratio = overhead.traced_ns / overhead.untraced_ns;
        if ratio > 1.15 {
            eprintln!(
                "GUARD FAIL: tracing_overhead_ratio = {ratio:.3} > 1.15 on the \
                 lock-free read path ({:.0}ns traced vs {:.0}ns untraced)",
                overhead.traced_ns, overhead.untraced_ns
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "bench guard passed (cache speedup {speedup:.1}x, reader scaling {scaling:.2}x, \
         paired batch speedup {batch_ratio_median:.2}x, lock-free/lockstep \
         {lock_free_floor:.2}x, {cores} core(s))"
    );
}

fn main() {
    // Start from zeroed counters so the emitted snapshot reflects this run
    // only (the registry is process-global).
    neptune_obs::registry().reset();
    let mut criterion = Criterion::default()
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    bench_deep_checkout(&mut criterion);
    bench_contents_size(&mut criterion);
    bench_reader_scaling(&mut criterion);
    let overhead = measure_tracing_overhead();
    let batch_ratio_median = measure_batch_ratio();
    let (speedup, scaling, _batch_speedup, lock_free_floor) =
        write_report(&criterion, &overhead, batch_ratio_median);
    guard(
        speedup,
        scaling,
        batch_ratio_median,
        lock_free_floor,
        &overhead,
    );
}
