//! E2 — "rapid access to any version of a hypergraph".
//!
//! Backward deltas make the current version O(size) to check out while a
//! version k steps back applies k deltas. Measures `openNode` at the head,
//! the midpoint, and the oldest version across history depths — through the
//! archive's temporal index (repeat access is an exact anchor hit) and
//! through `Archive::checkout_uncached` (every access replays the full
//! delta chain).

use neptune_bench::harness::{BenchmarkId, Criterion};
use neptune_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use neptune_bench::{fresh_ham, main_ctx, versioned_node};
use neptune_ham::types::Time;

fn bench_version_access(c: &mut Criterion) {
    for &depth in &[10usize, 100, 1000] {
        let mut ham = fresh_ham("e2");
        let (node, times) = versioned_node(&mut ham, main_ctx(), 16 * 1024, depth, 2);
        let mut group = c.benchmark_group(format!("e2_open_node_depth_{depth}"));
        let positions = [
            ("head", Time::CURRENT),
            ("mid", times[depth / 2]),
            ("oldest", times[0]),
        ];
        for (name, t) in positions {
            group.bench_with_input(BenchmarkId::from_parameter(name), &t, |b, &t| {
                b.iter(|| {
                    let opened = ham.open_node(main_ctx(), node, t, &[]).unwrap();
                    black_box(opened.contents.len())
                });
            });
        }
        // The same deep access on the reference path: every iteration pays
        // the full backward-delta replay, the pre-index behaviour.
        let graph = ham.graph(main_ctx()).unwrap();
        let archive = graph.node(node).unwrap().archive().unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter("oldest_uncached"),
            &times[0],
            |b, &t| {
                b.iter(|| black_box(archive.checkout_uncached(t.0).unwrap().len()));
            },
        );
        group.finish();
    }
}

fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_millis(1200))
        .warm_up_time(std::time::Duration::from_millis(300))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_version_access
}
criterion_main!(benches);
