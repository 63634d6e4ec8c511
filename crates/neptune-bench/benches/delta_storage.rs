//! E1 — backward-delta storage efficiency.
//!
//! Paper §3: *"we wanted effective storage of many versions of such data
//! without copying each individual item; for nodes this is provided by
//! backward deltas similar to RCS."* Measures (a) check-in latency as
//! history grows and (b) bytes stored by the delta archive vs the
//! full-copy baseline (printed as a table, recorded in EXPERIMENTS.md),
//! and (c) what the backward delta alone costs a check-in.

use neptune_bench::harness::{BatchSize, BenchmarkId, Criterion};
use neptune_bench::{criterion_group, criterion_main};
use std::hint::black_box;

use neptune_bench::{edit_lines, text};
use neptune_storage::archive::Archive;
use neptune_storage::delta::Delta;

fn build_archive(bytes: usize, versions: usize) -> Archive {
    let mut contents = text(bytes, 1);
    let mut archive = Archive::new(contents.clone(), 1);
    for v in 1..versions {
        contents = edit_lines(&contents, 2, v as u64);
        archive.checkin(contents.clone(), (v + 1) as u64).unwrap();
    }
    archive
}

fn storage_table() {
    println!("\nE1: delta vs full-copy storage (node ~16 KiB, 2-line edits per version)");
    println!(
        "{:>10} {:>14} {:>14} {:>8}",
        "versions", "delta bytes", "full bytes", "ratio"
    );
    for versions in [10, 100, 500, 1000] {
        let archive = build_archive(16 * 1024, versions);
        let delta = archive.storage_bytes();
        let full = archive.full_copy_bytes().unwrap();
        println!(
            "{:>10} {:>14} {:>14} {:>7.1}x",
            versions,
            delta,
            full,
            full as f64 / delta as f64
        );
    }
    println!();
}

fn bench_checkin(c: &mut Criterion) {
    storage_table();
    let mut group = c.benchmark_group("e1_checkin");
    for &versions in &[10usize, 100, 1000] {
        // Check-in cost should be independent of history depth: only one
        // backward delta is computed per check-in.
        group.bench_with_input(
            BenchmarkId::new("into_history_of", versions),
            &versions,
            |b, &versions| {
                let archive = build_archive(16 * 1024, versions);
                let head = archive.head().to_vec();
                let next = edit_lines(&head, 2, 777);
                let t = archive.head_time();
                // The clone is setup, not the measured check-in.
                b.iter_batched(
                    || archive.clone(),
                    |mut a| {
                        a.checkin(next.clone(), t + 1).unwrap();
                        black_box(a.version_count())
                    },
                    BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("e1_checkin_by_size");
    for &kib in &[4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::new("node_kib", kib), &kib, |b, &kib| {
            let archive = build_archive(kib * 1024, 10);
            let next = edit_lines(archive.head(), 2, 778);
            let t = archive.head_time();
            b.iter_batched(
                || archive.clone(),
                |mut a| {
                    a.checkin(next.clone(), t + 1).unwrap();
                    black_box(a.version_count())
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// The backward delta alone, as a check-in computes it: a new node's first
/// version (the old head is empty, so the delta is too), and two-line edits
/// of 2 and 4 KiB nodes.
fn bench_delta_compute(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_delta_compute");
    let body = text(2 * 1024, 3);
    group.bench_function("first_version_2kib", |b| {
        b.iter(|| black_box(Delta::compute(&body, b"").op_count()));
    });
    for kib in [2usize, 4] {
        let old = text(kib * 1024, 5);
        let new = edit_lines(&old, 2, 9);
        group.bench_with_input(BenchmarkId::new("two_line_edit_kib", kib), &kib, |b, _| {
            b.iter(|| black_box(Delta::compute(&new, &old).op_count()));
        });
    }
    group.finish();
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
    targets = bench_checkin, bench_delta_compute
}
criterion_main!(benches);
