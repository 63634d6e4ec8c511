//! Fixture-driven proof that every rule family fires — and only where it
//! should.
//!
//! `tests/fixtures/violations/` is a miniature workspace where each rule
//! has at least one deliberate violation at a known line; the test pins the
//! exact `(rule, path, line)` set, so a rule that silently stops firing (or
//! starts over-firing) fails here, not in review. `tests/fixtures/clean/`
//! exercises every way a finding is legitimately absent: exempt files
//! (`vfs.rs`, `client.rs`), `#[cfg(test)]` stripping, inline suppressions,
//! and plain conforming code. The final test lints the real workspace,
//! keeping the tree clean by construction.

use std::path::{Path, PathBuf};

use neptune_lint::lint_root;

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn violating_fixture_fires_every_rule_family() {
    let findings = lint_root(&fixture_root("violations")).expect("fixture tree readable");
    let mut got: Vec<(String, String, u32)> = findings
        .iter()
        .map(|f| (f.rule.to_string(), f.path.clone(), f.line))
        .collect();
    got.sort();
    let mut expected: Vec<(String, String, u32)> = [
        // bad_metrics.rs: too few segments, unknown unit, unknown crate —
        // plus a directive that suppresses nothing.
        ("metric-name", "crates/neptune-obs/src/bad_metrics.rs", 3),
        ("metric-name", "crates/neptune-obs/src/bad_metrics.rs", 4),
        ("metric-name", "crates/neptune-obs/src/bad_metrics.rs", 5),
        (
            "unused-suppression",
            "crates/neptune-obs/src/bad_metrics.rs",
            7,
        ),
        // bad_handler.rs: indexing, unwrap, unreachable!, expect + indexing.
        ("panic-path", "crates/neptune-server/src/bad_handler.rs", 4),
        ("panic-path", "crates/neptune-server/src/bad_handler.rs", 9),
        ("panic-path", "crates/neptune-server/src/bad_handler.rs", 16),
        ("panic-path", "crates/neptune-server/src/bad_handler.rs", 21),
        ("panic-path", "crates/neptune-server/src/bad_handler.rs", 21),
        // bad_order.rs: gate-after-shard inversion, blocking sleep under a
        // shard guard, same-rank shard re-entry, and a view loaded under
        // the gate and under a shard lock (views rank below both).
        ("lock-order", "crates/neptune-server/src/bad_order.rs", 5),
        ("lock-order", "crates/neptune-server/src/bad_order.rs", 12),
        ("lock-order", "crates/neptune-server/src/bad_order.rs", 18),
        ("lock-order", "crates/neptune-server/src/bad_order.rs", 25),
        ("lock-order", "crates/neptune-server/src/bad_order.rs", 32),
        // server.rs: a duplicate request_root call site (the extra one is
        // reported; the first is the legitimate root).
        ("span-parent", "crates/neptune-server/src/server.rs", 5),
        // bad_io.rs: `fs::write`, then `std::fs::File::open` (both the
        // `fs::` path and `File::` are reported).
        ("vfs-bypass", "crates/neptune-storage/src/bad_io.rs", 6),
        ("vfs-bypass", "crates/neptune-storage/src/bad_io.rs", 10),
        ("vfs-bypass", "crates/neptune-storage/src/bad_io.rs", 10),
        // wal.rs: decode fns with indexing + expect (both on line 4),
        // unreachable! in from_tag, unwrap in read_magic; the assert! in
        // encode() is deliberately out of the rule's scope.
        ("parse-path", "crates/neptune-storage/src/wal.rs", 4),
        ("parse-path", "crates/neptune-storage/src/wal.rs", 4),
        ("parse-path", "crates/neptune-storage/src/wal.rs", 11),
        ("parse-path", "crates/neptune-storage/src/wal.rs", 16),
    ]
    .iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), *l))
    .collect();
    expected.sort();
    assert_eq!(
        got, expected,
        "fixture findings drifted; update the fixture or the rule"
    );
}

#[test]
fn clean_fixture_produces_no_findings() {
    let findings = lint_root(&fixture_root("clean")).expect("fixture tree readable");
    assert!(
        findings.is_empty(),
        "clean fixture should lint clean, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_self_check_is_clean() {
    // crates/neptune-lint/../.. is the real workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolvable");
    let findings = lint_root(&root).expect("workspace readable");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean (suppress intentional exceptions \
         with `// neptune-lint: allow(rule): reason`), got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
