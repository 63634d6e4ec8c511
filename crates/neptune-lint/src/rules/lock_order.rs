//! `lock-order`: the server's lock hierarchy (DESIGN.md §9) is committed
//! view first, then the gate mutex, then the shard locks in ascending
//! index order — never the reverse — and nothing that can block
//! indefinitely may run while a shard guard is held. A view load sits
//! *below* every lock because the lock-free read path must never develop
//! a blocking dependency: loading a snapshot while holding the gate or a
//! shard lock smuggles the publication slot into a critical section.
//!
//! The pass is a linear scan over the token stream that tracks *live
//! guards*: every syntactic acquisition site (`load_view()`,
//! `load_multi_view()`, `view.load()`, `multi_view()`, `lock_gate()`,
//! `wait_for_gate(...)`, `gate.lock()`, `lock_home(...)`/`lock_shard(...)`)
//! records a ranked guard bound to its `let` binding (or to the enclosing
//! statement for temporaries). A guard dies at `drop(name)`, at the end
//! of its statement (temporaries), or when its scope's brace closes. Two
//! violations:
//!
//! * acquiring a rank while a guard of equal or higher rank is live
//!   (e.g. taking the gate while holding a shard — the inversion that
//!   deadlocks against the correct order). Shard-over-shard acquisition
//!   in *ascending index* order is the two-phase cross-shard path and
//!   lives inside neptune-ham, which this server-scoped pass does not
//!   scan; server code holds at most one shard guard, so same-rank shard
//!   re-entry is flagged like any other re-entry;
//! * calling a blocking primitive (condvar waits, sleeps, fsync-shaped
//!   syncs, socket frame I/O) while any shard guard is live.
//!   Machine *methods* that fsync internally (`checkpoint`,
//!   `commit_transaction`) are the durability barrier and are
//!   intentionally exempt: the contract is about foreign blocking work,
//!   not the machine's own write path.

use crate::tokutil::text;
use crate::{lexer::Token, Finding, Kind, SourceFile};

const RANK_VIEW: u8 = 0;
const RANK_GATE: u8 = 1;
const RANK_SHARD: u8 = 2;

const BLOCKING_CALLS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_timeout_while",
    "wait_while",
    "sleep",
    "sync",
    "sync_all",
    "sync_data",
    "fsync",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_frame",
    "write_frame",
    "queue_frame",
    "recv",
    "recv_timeout",
    "join",
    "accept",
];

struct Guard {
    rank: u8,
    depth: i32,
    /// `let` binding the guard lives in; `None` marks a temporary that
    /// dies at the next statement end.
    name: Option<String>,
    line: u32,
    what: &'static str,
}

pub fn run(file: &SourceFile) -> Vec<Finding> {
    if file.crate_name != "neptune-server" {
        return Vec::new();
    }
    let toks = &file.tokens;
    let mut findings = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;

    for i in 0..toks.len() {
        let t = &toks[i];
        match t.text.as_str() {
            "{" if t.kind == Kind::Punct => depth += 1,
            "}" if t.kind == Kind::Punct => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            ";" if t.kind == Kind::Punct => {
                guards.retain(|g| !(g.name.is_none() && g.depth >= depth));
            }
            _ => {}
        }

        // drop(name) kills the named guard.
        if t.kind == Kind::Ident
            && t.text == "drop"
            && text(toks, i + 1) == "("
            && toks.get(i + 2).is_some_and(|n| n.kind == Kind::Ident)
            && text(toks, i + 3) == ")"
        {
            let name = text(toks, i + 2);
            if let Some(pos) = guards.iter().rposition(|g| g.name.as_deref() == Some(name)) {
                guards.remove(pos);
            }
        }

        let acquired = acquisition(toks, i);
        if let Some((rank, what)) = acquired {
            // A held view is an `Arc` clone, not a lock: two live views
            // never conflict, so same-rank re-entry is flagged only for
            // the real locks.
            if let Some(held) = guards
                .iter()
                .filter(|g| g.rank > rank || (g.rank == rank && rank != RANK_VIEW))
                .max_by_key(|g| g.rank)
            {
                findings.push(Finding {
                    rule: "lock-order",
                    path: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "{what} acquired while {} (acquired line {}) is still held; \
                         the hierarchy is view \u{2192} gate \u{2192} shard[i] \
                         ascending, and no lock rank may be re-entered \
                         (DESIGN.md \u{a7}9)",
                        held.what, held.line
                    ),
                });
            }
            guards.push(Guard {
                rank,
                depth,
                name: binding_name(toks, i),
                line: t.line,
                what,
            });
        } else if t.kind == Kind::Ident
            && BLOCKING_CALLS.contains(&t.text.as_str())
            && text(toks, i + 1) == "("
            && text(toks, i.wrapping_sub(1)) != "fn"
        {
            if let Some(held) = guards.iter().find(|g| g.rank >= RANK_SHARD) {
                findings.push(Finding {
                    rule: "lock-order",
                    path: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "blocking call `{}` while {} from line {} is held; \
                         blocking under a machine lock starves every writer queued \
                         on that shard (DESIGN.md \u{a7}9)",
                        t.text, held.what, held.line
                    ),
                });
            }
        }
    }
    findings
}

/// Is the token at `i` a lock acquisition? Returns its rank and a label.
fn acquisition(toks: &[Token], i: usize) -> Option<(u8, &'static str)> {
    let t = toks.get(i)?;
    if t.kind != Kind::Ident || text(toks, i + 1) != "(" {
        return None;
    }
    // Definitions (`fn lock_gate(...)`) are not acquisitions.
    if i > 0 && text(toks, i - 1) == "fn" {
        return None;
    }
    let prev_is_dot = i > 0 && text(toks, i - 1) == ".";
    let receiver = if prev_is_dot && i >= 2 {
        text(toks, i - 2)
    } else {
        ""
    };
    match t.text.as_str() {
        "load_view" | "load_multi_view" | "multi_view" => Some((RANK_VIEW, "the committed view")),
        "load" if receiver.contains("view") || receiver.contains("published") => {
            Some((RANK_VIEW, "the committed view"))
        }
        "lock_gate" | "wait_for_gate" => Some((RANK_GATE, "the gate mutex")),
        "lock" if receiver.contains("gate") => Some((RANK_GATE, "the gate mutex")),
        "lock_home" | "lock_shard" => Some((RANK_SHARD, "a shard guard")),
        _ => None,
    }
}

/// The `let` binding a guard acquired at token `i` lives in: scan back to
/// the start of the statement and take the first identifier after `let`
/// (skipping `mut`). `None` means the guard is a temporary.
fn binding_name(toks: &[Token], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.kind == Kind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        if t.kind == Kind::Ident && t.text == "let" {
            let mut k = j + 1;
            while let Some(n) = toks.get(k) {
                match (n.kind, n.text.as_str()) {
                    (Kind::Ident, "mut") | (Kind::Punct, "(") => k += 1,
                    (Kind::Ident, name) => return Some(name.to_string()),
                    _ => return None,
                }
            }
            return None;
        }
    }
    None
}
