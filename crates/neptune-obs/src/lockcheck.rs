//! Dynamic lock-order checking: a debug-build-only ranked-acquisition
//! tracker that panics the moment a thread acquires locks against the
//! declared hierarchy.
//!
//! The server's hierarchy (DESIGN.md §9) is *committed view → gate mutex
//! → shard locks in ascending index order*, never the reverse.
//! `neptune-lint`'s `lock-order` rule checks this syntactically; this
//! module is the runtime half of the same contract:
//! every guard the server takes carries a [`Held`] token, and acquiring a
//! rank while the same thread already holds an equal or higher rank panics
//! with both acquisition sites named. Under `cargo test` (debug
//! assertions on) an inversion therefore fails loudly at the exact call
//! site instead of deadlocking some unlucky future run; in release builds
//! [`Held`] is a zero-sized no-op and the tracker compiles away entirely.
//!
//! Ranks are `u32`s with gaps so layers can slot locks in between;
//! [`VIEW`], [`GATE`] and the [`shard`] ranks are the ones the server uses
//! today. Tokens may be released in any order (the server drops the gate
//! before the shard guard), so the per-thread state is a small set, not a
//! stack.

/// A lock's position in the acquisition hierarchy: lower ranks must be
/// acquired first. Equal ranks conflict (re-entry on the same thread is an
/// error for every lock in the hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank(pub u32);

/// The committed-view publication slot (`Published<CommittedView>`): the
/// brief internal mutex behind `Published::load`/`publish`. Ranked below
/// the gate so a view load is legal only while holding *no* server lock —
/// the lock-free read path's whole contract — while writers publish after
/// releasing their guards.
pub const VIEW: Rank = Rank(5);

/// The transaction gate mutex (`Shared::gate` in neptune-server).
pub const GATE: Rank = Rank(10);

/// Base rank of the per-shard machine locks: shard `i` ranks at
/// `SHARD_BASE + i`, so acquiring shards in ascending index order is
/// automatically rank-ordered — the cross-shard two-phase commit's
/// deadlock-freedom argument, checked at runtime.
pub const SHARD_BASE: Rank = Rank(30);

/// The rank of shard `index`'s machine lock (see [`SHARD_BASE`]).
pub const fn shard(index: usize) -> Rank {
    Rank(SHARD_BASE.0 + index as u32)
}

/// Witness that a lock of some rank is held by the current thread.
/// Dropping it releases the rank. Zero-sized in release builds.
#[derive(Debug)]
#[must_use = "dropping the token immediately releases the rank"]
pub struct Held {
    #[cfg(debug_assertions)]
    id: u64,
}

/// Record acquisition of `rank` by the current thread.
///
/// # Panics
///
/// In debug builds, if this thread already holds a lock of rank `>= rank`
/// — the inversion that can deadlock against a thread acquiring in the
/// declared order. Release builds never panic (the tracker is compiled
/// out).
#[inline]
pub fn acquire(rank: Rank, name: &'static str) -> Held {
    #[cfg(debug_assertions)]
    {
        debug_impl::acquire(rank, name)
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (rank, name);
        Held {}
    }
}

#[cfg(debug_assertions)]
mod debug_impl {
    use super::{Held, Rank};
    use std::cell::RefCell;

    struct Entry {
        rank: Rank,
        name: &'static str,
        id: u64,
    }

    thread_local! {
        static HELD: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
        static NEXT_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn acquire(rank: Rank, name: &'static str) -> Held {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(conflict) = held.iter().find(|e| e.rank >= rank) {
                panic!(
                    "lock-order violation: acquiring `{name}` (rank {}) while holding \
                     `{}` (rank {}); the hierarchy is view \u{2192} gate \u{2192} \
                     shard[i] ascending, lower ranks first (DESIGN.md \u{a7}9)",
                    rank.0, conflict.name, conflict.rank.0
                );
            }
            let id = NEXT_ID.with(|n| {
                let id = n.get();
                n.set(id + 1);
                id
            });
            held.push(Entry { rank, name, id });
            Held { id }
        })
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                if let Ok(mut held) = held.try_borrow_mut() {
                    if let Some(pos) = held.iter().position(|e| e.id == self.id) {
                        held.remove(pos);
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_acquisition_is_clean() {
        let gate = acquire(GATE, "gate");
        let home = acquire(shard(0), "shard 0");
        // Out-of-order release (the server's pattern: gate first).
        drop(gate);
        drop(home);
        // And the whole sequence again, proving state was fully released.
        let gate = acquire(GATE, "gate");
        drop(gate);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock-order violation"))]
    fn inverted_acquisition_panics() {
        let _home = acquire(shard(0), "shard 0");
        let _gate = acquire(GATE, "gate");
        // Release builds compile the tracker out; the cfg_attr above makes
        // this test assert the panic only when the tracker is live.
        #[cfg(not(debug_assertions))]
        panic!("lock-order violation (tracker compiled out)");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock-order violation"))]
    fn same_rank_reentry_panics() {
        let _a = acquire(shard(0), "shard 0");
        let _b = acquire(shard(0), "shard 0");
        #[cfg(not(debug_assertions))]
        panic!("lock-order violation (tracker compiled out)");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock-order violation"))]
    fn view_load_under_gate_panics() {
        // The lock-free contract: a view load may not happen while any
        // server lock is held.
        let _gate = acquire(GATE, "gate");
        let _view = acquire(VIEW, "view");
        #[cfg(not(debug_assertions))]
        panic!("lock-order violation (tracker compiled out)");
    }

    #[test]
    fn ascending_shard_acquisition_is_clean_and_descending_is_not() {
        let s0 = acquire(shard(0), "shard 0");
        let s3 = acquire(shard(3), "shard 3");
        drop(s0);
        drop(s3);
        let caught = std::thread::spawn(|| {
            let _s3 = acquire(shard(3), "shard 3");
            let _s1 = acquire(shard(1), "shard 1");
        })
        .join();
        if cfg!(debug_assertions) {
            assert!(caught.is_err(), "descending shard order should panic");
        }
    }

    #[test]
    fn ranks_are_per_thread() {
        let _home = acquire(shard(0), "shard 0");
        // Another thread starts with a clean slate: gate-after-shard on
        // *this* thread is the violation, not across threads.
        std::thread::spawn(|| {
            let _gate = acquire(GATE, "gate");
        })
        .join()
        .expect("spawned thread should not panic");
    }
}
