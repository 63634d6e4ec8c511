//! Forks logged by reference replay to the store they were logged from.
//!
//! A seeded stream at 2 and 8 shards forks from MAIN and from children,
//! onto higher shards (a reference) and lower ones (the parent's graph),
//! inside and outside explicit transactions; it edits, merges, destroys,
//! checkpoints the store or a single shard, and reopens it at random
//! points. After every reopen each context's encoded graph and fork point
//! must equal what the live store held.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::types::{ContextId, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{HamError, ShardedHam};
use neptune_storage::codec::Encode;
use neptune_storage::testutil::XorShift;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-forkref-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Each live context's encoded graph and fork point.
type State = BTreeMap<u64, (Vec<u8>, Option<(ContextId, Time)>)>;

fn state(ham: &ShardedHam) -> State {
    ham.live_contexts()
        .into_iter()
        .map(|c| {
            let guard = ham.lock_shard(ham.shard_of(c));
            let graph = guard.graph(c).unwrap().to_bytes();
            (c.0, (graph, guard.context_forked_from(c).unwrap()))
        })
        .collect()
}

struct World {
    dir: PathBuf,
    /// `None` only while [`World::reopen`] swaps machines.
    ham: Option<ShardedHam>,
    rng: XorShift,
    what: String,
    /// Forks onto a higher / a lower shard, so the test can show it made
    /// both.
    up: usize,
    down: usize,
}

impl World {
    fn ham(&self) -> &ShardedHam {
        self.ham.as_ref().expect("a machine is open")
    }

    fn pick_context(&mut self) -> ContextId {
        let ctxs = self.ham().live_contexts();
        ctxs[self.rng.index(ctxs.len())]
    }

    /// Live contexts no live context forks from: destroying one of them
    /// leaves no fork without its parent.
    fn leaves(&self) -> Vec<ContextId> {
        let ham = self.ham();
        let live = ham.live_contexts();
        let parents: BTreeSet<ContextId> = live
            .iter()
            .filter_map(|c| {
                let guard = ham.lock_shard(ham.shard_of(*c));
                guard.context_forked_from(*c).unwrap().map(|(p, _)| p)
            })
            .collect();
        live.into_iter()
            .filter(|c| *c != MAIN_CONTEXT && !parents.contains(c))
            .collect()
    }

    fn node_op(&mut self, ctx: ContextId) {
        let ham = self.ham.as_ref().expect("a machine is open");
        let mut guard = ham.lock_home(ctx).unwrap();
        let live: Vec<NodeIndex> = guard
            .graph(ctx)
            .unwrap()
            .nodes()
            .filter(|n| n.exists_at(Time::CURRENT))
            .map(|n| n.id)
            .collect();
        if live.is_empty() || self.rng.chance(1, 3) {
            guard.add_node(ctx, self.rng.chance(3, 4)).unwrap();
            return;
        }
        let node = live[self.rng.index(live.len())];
        let t = guard.get_node_time_stamp(ctx, node).unwrap();
        let len = 1 + self.rng.below(64) as usize;
        let contents = self.rng.bytes(len);
        guard.modify_node(ctx, node, t, contents, &[]).unwrap();
    }

    fn fork(&mut self, parent: ContextId) {
        let child = self.ham().create_context(parent).unwrap();
        let (p, c) = (self.ham().shard_of(parent), self.ham().shard_of(child));
        if p < c {
            self.up += 1;
        } else if p > c {
            self.down += 1;
        }
    }

    /// Reopen the store and require it to equal the live one.
    fn reopen(&mut self) {
        let live = state(self.ham());
        // The old machine goes first: two handles on one WAL is not a
        // state the store is ever in.
        self.ham = None;
        let (ham, _, _) = ShardedHam::open(&self.dir)
            .unwrap_or_else(|e| panic!("{}: reopen failed: {e}", self.what));
        let reopened = state(&ham);
        assert_eq!(
            reopened.keys().collect::<Vec<_>>(),
            live.keys().collect::<Vec<_>>(),
            "{}: other contexts after reopen",
            self.what
        );
        for (ctx, (graph, fork)) in &live {
            let (got_graph, got_fork) = &reopened[ctx];
            assert_eq!(got_fork, fork, "{}: context {ctx}'s fork point", self.what);
            assert!(
                got_graph == graph,
                "{}: context {ctx}'s graph differs after reopen",
                self.what
            );
        }
        self.ham = Some(ham);
    }

    fn step(&mut self) {
        match self.rng.below(32) {
            0..=11 => {
                let ctx = self.pick_context();
                self.node_op(ctx);
            }
            12..=13 => self.fork(MAIN_CONTEXT),
            14..=16 => {
                let parent = self.pick_context();
                self.fork(parent);
            }
            17 => {
                // Inside an explicit transaction every cross-shard fork
                // logs the parent's graph.
                self.ham().begin_transaction().unwrap();
                let parent = self.pick_context();
                self.fork(parent);
                let ctx = self.pick_context();
                self.node_op(ctx);
                if self.rng.chance(1, 2) {
                    self.ham().commit_transaction().unwrap();
                } else {
                    self.ham().abort_transaction().unwrap();
                }
            }
            18..=21 => {
                let children: Vec<ContextId> = self
                    .ham()
                    .live_contexts()
                    .into_iter()
                    .filter(|c| *c != MAIN_CONTEXT)
                    .collect();
                if !children.is_empty() {
                    let child = children[self.rng.index(children.len())];
                    self.ham()
                        .merge_context(child, ConflictPolicy::PreferChild)
                        .unwrap();
                }
            }
            22..=23 => {
                let leaves = self.leaves();
                if !leaves.is_empty() {
                    let victim = leaves[self.rng.index(leaves.len())];
                    self.ham().destroy_context(victim).unwrap();
                }
            }
            24..=25 => self.ham().checkpoint().unwrap(),
            26 => {
                // One shard directly: it folds, or refuses while another
                // shard's log still forks from it by reference.
                let k = self.rng.index(self.ham().shard_count());
                match self.ham().lock_shard(k).checkpoint() {
                    Ok(()) | Err(HamError::UnfoldedForkRefs { .. }) => {}
                    Err(e) => panic!("{}: shard {k} checkpoint: {e}", self.what),
                }
            }
            27..=28 => self.reopen(),
            _ => {
                let ctx = self.pick_context();
                self.node_op(ctx);
            }
        }
    }
}

fn reopen_equals_live(nshards: usize, seed: u64) {
    let dir = tmpdir(&format!("{nshards}-{seed:x}"));
    let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, nshards).unwrap();
    let mut world = World {
        dir,
        ham: Some(ham),
        rng: XorShift::new(seed),
        what: String::new(),
        up: 0,
        down: 0,
    };
    for step in 0..300 {
        world.what = format!("{nshards} shards, seed {seed:#x}, step {step}");
        world.step();
    }
    world.what = format!("{nshards} shards, seed {seed:#x}, end");
    world.reopen();
    world.ham().checkpoint().unwrap();
    world.reopen();
    assert!(
        world.up > 0 && world.down > 0,
        "{}: forked {} times onto a higher shard and {} onto a lower one",
        world.what,
        world.up,
        world.down
    );
    let dir = world.dir.clone();
    drop(world);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forks_reopen_equal_at_two_shards() {
    for seed in [0xF0CC, 0x5EED5, 0xB10B] {
        reopen_equals_live(2, seed);
    }
}

#[test]
fn forks_reopen_equal_at_eight_shards() {
    for seed in [0xF0CC, 0x5EED5, 0xB10B] {
        reopen_equals_live(8, seed);
    }
}
