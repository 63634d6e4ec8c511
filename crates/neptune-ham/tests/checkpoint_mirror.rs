//! The checkpoint's blob mirror is incremental: a checkpoint writes the
//! files of the nodes that changed since the last completed one, and a
//! machine with nothing to fold does no I/O at all. Two properties keep
//! that honest — the *count* of files written is exactly the count of
//! nodes touched, and after every checkpoint `nodes/` still equals MAIN's
//! current contents, whatever mix of commits, aborts, failed syncs, forks,
//! merges and reopens came before.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::ham::NODES_DIR;
use neptune_ham::shard::shard_dir;
use neptune_ham::types::{ContextId, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, ShardedHam, Value};
use neptune_storage::testutil::XorShift;
use neptune_storage::{FaultKind, FaultVfs};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-mirror-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(contents, mode)` per node id.
type Mirror = BTreeMap<u64, (Vec<u8>, u32)>;

/// Permission bits of a blob file (zero where the platform has none, which
/// is also what [`expected_mirror`] then asks for).
#[cfg(unix)]
fn file_mode(meta: &std::fs::Metadata) -> u32 {
    use std::os::unix::fs::PermissionsExt;
    meta.permissions().mode() & 0o777
}
#[cfg(not(unix))]
fn file_mode(_: &std::fs::Metadata) -> u32 {
    0
}

/// What `nodes/` must hold: every live MAIN node's current contents under
/// the node's protections.
fn expected_mirror(ham: &Ham) -> Mirror {
    ham.graph(MAIN_CONTEXT)
        .unwrap()
        .nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .map(|n| {
            let contents = n.contents_at(Time::CURRENT).unwrap().to_vec();
            let mode = if cfg!(unix) { n.protections.mode } else { 0 };
            (n.id.0, (contents, mode))
        })
        .collect()
}

/// What `nodes/` does hold. Any file that is not a blob — a leftover
/// `.blob.tmp` above all — fails the test.
fn actual_mirror(nodes_dir: &Path) -> Mirror {
    let mut out = Mirror::new();
    for entry in std::fs::read_dir(nodes_dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        let id = name
            .strip_suffix(".blob")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .unwrap_or_else(|| panic!("stray file in {}: {name}", nodes_dir.display()));
        let mode = file_mode(&entry.metadata().unwrap());
        out.insert(id, (std::fs::read(entry.path()).unwrap(), mode));
    }
    out
}

fn assert_mirrored(ham: &Ham, what: &str) {
    assert_eq!(
        actual_mirror(&ham.directory().join(NODES_DIR)),
        expected_mirror(ham),
        "{what}: nodes/ is not MAIN's current contents"
    );
}

fn edit(ham: &mut Ham, ctx: ContextId, node: NodeIndex, contents: &[u8]) {
    let t = ham.get_node_time_stamp(ctx, node).unwrap();
    ham.modify_node(ctx, node, t, contents.to_vec(), &[])
        .unwrap();
}

/// File ids of the op-log entries `"<op> <id>.blob<suffix>"`.
fn blob_ops(log: &[String], op: &str, suffix: &str) -> Vec<u64> {
    log.iter()
        .filter_map(|entry| {
            let hex = entry
                .strip_prefix(op)?
                .strip_prefix(' ')?
                .strip_suffix(suffix)?
                .strip_suffix(".blob")?;
            u64::from_str_radix(hex, 16).ok()
        })
        .collect()
}

#[test]
fn a_checkpoint_writes_exactly_the_blobs_of_touched_nodes() {
    let dir = tmpdir("exact");
    let vfs = FaultVfs::new(); // never armed: its op log is the I/O counter
    let (mut ham, _, _) =
        Ham::create_graph_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT).unwrap();
    let nodes: Vec<NodeIndex> = (0..12)
        .map(|i| {
            let (n, _) = ham.add_node(MAIN_CONTEXT, i % 3 != 0).unwrap();
            edit(
                &mut ham,
                MAIN_CONTEXT,
                n,
                format!("node {i} v1\n").as_bytes(),
            );
            n
        })
        .collect();
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    let mut all: Vec<u64> = nodes.iter().map(|n| n.0).collect();
    all.sort_unstable();
    let mut first = blob_ops(&vfs.op_log(), "rename", "");
    first.sort_unstable();
    assert_eq!(first, all, "the first checkpoint mirrors every node");
    assert_mirrored(&ham, "full checkpoint");

    // Touch k of n: three edits, one delete, one protection change, and a
    // merge that brings one edit and one new node into MAIN.
    vfs.clear_op_log();
    for n in &nodes[0..3] {
        edit(&mut ham, MAIN_CONTEXT, *n, b"edited in MAIN\n");
    }
    ham.delete_node(MAIN_CONTEXT, nodes[3]).unwrap();
    ham.change_node_protection(MAIN_CONTEXT, nodes[4], Protections::READ_ONLY)
        .unwrap();
    let merged = ham.create_context(MAIN_CONTEXT).unwrap();
    edit(&mut ham, merged, nodes[6], b"edited in a private world\n");
    let (born, _) = ham.add_node(merged, true).unwrap();
    edit(&mut ham, merged, born, b"born in a private world\n");
    let report = ham
        .merge_context(merged, ConflictPolicy::PreferChild)
        .unwrap();
    let born_in_main = report.nodes_added[0].1;
    // Changes that must *not* reach a file: an attribute (a minor version)
    // and an edit in a world that never merges.
    let attr = ham.get_attribute_index(MAIN_CONTEXT, "status").unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, nodes[5], attr, Value::Int(1))
        .unwrap();
    let private = ham.create_context(MAIN_CONTEXT).unwrap();
    edit(&mut ham, private, nodes[7], b"never merged\n");
    // Before the checkpoint, commits touch nodes/ only to chmod.
    let log = vfs.op_log();
    let in_nodes: Vec<&String> = log.iter().filter(|op| op.contains(".blob")).collect();
    assert_eq!(
        in_nodes,
        vec![&format!("set_permissions {:016x}.blob", nodes[4].0)],
        "commits leave the mirror to the checkpoint, except the chmod of \
         a committed changeNodeProtection"
    );

    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    let log = vfs.op_log();
    let mut touched = vec![
        nodes[0].0,
        nodes[1].0,
        nodes[2].0,
        nodes[6].0,
        born_in_main.0,
    ];
    touched.sort_unstable();
    let mut created = blob_ops(&log, "create", ".tmp");
    let mut renamed = blob_ops(&log, "rename", "");
    created.sort_unstable();
    renamed.sort_unstable();
    assert_eq!(created, touched, "exactly the touched blobs are written");
    assert_eq!(renamed, touched);
    assert_eq!(blob_ops(&log, "remove", ""), vec![nodes[3].0]);
    let dir_syncs = log
        .iter()
        .filter(|op| **op == format!("sync_dir {NODES_DIR}"))
        .count();
    assert_eq!(dir_syncs, 1, "one directory fsync covers the whole mirror");
    assert_mirrored(&ham, "incremental checkpoint");

    // Nothing committed since: nothing to fold, nothing to mirror.
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(vfs.op_log(), Vec::<String>::new(), "an idle checkpoint");

    // The watermark is the snapshot's MAIN time, so it survives a reopen.
    drop(ham);
    let (mut ham, _, _) = Ham::open_existing_with(Arc::new(vfs.clone()), &dir).unwrap();
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(vfs.op_log(), Vec::<String>::new(), "idle after reopen");
    edit(&mut ham, MAIN_CONTEXT, nodes[8], b"after the reopen\n");
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(blob_ops(&vfs.op_log(), "rename", ""), vec![nodes[8].0]);
    assert_mirrored(&ham, "after reopen");
    // And WAL replay re-dirties what postdates the snapshot.
    edit(
        &mut ham,
        MAIN_CONTEXT,
        nodes[9],
        b"replayed, then mirrored\n",
    );
    drop(ham);
    let (mut ham, _, _) = Ham::open_existing_with(Arc::new(vfs.clone()), &dir).unwrap();
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(blob_ops(&vfs.op_log(), "rename", ""), vec![nodes[9].0]);
    assert_mirrored(&ham, "after replay");
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_shards_do_no_checkpoint_io() {
    let dir = tmpdir("idle-shards");
    let vfs = FaultVfs::new();
    let (sharded, _, _) =
        ShardedHam::create_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT, 8).unwrap();
    let (n, _) = sharded
        .lock_home(MAIN_CONTEXT)
        .unwrap()
        .add_node(MAIN_CONTEXT, true)
        .unwrap();
    vfs.clear_op_log();
    sharded.checkpoint().unwrap();
    let log = vfs.op_log();
    // Shard 0 alone committed: one snapshot, one blob, one WAL fold.
    assert_eq!(log.iter().filter(|op| *op == "create graph.tmp").count(), 1);
    assert_eq!(blob_ops(&log, "rename", ""), vec![n.0]);
    assert_eq!(log.iter().filter(|op| *op == "set_len wal.log").count(), 1);
    assert!(
        !log.iter().any(|op| op.contains("shard.")),
        "an idle shard was checkpointed: {log:?}"
    );
    vfs.clear_op_log();
    sharded.checkpoint().unwrap();
    assert_eq!(vfs.op_log(), Vec::<String>::new());
    drop(sharded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_aborted_protection_change_is_rolled_back_in_memory_and_never_reaches_the_file() {
    let dir = tmpdir("abort-chmod");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (n, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.checkpoint().unwrap();
    ham.begin_transaction().unwrap();
    ham.change_node_protection(MAIN_CONTEXT, n, Protections::READ_ONLY)
        .unwrap();
    ham.change_node_protection(MAIN_CONTEXT, n, Protections::PRIVATE)
        .unwrap();
    ham.abort_transaction().unwrap();
    let node = |ham: &Ham| {
        ham.graph(MAIN_CONTEXT)
            .unwrap()
            .node(n)
            .unwrap()
            .protections
    };
    assert_eq!(node(&ham), Protections::DEFAULT);
    assert_mirrored(&ham, "after abort");
    // A committed change survives a crash before any checkpoint: replay
    // carries it to the file again.
    ham.change_node_protection(MAIN_CONTEXT, n, Protections::PRIVATE)
        .unwrap();
    assert_mirrored(&ham, "after commit");
    drop(ham);
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(node(&ham), Protections::PRIVATE);
    assert_mirrored(&ham, "after replay");
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

// ===========================================================================
// Property: after every checkpoint, nodes/ equals MAIN
// ===========================================================================

struct World {
    dir: PathBuf,
    vfs: FaultVfs,
    /// `None` only while [`World::reopen`] swaps machines.
    sharded: Option<ShardedHam>,
    rng: XorShift,
    what: String,
}

impl World {
    fn sharded(&self) -> &ShardedHam {
        self.sharded.as_ref().expect("a machine is open")
    }

    fn reopen(&mut self) {
        // The old machine goes first: two handles on one WAL is not a
        // state the store is ever in.
        self.sharded = None;
        let vfs = Arc::new(self.vfs.clone());
        self.sharded = Some(ShardedHam::open_with(vfs, &self.dir).unwrap().0);
    }

    fn pick_context(&mut self) -> ContextId {
        let ctxs = self.sharded().live_contexts();
        // Half of all work lands in MAIN: that is what the mirror tracks.
        if self.rng.chance(1, 2) {
            MAIN_CONTEXT
        } else {
            ctxs[self.rng.index(ctxs.len())]
        }
    }

    /// One random node-level operation in `ctx`, through the shard's
    /// machine (which joins an open explicit transaction by itself).
    fn node_op(&mut self, ctx: ContextId) -> neptune_ham::Result<()> {
        let sharded = self.sharded.as_ref().expect("a machine is open");
        let mut guard = sharded.lock_home(ctx)?;
        let live: Vec<NodeIndex> = guard
            .graph(ctx)?
            .nodes()
            .filter(|n| n.exists_at(Time::CURRENT))
            .map(|n| n.id)
            .collect();
        let roll = self.rng.below(10);
        if live.is_empty() || roll < 2 {
            let keep_history = self.rng.chance(3, 4);
            return guard.add_node(ctx, keep_history).map(|_| ());
        }
        let node = live[self.rng.index(live.len())];
        match roll {
            2..=5 => {
                let t = guard.get_node_time_stamp(ctx, node)?;
                let len = self.rng.below(40) as usize;
                let contents = self.rng.bytes(len);
                guard.modify_node(ctx, node, t, contents, &[]).map(|_| ())
            }
            6 => guard.delete_node(ctx, node),
            7..=8 => {
                let protections = [
                    Protections::DEFAULT,
                    Protections::PRIVATE,
                    Protections::READ_ONLY,
                ][self.rng.index(3)];
                guard.change_node_protection(ctx, node, protections)
            }
            _ => {
                let attr = guard.get_attribute_index(ctx, "status")?;
                let value = Value::Int(self.rng.below(100) as i64);
                guard.set_node_attribute_value(ctx, node, attr, value)
            }
        }
    }

    /// Children whose parent is still alive, so a merge has a target.
    fn mergeable(&self) -> Vec<ContextId> {
        let sharded = self.sharded();
        let live: BTreeSet<ContextId> = sharded.live_contexts().into_iter().collect();
        live.iter()
            .copied()
            .filter(|c| {
                let guard = sharded.lock_shard(sharded.shard_of(*c));
                matches!(guard.context_forked_from(*c), Ok(Some((p, _))) if live.contains(&p))
            })
            .collect()
    }

    fn assert_mirrored(&self) {
        assert_mirrored(&self.sharded().lock_shard(0), &self.what);
        // MAIN lives on shard 0; no other shard has anything to mirror.
        for k in 1..self.sharded().shard_count() {
            let nodes = shard_dir(&self.dir, k).join(NODES_DIR);
            assert_eq!(actual_mirror(&nodes), Mirror::new(), "{}", self.what);
        }
    }

    fn step(&mut self) {
        match self.rng.below(32) {
            0..=13 => {
                let ctx = self.pick_context();
                self.node_op(ctx).unwrap();
            }
            14..=17 => {
                // An explicit transaction over a few contexts, committed
                // or aborted.
                self.sharded().begin_transaction().unwrap();
                for _ in 0..1 + self.rng.below(4) {
                    let ctx = self.pick_context();
                    self.node_op(ctx).unwrap();
                }
                if self.rng.chance(1, 2) {
                    self.sharded().commit_transaction().unwrap();
                } else {
                    self.sharded().abort_transaction().unwrap();
                }
            }
            18..=19 => {
                let parent = self.pick_context();
                self.sharded().create_context(parent).unwrap();
            }
            20..=22 => {
                let children = self.mergeable();
                if !children.is_empty() {
                    let child = children[self.rng.index(children.len())];
                    self.sharded()
                        .merge_context(child, ConflictPolicy::PreferChild)
                        .unwrap();
                }
            }
            23 => {
                let ctxs = self.sharded().live_contexts();
                let victim = ctxs[self.rng.index(ctxs.len())];
                if victim != MAIN_CONTEXT {
                    self.sharded().destroy_context(victim).unwrap();
                }
            }
            24 => {
                // A commit whose WAL fsync fails rolls back in memory and
                // poisons that shard's log: the store must be reopened.
                self.vfs.arm(FaultKind::FailSync, 0);
                let ctx = self.pick_context();
                let failed = self.node_op(ctx);
                self.vfs.disarm();
                assert!(failed.is_err(), "{}: the armed sync must fail", self.what);
                self.reopen();
            }
            25 => {
                // A checkpoint that fails somewhere in its pipeline leaves
                // a store the next checkpoint must still bring up to date.
                let at = self.rng.below(12);
                self.vfs.arm(FaultKind::FailWrite, at);
                let _ = self.sharded().checkpoint();
                self.vfs.disarm();
                self.reopen();
            }
            26..=27 => self.reopen(),
            _ => {
                self.sharded().checkpoint().unwrap();
                self.assert_mirrored();
            }
        }
    }
}

fn mirror_property(nshards: usize, seed: u64) {
    let dir = tmpdir(&format!("prop-{nshards}-{seed:x}"));
    let vfs = FaultVfs::new();
    let (sharded, _, _) =
        ShardedHam::create_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT, nshards)
            .unwrap();
    let mut world = World {
        dir,
        vfs,
        sharded: Some(sharded),
        rng: XorShift::new(seed),
        what: String::new(),
    };
    for step in 0..400 {
        world.what = format!("{nshards} shard(s), seed {seed:#x}, step {step}");
        world.step();
    }
    world.sharded().checkpoint().unwrap();
    world.assert_mirrored();
    let dir = world.dir.clone();
    drop(world);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nodes_dir_equals_main_after_every_checkpoint_single_shard() {
    for seed in [0xC0FFEE, 0x5EED5, 0xB10B] {
        mirror_property(1, seed);
    }
}

#[test]
fn nodes_dir_equals_main_after_every_checkpoint_eight_shards() {
    for seed in [0xC0FFEE, 0x5EED5, 0xB10B] {
        mirror_property(8, seed);
    }
}
