//! MAIN's node files are written incrementally: a checkpoint writes the
//! file of each node whose head changed since the last completed one, and a
//! machine with nothing to fold does no I/O at all. Two properties keep
//! that honest — the *count* of files written is exactly the count of
//! nodes touched, and after every checkpoint `nodes/` holds exactly one
//! file per MAIN node, named by its head and holding its archive, whatever
//! mix of commits, aborts, failed syncs, forks, merges and reopens came
//! before.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::ham::NODES_DIR;
use neptune_ham::node::NodeContents;
use neptune_ham::shard::shard_dir;
use neptune_ham::types::{ContextId, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, ShardedHam, Value};
use neptune_storage::testutil::XorShift;
use neptune_storage::{FaultKind, FaultVfs, NodeFiles};

fn tmpdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("neptune-node-files-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(contents, mode)` per `(node id, head time)`.
type Files = BTreeMap<(u64, u64), (NodeContents, u32)>;

/// Permission bits of a node file (zero where the platform has none, which
/// is also what [`expected_files`] then asks for).
#[cfg(unix)]
fn file_mode(meta: &std::fs::Metadata) -> u32 {
    use std::os::unix::fs::PermissionsExt;
    meta.permissions().mode() & 0o777
}
#[cfg(not(unix))]
fn file_mode(_: &std::fs::Metadata) -> u32 {
    0
}

/// What `nodes/` must hold: one file per MAIN node, deleted ones too (the
/// snapshot keeps their history), named by its head and holding its
/// contents under the node's protections.
fn expected_files(ham: &Ham) -> Files {
    ham.graph(MAIN_CONTEXT)
        .unwrap()
        .nodes()
        .map(|n| {
            let mode = if cfg!(unix) { n.protections.mode } else { 0 };
            let key = (n.id.0, n.current_time().0);
            (key, (n.contents().clone(), mode))
        })
        .collect()
}

/// What `nodes/` does hold. Any file that is not a node file — a `.blob`
/// of the old mirror above all — fails the test.
fn actual_files(nodes_dir: &Path) -> Files {
    let files = NodeFiles::open(nodes_dir).unwrap();
    let mut out = Files::new();
    for entry in std::fs::read_dir(nodes_dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        let (id, head) = NodeFiles::parse_name(&name)
            .unwrap_or_else(|| panic!("stray file in {}: {name}", nodes_dir.display()));
        let contents = NodeContents::load(&files, NodeIndex(id), Time(head)).unwrap();
        let mode = file_mode(&entry.metadata().unwrap());
        out.insert((id, head), (contents, mode));
    }
    out
}

fn assert_files(ham: &Ham, what: &str) {
    assert_eq!(
        actual_files(&ham.directory().join(NODES_DIR)),
        expected_files(ham),
        "{what}: nodes/ is not MAIN's node files"
    );
}

fn edit(ham: &mut Ham, ctx: ContextId, node: NodeIndex, contents: &[u8]) {
    let t = ham.get_node_time_stamp(ctx, node).unwrap();
    ham.modify_node(ctx, node, t, contents.to_vec(), &[])
        .unwrap();
}

/// Node ids of the op-log entries `"<op> <node file name>"`, sorted.
fn file_ops(log: &[String], op: &str) -> Vec<u64> {
    let mut ids: Vec<u64> = log
        .iter()
        .filter_map(|entry| {
            let name = entry.strip_prefix(op)?.strip_prefix(' ')?;
            NodeFiles::parse_name(name).map(|(id, _)| id)
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Position of the first op-log entry equal to `op`.
fn position(log: &[String], op: &str) -> usize {
    log.iter()
        .position(|entry| entry == op)
        .unwrap_or_else(|| panic!("no {op:?} in {log:?}"))
}

#[test]
fn a_checkpoint_writes_exactly_the_node_files_of_touched_nodes() {
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
    let all: Vec<u64> = nodes.iter().map(|n| n.0).collect();
    let log = vfs.op_log();
    assert_eq!(
        file_ops(&log, "create"),
        all,
        "the first checkpoint writes every node"
    );
    assert_eq!(file_ops(&log, "sync"), all, "each file is synced");
    assert_eq!(file_ops(&log, "remove"), Vec::<u64>::new());
    assert_files(&ham, "full checkpoint");

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
    // Changes that must *not* reach a file: an attribute (a minor version),
    // a deletion (the history stays) and an edit in a world that never
    // merges.
    let attr = ham.get_attribute_index(MAIN_CONTEXT, "status").unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, nodes[5], attr, Value::Int(1))
        .unwrap();
    let private = ham.create_context(MAIN_CONTEXT).unwrap();
    edit(&mut ham, private, nodes[7], b"never merged\n");
    // Before the checkpoint, commits touch nodes/ only to chmod.
    let log = vfs.op_log();
    let in_nodes: Vec<&String> = log.iter().filter(|op| op.contains('@')).collect();
    let head4 = ham.get_node_time_stamp(MAIN_CONTEXT, nodes[4]).unwrap();
    assert_eq!(
        in_nodes,
        vec![&format!(
            "set_permissions {}",
            NodeFiles::file_name(nodes[4].0, head4.0)
        )],
        "commits leave node files to the checkpoint, except the chmod of \
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
    assert_eq!(
        file_ops(&log, "create"),
        touched,
        "exactly the touched files are written"
    );
    assert_eq!(file_ops(&log, "sync"), touched);
    // The old heads of the edited nodes go, once the new snapshot no
    // longer names them and the log is folded.
    assert_eq!(
        file_ops(&log, "remove"),
        vec![nodes[0].0, nodes[1].0, nodes[2].0, nodes[6].0]
    );
    let dir_syncs = log
        .iter()
        .filter(|op| **op == format!("sync_dir {NODES_DIR}"))
        .count();
    assert_eq!(dir_syncs, 1, "one directory fsync covers every node file");
    let synced = position(&log, &format!("sync_dir {NODES_DIR}"));
    let last_file_sync = log
        .iter()
        .rposition(|op| op.starts_with("sync ") && op.contains('@'))
        .unwrap();
    assert!(last_file_sync < synced, "files sync before their directory");
    assert!(
        synced < position(&log, "create graph.tmp"),
        "nodes/ syncs before the snapshot"
    );
    let folded = position(&log, "set_len wal.log");
    let first_remove = log.iter().position(|op| op.starts_with("remove")).unwrap();
    assert!(
        folded < first_remove,
        "old heads go only once the log is folded"
    );
    assert_files(&ham, "incremental checkpoint");

    // Nothing committed since: nothing to fold, no file to write.
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(vfs.op_log(), Vec::<String>::new(), "an idle checkpoint");

    // The snapshot names the files, so what is durable survives a reopen.
    drop(ham);
    let (mut ham, _, _) = Ham::open_existing_with(Arc::new(vfs.clone()), &dir).unwrap();
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(vfs.op_log(), Vec::<String>::new(), "idle after reopen");
    edit(&mut ham, MAIN_CONTEXT, nodes[8], b"after the reopen\n");
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(file_ops(&vfs.op_log(), "create"), vec![nodes[8].0]);
    assert_files(&ham, "after reopen");
    // And WAL replay moves a head past the file the snapshot names.
    edit(
        &mut ham,
        MAIN_CONTEXT,
        nodes[9],
        b"replayed, then written\n",
    );
    drop(ham);
    let (mut ham, _, _) = Ham::open_existing_with(Arc::new(vfs.clone()), &dir).unwrap();
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(file_ops(&vfs.op_log(), "create"), vec![nodes[9].0]);
    assert_files(&ham, "after replay");
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
    // Shard 0 alone committed: one snapshot, one node file, one WAL fold.
    assert_eq!(log.iter().filter(|op| *op == "create graph.tmp").count(), 1);
    assert_eq!(file_ops(&log, "create"), vec![n.0]);
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
    assert_files(&ham, "after abort");
    // A committed change reaches the file at once, and survives a crash
    // before any checkpoint: replay carries it to the file again.
    ham.change_node_protection(MAIN_CONTEXT, n, Protections::PRIVATE)
        .unwrap();
    assert_files(&ham, "after commit");
    drop(ham);
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(node(&ham), Protections::PRIVATE);
    assert_files(&ham, "after replay");
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

// ===========================================================================
// Property: after every checkpoint, nodes/ holds MAIN's node files
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
        // Half of all work lands in MAIN: that is what the node files hold.
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

    fn assert_files(&self) {
        assert_files(&self.sharded().lock_shard(0), &self.what);
        // MAIN lives on shard 0; no other shard has node files.
        for k in 1..self.sharded().shard_count() {
            let nodes = shard_dir(&self.dir, k).join(NODES_DIR);
            assert_eq!(actual_files(&nodes), Files::new(), "{}", self.what);
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
                self.assert_files();
            }
        }
    }
}

fn node_files_property(nshards: usize, seed: u64) {
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
    world.assert_files();
    let dir = world.dir.clone();
    drop(world);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nodes_dir_equals_main_after_every_checkpoint_single_shard() {
    for seed in [0xC0FFEE, 0x5EED5, 0xB10B] {
        node_files_property(1, seed);
    }
}

#[test]
fn nodes_dir_equals_main_after_every_checkpoint_eight_shards() {
    for seed in [0xC0FFEE, 0x5EED5, 0xB10B] {
        node_files_property(8, seed);
    }
}
