//! Recovery-equivalence harness: a fault injected at *every* I/O step of a
//! randomized workload must leave a store that recovers to exactly the
//! prefix of operations whose commits became durable, with a clean
//! `verify_store` report.
//!
//! The protocol, per (fault kind, fault index) cell:
//!
//! 1. Replay a seeded workload through a [`FaultVfs`] with the fault armed,
//!    stopping at the first error.
//! 2. Reopen the *working tree* (the crash where every issued write reached
//!    disk): the state must be the completed prefix, or the prefix plus the
//!    in-flight operation if its commit record made it out.
//! 3. Freeze the *durable image* (the crash where nothing unsynced
//!    survived), materialize it, and reopen: the state must be **exactly**
//!    the completed prefix — commits are synced before they report success.
//! 4. `verify_store` on the durable image must report nothing.
//!
//! Oracle fingerprints come from one fault-free run of the same workload.
//! Seed and workload size are overridable for reproduction:
//! `NEPTUNE_FAULT_SEED=0x5EED NEPTUNE_FAULT_OPS=220 cargo test -p
//! neptune-check --test crash_consistency`. Every assertion message carries
//! the seed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use neptune_check::{verify_store, Finding, Severity, RULE_NODE_FILE};
use neptune_ham::context::ConflictPolicy;
use neptune_ham::ham::{NODES_DIR, WAL_FILE};
use neptune_ham::node::NodeContents;
use neptune_ham::types::{LinkPt, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, ShardedHam, Value};
use neptune_storage::fault::{FaultKind, FaultVfs};
use neptune_storage::testutil::XorShift;
use neptune_storage::NodeFiles;

/// Arm the flight recorder for the sweep: every fault cell runs under a
/// `check.cell` trace root (so the HAM/storage spans of the ops leading up
/// to a failure are in the recorder), and a panicking assertion dumps the
/// recorder to `NEPTUNE_TRACE_DUMP` (set by ci.sh / ci.yml) before the
/// test harness unwinds.
fn obs_cell(kind: FaultKind, at: u64) -> neptune_obs::LocalTrace {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(neptune_obs::install_panic_hook);
    neptune_obs::local_root("check.cell", &format!("{kind} at {at}"))
}

fn seed() -> u64 {
    match std::env::var("NEPTUNE_FAULT_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("NEPTUNE_FAULT_SEED not a u64: {s:?}"))
        }
        Err(_) => 0xC0FFEE,
    }
}

fn op_count() -> usize {
    match std::env::var("NEPTUNE_FAULT_OPS") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("NEPTUNE_FAULT_OPS not a usize: {s:?}")),
        Err(_) => 220,
    }
}

fn tmpdir(name: &str) -> PathBuf {
    // The sweep issues hundreds of thousands of real fsyncs; on a memory
    // filesystem they are free, on a disk they dominate the runtime.
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("neptune-crashc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ===========================================================================
// Workload
// ===========================================================================

#[derive(Debug, Clone)]
enum Op {
    AddNode(bool),
    Modify(usize, Vec<u8>),
    DeleteNode(usize),
    AddLink(usize, usize, u8),
    SetAttr(usize, u8, i64),
    Txn(Vec<(usize, u8, i64)>, bool), // attr writes, commit?
    Checkpoint,
    Fork,
    Merge(usize),
}

const ATTRS: [&str; 3] = ["document", "status", "owner"];

fn gen_op(rng: &mut XorShift) -> Op {
    // Node births and deaths are nearly balanced, which keeps the
    // fingerprints (every node at every historical time) small. A
    // checkpoint writes node files only for the nodes changed since the
    // last one, so the population does not multiply the sweep's
    // fault-point count.
    match rng.below(48) {
        0..=5 => Op::AddNode(rng.chance(1, 2)),
        6..=15 => {
            let target = rng.next_u64() as usize;
            let len = rng.below(24) as usize;
            Op::Modify(target, rng.bytes(len))
        }
        16..=20 => Op::DeleteNode(rng.next_u64() as usize),
        21..=26 => Op::AddLink(
            rng.next_u64() as usize,
            rng.next_u64() as usize,
            rng.below(256) as u8,
        ),
        27..=34 => Op::SetAttr(
            rng.next_u64() as usize,
            rng.below(3) as u8,
            rng.next_u64() as i64,
        ),
        35..=42 => {
            let count = 1 + rng.below(3) as usize;
            let writes = (0..count)
                .map(|_| {
                    (
                        rng.next_u64() as usize,
                        rng.below(3) as u8,
                        rng.next_u64() as i64,
                    )
                })
                .collect();
            Op::Txn(writes, rng.chance(5, 8))
        }
        43 => Op::Checkpoint,
        44..=45 => Op::Fork,
        _ => Op::Merge(rng.next_u64() as usize),
    }
}

fn gen_ops(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = XorShift::new(seed);
    (0..count).map(|_| gen_op(&mut rng)).collect()
}

fn live_nodes(ham: &Ham) -> Vec<NodeIndex> {
    ham.graph(MAIN_CONTEXT)
        .unwrap()
        .nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .map(|n| n.id)
        .collect()
}

/// Run a step's operations inside one explicit transaction, so the step
/// commits (and becomes durable) atomically: outside a transaction, every
/// HAM call is its own auto-commit, and a fault landing between two of
/// them would leave a state *between* two step fingerprints.
fn step_txn(
    ham: &mut Ham,
    body: impl FnOnce(&mut Ham) -> neptune_ham::Result<()>,
) -> neptune_ham::Result<()> {
    ham.begin_transaction()?;
    match body(ham) {
        Ok(()) => ham.commit_transaction(),
        Err(e) => {
            // Aborting is pure in-memory rollback; keep the original error.
            let _ = ham.abort_transaction();
            Err(e)
        }
    }
}

/// Apply one workload step. Steps are total in a fault-free run (the oracle
/// unwraps nothing and never fails); under fault injection any error
/// propagates so the driver can stop at the failure point.
fn apply(ham: &mut Ham, op: &Op) -> neptune_ham::Result<()> {
    let nodes = live_nodes(ham);
    match op {
        Op::AddNode(keep) => {
            step_txn(ham, |ham| ham.add_node(MAIN_CONTEXT, *keep).map(|_| ()))?;
        }
        Op::Modify(i, contents) => {
            if nodes.is_empty() {
                return Ok(());
            }
            let node = nodes[i % nodes.len()];
            step_txn(ham, |ham| {
                let opened = ham.open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])?;
                // Attachments must stay inside the (possibly shorter) new
                // contents; all workload links track the current version,
                // so moving them is allowed.
                let pts: Vec<LinkPt> = opened
                    .link_pts
                    .iter()
                    .map(|pt| {
                        let mut pt = *pt;
                        pt.position = pt.position.min(contents.len() as u64);
                        pt
                    })
                    .collect();
                ham.modify_node(
                    MAIN_CONTEXT,
                    node,
                    opened.current_time,
                    contents.clone(),
                    &pts,
                )?;
                Ok(())
            })?;
        }
        Op::DeleteNode(i) => {
            if !nodes.is_empty() {
                let node = nodes[i % nodes.len()];
                step_txn(ham, |ham| ham.delete_node(MAIN_CONTEXT, node))?;
            }
        }
        Op::AddLink(a, b, offset) => {
            if !nodes.is_empty() {
                let from = nodes[a % nodes.len()];
                let to = nodes[b % nodes.len()];
                step_txn(ham, |ham| {
                    let len = ham
                        .open_node(MAIN_CONTEXT, from, Time::CURRENT, &[])?
                        .contents
                        .len() as u64;
                    ham.add_link(
                        MAIN_CONTEXT,
                        LinkPt::current(from, (*offset as u64).min(len)),
                        LinkPt::current(to, 0),
                    )
                    .map(|_| ())
                })?;
            }
        }
        Op::SetAttr(i, a, v) => {
            if !nodes.is_empty() {
                let node = nodes[i % nodes.len()];
                step_txn(ham, |ham| {
                    let attr = ham.get_attribute_index(MAIN_CONTEXT, ATTRS[*a as usize])?;
                    ham.set_node_attribute_value(MAIN_CONTEXT, node, attr, Value::Int(*v))?;
                    Ok(())
                })?;
            }
        }
        Op::Txn(writes, commit) => {
            ham.begin_transaction()?;
            let mut body = || -> neptune_ham::Result<()> {
                for (i, a, v) in writes {
                    let nodes = live_nodes(ham);
                    if nodes.is_empty() {
                        continue;
                    }
                    let attr = ham.get_attribute_index(MAIN_CONTEXT, ATTRS[*a as usize])?;
                    ham.set_node_attribute_value(
                        MAIN_CONTEXT,
                        nodes[i % nodes.len()],
                        attr,
                        Value::Int(*v),
                    )?;
                }
                Ok(())
            };
            match body() {
                Ok(()) if *commit => ham.commit_transaction()?,
                Ok(()) => ham.abort_transaction()?,
                Err(e) => {
                    let _ = ham.abort_transaction();
                    return Err(e);
                }
            }
        }
        Op::Checkpoint => ham.checkpoint()?,
        Op::Fork => {
            step_txn(ham, |ham| {
                let ctx = ham.create_context(MAIN_CONTEXT)?;
                ham.add_node(ctx, true)?;
                Ok(())
            })?;
        }
        Op::Merge(i) => {
            let children: Vec<_> = ham
                .contexts()
                .into_iter()
                .filter(|c| *c != MAIN_CONTEXT)
                .collect();
            if !children.is_empty() {
                let child = children[i % children.len()];
                step_txn(ham, |ham| {
                    ham.merge_context(child, ConflictPolicy::PreferChild)
                        .map(|_| ())
                })?;
            }
        }
    }
    Ok(())
}

/// Full observable fingerprint of a Ham: every context, every node, link,
/// attribute, and demon at every historical time.
fn fingerprint(ham: &Ham) -> String {
    let mut out = String::new();
    for ctx in ham.contexts() {
        let graph = ham.graph(ctx).unwrap();
        out.push_str(&format!("context {} clock {}\n", ctx.0, graph.now().0));
        for t in 1..=graph.now().0 {
            let time = Time(t);
            for n in graph.nodes() {
                if !n.exists_at(time) {
                    continue;
                }
                out.push_str(&format!("t{t} node {} ", n.id.0));
                if n.is_archive() {
                    if let Ok(c) = n.contents_at(time) {
                        out.push_str(&format!("{c:?} "));
                    }
                }
                for (attr, value) in n.attrs.all_at(time) {
                    out.push_str(&format!("{}={} ", attr.0, value));
                }
                out.push('\n');
            }
            for l in graph.links() {
                if l.exists_at(time) {
                    out.push_str(&format!(
                        "t{t} link {} {}->{}\n",
                        l.id.0, l.from.node.0, l.to.node.0
                    ));
                }
            }
        }
    }
    out
}

/// One fault-free run of the workload, recording the fingerprint after
/// store creation and after each step. `oracle()[k]` is the expected state
/// of a store that completed exactly `k` steps.
fn oracle() -> &'static (Vec<Op>, Vec<String>) {
    static ORACLE: OnceLock<(Vec<Op>, Vec<String>)> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let ops = gen_ops(seed(), op_count());
        let dir = tmpdir("oracle");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let mut fps = Vec::with_capacity(ops.len() + 1);
        fps.push(fingerprint(&ham));
        for (i, op) in ops.iter().enumerate() {
            apply(&mut ham, op)
                .unwrap_or_else(|e| panic!("oracle step {i} failed (seed {:#x}): {e}", seed()));
            fps.push(fingerprint(&ham));
        }
        drop(ham);
        // The workload itself must be clean, or every sweep cell inherits
        // the same findings and the harness tests nothing.
        assert_clean(&dir, "oracle final state");
        let _ = std::fs::remove_dir_all(&dir);
        (ops, fps)
    })
}

fn assert_clean(dir: &Path, what: &str) {
    let findings = verify_store(dir);
    assert!(
        findings.is_empty(),
        "{what} (seed {:#x}): verify_store found {:?}",
        seed(),
        findings
    );
}

/// [`assert_clean`] for a crash image. A checkpoint cut after its node
/// files but before its snapshot leaves files no snapshot names, which the
/// next open removes. The verifier lists `nodes/` before it opens, so it
/// must report exactly those files, each as a `node-file` warning, and
/// nothing else.
fn assert_clean_crash_image(dir: &Path, what: &str) {
    let listed: BTreeSet<String> = std::fs::read_dir(dir.join(NODES_DIR))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| NodeFiles::parse_name(name).is_some())
        .collect();
    let mut findings = verify_store(dir);
    findings.sort_by(|a, b| a.entity.cmp(&b.entity));
    let (ham, _, _) = Ham::open_existing(dir)
        .unwrap_or_else(|e| panic!("{what} (seed {:#x}): failed to reopen: {e}", seed()));
    let named: BTreeSet<String> = ham
        .durable_node_files()
        .map(|(node, head)| NodeFiles::file_name(node.0, head.0))
        .collect();
    drop(ham);
    let leftovers: Vec<Finding> = listed
        .difference(&named)
        .map(|name| {
            Finding::new(
                Severity::Warning,
                RULE_NODE_FILE,
                format!("{NODES_DIR}/{name}"),
                "a node file no snapshot names",
            )
        })
        .collect();
    assert_eq!(
        findings,
        leftovers,
        "{what} (seed {:#x}): verify_store must report exactly the unnamed node files",
        seed()
    );
}

// ===========================================================================
// The matrix sweep
// ===========================================================================

/// Run the whole workload with `kind` armed at matching-op index `at`.
/// Returns `None` once `at` is past every fault point (the run completed
/// without injecting anything).
fn fault_run(kind: FaultKind, at: u64) -> Option<()> {
    let _trace = obs_cell(kind, at);
    let (ops, fps) = oracle();
    let s = seed();
    let dir = tmpdir(&format!("run-{kind}-{at}"));
    let vfs = FaultVfs::new();
    let (mut ham, _, _) =
        Ham::create_graph_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT).unwrap();
    vfs.arm(kind, at);

    let mut completed = 0;
    let mut failed = false;
    for op in ops {
        match apply(&mut ham, op) {
            Ok(()) => completed += 1,
            Err(e) => {
                assert!(
                    vfs.injected() > 0,
                    "{kind} at {at} (seed {s:#x}): step {completed} failed \
                     without a fault being injected: {e}"
                );
                failed = true;
                break;
            }
        }
    }
    drop(ham);
    if vfs.injected() == 0 {
        // `at` outlasted every matching op in the workload: sweep is done.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!failed);
        return None;
    }

    // Crash image A: every issued write reached disk. Recovery may include
    // the in-flight operation iff its commit record got out, so the state
    // is one of the two adjacent prefixes.
    let (wham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
        panic!("{kind} at {at} (seed {s:#x}): working tree failed to reopen: {e}")
    });
    let wfp = fingerprint(&wham);
    drop(wham);
    let hi = (completed + 1).min(fps.len() - 1);
    if wfp != fps[completed] && wfp != fps[hi] {
        eprintln!("=== failing step: {:?}", ops[completed]);
        for (a, b) in wfp.lines().zip(fps[completed].lines()) {
            if a != b {
                eprintln!("  working: {a}\n  expect : {b}");
            }
        }
        panic!(
            "{kind} at {at} (seed {s:#x}): working-tree recovery is not a \
             prefix of the workload ({completed} steps completed)"
        );
    }

    // Crash image B: nothing unsynced survived. Commits sync before they
    // report success, so recovery must be exactly the completed prefix.
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    let (dham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
        panic!("{kind} at {at} (seed {s:#x}): durable image failed to reopen: {e}")
    });
    // verify_open_ham instead of verify_store: one open serves both the
    // integrity scan and the fingerprint. (The durable image never holds a
    // torn WAL tail — only synced bytes — so scanning after recovery does
    // not mask tail truncation.)
    let findings = neptune_check::verify_open_ham(&dham);
    assert!(
        findings.is_empty(),
        "{kind} at {at} durable image (seed {s:#x}): verify found {findings:?}"
    );
    let dfp = fingerprint(&dham);
    drop(dham);
    assert_eq!(
        dfp, fps[completed],
        "{kind} at {at} (seed {s:#x}): durable recovery lost or invented \
         committed state ({completed} steps completed)"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Some(())
}

fn sweep(kind: FaultKind) {
    let mut at = 0;
    while fault_run(kind, at).is_some() {
        at += 1;
    }
    assert!(at > 0, "{kind}: workload produced no matching fault points");
}

#[test]
fn recovery_equivalence_fail_write() {
    sweep(FaultKind::FailWrite);
}

#[test]
fn recovery_equivalence_short_write() {
    sweep(FaultKind::ShortWrite);
}

#[test]
fn recovery_equivalence_fail_sync() {
    sweep(FaultKind::FailSync);
}

#[test]
fn recovery_equivalence_torn_rename() {
    sweep(FaultKind::TornRename);
}

#[test]
fn recovery_equivalence_power_cut() {
    sweep(FaultKind::PowerCut);
}

// ===========================================================================
// Checkpoint crash-point matrix
// ===========================================================================

/// What `nodes/` holds, by `(node id, head time)`: each file's decoded
/// contents and — where asked (`materialize_durable` does not keep them) —
/// its mode. A file that is not a node file fails the test.
fn files_on_disk(
    dir: &Path,
    modes: bool,
    what: &str,
) -> BTreeMap<(u64, u64), (NodeContents, Option<u32>)> {
    let nodes = dir.join(NODES_DIR);
    let files = NodeFiles::open(&nodes).unwrap();
    let mut on_disk = BTreeMap::new();
    for entry in std::fs::read_dir(&nodes).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        let (id, head) = NodeFiles::parse_name(&name)
            .unwrap_or_else(|| panic!("{what}: stray file {name} in nodes/"));
        let contents = NodeContents::load(&files, NodeIndex(id), Time(head))
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        #[cfg(unix)]
        let mode = {
            use std::os::unix::fs::PermissionsExt;
            modes.then(|| entry.metadata().unwrap().permissions().mode() & 0o777)
        };
        #[cfg(not(unix))]
        let mode = None;
        on_disk.insert((id, head), (contents, mode));
    }
    on_disk
}

/// `nodes/` against MAIN: one file per node, named by its head and holding
/// its contents, no stray file, and — where asked — the node's mode.
fn assert_node_files(ham: &Ham, modes: bool, what: &str) {
    let in_main: BTreeMap<_, _> = ham
        .graph(MAIN_CONTEXT)
        .unwrap()
        .nodes()
        .map(|n| {
            let mode = (modes && cfg!(unix)).then_some(n.protections.mode);
            ((n.id.0, n.current_time().0), (n.contents().clone(), mode))
        })
        .collect();
    assert_eq!(
        files_on_disk(ham.directory(), modes, what),
        in_main,
        "{what}: nodes/ is not MAIN's node files"
    );
}

/// The op log of the checkpoint [`build_checkpoint_store`]'s store runs,
/// from a dry run.
fn checkpoint_ops(name: &str) -> Vec<String> {
    let dir = tmpdir(name);
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
    vfs.op_log()
}

/// Whether an op-log entry touches a node file.
fn on_node_file(op: &str) -> bool {
    op.split_once(' ')
        .is_some_and(|(_, name)| NodeFiles::parse_name(name).is_some())
}

/// Deterministic store with history, links, attributes, a forked context,
/// and committed-but-not-checkpointed transactions — the state every
/// checkpoint fault below must preserve. The checkpoint that follows is an
/// *incremental* one: it writes new files for `a` (edited) and `d` (new),
/// leaves `b` (a protection change, chmod'ed at commit) and `c` (deleted:
/// its history stays) alone, and unlinks `a`'s old head.
fn build_checkpoint_store(dir: &Path, vfs: &FaultVfs) -> Ham {
    let (mut ham, _, _) =
        Ham::create_graph_with(Arc::new(vfs.clone()), dir, Protections::DEFAULT).unwrap();
    let (a, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (c, _) = ham.add_node(MAIN_CONTEXT, false).unwrap();
    for (i, n) in [a, b].iter().enumerate() {
        let opened = ham.open_node(MAIN_CONTEXT, *n, Time::CURRENT, &[]).unwrap();
        ham.modify_node(
            MAIN_CONTEXT,
            *n,
            opened.current_time,
            format!("contents {i}").into_bytes(),
            &opened.link_pts,
        )
        .unwrap();
    }
    ham.add_link(MAIN_CONTEXT, LinkPt::current(a, 3), LinkPt::current(b, 0))
        .unwrap();
    let attr = ham.get_attribute_index(MAIN_CONTEXT, "status").unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, a, attr, Value::Int(7))
        .unwrap();
    // Mid-history checkpoint so the store carries an earlier fold, then
    // more committed work on top of it, plus a deleted node and a fork.
    ham.checkpoint().unwrap();
    ham.delete_node(MAIN_CONTEXT, c).unwrap();
    let t = ham.get_node_time_stamp(MAIN_CONTEXT, a).unwrap();
    let pts = ham
        .open_node(MAIN_CONTEXT, a, Time::CURRENT, &[])
        .unwrap()
        .link_pts;
    ham.modify_node(MAIN_CONTEXT, a, t, b"contents 0, revised".to_vec(), &pts)
        .unwrap();
    ham.change_node_protection(MAIN_CONTEXT, b, Protections::PRIVATE)
        .unwrap();
    let (d, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, d, t, b"born after the fold".to_vec(), &[])
        .unwrap();
    let ctx = ham.create_context(MAIN_CONTEXT).unwrap();
    ham.add_node(ctx, true).unwrap();
    ham.begin_transaction().unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, b, attr, Value::Int(9))
        .unwrap();
    ham.commit_transaction().unwrap();
    ham
}

/// Fault at every I/O step of the checkpoint pipeline — each node file's
/// create/append/sync/chmod, the `nodes/` fsync, the snapshot write and
/// rename, the WAL truncate/record/sync and the unlinks of old heads — and
/// assert the store reopens to the same state with history intact, from
/// both crash images, and that one more checkpoint then leaves `nodes/`
/// holding exactly MAIN's node files: whichever snapshot survived names
/// only files durable before it, and open sweeps the rest.
#[test]
fn checkpoint_crash_point_matrix() {
    for kind in FaultKind::ALL {
        let mut at = 0;
        loop {
            let _trace = obs_cell(kind, at);
            let dir = tmpdir(&format!("ckpt-{kind}-{at}"));
            let vfs = FaultVfs::new();
            let mut ham = build_checkpoint_store(&dir, &vfs);
            let before = fingerprint(&ham);
            vfs.arm(kind, at);
            let r = ham.checkpoint();
            drop(ham);
            if vfs.injected() == 0 {
                r.unwrap_or_else(|e| panic!("{kind}: clean checkpoint failed: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
            // A checkpoint changes representation, never state: both crash
            // images must reopen to the exact pre-checkpoint fingerprint.
            let (wham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
                panic!(
                    "{kind} at {at}: working tree failed to reopen after faulted checkpoint: {e}"
                )
            });
            assert_eq!(fingerprint(&wham), before, "{kind} at {at}: working tree");
            // The durable image below is rebuilt from the shadow copy, so
            // checkpointing the working tree first does not disturb it.
            let mut wham = wham;
            wham.checkpoint().unwrap();
            assert_node_files(&wham, true, &format!("{kind} at {at}: working tree"));
            drop(wham);
            vfs.power_off();
            vfs.materialize_durable(&dir).unwrap();
            assert_clean_crash_image(&dir, &format!("checkpoint {kind} at {at}"));
            let (mut dham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
                panic!(
                    "{kind} at {at}: durable image failed to reopen after faulted checkpoint: {e}"
                )
            });
            assert_eq!(fingerprint(&dham), before, "{kind} at {at}: durable image");
            dham.checkpoint().unwrap();
            assert_node_files(&dham, false, &format!("{kind} at {at}: durable image"));
            drop(dham);
            let _ = std::fs::remove_dir_all(&dir);
            at += 1;
        }
    }
}

/// Satellite: sweep the anchor-persistence I/O. A node with a deep history
/// persists its skip-delta ladder inside the snapshot payload; fault every
/// I/O step of the checkpoint that rewrites it and assert that a torn
/// anchor write never makes the store unopenable and never changes
/// recovered contents (anchors are derived data — the unit delta chain is
/// the source of truth, and the fingerprint reads every version of every
/// node through the recovered archive).
#[test]
fn anchor_persistence_checkpoint_fault_sweep() {
    fn build_deep_store(dir: &Path, vfs: &FaultVfs) -> (Ham, NodeIndex) {
        let (mut ham, _, _) =
            Ham::create_graph_with(Arc::new(vfs.clone()), dir, Protections::DEFAULT).unwrap();
        let (n, mut t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        // 34 versions: deep enough for two level-0 skip rungs (span 16).
        for i in 0..34 {
            t = ham
                .modify_node(
                    MAIN_CONTEXT,
                    n,
                    t,
                    format!("deep history version {i}\n").into_bytes(),
                    &[],
                )
                .unwrap();
        }
        // First checkpoint persists the ladder; the swept checkpoint below
        // must atomically replace it.
        ham.checkpoint().unwrap();
        for i in 34..38 {
            t = ham
                .modify_node(
                    MAIN_CONTEXT,
                    n,
                    t,
                    format!("deep history version {i}\n").into_bytes(),
                    &[],
                )
                .unwrap();
        }
        (ham, n)
    }

    for kind in FaultKind::ALL {
        let mut at = 0;
        loop {
            let _trace = obs_cell(kind, at);
            let dir = tmpdir(&format!("anchor-{kind}-{at}"));
            let vfs = FaultVfs::new();
            let (mut ham, node) = build_deep_store(&dir, &vfs);
            let before = fingerprint(&ham);
            vfs.arm(kind, at);
            let r = ham.checkpoint();
            drop(ham);
            if vfs.injected() == 0 {
                r.unwrap_or_else(|e| panic!("{kind}: clean checkpoint failed: {e}"));
                // The clean run must actually exercise persisted anchors.
                let (ham, _, _) = Ham::open_existing(&dir).unwrap();
                let skips = ham
                    .graph(MAIN_CONTEXT)
                    .unwrap()
                    .node(node)
                    .unwrap()
                    .archive()
                    .expect("deep node is an archive")
                    .skip_count();
                assert!(skips > 0, "{kind}: snapshot should carry skip rungs");
                drop(ham);
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
            let (wham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
                panic!("{kind} at {at}: torn anchor write made the store unopenable: {e}")
            });
            assert_eq!(fingerprint(&wham), before, "{kind} at {at}: working tree");
            drop(wham);
            vfs.power_off();
            vfs.materialize_durable(&dir).unwrap();
            assert_clean_crash_image(&dir, &format!("anchor sweep {kind} at {at}"));
            let (dham, _, _) = Ham::open_existing(&dir)
                .unwrap_or_else(|e| panic!("{kind} at {at}: durable image failed to reopen: {e}"));
            assert_eq!(fingerprint(&dham), before, "{kind} at {at}: durable image");
            drop(dham);
            let _ = std::fs::remove_dir_all(&dir);
            at += 1;
        }
    }
}

// ===========================================================================
// Ordering-bug regressions
// ===========================================================================

/// Regression: the WAL must not be truncated until every checkpoint side
/// effect has succeeded. Before the reorder, `Ham::checkpoint` truncated
/// the log and *then* wrote per-node files, so a failure there left the
/// store with no way to retry from the full log.
#[test]
fn node_file_failure_leaves_wal_untruncated() {
    // Locate the first node-file write among the write-class operations a
    // checkpoint issues.
    const WRITE_OPS: [&str; 5] = ["create", "append", "set_len", "remove", "set_permissions"];
    let put_at = checkpoint_ops("node-file-probe")
        .iter()
        .filter(|op| WRITE_OPS.iter().any(|w| op.starts_with(w)))
        .position(|op| on_node_file(op))
        .expect("checkpoint must write node files") as u64;

    let dir = tmpdir("node-file-keeps-wal");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);
    let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    assert!(wal_len > 8, "expected committed records in the WAL");

    vfs.arm(FaultKind::FailWrite, put_at);
    let err = ham.checkpoint().unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    let log = vfs.op_log();
    assert!(
        log.iter()
            .rev()
            .any(|op| op.starts_with("create") && on_node_file(op)),
        "fault was meant to hit a node file, hit {:?}",
        log.last()
    );
    drop(ham);

    assert_eq!(
        std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        wal_len,
        "a failed node file must leave the WAL untruncated"
    );
    // And the failure is recoverable: reopen, retry, verify.
    let (mut ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(fingerprint(&ham), before);
    ham.checkpoint().unwrap();
    assert_node_files(&ham, true, "retried checkpoint");
    drop(ham);
    assert_clean(&dir, "retried checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint cut by a power loss between two node files: the first
/// file's data was synced but its directory entry never was, and the old
/// snapshot is the durable one. The reopened store is the committed one,
/// and its next checkpoint writes exactly the heads that snapshot does not
/// name — then goes back to doing nothing when idle.
#[test]
fn a_checkpoint_cut_between_node_files_writes_what_its_snapshot_lacks() {
    let ops = checkpoint_ops("cut-between-probe");
    let second_put_at = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.starts_with("create") && on_node_file(op))
        .nth(1)
        .expect("the checkpoint writes two node files")
        .0 as u64;

    let dir = tmpdir("cut-between");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);
    let (a, d) = (1, 4); // edited, and born after the first fold
    vfs.arm(FaultKind::PowerCut, second_put_at);
    ham.checkpoint().unwrap_err();
    drop(ham);
    vfs.materialize_durable(&dir).unwrap();

    // A fresh fault Vfs, never armed: its op log counts the I/O.
    let vfs = FaultVfs::new();
    let (mut ham, _, _) = Ham::open_existing_with(Arc::new(vfs.clone()), &dir).unwrap();
    assert_eq!(fingerprint(&ham), before);
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    let mut created: Vec<u64> = vfs
        .op_log()
        .iter()
        .filter(|op| op.starts_with("create") && on_node_file(op))
        .filter_map(|op| NodeFiles::parse_name(op.split_once(' ').unwrap().1))
        .map(|(id, _)| id)
        .collect();
    created.sort_unstable();
    assert_eq!(
        created,
        vec![a, d],
        "only the heads the durable snapshot lacks"
    );
    assert_node_files(&ham, true, "after the retried checkpoint");
    vfs.clear_op_log();
    ham.checkpoint().unwrap();
    assert_eq!(vfs.op_log(), Vec::<String>::new(), "incremental again");
    drop(ham);
    assert_clean(&dir, "store after the cut checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A power cut at every I/O step of a node-file checkpoint: from both crash
/// images the store reopens equal, its open leaves `nodes/` holding exactly
/// the files the surviving snapshot names, and those hold what the machine
/// loaded. A checkpoint that synced `nodes/` only after its snapshot rename
/// fails here: a cut between the two leaves a durable snapshot naming files
/// whose directory entries are not.
#[test]
fn a_power_cut_at_every_node_file_checkpoint_step_leaves_exactly_the_named_files() {
    let steps = checkpoint_ops("power-cut-probe").len() as u64;
    for at in 0..steps {
        let dir = tmpdir(&format!("node-file-cut-{at}"));
        let vfs = FaultVfs::new();
        let mut ham = build_checkpoint_store(&dir, &vfs);
        let before = fingerprint(&ham);
        vfs.arm(FaultKind::PowerCut, at);
        // A cut among the last step's unlinks finds the checkpoint complete.
        let _ = ham.checkpoint();
        assert_eq!(vfs.injected(), 1, "power cut at {at}");
        drop(ham);
        for image in ["working tree", "durable image"] {
            if image == "durable image" {
                vfs.materialize_durable(&dir).unwrap();
            }
            let what = format!("power cut at {at}, {image}");
            let (ham, _, _) = Ham::open_existing(&dir)
                .unwrap_or_else(|e| panic!("{what}: failed to reopen: {e}"));
            assert_eq!(fingerprint(&ham), before, "{what}");
            let named: BTreeSet<(u64, u64)> =
                ham.durable_node_files().map(|(n, t)| (n.0, t.0)).collect();
            let on_disk: BTreeSet<(u64, u64)> =
                files_on_disk(&dir, false, &what).into_keys().collect();
            assert_eq!(on_disk, named, "{what}: open left unnamed files");
            let findings = neptune_check::verify_open_ham(&ham);
            assert!(findings.is_empty(), "{what}: {findings:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A failed node-file fsync fails the checkpoint before any snapshot names
/// the file, which is removed; the WAL stays whole, a retry writes the file
/// again, and both crash images reopen to the committed store.
#[test]
fn a_failed_node_file_fsync_fails_the_checkpoint_and_a_retry_writes_it() {
    let dir = tmpdir("node-file-fsync");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);
    let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    vfs.clear_op_log();
    vfs.arm(FaultKind::FailSync, 0); // the first node file's fsync
    let err = ham.checkpoint().unwrap_err();
    assert!(err.to_string().contains("fail_sync"), "{err}");
    let log = vfs.op_log();
    let failed = log.iter().rposition(|op| op.starts_with("sync ")).unwrap();
    assert!(on_node_file(&log[failed]), "the fault hit {}", log[failed]);
    let name = log[failed].split_once(' ').unwrap().1;
    assert!(
        !dir.join(NODES_DIR).join(name).exists(),
        "the failed file stayed"
    );
    assert!(
        !log.iter().any(|op| op.contains("graph.tmp")),
        "a snapshot was written"
    );
    assert_eq!(
        std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        wal_len
    );

    ham.checkpoint().unwrap();
    assert_node_files(&ham, true, "after the retry");
    drop(ham);
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(fingerprint(&ham), before, "working tree");
    drop(ham);
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    assert_clean_crash_image(&dir, "durable image after a failed node-file fsync");
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(fingerprint(&ham), before, "durable image");
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A node-file append torn by a short write fails the checkpoint and
/// leaves no file; a torn file a crash leaves behind instead is never
/// named by a snapshot, and open sweeps it.
#[test]
fn a_torn_node_file_append_never_reaches_a_snapshot() {
    let dir = tmpdir("node-file-torn");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);
    vfs.clear_op_log();
    vfs.arm(FaultKind::ShortWrite, 0); // the first node file's append
    let err = ham.checkpoint().unwrap_err();
    assert!(err.to_string().contains("short_write"), "{err}");
    let log = vfs.op_log();
    let torn = log.iter().rposition(|op| op.starts_with("append")).unwrap();
    assert!(on_node_file(&log[torn]), "the fault hit {}", log[torn]);
    let name = log[torn].split_once(' ').unwrap().1.to_owned();
    assert!(
        !dir.join(NODES_DIR).join(&name).exists(),
        "the torn file stayed"
    );
    drop(ham);

    // As if the process died before removing it: plant the torn prefix.
    let (id, head) = NodeFiles::parse_name(&name).unwrap();
    let mut whole = neptune_storage::snapshot::frame(
        neptune_storage::snapshot::NODE_FILE_MAGIC,
        b"the contents of a node file",
    );
    whole.truncate(whole.len() / 2);
    std::fs::write(dir.join(NODES_DIR).join(&name), whole).unwrap();
    let (mut ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(fingerprint(&ham), before);
    assert!(
        !dir.join(NODES_DIR).join(&name).exists(),
        "open kept the torn file"
    );
    assert!(ham
        .durable_node_files()
        .all(|(n, t)| (n.0, t.0) != (id, head)));
    ham.checkpoint().unwrap();
    assert_node_files(&ham, true, "after the torn append");
    drop(ham);
    assert_clean(&dir, "store after a torn node-file append");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a checkpoint that dies after its log truncation is durable
/// but before its `Checkpoint` record is leaves an empty log under a
/// snapshot whose fold boundary is far above LSN 1. The reopened log must
/// not hand out LSNs at or below that boundary, or the next recovery skips
/// the commits that carry them as "already folded".
#[test]
fn commits_after_a_half_finished_truncation_survive_recovery() {
    let probe_dir = tmpdir("lsn-reuse-probe");
    let probe_vfs = FaultVfs::new();
    let mut probe = build_checkpoint_store(&probe_dir, &probe_vfs);
    probe_vfs.clear_op_log();
    probe.checkpoint().unwrap();
    let record_at = probe_vfs
        .op_log()
        .iter()
        .rposition(|op| op == "append wal.log")
        .expect("checkpoint must append its record") as u64;
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    let dir = tmpdir("lsn-reuse");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    vfs.arm(FaultKind::PowerCut, record_at);
    ham.checkpoint().unwrap_err();
    drop(ham);
    vfs.materialize_durable(&dir).unwrap();

    let (mut ham, _, _) = Ham::open_existing(&dir).unwrap();
    let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(
        MAIN_CONTEXT,
        n,
        t,
        b"committed after the crash".to_vec(),
        &[],
    )
    .unwrap();
    let after = fingerprint(&ham);
    drop(ham);
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(
        fingerprint(&ham),
        after,
        "commits logged under reused LSNs were skipped as already folded"
    );
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a failed fsync of the graph directory after the snapshot
/// rename must fail the checkpoint. Before the fix it was swallowed, so
/// the WAL was truncated on the strength of a rename that a power cut
/// could undo — losing every committed transaction since the *previous*
/// checkpoint.
#[test]
fn swallowed_snapshot_dir_fsync_would_lose_commits() {
    let dir = tmpdir("dirsync-loss");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);

    // Sync-class ops in a checkpoint: each node file, `nodes/`, the
    // snapshot tmp file, then the graph directory (the rename's durability
    // point), located in a dry run.
    let ops = checkpoint_ops("dirsync-loss-probe");
    let renamed = ops.iter().position(|op| op == "rename graph.snap").unwrap();
    let dir_sync_at = ops[..renamed]
        .iter()
        .filter(|op| op.starts_with("sync"))
        .count() as u64;
    vfs.arm(FaultKind::FailSync, dir_sync_at);
    let err = ham.checkpoint().unwrap_err();
    assert!(err.to_string().contains("fail_sync"), "{err}");
    assert!(
        vfs.op_log().last().unwrap().starts_with("sync_dir"),
        "fault was meant to hit the directory fsync, hit {:?}",
        vfs.op_log().last()
    );
    drop(ham);

    // Power dies. The snapshot rename was never durable; the full WAL must
    // still be, or the committed transactions above are gone.
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    assert_clean_crash_image(&dir, "durable image after swallowed-sync crash");
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(
        fingerprint(&ham),
        before,
        "committed transactions lost: the checkpoint truncated the WAL \
         without the snapshot rename being durable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a crash *between* the snapshot rename becoming durable and
/// the WAL truncation becoming durable must not replay the folded
/// transactions on top of the snapshot that already contains them. The
/// snapshot's embedded boundary LSN closes this window.
#[test]
fn crash_between_snapshot_and_truncate_does_not_double_apply() {
    // Dry run to locate the WAL truncation inside the checkpoint pipeline.
    let probe_dir = tmpdir("double-apply-probe");
    let probe_vfs = FaultVfs::new();
    let mut probe = build_checkpoint_store(&probe_dir, &probe_vfs);
    probe_vfs.clear_op_log();
    probe.checkpoint().unwrap();
    let set_len_at = probe_vfs
        .op_log()
        .iter()
        .position(|op| op.starts_with("set_len"))
        .expect("checkpoint must truncate the WAL") as u64;
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    // Real run: power dies at exactly that operation. Every side effect —
    // including the snapshot rename and its directory fsync — is already
    // durable; the old WAL content still is too.
    let dir = tmpdir("double-apply");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);
    vfs.arm(FaultKind::PowerCut, set_len_at);
    ham.checkpoint().unwrap_err();
    assert!(vfs.is_powered_off());
    assert!(
        vfs.op_log().last().unwrap().starts_with("set_len"),
        "power cut was meant to hit the WAL truncation, hit {:?}",
        vfs.op_log().last()
    );
    drop(ham);

    vfs.materialize_durable(&dir).unwrap();
    assert_clean_crash_image(&dir, "durable image in the snapshot/truncate window");
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(
        fingerprint(&ham),
        before,
        "WAL records already folded into the snapshot were applied again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ===========================================================================
// Sharded recovery sweep
// ===========================================================================
//
// The single-machine matrix above proves exact prefix recovery. Sharding
// relaxes that in exactly one documented way (DESIGN.md §13): a cross-shard
// merge is two per-shard commits under one logical sequence number, and a
// crash between them may persist the parent half alone. So the sharded
// sweep asserts *per-context* prefix equivalence — every context recovers
// to its state at the completed prefix or at the next step — plus a clean
// `verify_sharded` report over the merged cross-shard topology.

/// Each sharded op is one logical commit (cross-shard merges: two commits
/// under one sequence), so per-context states line up with step indices.
#[derive(Debug, Clone)]
enum SOp {
    Fork(usize),
    AddNode(usize),
    ModifyNode(usize, Vec<u8>),
    Merge(usize),
    Checkpoint,
}

fn gen_sharded_ops(seed: u64, count: usize) -> Vec<SOp> {
    let mut rng = XorShift::new(seed);
    (0..count)
        .map(|_| match rng.below(16) {
            0..=2 => SOp::Fork(rng.next_u64() as usize),
            3..=4 => SOp::Merge(rng.next_u64() as usize),
            5 => SOp::Checkpoint,
            6..=10 => SOp::AddNode(rng.next_u64() as usize),
            _ => {
                let len = rng.below(16) as usize;
                SOp::ModifyNode(rng.next_u64() as usize, rng.bytes(len))
            }
        })
        .collect()
}

fn apply_sharded(
    sharded: &ShardedHam,
    ctxs: &mut Vec<neptune_ham::ContextId>,
    op: &SOp,
) -> neptune_ham::Result<()> {
    match op {
        SOp::Fork(i) => {
            let parent = ctxs[i % ctxs.len()];
            let child = sharded.create_context(parent)?;
            ctxs.push(child);
        }
        SOp::AddNode(i) => {
            let ctx = ctxs[i % ctxs.len()];
            let mut guard = sharded.lock_home(ctx)?;
            guard.add_node(ctx, true)?;
        }
        SOp::ModifyNode(i, contents) => {
            let ctx = ctxs[i % ctxs.len()];
            let mut guard = sharded.lock_home(ctx)?;
            let nodes: Vec<NodeIndex> = guard
                .graph(ctx)?
                .nodes()
                .filter(|n| n.exists_at(Time::CURRENT))
                .map(|n| n.id)
                .collect();
            if nodes.is_empty() {
                return Ok(());
            }
            let node = nodes[i % nodes.len()];
            let opened = guard.open_node(ctx, node, Time::CURRENT, &[])?;
            guard.modify_node(ctx, node, opened.current_time, contents.clone(), &[])?;
        }
        SOp::Merge(i) => {
            let children: Vec<_> = ctxs
                .iter()
                .copied()
                .filter(|c| *c != MAIN_CONTEXT)
                .collect();
            if !children.is_empty() {
                let child = children[i % children.len()];
                sharded
                    .merge_context(child, ConflictPolicy::PreferChild)
                    .map(|_| ())?;
            }
        }
        SOp::Checkpoint => sharded.checkpoint()?,
    }
    Ok(())
}

/// Per-context observable fingerprint of a sharded store's live machines.
fn sharded_fps(sharded: &ShardedHam) -> BTreeMap<u64, String> {
    let mut out = BTreeMap::new();
    for ctx in sharded.live_contexts() {
        let guard = sharded.lock_shard(sharded.shard_of(ctx));
        let graph = guard.graph(ctx).unwrap();
        let mut s = format!("clock {}\n", graph.now().0);
        for t in 1..=graph.now().0 {
            let time = Time(t);
            for n in graph.nodes() {
                if !n.exists_at(time) {
                    continue;
                }
                s.push_str(&format!("t{t} node {} ", n.id.0));
                for (attr, value) in n.attrs.all_at(time) {
                    s.push_str(&format!("{}={} ", attr.0, value));
                }
                s.push('\n');
            }
        }
        out.insert(ctx.0, s);
    }
    out
}

const SHARD_SWEEP_SHARDS: usize = 3;
const SHARD_SWEEP_OPS: usize = 60;

/// Per-step fingerprints of every context, keyed by context id.
type ShardedFps = Vec<BTreeMap<u64, String>>;

fn sharded_oracle() -> &'static (Vec<SOp>, ShardedFps) {
    static ORACLE: OnceLock<(Vec<SOp>, ShardedFps)> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let ops = gen_sharded_ops(seed() ^ 0x5AD, SHARD_SWEEP_OPS);
        let dir = tmpdir("sharded-oracle");
        let (sharded, _, _) =
            ShardedHam::create(&dir, Protections::DEFAULT, SHARD_SWEEP_SHARDS).unwrap();
        let mut ctxs = vec![MAIN_CONTEXT];
        let mut fps = vec![sharded_fps(&sharded)];
        for (i, op) in ops.iter().enumerate() {
            apply_sharded(&sharded, &mut ctxs, op).unwrap_or_else(|e| {
                panic!("sharded oracle step {i} failed (seed {:#x}): {e}", seed())
            });
            fps.push(sharded_fps(&sharded));
        }
        drop(sharded);
        assert_clean(&dir, "sharded oracle final state");
        let _ = std::fs::remove_dir_all(&dir);
        (ops, fps)
    })
}

/// Every recovered context must match its oracle state at the completed
/// prefix (`lo`) or one step later (`hi`), and no committed context may
/// vanish.
fn assert_per_context_prefix(
    recovered: &BTreeMap<u64, String>,
    lo: &BTreeMap<u64, String>,
    hi: &BTreeMap<u64, String>,
    what: &str,
) {
    for (ctx, fp) in recovered {
        let ok = lo.get(ctx) == Some(fp) || hi.get(ctx) == Some(fp);
        assert!(
            ok,
            "{what} (seed {:#x}): context {ctx} recovered to a state that is \
             neither the completed prefix nor the next step:\n{fp}",
            seed()
        );
    }
    for ctx in lo.keys() {
        assert!(
            recovered.contains_key(ctx),
            "{what} (seed {:#x}): committed context {ctx} vanished on recovery",
            seed()
        );
    }
}

fn sharded_fault_run(kind: FaultKind, at: u64) -> Option<()> {
    let _trace = obs_cell(kind, at);
    let (ops, fps) = sharded_oracle();
    let s = seed();
    let dir = tmpdir(&format!("sharded-{kind}-{at}"));
    let vfs = FaultVfs::new();
    let (sharded, _, _) = ShardedHam::create_with(
        Arc::new(vfs.clone()),
        &dir,
        Protections::DEFAULT,
        SHARD_SWEEP_SHARDS,
    )
    .unwrap();
    vfs.arm(kind, at);

    let mut ctxs = vec![MAIN_CONTEXT];
    let mut completed = 0;
    for op in ops {
        match apply_sharded(&sharded, &mut ctxs, op) {
            Ok(()) => completed += 1,
            Err(e) => {
                assert!(
                    vfs.injected() > 0,
                    "sharded {kind} at {at} (seed {s:#x}): step {completed} \
                     failed without a fault being injected: {e}"
                );
                break;
            }
        }
    }
    drop(sharded);
    if vfs.injected() == 0 {
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    }

    let lo = &fps[completed];
    let hi = &fps[(completed + 1).min(fps.len() - 1)];

    // Crash image A: every issued write reached disk.
    {
        let (recovered, _, _) = ShardedHam::open(&dir).unwrap_or_else(|e| {
            panic!("sharded {kind} at {at} (seed {s:#x}): working tree failed to reopen: {e}")
        });
        assert_per_context_prefix(
            &sharded_fps(&recovered),
            lo,
            hi,
            &format!("sharded {kind} at {at} working tree"),
        );
    }

    // Crash image B: nothing unsynced survived.
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    let (recovered, _, _) = ShardedHam::open(&dir).unwrap_or_else(|e| {
        panic!("sharded {kind} at {at} (seed {s:#x}): durable image failed to reopen: {e}")
    });
    let findings = neptune_check::verify_sharded(&recovered);
    assert!(
        findings.is_empty(),
        "sharded {kind} at {at} durable image (seed {s:#x}): verify found {findings:?}"
    );
    assert_per_context_prefix(
        &sharded_fps(&recovered),
        lo,
        hi,
        &format!("sharded {kind} at {at} durable image"),
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    Some(())
}

fn sharded_sweep(kind: FaultKind) {
    let mut at = 0;
    while sharded_fault_run(kind, at).is_some() {
        at += 1;
    }
    assert!(
        at > 0,
        "sharded {kind}: workload produced no matching fault points"
    );
}

#[test]
fn sharded_recovery_power_cut() {
    sharded_sweep(FaultKind::PowerCut);
}

#[test]
fn sharded_recovery_short_write() {
    sharded_sweep(FaultKind::ShortWrite);
}

#[test]
fn sharded_recovery_fail_sync() {
    sharded_sweep(FaultKind::FailSync);
}

// ===========================================================================
// Forks logged by reference across checkpoints and faults
// ===========================================================================
//
// A fork onto a higher shard logs a reference to its parent, which recovery
// resolves against the parent's shard as it stood at the fork. So a parent
// shard folds only after every shard holding such a reference has folded;
// and a fork from a shard whose log is poisoned logs the parent's graph.
// Each cell ends in reopens whose every context's encoded graph and fork
// point equal the live store.

/// Each live context's encoded graph and fork point, by context id.
type ContextBytes = BTreeMap<u64, (Vec<u8>, Option<(neptune_ham::ContextId, Time)>)>;

fn context_bytes(sharded: &ShardedHam) -> ContextBytes {
    use neptune_storage::codec::Encode;
    sharded
        .live_contexts()
        .into_iter()
        .map(|c| {
            let guard = sharded.lock_shard(sharded.shard_of(c));
            let graph = guard.graph(c).unwrap().to_bytes();
            (c.0, (graph, guard.context_forked_from(c).unwrap()))
        })
        .collect()
}

/// Three shards: MAIN with a few nodes on shard 0, forks by reference onto
/// shards 1 and 2 that each edit, and MAIN edited after them, so MAIN's
/// shard holds commits past both forks. Nothing is folded yet.
fn store_with_fork_refs(dir: &Path, vfs: &FaultVfs) -> ShardedHam {
    let (sharded, _, _) =
        ShardedHam::create_with(Arc::new(vfs.clone()), dir, Protections::DEFAULT, 3).unwrap();
    let edit = |ctx, text: &str| {
        let mut guard = sharded.lock_home(ctx).unwrap();
        let (node, t) = guard.add_node(ctx, true).unwrap();
        guard
            .modify_node(ctx, node, t, text.as_bytes().to_vec(), &[])
            .unwrap();
    };
    edit(MAIN_CONTEXT, "before the forks");
    for shard in 1..3 {
        let child = sharded.create_context(MAIN_CONTEXT).unwrap();
        assert_eq!(sharded.shard_of(child), shard);
        edit(child, "in a private world");
    }
    edit(MAIN_CONTEXT, "after the forks");
    sharded
}

fn wal_len(dir: &Path, shard: usize) -> u64 {
    std::fs::metadata(neptune_ham::shard::shard_dir(dir, shard).join(WAL_FILE))
        .map(|m| m.len())
        .unwrap_or(0)
}

/// Reopen `dir` with the production filesystem and require every context
/// to equal `live`.
fn assert_reopens_equal(dir: &Path, live: &ContextBytes, what: &str) {
    let (reopened, _, _) =
        ShardedHam::open(dir).unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
    assert!(
        context_bytes(&reopened) == *live,
        "{what}: the reopened store differs from the live one"
    );
}

/// A power cut at every I/O step of a checkpoint over a store with forks
/// by reference, including the one after the children's shards folded and
/// before MAIN's did: every durable image reopens to the live store.
#[test]
fn fork_refs_survive_a_crash_at_every_checkpoint_step() {
    let mut between = 0;
    for at in 0.. {
        let dir = tmpdir(&format!("forkref-cut-{at}"));
        let vfs = FaultVfs::new();
        let sharded = store_with_fork_refs(&dir, &vfs);
        let live = context_bytes(&sharded);
        let unfolded = wal_len(&dir, 0);
        vfs.arm(FaultKind::PowerCut, at);
        let result = sharded.checkpoint();
        drop(sharded);
        if vfs.injected() == 0 {
            result.unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            break;
        }
        vfs.materialize_durable(&dir).unwrap();
        let children_folded = (1..3).all(|k| wal_len(&dir, k) < 64);
        if children_folded && wal_len(&dir, 0) == unfolded {
            between += 1;
        }
        assert_reopens_equal(&dir, &live, &format!("power cut at {at}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        between > 0,
        "no cut fell after the children's shards folded and before MAIN's"
    );
}

/// A failed fsync anywhere in the first child shard's fold stops MAIN's
/// shard from folding; both crash images reopen to the live store.
#[test]
fn a_failed_child_fold_keeps_the_parent_shard_unfolded() {
    // The fsyncs of one child shard's fold, counted on a twin store.
    let child_syncs = {
        let dir = tmpdir("forkref-count");
        let vfs = FaultVfs::new();
        let sharded = store_with_fork_refs(&dir, &vfs);
        vfs.clear_op_log();
        sharded.lock_shard(1).checkpoint().unwrap();
        let syncs = vfs
            .op_log()
            .iter()
            .filter(|op| op.starts_with("sync"))
            .count();
        drop(sharded);
        let _ = std::fs::remove_dir_all(&dir);
        syncs as u64
    };
    assert!(child_syncs > 0);
    for at in 0..child_syncs {
        let what = format!("fail_sync at {at} of the child's fold");
        let dir = tmpdir(&format!("forkref-sync-{at}"));
        let vfs = FaultVfs::new();
        let sharded = store_with_fork_refs(&dir, &vfs);
        let live = context_bytes(&sharded);
        let unfolded = wal_len(&dir, 0);
        vfs.arm(FaultKind::FailSync, at);
        assert!(
            sharded.checkpoint().is_err(),
            "{what}: checkpoint succeeded"
        );
        assert_eq!(vfs.injected(), 1, "{what}");
        assert_eq!(
            wal_len(&dir, 0),
            unfolded,
            "{what}: MAIN's shard folded past a reference its holder failed to fold"
        );
        drop(sharded);
        assert_reopens_equal(&dir, &live, &format!("{what}, working tree"));
        vfs.power_off();
        vfs.materialize_durable(&dir).unwrap();
        assert_reopens_equal(&dir, &live, &format!("{what}, durable image"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fork from a shard whose log is poisoned logs the parent's graph: the
/// failed commit is still in that log's working tree, and a reference
/// would let recovery clone it into the child.
#[test]
fn a_fork_from_a_poisoned_shard_logs_the_graph() {
    let dir = tmpdir("forkref-poisoned");
    let vfs = FaultVfs::new();
    let (sharded, _, _) =
        ShardedHam::create_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT, 2).unwrap();
    let node = {
        let mut main = sharded.lock_home(MAIN_CONTEXT).unwrap();
        let (node, t) = main.add_node(MAIN_CONTEXT, true).unwrap();
        main.modify_node(MAIN_CONTEXT, node, t, b"durable".to_vec(), &[])
            .unwrap();
        node
    };
    vfs.arm(FaultKind::FailSync, 0);
    {
        let mut main = sharded.lock_home(MAIN_CONTEXT).unwrap();
        let t = main.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
        assert!(main
            .modify_node(MAIN_CONTEXT, node, t, b"never acknowledged".to_vec(), &[])
            .is_err());
    }
    assert_eq!(vfs.injected(), 1);
    let before = wal_len(&dir, 1);
    let child = sharded.create_context(MAIN_CONTEXT).unwrap();
    assert_eq!(sharded.shard_of(child), 1);
    let graph_len = context_bytes(&sharded)[&MAIN_CONTEXT.0].0.len() as u64;
    assert!(
        wal_len(&dir, 1) - before > graph_len,
        "a fork from a poisoned shard must log the parent's graph"
    );
    let live = context_bytes(&sharded);
    drop(sharded);

    // The working tree holds MAIN's failed commit, which recovery replays
    // (its durability is unknown); the child must not have it.
    {
        let (reopened, _, _) = ShardedHam::open(&dir).unwrap();
        assert!(
            context_bytes(&reopened)[&child.0] == live[&child.0],
            "working tree: the child differs from the live one"
        );
    }
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    assert_reopens_equal(&dir, &live, "durable image");
    let _ = std::fs::remove_dir_all(&dir);
}
