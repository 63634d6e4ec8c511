//! The Hypertext Abstract Machine facade.
//!
//! [`Ham`] implements every operation of the paper's Appendix under its
//! paper name (in Rust snake_case): graph operations (§A.1), node
//! operations (§A.2), link operations (§A.3), attribute operations (§A.4),
//! and demon operations (§A.5) — plus the §5 extensions (transactions are
//! §2.2 core behaviour; multiple version threads and parameterized demons
//! are the extensions the paper describes as in progress).
//!
//! Durability model: all state lives in memory (the HamGraph per context);
//! every state-changing operation is journaled to the write-ahead log at
//! commit, and `checkpoint` folds the log into an atomic snapshot. Opening
//! a graph loads the snapshot and replays committed transactions, giving
//! the paper's "complete recovery" from both aborts and crashes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{self, AtomicU64};
use std::sync::{Arc, OnceLock};

use neptune_storage::blobstore::BlobStore;
use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::diff::Difference;
use neptune_storage::snapshot::{read_snapshot_with, write_snapshot_with};
use neptune_storage::vfs::{StdVfs, Vfs};
use neptune_storage::wal::{CommittedTxn, Wal};

use crate::context::{merge_context, ConflictPolicy, MergeReport};
use crate::demons::{DemonAction, DemonFireInfo, DemonRegistry, DemonSpec, Event, FireRecord};
use crate::error::{HamError, Result};
use crate::graph::{HamGraph, Stamp};
use crate::predicate::Predicate;
use crate::query::SubGraph;
use crate::shard::ForkRefs;
use crate::txn::{ActiveTxn, RedoOp};
use crate::types::{
    decode_protections, AttributeIndex, ContextId, LinkIndex, LinkPt, Machine, NodeIndex,
    ProjectId, Protections, Time, Version, MAIN_CONTEXT,
};
use crate::value::Value;
use crate::view::{CommittedView, ReadCore};
use crate::Published;

/// One version thread and where it forked from.
#[derive(Debug, Clone)]
pub(crate) struct GraphThread {
    pub(crate) graph: HamGraph,
    /// `(parent context, store clock at fork)`; `None` for the main thread.
    pub(crate) forked_from: Option<(ContextId, Time)>,
}

/// The machine's contexts. Each sits behind an `Arc` the published view
/// shares: a commit copies the thread it writes to (cheaply — see
/// [`HamGraph`]) and publishing bumps one refcount per context.
pub(crate) type Threads = HashMap<ContextId, Arc<GraphThread>>;

impl GraphThread {
    fn shared(graph: HamGraph, forked_from: Option<(ContextId, Time)>) -> Arc<GraphThread> {
        Arc::new(GraphThread { graph, forked_from })
    }
}

/// Result of `openNode`: `Contents × LinkPt* × Value^m × Time₂`.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenedNode {
    /// The node's contents at the requested time. Shared and immutable:
    /// the same allocation may back the archive's head or an anchor and
    /// other concurrent readers, so callers needing a private mutable copy
    /// must `to_vec()`.
    pub contents: Arc<[u8]>,
    /// Link attachments visible on that version, in canonical order
    /// (ascending link index, "from" end before "to" end). `modifyNode`
    /// expects its `LinkPt*` operand in this same order.
    pub link_pts: Vec<LinkPt>,
    /// Values of the requested attributes (None = not set at that time).
    pub values: Vec<Option<Value>>,
    /// Version time of the **current** version of the node.
    pub current_time: Time,
}

/// Name of the metadata file inside a graph directory.
pub const META_FILE: &str = "graph.meta";
/// Name of the checkpoint snapshot file inside a graph directory.
pub const SNAPSHOT_FILE: &str = "graph.snap";
/// Name of the write-ahead log file inside a graph directory.
pub const WAL_FILE: &str = "wal.log";
/// Name of the node-contents blob directory inside a graph directory.
pub const NODES_DIR: &str = "nodes";

/// The Hypertext Abstract Machine: a single opened Neptune database.
///
/// A `Ham` is single-writer; `neptune-server` serializes concurrent clients
/// in front of it (the paper's central-server architecture, §2.2).
pub struct Ham {
    directory: PathBuf,
    /// Filesystem the durable write path runs on: the real one in
    /// production, a fault-injecting shadow in crash-consistency tests.
    vfs: Arc<dyn Vfs>,
    project_id: ProjectId,
    protections: Protections,
    wal: Wal,
    blobs: BlobStore,
    threads: Threads,
    next_context: u64,
    txn: Option<ActiveTxn>,
    next_txn: u64,
    registry: DemonRegistry,
    journal: Vec<FireRecord>,
    in_demon: bool,
    replaying: bool,
    /// Publication point for committed snapshots: refreshed at every
    /// commit, loaded lock-free by snapshot readers, and what an abort
    /// restores the machine from.
    published: Arc<Published<CommittedView>>,
    /// Epoch stamped into the next published view (monotonic from 1).
    view_epoch: u64,
    /// Source of global commit sequence numbers. Private to this machine
    /// for an unsharded store; shared by every shard of a
    /// [`crate::shard::ShardedHam`], so sequences order commits across
    /// shards.
    commit_seq: Arc<AtomicU64>,
    /// Sequence stamped into the most recent durable commit (0 before the
    /// first). Published into every [`CommittedView`].
    last_seq: u64,
    /// The store clock every operation draws its `Time` from, holding the
    /// newest time issued. Shared by every shard of a
    /// [`crate::shard::ShardedHam`] like `commit_seq`, so one `Time` order
    /// spans every context of the store. It never rewinds: an aborted
    /// operation's time is left unused.
    clock: Arc<AtomicU64>,
    /// A sequence pre-assigned by a cross-shard coordinator for the next
    /// commit; consumed by `log_txn` instead of drawing a fresh one, so
    /// every participant of a cross-shard transaction stamps the same
    /// sequence.
    forced_seq: Option<u64>,
    /// This machine's shard identity `(index, count)`; `(0, 1)` for an
    /// unsharded store. Consulted by the fork-topology invariant rules: a
    /// context adopted from another shard legitimately has no local parent.
    shard: (u32, u32),
    /// The blob-mirror watermark: MAIN's newest time when `nodes/` last became a
    /// complete, durable mirror of MAIN. A checkpoint rewrites only nodes
    /// with a version or existence change past it — the version times the
    /// graph already keeps are the dirty bits. `Time(0)` means "mirror
    /// state unknown": the next checkpoint re-mirrors every node.
    mirrored_through: Time,
    /// Which shards' logs still fork from which by reference; shared by
    /// every shard of a [`crate::shard::ShardedHam`]. A checkpoint refuses
    /// while other shards hold references into this one, and releases this
    /// shard's own once its log is folded.
    fork_refs: Arc<ForkRefs>,
}

impl std::fmt::Debug for Ham {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ham")
            .field("directory", &self.directory)
            .field("project_id", &self.project_id)
            .field("contexts", &self.threads.len())
            .field("in_txn", &self.txn.is_some())
            .finish()
    }
}

impl Ham {
    // =====================================================================
    // A.1 Graph operations
    // =====================================================================

    /// `createGraph: Directory × Protections → ProjectId × Time`
    ///
    /// Creates a new empty hyperdata graph in `directory`, using
    /// `protections` for the files representing it. Returns the machine
    /// with the graph open, its `ProjectId`, and the creation time.
    pub fn create_graph(
        directory: impl AsRef<Path>,
        protections: Protections,
    ) -> Result<(Ham, ProjectId, Time)> {
        Self::create_graph_with(StdVfs::arc(), directory, protections)
    }

    /// [`Ham::create_graph`] on an explicit [`Vfs`] (fault injection).
    pub fn create_graph_with(
        vfs: Arc<dyn Vfs>,
        directory: impl AsRef<Path>,
        protections: Protections,
    ) -> Result<(Ham, ProjectId, Time)> {
        let directory = directory.as_ref().to_path_buf();
        vfs.create_dir_all(&directory)
            .map_err(neptune_storage::StorageError::from)?;
        let project_id = ProjectId(fresh_project_id(&directory));
        let graph = HamGraph::new(project_id);
        let created = graph.created;
        let mut threads = HashMap::new();
        threads.insert(MAIN_CONTEXT, GraphThread::shared(graph, None));
        let wal = Wal::open_with(vfs.as_ref(), directory.join(WAL_FILE))?;
        let blobs = BlobStore::open_with(Arc::clone(&vfs), directory.join(NODES_DIR), protections)?;
        let view = CommittedView::new(1, 0, (0, 1), &threads, directory.clone());
        let mut ham = Ham {
            directory,
            vfs,
            project_id,
            protections,
            wal,
            blobs,
            threads,
            next_context: 1,
            txn: None,
            next_txn: 1,
            registry: DemonRegistry::new(),
            journal: Vec::new(),
            in_demon: false,
            replaying: false,
            published: Arc::new(Published::new(view)),
            view_epoch: 1,
            commit_seq: Arc::new(AtomicU64::new(0)),
            last_seq: 0,
            clock: Arc::new(AtomicU64::new(created.0)),
            forced_seq: None,
            shard: (0, 1),
            mirrored_through: Time(0),
            fork_refs: Arc::new(ForkRefs::new(1)),
        };
        ham.write_meta()?;
        ham.checkpoint()?;
        Ok((ham, project_id, created))
    }

    /// `destroyGraph: ProjectId × Directory →`
    ///
    /// Destroys the graph in `directory`. `project_id` must match the value
    /// returned by the `createGraph` that created it.
    pub fn destroy_graph(project_id: ProjectId, directory: impl AsRef<Path>) -> Result<()> {
        Self::destroy_graph_with(&StdVfs, project_id, directory)
    }

    /// [`Ham::destroy_graph`] against an explicit [`Vfs`], so fault sweeps
    /// can cover the teardown path too.
    pub fn destroy_graph_with(
        vfs: &dyn Vfs,
        project_id: ProjectId,
        directory: impl AsRef<Path>,
    ) -> Result<()> {
        let directory = directory.as_ref();
        let meta = read_meta(vfs, directory)?;
        if meta.0 != project_id {
            return Err(HamError::ProjectMismatch {
                given: project_id,
                actual: meta.0,
            });
        }
        vfs.remove_dir_all(directory)
            .map_err(neptune_storage::StorageError::from)?;
        Ok(())
    }

    /// `openGraph: ProjectId × Machine × Directory → Context`
    ///
    /// Opens an existing graph. `machine` names where the graph lives; the
    /// in-process implementation requires the local machine (the network
    /// path goes through `neptune-server`). Returns the machine with the
    /// main context id. Triggers the `graphOpened` demon.
    pub fn open_graph(
        project_id: ProjectId,
        _machine: &Machine,
        directory: impl AsRef<Path>,
    ) -> Result<(Ham, ContextId)> {
        Self::open_graph_with(StdVfs::arc(), project_id, directory)
    }

    /// [`Ham::open_graph`] on an explicit [`Vfs`] (fault injection).
    pub fn open_graph_with(
        vfs: Arc<dyn Vfs>,
        project_id: ProjectId,
        directory: impl AsRef<Path>,
    ) -> Result<(Ham, ContextId)> {
        let (mut ham, committed) = Ham::load_with(vfs, project_id, directory)?;
        // One machine alone cannot resolve a fork logged by reference: its
        // parent lives on another shard (`ShardedHam::open_with` does it).
        for txn in committed {
            ham.replay_txn(txn, &mut |context, parent, seq| {
                Err(HamError::UnresolvedForkRef {
                    context,
                    parent,
                    seq,
                    reason: "the parent's shard is not open",
                })
            })?;
        }
        ham.finish_open()?;
        Ok((ham, MAIN_CONTEXT))
    }

    /// The first half of opening a graph: the machine as its snapshot
    /// holds it, and the committed transactions its log holds past the
    /// snapshot, in log order, not yet replayed. [`Ham::replay_txn`] each
    /// of them, then [`Ham::finish_open`].
    pub(crate) fn load_with(
        vfs: Arc<dyn Vfs>,
        project_id: ProjectId,
        directory: impl AsRef<Path>,
    ) -> Result<(Ham, Vec<CommittedTxn>)> {
        let directory = directory.as_ref().to_path_buf();
        let (meta_pid, protections, meta_next_context, meta_next_txn) =
            read_meta(vfs.as_ref(), &directory)?;
        if meta_pid != project_id {
            return Err(HamError::ProjectMismatch {
                given: project_id,
                actual: meta_pid,
            });
        }
        let snapshot_bytes = read_snapshot_with(vfs.as_ref(), directory.join(SNAPSHOT_FILE))?;
        let state = decode_store_state(&snapshot_bytes)?;
        let mut wal = Wal::open_with(vfs.as_ref(), directory.join(WAL_FILE))?;
        // Skip WAL records already folded into the snapshot: if a crash hit
        // after the snapshot rename became durable but before the log
        // truncation did, replaying the whole log would apply every folded
        // transaction a second time.
        let recovery = wal.recover_committed_after(state.boundary_lsn)?;
        wal.reserve_lsns_through(state.boundary_lsn);
        // The mirror completed at the snapshot's MAIN time; replay
        // re-dirties exactly what postdates it. Two exceptions start from
        // "unknown" instead. Folded records still in the log mean a
        // checkpoint died after its snapshot rename and before truncating —
        // the one window in which the mirror can lag the snapshot. And a
        // legacy-format snapshot must be rewritten, which an unmoved clock
        // would otherwise let the next checkpoint skip.
        let mirrored_through = match state.threads.get(&MAIN_CONTEXT) {
            Some(main) if !recovery.skipped_folded && state.current_format => main.graph.now(),
            _ => Time(0),
        };
        let blobs = BlobStore::open_with(Arc::clone(&vfs), directory.join(NODES_DIR), protections)?;
        let view = CommittedView::new(1, state.last_seq, (0, 1), &state.threads, directory.clone());
        let ham = Ham {
            directory,
            vfs,
            project_id,
            protections,
            wal,
            blobs,
            threads: state.threads,
            next_context: meta_next_context.max(state.next_context),
            txn: None,
            next_txn: meta_next_txn.max(state.next_txn),
            registry: DemonRegistry::new(),
            journal: Vec::new(),
            in_demon: false,
            replaying: true,
            published: Arc::new(Published::new(view)),
            view_epoch: 1,
            commit_seq: Arc::new(AtomicU64::new(state.last_seq)),
            last_seq: state.last_seq,
            clock: Arc::default(),
            forced_seq: None,
            shard: (0, 1),
            mirrored_through,
            fork_refs: Arc::new(ForkRefs::new(1)),
        };
        Ok((ham, recovery.committed))
    }

    /// [`Ham::load_with`] without knowing the `ProjectId`.
    pub(crate) fn load_existing_with(
        vfs: Arc<dyn Vfs>,
        directory: impl AsRef<Path>,
    ) -> Result<(Ham, Vec<CommittedTxn>)> {
        let (pid, ..) = read_meta(vfs.as_ref(), directory.as_ref())?;
        Ham::load_with(vfs, pid, directory)
    }

    /// Replay one committed transaction that postdates the snapshot.
    /// `parent(context, from, seq)` resolves a fork logged by reference
    /// (`RedoOp::ForkRef`) at commit `seq`: the graph of `from` as its
    /// shard stood at that commit.
    pub(crate) fn replay_txn(
        &mut self,
        txn: CommittedTxn,
        parent: &mut dyn FnMut(ContextId, ContextId, u64) -> Result<HamGraph>,
    ) -> Result<()> {
        self.next_txn = self.next_txn.max(txn.txn_id + 1);
        for payload in txn.ops {
            let op = RedoOp::from_bytes(&payload)?;
            self.apply_redo(op, &mut |context, from| parent(context, from, txn.seq))?;
        }
        // Re-adopt the persisted sequence so post-recovery commits continue
        // the global order.
        self.last_seq = self.last_seq.max(txn.seq);
        Ok(())
    }

    /// The last half of opening a graph, once every transaction has been
    /// replayed: resume the counters, publish the recovered state and fire
    /// `graphOpened`.
    pub(crate) fn finish_open(&mut self) -> Result<()> {
        self.commit_seq
            .fetch_max(self.last_seq, atomic::Ordering::Relaxed);
        // Every time this store ever recorded is a context's newest time or
        // older, or a fork point: a fork may read a time an aborted
        // operation drew elsewhere, and that time must not be issued again.
        let newest = self.threads.values().flat_map(|t| {
            let fork = t.forked_from.map(|(_, time)| time);
            std::iter::once(t.graph.now()).chain(fork)
        });
        self.clock = Arc::new(AtomicU64::new(newest.max().unwrap_or_default().0));
        self.replaying = false;
        // The placeholder epoch-1 view predates replay; republish so
        // lock-free readers see the recovered state.
        self.publish_view();
        self.fire(MAIN_CONTEXT, Event::GraphOpened, None, None)?;
        Ok(())
    }

    /// Open a graph without knowing its `ProjectId` (directory inspection).
    pub fn open_existing(directory: impl AsRef<Path>) -> Result<(Ham, ContextId, ProjectId)> {
        Self::open_existing_with(StdVfs::arc(), directory)
    }

    /// [`Ham::open_existing`] on an explicit [`Vfs`] (fault injection).
    pub fn open_existing_with(
        vfs: Arc<dyn Vfs>,
        directory: impl AsRef<Path>,
    ) -> Result<(Ham, ContextId, ProjectId)> {
        let (pid, ..) = read_meta(vfs.as_ref(), directory.as_ref())?;
        let (ham, ctx) = Ham::open_graph_with(vfs, pid, directory)?;
        Ok((ham, ctx, pid))
    }

    /// `addNode: Context × Boolean → NodeIndex × Time`
    ///
    /// Creates a new empty node; `keep_history = true` maintains a complete
    /// version history (archive). Triggers the `nodeAdded` demon.
    pub fn add_node(
        &mut self,
        context: ContextId,
        keep_history: bool,
    ) -> Result<(NodeIndex, Time)> {
        let _span = neptune_obs::span!("ham.add_node", "context {}", context.0);
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let (id, time) = graph.add_node(keep_history, clock);
            ham.push_redo(RedoOp::AddNode {
                context,
                id,
                time,
                keep_history,
            });
            ham.fire(context, Event::NodeAdded, Some(id), None)?;
            Ok((id, time))
        })
    }

    /// `deleteNode: Context × NodeIndex →`
    ///
    /// Removes the node; all links into or out of it are deleted. History
    /// is preserved: earlier versions of the graph still see it. Triggers
    /// the `nodeDeleted` demon.
    pub fn delete_node(&mut self, context: ContextId, node: NodeIndex) -> Result<()> {
        let _span = neptune_obs::span!("ham.delete_node", "context {} node {}", context.0, node.0);
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let time = graph.delete_node(node, clock)?;
            ham.push_redo(RedoOp::DeleteNode {
                context,
                id: node,
                time,
            });
            ham.fire(context, Event::NodeDeleted, Some(node), None)?;
            Ok(())
        })
    }

    /// `addLink: Context × LinkPt₁ × LinkPt₂ → LinkIndex × Time`
    ///
    /// Creates a link from `from` to `to`. Both nodes must exist at their
    /// respective times; a zero time means the attachment tracks the
    /// current version. Triggers the `linkAdded` demon.
    pub fn add_link(
        &mut self,
        context: ContextId,
        from: LinkPt,
        to: LinkPt,
    ) -> Result<(LinkIndex, Time)> {
        let _span = neptune_obs::span!("ham.add_link", "context {}", context.0);
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let (id, time) = graph.add_link(from, to, clock)?;
            ham.push_redo(RedoOp::AddLink {
                context,
                id,
                from,
                to,
                time,
            });
            ham.fire(context, Event::LinkAdded, None, Some(id))?;
            Ok((id, time))
        })
    }

    /// `copyLink: Context × LinkIndex × Time₁ × Boolean × LinkPt → LinkIndex × Time`
    ///
    /// Creates a new link sharing one end with `link` as of `time1`: with
    /// `keep_source = true` the new link's source is `link`'s source and
    /// `pt` is the destination; otherwise the destination is shared and
    /// `pt` is the source. Triggers the `linkAdded` demon.
    pub fn copy_link(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
        keep_source: bool,
        pt: LinkPt,
    ) -> Result<(LinkIndex, Time)> {
        let shared = {
            let graph = self.graph(context)?;
            let l = graph.live_link(link, time1)?;
            let end = if keep_source { &l.from } else { &l.to };
            end.linkpt_at(time1).ok_or(HamError::NoSuchLink(link))?
        };
        let (from, to) = if keep_source {
            (shared, pt)
        } else {
            (pt, shared)
        };
        self.add_link(context, from, to)
    }

    /// `deleteLink: Context × LinkIndex →`
    ///
    /// Removes the link (history preserved). Triggers `linkDeleted`.
    pub fn delete_link(&mut self, context: ContextId, link: LinkIndex) -> Result<()> {
        let _span = neptune_obs::span!("ham.delete_link", "context {} link {}", context.0, link.0);
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let time = graph.delete_link(link, clock)?;
            ham.push_redo(RedoOp::DeleteLink {
                context,
                id: link,
                time,
            });
            ham.fire(context, Event::LinkDeleted, None, Some(link))?;
            Ok(())
        })
    }

    /// `linearizeGraph`: depth-first, offset-ordered traversal from `start`
    /// at `time`, filtered by node and link predicates, returning each
    /// result object's requested attribute values.
    #[allow(clippy::too_many_arguments)]
    pub fn linearize_graph(
        &self,
        context: ContextId,
        start: NodeIndex,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let _span = neptune_obs::span!("ham.linearize_graph", "context {}", context.0);
        self.read_core().linearize_graph(
            context, start, time, node_pred, link_pred, node_attrs, link_attrs,
        )
    }

    /// `getGraphQuery`: associative access to all nodes satisfying the node
    /// predicate and their interconnecting links satisfying the link
    /// predicate, at `time`.
    #[allow(clippy::too_many_arguments)]
    pub fn get_graph_query(
        &self,
        context: ContextId,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let _span = neptune_obs::span!("ham.get_graph_query", "context {}", context.0);
        self.read_core()
            .get_graph_query(context, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    /// [`Ham::get_graph_query`] with the value-index accelerator disabled —
    /// the ablation baseline for experiment E3.
    #[allow(clippy::too_many_arguments)]
    pub fn get_graph_query_scan(
        &self,
        context: ContextId,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        self.read_core()
            .get_graph_query_scan(context, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    // =====================================================================
    // A.2 Node operations
    // =====================================================================

    /// `openNode: NodeIndex × Time₁ × AttributeIndexᵐ → Contents × LinkPt* × Valueᵐ × Time₂`
    ///
    /// Returns the node's contents at `time` (zero = current), the link
    /// attachments of that version, the requested attribute values, and the
    /// current version time. Triggers the `nodeOpened` demon.
    pub fn open_node(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: &[AttributeIndex],
    ) -> Result<OpenedNode> {
        let _span = neptune_obs::span!("ham.open_node", "context {} node {}", context.0, node.0);
        let opened = self.read_node_inner(context, node, time, attrs)?;
        // `openNode` can trigger a demon; only pay the dispatch cost if one
        // is actually registered for this event.
        if self.open_demon_registered(context, node) {
            self.auto_txn(|ham| ham.fire(context, Event::NodeOpened, Some(node), None))?;
        }
        Ok(opened)
    }

    /// The read-only core of [`Ham::open_node`]: everything except firing
    /// the `nodeOpened` demon. The server dispatches here under its shared
    /// reader lock when [`Ham::open_demon_registered`] says no demon would
    /// fire; callers that must preserve demon semantics use `open_node`.
    pub fn read_node(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: &[AttributeIndex],
    ) -> Result<OpenedNode> {
        let _span = neptune_obs::span!("ham.read_node", "context {} node {}", context.0, node.0);
        self.read_node_inner(context, node, time, attrs)
    }

    /// Shared body of [`Ham::open_node`] and [`Ham::read_node`], unspanned
    /// so each public entry point records exactly one span.
    fn read_node_inner(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: &[AttributeIndex],
    ) -> Result<OpenedNode> {
        self.read_core().read_node(context, node, time, attrs)
    }

    /// Whether opening `node` in `context` would fire a `nodeOpened` demon
    /// (in which case `open_node`'s mutable path must be used).
    pub fn open_demon_registered(&self, context: ContextId, node: NodeIndex) -> bool {
        self.demon_registered(context, Event::NodeOpened, Some(node))
    }

    /// `modifyNode: NodeIndex × Time × Contents × LinkPt* →`
    ///
    /// Checks in new contents. `time` must equal the node's current version
    /// time (optimistic concurrency); `link_pts` must supply one point per
    /// attachment of the current version, in the canonical order returned
    /// by `openNode`. Attachments whose position changed get a new version
    /// of their offset; pinned attachments may not move. Triggers the
    /// `nodeModified` demon.
    pub fn modify_node(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        contents: impl Into<Arc<[u8]>>,
        link_pts: &[LinkPt],
    ) -> Result<Time> {
        let _span = neptune_obs::span!("ham.modify_node", "context {} node {}", context.0, node.0);
        // One shared allocation backs the version store and the redo log —
        // check-in never copies the contents.
        let contents: Arc<[u8]> = contents.into();
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let now =
                apply_modify_node(graph, node, Some(time), contents.clone(), link_pts, clock)?;
            ham.push_redo(RedoOp::ModifyNode {
                context,
                id: node,
                contents: contents.clone(),
                link_pts: link_pts.to_vec(),
                time: now,
            });
            ham.fire(context, Event::NodeModified, Some(node), None)?;
            Ok(now)
        })
    }

    /// `getNodeTimeStamp: NodeIndex → Time`
    ///
    /// The version time of the node's current version.
    pub fn get_node_time_stamp(&self, context: ContextId, node: NodeIndex) -> Result<Time> {
        self.read_core().get_node_time_stamp(context, node)
    }

    /// `changeNodeProtection: NodeIndex × Protections →`
    ///
    /// Sets the protections for the file storing the node's contents.
    pub fn change_node_protection(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        protections: Protections,
    ) -> Result<()> {
        self.auto_txn(|ham| {
            ham.graph_mut(context)?.live_node(node, Time::CURRENT)?;
            ham.graph_mut(context)?.node_mut(node)?.protections = protections;
            // The node's file changes mode once the commit is durable.
            ham.push_redo(RedoOp::ChangeProtection {
                context,
                node,
                protections,
            });
            Ok(())
        })
    }

    /// `getNodeVersions: NodeIndex → Version₁⁺ × Version₂*`
    ///
    /// The node's version history: major versions (content updates) and
    /// minor versions (link/attribute changes).
    pub fn get_node_versions(
        &self,
        context: ContextId,
        node: NodeIndex,
    ) -> Result<(Vec<Version>, Vec<Version>)> {
        self.read_core().get_node_versions(context, node)
    }

    /// `getNodeDifferences: NodeIndex × Time₁ × Time₂ → Difference*`
    ///
    /// Line-level differences between the node's contents at the two times.
    pub fn get_node_differences(
        &self,
        context: ContextId,
        node: NodeIndex,
        time1: Time,
        time2: Time,
    ) -> Result<Vec<Difference>> {
        self.read_core()
            .get_node_differences(context, node, time1, time2)
    }

    // =====================================================================
    // A.3 Link operations
    // =====================================================================

    /// `getToNode: LinkIndex × Time₁ → NodeIndex × Time₂`
    ///
    /// The destination node and the version of it the link refers to at
    /// `time1` (the pinned version for pinned ends, the version current at
    /// `time1` for tracking ends).
    pub fn get_to_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        self.read_core().get_to_node(context, link, time1)
    }

    /// `getFromNode: LinkIndex × Time₁ → NodeIndex × Time₂`
    ///
    /// The source-node analogue of [`Ham::get_to_node`].
    pub fn get_from_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        self.read_core().get_from_node(context, link, time1)
    }

    // =====================================================================
    // A.4 Attribute operations
    // =====================================================================

    /// `getAttributes: Context × Time → (Attribute × AttributeIndex)*`
    ///
    /// All attribute names (and their indices) that existed at `time`.
    pub fn get_attributes(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex)>> {
        self.read_core().get_attributes(context, time)
    }

    /// `getAttributeValues: Context × AttributeIndex × Time → Value*`
    ///
    /// The set of all values defined for the attribute at `time`, across
    /// all nodes and links.
    pub fn get_attribute_values(
        &self,
        context: ContextId,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Vec<Value>> {
        self.read_core().get_attribute_values(context, attr, time)
    }

    /// `getAttributeIndex: Context × Attribute → AttributeIndex`
    ///
    /// The unique identification for the attribute name, creating it if it
    /// does not exist.
    pub fn get_attribute_index(
        &mut self,
        context: ContextId,
        name: &str,
    ) -> Result<AttributeIndex> {
        if let Some(idx) = self.graph(context)?.attr_table.lookup(name) {
            return Ok(idx);
        }
        let name = name.to_string();
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let idx = graph.attribute_index(&name, clock);
            let time = graph.now();
            ham.push_redo(RedoOp::InternAttr {
                context,
                name,
                time,
            });
            Ok(idx)
        })
    }

    /// `setNodeAttributeValue: NodeIndex × AttributeIndex × Value →`
    ///
    /// Sets the attribute's value for the node, creating a new version of
    /// the attribute value. Triggers the `attributeChanged` demon.
    pub fn set_node_attribute_value(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        value: Value,
    ) -> Result<()> {
        let _span = neptune_obs::span!(
            "ham.set_node_attribute_value",
            "context {} node {}",
            context.0,
            node.0
        );
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let time = graph.set_node_attr(node, attr, value.clone(), clock)?;
            let name = ham.graph(context)?.attr_name(attr)?.to_string();
            ham.push_redo(RedoOp::SetNodeAttr {
                context,
                node,
                attr: name,
                value,
                time,
            });
            ham.fire(context, Event::AttributeChanged, Some(node), None)?;
            Ok(())
        })
    }

    /// `deleteNodeAttribute: NodeIndex × AttributeIndex →`
    ///
    /// Deletes the attribute's value for the node (the history remains
    /// queryable at earlier times). Triggers `attributeChanged`.
    pub fn delete_node_attribute(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
    ) -> Result<()> {
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let time = graph.delete_node_attr(node, attr, clock)?;
            let name = ham.graph(context)?.attr_name(attr)?.to_string();
            ham.push_redo(RedoOp::DeleteNodeAttr {
                context,
                node,
                attr: name,
                time,
            });
            ham.fire(context, Event::AttributeChanged, Some(node), None)?;
            Ok(())
        })
    }

    /// `getNodeAttributeValue: NodeIndex × AttributeIndex × Time → Value`
    pub fn get_node_attribute_value(
        &self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        self.read_core()
            .get_node_attribute_value(context, node, attr, time)
    }

    /// `getNodeAttributes: NodeIndex × Time → (Attribute × AttributeIndex × Value)*`
    pub fn get_node_attributes(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        self.read_core().get_node_attributes(context, node, time)
    }

    /// `setLinkAttributeValue: LinkIndex × AttributeIndex × Value →`
    pub fn set_link_attribute_value(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        value: Value,
    ) -> Result<()> {
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let time = graph.set_link_attr(link, attr, value.clone(), clock)?;
            let name = ham.graph(context)?.attr_name(attr)?.to_string();
            ham.push_redo(RedoOp::SetLinkAttr {
                context,
                link,
                attr: name,
                value,
                time,
            });
            ham.fire(context, Event::AttributeChanged, None, Some(link))?;
            Ok(())
        })
    }

    /// `deleteLinkAttribute: LinkIndex × AttributeIndex →`
    pub fn delete_link_attribute(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
    ) -> Result<()> {
        self.auto_txn(|ham| {
            let (graph, clock) = ham.write(context)?;
            let time = graph.delete_link_attr(link, attr, clock)?;
            let name = ham.graph(context)?.attr_name(attr)?.to_string();
            ham.push_redo(RedoOp::DeleteLinkAttr {
                context,
                link,
                attr: name,
                time,
            });
            ham.fire(context, Event::AttributeChanged, None, Some(link))?;
            Ok(())
        })
    }

    /// `getLinkAttributeValue: LinkIndex × AttributeIndex × Time → Value`
    pub fn get_link_attribute_value(
        &self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        self.read_core()
            .get_link_attribute_value(context, link, attr, time)
    }

    /// `getLinkAttributes: LinkIndex × Time → (Attribute × AttributeIndex × Value)*`
    pub fn get_link_attributes(
        &self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        self.read_core().get_link_attributes(context, link, time)
    }

    // =====================================================================
    // A.5 Demon operations
    // =====================================================================

    /// `setGraphDemonValue: Context × Event × Demon →`
    ///
    /// Sets the graph-level demon for `event` (a new version of the demon
    /// is created); `None` disables it.
    pub fn set_graph_demon_value(
        &mut self,
        context: ContextId,
        event: Event,
        demon: Option<DemonSpec>,
    ) -> Result<()> {
        self.auto_txn(|ham| {
            // A mark-node demon's attribute must exist for the demon to be
            // meaningful; intern it now rather than at first fire.
            if let Some(DemonSpec {
                action: DemonAction::MarkNode { attr, .. },
                ..
            }) = &demon
            {
                let attr = attr.clone();
                ham.get_attribute_index(context, &attr)?;
            }
            let (graph, clock) = ham.write(context)?;
            let time = graph.set_graph_demon(event, demon.clone(), clock);
            ham.push_redo(RedoOp::SetGraphDemon {
                context,
                event,
                demon,
                time,
            });
            Ok(())
        })
    }

    /// `getGraphDemons: Context × Time → (Event × Demon)*`
    pub fn get_graph_demons(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        self.read_core().get_graph_demons(context, time)
    }

    /// `setNodeDemon: NodeIndex × Event × Demon →`
    pub fn set_node_demon(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        event: Event,
        demon: Option<DemonSpec>,
    ) -> Result<()> {
        self.auto_txn(|ham| {
            ham.graph_mut(context)?.live_node(node, Time::CURRENT)?;
            if let Some(DemonSpec {
                action: DemonAction::MarkNode { attr, .. },
                ..
            }) = &demon
            {
                let attr = attr.clone();
                ham.get_attribute_index(context, &attr)?;
            }
            let (graph, clock) = ham.write(context)?;
            let time = graph.set_node_demon(node, event, demon.clone(), clock)?;
            ham.push_redo(RedoOp::SetNodeDemon {
                context,
                node,
                event,
                demon,
                time,
            });
            Ok(())
        })
    }

    /// `getNodeDemons: NodeIndex × Time → (Event × Demon)*`
    pub fn get_node_demons(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        self.read_core().get_node_demons(context, node, time)
    }

    /// Register a named Rust callback for `DemonAction::Call` demons — the
    /// §5 "parameterized demons … written in Smalltalk, Modula-2, or C".
    pub fn register_demon_callback<F>(&mut self, name: impl Into<String>, callback: F)
    where
        F: Fn(&DemonFireInfo) + Send + Sync + 'static,
    {
        self.registry.register(name, callback);
    }

    /// The journal of demon firings (notifications, missing callbacks).
    pub fn demon_journal(&self) -> &[FireRecord] {
        &self.journal
    }

    /// Clear the demon journal (e.g. between test phases).
    pub fn clear_demon_journal(&mut self) {
        self.journal.clear();
    }

    // =====================================================================
    // Transactions (paper §2.2)
    // =====================================================================

    /// Begin an explicit transaction bundling several primitive operations.
    pub fn begin_transaction(&mut self) -> Result<u64> {
        if self.txn.is_some() {
            return Err(HamError::TransactionState {
                reason: "transaction already active",
            });
        }
        #[cfg(feature = "strict-invariants")]
        self.assert_threads_published();
        let id = self.next_txn;
        self.next_txn += 1;
        self.txn = Some(ActiveTxn::new(id));
        Ok(id)
    }

    /// The precondition of [`Ham::rollback`]: nothing changed the machine's
    /// threads since the last publication, so every one of them is the very
    /// thread the published view holds.
    #[cfg(feature = "strict-invariants")]
    fn assert_threads_published(&self) {
        let view = self.published.load();
        let published = view.threads();
        let same = |(id, thread): (&ContextId, &Arc<GraphThread>)| {
            published.get(id).is_some_and(|p| Arc::ptr_eq(thread, p))
        };
        assert!(
            self.threads.len() == published.len() && self.threads.iter().all(same),
            "strict-invariants violated at begin_transaction: threads differ from the published view"
        );
    }

    /// Commit the active transaction: its operations become durable (the
    /// WAL is forced) before this returns.
    pub fn commit_transaction(&mut self) -> Result<()> {
        let _span = neptune_obs::span!("ham.commit_transaction");
        let txn = self.txn.take().ok_or(HamError::TransactionState {
            reason: "no active transaction",
        })?;
        if txn.redo.is_empty() {
            // Nothing to log, so nothing may stay changed either (a failed
            // op may have copied a thread); nor may a coordinator-forced
            // sequence outlive the commit it was meant for.
            self.rollback();
            count("neptune_ham_txn_commits_total", 1);
            return Ok(());
        }
        if let Err(e) = self.log_txn(&txn) {
            // The commit never became durable (or its durability is
            // unknown and the WAL has poisoned itself). Roll the in-memory
            // state back so what readers see matches what recovery will
            // reconstruct — returning the error while keeping the changes
            // would leave the machine serving state that a crash loses.
            self.rollback();
            count("neptune_ham_txn_commit_failures_total", 1);
            return Err(e.into());
        }
        #[cfg(feature = "strict-invariants")]
        self.assert_strict_invariants("commit_transaction");
        count("neptune_ham_txn_commits_total", 1);
        for op in &txn.redo {
            if let RedoOp::ChangeProtection {
                context: MAIN_CONTEXT,
                node,
                protections,
            } = op
            {
                self.mirror_protection(*node, *protections);
            }
        }
        // The commit is durable; hand the new state to lock-free readers.
        self.publish_view();
        Ok(())
    }

    /// Carry a committed `changeNodeProtection` on a MAIN node through to
    /// the file storing its contents — protections carry no version time,
    /// so the watermark cannot see them. Runs only once the change is
    /// durable (live commit, or WAL replay), so an abort or a crash before
    /// the commit leaves the file alone. A node without a blob was created
    /// past the watermark and gets its mode with its first put. A failed
    /// chmod cannot fail a commit that is already durable; it resets the
    /// watermark so the next checkpoint repairs the mirror.
    fn mirror_protection(&mut self, node: NodeIndex, protections: Protections) {
        if self.blobs.contains(node.0) && self.blobs.set_protections(node.0, protections).is_err() {
            self.mirrored_through = Time(0);
        }
    }

    /// Append a transaction's records — one write — and force the commit to
    /// disk — one sync. The commit record is stamped with the next global
    /// commit sequence (or a coordinator-forced one for cross-shard
    /// transactions); the sequence becomes `last_seq` — and visible to
    /// readers — only once durable.
    fn log_txn(&mut self, txn: &ActiveTxn) -> neptune_storage::Result<()> {
        let seq = match self.forced_seq.take() {
            Some(seq) => seq,
            None => self.commit_seq.fetch_add(1, atomic::Ordering::Relaxed) + 1,
        };
        self.wal
            .append_transaction(txn.id, &txn.redo, &seq.to_le_bytes())?;
        self.last_seq = seq;
        Ok(())
    }

    /// With the `strict-invariants` feature, every commit and checkpoint
    /// re-verifies the integrity rules the `neptune-check` crate reports on
    /// and panics on the first violation — a debug harness for catching
    /// corruption at the operation that introduces it.
    #[cfg(feature = "strict-invariants")]
    fn assert_strict_invariants(&self, site: &str) {
        if self.replaying {
            return; // replay re-applies ops one at a time; check at the end
        }
        let violations = crate::invariants::ham_violations(self);
        assert!(
            violations.is_empty(),
            "strict-invariants violated at {site}: {violations:?}"
        );
    }

    /// Abort the active transaction: the machine returns to the last
    /// published view, its state at transaction start ("complete recovery
    /// from any aborted transaction").
    pub fn abort_transaction(&mut self) -> Result<()> {
        let _span = neptune_obs::span!("ham.abort_transaction");
        self.txn.take().ok_or(HamError::TransactionState {
            reason: "no active transaction",
        })?;
        count("neptune_ham_txn_aborts_total", 1);
        self.rollback();
        Ok(())
    }

    /// Undo everything a transaction did in memory (shared by explicit
    /// aborts and failed or empty commits). Every commit publishes the
    /// threads it leaves, so the published view holds exactly the state the
    /// transaction started from; its writes went to copies the view never
    /// shared, and are dropped with the machine's threads. Nothing else a
    /// transaction can change needs undoing: the context and transaction
    /// id counters only move forward, so those ids are never reused, and
    /// the demon journal records firings, not state (DESIGN.md §9).
    fn rollback(&mut self) {
        // A commit the WAL refused must not leak its forced sequence into
        // a later unrelated commit.
        self.forced_seq = None;
        self.threads = self.published.load().threads().clone();
    }

    /// Whether a transaction is currently active.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Fold the WAL into an atomic snapshot: after this, recovery starts
    /// from the snapshot instead of replaying history. Also brings the
    /// per-node files up to date: each main-context node that changed since
    /// the last completed checkpoint has its current contents written to
    /// its file with the node's protections (the paper's file-per-node
    /// storage model). A machine with nothing to fold and nothing to mirror
    /// returns without touching the disk.
    ///
    /// Ordering is the durability contract (DESIGN.md §12): every side
    /// effect — the snapshot, the blob mirror, and their fsyncs — completes
    /// *before* [`Wal::checkpoint`] truncates the log. An error before the
    /// truncation is recoverable (the old snapshot + full log still
    /// describe the complete state); the truncation itself is the point of
    /// no return. The snapshot embeds the LSN boundary it folded, so a
    /// crash after the snapshot rename but before the truncation cannot
    /// double-apply replayed transactions.
    ///
    /// A shard whose commits other shards' logs still name as fork parents
    /// by reference refuses with [`HamError::UnfoldedForkRefs`]: folding
    /// would lose the parent as it stood at those forks.
    /// [`crate::shard::ShardedHam::checkpoint`] folds those shards first.
    pub fn checkpoint(&mut self) -> Result<()> {
        let _span = neptune_obs::span!("ham.checkpoint");
        if self.txn.is_some() {
            return Err(HamError::TransactionState {
                reason: "cannot checkpoint inside a transaction",
            });
        }
        // Every record is folded and MAIN's newest time has not passed the
        // watermark, so no node version can postdate the mirror either:
        // snapshot, blobs and log already say what a checkpoint would write.
        if self.wal.is_folded() && self.threads[&MAIN_CONTEXT].graph.now() <= self.mirrored_through
        {
            count("neptune_ham_checkpoint_skipped_total", 1);
            return Ok(());
        }
        let holders = self.fork_refs.holders(self.shard.0 as usize);
        if holders != 0 {
            return Err(HamError::UnfoldedForkRefs { holders });
        }
        match self.checkpoint_side_effects() {
            Ok(through) => self.mirrored_through = through,
            Err(e) => {
                // Recoverable: the WAL is untouched, so reopening replays
                // the full log over whichever snapshot generation survived,
                // and the watermark has not moved, so a retry re-mirrors
                // whatever this attempt did not finish.
                count("neptune_ham_checkpoint_failures_total", 1);
                return Err(e);
            }
        }
        if let Err(e) = self.wal.checkpoint() {
            // The WAL poisons itself; the durable state stays consistent
            // either way because the new snapshot's boundary LSN already
            // covers everything the old log contains.
            count("neptune_ham_checkpoint_failures_total", 1);
            return Err(e.into());
        }
        // The log is folded: no fork reference it held is needed any more.
        self.fork_refs.release(self.shard.0 as usize);
        #[cfg(feature = "strict-invariants")]
        self.assert_strict_invariants("checkpoint");
        Ok(())
    }

    /// Everything a checkpoint must make durable before the WAL truncates:
    /// the snapshot (which carries the fold boundary) and the per-node blob
    /// mirror of every node past the watermark, ending with one directory
    /// fsync over the blobs. Returns the watermark the mirror now reaches.
    fn checkpoint_side_effects(&self) -> Result<Time> {
        // Highest LSN currently in the log: all of it is folded into this
        // snapshot, so recovery must skip records at or below it.
        let boundary_lsn = self.wal.next_lsn() - 1;
        let bytes = encode_store_state(
            boundary_lsn,
            self.next_context,
            self.next_txn,
            self.last_seq,
            &self.threads,
        );
        write_snapshot_with(
            self.vfs.as_ref(),
            self.directory.join(SNAPSHOT_FILE),
            &bytes,
        )?;
        // Mirror current node contents to per-node files.
        let main = &self.threads[&MAIN_CONTEXT].graph;
        let through = main.now();
        let past = |t: Time| t > self.mirrored_through;
        let (mut written, mut skipped, mut out_bytes) = (0u64, 0u64, bytes.len() as u64);
        for node in main.nodes() {
            let alive = node.exists_at(Time::CURRENT);
            if !past(node.current_time()) && !node.alive.last_change_time().is_some_and(past) {
                skipped += u64::from(alive);
            } else if alive {
                let contents = node.contents_at(Time::CURRENT)?;
                self.blobs.put(node.id.0, &contents)?;
                self.blobs.set_protections(node.id.0, node.protections)?;
                written += 1;
                out_bytes += contents.len() as u64;
            } else if self.blobs.contains(node.id.0) {
                self.blobs.delete(node.id.0)?;
            }
        }
        self.blobs.sync_root()?;
        count("neptune_ham_checkpoint_blobs_written_total", written);
        count("neptune_ham_checkpoint_blobs_skipped_total", skipped);
        count("neptune_ham_checkpoint_bytes_total", out_bytes);
        Ok(through)
    }

    // =====================================================================
    // Contexts: multiple version threads (paper §5)
    // =====================================================================

    /// Fork a new context ("private world") from `from`, sharing all its
    /// history up to now.
    pub fn create_context(&mut self, from: ContextId) -> Result<ContextId> {
        let id = ContextId(self.next_context);
        self.create_context_as(id, from)?;
        Ok(id)
    }

    /// [`Ham::create_context`] with a caller-assigned id: a
    /// [`crate::shard::ShardedHam`] allocates context ids globally (so a
    /// context's home shard is a pure function of its id) and hands each
    /// shard the id to use. `id` must be at least this machine's next free
    /// id; the internal allocator is advanced past it.
    pub fn create_context_as(&mut self, id: ContextId, from: ContextId) -> Result<()> {
        let _span = neptune_obs::span!("ham.create_context", "from {}", from.0);
        self.auto_txn(|ham| {
            if ham.threads.contains_key(&id) {
                return Err(HamError::TransactionState {
                    reason: "context id already in use",
                });
            }
            let graph = ham.thread(from)?.graph.clone();
            let fork_time = ham.clock_now();
            ham.install_fork(id, from, fork_time, graph);
            ham.push_redo(RedoOp::CreateContext {
                id,
                from,
                time: fork_time,
            });
            Ok(())
        })
    }

    /// Merge the changes made in `child` since its fork back into its
    /// parent context. The child remains usable afterwards (re-forked from
    /// the merge point).
    pub fn merge_context(
        &mut self,
        child: ContextId,
        policy: ConflictPolicy,
    ) -> Result<MergeReport> {
        let _span = neptune_obs::span!("ham.merge_context", "child {}", child.0);
        let (parent_id, fork_time) =
            self.thread(child)?
                .forked_from
                .ok_or(HamError::TransactionState {
                    reason: "cannot merge the main context",
                })?;
        self.auto_txn(|ham| {
            let child_graph = ham.thread(child)?.graph.clone();
            let (parent, clock) = ham.write(parent_id)?;
            let time = clock.stamp();
            let report = merge_context(parent, &child_graph, fork_time, policy, time)?;
            count_conflicts(&report);
            if let Some(thread) = ham.threads.get_mut(&child) {
                Arc::make_mut(thread).forked_from = Some((parent_id, time));
            }
            ham.push_redo(RedoOp::MergeContext {
                child,
                into: parent_id,
                policy: policy_tag(policy),
                time: Some(time),
            });
            Ok(report)
        })
    }

    /// Discard a context and its private history.
    pub fn destroy_context(&mut self, id: ContextId) -> Result<()> {
        let _span = neptune_obs::span!("ham.destroy_context", "context {}", id.0);
        if id == MAIN_CONTEXT {
            return Err(HamError::TransactionState {
                reason: "cannot destroy the main context",
            });
        }
        self.auto_txn(|ham| {
            ham.threads.remove(&id).ok_or(HamError::NoSuchContext(id))?;
            ham.push_redo(RedoOp::DestroyContext { id });
            Ok(())
        })
    }

    /// All live context ids (the main context first).
    pub fn contexts(&self) -> Vec<ContextId> {
        let mut ids: Vec<ContextId> = self.threads.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    // =====================================================================
    // Cross-shard context surgery (driven by `crate::shard::ShardedHam`)
    // =====================================================================
    //
    // A merge's records carry what they need (the parent half logs the
    // child's encoded delta), so they replay without consulting any other
    // shard. A fork onto a higher shard logs a reference instead
    // (`RedoOp::ForkRef`) and replays against the parent's shard as it
    // stood at the fork's commit: `ShardedHam::open_with` replays every
    // shard's commits merged by commit sequence. Every other cross-shard
    // fork logs the parent's whole graph (`RedoOp::AdoptContext`).

    /// A read-only export of `context`'s graph, cloned O(changes) thanks to
    /// the persistent node/link tries, with the store clock's value as the
    /// fork point. The coordinator hands it to another shard's
    /// [`Ham::adopt_context`] or [`Ham::merge_foreign`].
    pub(crate) fn export_graph(&self, context: ContextId) -> Result<(HamGraph, Time)> {
        Ok((self.thread(context)?.graph.clone(), self.clock_now()))
    }

    /// Adopt a context forked on another shard: install `graph` (the parent
    /// shard's export) as context `id`, forked from the foreign context
    /// `from` at `time`. With `by_reference` the record names the parent
    /// (`RedoOp::ForkRef`), and this shard holds a reference into the
    /// parent's shard until its own log is folded; otherwise it carries the
    /// encoded graph (`RedoOp::AdoptContext`).
    pub(crate) fn adopt_context(
        &mut self,
        id: ContextId,
        from: ContextId,
        time: Time,
        graph: HamGraph,
        by_reference: bool,
    ) -> Result<()> {
        let _span = neptune_obs::span!("ham.adopt_context", "context {}", id.0);
        self.auto_txn(|ham| {
            if ham.threads.contains_key(&id) {
                return Err(HamError::TransactionState {
                    reason: "context id already in use",
                });
            }
            let record = if by_reference {
                // Held before the record can become durable, and whatever
                // its commit's fate: a failed commit may still be on disk.
                let parent_shard = (from.0 % u64::from(ham.shard.1)) as usize;
                ham.fork_refs.hold(parent_shard, ham.shard.0 as usize);
                RedoOp::ForkRef { id, from, time }
            } else {
                let mut gw = Writer::new();
                graph.encode(&mut gw);
                RedoOp::AdoptContext {
                    id,
                    from,
                    time,
                    graph: gw.into_bytes(),
                }
            };
            ham.install_fork(id, from, time, graph);
            count_fork_record(by_reference);
            ham.push_redo(record);
            Ok(())
        })
    }

    /// Install `graph` as context `id`, forked from `from` at `time`.
    fn install_fork(&mut self, id: ContextId, from: ContextId, time: Time, graph: HamGraph) {
        self.next_context = self.next_context.max(id.0 + 1);
        self.threads
            .insert(id, GraphThread::shared(graph, Some((from, time))));
    }

    /// Whether a fork from a context of this shard may be logged by
    /// reference: every commit this shard acknowledged is durable and no
    /// transaction holds state the log does not. A poisoned log may hold a
    /// failed commit that recovery would replay before the fork.
    pub(crate) fn can_be_forked_by_reference(&self) -> bool {
        !self.wal.is_poisoned() && self.txn.is_none()
    }

    /// Merge a foreign (other-shard) child graph into local context `into`.
    /// The parent half of a cross-shard merge; the child shard separately
    /// re-forks via [`Ham::set_fork_point`]. Only the child's
    /// [`HamGraph::merge_delta`] against `into` is merged and logged, so
    /// the record costs the change since the fork, and replay merges the
    /// very graph the live path did. Returns the merge's time too: the
    /// child's new fork point.
    pub(crate) fn merge_foreign(
        &mut self,
        into: ContextId,
        child_graph: &HamGraph,
        fork_time: Time,
        policy: ConflictPolicy,
    ) -> Result<(MergeReport, Time)> {
        let _span = neptune_obs::span!("ham.merge_foreign", "into {}", into.0);
        self.auto_txn(|ham| {
            let delta = child_graph.merge_delta(ham.graph(into)?, fork_time);
            let (parent, clock) = ham.write(into)?;
            let time = clock.stamp();
            let report = merge_context(parent, &delta, fork_time, policy, time)?;
            count_conflicts(&report);
            let mut gw = Writer::new();
            delta.encode(&mut gw);
            ham.push_redo(RedoOp::MergeForeign {
                into,
                policy: policy_tag(policy),
                fork_time,
                time: Some(time),
                graph: gw.into_bytes(),
            });
            Ok((report, time))
        })
    }

    /// Rewrite `child`'s fork point to `(into, time)` — the child half of a
    /// cross-shard merge, after the parent shard folded the child in.
    pub(crate) fn set_fork_point(
        &mut self,
        child: ContextId,
        into: ContextId,
        time: Time,
    ) -> Result<()> {
        let _span = neptune_obs::span!("ham.set_fork_point", "context {}", child.0);
        self.auto_txn(|ham| {
            let thread = ham
                .threads
                .get_mut(&child)
                .ok_or(HamError::NoSuchContext(child))?;
            Arc::make_mut(thread).forked_from = Some((into, time));
            ham.push_redo(RedoOp::RefixFork { child, into, time });
            Ok(())
        })
    }

    /// The shared commit-sequence source and store clock (see
    /// [`Ham::attach_counters`]).
    pub(crate) fn counters(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (Arc::clone(&self.commit_seq), Arc::clone(&self.clock))
    }

    /// Rebind this machine to a shared commit-sequence source and store
    /// clock, raising each to at least this shard's own. Called once per
    /// shard when a [`crate::shard::ShardedHam`] assembles.
    pub(crate) fn attach_counters(&mut self, seq: Arc<AtomicU64>, clock: Arc<AtomicU64>) {
        seq.fetch_max(self.last_seq, atomic::Ordering::Relaxed);
        clock.fetch_max(self.clock_now().0, atomic::Ordering::Relaxed);
        self.commit_seq = seq;
        self.clock = clock;
    }

    /// The newest time the store clock has issued. A fork taken now, under
    /// its parent's shard lock, sees every time drawn for the parent's
    /// versions (each drawn under that lock), and every later version
    /// anywhere is past it.
    pub(crate) fn clock_now(&self) -> Time {
        Time(self.clock.load(atomic::Ordering::Relaxed))
    }

    /// Sequence stamped into the most recent durable commit (0 before any).
    pub fn last_commit_seq(&self) -> u64 {
        self.last_seq
    }

    /// Pre-assign the sequence for the next commit. Used by the cross-shard
    /// coordinator so every participant of one logical transaction stamps
    /// the same sequence; consumed (or discarded on rollback) by that
    /// commit.
    pub(crate) fn force_commit_seq(&mut self, seq: u64) {
        self.forced_seq = Some(seq);
    }

    /// Declare this machine shard `index` of `count` (invariant rules use
    /// this to recognize legitimately-foreign fork parents), sharing the
    /// store's fork-reference table with its other shards.
    pub(crate) fn set_shard_identity(
        &mut self,
        index: usize,
        count: usize,
        fork_refs: Arc<ForkRefs>,
    ) {
        self.shard = (index as u32, count as u32);
        self.fork_refs = fork_refs;
    }

    /// This machine's shard identity `(index, count)`; `(0, 1)` unsharded.
    pub(crate) fn shard_identity(&self) -> (u32, u32) {
        self.shard
    }

    /// The next context id this machine would allocate on its own.
    pub(crate) fn next_context_hint(&self) -> u64 {
        self.next_context
    }

    /// The next transaction id this machine would hand out — the sharded
    /// coordinator seeds its logical transaction counter above every
    /// shard's, so ids it returns never collide with persisted ones.
    pub(crate) fn next_txn_hint(&self) -> u64 {
        self.next_txn
    }

    /// Re-publish the current committed state; used after
    /// [`crate::shard::ShardedHam`] assembly rebinds shard identity and the
    /// commit-sequence source, both of which are stamped into views.
    pub(crate) fn republish(&mut self) {
        self.publish_view();
    }

    // =====================================================================
    // Introspection
    // =====================================================================

    /// The graph's project id.
    pub fn project_id(&self) -> ProjectId {
        self.project_id
    }

    /// The graph directory.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// Read-only access to a context's graph (for tools, browsers, tests).
    pub fn graph(&self, context: ContextId) -> Result<&HamGraph> {
        self.threads
            .get(&context)
            .map(|t| &t.graph)
            .ok_or(HamError::NoSuchContext(context))
    }

    // =====================================================================
    // Committed-snapshot publication (lock-free read path)
    // =====================================================================

    /// The live-state read core: every inherent read method funnels
    /// through this, sharing its implementation with [`CommittedView`].
    fn read_core(&self) -> ReadCore<'_> {
        ReadCore {
            threads: &self.threads,
        }
    }

    /// Invariant checkers (same crate) walk the raw threads.
    pub(crate) fn threads(&self) -> &Threads {
        &self.threads
    }

    /// The publication handle lock-free readers load snapshots from.
    /// Servers clone this once and call [`Published::load`] per read.
    pub fn published_handle(&self) -> Arc<Published<CommittedView>> {
        Arc::clone(&self.published)
    }

    /// The currently published committed snapshot (what a lock-free reader
    /// loading right now would see).
    pub fn committed_view(&self) -> Arc<CommittedView> {
        self.published.load()
    }

    /// Build a snapshot of the current committed state and install it as
    /// the published view. Called after every durable commit and at the
    /// end of recovery. Costs one refcount bump per context, whatever the
    /// contexts hold and whatever the commit changed: the copying a commit
    /// pays for happened when it wrote (DESIGN.md §9).
    fn publish_view(&mut self) {
        static PUBLISH_NS: OnceLock<Arc<neptune_obs::Histogram>> = OnceLock::new();
        static EPOCH: OnceLock<Arc<neptune_obs::Gauge>> = OnceLock::new();
        let start = std::time::Instant::now();
        self.view_epoch += 1;
        let view = CommittedView::new(
            self.view_epoch,
            self.last_seq,
            self.shard,
            &self.threads,
            self.directory.clone(),
        );
        self.published.publish(view);
        if neptune_obs::enabled() {
            let registry = neptune_obs::registry();
            PUBLISH_NS
                .get_or_init(|| registry.histogram("neptune_ham_snapshot_publish_ns"))
                .observe_duration(start.elapsed());
            EPOCH
                .get_or_init(|| registry.gauge("neptune_ham_snapshot_epoch"))
                .set(self.view_epoch.min(i64::MAX as u64) as i64);
        }
    }

    /// Where `context` was forked from: `(parent, store clock at fork)`,
    /// or `None` for the main context. Integrity checkers use this to
    /// verify the context-partition topology.
    pub fn context_forked_from(&self, context: ContextId) -> Result<Option<(ContextId, Time)>> {
        self.threads
            .get(&context)
            .map(|t| t.forked_from)
            .ok_or(HamError::NoSuchContext(context))
    }

    // =====================================================================
    // Internals
    // =====================================================================

    fn thread(&self, context: ContextId) -> Result<&GraphThread> {
        self.threads
            .get(&context)
            .map(|t| &**t)
            .ok_or(HamError::NoSuchContext(context))
    }

    fn graph_mut(&mut self, context: ContextId) -> Result<&mut HamGraph> {
        Ok(self.write(context)?.0)
    }

    /// `context`'s graph for writing, and the store clock the write draws
    /// its time from.
    fn write(&mut self, context: ContextId) -> Result<(&mut HamGraph, &AtomicU64)> {
        let thread = self
            .threads
            .get_mut(&context)
            .ok_or(HamError::NoSuchContext(context))?;
        Ok((&mut Arc::make_mut(thread).graph, &self.clock))
    }

    fn push_redo(&mut self, op: RedoOp) {
        if self.replaying {
            return;
        }
        if let Some(txn) = &mut self.txn {
            txn.redo.push(op);
        }
    }

    /// Run `f` inside the active transaction, or wrap it in a single-op
    /// transaction (begin/commit, abort on error) if none is active.
    fn auto_txn<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.replaying || self.txn.is_some() {
            return f(self);
        }
        self.begin_transaction()?;
        match f(self) {
            Ok(v) => {
                self.commit_transaction()?;
                Ok(v)
            }
            Err(e) => {
                let _ = self.abort_transaction();
                Err(e)
            }
        }
    }

    /// Whether any demon is registered for `event` (graph-level, or on the
    /// specific node).
    fn demon_registered(&self, context: ContextId, event: Event, node: Option<NodeIndex>) -> bool {
        let Ok(graph) = self.graph(context) else {
            return false;
        };
        if graph.graph_demons.get(event, Time::CURRENT).is_some() {
            return true;
        }
        if let Some(node) = node {
            if let Ok(n) = graph.node(node) {
                return n.demons.get(event, Time::CURRENT).is_some();
            }
        }
        false
    }

    /// Fire graph-level and node-level demons for `event`.
    fn fire(
        &mut self,
        context: ContextId,
        event: Event,
        node: Option<NodeIndex>,
        link: Option<LinkIndex>,
    ) -> Result<()> {
        if self.in_demon || self.replaying {
            return Ok(());
        }
        let graph = self.graph(context)?;
        let mut demons: Vec<DemonSpec> = Vec::new();
        if let Some(d) = graph.graph_demons.get(event, Time::CURRENT) {
            demons.push(d.clone());
        }
        if let Some(node_id) = node {
            if let Ok(n) = graph.node(node_id) {
                if let Some(d) = n.demons.get(event, Time::CURRENT) {
                    demons.push(d.clone());
                }
            }
        }
        if demons.is_empty() {
            return Ok(());
        }
        if neptune_obs::enabled() {
            // Demon firings are rare enough that the per-event key lookup
            // is fine here.
            neptune_obs::registry()
                .counter(&neptune_obs::labeled(
                    "neptune_ham_demon_firings_total",
                    "event",
                    &event.to_string(),
                ))
                .add(demons.len() as u64);
        }
        let info = DemonFireInfo {
            event,
            time: graph.now(),
            node,
            link,
        };
        for demon in demons {
            match &demon.action {
                DemonAction::Notify(message) => {
                    self.journal.push(FireRecord {
                        demon: demon.name.clone(),
                        info: info.clone(),
                        message: Some(message.clone()),
                    });
                }
                DemonAction::MarkNode { attr, value } => {
                    if let Some(node_id) = node {
                        let attr_idx = {
                            self.in_demon = true;
                            let r = self.get_attribute_index(context, attr);
                            self.in_demon = false;
                            r?
                        };
                        self.in_demon = true;
                        let result = self.set_node_attribute_value(
                            context,
                            node_id,
                            attr_idx,
                            value.clone(),
                        );
                        self.in_demon = false;
                        result?;
                    }
                    self.journal.push(FireRecord {
                        demon: demon.name.clone(),
                        info: info.clone(),
                        message: None,
                    });
                }
                DemonAction::Call(callback) => match self.registry.get(callback).cloned() {
                    Some(cb) => {
                        self.in_demon = true;
                        cb(&info);
                        self.in_demon = false;
                        self.journal.push(FireRecord {
                            demon: demon.name.clone(),
                            info: info.clone(),
                            message: None,
                        });
                    }
                    None => {
                        self.journal.push(FireRecord {
                            demon: demon.name.clone(),
                            info: info.clone(),
                            message: Some(format!("no callback registered for '{callback}'")),
                        });
                    }
                },
            }
        }
        Ok(())
    }

    /// Apply a logged operation during recovery: each op records the time
    /// the log assigned it. `parent(context, from)` resolves a fork logged
    /// by reference to the parent's graph at the fork.
    fn apply_redo(
        &mut self,
        op: RedoOp,
        parent: &mut dyn FnMut(ContextId, ContextId) -> Result<HamGraph>,
    ) -> Result<()> {
        match op {
            RedoOp::AddNode {
                context,
                id,
                time,
                keep_history,
            } => {
                // Replay allocates ids as the live operation did; a log
                // naming another describes some other history.
                let (got, _) = self.graph_mut(context)?.add_node(keep_history, time);
                if got != id {
                    return Err(HamError::NoSuchNode(id));
                }
            }
            RedoOp::DeleteNode { context, id, time } => {
                self.graph_mut(context)?.delete_node(id, time)?;
            }
            RedoOp::AddLink {
                context,
                id,
                from,
                to,
                time,
            } => {
                let (got, _) = self.graph_mut(context)?.add_link(from, to, time)?;
                if got != id {
                    return Err(HamError::NoSuchLink(id));
                }
            }
            RedoOp::DeleteLink { context, id, time } => {
                self.graph_mut(context)?.delete_link(id, time)?;
            }
            RedoOp::ModifyNode {
                context,
                id,
                contents,
                link_pts,
                time,
            } => {
                apply_modify_node(
                    self.graph_mut(context)?,
                    id,
                    None,
                    contents,
                    &link_pts,
                    time,
                )?;
            }
            RedoOp::SetNodeAttr {
                context,
                node,
                attr,
                value,
                time,
            } => {
                let g = self.graph_mut(context)?;
                // An earlier InternAttr record interned the name.
                let idx = g.attribute_index(&attr, time);
                g.set_node_attr(node, idx, value, time)?;
            }
            RedoOp::DeleteNodeAttr {
                context,
                node,
                attr,
                time,
            } => {
                let g = self.graph_mut(context)?;
                let idx = g.attribute_index(&attr, time);
                g.delete_node_attr(node, idx, time)?;
            }
            RedoOp::SetLinkAttr {
                context,
                link,
                attr,
                value,
                time,
            } => {
                let g = self.graph_mut(context)?;
                let idx = g.attribute_index(&attr, time);
                g.set_link_attr(link, idx, value, time)?;
            }
            RedoOp::DeleteLinkAttr {
                context,
                link,
                attr,
                time,
            } => {
                let g = self.graph_mut(context)?;
                let idx = g.attribute_index(&attr, time);
                g.delete_link_attr(link, idx, time)?;
            }
            RedoOp::InternAttr {
                context,
                name,
                time,
            } => {
                self.graph_mut(context)?.attribute_index(&name, time);
            }
            RedoOp::SetGraphDemon {
                context,
                event,
                demon,
                time,
            } => {
                self.graph_mut(context)?.set_graph_demon(event, demon, time);
            }
            RedoOp::SetNodeDemon {
                context,
                node,
                event,
                demon,
                time,
            } => {
                self.graph_mut(context)?
                    .set_node_demon(node, event, demon, time)?;
            }
            RedoOp::ChangeProtection {
                context,
                node,
                protections,
            } => {
                self.graph_mut(context)?.node_mut(node)?.protections = protections;
                if context == MAIN_CONTEXT {
                    self.mirror_protection(node, protections);
                }
            }
            RedoOp::CreateContext { id, from, time } => {
                let graph = self.thread(from)?.graph.clone();
                self.install_fork(id, from, time, graph);
            }
            RedoOp::MergeContext {
                child,
                into,
                policy,
                time,
            } => {
                let (parent_id, fork_time) = self
                    .thread(child)?
                    .forked_from
                    .ok_or(HamError::NoSuchContext(child))?;
                debug_assert_eq!(parent_id, into);
                let child_graph = self.thread(child)?.graph.clone();
                let parent = self.graph_mut(into)?;
                let time = time.unwrap_or(Time(parent.now().0 + 1));
                merge_context(
                    parent,
                    &child_graph,
                    fork_time,
                    policy_from_tag(policy),
                    time,
                )?;
                if let Some(thread) = self.threads.get_mut(&child) {
                    Arc::make_mut(thread).forked_from = Some((into, time));
                }
            }
            RedoOp::DestroyContext { id } => {
                self.threads.remove(&id);
            }
            RedoOp::AdoptContext {
                id,
                from,
                time,
                graph,
            } => {
                // The record carries the encoded parent graph, so replay
                // never consults the (foreign) parent shard.
                let mut r = Reader::new(&graph);
                let graph = HamGraph::decode(&mut r)?;
                self.install_fork(id, from, time, graph);
            }
            RedoOp::ForkRef { id, from, time } => {
                // The parent as its shard stood at this record's commit: a
                // clone of persistent tries, O(1).
                let graph = parent(id, from)?;
                self.install_fork(id, from, time, graph);
            }
            RedoOp::MergeForeign {
                into,
                policy,
                fork_time,
                time,
                graph,
            } => {
                let mut r = Reader::new(&graph);
                let child_graph = HamGraph::decode(&mut r)?;
                let parent = self.graph_mut(into)?;
                let time = time.unwrap_or(Time(parent.now().0 + 1));
                merge_context(
                    parent,
                    &child_graph,
                    fork_time,
                    policy_from_tag(policy),
                    time,
                )?;
            }
            RedoOp::RefixFork { child, into, time } => {
                let thread = self
                    .threads
                    .get_mut(&child)
                    .ok_or(HamError::NoSuchContext(child))?;
                Arc::make_mut(thread).forked_from = Some((into, time));
            }
        }
        Ok(())
    }

    fn write_meta(&self) -> Result<()> {
        let mut w = Writer::new();
        self.project_id.encode(&mut w);
        self.protections.encode(&mut w);
        w.put_u64(self.next_context);
        w.put_u64(self.next_txn);
        write_snapshot_with(
            self.vfs.as_ref(),
            self.directory.join(META_FILE),
            w.as_slice(),
        )?;
        Ok(())
    }
}

/// Add `n` to a registry counter, when metrics are on.
pub(crate) fn count(key: &str, n: u64) {
    if neptune_obs::enabled() {
        neptune_obs::registry().counter(key).add(n);
    }
}

/// Count a cross-shard fork's record by kind: a reference, or the
/// parent's whole graph.
fn count_fork_record(by_reference: bool) {
    if neptune_obs::enabled() {
        let kind = if by_reference { "reference" } else { "graph" };
        neptune_obs::registry()
            .counter(&neptune_obs::labeled(
                "neptune_ham_fork_records_total",
                "kind",
                kind,
            ))
            .inc();
    }
}

fn count_conflicts(report: &MergeReport) {
    if !report.conflicts.is_empty() {
        count(
            "neptune_ham_merge_conflicts_total",
            report.conflicts.len() as u64,
        );
    }
}

fn policy_tag(p: ConflictPolicy) -> u8 {
    match p {
        ConflictPolicy::Fail => 0,
        ConflictPolicy::PreferChild => 1,
        ConflictPolicy::PreferParent => 2,
    }
}

fn policy_from_tag(tag: u8) -> ConflictPolicy {
    match tag {
        1 => ConflictPolicy::PreferChild,
        2 => ConflictPolicy::PreferParent,
        _ => ConflictPolicy::Fail,
    }
}

fn read_meta(vfs: &dyn Vfs, directory: &Path) -> Result<(ProjectId, Protections, u64, u64)> {
    let bytes = read_snapshot_with(vfs, directory.join(META_FILE))?;
    let mut r = Reader::new(&bytes);
    let pid = ProjectId::decode(&mut r)?;
    let protections = decode_protections(&mut r)?;
    let next_context = r.get_u64()?;
    let next_txn = r.get_u64()?;
    Ok((pid, protections, next_context, next_txn))
}

/// State decoded from a snapshot: the WAL fold boundary, allocator
/// counters, and every context thread.
struct StoreState {
    /// Highest LSN folded into this snapshot; recovery skips WAL records
    /// at or below it (closes the snapshot-renamed-but-WAL-not-yet-
    /// truncated double-apply window).
    boundary_lsn: u64,
    next_context: u64,
    next_txn: u64,
    /// Commit sequence of the last transaction folded into this snapshot
    /// (v2 snapshots only; v1 decodes as 0).
    last_seq: u64,
    /// Whether the snapshot is in the format checkpoints write today; a
    /// legacy one migrates at the next checkpoint.
    current_format: bool,
    threads: Threads,
}

/// v2 snapshots open with this sentinel where v1 stored `boundary_lsn`.
/// An LSN can never reach it (the WAL would overflow first), so the first
/// u64 unambiguously selects the format.
const STORE_STATE_SENTINEL: u64 = u64::MAX;
const STORE_STATE_VERSION: u8 = 2;

fn encode_store_state(
    boundary_lsn: u64,
    next_context: u64,
    next_txn: u64,
    last_seq: u64,
    threads: &Threads,
) -> Vec<u8> {
    let mut ids: Vec<ContextId> = threads.keys().copied().collect();
    ids.sort_unstable();
    let mut w = Writer::new();
    w.put_u64(STORE_STATE_SENTINEL);
    w.put_u8(STORE_STATE_VERSION);
    w.put_u64(boundary_lsn);
    w.put_u64(next_context);
    w.put_u64(next_txn);
    w.put_u64(last_seq);
    w.put_u64(ids.len() as u64);
    for id in ids {
        let t = &threads[&id];
        id.encode(&mut w);
        t.forked_from.encode(&mut w);
        t.graph.encode(&mut w);
    }
    w.into_bytes()
}

fn decode_store_state(bytes: &[u8]) -> Result<StoreState> {
    let mut r = Reader::new(bytes);
    let first = r.get_u64()?;
    let current_format = first == STORE_STATE_SENTINEL;
    let (boundary_lsn, last_seq) = if current_format {
        let version = r.get_u8()?;
        if version != STORE_STATE_VERSION {
            return Err(HamError::Storage(
                neptune_storage::StorageError::BadFileHeader {
                    context: "store snapshot: unknown version",
                },
            ));
        }
        let boundary_lsn = r.get_u64()?;
        // next_context / next_txn read below, shared with v1.
        (boundary_lsn, None)
    } else {
        // v1: the first u64 *was* boundary_lsn; no sequence persisted.
        (first, Some(0))
    };
    let next_context = r.get_u64()?;
    let next_txn = r.get_u64()?;
    let last_seq = match last_seq {
        Some(s) => s,
        None => r.get_u64()?,
    };
    let count = r.get_u64()? as usize;
    let mut threads = HashMap::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        let id = ContextId::decode(&mut r)?;
        let forked_from = Option::<(ContextId, Time)>::decode(&mut r)?;
        let graph = HamGraph::decode(&mut r)?;
        threads.insert(id, GraphThread::shared(graph, forked_from));
    }
    Ok(StoreState {
        boundary_lsn,
        next_context,
        next_txn,
        last_seq,
        current_format,
        threads,
    })
}

/// Generate a fresh project id: unique per creation, stable thereafter
/// (persisted in the graph's meta file).
fn fresh_project_id(directory: &Path) -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut h = RandomState::new().build_hasher();
    h.write(directory.as_os_str().as_encoded_bytes());
    let v = h.finish();
    if v == 0 {
        1
    } else {
        v
    }
}

/// Canonical attachment list for a node at a version: every live incident
/// endpoint visible on that version, ordered by (link index, from-end
/// first). Returns `(link, is_to_end, LinkPt)`.
pub(crate) fn canonical_attachments(
    graph: &HamGraph,
    node: NodeIndex,
    time: Time,
) -> Result<Vec<(LinkIndex, bool, LinkPt)>> {
    let n = graph.node(node)?;
    let version = n.resolve_content_time(time)?;
    let mut out = Vec::new();
    let mut link_ids = n.incident_links.clone();
    link_ids.sort_unstable();
    for link_id in link_ids {
        let link = graph.link(link_id)?;
        if !link.exists_at(time) {
            continue;
        }
        for (is_to, end) in [(false, &link.from), (true, &link.to)] {
            if end.node != node {
                continue;
            }
            if end.track_current {
                if let Some(pt) = end.linkpt_at(time) {
                    out.push((link_id, is_to, pt));
                }
            } else {
                // Pinned attachments belong to exactly one version.
                let pinned_version = n.resolve_content_time(end.pinned_time)?;
                if pinned_version == version {
                    if let Some(pt) = end.linkpt_at(time) {
                        out.push((link_id, is_to, pt));
                    }
                }
            }
        }
    }
    Ok(out)
}

pub(crate) fn endpoint_version(
    graph: &HamGraph,
    end: &crate::link::Endpoint,
    time1: Time,
) -> Result<(NodeIndex, Time)> {
    let node = graph.node(end.node)?;
    let version = if end.track_current {
        node.resolve_content_time(time1)?
    } else {
        node.resolve_content_time(end.pinned_time)?
    };
    Ok((end.node, version))
}

pub(crate) fn resolve_attr_names(
    graph: &HamGraph,
    pairs: Vec<(AttributeIndex, Value)>,
) -> Vec<(String, AttributeIndex, Value)> {
    pairs
        .into_iter()
        .filter_map(|(idx, value)| {
            graph
                .attr_table
                .name(idx)
                .map(|name| (name.to_string(), idx, value))
        })
        .collect()
}

/// Shared implementation of `modifyNode` for live execution (with the
/// optimistic `expected_time` check) and WAL replay (check skipped).
fn apply_modify_node(
    graph: &mut HamGraph,
    node: NodeIndex,
    expected_time: Option<Time>,
    contents: Arc<[u8]>,
    link_pts: &[LinkPt],
    now: impl Stamp,
) -> Result<Time> {
    graph.live_node(node, Time::CURRENT)?;
    let current = graph.node(node)?.current_time();
    if let Some(expected) = expected_time {
        if expected != current {
            return Err(HamError::StaleVersion {
                node,
                given: expected,
                current,
            });
        }
    }
    let attachments = canonical_attachments(graph, node, Time::CURRENT)?;
    if attachments.len() != link_pts.len() {
        return Err(HamError::AttachmentMismatch {
            node,
            expected: attachments.len(),
            supplied: link_pts.len(),
        });
    }
    // Validate before mutating: supplied points must refer to this node and
    // may not move pinned attachments.
    for ((link_id, is_to, old_pt), new_pt) in attachments.iter().zip(link_pts) {
        if new_pt.node != node {
            return Err(HamError::BadEndpoint {
                node: new_pt.node,
                time: new_pt.time,
            });
        }
        if !old_pt.track_current && new_pt.position != old_pt.position {
            let _ = (link_id, is_to);
            return Err(HamError::AttachmentMismatch {
                node,
                expected: attachments.len(),
                supplied: link_pts.len(),
            });
        }
    }
    let now = graph.check_in(node, contents, now, "modifyNode")?;
    for ((link_id, is_to, old_pt), new_pt) in attachments.iter().zip(link_pts) {
        if old_pt.track_current && new_pt.position != old_pt.position {
            let link = graph.link_mut(*link_id)?;
            let end = if *is_to { &mut link.to } else { &mut link.from };
            end.move_to(new_pt.position, now);
            link.record_version(now, "attachment moved");
        }
    }
    Ok(now)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("neptune-ham-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fresh(name: &str) -> (Ham, ContextId) {
        let (ham, _, _) = Ham::create_graph(tmpdir(name), Protections::DEFAULT).unwrap();
        (ham, MAIN_CONTEXT)
    }

    #[test]
    fn create_open_destroy_graph() {
        let dir = tmpdir("lifecycle");
        let (ham, pid, created) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        assert_eq!(created, Time(1));
        drop(ham);
        let (ham, ctx) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
        assert_eq!(ctx, MAIN_CONTEXT);
        drop(ham);
        // Wrong pid is rejected.
        assert!(matches!(
            Ham::open_graph(ProjectId(pid.0.wrapping_add(1)), &Machine::local(), &dir),
            Err(HamError::ProjectMismatch { .. })
        ));
        Ham::destroy_graph(pid, &dir).unwrap();
        assert!(!dir.exists());
    }

    #[test]
    fn node_roundtrip_with_versions() {
        let (mut ham, ctx) = fresh("node-rt");
        let (n, t0) = ham.add_node(ctx, true).unwrap();
        let opened = ham.open_node(ctx, n, Time::CURRENT, &[]).unwrap();
        assert!(opened.contents.is_empty());
        assert_eq!(opened.current_time, t0);

        ham.modify_node(ctx, n, t0, b"first version\n".to_vec(), &[])
            .unwrap();
        let t1 = ham.get_node_time_stamp(ctx, n).unwrap();
        ham.modify_node(ctx, n, t1, b"second version\n".to_vec(), &[])
            .unwrap();

        assert_eq!(
            ham.open_node(ctx, n, Time::CURRENT, &[]).unwrap().contents[..],
            b"second version\n"[..]
        );
        assert_eq!(
            ham.open_node(ctx, n, t1, &[]).unwrap().contents[..],
            b"first version\n"[..]
        );

        // Stale modify is rejected.
        let err = ham.modify_node(ctx, n, t1, b"stale\n".to_vec(), &[]);
        assert!(matches!(err, Err(HamError::StaleVersion { .. })));

        let (major, _) = ham.get_node_versions(ctx, n).unwrap();
        assert_eq!(major.len(), 3);
        let diffs = ham.get_node_differences(ctx, n, t1, Time::CURRENT).unwrap();
        assert_eq!(diffs.len(), 1);
    }

    #[test]
    fn links_and_attachment_motion() {
        let (mut ham, ctx) = fresh("links");
        let (a, ta) = ham.add_node(ctx, true).unwrap();
        let (b, _) = ham.add_node(ctx, true).unwrap();
        ham.modify_node(ctx, a, ta, b"0123456789".to_vec(), &[])
            .unwrap();
        let (l, t_linked) = ham
            .add_link(ctx, LinkPt::current(a, 4), LinkPt::current(b, 0))
            .unwrap();

        // openNode reports the attachment.
        let opened = ham.open_node(ctx, a, Time::CURRENT, &[]).unwrap();
        assert_eq!(opened.link_pts.len(), 1);
        assert_eq!(opened.link_pts[0].position, 4);

        // modifyNode must account for it and can move it.
        let t = opened.current_time;
        let moved = LinkPt::current(a, 7);
        ham.modify_node(ctx, a, t, b"0123456789ABC".to_vec(), &[moved])
            .unwrap();
        let now_open = ham.open_node(ctx, a, Time::CURRENT, &[]).unwrap();
        assert_eq!(now_open.link_pts[0].position, 7);
        // At the time the link was added (before the move) the offset
        // history still shows the original attachment point.
        let old_open = ham.open_node(ctx, a, t_linked, &[]).unwrap();
        assert_eq!(old_open.link_pts[0].position, 4);
        // Before the link existed, the version had no attachments.
        let pre_link = ham.open_node(ctx, a, t, &[]).unwrap();
        assert!(pre_link.link_pts.is_empty());

        // Wrong arity is rejected.
        let err = ham.modify_node(ctx, a, now_open.current_time, b"x".to_vec(), &[]);
        assert!(matches!(err, Err(HamError::AttachmentMismatch { .. })));

        // getTo/FromNode.
        let (to, _) = ham.get_to_node(ctx, l, Time::CURRENT).unwrap();
        assert_eq!(to, b);
        let (from, _) = ham.get_from_node(ctx, l, Time::CURRENT).unwrap();
        assert_eq!(from, a);
    }

    #[test]
    fn copy_link_shares_one_end() {
        let (mut ham, ctx) = fresh("copylink");
        let (a, t) = ham.add_node(ctx, true).unwrap();
        ham.modify_node(ctx, a, t, b"source\n".to_vec(), &[])
            .unwrap();
        let (b, _) = ham.add_node(ctx, true).unwrap();
        let (c, t) = ham.add_node(ctx, true).unwrap();
        ham.modify_node(ctx, c, t, b"third\n".to_vec(), &[])
            .unwrap();
        let (l, _) = ham
            .add_link(ctx, LinkPt::current(a, 3), LinkPt::current(b, 0))
            .unwrap();
        // Keep the source, point to c.
        let (l2, _) = ham
            .copy_link(ctx, l, Time::CURRENT, true, LinkPt::current(c, 0))
            .unwrap();
        let (from, _) = ham.get_from_node(ctx, l2, Time::CURRENT).unwrap();
        let (to, _) = ham.get_to_node(ctx, l2, Time::CURRENT).unwrap();
        assert_eq!((from, to), (a, c));
        // Keep the destination, source from c.
        let (l3, _) = ham
            .copy_link(ctx, l, Time::CURRENT, false, LinkPt::current(c, 1))
            .unwrap();
        let (from, _) = ham.get_from_node(ctx, l3, Time::CURRENT).unwrap();
        let (to, _) = ham.get_to_node(ctx, l3, Time::CURRENT).unwrap();
        assert_eq!((from, to), (c, b));
    }

    #[test]
    fn attributes_via_facade() {
        let (mut ham, ctx) = fresh("attrs");
        let (n, _) = ham.add_node(ctx, true).unwrap();
        let doc = ham.get_attribute_index(ctx, "document").unwrap();
        assert_eq!(ham.get_attribute_index(ctx, "document").unwrap(), doc);
        ham.set_node_attribute_value(ctx, n, doc, Value::str("requirements"))
            .unwrap();
        assert_eq!(
            ham.get_node_attribute_value(ctx, n, doc, Time::CURRENT)
                .unwrap(),
            Value::str("requirements")
        );
        let all = ham.get_node_attributes(ctx, n, Time::CURRENT).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].0, "document");
        let vals = ham.get_attribute_values(ctx, doc, Time::CURRENT).unwrap();
        assert_eq!(vals, vec![Value::str("requirements")]);
        ham.delete_node_attribute(ctx, n, doc).unwrap();
        assert!(ham
            .get_node_attribute_value(ctx, n, doc, Time::CURRENT)
            .is_err());
        let names = ham.get_attributes(ctx, Time::CURRENT).unwrap();
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn explicit_transaction_commit_and_abort() {
        let (mut ham, ctx) = fresh("txn");
        let (keep, tk) = ham.add_node(ctx, true).unwrap();
        ham.modify_node(ctx, keep, tk, b"kept\n".to_vec(), &[])
            .unwrap();

        // Abort: everything inside vanishes.
        ham.begin_transaction().unwrap();
        let (doomed, _) = ham.add_node(ctx, true).unwrap();
        let t = ham.get_node_time_stamp(ctx, keep).unwrap();
        ham.modify_node(ctx, keep, t, b"should vanish\n".to_vec(), &[])
            .unwrap();
        ham.abort_transaction().unwrap();
        assert!(ham.open_node(ctx, doomed, Time::CURRENT, &[]).is_err());
        assert_eq!(
            ham.open_node(ctx, keep, Time::CURRENT, &[])
                .unwrap()
                .contents[..],
            b"kept\n"[..]
        );

        // Commit: annotate-style bundle survives.
        ham.begin_transaction().unwrap();
        let (note, tn) = ham.add_node(ctx, true).unwrap();
        ham.modify_node(ctx, note, tn, b"an annotation\n".to_vec(), &[])
            .unwrap();
        let (l, _) = ham
            .add_link(ctx, LinkPt::current(keep, 2), LinkPt::current(note, 0))
            .unwrap();
        let rel = ham.get_attribute_index(ctx, "relation").unwrap();
        ham.set_link_attribute_value(ctx, l, rel, Value::str("annotates"))
            .unwrap();
        ham.commit_transaction().unwrap();
        assert_eq!(
            ham.get_link_attribute_value(ctx, l, rel, Time::CURRENT)
                .unwrap(),
            Value::str("annotates")
        );
    }

    #[test]
    fn crash_recovery_replays_committed_transactions() {
        let dir = tmpdir("recovery");
        let pid;
        let node;
        {
            let (mut ham, p, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
            pid = p;
            let (n, t0) = ham.add_node(MAIN_CONTEXT, true).unwrap();
            node = n;
            ham.modify_node(MAIN_CONTEXT, n, t0, b"durable contents\n".to_vec(), &[])
                .unwrap();
            let doc = ham.get_attribute_index(MAIN_CONTEXT, "document").unwrap();
            ham.set_node_attribute_value(MAIN_CONTEXT, n, doc, Value::str("spec"))
                .unwrap();
            // Drop without checkpoint: simulates a crash after commits.
        }
        let (mut ham, ctx) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
        let opened = ham.open_node(ctx, node, Time::CURRENT, &[]).unwrap();
        assert_eq!(&opened.contents[..], b"durable contents\n");
        let doc = ham.get_attribute_index(ctx, "document").unwrap();
        assert_eq!(
            ham.get_node_attribute_value(ctx, node, doc, Time::CURRENT)
                .unwrap(),
            Value::str("spec")
        );
        // History survives recovery too.
        let (major, _) = ham.get_node_versions(ctx, node).unwrap();
        assert_eq!(major.len(), 2);
    }

    #[test]
    fn recovery_after_checkpoint_and_more_commits() {
        let dir = tmpdir("recovery2");
        let pid;
        let node;
        {
            let (mut ham, p, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
            pid = p;
            let (n, t0) = ham.add_node(MAIN_CONTEXT, true).unwrap();
            node = n;
            ham.modify_node(MAIN_CONTEXT, n, t0, b"before checkpoint\n".to_vec(), &[])
                .unwrap();
            ham.checkpoint().unwrap();
            let t = ham.get_node_time_stamp(MAIN_CONTEXT, n).unwrap();
            ham.modify_node(MAIN_CONTEXT, n, t, b"after checkpoint\n".to_vec(), &[])
                .unwrap();
        }
        let (mut ham, ctx) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
        assert_eq!(
            ham.open_node(ctx, node, Time::CURRENT, &[])
                .unwrap()
                .contents[..],
            b"after checkpoint\n"[..]
        );
        // And the pre-checkpoint version is still reachable.
        let (major, _) = ham.get_node_versions(ctx, node).unwrap();
        assert_eq!(major.len(), 3);
    }

    #[test]
    fn demons_fire_with_parameters() {
        let (mut ham, ctx) = fresh("demons");
        let (n, _) = ham.add_node(ctx, true).unwrap();
        ham.set_graph_demon_value(
            ctx,
            Event::NodeModified,
            Some(DemonSpec::notify("watcher", "node changed")),
        )
        .unwrap();
        ham.set_node_demon(
            ctx,
            n,
            Event::NodeModified,
            Some(DemonSpec::mark_node("dirtier", "dirty", true)),
        )
        .unwrap();
        let t = ham.get_node_time_stamp(ctx, n).unwrap();
        ham.modify_node(ctx, n, t, b"edited\n".to_vec(), &[])
            .unwrap();

        let journal = ham.demon_journal();
        assert_eq!(journal.len(), 2);
        assert_eq!(journal[0].demon, "watcher");
        assert_eq!(journal[0].info.event, Event::NodeModified);
        assert_eq!(journal[0].info.node, Some(n));
        assert!(journal[0].info.time > Time(0));
        // The MarkNode demon actually set the attribute.
        let dirty = ham.get_attribute_index(ctx, "dirty").unwrap();
        assert_eq!(
            ham.get_node_attribute_value(ctx, n, dirty, Time::CURRENT)
                .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn callback_demons_dispatch() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let (mut ham, ctx) = fresh("callbacks");
        let count = Arc::new(AtomicU64::new(0));
        let count2 = count.clone();
        ham.register_demon_callback("counter", move |info| {
            assert_eq!(info.event, Event::NodeAdded);
            count2.fetch_add(1, Ordering::SeqCst);
        });
        ham.set_graph_demon_value(
            ctx,
            Event::NodeAdded,
            Some(DemonSpec::call("adder", "counter")),
        )
        .unwrap();
        ham.add_node(ctx, true).unwrap();
        ham.add_node(ctx, true).unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2);
        // Unregistered callback: journaled, not fatal.
        ham.set_graph_demon_value(
            ctx,
            Event::NodeAdded,
            Some(DemonSpec::call("ghost", "missing")),
        )
        .unwrap();
        ham.add_node(ctx, true).unwrap();
        assert!(ham
            .demon_journal()
            .last()
            .unwrap()
            .message
            .as_deref()
            .unwrap()
            .contains("missing"));
    }

    #[test]
    fn demon_versions_are_queryable() {
        let (mut ham, ctx) = fresh("demonver");
        ham.set_graph_demon_value(ctx, Event::NodeAdded, Some(DemonSpec::notify("v1", "a")))
            .unwrap();
        let t1 = ham.graph(ctx).unwrap().now();
        ham.set_graph_demon_value(ctx, Event::NodeAdded, Some(DemonSpec::notify("v2", "b")))
            .unwrap();
        ham.set_graph_demon_value(ctx, Event::NodeAdded, None)
            .unwrap();
        assert_eq!(ham.get_graph_demons(ctx, t1).unwrap()[0].1.name, "v1");
        assert!(ham.get_graph_demons(ctx, Time::CURRENT).unwrap().is_empty());
    }

    #[test]
    fn contexts_fork_and_merge() {
        let (mut ham, main) = fresh("contexts");
        let (n, t0) = ham.add_node(main, true).unwrap();
        ham.modify_node(main, n, t0, b"main line\n".to_vec(), &[])
            .unwrap();

        let private = ham.create_context(main).unwrap();
        let t = ham.get_node_time_stamp(private, n).unwrap();
        ham.modify_node(private, n, t, b"tentative design\n".to_vec(), &[])
            .unwrap();
        let (extra, te) = ham.add_node(private, true).unwrap();
        ham.modify_node(private, extra, te, b"extra node\n".to_vec(), &[])
            .unwrap();

        // Main is untouched until the merge.
        assert_eq!(
            ham.open_node(main, n, Time::CURRENT, &[]).unwrap().contents[..],
            b"main line\n"[..]
        );
        let report = ham.merge_context(private, ConflictPolicy::Fail).unwrap();
        assert_eq!(report.nodes_modified, vec![n]);
        assert_eq!(report.nodes_added.len(), 1);
        assert_eq!(
            ham.open_node(main, n, Time::CURRENT, &[]).unwrap().contents[..],
            b"tentative design\n"[..]
        );

        ham.destroy_context(private).unwrap();
        assert_eq!(ham.contexts(), vec![main]);
        assert!(ham.merge_context(private, ConflictPolicy::Fail).is_err());
    }

    #[test]
    fn contexts_survive_recovery() {
        let dir = tmpdir("ctx-recovery");
        let pid;
        let private;
        let node;
        {
            let (mut ham, p, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
            pid = p;
            let (n, t0) = ham.add_node(MAIN_CONTEXT, true).unwrap();
            node = n;
            ham.modify_node(MAIN_CONTEXT, n, t0, b"base\n".to_vec(), &[])
                .unwrap();
            private = ham.create_context(MAIN_CONTEXT).unwrap();
            let t = ham.get_node_time_stamp(private, n).unwrap();
            ham.modify_node(private, n, t, b"private edit\n".to_vec(), &[])
                .unwrap();
        }
        let (mut ham, main) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
        assert_eq!(ham.contexts(), vec![main, private]);
        assert_eq!(
            ham.open_node(private, node, Time::CURRENT, &[])
                .unwrap()
                .contents[..],
            b"private edit\n"[..]
        );
        assert_eq!(
            ham.open_node(main, node, Time::CURRENT, &[])
                .unwrap()
                .contents[..],
            b"base\n"[..]
        );
        // The recovered fork metadata still supports merging.
        ham.merge_context(private, ConflictPolicy::Fail).unwrap();
        assert_eq!(
            ham.open_node(main, node, Time::CURRENT, &[])
                .unwrap()
                .contents[..],
            b"private edit\n"[..]
        );
    }

    /// Logs written before merges were restricted hold the whole child
    /// graph in `MergeForeign` and must still replay: one store logs the
    /// merge in that form, another through `merge_foreign`, whose record
    /// holds only the child's merge delta. Both merge to the same MAIN
    /// live, and both logs replay to it.
    #[test]
    fn merge_foreign_records_replay_alike_whole_or_delta() {
        let merged = |name: &str, whole_record: bool| {
            let dir = tmpdir(name);
            let (mut ham, pid, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
            let mut ids = Vec::new();
            for i in 0..8 {
                let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
                ham.modify_node(MAIN_CONTEXT, n, t, format!("node {i}\n").into_bytes(), &[])
                    .unwrap();
                ids.push(n);
            }
            ham.add_link(
                MAIN_CONTEXT,
                LinkPt::current(ids[0], 0),
                LinkPt::current(ids[1], 0),
            )
            .unwrap();
            let (mut child, fork) = ham.export_graph(MAIN_CONTEXT).unwrap();
            let clock = Arc::clone(&ham.clock);
            child
                .check_in(ids[2], b"child edit\n".to_vec(), &*clock, "edit")
                .unwrap();
            child.delete_node(ids[3], &*clock).unwrap();
            let (extra, _) = child.add_node(true, &*clock);
            child
                .add_link(
                    LinkPt::current(extra, 0),
                    LinkPt::current(ids[4], 0),
                    &*clock,
                )
                .unwrap();
            let owner = child.attribute_index("owner", &*clock);
            child
                .set_node_attr(ids[5], owner, Value::str("child"), &*clock)
                .unwrap();

            let policy = ConflictPolicy::Fail;
            let report = if whole_record {
                ham.auto_txn(|ham| {
                    let time = clock.stamp();
                    let parent = ham.graph_mut(MAIN_CONTEXT)?;
                    let report = merge_context(parent, &child, fork, policy, time)?;
                    let mut gw = Writer::new();
                    child.encode(&mut gw);
                    ham.push_redo(RedoOp::MergeForeign {
                        into: MAIN_CONTEXT,
                        policy: policy_tag(policy),
                        fork_time: fork,
                        time: Some(time),
                        graph: gw.into_bytes(),
                    });
                    Ok(report)
                })
            } else {
                ham.merge_foreign(MAIN_CONTEXT, &child, fork, policy)
                    .map(|(report, _)| report)
            }
            .unwrap();
            assert_eq!(report.nodes_deleted, vec![ids[3]]);
            assert_eq!(report.links_added.len(), 1);
            let live = ham.graph(MAIN_CONTEXT).unwrap().clone();
            let wal_bytes = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
            drop(ham);
            let (ham, main) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
            let mut replayed = ham.graph(main).unwrap().clone();
            assert_eq!(replayed, live, "{name}: replay differs from the live merge");
            drop(ham);
            let _ = std::fs::remove_dir_all(&dir);
            // Stores draw their own project ids; compare everything else.
            replayed.project_id = ProjectId(0);
            (replayed, wal_bytes)
        };
        let (whole, whole_bytes) = merged("mf-whole", true);
        let (delta, delta_bytes) = merged("mf-delta", false);
        assert_eq!(whole, delta);
        assert!(delta_bytes < whole_bytes, "{delta_bytes} vs {whole_bytes}");
    }

    #[test]
    fn abort_rolls_back_context_operations() {
        let (mut ham, main) = fresh("ctx-abort");
        ham.begin_transaction().unwrap();
        let private = ham.create_context(main).unwrap();
        ham.add_node(private, true).unwrap();
        ham.abort_transaction().unwrap();
        assert_eq!(ham.contexts(), vec![main]);

        // Destroy inside an aborted txn is undone.
        let keep = ham.create_context(main).unwrap();
        ham.begin_transaction().unwrap();
        ham.destroy_context(keep).unwrap();
        ham.abort_transaction().unwrap();
        assert!(ham.contexts().contains(&keep));
    }

    #[test]
    fn queries_via_facade() {
        let (mut ham, ctx) = fresh("queries");
        let doc = ham.get_attribute_index(ctx, "document").unwrap();
        let (root, _) = ham.add_node(ctx, true).unwrap();
        let (child, _) = ham.add_node(ctx, true).unwrap();
        ham.set_node_attribute_value(ctx, root, doc, Value::str("spec"))
            .unwrap();
        ham.set_node_attribute_value(ctx, child, doc, Value::str("spec"))
            .unwrap();
        ham.add_link(ctx, LinkPt::current(root, 0), LinkPt::current(child, 0))
            .unwrap();

        let pred = Predicate::parse("document = spec").unwrap();
        let q = ham
            .get_graph_query(ctx, Time::CURRENT, &pred, &Predicate::True, &[doc], &[])
            .unwrap();
        assert_eq!(q.nodes.len(), 2);
        assert_eq!(q.links.len(), 1);
        assert_eq!(q.nodes[0].1[0], Some(Value::str("spec")));

        let lin = ham
            .linearize_graph(
                ctx,
                root,
                Time::CURRENT,
                &Predicate::True,
                &Predicate::True,
                &[],
                &[],
            )
            .unwrap();
        assert_eq!(lin.node_ids(), vec![root, child]);
    }

    #[test]
    fn protections_apply_at_checkpoint() {
        let (mut ham, ctx) = fresh("protections");
        let (n, t0) = ham.add_node(ctx, true).unwrap();
        ham.modify_node(ctx, n, t0, b"guarded\n".to_vec(), &[])
            .unwrap();
        ham.change_node_protection(ctx, n, Protections::READ_ONLY)
            .unwrap();
        ham.checkpoint().unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            let blob = ham
                .directory()
                .join(NODES_DIR)
                .join(format!("{:016x}.blob", n.0));
            let mode = std::fs::metadata(blob).unwrap().permissions().mode() & 0o777;
            assert_eq!(mode, 0o444);
        }
        assert_eq!(
            ham.graph(ctx).unwrap().node(n).unwrap().protections,
            Protections::READ_ONLY
        );
    }

    #[test]
    fn read_only_ops_write_nothing_to_wal() {
        let (mut ham, ctx) = fresh("readonly");
        let (n, _) = ham.add_node(ctx, true).unwrap();
        let wal_len_before = std::fs::metadata(ham.directory().join(WAL_FILE))
            .unwrap()
            .len();
        for _ in 0..10 {
            ham.open_node(ctx, n, Time::CURRENT, &[]).unwrap();
            ham.get_node_time_stamp(ctx, n).unwrap();
        }
        let wal_len_after = std::fs::metadata(ham.directory().join(WAL_FILE))
            .unwrap()
            .len();
        assert_eq!(wal_len_before, wal_len_after);
    }
}
