//! The Neptune wire protocol.
//!
//! Paper §4.1: *"The user interface process communicates with the HAM using
//! a remote procedure call mechanism; the HAM runs as a separate process,
//! typically on a machine accessed over a network."* Each HAM operation is
//! one [`Request`] variant; the server answers with one [`Response`].
//! Messages are encoded with the storage codec and framed by
//! [`crate::frame`].

use neptune_check::Finding;
use neptune_ham::context::{ConflictPolicy, MergeReport};
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::query::SubGraph;
use neptune_ham::types::{
    AttributeIndex, ContextId, LinkIndex, LinkPt, NodeIndex, Protections, Time, Version,
};
use neptune_ham::value::Value;
use neptune_obs::{SpanRecord, TraceContext, TraceRecord};
use neptune_storage::codec::{decode_seq, encode_seq, Decode, Encode, Reader, Writer};
use neptune_storage::diff::Difference;
use neptune_storage::error::{Result as StorageResult, StorageError};
use std::sync::Arc;

fn encode_event(e: Event, w: &mut Writer) {
    // Tags are positions in Event::ALL (decode_event indexes into it); an
    // explicit match keeps the encoder panic-free and forces this list to
    // grow with the enum.
    let tag: u8 = match e {
        Event::GraphOpened => 0,
        Event::NodeAdded => 1,
        Event::NodeDeleted => 2,
        Event::NodeOpened => 3,
        Event::NodeModified => 4,
        Event::LinkAdded => 5,
        Event::LinkDeleted => 6,
        Event::AttributeChanged => 7,
    };
    w.put_u8(tag);
}

fn decode_event(r: &mut Reader<'_>) -> StorageResult<Event> {
    let tag = r.get_u8()?;
    Event::ALL
        .get(tag as usize)
        .copied()
        .ok_or(StorageError::InvalidTag {
            context: "Event",
            tag: tag as u64,
        })
}

fn encode_policy(p: ConflictPolicy, w: &mut Writer) {
    w.put_u8(match p {
        ConflictPolicy::Fail => 0,
        ConflictPolicy::PreferChild => 1,
        ConflictPolicy::PreferParent => 2,
    });
}

fn decode_policy(r: &mut Reader<'_>) -> StorageResult<ConflictPolicy> {
    Ok(match r.get_u8()? {
        0 => ConflictPolicy::Fail,
        1 => ConflictPolicy::PreferChild,
        2 => ConflictPolicy::PreferParent,
        tag => {
            return Err(StorageError::InvalidTag {
                context: "ConflictPolicy",
                tag: tag as u64,
            })
        }
    })
}

/// Tag prefixing a request frame that carries the trace-context extension
/// (see [`TracedRequest`]). Deliberately *outside* the [`Request`] tag
/// space: an old client never sends it (its frames start with a plain
/// request tag and decode with no context), and an old server rejects it
/// as an unknown tag rather than misparsing the payload.
pub const TRACE_EXT_TAG: u8 = 43;

/// A runtime-adjustable observability setting ([`Request::ObsControl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsSetting {
    /// Set the slow-op threshold in milliseconds; `None` disables both the
    /// slow-op log and latency-based flight-recorder retention.
    SlowOpMs(Option<u64>),
    /// The instrumentation kill-switch: `false` turns every metric,
    /// span, and trace site into a single relaxed atomic load.
    Enabled(bool),
}

fn encode_obs_setting(s: ObsSetting, w: &mut Writer) {
    match s {
        ObsSetting::SlowOpMs(ms) => {
            w.put_u8(0);
            match ms {
                Some(ms) => {
                    w.put_bool(true);
                    w.put_u64(ms);
                }
                None => w.put_bool(false),
            }
        }
        ObsSetting::Enabled(on) => {
            w.put_u8(1);
            w.put_bool(on);
        }
    }
}

fn decode_obs_setting(r: &mut Reader<'_>) -> StorageResult<ObsSetting> {
    Ok(match r.get_u8()? {
        0 => ObsSetting::SlowOpMs(if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        }),
        1 => ObsSetting::Enabled(r.get_bool()?),
        tag => {
            return Err(StorageError::InvalidTag {
                context: "ObsSetting",
                tag: tag as u64,
            })
        }
    })
}

/// A client request: one HAM operation (or transaction control).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `addNode`.
    AddNode {
        /// Target context.
        context: ContextId,
        /// Archive (true) or file (false).
        keep_history: bool,
    },
    /// `deleteNode`.
    DeleteNode {
        /// Target context.
        context: ContextId,
        /// Node to delete.
        node: NodeIndex,
    },
    /// `addLink`.
    AddLink {
        /// Target context.
        context: ContextId,
        /// Source end.
        from: LinkPt,
        /// Destination end.
        to: LinkPt,
    },
    /// `copyLink`.
    CopyLink {
        /// Target context.
        context: ContextId,
        /// Link to copy an end from.
        link: LinkIndex,
        /// Time at which to read the shared end.
        time: Time,
        /// Keep the source end (true) or the destination end (false).
        keep_source: bool,
        /// The other end.
        pt: LinkPt,
    },
    /// `deleteLink`.
    DeleteLink {
        /// Target context.
        context: ContextId,
        /// Link to delete.
        link: LinkIndex,
    },
    /// `linearizeGraph` (predicates as source text).
    LinearizeGraph {
        /// Target context.
        context: ContextId,
        /// Traversal root.
        start: NodeIndex,
        /// Time of the traversal.
        time: Time,
        /// Node visibility predicate.
        node_pred: String,
        /// Link visibility predicate.
        link_pred: String,
        /// Attributes to return per node.
        node_attrs: Vec<AttributeIndex>,
        /// Attributes to return per link.
        link_attrs: Vec<AttributeIndex>,
    },
    /// `getGraphQuery` (predicates as source text).
    GetGraphQuery {
        /// Target context.
        context: ContextId,
        /// Time of the query.
        time: Time,
        /// Node visibility predicate.
        node_pred: String,
        /// Link visibility predicate.
        link_pred: String,
        /// Attributes to return per node.
        node_attrs: Vec<AttributeIndex>,
        /// Attributes to return per link.
        link_attrs: Vec<AttributeIndex>,
    },
    /// `openNode`.
    OpenNode {
        /// Target context.
        context: ContextId,
        /// Node to open.
        node: NodeIndex,
        /// Version time (zero = current).
        time: Time,
        /// Attributes to return.
        attrs: Vec<AttributeIndex>,
    },
    /// `modifyNode`.
    ModifyNode {
        /// Target context.
        context: ContextId,
        /// Node to modify.
        node: NodeIndex,
        /// Expected current version time.
        time: Time,
        /// New contents.
        contents: Vec<u8>,
        /// Attachment points (canonical order).
        link_pts: Vec<LinkPt>,
    },
    /// `getNodeTimeStamp`.
    GetNodeTimeStamp {
        /// Target context.
        context: ContextId,
        /// Node queried.
        node: NodeIndex,
    },
    /// `changeNodeProtection`.
    ChangeNodeProtection {
        /// Target context.
        context: ContextId,
        /// Node affected.
        node: NodeIndex,
        /// New protections.
        protections: Protections,
    },
    /// `getNodeVersions`.
    GetNodeVersions {
        /// Target context.
        context: ContextId,
        /// Node queried.
        node: NodeIndex,
    },
    /// `getNodeDifferences`.
    GetNodeDifferences {
        /// Target context.
        context: ContextId,
        /// Node queried.
        node: NodeIndex,
        /// Old version time.
        time1: Time,
        /// New version time.
        time2: Time,
    },
    /// `getToNode`.
    GetToNode {
        /// Target context.
        context: ContextId,
        /// Link queried.
        link: LinkIndex,
        /// Time of the query.
        time: Time,
    },
    /// `getFromNode`.
    GetFromNode {
        /// Target context.
        context: ContextId,
        /// Link queried.
        link: LinkIndex,
        /// Time of the query.
        time: Time,
    },
    /// `getAttributes`.
    GetAttributes {
        /// Target context.
        context: ContextId,
        /// Time of the query.
        time: Time,
    },
    /// `getAttributeValues`.
    GetAttributeValues {
        /// Target context.
        context: ContextId,
        /// Attribute queried.
        attr: AttributeIndex,
        /// Time of the query.
        time: Time,
    },
    /// `getAttributeIndex`.
    GetAttributeIndex {
        /// Target context.
        context: ContextId,
        /// Attribute name to intern.
        name: String,
    },
    /// `setNodeAttributeValue`.
    SetNodeAttributeValue {
        /// Target context.
        context: ContextId,
        /// Node affected.
        node: NodeIndex,
        /// Attribute set.
        attr: AttributeIndex,
        /// New value.
        value: Value,
    },
    /// `deleteNodeAttribute`.
    DeleteNodeAttribute {
        /// Target context.
        context: ContextId,
        /// Node affected.
        node: NodeIndex,
        /// Attribute deleted.
        attr: AttributeIndex,
    },
    /// `getNodeAttributeValue`.
    GetNodeAttributeValue {
        /// Target context.
        context: ContextId,
        /// Node queried.
        node: NodeIndex,
        /// Attribute queried.
        attr: AttributeIndex,
        /// Time of the query.
        time: Time,
    },
    /// `getNodeAttributes`.
    GetNodeAttributes {
        /// Target context.
        context: ContextId,
        /// Node queried.
        node: NodeIndex,
        /// Time of the query.
        time: Time,
    },
    /// `setLinkAttributeValue`.
    SetLinkAttributeValue {
        /// Target context.
        context: ContextId,
        /// Link affected.
        link: LinkIndex,
        /// Attribute set.
        attr: AttributeIndex,
        /// New value.
        value: Value,
    },
    /// `deleteLinkAttribute`.
    DeleteLinkAttribute {
        /// Target context.
        context: ContextId,
        /// Link affected.
        link: LinkIndex,
        /// Attribute deleted.
        attr: AttributeIndex,
    },
    /// `getLinkAttributeValue`.
    GetLinkAttributeValue {
        /// Target context.
        context: ContextId,
        /// Link queried.
        link: LinkIndex,
        /// Attribute queried.
        attr: AttributeIndex,
        /// Time of the query.
        time: Time,
    },
    /// `getLinkAttributes`.
    GetLinkAttributes {
        /// Target context.
        context: ContextId,
        /// Link queried.
        link: LinkIndex,
        /// Time of the query.
        time: Time,
    },
    /// `setGraphDemonValue`.
    SetGraphDemonValue {
        /// Target context.
        context: ContextId,
        /// Triggering event.
        event: Event,
        /// Demon (None disables).
        demon: Option<DemonSpec>,
    },
    /// `getGraphDemons`.
    GetGraphDemons {
        /// Target context.
        context: ContextId,
        /// Time of the query.
        time: Time,
    },
    /// `setNodeDemon`.
    SetNodeDemon {
        /// Target context.
        context: ContextId,
        /// Node affected.
        node: NodeIndex,
        /// Triggering event.
        event: Event,
        /// Demon (None disables).
        demon: Option<DemonSpec>,
    },
    /// `getNodeDemons`.
    GetNodeDemons {
        /// Target context.
        context: ContextId,
        /// Node queried.
        node: NodeIndex,
        /// Time of the query.
        time: Time,
    },
    /// Begin an explicit transaction owned by this connection.
    BeginTransaction,
    /// Commit this connection's transaction.
    CommitTransaction,
    /// Abort this connection's transaction.
    AbortTransaction,
    /// Fork a context.
    CreateContext {
        /// Parent context.
        from: ContextId,
    },
    /// Merge a context back into its parent.
    MergeContext {
        /// Child to merge.
        child: ContextId,
        /// Conflict policy.
        policy: ConflictPolicy,
    },
    /// Discard a context.
    DestroyContext {
        /// Context to discard.
        id: ContextId,
    },
    /// List live contexts.
    ListContexts,
    /// Force a checkpoint.
    Checkpoint,
    /// Liveness probe.
    Ping,
    /// Run the integrity verifier (`neptune-check`) over the server's
    /// store: file scan plus every in-memory invariant.
    Verify,
    /// Read the version cache's counters — since the archives' anchor
    /// caches became the only version cache, theirs.
    ///
    /// Compatibility alias: everything it reports (and much more) is in
    /// [`Request::Metrics`].
    CacheStats,
    /// Read the full metrics registry as Prometheus-style text exposition:
    /// per-RPC latency histograms, HAM operation timings and transaction
    /// counters, WAL/replay/cache instrumentation.
    Metrics,
    /// Several requests executed back-to-back under one gate check and one
    /// HAM lock acquisition; answered by [`Response::Batch`] with one
    /// element per request, in order (per-element errors do not abort the
    /// rest). Transaction control and nested batches are rejected.
    Batch(Vec<Request>),
    /// Snapshot the server's flight recorder: every retained trace
    /// (recent tail plus slow/error traces), oldest first.
    FlightDump,
    /// Fetch one retained trace by id; answered with an empty
    /// [`Response::Traces`] once the trace has aged out of both rings.
    Trace {
        /// The trace id to look up.
        trace_id: u64,
    },
    /// Adjust an observability knob at runtime (slow-op threshold,
    /// instrumentation kill-switch).
    ObsControl {
        /// The setting to change.
        setting: ObsSetting,
    },
}

impl Request {
    /// Whether this request only observes the HAM.
    ///
    /// The server runs read-only requests under a shared (reader) lock at a
    /// pinned time, so any number of them proceed concurrently; mutating
    /// requests take the exclusive lock. A variant belongs here only if the
    /// HAM method it dispatches to takes `&self` (`GetAttributeIndex`
    /// interns names and `Checkpoint` rewrites files, so neither
    /// qualifies). `OpenNode` is read-only with one exception — a
    /// registered `nodeOpened` demon — which the dispatcher detects and
    /// routes back through the exclusive path.
    pub fn is_read_only(&self) -> bool {
        use Request::*;
        match self {
            // A batch is read-only iff every element is; one write demotes
            // the whole batch to the exclusive path.
            Batch(elements) => elements.iter().all(Request::is_read_only),
            LinearizeGraph { .. }
            | GetGraphQuery { .. }
            | OpenNode { .. }
            | GetNodeTimeStamp { .. }
            | GetNodeVersions { .. }
            | GetNodeDifferences { .. }
            | GetToNode { .. }
            | GetFromNode { .. }
            | GetAttributes { .. }
            | GetAttributeValues { .. }
            | GetNodeAttributeValue { .. }
            | GetNodeAttributes { .. }
            | GetLinkAttributeValue { .. }
            | GetLinkAttributes { .. }
            | GetGraphDemons { .. }
            | GetNodeDemons { .. }
            | ListContexts
            | Ping
            | Verify
            | CacheStats
            | Metrics
            // The observability RPCs touch only process-global obs state,
            // never the HAM: always safe on the shared path.
            | FlightDump
            | Trace { .. }
            | ObsControl { .. } => true,
            AddNode { .. }
            | DeleteNode { .. }
            | AddLink { .. }
            | CopyLink { .. }
            | DeleteLink { .. }
            | ModifyNode { .. }
            | ChangeNodeProtection { .. }
            | GetAttributeIndex { .. }
            | SetNodeAttributeValue { .. }
            | DeleteNodeAttribute { .. }
            | SetLinkAttributeValue { .. }
            | DeleteLinkAttribute { .. }
            | SetGraphDemonValue { .. }
            | SetNodeDemon { .. }
            | BeginTransaction
            | CommitTransaction
            | AbortTransaction
            | CreateContext { .. }
            | MergeContext { .. }
            | DestroyContext { .. }
            | Checkpoint => false,
        }
    }

    /// The context this request is scoped to, if any — the sharded
    /// server's routing key: context-scoped requests go to the context's
    /// home shard, `None` means machine-global (served from a multi-shard
    /// view when read-only, or under the gate when not).
    ///
    /// `MergeContext` reports the *child* context: the server routes to
    /// the sharded merge which discovers the parent (possibly on another
    /// shard) itself. A `Batch` is global — the server classifies its
    /// elements individually.
    pub fn context_id(&self) -> Option<ContextId> {
        use Request::*;
        match self {
            AddNode { context, .. }
            | DeleteNode { context, .. }
            | AddLink { context, .. }
            | CopyLink { context, .. }
            | DeleteLink { context, .. }
            | LinearizeGraph { context, .. }
            | GetGraphQuery { context, .. }
            | OpenNode { context, .. }
            | ModifyNode { context, .. }
            | GetNodeTimeStamp { context, .. }
            | ChangeNodeProtection { context, .. }
            | GetNodeVersions { context, .. }
            | GetNodeDifferences { context, .. }
            | GetToNode { context, .. }
            | GetFromNode { context, .. }
            | GetAttributes { context, .. }
            | GetAttributeValues { context, .. }
            | GetAttributeIndex { context, .. }
            | SetNodeAttributeValue { context, .. }
            | DeleteNodeAttribute { context, .. }
            | GetNodeAttributeValue { context, .. }
            | GetNodeAttributes { context, .. }
            | SetLinkAttributeValue { context, .. }
            | DeleteLinkAttribute { context, .. }
            | GetLinkAttributeValue { context, .. }
            | GetLinkAttributes { context, .. }
            | SetGraphDemonValue { context, .. }
            | GetGraphDemons { context, .. }
            | SetNodeDemon { context, .. }
            | GetNodeDemons { context, .. } => Some(*context),
            CreateContext { from } => Some(*from),
            MergeContext { child, .. } => Some(*child),
            DestroyContext { id } => Some(*id),
            BeginTransaction
            | CommitTransaction
            | AbortTransaction
            | ListContexts
            | Checkpoint
            | Ping
            | Verify
            | CacheStats
            | Metrics
            | Batch(..)
            | FlightDump
            | Trace { .. }
            | ObsControl { .. } => None,
        }
    }

    /// The variant's name, used as the `op` label of the server's
    /// per-request latency histograms (`neptune_server_rpc_ns{op=...}`).
    pub fn name(&self) -> &'static str {
        use Request::*;
        match self {
            AddNode { .. } => "AddNode",
            DeleteNode { .. } => "DeleteNode",
            AddLink { .. } => "AddLink",
            CopyLink { .. } => "CopyLink",
            DeleteLink { .. } => "DeleteLink",
            LinearizeGraph { .. } => "LinearizeGraph",
            GetGraphQuery { .. } => "GetGraphQuery",
            OpenNode { .. } => "OpenNode",
            ModifyNode { .. } => "ModifyNode",
            GetNodeTimeStamp { .. } => "GetNodeTimeStamp",
            ChangeNodeProtection { .. } => "ChangeNodeProtection",
            GetNodeVersions { .. } => "GetNodeVersions",
            GetNodeDifferences { .. } => "GetNodeDifferences",
            GetToNode { .. } => "GetToNode",
            GetFromNode { .. } => "GetFromNode",
            GetAttributes { .. } => "GetAttributes",
            GetAttributeValues { .. } => "GetAttributeValues",
            GetAttributeIndex { .. } => "GetAttributeIndex",
            SetNodeAttributeValue { .. } => "SetNodeAttributeValue",
            DeleteNodeAttribute { .. } => "DeleteNodeAttribute",
            GetNodeAttributeValue { .. } => "GetNodeAttributeValue",
            GetNodeAttributes { .. } => "GetNodeAttributes",
            SetLinkAttributeValue { .. } => "SetLinkAttributeValue",
            DeleteLinkAttribute { .. } => "DeleteLinkAttribute",
            GetLinkAttributeValue { .. } => "GetLinkAttributeValue",
            GetLinkAttributes { .. } => "GetLinkAttributes",
            SetGraphDemonValue { .. } => "SetGraphDemonValue",
            GetGraphDemons { .. } => "GetGraphDemons",
            SetNodeDemon { .. } => "SetNodeDemon",
            GetNodeDemons { .. } => "GetNodeDemons",
            BeginTransaction => "BeginTransaction",
            CommitTransaction => "CommitTransaction",
            AbortTransaction => "AbortTransaction",
            CreateContext { .. } => "CreateContext",
            MergeContext { .. } => "MergeContext",
            DestroyContext { .. } => "DestroyContext",
            ListContexts => "ListContexts",
            Checkpoint => "Checkpoint",
            Ping => "Ping",
            Verify => "Verify",
            CacheStats => "CacheStats",
            Metrics => "Metrics",
            Batch(..) => "Batch",
            FlightDump => "FlightDump",
            Trace { .. } => "Trace",
            ObsControl { .. } => "ObsControl",
        }
    }
}

/// The server's answer to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Operation succeeded with no payload.
    Ok,
    /// `(NodeIndex, Time)` — addNode.
    NodeCreated(NodeIndex, Time),
    /// `(LinkIndex, Time)` — addLink / copyLink.
    LinkCreated(LinkIndex, Time),
    /// A query result.
    SubGraph(SubGraph),
    /// openNode's result.
    Opened {
        /// Contents at the requested time, shared with the HAM's version
        /// store/cache — encoding splices this buffer by reference.
        contents: Arc<[u8]>,
        /// Link attachments of that version.
        link_pts: Vec<LinkPt>,
        /// Requested attribute values.
        values: Vec<Option<Value>>,
        /// Current version time.
        current_time: Time,
    },
    /// A single time (timestamps, modify results).
    Time(Time),
    /// Version histories (major, minor).
    Versions(Vec<Version>, Vec<Version>),
    /// Differences between versions.
    Differences(Vec<Difference>),
    /// A node and the version of it a link end refers to.
    NodeAt(NodeIndex, Time),
    /// Attribute names and indices.
    Attributes(Vec<(String, AttributeIndex)>),
    /// A set of values.
    Values(Vec<Value>),
    /// An attribute index.
    AttrIndex(AttributeIndex),
    /// A single value.
    Value(Value),
    /// Attribute triples.
    AttrTriples(Vec<(String, AttributeIndex, Value)>),
    /// Demon table entries.
    Demons(Vec<(Event, DemonSpec)>),
    /// A transaction id.
    TxnStarted(u64),
    /// A created context.
    Context(ContextId),
    /// A merge report (serialized as counts + conflict strings).
    Merged(MergeReport),
    /// Live contexts.
    Contexts(Vec<ContextId>),
    /// The operation failed; human-readable reason.
    Error(String),
    /// Integrity-verifier results (empty = clean store).
    Findings(Vec<Finding>),
    /// Anchor-cache counters, summed over every archive in the process.
    CacheStats {
        /// Historical checkouts served by an exact anchor (zero deltas).
        hits: u64,
        /// Historical checkouts that applied at least one delta.
        misses: u64,
        /// Anchors currently held.
        entries: u64,
        /// Total bytes of the anchors currently held.
        bytes: u64,
    },
    /// The metrics registry in Prometheus text exposition format.
    Metrics(String),
    /// Answers [`Request::Batch`]: one response per element, in order.
    Batch(Vec<Response>),
    /// Retained traces from the flight recorder — the whole dump for
    /// [`Request::FlightDump`], zero or one for [`Request::Trace`].
    Traces(Vec<TraceRecord>),
}

impl Encode for Request {
    fn encode(&self, w: &mut Writer) {
        use Request::*;
        match self {
            AddNode {
                context,
                keep_history,
            } => {
                w.put_u8(0);
                context.encode(w);
                w.put_bool(*keep_history);
            }
            DeleteNode { context, node } => {
                w.put_u8(1);
                context.encode(w);
                node.encode(w);
            }
            AddLink { context, from, to } => {
                w.put_u8(2);
                context.encode(w);
                from.encode(w);
                to.encode(w);
            }
            CopyLink {
                context,
                link,
                time,
                keep_source,
                pt,
            } => {
                w.put_u8(3);
                context.encode(w);
                link.encode(w);
                time.encode(w);
                w.put_bool(*keep_source);
                pt.encode(w);
            }
            DeleteLink { context, link } => {
                w.put_u8(4);
                context.encode(w);
                link.encode(w);
            }
            LinearizeGraph {
                context,
                start,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                w.put_u8(5);
                context.encode(w);
                start.encode(w);
                time.encode(w);
                w.put_str(node_pred);
                w.put_str(link_pred);
                encode_seq(node_attrs, w);
                encode_seq(link_attrs, w);
            }
            GetGraphQuery {
                context,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                w.put_u8(6);
                context.encode(w);
                time.encode(w);
                w.put_str(node_pred);
                w.put_str(link_pred);
                encode_seq(node_attrs, w);
                encode_seq(link_attrs, w);
            }
            OpenNode {
                context,
                node,
                time,
                attrs,
            } => {
                w.put_u8(7);
                context.encode(w);
                node.encode(w);
                time.encode(w);
                encode_seq(attrs, w);
            }
            ModifyNode {
                context,
                node,
                time,
                contents,
                link_pts,
            } => {
                w.put_u8(8);
                context.encode(w);
                node.encode(w);
                time.encode(w);
                w.put_bytes(contents);
                encode_seq(link_pts, w);
            }
            GetNodeTimeStamp { context, node } => {
                w.put_u8(9);
                context.encode(w);
                node.encode(w);
            }
            ChangeNodeProtection {
                context,
                node,
                protections,
            } => {
                w.put_u8(10);
                context.encode(w);
                node.encode(w);
                protections.encode(w);
            }
            GetNodeVersions { context, node } => {
                w.put_u8(11);
                context.encode(w);
                node.encode(w);
            }
            GetNodeDifferences {
                context,
                node,
                time1,
                time2,
            } => {
                w.put_u8(12);
                context.encode(w);
                node.encode(w);
                time1.encode(w);
                time2.encode(w);
            }
            GetToNode {
                context,
                link,
                time,
            } => {
                w.put_u8(13);
                context.encode(w);
                link.encode(w);
                time.encode(w);
            }
            GetFromNode {
                context,
                link,
                time,
            } => {
                w.put_u8(14);
                context.encode(w);
                link.encode(w);
                time.encode(w);
            }
            GetAttributes { context, time } => {
                w.put_u8(15);
                context.encode(w);
                time.encode(w);
            }
            GetAttributeValues {
                context,
                attr,
                time,
            } => {
                w.put_u8(16);
                context.encode(w);
                attr.encode(w);
                time.encode(w);
            }
            GetAttributeIndex { context, name } => {
                w.put_u8(17);
                context.encode(w);
                w.put_str(name);
            }
            SetNodeAttributeValue {
                context,
                node,
                attr,
                value,
            } => {
                w.put_u8(18);
                context.encode(w);
                node.encode(w);
                attr.encode(w);
                value.encode(w);
            }
            DeleteNodeAttribute {
                context,
                node,
                attr,
            } => {
                w.put_u8(19);
                context.encode(w);
                node.encode(w);
                attr.encode(w);
            }
            GetNodeAttributeValue {
                context,
                node,
                attr,
                time,
            } => {
                w.put_u8(20);
                context.encode(w);
                node.encode(w);
                attr.encode(w);
                time.encode(w);
            }
            GetNodeAttributes {
                context,
                node,
                time,
            } => {
                w.put_u8(21);
                context.encode(w);
                node.encode(w);
                time.encode(w);
            }
            SetLinkAttributeValue {
                context,
                link,
                attr,
                value,
            } => {
                w.put_u8(22);
                context.encode(w);
                link.encode(w);
                attr.encode(w);
                value.encode(w);
            }
            DeleteLinkAttribute {
                context,
                link,
                attr,
            } => {
                w.put_u8(23);
                context.encode(w);
                link.encode(w);
                attr.encode(w);
            }
            GetLinkAttributeValue {
                context,
                link,
                attr,
                time,
            } => {
                w.put_u8(24);
                context.encode(w);
                link.encode(w);
                attr.encode(w);
                time.encode(w);
            }
            GetLinkAttributes {
                context,
                link,
                time,
            } => {
                w.put_u8(25);
                context.encode(w);
                link.encode(w);
                time.encode(w);
            }
            SetGraphDemonValue {
                context,
                event,
                demon,
            } => {
                w.put_u8(26);
                context.encode(w);
                encode_event(*event, w);
                demon.encode(w);
            }
            GetGraphDemons { context, time } => {
                w.put_u8(27);
                context.encode(w);
                time.encode(w);
            }
            SetNodeDemon {
                context,
                node,
                event,
                demon,
            } => {
                w.put_u8(28);
                context.encode(w);
                node.encode(w);
                encode_event(*event, w);
                demon.encode(w);
            }
            GetNodeDemons {
                context,
                node,
                time,
            } => {
                w.put_u8(29);
                context.encode(w);
                node.encode(w);
                time.encode(w);
            }
            BeginTransaction => w.put_u8(30),
            CommitTransaction => w.put_u8(31),
            AbortTransaction => w.put_u8(32),
            CreateContext { from } => {
                w.put_u8(33);
                from.encode(w);
            }
            MergeContext { child, policy } => {
                w.put_u8(34);
                child.encode(w);
                encode_policy(*policy, w);
            }
            DestroyContext { id } => {
                w.put_u8(35);
                id.encode(w);
            }
            ListContexts => w.put_u8(36),
            Checkpoint => w.put_u8(37),
            Ping => w.put_u8(38),
            Verify => w.put_u8(39),
            CacheStats => w.put_u8(40),
            Metrics => w.put_u8(41),
            Batch(elements) => {
                w.put_u8(42);
                encode_seq(elements, w);
            }
            // 43 is TRACE_EXT_TAG, reserved for the TracedRequest prefix.
            FlightDump => w.put_u8(44),
            Trace { trace_id } => {
                w.put_u8(45);
                w.put_u64(*trace_id);
            }
            ObsControl { setting } => {
                w.put_u8(46);
                encode_obs_setting(*setting, w);
            }
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        decode_request(r, true)
    }
}

/// [`Request::decode`] body. `allow_batch` is true only at the top level:
/// batch elements may not themselves be batches, and rejecting the tag
/// *during* decode bounds recursion depth against hostile deeply-nested
/// payloads.
fn decode_request(r: &mut Reader<'_>, allow_batch: bool) -> StorageResult<Request> {
    let tag = r.get_u8()?;
    decode_request_tag(r, tag, allow_batch)
}

/// Decode a request whose tag byte has already been consumed — the shape
/// [`TracedRequest::decode`] needs after peeking for [`TRACE_EXT_TAG`].
fn decode_request_tag(r: &mut Reader<'_>, tag: u8, allow_batch: bool) -> StorageResult<Request> {
    {
        use Request::*;
        Ok(match tag {
            0 => AddNode {
                context: ContextId::decode(r)?,
                keep_history: r.get_bool()?,
            },
            1 => DeleteNode {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
            },
            2 => AddLink {
                context: ContextId::decode(r)?,
                from: LinkPt::decode(r)?,
                to: LinkPt::decode(r)?,
            },
            3 => CopyLink {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                time: Time::decode(r)?,
                keep_source: r.get_bool()?,
                pt: LinkPt::decode(r)?,
            },
            4 => DeleteLink {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
            },
            5 => LinearizeGraph {
                context: ContextId::decode(r)?,
                start: NodeIndex::decode(r)?,
                time: Time::decode(r)?,
                node_pred: r.get_str()?.to_owned(),
                link_pred: r.get_str()?.to_owned(),
                node_attrs: decode_seq(r)?,
                link_attrs: decode_seq(r)?,
            },
            6 => GetGraphQuery {
                context: ContextId::decode(r)?,
                time: Time::decode(r)?,
                node_pred: r.get_str()?.to_owned(),
                link_pred: r.get_str()?.to_owned(),
                node_attrs: decode_seq(r)?,
                link_attrs: decode_seq(r)?,
            },
            7 => OpenNode {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                time: Time::decode(r)?,
                attrs: decode_seq(r)?,
            },
            8 => ModifyNode {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                time: Time::decode(r)?,
                contents: r.get_bytes()?.to_vec(),
                link_pts: decode_seq(r)?,
            },
            9 => GetNodeTimeStamp {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
            },
            10 => ChangeNodeProtection {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                protections: Protections::decode(r)?,
            },
            11 => GetNodeVersions {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
            },
            12 => GetNodeDifferences {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                time1: Time::decode(r)?,
                time2: Time::decode(r)?,
            },
            13 => GetToNode {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            14 => GetFromNode {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            15 => GetAttributes {
                context: ContextId::decode(r)?,
                time: Time::decode(r)?,
            },
            16 => GetAttributeValues {
                context: ContextId::decode(r)?,
                attr: AttributeIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            17 => GetAttributeIndex {
                context: ContextId::decode(r)?,
                name: r.get_str()?.to_owned(),
            },
            18 => SetNodeAttributeValue {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                attr: AttributeIndex::decode(r)?,
                value: Value::decode(r)?,
            },
            19 => DeleteNodeAttribute {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                attr: AttributeIndex::decode(r)?,
            },
            20 => GetNodeAttributeValue {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                attr: AttributeIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            21 => GetNodeAttributes {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            22 => SetLinkAttributeValue {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                attr: AttributeIndex::decode(r)?,
                value: Value::decode(r)?,
            },
            23 => DeleteLinkAttribute {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                attr: AttributeIndex::decode(r)?,
            },
            24 => GetLinkAttributeValue {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                attr: AttributeIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            25 => GetLinkAttributes {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            26 => SetGraphDemonValue {
                context: ContextId::decode(r)?,
                event: decode_event(r)?,
                demon: Option::<DemonSpec>::decode(r)?,
            },
            27 => GetGraphDemons {
                context: ContextId::decode(r)?,
                time: Time::decode(r)?,
            },
            28 => SetNodeDemon {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                event: decode_event(r)?,
                demon: Option::<DemonSpec>::decode(r)?,
            },
            29 => GetNodeDemons {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            30 => BeginTransaction,
            31 => CommitTransaction,
            32 => AbortTransaction,
            33 => CreateContext {
                from: ContextId::decode(r)?,
            },
            34 => MergeContext {
                child: ContextId::decode(r)?,
                policy: decode_policy(r)?,
            },
            35 => DestroyContext {
                id: ContextId::decode(r)?,
            },
            36 => ListContexts,
            37 => Checkpoint,
            38 => Ping,
            39 => Verify,
            40 => CacheStats,
            41 => Metrics,
            42 if allow_batch => {
                let count = r.get_u64()? as usize;
                let mut elements = Vec::with_capacity(count.min(r.remaining()));
                for _ in 0..count {
                    elements.push(decode_request(r, false)?);
                }
                Batch(elements)
            }
            44 => FlightDump,
            45 => Trace {
                trace_id: r.get_u64()?,
            },
            46 => ObsControl {
                setting: decode_obs_setting(r)?,
            },
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "Request",
                    tag: tag as u64,
                })
            }
        })
    }
}

/// A [`Request`] plus the optional trace-context extension the server's
/// connection loop decodes.
///
/// Wire compatibility is by construction: an old client's frame starts
/// directly with a `Request` tag and decodes here with `context: None` —
/// the server then originates the trace itself. A new client prefixes the
/// frame with [`TRACE_EXT_TAG`] followed by the context's `(trace_id,
/// span_id)` pair, and the ordinary request after it.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRequest {
    /// The caller's trace context, when the frame carried one.
    pub context: Option<TraceContext>,
    /// The request itself.
    pub request: Request,
}

impl From<Request> for TracedRequest {
    fn from(request: Request) -> TracedRequest {
        TracedRequest {
            context: None,
            request,
        }
    }
}

impl Encode for TracedRequest {
    fn encode(&self, w: &mut Writer) {
        if let Some(ctx) = &self.context {
            w.put_u8(TRACE_EXT_TAG);
            w.put_u64(ctx.trace_id);
            w.put_u64(ctx.span_id);
        }
        self.request.encode(w);
    }
}

impl Decode for TracedRequest {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let tag = r.get_u8()?;
        if tag == TRACE_EXT_TAG {
            let trace_id = r.get_u64()?;
            let span_id = r.get_u64()?;
            let inner = r.get_u8()?;
            Ok(TracedRequest {
                context: Some(TraceContext {
                    trace_id,
                    span_id,
                    parent: None,
                }),
                request: decode_request_tag(r, inner, true)?,
            })
        } else {
            Ok(TracedRequest {
                context: None,
                request: decode_request_tag(r, tag, true)?,
            })
        }
    }
}

fn encode_subgraph(sg: &SubGraph, w: &mut Writer) {
    w.put_u64(sg.nodes.len() as u64);
    for (id, values) in &sg.nodes {
        id.encode(w);
        encode_seq(values, w);
    }
    w.put_u64(sg.links.len() as u64);
    for (id, values) in &sg.links {
        id.encode(w);
        encode_seq(values, w);
    }
}

fn decode_subgraph(r: &mut Reader<'_>) -> StorageResult<SubGraph> {
    let node_count = r.get_u64()? as usize;
    let mut nodes = Vec::with_capacity(node_count.min(r.remaining()));
    for _ in 0..node_count {
        let id = NodeIndex::decode(r)?;
        let values: Vec<Option<Value>> = decode_seq(r)?;
        nodes.push((id, values));
    }
    let link_count = r.get_u64()? as usize;
    let mut links = Vec::with_capacity(link_count.min(r.remaining()));
    for _ in 0..link_count {
        let id = LinkIndex::decode(r)?;
        let values: Vec<Option<Value>> = decode_seq(r)?;
        links.push((id, values));
    }
    Ok(SubGraph { nodes, links })
}

fn encode_merge_report(m: &MergeReport, w: &mut Writer) {
    encode_seq(&m.nodes_added, w);
    encode_seq(&m.links_added, w);
    encode_seq(&m.nodes_modified, w);
    w.put_u64(m.attrs_changed as u64);
    encode_seq(&m.nodes_deleted, w);
    encode_seq(&m.links_deleted, w);
    encode_seq(&m.conflicts, w);
}

// TraceRecord/SpanRecord live in neptune-obs, which knows nothing of the
// storage codec (and the orphan rule bars implementing its traits here),
// so the wire form is spelled out with helper functions.
fn encode_span_record(s: &SpanRecord, w: &mut Writer) {
    w.put_u64(s.span_id);
    match s.parent {
        Some(p) => {
            w.put_bool(true);
            w.put_u64(p);
        }
        None => w.put_bool(false),
    }
    w.put_str(&s.name);
    w.put_str(&s.detail);
    w.put_u64(s.start_ns);
    w.put_u64(s.duration_ns);
}

fn decode_span_record(r: &mut Reader<'_>) -> StorageResult<SpanRecord> {
    Ok(SpanRecord {
        span_id: r.get_u64()?,
        parent: if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        },
        name: r.get_str()?.to_owned().into(),
        detail: r.get_str()?.to_owned().into(),
        start_ns: r.get_u64()?,
        duration_ns: r.get_u64()?,
    })
}

fn encode_trace_record(t: &TraceRecord, w: &mut Writer) {
    w.put_u64(t.trace_id);
    w.put_str(&t.root_name);
    w.put_str(&t.root_detail);
    w.put_u64(t.total_ns);
    w.put_bool(t.error);
    w.put_u64(t.dropped_spans);
    w.put_u64(t.seq);
    w.put_u64(t.spans.len() as u64);
    for s in &t.spans {
        encode_span_record(s, w);
    }
}

fn decode_trace_record(r: &mut Reader<'_>) -> StorageResult<TraceRecord> {
    let trace_id = r.get_u64()?;
    let root_name = r.get_str()?.to_owned().into();
    let root_detail = r.get_str()?.to_owned().into();
    let total_ns = r.get_u64()?;
    let error = r.get_bool()?;
    let dropped_spans = r.get_u64()?;
    let seq = r.get_u64()?;
    let count = r.get_u64()? as usize;
    let mut spans = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        spans.push(decode_span_record(r)?);
    }
    Ok(TraceRecord {
        trace_id,
        root_name,
        root_detail,
        total_ns,
        error,
        dropped_spans,
        seq,
        spans,
    })
}

fn decode_merge_report(r: &mut Reader<'_>) -> StorageResult<MergeReport> {
    Ok(MergeReport {
        nodes_added: decode_seq(r)?,
        links_added: decode_seq(r)?,
        nodes_modified: decode_seq(r)?,
        attrs_changed: r.get_u64()? as usize,
        nodes_deleted: decode_seq(r)?,
        links_deleted: decode_seq(r)?,
        conflicts: decode_seq(r)?,
    })
}

impl Encode for Response {
    fn encode(&self, w: &mut Writer) {
        use Response::*;
        match self {
            Ok => w.put_u8(0),
            NodeCreated(id, t) => {
                w.put_u8(1);
                id.encode(w);
                t.encode(w);
            }
            LinkCreated(id, t) => {
                w.put_u8(2);
                id.encode(w);
                t.encode(w);
            }
            SubGraph(sg) => {
                w.put_u8(3);
                encode_subgraph(sg, w);
            }
            Opened {
                contents,
                link_pts,
                values,
                current_time,
            } => {
                w.put_u8(4);
                // Refcount bump, not a memcpy: the frame writer streams the
                // shared buffer straight to the socket.
                w.put_bytes_shared(contents.clone());
                encode_seq(link_pts, w);
                encode_seq(values, w);
                current_time.encode(w);
            }
            Time(t) => {
                w.put_u8(5);
                t.encode(w);
            }
            Versions(major, minor) => {
                w.put_u8(6);
                encode_seq(major, w);
                encode_seq(minor, w);
            }
            Differences(ds) => {
                w.put_u8(7);
                encode_seq(ds, w);
            }
            NodeAt(id, t) => {
                w.put_u8(8);
                id.encode(w);
                t.encode(w);
            }
            Attributes(items) => {
                w.put_u8(9);
                encode_seq(items, w);
            }
            Values(vs) => {
                w.put_u8(10);
                encode_seq(vs, w);
            }
            AttrIndex(idx) => {
                w.put_u8(11);
                idx.encode(w);
            }
            Value(v) => {
                w.put_u8(12);
                v.encode(w);
            }
            AttrTriples(items) => {
                w.put_u8(13);
                encode_seq(items, w);
            }
            Demons(items) => {
                w.put_u8(14);
                w.put_u64(items.len() as u64);
                for (e, d) in items {
                    encode_event(*e, w);
                    d.encode(w);
                }
            }
            TxnStarted(id) => {
                w.put_u8(15);
                w.put_u64(*id);
            }
            Context(id) => {
                w.put_u8(16);
                id.encode(w);
            }
            Merged(m) => {
                w.put_u8(17);
                encode_merge_report(m, w);
            }
            Contexts(ids) => {
                w.put_u8(18);
                encode_seq(ids, w);
            }
            Error(msg) => {
                w.put_u8(19);
                w.put_str(msg);
            }
            Findings(fs) => {
                w.put_u8(20);
                encode_seq(fs, w);
            }
            CacheStats {
                hits,
                misses,
                entries,
                bytes,
            } => {
                w.put_u8(21);
                w.put_u64(*hits);
                w.put_u64(*misses);
                w.put_u64(*entries);
                w.put_u64(*bytes);
            }
            Metrics(text) => {
                w.put_u8(22);
                w.put_str(text);
            }
            Batch(elements) => {
                w.put_u8(23);
                encode_seq(elements, w);
            }
            Traces(ts) => {
                w.put_u8(24);
                w.put_u64(ts.len() as u64);
                for t in ts {
                    encode_trace_record(t, w);
                }
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        decode_response(r, true)
    }
}

/// [`Response::decode`] body; see [`decode_request`] for the `allow_batch`
/// recursion guard.
fn decode_response(r: &mut Reader<'_>, allow_batch: bool) -> StorageResult<Response> {
    {
        use Response as A;
        Ok(match r.get_u8()? {
            0 => A::Ok,
            1 => A::NodeCreated(NodeIndex::decode(r)?, Time::decode(r)?),
            2 => A::LinkCreated(LinkIndex::decode(r)?, Time::decode(r)?),
            3 => A::SubGraph(decode_subgraph(r)?),
            4 => A::Opened {
                contents: r.get_bytes()?.into(),
                link_pts: decode_seq(r)?,
                values: decode_seq(r)?,
                current_time: Time::decode(r)?,
            },
            5 => A::Time(Time::decode(r)?),
            6 => A::Versions(decode_seq(r)?, decode_seq(r)?),
            7 => A::Differences(decode_seq(r)?),
            8 => A::NodeAt(NodeIndex::decode(r)?, Time::decode(r)?),
            9 => A::Attributes(decode_seq(r)?),
            10 => A::Values(decode_seq(r)?),
            11 => A::AttrIndex(AttributeIndex::decode(r)?),
            12 => A::Value(Value::decode(r)?),
            13 => A::AttrTriples(decode_seq(r)?),
            14 => {
                let count = r.get_u64()? as usize;
                let mut items = Vec::with_capacity(count.min(r.remaining()));
                for _ in 0..count {
                    let e = decode_event(r)?;
                    let d = DemonSpec::decode(r)?;
                    items.push((e, d));
                }
                A::Demons(items)
            }
            15 => A::TxnStarted(r.get_u64()?),
            16 => A::Context(ContextId::decode(r)?),
            17 => A::Merged(decode_merge_report(r)?),
            18 => A::Contexts(decode_seq(r)?),
            19 => A::Error(r.get_str()?.to_owned()),
            20 => A::Findings(decode_seq(r)?),
            21 => A::CacheStats {
                hits: r.get_u64()?,
                misses: r.get_u64()?,
                entries: r.get_u64()?,
                bytes: r.get_u64()?,
            },
            22 => A::Metrics(r.get_str()?.to_owned()),
            23 if allow_batch => {
                let count = r.get_u64()? as usize;
                let mut elements = Vec::with_capacity(count.min(r.remaining()));
                for _ in 0..count {
                    elements.push(decode_response(r, false)?);
                }
                A::Batch(elements)
            }
            24 => {
                let count = r.get_u64()? as usize;
                let mut ts = Vec::with_capacity(count.min(r.remaining()));
                for _ in 0..count {
                    ts.push(decode_trace_record(r)?);
                }
                A::Traces(ts)
            }
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "Response",
                    tag: tag as u64,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let requests = vec![
            Request::AddNode {
                context: ContextId(0),
                keep_history: true,
            },
            Request::DeleteNode {
                context: ContextId(0),
                node: NodeIndex(3),
            },
            Request::AddLink {
                context: ContextId(1),
                from: LinkPt::current(NodeIndex(1), 5),
                to: LinkPt::pinned(NodeIndex(2), 0, Time(3)),
            },
            Request::LinearizeGraph {
                context: ContextId(0),
                start: NodeIndex(1),
                time: Time(0),
                node_pred: "document = spec".into(),
                link_pred: "true".into(),
                node_attrs: vec![AttributeIndex(0)],
                link_attrs: vec![],
            },
            Request::OpenNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(7),
                attrs: vec![AttributeIndex(1), AttributeIndex(2)],
            },
            Request::ModifyNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(7),
                contents: b"body".to_vec(),
                link_pts: vec![LinkPt::current(NodeIndex(1), 3)],
            },
            Request::SetNodeAttributeValue {
                context: ContextId(0),
                node: NodeIndex(1),
                attr: AttributeIndex(0),
                value: Value::str("requirements"),
            },
            Request::SetGraphDemonValue {
                context: ContextId(0),
                event: Event::NodeModified,
                demon: Some(DemonSpec::notify("d", "m")),
            },
            Request::BeginTransaction,
            Request::MergeContext {
                child: ContextId(2),
                policy: ConflictPolicy::PreferChild,
            },
            Request::Ping,
            Request::Verify,
            Request::CacheStats,
            Request::Metrics,
        ];
        for req in requests {
            let decoded = Request::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_roundtrips() {
        let responses = vec![
            Response::Ok,
            Response::NodeCreated(NodeIndex(4), Time(9)),
            Response::SubGraph(SubGraph {
                nodes: vec![(NodeIndex(1), vec![Some(Value::str("x")), None])],
                links: vec![(LinkIndex(2), vec![])],
            }),
            Response::Opened {
                contents: b"text"[..].into(),
                link_pts: vec![LinkPt::current(NodeIndex(1), 0)],
                values: vec![None, Some(Value::Int(3))],
                current_time: Time(12),
            },
            Response::Versions(
                vec![Version::new(Time(1), "created")],
                vec![Version::new(Time(2), "attr")],
            ),
            Response::Differences(vec![Difference::Insertion {
                at: 0,
                new_lines: vec![b"x\n".to_vec()],
            }]),
            Response::Attributes(vec![("doc".into(), AttributeIndex(0))]),
            Response::AttrTriples(vec![("doc".into(), AttributeIndex(0), Value::str("v"))]),
            Response::Demons(vec![(Event::NodeAdded, DemonSpec::notify("n", "m"))]),
            Response::Merged(MergeReport {
                nodes_added: vec![(NodeIndex(5), NodeIndex(9))],
                conflicts: vec!["x".into()],
                attrs_changed: 2,
                ..Default::default()
            }),
            Response::Contexts(vec![ContextId(0), ContextId(3)]),
            Response::Error("boom".into()),
            Response::Findings(vec![Finding::new(
                neptune_check::Severity::Error,
                neptune_check::RULE_DELTA_CHAIN,
                "context 0 node 3",
                "delta at time 4 replays to 65 bytes, head holds 64",
            )]),
            Response::Metrics("# TYPE neptune_server_rpc_ns histogram\n".into()),
        ];
        for resp in responses {
            let decoded = Response::from_bytes(&resp.to_bytes()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn cache_stats_response_roundtrips() {
        let resp = Response::CacheStats {
            hits: 10,
            misses: 3,
            entries: 7,
            bytes: 4096,
        };
        assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
        // Golden bytes: the benchmark and old clients speak exactly this,
        // whichever cache the numbers come from.
        assert_eq!(Request::CacheStats.to_bytes(), [40]);
        assert_eq!(resp.to_bytes(), [21, 10, 3, 7, 0x80, 0x20]);
    }

    #[test]
    fn read_only_classification_spot_checks() {
        assert!(Request::Ping.is_read_only());
        assert!(Request::ListContexts.is_read_only());
        assert!(Request::Verify.is_read_only());
        assert!(Request::CacheStats.is_read_only());
        assert!(Request::Metrics.is_read_only());
        assert!(Request::OpenNode {
            context: ContextId(0),
            node: NodeIndex(1),
            time: Time(0),
            attrs: vec![],
        }
        .is_read_only());
        assert!(!Request::BeginTransaction.is_read_only());
        assert!(!Request::Checkpoint.is_read_only());
        // Interns the attribute name on first use: mutating.
        assert!(!Request::GetAttributeIndex {
            context: ContextId(0),
            name: "document".into(),
        }
        .is_read_only());
        assert!(!Request::ModifyNode {
            context: ContextId(0),
            node: NodeIndex(1),
            time: Time(1),
            contents: vec![],
            link_pts: vec![],
        }
        .is_read_only());
    }

    #[test]
    fn batch_roundtrips_and_classifies() {
        let read_batch = Request::Batch(vec![
            Request::Ping,
            Request::OpenNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(0),
                attrs: vec![AttributeIndex(2)],
            },
            Request::CacheStats,
        ]);
        assert_eq!(
            Request::from_bytes(&read_batch.to_bytes()).unwrap(),
            read_batch
        );
        // A batch is read-only iff every element is.
        assert!(read_batch.is_read_only());
        let write_batch = Request::Batch(vec![
            Request::Ping,
            Request::ModifyNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(1),
                contents: b"x".to_vec(),
                link_pts: vec![],
            },
        ]);
        assert!(!write_batch.is_read_only());
        assert_eq!(
            Request::from_bytes(&write_batch.to_bytes()).unwrap(),
            write_batch
        );
        assert!(Request::Batch(vec![]).is_read_only());

        let response = Response::Batch(vec![
            Response::Ok,
            Response::Error("nope".into()),
            Response::Time(Time(9)),
        ]);
        assert_eq!(
            Response::from_bytes(&response.to_bytes()).unwrap(),
            response
        );
    }

    #[test]
    fn nested_batches_are_rejected_at_decode() {
        // A nested batch would let a hostile frame drive unbounded decode
        // recursion, so the inner tag is refused while decoding.
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Ping])]);
        assert!(matches!(
            Request::from_bytes(&nested.to_bytes()),
            Err(neptune_storage::StorageError::InvalidTag { .. })
        ));
        let nested = Response::Batch(vec![Response::Batch(vec![Response::Ok])]);
        assert!(matches!(
            Response::from_bytes(&nested.to_bytes()),
            Err(neptune_storage::StorageError::InvalidTag { .. })
        ));
    }

    #[test]
    fn request_names_are_unique() {
        let requests = [
            Request::Ping,
            Request::Metrics,
            Request::CacheStats,
            Request::BeginTransaction,
            Request::AddNode {
                context: ContextId(0),
                keep_history: true,
            },
        ];
        let names: std::collections::BTreeSet<&str> = requests.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), requests.len());
        assert_eq!(Request::Metrics.name(), "Metrics");
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(Request::from_bytes(&[99]).is_err());
        assert!(Response::from_bytes(&[99]).is_err());
        // The trace-extension tag is not a Request tag: a plain decoder
        // (an old server) rejects a prefixed frame rather than misparsing.
        assert!(Request::from_bytes(&[TRACE_EXT_TAG]).is_err());
    }

    #[test]
    fn obs_requests_roundtrip_and_classify() {
        let requests = vec![
            Request::FlightDump,
            Request::Trace { trace_id: 0xdead },
            Request::ObsControl {
                setting: ObsSetting::SlowOpMs(Some(25)),
            },
            Request::ObsControl {
                setting: ObsSetting::SlowOpMs(None),
            },
            Request::ObsControl {
                setting: ObsSetting::Enabled(false),
            },
        ];
        for req in requests {
            let decoded = Request::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(decoded, req);
            assert!(
                req.is_read_only(),
                "{} must take the shared path",
                req.name()
            );
        }
        assert_eq!(Request::FlightDump.name(), "FlightDump");
        assert_eq!(Request::Trace { trace_id: 1 }.name(), "Trace");
        assert_eq!(
            Request::ObsControl {
                setting: ObsSetting::Enabled(true)
            }
            .name(),
            "ObsControl"
        );
    }

    #[test]
    fn traces_response_roundtrips() {
        let resp = Response::Traces(vec![TraceRecord {
            trace_id: 0xfeed,
            root_name: "server.rpc".into(),
            root_detail: "OpenNode".into(),
            total_ns: 1_234_567,
            error: true,
            dropped_spans: 2,
            seq: 9,
            spans: vec![
                SpanRecord {
                    span_id: 11,
                    parent: None,
                    name: "server.rpc".into(),
                    detail: "OpenNode".into(),
                    start_ns: 0,
                    duration_ns: 1_234_567,
                },
                SpanRecord {
                    span_id: 12,
                    parent: Some(11),
                    name: "view.read_node".into(),
                    detail: "ctx0 node3".into(),
                    start_ns: 400,
                    duration_ns: 1_000_000,
                },
            ],
        }]);
        assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
        let empty = Response::Traces(vec![]);
        assert_eq!(Response::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn traced_request_roundtrips_and_accepts_legacy_frames() {
        // With a context: the extension prefix rides ahead of the request.
        let traced = TracedRequest {
            context: Some(TraceContext {
                trace_id: 0xaaaa,
                span_id: 0xbbbb,
                parent: None,
            }),
            request: Request::Ping,
        };
        let decoded = TracedRequest::from_bytes(&traced.to_bytes()).unwrap();
        assert_eq!(decoded, traced);

        // Without a context the wire form IS the plain request encoding —
        // byte-identical, so old servers keep accepting new no-context
        // clients too.
        let bare = TracedRequest::from(Request::Metrics);
        assert_eq!(bare.to_bytes(), Request::Metrics.to_bytes());

        // An old client's plain frame decodes with context: None.
        let legacy = Request::OpenNode {
            context: ContextId(0),
            node: NodeIndex(1),
            time: Time(0),
            attrs: vec![],
        };
        let decoded = TracedRequest::from_bytes(&legacy.to_bytes()).unwrap();
        assert_eq!(decoded.context, None);
        assert_eq!(decoded.request, legacy);

        // Batches decode through the traced path as well.
        let traced_batch = TracedRequest {
            context: Some(TraceContext {
                trace_id: 7,
                span_id: 8,
                parent: None,
            }),
            request: Request::Batch(vec![Request::Ping, Request::CacheStats]),
        };
        assert_eq!(
            TracedRequest::from_bytes(&traced_batch.to_bytes()).unwrap(),
            traced_batch
        );
    }
}
