//! Immutable committed snapshots of the HAM, and the shared read core.
//!
//! [`CommittedView`] is the artifact the lock-free read path serves from:
//! at every commit the writer hands the machine's context threads to a new
//! view — one refcount bump per context, because each thread sits behind an
//! `Arc` the view shares until the next commit to that context copies it
//! (cheaply: [`crate::graph::HamGraph`]'s maps are persistent tries and a
//! node's history is shared between its copies) — and publishes it through
//! [`crate::epoch::Published`]. Readers grab the current view with one
//! atomic load and keep reading it for as long as they like; the graph
//! inside never changes. Reclamation is plain `Arc` refcounting: a
//! superseded view lives exactly as long as its last holder.
//!
//! [`ReadCore`] is the one implementation of every read-only HAM
//! operation. Both entry points delegate to it:
//!
//! * [`crate::ham::Ham`]'s inherent read methods (live state, exclusive
//!   path — the transaction owner's read-your-writes view), and
//! * [`CommittedView`]'s inherent read methods (pinned snapshot,
//!   lock-free path).
//!
//! The two differ only in which threads they borrow. Historical contents
//! come from each node's own archive, whose anchor cache is the only
//! version cache there is: a view's archives are never mutated under it
//! (the tries are copy-on-write), so no read through either entry point can
//! see bytes from another world (DESIGN.md §9).

use std::path::{Path, PathBuf};
use std::time::Instant;

use neptune_storage::diff::Difference;

use crate::demons::{DemonSpec, Event};
use crate::error::{HamError, Result};
use crate::graph::HamGraph;
use crate::ham::{canonical_attachments, endpoint_version, resolve_attr_names};
use crate::ham::{OpenedNode, Threads};
use crate::predicate::Predicate;
use crate::query::{get_graph_query, get_graph_query_scan, linearize_graph, SubGraph};
use crate::types::{AttributeIndex, ContextId, LinkIndex, NodeIndex, Time, Version};
use crate::value::Value;

/// The read-only core shared by the live machine and published views: a
/// borrowed set of context threads.
pub(crate) struct ReadCore<'a> {
    pub(crate) threads: &'a Threads,
}

impl<'a> ReadCore<'a> {
    pub(crate) fn graph(&self, context: ContextId) -> Result<&'a HamGraph> {
        self.threads
            .get(&context)
            .map(|t| &t.graph)
            .ok_or(HamError::NoSuchContext(context))
    }

    pub(crate) fn contexts(&self) -> Vec<ContextId> {
        let mut ids: Vec<ContextId> = self.threads.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    pub(crate) fn context_forked_from(
        &self,
        context: ContextId,
    ) -> Result<Option<(ContextId, Time)>> {
        self.threads
            .get(&context)
            .map(|t| t.forked_from)
            .ok_or(HamError::NoSuchContext(context))
    }

    pub(crate) fn read_node(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: &[AttributeIndex],
    ) -> Result<OpenedNode> {
        let graph = self.graph(context)?;
        let n = graph.live_node(node, time)?;
        let contents = n.contents_at(time)?;
        let link_pts = canonical_attachments(graph, node, time)?
            .into_iter()
            .map(|(_, _, pt)| pt)
            .collect();
        let values = attrs
            .iter()
            .map(|a| n.attrs.get(*a, time).cloned())
            .collect();
        Ok(OpenedNode {
            contents,
            link_pts,
            values,
            current_time: n.current_time(),
        })
    }

    /// Whether any demon is registered for `event` (graph-level, or on the
    /// specific node).
    pub(crate) fn demon_registered(
        &self,
        context: ContextId,
        event: Event,
        node: Option<NodeIndex>,
    ) -> bool {
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

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn linearize_graph(
        &self,
        context: ContextId,
        start: NodeIndex,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let graph = self.graph(context)?;
        linearize_graph(
            graph, start, time, node_pred, link_pred, node_attrs, link_attrs,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_graph_query(
        &self,
        context: ContextId,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let graph = self.graph(context)?;
        get_graph_query(graph, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_graph_query_scan(
        &self,
        context: ContextId,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let graph = self.graph(context)?;
        get_graph_query_scan(graph, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    pub(crate) fn get_node_time_stamp(&self, context: ContextId, node: NodeIndex) -> Result<Time> {
        Ok(self
            .graph(context)?
            .live_node(node, Time::CURRENT)?
            .current_time())
    }

    pub(crate) fn get_node_versions(
        &self,
        context: ContextId,
        node: NodeIndex,
    ) -> Result<(Vec<Version>, Vec<Version>)> {
        Ok(self.graph(context)?.node(node)?.versions())
    }

    pub(crate) fn get_node_differences(
        &self,
        context: ContextId,
        node: NodeIndex,
        time1: Time,
        time2: Time,
    ) -> Result<Vec<Difference>> {
        let graph = self.graph(context)?;
        let n = graph.node(node)?;
        let old = n.contents_at(time1)?;
        let new = n.contents_at(time2)?;
        Ok(neptune_storage::diff::differences(&old, &new))
    }

    pub(crate) fn get_to_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        let graph = self.graph(context)?;
        let l = graph.live_link(link, time1)?;
        endpoint_version(graph, &l.to, time1)
    }

    pub(crate) fn get_from_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        let graph = self.graph(context)?;
        let l = graph.live_link(link, time1)?;
        endpoint_version(graph, &l.from, time1)
    }

    pub(crate) fn get_attributes(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex)>> {
        Ok(self.graph(context)?.attr_table.attributes_at(time))
    }

    pub(crate) fn get_attribute_values(
        &self,
        context: ContextId,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Vec<Value>> {
        self.graph(context)?.attribute_values(attr, time)
    }

    pub(crate) fn get_node_attribute_value(
        &self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        let graph = self.graph(context)?;
        graph.attr_name(attr)?;
        graph
            .node(node)?
            .attrs
            .get(attr, time)
            .cloned()
            .ok_or(HamError::AttributeNotSet {
                attribute: attr,
                time,
            })
    }

    pub(crate) fn get_node_attributes(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        let graph = self.graph(context)?;
        let n = graph.node(node)?;
        Ok(resolve_attr_names(graph, n.attrs.all_at(time)))
    }

    pub(crate) fn get_link_attribute_value(
        &self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        let graph = self.graph(context)?;
        graph.attr_name(attr)?;
        graph
            .link(link)?
            .attrs
            .get(attr, time)
            .cloned()
            .ok_or(HamError::AttributeNotSet {
                attribute: attr,
                time,
            })
    }

    pub(crate) fn get_link_attributes(
        &self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        let graph = self.graph(context)?;
        let l = graph.link(link)?;
        Ok(resolve_attr_names(graph, l.attrs.all_at(time)))
    }

    pub(crate) fn get_graph_demons(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        Ok(self.graph(context)?.graph_demons.all_at(time))
    }

    pub(crate) fn get_node_demons(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        Ok(self.graph(context)?.node(node)?.demons.all_at(time))
    }
}

/// An immutable snapshot of the committed HAM state, published at every
/// commit and loaded by readers with one atomic load (see the module
/// docs). All read-only HAM operations are available directly on the view.
pub struct CommittedView {
    epoch: u64,
    /// Global commit sequence of the last durable commit folded into this
    /// view (0 for a freshly created store). Per-shard epochs are local;
    /// this sequence is what orders publishes *across* shards, so
    /// cross-shard readers can assemble a consistent cut (see
    /// [`crate::shard`]).
    commit_seq: u64,
    /// Shard identity `(index, count)` of the machine that published this
    /// view; `(0, 1)` for unsharded stores. Invariant checkers use it to
    /// skip fork-topology rules whose parent context lives on another
    /// shard.
    shard: (u32, u32),
    directory: PathBuf,
    threads: Threads,
    published_at: Instant,
}

impl std::fmt::Debug for CommittedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommittedView")
            .field("epoch", &self.epoch)
            .field("contexts", &self.threads.len())
            .finish()
    }
}

impl CommittedView {
    pub(crate) fn new(
        epoch: u64,
        commit_seq: u64,
        shard: (u32, u32),
        threads: &Threads,
        directory: PathBuf,
    ) -> CommittedView {
        CommittedView {
            epoch,
            commit_seq,
            shard,
            directory,
            // One refcount bump per context: the view and the machine hold
            // the same threads until a commit copies the one it writes.
            threads: threads.clone(),
            published_at: Instant::now(),
        }
    }

    fn core(&self) -> ReadCore<'_> {
        ReadCore {
            threads: &self.threads,
        }
    }

    /// Invariant checkers (same crate) walk the raw threads.
    pub(crate) fn threads(&self) -> &Threads {
        &self.threads
    }

    /// Whether this view and `other` hold the very same copy of
    /// `context`, as two views do when no commit between them touched it.
    /// For tests of what a publish shares.
    #[doc(hidden)]
    pub fn shares_context_with(&self, other: &CommittedView, context: ContextId) -> bool {
        match (self.threads.get(&context), other.threads.get(&context)) {
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The publication epoch this view was installed at (monotonic across
    /// the machine's lifetime, starting at 1 for the freshly opened state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The global commit sequence of the last commit folded into this view
    /// (0 until the first commit). Monotonic per shard; unique across
    /// shards except for cross-shard transactions, whose participants all
    /// stamp the same sequence.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Shard identity `(index, count)` of the publishing machine.
    pub(crate) fn shard(&self) -> (u32, u32) {
        self.shard
    }

    /// How long ago this view was published — the staleness a reader still
    /// holding it observes.
    pub fn age(&self) -> std::time::Duration {
        self.published_at.elapsed()
    }

    /// The graph directory (for file-level verification).
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// Read-only access to a context's graph as of this snapshot.
    pub fn graph(&self, context: ContextId) -> Result<&HamGraph> {
        self.core().graph(context)
    }

    /// All live context ids as of this snapshot (the main context first).
    pub fn contexts(&self) -> Vec<ContextId> {
        self.core().contexts()
    }

    /// Where `context` was forked from; see [`crate::ham::Ham::context_forked_from`].
    pub fn context_forked_from(&self, context: ContextId) -> Result<Option<(ContextId, Time)>> {
        self.core().context_forked_from(context)
    }

    /// Whether opening `node` would fire a `nodeOpened` demon — in which
    /// case the request must bounce to the exclusive path, where demons
    /// can run.
    pub fn open_demon_registered(&self, context: ContextId, node: NodeIndex) -> bool {
        self.core()
            .demon_registered(context, Event::NodeOpened, Some(node))
    }

    /// The read-only core of `openNode` against this snapshot; see
    /// [`crate::ham::Ham::read_node`].
    pub fn read_node(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: &[AttributeIndex],
    ) -> Result<OpenedNode> {
        let _span = neptune_obs::span!("view.read_node", "context {} node {}", context.0, node.0);
        self.core().read_node(context, node, time, attrs)
    }

    /// `linearizeGraph` against this snapshot; see [`crate::ham::Ham::linearize_graph`].
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
        let _span = neptune_obs::span!("view.linearize_graph", "context {}", context.0);
        self.core().linearize_graph(
            context, start, time, node_pred, link_pred, node_attrs, link_attrs,
        )
    }

    /// `getGraphQuery` against this snapshot; see [`crate::ham::Ham::get_graph_query`].
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
        let _span = neptune_obs::span!("view.get_graph_query", "context {}", context.0);
        self.core()
            .get_graph_query(context, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    /// `getNodeTimeStamp` against this snapshot.
    pub fn get_node_time_stamp(&self, context: ContextId, node: NodeIndex) -> Result<Time> {
        self.core().get_node_time_stamp(context, node)
    }

    /// `getNodeVersions` against this snapshot.
    pub fn get_node_versions(
        &self,
        context: ContextId,
        node: NodeIndex,
    ) -> Result<(Vec<Version>, Vec<Version>)> {
        self.core().get_node_versions(context, node)
    }

    /// `getNodeDifferences` against this snapshot.
    pub fn get_node_differences(
        &self,
        context: ContextId,
        node: NodeIndex,
        time1: Time,
        time2: Time,
    ) -> Result<Vec<Difference>> {
        self.core()
            .get_node_differences(context, node, time1, time2)
    }

    /// `getToNode` against this snapshot.
    pub fn get_to_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        self.core().get_to_node(context, link, time1)
    }

    /// `getFromNode` against this snapshot.
    pub fn get_from_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        self.core().get_from_node(context, link, time1)
    }

    /// `getAttributes` against this snapshot.
    pub fn get_attributes(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex)>> {
        self.core().get_attributes(context, time)
    }

    /// `getAttributeValues` against this snapshot.
    pub fn get_attribute_values(
        &self,
        context: ContextId,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Vec<Value>> {
        self.core().get_attribute_values(context, attr, time)
    }

    /// `getNodeAttributeValue` against this snapshot.
    pub fn get_node_attribute_value(
        &self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        self.core()
            .get_node_attribute_value(context, node, attr, time)
    }

    /// `getNodeAttributes` against this snapshot.
    pub fn get_node_attributes(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        self.core().get_node_attributes(context, node, time)
    }

    /// `getLinkAttributeValue` against this snapshot.
    pub fn get_link_attribute_value(
        &self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        self.core()
            .get_link_attribute_value(context, link, attr, time)
    }

    /// `getLinkAttributes` against this snapshot.
    pub fn get_link_attributes(
        &self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        self.core().get_link_attributes(context, link, time)
    }

    /// `getGraphDemons` against this snapshot.
    pub fn get_graph_demons(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        self.core().get_graph_demons(context, time)
    }

    /// `getNodeDemons` against this snapshot.
    pub fn get_node_demons(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        self.core().get_node_demons(context, node, time)
    }
}
