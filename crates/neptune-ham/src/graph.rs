//! The hypergraph: the complete versioned state of one Neptune database.
//!
//! A [`HamGraph`] owns the nodes, links, attribute vocabulary, graph-level
//! demons, and the derived value index. It is a purely in-memory,
//! single-writer structure that keeps no clock of its own: every operation
//! takes its version time as a [`Stamp`], drawn from the store clock every
//! context shares. The [`crate::ham::Ham`] facade layers transactions,
//! durability, demon firing, and the appendix operation signatures on top.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use neptune_storage::codec::{decode_seq, encode_seq, Decode, Encode, Reader, Writer};
use neptune_storage::error::Result as StorageResult;

use crate::attributes::{AttrMap, AttributeTable, ObjKind, ValueIndex};
use crate::demons::{DemonSpec, DemonTable, Event};
use crate::error::{HamError, Result};
use crate::history::{TemporalIndex, Versioned};
use crate::link::Link;
use crate::node::{no_node_files, Node, NodeFileLoader};
use crate::pmap::Pam;
use crate::types::{AttributeIndex, LinkIndex, LinkPt, NodeIndex, ProjectId, Time, Version};
use crate::value::Value;

/// Where a graph operation gets its version time: from the store clock,
/// drawn only once the operation has validated (the live path), or as a
/// time already assigned (replay passes the logged time; a merge stamps
/// everything it writes with its one time).
pub trait Stamp {
    /// The time the operation records.
    fn stamp(self) -> Time;
}

impl Stamp for Time {
    fn stamp(self) -> Time {
        self
    }
}

/// The store clock: one counter for every context on every shard, holding
/// the newest time it has issued. It never rewinds, so no time is issued
/// twice, and an aborted operation's time is simply never used. `Relaxed`
/// suffices: the counter publishes no other data. A time is drawn and
/// written into a graph under that graph's shard lock, and whoever reads
/// the graph holds the lock or loads a view published under it.
impl Stamp for &AtomicU64 {
    fn stamp(self) -> Time {
        Time(self.fetch_add(1, Ordering::Relaxed) + 1)
    }
}

/// The complete versioned state of a hyperdata graph.
///
/// Cloning one — which every commit does, once, to the context it touches,
/// because the published view holds the old graph — is a handful of
/// refcount bumps whatever the graph's size: the object maps and the value
/// index are persistent tries, and the tables below that only change when
/// the graph's *shape* does (a node or link is created, a name interned, a
/// graph version or demon recorded) sit behind `Arc`s and are copied by
/// the operation that changes them, not by the one that edits a node.
#[derive(Debug, Clone)]
pub struct HamGraph {
    /// Unique identification of this graph.
    pub project_id: ProjectId,
    /// Creation time (always `Time(1)`).
    pub created: Time,
    /// The newest time recorded in this graph.
    clock: u64,
    next_node: u64,
    next_link: u64,
    /// All nodes ever created, keyed by `NodeIndex.0`. Persistent/COW so
    /// graph clones (snapshot publication, context forks, transaction
    /// save-state) are O(1) and mutation copies only the touched path.
    nodes: Pam<Node>,
    /// All links ever created, keyed by `LinkIndex.0`; persistent like
    /// `nodes`.
    links: Pam<Link>,
    /// Graph-wide attribute name registry.
    pub attr_table: Arc<AttributeTable>,
    /// Graph-level demons.
    pub graph_demons: Arc<DemonTable>,
    graph_versions: Arc<Vec<Version>>,
    value_index: ValueIndex,
    temporal_index: Arc<TemporalIndex>,
}

impl PartialEq for HamGraph {
    fn eq(&self, other: &Self) -> bool {
        // The value and temporal indexes are derived state; compare
        // canonical state only.
        self.project_id == other.project_id
            && self.created == other.created
            && self.clock == other.clock
            && self.next_node == other.next_node
            && self.next_link == other.next_link
            && self.nodes == other.nodes
            && self.links == other.links
            && self.attr_table == other.attr_table
            && self.graph_demons == other.graph_demons
            && self.graph_versions == other.graph_versions
    }
}

impl HamGraph {
    /// Create an empty graph. The creation consumes logical time 1.
    pub fn new(project_id: ProjectId) -> HamGraph {
        HamGraph {
            project_id,
            created: Time(1),
            clock: 1,
            next_node: 1,
            next_link: 1,
            nodes: Pam::new(),
            links: Pam::new(),
            attr_table: Arc::default(),
            graph_demons: Arc::default(),
            graph_versions: Arc::new(vec![Version::new(Time(1), "graph created")]),
            value_index: ValueIndex::new(),
            temporal_index: Arc::default(),
        }
    }

    // ----- clock -----

    /// The newest time recorded in this graph: its creation, or its latest
    /// change. Other contexts may have drawn later times from the store
    /// clock since.
    pub fn now(&self) -> Time {
        Time(self.clock)
    }

    /// Note a change at `now`, returning it.
    fn record(&mut self, now: Time) -> Time {
        self.clock = self.clock.max(now.0);
        now
    }

    // ----- object access -----

    /// The node with index `id`, regardless of liveness.
    pub fn node(&self, id: NodeIndex) -> Result<&Node> {
        self.nodes.get(id.0).ok_or(HamError::NoSuchNode(id))
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeIndex) -> Result<&mut Node> {
        self.nodes.get_mut(id.0).ok_or(HamError::NoSuchNode(id))
    }

    /// The node, checked to exist (not deleted) at `time`.
    pub fn live_node(&self, id: NodeIndex, time: Time) -> Result<&Node> {
        let n = self.node(id)?;
        if n.exists_at(time) {
            Ok(n)
        } else {
            Err(HamError::NoSuchNode(id))
        }
    }

    /// The link with index `id`, regardless of liveness.
    pub fn link(&self, id: LinkIndex) -> Result<&Link> {
        self.links.get(id.0).ok_or(HamError::NoSuchLink(id))
    }

    /// Mutable access to a link.
    pub fn link_mut(&mut self, id: LinkIndex) -> Result<&mut Link> {
        self.links.get_mut(id.0).ok_or(HamError::NoSuchLink(id))
    }

    /// The link, checked to exist (not deleted) at `time`.
    pub fn live_link(&self, id: LinkIndex, time: Time) -> Result<&Link> {
        let l = self.link(id)?;
        if l.exists_at(time) {
            Ok(l)
        } else {
            Err(HamError::NoSuchLink(id))
        }
    }

    /// Iterate all nodes ever created, in index order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        let mut v: Vec<&Node> = self.nodes.values().collect();
        v.sort_by_key(|n| n.id);
        v.into_iter()
    }

    /// Iterate all links ever created, in index order.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        let mut v: Vec<&Link> = self.links.values().collect();
        v.sort_by_key(|l| l.id);
        v.into_iter()
    }

    /// Number of nodes alive at the current time.
    pub fn live_node_count(&self) -> usize {
        self.nodes
            .values()
            .filter(|n| n.exists_at(Time::CURRENT))
            .count()
    }

    /// Number of links alive at the current time.
    pub fn live_link_count(&self) -> usize {
        self.links
            .values()
            .filter(|l| l.exists_at(Time::CURRENT))
            .count()
    }

    // ----- structural mutation -----

    /// Create a node; `keep_history` selects archive vs file storage.
    pub fn add_node(&mut self, keep_history: bool, now: impl Stamp) -> (NodeIndex, Time) {
        self.add_node_holding(keep_history, Vec::new(), now)
    }

    /// Create a node whose first version holds `contents`: a merge brings
    /// a node made in the child over with its contents, at its one time.
    pub fn add_node_holding(
        &mut self,
        keep_history: bool,
        contents: impl Into<Arc<[u8]>>,
        now: impl Stamp,
    ) -> (NodeIndex, Time) {
        let now = self.record(now.stamp());
        let id = NodeIndex(self.next_node);
        self.next_node += 1;
        self.nodes
            .insert(id.0, Node::new(id, now, keep_history, contents));
        Arc::make_mut(&mut self.temporal_index).record_node(now, id.0);
        (id, now)
    }

    /// Delete a node: records its death and that of every incident link
    /// (paper: "All links into or out of the node are deleted").
    pub fn delete_node(&mut self, id: NodeIndex, now: impl Stamp) -> Result<Time> {
        if !self.node(id)?.exists_at(Time::CURRENT) {
            return Err(HamError::NoSuchNode(id));
        }
        let now = self.record(now.stamp());
        let incident = self.node(id)?.incident_links.clone();
        for link_id in incident {
            let remove_pairs = {
                let link = self.links.get_mut(link_id.0).expect("incident link exists");
                if link.exists_at(Time::CURRENT) {
                    link.alive.delete(now);
                    link.attrs.all_at(Time::CURRENT)
                } else {
                    Vec::new()
                }
            };
            for (attr, value) in remove_pairs {
                self.value_index
                    .remove((ObjKind::Link, link_id.0), attr, &value);
            }
        }
        let remove_pairs = {
            let node = self.nodes.get_mut(id.0).expect("checked above");
            node.alive.delete(now);
            node.attrs.all_at(Time::CURRENT)
        };
        for (attr, value) in remove_pairs {
            self.value_index.remove((ObjKind::Node, id.0), attr, &value);
        }
        Ok(now)
    }

    /// Create a link between two `LinkPt`s.
    ///
    /// Validates the paper's precondition: "The from and to nodes must
    /// exist at their respective times."
    pub fn add_link(
        &mut self,
        from: LinkPt,
        to: LinkPt,
        now: impl Stamp,
    ) -> Result<(LinkIndex, Time)> {
        self.validate_endpoint(&from)?;
        self.validate_endpoint(&to)?;
        let now = self.record(now.stamp());
        let id = LinkIndex(self.next_link);
        self.next_link += 1;
        self.insert_link(Link::new(id, from, to, now), now);
        Ok((id, now))
    }

    fn insert_link(&mut self, link: Link, now: Time) {
        let id = link.id;
        let from_node = link.from.node;
        let to_node = link.to.node;
        self.links.insert(id.0, link);
        Arc::make_mut(&mut self.temporal_index).record_link(now, id.0);
        if let Some(n) = self.nodes.get_mut(from_node.0) {
            n.attach_link(id);
            n.record_minor(now, "link added");
        }
        if to_node != from_node {
            if let Some(n) = self.nodes.get_mut(to_node.0) {
                n.attach_link(id);
                n.record_minor(now, "link added");
            }
        }
    }

    fn validate_endpoint(&self, pt: &LinkPt) -> Result<()> {
        let node = self.node(pt.node).map_err(|_| HamError::BadEndpoint {
            node: pt.node,
            time: pt.time,
        })?;
        let check_time = if pt.track_current {
            Time::CURRENT
        } else {
            pt.time
        };
        if !node.exists_at(check_time) || node.resolve_content_time(check_time).is_err() {
            return Err(HamError::BadEndpoint {
                node: pt.node,
                time: pt.time,
            });
        }
        Ok(())
    }

    /// Delete a link (records its death; history is preserved).
    pub fn delete_link(&mut self, id: LinkIndex, now: impl Stamp) -> Result<Time> {
        if !self.link(id)?.exists_at(Time::CURRENT) {
            return Err(HamError::NoSuchLink(id));
        }
        let now = self.record(now.stamp());
        let remove_pairs = {
            let link = self.links.get_mut(id.0).expect("checked above");
            link.alive.delete(now);
            link.attrs.all_at(Time::CURRENT)
        };
        for (attr, value) in remove_pairs {
            self.value_index.remove((ObjKind::Link, id.0), attr, &value);
        }
        let (from_node, to_node) = {
            let link = self.link(id)?;
            (link.from.node, link.to.node)
        };
        if let Some(n) = self.nodes.get_mut(from_node.0) {
            n.record_minor(now, "link deleted");
        }
        if to_node != from_node {
            if let Some(n) = self.nodes.get_mut(to_node.0) {
                n.record_minor(now, "link deleted");
            }
        }
        Ok(now)
    }

    // ----- attributes -----

    /// Intern an attribute name — `getAttributeIndex`. Only a new name
    /// takes a time.
    pub fn attribute_index(&mut self, name: &str, now: impl Stamp) -> AttributeIndex {
        if let Some(idx) = self.attr_table.lookup(name) {
            return idx;
        }
        let now = self.record(now.stamp());
        Arc::make_mut(&mut self.attr_table).intern(name, now)
    }

    /// Set a node attribute, maintaining the value index and minor history.
    pub fn set_node_attr(
        &mut self,
        id: NodeIndex,
        attr: AttributeIndex,
        value: Value,
        now: impl Stamp,
    ) -> Result<Time> {
        self.attr_name(attr)?; // validate the index exists
        if !self.node(id)?.exists_at(Time::CURRENT) {
            return Err(HamError::NoSuchNode(id));
        }
        let now = self.record(now.stamp());
        let node = self.nodes.get_mut(id.0).expect("checked above");
        let old = node.attrs.get(attr, Time::CURRENT).cloned();
        node.attrs.set(attr, value.clone(), now);
        node.record_minor(now, "attribute set");
        self.value_index
            .update((ObjKind::Node, id.0), attr, old.as_ref(), &value);
        Ok(now)
    }

    /// Delete a node attribute.
    pub fn delete_node_attr(
        &mut self,
        id: NodeIndex,
        attr: AttributeIndex,
        now: impl Stamp,
    ) -> Result<Time> {
        self.attr_name(attr)?;
        let node = self.live_node(id, Time::CURRENT)?;
        let old_value =
            node.attrs
                .get(attr, Time::CURRENT)
                .cloned()
                .ok_or(HamError::AttributeNotSet {
                    attribute: attr,
                    time: Time::CURRENT,
                })?;
        let now = self.record(now.stamp());
        let node = self.nodes.get_mut(id.0).expect("checked above");
        node.attrs.delete(attr, now);
        node.record_minor(now, "attribute deleted");
        self.value_index
            .remove((ObjKind::Node, id.0), attr, &old_value);
        Ok(now)
    }

    /// Set a link attribute.
    pub fn set_link_attr(
        &mut self,
        id: LinkIndex,
        attr: AttributeIndex,
        value: Value,
        now: impl Stamp,
    ) -> Result<Time> {
        self.attr_name(attr)?;
        if !self.link(id)?.exists_at(Time::CURRENT) {
            return Err(HamError::NoSuchLink(id));
        }
        let now = self.record(now.stamp());
        let link = self.links.get_mut(id.0).expect("checked above");
        let old = link.attrs.get(attr, Time::CURRENT).cloned();
        link.attrs.set(attr, value.clone(), now);
        link.record_version(now, "attribute set");
        self.value_index
            .update((ObjKind::Link, id.0), attr, old.as_ref(), &value);
        Ok(now)
    }

    /// Delete a link attribute.
    pub fn delete_link_attr(
        &mut self,
        id: LinkIndex,
        attr: AttributeIndex,
        now: impl Stamp,
    ) -> Result<Time> {
        self.attr_name(attr)?;
        let link = self.live_link(id, Time::CURRENT)?;
        let old_value =
            link.attrs
                .get(attr, Time::CURRENT)
                .cloned()
                .ok_or(HamError::AttributeNotSet {
                    attribute: attr,
                    time: Time::CURRENT,
                })?;
        let now = self.record(now.stamp());
        let link = self.links.get_mut(id.0).expect("checked above");
        link.attrs.delete(attr, now);
        link.record_version(now, "attribute deleted");
        self.value_index
            .remove((ObjKind::Link, id.0), attr, &old_value);
        Ok(now)
    }

    /// Check `contents` into node `id` — the content half of `modifyNode`,
    /// and how a merge brings a child's contents over.
    pub fn check_in(
        &mut self,
        id: NodeIndex,
        contents: impl Into<Arc<[u8]>>,
        now: impl Stamp,
        explanation: &str,
    ) -> Result<Time> {
        let node = self.nodes.get_mut(id.0).ok_or(HamError::NoSuchNode(id))?;
        let now = now.stamp();
        node.modify(contents, now, explanation)?;
        Ok(self.record(now))
    }

    // ----- demons -----

    /// Set (or with `None` clear) the graph-level demon for `event`.
    pub fn set_graph_demon(
        &mut self,
        event: Event,
        demon: Option<DemonSpec>,
        now: impl Stamp,
    ) -> Time {
        let now = self.record(now.stamp());
        Arc::make_mut(&mut self.graph_demons).set(event, demon, now);
        now
    }

    /// Set (or with `None` clear) node `id`'s demon for `event`.
    pub fn set_node_demon(
        &mut self,
        id: NodeIndex,
        event: Event,
        demon: Option<DemonSpec>,
        now: impl Stamp,
    ) -> Result<Time> {
        self.live_node(id, Time::CURRENT)?;
        let now = self.record(now.stamp());
        let node = self.node_mut(id)?;
        node.demons.set(event, demon, now);
        node.record_minor(now, "demon set");
        Ok(now)
    }

    /// Resolve an attribute index to its name.
    pub fn attr_name(&self, attr: AttributeIndex) -> Result<&str> {
        self.attr_table
            .name(attr)
            .ok_or(HamError::NoSuchAttribute(attr))
    }

    /// All values of `attr` across all live nodes and links at `time` —
    /// `getAttributeValues`. Uses the value index at the current time and
    /// scans for historical times.
    pub fn attribute_values(&self, attr: AttributeIndex, time: Time) -> Result<Vec<Value>> {
        self.attr_name(attr)?;
        if time.is_current() {
            return Ok(self.value_index.current_values(attr));
        }
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        // Historical scan, pruned by the temporal index: objects created
        // after `time` cannot carry a value at `time`.
        let node_vals = self
            .nodes_created_by(time)
            .into_iter()
            .filter_map(|id| self.nodes.get(id.0))
            .filter(|n| n.exists_at(time))
            .filter_map(|n| n.attrs.get(attr, time));
        let link_vals = self
            .links_created_by(time)
            .into_iter()
            .filter_map(|id| self.links.get(id.0))
            .filter(|l| l.exists_at(time))
            .filter_map(|l| l.attrs.get(attr, time));
        for v in node_vals.chain(link_vals) {
            let key = crate::value::value_index_key(v);
            if seen.insert(key) {
                out.push(v.clone());
            }
        }
        out.sort_by(crate::value::value_index_key_cmp);
        Ok(out)
    }

    /// The value-index accelerator (query planner hook).
    pub fn value_index(&self) -> &ValueIndex {
        &self.value_index
    }

    /// Evaluate `lookup(name)` for predicate evaluation on a node at `time`.
    pub fn node_attr_lookup<'a>(
        &'a self,
        attrs: &'a AttrMap,
        time: Time,
    ) -> impl Fn(&str) -> Option<Value> + 'a {
        move |name: &str| {
            let idx = self.attr_table.lookup(name)?;
            attrs.get(idx, time).cloned()
        }
    }

    // ----- graph versions -----

    /// Record a graph-level version entry.
    pub fn record_graph_version(&mut self, time: Time, explanation: &str) {
        self.record(time);
        Arc::make_mut(&mut self.graph_versions).push(Version::new(time, explanation));
    }

    /// The graph's version history.
    pub fn graph_versions(&self) -> &[Version] {
        &self.graph_versions
    }

    /// This graph holding only the listed nodes and links (ids it lacks are
    /// skipped). The clock, id counters, attribute table, demons and graph
    /// versions are this graph's; the derived indexes cover what is kept.
    pub(crate) fn restricted_to(
        &self,
        nodes: impl IntoIterator<Item = NodeIndex>,
        links: impl IntoIterator<Item = LinkIndex>,
    ) -> HamGraph {
        let mut graph = HamGraph {
            project_id: self.project_id,
            created: self.created,
            clock: self.clock,
            next_node: self.next_node,
            next_link: self.next_link,
            nodes: nodes
                .into_iter()
                .filter_map(|id| Some((id.0, self.nodes.get(id.0)?.clone())))
                .collect(),
            links: links
                .into_iter()
                .filter_map(|id| Some((id.0, self.links.get(id.0)?.clone())))
                .collect(),
            attr_table: Arc::clone(&self.attr_table),
            graph_demons: Arc::clone(&self.graph_demons),
            graph_versions: Arc::clone(&self.graph_versions),
            value_index: ValueIndex::new(),
            temporal_index: Arc::default(),
        };
        graph.rebuild_value_index();
        graph.rebuild_temporal_index();
        graph
    }

    /// Rebuild the derived value index from canonical state.
    pub fn rebuild_value_index(&mut self) {
        let mut index = ValueIndex::new();
        for n in self.nodes.values() {
            if n.exists_at(Time::CURRENT) {
                for (attr, value) in n.attrs.all_at(Time::CURRENT) {
                    index.update((ObjKind::Node, n.id.0), attr, None, &value);
                }
            }
        }
        for l in self.links.values() {
            if l.exists_at(Time::CURRENT) {
                for (attr, value) in l.attrs.all_at(Time::CURRENT) {
                    index.update((ObjKind::Link, l.id.0), attr, None, &value);
                }
            }
        }
        self.value_index = index;
    }

    /// Rebuild the derived temporal index from canonical creation times.
    pub fn rebuild_temporal_index(&mut self) {
        let nodes = self.nodes.values().map(|n| (n.created, n.id.0)).collect();
        let links = self.links.values().map(|l| (l.created, l.id.0)).collect();
        self.temporal_index = Arc::new(TemporalIndex::from_records(nodes, links));
    }

    /// The temporal-index accelerator (query planner hook).
    pub fn temporal_index(&self) -> &TemporalIndex {
        &self.temporal_index
    }

    /// Candidate nodes for a read at `time`: every node created at or
    /// before `time` (for `CURRENT`, every node). A conservative superset —
    /// callers still filter with `exists_at` — but it skips objects the
    /// clock proves cannot exist yet, so deep-history graphs answer
    /// historical queries without probing every archive ever created.
    pub fn nodes_created_by(&self, time: Time) -> Vec<NodeIndex> {
        let ids = self.temporal_index.nodes_created_by(time);
        observe_temporal_pruned(self.temporal_index.len().0 - ids.len());
        ids.into_iter().map(NodeIndex).collect()
    }

    /// Candidate links for a read at `time`; see [`Self::nodes_created_by`].
    pub fn links_created_by(&self, time: Time) -> Vec<LinkIndex> {
        let ids = self.temporal_index.links_created_by(time);
        observe_temporal_pruned(self.temporal_index.len().1 - ids.len());
        ids.into_iter().map(LinkIndex).collect()
    }
}

/// Count objects a historical read skipped thanks to the temporal index.
fn observe_temporal_pruned(pruned: usize) {
    if pruned == 0 || !neptune_obs::enabled() {
        return;
    }
    static PRUNED: std::sync::OnceLock<std::sync::Arc<neptune_obs::Counter>> =
        std::sync::OnceLock::new();
    PRUNED
        .get_or_init(|| neptune_obs::registry().counter("neptune_ham_temporal_pruned_total"))
        .add(pruned as u64);
}

impl HamGraph {
    /// Encode the graph; with `node_files`, every node's contents as a
    /// reference to its node file (a snapshot's MAIN) rather than inline.
    pub(crate) fn encode_with(&self, w: &mut Writer, node_files: bool) {
        self.project_id.encode(w);
        self.created.encode(w);
        w.put_u64(self.clock);
        w.put_u64(self.next_node);
        w.put_u64(self.next_link);
        let mut node_ids: Vec<&Node> = self.nodes.values().collect();
        node_ids.sort_by_key(|n| n.id);
        w.put_u64(node_ids.len() as u64);
        for n in node_ids {
            n.encode_with(w, node_files);
        }
        let mut link_ids: Vec<&Link> = self.links.values().collect();
        link_ids.sort_by_key(|l| l.id);
        w.put_u64(link_ids.len() as u64);
        for l in link_ids {
            l.encode(w);
        }
        self.attr_table.encode(w);
        self.graph_demons.encode(w);
        encode_seq(&self.graph_versions, w);
    }

    /// Decode a graph, loading the contents its nodes name by file through
    /// `load`.
    pub(crate) fn decode_with(
        r: &mut Reader<'_>,
        load: &mut NodeFileLoader<'_>,
    ) -> StorageResult<Self> {
        let project_id = ProjectId::decode(r)?;
        let created = Time::decode(r)?;
        let clock = r.get_u64()?;
        let next_node = r.get_u64()?;
        let next_link = r.get_u64()?;
        let node_count = r.get_u64()? as usize;
        let mut nodes = Pam::new();
        for _ in 0..node_count {
            let n = Node::decode_with(r, load)?;
            nodes.insert(n.id.0, n);
        }
        let link_count = r.get_u64()? as usize;
        let mut links = Pam::new();
        for _ in 0..link_count {
            let l = Link::decode(r)?;
            links.insert(l.id.0, l);
        }
        let mut graph = HamGraph {
            project_id,
            created,
            clock,
            next_node,
            next_link,
            nodes,
            links,
            attr_table: Arc::new(AttributeTable::decode(r)?),
            graph_demons: Arc::new(DemonTable::decode(r)?),
            graph_versions: Arc::new(decode_seq(r)?),
            value_index: ValueIndex::new(),
            temporal_index: Arc::default(),
        };
        graph.rebuild_value_index();
        graph.rebuild_temporal_index();
        Ok(graph)
    }
}

impl Encode for HamGraph {
    fn encode(&self, w: &mut Writer) {
        self.encode_with(w, false);
    }
}

impl Decode for HamGraph {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Self::decode_with(r, &mut no_node_files)
    }
}

/// Versioned existence helper shared by query code: whether an optional
/// versioned bool is true at `time`.
pub fn versioned_alive(alive: &Versioned<bool>, time: Time) -> bool {
    alive.get_at(time).copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph with two archive nodes, and the store clock it draws from
    /// (at 1, the graph's creation).
    fn graph_with_two_nodes() -> (HamGraph, AtomicU64, NodeIndex, NodeIndex) {
        let mut g = HamGraph::new(ProjectId(1));
        let clock = AtomicU64::new(1);
        let (a, _) = g.add_node(true, &clock);
        let (b, _) = g.add_node(true, &clock);
        (g, clock, a, b)
    }

    #[test]
    fn add_node_assigns_sequential_ids_and_times() {
        let (g, _, a, b) = graph_with_two_nodes();
        assert_eq!(a, NodeIndex(1));
        assert_eq!(b, NodeIndex(2));
        assert_eq!(g.node(a).unwrap().created, Time(2));
        assert_eq!(g.node(b).unwrap().created, Time(3));
        assert_eq!(g.live_node_count(), 2);
    }

    #[test]
    fn add_link_validates_endpoints() {
        let (mut g, clock, a, b) = graph_with_two_nodes();
        let ok = g.add_link(LinkPt::current(a, 0), LinkPt::current(b, 0), &clock);
        assert!(ok.is_ok());
        let err = g.add_link(
            LinkPt::current(a, 0),
            LinkPt::current(NodeIndex(99), 0),
            &clock,
        );
        assert!(matches!(err, Err(HamError::BadEndpoint { .. })));
        // Pinned endpoint to a time before the node existed fails.
        let err = g.add_link(LinkPt::pinned(a, 0, Time(1)), LinkPt::current(b, 0), &clock);
        assert!(matches!(err, Err(HamError::BadEndpoint { .. })));
    }

    #[test]
    fn delete_node_cascades_to_links() {
        let (mut g, clock, a, b) = graph_with_two_nodes();
        let (l, _) = g
            .add_link(LinkPt::current(a, 0), LinkPt::current(b, 0), &clock)
            .unwrap();
        let t_before = g.now();
        g.delete_node(a, &clock).unwrap();
        assert!(!g.node(a).unwrap().exists_at(Time::CURRENT));
        assert!(!g.link(l).unwrap().exists_at(Time::CURRENT));
        // History preserved: both visible at the earlier time.
        assert!(g.node(a).unwrap().exists_at(t_before));
        assert!(g.link(l).unwrap().exists_at(t_before));
        // Double delete errors.
        assert!(g.delete_node(a, &clock).is_err());
    }

    #[test]
    fn attribute_set_get_and_index() {
        let (mut g, clock, a, _) = graph_with_two_nodes();
        let doc = g.attribute_index("document", &clock);
        g.set_node_attr(a, doc, Value::str("requirements"), &clock)
            .unwrap();
        let hits = g.value_index().lookup(doc, &Value::str("requirements"));
        assert_eq!(hits, vec![(ObjKind::Node, a.0)]);
        let vals = g.attribute_values(doc, Time::CURRENT).unwrap();
        assert_eq!(vals, vec![Value::str("requirements")]);
        // Update moves the index entry.
        g.set_node_attr(a, doc, Value::str("design"), &clock)
            .unwrap();
        assert!(g
            .value_index()
            .lookup(doc, &Value::str("requirements"))
            .is_empty());
        assert_eq!(g.value_index().lookup(doc, &Value::str("design")).len(), 1);
    }

    #[test]
    fn attribute_values_at_historical_time_scan() {
        let (mut g, clock, a, b) = graph_with_two_nodes();
        let doc = g.attribute_index("document", &clock);
        g.set_node_attr(a, doc, Value::str("v1"), &clock).unwrap();
        let t1 = g.now();
        g.set_node_attr(a, doc, Value::str("v2"), &clock).unwrap();
        g.set_node_attr(b, doc, Value::str("v2"), &clock).unwrap();
        let at_t1 = g.attribute_values(doc, t1).unwrap();
        assert_eq!(at_t1, vec![Value::str("v1")]);
        let now = g.attribute_values(doc, Time::CURRENT).unwrap();
        assert_eq!(now, vec![Value::str("v2")]);
    }

    #[test]
    fn delete_attr_requires_value() {
        let (mut g, clock, a, _) = graph_with_two_nodes();
        let attr = g.attribute_index("x", &clock);
        assert!(matches!(
            g.delete_node_attr(a, attr, &clock),
            Err(HamError::AttributeNotSet { .. })
        ));
        g.set_node_attr(a, attr, Value::Int(1), &clock).unwrap();
        g.delete_node_attr(a, attr, &clock).unwrap();
        assert!(g.node(a).unwrap().attrs.get(attr, Time::CURRENT).is_none());
    }

    #[test]
    fn unknown_attribute_index_rejected() {
        let (mut g, clock, a, _) = graph_with_two_nodes();
        assert!(matches!(
            g.set_node_attr(a, AttributeIndex(42), Value::Int(1), &clock),
            Err(HamError::NoSuchAttribute(_))
        ));
    }

    #[test]
    fn codec_roundtrip() {
        let (mut g, clock, a, b) = graph_with_two_nodes();
        let doc = g.attribute_index("document", &clock);
        g.set_node_attr(a, doc, Value::str("requirements"), &clock)
            .unwrap();
        g.add_link(LinkPt::current(a, 3), LinkPt::current(b, 0), &clock)
            .unwrap();
        g.check_in(a, b"section one\n".to_vec(), Time(99), "edit")
            .unwrap();
        assert_eq!(g.now(), Time(99));
        let decoded = HamGraph::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(decoded, g);
        // Derived index was rebuilt on decode.
        assert_eq!(
            decoded
                .value_index()
                .lookup(doc, &Value::str("requirements"))
                .len(),
            1
        );
    }

    #[test]
    fn forced_inserts_respect_ids() {
        // Replay forces the logged time; ids still come from the counter.
        let mut g = HamGraph::new(ProjectId(9));
        assert_eq!(g.add_node(true, Time(7)), (NodeIndex(1), Time(7)));
        assert_eq!(g.now(), Time(7));
        let (next, _) = g.add_node(true, &AtomicU64::new(7));
        assert_eq!(next, NodeIndex(2));
        assert_eq!(g.now(), Time(8));
    }

    #[test]
    fn self_link_is_allowed() {
        let (mut g, clock, a, _) = graph_with_two_nodes();
        let (l, _) = g
            .add_link(LinkPt::current(a, 0), LinkPt::current(a, 5), &clock)
            .unwrap();
        assert_eq!(g.node(a).unwrap().incident_links, vec![l]);
    }
}
