//! The HAM's two query mechanisms.
//!
//! Paper §3: *"Two basic query mechanisms are supported by the HAM:
//! traversal and query. The traversal mechanism, `linearizeGraph`, starts at
//! a designated node and follows a depth-first traversal of out-links
//! ordered by the links' offsets within the node. The associative query
//! mechanism, `getGraphQuery`, directly accesses a set of nodes and their
//! interconnecting links. Both of these mechanisms use predicates based on
//! attribute/value pairs to determine which nodes and links satisfy the
//! query."*

use std::collections::HashSet;

use crate::error::Result;
use crate::graph::HamGraph;
use crate::predicate::Predicate;
use crate::types::{AttributeIndex, LinkIndex, NodeIndex, Time};
use crate::value::Value;

/// A sub-graph returned by `linearizeGraph` or `getGraphQuery`: per the
/// appendix, `(NodeIndex × Value^m)* × (LinkIndex × Value^n)*` — each node
/// with its requested attribute values, each link likewise. Attributes the
/// object does not carry come back as `None`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SubGraph {
    /// Nodes in result order (traversal preorder for `linearizeGraph`,
    /// index order for `getGraphQuery`), with requested attribute values.
    pub nodes: Vec<(NodeIndex, Vec<Option<Value>>)>,
    /// Links connecting result nodes, with requested attribute values.
    pub links: Vec<(LinkIndex, Vec<Option<Value>>)>,
}

impl SubGraph {
    /// Just the node indices, in result order.
    pub fn node_ids(&self) -> Vec<NodeIndex> {
        self.nodes.iter().map(|(id, _)| *id).collect()
    }

    /// Just the link indices, in result order.
    pub fn link_ids(&self) -> Vec<LinkIndex> {
        self.links.iter().map(|(id, _)| *id).collect()
    }
}

fn node_matches(graph: &HamGraph, id: NodeIndex, time: Time, pred: &Predicate) -> bool {
    match graph.node(id) {
        Ok(n) if n.exists_at(time) => {
            let lookup = graph.node_attr_lookup(&n.attrs, time);
            pred.matches(&lookup)
        }
        _ => false,
    }
}

fn link_matches(graph: &HamGraph, id: LinkIndex, time: Time, pred: &Predicate) -> bool {
    match graph.link(id) {
        Ok(l) if l.exists_at(time) => {
            let lookup = graph.node_attr_lookup(&l.attrs, time);
            pred.matches(&lookup)
        }
        _ => false,
    }
}

fn node_values(
    graph: &HamGraph,
    id: NodeIndex,
    time: Time,
    attrs: &[AttributeIndex],
) -> Vec<Option<Value>> {
    let node = graph.node(id).expect("node existence checked by caller");
    attrs
        .iter()
        .map(|a| node.attrs.get(*a, time).cloned())
        .collect()
}

fn link_values(
    graph: &HamGraph,
    id: LinkIndex,
    time: Time,
    attrs: &[AttributeIndex],
) -> Vec<Option<Value>> {
    let link = graph.link(id).expect("link existence checked by caller");
    attrs
        .iter()
        .map(|a| link.attrs.get(*a, time).cloned())
        .collect()
}

/// `linearizeGraph`: depth-first traversal from `start` at `time`.
///
/// Out-links of each visited node are followed in order of their offset
/// within the node's contents (ties broken by link index, for determinism);
/// only links satisfying `link_pred` are traversed, only nodes satisfying
/// `node_pred` are entered. Cycles are handled by visiting each node once,
/// in preorder.
#[allow(clippy::too_many_arguments)]
pub fn linearize_graph(
    graph: &HamGraph,
    start: NodeIndex,
    time: Time,
    node_pred: &Predicate,
    link_pred: &Predicate,
    node_attrs: &[AttributeIndex],
    link_attrs: &[AttributeIndex],
) -> Result<SubGraph> {
    let mut result = SubGraph::default();
    if !node_matches(graph, start, time, node_pred) {
        // The start node itself is filtered out: empty result, matching the
        // appendix's "each of the nodes … satisfies Predicate₁".
        graph.live_node(start, time)?; // but a missing node is an error
        return Ok(result);
    }

    let mut visited: HashSet<NodeIndex> = HashSet::new();
    let mut stack: Vec<NodeIndex> = vec![start];
    while let Some(current) = stack.pop() {
        if !visited.insert(current) {
            continue;
        }
        result
            .nodes
            .push((current, node_values(graph, current, time, node_attrs)));

        // Out-links of `current` alive at `time`, passing the link
        // predicate, ordered by attachment offset within the node.
        let node = graph.node(current)?;
        let mut outgoing: Vec<(u64, LinkIndex, NodeIndex)> = Vec::new();
        for &link_id in &node.incident_links {
            let link = graph.link(link_id)?;
            if link.from.node != current || !link.exists_at(time) {
                continue;
            }
            if !link_matches(graph, link_id, time, link_pred) {
                continue;
            }
            let Some(offset) = link.from.position_at(time) else {
                continue;
            };
            outgoing.push((offset, link_id, link.to.node));
        }
        outgoing.sort_by_key(|(offset, id, _)| (*offset, *id));

        // Push in reverse so the lowest-offset link is traversed first.
        for (_, link_id, target) in outgoing.iter().rev() {
            if !node_matches(graph, *target, time, node_pred) {
                continue;
            }
            result
                .links
                .push((*link_id, link_values(graph, *link_id, time, link_attrs)));
            if !visited.contains(target) {
                stack.push(*target);
            }
        }
    }
    // Links were gathered in reverse per node; restore offset order.
    // (Re-sorting globally by result-node order then offset is what a
    // document extraction expects.)
    result.links.reverse();
    let order: std::collections::HashMap<NodeIndex, usize> = result
        .nodes
        .iter()
        .enumerate()
        .map(|(i, (id, _))| (*id, i))
        .collect();
    result.links.sort_by_key(|(id, _)| {
        let link = graph.link(*id).expect("collected above");
        let from_order = order.get(&link.from.node).copied().unwrap_or(usize::MAX);
        let offset = link.from.position_at(time).unwrap_or(u64::MAX);
        (from_order, offset, *id)
    });
    result.links.dedup_by_key(|(id, _)| *id);
    Ok(result)
}

/// `getGraphQuery`: associative access. Returns all nodes at `time`
/// satisfying `node_pred`, plus every link at `time` that satisfies
/// `link_pred` **and** connects two nodes in the result.
///
/// When `node_pred` contains an `attr = literal` conjunct and the query is
/// at the current time, the attribute value index narrows the candidate set
/// instead of scanning every node (ablated by experiment E3 via
/// [`get_graph_query_scan`]).
pub fn get_graph_query(
    graph: &HamGraph,
    time: Time,
    node_pred: &Predicate,
    link_pred: &Predicate,
    node_attrs: &[AttributeIndex],
    link_attrs: &[AttributeIndex],
) -> Result<SubGraph> {
    let candidates: Vec<NodeIndex> = match node_pred.index_hint() {
        Some((attr_name, value)) if time.is_current() => {
            match graph.attr_table.lookup(attr_name) {
                Some(attr) => graph
                    .value_index()
                    .lookup(attr, value)
                    .into_iter()
                    .filter(|(kind, _)| *kind == crate::attributes::ObjKind::Node)
                    .map(|(_, id)| NodeIndex(id))
                    .collect(),
                // Unknown attribute: nothing can carry it.
                None => Vec::new(),
            }
        }
        // No usable index hint: candidates are every node the temporal
        // index says was created by `time` (all of them for CURRENT) —
        // historical queries over deep graphs skip objects that postdate
        // the asked time instead of probing every archive.
        _ => graph.nodes_created_by(time),
    };
    query_from_candidates(
        graph, candidates, time, node_pred, link_pred, node_attrs, link_attrs,
    )
}

/// `getGraphQuery` forced to scan every node — the E3 ablation baseline.
pub fn get_graph_query_scan(
    graph: &HamGraph,
    time: Time,
    node_pred: &Predicate,
    link_pred: &Predicate,
    node_attrs: &[AttributeIndex],
    link_attrs: &[AttributeIndex],
) -> Result<SubGraph> {
    let candidates: Vec<NodeIndex> = graph.nodes().map(|n| n.id).collect();
    query_from_candidates(
        graph, candidates, time, node_pred, link_pred, node_attrs, link_attrs,
    )
}

fn query_from_candidates(
    graph: &HamGraph,
    mut candidates: Vec<NodeIndex>,
    time: Time,
    node_pred: &Predicate,
    link_pred: &Predicate,
    node_attrs: &[AttributeIndex],
    link_attrs: &[AttributeIndex],
) -> Result<SubGraph> {
    candidates.sort_unstable();
    candidates.dedup();
    let mut result = SubGraph::default();
    let mut in_result: HashSet<NodeIndex> = HashSet::new();
    for id in candidates {
        if node_matches(graph, id, time, node_pred) {
            in_result.insert(id);
            result
                .nodes
                .push((id, node_values(graph, id, time, node_attrs)));
        }
    }
    // Links, pruned by creation time like the nodes above; result order is
    // by link index, so sort (the temporal index yields creation order and
    // may repeat an id reused across a rollback).
    let mut link_ids = graph.links_created_by(time);
    link_ids.sort_unstable();
    link_ids.dedup();
    for id in link_ids {
        let Ok(link) = graph.link(id) else {
            continue;
        };
        if !link.exists_at(time) {
            continue;
        }
        if !in_result.contains(&link.from.node) || !in_result.contains(&link.to.node) {
            continue;
        }
        if link_matches(graph, link.id, time, link_pred) {
            result
                .links
                .push((link.id, link_values(graph, link.id, time, link_attrs)));
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{LinkPt, ProjectId};
    use std::sync::atomic::AtomicU64;

    /// Build the paper-style document tree:
    ///
    /// ```text
    ///        root
    ///       /    \      (offsets: 10, 20)
    ///    sec1    sec2
    ///     |        \    (offset 5)  (offset 7)
    ///    sub1      sub2
    /// ```
    fn document_graph() -> (HamGraph, Vec<NodeIndex>) {
        let mut g = HamGraph::new(ProjectId(1));
        let clock = AtomicU64::new(1);
        let doc = g.attribute_index("document", &clock);
        let icon = g.attribute_index("icon", &clock);
        let rel = g.attribute_index("relation", &clock);
        let mut ids = Vec::new();
        for name in ["root", "sec1", "sec2", "sub1", "sub2"] {
            let (id, _) = g.add_node(true, &clock);
            g.set_node_attr(id, doc, Value::str("paper"), &clock)
                .unwrap();
            g.set_node_attr(id, icon, Value::str(name), &clock).unwrap();
            ids.push(id);
        }
        let edges = [(0usize, 1usize, 10u64), (0, 2, 20), (1, 3, 5), (2, 4, 7)];
        for (from, to, offset) in edges {
            let (l, _) = g
                .add_link(
                    LinkPt::current(ids[from], offset),
                    LinkPt::current(ids[to], 0),
                    &clock,
                )
                .unwrap();
            g.set_link_attr(l, rel, Value::str("isPartOf"), &clock)
                .unwrap();
        }
        (g, ids)
    }

    #[test]
    fn linearize_visits_depth_first_in_offset_order() {
        let (g, ids) = document_graph();
        let result = linearize_graph(
            &g,
            ids[0],
            Time::CURRENT,
            &Predicate::True,
            &Predicate::True,
            &[],
            &[],
        )
        .unwrap();
        assert_eq!(
            result.node_ids(),
            vec![ids[0], ids[1], ids[3], ids[2], ids[4]]
        );
        assert_eq!(result.links.len(), 4);
    }

    #[test]
    fn linearize_respects_link_predicate() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        // Add a cross-reference link that should not be traversed.
        let rel = g.attribute_index("relation", &clock);
        let (xref, _) = g
            .add_link(
                LinkPt::current(ids[0], 1),
                LinkPt::current(ids[4], 0),
                &clock,
            )
            .unwrap();
        g.set_link_attr(xref, rel, Value::str("references"), &clock)
            .unwrap();

        let only_structure = Predicate::parse("relation = isPartOf").unwrap();
        let result = linearize_graph(
            &g,
            ids[0],
            Time::CURRENT,
            &Predicate::True,
            &only_structure,
            &[],
            &[],
        )
        .unwrap();
        assert_eq!(
            result.node_ids(),
            vec![ids[0], ids[1], ids[3], ids[2], ids[4]]
        );
        assert!(!result.link_ids().contains(&xref));
    }

    #[test]
    fn linearize_filters_nodes() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        let skip = g.attribute_index("skip", &clock);
        g.set_node_attr(ids[2], skip, Value::Bool(true), &clock)
            .unwrap();
        let pred = Predicate::parse("not exists(skip)").unwrap();
        let result =
            linearize_graph(&g, ids[0], Time::CURRENT, &pred, &Predicate::True, &[], &[]).unwrap();
        // sec2 and everything below it disappears.
        assert_eq!(result.node_ids(), vec![ids[0], ids[1], ids[3]]);
    }

    #[test]
    fn linearize_handles_cycles() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        // sub1 -> root creates a cycle.
        g.add_link(
            LinkPt::current(ids[3], 0),
            LinkPt::current(ids[0], 0),
            &clock,
        )
        .unwrap();
        let result = linearize_graph(
            &g,
            ids[0],
            Time::CURRENT,
            &Predicate::True,
            &Predicate::True,
            &[],
            &[],
        )
        .unwrap();
        assert_eq!(result.nodes.len(), 5, "each node visited once");
    }

    #[test]
    fn linearize_returns_requested_attributes() {
        let (g, ids) = document_graph();
        let icon = g.attr_table.lookup("icon").unwrap();
        let missing = AttributeIndex(99);
        let result = linearize_graph(
            &g,
            ids[0],
            Time::CURRENT,
            &Predicate::True,
            &Predicate::True,
            &[icon, missing],
            &[],
        )
        .unwrap();
        assert_eq!(result.nodes[0].1, vec![Some(Value::str("root")), None]);
        assert_eq!(result.nodes[1].1[0], Some(Value::str("sec1")));
    }

    #[test]
    fn linearize_missing_start_is_error() {
        let (g, _) = document_graph();
        assert!(linearize_graph(
            &g,
            NodeIndex(99),
            Time::CURRENT,
            &Predicate::True,
            &Predicate::True,
            &[],
            &[]
        )
        .is_err());
    }

    #[test]
    fn query_returns_matching_nodes_and_connecting_links() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        // Tag a subset.
        let kind = g.attribute_index("kind", &clock);
        g.set_node_attr(ids[0], kind, Value::str("sec"), &clock)
            .unwrap();
        g.set_node_attr(ids[1], kind, Value::str("sec"), &clock)
            .unwrap();
        g.set_node_attr(ids[2], kind, Value::str("sec"), &clock)
            .unwrap();
        let pred = Predicate::parse("kind = sec").unwrap();
        let result = get_graph_query(&g, Time::CURRENT, &pred, &Predicate::True, &[], &[]).unwrap();
        assert_eq!(result.node_ids(), vec![ids[0], ids[1], ids[2]]);
        // Only root->sec1 and root->sec2 connect two result nodes.
        assert_eq!(result.links.len(), 2);
    }

    #[test]
    fn query_index_and_scan_agree() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        let kind = g.attribute_index("kind", &clock);
        for &id in &ids[..3] {
            g.set_node_attr(id, kind, Value::str("sec"), &clock)
                .unwrap();
        }
        let pred = Predicate::parse("kind = sec and exists(icon)").unwrap();
        let fast = get_graph_query(&g, Time::CURRENT, &pred, &Predicate::True, &[], &[]).unwrap();
        let slow =
            get_graph_query_scan(&g, Time::CURRENT, &pred, &Predicate::True, &[], &[]).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.nodes.len(), 3);
    }

    #[test]
    fn query_at_historical_time() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        let t_before = g.now();
        let status = g.attribute_index("status", &clock);
        g.set_node_attr(ids[0], status, Value::str("final"), &clock)
            .unwrap();
        let pred = Predicate::parse("status = final").unwrap();
        let now = get_graph_query(&g, Time::CURRENT, &pred, &Predicate::True, &[], &[]).unwrap();
        assert_eq!(now.nodes.len(), 1);
        let before = get_graph_query(&g, t_before, &pred, &Predicate::True, &[], &[]).unwrap();
        assert!(before.nodes.is_empty());
    }

    #[test]
    fn historical_query_prunes_late_objects_but_agrees_with_scan() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        let t_mid = g.now();
        // Objects created after t_mid: the temporal index must exclude
        // them from historical candidates without changing any result.
        for _ in 0..10 {
            let (n, _) = g.add_node(true, &clock);
            g.add_link(LinkPt::current(ids[0], 1), LinkPt::current(n, 0), &clock)
                .unwrap();
        }
        let fast =
            get_graph_query(&g, t_mid, &Predicate::True, &Predicate::True, &[], &[]).unwrap();
        let slow =
            get_graph_query_scan(&g, t_mid, &Predicate::True, &Predicate::True, &[], &[]).unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.nodes.len(), 5);
        assert_eq!(fast.links.len(), 4);
        assert_eq!(g.nodes_created_by(t_mid).len(), 5);
        assert_eq!(g.nodes_created_by(Time::CURRENT).len(), 15);
    }

    #[test]
    fn query_excludes_deleted_objects() {
        let (mut g, ids) = document_graph();
        let clock = AtomicU64::new(g.now().0);
        let t_before = g.now();
        g.delete_node(ids[1], &clock).unwrap();
        let all = get_graph_query(
            &g,
            Time::CURRENT,
            &Predicate::True,
            &Predicate::True,
            &[],
            &[],
        )
        .unwrap();
        assert_eq!(all.nodes.len(), 4);
        // Links into the deleted node are gone too.
        assert_eq!(all.links.len(), 2);
        // But the old time still sees everything.
        let before =
            get_graph_query(&g, t_before, &Predicate::True, &Predicate::True, &[], &[]).unwrap();
        assert_eq!(before.nodes.len(), 5);
        assert_eq!(before.links.len(), 4);
    }

    #[test]
    fn query_unknown_attribute_in_hint_yields_empty() {
        let (g, _) = document_graph();
        let pred = Predicate::parse("nonexistent = whatever").unwrap();
        let result = get_graph_query(&g, Time::CURRENT, &pred, &Predicate::True, &[], &[]).unwrap();
        assert!(result.nodes.is_empty());
    }
}
