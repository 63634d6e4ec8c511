//! Contexts: multiple version threads ("private worlds").
//!
//! Paper §5: *"there is frequently the need for an individual to try out
//! tentative designs in that individual's own 'private world' and then
//! eventually to merge the chosen design back with the main design
//! database. … We have designed, and are currently implementing, a scheme
//! for multiple version threads that allows multiple simultaneous contexts
//! to exist in a given Neptune database."* This module implements that
//! extension: a context is forked from a parent graph at a fork time,
//! evolves independently, and can later be merged back.
//!
//! Merging folds the child's **current state of change** back into the
//! parent: nodes/links created in the child are added (with fresh parent
//! ids), contents and attributes modified in the child are applied, and
//! deletions propagate. Where both threads changed the same thing since the
//! fork, the [`ConflictPolicy`] decides. The child's internal version
//! history remains in the child thread — the parent records the merge as
//! ordinary new versions, exactly as a designer "merging the chosen design
//! back" would check it in, all at the merge's one time.
//!
//! Every time in every context comes from one store clock, so a version
//! is "since the fork" exactly when its time is past the fork point, in
//! the child and in the parent alike.

use std::collections::{HashMap, HashSet};

use crate::error::{HamError, Result};
use crate::graph::HamGraph;
use crate::types::{LinkIndex, LinkPt, NodeIndex, Time};

/// What to do when both version threads changed the same object since the
/// fork point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// Refuse the merge, reporting the first conflict (default).
    #[default]
    Fail,
    /// The child's change wins.
    PreferChild,
    /// The parent's state wins (the child's conflicting change is dropped).
    PreferParent,
}

/// Summary of what a merge did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Nodes created in the child and added to the parent, with the id they
    /// received in the parent.
    pub nodes_added: Vec<(NodeIndex, NodeIndex)>,
    /// Links created in the child and added to the parent.
    pub links_added: Vec<(LinkIndex, LinkIndex)>,
    /// Pre-fork nodes whose contents were updated from the child.
    pub nodes_modified: Vec<NodeIndex>,
    /// Pre-fork objects whose attributes were updated from the child.
    pub attrs_changed: usize,
    /// Nodes deleted in the parent because the child deleted them.
    pub nodes_deleted: Vec<NodeIndex>,
    /// Links (pre-fork) deleted in the parent because the child deleted them.
    pub links_deleted: Vec<LinkIndex>,
    /// Conflicts encountered and how they were resolved (empty under
    /// `ConflictPolicy::Fail`, which aborts on the first one).
    pub conflicts: Vec<String>,
}

/// Merge `child` (forked from `parent` at `fork_time`) into `parent`,
/// stamping everything the merge writes with `now`: a merge is one event,
/// so no read at a past time sees half of it. `now` must be past every
/// version either graph holds, and becomes the child's next fork point.
///
/// On `Err`, `parent` may have been partially modified; callers (the Ham
/// facade) run merges inside a transaction so failure rolls back cleanly.
pub fn merge_context(
    parent: &mut HamGraph,
    child: &HamGraph,
    fork_time: Time,
    policy: ConflictPolicy,
    now: Time,
) -> Result<MergeReport> {
    let mut report = MergeReport::default();
    let mut node_map: HashMap<NodeIndex, NodeIndex> = HashMap::new();

    // Pass 1: nodes created in the child since the fork get fresh parent ids.
    let mut child_new_nodes: Vec<&crate::node::Node> =
        child.nodes().filter(|n| n.created > fork_time).collect();
    child_new_nodes.sort_by_key(|n| n.id);
    for cnode in &child_new_nodes {
        if !cnode.exists_at(Time::CURRENT) {
            continue; // created and deleted inside the private world
        }
        let contents = cnode.contents_at(Time::CURRENT)?;
        let (new_id, _) = parent.add_node_holding(cnode.is_archive(), contents, now);
        node_map.insert(cnode.id, new_id);
        report.nodes_added.push((cnode.id, new_id));
        for (attr, value) in cnode.attrs.all_at(Time::CURRENT) {
            if let Some(name) = child.attr_table.name(attr) {
                let pattr = parent.attribute_index(name, now);
                parent.set_node_attr(new_id, pattr, value, now)?;
            }
        }
    }

    // Pass 2: pre-fork nodes — contents, attributes, deletions.
    for cnode in child.nodes().filter(|n| n.created <= fork_time) {
        let id = cnode.id;
        // The parent's node of this id is the child's only if it was made
        // at the same time: no two nodes share a creation time unless one
        // merge made both. One made since (by the parent, by the first pass
        // above, or as the merged copy of a node the child made) merely
        // shares the number.
        let Some(pnode) = parent.node(id).ok().filter(|p| p.created == cnode.created) else {
            continue;
        };
        node_map.insert(id, id);

        let child_alive = cnode.exists_at(Time::CURRENT);
        let parent_alive = pnode.exists_at(Time::CURRENT);
        if !child_alive {
            let delete = parent_alive
                && (!node_changed_after(pnode, fork_time)
                    || child_wins(
                        policy,
                        &mut report,
                        format!("{id} deleted in child but modified in parent"),
                        format!("{id}: delete (child) over modify (parent)"),
                        format!("{id}: modify (parent) over delete (child)"),
                    )?);
            if delete {
                parent.delete_node(id, now)?;
                report.nodes_deleted.push(id);
            }
            continue;
        }
        if !parent_alive {
            // Parent deleted it; child may have modified it. A deleted index
            // cannot be resurrected, so the parent's deletion stands either
            // way, but the conflict is recorded.
            if node_changed_after(cnode, fork_time) {
                let stands = format!("{id}: deletion (parent) stands; child changes dropped");
                let what = format!("{id} modified in child but deleted in parent");
                child_wins(policy, &mut report, what, stands.clone(), stands)?;
            }
            continue;
        }

        // Contents.
        if content_changed_after(cnode, fork_time) {
            let apply = !content_changed_after(pnode, fork_time)
                || child_wins(
                    policy,
                    &mut report,
                    format!("{id} contents changed in both threads"),
                    format!("{id}: child contents win"),
                    format!("{id}: parent contents win"),
                )?;
            if apply {
                let contents = cnode.contents_at(Time::CURRENT)?;
                parent.check_in(id, contents, now, "merged from context")?;
                report.nodes_modified.push(id);
            }
        }

        // Attributes.
        let changed = cnode.attrs.attrs_changed_after(fork_time);
        for child_attr in changed {
            let name = match child.attr_table.name(child_attr) {
                Some(n) => n.to_string(),
                None => continue,
            };
            let parent_attr = parent.attribute_index(&name, now);
            let parent_changed = parent
                .node(id)?
                .attrs
                .attrs_changed_after(fork_time)
                .iter()
                .any(|a| parent.attr_table.name(*a) == Some(name.as_str()));
            let apply = !parent_changed
                || child_wins(
                    policy,
                    &mut report,
                    format!("{id} attribute '{name}' changed in both threads"),
                    format!("{id}.{name}: child wins"),
                    format!("{id}.{name}: parent wins"),
                )?;
            if apply {
                match cnode.attrs.get(child_attr, Time::CURRENT) {
                    Some(v) => {
                        parent.set_node_attr(id, parent_attr, v.clone(), now)?;
                    }
                    None => {
                        // Deleted in child since the fork.
                        if parent
                            .node(id)?
                            .attrs
                            .get(parent_attr, Time::CURRENT)
                            .is_some()
                        {
                            parent.delete_node_attr(id, parent_attr, now)?;
                        }
                    }
                }
                report.attrs_changed += 1;
            }
        }
    }

    // Pass 3: links.
    for clink in child.links() {
        if clink.created > fork_time {
            if !clink.exists_at(Time::CURRENT) {
                continue;
            }
            let (Some(&from_node), Some(&to_node)) =
                (node_map.get(&clink.from.node), node_map.get(&clink.to.node))
            else {
                continue; // an endpoint didn't survive the merge
            };
            if parent.live_node(from_node, Time::CURRENT).is_err()
                || parent.live_node(to_node, Time::CURRENT).is_err()
            {
                continue;
            }
            let from_pt = remap_linkpt(clink.from.linkpt_at(Time::CURRENT), from_node);
            let to_pt = remap_linkpt(clink.to.linkpt_at(Time::CURRENT), to_node);
            let (Some(from_pt), Some(to_pt)) = (from_pt, to_pt) else {
                continue;
            };
            let (new_id, _) = parent.add_link(from_pt, to_pt, now)?;
            report.links_added.push((clink.id, new_id));
            for (attr, value) in clink.attrs.all_at(Time::CURRENT) {
                if let Some(name) = child.attr_table.name(attr) {
                    let pattr = parent.attribute_index(name, now);
                    parent.set_link_attr(new_id, pattr, value, now)?;
                }
            }
        } else {
            // Pre-fork link: propagate deletion; attrs last-wins from child.
            let Some(plink) = parent
                .link(clink.id)
                .ok()
                .filter(|p| p.created == clink.created)
            else {
                continue;
            };
            if !clink.exists_at(Time::CURRENT) && plink.exists_at(Time::CURRENT) {
                parent.delete_link(clink.id, now)?;
                report.links_deleted.push(clink.id);
                continue;
            }
            if clink.exists_at(Time::CURRENT) && plink.exists_at(Time::CURRENT) {
                for attr in clink.attrs.attrs_changed_after(fork_time) {
                    if let Some(name) = child.attr_table.name(attr) {
                        let name = name.to_string();
                        let pattr = parent.attribute_index(&name, now);
                        match clink.attrs.get(attr, Time::CURRENT) {
                            Some(v) => {
                                parent.set_link_attr(clink.id, pattr, v.clone(), now)?;
                            }
                            None => {
                                if parent
                                    .link(clink.id)?
                                    .attrs
                                    .get(pattr, Time::CURRENT)
                                    .is_some()
                                {
                                    parent.delete_link_attr(clink.id, pattr, now)?;
                                }
                            }
                        }
                        report.attrs_changed += 1;
                    }
                }
            }
        }
    }

    parent.record_graph_version(now, "context merged");
    Ok(report)
}

impl HamGraph {
    /// This (child) graph restricted to what [`merge_context`] reads when
    /// merging it into `parent` at `fork_time`: merging the delta into
    /// `parent` gives the same report and the same parent as merging the
    /// whole child. It is what a cross-shard merge logs, so its size is the
    /// change since the fork, not the graph.
    ///
    /// Kept are the nodes created after the fork, changed after it (the
    /// tests the merge makes), or dead here while alive in `parent`; every
    /// endpoint of a link created after the fork (the merge maps a new
    /// link's ends through the nodes it visited); and the links created
    /// after the fork, dead here while alive in `parent`, or with
    /// attributes changed after it. Every other field is this graph's, and
    /// the kept objects keep their relative order, on which the merge's
    /// new ids depend. The liveness tests read `parent` as it is
    /// now, so the delta is only good for a merge into `parent` unchanged.
    pub fn merge_delta(&self, parent: &HamGraph, fork_time: Time) -> HamGraph {
        let mut endpoints = HashSet::new();
        let mut links = Vec::new();
        for link in self.links() {
            let keep = if link.created > fork_time {
                endpoints.insert(link.from.node);
                endpoints.insert(link.to.node);
                true
            } else {
                (!link.exists_at(Time::CURRENT)
                    && parent
                        .link(link.id)
                        .is_ok_and(|p| p.exists_at(Time::CURRENT)))
                    || !link.attrs.attrs_changed_after(fork_time).is_empty()
            };
            if keep {
                links.push(link.id);
            }
        }
        let nodes: Vec<NodeIndex> = self
            .nodes()
            .filter(|n| {
                n.created > fork_time
                    || node_changed_after(n, fork_time)
                    || (!n.exists_at(Time::CURRENT)
                        && parent.node(n.id).is_ok_and(|p| p.exists_at(Time::CURRENT)))
                    || endpoints.contains(&n.id)
            })
            .map(|n| n.id)
            .collect();
        self.restricted_to(nodes, links)
    }
}

/// Settle a conflict (`what`) by `policy`: `Fail` refuses the merge; the
/// other two record which side won and say whether the child's did.
fn child_wins(
    policy: ConflictPolicy,
    report: &mut MergeReport,
    what: String,
    child_won: String,
    parent_won: String,
) -> Result<bool> {
    let (wins, record) = match policy {
        ConflictPolicy::Fail => return Err(HamError::MergeConflict { detail: what }),
        ConflictPolicy::PreferChild => (true, child_won),
        ConflictPolicy::PreferParent => (false, parent_won),
    };
    report.conflicts.push(record);
    Ok(wins)
}

fn node_changed_after(node: &crate::node::Node, fork_time: Time) -> bool {
    content_changed_after(node, fork_time) || !node.attrs.attrs_changed_after(fork_time).is_empty()
}

fn content_changed_after(node: &crate::node::Node, fork_time: Time) -> bool {
    // The newest major version is the current contents' check-in.
    node.current_time() > fork_time
}

fn remap_linkpt(pt: Option<LinkPt>, node: NodeIndex) -> Option<LinkPt> {
    pt.map(|mut p| {
        p.node = node;
        // A pin may name a version only the child's thread holds; remapped
        // links track the current version.
        if !p.track_current {
            p.track_current = true;
            p.time = Time::CURRENT;
        }
        p
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Stamp;
    use crate::types::ProjectId;
    use crate::value::Value;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A graph with nodes a (contents checked in at time 10) and b, and the
    /// store clock its forks and merges draw from, at 10.
    fn base_graph() -> (HamGraph, AtomicU64, NodeIndex, NodeIndex) {
        let mut g = HamGraph::new(ProjectId(1));
        let (a, _) = g.add_node(true, Time(2));
        let (b, _) = g.add_node(true, Time(3));
        g.check_in(a, b"original a\n".to_vec(), Time(10), "init")
            .unwrap();
        (g, AtomicU64::new(10), a, b)
    }

    /// The fork point: the store clock's current value.
    fn fork_point(clock: &AtomicU64) -> Time {
        Time(clock.load(Ordering::Relaxed))
    }

    fn merge(
        parent: &mut HamGraph,
        child: &HamGraph,
        fork: Time,
        policy: ConflictPolicy,
        clock: &AtomicU64,
    ) -> Result<MergeReport> {
        merge_context(parent, child, fork, policy, clock.stamp())
    }

    #[test]
    fn merge_new_nodes_and_links() {
        let (mut parent, clock, a, _b) = base_graph();
        let fork = fork_point(&clock);
        let mut child = parent.clone();

        let (c, _) = child.add_node(true, &clock);
        child
            .check_in(c, b"child node\n".to_vec(), &clock, "x")
            .unwrap();
        let icon = child.attribute_index("icon", &clock);
        child
            .set_node_attr(c, icon, Value::str("newbie"), &clock)
            .unwrap();
        child
            .add_link(LinkPt::current(a, 0), LinkPt::current(c, 0), &clock)
            .unwrap();

        let report = merge(&mut parent, &child, fork, ConflictPolicy::Fail, &clock).unwrap();
        assert_eq!(report.nodes_added.len(), 1);
        assert_eq!(report.links_added.len(), 1);
        let (_, new_id) = report.nodes_added[0];
        assert_eq!(
            parent
                .node(new_id)
                .unwrap()
                .contents_at(Time::CURRENT)
                .unwrap()[..],
            b"child node\n"[..]
        );
        let picon = parent.attr_table.lookup("icon").unwrap();
        assert_eq!(
            parent.node(new_id).unwrap().attrs.get(picon, Time::CURRENT),
            Some(&Value::str("newbie"))
        );
    }

    #[test]
    fn merge_content_changes_without_conflict() {
        let (mut parent, clock, a, _) = base_graph();
        let fork = fork_point(&clock);
        let mut child = parent.clone();
        child
            .check_in(a, b"child edit\n".to_vec(), &clock, "e")
            .unwrap();

        let report = merge(&mut parent, &child, fork, ConflictPolicy::Fail, &clock).unwrap();
        assert_eq!(report.nodes_modified, vec![a]);
        assert_eq!(
            parent.node(a).unwrap().contents_at(Time::CURRENT).unwrap()[..],
            b"child edit\n"[..]
        );
    }

    #[test]
    fn conflicting_content_fails_or_resolves() {
        let (parent0, clock, a, _) = base_graph();
        let fork = fork_point(&clock);

        let make_diverged = || {
            let mut parent = parent0.clone();
            let mut child = parent0.clone();
            parent
                .check_in(a, b"parent edit\n".to_vec(), &clock, "p")
                .unwrap();
            child
                .check_in(a, b"child edit\n".to_vec(), &clock, "c")
                .unwrap();
            (parent, child)
        };

        let (mut parent, child) = make_diverged();
        assert!(matches!(
            merge(&mut parent, &child, fork, ConflictPolicy::Fail, &clock),
            Err(HamError::MergeConflict { .. })
        ));

        let (mut parent, child) = make_diverged();
        let report = merge(
            &mut parent,
            &child,
            fork,
            ConflictPolicy::PreferChild,
            &clock,
        )
        .unwrap();
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(
            parent.node(a).unwrap().contents_at(Time::CURRENT).unwrap()[..],
            b"child edit\n"[..]
        );

        let (mut parent, child) = make_diverged();
        merge(
            &mut parent,
            &child,
            fork,
            ConflictPolicy::PreferParent,
            &clock,
        )
        .unwrap();
        assert_eq!(
            parent.node(a).unwrap().contents_at(Time::CURRENT).unwrap()[..],
            b"parent edit\n"[..]
        );
    }

    #[test]
    fn attribute_merge_and_conflict() {
        let (parent0, clock, a, _) = base_graph();
        let mut parent = parent0.clone();
        let status_p = parent.attribute_index("status", &clock);
        parent
            .set_node_attr(a, status_p, Value::str("base"), &clock)
            .unwrap();
        let fork = fork_point(&clock);
        let mut child = parent.clone();

        // Non-conflicting: child sets a fresh attribute.
        let owner = child.attribute_index("owner", &clock);
        child
            .set_node_attr(a, owner, Value::str("norm"), &clock)
            .unwrap();
        // Conflicting: both set "status".
        let status_c = child.attribute_index("status", &clock);
        child
            .set_node_attr(a, status_c, Value::str("child"), &clock)
            .unwrap();
        parent
            .set_node_attr(a, status_p, Value::str("parent"), &clock)
            .unwrap();

        assert!(merge(
            &mut parent.clone(),
            &child,
            fork,
            ConflictPolicy::Fail,
            &clock
        )
        .is_err());
        let report = merge(
            &mut parent,
            &child,
            fork,
            ConflictPolicy::PreferParent,
            &clock,
        )
        .unwrap();
        assert!(report.attrs_changed >= 1);
        let status = parent.attr_table.lookup("status").unwrap();
        let owner_p = parent.attr_table.lookup("owner").unwrap();
        assert_eq!(
            parent.node(a).unwrap().attrs.get(status, Time::CURRENT),
            Some(&Value::str("parent"))
        );
        assert_eq!(
            parent.node(a).unwrap().attrs.get(owner_p, Time::CURRENT),
            Some(&Value::str("norm"))
        );
    }

    #[test]
    fn deletion_propagates() {
        let (mut parent, clock, _a, b) = base_graph();
        let fork = fork_point(&clock);
        let mut child = parent.clone();
        child.delete_node(b, &clock).unwrap();
        let report = merge(&mut parent, &child, fork, ConflictPolicy::Fail, &clock).unwrap();
        assert_eq!(report.nodes_deleted, vec![b]);
        assert!(!parent.node(b).unwrap().exists_at(Time::CURRENT));
    }

    #[test]
    fn node_created_and_deleted_in_child_never_reaches_parent() {
        let (mut parent, clock, _, _) = base_graph();
        let fork = fork_point(&clock);
        let mut child = parent.clone();
        let (tmp, _) = child.add_node(true, &clock);
        child.delete_node(tmp, &clock).unwrap();
        let report = merge(&mut parent, &child, fork, ConflictPolicy::Fail, &clock).unwrap();
        assert!(report.nodes_added.is_empty());
    }

    #[test]
    fn pinned_links_from_child_become_tracking() {
        let (mut parent, clock, a, _) = base_graph();
        let fork = fork_point(&clock);
        let mut child = parent.clone();
        let (c, _) = child.add_node(true, &clock);
        child
            .add_link(
                LinkPt::pinned(a, 0, Time(10)),
                LinkPt::current(c, 0),
                &clock,
            )
            .unwrap();
        let report = merge(&mut parent, &child, fork, ConflictPolicy::Fail, &clock).unwrap();
        let (_, new_link) = report.links_added[0];
        assert!(parent.link(new_link).unwrap().from.track_current);
    }
}
