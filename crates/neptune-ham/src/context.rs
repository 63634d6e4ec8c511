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
//! back" would check it in.

use std::collections::HashMap;

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

/// Merge `child` (forked from `parent` at `fork_time`) into `parent`.
///
/// On `Err`, `parent` may have been partially modified; callers (the Ham
/// facade) run merges inside a transaction so failure rolls back cleanly.
pub fn merge_context(
    parent: &mut HamGraph,
    child: &HamGraph,
    fork_time: Time,
    policy: ConflictPolicy,
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
        let (new_id, _) = parent.add_node(cnode.is_archive());
        node_map.insert(cnode.id, new_id);
        report.nodes_added.push((cnode.id, new_id));
        let contents = cnode.contents_at(Time::CURRENT)?;
        if !contents.is_empty() {
            let now = parent_tick(parent);
            parent
                .node_mut(new_id)?
                .modify(contents, now, "merged from context")?;
        }
        copy_current_attrs_node(parent, child, cnode, new_id)?;
    }

    // Pass 2: pre-fork nodes — contents, attributes, deletions.
    for cnode in child.nodes().filter(|n| n.created <= fork_time) {
        let id = cnode.id;
        let Ok(pnode) = parent.node(id) else {
            continue; // parent rolled this node away; nothing to merge onto
        };
        node_map.insert(id, id);

        let child_alive = cnode.exists_at(Time::CURRENT);
        let parent_alive = pnode.exists_at(Time::CURRENT);
        if !child_alive {
            if parent_alive {
                let parent_touched = node_changed_after(pnode, fork_time);
                if parent_touched {
                    match policy {
                        ConflictPolicy::Fail => {
                            return Err(HamError::MergeConflict {
                                detail: format!("{id} deleted in child but modified in parent"),
                            })
                        }
                        ConflictPolicy::PreferChild => {
                            report
                                .conflicts
                                .push(format!("{id}: delete (child) over modify (parent)"));
                            parent.delete_node(id)?;
                            report.nodes_deleted.push(id);
                        }
                        ConflictPolicy::PreferParent => {
                            report
                                .conflicts
                                .push(format!("{id}: modify (parent) over delete (child)"));
                        }
                    }
                } else {
                    parent.delete_node(id)?;
                    report.nodes_deleted.push(id);
                }
            }
            continue;
        }
        if !parent_alive {
            // Parent deleted it; child may have modified it.
            if node_changed_after(cnode, fork_time) {
                match policy {
                    ConflictPolicy::Fail => {
                        return Err(HamError::MergeConflict {
                            detail: format!("{id} modified in child but deleted in parent"),
                        })
                    }
                    ConflictPolicy::PreferChild | ConflictPolicy::PreferParent => {
                        // The node is gone in the parent; we cannot resurrect
                        // a deleted index, so parent's deletion stands either
                        // way, but record the conflict.
                        report.conflicts.push(format!(
                            "{id}: deletion (parent) stands; child changes dropped"
                        ));
                    }
                }
            }
            continue;
        }

        // Contents.
        let child_content_changed = content_changed_after(cnode, fork_time);
        let parent_content_changed = content_changed_after(pnode, fork_time);
        if child_content_changed {
            let apply = if parent_content_changed {
                match policy {
                    ConflictPolicy::Fail => {
                        return Err(HamError::MergeConflict {
                            detail: format!("{id} contents changed in both threads"),
                        })
                    }
                    ConflictPolicy::PreferChild => {
                        report.conflicts.push(format!("{id}: child contents win"));
                        true
                    }
                    ConflictPolicy::PreferParent => {
                        report.conflicts.push(format!("{id}: parent contents win"));
                        false
                    }
                }
            } else {
                true
            };
            if apply {
                let contents = cnode.contents_at(Time::CURRENT)?;
                let now = parent_tick(parent);
                parent
                    .node_mut(id)?
                    .modify(contents, now, "merged from context")?;
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
            let parent_attr = parent.attribute_index(&name);
            let parent_changed = parent
                .node(id)?
                .attrs
                .attrs_changed_after(fork_time)
                .iter()
                .any(|a| parent.attr_table.name(*a) == Some(name.as_str()));
            let apply = if parent_changed {
                match policy {
                    ConflictPolicy::Fail => {
                        return Err(HamError::MergeConflict {
                            detail: format!("{id} attribute '{name}' changed in both threads"),
                        })
                    }
                    ConflictPolicy::PreferChild => {
                        report.conflicts.push(format!("{id}.{name}: child wins"));
                        true
                    }
                    ConflictPolicy::PreferParent => {
                        report.conflicts.push(format!("{id}.{name}: parent wins"));
                        false
                    }
                }
            } else {
                true
            };
            if apply {
                match cnode.attrs.get(child_attr, Time::CURRENT) {
                    Some(v) => {
                        parent.set_node_attr(id, parent_attr, v.clone())?;
                    }
                    None => {
                        // Deleted in child since the fork.
                        if parent
                            .node(id)?
                            .attrs
                            .get(parent_attr, Time::CURRENT)
                            .is_some()
                        {
                            parent.delete_node_attr(id, parent_attr)?;
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
            let (new_id, _) = parent.add_link(from_pt, to_pt)?;
            report.links_added.push((clink.id, new_id));
            for (attr, value) in clink.attrs.all_at(Time::CURRENT) {
                if let Some(name) = child.attr_table.name(attr) {
                    let pattr = parent.attribute_index(name);
                    parent.set_link_attr(new_id, pattr, value)?;
                }
            }
        } else {
            // Pre-fork link: propagate deletion; attrs last-wins from child.
            let Ok(plink) = parent.link(clink.id) else {
                continue;
            };
            if !clink.exists_at(Time::CURRENT) && plink.exists_at(Time::CURRENT) {
                parent.delete_link(clink.id)?;
                report.links_deleted.push(clink.id);
                continue;
            }
            if clink.exists_at(Time::CURRENT) && plink.exists_at(Time::CURRENT) {
                for attr in clink.attrs.attrs_changed_after(fork_time) {
                    if let Some(name) = child.attr_table.name(attr) {
                        let name = name.to_string();
                        let pattr = parent.attribute_index(&name);
                        match clink.attrs.get(attr, Time::CURRENT) {
                            Some(v) => {
                                parent.set_link_attr(clink.id, pattr, v.clone())?;
                            }
                            None => {
                                if parent
                                    .link(clink.id)?
                                    .attrs
                                    .get(pattr, Time::CURRENT)
                                    .is_some()
                                {
                                    parent.delete_link_attr(clink.id, pattr)?;
                                }
                            }
                        }
                        report.attrs_changed += 1;
                    }
                }
            }
        }
    }

    parent.record_graph_version(parent.now(), "context merged");
    Ok(report)
}

fn parent_tick(parent: &mut HamGraph) -> Time {
    parent.tick()
}

fn node_changed_after(node: &crate::node::Node, fork_time: Time) -> bool {
    content_changed_after(node, fork_time) || !node.attrs.attrs_changed_after(fork_time).is_empty()
}

fn content_changed_after(node: &crate::node::Node, fork_time: Time) -> bool {
    // The newest major version is the current contents' check-in.
    node.current_time() > fork_time
}

fn copy_current_attrs_node(
    parent: &mut HamGraph,
    child: &HamGraph,
    cnode: &crate::node::Node,
    new_id: NodeIndex,
) -> Result<()> {
    for (attr, value) in cnode.attrs.all_at(Time::CURRENT) {
        if let Some(name) = child.attr_table.name(attr) {
            let pattr = parent.attribute_index(name);
            parent.set_node_attr(new_id, pattr, value)?;
        }
    }
    Ok(())
}

fn remap_linkpt(pt: Option<LinkPt>, node: NodeIndex) -> Option<LinkPt> {
    pt.map(|mut p| {
        p.node = node;
        // Version pins refer to child-thread times, which have no meaning in
        // the parent's clock; remapped links track the current version.
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
    use crate::types::ProjectId;
    use crate::value::Value;

    fn base_graph() -> (HamGraph, NodeIndex, NodeIndex) {
        let mut g = HamGraph::new(ProjectId(1));
        let (a, _) = g.add_node(true);
        let (b, _) = g.add_node(true);
        g.node_mut(a)
            .unwrap()
            .modify(b"original a\n".to_vec(), Time(10), "init")
            .unwrap();
        g.set_clock(Time(10));
        (g, a, b)
    }

    #[test]
    fn merge_new_nodes_and_links() {
        let (mut parent, a, _b) = base_graph();
        let fork = parent.now();
        let mut child = parent.clone();

        let (c, _) = child.add_node(true);
        let tc = child.tick();
        child
            .node_mut(c)
            .unwrap()
            .modify(b"child node\n".to_vec(), tc, "x")
            .unwrap();
        let icon = child.attribute_index("icon");
        child.set_node_attr(c, icon, Value::str("newbie")).unwrap();
        child
            .add_link(LinkPt::current(a, 0), LinkPt::current(c, 0))
            .unwrap();

        let report = merge_context(&mut parent, &child, fork, ConflictPolicy::Fail).unwrap();
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
        let (mut parent, a, _) = base_graph();
        let fork = parent.now();
        let mut child = parent.clone();
        let t = child.tick();
        child
            .node_mut(a)
            .unwrap()
            .modify(b"child edit\n".to_vec(), t, "e")
            .unwrap();

        let report = merge_context(&mut parent, &child, fork, ConflictPolicy::Fail).unwrap();
        assert_eq!(report.nodes_modified, vec![a]);
        assert_eq!(
            parent.node(a).unwrap().contents_at(Time::CURRENT).unwrap()[..],
            b"child edit\n"[..]
        );
    }

    #[test]
    fn conflicting_content_fails_or_resolves() {
        let (parent0, a, _) = base_graph();
        let fork = parent0.now();

        let make_diverged = || {
            let mut parent = parent0.clone();
            let mut child = parent0.clone();
            let tp = parent.tick();
            parent
                .node_mut(a)
                .unwrap()
                .modify(b"parent edit\n".to_vec(), tp, "p")
                .unwrap();
            let tc = child.tick();
            child
                .node_mut(a)
                .unwrap()
                .modify(b"child edit\n".to_vec(), tc, "c")
                .unwrap();
            (parent, child)
        };

        let (mut parent, child) = make_diverged();
        assert!(matches!(
            merge_context(&mut parent, &child, fork, ConflictPolicy::Fail),
            Err(HamError::MergeConflict { .. })
        ));

        let (mut parent, child) = make_diverged();
        let report = merge_context(&mut parent, &child, fork, ConflictPolicy::PreferChild).unwrap();
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(
            parent.node(a).unwrap().contents_at(Time::CURRENT).unwrap()[..],
            b"child edit\n"[..]
        );

        let (mut parent, child) = make_diverged();
        merge_context(&mut parent, &child, fork, ConflictPolicy::PreferParent).unwrap();
        assert_eq!(
            parent.node(a).unwrap().contents_at(Time::CURRENT).unwrap()[..],
            b"parent edit\n"[..]
        );
    }

    #[test]
    fn attribute_merge_and_conflict() {
        let (parent0, a, _) = base_graph();
        let mut parent = parent0.clone();
        let status_p = parent.attribute_index("status");
        parent
            .set_node_attr(a, status_p, Value::str("base"))
            .unwrap();
        let fork = parent.now();
        let mut child = parent.clone();

        // Non-conflicting: child sets a fresh attribute.
        let owner = child.attribute_index("owner");
        child.set_node_attr(a, owner, Value::str("norm")).unwrap();
        // Conflicting: both set "status".
        let status_c = child.attribute_index("status");
        child
            .set_node_attr(a, status_c, Value::str("child"))
            .unwrap();
        parent
            .set_node_attr(a, status_p, Value::str("parent"))
            .unwrap();

        assert!(merge_context(&mut parent.clone(), &child, fork, ConflictPolicy::Fail).is_err());
        let report =
            merge_context(&mut parent, &child, fork, ConflictPolicy::PreferParent).unwrap();
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
        let (mut parent, _a, b) = base_graph();
        let fork = parent.now();
        let mut child = parent.clone();
        child.delete_node(b).unwrap();
        let report = merge_context(&mut parent, &child, fork, ConflictPolicy::Fail).unwrap();
        assert_eq!(report.nodes_deleted, vec![b]);
        assert!(!parent.node(b).unwrap().exists_at(Time::CURRENT));
    }

    #[test]
    fn node_created_and_deleted_in_child_never_reaches_parent() {
        let (mut parent, _, _) = base_graph();
        let fork = parent.now();
        let mut child = parent.clone();
        let (tmp, _) = child.add_node(true);
        child.delete_node(tmp).unwrap();
        let report = merge_context(&mut parent, &child, fork, ConflictPolicy::Fail).unwrap();
        assert!(report.nodes_added.is_empty());
    }

    #[test]
    fn pinned_links_from_child_become_tracking() {
        let (mut parent, a, _) = base_graph();
        let fork = parent.now();
        let mut child = parent.clone();
        let (c, _) = child.add_node(true);
        child
            .add_link(LinkPt::pinned(a, 0, Time(10)), LinkPt::current(c, 0))
            .unwrap();
        let report = merge_context(&mut parent, &child, fork, ConflictPolicy::Fail).unwrap();
        let (_, new_link) = report.links_added[0];
        assert!(parent.link(new_link).unwrap().from.track_current);
    }
}
