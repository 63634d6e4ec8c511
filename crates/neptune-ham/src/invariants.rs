//! In-memory integrity rules over a [`HamGraph`] and a whole [`Ham`].
//!
//! These are the semantic invariants the storage layer cannot enforce with
//! checksums alone: delta chains must replay, link attachments must point
//! into their node's contents, link endpoints must exist, contexts must
//! fork from live contexts, version histories must be monotonic, and
//! mark-node demons must reference interned attributes.
//!
//! Two consumers share this module:
//!
//! * the `neptune-check` crate's verifier, which reports each violation as
//!   a finding (`neptune-shell check`, the server's `Verify` op);
//! * the `strict-invariants` cargo feature, which re-runs these rules at
//!   every commit and checkpoint and panics on the first violation —
//!   catching corruption at the operation that introduces it.

use crate::demons::DemonAction;
use crate::graph::HamGraph;
use crate::ham::Ham;
use crate::history::Versioned;
use crate::link::Endpoint;
use crate::types::{ContextId, Time};

/// Rule name: an archive's backward-delta chain fails to replay, claims a
/// wrong length, or has out-of-order version times.
pub const RULE_DELTA_CHAIN: &str = "delta-chain";
/// Rule name: a link attachment lies beyond its node's contents.
pub const RULE_LINK_OFFSET: &str = "link-offset";
/// Rule name: a live link's endpoint node is missing or dead.
pub const RULE_DANGLING_ENDPOINT: &str = "dangling-endpoint";
/// Rule name: a context forked from a missing context.
pub const RULE_CONTEXT_PARTITION: &str = "context-partition";
/// Rule name: a versioned history's entries are not strictly increasing in
/// time (or carry the reserved time 0).
pub const RULE_NON_MONOTONIC_HISTORY: &str = "non-monotonic-history";
/// Rule name: a mark-node demon references an attribute name that is not
/// (or is no longer) in the attribute table.
pub const RULE_DEMON_DEAD_ATTR: &str = "demon-dead-attr";
/// Rule name: a persisted archive skip-delta (temporal-index anchor)
/// disagrees with the unit delta chain. Derived data — checkout falls back
/// to unit replay and heals the rung — so this warns rather than errors.
pub const RULE_ARCHIVE_INDEX: &str = "archive-index";

/// One violated invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule tripped (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// The entity the violation is about, e.g. `"context 0 node 3"`.
    pub entity: String,
    /// Human-readable description of what is wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.rule, self.entity, self.detail)
    }
}

/// Check a `Versioned` history for strict time monotonicity.
fn monotonicity_error<T>(history: &Versioned<T>) -> Option<String> {
    let mut prev: Option<Time> = None;
    for (time, _) in history.entries() {
        if time.0 == 0 {
            return Some("history entry at reserved time 0".to_string());
        }
        if let Some(p) = prev {
            if time <= p {
                return Some(format!(
                    "history times out of order: {} then {}",
                    p.0, time.0
                ));
            }
        }
        prev = Some(time);
    }
    None
}

fn check_history<T>(out: &mut Vec<Violation>, entity: &str, what: &str, history: &Versioned<T>) {
    if let Some(detail) = monotonicity_error(history) {
        out.push(Violation {
            rule: RULE_NON_MONOTONIC_HISTORY,
            entity: entity.to_string(),
            detail: format!("{what}: {detail}"),
        });
    }
}

/// Every position an endpoint has held, with the time it took effect.
fn endpoint_positions(ep: &Endpoint) -> Vec<(Time, u64)> {
    ep.positions
        .entries()
        .filter_map(|(t, p)| p.map(|p| (t, *p)))
        .collect()
}

/// All integrity violations inside one context's graph.
pub fn graph_violations(ctx: ContextId, graph: &HamGraph) -> Vec<Violation> {
    let mut out = Vec::new();

    for node in graph.nodes() {
        let entity = format!("context {} node {}", ctx.0, node.id.0);
        if let Some(archive) = node.archive() {
            if let Err(detail) = archive.verify_chain() {
                out.push(Violation {
                    rule: RULE_DELTA_CHAIN,
                    entity: entity.clone(),
                    detail,
                });
            }
            if let Err(detail) = archive.verify_index() {
                out.push(Violation {
                    rule: RULE_ARCHIVE_INDEX,
                    entity: entity.clone(),
                    detail,
                });
            }
        }
        check_history(&mut out, &entity, "alive", &node.alive);
        for (attr, history) in node.attrs.histories() {
            check_history(&mut out, &entity, &format!("attribute {}", attr.0), history);
        }
        for (event, history) in node.demons.histories() {
            check_history(&mut out, &entity, &format!("demon slot {event}"), history);
        }
        for (event, demon) in node.demons.all_at(Time::CURRENT) {
            if let DemonAction::MarkNode { attr, .. } = &demon.action {
                if graph.attr_table.lookup(attr).is_none() {
                    out.push(Violation {
                        rule: RULE_DEMON_DEAD_ATTR,
                        entity: entity.clone(),
                        detail: format!(
                            "demon '{}' on {event} marks attribute '{attr}', which is not \
                             in the attribute table",
                            demon.name
                        ),
                    });
                }
            }
        }
    }

    for link in graph.links() {
        let entity = format!("context {} link {}", ctx.0, link.id.0);
        check_history(&mut out, &entity, "alive", &link.alive);
        for (attr, history) in link.attrs.histories() {
            check_history(&mut out, &entity, &format!("attribute {}", attr.0), history);
        }
        for (end_name, ep) in [("from", &link.from), ("to", &link.to)] {
            check_history(
                &mut out,
                &entity,
                &format!("{end_name} positions"),
                &ep.positions,
            );

            // Endpoint existence: wherever the link is alive, its endpoint
            // node must exist.
            let mut lifetimes: Vec<Time> = link.alive.change_times();
            lifetimes.push(Time::CURRENT);
            for t in lifetimes {
                if !link.exists_at(t) {
                    continue;
                }
                match graph.node(ep.node) {
                    Err(_) => {
                        out.push(Violation {
                            rule: RULE_DANGLING_ENDPOINT,
                            entity: entity.clone(),
                            detail: format!(
                                "{end_name} endpoint references missing node {}",
                                ep.node.0
                            ),
                        });
                        break; // one report per endpoint is enough
                    }
                    Ok(n) if !n.exists_at(t) => {
                        out.push(Violation {
                            rule: RULE_DANGLING_ENDPOINT,
                            entity: entity.clone(),
                            detail: format!(
                                "{end_name} endpoint node {} is dead at time {}",
                                ep.node.0, t.0
                            ),
                        });
                        break;
                    }
                    Ok(_) => {}
                }
            }

            // Attachment bounds: at every version where both the link and
            // its node exist, the attachment must lie within the node's
            // contents. Archive nodes answer at any time; file nodes only
            // at the current version.
            let Ok(node) = graph.node(ep.node) else {
                continue;
            };
            let mut checks: Vec<(Time, u64)> = endpoint_positions(ep);
            if let Some(pos) = ep.position_at(Time::CURRENT) {
                checks.push((Time::CURRENT, pos));
            }
            for (t, pos) in checks {
                if !link.exists_at(t) || !node.exists_at(t) {
                    continue;
                }
                let Ok(contents) = node.contents_at(t) else {
                    continue;
                };
                if pos > contents.len() as u64 {
                    out.push(Violation {
                        rule: RULE_LINK_OFFSET,
                        entity: entity.clone(),
                        detail: format!(
                            "{end_name} attachment at offset {pos} exceeds node {} contents \
                             ({} bytes) at time {}",
                            ep.node.0,
                            contents.len(),
                            t.0
                        ),
                    });
                    break; // one report per endpoint is enough
                }
            }
        }
    }

    for (event, demon) in graph.graph_demons.all_at(Time::CURRENT) {
        if let DemonAction::MarkNode { attr, .. } = &demon.action {
            if graph.attr_table.lookup(attr).is_none() {
                out.push(Violation {
                    rule: RULE_DEMON_DEAD_ATTR,
                    entity: format!("context {} graph demon {event}", ctx.0),
                    detail: format!(
                        "demon '{}' marks attribute '{attr}', which is not in the \
                         attribute table",
                        demon.name
                    ),
                });
            }
        }
    }

    out
}

/// All integrity violations in an open machine: every context's graph plus
/// the context-partition (fork) topology.
pub fn ham_violations(ham: &Ham) -> Vec<Violation> {
    thread_violations(ham.threads(), ham.shard_identity())
}

/// [`ham_violations`] against a published committed snapshot — the
/// lock-free `Verify` path checks the view it serves reads from, not the
/// live machine.
pub fn view_violations(view: &crate::view::CommittedView) -> Vec<Violation> {
    thread_violations(view.threads(), view.shard())
}

/// `shard = (index, count)` identifies which slice of the context-id space
/// this thread map covers: contexts whose home (`id % count`) is a
/// different shard legitimately appear only as *fork parents* here, so the
/// context-partition rules skip them — [`crate::shard::ShardedHam`] runs
/// the full cross-shard topology check over the merged map with `(0, 1)`.
pub(crate) fn thread_violations(
    threads: &crate::ham::Threads,
    shard: (u32, u32),
) -> Vec<Violation> {
    let (shard_index, shard_count) = (shard.0 as u64, shard.1.max(1) as u64);
    let mut ids: Vec<ContextId> = threads.keys().copied().collect();
    ids.sort_unstable();
    let mut out = Vec::new();
    for ctx in ids {
        let thread = &threads[&ctx];
        // Only the parent's existence is checked: the fork point is the
        // store clock at the fork, which may be past every time the parent
        // recorded. A foreign parent lives on another shard, so even that
        // cannot be judged from this map.
        if let Some((parent, _)) = thread.forked_from {
            if parent.0 % shard_count == shard_index && !threads.contains_key(&parent) {
                out.push(Violation {
                    rule: RULE_CONTEXT_PARTITION,
                    entity: format!("context {}", ctx.0),
                    detail: format!("forked from context {}, which no longer exists", parent.0),
                });
            }
        }
        out.extend(graph_violations(ctx, &thread.graph));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demons::DemonSpec;
    use crate::types::{LinkPt, NodeIndex, ProjectId, Protections, MAIN_CONTEXT};
    use crate::value::Value;
    use neptune_storage::codec::{Decode, Encode, Writer};
    use std::sync::atomic::AtomicU64;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("neptune-invariants-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_machine_has_no_violations() {
        let dir = tmpdir("clean");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let (a, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(MAIN_CONTEXT, a, t, b"hello hypertext\n".to_vec(), &[])
            .unwrap();
        let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.add_link(MAIN_CONTEXT, LinkPt::current(a, 5), LinkPt::current(b, 0))
            .unwrap();
        let ctx = ham.create_context(MAIN_CONTEXT).unwrap();
        ham.add_node(ctx, true).unwrap();
        assert_eq!(ham_violations(&ham), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The next two tests deliberately corrupt a machine; under
    // `strict-invariants` the commit hooks would (correctly) panic first,
    // so they only run with the feature off.
    #[test]
    #[cfg(not(feature = "strict-invariants"))]
    fn destroying_a_forked_parent_partitions_the_child() {
        let dir = tmpdir("partition");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let mid = ham.create_context(MAIN_CONTEXT).unwrap();
        let leaf = ham.create_context(mid).unwrap();
        ham.destroy_context(mid).unwrap();
        let violations = ham_violations(&ham);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == RULE_CONTEXT_PARTITION
                    && v.entity == format!("context {}", leaf.0)),
            "expected a context-partition violation, got {violations:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retargeted_endpoint_dangles() {
        let mut graph = HamGraph::new(ProjectId(1));
        let clock = AtomicU64::new(1);
        let (a, _) = graph.add_node(true, &clock);
        let (b, _) = graph.add_node(true, &clock);
        let (l, _) = graph
            .add_link(LinkPt::current(a, 0), LinkPt::current(b, 0), &clock)
            .unwrap();
        // Corruption: the destination end now names a node that was never
        // created (what a decoded-but-damaged snapshot can produce).
        graph.link_mut(l).unwrap().to.node = NodeIndex(77);
        let violations = graph_violations(MAIN_CONTEXT, &graph);
        assert!(
            violations.iter().any(|v| v.rule == RULE_DANGLING_ENDPOINT),
            "expected a dangling-endpoint violation, got {violations:?}"
        );
    }

    #[test]
    fn decoded_out_of_order_history_is_non_monotonic() {
        // Versioned::set asserts time order, but Decode trusts its input —
        // craft the bytes a corrupted snapshot would hold.
        let mut w = Writer::new();
        w.put_u64(2);
        Time(5).encode(&mut w);
        Some(true).encode(&mut w);
        Time(2).encode(&mut w);
        Some(true).encode(&mut w);
        let rewound = Versioned::<bool>::from_bytes(w.as_slice()).unwrap();

        let mut graph = HamGraph::new(ProjectId(1));
        let clock = AtomicU64::new(1);
        let (a, _) = graph.add_node(true, &clock);
        graph.node_mut(a).unwrap().alive = rewound;
        let violations = graph_violations(MAIN_CONTEXT, &graph);
        assert!(
            violations
                .iter()
                .any(|v| v.rule == RULE_NON_MONOTONIC_HISTORY),
            "expected a non-monotonic-history violation, got {violations:?}"
        );
    }

    #[test]
    fn demon_marking_an_uninterned_attribute_is_flagged() {
        let mut graph = HamGraph::new(ProjectId(1));
        let clock = AtomicU64::new(1);
        let (a, _) = graph.add_node(true, &clock);
        let now = graph.now();
        graph.node_mut(a).unwrap().demons.set(
            crate::demons::Event::NodeModified,
            Some(DemonSpec::mark_node("stale", "ghost", Value::Bool(true))),
            now,
        );
        let violations = graph_violations(MAIN_CONTEXT, &graph);
        assert!(
            violations.iter().any(|v| v.rule == RULE_DEMON_DEAD_ATTR),
            "expected a demon-dead-attr violation, got {violations:?}"
        );
    }

    #[test]
    #[cfg(not(feature = "strict-invariants"))]
    fn shrinking_contents_under_an_attachment_trips_link_offset() {
        let dir = tmpdir("shrink");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let (a, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(
            MAIN_CONTEXT,
            a,
            t,
            b"a reasonably long line\n".to_vec(),
            &[],
        )
        .unwrap();
        let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.add_link(MAIN_CONTEXT, LinkPt::current(a, 15), LinkPt::current(b, 0))
            .unwrap();
        // Shrink the contents but keep the attachment where it was.
        let opened = ham.open_node(MAIN_CONTEXT, a, Time::CURRENT, &[]).unwrap();
        ham.modify_node(
            MAIN_CONTEXT,
            a,
            opened.current_time,
            b"tiny\n".to_vec(),
            &opened.link_pts,
        )
        .unwrap();
        let violations = ham_violations(&ham);
        assert!(
            violations.iter().any(|v| v.rule == RULE_LINK_OFFSET),
            "expected a link-offset violation, got {violations:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
