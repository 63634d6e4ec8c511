//! Transactions: atomicity, rollback, and the redo log.
//!
//! Paper §2.2: Neptune *"is transaction-oriented and provides for complete
//! recovery from any aborted transaction"*; the HAM provides
//! *"transaction-based crash recovery"*. Two mechanisms cooperate:
//!
//! * **Abort** needs no record of its own: every commit publishes the
//!   machine's context threads as a [`crate::view::CommittedView`], so the
//!   state before any transaction is the published view, and aborting
//!   swaps that view's threads back in. The transaction's writes went to
//!   copies the view never shared, and are simply dropped.
//! * **Durability** uses the write-ahead log: each state-changing operation
//!   is recorded as a [`RedoOp`] carrying its *assigned* ids and times, so
//!   replay after a crash reproduces the exact same state. Demon side
//!   effects are logged as ordinary ops, so demons do not re-fire during
//!   replay.
//!
//! Operations issued outside an explicit transaction auto-commit as a
//! single-op transaction — the paper's UI does the same ("special commands
//! that bundle together several primitive hypertext operations into a
//! single transaction" are the explicit case).

use neptune_storage::codec::{decode_seq, encode_seq, Decode, Encode, Reader, Writer};
use neptune_storage::error::{Result as StorageResult, StorageError};

use crate::demons::{DemonSpec, Event};
use crate::types::{
    decode_protections, ContextId, LinkIndex, LinkPt, NodeIndex, Protections, Time,
};
use crate::value::Value;

/// A logged, replayable state-changing operation. Ids and times are the
/// values *assigned* during original execution, making replay exact.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// `addNode` assigned `id` at `time`.
    AddNode {
        /// Context the node was created in.
        context: ContextId,
        /// Assigned node index.
        id: NodeIndex,
        /// Assigned creation time.
        time: Time,
        /// Archive (true) or file (false) storage.
        keep_history: bool,
    },
    /// `deleteNode`.
    DeleteNode {
        /// Context operated on.
        context: ContextId,
        /// The deleted node.
        id: NodeIndex,
        /// Time of deletion.
        time: Time,
    },
    /// `addLink` / `copyLink` assigned `id` at `time`.
    AddLink {
        /// Context the link was created in.
        context: ContextId,
        /// Assigned link index.
        id: LinkIndex,
        /// The "from node" end.
        from: LinkPt,
        /// The "to node" end.
        to: LinkPt,
        /// Assigned creation time.
        time: Time,
    },
    /// `deleteLink`.
    DeleteLink {
        /// Context operated on.
        context: ContextId,
        /// The deleted link.
        id: LinkIndex,
        /// Time of deletion.
        time: Time,
    },
    /// `modifyNode` checked in new contents and moved attachments.
    ModifyNode {
        /// Context operated on.
        context: ContextId,
        /// The modified node.
        id: NodeIndex,
        /// New contents, shared with the live graph's version store.
        contents: std::sync::Arc<[u8]>,
        /// New attachment points, in canonical attachment order.
        link_pts: Vec<LinkPt>,
        /// Assigned check-in time.
        time: Time,
    },
    /// `setNodeAttributeValue` (attribute carried by name so replay
    /// re-interns deterministically).
    SetNodeAttr {
        /// Context operated on.
        context: ContextId,
        /// The node.
        node: NodeIndex,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
        /// Assigned time.
        time: Time,
    },
    /// `deleteNodeAttribute`.
    DeleteNodeAttr {
        /// Context operated on.
        context: ContextId,
        /// The node.
        node: NodeIndex,
        /// Attribute name.
        attr: String,
        /// Assigned time.
        time: Time,
    },
    /// `setLinkAttributeValue`.
    SetLinkAttr {
        /// Context operated on.
        context: ContextId,
        /// The link.
        link: LinkIndex,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
        /// Assigned time.
        time: Time,
    },
    /// `deleteLinkAttribute`.
    DeleteLinkAttr {
        /// Context operated on.
        context: ContextId,
        /// The link.
        link: LinkIndex,
        /// Attribute name.
        attr: String,
        /// Assigned time.
        time: Time,
    },
    /// `getAttributeIndex` interned a new name (which takes a time).
    InternAttr {
        /// Context operated on.
        context: ContextId,
        /// The interned name.
        name: String,
        /// Assigned time.
        time: Time,
    },
    /// `setGraphDemonValue`.
    SetGraphDemon {
        /// Context operated on.
        context: ContextId,
        /// The triggering event.
        event: Event,
        /// The demon, or `None` to disable.
        demon: Option<DemonSpec>,
        /// Assigned time.
        time: Time,
    },
    /// `setNodeDemon`.
    SetNodeDemon {
        /// Context operated on.
        context: ContextId,
        /// The node.
        node: NodeIndex,
        /// The triggering event.
        event: Event,
        /// The demon, or `None` to disable.
        demon: Option<DemonSpec>,
        /// Assigned time.
        time: Time,
    },
    /// `changeNodeProtection`.
    ChangeProtection {
        /// Context operated on.
        context: ContextId,
        /// The node.
        node: NodeIndex,
        /// The new protections.
        protections: Protections,
    },
    /// `createContext` forked a new version thread.
    CreateContext {
        /// The new context's id.
        id: ContextId,
        /// The context it was forked from.
        from: ContextId,
        /// Fork time: the store clock at the fork.
        time: Time,
    },
    /// `mergeContext` folded a child thread back into its parent.
    MergeContext {
        /// The merged (child) context.
        child: ContextId,
        /// The receiving context.
        into: ContextId,
        /// Conflict policy tag (see [`crate::context::ConflictPolicy`]):
        /// 0 = fail, 1 = prefer child, 2 = prefer parent.
        policy: u8,
        /// The merge's one time, which is also the child's new fork point.
        /// `None` in records written before the store clock (tag 14),
        /// which replay at the parent's newest time + 1.
        time: Option<Time>,
    },
    /// `destroyContext` discarded a version thread.
    DestroyContext {
        /// The discarded context.
        id: ContextId,
    },
    /// A cross-shard `createContext`: this shard adopted a context whose
    /// parent lives on another shard. The record carries the parent graph's
    /// encoded bytes so replay of this shard's log is self-contained — the
    /// parent shard's log is never consulted.
    AdoptContext {
        /// The new context's id.
        id: ContextId,
        /// The (foreign) context it was forked from.
        from: ContextId,
        /// Fork time: the store clock at the fork.
        time: Time,
        /// Encoded [`crate::graph::HamGraph`] snapshot of the parent at the
        /// fork point.
        graph: Vec<u8>,
    },
    /// A cross-shard `mergeContext`, parent side: fold an encoded foreign
    /// child graph into `into`. Self-contained for the same reason as
    /// [`RedoOp::AdoptContext`], but it carries only what the merge reads
    /// (see `graph`).
    MergeForeign {
        /// The receiving (parent) context on this shard.
        into: ContextId,
        /// Conflict policy tag (see [`crate::context::ConflictPolicy`]).
        policy: u8,
        /// The child's fork point.
        fork_time: Time,
        /// The merge's one time, as in [`RedoOp::MergeContext`] (`None`:
        /// written before the store clock, tag 17).
        time: Option<Time>,
        /// Encoded [`crate::graph::HamGraph`] of the (foreign) child as
        /// [`crate::graph::HamGraph::merge_delta`] restricts it: the
        /// objects changed since the fork, with the child's counters and
        /// tables. Older logs carry the whole child graph; both replay
        /// through the same merge to the same parent.
        graph: Vec<u8>,
    },
    /// A cross-shard `mergeContext`, child side: after the parent shard
    /// folded the child in, re-fork the child at the merge's time.
    RefixFork {
        /// The re-forked child context on this shard.
        child: ContextId,
        /// The (foreign) parent context.
        into: ContextId,
        /// The new fork time: the merge's time.
        time: Time,
    },
}

impl RedoOp {
    fn tag(&self) -> u8 {
        match self {
            RedoOp::AddNode { .. } => 0,
            RedoOp::DeleteNode { .. } => 1,
            RedoOp::AddLink { .. } => 2,
            RedoOp::DeleteLink { .. } => 3,
            RedoOp::ModifyNode { .. } => 4,
            RedoOp::SetNodeAttr { .. } => 5,
            RedoOp::DeleteNodeAttr { .. } => 6,
            RedoOp::SetLinkAttr { .. } => 7,
            RedoOp::DeleteLinkAttr { .. } => 8,
            RedoOp::InternAttr { .. } => 9,
            RedoOp::SetGraphDemon { .. } => 10,
            RedoOp::SetNodeDemon { .. } => 11,
            RedoOp::ChangeProtection { .. } => 12,
            RedoOp::CreateContext { .. } => 13,
            RedoOp::MergeContext { time: None, .. } => 14,
            RedoOp::MergeContext { time: Some(_), .. } => 19,
            RedoOp::DestroyContext { .. } => 15,
            RedoOp::AdoptContext { .. } => 16,
            RedoOp::MergeForeign { time: None, .. } => 17,
            RedoOp::MergeForeign { time: Some(_), .. } => 20,
            RedoOp::RefixFork { .. } => 18,
        }
    }
}

fn encode_event(e: Event, w: &mut Writer) {
    // Reuse DemonTable's tag scheme indirectly: Event::ALL index.
    let tag = Event::ALL
        .iter()
        .position(|x| *x == e)
        .expect("event in ALL") as u8;
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

impl Encode for RedoOp {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.tag());
        match self {
            RedoOp::AddNode {
                context,
                id,
                time,
                keep_history,
            } => {
                context.encode(w);
                id.encode(w);
                time.encode(w);
                w.put_bool(*keep_history);
            }
            RedoOp::DeleteNode { context, id, time } => {
                context.encode(w);
                id.encode(w);
                time.encode(w);
            }
            RedoOp::AddLink {
                context,
                id,
                from,
                to,
                time,
            } => {
                context.encode(w);
                id.encode(w);
                from.encode(w);
                to.encode(w);
                time.encode(w);
            }
            RedoOp::DeleteLink { context, id, time } => {
                context.encode(w);
                id.encode(w);
                time.encode(w);
            }
            RedoOp::ModifyNode {
                context,
                id,
                contents,
                link_pts,
                time,
            } => {
                context.encode(w);
                id.encode(w);
                w.put_bytes(contents);
                encode_seq(link_pts, w);
                time.encode(w);
            }
            RedoOp::SetNodeAttr {
                context,
                node,
                attr,
                value,
                time,
            } => {
                context.encode(w);
                node.encode(w);
                w.put_str(attr);
                value.encode(w);
                time.encode(w);
            }
            RedoOp::DeleteNodeAttr {
                context,
                node,
                attr,
                time,
            } => {
                context.encode(w);
                node.encode(w);
                w.put_str(attr);
                time.encode(w);
            }
            RedoOp::SetLinkAttr {
                context,
                link,
                attr,
                value,
                time,
            } => {
                context.encode(w);
                link.encode(w);
                w.put_str(attr);
                value.encode(w);
                time.encode(w);
            }
            RedoOp::DeleteLinkAttr {
                context,
                link,
                attr,
                time,
            } => {
                context.encode(w);
                link.encode(w);
                w.put_str(attr);
                time.encode(w);
            }
            RedoOp::InternAttr {
                context,
                name,
                time,
            } => {
                context.encode(w);
                w.put_str(name);
                time.encode(w);
            }
            RedoOp::SetGraphDemon {
                context,
                event,
                demon,
                time,
            } => {
                context.encode(w);
                encode_event(*event, w);
                demon.encode(w);
                time.encode(w);
            }
            RedoOp::SetNodeDemon {
                context,
                node,
                event,
                demon,
                time,
            } => {
                context.encode(w);
                node.encode(w);
                encode_event(*event, w);
                demon.encode(w);
                time.encode(w);
            }
            RedoOp::ChangeProtection {
                context,
                node,
                protections,
            } => {
                context.encode(w);
                node.encode(w);
                protections.encode(w);
            }
            RedoOp::CreateContext { id, from, time } => {
                id.encode(w);
                from.encode(w);
                time.encode(w);
            }
            RedoOp::MergeContext {
                child,
                into,
                policy,
                time,
            } => {
                child.encode(w);
                into.encode(w);
                w.put_u8(*policy);
                if let Some(time) = time {
                    time.encode(w);
                }
            }
            RedoOp::DestroyContext { id } => {
                id.encode(w);
            }
            RedoOp::AdoptContext {
                id,
                from,
                time,
                graph,
            } => {
                id.encode(w);
                from.encode(w);
                time.encode(w);
                w.put_bytes(graph);
            }
            RedoOp::MergeForeign {
                into,
                policy,
                fork_time,
                time,
                graph,
            } => {
                into.encode(w);
                w.put_u8(*policy);
                fork_time.encode(w);
                if let Some(time) = time {
                    time.encode(w);
                }
                w.put_bytes(graph);
            }
            RedoOp::RefixFork { child, into, time } => {
                child.encode(w);
                into.encode(w);
                time.encode(w);
            }
        }
    }
}

impl Decode for RedoOp {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(match r.get_u8()? {
            0 => RedoOp::AddNode {
                context: ContextId::decode(r)?,
                id: NodeIndex::decode(r)?,
                time: Time::decode(r)?,
                keep_history: r.get_bool()?,
            },
            1 => RedoOp::DeleteNode {
                context: ContextId::decode(r)?,
                id: NodeIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            2 => RedoOp::AddLink {
                context: ContextId::decode(r)?,
                id: LinkIndex::decode(r)?,
                from: LinkPt::decode(r)?,
                to: LinkPt::decode(r)?,
                time: Time::decode(r)?,
            },
            3 => RedoOp::DeleteLink {
                context: ContextId::decode(r)?,
                id: LinkIndex::decode(r)?,
                time: Time::decode(r)?,
            },
            4 => RedoOp::ModifyNode {
                context: ContextId::decode(r)?,
                id: NodeIndex::decode(r)?,
                contents: r.get_bytes()?.into(),
                link_pts: decode_seq(r)?,
                time: Time::decode(r)?,
            },
            5 => RedoOp::SetNodeAttr {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                attr: r.get_str()?.to_owned(),
                value: Value::decode(r)?,
                time: Time::decode(r)?,
            },
            6 => RedoOp::DeleteNodeAttr {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                attr: r.get_str()?.to_owned(),
                time: Time::decode(r)?,
            },
            7 => RedoOp::SetLinkAttr {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                attr: r.get_str()?.to_owned(),
                value: Value::decode(r)?,
                time: Time::decode(r)?,
            },
            8 => RedoOp::DeleteLinkAttr {
                context: ContextId::decode(r)?,
                link: LinkIndex::decode(r)?,
                attr: r.get_str()?.to_owned(),
                time: Time::decode(r)?,
            },
            9 => RedoOp::InternAttr {
                context: ContextId::decode(r)?,
                name: r.get_str()?.to_owned(),
                time: Time::decode(r)?,
            },
            10 => RedoOp::SetGraphDemon {
                context: ContextId::decode(r)?,
                event: decode_event(r)?,
                demon: Option::<DemonSpec>::decode(r)?,
                time: Time::decode(r)?,
            },
            11 => RedoOp::SetNodeDemon {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                event: decode_event(r)?,
                demon: Option::<DemonSpec>::decode(r)?,
                time: Time::decode(r)?,
            },
            12 => RedoOp::ChangeProtection {
                context: ContextId::decode(r)?,
                node: NodeIndex::decode(r)?,
                protections: decode_protections(r)?,
            },
            13 => RedoOp::CreateContext {
                id: ContextId::decode(r)?,
                from: ContextId::decode(r)?,
                time: Time::decode(r)?,
            },
            tag @ (14 | 19) => RedoOp::MergeContext {
                child: ContextId::decode(r)?,
                into: ContextId::decode(r)?,
                policy: r.get_u8()?,
                time: timed(tag == 19, r)?,
            },
            15 => RedoOp::DestroyContext {
                id: ContextId::decode(r)?,
            },
            16 => RedoOp::AdoptContext {
                id: ContextId::decode(r)?,
                from: ContextId::decode(r)?,
                time: Time::decode(r)?,
                graph: r.get_bytes()?.to_vec(),
            },
            tag @ (17 | 20) => RedoOp::MergeForeign {
                into: ContextId::decode(r)?,
                policy: r.get_u8()?,
                fork_time: Time::decode(r)?,
                time: timed(tag == 20, r)?,
                graph: r.get_bytes()?.to_vec(),
            },
            18 => RedoOp::RefixFork {
                child: ContextId::decode(r)?,
                into: ContextId::decode(r)?,
                time: Time::decode(r)?,
            },
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "RedoOp",
                    tag: tag as u64,
                })
            }
        })
    }
}

/// The merge time a record with a timed tag carries.
fn timed(timed: bool, r: &mut Reader<'_>) -> StorageResult<Option<Time>> {
    timed.then(|| Time::decode(r)).transpose()
}

/// An in-flight transaction.
#[derive(Debug, Clone)]
pub struct ActiveTxn {
    /// Transaction id (monotonic per graph).
    pub id: u64,
    /// Redo records accumulated so far.
    pub redo: Vec<RedoOp>,
}

impl ActiveTxn {
    /// Start a transaction.
    pub fn new(id: u64) -> ActiveTxn {
        ActiveTxn {
            id,
            redo: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redo_ops_roundtrip() {
        let ops = vec![
            RedoOp::AddNode {
                context: ContextId(0),
                id: NodeIndex(3),
                time: Time(7),
                keep_history: true,
            },
            RedoOp::DeleteNode {
                context: ContextId(0),
                id: NodeIndex(3),
                time: Time(9),
            },
            RedoOp::AddLink {
                context: ContextId(1),
                id: LinkIndex(2),
                from: LinkPt::current(NodeIndex(1), 5),
                to: LinkPt::pinned(NodeIndex(2), 0, Time(3)),
                time: Time(8),
            },
            RedoOp::DeleteLink {
                context: ContextId(0),
                id: LinkIndex(2),
                time: Time(10),
            },
            RedoOp::ModifyNode {
                context: ContextId(0),
                id: NodeIndex(1),
                contents: b"hello".to_vec().into(),
                link_pts: vec![LinkPt::current(NodeIndex(1), 2)],
                time: Time(11),
            },
            RedoOp::SetNodeAttr {
                context: ContextId(0),
                node: NodeIndex(1),
                attr: "document".into(),
                value: Value::str("requirements"),
                time: Time(12),
            },
            RedoOp::DeleteNodeAttr {
                context: ContextId(0),
                node: NodeIndex(1),
                attr: "document".into(),
                time: Time(13),
            },
            RedoOp::SetLinkAttr {
                context: ContextId(0),
                link: LinkIndex(1),
                attr: "relation".into(),
                value: Value::str("isPartOf"),
                time: Time(14),
            },
            RedoOp::DeleteLinkAttr {
                context: ContextId(0),
                link: LinkIndex(1),
                attr: "relation".into(),
                time: Time(15),
            },
            RedoOp::InternAttr {
                context: ContextId(0),
                name: "icon".into(),
                time: Time(16),
            },
            RedoOp::SetGraphDemon {
                context: ContextId(0),
                event: Event::NodeModified,
                demon: Some(DemonSpec::notify("d", "msg")),
                time: Time(17),
            },
            RedoOp::SetNodeDemon {
                context: ContextId(0),
                node: NodeIndex(1),
                event: Event::NodeOpened,
                demon: None,
                time: Time(18),
            },
            RedoOp::ChangeProtection {
                context: ContextId(0),
                node: NodeIndex(1),
                protections: Protections::PRIVATE,
            },
            RedoOp::CreateContext {
                id: ContextId(2),
                from: ContextId(0),
                time: Time(19),
            },
            RedoOp::MergeContext {
                child: ContextId(2),
                into: ContextId(0),
                policy: 1,
                time: None,
            },
            RedoOp::MergeContext {
                child: ContextId(2),
                into: ContextId(0),
                policy: 1,
                time: Some(Time(21)),
            },
            RedoOp::DestroyContext { id: ContextId(2) },
            RedoOp::AdoptContext {
                id: ContextId(9),
                from: ContextId(4),
                time: Time(20),
                graph: vec![1, 2, 3, 4],
            },
            RedoOp::MergeForeign {
                into: ContextId(4),
                policy: 2,
                fork_time: Time(20),
                time: None,
                graph: vec![5, 6, 7],
            },
            RedoOp::MergeForeign {
                into: ContextId(4),
                policy: 2,
                fork_time: Time(20),
                time: Some(Time(22)),
                graph: vec![5, 6, 7],
            },
            RedoOp::RefixFork {
                child: ContextId(9),
                into: ContextId(4),
                time: Time(25),
            },
        ];
        for op in ops {
            let decoded = RedoOp::from_bytes(&op.to_bytes()).unwrap();
            assert_eq!(decoded, op);
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(RedoOp::from_bytes(&[200]).is_err());
    }
}
