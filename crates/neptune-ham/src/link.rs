//! Links: directed, attributed connections between nodes.
//!
//! Paper §3: each end of a link attaches at an offset within a node's
//! contents, and there are *"two mechanisms for associating the link
//! attachment with versions of a node: the link attachment may refer to a
//! particular version of a node or it may always refer to the 'current'
//! version"*. For current-tracking ends, *"a history of link attachment
//! offsets is saved, allowing the link to be attached to different offsets
//! for each version of the node"* — so an [`Endpoint`]'s position is a
//! [`Versioned`] history.

use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::error::Result as StorageResult;

use crate::attributes::AttrMap;
use crate::history::Versioned;
use crate::types::{LinkIndex, LinkPt, NodeIndex, Position, Time, Version};

/// One end of a link.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// The node this end attaches to.
    pub node: NodeIndex,
    /// Attachment offset history (current-tracking ends accumulate one
    /// entry per node version whose offset moved).
    pub positions: Versioned<Position>,
    /// For pinned ends, the node version the attachment refers to.
    pub pinned_time: Time,
    /// Whether the attachment follows the node's current version.
    pub track_current: bool,
}

impl Endpoint {
    /// Build an endpoint from the `LinkPt` operand of `addLink`.
    pub fn from_linkpt(pt: LinkPt, now: Time) -> Endpoint {
        Endpoint {
            node: pt.node,
            positions: Versioned::with_initial(now, pt.position),
            pinned_time: if pt.track_current {
                Time::CURRENT
            } else {
                pt.time
            },
            track_current: pt.track_current,
        }
    }

    /// The attachment's offset at `time`.
    pub fn position_at(&self, time: Time) -> Option<Position> {
        self.positions.get_at(time).copied()
    }

    /// Reconstruct the `LinkPt` visible at `time`.
    pub fn linkpt_at(&self, time: Time) -> Option<LinkPt> {
        let position = self.position_at(time)?;
        Some(LinkPt {
            node: self.node,
            position,
            time: if self.track_current {
                Time::CURRENT
            } else {
                self.pinned_time
            },
            track_current: self.track_current,
        })
    }

    /// Record a new offset for this end (current-tracking ends only; the
    /// caller enforces that pinned ends never move).
    pub fn move_to(&mut self, position: Position, now: Time) {
        self.positions.set(now, position);
    }
}

impl Encode for Endpoint {
    fn encode(&self, w: &mut Writer) {
        self.node.encode(w);
        self.positions.encode(w);
        self.pinned_time.encode(w);
        w.put_bool(self.track_current);
    }
}

impl Decode for Endpoint {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(Endpoint {
            node: NodeIndex::decode(r)?,
            positions: Versioned::<Position>::decode(r)?,
            pinned_time: Time::decode(r)?,
            track_current: r.get_bool()?,
        })
    }
}

/// A directed link between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// The link's unique identification.
    pub id: LinkIndex,
    /// Creation time.
    pub created: Time,
    /// Existence history (deleteLink records a deletion; old graph versions
    /// still see the link).
    pub alive: Versioned<bool>,
    /// The "from node" end.
    pub from: Endpoint,
    /// The "to node" end.
    pub to: Endpoint,
    /// Attribute/value pairs describing the relationship.
    pub attrs: AttrMap,
    /// Minor version history (attribute/offset changes).
    pub versions: Vec<Version>,
}

impl Link {
    /// Create a link from the two `LinkPt` operands of `addLink`.
    pub fn new(id: LinkIndex, from: LinkPt, to: LinkPt, now: Time) -> Link {
        Link {
            id,
            created: now,
            alive: Versioned::with_initial(now, true),
            from: Endpoint::from_linkpt(from, now),
            to: Endpoint::from_linkpt(to, now),
            attrs: AttrMap::new(),
            versions: vec![Version::new(now, "created")],
        }
    }

    /// Whether the link exists (is not deleted) at `time`.
    pub fn exists_at(&self, time: Time) -> bool {
        self.alive.get_at(time).copied().unwrap_or(false)
    }

    /// Record a change for version bookkeeping.
    pub fn record_version(&mut self, now: Time, explanation: &str) {
        if self.versions.last().map(|v| v.time) == Some(now) {
            return;
        }
        self.versions.push(Version::new(now, explanation));
    }
}

impl Encode for Link {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        self.created.encode(w);
        self.alive.encode(w);
        self.from.encode(w);
        self.to.encode(w);
        self.attrs.encode(w);
        neptune_storage::codec::encode_seq(&self.versions, w);
    }
}

impl Decode for Link {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(Link {
            id: LinkIndex::decode(r)?,
            created: Time::decode(r)?,
            alive: Versioned::<bool>::decode(r)?,
            from: Endpoint::decode(r)?,
            to: Endpoint::decode(r)?,
            attrs: AttrMap::decode(r)?,
            versions: neptune_storage::codec::decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Link {
        Link::new(
            LinkIndex(1),
            LinkPt::current(NodeIndex(10), 5),
            LinkPt::pinned(NodeIndex(20), 0, Time(3)),
            Time(4),
        )
    }

    #[test]
    fn endpoints_reflect_linkpt_kinds() {
        let l = sample();
        assert!(l.from.track_current);
        assert!(l.from.pinned_time.is_current());
        assert!(!l.to.track_current);
        assert_eq!(l.to.pinned_time, Time(3));
    }

    #[test]
    fn offset_history_is_versioned() {
        let mut l = sample();
        l.from.move_to(42, Time(8));
        assert_eq!(l.from.position_at(Time(4)), Some(5));
        assert_eq!(l.from.position_at(Time(7)), Some(5));
        assert_eq!(l.from.position_at(Time(8)), Some(42));
        assert_eq!(l.from.position_at(Time::CURRENT), Some(42));
        assert_eq!(l.from.position_at(Time(3)), None);
    }

    #[test]
    fn linkpt_at_reconstructs_operand() {
        let l = sample();
        let pt = l.from.linkpt_at(Time::CURRENT).unwrap();
        assert_eq!(pt, LinkPt::current(NodeIndex(10), 5));
        let pt = l.to.linkpt_at(Time::CURRENT).unwrap();
        assert_eq!(pt, LinkPt::pinned(NodeIndex(20), 0, Time(3)));
    }

    #[test]
    fn existence() {
        let mut l = sample();
        l.alive.delete(Time(9));
        assert!(l.exists_at(Time(5)));
        assert!(!l.exists_at(Time(9)));
    }

    #[test]
    fn version_records_coalesce_per_tick() {
        let mut l = sample();
        l.record_version(Time(5), "a");
        l.record_version(Time(5), "b");
        l.record_version(Time(6), "c");
        assert_eq!(l.versions.len(), 3); // created + t5 + t6
    }

    #[test]
    fn codec_roundtrip() {
        let mut l = sample();
        l.from.move_to(9, Time(6));
        l.attrs.set(
            crate::types::AttributeIndex(2),
            crate::value::Value::str("annotates"),
            Time(6),
        );
        l.record_version(Time(6), "moved");
        assert_eq!(Link::from_bytes(&l.to_bytes()).unwrap(), l);
    }
}
