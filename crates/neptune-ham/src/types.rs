//! The HAM's atomic domains.
//!
//! The paper's Appendix opens with the atomic domains every operation is
//! typed over: `NodeIndex`, `LinkIndex`, `AttributeIndex`, `Time`,
//! `ProjectId`, `Context`, `Protections`, and the composites
//! `LinkPt = NodeIndex × Position × Time × Boolean` and
//! `Version = Time × Explanation`. This module defines them as newtypes so
//! the Rust signatures of the HAM operations read like the paper's.

use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::error::Result as StorageResult;

pub use neptune_storage::blobstore::Protections;

/// Unique identification for a hyperdata node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIndex(pub u64);

/// Unique identification for a hyperdata link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkIndex(pub u64);

/// Unique identification for an attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttributeIndex(pub u64);

/// Unique identification for a hyperdata graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProjectId(pub u64);

/// Unique identification for the "current graph" — an opened graph, and
/// (with the multiple-version-threads extension of paper §5) which version
/// thread operations apply to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContextId(pub u64);

/// The main (trunk) version thread every graph starts with.
pub const MAIN_CONTEXT: ContextId = ContextId(0);

/// A non-negative integer representation for a given date and time.
///
/// Neptune's reproduction uses a **logical** per-graph version clock: each
/// state-changing operation advances it by one. The paper only requires that
/// `Time` totally orders versions; a logical clock additionally makes every
/// test and benchmark deterministic. `Time(0)` is reserved and means
/// "current version" wherever the appendix says *"if Time is zero then …
/// the current version"*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(pub u64);

impl Time {
    /// The distinguished "current version" marker.
    pub const CURRENT: Time = Time(0);

    /// Whether this is the "current version" marker.
    pub fn is_current(self) -> bool {
        self.0 == 0
    }
}

/// An ordinal position within a node's contents (a byte offset; the paper:
/// "If the node contains text, the offset can be interpreted as a character
/// position").
pub type Position = u64;

/// One end of a link: `LinkPt = NodeIndex × Position × Time × Boolean`.
///
/// `time` pins the attachment to a particular version of the node
/// (`Time::CURRENT` = the current version, per `addLink`'s "if a Time is
/// zero then the link always refers to the current version"). The paper
/// describes these as two mechanisms: a version-pinned attachment is "a
/// useful primitive for building a configuration manager", while a current
/// attachment is "an automatic update mechanism" whose offset history is
/// versioned. The Boolean records which mechanism is in force:
/// `track_current = true` means the attachment follows the node's current
/// version and its offset history is maintained per version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkPt {
    /// The node this end is attached to.
    pub node: NodeIndex,
    /// Byte offset of the attachment within the node's contents.
    pub position: Position,
    /// Version of the node the attachment refers to; `CURRENT` tracks.
    pub time: Time,
    /// Whether the attachment follows the current version.
    pub track_current: bool,
}

impl LinkPt {
    /// An attachment that always refers to the node's current version.
    pub fn current(node: NodeIndex, position: Position) -> LinkPt {
        LinkPt {
            node,
            position,
            time: Time::CURRENT,
            track_current: true,
        }
    }

    /// An attachment pinned to the version of `node` in effect at `time` —
    /// the configuration-management primitive.
    pub fn pinned(node: NodeIndex, position: Position, time: Time) -> LinkPt {
        LinkPt {
            node,
            position,
            time,
            track_current: false,
        }
    }
}

/// `Version = Time × Explanation`: one entry of a version history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// When the version was created.
    pub time: Time,
    /// Explanatory text supplied with (or derived from) the change. Shared:
    /// copying a version list copies no text, and a node's list keeps one
    /// string for a run of versions explained alike.
    pub explanation: std::sync::Arc<str>,
}

impl Version {
    /// Construct a version record.
    pub fn new(time: Time, explanation: impl Into<std::sync::Arc<str>>) -> Version {
        Version {
            time,
            explanation: explanation.into(),
        }
    }
}

/// A valid computer name in a networking environment (`openGraph`'s
/// `Machine` operand). Locally opened graphs use [`Machine::local`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Machine(pub String);

impl Machine {
    /// The machine the caller is running on.
    pub fn local() -> Machine {
        Machine("localhost".to_string())
    }
}

macro_rules! codec_newtype {
    ($ty:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Writer) {
                w.put_u64(self.0);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
                Ok($ty(r.get_u64()?))
            }
        }
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($ty), "({})"), self.0)
            }
        }
    };
}

codec_newtype!(NodeIndex);
codec_newtype!(LinkIndex);
codec_newtype!(AttributeIndex);
codec_newtype!(ProjectId);
codec_newtype!(ContextId);
codec_newtype!(Time);

impl Encode for LinkPt {
    fn encode(&self, w: &mut Writer) {
        self.node.encode(w);
        w.put_u64(self.position);
        self.time.encode(w);
        w.put_bool(self.track_current);
    }
}

impl Decode for LinkPt {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(LinkPt {
            node: NodeIndex::decode(r)?,
            position: r.get_u64()?,
            time: Time::decode(r)?,
            track_current: r.get_bool()?,
        })
    }
}

impl Encode for Version {
    fn encode(&self, w: &mut Writer) {
        self.time.encode(w);
        w.put_str(&self.explanation);
    }
}

impl Decode for Version {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(Version {
            time: Time::decode(r)?,
            explanation: r.get_str()?.into(),
        })
    }
}

/// Decode a [`Protections`] written by its `Encode` impl (kept for call
/// sites that predate the trait impl living in `neptune-storage`).
pub fn decode_protections(r: &mut Reader<'_>) -> StorageResult<Protections> {
    Protections::decode(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_codec_roundtrips() {
        let n = NodeIndex(42);
        assert_eq!(NodeIndex::from_bytes(&n.to_bytes()).unwrap(), n);
        let t = Time(7);
        assert_eq!(Time::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn time_current_marker() {
        assert!(Time::CURRENT.is_current());
        assert!(!Time(1).is_current());
        assert_eq!(Time::default(), Time::CURRENT);
    }

    #[test]
    fn linkpt_constructors() {
        let c = LinkPt::current(NodeIndex(1), 10);
        assert!(c.track_current);
        assert!(c.time.is_current());
        let p = LinkPt::pinned(NodeIndex(1), 10, Time(5));
        assert!(!p.track_current);
        assert_eq!(p.time, Time(5));
    }

    #[test]
    fn linkpt_codec_roundtrip() {
        for pt in [
            LinkPt::current(NodeIndex(3), 0),
            LinkPt::pinned(NodeIndex(9), 123, Time(4)),
        ] {
            assert_eq!(LinkPt::from_bytes(&pt.to_bytes()).unwrap(), pt);
        }
    }

    #[test]
    fn version_codec_roundtrip() {
        let v = Version::new(Time(12), "added section 3");
        assert_eq!(Version::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(NodeIndex(5).to_string(), "NodeIndex(5)");
        assert_eq!(Time(5).to_string(), "Time(5)");
    }

    #[test]
    fn times_order() {
        assert!(Time(1) < Time(2));
        assert!(Time::CURRENT < Time(1));
    }
}
