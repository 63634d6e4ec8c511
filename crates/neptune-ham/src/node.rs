//! Nodes: the atomic data unit of a hyperdocument.
//!
//! Paper §A.2: *"Each node is either an archive or a file. Complete version
//! histories are maintained for archives, only the current version is
//! available for files."* Node contents are uninterpreted bytes. A node
//! also carries attributes, per-node demons, protections, the set of links
//! ever attached to it, and two version histories: **major** versions
//! ("updates to the contents") and **minor** versions ("updates that relate
//! to the node but do not change its contents, for example adding a link or
//! defining an attribute value") — `getNodeVersions` returns both.

use std::sync::Arc;

use neptune_storage::archive::Archive;
use neptune_storage::blobstore::NodeFiles;
use neptune_storage::codec::{decode_seq, encode_seq, Decode, Encode, Reader, Writer};
use neptune_storage::error::{Result as StorageResult, StorageError};
use neptune_storage::sharedvec::SharedVec;

use crate::attributes::AttrMap;
use crate::demons::DemonTable;
use crate::error::{HamError, Result};
use crate::history::Versioned;
use crate::types::{decode_protections, LinkIndex, NodeIndex, Protections, Time, Version};

/// Node contents storage: archive (full history, backward deltas) or file
/// (current version only).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeContents {
    /// Complete version history, stored as head + backward deltas.
    Archive(Archive),
    /// Current version only.
    File {
        /// The current contents, shared: readers get a refcount bump and
        /// modification replaces the `Arc` rather than mutating through it.
        data: Arc<[u8]>,
        /// Time of the last modification.
        time: Time,
    },
}

/// A node's major or minor version history. Like the archive's deltas it
/// is shared between the copies of a node — a commit copies the node it
/// touches, never its history — and consecutive versions with the same
/// explanation share one string.
#[derive(Debug, Clone, Default, PartialEq)]
struct VersionList(SharedVec<Version>);

/// A version explained by `explanation`, sharing `prev`'s string if that
/// says the same.
fn version_after(prev: Option<&Version>, time: Time, explanation: &str) -> Version {
    let explanation = match prev {
        Some(prev) if *prev.explanation == *explanation => Arc::clone(&prev.explanation),
        _ => Arc::from(explanation),
    };
    Version { time, explanation }
}

impl VersionList {
    fn push(&mut self, time: Time, explanation: &str) {
        self.0.push(version_after(self.0.last(), time, explanation));
    }

    fn last_time(&self) -> Option<Time> {
        self.0.last().map(|v| v.time)
    }

    fn to_vec(&self) -> Vec<Version> {
        self.0.iter().cloned().collect()
    }
}

impl Encode for VersionList {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0.len() as u64);
        for v in self.0.iter() {
            v.encode(w);
        }
    }
}

impl Decode for VersionList {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let mut versions: Vec<Version> = Vec::new();
        for _ in 0..r.get_u64()? {
            let time = Time::decode(r)?;
            versions.push(version_after(versions.last(), time, r.get_str()?));
        }
        Ok(VersionList(versions.into()))
    }
}

/// A hyperdata node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's unique identification.
    pub id: NodeIndex,
    /// Creation time.
    pub created: Time,
    /// Existence history: true while the node is alive; `deleteNode`
    /// records a deletion but old versions of the graph still see the node.
    pub alive: Versioned<bool>,
    contents: NodeContents,
    /// Attribute/value pairs.
    pub attrs: AttrMap,
    /// Per-node demons.
    pub demons: DemonTable,
    /// File protections for the node's backing store.
    pub protections: Protections,
    /// Every link that was ever attached to this node (either end). Whether
    /// an attachment is live at a given time is determined by the link.
    pub incident_links: Vec<LinkIndex>,
    major_versions: VersionList,
    minor_versions: VersionList,
}

impl Node {
    /// Create a node whose first version holds `contents`. `keep_history =
    /// true` makes it an archive (the `addNode` Boolean operand); otherwise
    /// it is a file node.
    pub fn new(
        id: NodeIndex,
        now: Time,
        keep_history: bool,
        contents: impl Into<Arc<[u8]>>,
    ) -> Node {
        let contents = if keep_history {
            NodeContents::Archive(Archive::new(contents, now.0))
        } else {
            NodeContents::File {
                data: contents.into(),
                time: now,
            }
        };
        let mut major_versions = VersionList::default();
        major_versions.push(now, "created");
        Node {
            id,
            created: now,
            alive: Versioned::with_initial(now, true),
            contents,
            attrs: AttrMap::new(),
            demons: DemonTable::new(),
            protections: Protections::DEFAULT,
            incident_links: Vec::new(),
            major_versions,
            minor_versions: VersionList::default(),
        }
    }

    /// Whether this node keeps a complete version history.
    pub fn is_archive(&self) -> bool {
        matches!(self.contents, NodeContents::Archive(_))
    }

    /// The backing archive, if this node keeps full version history; `None`
    /// for file nodes. Used by integrity checkers to walk the delta chain.
    pub fn archive(&self) -> Option<&neptune_storage::Archive> {
        match &self.contents {
            NodeContents::Archive(a) => Some(a),
            NodeContents::File { .. } => None,
        }
    }

    /// Whether the node exists (is not deleted) at `time`.
    pub fn exists_at(&self, time: Time) -> bool {
        self.alive.get_at(time).copied().unwrap_or(false)
    }

    /// Contents at `time` (`CURRENT` = newest). File nodes only answer for
    /// the current version.
    pub fn contents_at(&self, time: Time) -> Result<Arc<[u8]>> {
        match &self.contents {
            NodeContents::Archive(a) => a.checkout(time.0).map_err(HamError::from),
            NodeContents::File { data, .. } => {
                if time.is_current() {
                    Ok(data.clone())
                } else {
                    Err(HamError::NoHistory(self.id))
                }
            }
        }
    }

    /// Version time of the current contents — `getNodeTimeStamp`.
    pub fn current_time(&self) -> Time {
        self.contents.head_time()
    }

    /// The version time of the contents in effect at `time`.
    pub fn resolve_content_time(&self, time: Time) -> Result<Time> {
        match &self.contents {
            NodeContents::Archive(a) => Ok(Time(a.resolve_time(time.0)?)),
            NodeContents::File { time: t, .. } => {
                if time.is_current() || time >= *t {
                    Ok(*t)
                } else {
                    Err(HamError::NoHistory(self.id))
                }
            }
        }
    }

    /// Check in new contents at `now` — the content half of `modifyNode`.
    /// Archives grow a new version; files overwrite.
    pub fn modify(
        &mut self,
        contents: impl Into<Arc<[u8]>>,
        now: Time,
        explanation: &str,
    ) -> Result<()> {
        match &mut self.contents {
            NodeContents::Archive(a) => a.checkin(contents, now.0)?,
            NodeContents::File { data, time } => {
                *data = contents.into();
                *time = now;
            }
        }
        self.major_versions.push(now, explanation);
        Ok(())
    }

    /// Record a minor version (link or attribute change).
    pub fn record_minor(&mut self, now: Time, explanation: &str) {
        // Coalesce several minor changes within one clock tick.
        if self.minor_versions.last_time() == Some(now) {
            return;
        }
        self.minor_versions.push(now, explanation);
    }

    /// `getNodeVersions`: (major, minor) version histories, oldest first.
    pub fn versions(&self) -> (Vec<Version>, Vec<Version>) {
        (self.major_versions.to_vec(), self.minor_versions.to_vec())
    }

    /// Bytes of storage for contents (delta-compressed for archives).
    pub fn storage_bytes(&self) -> u64 {
        match &self.contents {
            NodeContents::Archive(a) => a.storage_bytes(),
            NodeContents::File { data, .. } => data.len() as u64,
        }
    }

    /// Register that `link` attaches to this node.
    pub fn attach_link(&mut self, link: LinkIndex) {
        if !self.incident_links.contains(&link) {
            self.incident_links.push(link);
        }
    }
}

/// Contents tag 3: the snapshot names the node's file
/// (`nodes/<id>@<head time>`) instead of inlining its contents. Only MAIN's
/// nodes in a snapshot carry it; WAL records always inline.
const CONTENTS_IN_FILE: u8 = 3;

/// Where [`Node::decode_with`] finds contents a snapshot names by file:
/// the node and its head time in, the file's contents out.
pub type NodeFileLoader<'a> = dyn FnMut(NodeIndex, Time) -> StorageResult<NodeContents> + 'a;

impl NodeContents {
    fn encode(&self, w: &mut Writer) {
        match self {
            NodeContents::Archive(a) => {
                // Tag 2 is the v2 archive layout: canonical chain plus the
                // persisted skip ladder, so reopened stores keep sublinear
                // cold checkout. Tag 0 (ladder-less v1) is still decoded for
                // read compatibility; the next checkpoint re-encodes as v2.
                w.put_u8(2);
                a.encode_with_index(w);
            }
            NodeContents::File { data, time } => {
                w.put_u8(1);
                w.put_bytes(data);
                time.encode(w);
            }
        }
    }

    fn decode_tagged(tag: u8, r: &mut Reader<'_>) -> StorageResult<NodeContents> {
        Ok(match tag {
            0 => NodeContents::Archive(Archive::decode(r)?),
            1 => NodeContents::File {
                data: r.get_bytes()?.into(),
                time: Time::decode(r)?,
            },
            2 => NodeContents::Archive(Archive::decode_with_index(r)?),
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "NodeContents",
                    tag: tag as u64,
                })
            }
        })
    }

    /// Version time of the current contents.
    fn head_time(&self) -> Time {
        match self {
            NodeContents::Archive(a) => Time(a.head_time()),
            NodeContents::File { time, .. } => *time,
        }
    }

    /// The payload of a node file: the tagged contents encoding a snapshot
    /// inlines.
    pub fn to_file_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Read and decode `node`'s file for head `head` in `files`, which must
    /// hold the contents whose head is `head` and nothing more. Every error
    /// names the node and the head.
    pub fn load(files: &NodeFiles, node: NodeIndex, head: Time) -> StorageResult<NodeContents> {
        let payload = files.load(node.0, head.0)?;
        let decode = || {
            let mut r = Reader::new(&payload);
            let contents = Self::decode_tagged(r.get_u8()?, &mut r)?;
            if r.remaining() != 0 || contents.head_time() != head {
                return Err(StorageError::BadFileHeader {
                    context: "node file whose contents are not the head it is named by",
                });
            }
            Ok(contents)
        };
        decode().map_err(|source| StorageError::NodeFile {
            id: node.0,
            time: head.0,
            source: Box::new(source),
        })
    }
}

impl Node {
    /// The node's contents storage.
    pub fn contents(&self) -> &NodeContents {
        &self.contents
    }

    /// Encode the node; with `in_file`, its contents as a reference to its
    /// node file (tag 3 and the head time) rather than inline.
    pub(crate) fn encode_with(&self, w: &mut Writer, in_file: bool) {
        self.id.encode(w);
        self.created.encode(w);
        self.alive.encode(w);
        if in_file {
            w.put_u8(CONTENTS_IN_FILE);
            self.current_time().encode(w);
        } else {
            self.contents.encode(w);
        }
        self.attrs.encode(w);
        self.demons.encode(w);
        self.protections.encode(w);
        encode_seq(&self.incident_links, w);
        self.major_versions.encode(w);
        self.minor_versions.encode(w);
    }

    /// Decode a node, resolving contents held in a node file through `load`.
    pub(crate) fn decode_with(
        r: &mut Reader<'_>,
        load: &mut NodeFileLoader<'_>,
    ) -> StorageResult<Self> {
        let id = NodeIndex::decode(r)?;
        let created = Time::decode(r)?;
        let alive = Versioned::<bool>::decode(r)?;
        let contents = match r.get_u8()? {
            CONTENTS_IN_FILE => load(id, Time::decode(r)?)?,
            tag => NodeContents::decode_tagged(tag, r)?,
        };
        Ok(Node {
            id,
            created,
            alive,
            contents,
            attrs: AttrMap::decode(r)?,
            demons: DemonTable::decode(r)?,
            protections: decode_protections(r)?,
            incident_links: decode_seq(r)?,
            major_versions: VersionList::decode(r)?,
            minor_versions: VersionList::decode(r)?,
        })
    }
}

/// The loader for encodings that never name node files (WAL records): a
/// tag-3 node is an invalid tag there.
pub(crate) fn no_node_files(_: NodeIndex, _: Time) -> StorageResult<NodeContents> {
    Err(StorageError::InvalidTag {
        context: "NodeContents",
        tag: CONTENTS_IN_FILE as u64,
    })
}

impl Encode for Node {
    fn encode(&self, w: &mut Writer) {
        self.encode_with(w, false);
    }
}

impl Decode for Node {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Self::decode_with(r, &mut no_node_files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_node_keeps_history() {
        let mut n = Node::new(NodeIndex(1), Time(1), true, Vec::new());
        assert!(n.is_archive());
        n.modify(b"v2 contents".to_vec(), Time(5), "edit").unwrap();
        n.modify(b"v3 contents".to_vec(), Time(9), "edit").unwrap();
        assert_eq!(&n.contents_at(Time(1)).unwrap()[..], b"");
        assert_eq!(&n.contents_at(Time(5)).unwrap()[..], b"v2 contents");
        assert_eq!(&n.contents_at(Time(7)).unwrap()[..], b"v2 contents");
        assert_eq!(&n.contents_at(Time::CURRENT).unwrap()[..], b"v3 contents");
        assert_eq!(n.current_time(), Time(9));
    }

    #[test]
    fn file_node_has_no_history() {
        let mut n = Node::new(NodeIndex(2), Time(1), false, Vec::new());
        assert!(!n.is_archive());
        n.modify(b"only current".to_vec(), Time(5), "edit").unwrap();
        assert_eq!(&n.contents_at(Time::CURRENT).unwrap()[..], b"only current");
        assert!(matches!(
            n.contents_at(Time(1)),
            Err(HamError::NoHistory(_))
        ));
        assert_eq!(n.current_time(), Time(5));
    }

    #[test]
    fn versions_split_major_minor() {
        let mut n = Node::new(NodeIndex(3), Time(1), true, Vec::new());
        n.modify(b"x".to_vec(), Time(2), "content edit").unwrap();
        n.record_minor(Time(3), "attribute set");
        n.record_minor(Time(3), "coalesced");
        n.record_minor(Time(4), "link added");
        let (major, minor) = n.versions();
        assert_eq!(major.len(), 2); // created + edit
        assert_eq!(minor.len(), 2); // t3 coalesced, t4
        assert_eq!(&*major[1].explanation, "content edit");
    }

    #[test]
    fn existence_follows_alive_history() {
        let mut n = Node::new(NodeIndex(4), Time(5), true, Vec::new());
        assert!(!n.exists_at(Time(4)));
        assert!(n.exists_at(Time(5)));
        n.alive.delete(Time(9));
        assert!(n.exists_at(Time(8)));
        assert!(!n.exists_at(Time(9)));
        assert!(!n.exists_at(Time::CURRENT));
    }

    #[test]
    fn attach_link_dedupes() {
        let mut n = Node::new(NodeIndex(7), Time(1), true, Vec::new());
        n.attach_link(LinkIndex(1));
        n.attach_link(LinkIndex(1));
        n.attach_link(LinkIndex(2));
        assert_eq!(n.incident_links, vec![LinkIndex(1), LinkIndex(2)]);
    }

    #[test]
    fn codec_roundtrip() {
        let mut n = Node::new(NodeIndex(8), Time(1), true, Vec::new());
        n.modify(b"hello\nworld\n".to_vec(), Time(2), "edit")
            .unwrap();
        n.attrs.set(
            crate::types::AttributeIndex(0),
            crate::value::Value::str("x"),
            Time(3),
        );
        n.attach_link(LinkIndex(4));
        n.record_minor(Time(3), "attr");
        let decoded = Node::from_bytes(&n.to_bytes()).unwrap();
        assert_eq!(decoded, n);

        let f = Node::new(NodeIndex(9), Time(1), false, Vec::new());
        assert_eq!(Node::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn v2_encoding_carries_the_archive_index() {
        let mut n = Node::new(NodeIndex(10), Time(1), true, Vec::new());
        for i in 0..40u64 {
            n.modify(format!("draft {i}\n").into_bytes(), Time(i + 2), "edit")
                .unwrap();
        }
        assert!(n.archive().unwrap().skip_count() > 0);
        let decoded = Node::from_bytes(&n.to_bytes()).unwrap();
        assert_eq!(decoded, n);
        assert_eq!(
            decoded.archive().unwrap().skip_count(),
            n.archive().unwrap().skip_count(),
            "the skip ladder must survive the node encoding"
        );
    }

    #[test]
    fn legacy_v1_archive_tag_still_decodes() {
        let mut n = Node::new(NodeIndex(11), Time(1), true, Vec::new());
        n.modify(b"v2 contents".to_vec(), Time(2), "edit").unwrap();
        // Re-encode by hand with the pre-index tag 0 layout, as a store
        // written before the format bump would contain.
        let mut w = Writer::new();
        n.id.encode(&mut w);
        n.created.encode(&mut w);
        n.alive.encode(&mut w);
        w.put_u8(0);
        n.archive().unwrap().encode(&mut w);
        n.attrs.encode(&mut w);
        n.demons.encode(&mut w);
        n.protections.encode(&mut w);
        encode_seq(&n.incident_links, &mut w);
        n.major_versions.encode(&mut w);
        n.minor_versions.encode(&mut w);
        let decoded = Node::from_bytes(&w.into_bytes()).unwrap();
        assert_eq!(decoded, n, "v1 nodes must decode identically");
        assert_eq!(decoded.archive().unwrap().skip_count(), 0);
    }
}
