//! Node files: one durable file per node version head, carrying the
//! paper's protections.
//!
//! The HAM's `createGraph` takes a `Directory × Protections` and
//! `changeNodeProtection` sets *"the protections for the file storing the
//! contents of node NodeIndex"* (paper §A.2). [`NodeFiles`] keeps those
//! files inside a graph directory: `<id:016x>@<time:016x>` holds node `id`'s
//! contents encoding as of its head version `time`, framed with a length
//! and a CRC-32 as a snapshot is ([`crate::snapshot::frame`]), under the
//! node's `Protections` where the platform supports them. A new head gets a
//! new name, so a file is written once and never rewritten in place: a
//! snapshot may name it as soon as it is durable.

use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Result, StorageError};
use crate::snapshot::{frame, unframe, NODE_FILE_MAGIC};
use crate::vfs::{StdVfs, Vfs};

/// The paper's `Protections` domain: "one of the possible file protection
/// modes". Modeled as the classic owner/group/other read-write triplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Protections {
    /// Unix-style permission bits (e.g. `0o644`).
    pub mode: u32,
}

impl Protections {
    /// Owner read/write, group and world read.
    pub const DEFAULT: Protections = Protections { mode: 0o644 };
    /// Owner read/write only.
    pub const PRIVATE: Protections = Protections { mode: 0o600 };
    /// Read-only for everyone.
    pub const READ_ONLY: Protections = Protections { mode: 0o444 };

    /// Whether the owner may write under these protections.
    pub fn owner_writable(&self) -> bool {
        self.mode & 0o200 != 0
    }

    /// The mode a node file gets on disk: the read-write triplet of these
    /// protections, with owner read always kept. A node file is the store's
    /// only copy of its node's contents and every open reads it, so a mode
    /// its owner cannot read would leave the store unopenable; the exact
    /// protections stay in the snapshot.
    pub fn file_mode(&self) -> u32 {
        (self.mode & 0o777) | 0o400
    }
}

impl Default for Protections {
    fn default() -> Self {
        Protections::DEFAULT
    }
}

impl crate::codec::Encode for Protections {
    fn encode(&self, w: &mut crate::codec::Writer) {
        w.put_u64(self.mode as u64);
    }
}

impl crate::codec::Decode for Protections {
    fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self> {
        Ok(Protections {
            mode: r.get_u64()? as u32,
        })
    }
}

/// The directory of a graph's node files.
#[derive(Debug)]
pub struct NodeFiles {
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
}

impl NodeFiles {
    /// Open (creating if needed) the node-file directory `root` on the
    /// standard filesystem.
    pub fn open(root: impl AsRef<Path>) -> Result<NodeFiles> {
        Self::open_with(StdVfs::arc(), root)
    }

    /// Open (creating if needed) the node-file directory `root` through
    /// `vfs`.
    pub fn open_with(vfs: Arc<dyn Vfs>, root: impl AsRef<Path>) -> Result<NodeFiles> {
        let root = root.as_ref().to_path_buf();
        vfs.create_dir_all(&root)?;
        Ok(NodeFiles { vfs, root })
    }

    /// The file name of node `id` at head version `time`.
    pub fn file_name(id: u64, time: u64) -> String {
        format!("{id:016x}@{time:016x}")
    }

    /// The `(id, time)` a node-file name stands for, if it is one.
    pub fn parse_name(name: &str) -> Option<(u64, u64)> {
        let (id, time) = name.split_once('@')?;
        let hex = |s: &str| (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok())?;
        Some((hex(id)?, hex(time)?))
    }

    fn path_for(&self, id: u64, time: u64) -> PathBuf {
        self.root.join(Self::file_name(id, time))
    }

    /// Write node `id`'s file for head `time`: create, one append of the
    /// framed `payload`, fsync, then chmod to `protections`
    /// ([`Protections::file_mode`]). Returns the
    /// bytes written. The directory entry is not synced here: a checkpoint
    /// makes every file it wrote durable with one [`NodeFiles::sync_root`]
    /// before its snapshot names them. A failed write removes what it left,
    /// best effort; anything a crash leaves is unnamed, and the HAM's open
    /// sweeps it ([`NodeFiles::retain`]).
    pub fn put(&self, id: u64, time: u64, payload: &[u8], protections: Protections) -> Result<u64> {
        let path = self.path_for(id, time);
        let bytes = frame(NODE_FILE_MAGIC, payload);
        let written = (|| {
            let mut f = self.vfs.create(&path)?;
            f.append(&bytes)?;
            f.sync()?;
            self.vfs.set_permissions(&path, protections.file_mode())
        })();
        if let Err(e) = written {
            let _ = self.vfs.remove_file(&path);
            return Err(e.into());
        }
        Ok(bytes.len() as u64)
    }

    /// Read node `id`'s file for head `time` and verify its frame. Every
    /// error names the node and the time.
    pub fn load(&self, id: u64, time: u64) -> Result<Vec<u8>> {
        let named = |source: StorageError| StorageError::NodeFile {
            id,
            time,
            source: Box::new(source),
        };
        let bytes = match self.vfs.read(&self.path_for(id, time)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(named(StorageError::NotFound { id }))
            }
            Err(e) => return Err(named(e.into())),
        };
        let payload = unframe(&bytes, &[NODE_FILE_MAGIC], "node file").map_err(named)?;
        Ok(payload.to_vec())
    }

    /// Fsync the directory, making every completed create and remove in it
    /// durable. Errors propagate — a swallowed failure here would let a
    /// snapshot name a file whose directory entry is not on disk.
    pub fn sync_root(&self) -> Result<()> {
        self.vfs.sync_dir(&self.root)?;
        Ok(())
    }

    /// Remove node `id`'s file for head `time` (idempotent).
    pub fn remove(&self, id: u64, time: u64) -> Result<()> {
        match self.vfs.remove_file(&self.path_for(id, time)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Apply `protections` to node `id`'s file for head `time` — the HAM's
    /// `changeNodeProtection` ([`Protections::file_mode`]).
    pub fn set_protections(&self, id: u64, time: u64, protections: Protections) -> Result<()> {
        self.vfs
            .set_permissions(&self.path_for(id, time), protections.file_mode())?;
        Ok(())
    }

    /// Every `(id, time)` with a file in the directory, unsorted.
    pub fn files(&self) -> Result<Vec<(u64, u64)>> {
        Ok(self
            .names()?
            .iter()
            .filter_map(|name| Self::parse_name(&name.to_string_lossy()))
            .collect())
    }

    /// Remove every entry but the node files `keep` accepts: the files no
    /// snapshot names, half-written ones a crash left, and the `.blob`
    /// mirror of older builds alike. Best effort: an entry that will not go
    /// (a stray directory, say) stays, since nothing reads a file no
    /// snapshot names; only a directory that cannot be listed is an error.
    pub fn retain(&self, keep: impl Fn(u64, u64) -> bool) -> Result<()> {
        for name in self.names()? {
            let kept = Self::parse_name(&name.to_string_lossy()).is_some_and(|(id, t)| keep(id, t));
            if !kept {
                let _ = self.vfs.remove_file(&self.root.join(name));
            }
        }
        Ok(())
    }

    fn names(&self) -> Result<Vec<OsString>> {
        Ok(self.vfs.read_dir(&self.root)?)
    }

    /// The directory.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn store(name: &str) -> NodeFiles {
        let dir = std::env::temp_dir().join(format!("neptune-blob-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        NodeFiles::open(dir).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store("rt");
        s.put(1, 5, b"node one", Protections::DEFAULT).unwrap();
        s.put(2, 7, b"", Protections::DEFAULT).unwrap();
        assert_eq!(s.load(1, 5).unwrap(), b"node one".to_vec());
        assert_eq!(s.load(2, 7).unwrap(), Vec::<u8>::new());
        let on_disk = fs::read(s.root().join(NodeFiles::file_name(1, 5))).unwrap();
        assert_eq!(on_disk, frame(NODE_FILE_MAGIC, b"node one"));
    }

    #[test]
    fn overwrite_replaces() {
        // A checkpoint retrying a file whose first write failed.
        let s = store("ow");
        s.put(7, 3, b"old", Protections::DEFAULT).unwrap();
        s.put(7, 3, b"new contents", Protections::DEFAULT).unwrap();
        assert_eq!(s.load(7, 3).unwrap(), b"new contents".to_vec());
    }

    #[test]
    fn missing_blob_is_not_found() {
        let s = store("missing");
        s.put(99, 1, b"head at 1", Protections::DEFAULT).unwrap();
        let err = s.load(99, 2).unwrap_err();
        assert!(
            matches!(&err, StorageError::NodeFile { id: 99, time: 2, source }
                if matches!(**source, StorageError::NotFound { id: 99 })),
            "{err}"
        );
        assert!(err.to_string().contains("node 99"), "{err}");
    }

    #[test]
    fn delete_is_idempotent() {
        let s = store("del");
        s.put(3, 1, b"x", Protections::DEFAULT).unwrap();
        s.remove(3, 1).unwrap();
        s.remove(3, 1).unwrap();
        assert_eq!(s.files().unwrap(), Vec::new());
    }

    #[test]
    fn ids_lists_contents() {
        let s = store("ids");
        s.put(10, 4, b"a", Protections::DEFAULT).unwrap();
        s.put(20, 9, b"b", Protections::DEFAULT).unwrap();
        fs::write(s.root().join("0000000000000030.blob"), b"older build").unwrap();
        let mut files = s.files().unwrap();
        files.sort_unstable();
        assert_eq!(files, vec![(10, 4), (20, 9)]);
        assert_eq!(
            NodeFiles::parse_name("000000000000000a@0000000000000004"),
            Some((10, 4))
        );
        assert_eq!(NodeFiles::parse_name("a@4"), None);
    }

    #[cfg(unix)]
    #[test]
    fn protections_are_applied() {
        use std::os::unix::fs::PermissionsExt;
        let s = store("prot");
        s.put(5, 2, b"guarded", Protections::PRIVATE).unwrap();
        let mode = |s: &NodeFiles| {
            let meta = fs::metadata(s.root().join(NodeFiles::file_name(5, 2))).unwrap();
            meta.permissions().mode() & 0o777
        };
        assert_eq!(mode(&s), 0o600);
        s.set_protections(5, 2, Protections::READ_ONLY).unwrap();
        assert_eq!(mode(&s), 0o444);
        // Modes without owner read keep it on disk, and only the triplet
        // reaches the file.
        for (given, on_disk) in [
            (0o000, 0o400),
            (0o200, 0o600),
            (0o044, 0o444),
            (0o4755, 0o755),
        ] {
            s.set_protections(5, 2, Protections { mode: given })
                .unwrap();
            assert_eq!(mode(&s), on_disk, "{given:#o}");
        }
        s.put(6, 2, b"sealed", Protections { mode: 0o000 }).unwrap();
        let meta = fs::metadata(s.root().join(NodeFiles::file_name(6, 2))).unwrap();
        assert_eq!(meta.permissions().mode() & 0o777, 0o400);
        // Restore writability so temp cleanup works elsewhere.
        s.set_protections(5, 2, Protections::DEFAULT).unwrap();
    }

    #[test]
    fn set_protections_on_missing_blob_fails() {
        let s = store("prot-missing");
        assert!(s.set_protections(42, 1, Protections::PRIVATE).is_err());
    }

    #[test]
    fn corrupt_or_torn_files_fail_their_load_naming_the_node() {
        let s = store("corrupt");
        s.put(4, 8, b"contents of node four", Protections::DEFAULT)
            .unwrap();
        let path = s.root().join(NodeFiles::file_name(4, 8));
        let good = fs::read(&path).unwrap();
        let mut flipped = good.clone();
        *flipped.last_mut().unwrap() ^= 1;
        fs::write(&path, &flipped).unwrap();
        let err = s.load(4, 8).unwrap_err();
        assert!(err.to_string().contains("node 4"), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(
            s.load(4, 8),
            Err(StorageError::NodeFile { id: 4, .. })
        ));
    }

    #[test]
    fn failed_put_leaves_no_temp_file_and_open_sweeps_stale_ones() {
        use crate::fault::{FaultKind, FaultVfs};
        let dir = std::env::temp_dir().join(format!("neptune-blob-tmp-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let names = |dir: &Path| {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let kept = NodeFiles::file_name(1, 1);

        // A put that fails at its append, its fsync or its chmod, or
        // cannot even create the file, removes what it wrote.
        for (kind, at) in [
            (FaultKind::ShortWrite, 0),
            (FaultKind::FailSync, 0),
            (FaultKind::FailWrite, 0),
            (FaultKind::FailWrite, 2),
        ] {
            let vfs = FaultVfs::new();
            let s = NodeFiles::open_with(Arc::new(vfs.clone()), &dir).unwrap();
            s.put(1, 1, b"kept", Protections::DEFAULT).unwrap();
            vfs.arm(kind, at);
            assert!(
                s.put(2, 1, b"doomed", Protections::DEFAULT).is_err(),
                "{kind}"
            );
            assert_eq!(names(&dir), vec![kept.clone()], "{kind} left a file behind");
            assert_eq!(s.load(1, 1).unwrap(), b"kept".to_vec());
        }

        // The process died mid-put (power cut: the cleanup cannot run), so
        // the torn file survives until the store's open sweeps every file
        // its snapshot does not name — the `.blob` mirror of older builds
        // with it.
        let vfs = FaultVfs::new();
        let s = NodeFiles::open_with(Arc::new(vfs.clone()), &dir).unwrap();
        fs::write(dir.join("0000000000000001.blob"), b"older build").unwrap();
        vfs.arm(FaultKind::PowerCut, 2); // create, append, then the sync dies
        assert!(s.put(3, 1, b"interrupted", Protections::DEFAULT).is_err());
        assert!(names(&dir).contains(&NodeFiles::file_name(3, 1)));
        let s = NodeFiles::open(&dir).unwrap();
        s.retain(|id, time| (id, time) == (1, 1)).unwrap();
        assert_eq!(
            names(&dir),
            vec![kept.clone()],
            "open must sweep unnamed files"
        );
        assert_eq!(s.files().unwrap(), vec![(1, 1)]);

        // An entry the sweep cannot remove stays, and does not fail it.
        fs::create_dir(dir.join("stray")).unwrap();
        s.retain(|id, time| (id, time) == (1, 1)).unwrap();
        assert_eq!(names(&dir), vec![kept, "stray".to_string()]);
        assert_eq!(s.files().unwrap(), vec![(1, 1)]);
    }

    #[test]
    fn protections_helpers() {
        assert!(Protections::DEFAULT.owner_writable());
        assert!(!Protections::READ_ONLY.owner_writable());
        assert_eq!(Protections::DEFAULT.file_mode(), 0o644);
        assert_eq!(Protections { mode: 0o200 }.file_mode(), 0o600);
    }
}
