//! `ProbeVfs`: the benchmark's window on the storage layer.
//!
//! An `impl Vfs` that wraps the production `StdVfs` and counts and times
//! every durable-path call, classified by which file it touched (WAL,
//! snapshot, blob mirror). It is handed to `ShardedHam::create_with` /
//! `open_with`, so the program is measured from outside, unmodified.

use std::ffi::OsString;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use neptune_ham::shard::MAX_SHARDS;
use neptune_storage::vfs::{StdVfs, Vfs, VfsFile};

/// Which part of the store a path belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `wal.log` of any shard.
    Wal = 0,
    /// `graph.snap`, `graph.meta`, `shards.meta` and their temporaries.
    Snapshot = 1,
    /// The per-node blob mirror under `nodes/`.
    Blob = 2,
    /// Anything else.
    Other = 3,
}

/// The class and shard index of `path`. Shard 0 is the store root; shard
/// `k >= 1` lives under a `shard.<k>/` component.
pub fn classify(path: &Path) -> (FileClass, usize) {
    let mut shard = 0;
    let mut in_nodes = false;
    for c in path.components() {
        let c = c.as_os_str().to_string_lossy();
        if let Some(k) = c
            .strip_prefix("shard.")
            .and_then(|k| k.parse::<usize>().ok())
        {
            shard = k.min(MAX_SHARDS - 1);
        } else if c == "nodes" {
            in_nodes = true;
        }
    }
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let class = if in_nodes {
        FileClass::Blob
    } else if name == "wal.log" {
        FileClass::Wal
    } else if name.starts_with("graph.") || name.starts_with("shards.") {
        FileClass::Snapshot
    } else {
        FileClass::Other
    };
    (class, shard)
}

/// A directory fsync has no file name to go by: the blob mirror's own
/// directory is `Blob`, a store or shard directory is synced to make a
/// snapshot rename durable.
fn classify_dir(dir: &Path) -> FileClass {
    match classify(dir).0 {
        FileClass::Blob => FileClass::Blob,
        _ => FileClass::Snapshot,
    }
}

#[derive(Debug, Default)]
struct ClassCounters {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    append_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    creates: AtomicU64,
    renames: AtomicU64,
    dir_syncs: AtomicU64,
    dir_sync_ns: AtomicU64,
}

/// A plain copy of one class's counters; subtract two to get a phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassSnapshot {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    pub creates: u64,
    pub renames: u64,
    pub dir_syncs: u64,
    pub dir_sync_ns: u64,
}

impl ClassSnapshot {
    /// Nanoseconds spent inside the wrapped filesystem for this class.
    pub fn busy_ns(&self) -> u64 {
        self.append_ns + self.sync_ns + self.dir_sync_ns
    }

    fn zip(&self, o: &ClassSnapshot, f: impl Fn(u64, u64) -> u64) -> ClassSnapshot {
        ClassSnapshot {
            appends: f(self.appends, o.appends),
            append_bytes: f(self.append_bytes, o.append_bytes),
            append_ns: f(self.append_ns, o.append_ns),
            syncs: f(self.syncs, o.syncs),
            sync_ns: f(self.sync_ns, o.sync_ns),
            creates: f(self.creates, o.creates),
            renames: f(self.renames, o.renames),
            dir_syncs: f(self.dir_syncs, o.dir_syncs),
            dir_sync_ns: f(self.dir_sync_ns, o.dir_sync_ns),
        }
    }
}

/// Every counter at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSnapshot {
    classes: [ClassSnapshot; 4],
    /// WAL fsyncs per shard: the commit distribution seen from the disk.
    pub wal_syncs_by_shard: Vec<u64>,
}

impl ProbeSnapshot {
    pub fn class(&self, class: FileClass) -> &ClassSnapshot {
        &self.classes[class as usize]
    }

    /// All classes summed.
    pub fn total(&self) -> ClassSnapshot {
        self.classes
            .iter()
            .fold(ClassSnapshot::default(), |a, c| a.zip(c, |x, y| x + y))
    }

    /// Counters of two phases together.
    pub fn plus(&self, other: &ProbeSnapshot) -> ProbeSnapshot {
        ProbeSnapshot {
            classes: std::array::from_fn(|i| self.classes[i].zip(&other.classes[i], |a, b| a + b)),
            wal_syncs_by_shard: self
                .wal_syncs_by_shard
                .iter()
                .zip(&other.wal_syncs_by_shard)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProbeSnapshot) -> ProbeSnapshot {
        ProbeSnapshot {
            classes: std::array::from_fn(|i| {
                self.classes[i].zip(&earlier.classes[i], |a, b| a - b)
            }),
            wal_syncs_by_shard: self
                .wal_syncs_by_shard
                .iter()
                .zip(&earlier.wal_syncs_by_shard)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

/// One timed filesystem call, for the trace file.
#[derive(Debug, Clone)]
pub struct VfsSpan {
    pub name: &'static str,
    pub class: FileClass,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Nanoseconds since the first call in this process: the one clock every
/// span in the trace file shares.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Shared counters behind a [`ProbeVfs`] and the files it opened.
#[derive(Debug)]
pub struct ProbeStats {
    classes: [ClassCounters; 4],
    wal_syncs_by_shard: [AtomicU64; MAX_SHARDS],
    /// Duration of every WAL fsync, for percentiles.
    wal_sync_samples: Mutex<Vec<u64>>,
    trace: AtomicBool,
    spans: Mutex<Vec<VfsSpan>>,
}

impl Default for ProbeStats {
    fn default() -> Self {
        ProbeStats {
            classes: Default::default(),
            wal_syncs_by_shard: std::array::from_fn(|_| AtomicU64::new(0)),
            wal_sync_samples: Mutex::default(),
            trace: AtomicBool::new(false),
            spans: Mutex::default(),
        }
    }
}

/// Counters publish no other data, so `Relaxed` is enough throughout.
const R: Ordering = Ordering::Relaxed;

impl ProbeStats {
    pub fn snapshot(&self) -> ProbeSnapshot {
        ProbeSnapshot {
            classes: std::array::from_fn(|i| {
                let c = &self.classes[i];
                ClassSnapshot {
                    appends: c.appends.load(R),
                    append_bytes: c.append_bytes.load(R),
                    append_ns: c.append_ns.load(R),
                    syncs: c.syncs.load(R),
                    sync_ns: c.sync_ns.load(R),
                    creates: c.creates.load(R),
                    renames: c.renames.load(R),
                    dir_syncs: c.dir_syncs.load(R),
                    dir_sync_ns: c.dir_sync_ns.load(R),
                }
            }),
            wal_syncs_by_shard: self.wal_syncs_by_shard.iter().map(|a| a.load(R)).collect(),
        }
    }

    /// Nanoseconds spent inside the wrapped filesystem so far.
    pub fn busy_ns(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.append_ns.load(R) + c.sync_ns.load(R) + c.dir_sync_ns.load(R))
            .sum()
    }

    /// Take the WAL fsync durations recorded so far, leaving none.
    pub fn take_wal_sync_samples(&self) -> Vec<u64> {
        std::mem::take(&mut *self.wal_sync_samples.lock().expect("probe samples"))
    }

    /// Start or stop keeping a span per call.
    pub fn set_trace(&self, on: bool) {
        self.trace.store(on, R);
    }

    pub fn take_spans(&self) -> Vec<VfsSpan> {
        std::mem::take(&mut *self.spans.lock().expect("probe spans"))
    }

    fn span(&self, name: &'static str, class: FileClass, start_ns: u64, end_ns: u64) {
        if self.trace.load(R) {
            self.spans.lock().expect("probe spans").push(VfsSpan {
                name,
                class,
                start_ns,
                end_ns,
            });
        }
    }

    fn timed<T>(
        &self,
        name: &'static str,
        class: FileClass,
        ns: impl Fn(&ClassCounters) -> &AtomicU64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        ns(&self.classes[class as usize]).fetch_add(end - start, R);
        self.span(name, class, start, end);
        (out, end - start)
    }
}

/// The counting filesystem.
#[derive(Debug)]
pub struct ProbeVfs {
    inner: Arc<dyn Vfs>,
    stats: Arc<ProbeStats>,
}

impl ProbeVfs {
    /// A probe over the production filesystem, and its counters.
    pub fn std() -> (Arc<dyn Vfs>, Arc<ProbeStats>) {
        let stats = Arc::new(ProbeStats::default());
        let vfs = Arc::new(ProbeVfs {
            inner: StdVfs::arc(),
            stats: Arc::clone(&stats),
        });
        (vfs, stats)
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        let (class, shard) = classify(path);
        Box::new(ProbeFile {
            inner: file,
            class,
            shard,
            stats: Arc::clone(&self.stats),
        })
    }
}

#[derive(Debug)]
struct ProbeFile {
    inner: Box<dyn VfsFile>,
    class: FileClass,
    shard: usize,
    stats: Arc<ProbeStats>,
}

impl VfsFile for ProbeFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let c = &self.stats.classes[self.class as usize];
        c.appends.fetch_add(1, R);
        c.append_bytes.fetch_add(data.len() as u64, R);
        let inner = &mut self.inner;
        self.stats
            .timed(
                "vfs.append",
                self.class,
                |c| &c.append_ns,
                || inner.append(data),
            )
            .0
    }

    fn sync(&mut self) -> io::Result<()> {
        self.stats.classes[self.class as usize]
            .syncs
            .fetch_add(1, R);
        let inner = &mut self.inner;
        let (out, ns) = self
            .stats
            .timed("vfs.sync", self.class, |c| &c.sync_ns, || inner.sync());
        if self.class == FileClass::Wal {
            self.stats.wal_syncs_by_shard[self.shard].fetch_add(1, R);
            self.stats
                .wal_sync_samples
                .lock()
                .expect("probe samples")
                .push(ns);
        }
        out
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Vfs for ProbeVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_append(path)?))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.stats.classes[classify(path).0 as usize]
            .creates
            .fetch_add(1, R);
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.stats.classes[classify(to).0 as usize]
            .renames
            .fetch_add(1, R);
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let class = classify_dir(dir);
        self.stats.classes[class as usize].dir_syncs.fetch_add(1, R);
        self.stats
            .timed(
                "vfs.sync_dir",
                class,
                |c| &c.dir_sync_ns,
                || self.inner.sync_dir(dir),
            )
            .0
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn remove_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(dir)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<OsString>> {
        self.inner.read_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn set_permissions(&self, path: &Path, mode: u32) -> io::Result<()> {
        self.inner.set_permissions(path, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("probe-vfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn classifies_root_and_shard_layouts() {
        for (prefix, shard) in [("store", 0), ("store/shard.3", 3), ("store/shard.7", 7)] {
            let p = |rest: &str| PathBuf::from(format!("{prefix}/{rest}"));
            assert_eq!(classify(&p("wal.log")), (FileClass::Wal, shard));
            assert_eq!(classify(&p("graph.snap")), (FileClass::Snapshot, shard));
            assert_eq!(classify(&p("graph.tmp")), (FileClass::Snapshot, shard));
            assert_eq!(classify(&p("graph.meta")), (FileClass::Snapshot, shard));
            assert_eq!(
                classify(&p("nodes/0000000000000005.blob")),
                (FileClass::Blob, shard)
            );
            assert_eq!(
                classify(&p("nodes/0000000000000005.blob.tmp")),
                (FileClass::Blob, shard)
            );
            assert_eq!(classify_dir(&p("nodes")), FileClass::Blob);
            assert_eq!(classify(&p("notes.txt")), (FileClass::Other, shard));
        }
        assert_eq!(
            classify(Path::new("store/shards.meta")),
            (FileClass::Snapshot, 0)
        );
        assert_eq!(classify_dir(Path::new("store")), FileClass::Snapshot);
        assert_eq!(
            classify_dir(Path::new("store/shard.2")),
            FileClass::Snapshot
        );
    }

    #[test]
    fn scripted_sequence_yields_exact_counts() {
        let dir = tmpdir("script");
        let shard = dir.join("shard.2");
        std::fs::create_dir_all(&shard).unwrap();
        let (vfs, stats) = ProbeVfs::std();

        // N = 5 appends and M = 3 syncs on shard 2's WAL.
        let mut wal = vfs.open_append(&shard.join("wal.log")).unwrap();
        for i in 0..5usize {
            wal.append(&vec![b'x'; 10 + i]).unwrap();
        }
        for _ in 0..3 {
            wal.sync().unwrap();
        }
        // One create + append + sync + rename + directory sync: a snapshot.
        let tmp = dir.join("graph.tmp");
        let mut f = vfs.create(&tmp).unwrap();
        f.append(b"snapshot-bytes").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&tmp, &dir.join("graph.snap")).unwrap();
        vfs.sync_dir(&dir).unwrap();

        let s = stats.snapshot();
        let wal_c = s.class(FileClass::Wal);
        assert_eq!(wal_c.appends, 5);
        assert_eq!(wal_c.append_bytes, 10 + 11 + 12 + 13 + 14);
        assert_eq!(wal_c.syncs, 3);
        assert_eq!((wal_c.creates, wal_c.renames, wal_c.dir_syncs), (0, 0, 0));
        assert_eq!(s.wal_syncs_by_shard[2], 3);
        assert_eq!(s.wal_syncs_by_shard.iter().sum::<u64>(), 3);
        assert_eq!(stats.take_wal_sync_samples().len(), 3);
        assert!(stats.take_wal_sync_samples().is_empty());

        let snap = s.class(FileClass::Snapshot);
        assert_eq!((snap.creates, snap.renames, snap.dir_syncs), (1, 1, 1));
        assert_eq!((snap.appends, snap.append_bytes, snap.syncs), (1, 14, 1));
        assert_eq!(*s.class(FileClass::Blob), ClassSnapshot::default());

        let total = s.total();
        assert_eq!((total.appends, total.syncs), (6, 4));
        assert_eq!(stats.busy_ns(), total.busy_ns());

        // A phase is the difference of two snapshots.
        wal.append(b"more").unwrap();
        let phase = stats.snapshot().since(&s);
        assert_eq!(phase.class(FileClass::Wal).appends, 1);
        assert_eq!(phase.class(FileClass::Wal).append_bytes, 4);
        assert_eq!(phase.class(FileClass::Snapshot).creates, 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spans_are_kept_only_while_tracing() {
        let dir = tmpdir("spans");
        let (vfs, stats) = ProbeVfs::std();
        let mut f = vfs.open_append(&dir.join("wal.log")).unwrap();
        f.append(b"a").unwrap();
        assert!(stats.take_spans().is_empty());
        stats.set_trace(true);
        f.append(b"b").unwrap();
        f.sync().unwrap();
        let spans = stats.take_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .iter()
            .all(|s| s.class == FileClass::Wal && s.end_ns >= s.start_ns));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
