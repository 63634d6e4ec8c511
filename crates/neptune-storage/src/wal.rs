//! Write-ahead log.
//!
//! The paper requires the HAM to be *"transaction-oriented"* and to provide
//! *"complete recovery from any aborted transaction"* (§2.2) and
//! *"transaction-based crash recovery"* (§3). This WAL provides the
//! durability half: each transaction's operations are appended as records
//! bracketed by `Begin`/`Commit` (or `Abort`), with the commit record
//! fsync'd. After a crash, [`Wal::recover`] replays only the operations of
//! committed transactions; a torn tail (partial final record) is detected by
//! length/CRC checks and discarded.
//!
//! Damage classification matters here: a record that fails its length or CRC
//! check **at end-of-file** is the expected signature of a crash mid-write
//! and is silently truncated, but the same failure with intact records
//! *after* it cannot be a torn write — it is mid-log corruption, and
//! truncating there would silently discard committed transactions. Mid-log
//! damage is therefore a hard [`StorageError::CorruptLog`] error, which
//! `neptune-check` surfaces as an unopenable store.
//!
//! The log is *fail-stop on write errors*: once any append, truncate, or
//! fsync fails, the `Wal` poisons itself and every further write returns
//! [`StorageError::LogPoisoned`] until the log is reopened. A failed append
//! may have left a torn frame, and a failed fsync may have *dropped* dirty
//! pages rather than merely delayed them — appending more intact frames
//! after either would turn a recoverable torn tail into unrecoverable
//! mid-log corruption, and re-syncing could make durable a commit whose
//! failure the caller already observed and rolled back.
//!
//! All file I/O goes through a [`Vfs`](crate::vfs::Vfs) so crash-consistency
//! tests can inject failures at every step ([`crate::fault::FaultVfs`]).
//!
//! Record layout on disk, after an 8-byte file header:
//!
//! ```text
//! [ payload_len: u32 LE ][ crc32(payload): u32 LE ][ payload ]
//! ```
//!
//! A transaction reaches the file as **one** write: [`Wal::append_transaction`]
//! frames its `Begin`, `Op` and `Commit` records back to back in one buffer
//! and appends that, then syncs once. The write can still be cut short, at
//! any byte. Recovery needs no new rule for that: a cut inside a frame
//! leaves a torn final frame, which the scan truncates; a cut on a frame
//! boundary leaves intact records of a transaction with no `Commit`, which
//! replay ignores. Either way the transaction is absent and the log is
//! usable, exactly as when the records were written one at a time.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::checksum::crc32;
use crate::codec::{read_u32_at, Decode, Encode, Reader, Writer};
use crate::error::{Result, StorageError};
use crate::varint;
use crate::vfs::{StdVfs, Vfs, VfsFile};

/// Magic bytes identifying a Neptune WAL file, version 1.
pub const WAL_MAGIC: &[u8; 8] = b"NEPTWAL1";

/// Kinds of log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A transaction started.
    Begin,
    /// One operation inside a transaction; the payload is opaque to the WAL.
    Op,
    /// The transaction's effects are durable once this record is on disk.
    Commit,
    /// The transaction was rolled back; its ops must be ignored on replay.
    Abort,
    /// Everything before this point has been folded into a snapshot.
    Checkpoint,
}

impl RecordKind {
    fn to_tag(self) -> u8 {
        match self {
            RecordKind::Begin => 0,
            RecordKind::Op => 1,
            RecordKind::Commit => 2,
            RecordKind::Abort => 3,
            RecordKind::Checkpoint => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => RecordKind::Begin,
            1 => RecordKind::Op,
            2 => RecordKind::Commit,
            3 => RecordKind::Abort,
            4 => RecordKind::Checkpoint,
            t => {
                return Err(StorageError::InvalidTag {
                    context: "RecordKind",
                    tag: t as u64,
                })
            }
        })
    }
}

/// One write-ahead log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonically increasing log sequence number.
    pub lsn: u64,
    /// Transaction this record belongs to (0 for checkpoints).
    pub txn_id: u64,
    /// What the record represents.
    pub kind: RecordKind,
    /// Opaque operation payload (empty except for `Op` records).
    pub payload: Vec<u8>,
}

impl Encode for WalRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.lsn);
        w.put_u64(self.txn_id);
        w.put_u8(self.kind.to_tag());
        w.put_bytes(&self.payload);
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(WalRecord {
            lsn: r.get_u64()?,
            txn_id: r.get_u64()?,
            kind: RecordKind::from_tag(r.get_u8()?)?,
            payload: r.get_bytes()?.to_vec(),
        })
    }
}

/// One committed transaction as recovered from the log: its id, the global
/// commit sequence stamped into its commit record (0 for logs written
/// before commit records carried a sequence), and its `Op` payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedTxn {
    /// Transaction id.
    pub txn_id: u64,
    /// Global commit sequence stamped by the HAM (0 when absent).
    pub seq: u64,
    /// The transaction's `Op` payloads, in append order.
    pub ops: Vec<Vec<u8>>,
}

/// An append-only, checksummed write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    next_lsn: u64,
    /// Records appended since the last `Checkpoint` record (every record in
    /// a log that has none).
    unfolded: u64,
    poisoned: bool,
    /// The frames of the write being assembled; kept between appends so a
    /// commit allocates nothing once the buffer has grown to size.
    frames: Vec<u8>,
    /// One `Op` payload being encoded, likewise kept.
    payload: Writer,
    /// The records the open scanned, from the last `Checkpoint` on, kept
    /// for the first recovery so it neither reads nor decodes the file
    /// again. Dropped by that recovery or by the first write.
    scanned: Option<Vec<WalRecord>>,
}

/// Largest write buffer a [`Wal`] keeps for the next commit. A transaction
/// that needed more (one carrying a whole encoded graph, say) gives its
/// buffers back instead of pinning them for the life of the log.
const KEPT_BUFFER_BYTES: usize = 16 * 1024;

/// Frame one record at the end of `frames`: the bytes [`WalRecord`]'s
/// encoding gives, behind their length and checksum. `write_payload` must
/// append exactly `payload_len` bytes.
fn push_frame(
    frames: &mut Vec<u8>,
    record: (u64, u64, RecordKind),
    payload_len: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let (lsn, txn_id, kind) = record;
    let header = frames.len();
    frames.extend_from_slice(&[0; 8]);
    varint::write_u64(frames, lsn);
    varint::write_u64(frames, txn_id);
    frames.push(kind.to_tag());
    varint::write_u64(frames, payload_len as u64);
    write_payload(frames);
    let body = &frames[header + 8..];
    let (len, crc) = (body.len() as u32, crc32(body));
    frames[header..header + 4].copy_from_slice(&len.to_le_bytes());
    frames[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
}

impl Wal {
    /// Open (creating if absent) the WAL at `path` on the standard
    /// filesystem.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Self::open_with(&StdVfs, path)
    }

    /// Open (creating if absent) the WAL at `path` through `vfs`.
    ///
    /// Any torn tail from a previous crash is truncated away so new records
    /// append after the last intact one. Corruption *before* the last record
    /// is not a torn tail and fails the open with
    /// [`StorageError::CorruptLog`] instead of silently dropping data.
    pub fn open_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let mut file = vfs.open_append(&path)?;
        let bytes = file.read_all()?;
        if bytes.is_empty() {
            file.append(WAL_MAGIC)?;
            file.sync()?;
            return Ok(Wal {
                file,
                path,
                next_lsn: 1,
                unfolded: 0,
                poisoned: false,
                frames: Vec::new(),
                payload: Writer::new(),
                scanned: None,
            });
        }

        let (mut records, valid_end) = Self::scan(&bytes)?;
        if valid_end < bytes.len() as u64 {
            // Torn tail: discard it.
            file.set_len(valid_end)?;
            if neptune_obs::enabled() {
                neptune_obs::registry()
                    .counter("neptune_storage_wal_torn_tail_truncations_total")
                    .inc();
            }
        }
        let next_lsn = records.last().map(|r| r.lsn + 1).unwrap_or(1);
        let unfolded = records
            .iter()
            .rev()
            .take_while(|r| r.kind != RecordKind::Checkpoint)
            .count() as u64;
        // Recovery starts at the last checkpoint; nothing before it is kept.
        records.drain(..records.len() - unfolded as usize);
        Ok(Wal {
            file,
            path,
            next_lsn,
            unfolded,
            poisoned: false,
            frames: Vec::new(),
            payload: Writer::new(),
            scanned: Some(records),
        })
    }

    /// Read all intact records, returning them and the byte offset of the
    /// end of the last intact record.
    ///
    /// A damaged frame at the very end of the file is a torn tail: the scan
    /// stops there and the caller may truncate. A damaged frame with bytes
    /// after it is mid-log corruption and a hard error — the frame header's
    /// own length field walks the scan from record to record, so nothing
    /// past the damage can be trusted, and truncating would drop committed
    /// transactions without telling anyone.
    fn scan(bytes: &[u8]) -> Result<(Vec<WalRecord>, u64)> {
        if !bytes.starts_with(WAL_MAGIC) {
            return Err(StorageError::BadFileHeader {
                context: "write-ahead log",
            });
        }
        let mut records = Vec::new();
        let mut pos = WAL_MAGIC.len();
        let mut last_lsn = 0u64;
        loop {
            if pos == bytes.len() {
                break; // clean end
            }
            // A torn length/crc header is only possible at end-of-file;
            // the checked reads stop the scan there instead of panicking
            // on truncated input (DESIGN.md §12).
            let (Some(payload_len), Some(expected_crc)) =
                (read_u32_at(bytes, pos), read_u32_at(bytes, pos + 4))
            else {
                break;
            };
            let payload_len = payload_len as usize;
            let body_start = pos + 8;
            let body_end = match body_start.checked_add(payload_len) {
                Some(e) if e <= bytes.len() => e,
                _ => break, // payload runs past end-of-file: torn final write
            };
            let Some(payload) = bytes.get(body_start..body_end) else {
                break; // unreachable given the bound check; stays panic-free
            };
            if crc32(payload) != expected_crc {
                if body_end == bytes.len() {
                    break; // damaged final record: torn tail, safe to truncate
                }
                return Err(StorageError::CorruptLog {
                    offset: pos as u64,
                    reason: "frame checksum mismatch mid-log",
                });
            }
            let record = WalRecord::from_bytes(payload).map_err(|_| StorageError::CorruptLog {
                offset: pos as u64,
                reason: "undecodable record body",
            })?;
            if record.lsn <= last_lsn {
                return Err(StorageError::CorruptLog {
                    offset: pos as u64,
                    reason: "non-monotonic LSN",
                });
            }
            last_lsn = record.lsn;
            records.push(record);
            pos = body_end;
        }
        Ok((records, pos as u64))
    }

    /// Mark the log unusable after a failed write or sync.
    fn poison(&mut self) {
        if !self.poisoned {
            self.poisoned = true;
            if neptune_obs::enabled() {
                neptune_obs::registry()
                    .counter("neptune_storage_wal_poisoned_total")
                    .inc();
            }
        }
    }

    /// Refuse writes after a poisoning failure.
    fn guard(&self) -> Result<()> {
        if self.poisoned {
            return Err(StorageError::LogPoisoned);
        }
        Ok(())
    }

    /// Whether an earlier write/sync failure has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Append a record, assigning it the next LSN. Not yet durable — call
    /// [`Wal::sync`] (done automatically by [`Wal::append_commit`]).
    pub fn append(&mut self, txn_id: u64, kind: RecordKind, payload: Vec<u8>) -> Result<u64> {
        let _span = neptune_obs::span!("storage.wal_append");
        self.guard()?;
        self.frames.clear();
        let lsn = self.next_record();
        push_frame(&mut self.frames, (lsn, txn_id, kind), payload.len(), |f| {
            f.extend_from_slice(&payload)
        });
        self.write_frames()?;
        Ok(lsn)
    }

    /// Claim the next LSN for a record about to be framed.
    fn next_record(&mut self) -> u64 {
        self.scanned = None;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.unfolded += 1;
        lsn
    }

    /// Append the assembled frames to the file in one write.
    fn write_frames(&mut self) -> Result<()> {
        if let Err(e) = self.file.append(&self.frames) {
            // A frame may be torn on disk; no further appends until a
            // reopen rescans and truncates.
            self.poison();
            return Err(e.into());
        }
        Ok(())
    }

    /// Log a whole transaction and force it to disk: a `Begin` record, one
    /// `Op` record per item of `ops` (its encoding is the payload) and a
    /// `Commit` record carrying `commit_payload`, written with a single
    /// append and made durable by the one sync that follows. Returns the
    /// commit record's LSN. The bytes are those of the same records
    /// appended one by one.
    pub fn append_transaction<T: Encode>(
        &mut self,
        txn_id: u64,
        ops: &[T],
        commit_payload: &[u8],
    ) -> Result<u64> {
        self.guard()?;
        let commit_lsn = {
            let _span = neptune_obs::span!("storage.wal_append");
            self.frames.clear();
            let lsn = self.next_record();
            push_frame(
                &mut self.frames,
                (lsn, txn_id, RecordKind::Begin),
                0,
                |_| {},
            );
            for op in ops {
                self.payload.clear();
                op.encode(&mut self.payload);
                let (lsn, payload) = (self.next_record(), &self.payload);
                push_frame(
                    &mut self.frames,
                    (lsn, txn_id, RecordKind::Op),
                    payload.len(),
                    |f| payload.for_each_chunk(|chunk| f.extend_from_slice(chunk)),
                );
            }
            let lsn = self.next_record();
            push_frame(
                &mut self.frames,
                (lsn, txn_id, RecordKind::Commit),
                commit_payload.len(),
                |f| f.extend_from_slice(commit_payload),
            );
            self.write_frames()?;
            lsn
        };
        if self.frames.len() > KEPT_BUFFER_BYTES {
            self.frames = Vec::new();
            self.payload = Writer::new();
        }
        self.sync()?;
        Ok(commit_lsn)
    }

    /// Append a commit record and force everything to disk.
    pub fn append_commit(&mut self, txn_id: u64) -> Result<u64> {
        self.append_commit_with(txn_id, Vec::new())
    }

    /// Append a commit record carrying `payload` and force everything to
    /// disk. The HAM stamps the global commit sequence here (8 bytes LE)
    /// so recovery and cross-shard view assembly can order commits across
    /// independent per-shard logs; an empty payload (every pre-shard log)
    /// decodes as sequence 0.
    pub fn append_commit_with(&mut self, txn_id: u64, payload: Vec<u8>) -> Result<u64> {
        let lsn = self.append(txn_id, RecordKind::Commit, payload)?;
        self.sync()?;
        Ok(lsn)
    }

    /// Force buffered records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        let _span = neptune_obs::span!("storage.wal_fsync");
        self.guard()?;
        if let Err(e) = self.file.sync() {
            // After a failed fsync the kernel may have dropped the dirty
            // pages; a later "successful" sync would silently persist
            // records whose durability we already reported as failed.
            self.poison();
            return Err(e.into());
        }
        Ok(())
    }

    /// Read every intact record currently in the log.
    pub fn records(&mut self) -> Result<Vec<WalRecord>> {
        let bytes = self.file.read_all()?;
        let (records, _) = Self::scan(&bytes)?;
        Ok(records)
    }

    /// Replay the log: returns, in commit order, each committed transaction's
    /// id and its `Op` payloads. Records after the last `Checkpoint` only.
    pub fn recover(&mut self) -> Result<Vec<(u64, Vec<Vec<u8>>)>> {
        self.recover_after(0)
    }

    /// [`Wal::recover_after`], additionally surfacing each committed
    /// transaction's global commit sequence (the first 8 LE bytes of its
    /// commit record's payload; 0 for pre-shard logs with empty commit
    /// payloads).
    ///
    /// The first call after [`Wal::open_with`] replays the records that
    /// open already scanned; later calls read the file again.
    pub fn recover_committed_after(&mut self, boundary: u64) -> Result<Vec<CommittedTxn>> {
        let _span = neptune_obs::span!("storage.wal_recover");
        let records = match self.scanned.take() {
            Some(records) => records,
            None => self.records()?,
        };
        // Start from the last checkpoint, if any.
        let start = records
            .iter()
            .rposition(|r| r.kind == RecordKind::Checkpoint)
            .map(|i| i + 1)
            .unwrap_or(0);
        let mut pending: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
        let mut committed: Vec<CommittedTxn> = Vec::new();
        for r in records.into_iter().skip(start) {
            if r.lsn <= boundary {
                continue;
            }
            match r.kind {
                RecordKind::Begin => {
                    pending.insert(r.txn_id, Vec::new());
                }
                RecordKind::Op => {
                    pending.entry(r.txn_id).or_default().push(r.payload);
                }
                RecordKind::Commit => {
                    if let Some(ops) = pending.remove(&r.txn_id) {
                        let seq = match r.payload.get(..8) {
                            Some(bytes) => {
                                u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
                            }
                            None => 0,
                        };
                        committed.push(CommittedTxn {
                            txn_id: r.txn_id,
                            seq,
                            ops,
                        });
                    }
                }
                RecordKind::Abort => {
                    pending.remove(&r.txn_id);
                }
                RecordKind::Checkpoint => {}
            }
        }
        if neptune_obs::enabled() {
            neptune_obs::registry()
                .counter("neptune_storage_wal_recovered_txns_total")
                .add(committed.len() as u64);
        }
        Ok(committed)
    }

    /// Replay the log, ignoring every record with `lsn <= boundary` — they
    /// are already folded into the snapshot the boundary was read from.
    ///
    /// The boundary guards the crash window between a snapshot rename
    /// becoming durable and the log truncation becoming durable: replaying
    /// the full log onto the *new* snapshot would apply every transaction a
    /// second time. Storing the boundary LSN inside the snapshot makes the
    /// skip atomic with the state it protects.
    pub fn recover_after(&mut self, boundary: u64) -> Result<Vec<(u64, Vec<Vec<u8>>)>> {
        Ok(self
            .recover_committed_after(boundary)?
            .into_iter()
            .map(|t| (t.txn_id, t.ops))
            .collect())
    }

    /// Write a checkpoint record and truncate the log so replay starts fresh.
    ///
    /// Callers must have made the checkpointed state durable first: this is
    /// the point of no return for a checkpoint, and any failure inside it
    /// poisons the log. The truncation is fsync'd *before* the checkpoint
    /// record is appended — a crash between the two must never leave a
    /// checkpoint record claiming a truncation the file doesn't durably
    /// have, with stale pre-checkpoint frames resurfacing after it.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.guard()?;
        self.scanned = None;
        if let Err(e) = self.file.set_len(WAL_MAGIC.len() as u64) {
            self.poison();
            return Err(e.into());
        }
        if let Err(e) = self.file.sync() {
            self.poison();
            return Err(e.into());
        }
        self.append(0, RecordKind::Checkpoint, Vec::new())?;
        self.sync()?;
        self.unfolded = 0;
        Ok(())
    }

    /// Whether the log holds nothing past its last `Checkpoint` record:
    /// every record ever appended has been folded into a snapshot. Never
    /// true of a poisoned log, whose contents are unknown until reopened.
    pub fn is_folded(&self) -> bool {
        self.unfolded == 0 && !self.poisoned
    }

    /// Never hand out an LSN at or below `boundary`. A snapshot's fold
    /// boundary outlives a log truncated by a checkpoint that died before
    /// its `Checkpoint` record became durable; LSNs restarting at 1 would
    /// then be skipped as already folded by the next recovery.
    pub fn reserve_lsns_through(&mut self, boundary: u64) {
        self.next_lsn = self.next_lsn.max(boundary.saturating_add(1));
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// LSN that the next appended record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::{Read, Seek, SeekFrom, Write};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("neptune-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_recover_committed() {
        let dir = tmpdir("basic");
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(1, RecordKind::Begin, vec![]).unwrap();
            wal.append(1, RecordKind::Op, b"op-a".to_vec()).unwrap();
            wal.append(1, RecordKind::Op, b"op-b".to_vec()).unwrap();
            wal.append_commit(1).unwrap();
            wal.append(2, RecordKind::Begin, vec![]).unwrap();
            wal.append(2, RecordKind::Op, b"doomed".to_vec()).unwrap();
            wal.append(2, RecordKind::Abort, vec![]).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        let committed = wal.recover().unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, 1);
        assert_eq!(committed[0].1, vec![b"op-a".to_vec(), b"op-b".to_vec()]);
    }

    #[test]
    fn uncommitted_tail_is_ignored_on_recovery() {
        let dir = tmpdir("uncommitted");
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(1, RecordKind::Begin, vec![]).unwrap();
            wal.append(1, RecordKind::Op, b"x".to_vec()).unwrap();
            wal.append_commit(1).unwrap();
            wal.append(2, RecordKind::Begin, vec![]).unwrap();
            wal.append(2, RecordKind::Op, b"in flight at crash".to_vec())
                .unwrap();
            wal.sync().unwrap();
            // No commit: simulates crashing mid-transaction.
        }
        let mut wal = Wal::open(&path).unwrap();
        let committed = wal.recover().unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, 1);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(1, RecordKind::Begin, vec![]).unwrap();
            wal.append(1, RecordKind::Op, b"keep me".to_vec()).unwrap();
            wal.append_commit(1).unwrap();
        }
        // Simulate a torn write: append garbage that is not a whole record.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        let committed = wal.recover().unwrap();
        assert_eq!(committed.len(), 1);
        // And appending after recovery still works.
        wal.append(2, RecordKind::Begin, vec![]).unwrap();
        wal.append_commit(2).unwrap();
        let committed = wal.recover().unwrap();
        assert_eq!(committed.len(), 2);
    }

    #[test]
    fn truncated_frame_header_is_a_torn_tail_not_a_panic() {
        // Regression: the scan used to slice the 8-byte length/crc header
        // with `expect`-backed indexing; a file ending partway through a
        // frame header must recover cleanly, not panic.
        let dir = tmpdir("torn-header");
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(1, RecordKind::Begin, vec![]).unwrap();
            wal.append(1, RecordKind::Op, b"keep me".to_vec()).unwrap();
            wal.append_commit(1).unwrap();
        }
        // Half a frame header: 4 of the 8 length/crc bytes.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x10, 0x00, 0x00, 0x00]).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        let committed = wal.recover().unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].1[0], b"keep me".to_vec());
    }

    fn flip_byte(path: &Path, offset: u64) {
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        let mut b = [0u8; 1];
        f.read_exact(&mut b).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(&[b[0] ^ 0xFF]).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let dir = tmpdir("corrupt-mid");
        let path = dir.join("wal");
        let flip_offset;
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(1, RecordKind::Begin, vec![]).unwrap();
            wal.append_commit(1).unwrap();
            flip_offset = std::fs::metadata(&path).unwrap().len() - 1;
            wal.append(2, RecordKind::Begin, vec![]).unwrap();
            wal.append_commit(2).unwrap();
        }
        // Flip a payload byte inside txn 1's commit record: intact records
        // follow, so this cannot be a torn write and must not be truncated.
        flip_byte(&path, flip_offset);
        match Wal::open(&path) {
            Err(StorageError::CorruptLog { reason, .. }) => {
                assert!(reason.contains("mid-log"), "{reason}");
            }
            other => panic!("expected CorruptLog, got {other:?}"),
        }
        // The damaged file was left untouched for forensics.
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len > flip_offset);
    }

    #[test]
    fn corrupt_final_record_is_a_torn_tail() {
        let dir = tmpdir("corrupt-tail");
        let path = dir.join("wal");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(1, RecordKind::Begin, vec![]).unwrap();
            wal.append(1, RecordKind::Op, b"keep".to_vec()).unwrap();
            wal.append_commit(1).unwrap();
            wal.append(2, RecordKind::Begin, vec![]).unwrap();
            wal.append(2, RecordKind::Op, b"torn".to_vec()).unwrap();
            wal.sync().unwrap();
        }
        // Damage the *last* record's payload: indistinguishable from a crash
        // mid-write, so recovery truncates it and keeps everything before.
        let len = std::fs::metadata(&path).unwrap().len();
        flip_byte(&path, len - 1);
        let mut wal = Wal::open(&path).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() < len);
        let committed = wal.recover().unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, 1);
        // The log accepts fresh appends after the truncation.
        wal.append(3, RecordKind::Begin, vec![]).unwrap();
        wal.append_commit(3).unwrap();
        assert_eq!(wal.recover().unwrap().len(), 2);
    }

    #[test]
    fn checkpoint_resets_replay() {
        let dir = tmpdir("checkpoint");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(1, RecordKind::Begin, vec![]).unwrap();
        wal.append(1, RecordKind::Op, b"before".to_vec()).unwrap();
        wal.append_commit(1).unwrap();
        wal.checkpoint().unwrap();
        wal.append(2, RecordKind::Begin, vec![]).unwrap();
        wal.append(2, RecordKind::Op, b"after".to_vec()).unwrap();
        wal.append_commit(2).unwrap();
        let committed = wal.recover().unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, 2);
    }

    #[test]
    fn lsns_increase_across_reopen() {
        let dir = tmpdir("lsn");
        let path = dir.join("wal");
        let last;
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(1, RecordKind::Begin, vec![]).unwrap();
            last = wal.append_commit(1).unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.next_lsn(), last + 1);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = tmpdir("magic");
        let path = dir.join("wal");
        std::fs::write(&path, b"NOTAWAL!extra").unwrap();
        assert!(matches!(
            Wal::open(&path),
            Err(StorageError::BadFileHeader { .. })
        ));
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let dir = tmpdir("empty");
        let mut wal = Wal::open(dir.join("wal")).unwrap();
        assert!(wal.recover().unwrap().is_empty());
        assert_eq!(wal.next_lsn(), 1);
    }

    #[test]
    fn commit_sequence_roundtrips_and_legacy_commits_decode_as_zero() {
        let dir = tmpdir("commit-seq");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path).unwrap();
        // Legacy commit: empty payload.
        wal.append(1, RecordKind::Begin, vec![]).unwrap();
        wal.append(1, RecordKind::Op, b"old".to_vec()).unwrap();
        wal.append_commit(1).unwrap();
        // Stamped commit.
        wal.append(2, RecordKind::Begin, vec![]).unwrap();
        wal.append(2, RecordKind::Op, b"new".to_vec()).unwrap();
        wal.append_commit_with(2, 42u64.to_le_bytes().to_vec())
            .unwrap();
        let committed = wal.recover_committed_after(0).unwrap();
        assert_eq!(committed.len(), 2);
        assert_eq!((committed[0].txn_id, committed[0].seq), (1, 0));
        assert_eq!((committed[1].txn_id, committed[1].seq), (2, 42));
        assert_eq!(committed[1].ops, vec![b"new".to_vec()]);
    }

    /// An op whose encoding is its bytes, part of them spliced by reference
    /// the way `modifyNode` contents are.
    struct RawOp(Vec<u8>);

    impl Encode for RawOp {
        fn encode(&self, w: &mut Writer) {
            let (inline, shared) = self.0.split_at(self.0.len() / 2);
            w.put_raw(inline);
            w.put_bytes_shared(shared.into());
        }
    }

    #[test]
    fn a_transaction_in_one_write_has_the_bytes_of_its_records_written_singly() {
        use crate::fault::FaultVfs;
        let dir = tmpdir("txn-bytes");
        let ops = [RawOp(b"first op".to_vec()), RawOp(vec![7; 300])];
        let seq = 42u64.to_le_bytes();

        let mut singly = Wal::open(dir.join("singly")).unwrap();
        singly.append(9, RecordKind::Begin, vec![]).unwrap();
        for op in &ops {
            singly.append(9, RecordKind::Op, op.to_bytes()).unwrap();
        }
        let lsn = singly.append_commit_with(9, seq.to_vec()).unwrap();

        let vfs = FaultVfs::new();
        let mut at_once = Wal::open_with(&vfs, dir.join("at-once")).unwrap();
        vfs.clear_op_log();
        assert_eq!(at_once.append_transaction(9, &ops, &seq).unwrap(), lsn);
        assert_eq!(vfs.op_log(), vec!["append at-once", "sync at-once"]);
        assert_eq!(at_once.next_lsn(), singly.next_lsn());
        assert!(!at_once.is_folded());

        assert_eq!(
            std::fs::read(dir.join("at-once")).unwrap(),
            std::fs::read(dir.join("singly")).unwrap()
        );
        let committed = at_once.recover_committed_after(0).unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!((committed[0].txn_id, committed[0].seq), (9, 42));
        assert_eq!(committed[0].ops, vec![ops[0].to_bytes(), ops[1].to_bytes()]);
    }

    #[test]
    fn a_transaction_write_cut_at_any_byte_leaves_no_transaction_and_a_usable_log() {
        use crate::fault::{FaultKind, FaultVfs};
        let dir = tmpdir("txn-torn");
        let ops = [RawOp(b"an op".to_vec()), RawOp(vec![3; 40])];
        // Measure the write once, then cut a fresh log's at every byte:
        // inside each frame and exactly on each frame boundary.
        let whole = {
            let mut wal = Wal::open(dir.join("whole")).unwrap();
            wal.append_transaction(1, &ops, &[]).unwrap();
            std::fs::metadata(dir.join("whole")).unwrap().len() as usize - WAL_MAGIC.len()
        };
        for keep in 0..whole {
            let path = dir.join(format!("cut-{keep}"));
            let vfs = FaultVfs::new();
            let mut wal = Wal::open_with(&vfs, &path).unwrap();
            wal.append_transaction(1, &ops[..1], &[]).unwrap();
            vfs.arm_short_write(0, keep);
            assert!(wal.append_transaction(2, &ops, &[]).is_err());
            assert!(wal.is_poisoned(), "cut at {keep}");
            assert!(matches!(
                wal.append_transaction(3, &ops, &[]),
                Err(StorageError::LogPoisoned)
            ));
            drop(wal);
            let mut wal = Wal::open(&path).unwrap();
            let committed = wal.recover().unwrap();
            assert_eq!(committed.len(), 1, "cut at {keep}");
            assert_eq!(committed[0].0, 1);
            wal.append_transaction(3, &ops, &[]).unwrap();
            let ids: Vec<u64> = wal.recover().unwrap().iter().map(|t| t.0).collect();
            assert_eq!(ids, vec![1, 3], "cut at {keep}");
        }
        // A write that fails outright, or never happens, poisons too.
        for kind in [FaultKind::FailWrite, FaultKind::PowerCut] {
            let vfs = FaultVfs::new();
            let mut wal = Wal::open_with(&vfs, dir.join(format!("{kind}"))).unwrap();
            vfs.arm(kind, 0);
            assert!(wal.append_transaction(1, &ops, &[]).is_err());
            assert!(wal.is_poisoned(), "{kind}");
        }
    }

    #[test]
    fn recover_after_skips_checkpointed_lsns() {
        let dir = tmpdir("boundary");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(1, RecordKind::Begin, vec![]).unwrap();
        wal.append(1, RecordKind::Op, b"folded".to_vec()).unwrap();
        let boundary = wal.append_commit(1).unwrap();
        wal.append(2, RecordKind::Begin, vec![]).unwrap();
        wal.append(2, RecordKind::Op, b"fresh".to_vec()).unwrap();
        wal.append_commit(2).unwrap();
        // As if a snapshot holding everything up to `boundary` became
        // durable but the log truncation never did.
        let committed = wal.recover_after(boundary).unwrap();
        assert_eq!(committed.len(), 1);
        assert_eq!(committed[0].0, 2);
        assert!(wal.recover_after(u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn folded_tracks_records_past_the_last_checkpoint() {
        let dir = tmpdir("folded");
        let path = dir.join("wal");
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.is_folded(), "a fresh log holds nothing to fold");
        wal.append(1, RecordKind::Begin, vec![]).unwrap();
        wal.append_commit(1).unwrap();
        assert!(!wal.is_folded());
        wal.checkpoint().unwrap();
        assert!(wal.is_folded());
        // The completed checkpoint left nothing at or below the boundary:
        // the folded commit does not resurface even with no boundary given.
        assert!(wal.recover_committed_after(0).unwrap().is_empty());
        drop(wal);
        let mut wal = Wal::open(&path).unwrap();
        assert!(wal.is_folded(), "only the Checkpoint record remains");
        wal.append(2, RecordKind::Begin, vec![]).unwrap();
        drop(wal);
        assert!(!Wal::open(&path).unwrap().is_folded());
    }

    #[test]
    fn reserved_lsns_are_never_reissued() {
        let dir = tmpdir("reserve");
        let mut wal = Wal::open(dir.join("wal")).unwrap();
        wal.reserve_lsns_through(41);
        assert_eq!(wal.append(1, RecordKind::Begin, vec![]).unwrap(), 42);
        wal.reserve_lsns_through(7);
        assert_eq!(wal.next_lsn(), 43, "reserving never moves backwards");
    }

    #[test]
    fn failed_append_poisons_the_log() {
        use crate::fault::{FaultKind, FaultVfs};
        let dir = tmpdir("poison-append");
        let vfs = FaultVfs::new();
        let mut wal = Wal::open_with(&vfs, dir.join("wal")).unwrap();
        wal.append(1, RecordKind::Begin, vec![]).unwrap();
        vfs.arm(FaultKind::ShortWrite, 0);
        assert!(wal.append(1, RecordKind::Op, b"torn".to_vec()).is_err());
        assert!(wal.is_poisoned());
        // Everything write-shaped now refuses with LogPoisoned...
        assert!(matches!(
            wal.append(1, RecordKind::Op, b"more".to_vec()),
            Err(StorageError::LogPoisoned)
        ));
        assert!(matches!(wal.sync(), Err(StorageError::LogPoisoned)));
        assert!(matches!(wal.checkpoint(), Err(StorageError::LogPoisoned)));
        drop(wal);
        // ...and a reopen truncates the torn frame and works again.
        let mut wal = Wal::open(dir.join("wal")).unwrap();
        assert!(!wal.is_poisoned());
        wal.append_commit(1).unwrap();
    }

    #[test]
    fn failed_sync_poisons_the_log() {
        use crate::fault::{FaultKind, FaultVfs};
        let dir = tmpdir("poison-sync");
        let vfs = FaultVfs::new();
        let mut wal = Wal::open_with(&vfs, dir.join("wal")).unwrap();
        wal.append(1, RecordKind::Begin, vec![]).unwrap();
        vfs.arm(FaultKind::FailSync, 0);
        assert!(wal.sync().is_err());
        assert!(wal.is_poisoned());
        assert!(matches!(wal.sync(), Err(StorageError::LogPoisoned)));
    }

    #[test]
    fn checkpoint_syncs_truncation_before_checkpoint_record() {
        use crate::fault::FaultVfs;
        let dir = tmpdir("ckpt-order");
        let vfs = FaultVfs::new();
        let mut wal = Wal::open_with(&vfs, dir.join("wal")).unwrap();
        wal.append(1, RecordKind::Begin, vec![]).unwrap();
        wal.append_commit(1).unwrap();
        vfs.clear_op_log();
        wal.checkpoint().unwrap();
        let ops: Vec<String> = vfs
            .op_log()
            .iter()
            .map(|s| s.split(' ').next().unwrap().to_string())
            .collect();
        assert_eq!(
            ops,
            vec!["set_len", "sync", "append", "sync"],
            "truncation must be durable before the checkpoint record exists"
        );
    }
}
