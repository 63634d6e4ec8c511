//! Atomic, checksummed snapshot files, and the frame they share with node
//! files.
//!
//! Graph state that is folded out of the WAL at checkpoint time is written
//! as a snapshot: a header, a CRC-32, and the payload, written to a
//! temporary file and atomically renamed into place so a crash during
//! checkpointing never leaves a half-written snapshot where a good one was.
//! A node file (`nodes/<id>@<time>`, see [`crate::blobstore`]) is the same
//! frame behind its own magic; it needs no rename, because no snapshot
//! names it before it is durable.

use std::path::Path;

use crate::checksum::crc32;
use crate::codec::{read_u32_at, read_u64_at};
use crate::error::{Result, StorageError};
use crate::vfs::{parent_dir, StdVfs, Vfs};

/// Magic bytes identifying a Neptune snapshot file, version 2: node
/// archives inside the payload carry their persisted skip ladder (the
/// temporal index). All new snapshots are written as v2.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"NEPTSNP2";

/// Version-1 magic, still accepted on read: a v1 payload decodes through
/// the same codec (archives use the ladder-less tag), and the next
/// checkpoint rewrites the store as v2 — migration needs no extra step.
pub const SNAPSHOT_MAGIC_V1: &[u8; 8] = b"NEPTSNP1";

/// Magic bytes identifying a node file: one node's contents encoding.
pub const NODE_FILE_MAGIC: &[u8; 8] = b"NEPTNOD1";

/// Bytes of a frame before its payload: magic, payload length, CRC-32.
pub const FRAME_HEADER_LEN: usize = 8 + 8 + 4;

fn frame_header(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut header = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    header.extend_from_slice(magic);
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// `payload` framed behind `magic`, its length and its CRC-32.
pub fn frame(magic: &[u8; 8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = frame_header(magic, payload);
    bytes.extend_from_slice(payload);
    bytes
}

/// The payload of a frame whose magic is one of `magics`, once its length
/// and CRC-32 check out. `context` names the file kind in a bad-header
/// error.
pub fn unframe<'a>(
    bytes: &'a [u8],
    magics: &[&[u8; 8]],
    context: &'static str,
) -> Result<&'a [u8]> {
    if bytes.len() < FRAME_HEADER_LEN || !magics.iter().any(|m| bytes.starts_with(*m)) {
        return Err(StorageError::BadFileHeader { context });
    }
    let len = read_u64_at(bytes, 8).ok_or(StorageError::UnexpectedEof {
        context: "frame length header",
    })?;
    let expected = read_u32_at(bytes, 16).ok_or(StorageError::UnexpectedEof {
        context: "frame checksum header",
    })?;
    let payload = usize::try_from(len)
        .ok()
        .and_then(|len| bytes.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN.checked_add(len)?))
        .ok_or(StorageError::UnexpectedEof {
            context: "frame payload",
        })?;
    let actual = crc32(payload);
    if actual != expected {
        return Err(StorageError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// Atomically write `payload` as a snapshot at `path` on the standard
/// filesystem.
pub fn write_snapshot(path: impl AsRef<Path>, payload: &[u8]) -> Result<()> {
    write_snapshot_with(&StdVfs, path, payload)
}

/// Atomically write `payload` as a snapshot at `path` through `vfs`.
///
/// Ordering: the temporary file's contents are fsync'd before the rename,
/// and the directory is fsync'd after it. Every error — including the
/// directory fsync's — propagates: a swallowed dir-fsync error would let a
/// checkpoint truncate the WAL on the strength of a rename that may not
/// survive a crash.
pub fn write_snapshot_with(vfs: &dyn Vfs, path: impl AsRef<Path>, payload: &[u8]) -> Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs.create(&tmp)?;
        f.append(&frame_header(SNAPSHOT_MAGIC, payload))?;
        f.append(payload)?;
        f.sync()?;
    }
    vfs.rename(&tmp, path)?;
    // Durability of the rename itself requires syncing the directory.
    vfs.sync_dir(&parent_dir(path))?;
    Ok(())
}

/// Read and verify a snapshot written by [`write_snapshot`].
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<Vec<u8>> {
    read_snapshot_with(&StdVfs, path)
}

/// Read and verify a snapshot through `vfs`.
pub fn read_snapshot_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Vec<u8>> {
    let bytes = vfs.read(path.as_ref())?;
    let magics = [SNAPSHOT_MAGIC, SNAPSHOT_MAGIC_V1];
    Ok(unframe(&bytes, &magics, "snapshot")?.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("neptune-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip() {
        let dir = tmpdir("rt");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"hello graph").unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), b"hello graph".to_vec());
    }

    #[test]
    fn empty_payload() {
        let dir = tmpdir("empty");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"").unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overwrite_replaces_cleanly() {
        let dir = tmpdir("overwrite");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"first").unwrap();
        write_snapshot(&path, b"second, longer payload").unwrap();
        assert_eq!(
            read_snapshot(&path).unwrap(),
            b"second, longer payload".to_vec()
        );
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"important bytes").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let dir = tmpdir("trunc");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"important bytes").unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(read_snapshot(&path).is_err());
    }

    #[test]
    fn truncated_header_is_an_error_not_a_panic() {
        // Regression: the length and checksum fields used to be sliced with
        // `expect`-backed indexing; a file that ends inside the fixed header
        // must fail with a decode error, not panic.
        let dir = tmpdir("trunc-header");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"payload").unwrap();
        let bytes = fs::read(&path).unwrap();
        // Cut inside the u64 length field, then inside the u32 crc field.
        for cut in [SNAPSHOT_MAGIC.len() + 4, SNAPSHOT_MAGIC.len() + 10] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(matches!(
                read_snapshot(&path),
                Err(StorageError::BadFileHeader { .. })
            ));
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let dir = tmpdir("magic");
        let path = dir.join("graph.snap");
        fs::write(&path, b"WRONGMAGxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::BadFileHeader { .. })
        ));
    }

    #[test]
    fn v1_magic_still_reads_unknown_versions_do_not() {
        let dir = tmpdir("v1compat");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"pre-index payload").unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[..SNAPSHOT_MAGIC_V1.len()].copy_from_slice(SNAPSHOT_MAGIC_V1);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), b"pre-index payload".to_vec());
        bytes[..8].copy_from_slice(b"NEPTSNP3");
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::BadFileHeader { .. })
        ));
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let dir = tmpdir("tmpfile");
        let path = dir.join("graph.snap");
        write_snapshot(&path, b"payload").unwrap();
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn dir_fsync_failure_propagates() {
        use crate::fault::{FaultKind, FaultVfs};
        let dir = tmpdir("dirsync");
        let path = dir.join("graph.snap");
        let vfs = FaultVfs::new();
        // First sync in write_snapshot is the tmp file; the second sync
        // class op is the directory fsync after the rename.
        vfs.arm(FaultKind::FailSync, 1);
        assert!(
            write_snapshot_with(&vfs, &path, b"payload").is_err(),
            "a failed directory fsync must not be swallowed"
        );
        // Without the dir fsync the rename is not durable.
        vfs.power_off();
        vfs.materialize_durable(&dir).unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn faulted_writes_leave_old_snapshot_durable() {
        use crate::fault::{FaultKind, FaultVfs};
        for kind in FaultKind::ALL {
            let mut at = 0;
            loop {
                let dir = tmpdir(&format!("old-{kind}"));
                let path = dir.join("graph.snap");
                let vfs = FaultVfs::new();
                write_snapshot_with(&vfs, &path, b"old").unwrap();
                vfs.arm(kind, at);
                let r = write_snapshot_with(&vfs, &path, b"new");
                if vfs.injected() == 0 {
                    // The plan outlasted the write's fault points: done.
                    r.unwrap();
                    break;
                }
                if !vfs.is_powered_off() {
                    assert!(r.is_err(), "{kind} at {at} must surface");
                }
                vfs.power_off();
                vfs.materialize_durable(&dir).unwrap();
                let payload = read_snapshot(&path).expect("snapshot must survive any fault");
                assert!(
                    payload == b"old" || payload == b"new",
                    "{kind} at {at}: snapshot must be exactly one of the two versions"
                );
                at += 1;
            }
        }
    }
}
