//! Copy/add deltas between byte buffers.
//!
//! Paper §3: *"we wanted effective storage of many versions of such data
//! without copying each individual item; for nodes this is provided by
//! backward deltas similar to RCS"*. A [`Delta`] is a compact program that
//! rebuilds a target buffer from a base buffer: a sequence of `Copy`
//! (byte range of the base) and `Add` (literal bytes) instructions. The
//! archive stores the *current* version in full and one backward delta per
//! older version.

use std::sync::Arc;

use crate::codec::{Decode, Encode, Reader, Writer};
use crate::diff::{common_line_affixes, line_hunks, HunkKind, Lines};
use crate::error::{Result, StorageError};

/// One delta instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes starting at `offset` in the base buffer.
    Copy {
        /// Byte offset into the base.
        offset: u64,
        /// Number of bytes to copy.
        len: u64,
    },
    /// Append these literal bytes.
    Add(Vec<u8>),
}

/// A program that reconstructs a target buffer from a base buffer. The
/// instruction stream is immutable and shared, so cloning a delta — as a
/// version history does whenever a commit copies the node it belongs to —
/// is a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    ops: Arc<[DeltaOp]>,
    target_len: u64,
}

/// Append a copy of `base[start..end]`, extending a preceding copy that
/// ends where this one starts.
fn push_copy(ops: &mut Vec<DeltaOp>, start: usize, end: usize) {
    if end == start {
        return;
    }
    let (start, end) = (start as u64, end as u64);
    if let Some(DeltaOp::Copy { offset, len }) = ops.last_mut() {
        if *offset + *len == start {
            *len = end - *offset;
            return;
        }
    }
    ops.push(DeltaOp::Copy {
        offset: start,
        len: end - start,
    });
}

impl Delta {
    /// Compute a delta such that `delta.apply(base) == target`.
    ///
    /// The whole lines the two buffers share at either end are found by
    /// comparing bytes and become `Copy` instructions directly. When either
    /// middle they leave is empty — a first version, a pure insertion or
    /// deletion, an identical save — the other middle is at most one `Add`
    /// and nothing is split or diffed. Otherwise only the middles go through
    /// the line-level Myers diff, where byte-identical runs of lines become
    /// `Copy`s and novel bytes `Add`s. The result is the one a diff over the
    /// whole buffers gives, for the cost of the part that changed.
    pub fn compute(base: &[u8], target: &[u8]) -> Delta {
        let (prefix, suffix) = common_line_affixes(base, target);
        let mid_base = &base[prefix..base.len() - suffix];
        let mid_target = &target[prefix..target.len() - suffix];

        let mut ops: Vec<DeltaOp> = Vec::new();
        push_copy(&mut ops, 0, prefix);
        if mid_base.is_empty() || mid_target.is_empty() {
            if !mid_target.is_empty() {
                ops.push(DeltaOp::Add(mid_target.to_vec()));
            }
        } else {
            let (base_lines, target_lines) = (Lines::new(mid_base), Lines::new(mid_target));
            for h in line_hunks(&base_lines, &target_lines) {
                match h.kind {
                    HunkKind::Equal => push_copy(
                        &mut ops,
                        prefix + base_lines.offset(h.a_range.0),
                        prefix + base_lines.offset(h.a_range.1),
                    ),
                    HunkKind::Insert => {
                        let bytes = target_lines.span(h.b_range);
                        if let Some(DeltaOp::Add(prev)) = ops.last_mut() {
                            prev.extend_from_slice(bytes);
                        } else {
                            ops.push(DeltaOp::Add(bytes.to_vec()));
                        }
                    }
                    HunkKind::Delete => {}
                }
            }
        }
        push_copy(&mut ops, base.len() - suffix, base.len());
        Delta {
            ops: ops.into(),
            target_len: target.len() as u64,
        }
    }

    /// Rebuild the target buffer from `base`.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.target_len as usize);
        for op in self.ops.iter() {
            match op {
                DeltaOp::Copy { offset, len } => {
                    let start = *offset as usize;
                    let end =
                        start
                            .checked_add(*len as usize)
                            .ok_or(StorageError::DeltaOutOfRange {
                                offset: *offset,
                                base_len: base.len() as u64,
                            })?;
                    let slice = base.get(start..end).ok_or(StorageError::DeltaOutOfRange {
                        offset: *offset,
                        base_len: base.len() as u64,
                    })?;
                    out.extend_from_slice(slice);
                }
                DeltaOp::Add(bytes) => out.extend_from_slice(bytes),
            }
        }
        Ok(out)
    }

    /// Length of the buffer this delta reconstructs.
    pub fn target_len(&self) -> u64 {
        self.target_len
    }

    /// Number of instructions.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Bytes of literal (`Add`) data carried by this delta — the part that
    /// actually costs storage beyond fixed overhead.
    pub fn added_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Add(b) => b.len() as u64,
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Approximate encoded size in bytes, for storage accounting.
    pub fn storage_size(&self) -> u64 {
        self.to_bytes().len() as u64
    }

    /// The instruction stream.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }
}

impl Encode for Delta {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.target_len);
        w.put_u64(self.ops.len() as u64);
        for op in self.ops.iter() {
            match op {
                DeltaOp::Copy { offset, len } => {
                    w.put_u8(0);
                    w.put_u64(*offset);
                    w.put_u64(*len);
                }
                DeltaOp::Add(bytes) => {
                    w.put_u8(1);
                    w.put_bytes(bytes);
                }
            }
        }
    }
}

impl Decode for DeltaOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            0 => DeltaOp::Copy {
                offset: r.get_u64()?,
                len: r.get_u64()?,
            },
            1 => DeltaOp::Add(r.get_bytes()?.to_vec()),
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "DeltaOp",
                    tag: tag as u64,
                })
            }
        })
    }
}

impl Decode for Delta {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let target_len = r.get_u64()?;
        // An op takes at least a byte, so a count past the input's end fails
        // below however far it is clamped; clamping bounds the allocation.
        let count = (r.get_u64()? as usize).min(r.remaining() + 1);
        // Straight into the shared slice: a range of known length collects
        // with one allocation, which a `Result` in the way would hide. The
        // first error parks here and fills the rest with placeholders.
        let mut failed = None;
        let ops: Arc<[DeltaOp]> = (0..count)
            .map(|_| {
                if failed.is_none() {
                    match DeltaOp::decode(r) {
                        Ok(op) => return op,
                        Err(e) => failed = Some(e),
                    }
                }
                DeltaOp::Add(Vec::new())
            })
            .collect();
        match failed {
            Some(e) => Err(e),
            None => Ok(Delta { ops, target_len }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(base: &[u8], target: &[u8]) -> Delta {
        let d = Delta::compute(base, target);
        assert_eq!(d.apply(base).unwrap(), target.to_vec());
        assert_eq!(d.target_len(), target.len() as u64);
        d
    }

    #[test]
    fn roundtrips() {
        check(b"", b"");
        check(b"", b"hello\nworld\n");
        check(b"hello\nworld\n", b"");
        check(b"a\nb\nc\n", b"a\nB\nc\n");
        check(b"same\nsame\n", b"same\nsame\n");
        check(b"\x00\x01\x02", b"\x00\x01\x02\x03");
    }

    #[test]
    fn small_edit_produces_small_delta() {
        // 1000 lines, one changed: delta literal payload should be ~1 line.
        let base: Vec<u8> = (0..1000)
            .map(|i| format!("line number {i}\n"))
            .collect::<String>()
            .into_bytes();
        let mut target_str = String::new();
        for i in 0..1000 {
            if i == 500 {
                target_str.push_str("EDITED LINE\n");
            } else {
                target_str.push_str(&format!("line number {i}\n"));
            }
        }
        let target = target_str.into_bytes();
        let d = check(&base, &target);
        assert!(d.added_bytes() < 64, "added {} bytes", d.added_bytes());
        assert!(d.storage_size() < 128, "stored {} bytes", d.storage_size());
        assert!(d.storage_size() < base.len() as u64 / 10);
    }

    #[test]
    fn identical_buffers_delta_is_one_copy() {
        let base = b"x\ny\nz\n";
        let d = Delta::compute(base, base);
        assert_eq!(d.op_count(), 1);
        assert_eq!(d.added_bytes(), 0);
    }

    #[test]
    fn adjacent_copies_coalesce() {
        // A deletion in the middle leaves two copy regions which must stay
        // separate; but consecutive equal hunks would coalesce.
        let base = b"a\nb\nc\nd\n";
        let target = b"a\nb\nd\n";
        let d = check(base, target);
        assert_eq!(d.added_bytes(), 0);
        assert_eq!(d.op_count(), 2); // copy "a\nb\n", copy "d\n"
    }

    #[test]
    fn apply_rejects_out_of_range_copy() {
        let d = Delta {
            ops: vec![DeltaOp::Copy { offset: 10, len: 5 }].into(),
            target_len: 5,
        };
        assert!(matches!(
            d.apply(b"short"),
            Err(StorageError::DeltaOutOfRange { .. })
        ));
    }

    #[test]
    fn apply_rejects_overflowing_copy() {
        let d = Delta {
            ops: vec![DeltaOp::Copy {
                offset: u64::MAX,
                len: u64::MAX,
            }]
            .into(),
            target_len: 1,
        };
        assert!(d.apply(b"x").is_err());
    }

    #[test]
    fn codec_roundtrip() {
        let d = Delta::compute(b"one\ntwo\nthree\n", b"one\n2\nthree\nfour\n");
        let decoded = Delta::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(decoded, d);
        assert_eq!(
            decoded.apply(b"one\ntwo\nthree\n").unwrap(),
            b"one\n2\nthree\nfour\n".to_vec()
        );
    }

    /// The delta as it was computed before the ends were trimmed and empty
    /// middles skipped: Myers over every line of both whole buffers.
    fn reference_delta(base: &[u8], target: &[u8]) -> Delta {
        let (base_lines, target_lines) = (
            crate::diff::reference::split(base),
            crate::diff::reference::split(target),
        );
        let offset = |lines: &[&[u8]], i: usize| lines[..i].iter().map(|l| l.len()).sum();
        let mut ops = Vec::new();
        for h in crate::diff::reference::diff_lines(base, target) {
            match h.kind {
                HunkKind::Equal => push_copy(
                    &mut ops,
                    offset(&base_lines, h.a_range.0),
                    offset(&base_lines, h.a_range.1),
                ),
                HunkKind::Insert => {
                    let bytes = target_lines[h.b_range.0..h.b_range.1].concat();
                    if let Some(DeltaOp::Add(prev)) = ops.last_mut() {
                        prev.extend_from_slice(&bytes);
                    } else if !bytes.is_empty() {
                        ops.push(DeltaOp::Add(bytes));
                    }
                }
                HunkKind::Delete => {}
            }
        }
        Delta {
            ops: ops.into(),
            target_len: target.len() as u64,
        }
    }

    /// Trimming and skipping must change neither what a delta rebuilds nor
    /// a byte of what is stored: over every edit shape the encoding is the
    /// whole-buffer reference's.
    #[test]
    fn property_trimmed_delta_equals_the_full_body_reference() {
        for (base, target) in crate::diff::reference::edit_pairs() {
            let d = check(&base, &target);
            let reference = reference_delta(&base, &target);
            assert_eq!(d.to_bytes(), reference.to_bytes(), "{base:?} -> {target:?}");
        }
    }

    #[test]
    fn binary_data_without_newlines_still_works() {
        let base: Vec<u8> = (0..=255u8).collect();
        let mut target = base.clone();
        target[128] = 0;
        let d = Delta::compute(&base, &target);
        assert_eq!(d.apply(&base).unwrap(), target);
    }
}
