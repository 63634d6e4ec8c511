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
use crate::diff::{common_line_affixes, diff_lines, split_lines, HunkKind};
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

/// Byte offset of each line start in `data`, plus its total length.
fn line_offsets(data: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0];
    offsets.extend(split_lines(data).iter().scan(0, |end, line| {
        *end += line.len();
        Some(*end)
    }));
    offsets
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
    /// comparing bytes and become `Copy` instructions directly; only the
    /// middle they differ in goes through the line-level Myers diff, where
    /// byte-identical runs of lines become `Copy`s and novel bytes `Add`s.
    /// The result is the one a diff over the whole buffers gives, for the
    /// cost of the part that changed.
    pub fn compute(base: &[u8], target: &[u8]) -> Delta {
        let (prefix, suffix) = common_line_affixes(base, target);
        Self::compute_between(base, target, prefix, suffix)
    }

    /// The reference [`Delta::compute`] is checked against: Myers over
    /// every line of both buffers.
    #[cfg(test)]
    fn compute_untrimmed(base: &[u8], target: &[u8]) -> Delta {
        Self::compute_between(base, target, 0, 0)
    }

    /// Diff the buffers given that their first `prefix` and last `suffix`
    /// bytes are equal whole lines.
    fn compute_between(base: &[u8], target: &[u8], prefix: usize, suffix: usize) -> Delta {
        let mid_base = &base[prefix..base.len() - suffix];
        let mid_target = &target[prefix..target.len() - suffix];
        let base_offsets = line_offsets(mid_base);
        let target_offsets = line_offsets(mid_target);

        let mut ops: Vec<DeltaOp> = Vec::new();
        push_copy(&mut ops, 0, prefix);
        for h in diff_lines(mid_base, mid_target) {
            match h.kind {
                HunkKind::Equal => push_copy(
                    &mut ops,
                    prefix + base_offsets[h.a_range.0],
                    prefix + base_offsets[h.a_range.1],
                ),
                HunkKind::Insert => {
                    let bytes =
                        &mid_target[target_offsets[h.b_range.0]..target_offsets[h.b_range.1]];
                    if let Some(DeltaOp::Add(prev)) = ops.last_mut() {
                        prev.extend_from_slice(bytes);
                    } else if !bytes.is_empty() {
                        ops.push(DeltaOp::Add(bytes.to_vec()));
                    }
                }
                HunkKind::Delete => {}
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

    /// Trimming must change neither what a delta rebuilds nor what it
    /// costs to store: over every edit shape the result is the delta the
    /// full-body diff computes.
    #[test]
    fn property_trimmed_delta_equals_the_full_body_reference() {
        use crate::testutil::XorShift;

        fn agree(base: &[u8], target: &[u8], what: &str) {
            let d = check(base, target);
            let reference = Delta::compute_untrimmed(base, target);
            assert!(
                d.storage_size() <= reference.storage_size(),
                "{what}: {} bytes trimmed, {} untrimmed",
                d.storage_size(),
                reference.storage_size()
            );
            assert_eq!(d, reference, "{what}");
        }

        for seed in 1..=12u64 {
            let mut rng = XorShift::new(seed);
            // Line ending per document: LF, CRLF, or none at all (binary).
            let ending: &[u8] = [&b"\n"[..], b"\r\n", b""][(seed % 3) as usize];
            let line = |rng: &mut XorShift| {
                let len = 1 + rng.index(24);
                let mut l = rng.bytes(len);
                l.retain(|&c| c != b'\n');
                l.extend_from_slice(ending);
                l
            };
            let lines: Vec<Vec<u8>> = (0..rng.index(40)).map(|_| line(&mut rng)).collect();
            let base = lines.concat();
            agree(&base, &base, "identical");
            agree(&base, b"", "target empty");
            agree(b"", &base, "base empty");
            for round in 0..40 {
                let mut edited = lines.clone();
                let at = match round % 4 {
                    0 => 0,
                    1 => edited.len() / 2,
                    2 => edited.len(),
                    _ => rng.index(edited.len() + 1),
                };
                let what = match rng.below(4) {
                    0 => {
                        // Pure insert: at the head, middle or tail.
                        for _ in 0..1 + rng.index(3) {
                            edited.insert(at, line(&mut rng));
                        }
                        "insert"
                    }
                    1 if at < edited.len() => {
                        edited.remove(at);
                        "delete"
                    }
                    2 if at < edited.len() => {
                        edited[at] = line(&mut rng);
                        "replace"
                    }
                    _ => {
                        // Several scattered edits, so the middle has
                        // equal runs of its own.
                        for _ in 0..3 {
                            let i = rng.index(edited.len() + 1);
                            edited.insert(i, line(&mut rng));
                        }
                        "scatter"
                    }
                };
                let mut target = edited.concat();
                if rng.chance(1, 4) && target.ends_with(b"\n") {
                    target.pop(); // no trailing newline
                }
                agree(&base, &target, what);
                agree(&target, &base, what);
            }
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
