//! Edit scripts: hunks and the paper's `Difference` domain.
//!
//! The HAM appendix defines `Difference: a deletion, insertion or
//! replacement` as the result domain of `getNodeDifferences`. This module
//! groups the primitive [`DiffOp`]s from the Myers core into contiguous
//! [`Hunk`]s and then merges adjacent delete/insert pairs into the
//! three-valued [`Difference`] the paper specifies.

use super::myers::DiffOp;
use super::{common_line_affixes, line_hunks, Lines};
use crate::codec::{Decode, Encode, Reader, Writer};
use crate::error::{Result, StorageError};

/// What a contiguous hunk does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HunkKind {
    /// Lines present and identical in both versions.
    Equal,
    /// Lines present only in the old version.
    Delete,
    /// Lines present only in the new version.
    Insert,
}

/// A maximal run of same-kind diff operations, as half-open line ranges into
/// each input. For `Equal` both ranges have equal length; for `Delete` the
/// `b_range` is empty; for `Insert` the `a_range` is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hunk {
    /// The hunk's effect.
    pub kind: HunkKind,
    /// Line range in the old version.
    pub a_range: (usize, usize),
    /// Line range in the new version.
    pub b_range: (usize, usize),
}

/// Group primitive ops into maximal hunks, preserving order.
pub fn hunks(ops: &[DiffOp]) -> Vec<Hunk> {
    let mut out: Vec<Hunk> = Vec::new();
    let mut a_pos = 0usize;
    let mut b_pos = 0usize;
    for op in ops {
        let (kind, da, db) = match op {
            DiffOp::Equal { .. } => (HunkKind::Equal, 1, 1),
            DiffOp::Delete { .. } => (HunkKind::Delete, 1, 0),
            DiffOp::Insert { .. } => (HunkKind::Insert, 0, 1),
        };
        match out.last_mut() {
            Some(h) if h.kind == kind => {
                h.a_range.1 += da;
                h.b_range.1 += db;
            }
            _ => out.push(Hunk {
                kind,
                a_range: (a_pos, a_pos + da),
                b_range: (b_pos, b_pos + db),
            }),
        }
        a_pos += da;
        b_pos += db;
    }
    out
}

/// The paper's `Difference` domain: "a deletion, insertion or replacement",
/// at line granularity, carrying the affected text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Difference {
    /// Lines `old_lines` were removed starting at old-version line `at`.
    Deletion {
        /// First affected line number (0-based) in the old version.
        at: usize,
        /// The removed lines.
        old_lines: Vec<Vec<u8>>,
    },
    /// Lines `new_lines` were added starting at new-version line `at`.
    Insertion {
        /// First affected line number (0-based) in the new version.
        at: usize,
        /// The added lines.
        new_lines: Vec<Vec<u8>>,
    },
    /// Lines were replaced: `old_lines` at old-version line `at` became
    /// `new_lines`.
    Replacement {
        /// First affected line number (0-based) in the old version.
        at: usize,
        /// The lines that were replaced.
        old_lines: Vec<Vec<u8>>,
        /// The lines that replaced them.
        new_lines: Vec<Vec<u8>>,
    },
}

impl Difference {
    /// A short human-readable tag, used by the node-differences browser.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Difference::Deletion { .. } => "deletion",
            Difference::Insertion { .. } => "insertion",
            Difference::Replacement { .. } => "replacement",
        }
    }
}

/// Compute the paper's `Difference*` between two versions of node contents.
///
/// Adjacent delete+insert hunks merge into a single `Replacement`, matching
/// how the node-differences browser presents side-by-side changes. Only the
/// middle the versions' common leading and trailing lines leave is split
/// and diffed.
pub fn differences(old: &[u8], new: &[u8]) -> Vec<Difference> {
    let (prefix, suffix) = common_line_affixes(old, new);
    let old_lines = Lines::new(&old[prefix..old.len() - suffix]);
    let new_lines = Lines::new(&new[prefix..new.len() - suffix]);
    // The shared prefix ends a line, so its lines are its newlines.
    let head = old[..prefix].iter().filter(|&&c| c == b'\n').count();
    let hs = line_hunks(&old_lines, &new_lines);
    let grab = |lines: &Lines<'_>, range: (usize, usize)| -> Vec<Vec<u8>> {
        lines.range(range).map(<[u8]>::to_vec).collect()
    };

    let mut out = Vec::new();
    let mut i = 0;
    while i < hs.len() {
        match hs[i].kind {
            HunkKind::Equal => i += 1,
            HunkKind::Delete => {
                if i + 1 < hs.len() && hs[i + 1].kind == HunkKind::Insert {
                    out.push(Difference::Replacement {
                        at: head + hs[i].a_range.0,
                        old_lines: grab(&old_lines, hs[i].a_range),
                        new_lines: grab(&new_lines, hs[i + 1].b_range),
                    });
                    i += 2;
                } else {
                    out.push(Difference::Deletion {
                        at: head + hs[i].a_range.0,
                        old_lines: grab(&old_lines, hs[i].a_range),
                    });
                    i += 1;
                }
            }
            HunkKind::Insert => {
                out.push(Difference::Insertion {
                    at: head + hs[i].b_range.0,
                    new_lines: grab(&new_lines, hs[i].b_range),
                });
                i += 1;
            }
        }
    }
    out
}

impl Encode for Difference {
    fn encode(&self, w: &mut Writer) {
        match self {
            Difference::Deletion { at, old_lines } => {
                w.put_u8(0);
                w.put_u64(*at as u64);
                crate::codec::encode_seq(old_lines, w);
            }
            Difference::Insertion { at, new_lines } => {
                w.put_u8(1);
                w.put_u64(*at as u64);
                crate::codec::encode_seq(new_lines, w);
            }
            Difference::Replacement {
                at,
                old_lines,
                new_lines,
            } => {
                w.put_u8(2);
                w.put_u64(*at as u64);
                crate::codec::encode_seq(old_lines, w);
                crate::codec::encode_seq(new_lines, w);
            }
        }
    }
}

impl Decode for Difference {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(Difference::Deletion {
                at: r.get_u64()? as usize,
                old_lines: crate::codec::decode_seq(r)?,
            }),
            1 => Ok(Difference::Insertion {
                at: r.get_u64()? as usize,
                new_lines: crate::codec::decode_seq(r)?,
            }),
            2 => Ok(Difference::Replacement {
                at: r.get_u64()? as usize,
                old_lines: crate::codec::decode_seq(r)?,
                new_lines: crate::codec::decode_seq(r)?,
            }),
            tag => Err(StorageError::InvalidTag {
                context: "Difference",
                tag: tag as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_insertion() {
        let d = differences(b"a\nc\n", b"a\nb\nc\n");
        assert_eq!(d.len(), 1);
        match &d[0] {
            Difference::Insertion { at, new_lines } => {
                assert_eq!(*at, 1);
                assert_eq!(new_lines, &vec![b"b\n".to_vec()]);
            }
            other => panic!("expected insertion, got {other:?}"),
        }
    }

    #[test]
    fn pure_deletion() {
        let d = differences(b"a\nb\nc\n", b"a\nc\n");
        assert_eq!(d.len(), 1);
        match &d[0] {
            Difference::Deletion { at, old_lines } => {
                assert_eq!(*at, 1);
                assert_eq!(old_lines, &vec![b"b\n".to_vec()]);
            }
            other => panic!("expected deletion, got {other:?}"),
        }
    }

    #[test]
    fn substitution_is_replacement() {
        let d = differences(b"a\nOLD\nc\n", b"a\nNEW\nc\n");
        assert_eq!(d.len(), 1);
        match &d[0] {
            Difference::Replacement {
                at,
                old_lines,
                new_lines,
            } => {
                assert_eq!(*at, 1);
                assert_eq!(old_lines, &vec![b"OLD\n".to_vec()]);
                assert_eq!(new_lines, &vec![b"NEW\n".to_vec()]);
            }
            other => panic!("expected replacement, got {other:?}"),
        }
    }

    #[test]
    fn identical_versions_have_no_differences() {
        assert!(differences(b"x\ny\n", b"x\ny\n").is_empty());
        assert!(differences(b"", b"").is_empty());
    }

    #[test]
    fn multiple_separated_changes() {
        let old = b"1\n2\n3\n4\n5\n";
        let new = b"1\nTWO\n3\n4\n5\nsix\n";
        let d = differences(old, new);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].kind_name(), "replacement");
        assert_eq!(d[1].kind_name(), "insertion");
    }

    #[test]
    fn difference_codec_roundtrip() {
        let ds = vec![
            Difference::Deletion {
                at: 3,
                old_lines: vec![b"x\n".to_vec()],
            },
            Difference::Insertion {
                at: 0,
                new_lines: vec![b"y\n".to_vec(), b"z".to_vec()],
            },
            Difference::Replacement {
                at: 7,
                old_lines: vec![b"a\n".to_vec()],
                new_lines: vec![b"b\n".to_vec()],
            },
        ];
        for d in ds {
            let bytes = d.to_bytes();
            assert_eq!(Difference::from_bytes(&bytes).unwrap(), d);
        }
    }

    /// `differences` as it was before the ends were trimmed: hunks over
    /// every line of both versions, lines grabbed from whole splits.
    fn reference_differences(old: &[u8], new: &[u8]) -> Vec<Difference> {
        use crate::diff::reference::{diff_lines, split};
        let hs = diff_lines(old, new);
        let (old_lines, new_lines) = (split(old), split(new));
        let grab = |lines: &[&[u8]], range: (usize, usize)| -> Vec<Vec<u8>> {
            lines[range.0..range.1].iter().map(|l| l.to_vec()).collect()
        };
        let mut out = Vec::new();
        let mut i = 0;
        while i < hs.len() {
            let h = hs[i];
            i += 1;
            match h.kind {
                HunkKind::Equal => {}
                HunkKind::Delete if i < hs.len() && hs[i].kind == HunkKind::Insert => {
                    out.push(Difference::Replacement {
                        at: h.a_range.0,
                        old_lines: grab(&old_lines, h.a_range),
                        new_lines: grab(&new_lines, hs[i].b_range),
                    });
                    i += 1;
                }
                HunkKind::Delete => out.push(Difference::Deletion {
                    at: h.a_range.0,
                    old_lines: grab(&old_lines, h.a_range),
                }),
                HunkKind::Insert => out.push(Difference::Insertion {
                    at: h.b_range.0,
                    new_lines: grab(&new_lines, h.b_range),
                }),
            }
        }
        out
    }

    #[test]
    fn differences_encode_as_the_whole_buffer_reference_does() {
        let encoded = |ds: &[Difference]| {
            let mut w = Writer::new();
            crate::codec::encode_seq(ds, &mut w);
            w.into_bytes()
        };
        for (old, new) in crate::diff::reference::edit_pairs() {
            let ds = differences(&old, &new);
            let reference = reference_differences(&old, &new);
            assert_eq!(encoded(&ds), encoded(&reference), "{old:?} vs {new:?}");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(Difference::from_bytes(&[9]).is_err());
    }
}
