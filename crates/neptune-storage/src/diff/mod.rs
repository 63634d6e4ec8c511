//! Line-oriented differencing.
//!
//! The HAM's `getNodeDifferences` operation and the node-differences browser
//! (paper §4.1) need to report *what changed* between two versions of a
//! node's contents, and the backward-delta archive ([`crate::delta`]) needs a
//! compact edit script between adjacent versions. Both are built on a Myers
//! O(ND) diff over lines.
//!
//! Node contents at the HAM level are uninterpreted bytes (paper §3); we
//! split on `\n` for diffing, which degrades gracefully to whole-buffer
//! replacement for binary data with no newlines.

mod lines;
mod myers;
mod script;

pub(crate) use lines::common_line_affixes;
pub use lines::{split_lines, Interner};
pub use myers::diff_tokens;
pub use script::{differences, hunks, Difference, Hunk, HunkKind};

/// Compute the line-level hunks between two byte buffers.
///
/// Hunks partition both inputs: equal hunks reference matching line ranges,
/// delete hunks lines only in `a`, insert hunks lines only in `b`.
pub fn diff_lines(a: &[u8], b: &[u8]) -> Vec<Hunk> {
    let mut interner = Interner::new();
    let a_tokens = interner.intern_lines(a);
    let b_tokens = interner.intern_lines(b);
    let ops = diff_tokens(&a_tokens, &b_tokens);
    hunks(&ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct_b(a: &[u8], b: &[u8], hs: &[Hunk]) -> Vec<u8> {
        let a_lines = split_lines(a);
        let b_lines = split_lines(b);
        let mut out = Vec::new();
        for h in hs {
            match h.kind {
                HunkKind::Equal => {
                    for line in &a_lines[h.a_range.0..h.a_range.1] {
                        out.extend_from_slice(line);
                    }
                }
                HunkKind::Insert => {
                    for line in &b_lines[h.b_range.0..h.b_range.1] {
                        out.extend_from_slice(line);
                    }
                }
                HunkKind::Delete => {}
            }
        }
        out
    }

    #[test]
    fn identical_buffers_are_one_equal_hunk() {
        let text = b"alpha\nbeta\ngamma\n";
        let hs = diff_lines(text, text);
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].kind, HunkKind::Equal);
    }

    #[test]
    fn empty_vs_nonempty() {
        let hs = diff_lines(b"", b"one\ntwo\n");
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].kind, HunkKind::Insert);
        let hs = diff_lines(b"one\ntwo\n", b"");
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].kind, HunkKind::Delete);
        assert!(diff_lines(b"", b"").is_empty());
    }

    #[test]
    fn hunks_reconstruct_target() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"a\nb\nc\n", b"a\nx\nc\n"),
            (b"a\nb\nc\n", b"b\nc\nd\n"),
            (b"\n\n\n", b"\n\n"),
            (b"same\n", b"same\n"),
            (b"no trailing newline", b"no trailing newline!"),
            (b"binary\x00blob", b"binary\x00blob with suffix"),
            (b"1\n2\n3\n4\n5\n6\n7\n8\n", b"1\n3\n5\n7\n9\n"),
        ];
        for (a, b) in cases {
            let hs = diff_lines(a, b);
            assert_eq!(
                reconstruct_b(a, b, &hs),
                b.to_vec(),
                "case {:?}",
                String::from_utf8_lossy(a)
            );
        }
    }

    #[test]
    fn hunk_ranges_partition_inputs() {
        let a = b"a\nb\nc\nd\n";
        let b = b"a\nc\nd\ne\n";
        let hs = diff_lines(a, b);
        let mut a_pos = 0;
        let mut b_pos = 0;
        for h in &hs {
            assert_eq!(h.a_range.0, a_pos);
            assert_eq!(h.b_range.0, b_pos);
            a_pos = h.a_range.1;
            b_pos = h.b_range.1;
        }
        assert_eq!(a_pos, split_lines(a).len());
        assert_eq!(b_pos, split_lines(b).len());
    }
}
