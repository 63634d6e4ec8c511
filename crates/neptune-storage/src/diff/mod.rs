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

pub(crate) use lines::{common_line_affixes, Lines};
pub use lines::{split_lines, Interner};
pub use myers::diff_tokens;
pub use script::{differences, hunks, Difference, Hunk, HunkKind};

/// Compute the line-level hunks between two byte buffers.
///
/// Hunks partition both inputs: equal hunks reference matching line ranges,
/// delete hunks lines only in `a`, insert hunks lines only in `b`.
pub fn diff_lines(a: &[u8], b: &[u8]) -> Vec<Hunk> {
    line_hunks(&Lines::new(a), &Lines::new(b))
}

/// The hunks between two buffers' lines; callers that trimmed the lines
/// the buffers share at either end pass the middles.
pub(crate) fn line_hunks(a: &Lines<'_>, b: &Lines<'_>) -> Vec<Hunk> {
    let mut interner = Interner::with_capacity(a.len() + b.len());
    let a_tokens: Vec<u32> = a.iter().map(|line| interner.intern(line)).collect();
    let b_tokens: Vec<u32> = b.iter().map(|line| interner.intern(line)).collect();
    hunks(&diff_tokens(&a_tokens, &b_tokens))
}

/// The line diff as it was before the ends were trimmed, kept as the
/// independent reference the engine is checked against: split both whole
/// buffers a byte at a time, intern every line, run Myers over all of them.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use super::{diff_tokens, hunks, Hunk};

    /// Lines of `data`, found a byte at a time.
    pub(crate) fn split(data: &[u8]) -> Vec<&[u8]> {
        let mut lines = Vec::new();
        let mut start = 0;
        for (i, &c) in data.iter().enumerate() {
            if c == b'\n' {
                lines.push(&data[start..=i]);
                start = i + 1;
            }
        }
        if start < data.len() {
            lines.push(&data[start..]);
        }
        lines
    }

    /// Hunks between every line of `a` and every line of `b`.
    pub(crate) fn diff_lines(a: &[u8], b: &[u8]) -> Vec<Hunk> {
        let mut table: HashMap<&[u8], u32> = HashMap::new();
        let mut tokens = |data| -> Vec<u32> {
            split(data)
                .into_iter()
                .map(|line| {
                    let next = table.len() as u32;
                    *table.entry(line).or_insert(next)
                })
                .collect()
        };
        let (a_tokens, b_tokens) = (tokens(a), tokens(b));
        hunks(&diff_tokens(&a_tokens, &b_tokens))
    }

    /// Pairs of buffers that exercise every shape of edit: a seeded stream
    /// of line edits at either end and in the middle (LF, CRLF and no line
    /// endings at all, lines from a small pool so they repeat), both ways
    /// round, plus fixed edge cases.
    pub(crate) fn edit_pairs() -> Vec<(Vec<u8>, Vec<u8>)> {
        use crate::testutil::XorShift;

        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = [
            (&b""[..], &b""[..]),
            (b"", b"hello\nworld\n"),
            (b"hello\nworld\n", b""),
            (b"a\nb\nc\n", b"a\nB\nc\n"),
            (b"a\nb\nc", b"a\nb\nc\n"),
            (b"a\nb\nc", b"a\nb\nd"),
            (b"x", b"x\ny"),
            (b"\x00\x01\x02", b"\x00\x01\x02\x03"),
            (b"\x00\x01\x02", b"\x00\x09\x02"),
            (b"a\na\na\na\n", b"a\na\n"),
            (b"a\nb\na\nb\n", b"b\na\nb\na\n"),
            (b"\n\n\n", b"\n\n"),
            (b"head\nx\ny\n", b"HEAD\nx\ny\n"),
            (b"x\ny\ntail\n", b"x\ny\nTAIL\n"),
            (b"x\ny\ntail\n", b"x\ny\ntail\nmore\n"),
        ]
        .iter()
        .map(|&(a, b)| (a.to_vec(), b.to_vec()))
        .collect();
        let binary: Vec<u8> = (0..=255u8).collect();
        let mut flipped = binary.clone();
        flipped[128] = 0;
        pairs.push((binary, flipped));

        for seed in 1..=16u64 {
            let mut rng = XorShift::new(seed);
            // Line ending per document: LF, CRLF, or none at all (binary).
            let ending: &[u8] = [&b"\n"[..], b"\r\n", b""][(seed % 3) as usize];
            // The last four documents draw from three lines, so they repeat.
            let pool: Vec<Vec<u8>> = (0..3).map(|i| format!("pool {i}").into_bytes()).collect();
            let repeats = seed > 12;
            let line = |rng: &mut XorShift| {
                let mut l = if repeats {
                    pool[rng.index(pool.len())].clone()
                } else {
                    let len = 1 + rng.index(24);
                    rng.bytes(len)
                };
                l.retain(|&c| c != b'\n');
                l.extend_from_slice(ending);
                l
            };
            let lines: Vec<Vec<u8>> = (0..rng.index(40)).map(|_| line(&mut rng)).collect();
            let base = lines.concat();
            pairs.push((base.clone(), base.clone()));
            pairs.push((base.clone(), Vec::new()));
            pairs.push((Vec::new(), base.clone()));
            for round in 0..40 {
                let mut edited = lines.clone();
                let at = match round % 4 {
                    0 => 0,
                    1 => edited.len() / 2,
                    2 => edited.len(),
                    _ => rng.index(edited.len() + 1),
                };
                match rng.below(4) {
                    // Pure insert: at the head, middle or tail.
                    0 => {
                        for _ in 0..1 + rng.index(3) {
                            edited.insert(at, line(&mut rng));
                        }
                    }
                    1 if at < edited.len() => {
                        edited.remove(at);
                    }
                    2 if at < edited.len() => edited[at] = line(&mut rng),
                    // Several scattered edits, so the middle has equal
                    // runs of its own.
                    _ => {
                        for _ in 0..3 {
                            let i = rng.index(edited.len() + 1);
                            edited.insert(i, line(&mut rng));
                        }
                    }
                }
                let mut target = edited.concat();
                if rng.chance(1, 4) && target.ends_with(b"\n") {
                    target.pop(); // no trailing newline
                }
                pairs.push((base.clone(), target.clone()));
                pairs.push((target, base.clone()));
            }
        }
        pairs
    }
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
