//! Line splitting and interning for the diff engine.

use std::collections::HashMap;

/// Split `data` into lines, each retaining its trailing `\n` (the final line
/// may lack one). Concatenating the slices yields `data` exactly.
pub fn split_lines(data: &[u8]) -> Vec<&[u8]> {
    Lines::new(data).iter().collect()
}

/// The boundaries of `data`'s lines: 0, then the end of every line — one
/// past each `\n`, and the buffer's end when its last line lacks one.
/// Newlines are found eight bytes at a time.
fn line_bounds(data: &[u8]) -> Vec<usize> {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const NEWLINES: u64 = 0x0a0a_0a0a_0a0a_0a0a;
    let mut bounds = Vec::with_capacity(data.len() / 32 + 2);
    bounds.push(0);
    let mut words = data.chunks_exact(8);
    let mut at = 0;
    for chunk in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        let x = u64::from_le_bytes(word) ^ NEWLINES;
        // The high bit of exactly each zero byte of `x`, each newline of
        // the chunk: adding 0x7f to a byte's low seven bits never carries
        // into the next byte, so no byte's result depends on another's.
        let mut hits = !(((x & LOW7) + LOW7) | x | LOW7);
        while hits != 0 {
            bounds.push(at + hits.trailing_zeros() as usize / 8 + 1);
            hits &= hits - 1;
        }
        at += 8;
    }
    let tail = words.remainder().iter().enumerate();
    bounds.extend(tail.filter(|&(_, &c)| c == b'\n').map(|(i, _)| at + i + 1));
    if bounds.last() != Some(&data.len()) {
        bounds.push(data.len());
    }
    bounds
}

/// A buffer split into lines in one pass over it, as byte offsets: no
/// line is copied.
#[derive(Debug)]
pub(crate) struct Lines<'a> {
    data: &'a [u8],
    bounds: Vec<usize>,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Lines {
            data,
            bounds: line_bounds(data),
        }
    }

    /// Number of lines.
    pub(crate) fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Byte offset where line `i` starts; the buffer's length at `len()`.
    pub(crate) fn offset(&self, i: usize) -> usize {
        self.bounds[i]
    }

    /// The bytes of lines `start..end`.
    pub(crate) fn span(&self, (start, end): (usize, usize)) -> &'a [u8] {
        &self.data[self.bounds[start]..self.bounds[end]]
    }

    /// Each line of lines `start..end`, apart.
    pub(crate) fn range(
        &self,
        (start, end): (usize, usize),
    ) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.bounds[start..=end]
            .windows(2)
            .map(|w| &self.data[w[0]..w[1]])
    }

    /// Every line, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        self.range((0, self.len()))
    }
}

/// Lengths in bytes of the longest common prefix and the longest common
/// suffix of `a` and `b` that consist of whole lines in both buffers, the
/// suffix taken from what the prefix leaves. These are exactly the lines a
/// line diff would report as the leading and trailing `Equal` runs, found
/// by comparing bytes instead of splitting and interning them.
pub(crate) fn common_line_affixes(a: &[u8], b: &[u8]) -> (usize, usize) {
    let mut prefix = common_prefix_len(a, b);
    if prefix < a.len() || prefix < b.len() {
        // The buffers diverge inside a line: back up to its start.
        prefix = a[..prefix]
            .iter()
            .rposition(|&c| c == b'\n')
            .map_or(0, |nl| nl + 1);
    }
    let (rest_a, rest_b) = (&a[prefix..], &b[prefix..]);
    let mut suffix = common_suffix_len(rest_a, rest_b);
    // A suffix is whole lines when it starts where a line starts in both
    // buffers: at the start of the remainder (the prefix ends on a line
    // boundary) or right after a newline.
    let at_line_start = |rest: &[u8]| {
        let start = rest.len() - suffix;
        start == 0 || rest[start - 1] == b'\n'
    };
    if !(at_line_start(rest_a) && at_line_start(rest_b)) {
        let tail = &rest_a[rest_a.len() - suffix..];
        suffix = tail
            .iter()
            .position(|&c| c == b'\n')
            .map_or(0, |nl| suffix - nl - 1);
    }
    (prefix, suffix)
}

/// Bytes `a` and `b` have in common at the front, compared 16 at a time.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let same = |(x, y): &(&[u8], &[u8])| x == y;
    let whole = 16
        * a.chunks_exact(16)
            .zip(b.chunks_exact(16))
            .take_while(same)
            .count();
    let bytes = a[whole..].iter().zip(&b[whole..]);
    whole + bytes.take_while(|(x, y)| x == y).count()
}

/// Bytes `a` and `b` have in common at the back.
fn common_suffix_len(a: &[u8], b: &[u8]) -> usize {
    let same = |(x, y): &(&[u8], &[u8])| x == y;
    let whole = 16
        * a.rchunks_exact(16)
            .zip(b.rchunks_exact(16))
            .take_while(same)
            .count();
    let bytes = a[..a.len() - whole]
        .iter()
        .rev()
        .zip(b[..b.len() - whole].iter().rev());
    whole + bytes.take_while(|(x, y)| x == y).count()
}

/// Interns line contents so the diff core compares small integer tokens
/// instead of byte slices. Identical lines — wherever they occur in either
/// input — receive the same token, numbered by first appearance. The table
/// borrows the lines from the inputs; nothing is copied.
///
/// The table hashes with the standard library's per-process random key
/// (`RandomState`): node contents come from clients and a check-in diffs
/// them under the shard lock, so lines crafted to collide under a fixed
/// hash would stall every writer on that shard.
#[derive(Debug, Default)]
pub struct Interner<'a> {
    table: HashMap<&'a [u8], u32>,
}

impl<'a> Interner<'a> {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner with room for `lines` distinct lines.
    pub fn with_capacity(lines: usize) -> Self {
        Interner {
            table: HashMap::with_capacity(lines),
        }
    }

    /// The token of `line`, a new one if it has not been seen.
    pub fn intern(&mut self, line: &'a [u8]) -> u32 {
        let next = self.table.len() as u32;
        *self.table.entry(line).or_insert(next)
    }

    /// Number of distinct lines seen so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no lines have been interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_preserves_bytes() {
        for data in [
            &b"a\nb\nc\n"[..],
            b"no newline",
            b"",
            b"\n",
            b"\n\n",
            b"trailing\npartial",
            b"\x00\x01\n\xFF",
        ] {
            let joined: Vec<u8> = split_lines(data).concat();
            assert_eq!(joined, data);
        }
    }

    #[test]
    fn split_counts() {
        assert_eq!(split_lines(b"").len(), 0);
        assert_eq!(split_lines(b"x").len(), 1);
        assert_eq!(split_lines(b"x\n").len(), 1);
        assert_eq!(split_lines(b"x\ny").len(), 2);
        assert_eq!(split_lines(b"\n\n\n").len(), 3);
    }

    #[test]
    fn affixes_are_the_equal_line_runs_at_either_end() {
        /// The same two lengths from whole-line comparison.
        fn by_lines(a: &[u8], b: &[u8]) -> (usize, usize) {
            let (la, lb) = (split_lines(a), split_lines(b));
            let p = la.iter().zip(&lb).take_while(|(x, y)| x == y).count();
            let (ra, rb) = (&la[p..], &lb[p..]);
            let s = ra
                .iter()
                .rev()
                .zip(rb.iter().rev())
                .take_while(|(x, y)| x == y)
                .count();
            let bytes = |lines: &[&[u8]]| lines.iter().map(|l| l.len()).sum::<usize>();
            (bytes(&la[..p]), bytes(&ra[ra.len() - s..]))
        }
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"", b"x\n"),
            (b"x", b"x"),
            (b"x", b"x\ny"),
            (b"x\ny", b"x\ny\nz"),
            (b"x\ny", b"x\nyz"),
            (b"k\ny", b"j\ny"),
            (b"y", b"xy"),
            (b"a\nb\na\nb\n", b"a\nb\n"),
            (b"a\nb\nc\n", b"a\nB\nc\n"),
            (b"a\r\nb\r\n", b"a\r\nc\r\nb\r\n"),
            (b"\n\n\n", b"\n\n"),
            (b"same line\n", b"same line"),
        ];
        for (a, b) in cases {
            assert_eq!(common_line_affixes(a, b), by_lines(a, b), "{a:?} vs {b:?}");
            assert_eq!(common_line_affixes(b, a), by_lines(b, a), "{b:?} vs {a:?}");
        }
        // Long enough to cross the 16-byte comparison stride on both ends.
        let a: Vec<u8> = (0..40)
            .flat_map(|i| format!("line {i}\n").into_bytes())
            .collect();
        let mut b = a.clone();
        b[a.len() / 2] ^= 1;
        assert_eq!(common_line_affixes(&a, &b), by_lines(&a, &b));
    }

    #[test]
    fn split_agrees_with_a_byte_at_a_time_split() {
        use crate::testutil::XorShift;
        let mut rng = XorShift::new(0x11e5);
        for len in 0..80 {
            for _ in 0..8 {
                // Newlines dense or sparse, beside bytes one away from one.
                let data: Vec<u8> = (0..len)
                    .map(|_| [b'\n', 0x0b, 0x09, 0x8a, rng.next_u64() as u8][rng.index(5)])
                    .collect();
                let naive: Vec<&[u8]> = data.split_inclusive(|&c| c == b'\n').collect();
                assert_eq!(split_lines(&data), naive, "{data:?}");
            }
        }
    }

    #[test]
    fn interning_is_stable_across_inputs() {
        let mut i = Interner::new();
        let a: Vec<u32> = [&b"same\n"[..], b"diff_a\n"].map(|l| i.intern(l)).to_vec();
        let b: Vec<u32> = [&b"same\n"[..], b"diff_b\n"].map(|l| i.intern(l)).to_vec();
        assert_eq!(a[0], b[0], "identical lines share a token");
        assert_ne!(a[1], b[1]);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn line_with_and_without_newline_differ() {
        let mut i = Interner::new();
        assert_ne!(i.intern(b"x\n"), i.intern(b"x"));
    }
}
