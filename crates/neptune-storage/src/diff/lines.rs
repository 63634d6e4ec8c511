//! Line splitting and interning for the diff engine.

use std::collections::HashMap;

/// Split `data` into lines, each retaining its trailing `\n` (the final line
/// may lack one). Concatenating the slices yields `data` exactly.
pub fn split_lines(data: &[u8]) -> Vec<&[u8]> {
    let mut lines = Vec::new();
    let mut start = 0;
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' {
            lines.push(&data[start..=i]);
            start = i + 1;
        }
    }
    if start < data.len() {
        lines.push(&data[start..]);
    }
    lines
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
/// input — receive the same token. The table borrows the lines from the
/// inputs; nothing is copied.
#[derive(Debug, Default)]
pub struct Interner<'a> {
    table: HashMap<&'a [u8], u32>,
}

impl<'a> Interner<'a> {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern every line of `data`, returning one token per line.
    pub fn intern_lines(&mut self, data: &'a [u8]) -> Vec<u32> {
        split_lines(data)
            .into_iter()
            .map(|line| {
                let next = self.table.len() as u32;
                *self.table.entry(line).or_insert(next)
            })
            .collect()
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
    fn interning_is_stable_across_inputs() {
        let mut i = Interner::new();
        let a = i.intern_lines(b"same\ndiff_a\n");
        let b = i.intern_lines(b"same\ndiff_b\n");
        assert_eq!(a[0], b[0], "identical lines share a token");
        assert_ne!(a[1], b[1]);
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn line_with_and_without_newline_differ() {
        let mut i = Interner::new();
        let a = i.intern_lines(b"x\n");
        let b = i.intern_lines(b"x");
        assert_ne!(a[0], b[0]);
    }
}
