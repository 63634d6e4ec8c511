//! Seeded input generators, owned by the benchmark.
//!
//! The text and edit generators are copies in spirit of the ones in
//! `neptune-bench`, kept here so a later edit to that crate cannot change
//! the benchmark's inputs. Unlike those, every body has an exact length and
//! every edit keeps it: byte-count metrics then depend on the op count and
//! not on the seed.

/// Width of one generated line, newline included.
pub const LINE: usize = 64;

/// splitmix64: small, seedable, and good enough to pick ops and words.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)`: lanes are clients, nodes,
    /// phases — anything that must not share draws with its neighbours.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }
}

/// FNV-1a, 64 bit: the content hash the model keeps instead of bodies.
pub fn fnv(bytes: &[u8]) -> u64 {
    fnv_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash over more bytes.
pub fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const WORDS: [&str; 8] = [
    "hypertext",
    "node",
    "link",
    "version",
    "attribute",
    "graph",
    "demon",
    "transaction",
];

/// One line of exactly [`LINE`] bytes: a prefix, words, padding, newline.
fn line(prefix: &str, rng: &mut Rng) -> Vec<u8> {
    let mut l = Vec::with_capacity(LINE);
    l.extend_from_slice(prefix.as_bytes());
    loop {
        let w = WORDS[rng.index(WORDS.len())];
        if l.len() + 1 + w.len() >= LINE {
            break;
        }
        l.push(b' ');
        l.extend_from_slice(w.as_bytes());
    }
    l.resize(LINE - 1, b'.');
    l.push(b'\n');
    l
}

/// Deterministic multi-line text of exactly `bytes` bytes (a multiple of
/// [`LINE`]).
pub fn text(bytes: usize, seed: u64) -> Vec<u8> {
    assert!(bytes.is_multiple_of(LINE), "body sizes are whole lines");
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(bytes);
    for n in 0..bytes / LINE {
        out.extend_from_slice(&line(&format!("line {n:05}:"), &mut rng));
    }
    out
}

/// Replace `edits` lines of `contents` in place with fresh ones of the same
/// width: the editor's "small change to the previous version".
pub fn edit_lines(contents: &mut [u8], edits: usize, seed: u64) {
    let lines = contents.len() / LINE;
    let mut rng = Rng::new(seed);
    for i in 0..edits {
        let at = rng.index(lines);
        let new = line(&format!("line {at:05}: EDIT {seed:016x}.{i}"), &mut rng);
        contents[at * LINE..(at + 1) * LINE].copy_from_slice(&new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_is_exact_and_seeded() {
        let a = text(2048, 7);
        assert_eq!(a.len(), 2048);
        assert_eq!(a, text(2048, 7));
        assert_ne!(a, text(2048, 8));
        assert!(a
            .split(|&b| b == b'\n')
            .all(|l| l.is_empty() || l.len() == LINE - 1));
    }

    #[test]
    fn edits_keep_length_and_change_few_lines() {
        let base = text(2048, 1);
        let mut edited = base.clone();
        edit_lines(&mut edited, 2, 99);
        assert_eq!(edited.len(), base.len());
        let changed = base
            .chunks(LINE)
            .zip(edited.chunks(LINE))
            .filter(|(a, b)| a != b)
            .count();
        assert!((1..=2).contains(&changed), "{changed} lines changed");
    }

    #[test]
    fn lanes_are_independent() {
        let mut a = Rng::lane(5, 0);
        let mut b = Rng::lane(5, 1);
        assert_ne!(a.next(), b.next());
        assert_eq!(Rng::lane(5, 3).next(), Rng::lane(5, 3).next());
    }
}
