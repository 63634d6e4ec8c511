//! An append-mostly vector whose clones share storage.
//!
//! Version histories only ever grow at the end (check-in), and every
//! commit copies the node it touches because the published view still
//! holds the old one. A plain `Vec` makes that
//! copy linear in the history. [`SharedVec`] keeps its items in fixed-size
//! chunks behind `Arc`s: full chunks sit in a shared spine, the last,
//! partial chunk is the tail. `clone` is two refcount bumps; a `push` after
//! a clone copies at most one chunk of items, and the spine's pointers once
//! per [`CHUNK`] pushes. Items should themselves be cheap to clone (hold
//! their payload behind an `Arc`), so no copy ever touches payload bytes.

use std::sync::Arc;

/// Items per chunk. A power of two, so indexing is a shift and a mask.
pub const CHUNK: usize = 32;

/// A vector with O(1) `clone` and copy-on-write `push`/`set`.
/// An empty one owns no allocation, and one shorter than a chunk only its
/// tail: most histories are short, and every node carries several.
#[derive(Debug)]
pub struct SharedVec<T> {
    /// Full chunks, each exactly [`CHUNK`] items; `None` while there are none.
    sealed: Option<Arc<Vec<Chunk<T>>>>,
    /// The last `1..CHUNK` items; `None` when the length is a multiple of
    /// [`CHUNK`].
    tail: Option<Chunk<T>>,
}

type Chunk<T> = Arc<Vec<T>>;

impl<T> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        SharedVec {
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
        }
    }
}

impl<T> Default for SharedVec<T> {
    fn default() -> Self {
        SharedVec {
            sealed: None,
            tail: None,
        }
    }
}

impl<T> SharedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    fn sealed(&self) -> &[Chunk<T>] {
        self.sealed.as_ref().map_or(&[], |sealed| sealed)
    }

    fn tail(&self) -> &[T] {
        self.tail.as_ref().map_or(&[], |tail| tail)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.sealed().len() * CHUNK + self.tail().len()
    }

    /// Whether the vector holds no items.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_none() && self.tail.is_none()
    }

    /// The item at `index`, if in range.
    pub fn get(&self, index: usize) -> Option<&T> {
        match self.sealed().get(index / CHUNK) {
            Some(chunk) => chunk.get(index % CHUNK),
            None => self.tail().get(index - self.sealed().len() * CHUNK),
        }
    }

    /// The last item, if any.
    pub fn last(&self) -> Option<&T> {
        self.tail()
            .last()
            .or_else(|| self.sealed().last().and_then(|chunk| chunk.last()))
    }

    /// Items in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.sealed()
            .iter()
            .flat_map(|chunk| chunk.iter())
            .chain(self.tail())
    }

    /// Index of the first item for which `pred` is false, assuming the
    /// vector is partitioned by `pred` (as `slice::partition_point`).
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid).is_some_and(&mut pred) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// How many of this vector's full chunks are the very same allocations
    /// as `other`'s chunks at the same positions, and how many full chunks
    /// this vector has. For tests asserting that a copy shares history.
    #[doc(hidden)]
    pub fn shared_chunks(&self, other: &SharedVec<T>) -> (usize, usize) {
        let shared = self
            .sealed()
            .iter()
            .zip(other.sealed())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        (shared, self.sealed().len())
    }
}

impl<T: Clone> SharedVec<T> {
    /// Append `item`.
    pub fn push(&mut self, item: T) {
        let tail = Arc::make_mut(self.tail.get_or_insert_with(Arc::default));
        tail.push(item);
        if tail.len() == CHUNK {
            // Seal by moving the pointer: whoever shares the full chunk
            // keeps sharing it.
            let full = self.tail.take().unwrap_or_default();
            Arc::make_mut(self.sealed.get_or_insert_with(Arc::default)).push(full);
        }
    }

    /// Replace the item at `index`. Panics if out of range.
    pub fn set(&mut self, index: usize, item: T) {
        let slot = match &mut self.sealed {
            Some(sealed) if index / CHUNK < sealed.len() => {
                &mut Arc::make_mut(sealed)[index / CHUNK]
            }
            _ => self.tail.as_mut().expect("index within the vector"),
        };
        Arc::make_mut(slot)[index % CHUNK] = item;
    }
}

impl<T: PartialEq> PartialEq for SharedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for SharedVec<T> {}

/// Chunk a whole vector at once: one exact allocation per chunk, which a
/// decoder filling a long history wants over [`SharedVec::push`]'s growing
/// tail.
impl<T> From<Vec<T>> for SharedVec<T> {
    fn from(items: Vec<T>) -> Self {
        let mut items = items.into_iter();
        let mut sealed = Vec::with_capacity(items.len() / CHUNK);
        while items.len() >= CHUNK {
            sealed.push(Arc::new(items.by_ref().take(CHUNK).collect()));
        }
        SharedVec {
            sealed: (!sealed.is_empty()).then(|| Arc::new(sealed)),
            tail: (items.len() > 0).then(|| Arc::new(items.collect())),
        }
    }
}

impl<T> FromIterator<T> for SharedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<T>>().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::XorShift;

    #[test]
    fn matches_a_vec_under_push_and_set() {
        for seed in 1..=6u64 {
            let mut rng = XorShift::new(seed);
            let mut model: Vec<u64> = Vec::new();
            let mut v: SharedVec<u64> = SharedVec::new();
            let mut frozen: Vec<(SharedVec<u64>, Vec<u64>)> = Vec::new();
            for step in 0..600u64 {
                match rng.below(10) {
                    1 if !model.is_empty() => {
                        let at = rng.index(model.len());
                        model[at] = step;
                        v.set(at, step);
                    }
                    2 => frozen.push((v.clone(), model.clone())),
                    _ => {
                        model.push(step);
                        v.push(step);
                    }
                }
                assert_eq!(v.len(), model.len());
                assert_eq!(v.last(), model.last());
            }
            assert!(v.iter().eq(model.iter()));
            assert!(v.iter().rev().eq(model.iter().rev()));
            for (i, want) in model.iter().enumerate() {
                assert_eq!(v.get(i), Some(want));
            }
            assert_eq!(v.get(model.len()), None);
            // Clones taken along the way never saw a later write.
            for (copy, want) in &frozen {
                assert!(copy.iter().eq(want.iter()), "seed {seed}");
            }
        }
    }

    #[test]
    fn a_push_after_a_clone_shares_every_full_chunk() {
        let mut v: SharedVec<usize> = (0..5 * CHUNK + 7).collect();
        let before = v.clone();
        v.push(0);
        assert_eq!(v.shared_chunks(&before), (5, 5));
        assert_eq!(before.len(), 5 * CHUNK + 7);
        // Sealing the tail keeps the old chunks where they were.
        for i in 0..CHUNK {
            v.push(i);
        }
        assert_eq!(before.shared_chunks(&v), (5, 5));
        assert_eq!(v.shared_chunks(&before).1, 6);
    }

    #[test]
    fn partition_point_agrees_with_slices() {
        let v: SharedVec<usize> = (0..200).map(|i| i * 3).collect();
        let model: Vec<usize> = v.iter().copied().collect();
        for probe in [0, 1, 3, 95, 96, 97, 299, 597, 598, 10_000] {
            assert_eq!(
                v.partition_point(|&x| x <= probe),
                model.partition_point(|&x| x <= probe)
            );
        }
        assert_eq!(SharedVec::<usize>::new().partition_point(|_| true), 0);
    }

    #[test]
    fn equality_compares_items_not_layout() {
        let a: SharedVec<u8> = (0..100).collect();
        let mut b: SharedVec<u8> = (0..99).collect();
        assert_ne!(a, b);
        b.push(99);
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
    }
}
