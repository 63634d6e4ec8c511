//! Time-indexed versioned cells.
//!
//! The HAM keeps *"a complete version history of the hypergraph"* and can
//! answer any query *at a Time*: attribute values, link attachment offsets,
//! demons, even whether a node existed. [`Versioned<T>`] is the building
//! block: an append-only series of `(Time, Option<T>)` entries, where `None`
//! records a deletion. Queries binary-search for the newest entry at or
//! before the asked time.

use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::error::Result as StorageResult;

use crate::types::Time;

/// An append-only, time-indexed value history.
///
/// Invariants: entry times strictly increase; `get_at(Time::CURRENT)` is the
/// newest entry; a `None` entry means "deleted as of this time".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned<T> {
    entries: Vec<(Time, Option<T>)>,
}

impl<T> Default for Versioned<T> {
    fn default() -> Self {
        Versioned {
            entries: Vec::new(),
        }
    }
}

impl<T> Versioned<T> {
    /// An empty history: the value exists at no time.
    pub fn new() -> Self {
        Self::default()
    }

    /// A history with a single initial entry.
    pub fn with_initial(time: Time, value: T) -> Self {
        Versioned {
            entries: vec![(time, Some(value))],
        }
    }

    /// Record `value` as of `time`.
    ///
    /// `time` must be ≥ every existing entry's time (the graph's version
    /// clock guarantees this). Setting at an existing newest time replaces
    /// that entry — several updates inside one clock tick coalesce.
    pub fn set(&mut self, time: Time, value: T) {
        self.put(time, Some(value));
    }

    /// Record a deletion as of `time`.
    pub fn delete(&mut self, time: Time) {
        self.put(time, None);
    }

    fn put(&mut self, time: Time, value: Option<T>) {
        debug_assert!(!time.is_current(), "cannot write at the CURRENT marker");
        match self.entries.last_mut() {
            Some((t, v)) if *t == time => *v = value,
            Some((t, _)) => {
                debug_assert!(*t < time, "versioned writes must be in time order");
                self.entries.push((time, value));
            }
            None => self.entries.push((time, value)),
        }
    }

    /// The value in effect at `time` (`CURRENT` = newest). `None` if the
    /// value did not exist (never set, or deleted) at that time.
    pub fn get_at(&self, time: Time) -> Option<&T> {
        self.entry_at(time).and_then(|e| e.as_ref())
    }

    /// The newest value, if it exists.
    pub fn current(&self) -> Option<&T> {
        self.get_at(Time::CURRENT)
    }

    /// Whether a (non-deleted) value exists at `time`.
    pub fn exists_at(&self, time: Time) -> bool {
        self.get_at(time).is_some()
    }

    /// The time of the entry in effect at `time`, if any.
    pub fn effective_time(&self, time: Time) -> Option<Time> {
        let idx = self.index_at(time)?;
        Some(self.entries[idx].0)
    }

    fn entry_at(&self, time: Time) -> Option<&Option<T>> {
        let idx = self.index_at(time)?;
        Some(&self.entries[idx].1)
    }

    fn index_at(&self, time: Time) -> Option<usize> {
        self.index_at_counted(time).0
    }

    /// [`Versioned::get_at`] plus the number of entries the lookup probed —
    /// the instrumented variant behind the attribute read path, so metrics
    /// can prove point-gets stay O(log n) as histories deepen.
    pub(crate) fn get_at_counted(&self, time: Time) -> (Option<&T>, u32) {
        let (idx, probes) = self.index_at_counted(time);
        (idx.and_then(|i| self.entries[i].1.as_ref()), probes)
    }

    /// Index of the newest entry at or before `time`, with a probe count.
    /// Hand-rolled binary search (identical result to
    /// `binary_search_by_key` + `Err` adjustment) so each comparison is
    /// observable; `CURRENT` resolves in zero probes.
    fn index_at_counted(&self, time: Time) -> (Option<usize>, u32) {
        if self.entries.is_empty() {
            return (None, 0);
        }
        if time.is_current() {
            return (Some(self.entries.len() - 1), 0);
        }
        // partition point of `entry.0 <= time`, counting comparisons.
        let mut lo = 0usize;
        let mut hi = self.entries.len();
        let mut probes = 0u32;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            if self.entries[mid].0 <= time {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            (None, probes)
        } else {
            (Some(lo - 1), probes)
        }
    }

    /// All `(time, value)` change entries, oldest first (deletions included).
    pub fn entries(&self) -> impl Iterator<Item = (Time, Option<&T>)> {
        self.entries.iter().map(|(t, v)| (*t, v.as_ref()))
    }

    /// Times at which the value changed, oldest first.
    pub fn change_times(&self) -> Vec<Time> {
        self.entries.iter().map(|(t, _)| *t).collect()
    }

    /// Time of the newest change, if any — O(1), unlike
    /// `change_times().last()`, which materializes the whole history.
    pub fn last_change_time(&self) -> Option<Time> {
        self.entries.last().map(|(t, _)| *t)
    }

    /// Number of recorded changes.
    pub fn change_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A derived creation-time index over the graph's nodes and links: two
/// time-sorted lists of `(created, id)` pairs. Because the graph's version
/// clock is monotone, an object created after `t` cannot exist at `t`, so
/// whole-graph historical reads (`getGraphQuery`, attribute queries at time
/// `t`) can restrict themselves to the `created <= t` prefix instead of
/// probing every archive ever created — the graph-level half of the
/// temporal index (DeltaGraph-style retrieval; the per-archive half lives
/// in `neptune_storage::archive`).
///
/// The index is *conservative*: it may list an object that does not exist
/// at `t` (deleted, or an id reused across a forced re-insert), but never
/// misses one that does. Consumers still filter with `exists_at`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TemporalIndex {
    nodes_by_created: Vec<(Time, u64)>,
    links_by_created: Vec<(Time, u64)>,
}

fn insert_sorted(list: &mut Vec<(Time, u64)>, time: Time, id: u64) {
    match list.last() {
        // Normal case: the clock is monotone, so records append.
        Some(&(last, _)) if last > time => {
            let pos = list.partition_point(|&(t, _)| t <= time);
            list.insert(pos, (time, id));
        }
        _ => list.push((time, id)),
    }
}

/// Ids in the `created <= time` prefix of a sorted list.
fn created_by(list: &[(Time, u64)], time: Time) -> Vec<u64> {
    let end = if time.is_current() {
        list.len()
    } else {
        list.partition_point(|&(t, _)| t <= time)
    };
    list[..end].iter().map(|&(_, id)| id).collect()
}

impl TemporalIndex {
    /// An empty index.
    pub fn new() -> TemporalIndex {
        TemporalIndex::default()
    }

    /// Rebuild from unsorted `(created, id)` records (snapshot decode).
    pub fn from_records(mut nodes: Vec<(Time, u64)>, mut links: Vec<(Time, u64)>) -> TemporalIndex {
        nodes.sort_unstable();
        links.sort_unstable();
        TemporalIndex {
            nodes_by_created: nodes,
            links_by_created: links,
        }
    }

    /// Record a node creation.
    pub fn record_node(&mut self, time: Time, id: u64) {
        insert_sorted(&mut self.nodes_by_created, time, id);
    }

    /// Record a link creation.
    pub fn record_link(&mut self, time: Time, id: u64) {
        insert_sorted(&mut self.links_by_created, time, id);
    }

    /// Ids of every node created at or before `time` (unordered by id; may
    /// contain duplicates when an id was reused across a rollback).
    pub fn nodes_created_by(&self, time: Time) -> Vec<u64> {
        created_by(&self.nodes_by_created, time)
    }

    /// Ids of every link created at or before `time`.
    pub fn links_created_by(&self, time: Time) -> Vec<u64> {
        created_by(&self.links_by_created, time)
    }

    /// Total recorded creations, `(nodes, links)`.
    pub fn len(&self) -> (usize, usize) {
        (self.nodes_by_created.len(), self.links_by_created.len())
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes_by_created.is_empty() && self.links_by_created.is_empty()
    }

    /// Clear the index.
    pub fn clear(&mut self) {
        self.nodes_by_created.clear();
        self.links_by_created.clear();
    }
}

impl<T: Encode> Encode for Versioned<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.entries.len() as u64);
        for (t, v) in &self.entries {
            t.encode(w);
            v.encode(w);
        }
    }
}

impl<T: Decode> Decode for Versioned<T> {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let count = r.get_u64()? as usize;
        let mut entries = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let t = Time::decode(r)?;
            let v = Option::<T>::decode(r)?;
            entries.push((t, v));
        }
        Ok(Versioned { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_has_no_value() {
        let v: Versioned<u64> = Versioned::new();
        assert!(v.current().is_none());
        assert!(!v.exists_at(Time(5)));
        assert!(v.is_empty());
    }

    #[test]
    fn values_are_visible_from_their_time_onward() {
        let mut v = Versioned::new();
        v.set(Time(10), "first");
        v.set(Time(20), "second");
        assert_eq!(v.get_at(Time(9)), None);
        assert_eq!(v.get_at(Time(10)), Some(&"first"));
        assert_eq!(v.get_at(Time(15)), Some(&"first"));
        assert_eq!(v.get_at(Time(20)), Some(&"second"));
        assert_eq!(v.get_at(Time(99)), Some(&"second"));
        assert_eq!(v.current(), Some(&"second"));
    }

    #[test]
    fn deletion_is_part_of_history() {
        let mut v = Versioned::new();
        v.set(Time(1), 100u64);
        v.delete(Time(5));
        v.set(Time(9), 200);
        assert_eq!(v.get_at(Time(1)), Some(&100));
        assert_eq!(v.get_at(Time(4)), Some(&100));
        assert_eq!(v.get_at(Time(5)), None);
        assert_eq!(v.get_at(Time(8)), None);
        assert_eq!(v.get_at(Time(9)), Some(&200));
        assert!(!v.exists_at(Time(6)));
        assert!(v.exists_at(Time::CURRENT));
    }

    #[test]
    fn same_tick_updates_coalesce() {
        let mut v = Versioned::new();
        v.set(Time(3), 1u64);
        v.set(Time(3), 2);
        assert_eq!(v.change_count(), 1);
        assert_eq!(v.current(), Some(&2));
    }

    #[test]
    fn effective_time_reports_the_entry_in_force() {
        let mut v = Versioned::new();
        v.set(Time(10), 'a');
        v.set(Time(20), 'b');
        assert_eq!(v.effective_time(Time(15)), Some(Time(10)));
        assert_eq!(v.effective_time(Time(20)), Some(Time(20)));
        assert_eq!(v.effective_time(Time::CURRENT), Some(Time(20)));
        assert_eq!(v.effective_time(Time(5)), None);
    }

    #[test]
    fn codec_roundtrip() {
        let mut v: Versioned<String> = Versioned::new();
        v.set(Time(2), "x".into());
        v.delete(Time(4));
        v.set(Time(6), "y".into());
        let decoded = Versioned::<String>::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn with_initial_constructor() {
        let v = Versioned::with_initial(Time(3), 7u64);
        assert_eq!(v.get_at(Time(3)), Some(&7));
        assert_eq!(v.get_at(Time(2)), None);
    }

    #[test]
    fn temporal_index_prefixes_by_creation_time() {
        let mut ix = TemporalIndex::new();
        ix.record_node(Time(2), 1);
        ix.record_node(Time(5), 2);
        ix.record_link(Time(7), 1);
        ix.record_node(Time(9), 3);
        assert_eq!(ix.nodes_created_by(Time(1)), Vec::<u64>::new());
        assert_eq!(ix.nodes_created_by(Time(5)), vec![1, 2]);
        assert_eq!(ix.nodes_created_by(Time::CURRENT), vec![1, 2, 3]);
        assert_eq!(ix.links_created_by(Time(6)), Vec::<u64>::new());
        assert_eq!(ix.links_created_by(Time(8)), vec![1]);
    }

    #[test]
    fn temporal_index_tolerates_out_of_order() {
        let mut ix = TemporalIndex::new();
        ix.record_node(Time(5), 2);
        // Forced WAL replays can insert behind the newest record; the
        // index must stay sorted.
        ix.record_node(Time(2), 1);
        assert_eq!(ix.nodes_created_by(Time(3)), vec![1]);
        ix.record_node(Time(9), 3);
        assert_eq!(ix.nodes_created_by(Time::CURRENT), vec![1, 2, 3]);
        ix.clear();
        assert!(ix.is_empty());
    }

    #[test]
    fn entries_iterator_includes_deletions() {
        let mut v = Versioned::new();
        v.set(Time(1), 1u64);
        v.delete(Time(2));
        let entries: Vec<_> = v.entries().collect();
        assert_eq!(entries, vec![(Time(1), Some(&1)), (Time(2), None)]);
    }
}
