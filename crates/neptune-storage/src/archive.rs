//! Backward-delta version archives with a hierarchical temporal index.
//!
//! Paper §A.2: *"Each node is either an archive or a file. Complete version
//! histories are maintained for archives; only the current version is
//! available for files."* An [`Archive`] keeps the **current** contents in
//! full and, for every older version, a backward [`Delta`] that rebuilds it
//! from the next-newer version — exactly RCS's reverse-delta scheme \[Tic82\],
//! which the paper cites. Check-out of the head is O(size); naive check-out
//! of a version `k` steps back applies `k` deltas.
//!
//! To make *any* historical checkout cheap — not just ones near a warm
//! cache — the archive maintains a **skip-delta ladder** in the DeltaGraph
//! style (Khurana & Deshpande, "Efficient Snapshot Retrieval over Historical
//! Graph Data"): at level `ℓ ∈ 1..=4`, every [`SKIP_SPANS`]`[ℓ-1]`-th version
//! stores one extra backward delta that rebuilds it directly from the
//! version a whole span newer. Checkout descends greedily — coarsest ladder
//! rung first, unit deltas for the remainder — so reaching any of `n`
//! versions applies O(log n) deltas instead of O(distance-to-head). The
//! ladder is *persistent* derived data: it rides the v2 archive encoding
//! ([`Archive::encode_with_index`]) so a fresh process gets sublinear cold
//! checkout, yet it is excluded from equality and validated defensively —
//! every skip application is checksummed, and a corrupt or stale skip is
//! dropped on the spot with replay falling back to finer steps.
//!
//! Alongside the ladder, a byte-bounded **anchor cache** retains full
//! materializations — the version each checkout just rebuilt, plus every
//! [`KEYFRAME_INTERVAL`]-th version the replay passed — with LRU eviction
//! under [`DEFAULT_ANCHOR_BUDGET`]. It is the system's only version cache:
//! a repeated read of one version is an exact anchor hit (zero deltas, one
//! refcount bump), and because the anchors live inside the archive they
//! describe they never need invalidating: a history only grows, and each
//! copy of an archive owns its index, so a copy that is dropped (an aborted
//! transaction's) takes its anchors with it. Anchors are in-memory only;
//! [`anchor_stats`] reports them.
//! [`Archive::checkout_uncached`] performs the original full replay for
//! benchmarks and cross-checking; [`Archive::verify_index`] audits every
//! persisted skip against the canonical delta chain.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::checksum::crc32;
use crate::codec::{Decode, Encode, Reader, Writer};
use crate::delta::Delta;
use crate::error::{Result, StorageError};
use crate::sharedvec::SharedVec;

/// Every this-many versions along the backward chain, replay retains a full
/// materialization in the anchor cache so later checkouts start nearby.
/// Also the grain of the finest skip-ladder level.
pub const KEYFRAME_INTERVAL: usize = 16;

/// Number of skip-ladder levels.
pub const SKIP_LEVELS: usize = 4;

/// Version span covered by one skip delta at each level: level `ℓ` (1-based)
/// spans `16^ℓ` versions, so four levels cover histories past 10^6 versions
/// with ≤ 15 applications per level — O(log n) total.
pub const SKIP_SPANS: [usize; SKIP_LEVELS] = [16, 256, 4096, 65536];

/// Default per-archive byte budget for the anchor cache.
pub const DEFAULT_ANCHOR_BUDGET: usize = 256 * 1024;

/// Record how many backward deltas (unit or skip) one checkout had to apply
/// into the `neptune_storage_delta_replay_depth` histogram — the first-class
/// signal for whether the ladder and anchors are doing their job.
fn observe_replay_depth(depth: usize) {
    static HIST: std::sync::OnceLock<Arc<neptune_obs::Histogram>> = std::sync::OnceLock::new();
    if neptune_obs::enabled() {
        HIST.get_or_init(|| {
            neptune_obs::registry().histogram("neptune_storage_delta_replay_depth")
        })
        .observe(depth as u64);
    }
}

/// Record one materialization's use of the temporal index: whether it was
/// served by an anchor or skip at all, and the coarsest ladder level used.
fn observe_index_usage(hit: bool, max_level: usize) {
    static HITS: std::sync::OnceLock<Arc<neptune_obs::Counter>> = std::sync::OnceLock::new();
    static LEVELS: std::sync::OnceLock<Arc<neptune_obs::Histogram>> = std::sync::OnceLock::new();
    if !neptune_obs::enabled() {
        return;
    }
    if hit {
        HITS.get_or_init(|| neptune_obs::registry().counter("neptune_storage_index_hits_total"))
            .inc();
    }
    LEVELS
        .get_or_init(|| neptune_obs::registry().histogram("neptune_storage_index_levels_depth"))
        .observe(max_level as u64);
}

/// Process-wide totals over every live set of anchor frames. Kept balanced
/// across insert/evict/copy/drop rather than gated on the obs kill-switch, so
/// the occupancy gauges never drift when tracing is toggled mid-run and
/// [`anchor_stats`] answers either way.
struct AnchorMetrics {
    exact_hits: Arc<neptune_obs::Counter>,
    replays: Arc<neptune_obs::Counter>,
    entries: Arc<neptune_obs::Gauge>,
    bytes: Arc<neptune_obs::Gauge>,
}

fn anchor_metrics() -> &'static AnchorMetrics {
    static METRICS: OnceLock<AnchorMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = neptune_obs::registry();
        AnchorMetrics {
            exact_hits: registry.counter("neptune_storage_index_exact_hits_total"),
            replays: registry.counter("neptune_storage_index_replays_total"),
            entries: registry.gauge("neptune_storage_index_anchor_entries"),
            bytes: registry.gauge("neptune_storage_index_anchor_bytes"),
        }
    })
}

/// Counters and occupancy of the anchor caches, as reported over the wire
/// by the server's `CacheStats` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Checkouts served by an exact anchor: zero deltas applied.
    pub hits: u64,
    /// Checkouts that applied at least one delta.
    pub misses: u64,
    /// Anchors currently held.
    pub entries: u64,
    /// Total bytes of the anchors currently held.
    pub bytes: u64,
}

/// Process-wide [`CacheStats`], summed over every live archive.
pub fn anchor_stats() -> CacheStats {
    let m = anchor_metrics();
    CacheStats {
        hits: m.exact_hits.get(),
        misses: m.replays.get(),
        entries: m.entries.get().max(0) as u64,
        bytes: m.bytes.get().max(0) as u64,
    }
}

/// One historical version's metadata plus the backward delta to reach it
/// from its successor.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BackEntry {
    /// Logical time at which this version was checked in.
    time: u64,
    /// Rebuilds this version's contents from the next-newer version.
    back_delta: Delta,
}

/// Per-level lazy-backfill buffer: the newest (position, bytes) pair a
/// descent materialized on each level's span grid.
type PendingBoundaries = [Option<(usize, Arc<[u8]>)>; SKIP_LEVELS];

/// One rung of the skip ladder. A rung lives in grid slot `start / span`
/// of its level: applied to the contents of version index `start + span`,
/// `delta` rebuilds version index `start` directly. `crc` is the checksum
/// of the target bytes, verified on every application so a corrupt skip can
/// never change what a checkout returns.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SkipDelta {
    crc: u32,
    delta: Delta,
}

/// The rungs of one ladder level by grid slot, `None` where one is missing
/// (a migrated v1 store, a rung dropped as corrupt). Shared between the
/// copies of an archive like the history itself.
type Rungs = SharedVec<Option<SkipDelta>>;

/// The frames an anchor cache holds: full materializations by entry index,
/// each stamped with the tick of its last use. Immutable once shared — an
/// archive and its copies hold the same frames until one of them inserts or
/// evicts, which copies the map — except for the stamps, which a hit from
/// any holder refreshes in place. The occupancy gauges count each set of
/// frames once, from its creation to its last holder's drop.
#[derive(Debug, Default)]
struct Frames {
    map: BTreeMap<usize, (Arc<[u8]>, AtomicU64)>,
    held: usize,
}

impl Frames {
    fn insert(&mut self, idx: usize, bytes: Arc<[u8]>, tick: u64) {
        self.held += bytes.len();
        let m = anchor_metrics();
        m.entries.inc();
        m.bytes.add(bytes.len() as i64);
        if let Some((old, _)) = self.map.insert(idx, (bytes, AtomicU64::new(tick))) {
            self.released(&old);
        }
    }

    /// Evict least-recently-used frames until at most `target` bytes are
    /// held or only the most recently used frame is left.
    fn evict_to(&mut self, target: usize) {
        let mut by_age: Vec<(u64, usize)> = self
            .map
            .iter()
            .map(|(&idx, (_, used))| (used.load(Ordering::Relaxed), idx))
            .collect();
        by_age.sort_unstable();
        by_age.pop(); // the newest frame always stays
        for (_, idx) in by_age {
            if self.held <= target {
                break;
            }
            if let Some((old, _)) = self.map.remove(&idx) {
                self.released(&old);
            }
        }
    }

    /// Account for one frame that just left `map`.
    fn released(&mut self, old: &[u8]) {
        self.held -= old.len();
        let m = anchor_metrics();
        m.entries.dec();
        m.bytes.add(-(old.len() as i64));
    }
}

impl Clone for Frames {
    fn clone(&self) -> Self {
        // The bytes stay shared; the copy is a set of frames of its own.
        let m = anchor_metrics();
        m.entries.add(self.map.len() as i64);
        m.bytes.add(self.held as i64);
        let stamped = |(&idx, (bytes, used)): (&usize, &(Arc<[u8]>, AtomicU64))| {
            let used = AtomicU64::new(used.load(Ordering::Relaxed));
            (idx, (Arc::clone(bytes), used))
        };
        Frames {
            map: self.map.iter().map(stamped).collect(),
            held: self.held,
        }
    }
}

impl Drop for Frames {
    fn drop(&mut self) {
        let m = anchor_metrics();
        m.entries.add(-(self.map.len() as i64));
        m.bytes.add(-(self.held as i64));
    }
}

/// Byte-bounded LRU cache of full materializations keyed by entry index.
/// Cloning one — every commit clones the archive it checks in to — shares
/// the frames instead of copying them; one that never held a frame, as in
/// most archives, owns nothing.
#[derive(Debug, Clone)]
struct AnchorCache {
    frames: Option<Arc<Frames>>,
    tick: u64,
    budget: usize,
}

impl AnchorCache {
    fn new(budget: usize) -> Self {
        AnchorCache {
            frames: None,
            tick: 0,
            budget,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Nearest anchor at or newer than `idx` and no newer than `max`,
    /// touched for LRU purposes. An anchor at `idx` itself is an exact hit.
    fn nearest_from(&mut self, idx: usize, max: usize) -> Option<(usize, Arc<[u8]>)> {
        let tick = self.next_tick();
        let (&key, (bytes, used)) = self.frames.as_ref()?.map.range(idx..=max).next()?;
        // A statistic, under the archive's index lock: no ordering needed.
        used.store(tick, Ordering::Relaxed);
        Some((key, bytes.clone()))
    }

    /// Retain `bytes` as the anchor for `idx`. The frame just inserted
    /// always stays, even when it alone exceeds the budget — it then evicts
    /// everything else, so occupancy is bounded by max(budget, one version)
    /// and a repeated read of any version, however large, is an exact hit.
    fn insert(&mut self, idx: usize, bytes: Arc<[u8]>) {
        let tick = self.next_tick();
        let frames = Arc::make_mut(self.frames.get_or_insert_with(Arc::default));
        frames.insert(idx, bytes, tick);
        if frames.held > self.budget {
            // Evict past the budget down to a low-water mark: the O(n log n)
            // age sort is then paid once per budget/8 bytes of churn rather
            // than once per insert, which matters when a deep checkout
            // inserts dozens of boundary anchors back to back.
            frames.evict_to(self.budget - self.budget / 8);
        }
    }

    fn clear(&mut self) {
        self.frames = None;
    }

    fn held(&self) -> usize {
        self.frames.as_ref().map_or(0, |frames| frames.held)
    }

    #[cfg(test)]
    fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
        if let Some(frames) = &mut self.frames {
            Arc::make_mut(frames).evict_to(budget);
        }
    }
}

/// The derived temporal index of one archive: the persistent skip ladder
/// plus the in-memory anchor cache. Everything here can be rebuilt from the
/// canonical chain; nothing here may change what a checkout returns.
#[derive(Debug, Clone)]
struct ArchiveIndex {
    levels: [Rungs; SKIP_LEVELS],
    anchors: AnchorCache,
}

impl ArchiveIndex {
    fn new(budget: usize) -> Self {
        ArchiveIndex {
            levels: Default::default(),
            anchors: AnchorCache::new(budget),
        }
    }

    fn find_skip(&self, level: usize, start: usize) -> Option<&SkipDelta> {
        self.levels[level].get(start / SKIP_SPANS[level])?.as_ref()
    }

    /// Lay `skip` as the rung rebuilding version index `start`, unless one
    /// is there already.
    fn insert_skip(&mut self, level: usize, start: usize, skip: SkipDelta) {
        let slot = start / SKIP_SPANS[level];
        let rungs = &mut self.levels[level];
        while rungs.len() < slot {
            rungs.push(None);
        }
        if slot == rungs.len() {
            rungs.push(Some(skip));
        } else if rungs.get(slot).is_some_and(Option::is_none) {
            rungs.set(slot, Some(skip));
        }
    }

    fn remove_skip(&mut self, level: usize, start: usize) {
        let slot = start / SKIP_SPANS[level];
        if slot < self.levels[level].len() {
            self.levels[level].set(slot, None);
        }
    }

    /// Every rung of `level` with the version index it rebuilds, in order.
    fn skips(&self, level: usize) -> impl Iterator<Item = (usize, &SkipDelta)> {
        let span = SKIP_SPANS[level];
        self.levels[level]
            .iter()
            .enumerate()
            .filter_map(move |(slot, rung)| Some((slot * span, rung.as_ref()?)))
    }

    fn skip_count(&self) -> usize {
        (0..SKIP_LEVELS)
            .map(|level| self.skips(level).count())
            .sum()
    }
}

/// A versioned byte container storing the head in full and older versions as
/// backward deltas.
#[derive(Debug)]
pub struct Archive {
    /// Current contents, stored whole and shared: readers get a refcount
    /// bump, never a copy. Immutable once published — check-in replaces the
    /// `Arc`, it never mutates through it.
    head: Arc<[u8]>,
    /// Check-in time of the head.
    head_time: u64,
    /// Older versions, most recent last; entry `i`'s `back_delta` applied to
    /// version `i+1` (or to the head for the last entry) yields version `i`.
    /// Shared with every copy of this archive: a commit's copy-on-write of
    /// the node copies no delta.
    entries: SharedVec<BackEntry>,
    /// Skip ladder plus anchor cache. Derived state — see the module docs.
    /// Interior mutability lets `checkout(&self)` warm anchors and backfill
    /// skips; the mutex keeps `Archive: Sync` so whole graphs can sit
    /// behind the server's reader lock.
    index: Mutex<ArchiveIndex>,
}

impl Clone for Archive {
    fn clone(&self) -> Self {
        // Rungs are shared and anchors are Arc'd, so cloning the index is
        // cheap and keeps context forks and the writer's copy warm.
        let index = self.lock_index().clone();
        Archive {
            head: self.head.clone(),
            head_time: self.head_time,
            entries: self.entries.clone(),
            index: Mutex::new(index),
        }
    }
}

impl PartialEq for Archive {
    fn eq(&self, other: &Self) -> bool {
        // Canonical state only: the index is derived and never observable.
        self.head == other.head
            && self.head_time == other.head_time
            && self.entries == other.entries
    }
}

impl Eq for Archive {}

impl Archive {
    /// Create an archive whose first version is `contents` at `time`.
    ///
    /// ```
    /// use neptune_storage::Archive;
    /// let mut a = Archive::new(b"v1".to_vec(), 1);
    /// a.checkin(b"v2".to_vec(), 2).unwrap();
    /// assert_eq!(&a.checkout(1).unwrap()[..], b"v1");
    /// assert_eq!(&a.checkout(0).unwrap()[..], b"v2"); // 0 = current
    /// ```
    pub fn new(contents: impl Into<Arc<[u8]>>, time: u64) -> Self {
        Archive {
            head: contents.into(),
            head_time: time,
            entries: SharedVec::new(),
            index: Mutex::new(ArchiveIndex::new(DEFAULT_ANCHOR_BUDGET)),
        }
    }

    fn lock_index(&self) -> MutexGuard<'_, ArchiveIndex> {
        // A panic while holding the lock leaves only derived state behind;
        // recover it rather than poisoning every future checkout.
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check in a new current version at `time`.
    ///
    /// `time` must exceed the head's time: version history is append-only and
    /// totally ordered, as the HAM's version clock guarantees. Whenever the
    /// entry count crosses a skip-span boundary the matching ladder rung is
    /// built eagerly — amortized O(1) extra delta work per check-in.
    pub fn checkin(&mut self, contents: impl Into<Arc<[u8]>>, time: u64) -> Result<()> {
        if time <= self.head_time {
            return Err(StorageError::NoSuchVersion { time });
        }
        let contents = contents.into();
        let back_delta = Delta::compute(&contents, &self.head);
        let old_head = std::mem::replace(&mut self.head, contents);
        debug_assert_eq!(back_delta.target_len() as usize, old_head.len());
        self.entries.push(BackEntry {
            time: self.head_time,
            back_delta,
        });
        self.head_time = time;
        self.maintain_skips();
        Ok(())
    }

    /// Build any ladder rung that ends at the current entry count. Finest
    /// level first, so coarser builds can descend via the rungs just laid.
    /// Best-effort: a build failure only costs future replay speed.
    fn maintain_skips(&mut self) {
        let n = self.entries.len();
        for (level, &span) in SKIP_SPANS.iter().enumerate() {
            if n < span || !n.is_multiple_of(span) {
                continue;
            }
            let start = n - span;
            if self.lock_index().find_skip(level, start).is_none() {
                // The head is a boundary of this level, so a walk from it
                // lays the missing rung on reaching `start` (see
                // `note_boundary`). Nobody asked to read that version:
                // leave the anchors to the readers.
                let _ = self.descend(start, false);
            }
        }
    }

    /// Contents of the current version.
    pub fn head(&self) -> &[u8] {
        &self.head
    }

    /// Shared handle to the current version's contents — a refcount bump,
    /// never a copy.
    pub fn head_shared(&self) -> Arc<[u8]> {
        self.head.clone()
    }

    /// Check-in time of the current version.
    pub fn head_time(&self) -> u64 {
        self.head_time
    }

    /// Number of stored versions (history plus head).
    pub fn version_count(&self) -> usize {
        self.entries.len() + 1
    }

    /// Times of every version, oldest first.
    pub fn version_times(&self) -> Vec<u64> {
        let mut times: Vec<u64> = self.entries.iter().map(|e| e.time).collect();
        times.push(self.head_time);
        times
    }

    /// The version time in effect *at* logical time `t`: the newest version
    /// whose check-in time is ≤ `t`. Time `0` means "current" throughout the
    /// HAM (paper §A.2). Binary-searches the entries in place — no
    /// allocation on this path, which every checkout crosses.
    pub fn resolve_time(&self, t: u64) -> Result<u64> {
        if t == 0 || t >= self.head_time {
            return Ok(self.head_time);
        }
        self.entry_at(t)
            .map(|idx| self.entry(idx).time)
            .ok_or(StorageError::NoSuchVersion { time: t })
    }

    /// Index of the newest entry checked in at or before `t`.
    fn entry_at(&self, t: u64) -> Option<usize> {
        self.entries.partition_point(|e| e.time <= t).checked_sub(1)
    }

    fn entry(&self, idx: usize) -> &BackEntry {
        self.entries.get(idx).expect("entry index within history")
    }

    /// Contents as of logical time `t` (`0` = current).
    ///
    /// Starts from the nearest anchor at or above the target version (the
    /// head if none is warm) and descends the skip ladder greedily —
    /// coarsest rung first, unit deltas for the remainder — so both cold
    /// and warm checkouts apply O(log n) deltas. The version rebuilt and
    /// every [`KEYFRAME_INTERVAL`]-th version passed are kept as anchors,
    /// so checking the same version out again applies no delta at all, and
    /// missing ladder rungs (e.g. after migrating a v1 store) are
    /// backfilled from the materializations the walk produces anyway.
    pub fn checkout(&self, t: u64) -> Result<Arc<[u8]>> {
        if t == 0 || t >= self.head_time {
            return Ok(self.head.clone());
        }
        let idx = self
            .entry_at(t)
            .ok_or(StorageError::NoSuchVersion { time: t })?;
        self.materialize_idx(idx)
    }

    /// Rebuild the contents of entry index `idx` (`entries.len()` = head).
    fn materialize_idx(&self, idx: usize) -> Result<Arc<[u8]>> {
        let (bytes, depth, used_index, max_level) = self.descend(idx, true)?;
        observe_replay_depth(depth);
        observe_index_usage(used_index, max_level);
        let m = anchor_metrics();
        let outcome = if depth == 0 {
            &m.exact_hits
        } else {
            &m.replays
        };
        outcome.inc();
        Ok(bytes)
    }

    /// The hierarchical descent itself, reporting (contents, deltas
    /// applied, whether any anchor or skip served the walk, coarsest ladder
    /// level used) so callers and tests can observe replay cost. A `warm`
    /// walk is a read: it starts from the nearest anchor and leaves anchors
    /// behind. A walk that is not starts from the head and touches none.
    fn descend(&self, idx: usize, warm: bool) -> Result<(Arc<[u8]>, usize, bool, usize)> {
        let len = self.entries.len();
        debug_assert!(idx <= len);
        if idx == len {
            return Ok((self.head.clone(), 0, false, 0));
        }
        let nearest = if warm {
            self.lock_index().anchors.nearest_from(idx, len)
        } else {
            None
        };
        let (start_bytes, start_pos, from_anchor) = match nearest {
            // Exact anchor hit: zero deltas applied.
            Some((k, bytes)) if k == idx => return Ok((bytes, 0, true, 0)),
            Some((k, bytes)) => (bytes, k, true),
            None => (self.head.clone(), len, false),
        };
        // Per-level source buffers for lazy ladder backfill: the newest
        // materialization this walk produced at a span boundary.
        let mut pending: PendingBoundaries = [None, None, None, None];
        self.note_boundary(&mut pending, start_pos, &start_bytes);
        let mut current: Vec<u8> = start_bytes.to_vec();
        let mut pos = start_pos;
        let mut depth = 0usize;
        let mut max_level = 0usize;
        while pos > idx {
            let mut stepped = 0usize;
            if pos % SKIP_SPANS[0] == 0 {
                let mut ix = self.lock_index();
                for level in (0..SKIP_LEVELS).rev() {
                    let span = SKIP_SPANS[level];
                    if pos % span != 0 || pos < span || pos - span < idx {
                        continue;
                    }
                    let start = pos - span;
                    let Some(skip) = ix.find_skip(level, start) else {
                        continue;
                    };
                    match skip.delta.apply(&current) {
                        Ok(next) if crc32(&next) == skip.crc => {
                            current = next;
                            stepped = span;
                            max_level = max_level.max(level + 1);
                            break;
                        }
                        // A skip that fails to apply or produces the wrong
                        // bytes is corrupt derived data: drop it and let the
                        // descent fall back to finer rungs or unit deltas.
                        _ => ix.remove_skip(level, start),
                    }
                }
            }
            if stepped == 0 {
                current = self.entry(pos - 1).back_delta.apply(&current)?;
                stepped = 1;
            }
            pos -= stepped;
            depth += 1;
            if pos > idx && pos % KEYFRAME_INTERVAL == 0 {
                let shared: Arc<[u8]> = Arc::from(&current[..]);
                self.note_boundary(&mut pending, pos, &shared);
                if warm {
                    self.lock_index().anchors.insert(pos, shared);
                }
            }
        }
        // Keep the version just read, on the grid or not: the next read of
        // it is an exact hit, and the caller shares this allocation.
        let target: Arc<[u8]> = current.into();
        self.note_boundary(&mut pending, idx, &target);
        if warm {
            self.lock_index().anchors.insert(idx, target.clone());
        }
        Ok((target, depth, from_anchor || max_level > 0, max_level))
    }

    /// Record that this walk holds the contents of version index `pos`, and
    /// backfill any missing ladder rung whose source was the previous
    /// boundary one span newer — this is how an index-less store migrated
    /// from the v1 format regrows its ladder from ordinary reads.
    fn note_boundary(&self, pending: &mut PendingBoundaries, pos: usize, bytes: &Arc<[u8]>) {
        for level in 0..SKIP_LEVELS {
            let span = SKIP_SPANS[level];
            if !pos.is_multiple_of(span) {
                continue;
            }
            if let Some((source_pos, source_bytes)) = pending[level].take() {
                if source_pos == pos + span && self.lock_index().find_skip(level, pos).is_none() {
                    let skip = SkipDelta {
                        crc: crc32(bytes),
                        delta: Delta::compute(&source_bytes, bytes),
                    };
                    self.lock_index().insert_skip(level, pos, skip);
                }
            }
            pending[level] = Some((pos, bytes.clone()));
        }
    }

    /// Contents as of logical time `t`, always replaying the full backward
    /// chain from the head and never touching the temporal index. This is
    /// the reference implementation [`Archive::checkout`] must agree with,
    /// and what "cache disabled" means in the scaling benchmarks.
    pub fn checkout_uncached(&self, t: u64) -> Result<Arc<[u8]>> {
        if t == 0 || t >= self.head_time {
            return Ok(self.head.clone());
        }
        let idx = self
            .entry_at(t)
            .ok_or(StorageError::NoSuchVersion { time: t })?;
        let depth = self.entries.len() - idx;
        observe_replay_depth(depth);
        let mut current = self.head.to_vec();
        for entry in self.entries.iter().rev().take(depth) {
            current = entry.back_delta.apply(&current)?;
        }
        Ok(current.into())
    }

    /// How many full chunks of this archive's history are the very same
    /// allocations as `other`'s, out of how many it has. For tests proving
    /// that a commit's copy of a node shares its history with the view.
    #[doc(hidden)]
    pub fn shared_history_chunks(&self, other: &Archive) -> (usize, usize) {
        self.entries.shared_chunks(&other.entries)
    }

    #[cfg(test)]
    fn set_anchor_budget(&self, budget: usize) {
        self.lock_index().anchors.set_budget(budget);
    }

    /// Bytes currently held by this archive's anchor cache.
    pub fn anchor_bytes(&self) -> usize {
        self.lock_index().anchors.held()
    }

    /// Drop every cached anchor, forcing the next checkout to be cold.
    pub fn clear_anchors(&self) {
        self.lock_index().anchors.clear();
    }

    /// Number of skip deltas currently in the ladder, across all levels.
    pub fn skip_count(&self) -> usize {
        self.lock_index().skip_count()
    }

    /// Walk the entire backward-delta chain verifying structural integrity:
    /// version times must be strictly increasing, every delta must apply
    /// cleanly to its successor's contents, and the bytes each delta
    /// produces must have the length the delta itself claims. `checkout`
    /// does none of these length checks, so a corrupted `target_len` is
    /// silent without this. Returns a description of the first problem.
    pub fn verify_chain(&self) -> std::result::Result<(), String> {
        let times = self.version_times();
        if let Some(w) = times.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "version times out of order: {} then {}",
                w[0], w[1]
            ));
        }
        let mut current = self.head.to_vec();
        for entry in self.entries.iter().rev() {
            let rebuilt = entry.back_delta.apply(&current).map_err(|e| {
                format!(
                    "delta for version at time {} fails to apply: {e}",
                    entry.time
                )
            })?;
            if rebuilt.len() as u64 != entry.back_delta.target_len() {
                return Err(format!(
                    "delta for version at time {} produced {} bytes but claims {}",
                    entry.time,
                    rebuilt.len(),
                    entry.back_delta.target_len()
                ));
            }
            current = rebuilt;
        }
        Ok(())
    }

    /// Audit the persisted skip ladder against the canonical delta chain:
    /// every skip must lie inside the live history (the rung grid keeps it
    /// on its level's span by construction), apply cleanly to its true
    /// source version, match its own checksum, and reproduce the exact
    /// bytes the unit chain yields at its target. One head-to-oldest walk;
    /// at most one outstanding buffer per level. Returns a description of
    /// the first problem.
    pub fn verify_index(&self) -> std::result::Result<(), String> {
        let ix = self.lock_index();
        let len = self.entries.len();
        for (level, &span) in SKIP_SPANS.iter().enumerate() {
            if let Some((start, _)) = ix.skips(level).last() {
                if start + span > len {
                    return Err(format!(
                        "level-{} skip at version index {start} is out of range \
                         (history has {len} entries)",
                        level + 1
                    ));
                }
            }
        }
        // (level, target index, bytes the skip produced) — compared when the
        // unit walk reaches the target.
        let mut outstanding: Vec<(usize, usize, Vec<u8>)> = Vec::new();
        let mut current = self.head.to_vec();
        let mut pos = len;
        loop {
            for (level, &span) in SKIP_SPANS.iter().enumerate() {
                if pos < span || !pos.is_multiple_of(span) {
                    continue;
                }
                let start = pos - span;
                if let Some(skip) = ix.find_skip(level, start) {
                    let applied = skip.delta.apply(&current).map_err(|e| {
                        format!(
                            "level-{} skip for version index {start} fails to apply: {e}",
                            level + 1
                        )
                    })?;
                    if crc32(&applied) != skip.crc {
                        return Err(format!(
                            "level-{} skip for version index {start} fails its checksum",
                            level + 1
                        ));
                    }
                    outstanding.push((level, start, applied));
                }
            }
            if let Some(i) = outstanding.iter().position(|(_, start, _)| *start == pos) {
                let (level, start, applied) = outstanding.swap_remove(i);
                if applied != current {
                    return Err(format!(
                        "level-{} skip for version index {start} disagrees with the delta chain",
                        level + 1
                    ));
                }
            }
            if pos == 0 {
                break;
            }
            let entry = self.entry(pos - 1);
            current = entry.back_delta.apply(&current).map_err(|e| {
                format!(
                    "delta for version at time {} fails to apply: {e}",
                    entry.time
                )
            })?;
            pos -= 1;
        }
        Ok(())
    }

    /// Total bytes of stored state: head plus all encoded deltas. This is
    /// the quantity the paper's backward-delta design minimizes relative to
    /// keeping every version in full. The skip ladder is derived state and
    /// intentionally not counted here.
    pub fn storage_bytes(&self) -> u64 {
        self.head.len() as u64
            + self
                .entries
                .iter()
                .map(|e| e.back_delta.storage_size())
                .sum::<u64>()
    }

    /// Encoded size of the skip ladder alone — the storage price of
    /// sublinear cold checkout, reported by the history-depth benchmark.
    pub fn index_bytes(&self) -> u64 {
        let ix = self.lock_index();
        (0..SKIP_LEVELS)
            .flat_map(|level| ix.skips(level))
            .map(|(_, s)| 12 + s.delta.storage_size())
            .sum()
    }

    /// Sum of the lengths of every version in full — what naive full-copy
    /// storage would cost. Used by the E1 storage-efficiency experiment.
    pub fn full_copy_bytes(&self) -> Result<u64> {
        let mut total = self.head.len() as u64;
        let mut current = self.head.to_vec();
        for entry in self.entries.iter().rev() {
            current = entry.back_delta.apply(&current)?;
            total += current.len() as u64;
        }
        Ok(total)
    }

    /// Encode canonical state plus the skip ladder — the v2 archive format
    /// used by snapshots, so a reopened store starts with its temporal index
    /// already built. The ladder travels as one length-prefixed blob that
    /// [`Archive::decode_with_index`] parses defensively: derived data must
    /// never make a store unopenable.
    pub fn encode_with_index(&self, w: &mut Writer) {
        self.encode(w);
        let mut iw = Writer::new();
        let ix = self.lock_index();
        iw.put_u64(SKIP_LEVELS as u64);
        for level in 0..SKIP_LEVELS {
            iw.put_u64(ix.skips(level).count() as u64);
            for (start, s) in ix.skips(level) {
                iw.put_u64(start as u64);
                iw.put_u64(s.crc as u64);
                s.delta.encode(&mut iw);
            }
        }
        drop(ix);
        w.put_bytes(iw.as_slice());
    }

    /// Decode the v2 format written by [`Archive::encode_with_index`]. A
    /// malformed or implausible index blob is discarded wholesale — the
    /// archive opens with an empty ladder and rebuilds it from reads — and
    /// individual skips are still checksum-verified on every application,
    /// so nothing decoded here is trusted to change checkout results.
    pub fn decode_with_index(r: &mut Reader<'_>) -> Result<Self> {
        let archive = Archive::decode(r)?;
        let blob = r.get_bytes()?;
        if let Some(index) = decode_index_blob(blob, archive.entries.len()) {
            *archive.lock_index() = index;
        }
        Ok(archive)
    }
}

/// Parse a skip-ladder blob, returning `None` — an empty ladder — on any
/// structural problem: truncated data, trailing garbage, unknown level
/// layout, off-grid or out-of-range starts, or unsorted entries. The range
/// check is also what bounds the rung grid built from the blob.
fn decode_index_blob(blob: &[u8], len: usize) -> Option<ArchiveIndex> {
    let mut r = Reader::new(blob);
    if r.get_u64().ok()? as usize != SKIP_LEVELS {
        return None;
    }
    let mut index = ArchiveIndex::new(DEFAULT_ANCHOR_BUDGET);
    for (level, &span) in SKIP_SPANS.iter().enumerate() {
        let count = r.get_u64().ok()? as usize;
        let mut prev: Option<usize> = None;
        for _ in 0..count {
            let start = r.get_u64().ok()? as usize;
            let crc = u32::try_from(r.get_u64().ok()?).ok()?;
            let delta = Delta::decode(&mut r).ok()?;
            if !start.is_multiple_of(span) || start.checked_add(span)? > len {
                return None;
            }
            if prev.is_some_and(|p| p >= start) {
                return None;
            }
            prev = Some(start);
            index.insert_skip(level, start, SkipDelta { crc, delta });
        }
    }
    if !r.is_at_end() {
        return None;
    }
    Some(index)
}

impl Encode for Archive {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.head);
        w.put_u64(self.head_time);
        w.put_u64(self.entries.len() as u64);
        for e in self.entries.iter() {
            w.put_u64(e.time);
            e.back_delta.encode(w);
        }
    }
}

impl Decode for Archive {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let head: Arc<[u8]> = r.get_bytes()?.into();
        let head_time = r.get_u64()?;
        let count = r.get_u64()? as usize;
        let mut entries = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let time = r.get_u64()?;
            let back_delta = Delta::decode(r)?;
            entries.push(BackEntry { time, back_delta });
        }
        Ok(Archive {
            head,
            head_time,
            entries: entries.into(),
            index: Mutex::new(ArchiveIndex::new(DEFAULT_ANCHOR_BUDGET)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn version(i: usize) -> Vec<u8> {
        (0..100)
            .map(|line| {
                if line == i % 100 {
                    format!("line {line} edited at version {i}\n")
                } else {
                    format!("line {line}\n")
                }
            })
            .collect::<String>()
            .into_bytes()
    }

    fn build(n: usize) -> Archive {
        let mut a = Archive::new(version(0), 1);
        for i in 1..n {
            a.checkin(version(i), (i + 1) as u64).unwrap();
        }
        a
    }

    /// Round-trip through the v2 wire format, as a reopen would.
    fn reopen(a: &Archive) -> Archive {
        let mut w = Writer::new();
        a.encode_with_index(&mut w);
        Archive::decode_with_index(&mut Reader::new(&w.into_bytes())).unwrap()
    }

    #[test]
    fn every_version_is_recoverable() {
        let a = build(25);
        assert_eq!(a.version_count(), 25);
        for i in 0..25 {
            assert_eq!(
                &a.checkout((i + 1) as u64).unwrap()[..],
                version(i),
                "version {i}"
            );
        }
    }

    #[test]
    fn time_zero_means_current() {
        let a = build(5);
        assert_eq!(&a.checkout(0).unwrap()[..], version(4));
        assert_eq!(a.resolve_time(0).unwrap(), 5);
    }

    #[test]
    fn times_between_versions_resolve_downward() {
        // Versions at times 1 and 10; time 5 sees version-at-1.
        let mut a = Archive::new(b"v1".to_vec(), 1);
        a.checkin(b"v2".to_vec(), 10).unwrap();
        assert_eq!(&a.checkout(5).unwrap()[..], b"v1");
        assert_eq!(&a.checkout(10).unwrap()[..], b"v2");
        assert_eq!(&a.checkout(99).unwrap()[..], b"v2");
        assert_eq!(a.resolve_time(5).unwrap(), 1);
    }

    #[test]
    fn time_before_creation_is_an_error() {
        let mut a = Archive::new(b"v1".to_vec(), 5);
        a.checkin(b"v2".to_vec(), 10).unwrap();
        assert!(matches!(
            a.checkout(3),
            Err(StorageError::NoSuchVersion { time: 3 })
        ));
    }

    #[test]
    fn checkin_requires_monotonic_time() {
        let mut a = Archive::new(b"v1".to_vec(), 5);
        assert!(a.checkin(b"v2".to_vec(), 5).is_err());
        assert!(a.checkin(b"v2".to_vec(), 4).is_err());
        assert!(a.checkin(b"v2".to_vec(), 6).is_ok());
    }

    #[test]
    fn storage_is_much_smaller_than_full_copies() {
        let a = build(100);
        let delta_bytes = a.storage_bytes();
        let full_bytes = a.full_copy_bytes().unwrap();
        assert!(
            delta_bytes * 4 < full_bytes,
            "deltas {delta_bytes} should be far below full copies {full_bytes}"
        );
    }

    #[test]
    fn version_times_sorted() {
        let a = build(10);
        let times = a.version_times();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(times.len(), 10);
    }

    #[test]
    fn codec_roundtrip_preserves_history() {
        let a = build(12);
        let decoded = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(decoded, a);
        for i in 0..12 {
            assert_eq!(&decoded.checkout((i + 1) as u64).unwrap()[..], version(i));
        }
    }

    #[test]
    fn anchors_accelerate_without_changing_results() {
        let a = build(100);
        // Cold pass populates anchors; warm pass must reread identically.
        for i in (0..100).rev() {
            assert_eq!(&a.checkout((i + 1) as u64).unwrap()[..], version(i));
        }
        assert!(
            a.anchor_bytes() > 0,
            "deep replay should have captured anchors"
        );
        for i in 0..100 {
            let t = (i + 1) as u64;
            assert_eq!(a.checkout(t).unwrap(), a.checkout_uncached(t).unwrap());
        }
    }

    #[test]
    fn clones_and_canonical_codec_ignore_the_index() {
        let a = build(40);
        a.checkout(1).unwrap();
        let b = a.clone();
        assert_eq!(a, b, "equality must ignore the derived index");
        let decoded = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(decoded, a);
        assert_eq!(
            decoded.skip_count(),
            0,
            "the ladder must not travel through the canonical format"
        );
        assert_eq!(decoded.anchor_bytes(), 0);
    }

    #[test]
    fn checkin_builds_the_skip_ladder_eagerly() {
        let a = build(257);
        // 256 entries: level-1 rungs at 0,16,..,240 and one level-2 rung.
        assert_eq!(a.skip_count(), 17);
        a.verify_index().unwrap();
    }

    #[test]
    fn skip_ladder_bounds_cold_replay_depth() {
        let a = build(1200);
        assert!(
            a.skip_count() >= 1199 / 16,
            "eager maintenance should have built every level-1 rung"
        );
        // Cold walk to the oldest of 1200 versions: 15 unit steps to the
        // 16-grid, ≤15 level-1 rungs to the 256-grid, ≤4 level-2 rungs to
        // zero — logarithmic, nowhere near the 1199 of linear replay.
        a.clear_anchors();
        let (bytes, depth, used_index, max_level) = a.descend(0, true).unwrap();
        assert_eq!(&bytes[..], version(0));
        assert!(depth <= 40, "cold replay depth {depth} is not logarithmic");
        assert!(used_index);
        assert!(max_level >= 2, "the level-2 rungs should have been used");
        a.clear_anchors();
        assert_eq!(a.checkout(1).unwrap(), a.checkout_uncached(1).unwrap());
        a.verify_index().unwrap();
    }

    #[test]
    fn index_survives_reopen_and_serves_cold_checkouts() {
        let a = build(600);
        let d = reopen(&a);
        assert_eq!(d, a);
        assert_eq!(d.skip_count(), a.skip_count());
        assert!(d.skip_count() >= 599 / 16);
        // Cold process, cold anchors: contents must still be exact.
        for i in [0usize, 1, 17, 255, 256, 300, 599] {
            assert_eq!(&d.checkout((i + 1) as u64).unwrap()[..], version(i));
        }
        d.verify_index().unwrap();
    }

    #[test]
    fn corrupt_skip_is_detected_and_replay_falls_back() {
        let a = build(300);
        a.clear_anchors();
        // Sabotage the level-2 rung (spans entries 0..256).
        {
            let mut ix = a.lock_index();
            let mut rung = ix.find_skip(1, 0).cloned().unwrap();
            rung.crc ^= 0xDEAD_BEEF;
            ix.levels[1].set(0, Some(rung));
        }
        assert!(
            a.verify_index().unwrap_err().contains("checksum"),
            "the audit must flag the tampered rung"
        );
        // Checkout must still return exact bytes: the corrupt rung is
        // dropped mid-descent, the walk falls back to finer steps, and the
        // boundary backfill lays a fresh, correct rung in its place.
        let before = a.skip_count();
        assert_eq!(&a.checkout(1).unwrap()[..], version(0));
        assert_eq!(
            a.skip_count(),
            before,
            "rung should be dropped then rebuilt"
        );
        a.verify_index().unwrap();
    }

    #[test]
    fn garbage_index_blob_is_discarded_not_fatal() {
        let a = build(80);
        let mut w = Writer::new();
        a.encode(&mut w);
        w.put_bytes(b"this is not a skip ladder");
        let d = Archive::decode_with_index(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(d, a, "canonical state must survive a garbage index");
        assert_eq!(d.skip_count(), 0);
        assert_eq!(&d.checkout(1).unwrap()[..], version(0));
        // Out-of-range rung claims are rejected wholesale too.
        let mut w = Writer::new();
        a.encode(&mut w);
        let mut iw = Writer::new();
        iw.put_u64(SKIP_LEVELS as u64);
        iw.put_u64(1); // one level-1 skip...
        iw.put_u64(9999 * 16); // ...far past the 79 real entries
        iw.put_u64(0);
        Delta::compute(b"a", b"b").encode(&mut iw);
        for _ in 1..SKIP_LEVELS {
            iw.put_u64(0);
        }
        w.put_bytes(iw.as_slice());
        let d = Archive::decode_with_index(&mut Reader::new(&w.into_bytes())).unwrap();
        assert_eq!(d.skip_count(), 0);
        assert_eq!(d, a);
    }

    #[test]
    fn lazy_backfill_regrows_ladder_from_reads() {
        // A canonical-only decode (a migrated v1 store) has no ladder; a
        // deep cold read rebuilds the rungs it walks past.
        let a = build(200);
        let d = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(d.skip_count(), 0);
        assert_eq!(&d.checkout(1).unwrap()[..], version(0));
        assert!(
            d.skip_count() >= 199 / 16,
            "a full walk should backfill every level-1 rung it crossed"
        );
        d.verify_index().unwrap();
        assert_eq!(d.checkout(1).unwrap(), d.checkout_uncached(1).unwrap());
    }

    #[test]
    fn anchor_cache_is_byte_bounded_with_lru_eviction() {
        let a = build(400);
        let budget = 4 * 1024;
        a.set_anchor_budget(budget);
        for i in (0..400).step_by(7) {
            a.checkout((i + 1) as u64).unwrap();
            assert!(
                a.anchor_bytes() <= budget,
                "anchor cache exceeded its budget at probe {i}"
            );
        }
        assert!(a.anchor_bytes() > 0, "some anchors should fit the budget");
        // Shrinking the budget evicts down to the new bound immediately.
        a.set_anchor_budget(1024);
        assert!(a.anchor_bytes() <= 1024);
    }

    #[test]
    fn repeated_checkout_is_an_exact_hit_below_and_above_the_budget() {
        // Version 37 is off every span grid: only target retention can make
        // its second read free.
        for budget in [DEFAULT_ANCHOR_BUDGET, 16] {
            let a = build(100);
            a.set_anchor_budget(budget);
            let one_version = version(37).len();
            let (first, depth, ..) = a.descend(37, true).unwrap();
            assert_eq!(&first[..], version(37));
            assert!(depth > 0, "the first read replays");
            let (again, depth, used_index, _) = a.descend(37, true).unwrap();
            assert_eq!(depth, 0, "budget {budget}: second read must apply no delta");
            assert!(used_index);
            assert!(Arc::ptr_eq(&first, &again), "a hit is a refcount bump");
            assert!(a.anchor_bytes() <= budget.max(one_version));
            // Other reads in between stay inside the bound too, and an
            // oversized version displaces everything but itself.
            for i in (0..100).step_by(9) {
                a.checkout((i + 1) as u64).unwrap();
                assert!(
                    a.anchor_bytes() <= budget.max(version(i).len()),
                    "budget {budget}: {} bytes held after reading version {i}",
                    a.anchor_bytes()
                );
            }
        }
    }

    #[test]
    fn anchor_stats_count_exact_hits_apart_from_replays() {
        // Process-wide counters: other tests move them too, so only lower
        // bounds on this test's own contribution are sound.
        let a = build(40);
        let before = anchor_stats();
        a.checkout(6).unwrap();
        let mid = anchor_stats();
        assert!(mid.misses > before.misses, "the first read replays deltas");
        a.checkout(6).unwrap();
        assert!(anchor_stats().hits > mid.hits, "the second is an exact hit");
    }

    #[test]
    fn property_cached_checkout_matches_uncached_replay() {
        use crate::testutil::XorShift;
        for seed in 1..=8u64 {
            let mut rng = XorShift::new(seed);
            let initial_len = 64 + rng.index(256);
            let mut contents = rng.bytes(initial_len);
            let mut a = Archive::new(contents.clone(), 1);
            // Small budgets keep eviction hot in the property runs.
            a.set_anchor_budget([usize::MAX, 8 * 1024, 64 * 1024][rng.index(3)]);
            let mut clock = 1u64;
            let mut live: Vec<u64> = vec![1];
            // The state at the last "commit": what an abort goes back to,
            // the way the HAM drops its working copy for the published one.
            let mut committed = (a.clone(), contents.clone(), clock, live.clone());
            for step in 0..rng.index(60) + 20 {
                if rng.chance(1, 10) {
                    committed = (a.clone(), contents.clone(), clock, live.clone());
                } else if rng.chance(1, 9) {
                    // Abort. The check-ins that follow reuse the discarded
                    // times and entry indices with different contents, so
                    // an anchor or rung the working copy built past the
                    // commit must not reach the restored copy.
                    (a, contents, clock, live) = committed.clone();
                } else {
                    // Random splice edit, then check in.
                    let at = rng.index(contents.len().max(1));
                    let del = rng.index(contents.len() - at + 1);
                    let ins_len = rng.index(64);
                    let ins = rng.bytes(ins_len);
                    contents.splice(at..at + del, ins);
                    clock += 1 + rng.below(3);
                    a.checkin(contents.clone(), clock).unwrap();
                    live.push(clock);
                }
                if step % 13 == 7 {
                    // Reopen from disk mid-history: the persisted ladder
                    // must keep agreeing with the chain it rode in with.
                    let d = reopen(&a);
                    assert_eq!(d, a, "seed {seed} reopen at step {step}");
                    a = d;
                }
                // Probe a few random historical times each step.
                for _ in 0..3 {
                    let t = live[rng.index(live.len())];
                    assert_eq!(
                        a.checkout(t).unwrap(),
                        a.checkout_uncached(t).unwrap(),
                        "seed {seed} time {t}"
                    );
                }
            }
            a.verify_chain().unwrap();
            a.verify_index().unwrap();
        }
    }

    #[test]
    fn empty_contents_are_fine() {
        let mut a = Archive::new(Vec::new(), 1);
        a.checkin(b"now nonempty\n".to_vec(), 2).unwrap();
        a.checkin(Vec::new(), 3).unwrap();
        assert_eq!(&a.checkout(1).unwrap()[..], b"");
        assert_eq!(&a.checkout(2).unwrap()[..], b"now nonempty\n");
        assert_eq!(&a.checkout(3).unwrap()[..], b"");
    }
}
