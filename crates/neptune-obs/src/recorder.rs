//! The flight recorder: always-on, tail-based trace capture.
//!
//! Two fixed-size ring buffers hold completed [`TraceRecord`]s:
//!
//! * **recent** — the last [`RECENT_CAPACITY`] traces regardless of
//!   outcome; fast traces age out as new ones complete.
//! * **notable** — traces that ended in error or exceeded the slow-op
//!   threshold (the same runtime-adjustable knob as the slow-op log,
//!   `NEPTUNE_SLOW_OP_MS` / `ObsControl`), up to [`NOTABLE_CAPACITY`].
//!
//! This is *tail-based* sampling: the keep/drop decision happens at trace
//! completion when latency and outcome are known, so the interesting tail
//! is always retained while the steady state costs one mutex push per
//! completed trace (not per span). Traces are shared as `Arc`s; a dump is
//! a snapshot, never a drain.
//!
//! [`install_panic_hook`] chains onto the existing panic hook and writes a
//! JSON dump to the path named by `NEPTUNE_TRACE_DUMP` (if set) so CI can
//! upload the recorder's contents as a failure artifact.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError};

use crate::metrics::{registry, Counter, Histogram};
use crate::trace::slow_threshold_ns;
use crate::trace_tree::{render_trace_json, SpanRecord, TraceRecord};

/// How many most-recent traces are retained regardless of outcome.
pub const RECENT_CAPACITY: usize = 32;

/// How many slow/error traces are retained (oldest evicted first).
pub const NOTABLE_CAPACITY: usize = 128;

/// The process-global tail-sampling ring buffers; see the module docs.
pub struct FlightRecorder {
    recent: Mutex<VecDeque<Arc<TraceRecord>>>,
    notable: Mutex<VecDeque<Arc<TraceRecord>>>,
    seq: AtomicU64,
}

struct RecorderMetrics {
    recorded: Arc<Counter>,
    notable: Arc<Counter>,
    spans: Arc<Counter>,
    trace_ns: Arc<Histogram>,
}

fn metrics() -> &'static RecorderMetrics {
    static METRICS: OnceLock<RecorderMetrics> = OnceLock::new();
    METRICS.get_or_init(|| RecorderMetrics {
        recorded: registry().counter("neptune_obs_traces_recorded_total"),
        notable: registry().counter("neptune_obs_traces_notable_total"),
        spans: registry().counter("neptune_obs_trace_spans_total"),
        trace_ns: registry().histogram("neptune_obs_trace_ns"),
    })
}

/// The process-global flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(FlightRecorder::new)
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        FlightRecorder {
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAPACITY)),
            notable: Mutex::new(VecDeque::with_capacity(NOTABLE_CAPACITY)),
            seq: AtomicU64::new(1),
        }
    }

    /// Record a completed trace (called by the trace assembly layer).
    ///
    /// Once the recent ring is full, each new trace evicts the oldest. When
    /// the recorder holds the only reference to the evicted record (it is
    /// not also retained as notable, nor held by a dump in progress), the
    /// new trace moves into that record's allocation instead of a fresh
    /// `Arc`, and the evicted record's span buffer is returned, emptied,
    /// for the caller to assemble its next trace in.
    pub(crate) fn record(&self, mut t: TraceRecord) -> Option<Vec<SpanRecord>> {
        t.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let m = metrics();
        m.recorded.inc();
        m.spans.add(t.spans.len() as u64);
        m.trace_ns.observe(t.total_ns);
        let threshold = slow_threshold_ns();
        let is_notable = t.error || (threshold != u64::MAX && t.total_ns >= threshold);
        let (t, evicted) = {
            let mut recent = self.recent.lock().unwrap_or_else(PoisonError::into_inner);
            let oldest = if recent.len() >= RECENT_CAPACITY {
                recent.pop_front()
            } else {
                None
            };
            let (t, evicted) = reuse(oldest, t);
            recent.push_back(t.clone());
            (t, evicted)
        };
        if is_notable {
            m.notable.inc();
            let mut notable = self.notable.lock().unwrap_or_else(PoisonError::into_inner);
            if notable.len() >= NOTABLE_CAPACITY {
                notable.pop_front();
            }
            notable.push_back(t);
        }
        evicted.map(|record| {
            let mut spans = record.spans;
            spans.clear();
            spans
        })
    }

    /// Snapshot every retained trace (recent ∪ notable, deduplicated),
    /// oldest first by completion sequence.
    pub fn dump(&self) -> Vec<Arc<TraceRecord>> {
        let mut out: Vec<Arc<TraceRecord>> = self
            .notable
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect();
        {
            let recent = self.recent.lock().unwrap_or_else(PoisonError::into_inner);
            for t in recent.iter() {
                if !out.iter().any(|o| o.seq == t.seq) {
                    out.push(t.clone());
                }
            }
        }
        out.sort_by_key(|t| t.seq);
        out
    }

    /// Look up a retained trace by id (`None` once it has aged out of both
    /// rings).
    pub fn find(&self, trace_id: u64) -> Option<Arc<TraceRecord>> {
        let from_notable = self
            .notable
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned();
        from_notable.or_else(|| {
            self.recent
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .rev()
                .find(|t| t.trace_id == trace_id)
                .cloned()
        })
    }

    /// Drop every retained trace (test/bench hook).
    pub fn clear(&self) {
        self.recent
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.notable
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// `(recent, notable)` occupancy, for status surfaces.
    pub fn len(&self) -> (usize, usize) {
        (
            self.recent
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            self.notable
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        )
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }
}

/// Wrap `t` for the ring, in `oldest`'s allocation when nothing else holds
/// it; returns the wrapped trace and the record it displaced, if any.
fn reuse(
    oldest: Option<Arc<TraceRecord>>,
    t: TraceRecord,
) -> (Arc<TraceRecord>, Option<TraceRecord>) {
    if let Some(mut slot) = oldest {
        if let Some(record) = Arc::get_mut(&mut slot) {
            let evicted = std::mem::replace(record, t);
            return (slot, Some(evicted));
        }
    }
    (Arc::new(t), None)
}

/// Serialize the recorder's full contents as one JSON array (the CI dump
/// artifact format; also what `trace --json` prints without an id).
pub fn dump_json() -> String {
    let traces = recorder().dump();
    let mut out = String::from("[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_trace_json(t));
    }
    out.push(']');
    out
}

/// Write the recorder's contents as JSON to the path named by the
/// `NEPTUNE_TRACE_DUMP` environment variable. Returns the path written, or
/// `None` when the variable is unset/empty or the write failed.
pub fn write_env_dump() -> Option<std::path::PathBuf> {
    let path = std::env::var("NEPTUNE_TRACE_DUMP")
        .ok()
        .filter(|p| !p.is_empty())?;
    let path = std::path::PathBuf::from(path);
    match std::fs::write(&path, dump_json()) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

/// Install (once) a panic hook that chains the previous hook and then
/// dumps the flight recorder to `NEPTUNE_TRACE_DUMP` (when set), so a
/// crashing server or a failing fault-injection test leaves its last
/// traces behind as an artifact. Quiet when the variable is unset: tests
/// that *expect* panics (e.g. lockcheck) see no extra output or files.
pub fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if let Some(path) = write_env_dump() {
                eprintln!(
                    "[flight-recorder] dumped {} trace(s) to {}",
                    recorder().dump().len(),
                    path.display()
                );
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(trace_id: u64, total_ns: u64, error: bool) -> TraceRecord {
        TraceRecord {
            trace_id,
            root_name: "test.rec".into(),
            root_detail: String::new().into(),
            total_ns,
            error,
            dropped_spans: 0,
            seq: 0,
            spans: vec![SpanRecord {
                span_id: trace_id,
                parent: None,
                name: "test.rec".into(),
                detail: String::new().into(),
                start_ns: 0,
                duration_ns: total_ns,
            }],
        }
    }

    #[test]
    fn error_traces_survive_recent_churn() {
        // A private instance: churning the *global* recent ring here would
        // race with the trace_tree tests' record-then-find pattern.
        let r = FlightRecorder::new();
        let err_id = 0x10;
        r.record(mk(err_id, 100, true));
        for i in 0..(RECENT_CAPACITY as u64 + 8) {
            r.record(mk(0x1000 + i, 50, false));
        }
        let found = r.find(err_id).expect("error trace retained as notable");
        assert!(found.error);
        // Early fast traces have aged out of the recent ring.
        assert!(r.find(0x1000).is_none() || RECENT_CAPACITY > 8);
        let dump = r.dump();
        assert!(dump.iter().any(|t| t.trace_id == err_id));
        // Dump is deduplicated and ordered by seq.
        for w in dump.windows(2) {
            if let [a, b] = w {
                assert!(a.seq < b.seq);
            }
        }
    }

    #[test]
    fn eviction_recycles_only_records_nothing_else_holds() {
        let r = FlightRecorder::new();
        r.record(mk(0x30, 100, true)); // an error: the notable ring holds it too
        for i in 1..RECENT_CAPACITY as u64 {
            assert!(
                r.record(mk(0x30 + i, 50, false)).is_none(),
                "ring not full yet"
            );
        }
        // Evicting the error trace from the recent ring leaves it notable.
        assert!(r.record(mk(0x100, 50, false)).is_none());
        assert_eq!(r.find(0x30).map(|t| t.error), Some(true));
        // A trace a dump still holds is not reused either.
        let held = r.dump();
        assert!(r.record(mk(0x101, 50, false)).is_none());
        assert!(held.iter().any(|t| t.trace_id == 0x31));
        drop(held);
        // A fast trace nothing else holds: its span buffer comes back empty.
        let spans = r
            .record(mk(0x102, 50, false))
            .expect("evicted record recycled");
        assert!(spans.is_empty() && spans.capacity() >= 1);
        assert_eq!(r.find(0x102).map(|t| t.trace_id), Some(0x102));
        assert!(r.find(0x32).is_none());
    }

    #[test]
    fn dump_json_is_parseable_shape() {
        let r = recorder();
        r.record(mk(0x20, 42, false));
        let json = dump_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"total_ns\":42"));
    }
}
