//! Structured tracing spans.
//!
//! A span is a timed scope with a static name of the form
//! `layer.operation` (e.g. `ham.open_node`, `storage.wal_fsync`). On drop
//! it records its duration into the histogram
//! `neptune_<layer>_op_ns{op="operation"}`, notifies the installed
//! [`Subscriber`] (if any), and writes a line to stderr when the duration
//! exceeds the slow-op threshold (`NEPTUNE_SLOW_OP_MS`).
//!
//! The [`span!`] macro is the entry point; it caches the histogram handle
//! in a per-callsite static so steady-state cost is a relaxed-load guard
//! plus one `Instant::now` pair and a few relaxed atomic adds. The detail
//! string is only formatted when a subscriber is installed or the slow-op
//! log is armed.

use crate::metrics::{enabled, labeled, registry, Histogram};
use std::borrow::Cow;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// What a [`Subscriber`] sees when a span closes.
#[derive(Debug)]
pub struct SpanEvent<'a> {
    /// The static span name (`layer.operation`).
    pub name: &'static str,
    /// The formatted detail string, empty when the span carried none.
    pub detail: &'a str,
    /// How long the span was open.
    pub duration: Duration,
    /// The trace this span belonged to, when one was active on the
    /// emitting thread (see [`crate::trace_tree`]).
    pub trace_id: Option<u64>,
}

/// Receives closed-span events. Implementations must be cheap or buffer
/// internally; they are called inline on the instrumented thread.
pub trait Subscriber: Send + Sync {
    /// Called once per closed span.
    fn on_span(&self, event: &SpanEvent<'_>);
}

static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);
static HAS_SUBSCRIBER: AtomicBool = AtomicBool::new(false);

/// Install (or with `None`, remove) the global subscriber.
pub fn set_subscriber(sub: Option<Arc<dyn Subscriber>>) {
    HAS_SUBSCRIBER.store(sub.is_some(), Ordering::Relaxed);
    *SUBSCRIBER.write().unwrap_or_else(PoisonError::into_inner) = sub;
}

/// A subscriber that writes one human-readable line per span to a
/// `Write` sink (a file, or stderr).
pub struct LogSubscriber {
    out: Mutex<Box<dyn Write + Send>>,
}

impl LogSubscriber {
    /// Log to stderr.
    pub fn stderr() -> LogSubscriber {
        LogSubscriber {
            out: Mutex::new(Box::new(std::io::stderr())),
        }
    }

    /// Log to (appending) the file at `path`.
    pub fn to_file(path: &Path) -> std::io::Result<LogSubscriber> {
        let f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(LogSubscriber {
            out: Mutex::new(Box::new(f)),
        })
    }
}

impl Subscriber for LogSubscriber {
    fn on_span(&self, event: &SpanEvent<'_>) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let trace = match event.trace_id {
            Some(id) => format!(" t{id:016x}"),
            None => String::new(),
        };
        if event.detail.is_empty() {
            let _ = writeln!(out, "[span]{trace} {} {:?}", event.name, event.duration);
        } else {
            let _ = writeln!(
                out,
                "[span]{trace} {} {:?} {}",
                event.name, event.duration, event.detail
            );
        }
    }
}

/// Slow-op threshold in nanoseconds; `u64::MAX` means off. Initialized
/// once from `NEPTUNE_SLOW_OP_MS`.
static SLOW_NS: AtomicU64 = AtomicU64::new(u64::MAX);
static SLOW_INIT: OnceLock<()> = OnceLock::new();

fn slow_ns() -> u64 {
    SLOW_INIT.get_or_init(|| {
        if let Ok(ms) = std::env::var("NEPTUNE_SLOW_OP_MS") {
            if let Ok(ms) = ms.trim().parse::<u64>() {
                SLOW_NS.store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
            }
        }
    });
    SLOW_NS.load(Ordering::Relaxed)
}

/// Override the slow-op threshold at runtime (`None` disables it). Wins
/// over `NEPTUNE_SLOW_OP_MS`; primarily a test hook.
pub fn set_slow_op_threshold(threshold: Option<Duration>) {
    SLOW_INIT.get_or_init(|| ());
    let ns = threshold.map_or(u64::MAX, |d| d.as_nanos().min(u64::MAX as u128) as u64);
    SLOW_NS.store(ns, Ordering::Relaxed);
}

/// The current slow-op threshold in nanoseconds (`u64::MAX` when off);
/// shared with the flight recorder's tail-sampling retention decision.
pub(crate) fn slow_threshold_ns() -> u64 {
    slow_ns()
}

/// Whether span detail strings would be consumed by anyone right now.
#[inline]
pub fn detail_wanted() -> bool {
    HAS_SUBSCRIBER.load(Ordering::Relaxed) || slow_ns() != u64::MAX
}

/// Deliver a finished-span event: subscriber notification plus the
/// slow-op log. Called by [`Span`] on drop; also usable directly for
/// hand-rolled timing sites.
pub fn emit(name: &'static str, detail: &str, duration: Duration) {
    if HAS_SUBSCRIBER.load(Ordering::Relaxed) {
        let sub = SUBSCRIBER
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(sub) = sub {
            sub.on_span(&SpanEvent {
                name,
                detail,
                duration,
                trace_id: crate::trace_tree::current_trace_id(),
            });
        }
    }
    let threshold = slow_ns();
    if threshold != u64::MAX && duration.as_nanos() as u64 >= threshold {
        if detail.is_empty() {
            eprintln!("[slow-op] {name} took {duration:?}");
        } else {
            eprintln!("[slow-op] {name} took {duration:?} ({detail})");
        }
    }
}

/// The histogram key for a span name: `layer.operation` →
/// `neptune_<layer>_op_ns{op="operation"}`. Names without a dot fall back
/// to `neptune_obs_span_ns{op="<name>"}`.
pub fn histogram_key(name: &str) -> String {
    match name.split_once('.') {
        Some((layer, op)) => labeled(&format!("neptune_{layer}_op_ns"), "op", op),
        None => labeled("neptune_obs_span_ns", "op", name),
    }
}

/// An open span; created by the [`span!`] macro via [`Span::enter`].
/// Records on drop. Inert (no timing, no recording) when the registry is
/// disabled.
#[must_use = "a span records when dropped; binding it to _ drops it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    // Borrowed from the callsite's `static OnceLock` rather than cloned:
    // the Arc in the static lives forever, and skipping the clone saves
    // two atomic ref-count updates per span on hot paths.
    hist: &'static Histogram,
    detail: Option<Cow<'static, str>>,
    start: Instant,
    // Present when a trace is active on this thread: the span's slot in
    // the causal tree (see `trace_tree`).
    trace: Option<crate::trace_tree::SpanHandle>,
}

impl Span {
    /// Open a span. `cell` is the callsite's cached histogram handle (the
    /// macro supplies a `static OnceLock`); `detail` is formatted only if
    /// a subscriber or the slow-op log would consume it.
    pub fn enter(
        name: &'static str,
        cell: &'static OnceLock<Arc<Histogram>>,
        detail: fmt::Arguments<'_>,
    ) -> Span {
        if !enabled() {
            return Span { inner: None };
        }
        let hist: &'static Histogram =
            cell.get_or_init(|| registry().histogram(&histogram_key(name)));
        let trace = crate::trace_tree::enter_traced_span();
        // Trace records keep the detail too, so an active trace forces the
        // formatting that a subscriber or the slow-op log otherwise would.
        // A detail without arguments is a static string and is kept by
        // reference.
        let detail = if trace.is_some() || detail_wanted() {
            Some(match detail.as_str() {
                Some(s) => Cow::Borrowed(s),
                None => Cow::Owned(detail.to_string()),
            })
        } else {
            None
        };
        Span {
            inner: Some(SpanInner {
                name,
                hist,
                detail,
                start: Instant::now(),
                trace,
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur = inner.start.elapsed();
            inner.hist.observe_duration(dur);
            if detail_wanted() {
                emit(inner.name, inner.detail.as_deref().unwrap_or(""), dur);
            }
            if let Some(handle) = inner.trace {
                // Moves the formatted detail into the trace record rather
                // than re-allocating it — this is the per-span hot path.
                crate::trace_tree::exit_traced_span(
                    handle,
                    inner.name,
                    inner.detail.unwrap_or_default(),
                    dur,
                );
            }
        }
    }
}

/// Time the enclosing scope as a span.
///
/// ```
/// # use neptune_obs::span;
/// # let (ctx, node) = (1u32, 2u32);
/// let _span = span!("ham.open_node", "ctx{} node{}", ctx, node);
/// // ... work ...
/// ```
///
/// The first argument must be a `"layer.operation"` string literal; the
/// optional rest is a `format!`-style detail message, only rendered when a
/// subscriber is installed or the slow-op log is armed. Bind the result to
/// a named `_span` variable — binding to `_` drops (and records)
/// immediately.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span!($name, "")
    };
    ($name:literal, $($detail:tt)*) => {{
        static __NEPTUNE_OBS_HIST: ::std::sync::OnceLock<
            ::std::sync::Arc<$crate::Histogram>,
        > = ::std::sync::OnceLock::new();
        $crate::Span::enter($name, &__NEPTUNE_OBS_HIST, ::std::format_args!($($detail)*))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn histogram_key_scheme() {
        assert_eq!(
            histogram_key("ham.open_node"),
            "neptune_ham_op_ns{op=\"open_node\"}"
        );
        assert_eq!(
            histogram_key("storage.wal_fsync"),
            "neptune_storage_op_ns{op=\"wal_fsync\"}"
        );
        assert_eq!(
            histogram_key("oddball"),
            "neptune_obs_span_ns{op=\"oddball\"}"
        );
    }

    #[test]
    fn span_records_into_global_registry() {
        registry().set_enabled(true);
        let key = histogram_key("testlayer.op_a");
        let before = registry().histogram(&key).count();
        {
            let _span = span!("testlayer.op_a");
        }
        {
            let _span = span!("testlayer.op_a", "detail {}", 42);
        }
        assert_eq!(registry().histogram(&key).count(), before + 2);
    }

    struct CountingSub(AtomicUsize, Mutex<String>);
    impl Subscriber for CountingSub {
        fn on_span(&self, event: &SpanEvent<'_>) {
            // Tests share the global subscriber slot; only count our span
            // so concurrently-running tests can't skew the assertion.
            if event.name == "testlayer.op_b" {
                self.0.fetch_add(1, Ordering::Relaxed);
                *self.1.lock().unwrap() = format!("{} {}", event.name, event.detail);
            }
        }
    }

    #[test]
    fn subscriber_sees_name_and_detail() {
        registry().set_enabled(true);
        let sub = Arc::new(CountingSub(AtomicUsize::new(0), Mutex::new(String::new())));
        set_subscriber(Some(sub.clone()));
        {
            let _span = span!("testlayer.op_b", "node {}", 7);
        }
        set_subscriber(None);
        assert_eq!(sub.0.load(Ordering::Relaxed), 1);
        assert_eq!(&*sub.1.lock().unwrap(), "testlayer.op_b node 7");
    }
}
