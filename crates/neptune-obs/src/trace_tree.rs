//! Request-scoped causal trace trees.
//!
//! A *trace* is the full causal story of one request: a tree of spans
//! rooted at the operation that originated it (a shell command, a client
//! RPC, or a server-side request when the client sent no context). Every
//! [`crate::span!`] callsite automatically becomes a child of the active
//! span via a thread-local span stack, so existing instrumentation in the
//! HAM and storage layers parents correctly with no changes at the
//! callsites.
//!
//! ## Identity and context
//!
//! Trace and span ids are 64-bit integers from one process-wide counter
//! seeded from the wall clock at startup (rendered as `t%016x` / `%x`), so
//! ids are unique within a process and collide across processes only with
//! negligible probability. [`TraceContext`] is the propagation unit: the
//! trace id plus the caller's active span id. It crosses the wire as an
//! optional request prefix (see `neptune-server`'s proto layer); absence
//! means "the server originates the trace".
//!
//! ## Cross-thread assembly
//!
//! Spans are buffered per-thread (no locks on the span hot path) and
//! flushed into a sharded pending-trace table when the thread's outermost
//! span for that trace closes. The participant that *created* the pending
//! entry finalizes the trace — merging every thread's segment into one
//! [`TraceRecord`] — and hands it to the flight recorder
//! ([`crate::recorder`]). When a server joins a client-originated trace in
//! the same process (the integration-test topology), the server's segment
//! is flushed before the response frame is written, so the client's
//! finalize always sees it.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::metrics::enabled;

/// Hard cap on spans retained per trace; a runaway loop inside one request
/// must not grow an unbounded buffer. Excess spans are counted in
/// [`TraceRecord::dropped_spans`] instead of stored.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// The propagation unit for request-scoped tracing: which trace this is,
/// and which span the next child should hang under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this context belongs to.
    pub trace_id: u64,
    /// The currently active span (children parent under this).
    pub span_id: u64,
    /// The active span's own parent, if any.
    pub parent: Option<u64>,
}

/// One closed span (or zero-duration annotation) inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub span_id: u64,
    /// Parent span id; `None` for a trace root. A parent id not present in
    /// the record (a wire parent from another process) also renders as a
    /// root.
    pub parent: Option<u64>,
    /// Span name (`layer.operation`), or `"note"` for annotations.
    /// Borrowed for every span recorded in this process; owned only when
    /// decoded off the wire.
    pub name: Cow<'static, str>,
    /// Formatted detail message (may be empty); borrowed when the detail
    /// is a static string, such as a request's op name.
    pub detail: Cow<'static, str>,
    /// Offset of span open relative to the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// How long the span was open (0 for annotations).
    pub duration_ns: u64,
}

/// A completed trace: the merged span tree plus summary fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace id.
    pub trace_id: u64,
    /// Name of the root span (e.g. `server.rpc`, `shell.command`).
    pub root_name: Cow<'static, str>,
    /// Detail of the root span (e.g. the RPC op name).
    pub root_detail: Cow<'static, str>,
    /// Wall-clock duration of the root span in nanoseconds.
    pub total_ns: u64,
    /// Whether any participant tagged the trace as failed.
    pub error: bool,
    /// Spans discarded because the trace exceeded [`MAX_SPANS_PER_TRACE`].
    pub dropped_spans: u64,
    /// Completion sequence number, assigned by the flight recorder.
    pub seq: u64,
    /// Every retained span, in close order (sort by `start_ns` to walk).
    pub spans: Vec<SpanRecord>,
}

// ---------------------------------------------------------------------------
// Id generation
// ---------------------------------------------------------------------------

static NEXT_ID: OnceLock<AtomicU64> = OnceLock::new();

fn next_id() -> u64 {
    let counter = NEXT_ID.get_or_init(|| {
        // Seed from the wall clock so two processes tracing one request
        // allocate from far-apart ranges; uniqueness only has to hold well
        // enough for parent references to be unambiguous.
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        AtomicU64::new(nanos | 1)
    });
    counter.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Pending-trace table (cross-thread segment merge)
// ---------------------------------------------------------------------------

struct Pending {
    base: Instant,
    spans: Vec<SpanRecord>,
    error: bool,
    dropped: u64,
}

impl Pending {
    /// A pending entry whose span buffer is this thread's spare (see
    /// [`Spare`]): the thread that creates an entry also finalizes it, and
    /// finalizing hands a buffer back.
    fn new(base: Instant) -> Pending {
        Pending {
            base,
            spans: with_spare(|s| std::mem::take(&mut s.spans)).unwrap_or_default(),
            error: false,
            dropped: 0,
        }
    }

    fn absorb(&mut self, spans: impl IntoIterator<Item = SpanRecord>, error: bool, dropped: u64) {
        for s in spans {
            if self.spans.len() < MAX_SPANS_PER_TRACE {
                self.spans.push(s);
            } else {
                self.dropped += 1;
            }
        }
        self.error |= error;
        self.dropped += dropped;
    }
}

const PENDING_SHARDS: usize = 16;

fn pending_shard(trace_id: u64) -> &'static Mutex<HashMap<u64, Pending>> {
    static SHARDS: OnceLock<Vec<Mutex<HashMap<u64, Pending>>>> = OnceLock::new();
    let shards = SHARDS.get_or_init(|| {
        (0..PENDING_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect()
    });
    let idx = (trace_id as usize) % PENDING_SHARDS;
    shards.get(idx).unwrap_or_else(|| &shards[0])
}

// ---------------------------------------------------------------------------
// Thread-local active trace
// ---------------------------------------------------------------------------

struct ThreadTrace {
    trace_id: u64,
    /// Whether this thread created the pending entry (and thus finalizes).
    owns: bool,
    base: Instant,
    stack: Vec<u64>,
    closed: Vec<SpanRecord>,
    error: bool,
    dropped: u64,
}

/// Emptied buffers from this thread's last finished trace, reused by its
/// next one so a steady stream of requests allocates no trace bookkeeping:
/// the span stack and closed-span segment of a [`ThreadTrace`], and the
/// span list of a pending entry this thread created (handed back by the
/// flight recorder when it recycles an evicted record).
struct Spare {
    stack: Vec<u64>,
    closed: Vec<SpanRecord>,
    spans: Vec<SpanRecord>,
}

thread_local! {
    static CURRENT: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
    static SPARE: RefCell<Spare> = const {
        RefCell::new(Spare {
            stack: Vec::new(),
            closed: Vec::new(),
            spans: Vec::new(),
        })
    };
}

/// Run `f` on this thread's spare buffers; `None` during thread teardown,
/// once the thread-local is gone (a guard dropped that late simply does
/// not recycle).
fn with_spare<R>(f: impl FnOnce(&mut Spare) -> R) -> Option<R> {
    SPARE.try_with(|s| f(&mut s.borrow_mut())).ok()
}

fn elapsed_ns(base: Instant) -> u64 {
    base.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Handle for a span opened inside the active thread trace; produced by
/// [`enter_traced_span`], consumed by [`exit_traced_span`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanHandle {
    span_id: u64,
    parent: Option<u64>,
    start_ns: u64,
}

/// Open a child span under the active thread trace, if one is active.
pub(crate) fn enter_traced_span() -> Option<SpanHandle> {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let t = cur.as_mut()?;
        let span_id = next_id();
        let parent = t.stack.last().copied();
        let start_ns = elapsed_ns(t.base);
        t.stack.push(span_id);
        Some(SpanHandle {
            span_id,
            parent,
            start_ns,
        })
    })
}

/// Close a span opened by [`enter_traced_span`], buffering its record.
/// Takes the detail by value: the caller already owns the formatted
/// string (or borrows a static one), and re-allocating it here showed up
/// in the read-path overhead budget.
pub(crate) fn exit_traced_span(
    h: SpanHandle,
    name: &'static str,
    detail: Cow<'static, str>,
    duration: Duration,
) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(t) = cur.as_mut() else { return };
        // Pop through to our id: spans close LIFO, but be defensive about a
        // leaked guard above us rather than corrupting the stack.
        while let Some(top) = t.stack.pop() {
            if top == h.span_id {
                break;
            }
        }
        push_closed(
            t,
            SpanRecord {
                span_id: h.span_id,
                parent: h.parent,
                name: Cow::Borrowed(name),
                detail,
                start_ns: h.start_ns,
                duration_ns: duration_ns(duration),
            },
        );
    });
}

fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn push_closed(t: &mut ThreadTrace, record: SpanRecord) {
    if t.closed.len() < MAX_SPANS_PER_TRACE {
        t.closed.push(record);
    } else {
        t.dropped += 1;
    }
}

/// The active trace context on this thread, for wire propagation or
/// linking. `None` when no trace is active.
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(|c| {
        let cur = c.borrow();
        let t = cur.as_ref()?;
        let span_id = t.stack.last().copied().unwrap_or(0);
        let parent = if t.stack.len() >= 2 {
            t.stack.get(t.stack.len() - 2).copied()
        } else {
            None
        };
        Some(TraceContext {
            trace_id: t.trace_id,
            span_id,
            parent,
        })
    })
}

/// The active trace id on this thread, if any (cheaper than
/// [`current_context`] when only the id is needed, e.g. for log lines).
pub fn current_trace_id() -> Option<u64> {
    CURRENT.with(|c| c.borrow().as_ref().map(|t| t.trace_id))
}

/// Append a zero-duration annotation (`name = "note"`) to the active
/// trace's event buffer — counter snapshots, decision points, anything
/// worth pinning to the timeline. No-op when no trace is active.
pub fn annotate(detail: impl std::fmt::Display) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(t) = cur.as_mut() else { return };
        let parent = t.stack.last().copied();
        let start_ns = elapsed_ns(t.base);
        let record = SpanRecord {
            span_id: next_id(),
            parent,
            name: Cow::Borrowed("note"),
            detail: Cow::Owned(detail.to_string()),
            start_ns,
            duration_ns: 0,
        };
        push_closed(t, record);
    });
}

/// Tag the active trace as failed; the flight recorder retains error
/// traces regardless of latency. No-op when no trace is active.
pub fn tag_error() {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.error = true;
        }
    });
}

// ---------------------------------------------------------------------------
// Root guards
// ---------------------------------------------------------------------------

enum RootKind {
    /// A root requested while this thread already had an active trace:
    /// demoted to an ordinary child span.
    Nested(SpanHandle),
    /// This guard installed the thread trace.
    Thread {
        trace_id: u64,
        root_span: u64,
        wire_parent: Option<u64>,
        root_start_ns: u64,
    },
}

/// Guard for a thread-local trace root: spans opened on this thread while
/// it lives are parented under it; dropping it flushes the thread's
/// segment and (for the trace's creator) finalizes the trace into the
/// flight recorder. Created by [`request_root`] / [`local_root`].
#[must_use = "the trace is flushed and finalized when this guard drops"]
pub struct LocalTrace {
    kind: Option<RootKind>,
    name: &'static str,
    detail: Cow<'static, str>,
    start: Instant,
}

impl LocalTrace {
    /// The context of this root (for linking); `None` when tracing is
    /// disabled.
    pub fn context(&self) -> Option<TraceContext> {
        match self.kind.as_ref()? {
            RootKind::Nested(_) => current_context(),
            RootKind::Thread {
                trace_id,
                root_span,
                wire_parent,
                ..
            } => Some(TraceContext {
                trace_id: *trace_id,
                span_id: *root_span,
                parent: *wire_parent,
            }),
        }
    }
}

fn root_impl(
    ctx: Option<TraceContext>,
    name: &'static str,
    detail: Cow<'static, str>,
) -> LocalTrace {
    if !enabled() {
        return LocalTrace {
            kind: None,
            name,
            detail,
            start: Instant::now(),
        };
    }
    let already_active = CURRENT.with(|c| c.borrow().is_some());
    if already_active {
        let kind = enter_traced_span().map(RootKind::Nested);
        return LocalTrace {
            kind,
            name,
            detail,
            start: Instant::now(),
        };
    }
    let (trace_id, wire_parent, base, owns) = match ctx {
        None => {
            let id = next_id();
            let base = Instant::now();
            let mut sh = pending_shard(id)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            sh.insert(id, Pending::new(base));
            (id, None, base, true)
        }
        Some(c) => {
            let mut sh = pending_shard(c.trace_id)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match sh.get(&c.trace_id) {
                // The originator lives in this process (client and server
                // share the runtime): contribute a segment, don't finalize.
                Some(p) => (c.trace_id, Some(c.span_id), p.base, false),
                // Remote originator: this process keeps its own record of
                // the server-side subtree and finalizes it.
                None => {
                    let base = Instant::now();
                    sh.insert(c.trace_id, Pending::new(base));
                    (c.trace_id, Some(c.span_id), base, true)
                }
            }
        }
    };
    let root_span = next_id();
    let root_start_ns = elapsed_ns(base);
    let (mut stack, closed) =
        with_spare(|s| (std::mem::take(&mut s.stack), std::mem::take(&mut s.closed)))
            .unwrap_or_default();
    stack.push(root_span);
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(ThreadTrace {
            trace_id,
            owns,
            base,
            stack,
            closed,
            error: false,
            dropped: 0,
        });
    });
    LocalTrace {
        kind: Some(RootKind::Thread {
            trace_id,
            root_span,
            wire_parent,
            root_start_ns,
        }),
        name,
        detail,
        start: Instant::now(),
    }
}

/// Install the per-request root span for a server-side request: joins the
/// caller's [`TraceContext`] when the request carried one, otherwise
/// originates a fresh trace. The server's connection loop must call this
/// **exactly once per request** (machine-checked by the `span-parent`
/// lint). `op` is the request's static name, kept by reference.
pub fn request_root(ctx: Option<TraceContext>, op: &'static str) -> LocalTrace {
    root_impl(ctx, "server.rpc", Cow::Borrowed(op))
}

/// Begin a locally originated trace root on this thread (shell commands,
/// test harnesses, batch jobs). `name` follows the `layer.operation` span
/// convention.
pub fn local_root(name: &'static str, detail: &str) -> LocalTrace {
    root_impl(None, name, Cow::Owned(detail.to_owned()))
}

impl Drop for LocalTrace {
    fn drop(&mut self) {
        let Some(kind) = self.kind.take() else { return };
        let dur = self.start.elapsed();
        let detail = std::mem::take(&mut self.detail);
        match kind {
            RootKind::Nested(h) => exit_traced_span(h, self.name, detail, dur),
            RootKind::Thread {
                trace_id,
                root_span,
                wire_parent,
                root_start_ns,
            } => {
                let taken = CURRENT.with(|c| c.borrow_mut().take());
                let Some(mut t) = taken else { return };
                let root = t.owns.then(|| Root {
                    name: self.name,
                    detail: detail.clone(),
                    duration: dur,
                });
                push_closed(
                    &mut t,
                    SpanRecord {
                        span_id: root_span,
                        parent: wire_parent,
                        name: Cow::Borrowed(self.name),
                        detail,
                        start_ns: root_start_ns,
                        duration_ns: duration_ns(dur),
                    },
                );
                flush_segment(trace_id, root, t.closed.drain(..), t.error, t.dropped);
                t.stack.clear();
                with_spare(|s| {
                    s.stack = t.stack;
                    s.closed = t.closed;
                });
            }
        }
    }
}

/// The root span of a trace as its finalizing participant knows it.
struct Root {
    name: &'static str,
    detail: Cow<'static, str>,
    duration: Duration,
}

/// Flush a participant's finished segment into the pending table. The
/// owning participant passes its `root` and also finalizes the trace into
/// the flight recorder, taking back the span buffer the recorder frees.
fn flush_segment(
    trace_id: u64,
    root: Option<Root>,
    spans: impl IntoIterator<Item = SpanRecord>,
    error: bool,
    dropped: u64,
) {
    let mut sh = pending_shard(trace_id)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let Some(root) = root else {
        if let Some(p) = sh.get_mut(&trace_id) {
            p.absorb(spans, error, dropped);
        }
        return;
    };
    let Some(mut p) = sh.remove(&trace_id) else {
        return;
    };
    drop(sh);
    p.absorb(spans, error, dropped);
    let recycled = crate::recorder::recorder().record(TraceRecord {
        trace_id,
        root_name: Cow::Borrowed(root.name),
        root_detail: root.detail,
        total_ns: duration_ns(root.duration),
        error: p.error,
        dropped_spans: p.dropped,
        seq: 0,
        spans: p.spans,
    });
    if let Some(spans) = recycled {
        with_spare(|s| s.spans = spans);
    }
}

// ---------------------------------------------------------------------------
// Wire scope (client side)
// ---------------------------------------------------------------------------

enum WireKind {
    /// Issued inside an existing thread trace: a child of the active span
    /// that never occupies the span *stack*, so N scopes can be in flight
    /// concurrently (pipelining) and drop in any order.
    Sibling {
        trace_id: u64,
        span_id: u64,
        parent: Option<u64>,
        start_ns: u64,
    },
    /// Issued outside any trace: a detached root that does not occupy the
    /// thread-local slot, so N of them can be in flight (pipelining).
    Detached {
        trace_id: u64,
        span_id: u64,
        error: bool,
    },
}

/// Client-side scope for one wire request: supplies the [`TraceContext`]
/// to send, and on drop records the client span (finalizing the trace if
/// this scope originated it). Created by [`wire_scope`].
#[must_use = "the client span records (and the trace finalizes) when this drops"]
pub struct WireScope {
    kind: Option<WireKind>,
    name: &'static str,
    detail: &'static str,
    start: Instant,
}

/// Open a client-side scope for a wire request named `name` (e.g.
/// `client.call`) with `detail` (e.g. the RPC op's static name). If a
/// trace is already active on this thread the request joins it; otherwise
/// a fresh detached trace is originated.
pub fn wire_scope(name: &'static str, detail: &'static str) -> WireScope {
    if !enabled() {
        return WireScope {
            kind: None,
            name,
            detail,
            start: Instant::now(),
        };
    }
    let active = CURRENT.with(|c| {
        c.borrow().as_ref().map(|t| WireKind::Sibling {
            trace_id: t.trace_id,
            span_id: next_id(),
            parent: t.stack.last().copied(),
            start_ns: elapsed_ns(t.base),
        })
    });
    let kind = match active {
        Some(sibling) => Some(sibling),
        None => {
            let trace_id = next_id();
            let span_id = next_id();
            let base = Instant::now();
            let mut sh = pending_shard(trace_id)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            sh.insert(trace_id, Pending::new(base));
            Some(WireKind::Detached {
                trace_id,
                span_id,
                error: false,
            })
        }
    };
    WireScope {
        kind,
        name,
        detail,
        start: Instant::now(),
    }
}

impl WireScope {
    /// The context to propagate with the request; `None` when tracing is
    /// disabled (the wire extension is then omitted entirely).
    pub fn context(&self) -> Option<TraceContext> {
        match self.kind.as_ref()? {
            WireKind::Sibling {
                trace_id,
                span_id,
                parent,
                ..
            } => Some(TraceContext {
                trace_id: *trace_id,
                span_id: *span_id,
                parent: *parent,
            }),
            WireKind::Detached {
                trace_id, span_id, ..
            } => Some(TraceContext {
                trace_id: *trace_id,
                span_id: *span_id,
                parent: None,
            }),
        }
    }

    /// Tag this request's trace as failed (server returned an error).
    pub fn tag_error(&mut self) {
        match self.kind.as_mut() {
            Some(WireKind::Sibling { .. }) => tag_error(),
            Some(WireKind::Detached { error, .. }) => *error = true,
            None => {}
        }
    }
}

impl Drop for WireScope {
    fn drop(&mut self) {
        let Some(kind) = self.kind.take() else { return };
        let dur = self.start.elapsed();
        match kind {
            WireKind::Sibling {
                trace_id,
                span_id,
                parent,
                start_ns,
            } => {
                let mut record = Some(SpanRecord {
                    span_id,
                    parent,
                    name: Cow::Borrowed(self.name),
                    detail: Cow::Borrowed(self.detail),
                    start_ns,
                    duration_ns: duration_ns(dur),
                });
                let pushed = CURRENT.with(|c| {
                    let mut cur = c.borrow_mut();
                    match cur.as_mut() {
                        Some(t) if t.trace_id == trace_id => {
                            if let Some(r) = record.take() {
                                push_closed(t, r);
                            }
                            true
                        }
                        _ => false,
                    }
                });
                if !pushed {
                    // The scope outlived its root on this thread: absorb
                    // straight into the pending table while the trace is
                    // still open elsewhere (dropped silently otherwise).
                    flush_segment(trace_id, None, record, false, 0);
                }
            }
            WireKind::Detached {
                trace_id,
                span_id,
                error,
            } => {
                let record = SpanRecord {
                    span_id,
                    parent: None,
                    name: Cow::Borrowed(self.name),
                    detail: Cow::Borrowed(self.detail),
                    start_ns: 0,
                    duration_ns: duration_ns(dur),
                };
                let root = Root {
                    name: self.name,
                    detail: Cow::Borrowed(self.detail),
                    duration: dur,
                };
                flush_segment(trace_id, Some(root), Some(record), error, 0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render a trace as a human-readable tree with per-span self-time
/// (duration minus direct children), the shape the shell's `trace`
/// command prints.
pub fn render_trace(t: &TraceRecord) -> String {
    let mut out = String::new();
    let flags = match (t.error, t.dropped_spans > 0) {
        (true, true) => " [error] [truncated]",
        (true, false) => " [error]",
        (false, true) => " [truncated]",
        (false, false) => "",
    };
    let _ = writeln!(
        out,
        "trace t{:016x}  {} {}  {}  {} span(s){}",
        t.trace_id,
        t.root_name,
        t.root_detail,
        fmt_ns(t.total_ns),
        t.spans.len(),
        flags,
    );
    // Order children by start time; treat spans whose parent is absent
    // from the record (a wire parent in another process) as roots.
    let ids: std::collections::HashSet<u64> = t.spans.iter().map(|s| s.span_id).collect();
    let mut order: Vec<usize> = (0..t.spans.len()).collect();
    order.sort_by_key(|&i| t.spans.get(i).map(|s| s.start_ns).unwrap_or(0));
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for &i in &order {
        let Some(s) = t.spans.get(i) else { continue };
        match s.parent {
            Some(p) if ids.contains(&p) && p != s.span_id => children.entry(p).or_default().push(i),
            _ => roots.push(i),
        }
    }
    // Iterative DFS with a visited set so a malformed (decoded) record
    // with a parent cycle cannot loop or overflow. A second pass sweeps up
    // spans a cycle kept unreachable, rendering them flat.
    let mut visited: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&i| (i, 1)).collect();
    stack.splice(0..0, order.iter().rev().map(|&i| (i, 1)));
    while let Some((i, depth)) = stack.pop() {
        let Some(s) = t.spans.get(i) else { continue };
        if !visited.insert(s.span_id) {
            continue;
        }
        let kids = children.get(&s.span_id);
        let child_total: u64 = kids
            .map(|ks| {
                ks.iter()
                    .filter_map(|&k| t.spans.get(k))
                    .map(|c| c.duration_ns)
                    .sum()
            })
            .unwrap_or(0);
        let self_ns = s.duration_ns.saturating_sub(child_total);
        let indent = "  ".repeat(depth);
        if s.duration_ns == 0 && s.name == "note" {
            let _ = writeln!(out, "{indent}note: {}  @{}", s.detail, fmt_ns(s.start_ns));
        } else {
            let detail = if s.detail.is_empty() {
                String::new()
            } else {
                format!(" {}", s.detail)
            };
            let _ = writeln!(
                out,
                "{indent}{}{}  {} (self {})",
                s.name,
                detail,
                fmt_ns(s.duration_ns),
                fmt_ns(self_ns),
            );
        }
        if let Some(ks) = kids {
            for &k in ks.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
    out
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a trace as one JSON object (hand-rolled; the workspace is
/// dependency-free). Used by the shell's `trace --json`, the CI dump
/// artifact, and exemplar traces in bench reports.
pub fn render_trace_json(t: &TraceRecord) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"trace_id\":\"t{:016x}\",\"root\":\"{}\",\"detail\":\"{}\",\"total_ns\":{},\
         \"error\":{},\"dropped_spans\":{},\"seq\":{},\"spans\":[",
        t.trace_id,
        json_escape(&t.root_name),
        json_escape(&t.root_detail),
        t.total_ns,
        t.error,
        t.dropped_spans,
        t.seq,
    );
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = match s.parent {
            Some(p) => format!("\"{p:x}\""),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"span_id\":\"{:x}\",\"parent\":{parent},\"name\":\"{}\",\"detail\":\"{}\",\
             \"start_ns\":{},\"duration_ns\":{}}}",
            s.span_id,
            json_escape(&s.name),
            json_escape(&s.detail),
            s.start_ns,
            s.duration_ns,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::registry;

    #[test]
    fn local_root_collects_child_spans_with_parent_links() {
        registry().set_enabled(true);
        let trace_id;
        {
            let root = local_root("test.root_a", "outer");
            trace_id = root.context().map(|c| c.trace_id).unwrap_or(0);
            {
                let _child = crate::span!("testtrace.child_a", "inner {}", 1);
            }
            annotate("marker");
        }
        let rec = crate::recorder::recorder()
            .find(trace_id)
            .expect("trace recorded");
        assert_eq!(rec.root_name, "test.root_a");
        assert_eq!(rec.root_detail, "outer");
        let root_span = rec
            .spans
            .iter()
            .find(|s| s.name == "test.root_a")
            .expect("root span present");
        let child = rec
            .spans
            .iter()
            .find(|s| s.name == "testtrace.child_a")
            .expect("child span present");
        assert_eq!(child.parent, Some(root_span.span_id));
        assert_eq!(child.detail, "inner 1");
        let note = rec.spans.iter().find(|s| s.name == "note").expect("note");
        assert_eq!(note.detail, "marker");
        assert_eq!(note.parent, Some(root_span.span_id));
        assert!(rec.total_ns > 0);
        assert!(!rec.error);
    }

    #[test]
    fn join_merges_segments_across_threads() {
        registry().set_enabled(true);
        let trace_id;
        {
            let root = local_root("test.root_b", "");
            let ctx = root.context().expect("ctx");
            trace_id = ctx.trace_id;
            // Simulate the server thread joining the client's trace.
            std::thread::scope(|s| {
                s.spawn(move || {
                    let joined = request_root(Some(ctx), "JoinOp");
                    {
                        let _inner = crate::span!("testtrace.join_child");
                    }
                    drop(joined);
                });
            });
        }
        let rec = crate::recorder::recorder()
            .find(trace_id)
            .expect("trace recorded");
        let server_root = rec
            .spans
            .iter()
            .find(|s| s.name == "server.rpc")
            .expect("joined server span present");
        let client_root = rec
            .spans
            .iter()
            .find(|s| s.name == "test.root_b")
            .expect("client root present");
        assert_eq!(server_root.parent, Some(client_root.span_id));
        let inner = rec
            .spans
            .iter()
            .find(|s| s.name == "testtrace.join_child")
            .expect("inner");
        assert_eq!(inner.parent, Some(server_root.span_id));
    }

    #[test]
    fn wire_scope_detached_roots_allow_pipelining() {
        registry().set_enabled(true);
        let mut ids = Vec::new();
        {
            let scopes: Vec<WireScope> =
                (0..3).map(|_| wire_scope("client.call", "Ping")).collect();
            for s in &scopes {
                let ctx = s.context().expect("ctx");
                ids.push(ctx.trace_id);
            }
        }
        // Each scope is its own trace.
        let unique: std::collections::HashSet<u64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), 3);
        for id in ids {
            let rec = crate::recorder::recorder().find(id).expect("recorded");
            assert_eq!(rec.root_name, "client.call");
            assert_eq!(rec.root_detail, "Ping");
        }
    }

    #[test]
    fn wire_scopes_inside_a_trace_are_concurrent_siblings() {
        registry().set_enabled(true);
        let trace_id;
        {
            let root = local_root("test.root_d", "");
            trace_id = root.context().map(|c| c.trace_id).unwrap_or(0);
            let s1 = wire_scope("client.call", "Op1");
            let s2 = wire_scope("client.call", "Op2");
            // Out-of-order completion (pipelining): s1 closes while s2 is
            // still in flight, and the span stack must stay intact.
            drop(s1);
            {
                let _child = crate::span!("testtrace.after_drop");
            }
            drop(s2);
        }
        let rec = crate::recorder::recorder()
            .find(trace_id)
            .expect("recorded");
        let root_span = rec
            .spans
            .iter()
            .find(|s| s.name == "test.root_d")
            .expect("root");
        let calls: Vec<_> = rec
            .spans
            .iter()
            .filter(|s| s.name == "client.call")
            .collect();
        assert_eq!(calls.len(), 2);
        for c in calls {
            assert_eq!(c.parent, Some(root_span.span_id), "{}", c.detail);
        }
        let after = rec
            .spans
            .iter()
            .find(|s| s.name == "testtrace.after_drop")
            .expect("span after out-of-order drop");
        assert_eq!(after.parent, Some(root_span.span_id));
    }

    #[test]
    fn error_tags_are_sticky_and_span_cap_holds() {
        registry().set_enabled(true);
        let trace_id;
        {
            let root = local_root("test.root_c", "");
            trace_id = root.context().map(|c| c.trace_id).unwrap_or(0);
            tag_error();
            for i in 0..(MAX_SPANS_PER_TRACE + 10) {
                annotate(format_args!("n{i}"));
            }
        }
        let rec = crate::recorder::recorder()
            .find(trace_id)
            .expect("recorded");
        assert!(rec.error);
        assert!(rec.spans.len() <= MAX_SPANS_PER_TRACE);
        assert!(rec.dropped_spans >= 10);
    }

    #[test]
    fn render_shows_tree_and_self_time() {
        let t = TraceRecord {
            trace_id: 0xabc,
            root_name: "server.rpc".into(),
            root_detail: "OpenNode".into(),
            total_ns: 3_000_000,
            error: false,
            dropped_spans: 0,
            seq: 7,
            spans: vec![
                SpanRecord {
                    span_id: 1,
                    parent: None,
                    name: "server.rpc".into(),
                    detail: "OpenNode".into(),
                    start_ns: 0,
                    duration_ns: 3_000_000,
                },
                SpanRecord {
                    span_id: 2,
                    parent: Some(1),
                    name: "view.read_node".into(),
                    detail: "node 4".into(),
                    start_ns: 1_000,
                    duration_ns: 2_000_000,
                },
            ],
        };
        let text = render_trace(&t);
        assert!(text.contains("trace t0000000000000abc"), "{text}");
        assert!(text.contains("server.rpc OpenNode"), "{text}");
        assert!(text.contains("  view.read_node node 4"), "{text}");
        // Root self time = 3ms - 2ms child.
        assert!(text.contains("(self 1.00ms)"), "{text}");
        let json = render_trace_json(&t);
        assert!(
            json.contains("\"trace_id\":\"t0000000000000abc\""),
            "{json}"
        );
        assert!(json.contains("\"name\":\"view.read_node\""), "{json}");
    }

    #[test]
    fn render_survives_parent_cycles() {
        let t = TraceRecord {
            trace_id: 1,
            root_name: "x".into(),
            root_detail: String::new().into(),
            total_ns: 10,
            error: false,
            dropped_spans: 0,
            seq: 0,
            spans: vec![
                SpanRecord {
                    span_id: 1,
                    parent: Some(2),
                    name: "a".into(),
                    detail: String::new().into(),
                    start_ns: 0,
                    duration_ns: 5,
                },
                SpanRecord {
                    span_id: 2,
                    parent: Some(1),
                    name: "b".into(),
                    detail: String::new().into(),
                    start_ns: 1,
                    duration_ns: 5,
                },
            ],
        };
        // Must terminate; both spans referenced each other.
        let text = render_trace(&t);
        assert!(text.contains('a') && text.contains('b'));
    }
}
