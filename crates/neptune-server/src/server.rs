//! The Neptune server: multi-user access to one HAM.
//!
//! Paper §2.2: *"Neptune has a central server which is accessible over a
//! local area network from a variety of workstations; it is
//! transaction-oriented and provides for complete recovery from any aborted
//! transaction."* The server owns the (single-writer) [`Ham`]. A client
//! holding an explicit transaction has exclusive access until it commits or
//! aborts — other clients block (with a timeout) rather than interleave,
//! which is the concurrency control a check-in/check-out CAD workflow
//! expects. A client that disconnects or whose connection thread panics
//! mid-transaction is aborted automatically.
//!
//! Requests classified read-only by [`Request::is_read_only`] are served
//! **lock-free** from the committed snapshot the HAM publishes at every
//! commit ([`neptune_ham::CommittedView`]): one atomic load yields an
//! immutable `Arc<CommittedView>`, with no gate check and no HAM lock —
//! readers never wait on writers, and an open foreign transaction is
//! invisible to them (they see the last committed state). The one
//! exception is the transaction owner itself, whose reads route through
//! the exclusive path so it observes its own uncommitted writes
//! (read-your-writes).
//!
//! The HAM behind the server is a [`ShardedHam`]: contexts hash to a home
//! shard, and writes touching different shards commit in parallel — the
//! gate serializes only *explicit transactions*, not independent
//! single-context writes. Context-scoped reads load the home shard's
//! published view; global reads (`ListContexts`, `Verify`, batches) use a
//! [`MultiView`] — a commit-sequence-consistent vector of every shard's
//! view — so a batch never observes half of a cross-shard merge.
//!
//! Lock hierarchy (always acquired in this order, never the reverse):
//!
//! 1. `view` — the publication slots behind `Published::load`, ranked
//!    lowest: a view may only be loaded while holding *nothing*.
//! 2. `gate` — a small mutex guarding transaction ownership; the
//!    [`Condvar`] `txn_released` is associated with it.
//! 3. `shard[i]` — the per-shard machine mutexes, ranked ascending by
//!    shard index and acquired *while still holding the gate*, so no
//!    transaction can begin between the ownership check and lock
//!    acquisition. The gate is released as soon as the shard lock is held,
//!    which is what lets disjoint-shard writers run concurrently.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use neptune_ham::predicate::Predicate;
use neptune_ham::types::Time;
use neptune_ham::{CommittedView, Ham, MultiView, ShardedHam};
use neptune_obs::lockcheck;

use crate::frame::{self, FrameBuf};
use crate::proto::{ObsSetting, Request, Response, TracedRequest};

/// Bump the registry counter named by a literal (no-op when instrumentation
/// is disabled). The handle is resolved once per call site into a static,
/// so a count on the lock-free read path is one relaxed atomic add rather
/// than a registry lock and a string-keyed map search.
macro_rules! count {
    ($key:literal) => {{
        static HANDLE: OnceLock<Arc<neptune_obs::Counter>> = OnceLock::new();
        if neptune_obs::enabled() {
            HANDLE
                .get_or_init(|| neptune_obs::registry().counter($key))
                .inc();
        }
    }};
}

/// Hold the registry gauge named by a literal up by one for the returned
/// guard's lifetime (`None` when instrumentation is disabled); the handle
/// is resolved once per call site, as `count!` does.
macro_rules! scoped_gauge {
    ($key:literal) => {{
        static HANDLE: OnceLock<Arc<neptune_obs::Gauge>> = OnceLock::new();
        neptune_obs::enabled().then(|| {
            neptune_obs::Gauge::scoped(HANDLE.get_or_init(|| neptune_obs::registry().gauge($key)))
        })
    }};
}

/// How long a client waits for another client's transaction before its
/// request fails with a lock-timeout error. This is a fixed deadline: the
/// total wait is bounded by it no matter how many spurious or unhelpful
/// condvar wakeups occur in between.
pub const LOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Tuning knobs for [`serve_with`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Deadline for waiting on another connection's transaction; defaults
    /// to [`LOCK_TIMEOUT`]. Tests shrink this to keep timeout paths fast.
    pub lock_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            lock_timeout: LOCK_TIMEOUT,
        }
    }
}

/// Transaction-ownership state, guarded by the gate mutex.
struct Gate {
    /// Connection currently holding an explicit transaction, if any.
    txn_owner: Option<u64>,
    /// Standalone (non-transactional) writes in flight. Writers register
    /// here and release the gate before locking their home shard, so
    /// disjoint-shard writes commit concurrently; `BeginTransaction`
    /// claims `txn_owner` first (stopping new registrations) and then
    /// waits for this count to drain to zero, so an explicit transaction
    /// still gets the machine to itself.
    active_writers: u64,
}

struct Shared {
    ham: ShardedHam,
    gate: Mutex<Gate>,
    txn_released: Condvar,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    lock_timeout: Duration,
}

impl Shared {
    /// Lock the transaction gate, recovering from a poisoned mutex (a
    /// panicking connection thread must not take the whole server down).
    fn lock_gate(&self) -> GateGuard<'_> {
        // Rank-check before blocking: an inversion should panic at this
        // call site, not deadlock inside `lock()`.
        let held = lockcheck::acquire(lockcheck::GATE, "server.gate");
        count!("neptune_server_gate_acquisitions_total");
        GateGuard {
            guard: self.gate.lock().unwrap_or_else(PoisonError::into_inner),
            held,
        }
    }

    /// Load `context`'s home-shard snapshot — the lock-free read path. The
    /// rank token covers only the load itself (one atomic load, or a brief
    /// slot-mutex clone on the first load after a publish); holding the
    /// returned view is not a lock.
    fn load_view(&self, context: neptune_ham::ContextId) -> Arc<CommittedView> {
        let _held = lockcheck::acquire(lockcheck::VIEW, "server.view");
        self.ham.read_view(context)
    }

    /// Assemble a commit-sequence-consistent snapshot of every shard for
    /// global reads and read-only batches. Lock-free in the common case
    /// (the skew-retry loop reloads publication slots); the rank token
    /// covers the loads.
    fn load_multi_view(&self) -> MultiView {
        let _held = lockcheck::acquire(lockcheck::VIEW, "server.view");
        self.ham.multi_view()
    }
}

/// Gate-mutex guard carrying its [`lockcheck`] rank token, so the dynamic
/// lock-order checker sees exactly the scopes the real guard covers. The
/// guard is declared first: the mutex is released before the rank.
struct GateGuard<'a> {
    guard: MutexGuard<'a, Gate>,
    held: lockcheck::Held,
}

impl Deref for GateGuard<'_> {
    type Target = Gate;
    fn deref(&self) -> &Gate {
        &self.guard
    }
}

impl DerefMut for GateGuard<'_> {
    fn deref_mut(&mut self) -> &mut Gate {
        &mut self.guard
    }
}

/// Cleans up a connection's transaction no matter how its thread exits.
///
/// Constructed at the top of every connection thread; its `Drop` runs on
/// clean disconnect, on protocol error, *and* during a panic unwind, so a
/// dead owner can never strand the transaction lock and starve every other
/// client into timeouts.
struct ConnGuard {
    shared: Arc<Shared>,
    conn_id: u64,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut gate = self.shared.lock_gate();
        if gate.txn_owner == Some(self.conn_id) {
            if self.shared.ham.in_transaction() {
                let _ = self.shared.ham.abort_transaction();
            }
            gate.txn_owner = None;
            drop(gate);
            self.shared.txn_released.notify_all();
        }
    }
}

/// A running Neptune server; dropping it (or calling [`ServerHandle::stop`])
/// shuts it down and checkpoints the graph.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, abort any open transaction, checkpoint,
    /// and shut down.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    /// Test hook: wake every thread blocked on the transaction condvar, as
    /// a spurious wakeup would. The deadline-based wait must shrug these
    /// off without extending a waiter's total timeout.
    pub fn poke_txn_waiters(&self) {
        self.shared.txn_released.notify_all();
    }

    fn stop_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let mut gate = self.shared.lock_gate();
        if self.shared.ham.in_transaction() {
            let _ = self.shared.ham.abort_transaction();
        }
        gate.txn_owner = None;
        let _ = self.shared.ham.checkpoint();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_inner();
        }
    }
}

/// Start serving a single-shard `ham` on `addr` (use port 0 for an
/// ephemeral port). The machine is wrapped as a one-shard [`ShardedHam`];
/// sharded stores go through [`serve_sharded`].
pub fn serve(ham: Ham, addr: impl Into<String>) -> std::io::Result<ServerHandle> {
    serve_sharded_with(ShardedHam::from_ham(ham), addr, ServeOptions::default())
}

/// [`serve`] with explicit [`ServeOptions`].
pub fn serve_with(
    ham: Ham,
    addr: impl Into<String>,
    options: ServeOptions,
) -> std::io::Result<ServerHandle> {
    serve_sharded_with(ShardedHam::from_ham(ham), addr, options)
}

/// Start serving a sharded store on `addr`.
pub fn serve_sharded(ham: ShardedHam, addr: impl Into<String>) -> std::io::Result<ServerHandle> {
    serve_sharded_with(ham, addr, ServeOptions::default())
}

/// [`serve_sharded`] with explicit [`ServeOptions`].
pub fn serve_sharded_with(
    ham: ShardedHam,
    addr: impl Into<String>,
    options: ServeOptions,
) -> std::io::Result<ServerHandle> {
    // A panicking connection thread should leave its last traces behind
    // (written to NEPTUNE_TRACE_DUMP when set) before the unwind proceeds.
    neptune_obs::install_panic_hook();
    let listener = TcpListener::bind(addr.into())?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        ham,
        gate: Mutex::new(Gate {
            txn_owner: None,
            active_writers: 0,
        }),
        txn_released: Condvar::new(),
        shutdown: AtomicBool::new(false),
        next_conn: AtomicU64::new(1),
        lock_timeout: options.lock_timeout,
    });

    let accept_shared = shared.clone();
    let accept_thread = std::thread::spawn(move || {
        let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
        while !accept_shared.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let conn_shared = accept_shared.clone();
                    let id = conn_shared.next_conn.fetch_add(1, Ordering::SeqCst);
                    conn_threads.push(std::thread::spawn(move || {
                        // The guard must outlive everything the connection
                        // does so its Drop also runs on panic unwind.
                        let _guard = ConnGuard {
                            shared: conn_shared.clone(),
                            conn_id: id,
                        };
                        let _conns = scoped_gauge!("neptune_server_active_connections");
                        record_peak_connections();
                        let _ = handle_connection(stream, id, conn_shared);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        for t in conn_threads {
            let _ = t.join();
        }
    });

    Ok(ServerHandle {
        addr: local,
        shared,
        accept_thread: Some(accept_thread),
    })
}

fn handle_connection(
    stream: TcpStream,
    conn_id: u64,
    shared: Arc<Shared>,
) -> neptune_storage::error::Result<()> {
    stream.set_nodelay(true).ok();
    // Reads poll with a timeout so connection threads notice shutdown. A
    // timeout that fires mid-frame is harmless: the frame reader keeps the
    // bytes it has and resumes on the next pass (see `frame`).
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    // Per-connection reusable framing buffers: steady state is
    // allocation-free, and every frame's wire size feeds the
    // `neptune_server_bytes_{in,out}_total` counters. Requests come through
    // a read buffer so a small frame costs one `recv`, and responses go
    // through a buffered writer so header + payload chunks coalesce into
    // one syscall.
    let mut frames = if neptune_obs::enabled() {
        let registry = neptune_obs::registry();
        FrameBuf::with_counters(
            registry.counter("neptune_server_bytes_in_total"),
            registry.counter("neptune_server_bytes_out_total"),
        )
    } else {
        FrameBuf::new()
    };
    let mut writer = std::io::BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::with_capacity(frame::READ_BUFFER, stream);
    let mut conn = ConnState { owns_txn: false };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break Ok(());
        }
        let request: TracedRequest = match frames.read_frame(&mut reader) {
            Ok(r) => r,
            Err(neptune_storage::StorageError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(neptune_storage::StorageError::Io(e))
                if e.kind() == std::io::ErrorKind::UnexpectedEof =>
            {
                break Ok(()); // clean disconnect; ConnGuard aborts any txn
            }
            Err(e) => break Err(e),
        };
        // `execute` drops the request's trace root before returning, so
        // the server's segment is flushed before this response frame goes
        // out — an in-process client that finalizes the trace after
        // reading the response always sees the server's spans.
        let response = execute(&shared, conn_id, &mut conn, request);
        frames.write_frame(&mut writer, &response)?;
    }
}

/// Record the high-water mark of concurrent connections. The bench-metrics
/// deltas read this peak gauge, not the instantaneous active gauge, which
/// at capture time may already have drained back toward zero.
fn record_peak_connections() {
    if neptune_obs::enabled() {
        let registry = neptune_obs::registry();
        let active = registry.gauge("neptune_server_active_connections").get();
        registry
            .gauge("neptune_server_peak_connections")
            .set_max(active);
    }
}

/// Per-connection routing state, owned exclusively by the connection's
/// thread — consulting it takes no lock. `owns_txn` tracks whether this
/// connection holds the explicit transaction: owners route *every* request
/// (reads included) through the exclusive path so they observe their own
/// uncommitted writes; everyone else's reads are served lock-free from the
/// published snapshot. It is set only when the server grants the
/// transaction, so a stale `true` (e.g. after shutdown aborted the
/// transaction) merely routes conservatively through the exclusive path.
struct ConnState {
    owns_txn: bool,
}

/// Record time a request spent blocked at the transaction gate. Only called
/// when a wait actually happened, so the histogram's count is the number of
/// contended requests, not the number of requests.
fn observe_gate_wait(waited: Duration) {
    if neptune_obs::enabled() {
        neptune_obs::registry()
            .histogram("neptune_server_gate_wait_ns")
            .observe_duration(waited);
    }
}

/// Record one `neptune_server_rpc_ns{op=<variant>}` observation, bump the
/// error counter on failure responses, and emit slow-op traces. No-op when
/// instrumentation is disabled.
fn observe_rpc(op: &'static str, elapsed: Duration, response: &Response) {
    if !neptune_obs::enabled() {
        return;
    }
    observe_rpc_ns(op, elapsed);
    if matches!(response, Response::Error(_)) {
        neptune_obs::registry()
            .counter("neptune_server_rpc_errors_total")
            .inc();
    }
    neptune_obs::trace::emit("server.rpc", op, elapsed);
}

/// Observe `elapsed` in the `neptune_server_rpc_ns{op=<name>}` histogram.
/// Every request crosses this, lock-free reads included, so the handle is
/// resolved — a key string built, the registry locked and searched — once
/// per op name per connection thread and found in a thread-local table
/// after that.
fn observe_rpc_ns(op: &'static str, elapsed: Duration) {
    thread_local! {
        static BY_OP: RefCell<HashMap<&'static str, Arc<neptune_obs::Histogram>>> =
            RefCell::default();
    }
    BY_OP.with(|by_op| {
        let resolve = || {
            let key = neptune_obs::labeled("neptune_server_rpc_ns", "op", op);
            neptune_obs::registry().histogram(&key)
        };
        by_op
            .borrow_mut()
            .entry(op)
            .or_insert_with(resolve)
            .observe_duration(elapsed);
    })
}

/// [`execute_inner`]/[`execute_batch`] plus instrumentation: one
/// `neptune_server_rpc_ns{op=<variant>}` observation per request (batches
/// additionally record each element), an error counter, slow-op visibility
/// via the trace layer, and the request's causal-trace root span.
fn execute(shared: &Shared, conn_id: u64, conn: &mut ConnState, traced: TracedRequest) -> Response {
    let TracedRequest { context, request } = traced;
    let op = request.name();
    // Exactly one root span per request (machine-checked by the
    // `span-parent` lint): joins the client's trace when the frame carried
    // a context, originates a server-side trace otherwise.
    let root = neptune_obs::trace_tree::request_root(context, op);
    let start = Instant::now();
    let response = match request {
        Request::Batch(elements) => execute_batch(shared, conn_id, conn, elements),
        request => execute_inner(shared, conn_id, conn, request),
    };
    observe_rpc(op, start.elapsed(), &response);
    if matches!(response, Response::Error(_)) {
        neptune_obs::tag_error();
    }
    drop(root);
    response
}

/// Wait at the transaction gate until no *foreign* transaction is active,
/// honoring one fixed deadline across spurious wakeups. Returns the held
/// gate on success, or the timeout error response. The gate-wait histogram
/// is observed only when a wait actually happened, so its count is the
/// number of contended acquisitions.
fn wait_for_gate<'a>(
    shared: &'a Shared,
    conn_id: u64,
    deadline: Instant,
) -> std::result::Result<GateGuard<'a>, Box<Response>> {
    let mut gate = shared.lock_gate();
    if gate.txn_owner.is_some() && gate.txn_owner != Some(conn_id) {
        let wait_start = Instant::now();
        while gate.txn_owner.is_some() && gate.txn_owner != Some(conn_id) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                observe_gate_wait(wait_start.elapsed());
                count!("neptune_server_lock_timeouts_total");
                return Err(Box::new(Response::Error(
                    "timed out waiting for another client's transaction".into(),
                )));
            };
            // Condvar::wait_timeout needs the bare MutexGuard; the rank
            // token stays live across the wait (the thread holds nothing
            // else while blocked here), and the guard is rewrapped with it
            // on wakeup.
            let GateGuard { guard, held } = gate;
            let (guard, _) = shared
                .txn_released
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            gate = GateGuard { guard, held };
        }
        observe_gate_wait(wait_start.elapsed());
    }
    Ok(gate)
}

/// Execute a batch under a *single* gate check and one HAM lock
/// acquisition: the whole point of `Request::Batch` is amortizing that
/// cost over N operations. A batch is read-only iff every element is; one
/// mutating element routes the entire batch through the exclusive lock (in
/// order, preserving element semantics). Per-element results: a failing
/// element yields `Response::Error` in its slot and the rest still run.
/// Transaction control is per-connection state that a half-executed batch
/// could corrupt, so it is rejected per-element, as are nested batches.
fn execute_batch(
    shared: &Shared,
    conn_id: u64,
    conn: &mut ConnState,
    elements: Vec<Request>,
) -> Response {
    fn element_error(element: &Request) -> Option<Response> {
        match element {
            Request::BeginTransaction | Request::CommitTransaction | Request::AbortTransaction => {
                Some(Response::Error(
                    "transaction control is not allowed inside a batch".into(),
                ))
            }
            Request::Batch(_) => Some(Response::Error("nested batches are not allowed".into())),
            _ => None,
        }
    }
    if elements.iter().all(Request::is_read_only) && !conn.owns_txn {
        // Lock-free read batch: every element is served from one
        // commit-sequence-consistent multi-shard snapshot, so the batch is
        // internally consistent by construction — a cross-shard merge is
        // either entirely visible or entirely absent, and there is no
        // gate, no shard lock, and no waiting on a foreign transaction.
        let mv = shared.load_multi_view();
        let inflight = scoped_gauge!("neptune_server_read_ops_inflight");
        let mut responses = Vec::with_capacity(elements.len());
        let mut bounced = false;
        for element in &elements {
            if let Some(err) = element_error(element) {
                responses.push(err);
                continue;
            }
            let op = element.name();
            let start = Instant::now();
            let served = match element.context_id() {
                Some(context) => dispatch_read(mv.view_for(context), element.clone()),
                None => Ok(global_read(shared, &mv, element.clone())),
            };
            match served {
                Ok(response) => {
                    count!("neptune_server_reads_lockfree_total");
                    observe_rpc(op, start.elapsed(), &response);
                    responses.push(response);
                }
                Err(_) => {
                    // A nodeOpened demon must fire: rerun the whole batch
                    // on the write path. The reads already served are
                    // side-effect-free, so discarding them is safe.
                    bounced = true;
                    break;
                }
            }
        }
        if !bounced {
            return Response::Batch(responses);
        }
        drop(inflight);
        count!("neptune_server_read_bounces_total");
    }
    // Exclusive path: one gate wait and one writer registration amortized
    // over the whole batch — no explicit transaction can begin until every
    // element has run, and each element locks only its home shard, so a
    // mutating batch never blocks writers bound for other shards.
    let deadline = Instant::now() + shared.lock_timeout;
    let mut gate = match wait_for_gate(shared, conn_id, deadline) {
        Ok(gate) => gate,
        Err(response) => return *response,
    };
    let _inflight = scoped_gauge!("neptune_server_exclusive_ops_inflight");
    gate.active_writers += 1;
    drop(gate);
    let _writer = ActiveWriter { shared };
    let responses = elements
        .into_iter()
        .map(|element| {
            if let Some(err) = element_error(&element) {
                return err;
            }
            let op = element.name();
            let start = Instant::now();
            let response = dispatch_exclusive(shared, element);
            observe_rpc(op, start.elapsed(), &response);
            response
        })
        .collect();
    Response::Batch(responses)
}

/// Run one request under the transaction-ownership discipline.
///
/// Read-only requests from non-owners are served lock-free from the
/// published committed snapshot — no gate, no HAM lock, no waiting: an
/// open foreign transaction is simply invisible (readers see the last
/// committed state). Everything else — writes, transaction control, the
/// owner's own reads (read-your-writes), and reads that must fire a
/// `nodeOpened` demon — waits at the gate for any foreign transaction to
/// finish (one fixed deadline across spurious wakeups) and then takes the
/// exclusive lock.
fn execute_inner(
    shared: &Shared,
    conn_id: u64,
    conn: &mut ConnState,
    request: Request,
) -> Response {
    let mut request = request;
    if request.is_read_only() && !conn.owns_txn {
        let inflight = scoped_gauge!("neptune_server_read_ops_inflight");
        let served = match request.context_id() {
            Some(context) => {
                // Context-scoped read: one lock-free load of the home
                // shard's published snapshot.
                let view = shared.load_view(context);
                dispatch_read(&view, request)
            }
            None => {
                // Global read (ListContexts, Verify, …): assemble a
                // consistent multi-shard snapshot.
                let mv = shared.load_multi_view();
                Ok(global_read(shared, &mv, request))
            }
        };
        match served {
            Ok(response) => {
                count!("neptune_server_reads_lockfree_total");
                return response;
            }
            Err(bounced) => {
                // A nodeOpened demon must fire: retry on the write path.
                drop(inflight);
                count!("neptune_server_read_bounces_total");
                request = bounced;
            }
        }
    }
    let deadline = Instant::now() + shared.lock_timeout;
    let mut gate = match wait_for_gate(shared, conn_id, deadline) {
        Ok(gate) => gate,
        Err(response) => return *response,
    };
    match request {
        Request::BeginTransaction => {
            // Claim ownership first so no new standalone writer can
            // register, then drain the ones already in flight — the
            // transaction must observe (and exclude) every independent
            // shard commit that was admitted before it.
            let claimed = gate.txn_owner.is_none();
            if claimed {
                gate.txn_owner = Some(conn_id);
            }
            while gate.active_writers > 0 {
                let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                    if claimed {
                        gate.txn_owner = None;
                    }
                    drop(gate);
                    shared.txn_released.notify_all();
                    count!("neptune_server_lock_timeouts_total");
                    return Response::Error(
                        "timed out waiting for in-flight writes to drain".into(),
                    );
                };
                let GateGuard { guard, held } = gate;
                let (guard, _) = shared
                    .txn_released
                    .wait_timeout(guard, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                gate = GateGuard { guard, held };
            }
            return match shared.ham.begin_transaction() {
                Ok(id) => {
                    conn.owns_txn = true;
                    Response::TxnStarted(id)
                }
                Err(e) => {
                    if claimed {
                        gate.txn_owner = None;
                        drop(gate);
                        shared.txn_released.notify_all();
                    }
                    Response::Error(e.to_string())
                }
            };
        }
        Request::CommitTransaction | Request::AbortTransaction => {
            // Resync local state with the gate either way: if the server
            // force-aborted this connection's transaction, the gate is the
            // truth and `owns_txn` was stale.
            conn.owns_txn = false;
            if gate.txn_owner != Some(conn_id) {
                return Response::Error("no transaction owned by this connection".into());
            }
            let r = if matches!(request, Request::CommitTransaction) {
                shared.ham.commit_transaction()
            } else {
                shared.ham.abort_transaction()
            };
            gate.txn_owner = None;
            drop(gate);
            shared.txn_released.notify_all();
            return result_to_response(r.map(|_| Response::Ok));
        }
        _ => {}
    }
    // Standalone write (or the transaction owner's own operation): register
    // with the gate and release it *before* touching any shard, so writers
    // on disjoint shards validate, WAL-append, and publish concurrently.
    // The registration is what BeginTransaction drains, preserving an
    // explicit transaction's exclusivity without serializing everyone else.
    let _inflight = scoped_gauge!("neptune_server_exclusive_ops_inflight");
    gate.active_writers += 1;
    drop(gate);
    let _writer = ActiveWriter { shared };
    dispatch_exclusive(shared, request)
}

/// Decrements the gate's standalone-writer count on drop (panic-safe), and
/// wakes any `BeginTransaction` waiting for writers to drain.
struct ActiveWriter<'a> {
    shared: &'a Shared,
}

impl Drop for ActiveWriter<'_> {
    fn drop(&mut self) {
        let mut gate = self.shared.lock_gate();
        gate.active_writers = gate.active_writers.saturating_sub(1);
        drop(gate);
        self.shared.txn_released.notify_all();
    }
}

fn result_to_response(r: neptune_ham::Result<Response>) -> Response {
    match r {
        Ok(resp) => resp,
        Err(e) => Response::Error(e.to_string()),
    }
}

/// Age of the freshest shard snapshot — "time since the last commit
/// anywhere", which is what the staleness gauge means on a sharded store.
fn multi_view_age(mv: &MultiView) -> Duration {
    (0..mv.shard_count())
        .map(|k| mv.view(k).age())
        .min()
        .unwrap_or(Duration::ZERO)
}

/// Serve a read-only request that is not scoped to a single context
/// (`Request::context_id()` returned `None`) against a consistent
/// multi-shard snapshot. Infallible: none of these can bounce to the
/// exclusive path.
fn global_read(shared: &Shared, mv: &MultiView, request: Request) -> Response {
    use Request as Q;
    use Response as A;
    match request {
        Q::ListContexts => A::Contexts(mv.contexts()),
        // Verify scans on-disk files, which is only safe against quiescent
        // files — verify_sharded takes each shard's lock (one at a time)
        // for its scan phase, the one "read" here that is not lock-free.
        Q::Verify => A::Findings(neptune_check::verify_sharded(&shared.ham)),
        Q::CacheStats => cache_stats_response(),
        Q::Metrics => metrics_response(multi_view_age(mv)),
        Q::Ping => A::Ok,
        Q::FlightDump => flight_dump_response(),
        Q::Trace { trace_id } => trace_response(trace_id),
        Q::ObsControl { setting } => obs_control_response(setting),
        _ => A::Error("internal: non-global request routed to the global read path".into()),
    }
}

/// Dispatch on the exclusive path: machine-level operations go to the
/// sharded coordinator; context-scoped operations lock the context's home
/// shard and run against that machine alone. Callers have already passed
/// the gate (and either hold it or are registered as an active writer).
fn dispatch_exclusive(shared: &Shared, request: Request) -> Response {
    use Request as Q;
    use Response as A;
    match request {
        Q::CreateContext { from } => {
            result_to_response(shared.ham.create_context(from).map(A::Context))
        }
        Q::MergeContext { child, policy } => {
            result_to_response(shared.ham.merge_context(child, policy).map(A::Merged))
        }
        Q::DestroyContext { id } => {
            result_to_response(shared.ham.destroy_context(id).map(|_| A::Ok))
        }
        Q::Checkpoint => result_to_response(shared.ham.checkpoint().map(|_| A::Ok)),
        Q::ListContexts => A::Contexts(shared.ham.live_contexts()),
        Q::Verify => A::Findings(neptune_check::verify_sharded(&shared.ham)),
        Q::CacheStats => cache_stats_response(),
        Q::Metrics => metrics_response(multi_view_age(&shared.ham.multi_view())),
        Q::Ping => A::Ok,
        Q::FlightDump => flight_dump_response(),
        Q::Trace { trace_id } => trace_response(trace_id),
        Q::ObsControl { setting } => obs_control_response(setting),
        Q::BeginTransaction | Q::CommitTransaction | Q::AbortTransaction => {
            A::Error("internal: transaction control reached dispatch".into())
        }
        Q::Batch(..) => A::Error("internal: batch reached element dispatch".into()),
        request => {
            let Some(context) = request.context_id() else {
                return A::Error("internal: unrouted machine-scoped request".into());
            };
            match shared.ham.lock_home(context) {
                Ok(mut guard) => dispatch(&mut guard, request),
                Err(e) => A::Error(e.to_string()),
            }
        }
    }
}

/// Serve a read-only request against a published committed snapshot.
///
/// Returns `Err(request)` when the request turns out to need the exclusive
/// path after all (an `OpenNode` whose `nodeOpened` demon is registered —
/// firing a demon mutates state, so it cannot run against an immutable
/// view). The match is exhaustive so adding a `Request` variant forces an
/// explicit classification here as well as in [`Request::is_read_only`].
fn dispatch_read(view: &CommittedView, request: Request) -> std::result::Result<Response, Request> {
    use Request as Q;
    use Response as A;
    if let Q::OpenNode { context, node, .. } = &request {
        if view.open_demon_registered(*context, *node) {
            return Err(request);
        }
    }
    let result: neptune_ham::Result<Response> = (|| {
        Ok(match request {
            Q::LinearizeGraph {
                context,
                start,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                let np = parse_pred(&node_pred)?;
                let lp = parse_pred(&link_pred)?;
                A::SubGraph(view.linearize_graph(
                    context,
                    start,
                    time,
                    &np,
                    &lp,
                    &node_attrs,
                    &link_attrs,
                )?)
            }
            Q::GetGraphQuery {
                context,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                let np = parse_pred(&node_pred)?;
                let lp = parse_pred(&link_pred)?;
                A::SubGraph(view.get_graph_query(
                    context,
                    time,
                    &np,
                    &lp,
                    &node_attrs,
                    &link_attrs,
                )?)
            }
            Q::OpenNode {
                context,
                node,
                time,
                attrs,
            } => {
                let opened = view.read_node(context, node, time, &attrs)?;
                A::Opened {
                    contents: opened.contents,
                    link_pts: opened.link_pts,
                    values: opened.values,
                    current_time: opened.current_time,
                }
            }
            Q::GetNodeTimeStamp { context, node } => {
                A::Time(view.get_node_time_stamp(context, node)?)
            }
            Q::GetNodeVersions { context, node } => {
                let (major, minor) = view.get_node_versions(context, node)?;
                A::Versions(major, minor)
            }
            Q::GetNodeDifferences {
                context,
                node,
                time1,
                time2,
            } => A::Differences(view.get_node_differences(context, node, time1, time2)?),
            Q::GetToNode {
                context,
                link,
                time,
            } => {
                let (n, t) = view.get_to_node(context, link, time)?;
                A::NodeAt(n, t)
            }
            Q::GetFromNode {
                context,
                link,
                time,
            } => {
                let (n, t) = view.get_from_node(context, link, time)?;
                A::NodeAt(n, t)
            }
            Q::GetAttributes { context, time } => {
                A::Attributes(view.get_attributes(context, time)?)
            }
            Q::GetAttributeValues {
                context,
                attr,
                time,
            } => A::Values(view.get_attribute_values(context, attr, time)?),
            Q::GetNodeAttributeValue {
                context,
                node,
                attr,
                time,
            } => A::Value(view.get_node_attribute_value(context, node, attr, time)?),
            Q::GetNodeAttributes {
                context,
                node,
                time,
            } => A::AttrTriples(view.get_node_attributes(context, node, time)?),
            Q::GetLinkAttributeValue {
                context,
                link,
                attr,
                time,
            } => A::Value(view.get_link_attribute_value(context, link, attr, time)?),
            Q::GetLinkAttributes {
                context,
                link,
                time,
            } => A::AttrTriples(view.get_link_attributes(context, link, time)?),
            Q::GetGraphDemons { context, time } => A::Demons(view.get_graph_demons(context, time)?),
            Q::GetNodeDemons {
                context,
                node,
                time,
            } => A::Demons(view.get_node_demons(context, node, time)?),
            Q::ListContexts => A::Contexts(view.contexts()),
            Q::Ping => A::Ok,
            Q::Verify => A::Findings(neptune_check::verify_view(view)),
            Q::CacheStats => cache_stats_response(),
            Q::Metrics => metrics_response(view.age()),
            Q::FlightDump => flight_dump_response(),
            Q::Trace { trace_id } => trace_response(trace_id),
            Q::ObsControl { setting } => obs_control_response(setting),
            Q::AddNode { .. }
            | Q::DeleteNode { .. }
            | Q::AddLink { .. }
            | Q::CopyLink { .. }
            | Q::DeleteLink { .. }
            | Q::ModifyNode { .. }
            | Q::ChangeNodeProtection { .. }
            | Q::GetAttributeIndex { .. }
            | Q::SetNodeAttributeValue { .. }
            | Q::DeleteNodeAttribute { .. }
            | Q::SetLinkAttributeValue { .. }
            | Q::DeleteLinkAttribute { .. }
            | Q::SetGraphDemonValue { .. }
            | Q::SetNodeDemon { .. }
            | Q::BeginTransaction
            | Q::CommitTransaction
            | Q::AbortTransaction
            | Q::CreateContext { .. }
            | Q::MergeContext { .. }
            | Q::DestroyContext { .. }
            | Q::Checkpoint => {
                // Unreachable by Request::is_read_only's classification,
                // but a misrouted request must degrade to an error the
                // client can read, not a panic (DESIGN.md §13).
                A::Error("internal: mutating request routed to the read dispatcher".into())
            }
            Q::Batch(..) => A::Error("internal: batch routed to the read dispatcher".into()),
        })
    })();
    Ok(result_to_response(result))
}

/// The anchor caches' process-wide counters: they live inside the archives,
/// so no view, shard or lock is involved in reading them.
fn cache_stats_response() -> Response {
    let s = neptune_storage::archive::anchor_stats();
    Response::CacheStats {
        hits: s.hits,
        misses: s.misses,
        entries: s.entries,
        bytes: s.bytes,
    }
}

/// Snapshot the metrics registry as Prometheus text. Snapshot age is
/// derived state, so its gauge is refreshed here at scrape time rather
/// than on every publish.
fn metrics_response(snapshot_age: Duration) -> Response {
    let registry = neptune_obs::registry();
    registry
        .gauge("neptune_ham_snapshot_age_ns")
        .set(snapshot_age.as_nanos().min(i64::MAX as u128) as i64);
    Response::Metrics(registry.expose())
}

/// Translate a request into a HAM call (exclusive path).
fn dispatch(ham: &mut Ham, request: Request) -> Response {
    use Request as Q;
    use Response as A;
    let result: neptune_ham::Result<Response> = (|| {
        Ok(match request {
            Q::AddNode {
                context,
                keep_history,
            } => {
                let (id, t) = ham.add_node(context, keep_history)?;
                A::NodeCreated(id, t)
            }
            Q::DeleteNode { context, node } => {
                ham.delete_node(context, node)?;
                A::Ok
            }
            Q::AddLink { context, from, to } => {
                let (id, t) = ham.add_link(context, from, to)?;
                A::LinkCreated(id, t)
            }
            Q::CopyLink {
                context,
                link,
                time,
                keep_source,
                pt,
            } => {
                let (id, t) = ham.copy_link(context, link, time, keep_source, pt)?;
                A::LinkCreated(id, t)
            }
            Q::DeleteLink { context, link } => {
                ham.delete_link(context, link)?;
                A::Ok
            }
            Q::LinearizeGraph {
                context,
                start,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                let np = parse_pred(&node_pred)?;
                let lp = parse_pred(&link_pred)?;
                A::SubGraph(ham.linearize_graph(
                    context,
                    start,
                    time,
                    &np,
                    &lp,
                    &node_attrs,
                    &link_attrs,
                )?)
            }
            Q::GetGraphQuery {
                context,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                let np = parse_pred(&node_pred)?;
                let lp = parse_pred(&link_pred)?;
                A::SubGraph(ham.get_graph_query(
                    context,
                    time,
                    &np,
                    &lp,
                    &node_attrs,
                    &link_attrs,
                )?)
            }
            Q::OpenNode {
                context,
                node,
                time,
                attrs,
            } => {
                let opened = ham.open_node(context, node, time, &attrs)?;
                A::Opened {
                    contents: opened.contents,
                    link_pts: opened.link_pts,
                    values: opened.values,
                    current_time: opened.current_time,
                }
            }
            Q::ModifyNode {
                context,
                node,
                time,
                contents,
                link_pts,
            } => A::Time(ham.modify_node(context, node, time, contents, &link_pts)?),
            Q::GetNodeTimeStamp { context, node } => {
                A::Time(ham.get_node_time_stamp(context, node)?)
            }
            Q::ChangeNodeProtection {
                context,
                node,
                protections,
            } => {
                ham.change_node_protection(context, node, protections)?;
                A::Ok
            }
            Q::GetNodeVersions { context, node } => {
                let (major, minor) = ham.get_node_versions(context, node)?;
                A::Versions(major, minor)
            }
            Q::GetNodeDifferences {
                context,
                node,
                time1,
                time2,
            } => A::Differences(ham.get_node_differences(context, node, time1, time2)?),
            Q::GetToNode {
                context,
                link,
                time,
            } => {
                let (n, t) = ham.get_to_node(context, link, time)?;
                A::NodeAt(n, t)
            }
            Q::GetFromNode {
                context,
                link,
                time,
            } => {
                let (n, t) = ham.get_from_node(context, link, time)?;
                A::NodeAt(n, t)
            }
            Q::GetAttributes { context, time } => A::Attributes(ham.get_attributes(context, time)?),
            Q::GetAttributeValues {
                context,
                attr,
                time,
            } => A::Values(ham.get_attribute_values(context, attr, time)?),
            Q::GetAttributeIndex { context, name } => {
                A::AttrIndex(ham.get_attribute_index(context, &name)?)
            }
            Q::SetNodeAttributeValue {
                context,
                node,
                attr,
                value,
            } => {
                ham.set_node_attribute_value(context, node, attr, value)?;
                A::Ok
            }
            Q::DeleteNodeAttribute {
                context,
                node,
                attr,
            } => {
                ham.delete_node_attribute(context, node, attr)?;
                A::Ok
            }
            Q::GetNodeAttributeValue {
                context,
                node,
                attr,
                time,
            } => A::Value(ham.get_node_attribute_value(context, node, attr, time)?),
            Q::GetNodeAttributes {
                context,
                node,
                time,
            } => A::AttrTriples(ham.get_node_attributes(context, node, time)?),
            Q::SetLinkAttributeValue {
                context,
                link,
                attr,
                value,
            } => {
                ham.set_link_attribute_value(context, link, attr, value)?;
                A::Ok
            }
            Q::DeleteLinkAttribute {
                context,
                link,
                attr,
            } => {
                ham.delete_link_attribute(context, link, attr)?;
                A::Ok
            }
            Q::GetLinkAttributeValue {
                context,
                link,
                attr,
                time,
            } => A::Value(ham.get_link_attribute_value(context, link, attr, time)?),
            Q::GetLinkAttributes {
                context,
                link,
                time,
            } => A::AttrTriples(ham.get_link_attributes(context, link, time)?),
            Q::SetGraphDemonValue {
                context,
                event,
                demon,
            } => {
                ham.set_graph_demon_value(context, event, demon)?;
                A::Ok
            }
            Q::GetGraphDemons { context, time } => A::Demons(ham.get_graph_demons(context, time)?),
            Q::SetNodeDemon {
                context,
                node,
                event,
                demon,
            } => {
                ham.set_node_demon(context, node, event, demon)?;
                A::Ok
            }
            Q::GetNodeDemons {
                context,
                node,
                time,
            } => A::Demons(ham.get_node_demons(context, node, time)?),
            Q::CreateContext { .. }
            | Q::MergeContext { .. }
            | Q::DestroyContext { .. }
            | Q::ListContexts
            | Q::Checkpoint
            | Q::Verify
            | Q::CacheStats
            | Q::Metrics
            | Q::FlightDump
            | Q::Trace { .. }
            | Q::ObsControl { .. } => {
                // Machine-level operations must go through the sharded
                // coordinator (`dispatch_exclusive` intercepts them before
                // this per-shard dispatcher); running one against a single
                // shard would corrupt the global context-id space.
                A::Error("internal: machine-scoped request routed to a single shard".into())
            }
            Q::Ping => A::Ok,
            Q::BeginTransaction | Q::CommitTransaction | Q::AbortTransaction => {
                // execute_inner consumes these before dispatch; degrade to
                // an error rather than panicking if that routing changes.
                A::Error("internal: transaction control reached dispatch".into())
            }
            Q::Batch(..) => A::Error("internal: batch reached element dispatch".into()),
        })
    })();
    result_to_response(result)
}

/// Serve [`Request::FlightDump`]: snapshot every retained trace. Touches
/// only process-global observability state (as do the two helpers below),
/// so both dispatchers route here and neither needs the HAM.
fn flight_dump_response() -> Response {
    let traces = neptune_obs::recorder()
        .dump()
        .iter()
        .map(|t| (**t).clone())
        .collect();
    Response::Traces(traces)
}

/// Serve [`Request::Trace`]: zero or one retained trace by id.
fn trace_response(trace_id: u64) -> Response {
    let traces = neptune_obs::recorder()
        .find(trace_id)
        .map(|t| (*t).clone())
        .into_iter()
        .collect();
    Response::Traces(traces)
}

/// Serve [`Request::ObsControl`]: apply a runtime observability setting.
fn obs_control_response(setting: ObsSetting) -> Response {
    match setting {
        ObsSetting::SlowOpMs(ms) => {
            neptune_obs::set_slow_op_threshold(ms.map(Duration::from_millis));
        }
        ObsSetting::Enabled(on) => neptune_obs::registry().set_enabled(on),
    }
    Response::Ok
}

fn parse_pred(text: &str) -> neptune_ham::Result<Predicate> {
    Predicate::parse(text).map_err(|message| neptune_ham::HamError::BadPredicate { message })
}

/// Convenience for servers and tests: the Time the HAM currently reports
/// for a context's clock.
pub fn graph_now(ham: &Ham, context: neptune_ham::types::ContextId) -> neptune_ham::Result<Time> {
    Ok(ham.graph(context)?.now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::types::Protections;

    fn test_shared(name: &str) -> Shared {
        let dir =
            std::env::temp_dir().join(format!("neptune-lockcheck-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        Shared {
            ham: ShardedHam::from_ham(ham),
            gate: Mutex::new(Gate {
                txn_owner: None,
                active_writers: 0,
            }),
            txn_released: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            lock_timeout: Duration::from_millis(100),
        }
    }

    #[test]
    fn guards_follow_declared_order() {
        let shared = test_shared("ordered");
        // The server's canonical sequence: gate, then home shard, gate
        // released first. Must not trip the dynamic checker.
        let gate = shared.lock_gate();
        let shard = shared.ham.lock_home(neptune_ham::MAIN_CONTEXT).unwrap();
        drop(gate);
        drop(shard);
        // A view load while holding nothing is always legal.
        let view = shared.load_view(neptune_ham::MAIN_CONTEXT);
        let gate = shared.lock_gate();
        drop(gate);
        drop(view);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock-order violation"))]
    fn inverted_guard_acquisition_panics() {
        let shared = test_shared("inverted");
        // Deliberate hierarchy inversion: shard before gate. In debug
        // builds the lockcheck token panics before `gate.lock()` can
        // deadlock.
        let _shard = shared.ham.lock_home(neptune_ham::MAIN_CONTEXT).unwrap();
        let _gate = shared.lock_gate();
        #[cfg(not(debug_assertions))]
        panic!("lock-order violation (tracker compiled out)");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "lock-order violation"))]
    fn view_load_under_gate_panics() {
        let shared = test_shared("view-under-gate");
        // A snapshot load must happen before any server lock: loading
        // while holding the gate would hide a blocking dependency inside
        // the "lock-free" path.
        let _gate = shared.lock_gate();
        let _view = shared.load_view(neptune_ham::MAIN_CONTEXT);
        #[cfg(not(debug_assertions))]
        panic!("lock-order violation (tracker compiled out)");
    }
}
