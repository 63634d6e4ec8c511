//! The traced run: where the time of a workload goes, layer by layer,
//! measured from outside the program.
//!
//! Three mechanisms, none of which edits the program:
//!
//! * **live boundaries** — the load threads time every request, and
//!   [`ProbeVfs`](crate::probe_vfs) counts and times every durable-path
//!   call, while the public `Metrics` and `CacheStats` requests are scraped
//!   before and after;
//! * **replay** — the same seeded script is run single-threaded against a
//!   copy of the store through each layer's public functions
//!   ([`InProc`]), the recorded requests and replies go through `Encode` /
//!   `Decode` and `FrameBuf` on memory, and a standalone `Archive` is fed
//!   one node's version stream;
//! * **subtraction** — wire median minus in-process median of the same
//!   requests is what client, protocol, framing, TCP and dispatch cost.
//!
//! The measured phase has four quarters: plain, recorded, with the
//! program's own instrumentation switched off, and plain again. The layer
//! numbers come from the recorded quarter; its throughput, and the dark
//! quarter's, over that of the two plain quarters around them (so that a
//! store slowing down as it grows cancels out) are the cost of recording
//! and of the instrumentation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use neptune_ham::types::ContextId;
use neptune_ham::{Predicate, ShardedHam};
use neptune_server::frame::FrameBuf;
use neptune_server::{Request, Response, TracedRequest};
use neptune_storage::codec::{Decode, Encode};
use neptune_storage::Archive;

use crate::gen::Rng;
use crate::json::Json;
use crate::model::VersionChain;
use crate::probe_vfs::{now_ns, FileClass, ProbeStats, ProbeVfs, VfsSpan};
use crate::run::{
    copy_dir, drive_sliced, durability, final_checks, metric, prepare, set_up, tear_down, Args,
    DirGuard, Metric, Outcome, Slice, Totals, CHECKPOINT_ROUNDS,
};
use crate::stats::p50_p99;
use crate::workload::{Backend, Kind, OpSpan, Recording, Session, Workload, HIST_VERSIONS};

/// Spans of each source kept in the trace file.
const TRACE_FILE_SPANS: usize = 5000;
/// Longest the in-process replay runs.
const REPLAY_SECONDS: f64 = 2.5;

/// Sum and count per named step.
#[derive(Debug, Default)]
struct LayerTimes(BTreeMap<&'static str, (u64, u64)>);

impl LayerTimes {
    fn add(&mut self, name: &'static str, amount: u64) {
        let e = self.0.entry(name).or_default();
        e.0 += amount;
        e.1 += 1;
    }

    /// Mean per occurrence; zero when the step never ran.
    fn mean(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(&(sum, count)) if count > 0 => sum as f64 / count as f64,
            _ => 0.0,
        }
    }
}

/// A step of one in-process request, for the trace file.
#[derive(Debug, Clone)]
struct StepSpan {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the request it belongs to.
    op: usize,
    root: bool,
}

/// Answers requests by calling the layers directly: published views for
/// reads, the home shard's machine for writes. What the server does between
/// the socket and these calls is exactly what this leaves out.
struct InProc {
    ham: Arc<ShardedHam>,
    probe: Arc<ProbeStats>,
    layers: LayerTimes,
    steps: Vec<StepSpan>,
    calls: usize,
    /// Where `layers` and `steps` go when the session drops its backend.
    sink: Arc<Mutex<(LayerTimes, Vec<StepSpan>)>>,
}

impl Drop for InProc {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            *sink = (
                std::mem::take(&mut self.layers),
                std::mem::take(&mut self.steps),
            );
        }
    }
}

fn reply<T>(
    result: Result<T, neptune_ham::HamError>,
    wrap: impl FnOnce(T) -> Response,
) -> Response {
    match result {
        Ok(v) => wrap(v),
        Err(e) => Response::Error(e.to_string()),
    }
}

impl InProc {
    /// The backend, and where its measurements appear once it is dropped.
    #[allow(clippy::type_complexity)]
    fn new(
        ham: Arc<ShardedHam>,
        probe: Arc<ProbeStats>,
    ) -> (InProc, Arc<Mutex<(LayerTimes, Vec<StepSpan>)>>) {
        let sink = Arc::new(Mutex::default());
        let backend = InProc {
            ham,
            probe,
            layers: LayerTimes::default(),
            steps: Vec::new(),
            calls: 0,
            sink: Arc::clone(&sink),
        };
        (backend, sink)
    }

    fn step(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.layers.add(name, end_ns - start_ns);
        if self.steps.len() < TRACE_FILE_SPANS {
            self.steps.push(StepSpan {
                name,
                start_ns,
                end_ns,
                op: self.calls,
                root: false,
            });
        }
    }

    /// A read: load the home shard's published view, then `f` on it.
    fn read(
        &mut self,
        context: ContextId,
        name: &'static str,
        f: impl FnOnce(&neptune_ham::CommittedView) -> Response,
    ) -> Response {
        let t0 = now_ns();
        let view = self.ham.read_view(context);
        let t1 = now_ns();
        let response = f(&view);
        let t2 = now_ns();
        self.step("view.load", t0, t1);
        self.step(name, t1, t2);
        response
    }

    /// A write: lock the home shard, then `f` on its machine. The layer's
    /// CPU is the call's wall time minus the time the probe saw it spend in
    /// the filesystem.
    fn write(
        &mut self,
        context: ContextId,
        name: &'static str,
        f: impl FnOnce(&mut neptune_ham::Ham) -> Response,
    ) -> Response {
        let t0 = now_ns();
        let mut guard = match self.ham.lock_home(context) {
            Ok(guard) => guard,
            Err(e) => return Response::Error(e.to_string()),
        };
        let t1 = now_ns();
        let io0 = self.probe.busy_ns();
        let response = f(&mut guard);
        let t2 = now_ns();
        let io = self.probe.busy_ns() - io0;
        drop(guard);
        self.step("shard.lock_home", t0, t1);
        self.layers.add(name, (t2 - t1).saturating_sub(io));
        self.step("ham.op", t1, t2);
        response
    }

    /// A machine-level operation, timed whole.
    fn machine(&mut self, name: &'static str, f: impl FnOnce(&ShardedHam) -> Response) -> Response {
        let t0 = now_ns();
        let response = f(&self.ham);
        let t1 = now_ns();
        self.step(name, t0, t1);
        response
    }

    fn dispatch(&mut self, request: Request) -> Response {
        use Request as Q;
        use Response as A;
        match request {
            Q::OpenNode {
                context,
                node,
                time,
                attrs,
            } => {
                let name = if time.is_current() {
                    "view.read_node"
                } else {
                    "view.read_node_hist"
                };
                self.read(context, name, |v| {
                    reply(v.read_node(context, node, time, &attrs), |o| A::Opened {
                        contents: o.contents,
                        link_pts: o.link_pts,
                        values: o.values,
                        current_time: o.current_time,
                    })
                })
            }
            Q::GetNodeAttributes {
                context,
                node,
                time,
            } => self.read(context, "view.get_node_attributes", |v| {
                reply(v.get_node_attributes(context, node, time), A::AttrTriples)
            }),
            Q::GetToNode {
                context,
                link,
                time,
            } => self.read(context, "view.link_end", |v| {
                reply(v.get_to_node(context, link, time), |(n, t)| A::NodeAt(n, t))
            }),
            Q::GetFromNode {
                context,
                link,
                time,
            } => self.read(context, "view.link_end", |v| {
                reply(v.get_from_node(context, link, time), |(n, t)| {
                    A::NodeAt(n, t)
                })
            }),
            Q::GetNodeVersions { context, node } => {
                self.read(context, "view.get_node_versions", |v| {
                    reply(v.get_node_versions(context, node), |(major, minor)| {
                        A::Versions(major, minor)
                    })
                })
            }
            Q::GetNodeDifferences {
                context,
                node,
                time1,
                time2,
            } => self.read(context, "view.get_node_differences", |v| {
                reply(
                    v.get_node_differences(context, node, time1, time2),
                    A::Differences,
                )
            }),
            Q::LinearizeGraph {
                context,
                start,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                let response = self.read(context, "query.linearize", |v| {
                    let (Ok(np), Ok(lp)) =
                        (Predicate::parse(&node_pred), Predicate::parse(&link_pred))
                    else {
                        return A::Error("bad predicate".into());
                    };
                    reply(
                        v.linearize_graph(context, start, time, &np, &lp, &node_attrs, &link_attrs),
                        A::SubGraph,
                    )
                });
                self.count_results(&response);
                response
            }
            Q::GetGraphQuery {
                context,
                time,
                node_pred,
                link_pred,
                node_attrs,
                link_attrs,
            } => {
                let response = self.read(context, "query.graph_query", |v| {
                    let (Ok(np), Ok(lp)) =
                        (Predicate::parse(&node_pred), Predicate::parse(&link_pred))
                    else {
                        return A::Error("bad predicate".into());
                    };
                    reply(
                        v.get_graph_query(context, time, &np, &lp, &node_attrs, &link_attrs),
                        A::SubGraph,
                    )
                });
                self.count_results(&response);
                response
            }
            Q::ModifyNode {
                context,
                node,
                time,
                contents,
                link_pts,
            } => self.write(context, "ham.modify_node_cpu", |g| {
                reply(
                    g.modify_node(context, node, time, contents, &link_pts),
                    A::Time,
                )
            }),
            Q::SetNodeAttributeValue {
                context,
                node,
                attr,
                value,
            } => self.write(context, "ham.set_attr_cpu", |g| {
                reply(
                    g.set_node_attribute_value(context, node, attr, value),
                    |()| A::Ok,
                )
            }),
            Q::AddNode {
                context,
                keep_history,
            } => self.write(context, "ham.add_node_cpu", |g| {
                reply(g.add_node(context, keep_history), |(id, t)| {
                    A::NodeCreated(id, t)
                })
            }),
            Q::AddLink { context, from, to } => self.write(context, "ham.add_link_cpu", |g| {
                reply(g.add_link(context, from, to), |(id, t)| {
                    A::LinkCreated(id, t)
                })
            }),
            Q::BeginTransaction => self.machine("ham.begin_txn", |h| {
                reply(h.begin_transaction(), A::TxnStarted)
            }),
            Q::CommitTransaction => {
                let io0 = self.probe.busy_ns();
                let t0 = now_ns();
                let response = reply(self.ham.commit_transaction(), |()| A::Ok);
                let t1 = now_ns();
                let io = self.probe.busy_ns() - io0;
                self.layers
                    .add("ham.commit_txn_cpu", (t1 - t0).saturating_sub(io));
                self.step("ham.commit_txn", t0, t1);
                response
            }
            Q::CreateContext { from } => self.machine("ham.create_context", |h| {
                reply(h.create_context(from), A::Context)
            }),
            Q::MergeContext { child, policy } => self.machine("ham.merge_context", |h| {
                reply(h.merge_context(child, policy), A::Merged)
            }),
            Q::DestroyContext { id } => self.machine("ham.destroy_context", |h| {
                reply(h.destroy_context(id), |()| A::Ok)
            }),
            other => A::Error(format!("in-process replay has no {}", other.name())),
        }
    }

    fn count_results(&mut self, response: &Response) {
        if let Response::SubGraph(sg) = response {
            self.layers.add("query.results", sg.nodes.len() as u64);
        }
    }
}

impl Backend for InProc {
    fn call(&mut self, request: Request) -> Response {
        let name = request.name();
        let t0 = now_ns();
        let response = self.dispatch(request);
        let t1 = now_ns();
        if self.steps.len() < TRACE_FILE_SPANS {
            self.steps.push(StepSpan {
                name,
                start_ns: t0,
                end_ns: t1,
                op: self.calls,
                root: true,
            });
        }
        self.calls += 1;
        response
    }
}

/// The public `Metrics` exposition as `key -> value`, histogram buckets
/// left out.
fn scrape(session: &mut Session) -> BTreeMap<String, f64> {
    let Response::Metrics(text) = session.control(Request::Metrics) else {
        return BTreeMap::new();
    };
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains("_bucket"))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Growth between two scrapes of every key starting with `prefix`.
fn grew(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, prefix: &str) -> f64 {
    after
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0.0))
        .fold(0.0, |sum, d| sum + d)
}

fn cache_stats(session: &mut Session) -> (u64, u64, u64, u64) {
    match session.control(Request::CacheStats) {
        Response::CacheStats {
            hits,
            misses,
            entries,
            bytes,
        } => (hits, misses, entries, bytes),
        _ => (0, 0, 0, 0),
    }
}

/// Mean nanoseconds per message of the codec and of framing, replayed over
/// recorded traffic on memory buffers.
#[derive(Debug, Default)]
struct CodecCosts {
    req_encode_ns: f64,
    req_decode_ns: f64,
    resp_encode_ns: f64,
    resp_decode_ns: f64,
    req_bytes_mean: f64,
    resp_bytes_mean: f64,
    frame_write_ns: f64,
    frame_read_ns: f64,
}

/// Mean ns per item of `f` over `items`, repeated until a quarter second
/// has been measured so short recordings still give a steady mean.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < 0.25 {
        items.iter().for_each(&mut f);
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes * items.len() as u64) as f64
}

fn codec_costs(exchanges: &[(Request, Response)]) -> CodecCosts {
    use std::hint::black_box;
    let requests: Vec<TracedRequest> = exchanges
        .iter()
        .map(|(q, _)| TracedRequest::from(q.clone()))
        .collect();
    let responses: Vec<&Response> = exchanges.iter().map(|(_, a)| a).collect();
    let req_bytes: Vec<Vec<u8>> = requests.iter().map(Encode::to_bytes).collect();
    let resp_bytes: Vec<Vec<u8>> = responses.iter().map(|a| a.to_bytes()).collect();
    let frame = |bytes_of: &dyn Fn(&mut FrameBuf, &mut Vec<u8>)| {
        let (mut frames, mut wire) = (FrameBuf::new(), Vec::new());
        bytes_of(&mut frames, &mut wire);
        wire
    };
    let req_frames: Vec<Vec<u8>> = requests
        .iter()
        .map(|q| frame(&|f, w| f.write_frame(w, q).expect("frame to memory")))
        .collect();
    let resp_frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|a| frame(&|f, w| f.write_frame(w, *a).expect("frame to memory")))
        .collect();

    let mean_len =
        |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64 / v.len().max(1) as f64;
    let mut c = CodecCosts {
        req_encode_ns: mean_ns(&requests, |q| {
            black_box(black_box(q).to_bytes());
        }),
        req_decode_ns: mean_ns(&req_bytes, |b| {
            black_box(TracedRequest::from_bytes(black_box(b)).expect("decode"));
        }),
        resp_encode_ns: mean_ns(&responses, |a| {
            black_box(black_box(a).to_bytes());
        }),
        resp_decode_ns: mean_ns(&resp_bytes, |b| {
            black_box(Response::from_bytes(black_box(b)).expect("decode"));
        }),
        req_bytes_mean: mean_len(&req_bytes),
        resp_bytes_mean: mean_len(&resp_bytes),
        ..CodecCosts::default()
    };
    // Framing's own share: the framed call minus the codec call inside it,
    // averaged over requests and replies.
    let (mut frames, mut sink) = (FrameBuf::new(), Vec::new());
    let write_req = mean_ns(&requests, |q| {
        sink.clear();
        frames.write_frame(&mut sink, black_box(q)).expect("frame");
    });
    let write_resp = mean_ns(&responses, |a| {
        sink.clear();
        frames.write_frame(&mut sink, black_box(*a)).expect("frame");
    });
    let read_req = mean_ns(&req_frames, |w| {
        black_box(
            frames
                .read_frame::<_, TracedRequest>(&mut &w[..])
                .expect("frame"),
        );
    });
    let read_resp = mean_ns(&resp_frames, |w| {
        black_box(
            frames
                .read_frame::<_, Response>(&mut &w[..])
                .expect("frame"),
        );
    });
    c.frame_write_ns =
        ((write_req - c.req_encode_ns).max(0.0) + (write_resp - c.resp_encode_ns).max(0.0)) / 2.0;
    c.frame_read_ns =
        ((read_req - c.req_decode_ns).max(0.0) + (read_resp - c.resp_decode_ns).max(0.0)) / 2.0;
    c
}

/// One node's version stream for the standalone archive: the most edited
/// node of the recording, or on `history_read` the generator's own chain.
fn version_stream(args: &Args, exchanges: &[(Request, Response)]) -> Vec<Arc<[u8]>> {
    if args.workload == Workload::HistoryRead {
        let mut chain = VersionChain::new(args.seed, 0);
        let mut stream = vec![Arc::from(chain.body())];
        stream.extend((1..HIST_VERSIONS).map(|_| Arc::from(chain.advance())));
        return stream;
    }
    let mut by_node: BTreeMap<u64, Vec<Arc<[u8]>>> = BTreeMap::new();
    for (request, _) in exchanges {
        if let Request::ModifyNode { node, contents, .. } = request {
            by_node
                .entry(node.0)
                .or_default()
                .push(Arc::from(&contents[..]));
        }
    }
    by_node
        .into_values()
        .max_by_key(Vec::len)
        .unwrap_or_default()
}

/// `(check-in µs, checkout µs)` of a standalone archive fed `stream`.
fn archive_costs(stream: &[Arc<[u8]>], seed: u64) -> (f64, f64) {
    let Some((first, rest)) = stream.split_first() else {
        return (0.0, 0.0);
    };
    let mut archive = Archive::new(Arc::clone(first), 1);
    let start = Instant::now();
    for (i, version) in rest.iter().enumerate() {
        archive
            .checkin(Arc::clone(version), i as u64 + 2)
            .expect("archive check-in");
    }
    let checkin = start.elapsed().as_secs_f64() * 1e6 / rest.len().max(1) as f64;
    let mut rng = Rng::lane(seed, 0xa4c1);
    let picks: Vec<u64> = (0..2000)
        .map(|_| 1 + rng.below(stream.len() as u64))
        .collect();
    let start = Instant::now();
    for &t in &picks {
        std::hint::black_box(archive.checkout(t).expect("archive checkout"));
    }
    let checkout = start.elapsed().as_secs_f64() * 1e6 / picks.len() as f64;
    (checkin, checkout)
}

fn span_json(
    id: usize,
    parent: Option<usize>,
    op: Option<usize>,
    name: &str,
    start: u64,
    end: u64,
) -> Json {
    let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
    Json::Obj(vec![
        ("id".into(), Json::Num(id as f64)),
        ("parent".into(), opt(parent)),
        ("op".into(), opt(op)),
        ("name".into(), Json::Str(name.into())),
        ("start_ns".into(), Json::Num(start as f64)),
        ("end_ns".into(), Json::Num(end as f64)),
    ])
}

/// Write `trace_<workload>.json`: client spans of the recorded quarter, the
/// filesystem spans under them, and the steps of the in-process replay with
/// the filesystem calls each one made. One clock; spans of one request
/// share `op`.
fn write_trace_file(
    args: &Args,
    client: &[OpSpan],
    vfs: &[VfsSpan],
    replay: &[StepSpan],
    replay_vfs: &[VfsSpan],
) -> Result<(), String> {
    let mut spans = Vec::new();
    for (op, s) in client.iter().take(TRACE_FILE_SPANS).enumerate() {
        let name = format!("client.{}", s.kind.name());
        spans.push(span_json(
            spans.len(),
            None,
            Some(op),
            &name,
            s.start_ns,
            s.end_ns,
        ));
    }
    let vfs_name = |s: &VfsSpan| format!("{}.{:?}", s.name, s.class).to_lowercase();
    for s in vfs.iter().take(TRACE_FILE_SPANS) {
        // Server threads made these; from outside no request can be named.
        spans.push(span_json(
            spans.len(),
            None,
            None,
            &vfs_name(s),
            s.start_ns,
            s.end_ns,
        ));
    }
    let base = 1_000_000;
    let mut root_of_op = BTreeMap::new();
    for s in replay.iter().filter(|s| s.root) {
        root_of_op.insert(s.op, spans.len());
        let name = format!("inproc.{}", s.name);
        spans.push(span_json(
            spans.len(),
            None,
            Some(base + s.op),
            &name,
            s.start_ns,
            s.end_ns,
        ));
    }
    for s in replay.iter().filter(|s| !s.root) {
        let parent = root_of_op.get(&s.op).copied();
        spans.push(span_json(
            spans.len(),
            parent,
            Some(base + s.op),
            s.name,
            s.start_ns,
            s.end_ns,
        ));
    }
    // The replay is single-threaded: a filesystem call inside a request's
    // interval was made by that request.
    let roots: Vec<&StepSpan> = replay.iter().filter(|s| s.root).collect();
    for s in replay_vfs.iter().take(TRACE_FILE_SPANS) {
        let owner = roots
            .iter()
            .find(|r| r.start_ns <= s.start_ns && s.end_ns <= r.end_ns);
        let parent = owner.and_then(|r| root_of_op.get(&r.op).copied());
        let op = owner.map(|r| base + r.op);
        spans.push(span_json(
            spans.len(),
            parent,
            op,
            &vfs_name(s),
            s.start_ns,
            s.end_ns,
        ));
    }
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.name().into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("clock".into(), Json::Str("ns since process start".into())),
        ("spans".into(), Json::Arr(spans)),
    ]);
    let path = args
        .out
        .join(format!("trace_{}.json", args.workload.name()));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One quarter of the measured phase.
fn quarter(env: &mut crate::run::Env, seconds: f64, totals: &mut Totals) -> Slice {
    let slices = drive_sliced(env, seconds, totals, |_, _, _, _| Ok(()));
    Slice::merged(&slices.expect("nothing between these slices can fail"))
}

fn rate(quarters: &[&Slice]) -> f64 {
    let ops: u64 = quarters.iter().map(|q| q.ops).sum();
    ops as f64 / quarters.iter().map(|q| q.wall).sum::<f64>()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run: every per-layer metric.
pub fn traced_run(args: &Args) -> Result<Outcome, String> {
    let clients = prepare(args)?;
    let mut totals = Totals::default();
    let mut violations = Vec::new();
    let (mut env, _) = set_up(args, clients, "traced", &mut totals)?;
    let dur = durability(&mut env, args, &mut totals, &mut violations)?;

    // The replay runs on the store as it stands now, with the model as it
    // stands now: client 0's script, from its first measured unit.
    let replay_dir = env.dir.with_extension("replay");
    let _ = std::fs::remove_dir_all(&replay_dir);
    copy_dir(&env.dir, &replay_dir).map_err(|e| e.to_string())?;
    let _replay_guard = DirGuard(replay_dir.clone());
    let replay_own = env.sessions[0].own.clone();
    let replay_script = env.sessions[0].script();

    let seconds = args.seconds / 4.0;
    let plain = quarter(&mut env, seconds, &mut totals);

    for session in &mut env.sessions {
        session.recording = Some(Recording::default());
    }
    env.probe.take_wal_sync_samples();
    env.probe.set_trace(true);
    let scrape0 = scrape(&mut env.tail);
    let cache0 = cache_stats(&mut env.tail);
    let io0 = env.probe.snapshot();
    let rec = quarter(&mut env, seconds, &mut totals);
    let io = env.probe.snapshot().since(&io0);
    let cache1 = cache_stats(&mut env.tail);
    let scrape1 = scrape(&mut env.tail);
    env.probe.set_trace(false);
    let mut fsync_ns = env.probe.take_wal_sync_samples();
    let vfs_spans = env.probe.take_spans();
    let recordings: Vec<Recording> = env
        .sessions
        .iter_mut()
        .filter_map(|s| s.recording.take())
        .collect();

    neptune_obs::registry().set_enabled(false);
    let dark = quarter(&mut env, seconds, &mut totals);
    neptune_obs::registry().set_enabled(true);
    let plain_again = quarter(&mut env, seconds, &mut totals);

    if args.workload.read_only() && io.total().syncs != 0 {
        violations.push(format!(
            "{} fsyncs during a read-only measured phase",
            io.total().syncs
        ));
    }
    final_checks(&mut env, &mut totals, &mut violations);
    let model = Arc::clone(&env.model);
    tear_down(env);

    // Replay, in process, on the copy.
    let (replay_vfs, replay_probe) = ProbeVfs::std();
    let ham = Arc::new(
        ShardedHam::open_with(replay_vfs, &replay_dir)
            .map_err(|e| e.to_string())?
            .0,
    );
    let mut multi_view_ns = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let t0 = now_ns();
        std::hint::black_box(ham.multi_view());
        multi_view_ns.push(now_ns() - t0);
    }
    replay_probe.set_trace(true);
    let (backend, sink) = InProc::new(Arc::clone(&ham), Arc::clone(&replay_probe));
    let mut replay = Session::new(Box::new(backend), replay_script, model, replay_own);
    let replay_start = Instant::now();
    let wire_ops_per_client = rec.ops / clients as u64;
    while replay.attempted < wire_ops_per_client
        && replay_start.elapsed().as_secs_f64() < REPLAY_SECONDS
    {
        replay.run_unit();
    }
    let replay_failed = replay.failed;
    for e in replay.first_errors.drain(..) {
        eprintln!("failed in-process request: {e}");
    }
    let inproc = std::mem::take(&mut replay.samples);
    drop(replay);
    let (layers, steps) = std::mem::take(&mut *sink.lock().expect("replay sink"));
    let replay_vfs_spans = replay_probe.take_spans();
    drop(ham);

    let exchanges = recordings.first().map_or(&[][..], |r| &r.exchanges[..]);
    let codec = codec_costs(exchanges);
    let (checkin_us, checkout_us) = archive_costs(&version_stream(args, exchanges), args.seed);
    let client_spans = recordings.first().map_or(&[][..], |r| &r.spans[..]);
    write_trace_file(args, client_spans, &vfs_spans, &steps, &replay_vfs_spans)?;

    // ---- the table ----
    let mut m: Vec<Metric> = Vec::new();
    let us = |ns: f64| ns / 1e3;
    for kind in &Kind::ALL[..12] {
        let mut samples = rec.samples.of(*kind).to_vec();
        let (p50, p99) = p50_p99(&mut samples);
        m.push(metric(
            format!("client.{}_p50_us", kind.name()),
            us(p50),
            "us",
        ));
        m.push(metric(
            format!("client.{}_p99_us", kind.name()),
            us(p99),
            "us",
        ));
        m.push(metric(
            format!("client.{}_count", kind.name()),
            samples.len() as f64,
            "count",
        ));
    }
    let mut reads = rec.samples.collect(Kind::is_read);
    let mut commits = rec.samples.collect(Kind::is_commit);
    let mut fork_merge = rec.samples.of(Kind::ForkMerge).to_vec();
    let (read_p50, read_p99) = p50_p99(&mut reads);
    let (commit_p50, commit_p99) = p50_p99(&mut commits);
    m.push(metric("client.ops_per_s", rate(&[&rec]), "ops/s"));
    m.push(metric("client.read_p99_us", us(read_p99), "us"));
    m.push(metric("client.commit_p50_us", us(commit_p50), "us"));
    m.push(metric("client.commit_p99_us", us(commit_p99), "us"));
    m.push(metric(
        "client.fork_merge_p50_us",
        us(p50_p99(&mut fork_merge).0),
        "us",
    ));
    m.push(metric("client.checkpoint_s", dur.checkpoint_s, "s"));
    m.push(metric("client.errors", rec.failed as f64, "count"));

    m.push(metric("proto.req_encode_ns", codec.req_encode_ns, "ns"));
    m.push(metric("proto.req_decode_ns", codec.req_decode_ns, "ns"));
    m.push(metric("proto.resp_encode_ns", codec.resp_encode_ns, "ns"));
    m.push(metric("proto.resp_decode_ns", codec.resp_decode_ns, "ns"));
    m.push(metric(
        "proto.req_bytes_mean",
        codec.req_bytes_mean,
        "bytes",
    ));
    m.push(metric(
        "proto.resp_bytes_mean",
        codec.resp_bytes_mean,
        "bytes",
    ));
    m.push(metric("frame.write_ns", codec.frame_write_ns, "ns"));
    m.push(metric("frame.read_ns", codec.frame_read_ns, "ns"));

    let inproc_p50 = |pick: fn(Kind) -> bool| p50_p99(&mut inproc.collect(pick)).0;
    let overhead = |wire: f64, pick: fn(Kind) -> bool| match inproc_p50(pick) {
        local if wire > 0.0 && local > 0.0 => us(wire - local),
        _ => 0.0,
    };
    let grown = |prefix: &str| grew(&scrape0, &scrape1, prefix);
    m.push(metric(
        "server.read_overhead_us",
        overhead(read_p50, Kind::is_read),
        "us",
    ));
    m.push(metric(
        "server.write_overhead_us",
        overhead(commit_p50, Kind::is_commit),
        "us",
    ));
    m.push(metric(
        "server.rpc_busy_s",
        grown("neptune_server_rpc_ns_sum") / 1e9,
        "s",
    ));
    m.push(metric(
        "server.gate_wait_s",
        grown("neptune_server_gate_wait_ns_sum") / 1e9,
        "s",
    ));
    m.push(metric(
        "server.gate_acquisitions_per_op",
        ratio(
            grown("neptune_server_gate_acquisitions_total"),
            rec.ops as f64,
        ),
        "ratio",
    ));
    m.push(metric(
        "server.reads_lockfree_share",
        ratio(
            grown("neptune_server_reads_lockfree_total"),
            reads.len() as f64,
        ),
        "ratio",
    ));
    m.push(metric(
        "server.bytes_in",
        grown("neptune_server_bytes_in_total"),
        "bytes",
    ));
    m.push(metric(
        "server.bytes_out",
        grown("neptune_server_bytes_out_total"),
        "bytes",
    ));

    let wal = io.class(FileClass::Wal);
    let by_shard = &io.wal_syncs_by_shard[..crate::model::SHARDS];
    let busiest = by_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean_shard = by_shard.iter().sum::<u64>() as f64 / by_shard.len() as f64;
    m.push(metric(
        "shard.lock_home_ns",
        layers.mean("shard.lock_home"),
        "ns",
    ));
    m.push(metric(
        "shard.multi_view_ns",
        p50_p99(&mut multi_view_ns).0,
        "ns",
    ));
    m.push(metric(
        "shard.cross_shard_txns",
        grown("neptune_ham_cross_shard_txns_total"),
        "count",
    ));
    m.push(metric(
        "shard.view_skew_retries",
        grown("neptune_ham_view_skew_retries_total"),
        "count",
    ));
    m.push(metric(
        "shard.commit_imbalance",
        ratio(busiest, mean_shard),
        "ratio",
    ));

    m.push(metric(
        "ham.modify_node_cpu_us",
        us(layers.mean("ham.modify_node_cpu")),
        "us",
    ));
    m.push(metric(
        "ham.set_attr_cpu_us",
        us(layers.mean("ham.set_attr_cpu")),
        "us",
    ));
    m.push(metric(
        "ham.add_node_cpu_us",
        us(layers.mean("ham.add_node_cpu")),
        "us",
    ));
    m.push(metric(
        "ham.create_context_us",
        us(layers.mean("ham.create_context")),
        "us",
    ));
    m.push(metric(
        "ham.merge_context_us",
        us(layers.mean("ham.merge_context")),
        "us",
    ));
    m.push(metric(
        "ham.commit_txn_cpu_us",
        us(layers.mean("ham.commit_txn_cpu")),
        "us",
    ));
    m.push(metric(
        "ham.snapshot_publish_us",
        us(ratio(
            grown("neptune_ham_snapshot_publish_ns_sum"),
            grown("neptune_ham_snapshot_publish_ns_count"),
        )),
        "us",
    ));

    m.push(metric("view.load_ns", layers.mean("view.load"), "ns"));
    m.push(metric(
        "view.read_node_ns",
        layers.mean("view.read_node"),
        "ns",
    ));
    m.push(metric(
        "view.read_node_hist_ns",
        layers.mean("view.read_node_hist"),
        "ns",
    ));
    m.push(metric(
        "view.get_node_attributes_ns",
        layers.mean("view.get_node_attributes"),
        "ns",
    ));
    m.push(metric(
        "query.linearize_ns",
        layers.mean("query.linearize"),
        "ns",
    ));
    m.push(metric(
        "query.graph_query_ns",
        layers.mean("query.graph_query"),
        "ns",
    ));
    m.push(metric(
        "query.results_mean",
        layers.mean("query.results"),
        "count",
    ));

    m.push(metric("archive.checkin_us", checkin_us, "us"));
    m.push(metric("archive.checkout_us", checkout_us, "us"));
    m.push(metric(
        "archive.replay_depth_mean",
        ratio(
            grown("neptune_storage_delta_replay_depth_sum"),
            grown("neptune_storage_delta_replay_depth_count"),
        ),
        "count",
    ));
    m.push(metric(
        "archive.index_hits",
        grown("neptune_storage_index_hits_total"),
        "count",
    ));
    m.push(metric(
        "archive.anchor_bytes",
        scrape1
            .get("neptune_storage_index_anchor_bytes")
            .copied()
            .unwrap_or(0.0),
        "bytes",
    ));

    let (hits, misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    m.push(metric(
        "vcache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    ));
    m.push(metric("vcache.entries", cache1.2 as f64, "count"));
    m.push(metric("vcache.bytes", cache1.3 as f64, "bytes"));

    let (fsync_p50, fsync_p99) = p50_p99(&mut fsync_ns);
    m.push(metric("wal.appends", wal.appends as f64, "count"));
    m.push(metric("wal.append_bytes", wal.append_bytes as f64, "bytes"));
    m.push(metric("wal.fsyncs", wal.syncs as f64, "count"));
    m.push(metric(
        "wal.fsyncs_per_commit",
        ratio(wal.syncs as f64, rec.commits as f64),
        "ratio",
    ));
    m.push(metric(
        "wal.bytes_per_user_byte",
        ratio(wal.append_bytes as f64, rec.user_bytes as f64),
        "ratio",
    ));
    m.push(metric("wal.append_busy_s", wal.append_ns as f64 / 1e9, "s"));
    m.push(metric("wal.fsync_busy_s", wal.sync_ns as f64 / 1e9, "s"));
    m.push(metric("wal.fsync_p50_us", us(fsync_p50), "us"));
    m.push(metric("wal.fsync_p99_us", us(fsync_p99), "us"));
    m.push(metric(
        "wal.recover_txns_per_s",
        ratio(dur.recovered_txns as f64, dur.recover_s()),
        "1/s",
    ));

    // Storage written by a checkpoint after a small change: per round.
    let rounds = CHECKPOINT_ROUNDS as f64;
    let ck = dur
        .checkpoint_io
        .expect("the durability phase checkpointed");
    let (snap, blob) = (ck.class(FileClass::Snapshot), ck.class(FileClass::Blob));
    m.push(metric(
        "snapshot.bytes",
        snap.append_bytes as f64 / rounds,
        "bytes",
    ));
    m.push(metric(
        "snapshot.write_busy_s",
        snap.busy_ns() as f64 / 1e9 / rounds,
        "s",
    ));
    m.push(metric(
        "snapshot.fsyncs",
        snap.syncs as f64 / rounds,
        "count",
    ));
    m.push(metric(
        "snapshot.renames",
        snap.renames as f64 / rounds,
        "count",
    ));
    m.push(metric("snapshot.load_s", dur.snapshot_load_s, "s"));
    m.push(metric("blob.puts", blob.creates as f64 / rounds, "count"));
    m.push(metric(
        "blob.bytes",
        blob.append_bytes as f64 / rounds,
        "bytes",
    ));

    let all = io.total();
    m.push(metric("vfs.fsyncs", all.syncs as f64, "count"));
    m.push(metric("vfs.fsync_busy_s", all.sync_ns as f64 / 1e9, "s"));
    m.push(metric("vfs.append_bytes", all.append_bytes as f64, "bytes"));
    m.push(metric("vfs.dir_syncs", all.dir_syncs as f64, "count"));
    m.push(metric(
        "vfs.busy_share",
        ratio(all.busy_ns() as f64 / 1e9, rec.wall),
        "ratio",
    ));

    let base = rate(&[&plain, &plain_again]);
    m.push(metric(
        "obs.traced_ops_ratio",
        ratio(rate(&[&rec]), base),
        "ratio",
    ));
    m.push(metric(
        "obs.disabled_ops_ratio",
        ratio(rate(&[&dark]), base),
        "ratio",
    ));

    for e in &totals.errors {
        eprintln!("failed request: {e}");
    }
    if replay_failed > 0 {
        violations.push(format!("{replay_failed} in-process replay requests failed"));
    }
    Ok(Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        violations,
        metrics: m,
    })
}
