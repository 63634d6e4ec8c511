//! One benchmark run: set-up, durability phase, measured phase, checks.
//!
//! ```text
//! set-up                build the store in process, start the server over
//!                       it, connect C clients, run a fixed warm-up script
//! durability phase      reopen copies of the store (recover_s), then three
//!                       rounds of small change + checkpoint
//! measured phase        C closed-loop clients for --seconds, in slices;
//!                       after each slice a few probes: a reopen, some
//!                       uncontended commits, a read-back pass
//! checks                read every written node back, verify the store
//! ```
//!
//! Set-up is done three times — before, in the middle of and after the
//! measured phase — and the first one's store is the one measured.
//!
//! The durability phase runs before the measured phase, on the store the
//! fixed warm-up left: what it reads (WAL length, snapshot size) then
//! depends on the seed and not on how many operations a timed phase
//! happened to complete.
//!
//! **What is a time and what is a count.** On the sandbox this was written
//! on, the same run repeated gives wall times 20-50 % apart: fsync takes
//! 150-350 us depending on what else the host's disk is doing, and slices
//! of the same read workload differ by a factor of two whenever the two
//! virtual CPUs have to wake each other; and for a minute at a time the
//! whole machine runs a third slower. So (1) the process is confined to
//! one CPU, (2) every time is sampled in small pieces spread over the whole
//! run and reported as the 10th percentile of those pieces — interference
//! only ever makes a piece slower, so the best tenth is the machine left
//! alone — and (3) work done by the device is reported as what was asked
//! of it (fsyncs, bytes), which repeats exactly, not as how long it took,
//! which does not. Device-bound times are in the per-layer table, without
//! bound.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use neptune_ham::types::Time;
use neptune_ham::ShardedHam;
use neptune_server::{serve_sharded, Client, Request, Response, ServerHandle};
use neptune_storage::vfs::StdVfs;

use crate::gen::fnv;
use crate::model::{build_store, Model, MAIN, SCRATCH};
use crate::probe_vfs::{FileClass, ProbeSnapshot, ProbeStats, ProbeVfs};
use crate::stats::{best_tenth, median, p50_p99, quantile};
use crate::workload::{Kind, Samples, Script, Session, Workload};

/// Reopens of a store copy in the durability phase; the measured phase
/// adds more between its slices, as many as fit [`RECOVER_BUDGET_S`].
const RECOVER_FIRST: usize = 3;
const RECOVER_BUDGET_S: f64 = 2.0;
/// Uncontended commits after each slice of the measured phase.
const PROBE_COMMITS: usize = 8;
/// Rounds of small change + checkpoint; medians over them.
pub const CHECKPOINT_ROUNDS: usize = 3;
/// Length of the slices the measured phase is cut into.
pub const SLICE_SECONDS: f64 = 0.5;
/// Free space below which a run refuses to start.
const MIN_FREE_BYTES: u64 = 2 << 30;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where stores and trace files go; removed stores leave it empty.
    pub out: PathBuf,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not a failed request: store verification, fsyncs on
    /// a read-only workload, a lost commit after recovery.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Load threads and connections: one per core, four at most. Call before
/// [`confine_to_one_cpu`], which changes what the process may run on.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn allowed_cpus() -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|l| l.trim().to_string())
        })
        .unwrap_or_default()
}

/// Confine this process — load threads and server threads alike, since
/// threads inherit it — to the last CPU it may use. Cross-CPU wake-ups
/// between a client thread and its connection thread are the largest
/// source of run-to-run spread on a small virtual machine; on one CPU the
/// benchmark measures path length, which is what a change to the program
/// moves. (It therefore measures no parallel speed-up.) Best effort: with
/// no `taskset` the run goes on unconfined. Returns the CPUs the process
/// may use afterwards.
pub fn confine_to_one_cpu() -> String {
    let last = allowed_cpus()
        .rsplit([',', '-'])
        .next()
        .and_then(|c| c.parse::<u32>().ok());
    if let Some(cpu) = last {
        let _ = std::process::Command::new("taskset")
            .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
    }
    allowed_cpus()
}

/// Removes a directory tree when dropped, whichever way the run ends.
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A live store behind a live server, with connected sessions. Fields drop
/// in order: connections close before the server joins their threads, and
/// the directory goes last.
pub struct Env {
    pub sessions: Vec<Session>,
    /// Owns the scratch nodes; drives the durability phase and the checks.
    pub tail: Session,
    pub server: Option<ServerHandle>,
    pub probe: Arc<ProbeStats>,
    pub model: Arc<Model>,
    pub dir: PathBuf,
    _guard: DirGuard,
}

/// Counts carried from phase to phase.
#[derive(Default)]
pub struct Totals {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub user_bytes: u64,
}

impl Totals {
    /// Fold in what `session` counted since its last reset, reset it, and
    /// hand back the latencies it sampled meanwhile.
    pub fn take(&mut self, session: &mut Session) -> Samples {
        self.attempted += session.attempted;
        self.failed += session.failed;
        self.user_bytes += std::mem::take(&mut session.user_bytes);
        for e in session.first_errors.drain(..) {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        session.attempted = 0;
        session.failed = 0;
        session.commits = 0;
        std::mem::take(&mut session.samples)
    }
}

fn es<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

fn connect(server: &ServerHandle) -> Result<Box<Client>, String> {
    Client::connect(server.addr())
        .map(Box::new)
        .map_err(|e| format!("connect: {e}"))
}

/// Build the store (in a directory named after `tag`), serve it, connect,
/// warm up. Returns the environment and how long all of that took.
pub fn set_up(
    args: &Args,
    clients: usize,
    tag: &str,
    totals: &mut Totals,
) -> Result<(Env, f64), String> {
    let start = Instant::now();
    let dir = args.out.join(format!(
        "store-{}-{}-{tag}",
        args.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&args.out).map_err(es)?;
    let guard = DirGuard(dir.clone());
    let (vfs, probe) = ProbeVfs::std();
    let spec = args.workload.spec(clients);
    let (mut ham, mut model) = build_store(Arc::clone(&vfs), &dir, spec, args.seed)?;
    if spec.history.is_some() {
        // Deep history is served from a reopened store: anchors and the
        // version cache start cold, as after a server restart.
        ham.checkpoint().map_err(es)?;
        drop(ham);
        ham = ShardedHam::open_with(Arc::clone(&vfs), &dir).map_err(es)?.0;
    }
    let server = serve_sharded(ham, "127.0.0.1:0").map_err(es)?;
    let mut partitions = std::mem::take(&mut model.partitions);
    partitions.resize(clients, Vec::new());
    let scratch = std::mem::take(&mut model.scratch);
    let model = Arc::new(model);
    let mut sessions = Vec::with_capacity(clients);
    for (c, own) in partitions.into_iter().enumerate() {
        sessions.push(Session::new(
            connect(&server)?,
            Script::new(args.workload, args.seed, c),
            Arc::clone(&model),
            own,
        ));
    }
    // The tail session only ever edits scratch slots by hand; its script
    // is never run.
    let tail = Session::new(
        connect(&server)?,
        Script::new(Workload::EditCommit, args.seed, usize::MAX),
        Arc::clone(&model),
        scratch,
    );
    let units = args.workload.warmup_units();
    std::thread::scope(|scope| {
        for session in &mut sessions {
            scope.spawn(move || (0..units).for_each(|_| session.run_unit()));
        }
    });
    let mut env = Env {
        sessions,
        tail,
        server: Some(server),
        probe,
        model,
        dir,
        _guard: guard,
    };
    for session in &mut env.sessions {
        totals.take(session);
    }
    Ok((env, start.elapsed().as_secs_f64()))
}

/// Disconnect, stop the server (it checkpoints), remove the store.
pub fn tear_down(env: Env) {
    let Env {
        sessions,
        tail,
        server,
        ..
    } = env;
    drop(sessions);
    drop(tail);
    if let Some(server) = server {
        server.stop();
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        total += if entry.file_type()?.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(total)
}

/// What the durability phase measured.
#[derive(Default)]
pub struct Durability {
    /// The store as the warm-up left it, before any checkpoint: what every
    /// timed reopen starts from.
    pristine: Option<DirGuard>,
    /// Seconds of each reopen with WAL replay.
    pub recover_times: Vec<f64>,
    /// Transactions the WAL replay of one reopen applied.
    pub recovered_txns: u64,
    /// Checkpoint after a small change: median seconds, bytes written and
    /// fsync calls (files and directories) per round.
    pub checkpoint_s: f64,
    pub checkpoint_bytes: f64,
    pub checkpoint_fsyncs: f64,
    pub store_bytes_per_user_byte: f64,
    /// Reopen of a freshly checkpointed copy: snapshot load, empty WAL.
    pub snapshot_load_s: f64,
    /// Filesystem calls of all checkpoint rounds together.
    pub checkpoint_io: Option<ProbeSnapshot>,
    /// WAL fsyncs per acknowledged commit of the phase's small changes.
    pub fsyncs_per_commit: f64,
    /// Each uncontended commit's round trip less the fsync the probe saw
    /// inside it: what the program adds to the device's time.
    pub commit_overhead_ns: Vec<u64>,
    /// Seeds the edits of the scratch nodes.
    edits: Option<crate::gen::Rng>,
}

impl Durability {
    /// Reopen with WAL replay: the best tenth of the reopens so far.
    pub fn recover_s(&self) -> f64 {
        best_tenth(&mut self.recover_times.clone())
    }
}

fn recovered_txns() -> u64 {
    neptune_obs::registry()
        .counter("neptune_storage_wal_recovered_txns_total")
        .get()
}

/// Copy the store under `from` (quiescent, or itself a copy) and time
/// reopening the copy on the plain filesystem.
fn timed_reopen(from: &Path) -> Result<(ShardedHam, f64, DirGuard), String> {
    let copy = from.with_extension("reopen");
    let _ = std::fs::remove_dir_all(&copy);
    copy_dir(from, &copy).map_err(es)?;
    let guard = DirGuard(copy.clone());
    let start = Instant::now();
    let (ham, _, _) = ShardedHam::open_with(StdVfs::arc(), &copy).map_err(es)?;
    Ok((ham, start.elapsed().as_secs_f64(), guard))
}

/// One more timed reopen of the pristine copy.
fn reopen_pristine(d: &mut Durability) -> Result<ShardedHam, String> {
    let pristine = d.pristine.as_ref().expect("durability phase ran");
    let before = recovered_txns();
    let (ham, seconds, _copy) = timed_reopen(&pristine.0)?;
    d.recovered_txns = recovered_txns() - before;
    d.recover_times.push(seconds);
    Ok(ham)
}

/// `n` uncontended commits: a small change to the next `n` scratch nodes by
/// the tail session alone, each round trip paired with the WAL fsync the
/// probe timed inside it. Returns the WAL fsyncs and commits it made.
fn scratch_commits(env: &mut Env, d: &mut Durability, slots: &[usize]) -> (u64, u64) {
    // One client, one request in flight: today the i-th WAL fsync the
    // probe times belongs to the i-th commit.
    env.probe.take_wal_sync_samples();
    let sampled = env.tail.samples.of(Kind::ModifyNode).len();
    let edits = d.edits.as_mut().expect("durability phase ran");
    for &slot in slots {
        env.tail.modify_slot(slot, edits.next());
    }
    let round_trips = &env.tail.samples.of(Kind::ModifyNode)[sampled..];
    let device = env.probe.take_wal_sync_samples();
    if device.len() == round_trips.len() {
        let paired = round_trips.iter().zip(&device);
        d.commit_overhead_ns
            .extend(paired.map(|(rt, dev)| rt.saturating_sub(*dev)));
    } else {
        // Not one fsync per commit (some later commit protocol): no
        // pairing, so spread the device time over the commits.
        let share = device.iter().sum::<u64>() / round_trips.len().max(1) as u64;
        d.commit_overhead_ns
            .extend(round_trips.iter().map(|rt| rt.saturating_sub(share)));
    }
    (device.len() as u64, round_trips.len() as u64)
}

/// Every node some session wrote must read the same from the reopened
/// copy: no acknowledged commit is lost by recovery.
fn check_recovered(ham: &ShardedHam, env: &Env, violations: &mut Vec<String>) {
    let view = ham.read_view(MAIN);
    let written = env
        .sessions
        .iter()
        .flat_map(|s| &s.own)
        .chain(&env.tail.own);
    for node in written {
        match view.read_node(MAIN, node.id, Time::CURRENT, &[]) {
            Ok(opened) if fnv(&opened.contents) == fnv(&node.body) => {}
            Ok(_) => violations.push(format!("recovered copy: {:?} has other contents", node.id)),
            Err(e) => violations.push(format!("recovered copy: {:?}: {e}", node.id)),
        }
    }
}

pub fn durability(
    env: &mut Env,
    args: &Args,
    totals: &mut Totals,
    violations: &mut Vec<String>,
) -> Result<Durability, String> {
    let mut out = Durability {
        edits: Some(crate::gen::Rng::lane(args.seed, 0x7a11)),
        ..Durability::default()
    };

    // (1) Reopen with WAL replay, before any checkpoint of this phase.
    let pristine = env.dir.with_extension("pristine");
    let _ = std::fs::remove_dir_all(&pristine);
    copy_dir(&env.dir, &pristine).map_err(es)?;
    out.pristine = Some(DirGuard(pristine));
    for rep in 0..RECOVER_FIRST {
        let ham = reopen_pristine(&mut out)?;
        if rep == 0 {
            check_recovered(&ham, env, violations);
        }
    }

    // (2) A small change, then a checkpoint. In `case_mixed` the change is
    // spread over the kept contexts, one scratch node each.
    let kept: Vec<_> = env
        .sessions
        .iter()
        .flat_map(|s| s.kept.iter().copied())
        .collect();
    let in_kept = kept.len().min(SCRATCH);
    for (slot, ctx) in kept.into_iter().take(SCRATCH).enumerate() {
        env.tail.slot_ctx[slot] = ctx;
    }
    let all_slots: Vec<usize> = (0..env.tail.own.len()).collect();
    let (mut seconds, mut bytes, mut fsyncs) = (Vec::new(), Vec::new(), Vec::new());
    let mut io: Option<ProbeSnapshot> = None;
    let (mut wal_syncs, mut commits) = (0, 0);
    for _ in 0..CHECKPOINT_ROUNDS {
        let (s, c) = scratch_commits(env, &mut out, &all_slots);
        wal_syncs += s;
        commits += c;

        let before = env.probe.snapshot();
        let start = Instant::now();
        match env.tail.control(Request::Checkpoint) {
            Response::Ok => {}
            other => return Err(format!("checkpoint: {other:?}")),
        }
        seconds.push(start.elapsed().as_secs_f64());
        let round = env.probe.snapshot().since(&before);
        bytes.push(round.total().append_bytes as f64);
        fsyncs.push((round.total().syncs + round.total().dir_syncs) as f64);
        io = Some(match io {
            None => round,
            Some(sum) => sum.plus(&round),
        });
    }
    out.checkpoint_s = median(&mut seconds);
    out.checkpoint_bytes = median(&mut bytes);
    out.checkpoint_fsyncs = median(&mut fsyncs);
    out.checkpoint_io = io;
    out.fsyncs_per_commit = wal_syncs as f64 / commits.max(1) as f64;
    // The kept contexts may be gone by the end of the run: check the
    // scratch nodes now, where they were written, and let go of the ones
    // written there. The rest live in MAIN and are edited further.
    env.tail.read_back_own();
    env.tail.own.drain(..in_kept);
    env.tail.slot_ctx.drain(..in_kept);
    totals.take(&mut env.tail);

    // (3) What the store occupies per byte of content it was given.
    let stored = dir_bytes(&env.dir).map_err(es)?;
    let user = env.model.user_bytes + totals.user_bytes;
    out.store_bytes_per_user_byte = stored as f64 / user as f64;

    let (_, seconds, _copy) = timed_reopen(&env.dir)?;
    out.snapshot_load_s = seconds;
    Ok(out)
}

/// Run every session's script, closed loop, one thread each, until
/// `seconds` have passed. Returns the wall time taken.
pub fn drive(sessions: &mut [Session], seconds: f64) -> f64 {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let end = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| {
                scope.spawn(move || {
                    while Instant::now() < deadline {
                        session.run_unit();
                    }
                    Instant::now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .max()
    });
    end.map_or(0.0, |end| (end - start).as_secs_f64())
}

/// One slice of a measured phase, or several taken together.
#[derive(Default)]
pub struct Slice {
    pub wall: f64,
    pub ops: u64,
    pub failed: u64,
    pub commits: u64,
    pub user_bytes: u64,
    /// Fsyncs of any file, and of WAL files, while the slice ran.
    pub syncs: u64,
    pub wal_syncs: u64,
    pub samples: Samples,
}

impl Slice {
    pub fn merged(slices: &[Slice]) -> Slice {
        let mut all = Slice::default();
        for s in slices {
            all.wall += s.wall;
            all.ops += s.ops;
            all.failed += s.failed;
            all.commits += s.commits;
            all.user_bytes += s.user_bytes;
            all.syncs += s.syncs;
            all.wal_syncs += s.wal_syncs;
            all.samples.absorb(&s.samples);
        }
        all
    }
}

/// [`drive`] for `seconds`, in slices of [`SLICE_SECONDS`]. After slice `i`
/// of `n`, with the load threads parked, `between(env, totals, i, n)` runs.
pub fn drive_sliced(
    env: &mut Env,
    seconds: f64,
    totals: &mut Totals,
    mut between: impl FnMut(&mut Env, &mut Totals, usize, usize) -> Result<(), String>,
) -> Result<Vec<Slice>, String> {
    let n = ((seconds / SLICE_SECONDS).round() as usize).max(1);
    let mut slices = Vec::with_capacity(n);
    for i in 0..n {
        let before = env.probe.snapshot();
        let mut slice = Slice {
            wall: drive(&mut env.sessions, seconds / n as f64),
            ..Slice::default()
        };
        let io = env.probe.snapshot().since(&before);
        slice.syncs = io.total().syncs;
        slice.wal_syncs = io.class(FileClass::Wal).syncs;
        for session in &mut env.sessions {
            slice.ops += session.attempted;
            slice.failed += session.failed;
            slice.commits += session.commits;
            slice.user_bytes += session.user_bytes;
            slice.samples.absorb(&totals.take(session));
        }
        slices.push(slice);
        between(env, totals, i, n)?;
    }
    Ok(slices)
}

/// Every client reads back, over the wire, every node it wrote, and the
/// reply is checked against the model. Returns the reads' latencies.
pub fn read_back_pass(env: &mut Env, totals: &mut Totals) -> Samples {
    let mut pass = Samples::default();
    for session in &mut env.sessions {
        session.read_back_own();
        pass.absorb(&totals.take(session));
    }
    pass
}

/// Read back everything written, and ask the server to verify its store.
pub fn final_checks(env: &mut Env, totals: &mut Totals, violations: &mut Vec<String>) {
    read_back_pass(env, totals);
    env.tail.read_back_own();
    totals.take(&mut env.tail);
    match env.tail.control(Request::Verify) {
        Response::Findings(findings) if findings.is_empty() => {}
        Response::Findings(findings) => violations.push(format!(
            "verify: {} findings, first {:?}",
            findings.len(),
            findings.first()
        )),
        other => violations.push(format!("verify: {other:?}")),
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Refuse to start on a nearly full disk: stores and copies need room.
pub fn check_space(out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(es)?;
    let Ok(df) = std::process::Command::new("df")
        .arg("-Pk")
        .arg(out)
        .output()
    else {
        return Ok(()); // no `df` here: nothing to judge by
    };
    let text = String::from_utf8_lossy(&df.stdout);
    let free = text
        .lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|kib| kib.parse::<u64>().ok());
    match free {
        Some(kib) if kib * 1024 < MIN_FREE_BYTES => Err(format!(
            "only {} MiB free under {}; the benchmark wants 2 GiB",
            kib / 1024,
            out.display()
        )),
        _ => Ok(()),
    }
}

/// Filesystem type holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (device, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), format!("{kind} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// A latency of mixed requests as this benchmark reports it: the best
/// tenth, over slices, of each slice's median, in microseconds. Slices with
/// fewer than ten samples are left out. Zero when no slice qualifies.
pub fn steady_p50_us(mut slices: Vec<Vec<u64>>) -> f64 {
    let mut medians: Vec<f64> = slices
        .iter_mut()
        .filter(|s| s.len() >= 10)
        .map(|s| p50_p99(s).0 / 1e3)
        .collect();
    best_tenth(&mut medians)
}

/// The cost of one kind of request left alone, in microseconds: the 10th
/// percentile of its samples. Fit for samples of a single operation (of a
/// mix it would just pick the cheapest kind); the lower tail is where the
/// host, the disk's journal and cold caches after an idle wait did not
/// add their own time.
pub fn undisturbed_us(samples: &[u64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.10).unwrap_or(0.0) / 1e3
}

/// Check the disk, size the client pool, confine the process, and say so.
pub fn prepare(args: &Args) -> Result<usize, String> {
    check_space(&args.out)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = clients();
    let cpus = confine_to_one_cpu();
    eprintln!(
        "# {} seed {} for {} s: nproc {nproc}, C = {clients} closed-loop clients, process confined to \
         CPU {cpus}, {} shards, store on {}; shipped configuration (obs on, default caches, one \
         fsync per commit)",
        args.workload.name(),
        args.seed,
        args.seconds,
        crate::model::SHARDS,
        fs_type(&args.out),
    );
    Ok(clients)
}

/// The untraced run: every end-to-end metric. (`--trace 1` goes to
/// [`crate::layers::traced_run`] instead.)
pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return crate::layers::traced_run(args);
    }
    let clients = prepare(args)?;
    let mut totals = Totals::default();
    let mut violations = Vec::new();

    let (mut env, first) = set_up(args, clients, "measured", &mut totals)?;
    let mut setups = vec![first];
    let mut durability = durability(&mut env, args, &mut totals, &mut violations)?;
    // Everything up to here is fixed work: memory is judged on it, not on
    // however many operations the timed phase below gets through.
    let peak_rss_mb = peak_rss_mb();
    // A set-up built and torn down beside the measured store, for its time.
    let another_set_up = |tag: &str, totals: &mut Totals| -> Result<f64, String> {
        let (env, seconds) = set_up(args, clients, tag, totals)?;
        tear_down(env);
        Ok(seconds)
    };

    // As many further reopens as the budget allows, evenly over the slices.
    let reopen_cost = median(&mut durability.recover_times.clone());
    let mut passes = Vec::new();
    let slices = drive_sliced(&mut env, args.seconds, &mut totals, |env, totals, i, n| {
        let every = ((reopen_cost * n as f64 / RECOVER_BUDGET_S).ceil() as usize).max(1);
        if i % every == 0 {
            reopen_pristine(&mut durability)?;
        }
        let scratch = env.tail.own.len();
        let slots: Vec<usize> = (0..PROBE_COMMITS)
            .map(|k| (i * PROBE_COMMITS + k) % scratch)
            .collect();
        scratch_commits(env, &mut durability, &slots);
        passes.push(read_back_pass(env, totals));
        if i + 1 == n.div_ceil(2) {
            setups.push(another_set_up("midway", totals)?);
        }
        Ok(())
    })?;
    let load = Slice::merged(&slices);
    if args.workload.read_only() && load.syncs != 0 {
        violations.push(format!(
            "{} fsyncs during a read-only measured phase",
            load.syncs
        ));
    }
    final_checks(&mut env, &mut totals, &mut violations);
    tear_down(env);
    setups.push(another_set_up("after", &mut totals)?);

    for e in &totals.errors {
        eprintln!("failed request: {e}");
    }
    // Reads: the measured phase's where it has any, else the read-back
    // passes between its slices.
    let reads_of = |samples: &Samples| samples.collect(Kind::is_read);
    let mut read_p50_us = steady_p50_us(slices.iter().map(|s| reads_of(&s.samples)).collect());
    if read_p50_us == 0.0 {
        read_p50_us = steady_p50_us(passes.iter().map(reads_of).collect());
    }
    // Commits: fsyncs per commit under the workload's own concurrency where
    // it commits, else of the durability phase's single client.
    let fsyncs_per_commit = if load.commits > 0 {
        load.wal_syncs as f64 / load.commits as f64
    } else {
        durability.fsyncs_per_commit
    };
    let metrics = vec![
        metric("setup_s", median(&mut setups), "s"),
        metric("read_p50_us", read_p50_us, "us"),
        metric(
            "commit_overhead_us",
            undisturbed_us(&durability.commit_overhead_ns),
            "us",
        ),
        metric("fsyncs_per_commit", fsyncs_per_commit, "ratio"),
        metric("recover_s", durability.recover_s(), "s"),
        metric("checkpoint_fsyncs", durability.checkpoint_fsyncs, "count"),
        metric("checkpoint_bytes", durability.checkpoint_bytes, "bytes"),
        metric(
            "store_bytes_per_user_byte",
            durability.store_bytes_per_user_byte,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    Ok(Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        violations,
        metrics,
    })
}
