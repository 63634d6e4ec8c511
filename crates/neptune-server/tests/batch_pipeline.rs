//! Batch and pipelined execution over real sockets: per-element results,
//! lock-free snapshot serving for read batches, exclusive routing for
//! mutating batches, and a mixed reader/writer stress run that checks for
//! torn reads and read-your-writes.
//!
//! The metrics registry is process-global, so every test here serializes
//! on one mutex — the others drive RPCs the metrics-sensitive ones would
//! count — and those reset the registry first.

use std::path::PathBuf;
use std::sync::Mutex;

use neptune_ham::types::{Protections, Time, MAIN_CONTEXT};
use neptune_ham::{DemonSpec, Event, Ham};
use neptune_server::{serve, Client, Request, Response};

static LOCK: Mutex<()> = Mutex::new(());

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-batch-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(name: &str) -> neptune_server::ServerHandle {
    let (ham, _, _) = Ham::create_graph(tmpdir(name), Protections::DEFAULT).unwrap();
    serve(ham, "127.0.0.1:0").unwrap()
}

fn open_req(node: neptune_ham::types::NodeIndex) -> Request {
    Request::OpenNode {
        context: MAIN_CONTEXT,
        node,
        time: Time::CURRENT,
        attrs: vec![],
    }
}

fn sample(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(series)?;
        rest.strip_prefix(' ')?.trim().parse().ok()
    })
}

#[test]
fn batch_returns_per_element_results_in_order() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start("order");
    let mut c = Client::connect(server.addr()).unwrap();
    let (node, t0) = c.add_node(MAIN_CONTEXT, true).unwrap();
    c.modify_node(MAIN_CONTEXT, node, t0, b"batched\n".to_vec(), vec![])
        .unwrap();

    let responses = c
        .batch(vec![
            Request::Ping,
            open_req(node),
            // An illegal element errors in place; the rest still run.
            // (Nested batches never get this far: the decoder refuses the
            // inner tag and the connection drops, by design.)
            Request::BeginTransaction,
            Request::Ping,
        ])
        .unwrap();
    assert_eq!(responses.len(), 4);
    assert!(matches!(responses[0], Response::Ok));
    match &responses[1] {
        Response::Opened { contents, .. } => assert_eq!(&contents[..], b"batched\n"),
        other => panic!("expected Opened, got {other:?}"),
    }
    assert!(matches!(responses[2], Response::Error(_)));
    assert!(matches!(responses[3], Response::Ok));

    // An empty batch is legal and returns an empty result set.
    assert_eq!(c.batch(vec![]).unwrap().len(), 0);
    server.stop();
}

#[test]
fn batch_with_a_write_takes_the_exclusive_path() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !neptune_obs::enabled() {
        return; // NEPTUNE_OBS_DISABLED set in this environment
    }
    neptune_obs::registry().reset();

    let server = start("exclusive");
    let mut c = Client::connect(server.addr()).unwrap();
    let (node, t0) = c.add_node(MAIN_CONTEXT, true).unwrap();

    // A mutating element makes the whole batch non-read-only; it must run
    // under the writer lock and its effects must be visible to the reads
    // that follow it in the same batch.
    let responses = c
        .batch(vec![
            Request::ModifyNode {
                context: MAIN_CONTEXT,
                node,
                time: t0,
                contents: b"written in batch\n".to_vec(),
                link_pts: vec![],
            },
            open_req(node),
        ])
        .unwrap();
    assert!(matches!(responses[0], Response::Time(_)));
    match &responses[1] {
        Response::Opened { contents, .. } => {
            assert_eq!(&contents[..], b"written in batch\n")
        }
        other => panic!("expected Opened, got {other:?}"),
    }

    let text = c.metrics().unwrap();
    // Both elements ran and were individually recorded...
    assert_eq!(
        sample(&text, "neptune_server_rpc_ns_count{op=\"ModifyNode\"}"),
        Some(1.0),
        "{text}"
    );
    assert_eq!(
        sample(&text, "neptune_server_rpc_ns_count{op=\"OpenNode\"}"),
        Some(1.0),
        "{text}"
    );
    // ...and the batch itself, once.
    assert_eq!(
        sample(&text, "neptune_server_rpc_ns_count{op=\"Batch\"}"),
        Some(1.0),
        "{text}"
    );
    server.stop();
}

#[test]
fn read_batch_during_foreign_txn_is_lock_free() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !neptune_obs::enabled() {
        return;
    }
    neptune_obs::registry().reset();

    let server = start("one-gate");
    let addr = server.addr();
    let mut holder = Client::connect(addr).unwrap();
    let (node, t0) = holder.add_node(MAIN_CONTEXT, true).unwrap();
    holder
        .modify_node(MAIN_CONTEXT, node, t0, b"committed\n".to_vec(), vec![])
        .unwrap();
    holder.begin_transaction().unwrap();
    holder.add_node(MAIN_CONTEXT, true).unwrap();

    // A 32-element read batch arrives while a foreign transaction holds
    // the gate. It is served from the published snapshot: it never waits
    // at the gate, and it completes *before* the transaction commits,
    // seeing the last committed contents.
    const ELEMENTS: usize = 32;
    let mut reader = Client::connect(addr).unwrap();
    let responses = reader.batch(vec![open_req(node); ELEMENTS]).unwrap();
    assert_eq!(responses.len(), ELEMENTS);
    for r in &responses {
        match r {
            Response::Opened { contents, .. } => assert_eq!(&contents[..], b"committed\n"),
            other => panic!("expected Opened, got {other:?}"),
        }
    }
    holder.commit_transaction().unwrap();

    let text = holder.metrics().unwrap();
    let waits = sample(&text, "neptune_server_gate_wait_ns_count").unwrap_or(0.0);
    assert_eq!(
        waits, 0.0,
        "a snapshot-served read batch must never wait at the gate:\n{text}"
    );
    // Every element was served lock-free and shows up in the per-op
    // accounting.
    assert!(
        sample(&text, "neptune_server_reads_lockfree_total").unwrap_or(0.0) >= ELEMENTS as f64,
        "{text}"
    );
    assert_eq!(
        sample(&text, "neptune_server_rpc_ns_count{op=\"OpenNode\"}"),
        Some(ELEMENTS as f64),
        "{text}"
    );
    // The frame layer counted traffic in both directions.
    assert!(sample(&text, "neptune_server_bytes_in_total").unwrap_or(0.0) > 0.0);
    assert!(sample(&text, "neptune_server_bytes_out_total").unwrap_or(0.0) > 0.0);
    server.stop();
}

#[test]
fn bounced_read_batch_records_each_element_once() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !neptune_obs::enabled() {
        return;
    }
    neptune_obs::registry().reset();

    let server = start("bounce-once");
    let mut c = Client::connect(server.addr()).unwrap();
    let (node, _) = c.add_node(MAIN_CONTEXT, true).unwrap();
    c.set_node_demon(
        MAIN_CONTEXT,
        node,
        Event::NodeOpened,
        Some(DemonSpec::notify("opened", "seen")),
    )
    .unwrap();

    let registry = neptune_obs::registry();
    let stamps = registry.histogram(&neptune_obs::labeled(
        "neptune_server_rpc_ns",
        "op",
        "GetNodeTimeStamp",
    ));
    let lock_free = registry.counter("neptune_server_reads_lockfree_total");
    let bounces = registry.counter("neptune_server_read_bounces_total");
    let before = (stamps.count(), lock_free.get(), bounces.get());

    // The OpenNode must fire its demon, so the whole batch reruns on the
    // exclusive path: the timestamp read served before the bounce must be
    // recorded once, by the run whose answer the client gets, and never
    // as a lock-free read.
    let responses = c
        .batch(vec![
            Request::GetNodeTimeStamp {
                context: MAIN_CONTEXT,
                node,
            },
            open_req(node),
        ])
        .unwrap();
    assert!(matches!(responses[0], Response::Time(_)), "{responses:?}");
    assert!(
        matches!(responses[1], Response::Opened { .. }),
        "{responses:?}"
    );
    assert_eq!(
        stamps.count(),
        before.0 + 1,
        "GetNodeTimeStamp observations"
    );
    assert_eq!(lock_free.get(), before.1, "lock-free reads");
    assert_eq!(bounces.get(), before.2 + 1, "read bounces");
    server.stop();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start("pipeline");
    let mut c = Client::connect(server.addr()).unwrap();
    let (node, t0) = c.add_node(MAIN_CONTEXT, true).unwrap();
    c.modify_node(MAIN_CONTEXT, node, t0, b"pipelined\n".to_vec(), vec![])
        .unwrap();

    let mut requests = vec![Request::Ping];
    requests.extend(std::iter::repeat_with(|| open_req(node)).take(16));
    requests.push(Request::Ping);
    let responses = c.pipeline(&requests).unwrap();
    assert_eq!(responses.len(), requests.len());
    assert!(matches!(responses[0], Response::Ok));
    assert!(matches!(responses[requests.len() - 1], Response::Ok));
    for r in &responses[1..requests.len() - 1] {
        match r {
            Response::Opened { contents, .. } => assert_eq!(&contents[..], b"pipelined\n"),
            other => panic!("expected Opened, got {other:?}"),
        }
    }
    // The connection is still usable for ordinary lockstep calls.
    c.ping().unwrap();
    server.stop();
}

/// Mixed stress: pipelined readers and batched readers race one writer
/// doing check-out/check-in cycles. Contents are written as `"<n> | <n>"`
/// so any torn read is detectable; the writer asserts read-your-writes
/// inside its own transaction.
#[test]
fn stress_pipelined_and_batched_readers_against_a_writer() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let server = start("stress");
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    let (node, t0) = setup.add_node(MAIN_CONTEXT, true).unwrap();
    setup
        .modify_node(MAIN_CONTEXT, node, t0, b"0 | 0".to_vec(), vec![])
        .unwrap();

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let check = |contents: &[u8]| {
        let text = String::from_utf8(contents.to_vec()).unwrap();
        let (left, right) = text.trim_end().split_once(" | ").unwrap();
        assert_eq!(left, right, "torn read: {text:?}");
    };

    let mut readers = Vec::new();
    for style in 0..2 {
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut seen = 0usize;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let requests = vec![open_req(node); 8];
                let responses = if style == 0 {
                    c.pipeline(&requests).unwrap()
                } else {
                    c.batch(requests).unwrap()
                };
                for r in responses {
                    match r {
                        Response::Opened { contents, .. } => check(&contents),
                        other => panic!("expected Opened, got {other:?}"),
                    }
                    seen += 1;
                }
            }
            seen
        }));
    }

    let mut writer = Client::connect(addr).unwrap();
    for round in 1..=30u32 {
        writer.begin_transaction().unwrap();
        let opened = writer
            .open_node(MAIN_CONTEXT, node, Time::CURRENT, vec![])
            .unwrap();
        let body = format!("{round} | {round}").into_bytes();
        writer
            .modify_node(
                MAIN_CONTEXT,
                node,
                opened.current_time,
                body.clone(),
                vec![],
            )
            .unwrap();
        // Read-your-writes: the transaction owner sees its uncommitted
        // version (the batch from the owner takes the exclusive path too).
        let mine = writer.batch(vec![open_req(node)]).unwrap();
        match &mine[0] {
            Response::Opened { contents, .. } => assert_eq!(&contents[..], &body[..]),
            other => panic!("expected Opened, got {other:?}"),
        }
        writer.commit_transaction().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let mut total = 0;
    for r in readers {
        total += r.join().unwrap();
    }
    assert!(total > 0, "readers made no progress");
    server.stop();
}
