//! Every read answers the same on every server path.
//!
//! A read-only request reaches the HAM one of three ways: lock-free from a
//! published view, as an element of a read batch served from one
//! multi-shard view, or, for the connection that owns the explicit
//! transaction, on the exclusive path against the shard machines
//! themselves. The three are different code, so this test sends every
//! read request (hits, misses, historical times and errors) down each of
//! them, at 1 and at 8 shards, and requires identical responses.

use std::path::PathBuf;

use neptune::ham::ShardedHam;
use neptune::prelude::*;
use neptune::server::{serve_sharded, ObsSetting, Request, Response};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-paths-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Populate a store through `c` and return one request of every read kind
/// over what it made: current and past versions, a forked context, and
/// requests that fail.
fn populate(c: &mut Client) -> Vec<Request> {
    let m = MAIN_CONTEXT;
    let doc = c.get_attribute_index(m, "doc").unwrap();
    let kind = c.get_attribute_index(m, "kind").unwrap();
    let (a, t) = c.add_node(m, true).unwrap();
    let t1 = c
        .modify_node(m, a, t, b"one\ntwo\n".to_vec(), vec![])
        .unwrap();
    let t2 = c
        .modify_node(m, a, t1, b"one\nthree\n".to_vec(), vec![])
        .unwrap();
    let (b, _) = c.add_node(m, false).unwrap();
    let (link, _) = c
        .add_link(m, LinkPt::current(a, 2), LinkPt::current(b, 0))
        .unwrap();
    c.set_node_attribute_value(m, a, doc, Value::str("spec"))
        .unwrap();
    c.set_node_attribute_value(m, b, kind, Value::Int(4))
        .unwrap();
    c.set_link_attribute_value(m, link, doc, Value::Bool(true))
        .unwrap();
    c.set_graph_demon_value(m, Event::NodeAdded, Some(DemonSpec::notify("added", "hi")))
        .unwrap();
    c.set_node_demon(
        m,
        a,
        Event::NodeModified,
        Some(DemonSpec::notify("mod", "a")),
    )
    .unwrap();
    let child = c.create_context(m).unwrap();
    let tc = c.get_node_time_stamp(child, a).unwrap();
    c.modify_node(
        child,
        a,
        tc,
        b"child\n".to_vec(),
        vec![LinkPt::current(a, 2)],
    )
    .unwrap();
    let (d, _) = c.add_node(child, true).unwrap();

    let missing_node = NodeIndex(999);
    let missing_link = LinkIndex(999);
    let missing_context = ContextId(77);
    let mut reads = vec![
        Request::Ping,
        Request::ListContexts,
        Request::Verify,
        Request::Trace { trace_id: 0x5eed },
        Request::ObsControl {
            setting: ObsSetting::Enabled(true),
        },
    ];
    for (ctx, node) in [(m, a), (m, b), (child, a), (child, d), (m, missing_node)] {
        for time in [Time::CURRENT, t1, t2] {
            reads.push(Request::OpenNode {
                context: ctx,
                node,
                time,
                attrs: vec![doc, kind],
            });
            reads.push(Request::GetNodeAttributeValue {
                context: ctx,
                node,
                attr: doc,
                time,
            });
            reads.push(Request::GetNodeAttributes {
                context: ctx,
                node,
                time,
            });
            reads.push(Request::GetNodeDemons {
                context: ctx,
                node,
                time,
            });
        }
        reads.push(Request::GetNodeTimeStamp { context: ctx, node });
        reads.push(Request::GetNodeVersions { context: ctx, node });
        reads.push(Request::GetNodeDifferences {
            context: ctx,
            node,
            time1: t1,
            time2: t2,
        });
    }
    for ctx in [m, child, missing_context] {
        for time in [Time::CURRENT, t1] {
            for l in [link, missing_link] {
                reads.push(Request::GetToNode {
                    context: ctx,
                    link: l,
                    time,
                });
                reads.push(Request::GetFromNode {
                    context: ctx,
                    link: l,
                    time,
                });
                reads.push(Request::GetLinkAttributeValue {
                    context: ctx,
                    link: l,
                    attr: doc,
                    time,
                });
                reads.push(Request::GetLinkAttributes {
                    context: ctx,
                    link: l,
                    time,
                });
            }
            reads.push(Request::GetAttributes { context: ctx, time });
            reads.push(Request::GetAttributeValues {
                context: ctx,
                attr: doc,
                time,
            });
            reads.push(Request::GetGraphDemons { context: ctx, time });
            for (node_pred, link_pred) in
                [("true", "true"), ("doc = spec", "true"), ("= =", "true")]
            {
                reads.push(Request::LinearizeGraph {
                    context: ctx,
                    start: a,
                    time,
                    node_pred: node_pred.into(),
                    link_pred: link_pred.into(),
                    node_attrs: vec![doc],
                    link_attrs: vec![doc],
                });
                reads.push(Request::GetGraphQuery {
                    context: ctx,
                    time,
                    node_pred: node_pred.into(),
                    link_pred: link_pred.into(),
                    node_attrs: vec![doc, kind],
                    link_attrs: vec![],
                });
            }
        }
    }
    assert!(reads.iter().all(Request::is_read_only));
    reads
}

fn check_paths(shards: usize) {
    let dir = tmpdir(&format!("{shards}"));
    let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, shards).unwrap();
    let server = serve_sharded(ham, "127.0.0.1:0").unwrap();
    let mut reader = Client::connect(server.addr()).unwrap();
    let mut owner = Client::connect(server.addr()).unwrap();
    let reads = populate(&mut owner);

    let lock_free: Vec<Response> = reads
        .iter()
        .map(|r| reader.call(r.clone()).unwrap())
        .collect();
    let batched = reader.batch(reads.clone()).unwrap();
    owner.begin_transaction().unwrap();
    let owned: Vec<Response> = reads
        .iter()
        .map(|r| owner.call(r.clone()).unwrap())
        .collect();
    let owned_batch = owner.batch(reads.clone()).unwrap();
    owner.abort_transaction().unwrap();

    assert!(
        lock_free.iter().any(|r| matches!(r, Response::Error(_)))
            && lock_free
                .iter()
                .any(|r| matches!(r, Response::Opened { .. })),
        "the reads must cover both answers and errors"
    );
    for (i, request) in reads.iter().enumerate() {
        assert_eq!(
            batched[i], lock_free[i],
            "{shards} shards, read batch: {request:?}"
        );
        assert_eq!(
            owned[i], lock_free[i],
            "{shards} shards, owner: {request:?}"
        );
        assert_eq!(
            owned_batch[i], lock_free[i],
            "{shards} shards, owner batch: {request:?}"
        );
    }
    drop((reader, owner));
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reads_agree_on_every_path_one_shard() {
    check_paths(1);
}

#[test]
fn reads_agree_on_every_path_eight_shards() {
    check_paths(8);
}
