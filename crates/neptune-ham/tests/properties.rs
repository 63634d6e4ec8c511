//! Randomized (seeded, deterministic) tests for HAM invariants.
//!
//! The central invariants under test:
//! * any random sequence of HAM operations leaves every historical query
//!   answerable (complete version history);
//! * an abort, or a commit the log refuses, returns every shard to the
//!   view it last published, with all of its contexts;
//! * persistence (snapshot + WAL replay) reproduces the exact state;
//! * merging a child's `merge_delta` is merging the whole child;
//! * `Versioned<T>` behaves like an append-only map from time to value.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use neptune_ham::context::{merge_context, ConflictPolicy};
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::graph::{HamGraph, Stamp};
use neptune_ham::ham::Ham;
use neptune_ham::history::Versioned;
use neptune_ham::predicate::Predicate;
use neptune_ham::query::get_graph_query;
use neptune_ham::shard::ShardedHam;
use neptune_ham::types::{
    ContextId, LinkIndex, LinkPt, NodeIndex, ProjectId, Protections, Time, MAIN_CONTEXT,
};
use neptune_ham::value::Value;

use neptune_storage::codec::{Decode, Encode};
use neptune_storage::fault::{FaultKind, FaultVfs};
use neptune_storage::testutil::XorShift;

/// A randomized mutation against a graph.
#[derive(Debug, Clone)]
enum GraphOp {
    AddNode(bool),
    DeleteNode(usize),
    AddLink(usize, usize, u64),
    DeleteLink(usize),
    ModifyNode(usize, Vec<u8>),
    SetAttr(usize, u8, u8),
    DeleteAttr(usize, u8),
}

fn gen_op(rng: &mut XorShift) -> GraphOp {
    match rng.below(7) {
        0 => GraphOp::AddNode(rng.chance(1, 2)),
        1 => GraphOp::DeleteNode(rng.next_u64() as usize),
        2 => GraphOp::AddLink(
            rng.next_u64() as usize,
            rng.next_u64() as usize,
            rng.below(100),
        ),
        3 => GraphOp::DeleteLink(rng.next_u64() as usize),
        4 => {
            let target = rng.next_u64() as usize;
            let len = rng.below(40) as usize;
            GraphOp::ModifyNode(target, rng.bytes(len))
        }
        5 => GraphOp::SetAttr(
            rng.next_u64() as usize,
            rng.below(4) as u8,
            rng.below(256) as u8,
        ),
        _ => GraphOp::DeleteAttr(rng.next_u64() as usize, rng.below(4) as u8),
    }
}

fn gen_ops(rng: &mut XorShift, min: usize, max: usize) -> Vec<GraphOp> {
    let count = min + rng.below((max - min) as u64) as usize;
    (0..count).map(|_| gen_op(rng)).collect()
}

const ATTR_NAMES: [&str; 4] = ["document", "contentType", "status", "owner"];

/// Apply an op, drawing its time from `clock`, mapping arbitrary indices
/// onto live objects; unmatched ops become no-ops so every generated
/// sequence is valid.
fn apply(graph: &mut HamGraph, clock: &AtomicU64, op: &GraphOp) {
    let live_nodes: Vec<NodeIndex> = graph
        .nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .map(|n| n.id)
        .collect();
    let live_links: Vec<_> = graph
        .links()
        .filter(|l| l.exists_at(Time::CURRENT))
        .map(|l| l.id)
        .collect();
    match op {
        GraphOp::AddNode(keep) => {
            graph.add_node(*keep, clock);
        }
        GraphOp::DeleteNode(i) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                graph.delete_node(id, clock).unwrap();
            }
        }
        GraphOp::AddLink(a, b, offset) => {
            if !live_nodes.is_empty() {
                let from = live_nodes[a % live_nodes.len()];
                let to = live_nodes[b % live_nodes.len()];
                graph
                    .add_link(
                        LinkPt::current(from, *offset),
                        LinkPt::current(to, 0),
                        clock,
                    )
                    .unwrap();
            }
        }
        GraphOp::DeleteLink(i) => {
            if !live_links.is_empty() {
                let id = live_links[i % live_links.len()];
                graph.delete_link(id, clock).unwrap();
            }
        }
        GraphOp::ModifyNode(i, contents) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                // Only archive nodes accept historical modification here.
                if graph.node(id).unwrap().is_archive() {
                    graph.check_in(id, contents.clone(), clock, "prop").unwrap();
                }
            }
        }
        GraphOp::SetAttr(i, a, v) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                let attr = graph.attribute_index(ATTR_NAMES[*a as usize], clock);
                graph
                    .set_node_attr(id, attr, Value::Int(*v as i64), clock)
                    .unwrap();
            }
        }
        GraphOp::DeleteAttr(i, a) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                let attr = graph.attribute_index(ATTR_NAMES[*a as usize], clock);
                let _ = graph.delete_node_attr(id, attr, clock);
            }
        }
    }
}

/// Snapshot of all observable state at a time, for equivalence checks.
fn observe(graph: &HamGraph, time: Time) -> String {
    let mut out = String::new();
    for n in graph.nodes() {
        if !n.exists_at(time) {
            continue;
        }
        out.push_str(&format!("node {} ", n.id.0));
        if n.is_archive() {
            if let Ok(c) = n.contents_at(time) {
                out.push_str(&format!("contents={c:?} "));
            }
        }
        for (attr, value) in n.attrs.all_at(time) {
            out.push_str(&format!("{}={} ", attr.0, value));
        }
        out.push('\n');
    }
    for l in graph.links() {
        if !l.exists_at(time) {
            continue;
        }
        out.push_str(&format!(
            "link {} {}->{} @{:?}\n",
            l.id.0,
            l.from.node.0,
            l.to.node.0,
            l.from.position_at(time)
        ));
    }
    out
}

/// Mutating the graph never disturbs what historical times observe.
#[test]
fn history_is_immutable() {
    let mut rng = XorShift::new(0xA001);
    for _ in 0..64 {
        let ops = gen_ops(&mut rng, 1, 40);
        let mut graph = HamGraph::new(ProjectId(1));
        let clock = AtomicU64::new(1);
        let mut checkpoints: Vec<(Time, String)> = Vec::new();
        for op in &ops {
            apply(&mut graph, &clock, op);
            let now = graph.now();
            checkpoints.push((now, observe(&graph, now)));
        }
        // Every past observation must still hold.
        for (time, expected) in &checkpoints {
            assert_eq!(&observe(&graph, *time), expected);
        }
    }
}

/// One step of a HAM-level script: a graph op in one context, or an op on
/// the contexts themselves. Indices pick among whatever is live.
#[derive(Debug, Clone)]
enum HamOp {
    Graph(usize, GraphOp),
    Fork(usize),
    Merge(usize),
    Destroy(usize),
    Protect(usize, usize),
    NodeDemon(usize, usize),
}

fn gen_ham_ops(rng: &mut XorShift, min: usize, max: usize) -> Vec<HamOp> {
    let count = min + rng.below((max - min) as u64) as usize;
    (0..count)
        .map(|_| {
            let (c, n) = (rng.next_u64() as usize, rng.next_u64() as usize);
            match rng.below(12) {
                0 => HamOp::Fork(c),
                1 => HamOp::Merge(c),
                2 => HamOp::Destroy(c),
                3 => HamOp::Protect(c, n),
                4 => HamOp::NodeDemon(c, n),
                _ => HamOp::Graph(c, gen_op(rng)),
            }
        })
        .collect()
}

fn live_nodes(graph: &HamGraph) -> Vec<NodeIndex> {
    graph
        .nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .map(|n| n.id)
        .collect()
}

/// Apply a graph op through the machine's API. Links attach at offset 0,
/// which no later edit can leave beyond a node's contents, so committed
/// scripts stay within the strict invariants.
fn apply_in(ham: &mut Ham, ctx: ContextId, op: &GraphOp) {
    let Ok(graph) = ham.graph(ctx) else { return };
    let nodes = live_nodes(graph);
    let links: Vec<_> = graph
        .links()
        .filter(|l| l.exists_at(Time::CURRENT))
        .map(|l| l.id)
        .collect();
    let node = |i: &usize| (!nodes.is_empty()).then(|| nodes[i % nodes.len()]);
    match op {
        GraphOp::AddNode(keep) => {
            let _ = ham.add_node(ctx, *keep);
        }
        GraphOp::DeleteNode(i) => {
            if let Some(id) = node(i) {
                let _ = ham.delete_node(ctx, id);
            }
        }
        GraphOp::AddLink(a, b, _) => {
            if let (Some(from), Some(to)) = (node(a), node(b)) {
                let _ = ham.add_link(ctx, LinkPt::current(from, 0), LinkPt::current(to, 0));
            }
        }
        GraphOp::DeleteLink(i) => {
            if !links.is_empty() {
                let _ = ham.delete_link(ctx, links[i % links.len()]);
            }
        }
        GraphOp::ModifyNode(i, contents) => {
            if let Some(id) = node(i) {
                if let Ok(opened) = ham.read_node(ctx, id, Time::CURRENT, &[]) {
                    let _ = ham.modify_node(
                        ctx,
                        id,
                        opened.current_time,
                        contents.clone(),
                        &opened.link_pts,
                    );
                }
            }
        }
        GraphOp::SetAttr(i, a, v) => {
            if let Some(id) = node(i) {
                if let Ok(attr) = ham.get_attribute_index(ctx, ATTR_NAMES[*a as usize]) {
                    let _ = ham.set_node_attribute_value(ctx, id, attr, Value::Int(*v as i64));
                }
            }
        }
        GraphOp::DeleteAttr(i, a) => {
            if let Some(id) = node(i) {
                if let Ok(attr) = ham.get_attribute_index(ctx, ATTR_NAMES[*a as usize]) {
                    let _ = ham.delete_node_attribute(ctx, id, attr);
                }
            }
        }
    }
}

fn forked_from(ham: &ShardedHam, ctx: ContextId) -> Option<ContextId> {
    let guard = ham.lock_shard(ham.shard_of(ctx));
    Some(guard.context_forked_from(ctx).ok()??.0)
}

/// Apply one script step; ops that the machine refuses are skipped.
fn apply_ham(ham: &ShardedHam, op: &HamOp) {
    let contexts = ham.live_contexts();
    let pick = |i: &usize| contexts[i % contexts.len()];
    let on_node = |i: &usize, n: &usize, f: &dyn Fn(&mut Ham, ContextId, NodeIndex)| {
        let ctx = pick(i);
        let mut guard = ham.lock_home(ctx).unwrap();
        let nodes = guard.graph(ctx).map(live_nodes).unwrap_or_default();
        if !nodes.is_empty() {
            f(&mut guard, ctx, nodes[n % nodes.len()]);
        }
    };
    match op {
        HamOp::Graph(i, g) => {
            let ctx = pick(i);
            apply_in(&mut ham.lock_home(ctx).unwrap(), ctx, g);
        }
        HamOp::Fork(i) => {
            let _ = ham.create_context(pick(i));
        }
        HamOp::Merge(i) => {
            if pick(i) != MAIN_CONTEXT {
                let _ = ham.merge_context(pick(i), ConflictPolicy::PreferChild);
            }
        }
        HamOp::Destroy(i) => {
            // Destroying a fork parent partitions its children, which the
            // strict invariants reject at commit: only leaves go.
            let ctx = pick(i);
            let is_parent = contexts.iter().any(|&c| forked_from(ham, c) == Some(ctx));
            if ctx != MAIN_CONTEXT && !is_parent {
                let _ = ham.destroy_context(ctx);
            }
        }
        HamOp::Protect(i, n) => on_node(i, n, &|ham, ctx, node| {
            let _ = ham.change_node_protection(ctx, node, Protections::PRIVATE);
        }),
        HamOp::NodeDemon(i, n) => on_node(i, n, &|ham, ctx, node| {
            let demon = DemonSpec::notify("edited", "node modified");
            let _ = ham.set_node_demon(ctx, node, Event::NodeModified, Some(demon));
        }),
    }
}

/// What a context looked like in a published view, copied out so that a
/// write leaking into the view's shared structure would show.
#[derive(Debug, PartialEq)]
struct ContextState {
    graph: Vec<u8>,
    observed: String,
    now: Time,
    forked_from: Option<(ContextId, Time)>,
    protections: Vec<(NodeIndex, Protections)>,
}

fn context_state(graph: &HamGraph, forked_from: Option<(ContextId, Time)>) -> ContextState {
    ContextState {
        graph: graph.to_bytes(),
        observed: observe(graph, Time::CURRENT),
        now: graph.now(),
        forked_from,
        protections: graph.nodes().map(|n| (n.id, n.protections)).collect(),
    }
}

/// Commit `ops_before`, run `ops_after` in an explicit transaction, then
/// abort it — or, with `fail_commit`, commit it with the first fsync
/// failing. Either way every shard must be back at the view it published
/// before the transaction: the same contexts, each the view's very thread,
/// with the graph, clock, fork point and protections it had.
fn check_transaction_restores_view(nshards: usize, seed: u64, fail_commit: bool) {
    let mut rng = XorShift::new(seed);
    let dir = std::env::temp_dir().join(format!(
        "neptune-prop-restore-{nshards}-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = FaultVfs::new();
    let (ham, _, _) =
        ShardedHam::create_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT, nshards)
            .unwrap();
    let mut ops_before = vec![HamOp::Fork(0), HamOp::Fork(0)];
    ops_before.extend(gen_ham_ops(&mut rng, 20, 60));
    for op in &ops_before {
        apply_ham(&ham, op);
    }
    let views: Vec<_> = (0..nshards)
        .map(|k| ham.lock_shard(k).committed_view())
        .collect();
    let before: Vec<Vec<(ContextId, ContextState)>> = views
        .iter()
        .map(|view| {
            let state =
                |c| context_state(view.graph(c).unwrap(), view.context_forked_from(c).unwrap());
            view.contexts().into_iter().map(|c| (c, state(c))).collect()
        })
        .collect();

    // Every kind of op first, the two forks from MAIN usually landing on
    // other shards; then a random tail.
    let mut ops_after = vec![
        HamOp::Graph(0, GraphOp::AddNode(true)),
        HamOp::Graph(0, GraphOp::ModifyNode(0, b"inside\n".to_vec())),
        HamOp::Graph(1, GraphOp::SetAttr(0, 0, 1)),
        HamOp::Graph(1, GraphOp::AddLink(0, 1, 0)),
        HamOp::Fork(0),
        HamOp::Fork(0),
        HamOp::Protect(0, 0),
        HamOp::NodeDemon(0, 0),
        HamOp::Merge(1),
        HamOp::Destroy(2),
    ];
    ops_after.extend(gen_ham_ops(&mut rng, 20, 60));
    ham.begin_transaction().unwrap();
    for op in &ops_after {
        apply_ham(&ham, op);
    }
    if fail_commit {
        vfs.arm(FaultKind::FailSync, 0);
        let result = ham.commit_transaction();
        vfs.disarm();
        assert!(result.is_err(), "seed {seed}: the commit must fail");
        assert!(vfs.injected() > 0, "seed {seed}: the fault must fire");
    } else {
        ham.abort_transaction().unwrap();
    }
    assert!(!ham.in_transaction());

    for (k, (view, want)) in views.iter().zip(&before).enumerate() {
        let guard = ham.lock_shard(k);
        assert!(
            Arc::ptr_eq(&guard.committed_view(), view),
            "seed {seed}: shard {k} published again"
        );
        let ids: Vec<ContextId> = want.iter().map(|(c, _)| *c).collect();
        assert_eq!(guard.contexts(), ids, "seed {seed}: shard {k} contexts");
        for (ctx, state) in want {
            let graph = guard.graph(*ctx).unwrap();
            assert!(
                std::ptr::eq(graph, view.graph(*ctx).unwrap()),
                "seed {seed}: shard {k} {ctx:?} is not the view's thread"
            );
            let got = context_state(graph, guard.context_forked_from(*ctx).unwrap());
            assert_eq!(&got, state, "seed {seed}: shard {k} {ctx:?}");
        }
    }
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_restores_the_published_view_single_shard() {
    for seed in 1..=8 {
        check_transaction_restores_view(1, 0xA002_0000 + seed, false);
    }
}

#[test]
fn abort_restores_the_published_view_eight_shards() {
    for seed in 1..=8 {
        check_transaction_restores_view(8, 0xA002_0000 + seed, false);
    }
}

#[test]
fn failed_commit_restores_the_published_view() {
    for seed in 1..=4 {
        check_transaction_restores_view(1, 0xA002_1000 + seed, true);
        check_transaction_restores_view(8, 0xA002_1000 + seed, true);
    }
}

/// Encoding and decoding a graph preserves every observable time.
#[test]
fn graph_codec_is_faithful() {
    let mut rng = XorShift::new(0xA003);
    for _ in 0..64 {
        let ops = gen_ops(&mut rng, 1, 30);
        let mut graph = HamGraph::new(ProjectId(7));
        let clock = AtomicU64::new(1);
        for op in &ops {
            apply(&mut graph, &clock, op);
        }
        let decoded = HamGraph::from_bytes(&graph.to_bytes()).unwrap();
        assert_eq!(&decoded, &graph);
        for t in 1..=graph.now().0 {
            assert_eq!(observe(&decoded, Time(t)), observe(&graph, Time(t)));
        }
    }
}

/// The indexed query path always agrees with the scan path.
#[test]
fn indexed_query_equals_scan() {
    let mut rng = XorShift::new(0xA004);
    for _ in 0..64 {
        let ops = gen_ops(&mut rng, 1, 40);
        let mut graph = HamGraph::new(ProjectId(3));
        let clock = AtomicU64::new(1);
        for op in &ops {
            apply(&mut graph, &clock, op);
        }
        for v in 0..4u8 {
            let pred = Predicate::parse(&format!("document = {v}")).unwrap();
            let fast =
                get_graph_query(&graph, Time::CURRENT, &pred, &Predicate::True, &[], &[]).unwrap();
            let slow = neptune_ham::query::get_graph_query_scan(
                &graph,
                Time::CURRENT,
                &pred,
                &Predicate::True,
                &[],
                &[],
            )
            .unwrap();
            assert_eq!(fast, slow);
        }
    }
}

/// Versioned cells answer get_at consistently with a naive model.
#[test]
fn versioned_cell_matches_model() {
    let mut rng = XorShift::new(0xA005);
    for _ in 0..64 {
        let count = 1 + rng.below(29) as usize;
        let mut writes: Vec<(u64, Option<u32>)> = (0..count)
            .map(|_| {
                let t = 1 + rng.below(99);
                let v = if rng.chance(3, 4) {
                    Some(rng.next_u64() as u32)
                } else {
                    None
                };
                (t, v)
            })
            .collect();
        // Sort times to satisfy the monotonic-write contract.
        writes.sort_by_key(|(t, _)| *t);
        let mut cell: Versioned<u32> = Versioned::new();
        let mut model: Vec<(u64, Option<u32>)> = Vec::new();
        for (t, v) in &writes {
            match v {
                Some(v) => cell.set(Time(*t), *v),
                None => cell.delete(Time(*t)),
            }
            if model.last().map(|(mt, _)| *mt) == Some(*t) {
                model.last_mut().unwrap().1 = *v;
            } else {
                model.push((*t, *v));
            }
        }
        for q in 0..110u64 {
            let expected = model
                .iter()
                .rev()
                .find(|(t, _)| *t <= q && q > 0)
                .and_then(|(_, v)| v.as_ref());
            // q == 0 means CURRENT.
            let expected = if q == 0 {
                model.last().and_then(|(_, v)| v.as_ref())
            } else {
                expected
            };
            assert_eq!(cell.get_at(Time(q)), expected, "query at {q}");
        }
    }
}

const POLICIES: [ConflictPolicy; 3] = [
    ConflictPolicy::Fail,
    ConflictPolicy::PreferChild,
    ConflictPolicy::PreferParent,
];

/// Merge `child` into copies of `parent` three ways, each at one time drawn
/// from `clock`: whole, as its `merge_delta`, and as that delta after an
/// encode/decode round trip (what WAL replay merges). All three must give
/// the same report, or the same error, and the same parent bytes. Returns
/// the whole merge's outcome.
fn merge_alike(
    parent: &HamGraph,
    child: &HamGraph,
    fork: Time,
    policy: ConflictPolicy,
    clock: &AtomicU64,
    what: &str,
) -> (
    HamGraph,
    neptune_ham::Result<neptune_ham::context::MergeReport>,
) {
    let now = clock.stamp();
    let mut whole = parent.clone();
    let expected = merge_context(&mut whole, child, fork, policy, now);
    let delta = child.merge_delta(parent, fork);
    assert!(
        delta.nodes().count() <= child.nodes().count()
            && delta.links().count() <= child.links().count(),
        "{what}, {policy:?}: the delta outgrew the child"
    );
    let replayed = HamGraph::from_bytes(&delta.to_bytes()).unwrap();
    for (how, input) in [("delta", &delta), ("decoded delta", &replayed)] {
        let mut merged = parent.clone();
        let got = merge_context(&mut merged, input, fork, policy, now);
        assert_eq!(
            format!("{got:?}"),
            format!("{expected:?}"),
            "{what}, {policy:?}: the {how} merged otherwise"
        );
        assert!(
            merged.to_bytes() == whole.to_bytes(),
            "{what}, {policy:?}: the {how} left other parent bytes"
        );
    }
    (whole, expected)
}

/// Seeded fork/edit/merge scripts: a base graph, divergent edits in parent
/// and child, a merge, then a second round from the re-fork at the merge's
/// time. Every merge agrees whole and as a delta.
#[test]
fn merge_delta_merges_like_the_whole_child() {
    let mut rng = XorShift::new(0xA006);
    for case in 0..96 {
        let mut base = HamGraph::new(ProjectId(5));
        let clock = AtomicU64::new(1);
        for op in gen_ops(&mut rng, 1, 30) {
            apply(&mut base, &clock, &op);
        }
        let child_ops = gen_ops(&mut rng, 1, 30);
        let parent_ops = gen_ops(&mut rng, 1, 8);
        let again_ops = gen_ops(&mut rng, 1, 12);
        let parent_edits = rng.chance(1, 2);
        for policy in POLICIES {
            let what = format!("case {case}");
            let fork = fork_point(&clock);
            let mut parent = base.clone();
            let mut child = base.clone();
            for op in &child_ops {
                apply(&mut child, &clock, op);
            }
            if parent_edits {
                for op in &parent_ops {
                    apply(&mut parent, &clock, op);
                }
            }
            let (merged, first) = merge_alike(&parent, &child, fork, policy, &clock, &what);
            if first.is_err() {
                continue;
            }
            let refork = fork_point(&clock);
            for op in &again_ops {
                apply(&mut child, &clock, op);
            }
            let again = format!("{what}, again");
            let _ = merge_alike(&merged, &child, refork, policy, &clock, &again);
        }
    }
}

/// A fork point: the store clock's current value.
fn fork_point(clock: &AtomicU64) -> Time {
    Time(clock.load(Ordering::Relaxed))
}

/// A parent with archive nodes a, b, c (a and b with contents), a link
/// a -> b, and a "status" attribute on a and on the link; and the store
/// clock it drew its times from.
fn merge_base() -> (HamGraph, AtomicU64, [NodeIndex; 3], LinkIndex) {
    let mut g = HamGraph::new(ProjectId(8));
    let clock = AtomicU64::new(1);
    let ids = [(); 3].map(|_| g.add_node(true, &clock).0);
    for (id, text) in ids.iter().zip([&b"node a\n"[..], b"node b\n"]) {
        g.check_in(*id, text.to_vec(), &clock, "init").unwrap();
    }
    let (link, _) = g
        .add_link(
            LinkPt::current(ids[0], 0),
            LinkPt::current(ids[1], 0),
            &clock,
        )
        .unwrap();
    let status = g.attribute_index("status", &clock);
    g.set_node_attr(ids[0], status, Value::str("draft"), &clock)
        .unwrap();
    g.set_link_attr(link, status, Value::str("draft"), &clock)
        .unwrap();
    (g, clock, ids, link)
}

fn edit(graph: &mut HamGraph, clock: &AtomicU64, id: NodeIndex, text: &str) {
    graph
        .check_in(id, text.as_bytes().to_vec(), clock, "edit")
        .unwrap();
}

/// Merge under every policy and require all three to agree whole and as a
/// delta; the outcomes, in `POLICIES` order.
fn merge_each_policy(
    parent: &HamGraph,
    child: &HamGraph,
    fork: Time,
    clock: &AtomicU64,
    what: &str,
) -> Vec<neptune_ham::Result<neptune_ham::context::MergeReport>> {
    POLICIES
        .iter()
        .map(|&policy| merge_alike(parent, child, fork, policy, clock, what).1)
        .collect()
}

#[test]
fn merge_delta_keeps_the_ends_of_new_links() {
    let (parent, clock, [a, b, c], _) = merge_base();
    let fork = fork_point(&clock);
    let mut child = parent.clone();
    // A new node linked to unchanged c, and a new link between two
    // unchanged pre-fork nodes.
    let (d, _) = child.add_node(true, &clock);
    child
        .add_link(LinkPt::current(d, 0), LinkPt::current(c, 0), &clock)
        .unwrap();
    child
        .add_link(LinkPt::current(a, 0), LinkPt::current(c, 0), &clock)
        .unwrap();
    for report in merge_each_policy(&parent, &child, fork, &clock, "new links") {
        assert_eq!(report.unwrap().links_added.len(), 2);
    }
    let delta = child.merge_delta(&parent, fork);
    assert!(delta.node(a).is_ok() && delta.node(c).is_ok());
    assert!(delta.node(b).is_err(), "b is neither changed nor an end");
}

#[test]
fn merge_delta_carries_deletions() {
    let (parent, clock, [_, b, _], link) = merge_base();
    let fork = fork_point(&clock);

    let mut child = parent.clone();
    child.delete_node(b, &clock).unwrap();
    for report in merge_each_policy(&parent, &child, fork, &clock, "node deleted") {
        assert_eq!(report.unwrap().nodes_deleted, vec![b]);
    }

    let mut child = parent.clone();
    child.delete_link(link, &clock).unwrap();
    for report in merge_each_policy(&parent, &child, fork, &clock, "link deleted") {
        assert_eq!(report.unwrap().links_deleted, vec![link]);
    }
}

#[test]
fn merge_delta_carries_attribute_deletions() {
    let (parent, clock, [a, _, _], link) = merge_base();
    let fork = fork_point(&clock);
    let mut child = parent.clone();
    let status = child.attribute_index("status", &clock);
    child.delete_node_attr(a, status, &clock).unwrap();
    child.delete_link_attr(link, status, &clock).unwrap();
    for report in merge_each_policy(&parent, &child, fork, &clock, "attribute deleted") {
        assert_eq!(report.unwrap().attrs_changed, 2);
    }
}

#[test]
fn merge_delta_reports_a_change_to_a_node_the_parent_deleted() {
    let (mut parent, clock, [a, _, _], _) = merge_base();
    let fork = fork_point(&clock);
    let mut child = parent.clone();
    edit(&mut child, &clock, a, "child edit\n");
    parent.delete_node(a, &clock).unwrap();
    let outcomes = merge_each_policy(&parent, &child, fork, &clock, "deleted in parent");
    assert!(outcomes[0].is_err(), "Fail refuses the merge");
    for report in &outcomes[1..] {
        assert_eq!(report.as_ref().unwrap().conflicts.len(), 1);
    }
}

/// The lost-edit shape: the parent runs ahead, the child merges, is re-forked at
/// the merge's time, then edits one node and deletes another. Both drew
/// their times from the store clock after the re-fork, so the second merge
/// sees both changes; the deletion comes from the liveness test, which the
/// delta must follow too.
#[test]
fn merge_delta_matches_a_second_merge_after_a_refork() {
    let (mut parent, clock, [a, b, c], _) = merge_base();
    let fork = fork_point(&clock);
    let mut child = parent.clone();
    for i in 0..20 {
        edit(&mut parent, &clock, c, &format!("parent edit {i}\n"));
    }
    edit(&mut child, &clock, a, "child edit 1\n");
    let (parent, first) = merge_alike(&parent, &child, fork, ConflictPolicy::Fail, &clock, "first");
    assert_eq!(first.unwrap().nodes_modified, vec![a]);

    let refork = fork_point(&clock);
    assert_eq!(
        parent.now(),
        refork,
        "the re-fork point is the merge's time"
    );
    edit(&mut child, &clock, a, "child edit 2\n");
    child.delete_node(b, &clock).unwrap();
    assert!(
        child.now() > refork,
        "the child's new times pass the re-fork"
    );
    for report in merge_each_policy(&parent, &child, refork, &clock, "second") {
        let report = report.unwrap();
        assert_eq!(report.nodes_modified, vec![a]);
        assert_eq!(report.nodes_deleted, vec![b]);
    }
}

/// One step of a fork/edit/merge stream over MAIN's nodes. `ctx` picks
/// MAIN (0) or a live child; numbers are resolved against what is live.
#[derive(Debug, Clone, Copy)]
enum StreamOp {
    Fork,
    Edit { ctx: usize, node: usize },
    SetAttr { ctx: usize, node: usize, value: i64 },
    Merge { child: usize },
}

const STREAM_NODES: usize = 4;

fn gen_stream(rng: &mut XorShift, len: usize) -> Vec<StreamOp> {
    let mut ops = vec![StreamOp::Fork];
    for _ in 1..len {
        let (ctx, node) = (
            rng.below(4) as usize,
            rng.below(STREAM_NODES as u64) as usize,
        );
        ops.push(match rng.below(10) {
            0 => StreamOp::Fork,
            1..=3 => StreamOp::Merge {
                child: rng.below(3) as usize,
            },
            4..=6 => StreamOp::Edit { ctx, node },
            _ => StreamOp::SetAttr {
                ctx,
                node,
                value: rng.below(5) as i64,
            },
        });
    }
    ops
}

/// A context as the reference sees it: contents and "status" per node.
#[derive(Debug, Clone, PartialEq)]
struct ModelContext {
    contents: Vec<String>,
    status: Vec<Option<i64>>,
}

/// A child in the reference: its state, and what each side changed since
/// its fork as flags — no times anywhere.
#[derive(Debug, Clone)]
struct ModelChild {
    state: ModelContext,
    child_content: [bool; STREAM_NODES],
    child_attr: [bool; STREAM_NODES],
    parent_content: [bool; STREAM_NODES],
    parent_attr: [bool; STREAM_NODES],
}

impl ModelChild {
    fn forked(main: &ModelContext) -> ModelChild {
        ModelChild {
            state: main.clone(),
            child_content: [false; STREAM_NODES],
            child_attr: [false; STREAM_NODES],
            parent_content: [false; STREAM_NODES],
            parent_attr: [false; STREAM_NODES],
        }
    }
}

/// What a merge reports, reduced to what the reference predicts:
/// `(nodes modified, attributes changed, conflicts)`, or `None` for a
/// refused merge.
type MergeOutcome = Option<(Vec<usize>, usize, usize)>;

/// The reference merge: node by node, contents then "status", exactly the
/// precedence `merge_context` promises. Applies a successful merge to the
/// model and re-forks the child.
fn model_merge(
    main: &mut ModelContext,
    children: &mut [ModelChild],
    k: usize,
    policy: ConflictPolicy,
) -> MergeOutcome {
    let child = &children[k];
    let (mut modified, mut attrs, mut conflicts) = (Vec::new(), Vec::new(), 0);
    for i in 0..STREAM_NODES {
        for (changed, parent_changed, out) in [
            (
                child.child_content[i],
                child.parent_content[i],
                &mut modified,
            ),
            (child.child_attr[i], child.parent_attr[i], &mut attrs),
        ] {
            if !changed {
                continue;
            }
            let apply = !parent_changed
                || match policy {
                    ConflictPolicy::Fail => return None,
                    ConflictPolicy::PreferChild => true,
                    ConflictPolicy::PreferParent => false,
                };
            conflicts += usize::from(parent_changed);
            if apply {
                out.push(i);
            }
        }
    }
    let state = children[k].state.clone();
    for &i in &modified {
        main.contents[i] = state.contents[i].clone();
    }
    for &i in &attrs {
        main.status[i] = state.status[i];
    }
    for (j, other) in children.iter_mut().enumerate() {
        if j == k {
            *other = ModelChild {
                state: other.state.clone(),
                ..ModelChild::forked(main)
            };
            continue;
        }
        for &i in &modified {
            other.parent_content[i] = true;
        }
        for &i in &attrs {
            other.parent_attr[i] = true;
        }
    }
    Some((modified, attrs.len(), conflicts))
}

/// Every context's current contents and "status", read from the store.
fn observed(ham: &ShardedHam, ctx: ContextId, nodes: &[NodeIndex]) -> ModelContext {
    let mut guard = ham.lock_home(ctx).unwrap();
    let status = guard.get_attribute_index(ctx, "status").unwrap();
    let mut out = ModelContext {
        contents: Vec::new(),
        status: Vec::new(),
    };
    for &node in nodes {
        let opened = guard
            .read_node(ctx, node, Time::CURRENT, &[status])
            .unwrap();
        out.contents
            .push(String::from_utf8(opened.contents.to_vec()).unwrap());
        out.status.push(opened.values[0].as_ref().map(|v| match v {
            Value::Int(n) => *n,
            other => panic!("status {other:?}"),
        }));
    }
    out
}

/// A context's version times after a stream: its first fork point (`None`
/// for MAIN), its fork point now, and per node the times of its check-ins
/// and attribute changes.
type StreamTimes = (ContextId, Option<Time>, Option<Time>, Vec<Vec<Time>>);

/// Run `ops` under `policy` on a fresh store of `nshards`, checking every
/// merge report and, at the end, every context against the reference.
/// Returns every context's times and the times merges wrote at.
fn run_stream(
    nshards: usize,
    ops: &[StreamOp],
    policy: ConflictPolicy,
    what: &str,
) -> (Vec<StreamTimes>, Vec<Time>) {
    let dir = std::env::temp_dir().join(format!(
        "neptune-prop-stream-{nshards}-{}-{}",
        what.replace([' ', ','], "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, nshards).unwrap();
    let mut main = ModelContext {
        contents: (0..STREAM_NODES).map(|i| format!("node {i}\n")).collect(),
        status: vec![None; STREAM_NODES],
    };
    let nodes: Vec<NodeIndex> = {
        let mut guard = ham.lock_home(MAIN_CONTEXT).unwrap();
        guard.get_attribute_index(MAIN_CONTEXT, "status").unwrap();
        main.contents
            .iter()
            .map(|text| {
                let (id, t) = guard.add_node(MAIN_CONTEXT, true).unwrap();
                guard
                    .modify_node(MAIN_CONTEXT, id, t, text.clone().into_bytes(), &[])
                    .unwrap();
                id
            })
            .collect()
    };
    let mut ids: Vec<ContextId> = Vec::new();
    let mut first_forks = vec![None];
    let mut children: Vec<ModelChild> = Vec::new();
    let mut merge_times = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let at = |ctx: usize| (ctx % (ids.len() + 1)).checked_sub(1);
        match *op {
            StreamOp::Fork if ids.len() < 3 => {
                let id = ham.create_context(MAIN_CONTEXT).unwrap();
                ids.push(id);
                first_forks.push(Some(forked_from_time(&ham, id)));
                children.push(ModelChild::forked(&main));
            }
            StreamOp::Fork => {}
            StreamOp::Edit { ctx, node } => {
                let text = format!("edit {step}\n");
                let context = at(ctx).map_or(MAIN_CONTEXT, |k| ids[k]);
                let mut guard = ham.lock_home(context).unwrap();
                let opened = guard
                    .read_node(context, nodes[node], Time::CURRENT, &[])
                    .unwrap();
                guard
                    .modify_node(
                        context,
                        nodes[node],
                        opened.current_time,
                        text.clone().into_bytes(),
                        &[],
                    )
                    .unwrap();
                match at(ctx) {
                    None => {
                        main.contents[node] = text;
                        children
                            .iter_mut()
                            .for_each(|c| c.parent_content[node] = true);
                    }
                    Some(k) => {
                        children[k].state.contents[node] = text;
                        children[k].child_content[node] = true;
                    }
                }
            }
            StreamOp::SetAttr { ctx, node, value } => {
                let context = at(ctx).map_or(MAIN_CONTEXT, |k| ids[k]);
                let mut guard = ham.lock_home(context).unwrap();
                let status = guard.get_attribute_index(context, "status").unwrap();
                guard
                    .set_node_attribute_value(context, nodes[node], status, Value::Int(value))
                    .unwrap();
                match at(ctx) {
                    None => {
                        main.status[node] = Some(value);
                        children.iter_mut().for_each(|c| c.parent_attr[node] = true);
                    }
                    Some(k) => {
                        children[k].state.status[node] = Some(value);
                        children[k].child_attr[node] = true;
                    }
                }
            }
            StreamOp::Merge { child } => {
                if ids.is_empty() {
                    continue;
                }
                let k = child % ids.len();
                let got = ham.merge_context(ids[k], policy).map(|r| {
                    assert!(r.nodes_added.is_empty() && r.nodes_deleted.is_empty());
                    let modified = r.nodes_modified.iter();
                    let modified = modified.map(|id| nodes.iter().position(|n| n == id).unwrap());
                    (modified.collect(), r.attrs_changed, r.conflicts.len())
                });
                let expected = model_merge(&mut main, &mut children, k, policy);
                assert_eq!(
                    got.ok(),
                    expected,
                    "{what}, step {step}: merge of child {k}"
                );
                if expected.is_some() {
                    merge_times.push(forked_from_time(&ham, ids[k]));
                }
            }
        }
    }
    assert_eq!(observed(&ham, MAIN_CONTEXT, &nodes), main, "{what}: MAIN");
    for (k, &ctx) in ids.iter().enumerate() {
        assert_eq!(
            observed(&ham, ctx, &nodes),
            children[k].state,
            "{what}: child {k}"
        );
    }
    let times = std::iter::once(MAIN_CONTEXT)
        .chain(ids.iter().copied())
        .zip(first_forks)
        .map(|(ctx, first_fork)| {
            let guard = ham.lock_home(ctx).unwrap();
            let graph = guard.graph(ctx).unwrap();
            let per_node = nodes
                .iter()
                .map(|&n| {
                    let node = graph.node(n).unwrap();
                    let mut t: Vec<Time> = node.versions().0.iter().map(|v| v.time).collect();
                    t.extend(node.attrs.change_times());
                    t
                })
                .collect();
            let fork = guard.context_forked_from(ctx).unwrap().map(|(_, t)| t);
            (ctx, first_fork, fork, per_node)
        })
        .collect();
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
    (times, merge_times)
}

fn forked_from_time(ham: &ShardedHam, ctx: ContextId) -> Time {
    let guard = ham.lock_shard(ham.shard_of(ctx));
    guard.context_forked_from(ctx).unwrap().unwrap().1
}

/// Fork/edit/merge streams, merging the same children again and again,
/// under each policy at 1 and 8 shards: every merge report equals the
/// reference's, which knows only what each side edited since the fork, and
/// every context ends as the reference says. One script hands out the same
/// times at 1 and at 8 shards, and no two versions share a time unless one
/// merge wrote both.
#[test]
fn repeated_merges_match_a_reference_that_tracks_edits_as_flags() {
    let mut rng = XorShift::new(0xA007);
    for seed in 0..6 {
        let ops = gen_stream(&mut rng, 70);
        for policy in POLICIES {
            let what = format!("stream {seed}, {policy:?}");
            let (one, merges) = run_stream(1, &ops, policy, &what);
            let (eight, _) = run_stream(8, &ops, policy, &what);
            assert_eq!(one, eight, "{what}: times differ between 1 and 8 shards");

            // A child's versions up to its first fork point are MAIN's.
            let mut seen: std::collections::HashMap<Time, usize> = Default::default();
            for (_, first_fork, _, per_node) in &one {
                for &t in per_node.iter().flatten() {
                    if !first_fork.is_some_and(|f| t <= f) {
                        *seen.entry(t).or_default() += 1;
                    }
                }
            }
            for (t, count) in seen {
                assert!(
                    count == 1 || merges.contains(&t),
                    "{what}: {count} versions share {t:?}, which no merge wrote"
                );
            }
        }
    }
}
