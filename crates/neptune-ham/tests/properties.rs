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

use std::sync::Arc;

use neptune_ham::context::{merge_context, ConflictPolicy};
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::graph::HamGraph;
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

/// Apply an op, mapping arbitrary indices onto live objects; unmatched ops
/// become no-ops so every generated sequence is valid.
fn apply(graph: &mut HamGraph, op: &GraphOp) {
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
            graph.add_node(*keep);
        }
        GraphOp::DeleteNode(i) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                graph.delete_node(id).unwrap();
            }
        }
        GraphOp::AddLink(a, b, offset) => {
            if !live_nodes.is_empty() {
                let from = live_nodes[a % live_nodes.len()];
                let to = live_nodes[b % live_nodes.len()];
                graph
                    .add_link(LinkPt::current(from, *offset), LinkPt::current(to, 0))
                    .unwrap();
            }
        }
        GraphOp::DeleteLink(i) => {
            if !live_links.is_empty() {
                let id = live_links[i % live_links.len()];
                graph.delete_link(id).unwrap();
            }
        }
        GraphOp::ModifyNode(i, contents) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                // Only archive nodes accept historical modification here.
                if graph.node(id).unwrap().is_archive() {
                    let now = graph.tick();
                    graph
                        .node_mut(id)
                        .unwrap()
                        .modify(contents.clone(), now, "prop")
                        .unwrap();
                }
            }
        }
        GraphOp::SetAttr(i, a, v) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                let attr = graph.attribute_index(ATTR_NAMES[*a as usize]);
                graph
                    .set_node_attr(id, attr, Value::Int(*v as i64))
                    .unwrap();
            }
        }
        GraphOp::DeleteAttr(i, a) => {
            if !live_nodes.is_empty() {
                let id = live_nodes[i % live_nodes.len()];
                let attr = graph.attribute_index(ATTR_NAMES[*a as usize]);
                let _ = graph.delete_node_attr(id, attr);
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
        let mut checkpoints: Vec<(Time, String)> = Vec::new();
        for op in &ops {
            apply(&mut graph, op);
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
        for op in &ops {
            apply(&mut graph, op);
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
        for op in &ops {
            apply(&mut graph, op);
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

/// Merge `child` into copies of `parent` three ways: whole, as its
/// `merge_delta`, and as that delta after an encode/decode round trip (what
/// WAL replay merges). All three must give the same report, or the same
/// error, and the same parent bytes. Returns the whole merge's outcome.
fn merge_alike(
    parent: &HamGraph,
    child: &HamGraph,
    fork: Time,
    policy: ConflictPolicy,
    what: &str,
) -> (
    HamGraph,
    neptune_ham::Result<neptune_ham::context::MergeReport>,
) {
    let mut whole = parent.clone();
    let expected = merge_context(&mut whole, child, fork, policy);
    let delta = child.merge_delta(parent, fork);
    assert!(
        delta.nodes().count() <= child.nodes().count()
            && delta.links().count() <= child.links().count(),
        "{what}, {policy:?}: the delta outgrew the child"
    );
    let replayed = HamGraph::from_bytes(&delta.to_bytes()).unwrap();
    for (how, input) in [("delta", &delta), ("decoded delta", &replayed)] {
        let mut merged = parent.clone();
        let got = merge_context(&mut merged, input, fork, policy);
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
/// and child, a merge, then a second round from a re-fork at the parent's
/// clock (the child keeps its own). Every merge agrees whole and as a delta.
#[test]
fn merge_delta_merges_like_the_whole_child() {
    let mut rng = XorShift::new(0xA006);
    for case in 0..96 {
        let mut base = HamGraph::new(ProjectId(5));
        for op in gen_ops(&mut rng, 1, 30) {
            apply(&mut base, &op);
        }
        let child_ops = gen_ops(&mut rng, 1, 30);
        let parent_ops = gen_ops(&mut rng, 1, 8);
        let again_ops = gen_ops(&mut rng, 1, 12);
        let parent_edits = rng.chance(1, 2);
        for policy in POLICIES {
            let what = format!("case {case}");
            let fork = base.now();
            let mut parent = base.clone();
            let mut child = base.clone();
            for op in &child_ops {
                apply(&mut child, op);
            }
            if parent_edits {
                for op in &parent_ops {
                    apply(&mut parent, op);
                }
            }
            let (merged, first) = merge_alike(&parent, &child, fork, policy, &what);
            if first.is_err() {
                continue;
            }
            let refork = merged.now();
            for op in &again_ops {
                apply(&mut child, op);
            }
            let _ = merge_alike(&merged, &child, refork, policy, &format!("{what}, again"));
        }
    }
}

/// A parent with archive nodes a, b, c (a and b with contents), a link
/// a -> b, and a "status" attribute on a and on the link.
fn merge_base() -> (HamGraph, [NodeIndex; 3], LinkIndex) {
    let mut g = HamGraph::new(ProjectId(8));
    let ids = [g.add_node(true).0, g.add_node(true).0, g.add_node(true).0];
    for (id, text) in ids.iter().zip([&b"node a\n"[..], b"node b\n"]) {
        let now = g.tick();
        g.node_mut(*id)
            .unwrap()
            .modify(text.to_vec(), now, "init")
            .unwrap();
    }
    let (link, _) = g
        .add_link(LinkPt::current(ids[0], 0), LinkPt::current(ids[1], 0))
        .unwrap();
    let status = g.attribute_index("status");
    g.set_node_attr(ids[0], status, Value::str("draft"))
        .unwrap();
    g.set_link_attr(link, status, Value::str("draft")).unwrap();
    (g, ids, link)
}

fn edit(graph: &mut HamGraph, id: NodeIndex, text: &str) {
    let now = graph.tick();
    graph
        .node_mut(id)
        .unwrap()
        .modify(text.as_bytes().to_vec(), now, "edit")
        .unwrap();
}

/// Merge under every policy and require all three to agree whole and as a
/// delta; the outcomes, in `POLICIES` order.
fn merge_each_policy(
    parent: &HamGraph,
    child: &HamGraph,
    fork: Time,
    what: &str,
) -> Vec<neptune_ham::Result<neptune_ham::context::MergeReport>> {
    POLICIES
        .iter()
        .map(|&policy| merge_alike(parent, child, fork, policy, what).1)
        .collect()
}

#[test]
fn merge_delta_keeps_the_ends_of_new_links() {
    let (parent, [a, b, c], _) = merge_base();
    let fork = parent.now();
    let mut child = parent.clone();
    // A new node linked to unchanged c, and a new link between two
    // unchanged pre-fork nodes.
    let (d, _) = child.add_node(true);
    child
        .add_link(LinkPt::current(d, 0), LinkPt::current(c, 0))
        .unwrap();
    child
        .add_link(LinkPt::current(a, 0), LinkPt::current(c, 0))
        .unwrap();
    for report in merge_each_policy(&parent, &child, fork, "new links") {
        assert_eq!(report.unwrap().links_added.len(), 2);
    }
    let delta = child.merge_delta(&parent, fork);
    assert!(delta.node(a).is_ok() && delta.node(c).is_ok());
    assert!(delta.node(b).is_err(), "b is neither changed nor an end");
}

#[test]
fn merge_delta_carries_deletions() {
    let (parent, [_, b, _], link) = merge_base();
    let fork = parent.now();

    let mut child = parent.clone();
    child.delete_node(b).unwrap();
    for report in merge_each_policy(&parent, &child, fork, "node deleted") {
        assert_eq!(report.unwrap().nodes_deleted, vec![b]);
    }

    let mut child = parent.clone();
    child.delete_link(link).unwrap();
    for report in merge_each_policy(&parent, &child, fork, "link deleted") {
        assert_eq!(report.unwrap().links_deleted, vec![link]);
    }
}

#[test]
fn merge_delta_carries_attribute_deletions() {
    let (parent, [a, _, _], link) = merge_base();
    let fork = parent.now();
    let mut child = parent.clone();
    let status = child.attribute_index("status");
    child.delete_node_attr(a, status).unwrap();
    child.delete_link_attr(link, status).unwrap();
    for report in merge_each_policy(&parent, &child, fork, "attribute deleted") {
        assert_eq!(report.unwrap().attrs_changed, 2);
    }
}

#[test]
fn merge_delta_reports_a_change_to_a_node_the_parent_deleted() {
    let (mut parent, [a, _, _], _) = merge_base();
    let fork = parent.now();
    let mut child = parent.clone();
    edit(&mut child, a, "child edit\n");
    parent.delete_node(a).unwrap();
    let outcomes = merge_each_policy(&parent, &child, fork, "deleted in parent");
    assert!(outcomes[0].is_err(), "Fail refuses the merge");
    for report in &outcomes[1..] {
        assert_eq!(report.as_ref().unwrap().conflicts.len(), 1);
    }
}

/// Item-14 shape: the parent's clock runs ahead, the child merges, is
/// re-forked at the parent's later clock, then edits and deletes a node
/// with times below that fork point. A delta that chose deletions by time
/// would drop b's deletion here; the merge's deletion test reads only
/// liveness, so the delta must too.
#[test]
fn merge_delta_matches_a_second_merge_after_a_refork() {
    let (mut parent, [a, b, c], _) = merge_base();
    let fork = parent.now();
    let mut child = parent.clone();
    for i in 0..20 {
        edit(&mut parent, c, &format!("parent edit {i}\n"));
    }
    edit(&mut child, a, "child edit 1\n");
    let (parent, first) = merge_alike(&parent, &child, fork, ConflictPolicy::Fail, "first");
    assert_eq!(first.unwrap().nodes_modified, vec![a]);

    let refork = parent.now();
    edit(&mut child, a, "child edit 2\n");
    child.delete_node(b).unwrap();
    assert!(child.now() < refork, "the child's times lag the new fork");
    for report in merge_each_policy(&parent, &child, refork, "second") {
        assert_eq!(report.unwrap().nodes_deleted, vec![b]);
    }
}
