//! Merging one private world into MAIN again and again keeps every edit.
//! A merge decides what either side changed by comparing
//! version times with the child's fork point, so the times of MAIN and of
//! the child must come from one clock: when each context kept its own, a
//! parent that ran ahead hid the child's next edits below the re-fork point
//! (the second merge dropped them), and a child that ran ahead made its
//! already-merged edits look new (the second merge refused, or overwrote
//! MAIN's later edit with them).
//!
//! Each case runs at 1 shard and at 8 (the child on shard 1, MAIN on
//! shard 0, so both merges cross shards), then reopens the store and
//! requires every context's graph to replay to the bytes the live store
//! held.

use std::path::PathBuf;

use neptune_ham::context::{ConflictPolicy, MergeReport};
use neptune_ham::shard::ShardedHam;
use neptune_ham::types::{ContextId, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_storage::codec::Encode;

/// A store whose MAIN holds nodes a, b and c with contents, and a child
/// forked from it.
struct World {
    ham: ShardedHam,
    dir: PathBuf,
    nodes: [NodeIndex; 3],
    child: ContextId,
}

fn world(name: &str, nshards: usize) -> World {
    let dir = std::env::temp_dir().join(format!(
        "neptune-repeated-merges-{name}-{nshards}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, nshards).unwrap();
    let nodes = ["a", "b", "c"].map(|name| {
        let mut main = ham.lock_home(MAIN_CONTEXT).unwrap();
        let (id, t) = main.add_node(MAIN_CONTEXT, true).unwrap();
        main.modify_node(MAIN_CONTEXT, id, t, format!("{name}\n").into_bytes(), &[])
            .unwrap();
        id
    });
    let child = ham.create_context(MAIN_CONTEXT).unwrap();
    assert_eq!(ham.shard_of(child), 1 % nshards);
    World {
        ham,
        dir,
        nodes,
        child,
    }
}

fn edit(ham: &ShardedHam, ctx: ContextId, node: NodeIndex, text: &str) {
    let mut guard = ham.lock_home(ctx).unwrap();
    let opened = guard.read_node(ctx, node, Time::CURRENT, &[]).unwrap();
    guard
        .modify_node(
            ctx,
            node,
            opened.current_time,
            text.as_bytes().to_vec(),
            &opened.link_pts,
        )
        .unwrap();
}

fn text(ham: &ShardedHam, ctx: ContextId, node: NodeIndex) -> String {
    let guard = ham.lock_home(ctx).unwrap();
    let opened = guard.read_node(ctx, node, Time::CURRENT, &[]).unwrap();
    String::from_utf8(opened.contents.to_vec()).unwrap()
}

fn merge(world: &World, policy: ConflictPolicy) -> MergeReport {
    world.ham.merge_context(world.child, policy).unwrap()
}

/// Every live context's encoded graph.
fn graphs(ham: &ShardedHam) -> Vec<(ContextId, Vec<u8>)> {
    ham.live_contexts()
        .into_iter()
        .map(|ctx| {
            (
                ctx,
                ham.lock_home(ctx).unwrap().graph(ctx).unwrap().to_bytes(),
            )
        })
        .collect()
}

/// Reopen the store: its log must replay to the graphs the live store held.
fn assert_replays_alike(world: World) {
    let live = graphs(&world.ham);
    drop(world.ham);
    let (reopened, _, _) = ShardedHam::open(&world.dir).unwrap();
    assert!(
        graphs(&reopened) == live,
        "replay differs from the live store"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&world.dir);
}

/// MAIN edits c twenty times; the child edits a and merges, then edits b
/// and merges again. The second merge must bring b over.
fn parent_ran_ahead(nshards: usize) {
    let w = world("parent-ahead", nshards);
    let [a, b, c] = w.nodes;
    for i in 0..20 {
        edit(&w.ham, MAIN_CONTEXT, c, &format!("main c {i}\n"));
    }
    edit(&w.ham, w.child, a, "child a\n");
    assert_eq!(merge(&w, ConflictPolicy::Fail).nodes_modified, vec![a]);
    edit(&w.ham, w.child, b, "child b\n");
    let second = merge(&w, ConflictPolicy::Fail);
    assert_eq!(
        second.nodes_modified,
        vec![b],
        "the child's edit was dropped"
    );
    assert_eq!(text(&w.ham, MAIN_CONTEXT, a), "child a\n");
    assert_eq!(text(&w.ham, MAIN_CONTEXT, b), "child b\n");
    assert_eq!(text(&w.ham, MAIN_CONTEXT, c), "main c 19\n");
    assert_replays_alike(w);
}

/// The child edits c twenty times and a once, and merges; MAIN then edits
/// a; the child edits b and merges again. The second merge must bring only
/// b over: neither refuse (`Fail`) nor put the child's merged a back over
/// MAIN's later one (`PreferChild`).
fn child_ran_ahead(nshards: usize, policy: ConflictPolicy) {
    let w = world(&format!("child-ahead-{policy:?}"), nshards);
    let [a, b, c] = w.nodes;
    for i in 0..20 {
        edit(&w.ham, w.child, c, &format!("child c {i}\n"));
    }
    edit(&w.ham, w.child, a, "child a\n");
    assert_eq!(merge(&w, policy).nodes_modified, vec![a, c]);
    edit(&w.ham, MAIN_CONTEXT, a, "main a, after the merge\n");
    edit(&w.ham, w.child, b, "child b\n");
    let second = w.ham.merge_context(w.child, policy);
    let second = second.expect("a spurious conflict refused the merge");
    assert_eq!(second.nodes_modified, vec![b]);
    assert_eq!(second.conflicts, Vec::<String>::new());
    assert_eq!(text(&w.ham, MAIN_CONTEXT, a), "main a, after the merge\n");
    assert_eq!(text(&w.ham, MAIN_CONTEXT, b), "child b\n");
    assert_eq!(text(&w.ham, MAIN_CONTEXT, c), "child c 19\n");
    assert_replays_alike(w);
}

#[test]
fn a_parent_that_ran_ahead_keeps_the_second_merge_single_shard() {
    parent_ran_ahead(1);
}

#[test]
fn a_parent_that_ran_ahead_keeps_the_second_merge_eight_shards() {
    parent_ran_ahead(8);
}

#[test]
fn a_child_that_ran_ahead_is_not_refused_single_shard() {
    child_ran_ahead(1, ConflictPolicy::Fail);
}

#[test]
fn a_child_that_ran_ahead_is_not_refused_eight_shards() {
    child_ran_ahead(8, ConflictPolicy::Fail);
}

#[test]
fn a_child_that_ran_ahead_leaves_mains_later_edit_single_shard() {
    child_ran_ahead(1, ConflictPolicy::PreferChild);
}

#[test]
fn a_child_that_ran_ahead_leaves_mains_later_edit_eight_shards() {
    child_ran_ahead(8, ConflictPolicy::PreferChild);
}
