//! What a commit copies and what it shares, checked by pointer identity
//! rather than by a clock: after a save to a node with five thousand
//! versions, the node in the new published view and the node in the view
//! before it hold the same history storage, a context the commit did not
//! touch is the same object in both views, and both views still read every
//! version right. A save that copied history in proportion to its depth —
//! what this guards against — would pass every functional test and only
//! show up as a slow server.

use neptune::ham::types::{Protections, Time, MAIN_CONTEXT};
use neptune::ham::Ham;

const VERSIONS: u64 = 5_000;

/// Version `v` of the node: short, with lines that change at different
/// rates so deltas keep common lines at both ends.
fn body(v: u64) -> Vec<u8> {
    format!(
        "a fixed first line\nversion {v}\na fixed middle line\nslow {}\na fixed last line\n",
        v / 50
    )
    .into_bytes()
}

#[test]
fn a_commit_shares_node_history_and_untouched_contexts_with_the_previous_view() {
    let dir = std::env::temp_dir().join(format!("neptune-sharing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, created) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    // A private world nothing below writes to.
    let side = ham.create_context(MAIN_CONTEXT).unwrap();

    // The deep history, in one transaction: one log write, one sync.
    ham.begin_transaction().unwrap();
    let mut times: Vec<Time> = Vec::new();
    let mut t = created;
    for v in 0..VERSIONS {
        t = ham
            .modify_node(MAIN_CONTEXT, node, t, body(v), &[])
            .unwrap();
        times.push(t);
    }
    ham.commit_transaction().unwrap();

    let before = ham.committed_view();
    let saved = ham
        .modify_node(MAIN_CONTEXT, node, t, body(VERSIONS), &[])
        .unwrap();
    let after = ham.committed_view();
    assert!(after.epoch() > before.epoch());

    // The two views hold different copies of the node...
    let old = before.graph(MAIN_CONTEXT).unwrap().node(node).unwrap();
    let new = after.graph(MAIN_CONTEXT).unwrap().node(node).unwrap();
    assert!(!std::ptr::eq(old, new));
    assert_eq!(old.current_time(), t);
    assert_eq!(new.current_time(), saved);
    // ...over one history: every full chunk of the old copy's deltas is the
    // new copy's chunk too.
    let (shared, full) = old
        .archive()
        .unwrap()
        .shared_history_chunks(new.archive().unwrap());
    assert!(full as u64 >= VERSIONS / 64, "only {full} full chunks");
    assert_eq!(shared, full, "the commit copied history chunks");

    // The commit wrote to MAIN and to nothing else.
    assert!(after.shares_context_with(&before, side));
    assert!(!after.shares_context_with(&before, MAIN_CONTEXT));

    // Shared storage, right bytes: both views, across the whole history.
    for (v, &time) in times.iter().enumerate().step_by(97) {
        for view in [&before, &after] {
            let opened = view.read_node(MAIN_CONTEXT, node, time, &[]).unwrap();
            assert_eq!(&opened.contents[..], body(v as u64), "version {v}");
        }
    }
    let head = |view: &neptune::ham::CommittedView| {
        view.read_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap()
            .contents
    };
    assert_eq!(&head(&before)[..], body(VERSIONS - 1));
    assert_eq!(&head(&after)[..], body(VERSIONS));
    let _ = std::fs::remove_dir_all(&dir);
}
