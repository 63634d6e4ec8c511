//! A store written before the store-wide clock opens with every context's
//! contents, attributes and links as the build that wrote it held them.
//!
//! `tests/data/parent_store` is a two-shard store written by the build
//! before the store clock and never checkpointed after its creation, so
//! opening it replays every operation from its logs: three MAIN nodes (one
//! a file node) with an attribute and an attributed link; a fork onto
//! shard 1 (`x`) that edits, sets an attribute, and adds a node, a link
//! and a new attribute name; a fork on shard 0 (`y`) that edits; MAIN's own
//! edit; `x` merged across shards under `PreferChild`; an explicit
//! transaction spanning both shards, aborted; `y` merged on its own shard
//! under `Fail`; and one more edit in each child. Its merge records carry
//! no time: they replay at their parent's newest time + 1, each merge's
//! objects at that one time. Its snapshots inline every archive, as that
//! build wrote them; the first checkpoint moves MAIN's to node files.

use std::path::{Path, PathBuf};

use neptune_ham::context::ConflictPolicy;
use neptune_ham::ham::NODES_DIR;
use neptune_ham::shard::ShardedHam;
use neptune_ham::types::{NodeIndex, Time, MAIN_CONTEXT};
use neptune_storage::NodeFiles;

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// A scratch copy of the fixture: opening a store may write to it.
fn fixture(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "neptune-parent-store-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/parent_store");
    copy_dir(&data, &dir);
    dir
}

/// Every live context's current nodes (contents and attributes) and links
/// (ends and attributes).
fn render(ham: &ShardedHam) -> String {
    let mut out = String::new();
    for ctx in ham.live_contexts() {
        let guard = ham.lock_home(ctx).unwrap();
        let graph = guard.graph(ctx).unwrap();
        out += &format!("context {}\n", ctx.0);
        for node in graph.nodes().filter(|n| n.exists_at(Time::CURRENT)) {
            let opened = guard.read_node(ctx, node.id, Time::CURRENT, &[]).unwrap();
            let contents = String::from_utf8_lossy(&opened.contents);
            out += &format!("  node {} {contents:?}", node.id.0);
            for (name, _, value) in guard
                .get_node_attributes(ctx, node.id, Time::CURRENT)
                .unwrap()
            {
                out += &format!(" {name}={value}");
            }
            out += "\n";
        }
        for link in graph.links().filter(|l| l.exists_at(Time::CURRENT)) {
            let from = link.from.linkpt_at(Time::CURRENT).unwrap();
            let to = link.to.linkpt_at(Time::CURRENT).unwrap();
            out += &format!(
                "  link {} {}@{} -> {}@{}",
                link.id.0, from.node.0, from.position, to.node.0, to.position
            );
            for (name, _, value) in guard
                .get_link_attributes(ctx, link.id, Time::CURRENT)
                .unwrap()
            {
                out += &format!(" {name}={value}");
            }
            out += "\n";
        }
    }
    out
}

/// What the writing build showed live just before it closed the store.
const EXPECTED: &str = r#"context 0
  node 1 "alpha, revised in x\n" status=draft
  node 2 "beta, revised in y\n" status=review
  node 3 "gamma, edited in main\n"
  node 4 "delta, new in x\n" owner=x
  link 1 1@2 -> 2@0 relation=cites
  link 2 4@1 -> 1@3
context 1
  node 1 "alpha, revised in x\n" status=draft
  node 2 "beta\n" status=review
  node 3 "gamma\n"
  node 4 "delta, x after the merge\n" owner=x
  link 1 1@2 -> 2@0 relation=cites
  link 2 4@1 -> 1@3
context 2
  node 1 "alpha\n" status=noted in y
  node 2 "beta, revised in y\n"
  node 3 "gamma\n"
  link 1 1@2 -> 2@0 relation=cites
"#;

#[test]
fn a_store_written_before_the_store_clock_replays_what_it_held() {
    let dir = fixture("open");
    let (ham, _, _) = ShardedHam::open(&dir).unwrap();
    assert_eq!(render(&ham), EXPECTED);
    assert_eq!(ham.violations(), Vec::new());

    // The clock resumes past every time the logs hold: a fresh edit in `x`
    // lies past its fork point and merges.
    let (x, a) = (neptune_ham::types::ContextId(1), NodeIndex(1));
    {
        let mut guard = ham.lock_home(x).unwrap();
        let opened = guard.read_node(x, a, Time::CURRENT, &[]).unwrap();
        guard
            .modify_node(
                x,
                a,
                opened.current_time,
                b"alpha, x reopened\n".to_vec(),
                &opened.link_pts,
            )
            .unwrap();
    }
    let report = ham.merge_context(x, ConflictPolicy::PreferChild).unwrap();
    assert_eq!(report.nodes_modified, vec![a]);
    let main = ham.lock_home(MAIN_CONTEXT).unwrap();
    let opened = main.read_node(MAIN_CONTEXT, a, Time::CURRENT, &[]).unwrap();
    assert_eq!(&opened.contents[..], b"alpha, x reopened\n");
    drop(main);
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_first_checkpoint_moves_a_parent_store_to_node_files() {
    let dir = fixture("checkpoint");
    let (ham, _, _) = ShardedHam::open(&dir).unwrap();
    ham.checkpoint().unwrap();
    // MAIN's shard holds one node file per MAIN node, named by its head;
    // the other shard, none; and no `.blob` of the old mirror anywhere.
    let heads: Vec<(u64, u64)> = {
        let main = ham.lock_home(MAIN_CONTEXT).unwrap();
        main.graph(MAIN_CONTEXT)
            .unwrap()
            .nodes()
            .map(|n| (n.id.0, n.current_time().0))
            .collect()
    };
    for k in 0..ham.shard_count() {
        let nodes = neptune_ham::shard::shard_dir(&dir, k).join(NODES_DIR);
        let mut files: Vec<(u64, u64)> = std::fs::read_dir(&nodes)
            .unwrap()
            .map(|e| {
                let name = e.unwrap().file_name().to_string_lossy().into_owned();
                NodeFiles::parse_name(&name).unwrap_or_else(|| panic!("stray {name}"))
            })
            .collect();
        files.sort_unstable();
        let expected = if k == 0 { heads.clone() } else { Vec::new() };
        assert_eq!(files, expected, "shard {k}");
    }
    drop(ham);
    let (ham, _, _) = ShardedHam::open(&dir).unwrap();
    assert_eq!(render(&ham), EXPECTED);
    assert_eq!(ham.violations(), Vec::new());
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}
