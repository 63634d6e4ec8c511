//! The bytes a fixed script of operations leaves on disk are pinned: the
//! WAL frames are those the commit before the single-write WAL append, the
//! trimmed delta and the shared node history wrote for the same script,
//! but for the merge record, which since the store-wide clock carries the
//! merge's time (a new tag, one more byte) and moves the times after it up
//! by one. Since MAIN's contents moved to node files, the snapshot holds
//! the structure and names the files, and the files hold the archives the
//! snapshot used to inline. A change to any encoder, to the order of
//! records in a transaction's write, or to the delta a check-in computes
//! moves one of the fingerprints — and with it the promise that a store
//! written by one build opens with the other.
//!
//! `tests/data/golden_parent` is the store the same script left with the
//! build before node files (inline archives and the `.blob` mirror); its
//! snapshot carries that build's pin, and it must still open, equal, and
//! move to node files at its first checkpoint.

use std::path::{Path, PathBuf};

use neptune_ham::context::ConflictPolicy;
use neptune_ham::ham::{NODES_DIR, SNAPSHOT_FILE, WAL_FILE};
use neptune_ham::types::{LinkPt, Protections, MAIN_CONTEXT};
use neptune_ham::{Ham, Value};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Version `v` of the script's document: sixteen lines, two of which move
/// with the version, so deltas have shared lines at both ends and between.
fn body(v: u64) -> Vec<u8> {
    (0..16u64)
        .map(|line| match line {
            l if l == v % 16 || l == (v * 7 + 3) % 16 => format!("line {l:02} as of version {v}\n"),
            l => format!("line {l:02} of the document\n"),
        })
        .collect::<String>()
        .into_bytes()
}

/// The pinned script: nodes, twenty versions of one of them (past the first
/// skip-ladder rung), attributes, a link, a fork edited and merged back, an
/// explicit transaction, a deletion; a checkpoint two thirds through, so
/// both the snapshot and the log end up holding some of it.
fn run_script(ham: &mut Ham) {
    let (doc, mut t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (note, note_t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (scrap, _) = ham.add_node(MAIN_CONTEXT, false).unwrap();
    for v in 0..18 {
        t = ham.modify_node(MAIN_CONTEXT, doc, t, body(v), &[]).unwrap();
    }
    let note_t = ham
        .modify_node(MAIN_CONTEXT, note, note_t, b"a note\n".to_vec(), &[])
        .unwrap();
    let kind = ham.get_attribute_index(MAIN_CONTEXT, "kind").unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, doc, kind, Value::str("design"))
        .unwrap();
    let (link, _) = ham
        .add_link(
            MAIN_CONTEXT,
            LinkPt::current(doc, 4),
            LinkPt::pinned(note, 0, note_t),
        )
        .unwrap();
    ham.set_link_attribute_value(MAIN_CONTEXT, link, kind, Value::Int(7))
        .unwrap();
    let fork = ham.create_context(MAIN_CONTEXT).unwrap();
    let fork_t = ham.get_node_time_stamp(fork, note).unwrap();
    // The link's pinned end sits on this very version and may not move.
    let pinned = [LinkPt::pinned(note, 0, note_t)];
    ham.modify_node(fork, note, fork_t, b"a note, revised\n".to_vec(), &pinned)
        .unwrap();
    ham.checkpoint().unwrap();

    ham.merge_context(fork, ConflictPolicy::PreferChild)
        .unwrap();
    ham.begin_transaction().unwrap();
    let pts = [LinkPt::current(doc, 9)];
    t = ham
        .modify_node(MAIN_CONTEXT, doc, t, body(18), &pts)
        .unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, doc, kind, Value::str("final"))
        .unwrap();
    ham.commit_transaction().unwrap();
    ham.modify_node(MAIN_CONTEXT, doc, t, body(19), &pts)
        .unwrap();
    ham.delete_node(MAIN_CONTEXT, scrap).unwrap();
    ham.destroy_context(fork).unwrap();
}

/// `bytes` without any occurrence of `needle`.
fn without(bytes: &[u8], needle: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    let mut rest = bytes;
    while let Some(at) = rest.windows(needle.len()).position(|w| w == needle) {
        out.extend_from_slice(&rest[..at]);
        rest = &rest[at + needle.len()..];
    }
    out.extend_from_slice(rest);
    out
}

/// The snapshot behind its file header's length and checksum; the project
/// id in it is drawn at random per store, so it is cut out of the bytes.
fn snapshot_bytes(dir: &Path, pid: neptune_ham::ProjectId) -> Vec<u8> {
    let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let mut pid_bytes = Vec::new();
    neptune_storage::varint::write_u64(&mut pid_bytes, pid.0);
    without(&snapshot[20..], &pid_bytes)
}

/// Every file in `nodes/`, name then bytes, in name order.
fn node_file_bytes(dir: &Path) -> Vec<u8> {
    let nodes = dir.join(NODES_DIR);
    let mut names: Vec<PathBuf> = std::fs::read_dir(&nodes)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        out.extend_from_slice(path.file_name().unwrap().as_encoded_bytes());
        out.extend_from_slice(&std::fs::read(path).unwrap());
    }
    out
}

fn fingerprints<const N: usize>(parts: [&[u8]; N]) -> [String; N] {
    parts.map(|bytes| format!("{} bytes, fnv {:#018x}", bytes.len(), fnv(bytes)))
}

fn pins<const N: usize>(pinned: [(usize, u64); N]) -> [String; N] {
    pinned.map(|(len, hash)| format!("{len} bytes, fnv {hash:#018x}"))
}

/// The script's document node: every version reads back as written.
fn assert_reads_back(ham: &mut Ham) {
    let ctx = MAIN_CONTEXT;
    let doc = neptune_ham::NodeIndex(1);
    let versions = ham.get_node_versions(ctx, doc).unwrap().0;
    assert_eq!(versions.len(), 21);
    // Until the fork one context draws every time, so the times are those
    // of builds with a clock per context. The merge then takes a time of
    // its own, past the child's edit, where those builds reused that one.
    let times: Vec<u64> = versions.iter().map(|v| v.time.0).collect();
    let single_context: Vec<u64> = [2].into_iter().chain(5..=22).collect();
    assert_eq!(times[..19], single_context[..]);
    assert_eq!(times[19..], [30, 32]);
    for (v, version) in versions[1..].iter().enumerate() {
        let opened = ham.open_node(ctx, doc, version.time, &[]).unwrap();
        assert_eq!(&opened.contents[..], body(v as u64), "version {v}");
    }
}

/// Every MAIN node's versions, contents at each, and protections.
fn render_main(ham: &Ham) -> String {
    let graph = ham.graph(MAIN_CONTEXT).unwrap();
    let mut out = String::new();
    for node in graph.nodes() {
        out += &format!("node {} {:?}\n", node.id.0, node.protections);
        let (major, minor) = ham.get_node_versions(MAIN_CONTEXT, node.id).unwrap();
        for v in major.iter().chain(&minor) {
            let contents = node.contents_at(v.time).ok();
            out += &format!("  {} {:?} {contents:?}\n", v.time.0, v.explanation);
        }
    }
    out
}

#[test]
fn the_script_leaves_the_pinned_wal_and_snapshot_bytes() {
    let dir = tmpdir("script");
    let (mut ham, pid, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    run_script(&mut ham);
    drop(ham);

    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let snapshot = snapshot_bytes(&dir, pid);
    let files = node_file_bytes(&dir);
    // Measured as the module docs say.
    let pinned = [
        (1075, 0x2570_32ec_37d4_3750),
        (3247, 0xf310_fb8d_4ab3_2993),
        (2487, 0x5a63_ff34_8e7c_d3b9),
    ];
    assert_eq!(
        fingerprints([&wal, &snapshot, &files]),
        pins(pinned),
        "[WAL, snapshot, node files] bytes moved"
    );

    // And the store reads back what the script wrote.
    let (mut ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_reads_back(&mut ham);
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_parent_builds_store_opens_equal_and_moves_to_node_files() {
    let dir = tmpdir("parent");
    std::fs::create_dir_all(dir.join(NODES_DIR)).unwrap();
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_parent");
    for rel in ["graph.meta", "graph.snap", "wal.log"]
        .into_iter()
        .map(PathBuf::from)
        .chain((1..=3).map(|id| Path::new(NODES_DIR).join(format!("{id:016x}.blob"))))
    {
        std::fs::copy(data.join(&rel), dir.join(&rel)).unwrap();
    }
    let parent_snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();

    // The same script on this build, for comparison.
    let fresh = tmpdir("parent-fresh");
    let (mut ham, _, _) = Ham::create_graph(&fresh, Protections::DEFAULT).unwrap();
    run_script(&mut ham);
    drop(ham);
    let (ham, _, _) = Ham::open_existing(&fresh).unwrap();
    let expected = render_main(&ham);
    drop(ham);

    let (mut ham, _, pid) = Ham::open_existing(&dir).unwrap();
    // The parent build's snapshot pin: inline archives, no node files.
    let mut pid_bytes = Vec::new();
    neptune_storage::varint::write_u64(&mut pid_bytes, pid.0);
    let parent_payload = without(&parent_snapshot[20..], &pid_bytes);
    assert_eq!(
        fingerprints([&parent_payload]),
        pins([(5569, 0xac4c_cc03_8678_23b3)]),
        "the parent fixture's snapshot"
    );
    assert_eq!(
        render_main(&ham),
        expected,
        "the parent's store opens equal"
    );
    assert_reads_back(&mut ham);

    // Its first checkpoint moves MAIN's contents to node files; the
    // `.blob` mirror is gone (open already swept what no snapshot names).
    ham.checkpoint().unwrap();
    let names: Vec<String> = std::fs::read_dir(dir.join(NODES_DIR))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names.len(), 3, "{names:?}");
    assert!(
        names
            .iter()
            .all(|n| neptune_storage::NodeFiles::parse_name(n).is_some()),
        "{names:?}"
    );
    drop(ham);
    let (mut ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(render_main(&ham), expected, "reopened after the move");
    assert_reads_back(&mut ham);
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}
