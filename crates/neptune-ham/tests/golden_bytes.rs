//! The bytes a fixed script of operations leaves on disk are pinned: the
//! snapshot payload is what the commit before the single-write WAL append,
//! the trimmed delta and the shared node history wrote for the same
//! script; the WAL frames are those bytes but for the merge record, which
//! since the store-wide clock carries the merge's time (a new tag, one more
//! byte) and moves the times after it up by one. A change to any encoder,
//! to the order of records in a transaction's write, or to the delta a
//! check-in computes moves one of the two fingerprints — and with it the
//! promise that a store written by one build opens with the other.

use std::path::PathBuf;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::ham::{SNAPSHOT_FILE, WAL_FILE};
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

#[test]
fn the_script_leaves_the_pinned_wal_and_snapshot_bytes() {
    let dir = tmpdir("script");
    let (mut ham, pid, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    run_script(&mut ham);
    drop(ham);

    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    // Behind the file header's length and checksum; the project id in it
    // is drawn at random per store, so it is cut out of the bytes hashed.
    let snapshot = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let mut pid_bytes = Vec::new();
    neptune_storage::varint::write_u64(&mut pid_bytes, pid.0);
    let snapshot = without(&snapshot[20..], &pid_bytes);

    let measured = [(wal.len(), fnv(&wal)), (snapshot.len(), fnv(&snapshot))];
    // Measured as the module docs say.
    let pinned = [(1075, 0x2570_32ec_37d4_3750), (5569, 0xac4c_cc03_8678_23b3)];
    assert_eq!(
        measured.map(|(len, hash)| format!("{len} bytes, fnv {hash:#018x}")),
        pinned.map(|(len, hash): (usize, u64)| format!("{len} bytes, fnv {hash:#018x}")),
        "[WAL, snapshot] bytes moved"
    );

    // And the store reads back what the script wrote.
    let (mut ham, ctx, _) = Ham::open_existing(&dir).unwrap();
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
