//! End-to-end checker tests over real stores: build a graph on disk,
//! damage it a specific way, and assert the exact rule that trips — plus
//! the baseline that an undamaged store verifies clean.

use std::path::{Path, PathBuf};

use neptune_check::{
    verify_store, Severity, RULE_ARCHIVE_INDEX, RULE_CONTEXT_PARTITION, RULE_DELTA_CHAIN,
    RULE_LINK_OFFSET, RULE_NODE_FILE, RULE_SNAPSHOT_CHECKSUM, RULE_STORE_UNOPENABLE,
    RULE_WAL_CHECKSUM,
};
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::ham::{Ham, NODES_DIR, SNAPSHOT_FILE, WAL_FILE};
use neptune_ham::types::{LinkPt, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{ShardedHam, Value};
use neptune_storage::snapshot::{frame, unframe, NODE_FILE_MAGIC};
use neptune_storage::NodeFiles;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-check-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one node file of MAIN's node `n` in the store at `dir`.
fn node_file(dir: &Path, n: NodeIndex) -> PathBuf {
    let nodes = dir.join(NODES_DIR);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&nodes)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| NodeFiles::parse_name(name).is_some_and(|(id, _)| id == n.0))
        .map(|name| nodes.join(name))
        .collect();
    assert_eq!(files.len(), 1, "one file for {n}: {files:?}");
    files.remove(0)
}

/// The verified payload of the node file at `path`.
fn read_node_payload(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    unframe(&bytes, &[NODE_FILE_MAGIC], "node file")
        .unwrap()
        .to_vec()
}

/// Rewrite the node file at `path` around `payload`, with a fresh CRC, so
/// only the semantic damage stays.
fn write_node_payload(path: &Path, payload: &[u8]) {
    std::fs::write(path, frame(NODE_FILE_MAGIC, payload)).unwrap();
}

/// A store exercising every subsystem: contents, links, attributes, a
/// mark-node demon, and a forked context.
fn build_store(dir: &PathBuf) -> Ham {
    let (mut ham, _, _) = Ham::create_graph(dir, Protections::DEFAULT).unwrap();
    let (a, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(
        MAIN_CONTEXT,
        a,
        t,
        b"first line\nsecond line\n".to_vec(),
        &[],
    )
    .unwrap();
    let (b, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, b, t, b"target\n".to_vec(), &[])
        .unwrap();
    ham.add_link(MAIN_CONTEXT, LinkPt::current(a, 6), LinkPt::current(b, 0))
        .unwrap();
    let doc = ham.get_attribute_index(MAIN_CONTEXT, "document").unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, a, doc, Value::str("spec"))
        .unwrap();
    ham.set_node_demon(
        MAIN_CONTEXT,
        a,
        Event::NodeModified,
        Some(DemonSpec::mark_node("stale", "dirty", Value::Bool(true))),
    )
    .unwrap();
    let ctx = ham.create_context(MAIN_CONTEXT).unwrap();
    let (c, t) = ham.add_node(ctx, true).unwrap();
    ham.modify_node(ctx, c, t, b"private work\n".to_vec(), &[])
        .unwrap();
    ham
}

#[test]
fn clean_store_has_zero_findings() {
    let dir = tmpdir("clean");
    let mut ham = build_store(&dir);
    ham.checkpoint().unwrap();
    drop(ham);
    let findings = verify_store(&dir);
    assert_eq!(findings, Vec::new(), "clean store must verify clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncheckpointed_clean_store_also_verifies_clean() {
    let dir = tmpdir("clean-wal");
    let ham = build_store(&dir);
    drop(ham); // WAL still holds the whole history; recovery replays it
    let findings = verify_store(&dir);
    assert_eq!(
        findings,
        Vec::new(),
        "store with pending WAL must verify clean"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_snapshot_byte_is_a_checksum_failure() {
    let dir = tmpdir("snap-flip");
    let mut ham = build_store(&dir);
    ham.checkpoint().unwrap();
    drop(ham);

    // Flip one payload byte directly in the file, leaving the stored CRC.
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = 20 + (bytes.len() - 20) / 2; // past the magic/len/crc header
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let findings = verify_store(&dir);
    let crc = findings
        .iter()
        .find(|f| f.rule == RULE_SNAPSHOT_CHECKSUM)
        .expect("snapshot-checksum finding");
    assert_eq!(crc.severity, Severity::Critical);
    assert!(crc.detail.contains("CRC mismatch"), "{crc}");
    // The same damage also makes the store unopenable.
    assert!(
        findings.iter().any(|f| f.rule == RULE_STORE_UNOPENABLE),
        "expected store-unopenable too, got {findings:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_wal_byte_is_a_frame_failure() {
    let dir = tmpdir("wal-flip");
    let ham = build_store(&dir);
    drop(ham); // no checkpoint: the WAL holds every frame

    let path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte inside the first frame's payload (8-byte magic, then
    // [len u32][crc u32][payload]).
    assert!(bytes.len() > 20, "WAL should hold at least one frame");
    bytes[18] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let findings = verify_store(&dir);
    let frame = findings
        .iter()
        .find(|f| f.rule == RULE_WAL_CHECKSUM)
        .expect("wal-checksum finding");
    assert_eq!(frame.severity, Severity::Error);
    assert!(frame.detail.contains("CRC mismatch"), "{frame}");
    // Damage in the middle of the log (frames follow the bad one) is not a
    // torn tail: recovery must refuse to open rather than silently drop
    // committed transactions.
    let unopenable = findings
        .iter()
        .find(|f| f.rule == RULE_STORE_UNOPENABLE)
        .expect("mid-log corruption must also make the store unopenable");
    assert!(unopenable.detail.contains("mid-log"), "{unopenable}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_reported_but_recoverable() {
    let dir = tmpdir("wal-torn-tail");
    let ham = build_store(&dir);
    drop(ham); // no checkpoint: the WAL holds every frame

    // Flip a byte inside the LAST frame's payload: a torn tail, the
    // classic crash-mid-write shape. The scan reports it, but recovery
    // truncates it away and the store still opens.
    let path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let findings = verify_store(&dir);
    assert!(
        findings.iter().any(|f| f.rule == RULE_WAL_CHECKSUM),
        "expected a wal-checksum finding, got {findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.rule == RULE_STORE_UNOPENABLE),
        "a torn tail must not make the store unopenable, got {findings:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_delta_length_breaks_the_chain() {
    let dir = tmpdir("delta-flip");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    // v1: 65 recognizable bytes; v2 shares no lines with it, so the
    // back-delta to v1 is a single literal Add of all 65 bytes.
    let v1: Vec<u8> = [vec![b'x'; 64], vec![b'\n']].concat();
    let t = ham
        .modify_node(MAIN_CONTEXT, n, t, v1.clone(), &[])
        .unwrap();
    ham.modify_node(
        MAIN_CONTEXT,
        n,
        t,
        b"now something entirely different\n".to_vec(),
        &[],
    )
    .unwrap();
    ham.checkpoint().unwrap();
    drop(ham);

    // Surgery on the node file, which holds the archive: a delta encodes
    // as [target_len][op_count][op_tag][byte_len][literal...]; find the
    // 65-byte literal and shrink the claimed target_len varint (65 = 0x41)
    // by one. The rewrite recomputes the CRC, so only the semantic damage
    // stays.
    let path = node_file(&dir, n);
    let mut payload = read_node_payload(&path);
    let lit = payload
        .windows(v1.len())
        .position(|w| w == v1.as_slice())
        .expect("v1 literal inside the node file");
    assert_eq!(
        &payload[lit - 4..lit],
        &[0x41, 0x01, 0x01, 0x41],
        "delta header before the literal"
    );
    payload[lit - 4] = 0x40; // target_len 65 -> 64
    write_node_payload(&path, &payload);

    let findings = verify_store(&dir);
    let broken = findings
        .iter()
        .find(|f| f.rule == RULE_DELTA_CHAIN)
        .expect("delta-chain finding");
    assert_eq!(broken.severity, Severity::Error);
    assert!(broken.detail.contains("64"), "{broken}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_persisted_anchor_is_caught_and_recovery_replays_around_it() {
    let dir = tmpdir("anchor-flip");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (n, mut t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    // 40 versions, each a unique line sharing nothing with its neighbors,
    // so every back-delta (and every persisted skip rung) carries the full
    // literal of its target version.
    let mut versions: Vec<(Time, Vec<u8>)> = Vec::new();
    for i in 0..40 {
        let contents =
            format!("version {i:03} totally distinct marker payload line\n").into_bytes();
        t = ham
            .modify_node(MAIN_CONTEXT, n, t, contents.clone(), &[])
            .unwrap();
        versions.push((t, contents));
    }
    ham.checkpoint().unwrap();
    drop(ham);

    // Every version literal appears once in the unit delta chain (or, for
    // the newest, as the stored head); a second occurrence can only be a
    // persisted skip rung in the archive's index blob, appended after the
    // canonical fields. Tamper the middle of that second occurrence — the
    // rung decodes fine but fails its checksum on application.
    let path = node_file(&dir, n);
    let mut payload = read_node_payload(&path);
    let (tampered_at, literal) = versions
        .iter()
        .find_map(|(time, contents)| {
            let hits: Vec<usize> = payload
                .windows(contents.len())
                .enumerate()
                .filter(|(_, w)| *w == contents.as_slice())
                .map(|(i, _)| i)
                .collect();
            (hits.len() >= 2).then(|| (*time, (contents.clone(), hits[1])))
        })
        .expect("some version literal must be persisted in a skip rung");
    let (contents, hit) = literal;
    payload[hit + contents.len() / 2] ^= 0x01;
    write_node_payload(&path, &payload);

    let findings = verify_store(&dir);
    let anchor = findings
        .iter()
        .find(|f| f.rule == RULE_ARCHIVE_INDEX)
        .expect("archive-index finding");
    assert_eq!(
        anchor.severity,
        Severity::Warning,
        "anchors are derived data: a bad rung warns, it is not fatal"
    );
    assert!(
        !findings.iter().any(|f| f.rule == RULE_STORE_UNOPENABLE),
        "a corrupt anchor must never make the store unopenable, got {findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.rule == RULE_DELTA_CHAIN),
        "the unit delta chain itself is intact, got {findings:?}"
    );

    // Recovery falls back to unit-delta replay: the historical read at the
    // tampered version still returns the exact original bytes.
    let (mut ham, _, _) = Ham::open_existing(&dir).unwrap();
    let opened = ham.open_node(MAIN_CONTEXT, n, tampered_at, &[]).unwrap();
    assert_eq!(opened.contents.as_ref(), contents.as_slice());
    for (time, expected) in &versions {
        let opened = ham.open_node(MAIN_CONTEXT, n, *time, &[]).unwrap();
        assert_eq!(opened.contents.as_ref(), expected.as_slice());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_node_file_byte_fails_open_naming_the_node() {
    let dir = tmpdir("node-file-flip");
    let mut ham = build_store(&dir);
    ham.checkpoint().unwrap();
    drop(ham);
    let b = NodeIndex(2);
    let path = node_file(&dir, b);
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&path, bytes).unwrap();

    let err = Ham::open_existing(&dir).unwrap_err().to_string();
    assert!(
        err.contains("node 2"),
        "the error must name the node: {err}"
    );
    assert!(err.contains("checksum"), "{err}");
    let findings = verify_store(&dir);
    let unopenable = findings
        .iter()
        .find(|f| f.rule == RULE_STORE_UNOPENABLE)
        .expect("store-unopenable finding");
    assert!(unopenable.detail.contains("node 2"), "{unopenable}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn node_files_are_checked_against_the_open_machine() {
    let dir = tmpdir("node-file-live");
    let mut ham = build_store(&dir);
    ham.checkpoint().unwrap();
    assert_eq!(neptune_check::verify_open_ham(&ham), Vec::new());
    // A file no snapshot names is reported, as a warning.
    let stray = dir.join(NODES_DIR).join(NodeFiles::file_name(9, 9));
    std::fs::write(&stray, frame(NODE_FILE_MAGIC, b"")).unwrap();
    // A file the snapshot names that no longer holds its node's archive.
    let a = node_file(&dir, NodeIndex(1));
    let b = node_file(&dir, NodeIndex(2));
    std::fs::copy(&b, &a).unwrap();
    let findings = neptune_check::verify_open_ham(&ham);
    let node_file_findings: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == RULE_NODE_FILE)
        .map(|f| (f.severity, f.entity.clone()))
        .collect();
    let name = |p: &Path| format!("{NODES_DIR}/{}", p.file_name().unwrap().to_string_lossy());
    assert_eq!(
        node_file_findings,
        vec![
            (Severity::Error, name(&a)),
            (Severity::Warning, name(&stray))
        ],
        "{findings:?}"
    );
    drop(ham);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Opening a store removes the node files its snapshot does not name, so
/// the offline verifier lists `nodes/` before it opens: a stray file is
/// reported there as on a live machine. An entry the open's sweep cannot
/// remove (a directory) leaves the store openable.
#[test]
fn an_offline_verify_reports_the_node_files_its_open_sweeps() {
    let dir = tmpdir("node-file-offline");
    let mut ham = build_store(&dir);
    ham.checkpoint().unwrap();
    drop(ham);
    let stray = NodeFiles::file_name(9, 9);
    std::fs::write(
        dir.join(NODES_DIR).join(&stray),
        frame(NODE_FILE_MAGIC, b""),
    )
    .unwrap();
    std::fs::create_dir(dir.join(NODES_DIR).join("stray-dir")).unwrap();
    let findings = verify_store(&dir);
    assert_eq!(
        findings
            .iter()
            .map(|f| (f.severity, f.rule.as_str(), f.entity.clone()))
            .collect::<Vec<_>>(),
        vec![(
            Severity::Warning,
            RULE_NODE_FILE,
            format!("{NODES_DIR}/{stray}")
        )],
        "{findings:?}"
    );
    assert!(
        !dir.join(NODES_DIR).join(&stray).exists(),
        "the open swept it"
    );
    assert!(dir.join(NODES_DIR).join("stray-dir").is_dir());
    assert_eq!(verify_store(&dir), Vec::new());
    let _ = std::fs::remove_dir_all(&dir);

    // A sharded store's shards are listed the same way, each before the
    // open.
    let dir = tmpdir("node-file-offline-sharded");
    let (sharded, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 2).unwrap();
    sharded.checkpoint().unwrap();
    drop(sharded);
    let shard = neptune_ham::shard::shard_dir(&dir, 1);
    std::fs::write(
        shard.join(NODES_DIR).join(&stray),
        frame(NODE_FILE_MAGIC, b""),
    )
    .unwrap();
    let findings = verify_store(&dir);
    assert_eq!(
        findings
            .iter()
            .map(|f| (f.severity, f.rule.as_str(), f.entity.clone()))
            .collect::<Vec<_>>(),
        vec![(
            Severity::Warning,
            RULE_NODE_FILE,
            format!("{NODES_DIR}/{stray}")
        )],
        "{findings:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn destroying_a_fork_parent_partitions_the_store() {
    let dir = tmpdir("partition");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let mid = ham.create_context(MAIN_CONTEXT).unwrap();
    let leaf = ham.create_context(mid).unwrap();
    ham.destroy_context(mid).unwrap();
    ham.checkpoint().unwrap();
    drop(ham);

    let findings = verify_store(&dir);
    let cut = findings
        .iter()
        .find(|f| f.rule == RULE_CONTEXT_PARTITION)
        .expect("context-partition finding");
    assert_eq!(cut.entity, format!("context {}", leaf.0));
    assert!(cut.detail.contains(&format!("context {}", mid.0)), "{cut}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncating_contents_below_an_attachment_is_reported() {
    let dir = tmpdir("offset");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (a, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(
        MAIN_CONTEXT,
        a,
        t,
        b"a reasonably long line\n".to_vec(),
        &[],
    )
    .unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.add_link(MAIN_CONTEXT, LinkPt::current(a, 15), LinkPt::current(b, 0))
        .unwrap();
    // Shrink the contents while insisting the attachment stays at 15 —
    // modifyNode accepts this, and the checker must catch it.
    let opened = ham.open_node(MAIN_CONTEXT, a, Time::CURRENT, &[]).unwrap();
    ham.modify_node(
        MAIN_CONTEXT,
        a,
        opened.current_time,
        b"tiny\n".to_vec(),
        &opened.link_pts,
    )
    .unwrap();
    ham.checkpoint().unwrap();
    drop(ham);

    let findings = verify_store(&dir);
    assert!(
        findings.iter().any(|f| f.rule == RULE_LINK_OFFSET),
        "expected a link-offset finding, got {findings:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
