//! Store verification: on-disk file scanning plus in-memory rule checks.

use std::path::Path;

use std::collections::BTreeSet;

use neptune_ham::ham::{Ham, NODES_DIR, SNAPSHOT_FILE, WAL_FILE};
use neptune_ham::invariants;
use neptune_ham::node::NodeContents;
use neptune_ham::types::{NodeIndex, Time, MAIN_CONTEXT};
use neptune_ham::ShardedHam;
use neptune_storage::blobstore::NodeFiles;
use neptune_storage::checksum::crc32;
use neptune_storage::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_MAGIC_V1};
use neptune_storage::wal::WAL_MAGIC;

use crate::{
    Finding, Severity, RULE_NODE_FILE, RULE_SNAPSHOT_CHECKSUM, RULE_STORE_UNOPENABLE,
    RULE_WAL_CHECKSUM,
};

/// Read-only scan of a graph directory's files: snapshot header and CRC,
/// WAL frame CRCs.
///
/// This runs *without* opening the store, so it can report damage that
/// recovery would otherwise silently repair (a torn WAL tail is truncated
/// away the moment the store opens) or that would prevent opening entirely
/// (a snapshot CRC mismatch).
pub fn scan_files(directory: impl AsRef<Path>) -> Vec<Finding> {
    let directory = directory.as_ref();
    let mut findings = Vec::new();
    scan_snapshot(directory, &mut findings);
    scan_wal(directory, &mut findings);
    findings
}

/// Verify the snapshot file's header, length, and CRC without decoding the
/// payload.
fn scan_snapshot(directory: &Path, findings: &mut Vec<Finding>) {
    let path = directory.join(SNAPSHOT_FILE);
    let entity = SNAPSHOT_FILE;
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            findings.push(Finding::new(
                Severity::Critical,
                RULE_SNAPSHOT_CHECKSUM,
                entity,
                format!("cannot read snapshot: {e}"),
            ));
            return;
        }
    };
    let header_len = SNAPSHOT_MAGIC.len() + 8 + 4;
    // Both snapshot format versions share the header layout; v1 stores
    // (pre-index archives) stay verifiable without migration.
    let known_magic = bytes.len() >= SNAPSHOT_MAGIC.len()
        && (&bytes[..SNAPSHOT_MAGIC.len()] == SNAPSHOT_MAGIC
            || &bytes[..SNAPSHOT_MAGIC_V1.len()] == SNAPSHOT_MAGIC_V1);
    if bytes.len() < header_len || !known_magic {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            "bad snapshot header (wrong magic or truncated)",
        ));
        return;
    }
    let (Some(len), Some(expected)) = (
        neptune_storage::codec::read_u64_at(&bytes, SNAPSHOT_MAGIC.len()),
        neptune_storage::codec::read_u32_at(&bytes, SNAPSHOT_MAGIC.len() + 8),
    ) else {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            "bad snapshot header (wrong magic or truncated)",
        ));
        return;
    };
    let len = len as usize;
    let Some(payload) = bytes.get(header_len..header_len + len) else {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            format!(
                "snapshot truncated: header claims {len} payload bytes, file holds {}",
                bytes.len() - header_len
            ),
        ));
        return;
    };
    let actual = crc32(payload);
    if actual != expected {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            format!("snapshot CRC mismatch: stored {expected:#010x}, computed {actual:#010x}"),
        ));
    }
}

/// Walk the WAL frame by frame, checking each length/CRC envelope. Stops at
/// the first bad frame (everything after it is unreachable to recovery).
fn scan_wal(directory: &Path, findings: &mut Vec<Finding>) {
    let path = directory.join(WAL_FILE);
    let entity = WAL_FILE;
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            findings.push(Finding::new(
                Severity::Critical,
                RULE_WAL_CHECKSUM,
                entity,
                format!("cannot read write-ahead log: {e}"),
            ));
            return;
        }
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_WAL_CHECKSUM,
            entity,
            "bad WAL header (wrong magic or truncated)",
        ));
        return;
    }
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        if pos + 8 > bytes.len() {
            findings.push(Finding::new(
                Severity::Error,
                RULE_WAL_CHECKSUM,
                entity,
                format!(
                    "torn frame header at offset {pos}: {} trailing bytes",
                    bytes.len() - pos
                ),
            ));
            return;
        }
        let (Some(payload_len), Some(expected)) = (
            neptune_storage::codec::read_u32_at(&bytes, pos),
            neptune_storage::codec::read_u32_at(&bytes, pos + 4),
        ) else {
            // Unreachable given the torn-header check above, but the decode
            // path stays structurally panic-free (DESIGN.md §12).
            return;
        };
        let payload_len = payload_len as usize;
        let body_start = pos + 8;
        let Some(body_end) = body_start
            .checked_add(payload_len)
            .filter(|e| *e <= bytes.len())
        else {
            findings.push(Finding::new(
                Severity::Error,
                RULE_WAL_CHECKSUM,
                entity,
                format!(
                    "torn frame at offset {pos}: claims {payload_len} payload bytes, \
                     file ends first"
                ),
            ));
            return;
        };
        let actual = crc32(&bytes[body_start..body_end]);
        if actual != expected {
            findings.push(Finding::new(
                Severity::Error,
                RULE_WAL_CHECKSUM,
                entity,
                format!(
                    "frame CRC mismatch at offset {pos}: stored {expected:#010x}, \
                     computed {actual:#010x}; later records are unreachable"
                ),
            ));
            return;
        }
        pos = body_end;
    }
}

/// The node files in a graph directory's `nodes/`, as `(id, head)` pairs.
/// A store's open removes every file its snapshot does not name, so an
/// offline check lists them before it opens the store.
fn list_node_files(directory: &Path) -> std::io::Result<Vec<(u64, u64)>> {
    match std::fs::read_dir(directory.join(NODES_DIR)) {
        Ok(entries) => entries
            .map(|entry| Ok(NodeFiles::parse_name(&entry?.file_name().to_string_lossy())))
            .filter_map(|parsed| parsed.transpose())
            .collect(),
        // Opening creates the directory: a store that lacks one holds no
        // node files yet.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Check MAIN's node files against an open machine: every file it knows
/// durable (each one its snapshot names, and any a checkpoint wrote since)
/// exists, passes its CRC and decodes to its node's contents as of the head
/// it is named by — the whole in-memory archive when that head is still
/// the node's current one. A file in `nodes/` the machine does not know is
/// reported as a warning: a checkpoint that failed after writing it leaves
/// one until the next checkpoint or open removes it.
pub fn scan_node_files(ham: &Ham) -> Vec<Finding> {
    check_node_files(ham, list_node_files(ham.directory()))
}

/// [`scan_node_files`] against `on_disk`, the directory's node files as
/// listed before the store opened (or now, for a live machine).
fn check_node_files(ham: &Ham, on_disk: std::io::Result<Vec<(u64, u64)>>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let dir = ham.directory().join(NODES_DIR);
    let mut error = |severity, entity: String, message: String| {
        findings.push(Finding::new(severity, RULE_NODE_FILE, entity, message));
    };
    let files = match NodeFiles::open(&dir) {
        Ok(files) => files,
        Err(e) => {
            error(
                Severity::Critical,
                NODES_DIR.into(),
                format!("cannot open: {e}"),
            );
            return findings;
        }
    };
    let known: BTreeSet<(NodeIndex, Time)> = ham.durable_node_files().collect();
    let main = ham.graph(MAIN_CONTEXT).ok();
    for &(node, head) in &known {
        let entity = format!("{}/{}", NODES_DIR, NodeFiles::file_name(node.0, head.0));
        let contents = match NodeContents::load(&files, node, head) {
            Ok(contents) => contents,
            Err(e) => {
                error(Severity::Error, entity, e.to_string());
                continue;
            }
        };
        let Some(in_memory) = main.and_then(|main| main.node(node).ok()) else {
            error(Severity::Error, entity, format!("MAIN holds no {node}"));
            continue;
        };
        let agrees = if in_memory.current_time() == head {
            &contents == in_memory.contents()
        } else {
            match &contents {
                // The node moved on since: the file must be the history it
                // grew from.
                NodeContents::Archive(a) => a
                    .checkout(head.0)
                    .ok()
                    .zip(in_memory.contents_at(head).ok())
                    .is_some_and(|(file, mem)| file == mem),
                // A file node keeps no history to compare against.
                NodeContents::File { .. } => true,
            }
        };
        if !agrees {
            error(
                Severity::Error,
                entity,
                format!("does not hold the contents of {node} as of {head}"),
            );
        }
    }
    match on_disk {
        Ok(on_disk) => {
            for (id, head) in on_disk {
                if !known.contains(&(NodeIndex(id), Time(head))) {
                    let name = NodeFiles::file_name(id, head);
                    error(
                        Severity::Warning,
                        format!("{NODES_DIR}/{name}"),
                        "a node file no snapshot names".into(),
                    );
                }
            }
        }
        Err(e) => error(
            Severity::Critical,
            NODES_DIR.into(),
            format!("cannot list: {e}"),
        ),
    }
    findings
}

/// Run every in-memory integrity rule against an open machine. See
/// [`neptune_ham::invariants`] for the rules.
pub fn verify_ham(ham: &Ham) -> Vec<Finding> {
    invariants::ham_violations(ham)
        .into_iter()
        .map(Finding::from)
        .collect()
}

/// File scan plus in-memory verification of an already-open machine —
/// for callers (shell, server) that hold the store open and must not open
/// a second WAL appender on it.
pub fn verify_open_ham(ham: &Ham) -> Vec<Finding> {
    let mut findings = scan_files(ham.directory());
    findings.extend(scan_node_files(ham));
    findings.extend(verify_ham(ham));
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}

/// File scan plus in-memory verification of a published committed
/// snapshot — the server's lock-free `Verify` path, which must not touch
/// the live machine. The file scan reads the directory as it is *now*, so
/// a checkpoint racing this call is visible in file findings while the
/// in-memory rules check the immutable view.
pub fn verify_view(view: &neptune_ham::CommittedView) -> Vec<Finding> {
    let mut findings = scan_files(view.directory());
    findings.extend(
        invariants::view_violations(view)
            .into_iter()
            .map(Finding::from),
    );
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}

/// Verify the graph store in `directory` end to end: scan the files, then
/// open the store and re-check every semantic invariant.
///
/// Sharded stores (a `shards.meta` at the root) are verified shard by
/// shard — each shard directory gets the same file scan, and the open runs
/// through [`ShardedHam`] so the cross-shard fork topology is checked over
/// the union of all shards.
///
/// Note that opening the store runs recovery, which truncates a torn WAL
/// tail and removes the node files no snapshot names; the file scan and
/// the listing of `nodes/` happen first precisely so such damage is still
/// reported.
pub fn verify_store(directory: impl AsRef<Path>) -> Vec<Finding> {
    let directory = directory.as_ref();
    let nshards =
        neptune_ham::shard::read_shard_count(&neptune_storage::StdVfs, directory).unwrap_or(1);
    let mut findings = Vec::new();
    let mut listed = Vec::new();
    for k in 0..nshards {
        let shard = neptune_ham::shard::shard_dir(directory, k);
        findings.extend(scan_files(&shard));
        listed.push(list_node_files(&shard));
    }
    let mut listed = listed.into_iter();
    if nshards == 1 {
        match Ham::open_existing(directory) {
            Ok((ham, _, _)) => {
                findings.extend(check_node_files(
                    &ham,
                    listed.next().unwrap_or(Ok(Vec::new())),
                ));
                findings.extend(verify_ham(&ham));
            }
            Err(e) => findings.push(Finding::new(
                Severity::Critical,
                RULE_STORE_UNOPENABLE,
                directory.display().to_string(),
                format!("store cannot be opened: {e}"),
            )),
        }
    } else {
        match ShardedHam::open(directory) {
            Ok((sharded, _, _)) => {
                for (k, on_disk) in (0..sharded.shard_count()).zip(listed) {
                    findings.extend(check_node_files(&sharded.lock_shard(k), on_disk));
                }
                findings.extend(sharded.violations().into_iter().map(Finding::from));
            }
            Err(e) => findings.push(Finding::new(
                Severity::Critical,
                RULE_STORE_UNOPENABLE,
                directory.display().to_string(),
                format!("sharded store cannot be opened: {e}"),
            )),
        }
    }
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}

/// [`verify_ham`] for an already-open sharded machine: every shard's
/// graphs plus the merged cross-shard fork topology.
///
/// Each shard's files are scanned while holding that shard's lock: WAL
/// appends and checkpoints only happen inside the lock, so a scan under it
/// can never observe a partially-written tail (which would read as
/// torn-frame corruption while concurrent writers commit). Locks are taken
/// one at a time in ascending (hierarchy) order and released between
/// shards, so writers on the other shards keep committing during the scan.
pub fn verify_sharded(sharded: &ShardedHam) -> Vec<Finding> {
    let mut findings = Vec::new();
    for k in 0..sharded.shard_count() {
        let guard = sharded.lock_shard(k);
        findings.extend(scan_files(neptune_ham::shard::shard_dir(
            sharded.directory(),
            k,
        )));
        findings.extend(scan_node_files(&guard));
    }
    findings.extend(sharded.violations().into_iter().map(Finding::from));
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}
