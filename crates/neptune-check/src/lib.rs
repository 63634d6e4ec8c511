//! # neptune-check
//!
//! An `fsck`-style integrity verifier for Neptune graph stores, plus a lint
//! pass over the CASE layer's Modula-2 module graph.
//!
//! The paper leans on the HAM to be the single reliable keeper of a
//! project's history ("complete version histories are maintained", §A.2;
//! "transaction-based crash recovery", §3). This crate is the audit side of
//! that promise: given a graph directory it re-derives every structural
//! invariant the store is supposed to uphold and reports each breach as a
//! [`Finding`].
//!
//! Three layers of checking:
//!
//! * **File scan** ([`scan_files`]) — read-only checks of the on-disk
//!   artifacts: snapshot magic/CRC, WAL frame CRCs. Runs *before* the store
//!   is opened, because recovery truncates a torn WAL tail (losing the
//!   evidence). With the store open, [`scan_node_files`] checks MAIN's
//!   node files against the machine.
//! * **Semantic verification** ([`verify_ham`]) — with the store open,
//!   re-validate the rules in [`neptune_ham::invariants`]: delta chains
//!   replay to the stored head, link offsets stay within node contents at
//!   every version, link endpoints exist, contexts fork from live contexts,
//!   version histories are monotonic, and mark-node demons reference
//!   interned attributes.
//! * **CASE lints** ([`lint_modules`], [`lint_project`]) — undefined
//!   imports, import cycles, and exported-but-never-imported procedures in
//!   a project's Modula-2 module graph.
//!
//! [`verify_store`] composes the first two; `neptune-shell check` and the
//! server's `Verify` operation expose it to users.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lint;
mod store;

pub use lint::{lint_modules, lint_project, KNOWN_LIBRARY_MODULES};
pub use store::{
    scan_files, scan_node_files, verify_ham, verify_open_ham, verify_sharded, verify_store,
    verify_view,
};

use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::{Result as StorageResult, StorageError};

/// Re-exported rule names for the in-memory invariants (see
/// [`neptune_ham::invariants`]).
pub use neptune_ham::invariants::{
    RULE_ARCHIVE_INDEX, RULE_CONTEXT_PARTITION, RULE_DANGLING_ENDPOINT, RULE_DELTA_CHAIN,
    RULE_DEMON_DEAD_ATTR, RULE_LINK_OFFSET, RULE_NON_MONOTONIC_HISTORY,
};

/// Rule name: the snapshot file is missing, has a bad header, or fails its
/// CRC.
pub const RULE_SNAPSHOT_CHECKSUM: &str = "snapshot-checksum";
/// Rule name: a WAL frame fails its length/CRC check (torn tail after a
/// crash, or corruption).
pub const RULE_WAL_CHECKSUM: &str = "wal-checksum";
/// Rule name: a node file the store names is missing, torn, fails its CRC
/// or does not hold its node's contents — or `nodes/` holds a file no
/// snapshot names.
pub const RULE_NODE_FILE: &str = "node-file";
/// Rule name: the store cannot be opened at all.
pub const RULE_STORE_UNOPENABLE: &str = "store-unopenable";
/// Rule name: a module imports a module that is neither in the project nor
/// a known library module.
pub const RULE_CASE_UNDEFINED_IMPORT: &str = "case-undefined-import";
/// Rule name: modules import each other in a cycle.
pub const RULE_CASE_IMPORT_CYCLE: &str = "case-import-cycle";
/// Rule name: a definition module exports a procedure no other module
/// imports.
pub const RULE_CASE_UNUSED_EXPORT: &str = "case-unused-export";
/// Rule name: a module node's contents no longer parse as Modula-2.
pub const RULE_CASE_PARSE_ERROR: &str = "case-parse-error";

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not necessarily wrong (style, dead weight, torn
    /// tails a crash can legitimately leave behind).
    Warning,
    /// An invariant the store is supposed to uphold is broken.
    Error,
    /// The store (or part of it) cannot be read at all.
    Critical,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Critical => "critical",
        };
        write!(f, "{s}")
    }
}

/// One integrity or lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Which rule tripped (one of the `RULE_*` constants).
    pub rule: String,
    /// What the finding is about, e.g. `"context 0 node 3"` or
    /// `"module Main"`.
    pub entity: String,
    /// Human-readable description.
    pub detail: String,
}

impl Finding {
    /// Construct a finding.
    pub fn new(
        severity: Severity,
        rule: &str,
        entity: impl Into<String>,
        detail: impl Into<String>,
    ) -> Finding {
        Finding {
            severity,
            rule: rule.to_string(),
            entity: entity.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity, self.rule, self.entity, self.detail
        )
    }
}

impl From<neptune_ham::invariants::Violation> for Finding {
    fn from(v: neptune_ham::invariants::Violation) -> Finding {
        let severity = match v.rule {
            RULE_DEMON_DEAD_ATTR => Severity::Warning,
            // Anchors are derived data: checkout falls back to unit-delta
            // replay and rebuilds the rung, so contents are never wrong.
            RULE_ARCHIVE_INDEX => Severity::Warning,
            _ => Severity::Error,
        };
        Finding {
            severity,
            rule: v.rule.to_string(),
            entity: v.entity,
            detail: v.detail,
        }
    }
}

impl Encode for Finding {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self.severity {
            Severity::Warning => 0,
            Severity::Error => 1,
            Severity::Critical => 2,
        });
        w.put_str(&self.rule);
        w.put_str(&self.entity);
        w.put_str(&self.detail);
    }
}

impl Decode for Finding {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let severity = match r.get_u8()? {
            0 => Severity::Warning,
            1 => Severity::Error,
            2 => Severity::Critical,
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "Severity",
                    tag: tag as u64,
                })
            }
        };
        Ok(Finding {
            severity,
            rule: r.get_str()?.to_owned(),
            entity: r.get_str()?.to_owned(),
            detail: r.get_str()?.to_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_codec_roundtrip() {
        let f = Finding::new(
            Severity::Error,
            RULE_DELTA_CHAIN,
            "context 0 node 3",
            "delta at time 4 produced 65 bytes but claims 64",
        );
        assert_eq!(Finding::from_bytes(&f.to_bytes()).unwrap(), f);
    }

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Warning < Severity::Error);
        assert!(Severity::Error < Severity::Critical);
    }

    #[test]
    fn display_is_greppable() {
        let f = Finding::new(
            Severity::Warning,
            RULE_CASE_UNUSED_EXPORT,
            "module Lists",
            "x",
        );
        assert_eq!(
            f.to_string(),
            "warning: [case-unused-export] module Lists: x"
        );
    }
}
