//! Error type for HAM operations.
//!
//! The appendix gives every operation an implicit `result₀: Boolean` —
//! success or failure. This reproduction refines that single bit into an
//! error enum; callers who want the paper's exact shape can use
//! `result.is_ok()`.

use std::fmt;

use neptune_storage::StorageError;

use crate::types::{AttributeIndex, ContextId, LinkIndex, NodeIndex, ProjectId, Time};

/// Errors produced by HAM operations.
#[derive(Debug)]
pub enum HamError {
    /// The storage substrate failed.
    Storage(StorageError),
    /// No node with this index exists (or it did not exist at the time asked).
    NoSuchNode(NodeIndex),
    /// No link with this index exists (or it did not exist at the time asked).
    NoSuchLink(LinkIndex),
    /// No attribute with this index has been created.
    NoSuchAttribute(AttributeIndex),
    /// The attribute exists but has no value for this object at this time.
    AttributeNotSet {
        /// The attribute queried.
        attribute: AttributeIndex,
        /// The time queried.
        time: Time,
    },
    /// No graph version existed at the requested time.
    NoSuchTime(Time),
    /// No context (version thread) with this id exists.
    NoSuchContext(ContextId),
    /// The supplied `ProjectId` does not match the graph in the directory.
    ProjectMismatch {
        /// What the caller supplied.
        given: ProjectId,
        /// What the graph on disk actually is.
        actual: ProjectId,
    },
    /// `modifyNode`'s optimistic check failed: the node changed since the
    /// caller read it.
    StaleVersion {
        /// The node being modified.
        node: NodeIndex,
        /// Version time the caller believed was current.
        given: Time,
        /// The actual current version time.
        current: Time,
    },
    /// `modifyNode` must supply a `LinkPt` for each link attached to the
    /// current version of the node.
    AttachmentMismatch {
        /// The node being modified.
        node: NodeIndex,
        /// How many attachments the node has.
        expected: usize,
        /// How many the caller supplied.
        supplied: usize,
    },
    /// The operation needs an enclosing transaction but none is active, or a
    /// transaction is already active where none may be.
    TransactionState {
        /// Description of the violation.
        reason: &'static str,
    },
    /// A predicate string failed to parse.
    BadPredicate {
        /// Parser diagnostic.
        message: String,
    },
    /// A link endpoint referred to a node version that does not exist
    /// (`addLink`: "the from and to nodes must exist at their respective
    /// times").
    BadEndpoint {
        /// The offending endpoint's node.
        node: NodeIndex,
        /// The version time the endpoint asked for.
        time: Time,
    },
    /// The node is a `file` (no history) and a historical version was asked.
    NoHistory(NodeIndex),
    /// Merging a context hit a conflict and no resolution policy allowed it.
    MergeConflict {
        /// Human-readable description of the first conflict found.
        detail: String,
    },
    /// An operation was attempted on a deleted node or link.
    Deleted {
        /// Description of the object.
        what: &'static str,
        /// Its id.
        id: u64,
    },
    /// A demon action failed.
    DemonFailed {
        /// The demon's name.
        name: String,
        /// Why it failed.
        reason: String,
    },
    /// Recovery met a fork logged by reference that it cannot resolve to
    /// the parent as it stood at the fork.
    UnresolvedForkRef {
        /// The forked context the record creates.
        context: ContextId,
        /// The parent it names.
        parent: ContextId,
        /// The commit sequence the record was logged under.
        seq: u64,
        /// Why the parent at that commit is not available.
        reason: &'static str,
    },
    /// A checkpoint would fold this shard's log past forks that other
    /// shards' logs still name by reference; those shards fold first.
    UnfoldedForkRefs {
        /// Bitmask of the shards holding such references.
        holders: u64,
    },
}

impl fmt::Display for HamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HamError::Storage(e) => write!(f, "storage: {e}"),
            HamError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            HamError::NoSuchLink(l) => write!(f, "no such link: {l}"),
            HamError::NoSuchAttribute(a) => write!(f, "no such attribute: {a}"),
            HamError::AttributeNotSet { attribute, time } => {
                write!(f, "attribute {attribute} has no value at {time}")
            }
            HamError::NoSuchTime(t) => write!(f, "no graph version at {t}"),
            HamError::NoSuchContext(c) => write!(f, "no such context: {c}"),
            HamError::ProjectMismatch { given, actual } => {
                write!(f, "project id mismatch: given {given}, graph is {actual}")
            }
            HamError::StaleVersion {
                node,
                given,
                current,
            } => write!(
                f,
                "stale version for {node}: caller saw {given}, current is {current}"
            ),
            HamError::AttachmentMismatch {
                node,
                expected,
                supplied,
            } => write!(
                f,
                "modifyNode on {node} must supply {expected} link points, got {supplied}"
            ),
            HamError::TransactionState { reason } => write!(f, "transaction state: {reason}"),
            HamError::BadPredicate { message } => write!(f, "bad predicate: {message}"),
            HamError::BadEndpoint { node, time } => {
                write!(
                    f,
                    "link endpoint refers to {node} at {time}, which does not exist"
                )
            }
            HamError::NoHistory(n) => {
                write!(
                    f,
                    "{n} is a file node; only its current version is available"
                )
            }
            HamError::MergeConflict { detail } => write!(f, "merge conflict: {detail}"),
            HamError::Deleted { what, id } => write!(f, "{what} {id} has been deleted"),
            HamError::DemonFailed { name, reason } => {
                write!(f, "demon '{name}' failed: {reason}")
            }
            HamError::UnresolvedForkRef {
                context,
                parent,
                seq,
                reason,
            } => write!(
                f,
                "cannot replay the fork of {context} from {parent} logged at commit {seq}: {reason}"
            ),
            HamError::UnfoldedForkRefs { holders } => {
                let shards: Vec<u32> = (0..64).filter(|k| holders >> k & 1 == 1).collect();
                write!(
                    f,
                    "the logs of shards {shards:?} still fork from this shard by reference; fold them first"
                )
            }
        }
    }
}

impl std::error::Error for HamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HamError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for HamError {
    fn from(e: StorageError) -> Self {
        HamError::Storage(e)
    }
}

/// Result alias for HAM operations.
pub type Result<T> = std::result::Result<T, HamError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_ids() {
        assert!(HamError::NoSuchNode(NodeIndex(7)).to_string().contains('7'));
        assert!(HamError::StaleVersion {
            node: NodeIndex(1),
            given: Time(2),
            current: Time(3)
        }
        .to_string()
        .contains("stale"));
    }

    #[test]
    fn storage_errors_convert() {
        let e: HamError = StorageError::NotFound { id: 1 }.into();
        assert!(matches!(e, HamError::Storage(_)));
    }
}
