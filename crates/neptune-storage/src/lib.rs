//! # neptune-storage
//!
//! Storage substrate for the Neptune hypertext system — the layer beneath
//! the Hypertext Abstract Machine (HAM) described in *"Neptune: a Hypertext
//! System for CAD Applications"* (Delisle & Schwartz, SIGMOD 1986).
//!
//! The paper's HAM is *"a transaction-based server"* that keeps *"a complete
//! version history"* of a hypergraph, storing node contents with *"backward
//! deltas similar to RCS"*. This crate provides those mechanisms, free of
//! any hypertext semantics:
//!
//! * [`codec`] — an explicit binary encoding for all durable state;
//! * [`checksum`] — CRC-32 integrity for every durable record;
//! * [`varint`] — compact integer encoding used throughout;
//! * [`diff`] — a Myers O(ND) line diff producing the paper's `Difference`
//!   domain (`getNodeDifferences`, the node-differences browser);
//! * [`delta`] — copy/add deltas between byte buffers;
//! * [`archive`] — backward-delta version archives (paper §A.2 "archives"),
//!   with a persisted hierarchical skip ladder and a byte-bounded anchor
//!   cache making any checkout O(log n) deltas and a repeated one free;
//! * [`sharedvec`] — the chunked, clone-sharing vector version histories
//!   are kept in, so copying a node copies no history;
//! * [`wal`] — a write-ahead log giving transaction durability and
//!   crash recovery (paper §2.2);
//! * [`snapshot`] — atomic checksummed state snapshots for checkpointing;
//! * [`blobstore`] — node files, one per node head, carrying the paper's
//!   `Protections` domain;
//! * [`vfs`] — the pluggable filesystem the durable write path runs on;
//! * [`fault`] — a fault-injecting [`vfs::Vfs`] simulating power loss for
//!   crash-consistency tests.
//!
//! Everything here treats content as uninterpreted bytes, matching the
//! paper's stance that *"there is no interpretation at the HAM level — it is
//! just binary data."*

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod blobstore;
pub mod checksum;
pub mod codec;
pub mod delta;
pub mod diff;
pub mod error;
pub mod fault;
pub mod sharedvec;
pub mod snapshot;
pub mod testutil;
pub mod varint;
pub mod vfs;
pub mod wal;

pub use archive::{Archive, CacheStats};
pub use blobstore::{NodeFiles, Protections};
pub use codec::{Decode, Encode, Reader, Writer};
pub use delta::{Delta, DeltaOp};
pub use diff::{differences, Difference};
pub use error::{Result, StorageError};
pub use fault::{FaultKind, FaultVfs};
pub use vfs::{StdVfs, Vfs, VfsFile};
pub use wal::{CommittedTxn, RecordKind, Wal, WalRecord};
