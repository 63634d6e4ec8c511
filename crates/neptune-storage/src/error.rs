//! Error types for the storage substrate.

use std::fmt;
use std::io;

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A stored record failed its CRC-32 integrity check.
    ChecksumMismatch {
        /// Checksum recorded alongside the data.
        expected: u32,
        /// Checksum recomputed from the data.
        actual: u32,
    },
    /// A byte stream ended before a complete value could be decoded.
    UnexpectedEof {
        /// What was being decoded when the stream ran out.
        context: &'static str,
    },
    /// A decoded tag/discriminant did not correspond to any known variant.
    InvalidTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A varint was longer than the maximum encodable width.
    VarintOverflow,
    /// Decoded bytes were not valid UTF-8 where a string was expected.
    InvalidUtf8,
    /// A delta referred to offsets outside its base text.
    DeltaOutOfRange {
        /// Offset the delta asked for.
        offset: u64,
        /// Length of the base it was applied to.
        base_len: u64,
    },
    /// A requested version time does not exist in an archive.
    NoSuchVersion {
        /// The requested time.
        time: u64,
    },
    /// An archive or store was asked for an object it does not contain.
    NotFound {
        /// Identifier of the missing object.
        id: u64,
    },
    /// The write-ahead log contained a structurally invalid record.
    CorruptLog {
        /// Byte offset of the corrupt record.
        offset: u64,
        /// Human-readable description of the damage.
        reason: &'static str,
    },
    /// A file's magic number or format version was not recognized.
    BadFileHeader {
        /// Which file kind was being opened.
        context: &'static str,
    },
    /// The write-ahead log hit an I/O failure mid-append or mid-sync and
    /// refuses further writes until reopened.
    ///
    /// After a failed append the file may hold a torn frame, and after a
    /// failed fsync the kernel may have *dropped* the dirty pages
    /// (the fsyncgate lesson): retrying as if nothing happened could
    /// persist a commit the caller was told failed, or append intact
    /// frames after a torn one — turning a recoverable torn tail into
    /// hard mid-log corruption. Reopening re-scans and truncates.
    LogPoisoned,
    /// A frame header declared a payload larger than the protocol allows.
    ///
    /// Raised *before* any payload buffer is allocated, so a corrupt or
    /// hostile length field can never drive an OOM-sized allocation.
    FrameTooLarge {
        /// Length the header claimed.
        len: u64,
        /// Maximum the protocol accepts.
        max: u64,
    },
    /// A node file (`nodes/<id>@<time>`) could not be read back: missing,
    /// torn, or failing its checksum or its decode.
    NodeFile {
        /// The node the file holds.
        id: u64,
        /// The head version time the file is named by.
        time: u64,
        /// What went wrong with it.
        source: Box<StorageError>,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:#010x}, got {actual:#010x}"
                )
            }
            StorageError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while decoding {context}")
            }
            StorageError::InvalidTag { context, tag } => {
                write!(f, "invalid tag {tag} while decoding {context}")
            }
            StorageError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            StorageError::InvalidUtf8 => write!(f, "invalid utf-8 in decoded string"),
            StorageError::DeltaOutOfRange { offset, base_len } => {
                write!(
                    f,
                    "delta copy at offset {offset} exceeds base length {base_len}"
                )
            }
            StorageError::NoSuchVersion { time } => write!(f, "no version at time {time}"),
            StorageError::NotFound { id } => write!(f, "object {id} not found"),
            StorageError::CorruptLog { offset, reason } => {
                write!(f, "corrupt log record at offset {offset}: {reason}")
            }
            StorageError::BadFileHeader { context } => {
                write!(f, "unrecognized file header for {context}")
            }
            StorageError::LogPoisoned => {
                write!(
                    f,
                    "write-ahead log poisoned by an earlier I/O failure; reopen to recover"
                )
            }
            StorageError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            StorageError::NodeFile { id, time, source } => {
                write!(f, "node file of node {id} at time {time}: {source}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::NodeFile { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StorageError::ChecksumMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("checksum mismatch"));
        let e = StorageError::UnexpectedEof {
            context: "node header",
        };
        assert!(e.to_string().contains("node header"));
        let e = StorageError::NoSuchVersion { time: 42 };
        assert!(e.to_string().contains("42"));
        let e = StorageError::CorruptLog {
            offset: 10,
            reason: "short read",
        };
        assert!(e.to_string().contains("short read"));
        let e = StorageError::FrameTooLarge {
            len: 1 << 30,
            max: 1 << 26,
        };
        assert!(e.to_string().contains("exceeds maximum"));
        let e = StorageError::NodeFile {
            id: 7,
            time: 9,
            source: Box::new(StorageError::NotFound { id: 7 }),
        };
        assert!(e.to_string().contains("node 7 at time 9"), "{e}");
        use std::error::Error;
        assert!(e.source().is_some());
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: StorageError = io::Error::other("boom").into();
        assert!(matches!(e, StorageError::Io(_)));
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
