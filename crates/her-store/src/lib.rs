//! # her-store — durable checkpoint/restore for the HER stack
//!
//! PR 1 made runs survive *in-process* failures and PR 2 made them
//! observable; this crate makes them survive a killed process. It is the
//! storage substrate for three consumers:
//!
//! - `her-core`'s [`Matcher`](../her_core/paramatch/struct.Matcher.html)
//!   and `StreamLinker` serialize their monotone `cache`/`ecache` state
//!   through [`codec`];
//! - `her-parallel` checkpoints BSP supersteps as [`snapshot`]s at the
//!   barrier (a quiescent point: no worker thread is live, all messages
//!   are routed);
//! - `StreamLinker` journals every `process`/`retract_vertex` into a
//!   [`wal`], so a killed streaming session replays to exactly the state
//!   it had.
//!
//! ## On-disk format
//!
//! Everything is built from one primitive, the [`frame`]: a
//! length-prefixed, CRC32-checksummed byte record. Snapshots are a header
//! frame plus one frame per named section, written with an atomic
//! protocol (temp file → fsync → rename → manifest update); the WAL is an
//! append-only sequence of frames whose torn tail (an interrupted last
//! write) is detected and truncated on recovery.
//!
//! ## Failure semantics
//!
//! - A snapshot is either entirely valid or rejected; [`SnapshotStore`]
//!   falls back to the newest valid generation and counts the corrupt
//!   ones (`store.corrupt_snapshots_skipped`).
//! - A WAL truncated at *any* byte offset replays cleanly to a prefix of
//!   the logged operations — never a panic, never a phantom record. A
//!   complete frame whose checksum fails is *corruption* (not a torn
//!   write) and is rejected with [`StoreError::Corrupt`].
//! - All instrumentation is optional: pass an [`her_obs::Obs`] to count
//!   `store.*` snapshots/bytes/replays, or `None` for zero overhead.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod codec;
pub mod crc32;
pub mod frame;
pub mod snapshot;
pub mod vfs;
pub mod wal;

pub use codec::{CodecError, Dec, Enc};
pub use snapshot::{Snapshot, SnapshotStore};
pub use vfs::{FaultHandle, FaultVfs, IoFaultCounts, IoFaultPlan, RealVfs, Vfs, VfsFile};
pub use wal::{WalReplay, WalWriter};

use std::path::PathBuf;

/// Convenience alias for fallible store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Any failure the durability layer can surface, with enough context
/// (path, offset) for a one-line diagnostic.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the underlying file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A frame or record is present but fails validation (checksum
    /// mismatch, malformed payload, impossible length).
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// Byte offset of the offending frame.
        offset: u64,
        /// Explanation.
        message: String,
    },
    /// The file carries an unknown magic or an unsupported format version.
    Version {
        /// The file involved.
        path: PathBuf,
        /// What the header actually said.
        message: String,
    },
    /// No usable snapshot/WAL exists where one was required.
    Missing {
        /// The directory or file that was searched.
        path: PathBuf,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "cannot access {}: {source}", path.display())
            }
            StoreError::Corrupt {
                path,
                offset,
                message,
            } => write!(
                f,
                "corrupt data in {} at byte {offset}: {message}",
                path.display()
            ),
            StoreError::Version { path, message } => {
                write!(f, "unsupported format in {}: {message}", path.display())
            }
            StoreError::Missing { path } => {
                write!(f, "no valid checkpoint found in {}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    pub(crate) fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        StoreError::Io {
            path: path.into(),
            source,
        }
    }

    pub(crate) fn corrupt(
        path: impl Into<PathBuf>,
        offset: u64,
        message: impl Into<String>,
    ) -> Self {
        StoreError::Corrupt {
            path: path.into(),
            offset,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostics_are_one_line_and_carry_context() {
        let errors = [
            StoreError::io("/tmp/x.hsnap", std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
            StoreError::corrupt("/tmp/x.hlog", 42, "checksum mismatch"),
            StoreError::Version {
                path: "/tmp/x.hsnap".into(),
                message: "magic b\"NOPE\"".into(),
            },
            StoreError::Missing {
                path: "/tmp/ckpt".into(),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.contains('\n'), "multi-line diagnostic: {msg}");
            assert!(msg.contains("/tmp/"), "missing path context: {msg}");
        }
    }
}
