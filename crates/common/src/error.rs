//! Error handling for the whole workspace.
//!
//! One enum covers the failure domains the teaching platform models. The
//! variants mirror the errors a Hadoop 1.x user actually sees in the course
//! the paper describes: file-system errors (missing paths, corrupt blocks,
//! safe mode), job errors (failed tasks, bad configuration), and
//! cluster/provisioning errors (ports in use, nodes unavailable).

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, HlError>;

/// The unified error type for HadoopLab.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HlError {
    /// A DFS path does not exist.
    FileNotFound(String),
    /// A DFS path already exists where it must not.
    AlreadyExists(String),
    /// A path component is not a directory (or a directory where a file was
    /// expected).
    NotADirectory(String),
    /// Attempted to read/write a block that the cluster no longer holds a
    /// live replica of.
    MissingBlock {
        /// The block's numeric id.
        block_id: u64,
        /// The owning file (empty when unknown).
        path: String,
    },
    /// Stored data failed its CRC32 verification.
    ChecksumMismatch {
        /// The corrupt block's id.
        block_id: u64,
        /// CRC the metadata expected.
        expected: u32,
        /// CRC the bytes produced.
        actual: u32,
    },
    /// The NameNode is in safe mode and rejects mutations.
    SafeMode(String),
    /// Not enough live DataNodes to satisfy the requested replication.
    InsufficientReplication {
        /// Replicas requested.
        wanted: u32,
        /// Live candidates available.
        available: u32,
    },
    /// A serialized record could not be decoded.
    Codec(String),
    /// A configuration key is missing or malformed.
    Config(String),
    /// A MapReduce job failed (task retries exhausted, bad formats, ...).
    JobFailed(String),
    /// A task attempt failed; the engine may retry it.
    TaskFailed(String),
    /// A daemon could not bind its port (the paper's "ghost daemon" issue).
    PortInUse {
        /// Node whose port is taken.
        node: String,
        /// The contested TCP port.
        port: u16,
    },
    /// The batch scheduler could not satisfy a reservation.
    ResourcesUnavailable(String),
    /// A daemon that should be running is not (crashed or never started).
    DaemonDown(String),
    /// An invariant the simulator relies on was violated — a bug, not a
    /// modeled failure.
    Internal(String),
    /// Local (host) I/O error text, carried as a string so the error stays
    /// `Clone + Eq`.
    Io(String),
}

impl fmt::Display for HlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlError::FileNotFound(p) => write!(f, "No such file or directory: {p}"),
            HlError::AlreadyExists(p) => write!(f, "File exists: {p}"),
            HlError::NotADirectory(p) => write!(f, "Not a directory: {p}"),
            HlError::MissingBlock { block_id, path } => {
                write!(f, "Could not obtain block blk_{block_id} of {path}: no live replicas")
            }
            HlError::ChecksumMismatch { block_id, expected, actual } => write!(
                f,
                "Checksum error in blk_{block_id}: expected {expected:#010x}, got {actual:#010x}"
            ),
            HlError::SafeMode(msg) => write!(f, "NameNode is in safe mode: {msg}"),
            HlError::InsufficientReplication { wanted, available } => {
                write!(f, "could only be replicated to {available} nodes instead of {wanted}")
            }
            HlError::Codec(msg) => write!(f, "codec error: {msg}"),
            HlError::Config(msg) => write!(f, "configuration error: {msg}"),
            HlError::JobFailed(msg) => write!(f, "job failed: {msg}"),
            HlError::TaskFailed(msg) => write!(f, "task failed: {msg}"),
            HlError::PortInUse { node, port } => {
                write!(f, "Address already in use: {node}:{port}")
            }
            HlError::ResourcesUnavailable(msg) => {
                write!(f, "scheduler: resources unavailable: {msg}")
            }
            HlError::DaemonDown(d) => write!(f, "daemon not running: {d}"),
            HlError::Internal(msg) => write!(f, "internal error: {msg}"),
            HlError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for HlError {}

impl From<std::io::Error> for HlError {
    fn from(e: std::io::Error) -> Self {
        HlError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = HlError::MissingBlock { block_id: 42, path: "/data/x".into() };
        assert_eq!(e.to_string(), "Could not obtain block blk_42 of /data/x: no live replicas");
        let e = HlError::PortInUse { node: "node003".into(), port: 50070 };
        assert!(e.to_string().contains("node003:50070"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk on fire");
        let e: HlError = io.into();
        assert_eq!(e, HlError::Io("disk on fire".into()));
    }
}
