//! Status codes and the protocol `Result` alias.

use std::fmt;

/// Error statuses carried in NFS/SNFS replies.
///
/// A subset of the RFC 1094 `stat` values, plus [`Inconsistent`](NfsStatus::Inconsistent), which an
/// SNFS server reports when a file's last writer crashed before writing its
/// dirty blocks back (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NfsStatus {
    /// No such file or directory.
    NoEnt,
    /// Permission denied.
    Access,
    /// File exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// No space left on device.
    NoSpc,
    /// Stale file handle (file deleted or inode recycled).
    Stale,
    /// I/O error.
    Io,
    /// Invalid argument / malformed request.
    Inval,
    /// SNFS only: the file may be inconsistent because a client holding
    /// dirty blocks is unreachable.
    Inconsistent,
    /// SNFS recovery: the server is rebuilding its state table after a
    /// reboot and only accepts `recover`/`keepalive` calls right now
    /// (paper §2.4; clients retry after a short delay).
    Grace,
    /// Sharded namespace: the name is momentarily locked by a cross-shard
    /// coordination transaction (DESIGN.md §18); callers back off and
    /// retry rather than tying up a service thread.
    Busy,
    /// Sharded namespace: the operation would move an entry between two
    /// shards in a way the coordination path does not support (deep
    /// cross-shard rename/link, or any cross-shard move under plain NFS).
    XDev,
}

impl fmt::Display for NfsStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NfsStatus::NoEnt => "NFSERR_NOENT",
            NfsStatus::Access => "NFSERR_ACCES",
            NfsStatus::Exist => "NFSERR_EXIST",
            NfsStatus::NotDir => "NFSERR_NOTDIR",
            NfsStatus::IsDir => "NFSERR_ISDIR",
            NfsStatus::NotEmpty => "NFSERR_NOTEMPTY",
            NfsStatus::NoSpc => "NFSERR_NOSPC",
            NfsStatus::Stale => "NFSERR_STALE",
            NfsStatus::Io => "NFSERR_IO",
            NfsStatus::Inval => "NFSERR_INVAL",
            NfsStatus::Inconsistent => "SNFSERR_INCONSISTENT",
            NfsStatus::Grace => "SNFSERR_GRACE",
            NfsStatus::Busy => "SNFSERR_BUSY",
            NfsStatus::XDev => "NFSERR_XDEV",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NfsStatus {}

/// Result alias used across the protocol crates.
pub type Result<T> = std::result::Result<T, NfsStatus>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_wire_names() {
        assert_eq!(NfsStatus::NoEnt.to_string(), "NFSERR_NOENT");
        assert_eq!(NfsStatus::Stale.to_string(), "NFSERR_STALE");
        assert_eq!(NfsStatus::Inconsistent.to_string(), "SNFSERR_INCONSISTENT");
    }
}
