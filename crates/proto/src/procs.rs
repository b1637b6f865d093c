//! Procedure identifiers for RPC accounting.

use std::fmt;

/// Every RPC procedure in the NFS protocol plus the three SNFS additions.
///
/// The paper's Tables 5-2, 5-4 and 5-6 count calls per procedure; the
/// metrics crate keys its counters by this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NfsProc {
    /// Ping / no-op.
    Null,
    /// Fetch file attributes.
    GetAttr,
    /// Set file attributes (truncate, utimes).
    SetAttr,
    /// Translate one pathname component to a handle.
    Lookup,
    /// Read file data.
    Read,
    /// Write file data (synchronous to stable storage at the server).
    Write,
    /// Create a regular file.
    Create,
    /// Remove a regular file.
    Remove,
    /// Rename a file or directory.
    Rename,
    /// Create a directory.
    Mkdir,
    /// Remove a directory.
    Rmdir,
    /// Read directory entries.
    Readdir,
    /// File system statistics.
    StatFs,
    /// SNFS: announce an open, returns cachability + version (paper §3.1).
    Open,
    /// SNFS: announce a close (paper §3.1).
    Close,
    /// SNFS: server→client cache callback (paper §3.2).
    Callback,
    /// SNFS recovery: liveness probe carrying the server epoch (§2.4).
    Keepalive,
    /// SNFS recovery: a client re-registers its open/cache state after a
    /// server reboot (§2.4; Welch's Sprite recovery).
    Recover,
    /// Create a hard link (RFC 1094 LINK).
    Link,
    /// Create a symbolic link (RFC 1094 SYMLINK).
    Symlink,
    /// Read a symbolic link's target (RFC 1094 READLINK).
    Readlink,
    /// SNFS delegation: a client returns a delegation (with its queued
    /// open-state updates) after a recall, or voluntarily (DESIGN.md §17).
    DelegReturn,
    /// Transport-level batch of several requests sharing one RPC exchange
    /// (NFSv4-style COMPOUND; see DESIGN.md §13). Never counted in the
    /// paper tables — the inner procedures are what get recorded.
    Compound,
    /// Sharded namespace: first phase of a cross-shard rename/link — the
    /// participant shard locks the target name and reports whether it
    /// already exists (DESIGN.md §18).
    TxPrepare,
    /// Sharded namespace: second phase — the participant removes its
    /// superseded entry (if any) and releases the name lock. Retried by
    /// the coordinator until acknowledged.
    TxCommit,
    /// Sharded namespace: the coordinator abandons a prepared transaction
    /// and the participant releases the name lock.
    TxAbort,
}

/// Coarse classification used in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcClass {
    /// `read`/`write`: the expensive data-transfer operations.
    DataTransfer,
    /// Name translation (`lookup`), which the paper notes is about half of
    /// all calls.
    Lookup,
    /// Everything else.
    Other,
}

impl NfsProc {
    /// All procedures, in display order.
    pub const ALL: [NfsProc; 26] = [
        NfsProc::Null,
        NfsProc::GetAttr,
        NfsProc::SetAttr,
        NfsProc::Lookup,
        NfsProc::Read,
        NfsProc::Write,
        NfsProc::Create,
        NfsProc::Remove,
        NfsProc::Rename,
        NfsProc::Mkdir,
        NfsProc::Rmdir,
        NfsProc::Readdir,
        NfsProc::StatFs,
        NfsProc::Open,
        NfsProc::Close,
        NfsProc::Callback,
        NfsProc::Keepalive,
        NfsProc::Recover,
        NfsProc::Link,
        NfsProc::Symlink,
        NfsProc::Readlink,
        NfsProc::DelegReturn,
        NfsProc::Compound,
        NfsProc::TxPrepare,
        NfsProc::TxCommit,
        NfsProc::TxAbort,
    ];

    /// Position in [`NfsProc::ALL`], which lists the variants as declared.
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for the procedures that change nothing, which a server may
    /// execute again for a retransmission: the duplicate-request cache
    /// keeps only the others' replies (DESIGN.md §22).
    pub fn idempotent(self) -> bool {
        matches!(
            self,
            NfsProc::Null
                | NfsProc::GetAttr
                | NfsProc::Lookup
                | NfsProc::Read
                | NfsProc::Readdir
                | NfsProc::Readlink
                | NfsProc::StatFs
        )
    }

    /// Classifies the procedure for the paper's aggregate rows.
    pub fn class(self) -> ProcClass {
        match self {
            NfsProc::Read | NfsProc::Write => ProcClass::DataTransfer,
            NfsProc::Lookup => ProcClass::Lookup,
            _ => ProcClass::Other,
        }
    }

    /// Short lower-case wire-style name.
    pub fn name(self) -> &'static str {
        match self {
            NfsProc::Null => "null",
            NfsProc::GetAttr => "getattr",
            NfsProc::SetAttr => "setattr",
            NfsProc::Lookup => "lookup",
            NfsProc::Read => "read",
            NfsProc::Write => "write",
            NfsProc::Create => "create",
            NfsProc::Remove => "remove",
            NfsProc::Rename => "rename",
            NfsProc::Mkdir => "mkdir",
            NfsProc::Rmdir => "rmdir",
            NfsProc::Readdir => "readdir",
            NfsProc::StatFs => "statfs",
            NfsProc::Open => "open",
            NfsProc::Close => "close",
            NfsProc::Callback => "callback",
            NfsProc::Keepalive => "keepalive",
            NfsProc::Recover => "recover",
            NfsProc::Link => "link",
            NfsProc::Symlink => "symlink",
            NfsProc::Readlink => "readlink",
            NfsProc::DelegReturn => "deleg_return",
            NfsProc::Compound => "compound",
            NfsProc::TxPrepare => "tx_prepare",
            NfsProc::TxCommit => "tx_commit",
            NfsProc::TxAbort => "tx_abort",
        }
    }
}

impl fmt::Display for NfsProc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_match_paper_groupings() {
        assert_eq!(NfsProc::Read.class(), ProcClass::DataTransfer);
        assert_eq!(NfsProc::Write.class(), ProcClass::DataTransfer);
        assert_eq!(NfsProc::Lookup.class(), ProcClass::Lookup);
        assert_eq!(NfsProc::GetAttr.class(), ProcClass::Other);
        assert_eq!(NfsProc::Open.class(), ProcClass::Other);
    }

    #[test]
    fn only_the_procedures_that_change_nothing_are_idempotent() {
        let idempotent: Vec<_> = NfsProc::ALL.iter().filter(|p| p.idempotent()).collect();
        assert_eq!(
            idempotent,
            [
                &NfsProc::Null,
                &NfsProc::GetAttr,
                &NfsProc::Lookup,
                &NfsProc::Read,
                &NfsProc::Readdir,
                &NfsProc::StatFs,
                &NfsProc::Readlink,
            ]
        );
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, p) in NfsProc::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{p}");
        }
    }

    #[test]
    fn all_has_unique_names() {
        let mut names: Vec<_> = NfsProc::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NfsProc::ALL.len());
    }
}
