//! RPC request and reply bodies.
//!
//! These are the in-memory equivalents of the XDR-encoded messages on the
//! wire. Each body knows its procedure id (for per-procedure counters) and
//! its approximate wire size (for network transfer-time modelling).

use crate::attr::Fattr;
use crate::buf::Payload;
use crate::handle::{ClientId, FileHandle, FileVersion};
use crate::name::Name;
use crate::procs::NfsProc;
use crate::status::NfsStatus;

/// Approximate size of RPC + NFS headers on the wire, in bytes.
const HEADER_BYTES: usize = 128;

/// Per-operation framing inside a compound message (an op tag plus a
/// length word), replacing the full RPC header each inner call would
/// have paid as a standalone message.
pub const COMPOUND_OP_BYTES: usize = 16;

/// Bytes of wire traffic a message occupies when carried *inside* a
/// compound: its payload plus the slim per-op framing instead of a full
/// RPC header.
fn compound_slot_bytes(standalone_wire_size: usize) -> usize {
    standalone_wire_size - HEADER_BYTES + COMPOUND_OP_BYTES
}

/// A request body: the NFS procedures, SNFS `open`/`close`, and the one
/// request a server sends a client, the SNFS `callback`. A clone
/// allocates only for a `Recover`'s or a compound's list: names are
/// [`Name`]s and file data a shared [`Payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsRequest {
    /// Ping.
    Null,
    /// Fetch attributes for a handle.
    GetAttr { fh: FileHandle },
    /// Truncate to `size` and/or bump times.
    SetAttr { fh: FileHandle, size: Option<u64> },
    /// Translate one name component under a directory.
    Lookup { dir: FileHandle, name: Name },
    /// Read `count` bytes at `offset`.
    Read {
        fh: FileHandle,
        offset: u64,
        count: u32,
    },
    /// Write `data` at `offset`; the server must reach stable storage
    /// before replying (RFC 1094 semantics).
    Write {
        fh: FileHandle,
        offset: u64,
        data: Payload,
    },
    /// Create a regular file under `dir`.
    Create { dir: FileHandle, name: Name },
    /// Remove a regular file.
    Remove { dir: FileHandle, name: Name },
    /// Rename within the file system.
    Rename {
        from_dir: FileHandle,
        from_name: Name,
        to_dir: FileHandle,
        to_name: Name,
    },
    /// Create a directory.
    Mkdir { dir: FileHandle, name: Name },
    /// Remove an empty directory.
    Rmdir { dir: FileHandle, name: Name },
    /// List a directory.
    Readdir { dir: FileHandle },
    /// File system statistics.
    StatFs { fh: FileHandle },
    /// SNFS: the client is opening `fh`; `write` is the open mode
    /// (paper §3.1).
    Open {
        fh: FileHandle,
        write: bool,
        client: ClientId,
    },
    /// SNFS: the client is done with `fh`; `write` must match the mode
    /// passed to the corresponding `Open` (paper §3.1).
    Close {
        fh: FileHandle,
        write: bool,
        client: ClientId,
    },
    /// SNFS recovery: liveness probe; the reply carries the server epoch
    /// so a reboot is detectable (§2.4).
    Keepalive { client: ClientId },
    /// SNFS recovery: the client re-registers everything it knows after
    /// detecting a server reboot. The server rebuilds its state table
    /// from these reports — "the clients together know who is caching the
    /// file" (§2.4).
    Recover {
        client: ClientId,
        files: Vec<RecoveredFile>,
    },
    /// Create a hard link `to_dir/to_name` to the file `from`.
    Link {
        from: FileHandle,
        to_dir: FileHandle,
        to_name: Name,
    },
    /// Create a symbolic link `dir/name` pointing at `target`.
    Symlink {
        dir: FileHandle,
        name: Name,
        target: Name,
    },
    /// Read a symbolic link's target.
    Readlink { fh: FileHandle },
    /// SNFS delegation: the client returns a delegation it holds on `fh`,
    /// reporting the net open state it accumulated while serving opens and
    /// closes locally (the lazy batch of queued close-time updates). Sent
    /// in response to a recall callback; `wrote` is true if any local open
    /// was for writing, so the server can bump the file version.
    DelegReturn {
        fh: FileHandle,
        client: ClientId,
        /// Processes at the client currently holding the file open to read.
        readers: u32,
        /// Processes at the client currently holding the file open to write.
        writers: u32,
        /// True if any locally-served open was a write open.
        wrote: bool,
    },
    /// Transport-level batch: several requests sharing one RPC exchange
    /// (one header + slim per-op framing on the wire). Built by the
    /// batching `Caller`; each inner call keeps its own xid and counters,
    /// so the paper's per-procedure tables are unaffected. Never nested.
    Compound { calls: Vec<NfsRequest> },
    /// Sharded namespace (DESIGN.md §18), shard→shard: phase one of a
    /// cross-shard rename/link. The participant locks `name` in its
    /// export root and reports whether an entry by that name exists.
    TxPrepare { txid: u64, name: Name },
    /// Sharded namespace, shard→shard: phase two. The participant
    /// removes its superseded `name` entry (if the prepared handle still
    /// matches) and releases the lock. Idempotent; retried until acked.
    TxCommit { txid: u64 },
    /// Sharded namespace, shard→shard: the coordinator abandons a
    /// prepared transaction; the participant releases the lock.
    TxAbort { txid: u64 },
    /// SNFS, server→client: write back and/or invalidate a file, or
    /// recall its delegation (paper §3.2). The client's callback service
    /// answers `Ok`, or `Err(Io)` when it could not do what was asked;
    /// a server answers it `Inval`, like any procedure it does not serve.
    Callback(CallbackArg),
}

/// One file's worth of client state in a `Recover` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveredFile {
    /// The file.
    pub fh: FileHandle,
    /// Processes at this client with the file open for reading.
    pub readers: u32,
    /// Processes at this client with the file open for writing.
    pub writers: u32,
    /// Version of the client's cached copy, if it caches the file.
    pub cached_version: Option<FileVersion>,
    /// True if the client holds dirty (not yet written back) blocks.
    pub dirty: bool,
}

impl NfsRequest {
    /// The procedure id, for accounting.
    pub fn proc_id(&self) -> NfsProc {
        match self {
            NfsRequest::Null => NfsProc::Null,
            NfsRequest::GetAttr { .. } => NfsProc::GetAttr,
            NfsRequest::SetAttr { .. } => NfsProc::SetAttr,
            NfsRequest::Lookup { .. } => NfsProc::Lookup,
            NfsRequest::Read { .. } => NfsProc::Read,
            NfsRequest::Write { .. } => NfsProc::Write,
            NfsRequest::Create { .. } => NfsProc::Create,
            NfsRequest::Remove { .. } => NfsProc::Remove,
            NfsRequest::Rename { .. } => NfsProc::Rename,
            NfsRequest::Mkdir { .. } => NfsProc::Mkdir,
            NfsRequest::Rmdir { .. } => NfsProc::Rmdir,
            NfsRequest::Readdir { .. } => NfsProc::Readdir,
            NfsRequest::StatFs { .. } => NfsProc::StatFs,
            NfsRequest::Open { .. } => NfsProc::Open,
            NfsRequest::Close { .. } => NfsProc::Close,
            NfsRequest::Keepalive { .. } => NfsProc::Keepalive,
            NfsRequest::Recover { .. } => NfsProc::Recover,
            NfsRequest::Link { .. } => NfsProc::Link,
            NfsRequest::Symlink { .. } => NfsProc::Symlink,
            NfsRequest::Readlink { .. } => NfsProc::Readlink,
            NfsRequest::DelegReturn { .. } => NfsProc::DelegReturn,
            NfsRequest::Compound { .. } => NfsProc::Compound,
            NfsRequest::TxPrepare { .. } => NfsProc::TxPrepare,
            NfsRequest::TxCommit { .. } => NfsProc::TxCommit,
            NfsRequest::TxAbort { .. } => NfsProc::TxAbort,
            NfsRequest::Callback(_) => NfsProc::Callback,
        }
    }

    /// True for procedures whose handler may block on a consistency
    /// action: open and close serialize on the server's per-file lock,
    /// and an open can additionally wait out a callback round; both can
    /// stack behind a file whose write-back is still in flight. An
    /// endpoint admits such requests to at most N−1 of its N threads
    /// (paper §3.2), so a callback-induced write-back always finds a free
    /// thread. (The hybrid-NFS read/write bracket also takes the lock,
    /// but classifying all reads and writes as blocking would starve the
    /// very write-backs the reserved thread exists for.)
    pub fn may_block(&self) -> bool {
        matches!(self, NfsRequest::Open { .. } | NfsRequest::Close { .. })
    }

    /// `(offset, len)` of the bytes a `read` or `write` moves, `(0, 0)`
    /// for every other procedure: what the trace records beside
    /// [`handle`](Self::handle).
    pub fn byte_range(&self) -> (u64, u64) {
        match self {
            NfsRequest::Read { offset, count, .. } => (*offset, u64::from(*count)),
            NfsRequest::Write { offset, data, .. } => (*offset, data.len() as u64),
            _ => (0, 0),
        }
    }

    /// Approximate bytes this request occupies on the wire.
    pub fn wire_size(&self) -> usize {
        let payload = match self {
            NfsRequest::Write { data, .. } => data.len(),
            NfsRequest::Lookup { name, .. }
            | NfsRequest::Create { name, .. }
            | NfsRequest::Remove { name, .. }
            | NfsRequest::Mkdir { name, .. }
            | NfsRequest::Rmdir { name, .. } => name.len(),
            NfsRequest::Rename {
                from_name, to_name, ..
            } => from_name.len() + to_name.len(),
            NfsRequest::Recover { files, .. } => files.len() * 32,
            NfsRequest::Link { to_name, .. } => to_name.len(),
            NfsRequest::Symlink { name, target, .. } => name.len() + target.len(),
            NfsRequest::TxPrepare { name, .. } => name.len(),
            NfsRequest::Compound { calls } => return Self::compound_wire_size(calls),
            _ => 0,
        };
        HEADER_BYTES + payload
    }

    /// The wire size of the compound that carries `calls`, without
    /// building it.
    pub fn compound_wire_size<'a>(calls: impl IntoIterator<Item = &'a NfsRequest>) -> usize {
        let slots = calls
            .into_iter()
            .map(|c| compound_slot_bytes(c.wire_size()));
        HEADER_BYTES + slots.sum::<usize>()
    }

    /// The handle this request addresses: the file it acts on, or the
    /// directory it names an entry of (the source, for `rename` and
    /// `link`). `None` for the procedures that address the server as a
    /// whole (`null`, `keepalive`, `recover`, a compound, the `tx_*`
    /// family). The one request → handle table: tracing labels an RPC
    /// with it and the sharded namespace routes by it (DESIGN.md §18).
    pub fn handle(&self) -> Option<FileHandle> {
        match self {
            NfsRequest::GetAttr { fh }
            | NfsRequest::SetAttr { fh, .. }
            | NfsRequest::Read { fh, .. }
            | NfsRequest::Write { fh, .. }
            | NfsRequest::StatFs { fh }
            | NfsRequest::Open { fh, .. }
            | NfsRequest::Close { fh, .. }
            | NfsRequest::Readlink { fh }
            | NfsRequest::DelegReturn { fh, .. }
            | NfsRequest::Callback(CallbackArg { fh, .. }) => Some(*fh),
            NfsRequest::Readdir { dir } => Some(*dir),
            NfsRequest::Rename { from_dir, .. } => Some(*from_dir),
            NfsRequest::Link { from, .. } => Some(*from),
            other => other.dir_name().map(|(dir, _)| dir),
        }
    }

    /// The `(directory, name)` this request names, for the procedures
    /// that name exactly one entry. (`rename` and `link` name a second
    /// place and are matched where that matters.)
    pub fn dir_name(&self) -> Option<(FileHandle, &str)> {
        match self {
            NfsRequest::Lookup { dir, name }
            | NfsRequest::Create { dir, name }
            | NfsRequest::Remove { dir, name }
            | NfsRequest::Mkdir { dir, name }
            | NfsRequest::Rmdir { dir, name }
            | NfsRequest::Symlink { dir, name, .. } => Some((*dir, &**name)),
            _ => None,
        }
    }

    /// [`dir_name`](Self::dir_name) with the directory open to rewriting:
    /// a sharded caller re-addresses a root-level name to the export root
    /// of the shard that owns it, in place.
    pub fn dir_name_mut(&mut self) -> Option<(&mut FileHandle, &str)> {
        match self {
            NfsRequest::Lookup { dir, name }
            | NfsRequest::Create { dir, name }
            | NfsRequest::Remove { dir, name }
            | NfsRequest::Mkdir { dir, name }
            | NfsRequest::Rmdir { dir, name }
            | NfsRequest::Symlink { dir, name, .. } => Some((dir, &**name)),
            _ => None,
        }
    }

    /// Wraps a batch of requests in a single compound message. A batch of
    /// one stays a plain request: it needs no framing and must look
    /// identical to the unbatched wire format.
    pub fn compound(mut calls: Vec<NfsRequest>) -> NfsRequest {
        debug_assert!(!calls.is_empty(), "empty compound request");
        debug_assert!(
            !calls
                .iter()
                .any(|c| matches!(c, NfsRequest::Compound { .. })),
            "compound requests must not nest"
        );
        if calls.len() == 1 {
            calls.pop().expect("length checked")
        } else {
            NfsRequest::Compound { calls }
        }
    }
}

/// One entry in a `readdir` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Component name.
    pub name: String,
    /// The entry's file id (inode number). A handle requires `lookup`.
    pub fileid: u64,
}

/// Body of a successful `read`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReply {
    /// The bytes read (may be shorter than requested at end of file).
    pub data: Payload,
    /// True if the read reached end of file.
    pub eof: bool,
    /// Post-read attributes.
    pub attr: Fattr,
}

/// A delegation the server may piggyback on an open reply when the state
/// table says the file has no conflicting users (NFSv4-style extension of
/// the paper's consistency protocol). While a client holds one, it serves
/// further opens, closes and attribute reads locally with zero RPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delegation {
    /// Many clients may hold read delegations concurrently; each may serve
    /// read opens locally.
    Read,
    /// Exclusive: the holder may serve read *and* write opens locally and
    /// is the attribute authority for the file.
    Write,
}

impl Delegation {
    /// True for a write (exclusive) delegation.
    pub fn is_write(self) -> bool {
        matches!(self, Delegation::Write)
    }
}

/// Body of a successful SNFS `open` (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReply {
    /// Whether the client may cache this file's data.
    pub cache_enabled: bool,
    /// Version after this open (incremented if opened for write).
    pub version: FileVersion,
    /// Version before this open; a writer whose cache matches this value
    /// may keep its cache, because the version bump came from its own open.
    pub prev_version: FileVersion,
    /// Current attributes (replaces the `getattr` NFS does at open time).
    pub attr: Fattr,
    /// True if the file may be inconsistent because a client that held
    /// dirty blocks crashed before writing them back (paper §3.2).
    pub inconsistent: bool,
    /// Delegation granted with this open, if any. Rides in the existing
    /// header (a two-bit flag on the wire), so wire size is unchanged.
    pub delegation: Option<Delegation>,
}

/// A server→client reply body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsReply {
    /// Success with no body (`close`, `remove`, ...).
    Ok,
    /// Success with attributes (`getattr`, `setattr`, `write`).
    Attr(Fattr),
    /// Successful `lookup`/`create`/`mkdir`.
    Handle { fh: FileHandle, attr: Fattr },
    /// Successful `read`.
    Read(ReadReply),
    /// Successful `readdir`.
    Readdir { entries: Vec<DirEntry> },
    /// Successful SNFS `open`.
    Open(OpenReply),
    /// Reply to `keepalive`: the server's current epoch.
    Epoch(u64),
    /// Reply to `deleg_return`: the file version after applying the
    /// returned state (bumped if the holder wrote), plus `fenced` — true
    /// when the server had already revoked this delegation after a recall
    /// timeout, meaning the returned state was discarded and the client
    /// must drop its cache and re-validate via a fresh RPC open — and
    /// `renews` — true when no recall of another of the holder's files is
    /// unresolved, so the reply renews its delegation lease as a
    /// keepalive's epoch does. Both flags ride in the header.
    DelegReturned {
        version: FileVersion,
        fenced: bool,
        renews: bool,
    },
    /// Reply to `readlink`: the link's target path.
    Path(String),
    /// Sharded namespace: the receiving shard does not own the name at
    /// the layout epoch it holds. Carries the authoritative epoch plus
    /// the full override delta so the client can refresh its cached
    /// layout map and re-route (Fletch-style stale-layout recovery).
    WrongShard {
        epoch: u64,
        moves: Vec<(String, u32)>,
    },
    /// Reply to `tx_prepare`: the name is locked at the participant;
    /// `existed` reports whether an entry by that name is present.
    TxPrepared { existed: bool },
    /// Any failure.
    Err(NfsStatus),
    /// Transport-level batch of replies, positionally matching the calls
    /// of the `NfsRequest::Compound` that produced it.
    Compound { replies: Vec<NfsReply> },
}

impl NfsReply {
    /// Approximate bytes this reply occupies on the wire.
    pub fn wire_size(&self) -> usize {
        let payload = match self {
            NfsReply::Read(r) => r.data.len(),
            NfsReply::Readdir { entries } => {
                entries.iter().map(|e| e.name.len() + 16).sum::<usize>()
            }
            NfsReply::Path(p) => p.len(),
            NfsReply::WrongShard { moves, .. } => {
                8 + moves.iter().map(|(n, _)| n.len() + 8).sum::<usize>()
            }
            NfsReply::Compound { replies } => {
                return HEADER_BYTES
                    + replies
                        .iter()
                        .map(|r| compound_slot_bytes(r.wire_size()))
                        .sum::<usize>();
            }
            _ => 0,
        };
        HEADER_BYTES + payload
    }

    /// Wraps a batch of replies in a single compound message; a batch of
    /// one stays a plain reply (mirrors [`NfsRequest::compound`]).
    pub fn compound(mut replies: Vec<NfsReply>) -> NfsReply {
        debug_assert!(!replies.is_empty(), "empty compound reply");
        debug_assert!(
            !replies
                .iter()
                .any(|r| matches!(r, NfsReply::Compound { .. })),
            "compound replies must not nest"
        );
        if replies.len() == 1 {
            replies.pop().expect("length checked")
        } else {
            NfsReply::Compound { replies }
        }
    }

    /// The inverse of [`compound`](Self::compound): the replies this
    /// message carries, in call order — itself, unless it is a compound.
    pub fn into_parts(self) -> impl Iterator<Item = NfsReply> {
        let (one, many) = match self {
            NfsReply::Compound { replies } => (None, replies),
            one => (Some(one), Vec::new()),
        };
        one.into_iter().chain(many)
    }

    /// True unless the reply signals an error: the `ok` flag the trace
    /// records for every reply (the wire format is unaffected).
    pub fn is_ok(&self) -> bool {
        !matches!(self, NfsReply::Err(_))
    }

    /// Converts an error reply into `Err`, anything else into `Ok(self)`.
    pub fn into_result(self) -> Result<NfsReply, NfsStatus> {
        match self {
            NfsReply::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }

    /// `Ok` as `()`: an error reply is its status, any other shape
    /// [`NfsStatus::Io`] — as for every typed accessor below.
    pub fn into_unit(self) -> Result<(), NfsStatus> {
        match self.into_result()? {
            NfsReply::Ok => Ok(()),
            _ => Err(NfsStatus::Io),
        }
    }

    /// The attributes of an `Attr` reply.
    pub fn into_attr(self) -> Result<Fattr, NfsStatus> {
        match self.into_result()? {
            NfsReply::Attr(attr) => Ok(attr),
            _ => Err(NfsStatus::Io),
        }
    }

    /// The handle and attributes of a `Handle` reply.
    pub fn into_handle(self) -> Result<(FileHandle, Fattr), NfsStatus> {
        match self.into_result()? {
            NfsReply::Handle { fh, attr } => Ok((fh, attr)),
            _ => Err(NfsStatus::Io),
        }
    }

    /// The body of a `Read` reply.
    pub fn into_read(self) -> Result<ReadReply, NfsStatus> {
        match self.into_result()? {
            NfsReply::Read(r) => Ok(r),
            _ => Err(NfsStatus::Io),
        }
    }

    /// The entries of a `Readdir` reply.
    pub fn into_entries(self) -> Result<Vec<DirEntry>, NfsStatus> {
        match self.into_result()? {
            NfsReply::Readdir { entries } => Ok(entries),
            _ => Err(NfsStatus::Io),
        }
    }

    /// The target of a `Path` reply.
    pub fn into_path(self) -> Result<String, NfsStatus> {
        match self.into_result()? {
            NfsReply::Path(p) => Ok(p),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Extracts attributes if this reply carries them.
    pub fn attr(&self) -> Option<&Fattr> {
        match self {
            NfsReply::Attr(a) => Some(a),
            NfsReply::Handle { attr, .. } => Some(attr),
            NfsReply::Read(r) => Some(&r.attr),
            NfsReply::Open(o) => Some(&o.attr),
            _ => None,
        }
    }
}

/// The body of a server→client [`NfsRequest::Callback`] (paper §3.2).
///
/// `writeback` asks the client to write its dirty blocks back before
/// replying; `invalidate` asks it to drop cached blocks and stop caching.
/// Every flag rides in the header, so a callback is header-only on the
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallbackArg {
    /// The file in question.
    pub fh: FileHandle,
    /// Write dirty blocks back to the server before replying.
    pub writeback: bool,
    /// Invalidate cached blocks and disable further caching.
    pub invalidate: bool,
    /// Recall a delegation: the holder must flush dirty blocks, return the
    /// delegation (with its queued open-state updates) via a `deleg_return`
    /// RPC, and only then reply to this callback.
    pub recall: bool,
    /// Server-assigned callback sequence number, stable across
    /// server-level retries of the same logical callback (each retry is
    /// a fresh RPC with a fresh xid, so the RPC dup cache cannot pair
    /// them). Clients use it to make duplicate deliveries idempotent —
    /// a second arrival must not double-invalidate or re-flush. The
    /// server numbers every callback it sends from 1.
    pub seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::FileType;

    fn fh() -> FileHandle {
        FileHandle::new(1, 2, 0)
    }

    fn attr() -> Fattr {
        Fattr {
            fileid: 2,
            ftype: FileType::Regular,
            size: 10,
            nlink: 1,
            mtime: 0,
            ctime: 0,
            atime: 0,
        }
    }

    #[test]
    fn proc_ids_cover_every_request() {
        let reqs: Vec<(NfsRequest, NfsProc)> = vec![
            (NfsRequest::Null, NfsProc::Null),
            (NfsRequest::GetAttr { fh: fh() }, NfsProc::GetAttr),
            (
                NfsRequest::Lookup {
                    dir: fh(),
                    name: "x".into(),
                },
                NfsProc::Lookup,
            ),
            (
                NfsRequest::Write {
                    fh: fh(),
                    offset: 0,
                    data: vec![0; 100].into(),
                },
                NfsProc::Write,
            ),
            (
                NfsRequest::Open {
                    fh: fh(),
                    write: true,
                    client: ClientId(1),
                },
                NfsProc::Open,
            ),
            (
                NfsRequest::Close {
                    fh: fh(),
                    write: false,
                    client: ClientId(1),
                },
                NfsProc::Close,
            ),
        ];
        for (r, p) in reqs {
            assert_eq!(r.proc_id(), p);
        }
    }

    #[test]
    fn write_wire_size_includes_data() {
        let small = NfsRequest::GetAttr { fh: fh() }.wire_size();
        let big = NfsRequest::Write {
            fh: fh(),
            offset: 0,
            data: vec![0; 4096].into(),
        }
        .wire_size();
        assert!(big >= small + 4096);
    }

    #[test]
    fn read_reply_wire_size_includes_data() {
        let r = NfsReply::Read(ReadReply {
            data: vec![0; 2048].into(),
            eof: false,
            attr: attr(),
        });
        assert!(r.wire_size() >= 2048);
    }

    #[test]
    fn into_result_splits_errors() {
        assert_eq!(
            NfsReply::Err(NfsStatus::NoEnt).into_result(),
            Err(NfsStatus::NoEnt)
        );
        assert!(NfsReply::Ok.into_result().is_ok());
    }

    #[test]
    fn typed_accessors_unpack_their_shape_only() {
        assert_eq!(NfsReply::Ok.into_unit(), Ok(()));
        assert_eq!(NfsReply::Attr(attr()).into_attr(), Ok(attr()));
        let handle = NfsReply::Handle {
            fh: fh(),
            attr: attr(),
        };
        assert_eq!(handle.clone().into_handle(), Ok((fh(), attr())));
        assert_eq!(NfsReply::Path("t".into()).into_path(), Ok("t".into()));
        assert_eq!(
            NfsReply::Readdir { entries: vec![] }.into_entries(),
            Ok(vec![])
        );
        // An error reply is its status; any other shape is an I/O error.
        assert_eq!(
            NfsReply::Err(NfsStatus::Stale).into_attr(),
            Err(NfsStatus::Stale)
        );
        assert_eq!(handle.into_unit(), Err(NfsStatus::Io));
        assert_eq!(NfsReply::Ok.into_read().err(), Some(NfsStatus::Io));
    }

    #[test]
    fn compound_request_accounting() {
        let calls = vec![
            NfsRequest::GetAttr { fh: fh() },
            NfsRequest::Write {
                fh: fh(),
                offset: 0,
                data: vec![0; 4096].into(),
            },
            NfsRequest::Lookup {
                dir: fh(),
                name: "abc".into(),
            },
        ];
        let standalone: usize = calls.iter().map(|c| c.wire_size()).sum();
        let compound = NfsRequest::compound(calls.clone());
        assert_eq!(compound.proc_id(), NfsProc::Compound);
        // One shared header plus per-op framing: every payload byte is
        // still accounted for, and each inner call past the first saves
        // a full header minus its framing.
        let expected = HEADER_BYTES + calls.len() * COMPOUND_OP_BYTES + 4096 + 3;
        assert_eq!(compound.wire_size(), expected);
        assert!(compound.wire_size() < standalone);
    }

    #[test]
    fn compound_of_one_is_the_plain_message() {
        let req = NfsRequest::GetAttr { fh: fh() };
        assert_eq!(NfsRequest::compound(vec![req.clone()]), req);
        let rep = NfsReply::Attr(attr());
        assert_eq!(NfsReply::compound(vec![rep.clone()]), rep);
        let parts = |r: NfsReply| r.into_parts().collect::<Vec<_>>();
        assert_eq!(parts(rep.clone()), vec![rep.clone()]);
        let two = vec![rep, NfsReply::Ok];
        assert_eq!(parts(NfsReply::compound(two.clone())), two);
    }

    #[test]
    fn a_request_addresses_its_file_or_the_directory_it_names_into() {
        let other = FileHandle::new(1, 9, 0);
        let mut create = NfsRequest::Create {
            dir: fh(),
            name: "x".into(),
        };
        assert_eq!(create.dir_name(), Some((fh(), "x")));
        assert_eq!(create.handle(), Some(fh()));
        *create.dir_name_mut().expect("create names an entry").0 = other;
        assert_eq!(create.handle(), Some(other));
        let rename = NfsRequest::Rename {
            from_dir: fh(),
            from_name: "x".into(),
            to_dir: other,
            to_name: "y".into(),
        };
        assert_eq!((rename.handle(), rename.dir_name()), (Some(fh()), None));
        assert_eq!(NfsRequest::GetAttr { fh: other }.handle(), Some(other));
        assert_eq!(NfsRequest::TxCommit { txid: 1 }.handle(), None);
    }

    #[test]
    fn compound_reply_accounting() {
        let replies = vec![
            NfsReply::Attr(attr()),
            NfsReply::Read(ReadReply {
                data: vec![0; 2048].into(),
                eof: false,
                attr: attr(),
            }),
        ];
        let compound = NfsReply::compound(replies.clone());
        let expected = HEADER_BYTES + replies.len() * COMPOUND_OP_BYTES + 2048;
        assert_eq!(compound.wire_size(), expected);
        assert!(compound.wire_size() < replies.iter().map(|r| r.wire_size()).sum());
    }

    #[test]
    fn a_callback_and_both_its_answers_are_header_only() {
        let arg = CallbackArg {
            fh: fh(),
            writeback: true,
            invalidate: true,
            recall: false,
            seq: 1,
        };
        let req = NfsRequest::Callback(arg);
        assert_eq!(req.proc_id(), NfsProc::Callback);
        assert_eq!(req.handle(), Some(fh()));
        assert!(!req.may_block());
        assert_eq!(req.wire_size(), HEADER_BYTES);
        let refused = NfsReply::Err(NfsStatus::Io);
        assert_eq!(NfsReply::Ok.wire_size(), HEADER_BYTES);
        assert_eq!(refused.wire_size(), HEADER_BYTES);
        assert!(NfsReply::Ok.is_ok() && !refused.is_ok());
    }

    #[test]
    fn attr_extraction() {
        assert!(NfsReply::Attr(attr()).attr().is_some());
        assert!(NfsReply::Ok.attr().is_none());
        let open = NfsReply::Open(OpenReply {
            cache_enabled: true,
            version: FileVersion(1),
            prev_version: FileVersion(0),
            attr: attr(),
            inconsistent: false,
            delegation: None,
        });
        assert_eq!(open.attr().unwrap().fileid, 2);
    }

    #[test]
    fn deleg_return_is_header_only() {
        let req = NfsRequest::DelegReturn {
            fh: fh(),
            client: ClientId(1),
            readers: 2,
            writers: 0,
            wrote: false,
        };
        assert_eq!(req.proc_id(), NfsProc::DelegReturn);
        assert_eq!(req.wire_size(), HEADER_BYTES);
    }
}
