//! Deterministic causal event tracing for the SNFS simulation.
//!
//! Every interesting action in a run — a client operation, the RPCs it
//! issues, the server handler that services each RPC, the state-table
//! transition it causes, the callbacks that fan out, and the client
//! flushes those callbacks trigger — is recorded as a [`TraceEvent`]
//! with a sim-time timestamp, a sequence number, and a causal parent
//! link. Because the simulator is single-threaded and deterministic,
//! identical seeds yield byte-identical traces, so a serialized trace
//! doubles as a regression artifact.
//!
//! The crate also ships an offline [`check`]er that replays a trace and
//! asserts the protocol invariants the paper argues for (§3.2, §4.3.4).

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use spritely_proto::{ClientId, FileHandle, NfsProc};
use spritely_sim::Sim;

pub mod check;
pub mod export;
pub mod profile;

pub use check::{check_trace, Violation};
pub use export::{to_chrome_json, to_jsonl};
pub use profile::{
    profile_trace, profile_trace_bucketed, OpKindProfile, OpProfile, Phase, Profile, RpcClaims,
    NUM_PHASES,
};

/// The seven server cache-state values (paper §4.3.4, Figure 4-2),
/// mirrored here so the trace crate does not depend on `core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FState {
    Closed,
    ClosedDirty,
    OneReader,
    OneRdrDirty,
    MultReaders,
    OneWriter,
    WriteShared,
}

impl FState {
    pub fn name(self) -> &'static str {
        match self {
            FState::Closed => "CLOSED",
            FState::ClosedDirty => "CLOSED_DIRTY",
            FState::OneReader => "ONE_RDR",
            FState::OneRdrDirty => "ONE_RDR_DIRTY",
            FState::MultReaders => "MULT_RDRS",
            FState::OneWriter => "ONE_WRTR",
            FState::WriteShared => "WRITE_SHARED",
        }
    }
}

impl fmt::Display for FState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a state-table transition happened — the "input" column of the
/// state machine in paper Figure 4-2, plus the failure/recovery edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    OpenRead,
    OpenWrite,
    CloseRead,
    CloseWrite,
    /// A dirty client finished writing back (callback completed OK).
    WritebackDone,
    /// The client holding state crashed (or was declared dead).
    ClientCrash,
    /// The file was removed; its table entry is gone.
    Removed,
    /// The entry was reclaimed (dropped) to bound table size.
    Reclaim,
    /// Post-reboot recovery re-created the entry from a client report.
    Restore,
    /// A delegation came back (returned or revoked): the holder's queued
    /// open/close history is applied to the entry in one step.
    DelegReturn,
}

impl Cause {
    pub fn name(self) -> &'static str {
        match self {
            Cause::OpenRead => "open_read",
            Cause::OpenWrite => "open_write",
            Cause::CloseRead => "close_read",
            Cause::CloseWrite => "close_write",
            Cause::WritebackDone => "writeback_done",
            Cause::ClientCrash => "client_crash",
            Cause::Removed => "removed",
            Cause::Reclaim => "reclaim",
            Cause::Restore => "restore",
            Cause::DelegReturn => "deleg_return",
        }
    }
}

/// One recorded event. `parent` is the sequence number of the causally
/// preceding event (0 = root). Sequence numbers start at 1 and are
/// assigned in emission order, which — in a single-threaded
/// deterministic simulator — is a total order consistent with
/// causality.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub seq: u64,
    pub t_us: u64,
    pub parent: u64,
    pub kind: EventKind,
}

impl TraceEvent {
    pub fn new(seq: u64, t_us: u64, parent: u64, kind: EventKind) -> Self {
        TraceEvent {
            seq,
            t_us,
            parent,
            kind,
        }
    }

    /// The `ev` value of the JSONL line.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Every field as `(key, value)`, in JSONL order.
    pub fn fields<'a>(&'a self, f: &mut dyn FnMut(&'static str, Val<'a>)) {
        self.kind.fields(f)
    }
}

/// What happened. [`EventKind::name`] and [`EventKind::fields`] below are
/// the serialized form of each kind.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Run-level metadata (protocol, thread counts, seed, …).
    Meta { key: &'static str, value: String },
    /// A client-visible operation began (open/close/fsync/remove).
    OpBegin {
        client: ClientId,
        op: &'static str,
        fh: FileHandle,
    },
    OpEnd {
        client: ClientId,
        op: &'static str,
        ok: bool,
    },
    /// An RPC left a caller. `from` is ClientId(0) for server-originated
    /// callbacks.
    RpcCall {
        from: ClientId,
        xid: u64,
        proc: NfsProc,
        fh: Option<FileHandle>,
        offset: u64,
        len: u64,
    },
    RpcReply {
        from: ClientId,
        xid: u64,
        proc: NfsProc,
        ok: bool,
    },
    /// One attempt's request datagram left the caller for the wire
    /// (members of a compound batch share their flush instant). Parented
    /// under the `rpc_call` event; the gap from `rpc_call` to the first
    /// `rpc_xmit` is client-side hold time (marshalling, batcher queue,
    /// injected fault delay).
    RpcXmit { from: ClientId, xid: u64 },
    /// The request datagram reached the server endpoint. `dup` is true
    /// when the duplicate cache answered (or joined an execution already
    /// in flight) instead of spawning a new handler. Parented under the
    /// `rpc_call` event; the gap from a non-dup `rpc_arrive` to its
    /// `handler_begin` is admission wait (blocking gate + service
    /// thread).
    RpcArrive { from: ClientId, xid: u64, dup: bool },
    /// Server-side execution of one RPC (after dup-cache / thread gate).
    HandlerBegin {
        from: ClientId,
        xid: u64,
        proc: NfsProc,
    },
    HandlerEnd {
        from: ClientId,
        xid: u64,
        proc: NfsProc,
        ok: bool,
    },
    /// A server state-table transition for one file.
    Transition {
        fh: FileHandle,
        cause: Cause,
        client: ClientId,
        from: FState,
        to: FState,
        version: u64,
    },
    /// The server started a consistency callback to `target`.
    CallbackBegin {
        target: ClientId,
        fh: FileHandle,
        writeback: bool,
        invalidate: bool,
    },
    CallbackEnd {
        target: ClientId,
        fh: FileHandle,
        ok: bool,
    },
    /// A client began flushing a file's dirty blocks (write-behind pool
    /// or the direct callback path).
    FlushBegin {
        client: ClientId,
        fh: FileHandle,
        direct: bool,
    },
    FlushEnd {
        client: ClientId,
        fh: FileHandle,
        ok: bool,
    },
    /// A block became dirty in a client cache (delayed write).
    BlockDirty {
        client: ClientId,
        fh: FileHandle,
        blk: u64,
    },
    /// A read was served from the client cache at `version`.
    CacheRead {
        client: ClientId,
        fh: FileHandle,
        version: u64,
    },
    /// The server granted an open; records the consistency decision.
    OpenGrant {
        client: ClientId,
        fh: FileHandle,
        version: u64,
        prev_version: u64,
        cache_enabled: bool,
        write: bool,
    },
    /// The client discarded its cached copy (callback or reopen miss).
    Invalidate { client: ClientId, fh: FileHandle },
    /// Delayed writes were cancelled, not flushed (file removed or
    /// truncated): blocks at indices >= `from_blk` are gone.
    WriteCancel {
        client: ClientId,
        fh: FileHandle,
        from_blk: u64,
        blocks: u64,
    },
    /// fsync returned OK to the application.
    FsyncOk { client: ClientId, fh: FileHandle },
    /// The server crashed, losing its state table.
    ServerCrash,
    /// A request entered a disk's scheduler queue. `req` is a per-disk
    /// monotone id; `disk` names the device (traces may carry several) —
    /// the disk's own label, shared, so two events per request cost no
    /// allocation.
    DiskQueue {
        disk: Rc<str>,
        req: u64,
        block: u64,
        write: bool,
    },
    /// A disk request finished service: `wait_us` is queue wait (enqueue
    /// to dispatch), `pos_us` the positioning time charged.
    DiskDone {
        disk: Rc<str>,
        req: u64,
        block: u64,
        write: bool,
        wait_us: u64,
        pos_us: u64,
    },
    /// A server-side block-cache lookup on the read path.
    SrvCacheRead { ino: u64, blk: u64, hit: bool },
    /// One message hit the network: a request, a reply, or a compound
    /// batch. `host` is the sending host id (0 = server-originated).
    NetXmit {
        host: u32,
        to_server: bool,
        bytes: u64,
    },
    /// A batching caller flushed a compound: `count` inner requests
    /// shared one wire exchange. Emitted once for the request flush
    /// (`reply: false`) and once when the combined reply comes back
    /// (`reply: true`); the checker asserts the counts match per
    /// `(from, id)`.
    Batch {
        from: ClientId,
        id: u64,
        count: u64,
        reply: bool,
    },
    /// The fault-injection layer acted on the `(host, to_client)` RPC
    /// link: `kind` is one of `drop`, `dup`, `delay`, `reply_loss`,
    /// `partition`, or `partition_begin`. `xid` is the affected call's
    /// xid when known (0 otherwise). Never emitted when faults are off.
    Fault {
        host: u32,
        to_client: bool,
        xid: u64,
        kind: &'static str,
    },
    /// The server granted `client` a delegation on `fh` piggybacked on an
    /// open reply (DESIGN.md §17).
    DelegGrant {
        client: ClientId,
        fh: FileHandle,
        write: bool,
    },
    /// The server began recalling `client`'s delegation on `fh` because a
    /// conflicting open arrived.
    DelegRecall { client: ClientId, fh: FileHandle },
    /// `client`'s delegation on `fh` ended: returned (and its queued
    /// open-state applied), or revoked after the recall timed out.
    DelegReturn {
        client: ClientId,
        fh: FileHandle,
        revoked: bool,
    },
    /// The client served an open locally from a delegation it holds —
    /// zero RPCs (the whole point of DESIGN.md §17).
    DelegLocalOpen {
        client: ClientId,
        fh: FileHandle,
        write: bool,
    },
    /// Sharded namespace (DESIGN.md §18): shard `shard` served a
    /// root-level name operation it owns under layout epoch `epoch`.
    /// Rule 10 recomputes the owner and flags any mismatch.
    ShardRoute {
        shard: u32,
        name: String,
        epoch: u64,
    },
    /// Sharded namespace: the authority layout recorded an ownership
    /// move at the commit point of a cross-shard rename/link —
    /// `to_name` is now owned by `shard` (and `from_name`, when
    /// non-empty, ceased to exist). Epoch bumps are strictly increasing.
    ShardMove {
        from_name: String,
        to_name: String,
        shard: u32,
        epoch: u64,
    },
    /// Sharded namespace: a cross-shard transaction opened — emitted by
    /// the coordinator only after the participant prepared, so both
    /// names are locked on both shards for the whole Begin→Move window.
    ShardTxBegin {
        txid: u64,
        from_shard: u32,
        to_shard: u32,
        from_name: String,
        to_name: String,
        link: bool,
    },
    /// Sharded namespace: the participant locked the target name and
    /// reported whether an entry by that name existed.
    ShardTxPrepared { txid: u64, existed: bool },
    /// Sharded namespace: the transaction resolved — committed (the
    /// participant acknowledged the cleanup) or aborted.
    ShardTxEnd { txid: u64, committed: bool },
}

struct Inner {
    sim: Sim,
    /// Shared with every snapshot [`Tracer::finish`] has handed out.
    events: RefCell<Rc<Vec<TraceEvent>>>,
    next: Cell<u64>,
}

/// A cheaply clonable handle to one run's event log. Components hold a
/// clone and call [`Tracer::emit`]; emission never awaits, never reads
/// wall-clock time, and never consumes randomness, so a traced run is
/// behaviorally identical to an untraced one.
#[derive(Clone)]
pub struct Tracer {
    inner: Rc<Inner>,
}

impl Tracer {
    pub fn new(sim: &Sim) -> Self {
        Tracer {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                events: RefCell::default(),
                next: Cell::new(0),
            }),
        }
    }

    /// Record an event; returns its sequence number for use as the
    /// `parent` of causally dependent events.
    pub fn emit(&self, parent: u64, kind: EventKind) -> u64 {
        let seq = self.inner.next.get() + 1;
        self.inner.next.set(seq);
        // Copies the log only if a snapshot of it is still held.
        Rc::make_mut(&mut self.inner.events.borrow_mut()).push(TraceEvent {
            seq,
            t_us: self.inner.sim.now().as_micros(),
            parent,
            kind,
        });
        seq
    }

    pub fn meta(&self, key: &'static str, value: impl Into<String>) {
        self.emit(
            0,
            EventKind::Meta {
                key,
                value: value.into(),
            },
        );
    }

    pub fn len(&self) -> usize {
        self.inner.events.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the event log in O(1): the snapshot shares the log's
    /// storage and never changes. The tracer remains usable; its next
    /// `emit` copies the log once if the snapshot is still alive by then.
    pub fn finish(&self) -> Rc<Vec<TraceEvent>> {
        self.inner.events.borrow().clone()
    }
}

/// One field's value, as [`EventKind::fields`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val<'a> {
    Num(u64),
    Bool(bool),
    Str(&'a str),
    /// A file handle; serialized as the string its `Display` prints.
    Fh(FileHandle),
}

fn id(c: &ClientId) -> Val<'static> {
    Val::Num(c.0.into())
}

/// The event table: what each kind is called and which fields it
/// carries. Everything that serializes, counts or draws events
/// ([`to_jsonl`], [`to_chrome_json`], [`check::kind_counts`]) is generic
/// over these two methods; both matches are exhaustive, so a new variant
/// does not compile until it has a name and its fields.
impl EventKind {
    /// The `ev` value of the JSONL line.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Meta { .. } => "meta",
            EventKind::OpBegin { .. } => "op_begin",
            EventKind::OpEnd { .. } => "op_end",
            EventKind::RpcCall { .. } => "rpc_call",
            EventKind::RpcReply { .. } => "rpc_reply",
            EventKind::RpcXmit { .. } => "rpc_xmit",
            EventKind::RpcArrive { .. } => "rpc_arrive",
            EventKind::HandlerBegin { .. } => "handler_begin",
            EventKind::HandlerEnd { .. } => "handler_end",
            EventKind::Transition { .. } => "transition",
            EventKind::CallbackBegin { .. } => "cb_begin",
            EventKind::CallbackEnd { .. } => "cb_end",
            EventKind::FlushBegin { .. } => "flush_begin",
            EventKind::FlushEnd { .. } => "flush_end",
            EventKind::BlockDirty { .. } => "block_dirty",
            EventKind::CacheRead { .. } => "cache_read",
            EventKind::OpenGrant { .. } => "open_grant",
            EventKind::Invalidate { .. } => "invalidate",
            EventKind::WriteCancel { .. } => "write_cancel",
            EventKind::FsyncOk { .. } => "fsync_ok",
            EventKind::ServerCrash => "server_crash",
            EventKind::DiskQueue { .. } => "disk_queue",
            EventKind::DiskDone { .. } => "disk_done",
            EventKind::SrvCacheRead { .. } => "srv_cache_read",
            EventKind::NetXmit { .. } => "net_xmit",
            EventKind::Batch { .. } => "batch",
            EventKind::Fault { .. } => "fault",
            EventKind::DelegGrant { .. } => "deleg_grant",
            EventKind::DelegRecall { .. } => "deleg_recall",
            EventKind::DelegReturn { .. } => "deleg_return",
            EventKind::DelegLocalOpen { .. } => "deleg_local_open",
            EventKind::ShardRoute { .. } => "shard_route",
            EventKind::ShardMove { .. } => "shard_move",
            EventKind::ShardTxBegin { .. } => "shard_tx_begin",
            EventKind::ShardTxPrepared { .. } => "shard_tx_prepared",
            EventKind::ShardTxEnd { .. } => "shard_tx_end",
        }
    }

    /// Hands `f` every field as `(key, value)`, in the order the JSONL
    /// line lists them after `ev`. The keys are the format; the struct
    /// field names are free to differ (`version` is written `ver`).
    pub fn fields<'a>(&'a self, f: &mut dyn FnMut(&'static str, Val<'a>)) {
        use Val::{Bool, Fh, Num, Str};
        match self {
            EventKind::Meta { key, value } => {
                f("key", Str(key));
                f("value", Str(value));
            }
            EventKind::OpBegin { client, op, fh } => {
                f("client", id(client));
                f("op", Str(op));
                f("fh", Fh(*fh));
            }
            EventKind::OpEnd { client, op, ok } => {
                f("client", id(client));
                f("op", Str(op));
                f("ok", Bool(*ok));
            }
            EventKind::RpcCall {
                from,
                xid,
                proc,
                fh,
                offset,
                len,
            } => {
                f("from", id(from));
                f("xid", Num(*xid));
                f("proc", Str(proc.name()));
                if let Some(fh) = fh {
                    f("fh", Fh(*fh));
                }
                f("off", Num(*offset));
                f("len", Num(*len));
            }
            EventKind::RpcReply {
                from,
                xid,
                proc,
                ok,
            } => {
                f("from", id(from));
                f("xid", Num(*xid));
                f("proc", Str(proc.name()));
                f("ok", Bool(*ok));
            }
            EventKind::RpcXmit { from, xid } => {
                f("from", id(from));
                f("xid", Num(*xid));
            }
            EventKind::RpcArrive { from, xid, dup } => {
                f("from", id(from));
                f("xid", Num(*xid));
                f("dup", Bool(*dup));
            }
            EventKind::HandlerBegin { from, xid, proc } => {
                f("from", id(from));
                f("xid", Num(*xid));
                f("proc", Str(proc.name()));
            }
            EventKind::HandlerEnd {
                from,
                xid,
                proc,
                ok,
            } => {
                f("from", id(from));
                f("xid", Num(*xid));
                f("proc", Str(proc.name()));
                f("ok", Bool(*ok));
            }
            EventKind::Transition {
                fh,
                cause,
                client,
                from,
                to,
                version,
            } => {
                f("fh", Fh(*fh));
                f("cause", Str(cause.name()));
                f("client", id(client));
                f("from", Str(from.name()));
                f("to", Str(to.name()));
                f("ver", Num(*version));
            }
            EventKind::CallbackBegin {
                target,
                fh,
                writeback,
                invalidate,
            } => {
                f("target", id(target));
                f("fh", Fh(*fh));
                f("writeback", Bool(*writeback));
                f("invalidate", Bool(*invalidate));
            }
            EventKind::CallbackEnd { target, fh, ok } => {
                f("target", id(target));
                f("fh", Fh(*fh));
                f("ok", Bool(*ok));
            }
            EventKind::FlushBegin { client, fh, direct } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("direct", Bool(*direct));
            }
            EventKind::FlushEnd { client, fh, ok } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("ok", Bool(*ok));
            }
            EventKind::BlockDirty { client, fh, blk } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("blk", Num(*blk));
            }
            EventKind::CacheRead {
                client,
                fh,
                version,
            } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("ver", Num(*version));
            }
            EventKind::OpenGrant {
                client,
                fh,
                version,
                prev_version,
                cache_enabled,
                write,
            } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("ver", Num(*version));
                f("prev", Num(*prev_version));
                f("cache", Bool(*cache_enabled));
                f("write", Bool(*write));
            }
            EventKind::Invalidate { client, fh } => {
                f("client", id(client));
                f("fh", Fh(*fh));
            }
            EventKind::WriteCancel {
                client,
                fh,
                from_blk,
                blocks,
            } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("from_blk", Num(*from_blk));
                f("blocks", Num(*blocks));
            }
            EventKind::FsyncOk { client, fh } => {
                f("client", id(client));
                f("fh", Fh(*fh));
            }
            EventKind::ServerCrash => {}
            EventKind::DiskQueue {
                disk,
                req,
                block,
                write,
            } => {
                f("disk", Str(disk));
                f("req", Num(*req));
                f("blk", Num(*block));
                f("write", Bool(*write));
            }
            EventKind::DiskDone {
                disk,
                req,
                block,
                write,
                wait_us,
                pos_us,
            } => {
                f("disk", Str(disk));
                f("req", Num(*req));
                f("blk", Num(*block));
                f("write", Bool(*write));
                f("wait", Num(*wait_us));
                f("pos", Num(*pos_us));
            }
            EventKind::SrvCacheRead { ino, blk, hit } => {
                f("ino", Num(*ino));
                f("blk", Num(*blk));
                f("hit", Bool(*hit));
            }
            EventKind::NetXmit {
                host,
                to_server,
                bytes,
            } => {
                f("host", Num((*host).into()));
                f("up", Bool(*to_server));
                f("bytes", Num(*bytes));
            }
            EventKind::Batch {
                from,
                id: batch,
                count,
                reply,
            } => {
                f("from", id(from));
                f("id", Num(*batch));
                f("count", Num(*count));
                f("reply", Bool(*reply));
            }
            EventKind::Fault {
                host,
                to_client,
                xid,
                kind,
            } => {
                f("host", Num((*host).into()));
                f("to_client", Bool(*to_client));
                f("xid", Num(*xid));
                f("kind", Str(kind));
            }
            EventKind::DelegGrant { client, fh, write } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("write", Bool(*write));
            }
            EventKind::DelegRecall { client, fh } => {
                f("client", id(client));
                f("fh", Fh(*fh));
            }
            EventKind::DelegReturn {
                client,
                fh,
                revoked,
            } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("revoked", Bool(*revoked));
            }
            EventKind::DelegLocalOpen { client, fh, write } => {
                f("client", id(client));
                f("fh", Fh(*fh));
                f("write", Bool(*write));
            }
            EventKind::ShardRoute { shard, name, epoch } => {
                f("shard", Num((*shard).into()));
                f("name", Str(name));
                f("epoch", Num(*epoch));
            }
            EventKind::ShardMove {
                from_name,
                to_name,
                shard,
                epoch,
            } => {
                f("from", Str(from_name));
                f("to", Str(to_name));
                f("shard", Num((*shard).into()));
                f("epoch", Num(*epoch));
            }
            EventKind::ShardTxBegin {
                txid,
                from_shard,
                to_shard,
                from_name,
                to_name,
                link,
            } => {
                f("txid", Num(*txid));
                f("from_shard", Num((*from_shard).into()));
                f("to_shard", Num((*to_shard).into()));
                f("from", Str(from_name));
                f("to", Str(to_name));
                f("link", Bool(*link));
            }
            EventKind::ShardTxPrepared { txid, existed } => {
                f("txid", Num(*txid));
                f("existed", Bool(*existed));
            }
            EventKind::ShardTxEnd { txid, committed } => {
                f("txid", Num(*txid));
                f("committed", Bool(*committed));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(i: u64) -> FileHandle {
        FileHandle::new(1, i, 1)
    }

    #[test]
    fn sequence_numbers_and_parents_link_up() {
        let sim = Sim::new();
        let tr = Tracer::new(&sim);
        let a = tr.emit(
            0,
            EventKind::OpBegin {
                client: ClientId(1),
                op: "open",
                fh: fh(9),
            },
        );
        let b = tr.emit(
            a,
            EventKind::RpcCall {
                from: ClientId(1),
                xid: 1,
                proc: NfsProc::Open,
                fh: Some(fh(9)),
                offset: 0,
                len: 0,
            },
        );
        let ev = tr.finish();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].seq, a);
        assert_eq!(ev[1].seq, b);
        assert_eq!(ev[1].parent, a);
    }

    #[test]
    fn emission_is_deterministic_under_clone() {
        let sim = Sim::new();
        let tr = Tracer::new(&sim);
        let tr2 = tr.clone();
        tr.meta("protocol", "snfs");
        tr2.meta("seed", "42");
        assert_eq!(tr.len(), 2);
        let ev = tr2.finish();
        assert_eq!(ev[0].seq, 1);
        assert_eq!(ev[1].seq, 2);
    }

    #[test]
    fn a_snapshot_never_changes_and_is_shared_until_the_next_emit() {
        let sim = Sim::new();
        let tr = Tracer::new(&sim);
        tr.meta("protocol", "snfs");
        tr.meta("seed", "42");
        let first = tr.finish();
        assert!(
            Rc::ptr_eq(&first, &tr.finish()),
            "no emit in between: both snapshots are the log itself"
        );
        // The tracer stays usable, and what it records next is not in
        // the snapshot taken before.
        tr.meta("clients", "2");
        assert_eq!((first.len(), first.last().map(|e| e.seq)), (2, Some(2)));
        let second = tr.finish();
        assert!(!Rc::ptr_eq(&first, &second));
        assert_eq!((second.len(), second[2].seq, tr.len()), (3, 3, 3));
        assert_eq!(second[..2], first[..]);
    }
}
