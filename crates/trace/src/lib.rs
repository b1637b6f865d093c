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

/// What happened. Field order here fixes the JSONL field order.
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
    events: RefCell<Vec<TraceEvent>>,
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
                events: RefCell::new(Vec::new()),
                next: Cell::new(0),
            }),
        }
    }

    /// Record an event; returns its sequence number for use as the
    /// `parent` of causally dependent events.
    pub fn emit(&self, parent: u64, kind: EventKind) -> u64 {
        let seq = self.inner.next.get() + 1;
        self.inner.next.set(seq);
        self.inner.events.borrow_mut().push(TraceEvent {
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

    /// Snapshot the event log (the tracer remains usable).
    pub fn finish(&self) -> Vec<TraceEvent> {
        self.inner.events.borrow().clone()
    }
}

/// Escape a string for inclusion in a JSON double-quoted literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
}
