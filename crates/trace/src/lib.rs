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
mod record;
pub mod transitions;

pub use check::{check_trace, Violation};
pub use export::{to_chrome_json, to_jsonl};
pub use profile::{
    profile_trace, profile_trace_bucketed, OpKindProfile, OpProfile, Phase, Profile, RpcClaims,
    NUM_PHASES,
};
pub use record::{FhId, Name, TraceEvent};
use record::{Field, Show};

/// An enum stated once: its variants in order (`ALL`, which is also how
/// a record's byte reads back) and the name each serializes under.
macro_rules! named {
    ($(#[$doc:meta])* pub enum $Enum:ident {
        $( $(#[$vdoc:meta])* $Variant:ident = $name:literal ),* $(,)?
    }) => {
        $(#[$doc])*
        pub enum $Enum {
            $( $(#[$vdoc])* $Variant ),*
        }

        impl $Enum {
            /// Every variant, as declared.
            pub const ALL: &[$Enum] = &[$( $Enum::$Variant ),*];

            pub fn name(self) -> &'static str {
                match self {
                    $( $Enum::$Variant => $name ),*
                }
            }
        }
    };
}

named! {
    /// The seven server cache-state values (paper §4.3.4, Figure 4-2).
    /// Defined here so the trace crate does not depend on `core`, which
    /// re-exports it as its state table's `FileState`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum FState {
        /// Not open by any client.
        #[default]
        Closed = "CLOSED",
        /// Not open, but the last writer may still have dirty blocks.
        ClosedDirty = "CLOSED_DIRTY",
        /// Open read-only by one client.
        OneReader = "ONE_RDR",
        /// Open read-only by one client which may have dirty blocks cached.
        OneRdrDirty = "ONE_RDR_DIRTY",
        /// Open read-only by two or more clients.
        MultReaders = "MULT_RDRS",
        /// Open read-write by one client.
        OneWriter = "ONE_WRTR",
        /// Open by two or more clients, at least one writing; none caches.
        WriteShared = "WRITE_SHARED",
    }
}

impl fmt::Display for FState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

named! {
    /// Why a state-table transition happened — the "input" column of the
    /// state machine in paper Figure 4-2, plus the failure/recovery edges.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Cause {
        OpenRead = "open_read",
        OpenWrite = "open_write",
        CloseRead = "close_read",
        CloseWrite = "close_write",
        /// A dirty client finished writing back (callback completed OK).
        WritebackDone = "writeback_done",
        /// The client holding state crashed (or was declared dead).
        ClientCrash = "client_crash",
        /// The file was removed; its table entry is gone.
        Removed = "removed",
        /// The entry was reclaimed (dropped) to bound table size.
        Reclaim = "reclaim",
        /// Post-reboot recovery re-created the entry from a client report.
        Restore = "restore",
        /// A delegation came back (returned or revoked): the holder's queued
        /// open/close history is applied to the entry in one step.
        DelegReturn = "deleg_return",
    }
}

/// One field's value, as `fields` hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val<'a> {
    Num(u64),
    Bool(bool),
    Str(&'a str),
    /// A file handle; serialized as the string its `Display` prints.
    Fh(FileHandle),
}

/// The event table, stated once: a row per kind — its variant, the `ev`
/// value of its JSONL line, and its fields in the order the line lists
/// them: `name: type`, then `as` the type a record hands it back under
/// where that is an interned id, then `=>` its JSONL key where that is
/// not its name. From the table come [`EventKind`], which the emit sites
/// build; [`Event`], the same variants as read back; the two `name`s and
/// `fields`; the packer and [`TraceEvent::view`]. A field's type decides
/// where the record keeps it (`record.rs`); everything that serializes,
/// counts or draws events ([`to_jsonl`], [`to_chrome_json`],
/// [`check::kind_counts`]) is generic over `name` and `fields`.
macro_rules! events {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@read $ty:ty) => { $ty };
    (@read $ty:ty, $read:ty) => { $read };
    ($(
        $(#[$doc:meta])*
        $Kind:ident = $name:literal
        $({ $(
            $(#[$fdoc:meta])* $field:ident: $ty:ty $(as $read:ty)? $(=> $key:literal)?
        ),* $(,)? })?
    )*) => {
        /// What happened, as an emit site says it.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $( $(#[$doc])* $Kind $({ $( $(#[$fdoc])* $field: $ty ),* })? ),*
        }

        /// What happened, as a record hands it back: [`EventKind`] with
        /// every string a [`Name`] and every handle an [`FhId`].
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Event {
            $( $(#[$doc])* $Kind $({
                $( $(#[$fdoc])* $field: events!(@read $ty $(, $read)?) ),*
            })? ),*
        }

        /// A record's kind: the position of its row.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub(crate) enum Tag {
            $( $Kind ),*
        }

        impl Tag {
            pub(crate) const NAMES: &[&str] = &[$( $name ),*];

            pub(crate) fn name(self) -> &'static str {
                Tag::NAMES[self as usize]
            }
        }

        impl EventKind {
            /// Inlined into an emit site, only its own variant's arm is
            /// left: `always`, or the 36 arms are too big to be.
            #[inline(always)]
            pub(crate) fn pack(&self, e: &mut TraceEvent) {
                let mut at = record::Cursor::default();
                match self {
                    $( EventKind::$Kind { $($( $field ),*)? } => {
                        e.tag = Tag::$Kind;
                        $($( $field.put(e, &mut at); )*)?
                    } )*
                }
            }

            /// The `ev` value of the JSONL line.
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$Kind { .. } => $name ),*
                }
            }

            /// Hands `f` every field as `(key, value)`, in the order the
            /// JSONL line lists them after `ev`.
            pub fn fields(&self, f: &mut dyn FnMut(&'static str, Val<'_>)) {
                match self {
                    $( EventKind::$Kind { $($( $field ),*)? } => {
                        $($( if let Some(val) = $field.val() {
                            f(events!(@key $field $($key)?), val);
                        } )*)?
                    } )*
                }
            }
        }

        impl TraceEvent {
            /// The fields, by name. Inlined into a `match`, only the arms'
            /// own fields are read.
            #[inline(always)]
            pub fn view(&self) -> Event {
                let mut at = record::Cursor::default();
                match self.tag {
                    $( Tag::$Kind => Event::$Kind {
                        $($( $field: <$ty as Field>::get(self, &mut at) ),*)?
                    } ),*
                }
            }

            /// [`EventKind::fields`], read from the record.
            pub fn fields(&self, f: &mut dyn FnMut(&'static str, Val<'_>)) {
                match self.view() {
                    $( Event::$Kind { $($( $field ),*)? } => {
                        $($( if let Some(val) = $field.val() {
                            f(events!(@key $field $($key)?), val);
                        } )*)?
                    } )*
                }
            }
        }
    };
}

events! {
    /// Run-level metadata (protocol, thread counts, seed, …).
    Meta = "meta" { key: &'static str as Name, value: Name }
    /// A client-visible operation began (open/close/fsync/remove).
    OpBegin = "op_begin" { client: ClientId, op: &'static str as Name, fh: FileHandle as FhId }
    OpEnd = "op_end" { client: ClientId, op: &'static str as Name, ok: bool }
    /// An RPC left a caller. `from` is ClientId(0) for server-originated
    /// callbacks.
    RpcCall = "rpc_call" {
        from: ClientId,
        xid: u64,
        proc: NfsProc,
        fh: Option<FileHandle> as Option<FhId>,
        offset: u64 => "off",
        len: u64,
    }
    RpcReply = "rpc_reply" { from: ClientId, xid: u64, proc: NfsProc, ok: bool }
    /// One attempt's request datagram left the caller for the wire
    /// (members of a compound batch share their flush instant). Parented
    /// under the `rpc_call` event; the gap from `rpc_call` to the first
    /// `rpc_xmit` is client-side hold time (marshalling, batcher queue,
    /// injected fault delay).
    RpcXmit = "rpc_xmit" { from: ClientId, xid: u64 }
    /// The request datagram reached the server endpoint. `dup` is true
    /// when the duplicate cache answered (or joined an execution already
    /// in flight) instead of spawning a new handler. Parented under the
    /// `rpc_call` event; the gap from a non-dup `rpc_arrive` to its
    /// `handler_begin` is admission wait (blocking gate + service
    /// thread).
    RpcArrive = "rpc_arrive" { from: ClientId, xid: u64, dup: bool }
    /// Server-side execution of one RPC (after dup-cache / thread gate).
    HandlerBegin = "handler_begin" { from: ClientId, xid: u64, proc: NfsProc }
    HandlerEnd = "handler_end" { from: ClientId, xid: u64, proc: NfsProc, ok: bool }
    /// A server state-table transition for one file.
    Transition = "transition" {
        fh: FileHandle as FhId,
        cause: Cause,
        client: ClientId,
        from: FState,
        to: FState,
        version: u64 => "ver",
    }
    /// The server started a consistency callback to `target`.
    CallbackBegin = "cb_begin" { target: ClientId, fh: FileHandle as FhId, writeback: bool, invalidate: bool }
    CallbackEnd = "cb_end" { target: ClientId, fh: FileHandle as FhId, ok: bool }
    /// A client began flushing a file's dirty blocks (write-behind pool
    /// or the direct callback path).
    FlushBegin = "flush_begin" { client: ClientId, fh: FileHandle as FhId, direct: bool }
    FlushEnd = "flush_end" { client: ClientId, fh: FileHandle as FhId, ok: bool }
    /// A block became dirty in a client cache (delayed write).
    BlockDirty = "block_dirty" { client: ClientId, fh: FileHandle as FhId, blk: u64 }
    /// A read was served from the client cache at `version`.
    CacheRead = "cache_read" { client: ClientId, fh: FileHandle as FhId, version: u64 => "ver" }
    /// The server granted an open; records the consistency decision.
    OpenGrant = "open_grant" {
        client: ClientId,
        fh: FileHandle as FhId,
        version: u64 => "ver",
        prev_version: u64 => "prev",
        cache_enabled: bool => "cache",
        write: bool,
    }
    /// The client discarded its cached copy (callback or reopen miss).
    Invalidate = "invalidate" { client: ClientId, fh: FileHandle as FhId }
    /// Delayed writes were cancelled, not flushed (file removed or
    /// truncated): blocks at indices >= `from_blk` are gone.
    WriteCancel = "write_cancel" { client: ClientId, fh: FileHandle as FhId, from_blk: u64, blocks: u64 }
    /// fsync returned OK to the application.
    FsyncOk = "fsync_ok" { client: ClientId, fh: FileHandle as FhId }
    /// The server crashed, losing its state table.
    ServerCrash = "server_crash"
    /// A request entered a disk's scheduler queue. `req` is a per-disk
    /// monotone id; `disk` names the device (traces may carry several) —
    /// the disk's label, interned once when its tracer is set, so two
    /// events per request neither allocate nor hash it.
    DiskQueue = "disk_queue" { disk: Name, req: u64, block: u64 => "blk", write: bool }
    /// A disk request finished service: `wait_us` is queue wait (enqueue
    /// to dispatch), `pos_us` the positioning time charged.
    DiskDone = "disk_done" {
        disk: Name,
        req: u64,
        block: u64 => "blk",
        write: bool,
        wait_us: u64 => "wait",
        pos_us: u64 => "pos",
    }
    /// A server-side block-cache lookup on the read path.
    SrvCacheRead = "srv_cache_read" { ino: u64, blk: u64, hit: bool }
    /// One message hit the network: a request, a reply, or a compound
    /// batch. `host` is the sending host id (0 = server-originated).
    NetXmit = "net_xmit" { host: u32, to_server: bool => "up", bytes: u64 }
    /// A batching caller flushed a compound: `count` inner requests
    /// shared one wire exchange. Emitted once for the request flush
    /// (`reply: false`) and once when the combined reply comes back
    /// (`reply: true`); the checker asserts the counts match per
    /// `(from, id)`.
    Batch = "batch" { from: ClientId, id: u64, count: u64, reply: bool }
    /// The fault-injection layer acted on the `(host, to_client)` RPC
    /// link: `kind` is one of `drop`, `dup`, `delay`, `reply_loss`,
    /// `partition`, or `partition_begin`. `xid` is the affected call's
    /// xid when known (0 otherwise). Never emitted when faults are off.
    Fault = "fault" { host: u32, to_client: bool, xid: u64, kind: &'static str as Name }
    /// The server granted `client` a delegation on `fh` piggybacked on an
    /// open reply (DESIGN.md §17).
    DelegGrant = "deleg_grant" { client: ClientId, fh: FileHandle as FhId, write: bool }
    /// The server began recalling `client`'s delegation on `fh` because a
    /// conflicting open arrived.
    DelegRecall = "deleg_recall" { client: ClientId, fh: FileHandle as FhId }
    /// `client`'s delegation on `fh` ended: returned (and its queued
    /// open-state applied), or revoked after the recall timed out.
    DelegReturn = "deleg_return" { client: ClientId, fh: FileHandle as FhId, revoked: bool }
    /// The client served an open locally from a delegation it holds —
    /// zero RPCs (the whole point of DESIGN.md §17).
    DelegLocalOpen = "deleg_local_open" { client: ClientId, fh: FileHandle as FhId, write: bool }
    /// Sharded namespace (DESIGN.md §18): shard `shard` served a
    /// root-level name operation it owns under layout epoch `epoch`.
    /// Rule 10 recomputes the owner and flags any mismatch.
    ShardRoute = "shard_route" { shard: u32, name: Name, epoch: u64 }
    /// Sharded namespace: the authority layout recorded an ownership
    /// move at the commit point of a cross-shard rename/link —
    /// `to_name` is now owned by `shard` (and `from_name`, when
    /// non-empty, ceased to exist). Epoch bumps are strictly increasing.
    ShardMove = "shard_move" { from_name: Name => "from", to_name: Name => "to", shard: u32, epoch: u64 }
    /// Sharded namespace: a cross-shard transaction opened — emitted by
    /// the coordinator only after the participant prepared, so both
    /// names are locked on both shards for the whole Begin→Move window.
    ShardTxBegin = "shard_tx_begin" {
        txid: u64,
        from_shard: u32,
        to_shard: u32,
        from_name: Name => "from",
        to_name: Name => "to",
        link: bool,
    }
    /// Sharded namespace: the participant locked the target name and
    /// reported whether an entry by that name existed.
    ShardTxPrepared = "shard_tx_prepared" { txid: u64, existed: bool }
    /// Sharded namespace: the transaction resolved — committed (the
    /// participant acknowledged the cleanup) or aborted.
    ShardTxEnd = "shard_tx_end" { txid: u64, committed: bool }
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
    /// `parent` of causally dependent events. Panics rather than record a
    /// sequence number or a parent past `u32::MAX` ([`TraceEvent::new`]).
    #[inline(always)]
    pub fn emit(&self, parent: u64, kind: EventKind) -> u64 {
        let seq = self.inner.next.get() + 1;
        let event = TraceEvent::new(seq, self.inner.sim.now().as_micros(), parent, kind);
        self.inner.next.set(seq);
        // Copies the log only if a snapshot of it is still held.
        Rc::make_mut(&mut self.inner.events.borrow_mut()).push(event);
        seq
    }

    pub fn meta(&self, key: &'static str, value: impl AsRef<str>) {
        let value = value.as_ref().into();
        self.emit(0, EventKind::Meta { key, value });
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
        assert_eq!(u64::from(ev[0].seq), a);
        assert_eq!(u64::from(ev[1].seq), b);
        assert_eq!(u64::from(ev[1].parent), a);
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

    #[test]
    fn a_record_is_forty_bytes() {
        assert!(std::mem::size_of::<TraceEvent>() <= 40);
    }

    fn read(client: u32, file: u64) -> TraceEvent {
        let (client, fh, version) = (ClientId(client), fh(file), 1);
        #[rustfmt::skip]
        let kind = EventKind::CacheRead { client, fh, version };
        TraceEvent::new(1, 0, 0, kind)
    }

    /// Equal text and equal handles get equal ids, however far the tables
    /// have grown since (2,000 keys is six doublings), and an id reads
    /// back as what it was given for.
    #[test]
    fn interning_the_same_thing_twice_gives_the_same_id() {
        let id_of = |file| match read(1, file).view() {
            Event::CacheRead { fh, .. } => fh,
            other => panic!("{other:?}"),
        };
        let names: Vec<String> = (0..2_000).map(|i| format!("name-{i}")).collect();
        let first: Vec<(Name, FhId)> = (0..2_000)
            .map(|i| (names[i].as_str().into(), id_of(i as u64)))
            .collect();
        for (i, &(name, handle)) in first.iter().enumerate() {
            assert_eq!((name, handle), (names[i].as_str().into(), id_of(i as u64)));
            assert_eq!((name.as_str(), handle.get()), (&*names[i], fh(i as u64)));
        }
        let mut distinct: Vec<usize> = first.iter().map(|(_, handle)| handle.index()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 2_000);
        assert_eq!(read(7, 3), read(7, 3));
        assert_ne!(read(7, 3), read(7, 4));
    }

    /// Interning neither splits an id nor merges two: equal static text
    /// at two addresses is one name, and a handle seen again after another
    /// keeps its first id.
    #[test]
    fn interning_keeps_one_id_per_key() {
        let op_of = |op: &'static str| {
            let kind = EventKind::OpEnd {
                client: ClientId(1),
                op,
                ok: true,
            };
            match TraceEvent::new(1, 0, 0, kind).view() {
                Event::OpEnd { op, .. } => op,
                other => panic!("{other:?}"),
            }
        };
        let literal = "interned-op";
        let leaked: &'static str = Box::leak(literal.to_owned().into_boxed_str());
        assert_ne!(literal.as_ptr(), leaked.as_ptr());
        let (a, b) = (op_of(literal), op_of(leaked));
        assert_eq!((a, op_of(literal), a.as_str()), (b, b, literal));
        assert_eq!(a, Name::from("interned-op"));
        assert_ne!(a, op_of("interned-op-2"));

        let id_of = |file| match read(1, file).view() {
            Event::CacheRead { fh, .. } => fh,
            other => panic!("{other:?}"),
        };
        let (first_a, first_b) = (id_of(9_001), id_of(9_002));
        assert_ne!(first_a, first_b);
        assert_eq!(
            (id_of(9_001), id_of(9_002), id_of(9_001)),
            (first_a, first_b, first_a)
        );
        assert_eq!((first_a.get(), first_b.get()), (fh(9_001), fh(9_002)));
    }

    /// The tables belong to the thread, not to a tracer: a second tracer's
    /// events export their own text, whatever the first interned.
    #[test]
    fn a_second_tracer_on_the_thread_exports_its_own_strings() {
        let sim = Sim::new();
        let (one, two) = (Tracer::new(&sim), Tracer::new(&sim));
        one.meta("protocol", "snfs");
        two.meta("protocol", "nfs");
        two.meta("seed", "snfs");
        drop(one);
        assert_eq!(
            to_jsonl(&two.finish()),
            "{\"seq\":1,\"t\":0,\"par\":0,\"ev\":\"meta\",\"key\":\"protocol\",\"value\":\"nfs\"}\n\
             {\"seq\":2,\"t\":0,\"par\":0,\"ev\":\"meta\",\"key\":\"seed\",\"value\":\"snfs\"}\n"
        );
    }

    #[test]
    #[should_panic(expected = "trace parent 4294967296 does not fit")]
    fn emit_refuses_a_parent_past_32_bits() {
        Tracer::new(&Sim::new()).emit(1 << 32, EventKind::ServerCrash);
    }

    #[test]
    #[should_panic(expected = "trace seq 4294967296 does not fit")]
    fn a_sequence_number_past_32_bits_is_refused() {
        let tr = Tracer::new(&Sim::new());
        tr.inner.next.set(u64::from(u32::MAX));
        tr.emit(0, EventKind::ServerCrash);
    }
}
