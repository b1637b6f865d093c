//! What a [`TraceEvent`] holds is what its [`EventKind`] said: over every
//! kind, with the values a compact record is most likely to lose — numbers
//! on both sides of 2³², times past it, text that needs escaping, an
//! `rpc_call` with and without a file handle — the event's `name()`,
//! `fields()` and JSONL line are those of the kind it was built from.

use proptest::prelude::*;
use spritely_metrics::json::Writer;
use spritely_proto::{ClientId, FileHandle, NfsProc};
use spritely_trace::{to_jsonl, Cause, EventKind, FState, Name, TraceEvent, Val};

const KINDS: usize = 36;

const NUMS: [u64; 8] = [
    0,
    1,
    4096,
    (1 << 31) - 1,
    1 << 31,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    u64::MAX,
];
const SMALL: [u32; 4] = [0, 3, 1 << 31, u32::MAX];
const TEXT: [&str; 5] = ["", "srv", "a\"b\\c\n\u{1}", "tmp/\"q\"", "line\nbreak"];
const CAUSES: [Cause; 10] = [
    Cause::OpenRead,
    Cause::OpenWrite,
    Cause::CloseRead,
    Cause::CloseWrite,
    Cause::WritebackDone,
    Cause::ClientCrash,
    Cause::Removed,
    Cause::Reclaim,
    Cause::Restore,
    Cause::DelegReturn,
];
const STATES: [FState; 7] = [
    FState::Closed,
    FState::ClosedDirty,
    FState::OneReader,
    FState::OneRdrDirty,
    FState::MultReaders,
    FState::OneWriter,
    FState::WriteShared,
];

/// The draws one event's fields are picked with, handed out in turn.
struct Draws<'a>(std::slice::Iter<'a, u64>);

impl Draws<'_> {
    fn of<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[*self.0.next().expect("a draw per field") as usize % pool.len()]
    }
    fn num(&mut self) -> u64 {
        self.of(&NUMS)
    }
    fn small(&mut self) -> u32 {
        self.of(&SMALL)
    }
    fn id(&mut self) -> ClientId {
        ClientId(self.small())
    }
    fn flag(&mut self) -> bool {
        self.of(&[false, true])
    }
    fn text(&mut self) -> &'static str {
        self.of(&TEXT)
    }
    fn fh(&mut self) -> FileHandle {
        FileHandle::new(self.small(), self.num(), self.small())
    }
    fn proc(&mut self) -> NfsProc {
        self.of(&NfsProc::ALL)
    }
}

/// The `which`-th kind, in declaration order, its fields drawn from `d`.
fn kind(which: usize, d: &mut Draws<'_>) -> EventKind {
    match which {
        0 => EventKind::Meta {
            key: d.text(),
            value: d.text().into(),
        },
        1 => EventKind::OpBegin {
            client: d.id(),
            op: d.text(),
            fh: d.fh(),
        },
        2 => EventKind::OpEnd {
            client: d.id(),
            op: d.text(),
            ok: d.flag(),
        },
        3 => EventKind::RpcCall {
            from: d.id(),
            xid: d.num(),
            proc: d.proc(),
            fh: d.flag().then(|| d.fh()),
            offset: d.num(),
            len: d.num(),
        },
        4 => EventKind::RpcReply {
            from: d.id(),
            xid: d.num(),
            proc: d.proc(),
            ok: d.flag(),
        },
        5 => EventKind::RpcXmit {
            from: d.id(),
            xid: d.num(),
        },
        6 => EventKind::RpcArrive {
            from: d.id(),
            xid: d.num(),
            dup: d.flag(),
        },
        7 => EventKind::HandlerBegin {
            from: d.id(),
            xid: d.num(),
            proc: d.proc(),
        },
        8 => EventKind::HandlerEnd {
            from: d.id(),
            xid: d.num(),
            proc: d.proc(),
            ok: d.flag(),
        },
        9 => EventKind::Transition {
            fh: d.fh(),
            cause: d.of(&CAUSES),
            client: d.id(),
            from: d.of(&STATES),
            to: d.of(&STATES),
            version: d.num(),
        },
        10 => EventKind::CallbackBegin {
            target: d.id(),
            fh: d.fh(),
            writeback: d.flag(),
            invalidate: d.flag(),
        },
        11 => EventKind::CallbackEnd {
            target: d.id(),
            fh: d.fh(),
            ok: d.flag(),
        },
        12 => EventKind::FlushBegin {
            client: d.id(),
            fh: d.fh(),
            direct: d.flag(),
        },
        13 => EventKind::FlushEnd {
            client: d.id(),
            fh: d.fh(),
            ok: d.flag(),
        },
        14 => EventKind::BlockDirty {
            client: d.id(),
            fh: d.fh(),
            blk: d.num(),
        },
        15 => EventKind::CacheRead {
            client: d.id(),
            fh: d.fh(),
            version: d.num(),
        },
        16 => EventKind::OpenGrant {
            client: d.id(),
            fh: d.fh(),
            version: d.num(),
            prev_version: d.num(),
            cache_enabled: d.flag(),
            write: d.flag(),
        },
        17 => EventKind::Invalidate {
            client: d.id(),
            fh: d.fh(),
        },
        18 => EventKind::WriteCancel {
            client: d.id(),
            fh: d.fh(),
            from_blk: d.num(),
            blocks: d.num(),
        },
        19 => EventKind::FsyncOk {
            client: d.id(),
            fh: d.fh(),
        },
        20 => EventKind::ServerCrash,
        21 => EventKind::DiskQueue {
            disk: Name::from(d.text()),
            req: d.num(),
            block: d.num(),
            write: d.flag(),
        },
        22 => EventKind::DiskDone {
            disk: Name::from(d.text()),
            req: d.num(),
            block: d.num(),
            write: d.flag(),
            wait_us: d.num(),
            pos_us: d.num(),
        },
        23 => EventKind::SrvCacheRead {
            ino: d.num(),
            blk: d.num(),
            hit: d.flag(),
        },
        24 => EventKind::NetXmit {
            host: d.small(),
            to_server: d.flag(),
            bytes: d.num(),
        },
        25 => EventKind::Batch {
            from: d.id(),
            id: d.num(),
            count: d.num(),
            reply: d.flag(),
        },
        26 => EventKind::Fault {
            host: d.small(),
            to_client: d.flag(),
            xid: d.num(),
            kind: d.text(),
        },
        27 => EventKind::DelegGrant {
            client: d.id(),
            fh: d.fh(),
            write: d.flag(),
        },
        28 => EventKind::DelegRecall {
            client: d.id(),
            fh: d.fh(),
        },
        29 => EventKind::DelegReturn {
            client: d.id(),
            fh: d.fh(),
            revoked: d.flag(),
        },
        30 => EventKind::DelegLocalOpen {
            client: d.id(),
            fh: d.fh(),
            write: d.flag(),
        },
        31 => EventKind::ShardRoute {
            shard: d.small(),
            name: d.text().into(),
            epoch: d.num(),
        },
        32 => EventKind::ShardMove {
            from_name: d.text().into(),
            to_name: d.text().into(),
            shard: d.small(),
            epoch: d.num(),
        },
        33 => EventKind::ShardTxBegin {
            txid: d.num(),
            from_shard: d.small(),
            to_shard: d.small(),
            from_name: d.text().into(),
            to_name: d.text().into(),
            link: d.flag(),
        },
        34 => EventKind::ShardTxPrepared {
            txid: d.num(),
            existed: d.flag(),
        },
        35 => EventKind::ShardTxEnd {
            txid: d.num(),
            committed: d.flag(),
        },
        _ => unreachable!("{KINDS} kinds"),
    }
}

/// `(key, value)` of every field, as text.
fn listed(
    fields: impl FnOnce(&mut dyn FnMut(&'static str, Val<'_>)),
) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    fields(&mut |key, val| out.push((key, format!("{val:?}"))));
    out
}

/// The JSONL line of an event, written here from its kind.
fn line_of(seq: u64, t_us: u64, parent: u64, kind: &EventKind) -> String {
    let mut w = Writer::default();
    w.obj(|w| {
        w.nums(&[("seq", seq), ("t", t_us), ("par", parent)]);
        w.key("ev").str(kind.name());
        kind.fields(&mut |key, val| {
            w.key(key);
            match val {
                Val::Num(n) => w.num(n),
                Val::Bool(b) => w.bool(b),
                Val::Str(s) => w.str(s),
                Val::Fh(fh) => w.str(fh),
            };
        });
    });
    w.out.push('\n');
    w.out
}

#[test]
fn an_event_reads_back_as_the_kind_it_was_built_from() {
    let draws = proptest::collection::vec(any::<u64>(), 16..17);
    let mut seen = [0u32; KINDS];
    let (mut with_fh, mut without_fh, mut past_u32) = (0, 0, 0);
    TestRunner::new(ProptestConfig::with_cases(512)).run_cases(|rng| {
        let mut log = Vec::new();
        let mut want = String::new();
        for (which, seen) in seen.iter_mut().enumerate() {
            let draws = draws.generate_value(rng);
            let mut d = Draws(draws.iter());
            // Sequence numbers and parents up to the largest a record
            // holds; times on both sides of 2^32.
            let seq = 1 + d.num().min(u64::from(u32::MAX) - 1);
            let parent = d.num().min(u64::from(u32::MAX));
            let t_us = d.num();
            let kind = kind(which, &mut d);
            match kind {
                EventKind::RpcCall { fh: Some(_), .. } => with_fh += 1,
                EventKind::RpcCall { fh: None, .. } => without_fh += 1,
                _ => {}
            }
            let event = TraceEvent::new(seq, t_us, parent, kind.clone());
            let held = (u64::from(event.seq), event.t_us, u64::from(event.parent));
            assert_eq!(held, (seq, t_us, parent));
            assert_eq!(event.name(), kind.name());
            let fields = listed(|f| event.fields(f));
            assert_eq!(fields, listed(|f| kind.fields(f)), "{kind:?}");
            past_u32 += fields
                .iter()
                .filter(|(_, v)| *v == "Num(4294967296)" || *v == "Num(18446744073709551615)")
                .count();
            *seen += 1;
            want += &line_of(seq, t_us, parent, &kind);
            log.push(event);
        }
        assert_eq!(to_jsonl(&log), want);
    });
    println!("{with_fh} rpc_call with fh, {without_fh} without, {past_u32} numbers past u32");
    assert_eq!(seen, [512; KINDS]);
    assert!(with_fh > 100 && without_fh > 100 && past_u32 > 3_000);
}
