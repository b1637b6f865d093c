//! The event schema, held from outside: one sample of every `EventKind`
//! variant, the digest of its JSONL (the byte-stable format every
//! `*_trace_fnv` ledger key hashes), and the coverage check that makes a
//! new variant show up here.

use spritely_metrics::json::{self, Value};
use spritely_proto::{ClientId, FileHandle, Fnv, NfsProc};
use spritely_trace::{to_chrome_json, to_jsonl, Cause, EventKind, FState, Name, TraceEvent};

/// A string that exercises every escape class: a quote, a backslash, a
/// named control character and one that needs `\u`.
const NASTY: &str = "a\"b\\c\n\u{1}";

/// Position of a kind in the enum. Exhaustive on purpose: a new variant
/// fails to compile here, and [`sample`] must then cover it.
fn variant(kind: &EventKind) -> usize {
    match kind {
        EventKind::Meta { .. } => 0,
        EventKind::OpBegin { .. } => 1,
        EventKind::OpEnd { .. } => 2,
        EventKind::RpcCall { .. } => 3,
        EventKind::RpcReply { .. } => 4,
        EventKind::RpcXmit { .. } => 5,
        EventKind::RpcArrive { .. } => 6,
        EventKind::HandlerBegin { .. } => 7,
        EventKind::HandlerEnd { .. } => 8,
        EventKind::Transition { .. } => 9,
        EventKind::CallbackBegin { .. } => 10,
        EventKind::CallbackEnd { .. } => 11,
        EventKind::FlushBegin { .. } => 12,
        EventKind::FlushEnd { .. } => 13,
        EventKind::BlockDirty { .. } => 14,
        EventKind::CacheRead { .. } => 15,
        EventKind::OpenGrant { .. } => 16,
        EventKind::Invalidate { .. } => 17,
        EventKind::WriteCancel { .. } => 18,
        EventKind::FsyncOk { .. } => 19,
        EventKind::ServerCrash => 20,
        EventKind::DiskQueue { .. } => 21,
        EventKind::DiskDone { .. } => 22,
        EventKind::SrvCacheRead { .. } => 23,
        EventKind::NetXmit { .. } => 24,
        EventKind::Batch { .. } => 25,
        EventKind::Fault { .. } => 26,
        EventKind::DelegGrant { .. } => 27,
        EventKind::DelegRecall { .. } => 28,
        EventKind::DelegReturn { .. } => 29,
        EventKind::DelegLocalOpen { .. } => 30,
        EventKind::ShardRoute { .. } => 31,
        EventKind::ShardMove { .. } => 32,
        EventKind::ShardTxBegin { .. } => 33,
        EventKind::ShardTxPrepared { .. } => 34,
        EventKind::ShardTxEnd { .. } => 35,
    }
}
const VARIANTS: usize = 36;

/// One event of every kind (`rpc_call` twice: with and without a file
/// handle), every free-text field carrying [`NASTY`], each with its
/// parent. Spans are opened and closed in pairs, each end naming its
/// opener as `parent`, the way the emit sites do.
fn kinds() -> Vec<(u64, EventKind)> {
    let c = ClientId(3);
    let fh = FileHandle::new(1, 7, 2);
    let disk = Name::from(NASTY);
    vec![
        (
            0,
            EventKind::Meta {
                key: "pro\"to\\col",
                value: NASTY.into(),
            },
        ),
        (
            0,
            EventKind::OpBegin {
                client: c,
                op: "open",
                fh,
            },
        ),
        (
            2,
            EventKind::RpcCall {
                from: c,
                xid: 9,
                proc: NfsProc::Open,
                fh: Some(fh),
                offset: 4096,
                len: 8192,
            },
        ),
        (3, EventKind::RpcXmit { from: c, xid: 9 }),
        (
            0,
            EventKind::NetXmit {
                host: 3,
                to_server: true,
                bytes: 120,
            },
        ),
        (
            3,
            EventKind::Fault {
                host: 203,
                to_client: false,
                xid: 9,
                kind: "delay",
            },
        ),
        (
            3,
            EventKind::RpcArrive {
                from: c,
                xid: 9,
                dup: false,
            },
        ),
        (
            3,
            EventKind::HandlerBegin {
                from: c,
                xid: 9,
                proc: NfsProc::Open,
            },
        ),
        (
            8,
            EventKind::Transition {
                fh,
                cause: Cause::OpenWrite,
                client: c,
                from: FState::OneReader,
                to: FState::WriteShared,
                version: 5,
            },
        ),
        (
            9,
            EventKind::CallbackBegin {
                target: ClientId(4),
                fh,
                writeback: true,
                invalidate: false,
            },
        ),
        (
            10,
            EventKind::RpcCall {
                from: ClientId(0),
                xid: 9,
                proc: NfsProc::Callback,
                fh: None,
                offset: 0,
                len: 0,
            },
        ),
        (
            11,
            EventKind::FlushBegin {
                client: ClientId(4),
                fh,
                direct: true,
            },
        ),
        (
            0,
            EventKind::DiskQueue {
                disk,
                req: 1,
                block: 77,
                write: true,
            },
        ),
        (
            0,
            EventKind::SrvCacheRead {
                ino: 7,
                blk: 1,
                hit: false,
            },
        ),
        (
            0,
            EventKind::DiskDone {
                disk,
                req: 1,
                block: 77,
                write: true,
                wait_us: 30,
                pos_us: 28000,
            },
        ),
        (
            12,
            EventKind::FlushEnd {
                client: ClientId(4),
                fh,
                ok: true,
            },
        ),
        (
            11,
            EventKind::RpcReply {
                from: ClientId(0),
                xid: 9,
                proc: NfsProc::Callback,
                ok: true,
            },
        ),
        (
            10,
            EventKind::CallbackEnd {
                target: ClientId(4),
                fh,
                ok: true,
            },
        ),
        (
            8,
            EventKind::HandlerEnd {
                from: c,
                xid: 9,
                proc: NfsProc::Open,
                ok: true,
            },
        ),
        (
            3,
            EventKind::RpcReply {
                from: c,
                xid: 9,
                proc: NfsProc::Open,
                ok: true,
            },
        ),
        (
            2,
            EventKind::OpenGrant {
                client: c,
                fh,
                version: 5,
                prev_version: 4,
                cache_enabled: false,
                write: true,
            },
        ),
        (2, EventKind::Invalidate { client: c, fh }),
        (
            2,
            EventKind::OpEnd {
                client: c,
                op: "open",
                ok: true,
            },
        ),
        (
            0,
            EventKind::BlockDirty {
                client: c,
                fh,
                blk: 2,
            },
        ),
        (
            0,
            EventKind::CacheRead {
                client: c,
                fh,
                version: 5,
            },
        ),
        (
            0,
            EventKind::WriteCancel {
                client: c,
                fh,
                from_blk: 1,
                blocks: 2,
            },
        ),
        (0, EventKind::FsyncOk { client: c, fh }),
        (0, EventKind::ServerCrash),
        (
            0,
            EventKind::Batch {
                from: c,
                id: 6,
                count: 3,
                reply: false,
            },
        ),
        (
            0,
            EventKind::DelegGrant {
                client: c,
                fh,
                write: true,
            },
        ),
        (0, EventKind::DelegRecall { client: c, fh }),
        (
            0,
            EventKind::DelegReturn {
                client: c,
                fh,
                revoked: true,
            },
        ),
        (
            0,
            EventKind::DelegLocalOpen {
                client: c,
                fh,
                write: false,
            },
        ),
        (
            0,
            EventKind::ShardRoute {
                shard: 2,
                name: NASTY.into(),
                epoch: 1,
            },
        ),
        (
            0,
            EventKind::ShardTxPrepared {
                txid: 8,
                existed: true,
            },
        ),
        (
            0,
            EventKind::ShardTxBegin {
                txid: 8,
                from_shard: 0,
                to_shard: 2,
                from_name: NASTY.into(),
                to_name: "plain".into(),
                link: false,
            },
        ),
        (
            0,
            EventKind::ShardMove {
                from_name: "".into(),
                to_name: NASTY.into(),
                shard: 2,
                epoch: 2,
            },
        ),
        (
            0,
            EventKind::ShardTxEnd {
                txid: 8,
                committed: true,
            },
        ),
    ]
}

/// [`kinds`] as events, numbered from 1, ten microseconds apart.
fn sample() -> Vec<TraceEvent> {
    (1..)
        .zip(kinds())
        .map(|(seq, (parent, kind))| TraceEvent::new(seq, seq * 10, parent, kind))
        .collect()
}

#[test]
fn the_sample_covers_every_variant() {
    let mut seen = [false; VARIANTS];
    for (_, kind) in kinds() {
        seen[variant(&kind)] = true;
    }
    assert_eq!(seen, [true; VARIANTS], "a variant has no sample event");
}

/// Safety net for the schema: every key, its position, every value's
/// rendering and every escape, over every variant. The constant was
/// computed before the exporters became generic; a change to it is a
/// change to the committed trace format.
#[test]
fn jsonl_of_every_variant_is_pinned() {
    let text = to_jsonl(&sample());
    assert_eq!(text.lines().count(), sample().len());
    let mut h = Fnv::EMPTY;
    h.write(text.as_bytes());
    assert_eq!(h.0, 0x2609_31dd_6da2_203a, "{text}");
}

/// DESIGN.md §11 carries a readers' copy of the event table. It went
/// stale once (twenty kinds of thirty-six, one misnamed); now a kind or a
/// JSONL key missing from its row fails here.
#[test]
fn design_md_lists_every_kind_and_key() {
    let design = include_str!("../../../DESIGN.md");
    let section = design
        .split("\n## 11. ")
        .nth(1)
        .and_then(|rest| rest.split("\n## 12. ").next())
        .expect("DESIGN.md has a section 11");
    for e in sample() {
        let name = e.name();
        let row = section
            .lines()
            .find(|l| l.starts_with(&format!("| `{name}` |")))
            .unwrap_or_else(|| panic!("DESIGN.md §11 has no row for `{name}`"));
        e.fields(&mut |key, _| {
            assert!(
                row.contains(&format!("`{key}`")),
                "`{name}` row lacks `{key}`"
            );
        });
    }
}

/// The Chrome export of the sample, which holds the two cases the real
/// traces of `tests/chrome.rs` do not: two RPCs in flight with one xid
/// (client 3's and the server's callback) and a host that appears only
/// in a `fault` row (203, an inter-shard link).
#[test]
fn chrome_rows_of_the_sample_parse_name_every_pid_and_share_no_id() {
    let doc = json::parse(&to_chrome_json(&sample())).expect("the export parses");
    let Some(Value::Arr(rows)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    let text = |row: &Value, key| match row.get(key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("no string {key} in {row:?}: {other:?}"),
    };
    let pids = |ph: &str| -> Vec<String> {
        let mut pids: Vec<String> = rows
            .iter()
            .filter(|r| (text(r, "ph") == "M") == (ph == "M"))
            .map(|r| format!("{:?}", r.get("pid")))
            .collect();
        pids.sort();
        pids.dedup();
        pids
    };
    assert_eq!(pids("M"), pids("events"), "a pid without a process_name");
    assert!(pids("M").contains(&"Some(Num(203.0))".to_string()));
    let mut opened: Vec<(String, String)> = rows
        .iter()
        .filter(|r| text(r, "ph") == "b")
        .map(|r| (text(r, "cat"), text(r, "id")))
        .collect();
    assert_eq!(opened.len(), 7, "six span families, rpc twice");
    opened.sort();
    opened.dedup();
    assert_eq!(opened.len(), 7, "two spans share an id");
    assert_eq!(
        rows.iter().filter(|r| text(r, "ph") == "e").count(),
        7,
        "every span closes"
    );
}
