//! Trace serialization: JSONL (the byte-stable regression format) and
//! Chrome `trace_event` JSON (loadable in Perfetto / chrome://tracing).
//! Both are generic over the event table ([`TraceEvent::name`],
//! [`TraceEvent::fields`]); the only per-event knowledge here is
//! `lane()`, where the Chrome export draws each kind.

use spritely_metrics::json::Writer;

use crate::{Event, TraceEvent, Val};

fn field(w: &mut Writer, key: &str, v: Val<'_>) {
    w.key(key);
    match v {
        Val::Num(n) => w.num(n),
        Val::Bool(b) => w.bool(b),
        Val::Str(s) => w.str(s),
        Val::Fh(fh) => w.str(fh),
    };
}

/// Serialize a trace as JSON Lines: one event per line, fixed field
/// order, no floats. Identical seeds yield byte-identical output.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut w = Writer::default();
    for e in events {
        w.obj(|w| {
            w.nums(&[
                ("seq", e.seq.into()),
                ("t", e.t_us),
                ("par", e.parent.into()),
            ]);
            w.key("ev").str(e.name());
            e.fields(&mut |k, v| field(w, k, v));
        });
        w.out.push('\n');
    }
    w.out
}

/// Pid used for server-side rows in the Chrome export.
const SERVER_PID: u32 = 0;

/// Where the Chrome export draws one event: the process (machine), the
/// thread within it, and — for the two ends of a span — how.
struct Lane {
    pid: u32,
    tid: u32,
    span: Option<Span>,
}

/// One end of a span. Every span is drawn as an async `b`/`e` pair, not
/// a `B`/`E` duration slice: slices must nest LIFO on their thread, and
/// no lane here can promise that — one client's handlers run
/// concurrently on the server, callbacks to one target and pooled
/// flushes overlap, and a host may run several application processes.
struct Span {
    /// The span family; `cat` of both rows, which also scopes their `id`.
    cat: &'static str,
    /// What a human reads on the slice: the op, the procedure, the disk.
    /// The same text at both ends (viewers match on it).
    name: &'static str,
    open: bool,
    /// With `name`, the `id` that pairs the two ends, unique within
    /// `cat`: the `seq` of the opening event, which the closing event
    /// carries as its `parent` — or, disk requests being emitted
    /// unparented, the disk's own request number.
    key: u64,
}

fn lane(e: &TraceEvent) -> Lane {
    let at = |pid, tid| Lane {
        pid,
        tid,
        span: None,
    };
    let span = |pid, tid, cat, name, (open, key)| Lane {
        pid,
        tid,
        span: Some(Span {
            cat,
            name,
            open,
            key,
        }),
    };
    let (open, close) = ((true, e.seq.into()), (false, e.parent.into()));
    match e.view() {
        Event::Meta { .. } => at(SERVER_PID, 0),
        // Thread 1 of a client: its operations and what they do to the cache.
        Event::OpBegin { client, op, .. } => span(client.0, 1, "op", op.as_str(), open),
        Event::OpEnd { client, op, .. } => span(client.0, 1, "op", op.as_str(), close),
        Event::BlockDirty { client, .. }
        | Event::CacheRead { client, .. }
        | Event::OpenGrant { client, .. }
        | Event::Invalidate { client, .. }
        | Event::WriteCancel { client, .. }
        | Event::FsyncOk { client, .. }
        | Event::DelegLocalOpen { client, .. } => at(client.0, 1),
        // Thread 2: the RPC layer, caller side on the client (pid 0 for
        // server-originated callbacks), arrivals on the server.
        Event::RpcCall { from, proc, .. } => span(from.0, 2, "rpc", proc.name(), open),
        Event::RpcReply { from, proc, .. } => span(from.0, 2, "rpc", proc.name(), close),
        Event::RpcXmit { from, .. } => at(from.0, 2),
        Event::RpcArrive { .. } => at(SERVER_PID, 2),
        // Server threads 100 + c and 200 + c: work for, and callbacks to, client c.
        Event::HandlerBegin { from, proc, .. } => {
            span(SERVER_PID, 100 + from.0, "handler", proc.name(), open)
        }
        Event::HandlerEnd { from, proc, .. } => {
            span(SERVER_PID, 100 + from.0, "handler", proc.name(), close)
        }
        Event::CallbackBegin { target, .. } => {
            span(SERVER_PID, 200 + target.0, "callback", "callback", open)
        }
        Event::CallbackEnd { target, .. } => {
            span(SERVER_PID, 200 + target.0, "callback", "callback", close)
        }
        Event::FlushBegin { client, .. } => span(client.0, 3, "flush", "flush", open),
        Event::FlushEnd { client, .. } => span(client.0, 3, "flush", "flush", close),
        Event::DiskQueue { disk, req, .. } => {
            span(SERVER_PID, 4, "disk", disk.as_str(), (true, req))
        }
        Event::DiskDone { disk, req, .. } => {
            span(SERVER_PID, 4, "disk", disk.as_str(), (false, req))
        }
        Event::SrvCacheRead { .. } => at(SERVER_PID, 5),
        // Thread 6 of the sending host: what went onto its wire.
        Event::NetXmit { host, .. } | Event::Fault { host, .. } => at(host, 6),
        Event::Batch { from, .. } => at(from.0, 6),
        Event::ShardRoute { .. }
        | Event::ShardMove { .. }
        | Event::ShardTxBegin { .. }
        | Event::ShardTxPrepared { .. }
        | Event::ShardTxEnd { .. } => at(SERVER_PID, 7),
        // Any other kind is an instant on the server's state-table thread
        // (transitions, delegation grants and recalls, the crash marker).
        _ => at(SERVER_PID, 1),
    }
}

/// Serialize a trace in the Chrome `trace_event` format. Open
/// `ui.perfetto.dev` and drop the file in. Server-side work appears
/// under pid 0, each client host under its own pid. One row per event,
/// in event order, after one `process_name` row per pid: an instant is
/// named by [`TraceEvent::name`], a span end by its `Span::name`, and
/// every row carries the event's [`TraceEvent::fields`] as `args`.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut pids: Vec<u32> = events.iter().map(|e| lane(e).pid).collect();
    pids.push(SERVER_PID);
    pids.sort_unstable();
    pids.dedup();
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("traceEvents").arr(|w| {
            for pid in pids {
                w.raw("\n").obj(|w| {
                    w.key("ph").str("M");
                    w.nums(&[("pid", pid.into()), ("tid", 0)]);
                    w.key("name").str("process_name");
                    w.key("args").obj(|w| {
                        w.key("name");
                        match pid {
                            SERVER_PID => w.str("server"),
                            _ => w.str(format_args!("client {pid}")),
                        };
                    });
                });
            }
            // One row per line: a break is legal between array elements
            // and keeps a multi-megabyte file greppable.
            for e in events {
                row(w.raw("\n"), e);
            }
        });
    });
    w.out.push('\n');
    w.out
}

fn row(w: &mut Writer, e: &TraceEvent) {
    let Lane { pid, tid, span } = lane(e);
    w.obj(|w| {
        w.nums(&[("pid", pid.into()), ("tid", tid.into()), ("ts", e.t_us)]);
        match span {
            None => {
                w.key("ph").str("i").key("s").str("t");
                w.key("name").str(e.name()).key("cat").str("event");
            }
            Some(s) => {
                w.key("ph").str(if s.open { "b" } else { "e" });
                w.key("id").str(format_args!("{}:{}", s.name, s.key));
                w.key("name").str(s.name).key("cat").str(s.cat);
            }
        }
        w.key("args").obj(|w| e.fields(&mut |k, v| field(w, k, v)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;
    use spritely_proto::{ClientId, FileHandle};

    #[test]
    fn jsonl_is_stable_and_one_line_per_event() {
        let ev = vec![
            TraceEvent::new(
                1,
                5,
                0,
                EventKind::Meta {
                    key: "protocol",
                    value: "snfs".into(),
                },
            ),
            TraceEvent::new(
                2,
                9,
                1,
                EventKind::FsyncOk {
                    client: ClientId(1),
                    fh: FileHandle::new(1, 2, 3),
                },
            ),
        ];
        let s = to_jsonl(&ev);
        assert_eq!(s.lines().count(), 2);
        assert_eq!(s, to_jsonl(&ev), "serialization is a pure function");
        assert!(s.starts_with(r#"{"seq":1,"t":5,"par":0,"ev":"meta""#));
    }

    #[test]
    fn chrome_export_is_json_shaped() {
        let ev = vec![TraceEvent::new(1, 0, 0, EventKind::ServerCrash)];
        let s = to_chrome_json(&ev);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.trim_end().ends_with("]}"));
    }
}
