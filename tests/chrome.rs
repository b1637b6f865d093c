//! The Chrome `trace_event` export, held on two real traces: the traced
//! Andrew run `table_5_2` files and the traced 4-client pipelined run the
//! `layers` entry checks as `pipelined_4` (concurrent handlers, callbacks
//! and pooled flushes).

use std::collections::{BTreeSet, HashMap};

use spritely::harness::scripts;
use spritely::harness::{Protocol, ServerIoParams, TestbedParams, TraceReport};
use spritely::metrics::json::{parse, Value};
use spritely::proto::Fnv;
use spritely::trace::Event;

fn andrew() -> TraceReport {
    let params = TestbedParams {
        trace: true,
        ..TestbedParams::paper(Protocol::Snfs, true)
    };
    let run = scripts::andrew(params, 42);
    run.tb.finish_trace().expect("traced")
}

fn pipelined_4() -> TraceReport {
    let params = TestbedParams {
        server_io: ServerIoParams::pipelined(),
        trace: true,
        ..TestbedParams::paper(Protocol::Snfs, true)
    };
    let run = scripts::scaling(params, 4, 42);
    run.tb.finish_trace().expect("traced")
}

fn num(row: &Value, key: &str) -> u64 {
    match row.get(key) {
        Some(Value::Num(n)) => *n as u64,
        other => panic!("row has no numeric {key}: {other:?} in {row:?}"),
    }
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    match row.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("row has no string {key}: {other:?} in {row:?}"),
    }
}

/// The rows of a Chrome document: metadata (`ph: "M"`) rows, then one
/// row per event.
fn rows(chrome: &str) -> (Vec<Value>, Vec<Value>) {
    let doc = parse(chrome).expect("the export parses");
    let Some(Value::Arr(all)) = doc.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    all.iter().cloned().partition(|r| text(r, "ph") == "M")
}

/// Digest of the sorted `(ts, pid)` of every event row: when and on whose
/// process each event is drawn.
fn placement_digest(events: &[Value]) -> u64 {
    let mut at: Vec<(u64, u64)> = events
        .iter()
        .map(|r| (num(r, "ts"), num(r, "pid")))
        .collect();
    at.sort_unstable();
    let mut h = Fnv::EMPTY;
    for (ts, pid) in at {
        h.write(&ts.to_le_bytes());
        h.write(&pid.to_le_bytes());
    }
    h.0
}

/// One row per event, each at the instant and on the process the export
/// has always put it (the constants predate the generic exporter).
#[test]
fn every_event_is_drawn_when_and_where_it_always_was() {
    for (trace, placed) in [
        (andrew(), 0xcbd7_6f22_9cdb_edaf_u64),
        (pipelined_4(), 0x49ed_cc11_3cc9_6fb4),
    ] {
        let (_, events) = rows(&trace.to_chrome_json());
        assert_eq!(events.len(), trace.events.len());
        assert_eq!(placement_digest(&events), placed);
    }
}

/// What a viewer needs to pair spans. Row `i` draws event `i`, and the
/// trace itself says which event opened the span an event closes: its
/// `parent` (for disk requests, which are unparented, the `(disk, req)`
/// both ends carry). A `B`/`E` pair must nest LIFO on its `(pid, tid)`
/// and close the slice its own opener began; an async pair must share an
/// id no other open span is using, and one name; every span opened is
/// closed exactly once; every pid is introduced by a `process_name` row.
#[test]
fn spans_pair_up_and_every_process_is_named() {
    for trace in [andrew(), pipelined_4()] {
        let (meta, events) = rows(&trace.to_chrome_json());
        let named: BTreeSet<u64> = meta
            .iter()
            .filter(|m| text(m, "name") == "process_name")
            .map(|m| num(m, "pid"))
            .collect();
        // Row index of every open span, by what its closing event will
        // name; of the top of every thread; of every async id in use.
        let mut opened: HashMap<String, usize> = HashMap::new();
        let mut stacks: HashMap<(u64, u64), Vec<usize>> = HashMap::new();
        let mut ids: HashMap<(&str, String), usize> = HashMap::new();
        let (mut spans, mut overlap) = (0, 0);
        for (i, (row, e)) in events.iter().zip(trace.events.iter()).enumerate() {
            assert!(named.contains(&num(row, "pid")), "unnamed pid: {row:?}");
            let (own, opener) = match e.view() {
                Event::DiskQueue { disk, req, .. } | Event::DiskDone { disk, req, .. } => {
                    let request = format!("{disk}#{req}");
                    (request.clone(), request)
                }
                _ => (e.seq.to_string(), e.parent.to_string()),
            };
            let lane = (num(row, "pid"), num(row, "tid"));
            match text(row, "ph") {
                "i" => {}
                "B" => {
                    opened.insert(own, i);
                    stacks.entry(lane).or_default().push(i);
                }
                "E" => {
                    let top = stacks.get_mut(&lane).and_then(Vec::pop);
                    assert!(top.is_some(), "{row:?} closes nothing");
                    assert_eq!(top, opened.remove(&opener), "{row:?} mis-nests");
                    spans += 1;
                }
                "b" => {
                    opened.insert(own, i);
                    let id = (text(row, "cat"), format!("{:?}", row.get("id")));
                    assert_eq!(ids.insert(id, i), None, "id in use: {row:?}");
                    overlap = overlap.max(ids.len());
                }
                "e" => {
                    let begun = opened.remove(&opener);
                    assert!(begun.is_some(), "{row:?} closes nothing");
                    let id = (text(row, "cat"), format!("{:?}", row.get("id")));
                    assert_eq!(ids.remove(&id), begun, "{row:?} closes another span");
                    let b = &events[begun.unwrap()];
                    assert_eq!(text(row, "name"), text(b, "name"));
                    spans += 1;
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }
        assert!(opened.is_empty(), "spans never closed: {opened:?}");
        assert!(spans > 1000 && overlap > 1, "the run exercised overlap");
    }
}
