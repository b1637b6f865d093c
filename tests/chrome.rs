//! The Chrome `trace_event` export, held on two real traces: the traced
//! Andrew run `table_5_2` files and the traced 4-client pipelined run of
//! `server_scaling` (concurrent handlers, callbacks and pooled flushes).

use spritely::harness::compare::{parse_json, Json};
use spritely::harness::{
    run_andrew_with, run_scaling_with, Protocol, ServerIoParams, TestbedParams, TraceReport,
};
use spritely::proto::Fnv;

fn andrew() -> TraceReport {
    let params = TestbedParams {
        protocol: Protocol::Snfs,
        tmp_remote: true,
        trace: true,
        ..TestbedParams::default()
    };
    run_andrew_with(params, 42).trace.expect("traced")
}

fn pipelined_4() -> TraceReport {
    let params = TestbedParams {
        protocol: Protocol::Snfs,
        tmp_remote: true,
        server_io: ServerIoParams::pipelined(),
        trace: true,
        ..TestbedParams::default()
    };
    run_scaling_with(params, 4, 42).trace.expect("traced")
}

fn get<'a>(row: &'a Json, key: &str) -> Option<&'a Json> {
    match row {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(row: &Json, key: &str) -> u64 {
    match get(row, key) {
        Some(Json::Num(n)) => *n as u64,
        other => panic!("row has no numeric {key}: {other:?} in {row:?}"),
    }
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    match get(row, key) {
        Some(Json::Str(s)) => s,
        other => panic!("row has no string {key}: {other:?} in {row:?}"),
    }
}

/// The rows of a Chrome document, metadata (`ph: "M"`) rows apart.
fn rows(chrome: &str) -> (Vec<Json>, Vec<Json>) {
    let doc = parse_json(chrome).expect("the export parses");
    let Some(Json::Arr(all)) = get(&doc, "traceEvents") else {
        panic!("no traceEvents array");
    };
    all.iter().cloned().partition(|r| text(r, "ph") == "M")
}

/// Digest of the sorted `(ts, pid)` of every event row: when and on whose
/// process each event is drawn.
fn placement_digest(events: &[Json]) -> u64 {
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
