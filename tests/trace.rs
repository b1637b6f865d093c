//! The trace subsystem end to end: determinism (same seed ⇒ byte-equal
//! traces), non-interference (tracing must not change results), the
//! invariant checker's teeth (hand-forged bad traces are caught), and a
//! checker pass over the write-behind eviction scenarios.

use spritely::harness::scripts::{andrew, flush, sort};
use spritely::harness::{
    report, ClientParams, Protocol, RemoteClient, Testbed, TestbedParams, TraceReport,
    WriteBehindParams,
};
use spritely::proto::{ClientId, FileHandle, NfsProc, BLOCK_SIZE};
use spritely::snfs::SnfsClient;
use spritely::trace::{Cause, Event, EventKind, FState, TraceEvent};
use spritely::vfs::OpenFlags;

fn traced_params(protocol: Protocol, tmp_remote: bool) -> TestbedParams {
    TestbedParams {
        trace: true,
        ..TestbedParams::paper(protocol, tmp_remote)
    }
}

fn andrew_trace(protocol: Protocol) -> TraceReport {
    let run = andrew(traced_params(protocol, true), 42);
    run.tb.finish_trace().expect("traced")
}

fn snfs_client(tb: &Testbed, i: usize) -> SnfsClient {
    match &tb.clients[i].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected an SNFS client"),
    }
}

#[test]
fn same_seed_andrew_traces_are_byte_identical() {
    let (ta, tb) = (andrew_trace(Protocol::Snfs), andrew_trace(Protocol::Snfs));
    assert!(!ta.events.is_empty(), "trace captured events");
    assert_eq!(
        ta.to_jsonl(),
        tb.to_jsonl(),
        "identical seeds must produce byte-identical traces"
    );
    assert_eq!(ta.to_chrome_json(), tb.to_chrome_json());
}

#[test]
fn full_andrew_trace_has_zero_violations() {
    let trace = andrew_trace(Protocol::Snfs);
    assert!(
        trace.ok(),
        "checker flagged a real run:\n{}",
        report::trace_summary(&trace)
    );
    // The summary must reflect the same verdict.
    assert!(report::trace_summary(&trace).contains("checker: OK"));
}

/// Tracing must be a pure observer: the paper tables rendered from a
/// traced run are byte-identical to the untraced run's. Covers all six
/// `table_5_*` artifacts (5-1/5-2 from Andrew, 5-3/5-4 from the sort
/// with update daemons, 5-5/5-6 with infinite write-delay).
#[test]
fn tracing_does_not_change_any_table() {
    let andrew = |trace| {
        [
            (Protocol::Nfs, false),
            (Protocol::Nfs, true),
            (Protocol::Snfs, false),
            (Protocol::Snfs, true),
        ]
        .map(|(p, tmp)| {
            let params = TestbedParams {
                trace,
                ..TestbedParams::paper(p, tmp)
            };
            andrew(params, 42)
        })
    };
    let (plain, traced) = (andrew(false), andrew(true));
    assert_eq!(report::table_5_1(&plain), report::table_5_1(&traced));
    assert_eq!(report::table_5_2(&plain), report::table_5_2(&traced));

    let sort = |trace, update| {
        [Protocol::Nfs, Protocol::Snfs].map(|p| {
            let params = TestbedParams {
                update_enabled: update,
                trace,
                ..TestbedParams::paper(p, true)
            };
            sort(params, 281 * 1024)
        })
    };
    let sized = |runs: [_; 2]| runs.map(|r| (281 * 1024, r));
    // Tables 5-3/5-4 (update daemons on) and 5-5/5-6 (infinite delay).
    for update in [true, false] {
        let (plain, traced) = (sort(false, update), sort(true, update));
        assert_eq!(
            report::sort_rpc_table(&plain),
            report::sort_rpc_table(&traced)
        );
        assert_eq!(
            report::sort_table(&sized(plain)),
            report::sort_table(&sized(traced))
        );
    }
}

fn ev(seq: u64, kind: EventKind) -> TraceEvent {
    TraceEvent::new(seq, seq * 10, 0, kind)
}

#[test]
fn checker_catches_injected_illegal_transition() {
    let fh = FileHandle::new(1, 10, 0);
    let events = vec![
        ev(
            1,
            EventKind::Transition {
                fh,
                cause: Cause::OpenRead,
                client: ClientId(1),
                from: FState::Closed,
                to: FState::OneReader,
                version: 1,
            },
        ),
        // Forged: a read open cannot take OneReader straight to
        // OneWriter.
        ev(
            2,
            EventKind::Transition {
                fh,
                cause: Cause::OpenRead,
                client: ClientId(2),
                from: FState::OneReader,
                to: FState::OneWriter,
                version: 1,
            },
        ),
    ];
    let report = TraceReport::from_events(events);
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].invariant, "legal-transition");
    assert_eq!(report.violations[0].seq, 2);
}

#[test]
fn checker_catches_transition_from_wrong_tracked_state() {
    let fh = FileHandle::new(1, 11, 0);
    // Claims from=MULT_RDRS but the file was never opened: tracked
    // state is CLOSED, so the continuity check fires.
    let events = vec![ev(
        1,
        EventKind::Transition {
            fh,
            cause: Cause::CloseRead,
            client: ClientId(1),
            from: FState::MultReaders,
            to: FState::OneReader,
            version: 1,
        },
    )];
    let report = TraceReport::from_events(events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "legal-transition" && v.detail.contains("tracked state")),
        "{:?}",
        report.violations
    );
}

#[test]
fn checker_catches_forged_stale_version_read() {
    let fh = FileHandle::new(1, 12, 0);
    let events = vec![
        // c1 granted a cached read at v1.
        ev(
            1,
            EventKind::OpenGrant {
                client: ClientId(1),
                fh,
                version: 1,
                prev_version: 0,
                cache_enabled: true,
                write: false,
            },
        ),
        // c2 then opens for write at v2.
        ev(
            2,
            EventKind::OpenGrant {
                client: ClientId(2),
                fh,
                version: 2,
                prev_version: 1,
                cache_enabled: true,
                write: true,
            },
        ),
        // Forged: c1 serves a cache read at v1, older than the latest
        // open-for-write version v2 — the invalidation was skipped.
        ev(
            3,
            EventKind::CacheRead {
                client: ClientId(1),
                fh,
                version: 1,
            },
        ),
    ];
    let report = TraceReport::from_events(events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "stale-read" && v.seq == 3),
        "{:?}",
        report.violations
    );
}

#[test]
fn checker_catches_flush_of_cancelled_write() {
    let fh = FileHandle::new(1, 13, 0);
    let events = vec![
        ev(
            1,
            EventKind::WriteCancel {
                client: ClientId(1),
                fh,
                from_blk: 0,
                blocks: 4,
            },
        ),
        // Forged: a Write RPC for the removed file after cancellation.
        ev(
            2,
            EventKind::RpcCall {
                from: ClientId(1),
                xid: 7,
                proc: NfsProc::Write,
                fh: Some(fh),
                offset: 0,
                len: BLOCK_SIZE as u64,
            },
        ),
    ];
    let report = TraceReport::from_events(events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "cancelled-write"),
        "{:?}",
        report.violations
    );
}

#[test]
fn checker_catches_fsync_ok_with_unacknowledged_blocks() {
    let fh = FileHandle::new(1, 14, 0);
    let events = vec![
        ev(
            1,
            EventKind::BlockDirty {
                client: ClientId(1),
                fh,
                blk: 0,
            },
        ),
        // Forged: fsync claims success but no Write RPC ever completed.
        ev(
            2,
            EventKind::FsyncOk {
                client: ClientId(1),
                fh,
            },
        ),
    ];
    let report = TraceReport::from_events(events);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "fsync-claims"),
        "{:?}",
        report.violations
    );
}

#[test]
fn pipelined_flush_trace_upholds_all_invariants() {
    let params = TestbedParams {
        update_enabled: false,
        write_behind: WriteBehindParams::pipelined(),
        ..traced_params(Protocol::Snfs, false)
    };
    let trace = flush(params, 64).tb.finish_trace().expect("traced");
    assert!(
        trace.ok(),
        "checker flagged flush run:\n{}",
        report::trace_summary(&trace)
    );
    // The fsync's success claim is backed by checked Write replies.
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e.view(), Event::FsyncOk { .. })));
}

/// Write-behind eviction under a tiny cache, traced and checked: blocks
/// evicted mid-stream are written back before the file is re-read.
#[test]
fn traced_cache_eviction_writebacks_are_clean() {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        update_enabled: false,
        client: ClientParams {
            cache_blocks: 8,
            ..ClientParams::default()
        },
        write_behind: WriteBehindParams::pipelined(),
        trace: true,
        ..TestbedParams::default()
    });
    let p = tb.proc();
    let h = tb.sim.spawn(async move {
        let fd = p
            .open("/remote/evict", OpenFlags::create_write())
            .await
            .unwrap();
        // 4x the cache: most blocks must be evicted (written back).
        let chunk = vec![0x5Au8; BLOCK_SIZE];
        for i in 0..32 {
            p.write_at(fd, (i * BLOCK_SIZE) as u64, &chunk)
                .await
                .unwrap();
        }
        p.close(fd).await.unwrap();
        let fd = p.open("/remote/evict", OpenFlags::read()).await.unwrap();
        let mut total = 0usize;
        loop {
            let data = p.read(fd, BLOCK_SIZE as u32).await.unwrap();
            if data.is_empty() {
                break;
            }
            assert!(data.iter().all(|&b| b == 0x5A));
            total += data.len();
        }
        assert_eq!(total, 32 * BLOCK_SIZE);
        p.close(fd).await.unwrap();
    });
    tb.sim.run_until(h);
    let trace = tb.finish_trace().expect("traced");
    assert!(
        trace.ok(),
        "checker flagged eviction scenario:\n{}",
        report::trace_summary(&trace)
    );
}

/// Removing a file while its evicted blocks are still queued must
/// cancel those write-backs, not flush them (paper §4.4); the checker's
/// cancelled-write invariant watches the trace for exactly that.
#[test]
fn traced_remove_during_eviction_cancels_writebacks() {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        update_enabled: false,
        client: ClientParams {
            cache_blocks: 8,
            ..ClientParams::default()
        },
        trace: true,
        ..TestbedParams::default()
    });
    let client = snfs_client(&tb, 0);
    let p = tb.proc();
    let h = tb.sim.spawn(async move {
        let fd = p
            .open("/remote/doomed", OpenFlags::create_write())
            .await
            .unwrap();
        let chunk = vec![0xEEu8; BLOCK_SIZE];
        for i in 0..16 {
            p.write_at(fd, (i * BLOCK_SIZE) as u64, &chunk)
                .await
                .unwrap();
        }
        p.close(fd).await.unwrap();
        // Remove before the delayed writes age out: every queued block
        // must be cancelled.
        p.unlink("/remote/doomed").await.unwrap();
    });
    tb.sim.run_until(h);
    let trace = tb.finish_trace().expect("traced");
    assert!(
        trace.ok(),
        "checker flagged remove-during-eviction:\n{}",
        report::trace_summary(&trace)
    );
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e.view(), Event::WriteCancel { .. })),
        "removal must cancel the delayed writes"
    );
    assert!(client.stats().cancelled_blocks > 0);
}

#[test]
fn stats_snapshot_serializes_for_both_protocols() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let run = andrew(traced_params(protocol, true), 42);
        let json = run.tb.stats_snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"rpc_total\""));
        assert!(json.contains("\"clients\""));
        if protocol == Protocol::Snfs {
            assert!(json.contains("\"callbacks_sent\""));
        }
    }
}
