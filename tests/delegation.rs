//! Integration tests for open delegations (DESIGN.md §17): grant,
//! local fast path, recall on conflict, return, and the accounting.

use spritely::harness::{
    report, ClientParams, DelegationParams, Protocol, ServerIoParams, Testbed, TestbedParams,
    TransportParams, WriteBehindParams,
};
use spritely::proto::{NfsProc, BLOCK_SIZE};
use spritely::sim::{SimDuration, SimTime};
use spritely::snfs::delegation::KEEPALIVE_INTERVAL;
use spritely::trace::{Event, TraceEvent};
use spritely::vfs::OpenFlags;

fn params(d: DelegationParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        transport: TransportParams::pipelined(),
        client: ClientParams {
            name_cache: true,
            ..ClientParams::default()
        },
        delegation: d,
        trace: true,
        ..TestbedParams::default()
    }
}

/// Client 0 creates a file (granted a write delegation), client 1 then
/// opens it for read: the server must recall client 0's delegation and
/// apply its return — no revoke — before client 1's open completes.
#[test]
fn conflicting_open_recalls_and_returns() {
    let tb = Testbed::build_with_clients(params(DelegationParams::pipelined()), 2);
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/doc", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[7u8; 4 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            sim.sleep(SimDuration::from_secs(65)).await;
        });
        tb.sim.run_until(h);
    }
    {
        let p = tb.clients[1].proc(&tb.sim);
        let h = tb.sim.spawn(async move {
            let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        });
        tb.sim.run_until(h);
    }
    let snap = tb.stats_snapshot();
    let d = |key: &str| snap.num(&format!("delegation.{key}"));
    assert!(d("grants_write") >= 1, "create grants a write delegation");
    assert_eq!(d("recalls"), 1, "conflicting open recalls it");
    assert_eq!(d("returns"), 1, "holder returns it");
    assert_eq!(d("revokes"), 0, "no revoke on a healthy network");
    let trace = tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}

/// One holder, many concurrent conflicts: client 0 creates eight files
/// (eight write delegations), then five other clients storm all eight
/// concurrently. Every recall must resolve by return — the N−1 callback
/// budget and the per-file locks must not starve any of them into a
/// revoke.
#[test]
fn concurrent_recalls_against_one_holder_all_return() {
    let tb = Testbed::build_with_clients(params(DelegationParams::pipelined()), 6);
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            for f in 0..8 {
                let path = format!("/remote/doc{f}");
                let fd = p.open(&path, OpenFlags::create_write()).await.unwrap();
                p.write(fd, &[7u8; 4 * 4096]).await.unwrap();
                p.close(fd).await.unwrap();
            }
            sim.sleep(SimDuration::from_secs(65)).await;
        });
        tb.sim.run_until(h);
    }
    let mut handles = Vec::new();
    for host in tb.clients.iter().skip(1) {
        let p = host.proc(&tb.sim);
        handles.push(tb.sim.spawn(async move {
            for f in 0..8 {
                let path = format!("/remote/doc{f}");
                let fd = p.open(&path, OpenFlags::read()).await.unwrap();
                while !p.read(fd, 4096).await.unwrap().is_empty() {}
                p.close(fd).await.unwrap();
            }
        }));
    }
    for h in handles {
        tb.sim.run_until(h);
    }
    let snap = tb.stats_snapshot();
    let d = |key: &str| snap.num(&format!("delegation.{key}"));
    assert_eq!(d("recalls"), 8, "one recall per stormed file");
    assert_eq!(d("returns"), 8, "every recall resolves by return");
    assert_eq!(d("revokes"), 0, "no recall may starve into a revoke");
    let trace = tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}

/// A holder that answers its recall keeps its lease. Client 0 holds write
/// delegations on two files with dirty blocks. Client 1 opens the first
/// just before a keepalive tick, so client 0's keepalive reaches the
/// server while the recall is unresolved and is answered `Grace`. Client
/// 0's return renews the lease instead, so the next keepalive finds it
/// fresh: the second file keeps its delegation and dirty block, and its
/// `fsync` is OK. Without the renewal that keepalive came 20 s after the
/// last renewal, past the 15 s lease, and purged the second file.
#[test]
fn a_holder_that_answers_its_recall_keeps_its_lease() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            delegation: DelegationParams::pipelined(),
            // The update daemon must not write the blocks back first.
            client: ClientParams {
                write_delay: SimDuration::from_secs(120),
                ..ClientParams::default()
            },
            trace: true,
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = match (&tb.clients[0].remote.snfs(), &tb.clients[1].remote.snfs()) {
        (Some(a), Some(b)) => ((*a).clone(), (*b).clone()),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            let mut fhs = Vec::new();
            for (name, blocks) in [("recalled", 4), ("kept", 1)] {
                let (fh, _) = a.create(root, name).await.unwrap();
                a.open(fh, true).await.unwrap();
                a.write(fh, 0, &vec![5u8; blocks * BLOCK_SIZE])
                    .await
                    .unwrap();
                a.close(fh, true).await.unwrap();
                fhs.push(fh);
            }
            assert_eq!(a.delegations_held(), 2);
            assert_eq!(a.dirty_blocks(), 5);
            // The recall flushes four blocks; start it 20 ms before a tick.
            let period = KEEPALIVE_INTERVAL.as_micros();
            let tick = (sim.now().as_micros() / period + 1) * period;
            sim.sleep_until(SimTime::from_micros(tick - 20_000)).await;
            b.open(fhs[0], false).await.unwrap();
            b.close(fhs[0], false).await.unwrap();
            // Past the next tick, whose keepalive purged at the parent.
            sim.sleep(KEEPALIVE_INTERVAL + SimDuration::from_secs(2))
                .await;
            assert_eq!(a.delegations_held(), 1, "the lease survived");
            assert_eq!(a.dirty_blocks(), 1, "and the dirty block under it");
            a.fsync(fhs[1]).await
        }
    });
    assert_eq!(sim.run_until(h), Ok(()));
    let trace = tb.finish_trace().expect("tracing on");
    let keepalive_grace = |e: &&TraceEvent| {
        matches!(
            e.view(),
            Event::RpcReply {
                proc: NfsProc::Keepalive,
                ok: false,
                ..
            }
        )
    };
    let withheld = trace.events.iter().filter(keepalive_grace).count();
    assert_eq!(withheld, 1, "one keepalive met the recall's Grace");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}
