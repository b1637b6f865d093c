//! Integration tests for open delegations (DESIGN.md §17): grant,
//! local fast path, recall on conflict, return, and the accounting.

use spritely::harness::{
    report, DelegationParams, Protocol, ServerIoParams, Testbed, TestbedParams, TransportParams,
    WriteBehindParams,
};
use spritely::sim::SimDuration;
use spritely::vfs::OpenFlags;

fn params(d: DelegationParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        transport: TransportParams::pipelined(),
        name_cache: true,
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
