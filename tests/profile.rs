//! Causal latency profiler: claim coverage, exact phase accounting,
//! byte-stable artifacts, execution identity, and the regression-diff
//! gate (`spritely compare`).

use spritely::harness::{
    compare_json, scripts, DelegationParams, FaultParams, Protocol, Run, ServerIoParams,
    ShardParams, Testbed, TestbedParams, WriteBehindParams,
};
use spritely::proto::{Fnv, BLOCK_SIZE};
use spritely::rpcnet::PartitionDir;
use spritely::sim::SimDuration;
use spritely::trace::{profile_trace, Event};
use spritely::vfs::OpenFlags;
use spritely::workloads::AndrewTimes;

fn andrew(trace: bool) -> Run<AndrewTimes> {
    let params = TestbedParams {
        trace,
        ..TestbedParams::paper(Protocol::Snfs, true)
    };
    scripts::andrew(params, 42)
}

#[test]
fn every_rpc_claimed_once_and_phases_partition_each_span() {
    let trace = andrew(true).tb.finish_trace().expect("tracing was on");
    let rpc_calls = trace
        .events
        .iter()
        .filter(|e| matches!(e.view(), Event::RpcCall { .. }))
        .count() as u64;
    let p = profile_trace(&trace.events);
    assert_eq!(p.total_rpcs, rpc_calls, "profiler saw every RpcCall");
    assert_eq!(
        p.claims.total(),
        rpc_calls,
        "each RpcCall lands in exactly one claim class: {:?}",
        p.claims
    );
    assert!(p.claims.op > 0, "ops claimed RPCs");
    for op in &p.ops {
        let sum: u64 = op.phase_us.iter().sum();
        assert_eq!(
            sum,
            op.total_us(),
            "span {}@{} does not partition its wall time",
            op.op,
            op.begin_us
        );
    }
    assert!(
        p.attributed_fraction() >= 0.99,
        "Andrew attribution below 99%: {:.4}",
        p.attributed_fraction()
    );
}

/// A delegation recall is a server-originated RPC issued inside the
/// conflicting open's handler, and the return it provokes is a client
/// RPC riding the callback — both are new RPC shapes the delegation
/// subsystem introduced, and the profiler must claim every one of them
/// or the partition invariant (`claims.total() == total_rpcs`) breaks.
#[test]
fn recall_rpcs_are_claimed_by_the_profiler() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            delegation: DelegationParams::pipelined(),
            trace: true,
            ..TestbedParams::default()
        },
        2,
    );
    {
        let p = tb.proc();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/doc", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[7u8; 4 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
        });
        tb.sim.run_until(h);
    }
    {
        // The conflicting open: recalls client 0's write delegation.
        let p = tb.clients[1].proc(&tb.sim);
        let h = tb.sim.spawn(async move {
            let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        });
        tb.sim.run_until(h);
    }
    let server = tb.snfs_server.clone().expect("snfs server");
    assert_eq!(server.delegation_stats().recalls, 1, "a recall happened");
    let trace = tb.finish_trace().expect("tracing on");
    let rpc_calls = trace
        .events
        .iter()
        .filter(|e| matches!(e.view(), Event::RpcCall { .. }))
        .count() as u64;
    let p = profile_trace(&trace.events);
    assert_eq!(p.total_rpcs, rpc_calls, "profiler saw every RpcCall");
    assert_eq!(
        p.claims.total(),
        rpc_calls,
        "each RpcCall — recall callback and delegation return included — \
         lands in exactly one claim class: {:?}",
        p.claims
    );
    assert!(
        p.claims.callback >= 1,
        "the recall was claimed as a handler-issued callback: {:?}",
        p.claims
    );
}

#[test]
fn scaling_run_attribution_is_above_99_percent() {
    let params = TestbedParams {
        server_io: ServerIoParams::pipelined(),
        trace: true,
        ..TestbedParams::paper(Protocol::Snfs, true)
    };
    let run = scripts::scaling(params, 4, 42);
    let trace = run.tb.finish_trace().expect("tracing was on");
    let p = profile_trace(&trace.events);
    assert_eq!(p.claims.total(), p.total_rpcs);
    assert!(
        p.attributed_fraction() >= 0.99,
        "scaling attribution below 99%: {:.4}",
        p.attributed_fraction()
    );
}

#[test]
fn profile_json_is_byte_identical_for_the_same_seed() {
    let profile = || {
        let trace = andrew(true).tb.finish_trace().expect("traced");
        profile_trace(&trace.events)
    };
    let (pa, pb) = (profile(), profile());
    assert_eq!(pa.to_json(), pb.to_json());
}

/// The byte-pinned `baselines/profile_andrew_snfs.json` is a clean
/// one-server run; this is the profile of the shapes it has none of — two
/// shards, delegations recalled by a second client, and a lossy wire that
/// retransmits, duplicates and loses replies — pinned to its digest. The
/// script issues each op once: where an RPC ladder runs out, the client's
/// hard mount calls again.
#[test]
fn sharded_delegated_faulted_profile_is_pinned() {
    const FILES: u64 = 8;
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            shards: ShardParams::sharded(2),
            delegation: DelegationParams::pipelined(),
            faults: FaultParams::chaos(42),
            trace: true,
            ..TestbedParams::default()
        },
        2,
    );
    let a = tb.clients[0].remote.snfs().expect("SNFS testbed").clone();
    let b = tb.clients[1].remote.snfs().expect("SNFS testbed").clone();
    let root = tb.server_fs.root();
    let (sim, net) = (tb.sim.clone(), tb.net.clone());
    let h = tb.sim.spawn(async move {
        // A earns a write delegation per file, on both shards.
        let mut fhs = Vec::new();
        for i in 0..FILES {
            let (fh, _) = a.create(root, &format!("deleg{i}")).await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[i as u8 + 1; BLOCK_SIZE]).await.unwrap();
            a.fsync(fh).await.unwrap();
            a.close(fh, true).await.unwrap();
            fhs.push(fh);
        }
        // A goes mute for 7 s: its keepalives and returns exhaust their
        // ladders (RPCs with no reply), recalls are re-delivered.
        net.partition(
            1,
            PartitionDir::Outbound,
            sim.now() + SimDuration::from_secs(7),
        );
        // B's sweep recalls each one; A then takes the first back.
        for round in 0..2 {
            for &fh in &fhs {
                b.open(fh, false).await.unwrap();
                b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
                b.close(fh, false).await.unwrap();
            }
            a.open(fhs[0], true).await.unwrap();
            a.write(fhs[0], 0, &[0xA0 + round; BLOCK_SIZE])
                .await
                .unwrap();
            a.close(fhs[0], true).await.unwrap();
        }
        sim.sleep(SimDuration::from_secs(70)).await;
    });
    tb.sim.run_until(h);
    let trace = tb.finish_trace().expect("tracing on");
    let count = |f: &dyn Fn(Event) -> bool| trace.events.iter().filter(|e| f(e.view())).count();
    let calls = count(&|k| matches!(k, Event::RpcCall { .. }));
    assert!(
        count(&|k| matches!(k, Event::RpcXmit { .. })) > calls,
        "the wire retransmitted"
    );
    assert!(
        count(&|k| matches!(k, Event::RpcArrive { dup: true, .. })) > 0,
        "the dup cache answered"
    );
    assert!(
        count(&|k| matches!(k, Event::DelegRecall { .. })) > 0,
        "B's sweep recalled A's delegations"
    );
    let p = profile_trace(&trace.events);
    assert_eq!(p.claims.total(), calls as u64);
    assert!(p.claims.incomplete > 0 && p.claims.callback > 0 && p.claims.background > 0);
    let mut digest = Fnv::EMPTY;
    digest.write(p.to_json().as_bytes());
    assert_eq!(
        digest.0,
        0x646f_de7f_d801_b81a,
        "{} events, {} spans, claims {:?}",
        trace.events.len(),
        p.ops.len(),
        p.claims
    );
}

#[test]
fn profiling_is_pure_post_processing() {
    // A traced run (whose snapshot now carries the profile section)
    // must execute identically to the untraced run: tracing and
    // profiling never await, never consume randomness.
    let traced = andrew(true);
    let untraced = andrew(false);
    assert_eq!(traced.first().total(), untraced.first().total());
    assert_eq!(traced.ops_to_now().total(), untraced.ops_to_now().total());
    let (traced, plain) = (traced.tb.stats_snapshot(), untraced.tb.stats_snapshot());
    // The documents differ by the profile section alone: every leaf of
    // the untraced one holds, and every leaf the traced one adds is a
    // profile leaf.
    let diff = compare_json(&plain.to_json(), &traced.to_json(), 0.0).expect("parse");
    assert!(traced.get("profile.spans").is_some());
    assert!(
        diff.diffs
            .iter()
            .all(|d| d.path.starts_with("profile.") && d.a == "-"),
        "snapshots identical once the profile section is removed:\n{}",
        diff.render()
    );
}

#[test]
fn compare_gate_flags_an_injected_regression() {
    let params = TestbedParams {
        update_enabled: false,
        write_behind: WriteBehindParams::pipelined(),
        trace: true,
        ..TestbedParams::default()
    };
    let json = scripts::flush(params, 64).tb.stats_snapshot().to_json();

    // Same document: clean bill of health.
    let same = compare_json(&json, &json, 0.10).expect("parse");
    assert!(same.ok(), "identical snapshots must compare clean");

    // Inject a >= 10% regression into one numeric leaf.
    let key = "\"rpc_total\":";
    let i = json.find(key).expect("snapshot has rpc_total") + key.len();
    let end = i + json[i..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number terminated");
    let v: u64 = json[i..end].parse().expect("numeric rpc_total");
    let bumped = format!("{}{}{}", &json[..i], v * 2, &json[end..]);
    let diff = compare_json(&json, &bumped, 0.10).expect("parse");
    assert!(!diff.ok(), "doubled rpc_total must be flagged");
    assert!(diff.diffs.iter().any(|d| d.path.contains("rpc_total")));
}
