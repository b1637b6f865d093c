//! Experiment harness: topologies, benchmark runners and paper-style
//! reports for every table and figure in the paper's evaluation.
//!
//! | Paper artifact | Runner | Report |
//! |---|---|---|
//! | Table 5-1 (Andrew times) | [`run_andrew`] | [`report::table_5_1`] |
//! | Table 5-2 (Andrew RPCs) | [`run_andrew`] | [`report::table_5_2`] |
//! | Figure 5-1/5-2 (rates & utilization) | [`run_andrew`] | [`report::figure_series`] |
//! | Table 5-3 (sort times) | [`run_sort_experiment`] | [`report::sort_table`] |
//! | Table 5-4 (sort RPCs) | [`run_sort_experiment`] | [`report::sort_rpc_table`] |
//! | Table 5-5 (infinite write-delay) | [`run_sort_experiment`] with `update_enabled = false` | [`report::sort_table`] |
//! | Table 5-6 (RPCs, update on/off) | [`run_sort_experiment`] | [`report::sort_rpc_table`] |
//! | §5.3 micro | [`run_reopen`] | [`report::reopen_table`] |
//! | temp-lifetime ablation | [`run_temp_lifetime`] | — |

pub mod catalog;
pub mod compare;
pub mod config;
pub mod report;
pub mod snapshot;

mod andrew;
mod chaosx;
mod flushx;
mod matrix;
mod microx;
mod scaling;
mod sortx;
mod testbed;

pub use andrew::{run_andrew, run_andrew_with, AndrewRun};
pub use chaosx::{
    chaos_andrew, chaos_delegation, chaos_shard, chaos_write_sharing, server_digest,
    testbed_digest, ChaosVerdict,
};
pub use compare::{compare_json, CompareOptions, CompareReport};
pub use flushx::{run_flush, run_flush_with, FlushRun};
pub use matrix::{render_matrix, run_matrix, MatrixResult};
pub use microx::{run_reopen, run_temp_lifetime, ReopenRun, TempLifetimeRun};
pub use scaling::{
    run_scaling, run_scaling_shards, run_scaling_with, ScalingRun, ScalingShardsRun,
};
pub use snapshot::{
    ClientSnapshot, DelegationSnapshot, FaultSnapshot, ProfileSnapshot, ServerIoSnapshot,
    ServerSnapshot, ShardSnapshot, ShardsSnapshot, StatsSnapshot, TraceReport, TransportSnapshot,
};
pub use sortx::{run_sort_experiment, run_sort_with, SortRun};
pub use spritely_core::{
    DelegationParams, DelegationStats, ServerIoParams, SnfsServerParams, WriteBehindParams,
};
pub use spritely_rpcnet::{FaultParams, PartitionDir, TransportParams, TransportStats};
pub use testbed::{
    ClientHost, Protocol, RemoteClient, ServerHost, ShardHost, ShardParams, Testbed, TestbedParams,
};

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_proto::NfsProc;

    #[test]
    fn testbed_builds_for_every_protocol() {
        for p in [
            Protocol::Local,
            Protocol::Nfs,
            Protocol::NfsFixed,
            Protocol::Snfs,
            Protocol::SnfsDelayedClose,
        ] {
            let tb = Testbed::build(TestbedParams {
                protocol: p,
                ..TestbedParams::default()
            });
            assert_eq!(tb.clients.len(), 1);
            assert_eq!(tb.endpoint.is_some(), p != Protocol::Local, "{p:?}");
        }
    }

    #[test]
    fn dropping_a_testbed_frees_it() {
        // The daemons never finish and hold the server file system (and
        // the `Sim`); the testbed's `Drop` has to end them.
        for (p, shards) in [(Protocol::Nfs, 1), (Protocol::Snfs, 1), (Protocol::Snfs, 2)] {
            let tb = Testbed::build_with_clients(
                TestbedParams {
                    protocol: p,
                    shards: ShardParams::sharded(shards),
                    ..TestbedParams::default()
                },
                2,
            );
            let fs = tb.server_fs.downgrade();
            let stats = tb.server_fs.clone();
            let proc = tb.proc();
            let sim = tb.sim.clone();
            sim.block_on(async move {
                let fd = proc
                    .open("/remote/src/f", spritely_vfs::OpenFlags::create_write())
                    .await
                    .unwrap();
                proc.write(fd, &[1u8; 4096]).await.unwrap();
                proc.close(fd).await.unwrap();
            });
            drop(tb);
            assert!(
                fs.upgrade().is_some(),
                "{p:?}/{shards}: a clone keeps it alive"
            );
            // A handle cloned out stays readable after the testbed is gone.
            let _ = stats.stats();
            drop(stats);
            assert!(
                fs.upgrade().is_none(),
                "{p:?}/{shards}: server LocalFs leaked"
            );
        }
    }

    #[test]
    fn sort_local_beats_nothing_but_runs() {
        let run = run_sort_experiment(Protocol::Local, 281 * 1024, true);
        assert!(run.elapsed.as_secs_f64() > 0.5);
        assert_eq!(run.ops.total(), 0, "local config makes no RPCs");
    }

    #[test]
    fn sort_snfs_beats_nfs() {
        let nfs = run_sort_experiment(Protocol::Nfs, 281 * 1024, true);
        let snfs = run_sort_experiment(Protocol::Snfs, 281 * 1024, true);
        assert!(
            snfs.elapsed < nfs.elapsed,
            "SNFS {} vs NFS {}",
            snfs.elapsed,
            nfs.elapsed
        );
        assert!(
            snfs.ops.get(NfsProc::Write) < nfs.ops.get(NfsProc::Write),
            "SNFS writes fewer blocks through"
        );
    }

    #[test]
    fn sort_snfs_without_update_writes_almost_nothing() {
        let run = run_sort_experiment(Protocol::Snfs, 281 * 1024, false);
        assert!(
            run.ops.get(NfsProc::Write) <= 2,
            "expected ~0 write RPCs, got {}",
            run.ops.get(NfsProc::Write)
        );
    }

    #[test]
    fn temp_lifetime_below_delay_is_free_on_snfs() {
        let short = run_temp_lifetime(
            Protocol::Snfs,
            64 * 1024,
            spritely_sim::SimDuration::from_secs(5),
        );
        assert_eq!(short.write_rpcs, 0, "short-lived temp never written");
        let long = run_temp_lifetime(
            Protocol::Snfs,
            64 * 1024,
            spritely_sim::SimDuration::from_secs(120),
        );
        assert!(long.write_rpcs > 0, "long-lived temp written back");
        let nfs = run_temp_lifetime(
            Protocol::Nfs,
            64 * 1024,
            spritely_sim::SimDuration::from_secs(5),
        );
        assert!(nfs.write_rpcs >= 16, "NFS always writes through");
    }

    #[test]
    fn reopen_probe_shows_close_bug() {
        let buggy = run_reopen(Protocol::Nfs, true, 256 * 1024);
        let fixed = run_reopen(Protocol::NfsFixed, true, 256 * 1024);
        assert!(buggy.ops.get(NfsProc::Read) > fixed.ops.get(NfsProc::Read));
    }
}

#[cfg(test)]
mod transport_tests {
    use super::*;
    use spritely_vfs::OpenFlags;

    /// Eight concurrent tasks on one NFS client each write a 16-block
    /// file, then reopen and read it back — the multi-process workload
    /// the compound batcher targets.
    fn run_concurrent_workload(transport: TransportParams) -> Testbed {
        let tb = Testbed::build(TestbedParams {
            protocol: Protocol::Nfs,
            transport,
            trace: true,
            ..TestbedParams::default()
        });
        let mut handles = Vec::new();
        for i in 0..8 {
            let p = tb.proc();
            handles.push(tb.sim.spawn(async move {
                let path = format!("/remote/f{i}");
                let fd = p.open(&path, OpenFlags::create_write()).await.unwrap();
                p.write(fd, &[7u8; 16 * 4096]).await.unwrap();
                p.close(fd).await.unwrap();
                let fd = p.open(&path, OpenFlags::read()).await.unwrap();
                while !p.read(fd, 4096).await.unwrap().is_empty() {}
                p.close(fd).await.unwrap();
            }));
        }
        for h in handles {
            tb.sim.run_until(h);
        }
        tb
    }

    #[test]
    fn pipelined_transport_batches_fewer_messages_and_checks_clean() {
        let paper = run_concurrent_workload(TransportParams::paper());
        let piped = run_concurrent_workload(TransportParams::pipelined());

        let ps = paper.stats_snapshot();
        let xs = piped.stats_snapshot();
        assert_eq!(ps.transport.batches, 0, "paper transport never batches");
        assert!(xs.transport.batches > 0, "pipelined transport batches");
        assert!(
            xs.transport.net_messages < ps.transport.net_messages,
            "batching must shrink wire messages: {} vs {}",
            xs.transport.net_messages,
            ps.transport.net_messages
        );
        assert!(xs.transport.saved_round_trips > 0);

        // Piggybacked post-op attributes elide reopen-time probes; the
        // pipelined run therefore executes no *more* RPCs than paper.
        assert!(xs.transport.attr_elisions > 0, "reopen probes elided");
        assert!(xs.rpc_total <= ps.rpc_total);

        // The causal checker accepts the batched trace (conservation +
        // at-most-once execution hold).
        let report = piped.finish_trace().expect("trace was on");
        assert!(report.ok(), "checker violations: {:?}", report.violations);

        // The table renders both configurations.
        let table =
            report::transport_table(&[("paper", &ps.transport), ("pipelined", &xs.transport)]);
        assert!(table.contains("pipelined"));
        assert!(table.contains("Saved/proc"));
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use spritely_proto::NfsProc;
    use spritely_vfs::OpenFlags;

    #[test]
    fn rpc_latency_profile_is_sane() {
        // Writes pay the synchronous disk; lookups are wire-bound. The
        // latency recorder must reflect that ordering.
        let tb = Testbed::build(TestbedParams {
            protocol: Protocol::Nfs,
            ..TestbedParams::default()
        });
        let p = tb.proc();
        let latency = tb.latency.clone();
        let sim = tb.sim.clone();
        let h = sim.spawn(async move {
            let fd = p
                .open("/remote/f", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[1u8; 16 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            let fd = p.open("/remote/f", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        });
        sim.run_until(h);
        assert!(latency.count(NfsProc::Write) >= 16);
        assert!(latency.count(NfsProc::Read) >= 16);
        assert!(latency.count(NfsProc::Lookup) >= 1);
        let w = latency.mean(NfsProc::Write);
        let l = latency.mean(NfsProc::Lookup);
        assert!(w > l * 3, "sync writes ({w}) should dwarf lookups ({l})");
        assert!(latency.percentile(NfsProc::Write, 0.95) >= latency.mean(NfsProc::Write) / 2);
        assert!(latency.max(NfsProc::Write) >= w);
    }
}
