//! Experiment harness: topologies, the run driver, the workload scripts
//! and paper-style reports for every table and figure in the paper's
//! evaluation.
//!
//! An experiment is a [`Testbed`] built from [`TestbedParams`], a script
//! from [`scripts`] run on it through the driver's verbs ([`run`]:
//! `together`, `drain`, `cold_boot`, `measure`), and a [`report`] over the
//! [`Run`] that comes back; [`catalog`] defines every experiment once.
//!
//! | Paper artifact | Script | Report |
//! |---|---|---|
//! | Tables 5-1/5-2 (Andrew times, RPCs) | [`scripts::andrew`] | [`report::table_5_1`], [`report::table_5_2`] |
//! | Figures 5-1/5-2 (rates & utilization) | [`scripts::andrew`] | [`report::figure_series`] |
//! | Tables 5-3/5-5 (sort times; 5-5 with `update_enabled = false`) | [`scripts::sort`] | [`report::sort_table`] |
//! | Tables 5-4/5-6 (sort RPCs) | [`scripts::sort`] | [`report::sort_rpc_table`] |
//! | §5.3 micro | [`scripts::reopen`] | [`report::reopen_table`] |
//! | §5.4 temp-file lifetime | [`scripts::temp_lifetime`] | — |
//! | §2.3 server capacity | [`scripts::scaling`], [`scripts::scaling_shards`] | [`report::server_io_table`] |

pub mod catalog;
pub mod compare;
pub mod config;
pub mod oracle;
pub mod report;
pub mod run;
pub mod scripts;
pub mod snapshot;

mod chaosx;
mod matrix;
mod testbed;

pub use chaosx::{chaos_andrew, chaos_delegation, chaos_shard, chaos_write_sharing, ChaosVerdict};
pub use compare::{compare_json, CompareReport};
pub use matrix::run_matrix;
pub use run::{Run, DRAIN};
pub use snapshot::{StatsSnapshot, TraceReport};
pub use spritely_core::{
    DelegationParams, DelegationStats, ServerIoParams, SnfsServerParams, WriteBehindParams,
};
pub use spritely_nfs::ClientParams;
pub use spritely_rpcnet::{FaultParams, PartitionDir, TransportParams, TransportStats};
pub use testbed::{
    ClientHost, Protocol, RemoteClient, ServerHost, ShardHost, ShardParams, Testbed, TestbedParams,
};

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(
            ps.num("transport.batches"),
            0,
            "paper transport never batches"
        );
        assert!(
            xs.num("transport.batches") > 0,
            "pipelined transport batches"
        );
        let messages = |s: &StatsSnapshot| s.num("transport.net_messages");
        assert!(
            messages(&xs) < messages(&ps),
            "batching must shrink wire messages: {} vs {}",
            messages(&xs),
            messages(&ps)
        );
        assert!(xs.num("transport.saved_round_trips") > 0);

        // Piggybacked post-op attributes elide reopen-time probes; the
        // pipelined run therefore executes no *more* RPCs than paper.
        assert!(
            xs.num("transport.attr_elisions") > 0,
            "reopen probes elided"
        );
        assert!(xs.num("rpc_total") <= ps.num("rpc_total"));

        // The causal checker accepts the batched trace (conservation +
        // at-most-once execution hold).
        let report = piped.finish_trace().expect("trace was on");
        assert!(report.ok(), "checker violations: {:?}", report.violations);

        // The table renders both configurations.
        let table = report::transport_table(&[("paper", &ps), ("pipelined", &xs)]);
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
