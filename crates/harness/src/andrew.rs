//! Andrew-benchmark experiment runner (Tables 5-1/5-2, Figures 5-1/5-2).

use spritely_blockdev::DiskStats;
use spritely_metrics::{OpCounts, RateBucket};
use spritely_sim::{SimDuration, SimTime};
use spritely_workloads::{AndrewBenchmark, AndrewConfig, AndrewParams, AndrewTimes};

use crate::testbed::{Protocol, Testbed, TestbedParams};

/// Everything measured from one Andrew run.
pub struct AndrewRun {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Was `/usr/tmp` remote-mounted?
    pub tmp_remote: bool,
    /// Per-phase elapsed times (Table 5-1).
    pub times: AndrewTimes,
    /// Per-procedure RPC counts during the benchmark (Table 5-2).
    pub ops: OpCounts,
    /// RPC counts including the post-benchmark write-back tail.
    pub ops_with_tail: OpCounts,
    /// Server disk activity during the benchmark.
    pub server_disk: DiskStats,
    /// Figure series: per-bucket call counts.
    pub rate_buckets: Vec<RateBucket>,
    /// Figure series: per-bucket server CPU utilization.
    pub util_samples: Vec<(SimTime, f64)>,
    /// End-to-end RPC latency per procedure.
    pub latency: spritely_metrics::LatencyStats,
    /// Unified end-of-run statistics snapshot (serializable).
    pub stats: crate::snapshot::StatsSnapshot,
    /// Checked event trace (present when `TestbedParams::trace` was on).
    pub trace: Option<crate::snapshot::TraceReport>,
    /// Path-ordered digest of the server's stable contents after the
    /// write-back tail drained (the chaos harness compares faulted runs
    /// against fault-free ones with this).
    pub server_digest: u64,
}

/// Column label like `"SNFS /tmp-remote"`.
impl AndrewRun {
    /// Column label for tables.
    pub fn label(&self) -> String {
        if self.protocol == Protocol::Local {
            "local".to_string()
        } else if self.tmp_remote {
            format!("{} tmp-rem", self.protocol.label())
        } else {
            format!("{} tmp-loc", self.protocol.label())
        }
    }
}

/// Runs the Andrew benchmark once on a fresh testbed.
///
/// The benchmark proper is timed phase by phase; afterwards the
/// simulation idles another 120 virtual seconds so delayed write-backs
/// drain into the figure series (the paper ran SNFS trials back to back
/// for the same reason, §5.2).
pub fn run_andrew(protocol: Protocol, tmp_remote: bool, seed: u64) -> AndrewRun {
    run_andrew_with(
        TestbedParams {
            protocol,
            tmp_remote,
            ..TestbedParams::default()
        },
        seed,
    )
}

/// [`run_andrew`] with full control of the testbed (for ablations).
pub fn run_andrew_with(params: TestbedParams, seed: u64) -> AndrewRun {
    let protocol = params.protocol;
    let tmp_remote = params.tmp_remote;
    let tb = Testbed::build(params);
    let bench = AndrewBenchmark::new(seed, AndrewParams::default());
    let cfg = AndrewConfig {
        src_base: "/remote/src".to_string(),
        target_base: "/remote/target".to_string(),
        tmp_base: "/usr/tmp".to_string(),
    };
    // Setup (untimed): create the source tree. The benchmark spec is
    // deterministic in the seed, so a second instance is identical.
    {
        let p = tb.proc();
        let cfg_src = cfg.src_base.clone();
        let setup_bench = AndrewBenchmark::new(seed, AndrewParams::default());
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            setup_bench
                .populate_source(&p, &cfg_src)
                .await
                .expect("populate source");
            // Let the setup's delayed writes drain so they are not charged
            // to the measurement window (they belong to setup, not to the
            // benchmark).
            sim.sleep(SimDuration::from_secs(65)).await;
        });
        tb.sim.run_until(h);
        // The benchmark starts from a cold client cache: in the paper the
        // source tree pre-exists at the server, it was not written moments
        // earlier by the measuring client.
        let remote = tb.clients[0].remote.clone();
        tb.sim
            .block_on(async move { remote.cold_boot().await.expect("cold boot") });
    }
    // Measurement window starts here.
    let bench_start = tb.sim.now();
    let ops_before = tb.counter.snapshot();
    let disk_before = tb.server_fs.disk().stats();
    tb.spawn_utilization_sampler();
    let p = tb.proc();
    let cfg2 = cfg.clone();
    let h = tb
        .sim
        .spawn(async move { bench.run(&p, &cfg2).await.expect("benchmark run") });
    let times = tb.sim.run_until(h);
    let ops = tb.counter.snapshot() - ops_before;
    let disk_after = tb.server_fs.disk().stats();
    // Drain the write-back tail for the figures.
    {
        let sim = tb.sim.clone();
        let h = tb
            .sim
            .spawn(async move { sim.sleep(SimDuration::from_secs(120)).await });
        tb.sim.run_until(h);
    }
    let ops_with_tail = tb.counter.snapshot() - ops_before;
    AndrewRun {
        protocol,
        tmp_remote,
        times,
        ops,
        ops_with_tail,
        server_disk: DiskStats {
            reads: disk_after.reads - disk_before.reads,
            writes: disk_after.writes - disk_before.writes,
            bytes_read: disk_after.bytes_read - disk_before.bytes_read,
            bytes_written: disk_after.bytes_written - disk_before.bytes_written,
        },
        rate_buckets: {
            // The rate series is indexed from t = 0; align it with the
            // utilization samples, which start at the benchmark.
            let skip =
                (bench_start.as_micros() / crate::config::figure_bucket().as_micros()) as usize;
            let buckets = tb.rates.buckets();
            buckets.get(skip..).map(<[_]>::to_vec).unwrap_or_default()
        },
        util_samples: tb.util.samples(),
        latency: tb.latency.clone(),
        stats: tb.stats_snapshot(),
        trace: tb.finish_trace(),
        server_digest: crate::chaosx::server_digest(&tb.server_fs),
    }
}
