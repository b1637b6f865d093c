//! Server-scaling experiment (paper §2.3): "Reducing server writes ...
//! should ... increase the number of clients that can actively use a
//! single server". Sprite measurements suggested ~4× the client capacity
//! of NFS on identical hardware; this experiment measures how makespan
//! and server utilization grow as identical clients are added.

use spritely_metrics::OpCounts;
use spritely_sim::SimDuration;
use spritely_workloads::{AndrewBenchmark, AndrewConfig, AndrewParams};

use crate::testbed::{Protocol, ShardParams, Testbed, TestbedParams};

/// Results of one scaling point.
pub struct ScalingRun {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Number of concurrently active clients.
    pub clients: usize,
    /// Time until the *last* client finished.
    pub makespan: SimDuration,
    /// Mean per-client elapsed time.
    pub mean_client: SimDuration,
    /// Mean server CPU utilization over the makespan.
    pub server_util: f64,
    /// Server disk writes during the run.
    pub disk_writes: u64,
    /// RPC counts during the run.
    pub ops: OpCounts,
    /// Server block-cache (hits, misses) during the run.
    pub server_cache: (u64, u64),
    /// Peak server disk-queue depth (whole run, setup included — the
    /// gauge has no reset).
    pub disk_queue_peak: u64,
    /// Mean per-request disk queue wait during the run, in ms.
    pub disk_wait_ms_mean: f64,
    /// Mean per-request arm positioning time during the run, in ms.
    pub disk_pos_ms_mean: f64,
    /// End-to-end RPC latency per procedure (whole run, setup included —
    /// the recorder has no reset).
    pub latency: spritely_metrics::LatencyStats,
    /// Unified end-of-run statistics snapshot (serializable).
    pub stats: crate::snapshot::StatsSnapshot,
    /// Checked event trace (present when `TestbedParams::trace` was on).
    pub trace: Option<crate::snapshot::TraceReport>,
}

/// A compact per-client workload: a scaled-down Andrew benchmark in a
/// private namespace (every client is a "diskless workstation" with /tmp
/// on the server).
fn small_andrew() -> AndrewParams {
    AndrewParams {
        dirs: 3,
        c_files: 6,
        h_files: 8,
        misc_files: 10,
        total_bytes: 160 * 1024,
        headers_per_compile: 4,
        compile_cpu_per_kb: SimDuration::from_millis(120),
        obj_ratio: 1.2,
        tmp_ratio: 3.0,
    }
}

/// Runs `n_clients` identical workloads concurrently against one server.
pub fn run_scaling(protocol: Protocol, n_clients: usize, seed: u64) -> ScalingRun {
    run_scaling_with(
        TestbedParams {
            protocol,
            tmp_remote: true,
            ..TestbedParams::default()
        },
        n_clients,
        seed,
    )
}

/// [`run_scaling`] with full control of the testbed — used to compare
/// server I/O configurations ([`spritely_core::ServerIoParams`]) at a
/// fixed protocol and client count.
pub fn run_scaling_with(params: TestbedParams, n_clients: usize, seed: u64) -> ScalingRun {
    let protocol = params.protocol;
    let tb = Testbed::build_with_clients(params, n_clients);
    // Setup: per-client namespaces and source trees (untimed).
    {
        let mut handles = Vec::new();
        for (i, host) in tb.clients.iter().enumerate() {
            let p = host.proc(&tb.sim);
            let bench = AndrewBenchmark::new(seed + i as u64, small_andrew());
            handles.push(tb.sim.spawn(async move {
                p.mkdir(&format!("/remote/u{i}"))
                    .await
                    .expect("mk user dir");
                p.mkdir(&format!("/usr/tmp/u{i}"))
                    .await
                    .expect("mk tmp dir");
                bench
                    .populate_source(&p, &format!("/remote/u{i}/src"))
                    .await
                    .expect("populate");
            }));
        }
        for h in handles {
            tb.sim.run_until(h);
        }
        // Drain setup write-backs and start cold.
        let sim = tb.sim.clone();
        let h = tb
            .sim
            .spawn(async move { sim.sleep(SimDuration::from_secs(65)).await });
        tb.sim.run_until(h);
        for host in &tb.clients {
            let remote = host.remote.clone();
            tb.sim
                .block_on(async move { remote.cold_boot().await.expect("cold boot") });
        }
    }
    // Measured run: all clients at once.
    let t0 = tb.sim.now();
    let ops_before = tb.counter.snapshot();
    let disk_before = tb.server_fs.disk().stats().writes;
    let busy_before = tb.server_cpu.busy_permit_micros();
    let cache_before = tb.server_fs.cache_stats();
    let wait_mark = tb.server_fs.disk().wait_ms().mark();
    let pos_mark = tb.server_fs.disk().pos_ms().mark();
    let mut handles = Vec::new();
    for (i, host) in tb.clients.iter().enumerate() {
        let p = host.proc(&tb.sim);
        let bench = AndrewBenchmark::new(seed + i as u64, small_andrew());
        let cfg = AndrewConfig {
            src_base: format!("/remote/u{i}/src"),
            target_base: format!("/remote/u{i}/target"),
            tmp_base: format!("/usr/tmp/u{i}"),
        };
        let sim = tb.sim.clone();
        handles.push(tb.sim.spawn(async move {
            let start = sim.now();
            bench.run(&p, &cfg).await.expect("client workload");
            sim.now().duration_since(start)
        }));
    }
    let mut elapsed: Vec<SimDuration> = Vec::new();
    for h in handles {
        elapsed.push(tb.sim.run_until(h));
    }
    let makespan = tb.sim.now().duration_since(t0);
    let total: SimDuration = elapsed.iter().copied().sum();
    let busy = tb.server_cpu.busy_permit_micros() - busy_before;
    let cache_after = tb.server_fs.cache_stats();
    let disk = tb.server_fs.disk();
    ScalingRun {
        protocol,
        clients: n_clients,
        makespan,
        mean_client: total / n_clients as u64,
        server_util: busy as f64 / makespan.as_micros() as f64,
        disk_writes: disk.stats().writes - disk_before,
        ops: tb.counter.snapshot() - ops_before,
        server_cache: (
            cache_after.0 - cache_before.0,
            cache_after.1 - cache_before.1,
        ),
        disk_queue_peak: disk.queue_depth().peak(),
        disk_wait_ms_mean: disk.wait_ms().mean_since(wait_mark),
        disk_pos_ms_mean: disk.pos_ms().mean_since(pos_mark),
        latency: tb.latency.clone(),
        stats: tb.stats_snapshot(),
        trace: tb.finish_trace(),
    }
}

/// Results of one sharded scaling point (DESIGN.md §18.6).
pub struct ScalingShardsRun {
    /// Number of server shards (1 = the unsharded paper testbed).
    pub shards: usize,
    /// Number of concurrently active clients.
    pub clients: usize,
    /// Time until the last client finished its measured workload.
    pub makespan: SimDuration,
    /// RPCs served across all shards during the measured window.
    pub total_rpcs: u64,
    /// Aggregate served throughput, RPCs per simulated second.
    pub throughput: f64,
    /// RPCs served per shard during the measured window (one entry at
    /// `shards == 1`).
    pub per_shard_rpcs: Vec<u64>,
    /// Peak client block-cache footprint in KiB (0 when unsharded — the
    /// gauge ships with the shards snapshot section).
    pub peak_client_kb: u64,
    /// Unified end-of-run statistics snapshot (serializable).
    pub stats: crate::snapshot::StatsSnapshot,
}

/// Files each client writes, syncs and reads back in the measured phase.
const SHARD_SCALE_FILES: usize = 4;
/// Blocks per file.
const SHARD_SCALE_BLOCKS: usize = 2;

/// Runs the shared-nothing shard-scaling workload: `n_clients` SNFS
/// clients each own a private root-level subtree (`/remote/u{i}`, placed
/// on `default_shard("u{i}", n)`), and concurrently create, sync-write,
/// close, reopen and read back a small set of files there. No client
/// touches another's subtree, so aggregate throughput is bounded only by
/// server-side resources — one CPU and one disk per shard — and should
/// scale with the shard count until the wire saturates.
///
/// Throughput is measured as RPCs served across all shards per simulated
/// second of makespan. `n_shards == 1` builds the unsharded paper
/// testbed, making it the baseline the sharded points are compared
/// against.
pub fn run_scaling_shards(n_shards: usize, n_clients: usize, seed: u64) -> ScalingShardsRun {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            shards: ShardParams::sharded(n_shards),
            ..TestbedParams::default()
        },
        n_clients,
    );
    // Setup (untimed): every client carves out its own root-level
    // subtree; the root name routes it to its owning shard.
    {
        let mut handles = Vec::new();
        for (i, host) in tb.clients.iter().enumerate() {
            let p = host.proc(&tb.sim);
            handles.push(tb.sim.spawn(async move {
                p.mkdir(&format!("/remote/u{i}"))
                    .await
                    .expect("mk user dir");
            }));
        }
        for h in handles {
            tb.sim.run_until(h);
        }
    }
    // Measured run: all clients at once, shared-nothing.
    let t0 = tb.sim.now();
    let served = || {
        tb.servers
            .iter()
            .map(|host| host.counter.snapshot().total())
    };
    let shard_before: Vec<u64> = served().collect();
    let mut handles = Vec::new();
    for (i, host) in tb.clients.iter().enumerate() {
        let p = host.proc(&tb.sim);
        let sim = tb.sim.clone();
        handles.push(tb.sim.spawn(async move {
            // Stagger client starts by 25 ms: a perfectly synchronized
            // 512-client burst drives the transport into congestion
            // collapse (every walk times out, every retry re-offers the
            // full load), which no real fleet exhibits. The ramp is
            // deterministic and identical across shard counts, so the
            // comparison stays fair.
            sim.sleep(SimDuration::from_millis(25 * i as u64)).await;
            // Under heavy contention the transport's retransmission
            // ladder can give up before the server's queue drains; a
            // real client retries the system call, so the workload does
            // too. (Offsets are explicit so a retried write is
            // idempotent.) The backoff is jittered by client index and
            // grows with the attempt count: in a deterministic sim a
            // fixed shared delay keeps the whole herd phase-locked, and
            // the synchronized retry storm never drains.
            let backoff = |attempt: u64| {
                SimDuration::from_millis((50 + (i as u64 * 13) % 250) * attempt.min(48))
            };
            macro_rules! insist {
                ($e:expr) => {{
                    let mut attempt = 0u64;
                    loop {
                        match $e.await {
                            Ok(v) => break v,
                            Err(_) => {
                                attempt += 1;
                                sim.sleep(backoff(attempt)).await;
                            }
                        }
                    }
                }};
            }
            // `Proc::close` tears the fd down before the wire close, so
            // after a transport give-up a retry can only ever see
            // `Inval` — the fd is gone, and either the close executed or
            // the server reconciles the open count through its liveness
            // machinery. Treat that as closed rather than spinning.
            macro_rules! insist_close {
                ($fd:expr) => {{
                    let mut attempt = 0u64;
                    loop {
                        match p.close($fd).await {
                            Ok(()) | Err(spritely_proto::NfsStatus::Inval) => break,
                            Err(_) => {
                                attempt += 1;
                                sim.sleep(backoff(attempt)).await;
                            }
                        }
                    }
                }};
            }
            let fill = (seed as u8).wrapping_add(i as u8).wrapping_add(1);
            for f in 0..SHARD_SCALE_FILES {
                let path = format!("/remote/u{i}/f{f}");
                let fd = insist!(p.open(&path, spritely_vfs::OpenFlags::create_write()));
                let block = vec![fill.wrapping_add(f as u8); spritely_proto::BLOCK_SIZE];
                for b in 0..SHARD_SCALE_BLOCKS {
                    insist!(p.write_at(fd, (b * spritely_proto::BLOCK_SIZE) as u64, &block));
                }
                insist!(p.fsync(fd));
                insist_close!(fd);
                let fd = insist!(p.open(&path, spritely_vfs::OpenFlags::read()));
                let mut off = 0u64;
                loop {
                    let data = insist!(p.read_at(fd, off, spritely_proto::BLOCK_SIZE as u32));
                    if data.is_empty() {
                        break;
                    }
                    off += data.len() as u64;
                }
                insist_close!(fd);
            }
            // A rename inside the subtree: same-shard, no coordination.
            // Not idempotent across calls, so confirm the outcome at the
            // destination before retrying.
            let (from, to) = (format!("/remote/u{i}/f0"), format!("/remote/u{i}/g0"));
            let mut attempt = 0u64;
            loop {
                match p.rename(&from, &to).await {
                    Ok(()) => break,
                    Err(_) => {
                        if p.stat(&to).await.is_ok() {
                            break;
                        }
                        attempt += 1;
                        sim.sleep(backoff(attempt)).await;
                    }
                }
            }
        }));
    }
    for h in handles {
        tb.sim.run_until(h);
    }
    let makespan = tb.sim.now().duration_since(t0);
    let per_shard_rpcs: Vec<u64> = served().zip(&shard_before).map(|(a, b)| a - b).collect();
    let total_rpcs: u64 = per_shard_rpcs.iter().sum();
    let stats = tb.stats_snapshot();
    ScalingShardsRun {
        shards: n_shards,
        clients: n_clients,
        makespan,
        total_rpcs,
        throughput: total_rpcs as f64 / makespan.as_secs_f64(),
        per_shard_rpcs,
        peak_client_kb: stats.shards.as_ref().map_or(0, |s| s.peak_client_kb),
        stats,
    }
}
