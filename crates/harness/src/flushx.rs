//! Write-behind flush microbenchmark: how fast can a client push a
//! dirty file back to the server?
//!
//! Dirties a file of `blocks` cache blocks on an SNFS client, then
//! times an `fsync` — the flush travels through the write-behind pool,
//! so this measures the gathering + pipelining win directly (paper-mode
//! defaults reproduce the serial one-block-per-RPC flush).

use spritely_core::WriteBehindParams;
use spritely_proto::{NfsProc, BLOCK_SIZE};
use spritely_sim::SimDuration;
use spritely_vfs::OpenFlags;

use crate::testbed::{Protocol, Testbed, TestbedParams};

/// Result of one flush-latency point.
pub struct FlushRun {
    /// Display label ("paper", "pipelined", ...).
    pub label: &'static str,
    /// Pool configuration used.
    pub write_behind: WriteBehindParams,
    /// Blocks dirtied before the flush.
    pub dirty_blocks: usize,
    /// Simulated time the `fsync` took.
    pub flush_time: SimDuration,
    /// `write` RPCs the flush issued.
    pub write_rpcs: u64,
    /// Mean blocks per write-back RPC (gathering factor).
    pub mean_batch: f64,
    /// Peak concurrent write-back RPCs (pipelining depth).
    pub peak_inflight: u64,
    /// Write-back RPCs that failed (should be 0 here).
    pub writeback_failures: u64,
    /// End-to-end RPC latency per procedure during the run.
    pub latency: spritely_metrics::LatencyStats,
    /// Unified end-of-run statistics snapshot (serializable).
    pub stats: crate::snapshot::StatsSnapshot,
    /// Checked event trace (present when `TestbedParams::trace` was on).
    pub trace: Option<crate::snapshot::TraceReport>,
}

/// Dirties `blocks` blocks of one SNFS file and times the `fsync` that
/// flushes them, under the given write-behind configuration.
pub fn run_flush(label: &'static str, write_behind: WriteBehindParams, blocks: usize) -> FlushRun {
    run_flush_with(
        label,
        TestbedParams {
            protocol: Protocol::Snfs,
            // No update daemons: the fsync is the only flush.
            update_enabled: false,
            write_behind,
            ..TestbedParams::default()
        },
        blocks,
    )
}

/// [`run_flush`] with full control of the testbed (e.g. tracing on).
pub fn run_flush_with(label: &'static str, params: TestbedParams, blocks: usize) -> FlushRun {
    let write_behind = params.write_behind;
    let tb = Testbed::build(params);
    let ops_before = tb.counter.snapshot();
    let p = tb.proc();
    let sim = tb.sim.clone();
    let h = tb.sim.spawn(async move {
        let fd = p
            .open("/remote/flushprobe", OpenFlags::create_write())
            .await
            .expect("create probe file");
        let chunk = vec![0xA5u8; BLOCK_SIZE];
        for i in 0..blocks {
            p.write_at(fd, (i * BLOCK_SIZE) as u64, &chunk)
                .await
                .expect("dirty a block");
        }
        let start = sim.now();
        p.fsync(fd).await.expect("fsync");
        let flush_time = sim.now().saturating_duration_since(start);
        p.close(fd).await.expect("close");
        flush_time
    });
    let flush_time = tb.sim.run_until(h);
    let client = tb.clients[0]
        .remote
        .snfs()
        .expect("flush probe runs over SNFS");
    let ops = tb.counter.snapshot() - ops_before;
    FlushRun {
        label,
        write_behind,
        dirty_blocks: blocks,
        flush_time,
        write_rpcs: ops.get(NfsProc::Write),
        mean_batch: client.gather_histogram().mean(),
        peak_inflight: client.inflight_gauge().peak(),
        writeback_failures: client.stats().writeback_failures,
        latency: tb.latency.clone(),
        stats: tb.stats_snapshot(),
        trace: tb.finish_trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mode_flush_is_serial_one_block_rpcs() {
        let run = run_flush("paper", WriteBehindParams::default(), 16);
        assert_eq!(run.write_rpcs, 16, "one RPC per block");
        assert!((run.mean_batch - 1.0).abs() < 1e-9, "no gathering");
        assert_eq!(run.peak_inflight, 1, "no pipelining");
        assert_eq!(run.writeback_failures, 0);
    }

    #[test]
    fn pipelined_flush_gathers_and_overlaps() {
        let run = run_flush("pipelined", WriteBehindParams::pipelined(), 64);
        assert!(
            run.write_rpcs <= 64 / 8 + 1,
            "gathering collapses RPC count, got {}",
            run.write_rpcs
        );
        assert!(
            run.mean_batch > 4.0,
            "mean batch {} too small",
            run.mean_batch
        );
        assert!(run.peak_inflight >= 2, "no overlap observed");
        assert_eq!(run.writeback_failures, 0);
    }

    #[test]
    fn pipelined_flush_at_least_twice_as_fast() {
        let serial = run_flush("paper", WriteBehindParams::default(), 64);
        let piped = run_flush("pipelined", WriteBehindParams::pipelined(), 64);
        assert!(
            piped.flush_time.as_secs_f64() * 2.0 <= serial.flush_time.as_secs_f64(),
            "pipelined {} vs serial {}",
            piped.flush_time,
            serial.flush_time
        );
    }
}
