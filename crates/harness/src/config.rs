//! Calibrated timing constants (DESIGN.md §8).
//!
//! These model the paper's testbed: Titan workstations (≈12–15× a
//! VAX-11/780), RA81/RA82 disks, 10 Mbit/s Ethernet, Sun-RPC/UDP. The
//! absolute values are educated period estimates; what the experiments
//! depend on is their *ratios* — a synchronous 4 KB write RPC costs
//! network (≈3.3 ms) + server CPU (≈0.8 ms) + disk (≈26–30 ms), so
//! write-through dominates elapsed time, while a server-cache read RPC is
//! ≈4–5 ms and a client-cache hit is ≈0.2 ms of CPU.

use spritely_blockdev::DiskParams;
use spritely_core::ServerIoParams;
use spritely_localfs::FsParams;
use spritely_rpcnet::{CallerParams, EndpointParams, NetParams};
use spritely_sim::SimDuration;
use spritely_vfs::SyscallCosts;

/// Client buffer cache: ≈16 MB (paper §5.2) at 4 KB blocks.
pub const CLIENT_CACHE_BLOCKS: usize = 4096;

/// RA81-class server/client disk.
pub fn disk_params() -> DiskParams {
    DiskParams::ra81()
}

/// 10 Mbit/s shared Ethernet.
pub fn net_params() -> NetParams {
    NetParams::ethernet_10mbit()
}

/// Server file system: its cache is `io`'s (paper mode: 896 blocks, the
/// ≈3.5 MB of §5.2).
pub fn server_fs_params(io: &ServerIoParams) -> FsParams {
    FsParams {
        cache_blocks: io.cache_blocks,
    }
}

/// Client local-disk file system.
pub fn client_fs_params() -> FsParams {
    FsParams {
        cache_blocks: CLIENT_CACHE_BLOCKS,
    }
}

/// Server endpoint: per-call CPU dominates (the paper found server load
/// correlated with aggregate call rate, not data rates). The admission
/// width is `io`'s: that many RPCs may overlap CPU with disk waits (paper
/// mode: 4; SNFS needs ≥ 2, §3.2).
pub fn endpoint_params(io: &ServerIoParams) -> EndpointParams {
    EndpointParams {
        threads: io.service_threads,
        cpu_per_call: SimDuration::from_micros(900),
        cpu_per_kb: SimDuration::from_micros(120),
        dup_retention: SimDuration::from_secs(60),
    }
}

/// Client callback-service endpoint (reuses the NFS server code, §4.2.2).
pub fn callback_endpoint_params() -> EndpointParams {
    EndpointParams {
        threads: 2,
        cpu_per_call: SimDuration::from_micros(600),
        cpu_per_kb: SimDuration::from_micros(120),
        dup_retention: SimDuration::from_secs(60),
    }
}

/// RPC caller: 1 s timeout, 4 retransmissions, small marshal cost.
pub fn caller_params() -> CallerParams {
    CallerParams {
        timeout: SimDuration::from_secs(1),
        max_retries: 4,
        cpu_per_call: SimDuration::from_micros(350),
    }
}

/// Per-syscall client CPU.
pub fn syscall_costs() -> SyscallCosts {
    SyscallCosts {
        per_call: SimDuration::from_micros(120),
        per_kb: SimDuration::from_micros(40),
    }
}

/// Utilization/rate sampling bucket for the figures. The paper plots
/// ~10 s resolution over a 600 s axis; our virtual timescale is
/// compressed (the simulated compiler is faster than the 1989 portable
/// compiler), so a 5 s bucket gives a comparable number of points.
pub fn figure_bucket() -> SimDuration {
    SimDuration::from_secs(5)
}
