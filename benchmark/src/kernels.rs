//! Layer kernels: the hot operation of each layer on its own, in host
//! nanoseconds per operation.
//!
//! These are the `*.kernel_*_ns` per-layer metrics. An end-to-end move
//! of `host_run_ms` should be traceable to one of them; a kernel that
//! moves with no end-to-end move is not a gain. Each kernel is sampled
//! five times for `sample_secs` each and the median is reported.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use spritely::blockdev::{Disk, DiskParams, DiskSched};
use spritely::localfs::BlockCache;
use spritely::metrics::OpCounter;
use spritely::proto::{ClientId, FileHandle, NfsReply, NfsRequest, BLOCK_SIZE};
use spritely::rpcnet::{Caller, CallerParams, Endpoint, EndpointParams, NetParams, Network};
use spritely::sim::{yield_now, Resource, Sim, SimDuration, SimRng};
use spritely::snfs::StateTable;
use spritely::trace::{check_trace, profile_trace, EventKind, TraceEvent, Tracer};

use crate::calib::{calibrate, scaled_ms};
use crate::metrics::{median, values, Values};

/// Samples per kernel; the median is reported.
pub const SAMPLES: usize = 5;
/// Kernels [`run`] measures.
pub const KERNELS: usize = 8;

/// Runs `batch` (which performs and returns some number of operations)
/// until `sample_secs` have passed; ns per operation of that sample,
/// scaled to the reference machine like every host-clock number.
fn sample(sample_secs: f64, batch: &mut dyn FnMut() -> u64) -> f64 {
    let budget = Duration::from_secs_f64(sample_secs);
    let before = calibrate();
    let t0 = Instant::now();
    let mut ops = 0;
    while t0.elapsed() < budget {
        ops += batch();
    }
    let elapsed = t0.elapsed();
    scaled_ms(elapsed, &[before, calibrate()]) * 1e6 / ops as f64
}

fn kernel(sample_secs: f64, mut batch: impl FnMut() -> u64) -> f64 {
    batch(); // warm-up: page in, size the tables
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| sample(sample_secs, &mut batch))
        .collect();
    median(&samples)
}

/// Executor: 64 tasks are spawned and each yields 256 times. Per poll.
fn poll_batch() -> u64 {
    let sim = Sim::new();
    for _ in 0..64 {
        sim.spawn(async {
            for _ in 0..256 {
                yield_now().await;
            }
        });
    }
    sim.run_to_quiescence();
    sim.stats().polls
}

/// Timers: 64 staggered tasks run timeouts whose inner sleep always
/// wins, so every iteration registers two timers, fires one and cancels
/// the other. Per timer registered.
fn timer_batch() -> u64 {
    let sim = Sim::new();
    for i in 0..64 {
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(i)).await;
            for _ in 0..128 {
                let inner = s.sleep(SimDuration::from_millis(1));
                let guarded = s.timeout(SimDuration::from_secs(10), inner).await;
                assert!(guarded.is_ok());
            }
        });
    }
    sim.run_to_quiescence();
    sim.stats().timers_registered
}

/// RPC: 8 callers push Null calls through `Caller`, `Network` and
/// `Endpoint` against an instant handler. The dup cache retains entries
/// for one simulated second, so it is both filled and purged. Per call.
fn rpc_batch() -> u64 {
    const CLIENTS: u32 = 8;
    const CALLS: u64 = 512;
    let sim = Sim::new();
    let net = Network::new(&sim, "net", NetParams::ethernet_10mbit());
    let handler = Rc::new(|_from: ClientId, _ctx: u64, _req: NfsRequest| {
        Box::pin(async { NfsReply::Ok })
            as std::pin::Pin<Box<dyn std::future::Future<Output = NfsReply>>>
    });
    let endpoint = Endpoint::new(
        &sim,
        "svc",
        Resource::new(&sim, "server-cpu", 1),
        EndpointParams {
            dup_retention: SimDuration::from_secs(1),
            ..EndpointParams::default()
        },
        OpCounter::new(),
        handler,
    );
    for c in 0..CLIENTS {
        let caller = Caller::new(
            &sim,
            net.clone(),
            endpoint.clone(),
            ClientId(c + 1),
            Resource::new(&sim, "client-cpu", 1),
            // The retransmission ladder must stay inside the retention.
            CallerParams {
                timeout: SimDuration::from_millis(200),
                max_retries: 1,
                ..CallerParams::default()
            },
        );
        sim.spawn(async move {
            for _ in 0..CALLS {
                caller.call(NfsRequest::Null).await.expect("echo");
            }
        });
    }
    sim.run_to_quiescence();
    assert_eq!(endpoint.executions(), u64::from(CLIENTS) * CALLS);
    endpoint.executions()
}

/// State table: 8 clients open and close each of 1000 files, the first
/// for writing, so entries walk through the sharing states. Per
/// transition.
fn transition_batch(table: &mut StateTable) -> u64 {
    const FILES: u64 = 1000;
    const CLIENTS: u32 = 8;
    for f in 0..FILES {
        let fh = FileHandle::new(1, f + 2, 1);
        for c in 0..CLIENTS {
            black_box(table.open(fh, ClientId(c + 1), c == 0));
        }
        for c in 0..CLIENTS {
            black_box(table.close(fh, ClientId(c + 1), c == 0));
        }
    }
    FILES * u64::from(CLIENTS) * 2
}

const CACHE_BLOCKS: u64 = 4096;

fn full_cache() -> BlockCache<(u64, u64)> {
    let mut cache = BlockCache::new(CACHE_BLOCKS as usize);
    for b in 0..CACHE_BLOCKS {
        cache.insert_clean((1, b), vec![0u8; BLOCK_SIZE]);
    }
    cache
}

/// Block cache: every resident block is looked up once. Per hit.
fn cache_get_batch(cache: &mut BlockCache<(u64, u64)>) -> u64 {
    for b in 0..CACHE_BLOCKS {
        black_box(cache.get(&(1, b)));
    }
    CACHE_BLOCKS
}

/// Block cache at capacity: each insert of a new block evicts the
/// least recently used one. Per insert.
fn cache_evict_batch(cache: &mut BlockCache<(u64, u64)>, next: &mut u64) -> u64 {
    const INSERTS: u64 = 256;
    for _ in 0..INSERTS {
        black_box(cache.insert_clean((2, *next), vec![0u8; BLOCK_SIZE]));
        *next += 1;
    }
    INSERTS
}

/// Disk: 32 tasks keep one request each in a C-LOOK queue (the
/// pipelined server's policy) at seeded block addresses. Per request.
fn disk_batch() -> u64 {
    const DEPTH: u64 = 32;
    const REQUESTS: u64 = 64;
    let sim = Sim::new();
    let sched = DiskSched::CLook {
        max_bypass: 4,
        stroke_blocks: 1 << 21,
    };
    let disk = Disk::with_sched(&sim, "disk", DiskParams::ra81(), sched);
    let rng = SimRng::new(7);
    for _ in 0..DEPTH {
        let (disk, rng) = (disk.clone(), rng.fork());
        sim.spawn(async move {
            for _ in 0..REQUESTS {
                disk.read(rng.range_u64(0, 1 << 21), BLOCK_SIZE).await;
            }
        });
    }
    sim.run_to_quiescence();
    assert_eq!(disk.stats().reads, DEPTH * REQUESTS);
    disk.stats().reads
}

/// Tracer: one cache-read event after another into a fresh log. Per
/// event.
fn emit_batch() -> u64 {
    const EVENTS: u64 = 1 << 16;
    let tracer = Tracer::new(&Sim::new());
    let fh = FileHandle::new(1, 2, 1);
    for version in 0..EVENTS {
        tracer.emit(
            0,
            EventKind::CacheRead {
                client: ClientId(1),
                fh,
                version,
            },
        );
    }
    black_box(tracer.len()) as u64
}

/// The eight kernels behind the `*.kernel_*_ns` per-layer metrics.
pub fn run(sample_secs: f64) -> Values {
    let mut table = StateTable::new(usize::MAX);
    let mut cache = full_cache();
    let mut next = 0;
    let measured = values([
        ("sim.kernel_poll_ns", kernel(sample_secs, poll_batch)),
        ("sim.kernel_timer_ns", kernel(sample_secs, timer_batch)),
        ("rpcnet.kernel_rpc_ns", kernel(sample_secs, rpc_batch)),
        (
            "core.kernel_transition_ns",
            kernel(sample_secs, || transition_batch(&mut table)),
        ),
        (
            "localfs.kernel_cache_get_ns",
            kernel(sample_secs, || cache_get_batch(&mut cache)),
        ),
        (
            "localfs.kernel_cache_evict_ns",
            kernel(sample_secs, || cache_evict_batch(&mut cache, &mut next)),
        ),
        (
            "blockdev.kernel_request_ns",
            kernel(sample_secs, disk_batch),
        ),
        ("trace.kernel_emit_ns", kernel(sample_secs, emit_batch)),
    ]);
    assert_eq!(measured.len(), KERNELS, "KERNELS sizes the time budget");
    measured
}

/// `check_trace` and `profile_trace` over a recorded trace (the suite
/// passes `scale16`'s): `(check, profile)` in ns per event.
pub fn trace_passes(sample_secs: f64, events: &[TraceEvent]) -> (f64, f64) {
    let n = events.len() as u64;
    let check = kernel(sample_secs, || {
        black_box(check_trace(black_box(events)));
        n
    });
    let profile = kernel(sample_secs, || {
        black_box(profile_trace(black_box(events)));
        n
    });
    (check, profile)
}
