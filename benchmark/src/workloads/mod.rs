//! The five workloads and what they share: the composed stack preset,
//! the set-up idioms of the harness runners (drain, cold boot), and the
//! interface the repetition driver calls them through.
//!
//! The drivers re-use the `spritely_workloads` generators and the public
//! `Testbed`/`Proc` API; they do not call `harness::run_*`, which cannot
//! split set-up from the measured window.

use std::future::Future;

use spritely::harness::{
    DelegationParams, Protocol, RemoteClient, ServerIoParams, ShardParams, Testbed, TestbedParams,
    TransportParams, WriteBehindParams,
};
use spritely::localfs::LocalFs;
use spritely::proto::{FileHandle, Result};
use spritely::sim::SimDuration;
use spritely::vfs::Proc;
use spritely::workloads::{AndrewBenchmark, AndrewConfig, AndrewTimes};

use crate::spans::{SpanId, SpanLog};

mod andrew;
mod fleet;
mod scale16;
mod sharing;
mod sort_nfs;

/// The one stack every workload runs on: all five opt-in layers on
/// (write-behind pool, server I/O pipeline, transport pipeline, open
/// delegations, `shards` servers), `/usr/tmp` on the server, everything
/// else default.
pub fn composed_stack(protocol: Protocol, shards: usize) -> TestbedParams {
    TestbedParams {
        protocol,
        tmp_remote: true,
        write_behind: WriteBehindParams::pipelined(),
        server_io: ServerIoParams::pipelined(),
        transport: TransportParams::pipelined(),
        delegation: DelegationParams::pipelined(),
        shards: ShardParams::sharded(shards),
        ..TestbedParams::default()
    }
}

/// What a workload needs from the repetition it runs in.
pub struct Cx<'a> {
    pub tb: &'a Testbed,
    pub log: &'a SpanLog,
}

/// What a workload's own checks found. Counted, never asserted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Client scripts of a library workload (its unit of "operation";
    /// the scripted workloads count syscalls in the span log instead).
    pub scripts: u64,
    /// Scripts that returned `Err`.
    pub script_failures: u64,
    /// Reads whose bytes were not the bytes written.
    pub wrong_reads: u64,
    /// Reads older than the last write closed before their open returned.
    pub stale_reads: u64,
    /// Files whose stable server contents, after a 65 s drain, differ
    /// from the last closed write.
    pub final_state_mismatches: u64,
}

/// One repetition of one workload. A fresh value is made per
/// repetition, so state may be carried from `setup` to `verify`.
pub trait Workload {
    /// Stack and client count to build.
    fn testbed(&self) -> (TestbedParams, usize);
    /// Everything before the measured window: populate, drain, cold boot.
    fn setup(&mut self, cx: &Cx);
    /// The measured window: start every client, run until the last one
    /// finishes, return each client's simulated completion time.
    fn window(&mut self, cx: &Cx, parent: SpanId) -> Vec<SimDuration>;
    /// After the window (and outside every timed interval): the
    /// workload's correctness checks.
    fn verify(&mut self, cx: &Cx) -> Checks;
    /// Mean per-client Andrew phase times, for the workloads that run
    /// Andrew.
    fn andrew_times(&self) -> Option<AndrewTimes> {
        None
    }
}

pub struct Entry {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Cycles (sub-seeds) the simulated-clock metrics are averaged
    /// over: enough to bring their seed-to-seed spread under a third of
    /// their bounds, few enough to fit in half a run's seconds here.
    pub cycles: usize,
    pub make: fn(u64) -> Box<dyn Workload>,
}

pub const ALL: &[Entry] = &[
    Entry {
        name: "andrew",
        why: "1 SNFS client, Andrew benchmark, cold cache: latency-bound; loads vfs path walks, client cache, delegations, RPC round trips; bypasses disk scheduling, admission, sharding",
        cycles: 48,
        make: |seed| Box::new(andrew::Andrew::new(seed)),
    },
    Entry {
        name: "sort_nfs",
        why: "1 baseline-NFS client, 2816 KB external sort, temp files on the server: write-through, so blockdev and nfs dominate and core does nothing; SNFS-only changes must not move it",
        cycles: 16,
        make: |seed| Box::new(sort_nfs::SortNfs::new(seed)),
    },
    Entry {
        name: "scale16",
        why: "16 diskless SNFS clients on one server, small Andrew each, started together: the contended server; disk queue, server cache, admission width and server CPU decide the makespan",
        cycles: 10,
        make: |seed| Box::new(scale16::Scale16::new(seed)),
    },
    Entry {
        name: "sharing",
        why: "8 SNFS clients sharing 16 files, 25% of opens writing, half the traffic on 2 hot files: the conflict path (callbacks, delegation recalls) where caching and delegations cost; has a data oracle",
        cycles: 12,
        make: |seed| Box::new(sharing::Sharing::new(seed, sharing::Mode::Exclusive)),
    },
    Entry {
        name: "fleet",
        why: "8 shards x 512 SNFS clients, synchronised start, 10% cross-shard subtree renames: metadata overload; loads admission, retransmit, dup cache, ShardCaller, 2PC and the executor (host cost)",
        cycles: 4,
        make: |seed| Box::new(fleet::Fleet::new(seed)),
    },
];

/// Runnable by name, but not part of the benchmark: workloads that fail
/// at the seed commit, kept so a bugfix has something to be judged by.
pub const REPRODUCERS: &[Entry] = &[Entry {
    name: "sharing_overlap",
    why: "sharing with readers overlapping the writer (WRITE_SHARED) and no fsync: returns stale reads and loses closed writes at the seed commit",
    cycles: 12,
        make: |seed| Box::new(sharing::Sharing::new(seed, sharing::Mode::Overlap)),
}];

/// Starts every future at the same simulated instant and runs until the
/// last one finishes; results in start order.
pub fn run_together<T: 'static>(
    tb: &Testbed,
    futs: impl IntoIterator<Item = impl Future<Output = T> + 'static>,
) -> Vec<T> {
    let handles: Vec<_> = futs.into_iter().map(|f| tb.sim.spawn(f)).collect();
    handles.into_iter().map(|h| tb.sim.run_until(h)).collect()
}

/// Lets 65 simulated seconds pass: two periods of the 30 s update
/// daemons, so every delayed write has reached the server's disk.
pub fn drain(tb: &Testbed) {
    let sim = tb.sim.clone();
    tb.sim.block_on(async move {
        sim.sleep(SimDuration::from_secs(65)).await;
    });
}

/// Empties every client's cache, as if the hosts had just booted: the
/// files a window reads pre-exist at the server, they were not written
/// moments earlier by the measuring client.
pub fn cold_boot(tb: &Testbed) {
    for host in &tb.clients {
        match host.remote.clone() {
            RemoteClient::None => {}
            RemoteClient::Nfs(c) => tb.sim.block_on(async move {
                c.cold_boot().await.expect("cold boot");
            }),
            RemoteClient::Snfs(c) => tb.sim.block_on(async move {
                c.cold_boot().await.expect("cold boot");
            }),
        }
    }
}

/// `AndrewBenchmark::run` with a span around each phase.
pub async fn andrew_phases(
    bench: &AndrewBenchmark,
    p: &Proc,
    cfg: &AndrewConfig,
    log: &SpanLog,
    client: u32,
    parent: SpanId,
) -> Result<AndrewTimes> {
    let sim = p.sim().clone();
    let mut marks = [sim.now(); 6];
    macro_rules! phase {
        ($i:expr, $name:expr, $call:ident) => {{
            let _span = log.scope($name, client, parent);
            bench.$call(p, cfg).await?;
            marks[$i] = sim.now();
        }};
    }
    phase!(1, "andrew_makedir", phase_makedir);
    phase!(2, "andrew_copy", phase_copy);
    phase!(3, "andrew_scandir", phase_scandir);
    phase!(4, "andrew_readall", phase_readall);
    phase!(5, "andrew_make", phase_make);
    Ok(AndrewTimes {
        makedir: marks[1].duration_since(marks[0]),
        copy: marks[2].duration_since(marks[1]),
        scandir: marks[3].duration_since(marks[2]),
        readall: marks[4].duration_since(marks[3]),
        make: marks[5].duration_since(marks[4]),
    })
}

/// Mean of per-client phase times.
pub fn mean_times(times: &[AndrewTimes]) -> Option<AndrewTimes> {
    let n = times.len() as u64;
    (n > 0).then(|| AndrewTimes {
        makedir: times.iter().map(|t| t.makedir).sum::<SimDuration>() / n,
        copy: times.iter().map(|t| t.copy).sum::<SimDuration>() / n,
        scandir: times.iter().map(|t| t.scandir).sum::<SimDuration>() / n,
        readall: times.iter().map(|t| t.readall).sum::<SimDuration>() / n,
        make: times.iter().map(|t| t.make).sum::<SimDuration>() / n,
    })
}

/// Files of the Andrew source tree under `src` whose copy under
/// `target` is missing or whose stable bytes on the server differ from
/// the source's — what the Copy phase promised, checked on the disk.
pub fn copy_mismatches(fs: &LocalFs, src: FileHandle, target: FileHandle) -> u64 {
    let differs = |name: &str, a: FileHandle, b: FileHandle| -> Result<bool> {
        let (fa, _) = fs.lookup(a, name)?;
        let (fb, _) = fs.lookup(b, name)?;
        Ok(fs.stable_contents(fa)? != fs.stable_contents(fb)?)
    };
    let mut bad = 0;
    for d in fs.readdir(src).expect("source tree exists") {
        let (sub, _) = fs.lookup(src, &d.name).expect("listed entry resolves");
        let Ok((tsub, _)) = fs.lookup(target, &d.name) else {
            bad += fs.readdir(sub).map_or(1, |files| files.len() as u64);
            continue;
        };
        for f in fs.readdir(sub).expect("source subdirectory") {
            if differs(&f.name, sub, tsub).unwrap_or(true) {
                bad += 1;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The manifest's limits on workloads: 2 to 8, one-line `why`s of at
    /// most 200 characters, names of letters, digits, `_`, `.`, `-`.
    #[test]
    fn entries_fit_the_manifest() {
        assert!((2..=8).contains(&ALL.len()));
        for e in ALL.iter().chain(REPRODUCERS) {
            assert!(e.why.len() <= 200 && !e.why.contains('\n'), "{}", e.name);
            assert!(!e.why.contains('"') && !e.why.contains('\\'), "{}", e.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(e.name.len() <= 64 && e.name.chars().all(ok), "{}", e.name);
            assert!(e.cycles >= 1);
        }
    }
}
