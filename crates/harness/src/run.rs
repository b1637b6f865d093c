//! The one run driver (DESIGN.md §24): the four verbs every experiment
//! is a script on, and [`Run`], what a measured window hands back.
//!
//! The paper's evaluation is one procedure applied to different mounts —
//! build the hosts, populate untimed, start cold, time the workload,
//! count RPCs and server disk writes over that window (§5.1–5.4).
//! [`Testbed::build_with_clients`] is the first step; [`Testbed::together`],
//! [`Testbed::drain`], [`Testbed::cold_boot`] and [`Testbed::measure`]
//! are the rest.

use std::future::Future;

use spritely_blockdev::DiskStats;
use spritely_localfs::LocalFs;
use spritely_metrics::{OpCounts, RateBucket};
use spritely_proto::{FileHandle, FileType, Fnv};
use spritely_sim::{SimDuration, SimTime};
use spritely_vfs::Proc;

use crate::config;
use crate::testbed::Testbed;

/// Two periods of the 30 s update daemons: long enough for every delayed
/// write to have reached the server's disk.
pub const DRAIN: SimDuration = SimDuration::from_secs(65);

/// One measured window: what moved between the marks [`Testbed::measure`]
/// took on either side of it, each client's result, and the testbed
/// itself, for everything that is read on demand afterwards
/// (`tb.stats_snapshot()`, `tb.finish_trace()`, `tb.digest()`,
/// `tb.latency`) or run after the window (a tail, a second window).
pub struct Run<T> {
    /// The testbed the window ran on, as the window left it.
    pub tb: Testbed,
    /// What each client's future returned, in client-index order.
    pub per_client: Vec<T>,
    /// When the window opened.
    pub start: SimTime,
    /// From the common start until the last client finished.
    pub makespan: SimDuration,
    /// Per-procedure RPCs server 0 (and the clients' callback services)
    /// counted during the window.
    pub ops: OpCounts,
    /// RPCs each server served during the window, in shard order.
    pub served: Vec<u64>,
    /// Server 0's disk activity during the window.
    pub server_disk: DiskStats,
    /// Mean per-request queue wait at server 0's disk, in ms.
    pub disk_wait_ms_mean: f64,
    /// Mean per-request arm positioning time at server 0's disk, in ms.
    pub disk_pos_ms_mean: f64,
    /// Mean utilization of server 0's CPU over the makespan.
    pub server_util: f64,
    /// Server 0's block-cache (hits, misses) during the window.
    pub server_cache: (u64, u64),
    /// Writes to client 0's local disk (the "local" cost floor).
    pub client_disk_writes: u64,
    /// Messages the network carried during the window.
    pub messages: u64,
    ops_before: OpCounts,
}

impl<T> Run<T> {
    /// Client 0's result — the only one, for a single-client script.
    pub fn first(&self) -> &T {
        &self.per_client[0]
    }

    /// [`ops`](Self::ops) extended to the present: the window plus
    /// whatever ran on the testbed since (Andrew's write-back tail).
    pub fn ops_to_now(&self) -> OpCounts {
        self.tb.counter.snapshot() - self.ops_before
    }

    /// The per-bucket call counts from the window's start on (the rate
    /// series itself is indexed from t = 0, the utilization samples from
    /// the window).
    pub fn rate_buckets(&self) -> Vec<RateBucket> {
        let skip = (self.start.as_micros() / config::figure_bucket().as_micros()) as usize;
        let buckets = self.tb.rates.buckets();
        buckets.get(skip..).map(<[_]>::to_vec).unwrap_or_default()
    }
}

impl Testbed {
    /// Starts `work(client index, a process on that client)` on every
    /// client at the same simulated instant and runs until each has
    /// finished, in start order; results in client-index order.
    pub fn together<T, Fut>(&self, mut work: impl FnMut(usize, Proc) -> Fut) -> Vec<T>
    where
        T: 'static,
        Fut: Future<Output = T> + 'static,
    {
        let handles: Vec<_> = (self.clients.iter().enumerate())
            .map(|(i, host)| self.sim.spawn(work(i, host.proc(&self.sim))))
            .collect();
        handles.into_iter().map(|h| self.sim.run_until(h)).collect()
    }

    /// Lets `d` pass with no client work; daemons and write-backs run on.
    pub fn idle(&self, d: SimDuration) {
        let sim = self.sim.clone();
        self.sim.block_on(async move { sim.sleep(d).await });
    }

    /// Idles for [`DRAIN`], so set-up's delayed writes are not charged to
    /// the window that follows.
    pub fn drain(&self) {
        self.idle(DRAIN);
    }

    /// Reboots every client's protocol client, one after the other: in the
    /// paper the files a benchmark reads pre-exist at the server, they
    /// were not written moments earlier by the measuring client.
    pub fn cold_boot(&self) {
        for host in &self.clients {
            let remote = host.remote.clone();
            self.sim
                .block_on(async move { remote.cold_boot().await.expect("cold boot") });
        }
    }

    /// The measured window: marks every counter a report reads, runs
    /// `work` on every client [`together`](Self::together), and returns
    /// what moved. Marks are plain reads, so a window costs the
    /// simulation nothing but its futures.
    pub fn measure<T, Fut>(self, work: impl FnMut(usize, Proc) -> Fut) -> Run<T>
    where
        T: 'static,
        Fut: Future<Output = T> + 'static,
    {
        let fs = self.server_fs.clone();
        let disk = fs.disk();
        let served = |tb: &Testbed| -> Vec<u64> {
            let totals = tb.servers.iter().map(|h| h.counter.snapshot().total());
            totals.collect()
        };
        let local_writes = |tb: &Testbed| tb.clients[0].local_fs.disk().stats().writes;
        let start = self.sim.now();
        let ops_before = self.counter.snapshot();
        let served_before = served(&self);
        let disk_before = disk.stats();
        let (wait_mark, pos_mark) = (disk.wait_ms().mark(), disk.pos_ms().mark());
        let busy_before = self.server_cpu.busy_permit_micros();
        let cache_before = fs.cache_stats();
        let local_before = local_writes(&self);
        let messages_before = self.net.messages();
        let per_client = self.together(work);
        let makespan = self.sim.now().duration_since(start);
        let (disk_after, cache_after) = (disk.stats(), fs.cache_stats());
        let server_util = self.server_cpu.utilization_since(start, busy_before);
        Run {
            per_client,
            start,
            makespan,
            ops: self.counter.snapshot() - ops_before,
            served: (served(&self).iter().zip(&served_before))
                .map(|(after, before)| after - before)
                .collect(),
            server_disk: DiskStats {
                reads: disk_after.reads - disk_before.reads,
                writes: disk_after.writes - disk_before.writes,
            },
            disk_wait_ms_mean: disk.wait_ms().mean_since(wait_mark),
            disk_pos_ms_mean: disk.pos_ms().mean_since(pos_mark),
            server_util,
            server_cache: (
                cache_after.0 - cache_before.0,
                cache_after.1 - cache_before.1,
            ),
            client_disk_writes: local_writes(&self) - local_before,
            messages: self.net.messages() - messages_before,
            ops_before,
            tb: self,
        }
    }

    /// Path-ordered FNV-1a digest of every server's *stable* contents
    /// (what survives a crash), folded in shard order: every path, object
    /// type, link target and file body, in sorted traversal order.
    /// Timestamps are excluded — a faulted run takes longer but must
    /// converge to the same bytes.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::EMPTY;
        for host in &self.servers {
            walk(&host.fs, host.fs.root(), "", &mut h);
        }
        h.0
    }
}

fn walk(fs: &LocalFs, dir: FileHandle, path: &str, h: &mut Fnv) {
    let mut entries = fs.readdir(dir).expect("readdir in digest walk");
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    for e in entries {
        let (fh, attr) = fs.lookup(dir, &e.name).expect("lookup in digest walk");
        let p = format!("{path}/{}", e.name);
        h.write(p.as_bytes());
        match attr.ftype {
            FileType::Directory => {
                h.write(b"\0d");
                walk(fs, fh, &p, h);
            }
            FileType::Regular => {
                h.write(b"\0f");
                h.write(&fs.stable_contents(fh).expect("contents in digest walk"));
            }
            FileType::Symlink => {
                h.write(b"\0l");
                h.write(fs.readlink(fh).expect("readlink in digest walk").as_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, TestbedParams};
    use spritely_proto::{NfsProc, BLOCK_SIZE};
    use spritely_vfs::OpenFlags;

    /// Creates `path` and writes one block to it: a handful of RPCs on a
    /// remote mount (lookup, create, write on close), none on a local one.
    async fn touch(p: Proc, path: String) {
        let fd = p.open(&path, OpenFlags::create_write()).await.unwrap();
        p.write(fd, &[7u8; BLOCK_SIZE]).await.unwrap();
        p.close(fd).await.unwrap();
    }

    fn nfs(n_clients: usize) -> Testbed {
        Testbed::build_with_clients(TestbedParams::paper(Protocol::Nfs, false), n_clients)
    }

    #[test]
    fn set_up_rpcs_stay_out_of_the_window() {
        let tb = nfs(2);
        tb.together(|i, p| touch(p, format!("/remote/setup{i}")));
        let (set_up_ops, set_up_messages) = (tb.counter.snapshot(), tb.net.messages());
        assert!(set_up_ops.get(NfsProc::Write) >= 2 && set_up_messages > 0);

        let run = tb.measure(|i, p| touch(p, format!("/remote/window{i}")));
        assert_eq!(run.ops, run.tb.counter.snapshot() - set_up_ops);
        assert_eq!(run.ops.get(NfsProc::Write), 2, "the window's two blocks");
        assert_eq!(run.messages, run.tb.net.messages() - set_up_messages);
        assert_eq!(run.served, [run.ops.total()]);
        // NFS writes through: both phases reached the disk, and the
        // window is charged only its own share.
        let whole_run = run.tb.server_fs.disk().stats().writes;
        let window = run.server_disk.writes;
        assert!(0 < window && window < whole_run, "{window} of {whole_run}");
    }

    #[test]
    fn results_come_back_in_client_order_whoever_finishes_first() {
        let run = nfs(3).measure(|i, p| async move {
            // Client 0 finishes last.
            p.sim().sleep(SimDuration::from_secs(3 - i as u64)).await;
            (i, p.sim().now())
        });
        let (order, finished): (Vec<_>, Vec<_>) = run.per_client.iter().copied().unzip();
        assert_eq!(order, [0, 1, 2]);
        assert!(finished[0] > finished[1] && finished[1] > finished[2]);
        assert_eq!(run.makespan, SimDuration::from_secs(3));
        assert_eq!(run.start + run.makespan, finished[0]);
    }

    #[test]
    fn a_local_testbed_measures_time_but_no_rpcs() {
        let tb = Testbed::build(TestbedParams::paper(Protocol::Local, false));
        let run = tb.measure(|_, p| touch(p, "/remote/f".to_string()));
        assert_eq!((run.ops.total(), run.messages), (0, 0));
        assert_eq!(run.served, [0]);
        assert!(run.makespan > SimDuration::ZERO);
    }

    #[test]
    fn two_windows_on_one_testbed_each_report_their_own_deltas() {
        let first = nfs(1).measure(|_, p| async move {
            touch(p.clone(), "/remote/a".to_string()).await;
            touch(p, "/remote/b".to_string()).await;
        });
        let (first_ops, first_messages, first_end) =
            (first.ops, first.messages, first.start + first.makespan);
        let second = first.tb.measure(|_, p| touch(p, "/remote/c".to_string()));
        assert_eq!(first_ops.get(NfsProc::Write), 2);
        assert_eq!(second.ops.get(NfsProc::Write), 1);
        assert_eq!(second.start, first_end);
        assert_eq!(second.tb.counter.snapshot() - first_ops, second.ops);
        assert_eq!(second.tb.net.messages(), first_messages + second.messages);
    }
}
