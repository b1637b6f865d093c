//! Chaos harness: paper workloads under a seeded network-fault schedule.
//!
//! The protocols in the paper were built for a mostly-reliable Ethernet;
//! the interesting bugs only show up when the transport misbehaves. This
//! module runs four scripts ([`CHAOS`]: the Andrew benchmark, two-client
//! write-sharing, a recall-heavy delegation sweep, cross-shard renames)
//! with the [`FaultParams::chaos`] schedule (random drops, duplicates,
//! delays, reply losses) plus a scripted partition/heal cycle, then
//! checks that the system *converged*:
//!
//! * the run terminated, every workload op succeeding: the clients are
//!   hard-mounted (DESIGN.md §20), so an op outlasts a partition rather
//!   than fail, and no script re-issues one,
//! * the causal trace checker found no invariant violations,
//! * the servers' stable file contents are byte-identical to a
//!   fault-free run of the same seed, and
//! * every injected fault is accounted for in the snapshot's `faults`
//!   section (`killed_attempts == retransmit_absorbed +
//!   outstanding_kills`).

use spritely_proto::{default_shard, BLOCK_SIZE};
use spritely_rpcnet::{FaultParams, PartitionDir};
use spritely_sim::SimDuration;

use crate::report;
use crate::run::Run;
use crate::scripts::andrew;
use crate::snapshot::StatsSnapshot;
use crate::testbed::{ShardParams, Testbed, TestbedParams};
use crate::ClientParams;

/// Outcome of one chaos run, with everything a gate needs to decide
/// pass/fail and everything a human needs to see why.
#[derive(Debug, Clone)]
pub struct ChaosVerdict {
    /// Which workload ran.
    pub workload: &'static str,
    /// Digest of the fault-free run's server stable contents.
    pub digest_clean: u64,
    /// Digest of the faulted run's server stable contents.
    pub digest_faulted: u64,
    /// Trace-checker violations in the faulted run.
    pub trace_violations: usize,
    /// The faulted run's statistics; its `faults` section is the fault
    /// accounting.
    pub stats: StatsSnapshot,
    /// How often the faulted run went through what its workload exists
    /// to force — retransmissions absorbed (Andrew), callbacks retried
    /// (write-sharing), delegations recalled, cross-shard operations
    /// coordinated. A schedule that leaves it at 0 proves nothing, and
    /// its gate fails.
    pub forced: u64,
}

impl ChaosVerdict {
    /// Total faults the schedule injected (the run is only interesting
    /// if this is non-zero).
    pub fn injected(&self) -> u64 {
        let kinds = ["drops", "dups", "delays", "reply_losses", "partition_drops"];
        kinds.map(|k| self.fault(k)).iter().sum()
    }

    /// The faulted run's `faults.<key>` counter.
    fn fault(&self, key: &str) -> u64 {
        self.stats.num(&format!("faults.{key}"))
    }

    /// True when the faulted run converged to the fault-free outcome
    /// and the fault accounting balances.
    pub fn converged(&self) -> bool {
        self.digest_clean == self.digest_faulted
            && self.trace_violations == 0
            && self.fault("killed_attempts")
                == self.fault("retransmit_absorbed") + self.fault("outstanding_kills")
    }

    /// Human-readable summary (includes the fault table).
    pub fn report(&self) -> String {
        format!(
            "chaos[{}]: injected={} forced={} digest {}: clean={:016x} faulted={:016x} \
             trace_violations={}\n{}",
            self.workload,
            self.injected(),
            self.forced,
            if self.digest_clean == self.digest_faulted {
                "MATCH"
            } else {
                "MISMATCH"
            },
            self.digest_clean,
            self.digest_faulted,
            self.trace_violations,
            report::fault_table(&[(self.workload, &self.stats)]),
        )
    }
}

/// Runs `script` twice over `base` with the same seed — once fault-free,
/// once traced under [`FaultParams::chaos`] — and holds the second
/// [`Run`] to the first. `forced` reads [`ChaosVerdict::forced`] off the
/// faulted run's snapshot.
fn verdict<T>(
    workload: &'static str,
    seed: u64,
    base: TestbedParams,
    script: impl Fn(TestbedParams) -> Run<T>,
    forced: impl Fn(&StatsSnapshot) -> u64,
) -> ChaosVerdict {
    let clean = script(base).tb;
    let faulted = script(TestbedParams {
        trace: true,
        faults: FaultParams::chaos(seed),
        ..base
    })
    .tb;
    let stats = faulted.stats_snapshot();
    ChaosVerdict {
        workload,
        digest_clean: clean.digest(),
        digest_faulted: faulted.digest(),
        trace_violations: faulted.finish_trace().map_or(0, |t| t.violations.len()),
        forced: forced(&stats),
        stats,
    }
}

/// A chaos workload by ledger key.
pub(crate) type ChaosWorkload = (&'static str, fn() -> ChaosVerdict);

/// The four chaos workloads, each pinned to the seed its convergence
/// argument was checked on.
pub(crate) const CHAOS: [ChaosWorkload; 4] = [
    ("andrew", || chaos_andrew(7)),
    ("sharing", || chaos_write_sharing(11)),
    ("delegation", || chaos_delegation(13)),
    ("shard", || chaos_shard(21)),
];

/// The Andrew benchmark: the retransmission ladder and the
/// duplicate-request cache must absorb every fault of a long,
/// single-client run.
pub fn chaos_andrew(seed: u64) -> ChaosVerdict {
    let snfs = TestbedParams::default();
    verdict(
        "andrew",
        seed,
        snfs,
        |p| andrew(p, seed),
        |s| s.num("faults.retransmit_absorbed"),
    )
}

/// Two-client write-sharing under chaos plus one partition/heal cycle.
///
/// Client B writes the shared file and holds the data dirty (30 s write
/// delay), then B's host is partitioned. Client A opens the file while B
/// is unreachable: the server must *retry* B's write-back callback past
/// the partition instead of declaring B crashed — when the partition
/// heals, B's dirty data reaches the server and A reads it. This is the
/// end-to-end version of the callback-retry bugfix regression.
pub fn chaos_write_sharing(seed: u64) -> ChaosVerdict {
    let slow_writeback = TestbedParams {
        // Keep B's data dirty long enough for the partition to matter.
        client: ClientParams {
            write_delay: SimDuration::from_secs(30),
            ..ClientParams::default()
        },
        ..TestbedParams::default()
    };
    verdict("write-sharing", seed, slow_writeback, write_sharing, |s| {
        s.num("faults.callback_retries")
    })
}

/// Recall-heavy two-client workload under chaos (DESIGN.md §17.2).
///
/// Client A creates a working set of files — earning write delegations
/// — flushes them, and churns them locally; client B then sweeps every
/// file for read, forcing a recall per file over the lossy wire. In the
/// faulted run A's host is additionally partitioned outbound for 7 s at
/// the start of B's first sweep, so recall acks and delegation returns
/// are lost and the server's recall retry loop re-delivers (duplicated
/// recalls hit the client's sequence guard; a holder that cannot return
/// in time is revoked and fenced). After the heal A rewrites one file
/// and B re-reads it, exercising the re-grant path. Convergence means
/// the faulted run still reaches the fault-free server bytes with zero
/// delegation-invariant violations.
pub fn chaos_delegation(seed: u64) -> ChaosVerdict {
    let delegated = TestbedParams {
        delegation: spritely_core::DelegationParams::pipelined(),
        ..TestbedParams::default()
    };
    verdict("delegation", seed, delegated, delegation, |s| {
        s.num("delegation.recalls")
    })
}

/// Cross-shard renames under chaos with a shard partitioned mid-rename
/// (DESIGN.md §18.4).
///
/// Two clients work disjoint name sets over a 4-shard namespace. Client
/// 0's first rename is chosen to cross shards; just before issuing it,
/// the coordinating shard's inter-shard link (fault host `200 + s`) is
/// partitioned for 8 s, so the `tx_prepare` to the destination's owner
/// cannot leave the coordinator. The coordinator must hold the name
/// locked and retry the prepare past the heal — Busy-bouncing concurrent
/// touches of either name, the client's own rename among them once its
/// ladder runs out and its hard mount calls it again — and then drive
/// the commit to completion. Convergence means both runs (fault-free and
/// faulted) reach byte-identical stable state across every shard, with
/// zero trace violations including rule 10's atomicity window.
pub fn chaos_shard(seed: u64) -> ChaosVerdict {
    let sharded = TestbedParams {
        shards: ShardParams::sharded(SHARDS as usize),
        ..TestbedParams::default()
    };
    verdict("shard", seed, sharded, shard_renames, |s| {
        let shard = |i, key| s.num(&format!("shards.per_shard.{i}.{key}"));
        (0..SHARDS)
            .map(|i| shard(i, "cross_renames") + shard(i, "cross_links"))
            .sum()
    })
}

/// Shards [`shard_renames`] runs over.
const SHARDS: u32 = 4;

fn shard_renames(params: TestbedParams) -> Run<()> {
    const FILES: u32 = 3;
    let tb = Testbed::build_with_clients(params, 2);
    let net = tb.net.clone();
    let root = tb.server_fs.root();
    let clients: Vec<_> = (tb.clients.iter())
        .map(|host| host.remote.snfs().expect("SNFS testbed").clone())
        .collect();
    // First name of the form `{prefix}{i}` owned by `shard`.
    let name_on = |shard: u32, prefix: &str| -> String {
        (0u32..)
            .map(|i| format!("{prefix}{i}"))
            .find(|s| default_shard(s, SHARDS) == shard)
            .expect("some index hashes to every shard")
    };
    tb.measure(|c, p| {
        let (client, net) = (clients[c].clone(), net.clone());
        // Disjoint per-client names; every rename crosses shards so the
        // digests converge regardless of client interleaving.
        let pairs: Vec<(String, String)> = (0..FILES)
            .map(|i| {
                let src = format!("c{c}w{i}");
                let s = default_shard(&src, SHARDS);
                let dst = name_on((s + 1) % SHARDS, &format!("c{c}m{i}_"));
                (src, dst)
            })
            .collect();
        // A cross-shard hard link on top of the moved set.
        let ln = name_on(
            (default_shard(&pairs[0].1, SHARDS) + 1) % SHARDS,
            &format!("c{c}ln_"),
        );
        async move {
            let sim = p.sim();
            let fill = |i: usize| [(c as u8) * 16 + i as u8 + 1; BLOCK_SIZE];
            let mut fhs = Vec::new();
            for (i, (src, _)) in pairs.iter().enumerate() {
                let (fh, _) = client.create(root, src).await.expect("create");
                client.open(fh, true).await.expect("open");
                let bytes = fill(i);
                client.write(fh, 0, &bytes).await.expect("write");
                client.fsync(fh).await.expect("fsync");
                client.close(fh, true).await.expect("close");
                fhs.push(fh);
            }
            // Client 0's first rename coordinates from the shard that
            // owns its source name: sever that shard's inter-shard link
            // just before the renames (scripted; consumes no randomness).
            if c == 0 && net.faults_active() {
                net.partition(
                    200 + default_shard(&pairs[0].0, SHARDS),
                    PartitionDir::Both,
                    sim.now() + SimDuration::from_secs(8),
                );
            }
            // A rename whose first call executed (held through the
            // partition by the coordinator) meets `NoEnt` when called
            // again, and a link `Exist`: the client reads both as done.
            for (src, dst) in &pairs {
                client.rename(root, src, root, dst).await.expect("rename");
            }
            client.link(fhs[0], root, &ln).await.expect("link");
            // Read everything back through the new names.
            for (i, (_, dst)) in pairs.iter().enumerate() {
                let (fh, _) = client.lookup(root, dst).await.expect("lookup");
                client.open(fh, false).await.expect("open");
                let (data, _) = client.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
                assert!(
                    data[..] == fill(i),
                    "client {c} reads its own bytes via {dst}"
                );
                client.close(fh, false).await.expect("close");
            }
            // Let delayed writes, commits and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    })
}

/// The recall sweep [`chaos_delegation`] runs: two clients, four files
/// delegated to the first and then read by the second.
pub fn delegation(params: TestbedParams) -> Run<()> {
    const FILES: u64 = 4;
    let tb = Testbed::build_with_clients(params, 2);
    let [a, b] = [0, 1].map(|i| tb.clients[i].remote.snfs().expect("SNFS testbed").clone());
    let (root, net) = (tb.server_fs.root(), tb.net.clone());
    tb.measure(|i, p| {
        let (a, b, net) = (a.clone(), b.clone(), net.clone());
        async move {
            // One script drives both clients in turn, from client 0.
            if i > 0 {
                return;
            }
            let sim = p.sim();
            // A builds its delegated working set. Everything is fsynced:
            // the interesting chaos target is the recall protocol, not
            // dirty-data recovery, and a revoked holder's unflushed
            // writes are legitimately fenced away (§17.3) — which would
            // make the digests diverge by design.
            let mut fhs = Vec::new();
            for i in 0..FILES {
                let name = format!("deleg{i}");
                let (fh, _) = a.create(root, &name).await.expect("create");
                a.open(fh, true).await.expect("open");
                let bytes = [i as u8 + 1; BLOCK_SIZE];
                a.write(fh, 0, &bytes).await.expect("write");
                a.fsync(fh).await.expect("fsync");
                a.close(fh, true).await.expect("close");
                fhs.push(fh);
            }
            // Local churn: re-open/read/close under the delegations.
            for _ in 0..3 {
                for &fh in &fhs {
                    a.open(fh, false).await.expect("open");
                    a.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
                    a.close(fh, false).await.expect("close");
                }
            }
            // A goes mute for 7 s just as B's sweep starts: recall
            // callbacks still reach A, but its acks and returns are
            // lost until the heal (scripted, consumes no randomness).
            if net.faults_active() {
                net.partition(
                    1,
                    PartitionDir::Outbound,
                    sim.now() + SimDuration::from_secs(7),
                );
            }
            // B sweeps the working set: one recall per file.
            for &fh in &fhs {
                b.open(fh, false).await.expect("open");
                b.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
                b.close(fh, false).await.expect("close");
            }
            // After the heal: A rewrites one file (re-earning authority
            // or falling back to RPC if it was fenced), B re-reads it.
            let fh = fhs[0];
            a.open(fh, true).await.expect("open");
            a.write(fh, 0, &[0xAA; BLOCK_SIZE]).await.expect("write");
            a.fsync(fh).await.expect("fsync");
            a.close(fh, true).await.expect("close");
            b.open(fh, false).await.expect("open");
            let (data, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
            assert!(
                data.iter().all(|&x| x == 0xAA),
                "B sees A's post-heal version"
            );
            b.close(fh, false).await.expect("close");
            // Let delayed writes, lazy returns and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    })
}

/// The write-sharing script [`chaos_write_sharing`] runs: one file
/// written by two clients in turn, the second holding its data dirty.
pub fn write_sharing(params: TestbedParams) -> Run<()> {
    let tb = Testbed::build_with_clients(params, 2);
    let [a, b] = [0, 1].map(|i| tb.clients[i].remote.snfs().expect("SNFS testbed").clone());
    let (root, net) = (tb.server_fs.root(), tb.net.clone());
    tb.measure(|i, p| {
        let (a, b, net) = (a.clone(), b.clone(), net.clone());
        async move {
            // One script drives both clients in turn, from client 0.
            if i > 0 {
                return;
            }
            let sim = p.sim();
            // A publishes version 1 of the shared file.
            let (fh, _) = a.create(root, "shared").await.expect("create");
            a.open(fh, true).await.expect("open");
            a.write(fh, 0, &[1u8; 2 * BLOCK_SIZE]).await.expect("write");
            a.fsync(fh).await.expect("fsync");
            a.close(fh, true).await.expect("close");
            // B overwrites it and holds the data dirty (30 s delay).
            b.open(fh, true).await.expect("open");
            b.write(fh, 0, &[2u8; 2 * BLOCK_SIZE]).await.expect("write");
            b.close(fh, true).await.expect("close");
            // Partition B's host for 12 s (faulted run only; scripted
            // partitions consume no randomness).
            if net.faults_active() {
                net.partition(
                    2,
                    PartitionDir::Both,
                    sim.now() + SimDuration::from_secs(12),
                );
            }
            // A reopens while B is unreachable. The server must hold the
            // open and retry B's write-back callback until the partition
            // heals; A's own RPC ladder (≈5 s) is shorter than that, so
            // A's hard mount calls the open again until it goes through.
            let attr = a.open(fh, false).await.expect("open");
            assert_eq!(
                attr.size,
                (2 * BLOCK_SIZE) as u64,
                "A sees B's version after the heal"
            );
            let (data, _) = a.read(fh, 0, (2 * BLOCK_SIZE) as u32).await.expect("read");
            assert!(
                data.iter().all(|&x| x == 2),
                "B's dirty data survived the partition"
            );
            a.close(fh, false).await.expect("close");
            // Let delayed writes and the server update daemon drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    })
}
