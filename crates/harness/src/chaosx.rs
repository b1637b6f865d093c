//! Chaos harness: paper workloads under a seeded network-fault schedule.
//!
//! The protocols in the paper were built for a mostly-reliable Ethernet;
//! the interesting bugs only show up when the transport misbehaves. This
//! module runs the Andrew benchmark and a two-client write-sharing
//! workload with the [`FaultParams::chaos`] schedule (random drops,
//! duplicates, delays, reply losses) plus a scripted partition/heal
//! cycle, then checks that the system *converged*:
//!
//! * the run terminated (every workload op eventually succeeded),
//! * the causal trace checker found no invariant violations,
//! * the server's stable file contents are byte-identical to a
//!   fault-free run of the same seed, and
//! * every injected fault is accounted for in [`FaultSnapshot`]
//!   (`killed_attempts == retransmit_absorbed + outstanding_kills`).

use spritely_localfs::LocalFs;
use spritely_proto::{default_shard, FileHandle, FileType, Fnv};
use spritely_rpcnet::{FaultParams, PartitionDir};
use spritely_sim::SimDuration;

use crate::snapshot::FaultSnapshot;
use crate::testbed::{Protocol, ShardParams, Testbed, TestbedParams};
use crate::{report, run_andrew_with};

/// Every workload op retries until it succeeds, as a hard-mounted 1989
/// client would: under chaos an RPC ladder can exhaust, and during a
/// partition (or a recall that ends in a revoke) calls must fail for a
/// while before succeeding.
macro_rules! insist {
    ($sim:ident, $e:expr) => {{
        loop {
            match $e.await {
                Ok(v) => break v,
                Err(_) => $sim.sleep(SimDuration::from_millis(500)).await,
            }
        }
    }};
}

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
    /// Fault accounting of the faulted run.
    pub faults: FaultSnapshot,
}

impl ChaosVerdict {
    /// Total faults the schedule injected (the run is only interesting
    /// if this is non-zero).
    pub fn injected(&self) -> u64 {
        let f = &self.faults.net;
        f.drops + f.dups + f.delays + f.reply_losses + f.partition_drops
    }

    /// True when the faulted run converged to the fault-free outcome
    /// and the fault accounting balances.
    pub fn converged(&self) -> bool {
        let f = &self.faults.net;
        self.digest_clean == self.digest_faulted
            && self.trace_violations == 0
            && f.killed_attempts == f.retransmit_absorbed + f.outstanding_kills
    }

    /// Human-readable summary (includes the fault table).
    pub fn report(&self) -> String {
        format!(
            "chaos[{}]: injected={} digest {}: clean={:016x} faulted={:016x} \
             trace_violations={}\n{}",
            self.workload,
            self.injected(),
            if self.digest_clean == self.digest_faulted {
                "MATCH"
            } else {
                "MISMATCH"
            },
            self.digest_clean,
            self.digest_faulted,
            self.trace_violations,
            report::fault_table(&[(self.workload, &self.faults)]),
        )
    }
}

/// Digest of a whole testbed's stable server contents: every server's
/// store folded together in shard order (DESIGN.md §18).
pub fn testbed_digest(tb: &Testbed) -> u64 {
    let mut h = Fnv::EMPTY;
    for host in &tb.servers {
        h.write(&server_digest(&host.fs).to_le_bytes());
    }
    h.0
}

/// Path-ordered FNV-1a digest of a file system's *stable* contents
/// (what survives a crash): every path, object type, link target and
/// file body, in sorted traversal order. Timestamps are excluded — a
/// faulted run takes longer but must converge to the same bytes.
pub fn server_digest(fs: &LocalFs) -> u64 {
    let mut h = Fnv::EMPTY;
    walk(fs, fs.root(), "", &mut h);
    h.0
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

/// `base` as the clean or the faulted pass of a chaos pair runs it: the
/// faulted pass is traced and runs under [`FaultParams::chaos`].
fn chaos_params(base: TestbedParams, seed: u64, faulted: bool) -> TestbedParams {
    TestbedParams {
        trace: faulted,
        faults: if faulted {
            FaultParams::chaos(seed)
        } else {
            FaultParams::default()
        },
        ..base
    }
}

/// What one pass of a chaos pair leaves for the verdict.
struct Pass {
    digest: u64,
    violations: usize,
    faults: Option<FaultSnapshot>,
    /// Workload-specific interestingness counter the caller gates on:
    /// delegation recalls for the delegation workload, coordinated
    /// cross-shard ops for the shard workload, 0 elsewhere.
    gate_ops: u64,
}

impl Pass {
    fn of(tb: &Testbed, digest: u64, gate_ops: u64) -> Pass {
        let snap = tb.stats_snapshot();
        Pass {
            digest,
            violations: tb.finish_trace().map_or(0, |t| t.violations.len()),
            faults: snap.faults,
            gate_ops,
        }
    }
}

/// The verdict on one workload from its fault-free and its faulted pass.
fn verdict(workload: &'static str, clean: Pass, faulted: Pass) -> ChaosVerdict {
    ChaosVerdict {
        workload,
        digest_clean: clean.digest,
        digest_faulted: faulted.digest,
        trace_violations: faulted.violations,
        faults: faulted.faults.expect("faulted run has fault stats"),
    }
}

/// Runs the Andrew benchmark twice with the same seed — once fault-free,
/// once under [`FaultParams::chaos`] — and compares outcomes.
pub fn chaos_andrew(seed: u64) -> ChaosVerdict {
    let pass = |faulted| {
        let snfs = TestbedParams {
            protocol: Protocol::Snfs,
            ..TestbedParams::default()
        };
        let run = run_andrew_with(chaos_params(snfs, seed, faulted), seed);
        Pass {
            digest: run.server_digest,
            violations: run.trace.map_or(0, |t| t.violations.len()),
            faults: run.stats.faults,
            gate_ops: 0,
        }
    };
    verdict("andrew", pass(false), pass(true))
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
    verdict(
        "write-sharing",
        run_write_sharing(seed, false),
        run_write_sharing(seed, true),
    )
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
    let faulted = run_delegation(seed, true);
    assert!(
        faulted.gate_ops >= 1,
        "the sweep must force at least one recall"
    );
    verdict("delegation", run_delegation(seed, false), faulted)
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
/// touches of either name, absorbing the client's re-issued rename via
/// the duplicate-request cache — and then drive the commit to
/// completion. Convergence means both runs (fault-free and faulted)
/// reach byte-identical stable state across every shard, with zero
/// trace violations including rule 10's atomicity window.
pub fn chaos_shard(seed: u64) -> ChaosVerdict {
    let faulted = run_shard_chaos(seed, true);
    assert!(
        faulted.gate_ops >= 1,
        "the workload must coordinate at least one cross-shard rename"
    );
    verdict("shard", run_shard_chaos(seed, false), faulted)
}

fn run_shard_chaos(seed: u64, faulted: bool) -> Pass {
    const N_SHARDS: u32 = 4;
    const FILES: u32 = 3;
    let sharded = TestbedParams {
        protocol: Protocol::Snfs,
        shards: ShardParams::sharded(N_SHARDS as usize),
        ..TestbedParams::default()
    };
    let tb = Testbed::build_with_clients(chaos_params(sharded, seed, faulted), 2);
    let sim = tb.sim.clone();
    let net = tb.net.clone();
    let root = tb.server_fs.root();
    // First name of the form `{prefix}{i}` owned by `shard`.
    let name_on = |shard: u32, prefix: &str| -> String {
        (0u32..)
            .map(|i| format!("{prefix}{i}"))
            .find(|s| default_shard(s, N_SHARDS) == shard)
            .expect("some index hashes to every shard")
    };
    let mut handles = Vec::new();
    for c in 0..2u32 {
        let client = tb.clients[c as usize]
            .remote
            .snfs()
            .expect("SNFS testbed")
            .clone();
        // Disjoint per-client names; every rename crosses shards so the
        // digests converge regardless of client interleaving.
        let pairs: Vec<(String, String)> = (0..FILES)
            .map(|i| {
                let src = format!("c{c}w{i}");
                let s = default_shard(&src, N_SHARDS);
                let dst = name_on((s + 1) % N_SHARDS, &format!("c{c}m{i}_"));
                (src, dst)
            })
            .collect();
        // Client 0's first rename coordinates from this shard; its
        // inter-shard link is what the partition severs.
        let coord = default_shard(&pairs[0].0, N_SHARDS);
        let sim = sim.clone();
        let net = net.clone();
        handles.push(tb.sim.spawn(async move {
            use spritely_proto::BLOCK_SIZE;
            let mut fhs = Vec::new();
            for (i, (src, _)) in pairs.iter().enumerate() {
                let (fh, _) = insist!(sim, client.create(root, src));
                insist!(sim, client.open(fh, true));
                insist!(
                    sim,
                    client.write(fh, 0, &[(c as u8) * 16 + i as u8 + 1; BLOCK_SIZE])
                );
                insist!(sim, client.fsync(fh));
                insist!(sim, client.close(fh, true));
                fhs.push(fh);
            }
            // Sever the coordinator's inter-shard link just before the
            // cross-shard renames (scripted; consumes no randomness).
            if c == 0 && net.faults_active() {
                net.partition(
                    200 + coord,
                    PartitionDir::Both,
                    sim.now() + SimDuration::from_secs(8),
                );
            }
            for (src, dst) in &pairs {
                // A rename is not idempotent across calls: a re-issued
                // rename whose first call executed (held through the
                // partition by the coordinator) sees NoEnt. Confirm the
                // outcome by resolving the destination.
                loop {
                    match client.rename(root, src, root, dst).await {
                        Ok(()) => break,
                        Err(_) => {
                            if client.lookup(root, dst).await.is_ok() {
                                break;
                            }
                            sim.sleep(SimDuration::from_millis(500)).await;
                        }
                    }
                }
            }
            // A cross-shard hard link on top of the moved set.
            let ln = name_on(
                (default_shard(&pairs[0].1, N_SHARDS) + 1) % N_SHARDS,
                &format!("c{c}ln_"),
            );
            loop {
                match client.link(fhs[0], root, &ln).await {
                    Ok(_) => break,
                    Err(spritely_proto::NfsStatus::Exist) => break,
                    Err(_) => sim.sleep(SimDuration::from_millis(500)).await,
                }
            }
            // Read everything back through the new names.
            for (i, (_, dst)) in pairs.iter().enumerate() {
                let (fh, _) = insist!(sim, client.lookup(root, dst));
                insist!(sim, client.open(fh, false));
                let (data, _) = insist!(sim, client.read(fh, 0, BLOCK_SIZE as u32));
                assert!(
                    data.iter().all(|&x| x == (c as u8) * 16 + i as u8 + 1),
                    "client {c} reads its own bytes via {dst}"
                );
                insist!(sim, client.close(fh, false));
            }
            // Let delayed writes, commits and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }));
    }
    for h in handles {
        tb.sim.run_until(h);
    }
    let cross_ops = tb.shard_hosts.iter().map(|sh| {
        let ops = sh.server.shard_stats();
        ops.cross_renames + ops.cross_links
    });
    Pass::of(&tb, testbed_digest(&tb), cross_ops.sum())
}

fn run_delegation(seed: u64, faulted: bool) -> Pass {
    use spritely_core::DelegationParams;
    const FILES: u64 = 4;
    let delegated = TestbedParams {
        protocol: Protocol::Snfs,
        delegation: DelegationParams::pipelined(),
        ..TestbedParams::default()
    };
    let tb = Testbed::build_with_clients(chaos_params(delegated, seed, faulted), 2);
    let a = tb.clients[0].remote.snfs().expect("SNFS testbed").clone();
    let b = tb.clients[1].remote.snfs().expect("SNFS testbed").clone();
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let net = tb.net.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            use spritely_proto::BLOCK_SIZE;
            // A builds its delegated working set. Everything is fsynced:
            // the interesting chaos target is the recall protocol, not
            // dirty-data recovery, and a revoked holder's unflushed
            // writes are legitimately fenced away (§17.3) — which would
            // make the digests diverge by design.
            let mut fhs = Vec::new();
            for i in 0..FILES {
                let (fh, _) = insist!(sim, a.create(root, &format!("deleg{i}")));
                insist!(sim, a.open(fh, true));
                insist!(sim, a.write(fh, 0, &[i as u8 + 1; BLOCK_SIZE]));
                insist!(sim, a.fsync(fh));
                insist!(sim, a.close(fh, true));
                fhs.push(fh);
            }
            // Local churn: re-open/read/close under the delegations.
            for _ in 0..3 {
                for &fh in &fhs {
                    insist!(sim, a.open(fh, false));
                    let _ = insist!(sim, a.read(fh, 0, BLOCK_SIZE as u32));
                    insist!(sim, a.close(fh, false));
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
                insist!(sim, b.open(fh, false));
                let _ = insist!(sim, b.read(fh, 0, BLOCK_SIZE as u32));
                insist!(sim, b.close(fh, false));
            }
            // After the heal: A rewrites one file (re-earning authority
            // or falling back to RPC if it was fenced), B re-reads it.
            let fh = fhs[0];
            insist!(sim, a.open(fh, true));
            insist!(sim, a.write(fh, 0, &[0xAA; BLOCK_SIZE]));
            insist!(sim, a.fsync(fh));
            insist!(sim, a.close(fh, true));
            insist!(sim, b.open(fh, false));
            let (data, _) = insist!(sim, b.read(fh, 0, BLOCK_SIZE as u32));
            assert!(
                data.iter().all(|&x| x == 0xAA),
                "B sees A's post-heal version"
            );
            insist!(sim, b.close(fh, false));
            // Let delayed writes, lazy returns and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    });
    sim.run_until(h);
    let recalls = tb
        .snfs_server
        .as_ref()
        .map_or(0, |s| s.delegation_stats().recalls);
    Pass::of(&tb, server_digest(&tb.server_fs), recalls)
}

fn run_write_sharing(seed: u64, faulted: bool) -> Pass {
    let slow_writeback = TestbedParams {
        protocol: Protocol::Snfs,
        // Keep B's data dirty long enough for the partition to matter.
        snfs_write_delay: SimDuration::from_secs(30),
        ..TestbedParams::default()
    };
    let tb = Testbed::build_with_clients(chaos_params(slow_writeback, seed, faulted), 2);
    let a = tb.clients[0].remote.snfs().expect("SNFS testbed").clone();
    let b = tb.clients[1].remote.snfs().expect("SNFS testbed").clone();
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let net = tb.net.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            use spritely_proto::BLOCK_SIZE;
            // A publishes version 1 of the shared file.
            let (fh, _) = insist!(sim, a.create(root, "shared"));
            insist!(sim, a.open(fh, true));
            insist!(sim, a.write(fh, 0, &[1u8; 2 * BLOCK_SIZE]));
            insist!(sim, a.fsync(fh));
            insist!(sim, a.close(fh, true));
            // B overwrites it and holds the data dirty (30 s delay).
            insist!(sim, b.open(fh, true));
            insist!(sim, b.write(fh, 0, &[2u8; 2 * BLOCK_SIZE]));
            insist!(sim, b.close(fh, true));
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
            // A re-issues the open until it goes through.
            let attr = insist!(sim, a.open(fh, false));
            assert_eq!(
                attr.size,
                (2 * BLOCK_SIZE) as u64,
                "A sees B's version after the heal"
            );
            let (data, _) = insist!(sim, a.read(fh, 0, (2 * BLOCK_SIZE) as u32));
            assert!(
                data.iter().all(|&x| x == 2),
                "B's dirty data survived the partition"
            );
            insist!(sim, a.close(fh, false));
            // Let delayed writes and the server update daemon drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    });
    sim.run_until(h);
    Pass::of(&tb, server_digest(&tb.server_fs), 0)
}
