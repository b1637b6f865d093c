//! The sharded namespace end to end (DESIGN.md §18): layout-routed
//! clients over independent server shards, cross-shard rename/link via
//! the two-phase coordination path, stale-layout redirects, and
//! atomicity under seeded network faults.

use spritely::harness::{
    ClientParams, DelegationParams, FaultParams, Protocol, ShardParams, StatsSnapshot, Testbed,
    TestbedParams,
};
use spritely::proto::{default_shard, NfsStatus, BLOCK_SIZE};
use spritely::sim::SimDuration;
use spritely::snfs::SnfsClient;

fn sharded(n: usize, n_clients: usize, trace: bool, faults: FaultParams) -> Testbed {
    Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            shards: ShardParams::sharded(n),
            trace,
            faults,
            ..TestbedParams::default()
        },
        n_clients,
    )
}

fn snfs(tb: &Testbed, i: usize) -> SnfsClient {
    let c = tb.clients[i].remote.snfs();
    c.expect("sharded testbeds are SNFS").clone()
}

/// Every shard's `key` counter from the snapshot's `shards` section, in
/// shard order.
fn per_shard(snap: &StatsSnapshot, key: &str) -> Vec<u64> {
    (0..)
        .map_while(|s| snap.get(&format!("shards.per_shard.{s}.{key}")))
        .collect()
}

/// First name of the form `{prefix}{i}` that the default layout places
/// on `shard` (of `n`).
fn name_on(n: u32, shard: u32, prefix: &str) -> String {
    (0u32..)
        .map(|i| format!("{prefix}{i}"))
        .find(|s| default_shard(s, n) == shard)
        .expect("some index hashes to every shard")
}

#[test]
fn sharded_basic_ops_and_readdir_merges_all_shards() {
    let tb = sharded(2, 1, false, FaultParams::default());
    assert_eq!(tb.shard_hosts.len(), 2);
    let c = snfs(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let on0 = name_on(2, 0, "alpha");
    let on1 = name_on(2, 1, "beta");
    let h = sim.spawn({
        let (on0, on1) = (on0.clone(), on1.clone());
        async move {
            for (i, name) in [&on0, &on1].into_iter().enumerate() {
                let (fh, _) = c.create(root, name).await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[i as u8 + 1; BLOCK_SIZE]).await.unwrap();
                c.fsync(fh).await.unwrap();
                c.close(fh, true).await.unwrap();
            }
            // Each file landed on its owning shard's store (fsid = s+1).
            let (fh0, _) = c.lookup(root, &on0).await.unwrap();
            let (fh1, _) = c.lookup(root, &on1).await.unwrap();
            assert_eq!(fh0.fsid, 1, "{on0} owned by shard 0");
            assert_eq!(fh1.fsid, 2, "{on1} owned by shard 1");
            // Root readdir fans out and merges, sorted by name.
            let entries = c.readdir(root).await.unwrap();
            let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
            assert!(names.contains(&on0.as_str()) && names.contains(&on1.as_str()));
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "merged readdir is name-sorted");
            // Data survives a reopen through either shard.
            c.open(fh1, false).await.unwrap();
            let (data, _) = c.read(fh1, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(data.iter().all(|&b| b == 2));
            c.close(fh1, false).await.unwrap();
        }
    });
    sim.run_until(h);
    // Both shards actually served traffic.
    let snap = tb.stats_snapshot();
    assert_eq!(snap.num("shards.n"), 2);
    let rpcs = per_shard(&snap, "rpcs");
    assert!(rpcs.len() == 2 && rpcs.iter().all(|&n| n > 0), "{rpcs:?}");
}

#[test]
fn cross_shard_rename_is_atomic_and_redirects_stale_clients() {
    let tb = sharded(2, 2, true, FaultParams::default());
    let a = snfs(&tb, 0);
    let b = snfs(&tb, 1);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    // src on shard 0, dst's default owner is shard 1 → the rename must
    // cross shards, with shard 0 coordinating.
    let src = name_on(2, 0, "from");
    let dst = name_on(2, 1, "to");
    let h = sim.spawn({
        let (src, dst) = (src.clone(), dst.clone());
        async move {
            let (fh, _) = a.create(root, &src).await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[7u8; BLOCK_SIZE]).await.unwrap();
            a.fsync(fh).await.unwrap();
            a.close(fh, true).await.unwrap();
            // B warms its view of the namespace (and its cached layout).
            assert_eq!(b.lookup(root, &dst).await.unwrap_err(), NfsStatus::NoEnt);
            a.rename(root, &src, root, &dst).await.unwrap();
            // The source name is gone everywhere; the destination
            // resolves — for B this takes a WrongShard redirect, since
            // its cached layout still points at dst's default owner.
            assert_eq!(a.lookup(root, &src).await.unwrap_err(), NfsStatus::NoEnt);
            let (via_b, _) = b.lookup(root, &dst).await.unwrap();
            assert_eq!(via_b, fh, "same file object after the move");
            assert_eq!(via_b.fsid, 1, "the file stayed on its store");
            // The bytes came along.
            b.open(fh, false).await.unwrap();
            let (data, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(data.iter().all(|&x| x == 7));
            b.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    // The authoritative layout moved the name and bumped the epoch.
    let layout = tb.layout.as_ref().expect("sharded testbed has a layout");
    assert_eq!(layout.borrow().owner(&dst), 0, "dst now owned by shard 0");
    assert!(layout.borrow().epoch() > 1);
    let snap = tb.stats_snapshot();
    let sum = |key| per_shard(&snap, key).iter().sum::<u64>();
    assert_eq!(sum("cross_renames"), 1, "exactly one coordinated rename");
    assert!(
        sum("wrong_shard_replies") >= 1,
        "B's stale lookup was redirected"
    );
    // Checker rule 10 holds over the whole trace.
    let report = tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "violations: {:?}", report.violations);
}

#[test]
fn cross_shard_link_spans_stores_and_keeps_one_inode() {
    let tb = sharded(2, 1, true, FaultParams::default());
    let c = snfs(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let orig = name_on(2, 1, "file");
    let alias = name_on(2, 0, "ln");
    let h = sim.spawn({
        let (orig, alias) = (orig.clone(), alias.clone());
        async move {
            let (fh, _) = c.create(root, &orig).await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, b"linked bytes").await.unwrap();
            c.fsync(fh).await.unwrap();
            c.close(fh, true).await.unwrap();
            assert_eq!(fh.fsid, 2, "original owned by shard 1");
            // alias's default owner is shard 0, but the file lives on
            // shard 1's store — the link must cross shards.
            let attr = c.link(fh, root, &alias).await.unwrap();
            assert_eq!(attr.nlink, 2);
            let (via_alias, _) = c.lookup(root, &alias).await.unwrap();
            assert_eq!(via_alias, fh, "hard link shares the inode");
            // Linking again fails cleanly (target exists), without
            // leaving a dangling transaction.
            assert_eq!(
                c.link(fh, root, &alias).await.unwrap_err(),
                NfsStatus::Exist
            );
            // Removing the original keeps the file reachable via alias.
            c.remove(root, &orig, Some(fh)).await.unwrap();
            let (still, _) = c.lookup(root, &alias).await.unwrap();
            assert_eq!(still, fh);
            c.open(fh, false).await.unwrap();
            let (data, _) = c.read(fh, 0, 64).await.unwrap();
            assert_eq!(&data, b"linked bytes");
            c.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    let snap = tb.stats_snapshot();
    assert_eq!(per_shard(&snap, "cross_links").iter().sum::<u64>(), 1);
    let report = tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "violations: {:?}", report.violations);
}

#[test]
fn cross_shard_ops_converge_under_seeded_faults() {
    // Drops, duplicates, delays and reply losses hit every link —
    // including the inter-shard coordination callers — while one client
    // cross-renames a small working set. The prepare/commit retry loops
    // and the participants' idempotent transaction table must keep every
    // rename atomic, and rule 10 must hold on the trace.
    const FILES: u32 = 3;
    let tb = sharded(4, 1, true, FaultParams::chaos(42));
    let c = snfs(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    // Destination names chosen so every rename crosses shards.
    let pairs: Vec<(String, String)> = (0..FILES)
        .map(|i| {
            let src = format!("work{i}");
            let s = default_shard(&src, 4);
            let dst = name_on(4, (s + 1) % 4, &format!("moved{i}_"));
            (src, dst)
        })
        .collect();
    let h = sim.spawn({
        let pairs = pairs.clone();
        let sim = sim.clone();
        async move {
            for (i, (src, _)) in pairs.iter().enumerate() {
                let (fh, _) = c.create(root, src).await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[i as u8 + 1; BLOCK_SIZE]).await.unwrap();
                c.fsync(fh).await.unwrap();
                c.close(fh, true).await.unwrap();
            }
            for (src, dst) in &pairs {
                // A rename is not idempotent across calls: one whose
                // first ladder executed meets `NoEnt` on the hard
                // mount's next call, which the client reads as done.
                c.rename(root, src, root, dst).await.unwrap();
            }
            // Every destination readable with the right bytes, every
            // source gone.
            for (i, (src, dst)) in pairs.iter().enumerate() {
                let (fh, _) = c.lookup(root, dst).await.unwrap();
                c.open(fh, false).await.unwrap();
                let (data, _) = c.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
                assert!(data.iter().all(|&x| x == i as u8 + 1), "{dst}");
                c.close(fh, false).await.unwrap();
                let gone = c.lookup(root, src).await;
                assert_eq!(
                    gone.err(),
                    Some(NfsStatus::NoEnt),
                    "{src} survived its rename"
                );
            }
            // Let write-backs, commits and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    });
    sim.run_until(h);
    let snap = tb.stats_snapshot();
    assert_eq!(
        per_shard(&snap, "cross_renames").iter().sum::<u64>(),
        u64::from(FILES),
        "every rename crossed shards exactly once"
    );
    let injected =
        ["drops", "dups", "delays", "reply_losses"].map(|k| snap.num(&format!("faults.{k}")));
    assert!(injected.iter().sum::<u64>() > 0, "{injected:?}");
    let report = tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "violations: {:?}", report.violations);
}

#[test]
fn chaos_shard_partition_mid_rename_converges() {
    // The chaos entry's shard row: four shards, two clients, a
    // network partition dropped on the coordinating shard's inter-shard
    // links in the middle of a burst of cross-shard renames, on top of
    // seeded drop/dup/delay faults. The faulted run must converge to a
    // server state digest-identical to the clean run, with zero checker
    // violations and every injected fault absorbed.
    let o = spritely::harness::catalog::chaos_row("shard");
    let field = |key: &str| {
        o.ledger
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let injected = field("shard_injected").and_then(|v| v.parse::<u64>().ok());
    assert!(
        injected > Some(0),
        "chaos run injected no faults: {injected:?}"
    );
    let forced = "the shard chaos run never forced what it exists to prove";
    assert!(
        !o.failures.iter().any(|f| f == forced),
        "no cross-shard operation was coordinated"
    );
    assert_eq!(field("shard_converged"), Some("true"), "{}", o.body);
}

/// Determinism extends to the sharded build: the same seed gives a
/// byte-identical statistics snapshot and the same makespan.
#[test]
fn sharded_scaling_runs_are_bit_identical() {
    let run = || {
        let four_shards = TestbedParams {
            shards: ShardParams::sharded(4),
            ..TestbedParams::default()
        };
        spritely::harness::scripts::scaling_shards(four_shards, 32, 42)
    };
    let (a, b) = (run(), run());
    let (stats_a, stats_b) = (a.tb.stats_snapshot(), b.tb.stats_snapshot());
    assert_eq!(stats_a.to_json(), stats_b.to_json());
    assert_eq!(a.makespan, b.makespan);
    assert!(a.served.iter().sum::<u64>() > 0);
}

/// What `Testbed::build_with_clients` panics with for `params`, if it
/// panics.
fn build_panic(params: TestbedParams, n_clients: usize) -> Option<String> {
    let built = std::panic::catch_unwind(move || {
        Testbed::build_with_clients(params, n_clients);
    });
    built.err().map(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn topology_contract_over_protocols_shards_and_name_cache() {
    // One construction builds every topology: `ShardParams::paper()` is
    // its one-server case, not a separate path. The public shape is the
    // same contract at every point of the table.
    const CLIENTS: usize = 2;
    let protocols = [
        Protocol::Local,
        Protocol::Nfs,
        Protocol::NfsFixed,
        Protocol::Snfs,
        Protocol::SnfsDelayedClose,
    ];
    for protocol in protocols {
        for n in [1usize, 2] {
            for name_cache in [false, true] {
                let case = format!("{protocol:?} x {n} shards x name_cache={name_cache}");
                let params = TestbedParams {
                    protocol,
                    client: ClientParams {
                        name_cache,
                        ..ClientParams::default()
                    },
                    shards: ShardParams::sharded(n),
                    ..TestbedParams::default()
                };
                // A sharded namespace is SNFS-only and excludes name
                // caching; everything else must build.
                let refusal = if n > 1 && !protocol.is_snfs() {
                    Some("a sharded namespace requires an SNFS protocol")
                } else if n > 1 && name_cache {
                    Some("name caching is not supported over a sharded namespace")
                } else {
                    None
                };
                if let Some(expected) = refusal {
                    let msg =
                        build_panic(params, CLIENTS).unwrap_or_else(|| panic!("{case} built"));
                    assert!(msg.contains(expected), "{case}: {msg}");
                    continue;
                }
                let tb = Testbed::build_with_clients(params, CLIENTS);
                assert_eq!(tb.servers.len(), n, "{case}");
                assert_eq!(tb.shard_hosts.len(), if n > 1 { n } else { 0 }, "{case}");
                assert_eq!(tb.layout.is_some(), n > 1, "{case}");
                assert_eq!(tb.clients.len(), CLIENTS, "{case}");
                let cb = if protocol.is_snfs() { CLIENTS } else { 0 };
                assert_eq!(tb.cb_endpoints.len(), cb, "{case}");
                assert_eq!(tb.endpoint.is_none(), protocol == Protocol::Local, "{case}");
                assert_eq!(tb.snfs_server.is_some(), protocol.is_snfs(), "{case}");
                // Shard s exports fsid s + 1, and entry 0 is the store the
                // dedicated single-server fields name.
                assert_eq!(tb.server_fs.root().fsid, 1, "{case}");
                for sh in &tb.shard_hosts {
                    assert_eq!(sh.fs.root().fsid, sh.shard + 1, "{case}");
                }
                let json = tb.stats_snapshot().to_json();
                assert_eq!(json.contains("\"shards\""), n > 1, "{case}: {json}");
            }
        }
    }
}

#[test]
fn sharded_snapshot_aggregates_every_server() {
    // The snapshot's server-side sections cover all shards, not shard 0
    // alone: disk writes and delegation grants land on both stores here.
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        shards: ShardParams::sharded(2),
        delegation: DelegationParams::pipelined(),
        ..TestbedParams::default()
    });
    let c = snfs(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let names = [name_on(2, 0, "left"), name_on(2, 1, "right")];
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            for name in &names {
                let (fh, _) = c.create(root, name).await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[9u8; BLOCK_SIZE]).await.unwrap();
                c.close(fh, true).await.unwrap();
            }
            // Let the delayed writes and both update daemons drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    });
    sim.run_until(h);
    let writes: Vec<u64> = tb
        .shard_hosts
        .iter()
        .map(|sh| sh.fs.disk().stats().writes)
        .collect();
    let grants: Vec<u64> = tb
        .shard_hosts
        .iter()
        .map(|sh| sh.server.delegation_stats())
        .map(|d| d.grants_read + d.grants_write)
        .collect();
    assert!(
        writes.iter().all(|&w| w > 0),
        "both disks wrote: {writes:?}"
    );
    assert!(
        grants.iter().all(|&g| g > 0),
        "both shards granted: {grants:?}"
    );
    let snap = tb.stats_snapshot();
    assert_eq!(
        snap.num("server_io.disk_writes"),
        writes.iter().sum::<u64>()
    );
    assert_eq!(
        snap.num("delegation.grants_read") + snap.num("delegation.grants_write"),
        grants.iter().sum::<u64>()
    );
}

/// Event-for-event pin of the cross-shard coordinator (DESIGN.md §18.3):
/// one traced 2-shard script through every outcome it has — rename to a
/// free name, rename over an entry the participant must delete at
/// commit, a rename whose local half fails, link to a free name, link
/// onto an existing name (`Exist`, abort path), and operations refused
/// `Busy` by a held name lock at the gate and at prepare. The digest is
/// of the whole trace, so any emit, spawn or await that changes place in
/// the server changes it.
#[test]
fn cross_shard_coordinator_trace_is_pinned() {
    use spritely::proto::{ClientId, NfsReply, NfsRequest};
    const DIGEST: u64 = 0x1585_1539_3d93_f76b;
    let tb = sharded(2, 2, true, FaultParams::default());
    let (a, b) = (snfs(&tb, 0), snfs(&tb, 1));
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let on = |shard: u32, prefix: &str| name_on(2, shard, prefix);
    // Sources on shard 0; destinations default to shard 1.
    let (s1, s2, gone) = (on(0, "s1_"), on(0, "s2_"), on(0, "gone_"));
    let (d1, d2, d3) = (on(1, "d1_"), on(1, "d2_"), on(1, "d3_"));
    // A file living on shard 1 gains links under shard 0's names.
    let (g, b1) = (on(1, "g_"), on(1, "b1_"));
    let (l1, l2) = (on(0, "l1_"), on(0, "l2_"));
    let names = [&s1, &s2, &gone, &d1, &d2, &d3, &g, &b1, &l1, &l2].map(|s| s.clone());
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            let mut fh_of = std::collections::HashMap::new();
            for (i, name) in [&s1, &s2, &d2, &g, &b1, &l2].into_iter().enumerate() {
                let (fh, _) = a.create(root, name).await.unwrap();
                a.open(fh, true).await.unwrap();
                a.write(fh, 0, &[i as u8 + 1; BLOCK_SIZE]).await.unwrap();
                a.fsync(fh).await.unwrap();
                a.close(fh, true).await.unwrap();
                fh_of.insert(name.clone(), fh);
            }
            // B watches both roots, so every commit invalidates it.
            b.lookup(root, &s1).await.unwrap();
            b.lookup(root, &d2).await.unwrap();
            // While A's rename holds s1 and d1 locked on both shards, B
            // looks d1 up (gate: Busy) and renames b1 onto s1 (shard 1
            // coordinates; shard 0 refuses the prepare: Busy). Both are
            // retried by B's router until the locks are gone.
            let at_gate = sim.spawn({
                let (sim, b, d1) = (sim.clone(), b.clone(), d1.clone());
                async move {
                    sim.sleep(SimDuration::from_millis(10)).await;
                    b.lookup(root, &d1).await.unwrap().0
                }
            });
            let at_prepare = sim.spawn({
                let (sim, b, b1, s1) = (sim.clone(), b.clone(), b1.clone(), s1.clone());
                async move {
                    sim.sleep(SimDuration::from_millis(10)).await;
                    b.rename(root, &b1, root, &s1).await.unwrap();
                }
            });
            a.rename(root, &s1, root, &d1).await.unwrap();
            assert_eq!(at_gate.await, fh_of[&s1], "B found the moved file");
            at_prepare.await;
            // Over an existing entry: shard 1 deletes its d2 at commit.
            a.rename(root, &s2, root, &d2).await.unwrap();
            let (fh, _) = b.lookup(root, &d2).await.unwrap();
            assert_eq!(fh, fh_of[&s2]);
            // The local half fails after a successful prepare: abort.
            assert_eq!(
                a.rename(root, &gone, root, &d3).await.unwrap_err(),
                NfsStatus::NoEnt
            );
            // Links: to a free name, then onto an existing one.
            assert_eq!(a.link(fh_of[&g], root, &l1).await.unwrap().nlink, 2);
            assert_eq!(
                a.link(fh_of[&g], root, &l2).await.unwrap_err(),
                NfsStatus::Exist
            );
            // Let the out-of-line commits and aborts land.
            sim.sleep(SimDuration::from_secs(5)).await;
        }
    });
    sim.run_until(h);
    let snap = tb.stats_snapshot();
    let sum = |key| per_shard(&snap, key).iter().sum::<u64>();
    assert_eq!(sum("cross_renames"), 3);
    assert_eq!(sum("cross_links"), 1);
    assert!(sum("busy_rejections") >= 2);
    // Nothing left locked: a held name lock (and with it an unresolved
    // prepared entry, which keeps its lock until resolved) answers Busy.
    let h = sim.spawn({
        let hosts = tb.shard_hosts.clone();
        async move {
            for host in &hosts {
                for name in &names {
                    let (dir, name) = (host.fs.root(), name.as_str().into());
                    let rep = host
                        .server
                        .handle(ClientId(1), 0, NfsRequest::Lookup { dir, name });
                    assert!(
                        !matches!(rep.await, NfsReply::Err(NfsStatus::Busy)),
                        "a name lock outlived its transaction on shard {}",
                        host.shard
                    );
                }
            }
        }
    });
    sim.run_until(h);
    let report = tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert_eq!(report.fnv(), DIGEST, "{:#018x}", report.fnv());
}
