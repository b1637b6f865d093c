//! Regression tests for the lossy-network bugs the fault-injection layer
//! exposed: callback retries across partitions (a partitioned client is
//! not a crashed client), the client's hard mount (a call outlasts a
//! partition), retransmit-outcome mapping for non-idempotent procedures
//! after dup-cache loss, and idempotent handling of duplicated
//! server→client callbacks.

use spritely::harness::{
    report, ClientParams, DelegationParams, PartitionDir, Protocol, RemoteClient, Testbed,
    TestbedParams,
};
use spritely::proto::{NfsStatus, BLOCK_SIZE};
use spritely::sim::SimDuration;
use spritely::snfs::Remote;
use spritely::vfs::FsBackend;

fn two_client_snfs() -> Testbed {
    Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            // Keep dirty data un-flushed long enough for partitions to
            // matter (the default delay would race the scenarios below).
            client: ClientParams {
                write_delay: SimDuration::from_secs(120),
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        },
        2,
    )
}

/// A partitioned-then-healed client's dirty data survives: the server
/// retries the write-back callback past the partition instead of
/// declaring the client crashed on the first timeout.
#[test]
fn partitioned_client_dirty_data_survives_heal() {
    let tb = two_client_snfs();
    let a = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let b = match &tb.clients[1].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let server = tb.snfs_server.clone().expect("snfs server");
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            // B writes and holds the data dirty.
            let (fh, _) = a.create(root, "f").await.unwrap();
            b.open(fh, true).await.unwrap();
            b.write(fh, 0, &[2u8; BLOCK_SIZE]).await.unwrap();
            b.close(fh, true).await.unwrap();
            // B's host drops off the network for 12 s.
            net.partition(
                2,
                PartitionDir::Both,
                sim.now() + SimDuration::from_secs(12),
            );
            // A opens while B is unreachable. The server's write-back
            // callback to B fails until the heal; A's own RPC ladder
            // (~5 s) is shorter than the server's retry horizon, so A's
            // hard mount calls the open again until it is answered.
            let attr = a.open(fh, false).await.expect("open after the heal");
            assert_eq!(attr.size, BLOCK_SIZE as u64);
            let (data, _) = a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(
                data.iter().all(|&x| x == 2),
                "B's dirty data survived the partition"
            );
            a.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    assert!(
        server.callback_retries() >= 1,
        "the server retried the callback across the partition"
    );
    assert_eq!(
        server.stats().callbacks_failed,
        0,
        "B was never declared crashed"
    );
}

/// The client is hard-mounted (DESIGN.md §20): a call that outlasts its
/// RPC ladder (≈5 s) is called again until the server answers, so a
/// partition longer than the ladder delays an `open` but cannot fail it.
#[test]
fn a_call_that_outlasts_its_ladder_completes_after_the_heal() {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        ..TestbedParams::default()
    });
    let a = tb.clients[0].remote.snfs().expect("SNFS testbed").clone();
    let root = tb.server_fs.root();
    let (sim, net) = (tb.sim.clone(), tb.net.clone());
    let h = tb.sim.spawn(async move {
        let (fh, _) = a.create(root, "f").await.unwrap();
        let healed_at = sim.now() + SimDuration::from_secs(12);
        net.partition(1, PartitionDir::Both, healed_at);
        let opened = a.open(fh, false).await;
        (opened, healed_at, sim.now())
    });
    let (opened, healed_at, done) = tb.sim.run_until(h);
    let attr = opened.expect("the open outlasted the partition");
    assert_eq!(attr.size, 0);
    assert!(done >= healed_at, "answered only after the heal");
}

/// A one-client testbed of `protocol`, its client as the vfs drives it
/// (each protocol client's own methods), and the fault the three tests
/// below share: the server executes the client's next request, the reply
/// is lost, and the server loses its duplicate cache (e.g. rebooted its
/// RPC layer) before the retransmission — one second later — arrives.
fn dup_cache_loss_rig(protocol: Protocol) -> (Testbed, FsBackend, impl Fn()) {
    let tb = Testbed::build(TestbedParams {
        protocol,
        ..TestbedParams::default()
    });
    let fs = match &tb.clients[0].remote {
        RemoteClient::Nfs(c) => FsBackend::Remote(Remote::Nfs(c.clone())),
        RemoteClient::Snfs(c) => FsBackend::Remote(Remote::Snfs(c.clone())),
        RemoteClient::None => panic!("expected a remote protocol"),
    };
    let (sim, net) = (tb.sim.clone(), tb.net.clone());
    let ep = tb.endpoint.clone().expect("server endpoint");
    let arm = move || {
        net.lose_next_reply(1, false);
        let (sim2, ep) = (sim.clone(), ep.clone());
        sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(500)).await;
            ep.clear_dup_cache();
        });
    };
    (tb, fs, arm)
}

/// The create-returns-EEXIST retransmission race. The client must
/// recognize the spurious EEXIST on a retransmitted create and map it to
/// success via lookup — either protocol's client, the mapping lives in
/// the core they share.
#[test]
fn retransmitted_create_after_dup_cache_loss_succeeds() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let h = tb.sim.spawn(async move {
            arm();
            let (fh, _) = fs
                .create(root, "victim")
                .await
                .expect("retransmitted create maps EEXIST to success");
            // The handle is the one the first execution created.
            let (looked, _) = fs.lookup(root, "victim").await.unwrap();
            assert_eq!(fh, looked, "{protocol:?}");
        });
        tb.sim.run_until(h);
    }
}

/// The remove-returns-ENOENT twin: the retransmitted remove finds the
/// name already gone (its own first transmission removed it) and must
/// report success, not ENOENT.
#[test]
fn retransmitted_remove_after_dup_cache_loss_succeeds() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let h = tb.sim.spawn(async move {
            let (fh, _) = fs.create(root, "doomed").await.unwrap();
            arm();
            fs.remove(root, "doomed", fh)
                .await
                .expect("retransmitted remove maps ENOENT to success");
            let gone = fs.lookup(root, "doomed").await.is_err();
            assert!(gone, "{protocol:?}: name is gone");
        });
        tb.sim.run_until(h);
    }
}

/// And for rename: the retransmission finds the source gone because the
/// first transmission already moved it.
#[test]
fn retransmitted_rename_after_dup_cache_loss_succeeds() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let h = tb.sim.spawn(async move {
            let (fh, _) = fs.create(root, "old").await.unwrap();
            arm();
            fs.rename(root, "old", root, "new")
                .await
                .expect("retransmitted rename maps ENOENT to success");
            assert!(fs.lookup(root, "old").await.is_err(), "{protocol:?}");
            let (moved, _) = fs.lookup(root, "new").await.unwrap();
            assert_eq!(fh, moved, "{protocol:?}: the file is under its new name");
        });
        tb.sim.run_until(h);
    }
}

/// A rename that executed but whose reply was lost, and whose whole
/// ladder then ran into a partition: the hard mount's next call, after
/// the heal and with the duplicate cache gone, finds the source moved.
/// That call counts as a retransmission, so the `NoEnt` it meets reads
/// as done.
#[test]
fn a_rename_whose_first_ladder_executed_is_done() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let (sim, net) = (tb.sim.clone(), tb.net.clone());
        let h = tb.sim.spawn(async move {
            let (fh, _) = fs.create(root, "old").await.unwrap();
            arm();
            // The first transmission executes and its reply is lost; the
            // client is cut off before its first retransmission (1 s) and
            // stays cut off past the ladder.
            sim.spawn({
                let sim = sim.clone();
                async move {
                    sim.sleep(SimDuration::from_millis(200)).await;
                    let healed_at = sim.now() + SimDuration::from_secs(8);
                    net.partition(1, PartitionDir::Both, healed_at);
                }
            });
            let renamed = fs.rename(root, "old", root, "new").await;
            assert_eq!(renamed, Ok(()), "{protocol:?}");
            assert!(fs.lookup(root, "old").await.is_err(), "{protocol:?}");
            let (moved, _) = fs.lookup(root, "new").await.unwrap();
            assert_eq!(fh, moved, "{protocol:?}: the file is under its new name");
        });
        tb.sim.run_until(h);
    }
}

/// `mkdir` is create's twin: the retransmission finds the directory its
/// first transmission made, and looks it up.
#[test]
fn retransmitted_mkdir_after_dup_cache_loss_succeeds() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let h = tb.sim.spawn(async move {
            arm();
            let (dir, _) = fs
                .mkdir(root, "d")
                .await
                .expect("retransmitted mkdir maps EEXIST to success");
            let (looked, _) = fs.lookup(root, "d").await.unwrap();
            assert_eq!(dir, looked, "{protocol:?}");
        });
        tb.sim.run_until(h);
    }
}

/// `rmdir` is remove's twin: the retransmission finds the directory gone.
#[test]
fn retransmitted_rmdir_after_dup_cache_loss_succeeds() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let h = tb.sim.spawn(async move {
            fs.mkdir(root, "d").await.unwrap();
            arm();
            fs.rmdir(root, "d")
                .await
                .expect("retransmitted rmdir maps ENOENT to success");
            assert!(fs.lookup(root, "d").await.is_err(), "{protocol:?}");
        });
        tb.sim.run_until(h);
    }
}

/// A retransmitted `link` that finds its name taken succeeds only if the
/// name is the linked file: its own first transmission. A name that was
/// another file's all along stays `EEXIST`.
#[test]
fn retransmitted_link_after_dup_cache_loss_succeeds_only_onto_its_file() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let h = tb.sim.spawn(async move {
            let (fh, _) = fs.create(root, "f").await.unwrap();
            fs.create(root, "other").await.unwrap();
            arm();
            let attr = fs
                .link(fh, root, "ln")
                .await
                .expect("retransmitted link maps EEXIST to success");
            assert_eq!(attr.nlink, 2, "{protocol:?}");
            let (looked, _) = fs.lookup(root, "ln").await.unwrap();
            assert_eq!(fh, looked, "{protocol:?}");
            arm();
            let taken = fs.link(fh, root, "other").await;
            assert_eq!(taken, Err(NfsStatus::Exist), "{protocol:?}");
        });
        tb.sim.run_until(h);
    }
}

/// `symlink` makes a name too: the retransmission looks up the link its
/// first transmission made.
#[test]
fn retransmitted_symlink_after_dup_cache_loss_succeeds() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let (tb, fs, arm) = dup_cache_loss_rig(protocol);
        let root = tb.server_fs.root();
        let h = tb.sim.spawn(async move {
            arm();
            let (fh, _) = fs
                .symlink(root, "sl", "f")
                .await
                .expect("retransmitted symlink maps EEXIST to success");
            let (looked, _) = fs.lookup(root, "sl").await.unwrap();
            assert_eq!(fh, looked, "{protocol:?}");
            assert_eq!(fs.readlink(fh).await.unwrap(), "f", "{protocol:?}");
        });
        tb.sim.run_until(h);
    }
}

/// A duplicated delivery of a server→client callback must be idempotent
/// at the client. The duplicate here comes from the server's own retry
/// (a fresh xid, so the client endpoint's dup cache cannot catch it):
/// the callback executes, its reply is lost in an outbound-only
/// partition, and the retry must not invalidate twice.
#[test]
fn duplicated_callback_invalidates_once() {
    let tb = two_client_snfs();
    let a = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let b = match &tb.clients[1].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let server = tb.snfs_server.clone().expect("snfs server");
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        let a = a.clone();
        async move {
            // A caches the file as a reader.
            let (fh, _) = a.create(root, "shared").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            a.fsync(fh).await.unwrap();
            a.close(fh, true).await.unwrap();
            a.open(fh, false).await.unwrap();
            let _ = a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            // A can receive callbacks but its replies are lost: the
            // server's first callback executes at A, the reply vanishes,
            // the RPC ladder exhausts, and the server's retry re-delivers
            // the same logical callback under a fresh xid.
            net.partition(
                1,
                PartitionDir::Outbound,
                sim.now() + SimDuration::from_secs(7),
            );
            // B opening for write forces the invalidate callback to A.
            b.open(fh, true).await.expect("B's open after the heal");
            b.close(fh, true).await.unwrap();
            a.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    assert_eq!(
        a.stats().invalidations,
        1,
        "the duplicated callback invalidated exactly once"
    );
    assert!(
        a.callback_dupes() >= 1,
        "the client-side sequence guard absorbed the retry"
    );
    assert_eq!(server.stats().callbacks_failed, 0);
}

fn two_client_delegated() -> Testbed {
    Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            delegation: DelegationParams::pipelined(),
            trace: true,
            ..TestbedParams::default()
        },
        2,
    )
}

/// Retransmitted-recall idempotency (DESIGN.md §17.2): the holder
/// returns its delegation and acks the recall, but the ack is lost on
/// the wire. The server's callback caller retransmits; the holder's
/// duplicate-request cache must replay the ack instead of re-running
/// the recall — one return applied, nothing revoked.
#[test]
fn retransmitted_recall_applies_the_return_once() {
    let tb = two_client_delegated();
    let a = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let b = match &tb.clients[1].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let server = tb.snfs_server.clone().expect("snfs server");
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let b = b.clone();
        async move {
            // B earns a write delegation and flushes, so the recall's only
            // observable work is the state return itself.
            let (fh, _) = b.create(root, "deleg").await.unwrap();
            b.open(fh, true).await.unwrap();
            b.write(fh, 0, &[9u8; BLOCK_SIZE]).await.unwrap();
            b.fsync(fh).await.unwrap();
            b.close(fh, true).await.unwrap();
            // The next reply on B's callback link — the recall ack — is
            // lost after B has executed the recall and returned.
            net.lose_next_reply(2, true);
            // A's conflicting open triggers the recall; the retransmitted
            // recall is answered from B's dup cache and the open proceeds.
            let attr = a.open(fh, false).await.unwrap();
            assert_eq!(attr.size, BLOCK_SIZE as u64);
            let (data, _) = a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(data.iter().all(|&x| x == 9), "A sees B's returned version");
            a.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    let d = server.delegation_stats();
    assert_eq!(d.recalls, 1, "one logical recall");
    assert_eq!(d.returns, 1, "the return applied exactly once");
    assert_eq!(d.revokes, 0, "a lost ack is not a dead holder");
    assert_eq!(b.delegations_held(), 0, "B no longer holds the delegation");
    let snap = tb.stats_snapshot();
    assert_eq!(
        snap.num("faults.reply_losses"),
        1,
        "the scripted ack loss fired"
    );
    assert!(
        snap.num("faults.dup_cache_hits") >= 1,
        "the retransmit was replayed from the dup cache, not re-run"
    );
    let trace = tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}

/// Revoke-after-timeout fencing (DESIGN.md §17.3): the holder drops off
/// the network for longer than the recall timeout. The server revokes
/// and fences it, the conflicting opener proceeds, and the healed
/// holder — whose lease lapsed and whose keepalive therefore discards
/// its stale records — falls back to RPC opens instead of serving any
/// local state from the revoked delegation.
#[test]
fn revoke_after_timeout_fences_the_dead_holder() {
    let tb = two_client_delegated();
    let a = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let b = match &tb.clients[1].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let server = tb.snfs_server.clone().expect("snfs server");
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        let b = b.clone();
        async move {
            let (fh, _) = b.create(root, "fenced").await.unwrap();
            b.open(fh, true).await.unwrap();
            b.write(fh, 0, &[3u8; BLOCK_SIZE]).await.unwrap();
            b.fsync(fh).await.unwrap();
            b.close(fh, true).await.unwrap();
            // B drops off the network for 25 s — longer than both the
            // lease (15 s) and the recall timeout (20 s).
            let healed_at = sim.now() + SimDuration::from_secs(25);
            net.partition(2, PartitionDir::Both, healed_at);
            // A's open must not wait forever on the dead holder: the
            // recall times out at 20 s, B is revoked and fenced, and the
            // open proceeds. A's own RPC ladder is shorter, so its hard
            // mount calls the open again until it is answered.
            let started = sim.now();
            let attr = a.open(fh, false).await.expect("open after the revoke");
            let waited = sim.now().saturating_duration_since(started);
            assert!(
                waited >= SimDuration::from_secs(19),
                "the open waited out the recall timeout, not less ({waited})"
            );
            assert!(
                waited < SimDuration::from_secs(25),
                "the opener was unblocked by the revoke, not the heal ({waited})"
            );
            assert_eq!(attr.size, BLOCK_SIZE as u64);
            let (data, _) = a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(data.iter().all(|&x| x == 3), "B's flushed data survived");
            a.close(fh, false).await.unwrap();
            // Wait past the heal plus one keepalive interval (10 s): B's
            // first successful probe finds its lease lapsed and discards
            // the stale delegation record.
            let drain = healed_at + SimDuration::from_secs(12);
            let dt = drain.saturating_duration_since(sim.now());
            sim.sleep(dt).await;
            assert_eq!(
                b.delegations_held(),
                0,
                "the lapsed lease discarded B's stale record"
            );
            // The healed holder opens over RPC (lifting its fence) and
            // sees the current file — no local state from the revoked
            // delegation survives.
            b.open(fh, false).await.expect("B's RPC open succeeds");
            let (data, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(data.iter().all(|&x| x == 3));
            b.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    let d = server.delegation_stats();
    assert_eq!(d.revokes, 1, "the dead holder was revoked exactly once");
    assert_eq!(d.returns, 0, "nothing ever came back from B");
    assert!(d.recalls >= 1, "the conflicting open forced a recall");
    let trace = tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}

/// A lapsed lease purges dirty data and poisons the file (defect 3,
/// DESIGN.md §17.3): the holder writes under its delegation and closes,
/// leaving the blocks dirty, then drops off the network for longer than
/// the lease. The first keepalive after the heal finds the lease lapsed and
/// discards the delegation with the cache under it; the `fsync` that
/// follows must report the lost data as `Io`, not find nothing to flush
/// and say OK.
#[test]
fn a_purge_that_drops_dirty_blocks_fails_the_next_fsync() {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        delegation: DelegationParams::pipelined(),
        // The update daemon must not write the blocks back first.
        client: ClientParams {
            write_delay: SimDuration::from_secs(120),
            ..ClientParams::default()
        },
        ..TestbedParams::default()
    });
    let b = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            let (fh, _) = b.create(root, "purged").await.unwrap();
            b.open(fh, true).await.unwrap();
            b.write(fh, 0, &[4u8; BLOCK_SIZE]).await.unwrap();
            b.close(fh, true).await.unwrap();
            assert_eq!(b.delegations_held(), 1);
            assert_eq!(b.dirty_blocks(), 1);
            // Longer than the 15 s lease, then one keepalive interval.
            let healed_at = sim.now() + SimDuration::from_secs(25);
            net.partition(1, PartitionDir::Both, healed_at);
            sim.sleep(SimDuration::from_secs(25 + 12)).await;
            assert_eq!(b.delegations_held(), 0, "the lapsed lease was purged");
            assert_eq!(b.dirty_blocks(), 0, "with the dirty block under it");
            b.fsync(fh).await
        }
    });
    assert_eq!(sim.run_until(h), Err(NfsStatus::Io));
}
