//! Cross-client consistency matrix: the behaviours §2 of the paper
//! contrasts, exercised end-to-end through the full stack (VFS → client →
//! RPC → server → disk).

use spritely::harness::{
    PartitionDir, Protocol, RemoteClient, Testbed, TestbedParams, TransportParams,
};
use spritely::proto::BLOCK_SIZE;
use spritely::sim::{SimDuration, SimTime};
use spritely::snfs::FileState;

fn two_snfs(tb: &Testbed) -> (spritely::snfs::SnfsClient, spritely::snfs::SnfsClient) {
    match (&tb.clients[0].remote, &tb.clients[1].remote) {
        (RemoteClient::Snfs(a), RemoteClient::Snfs(b)) => (a.clone(), b.clone()),
        _ => panic!("expected SNFS clients"),
    }
}

fn two_nfs(tb: &Testbed) -> (spritely::nfs::NfsClient, spritely::nfs::NfsClient) {
    match (&tb.clients[0].remote, &tb.clients[1].remote) {
        (RemoteClient::Nfs(a), RemoteClient::Nfs(b)) => (a.clone(), b.clone()),
        _ => panic!("expected NFS clients"),
    }
}

#[test]
fn snfs_sequential_write_sharing_is_consistent() {
    // Writer writes and closes (data still dirty client-side); a second
    // client then opens and must see everything.
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = two_snfs(&tb);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = a.create(root, "f").await.unwrap();
        a.open(fh, true).await.unwrap();
        let payload: Vec<u8> = (0..3 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        a.write(fh, 0, &payload).await.unwrap();
        a.close(fh, true).await.unwrap();
        assert!(a.dirty_blocks() > 0, "data is still delayed at A");
        b.open(fh, false).await.unwrap();
        let (got, eof) = b.read(fh, 0, (3 * BLOCK_SIZE) as u32).await.unwrap();
        assert!(eof);
        assert_eq!(got, payload, "B sees A's delayed data via the callback");
        b.close(fh, false).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn nfs_sequential_write_sharing_is_consistent_too() {
    // The case NFS *does* get right (§2.3): writer closes before the
    // reader opens, and the open-time probe sees the new mtime.
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Nfs,
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = two_nfs(&tb);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = a.create(root, "f").await.unwrap();
        a.open(fh, true).await.unwrap();
        a.write(fh, 0, &[9u8; BLOCK_SIZE]).await.unwrap();
        a.close(fh, true).await.unwrap();
        b.open(fh, false).await.unwrap();
        let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        assert!(got.iter().all(|&x| x == 9));
        b.close(fh, false).await.unwrap();
        // A rewrites; B reopens and must see version 2.
        a.open(fh, true).await.unwrap();
        a.write(fh, 0, &[8u8; BLOCK_SIZE]).await.unwrap();
        a.close(fh, true).await.unwrap();
        b.open(fh, false).await.unwrap();
        let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        assert!(got.iter().all(|&x| x == 8));
        b.close(fh, false).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn nfs_concurrent_write_sharing_serves_stale_data() {
    // The failure §2.1 describes: concurrent sharing within the probe
    // window. (This is an assertion that our baseline reproduces the
    // *flaw*, which the comparison depends on.)
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Nfs,
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = two_nfs(&tb);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = a.create(root, "f").await.unwrap();
        a.open(fh, true).await.unwrap();
        a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
        a.fsync(fh).await.unwrap();
        b.open(fh, false).await.unwrap();
        let _ = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        // A updates while both hold the file open; B re-reads immediately.
        a.write(fh, 0, &[2u8; BLOCK_SIZE]).await.unwrap();
        a.fsync(fh).await.unwrap();
        let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        assert!(
            got.iter().all(|&x| x == 1),
            "stale read inside the attribute-cache window"
        );
        a.close(fh, true).await.unwrap();
        b.close(fh, false).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn snfs_concurrent_write_sharing_never_stale() {
    // Write-shared files are uncachable at every client (§4.2.1): their
    // data *and* attributes come from the server, on every transport.
    let transports = [
        ("paper", TransportParams::paper()),
        ("pipelined", TransportParams::pipelined()),
    ];
    for (name, transport) in transports {
        let tb = Testbed::build_with_clients(
            TestbedParams {
                protocol: Protocol::Snfs,
                transport,
                ..TestbedParams::default()
            },
            2,
        );
        let (a, b) = two_snfs(&tb);
        let root = tb.server_fs.root();
        let sim = tb.sim.clone();
        let h = sim.spawn(async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            b.open(fh, false).await.unwrap();
            // Ten update/read rounds: each rewrites block 0 and extends
            // the file by one block; every read and every size B sees is
            // the latest.
            for gen in 2..12u8 {
                let fresh = vec![gen; BLOCK_SIZE];
                let end = u64::from(gen) * BLOCK_SIZE as u64;
                a.write(fh, 0, &fresh).await.unwrap();
                a.write(fh, end - BLOCK_SIZE as u64, &fresh).await.unwrap();
                let size = b.getattr(fh).await.unwrap().size;
                assert_eq!(size, end, "{name}: generation {gen}'s size");
                for off in [0, end - BLOCK_SIZE as u64] {
                    let (got, _) = b.read(fh, off, BLOCK_SIZE as u32).await.unwrap();
                    assert!(
                        got.iter().all(|&x| x == gen),
                        "{name}: generation {gen} must be visible immediately"
                    );
                }
            }
            a.close(fh, true).await.unwrap();
            b.close(fh, false).await.unwrap();
        });
        sim.run_until(h);
    }
}

#[test]
fn snfs_late_read_reply_does_not_repopulate_an_invalidated_cache() {
    // Defect 1 of benchmark/README.md ("What the oracle found"), as a
    // fixed schedule: a reader's read RPC is on the server's disk when a
    // writer's open makes the file write-shared; the invalidate callback
    // reaches the reader first, the read reply (and the read-ahead the
    // reader then starts) after it. Those blocks must not land in the
    // cache, or the reader's next open adopts them under the new version.
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            ..TestbedParams::default()
        },
        2,
    );
    let (reader, writer) = two_snfs(&tb);
    let root = tb.server_fs.root();
    let server_fs = tb.server_fs.clone();
    let sim = tb.sim.clone();
    let s = sim.clone();
    let h = sim.spawn(async move {
        let len = (2 * BLOCK_SIZE) as u32;
        let (fh, _) = writer.create(root, "f").await.unwrap();
        writer.open(fh, true).await.unwrap();
        writer.write(fh, 0, &vec![1u8; len as usize]).await.unwrap();
        writer.fsync(fh).await.unwrap();
        writer.close(fh, true).await.unwrap();
        // Empty the server's buffer cache, so the read below waits for
        // the disk while the open and its callback overtake it.
        assert_eq!(server_fs.crash(), 0, "version 1 is on the disk");

        reader.open(fh, false).await.unwrap();
        let reply_in = std::rc::Rc::new(std::cell::Cell::new(false));
        let late_read = s.spawn({
            let (reader, reply_in) = (reader.clone(), reply_in.clone());
            async move {
                let got = reader.read(fh, 0, BLOCK_SIZE as u32).await.unwrap().0;
                reply_in.set(true);
                got
            }
        });
        s.sleep(SimDuration::from_millis(1)).await;
        writer.open(fh, true).await.unwrap();
        assert_eq!(reader.stats().invalidations, 1, "the callback has landed");
        assert!(!reply_in.get(), "the read reply is still in flight");
        // The read itself overlapped the writer's open: version 1 is a
        // legitimate answer for it.
        assert!(late_read.await.iter().all(|&x| x == 1));

        writer.write(fh, 0, &vec![2u8; len as usize]).await.unwrap();
        writer.close(fh, true).await.unwrap();
        reader.close(fh, false).await.unwrap();
        // Let the read-ahead the late read started finish too.
        s.sleep(SimDuration::from_secs(1)).await;

        reader.open(fh, false).await.unwrap();
        let (got, _) = reader.read(fh, 0, len).await.unwrap();
        assert!(
            got.iter().all(|&x| x == 2),
            "the reopened file must not serve blocks of the invalidated version"
        );
        reader.close(fh, false).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn nfs_late_read_ahead_reply_does_not_overwrite_a_newer_write() {
    // The NFS twin of the test above, as a fixed schedule: a sequential
    // read puts a read-ahead of block 1 on the wire, the application
    // overwrites block 1 while the server's disk is still fetching it, and
    // the reply — the block as it was before the write — lands afterwards.
    // It must not replace the written block in the cache, neither for the
    // next read nor (with the close purge off) for a later reopen.
    for protocol in [Protocol::Nfs, Protocol::NfsFixed] {
        let tb = Testbed::build(TestbedParams {
            protocol,
            ..TestbedParams::default()
        });
        let c = match &tb.clients[0].remote {
            RemoteClient::Nfs(c) => c.clone(),
            _ => panic!("expected NFS"),
        };
        let root = tb.server_fs.root();
        let server_fs = tb.server_fs.clone();
        let counter = tb.counter.clone();
        let sim = tb.sim.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let block = BLOCK_SIZE as u32;
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &vec![1u8; 3 * BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            c.cold_boot().await.unwrap();
            // Empty the server's buffer cache too, so the read-ahead
            // below waits for the disk while the write overtakes it.
            assert_eq!(server_fs.crash(), 0, "the ones are on the disk");

            c.open(fh, true).await.unwrap();
            let reads = counter.get(spritely::proto::NfsProc::Read);
            c.read(fh, 0, block).await.unwrap();
            // Long enough for the read-ahead to get onto the wire, far too
            // short for the disk to answer it.
            s.sleep(SimDuration::from_micros(100)).await;
            c.write(fh, u64::from(block), &vec![2u8; BLOCK_SIZE])
                .await
                .unwrap();
            s.sleep(SimDuration::from_secs(1)).await;
            assert_eq!(
                counter.get(spritely::proto::NfsProc::Read) - reads,
                2,
                "block 0 on demand, block 1 ahead of the reader"
            );
            let (got, _) = c.read(fh, u64::from(block), block).await.unwrap();
            assert!(
                got.iter().all(|&x| x == 2),
                "{protocol:?}: the read-ahead reply must not undo the write"
            );
            c.close(fh, true).await.unwrap();

            c.open(fh, false).await.unwrap();
            let (got, _) = c.read(fh, u64::from(block), block).await.unwrap();
            assert!(
                got.iter().all(|&x| x == 2),
                "{protocol:?}: nor survive a close and reopen"
            );
            c.close(fh, false).await.unwrap();
        });
        sim.run_until(h);
    }
}

#[test]
fn snfs_three_clients_reader_population() {
    // read-only sharing caches everywhere; a late writer invalidates all.
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            ..TestbedParams::default()
        },
        3,
    );
    let clients: Vec<_> = tb
        .clients
        .iter()
        .map(|c| match &c.remote {
            RemoteClient::Snfs(s) => s.clone(),
            _ => panic!("expected SNFS"),
        })
        .collect();
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = clients[0].create(root, "shared").await.unwrap();
        clients[0].open(fh, true).await.unwrap();
        clients[0].write(fh, 0, &[7u8; BLOCK_SIZE]).await.unwrap();
        clients[0].close(fh, true).await.unwrap();
        // All three read (and cache).
        for c in &clients {
            c.open(fh, false).await.unwrap();
            let (got, _) = c.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 7));
            c.close(fh, false).await.unwrap();
        }
        // Client 2 becomes a writer; 0 and 1 reopen and must see the new
        // data even though they had cached copies.
        clients[2].open(fh, true).await.unwrap();
        clients[2].write(fh, 0, &[8u8; BLOCK_SIZE]).await.unwrap();
        clients[2].close(fh, true).await.unwrap();
        for c in &clients[..2] {
            c.open(fh, false).await.unwrap();
            let (got, _) = c.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 8), "version check invalidated");
            c.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
}

#[test]
fn snfs_update_daemon_makes_data_durable_without_sharing() {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        ..TestbedParams::default()
    });
    let c = match &tb.clients[0].remote {
        RemoteClient::Snfs(s) => s.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let fs = tb.server_fs.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            let (fh, _) = c.create(root, "durable").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[5u8; 2 * BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            sim.sleep(SimDuration::from_secs(65)).await;
            let stable = fs.stable_contents(fh).unwrap();
            assert_eq!(stable.len(), 2 * BLOCK_SIZE);
            assert!(
                stable.iter().all(|&b| b == 5),
                "data reached stable storage"
            );
        }
    });
    sim.run_until(h);
}

#[test]
fn snfs_callback_ok_waits_for_the_daemons_write_on_the_wire() {
    // Defect 2 (DESIGN.md §25). A's update daemon sends A's dirty block at
    // 30 s into a partition, so the request is retransmitted a second
    // later. Meanwhile B opens the file, and the server calls A back for
    // the block. A may not answer `ok` while that `write` is still on the
    // wire: it would land after B's newer bytes (as an implicit open by a
    // client that no longer has the file) and put A's older ones back.
    let tb = Testbed::build_with_clients(TestbedParams::paper(Protocol::Snfs, false), 2);
    let (a, b) = two_snfs(&tb);
    let (root, fs, net) = (tb.server_fs.root(), tb.server_fs.clone(), tb.net.clone());
    let sim = tb.sim.clone();
    let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
    let h = sim.spawn({
        let sim = sim.clone();
        let until = move |ms| sim.sleep(at(ms).saturating_duration_since(sim.now()));
        async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            until(29_900).await;
            net.partition(1, PartitionDir::Outbound, at(30_100));
            until(30_500).await;
            let landed = fs.stable_contents(fh).unwrap();
            assert!(landed.is_empty(), "the daemon's write has not landed");
            b.open(fh, true).await.unwrap();
            b.write(fh, 0, &[2u8; BLOCK_SIZE]).await.unwrap();
            b.fsync(fh).await.unwrap();
            b.close(fh, true).await.unwrap();
            until(40_000).await;
            let held = fs.stable_contents(fh).unwrap();
            assert!(
                held == [2u8; BLOCK_SIZE],
                "the server holds {} bytes of {:?}, not B's 2s",
                held.len(),
                held.first()
            );
        }
    });
    sim.run_until(h);
}

/// §6.2 delayed close: a pending close is taken back only by an open of
/// its own mode. Were a read open to take back a pending *write* close,
/// the application's read close would be reported as a read close and the
/// server would keep the write-open for good. After the delayed closes
/// time out, the file is closed at the server whether or not it was read.
#[test]
fn snfs_delayed_close_reports_every_open_it_deferred() {
    for read_after in [false, true] {
        let tb = Testbed::build(TestbedParams {
            protocol: Protocol::SnfsDelayedClose,
            ..TestbedParams::default()
        });
        let RemoteClient::Snfs(a) = tb.clients[0].remote.clone() else {
            panic!("expected an SNFS client");
        };
        let server = tb.snfs_server.clone().expect("SNFS server");
        let root = tb.server_fs.root();
        let sim = tb.sim.clone();
        let h = sim.spawn({
            let sim = sim.clone();
            async move {
                let (fh, _) = a.create(root, "f").await.unwrap();
                a.open(fh, true).await.unwrap();
                a.write(fh, 0, &[5u8; BLOCK_SIZE]).await.unwrap();
                a.close(fh, true).await.unwrap();
                if read_after {
                    a.open(fh, false).await.unwrap();
                    a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
                    a.close(fh, false).await.unwrap();
                }
                sim.sleep(SimDuration::from_secs(400)).await;
                fh
            }
        });
        let fh = sim.run_until(h);
        assert_eq!(
            server.state_of(fh),
            FileState::ClosedDirty,
            "read after the write close: {read_after}"
        );
    }
}
