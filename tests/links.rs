//! Hard links and symbolic links through the whole stack (RFC 1094
//! LINK/SYMLINK/READLINK): local FS, baseline NFS, and SNFS — including
//! the interplay with delayed-write cancellation and the consistent name
//! cache.

use spritely::harness::{
    ClientParams, DelegationParams, Protocol, RemoteClient, Testbed, TestbedParams,
};
use spritely::proto::{FileType, NfsStatus, BLOCK_SIZE};
use spritely::sim::SimDuration;
use spritely::snfs::Remote;
use spritely::vfs::OpenFlags;

fn testbed(protocol: Protocol) -> Testbed {
    Testbed::build(TestbedParams {
        protocol,
        ..TestbedParams::default()
    })
}

#[test]
fn symlink_resolution_follows_and_lstat_does_not() {
    for protocol in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
        let tb = testbed(protocol);
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = sim.spawn(async move {
            let fd = p
                .open("/remote/real", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, b"payload").await.unwrap();
            p.close(fd).await.unwrap();
            p.symlink("/remote/real", "/remote/alias").await.unwrap();
            // stat follows.
            let st = p.stat("/remote/alias").await.unwrap();
            assert_eq!(st.ftype, FileType::Regular, "{protocol:?}");
            assert_eq!(st.size, 7);
            // lstat does not.
            let lst = p.lstat("/remote/alias").await.unwrap();
            assert_eq!(lst.ftype, FileType::Symlink);
            assert_eq!(p.readlink("/remote/alias").await.unwrap(), "/remote/real");
            // open follows: reading through the alias sees the payload.
            let fd = p.open("/remote/alias", OpenFlags::read()).await.unwrap();
            assert_eq!(p.read(fd, 100).await.unwrap(), b"payload");
            p.close(fd).await.unwrap();
        });
        sim.run_until(h);
    }
}

#[test]
fn relative_symlinks_resolve_against_their_directory() {
    let tb = testbed(Protocol::Snfs);
    let p = tb.proc();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        p.mkdir("/remote/a").await.unwrap();
        p.mkdir("/remote/a/b").await.unwrap();
        let fd = p
            .open("/remote/a/target.txt", OpenFlags::create_write())
            .await
            .unwrap();
        p.write(fd, b"x").await.unwrap();
        p.close(fd).await.unwrap();
        // ../target.txt from inside /remote/a/b.
        p.symlink("../target.txt", "/remote/a/b/rel").await.unwrap();
        let st = p.stat("/remote/a/b/rel").await.unwrap();
        assert_eq!(st.size, 1);
        // A dotted chain: ./b/rel from /remote/a.
        p.symlink("./b/rel", "/remote/a/chain").await.unwrap();
        assert_eq!(p.stat("/remote/a/chain").await.unwrap().size, 1);
    });
    sim.run_until(h);
}

#[test]
fn symlink_loops_are_cut() {
    let tb = testbed(Protocol::Local);
    let p = tb.proc();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        p.symlink("/remote/loop_b", "/remote/loop_a").await.unwrap();
        p.symlink("/remote/loop_a", "/remote/loop_b").await.unwrap();
        assert_eq!(
            p.stat("/remote/loop_a").await.unwrap_err(),
            NfsStatus::Inval,
            "ELOOP equivalent"
        );
    });
    sim.run_until(h);
}

#[test]
fn dangling_symlinks_stat_noent_but_lstat_ok() {
    let tb = testbed(Protocol::Nfs);
    let p = tb.proc();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        p.symlink("/remote/nowhere", "/remote/dangling")
            .await
            .unwrap();
        assert_eq!(
            p.stat("/remote/dangling").await.unwrap_err(),
            NfsStatus::NoEnt
        );
        assert_eq!(
            p.lstat("/remote/dangling").await.unwrap().ftype,
            FileType::Symlink
        );
        // Removing the dangling link works like removing any file.
        p.unlink("/remote/dangling").await.unwrap();
        assert_eq!(
            p.lstat("/remote/dangling").await.unwrap_err(),
            NfsStatus::NoEnt
        );
    });
    sim.run_until(h);
}

#[test]
fn hard_links_share_the_inode() {
    for protocol in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
        let tb = testbed(protocol);
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = sim.spawn(async move {
            let fd = p
                .open("/remote/one", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, b"shared bytes").await.unwrap();
            p.close(fd).await.unwrap();
            p.link("/remote/one", "/remote/two").await.unwrap();
            let a = p.stat("/remote/one").await.unwrap();
            let b = p.stat("/remote/two").await.unwrap();
            assert_eq!(a.fileid, b.fileid, "{protocol:?}: same inode");
            assert_eq!(a.nlink, 2);
            // Data visible through either name.
            let fd = p.open("/remote/two", OpenFlags::read()).await.unwrap();
            assert_eq!(p.read(fd, 100).await.unwrap(), b"shared bytes");
            p.close(fd).await.unwrap();
            // Removing one name keeps the file alive.
            p.unlink("/remote/one").await.unwrap();
            let b = p.stat("/remote/two").await.unwrap();
            assert_eq!(b.nlink, 1);
            let fd = p.open("/remote/two", OpenFlags::read()).await.unwrap();
            assert_eq!(p.read(fd, 100).await.unwrap(), b"shared bytes");
            p.close(fd).await.unwrap();
        });
        sim.run_until(h);
    }
}

#[test]
fn removing_one_hard_link_does_not_cancel_delayed_writes() {
    // The write-cancellation optimization must respect nlink: dropping
    // one of two names must not throw away dirty data.
    let tb = testbed(Protocol::Snfs);
    let c = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let p = tb.proc();
    let fs = tb.server_fs.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            let fd = p
                .open("/remote/name1", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[9u8; BLOCK_SIZE]).await.unwrap();
            p.close(fd).await.unwrap();
            p.link("/remote/name1", "/remote/name2").await.unwrap();
            assert!(c.dirty_blocks() > 0, "data still delayed");
            p.unlink("/remote/name1").await.unwrap();
            // Wait for the write-back; the data must reach the server.
            sim.sleep(spritely::sim::SimDuration::from_secs(65)).await;
            let st = p.stat("/remote/name2").await.unwrap();
            assert_eq!(st.size, BLOCK_SIZE as u64);
            let (fh, _) = fs.lookup(fs.root(), "name2").unwrap();
            let stable = fs.stable_contents(fh).unwrap();
            assert!(
                stable.iter().all(|&b| b == 9),
                "dirty data survived the unlink of its sibling name"
            );
        }
    });
    sim.run_until(h);
}

#[test]
fn snfs_name_cache_sees_remote_link_and_symlink_creation() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            client: ClientParams {
                name_cache: true,
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = match (&tb.clients[0].remote, &tb.clients[1].remote) {
        (RemoteClient::Snfs(a), RemoteClient::Snfs(b)) => (a.clone(), b.clone()),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = a.create(root, "orig").await.unwrap();
        // A warms its name cache on the directory.
        let _ = a.lookup(root, "orig").await.unwrap();
        assert_eq!(
            a.lookup(root, "newlink").await.unwrap_err(),
            NfsStatus::NoEnt
        );
        // B links a new name; A must be able to resolve it immediately —
        // the directory callback dropped A's (stale) view.
        b.link(fh, root, "newlink").await.unwrap();
        let (via_link, _) = a.lookup(root, "newlink").await.unwrap();
        assert_eq!(via_link, fh);
    });
    sim.run_until(h);
}

/// The client of `tb`'s first host, as a mount holds it.
fn remote(tb: &Testbed) -> Remote {
    match &tb.clients[0].remote {
        RemoteClient::Nfs(c) => Remote::Nfs(c.clone()),
        RemoteClient::Snfs(c) => Remote::Snfs(c.clone()),
        RemoteClient::None => panic!("expected a remote protocol"),
    }
}

/// The base runs `remove` and `setattr`, and each protocol's hooks run
/// where its own wrappers used to. An unlink through `Proc` of a file with
/// cached and dirty state leaves its client holding nothing of it: over
/// NFS no cached block, no partial-write tail and no attribute entry; over
/// SNFS no cached block, no local attributes and no delegation, its dirty
/// blocks counted cancelled. A truncate drops the blocks past the new end.
/// (`removing_one_hard_link_does_not_cancel_delayed_writes` covers a
/// remove that is not the last link.)
#[test]
fn remove_and_truncate_leave_the_client_nothing_past_them() {
    for protocol in [Protocol::Nfs, Protocol::Snfs] {
        let tb = Testbed::build(TestbedParams {
            protocol,
            delegation: DelegationParams::pipelined(),
            ..TestbedParams::default()
        });
        let (p, c, fs) = (tb.proc(), remote(&tb), tb.server_fs.clone());
        let sim = tb.sim.clone();
        let h = sim.spawn({
            let sim = sim.clone();
            async move {
                let cached = |fh| c.cache().keys_matching(|k| k.0 == fh);
                // Two whole blocks at the server, then a partial one that
                // is not (NFS holds it back, SNFS holds it dirty), the file
                // left open. A write still on the wire would note the
                // file's attributes again when it lands.
                let fd = p.open("/remote/doomed", OpenFlags::create_write());
                let fd = fd.await.unwrap();
                p.write(fd, &[1u8; 2 * BLOCK_SIZE]).await.unwrap();
                p.fsync(fd).await.unwrap();
                p.write(fd, &[1u8; 100]).await.unwrap();
                let (fh, _) = fs.lookup(fs.root(), "doomed").unwrap();
                let held = if protocol == Protocol::Nfs { 2 } else { 3 };
                assert_eq!(cached(fh).len(), held, "{protocol:?}");
                p.unlink("/remote/doomed").await.unwrap();
                assert!(cached(fh).is_empty(), "{protocol:?}: no cached block");
                match &c {
                    Remote::Nfs(c) => {
                        let sent = c.write_stats().writes;
                        c.fsync(fh).await.unwrap();
                        assert_eq!(c.write_stats().writes, sent, "no partial-write tail");
                        let attrs = c.probe_attrs(fh, false).await;
                        assert_eq!(attrs, Err(NfsStatus::Stale), "no attribute entry");
                    }
                    Remote::Snfs(c) => {
                        assert_eq!(c.stats().cancelled_blocks, 1, "the dirty block");
                        assert_eq!(c.dirty_blocks(), 0);
                        assert_eq!(c.delegations_held(), 0, "no delegation record");
                        let attrs = c.getattr(fh).await;
                        assert_eq!(attrs, Err(NfsStatus::Stale), "no local attributes");
                    }
                }
                // Two whole blocks, cut to one.
                let fd = p.open("/remote/cut", OpenFlags::create_write());
                let fd = fd.await.unwrap();
                p.write(fd, &[2u8; 2 * BLOCK_SIZE]).await.unwrap();
                if protocol == Protocol::Nfs {
                    sim.sleep(SimDuration::from_secs(1)).await;
                }
                let (fh, _) = fs.lookup(fs.root(), "cut").unwrap();
                assert_eq!(cached(fh).len(), 2, "{protocol:?}");
                c.setattr(fh, Some(BLOCK_SIZE as u64)).await.unwrap();
                assert_eq!(
                    cached(fh),
                    [(fh, 0)],
                    "{protocol:?}: the block past the end"
                );
                if let Remote::Snfs(c) = &c {
                    assert_eq!(c.stats().cancelled_blocks, 1 + 1, "block 1 was dirty");
                }
            }
        });
        sim.run_until(h);
    }
}
