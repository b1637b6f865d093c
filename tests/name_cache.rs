//! The §7 name-cache extension: SNFS keeps name translations consistent
//! with directory invalidate callbacks; NFS's TTL dnlc is faster but can
//! serve stale names — the same probabilistic-vs-guaranteed split as for
//! data.

use spritely::harness::{ClientParams, Protocol, RemoteClient, Testbed, TestbedParams};
use spritely::proto::NfsStatus;
use spritely::sim::SimDuration;

fn two<C: Clone>(tb: &Testbed, pick: impl Fn(&RemoteClient) -> Option<C>) -> (C, C) {
    (
        pick(&tb.clients[0].remote).expect("client 0"),
        pick(&tb.clients[1].remote).expect("client 1"),
    )
}

#[test]
fn snfs_name_cache_hits_and_stays_correct_locally() {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        client: ClientParams {
            name_cache: true,
            ..ClientParams::default()
        },
        ..TestbedParams::default()
    });
    let c = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let counter = tb.counter.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        c.create(root, "f").await.unwrap();
        let (fh1, _) = c.lookup(root, "f").await.unwrap();
        let lookups = counter.get(spritely::proto::NfsProc::Lookup);
        for _ in 0..10 {
            let (fh, _) = c.lookup(root, "f").await.unwrap();
            assert_eq!(fh, fh1);
        }
        assert_eq!(
            counter.get(spritely::proto::NfsProc::Lookup),
            lookups,
            "repeat lookups served locally"
        );
        assert!(c.stats().name_cache_hits >= 10);
        // A local remove must drop the entry immediately.
        c.remove(root, "f", Some(fh1)).await.unwrap();
        assert_eq!(c.lookup(root, "f").await.unwrap_err(), NfsStatus::NoEnt);
    });
    sim.run_until(h);
}

#[test]
fn snfs_name_cache_is_invalidated_by_remote_namespace_changes() {
    // Client A caches the translation; client B removes the file. A's
    // next lookup must see NoEnt *immediately* — the server invalidated
    // A's directory entries before acknowledging B's remove.
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
    let (a, b) = two(&tb, |r| match r {
        RemoteClient::Snfs(c) => Some(c.clone()),
        _ => None,
    });
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = a.create(root, "shared").await.unwrap();
        // A populates its name cache.
        let _ = a.lookup(root, "shared").await.unwrap();
        let _ = a.lookup(root, "shared").await.unwrap();
        assert!(a.stats().name_cache_hits >= 1);
        // B removes the file.
        b.remove(root, "shared", Some(fh)).await.unwrap();
        // A must not resolve the stale name.
        assert_eq!(
            a.lookup(root, "shared").await.unwrap_err(),
            NfsStatus::NoEnt,
            "SNFS name cache must never serve a stale translation"
        );
    });
    sim.run_until(h);
}

#[test]
fn snfs_name_cache_sees_remote_renames() {
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
    let (a, b) = two(&tb, |r| match r {
        RemoteClient::Snfs(c) => Some(c.clone()),
        _ => None,
    });
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = a.create(root, "old").await.unwrap();
        let _ = a.lookup(root, "old").await.unwrap();
        b.rename(root, "old", root, "new").await.unwrap();
        assert_eq!(a.lookup(root, "old").await.unwrap_err(), NfsStatus::NoEnt);
        let (fh2, _) = a.lookup(root, "new").await.unwrap();
        assert_eq!(fh, fh2, "same file under its new name");
    });
    sim.run_until(h);
}

#[test]
fn nfs_dnlc_can_serve_stale_names() {
    // The contrast: within the TTL, a removed file still resolves at
    // another client. (This is the behaviour "more extensive caching of
    // name translations" bought in post-1989 NFS, §5.2.)
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Nfs,
            client: ClientParams {
                name_cache: true,
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = two(&tb, |r| match r {
        RemoteClient::Nfs(c) => Some(c.clone()),
        _ => None,
    });
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            let (fh, _) = a.create(root, "shared").await.unwrap();
            let _ = a.lookup(root, "shared").await.unwrap();
            b.remove(root, "shared", Some(fh)).await.unwrap();
            // Inside the TTL the stale name still resolves at A.
            let stale = a.lookup(root, "shared").await;
            assert!(stale.is_ok(), "dnlc serves the stale name inside its TTL");
            // After the TTL expires, truth returns.
            sim.sleep(SimDuration::from_secs(31)).await;
            assert_eq!(
                a.lookup(root, "shared").await.unwrap_err(),
                NfsStatus::NoEnt
            );
        }
    });
    sim.run_until(h);
}

#[test]
fn name_cache_cuts_lookup_traffic_without_changing_results() {
    // Same workload, with and without the cache: identical directory
    // contents observed, far fewer lookup RPCs.
    let run = |name_cache: bool| {
        let tb = Testbed::build(TestbedParams {
            protocol: Protocol::Snfs,
            client: ClientParams {
                name_cache,
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        });
        let p = tb.proc();
        let counter = tb.counter.clone();
        let sim = tb.sim.clone();
        let h = sim.spawn(async move {
            use spritely::vfs::OpenFlags;
            p.mkdir("/remote/proj").await.unwrap();
            for i in 0..8 {
                let fd = p
                    .open(&format!("/remote/proj/f{i}"), OpenFlags::create_write())
                    .await
                    .unwrap();
                p.write(fd, b"data").await.unwrap();
                p.close(fd).await.unwrap();
            }
            // Re-stat everything a few times (the ScanDir pattern).
            for _ in 0..5 {
                for i in 0..8 {
                    let st = p.stat(&format!("/remote/proj/f{i}")).await.unwrap();
                    assert_eq!(st.size, 4);
                }
            }
            counter.get(spritely::proto::NfsProc::Lookup)
        });
        sim.run_until(h)
    };
    let without = run(false);
    let with = run(true);
    assert!(
        with * 3 < without,
        "expected a large lookup reduction: {with} vs {without}"
    );
}
