//! Crash behaviour (paper §2.4 / §3.2): what each design loses when a
//! machine dies, and how the SNFS server copes with an unreachable
//! client.

use spritely::harness::{ClientParams, Protocol, RemoteClient, Testbed, TestbedParams};
use spritely::proto::BLOCK_SIZE;
use spritely::sim::SimDuration;

#[test]
fn nfs_close_makes_data_crash_safe() {
    // §2.4: NFS writes synchronously, so once close returns, a client
    // crash loses nothing.
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Nfs,
        ..TestbedParams::default()
    });
    let c = match &tb.clients[0].remote {
        RemoteClient::Nfs(c) => c.clone(),
        _ => panic!("expected NFS"),
    };
    let root = tb.server_fs.root();
    let fs = tb.server_fs.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = c.create(root, "precious").await.unwrap();
        c.open(fh, true).await.unwrap();
        c.write(fh, 0, &[1u8; 2 * BLOCK_SIZE]).await.unwrap();
        c.close(fh, true).await.unwrap();
        // "Client crashes" — but the data is already stable at the server.
        let stable = fs.stable_contents(fh).unwrap();
        assert_eq!(stable.len(), 2 * BLOCK_SIZE);
        assert!(stable.iter().all(|&b| b == 1));
    });
    sim.run_until(h);
}

#[test]
fn snfs_crash_window_is_bounded_by_the_write_delay() {
    // §2.4: SNFS protects like a local Unix FS — data younger than the
    // update interval is vulnerable; after the tick it is durable.
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        ..TestbedParams::default()
    });
    let c = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let fs = tb.server_fs.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            let (fh, _) = c.create(root, "early").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            // Crash *before* the update tick: the server never saw data.
            let stable = fs.stable_contents(fh).unwrap();
            assert!(
                stable.iter().all(|&b| b == 0),
                "pre-tick crash loses the delayed data (as local Unix would)"
            );
            // Survive past the tick instead: now it is durable.
            sim.sleep(SimDuration::from_secs(65)).await;
            let stable = fs.stable_contents(fh).unwrap();
            assert!(stable.iter().all(|&b| b == 1));
        }
    });
    sim.run_until(h);
}

#[test]
fn explicit_fsync_gives_snfs_crash_safety_on_demand() {
    // §2.2: "an application can use explicit file-flushing operations".
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        ..TestbedParams::default()
    });
    let c = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected SNFS"),
    };
    let root = tb.server_fs.root();
    let fs = tb.server_fs.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = c.create(root, "careful").await.unwrap();
        c.open(fh, true).await.unwrap();
        c.write(fh, 0, &[7u8; BLOCK_SIZE]).await.unwrap();
        c.fsync(fh).await.unwrap();
        let stable = fs.stable_contents(fh).unwrap();
        assert!(
            stable.iter().all(|&b| b == 7),
            "fsync forced the write-back"
        );
        c.close(fh, true).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn local_fs_crash_loses_only_delayed_writes() {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Local,
        ..TestbedParams::default()
    });
    let p = tb.proc();
    let local = tb.clients[0].local_fs.clone();
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        use spritely::vfs::OpenFlags;
        let fd = p.open("/f", OpenFlags::create_write()).await.unwrap();
        p.write(fd, &[1u8; BLOCK_SIZE]).await.unwrap();
        p.fsync(fd).await.unwrap();
        p.write_at(fd, BLOCK_SIZE as u64, &[2u8; BLOCK_SIZE])
            .await
            .unwrap();
        p.close(fd).await.unwrap();
        let lost = local.crash();
        assert_eq!(lost, 1, "exactly the un-synced block is lost");
    });
    sim.run_until(h);
}

#[test]
fn snfs_server_survives_client_crash_and_reports_inconsistency() {
    // §3.2: if the client "serving" the callback is down, the server
    // honors the new open but flags possible inconsistency; the dead
    // client's state is dropped.
    use spritely::metrics::OpCounter;
    use spritely::proto::ClientId;
    use spritely::rpcnet::{Caller, CallerParams, EndpointParams};

    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            // Keep A's dirty block un-flushed past the server's
            // callback-retry horizon: with the default 30s delay A's
            // write-back daemon would race the ~30s of callback retries
            // and "rescue" the data over its (healthy) main channel —
            // this test is about the data actually being lost.
            client: ClientParams {
                write_delay: SimDuration::from_secs(300),
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        },
        2,
    );
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
    let sim = tb.sim.clone();
    // Replace A's callback channel with a dead one.
    let kill_a = {
        let sim = sim.clone();
        let net = tb.net.clone();
        let server_cpu = tb.server_cpu.clone();
        let server = server.clone();
        let a = a.clone();
        move || {
            let dead = a.callback_endpoint(
                "dead",
                server_cpu.clone(),
                EndpointParams::default(),
                OpCounter::new(),
            );
            dead.set_alive(false);
            let caller = Caller::new(
                &sim,
                net,
                dead,
                ClientId(0),
                server_cpu,
                CallerParams {
                    timeout: SimDuration::from_millis(200),
                    max_retries: 1,
                    cpu_per_call: SimDuration::ZERO,
                },
            );
            server.register_client(a.client_id(), caller);
        }
    };
    let h = sim.spawn(async move {
        let (fh, _) = a.create(root, "f").await.unwrap();
        a.open(fh, true).await.unwrap();
        a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
        a.close(fh, true).await.unwrap();
        kill_a();
        // B can still open the file. The server retries A's callback
        // past the keepalive horizon before declaring it dead, so B's
        // first ladders run out at the RPC layer and its hard mount calls
        // the open again.
        b.open(fh, false)
            .await
            .expect("open honored despite A being down");
        assert!(server.stats().callbacks_failed >= 1);
        // A's dirty data is lost; B sees the server's (empty) copy and the
        // system keeps functioning.
        let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        assert!(got.is_empty() || got.iter().all(|&x| x == 0));
        b.close(fh, false).await.unwrap();
        // A later write-open supersedes the lost data entirely.
        b.open(fh, true).await.unwrap();
        b.write(fh, 0, &[9u8; BLOCK_SIZE]).await.unwrap();
        b.close(fh, true).await.unwrap();
    });
    sim.run_until(h);
}
