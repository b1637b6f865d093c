//! Quickstart: build a Spritely NFS client/server pair by hand, write a
//! file, delete a temp file before its write-back, and watch the RPC and
//! disk counters tell the paper's story.
//!
//! Run with: `cargo run --example quickstart`

use std::rc::Rc;

use spritely::blockdev::{Disk, DiskParams};
use spritely::localfs::{FsParams, LocalFs};
use spritely::metrics::OpCounter;
use spritely::nfs::ClientParams;
use spritely::proto::{ClientId, NfsProc, BLOCK_SIZE};
use spritely::rpcnet::{Caller, CallerParams, EndpointParams, NetParams, Network};
use spritely::sim::{Resource, Sim, SimDuration};
use spritely::snfs::{
    DelegationParams, SnfsClient, SnfsServer, SnfsServerParams, WriteBehindParams,
};

fn main() {
    // 1. A simulation, a server host (CPU + RA81 disk + Unix FS), and a
    //    10 Mbit Ethernet.
    let sim = Sim::new();
    let disk = Disk::new(&sim, "server-disk", DiskParams::ra81());
    let fs = LocalFs::new(&sim, 1, disk, FsParams::default());
    fs.spawn_update_daemon();
    let server_cpu = Resource::new(&sim, "server-cpu", 1);
    let net = Network::new(&sim, "ether", NetParams::ethernet_10mbit());

    // 2. The Spritely NFS server (paper defaults, no delegations) and the
    //    RPC endpoint it serves through.
    let (ep, sp) = (EndpointParams::default(), SnfsServerParams::default());
    let server = SnfsServer::new(&sim, fs.clone(), ep, sp, DelegationParams::paper());
    let counter = OpCounter::new();
    let endpoint = server.endpoint("snfsd", server_cpu.clone(), counter.clone());

    // 3. A client host with an SNFS client, plus the callback channel the
    //    server uses to reach it.
    let client_cpu = Resource::new(&sim, "client-cpu", 1);
    let caller = Caller::new(
        &sim,
        net.clone(),
        endpoint,
        ClientId(1),
        client_cpu.clone(),
        CallerParams::default(),
    );
    let (params, wb) = (ClientParams::default(), WriteBehindParams::default());
    let client = SnfsClient::new(&sim, caller, params, wb, false);
    client.spawn_update_daemon();
    let cb_endpoint = client.callback_endpoint(
        "cbsrv",
        client_cpu,
        EndpointParams::default(),
        OpCounter::new(),
    );
    let cb_caller = Caller::new(
        &sim,
        net,
        cb_endpoint,
        ClientId(0),
        server_cpu,
        CallerParams::default(),
    );
    server.register_client(ClientId(1), cb_caller);

    // 4. Use it like a file system.
    let root = fs.root();
    let c = Rc::new(client);
    let sim2 = sim.clone();
    let c2 = Rc::clone(&c);
    let counter2 = counter.clone();
    sim.block_on(async move {
        // A file that lives: written, closed — and *not* flushed at close.
        let (fh, _) = c2.create(root, "report.txt").await.unwrap();
        c2.open(fh, true).await.unwrap();
        c2.write(fh, 0, b"consistency and performance, together")
            .await
            .unwrap();
        c2.close(fh, true).await.unwrap();
        println!(
            "[{}] closed report.txt: write RPCs so far = {} (delayed write-back!)",
            sim2.now(),
            counter2.get(NfsProc::Write)
        );

        // A temp file that dies young: its data never crosses the wire.
        let (tmp, _) = c2.create(root, "scratch.tmp").await.unwrap();
        c2.open(tmp, true).await.unwrap();
        c2.write(tmp, 0, &vec![0u8; 16 * BLOCK_SIZE]).await.unwrap();
        c2.close(tmp, true).await.unwrap();
        c2.remove(root, "scratch.tmp", Some(tmp)).await.unwrap();
        println!(
            "[{}] deleted scratch.tmp: {} dirty blocks cancelled, write RPCs = {}",
            sim2.now(),
            c2.stats().cancelled_blocks,
            counter2.get(NfsProc::Write)
        );

        // Let the 30 s update daemon write report.txt back.
        sim2.sleep(SimDuration::from_secs(35)).await;
        println!(
            "[{}] after the update tick: write RPCs = {} (report.txt only)",
            sim2.now(),
            counter2.get(NfsProc::Write)
        );

        // Reopen and read: version numbers validate the cache, so the read
        // is served locally.
        let reads_before = counter2.get(NfsProc::Read);
        c2.open(fh, false).await.unwrap();
        let (data, _) = c2.read(fh, 0, 100).await.unwrap();
        c2.close(fh, false).await.unwrap();
        println!(
            "[{}] reopened and read {:?}... with {} read RPCs (cache kept across close)",
            sim2.now(),
            String::from_utf8_lossy(&data[..11.min(data.len())]),
            counter2.get(NfsProc::Read) - reads_before
        );
    });

    println!("\nRPC totals:");
    for (p, n) in counter.snapshot().nonzero() {
        println!("  {p:<8} {n}");
    }
    println!("server disk writes: {}", fs.disk().stats().writes);
}
