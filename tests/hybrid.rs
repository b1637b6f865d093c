//! §6.1 coexistence: plain NFS clients and SNFS clients sharing one
//! Spritely NFS server. The SNFS server answers the whole NFS vocabulary
//! (its handlers delegate to the baseline service code), and treats NFS
//! accesses to SNFS-open files as implicit opens so both worlds stay
//! consistent.

use std::rc::Rc;

use spritely::blockdev::{Disk, DiskParams};
use spritely::localfs::{FsParams, LocalFs};
use spritely::metrics::OpCounter;
use spritely::nfs::{ClientParams, NfsClient};
use spritely::proto::{ClientId, BLOCK_SIZE};
use spritely::rpcnet::{Caller, CallerParams, EndpointParams, NetParams, Network};
use spritely::sim::{Resource, Sim};
use spritely::snfs::{
    DelegationParams, SnfsClient, SnfsServer, SnfsServerParams, WriteBehindParams,
};

struct HybridRig {
    sim: Sim,
    fs: LocalFs,
    snfs_client: SnfsClient,
    nfs_client: NfsClient,
}

fn rig() -> HybridRig {
    let sim = Sim::new();
    let disk = Disk::new(&sim, "sdisk", DiskParams::ra81());
    let fs = LocalFs::new(&sim, 1, disk, FsParams::default());
    let server_cpu = Resource::new(&sim, "scpu", 1);
    let sp = SnfsServerParams::default();
    let (ep, dp) = (EndpointParams::default(), DelegationParams::paper());
    let server = SnfsServer::new(&sim, fs.clone(), ep, sp, dp);
    let endpoint = server.endpoint("snfsd", server_cpu.clone(), OpCounter::new());
    let net = Network::new(&sim, "eth", NetParams::ethernet_10mbit());
    // SNFS client (id 1) with its callback channel.
    let cpu1 = Resource::new(&sim, "c1", 1);
    let caller1 = Caller::new(
        &sim,
        net.clone(),
        endpoint.clone(),
        ClientId(1),
        cpu1.clone(),
        CallerParams::default(),
    );
    let (params, wb) = (ClientParams::default(), WriteBehindParams::default());
    let snfs_client = SnfsClient::new(&sim, caller1, params, wb, false);
    let cb_ep =
        snfs_client.callback_endpoint("cb1", cpu1, EndpointParams::default(), OpCounter::new());
    let cb_caller = Caller::new(
        &sim,
        net.clone(),
        cb_ep,
        ClientId(0),
        server_cpu,
        CallerParams::default(),
    );
    server.register_client(ClientId(1), cb_caller);
    // Plain NFS client (id 2): same endpoint, no callback channel, no
    // open/close RPCs — it has no idea the server is stateful.
    let cpu2 = Resource::new(&sim, "c2", 1);
    let caller2 = Caller::new(
        &sim,
        net,
        endpoint,
        ClientId(2),
        cpu2,
        CallerParams::default(),
    );
    let nfs_client = NfsClient::new(&sim, caller2, params, true);
    HybridRig {
        sim,
        fs,
        snfs_client,
        nfs_client,
    }
}

#[test]
fn nfs_client_works_against_snfs_server() {
    // The basic §6.1 claim: an SNFS server serves plain NFS unmodified.
    let r = rig();
    let root = r.fs.root();
    let n = r.nfs_client.clone();
    let sim = r.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = n.create(root, "plain").await.unwrap();
        n.open(fh, true).await.unwrap();
        n.write(fh, 0, b"hello from 1984").await.unwrap();
        n.close(fh, true).await.unwrap();
        n.open(fh, false).await.unwrap();
        let (got, _) = n.read(fh, 0, 100).await.unwrap();
        assert_eq!(got, b"hello from 1984");
        n.close(fh, false).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn hybrid_read_pulls_snfs_writers_dirty_data() {
    // An SNFS client holds dirty delayed-write data; a plain NFS client
    // reads the file. With hybrid mode the implicit open triggers the
    // write-back callback, so the NFS client sees current data.
    let r = rig();
    let root = r.fs.root();
    let s = r.snfs_client.clone();
    let n = r.nfs_client.clone();
    let sim = r.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = s.create(root, "shared").await.unwrap();
        s.open(fh, true).await.unwrap();
        s.write(fh, 0, &[3u8; BLOCK_SIZE]).await.unwrap();
        s.close(fh, true).await.unwrap();
        assert!(s.dirty_blocks() > 0);
        // NFS client reads: server sees a foreign access to a closed-dirty
        // file → implicit open → callback → fresh data.
        n.open(fh, false).await.unwrap();
        let (got, _) = n.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        assert!(
            got.iter().all(|&x| x == 3),
            "hybrid server recalled the SNFS client's dirty blocks"
        );
        n.close(fh, false).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn hybrid_nfs_writer_invalidates_snfs_reader() {
    // A caching SNFS reader must not keep serving stale data after a
    // plain NFS client writes the file.
    let r = rig();
    let root = r.fs.root();
    let s = r.snfs_client.clone();
    let n = r.nfs_client.clone();
    let sim = r.sim.clone();
    let h = sim.spawn(async move {
        let (fh, _) = s.create(root, "f").await.unwrap();
        s.open(fh, true).await.unwrap();
        s.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
        s.close(fh, true).await.unwrap();
        // SNFS reopens read-only and caches.
        s.open(fh, false).await.unwrap();
        let _ = s.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        // NFS client writes through (implicit open-for-write → version
        // bump + invalidate callback to the SNFS reader).
        n.open(fh, true).await.unwrap();
        n.write(fh, 0, &[2u8; BLOCK_SIZE]).await.unwrap();
        n.close(fh, true).await.unwrap();
        // SNFS reader must now observe the new data.
        let (got, _) = s.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        assert!(
            got.iter().all(|&x| x == 2),
            "SNFS reader was invalidated by the hybrid write"
        );
        s.close(fh, false).await.unwrap();
    });
    sim.run_until(h);
}

#[test]
fn namespace_interop_is_symmetric() {
    // Files created by either client are visible to the other.
    let r = rig();
    let root = r.fs.root();
    let s = r.snfs_client.clone();
    let n = r.nfs_client.clone();
    let sim = r.sim.clone();
    let h = sim.spawn(async move {
        let (d, _) = s.mkdir(root, "proj").await.unwrap();
        n.create(d, "from_nfs").await.unwrap();
        s.create(d, "from_snfs").await.unwrap();
        let names_n: Vec<_> = n
            .readdir(d)
            .await
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        let names_s: Vec<_> = s
            .readdir(d)
            .await
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names_n, vec!["from_nfs", "from_snfs"]);
        assert_eq!(names_n, names_s);
        let _ = Rc::new(());
    });
    sim.run_until(h);
}
