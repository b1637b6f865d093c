//! Baseline NFS: the stateless client/server pair the paper measures
//! Spritely NFS against.
//!
//! * [`nfs_server`] builds the stateless server endpoint (every `write`
//!   synchronous to disk, no per-client state, `open`/`close` rejected).
//! * [`NfsClient`] implements the vintage reference-port client semantics:
//!   adaptive attribute-cache probes for consistency, `getattr` at open,
//!   write-behind daemons with a synchronous drain at close, delayed
//!   partial-block writes, and (optionally) the invalidate-on-close bug.
//!
//! Consistency caveat reproduced faithfully: NFS only provides
//! *probabilistic* consistency. Within an attribute-cache window a client
//! will serve stale data written concurrently by another client — see the
//! `stale_read_window_exists` test below, and compare with the guarantees
//! tested in `spritely-core`.

pub mod base;
mod client;
mod server;

pub use base::ClientParams;
pub use client::NfsClient;
pub use server::{handle, nfs_server};

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_blockdev::{Disk, DiskParams};
    use spritely_localfs::{FsParams, LocalFs};
    use spritely_metrics::OpCounter;
    use spritely_proto::{ClientId, NfsProc, NfsReply, NfsRequest, NfsStatus, BLOCK_SIZE};
    use spritely_rpcnet::{Caller, CallerParams, Endpoint, EndpointParams, NetParams, Network};
    use spritely_sim::{Resource, Sim};
    use std::cell::Cell;
    use std::rc::Rc;

    /// A one-server test rig with any number of NFS clients.
    struct Rig {
        sim: Sim,
        fs: LocalFs,
        endpoint: Endpoint,
        counter: OpCounter,
        net: Network,
    }

    impl Rig {
        fn new() -> Self {
            let sim = Sim::new();
            let disk = Disk::new(&sim, "sdisk", DiskParams::ra81());
            let fs = LocalFs::new(
                &sim,
                1,
                disk,
                FsParams {
                    cache_blocks: 896, // ~3.5 MB server cache
                },
            );
            let cpu = Resource::new(&sim, "scpu", 1);
            let counter = OpCounter::new();
            let endpoint = nfs_server(
                &sim,
                "nfsd",
                fs.clone(),
                cpu,
                EndpointParams::default(),
                counter.clone(),
            );
            let net = Network::new(&sim, "eth", NetParams::ethernet_10mbit());
            Rig {
                sim,
                fs,
                endpoint,
                counter,
                net,
            }
        }

        /// An NFS client, with the vintage close bug if `invalidate_on_close`.
        fn client(&self, id: u32, invalidate_on_close: bool) -> NfsClient {
            let cpu = Resource::new(&self.sim, format!("ccpu{id}"), 1);
            let caller = Caller::new(
                &self.sim,
                self.net.clone(),
                self.endpoint.clone(),
                ClientId(id),
                cpu,
                CallerParams::default(),
            );
            NfsClient::new(
                &self.sim,
                caller,
                ClientParams::default(),
                invalidate_on_close,
            )
        }
    }

    #[test]
    fn write_close_read_roundtrip() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let sim = rig.sim.clone();
        sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            let data: Vec<u8> = (0..9000u32).map(|i| (i % 253) as u8).collect();
            c.write(fh, 0, &data).await.unwrap();
            c.close(fh, true).await.unwrap();
            c.open(fh, false).await.unwrap();
            let (got, eof) = c.read(fh, 0, 9000).await.unwrap();
            assert_eq!(got, data);
            assert!(eof);
            c.close(fh, false).await.unwrap();
        });
    }

    #[test]
    fn close_drains_writes_to_server_disk() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let fs = rig.fs.clone();
        let sim = rig.sim.clone();
        sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[7u8; 2 * BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            // NFS server wrote synchronously: data is stable immediately.
            let stable = fs.stable_contents(fh).unwrap();
            assert_eq!(stable.len(), 2 * BLOCK_SIZE);
            assert!(stable.iter().all(|&b| b == 7));
            assert_eq!(fs.dirty_blocks(), 0);
        });
    }

    #[test]
    fn open_costs_a_getattr_rpc() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            let before = counter.get(NfsProc::GetAttr);
            c.open(fh, false).await.unwrap();
            assert_eq!(counter.get(NfsProc::GetAttr) - before, 1);
            c.close(fh, false).await.unwrap();
            c.open(fh, false).await.unwrap();
            assert_eq!(
                counter.get(NfsProc::GetAttr) - before,
                2,
                "every open probes"
            );
        });
    }

    #[test]
    fn attribute_cache_suppresses_probes_between_opens() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, false).await.unwrap();
            let before = counter.get(NfsProc::GetAttr);
            // Reads shortly after the open ride the attribute cache.
            for _ in 0..10 {
                let _ = c.read(fh, 0, 10).await.unwrap();
            }
            assert_eq!(counter.get(NfsProc::GetAttr), before);
        });
    }

    #[test]
    fn probe_after_reopen_sees_remote_change() {
        let rig = Rig::new();
        let a = rig.client(1, true);
        let b = rig.client(2, true);
        let root = rig.fs.root();
        let sim = rig.sim.clone();
        sim.block_on(async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            // B reads and caches.
            b.open(fh, false).await.unwrap();
            let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 1));
            b.close(fh, false).await.unwrap();
            // A rewrites.
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[2u8; BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            // B reopens: the open-time probe sees the new mtime and
            // invalidates, so B reads fresh data.
            b.open(fh, false).await.unwrap();
            let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(
                got.iter().all(|&x| x == 2),
                "sequential write-sharing works"
            );
        });
    }

    #[test]
    fn stale_read_window_exists() {
        // The paper's central correctness point: NFS consistency is only
        // probabilistic. While B's attribute cache is fresh, it serves
        // stale data that A has already overwritten at the server.
        let rig = Rig::new();
        let a = rig.client(1, true);
        let b = rig.client(2, false);
        let root = rig.fs.root();
        let sim = rig.sim.clone();
        sim.block_on(async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            b.open(fh, false).await.unwrap();
            let _ = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            // A overwrites while B still holds the file open.
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[2u8; BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            // B re-reads immediately: attribute cache still fresh → stale.
            let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(
                got.iter().all(|&x| x == 1),
                "expected stale data inside the probe window"
            );
        });
    }

    #[test]
    fn invalidate_on_close_bug_forces_rereads() {
        let run = |bug: bool| {
            let rig = Rig::new();
            let c = rig.client(1, bug);
            let root = rig.fs.root();
            let counter = rig.counter.clone();
            rig.sim.block_on(async move {
                let (fh, _) = c.create(root, "f").await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[3u8; 4 * BLOCK_SIZE]).await.unwrap();
                c.close(fh, true).await.unwrap();
                c.open(fh, false).await.unwrap();
                let before = counter.get(NfsProc::Read);
                let (got, _) = c.read(fh, 0, (4 * BLOCK_SIZE) as u32).await.unwrap();
                assert!(got.iter().all(|&b| b == 3));
                counter.get(NfsProc::Read) - before
            })
        };
        let reads_with_bug = run(true);
        let reads_fixed = run(false);
        assert_eq!(reads_with_bug, 4, "cache purged at close → 4 read RPCs");
        assert_eq!(reads_fixed, 0, "fixed client serves reads from cache");
    }

    #[test]
    fn partial_block_writes_are_delayed_until_block_fills() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            let quarter = BLOCK_SIZE / 4;
            for i in 0..3u64 {
                c.write(fh, i * quarter as u64, &vec![9u8; quarter])
                    .await
                    .unwrap();
            }
            assert_eq!(counter.get(NfsProc::Write), 0, "partial writes delayed");
            // Fourth quarter completes the block.
            c.write(fh, 3 * quarter as u64, &vec![9u8; quarter])
                .await
                .unwrap();
            c.close(fh, true).await.unwrap();
            assert_eq!(counter.get(NfsProc::Write), 1, "one full-block RPC");
        });
    }

    #[test]
    fn close_flushes_partial_tail() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let fs = rig.fs.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, b"short").await.unwrap();
            c.close(fh, true).await.unwrap();
            assert_eq!(fs.stable_contents(fh).unwrap(), b"short");
        });
    }

    #[test]
    fn temp_files_still_pay_write_through() {
        // NFS cannot cancel writes on delete: by the time the file is
        // removed, the data has already crossed the wire (§2.1).
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "tmp").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[1u8; 8 * BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            c.remove(root, "tmp", Some(fh)).await.unwrap();
            assert_eq!(counter.get(NfsProc::Write), 8, "all blocks written anyway");
        });
    }

    #[test]
    fn write_behind_overlaps_with_application() {
        // The application hands blocks to biods and continues; a burst of
        // writes takes far less application time than the drain at close.
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let sim = rig.sim.clone();
        let (queued_at, closed_at) = sim.block_on({
            let sim = sim.clone();
            async move {
                let (fh, _) = c.create(root, "f").await.unwrap();
                c.open(fh, true).await.unwrap();
                let t0 = sim.now();
                c.write(fh, 0, &[1u8; 8 * BLOCK_SIZE]).await.unwrap();
                let queued = sim.now() - t0;
                c.close(fh, true).await.unwrap();
                let closed = sim.now() - t0;
                (queued, closed)
            }
        });
        assert!(
            queued_at.as_micros() * 4 < closed_at.as_micros(),
            "write() returned quickly ({queued_at}) vs close ({closed_at})"
        );
    }

    #[test]
    fn fsync_covers_writes_a_second_process_starts_meanwhile() {
        // Two processes on one client, one file. Both wait for the first
        // block's write-behind RPC; the writer, woken first, hands the
        // client a second block before the other's `fsync` gets to run.
        // That `fsync` must not return on the strength of the batch that
        // was outstanding when it was called.
        let rig = Rig::new();
        let c = rig.client(1, true);
        let (root, fs, sim) = (rig.fs.root(), rig.fs.clone(), rig.sim.clone());
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            let acked = Rc::new(Cell::new(BLOCK_SIZE));
            let writer = sim.spawn({
                let (c, acked) = (c.clone(), acked.clone());
                async move {
                    c.fsync(fh).await.unwrap();
                    c.write(fh, BLOCK_SIZE as u64, &[2u8; BLOCK_SIZE])
                        .await
                        .unwrap();
                    acked.set(2 * BLOCK_SIZE);
                }
            });
            let syncer = sim.spawn({
                let c = c.clone();
                async move {
                    c.fsync(fh).await.unwrap();
                    let at_server = fs.stable_contents(fh).unwrap().len();
                    assert_eq!(at_server, acked.get(), "every acknowledged byte");
                    assert_eq!(acked.get(), 2 * BLOCK_SIZE, "the race was run");
                }
            });
            writer.await;
            syncer.await;
            assert!(c.writes().files().is_empty(), "an idle file has no entry");
            c.close(fh, true).await.unwrap();
        });
    }

    #[test]
    fn lookup_goes_to_server_every_time() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            c.create(root, "f").await.unwrap();
            for _ in 0..5 {
                c.lookup(root, "f").await.unwrap();
            }
            assert_eq!(counter.get(NfsProc::Lookup), 5, "no name cache");
        });
    }

    #[test]
    fn stateless_server_rejects_open() {
        let rig = Rig::new();
        let fs = rig.fs.clone();
        rig.sim.block_on(async move {
            let rep = handle(
                &fs,
                NfsRequest::Open {
                    fh: fs.root(),
                    write: false,
                    client: ClientId(1),
                },
            )
            .await;
            assert_eq!(rep, NfsReply::Err(NfsStatus::Inval));
        });
    }

    #[test]
    fn namespace_ops_roundtrip() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        rig.sim.block_on(async move {
            let (d, _) = c.mkdir(root, "dir").await.unwrap();
            let (_f, _) = c.create(d, "a").await.unwrap();
            c.rename(d, "a", d, "b").await.unwrap();
            let names: Vec<_> = c
                .readdir(d)
                .await
                .unwrap()
                .into_iter()
                .map(|e| e.name)
                .collect();
            assert_eq!(names, vec!["b"]);
            c.remove(d, "b", None).await.unwrap();
            c.rmdir(root, "dir").await.unwrap();
            assert_eq!(c.lookup(root, "dir").await.unwrap_err(), NfsStatus::NoEnt);
        });
    }

    #[test]
    fn setattr_truncate_updates_cache_and_size() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.fs.root();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[5u8; 2 * BLOCK_SIZE]).await.unwrap();
            c.fsync(fh).await.unwrap();
            let attr = c.setattr(fh, Some(10)).await.unwrap();
            assert_eq!(attr.size, 10);
            let (got, eof) = c.read(fh, 0, 100).await.unwrap();
            assert_eq!(got.len(), 10);
            assert!(eof);
            c.close(fh, true).await.unwrap();
        });
    }

    #[test]
    fn deterministic_rpc_counts() {
        let run = || {
            let rig = Rig::new();
            let c = rig.client(1, true);
            let root = rig.fs.root();
            let counter = rig.counter.clone();
            rig.sim.block_on(async move {
                let (fh, _) = c.create(root, "f").await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[1u8; 10 * BLOCK_SIZE]).await.unwrap();
                c.close(fh, true).await.unwrap();
                c.open(fh, false).await.unwrap();
                let _ = c.read(fh, 0, (10 * BLOCK_SIZE) as u32).await.unwrap();
                c.close(fh, false).await.unwrap();
                counter.snapshot().total()
            })
        };
        assert_eq!(run(), run());
    }
}
