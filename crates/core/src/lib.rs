//! Spritely NFS (SNFS): the Sprite cache-consistency protocol grafted
//! onto NFS — the paper's primary contribution.
//!
//! The protocol adds three operations to NFS (§3):
//!
//! * **`open`** (client→server): announces an open with its mode; the
//!   server returns whether caching is allowed, plus the file's version
//!   and previous-version numbers;
//! * **`close`** (client→server): announces the end of an open;
//! * **`callback`** (server→client): asks a client to write back and/or
//!   invalidate its cache (or, an extension, to return a delegation).
//!
//! Because the server now *knows* who has each file open and in which
//! mode, non-write-shared files can be cached with **delayed write-back**
//! (no flush on close, cancellation on delete), while write-shared files
//! are made uncachable at every client — giving both better performance
//! and an actual consistency guarantee, which NFS's probabilistic probes
//! cannot (compare the `stale_read_window_exists` test in `spritely-nfs`
//! with `no_stale_reads_under_write_sharing` here).
//!
//! Module map:
//!
//! * [`state_table`] — the pure 7-state transition machine of Table 4-1;
//! * server — the SNFS service: baseline NFS handlers plus `open`/`close`,
//!   callback issuing with the N−1 thread rule, and state-table reclaim;
//! * client — the SNFS client: version-checked caching, delayed
//!   write-back, callback service, write cancellation, delayed close;
//! * [`Remote`] — a client of either protocol, as a mount holds it.

mod client;
pub mod delegation;
mod server;
pub mod state_table;

pub use client::{ClientStats, SnfsClient, WriteBehindParams};
pub use delegation::{DelegationParams, DelegationStats, RecallHistogram};
pub use server::{
    ServerIoParams, ServerStats, ShardOpStats, ShardView, SnfsServer, SnfsServerParams,
};
pub use state_table::{
    CallbackNeeded, ClientOpens, Deleg, FileState, OpenOutcome, ReclaimOutcome, StateTable,
};

/// A remote file system's client, of either protocol. Every namespace
/// procedure is their shared base's, reached through `Deref`; they differ
/// only in `open`, `close`, `read`, `write`, `fsync` and `getattr` (§3).
#[derive(Clone)]
pub enum Remote {
    /// Baseline NFS.
    Nfs(spritely_nfs::NfsClient),
    /// Spritely NFS.
    Snfs(SnfsClient),
}

impl std::ops::Deref for Remote {
    type Target = spritely_nfs::base::ClientBase;

    fn deref(&self) -> &Self::Target {
        match self {
            Remote::Nfs(c) => c,
            Remote::Snfs(c) => c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_blockdev::{Disk, DiskParams};
    use spritely_localfs::{FsParams, LocalFs};
    use spritely_metrics::OpCounter;
    use spritely_nfs::ClientParams;
    use spritely_proto::{ClientId, NfsProc, BLOCK_SIZE};
    use spritely_rpcnet::{Caller, CallerParams, Endpoint, EndpointParams, NetParams, Network};
    use spritely_sim::{Resource, Sim, SimDuration};

    struct Rig {
        sim: Sim,
        server: SnfsServer,
        counter: OpCounter,
        net: Network,
        endpoint: Endpoint,
        server_cpu: Resource,
    }

    const SERVER_THREADS: usize = 4;

    impl Rig {
        fn new() -> Self {
            Self::with_server_params(SnfsServerParams::default(), DelegationParams::paper())
        }

        fn with_server_params(sp: SnfsServerParams, delegation: DelegationParams) -> Self {
            let sim = Sim::new();
            let disk = Disk::new(&sim, "sdisk", DiskParams::ra81());
            let fs = LocalFs::new(&sim, 1, disk, FsParams { cache_blocks: 896 });
            let ep = EndpointParams {
                threads: SERVER_THREADS,
                ..EndpointParams::default()
            };
            let server = SnfsServer::new(&sim, fs, ep, sp, delegation);
            let server_cpu = Resource::new(&sim, "scpu", 1);
            let counter = OpCounter::new();
            let endpoint = server.endpoint("snfsd", server_cpu.clone(), counter.clone());
            let net = Network::new(&sim, "eth", NetParams::ethernet_10mbit());
            Rig {
                sim,
                server,
                counter,
                net,
                endpoint,
                server_cpu,
            }
        }

        /// An SNFS client, with the §6.2 extension if `delayed_close`.
        fn client(&self, id: u32, delayed_close: bool) -> SnfsClient {
            let cpu = Resource::new(&self.sim, format!("ccpu{id}"), 1);
            let caller = Caller::new(
                &self.sim,
                self.net.clone(),
                self.endpoint.clone(),
                ClientId(id),
                cpu.clone(),
                CallerParams::default(),
            );
            let params = ClientParams::default();
            let wb = WriteBehindParams::default();
            let client = SnfsClient::new(&self.sim, caller, params, wb, delayed_close);
            // Register the callback channel: server → this client.
            let cb_endpoint = client.callback_endpoint(
                format!("cbsrv{id}"),
                cpu,
                EndpointParams {
                    threads: 2,
                    ..EndpointParams::default()
                },
                self.counter.clone(),
            );
            let cb_caller = Caller::new(
                &self.sim,
                self.net.clone(),
                cb_endpoint,
                ClientId(0), // the server's "client id" on the callback channel
                self.server_cpu.clone(),
                CallerParams::default(),
            );
            self.server.register_client(ClientId(id), cb_caller);
            client
        }

        fn root(&self) -> spritely_proto::FileHandle {
            self.server.fs().root()
        }

        /// Marks a client's callback service dead (crash modelling).
        fn kill_callbacks(&self, client: &SnfsClient) {
            let dead = client.callback_endpoint(
                "dead",
                self.server_cpu.clone(),
                EndpointParams::default(),
                OpCounter::new(),
            );
            dead.set_alive(false);
            let caller = Caller::new(
                &self.sim,
                self.net.clone(),
                dead,
                ClientId(0),
                self.server_cpu.clone(),
                CallerParams {
                    timeout: SimDuration::from_millis(200),
                    max_retries: 1,
                    cpu_per_call: SimDuration::ZERO,
                },
            );
            self.server.register_client(client.client_id(), caller);
        }
    }

    #[test]
    fn close_does_not_flush_and_daemon_writes_back() {
        let rig = Rig::new();
        let c = rig.client(1, false);
        c.spawn_update_daemon();
        let root = rig.root();
        let counter = rig.counter.clone();
        let fs = rig.server.fs().clone();
        let sim = rig.sim.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let (fh, _) = c.create(root, "f").await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[7u8; 3 * BLOCK_SIZE]).await.unwrap();
                c.close(fh, true).await.unwrap();
                assert_eq!(counter.get(NfsProc::Write), 0, "no flush at close");
                assert_eq!(c.dirty_blocks(), 3);
                // After the 30 s write-delay plus a daemon tick, the data
                // arrives at the server.
                sim.sleep(SimDuration::from_secs(61)).await;
                assert_eq!(counter.get(NfsProc::Write), 3);
                assert_eq!(c.dirty_blocks(), 0);
                let stable = fs.stable_contents(fh).unwrap();
                assert!(stable.iter().all(|&b| b == 7));
            }
        });
    }

    #[test]
    fn deleted_temp_file_never_writes() {
        let rig = Rig::new();
        let c = rig.client(1, false);
        c.spawn_update_daemon();
        let root = rig.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "tmp").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[1u8; 8 * BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            c.remove(root, "tmp", Some(fh)).await.unwrap();
            assert_eq!(counter.get(NfsProc::Write), 0, "writes averted entirely");
            assert_eq!(c.stats().cancelled_blocks, 8);
        });
    }

    #[test]
    fn cache_survives_reopen_via_version_numbers() {
        // Contrast with the NFS invalidate-on-close bug: SNFS re-validates
        // by version and keeps the cache.
        let rig = Rig::new();
        let c = rig.client(1, false);
        let root = rig.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[3u8; 4 * BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            // Reopen read: version check passes.
            c.open(fh, false).await.unwrap();
            let before = counter.get(NfsProc::Read);
            let (got, _) = c.read(fh, 0, (4 * BLOCK_SIZE) as u32).await.unwrap();
            assert!(got.iter().all(|&b| b == 3));
            assert_eq!(counter.get(NfsProc::Read), before, "served from cache");
            c.close(fh, false).await.unwrap();
        });
    }

    #[test]
    fn writer_reopen_for_write_keeps_cache_via_prev_version() {
        let rig = Rig::new();
        let c = rig.client(1, false);
        let root = rig.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[3u8; 2 * BLOCK_SIZE]).await.unwrap();
            c.close(fh, true).await.unwrap();
            c.open(fh, true).await.unwrap(); // version bumps; prev matches
            let before = counter.get(NfsProc::Read);
            let (got, _) = c.read(fh, 0, (2 * BLOCK_SIZE) as u32).await.unwrap();
            assert!(got.iter().all(|&b| b == 3));
            assert_eq!(counter.get(NfsProc::Read), before);
            c.close(fh, true).await.unwrap();
        });
    }

    #[test]
    fn sequential_sharing_forces_writeback_callback() {
        // A wrote and closed (dirty). B opens: the server calls A back,
        // A's data lands at the server, B reads it correctly.
        let rig = Rig::new();
        let a = rig.client(1, false);
        let b = rig.client(2, false);
        let root = rig.root();
        let server = rig.server.clone();
        rig.sim.block_on(async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[9u8; 2 * BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            assert_eq!(a.dirty_blocks(), 2);
            assert_eq!(server.state_of(fh), FileState::ClosedDirty);
            // B opens read: callback(writeback) to A happens inside.
            b.open(fh, false).await.unwrap();
            assert_eq!(a.dirty_blocks(), 0, "A was called back");
            assert_eq!(a.stats().callbacks_served, 1);
            let (got, _) = b.read(fh, 0, (2 * BLOCK_SIZE) as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 9), "B sees A's delayed data");
            assert_eq!(server.state_of(fh), FileState::OneReader);
        });
    }

    #[test]
    fn no_stale_reads_under_write_sharing() {
        // The guarantee NFS lacks: with A holding the file open for write
        // and B reading concurrently, B always sees A's latest bytes.
        let rig = Rig::new();
        let a = rig.client(1, false);
        let b = rig.client(2, false);
        let root = rig.root();
        let server = rig.server.clone();
        rig.sim.block_on(async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            // B arrives while A is writing: write-shared, nobody caches.
            b.open(fh, false).await.unwrap();
            assert_eq!(server.state_of(fh), FileState::WriteShared);
            let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 1), "A's pre-share data visible");
            // A writes more — now write-through, so B sees it immediately.
            a.write(fh, 0, &[2u8; BLOCK_SIZE]).await.unwrap();
            let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 2), "no stale window");
            a.close(fh, true).await.unwrap();
            b.close(fh, false).await.unwrap();
        });
    }

    #[test]
    fn readers_invalidated_when_writer_arrives() {
        let rig = Rig::new();
        let a = rig.client(1, false);
        let b = rig.client(2, false);
        let root = rig.root();
        rig.sim.block_on(async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            // A reopens read and caches.
            a.open(fh, false).await.unwrap();
            let _ = a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            // B opens for write → A gets an invalidate callback.
            b.open(fh, true).await.unwrap();
            assert!(a.stats().invalidations >= 1);
            b.write(fh, 0, &[5u8; BLOCK_SIZE]).await.unwrap();
            // A reads again: must go through to the server and see B's data.
            let (got, _) = a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 5));
            a.close(fh, false).await.unwrap();
            b.close(fh, true).await.unwrap();
        });
    }

    #[test]
    fn open_close_rpc_accounting() {
        let rig = Rig::new();
        let c = rig.client(1, false);
        let root = rig.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            for _ in 0..3 {
                c.open(fh, false).await.unwrap();
                c.close(fh, false).await.unwrap();
            }
            assert_eq!(counter.get(NfsProc::Open), 3);
            assert_eq!(counter.get(NfsProc::Close), 3);
            assert_eq!(counter.get(NfsProc::GetAttr), 0, "open subsumes getattr");
        });
    }

    #[test]
    fn a_default_client_serves_opens_under_the_servers_grants() {
        // Only the server switches delegations: a client built from the
        // defaults holds, and serves opens from, whatever it is granted.
        let rig =
            Rig::with_server_params(SnfsServerParams::default(), DelegationParams::pipelined());
        let c = rig.client(1, false);
        let root = rig.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "f").await.unwrap();
            for _ in 0..3 {
                c.open(fh, false).await.unwrap();
                c.close(fh, false).await.unwrap();
            }
            assert_eq!(counter.get(NfsProc::Open), 1, "later opens are local");
            assert_eq!(c.delegation_stats().local_opens, 2);
        });
    }

    #[test]
    fn delayed_close_avoids_reopen_rpcs() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.root();
        let counter = rig.counter.clone();
        rig.sim.block_on(async move {
            let (fh, _) = c.create(root, "hdr").await.unwrap();
            // The "popular header file" pattern of §5.1/§6.2.
            for _ in 0..10 {
                c.open(fh, false).await.unwrap();
                let _ = c.read(fh, 0, 10).await.unwrap();
                c.close(fh, false).await.unwrap();
            }
            assert_eq!(counter.get(NfsProc::Open), 1, "only the first open pays");
            assert_eq!(counter.get(NfsProc::Close), 0, "closes all deferred");
            assert_eq!(c.stats().local_reopens, 9);
        });
    }

    #[test]
    fn delayed_close_reports_spontaneously() {
        let rig = Rig::new();
        let c = rig.client(1, true);
        let root = rig.root();
        let counter = rig.counter.clone();
        let server = rig.server.clone();
        let sim = rig.sim.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                let (fh, _) = c.create(root, "f").await.unwrap();
                c.open(fh, false).await.unwrap();
                c.close(fh, false).await.unwrap();
                assert_eq!(counter.get(NfsProc::Close), 0);
                assert_eq!(server.state_of(fh), FileState::OneReader);
                // The delayed close lingers 180 s.
                sim.sleep(SimDuration::from_secs(179)).await;
                assert_eq!(counter.get(NfsProc::Close), 0);
                sim.sleep(SimDuration::from_secs(2)).await;
                assert_eq!(counter.get(NfsProc::Close), 1, "spontaneous close");
                assert_eq!(server.state_of(fh), FileState::Closed);
            }
        });
    }

    #[test]
    fn crashed_client_does_not_block_opens() {
        let rig = Rig::new();
        let a = rig.client(1, false);
        let b = rig.client(2, false);
        let root = rig.root();
        let server = rig.server.clone();
        let sim = rig.sim.clone();
        sim.block_on(async move {
            let (fh, _) = a.create(root, "f").await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
            a.close(fh, true).await.unwrap();
            // A "crashes": its callback channel stops answering.
            rig.kill_callbacks(&a);
            // B's open must still succeed (§3.2: honor the open). The
            // server now retries the callback past the keepalive
            // horizon before declaring A dead, so B's first attempts
            // time out at the RPC layer and it re-opens — as a real
            // hard-mounted client would.
            let mut opened = false;
            for _ in 0..20 {
                if b.open(fh, false).await.is_ok() {
                    opened = true;
                    break;
                }
            }
            assert!(opened, "open honored despite dead client");
            assert!(server.stats().callbacks_failed >= 1);
            assert!(
                server.callback_retries() >= 1,
                "the dead channel was retried before A was declared crashed"
            );
        });
    }

    #[test]
    fn state_table_limit_triggers_reclaim() {
        let sp = SnfsServerParams {
            table_limit: 8,
            reclaim_target: 4,
        };
        let rig = Rig::with_server_params(sp, DelegationParams::paper());
        let c = rig.client(1, false);
        let root = rig.root();
        let server = rig.server.clone();
        let sim = rig.sim.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                for i in 0..20 {
                    let (fh, _) = c.create(root, &format!("f{i}")).await.unwrap();
                    c.open(fh, false).await.unwrap();
                    c.close(fh, false).await.unwrap();
                }
                // Let the asynchronous reclaim passes run.
                sim.sleep(SimDuration::from_secs(2)).await;
                assert!(
                    server.table_len() <= 8,
                    "table bounded, got {}",
                    server.table_len()
                );
                assert!(server.stats().reclaim_passes >= 1);
            }
        });
    }

    #[test]
    fn reclaim_of_closed_dirty_forces_writeback() {
        let sp = SnfsServerParams {
            table_limit: 4,
            reclaim_target: 2,
        };
        let rig = Rig::with_server_params(sp, DelegationParams::paper());
        let c = rig.client(1, false);
        let root = rig.root();
        let counter = rig.counter.clone();
        let sim = rig.sim.clone();
        sim.block_on({
            let sim = sim.clone();
            async move {
                // Several closed-dirty files.
                for i in 0..6 {
                    let (fh, _) = c.create(root, &format!("f{i}")).await.unwrap();
                    c.open(fh, true).await.unwrap();
                    c.write(fh, 0, &[1u8; BLOCK_SIZE]).await.unwrap();
                    c.close(fh, true).await.unwrap();
                }
                sim.sleep(SimDuration::from_secs(5)).await;
                assert!(
                    counter.get(NfsProc::Write) > 0,
                    "reclaim callbacks forced write-backs"
                );
            }
        });
    }

    #[test]
    fn file_lock_table_is_bounded() {
        // Satellite fix: the per-file lock map used to grow without
        // bound (one semaphore per file handle ever touched). Idle
        // locks for CLOSED files are now garbage-collected.
        let rig = Rig::new();
        let c = rig.client(1, false);
        let root = rig.root();
        let server = rig.server.clone();
        rig.sim.block_on(async move {
            let mut handles = Vec::new();
            for i in 0..32 {
                let (fh, _) = c.create(root, &format!("f{i}")).await.unwrap();
                handles.push(fh);
                c.open(fh, false).await.unwrap();
                c.close(fh, false).await.unwrap();
            }
            assert_eq!(
                server.file_locks_len(),
                0,
                "idle locks for closed files are reclaimed"
            );
            // A file that is still open keeps its lock entry alive.
            c.open(handles[0], true).await.unwrap();
            assert_eq!(server.file_locks_len(), 1);
            c.close(handles[0], true).await.unwrap();
            // Closed-dirty: the entry stays until the write-back lands,
            // but the map never tracks more than the active files.
            assert!(server.file_locks_len() <= 1);
        });
    }

    /// The three services' futures, unpolled: every execution's task
    /// holds its handler's future inline (DESIGN.md §22), queued ones
    /// too — `fleet` queues some 550 at its synchronised start — so these
    /// sizes are peak heap, and up to four emptied cells of each stay
    /// allocated after the queue drains, for the next executions to
    /// reuse (DESIGN.md §15). The cold arms (a callback or recall actually
    /// sent, a cross-shard transaction, a participant's commit) are boxed
    /// where they are awaited and cost the others nothing. An await on a
    /// hot path that grows a future past its bound buys that heap back:
    /// box the cold part, or raise the bound with the measured cost.
    #[test]
    fn handler_futures_stay_inside_their_size_bounds() {
        use crate::client::callback::CallbackService;
        use spritely_proto::NfsRequest;
        use spritely_rpcnet::Handler;
        use std::mem::size_of_val;

        let rig = Rig::new();
        let service = CallbackService(rig.client(1, false));
        let (from, fs) = (ClientId(1), rig.server.fs());
        let snfs = size_of_val(&rig.server.handle(from, 0, NfsRequest::Null));
        let nfs = size_of_val(&spritely_nfs::handle(fs, NfsRequest::Null));
        let callback = size_of_val(&service.serve(from, 0, NfsRequest::Null));
        // Measured: 2,168, 1,488 and 2,256 bytes, debug and release alike.
        let sizes = [
            ("SnfsServer::handle", snfs, 2_200),
            ("spritely_nfs::handle", nfs, 1_500),
            ("CallbackService::serve", callback, 2_300),
        ];
        for (future, size, bound) in sizes {
            println!("{future}: {size} B, bound {bound} B");
            assert!(
                size <= bound,
                "{future}'s future is {size} B, bound {bound} B"
            );
        }
    }

    #[test]
    fn deterministic_elapsed_and_counts() {
        let run = || {
            let rig = Rig::new();
            let a = rig.client(1, false);
            let b = rig.client(2, false);
            let root = rig.root();
            let counter = rig.counter.clone();
            let out = rig.sim.block_on(async move {
                let (fh, _) = a.create(root, "f").await.unwrap();
                a.open(fh, true).await.unwrap();
                a.write(fh, 0, &[1u8; 6 * BLOCK_SIZE]).await.unwrap();
                a.close(fh, true).await.unwrap();
                b.open(fh, false).await.unwrap();
                let _ = b.read(fh, 0, (6 * BLOCK_SIZE) as u32).await.unwrap();
                b.close(fh, false).await.unwrap();
                counter.snapshot().total()
            });
            (out, rig.sim.now().as_micros())
        };
        assert_eq!(run(), run());
    }
}
