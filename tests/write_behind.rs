//! The client write-behind pool and the server callback fan-out:
//! determinism of pipelined flushes, consistency under write sharing,
//! and the N−1 concurrent-callback bound (paper §3.2).

use std::cell::RefCell;
use std::rc::Rc;

use spritely::harness::{
    scripts, ClientParams, Protocol, RemoteClient, Testbed, TestbedParams, WriteBehindParams,
};
use spritely::metrics::OpCounts;
use spritely::proto::{NfsProc, BLOCK_SIZE};
use spritely::sim::SimDuration;
use spritely::snfs::SnfsClient;

fn snfs_client(tb: &Testbed, i: usize) -> SnfsClient {
    match &tb.clients[i].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected an SNFS client"),
    }
}

/// One full pipelined-flush scenario: dirty 64 blocks, fsync, drain.
/// Returns everything an RPC trace would distinguish: per-procedure op
/// counts, the flush's simulated duration, the file's final bytes on the
/// server, and the server disk's write requests during the flush.
fn pipelined_flush_scenario() -> (OpCounts, SimDuration, Vec<u8>, u64) {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        update_enabled: false,
        write_behind: WriteBehindParams::pipelined(),
        ..TestbedParams::default()
    });
    let c = snfs_client(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let fs = tb.server_fs.clone();
    let h = sim.spawn({
        let (sim, fs) = (sim.clone(), fs.clone());
        async move {
            let (fh, _) = c.create(root, "wb").await.unwrap();
            c.open(fh, true).await.unwrap();
            let data: Vec<u8> = (0..64 * BLOCK_SIZE).map(|i| (i % 239) as u8).collect();
            c.write(fh, 0, &data).await.unwrap();
            let (t0, writes) = (sim.now(), fs.disk().stats().writes);
            c.fsync(fh).await.unwrap();
            let dt = sim.now().saturating_duration_since(t0);
            let writes = fs.disk().stats().writes - writes;
            c.close(fh, true).await.unwrap();
            (fh, dt, writes)
        }
    });
    let (fh, dt, writes) = sim.run_until(h);
    let bytes = sim.block_on(async move {
        fs.read(fh, 0, (64 * BLOCK_SIZE) as u32)
            .await
            .expect("server read")
            .0
            .to_vec()
    });
    (tb.counter.snapshot(), dt, bytes, writes)
}

#[test]
fn pipelined_flush_is_deterministic() {
    let (ops_a, dt_a, bytes_a, _) = pipelined_flush_scenario();
    let (ops_b, dt_b, bytes_b, _) = pipelined_flush_scenario();
    assert_eq!(ops_a, ops_b, "identical RPC counts per procedure");
    assert_eq!(dt_a, dt_b, "identical simulated flush duration");
    assert_eq!(bytes_a, bytes_b, "identical final server state");
    let expected: Vec<u8> = (0..64 * BLOCK_SIZE).map(|i| (i % 239) as u8).collect();
    assert_eq!(bytes_a, expected, "the flushed data is the data written");
}

#[test]
fn a_gathered_write_is_one_server_disk_request() {
    // The 64 blocks leave in four 16-block writes. The server writes each
    // one's blocks, at consecutive addresses, as one disk request, then
    // the inode: 4 + 4 requests, where one request per block made 64 + 4.
    let (ops, _, _, disk_writes) = pipelined_flush_scenario();
    assert_eq!(ops.get(NfsProc::Write), 4);
    assert_eq!(disk_writes, 4 + 4);
}

#[test]
fn a_flush_run_is_in_the_ledger_exactly_while_it_is_on_the_wire() {
    // An fsync of 64 dirty blocks: four 16-block runs compete for the
    // pool's four slots and two in-flight permits, so two runs wait while
    // two are on the wire. A callback waits out the ledger, so the runs on
    // the wire must be in it; the queued ones must not be, or the callback
    // would wait behind the pool it bypasses.
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        update_enabled: false,
        write_behind: WriteBehindParams::pipelined(),
        ..TestbedParams::default()
    });
    let c = snfs_client(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let samples = Rc::new(RefCell::new(Vec::new()));
    sim.spawn({
        let (c, sim, samples) = (c.clone(), sim.clone(), samples.clone());
        async move {
            loop {
                let ledgered = c.writes().in_flight() as u64;
                samples
                    .borrow_mut()
                    .push((ledgered, c.write_stats().on_wire));
                sim.sleep(SimDuration::from_micros(100)).await;
            }
        }
    });
    let h = sim.spawn(async move {
        let (fh, _) = c.create(root, "runs").await.unwrap();
        c.open(fh, true).await.unwrap();
        c.write(fh, 0, &[3u8; 64 * BLOCK_SIZE]).await.unwrap();
        c.fsync(fh).await.unwrap();
        c.close(fh, true).await.unwrap();
    });
    sim.run_until(h);
    let samples = samples.borrow();
    let ledgered = samples.iter().map(|s| s.0).max();
    assert_eq!(ledgered, Some(2), "two runs on the wire at once");
    let (ledgered, on_wire): (Vec<u64>, Vec<u64>) = samples.iter().copied().unzip();
    assert_eq!(ledgered, on_wire, "the ledger counts the runs on the wire");
}

#[test]
fn write_shared_file_stays_uncached_and_ungathered() {
    // Two clients writing the same file: the server disables caching,
    // so writes go through synchronously — none of them may sit dirty
    // in a cache or travel through the write-behind pool.
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            update_enabled: false,
            write_behind: WriteBehindParams::pipelined(),
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = (snfs_client(&tb, 0), snfs_client(&tb, 1));
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let (a, b) = (a.clone(), b.clone());
        async move {
            let (fh, _) = a.create(root, "shared").await.unwrap();
            a.open(fh, true).await.unwrap();
            b.open(fh, true).await.unwrap();
            a.write(fh, 0, &[1u8; 4 * BLOCK_SIZE]).await.unwrap();
            b.write(fh, 4 * BLOCK_SIZE as u64, &[2u8; 4 * BLOCK_SIZE])
                .await
                .unwrap();
            // Each sees the other's writes immediately (write-through +
            // read-through).
            let (got, _) = a
                .read(fh, 4 * BLOCK_SIZE as u64, BLOCK_SIZE as u32)
                .await
                .unwrap();
            assert!(got.iter().all(|&x| x == 2), "A reads B's write");
            let (got, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(got.iter().all(|&x| x == 1), "B reads A's write");
            a.close(fh, true).await.unwrap();
            b.close(fh, true).await.unwrap();
        }
    });
    sim.run_until(h);
    for (name, c) in [("A", &a), ("B", &b)] {
        assert_eq!(c.dirty_blocks(), 0, "{name}: nothing delayed");
        assert_eq!(
            c.write_stats().writes,
            0,
            "{name}: write-through bypasses the write-behind pool"
        );
        assert_eq!(c.stats().writeback_failures, 0, "{name}: no failures");
    }
}

#[test]
fn callback_fan_out_respects_n_minus_one_bound() {
    // Six clients cache a file as readers; a seventh opens it for
    // write, so the server owes six invalidate callbacks at once. They
    // fan out concurrently but may never exceed the N−1 = 3 callback
    // slots (ServerIoParams::paper().service_threads = 4, paper §3.2).
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            update_enabled: false,
            ..TestbedParams::default()
        },
        7,
    );
    let readers: Vec<SnfsClient> = (0..6).map(|i| snfs_client(&tb, i)).collect();
    let writer = snfs_client(&tb, 6);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let readers = readers.clone();
        let writer = writer.clone();
        async move {
            let (fh, _) = readers[0].create(root, "hot").await.unwrap();
            for r in &readers {
                r.open(fh, false).await.unwrap();
                let _ = r.read(fh, 0, BLOCK_SIZE as u32).await;
            }
            // The write open invalidates every reader before replying.
            writer.open(fh, true).await.unwrap();
            writer.write(fh, 0, &[7u8; BLOCK_SIZE]).await.unwrap();
            writer.close(fh, true).await.unwrap();
            for r in &readers {
                r.close(fh, false).await.unwrap();
            }
        }
    });
    sim.run_until(h);
    let server = tb.snfs_server.as_ref().expect("SNFS server");
    let gauge = server.callback_gauge();
    assert!(
        gauge.peak() >= 2,
        "callbacks did fan out concurrently (peak {})",
        gauge.peak()
    );
    assert!(
        gauge.peak() <= 3,
        "N−1 bound violated: peak {} concurrent callbacks",
        gauge.peak()
    );
    assert_eq!(gauge.current(), 0, "all callbacks completed");
    assert_eq!(server.stats().callbacks_sent, 6, "one per reader");
    assert_eq!(server.stats().callbacks_failed, 0);
    for (i, r) in readers.iter().enumerate() {
        assert_eq!(r.stats().callbacks_served, 1, "reader {i}");
    }
}

#[test]
fn fsync_waits_for_eviction_write_backs() {
    // A cache smaller than the write forces dirty-block evictions whose
    // write-back RPCs proceed in the background. fsync must not return
    // until those land too — a fire-and-forget eviction would let fsync
    // report Ok while the evicted data was still in flight.
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        update_enabled: false,
        client: ClientParams {
            cache_blocks: 4,
            ..ClientParams::default()
        },
        ..TestbedParams::default()
    });
    let c = snfs_client(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let fs = tb.server_fs.clone();
    let data: Vec<u8> = (0..8 * BLOCK_SIZE)
        .map(|i| (i / BLOCK_SIZE + 1) as u8)
        .collect();
    let h = sim.spawn({
        let (c, data) = (c.clone(), data.clone());
        async move {
            let (fh, _) = c.create(root, "evict").await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &data).await.unwrap();
            c.fsync(fh).await.unwrap();
            // At this instant — before any further simulated time — every
            // block must be on the server, the evicted ones included.
            assert_eq!(c.writes().in_flight(), 0, "fsync waited out evictions");
            let (bytes, _, _) = fs.read(fh, 0, (8 * BLOCK_SIZE) as u32).await.unwrap();
            assert_eq!(
                bytes.to_vec(),
                data,
                "server holds all blocks at fsync return"
            );
            c.close(fh, true).await.unwrap();
        }
    });
    sim.run_until(h);
    assert_eq!(c.dirty_blocks(), 0);
    assert_eq!(c.stats().writeback_failures, 0);
    assert_eq!(c.stats().written_back_blocks, 8, "each block written once");
}

#[test]
fn callback_write_back_covers_in_flight_evictions() {
    // The cross-client version of the same ordering: B's open makes the
    // server call A back for its dirty data; the callback may not reply
    // ok until A's in-flight eviction write-backs have landed, or B
    // could read stale bytes.
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            update_enabled: false,
            client: ClientParams {
                cache_blocks: 4,
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        },
        2,
    );
    let (a, b) = (snfs_client(&tb, 0), snfs_client(&tb, 1));
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let (a, b) = (a.clone(), b.clone());
        async move {
            let (fh, _) = a.create(root, "handoff").await.unwrap();
            a.open(fh, true).await.unwrap();
            let data: Vec<u8> = (0..8 * BLOCK_SIZE)
                .map(|i| (i / BLOCK_SIZE + 1) as u8)
                .collect();
            a.write(fh, 0, &data).await.unwrap();
            a.close(fh, true).await.unwrap();
            b.open(fh, false).await.unwrap();
            let (got, _) = b.read(fh, 0, (8 * BLOCK_SIZE) as u32).await.unwrap();
            assert_eq!(got, data, "B sees all of A's data, evicted blocks too");
            b.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    assert!(a.stats().callbacks_served >= 1, "the open did call A back");
    assert_eq!(a.writes().in_flight(), 0);
    assert_eq!(a.stats().writeback_failures, 0);
}

#[test]
fn paper_mode_pool_matches_serial_flush_rpc_for_rpc() {
    // The fidelity contract: with the default (paper-mode) pool the
    // flush is byte-identical to the old serial one — one single-block
    // RPC per dirty block, one in flight, same simulated duration
    // profile as the flush script's own tests assert. Checked here
    // end-to-end through the public script.
    let flush = || {
        let fsync_only = TestbedParams {
            update_enabled: false,
            ..TestbedParams::default()
        };
        scripts::flush(fsync_only, 32)
    };
    let run = flush();
    let client = run.tb.clients[0].remote.snfs().expect("SNFS client");
    assert_eq!(run.ops.get(NfsProc::Write), 32);
    assert_eq!(client.write_stats().peak, 1);
    assert!((client.write_stats().mean_blocks() - 1.0).abs() < 1e-9);
    assert_eq!(run.first(), flush().first(), "deterministic too");
}
