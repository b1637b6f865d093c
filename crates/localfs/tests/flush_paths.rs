//! Every way a dirty block reaches the disk, pinned: a synchronous
//! `write_payload`, an `fsync`, a `sync_all`, an eviction under cache
//! pressure and a flush (an `fsync`, a synchronous write) racing a
//! `remove`. Each script records the disk's write requests (first block
//! addresses, from the disk's own trace events), [`FsStats`] and the
//! simulator's poll count, so a change to how a block is flushed that
//! moves an await, a disk address or a counter shows here before it shows
//! in a table. A synchronous write sends each run of its blocks at
//! consecutive addresses as one request; the last scripts pin where a run
//! splits, what a rewrite during a run leaves dirty, and that
//! `flushed_blocks` counts blocks where the disk counts requests.

use spritely_blockdev::{Disk, DiskParams};
use spritely_localfs::{FsParams, FsStats, LocalFs, META_BASE};
use spritely_proto::{FileHandle, NfsStatus, Payload, BLOCK_SIZE};
use spritely_sim::{Sim, SimDuration};
use spritely_trace::{Event, Tracer};
use std::future::Future;

/// What one script did: disk write requests in completion order, the
/// counters, the poll count.
#[derive(Debug, PartialEq)]
struct Seen {
    writes: Vec<u64>,
    flushed: u64,
    cancelled: u64,
    structural: u64,
    polls: u64,
}

/// Runs `script` on a fresh file system with a `cache_blocks`-block cache
/// and no update daemon.
fn run<F: Future<Output = ()> + 'static>(
    cache_blocks: usize,
    script: impl FnOnce(Sim, LocalFs) -> F,
) -> Seen {
    let sim = Sim::new();
    let tracer = Tracer::new(&sim);
    let params = DiskParams {
        avg_position: SimDuration::from_millis(20),
        seq_position: SimDuration::from_millis(2),
        transfer_rate: 2_000_000,
    };
    let disk = Disk::new(&sim, "d0", params);
    disk.set_tracer(tracer.clone());
    let fs = LocalFs::new(&sim, 1, disk, FsParams { cache_blocks });
    sim.spawn(script(sim.clone(), fs.clone()));
    sim.run_to_quiescence();
    let writes = tracer
        .finish()
        .iter()
        .filter_map(|e| match e.view() {
            Event::DiskDone {
                block, write: true, ..
            } => Some(block),
            _ => None,
        })
        .collect();
    let FsStats {
        flushed_blocks,
        cancelled_blocks,
        structural_writes,
    } = fs.stats();
    Seen {
        writes,
        flushed: flushed_blocks,
        cancelled: cancelled_blocks,
        structural: structural_writes,
        polls: sim.stats().polls,
    }
}

/// Creates `name` under the root and leaves `blocks` of it dirty in the
/// cache, written highest block first so flush order cannot be write order.
async fn dirty_file(fs: &LocalFs, name: &str, blocks: u64) -> FileHandle {
    let (fh, _) = fs.create(fs.root(), name).await.unwrap();
    for lblk in (0..blocks).rev() {
        let at = lblk * BLOCK_SIZE as u64;
        fs.write(fh, at, &[lblk as u8 + 1; BLOCK_SIZE], false)
            .await
            .unwrap();
    }
    fh
}

/// The root directory's slot in the metadata region (inode 2); the first
/// file created is inode 3. Data blocks are allocated from address 0 up.
const ROOT_META: u64 = META_BASE + 2;

#[test]
fn sync_write_flushes_its_blocks_then_the_inode() {
    let seen = run(64, |_, fs| async move {
        let (fh, _) = fs.create(fs.root(), "f").await.unwrap();
        // Starts mid-block and ends on a block boundary: a partial block
        // and two whole ones.
        let data = Payload::copy_in(100, &[9u8; 3 * BLOCK_SIZE - 100]);
        fs.write_payload(fh, 100, &data, true).await.unwrap();
        assert_eq!(fs.dirty_blocks(), 0);
        let stable = fs.stable_contents(fh).unwrap();
        assert_eq!(stable.len(), 3 * BLOCK_SIZE);
        assert!(stable[..100].iter().all(|&b| b == 0));
        assert!(stable[100..].iter().all(|&b| b == 9));
    });
    let want = Seen {
        // The three blocks are one run: one request at block 0.
        writes: vec![ROOT_META, 0, META_BASE + 3],
        flushed: 3,
        cancelled: 0,
        structural: 2,
        polls: 4,
    };
    assert_eq!(seen, want);
}

#[test]
fn fsync_flushes_one_file_in_block_order() {
    let seen = run(64, |_, fs| async move {
        let a = dirty_file(&fs, "a", 3).await;
        let _b = dirty_file(&fs, "b", 2).await;
        fs.fsync(a).await.unwrap();
        assert_eq!(fs.dirty_blocks(), 2, "b's blocks stay delayed");
    });
    let want = Seen {
        writes: vec![ROOT_META, ROOT_META, 0, 1, 2],
        flushed: 3,
        cancelled: 0,
        structural: 2,
        polls: 6,
    };
    assert_eq!(seen, want);
}

#[test]
fn sync_all_flushes_every_file_in_key_order() {
    let seen = run(64, |_, fs| async move {
        dirty_file(&fs, "a", 3).await;
        dirty_file(&fs, "b", 2).await;
        fs.sync_all().await;
        assert_eq!(fs.dirty_blocks(), 0);
    });
    let want = Seen {
        writes: vec![ROOT_META, ROOT_META, 0, 1, 2, 3, 4],
        flushed: 5,
        cancelled: 0,
        structural: 2,
        polls: 8,
    };
    assert_eq!(seen, want);
}

#[test]
fn an_evicted_dirty_block_is_written_where_it_was_evicted() {
    let seen = run(2, |_, fs| async move {
        // Four dirty blocks through a two-block cache: two are pushed out.
        dirty_file(&fs, "a", 4).await;
        assert_eq!(fs.dirty_blocks(), 2);
    });
    let want = Seen {
        // Writing block 1 pushes out block 3, writing block 0 block 2.
        writes: vec![ROOT_META, 3, 2],
        flushed: 2,
        cancelled: 0,
        structural: 1,
        polls: 4,
    };
    assert_eq!(seen, want);
}

#[test]
fn a_remove_during_a_flush_cancels_what_has_not_started() {
    let seen = run(64, |sim, fs| async move {
        let a = dirty_file(&fs, "a", 3).await;
        let flusher = {
            let fs = fs.clone();
            sim.spawn(async move { fs.fsync(a).await })
        };
        // Lands while block 0 is on its way to the platter.
        sim.sleep(SimDuration::from_millis(1)).await;
        fs.remove(fs.root(), "a").await.unwrap();
        flusher.await.unwrap();
        assert_eq!(fs.dirty_blocks(), 0);
    });
    let want = Seen {
        // Block 0 is counted twice: still dirty in the cache when the
        // remove drops it, and written when its disk request completes.
        writes: vec![ROOT_META, 0, ROOT_META],
        flushed: 1,
        cancelled: 3,
        structural: 2,
        polls: 7,
    };
    assert_eq!(seen, want);
}

#[test]
fn a_remove_during_a_sync_write_does_not_fail_the_write() {
    let seen = run(64, |sim, fs| async move {
        let (fh, _) = fs.create(fs.root(), "f").await.unwrap();
        let writer = {
            let fs = fs.clone();
            sim.spawn(async move { fs.write(fh, 0, &[5u8; 3 * BLOCK_SIZE], true).await })
        };
        sim.sleep(SimDuration::from_millis(1)).await;
        fs.remove(fs.root(), "f").await.unwrap();
        // The remove took the blocks out of the cache while their run
        // was on the platter; the write is acknowledged, and the file has
        // nothing stable left.
        assert_eq!(writer.await.unwrap().size, 3 * BLOCK_SIZE as u64);
        assert_eq!(fs.stable_contents(fh).unwrap_err(), NfsStatus::Stale);
    });
    let want = Seen {
        // All three blocks are counted twice: dropped dirty by the
        // remove, and written when their one request completes.
        writes: vec![ROOT_META, 0, ROOT_META, META_BASE + 3],
        flushed: 3,
        cancelled: 3,
        structural: 3,
        polls: 10,
    };
    assert_eq!(seen, want);
}

#[test]
fn a_run_splits_where_addresses_stop_being_consecutive() {
    let seen = run(64, |_, fs| async move {
        // a's block 0 takes address 0 and b's block 0 address 1, so a's
        // blocks 1 and 2 land at 2 and 3: two runs.
        let a = dirty_file(&fs, "a", 1).await;
        dirty_file(&fs, "b", 1).await;
        fs.write(a, 0, &[4u8; 3 * BLOCK_SIZE], true).await.unwrap();
        assert_eq!(fs.dirty_blocks(), 1, "b's block stays delayed");
        assert_eq!(fs.stable_contents(a).unwrap(), vec![4u8; 3 * BLOCK_SIZE]);
    });
    let want = Seen {
        writes: vec![ROOT_META, ROOT_META, 0, 2, META_BASE + 3],
        flushed: 3,
        cancelled: 0,
        structural: 3,
        polls: 6,
    };
    assert_eq!(seen, want);
}

#[test]
fn a_block_rewritten_while_its_run_is_on_the_platter_stays_dirty() {
    let seen = run(64, |sim, fs| async move {
        let (fh, _) = fs.create(fs.root(), "f").await.unwrap();
        let writer = {
            let fs = fs.clone();
            sim.spawn(async move { fs.write(fh, 0, &[5u8; 2 * BLOCK_SIZE], true).await })
        };
        // Lands while blocks 0 and 1 are on their way to the platter.
        sim.sleep(SimDuration::from_millis(1)).await;
        let at = BLOCK_SIZE as u64;
        fs.write(fh, at, &[6u8; BLOCK_SIZE], false).await.unwrap();
        writer.await.unwrap();
        // The platter has the run's bytes; the rewrite is still dirty.
        assert_eq!(fs.dirty_blocks(), 1);
        assert_eq!(fs.stable_contents(fh).unwrap(), vec![5u8; 2 * BLOCK_SIZE]);
        fs.fsync(fh).await.unwrap();
        let stable = fs.stable_contents(fh).unwrap();
        assert_eq!(stable[..BLOCK_SIZE], [5u8; BLOCK_SIZE]);
        assert_eq!(stable[BLOCK_SIZE..], [6u8; BLOCK_SIZE]);
    });
    let want = Seen {
        writes: vec![ROOT_META, 0, META_BASE + 3, 1],
        flushed: 3,
        cancelled: 0,
        structural: 2,
        polls: 8,
    };
    assert_eq!(seen, want);
}

#[test]
fn flushed_blocks_counts_blocks_and_the_disk_counts_requests() {
    let seen = run(64, |_, fs| async move {
        let (fh, _) = fs.create(fs.root(), "f").await.unwrap();
        // Twenty blocks: a full run of sixteen, then the other four.
        fs.write(fh, 0, &[7u8; 20 * BLOCK_SIZE], true)
            .await
            .unwrap();
        assert_eq!(fs.disk().stats().writes, 4, "create, two runs, inode");
    });
    let want = Seen {
        writes: vec![ROOT_META, 0, 16, META_BASE + 3],
        flushed: 20,
        cancelled: 0,
        structural: 2,
        polls: 5,
    };
    assert_eq!(seen, want);
}
