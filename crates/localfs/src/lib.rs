//! Simulated local Unix file system.
//!
//! This crate provides the storage substrate both sides of the experiment
//! stand on:
//!
//! * at the **server**, the NFS/SNFS service code translates RPC requests
//!   into [`LocalFs`] operations (with `sync` writes, per RFC 1094);
//! * at a **client**, a [`LocalFs`] instance models the local disk used by
//!   the paper's "local" and "/tmp local" configurations.
//!
//! Semantics reproduced from the paper's description of Ultrix/GFS:
//!
//! * block-granular buffer cache ([`BlockCache`]) with LRU replacement;
//! * **delayed writes**: data writes sit dirty in the cache until the
//!   periodic `update` daemon (default every 30 s), an fsync, eviction, or
//!   a sync write forces them out (paper §4.2.3);
//! * **write cancellation**: deleting a file drops its dirty blocks
//!   without ever writing them (the temp-file optimization both Sprite and
//!   SNFS exploit, §4.2.3/§5.4);
//! * synchronous structural writes for namespace operations — the reason
//!   "local" sort is not free even with infinite write-delay (§5.4);
//! * sequential block allocation, so bulk flushes enjoy the disk model's
//!   sequential-access discount.

mod cache;
mod fs;
mod store;

pub use cache::{BlockCache, DirtyRun, DirtyVictim, DropCounts, FlushData, GatheredWrite};
pub use fs::{FsParams, FsStats, LocalFs};
pub use store::{Store, META_BASE, NAME_MAX};

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_blockdev::{Disk, DiskParams};
    use spritely_proto::{NfsStatus, BLOCK_SIZE};
    use spritely_sim::{Sim, SimDuration};

    fn quick_disk(sim: &Sim) -> Disk {
        Disk::new(sim, "d0", DiskParams::ra81())
    }

    fn fs(sim: &Sim) -> LocalFs {
        LocalFs::new(sim, 1, quick_disk(sim), FsParams::default())
    }

    fn fs_with(sim: &Sim, params: FsParams) -> LocalFs {
        LocalFs::new(sim, 1, quick_disk(sim), params)
    }

    #[test]
    fn write_read_roundtrip_through_cache() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
            f2.write(fh, 0, &data, false).await.unwrap();
            let (got, eof, attr) = f2.read(fh, 0, 10_000).await.unwrap();
            assert_eq!(got.to_vec(), data);
            assert!(eof);
            assert_eq!(attr.size, 10_000);
        });
    }

    #[test]
    fn delayed_write_touches_no_disk_until_flush() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            let before = f2.disk().stats().writes;
            f2.write(fh, 0, &[1u8; 3 * BLOCK_SIZE], false)
                .await
                .unwrap();
            assert_eq!(f2.disk().stats().writes, before, "no data writes yet");
            assert_eq!(f2.dirty_blocks(), 3);
            f2.fsync(fh).await.unwrap();
            assert_eq!(f2.disk().stats().writes - before, 3);
            assert_eq!(f2.dirty_blocks(), 0);
        });
    }

    #[test]
    fn sync_write_reaches_disk_immediately() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            let before = f2.disk().stats().writes;
            f2.write(fh, 0, &[1u8; BLOCK_SIZE], true).await.unwrap();
            // One data block plus the stable inode update (RFC 1094).
            assert_eq!(f2.disk().stats().writes - before, 2);
            assert_eq!(f2.dirty_blocks(), 0);
        });
    }

    #[test]
    fn delete_cancels_delayed_writes() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "tmp").await.unwrap();
            f2.write(fh, 0, &[9u8; 2 * BLOCK_SIZE], false)
                .await
                .unwrap();
            let disk_writes_before = f2.disk().stats().writes;
            f2.remove(root, "tmp").await.unwrap();
            assert_eq!(f2.stats().cancelled_blocks, 2);
            // Only the structural write hit the disk.
            assert_eq!(f2.disk().stats().writes - disk_writes_before, 1);
            assert_eq!(f2.dirty_blocks(), 0);
        });
    }

    #[test]
    fn single_flight_coalesces_concurrent_miss_reads() {
        // Two tasks missing on the same block at the same time: one disk
        // read, and both callers get the data.
        let sim = Sim::new();
        let f = fs(&sim);
        let f0 = f.clone();
        let fh = sim.block_on(async move {
            let root = f0.root();
            let (fh, _) = f0.create(root, "a").await.unwrap();
            f0.write(fh, 0, &[7u8; BLOCK_SIZE], true).await.unwrap();
            fh
        });
        // Forget the cached copy; stable data survives on disk.
        f.crash();
        let before = f.disk().stats().reads;
        for _ in 0..2 {
            let f2 = f.clone();
            sim.spawn(async move {
                let (got, _, _) = f2.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
                assert_eq!(got.to_vec(), vec![7u8; BLOCK_SIZE]);
            });
        }
        sim.run_to_quiescence();
        assert_eq!(f.disk().stats().reads - before, 1);
    }

    #[test]
    fn update_daemon_flushes_periodically() {
        let sim = Sim::new();
        let f = fs(&sim);
        f.spawn_update_daemon();
        let f2 = f.clone();
        let s = sim.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            f2.write(fh, 0, &[1u8; BLOCK_SIZE], false).await.unwrap();
            assert_eq!(f2.dirty_blocks(), 1);
            s.sleep(SimDuration::from_secs(31)).await;
            assert_eq!(f2.dirty_blocks(), 0, "update daemon flushed");
            assert_eq!(f2.stats().flushed_blocks, 1);
        });
    }

    #[test]
    fn disabled_update_daemon_never_flushes() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        let s = sim.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            f2.write(fh, 0, &[1u8; BLOCK_SIZE], false).await.unwrap();
            s.sleep(SimDuration::from_secs(120)).await;
            assert_eq!(f2.dirty_blocks(), 1, "infinite write-delay");
        });
    }

    #[test]
    fn partial_block_write_preserves_neighbors() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            f2.write(fh, 0, &[0xAAu8; BLOCK_SIZE], false).await.unwrap();
            f2.write(fh, 100, &[0xBBu8; 8], false).await.unwrap();
            let (got, _, _) = f2.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            let got = got.to_vec();
            assert_eq!(&got[..100], &[0xAAu8; 100][..]);
            assert_eq!(&got[100..108], &[0xBBu8; 8][..]);
            assert_eq!(&got[108..], &[0xAAu8; BLOCK_SIZE - 108][..]);
        });
    }

    #[test]
    fn read_past_eof_returns_empty_eof() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            f2.write(fh, 0, b"hello", false).await.unwrap();
            let (got, eof, _) = f2.read(fh, 100, 10).await.unwrap();
            assert!(got.is_empty());
            assert!(eof);
            let (got, eof, _) = f2.read(fh, 3, 100).await.unwrap();
            assert_eq!(got.to_vec(), b"lo");
            assert!(eof);
        });
    }

    #[test]
    fn cache_hit_avoids_disk_read() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            f2.write(fh, 0, &[5u8; BLOCK_SIZE], true).await.unwrap();
            let reads0 = f2.disk().stats().reads;
            let _ = f2.read(fh, 0, 4096).await.unwrap();
            assert_eq!(f2.disk().stats().reads, reads0, "block still cached");
        });
    }

    #[test]
    fn eviction_flushes_dirty_victims() {
        let sim = Sim::new();
        let f = fs_with(&sim, FsParams { cache_blocks: 4 });
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            // 8 dirty blocks through a 4-block cache: at least 4 must have
            // been flushed by eviction.
            f2.write(fh, 0, &vec![1u8; 8 * BLOCK_SIZE], false)
                .await
                .unwrap();
            assert!(f2.stats().flushed_blocks >= 4);
            let (got, _, _) = f2.read(fh, 0, (8 * BLOCK_SIZE) as u32).await.unwrap();
            assert!(
                got.to_vec().iter().all(|&b| b == 1),
                "data survives eviction"
            );
        });
    }

    #[test]
    fn crash_loses_unflushed_data_keeps_stable() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            f2.write(fh, 0, &[1u8; BLOCK_SIZE], true).await.unwrap();
            f2.write(fh, BLOCK_SIZE as u64, &[2u8; BLOCK_SIZE], false)
                .await
                .unwrap();
            let lost = f2.crash();
            assert_eq!(lost, 1);
            let stable = f2.stable_contents(fh).unwrap();
            assert_eq!(&stable[..BLOCK_SIZE], &[1u8; BLOCK_SIZE][..]);
            // The delayed block never reached stable storage.
            assert_eq!(&stable[BLOCK_SIZE..], &[0u8; BLOCK_SIZE][..]);
        });
    }

    #[test]
    fn truncate_drops_cache_beyond_eof() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (fh, _) = f2.create(root, "a").await.unwrap();
            f2.write(fh, 0, &[3u8; 3 * BLOCK_SIZE], false)
                .await
                .unwrap();
            let attr = f2.setattr(fh, Some(BLOCK_SIZE as u64)).await.unwrap();
            assert_eq!(attr.size, BLOCK_SIZE as u64);
            assert_eq!(f2.dirty_blocks(), 1);
        });
    }

    #[test]
    fn directory_data_ops_rejected() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            assert_eq!(
                f2.write(root, 0, b"x", false).await.unwrap_err(),
                NfsStatus::IsDir
            );
            assert_eq!(f2.read(root, 0, 10).await.unwrap_err(), NfsStatus::IsDir);
        });
    }

    #[test]
    fn structural_writes_counted() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (d, _) = f2.mkdir(root, "d").await.unwrap();
            let (_, _) = f2.create(d, "x").await.unwrap();
            f2.remove(d, "x").await.unwrap();
            f2.rmdir(root, "d").await.unwrap();
            assert_eq!(f2.stats().structural_writes, 4);
        });
    }

    #[test]
    fn rename_replacing_cancels_victim_writes() {
        let sim = Sim::new();
        let f = fs(&sim);
        let f2 = f.clone();
        sim.block_on(async move {
            let root = f2.root();
            let (_src, _) = f2.create(root, "src").await.unwrap();
            let (dst, _) = f2.create(root, "dst").await.unwrap();
            f2.write(dst, 0, &[7u8; BLOCK_SIZE], false).await.unwrap();
            f2.rename(root, "src", root, "dst").await.unwrap();
            assert_eq!(f2.stats().cancelled_blocks, 1);
        });
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let sim = Sim::new();
            let f = fs(&sim);
            let f2 = f.clone();
            sim.block_on(async move {
                let root = f2.root();
                let (fh, _) = f2.create(root, "a").await.unwrap();
                f2.write(fh, 0, &[1u8; 6 * BLOCK_SIZE], false)
                    .await
                    .unwrap();
                f2.fsync(fh).await.unwrap();
                let _ = f2.read(fh, 0, (6 * BLOCK_SIZE) as u32).await.unwrap();
            });
            sim.now().as_micros()
        };
        assert_eq!(run(), run());
    }
}
