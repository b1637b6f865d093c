//! A passive block cache with LRU eviction and delayed-write (dirty)
//! tracking.
//!
//! The cache is deliberately I/O-free: it returns eviction victims and
//! flush candidates to its owner, which performs the actual disk or RPC
//! writes. This lets the same structure back three different caches in the
//! system — the local file system's buffer pool, the NFS client's data
//! cache, and the SNFS client's delayed-write cache — which flush to very
//! different places.

use std::collections::BTreeMap;
use std::hash::Hash;

use spritely_proto::{Buf, Payload};
use spritely_sim::{Map, SimTime};

/// One cached block.
struct Entry {
    data: Buf,
    /// `Some(t)` if dirty, where `t` is when it first became dirty.
    dirty_since: Option<SimTime>,
    /// Incremented on every write; used to detect writes that raced a
    /// flush (the flusher only marks clean if the seq is unchanged).
    seq: u64,
    lru: u64,
    /// The stamp this block is filed under in the recency index: its
    /// `lru` when it was last filed there. A hit moves `lru` on without
    /// refiling, so `filed <= lru`.
    filed: u64,
}

/// A dirty block evicted to make room; the owner must write it out.
#[derive(Debug, PartialEq, Eq)]
pub struct DirtyVictim<K> {
    /// The evicted block's key.
    pub key: K,
    /// The evicted block's data.
    pub data: Buf,
}

/// Data handed out for flushing, with the seq to pass back to
/// [`BlockCache::mark_clean`].
#[derive(Debug)]
pub struct FlushData {
    /// The block contents at flush time (the cache's own buffer: a
    /// later write replaces the entry's buffer, it never changes this one).
    pub data: Buf,
    /// Sequence number at flush time.
    pub seq: u64,
}

/// Counters describing a bulk invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropCounts {
    /// Clean blocks dropped.
    pub clean: u64,
    /// Dirty blocks dropped (their writes were cancelled).
    pub dirty: u64,
}

/// An LRU block cache keyed by `K` (typically `(file, block-index)`).
pub struct BlockCache<K> {
    capacity: usize,
    map: Map<K, Entry>,
    /// Recency index: stamp → key, clean and dirty blocks apart, so the
    /// eviction victim (lowest-stamped clean block, else lowest-stamped
    /// dirty one) comes off the front of a tree instead of out of a scan
    /// of the map. Every resident block is in exactly one of the two,
    /// under its `filed` stamp — which a hit leaves behind: refiling is
    /// put off until the block reaches the front ([`Self::lru_of`]), so
    /// a hit costs no tree operation and an eviction pays for the hits
    /// since the last one.
    clean_lru: BTreeMap<u64, K>,
    dirty_lru: BTreeMap<u64, K>,
    next_lru: u64,
    hits: u64,
    misses: u64,
    /// High-water mark of resident blocks. The map itself is lazily
    /// populated (an idle client's cache allocates nothing), so this is
    /// the cache's real peak memory footprint in blocks.
    peak: usize,
}

impl<K: Eq + Hash + Copy> BlockCache<K> {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        BlockCache {
            capacity,
            map: Map::default(),
            clean_lru: BTreeMap::new(),
            dirty_lru: BTreeMap::new(),
            next_lru: 0,
            hits: 0,
            misses: 0,
            peak: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns true if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` counted by [`get`](Self::get).
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Peak number of blocks ever resident at once (after eviction), in
    /// blocks. An untouched cache reports zero.
    pub fn peak_resident(&self) -> usize {
        self.peak
    }

    fn note_peak(&mut self) {
        if self.map.len() > self.peak {
            self.peak = self.map.len();
        }
    }

    /// Looks a block up, bumping its recency and counting hit/miss. A hit
    /// hands out the cache's own buffer (a reference-count bump).
    pub fn get(&mut self, k: &K) -> Option<Buf> {
        match self.map.get_mut(k) {
            Some(e) => {
                self.hits += 1;
                e.lru = self.next_lru;
                self.next_lru += 1;
                Some(e.data.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Returns true if the block is resident (no recency bump, no stats).
    pub fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }

    /// Returns true if the block is resident and dirty.
    pub fn is_dirty(&self, k: &K) -> bool {
        self.map.get(k).is_some_and(|e| e.dirty_since.is_some())
    }

    /// The least recently used block of one index. Blocks found at the
    /// front under a stamp they have since outgrown are refiled under
    /// their current one first; every other block is filed at or below
    /// its own stamp, so the first block found under its *current* stamp
    /// has the lowest stamp of all.
    fn lru_of(index: &mut BTreeMap<u64, K>, map: &mut Map<K, Entry>) -> Option<K> {
        loop {
            let front = index.first_entry()?;
            let k = *front.get();
            let e = map.get_mut(&k).expect("indexed block is resident");
            if e.lru == *front.key() {
                return Some(k);
            }
            front.remove();
            e.filed = e.lru;
            index.insert(e.lru, k);
        }
    }

    /// Takes a block out of the map and out of its index.
    fn take(&mut self, k: &K) -> Option<Entry> {
        let e = self.map.remove(k)?;
        let index = if e.dirty_since.is_some() {
            &mut self.dirty_lru
        } else {
            &mut self.clean_lru
        };
        index.remove(&e.filed);
        Some(e)
    }

    /// Evicts the least-recently-used block if the cache is over capacity.
    /// Clean blocks are preferred; an all-dirty cache evicts its LRU dirty
    /// block, which the owner must write out.
    fn make_room(&mut self) -> Option<DirtyVictim<K>> {
        if self.map.len() <= self.capacity {
            return None;
        }
        if let Some(k) = Self::lru_of(&mut self.clean_lru, &mut self.map) {
            self.take(&k);
            return None;
        }
        let victim = Self::lru_of(&mut self.dirty_lru, &mut self.map)
            .expect("over capacity implies nonempty");
        let e = self.take(&victim).expect("victim resident");
        Some(DirtyVictim {
            key: victim,
            data: e.data,
        })
    }

    /// Inserts a clean block (e.g. fetched from disk or the server).
    /// Returns a dirty victim if one had to be evicted.
    pub fn insert_clean(&mut self, k: K, data: impl Into<Buf>) -> Option<DirtyVictim<K>> {
        let lru = self.next_lru;
        self.next_lru += 1;
        // Overwriting a dirty block with "clean" data would lose the dirty
        // marking; keep the dirty stamp in that case.
        match self.map.get_mut(&k) {
            Some(e) => {
                if e.dirty_since.is_none() {
                    e.data = data.into();
                }
                e.lru = lru;
                None
            }
            None => {
                self.map.insert(
                    k,
                    Entry {
                        data: data.into(),
                        dirty_since: None,
                        seq: 0,
                        lru,
                        filed: lru,
                    },
                );
                self.clean_lru.insert(lru, k);
                let victim = self.make_room();
                self.note_peak();
                victim
            }
        }
    }

    /// Writes a block (marks it dirty). Returns a dirty victim if one had
    /// to be evicted.
    pub fn write(&mut self, k: K, data: impl Into<Buf>, now: SimTime) -> Option<DirtyVictim<K>> {
        let lru = self.next_lru;
        self.next_lru += 1;
        match self.map.get_mut(&k) {
            Some(e) => {
                if e.dirty_since.is_none() {
                    self.clean_lru.remove(&e.filed);
                    e.filed = lru;
                    self.dirty_lru.insert(lru, k);
                }
                e.data = data.into();
                e.dirty_since.get_or_insert(now);
                e.seq += 1;
                e.lru = lru;
                None
            }
            None => {
                self.map.insert(
                    k,
                    Entry {
                        data: data.into(),
                        dirty_since: Some(now),
                        seq: 1,
                        lru,
                        filed: lru,
                    },
                );
                self.dirty_lru.insert(lru, k);
                let victim = self.make_room();
                self.note_peak();
                victim
            }
        }
    }

    /// Hands out a dirty block for flushing. Returns `None` if the block
    /// is not resident or not dirty.
    pub fn flush_data(&self, k: &K) -> Option<FlushData> {
        self.map.get(k).and_then(|e| {
            e.dirty_since.map(|_| FlushData {
                data: e.data.clone(),
                seq: e.seq,
            })
        })
    }

    /// Marks a block clean after a flush, unless it was re-written while
    /// the flush was in flight (seq mismatch).
    pub fn mark_clean(&mut self, k: &K, seq: u64) {
        if let Some(e) = self.map.get_mut(k) {
            if e.seq == seq && e.dirty_since.take().is_some() {
                // Other index, same recency.
                self.dirty_lru.remove(&e.filed);
                e.filed = e.lru;
                self.clean_lru.insert(e.lru, *k);
            }
        }
    }

    /// Keys of all dirty blocks, with when they became dirty.
    pub fn dirty_blocks(&self) -> Vec<(K, SimTime)> {
        let mut v: Vec<(K, SimTime)> = self
            .map
            .iter()
            .filter_map(|(k, e)| e.dirty_since.map(|t| (*k, t)))
            .collect();
        v.sort_by_key(|&(_, t)| t);
        v
    }

    /// Count of dirty blocks.
    pub fn dirty_count(&self) -> usize {
        self.dirty_lru.len()
    }

    /// Drops every block matching `pred` without writing it anywhere
    /// (delayed-write cancellation / cache invalidation). Returns counts of
    /// clean and dirty blocks dropped.
    pub fn drop_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> DropCounts {
        let mut counts = DropCounts::default();
        self.map.retain(|k, e| {
            if pred(k) {
                if e.dirty_since.is_some() {
                    counts.dirty += 1;
                    self.dirty_lru.remove(&e.filed);
                } else {
                    counts.clean += 1;
                    self.clean_lru.remove(&e.filed);
                }
                false
            } else {
                true
            }
        });
        counts
    }

    /// Drops one block, if resident, without writing it anywhere.
    pub fn remove(&mut self, k: &K) {
        self.take(k);
    }

    /// Drops all blocks.
    pub fn clear(&mut self) -> DropCounts {
        self.drop_matching(|_| true)
    }

    /// Keys matching a predicate (for per-file flush).
    pub fn keys_matching(&self, mut pred: impl FnMut(&K) -> bool) -> Vec<K> {
        self.map.keys().copied().filter(|k| pred(k)).collect()
    }
}

/// A contiguous run of dirty blocks of one file, planned for gathering
/// into a single large write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtyRun {
    /// First logical block index of the run.
    pub start: u64,
    /// Number of blocks in the run.
    pub len: usize,
}

/// One gathered write handed out of the cache: contiguous data starting
/// at block `start` — one segment per block, each the cache's own buffer
/// — plus the per-block seqs to pass back to [`BlockCache::mark_clean`]
/// after the write lands.
#[derive(Debug)]
pub struct GatheredWrite {
    /// First logical block index covered by `data`.
    pub start: u64,
    /// The blocks' contents, in order.
    pub data: Payload,
    /// `(block index, seq at copy time)` for every block included.
    pub seqs: Vec<(u64, u64)>,
}

impl<F: Eq + Hash + Copy> BlockCache<(F, u64)> {
    /// Partitions `file`'s dirty blocks into contiguous runs of at most
    /// `max_blocks`, in block order. Runs break at holes (a missing or
    /// clean block) and after any *short* block (`len != block_size`) —
    /// a short block is only byte-contiguous with its successor once
    /// zero-filled, so it must end its gathered write.
    ///
    /// `keep` filters candidate blocks by `(index, dirty-since)`; pass
    /// `|_, _| true` to take every dirty block, or an age test for the
    /// update daemon's aged flush.
    pub fn dirty_runs_where(
        &self,
        file: F,
        max_blocks: usize,
        block_size: usize,
        mut keep: impl FnMut(u64, SimTime) -> bool,
    ) -> Vec<DirtyRun> {
        assert!(max_blocks > 0, "gather limit must be positive");
        let mut blocks: Vec<u64> = self
            .map
            .iter()
            .filter(|((f, _), e)| *f == file && e.dirty_since.is_some())
            .filter(|((_, b), e)| keep(*b, e.dirty_since.expect("filtered dirty")))
            .map(|((_, b), _)| *b)
            .collect();
        blocks.sort_unstable();
        let mut runs: Vec<DirtyRun> = Vec::new();
        let mut prev_short = false;
        for b in blocks {
            let short = self.map[&(file, b)].data.len() != block_size;
            let extend = match runs.last() {
                Some(run) => run.start + run.len as u64 == b && run.len < max_blocks && !prev_short,
                None => false,
            };
            if extend {
                runs.last_mut().expect("just matched").len += 1;
            } else {
                runs.push(DirtyRun { start: b, len: 1 });
            }
            prev_short = short;
        }
        runs
    }

    /// All dirty runs of `file` (no age filter); see
    /// [`dirty_runs_where`](Self::dirty_runs_where).
    pub fn dirty_runs(&self, file: F, max_blocks: usize, block_size: usize) -> Vec<DirtyRun> {
        self.dirty_runs_where(file, max_blocks, block_size, |_, _| true)
    }

    /// Hands a planned run out of the cache for writing. Blocks that
    /// went clean or vanished since planning (a raced flush, a remove)
    /// split the run; a block that became short mid-run ends its
    /// segment, exactly as in [`dirty_runs_where`](Self::dirty_runs_where).
    /// Normally returns one [`GatheredWrite`] covering the whole run.
    pub fn gather_run(&self, file: F, run: DirtyRun, block_size: usize) -> Vec<GatheredWrite> {
        let mut out: Vec<GatheredWrite> = Vec::new();
        let mut open = false;
        for b in run.start..run.start + run.len as u64 {
            let Some(fd) = self.flush_data(&(file, b)) else {
                open = false;
                continue;
            };
            let short = fd.data.len() != block_size;
            if open {
                let gw = out.last_mut().expect("open implies a segment");
                gw.data.push(fd.data);
                gw.seqs.push((b, fd.seq));
            } else {
                out.push(GatheredWrite {
                    start: b,
                    data: fd.data.into(),
                    seqs: vec![(b, fd.seq)],
                });
            }
            open = !short;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        assert!(c.get(&1).is_none());
        c.insert_clean(1, vec![1]);
        assert_eq!(c.get(&1).as_deref(), Some(&[1u8][..]));
        assert_eq!(c.hit_stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_clean_first() {
        let mut c: BlockCache<u32> = BlockCache::new(2);
        c.insert_clean(1, vec![1]);
        assert!(c.write(2, vec![2], t(0)).is_none());
        // Cache full; 1 is LRU and clean → silently dropped.
        assert!(c.insert_clean(3, vec![3]).is_none());
        assert!(!c.contains(&1));
        assert!(c.contains(&2) && c.contains(&3));
    }

    #[test]
    fn all_dirty_cache_evicts_dirty_victim() {
        let mut c: BlockCache<u32> = BlockCache::new(2);
        c.write(1, vec![1], t(0));
        c.write(2, vec![2], t(1));
        let victim = c.write(3, vec![3], t(2)).expect("must evict dirty");
        assert_eq!(
            victim,
            DirtyVictim {
                key: 1,
                data: vec![1].into()
            }
        );
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn recency_protects_recently_used() {
        let mut c: BlockCache<u32> = BlockCache::new(2);
        c.insert_clean(1, vec![1]);
        c.insert_clean(2, vec![2]);
        c.get(&1); // 1 is now MRU
        c.insert_clean(3, vec![3]);
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
    }

    #[test]
    fn write_marks_dirty_and_flush_cleans() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        c.write(1, vec![9], t(5));
        assert!(c.is_dirty(&1));
        let fd = c.flush_data(&1).expect("dirty");
        assert_eq!(&*fd.data, &[9]);
        c.mark_clean(&1, fd.seq);
        assert!(!c.is_dirty(&1));
        assert!(c.flush_data(&1).is_none());
    }

    #[test]
    fn racing_write_keeps_block_dirty() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        c.write(1, vec![1], t(0));
        let fd = c.flush_data(&1).expect("dirty");
        // A write lands while the flush is "in flight".
        c.write(1, vec![2], t(1));
        c.mark_clean(&1, fd.seq);
        assert!(c.is_dirty(&1), "newer data must stay dirty");
        assert_eq!(c.get(&1).as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn insert_clean_does_not_clobber_dirty() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        c.write(1, vec![7], t(0));
        c.insert_clean(1, vec![0]);
        assert!(c.is_dirty(&1));
        assert_eq!(c.get(&1).as_deref(), Some(&[7u8][..]));
    }

    #[test]
    fn dirty_blocks_sorted_by_age() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        c.write(2, vec![2], t(20));
        c.write(1, vec![1], t(10));
        let d: Vec<u32> = c.dirty_blocks().into_iter().map(|(k, _)| k).collect();
        assert_eq!(d, vec![1, 2]);
        assert_eq!(c.dirty_count(), 2);
    }

    #[test]
    fn drop_matching_counts_cancelled_writes() {
        let mut c: BlockCache<(u32, u32)> = BlockCache::new(8);
        c.write((1, 0), vec![0], t(0));
        c.write((1, 1), vec![1], t(0));
        c.insert_clean((1, 2), vec![2]);
        c.write((2, 0), vec![0], t(0));
        let counts = c.drop_matching(|k| k.0 == 1);
        assert_eq!(counts, DropCounts { clean: 1, dirty: 2 });
        assert_eq!(c.len(), 1);
        assert!(c.contains(&(2, 0)));
    }

    #[test]
    fn rewriting_dirty_block_keeps_first_dirty_time() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        c.write(1, vec![1], t(10));
        c.write(1, vec![2], t(99));
        assert_eq!(c.dirty_blocks()[0].1, t(10));
    }

    #[test]
    fn peak_resident_tracks_high_water_not_current() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        assert_eq!(c.peak_resident(), 0, "idle cache has no footprint");
        c.insert_clean(1, vec![1]);
        c.insert_clean(2, vec![2]);
        c.drop_matching(|_| true);
        assert_eq!(c.len(), 0);
        assert_eq!(c.peak_resident(), 2);
        // Eviction keeps the peak at steady-state residency, not the
        // transient over-capacity instant.
        let mut c: BlockCache<u32> = BlockCache::new(2);
        for k in 0..5 {
            c.insert_clean(k, vec![k as u8]);
        }
        assert_eq!(c.peak_resident(), 2);
    }

    #[test]
    fn a_hit_shares_the_cached_buffer_and_a_write_replaces_it() {
        let mut c: BlockCache<u32> = BlockCache::new(4);
        c.write(1, vec![1; 8], t(0));
        let held = c.get(&1).expect("resident");
        assert!(held.shares_allocation(&c.get(&1).expect("resident")));
        assert!(held.shares_allocation(&c.flush_data(&1).expect("dirty").data));
        // Re-dirtying the block swaps the entry's buffer; the one handed
        // out earlier (to a flush in flight, say) keeps its bytes.
        c.write(1, held.patched(0, &[9]), t(1));
        assert_eq!(&*held, &[1; 8]);
        assert_eq!(c.get(&1).expect("resident")[0], 9);
    }

    impl<K: Eq + Hash + Copy> BlockCache<K> {
        /// The victim search as it was before the recency index: one pass
        /// over the residents for the lowest-stamped clean block, else
        /// the lowest-stamped block overall. Kept as the reference the
        /// index is held against.
        fn scan_victim(&self) -> Option<K> {
            let mut lru_clean: Option<(u64, K)> = None;
            let mut lru_any: Option<(u64, K)> = None;
            for (k, e) in &self.map {
                if lru_any.is_none_or(|(l, _)| e.lru < l) {
                    lru_any = Some((e.lru, *k));
                }
                if e.dirty_since.is_none() && lru_clean.is_none_or(|(l, _)| e.lru < l) {
                    lru_clean = Some((e.lru, *k));
                }
            }
            lru_clean.or(lru_any).map(|(_, k)| k)
        }

        /// What `make_room` would evict, without evicting it.
        fn index_victim(&mut self) -> Option<K> {
            Self::lru_of(&mut self.clean_lru, &mut self.map)
                .or_else(|| Self::lru_of(&mut self.dirty_lru, &mut self.map))
        }
    }

    #[test]
    fn index_picks_the_victim_the_scan_picked() {
        use spritely_sim::SimRng;
        for seed in 0..20 {
            let rng = SimRng::new(seed);
            let mut c: BlockCache<(u32, u64)> = BlockCache::new(24);
            let mut flushing: Vec<((u32, u64), u64)> = Vec::new();
            let mut evicted = 0;
            for step in 0..4_000u64 {
                let k = (rng.range_u64(0, 3) as u32, rng.range_u64(0, 16));
                // What the old scan would evict if this step brings in a
                // new block at capacity: its pick among the residents —
                // unless they are all dirty and the newcomer is clean, in
                // which case the newcomer is the one clean block.
                let evicts = c.len() == c.capacity() && !c.contains(&k);
                let all_dirty = c.map.values().all(|e| e.dirty_since.is_some());
                let mut expect_gone = None;
                match rng.range_u64(0, 100) {
                    0..30 => drop(c.get(&k)),
                    30..50 => {
                        expect_gone = if all_dirty { Some(k) } else { c.scan_victim() };
                        c.insert_clean(k, vec![step as u8]);
                    }
                    50..75 => {
                        expect_gone = c.scan_victim();
                        c.write(k, vec![step as u8], t(step));
                    }
                    75..85 => flushing.extend(c.flush_data(&k).map(|fd| (k, fd.seq))),
                    85..95 => {
                        if !flushing.is_empty() {
                            let (k, seq) = flushing.swap_remove(rng.index(flushing.len()));
                            c.mark_clean(&k, seq);
                        }
                    }
                    95..97 => drop(c.drop_matching(|q| q.0 == k.0 && q.1 >= k.1)),
                    97..99 => c.remove(&k),
                    _ => drop(c.clear()),
                }
                if let Some(gone) = expect_gone.filter(|_| evicts) {
                    assert!(!c.contains(&gone), "seed {seed} step {step}: wrong victim");
                    assert_eq!(c.len(), c.capacity());
                    evicted += 1;
                }
                assert_eq!(
                    c.index_victim(),
                    c.scan_victim(),
                    "seed {seed} step {step}: index and scan disagree"
                );
                assert_eq!(c.clean_lru.len() + c.dirty_lru.len(), c.len());
                assert_eq!(
                    c.dirty_count(),
                    c.map.values().filter(|e| e.dirty_since.is_some()).count()
                );
            }
            assert!(evicted > 100, "seed {seed}: the sequence must evict");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: BlockCache<u32> = BlockCache::new(0);
    }

    // ---- dirty-run extraction (write gathering) ----------------------------

    const BS: usize = 4; // toy block size for gathering tests

    fn dirty_file_blocks(c: &mut BlockCache<(u32, u64)>, file: u32, blocks: &[u64]) {
        for &b in blocks {
            c.write((file, b), vec![b as u8; BS], t(b));
        }
    }

    #[test]
    fn runs_split_at_holes() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        dirty_file_blocks(&mut c, 1, &[0, 1, 2, 4, 5, 9]);
        let runs = c.dirty_runs(1, 16, BS);
        assert_eq!(
            runs,
            vec![
                DirtyRun { start: 0, len: 3 },
                DirtyRun { start: 4, len: 2 },
                DirtyRun { start: 9, len: 1 },
            ]
        );
    }

    #[test]
    fn runs_respect_gather_limit() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        dirty_file_blocks(&mut c, 1, &[0, 1, 2, 3, 4]);
        let runs = c.dirty_runs(1, 2, BS);
        assert_eq!(
            runs,
            vec![
                DirtyRun { start: 0, len: 2 },
                DirtyRun { start: 2, len: 2 },
                DirtyRun { start: 4, len: 1 },
            ]
        );
        // gather limit 1 degenerates to one run per block (paper mode).
        assert_eq!(c.dirty_runs(1, 1, BS).len(), 5);
    }

    #[test]
    fn short_block_ends_its_run() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        c.write((1, 0), vec![0; BS], t(0));
        c.write((1, 1), vec![1; 2], t(1)); // short: EOF or hole prefix
        c.write((1, 2), vec![2; BS], t(2));
        let runs = c.dirty_runs(1, 16, BS);
        assert_eq!(
            runs,
            vec![DirtyRun { start: 0, len: 2 }, DirtyRun { start: 2, len: 1 }]
        );
        // The short block rides at the tail of its gathered write.
        let gws = c.gather_run(1, runs[0], BS);
        assert_eq!(gws.len(), 1);
        assert_eq!(gws[0].data.len(), BS + 2);
    }

    #[test]
    fn runs_exclude_clean_and_other_files() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        dirty_file_blocks(&mut c, 1, &[0, 1, 2]);
        dirty_file_blocks(&mut c, 2, &[3]);
        let fd = c.flush_data(&(1, 1)).expect("dirty");
        c.mark_clean(&(1, 1), fd.seq);
        let runs = c.dirty_runs(1, 16, BS);
        assert_eq!(
            runs,
            vec![DirtyRun { start: 0, len: 1 }, DirtyRun { start: 2, len: 1 }]
        );
    }

    #[test]
    fn age_filter_limits_runs() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        dirty_file_blocks(&mut c, 1, &[0, 1, 2]);
        let runs = c.dirty_runs_where(1, 16, BS, |_, since| since <= t(1));
        assert_eq!(runs, vec![DirtyRun { start: 0, len: 2 }]);
    }

    #[test]
    fn gather_shares_data_and_records_seqs() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        dirty_file_blocks(&mut c, 1, &[3, 4, 5]);
        let runs = c.dirty_runs(1, 16, BS);
        let gws = c.gather_run(1, runs[0], BS);
        assert_eq!(gws.len(), 1);
        let gw = &gws[0];
        assert_eq!(gw.start, 3);
        assert_eq!(gw.data.len(), 3 * BS);
        // One segment per block, each the cache's own buffer.
        let cached = c.flush_data(&(1, 4)).expect("dirty").data;
        assert!(gw.data.segments()[1].shares_allocation(&cached));
        assert_eq!(gw.data.to_vec(), [[3u8; BS], [4; BS], [5; BS]].concat());
        assert_eq!(
            gw.seqs.iter().map(|&(b, _)| b).collect::<Vec<_>>(),
            [3, 4, 5]
        );
        // The recorded seqs round-trip through mark_clean.
        for &(b, seq) in &gw.seqs {
            c.mark_clean(&(1, b), seq);
        }
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn gather_splits_when_planned_block_vanished() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        dirty_file_blocks(&mut c, 1, &[0, 1, 2]);
        let runs = c.dirty_runs(1, 16, BS);
        assert_eq!(runs, vec![DirtyRun { start: 0, len: 3 }]);
        // Block 1 is flushed (or dropped) between planning and gathering.
        let fd = c.flush_data(&(1, 1)).expect("dirty");
        c.mark_clean(&(1, 1), fd.seq);
        let gws = c.gather_run(1, runs[0], BS);
        assert_eq!(gws.len(), 2);
        assert_eq!((gws[0].start, gws[0].data.len()), (0, BS));
        assert_eq!((gws[1].start, gws[1].data.len()), (2, BS));
    }

    #[test]
    fn gather_seq_race_keeps_rewritten_block_dirty() {
        let mut c: BlockCache<(u32, u64)> = BlockCache::new(64);
        dirty_file_blocks(&mut c, 1, &[0, 1]);
        let runs = c.dirty_runs(1, 16, BS);
        let gws = c.gather_run(1, runs[0], BS);
        // A write races the gathered RPC: block 1 gets new data.
        c.write((1, 1), vec![9; BS], t(50));
        for &(b, seq) in &gws[0].seqs {
            c.mark_clean(&(1, b), seq);
        }
        assert!(!c.is_dirty(&(1, 0)));
        assert!(c.is_dirty(&(1, 1)), "raced block must stay dirty");
    }
}
