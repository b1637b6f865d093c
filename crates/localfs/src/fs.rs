//! The local file system: store + buffer cache + disk, with Unix
//! delayed-write semantics and the `/etc/update` sync daemon.

use std::cell::RefCell;
use std::ops::RangeInclusive;
use std::rc::Rc;

use spritely_blockdev::Disk;
use spritely_proto::{
    block_of, block_spans, blocks_for, Buf, DirEntry, Fattr, FileHandle, FileType, NfsStatus,
    Payload, Result, BLOCK_SIZE,
};
use spritely_sim::{Event, Map, Sim, SimDuration};
use spritely_trace::{EventKind, Tracer};

use crate::cache::{BlockCache, FlushData};
use crate::store::{Store, META_BASE};

/// Cache key: `(inode number, logical block index)`. Inode numbers are
/// never reused, so the generation is not needed here.
type Key = (u64, u64);

/// The most blocks one disk request carries: a gathered `write`'s 16
/// (64 KB). A longer run goes to the disk as several requests.
const MAX_RUN: usize = 16;

/// The period of the `/etc/update` daemon (paper §4.2.3: 30 s).
const UPDATE_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Configuration for a [`LocalFs`].
#[derive(Debug, Clone, Copy)]
pub struct FsParams {
    /// Buffer cache capacity in blocks.
    pub cache_blocks: usize,
}

impl Default for FsParams {
    fn default() -> Self {
        FsParams {
            cache_blocks: 4096, // 16 MB at 4 KB blocks
        }
    }
}

/// Cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Dirty blocks written to disk (delayed flushes + sync writes).
    pub flushed_blocks: u64,
    /// Dirty blocks dropped because their file was deleted first — the
    /// "writes averted" the paper's §5.4 measures.
    pub cancelled_blocks: u64,
    /// Synchronous structural (inode/directory) writes.
    pub structural_writes: u64,
}

struct Inner {
    sim: Sim,
    disk: Disk,
    store: RefCell<Store>,
    cache: RefCell<BlockCache<Key>>,
    stats: RefCell<FsStats>,
    /// Blocks with a disk read in flight: a second miss on one waits for
    /// the first's read instead of issuing a duplicate. The event is made
    /// by the first such follower, so a miss nobody joins allocates none.
    inflight: RefCell<Map<Key, Option<Event>>>,
    tracer: RefCell<Option<Tracer>>,
}

/// A simulated local Unix file system on one disk.
///
/// All data operations are block-granular through a buffer cache with
/// delayed writes; namespace operations update the store immediately and
/// charge a synchronous structural disk write (as Unix does for directory
/// updates).
#[derive(Clone)]
pub struct LocalFs {
    inner: Rc<Inner>,
}

impl LocalFs {
    /// Creates an empty file system (just a root directory) on `disk`.
    pub fn new(sim: &Sim, fsid: u32, disk: Disk, params: FsParams) -> Self {
        LocalFs {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                disk,
                store: RefCell::new(Store::new(fsid)),
                cache: RefCell::new(BlockCache::new(params.cache_blocks)),
                stats: RefCell::new(FsStats::default()),
                inflight: RefCell::new(Map::default()),
                tracer: RefCell::new(None),
            }),
        }
    }

    /// Attach a tracer; block-cache lookups on the read path emit
    /// `srv_cache_read` events from then on. Emission never awaits, so a
    /// traced run is behaviorally identical.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.inner.tracer.borrow_mut() = Some(tracer);
    }

    fn emit_cache_read(&self, ino: u64, blk: u64, hit: bool) {
        if let Some(t) = self.inner.tracer.borrow().as_ref() {
            t.emit(0, EventKind::SrvCacheRead { ino, blk, hit });
        }
    }

    /// A weak handle on this file system's state: it upgrades for as
    /// long as any clone of the `LocalFs` is alive (leak tests).
    pub fn downgrade(&self) -> std::rc::Weak<dyn std::any::Any> {
        let weak: std::rc::Weak<Inner> = Rc::downgrade(&self.inner);
        weak
    }

    /// Root directory handle.
    pub fn root(&self) -> FileHandle {
        self.inner.store.borrow().root()
    }

    /// Statistics so far.
    pub fn stats(&self) -> FsStats {
        *self.inner.stats.borrow()
    }

    /// Buffer-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.cache.borrow().hit_stats()
    }

    /// Number of dirty blocks currently in the cache.
    pub fn dirty_blocks(&self) -> usize {
        self.inner.cache.borrow().dirty_count()
    }

    /// The underlying disk.
    pub fn disk(&self) -> &Disk {
        &self.inner.disk
    }

    fn now_us(&self) -> u64 {
        self.inner.sim.now().as_micros()
    }

    // ---- namespace operations -------------------------------------------

    /// Attributes of a file (in-memory; inode metadata is assumed cached).
    pub fn getattr(&self, fh: FileHandle) -> Result<Fattr> {
        self.inner.store.borrow().getattr(fh)
    }

    /// Single-component lookup.
    pub fn lookup(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        self.inner.store.borrow().lookup(dir, name)
    }

    /// Directory listing.
    pub fn readdir(&self, dir: FileHandle) -> Result<Vec<DirEntry>> {
        self.inner.store.borrow().readdir(dir)
    }

    /// One synchronous write in the metadata region: a namespace operation
    /// (create/remove/mkdir/rmdir/rename) updates its directory and inode
    /// synchronously, and so does every *synchronous* data write.
    async fn structural_write(&self, ino: u64) {
        self.inner.stats.borrow_mut().structural_writes += 1;
        self.inner.disk.write(META_BASE + (ino % 997), 512).await;
    }

    /// Creates a regular file.
    pub async fn create(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let now = self.now_us();
        let r = self.inner.store.borrow_mut().create(dir, name, now)?;
        self.structural_write(dir.inode).await;
        Ok(r)
    }

    /// Creates a directory.
    pub async fn mkdir(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let now = self.now_us();
        let r = self.inner.store.borrow_mut().mkdir(dir, name, now)?;
        self.structural_write(dir.inode).await;
        Ok(r)
    }

    /// Removes a regular file, cancelling any of its delayed writes
    /// (paper §4.2.3: Sprite and SNFS "cancel" delayed writes on delete).
    pub async fn remove(&self, dir: FileHandle, name: &str) -> Result<()> {
        let now = self.now_us();
        let (victim, gone) = self.inner.store.borrow_mut().remove(dir, name, now)?;
        if gone {
            // Only the last hard link cancels the delayed writes.
            let dropped = self
                .inner
                .cache
                .borrow_mut()
                .drop_matching(|k| k.0 == victim.inode);
            self.inner.stats.borrow_mut().cancelled_blocks += dropped.dirty;
        }
        self.structural_write(dir.inode).await;
        Ok(())
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, dir: FileHandle, name: &str) -> Result<()> {
        let now = self.now_us();
        self.inner.store.borrow_mut().rmdir(dir, name, now)?;
        self.structural_write(dir.inode).await;
        Ok(())
    }

    /// Renames; a replaced target's delayed writes are cancelled.
    pub async fn rename(
        &self,
        from_dir: FileHandle,
        from_name: &str,
        to_dir: FileHandle,
        to_name: &str,
    ) -> Result<()> {
        let now = self.now_us();
        let replaced = self
            .inner
            .store
            .borrow_mut()
            .rename(from_dir, from_name, to_dir, to_name, now)?;
        if let Some(victim) = replaced {
            let dropped = self
                .inner
                .cache
                .borrow_mut()
                .drop_matching(|k| k.0 == victim.inode);
            self.inner.stats.borrow_mut().cancelled_blocks += dropped.dirty;
        }
        self.structural_write(from_dir.inode).await;
        Ok(())
    }

    /// Creates a hard link `dir/name` to `from`.
    pub async fn link(&self, from: FileHandle, dir: FileHandle, name: &str) -> Result<Fattr> {
        let now = self.now_us();
        let attr = self.inner.store.borrow_mut().link(from, dir, name, now)?;
        self.structural_write(dir.inode).await;
        Ok(attr)
    }

    /// Creates a symbolic link `dir/name` → `target`.
    pub async fn symlink(
        &self,
        dir: FileHandle,
        name: &str,
        target: &str,
    ) -> Result<(FileHandle, Fattr)> {
        let now = self.now_us();
        let r = self
            .inner
            .store
            .borrow_mut()
            .symlink(dir, name, target, now)?;
        self.structural_write(dir.inode).await;
        Ok(r)
    }

    /// Reads a symbolic link's target (metadata is in memory; no disk).
    pub fn readlink(&self, fh: FileHandle) -> Result<String> {
        self.inner.store.borrow().readlink(fh)
    }

    /// Sets attributes (currently: truncate).
    pub async fn setattr(&self, fh: FileHandle, size: Option<u64>) -> Result<Fattr> {
        let now = self.now_us();
        let attr = match size {
            Some(sz) => {
                let a = self.inner.store.borrow_mut().truncate(fh, sz, now)?;
                // Blocks beyond the new EOF are no longer meaningful.
                let cut = blocks_for(sz);
                self.inner
                    .cache
                    .borrow_mut()
                    .drop_matching(|k| k.0 == fh.inode && k.1 >= cut);
                self.structural_write(fh.inode).await;
                a
            }
            None => self.inner.store.borrow().getattr(fh)?,
        };
        Ok(attr)
    }

    // ---- data operations --------------------------------------------------

    /// The one way dirty blocks reach the disk: blocks `lblks` of inode
    /// `ino`, each run of them at consecutive disk addresses written as one
    /// request at the run's first address, so a single block is a run of
    /// one. `evicted` is the data of a block the cache has already pushed
    /// out (`lblks` is then that block), which exists nowhere else;
    /// otherwise each block is taken from the cache, skipped if clean, and
    /// marked clean once written unless it was written again meanwhile. A
    /// file that vanished while a block waited has no address left: that
    /// write is cancelled.
    async fn flush_run(&self, ino: u64, lblks: RangeInclusive<u64>, mut evicted: Option<Buf>) {
        let (mut next, last) = lblks.into_inner();
        while next <= last {
            // The run waits out its write in a fixed array, so it allocates
            // nothing. An evicted block's seq 0 marks nothing clean: a
            // dirty block's seq is at least 1.
            let mut run: [Option<FlushData>; MAX_RUN] = Default::default();
            let (mut len, mut at, mut bytes) = (0, 0, 0);
            while next <= last && len < MAX_RUN {
                let block = match evicted.take() {
                    Some(data) => Some(FlushData { data, seq: 0 }),
                    None => self.inner.cache.borrow().flush_data(&(ino, next)),
                };
                let addr = self.inner.store.borrow().addr_by_ino(ino, next);
                match (block, addr) {
                    (Some(fd), Some(addr)) if len == 0 || addr == at + len as u64 => {
                        (at, bytes) = (addr - len as u64, bytes + fd.data.len());
                        run[len] = Some(fd);
                        len += 1;
                    }
                    // This block ends the run; it is looked at again once
                    // the run has landed.
                    _ if len > 0 => break,
                    (Some(fd), None) => {
                        self.inner.stats.borrow_mut().cancelled_blocks += 1;
                        self.inner
                            .cache
                            .borrow_mut()
                            .mark_clean(&(ino, next), fd.seq);
                    }
                    _ => {} // clean: nothing to write
                }
                next += 1;
            }
            if len > 0 {
                self.inner.disk.write(at, bytes).await;
                let (mut store, mut cache) =
                    (self.inner.store.borrow_mut(), self.inner.cache.borrow_mut());
                for (lblk, fd) in (next - len as u64..).zip(run.into_iter().flatten()) {
                    store.write_stable_by_ino(ino, lblk, fd.data);
                    cache.mark_clean(&(ino, lblk), fd.seq);
                }
                self.inner.stats.borrow_mut().flushed_blocks += len as u64;
            }
        }
    }

    /// One block of `fh` through the buffer cache: hit, or miss + disk
    /// read + clean insert. Concurrent misses on the same block coalesce
    /// into one disk read: followers wait for the leader's fetch and then
    /// re-check the cache.
    async fn fetch_cached_block(&self, fh: FileHandle, lblk: u64) -> Result<Buf> {
        let key = (fh.inode, lblk);
        loop {
            let cached = self.inner.cache.borrow_mut().get(&key);
            if let Some(b) = cached {
                self.emit_cache_read(fh.inode, lblk, true);
                return Ok(b);
            }
            let leader = self
                .inner
                .inflight
                .borrow_mut()
                .get_mut(&key)
                .map(|waiters| waiters.get_or_insert_with(Event::new).clone());
            if let Some(ev) = leader {
                ev.wait().await;
                // The leader populated the cache (or vanished); either
                // way, re-check from the top.
                continue;
            }
            self.emit_cache_read(fh.inode, lblk, false);
            self.inner.inflight.borrow_mut().insert(key, None);
            let fetched = self.fetch_from_disk(fh, lblk).await;
            let waiters = self.inner.inflight.borrow_mut().remove(&key).flatten();
            if let Some(ev) = waiters {
                ev.set();
            }
            let data = fetched?;
            let victim = self
                .inner
                .cache
                .borrow_mut()
                .insert_clean(key, data.clone());
            if let Some(v) = victim {
                self.flush_run(v.key.0, v.key.1..=v.key.1, Some(v.data))
                    .await;
            }
            return Ok(data);
        }
    }

    async fn fetch_from_disk(&self, fh: FileHandle, lblk: u64) -> Result<Buf> {
        let (has, addr) = {
            let st = self.inner.store.borrow();
            (
                st.has_stable(fh.inode, lblk),
                st.addr_by_ino(fh.inode, lblk),
            )
        };
        if has {
            let addr = addr.expect("stable block has an address");
            self.inner.disk.read(addr, BLOCK_SIZE).await;
            self.inner.store.borrow().read_stable(fh, lblk)
        } else {
            // Hole or never-flushed region: zero fill, no disk.
            Ok(Buf::zeros(BLOCK_SIZE))
        }
    }

    /// Reads up to `len` bytes at `offset`. Returns `(data, eof, attr)`;
    /// the data is slices of the cached blocks, not a copy of them.
    pub async fn read(
        &self,
        fh: FileHandle,
        offset: u64,
        len: u32,
    ) -> Result<(Payload, bool, Fattr)> {
        let attr = self.inner.store.borrow().getattr(fh)?;
        if attr.ftype == FileType::Directory {
            return Err(NfsStatus::IsDir);
        }
        let size = attr.size;
        if offset >= size || len == 0 {
            let now = self.now_us();
            let attr = self.inner.store.borrow_mut().note_read(fh, now)?;
            return Ok((Payload::new(), true, attr));
        }
        let end = size.min(offset + u64::from(len));
        let mut out = Payload::new();
        for (lblk, from, to) in block_spans(offset, end) {
            let block = self.fetch_cached_block(fh, lblk).await?;
            out.push(block.slice(from..to));
        }
        let now = self.now_us();
        let attr = self.inner.store.borrow_mut().note_read(fh, now)?;
        Ok((out, end == size, attr))
    }

    /// Writes `data` at `offset`, copying it in (block-aligned) first:
    /// the `write(2)` edge of [`write_payload`](Self::write_payload).
    pub async fn write(
        &self,
        fh: FileHandle,
        offset: u64,
        data: &[u8],
        sync: bool,
    ) -> Result<Fattr> {
        self.write_payload(fh, offset, &Payload::copy_in(offset, data), sync)
            .await
    }

    /// Writes `data` at `offset`. With `sync`, the affected blocks are
    /// flushed to disk before returning (NFS server semantics), each run at
    /// consecutive addresses as one request; otherwise
    /// the write is delayed in the cache (Unix local semantics). A segment
    /// that covers a whole block becomes the cached block itself; a
    /// partial block is merged into a new buffer, so whoever still holds
    /// the old one (a reply, the stable store) keeps the old bytes.
    pub async fn write_payload(
        &self,
        fh: FileHandle,
        offset: u64,
        data: &Payload,
        sync: bool,
    ) -> Result<Fattr> {
        if data.is_empty() {
            return self.inner.store.borrow().getattr(fh);
        }
        let old_attr = self.inner.store.borrow().getattr(fh)?;
        if old_attr.ftype == FileType::Directory {
            return Err(NfsStatus::IsDir);
        }
        let now = self.inner.sim.now();
        let end = offset + data.len() as u64;
        let mut taken = 0;
        for (lblk, from, to) in block_spans(offset, end) {
            let chunk = data.range(taken..taken + (to - from));
            taken += to - from;
            let key = (fh.inode, lblk);
            let merged = if chunk.len() == BLOCK_SIZE {
                chunk
            } else {
                // Read-modify-write of a partial block.
                let cached = self.inner.cache.borrow_mut().get(&key);
                let base = match cached {
                    Some(b) => b,
                    None => self.fetch_from_disk(fh, lblk).await?,
                };
                base.patched(from, &chunk)
            };
            self.inner.store.borrow_mut().ensure_block(fh, lblk)?;
            let victim = self.inner.cache.borrow_mut().write(key, merged, now);
            if let Some(v) = victim {
                self.flush_run(v.key.0, v.key.1..=v.key.1, Some(v.data))
                    .await;
            }
        }
        let attr = self.inner.store.borrow_mut().note_write(
            fh,
            offset,
            data.len() as u64,
            now.as_micros(),
        )?;
        if sync {
            let lblks = block_of(offset)..=block_of(end - 1);
            self.flush_run(fh.inode, lblks, None).await;
            // RFC 1094 requires the server to have size/mtime on stable
            // storage before replying to a `write`, so an NFS server pays
            // an inode update on every write RPC — it both adds a
            // positioning delay and breaks the sequentiality of bulk
            // writes, which is a large part of why write-through was so
            // expensive.
            self.structural_write(fh.inode).await;
        }
        Ok(attr)
    }

    /// Flushes all of one file's dirty blocks (ascending block order, so
    /// the disk sees sequential addresses).
    pub async fn fsync(&self, fh: FileHandle) -> Result<()> {
        let mut keys = self.inner.cache.borrow().keys_matching(|k| k.0 == fh.inode);
        keys.sort_unstable();
        for (ino, lblk) in keys {
            self.flush_run(ino, lblk..=lblk, None).await;
        }
        Ok(())
    }

    /// Flushes everything dirty: a full `sync`, the `update` daemon's
    /// unit of work (traditional Unix flushes blocks of any age; Sprite
    /// waited for them to be 30 s old).
    pub async fn sync_all(&self) {
        let dirty = self.inner.cache.borrow().dirty_blocks();
        let mut due: Vec<Key> = dirty.into_iter().map(|(k, _)| k).collect();
        due.sort_unstable();
        for (ino, lblk) in due {
            self.flush_run(ino, lblk..=lblk, None).await;
        }
    }

    /// Spawns the `/etc/update` daemon: a `sync` every 30 s. Not spawning
    /// it is the paper's "infinite write-delay" (§5.4).
    pub fn spawn_update_daemon(&self) {
        let fs = self.clone();
        let sim = self.inner.sim.clone();
        self.inner.sim.spawn(async move {
            loop {
                sim.sleep(UPDATE_INTERVAL).await;
                fs.sync_all().await;
            }
        });
    }

    /// Simulates a crash: all cached (non-stable) data is lost. Returns the
    /// number of dirty blocks that were lost.
    pub fn crash(&self) -> u64 {
        let counts = self.inner.cache.borrow_mut().clear();
        counts.dirty
    }

    /// Reads a whole file's stable bytes, bypassing cache and timing. For
    /// tests and integrity checks only.
    pub fn stable_contents(&self, fh: FileHandle) -> Result<Vec<u8>> {
        let st = self.inner.store.borrow();
        let attr = st.getattr(fh)?;
        let mut out = Vec::with_capacity(attr.size as usize);
        for lblk in 0..blocks_for(attr.size) {
            let b = st.read_stable(fh, lblk)?;
            out.extend_from_slice(&b);
        }
        out.truncate(attr.size as usize);
        Ok(out)
    }
}
