//! The NFS client: attribute cache with adaptive probes, data cache,
//! asynchronous write-behind with flush-on-close.
//!
//! Implements the reference-port behaviour the paper measured (§2.1, §4):
//!
//! * **consistency by probing**: cached data is trusted while the
//!   attribute cache is fresh; the probe interval adapts between 3 s and
//!   150 s based on how recently the file changed (footnote 3);
//! * a `getattr` RPC at every file open (the call SNFS's `open` subsumes);
//! * **write-behind daemons** (`biod`s): full blocks are handed to a
//!   daemon pool and written through immediately; the application does not
//!   wait, but `close` synchronously drains all pending writes;
//! * **partial-block write delay** (footnote 4): writes that do not reach
//!   the end of a block accumulate client-side until the block fills or
//!   the file closes;
//! * the **invalidate-on-close bug** of the authors' vintage reference
//!   port (§5.2): the data cache is purged when a file is closed, so a
//!   write-close-reopen-read cycle re-reads everything from the server.
//!   Toggleable via [`NfsClientParams::invalidate_on_close`] to model
//!   newer clients.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use spritely_localfs::BlockCache;
use spritely_proto::{
    block_of, Buf, DirEntry, Fattr, FileHandle, NfsReply, NfsRequest, NfsStatus, ReadReply, Result,
    BLOCK_SIZE,
};
use spritely_rpcnet::{RpcError, ShardCaller};
use spritely_sim::{Event, Semaphore, Sim, SimDuration, SimTime};

/// Configuration of an [`NfsClient`].
#[derive(Debug, Clone, Copy)]
pub struct NfsClientParams {
    /// Minimum attribute-cache lifetime (probe interval floor).
    pub attr_min: SimDuration,
    /// Maximum attribute-cache lifetime (probe interval ceiling).
    pub attr_max: SimDuration,
    /// Number of write-behind daemons.
    pub biods: usize,
    /// Data cache capacity in blocks.
    pub cache_blocks: usize,
    /// Purge the file's cached data on final close (the vintage
    /// reference-port bug the paper measured around, §5.2).
    pub invalidate_on_close: bool,
    /// Delay writes that do not extend to a block boundary (footnote 4).
    pub delay_partial_writes: bool,
    /// Prefetch the next block on cache-missing sequential reads.
    pub read_ahead: bool,
    /// Cache name translations with a TTL, like post-1989 NFS clients
    /// ("recent versions of NFS also do more extensive caching of name
    /// translations", §5.2). Unlike the SNFS §7 name cache this is only
    /// probabilistically consistent: within the TTL a renamed or removed
    /// file can still resolve here.
    pub name_cache: bool,
    /// Lifetime of a name-cache entry.
    pub name_cache_ttl: SimDuration,
}

impl Default for NfsClientParams {
    fn default() -> Self {
        NfsClientParams {
            attr_min: SimDuration::from_secs(3),
            attr_max: SimDuration::from_secs(150),
            biods: 4,
            cache_blocks: 4096,
            invalidate_on_close: true,
            delay_partial_writes: true,
            read_ahead: true,
            name_cache: false,
            name_cache_ttl: SimDuration::from_secs(30),
        }
    }
}

type Key = (FileHandle, u64);

struct AttrEntry {
    attr: Fattr,
    fetched: SimTime,
}

#[derive(Default)]
struct PendingWrites {
    count: u32,
    done: Event,
    /// First asynchronous write error, reported at close (Unix EIO
    /// convention).
    error: Option<NfsStatus>,
}

/// A delayed partial-block write (footnote 4): bytes short of the next
/// block boundary, held back until the block fills or the file closes.
/// Always inside one block.
struct Tail {
    offset: u64,
    data: Buf,
}

impl Tail {
    fn end(&self) -> u64 {
        self.offset + self.data.len() as u64
    }
}

struct Inner {
    sim: Sim,
    caller: ShardCaller,
    params: NfsClientParams,
    cache: RefCell<BlockCache<Key>>,
    attrs: RefCell<HashMap<FileHandle, AttrEntry>>,
    pending: RefCell<HashMap<FileHandle, PendingWrites>>,
    tails: RefCell<HashMap<FileHandle, Tail>>,
    opens: RefCell<HashMap<FileHandle, u32>>,
    /// Reads in flight, so a demand read and a read-ahead of the same
    /// block coalesce into one RPC.
    in_flight: RefCell<HashMap<Key, Event>>,
    /// TTL-based name-translation cache (dnlc-style), when enabled.
    names: RefCell<HashMap<(FileHandle, String), NameEntry>>,
    /// Open-time `getattr` probes elided because a piggybacked post-op
    /// attribute was still inside the probe floor (piggybacking
    /// transports only).
    elided_probes: Cell<u64>,
    biods: Semaphore,
}

struct NameEntry {
    fh: FileHandle,
    attr: Fattr,
    fetched: SimTime,
}

/// An NFS client bound to one server.
#[derive(Clone)]
pub struct NfsClient {
    inner: Rc<Inner>,
}

fn status_of(e: RpcError) -> NfsStatus {
    match e {
        RpcError::Timeout => NfsStatus::Io,
    }
}

impl NfsClient {
    /// Creates a client that calls the server through `caller` — a plain
    /// [`Caller`](spritely_rpcnet::Caller) for the single-server
    /// configuration, or a [`ShardCaller`] routing over several shards.
    pub fn new(sim: &Sim, caller: impl Into<ShardCaller>, params: NfsClientParams) -> Self {
        NfsClient {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                caller: caller.into(),
                biods: Semaphore::new(params.biods.max(1)),
                params,
                cache: RefCell::new(BlockCache::new(params.cache_blocks)),
                attrs: RefCell::new(HashMap::new()),
                pending: RefCell::new(HashMap::new()),
                tails: RefCell::new(HashMap::new()),
                opens: RefCell::new(HashMap::new()),
                in_flight: RefCell::new(HashMap::new()),
                names: RefCell::new(HashMap::new()),
                elided_probes: Cell::new(0),
            }),
        }
    }

    /// Data cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.inner.cache.borrow().hit_stats()
    }

    /// Open-time `getattr` probes elided thanks to piggybacked post-op
    /// attributes (always 0 on the paper transport).
    pub fn elided_probes(&self) -> u64 {
        self.inner.elided_probes.get()
    }

    async fn call(&self, req: NfsRequest) -> Result<NfsReply> {
        match self.inner.caller.call(req).await {
            Ok(rep) => rep.into_result(),
            Err(e) => Err(status_of(e)),
        }
    }

    /// Background variant for biod traffic (write-behind, read-ahead):
    /// the transport batcher may hold such a call briefly to coalesce it
    /// with its peers.
    async fn call_bg(&self, req: NfsRequest) -> Result<NfsReply> {
        match self.inner.caller.call_bg(0, req).await {
            Ok(rep) => rep.into_result(),
            Err(e) => Err(status_of(e)),
        }
    }

    // ---- attribute cache --------------------------------------------------

    fn attr_timeout(&self, e: &AttrEntry) -> SimDuration {
        // Adaptive probe interval: a file modified recently is probed
        // often; one that has been stable for a long time is probed
        // rarely. Ultrix clamped the interval to [3 s, 150 s] (footnote 3).
        let age_us = e.fetched.as_micros().saturating_sub(e.attr.mtime);
        let t = SimDuration::from_micros(age_us / 4);
        t.max(self.inner.params.attr_min)
            .min(self.inner.params.attr_max)
    }

    /// Records fresh server attributes, invalidating cached data if the
    /// file changed under us.
    fn note_attrs_checking(&self, fh: FileHandle, new: Fattr) {
        let changed = self
            .inner
            .attrs
            .borrow()
            .get(&fh)
            .is_some_and(|old| new.data_changed_from(&old.attr));
        if changed {
            self.inner.cache.borrow_mut().drop_matching(|k| k.0 == fh);
        }
        self.inner.attrs.borrow_mut().insert(
            fh,
            AttrEntry {
                attr: new,
                fetched: self.inner.sim.now(),
            },
        );
    }

    /// Refreshes attributes from a piggybacked reply (our own operation
    /// caused any change, so no invalidation check).
    fn note_attrs_own(&self, fh: FileHandle, new: Fattr) {
        let mut attrs = self.inner.attrs.borrow_mut();
        let e = attrs.entry(fh).or_insert(AttrEntry {
            attr: new,
            fetched: self.inner.sim.now(),
        });
        if new.mtime >= e.attr.mtime {
            e.attr = new;
        }
        e.fetched = self.inner.sim.now();
    }

    /// Returns attributes, probing the server if the cache has expired
    /// (or unconditionally with `force`).
    pub async fn probe_attrs(&self, fh: FileHandle, force: bool) -> Result<Fattr> {
        if !force {
            let fresh = {
                let attrs = self.inner.attrs.borrow();
                attrs.get(&fh).and_then(|e| {
                    let age = self.inner.sim.now().saturating_duration_since(e.fetched);
                    (age < self.attr_timeout(e)).then_some(e.attr)
                })
            };
            if let Some(a) = fresh {
                return Ok(a);
            }
        }
        let rep = self.call(NfsRequest::GetAttr { fh }).await?;
        match rep {
            NfsReply::Attr(attr) => {
                self.note_attrs_checking(fh, attr);
                Ok(attr)
            }
            _ => Err(NfsStatus::Io),
        }
    }

    // ---- open / close -------------------------------------------------------

    /// Opens a file: bumps the open count and performs the NFS open-time
    /// consistency check (a `getattr` RPC).
    pub async fn open(&self, fh: FileHandle, _write: bool) -> Result<Fattr> {
        *self.inner.opens.borrow_mut().entry(fh).or_insert(0) += 1;
        // The open-time check always goes to the server — unless the
        // transport piggybacks post-op attributes and a reply refreshed
        // them within the probe floor, in which case that reply already
        // was the consistency check.
        if self.inner.caller.transport().piggyback {
            let fresh = {
                let attrs = self.inner.attrs.borrow();
                attrs.get(&fh).and_then(|e| {
                    let age = self.inner.sim.now().saturating_duration_since(e.fetched);
                    (age < self.inner.params.attr_min).then_some(e.attr)
                })
            };
            if let Some(a) = fresh {
                self.inner
                    .elided_probes
                    .set(self.inner.elided_probes.get() + 1);
                return Ok(a);
            }
        }
        self.probe_attrs(fh, true).await
    }

    /// Closes a file: drains the partial-write tail and every pending
    /// write-behind RPC, then (with the vintage bug enabled) purges the
    /// file's cached data on final close.
    pub async fn close(&self, fh: FileHandle, _write: bool) -> Result<()> {
        self.flush_tail(fh);
        self.wait_pending(fh).await;
        let err = self
            .inner
            .pending
            .borrow_mut()
            .get_mut(&fh)
            .and_then(|p| p.error.take());
        let last = {
            let mut opens = self.inner.opens.borrow_mut();
            match opens.get_mut(&fh) {
                Some(c) if *c > 1 => {
                    *c -= 1;
                    false
                }
                Some(_) => {
                    opens.remove(&fh);
                    true
                }
                None => true,
            }
        };
        if last && self.inner.params.invalidate_on_close {
            self.inner.cache.borrow_mut().drop_matching(|k| k.0 == fh);
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // ---- data path ----------------------------------------------------------

    async fn fetch_block(&self, fh: FileHandle, lblk: u64, bg: bool) -> Result<Buf> {
        let key = (fh, lblk);
        // Coalesce with an identical fetch already in flight. If that
        // fetch is a read-ahead parked in the batcher, kick it onto the
        // wire: someone is waiting for the data now.
        let waiting = self.inner.in_flight.borrow().get(&key).cloned();
        if let Some(ev) = waiting {
            if !bg {
                self.inner.caller.kick();
            }
            ev.wait().await;
            if let Some(b) = self.inner.cache.borrow_mut().get(&key) {
                return Ok(b);
            }
            // Fall through and fetch ourselves (the other fetch failed).
        }
        let ev = Event::new();
        self.inner.in_flight.borrow_mut().insert(key, ev.clone());
        let req = NfsRequest::Read {
            fh,
            offset: lblk * BLOCK_SIZE as u64,
            count: BLOCK_SIZE as u32,
        };
        let res = if bg {
            self.call_bg(req).await
        } else {
            self.call(req).await
        };
        self.inner.in_flight.borrow_mut().remove(&key);
        ev.set();
        match res? {
            NfsReply::Read(ReadReply { data, attr, .. }) => {
                self.note_attrs_own(fh, attr);
                let block = data.to_buf();
                self.inner
                    .cache
                    .borrow_mut()
                    .insert_clean(key, block.clone());
                Ok(block)
            }
            _ => Err(NfsStatus::Io),
        }
    }

    fn spawn_read_ahead(&self, fh: FileHandle, lblk: u64, size: u64) {
        if !self.inner.params.read_ahead {
            return;
        }
        let next = lblk + 1;
        if next * (BLOCK_SIZE as u64) >= size
            || self.inner.cache.borrow().contains(&(fh, next))
            || self.inner.in_flight.borrow().contains_key(&(fh, next))
        {
            return;
        }
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let _permit = this.inner.biods.acquire().await;
            if this.inner.cache.borrow().contains(&(fh, next)) {
                return;
            }
            let _ = this.fetch_block(fh, next, true).await;
        });
    }

    /// Reads up to `len` bytes at `offset`. Returns `(data, eof)`: the
    /// `read(2)` copy-out, the one copy on the way from the cache.
    pub async fn read(&self, fh: FileHandle, offset: u64, len: u32) -> Result<(Vec<u8>, bool)> {
        // Consistency check (may be served by the attribute cache).
        let attr = self.probe_attrs(fh, false).await?;
        // A pending partial-write tail overlapping the read must be pushed
        // to the server first.
        let overlaps = self
            .inner
            .tails
            .borrow()
            .get(&fh)
            .is_some_and(|t| t.offset < offset + u64::from(len) && offset < t.end());
        if overlaps {
            self.flush_tail(fh);
            self.wait_pending(fh).await;
        }
        let size = attr.size;
        if offset >= size || len == 0 {
            return Ok((Vec::new(), true));
        }
        let end = size.min(offset + u64::from(len));
        let mut out = Vec::with_capacity((end - offset) as usize);
        let first = block_of(offset);
        let last = block_of(end - 1);
        for lblk in first..=last {
            let blk_start = lblk * BLOCK_SIZE as u64;
            let from = (offset.max(blk_start) - blk_start) as usize;
            let to = ((end - blk_start).min(BLOCK_SIZE as u64)) as usize;
            let cached = self.inner.cache.borrow_mut().get(&(fh, lblk));
            let block = match cached {
                Some(b) if b.len() >= to => b,
                _ => {
                    let b = self.fetch_block(fh, lblk, false).await?;
                    self.spawn_read_ahead(fh, lblk, size);
                    b
                }
            };
            let to = to.min(block.len());
            if from < to {
                out.extend_from_slice(&block[from..to]);
            }
        }
        Ok((out, end == size))
    }

    fn bump_pending(&self, fh: FileHandle) {
        let mut pending = self.inner.pending.borrow_mut();
        let p = pending.entry(fh).or_default();
        if p.count == 0 {
            p.done = Event::new();
        }
        p.count += 1;
    }

    fn spawn_write_rpc(&self, fh: FileHandle, offset: u64, data: Buf) {
        self.bump_pending(fh);
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let permit = this.inner.biods.acquire().await;
            let req = NfsRequest::Write {
                fh,
                offset,
                data: data.into(),
            };
            let res = this.call_bg(req).await;
            drop(permit);
            let mut pending = this.inner.pending.borrow_mut();
            let p = pending.entry(fh).or_default();
            match res {
                Ok(NfsReply::Attr(attr)) => {
                    drop(pending);
                    this.note_attrs_own(fh, attr);
                }
                Ok(_) => {
                    p.error.get_or_insert(NfsStatus::Io);
                    drop(pending);
                }
                Err(e) => {
                    p.error.get_or_insert(e);
                    drop(pending);
                }
            }
            let mut pending = this.inner.pending.borrow_mut();
            let p = pending.entry(fh).or_default();
            p.count -= 1;
            if p.count == 0 {
                p.done.set();
            }
        });
    }

    async fn wait_pending(&self, fh: FileHandle) {
        let ev = {
            let pending = self.inner.pending.borrow();
            match pending.get(&fh) {
                Some(p) if p.count > 0 => Some(p.done.clone()),
                _ => None,
            }
        };
        if let Some(ev) = ev {
            // About to block on write-behind: push any parked batch out
            // now rather than letting it ride the Nagle window.
            self.inner.caller.kick();
            ev.wait().await;
        }
    }

    /// Emits the pending partial-block tail as a write RPC, if any.
    fn flush_tail(&self, fh: FileHandle) {
        if let Some(t) = self.inner.tails.borrow_mut().remove(&fh) {
            self.emit_piece(fh, t.offset, t.data);
        }
    }

    /// Spawns the write-behind RPC for one piece (bytes of a single
    /// block), caching it if it is a whole block: the cache, the request
    /// and every clone rpcnet makes of it share the one buffer.
    fn emit_piece(&self, fh: FileHandle, offset: u64, piece: Buf) {
        let key = (fh, block_of(offset));
        if piece.len() == BLOCK_SIZE {
            self.inner
                .cache
                .borrow_mut()
                .insert_clean(key, piece.clone());
        } else {
            // A cached copy of the block predates these bytes; our own
            // write does not invalidate it (`note_attrs_own`), so it
            // would be served until the file closes.
            self.inner.cache.borrow_mut().remove(&key);
        }
        self.spawn_write_rpc(fh, offset, piece);
    }

    /// Writes `data` at `offset` with write-behind semantics: the call
    /// returns as soon as the write is queued; `close` synchronizes.
    /// This is the `write(2)` copy-in: each byte is copied once, into the
    /// buffer of the block it belongs to (bytes that wait in the tail are
    /// copied again when their block fills).
    pub async fn write(&self, fh: FileHandle, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        // Merge with (or flush) the partial-write tail: `head` holds
        // `[start, offset)`, `data` holds `[offset, end)`.
        let old_tail = self.inner.tails.borrow_mut().remove(&fh);
        let (start, head) = match old_tail {
            Some(t) if t.end() == offset => (t.offset, t.data),
            Some(t) => {
                // Non-contiguous: push the old tail out first.
                self.emit_piece(fh, t.offset, t.data);
                (offset, Buf::empty())
            }
            None => (offset, Buf::empty()),
        };
        let end = offset + data.len() as u64;
        let bytes = |a: u64, b: u64| -> Buf {
            if a >= offset {
                Buf::from(&data[(a - offset) as usize..(b - offset) as usize])
            } else if b <= offset {
                head.slice((a - start) as usize..(b - start) as usize)
            } else {
                Buf::concat(
                    &head[(a - start) as usize..],
                    &data[..(b - offset) as usize],
                )
            }
        };
        // Everything below `cut` goes out now, one piece per block; the
        // rest (short of a block boundary) waits in the tail.
        let cut = if self.inner.params.delay_partial_writes {
            ((end / BLOCK_SIZE as u64) * BLOCK_SIZE as u64).max(start)
        } else {
            end
        };
        let mut cur = start;
        while cur < cut {
            let piece_end = cut.min((block_of(cur) + 1) * BLOCK_SIZE as u64);
            self.emit_piece(fh, cur, bytes(cur, piece_end));
            cur = piece_end;
        }
        if cut < end {
            debug_assert_eq!(block_of(cut), block_of(end - 1), "tail spans blocks");
            self.inner.tails.borrow_mut().insert(
                fh,
                Tail {
                    offset: cut,
                    data: bytes(cut, end),
                },
            );
        }
        Ok(())
    }

    /// Synchronously pushes everything pending for `fh` to the server.
    pub async fn fsync(&self, fh: FileHandle) -> Result<()> {
        self.flush_tail(fh);
        self.wait_pending(fh).await;
        Ok(())
    }

    /// Simulates an orderly client reboot (experiment setup): pending
    /// writes are drained, then every cache is dropped.
    pub async fn cold_boot(&self) -> Result<()> {
        let files: Vec<FileHandle> = self.inner.tails.borrow().keys().copied().collect();
        for fh in files {
            self.flush_tail(fh);
        }
        let pending: Vec<FileHandle> = self.inner.pending.borrow().keys().copied().collect();
        for fh in pending {
            self.wait_pending(fh).await;
        }
        self.inner.cache.borrow_mut().clear();
        self.inner.attrs.borrow_mut().clear();
        self.inner.names.borrow_mut().clear();
        Ok(())
    }

    // ---- namespace operations ----------------------------------------------

    /// Translates one name component. The vintage client always issues an
    /// RPC (which is why lookups dominate Table 5-2); with
    /// [`NfsClientParams::name_cache`] a TTL-based dnlc answers repeats.
    pub async fn lookup(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        if self.inner.params.name_cache {
            let hit = {
                let names = self.inner.names.borrow();
                names.get(&(dir, name.to_string())).and_then(|e| {
                    let age = self.inner.sim.now().saturating_duration_since(e.fetched);
                    (age < self.inner.params.name_cache_ttl).then_some((e.fh, e.attr))
                })
            };
            if let Some(hit) = hit {
                return Ok(hit);
            }
        }
        let rep = self
            .call(NfsRequest::Lookup {
                dir,
                name: name.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Handle { fh, attr } => {
                self.note_attrs_checking(fh, attr);
                if self.inner.params.name_cache {
                    self.inner.names.borrow_mut().insert(
                        (dir, name.to_string()),
                        NameEntry {
                            fh,
                            attr,
                            fetched: self.inner.sim.now(),
                        },
                    );
                }
                Ok((fh, attr))
            }
            _ => Err(NfsStatus::Io),
        }
    }

    /// Creates a regular file.
    pub async fn create(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let rep = self
            .call(NfsRequest::Create {
                dir,
                name: name.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Handle { fh, attr } => {
                self.note_attrs_own(fh, attr);
                if self.inner.params.name_cache {
                    self.inner.names.borrow_mut().insert(
                        (dir, name.to_string()),
                        NameEntry {
                            fh,
                            attr,
                            fetched: self.inner.sim.now(),
                        },
                    );
                }
                Ok((fh, attr))
            }
            _ => Err(NfsStatus::Io),
        }
    }

    /// Removes a file. The caller should pass the file's handle via
    /// [`forget`](Self::forget) to drop local caching.
    pub async fn remove(&self, dir: FileHandle, name: &str) -> Result<()> {
        self.inner
            .names
            .borrow_mut()
            .remove(&(dir, name.to_string()));
        let rep = self
            .call(NfsRequest::Remove {
                dir,
                name: name.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Ok => Ok(()),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Creates a directory.
    pub async fn mkdir(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let rep = self
            .call(NfsRequest::Mkdir {
                dir,
                name: name.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Handle { fh, attr } => Ok((fh, attr)),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, dir: FileHandle, name: &str) -> Result<()> {
        let rep = self
            .call(NfsRequest::Rmdir {
                dir,
                name: name.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Ok => Ok(()),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Renames a file or directory.
    pub async fn rename(
        &self,
        from_dir: FileHandle,
        from_name: &str,
        to_dir: FileHandle,
        to_name: &str,
    ) -> Result<()> {
        {
            let mut names = self.inner.names.borrow_mut();
            names.remove(&(from_dir, from_name.to_string()));
            names.remove(&(to_dir, to_name.to_string()));
        }
        let rep = self
            .call(NfsRequest::Rename {
                from_dir,
                from_name: from_name.to_string(),
                to_dir,
                to_name: to_name.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Ok => Ok(()),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Lists a directory.
    pub async fn readdir(&self, dir: FileHandle) -> Result<Vec<DirEntry>> {
        let rep = self.call(NfsRequest::Readdir { dir }).await?;
        match rep {
            NfsReply::Readdir { entries } => Ok(entries),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Creates a hard link `to_dir/to_name` to `from`.
    pub async fn link(&self, from: FileHandle, to_dir: FileHandle, to_name: &str) -> Result<Fattr> {
        let rep = self
            .call(NfsRequest::Link {
                from,
                to_dir,
                to_name: to_name.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Attr(attr) => {
                self.note_attrs_own(from, attr);
                if self.inner.params.name_cache {
                    self.inner.names.borrow_mut().insert(
                        (to_dir, to_name.to_string()),
                        NameEntry {
                            fh: from,
                            attr,
                            fetched: self.inner.sim.now(),
                        },
                    );
                }
                Ok(attr)
            }
            _ => Err(NfsStatus::Io),
        }
    }

    /// Creates a symbolic link `dir/name` → `target`.
    pub async fn symlink(
        &self,
        dir: FileHandle,
        name: &str,
        target: &str,
    ) -> Result<(FileHandle, Fattr)> {
        let rep = self
            .call(NfsRequest::Symlink {
                dir,
                name: name.to_string(),
                target: target.to_string(),
            })
            .await?;
        match rep {
            NfsReply::Handle { fh, attr } => Ok((fh, attr)),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Reads a symbolic link's target.
    pub async fn readlink(&self, fh: FileHandle) -> Result<String> {
        let rep = self.call(NfsRequest::Readlink { fh }).await?;
        match rep {
            NfsReply::Path(p) => Ok(p),
            _ => Err(NfsStatus::Io),
        }
    }

    /// Sets attributes (truncate).
    pub async fn setattr(&self, fh: FileHandle, size: Option<u64>) -> Result<Fattr> {
        let rep = self.call(NfsRequest::SetAttr { fh, size }).await?;
        match rep {
            NfsReply::Attr(attr) => {
                if let Some(sz) = size {
                    let cut = spritely_proto::blocks_for(sz);
                    self.inner
                        .cache
                        .borrow_mut()
                        .drop_matching(|k| k.0 == fh && k.1 >= cut);
                }
                self.note_attrs_own(fh, attr);
                Ok(attr)
            }
            _ => Err(NfsStatus::Io),
        }
    }

    /// Drops all local state for a handle (after unlink).
    pub fn forget(&self, fh: FileHandle) {
        self.inner.cache.borrow_mut().drop_matching(|k| k.0 == fh);
        self.inner.attrs.borrow_mut().remove(&fh);
        self.inner.tails.borrow_mut().remove(&fh);
        self.inner.names.borrow_mut().retain(|_, e| e.fh != fh);
    }
}
