//! The NFS client: attribute cache with adaptive probes, data cache,
//! asynchronous write-behind with flush-on-close.
//!
//! What NFS shares with Spritely NFS — RPC plumbing, name cache,
//! namespace procedures, the block read path — is [`ClientBase`]; this
//! file is what only NFS does, the reference-port behaviour the paper
//! measured (§2.1, §4):
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
//!   Toggleable through [`NfsClient::new`]'s `invalidate_on_close` to
//!   model newer clients.

use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::rc::Rc;

use spritely_localfs::DirtyVictim;
use spritely_proto::{
    block_of, block_spans, blocks_for, Buf, Fattr, FileHandle, Result, BLOCK_SIZE,
};
use spritely_rpcnet::ShardCaller;
use spritely_sim::{Map, Semaphore, Sim, SimDuration, SimTime};

use crate::base::{BlockClient, ClientBase, ClientParams, Consistency, Key};

/// Maximum attribute-cache lifetime (probe interval ceiling; Ultrix
/// clamped the interval to [3 s, 150 s], footnote 3).
const ATTR_MAX: SimDuration = SimDuration::from_secs(150);

/// Number of write-behind daemons (Ultrix ran 4 biods per client).
const BIODS: usize = 4;

/// Lifetime of a name-cache entry.
const NAME_CACHE_TTL: SimDuration = SimDuration::from_secs(30);

struct AttrEntry {
    attr: Fattr,
    fetched: SimTime,
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
    /// Everything NFS shares with Spritely NFS: RPC plumbing, the name
    /// cache (here the TTL-based dnlc), the namespace procedures and the
    /// block read path.
    base: ClientBase,
    /// Purge the file's cached data on final close (the vintage
    /// reference-port bug the paper measured around, §5.2).
    invalidate_on_close: bool,
    attrs: RefCell<Map<FileHandle, AttrEntry>>,
    tails: RefCell<Map<FileHandle, Tail>>,
    opens: RefCell<Map<FileHandle, u32>>,
    /// Open-time `getattr` probes elided because a piggybacked post-op
    /// attribute was still inside the probe floor (piggybacking
    /// transports only).
    elided_probes: Cell<u64>,
    /// The biod pool: write-behind RPCs and read-aheads share its permits.
    biods: Semaphore,
}

/// An NFS client bound to one server.
#[derive(Clone)]
pub struct NfsClient {
    inner: Rc<Inner>,
}

/// Every namespace procedure is the base's own; what NFS keeps of it is
/// [`Consistency`]'s.
impl Deref for NfsClient {
    type Target = ClientBase;

    fn deref(&self) -> &ClientBase {
        &self.inner.base
    }
}

impl BlockClient for NfsClient {
    async fn evicted(&self, _victim: DirtyVictim<Key>) {
        unreachable!("an NFS data cache holds no dirty blocks");
    }
}

/// NFS notes in its attribute cache what each reply says: checked
/// against what it held after a lookup's RPC (the vintage client always
/// issues one, which is why lookups dominate Table 5-2), as its own
/// after anything it did. A removed file is forgotten.
impl Consistency for Inner {
    fn read_attr(self: Rc<Self>, fh: FileHandle, attr: Fattr) {
        NfsClient { inner: self }.note_attrs_own(fh, attr);
    }

    fn looked_up(self: Rc<Self>, fh: FileHandle, attr: Fattr, cached: bool) -> Fattr {
        if !cached {
            NfsClient { inner: self }.note_attrs_checking(fh, attr);
        }
        attr
    }

    fn created(self: Rc<Self>, fh: FileHandle, attr: Fattr) {
        NfsClient { inner: self }.note_attrs_own(fh, attr);
    }

    fn linked(self: Rc<Self>, from: FileHandle, attr: Fattr) {
        NfsClient { inner: self }.note_attrs_own(from, attr);
    }

    fn set_attr(self: Rc<Self>, fh: FileHandle, size: Option<u64>, attr: Fattr) {
        if let Some(size) = size {
            self.base.truncate_blocks(fh, blocks_for(size));
        }
        NfsClient { inner: self }.note_attrs_own(fh, attr);
    }

    fn removed(self: Rc<Self>, _op: u64, victim: Option<FileHandle>, ok: bool) {
        if let Some(fh) = victim.filter(|_| ok) {
            self.base.drop_file(fh);
            self.attrs.borrow_mut().remove(&fh);
            self.tails.borrow_mut().remove(&fh);
            self.base.names().forget(fh);
        }
    }
}

impl NfsClient {
    /// Creates a client that calls the server through `caller` — a plain
    /// [`Caller`](spritely_rpcnet::Caller) for the single-server
    /// configuration, or a [`ShardCaller`] routing over several shards.
    /// Its name cache is the dnlc, whose entries live 30 s;
    /// `invalidate_on_close` is the vintage client's close bug (§5.2).
    pub fn new(
        sim: &Sim,
        caller: impl Into<ShardCaller>,
        params: ClientParams,
        invalidate_on_close: bool,
    ) -> Self {
        let biods = Semaphore::new(BIODS);
        let ttl = Some(NAME_CACHE_TTL);
        NfsClient {
            inner: Rc::new_cyclic(|me| Inner {
                base: ClientBase::new(sim, caller.into(), params, ttl, Some(biods.clone()), me),
                invalidate_on_close,
                attrs: RefCell::new(Map::default()),
                tails: RefCell::new(Map::default()),
                opens: RefCell::new(Map::default()),
                elided_probes: Cell::new(0),
                biods,
            }),
        }
    }

    /// Open-time `getattr` probes elided thanks to piggybacked post-op
    /// attributes (always 0 on the paper transport).
    pub fn elided_probes(&self) -> u64 {
        self.inner.elided_probes.get()
    }

    // ---- attribute cache --------------------------------------------------

    fn attr_timeout(&self, e: &AttrEntry) -> SimDuration {
        // Adaptive probe interval: a file modified recently is probed
        // often; one that has been stable for a long time is probed
        // rarely. Ultrix clamped the interval to [3 s, 150 s] (footnote 3).
        let age_us = e.fetched.as_micros().saturating_sub(e.attr.mtime);
        let t = SimDuration::from_micros(age_us / 4);
        t.max(self.params().attr_min).min(ATTR_MAX)
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
            self.drop_file(fh);
        }
        self.inner.attrs.borrow_mut().insert(
            fh,
            AttrEntry {
                attr: new,
                fetched: self.sim().now(),
            },
        );
    }

    /// Refreshes attributes from a piggybacked reply (our own operation
    /// caused any change, so no invalidation check).
    fn note_attrs_own(&self, fh: FileHandle, new: Fattr) {
        let mut attrs = self.inner.attrs.borrow_mut();
        let e = attrs.entry(fh).or_insert(AttrEntry {
            attr: new,
            fetched: self.sim().now(),
        });
        if new.mtime >= e.attr.mtime {
            e.attr = new;
        }
        e.fetched = self.sim().now();
    }

    /// `fh`'s cached attributes, if fetched less than `ttl` of them ago.
    fn fresh_attr(&self, fh: FileHandle, ttl: impl Fn(&AttrEntry) -> SimDuration) -> Option<Fattr> {
        let attrs = self.inner.attrs.borrow();
        let e = attrs.get(&fh)?;
        let age = self.sim().now().saturating_duration_since(e.fetched);
        (age < ttl(e)).then_some(e.attr)
    }

    /// Returns attributes, probing the server if the cache has expired
    /// (or unconditionally with `force`).
    pub async fn probe_attrs(&self, fh: FileHandle, force: bool) -> Result<Fattr> {
        if !force {
            if let Some(a) = self.fresh_attr(fh, |e| self.attr_timeout(e)) {
                return Ok(a);
            }
        }
        let attr = self.getattr(fh).await?;
        self.note_attrs_checking(fh, attr);
        Ok(attr)
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
        if self.caller().transport().piggyback {
            if let Some(a) = self.fresh_attr(fh, |_| self.params().attr_min) {
                let elided = &self.inner.elided_probes;
                elided.set(elided.get() + 1);
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
        self.wait_writes(fh).await;
        // The first asynchronous write error is reported here (Unix EIO
        // convention).
        let err = self.writes().take_error(fh);
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
        if last && self.inner.invalidate_on_close {
            self.drop_file(fh);
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // ---- data path ----------------------------------------------------------

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
            self.wait_writes(fh).await;
        }
        let size = attr.size;
        if offset >= size || len == 0 {
            return Ok((Vec::new(), true));
        }
        let end = size.min(offset + u64::from(len));
        let mut out = Vec::with_capacity((end - offset) as usize);
        for (lblk, from, to) in block_spans(offset, end) {
            // A cached block too short for this read predates the bytes
            // wanted from it: fetch it again.
            let (block, _) = ClientBase::read_block(self, fh, lblk, size, true, to).await?;
            let to = to.min(block.len());
            if from < to {
                out.extend_from_slice(&block[from..to]);
            }
        }
        Ok((out, end == size))
    }

    /// Emits the pending partial-block tail as a write RPC, if any.
    fn flush_tail(&self, fh: FileHandle) {
        if let Some(t) = self.inner.tails.borrow_mut().remove(&fh) {
            self.emit_piece(fh, t.offset, t.data);
        }
    }

    /// Hands one piece (bytes of a single block) to a biod, caching it if
    /// it is a whole block: the cache, the request and every clone rpcnet
    /// makes of it share the one buffer. The piece is in the ledger from
    /// here until its reply lands.
    fn emit_piece(&self, fh: FileHandle, offset: u64, piece: Buf) {
        let key = (fh, block_of(offset));
        // A read-ahead of this block still on the wire predates the bytes.
        self.wrote_block(fh, key.1);
        if piece.len() == BLOCK_SIZE {
            self.cache_mut().insert_clean(key, piece.clone());
        } else {
            // A cached copy of the block predates these bytes; our own
            // write does not invalidate it (`note_attrs_own`), so it
            // would be served until the file closes.
            self.cache_mut().remove(&key);
        }
        self.writes().begin(fh);
        let this = self.clone();
        self.sim().spawn(async move {
            let _biod = this.inner.biods.acquire().await;
            if let Ok(attr) = this.write_bg(fh, offset, piece.into(), 0, true).await {
                this.note_attrs_own(fh, attr);
            }
        });
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
        // rest (short of a block boundary) waits in the tail: writes that
        // do not extend to a block boundary are delayed (footnote 4).
        let cut = ((end / BLOCK_SIZE as u64) * BLOCK_SIZE as u64).max(start);
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
        self.wait_writes(fh).await;
        Ok(())
    }

    /// Simulates an orderly client reboot (experiment setup): pending
    /// writes are drained, then every cache is dropped.
    pub async fn cold_boot(&self) -> Result<()> {
        let mut files: Vec<FileHandle> = self.inner.tails.borrow().keys().copied().collect();
        files.sort_unstable();
        for fh in files {
            self.flush_tail(fh);
        }
        for fh in self.writes().files() {
            self.wait_writes(fh).await;
        }
        self.inner.base.cold_boot();
        self.inner.attrs.borrow_mut().clear();
        Ok(())
    }
}
