//! The client core the NFS and Spritely NFS clients share.
//!
//! The paper's pitch is that SNFS is a small delta on NFS (§3): `open`,
//! `close` and `callback` grafted onto an otherwise unchanged client.
//! [`ClientBase`] is the unchanged part, and the only place it lives:
//!
//! * **RPC plumbing**: [`call`](ClientBase::call) /
//!   [`call_bg`](ClientBase::call_bg) over the [`ShardCaller`], with the
//!   trace parent id and the hard mount: a call that meets `Grace` or
//!   outlasts its RPC ladder is made again;
//! * **one name cache** ([`NameCache`]), its lifetime rule passed as data;
//! * **every namespace procedure**: build the request, call, map the
//!   outcomes only a retransmission produces, unpack, maintain the name
//!   cache;
//! * **the block read path**: the data cache, in-flight coalescing, the
//!   per-file invalidation epoch, read-ahead;
//! * **the write-behind ledger** ([`WriteLedger`]) and its one send,
//!   [`write_bg`](ClientBase::write_bg): which files have background
//!   `write`s on the wire, and the first one that failed.
//!
//! Nothing here knows which protocol it serves. Where the two clients
//! differ, the difference is data the caller passes (name-cache lifetime,
//! read-ahead window and gate, trace parent, "cachable") or a decision
//! handed back to the protocol: synchronously through its [`Consistency`]
//! hooks, or, for the one that awaits, through [`BlockClient`]; DESIGN.md
//! §20 lists each.

use std::cell::{Cell, Ref, RefCell, RefMut};
use std::future::Future;
use std::ops::Deref;
use std::rc::{Rc, Weak};

use spritely_localfs::{BlockCache, DirtyVictim, DropCounts};
use spritely_proto::{
    Buf, DirEntry, Fattr, FileHandle, Name, NfsReply, NfsRequest, NfsStatus, Payload, ReadReply,
    Result, BLOCK_SIZE,
};
use spritely_rpcnet::{RpcError, ShardCaller};
use spritely_sim::{Event, Map, Semaphore, Sim, SimDuration, SimTime};

/// A data-cache key: file and logical block.
pub type Key = (FileHandle, u64);

/// The status a failed RPC exchange surfaces as.
pub fn status_of(e: RpcError) -> NfsStatus {
    match e {
        RpcError::Timeout => NfsStatus::Io,
    }
}

struct NameEntry {
    fh: FileHandle,
    attr: Fattr,
    fetched: SimTime,
}

/// Name translations, `dir → name → (handle, attributes)`.
///
/// The lifetime rule is data: with `Some(ttl)` an entry answers for that
/// long (the post-1989 NFS dnlc, only probabilistically consistent); with
/// `None` it answers until dropped, and the owner drops a directory's
/// names when the server says it changed (the SNFS §7 extension). A
/// disabled cache holds nothing and touches nothing. Entries are keyed by
/// the [`Name`] the request carried, so recording one copies no string,
/// and looked up by `&str`.
pub struct NameCache {
    enabled: bool,
    ttl: Option<SimDuration>,
    dirs: Map<FileHandle, Map<Name, NameEntry>>,
    hits: u64,
}

impl NameCache {
    /// An empty cache; see the type for `ttl`.
    pub fn new(enabled: bool, ttl: Option<SimDuration>) -> Self {
        NameCache {
            enabled,
            ttl,
            dirs: Map::default(),
            hits: 0,
        }
    }

    /// The translation of `dir/name`, if cached and still live at `now`.
    pub fn get(
        &mut self,
        dir: FileHandle,
        name: &str,
        now: SimTime,
    ) -> Option<(FileHandle, Fattr)> {
        let e = self.dirs.get(&dir)?.get(name)?;
        if self
            .ttl
            .is_some_and(|ttl| now.saturating_duration_since(e.fetched) >= ttl)
        {
            return None;
        }
        self.hits += 1;
        Some((e.fh, e.attr))
    }

    /// Records `dir/name → (fh, attr)`, learned at `now`.
    pub fn insert(
        &mut self,
        dir: FileHandle,
        name: Name,
        fh: FileHandle,
        attr: Fattr,
        now: SimTime,
    ) {
        if self.enabled {
            let fetched = now;
            let e = NameEntry { fh, attr, fetched };
            self.dirs.entry(dir).or_default().insert(name, e);
        }
    }

    /// Forgets `dir/name`.
    pub fn remove(&mut self, dir: FileHandle, name: &str) {
        if let Some(names) = self.dirs.get_mut(&dir) {
            names.remove(name);
        }
    }

    /// Forgets every name under `dir`.
    pub fn drop_dir(&mut self, dir: FileHandle) {
        self.dirs.remove(&dir);
    }

    /// Forgets every name that translates to `fh`.
    pub fn forget(&mut self, fh: FileHandle) {
        for names in self.dirs.values_mut() {
            names.retain(|_, e| e.fh != fh);
        }
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.dirs.clear();
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// One file's entry in the [`WriteLedger`].
#[derive(Default)]
struct InFlight {
    count: u32,
    /// Set when `count` returns to zero; made only when someone waits.
    done: Option<Event>,
    /// The first write that failed, until somebody takes it.
    error: Option<NfsStatus>,
}

/// Every background `write` on its way to the server, per file: NFS's
/// write-behind RPCs, SNFS's eviction write-backs and flush runs
/// ([`ClientBase::write_bg`] is the one send). Whoever is about to say
/// "this file is at the server" calls [`ClientBase::wait_writes`] first.
/// A file has an entry while it has a write in flight or an error nobody
/// took. Nothing here allocates unless somebody waits: the entries live
/// in a `Vec` in handle order, which keeps its room when it empties, and
/// a busy period's `Event` is made by its first waiter.
#[derive(Default)]
pub struct WriteLedger {
    files: RefCell<Vec<(FileHandle, InFlight)>>,
}

impl WriteLedger {
    /// A background write of `fh` starts. Call it in the synchronous
    /// region that takes the data out of the cache (no await in between),
    /// so a concurrent waiter always sees it.
    pub fn begin(&self, fh: FileHandle) {
        let mut files = self.files.borrow_mut();
        let found = files.binary_search_by_key(&fh, |e| e.0);
        let i = found.unwrap_or_else(|i| {
            files.insert(i, (fh, InFlight::default()));
            i
        });
        files[i].1.count += 1;
    }

    /// A background write of `fh` ended, with `error` if it failed; the
    /// last one wakes the waiters.
    pub fn finish(&self, fh: FileHandle, error: Option<NfsStatus>) {
        let mut files = self.files.borrow_mut();
        let i = files.binary_search_by_key(&fh, |e| e.0);
        let i = i.expect("finish without begin");
        let f = &mut files[i].1;
        f.error = f.error.or(error);
        f.count -= 1;
        if f.count == 0 {
            if let Some(done) = f.done.take() {
                done.set();
            }
            if f.error.is_none() {
                files.remove(i);
            }
        }
    }

    /// Dirty data of `fh` was dropped unwritten: `error` is kept for the
    /// file's next `fsync`/`close`, as a failed background write's is.
    pub fn lose(&self, fh: FileHandle, error: NfsStatus) {
        self.begin(fh);
        self.finish(fh, Some(error));
    }

    /// The first error a background write of `fh` has met: reported once,
    /// at the next `fsync`/`close` (classic delayed-write semantics).
    pub fn take_error(&self, fh: FileHandle) -> Option<NfsStatus> {
        let mut files = self.files.borrow_mut();
        let i = files.binary_search_by_key(&fh, |e| e.0).ok()?;
        let error = files[i].1.error.take();
        if files[i].1.count == 0 {
            files.remove(i);
        }
        error
    }

    /// The event set when `fh`'s writes in flight drain, if it has any.
    fn done(&self, fh: FileHandle) -> Option<Event> {
        let mut files = self.files.borrow_mut();
        let i = files.binary_search_by_key(&fh, |e| e.0).ok()?;
        let f = &mut files[i].1;
        (f.count > 0).then(|| f.done.get_or_insert_with(Event::new).clone())
    }

    /// Background writes in flight, all files together.
    pub fn in_flight(&self) -> usize {
        self.files.borrow().iter().map(|f| f.1.count as usize).sum()
    }

    /// The files with an entry, in handle order.
    pub fn files(&self) -> Vec<FileHandle> {
        self.files.borrow().iter().map(|f| f.0).collect()
    }
}

/// What [`ClientBase::write_bg`] has sent: the write-behind pool's
/// gathering and pipelining, and its failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Background `write`s sent.
    pub writes: u64,
    /// Blocks they carried.
    pub blocks: u64,
    /// Blocks whose `write` succeeded.
    pub written: u64,
    /// `write`s that failed.
    pub failed: u64,
    /// `write`s on the wire now.
    pub on_wire: u64,
    /// The most `write`s ever on the wire at once.
    pub peak: u64,
}

impl WriteStats {
    /// Blocks per `write` (0 before the first).
    pub fn mean_blocks(&self) -> f64 {
        self.blocks as f64 / self.writes.max(1) as f64
    }
}

/// What the base hands back to the protocol client it runs for, at fixed
/// points of a procedure. The hooks are synchronous, so the base holds the
/// client as a `Weak<dyn Consistency>` and a call allocates nothing; each
/// gets the client's `Rc`, so its body can be the client's own code.
pub trait Consistency {
    /// A block read reply carried `fh`'s post-op attributes.
    fn read_attr(self: Rc<Self>, _fh: FileHandle, _attr: Fattr) {}

    /// `lookup` found `fh` (in the name cache if `cached`): what to answer.
    fn looked_up(self: Rc<Self>, fh: FileHandle, attr: Fattr, cached: bool) -> Fattr;

    /// `create` made `fh`.
    fn created(self: Rc<Self>, fh: FileHandle, attr: Fattr);

    /// `link` gave `from` another name and left it `attr`.
    fn linked(self: Rc<Self>, from: FileHandle, attr: Fattr);

    /// A `setattr` of `fh` to `size` bytes is about to be sent.
    fn truncating(self: Rc<Self>, _fh: FileHandle, _size: u64) {}

    /// A `setattr` of `fh` (to `size` bytes, if given) left it `attr`.
    fn set_attr(self: Rc<Self>, fh: FileHandle, size: Option<u64>, attr: Fattr);

    /// A `remove` in `dir` of `victim`'s name is about to be sent: its trace id.
    fn removing(self: Rc<Self>, _dir: FileHandle, _victim: Option<FileHandle>) -> u64 {
        0
    }

    /// The `remove` numbered `op` ended, `ok` or not.
    fn removed(self: Rc<Self>, op: u64, victim: Option<FileHandle>, ok: bool);
}

/// What the shared block path hands back to the protocol client it runs
/// for and has to await, so it is a type parameter, not a hook.
pub trait BlockClient: Clone + Deref<Target = ClientBase> + 'static {
    /// A dirty block the cache pushed out to make room for a fetched one;
    /// its data exists nowhere else.
    fn evicted(&self, victim: DirtyVictim<Key>) -> impl Future<Output = ()>;
}

/// The client host's settings, which both protocol clients read: in the
/// paper both are protocol modules over one Ultrix buffer cache (§4.2), so
/// the cache, the name cache and read-ahead are the host's, not a
/// protocol's. The two that only one protocol has a use for are read by
/// that one alone.
#[derive(Debug, Clone, Copy)]
pub struct ClientParams {
    /// Data cache capacity in blocks (≈16 MB, §5.2).
    pub cache_blocks: usize,
    /// Cache name translations (§7): for NFS a TTL dnlc, only
    /// probabilistically consistent; for SNFS kept consistent by directory
    /// invalidate callbacks.
    pub name_cache: bool,
    /// Blocks prefetched past a cache-missing sequential read (1 = the
    /// paper's single speculative block; wider windows pipeline reads).
    pub read_ahead_window: usize,
    /// NFS: the attribute cache's probe-interval floor (footnote 3: 3 s).
    pub attr_min: SimDuration,
    /// SNFS: the age at which the update daemon writes a dirty block back.
    /// Zero, the paper's "traditional Unix policy" (§4.2.3), flushes every
    /// delayed block at each pass; raise it for Sprite's 30 s-age rule.
    pub write_delay: SimDuration,
}

impl Default for ClientParams {
    fn default() -> Self {
        ClientParams {
            cache_blocks: 4096,
            name_cache: false,
            read_ahead_window: 1,
            attr_min: SimDuration::from_secs(3),
            write_delay: SimDuration::ZERO,
        }
    }
}

/// The protocol-independent client state; see the module documentation.
pub struct ClientBase {
    sim: Sim,
    caller: ShardCaller,
    params: ClientParams,
    names: RefCell<NameCache>,
    cache: RefCell<BlockCache<Key>>,
    /// Reads in flight, so a demand read and a read-ahead of the same
    /// block coalesce into one RPC; the waiters' `Event` is made by the
    /// first reader that joins one.
    in_flight: RefCell<Map<Key, Option<Event>>>,
    /// Per-file invalidation epoch: bumped whenever what a read reply in
    /// flight would bring back has been superseded — the file's blocks
    /// were dropped wholesale or truncated, the client cold-booted, or
    /// the application wrote the very block being fetched. A reply is
    /// cached only if the epoch has not moved since it was asked for.
    epochs: RefCell<Map<FileHandle, u64>>,
    /// When set, a read-ahead holds one of these permits for its RPC.
    read_ahead_gate: Option<Semaphore>,
    writes: WriteLedger,
    sent: Cell<WriteStats>,
    /// The protocol client this base runs for.
    hook: Weak<dyn Consistency>,
}

impl ClientBase {
    /// Builds the core of the client `hook` will point at (as
    /// `Rc::new_cyclic` hands it over). `name_ttl` is the name cache's
    /// lifetime rule ([`NameCache`]); `read_ahead_gate`, when given, bounds
    /// read-aheads in flight together with whatever else the caller runs
    /// under it.
    pub fn new<H: Consistency + 'static>(
        sim: &Sim,
        caller: ShardCaller,
        params: ClientParams,
        name_ttl: Option<SimDuration>,
        read_ahead_gate: Option<Semaphore>,
        hook: &Weak<H>,
    ) -> Self {
        ClientBase {
            sim: sim.clone(),
            caller,
            params,
            names: RefCell::new(NameCache::new(params.name_cache, name_ttl)),
            cache: RefCell::new(BlockCache::new(params.cache_blocks)),
            in_flight: RefCell::new(Map::default()),
            epochs: RefCell::new(Map::default()),
            read_ahead_gate,
            writes: WriteLedger::default(),
            sent: Cell::default(),
            hook: hook.clone(),
        }
    }

    /// The protocol client's hooks. It owns this base, so it is alive.
    fn hook(&self) -> Rc<dyn Consistency> {
        self.hook.upgrade().expect("a client outlives its base")
    }

    /// The simulation this client runs in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The transport to the server(s).
    pub fn caller(&self) -> &ShardCaller {
        &self.caller
    }

    /// The settings this client was built with.
    pub fn params(&self) -> &ClientParams {
        &self.params
    }

    /// The data cache.
    pub fn cache(&self) -> Ref<'_, BlockCache<Key>> {
        self.cache.borrow()
    }

    /// The data cache, mutably.
    pub fn cache_mut(&self) -> RefMut<'_, BlockCache<Key>> {
        self.cache.borrow_mut()
    }

    /// The name cache.
    pub fn names(&self) -> RefMut<'_, NameCache> {
        self.names.borrow_mut()
    }

    /// Data cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.borrow().hit_stats()
    }

    /// The write-behind ledger.
    pub fn writes(&self) -> &WriteLedger {
        &self.writes
    }

    /// Waits until no background write of `fh` is in flight. Loops, because
    /// another process on this client may start one while we wait, and
    /// pushes a parked batch out rather than ride the Nagle window.
    pub async fn wait_writes(&self, fh: FileHandle) {
        while let Some(done) = self.writes.done(fh) {
            self.caller.kick();
            done.wait().await;
        }
    }

    /// What [`write_bg`](Self::write_bg) has sent so far.
    pub fn write_stats(&self) -> WriteStats {
        self.sent.get()
    }

    /// The one way a background `write` leaves this client (DESIGN.md
    /// §10): `data`, one segment per block, at `offset` of `fh`, batchable,
    /// traced under `parent`. The request is built once, around `data`
    /// itself: parking it, retransmitting it and handing it to the server
    /// share its segment list and copy none of it (DESIGN.md §15). It is
    /// in the ledger until its reply lands.
    /// An `evicted` write carries bytes no dirty cache block holds (an NFS
    /// biod write, an SNFS eviction), so nothing else will retry them: it
    /// entered the ledger as they left the cache, before it waited for its
    /// turn, and its failure is kept for the file's next `fsync`/`close`.
    /// Any other write is a flush run whose blocks stay dirty until it
    /// lands: it enters the ledger here, as it is issued, never while it
    /// is queued, and a failure leaves the blocks for a retry.
    pub async fn write_bg(
        &self,
        fh: FileHandle,
        offset: u64,
        data: Payload,
        parent: u64,
        evicted: bool,
    ) -> Result<Fattr> {
        if !evicted {
            self.writes.begin(fh);
        }
        let blocks = data.segments().len() as u64;
        let mut s = self.sent.get();
        (s.writes, s.blocks, s.on_wire) = (s.writes + 1, s.blocks + blocks, s.on_wire + 1);
        s.peak = s.peak.max(s.on_wire);
        self.sent.set(s);
        let res = self
            .call_bg(parent, NfsRequest::Write { fh, offset, data })
            .await;
        let res = res.and_then(NfsReply::into_attr);
        let mut s = self.sent.get();
        s.on_wire -= 1;
        match res {
            Ok(_) => s.written += blocks,
            Err(_) => s.failed += 1,
        }
        self.sent.set(s);
        self.writes.finish(fh, res.err().filter(|_| evicted));
        res
    }

    // ---- RPC plumbing -----------------------------------------------------

    /// One logical call, of a request built once, on a hard mount: the
    /// client asks until the server answers (DESIGN.md §20). Two outcomes
    /// are not an answer yet: `Grace`, from a rebooted server rebuilding
    /// its state table (§2.4; a stateless NFS server never sends it), and
    /// silence, when the RPC ladder runs out. Either way wait 2 s and call
    /// again, a fresh call with a new xid lent the same request. The grace
    /// period is bounded, so `Grace` is retried at most 30 times; silence
    /// is retried for as long as it lasts.
    ///
    /// The reply comes back unlifted, with whether it arrived only on a
    /// retransmission, for [`call_once`](Self::call_once). A reply to a
    /// call made after an exhausted ladder counts as one: the request may
    /// have executed on that ladder, its reply lost with it.
    async fn call_retx(&self, parent: u64, bg: bool, req: &NfsRequest) -> Result<(NfsReply, bool)> {
        let (mut graces, mut again) = (0, false);
        loop {
            match self.caller.call_flagged(parent, req, bg).await {
                Ok((NfsReply::Err(NfsStatus::Grace), _)) if graces < 30 => graces += 1,
                Ok((rep, retx)) => return Ok((rep, retx || again)),
                Err(RpcError::Timeout) => again = true,
            }
            self.sim.sleep(SimDuration::from_secs(2)).await;
        }
    }

    /// Calls the server, parenting the RPC's trace events under `parent`
    /// (0 = none). An error reply becomes `Err`.
    pub async fn call(&self, parent: u64, req: NfsRequest) -> Result<NfsReply> {
        self.call_retx(parent, false, &req).await?.0.into_result()
    }

    /// Background variant for write-behind and read-ahead traffic: the
    /// transport batcher may hold such a call briefly to coalesce it
    /// with its peers.
    pub async fn call_bg(&self, parent: u64, req: NfsRequest) -> Result<NfsReply> {
        self.call_retx(parent, true, &req).await?.0.into_result()
    }

    /// Calls a non-idempotent procedure: one that makes the name it
    /// carries (`create`, `mkdir`, `symlink`, `link`) or takes one away
    /// (`remove`, `rmdir`, `rename`). If the server's duplicate cache has
    /// forgotten our first execution, a retransmission executes again and
    /// fails spuriously (the classic create-returns-EEXIST /
    /// remove-returns-ENOENT race, Juszczak 1989). So a failure that
    /// arrives only on a retransmission is read as what our first
    /// execution left: `Exist` from a maker means a lookup of the name,
    /// answered as a `Handle` (a `link` counts it only if it resolves to
    /// the linked file), and `NoEnt` from a taker means done.
    async fn call_once(&self, parent: u64, req: NfsRequest) -> Result<NfsReply> {
        let made = match &req {
            NfsRequest::Link {
                to_dir, to_name, ..
            } => Some((*to_dir, to_name)),
            NfsRequest::Create { dir, name }
            | NfsRequest::Mkdir { dir, name }
            | NfsRequest::Symlink { dir, name, .. } => Some((*dir, name)),
            _ => None,
        };
        match (self.call_retx(parent, false, &req).await?, made) {
            ((NfsReply::Err(NfsStatus::NoEnt), true), None) => Ok(NfsReply::Ok),
            ((NfsReply::Err(NfsStatus::Exist), true), Some((dir, name))) => {
                let (fh, attr, _) = self.translate(dir, name.clone()).await?;
                Ok(NfsReply::Handle { fh, attr })
            }
            ((rep, _), _) => rep.into_result(),
        }
    }

    // ---- namespace procedures ---------------------------------------------

    fn note_name(&self, dir: FileHandle, name: Name, fh: FileHandle, attr: Fattr) {
        let now = self.sim.now();
        self.names.borrow_mut().insert(dir, name, fh, attr, now);
    }

    /// Translates one name component. The third value says the name
    /// cache answered (no RPC, attributes as old as the entry).
    async fn translate(&self, dir: FileHandle, name: Name) -> Result<(FileHandle, Fattr, bool)> {
        let hit = self.names.borrow_mut().get(dir, &name, self.sim.now());
        if let Some((fh, attr)) = hit {
            return Ok((fh, attr, true));
        }
        let req = NfsRequest::Lookup {
            dir,
            name: name.clone(),
        };
        let (fh, attr) = self.call(0, req).await?.into_handle()?;
        self.note_name(dir, name, fh, attr);
        Ok((fh, attr, false))
    }

    /// Translates one name component, from the name cache or the server.
    pub async fn lookup(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let (fh, attr, cached) = self.translate(dir, name.into()).await?;
        Ok((fh, self.hook().looked_up(fh, attr, cached)))
    }

    /// Attributes, from the server.
    pub async fn getattr(&self, fh: FileHandle) -> Result<Fattr> {
        self.call(0, NfsRequest::GetAttr { fh }).await?.into_attr()
    }

    /// Sets attributes (truncate). The protocol drops the cached blocks
    /// past the new end ([`truncate_blocks`](Self::truncate_blocks)).
    pub async fn setattr(&self, fh: FileHandle, size: Option<u64>) -> Result<Fattr> {
        if let Some(size) = size {
            self.hook().truncating(fh, size);
        }
        let req = NfsRequest::SetAttr { fh, size };
        let attr = self.call(0, req).await?.into_attr()?;
        self.hook().set_attr(fh, size, attr);
        Ok(attr)
    }

    /// Creates a regular file.
    pub async fn create(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let name = Name::from(name);
        let req = NfsRequest::Create {
            dir,
            name: name.clone(),
        };
        let (fh, attr) = self.call_once(0, req).await?.into_handle()?;
        self.note_name(dir, name, fh, attr);
        self.hook().created(fh, attr);
        Ok((fh, attr))
    }

    /// Removes a file's name. `victim`, the file it names if the caller
    /// knows it, lets the protocol drop what it holds of the file.
    pub async fn remove(
        &self,
        dir: FileHandle,
        name: &str,
        victim: Option<FileHandle>,
    ) -> Result<()> {
        let op = self.hook().removing(dir, victim);
        self.names.borrow_mut().remove(dir, name);
        let name = name.into();
        let res = self.call_once(op, NfsRequest::Remove { dir, name }).await;
        let res = res.and_then(NfsReply::into_unit);
        self.hook().removed(op, victim, res.is_ok());
        res
    }

    /// Creates a directory.
    pub async fn mkdir(&self, dir: FileHandle, name: &str) -> Result<(FileHandle, Fattr)> {
        let name = name.into();
        self.call_once(0, NfsRequest::Mkdir { dir, name })
            .await?
            .into_handle()
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, dir: FileHandle, name: &str) -> Result<()> {
        let name = name.into();
        self.call_once(0, NfsRequest::Rmdir { dir, name })
            .await?
            .into_unit()
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
            let mut names = self.names.borrow_mut();
            names.remove(from_dir, from_name);
            names.remove(to_dir, to_name);
        }
        let req = NfsRequest::Rename {
            from_dir,
            from_name: from_name.into(),
            to_dir,
            to_name: to_name.into(),
        };
        self.call_once(0, req).await?.into_unit()
    }

    /// Lists a directory.
    pub async fn readdir(&self, dir: FileHandle) -> Result<Vec<DirEntry>> {
        self.call(0, NfsRequest::Readdir { dir })
            .await?
            .into_entries()
    }

    /// Creates a hard link `to_dir/to_name` to `from`; returns `from`'s
    /// new attributes.
    pub async fn link(&self, from: FileHandle, to_dir: FileHandle, to_name: &str) -> Result<Fattr> {
        let to_name = Name::from(to_name);
        let req = NfsRequest::Link {
            from,
            to_dir,
            to_name: to_name.clone(),
        };
        let attr = match self.call_once(0, req).await? {
            // The name a retransmission found is ours only if it is `from`.
            NfsReply::Handle { fh, attr } if fh == from => attr,
            NfsReply::Handle { .. } => return Err(NfsStatus::Exist),
            rep => rep.into_attr()?,
        };
        self.note_name(to_dir, to_name, from, attr);
        self.hook().linked(from, attr);
        Ok(attr)
    }

    /// Creates a symbolic link `dir/name` → `target`.
    pub async fn symlink(
        &self,
        dir: FileHandle,
        name: &str,
        target: &str,
    ) -> Result<(FileHandle, Fattr)> {
        let name = Name::from(name);
        let req = NfsRequest::Symlink {
            dir,
            name: name.clone(),
            target: target.into(),
        };
        let (fh, attr) = self.call_once(0, req).await?.into_handle()?;
        self.note_name(dir, name, fh, attr);
        Ok((fh, attr))
    }

    /// Reads a symbolic link's target.
    pub async fn readlink(&self, fh: FileHandle) -> Result<String> {
        self.call(0, NfsRequest::Readlink { fh }).await?.into_path()
    }

    // ---- the block read path ----------------------------------------------

    fn epoch(&self, fh: FileHandle) -> u64 {
        self.epochs.borrow().get(&fh).copied().unwrap_or(0)
    }

    fn bump_epoch(&self, fh: FileHandle) {
        *self.epochs.borrow_mut().entry(fh).or_insert(0) += 1;
    }

    /// Drops every cached block of `fh`; reads of it in flight will not
    /// put what they fetched back.
    pub fn drop_file(&self, fh: FileHandle) -> DropCounts {
        self.bump_epoch(fh);
        self.cache.borrow_mut().drop_matching(|k| k.0 == fh)
    }

    /// Drops `fh`'s cached blocks from logical block `cut` on
    /// (truncation), with the same guarantee as
    /// [`drop_file`](Self::drop_file).
    pub fn truncate_blocks(&self, fh: FileHandle, cut: u64) -> DropCounts {
        self.bump_epoch(fh);
        self.cache
            .borrow_mut()
            .drop_matching(|k| k.0 == fh && k.1 >= cut)
    }

    /// The application is writing block `lblk` of `fh` (call before the
    /// cache changes): a fetch of that block already in flight carries
    /// bytes older than the write, and must not land over or after it.
    pub fn wrote_block(&self, fh: FileHandle, lblk: u64) {
        if self.in_flight.borrow().contains_key(&(fh, lblk)) {
            self.bump_epoch(fh);
        }
    }

    /// Drops both caches, as a reboot would.
    pub fn cold_boot(&self) {
        let reading: Vec<FileHandle> = self.in_flight.borrow().keys().map(|k| k.0).collect();
        for fh in reading {
            self.bump_epoch(fh);
        }
        self.cache.borrow_mut().clear();
        self.names.borrow_mut().clear();
    }

    /// Fetches one block from the server and — if the caller says the
    /// file is `cachable` now, and nothing supersedes the reply while it
    /// is in flight (the file's epoch) — caches it. A superseded reply
    /// still answers this reader, who asked before the change. `bg` marks
    /// a read-ahead.
    pub async fn fetch_block<C: BlockClient>(
        c: &C,
        fh: FileHandle,
        lblk: u64,
        bg: bool,
        cachable: bool,
    ) -> Result<Buf> {
        let this: &ClientBase = c;
        let key = (fh, lblk);
        let epoch = this.epoch(fh);
        // Coalesce with an identical fetch already in flight. If that
        // fetch is a read-ahead parked in the batcher, kick it onto the
        // wire: someone is waiting for the data now.
        let waiting = this
            .in_flight
            .borrow_mut()
            .get_mut(&key)
            .map(|waiters| waiters.get_or_insert_with(Event::new).clone());
        if let Some(ev) = waiting {
            if !bg {
                this.caller.kick();
            }
            ev.wait().await;
            if let Some(b) = this.cache.borrow_mut().get(&key) {
                return Ok(b);
            }
            // Fall through and fetch ourselves (the other fetch failed,
            // or was not cached).
        }
        // A fetch that waited in vain keeps the entry of one that began
        // meanwhile, and with it that one's waiters: whichever ends first
        // wakes them all.
        this.in_flight.borrow_mut().entry(key).or_default();
        let req = NfsRequest::Read {
            fh,
            offset: lblk * BLOCK_SIZE as u64,
            count: BLOCK_SIZE as u32,
        };
        let res = this.call_retx(0, bg, &req).await;
        let waiters = this.in_flight.borrow_mut().remove(&key).flatten();
        if let Some(ev) = waiters {
            ev.set();
        }
        let ReadReply { data, attr, .. } = res?.0.into_read()?;
        this.hook().read_attr(fh, attr);
        let block = data.to_buf();
        if cachable && this.epoch(fh) == epoch {
            let victim = this.cache.borrow_mut().insert_clean(key, block.clone());
            if let Some(v) = victim {
                c.evicted(v).await;
            }
        }
        Ok(block)
    }

    fn spawn_read_ahead<C: BlockClient>(
        c: &C,
        fh: FileHandle,
        lblk: u64,
        size: u64,
        cachable: bool,
        epoch: u64,
    ) {
        let this: &ClientBase = c;
        // A window of 1 is the paper's single speculative block.
        let window = this.params.read_ahead_window.max(1) as u64;
        for next in lblk + 1..=lblk + window {
            if next * (BLOCK_SIZE as u64) >= size {
                break;
            }
            if this.cache.borrow().contains(&(fh, next))
                || this.in_flight.borrow().contains_key(&(fh, next))
            {
                continue;
            }
            let c = c.clone();
            this.sim.spawn(async move {
                let this: &ClientBase = &c;
                let _permit = match &this.read_ahead_gate {
                    Some(gate) => {
                        let permit = gate.acquire().await;
                        if this.cache.borrow().contains(&(fh, next)) {
                            return;
                        }
                        Some(permit)
                    }
                    None => None,
                };
                // "Cachable" was said at `epoch`; whatever has invalidated
                // the file since voids it.
                let cachable = cachable && this.epoch(fh) == epoch;
                let _ = Self::fetch_block(&c, fh, next, true, cachable).await;
            });
        }
    }

    /// One block of a demand read: the cached copy if it holds at least
    /// `min_len` bytes (`true`: a hit), else a fetch, with read-ahead
    /// behind it in a file of `size` bytes.
    pub async fn read_block<C: BlockClient>(
        c: &C,
        fh: FileHandle,
        lblk: u64,
        size: u64,
        cachable: bool,
        min_len: usize,
    ) -> Result<(Buf, bool)> {
        let this: &ClientBase = c;
        let cached = this.cache.borrow_mut().get(&(fh, lblk));
        match cached {
            Some(b) if b.len() >= min_len => Ok((b, true)),
            _ => {
                let epoch = this.epoch(fh);
                let b = Self::fetch_block(c, fh, lblk, false, cachable).await?;
                Self::spawn_read_ahead(c, fh, lblk, size, cachable, epoch);
                Ok((b, false))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_proto::FileType;

    const DIR: FileHandle = FileHandle::new(1, 2, 0);
    const OTHER_DIR: FileHandle = FileHandle::new(1, 3, 0);
    const F: FileHandle = FileHandle::new(1, 10, 0);
    const G: FileHandle = FileHandle::new(1, 11, 0);

    fn attr() -> Fattr {
        Fattr {
            fileid: 10,
            ftype: FileType::Regular,
            size: 0,
            nlink: 1,
            mtime: 0,
            ctime: 0,
            atime: 0,
        }
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn ttl_entries_expire_and_callback_entries_do_not() {
        let mut dnlc = NameCache::new(true, Some(SimDuration::from_secs(30)));
        let mut snfs = NameCache::new(true, None);
        for c in [&mut dnlc, &mut snfs] {
            c.insert(DIR, "f".into(), F, attr(), at(0));
            assert_eq!(c.get(DIR, "f", at(29)).map(|e| e.0), Some(F));
        }
        assert!(dnlc.get(DIR, "f", at(30)).is_none(), "TTL reached");
        assert!(snfs.get(DIR, "f", at(3000)).is_some(), "no TTL");
        assert_eq!((dnlc.hits(), snfs.hits()), (1, 2));
    }

    #[test]
    fn drop_dir_forget_and_remove_take_out_what_they_name() {
        let mut c = NameCache::new(true, None);
        c.insert(DIR, "f".into(), F, attr(), at(0));
        c.insert(DIR, "g".into(), G, attr(), at(0));
        c.insert(OTHER_DIR, "link-to-f".into(), F, attr(), at(0));
        c.insert(OTHER_DIR, "g2".into(), G, attr(), at(0));

        c.forget(F);
        assert!(c.get(DIR, "f", at(1)).is_none());
        assert!(c.get(OTHER_DIR, "link-to-f", at(1)).is_none());
        assert!(c.get(DIR, "g", at(1)).is_some());

        c.drop_dir(DIR);
        assert!(c.get(DIR, "g", at(1)).is_none());
        assert!(c.get(OTHER_DIR, "g2", at(1)).is_some(), "other directory");

        c.remove(OTHER_DIR, "g2");
        assert!(c.get(OTHER_DIR, "g2", at(1)).is_none());
        c.remove(DIR, "never-cached");
    }

    #[test]
    fn a_disabled_cache_is_inert() {
        let mut c = NameCache::new(false, None);
        c.insert(DIR, "f".into(), F, attr(), at(0));
        assert!(c.get(DIR, "f", at(0)).is_none());
        c.remove(DIR, "f");
        c.drop_dir(DIR);
        c.forget(F);
        assert!(c.dirs.is_empty(), "nothing was ever stored");
        assert_eq!(c.hits(), 0);
    }
}
