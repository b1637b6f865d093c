//! The SNFS client: version-checked caching with delayed write-back,
//! callback service, and write cancellation for deleted files.
//!
//! What it shares with the NFS client — RPC plumbing, name cache,
//! namespace procedures, the block read path — is
//! [`ClientBase`](spritely_nfs::base::ClientBase). This module is the
//! differences (paper §4.2), all load-bearing for the results:
//!
//! * `open`/`close` RPCs replace attribute probes; while a file is
//!   cachable there are **no consistency checks at all**;
//! * writes to a cachable file go into the cache **dirty** and stay there
//!   — close does *not* flush; the update daemon writes blocks back when
//!   they age past the write-delay (30 s), and deleting the file first
//!   cancels them entirely;
//! * on a `cacheEnabled = false` open, the client bypasses its cache:
//!   every read and write goes to the server (and read-ahead is disabled);
//! * the client services server→client `callback` RPCs using the same
//!   endpoint machinery the server uses (§4.2.2);
//! * the §6.2 **delayed-close** extension (off by default, as in the
//!   paper): closes are held back in anticipation of a quick reopen; a
//!   local timeout (or a cold boot) finally reports them.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::future::Future;
use std::ops::Deref;
use std::rc::Rc;

use spritely_localfs::{DirtyVictim, DropCounts};
use spritely_nfs::base::{BlockClient, ClientBase, ClientParams, Consistency, Key};
use spritely_proto::{
    block_spans, blocks_for, Buf, ClientId, Fattr, FileHandle, FileVersion, NfsReply, NfsRequest,
    NfsStatus, Payload, ReadReply, Result, BLOCK_SIZE,
};
use spritely_rpcnet::ShardCaller;
use spritely_sim::{Event, Semaphore, Sim, SimDuration, SimTime};
use spritely_trace::{EventKind, Tracer};

use crate::delegation::{DelegationStats, LEASE};

pub(crate) mod callback;
mod recovery;
mod writeback;

/// Configuration of the client's write-behind pool (the Ultrix biod
/// analogue): how dirty blocks travel back to the server.
///
/// The defaults are **paper-faithful**: one block per `write` RPC and one
/// RPC in flight, which is exactly the serial flush the paper's SNFS
/// client performs — table 5-x RPC counts are unchanged. Perf-mode runs
/// enable gathering and pipelining via [`pipelined`](Self::pipelined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBehindParams {
    /// Maximum contiguous dirty blocks gathered into one `write` RPC.
    pub gather_blocks: usize,
    /// Maximum write-back RPCs in flight concurrently.
    pub max_inflight: usize,
}

impl Default for WriteBehindParams {
    fn default() -> Self {
        WriteBehindParams {
            gather_blocks: 1,
            max_inflight: 1,
        }
    }
}

impl WriteBehindParams {
    /// BSD-style write gathering and pipelining (perf mode): 16-block
    /// gathered writes, 2 in flight. The pipeline is deliberately
    /// shallow: concurrent write RPCs interleave their blocks on the
    /// server disk and forfeit sequential transfer, so past ~2 in
    /// flight the extra overlap costs more seeks than it hides (the
    /// same reason BSD gathered writes up to a track before issuing).
    pub fn pipelined() -> Self {
        WriteBehindParams {
            gather_blocks: 16,
            max_inflight: 2,
        }
    }
}

/// How long a delayed close (§6.2) lingers before being reported
/// spontaneously.
const DELAYED_CLOSE_TIMEOUT: SimDuration = SimDuration::from_secs(180);

/// Client-side statistics (the "writes averted" story of §5.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Dirty blocks dropped because their file was deleted before
    /// write-back.
    pub cancelled_blocks: u64,
    /// Dirty blocks written back (daemon + callbacks + fsync + eviction).
    pub written_back_blocks: u64,
    /// Callbacks serviced.
    pub callbacks_served: u64,
    /// Cache invalidations performed on behalf of callbacks or version
    /// mismatches.
    pub invalidations: u64,
    /// Opens satisfied locally thanks to delayed close (§6.2).
    pub local_reopens: u64,
    /// Successful recovery re-registrations after a server reboot (§2.4).
    pub recoveries: u64,
    /// Lookups served from the local name cache (§7 extension).
    pub name_cache_hits: u64,
    /// Write-back RPCs that failed (daemon, fsync, callback and eviction
    /// paths alike).
    pub writeback_failures: u64,
    /// Always 0, since only the NFS client consumes piggybacked
    /// attributes; kept only because `benchmark/` reads it.
    pub attr_piggybacks: u64,
}

struct FileInfo {
    cacheable: bool,
    /// Version of the data in our cache, if any.
    cached_version: Option<FileVersion>,
    /// Locally authoritative attributes while we cache the file.
    attr: Fattr,
    readers: u32,
    writers: u32,
    /// §6.2: a close we have not reported yet: (readers, writers) counts
    /// awaiting a close RPC.
    pending_close: Option<(u32, u32)>,
}

impl FileInfo {
    /// A file first heard of with attributes `attr`: cachable, nothing
    /// cached, not open.
    fn new(attr: Fattr) -> Self {
        FileInfo {
            cacheable: true,
            cached_version: None,
            attr,
            readers: 0,
            writers: 0,
            pending_close: None,
        }
    }
}

/// A delegation this client holds on one file (DESIGN.md §17). While it
/// is live (and the lease fresh), opens and closes are served from
/// `FileInfo` with zero RPCs; the counts there double as the queued
/// state the lazy batch return reports.
struct DelegRecord {
    /// Write delegation (covers read and write opens) vs read-only.
    write: bool,
    /// The file was modified under the delegation; the return must bump
    /// the server's version so other clients revalidate.
    wrote: bool,
    /// A recall arrived: stop serving locally, a return is under way.
    recalled: bool,
}

struct Inner {
    /// Everything Spritely NFS shares with NFS: RPC plumbing, the name
    /// cache (here the §7 extension, kept consistent by directory
    /// invalidate callbacks), the namespace procedures and the block read
    /// path. The rest of this struct is the delta.
    base: ClientBase,
    id: ClientId,
    /// Write-behind pool: gathering and pipelining of dirty-block flushes.
    write_behind: WriteBehindParams,
    /// §6.2 extension: hold back `close` RPCs anticipating a reopen.
    delayed_close: bool,
    files: RefCell<HashMap<FileHandle, FileInfo>>,
    stats: Cell<ClientStats>,
    /// Last server epoch observed via `keepalive`/`recover` (0 = never).
    known_epoch: Cell<u64>,
    /// The write-behind pool: `max_inflight` permits, one carried by each
    /// flush daemon, so at most that many write-back RPCs are in flight
    /// (1 = the paper's serial flush).
    flush_slots: Semaphore,
    /// Files this client removed (last link gone): an in-flight eviction
    /// write-back of such a file must be cancelled, not sent — the §4.2.3
    /// cancellation covers data already on its way out of the cache.
    removed: RefCell<HashSet<FileHandle>>,
    /// Callback sequence numbers already seen (server-assigned, stable
    /// across the server's retransmissions): a duplicated delivery of an
    /// invalidate/write-back callback must not run twice.
    cb_seen: RefCell<HashMap<u64, CbGuard>>,
    /// Duplicate callback deliveries short-circuited by `cb_seen`.
    cb_dupes: Cell<u64>,
    /// Delegations held (DESIGN.md §17): exactly what the server granted,
    /// so empty against a server with delegations off.
    delegs: RefCell<HashMap<FileHandle, DelegRecord>>,
    /// Per-file gate while a delegation return is in flight: opens and
    /// closes of that file wait for the return to land, so the batched
    /// counts the return reports cannot be invalidated mid-flight.
    deleg_returning: RefCell<HashMap<FileHandle, Event>>,
    /// When the last keepalive, recover or renewing `DelegReturned` reply
    /// arrived — the delegation lease anchor. Renewed *only* by those
    /// replies: they travel the same host-to-host direction as recall
    /// callbacks, so a fresh lease proves recalls could have reached us
    /// (§17.3).
    last_contact: Cell<SimTime>,
    /// Client-side delegation counters (local opens/closes).
    deleg_stats: Cell<DelegationStats>,
    tracer: RefCell<Option<Tracer>>,
}

/// State of one callback sequence number in the client-side dedup guard.
enum CbGuard {
    /// First delivery is still executing; duplicates wait on the event
    /// and then answer with the recorded outcome.
    InProgress(Event),
    Done(Result<()>),
}

/// A Spritely NFS client bound to one server.
#[derive(Clone)]
pub struct SnfsClient {
    inner: Rc<Inner>,
}

/// Every namespace procedure is the base's own; what SNFS keeps of it is
/// [`Consistency`]'s.
impl Deref for SnfsClient {
    type Target = ClientBase;

    fn deref(&self) -> &ClientBase {
        &self.inner.base
    }
}

impl BlockClient for SnfsClient {
    /// A fetch (or prefetch) can evict a dirty block of an all-dirty
    /// cache; its data must be written out, not dropped.
    fn evicted(&self, victim: DirtyVictim<Key>) -> impl Future<Output = ()> {
        self.write_back_victim(victim)
    }
}

/// SNFS keeps its local attributes authoritative while it caches a file
/// (so a read reply's are not noted), and removing a file's last link
/// **cancels** its delayed writes (§4.2.3) — the temp-file optimization
/// NFS cannot have.
impl Consistency for Inner {
    /// If we cache this file, the server may only know a write-back
    /// prefix of it: our local attributes are the truth (same rule as
    /// open/getattr), and the freshest view we have of a name-cache hit
    /// either way.
    fn looked_up(self: Rc<Self>, fh: FileHandle, attr: Fattr, cached: bool) -> Fattr {
        let c = SnfsClient { inner: self };
        let local = (cached || c.is_cacheable(fh)).then(|| c.local_attr(fh));
        local.flatten().unwrap_or(attr)
    }

    fn created(self: Rc<Self>, fh: FileHandle, attr: Fattr) {
        // A fresh handle can never be "removed" — guard against the file
        // system reusing handle values.
        self.removed.borrow_mut().remove(&fh);
        self.files.borrow_mut().insert(fh, FileInfo::new(attr));
    }

    /// nlink changed; refresh our local view if we track it.
    fn linked(self: Rc<Self>, from: FileHandle, attr: Fattr) {
        if let Some(info) = self.files.borrow_mut().get_mut(&from) {
            info.attr.nlink = attr.nlink;
            info.attr.ctime = attr.ctime;
        }
    }

    /// Dirty blocks past the new end are cancelled before the server
    /// truncates.
    fn truncating(self: Rc<Self>, fh: FileHandle, size: u64) {
        let c = SnfsClient { inner: self };
        let cut = blocks_for(size);
        let dropped = c.truncate_blocks(fh, cut).dirty;
        if dropped > 0 {
            c.cancelled(0, fh, cut, dropped);
        }
    }

    fn set_attr(self: Rc<Self>, fh: FileHandle, _size: Option<u64>, attr: Fattr) {
        if let Some(info) = self.files.borrow_mut().get_mut(&fh) {
            info.attr.size = attr.size;
            info.attr.mtime = attr.mtime;
        }
    }

    /// Opens the `remove` operation's trace span, and cancels `victim`'s
    /// delayed writes when this is its last link: otherwise the data
    /// stays reachable under another name. (A concurrent remote `link`
    /// could race this check — the same window the 1989 systems had.)
    fn removing(self: Rc<Self>, dir: FileHandle, victim: Option<FileHandle>) -> u64 {
        let c = SnfsClient { inner: self };
        let (client, op, fh) = (c.inner.id, "remove", victim.unwrap_or(dir));
        let id = c.emit(0, EventKind::OpBegin { client, op, fh });
        let Some(fh) = victim else { return id };
        {
            let mut files = c.inner.files.borrow_mut();
            if let Some(info) = files.get_mut(&fh).filter(|i| i.attr.nlink > 1) {
                info.attr.nlink -= 1;
                return id;
            }
            files.remove(&fh);
        }
        c.cancelled(id, fh, 0, c.drop_file(fh).dirty);
        // A pending eviction error for a deleted file is moot, and any
        // eviction write-back still queued must be cancelled too (see
        // write_back_victim).
        c.writes().take_error(fh);
        // A delegation on a deleted file has nothing left to protect; the
        // server drops its side with the entry.
        c.inner.delegs.borrow_mut().remove(&fh);
        c.inner.removed.borrow_mut().insert(fh);
        id
    }

    fn removed(self: Rc<Self>, id: u64, _victim: Option<FileHandle>, ok: bool) {
        let (client, op) = (self.id, "remove");
        SnfsClient { inner: self }.emit(id, EventKind::OpEnd { client, op, ok });
    }
}

impl SnfsClient {
    /// Creates a client that calls the server through `caller` — a plain
    /// [`Caller`](spritely_rpcnet::Caller) for the single-server
    /// configuration, or a [`ShardCaller`] routing over several shards.
    /// Its name cache is the §7 extension, whose entries live until a
    /// directory invalidate callback drops them; `write_behind` is its
    /// flush pool, and `delayed_close` the §6.2 extension.
    pub fn new(
        sim: &Sim,
        caller: impl Into<ShardCaller>,
        params: ClientParams,
        write_behind: WriteBehindParams,
        delayed_close: bool,
    ) -> Self {
        let caller = caller.into();
        let id = caller.client_id();
        assert!(
            write_behind.max_inflight > 0,
            "need at least one in-flight write"
        );
        SnfsClient {
            inner: Rc::new_cyclic(|me| Inner {
                base: ClientBase::new(sim, caller, params, None, None, me),
                id,
                write_behind,
                delayed_close,
                files: RefCell::new(HashMap::new()),
                stats: Cell::new(ClientStats::default()),
                known_epoch: Cell::new(0),
                flush_slots: Semaphore::new(write_behind.max_inflight),
                removed: RefCell::new(HashSet::new()),
                cb_seen: RefCell::new(HashMap::new()),
                cb_dupes: Cell::new(0),
                delegs: RefCell::new(HashMap::new()),
                deleg_returning: RefCell::new(HashMap::new()),
                last_contact: Cell::new(sim.now()),
                deleg_stats: Cell::new(DelegationStats::default()),
                tracer: RefCell::new(None),
            }),
        }
    }

    /// Attaches a tracer; client-side cache events (dirty blocks, cache
    /// reads, grants, invalidations, cancellations, flushes) get recorded.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.inner.tracer.borrow_mut() = Some(tracer);
    }

    fn emit(&self, parent: u64, kind: EventKind) -> u64 {
        match self.inner.tracer.borrow().as_ref() {
            Some(t) => t.emit(parent, kind),
            None => 0,
        }
    }

    fn traced(&self) -> bool {
        self.inner.tracer.borrow().is_some()
    }

    /// Runs one client operation between its `OpBegin` and `OpEnd` trace
    /// events; `body` gets the operation's trace id, to parent what it
    /// does under.
    async fn traced_op<T, F: Future<Output = Result<T>>>(
        &self,
        op: &'static str,
        fh: FileHandle,
        body: impl FnOnce(u64) -> F,
    ) -> Result<T> {
        let client = self.inner.id;
        let id = self.emit(0, EventKind::OpBegin { client, op, fh });
        let res = body(id).await;
        let ok = res.is_ok();
        self.emit(id, EventKind::OpEnd { client, op, ok });
        res
    }

    /// This client's id.
    pub fn client_id(&self) -> ClientId {
        self.inner.id
    }

    /// Statistics so far.
    pub fn stats(&self) -> ClientStats {
        let sent = self.write_stats();
        ClientStats {
            name_cache_hits: self.names().hits(),
            written_back_blocks: sent.written,
            writeback_failures: sent.failed,
            ..self.inner.stats.get()
        }
    }

    /// Duplicate callback deliveries absorbed by the sequence guard
    /// (each one would have double-invalidated without it).
    pub fn callback_dupes(&self) -> u64 {
        self.inner.cb_dupes.get()
    }

    /// Client-side delegation counters (local opens and closes).
    pub fn delegation_stats(&self) -> DelegationStats {
        self.inner.deleg_stats.get()
    }

    /// Delegations currently held (test hook).
    pub fn delegations_held(&self) -> usize {
        self.inner.delegs.borrow().len()
    }

    fn bump_deleg(&self, f: impl FnOnce(&mut DelegationStats)) {
        let mut s = self.inner.deleg_stats.get();
        f(&mut s);
        self.inner.deleg_stats.set(s);
    }

    /// True while the delegation lease is fresh: the server answered a
    /// keepalive/recover recently enough that, had it recalled anything
    /// we hold, the recall could have reached us too (DESIGN.md §17.3).
    fn lease_fresh(&self) -> bool {
        let age = self
            .sim()
            .now()
            .saturating_duration_since(self.inner.last_contact.get());
        age < LEASE
    }

    /// True when a live delegation on `fh` may serve local state: it has
    /// not been recalled and the lease is fresh.
    fn deleg_serves(&self, fh: FileHandle) -> bool {
        self.inner
            .delegs
            .borrow()
            .get(&fh)
            .is_some_and(|d| !d.recalled)
            && self.lease_fresh()
    }

    /// Waits out any in-flight delegation return for `fh` (no-op when
    /// none is). Opens and closes pass through here so they cannot
    /// change the open counts between the return's snapshot and its
    /// application at the server.
    async fn wait_deleg_return(&self, fh: FileHandle) {
        loop {
            let gate = self.inner.deleg_returning.borrow().get(&fh).cloned();
            match gate {
                Some(ev) => ev.wait().await,
                None => return,
            }
        }
    }

    /// Number of dirty blocks awaiting write-back.
    pub fn dirty_blocks(&self) -> usize {
        self.cache().dirty_count()
    }

    /// Peak number of data blocks this client ever held resident. The
    /// cache map is lazily populated, so an idle client reports zero
    /// regardless of its configured capacity — the number the 512-client
    /// scaling runs use to price a client's real memory footprint.
    pub fn peak_cache_blocks(&self) -> usize {
        self.cache().peak_resident()
    }

    fn bump_stats(&self, f: impl FnOnce(&mut ClientStats)) {
        let mut s = self.inner.stats.get();
        f(&mut s);
        self.inner.stats.set(s);
    }

    // ---- open / close ------------------------------------------------------

    /// Opens a file: an `open` RPC (or a local reopen under §6.2),
    /// version-checked cache retention, and cachability bookkeeping.
    pub async fn open(&self, fh: FileHandle, write: bool) -> Result<Fattr> {
        self.traced_op("open", fh, |op| self.open_inner(fh, write, op))
            .await
    }

    async fn open_inner(&self, fh: FileHandle, write: bool, op: u64) -> Result<Fattr> {
        self.wait_deleg_return(fh).await;
        if let Some(attr) = self.try_local_open(fh, write, op) {
            return Ok(attr);
        }
        // §6.2 delayed close: if the file is "closed but not reported",
        // and the pending modes cover the new open, reopen locally.
        if self.inner.delayed_close {
            let mut files = self.inner.files.borrow_mut();
            if let Some(info) = files.get_mut(&fh) {
                if let Some((pr, pw)) = info.pending_close {
                    let covered = if write { pw > 0 } else { pr > 0 || pw > 0 };
                    if covered {
                        // Cancel the pending close; transfer one open back.
                        if write {
                            info.writers += 1;
                            info.pending_close = Some((pr, pw - 1));
                        } else if pr > 0 {
                            info.readers += 1;
                            info.pending_close = Some((pr - 1, pw));
                        } else {
                            // Reading under a pending write-open.
                            info.readers += 1;
                            info.pending_close = Some((pr, pw - 1));
                            // The unreported write-open now backs a read;
                            // report the mode we actually hold.
                            info.writers += 1;
                            info.readers -= 1;
                        }
                        if info.pending_close == Some((0, 0)) {
                            info.pending_close = None;
                        }
                        let attr = info.attr;
                        drop(files);
                        self.bump_stats(|s| s.local_reopens += 1);
                        return Ok(attr);
                    }
                }
            }
        }
        let client = self.inner.id;
        let make = || NfsRequest::Open { fh, write, client };
        let open = match self.call(op, make).await? {
            NfsReply::Open(o) => o,
            _ => return Err(NfsStatus::Io),
        };
        if let Some(g) = open.delegation {
            // The server chose us as (sole writer / one of the readers);
            // record the grant — the server already emitted DelegGrant.
            // An upgrade (read → write) replaces the old record; the
            // queued open counts live in FileInfo and survive.
            self.inner.delegs.borrow_mut().insert(
                fh,
                DelegRecord {
                    write: g.is_write(),
                    wrote: false,
                    recalled: false,
                },
            );
        }
        self.inner.removed.borrow_mut().remove(&fh);
        let (attr, flush_first, drop_blocks) = {
            let mut files = self.inner.files.borrow_mut();
            let info = files.entry(fh).or_insert(FileInfo::new(open.attr));
            // Cache validity (paper §3.1): valid if the cached version matches
            // the latest, or — for a write open — the previous version, since
            // that bump came from this very open.
            let valid = match info.cached_version {
                Some(cv) => cv == open.version || (write && cv == open.prev_version),
                None => false,
            };
            let mut drop_blocks = false;
            let mut flush_first = false;
            if !valid && info.cached_version.is_some() {
                drop_blocks = true;
            }
            if !open.cache_enabled {
                // Must stop caching. Any dirty blocks should already have been
                // collected by a callback, but be defensive: push them first.
                flush_first = info.cached_version.is_some();
                drop_blocks = true;
                info.cacheable = false;
                info.cached_version = None;
            } else {
                info.cacheable = true;
                info.cached_version = Some(open.version);
            }
            if write {
                info.writers += 1;
            } else {
                info.readers += 1;
            }
            // Attribute authority: while this client retains a version-valid
            // cache, its local attributes are the truth — the server may be
            // mid-write-back and only know a prefix of the file. Adopt the
            // server's attributes only when the cache was not retained.
            let keep_local = valid && open.cache_enabled;
            if !keep_local {
                info.attr = open.attr;
            }
            (info.attr, flush_first, drop_blocks)
        };
        // Trace the consistency decision: a discarded cache first, then
        // the grant that replaces it.
        if drop_blocks {
            self.emit(
                op,
                EventKind::Invalidate {
                    client: self.inner.id,
                    fh,
                },
            );
        }
        self.emit(
            op,
            EventKind::OpenGrant {
                client: self.inner.id,
                fh,
                version: open.version.0,
                prev_version: open.prev_version.0,
                cache_enabled: open.cache_enabled,
                write,
            },
        );
        if flush_first {
            self.writeback_file(fh, false, op).await?;
        }
        if drop_blocks {
            self.bump_stats(|s| s.invalidations += 1);
            self.drop_file(fh);
        }
        Ok(attr)
    }

    /// Serves an open from a held delegation with zero RPCs (DESIGN.md
    /// §17.1): the delegation must cover the mode, no recall may be in
    /// progress, and the lease must be fresh. Falls back to the RPC path
    /// (returning `None`) otherwise — the delegation record is kept, and
    /// the replace-semantics of the eventual return reconcile the mix.
    fn try_local_open(&self, fh: FileHandle, write: bool, op: u64) -> Option<Fattr> {
        {
            let mut delegs = self.inner.delegs.borrow_mut();
            let d = delegs.get_mut(&fh)?;
            if d.recalled || (write && !d.write) || !self.lease_fresh() {
                return None;
            }
            if write {
                // The normal protocol bumps the version per write open;
                // under a delegation the bump is deferred to the return.
                d.wrote = true;
            }
        }
        let mut files = self.inner.files.borrow_mut();
        let info = files.get_mut(&fh)?;
        if write {
            info.writers += 1;
        } else {
            info.readers += 1;
        }
        let attr = info.attr;
        drop(files);
        self.bump_deleg(|s| s.local_opens += 1);
        self.emit(
            op,
            EventKind::DelegLocalOpen {
                client: self.inner.id,
                fh,
                write,
            },
        );
        Some(attr)
    }

    /// Closes a file. No data is flushed (delayed write-back survives the
    /// close — the whole point, §2.3). Sends the `close` RPC, or defers it
    /// under §6.2.
    pub async fn close(&self, fh: FileHandle, write: bool) -> Result<()> {
        self.traced_op("close", fh, |op| self.close_inner(fh, write, op))
            .await
    }

    async fn close_inner(&self, fh: FileHandle, write: bool, op: u64) -> Result<()> {
        self.wait_deleg_return(fh).await;
        // While we hold the delegation record — even one being recalled
        // was handled by the gate above — the close is absorbed locally:
        // the server never saw some of these opens, and the batch return
        // reports the net counts.
        let absorb = self.inner.delegs.borrow().contains_key(&fh);
        if let Some(d) = self.inner.delegs.borrow_mut().get_mut(&fh) {
            d.wrote |= write;
        }
        {
            let mut files = self.inner.files.borrow_mut();
            if let Some(info) = files.get_mut(&fh) {
                if write {
                    info.writers = info.writers.saturating_sub(1);
                } else {
                    info.readers = info.readers.saturating_sub(1);
                }
                if !absorb && self.inner.delayed_close {
                    let (pr, pw) = info.pending_close.unwrap_or((0, 0));
                    info.pending_close = Some(if write { (pr, pw + 1) } else { (pr + 1, pw) });
                    drop(files);
                    self.schedule_spontaneous_close(fh);
                    return Ok(());
                }
            }
        }
        if absorb {
            self.bump_deleg(|s| s.local_closes += 1);
            return Ok(());
        }
        let client = self.inner.id;
        let make = || NfsRequest::Close { fh, write, client };
        self.call(op, make).await?;
        Ok(())
    }

    /// §6.2: after a timeout, report a still-pending close spontaneously.
    fn schedule_spontaneous_close(&self, fh: FileHandle) {
        let this = self.clone();
        self.sim().spawn(async move {
            this.sim().sleep(DELAYED_CLOSE_TIMEOUT).await;
            let _ = this.flush_pending_close(fh).await;
        });
    }

    /// Reports any pending delayed closes for `fh` to the server.
    pub async fn flush_pending_close(&self, fh: FileHandle) -> Result<()> {
        loop {
            let mode = {
                let mut files = self.inner.files.borrow_mut();
                match files.get_mut(&fh) {
                    Some(info) => match info.pending_close {
                        Some((pr, pw)) if pw > 0 => {
                            info.pending_close = Some((pr, pw - 1));
                            Some(true)
                        }
                        Some((pr, _)) if pr > 0 => {
                            let (pr, pw) = info.pending_close.expect("just matched");
                            info.pending_close = Some((pr - 1, pw));
                            Some(false)
                        }
                        _ => {
                            info.pending_close = None;
                            None
                        }
                    },
                    None => None,
                }
            };
            let Some(write) = mode else { break };
            let client = self.inner.id;
            self.call(0, || NfsRequest::Close { fh, write, client })
                .await?;
        }
        let mut files = self.inner.files.borrow_mut();
        if let Some(info) = files.get_mut(&fh) {
            if info.pending_close == Some((0, 0)) {
                info.pending_close = None;
            }
        }
        Ok(())
    }

    /// `blocks` dirty blocks of `fh` from `from_blk` on were dropped
    /// unwritten, the file's delayed writes cancelled (§4.2.3); traced
    /// under `parent`.
    fn cancelled(&self, parent: u64, fh: FileHandle, from_blk: u64, blocks: u64) {
        self.bump_stats(|s| s.cancelled_blocks += blocks);
        let client = self.inner.id;
        let cancel = EventKind::WriteCancel {
            client,
            fh,
            from_blk,
            blocks,
        };
        self.emit(parent, cancel);
    }

    /// Forgets `fh`'s cached blocks on the server's word (callback, lapsed
    /// lease, fenced return), traced under `parent`.
    fn invalidate(&self, parent: u64, fh: FileHandle) -> DropCounts {
        self.bump_stats(|s| s.invalidations += 1);
        let client = self.inner.id;
        self.emit(parent, EventKind::Invalidate { client, fh });
        self.drop_file(fh)
    }

    fn is_cacheable(&self, fh: FileHandle) -> bool {
        self.inner
            .files
            .borrow()
            .get(&fh)
            .is_none_or(|i| i.cacheable)
    }

    fn local_attr(&self, fh: FileHandle) -> Option<Fattr> {
        self.inner.files.borrow().get(&fh).map(|i| i.attr)
    }

    // ---- data path ----------------------------------------------------------

    /// Reads up to `len` bytes at `offset`. Returns `(data, eof)`: the
    /// `read(2)` copy-out, the one copy on the way from the cache (or,
    /// write-shared, from the reply).
    pub async fn read(&self, fh: FileHandle, offset: u64, len: u32) -> Result<(Vec<u8>, bool)> {
        if !self.is_cacheable(fh) {
            // Write-shared: every read goes to the server; no cache, no
            // read-ahead (paper §4.2.1).
            let count = len;
            let make = || NfsRequest::Read { fh, offset, count };
            let ReadReply { data, eof, .. } = self.call(0, make).await?.into_read()?;
            return Ok((data.to_vec(), eof));
        }
        let attr = match self.local_attr(fh) {
            Some(a) => a,
            None => self.getattr(fh).await?,
        };
        let size = attr.size;
        if offset >= size || len == 0 {
            return Ok((Vec::new(), true));
        }
        let end = size.min(offset + u64::from(len));
        let mut out = Vec::with_capacity((end - offset) as usize);
        // Trace one cache-served read per call, stamped with the granted
        // version, at the moment of the hit (synchronously — so the
        // checker sees it ordered against grants and invalidations).
        let mut trace_hit = if self.traced() {
            self.inner
                .files
                .borrow()
                .get(&fh)
                .and_then(|i| i.cached_version)
        } else {
            None
        };
        for (lblk, from, to) in block_spans(offset, end) {
            // Caching is only ever switched off together with a drop of
            // the file's blocks, so a reply the base caches — cachable
            // when asked for, epoch unmoved when it lands — saw neither an
            // invalidate nor write-sharing come in between: it is not of
            // a version this client was told to forget, which the next
            // `open` would otherwise adopt under the new version.
            let cachable = self.is_cacheable(fh);
            let (block, hit) = ClientBase::read_block(self, fh, lblk, size, cachable, 0).await?;
            if let Some(v) = trace_hit.take_if(|_| hit) {
                let (client, version) = (self.inner.id, v.0);
                let event = EventKind::CacheRead {
                    client,
                    fh,
                    version,
                };
                self.emit(0, event);
            }
            // A short cached block inside the file is a hole: zero-fill.
            let have = block.len().min(to);
            if from < have {
                out.extend_from_slice(&block[from..have]);
            }
            out.resize(out.len() + (to - from.max(have)), 0);
        }
        Ok((out, end == size))
    }

    /// Writes `data` at `offset`. Cachable files take a *delayed* write
    /// (dirty in the cache, no RPC); write-shared files write through
    /// synchronously.
    pub async fn write(&self, fh: FileHandle, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        if !self.is_cacheable(fh) {
            let payload = Payload::copy_in(offset, data);
            let make = || NfsRequest::Write {
                fh,
                offset,
                data: payload.clone(),
            };
            self.call(0, make).await?.into_attr()?;
            return Ok(());
        }
        let now = self.sim().now();
        let old_size = self.local_attr(fh).map_or(0, |a| a.size);
        let end = offset + data.len() as u64;
        let mut taken = 0;
        for (lblk, from, to) in block_spans(offset, end) {
            let chunk = &data[taken..taken + (to - from)];
            taken += to - from;
            let key = (fh, lblk);
            let merged = if chunk.len() == BLOCK_SIZE {
                Buf::from(chunk)
            } else {
                // NOTE: take the cache lookup out of the `match` scrutinee —
                // a borrow held there would live across the `fetch_block`
                // await below and collide with its own cache borrow.
                let cached = self.cache_mut().get(&key);
                let base = match cached {
                    Some(b) => b,
                    None if lblk < blocks_for(old_size) => {
                        // Partial write into an existing block: fetch it.
                        let cachable = self.is_cacheable(fh);
                        ClientBase::fetch_block(self, fh, lblk, false, cachable).await?
                    }
                    None => Buf::empty(),
                };
                // Copy-on-write: a flush or retransmission still holding
                // the old buffer keeps the bytes of its own generation.
                base.patched(from, chunk)
            };
            self.wrote_block(fh, lblk);
            let victim = self.cache_mut().write(key, merged, now);
            self.emit(
                0,
                EventKind::BlockDirty {
                    client: self.inner.id,
                    fh,
                    blk: lblk,
                },
            );
            if let Some(v) = victim {
                self.write_back_victim(v).await;
            }
        }
        // Local attributes are authoritative for a caching writer.
        let mut files = self.inner.files.borrow_mut();
        if let Some(info) = files.get_mut(&fh) {
            info.attr.size = info.attr.size.max(end);
            info.attr.mtime = now.as_micros();
        }
        Ok(())
    }

    /// Synchronously pushes a file's dirty blocks to the server (explicit
    /// flush for applications that want crash-resistance, §2.2).
    pub async fn fsync(&self, fh: FileHandle) -> Result<()> {
        self.traced_op("fsync", fh, |op| async move {
            self.writeback_file(fh, false, op).await?;
            let client = self.inner.id;
            self.emit(op, EventKind::FsyncOk { client, fh });
            Ok(())
        })
        .await
    }

    /// Simulates an orderly client reboot (experiment setup): every dirty
    /// block is written back, then all cached state — data, versions,
    /// attributes — is dropped, as if the machine had power-cycled.
    pub async fn cold_boot(&self) -> Result<()> {
        // An orderly shutdown returns its delegations (with their queued
        // open counts) instead of leaving the server to time them out.
        let mut held: Vec<FileHandle> = self.inner.delegs.borrow().keys().copied().collect();
        held.sort_unstable();
        for fh in held {
            let _ = self.do_deleg_return(0, fh).await;
            self.inner.delegs.borrow_mut().remove(&fh);
        }
        let files: Vec<FileHandle> = {
            let mut v: Vec<FileHandle> = self
                .cache()
                .keys_matching(|_| true)
                .into_iter()
                .map(|k| k.0)
                .collect();
            // A file whose only unwritten data is an in-flight eviction,
            // or whose eviction failed and nobody has asked since, has no
            // cache blocks left: writeback_file waits out the one and
            // reports the other.
            v.extend(self.writes().files());
            v.sort_unstable();
            v.dedup();
            v
        };
        for fh in files {
            self.writeback_file(fh, false, 0).await?;
            self.flush_pending_close(fh).await?;
        }
        self.inner.base.cold_boot();
        self.inner.files.borrow_mut().clear();
        Ok(())
    }

    // ---- attributes ------------------------------------------------------------

    /// Attributes: served locally for cachable files (no refresh needed,
    /// §4.2.1); fetched from the server for write-shared files.
    pub async fn getattr(&self, fh: FileHandle) -> Result<Fattr> {
        // A held delegation is attribute authority (DESIGN.md §17.1):
        // nobody can change the file without a recall reaching us first,
        // so the cached attributes are the truth even for a file that
        // write-sharing once marked uncacheable.
        if self.deleg_serves(fh) || self.is_cacheable(fh) {
            if let Some(a) = self.local_attr(fh) {
                return Ok(a);
            }
        }
        let attr = self.inner.base.getattr(fh).await?;
        // First contact (e.g. a directory) remembers the attributes;
        // cachable files need no refresh (§4.2.1).
        let mut files = self.inner.files.borrow_mut();
        let info = files.entry(fh).or_insert(FileInfo::new(attr));
        if info.attr.mtime <= attr.mtime {
            info.attr = attr;
        }
        Ok(attr)
    }
}
