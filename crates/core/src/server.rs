//! The SNFS server: the stateless NFS service plus the state-table
//! manager and server→client callbacks.
//!
//! Mirrors the paper's implementation (§4.3): "Our only modification to
//! the original NFS server code was to add the two new RPC service
//! functions" — all other procedures delegate to the baseline NFS handler
//! in `spritely-nfs`. The new `open` service consults the state table and
//! may issue callbacks before replying; `close` just notifies the table.
//!
//! Threading discipline (§3.2): an SNFS server with N service threads may
//! run at most N−1 callbacks simultaneously, so that a callback-induced
//! write-back always finds a free thread — otherwise open(A) → callback(B)
//! → write(B) would deadlock on the thread pool.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use spritely_blockdev::DiskSched;
use spritely_localfs::LocalFs;
use spritely_metrics::{InflightGauge, OpCounter};
use spritely_proto::{
    CallbackArg, CallbackReply, ClientId, FileHandle, FileVersion, Layout, NfsReply, NfsRequest,
    NfsStatus, OpenReply,
};
use spritely_rpcnet::{Caller, Endpoint, EndpointParams};
use spritely_sim::{Resource, Semaphore, Sim, SimDuration};
use spritely_trace::{Cause, EventKind, Tracer};

use crate::delegation::{DelegationParams, DelegationStats};
use crate::state_table::{CallbackNeeded, Deleg, FileState, StateTable};

/// SNFS server configuration.
#[derive(Debug, Clone, Copy)]
pub struct SnfsServerParams {
    /// Maximum state-table entries (paper §4.3.1; each entry cost 68
    /// bytes, so limits could be liberal — 1000 entries ≈ 70 KB).
    pub table_limit: usize,
    /// When over the limit, reclaim down to this many entries.
    pub reclaim_target: usize,
    /// §6.1 coexistence: treat a plain-NFS read/write of a file that is
    /// open under SNFS as an implicit SNFS open, so NFS clients get
    /// consistent data and SNFS clients get their callbacks.
    pub hybrid_nfs: bool,
    /// §2.4 recovery: how long a rebooted server stays in its grace
    /// period, accepting only `recover`/`keepalive` calls while clients
    /// re-register their state.
    pub grace_period: SimDuration,
    /// §7 extension: Sprite-style consistency for name translations. A
    /// `lookup` registers the caller as a watcher of the directory; any
    /// namespace change to that directory sends invalidate callbacks to
    /// the other watchers *before* the change is acknowledged, so client
    /// name caches can never serve a stale translation.
    pub dir_callbacks: bool,
    /// First retry delay after a timed-out callback. Doubles per retry
    /// (capped at 8 s). A timed-out callback used to declare the client
    /// crashed immediately, so one lossy exchange — or a transient
    /// partition — destroyed a live client's write-back claim.
    pub callback_retry_backoff: SimDuration,
    /// How long callback retries continue before the client is declared
    /// dead (its state discarded, §3.2's "dead client" case). Roughly
    /// three keepalive intervals: a client silent that long has missed
    /// its liveness horizon too. Zero restores the legacy
    /// give-up-on-first-timeout behavior (used by regression tests to
    /// pin the old bug).
    pub callback_dead_after: SimDuration,
    /// Open-delegation knobs (DESIGN.md §17). Off by default; when off
    /// the server grants nothing, recalls nothing, and its replies are
    /// byte-identical to the paper configuration.
    pub delegation: DelegationParams,
}

impl Default for SnfsServerParams {
    fn default() -> Self {
        SnfsServerParams {
            table_limit: 1000,
            reclaim_target: 900,
            hybrid_nfs: true,
            grace_period: SimDuration::from_secs(20),
            dir_callbacks: true,
            callback_retry_backoff: SimDuration::from_secs(2),
            callback_dead_after: SimDuration::from_secs(30),
            delegation: DelegationParams::paper(),
        }
    }
}

/// Server I/O pipeline configuration: how the server's disk arm is
/// scheduled, how large its block cache is, whether concurrent miss
/// reads coalesce, and how many RPCs may be admitted concurrently.
///
/// [`ServerIoParams::paper`] (the default) reproduces the measured 1989
/// server byte-for-byte; [`ServerIoParams::pipelined`] turns all three
/// layers on. Server writes stay synchronous in both modes — the cache
/// is write-through and never delays durability, per the paper's NFS
/// server semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerIoParams {
    /// Disk-arm scheduling policy for the server disk.
    pub sched: DiskSched,
    /// Server buffer-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Collapse concurrent cache misses on one block into a single disk
    /// read (followers wait for the leader's fetch).
    pub single_flight_reads: bool,
    /// RPC service threads. This is the admission width — that many RPCs
    /// overlap CPU with disk waits — and the N of the N−1 callback bound.
    pub service_threads: usize,
}

impl ServerIoParams {
    /// The paper-era server: FIFO arm, the baseline 896-block cache, one
    /// disk read per miss, 4 service threads. Keeps every `table_5_*`
    /// and `figure_5_*` artifact byte-identical.
    pub fn paper() -> Self {
        ServerIoParams {
            sched: DiskSched::Fifo,
            cache_blocks: 896,
            single_flight_reads: false,
            service_threads: 4,
        }
    }

    /// The pipelined server: C-LOOK arm scheduling (aging limit 4, so no
    /// request is bypassed more than 4 times; 2M-block full stroke), a
    /// 4096-block cache with single-flight misses, and 8 service threads
    /// overlapping CPU with disk waits.
    pub fn pipelined() -> Self {
        ServerIoParams {
            sched: DiskSched::CLook {
                max_bypass: 4,
                stroke_blocks: 1 << 21,
            },
            cache_blocks: 4096,
            single_flight_reads: true,
            service_threads: 8,
        }
    }
}

impl Default for ServerIoParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Callback-related statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Callbacks issued.
    pub callbacks_sent: u64,
    /// Callbacks that failed (client treated as crashed).
    pub callbacks_failed: u64,
    /// Reclaim passes run.
    pub reclaim_passes: u64,
}

/// A server's place in a sharded namespace (DESIGN.md §18): its shard
/// index, its export root, and the authority layout every shard shares.
#[derive(Clone)]
pub struct ShardView {
    /// This server's shard index (its export fsid minus one).
    pub shard: u32,
    /// This shard's export root.
    pub root: FileHandle,
    /// The authority layout. Cross-shard commits mutate it; the gate and
    /// `WrongShard` replies read it.
    pub layout: Rc<RefCell<Layout>>,
}

/// Sharded-namespace counters (DESIGN.md §18). All pure counts: bumping
/// them never perturbs scheduling, so the unsharded configuration stays
/// byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOpStats {
    /// Cross-shard renames committed by this shard as coordinator.
    pub cross_renames: u64,
    /// Cross-shard links committed by this shard as coordinator.
    pub cross_links: u64,
    /// `WrongShard` replies sent (stale client layouts redirected).
    pub wrong_shard_replies: u64,
    /// `Busy` refusals (a name momentarily locked by a transaction).
    pub busy_rejections: u64,
    /// Commit/abort deliveries that needed a retry.
    pub commit_retries: u64,
    /// `file_lock` acquisitions that found the lock already claimed.
    pub lock_contention: u64,
}

/// Participant-side record of a prepared cross-shard transaction.
struct TxEntry {
    /// The target name this shard locked at prepare.
    name: String,
    /// The entry that existed under that name at prepare time (deleted
    /// at commit, when the coordinator's rename supersedes it).
    existed_fh: Option<FileHandle>,
    /// Resolved (committed or aborted); kept for duplicate deliveries.
    done: bool,
}

struct Inner {
    sim: Sim,
    fs: LocalFs,
    table: RefCell<StateTable>,
    /// Registered callback channels, one per client host.
    callback_clients: RefCell<HashMap<ClientId, Caller<CallbackArg, CallbackReply>>>,
    /// Per-file serialization of open/close transitions.
    file_locks: RefCell<HashMap<FileHandle, Semaphore>>,
    /// At most N−1 simultaneous callbacks (N = service threads).
    callback_slots: Semaphore,
    /// Concurrent callbacks in flight (peak must stay ≤ N−1).
    callback_inflight: InflightGauge,
    params: SnfsServerParams,
    stats: Cell<ServerStats>,
    /// Delegation counters (server-side half of [`DelegationStats`]).
    deleg_stats: Cell<DelegationStats>,
    /// Reboot generation; bumped by [`SnfsServer::reboot`]. Clients learn
    /// it from `keepalive` replies and re-register on a change.
    epoch: Cell<u64>,
    /// End of the post-reboot grace period, if one is running.
    grace_until: Cell<Option<spritely_sim::SimTime>>,
    /// Clients that may be caching name translations under a directory
    /// (§7 extension). Cleared per client when an invalidate is sent.
    dir_watchers: RefCell<HashMap<FileHandle, Vec<ClientId>>>,
    /// Service-thread count (for the N−1 trace metadata).
    service_threads: usize,
    /// Logical-callback sequence numbers (stable across retries of the
    /// same callback, so clients can deduplicate duplicate deliveries).
    cb_next_seq: Cell<u64>,
    /// Timed-out callback attempts that were retried instead of
    /// declaring the client dead.
    callback_retries: Cell<u64>,
    /// Unresolved recalls per holder. While non-zero the holder's
    /// keepalives are answered `Grace` instead of renewing its lease
    /// (DESIGN.md §17.3): the recall timeout (20 s) only proves a dead
    /// holder's lease (15 s) lapsed if no renewal crossed the wire
    /// after the recall started.
    recalls_pending: RefCell<HashMap<ClientId, u32>>,
    tracer: RefCell<Option<Tracer>>,
    /// Sharded-namespace view; `None` in the single-server configuration,
    /// where every shard code path costs one borrow + `Option` check.
    shard: RefCell<Option<ShardView>>,
    /// Inter-shard RPC channels to peer shard servers, by shard index.
    peers: RefCell<HashMap<u32, Caller<NfsRequest, NfsReply>>>,
    /// Root-level names locked by an in-flight cross-shard transaction
    /// (volatile; cleared on crash).
    name_locks: RefCell<HashSet<String>>,
    /// Participant-side transaction table (volatile; cleared on crash).
    tx_table: RefCell<HashMap<u64, TxEntry>>,
    /// Coordinator-side transaction id counter (namespaced by shard).
    next_txid: Cell<u64>,
    shard_stats: Cell<ShardOpStats>,
}

/// The Spritely NFS server.
#[derive(Clone)]
pub struct SnfsServer {
    inner: Rc<Inner>,
}

impl SnfsServer {
    /// Creates a server over `fs`. `service_threads` must match the
    /// endpoint's thread count so the N−1 callback rule holds.
    ///
    /// # Panics
    ///
    /// Panics if `service_threads < 2` — a single-threaded SNFS server
    /// would deadlock on the first write-back callback (§3.2).
    pub fn new(sim: &Sim, fs: LocalFs, service_threads: usize, params: SnfsServerParams) -> Self {
        assert!(
            service_threads >= 2,
            "SNFS needs >= 2 service threads (callback deadlock, paper §3.2)"
        );
        SnfsServer {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                fs,
                table: RefCell::new(StateTable::new(params.table_limit)),
                callback_clients: RefCell::new(HashMap::new()),
                file_locks: RefCell::new(HashMap::new()),
                callback_slots: Semaphore::new(service_threads - 1),
                callback_inflight: InflightGauge::new(),
                params,
                stats: Cell::new(ServerStats::default()),
                deleg_stats: Cell::new(DelegationStats::default()),
                epoch: Cell::new(1),
                grace_until: Cell::new(None),
                dir_watchers: RefCell::new(HashMap::new()),
                service_threads,
                cb_next_seq: Cell::new(0),
                callback_retries: Cell::new(0),
                recalls_pending: RefCell::new(HashMap::new()),
                tracer: RefCell::new(None),
                shard: RefCell::new(None),
                peers: RefCell::new(HashMap::new()),
                name_locks: RefCell::new(HashSet::new()),
                tx_table: RefCell::new(HashMap::new()),
                next_txid: Cell::new(0),
                shard_stats: Cell::new(ShardOpStats::default()),
            }),
        }
    }

    /// Places this server in a sharded namespace (DESIGN.md §18): it
    /// serves shard `shard`, exports `root`, and consults (and, as a
    /// cross-shard coordinator, mutates) the shared authority `layout`.
    pub fn set_shard(&self, shard: u32, root: FileHandle, layout: Rc<RefCell<Layout>>) {
        *self.inner.shard.borrow_mut() = Some(ShardView {
            shard,
            root,
            layout,
        });
    }

    /// Registers the inter-shard RPC channel to peer shard `shard`.
    pub fn register_peer(&self, shard: u32, caller: Caller<NfsRequest, NfsReply>) {
        self.inner.peers.borrow_mut().insert(shard, caller);
    }

    /// Sharded-namespace counters.
    pub fn shard_stats(&self) -> ShardOpStats {
        self.inner.shard_stats.get()
    }

    /// Attaches a tracer. Emits the `server_threads` metadata the trace
    /// checker uses for the N−1 callback bound, then records every
    /// state-table transition, callback, and crash.
    pub fn set_tracer(&self, tracer: Tracer) {
        tracer.meta("server_threads", self.inner.service_threads.to_string());
        tracer.meta("table_limit", self.inner.params.table_limit.to_string());
        *self.inner.tracer.borrow_mut() = Some(tracer);
    }

    fn emit(&self, parent: u64, kind: EventKind) -> u64 {
        self.emit_with(parent, || kind)
    }

    /// [`emit`](Self::emit) for events that own strings: `kind` runs, and
    /// clones them, only when a tracer is attached.
    fn emit_with(&self, parent: u64, kind: impl FnOnce() -> EventKind) -> u64 {
        match self.inner.tracer.borrow().as_ref() {
            Some(t) => t.emit(parent, kind()),
            None => 0,
        }
    }

    /// Records one state-table transition. Must be called in the same
    /// synchronous region as the table mutation (no await between them),
    /// so the trace order matches the mutation order.
    fn emit_transition(
        &self,
        parent: u64,
        fh: FileHandle,
        cause: Cause,
        client: ClientId,
        from: FileState,
        to: FileState,
    ) -> u64 {
        if self.inner.tracer.borrow().is_none() {
            return 0;
        }
        let version = self.inner.table.borrow().version_of(fh).map_or(0, |v| v.0);
        self.emit(
            parent,
            EventKind::Transition {
                fh,
                cause,
                client,
                from: from.into(),
                to: to.into(),
                version,
            },
        )
    }

    /// Records the per-file transitions of a client-crash cleanup.
    fn emit_client_crashed(
        &self,
        parent: u64,
        client: ClientId,
        affected: &[(FileHandle, FileState, FileState)],
    ) {
        for &(fh, before, after) in affected {
            self.emit_transition(parent, fh, Cause::ClientCrash, client, before, after);
        }
    }

    /// Registers `client` as possibly caching names under `dir`.
    fn watch_dir(&self, dir: FileHandle, client: ClientId) {
        let mut w = self.inner.dir_watchers.borrow_mut();
        let v = w.entry(dir).or_default();
        if !v.contains(&client) {
            v.push(client);
        }
    }

    /// Invalidates every other watcher's name cache for `dir` before a
    /// namespace change is acknowledged (§7 extension). Watchers are
    /// deregistered by the invalidate; they re-register on their next
    /// lookup.
    async fn invalidate_dir_watchers(&self, parent: u64, dir: FileHandle, originator: ClientId) {
        if !self.inner.params.dir_callbacks {
            return;
        }
        let targets: Vec<ClientId> = {
            let mut w = self.inner.dir_watchers.borrow_mut();
            match w.get_mut(&dir) {
                None => Vec::new(),
                Some(v) => {
                    let targets = v.iter().copied().filter(|&c| c != originator).collect();
                    v.retain(|&c| c == originator);
                    targets
                }
            }
        };
        let callbacks: Vec<CallbackNeeded> = targets
            .into_iter()
            .map(|t| CallbackNeeded {
                target: t,
                writeback: false,
                invalidate: true,
            })
            .collect();
        self.fan_out_callbacks(parent, dir, &callbacks, false).await;
    }

    /// The current reboot epoch (starts at 1).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.get()
    }

    /// True while the post-reboot grace period is running.
    pub fn in_grace(&self) -> bool {
        match self.inner.grace_until.get() {
            Some(t) => self.inner.sim.now() < t,
            None => false,
        }
    }

    /// Simulates a server crash: all volatile state vanishes — the state
    /// table (including the global version counter, §4.3.3) and the file
    /// system's buffer cache. Stable storage survives. The caller should
    /// also mark the server's endpoints down until [`reboot`](Self::reboot).
    pub fn crash(&self) {
        self.emit(0, EventKind::ServerCrash);
        self.inner.table.borrow_mut().clear();
        // Name locks and the transaction table are volatile too: a peer
        // left holding a prepared entry re-resolves it through the
        // coordinator's commit/abort retries (DESIGN.md §18.4).
        self.inner.name_locks.borrow_mut().clear();
        self.inner.tx_table.borrow_mut().clear();
        self.inner.fs.crash();
    }

    /// Brings the server back up: bumps the epoch and opens the grace
    /// period, during which only `recover` and `keepalive` are served
    /// (§2.4 property 2: the consistency state cannot change until the
    /// server is willing to let it change).
    pub fn reboot(&self) {
        self.inner.epoch.set(self.inner.epoch.get() + 1);
        self.inner
            .grace_until
            .set(Some(self.inner.sim.now() + self.inner.params.grace_period));
    }

    /// Registers the callback channel for a client host. Without one, the
    /// client is treated as unreachable when a callback is needed.
    pub fn register_client(&self, id: ClientId, caller: Caller<CallbackArg, CallbackReply>) {
        self.inner.callback_clients.borrow_mut().insert(id, caller);
    }

    /// Forgets every registered client callback channel and peer-shard
    /// channel. Those callers reach endpoints whose handlers hold the
    /// clients and peers, which in turn hold callers back to this server:
    /// whoever tears a topology down calls this to break the loop.
    pub fn disconnect(&self) {
        self.inner.callback_clients.borrow_mut().clear();
        self.inner.peers.borrow_mut().clear();
    }

    /// The exported file system.
    pub fn fs(&self) -> &LocalFs {
        &self.inner.fs
    }

    /// Server statistics.
    pub fn stats(&self) -> ServerStats {
        self.inner.stats.get()
    }

    /// The server-side delegation counters (grants, recalls, returns,
    /// revokes, recall latency). Client-side counters (local opens and
    /// closes) live in [`crate::client::ClientStats`].
    pub fn delegation_stats(&self) -> DelegationStats {
        self.inner.deleg_stats.get()
    }

    /// Live delegations in the state table (test hook).
    pub fn delegation_count(&self) -> usize {
        self.inner.table.borrow().delegation_count()
    }

    /// Gauge of concurrent callbacks (its peak must stay ≤ N−1, the
    /// §3.2 thread-pool rule — asserted in tests).
    pub fn callback_gauge(&self) -> InflightGauge {
        self.inner.callback_inflight.clone()
    }

    /// Timed-out callback attempts that were retried instead of
    /// immediately declaring the client dead.
    pub fn callback_retries(&self) -> u64 {
        self.inner.callback_retries.get()
    }

    /// Number of state-table entries (for tests; paper §4.3.1 limits).
    pub fn table_len(&self) -> usize {
        self.inner.table.borrow().len()
    }

    /// Observes a file's state (test hook).
    pub fn state_of(&self, fh: FileHandle) -> crate::state_table::FileState {
        self.inner.table.borrow().state_of(fh)
    }

    /// Builds the RPC endpoint for this server.
    pub fn endpoint(
        &self,
        name: impl Into<String>,
        cpu: Resource,
        params: EndpointParams,
        counter: OpCounter,
    ) -> Endpoint<NfsRequest, NfsReply> {
        let this = self.clone();
        let handler = Rc::new(move |from: ClientId, ctx: u64, req: NfsRequest| {
            let this = this.clone();
            Box::pin(async move { this.handle(from, ctx, req).await })
                as std::pin::Pin<Box<dyn std::future::Future<Output = NfsReply>>>
        });
        Endpoint::new(&self.inner.sim, name, cpu, params, counter, handler)
    }

    fn file_lock(&self, fh: FileHandle) -> Semaphore {
        let mut locks = self.inner.file_locks.borrow_mut();
        let sem = locks.entry(fh).or_insert_with(|| Semaphore::new(1));
        // Contention pin for the scaling analysis (DESIGN.md §18.5): a
        // non-idle semaphore means this acquisition will queue behind
        // another client's open/close/write-back on the same file.
        if !sem.is_idle() {
            self.bump_shard(|s| s.lock_contention += 1);
        }
        sem.clone()
    }

    /// Drops a file's lock entry once nothing references it — the
    /// semaphore is fully idle (no holder, no grant, no waiter) and the
    /// file is back to CLOSED (absent from the table). Every `file_lock`
    /// caller acquires in the same synchronous region as the lookup, so
    /// an idle semaphore has no about-to-acquire claimants either.
    /// Without this the map leaked one entry per file ever opened.
    fn gc_file_lock(&self, fh: FileHandle) {
        let mut locks = self.inner.file_locks.borrow_mut();
        let Some(sem) = locks.get(&fh) else { return };
        if sem.is_idle() && self.inner.table.borrow().state_of(fh) == FileState::Closed {
            locks.remove(&fh);
        }
    }

    /// Number of live per-file lock entries (bounded-growth tests).
    pub fn file_locks_len(&self) -> usize {
        self.inner.file_locks.borrow().len()
    }

    fn bump_stats(&self, f: impl FnOnce(&mut ServerStats)) {
        let mut s = self.inner.stats.get();
        f(&mut s);
        self.inner.stats.set(s);
    }

    fn bump_deleg(&self, f: impl FnOnce(&mut DelegationStats)) {
        let mut s = self.inner.deleg_stats.get();
        f(&mut s);
        self.inner.deleg_stats.set(s);
    }

    fn bump_shard(&self, f: impl FnOnce(&mut ShardOpStats)) {
        let mut s = self.inner.shard_stats.get();
        f(&mut s);
        self.inner.shard_stats.set(s);
    }

    fn name_locked(&self, name: &str) -> bool {
        self.inner.name_locks.borrow().contains(name)
    }

    fn lock_name(&self, name: &str) {
        self.inner.name_locks.borrow_mut().insert(name.to_string());
    }

    fn unlock_name(&self, name: &str) {
        self.inner.name_locks.borrow_mut().remove(name);
    }

    /// Allocates a transaction id namespaced by this shard's index, so
    /// concurrent coordinators can never collide in a peer's table.
    fn next_txid(&self) -> u64 {
        let shard = self.inner.shard.borrow().as_ref().map_or(0, |v| v.shard);
        let n = self.inner.next_txid.get() + 1;
        self.inner.next_txid.set(n);
        (u64::from(shard + 1) << 48) | n
    }

    /// Shard-ownership gate (DESIGN.md §18.2), run after the grace gate
    /// on every request. Returns an early reply when this shard must
    /// refuse: `Busy` while a cross-shard transaction holds the name,
    /// `WrongShard` (with the fresh layout delta) when a stale client
    /// routed here. Otherwise emits the rule-10 `shard_route` record for
    /// root-level name operations this shard owns and lets the request
    /// fall through. Always `None` in the unsharded configuration.
    fn shard_gate(&self, ctx: u64, req: &NfsRequest) -> Option<NfsReply> {
        let view = self.inner.shard.borrow().clone()?;
        let busy = |this: &Self| {
            this.bump_shard(|s| s.busy_rejections += 1);
            Some(NfsReply::Err(NfsStatus::Busy))
        };
        let gate = |name: &str| -> Option<NfsReply> {
            if self.name_locked(name) {
                return busy(self);
            }
            let layout = view.layout.borrow();
            if layout.owner(name) != view.shard {
                let (epoch, moves) = (layout.epoch(), layout.moves());
                drop(layout);
                self.bump_shard(|s| s.wrong_shard_replies += 1);
                return Some(NfsReply::WrongShard { epoch, moves });
            }
            let epoch = layout.epoch();
            drop(layout);
            self.emit_with(ctx, || EventKind::ShardRoute {
                shard: view.shard,
                name: name.to_string(),
                epoch,
            });
            None
        };
        match req {
            NfsRequest::Lookup { dir, name }
            | NfsRequest::Create { dir, name }
            | NfsRequest::Remove { dir, name }
            | NfsRequest::Mkdir { dir, name }
            | NfsRequest::Rmdir { dir, name }
            | NfsRequest::Symlink { dir, name, .. }
                if *dir == view.root =>
            {
                gate(name)
            }
            NfsRequest::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                if *to_dir == view.root && self.name_locked(to_name) {
                    return busy(self);
                }
                if *from_dir == view.root {
                    return gate(from_name);
                }
                None
            }
            NfsRequest::Link {
                to_dir, to_name, ..
            } if *to_dir == view.root => {
                if self.name_locked(to_name) {
                    return busy(self);
                }
                None
            }
            _ => None,
        }
    }

    /// When both directory handles address this shard's export root but
    /// the layout owns `to_name` elsewhere, the operation needs the
    /// cross-shard path: returns the view and the peer shard index.
    fn cross_shard_target(
        &self,
        from_dir: FileHandle,
        to_dir: FileHandle,
        to_name: &str,
    ) -> Option<(ShardView, u32)> {
        let view = self.inner.shard.borrow().clone()?;
        if from_dir != view.root || to_dir != view.root {
            return None;
        }
        let owner = view.layout.borrow().owner(to_name);
        (owner != view.shard).then_some((view, owner))
    }

    /// Phase-1 call to the peer: retried through transport errors and
    /// the peer's grace period (the lock request must eventually land);
    /// a `Busy` refusal aborts the whole operation instead — the client
    /// backs off and retries, which is what breaks symmetric-rename
    /// deadlocks.
    async fn tx_call_prepare(
        &self,
        peer_shard: u32,
        txid: u64,
        name: &str,
    ) -> Result<bool, NfsReply> {
        let caller = self
            .inner
            .peers
            .borrow()
            .get(&peer_shard)
            .cloned()
            .expect("sharded servers register every peer");
        loop {
            let req = NfsRequest::TxPrepare {
                txid,
                name: name.to_string(),
            };
            match caller.call(req).await {
                Ok(NfsReply::TxPrepared { existed }) => return Ok(existed),
                Ok(NfsReply::Err(NfsStatus::Busy)) => {
                    return Err(NfsReply::Err(NfsStatus::Busy));
                }
                Ok(NfsReply::Err(NfsStatus::Grace)) | Err(_) => {
                    self.inner.sim.sleep(SimDuration::from_secs(1)).await;
                }
                Ok(_) => return Err(NfsReply::Err(NfsStatus::Io)),
            }
        }
    }

    /// Retries `TxCommit` out of line until the peer acknowledges, then
    /// closes the transaction in the trace. Commit is irrevocable once
    /// the layout move is published, so the client's reply never waits
    /// for the peer's cleanup.
    fn spawn_tx_commit(&self, parent: u64, peer_shard: u32, txid: u64) {
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let caller = this
                .inner
                .peers
                .borrow()
                .get(&peer_shard)
                .cloned()
                .expect("sharded servers register every peer");
            loop {
                match caller.call_ctx(parent, NfsRequest::TxCommit { txid }).await {
                    Ok(NfsReply::Ok) => break,
                    // A reply that is not a plain Ok (e.g. `Grace` from a
                    // rebooting peer) has not performed the cleanup.
                    Ok(_) | Err(_) => {
                        this.bump_shard(|s| s.commit_retries += 1);
                        this.inner.sim.sleep(SimDuration::from_secs(1)).await;
                    }
                }
            }
            this.emit(
                parent,
                EventKind::ShardTxEnd {
                    txid,
                    committed: true,
                },
            );
        });
    }

    /// Retries `TxAbort` out of line until the peer drops its prepared
    /// entry and releases the name lock.
    fn spawn_tx_abort(&self, peer_shard: u32, txid: u64) {
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let caller = this
                .inner
                .peers
                .borrow()
                .get(&peer_shard)
                .cloned()
                .expect("sharded servers register every peer");
            loop {
                match caller.call(NfsRequest::TxAbort { txid }).await {
                    Ok(NfsReply::Ok) => break,
                    Ok(_) | Err(_) => {
                        this.bump_shard(|s| s.commit_retries += 1);
                        this.inner.sim.sleep(SimDuration::from_secs(1)).await;
                    }
                }
            }
        });
    }

    /// Coordinator half of a cross-shard rename (DESIGN.md §18.3). The
    /// file body never moves: the entry is renamed inside this shard's
    /// store and the authority layout gains an override routing
    /// `to_name` here — ownership follows the data. The peer that owned
    /// `to_name` participates in a two-phase exchange so the name is
    /// locked on both shards for the whole window and the peer's
    /// overwritten entry is deleted exactly once.
    #[allow(clippy::too_many_arguments)]
    async fn cross_shard_rename(
        &self,
        ctx: u64,
        from: ClientId,
        view: ShardView,
        peer_shard: u32,
        from_dir: FileHandle,
        from_name: String,
        to_dir: FileHandle,
        to_name: String,
    ) -> NfsReply {
        // Lock both names locally. The gate vetted `from_name` in this
        // same synchronous region, so this cannot fail on it; `to_name`
        // may race another transaction.
        if self.name_locked(&from_name) || self.name_locked(&to_name) {
            self.bump_shard(|s| s.busy_rejections += 1);
            return NfsReply::Err(NfsStatus::Busy);
        }
        self.lock_name(&from_name);
        self.lock_name(&to_name);
        let txid = self.next_txid();
        // Phase 1: the peer locks `to_name` and reports what it holds.
        // Only after it succeeds are both names locked on both shards —
        // which is why the begin event (opening the checker's atomicity
        // window) must not be emitted any earlier.
        if let Err(rep) = self.tx_call_prepare(peer_shard, txid, &to_name).await {
            self.unlock_name(&from_name);
            self.unlock_name(&to_name);
            return rep;
        }
        let begin = self.emit_with(ctx, || EventKind::ShardTxBegin {
            txid,
            from_shard: view.shard,
            to_shard: peer_shard,
            from_name: from_name.clone(),
            to_name: to_name.clone(),
            link: false,
        });
        // Phase 2, local half: the rename inside this shard's store. The
        // name locks guarantee no other operation observes the window,
        // even across the handler's awaits.
        let rep = spritely_nfs::handle(
            &self.inner.fs,
            NfsRequest::Rename {
                from_dir,
                from_name: from_name.clone(),
                to_dir,
                to_name: to_name.clone(),
            },
        )
        .await;
        if matches!(rep, NfsReply::Err(_)) {
            self.spawn_tx_abort(peer_shard, txid);
            self.emit(
                begin,
                EventKind::ShardTxEnd {
                    txid,
                    committed: false,
                },
            );
            self.unlock_name(&from_name);
            self.unlock_name(&to_name);
            return rep;
        }
        self.bump_shard(|s| s.cross_renames += 1);
        // Commit point: publish the ownership move. From here every
        // shard's gate and every refreshed client routes `to_name` to
        // this shard, and the transaction can only complete.
        let epoch = view
            .layout
            .borrow_mut()
            .record_move(Some(&from_name), &to_name, view.shard);
        self.emit_with(begin, || EventKind::ShardMove {
            from_name: from_name.clone(),
            to_name: to_name.clone(),
            shard: view.shard,
            epoch,
        });
        self.spawn_tx_commit(begin, peer_shard, txid);
        self.invalidate_dir_watchers(ctx, from_dir, from).await;
        self.unlock_name(&from_name);
        self.unlock_name(&to_name);
        rep
    }

    /// Coordinator half of a cross-shard link: same two-phase exchange
    /// as a rename, except link(2) does not overwrite — a prepared peer
    /// reporting an existing target aborts with `Exist`.
    #[allow(clippy::too_many_arguments)]
    async fn cross_shard_link(
        &self,
        ctx: u64,
        from: ClientId,
        view: ShardView,
        peer_shard: u32,
        src: FileHandle,
        to_dir: FileHandle,
        to_name: String,
    ) -> NfsReply {
        if self.name_locked(&to_name) {
            self.bump_shard(|s| s.busy_rejections += 1);
            return NfsReply::Err(NfsStatus::Busy);
        }
        self.lock_name(&to_name);
        let txid = self.next_txid();
        let existed = match self.tx_call_prepare(peer_shard, txid, &to_name).await {
            Ok(existed) => existed,
            Err(rep) => {
                self.unlock_name(&to_name);
                return rep;
            }
        };
        if existed {
            self.spawn_tx_abort(peer_shard, txid);
            self.unlock_name(&to_name);
            return NfsReply::Err(NfsStatus::Exist);
        }
        let begin = self.emit_with(ctx, || EventKind::ShardTxBegin {
            txid,
            from_shard: view.shard,
            to_shard: peer_shard,
            from_name: String::new(),
            to_name: to_name.clone(),
            link: true,
        });
        let rep = spritely_nfs::handle(
            &self.inner.fs,
            NfsRequest::Link {
                from: src,
                to_dir,
                to_name: to_name.clone(),
            },
        )
        .await;
        if matches!(rep, NfsReply::Err(_)) {
            self.spawn_tx_abort(peer_shard, txid);
            self.emit(
                begin,
                EventKind::ShardTxEnd {
                    txid,
                    committed: false,
                },
            );
            self.unlock_name(&to_name);
            return rep;
        }
        self.bump_shard(|s| s.cross_links += 1);
        let epoch = view
            .layout
            .borrow_mut()
            .record_move(None, &to_name, view.shard);
        self.emit_with(begin, || EventKind::ShardMove {
            from_name: String::new(),
            to_name: to_name.clone(),
            shard: view.shard,
            epoch,
        });
        self.spawn_tx_commit(begin, peer_shard, txid);
        self.invalidate_dir_watchers(ctx, to_dir, from).await;
        if self.inner.params.dir_callbacks {
            self.watch_dir(to_dir, from);
        }
        self.unlock_name(&to_name);
        rep
    }

    /// Participant phase 1: lock `name` against local service and report
    /// whether an entry by that name already exists (a committed rename
    /// will overwrite it; a link must refuse). Idempotent per txid —
    /// coordinator retries re-reply from the transaction table.
    fn tx_prepare(&self, ctx: u64, txid: u64, name: &str) -> NfsReply {
        let view = match self.inner.shard.borrow().clone() {
            Some(v) => v,
            None => return NfsReply::Err(NfsStatus::Inval),
        };
        if let Some(entry) = self.inner.tx_table.borrow().get(&txid) {
            return NfsReply::TxPrepared {
                existed: entry.existed_fh.is_some(),
            };
        }
        if self.name_locked(name) {
            self.bump_shard(|s| s.busy_rejections += 1);
            return NfsReply::Err(NfsStatus::Busy);
        }
        self.lock_name(name);
        let existed_fh = self.inner.fs.lookup(view.root, name).ok().map(|(fh, _)| fh);
        let existed = existed_fh.is_some();
        self.inner.tx_table.borrow_mut().insert(
            txid,
            TxEntry {
                name: name.to_string(),
                existed_fh,
                done: false,
            },
        );
        self.emit(ctx, EventKind::ShardTxPrepared { txid, existed });
        NfsReply::TxPrepared { existed }
    }

    /// Participant commit: delete the local entry the committed rename
    /// overwrote (ownership of the name moved to the coordinator) and
    /// release the name lock. Idempotent; unknown txids — including
    /// those a crash wiped — acknowledge trivially, since a crash also
    /// released the lock and discarded the prepared state.
    async fn tx_commit(&self, ctx: u64, txid: u64) -> NfsReply {
        let (name, existed_fh) = {
            let mut table = self.inner.tx_table.borrow_mut();
            match table.get_mut(&txid) {
                Some(e) if !e.done => {
                    e.done = true;
                    (e.name.clone(), e.existed_fh)
                }
                _ => return NfsReply::Ok,
            }
        };
        let view = self.inner.shard.borrow().clone();
        if let Some(view) = &view {
            // Delete only while the entry is still the handle that was
            // prepared: ownership may have ping-ponged since, and a
            // newer file under the same name must survive.
            let current = self.inner.fs.lookup(view.root, &name).ok();
            if let (Some(prepared), Some((cfh, attr))) = (existed_fh, current) {
                if cfh == prepared {
                    let rep = spritely_nfs::handle(
                        &self.inner.fs,
                        NfsRequest::Remove {
                            dir: view.root,
                            name: name.clone(),
                        },
                    )
                    .await;
                    if matches!(rep, NfsReply::Ok) && attr.nlink <= 1 {
                        let st0 = self.inner.table.borrow().state_of(prepared);
                        let had_entry = self.inner.table.borrow().version_of(prepared).is_some();
                        self.inner.table.borrow_mut().file_removed(prepared);
                        if had_entry {
                            self.emit_transition(
                                ctx,
                                prepared,
                                Cause::Removed,
                                ClientId(0),
                                st0,
                                FileState::Closed,
                            );
                        }
                        self.gc_file_lock(prepared);
                    }
                }
            }
        }
        self.unlock_name(&name);
        if let Some(view) = &view {
            self.invalidate_dir_watchers(ctx, view.root, ClientId(0))
                .await;
        }
        NfsReply::Ok
    }

    /// Participant abort: drop the prepared entry and release the lock.
    fn tx_abort(&self, txid: u64) -> NfsReply {
        let name = {
            let mut table = self.inner.tx_table.borrow_mut();
            match table.get_mut(&txid) {
                Some(e) if !e.done => {
                    e.done = true;
                    Some(e.name.clone())
                }
                _ => None,
            }
        };
        if let Some(name) = name {
            self.unlock_name(&name);
        }
        NfsReply::Ok
    }

    /// Performs one callback; on failure, treats the client as crashed.
    /// Returns true on success.
    async fn do_callback(
        &self,
        parent: u64,
        fh: FileHandle,
        cb: CallbackNeeded,
        relinquish: bool,
    ) -> bool {
        let caller = self
            .inner
            .callback_clients
            .borrow()
            .get(&cb.target)
            .cloned();
        let Some(caller) = caller else {
            self.bump_stats(|s| s.callbacks_failed += 1);
            let affected = self.inner.table.borrow_mut().client_crashed(cb.target);
            self.emit_client_crashed(parent, cb.target, &affected);
            for (afh, ..) in &affected {
                self.gc_file_lock(*afh);
            }
            return false;
        };
        // N−1 rule: hold a callback slot while waiting on the client.
        let slot = self.inner.callback_slots.acquire().await;
        self.bump_stats(|s| s.callbacks_sent += 1);
        self.inner.callback_inflight.inc();
        // The begin event sits inside the slot so the checker's
        // concurrent-callback count mirrors the real N−1 budget.
        let cb_seq = self.emit(
            parent,
            EventKind::CallbackBegin {
                target: cb.target,
                fh,
                writeback: cb.writeback,
                invalidate: cb.invalidate,
            },
        );
        // One sequence number per *logical* callback: retries are fresh
        // RPCs with fresh xids (the RPC dup cache cannot pair them), so
        // this is what lets the client recognize — and answer
        // idempotently — a delivery it has already acted on.
        let arg_seq = self.inner.cb_next_seq.get() + 1;
        self.inner.cb_next_seq.set(arg_seq);
        let arg = CallbackArg {
            fh,
            writeback: cb.writeback,
            invalidate: cb.invalidate,
            relinquish,
            seq: arg_seq,
            recall: false,
        };
        // A timeout is not a crash: a lossy network or a transient
        // partition can eat a whole retransmission ladder while the
        // client is alive and holding dirty data. Retry with doubling
        // backoff (slot held — the N−1 rule bounds waiting callbacks,
        // not just active ones) and only declare the client dead once
        // it has been unreachable past the keepalive horizon. A reply
        // with `ok == false` is different: the client answered and
        // refused, and is treated as crashed immediately as before.
        let started = self.inner.sim.now();
        let mut backoff = self.inner.params.callback_retry_backoff;
        const BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);
        let res = loop {
            match caller.call_ctx(cb_seq, arg).await {
                Ok(rep) => break Some(rep),
                Err(_) => {
                    let elapsed = self.inner.sim.now().saturating_duration_since(started);
                    if elapsed >= self.inner.params.callback_dead_after {
                        break None;
                    }
                    self.inner
                        .callback_retries
                        .set(self.inner.callback_retries.get() + 1);
                    self.inner.sim.sleep(backoff).await;
                    backoff = backoff.mul_f64(2.0);
                    if backoff > BACKOFF_CAP {
                        backoff = BACKOFF_CAP;
                    }
                }
            }
        };
        self.inner.callback_inflight.dec();
        let ok = matches!(&res, Some(rep) if rep.ok);
        self.emit(
            cb_seq,
            EventKind::CallbackEnd {
                target: cb.target,
                fh,
                ok,
            },
        );
        drop(slot);
        if ok {
            if cb.writeback {
                let st0 = self.inner.table.borrow().state_of(fh);
                self.inner.table.borrow_mut().writeback_done(fh, cb.target);
                let st1 = self.inner.table.borrow().state_of(fh);
                self.emit_transition(cb_seq, fh, Cause::WritebackDone, cb.target, st0, st1);
            }
            true
        } else {
            // The "dead client" case of §3.2: honor the open, but the
            // file may be inconsistent; drop the client's state.
            self.bump_stats(|s| s.callbacks_failed += 1);
            let affected = self.inner.table.borrow_mut().client_crashed(cb.target);
            self.emit_client_crashed(cb_seq, cb.target, &affected);
            for (afh, ..) in &affected {
                self.gc_file_lock(*afh);
            }
            false
        }
    }

    /// Performs a set of callbacks. A single one runs inline; several
    /// fan out as concurrent tasks across their target clients, each
    /// still taking one of the N−1 callback slots inside
    /// [`do_callback`](Self::do_callback) — so the fan-out never
    /// exceeds the §3.2 thread-pool budget.
    async fn fan_out_callbacks(
        &self,
        parent: u64,
        fh: FileHandle,
        callbacks: &[CallbackNeeded],
        relinquish: bool,
    ) {
        match callbacks {
            [] => {}
            [cb] => {
                self.do_callback(parent, fh, *cb, relinquish).await;
            }
            many => {
                let mut tasks = Vec::with_capacity(many.len());
                for &cb in many {
                    let this = self.clone();
                    tasks.push(self.inner.sim.spawn(async move {
                        this.do_callback(parent, fh, cb, relinquish).await;
                    }));
                }
                for t in tasks {
                    t.await;
                }
            }
        }
    }

    /// Revokes a delegation whose holder did not answer the recall in
    /// time: the holder is fenced, its open state discarded (DESIGN.md
    /// §17.3). Safe because the client-side lease (shorter than the
    /// recall timeout, and renewed only by replies that travel the same
    /// host-to-host direction as recall callbacks) has already expired
    /// on any holder the recall could not reach.
    fn revoke(&self, parent: u64, fh: FileHandle, holder: ClientId) {
        let mut table = self.inner.table.borrow_mut();
        let st0 = table.state_of(fh);
        if table.revoke_delegation(fh, holder) {
            let st1 = table.state_of(fh);
            drop(table);
            self.emit(
                parent,
                EventKind::DelegReturn {
                    client: holder,
                    fh,
                    revoked: true,
                },
            );
            self.emit_transition(parent, fh, Cause::DelegReturn, holder, st0, st1);
            self.bump_deleg(|s| s.revokes += 1);
        }
    }

    /// Recalls one delegation over the callback channel and waits —
    /// bounded by `delegation.recall_timeout` — for the holder to flush
    /// and return it. On timeout the delegation is revoked and the
    /// holder fenced. Called with the file lock held; the holder's
    /// return travels as a `DelegReturn` RPC, whose handler takes no
    /// file lock (same discipline that lets write-backs run inside a
    /// callback).
    async fn recall_one(&self, parent: u64, fh: FileHandle, d: Deleg) {
        self.bump_deleg(|s| s.recalls += 1);
        let caller = self.inner.callback_clients.borrow().get(&d.holder).cloned();
        let Some(caller) = caller else {
            // No callback channel: the holder is unreachable by
            // construction. Revoke immediately.
            self.revoke(parent, fh, d.holder);
            return;
        };
        // From here until the recall resolves, the holder's keepalives
        // are refused so its lease cannot outlive a revoke (§17.3).
        *self
            .inner
            .recalls_pending
            .borrow_mut()
            .entry(d.holder)
            .or_insert(0) += 1;
        // Recalls ride the callback channel, so they obey the N−1 slot
        // budget and appear in the trace's callback concurrency count.
        let slot = self.inner.callback_slots.acquire().await;
        self.bump_stats(|s| s.callbacks_sent += 1);
        self.inner.callback_inflight.inc();
        let cb_seq = self.emit(
            parent,
            EventKind::CallbackBegin {
                target: d.holder,
                fh,
                writeback: d.write,
                invalidate: false,
            },
        );
        let arg_seq = self.inner.cb_next_seq.get() + 1;
        self.inner.cb_next_seq.set(arg_seq);
        let arg = CallbackArg {
            fh,
            writeback: false,
            invalidate: false,
            relinquish: false,
            seq: arg_seq,
            recall: true,
        };
        let started = self.inner.sim.now();
        let mut backoff = self.inner.params.callback_retry_backoff;
        const BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);
        let res = loop {
            // The return may land through a duplicate delivery while a
            // retry is still in flight; stop as soon as it does.
            if self
                .inner
                .table
                .borrow()
                .delegation_of(fh, d.holder)
                .is_none()
            {
                break Some(true);
            }
            match caller.call_ctx(cb_seq, arg).await {
                Ok(rep) => break Some(rep.ok),
                Err(_) => {
                    let elapsed = self.inner.sim.now().saturating_duration_since(started);
                    if elapsed >= self.inner.params.delegation.recall_timeout {
                        break None;
                    }
                    self.inner
                        .callback_retries
                        .set(self.inner.callback_retries.get() + 1);
                    self.inner.sim.sleep(backoff).await;
                    backoff = backoff.mul_f64(2.0);
                    if backoff > BACKOFF_CAP {
                        backoff = BACKOFF_CAP;
                    }
                }
            }
        };
        self.inner.callback_inflight.dec();
        let answered = matches!(res, Some(true));
        self.emit(
            cb_seq,
            EventKind::CallbackEnd {
                target: d.holder,
                fh,
                ok: answered,
            },
        );
        drop(slot);
        if answered
            && self
                .inner
                .table
                .borrow()
                .delegation_of(fh, d.holder)
                .is_none()
        {
            // The holder acked after its DelegReturn RPC was applied.
            let us = self
                .inner
                .sim
                .now()
                .saturating_duration_since(started)
                .as_micros();
            self.bump_deleg(|s| s.recall_latency.record(us));
        } else {
            // Timed out, refused, or acked without returning: fence.
            self.revoke(cb_seq, fh, d.holder);
        }
        let mut pending = self.inner.recalls_pending.borrow_mut();
        if let Some(n) = pending.get_mut(&d.holder) {
            *n -= 1;
            if *n == 0 {
                pending.remove(&d.holder);
            }
        }
    }

    /// Recalls every delegation on `fh` that conflicts with `opener`
    /// opening it (`write` mode), then returns. Concurrent recalls fan
    /// out like callbacks, bounded by the N−1 slots.
    async fn recall_conflicting(&self, parent: u64, fh: FileHandle, opener: ClientId, write: bool) {
        if !self.inner.params.delegation.enabled {
            return;
        }
        let conflicts = self
            .inner
            .table
            .borrow()
            .conflicting_delegations(fh, opener, write);
        match conflicts.as_slice() {
            [] => {}
            [d] => self.recall_one(parent, fh, *d).await,
            many => {
                let mut tasks = Vec::with_capacity(many.len());
                for &d in many {
                    let this = self.clone();
                    tasks.push(self.inner.sim.spawn(async move {
                        this.recall_one(parent, fh, d).await;
                    }));
                }
                for t in tasks {
                    t.await;
                }
            }
        }
    }

    /// Decides whether the open that just completed earns a delegation;
    /// if so, records the grant and returns it for piggybacking on the
    /// open reply.
    fn maybe_grant(
        &self,
        parent: u64,
        fh: FileHandle,
        client: ClientId,
        write: bool,
    ) -> Option<spritely_proto::Delegation> {
        if !self.inner.params.delegation.enabled {
            return None;
        }
        let grant = self
            .inner
            .table
            .borrow()
            .grantable_delegation(fh, client, write)?;
        self.inner
            .table
            .borrow_mut()
            .grant_delegation(fh, client, grant.is_write());
        self.emit(
            parent,
            EventKind::DelegGrant {
                client,
                fh,
                write: grant.is_write(),
            },
        );
        self.bump_deleg(|s| {
            if grant.is_write() {
                s.grants_write += 1;
            } else {
                s.grants_read += 1;
            }
        });
        Some(grant)
    }

    /// Reclaims state-table entries when over the limit (paper §4.3.1).
    async fn maybe_reclaim(&self) {
        if !self.inner.table.borrow().over_limit() {
            return;
        }
        self.bump_stats(|s| s.reclaim_passes += 1);
        let outcome = self
            .inner
            .table
            .borrow_mut()
            .reclaim(self.inner.params.reclaim_target);
        for fh in &outcome.dropped {
            self.emit_transition(
                0,
                *fh,
                Cause::Reclaim,
                ClientId(0),
                FileState::Closed,
                FileState::Closed,
            );
        }
        // The victims are distinct files: fan their write-back
        // callbacks out concurrently (bounded by the callback slots).
        let mut tasks = Vec::with_capacity(outcome.writebacks.len());
        for (fh, client) in outcome.writebacks {
            let this = self.clone();
            tasks.push(self.inner.sim.spawn(async move {
                let lock = this.file_lock(fh).acquire().await;
                // Re-check under the lock: a concurrent open may have
                // revived the entry (or moved its dirty claim), and a
                // stale callback would invalidate an active client's
                // cache.
                let stale = {
                    let table = this.inner.table.borrow();
                    table.state_of(fh) != crate::state_table::FileState::ClosedDirty
                        || table.dirty_holder(fh) != Some(client)
                };
                if !stale {
                    this.do_callback(
                        0,
                        fh,
                        CallbackNeeded {
                            target: client,
                            writeback: true,
                            invalidate: true,
                        },
                        false,
                    )
                    .await;
                    // On failure, client_crashed already cleaned the entry
                    // up; either way drop it if it is now cleanly closed.
                    let st0 = this.inner.table.borrow().state_of(fh);
                    if this.inner.table.borrow_mut().drop_if_closed(fh) {
                        this.emit_transition(0, fh, Cause::Reclaim, client, st0, FileState::Closed);
                    }
                }
                drop(lock);
                this.gc_file_lock(fh);
            }));
        }
        for t in tasks {
            t.await;
        }
    }

    /// Dispatches one request. `ctx` is the trace context of the RPC
    /// handler span (0 when untraced).
    pub async fn handle(&self, from: ClientId, ctx: u64, req: NfsRequest) -> NfsReply {
        // Recovery-mode gate (§2.4): while the grace period runs, only
        // liveness and re-registration traffic is served, so the
        // consistency state cannot change before it is reconstructed.
        match &req {
            NfsRequest::Keepalive { .. } | NfsRequest::Recover { .. } => {}
            _ if self.in_grace() => return NfsReply::Err(NfsStatus::Grace),
            _ => {}
        }
        // Shard-ownership gate (DESIGN.md §18.2): refuse names a
        // transaction holds, redirect stale routings, record rule-10
        // ownership for the names served here.
        if let Some(rep) = self.shard_gate(ctx, &req) {
            return rep;
        }
        match req {
            NfsRequest::Keepalive { client } => {
                debug_assert_eq!(from, client);
                // A keepalive reply renews the client's delegation
                // lease, so while a recall against it is unresolved the
                // answer is `Grace` — "try again later" — instead
                // (DESIGN.md §17.3). The client's keepalive daemon
                // tolerates the failure and re-probes.
                if self.inner.params.delegation.enabled
                    && self
                        .inner
                        .recalls_pending
                        .borrow()
                        .get(&client)
                        .is_some_and(|&n| n > 0)
                {
                    NfsReply::Err(NfsStatus::Grace)
                } else {
                    NfsReply::Epoch(self.inner.epoch.get())
                }
            }
            NfsRequest::Recover { client, ref files } => {
                debug_assert_eq!(from, client);
                if self.inner.tracer.borrow().is_some() {
                    // Restore file-by-file so each table change gets its
                    // own transition event (same net effect as one call).
                    for f in files {
                        let st0 = self.inner.table.borrow().state_of(f.fh);
                        self.inner
                            .table
                            .borrow_mut()
                            .restore(client, std::slice::from_ref(f));
                        let st1 = self.inner.table.borrow().state_of(f.fh);
                        self.emit_transition(ctx, f.fh, Cause::Restore, client, st0, st1);
                    }
                } else {
                    self.inner.table.borrow_mut().restore(client, files);
                }
                NfsReply::Epoch(self.inner.epoch.get())
            }
            NfsRequest::Open { fh, write, client } => {
                debug_assert_eq!(from, client, "open must carry the caller's id");
                // Validate the handle first so a stale open doesn't create
                // table state.
                let attr0 = match self.inner.fs.getattr(fh) {
                    Ok(a) => a,
                    Err(e) => return NfsReply::Err(e),
                };
                let _lock = self.file_lock(fh).acquire().await;
                // Conflicting delegations come back (or are revoked)
                // *before* the open transition runs, so the holder's
                // batched open/close state is folded into the table the
                // transition computation sees.
                self.recall_conflicting(ctx, fh, client, write).await;
                let st0 = self.inner.table.borrow().state_of(fh);
                let outcome = self.inner.table.borrow_mut().open(fh, client, write);
                let st1 = self.inner.table.borrow().state_of(fh);
                let cause = if write {
                    Cause::OpenWrite
                } else {
                    Cause::OpenRead
                };
                let t_seq = self.emit_transition(ctx, fh, cause, client, st0, st1);
                self.fan_out_callbacks(t_seq, fh, &outcome.callbacks, false)
                    .await;
                let delegation = self.maybe_grant(t_seq, fh, client, write);
                // Attributes may have changed if a write-back just landed.
                let attr = self.inner.fs.getattr(fh).unwrap_or(attr0);
                let reply = NfsReply::Open(OpenReply {
                    cache_enabled: outcome.cache_enabled,
                    version: outcome.version,
                    prev_version: outcome.prev_version,
                    attr,
                    inconsistent: outcome.inconsistent,
                    delegation,
                });
                // Reclaim pressure is handled out of line so the opener
                // does not wait for it.
                if self.inner.table.borrow().over_limit() {
                    let this = self.clone();
                    self.inner.sim.spawn(async move {
                        this.maybe_reclaim().await;
                    });
                }
                reply
            }
            NfsRequest::Close { fh, write, client } => {
                debug_assert_eq!(from, client, "close must carry the caller's id");
                let lock = self.file_lock(fh).acquire().await;
                let st0 = self.inner.table.borrow().state_of(fh);
                let st1 = self.inner.table.borrow_mut().close(fh, client, write);
                let cause = if write {
                    Cause::CloseWrite
                } else {
                    Cause::CloseRead
                };
                self.emit_transition(ctx, fh, cause, client, st0, st1);
                drop(lock);
                self.gc_file_lock(fh);
                // Piggyback post-op attributes: same wire size as a bare
                // Ok, and clients that don't consume them ignore the body,
                // so the paper transport is unaffected.
                match self.inner.fs.getattr(fh) {
                    Ok(attr) => NfsReply::Attr(attr),
                    Err(_) => NfsReply::Ok,
                }
            }
            NfsRequest::DelegReturn {
                fh,
                client,
                readers,
                writers,
                wrote,
            } => {
                debug_assert_eq!(from, client, "deleg_return must carry the caller's id");
                // Deliberately lock-free: the conflicting opener holds
                // the file lock while it awaits this very return (same
                // discipline that lets Write RPCs land during a
                // write-back callback).
                let (applied, st0, st1) = {
                    let mut table = self.inner.table.borrow_mut();
                    let st0 = table.state_of(fh);
                    let applied = table.return_delegation(fh, client, readers, writers, wrote);
                    (applied, st0, table.state_of(fh))
                };
                match applied {
                    Some(version) => {
                        self.emit(
                            ctx,
                            EventKind::DelegReturn {
                                client,
                                fh,
                                revoked: false,
                            },
                        );
                        self.emit_transition(ctx, fh, Cause::DelegReturn, client, st0, st1);
                        self.bump_deleg(|s| s.returns += 1);
                        NfsReply::DelegReturned {
                            version,
                            fenced: false,
                        }
                    }
                    None => {
                        // The holder was fenced (or the entry is gone):
                        // its batched state was discarded at revoke
                        // time. Re-emit the revoked return so a late
                        // arrival still closes the holder's outstanding
                        // recall, and tell the client to purge.
                        self.emit(
                            ctx,
                            EventKind::DelegReturn {
                                client,
                                fh,
                                revoked: true,
                            },
                        );
                        let version = self
                            .inner
                            .table
                            .borrow()
                            .version_of(fh)
                            .unwrap_or(FileVersion(0));
                        NfsReply::DelegReturned {
                            version,
                            fenced: true,
                        }
                    }
                }
            }
            NfsRequest::Read { fh, .. } | NfsRequest::Write { fh, .. }
                if self.inner.params.hybrid_nfs
                    && self.inner.table.borrow().is_foreign_access(fh, from) =>
            {
                // §6.1 coexistence: a plain-NFS client is touching a file
                // that SNFS clients have open. Bracket the access in an
                // implicit open/close so the consistency callbacks fire;
                // the implicit close leaves no dirty claim (the data went
                // through synchronously).
                let write = matches!(req, NfsRequest::Write { .. });
                let lock = self.file_lock(fh).acquire().await;
                // A plain-NFS access conflicts with delegations the same
                // way an SNFS open does.
                self.recall_conflicting(ctx, fh, from, write).await;
                let st0 = self.inner.table.borrow().state_of(fh);
                let outcome = self.inner.table.borrow_mut().open(fh, from, write);
                let st1 = self.inner.table.borrow().state_of(fh);
                let cause = if write {
                    Cause::OpenWrite
                } else {
                    Cause::OpenRead
                };
                let t_seq = self.emit_transition(ctx, fh, cause, from, st0, st1);
                self.fan_out_callbacks(t_seq, fh, &outcome.callbacks, false)
                    .await;
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                let st2 = self.inner.table.borrow().state_of(fh);
                let st3 = self
                    .inner
                    .table
                    .borrow_mut()
                    .close_with(fh, from, write, false);
                let cause = if write {
                    Cause::CloseWrite
                } else {
                    Cause::CloseRead
                };
                self.emit_transition(ctx, fh, cause, from, st2, st3);
                drop(lock);
                self.gc_file_lock(fh);
                rep
            }
            NfsRequest::Remove { dir, ref name } => {
                // Identify the victim so its table entry can be dropped
                // (and with it any expectation of a write-back) — but only
                // when its *last* hard link goes away; otherwise version
                // continuity must be preserved for the surviving names.
                let victim = self.inner.fs.lookup(dir, name).ok();
                let rep = spritely_nfs::handle(&self.inner.fs, req.clone()).await;
                if let (Some((fh, attr)), NfsReply::Ok) = (victim, &rep) {
                    if attr.nlink <= 1 {
                        let st0 = self.inner.table.borrow().state_of(fh);
                        let had_entry = self.inner.table.borrow().version_of(fh).is_some();
                        self.inner.table.borrow_mut().file_removed(fh);
                        if had_entry {
                            self.emit_transition(
                                ctx,
                                fh,
                                Cause::Removed,
                                from,
                                st0,
                                FileState::Closed,
                            );
                        }
                        self.gc_file_lock(fh);
                    }
                }
                self.invalidate_dir_watchers(ctx, dir, from).await;
                rep
            }
            NfsRequest::Lookup { dir, .. } => {
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                // §7 extension: a successful lookup makes the caller a
                // watcher of the directory, entitled to an invalidate
                // callback before any namespace change is acknowledged.
                if self.inner.params.dir_callbacks && !matches!(rep, NfsReply::Err(_)) {
                    self.watch_dir(dir, from);
                }
                rep
            }
            NfsRequest::Create { dir, .. }
            | NfsRequest::Mkdir { dir, .. }
            | NfsRequest::Rmdir { dir, .. } => {
                let created = matches!(req, NfsRequest::Create { .. } | NfsRequest::Mkdir { .. });
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                if !matches!(rep, NfsReply::Err(_)) {
                    self.invalidate_dir_watchers(ctx, dir, from).await;
                    // The creator learns the new translation from the
                    // reply and will cache it — it is a watcher too.
                    if created && self.inner.params.dir_callbacks {
                        self.watch_dir(dir, from);
                    }
                }
                rep
            }
            NfsRequest::Link {
                from: src,
                to_dir,
                ref to_name,
            } => {
                if let Some((view, peer)) = self.cross_shard_target(to_dir, to_dir, to_name) {
                    let to_name = to_name.clone();
                    return self
                        .cross_shard_link(ctx, from, view, peer, src, to_dir, to_name)
                        .await;
                }
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                if !matches!(rep, NfsReply::Err(_)) {
                    self.invalidate_dir_watchers(ctx, to_dir, from).await;
                    if self.inner.params.dir_callbacks {
                        self.watch_dir(to_dir, from);
                    }
                }
                rep
            }
            NfsRequest::Symlink { dir, .. } => {
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                if !matches!(rep, NfsReply::Err(_)) {
                    self.invalidate_dir_watchers(ctx, dir, from).await;
                    if self.inner.params.dir_callbacks {
                        self.watch_dir(dir, from);
                    }
                }
                rep
            }
            NfsRequest::Rename {
                from_dir,
                ref from_name,
                to_dir,
                ref to_name,
            } => {
                if let Some((view, peer)) = self.cross_shard_target(from_dir, to_dir, to_name) {
                    let (from_name, to_name) = (from_name.clone(), to_name.clone());
                    return self
                        .cross_shard_rename(
                            ctx, from, view, peer, from_dir, from_name, to_dir, to_name,
                        )
                        .await;
                }
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                if !matches!(rep, NfsReply::Err(_)) {
                    self.invalidate_dir_watchers(ctx, from_dir, from).await;
                    if to_dir != from_dir {
                        self.invalidate_dir_watchers(ctx, to_dir, from).await;
                    }
                }
                rep
            }
            NfsRequest::TxPrepare { txid, ref name } => self.tx_prepare(ctx, txid, name),
            NfsRequest::TxCommit { txid } => self.tx_commit(ctx, txid).await,
            NfsRequest::TxAbort { txid } => self.tx_abort(txid),
            // Everything else is the unmodified NFS service code.
            other => spritely_nfs::handle(&self.inner.fs, other).await,
        }
    }
}
