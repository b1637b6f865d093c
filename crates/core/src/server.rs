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
use std::future::Future;
use std::rc::Rc;

use spritely_blockdev::DiskSched;
use spritely_localfs::LocalFs;
use spritely_metrics::{InflightGauge, OpCounter};
use spritely_proto::{
    CallbackArg, CallbackReply, ClientId, Fattr, FileHandle, FileVersion, Layout, NfsReply,
    NfsRequest, NfsStatus, OpenReply,
};
use spritely_rpcnet::{Caller, Endpoint, EndpointParams};
use spritely_sim::{Permit, Resource, Semaphore, Sim, SimDuration};
use spritely_trace::{Cause, EventKind, Tracer};

use crate::delegation::{DelegationParams, DelegationStats};
use crate::state_table::{CallbackNeeded, Deleg, FileState, OpenOutcome, StateTable};

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
            callback_dead_after: SimDuration::from_secs(30),
            delegation: DelegationParams::paper(),
        }
    }
}

/// §2.4 recovery: how long a rebooted server stays in its grace period,
/// accepting only `recover`/`keepalive` calls while clients re-register
/// their state.
const GRACE_PERIOD: SimDuration = SimDuration::from_secs(20);

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

/// How one logical callback ended.
struct Sent {
    /// Where its consequences hang in the trace: its `CallbackBegin`, or
    /// the sender's `parent` when nothing could be sent.
    seq: u64,
    /// The client answered, and did not refuse.
    ok: bool,
    /// From taking the callback slot to the answer, or to giving up.
    took: SimDuration,
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

/// Updates a counter block held in a `Cell`.
fn bump<T: Copy>(stats: &Cell<T>, f: impl FnOnce(&mut T)) {
    let mut s = stats.get();
    f(&mut s);
    stats.set(s);
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
        let threads = self.inner.callback_slots.capacity() + 1;
        tracer.meta("server_threads", threads.to_string());
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

    /// Applies `mutate` to the state table and returns its result with
    /// `fh`'s state on either side of it. One synchronous region (no
    /// await), so whatever the caller emits next sits in the trace where
    /// the mutation happened.
    fn observed<R>(
        &self,
        fh: FileHandle,
        mutate: impl FnOnce(&mut StateTable) -> R,
    ) -> (R, FileState, FileState) {
        let mut table = self.inner.table.borrow_mut();
        let st0 = table.state_of(fh);
        let out = mutate(&mut table);
        (out, st0, table.state_of(fh))
    }

    /// The transition recorder: applies `mutate` and records what it did
    /// to `fh` as one transition. Returns `mutate`'s result and the trace
    /// sequence number of the record.
    fn transition<R>(
        &self,
        parent: u64,
        fh: FileHandle,
        cause: Cause,
        client: ClientId,
        mutate: impl FnOnce(&mut StateTable) -> R,
    ) -> (R, u64) {
        let (out, from, to) = self.observed(fh, mutate);
        (
            out,
            self.emit_transition(parent, fh, cause, client, from, to),
        )
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
        self.emit_with(parent, || EventKind::Transition {
            fh,
            cause,
            client,
            from: from.into(),
            to: to.into(),
            version: self.inner.table.borrow().version_of(fh).map_or(0, |v| v.0),
        })
    }

    /// Registers `client` as possibly caching names under `dir` (§7
    /// extension: Sprite-style consistency for name translations). A
    /// successful `lookup` makes the caller a watcher of the directory,
    /// as does creating a name in it — the creator learns the new
    /// translation from the reply and will cache it.
    fn watch_dir(&self, dir: FileHandle, client: ClientId) {
        let mut w = self.inner.dir_watchers.borrow_mut();
        let v = w.entry(dir).or_default();
        if !v.contains(&client) {
            v.push(client);
        }
    }

    /// A name in `dir` changed on `originator`'s behalf: invalidates
    /// every other watcher's name cache *before* the change is
    /// acknowledged, so client name caches can never serve a stale
    /// translation. Watchers are deregistered by the invalidate; they
    /// re-register on their next lookup. `watch` (the change made a name
    /// rather than removed one) then registers the originator.
    async fn names_changed(&self, parent: u64, dir: FileHandle, originator: ClientId, watch: bool) {
        let mut others = Vec::new();
        if let Some(v) = self.inner.dir_watchers.borrow_mut().get_mut(&dir) {
            let invalidate = |&target| CallbackNeeded {
                target,
                writeback: false,
                invalidate: true,
            };
            others.extend(v.iter().filter(|&&c| c != originator).map(invalidate));
            v.retain(|&c| c == originator);
        }
        self.fan_out_callbacks(parent, dir, &others, false).await;
        if watch {
            self.watch_dir(dir, originator);
        }
    }

    /// The current reboot epoch (starts at 1).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.get()
    }

    /// True while the post-reboot grace period is running.
    pub fn in_grace(&self) -> bool {
        let until = self.inner.grace_until.get();
        until.is_some_and(|t| self.inner.sim.now() < t)
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
            .set(Some(self.inner.sim.now() + GRACE_PERIOD));
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
        bump(&self.inner.stats, f)
    }

    fn bump_deleg(&self, f: impl FnOnce(&mut DelegationStats)) {
        bump(&self.inner.deleg_stats, f)
    }

    fn bump_shard(&self, f: impl FnOnce(&mut ShardOpStats)) {
        bump(&self.inner.shard_stats, f)
    }

    /// The refusal sent while a cross-shard transaction holds a name.
    fn busy(&self) -> NfsReply {
        self.bump_shard(|s| s.busy_rejections += 1);
        NfsReply::Err(NfsStatus::Busy)
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
        let gate = |name: &str| -> Option<NfsReply> {
            if self.name_locked(name) {
                return Some(self.busy());
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
            // A locked target refuses before the source is even vetted.
            NfsRequest::Rename {
                to_dir, to_name, ..
            }
            | NfsRequest::Link {
                to_dir, to_name, ..
            } if *to_dir == view.root && self.name_locked(to_name) => Some(self.busy()),
            NfsRequest::Rename {
                from_dir,
                from_name,
                ..
            } if *from_dir == view.root => gate(from_name),
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

    /// The inter-shard channel to peer `shard`.
    fn peer(&self, shard: u32) -> Caller<NfsRequest, NfsReply> {
        let peer = self.inner.peers.borrow().get(&shard).cloned();
        peer.expect("sharded servers register every peer")
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
        let caller = self.peer(peer_shard);
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

    /// Delivers the outcome of `txid` to the peer out of line, retrying
    /// until it acknowledges. A commit is irrevocable once the layout
    /// move is published, so the client's reply never waits for the
    /// peer's cleanup (deleting the overwritten entry, releasing the name
    /// lock); the acknowledgement closes the transaction in the trace.
    /// An abort (`commit == false`) makes the peer drop its prepared
    /// entry and release the lock; the coordinator has already closed the
    /// trace window, if it ever opened one, so the RPC has no parent.
    fn spawn_tx_resolve(&self, parent: u64, peer_shard: u32, txid: u64, commit: bool) {
        let this = self.clone();
        self.inner.sim.spawn(async move {
            let caller = this.peer(peer_shard);
            loop {
                let req = if commit {
                    NfsRequest::TxCommit { txid }
                } else {
                    NfsRequest::TxAbort { txid }
                };
                match caller.call_ctx(parent, req).await {
                    Ok(NfsReply::Ok) => break,
                    // A reply that is not a plain Ok (e.g. `Grace` from a
                    // rebooting peer) has not performed the cleanup.
                    Ok(_) | Err(_) => {
                        this.bump_shard(|s| s.commit_retries += 1);
                        this.inner.sim.sleep(SimDuration::from_secs(1)).await;
                    }
                }
            }
            if commit {
                this.emit(
                    parent,
                    EventKind::ShardTxEnd {
                        txid,
                        committed: true,
                    },
                );
            }
        });
    }

    /// Coordinator half of a cross-shard rename or link (DESIGN.md
    /// §18.3); `req` is the operation and `from_name` the rename's source
    /// (`None` for a link, which has none). The file body never moves:
    /// the entry is renamed (or linked) inside this shard's store and the
    /// authority layout gains an override routing `to_name` here —
    /// ownership follows the data. The peer that owned `to_name`
    /// participates in a two-phase exchange so the name is locked on
    /// both shards for the whole window and the entry a rename
    /// overwrites there is deleted exactly once; link(2) does not
    /// overwrite, so a peer reporting an existing target aborts it.
    #[allow(clippy::too_many_arguments)]
    async fn cross_shard(
        &self,
        ctx: u64,
        from: ClientId,
        view: ShardView,
        peer_shard: u32,
        from_name: Option<String>,
        to_name: String,
        req: NfsRequest,
    ) -> NfsReply {
        let (link, src) = (from_name.is_none(), from_name.as_deref());
        // Lock the names locally. The gate vetted a rename's `from_name`
        // in this same synchronous region, so this cannot fail on it;
        // `to_name` may race another transaction.
        if src.is_some_and(|n| self.name_locked(n)) || self.name_locked(&to_name) {
            return self.busy();
        }
        // The names this transaction holds until it replies.
        let names = [src, Some(to_name.as_str())];
        names.iter().flatten().for_each(|n| self.lock_name(n));
        let unlock = || names.iter().flatten().for_each(|n| self.unlock_name(n));
        let txid = self.next_txid();
        // Phase 1: the peer locks `to_name` and reports what it holds.
        // Only after it succeeds are the names locked on both shards —
        // which is why the begin event (opening the checker's atomicity
        // window) must not be emitted any earlier.
        let existed = match self.tx_call_prepare(peer_shard, txid, &to_name).await {
            Ok(existed) => existed,
            Err(rep) => {
                unlock();
                return rep;
            }
        };
        if link && existed {
            self.spawn_tx_resolve(0, peer_shard, txid, false);
            unlock();
            return NfsReply::Err(NfsStatus::Exist);
        }
        let begin = self.emit_with(ctx, || EventKind::ShardTxBegin {
            txid,
            from_shard: view.shard,
            to_shard: peer_shard,
            from_name: src.unwrap_or_default().to_string(),
            to_name: to_name.clone(),
            link,
        });
        // Phase 2, local half: the operation inside this shard's store.
        // The name locks guarantee no other operation observes the
        // window, even across the handler's awaits.
        let rep = spritely_nfs::handle(&self.inner.fs, req).await;
        if matches!(rep, NfsReply::Err(_)) {
            self.spawn_tx_resolve(0, peer_shard, txid, false);
            self.emit(
                begin,
                EventKind::ShardTxEnd {
                    txid,
                    committed: false,
                },
            );
            unlock();
            return rep;
        }
        self.bump_shard(|s| {
            if link {
                s.cross_links += 1
            } else {
                s.cross_renames += 1
            }
        });
        // Commit point: publish the ownership move. From here every
        // shard's gate and every refreshed client routes `to_name` to
        // this shard, and the transaction can only complete.
        let epoch = view
            .layout
            .borrow_mut()
            .record_move(src, &to_name, view.shard);
        self.emit_with(begin, || EventKind::ShardMove {
            from_name: src.unwrap_or_default().to_string(),
            to_name: to_name.clone(),
            shard: view.shard,
            epoch,
        });
        self.spawn_tx_resolve(begin, peer_shard, txid, true);
        // Both directory handles are this shard's root (that is what
        // made the operation cross-shard).
        self.names_changed(ctx, view.root, from, link).await;
        unlock();
        rep
    }

    /// Participant phase 1: lock `name` against local service and report
    /// whether an entry by that name already exists (a committed rename
    /// will overwrite it; a link must refuse). Idempotent per txid —
    /// coordinator retries re-reply from the transaction table.
    fn tx_prepare(&self, ctx: u64, txid: u64, name: &str) -> NfsReply {
        let Some(view) = self.inner.shard.borrow().clone() else {
            return NfsReply::Err(NfsStatus::Inval);
        };
        if let Some(entry) = self.inner.tx_table.borrow().get(&txid) {
            return NfsReply::TxPrepared {
                existed: entry.existed_fh.is_some(),
            };
        }
        if self.name_locked(name) {
            return self.busy();
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
        let Some((name, existed_fh)) = self.tx_resolve(txid) else {
            return NfsReply::Ok;
        };
        // Only a shard prepares, so the entry implies the view.
        let root = self.inner.shard.borrow().as_ref().map(|v| v.root);
        let root = root.expect("a prepared transaction implies a shard view");
        // Delete only while the entry is still the handle that was
        // prepared: ownership may have ping-ponged since, and a newer
        // file under the same name must survive.
        let current = self.inner.fs.lookup(root, &name).ok();
        if current.is_some_and(|(cfh, _)| Some(cfh) == existed_fh) {
            let name = name.clone();
            let req = NfsRequest::Remove { dir: root, name };
            self.remove_entry(ctx, ClientId(0), req, current).await;
        }
        self.unlock_name(&name);
        self.names_changed(ctx, root, ClientId(0), false).await;
        NfsReply::Ok
    }

    /// Participant abort: drop the prepared entry and release the lock.
    fn tx_abort(&self, txid: u64) -> NfsReply {
        if let Some((name, _)) = self.tx_resolve(txid) {
            self.unlock_name(&name);
        }
        NfsReply::Ok
    }

    /// Marks the prepared entry of `txid` resolved and returns the name
    /// it locked and the handle it found there. `None` for a duplicate
    /// delivery or an unknown txid.
    fn tx_resolve(&self, txid: u64) -> Option<(String, Option<FileHandle>)> {
        let mut table = self.inner.tx_table.borrow_mut();
        let entry = table.get_mut(&txid).filter(|e| !e.done)?;
        entry.done = true;
        Some((entry.name.clone(), entry.existed_fh))
    }

    /// The callback sender: the one place that takes a callback slot,
    /// counts and traces a callback, numbers it and retries it. `cb`
    /// names the target and what the trace records; `arg` is what the
    /// client is asked to do (its `seq` is assigned here). Retries go on
    /// until the client has been unreachable for `give_up`, or `settled`
    /// says the answer no longer matters (which counts as a yes). A
    /// target without a registered callback channel is unreachable by
    /// construction: nothing is sent, and the failure hangs off `parent`.
    async fn send_callback(
        &self,
        parent: u64,
        cb: CallbackNeeded,
        mut arg: CallbackArg,
        give_up: SimDuration,
        settled: impl Fn() -> bool,
    ) -> Sent {
        /// First retry delay after a timed-out callback; doubles per
        /// retry up to the cap.
        const RETRY_BACKOFF: SimDuration = SimDuration::from_secs(2);
        const BACKOFF_CAP: SimDuration = SimDuration::from_secs(8);
        let caller = self
            .inner
            .callback_clients
            .borrow()
            .get(&cb.target)
            .cloned();
        let Some(caller) = caller else {
            return Sent {
                seq: parent,
                ok: false,
                took: SimDuration::ZERO,
            };
        };
        // N−1 rule: hold a callback slot while waiting on the client.
        let slot = self.inner.callback_slots.acquire().await;
        self.bump_stats(|s| s.callbacks_sent += 1);
        self.inner.callback_inflight.inc();
        // The begin event sits inside the slot so the checker's
        // concurrent-callback count mirrors the real N−1 budget.
        let seq = self.emit(
            parent,
            EventKind::CallbackBegin {
                target: cb.target,
                fh: arg.fh,
                writeback: cb.writeback,
                invalidate: cb.invalidate,
            },
        );
        // One sequence number per *logical* callback: retries are fresh
        // RPCs with fresh xids (the RPC dup cache cannot pair them), so
        // this is what lets the client recognize — and answer
        // idempotently — a delivery it has already acted on.
        arg.seq = self.inner.cb_next_seq.get() + 1;
        self.inner.cb_next_seq.set(arg.seq);
        // A timeout is not a crash: a lossy network or a transient
        // partition can eat a whole retransmission ladder while the
        // client is alive and holding dirty data. Retry with doubling
        // backoff (slot held — the N−1 rule bounds waiting callbacks,
        // not just active ones) and only give up once the client has
        // been unreachable past the caller's horizon. A reply with
        // `ok == false` is different: the client answered and refused.
        let started = self.inner.sim.now();
        let mut backoff = RETRY_BACKOFF;
        let ok = loop {
            if settled() {
                break true;
            }
            match caller.call_ctx(seq, arg).await {
                Ok(rep) => break rep.ok,
                Err(_) => {
                    let elapsed = self.inner.sim.now().saturating_duration_since(started);
                    if elapsed >= give_up {
                        break false;
                    }
                    self.inner
                        .callback_retries
                        .set(self.inner.callback_retries.get() + 1);
                    self.inner.sim.sleep(backoff).await;
                    backoff = backoff.mul_f64(2.0).min(BACKOFF_CAP);
                }
            }
        };
        self.inner.callback_inflight.dec();
        let (target, fh) = (cb.target, arg.fh);
        self.emit(seq, EventKind::CallbackEnd { target, fh, ok });
        drop(slot);
        let took = self.inner.sim.now().saturating_duration_since(started);
        Sent { seq, ok, took }
    }

    /// The "dead client" case of §3.2: `client` cannot be called back.
    /// The open that needed it is honored, but its files may be
    /// inconsistent; all of its state is dropped.
    fn client_unreachable(&self, parent: u64, client: ClientId) {
        self.bump_stats(|s| s.callbacks_failed += 1);
        let affected = self.inner.table.borrow_mut().client_crashed(client);
        for (fh, before, after) in affected {
            self.emit_transition(parent, fh, Cause::ClientCrash, client, before, after);
            self.gc_file_lock(fh);
        }
    }

    /// Performs one callback. A client without a callback channel, one
    /// that stays silent past `callback_dead_after` (roughly three
    /// keepalive intervals: it has missed its liveness horizon too) and
    /// one that answers with a refusal are all treated as crashed.
    async fn do_callback(&self, parent: u64, fh: FileHandle, cb: CallbackNeeded, relinquish: bool) {
        let arg = CallbackArg {
            fh,
            writeback: cb.writeback,
            invalidate: cb.invalidate,
            relinquish,
            seq: 0,
            recall: false,
        };
        let give_up = self.inner.params.callback_dead_after;
        let sent = self.send_callback(parent, cb, arg, give_up, || false).await;
        if !sent.ok {
            self.client_unreachable(sent.seq, cb.target);
        } else if cb.writeback {
            self.transition(sent.seq, fh, Cause::WritebackDone, cb.target, |t| {
                t.writeback_done(fh, cb.target)
            });
        }
    }

    /// Spawns every job as its own task, then waits for them all.
    async fn spawn_all<F: Future<Output = ()> + 'static>(&self, jobs: impl Iterator<Item = F>) {
        let tasks: Vec<_> = jobs.map(|job| self.inner.sim.spawn(job)).collect();
        for t in tasks {
            t.await;
        }
    }

    /// Performs a set of callbacks. A single one runs inline; several
    /// fan out as concurrent tasks across their target clients, each
    /// still taking one of the N−1 callback slots inside
    /// [`send_callback`](Self::send_callback) — so the fan-out never
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
            [cb] => self.do_callback(parent, fh, *cb, relinquish).await,
            many => {
                let jobs = many.iter().map(|&cb| {
                    let this = self.clone();
                    async move { this.do_callback(parent, fh, cb, relinquish).await }
                });
                self.spawn_all(jobs).await;
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
        let (revoked, from, to) = self.observed(fh, |t| t.revoke_delegation(fh, holder));
        if revoked {
            self.emit(
                parent,
                EventKind::DelegReturn {
                    client: holder,
                    fh,
                    revoked: true,
                },
            );
            self.emit_transition(parent, fh, Cause::DelegReturn, holder, from, to);
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
        // The trace shows a write delegation's recall as a write-back
        // (the holder flushes before it returns); the argument asks for
        // the recall alone.
        let cb = CallbackNeeded {
            target: d.holder,
            writeback: d.write,
            invalidate: false,
        };
        let arg = CallbackArg {
            fh,
            writeback: false,
            invalidate: false,
            relinquish: false,
            seq: 0,
            recall: true,
        };
        // The return may land through a duplicate delivery while a
        // retry is still in flight; stop as soon as it does.
        let returned = || {
            let table = self.inner.table.borrow();
            table.delegation_of(fh, d.holder).is_none()
        };
        let give_up = self.inner.params.delegation.recall_timeout;
        let sent = self.send_callback(parent, cb, arg, give_up, returned).await;
        if sent.ok && returned() {
            // The holder acked after its DelegReturn RPC was applied.
            self.bump_deleg(|s| s.recall_latency.record(sent.took.as_micros()));
        } else {
            // Unreachable, timed out, refused, or acked without
            // returning: fence.
            self.revoke(sent.seq, fh, d.holder);
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
                let jobs = many.iter().map(|&d| {
                    let this = self.clone();
                    async move { this.recall_one(parent, fh, d).await }
                });
                self.spawn_all(jobs).await;
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

    /// Serves a `DelegReturn`: the holder's batched open/close state is
    /// folded into the table. Deliberately lock-free: the conflicting
    /// opener holds the file lock while it awaits this very return (same
    /// discipline that lets Write RPCs land during a write-back
    /// callback).
    fn deleg_return(
        &self,
        ctx: u64,
        fh: FileHandle,
        client: ClientId,
        readers: u32,
        writers: u32,
        wrote: bool,
    ) -> NfsReply {
        let (applied, from, to) = self.observed(fh, |t| {
            t.return_delegation(fh, client, readers, writers, wrote)
        });
        // `None`: the holder was fenced (or the entry is gone) and its
        // batched state was discarded at revoke time. The revoked return
        // is emitted again so a late arrival still closes the holder's
        // outstanding recall, and the client is told to purge.
        let fenced = applied.is_none();
        self.emit(
            ctx,
            EventKind::DelegReturn {
                client,
                fh,
                revoked: fenced,
            },
        );
        if !fenced {
            self.emit_transition(ctx, fh, Cause::DelegReturn, client, from, to);
            self.bump_deleg(|s| s.returns += 1);
        }
        let version = applied
            .or_else(|| self.inner.table.borrow().version_of(fh))
            .unwrap_or(FileVersion(0));
        NfsReply::DelegReturned { version, fenced }
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
        let jobs = outcome.writebacks.into_iter().map(|(fh, client)| {
            let this = self.clone();
            async move {
                let lock = this.file_lock(fh).acquire().await;
                // Re-check under the lock: a concurrent open may have
                // revived the entry (or moved its dirty claim), and a
                // stale callback would invalidate an active client's
                // cache.
                let stale = {
                    let table = this.inner.table.borrow();
                    table.state_of(fh) != FileState::ClosedDirty
                        || table.dirty_holder(fh) != Some(client)
                };
                if !stale {
                    let cb = CallbackNeeded {
                        target: client,
                        writeback: true,
                        invalidate: true,
                    };
                    this.do_callback(0, fh, cb, false).await;
                    // On failure, client_crashed already cleaned the entry
                    // up; either way drop it if it is now cleanly closed.
                    let (dropped, from, to) = this.observed(fh, |t| t.drop_if_closed(fh));
                    if dropped {
                        this.emit_transition(0, fh, Cause::Reclaim, client, from, to);
                    }
                }
                drop(lock);
                this.gc_file_lock(fh);
            }
        });
        self.spawn_all(jobs).await;
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
                if self.inner.recalls_pending.borrow().contains_key(&client) {
                    NfsReply::Err(NfsStatus::Grace)
                } else {
                    NfsReply::Epoch(self.inner.epoch.get())
                }
            }
            NfsRequest::Recover { client, ref files } => {
                debug_assert_eq!(from, client);
                // Restore file-by-file so each table change gets its own
                // transition event (same net effect as one call).
                for f in files {
                    self.transition(ctx, f.fh, Cause::Restore, client, |t| {
                        t.restore(client, std::slice::from_ref(f))
                    });
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
                let (outcome, t_seq) = self.open_transition(ctx, fh, client, write).await;
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
                self.close_transition(ctx, fh, client, write, true, lock);
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
                self.deleg_return(ctx, fh, client, readers, writers, wrote)
            }
            NfsRequest::Read { fh, .. } | NfsRequest::Write { fh, .. }
                if self.inner.params.hybrid_nfs
                    && self.inner.table.borrow().is_foreign_access(fh, from) =>
            {
                // §6.1 coexistence: a plain-NFS client is touching a file
                // that SNFS clients have open. Bracket the access in an
                // implicit open/close so the consistency callbacks fire
                // (a plain-NFS access conflicts with delegations the same
                // way an SNFS open does); the implicit close leaves no
                // dirty claim (the data went through synchronously).
                let write = matches!(req, NfsRequest::Write { .. });
                let lock = self.file_lock(fh).acquire().await;
                self.open_transition(ctx, fh, from, write).await;
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                self.close_transition(ctx, fh, from, write, false, lock);
                rep
            }
            NfsRequest::Remove { dir, ref name } => {
                let victim = self.inner.fs.lookup(dir, name).ok();
                let rep = self.remove_entry(ctx, from, req, victim).await;
                self.names_changed(ctx, dir, from, false).await;
                rep
            }
            NfsRequest::Lookup { dir, .. } => {
                let rep = spritely_nfs::handle(&self.inner.fs, req).await;
                if !matches!(rep, NfsReply::Err(_)) {
                    self.watch_dir(dir, from);
                }
                rep
            }
            NfsRequest::Create { dir, .. }
            | NfsRequest::Mkdir { dir, .. }
            | NfsRequest::Symlink { dir, .. } => {
                self.namespace_change(ctx, from, req, dir, dir, true).await
            }
            NfsRequest::Rmdir { dir, .. } => {
                self.namespace_change(ctx, from, req, dir, dir, false).await
            }
            NfsRequest::Link {
                to_dir,
                ref to_name,
                ..
            } => {
                if let Some((view, peer)) = self.cross_shard_target(to_dir, to_dir, to_name) {
                    let to_name = to_name.clone();
                    return self
                        .cross_shard(ctx, from, view, peer, None, to_name, req)
                        .await;
                }
                self.namespace_change(ctx, from, req, to_dir, to_dir, true)
                    .await
            }
            NfsRequest::Rename {
                from_dir,
                ref from_name,
                to_dir,
                ref to_name,
            } => {
                if let Some((view, peer)) = self.cross_shard_target(from_dir, to_dir, to_name) {
                    let (from_name, to_name) = (Some(from_name.clone()), to_name.clone());
                    return self
                        .cross_shard(ctx, from, view, peer, from_name, to_name, req)
                        .await;
                }
                self.namespace_change(ctx, from, req, from_dir, to_dir, false)
                    .await
            }
            NfsRequest::TxPrepare { txid, ref name } => self.tx_prepare(ctx, txid, name),
            NfsRequest::TxCommit { txid } => self.tx_commit(ctx, txid).await,
            NfsRequest::TxAbort { txid } => self.tx_abort(txid),
            // Everything else is the unmodified NFS service code.
            other => spritely_nfs::handle(&self.inner.fs, other).await,
        }
    }

    /// The open half of an SNFS `open` and of the §6.1 implicit open,
    /// run under the file lock: conflicting delegations come back (or are
    /// revoked) *before* the open transition, so the holder's batched
    /// open/close state is folded into the table the transition
    /// computation sees; then the callbacks the transition calls for.
    /// Returns the outcome and the transition's trace sequence number.
    async fn open_transition(
        &self,
        ctx: u64,
        fh: FileHandle,
        client: ClientId,
        write: bool,
    ) -> (OpenOutcome, u64) {
        self.recall_conflicting(ctx, fh, client, write).await;
        let cause = if write {
            Cause::OpenWrite
        } else {
            Cause::OpenRead
        };
        let (outcome, t_seq) =
            self.transition(ctx, fh, cause, client, |t| t.open(fh, client, write));
        self.fan_out_callbacks(t_seq, fh, &outcome.callbacks, false)
            .await;
        (outcome, t_seq)
    }

    /// The close half: records the close, releases the file lock and
    /// drops the lock entry if the file is back to CLOSED. A writer that
    /// wrote through (`may_cache_dirty == false`) leaves no dirty claim.
    fn close_transition(
        &self,
        ctx: u64,
        fh: FileHandle,
        client: ClientId,
        write: bool,
        may_cache_dirty: bool,
        lock: Permit,
    ) {
        let cause = if write {
            Cause::CloseWrite
        } else {
            Cause::CloseRead
        };
        self.transition(ctx, fh, cause, client, |t| {
            t.close_with(fh, client, write, may_cache_dirty)
        });
        drop(lock);
        self.gc_file_lock(fh);
    }

    /// Removes a directory entry (`req` is the `Remove`; `victim` what
    /// its name resolved to). When that was the victim's *last* hard
    /// link its table entry goes too, and with it any expectation of a
    /// write-back; otherwise version continuity must be preserved for
    /// the surviving names.
    async fn remove_entry(
        &self,
        ctx: u64,
        client: ClientId,
        req: NfsRequest,
        victim: Option<(FileHandle, Fattr)>,
    ) -> NfsReply {
        let rep = spritely_nfs::handle(&self.inner.fs, req).await;
        if let (Some((fh, attr)), NfsReply::Ok) = (victim, &rep) {
            if attr.nlink <= 1 {
                if self.inner.table.borrow().version_of(fh).is_some() {
                    self.transition(ctx, fh, Cause::Removed, client, |t| t.file_removed(fh));
                }
                self.gc_file_lock(fh);
            }
        }
        rep
    }

    /// Runs a namespace-changing procedure on `dir` (a rename also
    /// touches `to_dir`) and, once it has succeeded, tells the watchers.
    async fn namespace_change(
        &self,
        ctx: u64,
        from: ClientId,
        req: NfsRequest,
        dir: FileHandle,
        to_dir: FileHandle,
        watch: bool,
    ) -> NfsReply {
        let rep = spritely_nfs::handle(&self.inner.fs, req).await;
        if !matches!(rep, NfsReply::Err(_)) {
            self.names_changed(ctx, dir, from, watch).await;
            if to_dir != dir {
                self.names_changed(ctx, to_dir, from, false).await;
            }
        }
        rep
    }
}
