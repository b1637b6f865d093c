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
//!
//! This file holds the parameters, the server's state, its accessors,
//! crash/reboot, the transition recorder and the `handle` dispatch;
//! `callback` sends callbacks, `delegation` grants and recalls, `twopc`
//! is the sharded namespace (DESIGN.md §21).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use spritely_blockdev::DiskSched;
use spritely_localfs::LocalFs;
use spritely_metrics::{InflightGauge, OpCounter};
use spritely_proto::{
    ClientId, Fattr, FileHandle, Name, NfsReply, NfsRequest, NfsStatus, OpenReply,
};
use spritely_rpcnet::{Caller, Endpoint, EndpointParams, Handler};
use spritely_sim::{Map, Permit, Resource, Semaphore, Set, Sim, SimDuration};
use spritely_trace::{Cause, EventKind, Tracer};

use crate::delegation::{DelegationParams, DelegationStats};
use crate::state_table::{FileState, OpenOutcome, StateTable};

mod callback;
mod delegation;
mod twopc;

pub use callback::ServerStats;
use twopc::TxEntry;
pub use twopc::{ShardOpStats, ShardView};

/// SNFS server configuration.
#[derive(Debug, Clone, Copy)]
pub struct SnfsServerParams {
    /// Maximum state-table entries (paper §4.3.1; each entry cost 68
    /// bytes, so limits could be liberal — 1000 entries ≈ 70 KB).
    pub table_limit: usize,
    /// When over the limit, reclaim down to this many entries.
    pub reclaim_target: usize,
}

impl Default for SnfsServerParams {
    fn default() -> Self {
        SnfsServerParams {
            table_limit: 1000,
            reclaim_target: 900,
        }
    }
}

/// §2.4 recovery: how long a rebooted server stays in its grace period,
/// accepting only `recover`/`keepalive` calls while clients re-register
/// their state.
const GRACE_PERIOD: SimDuration = SimDuration::from_secs(20);

/// Server I/O pipeline configuration: how the server's disk arm is
/// scheduled, how large its block cache is, and how many RPCs may be
/// admitted concurrently. (Concurrent misses on one block always share
/// one disk read; no paper-mode run has two.)
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
    /// RPC service threads. This is the admission width — that many RPCs
    /// overlap CPU with disk waits — and the N of the N−1 callback bound.
    pub service_threads: usize,
}

impl ServerIoParams {
    /// The paper-era server: FIFO arm, the baseline 896-block cache, 4
    /// service threads. Keeps every `table_5_*` and `figure_5_*` artifact
    /// byte-identical.
    pub fn paper() -> Self {
        ServerIoParams {
            sched: DiskSched::Fifo,
            cache_blocks: 896,
            service_threads: 4,
        }
    }

    /// The pipelined server: C-LOOK arm scheduling (aging limit 4, so no
    /// request is bypassed more than 4 times; 2M-block full stroke), a
    /// 4096-block cache, and 8 service threads overlapping CPU with disk
    /// waits.
    pub fn pipelined() -> Self {
        ServerIoParams {
            sched: DiskSched::CLook {
                max_bypass: 4,
                stroke_blocks: 1 << 21,
            },
            cache_blocks: 4096,
            service_threads: 8,
        }
    }
}

impl Default for ServerIoParams {
    fn default() -> Self {
        Self::paper()
    }
}

struct Inner {
    sim: Sim,
    fs: LocalFs,
    table: RefCell<StateTable>,
    /// Registered callback channels, one per client host.
    callback_clients: RefCell<Map<ClientId, Caller>>,
    /// Per-file serialization of open/close transitions.
    file_locks: RefCell<Map<FileHandle, Semaphore>>,
    /// At most N−1 simultaneous callbacks (N = service threads).
    callback_slots: Semaphore,
    /// Concurrent callbacks in flight (peak must stay ≤ N−1).
    callback_inflight: InflightGauge,
    params: SnfsServerParams,
    /// What [`SnfsServer::endpoint`] serves with: its thread count is the
    /// N of the N−1 callback bound.
    endpoint: EndpointParams,
    /// Open delegations (DESIGN.md §17). Off, the server grants nothing,
    /// recalls nothing, and its replies are the paper configuration's.
    delegation: DelegationParams,
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
    dir_watchers: RefCell<Map<FileHandle, Vec<ClientId>>>,
    /// Logical-callback sequence numbers (stable across retries of the
    /// same callback, so clients can deduplicate duplicate deliveries).
    cb_next_seq: Cell<u64>,
    /// Timed-out callback attempts that were retried instead of
    /// declaring the client dead.
    callback_retries: Cell<u64>,
    /// Unresolved recalls, one `(holder, file)` entry each. While a
    /// holder has one, its keepalives are answered `Grace` and its returns
    /// of other files do not renew its lease either
    /// (DESIGN.md §17.3): the recall timeout (20 s) only proves a dead
    /// holder's lease (15 s) lapsed if no renewal crossed the wire after
    /// the recall started.
    recalls_pending: RefCell<Vec<(ClientId, FileHandle)>>,
    tracer: RefCell<Option<Tracer>>,
    /// Sharded-namespace view; `None` in the single-server configuration,
    /// where every shard code path costs one borrow + `Option` check.
    shard: RefCell<Option<ShardView>>,
    /// Inter-shard RPC channels to peer shard servers, by shard index.
    peers: RefCell<Map<u32, Caller>>,
    /// Root-level names locked by an in-flight cross-shard transaction
    /// (volatile; cleared on crash).
    name_locks: RefCell<Set<Name>>,
    /// Participant-side transaction table (volatile; cleared on crash).
    tx_table: RefCell<Map<u64, TxEntry>>,
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
    /// Creates a server over `fs` that will serve through an endpoint
    /// built with `endpoint` ([`endpoint`](Self::endpoint)), so the N−1
    /// callback bound and the admission width are one thread count.
    ///
    /// # Panics
    ///
    /// Panics if `endpoint.threads < 2` — a single-threaded SNFS server
    /// would deadlock on the first write-back callback (§3.2).
    pub fn new(
        sim: &Sim,
        fs: LocalFs,
        endpoint: EndpointParams,
        params: SnfsServerParams,
        delegation: DelegationParams,
    ) -> Self {
        assert!(
            endpoint.threads >= 2,
            "SNFS needs >= 2 service threads (callback deadlock, paper §3.2)"
        );
        SnfsServer {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                fs,
                table: RefCell::new(StateTable::new(params.table_limit)),
                callback_clients: RefCell::new(Map::default()),
                file_locks: RefCell::new(Map::default()),
                callback_slots: Semaphore::new(endpoint.threads - 1),
                callback_inflight: InflightGauge::new(),
                params,
                endpoint,
                delegation,
                stats: Cell::new(ServerStats::default()),
                deleg_stats: Cell::new(DelegationStats::default()),
                epoch: Cell::new(1),
                grace_until: Cell::new(None),
                dir_watchers: RefCell::new(Map::default()),
                cb_next_seq: Cell::new(0),
                callback_retries: Cell::new(0),
                recalls_pending: RefCell::new(Vec::new()),
                tracer: RefCell::new(None),
                shard: RefCell::new(None),
                peers: RefCell::new(Map::default()),
                name_locks: RefCell::new(Set::default()),
                tx_table: RefCell::new(Map::default()),
                next_txid: Cell::new(0),
                shard_stats: Cell::new(ShardOpStats::default()),
            }),
        }
    }

    /// Attaches a tracer. Emits the `server_threads` metadata the trace
    /// checker uses for the N−1 callback bound, then records every
    /// state-table transition, callback, and crash.
    pub fn set_tracer(&self, tracer: Tracer) {
        let threads = self.inner.endpoint.threads;
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
            from,
            to,
            version: self.inner.table.borrow().version_of(fh).map_or(0, |v| v.0),
        })
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

    /// Number of state-table entries (for tests; paper §4.3.1 limits).
    pub fn table_len(&self) -> usize {
        self.inner.table.borrow().len()
    }

    /// Observes a file's state (test hook).
    pub fn state_of(&self, fh: FileHandle) -> crate::state_table::FileState {
        self.inner.table.borrow().state_of(fh)
    }

    /// Builds the RPC endpoint for this server, with the parameters it
    /// was created with.
    pub fn endpoint(&self, name: impl Into<String>, cpu: Resource, counter: OpCounter) -> Endpoint {
        let params = self.inner.endpoint;
        Endpoint::new(&self.inner.sim, name, cpu, params, counter, self.clone())
    }

    fn file_lock(&self, fh: FileHandle) -> Semaphore {
        let mut locks = self.inner.file_locks.borrow_mut();
        let sem = locks.entry(fh).or_insert_with(|| Semaphore::new(1));
        // Contention pin for the scaling analysis (DESIGN.md §18.5): a
        // non-idle semaphore means this acquisition will queue behind
        // another client's open/close/write-back on the same file.
        if !sem.is_idle() {
            bump(&self.inner.shard_stats, |s| s.lock_contention += 1);
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

    /// Dispatches one request. `ctx` is the trace context of the RPC
    /// handler span (0 when untraced).
    ///
    /// Its future lies in every execution task, queued ones included, so
    /// the cold paths — a callback or recall actually sent, a cross-shard
    /// transaction, a participant's commit — are `Box::pin`ned where they
    /// are awaited: they allocate when they run, and cost every other
    /// execution no room (DESIGN.md §22).
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
                if self.recalled(client, None) {
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
                if self.inner.table.borrow().is_foreign_access(fh, from) =>
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
                    let tx = self.cross_shard(ctx, from, view, peer, None, to_name, req);
                    return Box::pin(tx).await;
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
                    let tx = self.cross_shard(ctx, from, view, peer, from_name, to_name, req);
                    return Box::pin(tx).await;
                }
                self.namespace_change(ctx, from, req, from_dir, to_dir, false)
                    .await
            }
            NfsRequest::TxPrepare { txid, ref name } => self.tx_prepare(ctx, txid, name),
            NfsRequest::TxCommit { txid } => Box::pin(self.tx_commit(ctx, txid)).await,
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
        self.fan_out_callbacks(t_seq, fh, &outcome.callbacks).await;
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
}

impl Handler for SnfsServer {
    fn serve(&self, from: ClientId, ctx: u64, req: NfsRequest) -> impl Future<Output = NfsReply> {
        self.handle(from, ctx, req)
    }
}
