//! Server→client callbacks (paper §3.2, §4.3): the one sender with its
//! N−1 slot budget and retry ladder, the dead-client cleanup, the
//! fan-outs, state-table reclaim, and the §7 name-translation watchers.

use std::future::Future;

use spritely_metrics::InflightGauge;
use spritely_proto::{CallbackArg, ClientId, FileHandle, NfsReply, NfsRequest};
use spritely_rpcnet::Caller;
use spritely_sim::SimDuration;
use spritely_trace::{Cause, EventKind};

use super::{bump, SnfsServer};
use crate::delegation::CALLBACK_DEAD_AFTER;
use crate::state_table::{CallbackNeeded, FileState};

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

/// How one logical callback ended.
pub(super) struct Sent {
    /// Where its consequences hang in the trace: its `CallbackBegin`, or
    /// the sender's `parent` when nothing could be sent.
    pub(super) seq: u64,
    /// The client answered, and did not refuse.
    pub(super) ok: bool,
    /// From taking the callback slot to the answer, or to giving up.
    pub(super) took: SimDuration,
}

impl SnfsServer {
    /// Registers the callback channel for a client host. Without one, the
    /// client is treated as unreachable when a callback is needed.
    pub fn register_client(&self, id: ClientId, caller: Caller) {
        self.inner.callback_clients.borrow_mut().insert(id, caller);
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

    /// The callback sender: the one place that takes a callback slot,
    /// counts and traces a callback, numbers it and retries it. `cb`
    /// names the target and what the trace records; `arg` is what the
    /// client is asked to do (its `seq` is assigned here). Retries go on
    /// until the client has been unreachable for `give_up`, or `settled`
    /// says the answer no longer matters (which counts as a yes). A
    /// target without a registered callback channel is unreachable by
    /// construction: nothing is sent, and the failure hangs off `parent`.
    pub(super) async fn send_callback(
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
        bump(&self.inner.stats, |s| s.callbacks_sent += 1);
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
        // been unreachable past the caller's horizon. An error reply is
        // different: the client answered and refused.
        let started = self.inner.sim.now();
        let mut backoff = RETRY_BACKOFF;
        let ok = loop {
            if settled() {
                break true;
            }
            match caller.call_ctx(seq, NfsRequest::Callback(arg)).await {
                Ok(rep) => break rep.is_ok(),
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
        self.emit(
            seq,
            EventKind::CallbackEnd {
                target: cb.target,
                fh: arg.fh,
                ok,
            },
        );
        drop(slot);
        let took = self.inner.sim.now().saturating_duration_since(started);
        Sent { seq, ok, took }
    }

    /// The "dead client" case of §3.2: `client` cannot be called back.
    /// The open that needed it is honored, but its files may be
    /// inconsistent; all of its state is dropped.
    fn client_unreachable(&self, parent: u64, client: ClientId) {
        bump(&self.inner.stats, |s| s.callbacks_failed += 1);
        let affected = self.inner.table.borrow_mut().client_crashed(client);
        for (fh, before, after) in affected {
            self.emit_transition(parent, fh, Cause::ClientCrash, client, before, after);
            self.gc_file_lock(fh);
        }
    }

    /// Performs one callback. A client without a callback channel, one
    /// that stays silent past [`CALLBACK_DEAD_AFTER`] and one that answers
    /// with a refusal are all treated as crashed.
    async fn do_callback(&self, parent: u64, fh: FileHandle, cb: CallbackNeeded) {
        let arg = CallbackArg {
            fh,
            writeback: cb.writeback,
            invalidate: cb.invalidate,
            seq: 0,
            recall: false,
        };
        let sent = self
            .send_callback(parent, cb, arg, CALLBACK_DEAD_AFTER, || false)
            .await;
        if !sent.ok {
            self.client_unreachable(sent.seq, cb.target);
        } else if cb.writeback {
            self.transition(sent.seq, fh, Cause::WritebackDone, cb.target, |t| {
                t.writeback_done(fh, cb.target)
            });
        }
    }

    /// Spawns every job as its own task, then waits for them all.
    pub(super) async fn spawn_all<F: Future<Output = ()> + 'static>(
        &self,
        jobs: impl Iterator<Item = F>,
    ) {
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
    pub(super) async fn fan_out_callbacks(
        &self,
        parent: u64,
        fh: FileHandle,
        callbacks: &[CallbackNeeded],
    ) {
        // Boxed: a callback is the cold path (see `handle`).
        match callbacks {
            [] => {}
            [cb] => Box::pin(self.do_callback(parent, fh, *cb)).await,
            many => {
                let jobs = many.iter().map(|&cb| {
                    let this = self.clone();
                    async move { this.do_callback(parent, fh, cb).await }
                });
                Box::pin(self.spawn_all(jobs)).await;
            }
        }
    }

    /// Reclaims state-table entries when over the limit (paper §4.3.1).
    pub(super) async fn maybe_reclaim(&self) {
        if !self.inner.table.borrow().over_limit() {
            return;
        }
        bump(&self.inner.stats, |s| s.reclaim_passes += 1);
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
                    this.do_callback(0, fh, cb).await;
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

    /// Registers `client` as possibly caching names under `dir` (§7
    /// extension: Sprite-style consistency for name translations). A
    /// successful `lookup` makes the caller a watcher of the directory,
    /// as does creating a name in it — the creator learns the new
    /// translation from the reply and will cache it.
    pub(super) fn watch_dir(&self, dir: FileHandle, client: ClientId) {
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
    pub(super) async fn names_changed(
        &self,
        parent: u64,
        dir: FileHandle,
        originator: ClientId,
        watch: bool,
    ) {
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
        self.fan_out_callbacks(parent, dir, &others).await;
        if watch {
            self.watch_dir(dir, originator);
        }
    }

    /// Runs a namespace-changing procedure on `dir` (a rename also
    /// touches `to_dir`) and, once it has succeeded, tells the watchers.
    pub(super) async fn namespace_change(
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
