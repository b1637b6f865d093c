//! The sharded namespace (DESIGN.md §18): the shard-ownership gate, name
//! locks, and both halves of the two-phase cross-shard rename/link — the
//! coordinator and the participant's transaction table.

use std::cell::RefCell;
use std::rc::Rc;

use spritely_proto::{ClientId, FileHandle, Layout, Name, NfsReply, NfsRequest, NfsStatus};
use spritely_rpcnet::Caller;
use spritely_sim::SimDuration;
use spritely_trace::EventKind;

use super::{bump, SnfsServer};

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
    /// `file_lock` acquisitions that found the lock already claimed.
    pub lock_contention: u64,
}

/// Participant-side record of a prepared cross-shard transaction.
pub(super) struct TxEntry {
    /// The target name this shard locked at prepare.
    name: Name,
    /// The entry that existed under that name at prepare time (deleted
    /// at commit, when the coordinator's rename supersedes it).
    existed_fh: Option<FileHandle>,
    /// Resolved (committed or aborted); kept for duplicate deliveries.
    done: bool,
}

impl SnfsServer {
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
    pub fn register_peer(&self, shard: u32, caller: Caller) {
        self.inner.peers.borrow_mut().insert(shard, caller);
    }

    /// Sharded-namespace counters.
    pub fn shard_stats(&self) -> ShardOpStats {
        self.inner.shard_stats.get()
    }

    /// The refusal sent while a cross-shard transaction holds a name.
    fn busy(&self) -> NfsReply {
        bump(&self.inner.shard_stats, |s| s.busy_rejections += 1);
        NfsReply::Err(NfsStatus::Busy)
    }

    fn name_locked(&self, name: &str) -> bool {
        self.inner.name_locks.borrow().contains(name)
    }

    fn lock_name(&self, name: &Name) {
        self.inner.name_locks.borrow_mut().insert(name.clone());
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
    pub(super) fn shard_gate(&self, ctx: u64, req: &NfsRequest) -> Option<NfsReply> {
        let view = self.inner.shard.borrow().clone()?;
        let gate = |name: &str| -> Option<NfsReply> {
            if self.name_locked(name) {
                return Some(self.busy());
            }
            let layout = view.layout.borrow();
            if layout.owner(name) != view.shard {
                let (epoch, moves) = (layout.epoch(), layout.moves());
                drop(layout);
                bump(&self.inner.shard_stats, |s| s.wrong_shard_replies += 1);
                return Some(NfsReply::WrongShard { epoch, moves });
            }
            let epoch = layout.epoch();
            drop(layout);
            self.emit_with(ctx, || EventKind::ShardRoute {
                shard: view.shard,
                name: name.into(),
                epoch,
            });
            None
        };
        match req {
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
            _ => match req.dir_name() {
                Some((dir, name)) if dir == view.root => gate(name),
                _ => None,
            },
        }
    }

    /// When both directory handles address this shard's export root but
    /// the layout owns `to_name` elsewhere, the operation needs the
    /// cross-shard path: returns the view and the peer shard index.
    pub(super) fn cross_shard_target(
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
    fn peer(&self, shard: u32) -> Caller {
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
        name: &Name,
    ) -> Result<bool, NfsReply> {
        let caller = self.peer(peer_shard);
        loop {
            let name = name.clone();
            let req = NfsRequest::TxPrepare { txid, name };
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
    pub(super) async fn cross_shard(
        &self,
        ctx: u64,
        from: ClientId,
        view: ShardView,
        peer_shard: u32,
        from_name: Option<Name>,
        to_name: Name,
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
        let names = [from_name.as_ref(), Some(&to_name)];
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
            from_name: src.unwrap_or_default().into(),
            to_name: (&*to_name).into(),
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
        bump(&self.inner.shard_stats, |s| {
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
            from_name: src.unwrap_or_default().into(),
            to_name: (&*to_name).into(),
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
    pub(super) fn tx_prepare(&self, ctx: u64, txid: u64, name: &Name) -> NfsReply {
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
                name: name.clone(),
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
    pub(super) async fn tx_commit(&self, ctx: u64, txid: u64) -> NfsReply {
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
            let req = NfsRequest::Remove {
                dir: root,
                name: name.clone(),
            };
            self.remove_entry(ctx, ClientId(0), req, current).await;
        }
        self.unlock_name(&name);
        self.names_changed(ctx, root, ClientId(0), false).await;
        NfsReply::Ok
    }

    /// Participant abort: drop the prepared entry and release the lock.
    pub(super) fn tx_abort(&self, txid: u64) -> NfsReply {
        if let Some((name, _)) = self.tx_resolve(txid) {
            self.unlock_name(&name);
        }
        NfsReply::Ok
    }

    /// Marks the prepared entry of `txid` resolved and returns the name
    /// it locked and the handle it found there. `None` for a duplicate
    /// delivery or an unknown txid.
    fn tx_resolve(&self, txid: u64) -> Option<(Name, Option<FileHandle>)> {
        let mut table = self.inner.tx_table.borrow_mut();
        let entry = table.get_mut(&txid).filter(|e| !e.done)?;
        entry.done = true;
        Some((entry.name.clone(), entry.existed_fh))
    }
}
