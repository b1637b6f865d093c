//! Open delegations, server side (DESIGN.md §17): grant on open, recall
//! (or revoke) on conflict, and the `DelegReturn` a recall ends in.

use spritely_proto::{CallbackArg, ClientId, FileHandle, FileVersion, NfsReply};
use spritely_trace::{Cause, EventKind};

use super::{bump, SnfsServer};
use crate::delegation::{DelegationStats, RECALL_TIMEOUT};
use crate::state_table::{CallbackNeeded, Deleg};

impl SnfsServer {
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
            bump(&self.inner.deleg_stats, |s| s.revokes += 1);
        }
    }

    /// Recalls one delegation over the callback channel and waits —
    /// bounded by [`RECALL_TIMEOUT`] — for the holder to flush
    /// and return it. On timeout the delegation is revoked and the
    /// holder fenced. Called with the file lock held; the holder's
    /// return travels as a `DelegReturn` RPC, whose handler takes no
    /// file lock (same discipline that lets write-backs run inside a
    /// callback).
    async fn recall_one(&self, parent: u64, fh: FileHandle, d: Deleg) {
        bump(&self.inner.deleg_stats, |s| s.recalls += 1);
        // From here until the recall resolves, the holder's keepalives
        // are refused so its lease cannot outlive a revoke (§17.3).
        let pending = (d.holder, fh);
        self.inner.recalls_pending.borrow_mut().push(pending);
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
            seq: 0,
            recall: true,
        };
        // The return may land through a duplicate delivery while a
        // retry is still in flight; stop as soon as it does.
        let returned = || {
            let table = self.inner.table.borrow();
            table.delegation_of(fh, d.holder).is_none()
        };
        let sent = self
            .send_callback(parent, cb, arg, RECALL_TIMEOUT, returned)
            .await;
        if sent.ok && returned() {
            // The holder acked after its DelegReturn RPC was applied.
            bump(&self.inner.deleg_stats, |s| {
                s.recall_latency.record(sent.took.as_micros())
            });
        } else {
            // Unreachable, timed out, refused, or acked without
            // returning: fence.
            self.revoke(sent.seq, fh, d.holder);
        }
        let mut recalls = self.inner.recalls_pending.borrow_mut();
        let i = recalls.iter().position(|&r| r == pending);
        recalls.swap_remove(i.expect("this recall is pending"));
    }

    /// True while a recall against `holder` is unresolved, not counting
    /// recalls of `except`: a reply to `holder` then must not renew its
    /// lease (§17.3).
    pub(super) fn recalled(&self, holder: ClientId, except: Option<FileHandle>) -> bool {
        let recalls = self.inner.recalls_pending.borrow();
        recalls
            .iter()
            .any(|&(c, fh)| c == holder && Some(fh) != except)
    }

    /// Recalls every delegation on `fh` that conflicts with `opener`
    /// opening it (`write` mode), then returns. Concurrent recalls fan
    /// out like callbacks, bounded by the N−1 slots. With delegations off
    /// nothing was granted, so there is nothing to recall.
    pub(super) async fn recall_conflicting(
        &self,
        parent: u64,
        fh: FileHandle,
        opener: ClientId,
        write: bool,
    ) {
        let conflicts = self
            .inner
            .table
            .borrow()
            .conflicting_delegations(fh, opener, write);
        // Boxed: a recall is the cold path (see `handle`).
        match conflicts.as_slice() {
            [] => {}
            [d] => Box::pin(self.recall_one(parent, fh, *d)).await,
            many => {
                let jobs = many.iter().map(|&d| {
                    let this = self.clone();
                    async move { this.recall_one(parent, fh, d).await }
                });
                Box::pin(self.spawn_all(jobs)).await;
            }
        }
    }

    /// Decides whether the open that just completed earns a delegation;
    /// if so, records the grant and returns it for piggybacking on the
    /// open reply. The only protocol code that reads the delegation
    /// switch: clients hold only what this grants.
    pub(super) fn maybe_grant(
        &self,
        parent: u64,
        fh: FileHandle,
        client: ClientId,
        write: bool,
    ) -> Option<spritely_proto::Delegation> {
        if !self.inner.delegation.enabled {
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
        bump(&self.inner.deleg_stats, |s| {
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
    pub(super) fn deleg_return(
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
            bump(&self.inner.deleg_stats, |s| s.returns += 1);
        }
        let version = applied
            .or_else(|| self.inner.table.borrow().version_of(fh))
            .unwrap_or(FileVersion(0));
        // This return resolves any recall of `fh` against the holder; with
        // none of its other files recalled, the reply renews its lease as
        // a keepalive's epoch would.
        let renews = !fenced && !self.recalled(client, Some(fh));
        NfsReply::DelegReturned {
            version,
            fenced,
            renews,
        }
    }
}
