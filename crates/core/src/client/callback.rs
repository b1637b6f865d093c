//! The callback service (paper §3.2, §4.2.2): write-back and invalidate
//! callbacks, delegation recalls and the `DelegReturn` they end in.

use spritely_metrics::OpCounter;
use spritely_proto::{CallbackArg, ClientId, FileHandle, NfsReply, NfsRequest, NfsStatus, Result};
use spritely_rpcnet::{Endpoint, EndpointParams, Handler};
use spritely_sim::{Event, Resource};
use spritely_trace::EventKind;

use super::{CbGuard, SnfsClient};

/// A client's callback service: the `Handler` behind its callback
/// endpoint.
pub(crate) struct CallbackService(pub(crate) SnfsClient);

impl Handler for CallbackService {
    async fn serve(&self, _from: ClientId, ctx: u64, req: NfsRequest) -> NfsReply {
        match req {
            NfsRequest::Callback(arg) => match self.0.serve_callback(ctx, arg).await {
                Ok(()) => NfsReply::Ok,
                Err(e) => NfsReply::Err(e),
            },
            _ => NfsReply::Err(NfsStatus::Inval),
        }
    }
}

impl SnfsClient {
    /// Builds the client's callback-service endpoint (the server calls
    /// this; paper §4.2.2 reuses the NFS server machinery for it). It
    /// serves the one procedure a server calls, `callback`, and answers
    /// any other `Inval`.
    pub fn callback_endpoint(
        &self,
        name: impl Into<String>,
        cpu: Resource,
        params: EndpointParams,
        counter: OpCounter,
    ) -> Endpoint {
        let service = CallbackService(self.clone());
        Endpoint::new(self.sim(), name, cpu, params, counter, service)
    }

    /// Services one callback (paper §3.2): write back and/or invalidate,
    /// not returning until requested write-backs are complete. `Err(Io)`
    /// when it could not do what was asked, which the server treats as a
    /// crashed client.
    async fn serve_callback(&self, ctx: u64, arg: CallbackArg) -> Result<()> {
        // Duplicate-delivery guard: a duplicated network delivery (or a
        // server retransmission racing its own first attempt) of the same
        // logical callback must not invalidate or write back twice. The
        // server assigns one `seq` per logical callback, stable across
        // its retransmissions; the first delivery runs the work (no
        // added awaits), duplicates wait for it and echo its reply.
        loop {
            let wait = {
                let mut seen = self.inner.cb_seen.borrow_mut();
                match seen.get_mut(&arg.seq) {
                    Some(CbGuard::Done(rep)) => {
                        let rep = *rep;
                        drop(seen);
                        self.inner.cb_dupes.set(self.inner.cb_dupes.get() + 1);
                        return rep;
                    }
                    Some(CbGuard::InProgress(waiters)) => {
                        self.inner.cb_dupes.set(self.inner.cb_dupes.get() + 1);
                        waiters.get_or_insert_with(Event::new).clone()
                    }
                    None => {
                        seen.insert(arg.seq, CbGuard::InProgress(None));
                        break;
                    }
                }
            };
            wait.wait().await;
        }
        let rep = self.serve_callback_work(ctx, arg).await;
        let mut seen = self.inner.cb_seen.borrow_mut();
        if let Some(CbGuard::InProgress(Some(ev))) = seen.insert(arg.seq, CbGuard::Done(rep)) {
            ev.set();
        }
        // Bound the memory: completed entries older than the last 128
        // sequence numbers can no longer be retransmitted (the server
        // moved on long ago).
        while seen.len() > 128 {
            let oldest_done = seen
                .iter()
                .filter(|(_, g)| matches!(g, CbGuard::Done(_)))
                .map(|(&s, _)| s)
                .min();
            match oldest_done {
                Some(s) => seen.remove(&s),
                None => break,
            };
        }
        rep
    }

    async fn serve_callback_work(&self, ctx: u64, arg: CallbackArg) -> Result<()> {
        self.bump_stats(|s| s.callbacks_served += 1);
        if arg.recall {
            return self.serve_recall(ctx, arg.fh).await;
        }
        let fh = arg.fh;
        // Bypass the pool: a callback-induced write-back must not share
        // in-flight permits with unrelated background flushes (see
        // flush_runs).
        if arg.writeback && self.writeback_file(fh, true, ctx).await.is_err() {
            return Err(NfsStatus::Io);
        }
        if arg.invalidate {
            let dropped = self.invalidate(ctx, fh);
            debug_assert_eq!(dropped.dirty, 0, "writeback should have preceded");
            // If `fh` is a directory this drops our name translations
            // under it (§7 extension); for files it is a no-op.
            self.names().drop_dir(fh);
            let mut files = self.inner.files.borrow_mut();
            if let Some(info) = files.get_mut(&fh) {
                info.cached_version = None;
                if info.readers > 0 || info.writers > 0 {
                    info.cacheable = false;
                }
            }
        }
        Ok(())
    }

    /// Services a delegation recall (DESIGN.md §17.2): stop serving
    /// locally, flush dirty data, send the batch `DelegReturn` RPC, and
    /// only then acknowledge the callback — so an `Ok` reply proves the
    /// server has the returned state. Idempotent: a delivery for a
    /// delegation already returned (or never held) just acks.
    async fn serve_recall(&self, ctx: u64, fh: FileHandle) -> Result<()> {
        let first = {
            let mut delegs = self.inner.delegs.borrow_mut();
            match delegs.get_mut(&fh) {
                None => None,
                Some(d) if d.recalled => Some(false),
                Some(d) => {
                    d.recalled = true;
                    Some(true)
                }
            }
        };
        match first {
            // Nothing held: a late or duplicated delivery. Ack.
            None => Ok(()),
            // A return is already under way (a second conflicting open
            // recalled concurrently): wait for it, then ack.
            Some(false) => {
                self.wait_deleg_return(fh).await;
                Ok(())
            }
            Some(true) => {
                // Gate opens/closes *before* the first await, so the
                // counts the return reports stay the file's truth until
                // the server applies them.
                let done = Event::new();
                self.inner
                    .deleg_returning
                    .borrow_mut()
                    .insert(fh, done.clone());
                self.emit(
                    ctx,
                    EventKind::DelegRecall {
                        client: self.inner.id,
                        fh,
                    },
                );
                let res = self.do_deleg_return(ctx, fh).await;
                self.inner.delegs.borrow_mut().remove(&fh);
                self.inner.deleg_returning.borrow_mut().remove(&fh);
                done.set();
                res.map_err(|_| NfsStatus::Io)
            }
        }
    }

    /// Flushes dirty data and returns the delegation's batched state to
    /// the server. Uses the direct (pool-bypassing) flush path for the
    /// same reason write-back callbacks do: the conflicting opener is
    /// blocked on us, and our flush must not queue behind unrelated
    /// background traffic.
    pub(super) async fn do_deleg_return(&self, ctx: u64, fh: FileHandle) -> Result<()> {
        self.writeback_file(fh, true, ctx).await?;
        let (readers, writers, wrote) = {
            let files = self.inner.files.borrow();
            let (r, w) = files.get(&fh).map_or((0, 0), |i| (i.readers, i.writers));
            let wrote = self.inner.delegs.borrow().get(&fh).is_some_and(|d| d.wrote);
            (r, w, wrote)
        };
        let req = NfsRequest::DelegReturn {
            fh,
            client: self.inner.id,
            readers,
            writers,
            wrote,
        };
        match self.call(ctx, req).await? {
            NfsReply::DelegReturned {
                version,
                fenced,
                renews,
            } => {
                // Like a keepalive's epoch, this reply crossed the path a
                // recall travels with no recall against us unresolved, so
                // it extends a live lease (DESIGN.md §17.3). A lapsed one
                // is left for the keepalive that purges it.
                if renews && self.lease_fresh() {
                    self.inner.last_contact.set(self.sim().now());
                }
                let mut files = self.inner.files.borrow_mut();
                if let Some(info) = files.get_mut(&fh) {
                    if fenced {
                        // We were revoked: the server discarded our
                        // batched state and may have marked the file
                        // inconsistent. Purge and revalidate on the next
                        // open.
                        info.cached_version = None;
                    } else if info.cached_version.is_some() {
                        // Our own return bumped the version (if we
                        // wrote); the cache is that version's content.
                        info.cached_version = Some(version);
                    }
                }
                drop(files);
                if fenced {
                    self.invalidate(ctx, fh);
                }
                Ok(())
            }
            _ => Err(NfsStatus::Io),
        }
    }
}
