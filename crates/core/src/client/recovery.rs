//! Crash recovery (§2.4): the keepalive probe, re-registration with a
//! rebooted server, and what a lapsed delegation lease voids.

use spritely_nfs::base::status_of;
use spritely_proto::{FileHandle, NfsReply, NfsRequest, NfsStatus, Result};
use spritely_trace::EventKind;

use super::SnfsClient;
use crate::delegation::KEEPALIVE_INTERVAL;

impl SnfsClient {
    /// Builds this client's recovery report: every file it has open (or
    /// pending-closed) plus every file it holds cached or dirty blocks
    /// for.
    fn recovery_report(&self) -> Vec<spritely_proto::RecoveredFile> {
        let files = self.inner.files.borrow();
        let cache = self.cache();
        let mut report: Vec<spritely_proto::RecoveredFile> = files
            .iter()
            .filter_map(|(&fh, info)| {
                let (pr, pw) = info.pending_close.unwrap_or((0, 0));
                let readers = info.readers + pr;
                let writers = info.writers + pw;
                let dirty = cache
                    .keys_matching(|k| k.0 == fh)
                    .iter()
                    .any(|k| cache.is_dirty(k));
                if readers == 0 && writers == 0 && info.cached_version.is_none() && !dirty {
                    return None;
                }
                Some(spritely_proto::RecoveredFile {
                    fh,
                    readers,
                    writers,
                    cached_version: info.cached_version,
                    dirty,
                })
            })
            .collect();
        report.sort_unstable_by_key(|f| f.fh);
        report
    }

    /// Discards every held delegation: either the server rebooted (its
    /// delegation state is gone and ours is void, DESIGN.md §17.4) or
    /// our lease lapsed (the server may have fenced us, §17.3). Each
    /// discard is announced as a revoked return, which is what tells the
    /// trace checker this client's authority ended here.
    ///
    /// `purge` additionally drops each file's cached blocks and version:
    /// a lease-lapse discard must assume other clients have written
    /// since we were fenced, so nothing cached under the delegation can
    /// be trusted. A file that loses dirty blocks so is poisoned: its next
    /// `fsync` reports `Io`, never OK. Reboot recovery passes `false` —
    /// the recovery report re-registers the cache (dirty claims included)
    /// and the server restores it (§2.4).
    fn discard_delegations(&self, purge: bool) {
        let mut fhs: Vec<FileHandle> = {
            let mut delegs = self.inner.delegs.borrow_mut();
            let fhs = delegs.keys().copied().collect();
            delegs.clear();
            fhs
        };
        fhs.sort_unstable();
        for fh in fhs {
            if purge {
                if self.invalidate(0, fh).dirty > 0 {
                    self.writes().lose(fh, NfsStatus::Io);
                }
                if let Some(info) = self.inner.files.borrow_mut().get_mut(&fh) {
                    info.cached_version = None;
                }
            }
            self.emit(
                0,
                EventKind::DelegReturn {
                    client: self.inner.id,
                    fh,
                    revoked: true,
                },
            );
        }
    }

    /// Re-registers this client's state with a rebooted server. Returns
    /// the server epoch acknowledged.
    pub async fn recover(&self) -> Result<u64> {
        self.discard_delegations(false);
        let files = self.recovery_report();
        let client = self.inner.id;
        match self.call(0, NfsRequest::Recover { client, files }).await? {
            NfsReply::Epoch(e) => {
                self.inner.known_epoch.set(e);
                self.inner.last_contact.set(self.sim().now());
                self.bump_stats(|s| s.recoveries += 1);
                Ok(e)
            }
            _ => Err(NfsStatus::Io),
        }
    }

    /// One keepalive probe: learns the server epoch and triggers
    /// [`recover`](Self::recover) when it changes (i.e. the server
    /// rebooted since we last spoke to it).
    pub async fn keepalive(&self) -> Result<u64> {
        // Not through the base's `call`: the server answers `Grace` to
        // withhold a lease renewal (§17.3), and the daemon's next probe is
        // the retry.
        let client = self.inner.id;
        let rep = self.caller().call(NfsRequest::Keepalive { client }).await;
        let rep = rep.map_err(status_of)?.into_result()?;
        let epoch = match rep {
            NfsReply::Epoch(e) => e,
            _ => return Err(NfsStatus::Io),
        };
        // A lapsed lease cannot be resurrected (DESIGN.md §17.3): while
        // we were out of contact the server may have recalled, timed out
        // and fenced anything we hold, so the records — and the cache
        // under them — are untrustworthy. Purge before renewing the
        // anchor; later opens re-earn delegations over RPC.
        if !self.lease_fresh() && !self.inner.delegs.borrow().is_empty() {
            self.discard_delegations(true);
        }
        // Lease anchor (DESIGN.md §17.3): this reply crossed the same
        // server→client path a recall callback would, so as of now no
        // recall can have been lost to a partition we haven't noticed.
        self.inner.last_contact.set(self.sim().now());
        let known = self.inner.known_epoch.get();
        if known == 0 {
            // First contact: just remember it.
            self.inner.known_epoch.set(epoch);
        } else if epoch != known {
            // The server rebooted: re-register everything we know.
            self.recover().await?;
        }
        Ok(epoch)
    }

    /// Spawns the keepalive daemon (paper §2.4: "periodic 'keepalive'
    /// packets ... detect when a client or server has crashed or
    /// rebooted"). Probes every [`KEEPALIVE_INTERVAL`]; failures are
    /// tolerated (the server may simply be down — the next probe will find
    /// it again).
    pub fn spawn_keepalive_daemon(&self) {
        let this = self.clone();
        let sim = self.sim().clone();
        self.sim().spawn(async move {
            loop {
                sim.sleep(KEEPALIVE_INTERVAL).await;
                let _ = this.keepalive().await;
            }
        });
    }
}
