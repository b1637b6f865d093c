//! Delayed write-back: dirty blocks evicted under cache pressure, the
//! write-behind pool that flushes planned runs, and the update daemon.

use std::cell::Cell;
use std::rc::Rc;

use spritely_localfs::{DirtyRun, DirtyVictim};
use spritely_nfs::base::Key;
use spritely_proto::{FileHandle, NfsReply, NfsRequest, NfsStatus, Payload, Result, BLOCK_SIZE};
use spritely_trace::EventKind;

use super::SnfsClient;

impl SnfsClient {
    /// Routes a dirty block evicted under cache pressure through the
    /// write-behind pool. The write-back enters the ledger before any await
    /// (once the block has left the cache that entry is the only thing that
    /// makes `writeback_file` wait for its data);
    /// the slot acquisition is the evicting task's backpressure, and the
    /// RPC itself proceeds in the background. A failure is counted and
    /// recorded against the file, to surface from its next
    /// `writeback_file`/`fsync`.
    pub(super) async fn write_back_victim(&self, v: DirtyVictim<Key>) {
        let (fh, lblk) = v.key;
        self.writes().begin(fh);
        let slot = self.inner.flush_slots.acquire().await;
        let this = self.clone();
        self.sim().spawn(async move {
            let _slot = slot;
            let _permit = this.inner.flush_inflight.acquire().await;
            // The file may have been removed while this write-back sat in
            // the queue; its data is unreachable, so the write is
            // cancelled like any other delayed write of a deleted file
            // (§4.2.3) rather than resurrecting it on the server.
            let err = if this.inner.removed.borrow().contains(&fh) {
                this.bump_stats(|s| s.cancelled_blocks += 1);
                this.emit(
                    0,
                    EventKind::WriteCancel {
                        client: this.inner.id,
                        fh,
                        from_blk: 0,
                        blocks: 1,
                    },
                );
                None
            } else {
                this.write_back_rpc(fh, lblk, v.data.into(), 1, 0)
                    .await
                    .err()
            };
            this.writes().finish(fh, err);
        });
    }

    /// Sends one write-back RPC covering `blocks` blocks starting at
    /// logical block `start`. Bumps the gather histogram, the in-flight
    /// gauge, and the written-back / failure counters.
    async fn write_back_rpc(
        &self,
        fh: FileHandle,
        start: u64,
        data: Payload,
        blocks: u64,
        parent: u64,
    ) -> Result<()> {
        self.inner.gather_hist.record(blocks);
        self.inner.inflight_gauge.inc();
        let make = || NfsRequest::Write {
            fh,
            offset: start * BLOCK_SIZE as u64,
            data: data.clone(),
        };
        let res = self.call_bg(parent, make).await;
        self.inner.inflight_gauge.dec();
        match res.and_then(NfsReply::into_attr) {
            Ok(_) => {
                self.bump_stats(|s| s.written_back_blocks += blocks);
                Ok(())
            }
            Err(e) => {
                // The blocks stay dirty and will be retried: they are not
                // written back, only failed.
                self.bump_stats(|s| s.writeback_failures += 1);
                Err(e)
            }
        }
    }

    /// Issues one planned run: re-extracts the blocks at issue time
    /// (they may have gone clean, been rewritten, or vanished since
    /// planning) and sends one gathered `write` RPC per contiguous
    /// segment, marking blocks clean as each RPC lands. Stops at the
    /// first failed segment; its blocks (and the rest of the run) stay
    /// dirty for a later retry.
    async fn flush_one_run(&self, fh: FileHandle, run: DirtyRun, parent: u64) -> Result<()> {
        let gathered = self.cache().gather_run(fh, run, BLOCK_SIZE);
        for gw in gathered {
            let blocks = gw.seqs.len() as u64;
            self.write_back_rpc(fh, gw.start, gw.data, blocks, parent)
                .await?;
            let mut cache = self.cache_mut();
            for (blk, seq) in gw.seqs {
                cache.mark_clean(&(fh, blk), seq);
            }
        }
        Ok(())
    }

    /// Pushes planned runs through the write-behind pool: each run takes
    /// a pool slot *in plan order* (the semaphore is FIFO-fair), then a
    /// daemon task gathers and sends it with at most
    /// [`WriteBehindParams::max_inflight`] RPCs in flight. With
    /// `stop_on_err`, runs not yet issued when an error lands are
    /// abandoned — their blocks stay dirty — which with the paper-mode
    /// defaults (one block per RPC, one RPC in flight) reproduces the
    /// serial flush exactly.
    async fn flush_runs(
        &self,
        fh: FileHandle,
        runs: Vec<DirtyRun>,
        stop_on_err: bool,
        parent: u64,
    ) -> Result<()> {
        let failed: Rc<Cell<Option<NfsStatus>>> = Rc::new(Cell::new(None));
        let mut daemons = Vec::with_capacity(runs.len());
        for run in runs {
            if stop_on_err && failed.get().is_some() {
                break;
            }
            let slot = self.inner.flush_slots.acquire().await;
            let this = self.clone();
            let failed = failed.clone();
            daemons.push(self.sim().spawn(async move {
                let _slot = slot;
                let _permit = this.inner.flush_inflight.acquire().await;
                if stop_on_err && failed.get().is_some() {
                    return;
                }
                if let Err(e) = this.flush_one_run(fh, run, parent).await {
                    if failed.get().is_none() {
                        failed.set(Some(e));
                    }
                }
            }));
        }
        for d in daemons {
            d.await;
        }
        match failed.get() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flushes runs without touching the pool's slots or permits: one
    /// gathered RPC at a time, awaited inline. The callback service uses
    /// this path so a server-induced write-back can never queue behind
    /// unrelated background flushes — the client-side mirror of the
    /// server's N−1 reserved-thread rule (§3.2). A shared permit would
    /// let the callback handler block on an in-flight RPC that is itself
    /// stuck at the server behind the very open awaiting this callback,
    /// closing a cross-machine deadlock cycle.
    async fn flush_runs_direct(
        &self,
        fh: FileHandle,
        runs: Vec<DirtyRun>,
        parent: u64,
    ) -> Result<()> {
        for run in runs {
            self.flush_one_run(fh, run, parent).await?;
        }
        Ok(())
    }

    /// Writes back all of `fh`'s dirty blocks: waits out any in-flight
    /// eviction write-backs (so "done" really means the server has the
    /// data), then flushes the resident dirty runs. An error recorded by
    /// a background eviction is surfaced here, like a classic delayed
    /// write error reported at the next fsync/close.
    pub(super) async fn writeback_file_via(
        &self,
        fh: FileHandle,
        use_pool: bool,
        parent: u64,
    ) -> Result<()> {
        let flush_seq = self.emit(
            parent,
            EventKind::FlushBegin {
                client: self.inner.id,
                fh,
                direct: !use_pool,
            },
        );
        self.wait_writes(fh).await;
        let evict_err = self.writes().take_error(fh);
        let gather = self.inner.params.write_behind.gather_blocks;
        let runs = self.cache().dirty_runs(fh, gather, BLOCK_SIZE);
        let res = if use_pool {
            self.flush_runs(fh, runs, true, flush_seq).await
        } else {
            self.flush_runs_direct(fh, runs, flush_seq).await
        };
        let res = match evict_err {
            Some(e) => Err(e),
            None => res,
        };
        self.emit(
            flush_seq,
            EventKind::FlushEnd {
                client: self.inner.id,
                fh,
                ok: res.is_ok(),
            },
        );
        res
    }

    /// Writes back all of `fh`'s dirty blocks (used by fsync, open
    /// transitions, and the update daemon).
    pub async fn writeback_file(&self, fh: FileHandle) -> Result<()> {
        self.writeback_file_via(fh, true, 0).await
    }

    /// Flushes dirty blocks older than the write-delay (the update
    /// daemon's unit of work).
    pub async fn flush_aged(&self) {
        let now = self.sim().now();
        let min_age = self.inner.params.write_delay;
        let gather = self.inner.params.write_behind.gather_blocks;
        // Plan every file's runs up front from a single snapshot: blocks
        // that age past the delay *during* the flush wait for the next
        // daemon pass, exactly as with the serial flush.
        let plans: Vec<(FileHandle, Vec<DirtyRun>)> = {
            let cache = self.cache();
            let mut files: Vec<FileHandle> = cache
                .dirty_blocks()
                .into_iter()
                .filter(|&(_, t)| now.saturating_duration_since(t) >= min_age)
                .map(|((fh, _), _)| fh)
                .collect();
            files.sort_unstable();
            files.dedup();
            files
                .into_iter()
                .map(|fh| {
                    let runs = cache.dirty_runs_where(fh, gather, BLOCK_SIZE, |_, t| {
                        now.saturating_duration_since(t) >= min_age
                    });
                    (fh, runs)
                })
                .collect()
        };
        for (fh, runs) in plans {
            // Failures are counted in `writeback_failures`; the blocks
            // stay dirty and the next pass retries them.
            let _ = self.flush_runs(fh, runs, false, 0).await;
        }
    }

    /// Spawns the client's update daemon (periodic aged write-back),
    /// unless disabled by [`SnfsClientParams::update_interval`](super::SnfsClientParams::update_interval).
    pub fn spawn_update_daemon(&self) {
        let Some(interval) = self.inner.params.update_interval else {
            return;
        };
        let this = self.clone();
        let sim = self.sim().clone();
        self.sim().spawn(async move {
            loop {
                sim.sleep(interval).await;
                this.flush_aged().await;
            }
        });
    }
}
