//! Delayed write-back: dirty blocks evicted under cache pressure, the
//! write-behind pool that flushes planned runs, and the update daemon.
//! Every block leaves through the base's one ledgered send,
//! [`write_bg`](spritely_nfs::base::ClientBase::write_bg) (DESIGN.md §10).

use std::cell::Cell;
use std::rc::Rc;

use spritely_localfs::{DirtyRun, DirtyVictim};
use spritely_nfs::base::Key;
use spritely_proto::{FileHandle, NfsStatus, Result, BLOCK_SIZE};
use spritely_sim::SimDuration;
use spritely_trace::EventKind;

use super::SnfsClient;

/// The period of the client's update daemon (paper §4.2.3: 30 s).
const UPDATE_INTERVAL: SimDuration = SimDuration::from_secs(30);

impl SnfsClient {
    /// Routes a dirty block evicted under cache pressure through the
    /// write-behind pool. Its bytes are in no cache any more, so it enters
    /// the ledger before any await and a failure stays recorded there for
    /// the file's next [`writeback_file`](Self::writeback_file). Taking
    /// the pool's in-flight permit is the evicting task's backpressure;
    /// the RPC itself proceeds in the background, carrying the permit.
    pub(super) async fn write_back_victim(&self, v: DirtyVictim<Key>) {
        let (fh, lblk) = v.key;
        self.writes().begin(fh);
        let permit = self.inner.flush_slots.acquire().await;
        let this = self.clone();
        self.sim().spawn(async move {
            let _permit = permit;
            if !this.inner.removed.borrow().contains(&fh) {
                let offset = lblk * BLOCK_SIZE as u64;
                let _ = this.write_bg(fh, offset, v.data.into(), 0, true).await;
                return;
            }
            // The file was removed while this write-back sat in the queue;
            // its data is unreachable, so the write is cancelled like any
            // other delayed write of a deleted file (§4.2.3) rather than
            // resurrecting it on the server.
            this.cancelled(0, fh, 0, 1);
            this.writes().finish(fh, None);
        });
    }

    /// Issues one planned run: re-extracts the blocks at issue time
    /// (they may have gone clean, been rewritten, or vanished since
    /// planning) and sends one gathered `write` per contiguous segment,
    /// marking blocks clean as each lands. Stops at the first failed
    /// segment; its blocks (and the rest of the run) stay dirty for a
    /// later retry.
    async fn flush_one_run(&self, fh: FileHandle, run: DirtyRun, parent: u64) -> Result<()> {
        let gathered = self.cache().gather_run(fh, run, BLOCK_SIZE);
        for gw in gathered {
            let offset = gw.start * BLOCK_SIZE as u64;
            self.write_bg(fh, offset, gw.data, parent, false).await?;
            let mut cache = self.cache_mut();
            for (blk, seq) in gw.seqs {
                cache.mark_clean(&(fh, blk), seq);
            }
        }
        Ok(())
    }

    /// Pushes planned runs to the server. Through the pool, each run takes
    /// one of its
    /// [`WriteBehindParams::max_inflight`](super::WriteBehindParams::max_inflight)
    /// permits *in plan order* (the semaphore is FIFO-fair), then a daemon
    /// task carrying the permit gathers and sends it; with `stop_on_err`,
    /// runs not yet issued when an error lands are abandoned, their blocks
    /// left dirty. With the paper-mode defaults (one block per RPC, one in
    /// flight) that is the serial flush exactly.
    ///
    /// `direct` is the callback service's policy: one run at a time,
    /// awaited inline, with no permit, stopping at the first error. A
    /// server-induced write-back then never queues behind unrelated
    /// background flushes — the client-side mirror of the server's N−1
    /// reserved-thread rule (§3.2). A shared permit would let the callback
    /// handler block on an RPC that is itself stuck at the server behind
    /// the very open awaiting this callback, closing a cross-machine
    /// deadlock cycle.
    async fn flush_runs(
        &self,
        fh: FileHandle,
        runs: Vec<DirtyRun>,
        direct: bool,
        stop_on_err: bool,
        parent: u64,
    ) -> Result<()> {
        if direct {
            for run in runs {
                // Boxed: inline, a run's RPC state would grow this future
                // sixfold, and the update daemon's task holds one for good.
                Box::pin(self.flush_one_run(fh, run, parent)).await?;
            }
            return Ok(());
        }
        let failed: Rc<Cell<Option<NfsStatus>>> = Rc::new(Cell::new(None));
        let mut daemons = Vec::with_capacity(runs.len());
        for run in runs {
            if stop_on_err && failed.get().is_some() {
                break;
            }
            let permit = self.inner.flush_slots.acquire().await;
            let this = self.clone();
            let failed = failed.clone();
            daemons.push(self.sim().spawn(async move {
                let _permit = permit;
                if stop_on_err && failed.get().is_some() {
                    return;
                }
                if let Err(e) = this.flush_one_run(fh, run, parent).await {
                    failed.set(failed.get().or(Some(e)));
                }
            }));
        }
        for d in daemons {
            d.await;
        }
        failed.get().map_or(Ok(()), Err)
    }

    /// Writes back all of `fh`'s dirty blocks and reports the file clean,
    /// for `fsync`, open transitions, callbacks, recalls and cold boot:
    /// `Ok` means the server has every byte written so far. Waits out the
    /// file's background writes already on the wire, flushes the resident
    /// dirty runs (`direct`ly for callbacks and recalls, see
    /// [`flush_runs`](Self::flush_runs)), then waits the ledger out again,
    /// for runs another flush issued meanwhile. An evicted block's failure
    /// is reported here, like a classic delayed write error at the next
    /// fsync/close.
    pub(super) async fn writeback_file(
        &self,
        fh: FileHandle,
        direct: bool,
        parent: u64,
    ) -> Result<()> {
        let client = self.inner.id;
        let flush_seq = self.emit(parent, EventKind::FlushBegin { client, fh, direct });
        self.wait_writes(fh).await;
        let gather = self.inner.write_behind.gather_blocks;
        let runs = self.cache().dirty_runs(fh, gather, BLOCK_SIZE);
        let res = self.flush_runs(fh, runs, direct, true, flush_seq).await;
        self.wait_writes(fh).await;
        // An evicted block's failure outranks the runs' outcome.
        let res = self.writes().take_error(fh).map_or(res, Err);
        let ok = res.is_ok();
        self.emit(flush_seq, EventKind::FlushEnd { client, fh, ok });
        res
    }

    /// Flushes dirty blocks older than the write-delay (the update
    /// daemon's unit of work).
    pub async fn flush_aged(&self) {
        let now = self.sim().now();
        let min_age = self.params().write_delay;
        let gather = self.inner.write_behind.gather_blocks;
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
            let _ = self.flush_runs(fh, runs, false, false, 0).await;
        }
    }

    /// Spawns the client's update daemon: an aged write-back every 30 s.
    /// Not spawning it is the paper's "infinite write-delay" (Table 5-5).
    pub fn spawn_update_daemon(&self) {
        let this = self.clone();
        let sim = self.sim().clone();
        self.sim().spawn(async move {
            loop {
                sim.sleep(UPDATE_INTERVAL).await;
                this.flush_aged().await;
            }
        });
    }
}
