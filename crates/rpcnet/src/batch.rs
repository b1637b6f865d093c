//! The Nagle-style batching queue behind a caller's background traffic
//! (DESIGN.md §13, §22): it decides *when* parked requests leave and with
//! whom; the exchange they then share is [`Link::exchange`].

use std::borrow::Borrow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::task::{Poll, Waker};

use spritely_proto::{NfsReply, NfsRequest};
use spritely_sim::SimDuration;

use crate::caller::{Link, Member};

/// The one allocation of a parked call, kept across its
/// retransmissions: its reply, and the waker of the attempt waiting for
/// it. Every flush that carries the call fills it, so the reply of any of
/// them answers the call, as an xid-matched reply does in real RPC.
#[derive(Default)]
pub(crate) struct ReplyCell {
    reply: Cell<Option<NfsReply>>,
    waker: Cell<Option<Waker>>,
}

/// A request parked in a caller's batch queue, with the cell its reply
/// will be delivered through.
struct Parked {
    req: NfsRequest,
    cell: Rc<ReplyCell>,
}

impl Borrow<NfsRequest> for Parked {
    fn borrow(&self) -> &NfsRequest {
        &self.req
    }
}

/// Nagle-style deadline: an underfull batch is flushed this long after
/// its first follower parked. It is the batcher's own safety net, not a
/// setting: while a batch is outstanding its ack is what usually flushes.
pub(crate) const BATCH_WINDOW: SimDuration = SimDuration::from_micros(1200);

/// The Nagle-style batching queue behind a caller, a field of its
/// [`Link`] (so a caller's clones park in one queue, and a caller costs no
/// allocation for it until a call parks), used by background traffic
/// only, and only when `TransportParams::max_batch > 1`: foreground calls
/// keep the unbatched wire path, so they are never delayed and never wait
/// behind a compound's slowest member. A background request with no batch
/// in flight is sent at once (a lone call pays no extra latency); while a
/// batch is outstanding, followers park here and flush as one compound
/// when the outstanding batch completes, `max_batch` accumulate, or the
/// [`BATCH_WINDOW`] safety deadline fires. Each flush pays one wire
/// exchange for the whole batch.
#[derive(Default)]
pub(crate) struct BatchQueue {
    queue: RefCell<Vec<Member<Parked>>>,
    window_armed: Cell<bool>,
    inflight: Cell<usize>,
    next_id: Cell<u64>,
}

impl Link {
    /// Parks one background request until a flush of it — this one or
    /// an earlier attempt's — has carried it to the endpoint and back into
    /// `cell`. Hangs while every such flush is lost or slow; the caller's
    /// timeout drops the wait and parks the retransmission on the same
    /// cell.
    pub(crate) async fn park(
        self: &Rc<Self>,
        member: &Member<&NfsRequest>,
        max_batch: usize,
        cell: &Rc<ReplyCell>,
    ) -> NfsReply {
        let (xid, parent, req) = (member.xid, member.parent, member.req.clone());
        let req = Parked {
            req,
            cell: Rc::clone(cell),
        };
        let b = &self.batch;
        let len = {
            let mut q = b.queue.borrow_mut();
            q.push(Member { xid, parent, req });
            q.len()
        };
        if len >= max_batch || b.inflight.get() == 0 {
            // Full batch, or nothing outstanding (Nagle: an idle caller
            // sends immediately instead of holding a lone request for
            // the window).
            self.flush_now();
        } else if !b.window_armed.get() {
            b.window_armed.set(true);
            let link = Rc::clone(self);
            self.sim.spawn(async move {
                link.sim.sleep(BATCH_WINDOW).await;
                link.batch.window_armed.set(false);
                link.flush_now();
            });
        }
        std::future::poll_fn(|cx| {
            cell.waker.set(Some(cx.waker().clone()));
            cell.reply.take().map_or(Poll::Pending, Poll::Ready)
        })
        .await
    }

    /// Flushes whatever has accumulated (no-op on an empty queue). The
    /// queue is partitioned by procedure — reads compound with reads,
    /// writes with writes — because a compound's reply waits for its
    /// slowest member: mixing a cached read into a disk write's batch
    /// would hand the read the write's latency. A lone member leaves the
    /// queue's `Vec` where it is, and a queue of one procedure is not
    /// partitioned.
    pub(crate) fn flush_now(self: &Rc<Self>) {
        let mut q = self.batch.queue.borrow_mut();
        let mut batch = match q.len() {
            0 => return,
            1 => return self.spawn_flush([q.pop().expect("one parked")]),
            _ => std::mem::take(&mut *q),
        };
        drop(q);
        loop {
            let pid = batch[0].req.req.proc_id();
            if batch.iter().all(|e| e.req.req.proc_id() == pid) {
                return self.spawn_flush(batch);
            }
            let (group, rest) = batch.into_iter().partition(|e| e.req.req.proc_id() == pid);
            self.spawn_flush::<Vec<_>>(group);
            batch = rest;
        }
    }

    /// One flush: a detached task that pays one wire exchange for the
    /// whole batch, hands each member its reply, and, once the last
    /// outstanding flush drains, ack-clocks the next batch out. Its task
    /// is all it allocates for a lone member.
    fn spawn_flush<B: AsRef<[Member<Parked>]> + 'static>(self: &Rc<Self>, batch: B) {
        let inflight = &self.batch.inflight;
        inflight.set(inflight.get() + 1);
        let link = Rc::clone(self);
        self.sim.spawn(async move {
            let b = &link.batch;
            let id = b.next_id.get();
            b.next_id.set(id + 1);
            let batch = batch.as_ref();
            if let Some(s) = link.tstats.borrow().as_ref() {
                s.batch_sizes.record(batch.len() as u64);
                // Every request after the first rides along: one saved
                // round trip each, attributed to its procedure.
                for m in batch.iter().skip(1) {
                    s.saved.record(m.req.req.proc_id());
                }
            }
            // A lost exchange fills no cell: every member's timeout fires
            // and its retransmission parks afresh.
            if let Some(rep) = link.exchange(batch, Some(id)).await {
                for (m, rep) in batch.iter().zip(rep.into_parts()) {
                    m.req.cell.reply.set(Some(rep));
                    if let Some(waker) = m.req.cell.waker.take() {
                        waker.wake();
                    }
                }
            }
            b.inflight.set(b.inflight.get() - 1);
            if b.inflight.get() == 0 {
                link.flush_now();
            }
        });
    }
}
