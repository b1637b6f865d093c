//! The Nagle-style batching queue behind a caller's background traffic
//! (DESIGN.md §13, §22): it decides *when* parked requests leave and with
//! whom; the exchange they then share is [`Link::exchange`].

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use spritely_proto::{NfsReply, NfsRequest};
use spritely_sim::{Event, SimDuration};

use crate::caller::{Link, Member};

/// One request parked in a caller's batch queue, with the slot its
/// reply will be delivered through.
struct BatchEntry {
    member: Member<NfsRequest>,
    slot: Rc<RefCell<Option<NfsReply>>>,
    done: Event,
}

/// The Nagle-style batching queue behind a caller (present only when
/// `TransportParams::max_batch > 1`), used by background traffic only:
/// foreground calls keep the unbatched wire path, so they are never
/// delayed and never wait behind a compound's slowest member. A
/// background request with no batch in flight is sent at once (a lone
/// call pays no extra latency); while a batch is outstanding, followers
/// park here and flush as one compound when the outstanding batch
/// completes, `max_batch` accumulate, or the `batch_window` safety
/// deadline fires. Each flush pays one wire exchange for the whole batch.
pub(crate) struct Batcher {
    link: Rc<Link>,
    max_batch: usize,
    window: SimDuration,
    queue: RefCell<Vec<BatchEntry>>,
    window_armed: Cell<bool>,
    inflight: Cell<usize>,
    next_id: Cell<u64>,
}

impl Batcher {
    pub(crate) fn new(link: &Rc<Link>, max_batch: usize, window: SimDuration) -> Rc<Self> {
        Rc::new(Batcher {
            link: Rc::clone(link),
            max_batch,
            window,
            queue: RefCell::new(Vec::new()),
            window_armed: Cell::new(false),
            inflight: Cell::new(0),
            next_id: Cell::new(0),
        })
    }

    /// Parks one background request until a flush has carried it to the
    /// endpoint and back. Hangs when that flush is lost; the caller's
    /// timeout drops the wait and parks the retransmission afresh.
    pub(crate) async fn call(self: &Rc<Self>, member: Member<NfsRequest>) -> NfsReply {
        let slot = Rc::new(RefCell::new(None));
        let done = Event::new();
        let len = {
            let mut q = self.queue.borrow_mut();
            q.push(BatchEntry {
                member,
                slot: Rc::clone(&slot),
                done: done.clone(),
            });
            q.len()
        };
        if len >= self.max_batch || self.inflight.get() == 0 {
            // Full batch, or nothing outstanding (Nagle: an idle caller
            // sends immediately instead of holding a lone request for
            // the window).
            self.flush_now();
        } else if !self.window_armed.get() {
            self.window_armed.set(true);
            let b = Rc::clone(self);
            self.link.sim.spawn(async move {
                b.link.sim.sleep(b.window).await;
                b.window_armed.set(false);
                b.flush_now();
            });
        }
        done.wait().await;
        let rep = slot.borrow_mut().take();
        rep.expect("flush fills the slot before signalling")
    }

    /// Flushes whatever has accumulated (no-op on an empty queue). The
    /// queue is partitioned by procedure — reads compound with reads,
    /// writes with writes — because a compound's reply waits for its
    /// slowest member: mixing a cached read into a disk write's batch
    /// would hand the read the write's latency.
    pub(crate) fn flush_now(self: &Rc<Self>) {
        let mut batch = std::mem::take(&mut *self.queue.borrow_mut());
        // One pass and one `Vec` for a queue of one procedure, which is
        // the usual queue (the empty remainder allocates nothing).
        while let Some(first) = batch.first() {
            let pid = first.member.req.proc_id();
            let (group, rest) = batch
                .into_iter()
                .partition(|e| e.member.req.proc_id() == pid);
            self.spawn_flush(group);
            batch = rest;
        }
    }

    /// One flush: a detached task that pays one wire exchange for the
    /// whole batch, hands each member its reply, and, once the last
    /// outstanding flush drains, ack-clocks the next batch out.
    fn spawn_flush(self: &Rc<Self>, batch: Vec<BatchEntry>) {
        self.inflight.set(self.inflight.get() + 1);
        let b = Rc::clone(self);
        self.link.sim.spawn(async move {
            let id = b.next_id.get();
            b.next_id.set(id + 1);
            let members: Vec<_> = batch.iter().map(|e| e.member.on_the_wire()).collect();
            if let Some(s) = b.link.tstats.borrow().as_ref() {
                s.batch_sizes.record(members.len() as u64);
                // Every request after the first rides along: one saved
                // round trip each, attributed to its procedure.
                for m in members.iter().skip(1) {
                    s.saved.record(m.req.proc_id());
                }
            }
            // A lost exchange fills no slot: every member's timeout fires
            // and its retransmission parks afresh.
            if let Some(rep) = b.link.exchange(&members, Some(id)).await {
                for (e, rep) in batch.iter().zip(rep.into_parts()) {
                    *e.slot.borrow_mut() = Some(rep);
                    e.done.set();
                }
            }
            b.inflight.set(b.inflight.get() - 1);
            if b.inflight.get() == 0 {
                b.flush_now();
            }
        });
    }
}
