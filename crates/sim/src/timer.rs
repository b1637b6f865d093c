//! Cancel-aware timer queue: an indexed binary min-heap over a slab of
//! timer entries.
//!
//! The executor's original timer structure was a `BinaryHeap<TimerEntry>`
//! with no removal: a `Sleep` that was dropped before its deadline (a
//! timeout that lost its race, an abandoned retransmission guard) left a
//! *stale* entry behind, which the executor later popped, fired into a
//! task that no longer cared, and paid for with a spurious poll. Under
//! retransmission-heavy workloads those entries dominated the heap.
//!
//! This structure keeps every live entry in a slab (`slots` + free list,
//! generational ids) and maintains a binary min-heap of slot indices
//! ordered by `(deadline, seq)` — `seq` is a registration counter, so
//! ties fire in registration order exactly as before. Each slot records
//! its heap position, which makes [`TimerQueue::cancel`] an O(log n)
//! swap-and-sift instead of impossible. Generational ids make a stale
//! cancel (the timer already fired and the slot was reused) a no-op.

use std::task::Waker;

use crate::time::SimTime;

/// Handle to a registered timer; survives the timer's firing (a cancel
/// with a stale generation is ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerId {
    index: u32,
    gen: u32,
}

struct TimerSlot {
    gen: u32,
    deadline: SimTime,
    /// Registration order; unique, so `(deadline, seq)` is a total order.
    seq: u64,
    /// `Some` while the entry is live (in the heap).
    waker: Option<Waker>,
    /// Position of this slot's index inside `heap`; meaningless when free.
    heap_pos: u32,
}

/// The executor's pending timers.
#[derive(Default)]
pub(crate) struct TimerQueue {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// Binary min-heap of slot indices, keyed by `(deadline, seq)`.
    heap: Vec<u32>,
    next_seq: u64,
    /// Live-entry high-water mark (memory-footprint proxy).
    peak_live: usize,
    cancels: u64,
}

impl TimerQueue {
    /// Number of live (registered, not yet fired or cancelled) timers.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// High-water mark of [`len`](Self::len).
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Count of entries removed by [`cancel`](Self::cancel).
    pub(crate) fn cancels(&self) -> u64 {
        self.cancels
    }

    fn key(&self, idx: u32) -> (SimTime, u64) {
        let s = &self.slots[idx as usize];
        (s.deadline, s.seq)
    }

    /// Registers a timer; the waker fires when the executor advances the
    /// clock to `deadline`.
    pub(crate) fn register(&mut self, deadline: SimTime, waker: Waker) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let index = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.deadline = deadline;
                s.seq = seq;
                s.waker = Some(waker);
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(TimerSlot {
                    gen: 0,
                    deadline,
                    seq,
                    waker: Some(waker),
                    heap_pos: 0,
                });
                i
            }
        };
        let pos = self.heap.len() as u32;
        self.slots[index as usize].heap_pos = pos;
        self.heap.push(index);
        self.sift_up(pos as usize);
        self.peak_live = self.peak_live.max(self.heap.len());
        TimerId {
            index,
            gen: self.slots[index as usize].gen,
        }
    }

    /// Removes a live entry; a stale id (already fired, cancelled, or the
    /// slot was reused) is a no-op. Returns true if an entry was removed.
    pub(crate) fn cancel(&mut self, id: TimerId) -> bool {
        let Some(slot) = self.slots.get(id.index as usize) else {
            return false;
        };
        if slot.gen != id.gen || slot.waker.is_none() {
            return false;
        }
        self.cancels += 1;
        self.remove_at(self.slots[id.index as usize].heap_pos as usize);
        true
    }

    /// Removes every live entry and hands back the wakers, so the caller
    /// can drop them outside its borrow. Not counted as cancels: the
    /// timers did not lose a race, the simulation ended.
    pub(crate) fn drain(&mut self) -> Vec<Waker> {
        let mut wakers = Vec::with_capacity(self.heap.len());
        for idx in std::mem::take(&mut self.heap) {
            let slot = &mut self.slots[idx as usize];
            wakers.extend(slot.waker.take());
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(idx);
        }
        wakers
    }

    /// Earliest pending deadline.
    pub(crate) fn peek_deadline(&self) -> Option<SimTime> {
        self.heap.first().map(|&i| self.slots[i as usize].deadline)
    }

    /// Pops the earliest entry if its deadline is exactly `t`, returning
    /// its waker. Entries with equal deadlines pop in registration order.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<Waker> {
        let &idx = self.heap.first()?;
        if self.slots[idx as usize].deadline != t {
            return None;
        }
        let waker = self.slots[idx as usize].waker.take();
        self.remove_at(0);
        // `remove_at` skips the waker bookkeeping; re-take it here.
        Some(waker.expect("live heap entry has a waker"))
    }

    /// Removes the heap entry at `pos` and frees its slot.
    fn remove_at(&mut self, pos: usize) {
        let idx = self.heap[pos];
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        self.heap.pop();
        if pos <= last && pos < self.heap.len() {
            let moved = self.heap[pos];
            self.slots[moved as usize].heap_pos = pos as u32;
            // The moved element may need to go either way.
            self.sift_down(pos);
            let new_pos = self.slots[moved as usize].heap_pos as usize;
            if new_pos == pos {
                self.sift_up(pos);
            }
        }
        let slot = &mut self.slots[idx as usize];
        slot.waker = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx);
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.key(self.heap[pos]) < self.key(self.heap[parent]) {
                self.heap.swap(pos, parent);
                self.slots[self.heap[pos] as usize].heap_pos = pos as u32;
                self.slots[self.heap[parent] as usize].heap_pos = parent as u32;
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let l = 2 * pos + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let mut child = l;
            if r < len && self.key(self.heap[r]) < self.key(self.heap[l]) {
                child = r;
            }
            if self.key(self.heap[child]) < self.key(self.heap[pos]) {
                self.heap.swap(pos, child);
                self.slots[self.heap[pos] as usize].heap_pos = pos as u32;
                self.slots[self.heap[child] as usize].heap_pos = child as u32;
                pos = child;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    struct CountWake(AtomicU64);
    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn waker() -> (Waker, Arc<CountWake>) {
        let c = Arc::new(CountWake(AtomicU64::new(0)));
        (Waker::from(Arc::clone(&c)), c)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_deadline_then_seq_order() {
        let mut q = TimerQueue::default();
        let deadlines = [30u64, 10, 20, 10, 30, 10];
        for &d in &deadlines {
            q.register(t(d), waker().0);
        }
        // All three t=10 entries pop before t=20, in registration order —
        // observable as: repeated pop_due(t(10)) yields exactly 3 wakers.
        assert_eq!(q.peek_deadline(), Some(t(10)));
        let mut n10 = 0;
        while q.pop_due(t(10)).is_some() {
            n10 += 1;
        }
        assert_eq!(n10, 3);
        assert_eq!(q.peek_deadline(), Some(t(20)));
        assert!(q.pop_due(t(20)).is_some());
        assert_eq!(q.peek_deadline(), Some(t(30)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn cancel_removes_and_stale_cancel_is_noop() {
        let mut q = TimerQueue::default();
        let a = q.register(t(5), waker().0);
        let b = q.register(t(1), waker().0);
        assert!(q.cancel(b), "live entry cancels");
        assert!(!q.cancel(b), "second cancel is a no-op");
        assert_eq!(q.peek_deadline(), Some(t(5)));
        assert!(q.pop_due(t(5)).is_some());
        assert!(!q.cancel(a), "fired entry cancels as a no-op");
        assert_eq!(q.len(), 0);
        assert_eq!(q.cancels(), 1);
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let mut q = TimerQueue::default();
        let a = q.register(t(1), waker().0);
        assert!(q.cancel(a));
        // The freed slot is reused with a new generation.
        let b = q.register(t(2), waker().0);
        assert!(!q.cancel(a), "old id must not cancel the new entry");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
    }

    #[test]
    fn interior_cancel_keeps_heap_order() {
        let mut q = TimerQueue::default();
        let ids: Vec<TimerId> = (0..50).map(|i| q.register(t(100 - i), waker().0)).collect();
        // Cancel every third entry.
        for id in ids.iter().skip(1).step_by(3) {
            assert!(q.cancel(*id));
        }
        let mut prev = SimTime::ZERO;
        while let Some(d) = q.peek_deadline() {
            assert!(d >= prev, "heap order violated");
            prev = d;
            assert!(q.pop_due(d).is_some());
        }
    }

    #[test]
    fn drain_empties_the_queue_and_stales_every_id() {
        let mut q = TimerQueue::default();
        let ids: Vec<TimerId> = (0..5).map(|i| q.register(t(i), waker().0)).collect();
        assert_eq!(q.drain().len(), 5);
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_deadline(), None);
        for id in ids {
            assert!(!q.cancel(id), "drained entry cancels as a no-op");
        }
        assert_eq!(q.cancels(), 0);
        // Slots are reusable afterwards.
        let id = q.register(t(9), waker().0);
        assert!(q.cancel(id));
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let mut q = TimerQueue::default();
        let ids: Vec<TimerId> = (0..8).map(|i| q.register(t(i), waker().0)).collect();
        for id in ids {
            q.cancel(id);
        }
        q.register(t(99), waker().0);
        assert_eq!(q.peak_live(), 8);
        assert_eq!(q.len(), 1);
    }
}
