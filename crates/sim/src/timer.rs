//! Cancel-aware timer queue: a monotone radix heap over a slab of timer
//! entries.
//!
//! The executor's original timer structure was a `BinaryHeap<TimerEntry>`
//! with no removal: a `Sleep` that was dropped before its deadline (a
//! timeout that lost its race, an abandoned retransmission guard) left a
//! *stale* entry behind, which the executor later popped, fired into a
//! task that no longer cared, and paid for with a spurious poll. Under
//! retransmission-heavy workloads those entries dominated the heap.
//!
//! This structure keeps every live entry in a slab (`slots` + free list,
//! generational ids), and threads each one onto one of 65 buckets, an
//! intrusive doubly linked list through the slab. The clock never runs
//! backwards, so the queue is a monotone radix heap (Ahuja, Mehlhorn,
//! Orlin & Tarjan, JACM 1990): `last` is the earliest deadline still
//! due, bucket 0 holds the deadlines equal to it, and bucket `b > 0` the
//! deadlines whose highest bit differing from `last` is bit `b - 1`.
//! Register appends to a bucket's tail and cancel unlinks, both O(1),
//! with no comparison and no allocation. Only
//! [`peek_deadline`](TimerQueue::peek_deadline) compares: when bucket 0
//! is empty it *splits* the first non-empty bucket, making its earliest
//! deadline `last` and moving its entries, in list order, into the empty
//! buckets below it.
//!
//! Equal deadlines always share a bucket, and every list stays in
//! registration order (a register appends the newest entry; a split only
//! fills empty buckets, in order), so ties fire in registration order
//! without a sequence number. Generational ids make a stale cancel (the
//! timer already fired and the slot was reused) a no-op.

use std::task::Waker;

use crate::time::SimTime;

/// Handle to a registered timer; survives the timer's firing (a cancel
/// with a stale generation is ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerId {
    index: u32,
    gen: u32,
}

/// The end of a bucket list.
const NIL: u32 = u32::MAX;
/// Bucket 0 and one per bit of a deadline.
const BUCKETS: usize = 65;

struct TimerSlot {
    gen: u32,
    /// Neighbours in this slot's bucket list; meaningless when free.
    prev: u32,
    next: u32,
    deadline: SimTime,
    /// `Some` while the entry is live (in a bucket).
    waker: Option<Waker>,
}

/// The executor's pending timers.
pub(crate) struct TimerQueue {
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// First and last slot of each bucket's list, `NIL` when empty.
    head: [u32; BUCKETS],
    tail: [u32; BUCKETS],
    /// Bit `b` is set iff bucket `b` is non-empty.
    nonempty: u128,
    /// Every live deadline is at least this; bucket 0 holds those equal.
    last: SimTime,
    /// Live-entry high-water mark (memory-footprint proxy).
    peak_live: usize,
    cancels: u64,
}

impl Default for TimerQueue {
    fn default() -> Self {
        TimerQueue {
            slots: Vec::new(),
            free: Vec::new(),
            head: [NIL; BUCKETS],
            tail: [NIL; BUCKETS],
            nonempty: 0,
            last: SimTime::ZERO,
            peak_live: 0,
            cancels: 0,
        }
    }
}

impl TimerQueue {
    /// Number of live (registered, not yet fired or cancelled) timers.
    pub(crate) fn len(&self) -> usize {
        // A slot is either live, in a bucket, or on the free list.
        self.slots.len() - self.free.len()
    }

    /// High-water mark of [`len`](Self::len).
    pub(crate) fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Count of entries removed by [`cancel`](Self::cancel).
    pub(crate) fn cancels(&self) -> u64 {
        self.cancels
    }

    /// The bucket of `deadline`: one more than the highest bit in which
    /// it differs from `last`, 0 if equal.
    fn bucket(&self, deadline: SimTime) -> usize {
        let diff = deadline.as_micros() ^ self.last.as_micros();
        (u64::BITS - diff.leading_zeros()) as usize
    }

    /// Appends slot `idx` to its bucket's tail.
    fn push_back(&mut self, idx: u32) {
        let b = self.bucket(self.slots[idx as usize].deadline);
        let tail = self.tail[b];
        let slot = &mut self.slots[idx as usize];
        slot.prev = tail;
        slot.next = NIL;
        match tail {
            NIL => self.head[b] = idx,
            t => self.slots[t as usize].next = idx,
        }
        self.tail[b] = idx;
        self.nonempty |= 1 << b;
    }

    /// Unlinks live slot `idx` from its bucket, frees it and returns its
    /// waker.
    fn remove(&mut self, idx: u32) -> Waker {
        let b = self.bucket(self.slots[idx as usize].deadline);
        let slot = &mut self.slots[idx as usize];
        let (prev, next) = (slot.prev, slot.next);
        let waker = slot.waker.take().expect("a linked entry is live");
        slot.gen = slot.gen.wrapping_add(1);
        match prev {
            NIL => self.head[b] = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail[b] = prev,
            n => self.slots[n as usize].prev = prev,
        }
        if self.head[b] == NIL {
            self.nonempty &= !(1 << b);
        }
        self.free.push(idx);
        waker
    }

    /// Registers a timer; the waker fires when the executor advances the
    /// clock to `deadline`, which must not be before the last deadline
    /// [`peek_deadline`](Self::peek_deadline) returned.
    pub(crate) fn register(&mut self, deadline: SimTime, waker: Waker) -> TimerId {
        debug_assert!(deadline >= self.last, "timer before the queue's clock");
        let index = match self.free.pop() {
            Some(i) => {
                let s = &mut self.slots[i as usize];
                s.deadline = deadline;
                s.waker = Some(waker);
                i
            }
            None => {
                self.slots.push(TimerSlot {
                    gen: 0,
                    prev: NIL,
                    next: NIL,
                    deadline,
                    waker: Some(waker),
                });
                self.slots.len() as u32 - 1
            }
        };
        self.push_back(index);
        self.peak_live = self.peak_live.max(self.len());
        TimerId {
            index,
            gen: self.slots[index as usize].gen,
        }
    }

    /// Removes a live entry; a stale id (already fired, cancelled, or the
    /// slot was reused) is a no-op. Returns true if an entry was removed.
    pub(crate) fn cancel(&mut self, id: TimerId) -> bool {
        match self.slots.get(id.index as usize) {
            Some(s) if s.gen == id.gen && s.waker.is_some() => {
                self.cancels += 1;
                self.remove(id.index);
                true
            }
            _ => false,
        }
    }

    /// Removes every live entry and hands back the wakers, so the caller
    /// can drop them outside its borrow. Not counted as cancels: the
    /// timers did not lose a race, the simulation ended.
    pub(crate) fn drain(&mut self) -> Vec<Waker> {
        let mut wakers = Vec::with_capacity(self.len());
        while self.nonempty != 0 {
            let b = self.nonempty.trailing_zeros() as usize;
            wakers.push(self.remove(self.head[b]));
        }
        wakers
    }

    /// Earliest pending deadline. When no entry is due at `last`, splits
    /// the first non-empty bucket: its earliest deadline becomes `last`,
    /// and its entries move, in list order, to the empty buckets below.
    pub(crate) fn peek_deadline(&mut self) -> Option<SimTime> {
        if self.nonempty & 1 == 0 {
            if self.nonempty == 0 {
                return None;
            }
            let b = self.nonempty.trailing_zeros() as usize;
            let first = self.head[b];
            let (mut min, mut i) = (self.slots[first as usize].deadline, first);
            while i != NIL {
                let s = &self.slots[i as usize];
                min = min.min(s.deadline);
                i = s.next;
            }
            self.last = min;
            self.head[b] = NIL;
            self.tail[b] = NIL;
            self.nonempty &= !(1 << b);
            i = first;
            while i != NIL {
                let next = self.slots[i as usize].next;
                self.push_back(i);
                i = next;
            }
        }
        Some(self.last)
    }

    /// Pops the next entry due at `t`, returning its waker: bucket 0's
    /// head, if `t` is `last`. Entries with equal deadlines pop in
    /// registration order. Never splits: the tasks the popped wakers
    /// wake register their next timers at or after `t`, which must not
    /// be before `last`.
    pub(crate) fn pop_due(&mut self, t: SimTime) -> Option<Waker> {
        if self.nonempty & 1 == 0 || t != self.last {
            return None;
        }
        Some(self.remove(self.head[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
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

    #[test]
    fn equal_deadlines_registered_across_a_split_fire_in_registration_order() {
        let mut q = TimerQueue::default();
        let (a, b) = (waker().0, waker().0);
        // At t = 0 both land in the bucket of bit 9.
        q.register(t(1_000), a.clone());
        q.register(t(990), waker().0);
        // The split makes 990 `last` and moves A to bit 5's bucket.
        assert_eq!(q.peek_deadline(), Some(t(990)));
        assert!(q.pop_due(t(990)).is_some());
        // B joins A's bucket behind it, relative to the new `last`.
        q.register(t(1_000), b.clone());
        assert_eq!(q.peek_deadline(), Some(t(1_000)));
        assert!(q.pop_due(t(1_000)).unwrap().will_wake(&a));
        assert!(q.pop_due(t(1_000)).unwrap().will_wake(&b));
        assert!(q.pop_due(t(1_000)).is_none());
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// A timer `d` µs after the model's clock.
        Register(u64),
        /// Cancel the live timer at this rank (mod the live count).
        CancelLive(usize),
        /// Cancel an id that fired, was cancelled or was drained.
        CancelStale(usize),
        /// Peek, move the clock there and pop everything due.
        Advance,
        Drain,
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            5 => (1u64..64).prop_map(Step::Register),
            5 => (0u32..27).prop_map(|s| Step::Register(1 << s)),
            3 => (1u64..(1 << 26) + 1).prop_map(Step::Register),
            3 => any::<usize>().prop_map(Step::CancelLive),
            1 => any::<usize>().prop_map(Step::CancelStale),
            4 => Just(Step::Advance),
            1 => Just(Step::Drain),
        ]
    }

    /// Runs `steps` against the queue and a map sorted by (deadline,
    /// registration), checking every pop and every counter. With
    /// `eager_peek`, every step ends with a peek that moves the clock to
    /// the earliest deadline, as the executor does, so registrations
    /// meet a split queue rather than a lazily split one.
    fn agrees_with_a_sorted_map(steps: Vec<Step>, eager_peek: bool) {
        let mut q = TimerQueue::default();
        let mut model: BTreeMap<(SimTime, u64), (TimerId, Waker)> = BTreeMap::new();
        let mut stale: Vec<TimerId> = Vec::new();
        let (mut now, mut seq, mut cancels, mut peak) = (SimTime::ZERO, 0u64, 0u64, 0usize);
        for step in steps {
            match step {
                Step::Register(d) => {
                    let at = t(now.as_micros() + d);
                    let w = waker().0;
                    model.insert((at, seq), (q.register(at, w.clone()), w));
                    seq += 1;
                    peak = peak.max(model.len());
                }
                Step::CancelLive(rank) if !model.is_empty() => {
                    let key = *model.keys().nth(rank % model.len()).unwrap();
                    let (id, _) = model.remove(&key).unwrap();
                    assert!(q.cancel(id), "a live id cancels");
                    cancels += 1;
                    stale.push(id);
                }
                Step::CancelStale(i) if !stale.is_empty() => {
                    assert!(!q.cancel(stale[i % stale.len()]), "a stale id is a no-op");
                }
                Step::Advance => {
                    let want = model.keys().next().map(|k| k.0);
                    assert_eq!(q.peek_deadline(), want);
                    if let Some(at) = want {
                        now = at;
                        while let Some(w) = q.pop_due(at) {
                            let ((deadline, _), (id, mw)) = model.pop_first().unwrap();
                            assert_eq!(deadline, at);
                            assert!(w.will_wake(&mw), "ties pop in registration order");
                            stale.push(id);
                        }
                        assert!(model.keys().next().is_none_or(|k| k.0 > at));
                    }
                }
                Step::Drain => {
                    assert_eq!(q.drain().len(), model.len());
                    stale.extend(std::mem::take(&mut model).into_values().map(|(id, _)| id));
                }
                Step::CancelLive(_) | Step::CancelStale(_) => {}
            }
            if eager_peek {
                let want = model.keys().next().map(|k| k.0);
                assert_eq!(q.peek_deadline(), want);
                now = want.unwrap_or(now);
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(q.cancels(), cancels);
            assert_eq!(q.peak_live(), peak);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_queue_agrees_with_a_sorted_map(
            steps in proptest::collection::vec(step(), 1..200),
            eager_peek in any::<bool>(),
        ) {
            agrees_with_a_sorted_map(steps, eager_peek);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// The model test at 20,000 cases; `scripts/check.sh` runs it in
        /// release.
        #[test]
        #[ignore = "slow in debug; scripts/check.sh runs it in release"]
        fn the_queue_agrees_with_a_sorted_map_at_20000_cases(
            steps in proptest::collection::vec(step(), 1..200),
            eager_peek in any::<bool>(),
        ) {
            agrees_with_a_sorted_map(steps, eager_peek);
        }
    }
}
