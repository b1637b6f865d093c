//! Synchronization primitives for simulated tasks.
//!
//! All primitives are single-threaded (they live inside one [`Sim`]) and
//! deterministic: waiters are served strictly in arrival order.
//!
//! [`Sim`]: crate::Sim

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// The wakers of the tasks blocked on one condition, in arrival order.
///
/// Almost every wait in the system has exactly one waiter (a caller on
/// its reply, a joiner on its task), so the first waker sits inline and
/// only a second waiter allocates.
#[derive(Default)]
pub(crate) struct Waiters {
    first: Option<Waker>,
    /// Later arrivals; empty whenever `first` is `None`.
    rest: Vec<Waker>,
}

impl Waiters {
    /// Adds a waiter behind those already here. A task that polls its
    /// wait again (a `Timeout` polls the inner future once more before it
    /// gives up, a retransmission joins the wait it abandoned) is still
    /// the one waiter it was: one wake, not one per poll.
    pub(crate) fn push(&mut self, waker: &Waker) {
        match self.rest.last().or(self.first.as_ref()) {
            Some(last) if last.will_wake(waker) => {}
            Some(_) => self.rest.push(waker.clone()),
            None => self.first = Some(waker.clone()),
        }
    }

    /// Wakes every waiter, first come first woken, and forgets them.
    pub(crate) fn wake_all(&mut self) {
        for w in self.first.take().into_iter().chain(self.rest.drain(..)) {
            w.wake();
        }
    }
}

/// A FIFO-fair counting semaphore.
///
/// Unlike a bare counter, releases *hand off* permits to the head of the
/// wait queue, so a stream of late arrivals can never starve an early
/// waiter. This mirrors the FIFO service queues of the modelled hardware
/// (disk arms, server threads, CPUs).
///
/// # Examples
///
/// ```
/// use spritely_sim::{Semaphore, Sim, SimDuration};
///
/// let sim = Sim::new();
/// let sem = Semaphore::new(1);
/// for _ in 0..3 {
///     let sim2 = sim.clone();
///     let sem = sem.clone();
///     sim.spawn(async move {
///         let _permit = sem.acquire().await;
///         sim2.sleep(SimDuration::from_millis(10)).await;
///     });
/// }
/// sim.run_to_quiescence();
/// assert_eq!(sim.now().as_micros(), 30_000); // strictly serialized
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
}

struct SemInner {
    /// Free permits not reserved for any waiter.
    permits: usize,
    /// Tickets waiting for a permit, in FIFO order, each carrying its
    /// waker inline — a grant is a pop plus a wake, no keyed lookup.
    queue: VecDeque<(u64, Waker)>,
    /// Tickets that have been handed a permit but whose future has not
    /// observed it yet.
    granted: Vec<u64>,
    next_ticket: u64,
    capacity: usize,
}

impl SemInner {
    /// Returns one permit to the pool, preferring a direct handoff to the
    /// queue head.
    fn release_one(&mut self) {
        if let Some((t, w)) = self.queue.pop_front() {
            self.granted.push(t);
            w.wake();
        } else {
            self.permits += 1;
            debug_assert!(self.permits <= self.capacity, "semaphore over-released");
        }
    }
}

impl Semaphore {
    /// Creates a semaphore with `capacity` permits.
    pub fn new(capacity: usize) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner {
                permits: capacity,
                queue: VecDeque::new(),
                granted: Vec::new(),
                next_ticket: 0,
                capacity,
            })),
        }
    }

    /// Total number of permits.
    pub fn capacity(&self) -> usize {
        self.inner.borrow().capacity
    }

    /// Permits currently held (capacity minus free minus reserved-for-waiter).
    pub fn held(&self) -> usize {
        let s = self.inner.borrow();
        s.capacity - s.permits - s.granted.len()
    }

    /// Number of tasks waiting for a permit.
    pub fn queue_len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True when every permit is free and nothing is queued: no task
    /// holds, has been granted, or is waiting for this semaphore.
    /// (A granted-but-unobserved permit keeps `permits` below capacity,
    /// so it is visible here even though [`held`](Self::held) misses it.)
    pub fn is_idle(&self) -> bool {
        let s = self.inner.borrow();
        s.permits == s.capacity && s.queue.is_empty()
    }

    /// Acquires one permit, waiting FIFO if none is free.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            ticket: None,
        }
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    ticket: Option<u64>,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let inner = Rc::clone(&self.sem.inner);
        let mut s = inner.borrow_mut();
        match self.ticket {
            None => {
                if s.permits > 0 && s.queue.is_empty() {
                    s.permits -= 1;
                    drop(s);
                    // Mark as satisfied so Drop doesn't try to clean up.
                    self.ticket = Some(u64::MAX);
                    return Poll::Ready(Permit { sem: inner });
                }
                let t = s.next_ticket;
                s.next_ticket += 1;
                s.queue.push_back((t, cx.waker().clone()));
                self.ticket = Some(t);
                Poll::Pending
            }
            Some(u64::MAX) => panic!("Acquire polled after completion"),
            Some(t) => {
                if let Some(pos) = s.granted.iter().position(|&g| g == t) {
                    s.granted.swap_remove(pos);
                    drop(s);
                    self.ticket = Some(u64::MAX);
                    Poll::Ready(Permit { sem: inner })
                } else {
                    // Spurious poll while still queued (e.g. a sibling
                    // branch of a combinator woke the task): refresh the
                    // stored waker. Rare, so the scan is fine.
                    if let Some(entry) = s.queue.iter_mut().find(|(q, _)| *q == t) {
                        entry.1 = cx.waker().clone();
                    }
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let Some(t) = self.ticket else { return };
        if t == u64::MAX {
            // Completed; the Permit owns the cleanup.
            return;
        }
        let mut s = self.sem.inner.borrow_mut();
        if let Some(pos) = s.queue.iter().position(|(q, _)| *q == t) {
            // Still waiting: just leave the queue.
            s.queue.remove(pos);
        } else if let Some(pos) = s.granted.iter().position(|&g| g == t) {
            // Granted but never observed: pass the permit on.
            s.granted.swap_remove(pos);
            s.release_one();
        }
    }
}

/// RAII permit returned by [`Semaphore::acquire`]; releases on drop.
pub struct Permit {
    sem: Rc<RefCell<SemInner>>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.borrow_mut().release_one();
    }
}

/// A one-shot broadcast event.
///
/// Waiters block until [`Event::set`] is called; afterwards every wait
/// completes immediately.
#[derive(Clone, Default)]
pub struct Event {
    inner: Rc<RefCell<EventInner>>,
}

#[derive(Default)]
struct EventInner {
    set: bool,
    waiters: Waiters,
}

impl Event {
    /// Creates an unset event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the event, waking all current and future waiters.
    pub fn set(&self) {
        let mut s = self.inner.borrow_mut();
        s.set = true;
        s.waiters.wake_all();
    }

    /// Waits for the event to be set.
    pub fn wait(&self) -> EventWait {
        EventWait {
            inner: Rc::clone(&self.inner),
        }
    }
}

/// Future returned by [`Event::wait`].
pub struct EventWait {
    inner: Rc<RefCell<EventInner>>,
}

impl Future for EventWait {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut s = self.inner.borrow_mut();
        if s.set {
            Poll::Ready(())
        } else {
            s.waiters.push(cx.waker());
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;
    use std::cell::Cell;

    #[test]
    fn semaphore_serializes_holders() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let active = Rc::new(Cell::new(0u32));
        let peak = Rc::new(Cell::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = sim.clone();
            let sem = sem.clone();
            let active = Rc::clone(&active);
            let peak = Rc::clone(&peak);
            handles.push(sim.spawn(async move {
                let _p = sem.acquire().await;
                active.set(active.get() + 1);
                peak.set(peak.get().max(active.get()));
                s.sleep(SimDuration::from_millis(10)).await;
                active.set(active.get() - 1);
            }));
        }
        sim.run_to_quiescence();
        assert_eq!(peak.get(), 1);
        assert_eq!(sim.now().as_micros(), 40_000);
    }

    #[test]
    fn semaphore_is_fifo() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        // Task 0 grabs the permit; 1..5 queue up in spawn order after
        // staggered arrival delays that all elapse while 0 holds it.
        for i in 0..5u32 {
            let s = sim.clone();
            let sem = sem.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                // Later tasks arrive later but all before the first release.
                s.sleep(SimDuration::from_micros(u64::from(i))).await;
                let _p = sem.acquire().await;
                order.borrow_mut().push(i);
                s.sleep(SimDuration::from_millis(1)).await;
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn semaphore_capacity_respected() {
        let sim = Sim::new();
        let sem = Semaphore::new(3);
        let active = Rc::new(Cell::new(0usize));
        let peak = Rc::new(Cell::new(0usize));
        for _ in 0..10 {
            let s = sim.clone();
            let sem = sem.clone();
            let active = Rc::clone(&active);
            let peak = Rc::clone(&peak);
            sim.spawn(async move {
                let _p = sem.acquire().await;
                active.set(active.get() + 1);
                peak.set(peak.get().max(active.get()));
                s.sleep(SimDuration::from_millis(1)).await;
                active.set(active.get() - 1);
            });
        }
        sim.run_to_quiescence();
        assert_eq!(peak.get(), 3);
    }

    #[test]
    fn cancelled_waiter_does_not_leak_permit() {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let s = sim.clone();
        let sem2 = sem.clone();
        sim.block_on(async move {
            let p = sem2.acquire().await;
            // A waiter that gets cancelled by a timeout.
            let waiter = s.timeout(SimDuration::from_millis(1), sem2.acquire());
            assert!(waiter.await.is_err());
            drop(p);
            // The permit must still be obtainable.
            let _p2 = sem2.acquire().await;
            assert_eq!(sem2.held(), 1);
        });
        assert_eq!(sem.held(), 0);
    }

    #[test]
    fn cancelled_granted_waiter_hands_off() {
        // A waiter whose permit was granted while it was being dropped must
        // hand the permit to the next in line.
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let s = sim.clone();
        let sem0 = sem.clone();
        let got: Rc<Cell<bool>> = Rc::default();
        let got2 = Rc::clone(&got);
        // Holder releases at t=2ms.
        let semh = sem.clone();
        let sh = sim.clone();
        sim.spawn(async move {
            let _p = semh.acquire().await;
            sh.sleep(SimDuration::from_millis(2)).await;
        });
        // Waiter A times out at t=1ms... no: make A time out *after* grant.
        // A is granted at 2ms but its timeout fires at 2ms too; the sleep
        // fires first only if registered earlier — instead cancel explicitly:
        let sem_a = sem.clone();
        let sa = sim.clone();
        sim.spawn(async move {
            // Will be granted at 2ms, but we drop the acquire at 3ms without
            // polling it (simulate by timeout at 3ms on a future that, once
            // granted, still sleeps forever before observing).
            let acq = sem_a.acquire();
            let res = sa.timeout(SimDuration::from_millis(1), acq).await;
            assert!(res.is_err());
        });
        // Waiter B should eventually get the permit.
        let sb = sim.clone();
        sim.spawn(async move {
            sb.sleep(SimDuration::from_micros(10)).await;
            let _p = sem0.acquire().await;
            got2.set(true);
        });
        sim.run_to_quiescence();
        assert!(got.get());
        assert_eq!(sem.held(), 0);
        let _ = s;
    }

    #[test]
    fn event_wakes_all_waiters() {
        let sim = Sim::new();
        let ev = Event::new();
        let count = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let ev = ev.clone();
            let count = Rc::clone(&count);
            sim.spawn(async move {
                ev.wait().await;
                count.set(count.get() + 1);
            });
        }
        let s = sim.clone();
        let ev2 = ev.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            ev2.set();
        });
        sim.run_to_quiescence();
        assert_eq!(count.get(), 3);
    }

    #[test]
    fn event_waiters_wake_in_arrival_order() {
        // Spawn order 0, 1, 2; arrival at the event in order 2, 0, 1.
        let sim = Sim::new();
        let ev = Event::new();
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for (i, arrives_us) in [(0u32, 2u64), (1, 3), (2, 1)] {
            let (s, ev, order) = (sim.clone(), ev.clone(), Rc::clone(&order));
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(arrives_us)).await;
                ev.wait().await;
                order.borrow_mut().push(i);
            });
        }
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            ev.set();
        });
        sim.run_to_quiescence();
        assert_eq!(*order.borrow(), vec![2, 0, 1]);
    }

    #[test]
    fn a_waiter_that_timed_out_and_came_back_is_woken_once() {
        // What a retransmitting caller does to its execution's event:
        // wait under a timeout (which polls the wait once more as it
        // expires), then wait again.
        let sim = Sim::new();
        let ev = Event::new();
        let (s, ev2) = (sim.clone(), ev.clone());
        let waiter = sim.spawn(async move {
            let timed = s.timeout(SimDuration::from_millis(1), ev2.wait()).await;
            assert!(timed.is_err());
            ev2.wait().await;
        });
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_millis(5)).await;
            ev.set();
        });
        sim.run_until(waiter);
        sim.run_to_quiescence();
        assert_eq!(sim.stats().stale_wakes, 0, "woken more than once");
    }

    #[test]
    fn event_wait_after_set_is_immediate() {
        let sim = Sim::new();
        let ev = Event::new();
        ev.set();
        let ev2 = ev.clone();
        let s = sim.clone();
        sim.block_on(async move {
            let t0 = s.now();
            ev2.wait().await;
            assert_eq!(s.now(), t0);
        });
    }
}
