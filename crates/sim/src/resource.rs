//! FIFO service resources with busy-time accounting.
//!
//! A [`Resource`] models a hardware unit with a fixed number of servers — a
//! CPU (capacity 1), a disk arm (capacity 1), a pool of server threads
//! (capacity N). Tasks either occupy it for a known duration
//! ([`Resource::use_for`]) or hold it across irregular work
//! ([`Resource::acquire`]). The resource integrates its busy time so the
//! harness can report utilization figures (paper figures 5-1 / 5-2).

use std::cell::RefCell;
use std::rc::Rc;

use crate::executor::Sim;
use crate::sync::{Permit, Semaphore};
use crate::time::{SimDuration, SimTime};

/// A named FIFO service center with utilization accounting.
#[derive(Clone)]
pub struct Resource {
    sim: Sim,
    sem: Semaphore,
    util: Rc<RefCell<UtilState>>,
}

struct UtilState {
    name: String,
    capacity: usize,
    /// Number of permits currently held.
    held: usize,
    /// Integral of `held` over time, in permit-microseconds.
    busy_integral: u128,
    last_change: SimTime,
}

impl Resource {
    /// Creates a resource with the given number of identical servers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(sim: &Sim, name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0, "resource needs at least one server");
        Resource {
            sim: sim.clone(),
            sem: Semaphore::new(capacity),
            util: Rc::new(RefCell::new(UtilState {
                name: name.into(),
                capacity,
                held: 0,
                busy_integral: 0,
                last_change: sim.now(),
            })),
        }
    }

    /// The resource's name (for traces and error messages).
    pub fn name(&self) -> String {
        self.util.borrow().name.clone()
    }

    /// Number of identical servers.
    pub fn capacity(&self) -> usize {
        self.util.borrow().capacity
    }

    /// Occupies one server for exactly `d`, queueing FIFO if all are busy.
    pub async fn use_for(&self, d: SimDuration) {
        let guard = self.acquire().await;
        self.sim.sleep(d).await;
        drop(guard);
    }

    /// Acquires one server for an irregular period; release by dropping the
    /// guard. Prefer [`use_for`](Self::use_for) when the service time is
    /// known up front.
    pub async fn acquire(&self) -> ResourceGuard {
        let permit = self.sem.acquire().await;
        self.on_change(1);
        ResourceGuard {
            res: self.clone(),
            _permit: permit,
        }
    }

    fn on_change(&self, delta: isize) {
        let now = self.sim.now();
        let mut u = self.util.borrow_mut();
        let dt = now.duration_since(u.last_change).as_micros();
        u.busy_integral += u.held as u128 * u128::from(dt);
        u.last_change = now;
        if delta > 0 {
            u.held += delta as usize;
            debug_assert!(u.held <= u.capacity, "{}: over capacity", u.name);
        } else {
            u.held -= (-delta) as usize;
        }
    }

    /// Busy integral up to the current instant, in permit-microseconds.
    ///
    /// `delta(busy) / (delta(t) * capacity)` over an interval is the mean
    /// utilization for that interval.
    pub fn busy_permit_micros(&self) -> u128 {
        let now = self.sim.now();
        let u = self.util.borrow();
        u.busy_integral + u.held as u128 * u128::from(now.duration_since(u.last_change).as_micros())
    }

    /// Mean utilization (0..=1) over `[since, now]`.
    pub fn utilization_since(&self, since: SimTime, busy_at_since: u128) -> f64 {
        let now = self.sim.now();
        let span = now.saturating_duration_since(since).as_micros();
        if span == 0 {
            return 0.0;
        }
        let busy = self.busy_permit_micros() - busy_at_since;
        busy as f64 / (span as f64 * self.capacity() as f64)
    }
}

/// RAII guard for an acquired server; releases (and accounts) on drop.
pub struct ResourceGuard {
    res: Resource,
    _permit: Permit,
}

impl Drop for ResourceGuard {
    fn drop(&mut self) {
        self.res.on_change(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes_and_accounts() {
        let sim = Sim::new();
        let cpu = Resource::new(&sim, "cpu", 1);
        for _ in 0..3 {
            let cpu = cpu.clone();
            sim.spawn(async move {
                cpu.use_for(SimDuration::from_millis(10)).await;
            });
        }
        sim.run_to_quiescence();
        assert_eq!(sim.now().as_micros(), 30_000);
        assert_eq!(cpu.busy_permit_micros(), 30_000);
    }

    #[test]
    fn multi_server_overlaps() {
        let sim = Sim::new();
        let pool = Resource::new(&sim, "threads", 2);
        for _ in 0..4 {
            let pool = pool.clone();
            sim.spawn(async move {
                pool.use_for(SimDuration::from_millis(10)).await;
            });
        }
        sim.run_to_quiescence();
        // Two waves of two parallel services.
        assert_eq!(sim.now().as_micros(), 20_000);
        // Busy integral counts both servers: 4 services x 10ms each.
        assert_eq!(pool.busy_permit_micros(), 40_000);
    }

    #[test]
    fn utilization_since_interval() {
        let sim = Sim::new();
        let cpu = Resource::new(&sim, "cpu", 1);
        let cpu2 = cpu.clone();
        let s = sim.clone();
        sim.block_on(async move {
            // Busy 10ms of the first 40ms.
            cpu2.use_for(SimDuration::from_millis(10)).await;
            s.sleep(SimDuration::from_millis(30)).await;
        });
        let u = cpu.utilization_since(SimTime::ZERO, 0);
        assert!((u - 0.25).abs() < 1e-9, "got {u}");
    }

    #[test]
    fn acquire_guard_accounts_irregular_hold() {
        let sim = Sim::new();
        let disk = Resource::new(&sim, "disk", 1);
        let disk2 = disk.clone();
        let s = sim.clone();
        sim.block_on(async move {
            let g = disk2.acquire().await;
            s.sleep(SimDuration::from_millis(7)).await;
            s.sleep(SimDuration::from_millis(3)).await;
            drop(g);
        });
        assert_eq!(disk.busy_permit_micros(), 10_000);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_capacity_rejected() {
        let sim = Sim::new();
        let _ = Resource::new(&sim, "x", 0);
    }
}
