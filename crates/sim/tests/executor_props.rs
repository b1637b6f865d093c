//! Property-based tests for the executor and its primitives: FIFO
//! fairness under arbitrary request patterns, conservation of semaphore
//! permits, and bit-identical re-execution.

use proptest::prelude::*;
use spritely_sim::{Semaphore, Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tasks that request a capacity-1 semaphore at strictly increasing
    /// times must be served in arrival order, regardless of hold times.
    #[test]
    fn semaphore_serves_in_arrival_order(
        holds in proptest::collection::vec(1u64..5_000, 2..12)
    ) {
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let order: Rc<RefCell<Vec<usize>>> = Rc::default();
        for (i, hold) in holds.iter().copied().enumerate() {
            let sim2 = sim.clone();
            let sem = sem.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                // Strictly increasing arrival instants.
                sim2.sleep(SimDuration::from_micros(i as u64)).await;
                let _p = sem.acquire().await;
                order.borrow_mut().push(i);
                sim2.sleep(SimDuration::from_micros(hold)).await;
            });
        }
        sim.run_to_quiescence();
        let got = order.borrow().clone();
        let want: Vec<usize> = (0..holds.len()).collect();
        prop_assert_eq!(got, want);
    }

    /// However tasks contend, every permit comes back: after quiescence
    /// the semaphore is fully free and total elapsed equals the serial
    /// sum for capacity 1.
    #[test]
    fn permits_are_conserved_and_time_is_exact(
        holds in proptest::collection::vec(1u64..10_000, 1..16),
        capacity in 1usize..4,
    ) {
        let sim = Sim::new();
        let sem = Semaphore::new(capacity);
        for hold in holds.iter().copied() {
            let sim2 = sim.clone();
            let sem = sem.clone();
            sim.spawn(async move {
                let _p = sem.acquire().await;
                sim2.sleep(SimDuration::from_micros(hold)).await;
            });
        }
        sim.run_to_quiescence();
        prop_assert_eq!(sem.held(), 0, "all permits returned");
        prop_assert_eq!(sem.queue_len(), 0, "no stranded waiters");
        if capacity == 1 {
            let total: u64 = holds.iter().sum();
            prop_assert_eq!(sim.now().as_micros(), total);
        } else {
            // With more servers we finish no later than serial and no
            // earlier than the critical path.
            let total: u64 = holds.iter().sum();
            let max = holds.iter().copied().max().unwrap_or(0);
            prop_assert!(sim.now().as_micros() <= total);
            prop_assert!(sim.now().as_micros() >= max);
        }
    }

    /// The same program produces the same event history, twice.
    #[test]
    fn execution_is_deterministic(
        delays in proptest::collection::vec(0u64..1_000, 1..20)
    ) {
        let run = |delays: &[u64]| -> (u64, Vec<usize>) {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<usize>>> = Rc::default();
            let sem = Semaphore::new(2);
            for (i, d) in delays.iter().copied().enumerate() {
                let sim2 = sim.clone();
                let log = Rc::clone(&log);
                let sem = sem.clone();
                sim.spawn(async move {
                    sim2.sleep(SimDuration::from_micros(d)).await;
                    let _p = sem.acquire().await;
                    sim2.sleep(SimDuration::from_micros(d % 7 + 1)).await;
                    log.borrow_mut().push(i);
                });
            }
            sim.run_to_quiescence();
            let events = log.borrow().clone();
            (sim.now().as_micros(), events)
        };
        prop_assert_eq!(run(&delays), run(&delays));
    }

    /// Timeouts fire exactly at their deadline when the inner future
    /// never resolves.
    #[test]
    fn timeout_deadline_is_exact(ms in 1u64..10_000) {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let r = s
                .timeout(SimDuration::from_micros(ms), std::future::pending::<()>())
                .await;
            (r.is_err(), s.now().as_micros())
        });
        prop_assert!(out.0);
        prop_assert_eq!(out.1, ms);
    }

    /// Arbitrary interleavings of timer registration and cancellation
    /// (every task races a sleep against a timeout guard; whichever has
    /// the later deadline gets cancelled mid-heap) still fire survivors
    /// in deadline-then-registration order, and leave nothing behind.
    #[test]
    fn interleaved_register_cancel_fires_in_deadline_seq_order(
        pairs in proptest::collection::vec((1u64..500, 1u64..500), 1..24)
    ) {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        for (i, (d, g)) in pairs.iter().copied().enumerate() {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                // Inner sleep (deadline d) vs guard (deadline g). The
                // loser's timer is cancelled when the Timeout drops it.
                let r = s
                    .timeout(SimDuration::from_micros(g), s.sleep(SimDuration::from_micros(d)))
                    .await;
                if r.is_ok() {
                    log.borrow_mut().push((s.now().as_micros(), i));
                }
            });
        }
        sim.run_to_quiescence();
        // Tasks register their timers at t=0 in spawn order, so the
        // expected completion order of the survivors (d <= g: the inner
        // sleep polls, and therefore registers, before its guard) is
        // deadline-then-spawn-index.
        let mut want: Vec<(u64, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(d, g))| d <= g)
            .map(|(i, &(d, _))| (d, i))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(log.borrow().clone(), want);
        // Every loser was cancelled, not left to fire at quiescence.
        prop_assert_eq!(sim.live_timers(), 0);
        let last = want.last().map_or(0, |&(d, _)| d);
        prop_assert_eq!(sim.now().as_micros(),
            pairs.iter().map(|&(d, g)| d.min(g)).max().unwrap_or(0).max(last));
    }

    /// A timer storm: staggered tasks each run timeouts whose inner sleep
    /// always wins, so every iteration abandons a 10 s guard. The
    /// cancel-aware timer queue must remove each guard when it is dropped
    /// — none is left to fire as a stale wake, none outlives quiescence.
    #[test]
    fn abandoned_guard_timers_are_cancelled_not_left_to_fire(
        tasks in 1u64..48,
        iters in 1u64..32,
    ) {
        let sim = Sim::new();
        for i in 0..tasks {
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(i)).await;
                for _ in 0..iters {
                    let r = s
                        .timeout(SimDuration::from_secs(10), s.sleep(SimDuration::from_millis(1)))
                        .await;
                    assert!(r.is_ok());
                }
            });
        }
        sim.run_to_quiescence();
        let stats = sim.stats();
        prop_assert_eq!(stats.stale_wakes, 0);
        prop_assert_eq!(stats.timer_cancels, tasks * iters);
        prop_assert_eq!(sim.live_timers(), 0);
        // Quiescence at the last inner deadline, not at a guard's.
        prop_assert_eq!(sim.now().as_micros(), tasks - 1 + iters * 1_000);
    }

    /// Task slots are recycled across waves; a recycled slot must never
    /// deliver a wake to the task now occupying it on behalf of the task
    /// that used to (generational ids make such wakes stale no-ops).
    #[test]
    fn slab_reuse_never_wakes_wrong_generation(
        waves in proptest::collection::vec(
            proptest::collection::vec(0u64..200, 1..12), 2..5)
    ) {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(usize, usize)>>> = Rc::default();
        let mut biggest = 0usize;
        for (w, delays) in waves.iter().enumerate() {
            biggest = biggest.max(delays.len());
            for (i, d) in delays.iter().copied().enumerate() {
                let s = sim.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    s.sleep(SimDuration::from_micros(d)).await;
                    log.borrow_mut().push((w, i));
                });
            }
            // Quiescence between waves: every slot is freed and eligible
            // for reuse by the next wave.
            sim.run_to_quiescence();
            prop_assert_eq!(sim.live_tasks(), 0);
        }
        // Each task completed exactly once, attributed to its own wave.
        let mut got = log.borrow().clone();
        got.sort_unstable();
        let mut want = Vec::new();
        for (w, delays) in waves.iter().enumerate() {
            for i in 0..delays.len() {
                want.push((w, i));
            }
        }
        prop_assert_eq!(got, want);
        let stats = sim.stats();
        prop_assert_eq!(stats.tasks_completed, want.len() as u64);
        // Slot recycling actually happened: occupancy never exceeded the
        // biggest single wave even though every wave allocated tasks.
        prop_assert!(stats.peak_live_tasks <= biggest as u64);
    }
}
