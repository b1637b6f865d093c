//! Parallel experiment matrix: fan a set of independent runs (catalogue
//! entries, seeds × parameters × protocols) across OS threads.
//!
//! Every experiment in this repo is a *self-contained* deterministic
//! simulation: a run builds its own [`Sim`], its own hosts and its own
//! seeded RNG streams, and shares nothing with any other run. A matrix
//! of runs is therefore embarrassingly parallel — the only requirement
//! is that results come back in job order, which [`run_matrix`] enforces
//! by indexing each result by its job position rather than by completion
//! time. The output is **byte-identical for any thread count**,
//! including the serial `threads = 1` case; `tests/matrix.rs` pins that
//! equality over random matrices.
//!
//! What a job *is* stays with the caller: a closure from the job's index
//! to its result, over the same [`crate::scripts`] everything else calls.
//! `spritely run` and `spritely gate` fan [`crate::catalog::CATALOG`]
//! entries out through it.
//!
//! [`Sim`]: spritely_sim::Sim

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job(0) .. job(n - 1)`, fanning across `threads` worker threads
/// (`0` or `1` means serial on the calling thread). Results come back
/// in job order whatever order they finished in, so when every job is
/// an isolated simulation the output is byte-identical for any thread
/// count.
pub fn run_matrix<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(i);
                *slots[i].lock().expect("matrix slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("matrix slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_any_thread_count() {
        for n in [0, 1, 2, 7] {
            let serial: Vec<usize> = (0..n).map(|i| i * i).collect();
            for threads in [0, 1, 2, 3, 16] {
                assert_eq!(run_matrix(n, threads, |i| i * i), serial, "{n} x {threads}");
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
        run_matrix(runs.len(), 4, |i| runs[i].fetch_add(1, Ordering::Relaxed));
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
    }
}
