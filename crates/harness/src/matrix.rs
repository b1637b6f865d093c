//! Parallel experiment matrix: fan a set of independent runs
//! (seeds × parameters × protocols) across OS threads.
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
//!
//! [`Sim`]: spritely_sim::Sim

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use spritely_metrics::TextTable;
use spritely_sim::SimDuration;

use crate::StatsSnapshot;

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

/// The outcome of one matrix cell: a deterministic label, the headline
/// numbers, and the full [`StatsSnapshot`] JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixResult {
    /// Row label: the experiment and every parameter it ran with.
    pub label: String,
    /// Simulated elapsed seconds (benchmark total / makespan).
    pub elapsed_s: f64,
    /// Total RPCs the server endpoint served.
    pub rpc_total: u64,
    /// Scheduler events the run's executor retired.
    pub events_retired: u64,
    /// Full end-of-run statistics snapshot, serialized.
    pub stats_json: String,
}

impl MatrixResult {
    /// The cell for a finished run: its label, its simulated elapsed time
    /// and its end-of-run snapshot.
    pub fn new(label: String, elapsed: SimDuration, stats: &StatsSnapshot) -> Self {
        MatrixResult {
            label,
            elapsed_s: elapsed.as_secs_f64(),
            rpc_total: stats.num("rpc_total"),
            events_retired: stats.num("sim.events_retired"),
            stats_json: stats.to_json(),
        }
    }
}

/// Renders matrix results as a table: one row per job, in job order.
pub fn render_matrix(results: &[MatrixResult]) -> String {
    let mut t = TextTable::new(vec!["Experiment", "elapsed s", "RPCs", "sim events"]);
    for r in results {
        t.row(vec![
            r.label.clone(),
            format!("{:.1}", r.elapsed_s),
            r.rpc_total.to_string(),
            r.events_retired.to_string(),
        ]);
    }
    t.render()
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
