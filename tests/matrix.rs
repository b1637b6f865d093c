//! The parallel experiment-matrix determinism contract: for any list of
//! catalogue entries and any worker-thread count, `run_matrix` returns
//! the outcomes serial execution returns, in list order — the path
//! `spritely run` and `spritely gate` take with `--threads N`. Each run
//! is an isolated single-threaded simulation, so parallelism can only
//! change wall-clock time, never a result; this test pins that.

use proptest::prelude::*;
use spritely::harness::catalog::{self, Outcome};
use spritely::harness::run_matrix;

/// The entries the random lists draw from: a traced run whose outcome
/// carries files and a profile (the traced Andrew run of `table_5_2`),
/// an ablation sweep, and a four-run microbenchmark.
const POOL: [&str; 3] = ["table_5_2", "ablation_state_limit", "micro_reopen"];

fn run(name: &str) -> Outcome {
    (catalog::find(name).expect(name).run)(42)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random lists (with repeats — the same entry twice must produce
    /// the same outcome twice) run on random thread counts match serial:
    /// body, ledger, files, failures and profiles.
    #[test]
    fn parallel_matrix_is_byte_identical_to_serial(
        picks in proptest::collection::vec(0..POOL.len(), 1..5),
        threads in 2usize..6,
    ) {
        let job = |i: usize| run(POOL[picks[i]]);
        let serial = run_matrix(picks.len(), 1, job);
        let parallel = run_matrix(picks.len(), threads, job);
        prop_assert_eq!(&serial, &parallel);
        // Results come back in list order under both schedules, and a
        // repeated entry reproduces its outcome exactly.
        for (i, a) in picks.iter().enumerate() {
            for (j, b) in picks.iter().enumerate() {
                prop_assert_eq!(a == b, serial[i] == serial[j]);
            }
        }
    }
}
