//! The parallel experiment-matrix determinism contract: for any matrix
//! of experiments and any worker-thread count, `run_matrix` returns
//! results byte-identical to serial execution, in job order. Each run
//! is an isolated single-threaded simulation, so parallelism can only
//! change wall-clock time, never a result — this test pins that.

use proptest::prelude::*;
use spritely::harness::scripts::{andrew, scaling, sort};
use spritely::harness::{run_matrix, MatrixResult, Protocol, TestbedParams};

/// A small pool of cheap experiments the random matrices draw from.
const POOL: usize = 5;

fn run_pooled(pick: usize) -> MatrixResult {
    let sort = |p: Protocol, update| {
        let params = TestbedParams {
            update_enabled: update,
            ..TestbedParams::paper(p, true)
        };
        let r = sort(params, 281 * 1024);
        MatrixResult::new(
            format!("sort {} upd={update}", p.label()),
            *r.first(),
            &r.tb.stats_snapshot(),
        )
    };
    let scaling = |p: Protocol, seed| {
        let r = scaling(TestbedParams::paper(p, true), 2, seed);
        MatrixResult::new(
            format!("scaling {} seed={seed}", p.label()),
            r.makespan,
            &r.tb.stats_snapshot(),
        )
    };
    match pick {
        0 => sort(Protocol::Nfs, true),
        1 => sort(Protocol::Snfs, false),
        2 => scaling(Protocol::Snfs, 11),
        3 => scaling(Protocol::Nfs, 12),
        _ => {
            let r = andrew(TestbedParams::paper(Protocol::Snfs, true), 13);
            MatrixResult::new(
                "andrew".to_string(),
                r.first().total(),
                &r.tb.stats_snapshot(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random matrices (with repeats — the same job twice must produce
    /// the same bytes twice) run on random thread counts match serial.
    #[test]
    fn parallel_matrix_is_byte_identical_to_serial(
        picks in proptest::collection::vec(0usize..POOL, 1..5),
        threads in 2usize..6,
    ) {
        let job = |i: usize| run_pooled(picks[i]);
        let serial = run_matrix(picks.len(), 1, job);
        let parallel = run_matrix(picks.len(), threads, job);
        prop_assert_eq!(&serial, &parallel);
        // Results come back in job order under both schedules, and
        // repeated jobs reproduce their bytes exactly.
        for (i, a) in picks.iter().enumerate() {
            for (j, b) in picks.iter().enumerate() {
                prop_assert_eq!(a == b, serial[i].label == serial[j].label);
                if a == b {
                    prop_assert_eq!(&serial[i].stats_json, &serial[j].stats_json);
                }
            }
        }
    }
}
