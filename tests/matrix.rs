//! The parallel experiment-matrix determinism contract: for any list of
//! jobs (catalogue entries, and a traced run filed here as an entry
//! files one) and any worker-thread count, `run_matrix` returns the
//! outcomes serial execution returns, in list order — the path
//! `spritely run` and `spritely gate` take with `--threads N`. Each run
//! is an isolated single-threaded simulation, so parallelism can only
//! change wall-clock time, never a result; this test pins that.

use proptest::prelude::*;
use spritely::harness::catalog::{self, Outcome, TraceProfile};
use spritely::harness::{report, run_matrix, scripts, TestbedParams};
use spritely::trace::profile_trace;

/// A traced 64-block flush, filed the way an entry files a checked
/// trace: its JSONL trace as a file and its profile.
fn traced_flush() -> Outcome {
    let params = TestbedParams {
        trace: true,
        update_enabled: false,
        ..TestbedParams::default()
    };
    let run = scripts::flush(params, 64);
    let trace = run.tb.finish_trace().expect("tracing was on");
    let profile = profile_trace(&trace.events);
    Outcome {
        body: format!("{:?}", run.first()),
        files: vec![("trace_flush.jsonl".to_string(), trace.to_jsonl())],
        profiles: vec![TraceProfile {
            key: "flush".to_string(),
            what: "the traced 64-block flush".to_string(),
            table: report::profile_table(&profile),
            json: profile.to_json(),
        }],
        ..Outcome::default()
    }
}

fn run(name: &str) -> Outcome {
    (catalog::find(name).expect(name).run)(42)
}

/// The jobs the random lists draw from: a traced run whose outcome
/// carries files and a profile, an ablation sweep, and a four-run
/// microbenchmark.
const POOL: [fn() -> Outcome; 3] = [
    traced_flush,
    || run("ablation_state_limit"),
    || run("micro_reopen"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random lists (with repeats — the same job twice must produce
    /// the same outcome twice) run on random thread counts match serial:
    /// body, ledger, files, failures and profiles.
    #[test]
    fn parallel_matrix_is_byte_identical_to_serial(
        picks in proptest::collection::vec(0..POOL.len(), 1..5),
        threads in 2usize..6,
    ) {
        let job = |i: usize| POOL[picks[i]]();
        let serial = run_matrix(picks.len(), 1, job);
        let parallel = run_matrix(picks.len(), threads, job);
        prop_assert_eq!(&serial, &parallel);
        // Results come back in list order under both schedules, and a
        // repeated job reproduces its outcome exactly.
        for (i, a) in picks.iter().enumerate() {
            for (j, b) in picks.iter().enumerate() {
                prop_assert_eq!(a == b, serial[i] == serial[j]);
            }
        }
    }
}
