//! Data loss fails here: the sharing workload under the closed-write
//! oracle (`harness::oracle`), which judges the bytes every read returned
//! and the bytes the server holds after a drain.
//!
//! Sequential sharing must be clean. Concurrent sharing's findings are
//! pinned seed by seed, like `tests/determinism.rs` pins fingerprints.
//! Every cell is zero since a holder's delegation return renews its lease
//! (DESIGN.md §17.3); a change that moves one away from zero shows it here.
//!
//! The concurrent table has ten columns, which name the layer a finding
//! comes from: the paper stack, the composed stack, each of the four
//! composed layers alone over the paper stack, and the composed stack
//! with each of them reset to paper. Tier-1 runs three of them (paper,
//! composed, delegations alone); the whole lattice is an ignored test that
//! `scripts/check.sh` runs in release. The paper and composed columns run
//! traced, so the trace checker judges the same runs.

use spritely::harness::oracle::Tally;
use spritely::harness::scripts::{sharing, Sharing};
use spritely::harness::{Protocol, TestbedParams};
use spritely::trace::{Event, FState};

/// Every client's findings together. A traced run must also pass the
/// trace checker; it returns how many transitions entered WRITE_SHARED.
fn total(params: TestbedParams, mode: Sharing, seed: u64) -> (Tally, usize) {
    let run = sharing(params, mode, seed);
    let mut shared = 0;
    if let Some(report) = run.tb.finish_trace() {
        assert!(report.ok(), "seed {seed}: {:?}", report.violations);
        shared = report
            .events
            .iter()
            .filter(
                |e| matches!(e.view(), Event::Transition { to, .. } if to == FState::WriteShared),
            )
            .count();
    }
    let tally = run.per_client.iter().fold(Tally::default(), |a, t| Tally {
        stale: a.stale + t.stale,
        wrong: a.wrong + t.wrong,
        lost: a.lost + t.lost,
        errors: a.errors + t.errors,
    });
    (tally, shared)
}

#[test]
fn sequential_sharing_is_clean() {
    for seed in 0..12 {
        let (t, _) = total(TestbedParams::composed(1), Sharing::Sequential, seed);
        assert_eq!(t, Tally::default(), "seed {seed}");
    }
}

/// `params` with one of the four composed layers set as in `from`.
fn with_layer(params: TestbedParams, layer: usize, from: TestbedParams) -> TestbedParams {
    match layer {
        0 => TestbedParams {
            write_behind: from.write_behind,
            ..params
        },
        1 => TestbedParams {
            server_io: from.server_io,
            ..params
        },
        2 => TestbedParams {
            transport: from.transport,
            ..params
        },
        _ => TestbedParams {
            delegation: from.delegation,
            ..params
        },
    }
}

/// The ten columns, in table order: paper, composed, write-behind /
/// server I/O / transport / delegations alone over paper, then composed
/// without each of the four.
fn lattice() -> Vec<TestbedParams> {
    let paper = TestbedParams::paper(Protocol::Snfs, true);
    let composed = TestbedParams::composed(1);
    let mut cols = vec![paper, composed];
    cols.extend((0..4).map(|l| with_layer(paper, l, composed)));
    cols.extend((0..4).map(|l| with_layer(composed, l, paper)));
    cols
}

/// Stale reads, wrong reads, lost closed writes and failed system calls
/// per seed of concurrent sharing, one `stale wrong lost errors` cell per
/// column of `cols` (indices into [`lattice`]); a mismatch prints this
/// revision's table. The paper and composed columns run traced and must
/// pass the trace checker; returns, per column of `cols`, the transitions
/// into WRITE_SHARED its traced runs recorded.
fn concurrent_table(cols: &[usize], pinned: &str) -> Vec<usize> {
    let lattice = lattice();
    let mut table = String::new();
    let mut shared = vec![0; cols.len()];
    for seed in 100..112 {
        table += &format!("{seed}");
        for (i, &c) in cols.iter().enumerate() {
            let params = TestbedParams {
                trace: c < 2,
                ..lattice[c]
            };
            let (t, s) = total(params, Sharing::Concurrent, seed);
            table += &format!("  {} {} {} {}", t.stale, t.wrong, t.lost, t.errors);
            shared[i] += s;
        }
        table += "\n";
    }
    assert!(
        table == pinned,
        "concurrent sharing's findings moved; this revision's table:\n{table}"
    );
    shared
}

/// Paper, composed, and delegations alone over paper.
const PINNED: &str = "\
100  0 0 0 0  0 0 0 0  0 0 0 0
101  0 0 0 0  0 0 0 0  0 0 0 0
102  0 0 0 0  0 0 0 0  0 0 0 0
103  0 0 0 0  0 0 0 0  0 0 0 0
104  0 0 0 0  0 0 0 0  0 0 0 0
105  0 0 0 0  0 0 0 0  0 0 0 0
106  0 0 0 0  0 0 0 0  0 0 0 0
107  0 0 0 0  0 0 0 0  0 0 0 0
108  0 0 0 0  0 0 0 0  0 0 0 0
109  0 0 0 0  0 0 0 0  0 0 0 0
110  0 0 0 0  0 0 0 0  0 0 0 0
111  0 0 0 0  0 0 0 0  0 0 0 0
";

/// The traced paper and composed columns hold every transition to
/// Table 4-1, and on both stacks the concurrent writers take the state
/// table through WRITE_SHARED.
#[test]
fn concurrent_sharing_finds_what_is_pinned() {
    let shared = concurrent_table(&[0, 1, 5], PINNED);
    assert!(
        shared[0] > 0 && shared[1] > 0,
        "a traced column never entered WRITE_SHARED: {shared:?}"
    );
}

/// All ten columns of [`lattice`].
const LATTICE: &str = "\
100  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
101  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
102  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
103  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
104  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
105  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
106  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
107  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
108  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
109  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
110  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
111  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0  0 0 0 0
";

#[test]
#[ignore = "the whole lattice, 120 runs: scripts/check.sh runs it in release"]
fn concurrent_lattice_finds_what_is_pinned() {
    concurrent_table(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], LATTICE);
}
