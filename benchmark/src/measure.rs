//! The measurement loop: one discarded warm-up repetition, then cycles
//! of two untraced and one traced repetition, each in a child process,
//! until the time budget is spent.
//!
//! Simulated-clock numbers must be identical in the three repetitions
//! of a cycle — same seed, and tracing is execution-identical — any
//! difference is a hard failure. Host-clock numbers are reported as
//! medians, with quartiles and sample count.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use spritely::sim::SimRng;

use crate::metrics::{median, quartiles, Values};
use crate::workloads::Entry;

/// A repetition still running after this much host time is killed and
/// is a hard failure: the simulation spins without advancing its clock
/// (the child enforces the simulated-time ceiling itself).
const REP_HOST_LIMIT: Duration = Duration::from_secs(120);

/// A hard failure: the benchmark cannot vouch for its own numbers.
fn hard_failure(what: &str) -> ! {
    eprintln!("benchmark: HARD FAILURE: {what}");
    std::process::exit(2);
}

/// One child's parsed report.
#[derive(Default)]
struct Report {
    host: Values,
    sim: Values,
    trace: Values,
}

/// Runs one repetition in a child process and parses what it printed.
fn spawn(entry: &Entry, seed: u64, traced: bool, spans: Option<&Path>) -> Report {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--rep", "--workload", entry.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start a repetition");
    // The report is a few KB, well inside the pipe's buffer, so the
    // child never blocks on it and can be polled. Every path out of
    // this loop has waited for the child: none outlives the benchmark.
    let started = Instant::now();
    while child.try_wait().expect("poll a repetition").is_none() {
        if started.elapsed() > REP_HOST_LIMIT {
            child.kill().ok();
            child.wait().ok();
            hard_failure(&format!(
                "{}: a repetition of seed {seed} was killed after {REP_HOST_LIMIT:?}",
                entry.name
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let out = child.wait_with_output().expect("collect a repetition");
    if !out.status.success() {
        hard_failure(&format!(
            "{}: a repetition of seed {seed} ended with {}\n{}",
            entry.name,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut report = Report::default();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut words = line.split(' ');
        let (Some(kind), Some(name), Some(value)) = (words.next(), words.next(), words.next())
        else {
            hard_failure(&format!("unreadable report line {line:?}"));
        };
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| hard_failure(&format!("unreadable report line {line:?}")));
        let map = match kind {
            "host" => &mut report.host,
            "sim" => &mut report.sim,
            "trace" => &mut report.trace,
            _ => hard_failure(&format!("unreadable report line {line:?}")),
        };
        map.insert(name.to_string(), value);
    }
    report
}

/// The names on which two reports disagree.
fn disagreements(a: &Values, b: &Values) -> Vec<String> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
        .collect()
}

/// `(q1, median, q3, n)` of one host-clock sample set.
pub type Spread = (f64, f64, f64, usize);

/// Everything measured for one workload and one seed.
pub struct Measurement {
    pub end_to_end: Values,
    /// The per-layer metrics except the kernels.
    pub per_layer: Values,
    /// The checks' tallies (`check.*`), summed over the fixed cycles.
    pub checks: Values,
    /// Cycles completed (the fixed ones and those the budget allowed).
    pub cycles: usize,
    /// Median raw calibration time: the host's speed during the run.
    pub calibration_ms: f64,
    /// Quartiles and sample count behind each host-clock number.
    pub spreads: Vec<(&'static str, Spread)>,
    /// Operations attempted and failed, summed over every untraced
    /// repetition, and trace-checker violations over every traced one.
    pub attempted: u64,
    pub failed: u64,
    pub violations: u64,
}

/// The sum of each name over `maps` (all maps carry the same names).
fn sums(maps: &[Values]) -> Values {
    let mut out = Values::new();
    for map in maps {
        for (name, value) in map {
            *out.entry(name.clone()).or_insert(0.0) += value;
        }
    }
    out
}

/// Measures `entry` for about `seconds` of host time.
///
/// One input would make every number hostage to its seed (Andrew's
/// server disk writes vary by a third from seed to seed), so a run
/// measures a population: `seed` yields a sequence of sub-seeds, and
/// each is run as one *cycle* — two untraced repetitions and a traced
/// one, which must agree exactly on the simulated clock. The
/// simulated-clock metrics are means over the first `entry.cycles`
/// cycles, a fixed set, so they depend on `seed` alone and two commits
/// compare exactly. Cycles go on (over further sub-seeds) until the
/// time is up; the host-clock metrics are medians over every
/// repetition.
///
/// `spans`, if given, is where the first traced repetition writes its
/// span records.
pub fn measure(entry: &Entry, seed: u64, seconds: f64, spans: Option<&Path>) -> Measurement {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let sub_seeds = SimRng::new(seed);
    spawn(entry, seed, false, None); // warm-up, discarded
    let mut untraced: Vec<Values> = Vec::new();
    let mut traced: Vec<Values> = Vec::new();
    let mut sims: Vec<Values> = Vec::new();
    let mut traces: Vec<Values> = Vec::new();
    let (mut attempted, mut failed, mut violations) = (0.0, 0.0, 0.0);
    for cycle in 0.. {
        if cycle >= entry.cycles && Instant::now() >= deadline {
            break;
        }
        let sub = sub_seeds.range_u64(0, 1 << 32);
        let first = spawn(entry, sub, false, None);
        for is_traced in [false, true] {
            let again = spawn(
                entry,
                sub,
                is_traced,
                spans.filter(|_| is_traced && cycle == 0),
            );
            let moved = disagreements(&first.sim, &again.sim);
            if !moved.is_empty() {
                hard_failure(&format!(
                    "{}: {} repetition of sub-seed {sub} (seed {seed}) differs from the first on the simulated clock:\n  {}",
                    entry.name,
                    if is_traced { "the traced" } else { "the second" },
                    moved.join("\n  ")
                ));
            }
            if is_traced {
                traced.push(again.host);
                traces.push(again.trace);
            } else {
                untraced.push(again.host);
            }
        }
        let found = traces.last().map_or(0.0, |t| t["trace.violations"]);
        if first.sim["check.failed"] + found > 0.0 {
            eprintln!(
                "benchmark: {} sub-seed {sub} (seed {seed}): {} failed operations, {found} trace violations",
                entry.name, first.sim["check.failed"]
            );
        }
        attempted += 2.0 * first.sim["check.attempted"];
        failed += 2.0 * first.sim["check.failed"];
        violations += found;
        untraced.push(first.host);
        sims.push(first.sim);
    }
    sims.truncate(entry.cycles);
    traces.truncate(entry.cycles);

    let of =
        |reps: &[Values], f: &dyn Fn(&Values) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let samples: Vec<(&'static str, Vec<f64>)> = vec![
        ("setup_s", of(&untraced, &|r| r["setup_s"])),
        ("host_run_ms", of(&untraced, &|r| r["window_ms"])),
        (
            "host_traced_run_ms",
            of(&traced, &|r| {
                r["window_ms"] + r["snapshot_ms"] + r["check_ms"] + r["profile_ms"]
            }),
        ),
        ("host_allocs_per_run", of(&untraced, &|r| r["allocs"])),
        ("host_peak_heap_mb", of(&untraced, &|r| r["peak_heap_mb"])),
    ];
    let calibration_ms = median(&of(&untraced, &|r| r["calibration_ms"]));
    let mut end_to_end: Values = samples
        .iter()
        .map(|(n, s)| (n.to_string(), median(s)))
        .collect();
    let spreads = samples
        .iter()
        .map(|(n, s)| {
            let (q1, q2, q3) = quartiles(s);
            (*n, (q1, q2, q3, s.len()))
        })
        .collect();

    // The simulated-clock numbers of the fixed cycles split three ways:
    // the checks' tallies stay sums, the end-to-end metrics and the
    // per-layer numbers become means.
    let n = sims.len() as f64;
    let trace: Values = sums(&traces).into_iter().map(|(k, v)| (k, v / n)).collect();
    let mut per_layer = trace.clone();
    let mut checks = Values::new();
    for (name, total) in sums(&sims) {
        if name.starts_with("check.") {
            checks.insert(name, total);
        } else if name.starts_with("sim_") {
            end_to_end.insert(name, total / n);
        } else {
            per_layer.insert(name, total / n);
        }
    }
    let run_ms = end_to_end["host_run_ms"];
    let traced_window_ms = median(&of(&traced, &|r| r["window_ms"]));
    let per_event = |ms: f64, events: f64| {
        if events == 0.0 {
            0.0
        } else {
            ms * 1e6 / events
        }
    };
    let total_events = trace["trace.total_events"];
    per_layer.remove("trace.total_events");
    for (name, value) in [
        (
            "sim.host_ns_per_event",
            per_event(run_ms, per_layer["sim.events_retired"]),
        ),
        (
            "trace.overhead_share",
            end_to_end["host_traced_run_ms"] / run_ms - 1.0,
        ),
        (
            "trace.record_ns_per_event",
            per_event(traced_window_ms - run_ms, trace["trace.events"]),
        ),
        (
            "trace.check_ns_per_event",
            per_event(median(&of(&traced, &|r| r["check_ms"])), total_events),
        ),
        (
            "trace.profile_ns_per_event",
            per_event(median(&of(&traced, &|r| r["profile_ms"])), total_events),
        ),
    ] {
        per_layer.insert(name.to_string(), value);
    }

    Measurement {
        end_to_end,
        per_layer,
        checks,
        spreads,
        cycles: untraced.len() / 2,
        calibration_ms,
        attempted: attempted as u64,
        failed: failed as u64,
        violations: violations as u64,
    }
}
