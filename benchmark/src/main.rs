//! The repo's benchmark: five workloads on one composed stack, measured
//! on two clocks, with per-layer numbers from a traced pass.
//!
//! ```text
//! spritely-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (driver contract)
//! spritely-benchmark [--seed N] [--seconds S]                        the whole suite + kernels
//! spritely-benchmark --selfcheck [--seed N] [--seconds S]            the suite twice, compared
//! spritely-benchmark --manifest | --glossary                         BENCHMARK.json / README table
//! ```
//!
//! See `benchmark/README.md` for what every number means.

mod alloc;
mod calib;
mod kernels;
mod measure;
mod metrics;
mod probe;
mod run;
mod spans;
mod workloads;

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use measure::{measure, Measurement};
use metrics::{Clock, Def, Values, END_TO_END, PER_LAYER};
use workloads::{Entry, ALL, REPRODUCERS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What one run of the driver's command measures, in seconds. Fixed
/// here and in `BENCHMARK.json`; never adapted at run time.
const RUN_SECONDS: u64 = 20;
/// Budget per workload when the whole suite runs.
const SUITE_SECONDS: f64 = 8.0;
/// Share of a `--trace 1` run spent on the layer kernels.
const KERNEL_SHARE: f64 = 0.4;
/// Kernel sample length when the suite runs them once for all workloads.
const KERNEL_SAMPLE_SECS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    selfcheck: bool,
    manifest: bool,
    glossary: bool,
    /// Child mode: run one repetition and print its report.
    rep: bool,
    /// Child mode: where to write the repetition's span records.
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        selfcheck: false,
        manifest: false,
        glossary: false,
        rep: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--rep" => args.rep = true,
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--selfcheck" => args.selfcheck = true,
            "--manifest" => args.manifest = true,
            "--glossary" => args.glossary = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn entry(name: &str) -> Result<&'static Entry, String> {
    ALL.iter()
        .chain(REPRODUCERS)
        .find(|e| e.name == name)
        .ok_or_else(|| {
            let known: Vec<_> = ALL.iter().map(|e| e.name).collect();
            format!("unknown workload {name}; known: {}", known.join(", "))
        })
}

/// `BENCHMARK.json`, generated from the registry.
fn manifest() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = ALL
        .iter()
        .map(|e| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", e.name, e.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The metric glossary of `README.md`, generated from the registry.
fn glossary() -> String {
    let mut out = String::from(
        "| metric | unit | clock | better | bound | read from |\n|---|---|---|---|---|---|\n",
    );
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let bound = if d.bound > 0.0 {
            format!("{:.0} %", d.bound * 100.0)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {bound} | {} |\n",
            d.name,
            d.unit,
            d.clock.label(),
            d.better,
            d.source
        ));
    }
    out
}

fn print_values(defs: &[Def], values: &Values, spreads: &[(&'static str, measure::Spread)]) {
    for d in defs {
        let Some(v) = values.get(d.name) else {
            continue;
        };
        let spread = spreads.iter().find(|(n, _)| *n == d.name);
        match spread {
            Some((_, (q1, _, q3, n))) => println!(
                "  {:<34} {v:>16.4} {:<6} [{}]  q1 {q1:.4}  q3 {q3:.4}  n {n}",
                d.name,
                d.unit,
                d.clock.label()
            ),
            None => println!(
                "  {:<34} {v:>16.4} {:<6} [{}]",
                d.name,
                d.unit,
                d.clock.label()
            ),
        }
    }
}

/// `(failed, attempted)` operations over the fixed cycles.
fn failed_of(m: &Measurement) -> (f64, f64) {
    (m.checks["check.failed"], m.checks["check.attempted"])
}

fn print_outcome(e: &Entry, m: &Measurement) {
    let (failed, attempted) = failed_of(m);
    println!(
        "  {} cycles of 2 untraced + 1 traced repetition; [sim] numbers are means over the first {}",
        m.cycles, e.cycles
    );
    println!(
        "  [host] times are scaled to a machine on which the calibration loop takes {} ms; here it took {:.2} ms",
        calib::NOMINAL_MS,
        m.calibration_ms
    );
    println!(
        "  {:<34} {:>16.6} share  [sim]  {failed} of {attempted}: {} op failures, {} wrong reads, {} stale reads, {} final-state mismatches",
        "op_fail_share",
        failed / attempted.max(1.0),
        m.checks["check.op_failures"],
        m.checks["check.wrong_reads"],
        m.per_layer["core.stale_reads"],
        m.per_layer["core.final_state_mismatches"],
    );
}

/// A run is correct when no operation failed, no read was wrong or
/// stale, every final state matched, and the program's own invariant
/// checker found nothing in any trace.
fn correct(m: &Measurement) -> bool {
    m.failed == 0 && m.violations == 0
}

/// Where runs write, relative to the root of the checkout they are
/// started from.
const OUT_DIR: &str = "benchmark/out";

/// Makes the output directory; the path the traced repetition of
/// `name` writes its spans to.
fn spans_path(name: &str) -> Result<PathBuf, String> {
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    Ok(PathBuf::from(format!("{OUT_DIR}/spans_{name}.json")))
}

/// Child mode: one repetition, reported on standard output.
fn run_rep(args: &Args, name: &str) -> Result<(), String> {
    let rep = run::repetition(entry(name)?, args.seed, args.trace);
    if let Some(path) = &args.spans {
        fs::write(path, spans::to_chrome_json(&rep.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", run::report(&rep));
    Ok(())
}

/// The driver's contract: one workload, one JSON line last. With
/// `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
/// ones (part of the seconds then go to the layer kernels).
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let entry = entry(name)?;
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    println!(
        "workload {name}  seed {}  seconds {seconds}  trace {}",
        args.seed,
        u8::from(args.trace)
    );
    let (defs, m, values) = if args.trace {
        let spans = spans_path(name)?;
        let budget = seconds * (1.0 - KERNEL_SHARE);
        let m = measure(entry, args.seed, budget, Some(&spans));
        let kernel_runs = (kernels::SAMPLES * kernels::KERNELS) as f64;
        let mut values = kernels::run(seconds * KERNEL_SHARE / kernel_runs);
        values.extend(m.per_layer.clone());
        (PER_LAYER, m, values)
    } else {
        let m = measure(entry, args.seed, seconds, None);
        let values = m.end_to_end.clone();
        (END_TO_END, m, values)
    };
    print_values(defs, &values, &m.spreads);
    print_outcome(entry, &m);
    let json = metrics::result_json(defs, &values, correct(&m), m.attempted, m.failed);
    println!("{json}");
    Ok(())
}

/// Every workload once; `full` adds the per-layer numbers, the span
/// files, the kernels and `suite_seed<N>.json`.
fn suite(args: &Args, full: bool) -> Result<Vec<(&'static str, Measurement)>, String> {
    let seconds = args.seconds.unwrap_or(SUITE_SECONDS);
    let mut results = Vec::new();
    for e in ALL {
        println!("== {}  (seed {}, {seconds} s)", e.name, args.seed);
        let spans = if full {
            Some(spans_path(e.name)?)
        } else {
            None
        };
        let m = measure(e, args.seed, seconds, spans.as_deref());
        print_values(END_TO_END, &m.end_to_end, &m.spreads);
        print_outcome(e, &m);
        if full {
            print_values(PER_LAYER, &m.per_layer, &[]);
        }
        results.push((e.name, m));
    }
    if !full {
        return Ok(results);
    }
    println!(
        "== kernels  ({} samples of {KERNEL_SAMPLE_SECS} s each, median)",
        kernels::SAMPLES
    );
    let kernel_values = kernels::run(KERNEL_SAMPLE_SECS);
    for (name, value) in &kernel_values {
        println!("  {name:<34} {value:>16.4} ns     [host]");
    }
    let scale16 = run::repetition(entry("scale16")?, args.seed, true);
    let events = scale16.tracer.expect("traced repetition").finish();
    let (check, profile) = kernels::trace_passes(KERNEL_SAMPLE_SECS, &events);
    println!(
        "  {:<34} {check:>16.4} ns     [host]  per event of scale16's {}",
        "check_trace",
        events.len()
    );
    println!("  {:<34} {profile:>16.4} ns     [host]", "profile_trace");

    let rows: Vec<String> = results
        .iter()
        .map(|(name, m)| {
            let all = m
                .end_to_end
                .iter()
                .chain(&m.per_layer)
                .chain(&kernel_values);
            let metrics: Vec<String> = all.map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("\"{name}\": {{{}}}", metrics.join(", "))
        })
        .collect();
    let path = format!("{OUT_DIR}/suite_seed{}.json", args.seed);
    fs::write(&path, format!("{{\n{}\n}}\n", rows.join(",\n")))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {OUT_DIR}/");
    Ok(results)
}

/// The suite twice, back to back: simulated-clock metrics and the
/// failure counts must agree exactly, host-clock metrics within their
/// bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = suite(args, false)?;
    let second = suite(args, false)?;
    let mut ok = true;
    println!("== selfcheck: second run against first");
    println!(
        "  {:<10} {:<24} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for d in END_TO_END {
            let (x, y) = (a.end_to_end[d.name], b.end_to_end[d.name]);
            let diff = (y - x) / x;
            let exact = d.clock == Clock::Sim;
            let pass = if exact { x == y } else { diff.abs() <= d.bound };
            ok &= pass;
            println!(
                "  {name:<10} {:<24} {x:>16.4} {y:>16.4} {:>8.2}% {:>6}%  {}",
                d.name,
                diff * 100.0,
                if exact { 0.0 } else { d.bound * 100.0 },
                if pass { "ok" } else { "FAIL" }
            );
        }
        let (fa, fb) = (failed_of(a), failed_of(b));
        ok &= fa == fb;
        println!(
            "  {name:<10} {:<24} {:>16} {:>16}  {}",
            "failed/attempted",
            format!("{}/{}", fa.0, fa.1),
            format!("{}/{}", fb.0, fb.1),
            if fa == fb { "ok" } else { "FAIL" }
        );
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.manifest {
            print!("{}", manifest());
        } else if args.glossary {
            print!("{}", glossary());
        } else if args.selfcheck {
            return selfcheck(&args);
        } else if let Some(name) = &args.workload {
            if args.rep {
                run_rep(&args, name)?;
            } else {
                run_one(&args, name)?;
            }
        } else {
            suite(&args, true)?;
        }
        Ok(true)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
