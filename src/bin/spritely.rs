//! Command-line front end: run, list and gate the experiment catalogue
//! (`spritely::harness::catalog` — every table, figure, ablation and
//! layer study, defined once), plus the trace tools. [`USAGE`] is the
//! reference.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use spritely::harness::catalog::{self, slug_of, Entry, Outcome, CATALOG};
use spritely::harness::{compare_json, run_matrix};

const USAGE: &str = "usage: spritely <command> [--seed N] [--threads N]\n\
    commands:\n\
    \x20 list         every experiment in the catalogue: name and title\n\
    \x20 run <name>... | --all\n\
    \x20              run experiments: print the artifact, write artifacts/ and the\n\
    \x20              ledger BENCH_<name>.json; exit 1 if a gate condition failed\n\
    \x20              (the committed record is seed 42, the default)\n\
    \x20 table 5-1 | figure 5-2 | scaling | ...\n\
    \x20              any words that slug to an experiment's name run it\n\
    \x20 gate [<name>...]\n\
    \x20              run every (or the named) experiment at seed 42 and compare with\n\
    \x20              what is committed: gate conditions, baselines/ byte for byte,\n\
    \x20              BENCH_<name>.json key for key; exit 1 on any difference\n\
    \x20              (run and gate spread experiments over --threads workers, by\n\
    \x20              default one per core, and report in catalogue order)\n\
    \x20 profile <name>\n\
    \x20              run an experiment; print the phase-attribution table of every\n\
    \x20              trace it checks and write artifacts/profile_<key>.json\n\
    \x20 compare <a.json> <b.json> [--threshold PCT]\n\
    \x20              diff two snapshot/ledger JSONs; exit 1 if a key came or went or\n\
    \x20              a number moved by more than PCT % (default 10)";

/// A parsed command line: positional words in order, flags by name.
#[derive(Debug, PartialEq)]
struct Cli {
    words: Vec<String>,
    seed: u64,
    threads: Option<usize>,
    threshold_pct: Option<f64>,
    all: bool,
}

/// Flags may come anywhere; everything else is positional, in order. A
/// flag with a missing or malformed value is an error, as is an unknown
/// flag — nothing falls back silently.
fn parse(args: &[String]) -> Result<Cli, String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: {v:?} is not a valid value"))
    }
    let mut cli = Cli {
        words: Vec::new(),
        seed: 42,
        threads: None,
        threshold_pct: None,
        all: false,
    };
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => cli.seed = value(a, args.next())?,
            "--threads" => cli.threads = Some(value(a, args.next())?),
            "--threshold" => cli.threshold_pct = Some(value(a, args.next())?),
            "--all" => cli.all = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => cli.words.push(word.to_string()),
        }
    }
    Ok(cli)
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Runs `f` over the named entries, or over the whole catalogue when
/// no name is given; an unknown name is a usage error.
fn with_entries(names: &[&str], f: impl FnOnce(&[&Entry]) -> ExitCode) -> ExitCode {
    if names.is_empty() {
        return f(&CATALOG.iter().collect::<Vec<_>>());
    }
    let named: Result<Vec<&Entry>, &str> =
        names.iter().map(|&n| catalog::find(n).ok_or(n)).collect();
    match named {
        Ok(entries) => f(&entries),
        Err(n) => usage_error(&format!("no experiment named {n:?} (see `spritely list`)")),
    }
}

fn list() {
    for e in CATALOG {
        println!("{:<24} {}", e.name, e.title);
    }
}

/// Runs `entries` at `seed` over `threads` workers: each outcome, with
/// the host seconds it took, in the order of `entries`.
fn outcomes(entries: &[&Entry], seed: u64, threads: usize) -> Vec<(Outcome, f64)> {
    run_matrix(entries.len(), threads, |i| {
        let t0 = Instant::now();
        let outcome = (entries[i].run)(seed);
        (outcome, t0.elapsed().as_secs_f64())
    })
}

fn run(entries: &[&Entry], seed: u64, threads: usize) -> ExitCode {
    let mut failed = false;
    for (entry, (outcome, _)) in entries.iter().zip(outcomes(entries, seed, threads)) {
        catalog::print(entry, &outcome);
        // A read-only checkout gets a warning, not a failure.
        if let Err(e) = catalog::write(Path::new("."), entry, &outcome) {
            eprintln!("warning: could not write the record of {}: {e}", entry.name);
        }
        for failure in &outcome.failures {
            eprintln!("GATE {}: {failure}", entry.name);
        }
        failed |= !outcome.failures.is_empty();
    }
    ExitCode::from(failed as u8)
}

fn gate(entries: &[&Entry], threads: usize) -> ExitCode {
    let root = Path::new(".");
    let started = Instant::now();
    let mut failures = 0;
    for (entry, (outcome, secs)) in entries.iter().zip(outcomes(entries, 42, threads)) {
        // Left behind so a failure can be diffed against baselines/.
        let written = catalog::write_files(&root.join("artifacts"), &entry.artifacts(&outcome));
        if let Err(e) = written {
            eprintln!(
                "warning: could not write artifacts/ for {}: {e}",
                entry.name
            );
        }
        let bad = catalog::check(root, entry, &outcome);
        println!(
            "{} {:<24} {secs:>5.2} s",
            if bad.is_empty() { "ok  " } else { "FAIL" },
            entry.name,
        );
        for line in &bad {
            println!("     {line}");
        }
        failures += bad.len();
    }
    println!(
        "gate: {} experiment(s) on {threads} thread(s), {failures} failure(s), {:.1} s",
        entries.len(),
        started.elapsed().as_secs_f64()
    );
    ExitCode::from((failures > 0) as u8)
}

/// Prints the phase attribution of every trace `entry` checks and writes
/// each as `artifacts/profile_<key>.json`, the key the ledger files the
/// trace under; an entry that checks no trace is a usage error.
fn profile(entry: &Entry, seed: u64) -> ExitCode {
    let outcome = (entry.run)(seed);
    if outcome.profiles.is_empty() {
        let name = entry.name;
        return usage_error(&format!(
            "{name} checks no trace, so there is nothing to profile"
        ));
    }
    let mut files = Vec::new();
    for p in outcome.profiles {
        let (name, what) = (entry.name, p.what);
        println!(
            "Latency profile: {name}, {what} (seed {seed})\n\n{}",
            p.table
        );
        files.push((format!("profile_{}.json", p.key), p.json));
    }
    // A read-only checkout gets a warning, not a failure.
    match catalog::write_files(Path::new("artifacts"), &files) {
        Ok(()) => files
            .iter()
            .for_each(|(name, _)| println!("wrote artifacts/{name}")),
        Err(e) => eprintln!("warning: could not write under artifacts/: {e}"),
    }
    ExitCode::SUCCESS
}

fn compare(a: &str, b: &str, threshold_pct: Option<f64>) -> ExitCode {
    let rel_threshold = threshold_pct.unwrap_or(10.0) / 100.0;
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let report = read(a).and_then(|ta| compare_json(&ta, &read(b)?, rel_threshold));
    match report {
        Ok(r) => {
            print!("{}", r.render());
            ExitCode::from(!r.ok() as u8)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => return usage_error(&e),
    };
    let words: Vec<&str> = cli.words.iter().map(String::as_str).collect();
    let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cli.threads.unwrap_or_else(cores).max(1);
    match words.as_slice() {
        ["list"] => {
            list();
            ExitCode::SUCCESS
        }
        ["run"] if !cli.all => usage_error("run needs experiment names or --all"),
        ["run", names @ ..] => with_entries(names, |entries| run(entries, cli.seed, threads)),
        ["gate", names @ ..] => with_entries(names, |entries| gate(entries, threads)),
        ["profile", name] => with_entries(&[name], |entries| profile(entries[0], cli.seed)),
        ["compare", a, b] => compare(a, b, cli.threshold_pct),
        [] => usage_error("no command"),
        // `table 5-1`, `figure 5-2`, `micro reopen`, `scaling`, ...
        sugar => match catalog::find(&slug_of(&sugar.join(" "))) {
            Some(entry) => run(&[entry], cli.seed, threads),
            None => usage_error(&format!("unknown command {:?}", sugar.join(" "))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_anywhere_and_positionals_keep_their_order() {
        let c = cli(&["--seed", "7", "table", "5-1"]).unwrap();
        assert_eq!(
            (c.seed, c.words),
            (7, vec!["table".to_string(), "5-1".to_string()])
        );
        let c = cli(&["table", "--seed", "7", "5-1"]).unwrap();
        assert_eq!((c.seed, c.words.len()), (7, 2));
        // A bare number is a positional like any other word.
        let c = cli(&["compare", "1", "2", "--threshold", "2.5"]).unwrap();
        assert_eq!(c.words, ["compare", "1", "2"]);
        assert_eq!(c.threshold_pct, Some(2.5));
        assert_eq!(c.seed, 42);
        let c = cli(&["run", "--all", "--threads", "3"]).unwrap();
        assert!(c.all);
        assert_eq!(c.threads, Some(3));
    }

    #[test]
    fn malformed_missing_and_unknown_flags_are_errors() {
        assert_eq!(
            cli(&["table", "5-1", "--seed", "x"]).unwrap_err(),
            "--seed: \"x\" is not a valid value"
        );
        assert_eq!(
            cli(&["gate", "--threads"]).unwrap_err(),
            "--threads needs a value"
        );
        assert_eq!(
            cli(&["gate", "--threads", "-1"]).unwrap_err(),
            "--threads: \"-1\" is not a valid value"
        );
        assert_eq!(
            cli(&["compare", "a", "b", "--threshold", "ten"]).unwrap_err(),
            "--threshold: \"ten\" is not a valid value"
        );
        assert_eq!(cli(&["run", "--al"]).unwrap_err(), "unknown flag --al");
    }

    #[test]
    fn name_sugar_resolves_through_the_one_slug() {
        for (words, name) in [
            ("table 5-1", "table_5_1"),
            ("figure 5-2", "figure_5_2"),
            ("micro reopen", "micro_reopen"),
            ("scaling", "scaling"),
        ] {
            assert_eq!(catalog::find(&slug_of(words)).map(|e| e.name), Some(name));
        }
    }
}
