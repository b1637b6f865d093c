//! `cargo bench -p spritely-bench [-- <name>...]`: for every catalogue
//! entry (or those whose name contains one of the given words) run it at
//! seed 42, print it, leave its artifacts and ledger in the workspace —
//! what `spritely run` does — then time that run (host wall-clock, a
//! sanity signal; `benchmark/` is the instrument for host cost). Exits
//! non-zero if any entry failed a gate condition.

use std::path::Path;
use std::process::ExitCode;

use spritely_harness::catalog::{self, CATALOG};

fn main() -> ExitCode {
    // Cargo passes `--bench`; bare words select entries.
    let words: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut criterion = spritely_bench::config();
    let mut failed = false;
    for entry in CATALOG {
        if !words.is_empty() && !words.iter().any(|w| entry.name.contains(w.as_str())) {
            continue;
        }
        failed |= !catalog::regenerate(&root, entry, 42).failures.is_empty();
        criterion
            .benchmark_group(entry.name)
            .bench_function("run", |b| b.iter(|| (entry.run)(42)));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
