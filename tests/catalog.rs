//! The experiment catalogue as a whole: its names, the files it claims,
//! its determinism, and the gate built on it (`spritely gate`).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::process::Command;

use spritely::harness::catalog::{self, slug_of, CATALOG};
use spritely::metrics::json;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|f| f.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn names_are_unique_slug_stable_and_match_the_committed_ledgers() {
    let names: BTreeSet<&str> = CATALOG.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), CATALOG.len(), "duplicate entry name");
    for e in CATALOG {
        assert_eq!(slug_of(e.name), e.name, "name is not its own slug");
        assert_eq!(catalog::find(e.name).map(|f| f.title), Some(e.title));
    }
    let ledgers: BTreeSet<String> = file_names(root())
        .into_iter()
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .collect();
    let expected: BTreeSet<String> = CATALOG.iter().map(|e| e.ledger_file()).collect();
    assert_eq!(ledgers, expected, "one committed ledger per entry, no more");
}

#[test]
fn runs_are_deterministic() {
    for name in ["table_5_4", "flush_latency", "ablation_state_limit"] {
        let entry = catalog::find(name).expect(name);
        let (a, b) = ((entry.run)(42), (entry.run)(42));
        assert_eq!(a.body, b.body, "{name}: body");
        assert_eq!(a.ledger, b.ledger, "{name}: ledger");
        assert_eq!(a.files, b.files, "{name}: auxiliary files");
        assert_eq!(a.failures, b.failures, "{name}: gate failures");
    }
}

/// Every entry holds against what is committed — what `spritely gate`
/// checks, in whatever build `cargo test` made — no artifact path is
/// written by two entries, and every file under `baselines/` is written
/// by exactly one. Every JSON file an entry leaves — its ledger,
/// stats snapshots, profiles, Chrome traces, and JSONL traces line by
/// line — parses with the workspace's one parser.
#[test]
fn the_committed_record_is_reproduced_and_every_baseline_is_claimed_once() {
    let mut writers: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    let mut parsed = BTreeSet::new();
    for entry in CATALOG {
        let outcome = (entry.run)(42);
        assert_eq!(
            catalog::check(root(), entry, &outcome),
            Vec::<String>::new(),
            "spritely gate {}",
            entry.name
        );
        let mut files = entry.artifacts(&outcome);
        for (file, _) in &files {
            writers.entry(file.clone()).or_default().push(entry.name);
        }
        let ledger = catalog::ledger_json(&outcome.ledger);
        files.push((entry.ledger_file(), ledger.into()));
        for (file, contents) in &files {
            let documents: Vec<&str> = match file.rsplit('.').next() {
                Some("json") => vec![contents],
                Some("jsonl") => contents.lines().collect(),
                _ => continue,
            };
            for (i, text) in documents.iter().enumerate() {
                if let Err(e) = json::parse(text) {
                    panic!("{}: {file}, document {i}: {e}\n{text}", entry.name);
                }
            }
            parsed.insert(file.split_once('.').expect("an extension").1.to_string());
        }
    }
    assert_eq!(
        parsed.iter().map(String::as_str).collect::<Vec<_>>(),
        ["chrome.json", "json", "jsonl"],
        "every kind of JSON artifact was exercised"
    );
    // No two entries may write the same path: the second would silently
    // overwrite the first on every `spritely run --all`.
    for (file, by) in &writers {
        assert_eq!(by.len(), 1, "artifacts/{file} is written by {by:?}");
    }
    // A stats document nothing compares gates nothing: every one an
    // entry files has its `baselines/` twin, which `check` holds it to.
    let baselines = file_names(&root().join("baselines"));
    for file in writers.keys() {
        if file.starts_with("stats_") && file.ends_with(".json") {
            assert!(baselines.contains(file), "no baselines/{file}");
        }
    }
    for file in baselines {
        // The nine that are not artifacts: the directory's own README,
        // the per-crate line-count report, the settable-field,
        // callerless-function, allocation-count, peak-heap, event-count
        // and profiler-phase ratchets of `scripts/check.sh`, and the
        // ledger of host-clock claims.
        const NOT_ARTIFACTS: [&str; 9] = [
            "README.md",
            "loc.txt",
            "knobs.txt",
            "callerless.txt",
            "allocs.txt",
            "peak_heap.txt",
            "trace_events.txt",
            "profile_phases.txt",
            "host_ledger.jsonl",
        ];
        if NOT_ARTIFACTS.contains(&file.as_str()) {
            continue;
        }
        let by = writers.get(&file).map_or(&[][..], Vec::as_slice);
        assert_eq!(by.len(), 1, "baselines/{file} is written by {by:?}");
    }
}

/// `spritely gate` over a copy of one committed ledger with one number
/// changed by hand: exit 1, naming the entry and the key.
#[test]
fn the_gate_fails_on_a_hand_edited_ledger() {
    let dir = std::env::temp_dir().join(format!("spritely-gate-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let gate = || {
        let out = Command::new(env!("CARGO_BIN_EXE_spritely"))
            .args(["gate", "table_5_4"])
            .current_dir(&dir)
            .output()
            .expect("run spritely");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    let committed = fs::read_to_string(root().join("BENCH_table_5_4.json")).unwrap();
    fs::write(dir.join("BENCH_table_5_4.json"), &committed).unwrap();
    let (code, stdout) = gate();
    assert_eq!(code, Some(0), "{stdout}");

    assert!(
        committed.contains("\"sort_2816k_snfs_rpcs\":419"),
        "{committed}"
    );
    let edited = committed.replace(
        "\"sort_2816k_snfs_rpcs\":419",
        "\"sort_2816k_snfs_rpcs\":420",
    );
    fs::write(dir.join("BENCH_table_5_4.json"), edited).unwrap();
    let (code, stdout) = gate();
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("table_5_4: BENCH_table_5_4.json sort_2816k_snfs_rpcs: 420 -> 419"),
        "{stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}
