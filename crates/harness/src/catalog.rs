//! The experiment catalogue: every table, figure, ablation and layer
//! study of the evaluation, defined once.
//!
//! An [`Entry`] is a name, a title and a `run(seed)` that performs the
//! experiment and hands back an [`Outcome`]: the rendered artifact, the
//! ledger fields, the auxiliary files (traces, stats snapshots, extra
//! titled sections) and the gate conditions it failed. Everything else
//! is a consumer of [`CATALOG`]:
//!
//! * `spritely run <name>|--all` prints an outcome and [`write()`]s it —
//!   `artifacts/` plus the committed perf ledger `BENCH_<name>.json`;
//! * `spritely gate` runs every entry at seed 42 and [`check`]s it
//!   against what is committed (`baselines/`, the ledgers); both fan the
//!   entries out over threads with [`crate::run_matrix`];
//! * `spritely profile <name>` prints the [`Outcome::profiles`] of the
//!   traces an entry checked;
//! * `tests/paper_baselines.rs`, `tests/catalog.rs` and `tests/matrix.rs`
//!   look entries up by name.
//!
//! Absolute numbers are the simulator's; the *shape* (who wins, by what
//! factor) is what reproduces the paper. EXPERIMENTS.md holds the
//! side-by-side record.

use std::borrow::Cow;
use std::fs;
use std::io;
use std::path::Path;

use spritely_metrics::json::Writer;
use spritely_trace::{profile_trace, Profile};

use crate::compare::compare_json;
use crate::report;
use crate::snapshot::TraceReport;

mod ablations;
mod layers;
mod paper;

pub use paper::andrew_runs;

/// One experiment of the evaluation.
pub struct Entry {
    /// Stable identifier: the CLI argument and the `<name>` of
    /// `BENCH_<name>.json`.
    pub name: &'static str,
    /// First line of the artifact; [`slug_of`] it names the artifact file
    /// (see [`Entry::artifacts`] for the one exception).
    pub title: &'static str,
    /// Performs the experiment: a pure function of `seed`.
    pub run: fn(seed: u64) -> Outcome,
}

/// What one run of an [`Entry`] produced. Plain text, so that it can
/// cross threads.
#[derive(Debug, Default, PartialEq)]
pub struct Outcome {
    /// The artifact under the entry's title.
    pub body: String,
    /// Ledger fields as `(key, raw JSON value)`, spliced in verbatim.
    pub ledger: Vec<(String, String)>,
    /// Auxiliary files as `(file name, contents)`.
    pub files: Vec<(String, String)>,
    /// Gate conditions this run failed; empty on a healthy run.
    pub failures: Vec<String>,
    /// The phase attribution of every trace the run's invariant checker
    /// gated, in the order checked.
    pub profiles: Vec<TraceProfile>,
}

/// The profiler's attribution of one checked trace, rendered: a
/// [`Profile`] holds `Rc`s and may not cross threads.
#[derive(Debug, PartialEq)]
pub struct TraceProfile {
    /// The ledger key the trace was checked under.
    pub key: String,
    /// What the trace is a trace of.
    pub what: String,
    /// [`report::profile_table`] of the profile.
    pub table: String,
    /// [`Profile::to_json`].
    pub json: String,
}

impl Outcome {
    fn field(&mut self, key: impl Into<String>, value: impl ToString) {
        self.ledger.push((key.into(), value.to_string()));
    }

    fn file(&mut self, name: &str, contents: String) {
        self.files.push((name.to_string(), contents));
    }

    /// A second titled artifact of the same run, filed like the first.
    fn section(&mut self, title: &str, body: &str) {
        self.file(&format!("{}.txt", slug_of(title)), rendered(title, body));
    }

    fn gate(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Gate: the invariant checker accepted this traced run. Also files
    /// the run's event count and digest under `<key>_trace_*`, so the
    /// ledger pins the order of events and not only the counters, and
    /// keeps the trace's profile, which it returns.
    fn clean_trace(&mut self, key: &str, what: &str, trace: &TraceReport) -> Profile {
        self.field(format!("{key}_trace_events"), trace.events.len());
        self.field(
            format!("{key}_trace_fnv"),
            format!("\"{:016x}\"", trace.fnv()),
        );
        self.gate(trace.ok(), || {
            format!(
                "trace checker found violations in {what}:\n{}",
                report::trace_summary(trace)
            )
        });
        let profile = profile_trace(&trace.events);
        self.profiles.push(TraceProfile {
            key: key.to_string(),
            what: what.to_string(),
            table: report::profile_table(&profile),
            json: profile.to_json(),
        });
        profile
    }
}

/// Every experiment, in the order `run --all` and `gate` visit them.
pub const CATALOG: &[Entry] = &[
    paper::TABLE_5_1,
    paper::TABLE_5_2,
    paper::FIGURE_5_1,
    paper::FIGURE_5_2,
    paper::TABLE_5_3,
    paper::TABLE_5_4,
    paper::TABLE_5_5,
    paper::TABLE_5_6,
    paper::MICRO_REOPEN,
    layers::FLUSH_LATENCY,
    ablations::CLOSE_BUG,
    ablations::DELAYED_CLOSE,
    ablations::WRITE_DELAY,
    ablations::PROBE_INTERVAL,
    ablations::STATE_LIMIT,
    ablations::NAME_CACHE,
    layers::SCALING,
    layers::SERVER_SCALING,
    layers::RPC_TRANSPORT,
    layers::CHAOS_ENTRY,
    layers::OPEN_CHURN,
];

/// Looks an entry up by name.
pub fn find(name: &str) -> Option<&'static Entry> {
    CATALOG.iter().find(|e| e.name == name)
}

/// Filename and ledger-key slug: the part of the text before any ':',
/// lowercased, runs of non-alphanumerics collapsed to single '_'.
pub fn slug_of(text: &str) -> String {
    let head = text.split(':').next().unwrap_or(text);
    let mut out = String::new();
    for c in head.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// The text of a titled artifact file.
pub fn rendered(title: &str, body: &str) -> String {
    format!("{title}\n{body}\n")
}

/// The ledger document for `fields`.
pub fn ledger_json(fields: &[(String, String)]) -> String {
    let mut w = Writer::default();
    w.obj(|w| {
        w.key("schema").num(1);
        for (k, v) in fields {
            w.key(k).raw(v);
        }
    });
    w.out.push('\n');
    w.out
}

impl Entry {
    /// The committed perf ledger of this entry, at the repository root.
    pub fn ledger_file(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// The files `o` leaves under `artifacts/`, ledger aside: the titled
    /// artifact first, then the auxiliary files.
    pub fn artifacts<'a>(&self, o: &'a Outcome) -> Vec<(String, Cow<'a, str>)> {
        // The title's slug names the artifact — unless entries share it
        // (the six `Ablation: ...` titles), where the last to run would
        // overwrite the others: there the entry's name does.
        let slug = slug_of(self.title);
        let shared = CATALOG.iter().filter(|e| slug_of(e.title) == slug).count() > 1;
        let stem = if shared { self.name } else { &slug };
        let main = (
            format!("{stem}.txt"),
            Cow::Owned(rendered(self.title, &o.body)),
        );
        let aux = o
            .files
            .iter()
            .map(|(name, contents)| (name.clone(), Cow::Borrowed(contents.as_str())));
        std::iter::once(main).chain(aux).collect()
    }
}

/// Prints the titled artifact and every auxiliary text section.
pub fn print(entry: &Entry, o: &Outcome) {
    println!(
        "\n================ {} ================\n{}",
        entry.title, o.body
    );
    for (name, contents) in &o.files {
        if name.ends_with(".txt") {
            println!("\n{contents}");
        }
    }
}

/// Writes `files` under `dir`, creating it (and any sub-directory a
/// name carries) on demand.
pub fn write_files(dir: &Path, files: &[(String, impl AsRef<str>)]) -> io::Result<()> {
    for (name, contents) in files {
        let path = dir.join(name);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, contents.as_ref())?;
    }
    Ok(())
}

/// Leaves the record of one run under `root`: every artifact and a copy
/// of the ledger in `artifacts/` (gitignored; `baselines/` holds the
/// committed snapshot), and the ledger itself at `root`, where it is
/// committed and [`check`]ed.
pub fn write(root: &Path, entry: &Entry, o: &Outcome) -> io::Result<()> {
    let ledger = [(entry.ledger_file(), ledger_json(&o.ledger))];
    write_files(root, &ledger)?;
    write_files(&root.join("artifacts"), &ledger)?;
    write_files(&root.join("artifacts"), &entry.artifacts(o))
}

/// Holds one outcome to what is committed under `root` and returns one
/// line per failure, each naming the entry: the run's own gate
/// conditions; every artifact that has a `baselines/` twin, byte for
/// byte; and the ledger against `BENCH_<name>.json`, every key exact.
pub fn check(root: &Path, entry: &Entry, o: &Outcome) -> Vec<String> {
    let name = entry.name;
    let mut bad: Vec<String> = o.failures.iter().map(|f| format!("{name}: {f}")).collect();
    for (file, contents) in entry.artifacts(o) {
        if fs::read_to_string(root.join("baselines").join(&file)).is_ok_and(|c| c != *contents) {
            bad.push(format!("{name}: {file} differs from baselines/{file}"));
        }
    }
    let file = entry.ledger_file();
    let diffs = fs::read_to_string(root.join(&file))
        .map_err(|e| format!("cannot read the committed ledger: {e}"))
        .and_then(|committed| compare_json(&committed, &ledger_json(&o.ledger), 0.0));
    match diffs {
        Err(e) => bad.push(format!("{name}: {file}: {e}")),
        Ok(r) => bad.extend(
            r.diffs
                .iter()
                .map(|d| format!("{name}: {file} {}: {} -> {}", d.path, d.a, d.b)),
        ),
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_stable() {
        assert_eq!(
            slug_of("Table 5-2: RPC calls for the Andrew benchmark"),
            "table_5_2"
        );
        assert_eq!(
            slug_of("Flush latency: 64-block write-back"),
            "flush_latency"
        );
        assert_eq!(slug_of("Figure 5-1: server utilization"), "figure_5_1");
        assert_eq!(
            slug_of("andrew SNFS tmp-loc seed=1"),
            "andrew_snfs_tmp_loc_seed_1"
        );
    }

    const FAKE: Entry = Entry {
        name: "fake",
        title: "Fake: a stand-in",
        run: |seed| {
            let mut o = Outcome {
                body: "body".to_string(),
                ..Outcome::default()
            };
            o.field("n", seed);
            o.gate(seed == 42, || format!("seed {seed} is not 42"));
            o
        },
    };

    /// A scratch root holding one committed ledger and one baseline.
    fn scratch(tag: &str, ledger: &str, baseline: &str) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("spritely-catalog-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        write_files(
            &root,
            &[
                ("BENCH_fake.json".to_string(), ledger.to_string()),
                ("baselines/fake.txt".to_string(), baseline.to_string()),
            ],
        )
        .expect("scratch root");
        root
    }

    #[test]
    fn check_names_the_entry_and_what_moved() {
        let good = (FAKE.run)(42);
        let committed = ledger_json(&good.ledger);
        let text = rendered(FAKE.title, "body");

        let root = scratch("ok", &committed, &text);
        assert_eq!(check(&root, &FAKE, &good), Vec::<String>::new());

        // A failed gate condition.
        let bad = check(&root, &FAKE, &(FAKE.run)(7));
        let _ = fs::remove_dir_all(root);
        assert!(
            bad.contains(&"fake: seed 7 is not 42".to_string()),
            "{bad:?}"
        );
        assert!(
            bad.contains(&"fake: BENCH_fake.json n: 42 -> 7".to_string()),
            "{bad:?}"
        );

        // A drifted baseline, a hand-edited ledger, a missing ledger.
        let edited = concat!(r#"{"schema":1,"n":43}"#, "\n");
        let root = scratch("drift", edited, "Fake: a stand-in\nold\n");
        assert_eq!(
            check(&root, &FAKE, &good),
            [
                "fake: fake.txt differs from baselines/fake.txt",
                "fake: BENCH_fake.json n: 43 -> 42"
            ]
        );
        fs::remove_file(root.join("BENCH_fake.json")).unwrap();
        let bad = check(&root, &FAKE, &good);
        assert!(
            bad[1].starts_with("fake: BENCH_fake.json: cannot read"),
            "{bad:?}"
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn write_leaves_artifacts_and_the_root_ledger() {
        let root = scratch("write", "", "");
        let mut o = (FAKE.run)(42);
        o.section("Extra section: more", "x");
        write(&root, &FAKE, &o).unwrap();
        let read = |p: &str| fs::read_to_string(root.join(p)).unwrap();
        assert_eq!(read("artifacts/fake.txt"), "Fake: a stand-in\nbody\n");
        assert_eq!(
            read("artifacts/extra_section.txt"),
            "Extra section: more\nx\n"
        );
        assert_eq!(
            read("BENCH_fake.json"),
            concat!(r#"{"schema":1,"n":42}"#, "\n")
        );
        assert_eq!(read("artifacts/BENCH_fake.json"), read("BENCH_fake.json"));
        let _ = fs::remove_dir_all(&root);
    }
}
