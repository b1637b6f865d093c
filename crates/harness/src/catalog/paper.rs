//! The paper's own evaluation (§5): Tables 5-1 to 5-6, Figures 5-1 and
//! 5-2, and the §5.3 reopen microbenchmark.

use spritely_sim::SimDuration;
use spritely_trace::Phase;
use spritely_workloads::AndrewTimes;

use super::{slug_of, Entry, Outcome};
use crate::scripts::{andrew, reopen, sort};
use crate::{report, Protocol, Run, TestbedParams};

/// The five Andrew configurations of Table 5-1: {local, NFS, SNFS} ×
/// {/tmp local, /tmp remote}; Table 5-2 drops the local column. With
/// `trace`, the last, SNFS with /tmp remote (the paper's headline
/// configuration), runs traced: tracing changes nothing a table counts.
pub fn andrew_runs(seed: u64, trace: bool) -> Vec<Run<AndrewTimes>> {
    [
        (Protocol::Local, false),
        (Protocol::Nfs, false),
        (Protocol::Nfs, true),
        (Protocol::Snfs, false),
        (Protocol::Snfs, true),
    ]
    .map(|(p, tmp_remote)| {
        let params = TestbedParams {
            trace: trace && (p, tmp_remote) == (Protocol::Snfs, true),
            ..TestbedParams::paper(p, tmp_remote)
        };
        andrew(params, seed)
    })
    .into()
}

pub(super) const TABLE_5_1: Entry = Entry {
    name: "table_5_1",
    title: "Table 5-1: Andrew benchmark elapsed time (seconds)",
    run: |seed| {
        let runs = andrew_runs(seed, false);
        let mut o = Outcome {
            body: report::table_5_1(&runs),
            ..Outcome::default()
        };
        for r in &runs {
            o.field(
                format!("{}_total_s", slug_of(&r.tb.params.label())),
                format!("{:.1}", r.first().total().as_secs_f64()),
            );
        }
        o
    },
};

pub(super) const TABLE_5_2: Entry = Entry {
    name: "table_5_2",
    title: "Table 5-2: RPC calls for the Andrew benchmark (steady state)",
    run: |seed| {
        let runs = &andrew_runs(seed, true)[1..];
        let mut o = Outcome {
            body: report::table_5_2(runs),
            ..Outcome::default()
        };
        // The traced SNFS run: the checker validates every state-table
        // transition and callback, and the trace + stats snapshot land in
        // artifacts/ for Perfetto / offline diffing.
        let traced = &runs.last().expect("four runs").tb;
        let trace = &traced.finish_trace().expect("tracing was on");
        o.file("trace_andrew_snfs.jsonl", trace.to_jsonl());
        o.file("trace_andrew_snfs.chrome.json", trace.to_chrome_json());
        o.file("stats_andrew_snfs.json", traced.stats_snapshot().to_json());
        o.section(
            "Trace summary: Andrew on SNFS (/tmp remote, seed 42)",
            &report::trace_summary(trace),
        );
        // The checker's verdict on the same trace, and its phase
        // attribution: where each op's microseconds went (DESIGN.md §16).
        let profile = o.clean_trace("andrew_snfs", "the traced Andrew run", trace);
        o.file("profile_andrew_snfs.json", profile.to_json());
        o.section(
            "Latency profile: Andrew on SNFS (/tmp remote, seed 42)",
            &report::profile_table(&profile),
        );
        for r in runs {
            o.field(
                format!("{}_rpcs", slug_of(&r.tb.params.label())),
                r.ops_to_now().total(),
            );
        }
        o.field("profile_spans", profile.ops.len());
        o.field("profile_rpcs", profile.total_rpcs);
        o.field(
            "profile_attributed_pct",
            format!("{:.3}", profile.attributed_fraction() * 100.0),
        );
        o.gate(profile.attributed_fraction() >= 0.99, || {
            format!(
                "the profiler must attribute >= 99% of op time to a named phase, got {:.3}%",
                profile.attributed_fraction() * 100.0
            )
        });
        // A remote-mount run that shows no wire, disk or cache time
        // means the span reconstruction broke.
        for (what, us) in [
            ("network transit", profile.phase_total(Phase::Net)),
            (
                "disk",
                profile.phase_total(Phase::DiskQueue) + profile.phase_total(Phase::DiskService),
            ),
            ("cache-local", profile.phase_total(Phase::CacheLocal)),
        ] {
            o.gate(us > 0, || {
                format!("the {what} phase of the profile is empty")
            });
        }
        o
    },
};

/// Figures 5-1/5-2: server CPU utilization and RPC call rates over time
/// during the Andrew benchmark (/tmp remote), as CSV.
fn figure(protocol: Protocol, seed: u64) -> Outcome {
    let run = andrew(TestbedParams::paper(protocol, true), seed);
    let mut o = Outcome {
        body: report::figure_series(&run),
        ..Outcome::default()
    };
    let buckets = run.rate_buckets();
    let calls = || buckets.iter().map(|b| b.total);
    o.field("total_calls", calls().sum::<u64>());
    o.field("peak_bucket_calls", calls().max().unwrap_or(0));
    let util = run.tb.util.samples();
    let peak_util = util.iter().map(|(_, u)| *u).fold(0.0, f64::max);
    o.field("peak_util", format!("{peak_util:.4}"));
    o
}

pub(super) const FIGURE_5_1: Entry = Entry {
    name: "figure_5_1",
    title: "Figure 5-1: server utilization and call rates for NFS (CSV)",
    run: |seed| figure(Protocol::Nfs, seed),
};

pub(super) const FIGURE_5_2: Entry = Entry {
    name: "figure_5_2",
    title: "Figure 5-2: server utilization and call rates for SNFS (CSV)",
    run: |seed| figure(Protocol::Snfs, seed),
};

const KB: u64 = 1024;

/// The sort with `/usr/tmp` on `protocol`'s server (the local disk for
/// [`Protocol::Local`]), update daemons on or off.
fn sort_run(protocol: Protocol, input_bytes: u64, update_enabled: bool) -> Run<SimDuration> {
    let params = TestbedParams {
        update_enabled,
        ..TestbedParams::paper(protocol, true)
    };
    sort(params, input_bytes)
}

/// Tables 5-3/5-5: three input sizes × {local, NFS, SNFS}, with the
/// update daemons on (5-3) or off — "infinite write-delay" (5-5). The
/// sort workload draws no randomness, so the seed is unused.
fn sort_times(update: bool) -> Outcome {
    let mut runs = Vec::new();
    for kb in [281, 1408, 2816] {
        for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
            runs.push((kb * KB, sort_run(p, kb * KB, update)));
        }
    }
    let mut o = Outcome {
        body: report::sort_table(&runs),
        ..Outcome::default()
    };
    for (bytes, r) in &runs {
        o.field(
            format!(
                "sort_{}k_{}_s",
                bytes / KB,
                slug_of(r.tb.params.protocol.label())
            ),
            format!("{:.1}", r.first().as_secs_f64()),
        );
    }
    o
}

/// Tables 5-4/5-6: RPC counts of the 2816 KB sort, one column per run;
/// `key` names a run's ledger field after its testbed.
fn sort_rpcs(runs: &[Run<SimDuration>], key: impl Fn(&TestbedParams) -> String) -> Outcome {
    let mut o = Outcome {
        body: report::sort_rpc_table(runs),
        ..Outcome::default()
    };
    for r in runs {
        o.field(key(&r.tb.params), r.ops.total());
    }
    o
}

pub(super) const TABLE_5_3: Entry = Entry {
    name: "table_5_3",
    title: "Table 5-3: results of sort benchmark",
    run: |_| sort_times(true),
};

pub(super) const TABLE_5_4: Entry = Entry {
    name: "table_5_4",
    title: "Table 5-4: RPC calls for sort benchmark",
    run: |_| {
        let runs = [Protocol::Nfs, Protocol::Snfs].map(|p| sort_run(p, 2816 * KB, true));
        sort_rpcs(&runs, |p| {
            format!("sort_2816k_{}_rpcs", slug_of(p.protocol.label()))
        })
    },
};

pub(super) const TABLE_5_5: Entry = Entry {
    name: "table_5_5",
    title: "Table 5-5: sort benchmark, infinite write-delay",
    run: |_| sort_times(false),
};

pub(super) const TABLE_5_6: Entry = Entry {
    name: "table_5_6",
    title: "Table 5-6: RPC calls for sort, update on/off (2816 KB)",
    run: |_| {
        let runs = [
            (Protocol::Nfs, true),
            (Protocol::Nfs, false),
            (Protocol::Snfs, true),
            (Protocol::Snfs, false),
        ]
        .map(|(p, update)| sort_run(p, 2816 * KB, update));
        sort_rpcs(&runs, |p| {
            format!(
                "sort_2816k_{}_{}_rpcs",
                slug_of(p.protocol.label()),
                if p.update_enabled { "upd" } else { "noupd" }
            )
        })
    },
};

/// §5.3: write a large file, close it, then open and read either the
/// same file or a different one. On the vintage NFS client both cost the
/// same (the close purged the cache); on a fixed client or SNFS the
/// same-file reread is nearly free.
pub(super) const MICRO_REOPEN: Entry = Entry {
    name: "micro_reopen",
    title: "Section 5.3 microbenchmark: write-close-reopen-read",
    run: |_| {
        let runs = [
            (Protocol::Nfs, true),
            (Protocol::Nfs, false),
            (Protocol::NfsFixed, true),
            (Protocol::Snfs, true),
        ]
        .map(|(p, same_file)| {
            let params = TestbedParams::paper(p, false);
            (same_file, reopen(params, same_file, 1024 * KB))
        });
        let mut o = Outcome {
            body: report::reopen_table(&runs),
            ..Outcome::default()
        };
        for (same_file, r) in &runs {
            o.field(
                format!(
                    "{}_{}_read_ms",
                    slug_of(r.tb.params.protocol.label()),
                    if *same_file { "same" } else { "other" }
                ),
                format!("{:.1}", r.first().read_time.as_secs_f64() * 1e3),
            );
        }
        o
    },
};
