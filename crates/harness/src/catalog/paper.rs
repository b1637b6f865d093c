//! The paper's own evaluation (§5): Tables 5-1 to 5-6, Figures 5-1 and
//! 5-2, and the §5.3 reopen microbenchmark.

use spritely_metrics::OpCounts;
use spritely_proto::NfsProc;
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
        let cols = std::array::from_fn(|i| (runs[i].ops_to_now(), runs[i].server_disk.writes));
        table_5_2_shapes(&mut o, cols);
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

/// Table 5-2's four shapes that hold (EXPERIMENTS.md), one gate each, over
/// each run's RPC counts and server disk writes in the table's column
/// order: NFS, then SNFS, each with `/tmp` local, then remote.
fn table_5_2_shapes(o: &mut Outcome, cols: [(OpCounts, u64); 4]) {
    let labels = ["NFS tmp-loc", "NFS tmp-rem", "SNFS tmp-loc", "SNFS tmp-rem"];
    let pct = |part: u64, whole: u64| 100.0 * part as f64 / whole as f64;
    for (label, (ops, _)) in labels.iter().zip(&cols) {
        let share = pct(ops.get(NfsProc::Lookup), ops.total());
        o.gate((40.0..=60.0).contains(&share), || {
            format!("lookups are {share:.1}% of {label}'s RPCs, outside the paper's 40-60%")
        });
    }
    let [(_, nfs_loc_w), (nfs_rem, nfs_rem_w), (_, snfs_loc_w), (snfs_rem, snfs_rem_w)] = cols;
    let (nfs, snfs) = (nfs_rem.total(), snfs_rem.total());
    o.gate(snfs < nfs, || {
        format!("with /tmp remote SNFS sends {snfs} RPCs, not fewer than NFS's {nfs}")
    });
    let fewer = 100.0 - pct(snfs_rem.data_transfers(), nfs_rem.data_transfers());
    o.gate(fewer >= 42.0, || {
        format!("with /tmp remote SNFS does {fewer:.1}% fewer data transfers than NFS, under the paper's 42%")
    });
    for (tmp, nfs, snfs) in [
        ("local", nfs_loc_w, snfs_loc_w),
        ("remote", nfs_rem_w, snfs_rem_w),
    ] {
        let fewer = 100.0 - pct(snfs, nfs);
        o.gate(fewer >= 30.0, || {
            format!("with /tmp {tmp} SNFS causes {fewer:.1}% fewer server disk writes than NFS, under the paper's 30%")
        });
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_metrics::OpCounter;

    /// A run's RPC counts: `lookups` lookups, `data` reads and `other`
    /// getattrs.
    fn ops(lookups: u64, data: u64, other: u64) -> OpCounts {
        let counter = OpCounter::new();
        let calls = [
            (NfsProc::Lookup, lookups),
            (NfsProc::Read, data),
            (NfsProc::GetAttr, other),
        ];
        for (p, n) in calls {
            (0..n).for_each(|_| counter.record(p));
        }
        counter.snapshot()
    }

    /// Lookups, data transfers, other RPCs and server disk writes of each
    /// column of Table 5-2.
    type Table = [(u64, u64, u64, u64); 4];

    /// The shape gates' failures on the committed Table 5-2
    /// (`baselines/table_5_2.txt`) as `forge` edits it.
    fn failures(forge: fn(&mut Table)) -> Vec<String> {
        let mut table = [
            (1538, 1051, 471, 669),
            (1589, 1295, 542, 947),
            (1538, 476, 851, 465),
            (1589, 476, 954, 499),
        ];
        forge(&mut table);
        let mut o = Outcome::default();
        table_5_2_shapes(&mut o, table.map(|(l, d, x, w)| (ops(l, d, x), w)));
        o.failures
    }

    /// `forge` flips one shape: exactly one gate fails, saying `why`.
    fn fails_once(forge: fn(&mut Table), why: &str) {
        let failed = failures(forge);
        assert!(
            matches!(&failed[..], [one] if one.contains(why)),
            "{why}: {failed:?}"
        );
    }

    #[test]
    fn a_forged_run_that_flips_one_table_5_2_shape_fails_its_gate() {
        assert_eq!(failures(|_| {}), Vec::<String>::new());
        // NFS tmp-loc: 62 % of its RPCs are lookups.
        fails_once(|t| t[0].0 = 2500, "lookups are 62.2% of NFS tmp-loc's");
        // SNFS tmp-rem sends 3519 RPCs to NFS's 3426.
        fails_once(|t| t[3].2 += 500, "SNFS sends 3519 RPCs");
        // SNFS tmp-rem moves 62 % of NFS's data transfers.
        fails_once(|t| t[3].1 = 800, "38.2% fewer data transfers");
        // SNFS tmp-loc writes 75 % of NFS's disk blocks.
        fails_once(|t| t[2].3 = 500, "/tmp local SNFS causes 25.3% fewer");
    }
}
