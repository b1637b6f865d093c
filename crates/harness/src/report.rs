//! Paper-style table and figure rendering.

use spritely_metrics::TextTable;
use spritely_proto::NfsProc;
use spritely_sim::SimDuration;
use spritely_workloads::{AndrewTimes, ReopenResult};

use crate::run::Run;
use crate::StatsSnapshot;

fn secs(d: SimDuration) -> String {
    format!("{:.0}", d.as_secs_f64())
}

/// Selector from a run's times to one phase's elapsed time.
type PhaseSelector = fn(&AndrewTimes) -> SimDuration;

/// Table 5-1: Andrew benchmark elapsed times, one column per run.
pub fn table_5_1(runs: &[Run<AndrewTimes>]) -> String {
    let mut headers = vec!["Phase".to_string()];
    headers.extend(runs.iter().map(|r| r.tb.params.label()));
    let mut t = TextTable::new(headers);
    let phases: [(&str, PhaseSelector); 6] = [
        ("MakeDir", |t| t.makedir),
        ("Copy", |t| t.copy),
        ("ScanDir", |t| t.scandir),
        ("ReadAll", |t| t.readall),
        ("Make", |t| t.make),
        ("Total", AndrewTimes::total),
    ];
    for (name, f) in phases {
        let mut row = vec![name.to_string()];
        row.extend(runs.iter().map(|r| secs(f(r.first()))));
        t.row(row);
    }
    t.render()
}

/// Table 5-2: per-procedure RPC counts for the Andrew benchmark.
///
/// Uses the steady-state counts (benchmark plus its delayed write-back
/// tail): the paper ran SNFS trials back to back, so each measurement
/// window absorbed the previous trial's postponed writes (§5.2).
pub fn table_5_2(runs: &[Run<AndrewTimes>]) -> String {
    let mut headers = vec!["RPC".to_string()];
    headers.extend(runs.iter().map(|r| r.tb.params.label()));
    let mut t = TextTable::new(headers);
    let ops: Vec<_> = runs.iter().map(Run::ops_to_now).collect();
    for p in NfsProc::ALL {
        if ops.iter().all(|o| o.get(p) == 0) {
            continue;
        }
        let mut row = vec![p.name().to_string()];
        row.extend(ops.iter().map(|o| o.get(p).to_string()));
        t.row(row);
    }
    let mut row = vec!["total".to_string()];
    row.extend(ops.iter().map(|o| o.total().to_string()));
    t.row(row);
    let mut row = vec!["data xfer".to_string()];
    row.extend(ops.iter().map(|o| o.data_transfers().to_string()));
    t.row(row);
    let mut row = vec!["disk writes".to_string()];
    row.extend(runs.iter().map(|r| r.server_disk.writes.to_string()));
    t.row(row);
    t.render()
}

/// Figures 5-1 / 5-2: server utilization and call rates over time, as a
/// CSV-ish text block (`t_sec, util, calls/s, reads/s, writes/s`).
pub fn figure_series(run: &Run<AndrewTimes>) -> String {
    let width = crate::config::figure_bucket().as_secs_f64();
    let (rate_buckets, util_samples) = (run.rate_buckets(), run.tb.util.samples());
    let mut out = String::from("t_sec,cpu_util,calls_per_s,reads_per_s,writes_per_s\n");
    let mut n = rate_buckets.len().max(util_samples.len());
    // Trim the quiet tail (post-benchmark drain with no activity).
    while n > 1 {
        let i = n - 1;
        let quiet_rate = rate_buckets.get(i).is_none_or(|b| b.total == 0);
        let quiet_util = util_samples.get(i).is_none_or(|&(_, u)| u < 0.005);
        if quiet_rate && quiet_util {
            n -= 1;
        } else {
            break;
        }
    }
    for i in 0..n {
        let t = (i as f64 + 1.0) * width;
        let (total, reads, writes) = rate_buckets
            .get(i)
            .map(|b| {
                (
                    b.total as f64 / width,
                    b.reads as f64 / width,
                    b.writes as f64 / width,
                )
            })
            .unwrap_or((0.0, 0.0, 0.0));
        let util = util_samples.get(i).map(|&(_, u)| u).unwrap_or(0.0);
        out.push_str(&format!(
            "{t:.0},{util:.3},{total:.1},{reads:.1},{writes:.1}\n"
        ));
    }
    out
}

/// Table 5-3 / 5-5: sort elapsed times, from `(input bytes, run)` pairs;
/// rows are input sizes, columns are `/usr/tmp` placements.
pub fn sort_table(runs: &[(u64, Run<SimDuration>)]) -> String {
    let mut sizes: Vec<u64> = runs.iter().map(|(bytes, _)| *bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut protos: Vec<crate::Protocol> = Vec::new();
    for (_, r) in runs {
        if !protos.contains(&r.tb.params.protocol) {
            protos.push(r.tb.params.protocol);
        }
    }
    let mut headers = vec!["Input".to_string()];
    headers.extend(protos.iter().map(|p| format!("{} /usr/tmp", p.label())));
    let mut t = TextTable::new(headers);
    for size in sizes {
        let mut row = vec![format!("{} k", size / 1024)];
        for proto in &protos {
            let cell = runs
                .iter()
                .find(|(bytes, r)| *bytes == size && r.tb.params.protocol == *proto)
                .map(|(_, r)| format!("{} sec", secs(*r.first())))
                .unwrap_or_else(|| "-".to_string());
            row.push(cell);
        }
        t.row(row);
    }
    t.render()
}

/// Table 5-4 / 5-6: RPC calls for the sort benchmark.
pub fn sort_rpc_table(runs: &[Run<SimDuration>]) -> String {
    let mut headers = vec!["Version".to_string()];
    headers.extend(["update?", "reads", "writes", "others", "total"].map(String::from));
    let mut t = TextTable::new(headers);
    for r in runs {
        t.row(vec![
            r.tb.params.protocol.label().to_string(),
            if r.tb.params.update_enabled {
                "yes"
            } else {
                "no"
            }
            .to_string(),
            r.ops.get(NfsProc::Read).to_string(),
            r.ops.get(NfsProc::Write).to_string(),
            r.ops.others().to_string(),
            r.ops.total().to_string(),
        ]);
    }
    t.render()
}

/// Latency table: per-procedure count / mean / p50 / p95 / p99 / max.
pub fn latency_table(l: &spritely_metrics::LatencyStats) -> String {
    let mut t = TextTable::new(vec!["RPC", "count", "mean", "p50", "p95", "p99", "max"]);
    for p in l.observed() {
        t.row(vec![
            p.name().to_string(),
            l.count(p).to_string(),
            format!("{:.1} ms", l.mean(p).as_secs_f64() * 1e3),
            format!("{:.1} ms", l.percentile(p, 0.50).as_secs_f64() * 1e3),
            format!("{:.1} ms", l.percentile(p, 0.95).as_secs_f64() * 1e3),
            format!("{:.1} ms", l.percentile(p, 0.99).as_secs_f64() * 1e3),
            format!("{:.1} ms", l.max(p).as_secs_f64() * 1e3),
        ]);
    }
    t.render()
}

/// §5.3 microbenchmark report, from `(reread the same file?, run)` pairs.
pub fn reopen_table(runs: &[(bool, Run<ReopenResult>)]) -> String {
    let mut t = TextTable::new(vec!["Protocol", "reread", "write s", "read s", "read RPCs"]);
    for (same_file, r) in runs {
        t.row(vec![
            r.tb.params.protocol.label().to_string(),
            if *same_file { "same" } else { "other" }.to_string(),
            format!("{:.2}", r.first().write_time.as_secs_f64()),
            format!("{:.2}", r.first().read_time.as_secs_f64()),
            r.ops.get(NfsProc::Read).to_string(),
        ]);
    }
    t.render()
}

/// Renders one chaos run's fault accounting under `label`: every
/// injected fault and where it was absorbed (retransmission or duplicate
/// cache), read off the `faults` section of its end-of-run snapshot.
pub fn fault_table(label: &str, s: &StatsSnapshot) -> String {
    const COLUMNS: [(&str, &str); 12] = [
        ("drops", "drops"),
        ("dups", "dups"),
        ("delays", "delays"),
        ("reply loss", "reply_losses"),
        ("partition", "partition_drops"),
        ("killed", "killed_attempts"),
        ("retx absorbed", "retransmit_absorbed"),
        ("outstanding", "outstanding_kills"),
        ("dup-cache hits", "dup_cache_hits"),
        ("dup joins", "dup_cache_joins"),
        ("cb retries", "callback_retries"),
        ("cb dupes", "callback_dupes"),
    ];
    let mut headers = vec!["Config"];
    headers.extend(COLUMNS.map(|(header, _)| header));
    let mut t = TextTable::new(headers);
    let mut row = vec![label.to_string()];
    row.extend(COLUMNS.map(|(_, key)| s.num(&format!("faults.{key}")).to_string()));
    t.row(row);
    t.render()
}

/// "Where does the time go" report for a profiled trace (DESIGN.md §16):
/// the run-wide phase breakdown, then the per-op-kind breakdown (count,
/// mean latency, dominant phases), then per-procedure RPC latency
/// percentiles reconstructed from the trace.
pub fn profile_table(p: &spritely_trace::Profile) -> String {
    use spritely_trace::Phase;
    let mut out = String::new();
    out.push_str(&format!(
        "profile: {} spans, {} RPCs (op {}, callback {}, background {}, incomplete {}), {:.2}% attributed\n",
        p.ops.len(),
        p.total_rpcs,
        p.claims.op,
        p.claims.callback,
        p.claims.background,
        p.claims.incomplete,
        p.attributed_fraction() * 100.0,
    ));
    let mut t = TextTable::new(vec!["Phase", "total s", "% of op time"]);
    for ph in Phase::ALL {
        let us = p.phase_total(ph);
        if us == 0 {
            continue;
        }
        t.row(vec![
            ph.name().to_string(),
            format!("{:.3}", us as f64 / 1e6),
            format!("{:.1}", 100.0 * us as f64 / p.total_us.max(1) as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let mut t = TextTable::new(vec![
        "Op", "count", "mean ms", "local%", "queue%", "net%", "admit%", "dup%", "cpu%", "diskq%",
        "disk%", "cb%",
    ]);
    for k in &p.op_kinds {
        let pct = |ph: Phase| {
            let i = Phase::ALL.iter().position(|&q| q == ph).unwrap();
            format!(
                "{:.1}",
                100.0 * k.phase_us[i] as f64 / k.total_us.max(1) as f64
            )
        };
        t.row(vec![
            k.op.to_string(),
            k.count.to_string(),
            format!("{:.2}", k.total_us as f64 / k.count.max(1) as f64 / 1e3),
            pct(Phase::CacheLocal),
            pct(Phase::ClientQueue),
            pct(Phase::Net),
            pct(Phase::Admission),
            pct(Phase::DupCache),
            pct(Phase::ServerCpu),
            pct(Phase::DiskQueue),
            pct(Phase::DiskService),
            pct(Phase::Callback),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&latency_table(&p.rpc_latency));
    out
}

/// Human-readable summary of a checked trace: per-kind event counts
/// followed by every invariant violation (normally none).
pub fn trace_summary(report: &crate::snapshot::TraceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("trace: {} events\n", report.events.len()));
    for (name, count) in spritely_trace::check::kind_counts(&report.events) {
        out.push_str(&format!("  {name:<14} {count}\n"));
    }
    if report.violations.is_empty() {
        out.push_str("checker: OK (0 violations)\n");
    } else {
        out.push_str(&format!(
            "checker: {} VIOLATION(S)\n",
            report.violations.len()
        ));
        for v in &report.violations {
            out.push_str(&format!("  {v}\n"));
        }
    }
    out
}
