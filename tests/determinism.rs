//! Whole-experiment determinism: identical inputs produce bit-identical
//! measurements, across every protocol. This is what makes the
//! reproduction auditable — any observed difference between two configs
//! is caused by the config, not by scheduling noise.

use spritely::harness::catalog::{run_open_churn, run_shared_read};
use spritely::harness::{
    run_andrew_with, run_flush_with, run_reopen, run_scaling_shards, run_scaling_with,
    run_sort_experiment, run_sort_with, run_temp_lifetime, server_digest, DelegationParams,
    Protocol, StatsSnapshot, Testbed, TestbedParams, TraceReport, TransportParams,
    WriteBehindParams,
};
use spritely::sim::SimDuration;

/// What one run of a script leaves behind, as far as its runner lets a
/// caller reach it: the end-of-run snapshot as JSON, the digest of the
/// server's stable contents, the digest of the checked trace, and
/// whatever else the runner measured.
#[derive(Debug, PartialEq)]
struct Pinned {
    stats_json: Option<String>,
    digest: Option<u64>,
    trace_fnv: Option<u64>,
    measured: String,
}

fn pinned(stats: &StatsSnapshot, trace: Option<TraceReport>, measured: String) -> Pinned {
    Pinned {
        stats_json: Some(stats.to_json()),
        digest: None,
        trace_fnv: Some(trace.expect("tracing was on").fnv()),
        measured,
    }
}

fn pinned_testbed((tb, makespan, messages): (Testbed, f64, u64)) -> Pinned {
    Pinned {
        digest: Some(server_digest(&tb.server_fs)),
        ..pinned(
            &tb.stats_snapshot(),
            tb.finish_trace(),
            format!("{makespan} s, {messages} messages"),
        )
    }
}

/// A script by name.
type Script = (&'static str, fn() -> Pinned);

/// Every script of the harness, traced, at a small size.
fn scripts() -> Vec<Script> {
    fn traced() -> TestbedParams {
        TestbedParams {
            protocol: Protocol::Snfs,
            tmp_remote: true,
            trace: true,
            ..TestbedParams::default()
        }
    }
    vec![
        ("andrew", || {
            let r = run_andrew_with(traced(), 42);
            let measured = format!("{:?} {:?} {:?}", r.times, r.ops, r.ops_with_tail);
            Pinned {
                digest: Some(r.server_digest),
                ..pinned(&r.stats, r.trace, measured)
            }
        }),
        ("sort", || {
            let r = run_sort_with(traced(), 281 * 1024);
            let measured = format!("{:?} {:?} {}", r.elapsed, r.ops, r.client_disk_writes);
            pinned(&r.stats, r.trace, measured)
        }),
        ("flush", || {
            let params = TestbedParams {
                update_enabled: false,
                tmp_remote: false,
                write_behind: WriteBehindParams::pipelined(),
                ..traced()
            };
            let r = run_flush_with("pipelined", params, 16);
            let measured = format!("{:?} {} write RPCs", r.flush_time, r.write_rpcs);
            pinned(&r.stats, r.trace, measured)
        }),
        // The next three runners return neither a snapshot nor a trace
        // (and take no `TestbedParams` to ask for one): what they do
        // return is all that can be pinned before the fold.
        ("reopen", || {
            let r = run_reopen(Protocol::Snfs, false, 64 * 1024);
            Pinned {
                stats_json: None,
                digest: None,
                trace_fnv: None,
                measured: format!("{:?} {:?}", r.result, r.ops),
            }
        }),
        ("temp-lifetime", || {
            let r = run_temp_lifetime(Protocol::Snfs, 64 * 1024, SimDuration::from_secs(45));
            Pinned {
                stats_json: None,
                digest: None,
                trace_fnv: None,
                measured: format!("{} write RPCs", r.write_rpcs),
            }
        }),
        ("shard-scaling 2x8", || {
            let r = run_scaling_shards(2, 8, 42);
            Pinned {
                stats_json: Some(r.stats.to_json()),
                digest: None,
                trace_fnv: None,
                measured: format!("{:?} {:?}", r.makespan, r.per_shard_rpcs),
            }
        }),
        ("scaling 4", || {
            let r = run_scaling_with(traced(), 4, 42);
            let measured = format!("{:?} {:?} {}", r.makespan, r.ops, r.disk_writes);
            pinned(&r.stats, r.trace, measured)
        }),
        ("shared-read", || {
            pinned_testbed(run_shared_read(TransportParams::pipelined(), 2, true))
        }),
        ("open-churn", || {
            pinned_testbed(run_open_churn(DelegationParams::pipelined(), 2, true))
        }),
    ]
}

#[test]
fn every_script_is_bit_identical_run_to_run() {
    for (name, script) in scripts() {
        let (a, b) = (script(), script());
        assert_eq!(a.stats_json, b.stats_json, "{name}: stats snapshot");
        assert_eq!(a.digest, b.digest, "{name}: server digest");
        assert_eq!(a.trace_fnv, b.trace_fnv, "{name}: trace digest");
        assert_eq!(a.measured, b.measured, "{name}: measurements");
        // `cargo test -- --nocapture` shows what was held, so two
        // revisions can be compared by eye as well.
        let fnv = |s: &String| {
            let mut h = spritely::proto::Fnv::EMPTY;
            h.write(s.as_bytes());
            h.0
        };
        println!(
            "{name}: stats {:016x?} digest {:016x?} trace {:016x?} measured {:016x}",
            a.stats_json.as_ref().map(fnv),
            a.digest,
            a.trace_fnv,
            fnv(&a.measured)
        );
    }
}

#[test]
fn sort_runs_are_bit_identical() {
    for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
        let a = run_sort_experiment(p, 281 * 1024, true);
        let b = run_sort_experiment(p, 281 * 1024, true);
        assert_eq!(a.elapsed, b.elapsed, "{p:?} elapsed");
        assert_eq!(a.ops, b.ops, "{p:?} op counts");
        assert_eq!(a.client_disk_writes, b.client_disk_writes, "{p:?} disk");
    }
}

#[test]
fn temp_lifetime_runs_are_bit_identical() {
    let run = || {
        let r = run_temp_lifetime(Protocol::Snfs, 64 * 1024, SimDuration::from_secs(45));
        r.write_rpcs
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_differ_but_same_seed_agrees() {
    use spritely::workloads::{AndrewBenchmark, AndrewParams};
    let a = AndrewBenchmark::new(7, AndrewParams::default());
    let b = AndrewBenchmark::new(7, AndrewParams::default());
    let c = AndrewBenchmark::new(8, AndrewParams::default());
    assert_eq!(a.source_bytes(), b.source_bytes());
    assert_ne!(a.source_bytes(), c.source_bytes());
}
