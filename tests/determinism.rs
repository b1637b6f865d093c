//! Whole-experiment determinism: identical inputs produce bit-identical
//! measurements, across every protocol. This is what makes the
//! reproduction auditable — any observed difference between two configs
//! is caused by the config, not by scheduling noise.

use spritely::harness::scripts::{
    andrew, flush, open_churn, reopen, scaling, scaling_shards, shared_read, sort, temp_lifetime,
};
use spritely::harness::{
    DelegationParams, Protocol, Run, ServerIoParams, ShardParams, TestbedParams, TransportParams,
    WriteBehindParams,
};
use spritely::proto::NfsProc;
use spritely::sim::SimDuration;

/// What one traced run of a script leaves behind: the end-of-run
/// snapshot as JSON, the digest of the servers' stable contents, the
/// digest of the trace (which the checker must have passed), and what
/// the window measured.
#[derive(Debug, PartialEq)]
struct Pinned {
    stats_json: String,
    digest: u64,
    trace_fnv: u64,
    measured: String,
}

fn pinned<T>(run: &Run<T>, measured: String) -> Pinned {
    let trace = run.tb.finish_trace().expect("tracing was on");
    assert_eq!(trace.violations, [], "the checker's findings");
    Pinned {
        stats_json: run.tb.stats_snapshot().to_json(),
        digest: run.tb.digest(),
        trace_fnv: trace.fnv(),
        measured,
    }
}

fn pinned_window(run: &Run<()>) -> Pinned {
    let secs = run.makespan.as_secs_f64();
    pinned(run, format!("{secs} s, {} messages", run.messages))
}

/// A script by name.
type Script = (&'static str, fn() -> Pinned);

/// Every script of the harness, traced, at a small size.
fn scripts() -> Vec<Script> {
    fn traced() -> TestbedParams {
        TestbedParams {
            trace: true,
            ..TestbedParams::paper(Protocol::Snfs, true)
        }
    }
    /// The pipelined stack shared-read and open-churn are measured on.
    fn pipelined() -> TestbedParams {
        TestbedParams {
            tmp_remote: false,
            server_io: ServerIoParams::pipelined(),
            write_behind: WriteBehindParams::pipelined(),
            ..traced()
        }
    }
    vec![
        ("andrew", || {
            let r = andrew(traced(), 42);
            let measured = format!("{:?} {:?} {:?}", r.first(), r.ops, r.ops_to_now());
            pinned(&r, measured)
        }),
        ("sort", || {
            let r = sort(traced(), 281 * 1024);
            let measured = format!("{:?} {:?} {}", r.first(), r.ops, r.client_disk_writes);
            pinned(&r, measured)
        }),
        ("flush", || {
            let params = TestbedParams {
                update_enabled: false,
                tmp_remote: false,
                write_behind: WriteBehindParams::pipelined(),
                ..traced()
            };
            let r = flush(params, 16);
            let write_rpcs = r.ops.get(NfsProc::Write);
            pinned(&r, format!("{:?} {write_rpcs} write RPCs", r.first()))
        }),
        ("reopen", || {
            let params = TestbedParams {
                tmp_remote: false,
                ..traced()
            };
            let r = reopen(params, false, 64 * 1024);
            pinned(&r, format!("{:?} {:?}", r.first(), r.ops))
        }),
        ("temp-lifetime", || {
            let r = temp_lifetime(traced(), 64 * 1024, SimDuration::from_secs(45));
            let write_rpcs = r.ops.get(NfsProc::Write);
            pinned(&r, format!("{write_rpcs} write RPCs"))
        }),
        ("shard-scaling 2x8", || {
            let params = TestbedParams {
                tmp_remote: false,
                shards: ShardParams::sharded(2),
                ..traced()
            };
            let r = scaling_shards(params, 8, 42);
            pinned(&r, format!("{:?} {:?}", r.makespan, r.served))
        }),
        ("shard-scaling 2x8, composed", || {
            // All five opt-in layers at once: the stack `benchmark/`
            // measures on (its `composed_stack`).
            let params = TestbedParams {
                write_behind: WriteBehindParams::pipelined(),
                server_io: ServerIoParams::pipelined(),
                transport: TransportParams::pipelined(),
                delegation: DelegationParams::pipelined(),
                shards: ShardParams::sharded(2),
                ..traced()
            };
            let r = scaling_shards(params, 8, 42);
            pinned(&r, format!("{:?} {:?}", r.makespan, r.served))
        }),
        ("scaling 4", || {
            let r = scaling(traced(), 4, 42);
            let measured = format!("{:?} {:?} {}", r.makespan, r.ops, r.server_disk.writes);
            pinned(&r, measured)
        }),
        ("shared-read", || {
            let params = TestbedParams {
                read_ahead_window: 8,
                transport: TransportParams::pipelined(),
                ..pipelined()
            };
            pinned_window(&shared_read(params, 2))
        }),
        ("open-churn", || {
            let params = TestbedParams {
                name_cache: true,
                transport: TransportParams::pipelined(),
                delegation: DelegationParams::pipelined(),
                ..pipelined()
            };
            pinned_window(&open_churn(params, 2))
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
            "{name}: stats {:016x} digest {:016x} trace {:016x} measured {:016x}",
            fnv(&a.stats_json),
            a.digest,
            a.trace_fnv,
            fnv(&a.measured)
        );
    }
}

/// The 281 KB sort with `/usr/tmp` on `protocol`.
fn sort_281k(protocol: Protocol) -> Run<SimDuration> {
    sort(TestbedParams::paper(protocol, true), 281 * 1024)
}

#[test]
fn sort_runs_are_bit_identical() {
    for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
        let (a, b) = (sort_281k(p), sort_281k(p));
        assert_eq!(a.first(), b.first(), "{p:?} elapsed");
        assert_eq!(a.ops, b.ops, "{p:?} op counts");
        assert_eq!(a.client_disk_writes, b.client_disk_writes, "{p:?} disk");
    }
}

#[test]
fn temp_lifetime_runs_are_bit_identical() {
    let run = || {
        let tmp_on_server = TestbedParams::paper(Protocol::Snfs, true);
        let r = temp_lifetime(tmp_on_server, 64 * 1024, SimDuration::from_secs(45));
        r.ops.get(NfsProc::Write)
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
