//! Whole-experiment determinism: identical inputs produce bit-identical
//! measurements, across every protocol. This is what makes the
//! reproduction auditable — any observed difference between two configs
//! is caused by the config, not by scheduling noise.

use spritely::harness::scripts::{
    andrew, delegation, flush, open_churn, reopen, scaling, scaling_shards, shared_read, sort,
    temp_lifetime, write_sharing,
};
use spritely::harness::{
    ClientParams, DelegationParams, FaultParams, Protocol, Run, ServerIoParams, ShardParams,
    TestbedParams, TransportParams, WriteBehindParams,
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

/// Each script's fingerprints as computed at the commit before the stats
/// document lost its mirror structs (PR 25), in hex: FNV-1a of the stats
/// JSON, the server digest, the trace FNV and FNV-1a of what the window
/// measured. A change that moves one moves an artifact.
const PINNED: &str = "\
446bfa7adf141b33 a64043e1e08ae90f 0ceaa5b4ef4811f1 a1584a7bd6ec1883  andrew
3b1278f235e57c99 ccc3a81f60416c66 22470c0dc937fa3c 47e8399aba6d1d75  sort
8e1a961cff09069e ccc3a81f60416c66 9cce4a39f8f8d560 75f001be045be582  sort, NFS
8a81f846c6509f04 a11ff04ceef2acf1 39d7049df6dd1ded 16f8c80c933e560d  flush
e44bc7ee153c1c9a fed4b42ccf6a268a 46e2f0edd2459211 241460d89d2d9cd8  reopen
d68054983ca86311 ccc3a81f60416c66 500728b952955430 4b6e4bab70f74613  temp-lifetime
8a81ed4a4364f7d0 74ffca42e798467c 3f4e4e813fe571c8 8a1b4500ebb64de2  shard-scaling 2x8
a0e0fe06cd7086af 74ffca42e798467c 8bd92f35eedf9b4c be102e152f609841  shard-scaling 2x8, composed
30bb4a42668fd73c 7e2f7145e3025eea f618cdafed82efb8 a06db97d4d39f857  scaling 4
c50bfc9b2d41b51f 722d5ff83026efae 0da54a3fd5a97302 f17b3ebb46835356  shared-read
83f8456f9211a9dd 30a4584bc9bba1cb d28289d962410793 728ec371a84a371a  open-churn
7d178cff0194ba96 4c5909d6a0793ef9 58b714c301c89874 9ebf29ac1a0dcc78  andrew, chaos(7)
13df6e7dcef9de44 c68588b31222efae e626cbff1cdef634 08e53b384de71543  sharing, chaos(11)
007ac66bca2c0eb3 f1249fe34971a7c2 18288f5fc3673325 3884be80befa66ed  delegation, chaos(13)
";

/// Every script of the harness, traced, at a small size — plus a
/// plain-NFS run (client rows without the SNFS half, no `server`
/// section) and `chaos_andrew`'s faulted run (the `faults` section), so
/// every section of the stats document is pinned. The faulted
/// write-sharing and delegation runs of the chaos entry pin what the
/// callback path does under faults: retried and duplicated callbacks,
/// recalls, the client's sequence guard and callback replies served from
/// the callback endpoint's duplicate-request cache.
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
        ("sort, NFS", || {
            let params = TestbedParams {
                protocol: Protocol::Nfs,
                ..traced()
            };
            let r = sort(params, 281 * 1024);
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
            let params = TestbedParams {
                trace: true,
                ..TestbedParams::composed(2)
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
                client: ClientParams {
                    read_ahead_window: 8,
                    ..ClientParams::default()
                },
                transport: TransportParams::pipelined(),
                ..pipelined()
            };
            pinned_window(&shared_read(params, 2))
        }),
        ("open-churn", || {
            let params = TestbedParams {
                client: ClientParams {
                    name_cache: true,
                    ..ClientParams::default()
                },
                transport: TransportParams::pipelined(),
                delegation: DelegationParams::pipelined(),
                ..pipelined()
            };
            pinned_window(&open_churn(params, 2))
        }),
        ("andrew, chaos(7)", || {
            let params = TestbedParams {
                trace: true,
                faults: FaultParams::chaos(7),
                ..TestbedParams::default()
            };
            let r = andrew(params, 7);
            let measured = format!("{:?} {:?} {:?}", r.first(), r.ops, r.ops_to_now());
            pinned(&r, measured)
        }),
        ("sharing, chaos(11)", || {
            let params = TestbedParams {
                trace: true,
                faults: FaultParams::chaos(11),
                client: ClientParams {
                    write_delay: SimDuration::from_secs(30),
                    ..ClientParams::default()
                },
                ..TestbedParams::default()
            };
            pinned_window(&write_sharing(params))
        }),
        ("delegation, chaos(13)", || {
            let params = TestbedParams {
                trace: true,
                faults: FaultParams::chaos(13),
                delegation: DelegationParams::pipelined(),
                ..TestbedParams::default()
            };
            pinned_window(&delegation(params))
        }),
    ]
}

#[test]
fn every_script_is_bit_identical_run_to_run() {
    let fnv = |s: &String| {
        let mut h = spritely::proto::Fnv::EMPTY;
        h.write(s.as_bytes());
        h.0
    };
    let mut fingerprints = String::new();
    for (name, script) in scripts() {
        let (a, b) = (script(), script());
        assert_eq!(a.stats_json, b.stats_json, "{name}: stats snapshot");
        assert_eq!(a.digest, b.digest, "{name}: server digest");
        assert_eq!(a.trace_fnv, b.trace_fnv, "{name}: trace digest");
        assert_eq!(a.measured, b.measured, "{name}: measurements");
        fingerprints += &format!(
            "{:016x} {:016x} {:016x} {:016x}  {name}\n",
            fnv(&a.stats_json),
            a.digest,
            a.trace_fnv,
            fnv(&a.measured)
        );
    }
    assert!(
        fingerprints == PINNED,
        "a script's output moved; this revision's table:\n{fingerprints}"
    );
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
