//! Smoke test for the sharded namespace (DESIGN.md §18), run as a gate
//! by `scripts/check.sh`. Exits non-zero unless:
//!
//! - the paper configuration (`ShardParams::paper()`) emits no shards
//!   section at all — the single-server path stays byte-inert;
//! - two identical multi-shard runs produce byte-identical statistics
//!   snapshots (determinism extends to the sharded build);
//! - the shared-nothing scaling workload at 8 shards / 128 clients
//!   clears 1.5× the aggregate throughput of the same workload on one
//!   server (the real curve is steeper — see BENCH_scaling.json);
//! - the shard chaos workload (cross-shard renames with the coordinator
//!   partitioned mid-transaction, on top of seeded drop/dup/delay
//!   faults) converges to the fault-free server digest with zero trace
//!   violations.
//!
//! Run with: `cargo run --release --example shard_smoke`

use std::process::ExitCode;

use spritely::harness::{
    chaos_shard, report, run_scaling_shards, Protocol, ShardParams, Testbed, TestbedParams,
};

fn main() -> ExitCode {
    let mut ok = true;

    // Paper configuration — the builder's one-server case: no shard
    // hosts, no layout, no snapshot section.
    let paper = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        shards: ShardParams::paper(),
        ..TestbedParams::default()
    });
    let json = paper.stats_snapshot().to_json();
    if paper.shard_hosts.is_empty() && paper.layout.is_none() && !json.contains("\"shards\"") {
        println!("paper config: one server, no layout, no shards section — OK");
    } else {
        println!("FAIL: ShardParams::paper() leaked sharding state into the testbed");
        ok = false;
    }

    // Determinism: the same seed must give byte-identical snapshots.
    let a = run_scaling_shards(4, 32, 42);
    let b = run_scaling_shards(4, 32, 42);
    if a.stats.to_json() == b.stats.to_json() && a.makespan == b.makespan {
        println!(
            "determinism: two 4-shard/32-client runs byte-identical ({} RPCs, {:.0} ops/s) — OK",
            a.total_rpcs, a.throughput
        );
    } else {
        println!("FAIL: identical sharded runs diverged");
        ok = false;
    }

    // Scaling: 8 shards must beat one server by 1.5x on the same
    // shared-nothing 128-client workload.
    let one = run_scaling_shards(1, 128, 42);
    let eight = run_scaling_shards(8, 128, 42);
    let speedup = eight.throughput / one.throughput;
    println!(
        "scaling, 128 clients: 1 shard {:.0} ops/s ({:.1}s), 8 shards {:.0} ops/s ({:.1}s) — {speedup:.2}x",
        one.throughput,
        one.makespan.as_secs_f64(),
        eight.throughput,
        eight.makespan.as_secs_f64(),
    );
    if let Some(s) = &eight.stats.shards {
        println!("{}", report::shard_table(s));
    }
    if speedup < 1.5 {
        println!("FAIL: sharding speedup {speedup:.2}x below the 1.5x gate");
        ok = false;
    }

    // Chaos: partition the coordinating shard mid-rename and converge.
    let verdict = chaos_shard(21);
    println!("{}", verdict.report());
    if verdict.injected() == 0 {
        println!("FAIL: the shard chaos schedule injected nothing");
        ok = false;
    }
    if !verdict.converged() {
        println!("FAIL: shard chaos run did not converge");
        ok = false;
    }

    if ok {
        println!("shard smoke: all gates passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
