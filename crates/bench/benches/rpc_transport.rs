//! Transport pipeline (compound batching, piggybacked post-op
//! attributes, switched full-duplex wire) vs the paper transport.
//!
//! Two workloads:
//!
//! * the single-client Andrew benchmark on plain NFS, where piggybacked
//!   attributes elide the open-time `getattr` probes the paper's
//!   Table 5-2 complains about, and the Nagle batcher coalesces the
//!   write-behind bursts;
//! * an 8-client data-transfer scaling run on SNFS (every client reads
//!   a shared 1 MB server file with an 8-block read-ahead window), where
//!   the shared 10 Mbit bus serializes every message unless the switched
//!   wire splits it into per-host lanes and the read-ahead burst batches
//!   into compounds.
//!
//! Both sides run the pipelined server I/O and write-behind pool so the
//! transport itself is the bottleneck under comparison; only
//! `TransportParams` varies.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact, artifact_file, bench_ledger, config};
use spritely_harness::{
    report, run_andrew_with, Protocol, ServerIoParams, Testbed, TestbedParams, TransportParams,
    TransportSnapshot, WriteBehindParams,
};
use spritely_metrics::TextTable;
use spritely_sim::SimDuration;
use spritely_vfs::OpenFlags;

fn andrew_params(t: TransportParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Nfs,
        tmp_remote: true,
        server_io: ServerIoParams::pipelined(),
        transport: t,
        ..TestbedParams::default()
    }
}

fn scaling_params(t: TransportParams, trace: bool) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        read_ahead_window: 8,
        transport: t,
        trace,
        ..TestbedParams::default()
    }
}

/// One data-scaling run: client 0 seeds a shared 256-block file
/// (untimed, like the scaling runner's setup phase), every client
/// cold-boots, then all `n` clients read the whole file concurrently.
/// Returns the testbed plus the measured-phase makespan and wire
/// message count.
fn run_data_scaling(t: TransportParams, n: usize, trace: bool) -> (Testbed, f64, u64) {
    let tb = Testbed::build_with_clients(scaling_params(t, trace), n);
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/shared", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[3u8; 256 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            // Drain the delayed write-back so the server holds the data.
            sim.sleep(SimDuration::from_secs(65)).await;
        });
        tb.sim.run_until(h);
        for host in &tb.clients {
            let remote = host.remote.clone();
            tb.sim
                .block_on(async move { remote.cold_boot().await.expect("cold boot") });
        }
    }
    let t0 = tb.sim.now();
    let m0 = tb.net.messages();
    let mut handles = Vec::new();
    for host in &tb.clients {
        let p = host.proc(&tb.sim);
        handles.push(tb.sim.spawn(async move {
            let fd = p.open("/remote/shared", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        }));
    }
    for h in handles {
        tb.sim.run_until(h);
    }
    let makespan = tb.sim.now().duration_since(t0).as_secs_f64();
    let messages = tb.net.messages() - m0;
    (tb, makespan, messages)
}

fn reduction(paper: u64, pipe: u64) -> f64 {
    100.0 * (1.0 - pipe as f64 / paper as f64)
}

fn bench(c: &mut Criterion) {
    let a_paper = run_andrew_with(andrew_params(TransportParams::paper()), 42);
    let a_pipe = run_andrew_with(andrew_params(TransportParams::pipelined()), 42);
    let (s_paper_tb, s_paper_mk, s_paper_msgs) =
        run_data_scaling(TransportParams::paper(), 8, false);
    let (s_pipe_tb, s_pipe_mk, s_pipe_msgs) =
        run_data_scaling(TransportParams::pipelined(), 8, false);

    let at_paper: TransportSnapshot = a_paper.stats.transport;
    let at_pipe: TransportSnapshot = a_pipe.stats.transport;
    let st_paper = s_paper_tb.stats_snapshot().transport;
    let st_pipe = s_pipe_tb.stats_snapshot().transport;

    let andrew_speedup = a_paper.times.total().as_secs_f64() / a_pipe.times.total().as_secs_f64();
    let scaling_speedup = s_paper_mk / s_pipe_mk;

    let mut t = TextTable::new(vec![
        "Workload",
        "paper msgs",
        "pipe msgs",
        "reduction",
        "paper s",
        "pipe s",
        "speedup",
    ]);
    t.row(vec![
        "Andrew/NFS".to_string(),
        at_paper.net_messages.to_string(),
        at_pipe.net_messages.to_string(),
        format!(
            "{:.0}%",
            reduction(at_paper.net_messages, at_pipe.net_messages)
        ),
        format!("{:.0}", a_paper.times.total().as_secs_f64()),
        format!("{:.0}", a_pipe.times.total().as_secs_f64()),
        format!("{andrew_speedup:.2}x"),
    ]);
    t.row(vec![
        "8-client read/SNFS".to_string(),
        s_paper_msgs.to_string(),
        s_pipe_msgs.to_string(),
        format!("{:.0}%", reduction(s_paper_msgs, s_pipe_msgs)),
        format!("{s_paper_mk:.1}"),
        format!("{s_pipe_mk:.1}"),
        format!("{scaling_speedup:.2}x"),
    ]);
    let total_paper = at_paper.net_messages + s_paper_msgs;
    let total_pipe = at_pipe.net_messages + s_pipe_msgs;
    let total_reduction = reduction(total_paper, total_pipe);
    let body = format!(
        "{}\ntotal messages: {total_paper} -> {total_pipe} ({total_reduction:.0}% reduction)\n\
         transport observability (whole run, setup included):\n{}",
        t.render(),
        report::transport_table(&[
            ("andrew/paper", &at_paper),
            ("andrew/pipe", &at_pipe),
            ("scale8/paper", &st_paper),
            ("scale8/pipe", &st_pipe),
        ])
    );
    artifact(
        "RPC transport: paper vs pipelined transport (Andrew + 8-client scaling, seed 42)",
        &body,
    );
    artifact_file(
        "stats_rpc_transport.json",
        &s_pipe_tb.stats_snapshot().to_json(),
    );
    bench_ledger(
        "rpc_transport",
        &[
            (
                "andrew_paper_msgs".into(),
                at_paper.net_messages.to_string(),
            ),
            ("andrew_pipe_msgs".into(), at_pipe.net_messages.to_string()),
            ("scale8_paper_msgs".into(), s_paper_msgs.to_string()),
            ("scale8_pipe_msgs".into(), s_pipe_msgs.to_string()),
            (
                "total_reduction_pct".into(),
                format!("{total_reduction:.1}"),
            ),
            ("andrew_gain_x".into(), format!("{andrew_speedup:.2}")),
            ("scale8_gain_x".into(), format!("{scaling_speedup:.2}")),
        ],
    );

    // Acceptance gates (PR 4): >= 25% fewer RPC messages overall and
    // >= 1.2x makespan at 8 clients.
    assert!(
        total_reduction >= 25.0,
        "pipelined transport must cut total RPC messages by >= 25%, got {total_reduction:.1}%"
    );
    assert!(
        scaling_speedup >= 1.2,
        "pipelined transport must cut 8-client makespan by >= 1.2x, got {scaling_speedup:.2}x"
    );
    assert!(
        andrew_speedup >= 0.98,
        "the Nagle batcher must not slow the serial Andrew run, got {andrew_speedup:.2}x"
    );

    // A traced pipelined run feeds the batch-conservation and
    // at-most-once checker rules with a real batched schedule.
    let (traced_tb, _, _) = run_data_scaling(TransportParams::pipelined(), 2, true);
    let trace = traced_tb.finish_trace().expect("tracing was on");
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(&trace)
    );

    let mut g = c.benchmark_group("rpc_transport");
    g.bench_function("eight_clients_pipelined", |b| {
        b.iter(|| run_data_scaling(TransportParams::pipelined(), 8, false).1)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
