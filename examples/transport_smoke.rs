//! Smoke test for the transport pipeline: runs a 4-client shared-file
//! read workload (read-ahead window 8, so background fetches batch into
//! compounds) against the paper transport and the pipelined one
//! (compound batching + piggybacked attributes + switched wire), with
//! tracing on for the pipelined run so the batch-conservation and
//! at-most-once checker rules are exercised. Exits non-zero if the
//! pipelined transport does not cut both messages and makespan, or if
//! the checker finds a violation. `scripts/check.sh` runs this as a
//! gate.
//!
//! Run with: `cargo run --release --example transport_smoke`

use std::process::ExitCode;

use spritely::harness::{
    report, Protocol, ServerIoParams, Testbed, TestbedParams, TransportParams, WriteBehindParams,
};
use spritely::sim::SimDuration;
use spritely::vfs::OpenFlags;

const CLIENTS: usize = 4;
const FILE_BLOCKS: usize = 256;

fn params(t: TransportParams, trace: bool) -> TestbedParams {
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

/// Client 0 seeds a shared file (untimed), every client cold-boots,
/// then all clients read the whole file concurrently. Returns the
/// testbed plus the measured makespan and wire message count.
fn run(t: TransportParams, trace: bool) -> (Testbed, f64, u64) {
    let tb = Testbed::build_with_clients(params(t, trace), CLIENTS);
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/shared", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[3u8; FILE_BLOCKS * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
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

fn main() -> ExitCode {
    let (paper_tb, paper_mk, paper_msgs) = run(TransportParams::paper(), false);
    let (pipe_tb, pipe_mk, pipe_msgs) = run(TransportParams::pipelined(), true);
    let ps = paper_tb.stats_snapshot().transport;
    let xs = pipe_tb.stats_snapshot().transport;
    println!(
        "{}",
        report::transport_table(&[("paper", &ps), ("pipelined", &xs)])
    );
    println!(
        "measured phase: paper {paper_msgs} msgs / {paper_mk:.2} s, \
         pipelined {pipe_msgs} msgs / {pipe_mk:.2} s ({:.2}x)",
        paper_mk / pipe_mk
    );
    let trace = pipe_tb.finish_trace().expect("tracing was enabled");
    if !trace.ok() {
        eprintln!(
            "trace checker found violations:\n{}",
            report::trace_summary(&trace)
        );
        return ExitCode::FAILURE;
    }
    if pipe_msgs >= paper_msgs {
        eprintln!("pipelined transport did not reduce wire messages");
        return ExitCode::FAILURE;
    }
    if pipe_mk >= paper_mk {
        eprintln!("pipelined transport is not faster than the paper transport");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
