//! `scale16` — sixteen diskless SNFS clients on one server, each
//! running the small Andrew of `harness::scaling` in a private
//! namespace, all started together.
//!
//! The contended single server: disk queue, server block cache,
//! admission width and server CPU decide the makespan; per-op client
//! costs matter little.

use spritely::harness::{Protocol, TestbedParams};
use spritely::sim::SimDuration;
use spritely::workloads::{AndrewBenchmark, AndrewConfig, AndrewParams, AndrewTimes};

use super::{
    andrew_phases, cold_boot, composed_stack, copy_mismatches, drain, mean_times, run_together,
    Checks, Cx, Workload,
};
use crate::spans::SpanId;

const CLIENTS: usize = 16;

pub struct Scale16 {
    seed: u64,
    times: Vec<AndrewTimes>,
}

impl Scale16 {
    pub fn new(seed: u64) -> Self {
        Scale16 {
            seed,
            times: Vec::new(),
        }
    }

    fn bench(&self, client: usize) -> AndrewBenchmark {
        AndrewBenchmark::new(self.seed + client as u64, small_andrew())
    }
}

/// The scaled-down Andrew of `harness::scaling` (private there).
fn small_andrew() -> AndrewParams {
    AndrewParams {
        dirs: 3,
        c_files: 6,
        h_files: 8,
        misc_files: 10,
        total_bytes: 160 * 1024,
        headers_per_compile: 4,
        compile_cpu_per_kb: SimDuration::from_millis(120),
        obj_ratio: 1.2,
        tmp_ratio: 3.0,
    }
}

fn config(client: usize) -> AndrewConfig {
    AndrewConfig {
        src_base: format!("/remote/u{client}/src"),
        target_base: format!("/remote/u{client}/target"),
        tmp_base: format!("/usr/tmp/u{client}"),
    }
}

impl Workload for Scale16 {
    fn testbed(&self) -> (TestbedParams, usize) {
        (composed_stack(Protocol::Snfs, 1), CLIENTS)
    }

    fn setup(&mut self, cx: &Cx) {
        run_together(
            cx.tb,
            cx.tb.clients.iter().enumerate().map(|(i, host)| {
                let (bench, p) = (self.bench(i), host.proc(&cx.tb.sim));
                async move {
                    p.mkdir(&format!("/remote/u{i}")).await.expect("user dir");
                    p.mkdir(&format!("/usr/tmp/u{i}")).await.expect("tmp dir");
                    bench
                        .populate_source(&p, &config(i).src_base)
                        .await
                        .expect("populate source");
                }
            }),
        );
        drain(cx.tb);
        cold_boot(cx.tb);
    }

    fn window(&mut self, cx: &Cx, parent: SpanId) -> Vec<SimDuration> {
        let results = run_together(
            cx.tb,
            cx.tb.clients.iter().enumerate().map(|(i, host)| {
                let (bench, p, log) = (self.bench(i), host.proc(&cx.tb.sim), cx.log.clone());
                async move {
                    let client = i as u32 + 1;
                    let span = log.scope("client", client, parent);
                    andrew_phases(&bench, &p, &config(i), &log, client, span.id())
                        .await
                        .ok()
                }
            }),
        );
        self.times = results.iter().flatten().copied().collect();
        results
            .iter()
            .map(|t| t.map_or(SimDuration::ZERO, |t| t.total()))
            .collect()
    }

    fn verify(&mut self, cx: &Cx) -> Checks {
        drain(cx.tb);
        let fs = &cx.tb.server_fs;
        let mismatches = (0..CLIENTS)
            .map(|i| {
                let user = fs.lookup(fs.root(), &format!("u{i}"));
                let dirs =
                    user.and_then(|(u, _)| Ok((fs.lookup(u, "src")?, fs.lookup(u, "target")?)));
                dirs.map_or(1, |((src, _), (target, _))| {
                    copy_mismatches(fs, src, target)
                })
            })
            .sum();
        Checks {
            scripts: CLIENTS as u64,
            script_failures: (CLIENTS - self.times.len()) as u64,
            final_state_mismatches: mismatches,
            ..Checks::default()
        }
    }

    fn andrew_times(&self) -> Option<AndrewTimes> {
        mean_times(&self.times)
    }
}
