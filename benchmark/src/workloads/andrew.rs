//! `andrew` — the paper's headline: one SNFS client runs the Andrew
//! benchmark against one server, `/usr/tmp` remote, cold client cache.
//!
//! Latency-bound with empty server queues: `vfs` path walking, the
//! `core` client cache and delegations, and `rpcnet` round trips do the
//! work, while disk scheduling, admission and sharding do almost none.

use spritely::harness::{Protocol, TestbedParams};
use spritely::sim::SimDuration;
use spritely::workloads::{AndrewBenchmark, AndrewConfig, AndrewParams, AndrewTimes};

use super::{
    andrew_phases, cold_boot, composed_stack, copy_mismatches, drain, Checks, Cx, Workload,
};
use crate::spans::SpanId;

pub struct Andrew {
    seed: u64,
    times: Option<AndrewTimes>,
}

impl Andrew {
    pub fn new(seed: u64) -> Self {
        Andrew { seed, times: None }
    }

    // The tree specification is deterministic in the seed, so every
    // instance is the same benchmark.
    fn bench(&self) -> AndrewBenchmark {
        AndrewBenchmark::new(self.seed, AndrewParams::default())
    }
}

fn config() -> AndrewConfig {
    AndrewConfig {
        src_base: "/remote/src".to_string(),
        target_base: "/remote/target".to_string(),
        tmp_base: "/usr/tmp".to_string(),
    }
}

impl Workload for Andrew {
    fn testbed(&self) -> (TestbedParams, usize) {
        (composed_stack(Protocol::Snfs, 1), 1)
    }

    fn setup(&mut self, cx: &Cx) {
        let (bench, p) = (self.bench(), cx.tb.proc());
        cx.tb.sim.block_on(async move {
            bench
                .populate_source(&p, &config().src_base)
                .await
                .expect("populate source");
        });
        drain(cx.tb);
        cold_boot(cx.tb);
    }

    fn window(&mut self, cx: &Cx, parent: SpanId) -> Vec<SimDuration> {
        let (bench, p, log) = (self.bench(), cx.tb.proc(), cx.log.clone());
        self.times = cx.tb.sim.block_on(async move {
            andrew_phases(&bench, &p, &config(), &log, 1, parent)
                .await
                .ok()
        });
        vec![self.times.map_or(SimDuration::ZERO, |t| t.total())]
    }

    fn verify(&mut self, cx: &Cx) -> Checks {
        drain(cx.tb);
        let (src, target, _) = cx.tb.server_dirs;
        Checks {
            scripts: 1,
            script_failures: u64::from(self.times.is_none()),
            final_state_mismatches: copy_mismatches(&cx.tb.server_fs, src, target),
            ..Checks::default()
        }
    }

    fn andrew_times(&self) -> Option<AndrewTimes> {
        self.times
    }
}
