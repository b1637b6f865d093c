//! `sort_nfs` — one baseline-NFS client (the vintage one) sorts a
//! 2816 KB file externally with its temp files on the server.
//!
//! Write-through: every temp block is a synchronous server disk write,
//! so `blockdev` and `nfs` dominate and `core` does nothing. SNFS-only
//! changes must not move it, and it is the write-side use of the layers
//! `andrew` mostly reads through.

use spritely::harness::{Protocol, TestbedParams};
use spritely::sim::{SimDuration, SimRng};
use spritely::workloads::{populate_sort_input, run_sort, SortConfig, SortParams};

use super::{composed_stack, Checks, Cx, Workload};
use crate::spans::SpanId;

/// The paper's largest input.
const INPUT_BYTES: u64 = 2816 * 1024;

pub struct SortNfs {
    input_bytes: u64,
    finished: bool,
}

impl SortNfs {
    /// The sort itself draws nothing at random, so the seed sets the
    /// input's size: up to 16 KB short of 2816 KB, which keeps the
    /// paper's shape (22 runs, 4-way merge, three levels).
    pub fn new(seed: u64) -> Self {
        SortNfs {
            input_bytes: INPUT_BYTES - SimRng::new(seed).range_u64(0, 16 * 1024),
            finished: false,
        }
    }
}

fn config() -> SortConfig {
    SortConfig {
        input_path: "/input".to_string(),
        output_path: "/output".to_string(),
        tmp_dir: "/usr/tmp".to_string(),
    }
}

impl Workload for SortNfs {
    fn testbed(&self) -> (TestbedParams, usize) {
        (composed_stack(Protocol::Nfs, 1), 1)
    }

    /// Input and output live on the client's local disk (§5.3); only
    /// the temp files cross the wire. The input is flushed so the sort
    /// starts from a quiet system.
    fn setup(&mut self, cx: &Cx) {
        let (p, bytes) = (cx.tb.proc(), self.input_bytes);
        let fs = cx.tb.clients[0].local_fs.clone();
        cx.tb.sim.block_on(async move {
            populate_sort_input(&p, &config().input_path, bytes)
                .await
                .expect("populate input");
            fs.sync_all().await;
        });
    }

    fn window(&mut self, cx: &Cx, parent: SpanId) -> Vec<SimDuration> {
        let (p, params) = (cx.tb.proc(), SortParams::paper(self.input_bytes));
        let _span = cx.log.scope("run_sort", 1, parent);
        let elapsed = cx
            .tb
            .sim
            .block_on(async move { run_sort(&p, params, &config()).await });
        self.finished = elapsed.is_ok();
        vec![elapsed.unwrap_or(SimDuration::ZERO)]
    }

    /// Every byte came out the other end, and every temp file is gone.
    fn verify(&mut self, cx: &Cx) -> Checks {
        let local = &cx.tb.clients[0].local_fs;
        let output_ok = local
            .lookup(local.root(), "output")
            .is_ok_and(|(_, attr)| attr.size == self.input_bytes);
        let (_, _, tmp) = cx.tb.server_dirs;
        let leftovers = cx.tb.server_fs.readdir(tmp).map_or(1, |e| e.len() as u64);
        Checks {
            scripts: 1,
            script_failures: u64::from(!self.finished),
            final_state_mismatches: u64::from(!output_ok) + leftovers,
            ..Checks::default()
        }
    }
}
