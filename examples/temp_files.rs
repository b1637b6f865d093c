//! The §5.4 mechanism, parameterized: how long does a temp file have to
//! live before its data escapes to the server?
//!
//! Under SNFS a temp file deleted before the update daemon's tick costs
//! zero write RPCs; NFS writes every block through regardless. (The §5.3
//! write-close-reopen-read probe is the `micro_reopen` experiment:
//! `spritely run micro_reopen`.)
//!
//! Run with: `cargo run --example temp_files`

use spritely::harness::scripts::temp_lifetime;
use spritely::harness::{Protocol, TestbedParams};
use spritely::metrics::TextTable;
use spritely::proto::NfsProc;
use spritely::sim::SimDuration;

fn main() {
    println!("Temp-file lifetime sweep (64 KB file, deleted after <lifetime>):\n");
    let mut t = TextTable::new(vec!["lifetime", "NFS write RPCs", "SNFS write RPCs"]);
    for secs in [1u64, 5, 15, 45, 90] {
        let write_rpcs = |protocol| {
            let tmp_on_server = TestbedParams::paper(protocol, true);
            let run = temp_lifetime(tmp_on_server, 64 * 1024, SimDuration::from_secs(secs));
            run.ops.get(NfsProc::Write).to_string()
        };
        t.row(vec![
            format!("{secs} s"),
            write_rpcs(Protocol::Nfs),
            write_rpcs(Protocol::Snfs),
        ]);
    }
    println!("{}", t.render());
}
