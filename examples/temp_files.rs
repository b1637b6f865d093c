//! The §5.4 mechanism, parameterized: how long does a temp file have to
//! live before its data escapes to the server?
//!
//! Under SNFS a temp file deleted before the update daemon's tick costs
//! zero write RPCs; NFS writes every block through regardless. (The §5.3
//! write-close-reopen-read probe is the `micro_reopen` experiment:
//! `spritely run micro_reopen`.)
//!
//! Run with: `cargo run --example temp_files`

use spritely::harness::{run_temp_lifetime, Protocol};
use spritely::metrics::TextTable;
use spritely::sim::SimDuration;

fn main() {
    println!("Temp-file lifetime sweep (64 KB file, deleted after <lifetime>):\n");
    let mut t = TextTable::new(vec!["lifetime", "NFS write RPCs", "SNFS write RPCs"]);
    for secs in [1u64, 5, 15, 45, 90] {
        let lifetime = SimDuration::from_secs(secs);
        let nfs = run_temp_lifetime(Protocol::Nfs, 64 * 1024, lifetime);
        let snfs = run_temp_lifetime(Protocol::Snfs, 64 * 1024, lifetime);
        t.row(vec![
            format!("{secs} s"),
            nfs.write_rpcs.to_string(),
            snfs.write_rpcs.to_string(),
        ]);
    }
    println!("{}", t.render());
}
