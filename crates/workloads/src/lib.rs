//! Workload generators for the paper's evaluation.
//!
//! * [`andrew`] — the (portable) Andrew benchmark of §5.2: MakeDir, Copy,
//!   ScanDir, ReadAll, Make over a generated source tree, with a
//!   simulated compiler that re-reads header files and writes
//!   intermediates to `/tmp`;
//! * [`sort`] — the external merge sort of §5.3, whose temp-file traffic
//!   reproduces the paper's temp-storage ratios (304 k / 2170 k / 7764 k
//!   for 281 k / 1408 k / 2816 k inputs);
//! * [`micro`] — microbenchmarks: the §5.3 write-close-reopen-read probe
//!   and a temp-file lifetime sweep.
//!
//! Workloads are written against the [`Proc`](spritely_vfs::Proc) syscall
//! API only; where the files live (local disk, NFS, SNFS) is decided by
//! the mount table, exactly as in the paper's three configurations.

pub mod andrew;
pub mod micro;
pub mod sort;

pub use andrew::{AndrewBenchmark, AndrewConfig, AndrewParams, AndrewTimes};
pub use micro::{temp_file_lifetime, write_close_reopen_read, ReopenResult};
pub use sort::{populate_sort_input, run_sort, SortConfig, SortParams};

/// Fill `out` with `period` repeated from its byte `phase`: a per-byte
/// formula's bytes, at one copy per period instead of a division per byte.
fn tile(out: &mut [u8], period: &[u8], phase: usize) {
    let (head, rest) = out.split_at_mut((period.len() - phase).min(out.len()));
    head.copy_from_slice(&period[phase..phase + head.len()]);
    for piece in rest.chunks_mut(period.len()) {
        let n = piece.len();
        piece.copy_from_slice(&period[..n]);
    }
}
