//! # Spritely NFS
//!
//! A full reproduction of **"Spritely NFS: Experiments with
//! Cache-Consistency Protocols"** (V. Srinivasan and Jeffrey C. Mogul,
//! SOSP 1989) as a deterministic discrete-event simulation in Rust.
//!
//! The paper grafts the Sprite cache-consistency protocol onto NFS:
//! explicit `open`/`close` RPCs let the server track which clients have
//! each file open, so non-write-shared files can be cached with *delayed
//! write-back* (no flush on close, write cancellation on delete) while
//! write-shared files are made uncachable everywhere — yielding both a
//! real consistency guarantee and better performance. This workspace
//! rebuilds the whole experimental apparatus:
//!
//! * [`sim`] — deterministic single-threaded async executor with a
//!   virtual clock, FIFO resources and seeded randomness;
//! * [`blockdev`] — RA81-style disk model (positioning + transfer);
//! * [`rpcnet`] — Sun-RPC-over-UDP model: shared wire, thread pools,
//!   retransmission, duplicate-request cache;
//! * [`localfs`] — simulated Unix file system with a buffer cache,
//!   delayed writes and the `/etc/update` daemon;
//! * [`nfs`] — the stateless baseline: synchronous server writes,
//!   attribute-probe consistency, write-behind with drain-on-close, and
//!   the vintage invalidate-on-close client bug;
//! * [`snfs`] — **the paper's contribution**: the 7-state server state
//!   table (Table 4-1), version numbers, callbacks, the SNFS client, and
//!   the §6.1/§6.2 extensions (hybrid NFS coexistence, delayed close);
//! * [`vfs`] — GFS-style mount table + process/fd/syscall layer;
//! * [`workloads`] — Andrew benchmark, external sort, microbenchmarks;
//! * [`harness`] — testbeds, the run driver, the workload scripts and
//!   paper-style reports for every table and figure in the evaluation;
//! * [`metrics`] — RPC counters, rate/utilization series, text tables;
//! * [`trace`] — deterministic causal event tracing with a protocol
//!   invariant checker (state machine legality, N−1 callback bound,
//!   stale reads, cancelled writes, fsync claims).
//!
//! # Quickstart
//!
//! ```
//! use spritely::harness::{scripts, Protocol, TestbedParams};
//!
//! // Sort 281 KB with temp files over Spritely NFS vs. baseline NFS;
//! // a sort run's per-client result is its elapsed time.
//! let sort = |protocol| scripts::sort(TestbedParams::paper(protocol, true), 281 * 1024);
//! let (nfs, snfs) = (sort(Protocol::Nfs), sort(Protocol::Snfs));
//! assert!(snfs.first() < nfs.first());
//! ```
//!
//! See `examples/` for runnable scenarios and `spritely list` (the
//! experiment catalogue, [`harness::catalog`]) for each table and figure.

pub use spritely_blockdev as blockdev;
pub use spritely_core as snfs;
pub use spritely_harness as harness;
pub use spritely_localfs as localfs;
pub use spritely_metrics as metrics;
pub use spritely_nfs as nfs;
pub use spritely_proto as proto;
pub use spritely_rpcnet as rpcnet;
pub use spritely_sim as sim;
pub use spritely_trace as trace;
pub use spritely_vfs as vfs;
pub use spritely_workloads as workloads;
