//! Transport-pipeline configuration and observability.
//!
//! Everything new in the transport pipeline — compound-RPC batching,
//! piggybacked post-op attributes, the switched network, exponential
//! retransmission backoff — is gated behind [`TransportParams`]. The
//! `paper()` default reproduces the paper's transport exactly (one
//! message per RPC on a shared half-duplex Ethernet, fixed retransmit
//! timeout), byte-identical to runs that predate this module.

use spritely_metrics::{Histogram, OpCounter};
use spritely_sim::SimDuration;

/// Ceiling for a backed-off per-attempt reply timeout.
pub const BACKOFF_MAX: SimDuration = SimDuration::from_secs(8);

/// Client/transport-level pipeline knobs.
#[derive(Debug, Clone, Copy)]
pub struct TransportParams {
    /// Most requests one compound batch may carry; 1 disables batching
    /// entirely (the paper transport).
    pub max_batch: usize,
    /// The NFS client consumes the post-op attributes piggybacked on its
    /// replies: one refreshed within the probe floor stands in for the
    /// open-time `getattr`. The SNFS client consumes none.
    pub piggyback: bool,
    /// The testbed builds [`Network::switched`](crate::Network::switched),
    /// full-duplex lanes per host, instead of the shared bus.
    pub switched: bool,
    /// Per-attempt timeout multiplier applied on each retransmission;
    /// 1.0 keeps the paper's fixed timeout.
    pub backoff_factor: f64,
    /// Fractional jitter applied to each attempt's timeout (0.25 means
    /// ±12.5 %), drawn from the caller's own deterministic stream; 0
    /// disables jitter (and consumes no randomness).
    pub backoff_jitter: f64,
}

impl TransportParams {
    /// The paper's transport: no batching, no piggyback consumption,
    /// shared-bus Ethernet, fixed retransmission timeout.
    pub fn paper() -> Self {
        TransportParams {
            max_batch: 1,
            piggyback: false,
            switched: false,
            backoff_factor: 1.0,
            backoff_jitter: 0.0,
        }
    }

    /// The pipelined transport: Nagle batching into compounds,
    /// piggybacked attributes, switched full-duplex links, exponential
    /// backoff with deterministic jitter.
    pub fn pipelined() -> Self {
        TransportParams {
            max_batch: 8,
            piggyback: true,
            switched: true,
            backoff_factor: 2.0,
            backoff_jitter: 0.25,
        }
    }
}

impl Default for TransportParams {
    fn default() -> Self {
        TransportParams::paper()
    }
}

/// Shared transport observability: how well batching is doing. Cheap to
/// clone; clones share state, so one instance can aggregate every
/// caller on a host (or in a whole run).
#[derive(Clone, Default)]
pub struct TransportStats {
    /// One observation per flushed batch: the number of inner requests.
    pub batch_sizes: Histogram,
    /// Round trips saved, per procedure: every request after the first
    /// in a batch rode along instead of paying its own wire exchange.
    pub saved: OpCounter,
}

impl TransportStats {
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_transport_is_inert() {
        let p = TransportParams::paper();
        assert_eq!(p.max_batch, 1);
        assert!(!p.piggyback && !p.switched);
        assert_eq!(p.backoff_factor, 1.0);
        assert_eq!(p.backoff_jitter, 0.0);
    }

    #[test]
    fn pipelined_transport_enables_every_stage() {
        let p = TransportParams::pipelined();
        assert!(p.max_batch > 1);
        assert!(p.piggyback && p.switched);
        assert!(p.backoff_factor > 1.0);
    }
}
