//! Open delegations: client-side open/close authority (DESIGN.md §17).
//!
//! An AFS/NFSv4-style extension of the paper's consistency protocol: when
//! the state table says a file has no conflicting users, the server
//! piggybacks a *delegation* on the open reply. The holder then serves
//! further opens, closes and attribute reads locally — zero RPCs — queuing
//! the close-time state updates it would have sent, until a conflicting
//! open triggers a recall callback (or a server reboot discards the
//! delegation wholesale).
//!
//! This module holds the shared knobs and counters; the mechanism lives in
//! the state table (grant/recall/return/revoke bookkeeping), the server
//! (recall protocol and fencing) and the client (local fast path).

use spritely_sim::SimDuration;

/// How often a client's keepalive daemon probes its server (paper §2.4).
/// Each probe answered with an epoch renews the client's delegation lease.
pub const KEEPALIVE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Client-side lease: a delegation serves local opens only while a
/// keepalive or recover reply, or a `DelegReturned` the server marked
/// `renews`, arrived within this window. No other reply renews it: those
/// travel the direction recall callbacks travel, and the server answers
/// each of them only with no recall against the client unresolved
/// (`Grace` to a keepalive, no `renews` on a return), so a fresh lease
/// proves a recall could have reached the client (DESIGN.md §17.3). It
/// outlives one [`KEEPALIVE_INTERVAL`] but not two: a holder whose
/// keepalive met `Grace` keeps it by answering the recall behind the
/// `Grace`, whose return renews it.
pub const LEASE: SimDuration = SimDuration::from_secs(15);

/// How long the server waits for a recalled delegation to come back
/// before revoking it and fencing the holder (DESIGN.md §17.3).
pub const RECALL_TIMEOUT: SimDuration = SimDuration::from_secs(20);

/// How long the server retries a consistency callback (write-back or
/// invalidate) to a silent client before declaring it dead and dropping
/// its state (§3.2's "dead client"): three keepalive intervals, so a
/// partitioned client is not taken for a crashed one (DESIGN.md §14). The
/// server's callers stay soft where the client's are hard (DESIGN.md
/// §20): this horizon and [`RECALL_TIMEOUT`] are what bound them.
pub const CALLBACK_DEAD_AFTER: SimDuration =
    SimDuration::from_micros(KEEPALIVE_INTERVAL.as_micros() * 3);

// A lease must survive the gap between two answered keepalives, and the
// fencing argument (DESIGN.md §17.3) needs an unreachable holder to stop
// serving local opens *before* the server revokes, and a recall to be
// settled before a silent holder's other callbacks declare it dead.
const _: () = assert!(
    KEEPALIVE_INTERVAL.as_micros() < LEASE.as_micros()
        && LEASE.as_micros() < RECALL_TIMEOUT.as_micros()
        && RECALL_TIMEOUT.as_micros() < CALLBACK_DEAD_AFTER.as_micros()
);

/// Configuration for the delegation subsystem. Shared by the server (which
/// grants, recalls and revokes) and the client (which serves opens locally
/// while its lease is fresh).
///
/// `paper()` disables the subsystem entirely and is provably inert: no
/// grants, no new RPCs, byte-identical traces and tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelegationParams {
    /// Master switch. Off reproduces the paper exactly.
    pub enabled: bool,
}

impl DelegationParams {
    /// Delegations off: the configuration the paper measured.
    pub fn paper() -> Self {
        DelegationParams { enabled: false }
    }

    /// Delegations on.
    pub fn pipelined() -> Self {
        DelegationParams { enabled: true }
    }
}

impl Default for DelegationParams {
    fn default() -> Self {
        DelegationParams::paper()
    }
}

/// Fixed-bucket latency histogram for recall round-trips. Buckets:
/// `<1ms, <10ms, <100ms, <1s, ≥1s` of virtual time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecallHistogram {
    /// Counts per bucket (see [`RecallHistogram::BOUNDS_US`]).
    pub buckets: [u64; 5],
}

impl RecallHistogram {
    /// Upper bounds (exclusive) of the first four buckets, in virtual
    /// microseconds; the fifth bucket is unbounded.
    pub const BOUNDS_US: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];

    /// Records one recall that took `us` virtual microseconds.
    pub fn record(&mut self, us: u64) {
        let i = Self::BOUNDS_US
            .iter()
            .position(|&b| us < b)
            .unwrap_or(Self::BOUNDS_US.len());
        self.buckets[i] += 1;
    }

    /// Total recalls recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Counters for the delegation subsystem, aggregated across server and
/// clients into the stats snapshot (`report::delegation_table`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelegationStats {
    /// Read delegations granted (server).
    pub grants_read: u64,
    /// Write delegations granted (server).
    pub grants_write: u64,
    /// Opens served locally from a delegation, no RPC (clients).
    pub local_opens: u64,
    /// Closes absorbed locally into the queued return state (clients).
    pub local_closes: u64,
    /// Recall callbacks issued (server).
    pub recalls: u64,
    /// Delegations returned and applied (server).
    pub returns: u64,
    /// Delegations revoked after a recall timeout (server).
    pub revokes: u64,
    /// Round-trip latency of completed recalls (server).
    pub recall_latency: RecallHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mode_is_disabled() {
        assert!(!DelegationParams::paper().enabled);
        assert!(DelegationParams::pipelined().enabled);
        assert_eq!(DelegationParams::default(), DelegationParams::paper());
    }

    #[test]
    fn histogram_buckets() {
        let mut h = RecallHistogram::default();
        h.record(0);
        h.record(999);
        h.record(1_000);
        h.record(99_999);
        h.record(5_000_000);
        assert_eq!(h.buckets, [2, 1, 1, 0, 1]);
        assert_eq!(h.total(), 5);
    }
}
