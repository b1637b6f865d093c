//! Deterministic network fault injection.
//!
//! The paper's consistency argument (§2.4/§3.2) leans on RPC machinery —
//! retransmission against a duplicate-request cache, callback failure
//! handling, reboot epochs — that a loss-free network never exercises.
//! This module adds a seeded fault layer to [`Network`](crate::Network):
//! per-message drop / duplicate / extra-delay decisions drawn from a
//! dedicated [`SimRng`] stream, a reply-loss mode that discards the
//! response *after* the server has executed (the case that pushes every
//! non-idempotent procedure through the dup cache), and scripted
//! per-host partitions.
//!
//! The default ([`FaultParams::default`]) is provably inert: no fault
//! state is ever installed, the paper-mode wire path makes zero extra
//! RNG draws and zero extra awaits, and every `table_5_*` artifact stays
//! byte-identical (pinned by `tests/paper_baselines.rs`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use spritely_sim::{Map, SimDuration, SimRng, SimTime};

/// Seeded fault-injection parameters. All rates are per-message
/// probabilities in `[0, 1]`; the all-zero default injects nothing.
#[derive(Debug, Clone, Copy)]
pub struct FaultParams {
    /// Probability a request message is lost before delivery (the server
    /// never sees it; the caller's timeout fires and it retransmits).
    pub drop: f64,
    /// Probability a request message is delivered twice. The duplicate
    /// carries the same xid, so the endpoint must absorb it without a
    /// second execution, unless the call is idempotent and has ended.
    pub duplicate: f64,
    /// Probability a message is held up by extra network delay (drawn
    /// uniformly in `[0, max_delay]`) before transmission.
    pub delay: f64,
    /// Upper bound of the injected extra delay.
    pub max_delay: SimDuration,
    /// Probability the *reply* is lost after the server has executed the
    /// request. The caller retransmits; only the dup cache stands
    /// between a non-idempotent procedure and double execution.
    pub reply_loss: f64,
    /// Seed of the dedicated fault RNG stream. Workload streams are
    /// untouched, so a faulted run performs the same logical operations
    /// as a fault-free run of the same workload seed.
    pub seed: u64,
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: SimDuration::ZERO,
            reply_loss: 0.0,
            seed: 0,
        }
    }
}

impl FaultParams {
    /// True when any random fault can fire.
    pub fn any(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.delay > 0.0 || self.reply_loss > 0.0
    }

    /// The chaos-harness preset: 5% request loss, 3% duplication, 5%
    /// extra delay up to 20 ms, 2% reply loss.
    pub fn chaos(seed: u64) -> Self {
        FaultParams {
            drop: 0.05,
            duplicate: 0.03,
            delay: 0.05,
            max_delay: SimDuration::from_millis(20),
            reply_loss: 0.02,
            seed,
        }
    }
}

/// Which direction of a host's traffic a scripted partition cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionDir {
    /// Messages destined *to* the host are lost.
    Inbound,
    /// Messages originating *at* the host are lost.
    Outbound,
    /// Both directions.
    Both,
}

/// Fault-injection counters, as a value.
///
/// The conservation story: every fault that kills an RPC attempt
/// (`drops`, `reply_losses`, `partition_drops`) records a *kill* against
/// that call's `(link, xid)`. When the call eventually completes — a
/// retransmission got through — its kills move to `retransmit_absorbed`.
/// Kills still on the books belong to calls that never completed (the
/// caller gave up, e.g. during a partition). So at quiescence:
/// `killed_attempts == retransmit_absorbed + outstanding_kills`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Requests dropped by the random fault stream.
    pub drops: u64,
    /// Requests delivered twice.
    pub dups: u64,
    /// Messages held up by injected delay.
    pub delays: u64,
    /// Replies lost after the server executed (random + scripted).
    pub reply_losses: u64,
    /// Messages lost to a scripted partition.
    pub partition_drops: u64,
    /// RPC attempts killed by any fault.
    pub killed_attempts: u64,
    /// Kills belonging to calls that later completed via retransmission.
    pub retransmit_absorbed: u64,
    /// Kills belonging to calls that never completed (callers that gave
    /// up, typically during a partition).
    pub outstanding_kills: u64,
}

/// The shared home of a network's [`FaultCounts`] (cheap to clone; clones
/// share state), with the per-`(link, xid)` kills that are still
/// outstanding.
#[derive(Clone, Default)]
pub struct FaultStats {
    inner: Rc<FaultStatsInner>,
}

#[derive(Default)]
struct FaultStatsInner {
    counts: Cell<FaultCounts>,
    kills: RefCell<Map<(u32, bool, u64), u64>>,
}

impl FaultStats {
    /// The counters now.
    pub fn get(&self) -> FaultCounts {
        FaultCounts {
            outstanding_kills: self.inner.kills.borrow().values().sum(),
            ..self.inner.counts.get()
        }
    }

    pub(crate) fn bump(&self, f: impl FnOnce(&mut FaultCounts)) {
        let mut counts = self.inner.counts.get();
        f(&mut counts);
        self.inner.counts.set(counts);
    }

    pub(crate) fn kill(&self, host: u32, to_client: bool, xid: u64) {
        self.bump(|c| c.killed_attempts += 1);
        *self
            .inner
            .kills
            .borrow_mut()
            .entry((host, to_client, xid))
            .or_insert(0) += 1;
    }

    pub(crate) fn absorb(&self, host: u32, to_client: bool, xid: u64) {
        let absorbed = self
            .inner
            .kills
            .borrow_mut()
            .remove(&(host, to_client, xid));
        if let Some(n) = absorbed {
            self.bump(|c| c.retransmit_absorbed += n);
        }
    }
}

/// The fault verdict for one RPC attempt, drawn once per message
/// exchange by [`Network::plan_attempt`](crate::Network::plan_attempt).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Lose the request before delivery (the server never executes).
    pub drop: bool,
    /// The drop came from a scripted partition, not the random stream.
    pub partition: bool,
    /// Deliver the request a second time with the same xid.
    pub duplicate: bool,
    /// Extra network delay charged before the request transmits.
    pub delay: SimDuration,
    /// Execute server-side, then lose the reply.
    pub reply_loss: bool,
}

/// One scripted partition window.
struct PartitionWindow {
    host: u32,
    dir: PartitionDir,
    until: SimTime,
}

/// Per-network fault state: parameters, the dedicated RNG stream, the
/// partition schedule, and the stats. Lives inside `Network` and is only
/// installed once faults or partitions are configured — paper-mode runs
/// never allocate it.
pub(crate) struct FaultState {
    params: FaultParams,
    rng: SimRng,
    pub(crate) stats: FaultStats,
    partitions: Vec<PartitionWindow>,
    /// Scripted one-shot reply losses, keyed by fault link. Consumed in
    /// FIFO order by the next matching reply. Used by targeted
    /// regression tests that must lose exactly one reply.
    scripted_reply_losses: Vec<(u32, bool)>,
}

impl FaultState {
    pub(crate) fn new(params: FaultParams) -> Self {
        FaultState {
            // Fork so the fault stream is decoupled from any other use
            // of the same seed value elsewhere in the simulation.
            rng: SimRng::new(params.seed).fork(),
            params,
            stats: FaultStats::default(),
            partitions: Vec::new(),
            scripted_reply_losses: Vec::new(),
        }
    }

    pub(crate) fn set_params(&mut self, params: FaultParams) {
        self.params = params;
        self.rng = SimRng::new(params.seed).fork();
    }

    pub(crate) fn add_partition(&mut self, host: u32, dir: PartitionDir, until: SimTime) {
        self.partitions.push(PartitionWindow { host, dir, until });
    }

    pub(crate) fn heal(&mut self, host: u32) {
        self.partitions.retain(|w| w.host != host);
    }

    pub(crate) fn script_reply_loss(&mut self, host: u32, to_client: bool) {
        self.scripted_reply_losses.push((host, to_client));
    }

    /// True if a live partition window cuts `host`'s traffic in the
    /// given direction (`outbound` = the message originates at `host`).
    fn leg_blocked(&mut self, host: u32, outbound: bool, now: SimTime) -> bool {
        self.partitions.retain(|w| w.until > now);
        self.partitions.iter().any(|w| {
            w.host == host
                && match w.dir {
                    PartitionDir::Both => true,
                    PartitionDir::Outbound => outbound,
                    PartitionDir::Inbound => !outbound,
                }
        })
    }

    /// Draws the fault verdict for one attempt on the `(host,
    /// to_client)` link. The request leg travels outbound from `host`
    /// for ordinary calls and inbound to `host` for server→client
    /// callbacks.
    pub(crate) fn plan_attempt(&mut self, host: u32, to_client: bool, now: SimTime) -> FaultPlan {
        if self.leg_blocked(host, !to_client, now) {
            self.stats.bump(|c| c.partition_drops += 1);
            return FaultPlan {
                drop: true,
                partition: true,
                ..FaultPlan::default()
            };
        }
        if !self.params.any() {
            return FaultPlan::default();
        }
        let p = self.params;
        if p.drop > 0.0 && self.rng.f64() < p.drop {
            self.stats.bump(|c| c.drops += 1);
            return FaultPlan {
                drop: true,
                ..FaultPlan::default()
            };
        }
        let mut plan = FaultPlan::default();
        if p.duplicate > 0.0 && self.rng.f64() < p.duplicate {
            plan.duplicate = true;
            self.stats.bump(|c| c.dups += 1);
        }
        if p.delay > 0.0 && self.rng.f64() < p.delay {
            plan.delay = self.rng.duration_uniform(SimDuration::ZERO, p.max_delay);
            self.stats.bump(|c| c.delays += 1);
        }
        if p.reply_loss > 0.0 && self.rng.f64() < p.reply_loss {
            plan.reply_loss = true;
            self.stats.bump(|c| c.reply_losses += 1);
        }
        plan
    }

    /// Checked at reply time (the reply leg's partition state may have
    /// changed since the request was planned, and scripted one-shot
    /// reply losses are consumed here). Returns true if the reply is
    /// lost after execution.
    pub(crate) fn reply_lost(&mut self, host: u32, to_client: bool, now: SimTime) -> bool {
        if self.leg_blocked(host, to_client, now) {
            self.stats.bump(|c| c.partition_drops += 1);
            return true;
        }
        if let Some(pos) = self
            .scripted_reply_losses
            .iter()
            .position(|&l| l == (host, to_client))
        {
            self.scripted_reply_losses.remove(pos);
            self.stats.bump(|c| c.reply_losses += 1);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_are_inert() {
        let p = FaultParams::default();
        assert!(!p.any());
    }

    #[test]
    fn chaos_params_inject() {
        assert!(FaultParams::chaos(1).any());
    }

    #[test]
    fn same_seed_same_plans() {
        let draw = |seed| {
            let mut st = FaultState::new(FaultParams::chaos(seed));
            (0..64)
                .map(|_| {
                    let p = st.plan_attempt(1, false, SimTime::ZERO);
                    (p.drop, p.duplicate, p.delay, p.reply_loss)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn partitions_consume_no_randomness() {
        let mut st = FaultState::new(FaultParams::chaos(3));
        st.add_partition(
            2,
            PartitionDir::Both,
            SimTime::ZERO + SimDuration::from_secs(5),
        );
        // Every partitioned plan is a scripted drop...
        for _ in 0..8 {
            let p = st.plan_attempt(2, false, SimTime::ZERO);
            assert!(p.drop && p.partition);
        }
        // ...and the random stream is unperturbed: the next unpartitioned
        // host draws the same verdicts as a fresh state would.
        let mut fresh = FaultState::new(FaultParams::chaos(3));
        for _ in 0..32 {
            let a = st.plan_attempt(1, false, SimTime::ZERO);
            let b = fresh.plan_attempt(1, false, SimTime::ZERO);
            assert_eq!(
                (a.drop, a.duplicate, a.delay, a.reply_loss),
                (b.drop, b.duplicate, b.delay, b.reply_loss)
            );
        }
    }

    #[test]
    fn partition_directions_cut_the_right_legs() {
        let mut st = FaultState::new(FaultParams::default());
        let until = SimTime::ZERO + SimDuration::from_secs(1);
        st.add_partition(1, PartitionDir::Outbound, until);
        // Client call from host 1: request leg is outbound → dropped.
        assert!(st.plan_attempt(1, false, SimTime::ZERO).drop);
        // Callback to host 1: request leg is inbound → unaffected, but
        // its reply (outbound from host 1) is lost.
        assert!(!st.plan_attempt(1, true, SimTime::ZERO).drop);
        assert!(st.reply_lost(1, true, SimTime::ZERO));
        // An ordinary call's reply leg is inbound → unaffected.
        assert!(!st.reply_lost(1, false, SimTime::ZERO));
        // Other hosts are untouched.
        assert!(!st.plan_attempt(2, false, SimTime::ZERO).drop);
    }

    #[test]
    fn partition_windows_expire() {
        let mut st = FaultState::new(FaultParams::default());
        let until = SimTime::ZERO + SimDuration::from_secs(1);
        st.add_partition(1, PartitionDir::Both, until);
        assert!(st.plan_attempt(1, false, SimTime::ZERO).drop);
        assert!(
            !st.plan_attempt(1, false, until).drop,
            "window is half-open"
        );
    }

    #[test]
    fn kill_conservation() {
        let s = FaultStats::default();
        s.kill(1, false, 10);
        s.kill(1, false, 10);
        s.kill(1, false, 11);
        let c = s.get();
        assert_eq!((c.killed_attempts, c.outstanding_kills), (3, 3));
        s.absorb(1, false, 10);
        let c = s.get();
        assert_eq!((c.retransmit_absorbed, c.outstanding_kills), (2, 1));
        assert_eq!(
            c.killed_attempts,
            c.retransmit_absorbed + c.outstanding_kills
        );
        // Absorbing an unkilled call is a no-op.
        s.absorb(2, false, 99);
        assert_eq!(s.get().retransmit_absorbed, 2);
    }

    #[test]
    fn scripted_reply_loss_fires_once() {
        let mut st = FaultState::new(FaultParams::default());
        st.script_reply_loss(1, false);
        assert!(
            !st.reply_lost(2, false, SimTime::ZERO),
            "wrong link untouched"
        );
        assert!(st.reply_lost(1, false, SimTime::ZERO));
        assert!(!st.reply_lost(1, false, SimTime::ZERO), "one-shot");
        assert_eq!(st.stats.get().reply_losses, 1);
    }
}
