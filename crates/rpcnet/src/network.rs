//! The network model: a half-duplex shared wire (classic Ethernet) or a
//! switched fabric with a full-duplex link per host ([`Network::switched`]).

use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;

use spritely_sim::{Resource, Sim, SimDuration, SimTime};
use spritely_trace::{EventKind, Tracer};

use crate::fault::{FaultParams, FaultPlan, FaultState, FaultStats, PartitionDir};

/// Network timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// Fixed per-message latency (propagation + protocol stack), charged
    /// after the wire is released.
    pub latency: SimDuration,
    /// Wire bandwidth in bytes per second (per lane on a switched network).
    pub bandwidth: u64,
}

impl NetParams {
    /// Parameters approximating the paper's 10 Mbit/s Ethernet.
    pub fn ethernet_10mbit() -> Self {
        NetParams {
            latency: SimDuration::from_micros(700),
            bandwidth: 1_250_000,
        }
    }

    /// Time a message of `bytes` occupies the wire.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        if self.bandwidth == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros((bytes as u64 * 1_000_000).div_ceil(self.bandwidth))
    }
}

struct NetworkInner {
    sim: Sim,
    name: String,
    /// The shared medium (used unless `switched`).
    wire: Resource,
    /// Per-`(host, to_server)` lanes, created on first use (switched).
    links: RefCell<HashMap<(u32, bool), Resource>>,
    switched: bool,
    params: NetParams,
    messages: Cell<u64>,
    bytes: Cell<u64>,
    tracer: RefCell<Option<Tracer>>,
    /// Fault-injection state. `None` until faults or partitions are
    /// configured, so paper-mode runs never touch it.
    faults: RefCell<Option<FaultState>>,
}

/// A network segment. Messages pay a transfer time (size / bandwidth,
/// serialized on the relevant wire resource) plus a fixed off-wire
/// latency. Cheap to clone; clones share the wire and the counters.
#[derive(Clone)]
pub struct Network {
    inner: Rc<NetworkInner>,
}

impl Network {
    /// Creates a shared-bus segment, the paper's Ethernet: every message
    /// in either direction serializes on one medium.
    pub fn new(sim: &Sim, name: impl Into<String>, params: NetParams) -> Self {
        Self::build(sim, name.into(), params, false)
    }

    /// Creates a switched fabric: each host gets a full-duplex link (one
    /// lane per direction), so only messages sharing a host *and* a
    /// direction serialize.
    pub fn switched(sim: &Sim, name: impl Into<String>, params: NetParams) -> Self {
        Self::build(sim, name.into(), params, true)
    }

    fn build(sim: &Sim, name: String, params: NetParams, switched: bool) -> Self {
        Network {
            inner: Rc::new(NetworkInner {
                sim: sim.clone(),
                wire: Resource::new(sim, name.clone(), 1),
                name,
                links: RefCell::new(HashMap::new()),
                switched,
                params,
                messages: Cell::new(0),
                bytes: Cell::new(0),
                tracer: RefCell::new(None),
                faults: RefCell::new(None),
            }),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> NetParams {
        self.inner.params
    }

    /// Attaches a tracer: every transmitted message is recorded as a
    /// `net_xmit` event.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.inner.tracer.borrow_mut() = Some(tracer);
    }

    /// Messages transmitted so far (every request, reply, or compound
    /// batch counts as one).
    pub fn messages(&self) -> u64 {
        self.inner.messages.get()
    }

    /// Bytes transmitted so far.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.get()
    }

    /// Total microseconds the medium has been busy transferring. On a
    /// shared bus this is the busy time of the single wire; on a switched
    /// fabric it is the aggregate across all lanes (and can exceed
    /// elapsed time).
    pub fn busy_micros(&self) -> u128 {
        if self.inner.switched {
            self.inner
                .links
                .borrow()
                .values()
                .map(|r| r.busy_permit_micros())
                .sum()
        } else {
            self.inner.wire.busy_permit_micros()
        }
    }

    /// Installs (or re-seeds) the fault-injection layer. The all-zero
    /// default is inert; callers consult the layer per RPC attempt via
    /// [`plan_attempt`](Self::plan_attempt).
    pub fn set_faults(&self, params: FaultParams) {
        self.fault_state().set_params(params);
    }

    /// True once faults or partitions have been configured.
    pub fn faults_active(&self) -> bool {
        self.inner.faults.borrow().is_some()
    }

    /// The fault state, installed inert on first use if none exists yet.
    fn fault_state(&self) -> RefMut<'_, FaultState> {
        RefMut::map(self.inner.faults.borrow_mut(), |f| {
            f.get_or_insert_with(|| FaultState::new(FaultParams::default()))
        })
    }

    /// The shared fault counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_state().stats.clone()
    }

    /// Scripts a partition of `host` in direction `dir` lasting until
    /// the simulation clock reaches `until` (half-open). Scripted
    /// partitions consume no randomness, so they never perturb the
    /// random fault stream.
    pub fn partition(&self, host: u32, dir: PartitionDir, until: SimTime) {
        self.fault_state().add_partition(host, dir, until);
        self.emit_fault(host, false, 0, "partition_begin");
    }

    /// Heals every partition window of `host` immediately.
    pub fn heal(&self, host: u32) {
        if let Some(st) = self.inner.faults.borrow_mut().as_mut() {
            st.heal(host);
        }
    }

    /// Scripts the loss of the *next* reply on the `(host, to_client)`
    /// fault link: the server executes, the response vanishes. One-shot;
    /// used by regression tests that need exactly one lost reply.
    pub fn lose_next_reply(&self, host: u32, to_client: bool) {
        self.fault_state().script_reply_loss(host, to_client);
    }

    /// Draws the fault verdict for one RPC attempt on the `(host,
    /// to_client)` fault link. Inert (no draws, no allocation) until
    /// [`set_faults`](Self::set_faults) or a partition installs state.
    pub fn plan_attempt(&self, host: u32, to_client: bool) -> FaultPlan {
        let mut f = self.inner.faults.borrow_mut();
        let Some(st) = f.as_mut() else {
            return FaultPlan::default();
        };
        let plan = st.plan_attempt(host, to_client, self.inner.sim.now());
        drop(f);
        if plan.drop {
            let kind = if plan.partition { "partition" } else { "drop" };
            self.emit_fault(host, to_client, 0, kind);
        }
        if plan.duplicate {
            self.emit_fault(host, to_client, 0, "dup");
        }
        if !plan.delay.is_zero() {
            self.emit_fault(host, to_client, 0, "delay");
        }
        if plan.reply_loss {
            self.emit_fault(host, to_client, 0, "reply_loss");
        }
        plan
    }

    /// Reply-time fault check for `xid`'s reply on the `(host,
    /// to_client)` link: a partition may have started since the request
    /// was planned, and scripted one-shot reply losses are consumed
    /// here. Returns true if the reply is lost after execution.
    pub fn reply_lost(&self, host: u32, to_client: bool, xid: u64) -> bool {
        let mut f = self.inner.faults.borrow_mut();
        let Some(st) = f.as_mut() else {
            return false;
        };
        let lost = st.reply_lost(host, to_client, self.inner.sim.now());
        drop(f);
        if lost {
            self.emit_fault(host, to_client, xid, "reply_loss");
        }
        lost
    }

    /// Records that a fault killed `xid`'s attempt on the given link
    /// (feeds the [`FaultStats`] kill-conservation accounting).
    pub fn note_kill(&self, host: u32, to_client: bool, xid: u64) {
        if let Some(st) = self.inner.faults.borrow().as_ref() {
            st.stats.kill(host, to_client, xid);
        }
    }

    /// Marks `xid`'s call complete: any kills charged against it were
    /// absorbed by retransmission and move to the absorbed counter.
    pub fn absorb_kills(&self, host: u32, to_client: bool, xid: u64) {
        if let Some(st) = self.inner.faults.borrow().as_ref() {
            st.stats.absorb(host, to_client, xid);
        }
    }

    fn emit_fault(&self, host: u32, to_client: bool, xid: u64, kind: &'static str) {
        if let Some(t) = self.inner.tracer.borrow().as_ref() {
            t.emit(
                0,
                EventKind::Fault {
                    host,
                    to_client,
                    xid,
                    kind,
                },
            );
        }
    }

    fn lane(&self, host: u32, to_server: bool) -> Resource {
        let mut links = self.inner.links.borrow_mut();
        links
            .entry((host, to_server))
            .or_insert_with(|| {
                let dir = if to_server { "up" } else { "down" };
                Resource::new(
                    &self.inner.sim,
                    format!("{}-h{host}-{dir}", self.inner.name),
                    1,
                )
            })
            .clone()
    }

    /// Transmits one message of `bytes`: queues for the wire (the shared
    /// bus, or host `host`'s directional lane when switched), occupies it
    /// for the transfer time, then waits the fixed latency.
    pub async fn transmit_from(&self, host: u32, to_server: bool, bytes: usize) {
        let inner = &self.inner;
        inner.messages.set(inner.messages.get() + 1);
        inner.bytes.set(inner.bytes.get() + bytes as u64);
        if let Some(t) = inner.tracer.borrow().as_ref() {
            t.emit(
                0,
                EventKind::NetXmit {
                    host,
                    to_server,
                    bytes: bytes as u64,
                },
            );
        }
        let t = inner.params.transfer_time(bytes);
        if !t.is_zero() {
            let wire = if inner.switched {
                self.lane(host, to_server)
            } else {
                inner.wire.clone()
            };
            let guard = wire.acquire().await;
            inner.sim.sleep(t).await;
            drop(guard);
        }
        if !inner.params.latency.is_zero() {
            inner.sim.sleep(inner.params.latency).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> NetParams {
        NetParams {
            latency: SimDuration::from_micros(500),
            bandwidth: 1_000_000,
        }
    }

    fn net(sim: &Sim) -> Network {
        Network::new(sim, "eth0", params())
    }

    #[test]
    fn message_time_is_transfer_plus_latency() {
        let sim = Sim::new();
        let n = net(&sim);
        sim.block_on(async move {
            n.transmit_from(0, true, 1000).await; // 1 ms transfer + 0.5 ms latency
        });
        assert_eq!(sim.now().as_micros(), 1_500);
    }

    #[test]
    fn concurrent_messages_serialize_on_wire_but_overlap_latency() {
        let sim = Sim::new();
        let n = net(&sim);
        for _ in 0..2 {
            let n = n.clone();
            sim.spawn(async move {
                n.transmit_from(0, true, 1000).await;
            });
        }
        sim.run_to_quiescence();
        // Transfers serialize (1 ms + 1 ms); the second message's latency
        // starts at 2 ms, so total is 2.5 ms (latencies overlap).
        assert_eq!(sim.now().as_micros(), 2_500);
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let sim = Sim::new();
        let n = net(&sim);
        sim.block_on(async move {
            n.transmit_from(0, true, 0).await;
        });
        assert_eq!(sim.now().as_micros(), 500);
    }

    #[test]
    fn ethernet_params_sane() {
        let p = NetParams::ethernet_10mbit();
        // A 4 KB block takes ~3.3 ms on a 10 Mbit wire.
        let t = p.transfer_time(4096);
        assert!(t.as_micros() > 3_000 && t.as_micros() < 3_600, "{t}");
    }

    #[test]
    fn switched_links_do_not_serialize_across_hosts() {
        let sim = Sim::new();
        let n = Network::switched(&sim, "sw0", params());
        for host in 0..2 {
            let n = n.clone();
            sim.spawn(async move {
                n.transmit_from(host, true, 1000).await;
            });
        }
        sim.run_to_quiescence();
        // Each host has its own lane: both transfers overlap fully.
        assert_eq!(sim.now().as_micros(), 1_500);
    }

    #[test]
    fn switched_same_lane_still_serializes() {
        let sim = Sim::new();
        let n = Network::switched(&sim, "sw0", params());
        for _ in 0..2 {
            let n = n.clone();
            sim.spawn(async move {
                n.transmit_from(1, true, 1000).await;
            });
        }
        sim.run_to_quiescence();
        assert_eq!(sim.now().as_micros(), 2_500);
    }

    #[test]
    fn full_duplex_directions_overlap() {
        let sim = Sim::new();
        let n = Network::switched(&sim, "sw0", params());
        for dir in [true, false] {
            let n = n.clone();
            sim.spawn(async move {
                n.transmit_from(1, dir, 1000).await;
            });
        }
        sim.run_to_quiescence();
        assert_eq!(sim.now().as_micros(), 1_500);
    }

    #[test]
    fn counters_track_messages_and_bytes() {
        let sim = Sim::new();
        let n = net(&sim);
        let n2 = n.clone();
        sim.block_on(async move {
            n2.transmit_from(0, true, 1000).await;
            n2.transmit_from(0, true, 24).await;
        });
        assert_eq!(n.messages(), 2);
        assert_eq!(n.bytes(), 1024);
        assert_eq!(n.busy_micros(), 1_024);
    }
}
