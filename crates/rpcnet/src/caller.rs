//! RPC callers: the client side of an exchange — xids, the
//! retransmission ladder, and the one wire exchange every request crosses,
//! alone or in a batch (DESIGN.md §22).

use std::borrow::Borrow;
use std::cell::{Cell, OnceCell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::task::Poll;

use spritely_metrics::LatencyStats;
use spritely_proto::{ClientId, NfsReply, NfsRequest};
use spritely_sim::{yield_now, Resource, Sim, SimDuration, SimRng};
use spritely_trace::{EventKind, Tracer};

use crate::batch::BatchQueue;
use crate::endpoint::Endpoint;
use crate::network::Network;
use crate::transport::{TransportParams, TransportStats, BACKOFF_MAX};

/// Errors a [`Caller`] can return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply after all retransmissions.
    Timeout,
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "RPC timed out after retries"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Client-side caller parameters.
#[derive(Debug, Clone, Copy)]
pub struct CallerParams {
    /// Per-attempt reply timeout.
    pub timeout: SimDuration,
    /// Retransmissions after the first attempt.
    pub max_retries: u32,
    /// Caller-host CPU charged per call (argument marshalling etc.).
    pub cpu_per_call: SimDuration,
}

impl Default for CallerParams {
    fn default() -> Self {
        CallerParams {
            timeout: SimDuration::from_secs(1),
            max_retries: 4,
            cpu_per_call: SimDuration::from_micros(300),
        }
    }
}

/// One request on its way through a wire exchange, under the identity it
/// keeps across retransmissions. `R` borrows the request: a caller's own
/// attempt lends it, a batch queue holds it with its reply cell. An
/// exchange copies a request only to hand it to the endpoint, and the
/// copy allocates nothing (its names are inline, its payload shared).
pub(crate) struct Member<R> {
    pub(crate) xid: u64,
    /// Trace context: the request's `rpc_call` event (0 when untraced).
    pub(crate) parent: u64,
    pub(crate) req: R,
}

/// What every wire exchange of one logical caller shares, whoever runs
/// it — the caller's own attempt or its batch queue's detached flush:
/// where the traffic goes, whom it speaks as, how the fault layer sees
/// it, where it is observed, the batch queue and the jitter stream. One
/// `Rc`, so the tracer and the transport stats each live in one slot,
/// and a caller's only allocation until it parks a call or draws jitter.
pub(crate) struct Link {
    pub(crate) sim: Sim,
    net: Network,
    endpoint: Endpoint,
    from: ClientId,
    /// `(host, to_client)` key this caller's traffic presents to the
    /// fault layer. Defaults to `(from.0, false)`; callback callers
    /// (which all carry `ClientId(0)`) override it with their target
    /// client's host so partitions cut the right legs.
    fault_link: Cell<(u32, bool)>,
    /// The xid sequence behind `from`; see [`Caller::share_xids_with`].
    next_xid: Cell<u64>,
    tracer: RefCell<Option<Tracer>>,
    pub(crate) tstats: RefCell<Option<TransportStats>>,
    pub(crate) batch: BatchQueue,
    /// Deterministic per-caller stream for retransmission jitter, made on
    /// its first draw: only `backoff_jitter > 0` draws, so paper-mode
    /// runs never make it.
    rng: OnceCell<SimRng>,
}

impl Link {
    /// The next jitter draw, in `[0, 1)`.
    fn jitter(&self) -> f64 {
        let seed = 0x7ab5_0000 ^ u64::from(self.from.0);
        self.rng.get_or_init(|| SimRng::new(seed)).f64()
    }

    fn emit(&self, parent: u64, kind: impl FnOnce() -> EventKind) -> u64 {
        match self.tracer.borrow().as_ref() {
            Some(t) => t.emit(parent, kind()),
            None => 0,
        }
    }

    /// The one wire exchange (DESIGN.md §22). `members` travel as one
    /// datagram — a compound when there are several, the plain message
    /// when there is one — so the fault layer drops, duplicates, delays
    /// or loses the reply of all of them as a unit, and a fault that
    /// kills the exchange is booked against every member's xid on the
    /// caller's fault link. Returns the reply datagram, or `None` when
    /// the exchange was lost: each member's timeout then fires and it
    /// retransmits on its own, under its original xid.
    ///
    /// `batch` is the flush id when the batcher runs the exchange in a
    /// detached task, `None` when a caller runs it inline for its own
    /// single request.
    pub(crate) async fn exchange(
        self: &Rc<Self>,
        members: &[Member<impl Borrow<NfsRequest>>],
        batch: Option<u64>,
    ) -> Option<NfsReply> {
        let (from, count) = (self.from, members.len() as u64);
        let batch_event = |reply| {
            if let Some(id) = batch {
                self.emit(0, || EventKind::Batch {
                    from,
                    id,
                    count,
                    reply,
                });
            }
        };
        batch_event(false);
        let (lh, lc) = self.fault_link.get();
        let kill_all = || {
            members
                .iter()
                .for_each(|m| self.net.note_kill(lh, lc, m.xid))
        };
        let plan = self.net.plan_attempt(lh, lc);
        if !plan.delay.is_zero() {
            self.sim.sleep(plan.delay).await;
        }
        // A batch of one is the plain message (`NfsRequest::compound`'s
        // contract): it is sized where it stands, and a compound is sized
        // without being built.
        let req_bytes = match members {
            [m] => m.req.borrow().wire_size(),
            _ => NfsRequest::compound_wire_size(members.iter().map(|m| m.req.borrow())),
        };
        // Every member leaves the wire at this instant; each gets its own
        // xmit boundary so the profiler can split batcher hold from
        // transit.
        for m in members {
            self.emit(m.parent, || EventKind::RpcXmit { from, xid: m.xid });
        }
        self.net.transmit_from(from.0, true, req_bytes).await;
        if plan.drop {
            // Eaten by the network (or a partition) before delivery.
            kill_all();
            return None;
        }
        if !self.endpoint.is_alive() {
            return None;
        }
        if plan.duplicate {
            // A second copy of the same datagram arrives: every member
            // xid joins its in-flight execution, is answered from a parked
            // reply, or executes again if idempotent. The copy's reply is
            // discarded — the members wait on the primary copy only.
            let this = Rc::clone(self);
            let copies: Vec<_> = members
                .iter()
                .map(|m| (m.xid, m.parent, m.req.borrow().clone()))
                .collect();
            self.sim.spawn(async move {
                this.net.transmit_from(from.0, true, req_bytes).await;
                if !this.endpoint.is_alive() {
                    return;
                }
                let mut reps = Vec::with_capacity(copies.len());
                for (xid, parent, req) in copies {
                    reps.push(this.endpoint.deliver(from, xid, parent, req).await);
                }
                let bytes = NfsReply::compound(reps).wire_size();
                this.net.transmit_from(from.0, false, bytes).await;
            });
        }
        let rep = match members {
            // One request is delivered in the task that runs the exchange:
            // a caller's own, or a flush's. A flush yields on each side of
            // it, where a member task's first poll and its wake of the
            // flush would stand, so every task polls when and as often as
            // it would (DESIGN.md §15).
            [m] => {
                if batch.is_some() {
                    yield_now().await;
                }
                let req = m.req.borrow().clone();
                let rep = self.endpoint.deliver(from, m.xid, m.parent, req).await;
                if batch.is_some() {
                    yield_now().await;
                }
                rep
            }
            // A compound delivers every member concurrently, each in its
            // own task — each keeps its own xid, so dup-cache entries and
            // per-procedure counters are exactly what the unbatched
            // transport would produce.
            _ => {
                // One allocation gathers the replies; whoever fills the
                // last slot wakes the flush.
                let gather: Rc<[RefCell<Option<NfsReply>>]> =
                    members.iter().map(|_| RefCell::new(None)).collect();
                let flush = std::future::poll_fn(|cx| Poll::Ready(cx.waker().clone())).await;
                let filled = |g: &[RefCell<Option<NfsReply>>]| {
                    let all = g.iter().all(|r| r.borrow().is_some());
                    if all {
                        Poll::Ready(())
                    } else {
                        Poll::Pending
                    }
                };
                for (i, m) in members.iter().enumerate() {
                    let (ep, gather, flush) =
                        (self.endpoint.clone(), Rc::clone(&gather), flush.clone());
                    let (xid, parent, req) = (m.xid, m.parent, m.req.borrow().clone());
                    self.sim.spawn(async move {
                        let rep = ep.deliver(from, xid, parent, req).await;
                        *gather[i].borrow_mut() = Some(rep);
                        if filled(&gather).is_ready() {
                            flush.wake();
                        }
                    });
                }
                std::future::poll_fn(|_| filled(&gather)).await;
                let reps = gather.iter().map(|r| r.take().expect("filled"));
                NfsReply::compound(reps.collect())
            }
        };
        batch_event(true);
        if plan.reply_loss || self.net.reply_lost(lh, lc, members[0].xid) {
            // The server executed every member but the reply never makes
            // it back, and takes no wire time: the retransmissions must
            // be absorbed by the dup cache (or re-executed: an idempotent
            // call by design, another if its entry is gone — the hazard
            // the clients' outcome mapping covers).
            kill_all();
            return None;
        }
        self.net.transmit_from(from.0, false, rep.wire_size()).await;
        Some(rep)
    }
}

/// A client-side RPC caller bound to one endpoint over one network.
pub struct Caller {
    /// Shared with the batch queue's flushes, and across clones: a clone
    /// is another handle on the same logical caller.
    link: Rc<Link>,
    /// The link whose xid sequence this caller draws from: its own
    /// (so clones share one sequence — the endpoint's duplicate-request
    /// cache keys on `(from, xid)`, and a clone that restarted the
    /// sequence would be answered from the cache without ever reaching
    /// the handler) unless [`Caller::share_xids_with`] named another's.
    xids: Rc<Link>,
    cpu: Resource,
    params: CallerParams,
    transport: Cell<TransportParams>,
    retransmits: Cell<u64>,
    latency: RefCell<Option<LatencyStats>>,
}

impl Clone for Caller {
    fn clone(&self) -> Self {
        Caller {
            link: Rc::clone(&self.link),
            xids: Rc::clone(&self.xids),
            cpu: self.cpu.clone(),
            params: self.params,
            transport: Cell::new(self.transport.get()),
            retransmits: Cell::new(0),
            latency: RefCell::new(self.latency.borrow().clone()),
        }
    }
}

impl Caller {
    /// Creates a caller. `cpu` is the calling host's CPU; `from` identifies
    /// the calling host to the endpoint's dup cache and handler.
    pub fn new(
        sim: &Sim,
        net: Network,
        endpoint: Endpoint,
        from: ClientId,
        cpu: Resource,
        params: CallerParams,
    ) -> Self {
        let link = Rc::new(Link {
            sim: sim.clone(),
            net,
            endpoint,
            from,
            fault_link: Cell::new((from.0, false)),
            next_xid: Cell::new(0),
            tracer: RefCell::new(None),
            tstats: RefCell::new(None),
            batch: BatchQueue::default(),
            rng: OnceCell::new(),
        });
        let caller = Caller {
            xids: Rc::clone(&link),
            link,
            cpu,
            params,
            transport: Cell::new(TransportParams::paper()),
            retransmits: Cell::new(0),
            latency: RefCell::new(None),
        };
        caller.assert_retention_covers_ladder();
        caller
    }

    /// The retransmission ladder: attempt `attempt`'s reply timeout. The
    /// paper's fixed value, or — when backoff is configured — one that
    /// grows by `backoff_factor` per retransmission up to
    /// [`BACKOFF_MAX`], then moves by up to half of `backoff_jitter`
    /// either way so simultaneous retransmitters desynchronize instead
    /// of storming the server in lockstep. `draw` places the attempt in
    /// the jitter band, in `[0, 1]`: the caller's deterministic stream
    /// for a live attempt, 1 for the worst case. It is not consulted
    /// when jitter is off, so the paper transport consumes no randomness.
    fn attempt_timeout(&self, attempt: u32, draw: impl FnOnce() -> f64) -> SimDuration {
        let t = self.transport.get();
        let mut d = self.params.timeout;
        if t.backoff_factor > 1.0 {
            for _ in 0..attempt {
                d = d.mul_f64(t.backoff_factor);
                if d >= BACKOFF_MAX {
                    d = BACKOFF_MAX;
                    break;
                }
            }
        }
        if t.backoff_jitter > 0.0 {
            d = d.mul_f64(1.0 + t.backoff_jitter * (draw() - 0.5));
        }
        d
    }

    /// The dup cache is the only thing standing between a retransmitted
    /// non-idempotent procedure and double execution (it keeps no other
    /// procedure's reply), so those entries must outlive the longest
    /// possible retransmission ladder
    /// (every attempt's timeout, jitter at its worst): if an entry could
    /// expire while its call was still retrying, the retransmission
    /// would re-execute (create → `EEXIST`, remove → `ENOENT` to the
    /// application).
    fn assert_retention_covers_ladder(&self) {
        let ladder: SimDuration = (0..=self.params.max_retries)
            .map(|attempt| self.attempt_timeout(attempt, || 1.0))
            .sum();
        let retention = self.link.endpoint.dup_retention();
        assert!(
            retention > ladder,
            "dup_retention ({retention}) must exceed the worst-case \
             retransmission ladder ({ladder})"
        );
    }

    /// Configures the transport pipeline. With `max_batch > 1`
    /// background calls park in the batch queue; the default is the paper
    /// transport (no batching, fixed retransmit timeout).
    pub fn set_transport(&self, t: TransportParams) {
        self.transport.set(t);
        self.assert_retention_covers_ladder();
    }

    /// The active transport configuration.
    pub fn transport(&self) -> TransportParams {
        self.transport.get()
    }

    /// Attaches shared transport observability (batch-size histogram +
    /// saved-round-trip counter).
    pub fn set_transport_stats(&self, stats: TransportStats) {
        *self.link.tstats.borrow_mut() = Some(stats);
    }

    /// Attaches a latency recorder; every subsequent call's end-to-end
    /// time (including queueing, retransmissions and the reply) is
    /// recorded under its procedure.
    pub fn set_latency_stats(&self, stats: LatencyStats) {
        *self.latency.borrow_mut() = Some(stats);
    }

    /// Attaches a tracer: every call is recorded as an `rpc_call` /
    /// `rpc_reply` pair keyed by xid (and every batch flush as a
    /// `batch` pair when batching is on).
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.link.tracer.borrow_mut() = Some(tracer);
    }

    /// The caller's client id.
    pub fn client_id(&self) -> ClientId {
        self.link.from
    }

    /// Makes this caller draw xids from `other`'s sequence. A sharded
    /// client (or a shard's coordination fan-out) holds one caller per
    /// peer endpoint but is a single logical RPC source: `(from, xid)`
    /// must stay globally unique or independently-numbered callers
    /// would present colliding pairs to the dup caches and the trace
    /// checker's at-most-once rule.
    pub fn share_xids_with(&mut self, other: &Self) {
        self.xids = Rc::clone(&other.xids);
    }

    /// Re-keys this caller's traffic for the fault layer. Callback
    /// callers all carry `ClientId(0)` (the server), so the testbed
    /// points them at the *target client's* host with `to_client =
    /// true`; a partition of that host then cuts callbacks to it, not
    /// to everyone.
    pub fn set_fault_link(&self, host: u32, to_client: bool) {
        self.link.fault_link.set((host, to_client));
    }

    /// Total retransmissions so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.get()
    }

    /// Flushes any background requests parked in the batch queue right now.
    /// Clients call this when a foreground path is about to *wait* on
    /// background work — a close draining write-behind, a read
    /// coalescing with an in-flight read-ahead — so the waiter never
    /// pays the Nagle window on top of the RPC itself. A no-op on the
    /// paper transport.
    pub fn kick(&self) {
        self.link.flush_now();
    }

    /// Issues one RPC: marshal, transmit, await the reply, with timeout and
    /// retransmission. At-most-once execution of a non-idempotent call
    /// is guaranteed by the endpoint's duplicate cache.
    pub async fn call(&self, req: NfsRequest) -> Result<NfsReply, RpcError> {
        self.call_ctx(0, req).await
    }

    /// Like [`Caller::call`], but parents the `rpc_call` trace event
    /// under `parent` (a client-operation span, usually).
    pub async fn call_ctx(&self, parent: u64, req: NfsRequest) -> Result<NfsReply, RpcError> {
        let out = self.call_flagged(parent, &req, false).await;
        out.map(|(rep, _)| rep)
    }

    /// The full form of [`Caller::call_ctx`]. `background` marks
    /// write-behind and read-ahead traffic: the batcher may hold such a
    /// call briefly to coalesce it with its peers, which it never does
    /// to a foreground call (no difference on the paper transport).
    ///
    /// The flag returned with the reply says it arrived only after at
    /// least one retransmission. A retransmitted non-idempotent
    /// procedure can have executed on an earlier attempt whose reply was
    /// lost; if the dup-cache entry has meanwhile been discarded, the
    /// re-execution reports a bogus error (`EEXIST` for create, `ENOENT`
    /// for remove). Clients use the flag to map those specific outcomes
    /// back to success.
    pub async fn call_flagged(
        &self,
        parent: u64,
        req: &NfsRequest,
        background: bool,
    ) -> Result<(NfsReply, bool), RpcError> {
        let link = &self.link;
        if !self.params.cpu_per_call.is_zero() {
            self.cpu.use_for(self.params.cpu_per_call).await;
        }
        let xid = self.xids.next_xid.get();
        self.xids.next_xid.set(xid + 1);
        let started = link.sim.now();
        let (from, proc) = (link.from, req.proc_id());
        let rpc_seq = link.emit(parent, || {
            let (offset, len) = req.byte_range();
            EventKind::RpcCall {
                from,
                xid,
                proc,
                fh: req.handle(),
                offset,
                len,
            }
        });
        let member = [Member {
            xid,
            parent: rpc_seq,
            req,
        }];
        for attempt in 0..=self.params.max_retries {
            if attempt > 0 {
                self.retransmits.set(self.retransmits.get() + 1);
            }
            let timeout = self.attempt_timeout(attempt, || link.jitter());
            let fut = self.attempt(&member, background);
            if let Ok(rep) = link.sim.timeout(timeout, fut).await {
                if let Some(l) = self.latency.borrow().as_ref() {
                    l.record(proc, link.sim.now().duration_since(started));
                }
                let ok = rep.is_ok();
                link.emit(rpc_seq, || EventKind::RpcReply {
                    from,
                    xid,
                    proc,
                    ok,
                });
                // Any attempts the fault layer killed for this xid
                // were absorbed by retransmission.
                let (lh, lc) = link.fault_link.get();
                link.net.absorb_kills(lh, lc, xid);
                return Ok((rep, attempt > 0));
            }
        }
        Err(RpcError::Timeout)
    }

    /// One attempt at one request. Hangs when the attempt is lost, until
    /// the caller's timeout drops it and retransmits.
    async fn attempt(&self, member: &[Member<&NfsRequest>; 1], background: bool) -> NfsReply {
        // Only background traffic parks in the batch queue: a compound's
        // reply waits for its slowest member, and a latency-sensitive call
        // must not wait behind a batched disk write.
        let max_batch = self.transport.get().max_batch;
        if background && max_batch > 1 {
            return self.link.park(&member[0], max_batch).await;
        }
        match self.link.exchange(member, None).await {
            Some(rep) => rep,
            None => std::future::pending().await,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::EndpointParams;
    use crate::network::NetParams;
    use spritely_metrics::OpCounter;
    use spritely_proto::NfsProc;
    use spritely_sim::SimTime;

    fn setup(handler_delay: SimDuration) -> (Sim, Caller) {
        let sim = Sim::new();
        let server_cpu = Resource::new(&sim, "scpu", 1);
        let client_cpu = Resource::new(&sim, "ccpu", 1);
        let net = Network::new(
            &sim,
            "net",
            NetParams {
                latency: SimDuration::from_micros(500),
                bandwidth: 1_250_000,
            },
        );
        let s2 = sim.clone();
        let handler = Rc::new(move |_from, _ctx, _req| {
            let s = s2.clone();
            async move {
                if !handler_delay.is_zero() {
                    s.sleep(handler_delay).await;
                }
                NfsReply::Ok
            }
        });
        let ep = Endpoint::new(
            &sim,
            "nfsd",
            server_cpu,
            EndpointParams {
                threads: 2,
                cpu_per_call: SimDuration::from_micros(400),
                cpu_per_kb: SimDuration::ZERO,
                dup_retention: SimDuration::from_secs(60),
            },
            OpCounter::new(),
            handler,
        );
        let caller = Caller::new(
            &sim,
            net,
            ep,
            ClientId(1),
            client_cpu,
            CallerParams {
                timeout: SimDuration::from_millis(100),
                max_retries: 3,
                cpu_per_call: SimDuration::from_micros(300),
            },
        );
        (sim, caller)
    }

    /// One background call of `req`.
    async fn bg(c: &Caller, req: &NfsRequest) -> Result<NfsReply, RpcError> {
        let out = c.call_flagged(0, req, true).await;
        out.map(|(rep, _)| rep)
    }

    /// A non-idempotent request: the dup cache keeps its reply.
    fn keepalive() -> NfsRequest {
        NfsRequest::Keepalive {
            client: ClientId(1),
        }
    }

    #[test]
    fn call_round_trip_succeeds_and_counts() {
        let (sim, caller) = setup(SimDuration::ZERO);
        let ep_counter = caller.link.endpoint.counter().clone();
        let out = sim.block_on(async move { caller.call(NfsRequest::Null).await });
        assert_eq!(out, Ok(NfsReply::Ok));
        assert_eq!(ep_counter.get(NfsProc::Null), 1);
    }

    #[test]
    fn slow_handler_triggers_retransmit_but_executes_once() {
        let (sim, caller) = setup(SimDuration::from_millis(250));
        let ep = caller.link.endpoint.clone();
        let out = sim.block_on(async move {
            let r = caller.call(NfsRequest::Null).await;
            (r, caller.retransmits())
        });
        assert_eq!(out.0, Ok(NfsReply::Ok));
        assert!(out.1 >= 1, "expected at least one retransmit");
        assert_eq!(ep.executions(), 1, "dup cache must suppress re-execution");
        assert_eq!(ep.counter().total(), 1);
    }

    #[test]
    fn dead_endpoint_times_out() {
        let (sim, caller) = setup(SimDuration::ZERO);
        caller.link.endpoint.set_alive(false);
        let out = sim.block_on(async move { caller.call(NfsRequest::Null).await });
        assert_eq!(out, Err(RpcError::Timeout));
        // 4 attempts x 100 ms, plus transmit times.
        assert!(sim.now().as_micros() >= 400_000);
    }

    #[test]
    fn concurrent_calls_use_thread_pool() {
        let (sim, caller) = setup(SimDuration::from_millis(10));
        let caller = Rc::new(caller);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Rc::clone(&caller);
            handles.push(sim.spawn(async move { c.call(NfsRequest::Null).await }));
        }
        sim.run_to_quiescence();
        for h in handles {
            assert_eq!(h.try_take().expect("finished"), Ok(NfsReply::Ok));
        }
        // 2 threads, 4 requests of 10 ms each → handler phase spans ≥20 ms.
        assert!(sim.now().as_micros() >= 20_000);
        assert_eq!(caller.link.endpoint.executions(), 4);
    }

    #[test]
    fn xids_distinguish_calls() {
        let (sim, caller) = setup(SimDuration::ZERO);
        let ep = caller.link.endpoint.clone();
        sim.block_on(async move {
            caller.call(NfsRequest::Null).await.unwrap();
            caller.call(NfsRequest::Null).await.unwrap();
        });
        assert_eq!(ep.executions(), 2);
    }

    #[test]
    fn batching_shares_the_wire_and_preserves_accounting() {
        let (sim, caller) = setup(SimDuration::ZERO);
        let mut t = TransportParams::pipelined();
        t.max_batch = 4;
        caller.set_transport(t);
        let stats = TransportStats::new();
        caller.set_transport_stats(stats.clone());
        let net = caller.link.net.clone();
        let ep = caller.link.endpoint.clone();
        let caller = Rc::new(caller);
        for _ in 0..4 {
            let c = Rc::clone(&caller);
            sim.spawn(async move {
                bg(&c, &NfsRequest::Null).await.unwrap();
            });
        }
        sim.run_to_quiescence();
        // Nagle: the first call goes out alone; the three that arrive
        // while it is in flight coalesce into one ack-clocked compound.
        assert_eq!(net.messages(), 4, "two compound exchanges, not eight");
        assert_eq!(ep.executions(), 4);
        assert_eq!(ep.counter().get(NfsProc::Null), 4);
        assert_eq!(
            ep.counter().get(NfsProc::Compound),
            0,
            "the compound wrapper is never counted as an executed procedure"
        );
        assert_eq!(stats.batch_sizes.count(), 2);
        assert_eq!(stats.batch_sizes.max(), 3);
        assert_eq!(stats.saved.get(NfsProc::Null), 2);
    }

    #[test]
    fn underfull_batch_flushes_on_the_window_deadline() {
        // A 10 ms handler holds the first batch's ack well past the
        // 1.2 ms window: the two followers must not wait for the ack clock.
        let (sim, caller) = setup(SimDuration::from_millis(10));
        let mut t = TransportParams::pipelined();
        t.max_batch = 8;
        caller.set_transport(t);
        let net = caller.link.net.clone();
        let ep = caller.link.endpoint.clone();
        let caller = Rc::new(caller);
        for _ in 0..3 {
            let c = Rc::clone(&caller);
            sim.spawn(async move {
                bg(&c, &NfsRequest::Null).await.unwrap();
            });
        }
        // By 5 ms the window (armed ~0.6 ms, 1.2 ms wide) has pushed the
        // follower compound onto the wire even though the first ack is
        // still 5 ms away — two requests sent, no replies yet.
        let sim2 = sim.clone();
        let h = sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(5)).await;
        });
        sim.run_until(h);
        assert_eq!(
            net.messages(),
            2,
            "window deadline flushed the followers before the first ack"
        );
        sim.run_to_quiescence();
        assert_eq!(net.messages(), 4, "immediate single + window-flushed pair");
        assert_eq!(ep.executions(), 3);
    }

    /// Four background calls of `req` in one batch against a handler that
    /// takes 150 ms and a 100 ms timeout: every call times out and
    /// re-enqueues with its original xid. The calls that completed, the
    /// executions and the retransmissions.
    fn retransmitted_batch(req: NfsRequest) -> (u32, u64, u64) {
        let (sim, caller) = setup(SimDuration::from_millis(150));
        let mut t = TransportParams::paper();
        t.max_batch = 4;
        caller.set_transport(t);
        let ep = caller.link.endpoint.clone();
        let caller = Rc::new(caller);
        let ok = Rc::new(Cell::new(0u32));
        for _ in 0..4 {
            let (c, ok, req) = (Rc::clone(&caller), Rc::clone(&ok), req.clone());
            sim.spawn(async move {
                if bg(&c, &req).await == Ok(NfsReply::Ok) {
                    ok.set(ok.get() + 1);
                }
            });
        }
        sim.run_to_quiescence();
        assert_eq!(ep.counter().get(req.proc_id()), ep.executions());
        (ok.get(), ep.executions(), caller.retransmits())
    }

    #[test]
    fn retransmitted_batch_executes_each_call_once() {
        // The dup cache must absorb the retransmissions of a
        // non-idempotent call.
        let (ok, executions, retransmits) = retransmitted_batch(keepalive());
        assert_eq!(ok, 4);
        assert!(retransmits >= 1, "the slow batch must retransmit");
        assert_eq!(executions, 4, "dup cache suppresses batch re-execution");
    }

    #[test]
    fn retransmitted_idempotent_batch_executes_again() {
        // A retransmission that arrives after its call's execution ended
        // executes again. The compound's reply waits for all four
        // executions, 300 ms on two threads, so each retransmitted batch
        // is again slower than the timeout and no call completes: the
        // cost of re-executing a read that a loaded server serves slower
        // than its callers' timeout.
        let (ok, executions, retransmits) = retransmitted_batch(NfsRequest::Null);
        assert!(retransmits >= 4, "every call retransmits");
        assert!(executions > 4, "{executions} executions");
        assert_eq!(ok, 0);
    }

    #[test]
    fn exponential_backoff_shrinks_retransmit_storms() {
        let run = |t: TransportParams| {
            let (sim, caller) = setup(SimDuration::from_millis(350));
            caller.set_transport(t);
            sim.block_on(async move {
                assert_eq!(caller.call(NfsRequest::Null).await, Ok(NfsReply::Ok));
                caller.retransmits()
            })
        };
        let fixed = run(TransportParams::paper());
        let mut backed_off = TransportParams::paper();
        backed_off.backoff_factor = 2.0;
        backed_off.backoff_jitter = 0.25;
        let backoff = run(backed_off);
        assert!(fixed >= 3, "the fixed timeout retransmits in lockstep");
        assert!(
            backoff < fixed,
            "backoff must shrink the storm ({backoff} vs {fixed})"
        );
    }

    #[test]
    fn dup_cache_purges_on_time_cadence() {
        // Regression: the old purge fired only when `dup.len()` was an
        // exact multiple of 1024, which a workload could hop over
        // forever. The purge now runs on a sim-time cadence.
        let (sim, caller) = setup(SimDuration::ZERO);
        let ep = caller.link.endpoint.clone();
        sim.block_on(async move {
            caller.call(keepalive()).await.unwrap();
            assert_eq!(caller.link.endpoint.dup_entries(), 1);
            // Well past the 60 s retention: the next completed call
            // sweeps the stale entry and leaves only itself.
            caller.link.sim.sleep(SimDuration::from_secs(61)).await;
            caller.call(keepalive()).await.unwrap();
            assert_eq!(caller.link.endpoint.dup_entries(), 1, "stale entry swept");
        });
        assert_eq!(ep.executions(), 2);
    }

    #[test]
    fn an_idempotent_call_leaves_no_dup_cache_entry() {
        let (sim, caller) = setup(SimDuration::ZERO);
        let ep = caller.link.endpoint.clone();
        sim.block_on(async move {
            caller.call(NfsRequest::Null).await.unwrap();
            assert_eq!(caller.link.endpoint.dup_entries(), 0);
            caller.call(keepalive()).await.unwrap();
            caller.call(NfsRequest::Null).await.unwrap();
        });
        assert_eq!((ep.executions(), ep.dup_entries()), (3, 1));
    }

    #[test]
    fn clear_dup_cache_forgets_completed_entries() {
        let (sim, caller) = setup(SimDuration::ZERO);
        let ep = caller.link.endpoint.clone();
        sim.block_on(async move {
            caller.call(keepalive()).await.unwrap();
        });
        assert_eq!(ep.dup_entries(), 1);
        ep.clear_dup_cache();
        assert_eq!(ep.dup_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "dup_retention")]
    fn retention_shorter_than_ladder_is_rejected() {
        let sim = Sim::new();
        let cpu = Resource::new(&sim, "cpu", 1);
        let net = Network::new(
            &sim,
            "net",
            NetParams {
                latency: SimDuration::from_micros(500),
                bandwidth: 1_250_000,
            },
        );
        let handler = Rc::new(|_, _, _| async { NfsReply::Ok });
        let ep = Endpoint::new(
            &sim,
            "nfsd",
            cpu.clone(),
            EndpointParams {
                // 4 s retention < the 5 s ladder (1 s × 5 attempts):
                // a retransmission could outlive the dup-cache entry
                // that protects it from double execution.
                dup_retention: SimDuration::from_secs(4),
                ..EndpointParams::default()
            },
            OpCounter::new(),
            handler,
        );
        let _ = Caller::new(&sim, net, ep, ClientId(1), cpu, CallerParams::default());
    }

    /// One call of `req` whose first reply is lost, and the endpoint.
    fn lost_reply(req: NfsRequest) -> (Result<NfsReply, RpcError>, Endpoint) {
        let (sim, caller) = setup(SimDuration::ZERO);
        caller.link.net.lose_next_reply(1, false);
        let ep = caller.link.endpoint.clone();
        let stats = caller.link.net.fault_stats();
        let (out, retransmits) = sim.block_on(async move {
            let r = caller.call(req).await;
            (r, caller.retransmits())
        });
        assert!(retransmits >= 1, "the lost reply forces a retransmission");
        assert_eq!(stats.get().killed_attempts, 1);
        assert_eq!(stats.get().retransmit_absorbed, 1);
        assert_eq!(stats.get().outstanding_kills, 0);
        (out, ep)
    }

    #[test]
    fn scripted_reply_loss_is_absorbed_by_the_dup_cache() {
        let (out, ep) = lost_reply(keepalive());
        assert_eq!(out, Ok(NfsReply::Ok));
        assert_eq!(ep.executions(), 1, "server executed exactly once");
        assert_eq!(ep.dup_hits(), 1, "retransmit answered from the dup cache");
    }

    #[test]
    fn scripted_reply_loss_of_an_idempotent_call_executes_it_again() {
        let (out, ep) = lost_reply(NfsRequest::Null);
        assert_eq!(out, Ok(NfsReply::Ok));
        assert_eq!(ep.executions(), 2, "the retransmission executed again");
        assert_eq!((ep.dup_hits(), ep.dup_entries()), (0, 0));
    }

    #[test]
    fn random_drops_are_absorbed_by_retransmission() {
        let (sim, caller) = setup(SimDuration::ZERO);
        caller.link.net.set_faults(crate::FaultParams {
            drop: 0.3,
            seed: 7,
            ..crate::FaultParams::default()
        });
        let ep = caller.link.endpoint.clone();
        let stats = caller.link.net.fault_stats();
        let caller = Rc::new(caller);
        let c2 = Rc::clone(&caller);
        sim.block_on(async move {
            for _ in 0..50 {
                // A call can exhaust its whole ladder against a 30%
                // drop rate; the application retries with a fresh xid,
                // exactly as a real NFS client's hard-mount loop would.
                while c2.call(NfsRequest::Null).await.is_err() {}
            }
        });
        assert_eq!(
            ep.executions(),
            50,
            "each completed call executed exactly once (drops kill the \
             request before delivery, so abandoned xids never executed)"
        );
        assert!(
            stats.get().drops > 0,
            "a 30% drop rate must fire in 50 calls"
        );
        assert_eq!(
            stats.get().killed_attempts,
            stats.get().retransmit_absorbed + stats.get().outstanding_kills,
            "kill conservation"
        );
    }

    /// Ten calls of `req`, each request delivered twice, and the endpoint.
    fn duplicated(req: NfsRequest) -> Endpoint {
        let (sim, caller) = setup(SimDuration::ZERO);
        caller.link.net.set_faults(crate::FaultParams {
            duplicate: 1.0,
            seed: 3,
            ..crate::FaultParams::default()
        });
        let ep = caller.link.endpoint.clone();
        let stats = caller.link.net.fault_stats();
        sim.block_on(async move {
            for _ in 0..10 {
                assert_eq!(caller.call(req.clone()).await, Ok(NfsReply::Ok));
            }
        });
        sim.run_to_quiescence();
        assert_eq!(stats.get().dups, 10);
        ep
    }

    #[test]
    fn duplicated_requests_hit_the_dup_cache_not_the_handler() {
        let ep = duplicated(keepalive());
        assert_eq!(ep.executions(), 10, "duplicates never re-execute");
        assert_eq!(
            ep.dup_hits() + ep.dup_joins(),
            10,
            "every duplicate was answered by the dup cache"
        );
    }

    #[test]
    fn a_duplicated_idempotent_request_joins_or_executes_again() {
        let ep = duplicated(NfsRequest::Null);
        assert_eq!(ep.dup_hits(), 0);
        assert_eq!(
            ep.executions(),
            20 - ep.dup_joins(),
            "a duplicate that found its execution ended executed again"
        );
    }

    #[test]
    fn default_fault_params_are_wire_inert() {
        // Installing the all-zero fault layer must leave traffic and
        // timing bit-identical to never installing it.
        let run = |configure: bool| {
            let (sim, caller) = setup(SimDuration::ZERO);
            if configure {
                caller.link.net.set_faults(crate::FaultParams::default());
            }
            let net = caller.link.net.clone();
            sim.block_on(async move {
                for _ in 0..5 {
                    caller.call(NfsRequest::Null).await.unwrap();
                }
            });
            (sim.now().as_micros(), net.messages(), net.bytes())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn partitioned_host_times_out_until_heal() {
        let (sim, caller) = setup(SimDuration::ZERO);
        caller.link.net.partition(
            1,
            crate::PartitionDir::Both,
            SimTime::ZERO + SimDuration::from_secs(3600),
        );
        let net = caller.link.net.clone();
        let out = sim.block_on(async move {
            let r1 = caller.call(NfsRequest::Null).await;
            net.heal(1);
            let r2 = caller.call(NfsRequest::Null).await;
            (r1, r2)
        });
        assert_eq!(out.0, Err(RpcError::Timeout));
        assert_eq!(out.1, Ok(NfsReply::Ok));
    }

    #[test]
    fn dropped_compound_retransmits_as_a_unit() {
        // The batcher sends one datagram per flush; a drop kills every
        // member, and each re-enqueues on its own timeout with its
        // original xid, so nothing double-executes.
        let (sim, caller) = setup(SimDuration::ZERO);
        let mut t = TransportParams::paper();
        t.max_batch = 4;
        caller.set_transport(t);
        // Drop everything briefly, then let retransmissions through.
        caller.link.net.set_faults(crate::FaultParams {
            drop: 1.0,
            seed: 11,
            ..crate::FaultParams::default()
        });
        let net = caller.link.net.clone();
        let stats = net.fault_stats();
        let ep = caller.link.endpoint.clone();
        let caller = Rc::new(caller);
        let ok = Rc::new(Cell::new(0u32));
        for _ in 0..4 {
            let c = Rc::clone(&caller);
            let ok = Rc::clone(&ok);
            sim.spawn(async move {
                assert_eq!(bg(&c, &NfsRequest::Null).await, Ok(NfsReply::Ok));
                ok.set(ok.get() + 1);
            });
        }
        let sim2 = sim.clone();
        let net2 = net.clone();
        let h = sim.spawn(async move {
            sim2.sleep(SimDuration::from_millis(50)).await;
            net2.set_faults(crate::FaultParams::default());
        });
        sim.run_until(h);
        sim.run_to_quiescence();
        assert_eq!(ok.get(), 4, "every batched call eventually completed");
        assert_eq!(ep.executions(), 4, "each member executed exactly once");
        assert!(stats.get().drops >= 1, "the first flush was dropped");
        assert_eq!(stats.get().outstanding_kills, 0);
    }

    fn batching(caller: &Caller) {
        let mut t = TransportParams::paper();
        t.max_batch = 4;
        caller.set_transport(t);
    }

    #[test]
    fn rekeyed_batching_caller_faults_on_its_own_link() {
        // A caller re-keyed to host 9's link (as callback and
        // coordination callers are) must be cut by host 9's partition
        // and must book its kills where its completions absorb them,
        // batched or not.
        let (sim, caller) = setup(SimDuration::ZERO);
        batching(&caller);
        caller.set_fault_link(9, false);
        caller.link.net.partition(
            9,
            crate::PartitionDir::Both,
            SimTime::ZERO + SimDuration::from_millis(150),
        );
        let stats = caller.link.net.fault_stats();
        let out = sim.block_on(async move { bg(&caller, &NfsRequest::Null).await });
        assert_eq!(out, Ok(NfsReply::Ok));
        assert_eq!(stats.get().partition_drops, 2, "attempts at 0 and 100 ms");
        assert_eq!(stats.get().killed_attempts, 2);
        assert_eq!(stats.get().retransmit_absorbed, 2);
        assert_eq!(stats.get().outstanding_kills, 0);
    }

    #[test]
    fn lost_compound_reply_takes_no_wire_time() {
        // The reply is lost before it is transmitted, batched or not: a
        // lost reply is no message on the wire.
        let messages = |background: bool| {
            let (sim, caller) = setup(SimDuration::ZERO);
            batching(&caller);
            caller.link.net.lose_next_reply(1, false);
            let net = caller.link.net.clone();
            let out = sim.block_on(async move {
                if background {
                    bg(&caller, &NfsRequest::Null).await
                } else {
                    caller.call_ctx(0, NfsRequest::Null).await
                }
            });
            assert_eq!(out, Ok(NfsReply::Ok));
            net.messages()
        };
        assert_eq!(messages(false), 3, "request, retransmission, reply");
        assert_eq!(messages(true), messages(false));
    }

    #[test]
    fn paper_transport_is_rpc_for_rpc_identical() {
        // Explicitly configuring the paper transport must leave the wire
        // traffic and timing bit-identical to never touching it.
        let run = |configure: bool| {
            let (sim, caller) = setup(SimDuration::ZERO);
            if configure {
                caller.set_transport(TransportParams::paper());
            }
            let net = caller.link.net.clone();
            sim.block_on(async move {
                for _ in 0..5 {
                    caller.call(NfsRequest::Null).await.unwrap();
                }
            });
            (sim.now().as_micros(), net.messages(), net.bytes())
        };
        assert_eq!(run(false), run(true));
    }
}
