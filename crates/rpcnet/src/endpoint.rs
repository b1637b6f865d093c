//! RPC endpoints: the server side of an exchange — thread pool, per-call
//! CPU, duplicate-request cache (DESIGN.md §22).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use spritely_metrics::{OpCounter, RateSeries};
use spritely_proto::{ClientId, NfsReply, NfsRequest};
use spritely_sim::{JoinHandle, Map, Resource, Semaphore, Sim, SimDuration, SimTime};
use spritely_trace::{EventKind, Tracer};

/// An RPC service: what an [`Endpoint`] runs for each request it
/// executes. The `u64` is the causal trace context (the handler-begin
/// event's sequence number, 0 when untraced) for the handler to parent its
/// own trace events under. The future is awaited inside the execution's
/// own task, unboxed.
pub trait Handler: 'static {
    /// Serves one request from `from`.
    fn serve(&self, from: ClientId, ctx: u64, req: NfsRequest) -> impl Future<Output = NfsReply>;
}

/// A closure is a handler, whether its future is boxed or not.
impl<F, Fut> Handler for Rc<F>
where
    F: Fn(ClientId, u64, NfsRequest) -> Fut + ?Sized + 'static,
    Fut: Future<Output = NfsReply>,
{
    fn serve(&self, from: ClientId, ctx: u64, req: NfsRequest) -> impl Future<Output = NfsReply> {
        (**self)(from, ctx, req)
    }
}

/// Spawns one execution's task: `spawn_execution` for the endpoint's
/// handler type, which is erased here and nowhere else.
type SpawnFn =
    Box<dyn Fn(&Rc<EndpointInner>, (ClientId, u64), u64, NfsRequest) -> JoinHandle<NfsReply>>;

/// Server-side endpoint parameters.
#[derive(Debug, Clone, Copy)]
pub struct EndpointParams {
    /// Number of service threads. An SNFS server must have at least two so
    /// that write-backs triggered by a callback can be serviced while the
    /// callback-issuing thread waits (paper §3.2).
    pub threads: usize,
    /// Host CPU charged per call (RPC decode, dispatch, encode).
    pub cpu_per_call: SimDuration,
    /// Additional host CPU charged per KB of request payload.
    pub cpu_per_kb: SimDuration,
    /// How long a completed non-idempotent call's reply stays in the
    /// duplicate-request cache (an idempotent call leaves none).
    pub dup_retention: SimDuration,
}

impl Default for EndpointParams {
    fn default() -> Self {
        EndpointParams {
            threads: 4,
            cpu_per_call: SimDuration::from_micros(400),
            cpu_per_kb: SimDuration::from_micros(100),
            dup_retention: SimDuration::from_secs(60),
        }
    }
}

enum DupState {
    /// The execution's own task, of any procedure: whoever delivers the
    /// request again meanwhile waits for it and reads its reply.
    InProgress(JoinHandle<NfsReply>),
    /// A completed non-idempotent call's reply.
    Done(NfsReply, SimTime),
}

/// Number of fixed hash buckets the duplicate-request cache is split
/// into. On a real multi-threaded server each bucket would carry its own
/// lock; here the split bounds the per-sweep work (each bucket purges on
/// its own cadence over 1/16th of the entries) and gives the contention
/// proxy something to measure.
const DUP_BUCKETS: usize = 16;

/// One duplicate-cache bucket: its own map, purge clock, and contention
/// accounting, so bucket maintenance never touches its siblings.
struct DupBucket {
    map: RefCell<Map<(ClientId, u64), DupState>>,
    /// When this bucket was last swept; sweeps run on a sim-time cadence
    /// of one retention period, per bucket.
    last_purge: Cell<SimTime>,
    /// Executions currently in flight whose completion will re-enter
    /// this bucket.
    in_flight: Cell<usize>,
    /// Fresh arrivals that found another execution in flight on the same
    /// bucket — the accesses a per-bucket lock would have serialized.
    /// With one global lock every overlapping pair would collide; the
    /// bucket split divides the collisions by the fan-out.
    contention: Cell<u64>,
}

impl DupBucket {
    fn new() -> Self {
        DupBucket {
            map: RefCell::new(Map::default()),
            last_purge: Cell::new(SimTime::ZERO),
            in_flight: Cell::new(0),
            contention: Cell::new(0),
        }
    }
}

/// Bucket index for a caller: clients get sequential ids, so a simple
/// modulus spreads them evenly.
fn dup_bucket_of(from: ClientId) -> usize {
    from.0 as usize % DUP_BUCKETS
}

struct EndpointInner {
    sim: Sim,
    threads: Resource,
    /// Admission gate for requests that may block on a consistency
    /// action ([`NfsRequest::may_block`]): at most N−1 of the N threads, so a
    /// callback-induced write-back always finds a free thread (paper
    /// §3.2). Waiters queue here *before* taking a thread, so a stalled
    /// open costs nothing but its own latency.
    blocking: Semaphore,
    cpu: Resource,
    params: EndpointParams,
    spawn: SpawnFn,
    dup: [DupBucket; DUP_BUCKETS],
    counter: OpCounter,
    rates: RefCell<Option<RateSeries>>,
    tracer: RefCell<Option<Tracer>>,
    alive: Cell<bool>,
    executions: Cell<u64>,
    /// Retransmissions answered from a completed dup-cache entry.
    dup_hits: Cell<u64>,
    /// Retransmissions that joined an in-progress execution.
    dup_joins: Cell<u64>,
}

/// A server-side RPC endpoint: thread pool + dup cache + accounting around
/// a user-supplied async handler.
///
/// Cheap to clone. Executions are spawned as independent tasks, so a caller
/// that times out and abandons its attempt does not abort server-side work
/// (a retransmission joins it, or, once it ended, finds its parked reply
/// or executes again if the call is idempotent).
#[derive(Clone)]
pub struct Endpoint {
    inner: Rc<EndpointInner>,
}

impl Endpoint {
    /// Creates an endpoint.
    ///
    /// `cpu` is the host CPU resource shared with everything else on that
    /// host; `counter` receives one record per *executed* call (duplicates
    /// suppressed by the cache are not re-counted).
    ///
    /// # Panics
    ///
    /// Panics if `params.threads` is zero.
    pub fn new(
        sim: &Sim,
        name: impl Into<String>,
        cpu: Resource,
        params: EndpointParams,
        counter: OpCounter,
        handler: impl Handler,
    ) -> Self {
        assert!(params.threads > 0, "endpoint needs at least one thread");
        let handler = Rc::new(handler);
        Endpoint {
            inner: Rc::new(EndpointInner {
                sim: sim.clone(),
                threads: Resource::new(sim, name, params.threads),
                blocking: Semaphore::new(params.threads.saturating_sub(1).max(1)),
                cpu,
                params,
                spawn: Box::new(move |inner, key, parent, req| {
                    spawn_execution(inner, Rc::clone(&handler), key, parent, req)
                }),
                dup: std::array::from_fn(|_| DupBucket::new()),
                counter,
                rates: RefCell::new(None),
                tracer: RefCell::new(None),
                alive: Cell::new(true),
                executions: Cell::new(0),
                dup_hits: Cell::new(0),
                dup_joins: Cell::new(0),
            }),
        }
    }

    /// Attaches a rate series that will record every executed call.
    pub fn set_rate_series(&self, rates: RateSeries) {
        *self.inner.rates.borrow_mut() = Some(rates);
    }

    /// Attaches a tracer: every handler execution is recorded as a
    /// `handler_begin`/`handler_end` span, causally linked to the
    /// originating `rpc_call` event.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.inner.tracer.borrow_mut() = Some(tracer);
    }

    /// The per-procedure counter.
    pub fn counter(&self) -> &OpCounter {
        &self.inner.counter
    }

    /// Number of handler executions (excludes dup-cache hits).
    pub fn executions(&self) -> u64 {
        self.inner.executions.get()
    }

    /// Retransmissions answered from a completed dup-cache entry.
    pub fn dup_hits(&self) -> u64 {
        self.inner.dup_hits.get()
    }

    /// Retransmissions that joined an in-progress execution.
    pub fn dup_joins(&self) -> u64 {
        self.inner.dup_joins.get()
    }

    /// Current duplicate-cache population across all buckets (purge
    /// tests).
    pub fn dup_entries(&self) -> usize {
        self.inner.dup.iter().map(|b| b.map.borrow().len()).sum()
    }

    /// Fresh arrivals that found another execution in flight on their
    /// bucket — the accesses a per-bucket dup-cache lock would have
    /// serialized on a threaded server.
    pub fn dup_contention(&self) -> u64 {
        self.inner.dup.iter().map(|b| b.contention.get()).sum()
    }

    /// The configured dup-cache retention.
    pub fn dup_retention(&self) -> SimDuration {
        self.inner.params.dup_retention
    }

    /// Discards every completed (non-idempotent) dup-cache entry,
    /// modelling a server whose in-memory dup cache did not survive (a
    /// reboot, or an eviction storm). A retransmission arriving afterwards
    /// will re-execute its procedure — exactly the hazard the clients'
    /// retransmit-outcome mapping defends against.
    pub fn clear_dup_cache(&self) {
        for bucket in &self.inner.dup {
            bucket
                .map
                .borrow_mut()
                .retain(|_, v| matches!(v, DupState::InProgress(_)));
        }
    }

    /// Marks the endpoint up or down. Calls to a down endpoint hang until
    /// the caller's timeout fires.
    pub fn set_alive(&self, alive: bool) {
        self.inner.alive.set(alive);
    }

    /// Returns true if the endpoint accepts requests.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.get()
    }

    /// Delivers a request: it joins its `(from, xid)`'s running execution,
    /// gets a parked non-idempotent reply, or executes. `parent` is the
    /// trace context of the originating `rpc_call` event (0 when untraced).
    pub async fn deliver(
        &self,
        from: ClientId,
        xid: u64,
        parent: u64,
        req: NfsRequest,
    ) -> NfsReply {
        let key = (from, xid);
        let bucket = &self.inner.dup[dup_bucket_of(from)];
        let execution = {
            let mut dup = bucket.map.borrow_mut();
            // Arrival boundary for the latency profiler: the gap from a
            // fresh arrival to its handler_begin is admission wait. Pure
            // observation — no await, no randomness.
            if let Some(t) = self.inner.tracer.borrow().as_ref() {
                t.emit(
                    parent,
                    EventKind::RpcArrive {
                        from,
                        xid,
                        dup: dup.contains_key(&key),
                    },
                );
            }
            match dup.get(&key) {
                Some(DupState::Done(rep, _)) => {
                    self.inner.dup_hits.set(self.inner.dup_hits.get() + 1);
                    return rep.clone();
                }
                Some(DupState::InProgress(execution)) => {
                    self.inner.dup_joins.set(self.inner.dup_joins.get() + 1);
                    execution.clone()
                }
                None => {
                    // Pure accounting: how often would a per-bucket lock
                    // have been contended by a concurrent execution?
                    if bucket.in_flight.get() > 0 {
                        bucket.contention.set(bucket.contention.get() + 1);
                    }
                    bucket.in_flight.set(bucket.in_flight.get() + 1);
                    let execution = (self.inner.spawn)(&self.inner, key, parent, req);
                    dup.insert(key, DupState::InProgress(execution.clone()));
                    execution
                }
            }
        };
        execution.finished().await;
        execution.output().expect("the execution finished")
    }
}

/// One execution of `req` by `handler`, in its own task: admission, a
/// thread, the per-call CPU, the handler span, then the dup-cache entry
/// (none for an idempotent call). The task's output is the reply.
fn spawn_execution<H: Handler>(
    inner: &Rc<EndpointInner>,
    handler: Rc<H>,
    key: (ClientId, u64),
    parent: u64,
    req: NfsRequest,
) -> JoinHandle<NfsReply> {
    let inner = Rc::clone(inner);
    let from = key.0;
    let proc = req.proc_id();
    let kb = req.wire_size() as f64 / 1024.0;
    let gated = req.may_block();
    inner.sim.clone().spawn(async move {
        // N−1 admission (§3.2): a request that may block on a
        // consistency action queues for a blocking slot before it
        // may occupy a thread. When uncontended the acquire
        // completes synchronously, so ungated traffic is unaffected.
        let _gate = if gated {
            Some(inner.blocking.acquire().await)
        } else {
            None
        };
        let thread = inner.threads.acquire().await;
        inner.counter.record(proc);
        if let Some(r) = inner.rates.borrow().as_ref() {
            r.record_at(inner.sim.now(), proc);
        }
        let ctx = match inner.tracer.borrow().as_ref() {
            Some(t) => t.emit(
                parent,
                EventKind::HandlerBegin {
                    from,
                    xid: key.1,
                    proc,
                },
            ),
            None => 0,
        };
        let cpu_time = inner.params.cpu_per_call + inner.params.cpu_per_kb.mul_f64(kb);
        if !cpu_time.is_zero() {
            inner.cpu.use_for(cpu_time).await;
        }
        let rep = handler.serve(from, ctx, req).await;
        if let Some(t) = inner.tracer.borrow().as_ref() {
            t.emit(
                ctx,
                EventKind::HandlerEnd {
                    from,
                    xid: key.1,
                    proc,
                    ok: rep.is_ok(),
                },
            );
        }
        drop(thread);
        inner.executions.set(inner.executions.get() + 1);
        let now = inner.sim.now();
        let bucket = &inner.dup[dup_bucket_of(from)];
        bucket.in_flight.set(bucket.in_flight.get() - 1);
        let mut dup = bucket.map.borrow_mut();
        let prev = if proc.idempotent() {
            dup.remove(&key)
        } else {
            dup.insert(key, DupState::Done(rep.clone(), now))
        };
        // Sweep this bucket's expired entries once per retention
        // period of sim time. (The old trigger — `len()` an exact
        // multiple of 1024 — let a replace-heavy workload hop over
        // the boundary and never purge.) The sweep is pure map
        // maintenance: no awaits, no randomness, so it cannot
        // perturb timing; bucketing bounds each sweep to its own
        // slice of the cache.
        let retention = inner.params.dup_retention;
        if now.saturating_duration_since(bucket.last_purge.get()) >= retention {
            bucket.last_purge.set(now);
            dup.retain(|_, v| match v {
                DupState::InProgress(_) => true,
                DupState::Done(_, t) => now.saturating_duration_since(*t) < retention,
            });
        }
        assert!(
            matches!(prev, Some(DupState::InProgress(_))),
            "execution finished without an InProgress entry"
        );
        rep
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_sim::Event;

    #[test]
    fn per_call_cpu_is_charged_on_server() {
        let sim = Sim::new();
        let handler = Rc::new(|_, _, _| async { NfsReply::Ok });
        let ep = Endpoint::new(
            &sim,
            "nfsd",
            Resource::new(&sim, "scpu", 1),
            EndpointParams {
                threads: 2,
                cpu_per_call: SimDuration::from_micros(400),
                cpu_per_kb: SimDuration::ZERO,
                dup_retention: SimDuration::from_secs(60),
            },
            OpCounter::new(),
            handler,
        );
        let ep2 = ep.clone();
        sim.block_on(async move { ep2.deliver(ClientId(1), 0, 0, NfsRequest::Null).await });
        assert_eq!(ep.inner.cpu.busy_permit_micros(), 400);
    }

    #[test]
    fn blocking_requests_never_occupy_the_last_thread() {
        // §3.2 reserved thread: opens stacking behind a dirty file's
        // lock must not starve the callback-induced write-back that
        // would release them. Model the stall with a handler that parks
        // every Open on an event; a Write delivered while *three* opens
        // are stalled (against 2 threads) must still execute.
        let sim = Sim::new();
        let cpu = Resource::new(&sim, "cpu", 1);
        let gate = Event::new();
        let g2 = gate.clone();
        let handler = Rc::new(move |_from, _ctx, req| {
            let gate = g2.clone();
            async move {
                if matches!(req, NfsRequest::Open { .. }) {
                    gate.wait().await;
                }
                NfsReply::Ok
            }
        });
        let ep = Endpoint::new(
            &sim,
            "nfsd",
            cpu,
            EndpointParams {
                threads: 2,
                cpu_per_call: SimDuration::ZERO,
                cpu_per_kb: SimDuration::ZERO,
                dup_retention: SimDuration::from_secs(60),
            },
            OpCounter::new(),
            handler,
        );
        let fh = spritely_proto::FileHandle::new(1, 1, 0);
        let from = ClientId(1);
        let mut opens = Vec::new();
        for xid in 0..3 {
            let ep = ep.clone();
            opens.push(sim.spawn(async move {
                ep.deliver(
                    from,
                    xid,
                    0,
                    NfsRequest::Open {
                        fh,
                        write: false,
                        client: from,
                    },
                )
                .await
            }));
        }
        let ep2 = ep.clone();
        let write =
            sim.spawn(async move { ep2.deliver(from, 100, 0, NfsRequest::GetAttr { fh }).await });
        sim.run_to_quiescence();
        assert_eq!(
            write.try_take().expect("write-back class traffic served"),
            NfsReply::Ok,
            "the reserved thread served the non-blocking request"
        );
        assert!(
            opens.iter().all(|h| h.try_take().is_none()),
            "opens are still parked"
        );
        gate.set();
        sim.run_to_quiescence();
        for h in opens {
            assert_eq!(h.try_take().expect("open completed"), NfsReply::Ok);
        }
    }
}
