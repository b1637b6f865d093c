//! Pins the client-side wire exchange event for event, on the paper
//! transport and on a batching one, under faults: the fault-free exchange
//! is pinned by the `*_trace_fnv` ledger keys and `tests/sharding.rs`, the
//! faulted foreground one by `fault_props.rs`, and the faulted *batched*
//! one here. Then, that the clones of one caller draw from one xid
//! sequence, park in one batch queue and draw jitter from one stream.
//! Last, the executor's cost of the fault-free exchange: what
//! 16,000 echoed Null RPCs retire, count for count, and what 2,000
//! batched background ones do.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use spritely_metrics::OpCounter;
use spritely_proto::{ClientId, FileHandle, Fnv, NfsReply, NfsRequest};
use spritely_rpcnet::{
    Caller, CallerParams, Endpoint, EndpointParams, FaultParams, NetParams, Network, PartitionDir,
    RpcError, TransportParams, TransportStats,
};
use spritely_sim::{Resource, Sim, SimDuration, SimStats};
use spritely_trace::{to_jsonl, Event, TraceEvent, Tracer};

/// A traced caller → endpoint pair whose handler takes 3 ms, echoes each
/// lookup's name back and counts executions per name.
struct Rig {
    sim: Sim,
    net: Network,
    ep: Endpoint,
    caller: Rc<Caller>,
    tracer: Tracer,
    executed: Rc<RefCell<HashMap<String, u64>>>,
}

/// The paper's wire: one shared 10 Mbit/s segment, 500 µs away.
fn shared_wire(sim: &Sim) -> Network {
    let params = NetParams {
        latency: SimDuration::from_micros(500),
        bandwidth: 1_250_000,
    };
    Network::new(sim, "net", params)
}

fn rig(transport: TransportParams) -> Rig {
    let sim = Sim::new();
    let tracer = Tracer::new(&sim);
    let net = shared_wire(&sim);
    net.set_tracer(tracer.clone());
    let executed = Rc::new(RefCell::new(HashMap::new()));
    let handler = {
        let sim = sim.clone();
        let executed = Rc::clone(&executed);
        Rc::new(move |_from: ClientId, _ctx: u64, req: NfsRequest| {
            let sim = sim.clone();
            let executed = Rc::clone(&executed);
            async move {
                let name = match req {
                    NfsRequest::Lookup { name, .. } => name,
                    other => panic!("rig only sends Lookup, got {other:?}"),
                };
                sim.sleep(SimDuration::from_millis(3)).await;
                *executed.borrow_mut().entry(name.clone()).or_insert(0) += 1;
                NfsReply::Path(name)
            }
        })
    };
    let ep = Endpoint::new(
        &sim,
        "svc",
        Resource::new(&sim, "scpu", 1),
        EndpointParams {
            threads: 2,
            cpu_per_call: SimDuration::from_micros(200),
            cpu_per_kb: SimDuration::ZERO,
            dup_retention: SimDuration::from_secs(600),
        },
        OpCounter::new(),
        handler,
    );
    ep.set_tracer(tracer.clone());
    let caller = Caller::new(
        &sim,
        net.clone(),
        ep.clone(),
        ClientId(1),
        Resource::new(&sim, "ccpu", 1),
        CallerParams {
            timeout: SimDuration::from_millis(60),
            max_retries: 6,
            cpu_per_call: SimDuration::from_micros(100),
        },
    );
    caller.set_tracer(tracer.clone());
    caller.set_transport(transport);
    Rig {
        sim,
        net,
        ep,
        caller: Rc::new(caller),
        tracer,
        executed,
    }
}

fn lookup(name: &str) -> NfsRequest {
    NfsRequest::Lookup {
        dir: FileHandle::new(1, 1, 0),
        name: name.to_string(),
    }
}

async fn foreground(c: &Caller, req: NfsRequest) -> Result<NfsReply, RpcError> {
    c.call_ctx(0, req).await
}

async fn background(c: &Caller, req: NfsRequest) -> Result<NfsReply, RpcError> {
    let out = c.call_flagged(0, &req, true).await;
    out.map(|(rep, _)| rep)
}

fn fnv(events: &[TraceEvent]) -> u64 {
    let mut h = Fnv::EMPTY;
    h.write(to_jsonl(events).as_bytes());
    h.0
}

/// What one run of the faulted script leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    digest: u64,
    events: usize,
    executions: u64,
    messages: u64,
    completed: usize,
    killed: u64,
    absorbed: u64,
    outstanding: u64,
}

/// The script: `FaultParams::chaos(255)`, the first reply scripted lost, a
/// 450 ms partition of the calling host from t = 150 ms (longer than the
/// paper transport's 7 × 60 ms ladder, so calls caught in it give up), and
/// six concurrent callers — four background (batchable), two foreground —
/// issuing twelve lookups each. On the batching transport that seed drops,
/// duplicates, delays and loses the reply of multi-member compounds.
fn faulted_script(transport: TransportParams) -> Outcome {
    let r = rig(transport);
    r.net.set_faults(FaultParams::chaos(255));
    r.net.lose_next_reply(1, false);
    {
        let (sim, net) = (r.sim.clone(), r.net.clone());
        r.sim.spawn(async move {
            sim.sleep(SimDuration::from_millis(150)).await;
            let until = sim.now() + SimDuration::from_millis(450);
            net.partition(1, PartitionDir::Both, until);
        });
    }
    let completed = Rc::new(RefCell::new(Vec::new()));
    for task in 0..6 {
        let caller = Rc::clone(&r.caller);
        let completed = Rc::clone(&completed);
        r.sim.spawn(async move {
            for i in 0..12 {
                let name = format!("t{task}-{i}");
                let rep = if task < 4 {
                    background(&caller, lookup(&name)).await
                } else {
                    foreground(&caller, lookup(&name)).await
                };
                match rep {
                    Ok(NfsReply::Path(p)) => {
                        assert_eq!(p, name, "the reply belongs to this call");
                        completed.borrow_mut().push(name);
                    }
                    Ok(other) => panic!("unexpected reply {other:?}"),
                    // The whole ladder was eaten; the script moves on.
                    Err(RpcError::Timeout) => {}
                }
            }
        });
    }
    r.sim.run_to_quiescence();
    let executed = r.executed.borrow();
    assert!(
        executed.values().all(|&n| n == 1),
        "at most once: {executed:?}"
    );
    let completed = completed.borrow();
    assert!(completed.iter().all(|name| executed.contains_key(name)));
    let fs = r.net.fault_stats();
    assert!(
        fs.get().drops > 0
            && fs.get().dups > 0
            && fs.get().delays > 0
            && fs.get().reply_losses > 1
            && fs.get().partition_drops > 0,
        "the script must exercise every fault arm"
    );
    // Kill conservation: what no retransmission absorbed belongs to calls
    // that gave up.
    assert_eq!(
        fs.get().killed_attempts,
        fs.get().retransmit_absorbed + fs.get().outstanding_kills
    );
    let events = r.tracer.finish();
    Outcome {
        digest: fnv(&events),
        events: events.len(),
        executions: r.ep.executions(),
        messages: r.net.messages(),
        completed: completed.len(),
        killed: fs.get().killed_attempts,
        absorbed: fs.get().retransmit_absorbed,
        outstanding: fs.get().outstanding_kills,
    }
}

#[test]
fn faulted_exchange_on_the_paper_transport_is_pinned() {
    assert_eq!(
        faulted_script(TransportParams::paper()),
        Outcome {
            digest: 0x14c6_908b_60a1_9258,
            events: 692,
            executions: 71,
            messages: 180,
            completed: 68,
            killed: 38,
            absorbed: 10,
            outstanding: 28,
        }
    );
}

#[test]
fn faulted_exchange_on_a_batching_transport_is_pinned() {
    let mut t = TransportParams::pipelined();
    t.max_batch = 4;
    assert_eq!(
        faulted_script(t),
        Outcome {
            digest: 0x8333_1b68_9311_ea5e,
            events: 739,
            executions: 72,
            messages: 155,
            completed: 72,
            killed: 17,
            absorbed: 17,
            outstanding: 0,
        }
    );
}

/// `NfsRequest::compound`'s contract, end to end: a batch of one is the plain
/// message. An idle batching caller's lone background call puts the same
/// bytes in the same number of messages on the wire at the same instants
/// as a foreground call, and gets the same reply; the `batch` event pair
/// is the only difference in the trace.
#[test]
fn lone_background_call_is_the_plain_message() {
    let run = |bg: bool| {
        let r = rig(TransportParams::pipelined());
        let caller = Rc::clone(&r.caller);
        let rep = r.sim.block_on(async move {
            if bg {
                background(&caller, lookup("lone")).await
            } else {
                foreground(&caller, lookup("lone")).await
            }
        });
        // Sequence numbers shift by the two batch events; what happened,
        // and when, must not.
        let trace: Vec<(u64, Event)> = r
            .tracer
            .finish()
            .iter()
            .filter(|e| !matches!(e.view(), Event::Batch { .. }))
            .map(|e| (e.t_us, e.view()))
            .collect();
        let batch_events = r.tracer.len() - trace.len();
        (
            rep,
            r.net.messages(),
            r.net.bytes(),
            r.sim.now(),
            trace,
            batch_events,
        )
    };
    let (fg, bg) = (run(false), run(true));
    assert_eq!(fg.0, Ok(NfsReply::Path("lone".to_string())));
    assert_eq!(fg.1, 2, "one request, one reply");
    assert_eq!((fg.5, bg.5), (0, 2), "only the batcher emits batch events");
    assert_eq!(
        (&fg.0, fg.1, fg.2, fg.3, &fg.4),
        (&bg.0, bg.1, bg.2, bg.3, &bg.4)
    );
}

/// A clone of a caller is another handle on the same logical RPC source,
/// so it draws from the same xid sequence. The SNFS server clones a
/// client's callback caller for every callback it sends: were a clone to
/// restart at xid 0, its calls would present `(from, xid)` pairs the
/// endpoint's duplicate-request cache already holds, and be answered
/// from the cache without ever reaching the handler.
#[test]
fn clones_of_one_caller_share_its_xids_so_every_call_executes() {
    let r = rig(TransportParams::paper());
    let (a, b) = ((*r.caller).clone(), (*r.caller).clone());
    let replies = r.sim.block_on(async move {
        let mut replies = Vec::new();
        for i in 0..3 {
            for (c, name) in [(&a, format!("a{i}")), (&b, format!("b{i}"))] {
                let rep = foreground(c, lookup(&name)).await;
                replies.push((rep, name));
            }
        }
        replies
    });
    for (rep, name) in &replies {
        assert_eq!(rep, &Ok(NfsReply::Path(name.clone())), "{name}'s own reply");
    }
    assert_eq!(
        r.ep.executions(),
        replies.len() as u64,
        "every call executed"
    );
    assert_eq!(r.ep.dup_hits(), 0, "none was answered from the dup cache");
}

/// Clones share the batch queue too. The first background call of an idle
/// caller leaves at once; the two that follow, one from each clone,
/// park behind it and leave together as one compound when its ack
/// comes back. Were each clone to queue on its own, the second clone
/// would find nothing in flight on its side and send alone.
#[test]
fn clones_of_one_caller_share_its_batch_queue() {
    let mut t = TransportParams::pipelined();
    t.max_batch = 4;
    let r = rig(t);
    let stats = TransportStats::new();
    r.caller.set_transport_stats(stats.clone());
    let (a, b) = ((*r.caller).clone(), (*r.caller).clone());
    let calls = [(a.clone(), "a0"), (b, "b0"), (a, "a1")];
    let handles: Vec<_> = calls
        .into_iter()
        .map(|(c, name)| {
            let call = async move { (background(&c, lookup(name)).await, name) };
            r.sim.spawn(call)
        })
        .collect();
    r.sim.run_to_quiescence();
    for h in handles {
        let (rep, name) = h.try_take().expect("finished");
        let own = NfsReply::Path(name.to_string());
        assert_eq!(rep, Ok(own), "{name}'s own reply");
    }
    let sizes = &stats.batch_sizes;
    assert_eq!(
        (sizes.count(), sizes.count_of(1), sizes.count_of(2)),
        (2, 1, 1),
        "a lone flush, then one compound of both clones' calls"
    );
    assert_eq!(r.net.messages(), 4, "two exchanges");
}

/// Clones share the retransmission jitter stream: a clone's ladder
/// continues where the original's last draw left it, as the original's
/// own next call would, instead of replaying the original's first one.
#[test]
fn clones_of_one_caller_share_its_jitter_stream() {
    let mut t = TransportParams::paper();
    t.backoff_jitter = 0.5;
    // Two calls against a dead endpoint, the second by the original or by
    // a clone: how long each took to exhaust its ladder.
    let ladders = |second_by_clone: bool| {
        let r = rig(t);
        r.ep.set_alive(false);
        let clone = (*r.caller).clone();
        let (sim, original) = (r.sim.clone(), Rc::clone(&r.caller));
        r.sim.block_on(async move {
            let second = if second_by_clone { &clone } else { &*original };
            let mut spans = Vec::new();
            for c in [&*original, second] {
                let t0 = sim.now();
                assert_eq!(foreground(c, lookup("x")).await, Err(RpcError::Timeout));
                spans.push(sim.now().duration_since(t0));
            }
            spans
        })
    };
    let (alone, cloned) = (ladders(false), ladders(true));
    assert_ne!(alone[0], alone[1], "each ladder draws its own jitter");
    assert_eq!(cloned, alone, "the clone continued the original's stream");
}

/// Eight callers each push 2000 Null RPCs through the whole
/// caller/wire/endpoint stack against an instant-reply handler. The
/// executor's counters for that stream are pinned: a change to how a call
/// is scheduled (a poll more per hop, a timeout guard left to fire, a
/// task more per call) moves them, whatever it does to the host clock.
#[test]
fn null_rpc_echo_retires_a_pinned_event_count() {
    let sim = Sim::new();
    let net = shared_wire(&sim);
    let handler = Rc::new(|_from: ClientId, _ctx: u64, _req: NfsRequest| async { NfsReply::Ok });
    let ep = Endpoint::new(
        &sim,
        "svc",
        Resource::new(&sim, "scpu", 2),
        EndpointParams {
            threads: 4,
            cpu_per_call: SimDuration::from_micros(200),
            cpu_per_kb: SimDuration::ZERO,
            dup_retention: SimDuration::from_secs(600),
        },
        OpCounter::new(),
        handler,
    );
    for c in 0..8 {
        let caller = Caller::new(
            &sim,
            net.clone(),
            ep.clone(),
            ClientId(c + 1),
            Resource::new(&sim, "ccpu", 1),
            CallerParams {
                timeout: SimDuration::from_secs(2),
                max_retries: 3,
                cpu_per_call: SimDuration::from_micros(100),
            },
        );
        sim.spawn(async move {
            for _ in 0..2000 {
                caller.call(NfsRequest::Null).await.expect("echo call");
            }
        });
    }
    sim.run_to_quiescence();
    let stats = sim.stats();
    assert_eq!(stats.events_retired(), 256_007);
    assert_eq!(
        SimStats {
            polls: 160_007,
            stale_wakes: 0,
            timer_cancels: 16_000,
            peak_ready_depth: 8,
            peak_live_tasks: 10,
            peak_live_timers: 16,
            ..stats
        },
        stats
    );
}

/// The background twin of `null_rpc_echo_retires_a_pinned_event_count`:
/// two batching callers, each shared by four tasks that issue 250
/// background Null calls apiece with staggered think times, so the
/// batcher flushes lone members (an idle caller sends at once) and
/// compounds of two to four (the ack clock, the window, a full batch).
/// The executor's counters, the message count and the trace are pinned: a
/// change to how a batched call is delivered that moves a poll, a wake or
/// an event's place in the ready queue moves them.
#[test]
fn background_null_rpc_echo_retires_a_pinned_event_count() {
    let sim = Sim::new();
    let tracer = Tracer::new(&sim);
    let net = shared_wire(&sim);
    net.set_tracer(tracer.clone());
    let handler = Rc::new(|_from: ClientId, _ctx: u64, _req: NfsRequest| async { NfsReply::Ok });
    let ep = Endpoint::new(
        &sim,
        "svc",
        Resource::new(&sim, "scpu", 2),
        EndpointParams {
            threads: 4,
            cpu_per_call: SimDuration::from_micros(200),
            cpu_per_kb: SimDuration::ZERO,
            dup_retention: SimDuration::from_secs(600),
        },
        OpCounter::new(),
        handler,
    );
    ep.set_tracer(tracer.clone());
    let stats = TransportStats::new();
    let mut transport = TransportParams::pipelined();
    transport.max_batch = 3;
    for c in 0..2 {
        let caller = Caller::new(
            &sim,
            net.clone(),
            ep.clone(),
            ClientId(c + 1),
            Resource::new(&sim, "ccpu", 1),
            CallerParams {
                timeout: SimDuration::from_secs(2),
                max_retries: 3,
                cpu_per_call: SimDuration::from_micros(100),
            },
        );
        caller.set_tracer(tracer.clone());
        caller.set_transport(transport);
        caller.set_transport_stats(stats.clone());
        let caller = Rc::new(caller);
        for task in 0..4u64 {
            let (sim2, caller) = (sim.clone(), Rc::clone(&caller));
            let think = SimDuration::from_micros(task * 700);
            sim.spawn(async move {
                for _ in 0..250 {
                    let rep = background(&caller, NfsRequest::Null).await;
                    assert_eq!(rep, Ok(NfsReply::Ok));
                    sim2.sleep(think).await;
                }
            });
        }
    }
    sim.run_to_quiescence();
    let sizes = &stats.batch_sizes;
    assert!(
        sizes.count_of(1) > 0 && sizes.max() > 1,
        "both lone and compound flushes"
    );
    let events = tracer.finish();
    assert_eq!(
        (sizes.count(), sizes.count_of(1), sizes.count_of(3)),
        (1400, 910, 110),
        "flushes: all, lone, full"
    );
    assert_eq!(
        (fnv(&events), events.len(), net.messages(), ep.executions()),
        (0x026f_3fd3_4a04_1f49, 17_600, 2800, 2000)
    );
    let stats = sim.stats();
    assert_eq!(stats.tasks_completed, stats.tasks_spawned);
    assert_eq!(
        SimStats {
            polls: 24_420,
            tasks_spawned: 5324,
            stale_wakes: 0,
            timers_registered: 13_926,
            timer_fires: 11_926,
            timer_cancels: 2000,
            clock_advances: 11_197,
            peak_ready_depth: 8,
            peak_live_tasks: 26,
            peak_live_timers: 15,
            ..stats
        },
        stats
    );
}
