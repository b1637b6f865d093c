//! Property-based tests for the fault-injection layer: under *any*
//! random fault schedule (drops, duplicates, delays, reply losses), the
//! duplicate-request cache keeps execution at-most-once per logical
//! non-idempotent call, an idempotent one executes again only after its
//! execution ended, every completed caller observes a reply consistent
//! with the execution that produced it, the run terminates, and the
//! fault accounting balances.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;
use spritely_metrics::OpCounter;
use spritely_proto::{ClientId, FileHandle, NfsReply, NfsRequest};
use spritely_rpcnet::{
    Caller, CallerParams, Endpoint, EndpointParams, FaultParams, NetParams, Network,
};
use spritely_sim::{Resource, Sim, SimDuration};
use spritely_trace::{check_trace, Tracer};

/// A rig whose handler echoes each request's unique name back in the
/// reply and counts executions per name. Any double execution or
/// cross-wired reply is therefore observable.
struct Rig {
    sim: Sim,
    net: Network,
    caller: Rc<Caller>,
    executed: Rc<RefCell<HashMap<String, u64>>>,
    /// The endpoint's handler spans.
    tracer: Tracer,
}

fn rig(faults: FaultParams, handler_delay_us: u64) -> Rig {
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
    net.set_faults(faults);
    let executed = Rc::new(RefCell::new(HashMap::new()));
    let handler = {
        let sim = sim.clone();
        let executed = Rc::clone(&executed);
        Rc::new(move |_from: ClientId, _ctx: u64, req: NfsRequest| {
            let sim = sim.clone();
            let executed = Rc::clone(&executed);
            async move {
                let name = match &req {
                    NfsRequest::Lookup { name, .. } | NfsRequest::Create { name, .. } => {
                        name.to_string()
                    }
                    _ => panic!("rig only sends Lookup and Create"),
                };
                sim.sleep(SimDuration::from_micros(handler_delay_us)).await;
                *executed.borrow_mut().entry(name.clone()).or_insert(0) += 1;
                NfsReply::Path(name)
            }
        })
    };
    let ep = Endpoint::new(
        &sim,
        "svc",
        server_cpu,
        EndpointParams {
            threads: 2,
            cpu_per_call: SimDuration::from_micros(200),
            cpu_per_kb: SimDuration::ZERO,
            dup_retention: SimDuration::from_secs(600),
        },
        OpCounter::new(),
        handler,
    );
    let tracer = Tracer::new(&sim);
    ep.set_tracer(tracer.clone());
    let caller = Caller::new(
        &sim,
        net.clone(),
        ep,
        ClientId(1),
        client_cpu,
        CallerParams {
            timeout: SimDuration::from_millis(60),
            max_retries: 6,
            cpu_per_call: SimDuration::from_micros(100),
        },
    );
    Rig {
        sim,
        net,
        caller: Rc::new(caller),
        executed,
        tracer,
    }
}

fn lookup(dir: FileHandle, name: &str) -> NfsRequest {
    NfsRequest::Lookup {
        dir,
        name: name.into(),
    }
}

/// A non-idempotent twin of [`lookup`].
fn create(dir: FileHandle, name: &str) -> NfsRequest {
    NfsRequest::Create {
        dir,
        name: name.into(),
    }
}

/// `n_calls` concurrent calls built by `req` under `faults`: the names
/// whose callers got their reply, and the executions per name. Asserts what
/// holds for every procedure: a caller's reply carries the name *it* sent,
/// whatever was dropped or duplicated; the simulation quiesces even when
/// the schedule kills every attempt of a call; every fault-killed attempt
/// is either absorbed by a retransmission that completed or charged to a
/// call that gave up; and the trace checker's rule 8 holds.
fn schedule(
    faults: FaultParams,
    handler_delay_us: u64,
    n_calls: usize,
    req: fn(FileHandle, &str) -> NfsRequest,
) -> (Vec<String>, HashMap<String, u64>) {
    let r = rig(faults, handler_delay_us);
    let dir = FileHandle::new(1, 1, 0);
    let ok = Rc::new(RefCell::new(Vec::new()));
    let err = Rc::new(Cell::new(0u64));
    for i in 0..n_calls {
        let caller = Rc::clone(&r.caller);
        let ok = Rc::clone(&ok);
        let err = Rc::clone(&err);
        r.sim.spawn(async move {
            let name = format!("req{i}");
            match caller.call(req(dir, &name)).await {
                Ok(NfsReply::Path(p)) => {
                    assert_eq!(p, name, "reply belongs to this call");
                    ok.borrow_mut().push(name);
                }
                Ok(other) => panic!("unexpected reply {other:?}"),
                Err(_) => err.set(err.get() + 1),
            }
        });
    }
    r.sim.run_to_quiescence();
    assert_eq!(ok.borrow().len() as u64 + err.get(), n_calls as u64);
    let fs = r.net.fault_stats();
    assert_eq!(
        fs.get().killed_attempts,
        fs.get().retransmit_absorbed + fs.get().outstanding_kills
    );
    assert_eq!(check_trace(&r.tracer.finish()), []);
    let executed = r.executed.borrow().clone();
    (ok.take(), executed)
}

/// A fault schedule drawn from percentages.
fn faults(drop: u32, dup: u32, delay: u32, reply_loss: u32, seed: u64) -> FaultParams {
    FaultParams {
        drop: f64::from(drop) / 100.0,
        duplicate: f64::from(dup) / 100.0,
        delay: f64::from(delay) / 100.0,
        max_delay: SimDuration::from_millis(15),
        reply_loss: f64::from(reply_loss) / 100.0,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any fault schedule: each logical non-idempotent call executes
    /// at most once, and a caller that got its reply was executed exactly
    /// once (it got a real reply, not a fabrication).
    #[test]
    fn any_fault_schedule_keeps_execution_at_most_once(
        drop_pct in 0u32..35,
        dup_pct in 0u32..35,
        delay_pct in 0u32..25,
        reply_loss_pct in 0u32..25,
        seed in 0u64..1_000_000,
        n_calls in 1usize..16,
        handler_delay_us in 0u64..40_000,
    ) {
        let faults = faults(drop_pct, dup_pct, delay_pct, reply_loss_pct, seed);
        let (ok, executed) = schedule(faults, handler_delay_us, n_calls, create);
        for (name, &count) in executed.iter() {
            prop_assert!(count <= 1, "{name} executed {count} times");
        }
        for name in ok.iter() {
            prop_assert_eq!(executed.get(name).copied(), Some(1));
        }
    }

    /// For any fault schedule, the idempotent twin: a caller that got its
    /// reply was executed, and every execution belongs to a call. It may
    /// have executed again; `schedule`'s trace check holds the
    /// re-executions apart.
    #[test]
    fn any_fault_schedule_executes_an_idempotent_call_that_completes(
        drop_pct in 0u32..35,
        dup_pct in 0u32..35,
        delay_pct in 0u32..25,
        reply_loss_pct in 0u32..25,
        seed in 0u64..1_000_000,
        n_calls in 1usize..16,
        handler_delay_us in 0u64..40_000,
    ) {
        let faults = faults(drop_pct, dup_pct, delay_pct, reply_loss_pct, seed);
        let (ok, executed) = schedule(faults, handler_delay_us, n_calls, lookup);
        for name in ok.iter() {
            prop_assert!(executed.get(name).copied().unwrap_or(0) >= 1, "{name} never executed");
        }
        prop_assert!(executed.len() <= n_calls);
    }

    /// The faulted exchange is deterministic in (schedule, seed).
    #[test]
    fn faulted_exchange_is_deterministic(
        drop_pct in 0u32..30,
        dup_pct in 0u32..30,
        seed in 0u64..1_000_000,
        n_calls in 1usize..10,
    ) {
        let run = || {
            let faults = FaultParams {
                drop: f64::from(drop_pct) / 100.0,
                duplicate: f64::from(dup_pct) / 100.0,
                delay: 0.1,
                max_delay: SimDuration::from_millis(10),
                reply_loss: 0.05,
                seed,
            };
            let r = rig(faults, 5_000);
            let dir = FileHandle::new(1, 1, 0);
            for i in 0..n_calls {
                let caller = Rc::clone(&r.caller);
                r.sim.spawn(async move {
                    let _ = caller
                        .call(NfsRequest::Lookup { dir, name: format!("req{i}").as_str().into() })
                        .await;
                });
            }
            r.sim.run_to_quiescence();
            let fs = r.net.fault_stats();
            let executed = r.executed.borrow().len();
            (
                r.sim.now().as_micros(),
                executed,
                fs.get().drops,
                fs.get().dups,
                fs.get().killed_attempts,
                fs.get().retransmit_absorbed,
            )
        };
        prop_assert_eq!(run(), run());
    }
}
