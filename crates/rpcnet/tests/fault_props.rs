//! Property-based tests for the fault-injection layer: under *any*
//! random fault schedule (drops, duplicates, delays, reply losses), the
//! duplicate-request cache keeps execution at-most-once per logical
//! call, every completed caller observes a reply consistent with the
//! execution that produced it, the run terminates, and the fault
//! accounting balances.

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

/// A rig whose handler echoes each request's unique name back in the
/// reply and counts executions per name. Any double execution or
/// cross-wired reply is therefore observable.
struct Rig {
    sim: Sim,
    net: Network,
    caller: Rc<Caller>,
    executed: Rc<RefCell<HashMap<String, u64>>>,
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
                    NfsRequest::Lookup { name, .. } => name.clone(),
                    _ => panic!("rig only sends Lookup"),
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any fault schedule: each logical call executes at most once,
    /// every successful caller's reply matches its own request, the run
    /// terminates, and killed attempts are conserved.
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
        let faults = FaultParams {
            drop: f64::from(drop_pct) / 100.0,
            duplicate: f64::from(dup_pct) / 100.0,
            delay: f64::from(delay_pct) / 100.0,
            max_delay: SimDuration::from_millis(15),
            reply_loss: f64::from(reply_loss_pct) / 100.0,
            seed,
        };
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
                let req = NfsRequest::Lookup { dir, name: name.clone() };
                match caller.call(req).await {
                    // Reply consistency: a caller's reply must carry the
                    // name *it* sent, whatever was dropped or duplicated.
                    Ok(NfsReply::Path(p)) => {
                        assert_eq!(p, name, "reply belongs to this call");
                        ok.borrow_mut().push(name);
                    }
                    Ok(other) => panic!("unexpected reply {other:?}"),
                    Err(_) => err.set(err.get() + 1),
                }
            });
        }
        // Termination: the schedule may kill every attempt of a call (the
        // caller errors out), but the simulation always quiesces.
        r.sim.run_to_quiescence();
        let ok = ok.borrow();
        prop_assert_eq!(ok.len() as u64 + err.get(), n_calls as u64);
        let executed = r.executed.borrow();
        for (name, &count) in executed.iter() {
            prop_assert!(count <= 1, "{name} executed {count} times");
        }
        // A successful caller's request was executed exactly once (it got
        // a real reply, not a fabrication).
        for name in ok.iter() {
            prop_assert_eq!(executed.get(name).copied(), Some(1));
        }
        // Kill conservation: every fault-killed attempt is either absorbed
        // by a retransmission that completed or charged to a call that
        // gave up.
        let fs = r.net.fault_stats();
        prop_assert_eq!(
            fs.get().killed_attempts,
            fs.get().retransmit_absorbed + fs.get().outstanding_kills
        );
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
                        .call(NfsRequest::Lookup { dir, name: format!("req{i}") })
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
