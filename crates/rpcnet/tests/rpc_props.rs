//! Property-based tests for the RPC layer: at-most-once execution under
//! arbitrary handler delays and timeout/retransmission pressure, plus
//! determinism of the whole exchange.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use spritely_metrics::OpCounter;
use spritely_proto::{ClientId, NfsReply, NfsRequest};
use spritely_rpcnet::{Caller, CallerParams, Endpoint, EndpointParams, NetParams, Network};
use spritely_sim::{Resource, Sim, SimDuration};

/// Builds a rig whose handler sleeps a per-call delay drawn from `delays`
/// (cycled), and returns (sim, caller, executed-counter).
fn rig(delays: Vec<u64>, timeout_ms: u64) -> (Sim, Caller, Rc<Cell<u64>>) {
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
    let executed = Rc::new(Cell::new(0u64));
    let handler = {
        let sim = sim.clone();
        let executed = Rc::clone(&executed);
        let idx = Cell::new(0usize);
        Rc::new(move |_from: ClientId, _ctx: u64, _req: NfsRequest| {
            let sim = sim.clone();
            let executed = Rc::clone(&executed);
            let d = delays[idx.get() % delays.len()];
            idx.set(idx.get() + 1);
            async move {
                sim.sleep(SimDuration::from_micros(d)).await;
                executed.set(executed.get() + 1);
                NfsReply::Ok
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
        net,
        ep,
        ClientId(1),
        client_cpu,
        CallerParams {
            timeout: SimDuration::from_millis(timeout_ms),
            max_retries: 6,
            cpu_per_call: SimDuration::from_micros(100),
        },
    );
    (sim, caller, executed)
}

/// `n_calls` concurrent calls of `req` against `rig(delays, timeout_ms)`:
/// the calls that succeeded and failed, the executions and the
/// retransmissions.
fn retransmitted(
    delays: &[u64],
    n_calls: usize,
    timeout_ms: u64,
    req: NfsRequest,
) -> (u64, u64, u64, u64) {
    let (sim, caller, executed) = rig(delays.to_vec(), timeout_ms);
    let caller = Rc::new(caller);
    let ok = Rc::new(Cell::new(0u64));
    let err = Rc::new(Cell::new(0u64));
    for _ in 0..n_calls {
        let (caller, ok, err, req) = (
            Rc::clone(&caller),
            Rc::clone(&ok),
            Rc::clone(&err),
            req.clone(),
        );
        sim.spawn(async move {
            match caller.call(req).await {
                Ok(_) => ok.set(ok.get() + 1),
                Err(_) => err.set(err.get() + 1),
            }
        });
    }
    sim.run_to_quiescence();
    (ok.get(), err.get(), executed.get(), caller.retransmits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the handler delays (even ones far beyond the timeout,
    /// forcing several retransmissions), every non-idempotent call that
    /// succeeds was executed exactly once, and executions never exceed
    /// calls.
    #[test]
    fn at_most_once_under_retransmission(
        delays in proptest::collection::vec(0u64..400_000, 1..8),
        n_calls in 1usize..12,
        timeout_ms in 20u64..120,
    ) {
        let req = NfsRequest::Keepalive { client: ClientId(1) };
        let (ok, err, executed, _) = retransmitted(&delays, n_calls, timeout_ms, req);
        prop_assert_eq!(ok + err, n_calls as u64);
        // Every call executes at most once (dup cache), and every call's
        // execution eventually runs even if the caller gave up.
        prop_assert!(executed <= n_calls as u64);
        // If even the *serial* worst case (every handler execution queued
        // behind every other) fits inside the retry budget, no call may
        // fail.
        let retry_budget = SimDuration::from_millis(timeout_ms * 7);
        let max_delay = SimDuration::from_micros(*delays.iter().max().unwrap());
        let serial_worst = max_delay * n_calls as u64 + SimDuration::from_millis(10);
        if serial_worst < retry_budget {
            prop_assert_eq!(err, 0, "no spurious failures");
        }
        prop_assert_eq!(executed, n_calls as u64, "all executions complete");
    }

    /// The idempotent twin: every call executes, and a call executes
    /// again only for a retransmission that found its execution ended.
    #[test]
    fn an_idempotent_call_executes_again_only_for_a_retransmission(
        delays in proptest::collection::vec(0u64..400_000, 1..8),
        n_calls in 1usize..12,
        timeout_ms in 20u64..120,
    ) {
        let (ok, err, executed, retransmits) =
            retransmitted(&delays, n_calls, timeout_ms, NfsRequest::Null);
        prop_assert_eq!(ok + err, n_calls as u64);
        prop_assert!(executed >= n_calls as u64);
        prop_assert!(executed - n_calls as u64 <= retransmits);
    }

    /// The entire exchange is deterministic.
    #[test]
    fn rpc_exchange_is_deterministic(
        delays in proptest::collection::vec(0u64..100_000, 1..6),
        n_calls in 1usize..8,
    ) {
        let run = |delays: &[u64]| {
            let (sim, caller, executed) = rig(delays.to_vec(), 50);
            let caller = Rc::new(caller);
            for _ in 0..n_calls {
                let caller = Rc::clone(&caller);
                sim.spawn(async move {
                    let _ = caller.call(NfsRequest::Null).await;
                });
            }
            sim.run_to_quiescence();
            (sim.now().as_micros(), executed.get(), caller.retransmits())
        };
        prop_assert_eq!(run(&delays), run(&delays));
    }
}
