//! Paper-mode regression gate: with the default `ServerIoParams::paper()`
//! server (FIFO disk arm, 896-block cache, 4 service threads) and the
//! default `TransportParams::paper()` wire (one message per RPC, no
//! piggybacked attributes, shared bus, fixed retransmit timeout), every
//! `table_5_*` artifact must stay byte-identical to the committed
//! `baselines/` snapshot. This is what
//! lets the server I/O pipeline (`ServerIoParams::pipelined`) and the
//! transport pipeline (`TransportParams::pipelined`) land as pure
//! opt-ins: the measured 1989 system is reproduced bit-for-bit unless
//! the pipelines are asked for.
//!
//! The run sets, titles and renderers are the catalogue's
//! (`spritely::harness::catalog`); this file looks them up by name.

use std::fs;

use spritely::harness::catalog::{self, rendered};
use spritely::harness::{Protocol, Testbed, TestbedParams};
use spritely::trace::Event;
use spritely::vfs::OpenFlags;

#[test]
fn paper_mode_tables_match_baselines() {
    for n in 1..=6 {
        let name = format!("table_5_{n}");
        let entry = catalog::find(&name).expect("the six tables are catalogue entries");
        let path = format!("{}/baselines/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        let baseline = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        assert_eq!(
            rendered(entry.title, &(entry.run)(42).body),
            baseline,
            "{name} drifted from its baseline in paper mode"
        );
    }
}

/// The default transport is the paper's: in the Andrew runs behind
/// Tables 5-1/5-2 the batcher, the piggyback consumer and the compound
/// machinery must all be inert, and no delegation section may appear.
#[test]
fn paper_mode_andrew_runs_keep_the_pipelines_inert() {
    for r in &catalog::andrew_runs(42, false) {
        let stats = r.tb.stats_snapshot();
        let t = |key: &str| stats.num(&format!("transport.{key}"));
        assert_eq!(t("batches"), 0, "paper transport must never batch");
        assert_eq!(t("saved_round_trips"), 0);
        assert_eq!(t("attr_elisions"), 0, "paper clients must probe, not elide");
        assert_eq!(
            stats.get("delegation.grants_read"),
            None,
            "paper runs must not report a delegation section"
        );
    }
}

/// Delegations compiled in but disabled (the default
/// `DelegationParams::paper()`) must be invisible: an open/close-heavy
/// two-client run — the exact shape that would trigger grants and a
/// recall with the subsystem on — emits zero `Deleg*` trace events,
/// reports no delegation section in the snapshot, and leaves every
/// counter at zero. Together with the byte-identical tables above this
/// pins the subsystem as a pure opt-in.
#[test]
fn paper_mode_keeps_delegations_inert() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            trace: true,
            ..TestbedParams::default()
        },
        2,
    );
    {
        let p = tb.proc();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/doc", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[7u8; 4 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            for _ in 0..3 {
                let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
                p.close(fd).await.unwrap();
            }
        });
        tb.sim.run_until(h);
    }
    {
        let p = tb.clients[1].proc(&tb.sim);
        let h = tb.sim.spawn(async move {
            let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        });
        tb.sim.run_until(h);
    }
    let snap = tb.stats_snapshot();
    assert_eq!(
        snap.get("delegation.grants_read"),
        None,
        "disabled delegations must not appear in the snapshot"
    );
    let server = tb.snfs_server.clone().expect("snfs server");
    assert_eq!(server.delegation_count(), 0);
    assert_eq!(
        server.delegation_stats(),
        Default::default(),
        "no server-side delegation counter may move"
    );
    let trace = tb.finish_trace().expect("tracing on");
    assert!(trace.ok());
    let deleg_events = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.view(),
                Event::DelegGrant { .. }
                    | Event::DelegRecall { .. }
                    | Event::DelegReturn { .. }
                    | Event::DelegLocalOpen { .. }
            )
        })
        .count();
    assert_eq!(deleg_events, 0, "paper mode must emit zero Deleg* events");
}
