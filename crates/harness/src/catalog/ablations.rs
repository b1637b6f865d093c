//! Ablations: one mechanism varied at a time on the paper's workloads.

use spritely_metrics::TextTable;
use spritely_proto::NfsProc;
use spritely_sim::SimDuration;

use super::{slug_of, Entry, Outcome};
use crate::scripts::{andrew, sort, state_churn};
use crate::{ClientParams, Protocol, SnfsServerParams, TestbedParams};

/// The NFS client's invalidate-on-close bug. The paper attributes less
/// than a quarter of the sort-benchmark difference to it (§5.3); the
/// rest is the synchronous write-back-on-close the protocol requires.
pub(super) const CLOSE_BUG: Entry = Entry {
    name: "ablation_close_bug",
    title: "Ablation close bug: invalidate-on-close bug (sort 1408 KB)",
    run: |_| {
        let mut t = TextTable::new(vec!["client", "elapsed s", "reads", "writes"]);
        let mut o = Outcome::default();
        for p in [Protocol::Nfs, Protocol::NfsFixed, Protocol::Snfs] {
            let r = sort(TestbedParams::paper(p, true), 1408 * 1024);
            let elapsed = format!("{:.1}", r.first().as_secs_f64());
            t.row(vec![
                p.label().to_string(),
                elapsed.clone(),
                r.ops.get(NfsProc::Read).to_string(),
                r.ops.get(NfsProc::Write).to_string(),
            ]);
            o.field(format!("{}_sort_s", slug_of(p.label())), elapsed);
            o.field(
                format!("{}_reads", slug_of(p.label())),
                r.ops.get(NfsProc::Read),
            );
        }
        o.body = t.render();
        o
    },
};

/// The §6.2 delayed-close extension. Header files are reopened
/// constantly during the Make phase; deferring the close RPC turns most
/// of those opens into local operations.
pub(super) const DELAYED_CLOSE: Entry = Entry {
    name: "ablation_delayed_close",
    title: "Ablation delayed close: delayed close (Andrew, /tmp local)",
    run: |seed| {
        let mut t = TextTable::new(vec!["variant", "total s", "open", "close", "total ops"]);
        let mut o = Outcome::default();
        for p in [Protocol::Snfs, Protocol::SnfsDelayedClose] {
            let r = andrew(TestbedParams::paper(p, false), seed);
            let (total, ops) = (r.first().total().as_secs_f64(), r.ops_to_now());
            t.row(vec![
                p.label().to_string(),
                format!("{total:.0}"),
                ops.get(NfsProc::Open).to_string(),
                ops.get(NfsProc::Close).to_string(),
                ops.total().to_string(),
            ]);
            o.field(
                format!("{}_total_s", slug_of(p.label())),
                format!("{total:.1}"),
            );
            o.field(format!("{}_rpcs", slug_of(p.label())), ops.total());
        }
        o.body = t.render();
        o
    },
};

/// The write-delay policy. Traditional Unix flushes everything every
/// 30 s (age 0); Sprite waits for blocks to reach 30 s of age;
/// "infinite" never flushes. The temp-file write traffic of the sort
/// benchmark responds directly.
pub(super) const WRITE_DELAY: Entry = Entry {
    name: "ablation_write_delay",
    title: "Ablation write delay: SNFS write-delay policy (sort 2816 KB)",
    run: |_| {
        let snfs = TestbedParams::paper(Protocol::Snfs, true);
        let variants = [
            // The default write delay, zero, is the Unix policy.
            ("flush-all@30s (Unix)", snfs),
            (
                "age>=30s (Sprite)",
                TestbedParams {
                    client: ClientParams {
                        write_delay: SimDuration::from_secs(30),
                        ..snfs.client
                    },
                    ..snfs
                },
            ),
            (
                "infinite",
                TestbedParams {
                    update_enabled: false,
                    ..snfs
                },
            ),
        ];
        let mut t = TextTable::new(vec!["policy", "elapsed s", "write RPCs"]);
        let mut o = Outcome::default();
        for (name, params) in variants {
            let r = sort(params, 2816 * 1024);
            t.row(vec![
                name.to_string(),
                format!("{:.1}", r.first().as_secs_f64()),
                r.ops.get(NfsProc::Write).to_string(),
            ]);
            o.field(
                format!("{}_write_rpcs", slug_of(name)),
                r.ops.get(NfsProc::Write),
            );
        }
        o.body = t.render();
        o
    },
};

/// The NFS attribute-probe interval (footnote 3: 3-150 s in Ultrix).
/// Shorter floors mean more getattr traffic and a smaller stale window;
/// longer floors trade consistency for RPCs.
pub(super) const PROBE_INTERVAL: Entry = Entry {
    name: "ablation_probe_interval",
    title: "Ablation probe interval: NFS attribute-probe interval (Andrew)",
    run: |seed| {
        let mut t = TextTable::new(vec!["probe floor", "total s", "getattr RPCs"]);
        let mut o = Outcome::default();
        for secs in [1, 3, 10, 60] {
            let mut params = TestbedParams::paper(Protocol::Nfs, true);
            params.client.attr_min = SimDuration::from_secs(secs);
            let r = andrew(params, seed);
            let getattrs = r.ops_to_now().get(NfsProc::GetAttr);
            t.row(vec![
                format!("{secs} s"),
                format!("{:.0}", r.first().total().as_secs_f64()),
                getattrs.to_string(),
            ]);
            o.field(format!("probe_{secs}s_getattrs"), getattrs);
        }
        o.body = t.render();
        o
    },
};

/// The SNFS server state-table limit (§4.3.1). A tight limit forces
/// reclaim passes — callbacks that pull dirty data back early and drop
/// closed entries — while a liberal limit (1000 entries = 70 KB, as the
/// paper sized it) never reclaims on this workload.
pub(super) const STATE_LIMIT: Entry = Entry {
    name: "ablation_state_limit",
    title: "Ablation state limit: state-table limit under 256-file churn",
    run: |_| {
        let mut t = TextTable::new(vec![
            "limit",
            "entries",
            "reclaims",
            "callbacks",
            "early write RPCs",
        ]);
        let mut o = Outcome::default();
        for limit in [16, 64, 1000] {
            let run = state_churn(TestbedParams {
                snfs_server: SnfsServerParams {
                    table_limit: limit,
                    reclaim_target: limit * 3 / 4,
                },
                ..TestbedParams::default()
            });
            let server = run.tb.snfs_server.as_ref().expect("snfs server");
            let stats = server.stats();
            t.row(vec![
                limit.to_string(),
                server.table_len().to_string(),
                stats.reclaim_passes.to_string(),
                stats.callbacks_sent.to_string(),
                run.ops.get(NfsProc::Write).to_string(),
            ]);
            o.field(format!("limit_{limit}_reclaims"), stats.reclaim_passes);
            o.field(format!("limit_{limit}_callbacks"), stats.callbacks_sent);
        }
        o.body = t.render();
        o
    },
};

/// Name caching (the paper's §7 suggestion — "any mechanism that reduced
/// the number of lookups would improve performance", plus the hint that
/// Sprite-style consistency could cover directory entries). Lookups are
/// ~half of every RPC column in Table 5-2. SNFS's consistent name cache
/// (directory invalidate callbacks) removes most of them without
/// weakening the consistency guarantee; NFS's TTL cache removes them
/// too, but with a stale-name window.
pub(super) const NAME_CACHE: Entry = Entry {
    name: "ablation_name_cache",
    title: "Ablation name cache: name caching (Andrew, /tmp remote)",
    run: |seed| {
        let mut t = TextTable::new(vec!["variant", "total s", "lookups", "total ops"]);
        let mut o = Outcome::default();
        for (label, protocol, name_cache) in [
            ("NFS", Protocol::Nfs, false),
            ("NFS + dnlc", Protocol::Nfs, true),
            ("SNFS", Protocol::Snfs, false),
            ("SNFS + name cache", Protocol::Snfs, true),
        ] {
            let mut params = TestbedParams::paper(protocol, true);
            params.client.name_cache = name_cache;
            let r = andrew(params, seed);
            let ops = r.ops_to_now();
            t.row(vec![
                label.to_string(),
                format!("{:.0}", r.first().total().as_secs_f64()),
                ops.get(NfsProc::Lookup).to_string(),
                ops.total().to_string(),
            ]);
            o.field(
                format!("{}_lookups", slug_of(label)),
                ops.get(NfsProc::Lookup),
            );
        }
        o.body = t.render();
        o
    },
};
