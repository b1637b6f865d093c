//! Ablations: one mechanism varied at a time on the paper's workloads.
//! (All six titles start `Ablation:`, so each artifact is named after its
//! entry — `ablation_close_bug.txt`, ... — not after the shared slug.)

use spritely_metrics::TextTable;
use spritely_proto::NfsProc;
use spritely_sim::SimDuration;

use super::{slug_of, Entry, Outcome};
use crate::{
    run_andrew, run_andrew_with, run_sort_experiment, run_sort_with, Protocol, SnfsServerParams,
    Testbed, TestbedParams,
};

/// The NFS client's invalidate-on-close bug. The paper attributes less
/// than a quarter of the sort-benchmark difference to it (§5.3); the
/// rest is the synchronous write-back-on-close the protocol requires.
pub(super) const CLOSE_BUG: Entry = Entry {
    name: "ablation_close_bug",
    title: "Ablation: invalidate-on-close bug (sort 1408 KB)",
    run: |_| {
        let mut t = TextTable::new(vec!["client", "elapsed s", "reads", "writes"]);
        let mut o = Outcome::default();
        for p in [Protocol::Nfs, Protocol::NfsFixed, Protocol::Snfs] {
            let r = run_sort_experiment(p, 1408 * 1024, true);
            let elapsed = format!("{:.1}", r.elapsed.as_secs_f64());
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
    title: "Ablation: delayed close (Andrew, /tmp local)",
    run: |seed| {
        let mut t = TextTable::new(vec!["variant", "total s", "open", "close", "total ops"]);
        let mut o = Outcome::default();
        for p in [Protocol::Snfs, Protocol::SnfsDelayedClose] {
            let r = run_andrew(p, false, seed);
            t.row(vec![
                p.label().to_string(),
                format!("{:.0}", r.times.total().as_secs_f64()),
                r.ops_with_tail.get(NfsProc::Open).to_string(),
                r.ops_with_tail.get(NfsProc::Close).to_string(),
                r.ops_with_tail.total().to_string(),
            ]);
            o.field(
                format!("{}_total_s", slug_of(p.label())),
                format!("{:.1}", r.times.total().as_secs_f64()),
            );
            o.field(
                format!("{}_rpcs", slug_of(p.label())),
                r.ops_with_tail.total(),
            );
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
    title: "Ablation: SNFS write-delay policy (sort 2816 KB)",
    run: |_| {
        let snfs = TestbedParams {
            protocol: Protocol::Snfs,
            tmp_remote: true,
            ..TestbedParams::default()
        };
        let variants = [
            (
                "flush-all@30s (Unix)",
                TestbedParams {
                    snfs_write_delay: SimDuration::ZERO,
                    ..snfs
                },
            ),
            (
                "age>=30s (Sprite)",
                TestbedParams {
                    snfs_write_delay: SimDuration::from_secs(30),
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
            let r = run_sort_with(params, 2816 * 1024);
            t.row(vec![
                name.to_string(),
                format!("{:.1}", r.elapsed.as_secs_f64()),
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
    title: "Ablation: NFS attribute-probe interval (Andrew)",
    run: |seed| {
        let mut t = TextTable::new(vec!["probe floor", "total s", "getattr RPCs"]);
        let mut o = Outcome::default();
        for secs in [1, 3, 10, 60] {
            let r = run_andrew_with(
                TestbedParams {
                    protocol: Protocol::Nfs,
                    tmp_remote: true,
                    nfs_attr_min: SimDuration::from_secs(secs),
                    ..TestbedParams::default()
                },
                seed,
            );
            t.row(vec![
                format!("{secs} s"),
                format!("{:.0}", r.times.total().as_secs_f64()),
                r.ops_with_tail.get(NfsProc::GetAttr).to_string(),
            ]);
            o.field(
                format!("probe_{secs}s_getattrs"),
                r.ops_with_tail.get(NfsProc::GetAttr),
            );
        }
        o.body = t.render();
        o
    },
};

/// Creates and closes 256 one-block files against a server whose state
/// table holds `table_limit` entries, then reports `(table entries,
/// reclaim passes, callbacks sent, write RPCs)`.
fn churn(table_limit: usize) -> (usize, u64, u64, u64) {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        snfs_server: SnfsServerParams {
            table_limit,
            reclaim_target: table_limit * 3 / 4,
            ..SnfsServerParams::default()
        },
        ..TestbedParams::default()
    });
    let server = tb.snfs_server.clone().expect("snfs server");
    let c = tb.clients[0].remote.snfs().expect("snfs client").clone();
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    tb.sim.block_on(async move {
        for i in 0..256 {
            let (fh, _) = c.create(root, &format!("f{i}")).await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, &[1u8; 4096]).await.unwrap();
            c.close(fh, true).await.unwrap();
        }
        sim.sleep(SimDuration::from_secs(5)).await;
    });
    let stats = server.stats();
    (
        server.table_len(),
        stats.reclaim_passes,
        stats.callbacks_sent,
        tb.counter.get(NfsProc::Write),
    )
}

/// The SNFS server state-table limit (§4.3.1). A tight limit forces
/// reclaim passes — callbacks that pull dirty data back early and drop
/// closed entries — while a liberal limit (1000 entries = 70 KB, as the
/// paper sized it) never reclaims on this workload.
pub(super) const STATE_LIMIT: Entry = Entry {
    name: "ablation_state_limit",
    title: "Ablation: state-table limit under 256-file churn",
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
            let (len, passes, callbacks, writes) = churn(limit);
            t.row(vec![
                limit.to_string(),
                len.to_string(),
                passes.to_string(),
                callbacks.to_string(),
                writes.to_string(),
            ]);
            o.field(format!("limit_{limit}_reclaims"), passes);
            o.field(format!("limit_{limit}_callbacks"), callbacks);
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
    title: "Ablation: name caching (Andrew, /tmp remote)",
    run: |seed| {
        let mut t = TextTable::new(vec!["variant", "total s", "lookups", "total ops"]);
        let mut o = Outcome::default();
        for (label, protocol, name_cache) in [
            ("NFS", Protocol::Nfs, false),
            ("NFS + dnlc", Protocol::Nfs, true),
            ("SNFS", Protocol::Snfs, false),
            ("SNFS + name cache", Protocol::Snfs, true),
        ] {
            let r = run_andrew_with(
                TestbedParams {
                    protocol,
                    tmp_remote: true,
                    name_cache,
                    ..TestbedParams::default()
                },
                seed,
            );
            t.row(vec![
                label.to_string(),
                format!("{:.0}", r.times.total().as_secs_f64()),
                r.ops_with_tail.get(NfsProc::Lookup).to_string(),
                r.ops_with_tail.total().to_string(),
            ]);
            o.field(
                format!("{}_lookups", slug_of(label)),
                r.ops_with_tail.get(NfsProc::Lookup),
            );
        }
        o.body = t.render();
        o
    },
};
