//! The opt-in layers and extensions against the paper-mode stack: the
//! layer lattice (write-behind pool, server I/O pipeline, transport
//! pipeline and open delegations, each off and on over its signature
//! workloads), fault injection, and multi-client / sharded scaling.

use spritely_metrics::TextTable;
use spritely_sim::SimDuration;

use super::{slug_of, Entry, Outcome};
use crate::report;
use crate::scripts::{self, scaling, scaling_shards};
use crate::{
    ClientParams, DelegationParams, FaultParams, Protocol, ServerIoParams, ShardParams,
    StatsSnapshot, Testbed, TestbedParams, TransportParams, WriteBehindParams,
};

/// An opt-in layer: one field of [`TestbedParams`], off as the paper
/// stack sets it and on as the composed stack
/// ([`TestbedParams::composed`]) does, and the floor (%) on the message
/// cut summed over its rows, if it has one.
struct Layer {
    name: &'static str,
    take: fn(&mut TestbedParams, &TestbedParams),
    total_cut: Option<f64>,
}

impl Layer {
    /// `p` with this layer switched `on` or off, every other field kept.
    fn set(&self, mut p: TestbedParams, on: bool) -> TestbedParams {
        let from = match on {
            true => TestbedParams::composed(1),
            false => TestbedParams::default(),
        };
        (self.take)(&mut p, &from);
        p
    }
}

const WRITE_BEHIND: Layer = Layer {
    name: "write_behind",
    take: |p, from| p.write_behind = from.write_behind,
    total_cut: None,
};
const SERVER_IO: Layer = Layer {
    name: "server_io",
    take: |p, from| p.server_io = from.server_io,
    total_cut: None,
};
const TRANSPORT: Layer = Layer {
    name: "transport",
    take: |p, from| p.transport = from.transport,
    total_cut: Some(25.0),
};
const DELEGATION: Layer = Layer {
    name: "delegation",
    take: |p, from| p.delegation = from.delegation,
    total_cut: None,
};

/// A row's gate: its speedup at least (`Speedup`) or more than
/// (`SpeedupOver`) a factor, or its message cut at least a percentage.
enum Floor {
    Speedup(f64),
    SpeedupOver(f64),
    Cut(f64),
}

/// What a row reads off one run, by its workload's measure.
#[derive(Clone, Copy)]
struct Side {
    secs: f64,
    msgs: u64,
}

fn side(secs: f64, msgs: u64, tb: Testbed) -> (Side, Testbed) {
    (Side { secs, msgs }, tb)
}

/// A signature workload: what it reads off a run, and the run of
/// `clients` clients on a stack at a seed.
struct Workload {
    measure: &'static str,
    run: fn(TestbedParams, usize, u64) -> (Side, Testbed),
}

/// Writes 64 blocks, then times the `fsync` that flushes them.
const FLUSH64: Workload = Workload {
    measure: "fsync s, window msgs",
    run: |p, _, _| {
        let r = scripts::flush(p, 64);
        side(r.first().as_secs_f64(), r.messages, r.tb)
    },
};
/// The Andrew benchmark; its messages include set-up and the 120 s
/// write-back tail.
const ANDREW: Workload = Workload {
    measure: "phase total s, whole-run msgs",
    run: |p, _, seed| {
        let r = scripts::andrew(p, seed);
        side(r.first().total().as_secs_f64(), r.tb.net.messages(), r.tb)
    },
};
/// Identical diskless-workstation clients (paper §2.3).
const DISKLESS: Workload = Workload {
    measure: "makespan s, window msgs",
    run: |p, n, seed| window(scaling(p, n, seed)),
};
/// Every client reads one shared 256-block file.
const SHARED_READ: Workload = Workload {
    measure: "makespan s, window msgs",
    run: |p, n, _| window(scripts::shared_read(p, n)),
};
/// Every client re-opens a private file 30 times, then reads a shared
/// docroot three times over.
const CHURN: Workload = Workload {
    measure: "makespan s, window msgs",
    run: |p, n, _| window(scripts::open_churn(p, n)),
};

fn window<T>(r: crate::Run<T>) -> (Side, Testbed) {
    side(r.makespan.as_secs_f64(), r.messages, r.tb)
}

/// One row of the lattice: `layer` off and on over `work`, every other
/// field of the stack as `base` sets it.
struct Row {
    layer: Layer,
    /// The row's name in the table and in its ledger keys.
    name: &'static str,
    work: Workload,
    clients: usize,
    base: fn() -> TestbedParams,
    floor: Floor,
    /// The file the layer-on run's stats document is filed as.
    stats: Option<&'static str>,
    /// A layer-on run the invariant checker must find clean: the key its
    /// ledger fields and profile go under, what it is, and its clients.
    trace: Option<(&'static str, &'static str, usize)>,
}

/// The stack under the transport's and delegations' rows: the server I/O
/// pipeline (and, on SNFS, the write-behind pool) on.
fn pipelined_io(p: TestbedParams) -> TestbedParams {
    TestbedParams {
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        ..p
    }
}

const ROWS: [Row; 7] = [
    Row {
        layer: WRITE_BEHIND,
        name: "flush64",
        work: FLUSH64,
        clients: 1,
        // No update daemons: the `fsync` is the only flush.
        base: || TestbedParams {
            update_enabled: false,
            ..TestbedParams::default()
        },
        // Met only when a gathered write reaches the server disk as one
        // request: written block by block, the flush is 2.91x.
        floor: Floor::Speedup(8.0),
        stats: Some("stats_flush_pipelined.json"),
        trace: Some(("pipelined", "the traced pipelined flush", 1)),
    },
    Row {
        layer: SERVER_IO,
        name: "scale4",
        work: DISKLESS,
        clients: 4,
        base: || TestbedParams::paper(Protocol::Snfs, true),
        floor: Floor::SpeedupOver(1.0),
        stats: None,
        // A real C-LOOK schedule for the disk-queue/reorder rule.
        trace: Some(("pipelined_4", "the traced 4-client pipelined run", 4)),
    },
    Row {
        layer: SERVER_IO,
        name: "scale8",
        work: DISKLESS,
        clients: 8,
        base: || TestbedParams::paper(Protocol::Snfs, true),
        floor: Floor::Speedup(1.3),
        stats: Some("stats_server_scaling.json"),
        trace: None,
    },
    Row {
        layer: TRANSPORT,
        name: "andrew_nfs",
        work: ANDREW,
        clients: 1,
        base: || TestbedParams {
            server_io: ServerIoParams::pipelined(),
            ..TestbedParams::paper(Protocol::Nfs, true)
        },
        // The Nagle batcher must not slow a serial run.
        floor: Floor::Speedup(0.98),
        stats: None,
        trace: None,
    },
    Row {
        layer: TRANSPORT,
        name: "read8",
        work: SHARED_READ,
        clients: 8,
        base: || TestbedParams {
            client: ClientParams {
                read_ahead_window: 8,
                ..ClientParams::default()
            },
            ..pipelined_io(TestbedParams::default())
        },
        floor: Floor::Speedup(1.2),
        stats: Some("stats_rpc_transport.json"),
        // A real batched schedule for the batch-conservation and
        // at-most-once rules.
        trace: Some(("shared_read_2", "the traced 2-client pipelined read", 2)),
    },
    Row {
        layer: DELEGATION,
        name: "churn6",
        work: CHURN,
        clients: 6,
        base: || TestbedParams {
            client: ClientParams {
                name_cache: true,
                ..ClientParams::default()
            },
            transport: TransportParams::pipelined(),
            ..pipelined_io(TestbedParams::default())
        },
        floor: Floor::Cut(30.0),
        stats: Some("stats_open_churn.json"),
        // A real grant/recall/return schedule for the delegation rules.
        trace: Some(("churn_2", "the traced 2-client delegated churn", 2)),
    },
    Row {
        layer: DELEGATION,
        name: "andrew_snfs",
        work: ANDREW,
        clients: 1,
        base: || TestbedParams {
            transport: TransportParams::pipelined(),
            ..pipelined_io(TestbedParams::paper(Protocol::Snfs, true))
        },
        // Delegations must not slow a run that writes files once.
        floor: Floor::Speedup(0.98),
        stats: None,
        trace: None,
    },
];

fn cut_pct(off: u64, on: u64) -> f64 {
    100.0 * (1.0 - on as f64 / off as f64)
}

/// Renders the lattice, files each row's numbers and holds them to the
/// rows' floors and the layers' total floors; `sides[i]` is `rows[i]`
/// off and on.
fn judge(o: &mut Outcome, rows: &[Row], sides: &[(Side, Side)]) {
    let mut t = TextTable::new(vec![
        "Layer", "Workload", "clients", "measure", "off msgs", "on msgs", "cut", "off s", "on s",
        "speedup",
    ]);
    for (row, &(off, on)) in rows.iter().zip(sides) {
        let (gain, cut) = (off.secs / on.secs, cut_pct(off.msgs, on.msgs));
        let (layer, name) = (row.layer.name, row.name);
        t.row(vec![
            layer.to_string(),
            name.to_string(),
            row.clients.to_string(),
            row.work.measure.to_string(),
            off.msgs.to_string(),
            on.msgs.to_string(),
            format!("{cut:.0}%"),
            format!("{:.2}", off.secs),
            format!("{:.2}", on.secs),
            format!("{gain:.2}x"),
        ]);
        let key = format!("{layer}_{name}");
        o.field(format!("{key}_off_msgs"), off.msgs);
        o.field(format!("{key}_on_msgs"), on.msgs);
        o.field(format!("{key}_reduction_pct"), format!("{cut:.1}"));
        o.field(format!("{key}_off_ms"), format!("{:.2}", off.secs * 1e3));
        o.field(format!("{key}_on_ms"), format!("{:.2}", on.secs * 1e3));
        o.field(format!("{key}_gain_x"), format!("{gain:.2}"));
        let (ok, want) = match row.floor {
            Floor::Speedup(f) => (gain >= f, format!("a speedup >= {f}x")),
            Floor::SpeedupOver(f) => (gain > f, format!("a speedup > {f}x")),
            Floor::Cut(f) => (cut >= f, format!("a message cut >= {f}%")),
        };
        o.gate(ok, || {
            format!("{key}: speedup {gain:.2}x, message cut {cut:.1}%; want {want}")
        });
    }
    o.body = t.render();
    // A layer's total is the sum over its rows, filed where it has several.
    for layer in [WRITE_BEHIND, SERVER_IO, TRANSPORT, DELEGATION] {
        let (mut n, mut off, mut on) = (0, 0, 0);
        for (row, (a, b)) in rows.iter().zip(sides) {
            if row.layer.name == layer.name {
                (n, off, on) = (n + 1, off + a.msgs, on + b.msgs);
            }
        }
        if n < 2 {
            continue;
        }
        let (name, cut) = (layer.name, cut_pct(off, on));
        o.body += &format!("\n{name} total messages: {off} -> {on} ({cut:.0}% cut)");
        o.field(format!("{name}_total_reduction_pct"), format!("{cut:.1}"));
        if let Some(f) = layer.total_cut {
            o.gate(cut >= f, || {
                format!("{name}: its rows' total message cut is {cut:.1}%; want >= {f}%")
            });
        }
    }
}

/// The delegation economy of a delegated run's stats document: both
/// kinds granted, each grant amortized over several local opens, the
/// conflicting opens recalled and every recall returned, nothing
/// revoked.
fn delegation_economy(o: &mut Outcome, snap: &StatsSnapshot) {
    let deleg = |key: &str| snap.num(&format!("delegation.{key}"));
    let (grants_read, grants_write) = (deleg("grants_read"), deleg("grants_write"));
    let grants = grants_read + grants_write;
    let (local_opens, recalls) = (deleg("local_opens"), deleg("recalls"));
    let (returns, revokes) = (deleg("returns"), deleg("revokes"));
    o.field("deleg_grants", grants);
    o.field("deleg_local_opens", local_opens);
    o.field("deleg_recalls", recalls);
    o.field("deleg_revokes", revokes);
    o.gate(grants_read > 0 && grants_write > 0, || {
        format!("expected both delegation kinds granted: {grants_read} read, {grants_write} write")
    });
    o.gate(local_opens > grants, || {
        format!("each grant must amortize over several local opens: {local_opens} for {grants}")
    });
    o.gate(recalls >= 2 && returns == recalls, || {
        format!(
            "the conflicting opens must recall, and every recall return: \
             {recalls} recalls, {returns} returns"
        )
    });
    o.gate(revokes == 0, || {
        format!("a healthy run must not revoke, got {revokes}")
    });
}

/// The layer lattice (DESIGN.md "One layer lattice"): each opt-in layer
/// off and on over its signature workloads, every other field of the
/// stack fixed by the row, as the paper holds everything but one
/// protocol choice fixed. The layer-on runs file their stats documents,
/// and the traced ones go to the invariant checker and `spritely
/// profile`.
pub(super) const LAYERS: Entry = Entry {
    name: "layers",
    title: "Layers: each opt-in layer off vs on over its signature workloads",
    run: |seed| {
        let mut o = Outcome::default();
        let (mut sides, mut kept) = (Vec::new(), Vec::new());
        for row in &ROWS {
            let run = |on, trace, n| {
                let params = row.layer.set((row.base)(), on);
                (row.work.run)(TestbedParams { trace, ..params }, n, seed)
            };
            // A trace at the row's own client count is of its layer-on
            // run: tracing changes nothing a row reads.
            let trace_clients = row.trace.map(|t| t.2);
            let (off, _) = run(false, false, row.clients);
            let (on, tb) = run(true, trace_clients == Some(row.clients), row.clients);
            let traced = trace_clients.filter(|&n| n != row.clients);
            let traced = traced.map(|n| run(true, true, n).1);
            sides.push((off, on));
            kept.push((tb, traced));
        }
        judge(&mut o, &ROWS, &sides);
        for (row, (tb, traced)) in ROWS.iter().zip(kept) {
            if let Some((key, what, _)) = row.trace {
                let report = traced.as_ref().unwrap_or(&tb).finish_trace();
                o.clean_trace(key, what, &report.expect("tracing was on"));
            }
            if let Some(file) = row.stats {
                let snap = tb.stats_snapshot();
                o.file(file, snap.to_json());
                if row.layer.name == DELEGATION.name {
                    delegation_economy(&mut o, &snap);
                }
            }
        }
        o
    },
};

/// Server scaling (paper §2.3): makespan and server disk writes as
/// identical diskless-workstation clients are added — plus the sharded
/// namespace curve (DESIGN.md §18): aggregate throughput of the
/// shared-nothing workload at 128–512 clients over 1–8 server shards.
pub(super) const SCALING: Entry = Entry {
    name: "scaling",
    title: "Server scaling (paper §2.3)",
    run: |seed| {
        let mut t = TextTable::new(vec![
            "clients",
            "NFS makespan s",
            "SNFS makespan s",
            "NFS disk wr",
            "SNFS disk wr",
        ]);
        let mut o = Outcome::default();
        for n in [1, 2, 4, 8] {
            let [nfs, snfs] = [Protocol::Nfs, Protocol::Snfs]
                .map(|p| scaling(TestbedParams::paper(p, true), n, seed));
            t.row(vec![
                n.to_string(),
                format!("{:.0}", nfs.makespan.as_secs_f64()),
                format!("{:.0}", snfs.makespan.as_secs_f64()),
                nfs.server_disk.writes.to_string(),
                snfs.server_disk.writes.to_string(),
            ]);
            for r in [&nfs, &snfs] {
                let p = slug_of(r.tb.params.protocol.label());
                o.field(
                    format!("{p}_{n}_makespan_s"),
                    format!("{:.1}", r.makespan.as_secs_f64()),
                );
                o.field(format!("{p}_{n}_disk_wr"), r.server_disk.writes);
            }
        }
        o.body = t.render();

        // Sharded namespace: the same seed, 1–8 shards, 128–512 clients on
        // the shared-nothing workload. Per-shard served-RPC counts ride
        // along so the ledger records the load split, not just the total.
        let mut t = TextTable::new(vec![
            "shards",
            "clients",
            "makespan s",
            "RPCs",
            "ops/s",
            "per-shard RPCs",
            "peak client KiB",
        ]);
        let (mut one_server, mut eight_shards) = (0.0, 0.0);
        for (shards, clients) in [
            (1, 128),
            (2, 128),
            (4, 128),
            (8, 128),
            (2, 256),
            (4, 256),
            (4, 512),
            (8, 512),
        ] {
            let params = TestbedParams {
                shards: ShardParams::sharded(shards),
                ..TestbedParams::default()
            };
            let r = scaling_shards(params, clients, seed);
            // Aggregate served throughput, RPCs per simulated second.
            let total_rpcs: u64 = r.served.iter().sum();
            let throughput = total_rpcs as f64 / r.makespan.as_secs_f64();
            match (shards, clients) {
                (1, 128) => one_server = throughput,
                (8, 128) => eight_shards = throughput,
                _ => {}
            }
            let per_shard: Vec<String> = r.served.iter().map(u64::to_string).collect();
            // The client-cache gauge ships with the shards section of the
            // snapshot: 0 when unsharded.
            let peak_client_kb = r.tb.stats_snapshot().get("shards.peak_client_kb");
            let peak_client_kb = peak_client_kb.unwrap_or(0);
            t.row(vec![
                shards.to_string(),
                clients.to_string(),
                format!("{:.1}", r.makespan.as_secs_f64()),
                total_rpcs.to_string(),
                format!("{throughput:.0}"),
                per_shard.join("/"),
                peak_client_kb.to_string(),
            ]);
            let row = format!("shards_{shards}x{clients}");
            o.field(format!("{row}_ops_per_s"), format!("{throughput:.0}"));
            o.field(
                format!("{row}_makespan_s"),
                format!("{:.1}", r.makespan.as_secs_f64()),
            );
            for (s, n) in per_shard.iter().enumerate() {
                o.field(format!("{row}_rpcs_s{s}"), n);
            }
        }
        o.section("Sharded namespace scaling (DESIGN.md §18)", &t.render());
        let gain = eight_shards / one_server;
        o.gate(gain >= 1.5, || {
            format!("8 shards must serve 128 clients >= 1.5x as fast as one server, got {gain:.2}x")
        });
        o
    },
};

/// A row of the `chaos` entry: a script run twice on the stack `base`
/// builds, at the seed its convergence argument was checked on — once
/// fault-free, once traced under [`FaultParams::chaos`].
struct Chaos {
    /// The row's label and the stem of its ledger keys.
    name: &'static str,
    seed: u64,
    base: fn() -> TestbedParams,
    script: fn(TestbedParams, u64) -> Testbed,
    /// The faulted run's counters, summed, of what the row exists to
    /// force. A schedule that leaves them at 0 proves nothing, and the
    /// row's gate fails.
    forced: &'static [&'static str],
}

const CHAOS: [Chaos; 4] = [
    // The retransmission ladder and the duplicate-request cache must
    // absorb every fault of a long, single-client run.
    Chaos {
        name: "andrew",
        seed: 7,
        base: TestbedParams::default,
        script: |p, seed| scripts::andrew(p, seed).tb,
        forced: &["faults.retransmit_absorbed"],
    },
    // The server must retry a write-back callback past a partition.
    Chaos {
        name: "sharing",
        seed: 11,
        // Keeps the partitioned client's data dirty long enough to matter.
        base: || TestbedParams {
            client: ClientParams {
                write_delay: SimDuration::from_secs(30),
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        },
        script: |p, _| scripts::write_sharing(p).tb,
        forced: &["faults.callback_retries"],
    },
    // Recalls re-delivered past a mute holder.
    Chaos {
        name: "delegation",
        seed: 13,
        base: || TestbedParams {
            delegation: DelegationParams::pipelined(),
            ..TestbedParams::default()
        },
        script: |p, _| scripts::delegation(p).tb,
        forced: &["delegation.recalls"],
    },
    // The 2PC coordinator holds a cross-shard rename past a partition.
    Chaos {
        name: "shard",
        seed: 21,
        base: || TestbedParams {
            shards: ShardParams::sharded(4),
            ..TestbedParams::default()
        },
        script: |p, _| scripts::shard_renames(p).tb,
        forced: &[
            "shards.per_shard.0.cross_renames",
            "shards.per_shard.0.cross_links",
            "shards.per_shard.1.cross_renames",
            "shards.per_shard.1.cross_links",
            "shards.per_shard.2.cross_renames",
            "shards.per_shard.2.cross_links",
            "shards.per_shard.3.cross_renames",
            "shards.per_shard.3.cross_links",
        ],
    },
];

/// Runs `row`'s fault-free and faulted twins and files them.
fn run_chaos(o: &mut Outcome, row: &Chaos) {
    let clean = (row.script)((row.base)(), row.seed).digest();
    let faulted = TestbedParams {
        trace: true,
        faults: FaultParams::chaos(row.seed),
        ..(row.base)()
    };
    let faulted = (row.script)(faulted, row.seed);
    let violations = faulted.finish_trace().map_or(0, |t| t.violations.len());
    let stats = faulted.stats_snapshot();
    file_chaos(o, row, [clean, faulted.digest()], violations, &stats);
}

/// Files one chaos row: its report, `<name>_injected`, `<name>_converged`
/// and three gates — the schedule injected something, the faulted run
/// forced what the row exists for, and it converged: the digests of the
/// servers' stable contents after the `clean` and `faulted` runs match,
/// the trace checker found nothing, and every killed attempt was absorbed
/// by a retransmission or is still outstanding.
fn file_chaos(
    o: &mut Outcome,
    row: &Chaos,
    [clean, faulted]: [u64; 2],
    violations: usize,
    stats: &StatsSnapshot,
) {
    let name = row.name;
    let fault = |key: &str| stats.num(&format!("faults.{key}"));
    let kinds = ["drops", "dups", "delays", "reply_losses", "partition_drops"];
    let injected: u64 = kinds.map(fault).iter().sum();
    let forced: u64 = row.forced.iter().map(|key| stats.num(key)).sum();
    let same = clean == faulted;
    let converged = same
        && violations == 0
        && fault("killed_attempts") == fault("retransmit_absorbed") + fault("outstanding_kills");
    o.body += &format!(
        "chaos[{name}]: injected={injected} forced={forced} digest {}: clean={clean:016x} \
         faulted={faulted:016x} trace_violations={violations}\n{}converged: {}\n\n",
        if same { "MATCH" } else { "MISMATCH" },
        report::fault_table(name, stats),
        if converged { "yes" } else { "NO" },
    );
    o.field(format!("{name}_injected"), injected);
    o.field(format!("{name}_converged"), converged);
    o.gate(injected > 0, || {
        format!("the {name} fault schedule injected nothing")
    });
    o.gate(forced > 0, || {
        format!("the {name} chaos run never forced what it exists to prove")
    });
    o.gate(converged, || {
        format!("the {name} chaos run failed to converge")
    });
}

/// The `chaos` entry's row `name` (`andrew`, `sharing`, `delegation` or
/// `shard`) alone, filed as the entry files it.
pub fn chaos_row(name: &str) -> Outcome {
    let row = CHAOS.iter().find(|r| r.name == name);
    let mut o = Outcome::default();
    run_chaos(&mut o, row.unwrap_or_else(|| panic!("no chaos row {name}")));
    o
}

/// The paper's workloads under seeded fault schedules (drops, duplicates,
/// delays, reply losses, a scripted partition/heal cycle), one [`CHAOS`]
/// row each: the Andrew benchmark, two-client write-sharing, a
/// recall-heavy delegation sweep and cross-shard renames. Converging
/// means the duplicate-request cache, retransmission ladder, callback
/// retries and the 2PC coordinator absorbed every injected fault without
/// corrupting the servers' stable contents. The clients are hard-mounted
/// (DESIGN.md §20), so every op of a faulted run succeeds. Each row is
/// pinned to its own seed, whatever `seed` is.
pub(super) const CHAOS_ENTRY: Entry = Entry {
    name: "chaos",
    title: "Chaos: fault injection convergence",
    run: |_| {
        let mut o = Outcome::default();
        for row in &CHAOS {
            run_chaos(&mut o, row);
        }
        o
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row off at 10 s and 100 messages and on at 1 s and 10:
    /// each floor met with room to spare.
    fn healthy() -> Vec<(Side, Side)> {
        let off = Side {
            secs: 10.0,
            msgs: 100,
        };
        vec![
            (
                off,
                Side {
                    secs: 1.0,
                    msgs: 10
                }
            );
            ROWS.len()
        ]
    }

    fn row(name: &str) -> usize {
        ROWS.iter().position(|r| r.name == name).expect(name)
    }

    fn judged(sides: &[(Side, Side)]) -> Vec<String> {
        let mut o = Outcome::default();
        judge(&mut o, &ROWS, sides);
        o.failures
    }

    #[test]
    fn a_forged_row_under_its_speedup_floor_fails_the_gate() {
        assert_eq!(judged(&healthy()), Vec::<String>::new());
        let mut sides = healthy();
        sides[row("flush64")].1.secs = 2.0;
        // The 4-client floor is strict: even is not faster.
        sides[row("scale4")].1.secs = 10.0;
        assert_eq!(
            judged(&sides),
            [
                "write_behind_flush64: speedup 5.00x, message cut 90.0%; want a speedup >= 8x",
                "server_io_scale4: speedup 1.00x, message cut 90.0%; want a speedup > 1x",
            ]
        );
    }

    #[test]
    fn a_forged_row_under_its_reduction_floor_fails_the_gate() {
        let mut sides = healthy();
        sides[row("churn6")].1.msgs = 80;
        // The transport's floor is on its rows' sum: 160 of 200 is 20%.
        sides[row("andrew_nfs")].1.msgs = 90;
        sides[row("read8")].1.msgs = 70;
        assert_eq!(
            judged(&sides),
            [
                "delegation_churn6: speedup 10.00x, message cut 20.0%; want a message cut >= 30%",
                "transport: its rows' total message cut is 20.0%; want >= 25%",
            ]
        );
    }

    #[test]
    fn a_forged_delegation_economy_with_a_revoke_fails_the_gate() {
        let committed = include_str!("../../../../baselines/stats_open_churn.json");
        let economy = |doc: &str| {
            let mut o = Outcome::default();
            delegation_economy(&mut o, &StatsSnapshot::from_json(doc.to_string()));
            o.failures
        };
        assert_eq!(economy(committed), Vec::<String>::new());
        let forged = committed.replace("\"revokes\":0", "\"revokes\":1");
        assert_ne!(forged, committed);
        assert_eq!(economy(&forged), ["a healthy run must not revoke, got 1"]);
    }

    #[test]
    fn a_chaos_run_that_forced_nothing_fails_its_gate_instead_of_panicking() {
        // Three drops injected, no recall forced.
        let json = r#"{"faults": {"drops": 3, "dups": 0, "delays": 0, "reply_losses": 0,
            "partition_drops": 0, "killed_attempts": 0, "retransmit_absorbed": 0,
            "outstanding_kills": 0, "dup_cache_hits": 0, "dup_cache_joins": 0,
            "callback_retries": 0, "callback_dupes": 0}, "delegation": {"recalls": 0}}"#;
        let row = CHAOS.iter().find(|r| r.name == "delegation").unwrap();
        let filed = |json: &str| {
            let mut o = Outcome::default();
            let stats = StatsSnapshot::from_json(json.to_string());
            file_chaos(&mut o, row, [1, 1], 0, &stats);
            o
        };
        assert_eq!(
            filed(json).failures,
            ["the delegation chaos run never forced what it exists to prove"]
        );
        let o = filed(&json.replace("\"recalls\": 0", "\"recalls\": 1"));
        assert_eq!(o.failures, Vec::<String>::new());
        let keys: Vec<&str> = o.ledger.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["delegation_injected", "delegation_converged"]);
    }
}
