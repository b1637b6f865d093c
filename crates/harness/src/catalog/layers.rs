//! The opt-in layers and extensions, each against the paper-mode stack:
//! write-behind pool, server I/O pipeline, transport pipeline, open
//! delegations, fault injection, and multi-client / sharded scaling.

use spritely_metrics::TextTable;
use spritely_sim::SimDuration;

use super::{slug_of, Entry, Outcome};
use crate::chaosx::CHAOS;
use crate::scripts::{andrew, flush, open_churn, scaling, scaling_shards, shared_read};
use crate::{
    report, ChaosVerdict, ClientParams, DelegationParams, Protocol, Run, ServerIoParams,
    ShardParams, TestbedParams, TransportParams, WriteBehindParams,
};

fn reduction_pct(paper: u64, pipelined: u64) -> f64 {
    100.0 * (1.0 - pipelined as f64 / paper as f64)
}

/// One row of a layer-off vs layer-on comparison: wire messages and
/// seconds (to `decimals` places) on both sides, and what the layer won.
fn versus_row(t: &mut TextTable, label: &str, msgs: (u64, u64), secs: (f64, f64), decimals: usize) {
    t.row(vec![
        label.to_string(),
        msgs.0.to_string(),
        msgs.1.to_string(),
        format!("{:.0}%", reduction_pct(msgs.0, msgs.1)),
        format!("{:.decimals$}", secs.0),
        format!("{:.decimals$}", secs.1),
        format!("{:.2}x", secs.0 / secs.1),
    ]);
}

const FLUSH_BLOCKS: usize = 64;

/// One flush point: an SNFS client with no update daemons, so the
/// `fsync` is the only flush.
fn flush_run(write_behind: WriteBehindParams, trace: bool) -> Run<SimDuration> {
    let params = TestbedParams {
        update_enabled: false,
        write_behind,
        trace,
        ..TestbedParams::default()
    };
    flush(params, FLUSH_BLOCKS)
}

/// Simulated time to write a 64-block dirty file back to the server,
/// paper-mode serial flush vs the gathered + pipelined write-behind pool.
pub(super) const FLUSH_LATENCY: Entry = Entry {
    name: "flush_latency",
    title: "Flush latency: 64-block write-back, serial vs gathered+pipelined",
    run: |_| {
        let paper = flush_run(WriteBehindParams::default(), false);
        // Traced: tracing changes nothing the table reads.
        let pipe = flush_run(WriteBehindParams::pipelined(), true);
        let serial = paper.first().as_secs_f64();
        let piped = pipe.first().as_secs_f64();
        let gain = serial / piped;
        let rows = [("paper (serial)", &paper), ("pipelined", &pipe)];
        let mut o = Outcome {
            body: format!(
                "{}\nspeedup: {gain:.2}x",
                report::flush_table(FLUSH_BLOCKS, &rows)
            ),
            ..Outcome::default()
        };
        // Its trace: checker-validated, artifacts for Perfetto.
        let trace = &pipe.tb.finish_trace().expect("tracing was on");
        o.file("trace_flush_pipelined.jsonl", trace.to_jsonl());
        o.file("trace_flush_pipelined.chrome.json", trace.to_chrome_json());
        o.file(
            "stats_flush_pipelined.json",
            pipe.tb.stats_snapshot().to_json(),
        );
        o.clean_trace("pipelined", "the traced pipelined flush", trace);
        // Met only when a gathered write reaches the server disk as one
        // request: written block by block, the flush is 2.91x.
        o.gate(gain >= 8.0, || {
            format!(
                "a gathered write must reach the server disk as one request: {gain:.2}x, want 8x"
            )
        });
        o.field("flush_paper_ms", format!("{:.2}", serial * 1e3));
        o.field("flush_pipelined_ms", format!("{:.2}", piped * 1e3));
        o.field("flush_gain_x", format!("{gain:.2}"));
        let write_rpcs = |r: &Run<_>| r.ops.get(spritely_proto::NfsProc::Write);
        let client = pipe.tb.clients[0].remote.snfs().expect("SNFS client");
        o.field("paper_write_rpcs", write_rpcs(&paper));
        o.field("pipelined_write_rpcs", write_rpcs(&pipe));
        let mean_batch = client.write_stats().mean_blocks();
        o.field("pipelined_mean_batch", format!("{mean_batch:.2}"));
        o.field("pipelined_peak_inflight", client.write_stats().peak);
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

/// `n` diskless SNFS clients against a server with the given I/O
/// pipeline.
fn server_io_run(io: ServerIoParams, trace: bool, n: usize, seed: u64) -> Run<SimDuration> {
    let params = TestbedParams {
        server_io: io,
        trace,
        ..TestbedParams::paper(Protocol::Snfs, true)
    };
    scaling(params, n, seed)
}

/// Server scaling with the server I/O pipeline on (paper §2.3 extended):
/// the same SNFS clients against the paper-faithful FIFO/uncached server
/// and the pipelined one (C-LOOK arm scheduling, larger block cache,
/// wider RPC admission). The pipeline only
/// reorders and absorbs server disk work; writes stay synchronous, so
/// consistency results are untouched.
pub(super) const SERVER_SCALING: Entry = Entry {
    name: "server_scaling",
    title: "Server scaling: FIFO paper server vs pipelined server I/O (SNFS, seed 42)",
    run: |seed| {
        let mut t = TextTable::new(vec![
            "clients",
            "paper s",
            "pipelined s",
            "speedup",
            "paper util",
            "pipe util",
        ]);
        let mut o = Outcome::default();
        let mut runs: Vec<(String, Run<SimDuration>)> = Vec::new();
        let mut gains = Vec::new();
        for n in [4, 8] {
            let paper = server_io_run(ServerIoParams::paper(), false, n, seed);
            let pipe = server_io_run(ServerIoParams::pipelined(), n == 4, n, seed);
            let gain = paper.makespan.as_secs_f64() / pipe.makespan.as_secs_f64();
            t.row(vec![
                n.to_string(),
                format!("{:.0}", paper.makespan.as_secs_f64()),
                format!("{:.0}", pipe.makespan.as_secs_f64()),
                format!("{gain:.2}x"),
                format!("{:.2}", paper.server_util),
                format!("{:.2}", pipe.server_util),
            ]);
            gains.push(gain);
            runs.push((format!("paper/{n}"), paper));
            runs.push((format!("pipelined/{n}"), pipe));
        }
        let labeled: Vec<(&str, &Run<SimDuration>)> =
            runs.iter().map(|(label, r)| (label.as_str(), r)).collect();
        o.body = format!(
            "{}\nserver I/O pipeline observability:\n{}",
            t.render(),
            report::server_io_table(&labeled)
        );
        // Snapshot of the 8-client pipelined run for offline diffing.
        let pipe8 = &runs.last().expect("runs recorded").1;
        o.file(
            "stats_server_scaling.json",
            pipe8.tb.stats_snapshot().to_json(),
        );
        for (label, r) in &runs {
            o.field(
                format!("{}_makespan_s", slug_of(label)),
                format!("{:.1}", r.makespan.as_secs_f64()),
            );
        }
        let [gain_at_4, gain_at_8] = gains[..] else {
            unreachable!("two client counts")
        };
        o.field("gain_at_8_x", format!("{gain_at_8:.2}"));
        o.gate(gain_at_4 > 1.0, || {
            format!("pipelined server I/O must be faster at 4 clients, got {gain_at_4:.2}x")
        });
        o.gate(gain_at_8 >= 1.3, || {
            format!(
                "pipelined server I/O must cut 8-client makespan by >= 1.3x, got {gain_at_8:.2}x"
            )
        });
        // The traced 4-client pipelined run feeds the disk-queue/reorder
        // checker rule with a real C-LOOK schedule; any bypass past the
        // aging limit or an unqueued completion is a violation.
        o.clean_trace(
            "pipelined_4",
            "the traced 4-client pipelined run",
            &runs[1].1.tb.finish_trace().expect("tracing was on"),
        );
        o
    },
};

fn transport_andrew_params(t: TransportParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Nfs,
        tmp_remote: true,
        server_io: ServerIoParams::pipelined(),
        transport: t,
        ..TestbedParams::default()
    }
}

/// The data-scaling run: `n` SNFS clients read one shared file with an
/// 8-block read-ahead window over transport `t`.
fn shared_read_run(t: TransportParams, n: usize, trace: bool) -> Run<()> {
    let params = TestbedParams {
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        client: ClientParams {
            read_ahead_window: 8,
            ..ClientParams::default()
        },
        transport: t,
        trace,
        ..TestbedParams::default()
    };
    shared_read(params, n)
}

/// Transport pipeline (compound batching, piggybacked post-op
/// attributes, switched full-duplex wire) vs the paper transport, on two
/// workloads: the single-client Andrew benchmark on plain NFS, where
/// piggybacked attributes elide the open-time `getattr` probes Table 5-2
/// complains about and the Nagle batcher coalesces the write-behind
/// bursts; and an 8-client shared-file read on SNFS, where the shared
/// 10 Mbit bus serializes every message unless the switched wire splits
/// it into per-host lanes and the read-ahead burst batches into
/// compounds. Both sides run the pipelined server I/O and write-behind
/// pool, so only `TransportParams` varies.
pub(super) const RPC_TRANSPORT: Entry = Entry {
    name: "rpc_transport",
    title: "RPC transport: paper vs pipelined transport (Andrew + 8-client scaling, seed 42)",
    run: |seed| {
        let a_paper = andrew(transport_andrew_params(TransportParams::paper()), seed);
        let a_pipe = andrew(transport_andrew_params(TransportParams::pipelined()), seed);
        let s_paper = shared_read_run(TransportParams::paper(), 8, false);
        let s_pipe = shared_read_run(TransportParams::pipelined(), 8, false);
        let (s_paper_msgs, s_pipe_msgs) = (s_paper.messages, s_pipe.messages);
        let s_paper_mk = s_paper.makespan.as_secs_f64();
        let s_pipe_mk = s_pipe.makespan.as_secs_f64();

        let at_paper = a_paper.tb.stats_snapshot();
        let at_pipe = a_pipe.tb.stats_snapshot();
        let a_paper_msgs = at_paper.num("transport.net_messages");
        let a_pipe_msgs = at_pipe.num("transport.net_messages");
        let a_paper_s = a_paper.first().total().as_secs_f64();
        let a_pipe_s = a_pipe.first().total().as_secs_f64();
        let andrew_gain = a_paper_s / a_pipe_s;
        let scaling_gain = s_paper_mk / s_pipe_mk;

        let mut t = TextTable::new(vec![
            "Workload",
            "paper msgs",
            "pipe msgs",
            "reduction",
            "paper s",
            "pipe s",
            "speedup",
        ]);
        versus_row(
            &mut t,
            "Andrew/NFS",
            (a_paper_msgs, a_pipe_msgs),
            (a_paper_s, a_pipe_s),
            0,
        );
        versus_row(
            &mut t,
            "8-client read/SNFS",
            (s_paper_msgs, s_pipe_msgs),
            (s_paper_mk, s_pipe_mk),
            1,
        );
        let total_paper = a_paper_msgs + s_paper_msgs;
        let total_pipe = a_pipe_msgs + s_pipe_msgs;
        let total_reduction = reduction_pct(total_paper, total_pipe);
        let pipe_snapshot = s_pipe.tb.stats_snapshot();
        let mut o = Outcome {
            body: format!(
                "{}\ntotal messages: {total_paper} -> {total_pipe} ({total_reduction:.0}% reduction)\n\
                 transport observability (whole run, setup included):\n{}",
                t.render(),
                report::transport_table(&[
                    ("andrew/paper", &at_paper),
                    ("andrew/pipe", &at_pipe),
                    ("scale8/paper", &s_paper.tb.stats_snapshot()),
                    ("scale8/pipe", &pipe_snapshot),
                ])
            ),
            ..Outcome::default()
        };
        o.file("stats_rpc_transport.json", pipe_snapshot.to_json());
        o.field("andrew_paper_msgs", a_paper_msgs);
        o.field("andrew_pipe_msgs", a_pipe_msgs);
        o.field("scale8_paper_msgs", s_paper_msgs);
        o.field("scale8_pipe_msgs", s_pipe_msgs);
        o.field("total_reduction_pct", format!("{total_reduction:.1}"));
        o.field("andrew_gain_x", format!("{andrew_gain:.2}"));
        o.field("scale8_gain_x", format!("{scaling_gain:.2}"));

        o.gate(total_reduction >= 25.0, || {
            format!(
                "pipelined transport must cut total RPC messages by >= 25%, \
                 got {total_reduction:.1}%"
            )
        });
        o.gate(scaling_gain >= 1.2, || {
            format!(
                "pipelined transport must cut 8-client makespan by >= 1.2x, got {scaling_gain:.2}x"
            )
        });
        o.gate(andrew_gain >= 0.98, || {
            format!("the Nagle batcher must not slow the serial Andrew run, got {andrew_gain:.2}x")
        });
        // A traced pipelined run feeds the batch-conservation and
        // at-most-once checker rules with a real batched schedule.
        let traced = shared_read_run(TransportParams::pipelined(), 2, true).tb;
        o.clean_trace(
            "shared_read_2",
            "the traced 2-client pipelined read",
            &traced.finish_trace().expect("tracing was on"),
        );
        o
    },
};

/// Files one chaos verdict under `name`: its report, its ledger keys and
/// its three gates — the schedule injected something, the run went
/// through what the workload exists to force, and it converged.
fn chaos_outcome(o: &mut Outcome, name: &str, v: &ChaosVerdict) {
    o.body.push_str(&v.report());
    o.body.push_str(&format!(
        "converged: {}\n\n",
        if v.converged() { "yes" } else { "NO" }
    ));
    o.field(format!("{name}_injected"), v.injected());
    o.field(format!("{name}_converged"), v.converged());
    o.gate(v.injected() > 0, || {
        format!("the {name} fault schedule injected nothing")
    });
    o.gate(v.forced > 0, || {
        format!("the {name} chaos run never forced what it exists to prove")
    });
    o.gate(v.converged(), || {
        format!("the {name} chaos run failed to converge")
    });
}

/// The four chaos workloads ([`CHAOS`]: the Andrew benchmark, two-client
/// write-sharing, a recall-heavy delegation sweep and cross-shard
/// renames) under their seeded fault schedules (drops, duplicates,
/// delays, reply losses, a partition/heal cycle). Converging means the
/// duplicate-request cache, retransmission ladder, callback retries and
/// the 2PC coordinator absorbed every injected fault without corrupting
/// the servers' stable contents. The schedules are pinned to the seeds
/// the convergence argument was checked on, whatever `seed` is.
pub(super) const CHAOS_ENTRY: Entry = Entry {
    name: "chaos",
    title: "Chaos: fault injection convergence",
    run: |_| {
        let mut o = Outcome::default();
        for (name, workload) in CHAOS {
            chaos_outcome(&mut o, name, &workload());
        }
        o
    },
};

const CHURN_CLIENTS: usize = 6;

/// Both sides of the delegation comparison run the full pipelined stack
/// (server I/O pipeline, write-behind pool, compound transport) so the
/// open/close RPCs themselves are the bottleneck under comparison; only
/// `DelegationParams` varies.
fn delegation_stack(d: DelegationParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        transport: TransportParams::pipelined(),
        delegation: d,
        ..TestbedParams::default()
    }
}

/// The open-churn mix on `n` name-caching clients of that stack.
fn churn_run(d: DelegationParams, n: usize, trace: bool) -> Run<()> {
    let params = TestbedParams {
        client: ClientParams {
            name_cache: true,
            ..ClientParams::default()
        },
        trace,
        ..delegation_stack(d)
    };
    open_churn(params, n)
}

/// Open delegations (DESIGN.md §17) vs the callback-only protocol, on
/// the open-heavy mix the delegation fast path targets — six clients
/// each re-open/read/close a private working-set file 30 times, then all
/// of them read a hot shared docroot three times over; every one of
/// those opens and closes is an RPC round trip under the paper protocol,
/// and a delegation holder serves them locally — plus Andrew as the
/// non-regression guard: delegations must not slow down a workload that
/// creates and writes files once instead of re-opening them.
pub(super) const OPEN_CHURN: Entry = Entry {
    name: "open_churn",
    title: "Open churn: open delegations vs callback-only protocol \
            (6-client churn + Andrew, seed 42)",
    run: |seed| {
        let andrew = |d| {
            let params = TestbedParams {
                tmp_remote: true,
                ..delegation_stack(d)
            };
            andrew(params, seed)
        };
        let off = churn_run(DelegationParams::paper(), CHURN_CLIENTS, false);
        let on = churn_run(DelegationParams::pipelined(), CHURN_CLIENTS, false);
        let (off_msgs, on_msgs) = (off.messages, on.messages);
        let (off_mk, on_mk) = (off.makespan.as_secs_f64(), on.makespan.as_secs_f64());
        let a_off = andrew(DelegationParams::paper());
        let a_on = andrew(DelegationParams::pipelined());

        let churn_reduction = reduction_pct(off_msgs, on_msgs);
        let churn_gain = off_mk / on_mk;
        let a_off_s = a_off.first().total().as_secs_f64();
        let a_on_s = a_on.first().total().as_secs_f64();
        let andrew_gain = a_off_s / a_on_s;
        let (a_off_msgs, a_on_msgs) = (a_off.tb.net.messages(), a_on.tb.net.messages());
        let total_reduction = reduction_pct(off_msgs + a_off_msgs, on_msgs + a_on_msgs);

        let snap = on.tb.stats_snapshot();
        let deleg = |key: &str| snap.num(&format!("delegation.{key}"));
        let (grants_read, grants_write) = (deleg("grants_read"), deleg("grants_write"));
        let grants = grants_read + grants_write;
        let (local_opens, recalls) = (deleg("local_opens"), deleg("recalls"));
        let (returns, revokes) = (deleg("returns"), deleg("revokes"));

        let mut t = TextTable::new(vec![
            "Workload",
            "no-deleg msgs",
            "deleg msgs",
            "reduction",
            "no-deleg s",
            "deleg s",
            "speedup",
        ]);
        versus_row(
            &mut t,
            &format!("{CHURN_CLIENTS}-client open churn"),
            (off_msgs, on_msgs),
            (off_mk, on_mk),
            2,
        );
        versus_row(
            &mut t,
            "Andrew/SNFS",
            (a_off_msgs, a_on_msgs),
            (a_off_s, a_on_s),
            0,
        );
        let mut o = Outcome {
            body: format!(
                "{}\ntotal messages: {} -> {} ({total_reduction:.0}% reduction)\n\
                 delegation accounting (churn, whole run):\n{}",
                t.render(),
                off_msgs + a_off_msgs,
                on_msgs + a_on_msgs,
                report::delegation_table(&[("churn/deleg", &snap)])
            ),
            ..Outcome::default()
        };
        o.file("stats_open_churn.json", snap.to_json());
        o.field("churn_paper_msgs", off_msgs);
        o.field("churn_deleg_msgs", on_msgs);
        o.field("churn_reduction_pct", format!("{churn_reduction:.1}"));
        o.field("churn_gain_x", format!("{churn_gain:.2}"));
        o.field("andrew_paper_msgs", a_off_msgs);
        o.field("andrew_deleg_msgs", a_on_msgs);
        o.field("andrew_gain_x", format!("{andrew_gain:.2}"));
        o.field("total_reduction_pct", format!("{total_reduction:.1}"));
        o.field("deleg_grants", grants);
        o.field("deleg_local_opens", local_opens);
        o.field("deleg_recalls", recalls);
        o.field("deleg_revokes", revokes);

        // >= 30% fewer wire messages on the open-heavy mix, no Andrew
        // regression, and a healthy delegation economy: both kinds
        // granted, each grant amortized over several local opens, the
        // docroot's write delegations recalled and returned once its
        // readers arrive, nothing revoked.
        o.gate(churn_reduction >= 30.0, || {
            format!(
                "delegations must cut the open-churn messages by >= 30%, \
                 got {churn_reduction:.1}%"
            )
        });
        o.gate(andrew_gain >= 0.98, || {
            format!("delegations must not slow the Andrew run, got {andrew_gain:.2}x")
        });
        o.gate(grants_read > 0 && grants_write > 0, || {
            format!(
                "expected both delegation kinds granted: {grants_read} read, {grants_write} write"
            )
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
        // A traced run feeds the delegation-safety checker a real
        // grant/recall/return schedule.
        let traced = churn_run(DelegationParams::pipelined(), 2, true).tb;
        o.clean_trace(
            "churn_2",
            "the traced 2-client delegated churn",
            &traced.finish_trace().expect("tracing was on"),
        );
        o
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chaos_run_that_forced_nothing_fails_its_gate_instead_of_panicking() {
        // Three drops injected, nothing else.
        let json = r#"{"faults": {"drops": 3, "dups": 0, "delays": 0, "reply_losses": 0,
            "partition_drops": 0, "killed_attempts": 0, "retransmit_absorbed": 0,
            "outstanding_kills": 0, "dup_cache_hits": 0, "dup_cache_joins": 0,
            "callback_retries": 0, "callback_dupes": 0}}"#;
        let mut v = ChaosVerdict {
            workload: "delegation",
            digest_clean: 1,
            digest_faulted: 1,
            trace_violations: 0,
            stats: crate::StatsSnapshot::from_json(json.to_string()),
            forced: 0,
        };
        let mut o = Outcome::default();
        chaos_outcome(&mut o, "delegation", &v);
        assert_eq!(
            o.failures,
            ["the delegation chaos run never forced what it exists to prove"]
        );
        v.forced = 1;
        let mut o = Outcome::default();
        chaos_outcome(&mut o, "delegation", &v);
        assert_eq!(o.failures, Vec::<String>::new());
        let keys: Vec<&str> = o.ledger.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["delegation_injected", "delegation_converged"]);
    }
}
