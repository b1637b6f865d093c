//! The opt-in layers and extensions, each against the paper-mode stack:
//! write-behind pool, server I/O pipeline, transport pipeline, open
//! delegations, fault injection, and multi-client / sharded scaling.

use spritely_metrics::TextTable;
use spritely_sim::SimDuration;
use spritely_vfs::OpenFlags;

use super::{slug_of, Entry, Outcome};
use crate::{
    chaos_andrew, chaos_delegation, chaos_write_sharing, report, run_andrew_with, run_flush,
    run_flush_with, run_scaling, run_scaling_shards, run_scaling_with, DelegationParams, Protocol,
    ScalingRun, ServerIoParams, Testbed, TestbedParams, TransportParams, WriteBehindParams,
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

/// Simulated time to write a 64-block dirty file back to the server,
/// paper-mode serial flush vs the gathered + pipelined write-behind pool.
pub(super) const FLUSH_LATENCY: Entry = Entry {
    name: "flush_latency",
    title: "Flush latency: 64-block write-back, serial vs gathered+pipelined",
    run: |_| {
        let runs = vec![
            run_flush("paper (serial)", WriteBehindParams::default(), FLUSH_BLOCKS),
            run_flush("pipelined", WriteBehindParams::pipelined(), FLUSH_BLOCKS),
        ];
        let serial = runs[0].flush_time.as_secs_f64();
        let piped = runs[1].flush_time.as_secs_f64();
        let gain = serial / piped;
        let mut o = Outcome {
            body: format!("{}\nspeedup: {gain:.2}x", report::flush_table(&runs)),
            ..Outcome::default()
        };
        // Traced pipelined flush: checker-validated, artifacts for Perfetto.
        let traced = run_flush_with(
            "pipelined+trace",
            TestbedParams {
                protocol: Protocol::Snfs,
                update_enabled: false,
                write_behind: WriteBehindParams::pipelined(),
                trace: true,
                ..TestbedParams::default()
            },
            FLUSH_BLOCKS,
        );
        let trace = traced.trace.as_ref().expect("tracing was on");
        o.file("trace_flush_pipelined.jsonl", trace.to_jsonl());
        o.file("trace_flush_pipelined.chrome.json", trace.to_chrome_json());
        o.file("stats_flush_pipelined.json", traced.stats.to_json());
        o.clean_trace("pipelined", "the traced pipelined flush", trace);
        o.gate(gain >= 2.0, || {
            format!(
                "write gathering + pipelining must at least halve flush latency, got {gain:.2}x"
            )
        });
        // Sim-time metrics only, under names the compare ignore-list does
        // not match ("serial_ms"/"speedup" are reserved for wall clock).
        o.field("flush_paper_ms", format!("{:.2}", serial * 1e3));
        o.field("flush_pipelined_ms", format!("{:.2}", piped * 1e3));
        o.field("flush_gain_x", format!("{gain:.2}"));
        o.field("paper_write_rpcs", runs[0].write_rpcs);
        o.field("pipelined_write_rpcs", runs[1].write_rpcs);
        o.field("pipelined_mean_batch", format!("{:.2}", runs[1].mean_batch));
        o.field("pipelined_peak_inflight", runs[1].peak_inflight);
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
            let nfs = run_scaling(Protocol::Nfs, n, seed);
            let snfs = run_scaling(Protocol::Snfs, n, seed);
            t.row(vec![
                n.to_string(),
                format!("{:.0}", nfs.makespan.as_secs_f64()),
                format!("{:.0}", snfs.makespan.as_secs_f64()),
                nfs.disk_writes.to_string(),
                snfs.disk_writes.to_string(),
            ]);
            for r in [&nfs, &snfs] {
                let p = slug_of(r.protocol.label());
                o.field(
                    format!("{p}_{n}_makespan_s"),
                    format!("{:.1}", r.makespan.as_secs_f64()),
                );
                o.field(format!("{p}_{n}_disk_wr"), r.disk_writes);
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
            let r = run_scaling_shards(shards, clients, seed);
            match (shards, clients) {
                (1, 128) => one_server = r.throughput,
                (8, 128) => eight_shards = r.throughput,
                _ => {}
            }
            let per_shard: Vec<String> = r.per_shard_rpcs.iter().map(u64::to_string).collect();
            t.row(vec![
                shards.to_string(),
                clients.to_string(),
                format!("{:.1}", r.makespan.as_secs_f64()),
                r.total_rpcs.to_string(),
                format!("{:.0}", r.throughput),
                per_shard.join("/"),
                r.peak_client_kb.to_string(),
            ]);
            let row = format!("shards_{shards}x{clients}");
            o.field(format!("{row}_ops_per_s"), format!("{:.0}", r.throughput));
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

fn server_io_params(io: ServerIoParams, trace: bool) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        tmp_remote: true,
        server_io: io,
        trace,
        ..TestbedParams::default()
    }
}

/// Server scaling with the server I/O pipeline on (paper §2.3 extended):
/// the same SNFS clients against the paper-faithful FIFO/uncached server
/// and the pipelined one (C-LOOK arm scheduling, larger block cache with
/// single-flight misses, wider RPC admission). The pipeline only
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
        let mut runs: Vec<(String, ScalingRun)> = Vec::new();
        let mut gains = Vec::new();
        for n in [4, 8] {
            let paper = run_scaling_with(server_io_params(ServerIoParams::paper(), false), n, seed);
            let pipe = run_scaling_with(
                server_io_params(ServerIoParams::pipelined(), false),
                n,
                seed,
            );
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
        let labeled: Vec<(&str, &ScalingRun)> =
            runs.iter().map(|(label, r)| (label.as_str(), r)).collect();
        o.body = format!(
            "{}\nserver I/O pipeline observability:\n{}",
            t.render(),
            report::server_io_table(&labeled)
        );
        // Snapshot of the 8-client pipelined run for offline diffing.
        let pipe8 = &runs.last().expect("runs recorded").1;
        o.file("stats_server_scaling.json", pipe8.stats.to_json());
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
        // A traced pipelined run feeds the disk-queue/reorder checker
        // rule with a real C-LOOK schedule; any bypass past the aging
        // limit or an unqueued completion is a violation.
        let traced = run_scaling_with(server_io_params(ServerIoParams::pipelined(), true), 4, seed);
        o.clean_trace(
            "pipelined_4",
            "the traced 4-client pipelined run",
            traced.trace.as_ref().expect("tracing was on"),
        );
        o
    },
};

/// Runs `work(client index, process)` on every client concurrently and
/// returns the phase's makespan in seconds and its wire message count.
fn measured_phase<F, Fut>(tb: &Testbed, work: F) -> (f64, u64)
where
    F: Fn(usize, spritely_vfs::Proc) -> Fut,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let t0 = tb.sim.now();
    let m0 = tb.net.messages();
    let handles: Vec<_> = tb
        .clients
        .iter()
        .enumerate()
        .map(|(i, host)| tb.sim.spawn(work(i, host.proc(&tb.sim))))
        .collect();
    for h in handles {
        tb.sim.run_until(h);
    }
    (
        tb.sim.now().duration_since(t0).as_secs_f64(),
        tb.net.messages() - m0,
    )
}

/// Writes `blocks` blocks of `fill` to a new file at `path`.
async fn seed_file(p: &spritely_vfs::Proc, path: &str, fill: u8, blocks: usize) {
    let fd = p.open(path, OpenFlags::create_write()).await.unwrap();
    p.write(fd, &vec![fill; blocks * 4096]).await.unwrap();
    p.close(fd).await.unwrap();
}

/// Opens `path`, reads it to the end a block at a time, closes it.
async fn read_whole(p: &spritely_vfs::Proc, path: &str) {
    let fd = p.open(path, OpenFlags::read()).await.unwrap();
    while !p.read(fd, 4096).await.unwrap().is_empty() {}
    p.close(fd).await.unwrap();
}

/// Long enough for every delayed write-back to reach the server.
const DRAIN: SimDuration = SimDuration::from_secs(65);

fn transport_andrew_params(t: TransportParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Nfs,
        tmp_remote: true,
        server_io: ServerIoParams::pipelined(),
        transport: t,
        ..TestbedParams::default()
    }
}

/// One data-scaling run: client 0 seeds a shared 256-block file
/// (untimed), every client cold-boots, then all `n` clients read the
/// whole file concurrently with an 8-block read-ahead window. Returns
/// the testbed plus the measured phase's makespan and message count.
pub fn run_shared_read(t: TransportParams, n: usize, trace: bool) -> (Testbed, f64, u64) {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            server_io: ServerIoParams::pipelined(),
            write_behind: WriteBehindParams::pipelined(),
            read_ahead_window: 8,
            transport: t,
            trace,
            ..TestbedParams::default()
        },
        n,
    );
    let p = tb.proc();
    let sim = tb.sim.clone();
    tb.sim.block_on(async move {
        seed_file(&p, "/remote/shared", 3, 256).await;
        sim.sleep(DRAIN).await;
    });
    for host in &tb.clients {
        let remote = host.remote.clone();
        tb.sim
            .block_on(async move { remote.cold_boot().await.expect("cold boot") });
    }
    let (makespan, messages) = measured_phase(&tb, |_, p| async move {
        read_whole(&p, "/remote/shared").await;
    });
    (tb, makespan, messages)
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
        let a_paper = run_andrew_with(transport_andrew_params(TransportParams::paper()), seed);
        let a_pipe = run_andrew_with(transport_andrew_params(TransportParams::pipelined()), seed);
        let (s_paper_tb, s_paper_mk, s_paper_msgs) =
            run_shared_read(TransportParams::paper(), 8, false);
        let (s_pipe_tb, s_pipe_mk, s_pipe_msgs) =
            run_shared_read(TransportParams::pipelined(), 8, false);

        let at_paper = a_paper.stats.transport;
        let at_pipe = a_pipe.stats.transport;
        let a_paper_s = a_paper.times.total().as_secs_f64();
        let a_pipe_s = a_pipe.times.total().as_secs_f64();
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
            (at_paper.net_messages, at_pipe.net_messages),
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
        let total_paper = at_paper.net_messages + s_paper_msgs;
        let total_pipe = at_pipe.net_messages + s_pipe_msgs;
        let total_reduction = reduction_pct(total_paper, total_pipe);
        let pipe_snapshot = s_pipe_tb.stats_snapshot();
        let mut o = Outcome {
            body: format!(
                "{}\ntotal messages: {total_paper} -> {total_pipe} ({total_reduction:.0}% reduction)\n\
                 transport observability (whole run, setup included):\n{}",
                t.render(),
                report::transport_table(&[
                    ("andrew/paper", &at_paper),
                    ("andrew/pipe", &at_pipe),
                    ("scale8/paper", &s_paper_tb.stats_snapshot().transport),
                    ("scale8/pipe", &pipe_snapshot.transport),
                ])
            ),
            ..Outcome::default()
        };
        o.file("stats_rpc_transport.json", pipe_snapshot.to_json());
        o.field("andrew_paper_msgs", at_paper.net_messages);
        o.field("andrew_pipe_msgs", at_pipe.net_messages);
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
        let (traced_tb, _, _) = run_shared_read(TransportParams::pipelined(), 2, true);
        o.clean_trace(
            "shared_read_2",
            "the traced 2-client pipelined read",
            &traced_tb.finish_trace().expect("tracing was on"),
        );
        o
    },
};

/// The Andrew benchmark, a two-client write-sharing workload and a
/// recall-heavy delegation workload under their seeded fault schedules
/// (drops, duplicates, delays, reply losses, a partition/heal cycle).
/// Converging means the duplicate-request cache, retransmission ladder
/// and callback retries absorbed every injected fault without corrupting
/// the server's stable contents. The three schedules are pinned to the
/// seeds the convergence argument was checked on, whatever `seed` is.
pub(super) const CHAOS: Entry = Entry {
    name: "chaos",
    title: "Chaos: fault injection convergence",
    run: |_| {
        let mut o = Outcome::default();
        for (name, v) in [
            ("andrew", chaos_andrew(7)),
            ("sharing", chaos_write_sharing(11)),
            ("delegation", chaos_delegation(13)),
        ] {
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
            o.gate(v.converged(), || {
                format!("the {name} chaos run failed to converge")
            });
        }
        o
    },
};

const CHURN_CLIENTS: usize = 6;
const CHURN_ROUNDS: usize = 30;
const DOC_FILES: usize = 8;
const DOC_ROUNDS: usize = 3;
const CHURN_FILE_BLOCKS: usize = 4;

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

/// Seeds each client's private file and the shared docroot (untimed),
/// then runs the measured open-heavy mix concurrently on every client:
/// `CHURN_ROUNDS` open/read/close cycles on the private file, then
/// `DOC_ROUNDS` passes over the `DOC_FILES`-file docroot. Returns the
/// testbed plus the measured makespan and wire message count.
pub fn run_open_churn(d: DelegationParams, n: usize, trace: bool) -> (Testbed, f64, u64) {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            name_cache: true,
            trace,
            ..delegation_stack(d)
        },
        n,
    );
    measured_phase(&tb, |i, p| async move {
        seed_file(&p, &format!("/remote/src/own{i}"), 5, CHURN_FILE_BLOCKS).await;
        if i == 0 {
            for f in 0..DOC_FILES {
                seed_file(&p, &format!("/remote/src/doc{f}"), 6, CHURN_FILE_BLOCKS).await;
            }
        }
    });
    // Drain the delayed write-backs so the measured phase is clean.
    let sim = tb.sim.clone();
    tb.sim.block_on(async move { sim.sleep(DRAIN).await });
    let (makespan, messages) = measured_phase(&tb, |i, p| async move {
        let own = format!("/remote/src/own{i}");
        for _ in 0..CHURN_ROUNDS {
            read_whole(&p, &own).await;
        }
        for _ in 0..DOC_ROUNDS {
            for f in 0..DOC_FILES {
                read_whole(&p, &format!("/remote/src/doc{f}")).await;
            }
        }
    });
    (tb, makespan, messages)
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
            run_andrew_with(
                TestbedParams {
                    tmp_remote: true,
                    ..delegation_stack(d)
                },
                seed,
            )
        };
        let (_, off_mk, off_msgs) = run_open_churn(DelegationParams::paper(), CHURN_CLIENTS, false);
        let (on_tb, on_mk, on_msgs) =
            run_open_churn(DelegationParams::pipelined(), CHURN_CLIENTS, false);
        let a_off = andrew(DelegationParams::paper());
        let a_on = andrew(DelegationParams::pipelined());

        let churn_reduction = reduction_pct(off_msgs, on_msgs);
        let churn_gain = off_mk / on_mk;
        let a_off_s = a_off.times.total().as_secs_f64();
        let a_on_s = a_on.times.total().as_secs_f64();
        let andrew_gain = a_off_s / a_on_s;
        let a_off_msgs = a_off.stats.transport.net_messages;
        let a_on_msgs = a_on.stats.transport.net_messages;
        let total_reduction = reduction_pct(off_msgs + a_off_msgs, on_msgs + a_on_msgs);

        let snap = on_tb.stats_snapshot();
        let deleg = snap.delegation.expect("delegations were enabled");
        let d = deleg.stats;
        let grants = d.grants_read + d.grants_write;

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
                report::delegation_table(&[("churn/deleg", &deleg)])
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
        o.field("deleg_local_opens", d.local_opens);
        o.field("deleg_recalls", d.recalls);
        o.field("deleg_revokes", d.revokes);

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
        o.gate(d.grants_read > 0 && d.grants_write > 0, || {
            format!("expected both delegation kinds granted: {d:?}")
        });
        o.gate(d.local_opens > grants, || {
            format!("each grant must amortize over several local opens: {d:?}")
        });
        o.gate(d.recalls >= 2 && d.returns == d.recalls, || {
            format!("the conflicting opens must recall, and every recall return: {d:?}")
        });
        o.gate(d.revokes == 0, || {
            format!("a healthy run must not revoke, got {}", d.revokes)
        });
        // A traced run feeds the delegation-safety checker a real
        // grant/recall/return schedule.
        let (traced_tb, _, _) = run_open_churn(DelegationParams::pipelined(), 2, true);
        o.clean_trace(
            "churn_2",
            "the traced 2-client delegated churn",
            &traced_tb.finish_trace().expect("tracing was on"),
        );
        o
    },
};
