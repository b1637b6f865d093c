//! One repetition, and the report it prints.
//!
//! A repetition builds a fresh testbed, sets the workload up, opens the
//! measured window, runs every client to completion, closes the window,
//! and then (outside every timed interval) lets the workload check its
//! outputs.
//!
//! Every repetition runs in a process of its own (`--rep`, spawned by
//! [`crate::measure`]): the simulator's executor and its daemon tasks
//! hold each other in a reference cycle, so a testbed is never freed,
//! and repetitions sharing a process would each start on a larger heap
//! than the last. The child prints its results as `kind name value`
//! lines; the parent compares and aggregates them.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use spritely::harness::Testbed;
use spritely::sim::SimDuration;
use spritely::trace::{check_trace, profile_trace, Phase, Tracer, NUM_PHASES};
use spritely::workloads::AndrewTimes;

use crate::alloc;
use crate::calib::{calibrate, scaled_ms};
use crate::metrics::{median, values, Values};
use crate::probe::{layer_values, Counters, Gauges};
use crate::spans::{op_latency_ms, OpCounters, Span, SpanLog};
use crate::workloads::{Checks, Cx, Entry};

/// A window still open after this much simulated time is a hard failure
/// (a livelock the bounded retries did not break).
const SIM_CEILING: SimDuration = SimDuration::from_secs(600);

/// Everything one repetition yields on the simulated clock. Two
/// repetitions of one seed must agree on all of it.
#[derive(Debug)]
pub struct SimOutcome {
    pub makespan_us: u64,
    /// Per-client completion times, in client order.
    pub client_us: Vec<u64>,
    pub delta: Counters,
    pub gauges: Gauges,
    pub ops: OpCounters,
    pub checks: Checks,
    pub andrew: Option<AndrewTimes>,
}

/// What the program's own tracer, checker and profiler reported at the
/// window's close, and what the three passes cost on the host clock
/// (scaled ms, see [`crate::calib`]).
#[derive(Debug)]
pub struct TraceOutcome {
    /// Events recorded inside the window / up to its close.
    pub window_events: u64,
    pub total_events: u64,
    /// Invariant violations in the whole repetition's trace, taken after
    /// the post-window drain: at the window's close a cross-shard
    /// rename's clean-up can still be in flight, which the checker's
    /// end-of-trace rule would report.
    pub violations: u64,
    pub attributed_share: f64,
    /// Profiler phase totals over the operations that began inside the
    /// window, in `Phase::ALL` order.
    pub phase_us: [u64; NUM_PHASES],
    pub snapshot_ms: f64,
    pub check_ms: f64,
    pub profile_ms: f64,
}

pub struct Rep {
    /// Host clock, scaled to the reference machine.
    pub setup_s: f64,
    pub window_ms: f64,
    /// Mean of the repetition's calibration samples, in raw ms: how fast
    /// the host was.
    pub calibration_ms: f64,
    pub allocs: u64,
    pub peak_heap_bytes: usize,
    pub sim: SimOutcome,
    /// Traced repetitions only.
    pub trace: Option<TraceOutcome>,
    pub tracer: Option<Tracer>,
    pub spans: Vec<Span>,
}

/// `Testbed::finish_trace()` and the profile `stats_snapshot()` adds,
/// pass by pass so each can be timed. `speed` ends with the calibration
/// sample taken at the window's close and gains the one taken here.
fn finish_trace(
    tracer: &Tracer,
    window_open_us: u64,
    events_at_open: u64,
    speed: &mut Vec<f64>,
) -> TraceOutcome {
    let t0 = Instant::now();
    let events = tracer.finish();
    let t1 = Instant::now();
    // What it finds is counted after the drain (see `violations`).
    black_box(check_trace(&events));
    let t2 = Instant::now();
    let profile = profile_trace(&events);
    let t3 = Instant::now();
    speed.push(calibrate());
    let around = &speed[speed.len() - 2..];
    let mut phase_us = [0; NUM_PHASES];
    for op in profile
        .ops
        .iter()
        .filter(|op| op.begin_us >= window_open_us)
    {
        for (total, us) in phase_us.iter_mut().zip(op.phase_us) {
            *total += us;
        }
    }
    TraceOutcome {
        window_events: events.len() as u64 - events_at_open,
        total_events: events.len() as u64,
        violations: 0,
        attributed_share: profile.attributed_fraction(),
        phase_us,
        snapshot_ms: scaled_ms(t1 - t0, around),
        check_ms: scaled_ms(t2 - t1, around),
        profile_ms: scaled_ms(t3 - t2, around),
    }
}

/// Runs one repetition of `entry` with `seed`; `traced` turns on the
/// program's tracer (`TestbedParams::trace`) and the span records.
pub fn repetition(entry: &Entry, seed: u64, traced: bool) -> Rep {
    let heap = alloc::rebase();
    let log = SpanLog::new(traced);
    let whole = log.scope("repetition", 0, 0);
    // A calibration sample at every edge of a timed interval.
    let mut speed = vec![calibrate()];
    let started = Instant::now();
    let mut workload = (entry.make)(seed);
    let tb = {
        let _span = log.scope("build", 0, whole.id());
        let (mut params, clients) = workload.testbed();
        params.trace = traced;
        Testbed::build_with_clients(params, clients)
    };
    log.attach(&tb.sim);
    let cx = Cx { tb: &tb, log: &log };
    {
        let _span = log.scope("setup", 0, whole.id());
        workload.setup(&cx);
    }
    let setup = started.elapsed();
    speed.push(calibrate());
    let setup_s = scaled_ms(setup, &speed[0..2]) / 1e3;

    let sim = tb.sim.clone();
    tb.sim.spawn(async move {
        sim.sleep(SIM_CEILING).await;
        eprintln!("the window is still open after {SIM_CEILING} of simulated time");
        std::process::exit(3);
    });
    let before = Counters::read(&tb);
    let events_at_open = tb.tracer.as_ref().map_or(0, |t| t.len() as u64);
    let opened = tb.sim.now();
    let window_started = Instant::now();
    let clients = {
        let span = log.scope("window", 0, whole.id());
        workload.window(&cx, span.id())
    };
    let window = window_started.elapsed();
    let makespan_us = tb.sim.now().duration_since(opened).as_micros();
    let delta = Counters::read(&tb) - before;
    let gauges = Gauges::read(&tb);
    let (allocs, peak_heap_bytes) = alloc::since(heap);
    speed.push(calibrate());
    let window_ms = scaled_ms(window, &speed[1..3]);

    let mut trace = tb.tracer.as_ref().map(|tracer| {
        let _span = log.scope("finish_trace", 0, whole.id());
        finish_trace(tracer, opened.as_micros(), events_at_open, &mut speed)
    });
    let checks = {
        let _span = log.scope("verify", 0, whole.id());
        workload.verify(&cx)
    };
    if let (Some(outcome), Some(tracer)) = (&mut trace, &tb.tracer) {
        outcome.violations = check_trace(&tracer.finish()).len() as u64;
    }
    drop(whole);
    Rep {
        setup_s,
        window_ms,
        calibration_ms: speed.iter().sum::<f64>() / speed.len() as f64,
        allocs,
        peak_heap_bytes,
        sim: SimOutcome {
            makespan_us,
            client_us: clients.iter().map(|d| d.as_micros()).collect(),
            delta,
            gauges,
            ops: log.counters(),
            checks,
            andrew: workload.andrew_times(),
        },
        trace,
        tracer: tb.tracer.clone(),
        spans: log.take(),
    }
}

/// A fingerprint of everything in `outcome`, including what no metric
/// prints (every client's completion time, every raw counter).
/// `DefaultHasher::new()` is keyed with constants, so it agrees across
/// processes.
fn fingerprint(outcome: &impl std::fmt::Debug) -> f64 {
    let mut h = DefaultHasher::new();
    format!("{outcome:?}").hash(&mut h);
    // 52 bits survive the trip through the report's f64 values.
    (h.finish() >> 12) as f64
}

/// The simulated-clock numbers both passes must agree on: the
/// end-to-end metrics, the per-layer counts, and the checks.
fn sim_values(sim: &SimOutcome) -> Values {
    let mut v = layer_values(&sim.delta, &sim.gauges, sim.makespan_us);
    let mut clients: Vec<f64> = sim.client_us.iter().map(|&us| us as f64 / 1e6).collect();
    if clients.is_empty() {
        clients.push(0.0);
    }
    let c = &sim.checks;
    let op_failures = sim.ops.failures + c.script_failures;
    let failed = op_failures + c.wrong_reads + c.stale_reads + c.final_state_mismatches;
    let phase = |f: fn(&AndrewTimes) -> SimDuration| {
        sim.andrew.as_ref().map_or(0.0, |t| f(t).as_secs_f64())
    };
    v.extend(values([
        ("sim_makespan_s", sim.makespan_us as f64 / 1e6),
        ("sim_client_p50_s", median(&clients)),
        ("sim_net_messages", sim.delta.net_messages as f64),
        ("sim_server_disk_writes", sim.delta.disk_writes as f64),
        ("core.stale_reads", c.stale_reads as f64),
        (
            "core.final_state_mismatches",
            c.final_state_mismatches as f64,
        ),
        ("vfs.ops", sim.ops.ops as f64),
        ("vfs.op_retries", sim.ops.retries as f64),
        ("workloads.andrew_makedir_s", phase(|t| t.makedir)),
        ("workloads.andrew_copy_s", phase(|t| t.copy)),
        ("workloads.andrew_scandir_s", phase(|t| t.scandir)),
        ("workloads.andrew_readall_s", phase(|t| t.readall)),
        ("workloads.andrew_make_s", phase(|t| t.make)),
        // Syscalls on the scripted workloads, client scripts on the
        // library ones.
        ("check.attempted", (sim.ops.ops + c.scripts) as f64),
        ("check.failed", failed as f64),
        ("check.op_failures", op_failures as f64),
        ("check.wrong_reads", c.wrong_reads as f64),
        ("check.fingerprint", fingerprint(sim)),
    ]));
    v
}

/// The simulated-clock numbers only a traced repetition has.
fn trace_values(t: &TraceOutcome, spans: &[Span]) -> Values {
    let phase_s = |p: Phase| {
        let i = Phase::ALL
            .iter()
            .position(|&q| q == p)
            .expect("listed phase");
        t.phase_us[i] as f64 / 1e6
    };
    values([
        ("rpcnet.client_queue_s", phase_s(Phase::ClientQueue)),
        ("rpcnet.net_s", phase_s(Phase::Net)),
        ("rpcnet.admission_s", phase_s(Phase::Admission)),
        ("rpcnet.dup_cache_s", phase_s(Phase::DupCache)),
        ("blockdev.disk_queue_s", phase_s(Phase::DiskQueue)),
        ("blockdev.disk_service_s", phase_s(Phase::DiskService)),
        ("core.server_cpu_s", phase_s(Phase::ServerCpu)),
        ("core.cache_local_s", phase_s(Phase::CacheLocal)),
        ("core.callback_s", phase_s(Phase::Callback)),
        ("trace.unattributed_s", phase_s(Phase::Unattributed)),
        ("vfs.op_p50_ms", op_latency_ms(spans, None, 0.50)),
        ("vfs.op_p99_ms", op_latency_ms(spans, None, 0.99)),
        ("vfs.open_p99_ms", op_latency_ms(spans, Some("open"), 0.99)),
        ("trace.events", t.window_events as f64),
        ("trace.total_events", t.total_events as f64),
        ("trace.attributed_share", t.attributed_share),
        ("trace.violations", t.violations as f64),
    ])
}

/// The child's report: `host`, `sim` and `trace` lines of `name value`.
pub fn report(rep: &Rep) -> String {
    let mut host = values([
        ("setup_s", rep.setup_s),
        ("window_ms", rep.window_ms),
        ("calibration_ms", rep.calibration_ms),
        ("allocs", rep.allocs as f64),
        ("peak_heap_mb", rep.peak_heap_bytes as f64 / 1e6),
    ]);
    let mut trace = Values::new();
    if let Some(t) = &rep.trace {
        host.extend(values([
            ("snapshot_ms", t.snapshot_ms),
            ("check_ms", t.check_ms),
            ("profile_ms", t.profile_ms),
        ]));
        trace = trace_values(t, &rep.spans);
    }
    let mut out = String::new();
    for (kind, map) in [
        ("host", &host),
        ("sim", &sim_values(&rep.sim)),
        ("trace", &trace),
    ] {
        for (name, value) in map {
            out.push_str(&format!("{kind} {name} {value}\n"));
        }
    }
    out
}
