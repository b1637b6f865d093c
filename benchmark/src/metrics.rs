//! The metric registry: every name the benchmark prints, with its unit,
//! clock, direction, regression bound and the public accessor it is read
//! from. `BENCHMARK.json` and the glossary in `README.md` are generated
//! from these tables (`--manifest`, `--glossary`), so the three cannot
//! drift apart.

use std::collections::BTreeMap;

use Clock::{Host, Sim};

/// Which clock a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time or a count made by the deterministic simulation:
    /// repeats exactly for one seed.
    Sim,
    /// Host wall clock (scaled, see `calib.rs`) or host memory: subject
    /// to the sandbox's noise.
    Host,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics (they carry no bound).
    pub bound: f64,
    /// Where the number comes from.
    pub source: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    bound: f64,
    source: &'static str,
) -> Def {
    Def {
        name,
        unit,
        clock,
        better: "lower",
        bound,
        source,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
///
/// The driver takes its spread over runs with *different* seeds, so the
/// bounds of the simulated-clock metrics cover the seed-to-seed
/// variation left after averaging over a workload's fixed cycles (at
/// most 4.8 %, Andrew's disk writes), not run-to-run noise: on one seed
/// they repeat exactly. The host-clock bounds are three to four times
/// the spreads seen here over ten seeds (README, "Seed-commit numbers").
pub const END_TO_END: &[Def] = &[
    e2e(
        "setup_s",
        "s",
        Clock::Host,
        0.25,
        "scaled host clock around Testbed::build*, populate, 65 s simulated drain, cold_boot; median over untraced repetitions",
    ),
    e2e(
        "sim_makespan_s",
        "s",
        Clock::Sim,
        0.08,
        "Sim::now() from window open until the last client finishes",
    ),
    e2e(
        "sim_client_p50_s",
        "s",
        Clock::Sim,
        0.08,
        "Sim::now() around each client's script, median over clients",
    ),
    e2e(
        "sim_net_messages",
        "count",
        Clock::Sim,
        0.03,
        "Network::messages() delta over the window: both directions, callbacks and retransmits included",
    ),
    e2e(
        "sim_server_disk_writes",
        "count",
        Clock::Sim,
        0.15,
        "Disk::stats().writes delta over the window, summed over shards",
    ),
    e2e(
        "host_run_ms",
        "ms",
        Clock::Host,
        0.20,
        "scaled host clock around the measured window, tracing off; median over repetitions",
    ),
    e2e(
        "host_traced_run_ms",
        "ms",
        Clock::Host,
        0.25,
        "scaled host clock around the window plus Tracer::finish + check_trace + profile_trace, tracing on: the cost of a verified run; median",
    ),
    e2e(
        "host_allocs_per_run",
        "count",
        Clock::Host,
        0.02,
        "counting #[global_allocator]: allocations from build to window close, tracing off; median",
    ),
    e2e(
        "host_peak_heap_mb",
        "MB",
        Clock::Host,
        0.05,
        "counting #[global_allocator]: peak live bytes (10^6) of a repetition, build to window close; median",
    ),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: &'static str,
    source: &'static str,
) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        bound: 0.0,
        source,
    }
}

/// The per-layer metrics, printed with `--trace 1`. Counts are deltas
/// over the measured window unless the source says otherwise; `*_s`
/// phase names are the causal profiler's ten phases, summed over the
/// operations that began inside the window.
#[rustfmt::skip]
pub const PER_LAYER: &[Def] = &[
    // ---- sim: the executor -------------------------------------------
    layer("sim.events_retired", "count", Sim, "lower", "Sim::stats().events_retired()"),
    layer("sim.polls", "count", Sim, "lower", "Sim::stats().polls"),
    layer("sim.timer_fires", "count", Sim, "lower", "Sim::stats().timer_fires"),
    layer("sim.timer_cancels", "count", Sim, "lower", "Sim::stats().timer_cancels"),
    layer("sim.stale_wakes", "count", Sim, "lower", "Sim::stats().stale_wakes"),
    layer("sim.peak_live_tasks", "count", Sim, "lower", "Sim::stats().peak_live_tasks (whole repetition)"),
    layer("sim.peak_live_timers", "count", Sim, "lower", "Sim::stats().peak_live_timers (whole repetition)"),
    layer("sim.host_ns_per_event", "ns", Host, "lower", "host_run_ms / sim.events_retired"),
    layer("sim.kernel_poll_ns", "ns", Host, "lower", "kernel (scaled ns, like every kernel): spawn + yield + poll, per poll"),
    layer("sim.kernel_timer_ns", "ns", Host, "lower", "kernel: timer register + cancel + fire storm, per timer"),
    // ---- rpcnet: transport, endpoints, dup cache ---------------------
    layer("rpcnet.rpcs", "count", Sim, "lower", "OpCounter::snapshot().total(), summed over shards"),
    layer("rpcnet.rpcs_lookup", "count", Sim, "lower", "OpCounts::get(Lookup)"),
    layer("rpcnet.rpcs_getattr", "count", Sim, "lower", "OpCounts::get(GetAttr)"),
    layer("rpcnet.rpcs_read", "count", Sim, "lower", "OpCounts::get(Read)"),
    layer("rpcnet.rpcs_write", "count", Sim, "lower", "OpCounts::get(Write)"),
    layer("rpcnet.rpcs_open", "count", Sim, "lower", "OpCounts::get(Open)"),
    layer("rpcnet.rpcs_close", "count", Sim, "lower", "OpCounts::get(Close)"),
    layer("rpcnet.rpcs_callback", "count", Sim, "lower", "OpCounts::get(Callback)"),
    layer("rpcnet.rpcs_other", "count", Sim, "lower", "total minus the seven above (2PC peer traffic lands here)"),
    layer("rpcnet.net_bytes", "count", Sim, "lower", "Network::bytes()"),
    layer("rpcnet.wire_busy_share", "share", Sim, "lower", "Network::busy_micros() / makespan (lanes add up on a switched net)"),
    layer("rpcnet.rpc_mean_ms", "ms", Sim, "lower", "LatencyStats::total_mean() x total_count(), differenced over the window"),
    layer("rpcnet.dup_hits", "count", Sim, "lower", "Endpoint::dup_hits(), server and callback endpoints"),
    layer("rpcnet.dup_joins", "count", Sim, "lower", "Endpoint::dup_joins(), server and callback endpoints"),
    layer("rpcnet.dup_contention", "count", Sim, "lower", "Endpoint::dup_contention(), server and callback endpoints"),
    layer("rpcnet.batches", "count", Sim, "higher", "TransportStats::batch_sizes.count()"),
    layer("rpcnet.batched_calls", "count", Sim, "higher", "TransportStats::batch_sizes.sum()"),
    layer("rpcnet.saved_round_trips", "count", Sim, "higher", "TransportStats::saved.snapshot().total()"),
    layer("rpcnet.attr_elisions", "count", Sim, "higher", "ClientStats::attr_piggybacks / NfsClient::elided_probes()"),
    layer("rpcnet.wrong_shard_replies", "count", Sim, "lower", "ShardOpStats::wrong_shard_replies, summed over shards"),
    layer("rpcnet.busy_rejections", "count", Sim, "lower", "ShardOpStats::busy_rejections, summed over shards"),
    layer("rpcnet.client_queue_s", "s", Sim, "lower", "Profile phase client_queue"),
    layer("rpcnet.net_s", "s", Sim, "lower", "Profile phase net"),
    layer("rpcnet.admission_s", "s", Sim, "lower", "Profile phase admission"),
    layer("rpcnet.dup_cache_s", "s", Sim, "lower", "Profile phase dup_cache"),
    layer("rpcnet.kernel_rpc_ns", "ns", Host, "lower", "kernel: echo RPC through Network + Endpoint + Caller, per call"),
    // ---- blockdev: the server disks ----------------------------------
    layer("blockdev.disk_reads", "count", Sim, "lower", "Disk::stats().reads, summed over shards"),
    layer("blockdev.disk_requests", "count", Sim, "lower", "Disk::wait_ms().mark() count"),
    layer("blockdev.queue_peak", "count", Sim, "lower", "Disk::queue_depth().peak(), max over shards (whole repetition)"),
    layer("blockdev.wait_ms_mean", "ms", Sim, "lower", "Disk::wait_ms() sum / count over the window"),
    layer("blockdev.wait_ms_max", "ms", Sim, "lower", "Disk::wait_ms().max(), max over shards (whole repetition)"),
    layer("blockdev.pos_ms_mean", "ms", Sim, "lower", "Disk::pos_ms() sum / count over the window"),
    layer("blockdev.disk_queue_s", "s", Sim, "lower", "Profile phase disk_queue"),
    layer("blockdev.disk_service_s", "s", Sim, "lower", "Profile phase disk_service"),
    layer("blockdev.kernel_request_ns", "ns", Host, "lower", "kernel: Disk requests under C-LOOK at queue depth 32, per request"),
    // ---- localfs: block caches ---------------------------------------
    layer("localfs.srv_cache_hit_share", "share", Sim, "higher", "LocalFs::cache_stats() of the server file systems: hits / lookups"),
    layer("localfs.srv_cache_misses", "count", Sim, "lower", "LocalFs::cache_stats() misses, summed over shards"),
    layer("localfs.client_cache_hit_share", "share", Sim, "higher", "SnfsClient/NfsClient::cache_stats(): hits / lookups, all clients"),
    layer("localfs.client_dirty_blocks_end", "count", Sim, "lower", "SnfsClient::dirty_blocks() at window close, all clients"),
    layer("localfs.kernel_cache_get_ns", "ns", Host, "lower", "kernel: BlockCache::get hit (clones 4 KB), per get"),
    layer("localfs.kernel_cache_evict_ns", "ns", Host, "lower", "kernel: BlockCache::insert_clean with eviction at capacity, per insert"),
    // ---- core: SNFS client, server, state table, delegations, 2PC ----
    layer("core.server_cpu_s", "s", Sim, "lower", "Profile phase server_cpu"),
    layer("core.cache_local_s", "s", Sim, "lower", "Profile phase cache_local"),
    layer("core.callback_s", "s", Sim, "lower", "Profile phase callback"),
    layer("core.callbacks_sent", "count", Sim, "lower", "ServerStats::callbacks_sent, summed over shards"),
    layer("core.callbacks_failed", "count", Sim, "lower", "ServerStats::callbacks_failed"),
    layer("core.callback_peak", "count", Sim, "lower", "SnfsServer::callback_gauge().peak(), max over shards (whole repetition)"),
    layer("core.table_entries_end", "count", Sim, "lower", "SnfsServer::table_len() at window close, summed over shards"),
    layer("core.lock_contention", "count", Sim, "lower", "ShardOpStats::lock_contention"),
    layer("core.reclaim_passes", "count", Sim, "lower", "ServerStats::reclaim_passes"),
    layer("core.written_back_blocks", "count", Sim, "lower", "ClientStats::written_back_blocks, all clients"),
    layer("core.cancelled_blocks", "count", Sim, "higher", "ClientStats::cancelled_blocks, all clients"),
    layer("core.writeback_failures", "count", Sim, "lower", "ClientStats::writeback_failures"),
    layer("core.invalidations", "count", Sim, "lower", "ClientStats::invalidations"),
    layer("core.name_cache_hits", "count", Sim, "higher", "ClientStats::name_cache_hits"),
    layer("core.attr_piggybacks", "count", Sim, "higher", "ClientStats::attr_piggybacks"),
    layer("core.deleg_grants", "count", Sim, "higher", "DelegationStats::grants_read + grants_write, servers"),
    layer("core.deleg_local_opens", "count", Sim, "higher", "DelegationStats::local_opens, clients"),
    layer("core.deleg_recalls", "count", Sim, "lower", "DelegationStats::recalls, servers"),
    layer("core.deleg_revokes", "count", Sim, "lower", "DelegationStats::revokes, servers"),
    layer("core.cross_renames", "count", Sim, "lower", "ShardOpStats::cross_renames"),
    layer("core.cross_links", "count", Sim, "lower", "ShardOpStats::cross_links"),
    layer("core.stale_reads", "count", Sim, "lower", "benchmark oracle: reads older than the last write closed before their open returned"),
    layer("core.final_state_mismatches", "count", Sim, "lower", "benchmark oracle: LocalFs::stable_contents() vs the last closed write, after a 65 s drain"),
    layer("core.kernel_transition_ns", "ns", Host, "lower", "kernel: StateTable::open + close over 1000 files x 8 clients, per transition"),
    // ---- vfs: syscalls of the scripted workloads ---------------------
    layer("vfs.ops", "count", Sim, "lower", "TimedProc: logical syscalls issued"),
    layer("vfs.op_retries", "count", Sim, "lower", "TimedProc: attempts after a failed one"),
    layer("vfs.op_p50_ms", "ms", Sim, "lower", "TimedProc spans of the traced pass: median simulated latency"),
    layer("vfs.op_p99_ms", "ms", Sim, "lower", "TimedProc spans: 99th percentile"),
    layer("vfs.open_p99_ms", "ms", Sim, "lower", "TimedProc spans named open: 99th percentile"),
    // ---- workloads: the Andrew phases --------------------------------
    layer("workloads.andrew_makedir_s", "s", Sim, "lower", "Sim::now() around AndrewBenchmark::phase_makedir, mean over clients"),
    layer("workloads.andrew_copy_s", "s", Sim, "lower", "... phase_copy"),
    layer("workloads.andrew_scandir_s", "s", Sim, "lower", "... phase_scandir"),
    layer("workloads.andrew_readall_s", "s", Sim, "lower", "... phase_readall"),
    layer("workloads.andrew_make_s", "s", Sim, "lower", "... phase_make"),
    // ---- trace: the program's tracer, checker and profiler -----------
    layer("trace.events", "count", Sim, "lower", "Tracer::len() delta over the window"),
    layer("trace.overhead_share", "share", Host, "lower", "host_traced_run_ms / host_run_ms - 1"),
    layer("trace.record_ns_per_event", "ns", Host, "lower", "(traced window - untraced window) / trace.events"),
    layer("trace.check_ns_per_event", "ns", Host, "lower", "host clock around check_trace / Tracer::len()"),
    layer("trace.profile_ns_per_event", "ns", Host, "lower", "host clock around profile_trace / Tracer::len()"),
    layer("trace.attributed_share", "share", Sim, "higher", "Profile::attributed_fraction()"),
    layer("trace.unattributed_s", "s", Sim, "lower", "Profile phase unattributed"),
    layer("trace.violations", "count", Sim, "lower", "check_trace(..).len()"),
    layer("trace.kernel_emit_ns", "ns", Host, "lower", "kernel: Tracer::emit, per event"),
];

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// `Values` from literal pairs.
pub fn values<const N: usize>(pairs: [(&str, f64); N]) -> Values {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method):
/// `(q1, median, q3)`. One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        // Cut point i of 4 over n + 1 positions, clamped to the data.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

fn json_metric(out: &mut String, d: &Def, value: f64) {
    assert!(value.is_finite(), "{} is not finite", d.name);
    out.push_str(&format!(
        "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
        d.name, d.unit
    ));
}

/// The one-line JSON result the driver reads.
pub fn result_json(
    defs: &[Def],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = *values
            .get(d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        json_metric(&mut out, d, v);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert_eq!(PER_LAYER.len(), 94);
    }
}
