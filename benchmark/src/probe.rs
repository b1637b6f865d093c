//! Window-edge readings: every counter the per-layer metrics are built
//! from, read through public accessors of the testbed at the instant
//! the measured window opens and again when it closes. Nothing is added
//! inside the program.

use spritely::harness::{RemoteClient, Testbed};
use spritely::localfs::LocalFs;
use spritely::metrics::OpCounts;
use spritely::proto::NfsProc;
use spritely::snfs::SnfsServer;

use crate::metrics::{values, Values};

macro_rules! counters {
    ($($name:ident),* $(,)?) => {
        /// Cumulative counters; a window is the difference of two reads.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters { $(pub $name: u64),* }

        impl std::ops::Sub for Counters {
            type Output = Counters;
            fn sub(self, rhs: Counters) -> Counters {
                Counters { $($name: self.$name - rhs.$name),* }
            }
        }
    };
}

counters!(
    polls,
    timer_fires,
    timer_cancels,
    stale_wakes,
    rpcs,
    rpcs_lookup,
    rpcs_getattr,
    rpcs_read,
    rpcs_write,
    rpcs_open,
    rpcs_close,
    rpcs_callback,
    net_messages,
    net_bytes,
    wire_busy_us,
    rpc_latency_count,
    rpc_latency_sum_us,
    dup_hits,
    dup_joins,
    dup_contention,
    batches,
    batched_calls,
    saved_round_trips,
    attr_elisions,
    wrong_shard_replies,
    busy_rejections,
    lock_contention,
    cross_renames,
    cross_links,
    disk_reads,
    disk_writes,
    disk_requests,
    disk_wait_ms_sum,
    disk_pos_ms_sum,
    srv_cache_hits,
    srv_cache_misses,
    client_cache_hits,
    client_cache_misses,
    callbacks_sent,
    callbacks_failed,
    reclaim_passes,
    written_back_blocks,
    cancelled_blocks,
    writeback_failures,
    invalidations,
    name_cache_hits,
    attr_piggybacks,
    deleg_grants,
    deleg_local_opens,
    deleg_recalls,
    deleg_revokes,
);

/// Levels and high-water marks: read once, when the window closes. The
/// peaks have no reset in the program, so they cover the whole
/// repetition, set-up included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauges {
    pub peak_live_tasks: u64,
    pub peak_live_timers: u64,
    pub disk_queue_peak: u64,
    pub disk_wait_ms_max: u64,
    pub callback_peak: u64,
    pub table_entries: u64,
    pub client_dirty_blocks: u64,
}

/// The server file systems: one per shard, or the single server's.
pub fn server_filesystems(tb: &Testbed) -> Vec<LocalFs> {
    if tb.shard_hosts.is_empty() {
        vec![tb.server_fs.clone()]
    } else {
        tb.shard_hosts.iter().map(|sh| sh.fs.clone()).collect()
    }
}

fn snfs_servers(tb: &Testbed) -> Vec<SnfsServer> {
    if tb.shard_hosts.is_empty() {
        tb.snfs_server.iter().cloned().collect()
    } else {
        tb.shard_hosts.iter().map(|sh| sh.server.clone()).collect()
    }
}

fn op_counts(tb: &Testbed) -> Vec<OpCounts> {
    if tb.shard_hosts.is_empty() {
        vec![tb.counter.snapshot()]
    } else {
        tb.shard_hosts
            .iter()
            .map(|sh| sh.counter.snapshot())
            .collect()
    }
}

impl Counters {
    pub fn read(tb: &Testbed) -> Counters {
        let mut c = Counters::default();
        let sim = tb.sim.stats();
        c.polls = sim.polls;
        c.timer_fires = sim.timer_fires;
        c.timer_cancels = sim.timer_cancels;
        c.stale_wakes = sim.stale_wakes;
        for ops in op_counts(tb) {
            c.rpcs += ops.total();
            c.rpcs_lookup += ops.get(NfsProc::Lookup);
            c.rpcs_getattr += ops.get(NfsProc::GetAttr);
            c.rpcs_read += ops.get(NfsProc::Read);
            c.rpcs_write += ops.get(NfsProc::Write);
            c.rpcs_open += ops.get(NfsProc::Open);
            c.rpcs_close += ops.get(NfsProc::Close);
            c.rpcs_callback += ops.get(NfsProc::Callback);
        }
        c.net_messages = tb.net.messages();
        c.net_bytes = tb.net.bytes();
        c.wire_busy_us = tb.net.busy_micros() as u64;
        c.rpc_latency_count = tb.latency.total_count();
        // The recorder exposes a truncated mean, not its sum: the
        // product is off by less than one microsecond per call.
        c.rpc_latency_sum_us = tb.latency.total_mean().as_micros() * c.rpc_latency_count;
        let mut dup = |hits: u64, joins: u64, contention: u64| {
            c.dup_hits += hits;
            c.dup_joins += joins;
            c.dup_contention += contention;
        };
        if tb.shard_hosts.is_empty() {
            if let Some(ep) = &tb.endpoint {
                dup(ep.dup_hits(), ep.dup_joins(), ep.dup_contention());
            }
        }
        for sh in &tb.shard_hosts {
            let ep = &sh.endpoint;
            dup(ep.dup_hits(), ep.dup_joins(), ep.dup_contention());
        }
        for ep in &tb.cb_endpoints {
            dup(ep.dup_hits(), ep.dup_joins(), ep.dup_contention());
        }
        let (batches, batched_calls) = tb.transport_stats.batch_sizes.mark();
        c.batches = batches;
        c.batched_calls = batched_calls;
        c.saved_round_trips = tb.transport_stats.saved.snapshot().total();
        for srv in snfs_servers(tb) {
            let s = srv.stats();
            c.callbacks_sent += s.callbacks_sent;
            c.callbacks_failed += s.callbacks_failed;
            c.reclaim_passes += s.reclaim_passes;
            let sh = srv.shard_stats();
            c.wrong_shard_replies += sh.wrong_shard_replies;
            c.busy_rejections += sh.busy_rejections;
            c.lock_contention += sh.lock_contention;
            c.cross_renames += sh.cross_renames;
            c.cross_links += sh.cross_links;
            let d = srv.delegation_stats();
            c.deleg_grants += d.grants_read + d.grants_write;
            c.deleg_recalls += d.recalls;
            c.deleg_revokes += d.revokes;
        }
        for fs in server_filesystems(tb) {
            let disk = fs.disk();
            let ds = disk.stats();
            c.disk_reads += ds.reads;
            c.disk_writes += ds.writes;
            let (n, wait_sum) = disk.wait_ms().mark();
            c.disk_requests += n;
            c.disk_wait_ms_sum += wait_sum;
            c.disk_pos_ms_sum += disk.pos_ms().mark().1;
            let (hits, misses) = fs.cache_stats();
            c.srv_cache_hits += hits;
            c.srv_cache_misses += misses;
        }
        for host in &tb.clients {
            let (hits, misses) = match &host.remote {
                RemoteClient::None => (0, 0),
                RemoteClient::Nfs(n) => {
                    c.attr_elisions += n.elided_probes();
                    n.cache_stats()
                }
                RemoteClient::Snfs(s) => {
                    let st = s.stats();
                    c.written_back_blocks += st.written_back_blocks;
                    c.cancelled_blocks += st.cancelled_blocks;
                    c.writeback_failures += st.writeback_failures;
                    c.invalidations += st.invalidations;
                    c.name_cache_hits += st.name_cache_hits;
                    c.attr_piggybacks += st.attr_piggybacks;
                    c.attr_elisions += st.attr_piggybacks;
                    c.deleg_local_opens += s.delegation_stats().local_opens;
                    s.cache_stats()
                }
            };
            c.client_cache_hits += hits;
            c.client_cache_misses += misses;
        }
        c
    }
}

impl Gauges {
    pub fn read(tb: &Testbed) -> Gauges {
        let sim = tb.sim.stats();
        let mut g = Gauges {
            peak_live_tasks: sim.peak_live_tasks,
            peak_live_timers: sim.peak_live_timers,
            ..Gauges::default()
        };
        for fs in server_filesystems(tb) {
            let disk = fs.disk();
            g.disk_queue_peak = g.disk_queue_peak.max(disk.queue_depth().peak());
            g.disk_wait_ms_max = g.disk_wait_ms_max.max(disk.wait_ms().max());
        }
        for srv in snfs_servers(tb) {
            g.callback_peak = g.callback_peak.max(srv.callback_gauge().peak());
            g.table_entries += srv.table_len() as u64;
        }
        for host in &tb.clients {
            if let RemoteClient::Snfs(s) = &host.remote {
                g.client_dirty_blocks += s.dirty_blocks() as u64;
            }
        }
        g
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The simulated-clock per-layer metrics that come straight from the
/// counters: `d` is the window's delta, `g` the levels at its close.
pub fn layer_values(d: &Counters, g: &Gauges, makespan_us: u64) -> Values {
    let named = d.rpcs_lookup
        + d.rpcs_getattr
        + d.rpcs_read
        + d.rpcs_write
        + d.rpcs_open
        + d.rpcs_close
        + d.rpcs_callback;
    let n = |v: u64| v as f64;
    values([
        ("sim.events_retired", n(d.polls + d.timer_fires)),
        ("sim.polls", n(d.polls)),
        ("sim.timer_fires", n(d.timer_fires)),
        ("sim.timer_cancels", n(d.timer_cancels)),
        ("sim.stale_wakes", n(d.stale_wakes)),
        ("sim.peak_live_tasks", n(g.peak_live_tasks)),
        ("sim.peak_live_timers", n(g.peak_live_timers)),
        ("rpcnet.rpcs", n(d.rpcs)),
        ("rpcnet.rpcs_lookup", n(d.rpcs_lookup)),
        ("rpcnet.rpcs_getattr", n(d.rpcs_getattr)),
        ("rpcnet.rpcs_read", n(d.rpcs_read)),
        ("rpcnet.rpcs_write", n(d.rpcs_write)),
        ("rpcnet.rpcs_open", n(d.rpcs_open)),
        ("rpcnet.rpcs_close", n(d.rpcs_close)),
        ("rpcnet.rpcs_callback", n(d.rpcs_callback)),
        ("rpcnet.rpcs_other", n(d.rpcs - named)),
        ("rpcnet.net_bytes", n(d.net_bytes)),
        ("rpcnet.wire_busy_share", share(d.wire_busy_us, makespan_us)),
        (
            "rpcnet.rpc_mean_ms",
            share(d.rpc_latency_sum_us, d.rpc_latency_count) / 1e3,
        ),
        ("rpcnet.dup_hits", n(d.dup_hits)),
        ("rpcnet.dup_joins", n(d.dup_joins)),
        ("rpcnet.dup_contention", n(d.dup_contention)),
        ("rpcnet.batches", n(d.batches)),
        ("rpcnet.batched_calls", n(d.batched_calls)),
        ("rpcnet.saved_round_trips", n(d.saved_round_trips)),
        ("rpcnet.attr_elisions", n(d.attr_elisions)),
        ("rpcnet.wrong_shard_replies", n(d.wrong_shard_replies)),
        ("rpcnet.busy_rejections", n(d.busy_rejections)),
        ("blockdev.disk_reads", n(d.disk_reads)),
        ("blockdev.disk_requests", n(d.disk_requests)),
        ("blockdev.queue_peak", n(g.disk_queue_peak)),
        (
            "blockdev.wait_ms_mean",
            share(d.disk_wait_ms_sum, d.disk_requests),
        ),
        ("blockdev.wait_ms_max", n(g.disk_wait_ms_max)),
        (
            "blockdev.pos_ms_mean",
            share(d.disk_pos_ms_sum, d.disk_requests),
        ),
        (
            "localfs.srv_cache_hit_share",
            share(d.srv_cache_hits, d.srv_cache_hits + d.srv_cache_misses),
        ),
        ("localfs.srv_cache_misses", n(d.srv_cache_misses)),
        (
            "localfs.client_cache_hit_share",
            share(
                d.client_cache_hits,
                d.client_cache_hits + d.client_cache_misses,
            ),
        ),
        ("localfs.client_dirty_blocks_end", n(g.client_dirty_blocks)),
        ("core.callbacks_sent", n(d.callbacks_sent)),
        ("core.callbacks_failed", n(d.callbacks_failed)),
        ("core.callback_peak", n(g.callback_peak)),
        ("core.table_entries_end", n(g.table_entries)),
        ("core.lock_contention", n(d.lock_contention)),
        ("core.reclaim_passes", n(d.reclaim_passes)),
        ("core.written_back_blocks", n(d.written_back_blocks)),
        ("core.cancelled_blocks", n(d.cancelled_blocks)),
        ("core.writeback_failures", n(d.writeback_failures)),
        ("core.invalidations", n(d.invalidations)),
        ("core.name_cache_hits", n(d.name_cache_hits)),
        ("core.attr_piggybacks", n(d.attr_piggybacks)),
        ("core.deleg_grants", n(d.deleg_grants)),
        ("core.deleg_local_opens", n(d.deleg_local_opens)),
        ("core.deleg_recalls", n(d.deleg_recalls)),
        ("core.deleg_revokes", n(d.deleg_revokes)),
        ("core.cross_renames", n(d.cross_renames)),
        ("core.cross_links", n(d.cross_links)),
    ])
}
