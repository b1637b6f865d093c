//! Serializable end-of-run observability artifacts: a unified
//! client/server statistics snapshot (JSON) and the checked event trace.
//!
//! The paper reports its results as tables distilled from counters the
//! kernels kept (§5); this module is the simulation's equivalent of
//! dumping those counters at the end of a run, in a form other tools
//! can consume.

use std::rc::Rc;

use spritely_core::{ClientStats, DelegationStats, ServerStats};
use spritely_metrics::json::Writer;
use spritely_sim::SimStats;
use spritely_trace::{check_trace, to_chrome_json, to_jsonl, TraceEvent, Violation};

/// One client host's counters at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSnapshot {
    /// Client id (1-based, as on the wire).
    pub id: u32,
    /// Data-cache hits.
    pub cache_hits: u64,
    /// Data-cache misses.
    pub cache_misses: u64,
    /// Dirty blocks still awaiting write-back when the snapshot was taken.
    pub dirty_blocks: u64,
    /// SNFS-specific counters (None for a plain-NFS client).
    pub snfs: Option<ClientStats>,
}

/// Server I/O pipeline counters: the exported file system's block cache
/// and the disk queue behind it (present for every protocol — plain NFS
/// exercises the same server disk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerIoSnapshot {
    /// Server block-cache hits on the read path.
    pub cache_hits: u64,
    /// Server block-cache misses on the read path.
    pub cache_misses: u64,
    /// Completed disk reads.
    pub disk_reads: u64,
    /// Completed disk writes.
    pub disk_writes: u64,
    /// Peak disk-queue depth (queued + in service).
    pub disk_queue_peak: u64,
    /// Requests that went through the disk queue.
    pub disk_requests: u64,
    /// Total queue wait across requests, in milliseconds.
    pub disk_wait_ms_sum: u64,
    /// Worst single-request queue wait, in milliseconds.
    pub disk_wait_ms_max: u64,
    /// Total arm positioning time across requests, in milliseconds.
    pub disk_pos_ms_sum: u64,
}

/// Transport-pipeline counters: wire traffic, batching, and piggyback
/// consumption. On the paper transport everything except the raw
/// message/byte counters is zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Messages put on the wire (requests + replies; a compound batch is
    /// one message).
    pub net_messages: u64,
    /// Bytes put on the wire.
    pub net_bytes: u64,
    /// Total medium busy time, in milliseconds (aggregated across lanes
    /// on a switched network).
    pub wire_busy_ms: u64,
    /// Compound batches flushed.
    pub batches: u64,
    /// Requests that travelled inside those batches.
    pub batched_calls: u64,
    /// Largest batch flushed.
    pub max_batch: u64,
    /// Round trips saved by batching (requests after the first in each
    /// batch).
    pub saved_round_trips: u64,
    /// `getattr` round trips elided by piggybacked post-op attributes
    /// (NFS open probes + SNFS write-shared stats).
    pub attr_elisions: u64,
    /// Round trips saved by batching, broken down by procedure.
    pub saved_per_proc: spritely_metrics::OpCounts,
}

/// Fault-injection accounting (present only when the run configured the
/// fault layer — a fault-free run's snapshot is byte-identical to one
/// taken before the layer existed). The conservation law
/// `killed_attempts == retransmit_absorbed + outstanding_kills` must
/// hold at the end of any quiescent run, and `outstanding_kills == 0`
/// means every injected fault was ridden out by a retransmission.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// What the network's fault layer injected, and where each killed
    /// attempt went.
    pub net: spritely_rpcnet::FaultCounts,
    /// Retransmits answered from the server's duplicate-request cache
    /// (completed executions replayed, not re-run).
    pub dup_cache_hits: u64,
    /// Retransmits that joined a still-executing first attempt.
    pub dup_cache_joins: u64,
    /// Callback attempts the server retried instead of declaring the
    /// client crashed.
    pub callback_retries: u64,
    /// Duplicated callback deliveries absorbed by the clients' sequence
    /// guards (summed across clients).
    pub callback_dupes: u64,
}

/// Compact summary of a trace-replay latency profile (DESIGN.md §16):
/// span/claim counts and the run-wide phase breakdown. Present only
/// when the run was traced — an unprofiled snapshot serializes
/// byte-identically to one taken before the profiler existed. The full
/// per-op-kind and occupancy detail lives in
/// [`spritely_trace::Profile::to_json`] (`artifacts/profile_*.json`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Reconstructed spans (client-visible ops + synthetic spans).
    pub spans: u64,
    /// `rpc_call` events in the trace.
    pub rpcs: u64,
    /// RPCs claimed by a client op span.
    pub claimed_op: u64,
    /// Server-originated callback RPCs claimed inside handlers.
    pub claimed_callback: u64,
    /// Background RPCs (each its own synthetic span).
    pub claimed_background: u64,
    /// RPCs with no reply in the trace.
    pub claimed_incomplete: u64,
    /// Sum of span wall-clock latencies, µs.
    pub total_op_us: u64,
    /// Portion of `total_op_us` attributed to named phases, µs.
    pub attributed_us: u64,
    /// `(phase name, attributed µs)` in `Phase::ALL` order.
    pub phase_us: Vec<(&'static str, u64)>,
}

impl From<&spritely_trace::Profile> for ProfileSnapshot {
    fn from(p: &spritely_trace::Profile) -> Self {
        ProfileSnapshot {
            spans: p.ops.len() as u64,
            rpcs: p.total_rpcs,
            claimed_op: p.claims.op,
            claimed_callback: p.claims.callback,
            claimed_background: p.claims.background,
            claimed_incomplete: p.claims.incomplete,
            total_op_us: p.total_us,
            attributed_us: p.total_us - p.phase_total(spritely_trace::Phase::Unattributed),
            phase_us: spritely_trace::Phase::ALL
                .iter()
                .map(|&ph| (ph.name(), p.phase_total(ph)))
                .collect(),
        }
    }
}

/// Delegation-subsystem accounting (present only when the run enabled
/// delegations — a paper-mode snapshot serializes byte-identically to
/// one taken before the subsystem existed). Server-side counters
/// (grants, recalls, returns, revokes, recall latency) come from the
/// SNFS server; the local fast-path counters are summed across clients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelegationSnapshot {
    /// Merged counters: server grant/recall/return/revoke side plus the
    /// clients' local_opens/local_closes.
    pub stats: DelegationStats,
    /// Delegations still held by clients at snapshot time.
    pub held: u64,
}

/// One shard's slice of a sharded run (DESIGN.md §18): its endpoint
/// traffic, duplicate-request cache, state-table occupancy, and the
/// cross-shard coordination counters its server kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index (0-based; shard `s` exports `fsid = s + 1`).
    pub shard: u32,
    /// RPCs this shard's endpoint served (shard 0 also counts the
    /// per-client callback deliveries, mirroring the unsharded counter).
    pub rpcs: u64,
    /// Retransmits replayed from this shard's duplicate-request cache.
    pub dup_hits: u64,
    /// State-table entries at snapshot time.
    pub table_entries: u64,
    /// Cross-shard renames this shard coordinated.
    pub cross_renames: u64,
    /// Cross-shard links this shard coordinated.
    pub cross_links: u64,
    /// `WrongShard` redirects served to stale-layout clients.
    pub wrong_shard_replies: u64,
    /// `Busy` rejections while a name was locked by a transaction.
    pub busy_rejections: u64,
    /// Per-file lock acquisitions that queued behind another holder.
    pub lock_contention: u64,
    /// Duplicate-cache bucket collisions: fresh arrivals that found
    /// another execution in flight on their hash bucket — what a
    /// per-bucket lock would have serialized.
    pub dup_contention: u64,
}

/// Sharded-namespace accounting (present only when the run sharded the
/// export — a single-server snapshot serializes byte-identically to one
/// taken before sharding existed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardsSnapshot {
    /// Number of shards.
    pub n: u64,
    /// Largest per-client peak data-cache footprint, in KiB. Client
    /// caches allocate lazily, so hundreds of idle clients keep this
    /// near zero regardless of configured capacity.
    pub peak_client_kb: u64,
    /// Per-shard counters, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

/// The server's counters at the end of a run (SNFS protocols only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Callback statistics.
    pub stats: ServerStats,
    /// Peak concurrent callbacks (must stay ≤ N−1, §3.2).
    pub callback_peak: u64,
    /// State-table entries at snapshot time.
    pub table_entries: u64,
}

/// Unified, serializable view of every statistics structure a run
/// produces.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Protocol label ("SNFS", "NFS", ...).
    pub protocol: String,
    /// Total RPCs the server endpoint served.
    pub rpc_total: u64,
    /// Per-client counters, in client-id order.
    pub clients: Vec<ClientSnapshot>,
    /// Server counters (SNFS only).
    pub server: Option<ServerSnapshot>,
    /// Server-side cache and disk-queue counters (all protocols).
    pub server_io: ServerIoSnapshot,
    /// Transport-pipeline counters (all protocols).
    pub transport: TransportSnapshot,
    /// Executor counters (all protocols): what the discrete-event
    /// scheduler itself did. The `peak_*` fields are a memory-footprint
    /// proxy.
    pub sim: SimStats,
    /// Fault-injection accounting (None unless faults were configured;
    /// a fault-free snapshot serializes without this field).
    pub faults: Option<FaultSnapshot>,
    /// Latency-profile summary (None unless the run was traced; an
    /// unprofiled snapshot serializes without this field).
    pub profile: Option<ProfileSnapshot>,
    /// Delegation accounting (None unless delegations were enabled; a
    /// paper-mode snapshot serializes without this field).
    pub delegation: Option<DelegationSnapshot>,
    /// Sharded-namespace accounting (None unless the export was sharded;
    /// a single-server snapshot serializes without this field).
    pub shards: Option<ShardsSnapshot>,
}

impl StatsSnapshot {
    /// Serializes the snapshot as a single JSON object with stable field
    /// order (byte-identical across identical runs).
    pub fn to_json(&self) -> String {
        let mut w = Writer::default();
        w.obj(|w| {
            w.key("protocol").str(&self.protocol);
            w.key("rpc_total").num(self.rpc_total);
            w.key("clients").arr(|w| {
                for c in &self.clients {
                    w.obj(|w| client_json(w, c));
                }
            });
            w.key("server");
            match &self.server {
                None => w.raw("null"),
                Some(s) => w.obj(|w| {
                    w.nums(&[
                        ("callbacks_sent", s.stats.callbacks_sent),
                        ("callbacks_failed", s.stats.callbacks_failed),
                        ("reclaim_passes", s.stats.reclaim_passes),
                        ("callback_peak", s.callback_peak),
                        ("table_entries", s.table_entries),
                    ]);
                }),
            };
            let io = &self.server_io;
            w.key("server_io").obj(|w| {
                w.nums(&[
                    ("cache_hits", io.cache_hits),
                    ("cache_misses", io.cache_misses),
                    ("disk_reads", io.disk_reads),
                    ("disk_writes", io.disk_writes),
                    ("disk_queue_peak", io.disk_queue_peak),
                    ("disk_requests", io.disk_requests),
                    ("disk_wait_ms_sum", io.disk_wait_ms_sum),
                    ("disk_wait_ms_max", io.disk_wait_ms_max),
                    ("disk_pos_ms_sum", io.disk_pos_ms_sum),
                ]);
            });
            let t = &self.transport;
            w.key("transport").obj(|w| {
                w.nums(&[
                    ("net_messages", t.net_messages),
                    ("net_bytes", t.net_bytes),
                    ("wire_busy_ms", t.wire_busy_ms),
                    ("batches", t.batches),
                    ("batched_calls", t.batched_calls),
                    ("max_batch", t.max_batch),
                    ("saved_round_trips", t.saved_round_trips),
                    ("attr_elisions", t.attr_elisions),
                ]);
                w.key("saved_per_proc").obj(|w| {
                    for (p, n) in t.saved_per_proc.nonzero() {
                        w.key(p.name()).num(n);
                    }
                });
            });
            // `tasks_completed` is the one executor counter left out: it
            // was never part of the committed format.
            let s = &self.sim;
            w.key("sim").obj(|w| {
                w.nums(&[
                    ("events_retired", s.events_retired()),
                    ("polls", s.polls),
                    ("tasks_spawned", s.tasks_spawned),
                    ("stale_wakes", s.stale_wakes),
                    ("timers_registered", s.timers_registered),
                    ("timer_fires", s.timer_fires),
                    ("timer_cancels", s.timer_cancels),
                    ("clock_advances", s.clock_advances),
                    ("peak_ready_depth", s.peak_ready_depth),
                    ("peak_live_tasks", s.peak_live_tasks),
                    ("peak_live_timers", s.peak_live_timers),
                ]);
            });
            if let Some(f) = &self.faults {
                w.key("faults").obj(|w| {
                    w.nums(&[
                        ("drops", f.net.drops),
                        ("dups", f.net.dups),
                        ("delays", f.net.delays),
                        ("reply_losses", f.net.reply_losses),
                        ("partition_drops", f.net.partition_drops),
                        ("killed_attempts", f.net.killed_attempts),
                        ("retransmit_absorbed", f.net.retransmit_absorbed),
                        ("outstanding_kills", f.net.outstanding_kills),
                        ("dup_cache_hits", f.dup_cache_hits),
                        ("dup_cache_joins", f.dup_cache_joins),
                        ("callback_retries", f.callback_retries),
                        ("callback_dupes", f.callback_dupes),
                    ]);
                });
            }
            if let Some(p) = &self.profile {
                w.key("profile").obj(|w| {
                    w.nums(&[("spans", p.spans), ("rpcs", p.rpcs)]);
                    w.key("claimed").obj(|w| {
                        w.nums(&[
                            ("op", p.claimed_op),
                            ("callback", p.claimed_callback),
                            ("background", p.claimed_background),
                            ("incomplete", p.claimed_incomplete),
                        ]);
                    });
                    w.nums(&[
                        ("total_op_us", p.total_op_us),
                        ("attributed_us", p.attributed_us),
                    ]);
                    w.key("phase_us").obj(|w| {
                        w.nums(&p.phase_us);
                    });
                });
            }
            if let Some(d) = &self.delegation {
                let s = &d.stats;
                w.key("delegation").obj(|w| {
                    w.nums(&[
                        ("grants_read", s.grants_read),
                        ("grants_write", s.grants_write),
                        ("local_opens", s.local_opens),
                        ("local_closes", s.local_closes),
                        ("recalls", s.recalls),
                        ("returns", s.returns),
                        ("revokes", s.revokes),
                        ("held", d.held),
                    ]);
                    w.key("recall_latency_buckets").arr(|w| {
                        for n in s.recall_latency.buckets {
                            w.num(n);
                        }
                    });
                });
            }
            if let Some(sh) = &self.shards {
                w.key("shards").obj(|w| {
                    w.nums(&[("n", sh.n), ("peak_client_kb", sh.peak_client_kb)]);
                    w.key("per_shard").arr(|w| {
                        for s in &sh.shards {
                            w.obj(|w| shard_json(w, s));
                        }
                    });
                });
            }
        });
        w.out
    }
}

fn client_json(w: &mut Writer, c: &ClientSnapshot) {
    w.nums(&[
        ("id", c.id.into()),
        ("cache_hits", c.cache_hits),
        ("cache_misses", c.cache_misses),
        ("dirty_blocks", c.dirty_blocks),
    ]);
    if let Some(s) = &c.snfs {
        w.nums(&[
            ("cancelled_blocks", s.cancelled_blocks),
            ("written_back_blocks", s.written_back_blocks),
            ("callbacks_served", s.callbacks_served),
            ("invalidations", s.invalidations),
            ("local_reopens", s.local_reopens),
            ("recoveries", s.recoveries),
            ("name_cache_hits", s.name_cache_hits),
            ("writeback_failures", s.writeback_failures),
            ("attr_piggybacks", s.attr_piggybacks),
        ]);
    }
}

fn shard_json(w: &mut Writer, s: &ShardSnapshot) {
    w.nums(&[
        ("shard", s.shard.into()),
        ("rpcs", s.rpcs),
        ("dup_hits", s.dup_hits),
        ("table_entries", s.table_entries),
        ("cross_renames", s.cross_renames),
        ("cross_links", s.cross_links),
        ("wrong_shard_replies", s.wrong_shard_replies),
        ("busy_rejections", s.busy_rejections),
        ("lock_contention", s.lock_contention),
        ("dup_contention", s.dup_contention),
    ]);
}

/// A finished, checked trace: the event log plus every invariant
/// violation the offline checker found (empty on a correct run).
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The recorded events, in emission (= causal) order: the tracer's
    /// snapshot, shared and never copied (`to_vec()` it to forge one).
    pub events: Rc<Vec<TraceEvent>>,
    /// Invariant violations found by [`spritely_trace::check_trace`].
    pub violations: Vec<Violation>,
}

impl TraceReport {
    /// Runs the invariant checker over a `Tracer::finish` snapshot (or a
    /// hand-built `Vec`) and keeps both.
    pub fn from_events(events: impl Into<Rc<Vec<TraceEvent>>>) -> Self {
        let events = events.into();
        let violations = check_trace(&events);
        TraceReport { events, violations }
    }

    /// True when the checker found nothing wrong.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The trace as JSON-lines (byte-stable across identical runs).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.events)
    }

    /// FNV-1a digest of [`to_jsonl`](Self::to_jsonl): pins every event,
    /// field and the order they were emitted in.
    pub fn fnv(&self) -> u64 {
        let mut h = spritely_proto::Fnv::EMPTY;
        h.write(self.to_jsonl().as_bytes());
        h.0
    }

    /// The trace as a Chrome `trace_event` JSON document
    /// (load in Perfetto / `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        to_chrome_json(&self.events)
    }
}
