//! Serializable end-of-run observability artifacts: the statistics
//! document (JSON) and the checked event trace.
//!
//! The paper reports its results as tables distilled from counters the
//! kernels kept (§5); [`Testbed::stats_snapshot`] is the simulation's
//! equivalent of dumping those counters at the end of a run. It writes
//! each counter once, straight from the accessor of the layer that keeps
//! it, and the document it writes is the only statement of the format
//! (DESIGN.md §26 lists every key): a reader takes a number by the dotted
//! path [`crate::compare::flatten`] gives it.

use std::rc::Rc;

use spritely_core::{DelegationStats, RecallHistogram};
use spritely_metrics::json::{self, Writer};
use spritely_proto::BLOCK_SIZE;
use spritely_trace::{
    check_trace, profile_trace, to_chrome_json, to_jsonl, Phase, TraceEvent, Violation,
};

use crate::compare::{flatten, Leaf};
use crate::testbed::{RemoteClient, Testbed};

/// The end-of-run statistics document: the JSON
/// [`Testbed::stats_snapshot`] wrote, and its leaves by dotted path —
/// `transport.net_messages`, `clients.1.cache_hits` (rows by client id),
/// `shards.per_shard.0.cross_renames` (rows by position).
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    json: String,
    leaves: Vec<(String, Leaf)>,
}

impl StatsSnapshot {
    /// The document `json`, which must parse.
    pub(crate) fn from_json(json: String) -> Self {
        let doc = json::parse(&json).unwrap_or_else(|e| panic!("stats document: {e}"));
        StatsSnapshot {
            leaves: flatten(&doc),
            json,
        }
    }

    /// The document as written: one JSON object with a stable key order,
    /// byte-identical across identical runs.
    pub fn to_json(&self) -> String {
        self.json.clone()
    }

    /// The number at `path`, or `None` when the document has none there
    /// (a section the run did not configure, a row it does not have).
    /// Counters read back exactly: every one is below 2^53.
    pub fn get(&self, path: &str) -> Option<u64> {
        match self.leaves.iter().find(|(k, _)| k == path)? {
            (_, Leaf::Num(n)) => Some(*n as u64),
            (_, Leaf::Str(_)) => None,
        }
    }

    /// The number at `path`; panics naming the path when there is none.
    pub fn num(&self, path: &str) -> u64 {
        self.get(path)
            .unwrap_or_else(|| panic!("the stats document has no number at {path}"))
    }
}

impl Testbed {
    /// The statistics document of every host (DESIGN.md §26). Counters
    /// sum across servers and clients and peaks take the maximum; a
    /// section whose layer the run did not configure (`faults`,
    /// `profile`, `delegation`, `shards`) is left out, so a run without
    /// it writes the bytes it wrote before the layer existed.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let remotes = || self.clients.iter().map(|host| &host.remote);
        let clients = || remotes().filter_map(RemoteClient::snfs);
        let servers = || self.servers.iter().filter_map(|h| h.server.as_ref());
        let disks = || self.servers.iter().map(|h| h.fs.disk());
        let caches = || self.servers.iter().map(|h| h.fs.cache_stats());
        let mut w = Writer::default();
        w.obj(|w| {
            w.key("protocol").str(self.params.protocol.label());
            let rpcs = sum(self.servers.iter(), |h| h.counter.snapshot().total());
            w.key("rpc_total").num(rpcs);
            w.key("clients").arr(|w| {
                for (id, remote) in (1u64..).zip(remotes()) {
                    let ((hits, misses), dirty, snfs) = match remote {
                        RemoteClient::None => continue,
                        RemoteClient::Nfs(c) => (c.cache_stats(), 0, None),
                        RemoteClient::Snfs(c) => {
                            (c.cache_stats(), c.dirty_blocks() as u64, Some(c.stats()))
                        }
                    };
                    w.obj(|w| {
                        w.nums(&[
                            ("id", id),
                            ("cache_hits", hits),
                            ("cache_misses", misses),
                            ("dirty_blocks", dirty),
                        ]);
                        if let Some(s) = snfs {
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
                    });
                }
            });
            w.key("server");
            if self.snfs_server.is_none() {
                w.raw("null");
            } else {
                let stats = || servers().map(|s| s.stats());
                w.obj(|w| {
                    w.nums(&[
                        ("callbacks_sent", sum(stats(), |s| s.callbacks_sent)),
                        ("callbacks_failed", sum(stats(), |s| s.callbacks_failed)),
                        ("reclaim_passes", sum(stats(), |s| s.reclaim_passes)),
                        (
                            "callback_peak",
                            max(servers(), |s| s.callback_gauge().peak()),
                        ),
                        ("table_entries", sum(servers(), |s| s.table_len() as u64)),
                    ]);
                });
            }
            w.key("server_io").obj(|w| {
                w.nums(&[
                    ("cache_hits", sum(caches(), |c| c.0)),
                    ("cache_misses", sum(caches(), |c| c.1)),
                    ("disk_reads", sum(disks(), |d| d.stats().reads)),
                    ("disk_writes", sum(disks(), |d| d.stats().writes)),
                    ("disk_queue_peak", max(disks(), |d| d.queue_depth().peak())),
                    ("disk_requests", sum(disks(), |d| d.wait_ms().count())),
                    ("disk_wait_ms_sum", sum(disks(), |d| d.wait_ms().sum())),
                    ("disk_wait_ms_max", max(disks(), |d| d.wait_ms().max())),
                    ("disk_pos_ms_sum", sum(disks(), |d| d.pos_ms().sum())),
                ]);
            });
            let (net, ts) = (&self.net, &self.transport_stats);
            let saved = ts.saved.snapshot();
            let elided = sum(remotes(), |remote| match remote {
                RemoteClient::None => 0,
                RemoteClient::Nfs(c) => c.elided_probes(),
                RemoteClient::Snfs(c) => c.stats().attr_piggybacks,
            });
            w.key("transport").obj(|w| {
                w.nums(&[
                    ("net_messages", net.messages()),
                    ("net_bytes", net.bytes()),
                    ("wire_busy_ms", (net.busy_micros() / 1000) as u64),
                    ("batches", ts.batch_sizes.count()),
                    ("batched_calls", ts.batch_sizes.sum()),
                    ("max_batch", ts.batch_sizes.max()),
                    ("saved_round_trips", saved.total()),
                    ("attr_elisions", elided),
                ]);
                w.key("saved_per_proc").obj(|w| {
                    for (p, n) in saved.nonzero() {
                        w.key(p.name()).num(n);
                    }
                });
            });
            // `tasks_completed` is the one executor counter left out: it
            // was never part of the committed format.
            let s = self.sim.stats();
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
            if net.faults_active() {
                let f = net.fault_stats().get();
                // Retransmitted callbacks (write-back, invalidate, recall)
                // are replayed from the clients' endpoint caches: they
                // count beside the servers'.
                let eps = || self.servers.iter().filter_map(|h| h.endpoint.as_ref());
                let cb_eps = || self.cb_endpoints.iter();
                let hits = sum(eps(), |e| e.dup_hits()) + sum(cb_eps(), |e| e.dup_hits());
                let joins = sum(eps(), |e| e.dup_joins()) + sum(cb_eps(), |e| e.dup_joins());
                w.key("faults").obj(|w| {
                    w.nums(&[
                        ("drops", f.drops),
                        ("dups", f.dups),
                        ("delays", f.delays),
                        ("reply_losses", f.reply_losses),
                        ("partition_drops", f.partition_drops),
                        ("killed_attempts", f.killed_attempts),
                        ("retransmit_absorbed", f.retransmit_absorbed),
                        ("outstanding_kills", f.outstanding_kills),
                        ("dup_cache_hits", hits),
                        ("dup_cache_joins", joins),
                        ("callback_retries", sum(servers(), |s| s.callback_retries())),
                        ("callback_dupes", sum(clients(), |c| c.callback_dupes())),
                    ]);
                });
            }
            // The profile's summary; `artifacts/profile_*.json` has the
            // per-op-kind and occupancy detail.
            if let Some(t) = &self.tracer {
                let p = profile_trace(&t.finish());
                w.key("profile").obj(|w| {
                    w.nums(&[("spans", p.ops.len() as u64), ("rpcs", p.total_rpcs)]);
                    w.key("claimed").obj(|w| {
                        w.nums(&[
                            ("op", p.claims.op),
                            ("callback", p.claims.callback),
                            ("background", p.claims.background),
                            ("incomplete", p.claims.incomplete),
                        ]);
                    });
                    let unattributed = p.phase_total(Phase::Unattributed);
                    w.nums(&[
                        ("total_op_us", p.total_us),
                        ("attributed_us", p.total_us - unattributed),
                    ]);
                    w.key("phase_us").obj(|w| {
                        for ph in Phase::ALL {
                            w.key(ph.name()).num(p.phase_total(ph));
                        }
                    });
                });
            }
            // The servers keep the grant/recall/return/revoke half and
            // the recall latencies, the clients the local opens and
            // closes: summing both sides sums each counter's one keeper.
            if self.params.delegation.enabled {
                let d: Vec<DelegationStats> = (servers().map(|s| s.delegation_stats()))
                    .chain(clients().map(|c| c.delegation_stats()))
                    .collect();
                w.key("delegation").obj(|w| {
                    w.nums(&[
                        ("grants_read", sum(d.iter(), |s| s.grants_read)),
                        ("grants_write", sum(d.iter(), |s| s.grants_write)),
                        ("local_opens", sum(d.iter(), |s| s.local_opens)),
                        ("local_closes", sum(d.iter(), |s| s.local_closes)),
                        ("recalls", sum(d.iter(), |s| s.recalls)),
                        ("returns", sum(d.iter(), |s| s.returns)),
                        ("revokes", sum(d.iter(), |s| s.revokes)),
                        ("held", sum(clients(), |c| c.delegations_held() as u64)),
                    ]);
                    w.key("recall_latency_buckets").arr(|w| {
                        for i in 0..=RecallHistogram::BOUNDS_US.len() {
                            w.num(sum(d.iter(), |s| s.recall_latency.buckets[i]));
                        }
                    });
                });
            }
            if self.layout.is_some() {
                let peak_blocks = max(clients(), |c| c.peak_cache_blocks() as u64);
                w.key("shards").obj(|w| {
                    w.nums(&[
                        ("n", self.shard_hosts.len() as u64),
                        ("peak_client_kb", peak_blocks * BLOCK_SIZE as u64 / 1024),
                    ]);
                    w.key("per_shard").arr(|w| {
                        for sh in &self.shard_hosts {
                            let ops = sh.server.shard_stats();
                            w.obj(|w| {
                                w.nums(&[
                                    ("shard", sh.shard.into()),
                                    ("rpcs", sh.counter.snapshot().total()),
                                    ("dup_hits", sh.endpoint.dup_hits()),
                                    ("table_entries", sh.server.table_len() as u64),
                                    ("cross_renames", ops.cross_renames),
                                    ("cross_links", ops.cross_links),
                                    ("wrong_shard_replies", ops.wrong_shard_replies),
                                    ("busy_rejections", ops.busy_rejections),
                                    ("lock_contention", ops.lock_contention),
                                    ("dup_contention", sh.endpoint.dup_contention()),
                                ]);
                            });
                        }
                    });
                });
            }
        });
        StatsSnapshot::from_json(w.out)
    }
}

/// `f` summed over `items`.
fn sum<T>(items: impl Iterator<Item = T>, f: impl FnMut(T) -> u64) -> u64 {
    items.map(f).sum()
}

/// The largest `f` over `items`; 0 for none.
fn max<T>(items: impl Iterator<Item = T>, f: impl FnMut(T) -> u64) -> u64 {
    items.map(f).max().unwrap_or(0)
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
