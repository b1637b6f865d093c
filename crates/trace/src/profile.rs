//! Causal latency profiling: where did every microsecond of each
//! client-visible operation go?
//!
//! [`profile_trace`] replays a recorded trace and rebuilds one span tree
//! per client-visible op (`op_begin` → `rpc_call` → `rpc_xmit` →
//! `rpc_arrive` → `handler_begin`/`end` → `disk_queue`/`disk_done` →
//! `callback_begin`/`end` → `rpc_reply` → `op_end`, linked by `parent`),
//! then attributes the op's entire wall-clock interval to a fixed set of
//! [`Phase`]s. Attribution is *exact by construction*: every op is
//! partitioned into non-overlapping intervals whose durations sum to the
//! op's latency, so "where does the time go" tables always add up.
//!
//! The profiler is pure post-processing — it runs after the simulation
//! finishes, on the event log alone, so profiling can never perturb a
//! traced run (the determinism tests pin this).
//!
//! ## Attribution model
//!
//! Each op owns the interval `[op_begin.t, op_end.t]`. Instants where no
//! child RPC is outstanding are [`Phase::CacheLocal`] — client CPU,
//! cache hits, block shuffling. While one or more child RPCs are
//! outstanding, each instant is charged to the *earliest-issued* RPC
//! still in flight (ties broken by sequence number), and that RPC's own
//! timeline decides the phase:
//!
//! * `rpc_call` → first `rpc_xmit`: [`Phase::ClientQueue`] (marshalling,
//!   batcher hold, injected fault delay);
//! * `rpc_xmit` → `rpc_arrive`: [`Phase::Net`] (request transit), and
//!   likewise `handler_end` → `rpc_reply` for the reply leg;
//! * fresh `rpc_arrive` → `handler_begin`: [`Phase::Admission`]
//!   (blocking gate + service-thread wait);
//! * duplicate `rpc_arrive` → next boundary: [`Phase::DupCache`] (the
//!   dup cache answered or joined an execution already in flight);
//! * inside `handler_begin..handler_end`: [`Phase::ServerCpu`], except
//!   intervals covered by a consistency callback
//!   ([`Phase::Callback`]) or by a disk request's queue wait
//!   ([`Phase::DiskQueue`]) / service time ([`Phase::DiskService`]).
//!
//! RPCs recorded before the `rpc_xmit`/`rpc_arrive` boundary events
//! existed (older traces) fall back to [`Phase::Unattributed`]; the
//! acceptance gate keeps that under 1% on current traces.
//!
//! Disk events carry no causal parent (the block layer predates the
//! span model), so each server-disk request is assigned to the
//! innermost handler open at its enqueue instant — a deterministic
//! seq-containment heuristic, documented as such in DESIGN.md §16.
//! Misassignment can shift time between server-side phases of
//! concurrent handlers but never breaks the exact-sum property.

use spritely_metrics::json::Writer;
use spritely_metrics::LatencyStats;
use spritely_proto::NfsProc;
use spritely_sim::{Map, SimDuration};

use crate::{Event, Name, Tag, TraceEvent};

/// Default occupancy bucket width: one sim-second.
pub const DEFAULT_BUCKET_US: u64 = 1_000_000;

/// The phases every microsecond of a client-visible op is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Client-side time with no RPC outstanding: cache hits, block
    /// copies, think time inside the op.
    CacheLocal,
    /// An RPC was issued but has not left the client yet: marshalling,
    /// batcher hold, injected send delay.
    ClientQueue,
    /// Wire transit, either direction.
    Net,
    /// Request arrived at the server but no handler is running yet:
    /// blocking gate plus service-thread wait.
    Admission,
    /// The duplicate cache answered (or joined an in-flight execution)
    /// instead of spawning a handler.
    DupCache,
    /// Handler execution not covered by disk or callback intervals.
    ServerCpu,
    /// A disk request sat in the scheduler queue during the handler.
    DiskQueue,
    /// A disk request was in service (positioning + transfer).
    DiskService,
    /// The handler was blocked on a consistency callback to a client.
    Callback,
    /// Op time the replay could not attribute (RPCs recorded without
    /// transmit boundaries); should be ~0 on current traces.
    Unattributed,
}

/// Number of phases; array-index domain for per-phase accumulators.
pub const NUM_PHASES: usize = 10;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::CacheLocal,
        Phase::ClientQueue,
        Phase::Net,
        Phase::Admission,
        Phase::DupCache,
        Phase::ServerCpu,
        Phase::DiskQueue,
        Phase::DiskService,
        Phase::Callback,
        Phase::Unattributed,
    ];

    /// Stable snake_case name (used in JSON artifacts and tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::CacheLocal => "cache_local",
            Phase::ClientQueue => "client_queue",
            Phase::Net => "net",
            Phase::Admission => "admission",
            Phase::DupCache => "dup_cache",
            Phase::ServerCpu => "server_cpu",
            Phase::DiskQueue => "disk_queue",
            Phase::DiskService => "disk_service",
            Phase::Callback => "callback",
            Phase::Unattributed => "unattributed",
        }
    }

    /// Position in [`Phase::ALL`], which lists the variants as declared.
    fn index(self) -> usize {
        self as usize
    }
}

/// One reconstructed client-visible operation and its phase breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Op name (`open`, `close`, `fsync`, …); synthetic spans built for
    /// RPCs outside any op carry the procedure name instead.
    pub op: &'static str,
    /// Issuing client (0 for server-originated synthetic spans).
    pub client: u32,
    /// `true` for synthetic spans: RPCs whose parent chain reaches no
    /// `op_begin` (background flushes, bare NFS client calls).
    pub synthetic: bool,
    /// Op interval, microseconds of sim time.
    pub begin_us: u64,
    /// End of the op interval.
    pub end_us: u64,
    /// Child RPCs claimed by this span.
    pub rpcs: u64,
    /// Exact partition of `[begin_us, end_us]`, indexed by
    /// [`Phase::ALL`] order; sums to `end_us - begin_us`.
    pub phase_us: [u64; NUM_PHASES],
}

impl OpProfile {
    /// Op wall-clock latency in microseconds.
    pub fn total_us(&self) -> u64 {
        self.end_us - self.begin_us
    }
}

/// Aggregate phase breakdown for one op name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpKindProfile {
    pub op: &'static str,
    pub count: u64,
    pub total_us: u64,
    pub max_us: u64,
    pub phase_us: [u64; NUM_PHASES],
}

/// How each `rpc_call` in the trace was claimed; the four counts sum to
/// the total number of `rpc_call` events, and every RPC is counted in
/// exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RpcClaims {
    /// Client RPCs whose parent chain reaches an `op_begin`.
    pub op: u64,
    /// Server-originated callback RPCs issued inside a handler.
    pub callback: u64,
    /// RPCs outside any op (background flush daemons, bare NFS client
    /// calls): each becomes its own synthetic span.
    pub background: u64,
    /// RPCs with no `rpc_reply` in the trace (in flight at trace end or
    /// permanently lost); claimed but not profiled as spans.
    pub incomplete: u64,
}

impl RpcClaims {
    pub fn total(&self) -> u64 {
        self.op + self.callback + self.background + self.incomplete
    }
}

/// The full profile of one traced run.
pub struct Profile {
    /// Every reconstructed span (real ops first, then synthetic, in
    /// trace order within each group).
    pub ops: Vec<OpProfile>,
    /// Per-op-name aggregates, in first-appearance order.
    pub op_kinds: Vec<OpKindProfile>,
    /// Phase totals across all spans, indexed by [`Phase::ALL`] order.
    pub phase_us: [u64; NUM_PHASES],
    /// Sum of span wall-clock latencies.
    pub total_us: u64,
    /// How every `rpc_call` was claimed.
    pub claims: RpcClaims,
    /// `rpc_call` events in the trace (== `claims.total()`).
    pub total_rpcs: u64,
    /// Per-procedure end-to-end RPC latency (`rpc_call` → `rpc_reply`).
    pub rpc_latency: LatencyStats,
    /// Occupancy bucket width, microseconds.
    pub bucket_us: u64,
    /// Attributed microseconds per `[bucket][phase]`; bucket `i` covers
    /// sim time `[i*bucket_us, (i+1)*bucket_us)`.
    pub occupancy: Vec<[u64; NUM_PHASES]>,
}

impl Profile {
    /// Microseconds attributed to `phase` across all spans.
    pub fn phase_total(&self, phase: Phase) -> u64 {
        self.phase_us[phase.index()]
    }

    /// Fraction of all span time attributed to named phases (1.0 means
    /// nothing fell in [`Phase::Unattributed`]).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_us == 0 {
            return 1.0;
        }
        let un = self.phase_us[Phase::Unattributed.index()];
        (self.total_us - un) as f64 / self.total_us as f64
    }

    /// Byte-stable JSON rendering (deterministic runs produce identical
    /// bytes; committed under `artifacts/` and diffed by
    /// `spritely compare`). Each member, and each element of an array,
    /// starts a line, so the committed file diffs line by line.
    pub fn to_json(&self) -> String {
        let phases = |w: &mut Writer, us: &[u64; NUM_PHASES]| {
            w.obj(|w| {
                for p in Phase::ALL {
                    w.key(p.name()).num(us[p.index()]);
                }
            });
        };
        let (c, lat) = (&self.claims, &self.rpc_latency);
        let mut w = Writer::default();
        w.obj(|w| {
            w.raw("\n").key("ops").num(self.ops.len());
            w.raw("\n").key("rpcs").num(self.total_rpcs);
            w.raw("\n").key("claims").obj(|w| {
                w.nums(&[
                    ("op", c.op),
                    ("callback", c.callback),
                    ("background", c.background),
                    ("incomplete", c.incomplete),
                ]);
            });
            w.raw("\n").key("total_op_us").num(self.total_us);
            let attributed = self.total_us - self.phase_us[Phase::Unattributed.index()];
            w.raw("\n").key("attributed_us").num(attributed);
            phases(w.raw("\n").key("phase_us"), &self.phase_us);
            w.raw("\n").key("op_kinds").arr(|w| {
                for k in &self.op_kinds {
                    w.raw("\n").obj(|w| {
                        w.key("op").str(k.op);
                        w.nums(&[
                            ("count", k.count),
                            ("total_us", k.total_us),
                            ("max_us", k.max_us),
                        ]);
                        phases(w.key("phase_us"), &k.phase_us);
                    });
                }
            });
            w.raw("\n").key("procs").arr(|w| {
                for p in lat.observed() {
                    w.raw("\n").obj(|w| {
                        w.key("proc").str(p.name());
                        w.nums(&[
                            ("count", lat.count(p)),
                            ("mean_us", lat.mean(p).as_micros()),
                            ("p50_us", lat.percentile(p, 0.50).as_micros()),
                            ("p95_us", lat.percentile(p, 0.95).as_micros()),
                            ("p99_us", lat.percentile(p, 0.99).as_micros()),
                            ("max_us", lat.max(p).as_micros()),
                        ]);
                    });
                }
            });
            w.raw("\n").key("occupancy").obj(|w| {
                w.nums(&[
                    ("bucket_us", self.bucket_us),
                    ("buckets", self.occupancy.len() as u64),
                ]);
                w.key("phases").obj(|w| {
                    for p in Phase::ALL {
                        w.raw("\n").key(p.name()).arr(|w| {
                            for b in &self.occupancy {
                                w.num(b[p.index()]);
                            }
                        });
                    }
                });
            });
        });
        w.out.push('\n');
        w.out
    }
}

/// "No such record": the sentinel of the `u32` tables and links below.
const NONE: u32 = u32::MAX;

/// "Not yet": the end of an op or RPC the trace never recorded. No event
/// is stamped at the end of time.
const NEVER: u64 = u64::MAX;

/// The record an `op_begin`, `rpc_call`, `handler_begin` or `cb_begin`
/// opened, and what the events under it inherit (see [`sweep`]).
#[derive(Clone, Copy)]
struct Context {
    /// The `op_begin` the parent chain reaches (index into `ops`).
    owner: u32,
    /// The nearest ancestor `handler_begin` (handler number).
    handler: u32,
    /// The record the event opened.
    slot: Slot,
}

/// Context 0: that of an event with no parent, or none the sweep has
/// seen. A fact of 0 names it.
const ROOT: Context = Context {
    owner: NONE,
    handler: NONE,
    slot: Slot::None,
};

#[derive(Clone, Copy)]
enum Slot {
    None,
    Op(u32),
    Rpc(u32),
    Handler(u32),
    Callback(u32),
}

struct Op {
    t0: u64,
    t1: u64,
    client: u32,
    name: Name,
    /// The first of its client-side child RPCs, chained by `Rpc::sibling`
    /// in index order.
    child: u32,
}

/// One RPC's reconstructed timeline: 48 bytes.
struct Rpc {
    /// Its `rpc_call`'s sequence number, the overlay's tie-break: a
    /// tracer's log is in sequence order, a hand-built trace need not be.
    seq: u32,
    from: u32,
    proc: NfsProc,
    t_call: u64,
    t_reply: u64,
    /// Owning op (index into `ops`), if the parent chain reaches one.
    owner: u32,
    /// The first and last of its boundaries, chained in emission (= time)
    /// order.
    first: u32,
    last: u32,
    /// The next child RPC of its owning op.
    sibling: u32,
}

/// An RPC's boundary is a `u32`: a `handler_begin`'s handler number (31
/// bits, see [`sweep`]), or one of these, above every handler number.
const XMIT: u32 = NONE - 1;
const ARRIVE: u32 = NONE - 2;
const DUP_ARRIVE: u32 = NONE - 3;
const HANDLER_END: u32 = NONE - 4;

/// One handler execution: the RPC it executes and the first of its
/// painted intervals.
struct Handler {
    rpc: u32,
    paints: u32,
}

/// An interval resolved to a phase: a slice of one RPC's timeline, or
/// one painted sub-interval of a handler execution's overlay (priority
/// when probing is encoded in [`subdivide_handler`]).
#[derive(Clone, Copy)]
struct Segment {
    start: u64,
    end: u64,
    phase: Phase,
}

/// The indices of a chain of `u32` links, from `first` until `NONE`.
fn chain(first: u32, next: impl Fn(u32) -> u32) -> impl Iterator<Item = u32> {
    let link = |i: u32| Some(i).filter(|&i| i != NONE);
    std::iter::successors(link(first), move |&i| link(next(i)))
}

/// Replay `events` and build the full phase-attribution profile, with
/// occupancy bucketed at `bucket` width.
pub fn profile_trace_bucketed(events: &[TraceEvent], bucket: SimDuration) -> Profile {
    // ---- Pass 1: collect ops, RPCs, handlers, callbacks, disk. ----
    let mut swept = sweep(events);

    // ---- Pass 2: claim every RPC; chain each op's children. ----
    // Backwards, so that each chain, built at its head, runs in index order.
    let mut claims = RpcClaims::default();
    for ri in (0..swept.rpcs.len()).rev() {
        let r = &mut swept.rpcs[ri];
        match (r.owner, r.from) {
            _ if r.t_reply == NEVER => claims.incomplete += 1,
            (NONE, _) => claims.background += 1,
            (_, 0) => claims.callback += 1,
            (op, _) => {
                claims.op += 1;
                let op = &mut swept.ops[op as usize];
                r.sibling = op.child;
                op.child = ri as u32;
            }
        }
    }

    // ---- Pass 3: resolve each span's RPCs and overlay them onto it. ----
    let swept = &swept;
    let rpcs = &swept.rpcs;
    let mut overlay = Overlay {
        swept,
        segs: Vec::new(),
        kids: Vec::new(),
        cuts: Vec::new(),
        bucket_us: bucket.as_micros().max(1),
        occupancy: Vec::new(),
    };
    let mut ops = Vec::with_capacity(swept.ops.len() + claims.background as usize);
    for op in swept.ops.iter().filter(|op| op.t1 != NEVER) {
        ops.push(OpProfile {
            op: op.name.as_str(),
            client: op.client,
            synthetic: false,
            begin_us: op.t0,
            end_us: op.t1,
            rpcs: chain(op.child, |r| rpcs[r as usize].sibling).count() as u64,
            phase_us: overlay.op(op.t0, op.t1, op.child),
        });
    }

    // Synthetic spans: background / bare-client RPCs, one span each (no
    // op chained them, so each is a chain of one).
    for (ri, r) in rpcs.iter().enumerate() {
        let t_reply = r.t_reply;
        if r.owner != NONE || r.from == 0 || t_reply == NEVER {
            continue;
        }
        ops.push(OpProfile {
            op: r.proc.name(),
            client: r.from,
            synthetic: true,
            begin_us: r.t_call,
            end_us: t_reply,
            rpcs: 1,
            phase_us: overlay.op(r.t_call, t_reply, ri as u32),
        });
    }

    // ---- Aggregates. ----
    let mut phase_us = [0u64; NUM_PHASES];
    let mut total_us = 0u64;
    let mut op_kinds: Vec<OpKindProfile> = Vec::new();
    for o in &ops {
        total_us += o.total_us();
        for (acc, v) in phase_us.iter_mut().zip(o.phase_us.iter()) {
            *acc += v;
        }
        match op_kinds.iter_mut().find(|k| k.op == o.op) {
            Some(k) => {
                k.count += 1;
                k.total_us += o.total_us();
                k.max_us = k.max_us.max(o.total_us());
                for i in 0..NUM_PHASES {
                    k.phase_us[i] += o.phase_us[i];
                }
            }
            None => op_kinds.push(OpKindProfile {
                op: o.op,
                count: 1,
                total_us: o.total_us(),
                max_us: o.total_us(),
                phase_us: o.phase_us,
            }),
        }
    }

    let rpc_latency = LatencyStats::new();
    for r in rpcs.iter().filter(|r| r.t_reply != NEVER) {
        rpc_latency.record(r.proc, SimDuration::from_micros(r.t_reply - r.t_call));
    }

    Profile {
        ops,
        op_kinds,
        phase_us,
        total_us,
        total_rpcs: rpcs.len() as u64,
        claims,
        rpc_latency,
        bucket_us: overlay.bucket_us,
        occupancy: overlay.occupancy,
    }
}

/// Replay `events` with the default one-second occupancy bucket.
pub fn profile_trace(events: &[TraceEvent]) -> Profile {
    profile_trace_bucketed(events, SimDuration::from_micros(DEFAULT_BUCKET_US))
}

/// What one forward pass over the events collects.
struct Sweep {
    ops: Vec<Op>,
    rpcs: Vec<Rpc>,
    /// Every RPC's boundaries, `(t, boundary, next)`, chained from
    /// `Rpc::first`: 16 bytes each.
    bounds: Vec<(u64, u32, u32)>,
    /// By handler number.
    handlers: Vec<Handler>,
    /// Every handler's painted intervals, chained from `Handler::paints`
    /// in no particular order: [`subdivide_handler`] needs none.
    paints: Vec<(Segment, u32)>,
}

impl Sweep {
    /// Append a boundary to RPC `r`'s chain.
    fn bound(&mut self, r: u32, t: u64, bound: u32) {
        let (b, r) = (self.bounds.len() as u32, &mut self.rpcs[r as usize]);
        match r.last {
            NONE => r.first = b,
            last => self.bounds[last as usize].2 = b,
        }
        r.last = b;
        self.bounds.push((t, bound, NONE));
    }

    /// Paint `s` onto handler `h`'s overlay.
    fn paint(&mut self, h: u32, s: Segment) {
        let head = &mut self.handlers[h as usize].paints;
        self.paints
            .push((s, std::mem::replace(head, self.paints.len() as u32)));
    }

    /// RPC `r`'s boundaries, in order.
    fn bounds_of(&self, r: &Rpc) -> impl Iterator<Item = (u64, u32)> + '_ {
        let bounds = &self.bounds;
        chain(r.first, |b| bounds[b as usize].2)
            .map(|b| (bounds[b as usize].0, bounds[b as usize].1))
    }

    /// Handler `h`'s painted intervals.
    fn paints_of(&self, h: u32) -> impl Iterator<Item = Segment> + '_ {
        let paints = &self.paints;
        chain(self.handlers[h as usize].paints, |p| paints[p as usize].1)
            .map(|p| paints[p as usize].0)
    }
}

/// The facts are filed by sequence number — which the tracer hands out in
/// emission order, so a parent's are there before any event under it
/// asks, in a tracer's own log and in a filtered or hand-built one alike.
/// A parent that comes later in the array, or never, finds the facts of a
/// root: it is no parent. The table is as long as the largest sequence
/// number.
///
/// An event's fact is one `u32`: the index of a context times two, plus
/// one when the event opened that context itself. An event that opens no
/// record files its parent's context with the bit clear, so the events
/// under it inherit the owner and handler but find no slot.
fn sweep(events: &[TraceEvent]) -> Sweep {
    assert!(events.len() < (NONE >> 1) as usize, "contexts are 31-bit");
    // Size the tables first, from one look at each event's kind: nothing
    // below grows, however long the trace.
    let (mut n_ops, mut n_rpcs, mut n_handlers, mut n_callbacks) = (0, 0, 0, 0);
    let (mut n_bounds, mut n_paints) = (0, 0);
    for e in events {
        match e.tag {
            Tag::OpBegin => n_ops += 1,
            Tag::RpcCall => n_rpcs += 1,
            Tag::HandlerBegin => n_handlers += 1,
            Tag::CallbackBegin => n_callbacks += 1,
            Tag::DiskDone => n_paints += 2,
            Tag::RpcXmit | Tag::RpcArrive | Tag::HandlerEnd => n_bounds += 1,
            _ => {}
        }
    }
    let mut facts: Vec<u32> = Vec::with_capacity(events.len() + 1);
    let mut contexts = Vec::with_capacity(1 + n_ops + n_rpcs + n_handlers + n_callbacks);
    contexts.push(ROOT);
    let mut s = Sweep {
        ops: Vec::with_capacity(n_ops),
        rpcs: Vec::with_capacity(n_rpcs),
        bounds: Vec::with_capacity(n_bounds + n_handlers),
        handlers: Vec::with_capacity(n_handlers),
        paints: Vec::with_capacity(n_paints + n_callbacks),
    };
    // Server handlers open at the current scan point, in begin order
    // (for the disk seq-containment heuristic).
    let mut open_server_handlers: Vec<u32> = Vec::new();
    // (disk name, req id) -> (enqueue t, assigned handler)
    let mut disk_pending: Map<(Name, u64), (u64, Option<u32>)> = Map::default();
    // Per callback: (begin t, owning handler, end t).
    let mut callbacks: Vec<(u64, u32, Option<u64>)> = Vec::with_capacity(n_callbacks);

    for e in events {
        let fact = match e.parent {
            0 => 0,
            seq => facts.get(seq as usize).copied().unwrap_or(0),
        };
        let up = contexts[(fact >> 1) as usize];
        let parent = if fact & 1 == 1 { up.slot } else { Slot::None };
        let mut ctx = Context {
            slot: Slot::None,
            ..up
        };
        let rpc = match parent {
            Slot::Rpc(r) => r,
            _ => NONE,
        };
        let t = e.t_us;
        match e.view() {
            Event::OpBegin { client, op, .. } => {
                ctx.owner = s.ops.len() as u32;
                ctx.slot = Slot::Op(ctx.owner);
                s.ops.push(Op {
                    t0: t,
                    t1: NEVER,
                    client: client.0,
                    name: op,
                    child: NONE,
                });
            }
            Event::OpEnd { .. } => {
                if let Slot::Op(o) = parent {
                    s.ops[o as usize].t1 = t;
                }
            }
            Event::RpcCall { from, proc, .. } => {
                ctx.slot = Slot::Rpc(s.rpcs.len() as u32);
                s.rpcs.push(Rpc {
                    seq: e.seq,
                    from: from.0,
                    proc,
                    t_call: t,
                    t_reply: NEVER,
                    owner: ctx.owner,
                    first: NONE,
                    last: NONE,
                    sibling: NONE,
                });
            }
            Event::RpcReply { .. } if rpc != NONE => s.rpcs[rpc as usize].t_reply = t,
            Event::RpcXmit { .. } if rpc != NONE => s.bound(rpc, t, XMIT),
            Event::RpcArrive { dup, .. } if rpc != NONE => {
                s.bound(rpc, t, if dup { DUP_ARRIVE } else { ARRIVE });
            }
            Event::HandlerBegin { from, .. } => {
                let h = s.handlers.len() as u32;
                ctx.handler = h;
                ctx.slot = Slot::Handler(h);
                s.handlers.push(Handler { rpc, paints: NONE });
                if rpc != NONE {
                    s.bound(rpc, t, h);
                }
                if from.0 != 0 {
                    open_server_handlers.push(h);
                }
            }
            // `handler_end` is parented under its `handler_begin`,
            // not the RPC — route it back via the handler table.
            Event::HandlerEnd { .. } => {
                if let Slot::Handler(h) = parent {
                    let rpc = s.handlers[h as usize].rpc;
                    if rpc != NONE {
                        s.bound(rpc, t, HANDLER_END);
                    }
                    if let Some(i) = open_server_handlers.iter().rposition(|&o| o == h) {
                        open_server_handlers.remove(i);
                    }
                }
            }
            Event::DiskQueue { disk, req, .. } => {
                // Seq-containment heuristic: charge the disk request
                // to the most recently begun server handler still
                // open at enqueue time. Only server-originated
                // executions count; callback handlers running on
                // client hosts never issue server-disk I/O.
                let h = open_server_handlers.last().copied();
                disk_pending.insert((disk, req), (t, h));
            }
            Event::DiskDone {
                disk, req, wait_us, ..
            } => {
                if let Some((t_q, Some(h))) = disk_pending.remove(&(disk, req)) {
                    let dispatch = (t_q + wait_us).min(t);
                    for (start, end, phase) in [
                        (t_q, dispatch, Phase::DiskQueue),
                        (dispatch, t, Phase::DiskService),
                    ] {
                        if end > start {
                            s.paint(h, Segment { start, end, phase });
                        }
                    }
                }
            }
            Event::CallbackBegin { .. } => {
                ctx.slot = Slot::Callback(callbacks.len() as u32);
                callbacks.push((t, ctx.handler, None));
            }
            Event::CallbackEnd { .. } => {
                if let Slot::Callback(c) = parent {
                    callbacks[c as usize].2 = Some(t);
                }
            }
            _ => {}
        }
        let fact = match ctx.slot {
            Slot::None => fact & !1,
            _ => {
                contexts.push(ctx);
                (contexts.len() as u32 - 1) << 1 | 1
            }
        };
        let seq = e.seq as usize;
        if seq >= facts.len() {
            facts.resize(seq + 1, 0);
        }
        facts[seq] = fact;
    }

    // Paint callback intervals onto their owning handlers.
    for (start, h, end) in callbacks {
        if let Some(end) = end.filter(|&end| h != NONE && end > start) {
            let phase = Phase::Callback;
            s.paint(h, Segment { start, end, phase });
        }
    }
    s
}

/// Append one RPC's timeline to `segs` as contiguous phase segments
/// covering `[t_call, t_reply]` exactly. Handler intervals are
/// subdivided by the handler's painted overlay (disk service > disk
/// queue > callback > server CPU).
fn resolve_rpc(swept: &Sweep, r: &Rpc, cuts: &mut Vec<u64>, segs: &mut Vec<Segment>) {
    let t_reply = r.t_reply;
    if t_reply == NEVER {
        return;
    }
    let first = segs.len();
    let has_xmit = swept.bounds_of(r).any(|(_, b)| b == XMIT);
    let mut cur_t = r.t_call;
    // State carried between boundaries: either a plain phase or an open
    // handler whose overlay subdivides the interval.
    enum State {
        Plain(Phase),
        InHandler(u32),
    }
    let mut state = State::Plain(if has_xmit {
        Phase::ClientQueue
    } else {
        Phase::Unattributed
    });
    let mut close = |state: &State, start: u64, end: u64| {
        if end <= start {
            return;
        }
        match *state {
            State::Plain(phase) => segs.push(Segment { start, end, phase }),
            // Coalescing stops at `first`: the segments before it are
            // another RPC's.
            State::InHandler(h) => subdivide_handler(segs, first, swept, h, cuts, start, end),
        }
    };
    for (t, b) in swept.bounds_of(r) {
        let t = t.min(t_reply);
        close(&state, cur_t, t);
        cur_t = cur_t.max(t);
        state = match b {
            XMIT => State::Plain(Phase::Net),
            ARRIVE => State::Plain(Phase::Admission),
            DUP_ARRIVE => State::Plain(Phase::DupCache),
            HANDLER_END => State::Plain(Phase::Net),
            h => State::InHandler(h),
        };
    }
    close(&state, cur_t, t_reply);
}

/// Split `[a, b]` of a handler execution into phase segments using the
/// painted sub-intervals of handler `h`. Priority when intervals
/// overlap: disk service, then disk queue, then callback, then server CPU.
fn subdivide_handler(
    segs: &mut Vec<Segment>,
    first: usize,
    swept: &Sweep,
    h: u32,
    cuts: &mut Vec<u64>,
    a: u64,
    b: u64,
) {
    if swept.handlers[h as usize].paints == NONE {
        return push_coalesced(segs, first, a, b, Phase::ServerCpu);
    }
    let subs = || swept.paints_of(h);
    // Breakpoints: interval ends plus every painted edge inside it.
    cuts.clear();
    cuts.extend([a, b]);
    for s in subs() {
        cuts.extend([s.start, s.end].into_iter().filter(|&t| t > a && t < b));
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        // Phases are constant on [lo, hi); probe the start.
        let covered = |p: Phase| subs().any(|s| s.phase == p && s.start <= lo && s.end > lo);
        let phase = if covered(Phase::DiskService) {
            Phase::DiskService
        } else if covered(Phase::DiskQueue) {
            Phase::DiskQueue
        } else if covered(Phase::Callback) {
            Phase::Callback
        } else {
            Phase::ServerCpu
        };
        push_coalesced(segs, first, lo, hi, phase);
    }
}

/// Append `[lo, hi)` in `phase`, extending this RPC's previous segment
/// (those from `first` on) when it ends at `lo` in the same phase.
fn push_coalesced(segs: &mut Vec<Segment>, first: usize, lo: u64, hi: u64, phase: Phase) {
    match segs[first..].last_mut() {
        Some(last) if last.end == lo && last.phase == phase => last.end = hi,
        _ => segs.push(Segment {
            start: lo,
            end: hi,
            phase,
        }),
    }
}

/// Pass 3's state: the swept tables and scratch buffers going in, the
/// occupancy buckets coming out.
struct Overlay<'a> {
    swept: &'a Sweep,
    /// Scratch: the resolved segments of the span being charged, child
    /// RPC after child RPC. Every RPC is charged to one span at most, so
    /// no RPC is resolved twice.
    segs: Vec<Segment>,
    /// Scratch: per child of that span, `(t_call, seq, end)`, where its
    /// segments end in `segs`.
    kids: Vec<(u64, u32, usize)>,
    cuts: Vec<u64>,
    bucket_us: u64,
    occupancy: Vec<[u64; NUM_PHASES]>,
}

impl Overlay<'_> {
    /// Partition the span `[t0, t1]` across phases given the chain of its
    /// child RPCs from `first`, accumulating into `occupancy` buckets as
    /// well. Returns the exact per-phase breakdown (sums to `t1 - t0`).
    fn op(&mut self, t0: u64, t1: u64, first: u32) -> [u64; NUM_PHASES] {
        let mut phase_us = [0u64; NUM_PHASES];
        if t1 <= t0 {
            return phase_us;
        }
        let rpcs = &self.swept.rpcs;
        self.segs.clear();
        self.kids.clear();
        for ri in chain(first, |r| rpcs[r as usize].sibling) {
            let r = &rpcs[ri as usize];
            resolve_rpc(self.swept, r, &mut self.cuts, &mut self.segs);
            self.kids.push((r.t_call, r.seq, self.segs.len()));
        }
        let bucket_us = self.bucket_us;
        let mut charge = |occupancy: &mut _, lo: u64, hi: u64, phase: Phase| {
            phase_us[phase.index()] += hi - lo;
            add_occupancy(occupancy, bucket_us, lo, hi, phase);
        };
        // One RPC: its segments are in time order and do not overlap, so
        // the span is theirs where they are and cache-local between.
        if self.kids.len() == 1 {
            let mut t = t0;
            for s in &self.segs {
                let (lo, hi) = (s.start.max(t), s.end.min(t1));
                if lo < hi {
                    if t < lo {
                        charge(&mut self.occupancy, t, lo, Phase::CacheLocal);
                    }
                    charge(&mut self.occupancy, lo, hi, s.phase);
                    t = hi;
                }
            }
            if t < t1 {
                charge(&mut self.occupancy, t, t1, Phase::CacheLocal);
            }
            return phase_us;
        }
        // Instants where the attribution can change: span ends plus every
        // child segment edge (clipped to the span).
        self.cuts.clear();
        self.cuts.extend([t0, t1]);
        for s in &self.segs {
            let inside = [s.start, s.end].into_iter().filter(|&t| t > t0 && t < t1);
            self.cuts.extend(inside);
        }
        self.cuts.sort_unstable();
        self.cuts.dedup();
        for w in self.cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            // Charge [lo, hi) to the earliest-issued RPC active at `lo`
            // (ties by sequence number), or cache-local when none is.
            let mut chosen: Option<(u64, u32, Phase)> = None; // (t_call, seq, phase)
            let mut start = 0;
            for &(t_call, seq, end) in &self.kids {
                let segs = &self.segs[start..end];
                start = end;
                let Some(seg) = segs.iter().find(|s| s.start <= lo && s.end > lo) else {
                    continue;
                };
                if chosen.is_none_or(|(tc, sq, _)| (t_call, seq) < (tc, sq)) {
                    chosen = Some((t_call, seq, seg.phase));
                }
            }
            let phase = chosen.map_or(Phase::CacheLocal, |(_, _, p)| p);
            charge(&mut self.occupancy, lo, hi, phase);
        }
        phase_us
    }
}

/// Spread `[lo, hi)` attributed to `phase` across fixed-width buckets.
fn add_occupancy(
    occupancy: &mut Vec<[u64; NUM_PHASES]>,
    bucket_us: u64,
    lo: u64,
    hi: u64,
    phase: Phase,
) {
    let mut t = lo;
    while t < hi {
        let b = (t / bucket_us) as usize;
        let edge = ((b as u64) + 1) * bucket_us;
        let end = hi.min(edge);
        if occupancy.len() <= b {
            occupancy.resize(b + 1, [0u64; NUM_PHASES]);
        }
        occupancy[b][phase.index()] += end - t;
        t = end;
    }
}

/// The profiler as it stood before the dense tables (PR 19 and before):
/// the same function over `HashMap`s keyed by sequence number, kept as
/// the reference the property test below holds the sweep against.
#[cfg(test)]
mod reference {
    use super::{
        add_occupancy, Event, LatencyStats, Map, Name, NfsProc, OpKindProfile, OpProfile, Phase,
        Profile, RpcClaims, SimDuration, TraceEvent, NUM_PHASES,
    };

    pub(super) fn profile_trace_bucketed(events: &[TraceEvent], bucket: SimDuration) -> Profile {
        Profiler::new(events).run(bucket.as_micros().max(1))
    }

    /// One RPC's reconstructed timeline.
    struct Rpc {
        seq: u64,
        from: u32,
        proc: NfsProc,
        t_call: u64,
        t_reply: Option<u64>,
        /// Owning `op_begin` seq, if the parent chain reaches one.
        owner: Option<u64>,
        /// Phase boundaries in emission (= time) order.
        bounds: Vec<(u64, Bound)>,
    }

    enum Bound {
        Xmit,
        Arrive { dup: bool },
        HandlerBegin { h: u64 },
        HandlerEnd,
    }

    /// One server handler execution's sub-interval overlay: painted
    /// `(start, end, phase)` intervals. Priority when probing is encoded in
    /// [`subdivide_handler`].
    struct Handler {
        subs: Vec<(u64, u64, Phase)>,
    }

    /// A contiguous slice of one RPC's timeline, already resolved to a
    /// phase (handler intervals are resolved via the handler overlay).
    struct Segment {
        start: u64,
        end: u64,
        phase: Phase,
    }

    struct Profiler<'a> {
        events: &'a [TraceEvent],
        /// Owning `op_begin` seq per event (by index), via the parent chain.
        owner: Vec<Option<u64>>,
        /// Nearest ancestor `handler_begin` seq per event (by index).
        handler_of: Vec<Option<u64>>,
    }

    impl<'a> Profiler<'a> {
        fn new(events: &'a [TraceEvent]) -> Self {
            let mut idx_of = Map::with_capacity_and_hasher(events.len(), Default::default());
            for (i, e) in events.iter().enumerate() {
                idx_of.insert(u64::from(e.seq), i);
            }
            // Parents are always emitted before children (sequence numbers
            // are assigned in emission order), so one forward pass resolves
            // both ancestor maps.
            let mut owner: Vec<Option<u64>> = vec![None; events.len()];
            let mut handler_of: Vec<Option<u64>> = vec![None; events.len()];
            for i in 0..events.len() {
                let e = &events[i];
                let parent_idx = if e.parent == 0 {
                    None
                } else {
                    idx_of.get(&u64::from(e.parent)).copied()
                };
                owner[i] = match e.view() {
                    Event::OpBegin { .. } => Some(e.seq.into()),
                    _ => parent_idx.and_then(|pi| owner[pi]),
                };
                handler_of[i] = match e.view() {
                    Event::HandlerBegin { .. } => Some(e.seq.into()),
                    _ => parent_idx.and_then(|pi| handler_of[pi]),
                };
            }
            Profiler {
                events,
                owner,
                handler_of,
            }
        }

        fn run(&self, bucket_us: u64) -> Profile {
            // ---- Pass 1: collect ops, RPCs, handlers, callbacks, disk. ----
            let mut op_meta: Vec<(u64, u64, u32, &'static str)> = Vec::new(); // (seq, t0, client, op)
            let mut op_end: Map<u64, u64> = Map::default(); // op seq -> t1
            let mut rpcs: Vec<Rpc> = Vec::new();
            let mut rpc_idx: Map<u64, usize> = Map::default(); // rpc seq -> rpcs index
            let mut handlers: Map<u64, Handler> = Map::default();
            let mut handler_rpc: Map<u64, usize> = Map::default(); // handler seq -> rpcs index
                                                                   // Server handlers open at the current scan point, in begin order
                                                                   // (for the disk seq-containment heuristic).
            let mut open_server_handlers: Vec<u64> = Vec::new();
            // (disk name, req id) -> (enqueue t, assigned handler)
            let mut disk_pending: Map<(Name, u64), (u64, Option<u64>)> = Map::default();
            let mut cb_begin: Vec<(u64, u64, usize)> = Vec::new(); // (cb seq, t, event idx)
            let mut cb_end: Map<u64, u64> = Map::default(); // cb seq -> t

            for (i, e) in self.events.iter().enumerate() {
                let (seq, parent) = (u64::from(e.seq), u64::from(e.parent));
                match e.view() {
                    Event::OpBegin { client, op, .. } => {
                        op_meta.push((seq, e.t_us, client.0, op.as_str()));
                    }
                    Event::OpEnd { .. } => {
                        op_end.insert(parent, e.t_us);
                    }
                    Event::RpcCall { from, proc, .. } => {
                        rpc_idx.insert(seq, rpcs.len());
                        rpcs.push(Rpc {
                            seq,
                            from: from.0,
                            proc,
                            t_call: e.t_us,
                            t_reply: None,
                            owner: self.owner[i],
                            bounds: Vec::new(),
                        });
                    }
                    Event::RpcReply { .. } => {
                        if let Some(&ri) = rpc_idx.get(&parent) {
                            rpcs[ri].t_reply = Some(e.t_us);
                        }
                    }
                    Event::RpcXmit { .. } => {
                        if let Some(&ri) = rpc_idx.get(&parent) {
                            rpcs[ri].bounds.push((e.t_us, Bound::Xmit));
                        }
                    }
                    Event::RpcArrive { dup, .. } => {
                        if let Some(&ri) = rpc_idx.get(&parent) {
                            rpcs[ri].bounds.push((e.t_us, Bound::Arrive { dup }));
                        }
                    }
                    Event::HandlerBegin { from, .. } => {
                        handlers.insert(seq, Handler { subs: Vec::new() });
                        if let Some(&ri) = rpc_idx.get(&parent) {
                            handler_rpc.insert(seq, ri);
                            rpcs[ri]
                                .bounds
                                .push((e.t_us, Bound::HandlerBegin { h: seq }));
                        }
                        if from.0 != 0 {
                            open_server_handlers.push(seq);
                        }
                    }
                    // `handler_end` is parented under its `handler_begin`,
                    // not the RPC — route it back via the handler map.
                    Event::HandlerEnd { .. } => {
                        if let Some(&ri) = handler_rpc.get(&parent) {
                            rpcs[ri].bounds.push((e.t_us, Bound::HandlerEnd));
                        }
                        open_server_handlers.retain(|&h| h != parent);
                    }
                    Event::DiskQueue { disk, req, .. } => {
                        // Seq-containment heuristic: charge the disk request
                        // to the most recently begun server handler still
                        // open at enqueue time. Only server-originated
                        // executions count; callback handlers running on
                        // client hosts never issue server-disk I/O.
                        let h = open_server_handlers.last().copied();
                        disk_pending.insert((disk, req), (e.t_us, h));
                    }
                    Event::DiskDone {
                        disk, req, wait_us, ..
                    } => {
                        if let Some((t_q, Some(h))) = disk_pending.remove(&(disk, req)) {
                            if let Some(handler) = handlers.get_mut(&h) {
                                let dispatch = (t_q + wait_us).min(e.t_us);
                                if dispatch > t_q {
                                    handler.subs.push((t_q, dispatch, Phase::DiskQueue));
                                }
                                if e.t_us > dispatch {
                                    handler.subs.push((dispatch, e.t_us, Phase::DiskService));
                                }
                            }
                        }
                    }
                    Event::CallbackBegin { .. } => {
                        cb_begin.push((seq, e.t_us, i));
                    }
                    Event::CallbackEnd { .. } => {
                        cb_end.insert(parent, e.t_us);
                    }
                    _ => {}
                }
            }

            // Paint callback intervals onto their owning handlers.
            for &(cb_seq, t_b, idx) in &cb_begin {
                let Some(h) = self.handler_of[idx] else {
                    continue;
                };
                let Some(&t_e) = cb_end.get(&cb_seq) else {
                    continue;
                };
                if let Some(handler) = handlers.get_mut(&h) {
                    if t_e > t_b {
                        handler.subs.push((t_b, t_e, Phase::Callback));
                    }
                }
            }

            // ---- Pass 2: resolve each RPC to plain phase segments. ----
            let rpc_segments: Vec<Vec<Segment>> =
                rpcs.iter().map(|r| resolve_rpc(r, &handlers)).collect();

            // ---- Pass 3: overlay RPC segments onto op intervals. ----
            let mut claims = RpcClaims::default();
            let mut ops: Vec<OpProfile> = Vec::new();
            // op seq -> indices into `rpcs` of its client-side children.
            let mut op_children: Map<u64, Vec<usize>> = Map::default();
            for (ri, r) in rpcs.iter().enumerate() {
                match (r.owner, r.from, r.t_reply) {
                    (_, _, None) => claims.incomplete += 1,
                    (Some(op), from, Some(_)) if from != 0 => {
                        claims.op += 1;
                        op_children.entry(op).or_default().push(ri);
                    }
                    (Some(_), _, Some(_)) => claims.callback += 1,
                    (None, _, Some(_)) => claims.background += 1,
                }
            }

            let mut occupancy: Vec<[u64; NUM_PHASES]> = Vec::new();
            for &(op_seq, t0, client, name) in &op_meta {
                let Some(&t1) = op_end.get(&op_seq) else {
                    continue;
                };
                let children = op_children.remove(&op_seq).unwrap_or_default();
                let rpc_count = children.len() as u64;
                let phase_us = overlay_op(
                    t0,
                    t1,
                    &children,
                    &rpcs,
                    &rpc_segments,
                    bucket_us,
                    &mut occupancy,
                );
                ops.push(OpProfile {
                    op: name,
                    client,
                    synthetic: false,
                    begin_us: t0,
                    end_us: t1,
                    rpcs: rpc_count,
                    phase_us,
                });
            }

            // Synthetic spans: background / bare-client RPCs, one span each.
            for (ri, r) in rpcs.iter().enumerate() {
                if r.owner.is_some() || r.from == 0 {
                    continue;
                }
                let Some(t_reply) = r.t_reply else { continue };
                let phase_us = overlay_op(
                    r.t_call,
                    t_reply,
                    &[ri],
                    &rpcs,
                    &rpc_segments,
                    bucket_us,
                    &mut occupancy,
                );
                ops.push(OpProfile {
                    op: r.proc.name(),
                    client: r.from,
                    synthetic: true,
                    begin_us: r.t_call,
                    end_us: t_reply,
                    rpcs: 1,
                    phase_us,
                });
            }

            // ---- Aggregates. ----
            let mut phase_us = [0u64; NUM_PHASES];
            let mut total_us = 0u64;
            let mut op_kinds: Vec<OpKindProfile> = Vec::new();
            for o in &ops {
                total_us += o.total_us();
                for (acc, v) in phase_us.iter_mut().zip(o.phase_us.iter()) {
                    *acc += v;
                }
                match op_kinds.iter_mut().find(|k| k.op == o.op) {
                    Some(k) => {
                        k.count += 1;
                        k.total_us += o.total_us();
                        k.max_us = k.max_us.max(o.total_us());
                        for i in 0..NUM_PHASES {
                            k.phase_us[i] += o.phase_us[i];
                        }
                    }
                    None => op_kinds.push(OpKindProfile {
                        op: o.op,
                        count: 1,
                        total_us: o.total_us(),
                        max_us: o.total_us(),
                        phase_us: o.phase_us,
                    }),
                }
            }

            let rpc_latency = LatencyStats::new();
            for r in &rpcs {
                if let Some(t_reply) = r.t_reply {
                    rpc_latency.record(r.proc, SimDuration::from_micros(t_reply - r.t_call));
                }
            }

            Profile {
                ops,
                op_kinds,
                phase_us,
                total_us,
                total_rpcs: rpcs.len() as u64,
                claims,
                rpc_latency,
                bucket_us,
                occupancy,
            }
        }
    }

    /// Turn one RPC's boundary list into contiguous phase segments covering
    /// `[t_call, t_reply]` exactly. Handler intervals are subdivided by the
    /// handler's painted overlay (disk service > disk queue > callback >
    /// server CPU).
    fn resolve_rpc(r: &Rpc, handlers: &Map<u64, Handler>) -> Vec<Segment> {
        let Some(t_reply) = r.t_reply else {
            return Vec::new();
        };
        let has_xmit = r.bounds.iter().any(|(_, b)| matches!(b, Bound::Xmit));
        let mut segs: Vec<Segment> = Vec::new();
        let mut cur_t = r.t_call;
        // State carried between boundaries: either a plain phase or an open
        // handler whose overlay subdivides the interval.
        enum State {
            Plain(Phase),
            InHandler(u64),
        }
        let mut state = State::Plain(if has_xmit {
            Phase::ClientQueue
        } else {
            Phase::Unattributed
        });
        let close = |segs: &mut Vec<Segment>, state: &State, a: u64, b: u64| {
            if b <= a {
                return;
            }
            match state {
                State::Plain(p) => segs.push(Segment {
                    start: a,
                    end: b,
                    phase: *p,
                }),
                State::InHandler(h) => subdivide_handler(segs, handlers.get(h), a, b),
            }
        };
        for (t, b) in &r.bounds {
            let t = (*t).min(t_reply);
            close(&mut segs, &state, cur_t, t);
            cur_t = cur_t.max(t);
            state = match b {
                Bound::Xmit => State::Plain(Phase::Net),
                Bound::Arrive { dup: false } => State::Plain(Phase::Admission),
                Bound::Arrive { dup: true } => State::Plain(Phase::DupCache),
                Bound::HandlerBegin { h } => State::InHandler(*h),
                Bound::HandlerEnd => State::Plain(Phase::Net),
            };
        }
        close(&mut segs, &state, cur_t, t_reply);
        segs
    }

    /// Split `[a, b]` of a handler execution into phase segments using the
    /// handler's painted sub-intervals. Priority when intervals overlap:
    /// disk service, then disk queue, then callback, then server CPU.
    fn subdivide_handler(segs: &mut Vec<Segment>, handler: Option<&Handler>, a: u64, b: u64) {
        let Some(h) = handler else {
            segs.push(Segment {
                start: a,
                end: b,
                phase: Phase::ServerCpu,
            });
            return;
        };
        // Breakpoints: interval ends plus every painted edge inside it.
        let mut cuts: Vec<u64> = vec![a, b];
        for &(s, e, _) in &h.subs {
            for t in [s, e] {
                if t > a && t < b {
                    cuts.push(t);
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mid = lo; // phases are constant on [lo, hi); probe the start
            let covered = |p: Phase| {
                h.subs
                    .iter()
                    .any(|&(s, e, q)| q == p && s <= mid && e > mid)
            };
            let phase = if covered(Phase::DiskService) {
                Phase::DiskService
            } else if covered(Phase::DiskQueue) {
                Phase::DiskQueue
            } else if covered(Phase::Callback) {
                Phase::Callback
            } else {
                Phase::ServerCpu
            };
            // Coalesce with the previous segment when the phase repeats.
            match segs.last_mut() {
                Some(last) if last.end == lo && last.phase == phase => last.end = hi,
                _ => segs.push(Segment {
                    start: lo,
                    end: hi,
                    phase,
                }),
            }
        }
    }

    /// Partition the span `[t0, t1]` across phases given its child RPCs'
    /// resolved segments, accumulating into `occupancy` buckets as well.
    /// Returns the exact per-phase breakdown (sums to `t1 - t0`).
    fn overlay_op(
        t0: u64,
        t1: u64,
        children: &[usize],
        rpcs: &[Rpc],
        rpc_segments: &[Vec<Segment>],
        bucket_us: u64,
        occupancy: &mut Vec<[u64; NUM_PHASES]>,
    ) -> [u64; NUM_PHASES] {
        let mut phase_us = [0u64; NUM_PHASES];
        if t1 <= t0 {
            return phase_us;
        }
        // Instants where the attribution can change: span ends plus every
        // child segment edge (clipped to the span).
        let mut cuts: Vec<u64> = vec![t0, t1];
        for &ri in children {
            for s in &rpc_segments[ri] {
                for t in [s.start, s.end] {
                    if t > t0 && t < t1 {
                        cuts.push(t);
                    }
                }
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            // Charge [lo, hi) to the earliest-issued RPC active at `lo`
            // (ties by sequence number), or cache-local when none is.
            let mut chosen: Option<(u64, u64, Phase)> = None; // (t_call, seq, phase)
            for &ri in children {
                let r = &rpcs[ri];
                let Some(seg) = rpc_segments[ri]
                    .iter()
                    .find(|s| s.start <= lo && s.end > lo)
                else {
                    continue;
                };
                let key = (r.t_call, r.seq);
                if chosen.is_none_or(|(tc, sq, _)| key < (tc, sq)) {
                    chosen = Some((r.t_call, r.seq, seg.phase));
                }
            }
            let phase = chosen.map_or(Phase::CacheLocal, |(_, _, p)| p);
            phase_us[phase.index()] += hi - lo;
            add_occupancy(occupancy, bucket_us, lo, hi, phase);
        }
        phase_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spritely_metrics::json::{parse, Value};
    use spritely_proto::{ClientId, FileHandle};

    use crate::EventKind;

    fn ev(seq: u64, t_us: u64, parent: u64, kind: EventKind) -> TraceEvent {
        TraceEvent::new(seq, t_us, parent, kind)
    }

    fn fh() -> FileHandle {
        FileHandle::new(1, 7, 1)
    }

    /// One op with one fully-boundary-annotated RPC: every phase lands
    /// where the timeline says, and the partition is exact.
    #[test]
    fn single_rpc_attribution_is_exact() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                0,
                0,
                EventKind::OpBegin {
                    client: c,
                    op: "open",
                    fh: fh(),
                },
            ),
            ev(
                2,
                100,
                1,
                EventKind::RpcCall {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Open,
                    fh: Some(fh()),
                    offset: 0,
                    len: 0,
                },
            ),
            ev(3, 150, 2, EventKind::RpcXmit { from: c, xid: 1 }),
            ev(
                4,
                250,
                2,
                EventKind::RpcArrive {
                    from: c,
                    xid: 1,
                    dup: false,
                },
            ),
            ev(
                5,
                300,
                2,
                EventKind::HandlerBegin {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Open,
                },
            ),
            ev(
                6,
                700,
                5,
                EventKind::HandlerEnd {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Open,
                    ok: true,
                },
            ),
            ev(
                7,
                800,
                2,
                EventKind::RpcReply {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Open,
                    ok: true,
                },
            ),
            ev(
                8,
                900,
                1,
                EventKind::OpEnd {
                    client: c,
                    op: "open",
                    ok: true,
                },
            ),
        ];
        let p = profile_trace(&events);
        assert_eq!(p.ops.len(), 1);
        let o = &p.ops[0];
        assert_eq!(o.total_us(), 900);
        assert_eq!(o.phase_us.iter().sum::<u64>(), 900);
        assert_eq!(o.phase_us[Phase::CacheLocal.index()], 200); // 0-100, 800-900
        assert_eq!(o.phase_us[Phase::ClientQueue.index()], 50); // 100-150
        assert_eq!(o.phase_us[Phase::Net.index()], 200); // 150-250, 700-800
        assert_eq!(o.phase_us[Phase::Admission.index()], 50); // 250-300
        assert_eq!(o.phase_us[Phase::ServerCpu.index()], 400); // 300-700
        assert_eq!(o.phase_us[Phase::Unattributed.index()], 0);
        assert_eq!(p.claims.op, 1);
        assert_eq!(p.claims.total(), 1);
        assert!((p.attributed_fraction() - 1.0).abs() < 1e-12);
    }

    /// Disk and callback intervals subdivide handler time.
    #[test]
    fn handler_overlay_splits_disk_and_callback() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                0,
                0,
                EventKind::OpBegin {
                    client: c,
                    op: "close",
                    fh: fh(),
                },
            ),
            ev(
                2,
                0,
                1,
                EventKind::RpcCall {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Close,
                    fh: Some(fh()),
                    offset: 0,
                    len: 0,
                },
            ),
            ev(3, 10, 2, EventKind::RpcXmit { from: c, xid: 1 }),
            ev(
                4,
                20,
                2,
                EventKind::RpcArrive {
                    from: c,
                    xid: 1,
                    dup: false,
                },
            ),
            ev(
                5,
                30,
                2,
                EventKind::HandlerBegin {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Close,
                },
            ),
            // Disk request: queued at 40, waits 20 (dispatch 60), done 100.
            ev(
                6,
                40,
                0,
                EventKind::DiskQueue {
                    disk: "srv".into(),
                    req: 1,
                    block: 5,
                    write: true,
                },
            ),
            ev(
                7,
                100,
                0,
                EventKind::DiskDone {
                    disk: "srv".into(),
                    req: 1,
                    block: 5,
                    write: true,
                    wait_us: 20,
                    pos_us: 10,
                },
            ),
            // Callback from 120 to 180 inside the handler.
            ev(
                8,
                120,
                5,
                EventKind::CallbackBegin {
                    target: ClientId(2),
                    fh: fh(),
                    writeback: true,
                    invalidate: false,
                },
            ),
            ev(
                9,
                180,
                8,
                EventKind::CallbackEnd {
                    target: ClientId(2),
                    fh: fh(),
                    ok: true,
                },
            ),
            ev(
                10,
                200,
                5,
                EventKind::HandlerEnd {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Close,
                    ok: true,
                },
            ),
            ev(
                11,
                210,
                2,
                EventKind::RpcReply {
                    from: c,
                    xid: 1,
                    proc: NfsProc::Close,
                    ok: true,
                },
            ),
            ev(
                12,
                210,
                1,
                EventKind::OpEnd {
                    client: c,
                    op: "close",
                    ok: true,
                },
            ),
        ];
        let p = profile_trace(&events);
        let o = &p.ops[0];
        assert_eq!(o.phase_us.iter().sum::<u64>(), 210);
        assert_eq!(o.phase_us[Phase::DiskQueue.index()], 20); // 40-60
        assert_eq!(o.phase_us[Phase::DiskService.index()], 40); // 60-100
        assert_eq!(o.phase_us[Phase::Callback.index()], 60); // 120-180
                                                             // Handler CPU: 30-40 + 100-120 + 180-200 = 50.
        assert_eq!(o.phase_us[Phase::ServerCpu.index()], 50);
        assert_eq!(o.phase_us[Phase::Unattributed.index()], 0);
    }

    /// An RPC without transmit boundaries (old trace) degrades to
    /// unattributed, not to a panic or a silent misattribution.
    #[test]
    fn boundary_free_rpc_is_unattributed() {
        let c = ClientId(3);
        let events = vec![
            ev(
                1,
                0,
                0,
                EventKind::RpcCall {
                    from: c,
                    xid: 9,
                    proc: NfsProc::Read,
                    fh: None,
                    offset: 0,
                    len: 0,
                },
            ),
            ev(
                2,
                500,
                1,
                EventKind::RpcReply {
                    from: c,
                    xid: 9,
                    proc: NfsProc::Read,
                    ok: true,
                },
            ),
        ];
        let p = profile_trace(&events);
        assert_eq!(p.ops.len(), 1);
        assert!(p.ops[0].synthetic);
        assert_eq!(p.ops[0].op, "read");
        assert_eq!(p.ops[0].phase_us[Phase::Unattributed.index()], 500);
        assert_eq!(p.claims.background, 1);
    }

    /// Overlapping child RPCs: each instant goes to the earliest-issued
    /// active RPC, and the op partition still sums exactly.
    #[test]
    fn concurrent_rpcs_partition_exactly() {
        let c = ClientId(1);
        let mut events = vec![ev(
            1,
            0,
            0,
            EventKind::OpBegin {
                client: c,
                op: "open",
                fh: fh(),
            },
        )];
        // Two RPCs: A spans 10..200, B spans 50..300 (overlap 50..200).
        for (seq, xid, t_call, t_reply) in [(2u64, 1u64, 10u64, 200u64), (6, 2, 50, 300)] {
            events.push(ev(
                seq,
                t_call,
                1,
                EventKind::RpcCall {
                    from: c,
                    xid,
                    proc: NfsProc::Read,
                    fh: None,
                    offset: 0,
                    len: 0,
                },
            ));
            events.push(ev(
                seq + 1,
                t_call + 5,
                seq,
                EventKind::RpcXmit { from: c, xid },
            ));
            events.push(ev(
                seq + 2,
                t_call + 10,
                seq,
                EventKind::RpcArrive {
                    from: c,
                    xid,
                    dup: false,
                },
            ));
            events.push(ev(
                seq + 3,
                t_reply,
                seq,
                EventKind::RpcReply {
                    from: c,
                    xid,
                    proc: NfsProc::Read,
                    ok: true,
                },
            ));
        }
        events.push(ev(
            10,
            400,
            1,
            EventKind::OpEnd {
                client: c,
                op: "open",
                ok: true,
            },
        ));
        // Fix seqs to be strictly increasing in time order.
        events.sort_by_key(|e| (e.t_us, e.seq));
        let p = profile_trace(&events);
        let o = &p.ops[0];
        assert_eq!(o.rpcs, 2);
        assert_eq!(o.phase_us.iter().sum::<u64>(), 400);
        // 0-10 and 300-400 have no RPC outstanding.
        assert_eq!(o.phase_us[Phase::CacheLocal.index()], 110);
        assert_eq!(p.claims.op, 2);
    }

    #[test]
    fn occupancy_buckets_cover_attributed_time() {
        let c = ClientId(1);
        let events = vec![
            ev(
                1,
                0,
                0,
                EventKind::OpBegin {
                    client: c,
                    op: "open",
                    fh: fh(),
                },
            ),
            ev(
                2,
                2_500_000,
                1,
                EventKind::OpEnd {
                    client: c,
                    op: "open",
                    ok: true,
                },
            ),
        ];
        let p = profile_trace(&events);
        assert_eq!(p.occupancy.len(), 3);
        let total: u64 = p
            .occupancy
            .iter()
            .map(|b| b[Phase::CacheLocal.index()])
            .sum();
        assert_eq!(total, 2_500_000);
        assert_eq!(p.occupancy[0][Phase::CacheLocal.index()], 1_000_000);
        assert_eq!(p.occupancy[2][Phase::CacheLocal.index()], 500_000);
    }

    /// The document is stable and says what the profile says: each
    /// `phase_us` object sums to its total, the `op_kinds` counts to `ops`.
    #[test]
    fn json_is_stable_and_self_consistent() {
        let c = ClientId(1);
        let mut events = Vec::new();
        for (seq, t, op) in [(1, 0, "open"), (3, 200, "read")] {
            let begin = EventKind::OpBegin {
                client: c,
                op,
                fh: fh(),
            };
            let end = EventKind::OpEnd {
                client: c,
                op,
                ok: true,
            };
            events.push(ev(seq, t, 0, begin));
            events.push(ev(seq + 1, 2 * t + 100, seq, end));
        }
        let json = profile_trace(&events).to_json();
        assert_eq!(json, profile_trace(&events).to_json());
        let doc = parse(&json).expect("the profile is JSON");
        let num = |v: Option<&Value>| match v {
            Some(Value::Num(n)) => *n,
            other => panic!("not a number: {other:?}"),
        };
        let sum = |v: Option<&Value>| match v {
            Some(Value::Obj(fields)) => fields.iter().map(|(_, n)| num(Some(n))).sum::<f64>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(sum(doc.get("phase_us")), num(doc.get("total_op_us")));
        assert_eq!(num(doc.get("total_op_us")), 400.0);
        let Some(Value::Arr(kinds)) = doc.get("op_kinds") else {
            panic!("no op_kinds array in {json}");
        };
        for k in kinds {
            assert_eq!(sum(k.get("phase_us")), num(k.get("total_us")));
        }
        let counted: f64 = kinds.iter().map(|k| num(k.get("count"))).sum();
        assert_eq!((counted, num(doc.get("ops"))), (2.0, 2.0));
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "{}", p.name());
        }
    }

    /// Resolved segments sit in one array, RPC after RPC, and a handler
    /// interval coalesces with the segment before it: that must not reach
    /// back into the previous RPC when it ended, mid-handler, at the very
    /// instant this one's handler begins.
    #[test]
    fn back_to_back_rpcs_keep_their_own_segments() {
        let c = ClientId(1);
        let (xid, proc, ok) = (1, NfsProc::Read, true);
        let mut events = Vec::new();
        for (seq, t) in [(1, 0), (4, 100)] {
            let call = EventKind::RpcCall {
                from: c,
                xid,
                proc,
                fh: None,
                offset: 0,
                len: 0,
            };
            events.push(ev(seq, t, 0, call));
            let begin = EventKind::HandlerBegin { from: c, xid, proc };
            events.push(ev(seq + 1, t, seq, begin));
            #[rustfmt::skip]
            events.push(ev(seq + 2, t + 100, seq, EventKind::RpcReply { from: c, xid, proc, ok }));
        }
        let p = profile_trace(&events);
        assert_eq!(p.ops.len(), 2);
        for o in &p.ops {
            assert_eq!(o.phase_us[Phase::ServerCpu.index()], 100, "{o:?}");
        }
        let want = reference::profile_trace_bucketed(&events, SimDuration::from_secs(1));
        assert_eq!(p.ops, want.ops);
    }

    // ---- the sweep against the reference, on generated traces ----

    /// A generated event's kind, before it is given fields.
    #[derive(Clone, Copy, PartialEq)]
    enum K {
        OpBegin,
        OpEnd,
        Call,
        Xmit,
        Arrive,
        Reply,
        HBegin,
        HEnd,
        CbBegin,
        CbEnd,
        DiskQ,
        DiskD,
        /// Any event the profiler only follows parent links through.
        Link,
    }

    /// What one step of the generator does.
    #[derive(Clone, Copy)]
    enum Act {
        Emit(K),
        /// The next event in the life of a recent RPC: transmit, arrive,
        /// handler begin, handler end, reply, then late duplicates.
        Advance,
        /// One more transmission or arrival of a recent RPC, at any stage.
        Retransmit,
    }

    /// One step is `(act, time step, pick, parent mode)`. First every
    /// step becomes an event under the parent it belongs under — one of
    /// the last three candidates, which nests ops, overlaps an op's RPCs,
    /// retransmits, replies twice or never, leaves handlers and callbacks
    /// open, hangs callback RPCs under handlers and background RPCs under
    /// nothing. Then some parents are made wrong on purpose: dangling,
    /// the event itself, a later event, an earlier event of any kind, or
    /// none. Time never runs backwards; sequence numbers are unique and
    /// nonzero, but may have gaps and need not follow array order.
    ///
    /// Left out, because the reference answers it with an op that ends
    /// before it begins: an `op_end` ahead of its `op_begin` in the
    /// array. The sweep ignores such an `op_end`.
    fn generated(steps: &[(Act, usize, u64, u8)]) -> Vec<TraceEvent> {
        let n = steps.len();
        // (kind, index of the parent it belongs under, `from`)
        let mut plan: Vec<(K, Option<usize>, u32)> = Vec::new();
        // Per RPC: (index of its call, events emitted so far, its handler).
        let mut rpcs: Vec<(usize, u32, Option<usize>)> = Vec::new();
        for (i, &(act, _, pick, _)) in steps.iter().enumerate() {
            let recent = |k: &[K]| {
                let found = plan.iter().enumerate().filter(|(_, p)| k.contains(&p.0));
                let found: Vec<usize> = found.map(|(j, _)| j).collect();
                let back = (pick >> 4) as usize % 3;
                found
                    .iter()
                    .rev()
                    .nth(back.min(found.len().max(1) - 1))
                    .copied()
            };
            let step = match act {
                Act::Emit(k) => {
                    let parent = match k {
                        K::OpBegin | K::DiskQ | K::DiskD => None,
                        K::OpEnd => recent(&[K::OpBegin]),
                        K::Call => match pick >> 6 & 7 {
                            0 => None,
                            1 | 2 => recent(&[K::HBegin]),
                            3 => recent(&[K::Link]),
                            _ => recent(&[K::OpBegin]),
                        },
                        K::HBegin => recent(&[K::Call]).filter(|_| pick >> 6 & 1 == 0),
                        K::CbBegin => recent(&[K::HBegin, K::Link]),
                        K::CbEnd => recent(&[K::CbBegin]),
                        _ => recent(&[K::OpBegin, K::HBegin, K::Link, K::Call]),
                    };
                    let under_handler = parent.is_some_and(|j| plan[j].0 == K::HBegin);
                    let from = if under_handler {
                        0
                    } else {
                        1 + (pick >> 9 & 1) as u32
                    };
                    if k == K::Call {
                        rpcs.push((i, 0, None));
                    }
                    (k, parent, from)
                }
                Act::Advance | Act::Retransmit if rpcs.is_empty() => (K::Link, None, 0),
                Act::Advance => {
                    // Mostly the least advanced of the last three, so that
                    // RPCs overlap and still finish.
                    let tail = rpcs.len().saturating_sub(3);
                    let behind = (tail..rpcs.len()).min_by_key(|&r| rpcs[r].1);
                    let which = if pick >> 4 & 3 == 0 {
                        tail
                    } else {
                        behind.unwrap_or(tail)
                    };
                    let (call, stage, handler) = &mut rpcs[which];
                    *stage += 1;
                    match *stage {
                        1 => (K::Xmit, Some(*call), plan[*call].2),
                        2 => (K::Arrive, Some(*call), plan[*call].2),
                        3 => {
                            *handler = Some(i);
                            (K::HBegin, Some(*call), plan[*call].2)
                        }
                        4 => (K::HEnd, *handler, plan[*call].2),
                        5 | 7 => (K::Reply, Some(*call), plan[*call].2),
                        _ => (K::Arrive, Some(*call), plan[*call].2),
                    }
                }
                Act::Retransmit => {
                    let (call, ..) = rpcs[rpcs.len() - 1 - (pick >> 4) as usize % 3 % rpcs.len()];
                    let k = if pick >> 9 & 1 == 0 {
                        K::Xmit
                    } else {
                        K::Arrive
                    };
                    (k, Some(call), plan[call].2)
                }
            };
            plan.push(step);
        }

        let shape = steps[0].2;
        let mut seq: Vec<u64> = (0..n as u64).map(|i| 1 + i * (1 + shape % 3)).collect();
        if shape & 4 != 0 {
            for j in (0..n - 1).step_by(2).filter(|&j| steps[j].2 & 8 != 0) {
                seq.swap(j, j + 1);
            }
        }
        let (c, fh) = (ClientId(1), fh());
        let mut t = 0;
        let mut last_queued = ("d0", 0);
        let mut events = Vec::new();
        for (i, &(_, dt, pick, mode)) in steps.iter().enumerate() {
            t += [0, 0, 1, 7, 40, 400][dt];
            let (k, parent, from) = plan[i];
            let any = |from: usize, to: usize, ok: &dyn Fn(K) -> bool| {
                let found: Vec<usize> = (from..to).filter(|&j| ok(plan[j].0)).collect();
                found
                    .get((pick >> 16) as usize % found.len().max(1))
                    .copied()
            };
            let parent = match mode {
                0 => Some(1_000_000 + pick % 5),
                1 => Some(seq[i]),
                2 => any(i + 1, n, &|p| !(k == K::OpEnd && p == K::OpBegin)).map(|j| seq[j]),
                3 => any(0, i, &|_| true).map(|j| seq[j]),
                4 => None,
                _ => parent.map(|j| seq[j]),
            };
            let from = ClientId(if pick >> 24 & 15 == 0 { 0 } else { from });
            let proc = [NfsProc::Read, NfsProc::Write, NfsProc::Open][(pick >> 10) as usize % 3];
            let op = ["open", "close", "read"][(pick >> 10) as usize % 3];
            let (xid, block, ok) = (1, 0, true);
            let (disk, req) = match k {
                K::DiskD if pick >> 12 & 3 != 0 => last_queued,
                _ => (["d0", "d1"][(pick >> 12) as usize % 2], pick >> 13 & 3),
            };
            if k == K::DiskQ {
                last_queued = (disk, req);
            }
            let disk: Name = disk.into();
            let kind = match k {
                K::OpBegin => EventKind::OpBegin { client: c, op, fh },
                K::OpEnd => EventKind::OpEnd { client: c, op, ok },
                K::Call => EventKind::RpcCall {
                    from,
                    xid,
                    proc,
                    fh: None,
                    offset: 0,
                    len: 0,
                },
                K::Xmit => EventKind::RpcXmit { from, xid },
                K::Arrive => EventKind::RpcArrive {
                    from,
                    xid,
                    dup: pick >> 9 & 3 == 0,
                },
                #[rustfmt::skip]
                K::Reply => EventKind::RpcReply { from, xid, proc, ok },
                K::HBegin => EventKind::HandlerBegin { from, xid, proc },
                #[rustfmt::skip]
                K::HEnd => EventKind::HandlerEnd { from, xid, proc, ok },
                K::CbBegin => EventKind::CallbackBegin {
                    target: c,
                    fh,
                    writeback: true,
                    invalidate: false,
                },
                K::CbEnd => EventKind::CallbackEnd { target: c, fh, ok },
                #[rustfmt::skip]
                K::DiskQ => EventKind::DiskQueue { disk, req, block, write: true },
                K::DiskD => EventKind::DiskDone {
                    disk,
                    req,
                    block,
                    write: true,
                    wait_us: pick >> 20 & 15,
                    pos_us: 0,
                },
                K::Link => EventKind::Invalidate { client: c, fh },
            };
            events.push(ev(seq[i], t, parent.unwrap_or(0), kind));
        }
        events
    }

    /// The two shapes the chained layout must get right, counted in one
    /// trace. First, events that close or mark a record under a parent that
    /// opened none (an `rpc_xmit`, a link): they must find no slot there.
    /// Second, answered client RPCs called under an op after its `op_end`:
    /// the op still counts them in `rpcs`.
    fn layout_shapes(events: &[TraceEvent]) -> (usize, usize) {
        let opens = |t| {
            matches!(
                t,
                Tag::OpBegin | Tag::RpcCall | Tag::HandlerBegin | Tag::CallbackBegin
            )
        };
        let reads_slot = |t| {
            matches!(
                t,
                Tag::OpEnd
                    | Tag::RpcReply
                    | Tag::RpcXmit
                    | Tag::RpcArrive
                    | Tag::HandlerEnd
                    | Tag::CallbackEnd
            )
        };
        // Only events earlier in the array are parents, as in the sweep.
        let mut seen: Map<u32, Tag> = Map::default();
        let (mut ended, mut late_calls) =
            (spritely_sim::Set::default(), spritely_sim::Set::default());
        let (mut slotless, mut late) = (0, 0);
        for e in events {
            let parent = seen.get(&e.parent).copied();
            if parent.is_some_and(|p| !opens(p)) && reads_slot(e.tag) {
                slotless += 1;
            }
            match e.view() {
                Event::OpEnd { .. } if parent == Some(Tag::OpBegin) => {
                    ended.insert(e.parent);
                }
                Event::RpcCall { from, .. } if from.0 != 0 && ended.contains(&e.parent) => {
                    late_calls.insert(e.seq);
                }
                Event::RpcReply { .. } if late_calls.remove(&e.parent) => late += 1,
                _ => {}
            }
            seen.insert(e.seq, e.tag);
        }
        (slotless, late)
    }

    /// The table layout the per-RPC byte budget of `tests/zero_copy.rs`
    /// rests on.
    #[test]
    fn the_tables_rows_are_their_documented_sizes() {
        use std::mem::size_of;
        let sizes = (
            size_of::<Rpc>(),
            size_of::<Op>(),
            size_of::<(u64, u32, u32)>(),
        );
        assert_eq!(sizes, (48, 32, 16));
    }

    #[test]
    fn the_sweep_computes_what_the_map_profiler_computed() {
        use proptest::prelude::*;
        let act = prop_oneof![
            2 => Just(Act::Emit(K::OpBegin)),
            2 => Just(Act::Emit(K::OpEnd)),
            2 => Just(Act::Emit(K::Call)),
            16 => Just(Act::Advance),
            1 => Just(Act::Retransmit),
            2 => Just(Act::Emit(K::DiskQ)),
            3 => Just(Act::Emit(K::DiskD)),
            1 => Just(Act::Emit(K::CbBegin)),
            1 => Just(Act::Emit(K::CbEnd)),
            1 => Just(Act::Emit(K::Link)),
            1 => Just(Act::Emit(K::HBegin)),
        ];
        let step = (act, 0..6usize, any::<u64>(), 0..60u8);
        let steps = proptest::collection::vec(step, 1..200);
        // What the generated traces exercised, summed over the cases.
        let (mut spans, mut synthetic, mut painted, mut multi) = (0, 0, 0, 0);
        // Single-RPC ops, and traces whose handlers all ran unpainted:
        // the two shortcuts of `Overlay::op` and `subdivide_handler`.
        let (mut lone, mut bare) = (0, 0);
        // The shapes of `layout_shapes`.
        let (mut slotless, mut late) = (0, 0);
        let mut claims = RpcClaims::default();
        TestRunner::new(ProptestConfig::with_cases(768)).run_cases(|rng| {
            let events = generated(&steps.generate_value(rng));
            let bucket = SimDuration::from_micros(64);
            let want = reference::profile_trace_bucketed(&events, bucket);
            let got = profile_trace_bucketed(&events, bucket);
            assert_eq!(got.ops, want.ops);
            assert_eq!(got.op_kinds, want.op_kinds);
            assert_eq!(got.phase_us, want.phase_us);
            assert_eq!(got.claims, want.claims);
            assert_eq!(got.occupancy, want.occupancy);
            assert_eq!(got.to_json(), want.to_json());
            spans += got.ops.len();
            synthetic += got.ops.iter().filter(|o| o.synthetic).count();
            multi += got.ops.iter().filter(|o| o.rpcs > 1).count();
            let disk = [Phase::DiskQueue, Phase::DiskService, Phase::Callback];
            let paints = disk.iter().filter(|p| got.phase_total(**p) > 0).count();
            painted += paints;
            lone += got.ops.iter().filter(|o| o.rpcs == 1).count();
            bare += usize::from(paints == 0 && got.phase_total(Phase::ServerCpu) > 0);
            let shapes = layout_shapes(&events);
            slotless += shapes.0;
            late += shapes.1;
            claims.op += got.claims.op;
            claims.callback += got.claims.callback;
            claims.background += got.claims.background;
            claims.incomplete += got.claims.incomplete;
        });
        println!("{spans} spans ({synthetic} synthetic, {multi} with several RPCs, {lone} with one), {painted} painted phases, {bare} unpainted traces, {slotless} slot readers under a non-opener, {late} RPCs called after their op ended, {claims:?}");
        // The generator is not vacuous: every shape turned up often.
        assert!(spans > 2_000 && synthetic > 500 && multi > 80 && painted > 150);
        assert!(lone > 1_000 && bare > 200);
        assert!(slotless > 200 && late > 200);
        assert!(claims.op > 700 && claims.callback > 120 && claims.incomplete > 500);
    }
}
