//! Outside-in span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into the program: `Testbed::build*`, set-up, each Andrew phase, the
//! measured window, `finish_trace()`, and — through [`TimedProc`] —
//! every syscall the scripted workloads issue. Each span carries its
//! name, client id, parent span, and start/end on both clocks.
//!
//! The op counters (ops, retries, failures) are always on. Span records
//! are kept only in the traced pass, in memory, and written once when
//! the run ends (Chrome `trace_event` JSON).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use spritely::proto::{Fattr, NfsStatus, Result};
use spritely::sim::{Sim, SimDuration};
use spritely::vfs::{Fd, OpenFlags, Proc};

/// Index of a span in its log, plus one; 0 is "no span" (a root's
/// parent, or any span of an untraced pass).
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// 0 for the benchmark driver itself, else the 1-based client id.
    pub client: u32,
    pub parent: SpanId,
    /// True for a `TimedProc` syscall (the `vfs.op_*` percentiles are
    /// taken over these).
    pub op: bool,
    pub sim_start_us: u64,
    pub sim_end_us: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

/// The always-on counters of the scripted workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Logical syscalls issued through a [`TimedProc`].
    pub ops: u64,
    /// Extra attempts after a failed one.
    pub retries: u64,
    /// Logical syscalls that still failed when the retry budget ran out.
    pub failures: u64,
}

struct Inner {
    keep: bool,
    host0: Instant,
    sim: RefCell<Option<Sim>>,
    spans: RefCell<Vec<Span>>,
    counters: Cell<OpCounters>,
}

/// A cheaply clonable handle on one repetition's spans and counters.
#[derive(Clone)]
pub struct SpanLog {
    inner: Rc<Inner>,
}

impl SpanLog {
    /// `keep` = record spans (the traced pass); counters run regardless.
    pub fn new(keep: bool) -> Self {
        SpanLog {
            inner: Rc::new(Inner {
                keep,
                host0: Instant::now(),
                sim: RefCell::new(None),
                spans: RefCell::new(Vec::new()),
                counters: Cell::new(OpCounters::default()),
            }),
        }
    }

    /// Gives the log its simulated clock (spans opened before the
    /// testbed exists read simulated time 0).
    pub fn attach(&self, sim: &Sim) {
        *self.inner.sim.borrow_mut() = Some(sim.clone());
    }

    fn clocks(&self) -> (u64, u64) {
        let sim_us = self
            .inner
            .sim
            .borrow()
            .as_ref()
            .map_or(0, |s| s.now().as_micros());
        (sim_us, self.inner.host0.elapsed().as_nanos() as u64)
    }

    fn open(&self, name: &'static str, client: u32, parent: SpanId, op: bool) -> SpanId {
        if !self.inner.keep {
            return 0;
        }
        let (sim_us, host_ns) = self.clocks();
        let mut spans = self.inner.spans.borrow_mut();
        spans.push(Span {
            name,
            client,
            parent,
            op,
            sim_start_us: sim_us,
            sim_end_us: sim_us,
            host_start_ns: host_ns,
            host_end_ns: host_ns,
        });
        spans.len() as SpanId
    }

    fn close(&self, id: SpanId) {
        if id == 0 {
            return;
        }
        let (sim_us, host_ns) = self.clocks();
        let mut spans = self.inner.spans.borrow_mut();
        let s = &mut spans[id as usize - 1];
        s.sim_end_us = sim_us;
        s.host_end_ns = host_ns;
    }

    /// Opens a span that closes when the returned guard drops.
    pub fn scope(&self, name: &'static str, client: u32, parent: SpanId) -> Scope {
        Scope {
            log: self.clone(),
            id: self.open(name, client, parent, false),
        }
    }

    fn bump(&self, f: impl FnOnce(&mut OpCounters)) {
        let mut c = self.inner.counters.get();
        f(&mut c);
        self.inner.counters.set(c);
    }

    pub fn counters(&self) -> OpCounters {
        self.inner.counters.get()
    }

    /// Takes the recorded spans out of the log.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.spans.borrow_mut())
    }
}

/// Guard of an open span.
pub struct Scope {
    log: SpanLog,
    id: SpanId,
}

impl Scope {
    /// The span's id, for use as a child's parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        self.log.close(self.id);
    }
}

/// Attempts per syscall before it counts as failed — the bounded form
/// of the scaling bench's `insist!`.
pub const RETRY_BUDGET: u32 = 16;

/// A `vfs::Proc` whose syscalls are counted, retried within
/// [`RETRY_BUDGET`], and (in the traced pass) recorded as spans.
pub struct TimedProc {
    proc: Proc,
    client: u32,
    parent: SpanId,
    log: SpanLog,
}

impl TimedProc {
    pub fn new(proc: Proc, client: u32, parent: SpanId, log: &SpanLog) -> Self {
        TimedProc {
            proc,
            client,
            parent,
            log: log.clone(),
        }
    }

    /// Jittered by client id and growing with the attempt count: in a
    /// deterministic simulator a fixed shared delay keeps a herd of
    /// retrying clients phase-locked.
    fn backoff(&self, attempt: u32) -> SimDuration {
        SimDuration::from_millis((50 + (u64::from(self.client) * 13) % 250) * u64::from(attempt))
    }

    /// Runs one logical syscall: `f(attempt)` is tried up to
    /// [`RETRY_BUDGET`] times with backoff; `None` means it still failed
    /// and was counted as a failed operation.
    async fn op<T, Fut>(&self, name: &'static str, f: impl Fn(u32) -> Fut) -> Option<T>
    where
        Fut: Future<Output = Result<T>>,
    {
        let span = self.log.open(name, self.client, self.parent, true);
        self.log.bump(|c| c.ops += 1);
        let mut out = None;
        for attempt in 1..=RETRY_BUDGET {
            match f(attempt).await {
                Ok(v) => {
                    out = Some(v);
                    break;
                }
                Err(_) if attempt < RETRY_BUDGET => {
                    self.log.bump(|c| c.retries += 1);
                    self.proc.sim().sleep(self.backoff(attempt)).await;
                }
                Err(_) => self.log.bump(|c| c.failures += 1),
            }
        }
        self.log.close(span);
        out
    }

    pub async fn open(&self, path: &str, flags: OpenFlags) -> Option<Fd> {
        self.op("open", |_| self.proc.open(path, flags)).await
    }

    /// `Proc::close` tears the fd down before the wire close, so after a
    /// transport give-up a retry can only see `Inval`: either the close
    /// executed or the server reconciles the open count through its
    /// liveness machinery. That counts as closed.
    pub async fn close(&self, fd: Fd) -> Option<()> {
        self.op("close", |attempt| async move {
            match self.proc.close(fd).await {
                Err(NfsStatus::Inval) if attempt > 1 => Ok(()),
                r => r,
            }
        })
        .await
    }

    pub async fn read_at(&self, fd: Fd, offset: u64, len: u32) -> Option<Vec<u8>> {
        self.op("read", |_| self.proc.read_at(fd, offset, len))
            .await
    }

    /// Offsets are explicit, so a retried write is idempotent.
    pub async fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> Option<()> {
        self.op("write", |_| self.proc.write_at(fd, offset, data))
            .await
    }

    pub async fn fsync(&self, fd: Fd) -> Option<()> {
        self.op("fsync", |_| self.proc.fsync(fd)).await
    }

    /// Rename is not idempotent across calls: an attempt whose reply was
    /// lost may have executed, so a failed attempt is confirmed at the
    /// destination before it is retried.
    pub async fn rename(&self, from: &str, to: &str) -> Option<()> {
        self.op("rename", |_| async move {
            match self.proc.rename(from, to).await {
                Err(e) if self.proc.stat(to).await.is_err() => Err(e),
                _ => Ok(()),
            }
        })
        .await
    }

    /// Stats `path`, or `moved` when `path` no longer exists (a subtree
    /// that may have been renamed away in the meantime).
    pub async fn stat_either(&self, path: &str, moved: &str) -> Option<Fattr> {
        self.op("stat", |_| async move {
            match self.proc.stat(path).await {
                Err(NfsStatus::NoEnt) => self.proc.stat(moved).await,
                r => r,
            }
        })
        .await
    }
}

/// `q`-quantile (0..=1) of the op spans' simulated latencies, in ms;
/// `only` restricts it to one syscall name. 0 with no samples.
pub fn op_latency_ms(spans: &[Span], only: Option<&str>, q: f64) -> f64 {
    let mut us: Vec<u64> = spans
        .iter()
        .filter(|s| s.op && only.is_none_or(|n| s.name == n))
        .map(|s| s.sim_end_us - s.sim_start_us)
        .collect();
    if us.is_empty() {
        return 0.0;
    }
    us.sort_unstable();
    let rank = ((us.len() as f64 * q).ceil() as usize).clamp(1, us.len());
    us[rank - 1] as f64 / 1e3
}

/// Chrome `trace_event` JSON of one repetition's spans. Every span is
/// written twice: under pid 1 on the simulated clock and under pid 2 on
/// the host clock, one thread per client (tid 0 = the driver).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from(
        "{\"traceEvents\":[\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"simulated clock\"}},\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"host clock\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        let sim = (
            s.sim_start_us as f64,
            (s.sim_end_us - s.sim_start_us) as f64,
        );
        let host = (
            s.host_start_ns as f64 / 1e3,
            (s.host_end_ns - s.host_start_ns) as f64 / 1e3,
        );
        for (pid, (ts, dur)) in [(1, sim), (2, host)] {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\"dur\":{dur},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.client,
                i + 1,
                s.parent
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}
