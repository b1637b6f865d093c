//! A seek/rotation/transfer disk model with pluggable arm scheduling.
//!
//! The paper's server used RA81/RA82 drives ("moderately high performance"
//! for 1989). What matters for reproducing the results is not the exact
//! drive geometry but the two properties the paper leans on:
//!
//! 1. **Writes are slow and synchronous at the server** — every NFS `write`
//!    RPC costs a disk access before the reply, so write-through dominates
//!    elapsed time.
//! 2. **Sequential transfers are much cheaper than random ones** — delayed
//!    write-back batches dirty blocks into sequential runs.
//!
//! [`Disk`] models a single arm. The order requests are pulled off the
//! queue is a [`DiskSched`] policy: [`DiskSched::CLook`] services the
//! nearest block in the sweep direction, charging a seek-distance-dependent
//! positioning time, with an aging limit `max_bypass` so no request is
//! bypassed more than K times; [`DiskSched::Fifo`] (the default) is the
//! same queue with an aging limit of 0 — strict arrival order, the
//! paper-era driver — and the full `avg_position` charged for every
//! non-adjacent access. All timing is deterministic.

use std::cell::RefCell;
use std::rc::Rc;
use std::task::{Poll, Waker};

use spritely_metrics::{Histogram, InflightGauge};
use spritely_sim::{Sim, SimDuration};
use spritely_trace::{EventKind, Name, Tracer};

/// Bytes per block address: the file system's 4 KB block.
const BLOCK_BYTES: u64 = 4096;

/// Timing parameters for a [`Disk`].
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Average positioning (seek + rotational latency) for a random access.
    avg_position: SimDuration,
    /// Positioning charged when the access is sequential to the previous
    /// one (track-to-track / same-track rotation).
    seq_position: SimDuration,
    /// Media transfer rate in bytes per second.
    transfer_rate: u64,
}

impl DiskParams {
    /// Parameters approximating the paper's RA81 drive: ~28 ms average
    /// positioning, ~2.2 MB/s media rate.
    pub fn ra81() -> Self {
        DiskParams {
            avg_position: SimDuration::from_micros(28_000),
            seq_position: SimDuration::from_micros(2_500),
            transfer_rate: 2_200_000,
        }
    }

    /// Time to transfer `bytes` at the media rate.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros((bytes as u64 * 1_000_000).div_ceil(self.transfer_rate))
    }
}

/// Arm scheduling policy for a [`Disk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskSched {
    /// Strict arrival order; every non-adjacent access pays the full
    /// `avg_position`. This is the paper-era behavior and the default.
    #[default]
    Fifo,
    /// C-LOOK elevator: serve the pending request with the smallest block
    /// address at or above the arm's current position, wrapping to the
    /// lowest pending address when the sweep runs dry. Positioning is
    /// charged by seek distance (`Disk::position`).
    CLook {
        /// Aging limit: once a request has been bypassed this many times
        /// it is served before any sweep-order pick, so no request is
        /// ever bypassed more than `max_bypass` times.
        max_bypass: u32,
        /// Seek distance (in blocks) treated as a full stroke; longer
        /// seeks are charged the same as a full stroke.
        stroke_blocks: u64,
    },
}

impl DiskSched {
    /// The value of the `disk_sched` trace meta event for this policy,
    /// parsed back by the trace checker's reordering-bound rule.
    pub fn meta_value(&self) -> String {
        match self {
            DiskSched::Fifo => "fifo".to_string(),
            DiskSched::CLook { max_bypass, .. } => format!("clook:{max_bypass}"),
        }
    }
}

/// Cumulative statistics for one disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
}

/// A single-arm disk with a scheduled request queue.
#[derive(Clone)]
pub struct Disk {
    sim: Sim,
    /// The disk's name.
    label: Rc<str>,
    params: DiskParams,
    sched: DiskSched,
    state: Rc<RefCell<DiskState>>,
    queue: Rc<RefCell<SchedQueue>>,
    /// Requests queued but not yet dispatched to the arm.
    queue_depth: InflightGauge,
    /// Per-request queue wait (enqueue to dispatch), in milliseconds.
    wait_ms: Histogram,
    /// Per-request positioning time charged, in milliseconds.
    pos_ms: Histogram,
    /// The tracer, and the label interned on its thread.
    tracer: Rc<RefCell<Option<(Tracer, Name)>>>,
}

struct DiskState {
    last_block: Option<u64>,
    stats: DiskStats,
}

/// One queued request awaiting dispatch, and its waker once polled.
struct Pending {
    id: u64,
    block: u64,
    bypass: u32,
    waker: Option<Waker>,
}

#[derive(Default)]
struct SchedQueue {
    /// Arrival order.
    pending: Vec<Pending>,
    /// Request currently granted the arm, if any.
    current: Option<u64>,
    next_req: u64,
}

impl Disk {
    /// Creates a FIFO-scheduled disk attached to `sim`.
    pub fn new(sim: &Sim, name: impl Into<String>, params: DiskParams) -> Self {
        Self::with_sched(sim, name, params, DiskSched::Fifo)
    }

    /// Creates a disk with an explicit scheduling policy.
    pub fn with_sched(
        sim: &Sim,
        name: impl Into<String>,
        params: DiskParams,
        sched: DiskSched,
    ) -> Self {
        Disk {
            sim: sim.clone(),
            label: Rc::from(name.into()),
            params,
            sched,
            state: Rc::new(RefCell::new(DiskState {
                last_block: None,
                stats: DiskStats::default(),
            })),
            queue: Rc::new(RefCell::new(SchedQueue::default())),
            queue_depth: InflightGauge::new(),
            wait_ms: Histogram::new(),
            pos_ms: Histogram::new(),
            tracer: Rc::new(RefCell::new(None)),
        }
    }

    /// The disk's timing parameters.
    pub fn params(&self) -> DiskParams {
        self.params
    }

    /// Statistics so far.
    pub fn stats(&self) -> DiskStats {
        self.state.borrow().stats
    }

    /// Queue-depth gauge: requests enqueued but not yet dispatched.
    pub fn queue_depth(&self) -> &InflightGauge {
        &self.queue_depth
    }

    /// Per-request queue wait histogram (milliseconds).
    pub fn wait_ms(&self) -> &Histogram {
        &self.wait_ms
    }

    /// Per-request positioning-time histogram (milliseconds).
    pub fn pos_ms(&self) -> &Histogram {
        &self.pos_ms
    }

    /// Attach a tracer; every request emits `disk_queue` / `disk_done`
    /// events from then on. Emission never awaits, so traced runs are
    /// behaviorally identical.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.borrow_mut() = Some((tracer, Name::from(&*self.label)));
    }

    /// Emits the event `kind` builds, if a tracer is attached; an
    /// untraced run builds nothing.
    fn emit(&self, kind: impl FnOnce(Name) -> EventKind) {
        if let Some((t, label)) = self.tracer.borrow().as_ref() {
            t.emit(0, kind(*label));
        }
    }

    /// Reads `bytes` at `block`, waiting in the scheduler queue and
    /// consuming positioning + transfer time.
    pub async fn read(&self, block: u64, bytes: usize) {
        self.access(block, bytes, false).await;
    }

    /// Writes `bytes` at `block` onward; same timing as a read (the model
    /// does not distinguish write settle time).
    pub async fn write(&self, block: u64, bytes: usize) {
        self.access(block, bytes, true).await;
    }

    /// One request, start to finish, whatever the policy: queue, wait for
    /// the arm, position, transfer, account. The policy shows at two
    /// points only — the aging bound `dispatch_next` picks with, and
    /// [`position`](Self::position). Everything around the awaits (gauge,
    /// histograms, trace events) is synchronous accounting, so under FIFO
    /// the timing is bit for bit what it was before scheduling existed.
    async fn access(&self, block: u64, bytes: usize, is_write: bool) {
        let req = {
            let mut q = self.queue.borrow_mut();
            q.next_req += 1;
            q.next_req
        };
        self.emit(|disk| EventKind::DiskQueue {
            disk,
            req,
            block,
            write: is_write,
        });
        self.queue_depth.inc();
        let enq_us = self.sim.now().as_micros();
        // The request parks until `dispatch_next` grants it the arm; the
        // ticket de-queues it (or hands the arm on) even if this future is
        // dropped mid-wait.
        self.queue.borrow_mut().pending.push(Pending {
            id: req,
            block,
            bypass: 0,
            waker: None,
        });
        let ticket = Ticket {
            disk: self,
            id: req,
        };
        self.dispatch_next();
        // `current == Some(req)` is the grant.
        std::future::poll_fn(|cx| {
            let mut q = self.queue.borrow_mut();
            if q.current == Some(req) {
                return Poll::Ready(());
            }
            let p = q.pending.iter_mut().find(|p| p.id == req);
            p.expect("queued until granted").waker = Some(cx.waker().clone());
            Poll::Pending
        })
        .await;
        let wait_us = self.sim.now().as_micros() - enq_us;
        self.queue_depth.dec();
        self.wait_ms.record(wait_us / 1_000);
        let pos = self.position(block);
        self.pos_ms.record(pos.as_micros() / 1_000);
        self.sim.sleep(pos + self.params.transfer_time(bytes)).await;
        {
            let mut st = self.state.borrow_mut();
            st.last_block = Some(block + bytes.saturating_sub(1) as u64 / BLOCK_BYTES);
            if is_write {
                st.stats.writes += 1;
            } else {
                st.stats.reads += 1;
            }
        }
        self.emit(|disk| EventKind::DiskDone {
            disk,
            req,
            block,
            write: is_write,
            wait_us,
            pos_us: pos.as_micros(),
        });
        drop(ticket); // releases the arm to the next pick
    }

    /// Positioning time for an access to `block` with the arm where the
    /// last access left it, on the last block it transferred. FIFO has two
    /// levels: `seq_position` for the same block or the next one, the full
    /// `avg_position` otherwise.
    /// C-LOOK charges by seek distance: `d` blocks cost
    /// `seq + 1.5 (avg - seq) sqrt(d / stroke)`, saturating at a full
    /// stroke. The square root approximates the accelerate/decelerate
    /// profile of a real arm, and the 1.5 factor calibrates the curve so a
    /// uniformly random seek averages `avg_position` (E[sqrt(U)] = 2/3) —
    /// FIFO and C-LOOK agree on unscheduled random workloads and diverge
    /// exactly when scheduling shortens seeks.
    fn position(&self, block: u64) -> SimDuration {
        let (seq, avg) = (self.params.seq_position, self.params.avg_position);
        let Some(head) = self.state.borrow().last_block else {
            return avg;
        };
        match self.sched {
            DiskSched::Fifo if head == block || head.wrapping_add(1) == block => seq,
            DiskSched::Fifo => avg,
            DiskSched::CLook { .. } if head.abs_diff(block) <= 1 => seq,
            DiskSched::CLook { stroke_blocks, .. } => {
                let stroke = stroke_blocks.max(2);
                let frac = head.abs_diff(block).min(stroke) as f64 / stroke as f64;
                let (seq, avg) = (seq.as_micros() as f64, avg.as_micros() as f64);
                SimDuration::from_micros((seq + 1.5 * (avg - seq) * frac.sqrt()).round() as u64)
            }
        }
    }

    /// If the arm is free, pick the next request and grant it. FIFO is
    /// C-LOOK with an aging bound of 0: every request has aged out, so the
    /// pick is the oldest.
    fn dispatch_next(&self) {
        let mut q = self.queue.borrow_mut();
        if q.current.is_some() || q.pending.is_empty() {
            return;
        }
        let max_bypass = match self.sched {
            DiskSched::Fifo => 0,
            DiskSched::CLook { max_bypass, .. } => max_bypass,
        };
        let head = self.state.borrow().last_block.unwrap_or(0);
        let pick = Self::clook_pick(&q.pending, head, max_bypass);
        let chosen = q.pending.remove(pick);
        for p in &mut q.pending {
            if p.id < chosen.id {
                p.bypass += 1;
            }
        }
        q.current = Some(chosen.id);
        drop(q);
        if let Some(waker) = chosen.waker {
            waker.wake();
        }
    }

    /// Index of the next request to serve: the oldest aged-out request if
    /// any has been bypassed `max_bypass` times, else the lowest block at
    /// or above `head` (the sweep), else the lowest block overall (the
    /// wrap). Ties break by arrival order.
    fn clook_pick(pending: &[Pending], head: u64, max_bypass: u32) -> usize {
        if let Some(i) = pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.bypass >= max_bypass)
            .min_by_key(|(_, p)| p.id)
            .map(|(i, _)| i)
        {
            return i;
        }
        pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.block >= head)
            .min_by_key(|(_, p)| (p.block, p.id))
            .or_else(|| {
                pending
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, p)| (p.block, p.id))
            })
            .map(|(i, _)| i)
            .expect("pending is non-empty")
    }
}

/// Cancel-safety: if the access future is dropped while queued, the
/// request leaves the queue; if it was already granted (or mid-service),
/// the arm is handed to the next pick.
struct Ticket<'a> {
    disk: &'a Disk,
    id: u64,
}

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut q = self.disk.queue.borrow_mut();
        if q.current == Some(self.id) {
            q.current = None;
            drop(q);
            self.disk.dispatch_next();
        } else if let Some(i) = q.pending.iter().position(|p| p.id == self.id) {
            q.pending.remove(i);
            drop(q);
            self.disk.queue_depth.dec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk(sim: &Sim) -> Disk {
        Disk::new(sim, "d0", test_params())
    }

    fn test_params() -> DiskParams {
        DiskParams {
            avg_position: SimDuration::from_millis(20),
            seq_position: SimDuration::from_millis(2),
            transfer_rate: 1_000_000, // 1 MB/s => 4 KB = 4096 us
        }
    }

    fn clook(sim: &Sim, max_bypass: u32) -> Disk {
        Disk::with_sched(
            sim,
            "d0",
            test_params(),
            DiskSched::CLook {
                max_bypass,
                stroke_blocks: 1 << 20,
            },
        )
    }

    #[test]
    fn random_access_time_is_position_plus_transfer() {
        let sim = Sim::new();
        let d = disk(&sim);
        let d2 = d.clone();
        sim.block_on(async move {
            d2.read(100, 4096).await;
        });
        assert_eq!(sim.now().as_micros(), 20_000 + 4_096);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn sequential_access_is_cheaper() {
        let sim = Sim::new();
        let d = disk(&sim);
        let d2 = d.clone();
        sim.block_on(async move {
            d2.write(100, 4096).await;
            d2.write(101, 4096).await; // sequential
            d2.write(500, 4096).await; // random
        });
        let expect = (20_000 + 4_096) + (2_000 + 4_096) + (20_000 + 4_096);
        assert_eq!(sim.now().as_micros(), expect as u64);
        assert_eq!(d.stats().writes, 3);
    }

    #[test]
    fn rewrite_of_same_block_counts_as_sequential() {
        let sim = Sim::new();
        let d = disk(&sim);
        let d2 = d.clone();
        sim.block_on(async move {
            d2.write(7, 1024).await;
            d2.write(7, 1024).await;
        });
        let expect = (20_000 + 1_024) + (2_000 + 1_024);
        assert_eq!(sim.now().as_micros(), expect as u64);
    }

    /// Spawns a 4 KB read of each block at t = 0, runs them all and
    /// returns the sum of their service times (positioning as each
    /// `disk_done` reports it, plus transfer).
    fn serve_concurrently(sim: &Sim, d: &Disk, blocks: &[u64]) -> u64 {
        let tracer = Tracer::new(sim);
        d.set_tracer(tracer.clone());
        for &blk in blocks {
            let d = d.clone();
            sim.spawn(async move {
                d.read(blk, 4096).await;
            });
        }
        sim.run_to_quiescence();
        let transfer = d.params().transfer_time(4096).as_micros();
        let done = tracer.finish();
        let pos = done.iter().filter_map(|e| match e.view() {
            spritely_trace::Event::DiskDone { pos_us, .. } => Some(pos_us),
            _ => None,
        });
        pos.map(|p| p + transfer).sum()
    }

    /// The label interned when the tracer is set is the one its text gets:
    /// every event of a request names the disk by it.
    #[test]
    fn a_disk_names_itself_by_the_id_of_its_label() {
        let sim = Sim::new();
        let d = Disk::new(&sim, "srv-disk-label", test_params());
        let tracer = Tracer::new(&sim);
        d.set_tracer(tracer.clone());
        sim.block_on({
            let d = d.clone();
            async move { d.write(3, 1024).await }
        });
        let label = spritely_trace::Name::from("srv-disk-label");
        let disks: Vec<_> = (tracer.finish().iter())
            .map(|e| match e.view() {
                spritely_trace::Event::DiskQueue { disk, .. }
                | spritely_trace::Event::DiskDone { disk, .. } => disk,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(disks, [label, label]);
        assert_eq!(label.as_str(), "srv-disk-label");
    }

    #[test]
    fn requests_queue_fifo_on_one_arm() {
        let sim = Sim::new();
        let d = disk(&sim);
        let service = serve_concurrently(&sim, &d, &[0, 1000, 2000]);
        // Three random accesses, serialized: one request at a time, so
        // elapsed time is the sum of their services.
        assert_eq!(service, 3 * (20_000 + 4_096));
        assert_eq!(sim.now().as_micros(), service);
    }

    #[test]
    fn ra81_transfer_time_sane() {
        let p = DiskParams::ra81();
        let t = p.transfer_time(4096);
        // 4 KB at 2.2 MB/s ~ 1.86 ms.
        assert!(t.as_micros() > 1_500 && t.as_micros() < 2_200, "{t}");
    }

    #[test]
    fn fifo_observability_counts_waits_and_depth() {
        let sim = Sim::new();
        let d = disk(&sim);
        for i in 0..3u64 {
            let d = d.clone();
            sim.spawn(async move {
                d.read(i * 1000, 4096).await;
            });
        }
        sim.run_to_quiescence();
        assert_eq!(d.wait_ms().count(), 3);
        assert_eq!(d.pos_ms().count(), 3);
        // Request 3 waited behind two full services.
        assert_eq!(d.wait_ms().max(), 2 * (20_000 + 4_096) / 1_000);
        assert_eq!(d.queue_depth().current(), 0);
        // The first request dispatches instantly; 2 and 3 overlap in queue.
        assert_eq!(d.queue_depth().peak(), 2);
    }

    #[test]
    fn clook_serves_sweep_order_not_arrival_order() {
        let sim = Sim::new();
        let d = clook(&sim, 1000);
        // Seed the head at block 0, then queue far, near, middle while
        // the arm is busy with the first request.
        let order: Rc<RefCell<Vec<u64>>> = Rc::default();
        {
            let d = d.clone();
            sim.spawn(async move {
                d.write(0, 512).await;
            });
        }
        for &blk in &[900_000u64, 10, 5_000] {
            let d = d.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                d.read(blk, 512).await;
                order.borrow_mut().push(blk);
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*order.borrow(), vec![10, 5_000, 900_000]);
        assert_eq!(d.stats().reads, 3);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn clook_short_seeks_cost_less_than_fifo_average() {
        let sim = Sim::new();
        let d = clook(&sim, 1000);
        let d2 = d.clone();
        sim.block_on(async move {
            d2.write(0, 512).await;
            d2.write(200, 512).await; // short seek within the stroke
        });
        // First access pays avg_position (cold head); the 200-block seek
        // on a 1M-block stroke costs ~2.4 ms, far under the 20 ms average.
        assert_eq!(d.pos_ms().count(), 2);
        assert_eq!(d.pos_ms().count_of(20), 1);
        let short = d.pos_ms().sum() - 20;
        assert!(short < 5, "short seek should beat avg, got {short} ms");
    }

    #[test]
    fn clook_aging_bounds_starvation() {
        // A request at a far block with max_bypass = 1 must be served
        // after at most one nearer request bypasses it.
        let sim = Sim::new();
        let d = clook(&sim, 1);
        let order: Rc<RefCell<Vec<u64>>> = Rc::default();
        {
            let d = d.clone();
            sim.spawn(async move {
                d.write(0, 512).await;
            });
        }
        // Far request arrives first, then a stream of near requests.
        for &blk in &[500_000u64, 10, 20, 30, 40] {
            let d = d.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                d.read(blk, 512).await;
                order.borrow_mut().push(blk);
            });
        }
        sim.run_to_quiescence();
        let served = order.borrow().clone();
        let far_at = served.iter().position(|&b| b == 500_000).unwrap();
        assert!(
            far_at <= 1,
            "far request bypassed more than once: {served:?}"
        );
    }

    #[test]
    fn clook_wrap_returns_to_lowest_block() {
        let sim = Sim::new();
        let d = clook(&sim, 1000);
        let order: Rc<RefCell<Vec<u64>>> = Rc::default();
        {
            let d = d.clone();
            sim.spawn(async move {
                d.write(100, 512).await; // head lands at 100
            });
        }
        for &blk in &[5u64, 200] {
            let d = d.clone();
            let order = Rc::clone(&order);
            sim.spawn(async move {
                d.read(blk, 512).await;
                order.borrow_mut().push(blk);
            });
        }
        sim.run_to_quiescence();
        // Sweep up to 200 first, then wrap down to 5.
        assert_eq!(*order.borrow(), vec![200, 5]);
    }

    #[test]
    fn clook_serves_one_request_at_a_time() {
        let sim = Sim::new();
        let d = clook(&sim, 1000);
        let service = serve_concurrently(&sim, &d, &[0, 100_000, 200_000]);
        // One request at a time: elapsed time is the sum of the services.
        assert_eq!(d.stats().reads, 3);
        assert_eq!(sim.now().as_micros(), service);
        assert_eq!(d.queue_depth().current(), 0);
    }

    #[test]
    fn dropped_queued_request_leaves_the_queue() {
        dropped_queued_request_leaves_the_queue_under(disk);
        dropped_queued_request_leaves_the_queue_under(|sim| clook(sim, 1000));
    }

    fn dropped_queued_request_leaves_the_queue_under(make: fn(&Sim) -> Disk) {
        let sim = Sim::new();
        let d = make(&sim);
        {
            let d = d.clone();
            sim.spawn(async move {
                d.write(0, 4096).await;
            });
        }
        {
            let d = d.clone();
            let s = sim.clone();
            sim.spawn(async move {
                // Cancelled long before the arm frees up.
                let _ = s
                    .timeout(SimDuration::from_micros(10), d.read(999, 512))
                    .await;
            });
        }
        {
            let d = d.clone();
            sim.spawn(async move {
                d.read(50, 512).await;
            });
        }
        sim.run_to_quiescence();
        assert_eq!(d.stats().reads, 1, "cancelled read must not be served");
        assert_eq!(d.queue_depth().current(), 0);
        assert_eq!(d.queue.borrow().pending.len(), 0);
    }
}
