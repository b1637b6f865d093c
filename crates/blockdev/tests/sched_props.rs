//! Property tests for the disk-arm scheduler: C-LOOK must serve every
//! request exactly once, never bypass a request more than `max_bypass`
//! times, and the FIFO policy must be timing-equivalent to the original
//! unscheduled queue (serial service in arrival order with the two-level
//! positioning rule). Beside them, one scripted run per policy with every
//! request's completion order, queue wait and positioning time pinned,
//! and the simulator's poll and timer counts: what a change to the
//! request lifecycle must leave alone. Last, per policy, where a
//! multi-block request leaves the arm.

use proptest::prelude::*;
use spritely_blockdev::{Disk, DiskParams, DiskSched};
use spritely_sim::{Sim, SimDuration};
use spritely_trace::{Event, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// [`DiskParams::ra81`]'s positioning, in microseconds: a random access
/// and a sequential one. Its 2.2 MB/s transfer takes 1,862 us for a 4 KB
/// block, 466 us for 1 KB and 233 us for 512 bytes.
const AVG_US: u64 = 28_000;
const SEQ_US: u64 = 2_500;

/// Runs `blocks` as concurrent requests (spawned in order at t = 0) and
/// returns the completion order of block addresses.
fn run_all(sched: DiskSched, blocks: &[u64]) -> (Vec<u64>, u64) {
    let sim = Sim::new();
    let d = Disk::with_sched(&sim, "d0", DiskParams::ra81(), sched);
    let order: Rc<RefCell<Vec<u64>>> = Rc::default();
    for (i, &blk) in blocks.iter().enumerate() {
        let d = d.clone();
        let order = Rc::clone(&order);
        sim.spawn(async move {
            d.read(blk, 4096).await;
            order.borrow_mut().push(blk * 1000 + i as u64);
        });
    }
    sim.run_to_quiescence();
    let served = order.borrow().clone();
    assert_eq!(d.stats().reads, blocks.len() as u64);
    (served, sim.now().as_micros())
}

/// The original FIFO disk timing: serial service in arrival order,
/// `seq_position` when the block is the same or adjacent to the previous
/// one, `avg_position` otherwise, plus transfer time.
fn fifo_reference_micros(blocks: &[u64]) -> u64 {
    let p = DiskParams::ra81();
    let mut last: Option<u64> = None;
    let mut t = 0;
    for &b in blocks {
        let seq = last == Some(b.wrapping_sub(1)) || last == Some(b);
        t += if seq { SEQ_US } else { AVG_US } + p.transfer_time(4096).as_micros();
        last = Some(b);
    }
    t
}

/// One completed request as its `disk_done` event reports it:
/// `(req, block, wait_us, pos_us)`.
type Done = (u64, u64, u64, u64);

/// One scripted request: when it arrives, where, how much.
struct Req {
    at_us: u64,
    block: u64,
    bytes: usize,
    write: bool,
}

/// The pinned script: a burst that queues (forward-adjacent, backward-
/// adjacent, same-block and far requests among it), late arrivals into a
/// busy queue, one request abandoned while queued, then a same-block pair
/// and a step back by one block on an idle disk. Returns every
/// `disk_done` in completion order, then the simulator's poll and
/// timer-fire counts.
fn run_script(sched: DiskSched) -> (Vec<Done>, u64, u64) {
    let r = |at_us, block, bytes, write| Req {
        at_us,
        block,
        bytes,
        write,
    };
    let script = [
        r(0, 100, 4096, false),
        r(0, 101, 4096, true),
        r(0, 100, 4096, false),
        r(0, 900, 4096, false),
        r(1_000, 50, 512, true),
        r(1_000, 101, 4096, false),
        r(5_000, 899, 4096, true),
        r(200_000, 7, 1024, false),
        r(200_000, 7, 1024, true),
        r(300_000, 6, 1024, false),
    ];
    let sim = Sim::new();
    let tracer = Tracer::new(&sim);
    let d = Disk::with_sched(&sim, "d0", DiskParams::ra81(), sched);
    d.set_tracer(tracer.clone());
    for q in script {
        let (d, s) = (d.clone(), sim.clone());
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(q.at_us)).await;
            if q.write {
                d.write(q.block, q.bytes).await;
            } else {
                d.read(q.block, q.bytes).await;
            }
        });
    }
    {
        // Gives up after 10 us in a queue that is tens of ms deep.
        let (d, s) = (d.clone(), sim.clone());
        sim.spawn(async move {
            s.sleep(SimDuration::from_micros(2_000)).await;
            let _ = s
                .timeout(SimDuration::from_micros(10), d.read(500, 4096))
                .await;
        });
    }
    sim.run_to_quiescence();
    let done = tracer
        .finish()
        .iter()
        .filter_map(|e| match e.view() {
            Event::DiskDone {
                req,
                block,
                wait_us,
                pos_us,
                ..
            } => Some((req, block, wait_us, pos_us)),
            _ => None,
        })
        .collect();
    assert_eq!(
        d.stats().reads + d.stats().writes,
        10,
        "all but the abandoned one"
    );
    let st = sim.stats();
    (done, st.polls, st.timer_fires)
}

#[test]
fn fifo_script_is_pinned() {
    let (done, polls, timer_fires) = run_script(DiskSched::Fifo);
    // Arrival order; only 100 -> 101 and 7 -> 7 are sequential: FIFO calls
    // a step back by one block (101 -> 100, 900 -> 899, 7 -> 6) random.
    let want = vec![
        (1, 100, 0, 28_000),
        (2, 101, 29_862, 2_500),
        (3, 100, 34_224, 28_000),
        (4, 900, 64_086, 28_000),
        (5, 50, 92_948, 28_000),
        (6, 101, 121_181, 28_000),
        (8, 899, 147_043, 28_000),
        (9, 7, 0, 28_000),
        (10, 7, 28_466, 2_500),
        (11, 6, 0, 28_000),
    ];
    assert_eq!(done, want);
    assert_eq!((polls, timer_fires), (36, 18));
}

#[test]
fn clook_script_is_pinned() {
    let sched = DiskSched::CLook {
        max_bypass: 2,
        stroke_blocks: 1 << 12,
    };
    let (done, polls, timer_fires) = run_script(sched);
    // Sweep order from the head; one block either way is sequential.
    let want = vec![
        (1, 100, 0, 28_000),
        (3, 100, 29_862, 2_500),
        (2, 101, 34_224, 2_500),
        (6, 101, 37_586, 2_500),
        (8, 899, 37_948, 19_383),
        (4, 900, 64_193, 2_500),
        (5, 50, 67_555, 19_925),
        (9, 7, 0, 6_419),
        (10, 7, 6_885, 2_500),
        (11, 6, 0, 2_500),
    ];
    assert_eq!(done, want);
    assert_eq!((polls, timer_fires), (36, 18));
}

/// Runs `reqs` (block, bytes) one after another as writes on an idle
/// disk and returns the positioning each was charged, in microseconds.
fn positions(sched: DiskSched, reqs: &[(u64, usize)]) -> Vec<u64> {
    let sim = Sim::new();
    let tracer = Tracer::new(&sim);
    let d = Disk::with_sched(&sim, "d0", DiskParams::ra81(), sched);
    d.set_tracer(tracer.clone());
    let reqs = reqs.to_vec();
    sim.block_on(async move {
        for (block, bytes) in reqs {
            d.write(block, bytes).await;
        }
    });
    let done = tracer.finish();
    done.iter()
        .filter_map(|e| match e.view() {
            Event::DiskDone { pos_us, .. } => Some(pos_us),
            _ => None,
        })
        .collect()
}

/// A request leaves the arm on the last block it transferred: after two
/// blocks at 100, block 102 is the next one, and a one-block request
/// there costs `seq_position` (the arm-end rule).
#[test]
fn fifo_a_two_block_request_leaves_the_arm_on_its_last_block() {
    let pos = positions(DiskSched::Fifo, &[(100, 8192), (102, 4096)]);
    assert_eq!(pos, vec![AVG_US, SEQ_US]);
}

#[test]
fn clook_a_two_block_request_leaves_the_arm_on_its_last_block() {
    let sched = DiskSched::CLook {
        max_bypass: 2,
        stroke_blocks: 1 << 12,
    };
    let pos = positions(sched, &[(100, 8192), (102, 4096)]);
    assert_eq!(pos, vec![AVG_US, SEQ_US]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn clook_serves_every_request_exactly_once(
        blocks in proptest::collection::vec(0u64..2000, 1..40),
        max_bypass in 0u32..6,
    ) {
        let sched = DiskSched::CLook { max_bypass, stroke_blocks: 1 << 12 };
        let (served, _) = run_all(sched, &blocks);
        prop_assert_eq!(served.len(), blocks.len());
        let mut want: Vec<u64> = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| b * 1000 + i as u64)
            .collect();
        let mut got = served.clone();
        want.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, want, "each request served exactly once");
    }

    #[test]
    fn clook_bypass_count_is_bounded(
        blocks in proptest::collection::vec(0u64..2000, 1..40),
        max_bypass in 0u32..6,
    ) {
        let sched = DiskSched::CLook { max_bypass, stroke_blocks: 1 << 12 };
        let (served, _) = run_all(sched, &blocks);
        // Request i (arrival order) is bypassed once for every
        // later-arriving request served before it.
        let arrival_of = |tag: u64| (tag % 1000) as usize;
        for (pos, &tag) in served.iter().enumerate() {
            let bypasses = served[..pos]
                .iter()
                .filter(|&&earlier| arrival_of(earlier) > arrival_of(tag))
                .count();
            prop_assert!(
                bypasses <= max_bypass as usize,
                "request {} bypassed {} times (K = {})",
                arrival_of(tag), bypasses, max_bypass
            );
        }
    }

    #[test]
    fn fifo_matches_the_unscheduled_reference_model(
        blocks in proptest::collection::vec(0u64..2000, 1..40),
    ) {
        let (served, elapsed) = run_all(DiskSched::Fifo, &blocks);
        let arrival: Vec<u64> = served.iter().map(|t| t % 1000).collect();
        let want: Vec<u64> = (0..blocks.len() as u64).collect();
        prop_assert_eq!(arrival, want, "FIFO serves in arrival order");
        prop_assert_eq!(elapsed, fifo_reference_micros(&blocks));
    }
}
