//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in changes speed by up to 40 % from
//! one minute to the next (a neighbour's load on the shared memory
//! system; a pure ALU loop moves only 5 %). Raw wall-clock medians of
//! the same code therefore differ by 20-30 % between runs, which no
//! amount of repetition averages out. So every host-clock interval is
//! bracketed by a fixed calibration loop run in the same process, and
//! reported *scaled to a reference machine*: one on which the loop takes
//! [`NOMINAL_MS`]. Scaled medians of consecutive runs agree within 2-4 %.
//!
//! The loop is made of what the simulator's hot paths are made of —
//! small heap allocations, block fills, hash-map growth — because that
//! is what the drift hits; it calls nothing in `spritely`, so no change
//! to the program can move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::alloc;

/// What the calibration loop takes on the reference machine, in ms
/// (about what it takes here when the sandbox is quiet).
pub const NOMINAL_MS: f64 = 5.0;

/// Runs the calibration loop once; its wall time in ms. Its allocations
/// are kept out of the allocator's statistics.
pub fn calibrate() -> f64 {
    alloc::uncounted(|| {
        let started = Instant::now();
        let mut blocks: Vec<Vec<u8>> = Vec::new();
        let mut map = HashMap::new();
        for k in 0..30_000u64 {
            blocks.push(vec![k as u8; 64 + (k % 7) as usize * 100]);
            map.insert(k, k);
            if blocks.len() > 300 {
                blocks.clear();
            }
        }
        black_box((blocks.len(), map.len()));
        started.elapsed().as_secs_f64() * 1e3
    })
}

/// `interval` in ms, scaled to the reference machine by the calibration
/// samples taken around it.
pub fn scaled_ms(interval: Duration, around: &[f64]) -> f64 {
    let speed = around.iter().sum::<f64>() / around.len() as f64;
    interval.as_secs_f64() * 1e3 * NOMINAL_MS / speed
}
