//! A small value histogram (e.g. gathered-write batch sizes in blocks).

use std::cell::RefCell;
use std::rc::Rc;

/// Records integer-valued observations and summarizes them.
///
/// Used by the client write-behind pool to record how many blocks each
/// gathered `write` RPC carried; the harness report prints the summary.
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Rc<RefCell<HistInner>>,
}

#[derive(Default)]
struct HistInner {
    /// counts[v] = observations of value `v`; there is no overflow
    /// bucket: a value past the end grows the vector to reach it.
    counts: Vec<u64>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let mut h = self.inner.borrow_mut();
        let i = value as usize;
        if h.counts.len() <= i {
            h.counts.resize(i + 1, 0);
        }
        h.counts[i] += 1;
        h.total += 1;
        h.sum += value;
        h.max = h.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.borrow().total
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.borrow().sum
    }

    /// Largest observed value (0 if empty).
    pub fn max(&self) -> u64 {
        self.inner.borrow().max
    }

    /// Mean observed value (0 if empty).
    pub fn mean(&self) -> f64 {
        let h = self.inner.borrow();
        if h.total == 0 {
            0.0
        } else {
            h.sum as f64 / h.total as f64
        }
    }

    /// `(count, sum)` in one borrow — a mark for windowed means: take one
    /// before and one after a measured interval, and
    /// [`mean_since`](Self::mean_since) gives the interval's mean.
    pub fn mark(&self) -> (u64, u64) {
        let h = self.inner.borrow();
        (h.total, h.sum)
    }

    /// Mean of the observations recorded since `mark` was taken (0 if
    /// none were).
    pub fn mean_since(&self, mark: (u64, u64)) -> f64 {
        let h = self.inner.borrow();
        let count = h.total - mark.0;
        if count == 0 {
            0.0
        } else {
            (h.sum - mark.1) as f64 / count as f64
        }
    }

    /// Observations of exactly `value`.
    pub fn count_of(&self, value: u64) -> u64 {
        self.inner
            .borrow()
            .counts
            .get(value as usize)
            .copied()
            .unwrap_or(0)
    }
}

/// A concurrency gauge: tracks a current level and its high-water mark.
///
/// The write-behind pool bumps it around each in-flight RPC; tests assert
/// on `peak()` to check pipelining (or its absence in paper mode).
#[derive(Clone, Default)]
pub struct InflightGauge {
    inner: Rc<RefCell<(u64, u64)>>, // (current, peak)
}

impl InflightGauge {
    /// Creates a gauge at level 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the level, updating the peak.
    pub fn inc(&self) {
        let mut g = self.inner.borrow_mut();
        g.0 += 1;
        g.1 = g.1.max(g.0);
    }

    /// Decrements the level.
    ///
    /// # Panics
    ///
    /// Panics if the level is already 0 (an unmatched `dec`).
    pub fn dec(&self) {
        let mut g = self.inner.borrow_mut();
        assert!(g.0 > 0, "inflight gauge underflow");
        g.0 -= 1;
    }

    /// Current level.
    pub fn current(&self) -> u64 {
        self.inner.borrow().0
    }

    /// Highest level ever reached.
    pub fn peak(&self) -> u64 {
        self.inner.borrow().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summarizes() {
        let h = Histogram::new();
        h.record(1);
        h.record(1);
        h.record(8);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 10);
        assert_eq!(h.max(), 8);
        assert_eq!(h.count_of(1), 2);
        assert_eq!(h.count_of(8), 1);
        assert_eq!(h.count_of(3), 0);
        assert!((h.mean() - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn mark_gives_windowed_means() {
        let h = Histogram::new();
        h.record(10);
        let m = h.mark();
        assert_eq!(h.mean_since(m), 0.0, "empty window");
        h.record(2);
        h.record(4);
        assert!((h.mean_since(m) - 3.0).abs() < 1e-9);
        assert!((h.mean() - 16.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = InflightGauge::new();
        g.inc();
        g.inc();
        g.dec();
        g.inc();
        assert_eq!(g.current(), 2);
        assert_eq!(g.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn gauge_rejects_unmatched_dec() {
        InflightGauge::new().dec();
    }
}
