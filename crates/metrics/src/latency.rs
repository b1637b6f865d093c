//! Per-procedure RPC latency statistics.
//!
//! The paper reports elapsed times and call counts; a modern release of
//! the same system would also ship latency distributions. This recorder
//! keeps, per procedure: count, sum, max, and a power-of-two histogram
//! from which percentiles are estimated — O(1) per sample, fixed memory.

use std::cell::RefCell;
use std::rc::Rc;

use spritely_proto::NfsProc;
use spritely_sim::SimDuration;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` microseconds; the last bucket is open-ended.
const BUCKETS: usize = 32;

#[derive(Clone, Copy)]
struct ProcLatency {
    count: u64,
    sum_us: u128,
    max_us: u64,
    hist: [u64; BUCKETS],
}

impl Default for ProcLatency {
    fn default() -> Self {
        ProcLatency {
            count: 0,
            sum_us: 0,
            max_us: 0,
            hist: [0; BUCKETS],
        }
    }
}

fn bucket_of(us: u64) -> usize {
    (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1)
}

/// A shared, cloneable latency recorder keyed by procedure.
///
/// # Examples
///
/// ```
/// use spritely_metrics::LatencyStats;
/// use spritely_proto::NfsProc;
/// use spritely_sim::SimDuration;
///
/// let lat = LatencyStats::new();
/// lat.record(NfsProc::Write, SimDuration::from_millis(40));
/// lat.record(NfsProc::Write, SimDuration::from_millis(60));
/// assert_eq!(lat.mean(NfsProc::Write), SimDuration::from_millis(50));
/// assert!(lat.percentile(NfsProc::Write, 0.95) >= lat.mean(NfsProc::Write));
/// ```
#[derive(Clone, Default)]
pub struct LatencyStats {
    inner: Rc<RefCell<Vec<ProcLatency>>>,
}

impl LatencyStats {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyStats {
            inner: Rc::new(RefCell::new(vec![
                ProcLatency::default();
                NfsProc::ALL.len()
            ])),
        }
    }

    /// Records one call's end-to-end latency.
    pub fn record(&self, p: NfsProc, d: SimDuration) {
        let us = d.as_micros();
        let mut v = self.inner.borrow_mut();
        let e = &mut v[p.index()];
        e.count += 1;
        e.sum_us += u128::from(us);
        e.max_us = e.max_us.max(us);
        e.hist[bucket_of(us)] += 1;
    }

    /// Number of samples for a procedure.
    pub fn count(&self, p: NfsProc) -> u64 {
        self.inner.borrow()[p.index()].count
    }

    /// Mean latency, or zero with no samples.
    pub fn mean(&self, p: NfsProc) -> SimDuration {
        let v = self.inner.borrow();
        let e = &v[p.index()];
        if e.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros((e.sum_us / u128::from(e.count)) as u64)
        }
    }

    /// Maximum observed latency.
    pub fn max(&self, p: NfsProc) -> SimDuration {
        SimDuration::from_micros(self.inner.borrow()[p.index()].max_us)
    }

    /// Estimated percentile (`q` in 0..=1) from the histogram: the upper
    /// edge of the bucket containing the q-th sample. Zero with no
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `0.0..=1.0`.
    pub fn percentile(&self, p: NfsProc, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "percentile out of range: {q}");
        let v = self.inner.borrow();
        let e = &v[p.index()];
        if e.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((e.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in e.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return SimDuration::from_micros(1 << (i + 1).min(63));
            }
        }
        SimDuration::from_micros(e.max_us)
    }

    /// Total samples across every procedure.
    pub fn total_count(&self) -> u64 {
        self.inner.borrow().iter().map(|e| e.count).sum()
    }

    /// Mean latency across every procedure's samples combined.
    pub fn total_mean(&self) -> SimDuration {
        let v = self.inner.borrow();
        let count: u64 = v.iter().map(|e| e.count).sum();
        if count == 0 {
            return SimDuration::ZERO;
        }
        let sum: u128 = v.iter().map(|e| e.sum_us).sum();
        SimDuration::from_micros((sum / u128::from(count)) as u64)
    }

    /// Procedures with at least one sample, in display order.
    pub fn observed(&self) -> Vec<NfsProc> {
        let v = self.inner.borrow();
        NfsProc::ALL
            .iter()
            .copied()
            .filter(|&p| v[p.index()].count > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn mean_max_count() {
        let l = LatencyStats::new();
        l.record(NfsProc::Read, us(100));
        l.record(NfsProc::Read, us(300));
        assert_eq!(l.count(NfsProc::Read), 2);
        assert_eq!(l.mean(NfsProc::Read), us(200));
        assert_eq!(l.max(NfsProc::Read), us(300));
        assert_eq!(l.count(NfsProc::Write), 0);
        assert_eq!(l.mean(NfsProc::Write), SimDuration::ZERO);
    }

    #[test]
    fn percentile_brackets_the_samples() {
        let l = LatencyStats::new();
        for i in 1..=100u64 {
            l.record(NfsProc::Write, us(i * 10)); // 10..1000 us
        }
        let p50 = l.percentile(NfsProc::Write, 0.5);
        let p99 = l.percentile(NfsProc::Write, 0.99);
        // Bucketed estimates: upper power-of-two edges.
        assert!(p50 >= us(256) && p50 <= us(1024), "p50 = {p50}");
        assert!(p99 >= p50, "p99 = {p99} >= p50 = {p50}");
        assert!(p99 <= us(2048));
    }

    #[test]
    fn percentile_extremes() {
        let l = LatencyStats::new();
        l.record(NfsProc::Open, us(5));
        assert!(l.percentile(NfsProc::Open, 0.0) >= us(5));
        assert!(l.percentile(NfsProc::Open, 1.0) >= us(5));
        assert_eq!(l.percentile(NfsProc::Close, 0.5), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_percentile_panics() {
        LatencyStats::new().percentile(NfsProc::Read, 1.5);
    }

    #[test]
    fn totals_merge_across_procedures() {
        let l = LatencyStats::new();
        l.record(NfsProc::Read, us(100));
        l.record(NfsProc::Write, us(300));
        assert_eq!(l.total_count(), 2);
        assert_eq!(l.total_mean(), us(200));
    }

    #[test]
    fn observed_lists_only_sampled() {
        let l = LatencyStats::new();
        l.record(NfsProc::Lookup, us(1));
        l.record(NfsProc::Callback, us(1));
        assert_eq!(l.observed(), vec![NfsProc::Lookup, NfsProc::Callback]);
    }

    #[test]
    fn clones_share_state() {
        let a = LatencyStats::new();
        let b = a.clone();
        b.record(NfsProc::Null, us(7));
        assert_eq!(a.count(NfsProc::Null), 1);
    }

    #[test]
    fn bucket_of_is_monotone() {
        let mut last = 0;
        for us_val in [1u64, 2, 3, 7, 8, 100, 1 << 20, u64::MAX] {
            let b = bucket_of(us_val);
            assert!(b >= last);
            last = b;
        }
    }
}
