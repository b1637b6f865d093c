//! Bucketed time series for the utilization/rate figures.

use std::cell::RefCell;
use std::rc::Rc;

use spritely_proto::NfsProc;
use spritely_sim::{SimDuration, SimTime};

/// One bucket of a [`RateSeries`]: call counts in `[start, start + width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RateBucket {
    /// Calls of any procedure.
    pub total: u64,
    /// `read` calls.
    pub reads: u64,
    /// `write` calls.
    pub writes: u64,
}

/// Counts RPC events into fixed-width time buckets.
///
/// Figures 5-1 and 5-2 plot, against time: total call rate, read rate and
/// write rate. Record every call with [`record_at`](Self::record_at); read
/// the per-bucket counts (convertible to rates by dividing by the width)
/// with [`buckets`](Self::buckets).
#[derive(Clone)]
pub struct RateSeries {
    inner: Rc<RefCell<RateInner>>,
}

struct RateInner {
    width: SimDuration,
    buckets: Vec<RateBucket>,
}

impl RateSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be positive");
        RateSeries {
            inner: Rc::new(RefCell::new(RateInner {
                width,
                buckets: Vec::new(),
            })),
        }
    }

    /// Records one call of `p` at virtual time `at`.
    pub fn record_at(&self, at: SimTime, p: NfsProc) {
        let mut s = self.inner.borrow_mut();
        let i = (at.as_micros() / s.width.as_micros()) as usize;
        if s.buckets.len() <= i {
            s.buckets.resize(i + 1, RateBucket::default());
        }
        let b = &mut s.buckets[i];
        b.total += 1;
        match p {
            NfsProc::Read => b.reads += 1,
            NfsProc::Write => b.writes += 1,
            _ => {}
        }
    }

    /// Copies out the buckets recorded so far.
    pub fn buckets(&self) -> Vec<RateBucket> {
        self.inner.borrow().buckets.clone()
    }
}

/// A sampled gauge (e.g. server CPU utilization per bucket).
///
/// The harness runs a sampler task that pushes one value per bucket edge.
#[derive(Clone, Default)]
pub struct GaugeSeries {
    inner: Rc<RefCell<Vec<(SimTime, f64)>>>,
}

impl GaugeSeries {
    /// Creates an empty gauge series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the previous sample (samples must be
    /// pushed in time order).
    pub fn push(&self, at: SimTime, value: f64) {
        let mut v = self.inner.borrow_mut();
        if let Some(&(last, _)) = v.last() {
            assert!(at >= last, "gauge samples out of order");
        }
        v.push((at, value));
    }

    /// Copies out all samples.
    pub fn samples(&self) -> Vec<(SimTime, f64)> {
        self.inner.borrow().clone()
    }

    /// Mean of all sample values (0 if empty).
    pub fn mean(&self) -> f64 {
        let v = self.inner.borrow();
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|&(_, x)| x).sum::<f64>() / v.len() as f64
        }
    }

    /// Maximum sample value (0 if empty).
    pub fn max(&self) -> f64 {
        self.inner
            .borrow()
            .iter()
            .map(|&(_, x)| x)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_series_buckets_by_time() {
        let rs = RateSeries::new(SimDuration::from_secs(10));
        rs.record_at(SimTime::from_micros(0), NfsProc::Read);
        rs.record_at(SimTime::from_micros(9_999_999), NfsProc::Write);
        rs.record_at(SimTime::from_micros(10_000_000), NfsProc::Lookup);
        let b = rs.buckets();
        assert_eq!(b.len(), 2);
        assert_eq!(
            b[0],
            RateBucket {
                total: 2,
                reads: 1,
                writes: 1
            }
        );
        assert_eq!(
            b[1],
            RateBucket {
                total: 1,
                reads: 0,
                writes: 0
            }
        );
    }

    #[test]
    fn gauge_mean_and_max() {
        let g = GaugeSeries::new();
        g.push(SimTime::from_micros(0), 0.2);
        g.push(SimTime::from_micros(10), 0.6);
        assert!((g.mean() - 0.4).abs() < 1e-9);
        assert!((g.max() - 0.6).abs() < 1e-9);
        assert_eq!(g.samples().len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn gauge_rejects_time_reversal() {
        let g = GaugeSeries::new();
        g.push(SimTime::from_micros(10), 0.1);
        g.push(SimTime::from_micros(5), 0.1);
    }

    #[test]
    fn empty_gauge_defaults() {
        let g = GaugeSeries::new();
        assert_eq!(g.mean(), 0.0);
        assert_eq!(g.max(), 0.0);
    }
}
