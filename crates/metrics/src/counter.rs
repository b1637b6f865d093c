//! Per-procedure operation counters.

use std::cell::RefCell;
use std::ops::Sub;
use std::rc::Rc;

use spritely_proto::{NfsProc, ProcClass};

/// An immutable snapshot of per-procedure counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    counts: [u64; NfsProc::ALL.len()],
}

impl OpCounts {
    /// Count for one procedure.
    pub fn get(&self, p: NfsProc) -> u64 {
        self.counts[p.index()]
    }

    /// Total calls across all procedures.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total calls in a paper classification group.
    pub fn class_total(&self, class: ProcClass) -> u64 {
        NfsProc::ALL
            .iter()
            .filter(|p| p.class() == class)
            .map(|&p| self.get(p))
            .sum()
    }

    /// Calls that move file data (`read` + `write`).
    pub fn data_transfers(&self) -> u64 {
        self.class_total(ProcClass::DataTransfer)
    }

    /// Calls that are neither `read` nor `write`.
    pub fn others(&self) -> u64 {
        self.total() - self.data_transfers()
    }

    /// Iterates `(proc, count)` over procedures with a nonzero count.
    pub fn nonzero(&self) -> impl Iterator<Item = (NfsProc, u64)> + '_ {
        NfsProc::ALL
            .iter()
            .map(|&p| (p, self.get(p)))
            .filter(|&(_, c)| c > 0)
    }
}

impl Sub for OpCounts {
    type Output = OpCounts;

    /// Per-procedure difference, for measuring a window between snapshots.
    ///
    /// # Panics
    ///
    /// Panics if any count in `rhs` exceeds the corresponding count in
    /// `self` (snapshots taken out of order).
    fn sub(self, rhs: OpCounts) -> OpCounts {
        let mut out = OpCounts::default();
        for i in 0..self.counts.len() {
            out.counts[i] = self.counts[i]
                .checked_sub(rhs.counts[i])
                .expect("OpCounts subtraction underflow: snapshots out of order");
        }
        out
    }
}

/// A shared, cloneable per-procedure counter.
///
/// One counter typically sits inside an RPC transport; every call it
/// carries is recorded here. Snapshots are cheap copies.
#[derive(Clone, Default)]
pub struct OpCounter {
    inner: Rc<RefCell<OpCounts>>,
}

impl OpCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one call of `p`.
    pub fn record(&self, p: NfsProc) {
        self.inner.borrow_mut().counts[p.index()] += 1;
    }

    /// Current count for one procedure.
    pub fn get(&self, p: NfsProc) -> u64 {
        self.inner.borrow().get(p)
    }

    /// Total calls so far.
    pub fn total(&self) -> u64 {
        self.inner.borrow().total()
    }

    /// Copy of the current counts.
    pub fn snapshot(&self) -> OpCounts {
        *self.inner.borrow()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let c = OpCounter::new();
        c.record(NfsProc::Read);
        c.record(NfsProc::Read);
        c.record(NfsProc::Write);
        c.record(NfsProc::Lookup);
        assert_eq!(c.get(NfsProc::Read), 2);
        assert_eq!(c.total(), 4);
        let snap = c.snapshot();
        assert_eq!(snap.data_transfers(), 3);
        assert_eq!(snap.others(), 1);
        assert_eq!(snap.class_total(ProcClass::Lookup), 1);
    }

    #[test]
    fn snapshot_diff_measures_window() {
        let c = OpCounter::new();
        c.record(NfsProc::Read);
        let before = c.snapshot();
        c.record(NfsProc::Read);
        c.record(NfsProc::Open);
        let delta = c.snapshot() - before;
        assert_eq!(delta.get(NfsProc::Read), 1);
        assert_eq!(delta.get(NfsProc::Open), 1);
        assert_eq!(delta.total(), 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_diff_panics() {
        let c = OpCounter::new();
        let before = c.snapshot();
        c.record(NfsProc::Null);
        let _ = before - c.snapshot();
    }

    #[test]
    fn clones_share_state() {
        let a = OpCounter::new();
        let b = a.clone();
        b.record(NfsProc::GetAttr);
        assert_eq!(a.get(NfsProc::GetAttr), 1);
    }

    #[test]
    fn nonzero_iterates_only_used() {
        let c = OpCounter::new();
        c.record(NfsProc::Mkdir);
        let v: Vec<_> = c.snapshot().nonzero().collect();
        assert_eq!(v, vec![(NfsProc::Mkdir, 1)]);
    }
}
