//! Measurement infrastructure: per-procedure RPC counters, bucketed time
//! series, and text-table rendering for the paper's tables and figures.
//!
//! The paper reports three kinds of measurements:
//!
//! * elapsed times per benchmark phase (Tables 5-1, 5-3, 5-5),
//! * RPC calls per procedure (Tables 5-2, 5-4, 5-6),
//! * server CPU utilization and RPC call *rates* over time
//!   (Figures 5-1, 5-2).
//!
//! [`OpCounter`] and [`RateSeries`] provide the raw data for the last two;
//! [`LatencyStats`] adds per-procedure latency distributions (count, mean,
//! percentiles) a modern release would ship; [`TextTable`] renders
//! paper-style tables from any of them. [`json`] owns the one serialization
//! format the artifacts use.

mod counter;
mod hist;
pub mod json;
mod latency;
mod series;
mod table;

pub use counter::{OpCounter, OpCounts};
pub use hist::{Histogram, InflightGauge};
pub use latency::LatencyStats;
pub use series::{GaugeSeries, RateBucket, RateSeries};
pub use table::TextTable;
