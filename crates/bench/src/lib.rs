//! Criterion settings for the one bench target, `benches/catalog.rs`,
//! which walks `spritely_harness::catalog::CATALOG`: the experiments
//! themselves are defined there, once.

use std::time::Duration;

/// Each sample is a complete simulated experiment, so keep the counts
/// low.
pub fn config() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(10))
        .warm_up_time(Duration::from_millis(500))
}
