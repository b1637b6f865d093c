//! Shape assertions for the paper's headline results: who wins, by
//! roughly what factor, and where the crossovers fall. Absolute numbers
//! are our simulator's, not the authors' testbed's; these tests pin the
//! *relationships* the paper reports.

use spritely::harness::scripts::{andrew, scaling, sort, temp_lifetime};
use spritely::harness::{Protocol, Run, TestbedParams};
use spritely::proto::NfsProc;
use spritely::sim::SimDuration;
use spritely::workloads::AndrewTimes;

/// The 1408 KB sort with `/usr/tmp` on `protocol`; the run's `first()`
/// is the elapsed time.
fn sort_1408k(protocol: Protocol, update_enabled: bool) -> Run<SimDuration> {
    let params = TestbedParams {
        update_enabled,
        ..TestbedParams::paper(protocol, true)
    };
    sort(params, 1408 * 1024)
}

/// `write` RPCs a 128 KB temp file living `secs` costs.
fn temp_write_rpcs(protocol: Protocol, secs: u64) -> u64 {
    let params = TestbedParams::paper(protocol, true);
    let run = temp_lifetime(params, 128 * 1024, SimDuration::from_secs(secs));
    run.ops.get(NfsProc::Write)
}

fn andrew_42(protocol: Protocol, tmp_remote: bool) -> Run<AndrewTimes> {
    andrew(TestbedParams::paper(protocol, tmp_remote), 42)
}

#[test]
fn sort_ordering_and_factors_match_the_paper() {
    // Table 5-3: local < SNFS << NFS, with NFS roughly 2-4x slower.
    let local = sort_1408k(Protocol::Local, true);
    let nfs = sort_1408k(Protocol::Nfs, true);
    let snfs = sort_1408k(Protocol::Snfs, true);
    assert!(local.first() <= snfs.first());
    assert!(snfs.first() < nfs.first());
    let ratio = nfs.first().as_secs_f64() / snfs.first().as_secs_f64();
    assert!(
        ratio > 1.5,
        "paper: SNFS completes ~2x faster; got ratio {ratio:.2}"
    );
}

#[test]
fn sort_rpc_profile_matches_table_5_4() {
    // NFS re-reads what it wrote (close bug) and writes everything
    // through; SNFS barely reads and writes far less during the run.
    let nfs = sort_1408k(Protocol::Nfs, true);
    let snfs = sort_1408k(Protocol::Snfs, true);
    assert!(nfs.ops.get(NfsProc::Read) > 500);
    assert!(nfs.ops.get(NfsProc::Write) > 500);
    assert!(snfs.ops.get(NfsProc::Read) < nfs.ops.get(NfsProc::Read) / 5);
    assert!(snfs.ops.get(NfsProc::Write) < nfs.ops.get(NfsProc::Write) / 2);
    assert!(snfs.ops.total() < nfs.ops.total());
}

#[test]
fn infinite_write_delay_matches_tables_5_5_and_5_6() {
    // With /etc/update disabled, SNFS writes (almost) nothing to the
    // server and approaches local-disk time; NFS is unchanged.
    let nfs_on = sort_1408k(Protocol::Nfs, true);
    let nfs_off = sort_1408k(Protocol::Nfs, false);
    let snfs_off = sort_1408k(Protocol::Snfs, false);
    let local_off = sort_1408k(Protocol::Local, false);
    assert_eq!(
        nfs_on.ops.get(NfsProc::Write),
        nfs_off.ops.get(NfsProc::Write),
        "NFS performance/traffic unchanged by update (§5.4)"
    );
    assert!(
        snfs_off.ops.get(NfsProc::Write) <= 2,
        "SNFS writes ~0 blocks with infinite write-delay"
    );
    let ratio = snfs_off.first().as_secs_f64() / local_off.first().as_secs_f64();
    assert!(
        ratio < 1.25,
        "SNFS matches or beats local for short-lived temps; ratio {ratio:.2}"
    );
}

#[test]
fn temp_file_lifetime_crossover_is_the_update_interval() {
    // The crossover the paper's §5.4 implies: below the 30 s tick a temp
    // file is free under SNFS, above it the data escapes.
    assert_eq!(temp_write_rpcs(Protocol::Snfs, 10), 0);
    assert!(
        temp_write_rpcs(Protocol::Snfs, 70) >= 30,
        "post-tick the blocks were flushed"
    );
    assert!(
        temp_write_rpcs(Protocol::Nfs, 10) >= 32,
        "NFS pays regardless of lifetime"
    );
}

#[test]
fn andrew_shape_matches_table_5_1() {
    // /tmp remote: the configuration the paper highlights (diskless
    // workstation). SNFS wins Copy and Make and the total by 10-40%.
    let nfs = andrew_42(Protocol::Nfs, true);
    let snfs = andrew_42(Protocol::Snfs, true);
    let (nfs_times, snfs_times) = (nfs.first(), snfs.first());
    assert!(snfs_times.copy < nfs_times.copy, "Copy favors SNFS");
    assert!(snfs_times.make < nfs_times.make, "Make favors SNFS");
    let total_gain = 1.0 - snfs_times.total().as_secs_f64() / nfs_times.total().as_secs_f64();
    assert!(
        (0.08..0.45).contains(&total_gain),
        "payload total 15-20%-ish faster; got {:.0}%",
        total_gain * 100.0
    );
    // Table 5-2 aggregates: lookups dominate both protocols equally;
    // SNFS moves far less data.
    let (nfs_ops, snfs_ops) = (nfs.ops_to_now(), snfs.ops_to_now());
    assert!(nfs_ops.get(NfsProc::Lookup) * 2 >= nfs_ops.total() / 2);
    assert_eq!(
        nfs_ops.get(NfsProc::Lookup) + 51,
        snfs_ops.get(NfsProc::Lookup) + 51,
        "same lookup protocol on both sides"
    );
    assert!(
        snfs_ops.data_transfers() < nfs_ops.data_transfers() / 2,
        "paper: 42% fewer data-transfer operations (ours is stronger)"
    );
    // Server disk writes 30%+ lower under SNFS (paper: 30-35%).
    assert!(snfs.server_disk.writes * 10 <= nfs.server_disk.writes * 7);
}

#[test]
fn figures_5_1_5_2_series_are_plausible() {
    let nfs = andrew_42(Protocol::Nfs, true);
    let snfs = andrew_42(Protocol::Snfs, true);
    let (nfs_buckets, snfs_buckets) = (nfs.rate_buckets(), snfs.rate_buckets());
    let (nfs_util, snfs_util) = (nfs.tb.util.samples(), snfs.tb.util.samples());
    // Both series have enough points to plot and nonzero activity.
    assert!(nfs_buckets.len() >= 8);
    assert!(snfs_buckets.len() >= 8);
    let nfs_peak = nfs_buckets.iter().map(|b| b.total).max().unwrap();
    let snfs_peak = snfs_buckets.iter().map(|b| b.total).max().unwrap();
    assert!(nfs_peak > 0 && snfs_peak > 0);
    // Utilization stays a fraction (sampler sanity).
    for &(_, u) in nfs_util.iter().chain(&snfs_util) {
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
    // Paper: load correlates with aggregate call rate. Check the
    // correlation coefficient is clearly positive for NFS.
    let r = correlation(
        &nfs_util.iter().map(|&(_, u)| u).collect::<Vec<_>>(),
        &nfs_buckets
            .iter()
            .map(|b| b.total as f64)
            .collect::<Vec<_>>(),
    );
    assert!(r > 0.5, "CPU load should track call rate; r = {r:.2}");
}

fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 3 {
        return 0.0;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[test]
fn ablation_close_bug_accounts_for_part_of_the_gap() {
    // §5.3: the authors estimate the invalidate-on-close bug explains
    // less than a quarter of the sort difference. Fixing it must help
    // NFS but not erase SNFS's lead.
    let nfs = sort_1408k(Protocol::Nfs, true);
    let fixed = sort_1408k(Protocol::NfsFixed, true);
    let snfs = sort_1408k(Protocol::Snfs, true);
    assert!(fixed.first() <= nfs.first());
    assert!(
        fixed.ops.get(NfsProc::Read) < nfs.ops.get(NfsProc::Read) / 2,
        "fixed client re-reads far less"
    );
    assert!(
        snfs.first() < fixed.first(),
        "write-through still loses to delayed write-back"
    );
}

#[test]
fn ablation_delayed_close_reduces_rpc_count() {
    // §6.2: delayed close should cut open/close traffic on the Andrew
    // benchmark (header files are reopened constantly).
    let snfs = andrew_42(Protocol::Snfs, false);
    let dc = andrew_42(Protocol::SnfsDelayedClose, false);
    let oc = |r: &Run<AndrewTimes>| {
        let ops = r.ops_to_now();
        ops.get(NfsProc::Open) + ops.get(NfsProc::Close)
    };
    assert!(
        oc(&dc) * 2 < oc(&snfs),
        "delayed close halves open/close traffic: {} vs {}",
        oc(&dc),
        oc(&snfs)
    );
    assert!(dc.first().total() <= snfs.first().total());
}

#[test]
fn server_capacity_gap_grows_with_clients() {
    // §2.3: the more active clients, the bigger SNFS's advantage — the
    // server disk is NFS's bottleneck, and SNFS keeps traffic off it.
    let speedup = |n: usize| {
        let nfs = scaling(TestbedParams::paper(Protocol::Nfs, true), n, 42);
        let snfs = scaling(TestbedParams::paper(Protocol::Snfs, true), n, 42);
        nfs.makespan.as_secs_f64() / snfs.makespan.as_secs_f64()
    };
    let one = speedup(1);
    let four = speedup(4);
    assert!(
        four > one,
        "advantage grows with load: {one:.2}x -> {four:.2}x"
    );
    assert!(
        four > 1.3,
        "multi-client speedup is substantial: {four:.2}x"
    );
}

#[test]
fn after_an_nfs_sort_the_dup_cache_holds_no_idempotent_reply() {
    // The sort reads back every temp block it wrote; a read keeps no
    // reply in the server's duplicate-request cache, so the cache holds
    // one entry per non-idempotent call and none for the reads. (No
    // entry has aged out: the run is shorter than the retention.)
    let run = sort(TestbedParams::paper(Protocol::Nfs, true), 281 * 1024);
    let (tb, ep) = (&run.tb, run.tb.endpoint.as_ref().expect("an NFS server"));
    assert!(tb.sim.now().as_micros() < ep.dup_retention().as_micros());
    assert!(tb.counter.get(NfsProc::Read) > 50);
    let kept: u64 = NfsProc::ALL
        .iter()
        .filter(|p| !p.idempotent())
        .map(|&p| tb.counter.get(p))
        .sum();
    assert_eq!(ep.dup_entries() as u64, kept);
}
