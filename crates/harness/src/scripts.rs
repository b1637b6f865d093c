//! The workloads of the evaluation, each one script on the run driver
//! ([`crate::run`], DESIGN.md §24): build the testbed `params`
//! describes, set up untimed, [`measure`](Testbed::measure) the
//! workload. What a script's [`Run`] carries per client is what only
//! that script knows. No script re-issues an op: the clients are
//! hard-mounted (DESIGN.md §20), so an op outlasts a partition or an
//! overloaded server, and one that fails is a finding.

use std::rc::Rc;

use spritely_proto::{default_shard, Result, BLOCK_SIZE};
use spritely_rpcnet::PartitionDir;
use spritely_sim::{Semaphore, SimDuration, SimRng};
use spritely_vfs::{OpenFlags, Proc};
use spritely_workloads::{
    populate_sort_input, run_sort, temp_file_lifetime, write_close_reopen_read, AndrewBenchmark,
    AndrewConfig, AndrewParams, AndrewTimes, ReopenResult, SortConfig, SortParams,
};

use crate::oracle::{filler, stamped, Oracle, Tally};
use crate::run::{Run, DRAIN};
use crate::testbed::{Testbed, TestbedParams};

/// The Andrew benchmark (Tables 5-1/5-2, Figures 5-1/5-2), timed phase
/// by phase from a cold client cache.
///
/// After the window the simulation idles another 120 virtual seconds so
/// delayed write-backs drain into the figure series and into
/// [`Run::ops_to_now`] (the paper ran SNFS trials back to back for the
/// same reason, §5.2).
pub fn andrew(params: TestbedParams, seed: u64) -> Run<AndrewTimes> {
    let tb = Testbed::build(params);
    // The benchmark spec is deterministic in the seed, so the instance
    // that populates the source tree is identical to the one that runs.
    let bench = || AndrewBenchmark::new(seed, AndrewParams::default());
    let cfg = AndrewConfig {
        src_base: "/remote/src".to_string(),
        target_base: "/remote/target".to_string(),
        tmp_base: "/usr/tmp".to_string(),
    };
    // Set-up's delayed writes drain inside its own task: they belong to
    // set-up, not to the benchmark.
    tb.together(|_, p| {
        let (bench, src) = (bench(), cfg.src_base.clone());
        async move {
            bench.populate_source(&p, &src).await.expect("populate");
            p.sim().sleep(DRAIN).await;
        }
    });
    tb.cold_boot();
    tb.spawn_utilization_sampler();
    let run = tb.measure(|_, p| {
        let (bench, cfg) = (bench(), cfg.clone());
        async move { bench.run(&p, &cfg).await.expect("benchmark run") }
    });
    run.tb.idle(SimDuration::from_secs(120));
    run
}

/// The sort benchmark (Tables 5-3 to 5-6); each client's result is the
/// sort's elapsed time.
///
/// The input and output files live on the client's local disk in every
/// configuration; only `/usr/tmp` (temp files) moves between local disk,
/// NFS, and SNFS — matching §5.3.
pub fn sort(params: TestbedParams, input_bytes: u64) -> Run<SimDuration> {
    let tb = Testbed::build(params);
    let cfg = SortConfig {
        input_path: "/input".to_string(),
        output_path: "/output".to_string(),
        tmp_dir: "/usr/tmp".to_string(),
    };
    // The input goes to the local disk and is flushed there, so the
    // benchmark starts from a quiet system.
    tb.together(|i, p| {
        let (path, fs) = (cfg.input_path.clone(), tb.clients[i].local_fs.clone());
        async move {
            let made = populate_sort_input(&p, &path, input_bytes).await;
            made.expect("populate input");
            fs.sync_all().await;
        }
    });
    tb.measure(|_, p| {
        let cfg = cfg.clone();
        async move {
            let sorted = run_sort(&p, SortParams::paper(input_bytes), &cfg).await;
            sorted.expect("sort run")
        }
    })
}

/// Write-behind flush microbenchmark: dirties `blocks` cache blocks of
/// one file, then times the `fsync` that pushes them back to the server
/// — each client's result. The flush travels through the write-behind
/// pool, so this measures the gathering + pipelining win directly
/// (paper-mode defaults reproduce the serial one-block-per-RPC flush).
/// Run it with the update daemons off, so the `fsync` is the only flush.
pub fn flush(params: TestbedParams, blocks: usize) -> Run<SimDuration> {
    Testbed::build(params).measure(|_, p| async move {
        let flags = OpenFlags::create_write();
        let fd = p.open("/remote/flushprobe", flags).await.expect("create");
        let chunk = vec![0xA5u8; BLOCK_SIZE];
        for i in 0..blocks {
            let dirtied = p.write_at(fd, (i * BLOCK_SIZE) as u64, &chunk).await;
            dirtied.expect("dirty a block");
        }
        let start = p.sim().now();
        p.fsync(fd).await.expect("fsync");
        let flush_time = p.sim().now().saturating_duration_since(start);
        p.close(fd).await.expect("close");
        flush_time
    })
}

/// The §5.3 microbenchmark: write `bytes`, close, reopen and read either
/// the same file or a different (pre-existing) one.
pub fn reopen(params: TestbedParams, same_file: bool, bytes: u64) -> Run<ReopenResult> {
    let tb = Testbed::build(params);
    if !same_file {
        tb.together(|_, p| async move {
            let made = write_close_reopen_read(&p, "/remote/other", None, bytes).await;
            made.expect("pre-create other file");
        });
    }
    tb.measure(|_, p| async move {
        let other = (!same_file).then_some("/remote/other");
        let probed = write_close_reopen_read(&p, "/remote/probe", other, bytes).await;
        probed.expect("probe run")
    })
}

/// Creates a temp file of `bytes` in `/usr/tmp`, lets it live for
/// `lifetime`, deletes it, then lets daemons settle — `ops` then says how
/// many write RPCs escaped to the server (§5.4's mechanism,
/// parameterized).
pub fn temp_lifetime(params: TestbedParams, bytes: u64, lifetime: SimDuration) -> Run<()> {
    Testbed::build(params).measure(|_, p| async move {
        let lived = temp_file_lifetime(&p, "/usr/tmp/scratch", bytes, lifetime).await;
        lived.expect("temp lifetime");
        // Straggling write-backs fire inside the window.
        p.sim().sleep(DRAIN).await;
    })
}

/// A compact per-client workload: a scaled-down Andrew benchmark in a
/// private namespace (every client is a "diskless workstation" with /tmp
/// on the server).
fn small_andrew() -> AndrewParams {
    AndrewParams {
        dirs: 3,
        c_files: 6,
        h_files: 8,
        misc_files: 10,
        total_bytes: 160 * 1024,
        headers_per_compile: 4,
        ..AndrewParams::default()
    }
}

/// Server scaling (paper §2.3: "Reducing server writes ... should ...
/// increase the number of clients that can actively use a single
/// server"): `n_clients` identical small Andrew runs, started together
/// from cold caches against one server. Each client's result is its own
/// elapsed time.
pub fn scaling(params: TestbedParams, n_clients: usize, seed: u64) -> Run<SimDuration> {
    let tb = Testbed::build_with_clients(params, n_clients);
    let bench = |i: usize| AndrewBenchmark::new(seed + i as u64, small_andrew());
    tb.together(|i, p| {
        let bench = bench(i);
        async move {
            p.mkdir(&format!("/remote/u{i}")).await.expect("user dir");
            p.mkdir(&format!("/usr/tmp/u{i}")).await.expect("tmp dir");
            let src = format!("/remote/u{i}/src");
            bench.populate_source(&p, &src).await.expect("populate");
        }
    });
    tb.drain();
    tb.cold_boot();
    tb.measure(|i, p| {
        let bench = bench(i);
        let cfg = AndrewConfig {
            src_base: format!("/remote/u{i}/src"),
            target_base: format!("/remote/u{i}/target"),
            tmp_base: format!("/usr/tmp/u{i}"),
        };
        async move {
            let start = p.sim().now();
            bench.run(&p, &cfg).await.expect("client workload");
            p.sim().now().duration_since(start)
        }
    })
}

/// Files each client writes, syncs and reads back in the measured phase.
const SHARD_SCALE_FILES: usize = 4;
/// Blocks per file.
const SHARD_SCALE_BLOCKS: usize = 2;

/// The shared-nothing shard-scaling workload (DESIGN.md §18.6):
/// `n_clients` SNFS clients each own a private root-level subtree
/// (`/remote/u{i}`, placed on `default_shard("u{i}", n)`), and
/// concurrently create, sync-write, close, reopen and read back a small
/// set of files there. No client touches another's subtree, so aggregate
/// throughput — `served` summed, over the makespan — is bounded only by
/// server-side resources, one CPU and one disk per shard, and should
/// scale with `params.shards` until the wire saturates. One shard is the
/// unsharded paper testbed, the baseline the others are compared against.
pub fn scaling_shards(params: TestbedParams, n_clients: usize, seed: u64) -> Run<()> {
    let tb = Testbed::build_with_clients(params, n_clients);
    // Every client carves out its own root-level subtree; the root name
    // routes it to its owning shard.
    tb.together(|i, p| async move {
        p.mkdir(&format!("/remote/u{i}")).await.expect("user dir");
    });
    tb.measure(|i, p| async move {
        let sim = p.sim();
        // Stagger client starts by 25 ms: a perfectly synchronized
        // 512-client burst drives the transport into congestion
        // collapse (every walk times out, every retry re-offers the
        // full load), which no real fleet exhibits. The ramp is
        // deterministic and identical across shard counts, so the
        // comparison stays fair. Past the ramp an overloaded server can
        // still outlast a ladder; the client's hard mount calls again.
        sim.sleep(SimDuration::from_millis(25 * i as u64)).await;
        let fill = (seed as u8).wrapping_add(i as u8).wrapping_add(1);
        for f in 0..SHARD_SCALE_FILES {
            let path = format!("/remote/u{i}/f{f}");
            let made = p.open(&path, OpenFlags::create_write()).await;
            let fd = made.expect("create");
            let block = vec![fill.wrapping_add(f as u8); BLOCK_SIZE];
            for b in 0..SHARD_SCALE_BLOCKS {
                let wrote = p.write_at(fd, (b * BLOCK_SIZE) as u64, &block).await;
                wrote.expect("write");
            }
            p.fsync(fd).await.expect("fsync");
            p.close(fd).await.expect("close");
            let fd = p.open(&path, OpenFlags::read()).await.expect("reopen");
            let mut off = 0u64;
            loop {
                let data = p.read_at(fd, off, BLOCK_SIZE as u32).await.expect("read");
                if data.is_empty() {
                    break;
                }
                off += data.len() as u64;
            }
            p.close(fd).await.expect("close");
        }
        // A rename inside the subtree: same-shard, no coordination.
        let (from, to) = (format!("/remote/u{i}/f0"), format!("/remote/u{i}/g0"));
        p.rename(&from, &to).await.expect("rename");
    })
}

/// Writes `blocks` blocks of `fill` to a new file at `path`.
async fn seed_file(p: &Proc, path: &str, fill: u8, blocks: usize) -> Result<()> {
    let fd = p.open(path, OpenFlags::create_write()).await?;
    p.write(fd, &vec![fill; blocks * BLOCK_SIZE]).await?;
    p.close(fd).await
}

/// Opens `path`, reads it to the end a block at a time, closes it.
async fn read_whole(p: &Proc, path: &str) -> Result<()> {
    let fd = p.open(path, OpenFlags::read()).await?;
    while !p.read(fd, BLOCK_SIZE as u32).await?.is_empty() {}
    p.close(fd).await
}

/// Data scaling: client 0 seeds a shared 256-block file and lets it
/// drain (untimed), every client cold-boots, then all `n` clients read
/// the whole file concurrently.
pub fn shared_read(params: TestbedParams, n: usize) -> Run<()> {
    let tb = Testbed::build_with_clients(params, n);
    let p = tb.proc();
    tb.sim.block_on(async move {
        let seeded = seed_file(&p, "/remote/shared", 3, 256).await;
        seeded.expect("seed the shared file");
        p.sim().sleep(DRAIN).await;
    });
    tb.cold_boot();
    tb.measure(|_, p| async move {
        let read = read_whole(&p, "/remote/shared").await;
        read.expect("read the shared file")
    })
}

const CHURN_ROUNDS: usize = 30;
const DOC_FILES: usize = 8;
const DOC_ROUNDS: usize = 3;
const CHURN_FILE_BLOCKS: usize = 4;

/// The open-heavy mix the delegation fast path targets: each client
/// seeds a private file and client 0 the shared docroot (untimed,
/// drained), then every client runs `CHURN_ROUNDS` open/read/close
/// cycles on its private file and `DOC_ROUNDS` passes over the
/// `DOC_FILES`-file docroot.
pub fn open_churn(params: TestbedParams, n: usize) -> Run<()> {
    let tb = Testbed::build_with_clients(params, n);
    tb.together(|i, p| async move {
        let own = format!("/remote/src/own{i}");
        seed_file(&p, &own, 5, CHURN_FILE_BLOCKS)
            .await
            .expect("seed");
        if i == 0 {
            for f in 0..DOC_FILES {
                let doc = format!("/remote/src/doc{f}");
                seed_file(&p, &doc, 6, CHURN_FILE_BLOCKS)
                    .await
                    .expect("seed");
            }
        }
    });
    tb.drain();
    tb.measure(|i, p| async move {
        let own = format!("/remote/src/own{i}");
        for _ in 0..CHURN_ROUNDS {
            read_whole(&p, &own).await.expect("read own");
        }
        for _ in 0..DOC_ROUNDS {
            for f in 0..DOC_FILES {
                let doc = format!("/remote/src/doc{f}");
                read_whole(&p, &doc).await.expect("read doc");
            }
        }
    })
}

/// State-table churn (§4.3.1): creates, writes and closes 256 one-block
/// files against the server's state table, then gives its reclaim passes
/// 5 s to finish.
pub fn state_churn(params: TestbedParams) -> Run<()> {
    let tb = Testbed::build(params);
    let c = tb.clients[0].remote.snfs().expect("snfs client").clone();
    let root = tb.server_fs.root();
    tb.measure(|_, p| {
        let c = c.clone();
        async move {
            for i in 0..256 {
                let (fh, _) = c.create(root, &format!("f{i}")).await.expect("create");
                c.open(fh, true).await.expect("open");
                c.write(fh, 0, &[1u8; BLOCK_SIZE]).await.expect("write");
                c.close(fh, true).await.expect("close");
            }
            p.sim().sleep(SimDuration::from_secs(5)).await;
        }
    })
}

/// How the clients of [`sharing`] share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Sequential write sharing by careful clients, the benchmark's
    /// workload: a readers-writer lock per file keeps a writer's
    /// open-to-close apart from every other open of the file.
    Sequential,
    /// Concurrent write sharing: readers overlap the writer, so files go
    /// write-shared.
    Concurrent,
}

const SHARERS: usize = 8;
const SHARED_FILES: usize = 16;
/// Half of all opens go to the first two files.
const HOT_FILES: usize = 2;
const SHARED_BLOCKS: usize = 4;
const SHARING_ROUNDS: usize = 200;

fn shared_path(file: usize) -> String {
    format!("/remote/share/s{file:02}")
}

/// `res`'s value, or `None` with the failed call counted in `t`.
fn ok<T>(t: &mut Tally, res: Result<T>) -> Option<T> {
    res.map_err(|_| t.errors += 1).ok()
}

/// Eight SNFS clients share sixteen four-block files: each makes
/// `SHARING_ROUNDS` opens, a quarter of them writing block 0, half of
/// them to the two hot files, with 1-20 ms of think time between. Writers
/// of one file take turns in both modes (see [`Oracle`]). Each client's
/// result is what [`Oracle`] found wrong with its reads and, after a
/// drain, with its closed writes.
pub fn sharing(params: TestbedParams, mode: Sharing, seed: u64) -> Run<Tally> {
    let tb = Testbed::build_with_clients(params, SHARERS);
    tb.together(|i, p| async move {
        if i > 0 {
            return;
        }
        p.mkdir("/remote/share").await.expect("share dir");
        for file in 0..SHARED_FILES {
            let fd = p.open(&shared_path(file), OpenFlags::create_write()).await;
            let fd = fd.expect("create a shared file");
            p.write(fd, &stamped(0)).await.expect("write block 0");
            for block in 1..SHARED_BLOCKS {
                p.write(fd, &filler(file, block)).await.expect("write");
            }
            p.close(fd).await.expect("close");
        }
    });
    tb.drain();
    tb.cold_boot();
    let oracle = Rc::new(Oracle::new(SHARED_FILES));
    // Per file: one writer at a time, and one permit per reading session
    // that a sequential writer takes all of.
    let locks: Rc<Vec<_>> = Rc::new(
        (0..SHARED_FILES)
            .map(|_| (Semaphore::new(1), Semaphore::new(SHARERS)))
            .collect(),
    );
    let streams = SimRng::new(seed);
    let mut run = tb.measure(|i, p| {
        let (rng, oracle, locks) = (streams.fork(), oracle.clone(), locks.clone());
        async move {
            let sim = p.sim().clone();
            let sequential = mode == Sharing::Sequential;
            let mut t = Tally::default();
            for _ in 0..SHARING_ROUNDS {
                let file = if rng.f64() < 0.5 {
                    rng.index(HOT_FILES)
                } else {
                    HOT_FILES + rng.index(SHARED_FILES - HOT_FILES)
                };
                let (path, (writer, readers)) = (shared_path(file), &locks[file]);
                if rng.f64() < 0.25 {
                    let _turn = writer.acquire().await;
                    let mut alone = Vec::new();
                    if sequential {
                        for _ in 0..SHARERS {
                            alone.push(readers.acquire().await);
                        }
                    }
                    if let Some(fd) = ok(&mut t, p.open(&path, OpenFlags::read_write()).await) {
                        let version = oracle.next(file);
                        if ok(&mut t, p.write_at(fd, 0, &stamped(version)).await).is_some() {
                            oracle.wrote(file, version);
                        }
                        if ok(&mut t, p.close(fd).await).is_some() {
                            oracle.closed(file, i);
                        }
                    }
                } else {
                    let _session = if sequential {
                        Some(readers.acquire().await)
                    } else {
                        None
                    };
                    if let Some(fd) = ok(&mut t, p.open(&path, OpenFlags::read()).await) {
                        // Every write closed by now must be visible to
                        // this open.
                        let floor = oracle.floor(file);
                        for block in 0..SHARED_BLOCKS {
                            let offset = (block * BLOCK_SIZE) as u64;
                            let read = p.read_at(fd, offset, BLOCK_SIZE as u32).await;
                            if let Some(data) = ok(&mut t, read) {
                                oracle.check_read(file, block, floor, &data, &mut t);
                            }
                        }
                        ok(&mut t, p.close(fd).await);
                    }
                }
                let (min, max) = (SimDuration::from_millis(1), SimDuration::from_millis(20));
                sim.sleep(rng.duration_uniform(min, max)).await;
            }
            t
        }
    });
    run.tb.drain();
    // The share directory lives on whichever server owns its name.
    let (fs, dir) = (run.tb.servers.iter())
        .find_map(|h| Some((h.fs.clone(), h.fs.lookup(h.fs.root(), "share").ok()?.0)))
        .expect("the share directory");
    for file in 0..SHARED_FILES {
        let name = format!("s{file:02}");
        let stable = fs
            .lookup(dir, &name)
            .and_then(|(fh, _)| fs.stable_contents(fh));
        if let Some(client) = oracle.check_final(file, &stable.unwrap_or_default()) {
            run.per_client[client].lost += 1;
        }
    }
    run
}

/// Cross-shard renames with a shard partitioned mid-rename, the `chaos`
/// entry's `shard` row (DESIGN.md §18.4).
///
/// Two clients work disjoint name sets over `params.shards`. Client 0's
/// first rename is chosen to cross shards; in a faulted run, just before
/// issuing it, the coordinating shard's inter-shard link (fault host
/// `200 + s`) is partitioned for 8 s, so the `tx_prepare` to the
/// destination's owner cannot leave the coordinator. The coordinator must
/// hold the name locked and retry the prepare past the heal —
/// Busy-bouncing concurrent touches of either name, the client's own
/// rename among them once its ladder runs out and its hard mount calls it
/// again — and then drive the commit to completion.
pub fn shard_renames(params: TestbedParams) -> Run<()> {
    const FILES: u32 = 3;
    let shards = params.shards.n as u32;
    let tb = Testbed::build_with_clients(params, 2);
    let net = tb.net.clone();
    let root = tb.server_fs.root();
    let clients: Vec<_> = (tb.clients.iter())
        .map(|host| host.remote.snfs().expect("SNFS testbed").clone())
        .collect();
    // First name of the form `{prefix}{i}` owned by `shard`.
    let name_on = |shard: u32, prefix: &str| -> String {
        (0u32..)
            .map(|i| format!("{prefix}{i}"))
            .find(|s| default_shard(s, shards) == shard)
            .expect("some index hashes to every shard")
    };
    tb.measure(|c, p| {
        let (client, net) = (clients[c].clone(), net.clone());
        // Disjoint per-client names; every rename crosses shards so the
        // digests converge regardless of client interleaving.
        let pairs: Vec<(String, String)> = (0..FILES)
            .map(|i| {
                let src = format!("c{c}w{i}");
                let s = default_shard(&src, shards);
                let dst = name_on((s + 1) % shards, &format!("c{c}m{i}_"));
                (src, dst)
            })
            .collect();
        // A cross-shard hard link on top of the moved set.
        let ln = name_on(
            (default_shard(&pairs[0].1, shards) + 1) % shards,
            &format!("c{c}ln_"),
        );
        async move {
            let sim = p.sim();
            let fill = |i: usize| [(c as u8) * 16 + i as u8 + 1; BLOCK_SIZE];
            let mut fhs = Vec::new();
            for (i, (src, _)) in pairs.iter().enumerate() {
                let (fh, _) = client.create(root, src).await.expect("create");
                client.open(fh, true).await.expect("open");
                let bytes = fill(i);
                client.write(fh, 0, &bytes).await.expect("write");
                client.fsync(fh).await.expect("fsync");
                client.close(fh, true).await.expect("close");
                fhs.push(fh);
            }
            // Client 0's first rename coordinates from the shard that
            // owns its source name: sever that shard's inter-shard link
            // just before the renames (scripted; consumes no randomness).
            if c == 0 && net.faults_active() {
                net.partition(
                    200 + default_shard(&pairs[0].0, shards),
                    PartitionDir::Both,
                    sim.now() + SimDuration::from_secs(8),
                );
            }
            // A rename whose first call executed (held through the
            // partition by the coordinator) meets `NoEnt` when called
            // again, and a link `Exist`: the client reads both as done.
            for (src, dst) in &pairs {
                client.rename(root, src, root, dst).await.expect("rename");
            }
            client.link(fhs[0], root, &ln).await.expect("link");
            // Read everything back through the new names.
            for (i, (_, dst)) in pairs.iter().enumerate() {
                let (fh, _) = client.lookup(root, dst).await.expect("lookup");
                client.open(fh, false).await.expect("open");
                let (data, _) = client.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
                assert!(
                    data[..] == fill(i),
                    "client {c} reads its own bytes via {dst}"
                );
                client.close(fh, false).await.expect("close");
            }
            // Let delayed writes, commits and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    })
}

/// A recall sweep, the `chaos` entry's `delegation` row (DESIGN.md
/// §17.2).
///
/// Client A creates a working set of files — earning write delegations —
/// flushes them, and churns them locally; client B then sweeps every file
/// for read, forcing a recall per file. In a faulted run A's host is
/// additionally partitioned outbound for 7 s at the start of B's sweep,
/// so recall acks and delegation returns are lost and the server's recall
/// retry loop re-delivers (duplicated recalls hit the client's sequence
/// guard; a holder that cannot return in time is revoked and fenced).
/// After the heal A rewrites one file and B re-reads it, exercising the
/// re-grant path.
pub fn delegation(params: TestbedParams) -> Run<()> {
    const FILES: u64 = 4;
    let tb = Testbed::build_with_clients(params, 2);
    let [a, b] = [0, 1].map(|i| tb.clients[i].remote.snfs().expect("SNFS testbed").clone());
    let (root, net) = (tb.server_fs.root(), tb.net.clone());
    tb.measure(|i, p| {
        let (a, b, net) = (a.clone(), b.clone(), net.clone());
        async move {
            // One script drives both clients in turn, from client 0.
            if i > 0 {
                return;
            }
            let sim = p.sim();
            // A builds its delegated working set. Everything is fsynced:
            // the interesting chaos target is the recall protocol, not
            // dirty-data recovery, and a revoked holder's unflushed
            // writes are legitimately fenced away (§17.3) — which would
            // make the digests diverge by design.
            let mut fhs = Vec::new();
            for i in 0..FILES {
                let name = format!("deleg{i}");
                let (fh, _) = a.create(root, &name).await.expect("create");
                a.open(fh, true).await.expect("open");
                let bytes = [i as u8 + 1; BLOCK_SIZE];
                a.write(fh, 0, &bytes).await.expect("write");
                a.fsync(fh).await.expect("fsync");
                a.close(fh, true).await.expect("close");
                fhs.push(fh);
            }
            // Local churn: re-open/read/close under the delegations.
            for _ in 0..3 {
                for &fh in &fhs {
                    a.open(fh, false).await.expect("open");
                    a.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
                    a.close(fh, false).await.expect("close");
                }
            }
            // A goes mute for 7 s just as B's sweep starts: recall
            // callbacks still reach A, but its acks and returns are
            // lost until the heal (scripted, consumes no randomness).
            if net.faults_active() {
                net.partition(
                    1,
                    PartitionDir::Outbound,
                    sim.now() + SimDuration::from_secs(7),
                );
            }
            // B sweeps the working set: one recall per file.
            for &fh in &fhs {
                b.open(fh, false).await.expect("open");
                b.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
                b.close(fh, false).await.expect("close");
            }
            // After the heal: A rewrites one file (re-earning authority
            // or falling back to RPC if it was fenced), B re-reads it.
            let fh = fhs[0];
            a.open(fh, true).await.expect("open");
            a.write(fh, 0, &[0xAA; BLOCK_SIZE]).await.expect("write");
            a.fsync(fh).await.expect("fsync");
            a.close(fh, true).await.expect("close");
            b.open(fh, false).await.expect("open");
            let (data, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.expect("read");
            assert!(
                data.iter().all(|&x| x == 0xAA),
                "B sees A's post-heal version"
            );
            b.close(fh, false).await.expect("close");
            // Let delayed writes, lazy returns and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    })
}

/// Two-client write-sharing across a partition, the `chaos` entry's
/// `sharing` row.
///
/// Client B overwrites a file A published and holds the data dirty (run
/// it with a long write delay), then, in a faulted run, B's host is
/// partitioned. Client A opens the file while B is unreachable: the
/// server must *retry* B's write-back callback past the partition instead
/// of declaring B crashed — when the partition heals, B's dirty data
/// reaches the server and A reads it.
pub fn write_sharing(params: TestbedParams) -> Run<()> {
    let tb = Testbed::build_with_clients(params, 2);
    let [a, b] = [0, 1].map(|i| tb.clients[i].remote.snfs().expect("SNFS testbed").clone());
    let (root, net) = (tb.server_fs.root(), tb.net.clone());
    tb.measure(|i, p| {
        let (a, b, net) = (a.clone(), b.clone(), net.clone());
        async move {
            // One script drives both clients in turn, from client 0.
            if i > 0 {
                return;
            }
            let sim = p.sim();
            // A publishes version 1 of the shared file.
            let (fh, _) = a.create(root, "shared").await.expect("create");
            a.open(fh, true).await.expect("open");
            a.write(fh, 0, &[1u8; 2 * BLOCK_SIZE]).await.expect("write");
            a.fsync(fh).await.expect("fsync");
            a.close(fh, true).await.expect("close");
            // B overwrites it and holds the data dirty (30 s delay).
            b.open(fh, true).await.expect("open");
            b.write(fh, 0, &[2u8; 2 * BLOCK_SIZE]).await.expect("write");
            b.close(fh, true).await.expect("close");
            // Partition B's host for 12 s (faulted run only; scripted
            // partitions consume no randomness).
            if net.faults_active() {
                net.partition(
                    2,
                    PartitionDir::Both,
                    sim.now() + SimDuration::from_secs(12),
                );
            }
            // A reopens while B is unreachable. The server must hold the
            // open and retry B's write-back callback until the partition
            // heals; A's own RPC ladder (≈5 s) is shorter than that, so
            // A's hard mount calls the open again until it goes through.
            let attr = a.open(fh, false).await.expect("open");
            assert_eq!(
                attr.size,
                (2 * BLOCK_SIZE) as u64,
                "A sees B's version after the heal"
            );
            let (data, _) = a.read(fh, 0, (2 * BLOCK_SIZE) as u32).await.expect("read");
            assert!(
                data.iter().all(|&x| x == 2),
                "B's dirty data survived the partition"
            );
            a.close(fh, false).await.expect("close");
            // Let delayed writes and the server update daemon drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, WriteBehindParams};
    use spritely_proto::NfsProc;

    fn sort_281k(protocol: Protocol, update_enabled: bool) -> Run<SimDuration> {
        let params = TestbedParams {
            update_enabled,
            ..TestbedParams::paper(protocol, true)
        };
        sort(params, 281 * 1024)
    }

    #[test]
    fn sort_local_beats_nothing_but_runs() {
        let run = sort_281k(Protocol::Local, true);
        assert!(run.first().as_secs_f64() > 0.5);
        assert_eq!(run.ops.total(), 0, "local config makes no RPCs");
    }

    #[test]
    fn sort_snfs_beats_nfs() {
        let nfs = sort_281k(Protocol::Nfs, true);
        let snfs = sort_281k(Protocol::Snfs, true);
        assert!(
            snfs.first() < nfs.first(),
            "SNFS {} vs NFS {}",
            snfs.first(),
            nfs.first()
        );
        assert!(
            snfs.ops.get(NfsProc::Write) < nfs.ops.get(NfsProc::Write),
            "SNFS writes fewer blocks through"
        );
    }

    #[test]
    fn sort_snfs_without_update_writes_almost_nothing() {
        let run = sort_281k(Protocol::Snfs, false);
        assert!(
            run.ops.get(NfsProc::Write) <= 2,
            "expected ~0 write RPCs, got {}",
            run.ops.get(NfsProc::Write)
        );
    }

    #[test]
    fn temp_lifetime_below_delay_is_free_on_snfs() {
        let write_rpcs = |protocol, secs| {
            let lifetime = SimDuration::from_secs(secs);
            let run = temp_lifetime(TestbedParams::paper(protocol, true), 64 * 1024, lifetime);
            run.ops.get(NfsProc::Write)
        };
        assert_eq!(
            write_rpcs(Protocol::Snfs, 5),
            0,
            "short-lived temp never written"
        );
        assert!(
            write_rpcs(Protocol::Snfs, 120) > 0,
            "long-lived temp written back"
        );
        assert!(
            write_rpcs(Protocol::Nfs, 5) >= 16,
            "NFS always writes through"
        );
    }

    #[test]
    fn reopen_probe_shows_close_bug() {
        let reads = |protocol| {
            let run = reopen(TestbedParams::paper(protocol, false), true, 256 * 1024);
            run.ops.get(NfsProc::Read)
        };
        assert!(reads(Protocol::Nfs) > reads(Protocol::NfsFixed));
    }

    /// One flush point: the `fsync` is the only flush.
    fn flushed(write_behind: WriteBehindParams, blocks: usize) -> Run<SimDuration> {
        let params = TestbedParams {
            update_enabled: false,
            write_behind,
            ..TestbedParams::default()
        };
        flush(params, blocks)
    }

    #[test]
    fn paper_mode_flush_is_serial_one_block_rpcs() {
        let run = flushed(WriteBehindParams::default(), 16);
        let client = run.tb.clients[0].remote.snfs().unwrap();
        assert_eq!(run.ops.get(NfsProc::Write), 16, "one RPC per block");
        let mean_batch = client.write_stats().mean_blocks();
        assert!((mean_batch - 1.0).abs() < 1e-9, "no gathering");
        assert_eq!(client.write_stats().peak, 1, "no pipelining");
        assert_eq!(client.stats().writeback_failures, 0);
    }

    #[test]
    fn pipelined_flush_gathers_and_overlaps() {
        let run = flushed(WriteBehindParams::pipelined(), 64);
        let client = run.tb.clients[0].remote.snfs().unwrap();
        let write_rpcs = run.ops.get(NfsProc::Write);
        assert!(
            write_rpcs <= 64 / 8 + 1,
            "gathering collapses RPC count, got {write_rpcs}"
        );
        let mean_batch = client.write_stats().mean_blocks();
        assert!(mean_batch > 4.0, "mean batch {mean_batch} too small");
        assert!(client.write_stats().peak >= 2, "no overlap observed");
        assert_eq!(client.stats().writeback_failures, 0);
    }

    #[test]
    fn pipelined_flush_at_least_twice_as_fast() {
        let serial = flushed(WriteBehindParams::default(), 64);
        let piped = flushed(WriteBehindParams::pipelined(), 64);
        assert!(
            piped.first().as_secs_f64() * 2.0 <= serial.first().as_secs_f64(),
            "pipelined {} vs serial {}",
            piped.first(),
            serial.first()
        );
    }
}
