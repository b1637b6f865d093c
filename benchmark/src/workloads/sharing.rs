//! `sharing` — eight SNFS clients share sixteen small files on one
//! server, a quarter of the opens writing, half of all traffic on two
//! hot files.
//!
//! The state table's conflict path — write-back and invalidate
//! callbacks, delegation recalls (about a thousand per run) — i.e. the
//! same `core` layer as `andrew`, used the way that makes caching and
//! delegations *cost*. A delegation or cache change that wins on
//! `andrew` and loses here must show.
//!
//! It carries a data-level oracle, which the version-based trace
//! checker cannot replace: every write stamps a monotone version into
//! block 0, and a read whose `open` returned after a write's `close`
//! returned must see a version at least that write's; after a drain the
//! server's disk must hold the last closed write.
//!
//! Two modes (see `README.md`, "What the oracle found"):
//!
//! * [`Mode::Exclusive`] is the benchmark workload. A benchmark-side
//!   readers-writer lock per file keeps a writer's open-to-close apart
//!   from every other open of that file, writers fsync before they
//!   close, and nobody opens a file in the 0.6 s around a keepalive
//!   tick — *sequential* write sharing by careful clients. At the seed
//!   commit this is the strongest sharing pattern the stack answers
//!   correctly on every seed tried.
//! * [`Mode::Overlap`] (`--workload sharing_overlap`) only serialises
//!   writers: readers overlap the writer, files go WRITE_SHARED, nobody
//!   fsyncs. It returns stale reads and loses closed writes on most
//!   seeds at the seed commit; it is kept as the reproducer a bugfix is
//!   judged by, not as a benchmark workload (the driver's contract asks
//!   for workloads on which no operation fails).
//!
//! In both modes writers to one file are serialised: unserialised
//! writers reorder in flight at the server, and the oracle would blame
//! the protocol for it.

use std::cell::Cell;
use std::rc::Rc;

use spritely::harness::{Protocol, TestbedParams};
use spritely::proto::BLOCK_SIZE;
use spritely::sim::{Semaphore, Sim, SimDuration, SimRng};
use spritely::vfs::OpenFlags;

use super::{cold_boot, composed_stack, drain, run_together, Checks, Cx, Workload};
use crate::spans::{SpanId, TimedProc};

const CLIENTS: usize = 8;
const FILES: usize = 16;
const HOT_FILES: usize = 2;
const BLOCKS: usize = 4;
const ROUNDS: usize = 200;
const WRITE_SHARE: f64 = 0.25;
const HOT_SHARE: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sequential write sharing: the benchmark workload.
    Exclusive,
    /// Concurrent write sharing: the reproducer.
    Overlap,
}

fn path(file: usize) -> String {
    format!("/remote/share/s{file:02}")
}

/// Block 0 of a file at `version`: the version in every 8-byte word, so
/// a torn block is recognisable.
fn stamped(version: u64) -> Vec<u8> {
    version.to_le_bytes().repeat(BLOCK_SIZE / 8)
}

/// The version a block 0 carries, if it is a whole block and every
/// word agrees.
fn version_of(block: &[u8]) -> Option<u64> {
    let first = block.get(..8)?;
    let whole = block.len() == BLOCK_SIZE && block.chunks_exact(8).all(|word| word == first);
    whole.then(|| u64::from_le_bytes(first.try_into().expect("eight bytes")))
}

/// Blocks 1.. never change: every byte says which block it is.
fn filler_byte(file: usize, block: usize) -> u8 {
    (file * BLOCKS + block) as u8
}

fn filler(file: usize, block: usize) -> Vec<u8> {
    vec![filler_byte(file, block); BLOCK_SIZE]
}

fn is_filler(data: &[u8], file: usize, block: usize) -> bool {
    data.len() == BLOCK_SIZE && data.iter().all(|&b| b == filler_byte(file, block))
}

/// What the benchmark knows about one file.
struct Shared {
    /// One writer at a time.
    writer: Semaphore,
    /// `Mode::Exclusive`: one permit per reading session; a writer
    /// takes them all.
    readers: Semaphore,
    /// Highest version whose `write` returned.
    written: Cell<u64>,
    /// Highest version whose `close` returned.
    closed: Cell<u64>,
}

#[derive(Default)]
struct Tally {
    stale_reads: Cell<u64>,
    wrong_reads: Cell<u64>,
}

pub struct Sharing {
    seed: u64,
    mode: Mode,
    files: Rc<Vec<Shared>>,
    tally: Rc<Tally>,
}

impl Sharing {
    pub fn new(seed: u64, mode: Mode) -> Self {
        let shared = || Shared {
            writer: Semaphore::new(1),
            readers: Semaphore::new(CLIENTS),
            written: Cell::new(0),
            closed: Cell::new(0),
        };
        Sharing {
            seed,
            mode,
            files: Rc::new((0..FILES).map(|_| shared()).collect()),
            tally: Rc::default(),
        }
    }
}

/// The clients probe the server every ten seconds, all on the same
/// ticks.
const KEEPALIVE: SimDuration = SimDuration::from_secs(10);
/// No open is issued from this long before a tick ...
const QUIET_BEFORE: SimDuration = SimDuration::from_millis(100);
/// ... until this long after it, when every reply is in.
const QUIET_AFTER: SimDuration = SimDuration::from_millis(500);

/// Waits out the quiet period around a keepalive tick. A keepalive that
/// reaches the server while it is recalling that client's delegation is
/// answered `Grace`, and ten seconds later the client purges its cache,
/// dirty blocks included (README, finding 3) — the root of every
/// failure of the sequential variant that was traced. Opens are what
/// start recalls, so careful clients hold theirs while probes fly.
async fn clear_of_keepalive(sim: &Sim) {
    let period = KEEPALIVE.as_micros();
    let into = sim.now().as_micros() % period;
    if into < QUIET_AFTER.as_micros() || into + QUIET_BEFORE.as_micros() >= period {
        let wait = (QUIET_AFTER.as_micros() + period - into) % period;
        sim.sleep(SimDuration::from_micros(wait)).await;
    }
}

async fn write_round(p: &TimedProc, sim: &Sim, mode: Mode, file: usize, shared: &Shared) {
    let _turn = shared.writer.acquire().await;
    let mut alone = Vec::new();
    if mode == Mode::Exclusive {
        // Only the one writer ever collects permits, so collecting them
        // one by one cannot deadlock.
        for _ in 0..CLIENTS {
            alone.push(shared.readers.acquire().await);
        }
    }
    if mode == Mode::Exclusive {
        clear_of_keepalive(sim).await;
    }
    let Some(fd) = p.open(&path(file), OpenFlags::read_write()).await else {
        return;
    };
    let version = shared.written.get() + 1;
    if p.write_at(fd, 0, &stamped(version)).await.is_some() {
        shared.written.set(version);
    }
    if mode == Mode::Exclusive {
        p.fsync(fd).await;
    }
    if p.close(fd).await.is_some() {
        shared.closed.set(shared.written.get());
    }
}

async fn read_round(
    p: &TimedProc,
    sim: &Sim,
    mode: Mode,
    file: usize,
    shared: &Shared,
    tally: &Tally,
) {
    let _session = match mode {
        Mode::Exclusive => {
            let session = shared.readers.acquire().await;
            clear_of_keepalive(sim).await;
            Some(session)
        }
        Mode::Overlap => None,
    };
    let Some(fd) = p.open(&path(file), OpenFlags::read()).await else {
        return;
    };
    // Every write closed by now must be visible to this open.
    let floor = shared.closed.get();
    for block in 0..BLOCKS {
        let Some(data) = p
            .read_at(fd, (block * BLOCK_SIZE) as u64, BLOCK_SIZE as u32)
            .await
        else {
            continue;
        };
        if block > 0 {
            if !is_filler(&data, file, block) {
                tally.wrong_reads.set(tally.wrong_reads.get() + 1);
            }
            continue;
        }
        match version_of(&data) {
            Some(v) if v < floor => tally.stale_reads.set(tally.stale_reads.get() + 1),
            // A writer may be mid-flight, so one version past `written`
            // is legitimate; anything else was never written.
            Some(v) if v <= shared.written.get() + 1 => {}
            _ => tally.wrong_reads.set(tally.wrong_reads.get() + 1),
        }
    }
    p.close(fd).await;
}

impl Workload for Sharing {
    fn testbed(&self) -> (TestbedParams, usize) {
        (composed_stack(Protocol::Snfs, 1), CLIENTS)
    }

    fn setup(&mut self, cx: &Cx) {
        let p = cx.tb.proc();
        cx.tb.sim.block_on(async move {
            p.mkdir("/remote/share").await.expect("share dir");
            for file in 0..FILES {
                let fd = p
                    .open(&path(file), OpenFlags::create_write())
                    .await
                    .expect("create shared file");
                p.write(fd, &stamped(0)).await.expect("write block 0");
                for block in 1..BLOCKS {
                    p.write(fd, &filler(file, block)).await.expect("write");
                }
                p.close(fd).await.expect("close");
            }
        });
        drain(cx.tb);
        cold_boot(cx.tb);
    }

    fn window(&mut self, cx: &Cx, parent: SpanId) -> Vec<SimDuration> {
        let streams = SimRng::new(self.seed);
        run_together(
            cx.tb,
            cx.tb.clients.iter().enumerate().map(|(i, host)| {
                let client = i as u32 + 1;
                let (rng, log, sim) = (streams.fork(), cx.log.clone(), cx.tb.sim.clone());
                let (files, tally) = (Rc::clone(&self.files), Rc::clone(&self.tally));
                let (proc, mode) = (host.proc(&cx.tb.sim), self.mode);
                async move {
                    let start = sim.now();
                    let span = log.scope("client", client, parent);
                    let p = TimedProc::new(proc, client, span.id(), &log);
                    for _ in 0..ROUNDS {
                        let file = if rng.f64() < HOT_SHARE {
                            rng.index(HOT_FILES)
                        } else {
                            HOT_FILES + rng.index(FILES - HOT_FILES)
                        };
                        if rng.f64() < WRITE_SHARE {
                            write_round(&p, &sim, mode, file, &files[file]).await;
                        } else {
                            read_round(&p, &sim, mode, file, &files[file], &tally).await;
                        }
                        let think = rng.duration_uniform(
                            SimDuration::from_millis(1),
                            SimDuration::from_millis(20),
                        );
                        sim.sleep(think).await;
                    }
                    sim.now().duration_since(start)
                }
            }),
        )
    }

    /// After a drain, block 0 on the server's disk must be the last
    /// closed write (or a later one whose close failed).
    fn verify(&mut self, cx: &Cx) -> Checks {
        drain(cx.tb);
        let fs = &cx.tb.server_fs;
        let dir = fs.lookup(fs.root(), "share").map(|(fh, _)| fh);
        let mismatches = self
            .files
            .iter()
            .enumerate()
            .filter(|(file, shared)| {
                let on_disk = dir
                    .and_then(|d| fs.lookup(d, &format!("s{file:02}")))
                    .and_then(|(fh, _)| fs.stable_contents(fh));
                let version = on_disk
                    .ok()
                    .and_then(|bytes| version_of(bytes.get(..BLOCK_SIZE)?));
                !version.is_some_and(|v| (shared.closed.get()..=shared.written.get()).contains(&v))
            })
            .count();
        Checks {
            wrong_reads: self.tally.wrong_reads.get(),
            stale_reads: self.tally.stale_reads.get(),
            final_state_mismatches: mismatches as u64,
            ..Checks::default()
        }
    }
}
