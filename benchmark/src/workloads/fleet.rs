//! `fleet` — 512 SNFS clients on 8 namespace shards, all started at the
//! same instant (no start ramp).
//!
//! Metadata overload at scale: `rpcnet` admission, retransmission and
//! the dup cache, `ShardCaller` routing, the two-phase cross-shard
//! rename coordinator and stale-layout redirects, and about half a
//! million executor events per run — the host-cost workload.
//!
//! Each client works in its own root-level subtree; one in ten then
//! renames that subtree to a name another shard owns (2PC), and every
//! client finally stats its left neighbour's subtree under whichever
//! name exists, which a stale layout answers with a redirect. The
//! script is `harness::run_scaling_shards`'s with the ramp removed, the
//! unbounded `insist!` made a bounded retry, and the bytes verified.

use std::cell::Cell;
use std::rc::Rc;

use spritely::harness::{Protocol, TestbedParams};
use spritely::proto::{default_shard, BLOCK_SIZE};
use spritely::sim::{SimDuration, SimRng};
use spritely::vfs::OpenFlags;

use super::{composed_stack, drain, run_together, Checks, Cx, Workload};
use crate::spans::{SpanId, TimedProc};

const SHARDS: usize = 8;
const CLIENTS: usize = 512;
const FILES: usize = 4;
const BLOCKS: usize = 2;
/// One client in ten renames its subtree across shards.
const MOVERS: usize = CLIENTS / 10;

fn home(client: usize) -> String {
    format!("u{client}")
}

/// The name a mover renames its subtree to: the first `m{client}_{k}`
/// that hashes to a different shard than its home does.
fn moved_home(client: usize) -> String {
    let from = default_shard(&home(client), SHARDS as u32);
    (0u32..)
        .map(|k| format!("m{client}_{k}"))
        .find(|name| default_shard(name, SHARDS as u32) != from)
        .expect("some name hashes elsewhere")
}

/// The bytes client `client` writes to every block of its file `file`.
fn fill(seed: u64, client: usize, file: usize) -> u8 {
    (seed as u8)
        .wrapping_add(client as u8)
        .wrapping_add(file as u8)
        .wrapping_add(1)
}

pub struct Fleet {
    seed: u64,
    /// `movers[i]`: client `i` renames its subtree across shards.
    movers: Rc<Vec<bool>>,
    wrong_reads: Rc<Cell<u64>>,
}

impl Fleet {
    pub fn new(seed: u64) -> Self {
        // A seeded partial shuffle: exactly MOVERS distinct clients.
        let rng = SimRng::new(seed);
        let mut order: Vec<usize> = (0..CLIENTS).collect();
        let mut movers = vec![false; CLIENTS];
        for k in 0..MOVERS {
            order.swap(k, k + rng.index(CLIENTS - k));
            movers[order[k]] = true;
        }
        Fleet {
            seed,
            movers: Rc::new(movers),
            wrong_reads: Rc::default(),
        }
    }
}

/// One client's script. Failed operations are counted by the
/// `TimedProc`; the script carries on past them.
async fn script(p: &TimedProc, seed: u64, i: usize, mover: bool, wrong_reads: &Cell<u64>) {
    let dir = format!("/remote/{}", home(i));
    for f in 0..FILES {
        let path = format!("{dir}/f{f}");
        let block = vec![fill(seed, i, f); BLOCK_SIZE];
        if let Some(fd) = p.open(&path, OpenFlags::create_write()).await {
            for b in 0..BLOCKS {
                p.write_at(fd, (b * BLOCK_SIZE) as u64, &block).await;
            }
            p.fsync(fd).await;
            p.close(fd).await;
        }
        if let Some(fd) = p.open(&path, OpenFlags::read()).await {
            let mut offset = 0;
            while let Some(data) = p.read_at(fd, offset, BLOCK_SIZE as u32).await {
                if data.is_empty() {
                    break;
                }
                if data != block {
                    wrong_reads.set(wrong_reads.get() + 1);
                }
                offset += data.len() as u64;
            }
            p.close(fd).await;
        }
    }
    // A rename inside the subtree: same shard, no coordination.
    p.rename(&format!("{dir}/f0"), &format!("{dir}/g0")).await;
    if mover {
        // The subtree root moves to a name another shard owns: the
        // two-phase coordination path.
        p.rename(&dir, &format!("/remote/{}", moved_home(i))).await;
    }
    // The left neighbour may have moved meanwhile; a client whose layout
    // predates the move is redirected.
    let left = (i + CLIENTS - 1) % CLIENTS;
    p.stat_either(
        &format!("/remote/{}", home(left)),
        &format!("/remote/{}", moved_home(left)),
    )
    .await;
}

impl Workload for Fleet {
    fn testbed(&self) -> (TestbedParams, usize) {
        (composed_stack(Protocol::Snfs, SHARDS), CLIENTS)
    }

    /// Every client carves out its root-level subtree; the root name
    /// routes it to its owning shard.
    fn setup(&mut self, cx: &Cx) {
        run_together(
            cx.tb,
            cx.tb.clients.iter().enumerate().map(|(i, host)| {
                let p = host.proc(&cx.tb.sim);
                async move {
                    p.mkdir(&format!("/remote/{}", home(i)))
                        .await
                        .expect("subtree root");
                }
            }),
        );
    }

    fn window(&mut self, cx: &Cx, parent: SpanId) -> Vec<SimDuration> {
        run_together(
            cx.tb,
            cx.tb.clients.iter().enumerate().map(|(i, host)| {
                let client = i as u32 + 1;
                let (log, sim, seed) = (cx.log.clone(), cx.tb.sim.clone(), self.seed);
                let (movers, wrong_reads) = (Rc::clone(&self.movers), Rc::clone(&self.wrong_reads));
                let proc = host.proc(&cx.tb.sim);
                async move {
                    let start = sim.now();
                    let span = log.scope("client", client, parent);
                    let p = TimedProc::new(proc, client, span.id(), &log);
                    script(&p, seed, i, movers[i], &wrong_reads).await;
                    sim.now().duration_since(start)
                }
            }),
        )
    }

    /// After a drain, block 0 of every file, read from the disk of the
    /// shard that now owns its subtree's name, is what its client wrote.
    fn verify(&mut self, cx: &Cx) -> Checks {
        drain(cx.tb);
        let layout = cx.tb.layout.as_ref().expect("sharded testbed").borrow();
        let mut mismatches = 0;
        for i in 0..CLIENTS {
            let name = if self.movers[i] {
                moved_home(i)
            } else {
                home(i)
            };
            let fs = &cx.tb.shard_hosts[layout.owner(&name) as usize].fs;
            let dir = fs.lookup(fs.root(), &name).map(|(fh, _)| fh);
            for f in 0..FILES {
                let file = if f == 0 {
                    "g0".to_string()
                } else {
                    format!("f{f}")
                };
                let on_disk = dir
                    .and_then(|d| fs.lookup(d, &file))
                    .and_then(|(fh, _)| fs.stable_contents(fh));
                let want = fill(self.seed, i, f);
                if !on_disk.is_ok_and(|bytes| {
                    bytes.len() == BLOCKS * BLOCK_SIZE
                        && bytes[..BLOCK_SIZE].iter().all(|&b| b == want)
                }) {
                    mismatches += 1;
                }
            }
        }
        Checks {
            wrong_reads: self.wrong_reads.get(),
            final_state_mismatches: mismatches,
            ..Checks::default()
        }
    }
}
