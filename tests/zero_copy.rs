//! The zero-copy data path (DESIGN.md "Buffer ownership"), held three
//! ways:
//!
//! * **the bytes are right** — random positional writes, reads,
//!   truncates, fsyncs and cold boots through an NFS and an SNFS mount,
//!   with offsets and lengths straddling block boundaries, against
//!   `harness::oracle::ByteModel`, a plain `Vec<u8>`;
//! * **sharing is not aliasing** — after a partial overwrite of a block,
//!   everyone who held the old buffer (the stable store, a reply handed
//!   out earlier, another client's cache, a request waiting to be
//!   retransmitted) still reads the old bytes, and a retransmitted read,
//!   whose reply the duplicate cache does not keep, reads the new ones;
//! * **the copies stay gone** — a 1 MiB write + fsync + cold read-back
//!   allocates no more than a pinned number of bytes, counted by this
//!   test binary's own allocator, so a per-layer copy that creeps back in
//!   fails here and not three PRs later in the benchmark;
//! * **the hot path stays on its allocation diet** (DESIGN.md §15) — a
//!   task whose type ran before none, a single-waiter wait none, a warm
//!   timer none at any distance, a path component none, a background
//!   write nobody waits for none in the write-behind ledger, an
//!   uncontended read miss none, on the server or a client, a C-LOOK
//!   disk write none,
//!   a caller one until it is used, and an echo RPC, foreground or
//!   batched in the background, a pinned count, which a named RPC, a
//!   lookup the name cache misses and a gathered write cost too;
//! * **reading a trace copies nothing** (DESIGN.md §11, §16) — a snapshot
//!   of the log is free, an emit copies the log only under a live
//!   snapshot and then once, the profiler allocates a fixed number of
//!   tables however long the trace, and the checker a few bytes per
//!   thousand events.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll};

use proptest::prelude::*;
use spritely::blockdev::{Disk, DiskParams, DiskSched};
use spritely::harness::oracle::ByteModel;
use spritely::harness::{ClientParams, Protocol, RemoteClient, Testbed, TestbedParams};
use spritely::localfs::{FsParams, LocalFs};
use spritely::metrics::OpCounter;
use spritely::nfs::base::{ClientBase, WriteLedger};
use spritely::proto::{ClientId, FileHandle, NfsProc, NfsReply, NfsRequest, Payload, BLOCK_SIZE};
use spritely::rpcnet::{
    Caller, CallerParams, Endpoint, EndpointParams, NetParams, Network, PartitionDir,
    TransportParams,
};
use spritely::sim::{Event, Resource, Sim, SimDuration};
use spritely::trace::{check_trace, profile_trace, EventKind, Name, TraceEvent, Tracer};
use spritely::vfs::{Fd, OpenFlags, Proc};

// ---- a counting allocator -------------------------------------------------

thread_local! {
    /// Bytes this thread has asked the allocator for. Per thread, because
    /// the test harness runs tests side by side; `const`-initialised and
    /// without a destructor, so touching it from inside the allocator
    /// neither allocates nor outlives the thread's storage.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    /// Trips this thread has made to the allocator (a `realloc` is one).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn requested(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its
    // thread-locals are gone.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// a thread-local counter and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        requested(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`,
        // which means by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        requested(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, hence from
        // `System`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

// ---- helpers ----------------------------------------------------------------

fn testbed(protocol: Protocol, clients: usize) -> Testbed {
    Testbed::build_with_clients(
        TestbedParams {
            protocol,
            ..TestbedParams::default()
        },
        clients,
    )
}

const READ_WRITE_CREATE: OpenFlags = OpenFlags {
    read: true,
    write: true,
    create: true,
    truncate: false,
};

async fn cold_boot(remote: &RemoteClient) {
    remote.cold_boot().await.expect("cold boot");
}

/// Bytes that say where they belong: a misplaced or stale run shows.
fn pattern(stamp: u8, offset: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (u64::from(stamp) * 31 + (offset + i) * 7) as u8)
        .collect()
}

// ---- (a) the bytes are right ------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Write {
        offset: u64,
        len: usize,
        stamp: u8,
    },
    Read {
        offset: u64,
        len: usize,
    },
    Fsync,
    /// Close, reopen with `O_TRUNC`.
    Truncate,
    /// Close, reboot the client (drain, drop every cache), reopen.
    ColdBoot,
}

/// An offset within ±40 bytes of one of the first six block boundaries.
fn near_boundary() -> impl Strategy<Value = u64> {
    (0u64..6, 0u64..81).prop_map(|(blk, d)| (blk * BLOCK_SIZE as u64 + d).saturating_sub(40))
}

/// A length that is tiny, about one block, or a little over two.
fn some_length() -> impl Strategy<Value = usize> {
    prop_oneof![
        3 => 1usize..120,
        2 => BLOCK_SIZE - 30..BLOCK_SIZE + 31,
        1 => 2 * BLOCK_SIZE..2 * BLOCK_SIZE + 500,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (near_boundary(), some_length(), any::<u8>())
            .prop_map(|(offset, len, stamp)| Op::Write { offset, len, stamp }),
        8 => (near_boundary(), some_length()).prop_map(|(offset, len)| Op::Read { offset, len }),
        2 => Just(Op::Fsync),
        1 => Just(Op::Truncate),
        1 => Just(Op::ColdBoot),
    ]
}

async fn check_read(p: &Proc, fd: Fd, model: &ByteModel, offset: u64, len: usize, step: usize) {
    let got = p.read_at(fd, offset, len as u32).await.expect("read_at");
    let want = model.read(offset, len);
    let first_bad = got.iter().zip(want).position(|(g, w)| g != w);
    assert!(
        got == want,
        "step {step}: read_at({offset}, {len}) differs from the model: \
         {} bytes for {}, first difference at file offset {:?}",
        got.len(),
        want.len(),
        first_bad.map(|i| (offset as usize + i, got[i], want[i]))
    );
}

/// Runs `ops` on one file through a `protocol` mount and through the
/// byte model, comparing every read, the whole file after a final cold
/// boot, and the server's disk after that.
fn run_against_model(protocol: Protocol, ops: Vec<Op>) {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol,
            ..TestbedParams::default()
        },
        1,
    );
    let p = tb.proc();
    let remote = tb.clients[0].remote.clone();
    let server_fs = tb.server_fs.clone();
    let h = tb.sim.spawn(async move {
        let path = "/remote/f";
        let mut model = ByteModel::default();
        let mut fd = p.open(path, READ_WRITE_CREATE).await.expect("open");
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Write { offset, len, stamp } => {
                    let data = pattern(stamp, offset, len);
                    p.write_at(fd, offset, &data).await.expect("write_at");
                    model.write(offset, &data);
                }
                Op::Read { offset, len } => {
                    // The NFS client promises close-to-open consistency,
                    // not that a read sees the write-behind still in its
                    // queue (it sizes the read from its attribute cache):
                    // flush first, as an application on NFS has to.
                    if protocol == Protocol::Nfs {
                        p.fsync(fd).await.expect("fsync");
                    }
                    check_read(&p, fd, &model, offset, len, step).await;
                }
                Op::Fsync => p.fsync(fd).await.expect("fsync"),
                Op::Truncate => {
                    p.close(fd).await.expect("close");
                    let flags = OpenFlags {
                        truncate: true,
                        ..READ_WRITE_CREATE
                    };
                    fd = p.open(path, flags).await.expect("reopen");
                    model.clear();
                }
                Op::ColdBoot => {
                    p.close(fd).await.expect("close");
                    cold_boot(&remote).await;
                    fd = p.open(path, READ_WRITE_CREATE).await.expect("reopen");
                }
            }
        }
        p.close(fd).await.expect("close");
        cold_boot(&remote).await;
        let fd = p.open(path, OpenFlags::read()).await.expect("reopen");
        let len = model.bytes().len();
        check_read(&p, fd, &model, 0, len + 1, usize::MAX).await;
        p.close(fd).await.expect("close");
        let (fh, _) = server_fs
            .lookup(server_fs.root(), "f")
            .expect("on the server");
        assert!(
            server_fs.stable_contents(fh).expect("stable") == model.bytes(),
            "the server's disk differs from the model"
        );
    });
    tb.sim.run_until(h);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nfs_mount_matches_a_vec(ops in proptest::collection::vec(arb_op(), 1..40)) {
        run_against_model(Protocol::Nfs, ops);
    }

    #[test]
    fn snfs_mount_matches_a_vec(ops in proptest::collection::vec(arb_op(), 1..40)) {
        run_against_model(Protocol::Snfs, ops);
    }
}

// ---- (b) sharing is not aliasing ---------------------------------------------

fn nfs_clients(tb: &Testbed) -> Vec<spritely::nfs::NfsClient> {
    tb.clients
        .iter()
        .map(|c| match &c.remote {
            RemoteClient::Nfs(c) => c.clone(),
            _ => panic!("expected NFS clients"),
        })
        .collect()
}

fn snfs_client(tb: &Testbed) -> spritely::snfs::SnfsClient {
    match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("expected an SNFS client"),
    }
}

/// The block as it reads after `b"NEW"` lands at byte 100 of `old`.
fn patched(old: &[u8]) -> Vec<u8> {
    let mut new = old.to_vec();
    new[100..103].copy_from_slice(b"NEW");
    new
}

#[test]
fn store_reply_and_peer_cache_keep_the_old_block_across_a_partial_overwrite() {
    // Two vintage NFS clients: no callbacks, so nothing but a private
    // buffer protects B's cached copy from A's next write.
    let tb = testbed(Protocol::Nfs, 2);
    let (a, b) = {
        let c = nfs_clients(&tb);
        (c[0].clone(), c[1].clone())
    };
    let server_fs = tb.server_fs.clone();
    let root = server_fs.root();
    let h = tb.sim.spawn(async move {
        let old = pattern(1, 0, BLOCK_SIZE);
        let (fh, _) = a.create(root, "f").await.unwrap();
        a.open(fh, true).await.unwrap();
        a.write(fh, 0, &old).await.unwrap();
        a.fsync(fh).await.unwrap();

        // Three holders of the one allocation: the server's cache and its
        // stable store (a sync write), a read reply, and B's cache.
        let (reply, _, _) = server_fs.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        b.open(fh, false).await.unwrap();
        assert_eq!(b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap().0, old);

        // A *delayed* partial overwrite at the server: the cache block
        // must be a new buffer, the store must still hold the old one.
        server_fs.write(fh, 100, b"NEW", false).await.unwrap();
        assert_eq!(
            server_fs.stable_contents(fh).unwrap(),
            old,
            "store before the flush"
        );
        assert_eq!(reply.to_vec(), old, "a reply handed out earlier");
        let (now, _, _) = server_fs.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
        assert_eq!(now.to_vec(), patched(&old), "the cache has the new bytes");

        // B re-reads inside its attribute-cache window: a cache hit, and
        // the bytes B cached — not the server's newer ones.
        let (hits_before, _) = b.cache_stats();
        assert_eq!(b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap().0, old);
        assert_eq!(b.cache_stats().0, hits_before + 1, "served from B's cache");

        server_fs.fsync(fh).await.unwrap();
        assert_eq!(server_fs.stable_contents(fh).unwrap(), patched(&old));
        assert_eq!(reply.to_vec(), old, "still");
        a.close(fh, true).await.unwrap();
        b.close(fh, false).await.unwrap();
    });
    tb.sim.run_until(h);
}

#[test]
fn a_retransmitted_read_executes_again_and_reads_the_current_bytes() {
    let tb = testbed(Protocol::Nfs, 1);
    let a = nfs_clients(&tb)[0].clone();
    let server_fs = tb.server_fs.clone();
    let root = server_fs.root();
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = tb.sim.spawn(async move {
        let old = pattern(2, 0, BLOCK_SIZE);
        let (fh, _) = a.create(root, "f").await.unwrap();
        a.open(fh, true).await.unwrap();
        a.write(fh, 0, &old).await.unwrap();
        a.close(fh, true).await.unwrap(); // purges A's cache (the vintage client)
        a.open(fh, false).await.unwrap();

        // The server executes A's read; the reply is lost, so A
        // retransmits after its 1 s timeout.
        net.lose_next_reply(1, false);
        let read = sim.spawn({
            let a = a.clone();
            async move { a.read(fh, 0, BLOCK_SIZE as u32).await.unwrap().0 }
        });
        sim.sleep(SimDuration::from_millis(500)).await;
        // Meanwhile the block is partially overwritten, and flushed.
        server_fs.write(fh, 100, b"NEW", true).await.unwrap();
        assert_eq!(server_fs.stable_contents(fh).unwrap(), patched(&old));

        // A read parks no reply in the duplicate cache: the
        // retransmission executes again and reads the block as it is now.
        assert_eq!(read.await, patched(&old));
        a.close(fh, false).await.unwrap();
    });
    tb.sim.run_until(h);
}

#[test]
fn a_write_reply_parked_in_the_dup_cache_is_replayed_not_executed_again() {
    let tb = testbed(Protocol::Nfs, 1);
    let a = nfs_clients(&tb)[0].clone();
    let server_fs = tb.server_fs.clone();
    let root = server_fs.root();
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = tb.sim.spawn(async move {
        let old = pattern(4, 0, BLOCK_SIZE);
        let (fh, _) = a.create(root, "f").await.unwrap();
        a.open(fh, true).await.unwrap();

        // The server executes A's write and parks the reply; the reply
        // itself is lost, so A retransmits after its 1 s timeout.
        net.lose_next_reply(1, false);
        let write = sim.spawn({
            let (a, old) = (a.clone(), old.clone());
            async move {
                a.write(fh, 0, &old).await.unwrap();
                a.fsync(fh).await.unwrap();
            }
        });
        sim.sleep(SimDuration::from_millis(500)).await;
        assert_eq!(server_fs.stable_contents(fh).unwrap(), old, "executed");
        // Meanwhile a later write patches the block, and is flushed.
        server_fs.write(fh, 100, b"NEW", true).await.unwrap();

        // The retransmission is answered from the duplicate cache: the
        // write is not executed again, so it does not undo the later one.
        write.await;
        assert_eq!(server_fs.stable_contents(fh).unwrap(), patched(&old));
        a.close(fh, true).await.unwrap();
    });
    tb.sim.run_until(h);
}

#[test]
fn a_retransmitted_write_carries_the_bytes_of_its_own_generation() {
    let tb = testbed(Protocol::Snfs, 1);
    let c = snfs_client(&tb);
    let server_fs = tb.server_fs.clone();
    let root = server_fs.root();
    let net = tb.net.clone();
    let sim = tb.sim.clone();
    let h = tb.sim.spawn(async move {
        let gen1 = pattern(3, 0, BLOCK_SIZE);
        let (fh, _) = c.create(root, "f").await.unwrap();
        c.open(fh, true).await.unwrap();
        c.write(fh, 0, &gen1).await.unwrap();

        // The flush's first transmission is lost on the way out; the
        // request waits (1 s) to be retransmitted, holding gen1's buffer.
        net.partition(
            1,
            PartitionDir::Outbound,
            sim.now() + SimDuration::from_millis(200),
        );
        let flush = sim.spawn({
            let c = c.clone();
            async move { c.fsync(fh).await }
        });
        sim.sleep(SimDuration::from_millis(500)).await;
        assert!(
            server_fs.stable_contents(fh).unwrap().is_empty(),
            "nothing arrived yet"
        );
        // The client re-dirties the block while that request is pending.
        c.write(fh, 100, b"NEW").await.unwrap();

        flush.await.expect("the retransmission got through");
        assert_eq!(
            server_fs.stable_contents(fh).unwrap(),
            gen1,
            "the retransmission wrote gen1, not the block as it is now"
        );
        assert_eq!(c.dirty_blocks(), 1, "gen2 is still to be written back");
        c.fsync(fh).await.unwrap();
        assert_eq!(server_fs.stable_contents(fh).unwrap(), patched(&gen1));
        assert_eq!(c.dirty_blocks(), 0);
        c.close(fh, true).await.unwrap();
    });
    tb.sim.run_until(h);
}

#[test]
fn a_write_rpcs_blocks_are_the_blocks_the_server_caches_and_serves() {
    // What a write RPC carries (one segment per block, as the clients
    // build it), what the server caches and stores, and what its read
    // replies hand back is one allocation per block.
    let data = pattern(4, 0, 2 * BLOCK_SIZE);
    let wire = Payload::copy_in(0, &data);
    let tb = testbed(Protocol::Snfs, 1);
    let server_fs = tb.server_fs.clone();
    let root = server_fs.root();
    let h = tb.sim.spawn(async move {
        let (fh, _) = server_fs.create(root, "f").await.unwrap();
        server_fs.write_payload(fh, 0, &wire, true).await.unwrap();
        let (back, _, _) = server_fs.read(fh, 0, data.len() as u32).await.unwrap();
        assert_eq!(back.to_vec(), data);
        for (sent, got) in wire.segments().iter().zip(back.segments()) {
            assert!(
                got.shares_allocation(sent),
                "the block was copied on its way"
            );
        }
    });
    tb.sim.run_until(h);
}

// ---- (c) the copies stay gone -------------------------------------------------

/// Bytes requested from the allocator by: write 1 MiB sequentially in
/// 8 KB calls, fsync, close, cold-boot the client, read it all back.
fn one_mib_round_trip(protocol: Protocol) -> u64 {
    const TOTAL: usize = 1 << 20;
    const CHUNK: usize = 8192;
    let tb = testbed(protocol, 1);
    let p = tb.proc();
    let remote = tb.clients[0].remote.clone();
    let spent = Rc::new(Cell::new(0));
    let h = tb.sim.spawn({
        let spent = spent.clone();
        async move {
            let chunk = pattern(5, 0, CHUNK);
            let before = REQUESTED.with(Cell::get);
            let fd = p.open("/remote/big", READ_WRITE_CREATE).await.unwrap();
            for _ in 0..TOTAL / CHUNK {
                p.write(fd, &chunk).await.unwrap();
            }
            p.fsync(fd).await.unwrap();
            p.close(fd).await.unwrap();
            cold_boot(&remote).await;
            let fd = p.open("/remote/big", OpenFlags::read()).await.unwrap();
            let mut read = 0;
            loop {
                let got = p.read(fd, CHUNK as u32).await.unwrap();
                if got.is_empty() {
                    break;
                }
                assert!(got == chunk, "read-back differs at byte {read}");
                read += got.len();
            }
            assert_eq!(read, TOTAL);
            p.close(fd).await.unwrap();
            spent.set(REQUESTED.with(Cell::get) - before);
        }
    });
    tb.sim.run_until(h);
    spent.get()
}

/// The copy budget. A MiB that is written, flushed and read back cold
/// must be *allocated* about twice — once copied in, once copied out —
/// plus what the simulator itself spends on tasks, timers and messages.
///
/// Measured with this very function (same seedless workload, paper-mode
/// testbed):
///
/// | client | parent commit (65ff4fc) | this change | budget |
/// |---|---:|---:|---:|
/// | NFS  | 15 951 235 | 5 522 973 | 6 000 000 (1.09 ×) |
/// | SNFS | 17 397 216 | 6 993 282 | 7 500 000 (1.07 ×) |
///
/// Of this change's bytes, 2 MiB + 4 KB are the data (256 block buffers
/// in, 128 8 KB `Vec`s out); the rest is some 5-8 KB of boxed futures
/// per RPC. The counts repeat exactly (debug and release alike), so the
/// budgets sit less than half a MiB above them: a re-introduced
/// per-layer copy of the data costs at least 1 MiB and cannot hide.
#[test]
fn one_mib_round_trip_stays_inside_its_copy_budget() {
    const NFS_BUDGET: u64 = 6_000_000;
    const SNFS_BUDGET: u64 = 7_500_000;
    let spent = [Protocol::Nfs, Protocol::Snfs].map(one_mib_round_trip);
    println!("bytes requested: NFS {}, SNFS {}", spent[0], spent[1]);
    for (spent, budget, name) in [
        (spent[0], NFS_BUDGET, "NFS"),
        (spent[1], SNFS_BUDGET, "SNFS"),
    ] {
        assert!(
            spent <= budget,
            "{name}: a 1 MiB round trip requested {spent} bytes, budget {budget}"
        );
    }
}

// ---- (d) the hot path stays on its allocation diet ----------------------------

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A finished task's cell goes on its type's free list for the next
/// spawn of that type (DESIGN.md §15), so a type's first spawn allocates
/// its cell and, once, the list, and a spawn after the last task of that
/// type finished allocates nothing. The parent commit made one per spawn.
#[test]
fn a_respawn_and_a_single_waiter_wait_allocate_nothing() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.block_on(async move {
        // Warm the slab slot, the map of free lists and the ready queue.
        assert_eq!(s.spawn(async { 6 }).await, 6);

        let ready = || s.spawn(async { 7 });
        let before = allocations();
        assert_eq!(ready().await, 7);
        assert_eq!(allocations() - before, 2, "a type's first spawn + join");
        let before = allocations();
        assert_eq!(ready().await, 7);
        assert_eq!(allocations() - before, 0, "a respawn + join");

        let before = allocations();
        let ev = Event::new();
        let mut wait = pin!(ev.wait());
        // Poll the wait once so that `set` finds this task waiting.
        let waiting = |cx: &mut Context<'_>| Poll::Ready(wait.as_mut().poll(cx).is_pending());
        assert!(std::future::poll_fn(waiting).await);
        ev.set();
        wait.await;
        assert_eq!(allocations() - before, 1, "Event::new + one wait + set");
    });
}

/// A timer is a slab slot threaded onto one of the timer queue's bucket
/// lists (DESIGN.md §15 item 2), so once a pass has made the slots, a
/// sleep and a timeout that loses its race allocate nothing at any
/// distance, and so at deadlines that land in buckets the warm-up never
/// touched. A queue with one `Vec` per bucket allocates in each new one.
#[test]
fn a_timer_round_trip_allocates_nothing() {
    let sim = Sim::new();
    let s = sim.clone();
    sim.block_on(async move {
        let round_trip = |us: u64| {
            let d = SimDuration::from_micros(us);
            let s = s.clone();
            async move {
                s.sleep(d).await;
                let lost = s.timeout(d + d, s.sleep(d)).await;
                assert!(lost.is_ok(), "the sleep wins, the timeout is cancelled");
            }
        };
        round_trip(1).await; // two slots, the wake path's scratch
        let before = allocations();
        for shift in 0..=30 {
            round_trip(1 << shift).await;
        }
        assert_eq!(allocations() - before, 0, "31 sleeps and 31 lost races");
    });
}

/// Every background `write` a client sends passes through its ledger
/// (`ClientBase::write_bg`), so the ledger is on the hot path of every
/// write-heavy run: a write that nobody waits for costs it nothing. The
/// parent commit made an `Event` per entry and per busy period and a map
/// node whenever the ledger went from empty to not.
#[test]
fn background_writes_nobody_waits_for_allocate_nothing_in_the_ledger() {
    let ledger = WriteLedger::default();
    let files = [7, 3, 5].map(|ino| FileHandle::new(1, ino, 0));
    let busy_periods = |n| {
        for _ in 0..n {
            for fh in files {
                ledger.begin(fh);
                ledger.begin(fh);
            }
            for fh in files {
                ledger.finish(fh, None);
                ledger.finish(fh, None);
            }
        }
    };
    busy_periods(1); // room for three files
    let before = allocations();
    busy_periods(1_000);
    assert_eq!(allocations() - before, 0, "6,000 background writes");
    assert_eq!((ledger.in_flight(), ledger.files()), (0, vec![]));
}

/// Allocations of the third identical synchronous write of `blocks`
/// blocks to a file on a fresh file system whose blocks were laid out
/// consecutively or, with `interleaved`, alternating with another file's,
/// so that no two of its blocks are adjacent on disk. The layout comes
/// from truncates, which allocate addresses and leave the cache alone.
fn sync_write_allocations(blocks: u64, interleaved: bool) -> u64 {
    let sim = Sim::new();
    let disk = Disk::new(&sim, "d0", DiskParams::ra81());
    let fs = LocalFs::new(&sim, 1, disk, FsParams::default());
    sim.block_on(async move {
        let root = fs.root();
        let (f, _) = fs.create(root, "f").await.expect("create");
        let (g, _) = fs.create(root, "g").await.expect("create");
        let steps = if interleaved {
            1..=blocks
        } else {
            blocks..=blocks
        };
        for n in steps {
            for fh in [f, g] {
                let size = Some(n * BLOCK_SIZE as u64);
                fs.setattr(fh, size).await.expect("truncate");
            }
        }
        let data = Payload::copy_in(0, &vec![7; blocks as usize * BLOCK_SIZE]);
        // Warm: the blocks' cache entries and stable slots.
        for _ in 0..2 {
            fs.write_payload(f, 0, &data, true).await.expect("write");
        }
        let before = allocations();
        fs.write_payload(f, 0, &data, true).await.expect("write");
        allocations() - before
    })
}

/// A synchronous write sends each run of its blocks at consecutive disk
/// addresses as one request, and the run flusher holds the run in a fixed
/// array. So a 1-block sync write allocates nothing, and a 16-block one
/// that is one run allocates exactly what a 16-block one split into
/// sixteen runs does: the same cache work (whose recency trees split and
/// merge nodes past eleven blocks) and nothing per run. A `Vec` per run
/// would make the two differ by fifteen.
#[test]
fn a_sync_write_run_costs_no_allocation() {
    let one = sync_write_allocations(1, false);
    let (run, split) = (
        sync_write_allocations(16, false),
        sync_write_allocations(16, true),
    );
    println!("allocations per sync write: {one} at 1 block, {run} at one 16-block run, {split} at 16 runs");
    assert_eq!(one, 0, "a 1-block sync write");
    assert_eq!(run, split, "one 16-block run against sixteen 1-block runs");
}

/// Every read miss of a `LocalFs` registers in the in-flight map, so that
/// a second miss on the same block waits for the first's disk read; the
/// waiters' `Event` is made only when such a second reader arrives. So a
/// miss nobody joins allocates what a miss did before misses coalesced:
/// nothing, once the file system has served one miss and the in-flight
/// map and the cache have their room. An `Event` per miss makes it one.
#[test]
fn an_uncontended_read_miss_makes_no_event() {
    let sim = Sim::new();
    let disk = Disk::new(&sim, "d0", DiskParams::ra81());
    let fs = LocalFs::new(&sim, 1, disk, FsParams::default());
    let spent = sim.block_on(async move {
        let root = fs.root();
        let (f, _) = fs.create(root, "f").await.expect("create");
        let data = Payload::copy_in(0, &[7; 2 * BLOCK_SIZE]);
        fs.write_payload(f, 0, &data, true).await.expect("write");
        fs.crash(); // forgets the cached copies; the stable ones stay
        let block = BLOCK_SIZE as u32;
        fs.read(f, 0, block).await.expect("first miss");
        let before = allocations();
        let (got, _, _) = fs.read(f, u64::from(block), block).await.expect("miss");
        let spent = allocations() - before;
        assert_eq!(got.to_vec(), [7; BLOCK_SIZE]);
        spent
    });
    assert_eq!(spent, 0, "allocations of an uncontended read miss");
}

/// The client-side twin: `ClientBase::fetch_block` registers every read
/// it sends in the client's in-flight map, and the first reader that joins
/// one makes the waiters' `Event`. So a read miss nobody joins allocates
/// nothing once the client has made room for a few: the parent commit made
/// an `Event` per read sent.
#[test]
fn a_client_read_miss_nobody_joins_makes_no_event() {
    let tb = testbed(Protocol::Snfs, 1);
    let c = snfs_client(&tb);
    let root = tb.server_fs.root();
    let h = tb.sim.spawn(async move {
        let (fh, _) = c.create(root, "f").await.expect("create");
        c.open(fh, true).await.expect("open");
        c.write(fh, 0, &[7; 8 * BLOCK_SIZE]).await.expect("write");
        c.fsync(fh).await.expect("fsync");
        ClientBase::cold_boot(&c); // the server keeps the blocks
        let mut cheapest = u64::MAX;
        for lblk in 0..8 {
            let before = allocations();
            let got = ClientBase::fetch_block(&c, fh, lblk, false, true).await;
            if lblk >= 4 {
                cheapest = cheapest.min(allocations() - before);
            }
            assert_eq!(got.expect("read").to_vec(), [7; BLOCK_SIZE]);
        }
        cheapest
    });
    assert_eq!(tb.sim.run_until(h), 0, "allocations of a client read miss");
}

#[test]
fn a_path_component_costs_no_allocation() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            client: ClientParams {
                name_cache: true,
                ..ClientParams::default()
            },
            ..TestbedParams::default()
        },
        1,
    );
    let p = tb.proc();
    let h = tb.sim.spawn(async move {
        let (shallow, deep) = ("/remote/d1", "/remote/d1/d2/d3/d4/d5");
        let ends = deep.match_indices('/').map(|(i, _)| i).skip(2);
        for end in ends.chain([deep.len()]) {
            p.mkdir(&deep[..end]).await.expect("mkdir");
        }
        let stat = |path| {
            let p = p.clone();
            async move {
                p.stat(path).await.expect("warm-up"); // fills the name cache
                let before = allocations();
                p.stat(path).await.expect("stat");
                allocations() - before
            }
        };
        let (two, six) = (stat(shallow).await, stat(deep).await);
        println!("allocations per stat: {two} at 2 components, {six} at 6");
        assert_eq!(
            six, two,
            "6 components allocated {six} times, 2 components {two}"
        );
    });
    tb.sim.run_until(h);
}

/// An endpoint whose handler answers at once, unboxed.
fn echo_endpoint(sim: &Sim) -> Endpoint {
    let cpu = Resource::new(sim, "server-cpu", 1);
    let handler = Rc::new(|_, _, _| async { NfsReply::Ok });
    let params = EndpointParams::default();
    Endpoint::new(sim, "svc", cpu, params, OpCounter::new(), handler)
}

/// Allocations of one call of `req` through `Caller`, `Network` and
/// `Endpoint` against an instant unboxed handler, at steady state: the
/// cheapest of several calls, because the dup cache's map doubles now and
/// then. With `transport` set, the call is sent as background traffic.
fn rpc_allocations(transport: Option<TransportParams>, req: NfsRequest) -> u64 {
    let sim = Sim::new();
    let caller = Caller::new(
        &sim,
        Network::new(&sim, "net", NetParams::ethernet_10mbit()),
        echo_endpoint(&sim),
        ClientId(1),
        Resource::new(&sim, "client-cpu", 1),
        CallerParams::default(),
    );
    let background = transport.is_some();
    if let Some(t) = transport {
        caller.set_transport(t);
    }
    sim.block_on(async move {
        // Steady state: slab slots, timer slots and queues are warm.
        let mut cheapest = u64::MAX;
        for call in 0..24 {
            let before = allocations();
            let out = caller.call_flagged(0, &req, background).await;
            out.expect("echo");
            if call >= 8 {
                cheapest = cheapest.min(allocations() - before);
            }
        }
        cheapest
    })
}

/// [`rpc_allocations`] of a Null call.
fn echo_rpc_allocations(transport: Option<TransportParams>) -> u64 {
    rpc_allocations(transport, NfsRequest::Null)
}

/// A foreground echo, paper transport: nothing. The execution's task,
/// which holds the handler's future inline and is also what the caller
/// waits on, reuses the cell of an execution that finished. It was 6, then
/// 2 while the handler's future was boxed on its own, then 1 while every
/// execution's task was a new allocation (DESIGN.md §15 "The allocation
/// budget").
const ECHO_RPC_BUDGET: u64 = 0;

#[test]
fn an_echo_rpc_stays_inside_its_allocation_budget() {
    let made = echo_rpc_allocations(None);
    println!("allocations per echo RPC: {made}");
    assert_eq!(made, ECHO_RPC_BUDGET, "allocations of an echo RPC");
}

/// A lone background echo on the pipelined transport, which an idle
/// caller's batch queue flushes at once: the reply cell the parked call
/// waits on. It was 13 (a reply slot and an `Event` per parked call, a
/// queue `Vec` taken per flush and partitioned into another, a `Vec` of
/// wire members, a member task and a three-allocation gather for the one
/// member, a compound `Vec` for its one reply and an `into_parts` `Vec` to
/// split it again), then 4 until the handler's future stopped being boxed,
/// then 3 until the execution's and the flush's tasks reused their cells.
const BACKGROUND_ECHO_RPC_BUDGET: u64 = 1;

#[test]
fn a_background_echo_rpc_stays_inside_its_allocation_budget() {
    let made = echo_rpc_allocations(Some(TransportParams::pipelined()));
    println!("allocations per background echo RPC: {made}");
    assert!(
        made <= BACKGROUND_ECHO_RPC_BUDGET,
        "a background echo RPC made {made} allocations, budget {BACKGROUND_ECHO_RPC_BUDGET}"
    );
}

/// A request is built once per logical call, and every copy the transport
/// makes of it (the one an exchange hands the endpoint) allocates nothing
/// for names up to 22 bytes: a named call costs what an echo costs. The
/// parent commit made one more per name, the `String` of that copy.
#[test]
fn a_named_rpc_costs_what_an_echo_costs() {
    let (dir, to_dir) = (FileHandle::new(1, 1, 0), FileHandle::new(1, 2, 0));
    let name = "f012.c".into();
    let lookup = NfsRequest::Lookup { dir, name };
    let name = "cc12.s".into();
    let create = NfsRequest::Create { dir, name };
    let (from_name, to_name) = ("u123".into(), "m123_4".into());
    let from_dir = dir;
    let rename = NfsRequest::Rename {
        from_dir,
        from_name,
        to_dir,
        to_name,
    };
    for req in [lookup, create, rename] {
        let proc = req.proc_id();
        let made = rpc_allocations(None, req);
        println!("allocations per {proc:?}: {made}");
        assert_eq!(made, ECHO_RPC_BUDGET, "{proc:?}");
    }
}

/// The same through a client: `ClientBase::lookup` builds its request once
/// and records the name without copying it, so a lookup the name cache
/// cannot answer allocates exactly what a `getattr` does. The parent
/// commit made two more: the `String` its request closure built, and the
/// one the exchange's copy of the request made.
#[test]
fn a_lookup_miss_costs_what_a_getattr_costs() {
    let tb = testbed(Protocol::Snfs, 1);
    let c = snfs_client(&tb);
    let root = tb.server_fs.root();
    let h = tb.sim.spawn(async move {
        let (fh, _) = c.create(root, "f012.c").await.expect("create");
        let (mut lookup, mut getattr) = (u64::MAX, u64::MAX);
        for round in 0..16 {
            let before = allocations();
            let (found, _) = c.lookup(root, "f012.c").await.expect("lookup");
            let between = allocations();
            // The base's: the SNFS client's own may answer from its cache.
            ClientBase::getattr(&c, fh).await.expect("getattr");
            if round >= 8 {
                lookup = lookup.min(between - before);
                getattr = getattr.min(allocations() - between);
            }
            assert_eq!(found, fh);
        }
        println!("allocations per lookup miss: {lookup}, per getattr: {getattr}");
        assert_eq!(lookup, getattr, "a lookup miss against a getattr");
    });
    tb.sim.run_until(h);
}

/// A gathered write's segment list is shared, not copied, by the batch
/// queue that parks it and the exchange that hands it to the endpoint: a
/// two-block background write costs what a background echo does. The
/// parent commit made four more, a `Box` and a `Vec` per copy.
#[test]
fn a_gathered_write_is_never_copied() {
    let data = Payload::copy_in(0, &[7; 2 * BLOCK_SIZE]);
    assert_eq!(data.segments().len(), 2);
    let fh = FileHandle::new(1, 7, 0);
    let write = NfsRequest::Write {
        fh,
        offset: 0,
        data,
    };
    let made = rpc_allocations(Some(TransportParams::pipelined()), write);
    println!("allocations per two-block background write: {made}");
    assert_eq!(made, BACKGROUND_ECHO_RPC_BUDGET);
}

/// A caller is one allocation, its shared link, until it parks a call or
/// draws retransmission jitter: the batch queue is a field of the link
/// (which the caller's clones share), and the jitter stream is made on
/// its first draw. The parent commit made 3: the link, a `Batcher` beside
/// it, and the stream. `fleet` builds 8,248 callers.
#[test]
fn a_pipelined_traced_caller_is_one_allocation() {
    let sim = Sim::new();
    let endpoint = echo_endpoint(&sim);
    let net = Network::new(&sim, "net", NetParams::ethernet_10mbit());
    let cpu = Resource::new(&sim, "client-cpu", 1);
    let tracer = Tracer::new(&sim);
    let before = allocations();
    let caller = Caller::new(
        &sim,
        net,
        endpoint,
        ClientId(1),
        cpu,
        CallerParams::default(),
    );
    caller.set_transport(TransportParams::pipelined());
    caller.set_tracer(tracer);
    assert_eq!(
        allocations() - before,
        1,
        "Caller::new + set_transport + set_tracer"
    );
}

/// A C-LOOK request waits for its grant with its waker in its queue entry,
/// so a write on a warm disk allocates nothing. The parent commit made 1:
/// the grant's `Event`.
#[test]
fn a_clook_disk_write_costs_no_allocation() {
    let sim = Sim::new();
    let sched = DiskSched::CLook {
        max_bypass: 8,
        stroke_blocks: 1 << 16,
    };
    let disk = Disk::with_sched(&sim, "d0", DiskParams::ra81(), sched);
    let made = sim.block_on(async move {
        // Warm: the pending queue's room and the arm's wait queue.
        for block in 0..4 {
            disk.write(block * 100, BLOCK_SIZE).await;
        }
        let before = allocations();
        disk.write(7, BLOCK_SIZE).await;
        allocations() - before
    });
    assert_eq!(made, 0, "allocations of a C-LOOK disk write");
}

// ---- (e) reading a trace copies nothing -----------------------------------------

/// `Tracer::finish` hands out the log itself, shared: it allocates
/// nothing (the parent commit cloned every event, one allocation and
/// 96 bytes apiece), and the price is paid by the emit that follows, only
/// if the snapshot is still held by then, and once: a new `Rc`, the copied
/// `Vec`, and the growth that makes room for the push.
#[test]
fn a_trace_snapshot_is_free_and_an_emit_copies_only_under_a_live_one() {
    let sim = Sim::new();
    let tracer = Tracer::new(&sim);
    let emit = |n: usize| {
        for xid in 0..n as u64 {
            let from = ClientId(1);
            tracer.emit(0, EventKind::RpcXmit { from, xid });
        }
    };
    // 5,000 events leave the log with room for 8,192: what follows never
    // has to grow it.
    emit(5_000);

    let before = allocations();
    let (dropped, too) = (tracer.finish(), tracer.finish());
    assert_eq!(allocations() - before, 0, "two snapshots");
    drop((dropped, too));
    emit(1_000);
    assert_eq!(allocations() - before, 0, "1,000 emits, snapshots dropped");

    let live = tracer.finish();
    emit(1);
    let copy = allocations() - before;
    emit(999);
    let after = allocations() - before;
    println!("allocations of the emit under a live snapshot: {copy}");
    assert!((1..=3).contains(&copy), "the first emit made {copy}");
    assert_eq!(after, copy, "the 999 after it");
    assert_eq!(
        (live.len(), live.last().map(|e| e.seq)),
        (6_000, Some(6_000))
    );
    assert_eq!(tracer.len(), 7_000);
}

/// An emit packs its event into a 40-byte record, interning the strings
/// and handles it names in the thread's tables: on ones the thread has
/// seen that is a lookup. 1,000 each of three shapes — a handle and a
/// number; an optional handle and three numbers; a disk label and four —
/// allocate nothing, in a log with room.
#[test]
fn an_emit_on_warm_names_and_handles_allocates_nothing() {
    let tracer = Tracer::new(&Sim::new());
    let disk = Name::from("srv");
    #[rustfmt::skip]
    let emit = |n: u64| {
        for i in 0..n {
            let (from, fh, proc) = (ClientId(1), FileHandle::new(1, 7 + i % 50, 1), NfsProc::Read);
            tracer.emit(0, EventKind::CacheRead { client: from, fh, version: i });
            tracer.emit(0, EventKind::RpcCall { from, xid: i, proc, fh: Some(fh), offset: i * 4096, len: 4096 });
            tracer.emit(0, EventKind::DiskDone { disk, req: i, block: i, write: false, wait_us: 5, pos_us: 9 });
        }
    };
    // 4,200 events leave the log with room for 8,192, and every name and
    // handle interned.
    emit(1_400);
    let before = allocations();
    emit(1_000);
    assert_eq!(allocations() - before, 0, "3,000 emits");
    assert_eq!(tracer.len(), 7_200);
}

/// `n` reads, each an op holding one RPC whose handler waits for the disk.
fn read_trace(n: u64) -> Vec<TraceEvent> {
    rpc_trace(n, NfsProc::Read)
}

/// `n` ops, each holding one `proc` RPC whose handler waits for the disk.
#[rustfmt::skip]
fn rpc_trace(n: u64, proc: NfsProc) -> Vec<TraceEvent> {
    let (from, ok, op) = (ClientId(1), true, proc.name());
    let (fh, block, write) = (FileHandle::new(1, 7, 1), 0, false);
    let disk = Name::from("srv");
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut push = |t_us, parent, kind| {
        let seq = events.len() as u64 + 1;
        events.push(TraceEvent::new(seq, t_us, parent, kind));
        seq
    };
    for xid in 0..n {
        let (t, req) = (xid * 100, xid);
        let span = push(t, 0, EventKind::OpBegin { client: from, op, fh });
        let call = push(t + 10, span, EventKind::RpcCall { from, xid, proc, fh: Some(fh), offset: 0, len: 0 });
        push(t + 20, call, EventKind::RpcXmit { from, xid });
        push(t + 30, call, EventKind::RpcArrive { from, xid, dup: false });
        let handler = push(t + 40, call, EventKind::HandlerBegin { from, xid, proc });
        push(t + 50, 0, EventKind::DiskQueue { disk, req, block, write });
        push(t + 60, 0, EventKind::DiskDone { disk, req, block, write, wait_us: 5, pos_us: 5 });
        push(t + 70, handler, EventKind::HandlerEnd { from, xid, proc, ok });
        push(t + 80, call, EventKind::RpcReply { from, xid, proc, ok });
        push(t + 90, span, EventKind::OpEnd { client: from, op, ok });
    }
    events
}

/// Allocations of one `profile_trace`: its tables, each sized once from
/// a count of the events' kinds, and the few small vectors that stay
/// small. 19 at 1,000 RPCs and 19 at 8,000 (27 while the boundaries,
/// paints and op children were copied into groups); the map profiler
/// before the tables — a map entry per event, a `Vec` per RPC, every
/// table grown by doubling — made 13,087 and 104,111.
const PROFILE_BUDGET: u64 = 32;

#[test]
fn the_profiler_allocates_its_tables_and_nothing_per_rpc() {
    let count = |n| {
        let events = read_trace(n);
        let before = allocations();
        let p = profile_trace(&events);
        let made = allocations() - before;
        assert_eq!((p.ops.len() as u64, p.claims.op), (n, n));
        assert_eq!(p.attributed_fraction(), 1.0);
        made
    };
    let (small, large) = (count(1_000), count(8_000));
    println!("allocations per profile_trace: {small} at 1,000 RPCs, {large} at 8,000");
    assert_eq!(
        small, large,
        "the count must not depend on the trace's length"
    );
    assert!(large <= PROFILE_BUDGET, "{large}, budget {PROFILE_BUDGET}");
}

/// Bytes one `profile_trace` asks the allocator for per RPC of
/// `read_trace(8_000)`: every table, the scratch buffers and the 128 bytes
/// of `OpProfile` row it returns. 433 with one `u32` fact per event, a
/// 16-byte context only per event that opens a record, each RPC's
/// boundaries (16 bytes each, the boundary packed in a `u32`) and each
/// handler's paints chained in place, a 48-byte RPC and a 32-byte op whose
/// open ends are sentinels, and each span's RPCs resolved into a buffer
/// reused span after span. 481 with 24-byte boundaries, a 56-byte RPC and
/// a 40-byte op; 901 with a 16-byte fact per event, the boundaries, paints
/// and op children copied into groups and every RPC's resolved segments
/// kept.
const PROFILE_BYTES_PER_RPC: u64 = 433;

#[test]
fn the_profiler_requests_a_bounded_number_of_bytes_per_rpc() {
    let n = 8_000;
    let events = read_trace(n);
    let before = REQUESTED.with(Cell::get);
    let p = profile_trace(&events);
    let per_rpc = (REQUESTED.with(Cell::get) - before) / n;
    assert_eq!(p.claims.op, n);
    println!("profile_trace requests {per_rpc} bytes per RPC");
    assert!(
        per_rpc <= PROFILE_BYTES_PER_RPC,
        "{per_rpc} bytes per RPC, budget {PROFILE_BYTES_PER_RPC}"
    );
}

/// Bytes one `check_trace` asks the allocator for per 1,000 events of
/// `rpc_trace(8_000, proc)` (80,000 events, 8,000 RPCs from one caller).
/// Of writes: 2,376 bytes in all. Rule 8's at-most-once table is a bitset
/// of each caller's xids, a word per 64 RPCs; the map of every `(from,
/// xid)` pair it replaced, rehashed at each doubling, requested 557,408
/// (6,967 per 1,000 events). Of reads: 296 bytes in all, because an
/// idempotent call is held only while its handler runs.
const CHECK_BYTES_PER_1000_EVENTS: u64 = 30;

#[test]
fn the_checker_requests_a_bounded_number_of_bytes_per_event() {
    for proc in [NfsProc::Write, NfsProc::Read] {
        let events = rpc_trace(8_000, proc);
        let before = REQUESTED.with(Cell::get);
        let violations = check_trace(&events);
        let bytes = REQUESTED.with(Cell::get) - before;
        assert!(violations.is_empty(), "{violations:?}");
        let per_1000 = bytes * 1_000 / events.len() as u64;
        println!("check_trace requests {bytes} bytes of {proc}s, {per_1000} per 1,000 events");
        assert!(
            per_1000 <= CHECK_BYTES_PER_1000_EVENTS,
            "{per_1000} bytes per 1,000 events of {proc}s, budget {CHECK_BYTES_PER_1000_EVENTS}"
        );
    }
}

/// A forged `(from, xid)` pair of a non-idempotent procedure, both
/// numbers at their maximum, executed twice: the checker flags it and asks
/// for what any pair costs, not for a table the size of either number.
#[test]
fn a_forged_execution_costs_the_checker_what_any_pair_costs() {
    let (from, xid, proc) = (ClientId(u32::MAX), u64::MAX, NfsProc::Write);
    let begin = |seq| {
        TraceEvent::new(
            seq,
            seq * 10,
            0,
            EventKind::HandlerBegin { from, xid, proc },
        )
    };
    let events = [begin(1), begin(2)];
    let before = REQUESTED.with(Cell::get);
    let violations = check_trace(&events);
    let bytes = REQUESTED.with(Cell::get) - before;
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].invariant, "dup-execution");
    println!("check_trace requests {bytes} bytes for one forged pair");
    assert!(bytes < 4_096, "{bytes} bytes for one forged pair");
}
