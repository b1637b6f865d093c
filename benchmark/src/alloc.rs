//! Counting allocator and peak-heap gauge.
//!
//! Installed as the benchmark binary's `#[global_allocator]`: every
//! allocation the simulator makes is counted, live bytes are tracked,
//! and a high-water mark is kept that [`rebase`] resets to the current
//! level at the start of each repetition. `host_allocs_per_run` and
//! `host_peak_heap_mb` are read from here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator plus three statistics. The counters publish no
/// other data, so `Relaxed` is enough.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// False inside [`uncounted`]: live bytes are still tracked (what is
/// allocated there is also freed there), the other two stand still.
static COUNTING: AtomicBool = AtomicBool::new(true);

fn allocated(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only the atomics above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator for `layout`,
        // which means by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from this allocator, hence from
        // `System`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A grow-in-place is still a trip to the allocator: count it.
            LIVE.fetch_sub(layout.size(), Relaxed);
            allocated(new_size);
        }
        p
    }
}

/// The allocator state at the start of a repetition.
#[derive(Clone, Copy)]
pub struct Mark {
    allocs: u64,
    live: usize,
}

/// Starts a measurement: remembers the allocation count and live level,
/// and drops the high-water mark to the current level.
pub fn rebase() -> Mark {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    Mark {
        allocs: ALLOCS.load(Relaxed),
        live,
    }
}

/// `(allocations, peak live bytes above the starting level)` since `mark`.
pub fn since(mark: Mark) -> (u64, usize) {
    (
        ALLOCS.load(Relaxed) - mark.allocs,
        PEAK.load(Relaxed).saturating_sub(mark.live),
    )
}

/// Runs `f` with the allocation count and the high-water mark frozen
/// (for the benchmark's own calibration loop, which must not show up in
/// the program's numbers). `f` must free what it allocates.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    COUNTING.store(false, Relaxed);
    let out = f();
    COUNTING.store(true, Relaxed);
    out
}
