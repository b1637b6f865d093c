//! The deterministic single-threaded discrete-event executor.
//!
//! A [`Sim`] owns a virtual clock and a set of tasks (plain Rust futures).
//! Tasks run until they block on a simulation primitive (a timer, a
//! semaphore, an event, ...). When no task is runnable the executor advances
//! the clock to the earliest pending timer and resumes whoever was waiting on
//! it. Runs are fully deterministic: identical inputs produce identical event
//! orders and identical final clocks.
//!
//! Tasks are not `Send`; the whole simulation lives on one OS thread, and
//! so do its wakers: a waker counts its references without atomics and
//! pushes onto an unlocked ready queue, and checks first that it is on
//! the thread that made it. Off that thread a wake or a clone panics and
//! a drop leaks, which keeps the `Waker` contract (`Send + Sync`) safe
//! without making anything thread-safe.
//!
//! # Hot-path layout
//!
//! The executor retires hundreds of millions of events per experiment
//! matrix, so the inner loop is flat:
//!
//! * **Tasks live in a slab** (`Vec<TaskSlot>` + free-index stack)
//!   addressed by generational [`TaskId`]s. Spawn, wake and poll are index
//!   operations; no hashing. A wake that races task completion (the id's
//!   generation no longer matches) is counted as a *stale wake* and
//!   skipped.
//! * **A steady-state spawn allocates nothing**: the future and what its
//!   [`JoinHandle`]s wait on share an `Rc` (`TaskCell`), which the slab
//!   and the handles see through two traits. Whichever lets go of a
//!   finished cell last — the slab at completion or the last handle —
//!   leaves it, emptied, on a per-thread free list of its future's type
//!   (at most `FREE_CELLS_PER_TYPE`) for the next spawn of that type.
//!   The slot's waker outlives its occupant and is re-targeted for the
//!   next one unless somebody still holds a clone, so a poll never
//!   allocates either.
//! * **Timers live in a cancel-aware radix heap** ([`crate::timer`]):
//!   dropping a [`Sleep`] before its deadline unlinks its entry in
//!   O(1). The original `BinaryHeap` accumulated the abandoned guard
//!   timers of every timeout that lost its race, then paid to pop and
//!   spuriously fire each one.
//! * **[`SimStats`]** counts what the loop actually did (polls, timer
//!   fires/cancels, stale wakes, high-water marks), so events/sec in perf
//!   benches is measured, not inferred.

use std::any::{Any, TypeId};
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::thread::{self, ThreadId};

use crate::sync::Waiters;
use crate::time::{SimDuration, SimTime};
use crate::timer::{TimerId, TimerQueue};
use crate::Map;

/// Identifier of a spawned task: a slab index plus a generation that
/// detects reuse, unique within one [`Sim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId {
    index: u32,
    gen: u32,
}

/// The queue of tasks made runnable by wakers.
///
/// This is the only piece of executor state shared with [`Waker`]s, and
/// they never touch it off the simulation's thread (see [`WakerCell`]).
#[derive(Default)]
struct ReadyQueue {
    queue: RefCell<VecDeque<TaskId>>,
    peak_depth: Cell<usize>,
}

impl ReadyQueue {
    fn push(&self, id: TaskId) {
        let mut queue = self.queue.borrow_mut();
        queue.push_back(id);
        self.peak_depth.set(self.peak_depth.get().max(queue.len()));
    }

    fn pop(&self) -> Option<TaskId> {
        self.queue.borrow_mut().pop_front()
    }
}

thread_local! {
    /// This thread's id, from its first waker on. It needs no destructor,
    /// so a waker dropped during thread-local teardown still reads it.
    static THREAD: OnceCell<ThreadId> = const { OnceCell::new() };
}

/// What a task's [`Waker`] points at. Only the thread that made it touches
/// its cells, which every vtable function checks first (DESIGN.md §15).
struct WakerCell {
    refs: Cell<usize>,
    id: Cell<TaskId>,
    ready: Rc<ReadyQueue>,
    home: ThreadId,
}

static VTABLE: RawWakerVTable = RawWakerVTable::new(clone_waker, wake, wake_by_ref, drop_waker);

impl WakerCell {
    /// A waker for task `id`, bound to the calling thread.
    fn waker(id: TaskId, ready: &Rc<ReadyQueue>) -> Waker {
        let home = THREAD.with(|t| *t.get_or_init(|| thread::current().id()));
        let cell = Box::new(WakerCell {
            refs: Cell::new(1),
            id: Cell::new(id),
            ready: Rc::clone(ready),
            home,
        });
        // SAFETY: the vtable's functions take `data` as this cell, which
        // lives until the last reference is dropped on its thread.
        unsafe { Waker::from_raw(RawWaker::new(Box::into_raw(cell).cast(), &VTABLE)) }
    }

    /// The cell behind a waker [`WakerCell::waker`] made, on its thread.
    fn of(waker: &Waker) -> &WakerCell {
        debug_assert!(std::ptr::eq(waker.vtable(), &VTABLE));
        // SAFETY: `waker` holds a reference, so the cell is live, and only
        // the executor calls this, on the simulation's own thread.
        unsafe { at_home(waker.data()) }.expect("the simulation's own thread")
    }
}

const FOREIGN: &str = "a simulation's waker was used off the thread that runs it";

/// The cell behind `data` if the calling thread made it, else `None`.
///
/// # Safety
///
/// `data` is a live waker's, made by [`WakerCell::waker`] or cloned.
unsafe fn at_home<'a>(data: *const ()) -> Option<&'a WakerCell> {
    let cell = data.cast::<WakerCell>();
    // SAFETY: the cell is live. Off its thread only `home` is read, and it
    // is written once, before the cell is shared.
    let home = unsafe { (*cell).home };
    let here = THREAD.try_with(|t| t.get() == Some(&home)).unwrap_or(false);
    // SAFETY: on its own thread nothing else is touching the cell.
    here.then(|| unsafe { &*cell })
}

/// # Safety
/// For this and the three below: `data` is as [`at_home`] asks.
unsafe fn clone_waker(data: *const ()) -> RawWaker {
    // SAFETY: forwarded from the caller.
    let cell = unsafe { at_home(data) }.expect(FOREIGN);
    cell.refs.set(cell.refs.get() + 1);
    RawWaker::new(data, &VTABLE)
}

/// # Safety
/// See [`clone_waker`].
unsafe fn wake(data: *const ()) {
    // SAFETY: forwarded; `drop_waker` gives back this waker's reference.
    unsafe { wake_by_ref(data) };
    unsafe { drop_waker(data) };
}

/// # Safety
/// See [`clone_waker`].
unsafe fn wake_by_ref(data: *const ()) {
    // SAFETY: forwarded from the caller.
    let cell = unsafe { at_home(data) }.expect(FOREIGN);
    cell.ready.push(cell.id.get());
}

/// # Safety
/// See [`clone_waker`].
unsafe fn drop_waker(data: *const ()) {
    // Off its thread the reference leaks rather than panic: a drop may run
    // while unwinding, or at thread-local teardown, where a panic aborts.
    // SAFETY: forwarded from the caller.
    let Some(cell) = (unsafe { at_home(data) }) else {
        return;
    };
    match cell.refs.get() {
        // SAFETY: this was the last reference, and `waker` made the box.
        1 => drop(unsafe { Box::from_raw(data.cast_mut().cast::<WakerCell>()) }),
        n => cell.refs.set(n - 1),
    }
}

/// One task slot, occupied or free.
struct TaskSlot {
    /// Generation of the occupant (of the next one while the slot is
    /// free): bumped when an occupant leaves, so its late wakes mismatch.
    gen: u32,
    /// `None` while the slot is free, and while the task is being polled
    /// (user code re-enters the core); put back on `Pending`.
    task: Option<Rc<dyn Task>>,
    /// Polling clones it (a count, not an allocation). Kept when the
    /// occupant leaves: the next one re-targets it if the slot holds the
    /// only reference (no clone is left in some wait list), else gets a
    /// fresh one.
    waker: Waker,
}

/// A spawned task as its slot sees it.
trait Task {
    /// Polls the future. On completion drops it in place, stores the
    /// output, wakes the joiners and returns true.
    fn poll(&self, cx: &mut Context<'_>) -> bool;

    /// Drops the future in place, however many handles share the cell.
    fn cancel(&self);

    /// Empties the cell (an output nobody took, waiters nobody woke) onto
    /// its type's free list. Called with the last reference, or with a
    /// clone of it that is the last but for the caller's.
    fn recycle(self: Rc<Self>);
}

/// The same allocation as a [`JoinHandle`] sees it.
trait Joinable<T>: Task {
    fn join(&self) -> &RefCell<JoinState<T>>;
}

struct JoinState<T> {
    finished: bool,
    result: Option<T>,
    waiters: Waiters,
}

impl<T> JoinState<T> {
    fn new() -> Self {
        JoinState {
            finished: false,
            result: None,
            waiters: Waiters::default(),
        }
    }
}

/// How many emptied cells each future type keeps for its next spawns. A
/// constant: it bounds the memory the free lists hold.
const FREE_CELLS_PER_TYPE: usize = 4;

thread_local! {
    /// Emptied task cells, by future type. Per thread, not per [`Sim`]: a
    /// [`JoinHandle`] that lets go of the last reference has no `Sim`,
    /// and a simulation never leaves its thread.
    static FREE_CELLS: RefCell<Map<TypeId, Vec<Rc<dyn Any>>>> = RefCell::default();
}

/// The allocation of a task, reused by later tasks of its type.
struct TaskCell<F: Future> {
    join: RefCell<JoinState<F::Output>>,
    /// `None` once the task has finished or was cancelled.
    fut: RefCell<Option<F>>,
}

impl<F: Future + 'static> Task for TaskCell<F> {
    fn poll(&self, cx: &mut Context<'_>) -> bool {
        let mut fut = self.fut.borrow_mut();
        let pinned = fut.as_mut().expect("a finished task is not in the slab");
        // SAFETY: the future was moved into its `Rc` at spawn, before its
        // first poll, and never leaves it: the cell hands out no other
        // `&mut` to it, and both ways it ends (`= None` below and in
        // `cancel`) drop it in place. A reused cell is no exception: its
        // previous future was dropped in place, and the new one is moved
        // into the emptied slot before it is first polled.
        let pinned = unsafe { Pin::new_unchecked(pinned) };
        let Poll::Ready(out) = pinned.poll(cx) else {
            return false;
        };
        *fut = None;
        let mut join = self.join.borrow_mut();
        join.finished = true;
        join.result = Some(out);
        join.waiters.wake_all();
        true
    }

    fn cancel(&self) {
        *self.fut.borrow_mut() = None;
    }

    fn recycle(self: Rc<Self>) {
        // Dropped with no borrow held: a destructor may spawn a task of
        // this very type. The future is gone already unless a `Sim` was
        // dropped without `shutdown` while this task was unfinished.
        self.cancel();
        drop(self.join.replace(JoinState::new()));
        let _ = FREE_CELLS.try_with(|free| {
            let mut free = free.borrow_mut();
            let cells = free
                .entry(TypeId::of::<F>())
                .or_insert_with(|| Vec::with_capacity(FREE_CELLS_PER_TYPE));
            if cells.len() < FREE_CELLS_PER_TYPE {
                cells.push(self);
            }
        });
    }
}

impl<F: Future + 'static> Joinable<F::Output> for TaskCell<F> {
    fn join(&self) -> &RefCell<JoinState<F::Output>> {
        &self.join
    }
}

/// Executor counters: everything the scheduling loop did during a run.
///
/// All counts are deterministic for a deterministic program — two
/// identical runs produce identical `SimStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Task polls performed.
    pub polls: u64,
    /// Tasks spawned.
    pub tasks_spawned: u64,
    /// Tasks that ran to completion.
    pub tasks_completed: u64,
    /// Ready-queue pops that found the task already finished (or its slot
    /// reused): wakes that arrived too late to matter.
    pub stale_wakes: u64,
    /// Timers registered.
    pub timers_registered: u64,
    /// Timers that fired (clock advanced to their deadline).
    pub timer_fires: u64,
    /// Timers removed before firing (a `Sleep` dropped mid-wait).
    pub timer_cancels: u64,
    /// Clock advances (distinct instants the simulation visited).
    pub clock_advances: u64,
    /// High-water mark of the ready queue.
    pub peak_ready_depth: u64,
    /// High-water mark of live tasks (slab occupancy; memory proxy).
    pub peak_live_tasks: u64,
    /// High-water mark of live timers (queue occupancy; memory proxy).
    pub peak_live_timers: u64,
}

impl SimStats {
    /// Total scheduler events retired: polls plus timer firings.
    pub fn events_retired(&self) -> u64 {
        self.polls + self.timer_fires
    }
}

#[derive(Default)]
struct Core {
    now: SimTime,
    timers: TimerQueue,
    tasks: Vec<TaskSlot>,
    /// Free slab indices, reused LIFO.
    free: Vec<u32>,
    live_tasks: usize,
    peak_live_tasks: usize,
    /// Scratch buffer for due-timer wakers (reused across advances).
    due: Vec<Waker>,
    stats: SimStats,
}

impl Core {
    /// Retires the occupant of `index`, whose task is already out of it.
    fn free_slot(&mut self, index: u32) {
        let slot = &mut self.tasks[index as usize];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(index);
        self.live_tasks -= 1;
    }
}

/// Handle to a simulation. Cheap to clone; all clones refer to the same
/// clock and task set.
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
    ready: Rc<ReadyQueue>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Sim {
            core: Rc::default(),
            ready: Rc::default(),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Spawns a task and returns a handle that resolves to its output.
    ///
    /// The task starts in the ready queue and will first run during the next
    /// executor step. Tasks may spawn further tasks.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let free = FREE_CELLS.try_with(|free| free.borrow_mut().get_mut(&TypeId::of::<F>())?.pop());
        let task = match free.ok().flatten() {
            Some(cell) => {
                let cell = cell.downcast::<TaskCell<F>>().expect("listed by its type");
                *cell.fut.borrow_mut() = Some(fut);
                cell
            }
            None => Rc::new(TaskCell {
                join: RefCell::new(JoinState::new()),
                fut: RefCell::new(Some(fut)),
            }),
        };
        let handle = JoinHandle {
            task: Rc::clone(&task) as Rc<dyn Joinable<F::Output>>,
        };
        let id = {
            let mut core = self.core.borrow_mut();
            let index = core.free.pop().unwrap_or(core.tasks.len() as u32);
            let gen = core.tasks.get(index as usize).map_or(0, |slot| slot.gen);
            let id = TaskId { index, gen };
            match core.tasks.get_mut(index as usize) {
                Some(slot) => {
                    let cell = WakerCell::of(&slot.waker);
                    if cell.refs.get() == 1 {
                        cell.id.set(id);
                    } else {
                        slot.waker = WakerCell::waker(id, &self.ready);
                    }
                    slot.task = Some(task);
                }
                None => core.tasks.push(TaskSlot {
                    gen,
                    task: Some(task),
                    waker: WakerCell::waker(id, &self.ready),
                }),
            }
            core.live_tasks += 1;
            core.peak_live_tasks = core.peak_live_tasks.max(core.live_tasks);
            core.stats.tasks_spawned += 1;
            id
        };
        self.ready.push(id);
        handle
    }

    /// Returns a future that completes `d` after the current virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Returns a future that completes at the given absolute virtual time
    /// (immediately if `at` is in the past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline: at,
            timer: None,
            registered: false,
        }
    }

    /// Runs `fut` with a deadline, returning `Err(TimedOut)` if the deadline
    /// elapses first.
    pub fn timeout<F>(&self, d: SimDuration, fut: F) -> Timeout<F>
    where
        F: Future,
    {
        Timeout {
            sleep: self.sleep(d),
            fut,
        }
    }

    fn register_timer(&self, deadline: SimTime, waker: Waker) -> TimerId {
        let mut core = self.core.borrow_mut();
        core.stats.timers_registered += 1;
        core.timers.register(deadline, waker)
    }

    fn cancel_timer(&self, id: TimerId) {
        self.core.borrow_mut().timers.cancel(id);
    }

    /// Polls every runnable task once.
    fn drain_ready(&self) {
        while let Some(id) = self.ready.pop() {
            // Take the task out of its slot so the core is not borrowed
            // while user code runs (user code re-enters the Sim).
            let (task, waker) = {
                let mut core = self.core.borrow_mut();
                let taken = match core.tasks.get_mut(id.index as usize) {
                    Some(slot) if slot.gen == id.gen => {
                        slot.task.take().map(|t| (t, slot.waker.clone()))
                    }
                    _ => None,
                };
                let Some(taken) = taken else {
                    // Wake for a finished task (or one mid-poll via a
                    // nested executor entry); ignore.
                    core.stats.stale_wakes += 1;
                    continue;
                };
                core.stats.polls += 1;
                taken
            };
            if task.poll(&mut Context::from_waker(&waker)) {
                // Let go of the cell (with no handle left, recycle it and
                // drop the output) *before* re-borrowing the core: a
                // destructor may cancel timers (Sleep::drop).
                if Rc::strong_count(&task) == 1 {
                    task.recycle();
                }
                let mut core = self.core.borrow_mut();
                core.free_slot(id.index);
                core.stats.tasks_completed += 1;
            } else {
                self.core.borrow_mut().tasks[id.index as usize].task = Some(task);
            }
        }
    }

    /// Advances the clock to the earliest pending timer and fires every
    /// timer due at that instant. Returns false if there are no timers.
    fn advance_time(&self) -> bool {
        let mut due = {
            let mut core = self.core.borrow_mut();
            let Some(t) = core.timers.peek_deadline() else {
                return false;
            };
            assert!(t >= core.now, "timer in the past: executor bug");
            core.now = t;
            core.stats.clock_advances += 1;
            let mut due = std::mem::take(&mut core.due);
            while let Some(w) = core.timers.pop_due(t) {
                due.push(w);
            }
            core.stats.timer_fires += due.len() as u64;
            due
        };
        for w in due.drain(..) {
            w.wake();
        }
        // Hand the (empty) scratch buffer back for the next advance.
        self.core.borrow_mut().due = due;
        true
    }

    /// Runs until the given handle's task has completed, then returns its
    /// output. Other tasks keep running in the background while the target
    /// is pending; they are left in place (paused) when it completes.
    ///
    /// # Panics
    ///
    /// Panics if the simulation goes quiescent (no runnable tasks and no
    /// timers) before the target completes — that is a deadlock in the
    /// simulated system.
    pub fn run_until<T: 'static>(&self, handle: JoinHandle<T>) -> T {
        loop {
            self.drain_ready();
            if let Some(v) = handle.try_take() {
                return v;
            }
            if !self.advance_time() {
                panic!(
                    "simulation deadlock at t={}: target task blocked with no pending timers",
                    self.now()
                );
            }
        }
    }

    /// Convenience: spawn `fut` and [`run_until`](Self::run_until) it.
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let h = self.spawn(fut);
        self.run_until(h)
    }

    /// Runs until there are no runnable tasks and no pending timers.
    ///
    /// Unlike [`run_until`](Self::run_until), infinite background loops will
    /// prevent this from returning; prefer `run_until` when daemons are
    /// running.
    pub fn run_to_quiescence(&self) {
        loop {
            self.drain_ready();
            if !self.advance_time() {
                return;
            }
        }
    }

    /// Ends the simulation: drops every task that has not finished,
    /// every pending timer and every queued wake, and leaves the clock
    /// and the counters ([`now`](Self::now), [`stats`](Self::stats))
    /// readable.
    ///
    /// Tasks hold clones of the `Sim` they run on, so a simulation with a
    /// task that never finishes (a daemon loop) is a reference cycle that
    /// dropping the last outside handle does not free; this breaks it.
    /// The futures are dropped with the core not borrowed, because their
    /// destructors re-enter it (a `Sleep` cancels its timer), and the
    /// sweep repeats in case a destructor spawned or registered more.
    /// They are dropped *in place*, not by letting go of the slab's
    /// reference: a `JoinHandle` kept outside the simulation shares the
    /// task's allocation and would otherwise keep the daemon, and the
    /// `Sim` it captured, alive.
    /// A task being polled right now — one that owned the last handle and
    /// is ending the simulation from inside it — is left to finish.
    /// Awaiting the `JoinHandle` of a task dropped here never resolves.
    pub fn shutdown(&self) {
        loop {
            let (tasks, timers) = {
                let mut core = self.core.borrow_mut();
                let mut tasks = Vec::new();
                for index in 0..core.tasks.len() {
                    // A task is out of an occupied slot exactly while it
                    // is polled.
                    if let Some(task) = core.tasks[index].task.take() {
                        tasks.push(task);
                        core.free_slot(index as u32);
                    }
                }
                (tasks, core.timers.drain())
            };
            for task in &tasks {
                task.cancel();
            }
            let queued = self.ready.queue.borrow_mut().drain(..).len();
            if tasks.is_empty() && timers.is_empty() && queued == 0 {
                return;
            }
        }
    }

    /// Number of live (spawned, not yet finished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.core.borrow().live_tasks
    }

    /// Number of live (registered, not yet fired or cancelled) timers.
    pub fn live_timers(&self) -> usize {
        self.core.borrow().timers.len()
    }

    /// Executor counters up to now (see [`SimStats`]).
    pub fn stats(&self) -> SimStats {
        let core = self.core.borrow();
        let mut s = core.stats;
        s.timer_cancels = core.timers.cancels();
        s.peak_live_tasks = core.peak_live_tasks as u64;
        s.peak_live_timers = core.timers.peak_live() as u64;
        s.peak_ready_depth = self.ready.peak_depth.get() as u64;
        s
    }
}

/// Handle to a spawned task's eventual output.
///
/// Await it inside the simulation, or pass it to [`Sim::run_until`] from
/// outside. It shares the task's allocation, which is therefore recycled
/// only when the task has finished *and* its last handle is gone.
pub struct JoinHandle<T> {
    task: Rc<dyn Joinable<T>>,
}

impl<T> Drop for JoinHandle<T> {
    fn drop(&mut self) {
        // The slab let go first: at completion, or at `shutdown`.
        if Rc::strong_count(&self.task) == 1 {
            Rc::clone(&self.task).recycle();
        }
    }
}

impl<T> Clone for JoinHandle<T> {
    fn clone(&self) -> Self {
        JoinHandle {
            task: Rc::clone(&self.task),
        }
    }
}

impl<T> JoinHandle<T> {
    /// Takes the task's output if it has completed.
    pub fn try_take(&self) -> Option<T> {
        self.task.join().borrow_mut().result.take()
    }

    /// Returns true if the task has completed and its output has not been
    /// taken yet.
    pub fn is_finished(&self) -> bool {
        self.task.join().borrow().result.is_some()
    }

    /// A finished task's output, left for the other handles: a clone, or
    /// the output itself from the last handle. `None` if unfinished.
    pub fn output(self) -> Option<T>
    where
        T: Clone,
    {
        let last = Rc::strong_count(&self.task) == 1;
        let out = &mut self.task.join().borrow_mut().result;
        if last {
            out.take()
        } else {
            out.clone()
        }
    }

    /// Waits for the task to finish and leaves its output where it is, so
    /// unlike awaiting the handle itself any number of clones may do it:
    /// the task doubles as the event that says it is done.
    pub async fn finished(&self) {
        std::future::poll_fn(|cx| {
            let mut s = self.task.join().borrow_mut();
            if s.finished {
                return Poll::Ready(());
            }
            s.waiters.push(cx.waker());
            Poll::Pending
        })
        .await
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.task.join().borrow_mut();
        if let Some(v) = s.result.take() {
            Poll::Ready(v)
        } else {
            s.waiters.push(cx.waker());
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
///
/// Registration is single-shot (the deadline never moves and the queue
/// entry wakes the owning task by id, which stays valid across re-polls),
/// and the entry is *cancelled on drop*: abandoning a `Sleep` mid-wait —
/// a timeout that lost its race, a dropped retransmission guard — leaves
/// no live timer behind.
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    timer: Option<TimerId>,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            // The entry (if any) fired to get us here; a stale cancel is a
            // generation-checked no-op, so take() keeps Drop cheap.
            self.timer.take();
            return Poll::Ready(());
        }
        if !self.registered {
            let deadline = self.deadline;
            let timer = self.sim.register_timer(deadline, cx.waker().clone());
            self.timer = Some(timer);
            self.registered = true;
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(id) = self.timer.take() {
            self.sim.cancel_timer(id);
        }
    }
}

/// Error returned by [`Sim::timeout`] when the deadline elapses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut;

impl std::fmt::Display for TimedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulated operation timed out")
    }
}

impl std::error::Error for TimedOut {}

/// Future returned by [`Sim::timeout`].
pub struct Timeout<F> {
    sleep: Sleep,
    fut: F,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, TimedOut>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: We never move `fut` or `sleep` out of the pinned struct;
        // the projections below are the only accesses.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        if let Poll::Ready(v) = fut.poll(cx) {
            return Poll::Ready(Ok(v));
        }
        let sleep = unsafe { Pin::new_unchecked(&mut this.sleep) };
        match sleep.poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(TimedOut)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Yields once, letting every other runnable task proceed first.
///
/// Useful for modelling "hand off to a daemon without consuming time".
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Event;
    use std::sync::Arc;
    use std::task::Wake;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            s.sleep(SimDuration::from_secs(30)).await;
            s.now()
        });
        assert_eq!(out, SimTime::from_micros(30_000_000));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, &str)>>> = Rc::default();
        for (name, delays) in [("a", [10u64, 20]), ("b", [15u64, 15])] {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for d in delays {
                    s.sleep(SimDuration::from_micros(d)).await;
                    log.borrow_mut().push((s.now().as_micros(), name));
                }
            });
        }
        sim.run_to_quiescence();
        assert_eq!(
            *log.borrow(),
            vec![(10, "a"), (15, "b"), (30, "a"), (30, "b")]
        );
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for i in 0..5u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(100)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let h = sim.spawn(async move {
            s.sleep(SimDuration::from_millis(1)).await;
            42u32
        });
        assert_eq!(sim.run_until(h), 42);
    }

    #[test]
    fn join_handle_awaitable_from_other_task() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            let inner = s.spawn({
                let s = s.clone();
                async move {
                    s.sleep(SimDuration::from_millis(5)).await;
                    "done"
                }
            });
            inner.await
        });
        assert_eq!(out, "done");
    }

    #[test]
    fn timeout_expires() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = sim.block_on(async move {
            s.timeout(
                SimDuration::from_millis(1),
                s.sleep(SimDuration::from_secs(10)),
            )
            .await
        });
        assert_eq!(out, Err(TimedOut));
    }

    #[test]
    fn timeout_passes_through_fast_future() {
        let sim = Sim::new();
        let s = sim.clone();
        let out =
            sim.block_on(async move { s.timeout(SimDuration::from_secs(10), async { 7u8 }).await });
        assert_eq!(out, Ok(7));
    }

    #[test]
    fn timeout_win_is_exclusive_at_same_instant() {
        // If the inner future becomes ready exactly at the deadline, the
        // value wins (future is polled first).
        let sim = Sim::new();
        let s = sim.clone();
        let d = SimDuration::from_millis(3);
        let out = sim.block_on({
            let s = s.clone();
            async move { s.timeout(d, s.sleep(d)).await }
        });
        assert_eq!(out, Ok(()));
    }

    #[test]
    fn yield_now_lets_peers_run() {
        let sim = Sim::new();
        let flag = Rc::new(Cell::new(false));
        let f2 = Rc::clone(&flag);
        sim.spawn(async move {
            f2.set(true);
        });
        let s = sim.clone();
        let out = sim.block_on(async move {
            // Without the yield the sibling task (spawned later in the
            // ready queue) would not have run yet.
            yield_now().await;
            flag.get()
        });
        assert!(out);
        let _ = s;
    }

    #[test]
    fn run_to_quiescence_finishes_with_chained_spawns() {
        let sim = Sim::new();
        let count = Rc::new(Cell::new(0u32));
        fn chain(s: Sim, count: Rc<Cell<u32>>, depth: u32) {
            if depth == 0 {
                return;
            }
            let s2 = s.clone();
            s.spawn(async move {
                s2.sleep(SimDuration::from_micros(1)).await;
                count.set(count.get() + 1);
                chain(s2.clone(), count, depth - 1);
            });
        }
        chain(sim.clone(), Rc::clone(&count), 10);
        sim.run_to_quiescence();
        assert_eq!(count.get(), 10);
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn run_until_panics_on_deadlock() {
        let sim = Sim::new();
        let h = sim.spawn(std::future::pending::<()>());
        sim.run_until(h);
    }

    #[test]
    fn sleep_until_past_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(SimDuration::from_secs(5)).await;
            // Deadline already in the past.
            s.sleep_until(SimTime::from_micros(1)).await;
            assert_eq!(s.now().as_secs_f64(), 5.0);
        });
    }

    #[test]
    fn cancelled_sleep_leaves_no_live_timer() {
        // The stale-timer regression: a timeout whose inner future wins
        // must remove its guard entry, not leave it to fire spuriously.
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            let r = s
                .timeout(
                    SimDuration::from_secs(100),
                    s.sleep(SimDuration::from_millis(1)),
                )
                .await;
            assert!(r.is_ok());
            assert_eq!(s.live_timers(), 0, "abandoned guard timer left behind");
        });
        // Quiescence is reached at the inner deadline, not the guard's.
        sim.run_to_quiescence();
        assert_eq!(sim.now().as_micros(), 1_000);
        let st = sim.stats();
        assert_eq!(st.timer_cancels, 1);
        assert_eq!(st.stale_wakes, 0);
    }

    #[test]
    fn explicitly_dropped_sleep_cancels_its_timer() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            let mut sl = s.sleep(SimDuration::from_secs(50));
            // Poll it once so it registers, then drop it.
            futures_poll_once(&mut sl);
            assert_eq!(s.live_timers(), 1);
            drop(sl);
            assert_eq!(s.live_timers(), 0);
        });
    }

    /// Polls a future once with a no-op waker (test helper).
    fn futures_poll_once<F: Future + Unpin>(f: &mut F) {
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Noop));
        let mut cx = Context::from_waker(&waker);
        let _ = Pin::new(f).poll(&mut cx);
    }

    #[test]
    fn slab_reuses_slots_without_cross_waking() {
        let sim = Sim::new();
        let hits: Rc<RefCell<Vec<u32>>> = Rc::default();
        // Wave 1: tasks finish quickly, freeing their slots.
        for i in 0..4u32 {
            let s = sim.clone();
            let hits = Rc::clone(&hits);
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(u64::from(i))).await;
                hits.borrow_mut().push(i);
            });
        }
        sim.run_to_quiescence();
        // Wave 2 reuses the slots; stale wakes from wave 1 (none should
        // exist, but generations guard it) must not touch wave 2.
        for i in 10..14u32 {
            let s = sim.clone();
            let hits = Rc::clone(&hits);
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(u64::from(i))).await;
                hits.borrow_mut().push(i);
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*hits.borrow(), vec![0, 1, 2, 3, 10, 11, 12, 13]);
        let st = sim.stats();
        assert_eq!(st.tasks_spawned, 8);
        assert_eq!(st.tasks_completed, 8);
        assert!(st.peak_live_tasks <= 4, "slots were not reused");
    }

    #[test]
    fn shutdown_frees_what_a_forever_sleeping_daemon_captured() {
        shutdown_frees_the_daemon(false);
    }

    /// The handle shares the daemon's allocation (a testbed field, a
    /// workload's `Vec` of handles): it must not keep the daemon alive.
    #[test]
    fn shutdown_frees_a_daemon_whose_join_handle_is_still_held() {
        shutdown_frees_the_daemon(true);
    }

    fn shutdown_frees_the_daemon(keep_handle: bool) {
        let sim = Sim::new();
        let held = Rc::new(());
        let daemon = {
            let s = sim.clone();
            let held = Rc::clone(&held);
            sim.spawn(async move {
                loop {
                    s.sleep(SimDuration::from_secs(30)).await;
                    let _ = &held;
                }
            })
        };
        let daemon = keep_handle.then_some(daemon);
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_secs(100)).await });
        assert_eq!(Rc::strong_count(&held), 2, "the daemon holds its capture");
        let before = sim.stats();
        sim.shutdown();
        assert_eq!(Rc::strong_count(&held), 1, "shutdown dropped the daemon");
        assert_eq!(sim.live_tasks(), 0);
        assert_eq!(sim.live_timers(), 0);
        // The clock and the counters outlive the tasks.
        assert_eq!(sim.now().as_micros(), 100_000_000);
        assert_eq!(sim.stats(), before);
        // The executor is still usable (slots and timer ids were retired).
        let s = sim.clone();
        sim.block_on(async move { s.sleep(SimDuration::from_secs(1)).await });
        assert_eq!(sim.now().as_micros(), 101_000_000);
        assert!(daemon.is_none_or(|d| !d.is_finished()));
    }

    #[test]
    fn joiners_wake_in_arrival_order() {
        // Spawn order 0, 1, 2; arrival at the join in order 2, 0, 1.
        let sim = Sim::new();
        let target = {
            let s = sim.clone();
            sim.spawn(async move { s.sleep(SimDuration::from_millis(10)).await })
        };
        let order: Rc<RefCell<Vec<u32>>> = Rc::default();
        for (i, arrives_us) in [(0u32, 2u64), (1, 3), (2, 1)] {
            let (s, target, order) = (sim.clone(), target.clone(), Rc::clone(&order));
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(arrives_us)).await;
                // One waiter takes the output, the others stay pending:
                // the order they were *polled* in is the wake order.
                std::future::poll_fn(|cx| {
                    if s.now().as_micros() >= 10_000 {
                        order.borrow_mut().push(i);
                        return Poll::Ready(());
                    }
                    assert!(Pin::new(&mut target.clone()).poll(cx).is_pending());
                    Poll::Pending
                })
                .await;
            });
        }
        sim.run_to_quiescence();
        assert_eq!(*order.borrow(), vec![2, 0, 1]);
    }

    /// A finished task's slot keeps its waker for the next occupant —
    /// unless a clone of it is still out there, which must then go stale
    /// rather than poll the newcomer.
    #[test]
    fn a_slot_reuses_its_waker_unless_a_clone_outlived_the_task() {
        let sim = Sim::new();
        let slot_waker = |sim: &Sim| sim.core.borrow().tasks[0].waker.data();
        let polls = Rc::new(Cell::new(0u32));
        // Counts its polls; finishes on the first iff `finish`, stashing
        // a clone of its waker iff `kept` is given.
        let task = |finish: bool, kept: Option<Rc<RefCell<Option<Waker>>>>| {
            let polls = Rc::clone(&polls);
            std::future::poll_fn(move |cx| {
                polls.set(polls.get() + 1);
                if let Some(kept) = &kept {
                    *kept.borrow_mut() = Some(cx.waker().clone());
                }
                if finish {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            })
        };
        sim.spawn(task(true, None));
        sim.run_to_quiescence();
        let first = slot_waker(&sim);
        // Nobody kept the first occupant's waker: the second gets it.
        let kept: Rc<RefCell<Option<Waker>>> = Rc::default();
        sim.spawn(task(true, Some(Rc::clone(&kept))));
        sim.run_to_quiescence();
        assert_eq!(slot_waker(&sim), first, "re-targeted, not re-allocated");
        // A clone of the second's is still held: the third gets a fresh one.
        sim.spawn(task(false, None));
        sim.run_to_quiescence();
        assert_ne!(slot_waker(&sim), first, "a fresh waker for the third");
        assert_eq!((polls.get(), sim.live_tasks()), (3, 1));
        // The leftover clone wakes nobody: the third is not polled again.
        kept.borrow_mut().take().expect("stashed").wake();
        sim.run_to_quiescence();
        assert_eq!(polls.get(), 3, "the late wake polled the slot's new task");
        assert_eq!(sim.stats().stale_wakes, 1);
        assert_eq!(sim.core.borrow().tasks.len(), 1, "one slot throughout");
    }

    /// A task that stashes a clone of its waker on its first poll and
    /// finishes once `done` is set (test helper).
    fn stashing(sim: &Sim, done: Rc<Cell<bool>>) -> Rc<RefCell<Option<Waker>>> {
        let kept: Rc<RefCell<Option<Waker>>> = Rc::default();
        let stash = Rc::clone(&kept);
        sim.spawn(std::future::poll_fn(move |cx| {
            stash.borrow_mut().get_or_insert_with(|| cx.waker().clone());
            if done.get() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        }));
        kept
    }

    /// A waker handed to another thread wakes nobody there: a wake or a
    /// clone panics, a drop returns (leaking its reference), and the
    /// simulation finishes as if the detour had not happened.
    #[test]
    fn a_waker_off_its_thread_panics_on_use_and_leaks_on_drop() {
        let run = |detour: bool| {
            let sim = Sim::new();
            let done = Rc::new(Cell::new(false));
            let kept = stashing(&sim, Rc::clone(&done));
            sim.run_to_quiescence();
            let waker = kept.borrow().clone().expect("stashed");
            if detour {
                let (woken, cloned, dropped) = (waker.clone(), waker.clone(), waker.clone());
                std::thread::scope(|s| {
                    let woken = s.spawn(move || woken.wake_by_ref());
                    let cloned = s.spawn(move || drop(cloned.clone()));
                    let dropped = s.spawn(move || drop(dropped));
                    assert!(woken.join().is_err(), "a foreign wake panics");
                    assert!(cloned.join().is_err(), "a foreign clone panics");
                    assert!(dropped.join().is_ok(), "a foreign drop returns");
                });
                sim.run_to_quiescence();
            }
            done.set(true);
            waker.wake();
            sim.run_to_quiescence();
            assert_eq!(sim.live_tasks(), 0);
            sim.stats()
        };
        assert_eq!(run(true), run(false));
    }

    /// A clone parked in another thread's locals is dropped when that
    /// thread exits: it leaks there instead of panicking, which would
    /// abort the process.
    #[test]
    fn a_waker_in_an_exiting_threads_locals_leaks_quietly() {
        thread_local! {
            static PARKED: RefCell<Option<Waker>> = const { RefCell::new(None) };
        }
        let sim = Sim::new();
        let done = Rc::new(Cell::new(false));
        let kept = stashing(&sim, Rc::clone(&done));
        sim.run_to_quiescence();
        let parked = kept.borrow().clone().expect("stashed");
        let exited = std::thread::spawn(move || PARKED.with(|p| *p.borrow_mut() = Some(parked)));
        assert!(exited.join().is_ok(), "the thread's teardown did not abort");
        done.set(true);
        kept.borrow_mut().take().expect("stashed").wake();
        sim.run_to_quiescence();
        assert_eq!((sim.live_tasks(), sim.stats().stale_wakes), (0, 0));
    }

    #[test]
    fn shutdown_from_inside_a_task_lets_that_task_finish() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(std::future::pending::<()>());
        let out = sim.block_on(async move {
            s.sleep(SimDuration::from_secs(1)).await;
            s.shutdown();
            s.live_tasks()
        });
        assert_eq!(out, 1, "only the caller survived its own shutdown");
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn stats_count_polls_and_fires() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            for _ in 0..10 {
                s.sleep(SimDuration::from_millis(1)).await;
            }
        });
        let st = sim.stats();
        assert_eq!(st.timer_fires, 10);
        assert_eq!(st.timers_registered, 10);
        assert!(st.polls >= 11);
        assert_eq!(st.tasks_spawned, 1);
        assert_eq!(st.tasks_completed, 1);
        assert!(st.events_retired() >= 21);
        assert_eq!(st.clock_advances, 10);
    }

    // ---- the free lists of task cells ----

    /// Tasks of one type: each waits for `gate`, then returns `v`.
    fn gated(sim: &Sim, gate: Event, v: u32) -> JoinHandle<u32> {
        sim.spawn(async move {
            gate.wait().await;
            v
        })
    }

    fn set_event() -> Event {
        let ev = Event::new();
        ev.set();
        ev
    }

    fn cell<T>(h: &JoinHandle<T>) -> *const () {
        Rc::as_ptr(&h.task) as *const ()
    }

    /// The length of each type's free list, shortest first.
    fn free_cells() -> Vec<usize> {
        let mut lens: Vec<usize> = FREE_CELLS.with(|f| f.borrow().values().map(Vec::len).collect());
        lens.sort_unstable();
        lens
    }

    /// Counts the wakes it is given.
    #[derive(Default)]
    struct Wakes(std::sync::atomic::AtomicUsize);

    impl Wake for Wakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// A joiner of a task `shutdown` cancelled is never woken: the cell
    /// forgets it when its last handle goes, not when the next occupant
    /// finishes.
    #[test]
    fn a_reused_cell_wakes_none_of_its_previous_occupants_joiners() {
        let sim = Sim::new();
        let mut first = gated(&sim, Event::new(), 1);
        let wakes = Arc::new(Wakes::default());
        let waker = Waker::from(Arc::clone(&wakes));
        let polled = Pin::new(&mut first).poll(&mut Context::from_waker(&waker));
        assert!(polled.is_pending(), "the joiner waits");
        sim.run_to_quiescence();
        sim.shutdown();
        let was = cell(&first);
        drop(first);
        let second = gated(&sim, set_event(), 2);
        assert_eq!(cell(&second), was, "the cell was reused");
        assert_eq!(sim.run_until(second), 2);
        assert_eq!(wakes.0.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn a_handle_held_past_completion_keeps_its_cell_and_output() {
        let sim = Sim::new();
        let first = gated(&sim, set_event(), 1);
        sim.run_to_quiescence();
        assert!(first.is_finished());
        let second = gated(&sim, set_event(), 2);
        assert_ne!(cell(&second), cell(&first), "the held cell is not free");
        sim.run_to_quiescence();
        assert_eq!((first.try_take(), second.try_take()), (Some(1), Some(2)));
        drop((first, second));
        assert_eq!(free_cells(), [2]);
    }

    #[test]
    fn output_clones_for_every_handle_but_the_last() {
        let sim = Sim::new();
        let h = sim.spawn(async { vec![7u32] });
        let (a, b) = (h.clone(), h.clone());
        assert_eq!(h.clone().output(), None, "not finished yet");
        sim.run_to_quiescence();
        assert_eq!((a.output(), h.is_finished()), (Some(vec![7]), true));
        assert_eq!(h.output(), Some(vec![7]));
        assert_eq!(free_cells(), Vec::<usize>::new(), "b still holds the cell");
        assert_eq!(b.output(), Some(vec![7]), "the last handle takes it");
        assert_eq!(free_cells(), [1]);
    }

    #[test]
    fn a_cancelled_tasks_cell_is_not_reused_while_its_handle_lives() {
        let sim = Sim::new();
        let cancelled = gated(&sim, Event::new(), 1);
        sim.run_to_quiescence();
        sim.shutdown();
        let other = gated(&sim, set_event(), 2);
        assert_ne!(cell(&other), cell(&cancelled));
        assert_eq!(sim.run_until(other), 2);
        assert_eq!((cancelled.try_take(), free_cells()), (None, vec![1]));
        let was = cell(&cancelled);
        drop(cancelled);
        assert_eq!(
            cell(&gated(&sim, set_event(), 3)),
            was,
            "reused last in, first out"
        );
    }

    #[test]
    fn each_type_keeps_at_most_four_free_cells() {
        let sim = Sim::new();
        let gates: Vec<_> = (0..6).map(|v| gated(&sim, set_event(), v)).collect();
        let sleeps: Vec<_> = (0..6)
            .map(|_| sim.sleep(SimDuration::from_micros(1)))
            .map(|s| sim.spawn(s))
            .collect();
        sim.run_to_quiescence();
        drop((gates, sleeps));
        assert_eq!(free_cells(), [FREE_CELLS_PER_TYPE; 2]);
        let capacity = FREE_CELLS.with(|f| f.borrow().values().map(Vec::capacity).max());
        assert_eq!(capacity, Some(FREE_CELLS_PER_TYPE), "a list never grows");
    }

    /// An output that spawns another task of its own type when it is
    /// dropped: the free list must not be borrowed while it is.
    struct Respawn {
        sim: Sim,
        left: u32,
    }

    impl Drop for Respawn {
        fn drop(&mut self) {
            if self.left > 0 {
                respawn(&self.sim, self.left - 1);
            }
        }
    }

    fn respawn(sim: &Sim, left: u32) -> JoinHandle<Respawn> {
        let sim2 = sim.clone();
        sim.spawn(async move { Respawn { sim: sim2, left } })
    }

    #[test]
    fn an_output_that_respawns_its_type_while_dropped_reuses_a_cell() {
        let sim = Sim::new();
        // Nobody takes the outputs: each is dropped as its cell is recycled.
        drop(respawn(&sim, 3));
        sim.run_to_quiescence();
        assert_eq!(sim.stats().tasks_completed, 4);
        assert_eq!(free_cells(), [2], "four tasks in two cells");
        // The same from a handle dropped with its output untaken.
        let held = respawn(&sim, 1);
        sim.run_to_quiescence();
        drop(held);
        sim.run_to_quiescence();
        assert_eq!((sim.stats().tasks_completed, free_cells()), (6, vec![2]));
    }

    /// A `Sim` dropped without `shutdown` lets go of its unfinished tasks
    /// without cancelling them: the last handle's recycling drops the
    /// future, so a free cell holds nothing of its previous occupant.
    #[test]
    fn a_handle_outliving_its_sim_drops_the_future_it_recycles() {
        let held = Rc::new(());
        let handle = {
            let sim = Sim::new();
            let held = Rc::clone(&held);
            sim.spawn(async move {
                let _held = held;
                std::future::pending::<()>().await;
            })
        };
        assert_eq!(Rc::strong_count(&held), 2, "the handle keeps the future");
        drop(handle);
        assert_eq!((Rc::strong_count(&held), free_cells()), (1, vec![1]));
    }
}
