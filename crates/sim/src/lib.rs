//! Deterministic discrete-event simulation executor for the Spritely NFS
//! reproduction.
//!
//! This crate is the substrate every other crate in the workspace runs on:
//! a single-threaded async executor driven by a *virtual* clock. Simulated
//! hosts, disks, networks and daemons are ordinary Rust futures that block
//! on [`Sim::sleep`], [`Semaphore`]s, [`Resource`]s and [`Event`]s; when
//! nothing is runnable, the executor jumps the clock to the next timer.
//!
//! Design goals, in order:
//!
//! 1. **Determinism** — identical inputs produce identical event orders,
//!    identical RPC counts and identical final clocks. Ties are broken by
//!    registration order, all queues are FIFO, and randomness flows through
//!    seeded [`SimRng`] streams.
//! 2. **Legible models** — a workload is written as straight-line async
//!    code (`fs.open(..).await?; fs.write(..).await?`), not as a hand-built
//!    state machine.
//! 3. **Measurability** — [`Resource`] integrates busy time so the harness
//!    can reproduce the paper's server-utilization figures.
//!
//! # Examples
//!
//! ```
//! use spritely_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! let total = sim.block_on(async move {
//!     s.sleep(SimDuration::from_secs(2)).await;
//!     s.now().as_secs_f64()
//! });
//! assert_eq!(total, 2.0);
//! ```

mod executor;
mod hash;
mod resource;
mod rng;
mod sync;
mod time;
mod timer;

pub use executor::{
    yield_now, JoinHandle, Sim, SimStats, Sleep, TaskId, TimedOut, Timeout, YieldNow,
};
pub use hash::{Map, Mix, Set};
pub use resource::{Resource, ResourceGuard};
pub use rng::SimRng;
pub use sync::{Acquire, Event, EventWait, Permit, Semaphore};
pub use time::{SimDuration, SimTime};
