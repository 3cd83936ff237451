//! `secmod_async` — the futures-based submission frontend.
//!
//! PR 5's dispatch plane removed the *trap* from the producer's path;
//! this crate removes the *thread*. A logical client becomes a task —
//! `session.call(proc_id, args).await` — that costs a parked waker in a
//! routing table while its request rides the PR 4 rings, so 100k+
//! logical clients multiplex over a handful of OS threads: the plane's
//! drainers plus however many executor workers you give
//! [`Executor::new`]. Nothing here changes what a dispatch *is* — the
//! same `sys_smod_sweep` drains the same rings under the same paper cost
//! model — only how many concurrent callers can be waiting on one.
//!
//! The pieces, bottom-up:
//!
//! * [`exec`] — a minimal executor shim in the `vendor/` discipline:
//!   [`Executor`] (fixed worker pool, one injector queue),
//!   [`block_on`], [`join_all`]. Pure `std::task`, no unsafe.
//! * `route` (internal) — [`SlotTable`]: per-session `user_data` →
//!   parked-waker maps, fed by the attached sessions' completion rings.
//! * [`session`] — [`AsyncSession`] / [`CallFuture`]: the awaitable
//!   call itself, including backpressure suspension and drop-to-cancel.
//! * [`plane`] — [`AsyncPlane`]: a
//!   [`DispatchPlane`][secmod_kernel::plane::DispatchPlane] whose
//!   drainers route the completions they post to the awaiting wakers.
//! * [`sim`] — [`SimDriver`]: the same frontend single-threaded on the
//!   simulated clock, for deterministic coherence tests.
//!
//! Both frontends' futures resolve to the
//! [`DispatchOutcome`][secmod_kernel::dispatch::DispatchOutcome] a ring
//! completion maps to.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod plane;
pub(crate) mod route;
pub mod session;
pub mod sim;

pub use exec::{block_on, join_all, Executor, JoinAll, JoinHandle};
pub use plane::AsyncPlane;
pub use route::SlotTable;
pub use session::{AsyncSession, CallFuture, CostedCallFuture};
pub use sim::SimDriver;

#[cfg(test)]
pub(crate) mod testutil;
