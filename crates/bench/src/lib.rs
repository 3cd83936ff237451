//! # secmod-bench
//!
//! The benchmark harness reproducing the paper's evaluation:
//!
//! * [`sysinfo`] — the Figure 7 system-information block.
//! * [`harness`] — the trial runner that regenerates Figure 8 (calls/trial,
//!   trials, µs/call, standard deviation) for the four configurations, on
//!   the simulated clock (deterministic, paper-calibrated) and on the
//!   host's wall clock, where each SMOD row is the same kernel call crossed
//!   in-thread and cross-thread.
//!
//! The `figure8` binary prints the tables. Every other performance
//! number comes from the repo benchmark (`benchmark/`), which verifies
//! each call it times.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod sysinfo;

pub use harness::{Figure8Report, Figure8Row, TrialConfig};
