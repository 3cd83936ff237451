//! The repo benchmark: seven seeded, closed-loop workloads over the public
//! entry points of `secmod_kernel`, `secmod_ring`, `secmod_policy` and
//! `secmod_async`; wall-clock end-to-end metrics from an untraced run and
//! per-layer metrics from a traced run. See `README.md` here and
//! `../BENCHMARK.json`.

pub mod entry;
pub mod gen;
pub mod host;
pub mod json;
pub mod probes;
pub mod run;
pub mod schema;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod verify;
pub mod workloads;
