//! # secmod-gate
//!
//! A concurrent access-control gateway in front of the SecModule policy
//! stack — the layer that makes per-call checks survivable at production
//! traffic levels.
//!
//! The paper measures every `sys_smod_call` re-running the full credential
//! check on a single-threaded dispatch path; Linux Security Modules
//! deployments learned the same lesson the hard way and answered with the
//! access vector cache. This crate is that answer for SecModule, plus the
//! workload machinery to measure it honestly:
//!
//! * [`cache`] — a **sharded decision cache**: N independently locked
//!   shards mapping (principal-set fingerprint, module, operation, epoch)
//!   to a cached [`secmod_policy::Decision`], with sampled-LRU bounded
//!   capacity and hit/miss/eviction counters.
//! * [`gateway`] — the [`Gateway`]: a `Sync` front for
//!   [`secmod_policy::PolicyEngine`] whose accepted `add_assertion`
//!   bumps an invalidation **epoch**; nothing else does, because nothing
//!   else changes a decision (a key registration stores no assertion, and
//!   a kernel's session teardown or module removal leaves it valid). The
//!   epoch is part of every cache key, so a stale decision is unreachable
//!   the moment a mutation returns — coherence by construction, which the
//!   crate's property test (`tests/coherence.rs`) checks against an
//!   uncached engine across arbitrary interleavings.
//!
//!   Since PR 3 the cache and gateway modules *live in* `secmod_policy`
//!   (re-exported here unchanged): the kernel embeds one shared gateway
//!   per registered module, so `sys_smod_call`'s per-call check is a
//!   cache lookup inside the kernel dispatch path itself, and concurrent
//!   sessions on one module share the same cache.
//! * [`scenario`] — a **workload scenario engine**: one table of
//!   deterministic, seeded traffic shapes ([`ScenarioKind::ALL`]; each
//!   row's [`ScenarioKind::summary`] says what it does) over one
//!   multi-threaded runner, reporting ops/sec and hit rate per scenario.
//!
//! Quick taste:
//!
//! ```
//! use secmod_gate::{run_scenario, ScenarioConfig, ScenarioKind};
//!
//! let report = run_scenario(&ScenarioConfig::builder(ScenarioKind::ZipfianHotKey).quick().seed(42).build());
//! assert_eq!(report.allows + report.denies, report.total_ops);
//! assert!(report.hit_rate() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use secmod_policy::cache;
pub use secmod_policy::gateway;
pub mod scenario;

pub use cache::{CacheConfig, CacheKey, CacheStats, DecisionCache};
pub use gateway::{AccessRequest, Gateway};
pub use scenario::{
    build_dispatch_kernel, build_dispatch_kernel_with_clients, build_universe, run_metrics_demo,
    run_scenario, DispatchKernel, ScenarioConfig, ScenarioKind, ScenarioReport, Universe,
};
