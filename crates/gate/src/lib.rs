//! # secmod-gate
//!
//! The concurrent access-control gateway in front of the SecModule policy
//! stack, and the one test world every gate suite drives it through.
//!
//! The paper measures every `sys_smod_call` re-running the full credential
//! check on a single-threaded dispatch path; Linux Security Modules
//! deployments learned the same lesson the hard way and answered with the
//! access vector cache. This crate is that answer for SecModule:
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
//!   The cache and gateway modules *live in* `secmod_policy` (re-exported
//!   here unchanged): the kernel embeds one shared gateway per registered
//!   module, so `sys_smod_call`'s per-call check is a cache lookup inside
//!   the kernel dispatch path itself, and concurrent sessions on one
//!   module share the same cache.
//! * [`scenario`] — the **test world**: [`build_dispatch_kernel_with_clients`]
//!   boots a kernel, registers one policy-protected module and
//!   establishes a pool of sessions, for the coherence suites under
//!   `tests/` and the workspace's integration tests.
//!
//! Quick taste:
//!
//! ```
//! use secmod_gate::{build_dispatch_kernel_with_clients, WorldConfig};
//!
//! let world = build_dispatch_kernel_with_clients(&WorldConfig::new(42), 2);
//! assert_eq!(world.clients.len(), 2);
//! assert!(world.kernel.session_of(world.clients[0]).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use secmod_policy::cache;
pub use secmod_policy::gateway;
pub mod scenario;

pub use cache::{CacheConfig, CacheKey, CacheStats, DecisionCache};
pub use gateway::{AccessRequest, Gateway};
pub use scenario::{build_dispatch_kernel_with_clients, DispatchKernel, WorldConfig};
