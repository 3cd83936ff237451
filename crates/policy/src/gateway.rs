//! The access-control gateway: a thread-safe front for
//! `secmod_policy::PolicyEngine` that serves repeated decisions from the
//! sharded cache and invalidates them by epoch.
//!
//! Invalidation contract: every mutation that can change a decision bumps
//! an epoch *before the mutating call returns* —
//!
//! * [`Gateway::add_assertion`] and [`Gateway::register_key`] bump the
//!   gateway's own epoch (mirroring `PolicyEngine::revision`),
//! * the kernel's `sys_smod_remove` and `smod_detach` bump its
//!   `smod_epoch`, which the kernel (or any other holder of a monotone
//!   external epoch) folds in with [`Gateway::observe_kernel_epoch`] —
//!   or [`Gateway::bump_epoch`] when no kernel is in the loop.
//!
//! Because the epoch is part of every cache key, a lookup that starts after
//! a mutation completes can only hit entries computed at the new epoch —
//! stale decisions are unreachable, not merely flushed-eventually.

use crate::assertion::Assertion;
use crate::attr::{AttrRef, Attributes, Environment};
use crate::cache::{fnv64, fnv64_chain, mix64, CacheConfig, CacheKey, CacheStats, DecisionCache};
use crate::engine::{Decision, PolicyEngine};
use crate::l0;
use crate::principal::Principal;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

/// Which tier of the decision stack answered an access request. Ordered
/// hottest-first: [`DecisionTier::L0`] is a thread-local probe with zero
/// atomics, [`DecisionTier::Shared`] took a shard lock in the process-wide
/// cache, [`DecisionTier::Engine`] ran the full policy fixpoint under the
/// engine read lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionTier {
    /// Served from the calling thread's L0 table.
    L0,
    /// Served from the sharded decision cache.
    Shared,
    /// Computed by the policy engine (a cache miss at every tier).
    Engine,
}

impl DecisionTier {
    /// Whether the answer was served from a cache (any tier above the
    /// engine). Callers that charge different costs for cached vs uncached
    /// checks key off this, so an L0 hit is billed exactly like a sharded
    /// hit.
    pub fn is_cached(self) -> bool {
        !matches!(self, DecisionTier::Engine)
    }
}

/// Source of process-unique gateway ids; starts at 1 so 0 can mark an
/// empty L0 slot. Ids are never reused, so entries belonging to a dropped
/// gateway can never be served to a new one.
static NEXT_GATEWAY_ID: AtomicU64 = AtomicU64::new(1);

/// One access-control question: may `requesters` invoke `operation` of
/// `module`? Carries the same attributes `Environment::for_smod_call`
/// derives the action environment from, so a cached answer covers exactly
/// the inputs an uncached `PolicyEngine::query` would see.
#[derive(Clone, Copy, Debug)]
pub struct AccessRequest<'a> {
    /// The principals making the request (usually one per tenant).
    pub requesters: &'a [Principal],
    /// The application domain attribute.
    pub app_domain: &'a str,
    /// The module being called.
    pub module: &'a str,
    /// The module version.
    pub version: u32,
    /// The function/operation being invoked.
    pub operation: &'a str,
    /// The calling uid.
    pub uid: i64,
}

impl AccessRequest<'_> {
    /// The action environment of this request in owned form. The gateway
    /// itself evaluates a miss against the request's [`Attributes`] view,
    /// which answers the same names with the same values.
    pub fn environment(&self) -> Environment {
        Environment::for_smod_call(
            self.app_domain,
            self.module,
            self.version,
            self.operation,
            self.uid,
        )
    }

    /// The cache identity of this request at `epoch`.
    fn cache_key(&self, epoch: u64) -> CacheKey {
        // Requester order must not matter, just as `PolicyEngine::query`
        // treats requesters as a set — so sort the fingerprints and hash
        // the sequence. (A commutative wrapping sum would be cheaper but
        // algebraically collapsible: distinct sets with equal sums would
        // share an entry and be served each other's decisions.)
        let principals = match self.requesters {
            [single] => mix64(single.fingerprint()),
            many => {
                let mut fps: Vec<u64> = many.iter().map(|p| p.fingerprint()).collect();
                fps.sort_unstable();
                fps.iter().fold(fnv64(b"principal-set"), |h, fp| {
                    fnv64_chain(h, &fp.to_le_bytes())
                })
            }
        };
        let mut operation = fnv64(self.operation.as_bytes());
        operation = fnv64_chain(operation, self.app_domain.as_bytes());
        operation = fnv64_chain(operation, &u64::from(self.version).to_le_bytes());
        operation = fnv64_chain(operation, &self.uid.to_le_bytes());
        CacheKey {
            principals,
            module: fnv64(self.module.as_bytes()),
            operation,
            epoch,
        }
    }
}

/// The borrowed form of [`AccessRequest::environment`]: the names
/// `Environment::for_smod_call` sets, answered from the request's fields.
impl Attributes for AccessRequest<'_> {
    fn attr(&self, name: &str) -> Option<AttrRef<'_>> {
        match name {
            "app_domain" => Some(AttrRef::Str(self.app_domain)),
            "module" => Some(AttrRef::Str(self.module)),
            "module_version" => Some(AttrRef::Int(i64::from(self.version))),
            "function" => Some(AttrRef::Str(self.operation)),
            "uid" => Some(AttrRef::Int(self.uid)),
            _ => None,
        }
    }
}

/// The concurrent decision gateway. Shareable across threads (`&self`
/// everywhere); see the module docs for the invalidation contract.
pub struct Gateway {
    engine: RwLock<PolicyEngine>,
    cache: DecisionCache,
    /// Epoch component owned by the gateway: bumped by local mutations.
    epoch: AtomicU64,
    /// Epoch component observed from a kernel via `sync_kernel_epoch`.
    kernel_epoch: AtomicU64,
    /// Process-unique id tagging this gateway's entries in per-thread L0
    /// tables.
    id: u64,
}

impl Gateway {
    /// Front `engine` with a decision cache of the given sizing.
    pub fn new(engine: PolicyEngine, config: CacheConfig) -> Gateway {
        // Start from the engine's own revision so a pre-populated engine
        // handed to several gateways yields distinct epochs after divergent
        // mutations.
        let epoch = AtomicU64::new(engine.revision());
        Gateway {
            engine: RwLock::new(engine),
            cache: DecisionCache::new(config),
            epoch,
            kernel_epoch: AtomicU64::new(0),
            id: NEXT_GATEWAY_ID.fetch_add(1, SeqCst),
        }
    }

    /// The effective invalidation epoch folded into every cache key.
    pub fn epoch(&self) -> u64 {
        self.epoch
            .load(SeqCst)
            .wrapping_add(self.kernel_epoch.load(SeqCst))
    }

    /// Answer an access request with the full [`Decision`], from the
    /// sharded cache when possible. The reference query: it clones the
    /// decision and never touches the thread-local tier.
    pub fn check(&self, req: &AccessRequest) -> crate::Result<Decision> {
        let key = req.cache_key(self.epoch());
        if let Some(decision) = self.cache.get(&key) {
            return Ok(decision);
        }
        let (decision, _) = self.miss(req, key, Decision::clone)?;
        Ok(decision)
    }

    /// The one miss path: run the engine on `req`, record the decision in
    /// the sharded cache, and return its projection through `f` with the
    /// key it was recorded under. The epoch is re-read under the engine
    /// read lock so the entry is labelled with the epoch the engine state
    /// actually corresponds to (mutators bump while holding the write
    /// lock); only the epoch component can have changed, so the request
    /// hashes are not recomputed. Conditions are evaluated against the
    /// request's own fields — no `Environment` is built. An evaluation
    /// error is returned and cached at no tier.
    fn miss<R>(
        &self,
        req: &AccessRequest,
        mut key: CacheKey,
        f: impl FnOnce(&Decision) -> R,
    ) -> crate::Result<(R, CacheKey)> {
        let engine = self.engine.read();
        key.epoch = self.epoch();
        let decision = engine.query(req.requesters, req)?;
        let projected = f(&decision);
        self.cache.insert(key, decision);
        Ok((projected, key))
    }

    /// The production query: answer only "is this allowed?", without
    /// cloning the cached [`Decision`] (an Allow carries its
    /// `used_assertions` vector; cloning it per call would put a heap
    /// allocation inside the very path the cache exists to make cheap),
    /// fronted by the calling thread's L0 table and reporting which tier
    /// answered. An L0 hit is a hash, at most two slot compares, and a
    /// return — no locks, no shared counters, no atomic writes. Both
    /// cache tiers key on the same epoch-tagged [`CacheKey`], so the L0
    /// inherits the sharded cache's invalidation contract verbatim: any
    /// epoch movement makes every resident entry unreachable. Errors count
    /// as deny, as in [`Gateway::is_allowed`], and are cached at no tier.
    pub fn is_allowed_tiered(&self, req: &AccessRequest) -> (bool, DecisionTier) {
        let key = req.cache_key(self.epoch());
        // A disabled cache disables every tier: the uncached baseline must
        // not be quietly served by a thread-local cache instead.
        if !self.cache.is_enabled() {
            let hit = self.cache.probe(&key, Decision::is_allowed);
            debug_assert!(hit.is_none(), "disabled cache reported a hit");
            let allowed = matches!(self.miss(req, key, Decision::is_allowed), Ok((true, _)));
            return (allowed, DecisionTier::Engine);
        }
        if let Some(allowed) = l0::lookup(self.id, &key) {
            return (allowed, DecisionTier::L0);
        }
        if let Some(allowed) = self.cache.probe(&key, Decision::is_allowed) {
            l0::insert(self.id, key, allowed);
            return (allowed, DecisionTier::Shared);
        }
        match self.miss(req, key, Decision::is_allowed) {
            Ok((allowed, key)) => {
                // Label the L0 entry with the same epoch the sharded insert
                // used — the epoch the locked engine state corresponds to.
                l0::insert(self.id, key, allowed);
                (allowed, DecisionTier::Engine)
            }
            Err(_) => (false, DecisionTier::Engine),
        }
    }

    /// [`Gateway::check`] as a plain boolean (errors count as deny).
    pub fn is_allowed(&self, req: &AccessRequest) -> bool {
        matches!(self.check(req), Ok(d) if d.is_allowed())
    }

    /// Add an assertion to the fronted engine, invalidating the cache.
    pub fn add_assertion(&self, assertion: Assertion) -> crate::Result<usize> {
        let mut engine = self.engine.write();
        let idx = engine.add_assertion(assertion)?;
        self.epoch.fetch_add(1, SeqCst);
        Ok(idx)
    }

    /// Register a principal's key material, invalidating the cache (key
    /// registration can make previously rejected assertions admissible, so
    /// it is treated as decision-affecting just like in `PolicyEngine`).
    pub fn register_key(&self, principal: &Principal, key_material: &[u8]) {
        let mut engine = self.engine.write();
        engine.register_key(principal, key_material);
        self.epoch.fetch_add(1, SeqCst);
    }

    /// Invalidate every cached decision without touching the engine — the
    /// hook for out-of-band events (session detach, module removal) when no
    /// kernel handle is available to sync from.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, SeqCst);
    }

    /// Fold a kernel's SecModule invalidation epoch (the value of its
    /// `smod_epoch()`) into this gateway's, so decisions cached before a
    /// `sys_smod_remove`/`smod_detach` can no longer be served. Monotone:
    /// a stale kernel snapshot never rewinds the epoch.
    pub fn observe_kernel_epoch(&self, kernel_epoch: u64) {
        // Load-before-RMW: on the steady-state hot path the observed epoch
        // is already current, and a plain load of a shared cache line does
        // not bounce it between cores the way an unconditional fetch_max
        // would.
        if self.kernel_epoch.load(SeqCst) >= kernel_epoch {
            return;
        }
        self.kernel_epoch.fetch_max(kernel_epoch, SeqCst);
    }

    /// Run a closure against the fronted engine (read-locked): the escape
    /// hatch for reporting and for coherence tests that need the uncached
    /// answer.
    pub fn with_engine<R>(&self, f: impl FnOnce(&PolicyEngine) -> R) -> R {
        f(&self.engine.read())
    }

    /// Snapshot the cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::LicenseeExpr;

    fn alice() -> Principal {
        Principal::from_key("alice", b"alice-key")
    }

    fn gateway_with_alice() -> Gateway {
        let gate = Gateway::new(PolicyEngine::new(), CacheConfig::default());
        gate.add_assertion(
            Assertion::policy(LicenseeExpr::Single(alice()), "module == \"libc\"").unwrap(),
        )
        .unwrap();
        gate
    }

    fn req<'a>(
        requesters: &'a [Principal],
        module: &'a str,
        operation: &'a str,
    ) -> AccessRequest<'a> {
        AccessRequest {
            requesters,
            app_domain: "app",
            module,
            version: 1,
            operation,
            uid: 1000,
        }
    }

    #[test]
    fn repeated_checks_hit_the_cache() {
        let gate = gateway_with_alice();
        let requesters = [alice()];
        let r = req(&requesters, "libc", "malloc");
        assert!(gate.check(&r).unwrap().is_allowed());
        assert!(gate.check(&r).unwrap().is_allowed());
        assert!(gate.check(&r).unwrap().is_allowed());
        let s = gate.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        // A different operation is a different key.
        assert!(gate.is_allowed(&req(&requesters, "libc", "free")));
        assert_eq!(gate.cache_stats().misses, 2);
    }

    #[test]
    fn requester_order_does_not_split_the_cache() {
        let gate = Gateway::new(PolicyEngine::new(), CacheConfig::default());
        let bob = Principal::from_key("bob", b"bob-key");
        gate.add_assertion(
            Assertion::policy(
                LicenseeExpr::All(vec![
                    LicenseeExpr::Single(alice()),
                    LicenseeExpr::Single(bob.clone()),
                ]),
                "",
            )
            .unwrap(),
        )
        .unwrap();
        let ab = [alice(), bob.clone()];
        let ba = [bob, alice()];
        assert!(gate
            .check(&req(&ab, "libc", "malloc"))
            .unwrap()
            .is_allowed());
        assert!(gate
            .check(&req(&ba, "libc", "malloc"))
            .unwrap()
            .is_allowed());
        let s = gate.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn mutation_invalidates_previous_decisions() {
        let gate = gateway_with_alice();
        let requesters = [alice()];
        let r = req(&requesters, "libm", "sin");
        // libm denied under the initial policy — and the denial is cached.
        assert!(!gate.is_allowed(&r));
        assert!(!gate.is_allowed(&r));
        assert_eq!(gate.cache_stats().hits, 1);
        // Granting libm must be visible immediately.
        gate.add_assertion(
            Assertion::policy(LicenseeExpr::Single(alice()), "module == \"libm\"").unwrap(),
        )
        .unwrap();
        assert!(gate.is_allowed(&r), "stale deny served after add_assertion");
    }

    #[test]
    fn kernel_epoch_sync_invalidates_and_is_monotone() {
        let gate = gateway_with_alice();
        let requesters = [alice()];
        let r = req(&requesters, "libc", "malloc");
        assert!(gate.is_allowed(&r));
        assert!(gate.is_allowed(&r));
        assert_eq!(gate.cache_stats().hits, 1);

        // A fresh kernel snapshot (epoch 0) must not rewind the gateway's
        // epoch; a real detach-driven bump is exercised end-to-end by the
        // gate crate's scenario engine and kernel-backed coherence tests.
        let before = gate.epoch();
        gate.observe_kernel_epoch(0);
        assert_eq!(gate.epoch(), before);
        // Observing a newer kernel epoch invalidates; observing an older
        // one afterwards changes nothing (monotone fold).
        gate.observe_kernel_epoch(3);
        assert_eq!(gate.epoch(), before + 3);
        gate.observe_kernel_epoch(2);
        assert_eq!(gate.epoch(), before + 3);
        gate.bump_epoch();
        assert_eq!(gate.epoch(), before + 4);
        // The old cached entry is unreachable: next check is a miss.
        assert!(gate.is_allowed(&r));
        assert_eq!(gate.cache_stats().hits, 1);
        assert_eq!(gate.cache_stats().misses, 2);
    }

    #[test]
    fn tiered_lookup_promotes_through_the_stack() {
        crate::l0::clear_thread_cache();
        let gate = gateway_with_alice();
        let requesters = [alice()];
        let r = req(&requesters, "libc", "malloc");
        let (a1, t1) = gate.is_allowed_tiered(&r);
        assert!(a1);
        assert_eq!(t1, DecisionTier::Engine, "cold lookup must run the engine");
        assert!(!t1.is_cached());
        let (a2, t2) = gate.is_allowed_tiered(&r);
        assert!(a2);
        assert_eq!(t2, DecisionTier::L0, "warm lookup must hit the L0");
        assert!(t2.is_cached());
        // A thread that lost its L0 entry still hits the sharded tier.
        crate::l0::clear_thread_cache();
        let (a3, t3) = gate.is_allowed_tiered(&r);
        assert!(a3);
        assert_eq!(t3, DecisionTier::Shared);
        // ... and the hit re-primes the L0.
        assert_eq!(gate.is_allowed_tiered(&r).1, DecisionTier::L0);
    }

    #[test]
    fn tiered_lookup_never_serves_stale_decisions() {
        crate::l0::clear_thread_cache();
        let gate = gateway_with_alice();
        let requesters = [alice()];
        let r = req(&requesters, "libm", "sin");
        // Deny cached in both tiers.
        assert_eq!(gate.is_allowed_tiered(&r), (false, DecisionTier::Engine));
        assert_eq!(gate.is_allowed_tiered(&r), (false, DecisionTier::L0));
        // Granting libm bumps the epoch; the L0 entry must be unreachable.
        gate.add_assertion(
            Assertion::policy(LicenseeExpr::Single(alice()), "module == \"libm\"").unwrap(),
        )
        .unwrap();
        let (allowed, tier) = gate.is_allowed_tiered(&r);
        assert!(allowed, "stale deny served from L0 after add_assertion");
        assert_eq!(tier, DecisionTier::Engine);
        // Kernel-epoch folds invalidate the same way.
        let before = gate.epoch();
        gate.observe_kernel_epoch(before + 10);
        assert_eq!(gate.is_allowed_tiered(&r).1, DecisionTier::Engine);
    }

    #[test]
    fn tiered_lookup_partitions_gateways_sharing_a_thread() {
        crate::l0::clear_thread_cache();
        let permissive = gateway_with_alice();
        let strict = Gateway::new(PolicyEngine::new(), CacheConfig::default());
        let requesters = [alice()];
        let r = req(&requesters, "libc", "malloc");
        assert_eq!(
            permissive.is_allowed_tiered(&r),
            (true, DecisionTier::Engine)
        );
        // The strict gateway has no policy for alice: deny, and it must not
        // be short-circuited by the permissive gateway's L0 entry.
        assert!(!strict.is_allowed_tiered(&r).0);
        assert_eq!(permissive.is_allowed_tiered(&r), (true, DecisionTier::L0));
    }

    #[test]
    fn borrowed_view_answers_what_the_owned_environment_holds() {
        let requesters = [alice()];
        let r = AccessRequest {
            requesters: &requesters,
            app_domain: "payroll",
            module: "libcrypto",
            version: 7,
            operation: "aes_encrypt",
            uid: -3,
        };
        let env = r.environment();
        for (name, value) in env.iter() {
            assert_eq!(r.attr(name), Some(value.as_ref()), "attribute {name}");
        }
        // ... and no name the owned form lacks.
        for name in ["operation", "version", "requesters", "UID", "", "uid "] {
            assert_eq!(env.get(name), None);
            assert_eq!(r.attr(name), None, "attribute {name:?}");
        }
    }

    #[test]
    fn every_entry_point_evaluates_a_miss_against_the_request_fields() {
        // Every attribute a condition can read reaches the engine through
        // the borrowed view: each request below differs from the granted
        // one in exactly one field.
        let gate = Gateway::new(PolicyEngine::new(), CacheConfig::disabled());
        gate.add_assertion(
            Assertion::policy(
                LicenseeExpr::Single(alice()),
                "app_domain == \"app\" && module == \"libc\" && module_version == 1 \
                 && function == \"malloc\" && uid == 1000",
            )
            .unwrap(),
        )
        .unwrap();
        let requesters = [alice()];
        let granted = req(&requesters, "libc", "malloc");
        assert_eq!(
            gate.is_allowed_tiered(&granted),
            (true, DecisionTier::Engine)
        );
        assert!(gate.check(&granted).unwrap().is_allowed());
        for denied in [
            AccessRequest {
                app_domain: "other",
                ..granted
            },
            AccessRequest {
                module: "libm",
                ..granted
            },
            AccessRequest {
                version: 2,
                ..granted
            },
            AccessRequest {
                operation: "free",
                ..granted
            },
            AccessRequest { uid: 0, ..granted },
        ] {
            assert_eq!(
                gate.is_allowed_tiered(&denied),
                (false, DecisionTier::Engine)
            );
            assert_eq!(gate.check(&denied).unwrap(), Decision::Deny);
        }
    }

    #[test]
    fn with_engine_exposes_uncached_answers() {
        let gate = gateway_with_alice();
        let requesters = [alice()];
        let r = req(&requesters, "libc", "malloc");
        let cached = gate.check(&r).unwrap();
        let uncached = gate
            .with_engine(|e| e.query(r.requesters, &r.environment()))
            .unwrap();
        assert_eq!(cached, uncached);
    }
}
