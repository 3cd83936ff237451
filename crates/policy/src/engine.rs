//! The compliance checker: given a set of assertions, a set of requesting
//! principals and an action environment, decide whether the policy root
//! authorises the action.
//!
//! The evaluation is the usual trust-management fixpoint: the set of
//! "supporting" principals starts as the requesters; an assertion whose
//! licensee expression is satisfied by the current support set and whose
//! conditions hold in the action environment adds its *authorizer* to the
//! support set; the request is approved when the policy root becomes
//! supported.
//!
//! It is computed as a worklist over an index kept by `add_assertion`
//! (licensee fingerprint → the assertions naming it): a newly supported
//! principal wakes only the assertions that name it, and the query returns
//! the moment the policy root is supported. Conditions are evaluated only
//! for the assertions visited before that moment, so an evaluation error
//! ([`MissingAttr::Strict`] on a missing attribute, an ordered comparison
//! across types) in an assertion the derivation never reaches is not
//! raised; one in an assertion it does reach fails the query.

use crate::assertion::Assertion;
use crate::attr::Attributes;
use crate::eval::{evaluate, MissingAttr};
use crate::principal::Principal;
use crate::Result;
use secmod_crypto::hmac::HmacSha256;
use std::collections::HashMap;

/// The outcome of a compliance query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The action is authorised; the payload lists the assertion indices
    /// (into the engine's assertion list) that fired, in the order they
    /// contributed support (empty when the policy root itself is among the
    /// requesters).
    Allow {
        /// Indices of the assertions used in the derivation.
        used_assertions: Vec<usize>,
    },
    /// The action is not authorised.
    Deny,
}

impl Decision {
    /// Convenience: was the action allowed?
    pub fn is_allowed(&self) -> bool {
        matches!(self, Decision::Allow { .. })
    }
}

/// A policy engine holding a set of assertions and the key material needed
/// to verify their signatures.
#[derive(Clone, Debug, Default)]
pub struct PolicyEngine {
    assertions: Vec<Assertion>,
    /// fingerprint → the principal's key, scheduled once at registration,
    /// for signature verification.
    keys: HashMap<String, HmacSha256>,
    /// How to treat attributes missing from the environment.
    pub missing_attr: MissingAttr,
    /// Monotone mutation counter: bumped by every state change that can
    /// alter a decision — an accepted `add_assertion`. Decision caches
    /// fold this into their keys so stale results can never be served.
    /// `register_key` does not bump it: keys are read only by
    /// `add_assertion`'s signature check, and an assertion rejected for
    /// a missing key is never stored, so a registration alone changes no
    /// decision.
    revision: u64,
    /// Licensee fingerprint → the assertions (ascending indices) whose
    /// licensee expression names that principal: whom to wake when the
    /// principal becomes supported.
    by_licensee: HashMap<u64, Vec<usize>>,
    /// Assertions whose licensee expression nobody needs to support
    /// (`All([])`, `Threshold { k: 0, .. }`): no principal wakes them, so
    /// every query starts with them.
    vacuous: Vec<usize>,
}

impl PolicyEngine {
    /// Create an empty engine.
    pub fn new() -> PolicyEngine {
        PolicyEngine::default()
    }

    /// The engine's mutation revision: strictly increases with every
    /// decision-affecting change, so callers caching `query` results can
    /// invalidate on mismatch.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Register a principal's key material so its assertions can be
    /// signature-checked. The key is scheduled here, once: each assertion
    /// it later checks starts from a copy of that schedule. Leaves
    /// [`PolicyEngine::revision`] alone: only the assertions the key later
    /// admits change a decision, and adding each of those bumps it.
    pub fn register_key(&mut self, principal: &Principal, key_material: &[u8]) {
        self.keys
            .insert(principal.fingerprint.clone(), HmacSha256::new(key_material));
    }

    /// Add an assertion.  Non-policy assertions must verify against the
    /// registered key of their authorizer.
    pub fn add_assertion(&mut self, assertion: Assertion) -> Result<usize> {
        if !assertion.authorizer.is_policy_root() {
            let key = self
                .keys
                .get(&assertion.authorizer.fingerprint)
                .ok_or_else(|| crate::PolicyError::BadSignature {
                    authorizer: assertion.authorizer.name.clone(),
                })?;
            assertion.verify_keyed(key)?;
        }
        let idx = self.assertions.len();
        if assertion.licensees.satisfied_by(&|_| false) {
            self.vacuous.push(idx);
        } else {
            for licensee in assertion.licensees.principals() {
                let woken = self.by_licensee.entry(licensee.fingerprint()).or_default();
                // A principal named twice by one assertion wakes it once.
                if woken.last() != Some(&idx) {
                    woken.push(idx);
                }
            }
        }
        self.assertions.push(assertion);
        self.revision += 1;
        Ok(idx)
    }

    /// Number of assertions held.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// Is the engine empty?
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// The assertions (read-only).
    pub fn assertions(&self) -> &[Assertion] {
        &self.assertions
    }

    /// Total complexity (AST node count) of all assertion conditions — used
    /// by the benchmarks to characterise policy cost.
    pub fn total_complexity(&self) -> usize {
        self.assertions
            .iter()
            .map(|a| a.conditions.complexity())
            .sum()
    }

    /// Evaluate a request made by `requesters` for an action described by
    /// `env`.
    pub fn query<A: Attributes + ?Sized>(
        &self,
        requesters: &[Principal],
        env: &A,
    ) -> Result<Decision> {
        // The Allow decision itself never rests on the 64-bit fingerprint:
        // root support is tracked through the full-string `is_policy_root`
        // check (on the handful of requesters and fired assertions, not in
        // the hot membership tests), so an fp64 collision with
        // POLICY_ROOT_FP cannot forge an authorisation.
        if requesters.iter().any(|p| p.is_policy_root()) {
            return Ok(Decision::Allow {
                used_assertions: Vec::new(),
            });
        }
        let mut used: Vec<usize> = Vec::new();
        let mut root_supported = self.fire(&self.vacuous, requesters, env, &mut used)?;
        for requester in requesters {
            if root_supported {
                break;
            }
            root_supported = self.wake(requester.fingerprint(), requesters, env, &mut used)?;
        }
        // `used` doubles as the worklist: the principals that became
        // supported are exactly the authorizers of the fired assertions.
        let mut next = 0;
        while !root_supported && next < used.len() {
            let supported = self.assertions[used[next]].authorizer.fingerprint();
            next += 1;
            root_supported = self.wake(supported, requesters, env, &mut used)?;
        }
        Ok(if root_supported {
            Decision::Allow {
                used_assertions: used,
            }
        } else {
            Decision::Deny
        })
    }

    /// Fire what `supported` becoming supported makes fireable; see
    /// [`PolicyEngine::fire`].
    fn wake<A: Attributes + ?Sized>(
        &self,
        supported: u64,
        requesters: &[Principal],
        env: &A,
        used: &mut Vec<usize>,
    ) -> Result<bool> {
        match self.by_licensee.get(&supported) {
            Some(woken) => self.fire(woken, requesters, env, used),
            None => Ok(false),
        }
    }

    /// Fire each of `woken` that can fire now, recording it in `used`.
    /// Returns `true` as soon as the policy root is supported. The support
    /// set is the requesters plus the authorizers of `used` — no longer
    /// than the delegation chain, so membership is a scan of those few
    /// fingerprints rather than a set.
    fn fire<A: Attributes + ?Sized>(
        &self,
        woken: &[usize],
        requesters: &[Principal],
        env: &A,
        used: &mut Vec<usize>,
    ) -> Result<bool> {
        for &idx in woken {
            let assertion = &self.assertions[idx];
            let supports = |fp: u64| {
                requesters.iter().any(|p| p.fingerprint() == fp)
                    || used
                        .iter()
                        .any(|&u| self.assertions[u].authorizer.fingerprint() == fp)
            };
            // Already supported (which covers "already fired"): firing it
            // adds nothing.
            if supports(assertion.authorizer.fingerprint())
                || !assertion.licensees.satisfied_by(&supports)
                || !evaluate(&assertion.conditions, env, self.missing_attr)?
            {
                continue;
            }
            used.push(idx);
            if assertion.authorizer.is_policy_root() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The textbook fixpoint the worklist replaced — scan every assertion
    /// until a pass adds nothing — kept as the oracle the differential
    /// test compares [`PolicyEngine::query`] against.
    #[cfg(test)]
    fn query_naive<A: Attributes + ?Sized>(
        &self,
        requesters: &[Principal],
        env: &A,
    ) -> Result<Decision> {
        use std::collections::HashSet;
        let mut support: HashSet<u64> = requesters.iter().map(|p| p.fingerprint()).collect();
        let mut root_supported = requesters.iter().any(|p| p.is_policy_root());
        let mut used: Vec<usize> = Vec::new();
        let mut fired: HashSet<usize> = HashSet::new();
        loop {
            let mut progressed = false;
            for (idx, assertion) in self.assertions.iter().enumerate() {
                if fired.contains(&idx)
                    || support.contains(&assertion.authorizer.fingerprint())
                    || !assertion
                        .licensees
                        .satisfied_by(&|fp| support.contains(&fp))
                    || !evaluate(&assertion.conditions, env, self.missing_attr)?
                {
                    continue;
                }
                support.insert(assertion.authorizer.fingerprint());
                if assertion.authorizer.is_policy_root() {
                    root_supported = true;
                }
                fired.insert(idx);
                used.push(idx);
                progressed = true;
            }
            if root_supported {
                return Ok(Decision::Allow {
                    used_assertions: used,
                });
            }
            if !progressed {
                return Ok(Decision::Deny);
            }
        }
    }

    /// Convenience wrapper returning a plain boolean (errors count as deny).
    pub fn is_allowed<A: Attributes + ?Sized>(&self, requesters: &[Principal], env: &A) -> bool {
        matches!(self.query(requesters, env), Ok(d) if d.is_allowed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::LicenseeExpr;
    use crate::attr::Environment;

    fn alice() -> Principal {
        Principal::from_key("alice", b"alice-key")
    }
    fn bob() -> Principal {
        Principal::from_key("bob", b"bob-key")
    }
    fn vendor() -> Principal {
        Principal::from_key("vendor", b"vendor-key")
    }

    fn call_env(module: &str, function: &str, uid: i64) -> Environment {
        Environment::for_smod_call("app", module, 1, function, uid)
    }

    #[test]
    fn empty_engine_denies_everything() {
        let engine = PolicyEngine::new();
        assert!(!engine.is_allowed(&[alice()], &call_env("libc", "malloc", 1000)));
        assert!(engine.is_empty());
    }

    #[test]
    fn direct_policy_grant() {
        let mut engine = PolicyEngine::new();
        engine
            .add_assertion(
                Assertion::policy(
                    LicenseeExpr::Single(alice()),
                    "module == \"libc\" && uid >= 1000",
                )
                .unwrap(),
            )
            .unwrap();

        assert!(engine.is_allowed(&[alice()], &call_env("libc", "malloc", 1000)));
        // Wrong module, wrong uid, or wrong principal → deny.
        assert!(!engine.is_allowed(&[alice()], &call_env("libm", "sin", 1000)));
        assert!(!engine.is_allowed(&[alice()], &call_env("libc", "malloc", 0)));
        assert!(!engine.is_allowed(&[bob()], &call_env("libc", "malloc", 1000)));
    }

    #[test]
    fn always_allow_policy_matches_paper_baseline() {
        // §5: the measured configuration is the trivial "always allowed"
        // policy — an empty condition.
        let mut engine = PolicyEngine::new();
        engine
            .add_assertion(Assertion::policy(LicenseeExpr::Single(alice()), "").unwrap())
            .unwrap();
        assert!(engine.is_allowed(&[alice()], &Environment::new()));
        assert!(!engine.is_allowed(&[bob()], &Environment::new()));
    }

    #[test]
    fn delegation_chain() {
        // POLICY trusts the vendor for libcrypto; the vendor licenses alice.
        let mut engine = PolicyEngine::new();
        engine.register_key(&vendor(), b"vendor-key");
        engine
            .add_assertion(
                Assertion::policy(LicenseeExpr::Single(vendor()), "module == \"libcrypto\"")
                    .unwrap(),
            )
            .unwrap();
        engine
            .add_assertion(
                Assertion::delegation(
                    vendor(),
                    LicenseeExpr::Single(alice()),
                    "function != \"set_key\"",
                )
                .unwrap()
                .sign(b"vendor-key"),
            )
            .unwrap();

        // Alice can call ordinary functions of libcrypto…
        let d = engine
            .query(&[alice()], &call_env("libcrypto", "aes_encrypt", 1000))
            .unwrap();
        assert!(d.is_allowed());
        if let Decision::Allow { used_assertions } = d {
            assert_eq!(used_assertions.len(), 2);
        }
        // …but not the function the vendor excluded, and not other modules.
        assert!(!engine.is_allowed(&[alice()], &call_env("libcrypto", "set_key", 1000)));
        assert!(!engine.is_allowed(&[alice()], &call_env("libc", "malloc", 1000)));
        // Bob has no delegation.
        assert!(!engine.is_allowed(&[bob()], &call_env("libcrypto", "aes_encrypt", 1000)));
    }

    #[test]
    fn unsigned_or_badly_signed_delegations_are_rejected_at_insert() {
        let mut engine = PolicyEngine::new();
        engine.register_key(&vendor(), b"vendor-key");
        let unsigned =
            Assertion::delegation(vendor(), LicenseeExpr::Single(alice()), "true").unwrap();
        assert!(engine.add_assertion(unsigned).is_err());

        // Signed under another key, or altered after signing: each is
        // refused by the one schedule `register_key` made.
        let signed = Assertion::delegation(vendor(), LicenseeExpr::Single(alice()), "uid == 1")
            .unwrap()
            .sign(b"vendor-key");
        let other_key = Assertion::delegation(vendor(), LicenseeExpr::Single(alice()), "uid == 1")
            .unwrap()
            .sign(b"not-the-vendor-key");
        let mut conditions = signed.clone();
        conditions.conditions = crate::parser::parse("true").unwrap();
        let mut licensee = signed.clone();
        licensee.licensees = LicenseeExpr::Single(bob());
        for (case, badly_signed) in [
            ("key", other_key),
            ("conditions", conditions),
            ("licensee", licensee),
        ] {
            assert!(
                matches!(
                    engine.add_assertion(badly_signed),
                    Err(crate::PolicyError::BadSignature { ref authorizer }) if authorizer == "vendor"
                ),
                "a delegation with another {case} was admitted"
            );
        }

        // Unknown authorizer key.
        let unknown = Assertion::delegation(bob(), LicenseeExpr::Single(alice()), "true")
            .unwrap()
            .sign(b"bob-key");
        assert!(engine.add_assertion(unknown).is_err());
        assert_eq!(engine.len(), 0);
        // The untouched original still verifies against the same schedule.
        assert_eq!(engine.add_assertion(signed).unwrap(), 0);
    }

    #[test]
    fn threshold_delegation_requires_quorum() {
        // POLICY requires two of three auditors to co-sign for the sensitive
        // module (the "certified users" scenario of §1).
        let auditors: Vec<Principal> = (0..3)
            .map(|i| Principal::from_key(&format!("auditor{i}"), format!("ak{i}").as_bytes()))
            .collect();
        let mut engine = PolicyEngine::new();
        engine
            .add_assertion(
                Assertion::policy(
                    LicenseeExpr::Threshold {
                        k: 2,
                        of: auditors.iter().cloned().map(LicenseeExpr::Single).collect(),
                    },
                    "module == \"libfirewall\"",
                )
                .unwrap(),
            )
            .unwrap();

        let env = call_env("libfirewall", "reload_rules", 0);
        assert!(!engine.is_allowed(&[auditors[0].clone()], &env));
        assert!(engine.is_allowed(&[auditors[0].clone(), auditors[2].clone()], &env));
    }

    #[test]
    fn cyclic_delegations_terminate() {
        // alice delegates to bob, bob delegates to alice; neither reaches
        // POLICY, and the fixpoint must terminate with a denial.
        let mut engine = PolicyEngine::new();
        engine.register_key(&alice(), b"alice-key");
        engine.register_key(&bob(), b"bob-key");
        engine
            .add_assertion(
                Assertion::delegation(alice(), LicenseeExpr::Single(bob()), "true")
                    .unwrap()
                    .sign(b"alice-key"),
            )
            .unwrap();
        engine
            .add_assertion(
                Assertion::delegation(bob(), LicenseeExpr::Single(alice()), "true")
                    .unwrap()
                    .sign(b"bob-key"),
            )
            .unwrap();
        assert!(!engine.is_allowed(&[alice()], &Environment::new()));
    }

    #[test]
    fn revision_bumps_on_every_invalidating_mutation() {
        let mut engine = PolicyEngine::new();
        assert_eq!(engine.revision(), 0);
        // A key alone changes no decision: nothing it verifies is stored yet.
        engine.register_key(&vendor(), b"vendor-key");
        assert_eq!(engine.revision(), 0);
        engine
            .add_assertion(Assertion::policy(LicenseeExpr::Single(alice()), "").unwrap())
            .unwrap();
        assert_eq!(engine.revision(), 1);
        // A rejected assertion changes nothing and must not bump.
        let unsigned =
            Assertion::delegation(vendor(), LicenseeExpr::Single(alice()), "true").unwrap();
        assert!(engine.add_assertion(unsigned).is_err());
        assert_eq!(engine.revision(), 1);
    }

    #[test]
    fn total_complexity_reflects_conditions() {
        let mut engine = PolicyEngine::new();
        engine
            .add_assertion(
                Assertion::policy(LicenseeExpr::Single(alice()), "uid == 1 && module == \"m\"")
                    .unwrap(),
            )
            .unwrap();
        assert_eq!(engine.total_complexity(), 3);
    }

    #[test]
    fn multi_hop_delegation_chain() {
        // POLICY → vendor → distributor → alice, three hops.
        let distributor = Principal::from_key("distributor", b"dist-key");
        let mut engine = PolicyEngine::new();
        engine.register_key(&vendor(), b"vendor-key");
        engine.register_key(&distributor, b"dist-key");
        engine
            .add_assertion(Assertion::policy(LicenseeExpr::Single(vendor()), "").unwrap())
            .unwrap();
        engine
            .add_assertion(
                Assertion::delegation(vendor(), LicenseeExpr::Single(distributor.clone()), "")
                    .unwrap()
                    .sign(b"vendor-key"),
            )
            .unwrap();
        engine
            .add_assertion(
                Assertion::delegation(distributor, LicenseeExpr::Single(alice()), "uid < 2000")
                    .unwrap()
                    .sign(b"dist-key"),
            )
            .unwrap();
        assert!(engine.is_allowed(&[alice()], &call_env("libc", "malloc", 1000)));
        assert!(!engine.is_allowed(&[alice()], &call_env("libc", "malloc", 5000)));
    }

    #[test]
    fn vacuous_licensees_fire_without_any_supporter() {
        // Nobody has to support `All([])` or a zero threshold, so no
        // principal ever wakes such an assertion: the query must start
        // with it, even for an empty requester list.
        for licensees in [
            LicenseeExpr::All(vec![]),
            LicenseeExpr::Threshold {
                k: 0,
                of: vec![LicenseeExpr::Single(bob())],
            },
        ] {
            let mut engine = PolicyEngine::new();
            engine
                .add_assertion(Assertion::policy(licensees, "uid >= 1000").unwrap())
                .unwrap();
            assert!(engine.is_allowed(&[alice()], &call_env("libc", "malloc", 1000)));
            assert!(engine.is_allowed(&[], &call_env("libc", "malloc", 1000)));
            assert!(!engine.is_allowed(&[alice()], &call_env("libc", "malloc", 0)));
        }
    }

    #[test]
    fn strict_mode_errors_only_where_the_derivation_reaches() {
        // Alice is granted by assertion 0; assertion 1 also names her but
        // reads an attribute the environment lacks. The query stops once
        // POLICY is supported, so assertion 1 is not evaluated and its
        // error is not raised — a full pass over the assertions did
        // evaluate it, and failed the whole query.
        let mut engine = PolicyEngine::new();
        engine.missing_attr = MissingAttr::Strict;
        engine.register_key(&bob(), b"bob-key");
        engine
            .add_assertion(Assertion::policy(LicenseeExpr::Single(alice()), "uid == 1000").unwrap())
            .unwrap();
        engine
            .add_assertion(
                Assertion::delegation(bob(), LicenseeExpr::Single(alice()), "nonexistent == 1")
                    .unwrap()
                    .sign(b"bob-key"),
            )
            .unwrap();
        let env = call_env("libc", "malloc", 1000);
        assert!(engine.query(&[alice()], &env).unwrap().is_allowed());
        assert!(engine.query_naive(&[alice()], &env).is_err());

        // An error in an assertion the derivation does reach propagates
        // (and counts as a denial through `is_allowed`).
        engine
            .add_assertion(
                Assertion::policy(LicenseeExpr::Single(vendor()), "nonexistent == 1").unwrap(),
            )
            .unwrap();
        assert!(engine.query(&[vendor()], &env).is_err());
        assert!(engine.query_naive(&[vendor()], &env).is_err());
        assert!(!engine.is_allowed(&[vendor()], &env));
    }

    /// The principals the differential test draws from (index 0 is the
    /// policy root).
    fn pool() -> Vec<(Principal, Vec<u8>)> {
        std::iter::once((Principal::policy_root(), Vec::new()))
            .chain((0..6).map(|i| {
                let key = format!("pool-key-{i}").into_bytes();
                (Principal::from_key(&format!("p{i}"), &key), key)
            }))
            .collect()
    }

    fn random_licensees(
        rng: &mut proptest::TestRng,
        pool: &[(Principal, Vec<u8>)],
        depth: u32,
    ) -> LicenseeExpr {
        let parts = |rng: &mut proptest::TestRng| -> Vec<LicenseeExpr> {
            (0..rng.below(4))
                .map(|_| random_licensees(rng, pool, depth + 1))
                .collect()
        };
        match if depth >= 2 { 0 } else { rng.below(6) } {
            0..=2 => LicenseeExpr::Single(pool[1 + rng.below(6) as usize].0.clone()),
            3 => LicenseeExpr::All(parts(rng)),
            4 => LicenseeExpr::Any(parts(rng)),
            _ => {
                let of = parts(rng);
                LicenseeExpr::Threshold {
                    k: rng.below(of.len() as u128 + 2) as usize,
                    of,
                }
            }
        }
    }

    /// `used` must read as a derivation: in order, each assertion's
    /// licensees are satisfied by the requesters plus the authorizers
    /// before it, its conditions hold, it is new, and at the end the
    /// policy root is supported.
    fn assert_valid_derivation(
        engine: &PolicyEngine,
        requesters: &[Principal],
        env: &Environment,
        used: &[usize],
    ) {
        let mut support: Vec<u64> = requesters.iter().map(|p| p.fingerprint()).collect();
        let mut root = requesters.iter().any(|p| p.is_policy_root());
        for (n, &idx) in used.iter().enumerate() {
            let a = &engine.assertions()[idx];
            assert!(!used[..n].contains(&idx), "assertion {idx} fired twice");
            assert!(a.licensees.satisfied_by(&|fp| support.contains(&fp)));
            assert!(evaluate(&a.conditions, env, engine.missing_attr).unwrap());
            support.push(a.authorizer.fingerprint());
            root |= a.authorizer.is_policy_root();
        }
        assert!(root, "derivation {used:?} does not reach POLICY");
    }

    #[test]
    fn worklist_agrees_with_the_naive_fixpoint() {
        // Conditions that hold, fail, or read a missing attribute
        // (fail-closed) in `env`; none can raise an error, so the two
        // evaluation orders must give the same answer.
        const CONDITIONS: [&str; 7] = [
            "",
            "false",
            "uid >= 1000",
            "uid < 1000",
            "module == \"libc\"",
            "module == \"libm\" || !(missing == 1)",
            "missing == 1",
        ];
        let env = call_env("libc", "malloc", 1000);
        let pool = pool();
        let mut rng = proptest::TestRng::from_name("worklist_agrees_with_the_naive_fixpoint");
        let (mut allows, mut denies, mut multi_hop) = (0, 0, 0);
        for _ in 0..2000 {
            let mut engine = PolicyEngine::new();
            for (principal, key) in &pool[1..] {
                engine.register_key(principal, key);
            }
            for _ in 0..rng.below(14) {
                // Authorizers among the licensees make delegation cycles.
                let (authorizer, key) = &pool[rng.below(pool.len() as u128) as usize];
                let assertion = Assertion::delegation(
                    authorizer.clone(),
                    random_licensees(&mut rng, &pool, 0),
                    CONDITIONS[rng.below(CONDITIONS.len() as u128) as usize],
                )
                .unwrap()
                .sign(key);
                engine.add_assertion(assertion).unwrap();
            }
            // Zero to three requesters; one case in sixteen draws POLICY.
            let requesters: Vec<Principal> = (0..rng.below(4))
                .map(|_| {
                    let i = if rng.below(16) == 0 {
                        0
                    } else {
                        1 + rng.below(6)
                    };
                    pool[i as usize].0.clone()
                })
                .collect();

            let fast = engine.query(&requesters, &env).unwrap();
            let naive = engine.query_naive(&requesters, &env).unwrap();
            assert_eq!(
                fast.is_allowed(),
                naive.is_allowed(),
                "requesters {requesters:?} over {:#?}",
                engine.assertions()
            );
            match (&fast, &naive) {
                (Decision::Allow { used_assertions }, Decision::Allow { used_assertions: n }) => {
                    assert_valid_derivation(&engine, &requesters, &env, used_assertions);
                    assert_valid_derivation(&engine, &requesters, &env, n);
                    allows += 1;
                    multi_hop += usize::from(used_assertions.len() > 1);
                }
                _ => denies += 1,
            }
        }
        // The generator must exercise both answers and real chains.
        assert!(
            allows > 200 && denies > 200 && multi_hop > 50,
            "allows {allows}, denies {denies}, multi-hop {multi_hop}"
        );
    }
}
