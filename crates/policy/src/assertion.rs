//! KeyNote-style assertions.
//!
//! An assertion states: *authorizer* delegates authority over actions
//! satisfying *conditions* to the principals matching the *licensees*
//! expression.  Policy assertions (authorizer = `POLICY`) are the roots of
//! trust; all other assertions must be signed by their authorizer.

use crate::ast::Expr;
use crate::parser::parse;
use crate::principal::Principal;
use crate::{PolicyError, Result};
use secmod_crypto::hmac::HmacSha256;

/// A licensee expression: which principals (or combinations) are being
/// delegated to.
#[derive(Clone, Debug, PartialEq)]
pub enum LicenseeExpr {
    /// A single principal.
    Single(Principal),
    /// All sub-expressions must be satisfied.
    All(Vec<LicenseeExpr>),
    /// Any sub-expression suffices.
    Any(Vec<LicenseeExpr>),
    /// At least `k` of the sub-expressions must be satisfied
    /// (KeyNote's threshold construct).
    Threshold {
        /// Minimum number of satisfied sub-expressions.
        k: usize,
        /// The sub-expressions.
        of: Vec<LicenseeExpr>,
    },
}

impl LicenseeExpr {
    /// Is this expression satisfied when `supports` says which principals
    /// (identified by their precomputed 64-bit fingerprints) are in the
    /// support set? A predicate rather than a set type, so the compliance
    /// checker can answer from the few fingerprints it holds without
    /// building a set. There is no negation: growing the support set never
    /// un-satisfies an expression.
    pub fn satisfied_by(&self, supports: &impl Fn(u64) -> bool) -> bool {
        match self {
            LicenseeExpr::Single(p) => supports(p.fingerprint()),
            LicenseeExpr::All(parts) => parts.iter().all(|p| p.satisfied_by(supports)),
            LicenseeExpr::Any(parts) => parts.iter().any(|p| p.satisfied_by(supports)),
            LicenseeExpr::Threshold { k, of } => {
                of.iter().filter(|p| p.satisfied_by(supports)).count() >= *k
            }
        }
    }

    /// Every principal mentioned anywhere in the expression.
    pub fn principals(&self) -> Vec<&Principal> {
        match self {
            LicenseeExpr::Single(p) => vec![p],
            LicenseeExpr::All(parts) | LicenseeExpr::Any(parts) => {
                parts.iter().flat_map(|p| p.principals()).collect()
            }
            LicenseeExpr::Threshold { of, .. } => of.iter().flat_map(|p| p.principals()).collect(),
        }
    }
}

/// A trust assertion.
#[derive(Clone, Debug, PartialEq)]
pub struct Assertion {
    /// The principal granting authority (or the policy root).
    pub authorizer: Principal,
    /// Who the authority is granted to.
    pub licensees: LicenseeExpr,
    /// The conditions under which the grant applies.
    pub conditions: Expr,
    /// Free-text comment (KeyNote's `Comment:` field).
    pub comment: String,
    /// HMAC signature over the canonical form, keyed by the authorizer's key
    /// material.  Policy assertions are unsigned (locally trusted).
    pub signature: Option<[u8; 32]>,
}

impl Assertion {
    /// Create an unsigned policy assertion (authorizer = POLICY).
    pub fn policy(licensees: LicenseeExpr, conditions_src: &str) -> Result<Assertion> {
        Ok(Assertion {
            authorizer: Principal::policy_root(),
            licensees,
            conditions: parse(conditions_src)?,
            comment: String::new(),
            signature: None,
        })
    }

    /// Create an assertion by a non-root authorizer; it must be signed with
    /// [`Assertion::sign`] before the engine will honour it.
    pub fn delegation(
        authorizer: Principal,
        licensees: LicenseeExpr,
        conditions_src: &str,
    ) -> Result<Assertion> {
        Ok(Assertion {
            authorizer,
            licensees,
            conditions: parse(conditions_src)?,
            comment: String::new(),
            signature: None,
        })
    }

    /// Attach a comment.
    pub fn with_comment(mut self, comment: &str) -> Assertion {
        self.comment = comment.to_string();
        self
    }

    /// The canonical byte string that is signed.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.authorizer.fingerprint.as_bytes());
        out.push(0);
        for p in self.licensees.principals() {
            out.extend_from_slice(p.fingerprint.as_bytes());
            out.push(0);
        }
        out.extend_from_slice(self.conditions.to_string().as_bytes());
        out
    }

    /// Sign the assertion with the authorizer's key material.
    pub fn sign(mut self, authorizer_key: &[u8]) -> Assertion {
        let tag = HmacSha256::mac(authorizer_key, &self.canonical_bytes());
        self.signature = Some(tag);
        self
    }

    /// Verify the signature with the claimed authorizer's key material.
    /// Policy assertions (no signature required) always verify.
    pub fn verify(&self, authorizer_key: &[u8]) -> Result<()> {
        if self.authorizer.is_policy_root() {
            return Ok(());
        }
        match self.signature {
            Some(sig) if HmacSha256::verify(authorizer_key, &self.canonical_bytes(), &sig) => {
                Ok(())
            }
            _ => Err(PolicyError::BadSignature {
                authorizer: self.authorizer.name.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn fp(p: &Principal) -> u64 {
        p.fingerprint()
    }

    fn satisfied(expr: &LicenseeExpr, sup: &HashSet<u64>) -> bool {
        expr.satisfied_by(&|fp| sup.contains(&fp))
    }

    #[test]
    fn licensee_single_and_sets() {
        let alice = Principal::from_key("alice", b"a");
        let bob = Principal::from_key("bob", b"b");
        let carol = Principal::from_key("carol", b"c");

        let expr = LicenseeExpr::Any(vec![
            LicenseeExpr::Single(alice.clone()),
            LicenseeExpr::All(vec![
                LicenseeExpr::Single(bob.clone()),
                LicenseeExpr::Single(carol.clone()),
            ]),
        ]);

        let mut sup: HashSet<u64> = HashSet::new();
        assert!(!satisfied(&expr, &sup));
        sup.insert(fp(&bob));
        assert!(!satisfied(&expr, &sup));
        sup.insert(fp(&carol));
        assert!(satisfied(&expr, &sup));
        sup.clear();
        sup.insert(fp(&alice));
        assert!(satisfied(&expr, &sup));
        assert_eq!(expr.principals().len(), 3);
    }

    #[test]
    fn threshold_licensees() {
        let ps: Vec<Principal> = (0..5)
            .map(|i| Principal::from_key(&format!("p{i}"), format!("k{i}").as_bytes()))
            .collect();
        let expr = LicenseeExpr::Threshold {
            k: 3,
            of: ps.iter().cloned().map(LicenseeExpr::Single).collect(),
        };
        let mut sup: HashSet<u64> = HashSet::new();
        sup.insert(fp(&ps[0]));
        sup.insert(fp(&ps[1]));
        assert!(!satisfied(&expr, &sup));
        sup.insert(fp(&ps[4]));
        assert!(satisfied(&expr, &sup));
    }

    #[test]
    fn policy_assertion_needs_no_signature() {
        let alice = Principal::from_key("alice", b"a");
        let a = Assertion::policy(LicenseeExpr::Single(alice), "uid == 1000").unwrap();
        assert!(a.verify(b"irrelevant").is_ok());
        assert!(a.signature.is_none());
    }

    #[test]
    fn delegation_signature_roundtrip() {
        let vendor = Principal::from_key("vendor", b"vendor-key");
        let client = Principal::from_key("client", b"client-key");
        let a = Assertion::delegation(
            vendor.clone(),
            LicenseeExpr::Single(client),
            "module == \"libcrypto\"",
        )
        .unwrap()
        .with_comment("vendor licenses the client app")
        .sign(b"vendor-key");

        assert!(a.verify(b"vendor-key").is_ok());
        assert!(a.verify(b"wrong-key").is_err());

        // Unsigned delegation never verifies.
        let unsigned = Assertion::delegation(
            vendor,
            LicenseeExpr::Single(Principal::from_key("x", b"x")),
            "true",
        )
        .unwrap();
        assert!(unsigned.verify(b"vendor-key").is_err());
    }

    #[test]
    fn signature_covers_conditions_and_licensees() {
        let vendor = Principal::from_key("vendor", b"vendor-key");
        let client = Principal::from_key("client", b"client-key");
        let signed = Assertion::delegation(
            vendor.clone(),
            LicenseeExpr::Single(client.clone()),
            "uid == 1",
        )
        .unwrap()
        .sign(b"vendor-key");

        // Tampering with the conditions invalidates the signature.
        let mut tampered = signed.clone();
        tampered.conditions = parse("true").unwrap();
        assert!(tampered.verify(b"vendor-key").is_err());

        // Tampering with the licensees invalidates the signature.
        let mut tampered = signed;
        tampered.licensees = LicenseeExpr::Single(Principal::from_key("mallory", b"m"));
        assert!(tampered.verify(b"vendor-key").is_err());
    }

    #[test]
    fn invalid_condition_text_is_rejected() {
        let alice = Principal::from_key("alice", b"a");
        assert!(Assertion::policy(LicenseeExpr::Single(alice), "uid ==").is_err());
    }
}
