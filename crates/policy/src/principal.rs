//! Principals: the parties that issue and are named by assertions.

use secmod_crypto::sha256::{to_hex, Sha256};
use serde::{Deserialize, Serialize};

/// A principal: a named party identified by key material.
///
/// In KeyNote a principal is a public key; here the "key" is an opaque byte
/// string whose SHA-256 fingerprint identifies the principal, and signatures
/// are HMACs under that byte string (a symmetric stand-in that keeps the
/// simulation self-contained).
///
/// Both identities — the hex fingerprint and its 64-bit digest `fp64` — are
/// computed **once, at construction** ([`Principal::from_key`]); no hashing
/// happens per decision. Hot paths (`PolicyEngine::query`'s support-set
/// membership, the decision cache key) compare the precomputed
/// [`Principal::fingerprint`] value only.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Principal {
    /// Human-readable name (unique within a policy domain).
    pub name: String,
    /// Hex fingerprint of the principal's key material. Crate-visible only
    /// so the `fp64` invariant below cannot be broken by field mutation;
    /// external readers compare the derived [`Principal::fingerprint`].
    pub(crate) fingerprint: String,
    /// Precomputed 64-bit digest of `fingerprint`, used as the hot-path
    /// identity in `PolicyEngine::query` and as a cache-key component so
    /// callers never re-hash key material per decision.
    ///
    /// Invariant: `fp64 == fp64_of(fingerprint)`, enforced by keeping both
    /// fields non-public — construction goes through
    /// `from_key`/`policy_root`. The vendored serde shim derives are
    /// marker-only (nothing deserializes); when swapping in real serde,
    /// this field must be `#[serde(skip)]` and recomputed from
    /// `fingerprint` on deserialize, never accepted from input, or a
    /// forged `fp64` could impersonate another principal in `query`.
    fp64: u64,
}

/// FNV-1a over a byte string; `const` so the policy root's fingerprint is a
/// compile-time constant.
const fn fp64_of(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(0x100_0000_01b3);
        i += 1;
    }
    h
}

impl Principal {
    /// The 64-bit fingerprint of the distinguished policy root.
    pub const POLICY_ROOT_FP: u64 = fp64_of(b"POLICY");

    /// The distinguished policy root (KeyNote's `POLICY` authorizer).
    pub fn policy_root() -> Principal {
        Principal {
            name: "POLICY".to_string(),
            fingerprint: "POLICY".to_string(),
            fp64: Principal::POLICY_ROOT_FP,
        }
    }

    /// Create a principal from a name and key material.
    pub fn from_key(name: &str, key_material: &[u8]) -> Principal {
        let fingerprint = to_hex(&Sha256::digest(key_material));
        let fp64 = fp64_of(fingerprint.as_bytes());
        Principal {
            name: name.to_string(),
            fingerprint,
            fp64,
        }
    }

    /// The precomputed 64-bit fingerprint: a cheap, stable identity derived
    /// from the hex fingerprint at construction time (a field read — no
    /// per-call hashing). This is what the compliance checker and the
    /// decision cache key on.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fp64
    }

    /// Is this the policy root?
    #[must_use]
    pub fn is_policy_root(&self) -> bool {
        self.fingerprint == "POLICY"
    }
}

impl std::fmt::Display for Principal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_policy_root() {
            write!(f, "POLICY")
        } else {
            write!(
                f,
                "{}[{}]",
                self.name,
                &self.fingerprint[..8.min(self.fingerprint.len())]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_root_is_special() {
        let root = Principal::policy_root();
        assert!(root.is_policy_root());
        assert_eq!(root.to_string(), "POLICY");
    }

    #[test]
    fn from_key_fingerprints_are_stable_and_distinct() {
        let a1 = Principal::from_key("alice", b"alice-key");
        let a2 = Principal::from_key("alice", b"alice-key");
        let b = Principal::from_key("bob", b"bob-key");
        assert_eq!(a1, a2);
        assert_ne!(a1.fingerprint, b.fingerprint);
        assert!(!a1.is_policy_root());
    }

    #[test]
    fn fingerprint64_is_precomputed_and_distinct() {
        let a = Principal::from_key("alice", b"alice-key");
        let b = Principal::from_key("bob", b"bob-key");
        assert_eq!(
            a.fingerprint(),
            Principal::from_key("x", b"alice-key").fingerprint()
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            Principal::policy_root().fingerprint(),
            Principal::POLICY_ROOT_FP
        );
        assert_ne!(a.fingerprint(), Principal::POLICY_ROOT_FP);
    }

    #[test]
    fn same_name_different_keys_are_different_principals() {
        let a = Principal::from_key("svc", b"key-1");
        let b = Principal::from_key("svc", b"key-2");
        assert_ne!(a, b);
    }

    #[test]
    fn display_includes_name_and_fingerprint_prefix() {
        let a = Principal::from_key("alice", b"k");
        let s = a.to_string();
        assert!(s.starts_with("alice["));
    }
}
