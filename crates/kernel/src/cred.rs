//! Process credentials: the Unix identity plus the SecModule credential
//! blobs a client presents when requesting module access.

use secmod_policy::principal::Principal;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The credential attached to a process.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Credential {
    /// Effective user id.
    pub uid: u32,
    /// Effective group id.
    pub gid: u32,
    /// Supplementary groups.
    pub groups: Vec<u32>,
    /// Per-module SecModule credentials: module name → the policy
    /// principal the process acts as for that module. (The paper: the
    /// objects "that hold the name and version of the needed SecModules,
    /// as well as the credentials that allow access to it are linked in"
    /// to the client executable.) The principal is derived from the key
    /// material once, at attach time, so the per-call check never
    /// re-hashes it.
    smod_principals: BTreeMap<String, Principal>,
}

impl Credential {
    /// Root credentials.
    pub fn root() -> Credential {
        Credential {
            uid: 0,
            gid: 0,
            groups: Vec::new(),
            smod_principals: BTreeMap::new(),
        }
    }

    /// An ordinary user credential.
    pub fn user(uid: u32, gid: u32) -> Credential {
        Credential {
            uid,
            gid,
            groups: Vec::new(),
            smod_principals: BTreeMap::new(),
        }
    }

    /// Attach a SecModule credential for `module` (builder style). The
    /// policy principal is derived (SHA-256 of the key material) here,
    /// once, not on every access check.
    pub fn with_smod_credential(mut self, module: &str, key_material: &[u8]) -> Credential {
        self.smod_principals.insert(
            module.to_string(),
            Principal::from_key(&format!("uid{}", self.uid), key_material),
        );
        self
    }

    /// The policy principal this credential identifies for `module`
    /// (derived from the credential key material at attach time), if
    /// present.
    pub fn principal_for(&self, module: &str) -> Option<Principal> {
        self.smod_principals.get(module).cloned()
    }

    /// The 64-bit fingerprint of the principal this credential presents
    /// for `module`, without cloning the principal. The dispatch hot path
    /// compares this against the session's memoised prototype to verify —
    /// on every call, allocation-free — that the live credential still
    /// identifies the principal the session was established with.
    pub fn principal_fp64(&self, module: &str) -> Option<u64> {
        self.smod_principals.get(module).map(|p| p.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let c = Credential::user(1000, 100).with_smod_credential("libc", b"alice-key");
        assert_eq!(c.uid, 1000);
        assert!(c.principal_for("libc").is_some());
        assert!(c.principal_for("libm").is_none());
        assert!(Credential::root().principal_for("libc").is_none());
    }

    #[test]
    fn principal_is_derived_from_key_material_not_name() {
        let a = Credential::user(1000, 100).with_smod_credential("libc", b"key-1");
        let b = Credential::user(1000, 100).with_smod_credential("libc", b"key-2");
        let pa = a.principal_for("libc").unwrap();
        let pb = b.principal_for("libc").unwrap();
        assert_ne!(pa.fingerprint(), pb.fingerprint());
        assert!(a.principal_for("libm").is_none());
        // Same key material → same principal, regardless of uid label.
        let c = Credential::user(2000, 100).with_smod_credential("libc", b"key-1");
        assert_eq!(
            a.principal_for("libc").unwrap().fingerprint(),
            c.principal_for("libc").unwrap().fingerprint()
        );
    }
}
