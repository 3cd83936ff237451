//! The coarse-grained Unix baseline the paper contrasts SecModule with:
//! "The current UNIX methods for access control is purely binary, and coarse
//! grain at that.  All access rights were associated with a specific login
//! ID" (§1, §2).
//!
//! This module models exactly that: a file-permission-style check on the
//! library as a whole (owner / group / other, read-execute bits), with no
//! per-function granularity, no conditions, and no revocation once linked.

use serde::{Deserialize, Serialize};

/// A numeric user id.
pub type Uid = u32;
/// A numeric group id.
pub type Gid = u32;

/// Classic `rwx`-style permission bits for owner/group/other, applied to a
/// library file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mode(pub u16);

impl Mode {
    /// Typical system library mode (`r-xr-xr-x`).
    pub const WORLD_EXEC: Mode = Mode(0o555);
    /// Owner-only (`r-x------`).
    pub const OWNER_ONLY: Mode = Mode(0o500);
    /// Owner and group (`r-xr-x---`).
    pub const OWNER_GROUP: Mode = Mode(0o550);

    fn class_bits(self, class: u8) -> u16 {
        // class: 0 = owner, 1 = group, 2 = other
        (self.0 >> (6 - 3 * class as u16)) & 0o7
    }
}

/// The credentials a process presents (its login identity).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnixCreds {
    /// Effective user id.
    pub uid: Uid,
    /// Effective group id.
    pub gid: Gid,
    /// Supplementary groups.
    pub groups: Vec<Gid>,
}

impl UnixCreds {
    /// Root credentials.
    pub fn root() -> UnixCreds {
        UnixCreds {
            uid: 0,
            gid: 0,
            groups: vec![],
        }
    }

    /// An ordinary user.
    pub fn user(uid: Uid, gid: Gid) -> UnixCreds {
        UnixCreds {
            uid,
            gid,
            groups: vec![],
        }
    }

    /// Does this credential include the group?
    fn in_group(&self, gid: Gid) -> bool {
        self.gid == gid || self.groups.contains(&gid)
    }
}

/// The Unix-style access description of a library file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnixPolicy {
    /// Owning user.
    pub owner: Uid,
    /// Owning group.
    pub group: Gid,
    /// Permission bits.
    pub mode: Mode,
}

impl UnixPolicy {
    /// Create a policy.
    pub fn new(owner: Uid, group: Gid, mode: Mode) -> UnixPolicy {
        UnixPolicy { owner, group, mode }
    }

    // surface: the Unix baseline the paper contrasts SecModule with; only tests draw the contrast
    /// Can a process with `creds` link against (read+execute) the library?
    ///
    /// This is the whole decision: binary, per-library, irrevocable once the
    /// library is mapped.  There is no notion of *which function* is called
    /// or under what conditions — the contrast the paper draws.
    pub fn can_link(&self, creds: &UnixCreds) -> bool {
        // Root bypasses permission checks entirely ("carte-blanche root
        // access", §1).
        if creds.uid == 0 {
            return true;
        }
        let class = if creds.uid == self.owner {
            0
        } else if creds.in_group(self.group) {
            1
        } else {
            2
        };
        let bits = self.mode.class_bits(class);
        // Need both read and execute to map a library.
        bits & 0o5 == 0o5
    }

    // surface: the Unix baseline the paper contrasts SecModule with; only tests draw the contrast
    /// Per-function access: always identical to [`UnixPolicy::can_link`] —
    /// the function name is ignored, illustrating the granularity gap.
    pub fn can_call(&self, creds: &UnixCreds, _function: &str) -> bool {
        self.can_link(creds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_executable_library_is_open_to_everyone() {
        let p = UnixPolicy::new(0, 0, Mode::WORLD_EXEC);
        assert!(p.can_link(&UnixCreds::root()));
        assert!(p.can_link(&UnixCreds::user(1000, 100)));
        assert!(p.can_call(&UnixCreds::user(1000, 100), "anything_at_all"));
    }

    #[test]
    fn owner_only_library() {
        let p = UnixPolicy::new(1000, 100, Mode::OWNER_ONLY);
        assert!(p.can_link(&UnixCreds::user(1000, 100)));
        assert!(!p.can_link(&UnixCreds::user(1001, 100)));
        assert!(!p.can_link(&UnixCreds::user(1001, 999)));
        // Root always can.
        assert!(p.can_link(&UnixCreds::root()));
    }

    #[test]
    fn group_access_including_supplementary_groups() {
        let p = UnixPolicy::new(1000, 500, Mode::OWNER_GROUP);
        assert!(p.can_link(&UnixCreds::user(1000, 1)));
        assert!(p.can_link(&UnixCreds::user(2000, 500)));
        let mut creds = UnixCreds::user(2000, 100);
        assert!(!p.can_link(&creds));
        creds.groups.push(500);
        assert!(p.can_link(&creds));
    }

    #[test]
    fn per_function_granularity_does_not_exist() {
        // The point of the baseline: once you can link, you can call *every*
        // function, including the dangerous ones.
        let p = UnixPolicy::new(0, 0, Mode::WORLD_EXEC);
        let user = UnixCreds::user(1000, 100);
        assert_eq!(
            p.can_call(&user, "harmless_query"),
            p.can_call(&user, "disable_firewall")
        );
    }

    #[test]
    fn mode_class_bits() {
        let m = Mode(0o754);
        assert_eq!(m.class_bits(0), 0o7);
        assert_eq!(m.class_bits(1), 0o5);
        assert_eq!(m.class_bits(2), 0o4);
    }
}
