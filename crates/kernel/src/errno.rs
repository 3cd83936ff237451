//! Error numbers, mirroring the subset of OpenBSD errnos the SecModule
//! syscalls return.

use serde::{Deserialize, Serialize};

/// A kernel error number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Errno {
    /// Operation not permitted.
    EPERM,
    /// No such file, module or function.
    ENOENT,
    /// No such process.
    ESRCH,
    /// Permission denied (credential or policy failure).
    EACCES,
    /// Bad address (fault while copying arguments).
    EFAULT,
    /// Invalid argument.
    EINVAL,
    /// Out of memory / address space.
    ENOMEM,
    /// Resource temporarily unavailable (would block).
    EAGAIN,
    /// Function not implemented.
    ENOSYS,
    /// No child processes.
    ECHILD,
    /// Identifier removed (session torn down or module deregistered).
    EIDRM,
    /// Object already exists.
    EEXIST,
    /// Device or resource busy (e.g. module still has sessions).
    EBUSY,
}

impl Errno {
    /// The numeric value (matching the traditional BSD numbering where it
    /// exists).
    pub fn code(self) -> i32 {
        match self {
            Errno::EPERM => 1,
            Errno::ENOENT => 2,
            Errno::ESRCH => 3,
            Errno::EACCES => 13,
            Errno::EFAULT => 14,
            Errno::EEXIST => 17,
            Errno::EBUSY => 16,
            Errno::EINVAL => 22,
            Errno::ENOMEM => 12,
            Errno::EAGAIN => 35,
            Errno::ENOSYS => 78,
            Errno::ECHILD => 10,
            Errno::EIDRM => 82,
        }
    }

    /// Every errno, in declaration order. Must list every variant — the
    /// `from_code_roundtrips_every_variant` test walks this array against
    /// a variant count derived from an exhaustive `match`, so adding a
    /// variant without extending this list fails the build's tests.
    pub const ALL: [Errno; 13] = [
        Errno::EPERM,
        Errno::ENOENT,
        Errno::ESRCH,
        Errno::EACCES,
        Errno::EFAULT,
        Errno::EEXIST,
        Errno::EBUSY,
        Errno::EINVAL,
        Errno::ENOMEM,
        Errno::EAGAIN,
        Errno::ENOSYS,
        Errno::ECHILD,
        Errno::EIDRM,
    ];

    /// Inverse of [`Errno::code`]: recover the errno from its numeric
    /// value (e.g. the `errno` field of a batched completion). Unknown
    /// codes come back as `None`.
    pub fn from_code(code: i32) -> Option<Errno> {
        Errno::ALL.into_iter().find(|e| e.code() == code)
    }

    /// Short name as it appears in `errno.h`.
    pub fn name(self) -> &'static str {
        match self {
            Errno::EPERM => "EPERM",
            Errno::ENOENT => "ENOENT",
            Errno::ESRCH => "ESRCH",
            Errno::EACCES => "EACCES",
            Errno::EFAULT => "EFAULT",
            Errno::EINVAL => "EINVAL",
            Errno::ENOMEM => "ENOMEM",
            Errno::EAGAIN => "EAGAIN",
            Errno::ENOSYS => "ENOSYS",
            Errno::ECHILD => "ECHILD",
            Errno::EIDRM => "EIDRM",
            Errno::EEXIST => "EEXIST",
            Errno::EBUSY => "EBUSY",
        }
    }
}

impl std::fmt::Display for Errno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.name(), self.code())
    }
}

impl std::error::Error for Errno {}

impl From<secmod_vm::VmError> for Errno {
    fn from(e: secmod_vm::VmError) -> Self {
        match e {
            secmod_vm::VmError::SegmentationFault { .. } => Errno::EFAULT,
            secmod_vm::VmError::ProtectionViolation { .. } => Errno::EFAULT,
            secmod_vm::VmError::MappingOverlap { .. } => Errno::ENOMEM,
            secmod_vm::VmError::InvalidRange { .. } => Errno::EINVAL,
            secmod_vm::VmError::OutOfRange { .. } => Errno::ENOMEM,
            secmod_vm::VmError::NotPaired => Errno::EINVAL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_code_roundtrips_every_variant() {
        // Exhaustive match: adding an Errno variant fails to compile here
        // until this count — checked against Errno::ALL below — is
        // updated alongside the ALL array.
        fn counted(e: Errno) -> usize {
            match e {
                Errno::EPERM
                | Errno::ENOENT
                | Errno::ESRCH
                | Errno::EACCES
                | Errno::EFAULT
                | Errno::EEXIST
                | Errno::EBUSY
                | Errno::EINVAL
                | Errno::ENOMEM
                | Errno::EAGAIN
                | Errno::ENOSYS
                | Errno::ECHILD
                | Errno::EIDRM => 1,
            }
        }
        assert_eq!(Errno::ALL.iter().map(|&e| counted(e)).sum::<usize>(), 13);
        assert_eq!(Errno::ALL.len(), 13);
        for e in Errno::ALL {
            assert_eq!(Errno::from_code(e.code()), Some(e), "{e} must round-trip");
        }
        assert_eq!(Errno::from_code(0), None);
        assert_eq!(Errno::from_code(-1), None);
        assert_eq!(Errno::from_code(9999), None);
    }

    #[test]
    fn codes_and_names() {
        assert_eq!(Errno::EPERM.code(), 1);
        assert_eq!(Errno::ENOENT.code(), 2);
        assert_eq!(Errno::EACCES.code(), 13);
        assert_eq!(Errno::EPERM.name(), "EPERM");
        assert!(Errno::EACCES.to_string().contains("EACCES"));
    }

    #[test]
    fn vm_error_conversion() {
        use secmod_vm::{Vaddr, VmError};
        assert_eq!(
            Errno::from(VmError::SegmentationFault { addr: Vaddr(0) }),
            Errno::EFAULT
        );
        assert_eq!(
            Errno::from(VmError::InvalidRange { reason: "x" }),
            Errno::EINVAL
        );
        assert_eq!(Errno::from(VmError::NotPaired), Errno::EINVAL);
    }

    #[test]
    fn distinct_codes() {
        let all = [
            Errno::EPERM,
            Errno::ENOENT,
            Errno::ESRCH,
            Errno::EACCES,
            Errno::EFAULT,
            Errno::EINVAL,
            Errno::ENOMEM,
            Errno::EAGAIN,
            Errno::ENOSYS,
            Errno::ECHILD,
            Errno::EIDRM,
            Errno::EEXIST,
            Errno::EBUSY,
        ];
        let mut codes: Vec<i32> = all.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len());
    }
}
