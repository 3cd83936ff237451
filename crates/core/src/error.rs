//! Framework-level errors.

use secmod_kernel::Errno;

/// Errors surfaced by the SecModule framework.
#[derive(Debug)]
pub enum SmodError {
    /// A kernel syscall failed.
    Kernel(Errno),
    /// The toolchain rejected the module definition.
    Module(secmod_module::ModuleError),
    /// A policy definition was malformed.
    Policy(secmod_policy::PolicyError),
    /// A cryptographic operation failed.
    Crypto(secmod_crypto::CryptoError),
    /// The named function does not exist in the module.
    UnknownFunction(String),
    /// The client has no established session for the module.
    NoSession,
    /// Marshalled arguments could not be decoded.
    BadArguments(String),
}

impl std::fmt::Display for SmodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmodError::Kernel(e) => write!(f, "kernel error: {e}"),
            SmodError::Module(e) => write!(f, "module error: {e}"),
            SmodError::Policy(e) => write!(f, "policy error: {e}"),
            SmodError::Crypto(e) => write!(f, "crypto error: {e}"),
            SmodError::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            SmodError::NoSession => write!(f, "no established SecModule session"),
            SmodError::BadArguments(m) => write!(f, "bad arguments: {m}"),
        }
    }
}

impl std::error::Error for SmodError {}

impl From<Errno> for SmodError {
    fn from(e: Errno) -> Self {
        SmodError::Kernel(e)
    }
}

impl From<secmod_module::ModuleError> for SmodError {
    fn from(e: secmod_module::ModuleError) -> Self {
        SmodError::Module(e)
    }
}

impl From<secmod_policy::PolicyError> for SmodError {
    fn from(e: secmod_policy::PolicyError) -> Self {
        SmodError::Policy(e)
    }
}

impl From<secmod_crypto::CryptoError> for SmodError {
    fn from(e: secmod_crypto::CryptoError) -> Self {
        SmodError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: SmodError = Errno::EACCES.into();
        assert!(e.to_string().contains("EACCES"));
        let e: SmodError = secmod_module::ModuleError::IntegrityFailure.into();
        assert!(e.to_string().contains("integrity"));
        let e: SmodError = secmod_crypto::CryptoError::VerifyFailed.into();
        assert!(e.to_string().contains("verification"));
        let e: SmodError = secmod_policy::PolicyError::UnknownRoot.into();
        assert!(e.to_string().contains("root"));
        assert!(SmodError::UnknownFunction("f".into())
            .to_string()
            .contains("`f`"));
        assert!(!SmodError::NoSession.to_string().is_empty());
        assert!(!SmodError::BadArguments("x".into()).to_string().is_empty());
    }
}
