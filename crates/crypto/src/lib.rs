//! # secmod-crypto
//!
//! From-scratch cryptographic primitives used by the SecModule framework.
//!
//! The SecModule paper (§4.1, §4.4) protects the *text* of a registered
//! library in two ways: it may be encrypted with a symmetric cipher ("a
//! sufficiently powerful system like the Advanced Encryption Standard")
//! whose key lives only in kernel space, and the encryption deliberately
//! skips every byte range touched by the link editor so the encrypted
//! library is still linkable by ordinary tools.  In multi-user deployments
//! the per-module secret keys are themselves wrapped with the hosting
//! system's public key.
//!
//! This crate provides everything the rest of the workspace needs for that
//! story, implemented from first principles (no external crypto crates):
//!
//! * [`aes`] — the AES block cipher (128/192/256-bit keys) with the S-box
//!   derived algebraically rather than from hard-coded tables.
//! * [`modes`] — CTR mode, addressable by byte offset.
//! * [`sha256`] — SHA-256 with round constants generated from exact integer
//!   square/cube roots. Each block compresses on the x86 SHA extensions
//!   where the running CPU reports `sha`, `ssse3` and `sse4.1`, and in
//!   portable integer rounds everywhere else; the portable rounds are also
//!   the reference the SHA-unit kernel is tested against.
//! * [`hmac`] — HMAC-SHA-256 for credential MACs.
//! * [`bignum`] — a small arbitrary-precision unsigned integer.
//! * [`rsa`] — textbook RSA (keygen, raw and padded encrypt/decrypt) used to
//!   wrap module keys with the host system's public key.
//! * [`selective`] — relocation-aware ("selective") encryption of module
//!   text sections.
//! * [`keystore`] — the kernel-resident key registry; keys never leave it.
//! * [`rng`] — a deterministic, seedable stream generator used where the
//!   simulator needs reproducible "randomness".
//!
//! Everything here is intended for the SecModule simulation and benchmarks;
//! it is *not* hardened against side channels and must not be used to
//! protect real data.
//!
//! The crate's one `unsafe` is the call into the SHA-unit kernel, made
//! only after runtime detection has found the features it is compiled
//! for; the kernel's body uses no pointers and is safe code. `unsafe_code`
//! is denied everywhere else, and that call site carries the one
//! `allow`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod hmac;
pub mod keystore;
pub mod modes;
pub mod rng;
pub mod rsa;
pub mod selective;
pub mod sha256;

pub use aes::{Aes, AesKey};
pub use hmac::HmacSha256;
pub use keystore::{KeyHandle, KeyStore};
pub use selective::{SelectiveEncryptor, SkipRange};
pub use sha256::Sha256;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A key of invalid length was supplied.
    InvalidKeyLength {
        /// The length that was supplied.
        got: usize,
    },
    /// Ciphertext or plaintext length is not acceptable for the mode.
    InvalidLength {
        /// A human-readable description of the requirement that was violated.
        reason: &'static str,
    },
    /// An RSA message was too large for the modulus.
    MessageTooLarge,
    /// A key referenced through the [`KeyStore`] does not exist or was revoked.
    UnknownKey,
    /// The caller does not have the right to extract or use this key.
    KeyAccessDenied,
    /// RSA decryption produced an inconsistent payload.
    DecryptFailed,
    /// Signature or MAC verification failed.
    VerifyFailed,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::InvalidKeyLength { got } => {
                write!(f, "invalid key length: {got} bytes")
            }
            CryptoError::InvalidLength { reason } => write!(f, "invalid length: {reason}"),
            CryptoError::MessageTooLarge => write!(f, "message too large for RSA modulus"),
            CryptoError::UnknownKey => write!(f, "unknown or revoked key"),
            CryptoError::KeyAccessDenied => write!(f, "key access denied"),
            CryptoError::DecryptFailed => write!(f, "decryption failed"),
            CryptoError::VerifyFailed => write!(f, "verification failed"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CryptoError>;

/// Constant-time byte-slice equality.
///
/// Used for MAC and credential comparison so the simulator's security story
/// does not depend on early-exit comparison behaviour.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc: u8 = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"hello", b"hello"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_contents() {
        assert!(!ct_eq(b"hello", b"hellp"));
    }

    #[test]
    fn ct_eq_unequal_lengths() {
        assert!(!ct_eq(b"hello", b"hell"));
    }

    #[test]
    fn error_display_is_nonempty() {
        let errs = [
            CryptoError::InvalidKeyLength { got: 3 },
            CryptoError::InvalidLength { reason: "x" },
            CryptoError::MessageTooLarge,
            CryptoError::UnknownKey,
            CryptoError::KeyAccessDenied,
            CryptoError::DecryptFailed,
            CryptoError::VerifyFailed,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
