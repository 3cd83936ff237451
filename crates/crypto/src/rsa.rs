//! Textbook RSA used to wrap SecModule secret keys with the hosting
//! system's public key (§4.4 of the paper: "the secret keys that protect m
//! are encrypted using s's public key, and is shipped as part of m").
//!
//! The implementation is deliberately simple: Miller–Rabin prime
//! generation, e = 65537, and a minimal PKCS#1-v1.5-style random padding for
//! key wrapping.  It is sufficient for the simulation and for exercising the
//! registration code path; it is not a hardened RSA implementation.

use crate::bignum::BigUint;
use crate::rng::HashDrbg;
use crate::{CryptoError, Result};

/// An RSA public key (modulus `n`, exponent `e`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

/// An RSA private key.
#[derive(Clone)]
pub struct RsaPrivateKey {
    /// The corresponding public key.
    pub public: RsaPublicKey,
    /// Private exponent.
    d: BigUint,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RsaPrivateKey")
            .field("public", &self.public)
            .field("d", &"<redacted>")
            .finish()
    }
}

impl RsaPublicKey {
    /// Size of the modulus in bytes (rounded up).
    fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Raw RSA encryption of an integer `m < n`.
    fn encrypt_raw(&self, m: &BigUint) -> Result<BigUint> {
        if m.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::MessageTooLarge);
        }
        Ok(m.mod_pow(&self.e, &self.n))
    }

    /// Wrap (encrypt) a short secret with simple random padding:
    /// `0x00 0x02 <nonzero random bytes> 0x00 <message>`.
    pub fn wrap(&self, message: &[u8], rng: &mut HashDrbg) -> Result<Vec<u8>> {
        let k = self.modulus_len();
        if message.len() + 11 > k {
            return Err(CryptoError::MessageTooLarge);
        }
        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.push(0x02);
        let pad_len = k - 3 - message.len();
        while em.len() < 2 + pad_len {
            let b = rng.bytes(1)[0];
            if b != 0 {
                em.push(b);
            }
        }
        em.push(0x00);
        em.extend_from_slice(message);
        debug_assert_eq!(em.len(), k);
        let m = BigUint::from_bytes_be(&em);
        let c = self.encrypt_raw(&m)?;
        Ok(c.to_bytes_be_padded(k))
    }
}

impl RsaPrivateKey {
    /// Raw RSA decryption.
    fn decrypt_raw(&self, c: &BigUint) -> Result<BigUint> {
        if c.cmp_to(&self.public.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::MessageTooLarge);
        }
        Ok(c.mod_pow(&self.d, &self.public.n))
    }

    /// Unwrap a secret previously wrapped with [`RsaPublicKey::wrap`].
    pub fn unwrap(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(CryptoError::InvalidLength {
                reason: "RSA ciphertext length must equal modulus length",
            });
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let m = self.decrypt_raw(&c)?;
        let em = m.to_bytes_be_padded(k);
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::DecryptFailed);
        }
        // Find the 0x00 separator after the padding.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::DecryptFailed)?;
        if sep < 8 {
            return Err(CryptoError::DecryptFailed);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// Miller–Rabin primality test with `rounds` random bases.
fn is_probable_prime(n: &BigUint, rounds: usize, rng: &mut HashDrbg) -> bool {
    if n.cmp_to(&BigUint::from_u64(2)) == std::cmp::Ordering::Less {
        return false;
    }
    // Small primes and small-prime divisibility.
    const SMALL_PRIMES: [u64; 15] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47];
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from_u64(p);
        if n == &pb {
            return true;
        }
        if n.rem(&pb).is_zero() {
            return false;
        }
    }
    // Write n-1 = d * 2^r.
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while d.is_even() {
        d = d.shr(1);
        r += 1;
    }
    let n_minus_3 = n.sub(&BigUint::from_u64(3));
    'witness: for _ in 0..rounds {
        // a in [2, n-2]
        let a = random_below(&n_minus_3, rng).add(&BigUint::from_u64(2));
        let mut x = a.mod_pow(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..r.saturating_sub(1) {
            x = x.mod_mul(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Uniform random value in `[0, bound)` (`bound > 0`).
fn random_below(bound: &BigUint, rng: &mut HashDrbg) -> BigUint {
    assert!(!bound.is_zero());
    let byte_len = bound.bit_len().div_ceil(8);
    loop {
        let mut bytes = rng.bytes(byte_len);
        // Mask the top byte so the candidate is close to the bound's magnitude.
        let excess_bits = byte_len * 8 - bound.bit_len();
        if excess_bits > 0 && !bytes.is_empty() {
            bytes[0] &= 0xFF >> excess_bits;
        }
        let candidate = BigUint::from_bytes_be(&bytes);
        if candidate.cmp_to(bound) == std::cmp::Ordering::Less {
            return candidate;
        }
    }
}

/// Generate a random probable prime of exactly `bits` bits.
fn generate_prime(bits: usize, rng: &mut HashDrbg) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    loop {
        let byte_len = bits.div_ceil(8);
        let mut bytes = rng.bytes(byte_len);
        // Force exact bit length and oddness.
        let top_bit = (bits - 1) % 8;
        bytes[0] &= 0xFF >> (7 - top_bit);
        bytes[0] |= 1 << top_bit;
        let last = bytes.len() - 1;
        bytes[last] |= 1;
        let candidate = BigUint::from_bytes_be(&bytes);
        if is_probable_prime(&candidate, 16, rng) {
            return candidate;
        }
    }
}

// surface: makes §4.4's host key pair; only tests install a host key
/// Generate an RSA key pair with a modulus of roughly `modulus_bits` bits.
pub fn generate_keypair(modulus_bits: usize, rng: &mut HashDrbg) -> RsaPrivateKey {
    assert!(modulus_bits >= 64, "modulus too small");
    let half = modulus_bits / 2;
    let e = BigUint::from_u64(65537);
    loop {
        let p = generate_prime(half, rng);
        let q = generate_prime(modulus_bits - half, rng);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
        if !phi.gcd(&e).is_one() {
            continue;
        }
        let d = match e.mod_inv(&phi) {
            Some(d) => d,
            None => continue,
        };
        return RsaPrivateKey {
            public: RsaPublicKey { n, e },
            d,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> HashDrbg {
        HashDrbg::new(b"rsa-test-seed")
    }

    #[test]
    fn miller_rabin_classifies_small_numbers() {
        let mut r = rng();
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 101, 65537, 1_000_000_007];
        let composites = [1u64, 4, 6, 9, 15, 21, 91, 341, 561, 1_000_000_008];
        for p in primes {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut r),
                "{p} should be prime"
            );
        }
        for c in composites {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut r),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn miller_rabin_rejects_carmichael_numbers() {
        let mut r = rng();
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), 16, &mut r));
        }
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut r = rng();
        for bits in [64usize, 96, 128] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(p.is_odd());
        }
    }

    #[test]
    fn keypair_roundtrip_raw() {
        let mut r = rng();
        let key = generate_keypair(256, &mut r);
        let m = BigUint::from_u64(0x1234_5678_9abc_def0);
        let c = key.public.encrypt_raw(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(key.decrypt_raw(&c).unwrap(), m);
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let mut r = rng();
        let key = generate_keypair(512, &mut r);
        let secret = b"0123456789abcdef0123456789abcdef"; // a 32-byte AES key
        let wrapped = key.public.wrap(secret, &mut r).unwrap();
        assert_eq!(wrapped.len(), key.public.modulus_len());
        assert_eq!(key.unwrap(&wrapped).unwrap(), secret.to_vec());
    }

    #[test]
    fn wrap_rejects_oversized_message() {
        let mut r = rng();
        let key = generate_keypair(256, &mut r);
        let too_big = vec![1u8; key.public.modulus_len()];
        assert_eq!(
            key.public.wrap(&too_big, &mut r).unwrap_err(),
            CryptoError::MessageTooLarge
        );
    }

    #[test]
    fn unwrap_rejects_corrupted_ciphertext() {
        let mut r = rng();
        let key = generate_keypair(512, &mut r);
        let mut wrapped = key.public.wrap(b"secret", &mut r).unwrap();
        wrapped[5] ^= 0xFF;
        // Either padding fails or the payload differs; both are acceptable
        // failure signals, but it must never silently return the original.
        if let Ok(m) = key.unwrap(&wrapped) {
            assert_ne!(m, b"secret".to_vec());
        }
        // Wrong length is always rejected.
        assert!(key.unwrap(&wrapped[1..]).is_err());
    }

    #[test]
    fn encrypt_raw_rejects_message_ge_modulus() {
        let mut r = rng();
        let key = generate_keypair(128, &mut r);
        assert_eq!(
            key.public.encrypt_raw(&key.public.n).unwrap_err(),
            CryptoError::MessageTooLarge
        );
    }

    #[test]
    fn distinct_wraps_are_randomized() {
        let mut r = rng();
        let key = generate_keypair(512, &mut r);
        let w1 = key.public.wrap(b"same message", &mut r).unwrap();
        let w2 = key.public.wrap(b"same message", &mut r).unwrap();
        assert_ne!(w1, w2);
        assert_eq!(key.unwrap(&w1).unwrap(), key.unwrap(&w2).unwrap());
    }
}
