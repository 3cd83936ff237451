//! AES block cipher (FIPS-197), supporting 128/192/256-bit keys.
//!
//! The S-box is derived algebraically (multiplicative
//! inverse in GF(2^8) followed by the affine transform) instead of being
//! hard-coded, and the implementation is validated against the FIPS-197
//! Appendix C known-answer vectors in the test module.

use crate::{CryptoError, Result};

/// AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// Multiply two elements of GF(2^8) with the AES reduction polynomial
/// `x^8 + x^4 + x^3 + x + 1` (0x11b).
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p: u8 = 0;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// Multiplicative inverse in GF(2^8); `inv(0) == 0` by AES convention.
fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^(254) == a^(-1) in GF(2^8); exponentiate by squaring.
    let mut result: u8 = 1;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

/// Compute the S-box.
fn compute_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    for (i, slot) in sbox.iter_mut().enumerate() {
        let x = gf_inv(i as u8);
        // Affine transform: b ^= rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let b = x;
        let s =
            b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
        *slot = s;
    }
    sbox
}

fn sbox() -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
    SBOX.get_or_init(compute_sbox)
}

/// An AES key of one of the three permitted lengths.
#[derive(Clone, PartialEq, Eq)]
pub enum AesKey {
    /// 128-bit (16-byte) key.
    Aes128([u8; 16]),
    /// 192-bit (24-byte) key.
    Aes192([u8; 24]),
    /// 256-bit (32-byte) key.
    Aes256([u8; 32]),
}

impl std::fmt::Debug for AesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        match self {
            AesKey::Aes128(_) => write!(f, "AesKey::Aes128(<redacted>)"),
            AesKey::Aes192(_) => write!(f, "AesKey::Aes192(<redacted>)"),
            AesKey::Aes256(_) => write!(f, "AesKey::Aes256(<redacted>)"),
        }
    }
}

impl AesKey {
    /// Construct a key from a byte slice of length 16, 24 or 32.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        match bytes.len() {
            16 => {
                let mut k = [0u8; 16];
                k.copy_from_slice(bytes);
                Ok(AesKey::Aes128(k))
            }
            24 => {
                let mut k = [0u8; 24];
                k.copy_from_slice(bytes);
                Ok(AesKey::Aes192(k))
            }
            32 => {
                let mut k = [0u8; 32];
                k.copy_from_slice(bytes);
                Ok(AesKey::Aes256(k))
            }
            n => Err(CryptoError::InvalidKeyLength { got: n }),
        }
    }

    /// Key length in bytes.
    pub fn len(&self) -> usize {
        match self {
            AesKey::Aes128(_) => 16,
            AesKey::Aes192(_) => 24,
            AesKey::Aes256(_) => 32,
        }
    }

    /// Whether the key is empty (never true; present for clippy symmetry).
    pub fn is_empty(&self) -> bool {
        false
    }

    fn bytes(&self) -> &[u8] {
        match self {
            AesKey::Aes128(k) => k,
            AesKey::Aes192(k) => k,
            AesKey::Aes256(k) => k,
        }
    }

    /// Number of AES rounds for this key size.
    pub fn rounds(&self) -> usize {
        match self {
            AesKey::Aes128(_) => 10,
            AesKey::Aes192(_) => 12,
            AesKey::Aes256(_) => 14,
        }
    }
}

/// An expanded AES key schedule ready to encrypt 16-byte blocks.
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Expand `key` into the round-key schedule.
    pub fn new(key: &AesKey) -> Self {
        let sbox = sbox();
        let nk = key.len() / 4; // key length in 32-bit words
        let rounds = key.rounds();
        let total_words = 4 * (rounds + 1);

        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        let kb = key.bytes();
        for i in 0..nk {
            w.push([kb[4 * i], kb[4 * i + 1], kb[4 * i + 2], kb[4 * i + 3]]);
        }
        let mut rcon: u8 = 1;
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord
                temp = [temp[1], temp[2], temp[3], temp[0]];
                // SubWord
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = gf_mul(rcon, 2);
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = sbox[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }

        let mut round_keys = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut rk = [0u8; 16];
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
            round_keys.push(rk);
        }
        Aes { round_keys, rounds }
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let sbox = sbox();
        add_round_key(block, &self.round_keys[0]);
        for r in 1..self.rounds {
            sub_bytes(block, sbox);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block, sbox);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Number of rounds in the schedule (10, 12 or 14).
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

// The state is stored column-major as in FIPS-197: byte index = row + 4*col.

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in state.iter_mut() {
        *b = sbox[*b as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    // Row r is bytes state[r], state[r+4], state[r+8], state[r+12]; rotate left by r.
    for r in 1..4 {
        let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
        for c in 0..4 {
            state[r + 4 * c] = row[(c + r) % 4];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_entries() {
        let sbox = compute_sbox();
        // Spot-check well-known entries of the AES S-box.
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
        // The S-box is a permutation of the bytes.
        let mut seen = [false; 256];
        for s in sbox {
            assert!(!seen[s as usize], "{s:#x} appears twice");
            seen[s as usize] = true;
        }
    }

    #[test]
    fn gf_mul_known_values() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(0x01, 0xab), 0xab);
        assert_eq!(gf_mul(0x00, 0xab), 0x00);
    }

    #[test]
    fn gf_inv_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inverse of {a:#x}");
        }
        assert_eq!(gf_inv(0), 0);
    }

    #[test]
    fn fips197_aes128_vector() {
        let key = AesKey::from_bytes(&hex("000102030405060708090a0b0c0d0e0f")).unwrap();
        let aes = Aes::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_aes192_vector() {
        let key =
            AesKey::from_bytes(&hex("000102030405060708090a0b0c0d0e0f1011121314151617")).unwrap();
        let aes = Aes::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("dda97ca4864cdfe06eaf70a0ec0d7191"));
    }

    #[test]
    fn fips197_aes256_vector() {
        let key = AesKey::from_bytes(&hex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        ))
        .unwrap();
        let aes = Aes::new(&key);
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex("00112233445566778899aabbccddeeff"));
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn key_length_validation() {
        assert!(AesKey::from_bytes(&[0u8; 16]).is_ok());
        assert!(AesKey::from_bytes(&[0u8; 24]).is_ok());
        assert!(AesKey::from_bytes(&[0u8; 32]).is_ok());
        assert_eq!(
            AesKey::from_bytes(&[0u8; 17]).unwrap_err(),
            CryptoError::InvalidKeyLength { got: 17 }
        );
        assert_eq!(
            AesKey::from_bytes(&[]).unwrap_err(),
            CryptoError::InvalidKeyLength { got: 0 }
        );
    }

    #[test]
    fn rounds_by_key_size() {
        assert_eq!(Aes::new(&AesKey::Aes128([0; 16])).rounds(), 10);
        assert_eq!(Aes::new(&AesKey::Aes192([0; 24])).rounds(), 12);
        assert_eq!(Aes::new(&AesKey::Aes256([0; 32])).rounds(), 14);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = AesKey::Aes128([0xAA; 16]);
        let s = format!("{k:?}");
        assert!(!s.contains("170") && !s.to_lowercase().contains("aa, aa"));
        assert!(s.contains("redacted"));
    }

    proptest::proptest! {
        #[test]
        fn gf_mul_commutative(a in 0u8..=255, b in 0u8..=255) {
            proptest::prop_assert_eq!(gf_mul(a, b), gf_mul(b, a));
        }

        #[test]
        fn gf_mul_distributive(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
            proptest::prop_assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
        }
    }
}
