//! A small arbitrary-precision unsigned integer ("bignum") sufficient for
//! textbook RSA key wrapping of SecModule keys.
//!
//! The representation is little-endian `u64` limbs with no leading zero
//! limbs (canonical form).  Operations are straightforward schoolbook
//! algorithms; performance is adequate for the modulus sizes used in the
//! SecModule registration path (512–2048 bits) and is not on the dispatch
//! fast path measured in the paper.

use std::cmp::Ordering;

/// Arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    /// Little-endian limbs, canonical (no trailing zero limbs; empty == 0).
    limbs: Vec<u64>,
}

impl std::fmt::Debug for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialize to big-endian bytes with no leading zero bytes (empty for 0).
    fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let mut started = false;
                for b in bytes {
                    if b != 0 || started {
                        out.push(b);
                        started = true;
                    }
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialize to exactly `len` big-endian bytes (left-padded with zeros).
    ///
    /// Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let bytes = self.to_bytes_be();
        assert!(bytes.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - bytes.len()];
        out.extend_from_slice(&bytes);
        out
    }

    /// Lower-case hexadecimal representation without leading zeros ("0" for 0).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::new();
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{b:x}"));
            } else {
                s.push_str(&format!("{b:02x}"));
            }
        }
        s
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Is this one?
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Is the low bit set?
    pub(crate) fn is_odd(&self) -> bool {
        self.limbs.first().map(|l| l & 1 == 1).unwrap_or(false)
    }

    /// Is the low bit clear (including zero)?
    pub fn is_even(&self) -> bool {
        !self.is_odd()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs
            .get(limb)
            .map(|l| (l >> off) & 1 == 1)
            .unwrap_or(false)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Compare two numbers.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut limbs = Vec::with_capacity(usize::max(self.limbs.len(), other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..usize::max(self.limbs.len(), other.limbs.len()) {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            limbs.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            limbs.push(carry);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Subtraction; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_to(other) != Ordering::Less,
            "BigUint subtraction underflow"
        );
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            limbs.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Multiplication (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = limbs[i + j] as u128 + (a as u128) * (b as u128) + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = limbs[k] as u128 + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Shift left by `bits`.
    fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Shift right by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (64 - bit_shift)
                } else {
                    0
                };
                limbs.push(lo | hi);
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Division with remainder; panics on division by zero.
    fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_to(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            // Fast path: single-limb divisor.
            let d = divisor.limbs[0] as u128;
            let mut rem = 0u128;
            let mut q = vec![0u64; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return (quotient, BigUint::from_u64(rem as u64));
        }
        // General case: binary long division.
        let shift = self.bit_len() - divisor.bit_len();
        let mut remainder = self.clone();
        let mut quotient = BigUint::zero();
        let mut shifted = divisor.shl(shift);
        for i in (0..=shift).rev() {
            if remainder.cmp_to(&shifted) != Ordering::Less {
                remainder = remainder.sub(&shifted);
                quotient = quotient.set_bit(i);
            }
            shifted = shifted.shr(1);
        }
        (quotient, remainder)
    }

    fn set_bit(&self, i: usize) -> BigUint {
        let limb = i / 64;
        let off = i % 64;
        let mut limbs = self.limbs.clone();
        while limbs.len() <= limb {
            limbs.push(0);
        }
        limbs[limb] |= 1 << off;
        BigUint { limbs }
    }

    /// Remainder only.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular multiplication `(self * other) mod m`.
    pub fn mod_mul(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m` (square and multiply).
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mod_mul(&base, m);
            }
            base = base.mod_mul(&base, m);
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `m`, if it exists.
    ///
    /// Uses the extended Euclidean algorithm with coefficients kept reduced
    /// modulo `m` so no signed arithmetic is needed.
    pub fn mod_inv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = BigUint::zero();
        let mut t1 = BigUint::one();
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q*t1 (mod m)
            let qt1 = q.mod_mul(&t1, m);
            let t2 = if t0.cmp_to(&qt1) == Ordering::Less {
                t0.add(m).sub(&qt1)
            } else {
                t0.sub(&qt1)
            };
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if r0.is_one() {
            Some(t0.rem(m))
        } else {
            None
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// Parse a hexadecimal string (no prefix): the test vectors' notation.
    fn from_hex(s: &str) -> Option<BigUint> {
        if s.is_empty() || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        // Left-pad to even length.
        let padded = if s.len() % 2 == 1 {
            format!("0{s}")
        } else {
            s.to_string()
        };
        let bytes: Vec<u8> = (0..padded.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&padded[i..i + 2], 16).unwrap())
            .collect();
        Some(BigUint::from_bytes_be(&bytes))
    }

    #[test]
    fn basic_construction_and_display() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(n(0x1234).to_hex(), "1234");
        assert_eq!(BigUint::zero().to_hex(), "0");
        assert_eq!(from_hex("deadbeef").unwrap(), n(0xdeadbeef));
        assert_eq!(from_hex("f").unwrap(), n(15));
        assert!(from_hex("xyz").is_none());
        assert!(from_hex("").is_none());
    }

    #[test]
    fn bytes_roundtrip() {
        let v = from_hex("0102030405060708090a0b0c0d0e0f10").unwrap();
        let bytes = v.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        assert_eq!(v.to_bytes_be_padded(20).len(), 20);
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be_padded(20)), v);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
        // Leading zeros are stripped.
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 1, 2]).to_bytes_be(),
            vec![1, 2]
        );
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(n(5).sub(&n(3)), n(2));
        assert_eq!(n(5).sub(&n(5)), BigUint::zero());
        // Carry across limbs.
        let big = BigUint::from_u64(u64::MAX);
        assert_eq!(big.add(&n(1)).to_hex(), "10000000000000000");
        assert_eq!(big.add(&n(1)).sub(&n(1)), big);
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        n(3).sub(&n(5));
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(n(7).mul(&n(6)), n(42));
        assert_eq!(n(0).mul(&n(12345)), BigUint::zero());
        let a = from_hex("ffffffffffffffff").unwrap();
        assert_eq!(a.mul(&a).to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(64).to_hex(), "10000000000000000");
        assert_eq!(n(1).shl(65).shr(65), n(1));
        assert_eq!(n(0xFF).shl(4), n(0xFF0));
        assert_eq!(n(0xFF0).shr(4), n(0xFF));
        assert_eq!(n(1).shr(1), BigUint::zero());
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(n(1).bit_len(), 1);
        assert_eq!(n(0xFF).bit_len(), 8);
        assert_eq!(n(1).shl(100).bit_len(), 101);
        assert!(n(4).bit(2));
        assert!(!n(4).bit(1));
        assert!(!n(4).bit(200));
    }

    #[test]
    fn div_rem_small_and_large() {
        let (q, r) = n(100).div_rem(&n(7));
        assert_eq!((q, r), (n(14), n(2)));
        let (q, r) = n(5).div_rem(&n(100));
        assert_eq!((q, r), (BigUint::zero(), n(5)));
        // Multi-limb division.
        let a = from_hex("123456789abcdef0123456789abcdef0").unwrap();
        let b = from_hex("fedcba9876543211").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_to(&b) == Ordering::Less);
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        n(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_known_values() {
        // 4^13 mod 497 = 445
        assert_eq!(n(4).mod_pow(&n(13), &n(497)), n(445));
        // Fermat: 2^(p-1) mod p == 1 for prime p
        assert_eq!(n(2).mod_pow(&n(1_000_000_006), &n(1_000_000_007)), n(1));
        // modulus one
        assert_eq!(n(5).mod_pow(&n(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn gcd_and_mod_inv() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(31)), n(1));
        let inv = n(3).mod_inv(&n(11)).unwrap();
        assert_eq!(n(3).mod_mul(&inv, &n(11)), n(1));
        assert!(n(6).mod_inv(&n(9)).is_none()); // gcd != 1
        assert!(n(5).mod_inv(&BigUint::one()).is_none());
        // Larger inverse.
        let m = from_hex("ffffffffffffffc5").unwrap(); // a 64-bit prime
        let a = from_hex("123456789abcdef").unwrap();
        let inv = a.mod_inv(&m).unwrap();
        assert_eq!(a.mod_mul(&inv, &m), BigUint::one());
    }

    #[test]
    fn ordering() {
        assert!(n(3) < n(5));
        assert!(n(5) > n(3));
        assert_eq!(n(5).cmp_to(&n(5)), Ordering::Equal);
        assert!(n(1).shl(64) > n(u64::MAX));
    }

    proptest::proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in proptest::collection::vec(0u8..=255, 0..24),
                                  b in proptest::collection::vec(0u8..=255, 0..24)) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            let sum = a.add(&b);
            proptest::prop_assert_eq!(sum.sub(&b), a);
        }

        #[test]
        fn prop_div_rem_identity(a in proptest::collection::vec(0u8..=255, 0..24),
                                 b in proptest::collection::vec(1u8..=255, 1..12)) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            let (q, r) = a.div_rem(&b);
            proptest::prop_assert_eq!(q.mul(&b).add(&r), a);
            proptest::prop_assert!(r.cmp_to(&b) == Ordering::Less);
        }

        #[test]
        fn prop_mul_commutative(a in proptest::collection::vec(0u8..=255, 0..16),
                                b in proptest::collection::vec(0u8..=255, 0..16)) {
            let a = BigUint::from_bytes_be(&a);
            let b = BigUint::from_bytes_be(&b);
            proptest::prop_assert_eq!(a.mul(&b), b.mul(&a));
        }

        #[test]
        fn prop_hex_roundtrip(a in proptest::collection::vec(0u8..=255, 0..24)) {
            let a = BigUint::from_bytes_be(&a);
            proptest::prop_assert_eq!(from_hex(&a.to_hex()).unwrap(), a);
        }

        #[test]
        fn prop_shift_roundtrip(a in proptest::collection::vec(0u8..=255, 0..24), s in 0usize..200) {
            let a = BigUint::from_bytes_be(&a);
            proptest::prop_assert_eq!(a.shl(s).shr(s), a);
        }
    }
}
