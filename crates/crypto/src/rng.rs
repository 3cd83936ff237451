//! Deterministic, seedable pseudo-random generation used by the simulator
//! and by key generation.
//!
//! The paper (§4.4) notes that "extreme care must be taken when choosing the
//! pseudo-random keys for the symmetric cipher".  For the simulation we want
//! two properties: reproducibility (the kernel simulator is deterministic
//! given a seed) and reasonable statistical quality.  We therefore implement
//! a small counter-mode generator over SHA-256 (hash-DRBG style).

use crate::sha256::Sha256;

/// A deterministic byte generator built from SHA-256 in counter mode.
///
/// Not a certified DRBG, but good enough for reproducible simulated keys.
#[derive(Clone, Debug)]
pub struct HashDrbg {
    seed: [u8; 32],
    counter: u64,
    buffer: Vec<u8>,
}

impl HashDrbg {
    /// Create a generator from arbitrary seed material.
    pub fn new(seed_material: &[u8]) -> Self {
        HashDrbg {
            seed: Sha256::digest(seed_material),
            counter: 0,
            buffer: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let mut h = Sha256::new();
        h.update(&self.seed);
        h.update(&self.counter.to_le_bytes());
        self.counter += 1;
        self.buffer.extend_from_slice(&h.finalize());
    }

    /// Fill `out` with pseudo-random bytes.
    fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut written = 0;
        while written < out.len() {
            if self.buffer.is_empty() {
                self.refill();
            }
            let take = usize::min(self.buffer.len(), out.len() - written);
            out[written..written + take].copy_from_slice(&self.buffer[..take]);
            self.buffer.drain(..take);
            written += take;
        }
    }

    /// Generate `n` pseudo-random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// Generate a pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drbg_is_deterministic_for_same_seed() {
        let mut a = HashDrbg::new(b"seed");
        let mut b = HashDrbg::new(b"seed");
        assert_eq!(a.bytes(100), b.bytes(100));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn drbg_differs_for_different_seeds() {
        let mut a = HashDrbg::new(b"seed-a");
        let mut b = HashDrbg::new(b"seed-b");
        assert_ne!(a.bytes(64), b.bytes(64));
    }

    #[test]
    fn drbg_chunked_requests_match_single_request() {
        let mut a = HashDrbg::new(b"x");
        let mut b = HashDrbg::new(b"x");
        let big = a.bytes(200);
        let mut chunks = Vec::new();
        for n in [1usize, 31, 32, 33, 103] {
            chunks.extend(b.bytes(n));
        }
        assert_eq!(big, chunks);
    }

    proptest::proptest! {
        #[test]
        fn prop_drbg_no_short_cycles(seed in proptest::collection::vec(0u8..=255, 1..32)) {
            let mut g = HashDrbg::new(&seed);
            let a = g.bytes(64);
            let b = g.bytes(64);
            proptest::prop_assert_ne!(a, b);
        }
    }
}
