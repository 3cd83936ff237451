//! HMAC-SHA-256 (RFC 2104), used to MAC SecModule credentials and
//! registration blobs so the simulated kernel can detect tampering.

use crate::sha256::{Sha256, BLOCK_SIZE, DIGEST_SIZE};

/// Incremental HMAC-SHA-256.
///
/// A fresh instance holds the key's schedule: the inner and the outer
/// hash state, each past its padded key block. Cloning one keyed
/// instance per message skips both key compressions, which is how a
/// registered key is kept.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HmacSha256(<redacted key>)")
    }
}

impl HmacSha256 {
    /// Create an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let digest = Sha256::digest(key);
            key_block[..DIGEST_SIZE].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK_SIZE];
        let mut opad = [0u8; BLOCK_SIZE];
        for i in 0..BLOCK_SIZE {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_SIZE] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC computation.
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Verify a tag in constant time.
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        crate::ct_eq(&Self::mac(key, message), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn verify_accepts_good_rejects_bad() {
        let tag = HmacSha256::mac(b"key", b"msg");
        assert!(HmacSha256::verify(b"key", b"msg", &tag));
        assert!(!HmacSha256::verify(b"key", b"msg2", &tag));
        assert!(!HmacSha256::verify(b"key2", b"msg", &tag));
        assert!(!HmacSha256::verify(b"key", b"msg", &tag[..31]));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"secret");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), HmacSha256::mac(b"secret", b"hello world"));
    }

    proptest::proptest! {
        #[test]
        fn prop_a_scheduled_key_cloned_per_message_matches_mac(
            key in proptest::collection::vec(0u8..=255, 0..=200),
            msgs in proptest::collection::vec(
                proptest::collection::vec(0u8..=255, 0..300), 1..16)) {
            let scheduled = HmacSha256::new(&key);
            for msg in &msgs {
                let mut h = scheduled.clone();
                h.update(msg);
                proptest::prop_assert_eq!(h.finalize(), HmacSha256::mac(&key, msg));
            }
        }

        #[test]
        fn prop_mac_depends_on_key_and_message(
            key_a in proptest::collection::vec(0u8..=255, 1..64),
            key_b in proptest::collection::vec(0u8..=255, 1..64),
            msg in proptest::collection::vec(0u8..=255, 0..256)) {
            let a = HmacSha256::mac(&key_a, &msg);
            let b = HmacSha256::mac(&key_b, &msg);
            if key_a == key_b {
                proptest::prop_assert_eq!(a, b);
            } else {
                proptest::prop_assert_ne!(a, b);
            }
        }
    }
}
