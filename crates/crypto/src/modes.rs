//! The block cipher mode of operation: CTR.
//!
//! The SecModule kernel encrypts module text with CTR, which is
//! length-preserving: the encrypted image keeps its exact layout, so
//! relocation offsets remain valid.

use crate::aes::{Aes, BLOCK_SIZE};

/// Encrypt an arbitrary byte range with CTR, starting the keystream at the
/// counter corresponding to `byte_offset` within the overall stream.
///
/// This allows the selective encryptor to encrypt disjoint ranges of a module
/// image while producing exactly the same bytes as a single whole-image pass:
/// the keystream position is derived from the absolute byte offset.
pub fn ctr_xor_at(aes: &Aes, nonce: &[u8; 8], byte_offset: usize, data: &mut [u8]) {
    // Generate the keystream block-by-block, aligned to the absolute offset.
    let mut pos = byte_offset;
    let mut idx = 0usize;
    while idx < data.len() {
        let block_no = (pos / BLOCK_SIZE) as u64;
        let in_block = pos % BLOCK_SIZE;
        let mut block = [0u8; BLOCK_SIZE];
        block[..8].copy_from_slice(nonce);
        block[8..].copy_from_slice(&block_no.to_be_bytes());
        aes.encrypt_block(&mut block);
        let n = usize::min(BLOCK_SIZE - in_block, data.len() - idx);
        for i in 0..n {
            data[idx + i] ^= block[in_block + i];
        }
        idx += n;
        pos += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::AesKey;

    fn test_aes() -> Aes {
        Aes::new(&AesKey::Aes128(*b"0123456789abcdef"))
    }

    #[test]
    fn ctr_roundtrip() {
        let aes = test_aes();
        let nonce = [1u8; 8];
        let original: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut data = original.clone();
        ctr_xor_at(&aes, &nonce, 0, &mut data);
        assert_ne!(data, original);
        ctr_xor_at(&aes, &nonce, 0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn ctr_xor_at_matches_full_pass() {
        let aes = test_aes();
        let nonce = [7u8; 8];
        let original: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();

        // Whole-buffer pass.
        let mut whole = original.clone();
        ctr_xor_at(&aes, &nonce, 0, &mut whole);

        // Piecewise pass over odd-sized, unaligned ranges.
        let mut piecewise = original.clone();
        let cuts = [0usize, 13, 14, 47, 160, 161, 300];
        for w in cuts.windows(2) {
            let (start, end) = (w[0], w[1]);
            ctr_xor_at(&aes, &nonce, start, &mut piecewise[start..end]);
        }
        assert_eq!(whole, piecewise);
    }

    #[test]
    fn ctr_is_length_preserving() {
        let aes = test_aes();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 1000] {
            let mut data = vec![0xA5u8; len];
            ctr_xor_at(&aes, &[0u8; 8], 0, &mut data);
            assert_eq!(data.len(), len);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_ctr_roundtrip(data in proptest::collection::vec(0u8..=255, 0..512),
                              nonce in proptest::array::uniform8(0u8..=255),
                              offset in 0usize..1_000_000) {
            let aes = test_aes();
            let mut buf = data.clone();
            ctr_xor_at(&aes, &nonce, offset, &mut buf);
            ctr_xor_at(&aes, &nonce, offset, &mut buf);
            proptest::prop_assert_eq!(buf, data);
        }
    }
}
