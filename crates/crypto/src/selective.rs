//! Relocation-aware ("selective") encryption of module text.
//!
//! The paper (§4.1) protects the library text by encrypting it with a key
//! known only to the kernel, but explicitly skips "any locations in the
//! library that will need to be modified by the linking process" so the
//! encrypted library is *still linkable* with ordinary tools.  This module
//! implements exactly that: given a byte buffer and a set of skip ranges
//! (relocation targets), every byte outside the skip ranges is encrypted
//! with AES-CTR keyed at the byte's absolute offset, and every byte inside a
//! skip range is left untouched.
//!
//! CTR keyed by absolute offset is essential: the linker may rewrite the
//! skipped bytes at any time, and decryption of the protected bytes must not
//! depend on the (mutable) skipped bytes.

use crate::aes::{Aes, AesKey};
use crate::modes::ctr_xor_at;
use crate::{CryptoError, Result};

/// A half-open byte range `[start, end)` that must not be encrypted because
/// the link editor needs to patch it (e.g. a relocation target).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SkipRange {
    /// First byte of the range.
    pub start: usize,
    /// One past the last byte of the range.
    pub end: usize,
}

impl SkipRange {
    /// Create a new skip range; `start <= end` is required.
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "invalid skip range");
        SkipRange { start, end }
    }

    /// Length of the range in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Does this range contain byte offset `off`?
    pub fn contains(&self, off: usize) -> bool {
        off >= self.start && off < self.end
    }

    /// Does this range overlap another?
    pub fn overlaps(&self, other: &SkipRange) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// Normalise a list of skip ranges: sort, drop empties, merge overlaps and
/// adjacent ranges.
fn normalize_ranges(mut ranges: Vec<SkipRange>) -> Vec<SkipRange> {
    ranges.retain(|r| !r.is_empty());
    ranges.sort();
    let mut out: Vec<SkipRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match out.last_mut() {
            Some(last) if r.start <= last.end => {
                last.end = last.end.max(r.end);
            }
            _ => out.push(r),
        }
    }
    out
}

/// Selective encryptor for module text sections.
#[derive(Clone)]
pub struct SelectiveEncryptor {
    aes: Aes,
    nonce: [u8; 8],
}

impl std::fmt::Debug for SelectiveEncryptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SelectiveEncryptor(<keyed>)")
    }
}

impl SelectiveEncryptor {
    /// Create an encryptor from key bytes (16/24/32) and an 8-byte nonce.
    pub fn new(key: &[u8], nonce: [u8; 8]) -> Result<Self> {
        let key = AesKey::from_bytes(key)?;
        Ok(SelectiveEncryptor {
            aes: Aes::new(&key),
            nonce,
        })
    }

    /// Encrypt (or decrypt — the operation is an involution) every byte of
    /// `data` that falls outside `skip_ranges`.
    ///
    /// Ranges extending past the end of `data` are an error.
    pub fn apply(&self, data: &mut [u8], skip_ranges: &[SkipRange]) -> Result<()> {
        let ranges = normalize_ranges(skip_ranges.to_vec());
        if let Some(last) = ranges.last() {
            if last.end > data.len() {
                return Err(CryptoError::InvalidLength {
                    reason: "skip range extends past end of data",
                });
            }
        }
        let mut cursor = 0usize;
        for r in &ranges {
            if cursor < r.start {
                let (start, end) = (cursor, r.start);
                ctr_xor_at(&self.aes, &self.nonce, start, &mut data[start..end]);
            }
            cursor = r.end;
        }
        if cursor < data.len() {
            let len = data.len();
            ctr_xor_at(&self.aes, &self.nonce, cursor, &mut data[cursor..len]);
        }
        Ok(())
    }

    /// Count how many bytes of a buffer of length `len` would be protected
    /// (encrypted) given the skip ranges.
    pub fn protected_bytes(len: usize, skip_ranges: &[SkipRange]) -> usize {
        let ranges = normalize_ranges(skip_ranges.to_vec());
        let skipped: usize = ranges
            .iter()
            .map(|r| r.end.min(len).saturating_sub(r.start.min(len)))
            .sum();
        len - skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> SelectiveEncryptor {
        SelectiveEncryptor::new(b"0123456789abcdef", [3u8; 8]).unwrap()
    }

    #[test]
    fn skip_range_basics() {
        let r = SkipRange::new(4, 8);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert!(r.contains(4) && r.contains(7));
        assert!(!r.contains(8) && !r.contains(3));
        assert!(r.overlaps(&SkipRange::new(7, 10)));
        assert!(!r.overlaps(&SkipRange::new(8, 10)));
        assert!(SkipRange::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic]
    fn skip_range_rejects_inverted() {
        SkipRange::new(8, 4);
    }

    #[test]
    fn normalize_merges_and_sorts() {
        let ranges = vec![
            SkipRange::new(10, 20),
            SkipRange::new(0, 5),
            SkipRange::new(15, 25),
            SkipRange::new(5, 5),
            SkipRange::new(25, 30),
        ];
        assert_eq!(
            normalize_ranges(ranges),
            vec![SkipRange::new(0, 5), SkipRange::new(10, 30)]
        );
        assert_eq!(normalize_ranges(vec![]), vec![]);
    }

    #[test]
    fn encryption_is_involution() {
        let e = enc();
        let original: Vec<u8> = (0..500u32).map(|i| (i % 256) as u8).collect();
        let skips = vec![SkipRange::new(10, 20), SkipRange::new(100, 116)];
        let mut data = original.clone();
        e.apply(&mut data, &skips).unwrap();
        assert_ne!(data, original);
        e.apply(&mut data, &skips).unwrap();
        assert_eq!(data, original);
    }

    #[test]
    fn skipped_bytes_are_untouched() {
        let e = enc();
        let original: Vec<u8> = (0..300u32).map(|i| (i * 13 % 256) as u8).collect();
        let skips = vec![
            SkipRange::new(0, 4),
            SkipRange::new(50, 54),
            SkipRange::new(296, 300),
        ];
        let mut data = original.clone();
        e.apply(&mut data, &skips).unwrap();
        for r in &skips {
            assert_eq!(&data[r.start..r.end], &original[r.start..r.end]);
        }
        // And everything else must have changed somewhere.
        assert_ne!(data, original);
    }

    #[test]
    fn decryption_ignores_linker_patches_to_skipped_bytes() {
        // Core property from the paper: the linker may rewrite relocation
        // targets *after* encryption, and decryption of the protected bytes
        // must still succeed.
        let e = enc();
        let original: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let skips = vec![SkipRange::new(20, 28), SkipRange::new(100, 104)];
        let mut image = original.clone();
        e.apply(&mut image, &skips).unwrap();

        // Simulate the link editor patching the relocation targets.
        for r in &skips {
            for b in &mut image[r.start..r.end] {
                *b = 0xEE;
            }
        }

        // Kernel-side decryption of the protected bytes.
        e.apply(&mut image, &skips).unwrap();
        for (i, (&got, &want)) in image.iter().zip(original.iter()).enumerate() {
            let skipped = skips.iter().any(|r| r.contains(i));
            if skipped {
                assert_eq!(got, 0xEE, "patched byte at {i} should remain patched");
            } else {
                assert_eq!(got, want, "protected byte at {i} should decrypt");
            }
        }
    }

    #[test]
    fn whole_buffer_skip_is_a_noop() {
        let e = enc();
        let original = vec![7u8; 64];
        let mut data = original.clone();
        e.apply(&mut data, &[SkipRange::new(0, 64)]).unwrap();
        assert_eq!(data, original);
    }

    #[test]
    fn out_of_bounds_skip_is_rejected() {
        let e = enc();
        let mut data = vec![0u8; 10];
        assert!(e.apply(&mut data, &[SkipRange::new(5, 11)]).is_err());
    }

    #[test]
    fn protected_byte_counting() {
        let skips = vec![SkipRange::new(0, 10), SkipRange::new(20, 30)];
        assert_eq!(SelectiveEncryptor::protected_bytes(100, &skips), 80);
        assert_eq!(SelectiveEncryptor::protected_bytes(25, &skips), 10);
        assert_eq!(SelectiveEncryptor::protected_bytes(0, &skips), 0);
        assert_eq!(SelectiveEncryptor::protected_bytes(100, &[]), 100);
    }

    #[test]
    fn invalid_key_is_rejected() {
        assert!(SelectiveEncryptor::new(b"short", [0u8; 8]).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_involution_with_random_ranges(
            data in proptest::collection::vec(0u8..=255, 1..512),
            raw_ranges in proptest::collection::vec((0usize..512, 0usize..64), 0..8)) {
            let e = enc();
            let skips: Vec<SkipRange> = raw_ranges.iter()
                .map(|&(s, l)| {
                    let start = s.min(data.len());
                    let end = (s + l).min(data.len());
                    SkipRange::new(start, end)
                })
                .collect();
            let mut buf = data.clone();
            e.apply(&mut buf, &skips).unwrap();
            e.apply(&mut buf, &skips).unwrap();
            proptest::prop_assert_eq!(buf, data);
        }

        #[test]
        fn prop_skipped_regions_never_modified(
            data in proptest::collection::vec(0u8..=255, 32..256),
            start in 0usize..128, len in 1usize..64) {
            let e = enc();
            let start = start.min(data.len() - 1);
            let end = (start + len).min(data.len());
            let skip = SkipRange::new(start, end);
            let mut buf = data.clone();
            e.apply(&mut buf, &[skip]).unwrap();
            proptest::prop_assert_eq!(&buf[start..end], &data[start..end]);
        }
    }
}
