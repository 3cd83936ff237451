//! SHA-256 (FIPS 180-4).
//!
//! The round constants and initial hash values are *derived* at first use
//! from exact integer square/cube roots of the first primes rather than
//! hard-coded, and the implementation is validated against the standard
//! known-answer vectors.

/// Output size of SHA-256 in bytes.
pub const DIGEST_SIZE: usize = 32;

/// Internal block size in bytes.
pub const BLOCK_SIZE: usize = 64;

fn first_primes(n: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(n);
    let mut candidate = 2u64;
    while primes.len() < n {
        if primes.iter().all(|&p| !candidate.is_multiple_of(p)) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

/// floor(sqrt(p) * 2^32) mod 2^32, computed exactly with integer arithmetic.
fn frac_sqrt_bits(p: u64) -> u32 {
    // x = isqrt(p << 64); then the low 32 bits of x are the fractional bits.
    let target = (p as u128) << 64;
    let mut lo: u128 = 0;
    let mut hi: u128 = 1u128 << 67; // sqrt(p * 2^64) < 2^67 for p < 2^6
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if mid.checked_mul(mid).map(|m| m <= target).unwrap_or(false) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo & 0xFFFF_FFFF) as u32
}

/// floor(cbrt(p) * 2^32) mod 2^32, computed exactly with integer arithmetic.
fn frac_cbrt_bits(p: u64) -> u32 {
    // x = icbrt(p << 96); low 32 bits of x are the fractional bits.
    // x < 2^35 * cbrt(p) ... for p < 312, cbrt(p) < 7, so x < 2^35.
    let target = (p as u128) << 96;
    let mut lo: u128 = 0;
    let mut hi: u128 = 1u128 << 36;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        let sq = mid * mid; // < 2^72
        if sq.checked_mul(mid).map(|m| m <= target).unwrap_or(false) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo & 0xFFFF_FFFF) as u32
}

fn constants() -> &'static ([u32; 8], [u32; 64]) {
    use std::sync::OnceLock;
    static CONSTS: OnceLock<([u32; 8], [u32; 64])> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let primes = first_primes(64);
        let mut h = [0u32; 8];
        for i in 0..8 {
            h[i] = frac_sqrt_bits(primes[i]);
        }
        let mut k = [0u32; 64];
        for i in 0..64 {
            k[i] = frac_cbrt_bits(primes[i]);
        }
        (h, k)
    })
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_SIZE],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish()
    }
}

impl Sha256 {
    /// Create a new hasher.
    pub fn new() -> Self {
        let (h, _) = constants();
        Sha256 {
            state: *h,
            buffer: [0u8; BLOCK_SIZE],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = usize::min(BLOCK_SIZE - self.buffer_len, data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_SIZE {
                return;
            }
            compress(&mut self.state, &self.buffer);
        }
        // Whole blocks compress where they lie.
        while let Some((block, rest)) = data.split_first_chunk() {
            compress(&mut self.state, block);
            data = rest;
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffer_len = data.len();
    }

    /// Finish hashing and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_SIZE] {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeros, then the 64-bit big-endian length: one block, or
        // two when the 0x80 leaves no room for the length in this one.
        let end = self.buffer_len + 1;
        self.buffer[end - 1] = 0x80;
        self.buffer[end..].fill(0);
        if end > BLOCK_SIZE - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; BLOCK_SIZE];
        }
        self.buffer[BLOCK_SIZE - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; DIGEST_SIZE];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// Compress one block into `state`: on the CPU's SHA unit where it has
/// one, in the portable rounds otherwise.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `detected` has just found every feature the kernel's
        // `target_feature` enables on the CPU this runs on.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress(state, block)
        };
        return;
    }
    compress_portable(state, block);
}

/// The FIPS 180-4 rounds in plain integer code: the reference the SHA
/// unit's kernel is tested against, and the path every other CPU takes.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
    let (_, k) = constants();
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(k[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The rounds on the x86 SHA extensions: `sha256rnds2` runs two rounds
/// per instruction over the state split as ABEF and CDGH, and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at
/// a time. The intrinsics take no pointers: words go in with
/// `_mm_set_epi32` and come out with `_mm_extract_epi32`, so nothing in
/// here is `unsafe` but the call into it.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::BLOCK_SIZE;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Whether the running CPU has every feature [`compress`] enables
    /// beyond the x86-64 baseline.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Lanes 0..4 hold `w[0..4]`.
    #[target_feature(enable = "sse2")]
    fn lanes(w: &[u32]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// [`super::compress_portable`], on the SHA unit.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_SIZE]) {
        let (_, k) = super::constants();
        let [a, b, c, d, e, f, g, h] = *state;
        // The layout `sha256rnds2` works on: A in the top lane.
        let abef0 = lanes(&[f, e, b, a]);
        let cdgh0 = lanes(&[h, g, d, c]);
        let (mut abef, mut cdgh) = (abef0, cdgh0);
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        // The message schedule's last four groups of four words: W[4j..4j + 4]
        // sits in slot j % 4.
        let mut sched = [
            lanes(&w[0..4]),
            lanes(&w[4..8]),
            lanes(&w[8..12]),
            lanes(&w[12..16]),
        ];
        for j in 0..16 {
            if j >= 4 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
                let [w16, w12, w8, w4] =
                    [j % 4, (j + 1) % 4, (j + 2) % 4, (j + 3) % 4].map(|i| sched[i]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8::<4>(w4, w8));
                sched[j % 4] = _mm_sha256msg2_epu32(partial, w4);
            }
            let wk = _mm_add_epi32(sched[j % 4], lanes(&k[4 * j..4 * j + 4]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        let (abef, cdgh) = (_mm_add_epi32(abef, abef0), _mm_add_epi32(cdgh, cdgh0));
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|lane| lane as u32);
    }
}

/// Hex-encode a byte slice (lower-case); small helper used across the workspace.
pub fn to_hex(bytes: &[u8]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(NIBBLES[usize::from(b >> 4)] as char);
        s.push(NIBBLES[usize::from(b & 0xf)] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_match_fips() {
        let (h, k) = constants();
        // First initial-hash word and first/last round constants from FIPS 180-4.
        assert_eq!(h[0], 0x6a09e667);
        assert_eq!(h[7], 0x5be0cd19);
        assert_eq!(k[0], 0x428a2f98);
        assert_eq!(k[63], 0xc67178f2);
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            to_hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let oneshot = Sha256::digest(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn to_hex_works() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(to_hex(&[]), "");
        let every: Vec<u8> = (0..=255).collect();
        let expected: String = every.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&every), expected);
    }

    /// SHA-256 of `data` through the portable rounds alone, padded here
    /// rather than by `Sha256`, so the reference is checked on a CPU
    /// whose `compress` never runs it.
    fn portable_digest(data: &[u8]) -> [u8; DIGEST_SIZE] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % BLOCK_SIZE != BLOCK_SIZE - 8 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = constants().0;
        for block in message.chunks_exact(BLOCK_SIZE) {
            compress_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; DIGEST_SIZE];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn portable_rounds_match_fips_vectors() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &[b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (data, expected) in vectors {
            assert_eq!(
                to_hex(&portable_digest(data)),
                expected,
                "{} bytes",
                data.len()
            );
        }
    }

    /// Where the CPU lacks the SHA extensions, `compress` is the portable
    /// rounds, and the differential test compares them with themselves:
    /// say so, once.
    fn note_a_cpu_without_sha_ni() {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            return;
        }
        static SAID: std::sync::Once = std::sync::Once::new();
        SAID.call_once(|| {
            println!("sha256: this CPU has no SHA extensions; only the portable rounds are checked")
        });
    }

    proptest::proptest! {
        #[test]
        fn prop_dispatched_compress_matches_portable(
            state in proptest::array::uniform8(proptest::num::u32::ANY),
            block in proptest::collection::vec(proptest::num::u8::ANY, BLOCK_SIZE),
        ) {
            note_a_cpu_without_sha_ni();
            let block: &[u8; BLOCK_SIZE] = block.as_slice().try_into().unwrap();
            let mut reference = state;
            compress_portable(&mut reference, block);
            let mut dispatched = state;
            compress(&mut dispatched, block);
            proptest::prop_assert_eq!(dispatched, reference);
        }

        #[test]
        fn prop_split_invariance(data in proptest::collection::vec(0u8..=255, 0..2048),
                                 split in 0usize..2048) {
            let split = split.min(data.len());
            let oneshot = Sha256::digest(&data);
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            proptest::prop_assert_eq!(h.finalize(), oneshot);
        }

        #[test]
        fn prop_distinct_inputs_distinct_digests(a in proptest::collection::vec(0u8..=255, 0..128),
                                                 b in proptest::collection::vec(0u8..=255, 0..128)) {
            if a != b {
                proptest::prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
            }
        }
    }
}
