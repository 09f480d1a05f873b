//! SHA-256 and SHA-512 (FIPS 180-4).
//!
//! Both hashes follow the same Merkle-Damgård structure; they differ in
//! word size, round count and constants, so they are implemented as two
//! concrete types rather than one generic to keep the inner loops simple
//! and monomorphic. `update` hands every whole block of its input to the
//! compression function in one call, and `finalize` pads in one
//! `update`. SHA-256 compresses on the CPU's SHA extensions where it has
//! them ([`Kernel::ShaNi`]; DESIGN.md "Hash kernels").

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K256: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-512 round constants.
const K512: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

/// Which code runs SHA-256's compression function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// The FIPS 180-4 rounds in `u32` arithmetic: any CPU.
    Scalar,
    /// Two rounds per instruction with the x86 SHA extensions
    /// (`sha256rnds2`, message schedule by `sha256msg1`/`sha256msg2`).
    ShaNi,
}

impl Kernel {
    /// Every kernel, slowest first.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::ShaNi];

    /// Whether this CPU can execute the kernel.
    pub fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::ShaNi => false,
        }
    }

    /// The kernel [`Sha256::new`] hashes with on this CPU: the fastest
    /// it supports.
    pub fn detect() -> Kernel {
        if Kernel::ShaNi.supported() {
            Kernel::ShaNi
        } else {
            Kernel::Scalar
        }
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use libseal_crypto::sha2::Sha256;
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the FIPS 180-4 initial state, hashing
    /// with [`Kernel::detect`]'s kernel.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    /// [`Self::new`] hashing with `kernel` (the equivalence tests run
    /// each).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn with_kernel(kernel: Kernel) -> Self {
        assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            kernel,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        Self::digest_with(Kernel::detect(), data)
    }

    /// [`Self::digest`] through `kernel`.
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress_blocks(
                self.kernel,
                &mut self.state,
                core::slice::from_ref(&self.buf),
            );
        }
        let (blocks, rest) = data.as_chunks::<64>();
        compress_blocks(self.kernel, &mut self.state, blocks);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // 0x80, zeros up to 56 mod 64, the 64-bit bit length: one update.
        let mut pad = [0u8; 72];
        let len = 1 + (119 - self.buf_len) % 64 + 8;
        pad[0] = 0x80;
        pad[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.update(&pad[..len]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (o, w) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *o = w.to_be_bytes();
        }
        out
    }
}

/// Runs `blocks` through `kernel`'s compression function.
fn compress_blocks(kernel: Kernel, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    if blocks.is_empty() {
        return;
    }
    match kernel {
        Kernel::Scalar => compress_scalar(state, blocks),
        #[cfg(target_arch = "x86_64")]
        Kernel::ShaNi => {
            // SAFETY: `Sha256::with_kernel` detected sha and sse4.1 on this CPU.
            unsafe { x86::compress_blocks(state, blocks) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::ShaNi => unreachable!("only Scalar is supported off x86-64"),
    }
}

/// The reference kernel: FIPS 180-4 §6.2.2, one round at a time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (w, word) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *w = u32::from_be_bytes(*word);
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
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K256[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// [`Kernel::ShaNi`]: safe `core::arch` code behind `#[target_feature]`;
/// words go in by `_mm_setr_epi32` and out by `_mm_extract_epi32`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K256;
    use core::arch::x86_64::*;

    /// Four big-endian message words, the first in lane 0.
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        let (w, _) = bytes.as_chunks::<4>();
        let [w0, w1, w2, w3] = [w[0], w[1], w[2], w[3]].map(|b| u32::from_be_bytes(b) as i32);
        _mm_setr_epi32(w0, w1, w2, w3)
    }

    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        let k: [__m128i; 16] = core::array::from_fn(|i| {
            let [k0, k1, k2, k3] = [0, 1, 2, 3].map(|j| K256[4 * i + j] as i32);
            _mm_setr_epi32(k0, k1, k2, k3)
        });
        // `sha256rnds2` holds the working variables as ABEF and CDGH,
        // the first named in the high lane; they stay in registers
        // from the first block to the last.
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_setr_epi32(f, e, b, a);
        let mut cdgh = _mm_setr_epi32(h, g, d, c);
        for block in blocks {
            let (abef0, cdgh0) = (abef, cdgh);
            let (q, _) = block.as_chunks::<16>();
            let mut w = [load(&q[0]), load(&q[1]), load(&q[2]), load(&q[3])];
            for (i, k) in k.iter().enumerate() {
                if i >= 4 {
                    // W[t] from W[t-16..t-12], W[t-7..t-3] and W[t-2..t].
                    let x = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                    let x = _mm_add_epi32(x, _mm_alignr_epi8::<4>(w[(i + 3) % 4], w[(i + 2) % 4]));
                    w[i % 4] = _mm_sha256msg2_epu32(x, w[(i + 3) % 4]);
                }
                let wk = _mm_add_epi32(w[i % 4], *k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }
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
        .map(|v| v as u32);
    }
}

/// Incremental SHA-512 hasher.
#[derive(Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buf: [u8; 128],
    buf_len: usize,
    total_len: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a fresh hasher in the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha512 {
            state: [
                0x6a09e667f3bcc908,
                0xbb67ae8584caa73b,
                0x3c6ef372fe94f82b,
                0xa54ff53a5f1d36f1,
                0x510e527fade682d1,
                0x9b05688c2b3e6c1f,
                0x1f83d9abfb41bd6b,
                0x5be0cd19137e2179,
            ],
            buf: [0u8; 128],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u128);
        if self.buf_len > 0 {
            let take = (128 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 128 {
                return;
            }
            Self::compress(&mut self.state, &self.buf);
        }
        let (blocks, rest) = data.as_chunks::<128>();
        for block in blocks {
            Self::compress(&mut self.state, block);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the hash and returns the 64-byte digest.
    pub fn finalize(mut self) -> [u8; 64] {
        // 0x80, zeros up to 112 mod 128, the 128-bit bit length: one
        // update.
        let mut pad = [0u8; 144];
        let len = 1 + (239 - self.buf_len) % 128 + 16;
        pad[0] = 0x80;
        pad[len - 16..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.update(&pad[..len]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 64];
        for (o, w) in out.as_chunks_mut::<8>().0.iter_mut().zip(self.state) {
            *o = w.to_be_bytes();
        }
        out
    }

    fn compress(state: &mut [u64; 8], block: &[u8; 128]) {
        let mut w = [0u64; 80];
        for (w, word) in w.iter_mut().zip(block.as_chunks::<8>().0) {
            *w = u64::from_be_bytes(*word);
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K512[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 200] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk={chunk}");
        }
    }

    #[test]
    fn sha512_empty() {
        assert_eq!(
            hex(&Sha512::digest(b"")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
        );
    }

    #[test]
    fn sha512_abc() {
        assert_eq!(
            hex(&Sha512::digest(b"abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
        );
    }

    #[test]
    fn sha512_two_blocks() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha512::digest(msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
        );
    }

    #[test]
    fn sha512_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        for chunk in [1usize, 5, 127, 128, 129, 500] {
            let mut h = Sha512::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize().to_vec(), Sha512::digest(&data).to_vec());
        }
    }
}
