//! AES-256-GCM (NIST SP 800-38D) with 96-bit nonces and 16-byte tags.
//!
//! The record layer, sealed storage and the audit log's journal all
//! protect data with it. Every AES round runs on the CPU's AES unit and
//! every GHASH product on its carry-less multiplier: there is no
//! table-driven software AES, whose cache footprint would reveal the
//! key to the host (DESIGN.md "Record crypto kernels"). A CPU without
//! AES-NI and PCLMULQDQ cannot run this cipher; [`require_cpu`] says so
//! as an error before anything is built on it.
//!
//! GHASH is computed as POLYVAL (RFC 8452, Appendix A): blocks are
//! byte-reversed on load so a carry-less product needs no bit
//! reflection, the hash key is multiplied by `x` once, and each sum of
//! products is reduced by one Montgomery step.

use crate::ct;
use crate::{CryptoError, Result};
use core::arch::x86_64::__m128i as Block;

/// Which code runs the counter mode and GHASH of [`Aes256Gcm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// 128-bit AES-NI and PCLMULQDQ: four counter blocks interleaved
    /// per step and up to eight GHASH blocks per reduction.
    Aesni,
    /// VAES counter mode, sixteen blocks per pass in four 512-bit
    /// registers, and VPCLMULQDQ GHASH over H¹…H¹⁶ with one reduction
    /// per 256 bytes; what is left after the last whole 256 bytes goes
    /// through [`Kernel::Aesni`].
    Vaes512,
}

impl Kernel {
    /// Every kernel, slowest first.
    pub const ALL: [Kernel; 2] = [Kernel::Aesni, Kernel::Vaes512];

    /// Whether this CPU can execute the kernel.
    pub fn supported(self) -> bool {
        is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
            && (self == Kernel::Aesni
                || is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("vaes")
                    && is_x86_feature_detected!("vpclmulqdq"))
    }

    /// The kernel [`Aes256Gcm`] runs every message through: the 512-bit
    /// one where the CPU has it, else [`Kernel::Aesni`].
    pub fn best() -> Kernel {
        if Kernel::Vaes512.supported() {
            Kernel::Vaes512
        } else {
            Kernel::Aesni
        }
    }
}

/// `Ok` if this CPU can run AES-256-GCM, else
/// [`CryptoError::Unsupported`]: what builders check before
/// [`Aes256Gcm::new`], which panics instead.
pub fn require_cpu() -> Result<()> {
    if Kernel::Aesni.supported() {
        Ok(())
    } else {
        Err(CryptoError::Unsupported)
    }
}

/// An AES-256-GCM instance bound to a 256-bit key: its fifteen round
/// keys and sixteen powers of the hash key, about half a kilobyte, held
/// as the registers the kernels load.
#[derive(Clone)]
pub struct Aes256Gcm {
    round_keys: [Block; 15],
    /// POLYVAL's hash key `H·x` and its powers, H¹⁶ first and H¹ last,
    /// so four consecutive entries are the lanes of one 512-bit factor.
    powers: [Block; 16],
}

impl Aes256Gcm {
    /// Expands `key` on the CPU's AES unit.
    ///
    /// # Panics
    ///
    /// If this CPU lacks AES-NI, PCLMULQDQ or SSE4.1: every product
    /// path checks [`require_cpu`] first and returns an error.
    pub fn new(key: &[u8; 32]) -> Self {
        assert!(Kernel::Aesni.supported(), "{}", CryptoError::Unsupported);
        // SAFETY: `supported` detected aes, pclmulqdq and sse4.1 on this CPU.
        let (round_keys, powers) = unsafe { x86::expand(key) };
        Aes256Gcm { round_keys, powers }
    }

    /// Runs one message through `kernel` and returns the tag of `aad`
    /// and the ciphertext. Sealing (`expected` = `None`) encrypts
    /// `data` first; opening decrypts it only if the tag equals
    /// `expected`, and otherwise leaves it as it was.
    fn run(
        &self,
        kernel: Kernel,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
        expected: Option<&[u8; 16]>,
    ) -> [u8; 16] {
        assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
        match kernel {
            // SAFETY: `supported` detected aes, pclmulqdq and sse4.1 on this CPU.
            Kernel::Aesni => unsafe { x86::aead_narrow(self, nonce, aad, data, expected) },
            // SAFETY: `supported` detected avx512f, avx512bw, vaes and vpclmulqdq too.
            Kernel::Vaes512 => unsafe { x86::aead_wide(self, nonce, aad, data, expected) },
        }
    }

    /// Encrypts `data` in place and returns the 16-byte tag.
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; 16] {
        self.seal_in_place_with(Kernel::best(), nonce, aad, data)
    }

    /// [`Self::seal_in_place`] through `kernel` instead of the one
    /// [`Kernel::best`] picks (the equivalence tests call each).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn seal_in_place_with(
        &self,
        kernel: Kernel,
        nonce: &[u8; 12],
        aad: &[u8],
        data: &mut [u8],
    ) -> [u8; 16] {
        self.run(kernel, nonce, aad, data, None)
    }

    /// Encrypts `plaintext`, returning `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + 16);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts `ciphertext || tag` in place and returns
    /// the plaintext, the leading bytes of `sealed`.
    ///
    /// On tag mismatch `sealed` is left as it was: nothing is decrypted
    /// before it is authenticated.
    pub fn open_in_place<'a>(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8]> {
        self.open_in_place_with(Kernel::best(), nonce, aad, sealed)
    }

    /// [`Self::open_in_place`] through `kernel` instead of the one
    /// [`Kernel::best`] picks.
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn open_in_place_with<'a>(
        &self,
        kernel: Kernel,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8]> {
        let Some(len) = sealed.len().checked_sub(16) else {
            return Err(CryptoError::BadLength);
        };
        let (data, tag) = sealed.split_at_mut(len);
        let mut expected = [0u8; 16];
        expected.copy_from_slice(tag);
        if !ct::eq(
            &self.run(kernel, nonce, aad, data, Some(&expected)),
            &expected,
        ) {
            return Err(CryptoError::BadTag);
        }
        Ok(data)
    }

    /// Decrypts `ciphertext || tag` produced by [`Self::seal`].
    pub fn open(&self, nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>> {
        let mut data = sealed.to_vec();
        let len = self.open_in_place(nonce, aad, &mut data)?.len();
        data.truncate(len);
        Ok(data)
    }
}

/// The kernels: safe `core::arch` code behind `#[target_feature]`
/// entries. Loads and stores go through byte arrays; a block enters
/// GHASH byte-reversed, so bit `i` of a register is the coefficient of
/// xⁱ and a 128×128 product is four `pclmulqdq`.
mod x86 {
    use super::Aes256Gcm;
    use crate::ct;
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn from_u128(x: u128) -> __m128i {
        _mm_set_epi64x((x >> 64) as i64, x as i64)
    }

    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn to_u128(v: __m128i) -> u128 {
        let (lo, hi) = (_mm_cvtsi128_si64(v), _mm_extract_epi64::<1>(v));
        (u128::from(hi as u64) << 64) | u128::from(lo as u64)
    }

    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn load(b: &[u8; 16]) -> __m128i {
        from_u128(u128::from_le_bytes(*b))
    }

    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn store(v: __m128i, b: &mut [u8; 16]) {
        *b = to_u128(v).to_le_bytes();
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load512(b: &[u8; 64]) -> __m512i {
        let (q, _) = b.as_chunks::<8>();
        let q: [i64; 8] = core::array::from_fn(|i| i64::from_le_bytes(q[i]));
        _mm512_setr_epi64(q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7])
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store512(v: __m512i, b: &mut [u8; 64]) {
        let (q, _) = b.as_chunks_mut::<16>();
        store(_mm512_castsi512_si128(v), &mut q[0]);
        store(_mm512_extracti32x4_epi32::<1>(v), &mut q[1]);
        store(_mm512_extracti32x4_epi32::<2>(v), &mut q[2]);
        store(_mm512_extracti32x4_epi32::<3>(v), &mut q[3]);
    }

    /// Byte order reversed within each 128-bit lane.
    #[inline]
    #[target_feature(enable = "ssse3")]
    fn reverse() -> __m128i {
        _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
    }

    /// The counter block of `nonce` with its 32-bit counter word zero:
    /// dword 3 is bytes 12..16, where the big-endian counter goes.
    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn counter_base(nonce: &[u8; 12]) -> __m128i {
        let (w, _) = nonce.as_chunks::<4>();
        let [a, b, c] = [w[0], w[1], w[2]].map(i32::from_le_bytes);
        _mm_setr_epi32(a, b, c, 0)
    }

    #[inline]
    #[target_feature(enable = "sse4.1")]
    fn counter_block(base: __m128i, ctr: u32) -> __m128i {
        _mm_insert_epi32::<3>(base, ctr.swap_bytes() as i32)
    }

    /// The 256-bit round-key schedule step: `prev` with each word
    /// XORed into the ones after it, then `assist`.
    #[inline]
    #[target_feature(enable = "aes,sse4.1")]
    fn next_key(prev: __m128i, assist: __m128i) -> __m128i {
        let mut k = prev;
        for _ in 0..3 {
            k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
        }
        _mm_xor_si128(k, assist)
    }

    /// FIPS-197 §5.2 for Nk = 8: fifteen round keys. `aeskeygenassist`
    /// with a zero round constant gives SubWord and RotWord; the
    /// constant goes in by hand, so one loop serves every round.
    #[inline]
    #[target_feature(enable = "aes,sse4.1")]
    fn round_keys(key: &[u8; 32]) -> [__m128i; 15] {
        let (halves, _) = key.as_chunks::<16>();
        let mut rk = [load(&halves[0]); 15];
        rk[1] = load(&halves[1]);
        for i in (2..15).step_by(2) {
            let t = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<0>(rk[i - 1]));
            let rcon = _mm_set1_epi32(1 << (i / 2 - 1));
            rk[i] = next_key(rk[i - 2], _mm_xor_si128(t, rcon));
            if i < 14 {
                let t = _mm_shuffle_epi32::<0xaa>(_mm_aeskeygenassist_si128::<0>(rk[i]));
                rk[i + 1] = next_key(rk[i - 1], t);
            }
        }
        rk
    }

    /// AES-256 of `N` blocks, their rounds interleaved.
    #[inline]
    #[target_feature(enable = "aes,sse4.1")]
    fn encrypt<const N: usize>(rk: &[__m128i; 15], blocks: [__m128i; N]) -> [__m128i; N] {
        let mut x = blocks.map(|b| _mm_xor_si128(b, rk[0]));
        for k in &rk[1..14] {
            x = x.map(|b| _mm_aesenc_si128(b, *k));
        }
        x.map(|b| _mm_aesenclast_si128(b, rk[14]))
    }

    /// A 256-bit carry-less product, not yet reduced: `lo`, `hi` and the
    /// middle term that straddles them.
    struct Product {
        lo: __m128i,
        mid: __m128i,
        hi: __m128i,
    }

    impl Product {
        #[inline]
        #[target_feature(enable = "pclmulqdq,sse4.1")]
        fn of(a: __m128i, b: __m128i) -> Product {
            Product {
                lo: _mm_clmulepi64_si128::<0x00>(a, b),
                mid: _mm_xor_si128(
                    _mm_clmulepi64_si128::<0x01>(a, b),
                    _mm_clmulepi64_si128::<0x10>(a, b),
                ),
                hi: _mm_clmulepi64_si128::<0x11>(a, b),
            }
        }

        #[inline]
        #[target_feature(enable = "pclmulqdq,sse4.1")]
        fn add(self, o: Product) -> Product {
            Product {
                lo: _mm_xor_si128(self.lo, o.lo),
                mid: _mm_xor_si128(self.mid, o.mid),
                hi: _mm_xor_si128(self.hi, o.hi),
            }
        }

        /// The product times x⁻¹²⁸ modulo POLYVAL's polynomial: two
        /// Montgomery steps of 64 bits, each one `pclmulqdq` by the
        /// polynomial's x⁵⁷ + x⁶² + x⁶³ (RFC 8452's `dot`).
        #[inline]
        #[target_feature(enable = "pclmulqdq,sse4.1")]
        fn reduce(self) -> __m128i {
            let lo = _mm_xor_si128(self.lo, _mm_slli_si128::<8>(self.mid));
            let hi = _mm_xor_si128(self.hi, _mm_srli_si128::<8>(self.mid));
            let poly = _mm_set1_epi64x(0xc200_0000_0000_0000_u64 as i64);
            let a = _mm_clmulepi64_si128::<0x00>(lo, poly);
            let b = _mm_xor_si128(lo, _mm_shuffle_epi32::<0x4e>(a));
            let c = _mm_clmulepi64_si128::<0x11>(b, poly);
            _mm_xor_si128(hi, _mm_xor_si128(c, b))
        }
    }

    /// `v·x` in POLYVAL's field, x¹²⁸ = x¹²⁷ + x¹²⁶ + x¹²¹ + 1.
    fn mul_x(v: u128) -> u128 {
        (v << 1) ^ ((v >> 127) * ((0xc2 << 120) | 1))
    }

    /// Round keys, then POLYVAL's H¹⁶…H¹ for [`Aes256Gcm`].
    #[target_feature(enable = "aes,pclmulqdq,sse4.1")]
    pub(super) fn expand(key: &[u8; 32]) -> ([__m128i; 15], [__m128i; 16]) {
        let rk = round_keys(key);
        let [h] = encrypt(&rk, [_mm_setzero_si128()]);
        // H's bytes read big-endian are ByteReverse(H) read
        // little-endian, POLYVAL's order; times x it is POLYVAL's key.
        let h1 = from_u128(mul_x(to_u128(_mm_shuffle_epi8(h, reverse()))));
        let mut powers = [h1; 16];
        for k in (0..15).rev() {
            powers[k] = Product::of(powers[k + 1], h1).reduce();
        }
        (rk, powers)
    }

    /// Absorbs `blocks` (at most sixteen) into the accumulator with one
    /// reduction: `(acc + b₀)·Hⁿ + b₁·Hⁿ⁻¹ + … + bₙ₋₁·H`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn absorb(h: &[__m128i; 16], acc: __m128i, blocks: &[[u8; 16]]) -> __m128i {
        let powers = &h[16 - blocks.len()..];
        let mut x = _mm_xor_si128(_mm_shuffle_epi8(load(&blocks[0]), reverse()), acc);
        let mut sum = Product::of(x, powers[0]);
        for (block, power) in blocks[1..].iter().zip(&powers[1..]) {
            x = _mm_shuffle_epi8(load(block), reverse());
            sum = sum.add(Product::of(x, *power));
        }
        sum.reduce()
    }

    /// GHASH of `data`, its last block zero-padded, eight blocks per
    /// reduction.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn ghash_narrow(h: &[__m128i; 16], mut acc: __m128i, data: &[u8]) -> __m128i {
        let (blocks, tail) = data.as_chunks::<16>();
        for eight in blocks.chunks(8) {
            acc = absorb(h, acc, eight);
        }
        if !tail.is_empty() {
            let mut last = [0u8; 16];
            last[..tail.len()].copy_from_slice(tail);
            acc = absorb(h, acc, &[last]);
        }
        acc
    }

    /// Counter mode from counter `ctr`, four blocks per step; the last
    /// step runs over a zero-padded copy.
    #[inline]
    #[target_feature(enable = "aes,sse4.1")]
    fn ctr_narrow(rk: &[__m128i; 15], base: __m128i, mut ctr: u32, data: &mut [u8]) {
        let step = |four: &mut [u8; 64], ctr: u32| {
            let blocks = core::array::from_fn(|i| counter_block(base, ctr.wrapping_add(i as u32)));
            let (chunks, _) = four.as_chunks_mut::<16>();
            for (chunk, ks) in chunks.iter_mut().zip(encrypt::<4>(rk, blocks)) {
                store(_mm_xor_si128(load(chunk), ks), chunk);
            }
        };
        let (fours, rest) = data.as_chunks_mut::<64>();
        for four in fours {
            step(four, ctr);
            ctr = ctr.wrapping_add(4);
        }
        if !rest.is_empty() {
            let mut four = [0u8; 64];
            four[..rest.len()].copy_from_slice(rest);
            step(&mut four, ctr);
            rest.copy_from_slice(&four[..rest.len()]);
        }
    }

    /// GHASH over every whole 256 bytes of `data`: four registers of
    /// four blocks times H¹⁶…H¹, summed, one reduction. Returns the
    /// accumulator and the bytes left over.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,vpclmulqdq,pclmulqdq,sse4.1")]
    fn ghash_wide<'a>(h: &[__m128i; 16], mut acc: __m128i, data: &'a [u8]) -> (__m128i, &'a [u8]) {
        let lanes = |k: usize| {
            let [a, b, c, d] = [h[k], h[k + 1], h[k + 2], h[k + 3]];
            let ab = _mm256_set_m128i(b, a);
            let cd = _mm256_set_m128i(d, c);
            _mm512_inserti64x4::<1>(_mm512_castsi256_si512(ab), cd)
        };
        let powers = [lanes(0), lanes(4), lanes(8), lanes(12)];
        let reverse = _mm512_broadcast_i32x4(reverse());
        let fold = |v: __m512i| {
            let v = _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
            _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
        };
        let (chunks, rest) = data.as_chunks::<256>();
        for chunk in chunks {
            let (quads, _) = chunk.as_chunks::<64>();
            let [mut lo, mut mid, mut hi] = [_mm512_setzero_si512(); 3];
            for (j, (quad, power)) in quads.iter().zip(powers).enumerate() {
                let mut x = _mm512_shuffle_epi8(load512(quad), reverse);
                if j == 0 {
                    x = _mm512_xor_si512(x, _mm512_zextsi128_si512(acc));
                }
                lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128::<0x00>(x, power));
                mid = _mm512_ternarylogic_epi64::<0x96>(
                    mid,
                    _mm512_clmulepi64_epi128::<0x01>(x, power),
                    _mm512_clmulepi64_epi128::<0x10>(x, power),
                );
                hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128::<0x11>(x, power));
            }
            let (lo, mid, hi) = (fold(lo), fold(mid), fold(hi));
            acc = Product { lo, mid, hi }.reduce();
        }
        (acc, rest)
    }

    /// Counter mode over every whole 256 bytes of `data` from counter
    /// `ctr`: sixteen blocks per pass, block `4j + i` in lane `i` of
    /// register `j`. Returns the counter after them and the bytes left
    /// over.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,vaes,aes,sse4.1")]
    fn ctr_wide<'a>(
        rk: &[__m128i; 15],
        base: __m128i,
        mut ctr: u32,
        data: &'a mut [u8],
    ) -> (u32, &'a mut [u8]) {
        let rk = rk.map(|k| _mm512_broadcast_i32x4(k));
        let base = _mm512_broadcast_i32x4(base);
        // Lane `i` of register `j` adds 4j + i to the counter word
        // (dword 3 of each lane); the other dwords stay zero.
        let offsets: [__m512i; 4] = core::array::from_fn(|j| {
            let j = 4 * j as i32;
            _mm512_setr_epi32(0, 0, 0, j, 0, 0, 0, j + 1, 0, 0, 0, j + 2, 0, 0, 0, j + 3)
        });
        // The counter word is big-endian on the wire.
        let swap = _mm512_broadcast_i32x4(_mm_setr_epi8(
            3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,
        ));
        let (chunks, rest) = data.as_chunks_mut::<256>();
        for chunk in chunks {
            let ctrs = _mm512_set1_epi32(ctr as i32);
            let mut x = offsets.map(|o| {
                let words = _mm512_maskz_add_epi32(0x8888, ctrs, o);
                let block = _mm512_or_si512(base, _mm512_shuffle_epi8(words, swap));
                _mm512_xor_si512(block, rk[0])
            });
            for k in &rk[1..14] {
                x = x.map(|b| _mm512_aesenc_epi128(b, *k));
            }
            let x = x.map(|b| _mm512_aesenclast_epi128(b, rk[14]));
            let (quads, _) = chunk.as_chunks_mut::<64>();
            for (quad, ks) in quads.iter_mut().zip(x) {
                store512(_mm512_xor_si512(load512(quad), ks), quad);
            }
            ctr = ctr.wrapping_add(16);
        }
        (ctr, rest)
    }

    /// The tag of `aad` and `ciphertext` before the `E(K, J₀)` mask:
    /// GHASH's last block holds both lengths in bits.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lengths(h: &[__m128i; 16], acc: __m128i, aad: &[u8], data: &[u8]) -> __m128i {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&(aad.len() as u64 * 8).to_be_bytes());
        block[8..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        absorb(h, acc, &[block])
    }

    /// Stamps out one AEAD entry per kernel: counter mode from counter
    /// 2 (counter 1 masks the tag), GHASH over the ciphertext, and the
    /// order of the two by direction.
    macro_rules! aead {
        ($name:ident, $features:literal, $ctr:expr, $ghash:expr) => {
            /// Returns the tag of `aad` and the ciphertext; seals
            /// `data` when `expected` is `None`, else opens it only if
            /// the tag equals `expected`.
            #[target_feature(enable = $features)]
            pub(super) fn $name(
                gcm: &Aes256Gcm,
                nonce: &[u8; 12],
                aad: &[u8],
                data: &mut [u8],
                expected: Option<&[u8; 16]>,
            ) -> [u8; 16] {
                let (rk, h) = (&gcm.round_keys, &gcm.powers);
                let base = counter_base(nonce);
                let [mask] = encrypt(rk, [counter_block(base, 1)]);
                if expected.is_none() {
                    $ctr(rk, base, data);
                }
                let acc = ghash_narrow(h, _mm_setzero_si128(), aad);
                let acc = $ghash(h, acc, &*data);
                let acc = lengths(h, acc, aad, data);
                let mut tag = [0u8; 16];
                store(
                    _mm_xor_si128(_mm_shuffle_epi8(acc, reverse()), mask),
                    &mut tag,
                );
                if expected.is_some_and(|e| ct::eq(&tag, e)) {
                    $ctr(rk, base, data);
                }
                tag
            }
        };
    }

    aead!(
        aead_narrow,
        "aes,pclmulqdq,sse4.1",
        |rk, base, data| ctr_narrow(rk, base, 2, data),
        ghash_narrow
    );
    aead!(
        aead_wide,
        "avx512f,avx512bw,vaes,vpclmulqdq,aes,pclmulqdq,sse4.1",
        |rk, base, data| {
            let (ctr, rest) = ctr_wide(rk, base, 2, data);
            ctr_narrow(rk, base, ctr, rest);
        },
        |h, acc, data| {
            let (acc, rest) = ghash_wide(h, acc, data);
            ghash_narrow(h, acc, rest)
        }
    );
}
