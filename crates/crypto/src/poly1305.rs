//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! The accumulator and `r` are three limbs of 44, 44 and 42 bits in
//! `u64`s with `u128` products. Long inputs go four blocks per step,
//! `(h + m₀)·r⁴ + m₁·r³ + m₂·r² + m₃·r`: the four products do not wait
//! for each other and share one carry chain. From [`crate::VECTOR_MIN`]
//! bytes on, a CPU with AVX-512 IFMA runs eight blocks per step in
//! 512-bit lanes with the same limbs (limb bounds of both in DESIGN.md
//! "Record crypto kernels").

/// Which code absorbs the whole blocks of [`Poly1305::update`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// `u128` arithmetic, four blocks per step from 256 bytes on and
    /// one per step below: any CPU.
    Scalar,
    /// Eight blocks per step, one per 64-bit lane, with the 52-bit
    /// multiply-accumulate of AVX-512 IFMA; the last 16 to 127 bytes go
    /// through [`Kernel::Scalar`].
    Ifma,
}

impl Kernel {
    /// Every kernel, slowest first.
    pub const ALL: [Kernel; 2] = [Kernel::Scalar, Kernel::Ifma];

    /// Whether this CPU can execute the kernel.
    pub fn supported(self) -> bool {
        match self {
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Ifma => false,
        }
    }

    /// The kernel [`Poly1305::update`] runs `len` bytes through.
    pub fn for_len(len: usize) -> Kernel {
        if len >= crate::VECTOR_MIN && Kernel::Ifma.supported() {
            Kernel::Ifma
        } else {
            Kernel::Scalar
        }
    }
}

/// Incremental Poly1305 MAC.
#[derive(Clone)]
pub struct Poly1305 {
    r: Multiplier,
    h: [u64; 3],
    pad: u128,
    buf: [u8; 16],
    buf_len: usize,
}

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The 2¹²⁸ bit every full block carries, as it sits in limb 2.
const HIBIT: u64 = 1 << 40;
/// Inputs shorter than this take one block per step: below it the
/// three multiplications for `r²`, `r³`, `r⁴` cost more than the wide
/// step saves.
const WIDE_MIN: usize = 256;

/// 128 bits as limbs.
#[inline(always)]
fn limbs(m: u128) -> [u64; 3] {
    [
        m as u64 & MASK44,
        (m >> 44) as u64 & MASK44,
        (m >> 88) as u64,
    ]
}

/// `h + m` for a block `m`; `hibit` is [`HIBIT`], or 0 for the padded
/// final block.
#[inline(always)]
fn add_block(h: [u64; 3], block: &[u8; 16], hibit: u64) -> [u64; 3] {
    let m = limbs(u128::from_le_bytes(*block));
    [h[0] + m[0], h[1] + m[1], h[2] + (m[2] | hibit)]
}

/// A multiplier, with the two multiples the product needs: 2¹³² ≡ 20
/// modulo 2¹³⁰ − 5, so the limbs that wrap come down multiplied by 20.
#[derive(Clone, Copy)]
struct Multiplier {
    r: [u64; 3],
    s1: u64,
    s2: u64,
}

impl Multiplier {
    fn new(r: [u64; 3]) -> Self {
        Multiplier {
            r,
            s1: r[1] * 20,
            s2: r[2] * 20,
        }
    }

    /// Adds the unreduced product `a · r` to `d`.
    #[inline(always)]
    fn mul_add(&self, a: [u64; 3], d: &mut [u128; 3]) {
        let [a0, a1, a2] = a.map(u128::from);
        let [r0, r1, r2] = self.r.map(u128::from);
        let (s1, s2) = (u128::from(self.s1), u128::from(self.s2));
        d[0] += a0 * r0 + a1 * s2 + a2 * s1;
        d[1] += a0 * r1 + a1 * r0 + a2 * s2;
        d[2] += a0 * r2 + a1 * r1 + a2 * r0;
    }

    /// `a · r`, carried.
    #[inline(always)]
    fn mul(&self, a: [u64; 3]) -> [u64; 3] {
        let mut d = [0; 3];
        self.mul_add(a, &mut d);
        carry(d)
    }
}

/// One carry chain: limbs back under 2⁴⁴, 2⁴⁴ + 2¹⁶, 2⁴².
#[inline(always)]
fn carry(d: [u128; 3]) -> [u64; 3] {
    let d1 = d[1] + (d[0] >> 44);
    let d2 = d[2] + (d1 >> 44);
    let h0 = (d[0] as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    [
        h0 & MASK44,
        (d1 as u64 & MASK44) + (h0 >> 44),
        d2 as u64 & MASK42,
    ]
}

/// The IFMA kernel: vector `[k]` holds limb `k` of eight values, one per
/// 64-bit lane. `vpmadd52{lo,hi}uq` add bits 0..52 and 52..104 of a
/// product of two 52-bit lanes to a third, so every limb product splits
/// into a low half that stays in its limb and a high half worth 2⁸ of
/// the next (2⁵² = 2⁴⁴·2⁸); limb 2's is worth 2¹⁴⁰ ≡ 5·2¹⁰ of limb 0.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{HIBIT, MASK42, MASK44};
    use core::arch::x86_64::*;

    type Limbs = [__m512i; 3];

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lanes(x: [u64; 8]) -> __m512i {
        let x = x.map(|w| w as i64);
        _mm512_setr_epi64(x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7])
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(w: u64) -> __m512i {
        _mm512_set1_epi64(w as i64)
    }

    /// A multiplier per lane, with its `20·r₁` and `20·r₂`.
    struct Multipliers {
        r: Limbs,
        s1: __m512i,
        s2: __m512i,
    }

    impl Multipliers {
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(r: [[u64; 3]; 8]) -> Self {
            Multipliers {
                r: [0, 1, 2].map(|k| lanes(r.map(|r| r[k]))),
                s1: lanes(r.map(|r| r[1] * 20)),
                s2: lanes(r.map(|r| r[2] * 20)),
            }
        }
    }

    /// `h + m` for the eight blocks of `group`, block `j` in lane `j`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add_group(h: Limbs, group: &[u8; 128]) -> Limbs {
        // Two contiguous loads, blocks 0..4 and 4..8 with their low and
        // high words interleaved, then one permute per word: strided
        // loads into lanes cost some thirty shuffles per group.
        let (words, _) = group.as_chunks::<8>();
        let half = |at: usize| lanes(core::array::from_fn(|i| u64::from_le_bytes(words[at + i])));
        let (first, second) = (half(0), half(8));
        let lo = _mm512_permutex2var_epi64(first, lanes([0, 2, 4, 6, 8, 10, 12, 14]), second);
        let hi = _mm512_permutex2var_epi64(first, lanes([1, 3, 5, 7, 9, 11, 13, 15]), second);
        let mask44 = splat(MASK44);
        let m = [
            _mm512_and_si512(lo, mask44),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<44>(lo), _mm512_slli_epi64::<20>(hi)),
                mask44,
            ),
            _mm512_or_si512(_mm512_srli_epi64::<24>(hi), splat(HIBIT)),
        ];
        [0, 1, 2].map(|k| _mm512_add_epi64(h[k], m[k]))
    }

    /// The unreduced product `a · r` in every lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul(a: Limbs, m: &Multipliers) -> Limbs {
        let [a0, a1, a2] = a;
        let [r0, r1, r2] = m.r;
        let dot = |terms: [(__m512i, __m512i); 3]| {
            let (mut lo, mut hi) = (_mm512_setzero_si512(), _mm512_setzero_si512());
            for (x, y) in terms {
                lo = _mm512_madd52lo_epu64(lo, x, y);
                hi = _mm512_madd52hi_epu64(hi, x, y);
            }
            (lo, hi)
        };
        let (lo0, hi0) = dot([(a0, r0), (a1, m.s2), (a2, m.s1)]);
        let (lo1, hi1) = dot([(a0, r1), (a1, r0), (a2, m.s2)]);
        let (lo2, hi2) = dot([(a0, r2), (a1, r1), (a2, r0)]);
        [
            _mm512_madd52lo_epu64(lo0, hi2, splat(5 << 10)),
            _mm512_add_epi64(lo1, _mm512_slli_epi64::<8>(hi0)),
            _mm512_add_epi64(lo2, _mm512_slli_epi64::<8>(hi1)),
        ]
    }

    /// [`super::carry`] in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn carry([d0, d1, d2]: Limbs) -> Limbs {
        let mask44 = splat(MASK44);
        let d1 = _mm512_add_epi64(d1, _mm512_srli_epi64::<44>(d0));
        let d2 = _mm512_add_epi64(d2, _mm512_srli_epi64::<44>(d1));
        let c = _mm512_srli_epi64::<42>(d2);
        let h0 = _mm512_add_epi64(
            _mm512_and_si512(d0, mask44),
            _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c)),
        );
        [
            _mm512_and_si512(h0, mask44),
            _mm512_add_epi64(_mm512_and_si512(d1, mask44), _mm512_srli_epi64::<44>(h0)),
            _mm512_and_si512(d2, splat(MASK42)),
        ]
    }

    /// Absorbs `groups` into `h`; `powers[k]` is `r^(k + 1)`. Lane `j`
    /// takes blocks `j`, `j + 8`, … and multiplies by `r⁸` per group and
    /// by `r^(8 − j)` on the last, so the lanes sum to `h` advanced one
    /// block at a time.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn absorb(h: [u64; 3], powers: &[[u64; 3]; 8], groups: &[[u8; 128]]) -> [u64; 3] {
        let Some((last, groups)) = groups.split_last() else {
            return h;
        };
        let r8 = Multipliers::new([powers[7]; 8]);
        let mut acc = h.map(|limb| lanes([limb, 0, 0, 0, 0, 0, 0, 0]));
        for group in groups {
            acc = carry(mul(add_group(acc, group), &r8));
        }
        let descending = Multipliers::new(core::array::from_fn(|j| powers[7 - j]));
        let d = mul(add_group(acc, last), &descending);
        super::carry(d.map(|v| _mm512_reduce_add_epi64(v) as u64 as u128))
    }
}

impl Poly1305 {
    /// Creates an authenticator keyed with the 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        let half = |at: usize| {
            let mut b = [0u8; 16];
            b.copy_from_slice(&key[at..at + 16]);
            u128::from_le_bytes(b)
        };
        // Clamp r per the spec.
        let r = half(0) & 0x0ffffffc_0ffffffc_0ffffffc_0fffffff;
        Poly1305 {
            r: Multiplier::new(limbs(r)),
            h: [0; 3],
            pad: half(16),
            buf: [0u8; 16],
            buf_len: 0,
        }
    }

    /// `h = (h + m) · r` for one block.
    #[inline(always)]
    fn process_block(&mut self, block: &[u8; 16], hibit: u64) {
        self.h = self.r.mul(add_block(self.h, block, hibit));
    }

    /// Four blocks per step over `blocks` (64 bytes each).
    fn process_wide(&mut self, blocks: &[[u8; 64]]) {
        let r = self.r;
        let r2 = Multiplier::new(r.mul(r.r));
        let powers = [
            Multiplier::new(r2.mul(r2.r)),
            Multiplier::new(r2.mul(r.r)),
            r2,
            r,
        ];
        for four in blocks {
            let mut d = [0; 3];
            // The accumulator goes in with the first block of a step.
            let mut h = self.h;
            for (block, power) in four.as_chunks::<16>().0.iter().zip(&powers) {
                power.mul_add(add_block(h, block, HIBIT), &mut d);
                h = [0; 3];
            }
            self.h = carry(d);
        }
    }

    /// `r¹…r⁸`, each carried.
    #[cfg(target_arch = "x86_64")]
    fn powers(&self) -> [[u64; 3]; 8] {
        let mut power = self.r.r;
        core::array::from_fn(|k| {
            if k > 0 {
                power = self.r.mul(power);
            }
            power
        })
    }

    /// Runs the 128-byte groups of `data` through `kernel`; returns the
    /// bytes left over.
    fn groups<'a>(&mut self, kernel: Kernel, data: &'a [u8]) -> &'a [u8] {
        assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
        match kernel {
            Kernel::Scalar => data,
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma => {
                let (groups, rest) = data.as_chunks::<128>();
                // SAFETY: `supported` detected avx512f and avx512ifma on this CPU.
                self.h = unsafe { x86::absorb(self.h, &self.powers(), groups) };
                rest
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Ifma => unreachable!("only Scalar is supported off x86-64"),
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(Kernel::for_len(data.len()), data);
    }

    /// [`Self::update`] through `kernel` instead of the one
    /// [`Kernel::for_len`] picks (the equivalence tests call each).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn update_with(&mut self, kernel: Kernel, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return;
            }
            let block = self.buf;
            self.process_block(&block, HIBIT);
            self.buf_len = 0;
        }
        data = self.groups(kernel, data);
        if data.len() >= WIDE_MIN {
            let (wide, rest) = data.as_chunks::<64>();
            self.process_wide(wide);
            data = rest;
        }
        let (blocks, rest) = data.as_chunks::<16>();
        for block in blocks {
            self.process_block(block, HIBIT);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the MAC and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.process_block(&block, 0);
        }

        // Full carry propagation: two more passes settle every limb.
        let [h0, h1, h2] = self.h.map(u128::from);
        let [h0, h1, h2] = carry(carry([h0, h1, h2]).map(u128::from));
        let (c, h1) = (h1 >> 44, h1 & MASK44);
        let h2 = h2 + c;

        // Compute h + -p and select it if h >= p, in constant time.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let mask = (g2 >> 63).wrapping_sub(1);
        let h0 = (h0 & !mask) | (g0 & MASK44 & mask);
        let h1 = (h1 & !mask) | (g1 & MASK44 & mask);
        let h2 = (h2 & !mask) | (g2 & mask);

        // h mod 2^128, plus the pad (s) modulo 2^128.
        let h = u128::from(h0) | u128::from(h1) << 44 | u128::from(h2) << 88;
        h.wrapping_add(self.pad).to_le_bytes()
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8; 32], data: &[u8]) -> [u8; 16] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    // RFC 8439 §A.3 test vector 2: all-zero key must give an all-zero tag.
    #[test]
    fn zero_key_zero_tag() {
        let key = [0u8; 32];
        let tag = Poly1305::mac(&key, &[0u8; 64]);
        assert_eq!(tag, [0u8; 16]);
    }

    // Hand-computed cases with r = 2, s = 0: a zero 16-byte block has
    // value 2^128, so h = 2^129 mod (2^130 - 5) = 2^129, and the tag is
    // 2^129 mod 2^128 = 0. With a leading 0x01 byte the block value is
    // 1 + 2^128, h = 2 + 2^129, tag = 2.
    #[test]
    fn hand_computed_r2() {
        let mut key = [0u8; 32];
        key[0] = 2; // r = 2 survives clamping
        let tag = Poly1305::mac(&key, &[0u8; 16]);
        assert_eq!(tag, [0u8; 16]);

        let mut msg = [0u8; 16];
        msg[0] = 1;
        let tag = Poly1305::mac(&key, &msg);
        let mut expected = [0u8; 16];
        expected[0] = 2;
        assert_eq!(tag, expected);
    }

    // The pad s is added modulo 2^128: r = 0 makes h = 0, so the tag
    // equals s verbatim.
    #[test]
    fn tag_equals_pad_when_r_zero() {
        let mut key = [0u8; 32];
        for (i, b) in key[16..].iter_mut().enumerate() {
            *b = i as u8 + 1;
        }
        let tag = Poly1305::mac(&key, b"arbitrary message content here!!");
        assert_eq!(&tag[..], &key[16..]);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7 + 1) as u8);
        let data: Vec<u8> = (0..200u32).map(|i| (i * 3) as u8).collect();
        for chunk in [1usize, 5, 15, 16, 17, 50] {
            let mut p = Poly1305::new(&key);
            for c in data.chunks(chunk) {
                p.update(c);
            }
            assert_eq!(p.finalize(), Poly1305::mac(&key, &data), "chunk={chunk}");
        }
    }
}
