//! Four elements of GF(2^255 - 19) side by side, for CPUs with AVX-512
//! IFMA: the field the [`Kernel::Ifma`](crate::fe25519::Kernel::Ifma)
//! curve operations run on.
//!
//! [`F4`] holds vector `k` = limb `k` of four elements, element `j` in
//! 64-bit lane `j` of a 256-bit vector. The limbs are [`Fe`]'s, radix
//! `2^51`, so packing four `Fe`s is a transpose and nothing else.
//! `vpmadd52{lo,hi}uq` multiply the low 52 bits of two lanes and add
//! bits 0..52 or 52..104 of the product to a third lane, so:
//!
//! - every limb a multiplication reads must be below `2^52`
//!   (debug-asserted; a higher bit would be dropped, not overflow).
//!   [`F4::carry`] brings any limbs below `2^51 + 2^18`, and so does
//!   every product; a sum or difference of those is carried before it
//!   is multiplied, and `Fe`'s own reduced bound (`2^51 + 2^18`) lets a
//!   scalar result in directly;
//! - a product's high half sits 52 bits up, `2·2^51`: worth twice a
//!   limb of the next column. With inputs below `2^52` a column of the
//!   full product (five low halves, five doubled high halves) stays
//!   below `15·2^52`, the five columns that wrap come down times 19
//!   (`2^255 ≡ 19`), and the sums stay below `2^61` before the carry.
//!
//! Lanes are moved with fixed shuffles and blends, never by a value, and
//! a select by a secret bit is a mask (`and`/`xor`): nothing here
//! branches or indexes on the data. That the multipliers take the same
//! time whatever the operands is an assumption about the hardware, the
//! same one the scalar code makes of `mul`.

use crate::fe25519::Fe;
use core::arch::x86_64::*;

const MASK: u64 = (1 << 51) - 1;
/// `2p`, limb by limb: a negation subtracts from it, so no lane goes
/// negative.
const TWO_P: [u64; 5] = [
    0xFFFFFFFFFFFDA,
    0xFFFFFFFFFFFFE,
    0xFFFFFFFFFFFFE,
    0xFFFFFFFFFFFFE,
    0xFFFFFFFFFFFFE,
];

/// Lane masks for [`F4::blend`] and [`F4::neg_lanes`].
pub(crate) const A: u8 = 1;
pub(crate) const B: u8 = 2;
pub(crate) const C: u8 = 4;
pub(crate) const D: u8 = 8;

/// The immediate of a lane shuffle: lane `j` of the result takes lane
/// `[a, b, c, d][j]` of the source.
pub(crate) const fn lanes(a: i32, b: i32, c: i32, d: i32) -> i32 {
    a | b << 2 | c << 4 | d << 6
}

#[cfg(test)]
thread_local! {
    /// Vector multiplications and squarings this thread has run, the
    /// lane kernel's counterpart of [`crate::fe25519::CARRIES`].
    pub(crate) static PRODUCTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Four field elements, one per 64-bit lane.
#[derive(Clone, Copy)]
pub(crate) struct F4([__m256i; 5]);

#[inline]
#[target_feature(enable = "avx512ifma,avx512vl")]
fn splat(w: u64) -> __m256i {
    _mm256_set1_epi64x(w as i64)
}

/// `19·v` (`v < 2^59`).
#[inline]
#[target_feature(enable = "avx512ifma,avx512vl")]
fn times19(v: __m256i) -> __m256i {
    let v3 = _mm256_add_epi64(v, _mm256_slli_epi64::<1>(v));
    _mm256_add_epi64(v3, _mm256_slli_epi64::<4>(v))
}

impl F4 {
    /// Four elements, `e[j]` in lane `j`.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn new(e: [&Fe; 4]) -> F4 {
        F4(core::array::from_fn(|k| {
            let [a, b, c, d] = e.map(|fe| fe.0[k] as i64);
            _mm256_setr_epi64x(a, b, c, d)
        }))
    }

    /// Every lane `e`.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn splat(e: &Fe) -> F4 {
        F4(e.0.map(|w| splat(w)))
    }

    /// The four elements back, limbs as they are.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn split(&self) -> [Fe; 4] {
        let l = self.0.map(|v| {
            [
                _mm256_extract_epi64::<0>(v),
                _mm256_extract_epi64::<1>(v),
                _mm256_extract_epi64::<2>(v),
                _mm256_extract_epi64::<3>(v),
            ]
            .map(|w| w as u64)
        });
        core::array::from_fn(|j| Fe(l.map(|limbs| limbs[j])))
    }

    /// Whether every limb is below `2^52`, what a multiplication reads.
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn mul_safe(&self) -> bool {
        self.split()
            .iter()
            .all(|fe| fe.0.iter().all(|&l| l < 1 << 52))
    }

    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn add(&self, rhs: &F4) -> F4 {
        F4(core::array::from_fn(|k| {
            _mm256_add_epi64(self.0[k], rhs.0[k])
        }))
    }

    /// `-self` in the lanes of `mask`, `self` in the others; carried
    /// input, output below `2^52`.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn neg_lanes(&self, mask: u8) -> F4 {
        F4(core::array::from_fn(|k| {
            let neg = _mm256_sub_epi64(splat(TWO_P[k]), self.0[k]);
            _mm256_mask_blend_epi64(mask, self.0[k], neg)
        }))
    }

    /// `other` in the lanes of `mask`, `self` in the others.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn blend(&self, other: &F4, mask: u8) -> F4 {
        F4(core::array::from_fn(|k| {
            _mm256_mask_blend_epi64(mask, self.0[k], other.0[k])
        }))
    }

    /// Lanes rearranged by [`lanes`]`(…)`.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn shuffle<const L: i32>(&self) -> F4 {
        F4(self.0.map(|v| _mm256_permute4x64_epi64::<L>(v)))
    }

    /// Lanes `(c, d, a, b)` if `choice` is 1, unchanged if 0: a mask, no
    /// branch, so `choice` may be secret.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn swap_halves(&self, choice: u64) -> F4 {
        debug_assert!(choice <= 1);
        let mask = splat(choice.wrapping_neg());
        let swapped = self.shuffle::<{ lanes(2, 3, 0, 1) }>();
        F4(core::array::from_fn(|k| {
            let t = _mm256_and_si256(mask, _mm256_xor_si256(self.0[k], swapped.0[k]));
            _mm256_xor_si256(self.0[k], t)
        }))
    }

    /// One carry pass in every lane at once: limbs below `2^51 + 2^18`
    /// from any limbs.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn carry(&self) -> F4 {
        let v = &self.0;
        let c = v.map(|l| _mm256_srli_epi64::<51>(l));
        F4(core::array::from_fn(|k| {
            let low = _mm256_and_si256(v[k], splat(MASK));
            match k {
                // c[4] < 2^13: 19·c[4] is the low half of one product.
                0 => _mm256_madd52lo_epu64(low, c[4], splat(19)),
                _ => _mm256_add_epi64(low, c[k - 1]),
            }
        }))
    }

    /// Columns `t[0..10]` of a product (`t[k]` worth `2^(51k)`, each
    /// below `2^56`) folded into five limbs and carried.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn fold(t: [__m256i; 10]) -> F4 {
        #[cfg(test)]
        PRODUCTS.with(|n| n.set(n.get() + 1));
        F4(core::array::from_fn(|k| {
            _mm256_add_epi64(t[k], times19(t[k + 5]))
        }))
        .carry()
    }

    /// Lane-wise product, carried.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn mul(&self, rhs: &F4) -> F4 {
        debug_assert!(self.mul_safe() && rhs.mul_safe());
        let (x, y) = (&self.0, &rhs.0);
        let zero = _mm256_setzero_si256();
        // lo[k]: low halves of column k; hi[k]: high halves of column
        // k - 1, worth two of column k.
        let (mut lo, mut hi) = ([zero; 10], [zero; 10]);
        for i in 0..5 {
            for j in 0..5 {
                lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], x[i], y[j]);
                hi[i + j + 1] = _mm256_madd52hi_epu64(hi[i + j + 1], x[i], y[j]);
            }
        }
        F4::fold(core::array::from_fn(|k| {
            _mm256_add_epi64(lo[k], _mm256_slli_epi64::<1>(hi[k]))
        }))
    }

    /// Lane-wise square, carried: the ten cross products once, doubled.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn square(&self) -> F4 {
        debug_assert!(self.mul_safe());
        let x = &self.0;
        let zero = _mm256_setzero_si256();
        // By weight in column k: the squares' low halves (1), the cross
        // products' low halves and the squares' high halves (2), the
        // cross products' high halves (4).
        let (mut t1, mut t2, mut t4) = ([zero; 10], [zero; 10], [zero; 10]);
        for i in 0..5 {
            t1[2 * i] = _mm256_madd52lo_epu64(t1[2 * i], x[i], x[i]);
            t2[2 * i + 1] = _mm256_madd52hi_epu64(t2[2 * i + 1], x[i], x[i]);
            for j in i + 1..5 {
                t2[i + j] = _mm256_madd52lo_epu64(t2[i + j], x[i], x[j]);
                t4[i + j + 1] = _mm256_madd52hi_epu64(t4[i + j + 1], x[i], x[j]);
            }
        }
        F4::fold(core::array::from_fn(|k| {
            let t = _mm256_add_epi64(t1[k], _mm256_slli_epi64::<1>(t2[k]));
            _mm256_add_epi64(t, _mm256_slli_epi64::<2>(t4[k]))
        }))
    }

    /// Lane `j` times `c[j]` (`c[j] < 2^32`), carried.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(crate) fn mul_small(&self, c: [u32; 4]) -> F4 {
        debug_assert!(self.mul_safe());
        let [a, b, cc, d] = c.map(i64::from);
        let c = _mm256_setr_epi64x(a, b, cc, d);
        let zero = _mm256_setzero_si256();
        let lo = self.0.map(|x| _mm256_madd52lo_epu64(zero, x, c));
        let hi = self.0.map(|x| _mm256_madd52hi_epu64(zero, x, c));
        // A high half is below 2^32: limb 4's wraps as 2·19 of limb 0.
        F4(core::array::from_fn(|k| match k {
            0 => _mm256_madd52lo_epu64(lo[0], hi[4], splat(38)),
            _ => _mm256_add_epi64(lo[k], _mm256_slli_epi64::<1>(hi[k - 1])),
        }))
        .carry()
    }
}

/// `self^(2^n)` in every lane.
#[inline]
#[target_feature(enable = "avx512ifma,avx512vl")]
fn square_n(mut x: F4, n: u32) -> F4 {
    for _ in 0..n {
        x = x.square();
    }
    x
}

/// [`Fe::pow_2_250_1`]'s chain in every lane: `x^(2^250 - 1)` and `x^11`.
#[target_feature(enable = "avx512ifma,avx512vl")]
fn pow_2_250_1(x: &F4) -> (F4, F4) {
    let z2 = x.square();
    let z9 = square_n(z2, 2).mul(x);
    let z11 = z9.mul(&z2);
    let x5 = z11.square().mul(&z9);
    let x10 = square_n(x5, 5).mul(&x5);
    let x20 = square_n(x10, 10).mul(&x10);
    let x40 = square_n(x20, 20).mul(&x20);
    let x50 = square_n(x40, 10).mul(&x10);
    let x100 = square_n(x50, 50).mul(&x50);
    let x200 = square_n(x100, 100).mul(&x100);
    (square_n(x200, 50).mul(&x50), z11)
}

/// [`Fe::invert`] in one lane: the chain is serial, and a vector
/// squaring's latency is below a scalar one's.
#[target_feature(enable = "avx512ifma,avx512vl")]
pub(crate) fn invert(x: &Fe) -> Fe {
    let (x250, z11) = pow_2_250_1(&F4::new([x; 4]));
    square_n(x250, 5).mul(&z11).split()[0]
}

/// [`Fe::pow_p58`] of two elements at once, one per lane.
#[target_feature(enable = "avx512ifma,avx512vl")]
pub(crate) fn pow_p58_pair(x: &Fe, y: &Fe) -> (Fe, Fe) {
    let v = F4::new([x, y, x, y]);
    let [px, py, ..] = square_n(pow_2_250_1(&v).0, 2).mul(&v).split();
    (px, py)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fe25519::Kernel;
    use plat::check::run_cases;

    /// An element with every limb drawn below `bound`.
    fn limbs_below(g: &mut plat::check::Gen, bound: u64) -> Fe {
        Fe(core::array::from_fn(|_| g.below(bound)))
    }

    fn same(a: &Fe, b: &Fe) -> bool {
        a.to_bytes() == b.to_bytes()
    }

    // The lanes against `Fe`, at the largest limbs each operation takes.
    #[test]
    fn lanes_match_the_scalar_field() {
        if !Kernel::Ifma.supported() {
            return;
        }
        run_cases("lanes_match_the_scalar_field", 2_000, |g| {
            let x: [Fe; 4] = core::array::from_fn(|_| limbs_below(g, 1 << 52));
            let y: [Fe; 4] = core::array::from_fn(|_| limbs_below(g, 1 << 52));
            let c: [u32; 4] = core::array::from_fn(|_| g.u32());
            let big: [Fe; 4] = core::array::from_fn(|_| limbs_below(g, u64::MAX));
            // SAFETY: `supported` detected avx512f, avx512vl and avx512ifma on this CPU.
            let [prod, sq, small, carried] = unsafe {
                let (vx, vy) = (F4::new(x.each_ref()), F4::new(y.each_ref()));
                [
                    vx.mul(&vy).split(),
                    vx.square().split(),
                    vx.mul_small(c).split(),
                    F4::new(big.each_ref()).carry().split(),
                ]
            };
            for j in 0..4 {
                // Fe::mul takes limbs below 2^54, so it is the oracle.
                assert!(same(&prod[j], &x[j].mul(&y[j])));
                assert!(same(&sq[j], &x[j].square()));
                assert!(same(&small[j], &x[j].mul(&Fe([c[j] as u64, 0, 0, 0, 0]))));
                assert!(carried[j].0.iter().all(|&l| l < (1 << 51) + (1 << 18)));
                // What each limb carries out lands one limb up, or times
                // 19 in limb 0.
                let low = big[j].0.map(|l| l & MASK);
                let [h0, h1, h2, h3, h4] = big[j].0.map(|l| l >> 51);
                let expect = Fe(low).add(&Fe([19 * h4, h0, h1, h2, h3]));
                assert!(same(&carried[j], &expect));
            }
        });
    }
}
