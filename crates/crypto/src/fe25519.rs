//! Field arithmetic modulo `p = 2^255 - 19`.
//!
//! Elements are held in five 64-bit limbs of radix `2^51` (the classic
//! "donna-64" layout). A *reduced* element — the output of `mul`,
//! `square`, `mul_small`, `sub` or `neg` — has every limb below
//! `2^51 + 2^18`; `add` does not reduce. The inputs of a multiplication
//! must have every limb below `2^54` (debug-asserted), which keeps each
//! `u128` column sum (five products of at most `2^54 * 19 * 2^54`)
//! below `2^115`. The subtrahend of `sub` must be reduced, or the limb
//! underflows (an overflow panic in debug builds).
//!
//! The unreduced values the curve formulas feed a multiplication, as
//! multiples of the reduced bound `R`:
//! - `Y + X`, `X² + Y²` and a cached operand's `Y+X` (or, negated, its
//!   `Y-X` slot): sums of two reduced values, `2R`;
//! - the additions' `D + C`, with `D = 2·Z1·Z2` (`2·Z1` against an
//!   affine operand) held as an unreduced sum and `C` reduced: `3R`;
//!   `D - C` goes through `sub` and comes out reduced, `D` (`2R`, the
//!   minuend) being what `sub` adds `2p` to;
//! - the doubling's `2Z² + (X² - Y²)`: `3R`;
//! - the Montgomery ladder's `X + Z`, `DA + CB` and `AA + 121665·E`:
//!   `2R`.
//!
//! `4R < 2^53 + 2^20`, so all of them clear `2^54` with room to spare.

use crate::ct;

/// Which code runs the curve operations: the X25519 ladder, fixed-base
/// multiplication and the verifier's double multiplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// [`Fe`], one element at a time in `u128` arithmetic: any CPU.
    Scalar,
    /// Four elements at a time, one per 64-bit lane of a 256-bit vector,
    /// multiplied with AVX-512 IFMA (DESIGN.md "Curve kernels").
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
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512ifma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Ifma => false,
        }
    }

    /// The kernel the curve operations run on this CPU: the fastest it
    /// supports.
    pub fn detect() -> Kernel {
        if Kernel::Ifma.supported() {
            Kernel::Ifma
        } else {
            Kernel::Scalar
        }
    }
}

/// The modulus bit pattern `2^51 - 1` used for limb masking.
const MASK: u64 = (1u64 << 51) - 1;

/// An element of GF(2^255 - 19).
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Builds a field element from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        debug_assert!(v < (1 << 51));
        Fe([v, 0, 0, 0, 0])
    }

    /// Decodes 32 little-endian bytes; the top bit is ignored per
    /// convention (RFC 7748 / RFC 8032).
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let load8 = |i: usize| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&b[i..i + 8]);
            u64::from_le_bytes(v)
        };
        Fe([
            load8(0) & MASK,
            (load8(6) >> 3) & MASK,
            (load8(12) >> 6) & MASK,
            (load8(19) >> 1) & MASK,
            (load8(24) >> 12) & MASK,
        ])
    }

    /// Encodes the element canonically to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut h = self.0;
        // Two carry passes bring every limb below 2^52, then the
        // quotient trick performs the final conditional subtraction of p.
        for _ in 0..2 {
            let mut c;
            c = h[0] >> 51;
            h[0] &= MASK;
            h[1] += c;
            c = h[1] >> 51;
            h[1] &= MASK;
            h[2] += c;
            c = h[2] >> 51;
            h[2] &= MASK;
            h[3] += c;
            c = h[3] >> 51;
            h[3] &= MASK;
            h[4] += c;
            c = h[4] >> 51;
            h[4] &= MASK;
            h[0] += 19 * c;
        }
        // q = floor((h + 19) / 2^255): 1 iff h >= p.
        let mut q = (h[0].wrapping_add(19)) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        h[0] += 19 * q;
        let mut c;
        c = h[0] >> 51;
        h[0] &= MASK;
        h[1] += c;
        c = h[1] >> 51;
        h[1] &= MASK;
        h[2] += c;
        c = h[2] >> 51;
        h[2] &= MASK;
        h[3] += c;
        c = h[3] >> 51;
        h[3] &= MASK;
        h[4] += c;
        h[4] &= MASK;

        let mut out = [0u8; 32];
        let write = |out: &mut [u8; 32], bitpos: usize, v: u64| {
            // Each limb occupies 51 bits starting at `bitpos`; OR it in
            // byte by byte.
            let byte = bitpos / 8;
            let shift = bitpos % 8;
            let v = (v as u128) << shift;
            for i in 0..8 {
                if byte + i < 32 {
                    out[byte + i] |= ((v >> (8 * i)) & 0xff) as u8;
                }
            }
        };
        write(&mut out, 0, h[0]);
        write(&mut out, 51, h[1]);
        write(&mut out, 102, h[2]);
        write(&mut out, 153, h[3]);
        write(&mut out, 204, h[4]);
        out
    }

    /// Adds without reduction; callers must feed the result into a
    /// reducing operation before limbs can overflow.
    #[must_use]
    pub fn add(&self, rhs: &Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// Computes `self - rhs` by adding `2p` first so limbs never go
    /// negative.
    #[must_use]
    pub fn sub(&self, rhs: &Fe) -> Fe {
        const TWO_P0: u64 = 0xFFFFFFFFFFFDA; // 2*(2^51 - 19)
        const TWO_PI: u64 = 0xFFFFFFFFFFFFE; // 2*(2^51 - 1)
        let a = &self.0;
        let b = &rhs.0;
        let r = Fe([
            a[0] + TWO_P0 - b[0],
            a[1] + TWO_PI - b[1],
            a[2] + TWO_PI - b[2],
            a[3] + TWO_PI - b[3],
            a[4] + TWO_PI - b[4],
        ]);
        r.weak_reduce()
    }

    /// Negation (`p - self`).
    #[must_use]
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// One carry pass, bringing limbs back under `2^52`.
    #[must_use]
    fn weak_reduce(self) -> Fe {
        let mut h = self.0;
        let mut c;
        c = h[0] >> 51;
        h[0] &= MASK;
        h[1] += c;
        c = h[1] >> 51;
        h[1] &= MASK;
        h[2] += c;
        c = h[2] >> 51;
        h[2] &= MASK;
        h[3] += c;
        c = h[3] >> 51;
        h[3] &= MASK;
        h[4] += c;
        c = h[4] >> 51;
        h[4] &= MASK;
        h[0] += 19 * c;
        Fe(h)
    }

    /// Whether every limb is below `2^54`, the bound a multiplication
    /// input must meet (see the module header).
    fn mul_safe(&self) -> bool {
        self.0.iter().all(|&limb| limb < 1 << 54)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, rhs: &Fe) -> Fe {
        debug_assert!(self.mul_safe() && rhs.mul_safe());
        let [a0, a1, a2, a3, a4] = self.0.map(|x| x as u128);
        let [b0, b1, b2, b3, b4] = rhs.0.map(|x| x as u128);
        let (b1_19, b2_19, b3_19, b4_19) = (b1 * 19, b2 * 19, b3 * 19, b4 * 19);

        let c0 = a0 * b0 + a1 * b4_19 + a2 * b3_19 + a3 * b2_19 + a4 * b1_19;
        let c1 = a0 * b1 + a1 * b0 + a2 * b4_19 + a3 * b3_19 + a4 * b2_19;
        let c2 = a0 * b2 + a1 * b1 + a2 * b0 + a3 * b4_19 + a4 * b3_19;
        let c3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * b4_19;
        let c4 = a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0;

        Fe::carry(c0, c1, c2, c3, c4)
    }

    /// Field squaring (slightly cheaper than a general multiply).
    #[must_use]
    pub fn square(&self) -> Fe {
        debug_assert!(self.mul_safe());
        let [a0, a1, a2, a3, a4] = self.0.map(|x| x as u128);
        let (d0, d1, d2) = (a0 * 2, a1 * 2, a2 * 2);
        let (a3_19, a4_19) = (a3 * 19, a4 * 19);

        let c0 = a0 * a0 + d1 * a4_19 + d2 * a3_19;
        let c1 = d0 * a1 + d2 * a4_19 + a3 * a3_19;
        let c2 = d0 * a2 + a1 * a1 + 2 * a3 * a4_19;
        let c3 = d0 * a3 + d1 * a2 + a4 * a4_19;
        let c4 = d0 * a4 + d1 * a3 + a2 * a2;

        Fe::carry(c0, c1, c2, c3, c4)
    }

    fn carry(c0: u128, c1: u128, c2: u128, c3: u128, c4: u128) -> Fe {
        #[cfg(test)]
        CARRIES.with(|n| n.set(n.get() + 1));
        let mut c0 = c0;
        let mut c1 = c1;
        let mut c2 = c2;
        let mut c3 = c3;
        let mut c4 = c4;
        c1 += c0 >> 51;
        let h0 = (c0 as u64) & MASK;
        c2 += c1 >> 51;
        let h1 = (c1 as u64) & MASK;
        c3 += c2 >> 51;
        let h2 = (c2 as u64) & MASK;
        c4 += c3 >> 51;
        let h3 = (c3 as u64) & MASK;
        // Keep the wrap-around in u128: (c4 >> 51) * 19 can slightly
        // exceed 64 bits for worst-case unreduced inputs.
        c0 = (c4 >> 51) * 19 + h0 as u128;
        let h4 = (c4 as u64) & MASK;
        let h0 = (c0 as u64) & MASK;
        let h1 = h1 + (c0 >> 51) as u64;
        Fe([h0, h1, h2, h3, h4])
    }

    /// Multiplies by a small scalar (`< 2^32`).
    #[must_use]
    pub fn mul_small(&self, k: u32) -> Fe {
        debug_assert!(self.mul_safe());
        let k = k as u128;
        let [a0, a1, a2, a3, a4] = self.0.map(|x| x as u128);
        Fe::carry(a0 * k, a1 * k, a2 * k, a3 * k, a4 * k)
    }

    /// `self^(2^n)`: `n` squarings.
    #[must_use]
    fn square_n(mut self, n: u32) -> Fe {
        for _ in 0..n {
            self = self.square();
        }
        self
    }

    /// The shared head of the fixed addition chain: `self^(2^250 - 1)`
    /// and `self^11`, in 249 squarings and 10 multiplications. The
    /// sequence of operations does not depend on the value.
    fn pow_2_250_1(&self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(&z2);
        let x5 = z11.square().mul(&z9); // 2^5 - 1
        let x10 = x5.square_n(5).mul(&x5); // 2^10 - 1
        let x20 = x10.square_n(10).mul(&x10);
        let x40 = x20.square_n(20).mul(&x20);
        let x50 = x40.square_n(10).mul(&x10);
        let x100 = x50.square_n(50).mul(&x50);
        let x200 = x100.square_n(100).mul(&x100);
        (x200.square_n(50).mul(&x50), z11)
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)`, with
    /// `p - 2 = (2^250 - 1)·2^5 + 11`. Zero maps to zero.
    #[must_use]
    pub fn invert(&self) -> Fe {
        let (x250, z11) = self.pow_2_250_1();
        x250.square_n(5).mul(&z11)
    }

    /// [`Self::invert`] through `kernel`.
    pub(crate) fn invert_with(&self, kernel: Kernel) -> Fe {
        assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
        match kernel {
            Kernel::Scalar => self.invert(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` detected avx512f, avx512vl and avx512ifma on this CPU.
            Kernel::Ifma => unsafe { crate::fe25519x4::invert(self) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Ifma => unreachable!("only Scalar is supported off x86-64"),
        }
    }

    /// Computes `self^((p-5)/8)`, the core of the square-root formula:
    /// `(p-5)/8 = (2^250 - 1)·2^2 + 1`.
    #[must_use]
    pub fn pow_p58(&self) -> Fe {
        self.pow_2_250_1().0.square_n(2).mul(self)
    }

    /// Whether the canonical encoding equals zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// The low bit of the canonical encoding (the "sign" per RFC 8032).
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Constant-time equality on canonical encodings.
    #[must_use]
    pub fn ct_eq(&self, other: &Fe) -> bool {
        ct::eq(&self.to_bytes(), &other.to_bytes())
    }

    /// Constant-time conditional swap of two elements.
    pub fn cswap(choice: u64, a: &mut Fe, b: &mut Fe) {
        ct::swap_u64s(choice, &mut a.0, &mut b.0);
    }
}

/// Curve constants derived at first use (never transcribed by hand).
pub struct Constants {
    /// Twisted Edwards `d = -121665/121666`.
    pub d: Fe,
    /// `2d`, used by the unified addition formula.
    pub d2: Fe,
    /// A square root of `-1` (namely `2^((p-1)/4)`).
    pub sqrt_m1: Fe,
}

#[cfg(test)]
thread_local! {
    /// Reductions this thread has run: one per `mul`, `square` and
    /// `mul_small`. The count of an operation repeats exactly, so its
    /// cost has a ceiling a test can hold without a clock.
    pub(crate) static CARRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Returns the lazily-initialised curve constants.
pub fn constants() -> &'static Constants {
    use std::sync::OnceLock;
    static CONSTS: OnceLock<Constants> = OnceLock::new();
    CONSTS.get_or_init(|| {
        let d = Fe::from_u64(121665)
            .neg()
            .mul(&Fe::from_u64(121666).invert());
        let d2 = d.add(&d).weak_reduce();
        // (p-1)/4 = 2^253 - 5 = (2^250 - 1)·2^3 + 3.
        let two = Fe::from_u64(2);
        let sqrt_m1 = two.pow_2_250_1().0.square_n(3).mul(&Fe::from_u64(8));
        Constants { d, d2, sqrt_m1 }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe::from_u64(n)
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(1234567);
        let b = fe(7654321);
        let c = a.add(&b).sub(&b);
        assert_eq!(c.to_bytes(), a.to_bytes());
    }

    #[test]
    fn sub_wraps_mod_p() {
        // 0 - 1 == p - 1.
        let r = Fe::ZERO.sub(&Fe::ONE);
        let mut expected = [0xffu8; 32];
        expected[0] = 0xec; // p - 1 = 2^255 - 20.
        expected[31] = 0x7f;
        assert_eq!(r.to_bytes(), expected);
    }

    #[test]
    fn mul_matches_small_ints() {
        assert_eq!(fe(7).mul(&fe(6)).to_bytes(), fe(42).to_bytes());
        assert_eq!(fe(0).mul(&fe(12345)).to_bytes(), Fe::ZERO.to_bytes());
    }

    #[test]
    fn square_matches_mul() {
        let a = Fe::from_bytes(&[0x42u8; 32]);
        assert_eq!(a.square().to_bytes(), a.mul(&a).to_bytes());
    }

    #[test]
    fn invert_works() {
        let a = fe(987654321);
        let inv = a.invert();
        assert_eq!(a.mul(&inv).to_bytes(), Fe::ONE.to_bytes());
    }

    #[test]
    fn canonical_encoding_reduces_p() {
        // p itself must encode as zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = Fe::from_bytes(&p_bytes);
        // from_bytes masks the top bit, so p decodes to p - 2^255 + ...;
        // instead construct p via limbs: p = 2^255 - 19.
        let p_limbs = Fe([(1 << 51) - 19, MASK, MASK, MASK, MASK]);
        assert!(p_limbs.is_zero());
        let _ = p; // decoded value is p mod 2^255 = p - 2^255 is not meaningful
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let c = constants();
        let minus_one = Fe::ZERO.sub(&Fe::ONE);
        assert_eq!(c.sqrt_m1.square().to_bytes(), minus_one.to_bytes());
    }

    #[test]
    fn d_satisfies_definition() {
        let c = constants();
        // d * 121666 == -121665.
        let lhs = c.d.mul(&fe(121666));
        let rhs = fe(121665).neg();
        assert_eq!(lhs.to_bytes(), rhs.to_bytes());
    }

    #[test]
    fn from_to_bytes_roundtrip() {
        let mut b = [0u8; 32];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i * 17 + 3) as u8;
        }
        b[31] &= 0x7f;
        let a = Fe::from_bytes(&b);
        assert_eq!(a.to_bytes(), b);
    }

    #[test]
    fn cswap_behaviour() {
        let mut a = fe(1);
        let mut b = fe(2);
        Fe::cswap(0, &mut a, &mut b);
        assert_eq!(a.to_bytes(), fe(1).to_bytes());
        Fe::cswap(1, &mut a, &mut b);
        assert_eq!(a.to_bytes(), fe(2).to_bytes());
        assert_eq!(b.to_bytes(), fe(1).to_bytes());
    }
}
