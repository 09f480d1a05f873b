//! Ed25519 signatures (RFC 8032).
//!
//! Point arithmetic uses extended twisted-Edwards coordinates
//! `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `xy = T/Z`. A secret
//! scalar only ever multiplies the base point, through a table whose
//! entries are selected in constant time; verification handles public
//! values only and runs a variable-time interleaved multiplication.

use crate::fe25519::{constants, Fe, Kernel};
use crate::scalar;
use crate::sha2::Sha512;
use crate::{ct, CryptoError, Result};

/// A point on the Edwards curve in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point as the right-hand operand of an addition:
/// `(Y+X, Y-X, Z, 2dT)`, which saves the addition one multiplication.
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// [`Cached`] with `Z = 1`: `(y+x, y-x, 2dxy)`. Adding it takes seven
/// multiplications instead of eight.
#[derive(Clone, Copy)]
struct AffineCached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

/// The result of an addition or a doubling before its four closing
/// multiplications: `X = EF`, `Y = GH`, `Z = FG`, `T = EH`. A doubling
/// reads no `T`, so a run of doublings never computes one.
struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

impl Completed {
    const IDENTITY: Completed = Completed {
        e: Fe::ZERO,
        f: Fe::ONE,
        g: Fe::ONE,
        h: Fe::ONE,
    };

    fn to_point(&self) -> Point {
        Point {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }

    fn double(&self) -> Completed {
        double_xyz(
            &self.e.mul(&self.f),
            &self.g.mul(&self.h),
            &self.f.mul(&self.g),
        )
    }
}

/// Doubles `(X : Y : Z)` ("dbl-2008-hwcd" with every term negated).
fn double_xyz(x: &Fe, y: &Fe, z: &Fe) -> Completed {
    let a = x.square();
    let b = y.square();
    let zz = z.square();
    let h = a.add(&b);
    let g = a.sub(&b);
    Completed {
        e: h.sub(&x.add(y).square()),
        f: zz.add(&zz).add(&g),
        g,
        h,
    }
}

/// The shared tail of both additions ("add-2008-hwcd-3"): `a`, `b`, `c`
/// are the three products with the operand, `d2` is `2·Z1·Z2`.
fn complete_add(a: Fe, b: Fe, c: Fe, d2: Fe) -> Completed {
    Completed {
        e: b.sub(&a),
        f: d2.sub(&c),
        g: d2.add(&c),
        h: b.add(&a),
    }
}

impl Cached {
    const IDENTITY: Cached = Cached {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        z: Fe::ONE,
        t2d: Fe::ZERO,
    };

    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

impl AffineCached {
    fn neg(&self) -> AffineCached {
        AffineCached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

/// An encoding decoded up to its square root: `x² = u/v`, found as
/// `x = u·v³·(u·v⁷)^((p-5)/8)`, `root` being `u·v⁷`. Splitting there lets
/// the vector kernel raise two encodings' roots in one chain.
struct Decoding {
    sign: u8,
    y: Fe,
    u: Fe,
    v: Fe,
    uv3: Fe,
    root: Fe,
}

impl Decoding {
    fn new(enc: &[u8; 32]) -> Result<Decoding> {
        let sign = enc[31] >> 7;
        let y = Fe::from_bytes(enc);
        let mut canonical = y.to_bytes();
        canonical[31] |= sign << 7;
        if canonical != *enc {
            return Err(CryptoError::InvalidPoint);
        }
        let y2 = y.square();
        let u = y2.sub(&Fe::ONE);
        let v = constants().d.mul(&y2).add(&Fe::ONE);
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        Ok(Decoding {
            sign,
            y,
            u,
            v,
            uv3: u.mul(&v3),
            root: u.mul(&v7),
        })
    }

    /// The point, given `root^((p-5)/8)`; then fix up by sqrt(-1) if
    /// needed.
    fn finish(&self, pow: &Fe) -> Result<Point> {
        let (u, v, y, sign) = (&self.u, &self.v, self.y, self.sign);
        let mut x = self.uv3.mul(pow);
        let vxx = v.mul(&x.square());
        if !vxx.ct_eq(u) {
            if vxx.ct_eq(&u.neg()) {
                x = x.mul(&constants().sqrt_m1);
            } else {
                return Err(CryptoError::InvalidPoint);
            }
        }
        if x.is_zero() && sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Ok(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }
}

/// The signed digits of the width-`w` non-adjacent form of a 256-bit
/// little-endian scalar: `k = Σ naf[i]·2^i`, every non-zero digit odd
/// and below `2^(w-1)` in magnitude, any `w` consecutive digits holding
/// at most one non-zero. Variable-time.
fn wnaf(k: &[u8; 32], w: u32) -> [i8; 257] {
    debug_assert!((2..=8).contains(&w));
    // A fifth, zero limb: a window may start at any bit below 257.
    let mut limbs = [0u64; 5];
    for (i, &byte) in k.iter().enumerate() {
        limbs[i / 8] |= (byte as u64) << (8 * (i % 8));
    }
    let width = 1u64 << w;
    let mut naf = [0i8; 257];
    let mut carry = 0;
    let mut pos = 0;
    while pos < 257 {
        let (limb, bit) = (pos / 64, pos % 64);
        let mut bits = limbs[limb] >> bit;
        if bit + w as usize > 64 {
            bits |= limbs[limb + 1] << (64 - bit);
        }
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            // Even (a set carry stays set: `window` was `width`).
            pos += 1;
            continue;
        }
        carry = (window >= width / 2) as u64;
        naf[pos] = (window as i64 - (carry * width) as i64) as i8;
        pos += w as usize;
    }
    naf
}

/// The 4-bit window `w` of `k`, low nibble first.
fn window(k: &[u8; 32], w: usize) -> usize {
    usize::from((k[w / 2] >> (4 * (w % 2))) & 0x0f)
}

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point `B` (with `y = 4/5` and even `x`).
    pub fn basepoint() -> Point {
        use std::sync::OnceLock;
        static BASE: OnceLock<Point> = OnceLock::new();
        *BASE.get_or_init(|| {
            let y = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
            let mut enc = y.to_bytes();
            enc[31] &= 0x7f; // sign bit 0: even x
            Point::decompress(&enc).expect("base point must decompress")
        })
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&constants().d2),
        }
    }

    fn add_cached(&self, q: &Cached) -> Completed {
        let d = self.z.mul(&q.z);
        complete_add(
            self.y.sub(&self.x).mul(&q.y_minus_x),
            self.y.add(&self.x).mul(&q.y_plus_x),
            self.t.mul(&q.t2d),
            d.add(&d),
        )
    }

    fn add_affine(&self, q: &AffineCached) -> Completed {
        complete_add(
            self.y.sub(&self.x).mul(&q.y_minus_x),
            self.y.add(&self.x).mul(&q.y_plus_x),
            self.t.mul(&q.xy2d),
            self.z.add(&self.z),
        )
    }

    /// Unified point addition (complete formula for twisted Edwards).
    #[must_use]
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached()).to_point()
    }

    /// Point doubling.
    #[must_use]
    pub fn double(&self) -> Point {
        double_xyz(&self.x, &self.y, &self.z).to_point()
    }

    /// The inverse `(-x, y)`.
    #[must_use]
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Constant-time selection of `row[index - 1]` (index 0 yields the
    /// identity), used by the fixed-base multiplication below.
    fn select(row: &[Cached; 15], index: usize) -> Cached {
        let mut out = Cached::IDENTITY;
        for (i, p) in row.iter().enumerate() {
            // mask = all-ones when i + 1 == index.
            let eq = ((i + 1) == index) as u64;
            let mask = eq.wrapping_neg();
            for (dst, src) in [
                (&mut out.y_plus_x, &p.y_plus_x),
                (&mut out.y_minus_x, &p.y_minus_x),
                (&mut out.z, &p.z),
                (&mut out.t2d, &p.t2d),
            ] {
                for k in 0..5 {
                    dst.0[k] = (dst.0[k] & !mask) | (src.0[k] & mask);
                }
            }
        }
        out
    }

    /// Fixed-base scalar multiplication `[k]B` using a precomputed
    /// table of 4-bit windows (64 windows x the multiples 1..=15), one
    /// addition per window and no doubling; the per-window entry is
    /// selected in constant time, so `k` may be secret.
    #[must_use]
    pub fn scalar_mul_base(k: &[u8; 32]) -> Point {
        Point::scalar_mul_base_with(Kernel::detect(), k)
    }

    /// [`Self::scalar_mul_base`] through `kernel` instead of the one
    /// [`Kernel::detect`] picks (the equivalence tests call each).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    #[must_use]
    pub fn scalar_mul_base_with(kernel: Kernel, k: &[u8; 32]) -> Point {
        assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
        let table = Point::base_table();
        match kernel {
            Kernel::Scalar => {
                let mut acc = Point::identity();
                for (w, row) in table.iter().enumerate() {
                    let entry = Point::select(row, window(k, w));
                    acc = acc.add_cached(&entry).to_point();
                }
                acc
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` detected avx512f, avx512vl and avx512ifma on this CPU.
            Kernel::Ifma => unsafe { ifma::scalar_mul_base(table, k) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Ifma => unreachable!("only Scalar is supported off x86-64"),
        }
    }

    /// `16^w·B, 2·16^w·B, …, 15·16^w·B` for the 64 windows `w` (150 KiB,
    /// derived at first use; both kernels read it).
    fn base_table() -> &'static [[Cached; 15]] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<Vec<[Cached; 15]>> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut window_base = Point::basepoint(); // 16^w * B
            (0..64)
                .map(|_| {
                    let step = window_base.to_cached();
                    let mut acc = window_base;
                    let row = std::array::from_fn(|_| {
                        let entry = acc.to_cached();
                        acc = acc.add_cached(&step).to_point();
                        entry
                    });
                    window_base = acc; // 16 * the old base
                    row
                })
                .collect()
        })
    }

    /// `self, 3·self, …, 15·self`, the digits of a width-5 NAF.
    fn odd_multiples(&self) -> [Cached; 8] {
        let twice = self.double();
        let mut table = [self.to_cached(); 8];
        for i in 1..8 {
            table[i] = twice.add_cached(&table[i - 1]).to_point().to_cached();
        }
        table
    }

    /// `B, 3B, …, 127B` in affine form, the digits of a width-8 NAF
    /// (7.5 KiB, derived at first use).
    fn base_odd_multiples() -> &'static [AffineCached; 64] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[AffineCached; 64]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let twice = Point::basepoint().double().to_cached();
            let mut acc = Point::basepoint();
            std::array::from_fn(|_| {
                let zinv = acc.z.invert();
                let (x, y) = (acc.x.mul(&zinv), acc.y.mul(&zinv));
                acc = acc.add_cached(&twice).to_point();
                AffineCached {
                    y_plus_x: y.add(&x),
                    y_minus_x: y.sub(&x),
                    xy2d: x.mul(&y).mul(&constants().d2),
                }
            })
        })
    }

    /// `[a]A + [b]B` for the base point `B` through `kernel`, by Straus
    /// interleaving: one chain of doublings shared by both scalars, `a` in
    /// width-5 NAF over a table of `A`'s odd multiples, `b` in width-8 NAF
    /// over a static table of `B`'s.
    ///
    /// **Variable-time** in both scalars and in `A`: for public inputs
    /// only (signature verification).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    #[must_use]
    pub fn vartime_double_scalar_mul_base_with(
        kernel: Kernel,
        a: &[u8; 32],
        point: &Point,
        b: &[u8; 32],
    ) -> Point {
        assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
        let (a_naf, b_naf) = (wnaf(a, 5), wnaf(b, 8));
        let top = (0..257).rev().find(|&i| a_naf[i] != 0 || b_naf[i] != 0);
        let top = top.unwrap_or(0);
        let table_b = Point::base_odd_multiples();
        match kernel {
            Kernel::Scalar => {
                let table_a = point.odd_multiples();
                let mut r = Completed::IDENTITY;
                for i in (0..=top).rev() {
                    r = r.double();
                    // A digit is odd: ±1, ±3, … index entries 0, 1, ….
                    let (da, db) = (a_naf[i], b_naf[i]);
                    if da != 0 {
                        let entry = table_a[da.unsigned_abs() as usize / 2];
                        let entry = if da < 0 { entry.neg() } else { entry };
                        r = r.to_point().add_cached(&entry);
                    }
                    if db != 0 {
                        let entry = table_b[db.unsigned_abs() as usize / 2];
                        let entry = if db < 0 { entry.neg() } else { entry };
                        r = r.to_point().add_affine(&entry);
                    }
                }
                r.to_point()
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `supported` detected avx512f, avx512vl and avx512ifma on this CPU.
            Kernel::Ifma => unsafe { ifma::straus(&a_naf, point, &b_naf, table_b, top) },
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Ifma => unreachable!("only Scalar is supported off x86-64"),
        }
    }

    /// The `u`-coordinate of the birationally equivalent Montgomery
    /// point, `(1+y)/(1-y) = (Z+Y)/(Z-Y)`, as X25519 encodes it (the
    /// identity maps to 0), inverting through `kernel`.
    pub(crate) fn montgomery_u(&self, kernel: Kernel) -> [u8; 32] {
        let den = self.z.sub(&self.y).invert_with(kernel);
        self.z.add(&self.y).mul(&den).to_bytes()
    }

    /// Compresses to the 32-byte RFC 8032 encoding.
    #[must_use]
    pub fn compress(&self) -> [u8; 32] {
        self.compress_with(Kernel::detect())
    }

    /// [`Self::compress`], inverting `Z` through `kernel`.
    fn compress_with(&self, kernel: Kernel) -> [u8; 32] {
        let zinv = self.z.invert_with(kernel);
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses an RFC 8032 point encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when the encoding does not
    /// name a curve point, or names one non-canonically (`y >= p`).
    pub fn decompress(enc: &[u8; 32]) -> Result<Point> {
        let d = Decoding::new(enc)?;
        d.finish(&d.root.pow_p58())
    }

    /// Whether two points are equal (projective comparison).
    #[must_use]
    pub fn equals(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  <=>  x1*z2 == x2*z1, same for y.
        let a = self.x.mul(&other.z);
        let b = other.x.mul(&self.z);
        let c = self.y.mul(&other.z);
        let d = other.y.mul(&self.z);
        a.ct_eq(&b) && c.ct_eq(&d)
    }
}

/// The Edwards operations on [`F4`](crate::fe25519x4::F4): a point is
/// `(X, Y, Z, T)` in the four lanes, an addition's right-hand operand
/// `(Y-X, Y+X, 2Z, 2dT)`, and both formulas are Hisil–Wong–Carter–Dawson's
/// in the parallel arrangement curve25519-dalek's vector backends use:
/// an addition is two vector multiplications, a doubling a vector
/// squaring and a multiplication. The tables are the scalar kernel's,
/// an entry packed into lanes as it is used.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{AffineCached, Cached, Point};
    use crate::fe25519::{constants, Fe};
    use crate::fe25519x4::{lanes, A, B, C, D, F4};

    /// `(Y-X, Y+X, Z, T)` of a point `(X, Y, Z, T)`, carried.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn diff_sum(p: &F4) -> F4 {
        let yx = p.shuffle::<{ lanes(1, 0, 3, 2) }>();
        p.blend(&yx.add(&p.neg_lanes(A)), A | B).carry()
    }

    /// The point `$p + $q` for an addend `$q`, by "add-2008-hwcd-3":
    /// `(A, B, D, C)` = `(Y1-X1)(Y2-X2)`, `(Y1+X1)(Y2+X2)`, `2·Z1·Z2`,
    /// `2d·T1·T2`; then `(E, H, F, G)` = `(B-A, B+A, D-C, D+C)` and
    /// `(X3, Y3, Z3, T3)` = `(EF, GH, GF, EH)`.
    ///
    /// The two group operations are macros so that each use is inlined
    /// into its loop: `#[inline(always)]` is not allowed beside
    /// `#[target_feature]`, and through a call (the operands go through
    /// memory) a doubling took 100 ns where inlined it takes 60.
    macro_rules! add {
        ($p:expr, $q:expr) => {{
            let abdc = diff_sum(&$p).mul(&$q);
            let badc = abdc.shuffle::<{ lanes(1, 0, 3, 2) }>();
            let minuend = badc.blend(&abdc, C);
            let ehfg = minuend.add(&abdc.blend(&badc, C).neg_lanes(A | C)).carry();
            let egge = ehfg.shuffle::<{ lanes(0, 3, 3, 0) }>();
            egge.mul(&ehfg.shuffle::<{ lanes(2, 1, 2, 1) }>())
        }};
    }

    /// `2·$p` by "dbl-2008-hwcd" with every term negated: from
    /// `(S1, S2, S3, S4)` = `(X², Y², Z², (X+Y)²)`, `S5 = S1+S2`,
    /// `S6 = S1-S2`, `S8 = S6+2·S3`, `S9 = S5-S4`, and
    /// `(X3, Y3, Z3, T3)` = `(S8·S9, S5·S6, S8·S6, S5·S9)`.
    macro_rules! double {
        ($p:expr) => {{
            let p: F4 = $p;
            let yx = p.shuffle::<{ lanes(1, 0, 3, 2) }>();
            let sum = p.add(&yx).shuffle::<{ lanes(0, 0, 0, 0) }>();
            let s = p.blend(&sum, D).carry().square();
            let s1 = s.shuffle::<{ lanes(0, 0, 0, 0) }>();
            let s2 = s.shuffle::<{ lanes(1, 1, 1, 1) }>();
            // (0, 0, 2·S3, -S4) + S1 + (S2, -S2, -S2, S2).
            let zero = F4::splat(&Fe::ZERO);
            let t = zero.blend(&s.add(&s), C).blend(&s.neg_lanes(D), D);
            let t = t.add(&s1).add(&s2.neg_lanes(B | C)).carry();
            let s8s5 = t.shuffle::<{ lanes(2, 0, 2, 0) }>();
            s8s5.mul(&t.shuffle::<{ lanes(3, 1, 1, 3) }>())
        }};
    }

    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn pack(p: &Point) -> F4 {
        F4::new([&p.x, &p.y, &p.z, &p.t]).carry()
    }

    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn unpack(p: &F4) -> Point {
        let [x, y, z, t] = p.split();
        Point { x, y, z, t }
    }

    /// The addend of a point.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn addend(p: &F4) -> F4 {
        let c = constants();
        diff_sum(p).mul(&F4::new([&Fe::ONE, &Fe::ONE, &Fe::from_u64(2), &c.d2]))
    }

    /// The addend of the negated point: `Y-X` and `Y+X` trade places,
    /// `2dT` flips.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn neg_addend(q: &F4) -> F4 {
        q.shuffle::<{ lanes(1, 0, 2, 3) }>().neg_lanes(D)
    }

    /// [`Point::scalar_mul_base_with`]: the same windows and masked
    /// selection, the additions in lanes.
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(super) fn scalar_mul_base(table: &[[Cached; 15]], k: &[u8; 32]) -> Point {
        let mut acc = pack(&Point::identity());
        for (w, row) in table.iter().enumerate() {
            let c = Point::select(row, super::window(k, w));
            let z2 = c.z.add(&c.z);
            let q = F4::new([&c.y_minus_x, &c.y_plus_x, &z2, &c.t2d]).carry();
            acc = add!(acc, q);
        }
        unpack(&acc)
    }

    /// [`Point::vartime_double_scalar_mul_base_with`] from `top` down,
    /// the same digits and tables, the group operations in lanes.
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(super) fn straus(
        a_naf: &[i8; 257],
        point: &Point,
        b_naf: &[i8; 257],
        table_b: &[AffineCached; 64],
        top: usize,
    ) -> Point {
        let p = pack(point);
        let twice = double!(p);
        let mut table_a = [addend(&p); 8];
        for i in 1..8 {
            table_a[i] = addend(&add!(twice, table_a[i - 1]));
        }
        let two = Fe::from_u64(2);
        let mut r = pack(&Point::identity());
        for i in (0..=top).rev() {
            r = double!(r);
            let (da, db) = (a_naf[i], b_naf[i]);
            if da != 0 {
                let q = table_a[da.unsigned_abs() as usize / 2];
                r = add!(r, if da < 0 { neg_addend(&q) } else { q });
            }
            if db != 0 {
                let c = &table_b[db.unsigned_abs() as usize / 2];
                let q = F4::new([&c.y_minus_x, &c.y_plus_x, &two, &c.xy2d]).carry();
                r = add!(r, if db < 0 { neg_addend(&q) } else { q });
            }
        }
        unpack(&r)
    }
}

/// An Ed25519 signing key (32-byte seed plus cached expansion).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    scalar: [u8; 32],
    prefix: [u8; 32],
    public: [u8; 32],
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed.
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        SigningKey::from_seed_with(Kernel::detect(), seed)
    }

    /// [`Self::from_seed`] through `kernel` (the equivalence tests call
    /// each).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn from_seed_with(kernel: Kernel, seed: &[u8; 32]) -> SigningKey {
        let h = Sha512::digest(seed);
        let mut scalar = [0u8; 32];
        scalar.copy_from_slice(&h[..32]);
        scalar[0] &= 248;
        scalar[31] &= 63;
        scalar[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let public = Point::scalar_mul_base_with(kernel, &scalar).compress_with(kernel);
        SigningKey {
            seed: *seed,
            scalar,
            prefix,
            public,
        }
    }

    /// The 32-byte seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The corresponding verifying (public) key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey { bytes: self.public }
    }

    /// Signs `message`, returning the 64-byte signature `R || S`.
    pub fn sign(&self, message: &[u8]) -> [u8; 64] {
        self.sign_with(Kernel::detect(), message)
    }

    /// [`Self::sign`] through `kernel` (the equivalence tests call each).
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn sign_with(&self, kernel: Kernel, message: &[u8]) -> [u8; 64] {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = scalar::reduce512(&h.finalize());
        let r_point = Point::scalar_mul_base_with(kernel, &r).compress_with(kernel);

        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&self.public);
        h.update(message);
        let k = scalar::reduce512(&h.finalize());
        let s = scalar::mul_add(&k, &self.scalar, &r);

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s);
        sig
    }
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secret material.
        write!(f, "SigningKey(public = {:02x?}...)", &self.public[..4])
    }
}

/// An Ed25519 verifying (public) key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifyingKey {
    bytes: [u8; 32],
}

impl VerifyingKey {
    /// Wraps a 32-byte compressed public key.
    pub fn from_bytes(bytes: &[u8; 32]) -> VerifyingKey {
        VerifyingKey { bytes: *bytes }
    }

    /// The compressed public key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadSignature`] on any verification failure,
    /// including malformed points and non-canonical `S`.
    pub fn verify(&self, message: &[u8], signature: &[u8; 64]) -> Result<()> {
        self.verify_with(Kernel::detect(), message, signature)
    }

    /// [`Self::verify`] through `kernel` (the equivalence tests call
    /// each).
    ///
    /// # Errors
    ///
    /// As [`Self::verify`].
    ///
    /// # Panics
    ///
    /// If this CPU does not support `kernel`.
    pub fn verify_with(&self, kernel: Kernel, message: &[u8], signature: &[u8; 64]) -> Result<()> {
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&signature[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&signature[32..]);

        if !scalar::is_canonical(&s_bytes) {
            return Err(CryptoError::BadSignature);
        }
        let bad = |_| CryptoError::BadSignature;
        let a = Decoding::new(&self.bytes).map_err(bad)?;
        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.bytes);
        h.update(message);
        let k = scalar::reduce512(&h.finalize());

        // [S]B == R + [k]A, checked as: [S]B - [k]A encodes to the R
        // that was sent. Equal bytes mean R decodes to that point, and a
        // decoded R that satisfies the equation has these bytes as its
        // one canonical encoding. So the scalar kernel never decompresses
        // R and compresses the result instead; the vector kernel raises
        // the roots of A and R in two lanes of one chain and compares
        // points, which saves the compression's inversion and accepts
        // the same set: `decompress` takes canonical encodings only.
        let ok = match kernel {
            Kernel::Scalar => {
                let a = a.finish(&a.root.pow_p58()).map_err(bad)?;
                let r = Point::vartime_double_scalar_mul_base_with(kernel, &k, &a.neg(), &s_bytes);
                ct::eq(&r.compress_with(kernel), &r_bytes)
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Ifma => {
                let r = Decoding::new(&r_bytes).map_err(bad)?;
                assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
                // SAFETY: `supported` detected avx512f, avx512vl and avx512ifma on this CPU.
                let (pow_a, pow_r) = unsafe { crate::fe25519x4::pow_p58_pair(&a.root, &r.root) };
                let (a, r) = (
                    a.finish(&pow_a).map_err(bad)?,
                    r.finish(&pow_r).map_err(bad)?,
                );
                Point::vartime_double_scalar_mul_base_with(kernel, &k, &a.neg(), &s_bytes)
                    .equals(&r)
            }
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Ifma => unreachable!("only Scalar is supported off x86-64"),
        };
        if ok {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

/// The uniform ladder every scalar multiplication once ran: no caller
/// is left in the library, the tests keep it as their oracle.
#[cfg(test)]
impl Point {
    /// `[k]P`: an addition and a doubling per bit, all 256 of them.
    pub(crate) fn scalar_mul(&self, k: &[u8; 32]) -> Point {
        let (mut r0, mut r1) = (Point::identity(), *self);
        for i in (0..256).rev() {
            let bit = (k[i / 8] >> (i % 8)) & 1 == 1;
            if bit {
                std::mem::swap(&mut r0, &mut r1);
            }
            (r0, r1) = (r0.double(), r0.add(&r1));
            if bit {
                std::mem::swap(&mut r0, &mut r1);
            }
        }
        r0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fe25519::CARRIES;
    use crate::x25519;

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        let v: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    // RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test1() {
        let seed: [u8; 32] =
            unhex("9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.verifying_key().as_bytes(),
            &unhex::<32>("d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a")
        );
        let sig = key.sign(b"");
        let expected: [u8; 64] = unhex(
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        );
        assert_eq!(sig.to_vec(), expected.to_vec());
        key.verifying_key().verify(b"", &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST 2 (one byte).
    #[test]
    fn rfc8032_test2() {
        let seed: [u8; 32] =
            unhex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
        let key = SigningKey::from_seed(&seed);
        assert_eq!(
            key.verifying_key().as_bytes(),
            &unhex::<32>("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
        );
        let msg = [0x72u8];
        let sig = key.sign(&msg);
        let expected: [u8; 64] = unhex(
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        );
        assert_eq!(sig.to_vec(), expected.to_vec());
        key.verifying_key().verify(&msg, &sig).unwrap();
    }

    // RFC 8032 §7.1 TEST 3 (two bytes).
    #[test]
    fn rfc8032_test3() {
        let seed: [u8; 32] =
            unhex("c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
        let key = SigningKey::from_seed(&seed);
        let msg = unhex::<2>("af82");
        let sig = key.sign(&msg);
        let expected: [u8; 64] = unhex(
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        );
        assert_eq!(sig.to_vec(), expected.to_vec());
        key.verifying_key().verify(&msg, &sig).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let sig = key.sign(b"hello");
        assert!(key.verifying_key().verify(b"hellp", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let mut sig = key.sign(b"hello");
        sig[10] ^= 1;
        assert!(key.verifying_key().verify(b"hello", &sig).is_err());
        let mut sig2 = key.sign(b"hello");
        sig2[40] ^= 1; // corrupt S half
        assert!(key.verifying_key().verify(b"hello", &sig2).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let other = SigningKey::from_seed(&[8u8; 32]);
        let sig = key.sign(b"hello");
        assert!(other.verifying_key().verify(b"hello", &sig).is_err());
    }

    #[test]
    fn verify_rejects_noncanonical_s() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let mut sig = key.sign(b"hello");
        // Make S >= l by setting it to all-ones.
        for b in sig[32..].iter_mut() {
            *b = 0xff;
        }
        assert_eq!(
            key.verifying_key().verify(b"hello", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn point_algebra() {
        let b = Point::basepoint();
        // 2B computed via double and via add agree.
        assert!(b.double().equals(&b.add(&b)));
        // B + identity == B.
        assert!(b.add(&Point::identity()).equals(&b));
        // 3B = 2B + B = B + 2B.
        let two_b = b.double();
        assert!(two_b.add(&b).equals(&b.add(&two_b)));
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = Point::basepoint();
        let mut acc = Point::identity();
        for k in 0u8..8 {
            let mut scalar = [0u8; 32];
            scalar[0] = k;
            assert!(b.scalar_mul(&scalar).equals(&acc), "k={k}");
            acc = acc.add(&b);
        }
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let b = Point::basepoint();
        let mut scalar = [0u8; 32];
        for k in 1u8..6 {
            scalar[0] = k * 29;
            let p = b.scalar_mul(&scalar);
            let enc = p.compress();
            let q = Point::decompress(&enc).unwrap();
            assert!(p.equals(&q));
            assert_eq!(q.compress(), enc);
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 does not give a square x^2 for the curve; probe a few.
        let mut bad = 0;
        for y in 2u8..12 {
            let mut enc = [0u8; 32];
            enc[0] = y;
            if Point::decompress(&enc).is_err() {
                bad += 1;
            }
        }
        assert!(bad > 0, "expected at least one non-point among small y");
    }

    /// Field multiplications `op` makes: `Fe::carry` calls, and the
    /// lane kernel's vector products (four lanes each).
    fn products<T>(op: impl FnOnce() -> T) -> (u64, u64) {
        let count = || {
            #[cfg(target_arch = "x86_64")]
            let vector = crate::fe25519x4::PRODUCTS.with(|n| n.get());
            #[cfg(not(target_arch = "x86_64"))]
            let vector = 0;
            (CARRIES.with(|n| n.get()), vector)
        };
        let before = count();
        let _ = op();
        let after = count();
        (after.0 - before.0, after.1 - before.1)
    }

    // The count of an operation repeats exactly, so this holds the
    // kernels to their cost where a timing gate would read host noise.
    // Measured, scalar: sign 779, verify 2,854..2,959, public_key 778,
    // shared_secret 2,816 (uniform ladder, bit-by-bit inversion and no
    // Edwards key generation: 1,084, 6,733, 3,057, 3,057). IFMA, scalar
    // and vector (four lanes each), at most: sign 2 + 393, verify 30 +
    // 942, public_key 1 + 393, shared_secret 1 + 1,030.
    #[test]
    fn field_multiplication_ceilings() {
        // Tables are built at first use; that is not the steady state.
        let warm = SigningKey::from_seed(&[1; 32]);
        assert!(warm.verifying_key().verify(b"", &warm.sign(b"")).is_ok());
        let ceilings = |kernel| match kernel {
            // sign, verify, public_key, shared_secret
            Kernel::Scalar => [(1_000, 0), (3_800, 0), (1_000, 0), (2_900, 0)],
            Kernel::Ifma => [(10, 420), (50, 1_000), (10, 420), (10, 1_050)],
        };
        for kernel in Kernel::ALL.into_iter().filter(|k| k.supported()) {
            let [sign, verify, public, shared] = ceilings(kernel);
            let within = |got: (u64, u64), max: (u64, u64)| got.0 <= max.0 && got.1 <= max.1;
            plat::check::run_cases("field_multiplication_ceilings", 200, |g| {
                let key = SigningKey::from_seed_with(kernel, &g.byte_array());
                let msg = g.bytes(0..200);
                let (secret, peer) = (g.byte_array(), x25519::public_key(&g.byte_array()));
                let mut sig = [0; 64];
                assert!(within(products(|| sig = key.sign_with(kernel, &msg)), sign));
                let vk = key.verifying_key();
                let ok = || assert!(vk.verify_with(kernel, &msg, &sig).is_ok());
                assert!(within(products(ok), verify));
                assert!(within(
                    products(|| x25519::public_key_with(kernel, &secret)),
                    public
                ));
                let got = products(|| x25519::x25519_with(kernel, &secret, &peer));
                assert!(within(got, shared), "{kernel:?} {got:?}");
            });
        }
    }
}

#[cfg(test)]
mod base_table_tests {
    use super::*;

    #[test]
    fn fixed_base_matches_ladder() {
        let b = Point::basepoint();
        for seed in 0u8..6 {
            let mut k = [0u8; 32];
            for (i, v) in k.iter_mut().enumerate() {
                *v = (i as u8).wrapping_mul(31).wrapping_add(seed * 17);
            }
            // Reduce so both paths see the same scalar semantics.
            let k = crate::scalar::reduce256(&k);
            let fast = Point::scalar_mul_base(&k);
            let slow = b.scalar_mul(&k);
            assert!(fast.equals(&slow), "seed {seed}");
        }
    }

    #[test]
    fn fixed_base_small_values() {
        let b = Point::basepoint();
        let mut acc = Point::identity();
        for n in 0u8..10 {
            let mut k = [0u8; 32];
            k[0] = n;
            assert!(Point::scalar_mul_base(&k).equals(&acc), "n = {n}");
            acc = acc.add(&b);
        }
    }
}
