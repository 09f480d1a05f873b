//! X25519 Diffie-Hellman key agreement (RFC 7748).

use crate::ed25519::Point;
use crate::fe25519::{Fe, Kernel};

/// The X25519 base point (`u = 9`).
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Clamps a 32-byte scalar per RFC 7748 §5.
#[must_use]
pub fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// Computes the X25519 function: scalar multiplication of the Montgomery
/// `u`-coordinate `u` by the clamped scalar `k`.
#[must_use]
pub fn x25519(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    x25519_with(Kernel::detect(), k, u)
}

/// [`x25519`] through `kernel` instead of the one [`Kernel::detect`]
/// picks (the equivalence tests call each).
///
/// # Panics
///
/// If this CPU does not support `kernel`.
#[must_use]
pub fn x25519_with(kernel: Kernel, k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    assert!(kernel.supported(), "{kernel:?} not supported by this CPU");
    let k = clamp(*k);
    let x1 = Fe::from_bytes(u);
    let (x2, z2) = match kernel {
        Kernel::Scalar => ladder(&k, &x1),
        // SAFETY: `supported` detected avx512f, avx512vl and avx512ifma on this CPU.
        Kernel::Ifma => unsafe { ifma::ladder(&k, &x1) },
    };
    x2.mul(&z2.invert_with(kernel)).to_bytes()
}

/// The Montgomery ladder over the bits of the clamped `k`: `(X : Z)` of
/// `[k]u`.
fn ladder(k: &[u8; 32], x1: &Fe) -> (Fe, Fe) {
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = *x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        let t0 = da.add(&cb);
        x3 = t0.square();
        let t1 = da.sub(&cb);
        z3 = x1.mul(&t1.square());
        x2 = aa.mul(&bb);
        let t2 = e.mul_small(121665);
        z2 = e.mul(&aa.add(&t2));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);
    (x2, z2)
}

/// The same ladder with the state `(x2, z2, x3, z3)` in the lanes of one
/// [`F4`]: each step's four multiplications, then its four squarings
/// and products, go as one vector multiplication each, and `x1`'s
/// product as a third. The swaps are masks, so `k` may be secret.
mod ifma {
    use crate::fe25519::Fe;
    use crate::fe25519x4::{lanes, B, C, D, F4};

    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(super) fn ladder(k: &[u8; 32], x1: &Fe) -> (Fe, Fe) {
        let mut s = F4::new([&Fe::ONE, &Fe::ZERO, x1, &Fe::ONE]);
        let by_x1 = F4::new([&Fe::ONE, x1, &Fe::ONE, &Fe::ONE]);
        let mut swap = 0u64;
        for t in (0..255).rev() {
            let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
            swap ^= k_t;
            s = s.swap_halves(swap);
            swap = k_t;
            // (x2 + z2, x2 - z2, x3 - z3, x3 + z3) = (A, B, D, C).
            let x = s.shuffle::<{ lanes(0, 0, 2, 2) }>();
            let z = s.shuffle::<{ lanes(1, 1, 3, 3) }>();
            let abdc = x.add(&z.neg_lanes(B | C)).carry();
            // (AA, BB, DA, CB).
            let m = abdc.mul(&abdc.shuffle::<{ lanes(0, 1, 0, 1) }>());
            // (DA + CB, DA - CB, AA, E = AA - BB) and
            // (DA + CB, DA - CB, BB, AA + 121665·E).
            let p = m.shuffle::<{ lanes(2, 2, 0, 0) }>();
            let q = m.shuffle::<{ lanes(3, 3, 1, 1) }>();
            let zero = F4::splat(&Fe::ZERO);
            let u = p.add(&q.neg_lanes(B | D).blend(&zero, C)).carry();
            let v = u
                .mul_small([1, 1, 0, 121665])
                .add(&zero.blend(&q, C).blend(&p, D));
            // (x3, (DA - CB)², x2, z2), then z3 = x1·(DA - CB)².
            let n = u.mul(&v.carry()).mul(&by_x1);
            s = n.shuffle::<{ lanes(2, 3, 0, 1) }>();
        }
        let [x2, z2, ..] = s.swap_halves(swap).split();
        (x2, z2)
    }
}

/// Derives the public key for secret scalar `k`: `x25519(k, 9)`,
/// computed on the Edwards form of the curve, where the base point has
/// a table ([`Point::scalar_mul_base`], constant-time in `k`), and
/// mapped back to the Montgomery `u`-coordinate.
#[must_use]
pub fn public_key(k: &[u8; 32]) -> [u8; 32] {
    public_key_with(Kernel::detect(), k)
}

/// [`public_key`] through `kernel` (the equivalence tests call each).
///
/// # Panics
///
/// If this CPU does not support `kernel`.
#[must_use]
pub fn public_key_with(kernel: Kernel, k: &[u8; 32]) -> [u8; 32] {
    Point::scalar_mul_base_with(kernel, &clamp(*k)).montgomery_u(kernel)
}

/// Computes the shared secret between secret `k` and peer public `pk`.
#[must_use]
pub fn shared_secret(k: &[u8; 32], pk: &[u8; 32]) -> [u8; 32] {
    x25519(k, pk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let k = unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let expected = unhex("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(x25519(&k, &u), expected);
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let k = unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let expected = unhex("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(x25519(&k, &u), expected);
    }

    // RFC 7748 §6.1 Diffie-Hellman example.
    #[test]
    fn rfc7748_dh_example() {
        let alice_sk = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_sk = unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pk = public_key(&alice_sk);
        let bob_pk = public_key(&bob_sk);
        assert_eq!(
            alice_pk,
            unhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            bob_pk,
            unhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let shared = unhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
        assert_eq!(shared_secret(&alice_sk, &bob_pk), shared);
        assert_eq!(shared_secret(&bob_sk, &alice_pk), shared);
    }

    // RFC 7748 §5.2: 1,000-iteration ladder test (the 1M variant is too
    // slow for CI).
    #[test]
    fn rfc7748_iterated_1000() {
        let mut k = unhex("0900000000000000000000000000000000000000000000000000000000000000");
        let mut u = k;
        for _ in 0..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            k,
            unhex("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")
        );
    }

    #[test]
    fn dh_commutes_random() {
        let a: [u8; 32] = core::array::from_fn(|i| (i * 7 + 1) as u8);
        let b: [u8; 32] = core::array::from_fn(|i| (i * 13 + 5) as u8);
        assert_eq!(
            shared_secret(&a, &public_key(&b)),
            shared_secret(&b, &public_key(&a))
        );
    }
}
