//! Arithmetic modulo the Ed25519 group order
//! `l = 2^252 + 27742317777372353535851937790883648493`.
//!
//! The byte-wise reduction follows the well-known TweetNaCl `modL`
//! routine: scalars are little-endian byte arrays, intermediates are
//! `i64` limbs of radix 2^8. Simple and easy to audit, and it can
//! afford to be: a signature or a verification spends two or three
//! reductions here (a few thousand `i64` operations) beside 800 to
//! 2,900 field multiplications of curve arithmetic in `ed25519.rs`.
//! New-connection workloads are bound by that curve arithmetic, so
//! that is where the optimised kernels are, not here.

/// The group order `l` as little-endian bytes (radix-256 limbs).
const L: [i64; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
];

/// Reduces a 512-bit little-endian value modulo `l` into 32 bytes.
pub fn reduce512(input: &[u8; 64]) -> [u8; 32] {
    let mut x = [0i64; 64];
    for (i, b) in input.iter().enumerate() {
        x[i] = *b as i64;
    }
    mod_l(&mut x)
}

/// Reduces a 256-bit little-endian value modulo `l`.
pub fn reduce256(input: &[u8; 32]) -> [u8; 32] {
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(input);
    reduce512(&wide)
}

/// Computes `(a * b + c) mod l` on 32-byte little-endian scalars.
pub fn mul_add(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let mut x = [0i64; 64];
    for (i, v) in c.iter().enumerate() {
        x[i] = *v as i64;
    }
    for i in 0..32 {
        for j in 0..32 {
            x[i + j] += (a[i] as i64) * (b[j] as i64);
        }
    }
    mod_l(&mut x)
}

/// Whether `s` is a canonical scalar, i.e. `s < l` (RFC 8032 check for
/// the `S` half of signatures).
pub fn is_canonical(s: &[u8; 32]) -> bool {
    // Compare little-endian from the most significant byte down.
    for i in (0..32).rev() {
        let si = s[i] as i64;
        match si.cmp(&L[i]) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => continue,
        }
    }
    false // s == l is not canonical.
}

fn mod_l(x: &mut [i64; 64]) -> [u8; 32] {
    for i in (32..64).rev() {
        let mut carry = 0i64;
        let xi = x[i];
        #[allow(clippy::needless_range_loop)]
        for j in (i - 32)..(i - 12) {
            x[j] += carry - 16 * xi * L[j - (i - 32)];
            carry = (x[j] + 128) >> 8;
            x[j] -= carry << 8;
        }
        x[i - 12] += carry;
        x[i] = 0;
    }
    let mut carry = 0i64;
    for j in 0..32 {
        x[j] += carry - (x[31] >> 4) * L[j];
        carry = x[j] >> 8;
        x[j] &= 255;
    }
    for j in 0..32 {
        x[j] -= carry * L[j];
    }
    let mut r = [0u8; 32];
    for i in 0..32 {
        x[i + 1] += x[i] >> 8;
        r[i] = (x[i] & 255) as u8;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_bytes() -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, v) in L.iter().enumerate() {
            out[i] = *v as u8;
        }
        out
    }

    #[test]
    fn reduce_zero() {
        assert_eq!(reduce512(&[0u8; 64]), [0u8; 32]);
    }

    #[test]
    fn reduce_l_is_zero() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&l_bytes());
        assert_eq!(reduce512(&wide), [0u8; 32]);
    }

    #[test]
    fn reduce_l_plus_one_is_one() {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&l_bytes());
        // l + 1 (no carry since low byte of l is 0xed).
        wide[0] += 1;
        let mut one = [0u8; 32];
        one[0] = 1;
        assert_eq!(reduce512(&wide), one);
    }

    #[test]
    fn small_values_unchanged() {
        let mut wide = [0u8; 64];
        wide[0] = 42;
        wide[5] = 17;
        let r = reduce512(&wide);
        assert_eq!(r[0], 42);
        assert_eq!(r[5], 17);
        assert!(r[6..].iter().all(|&b| b == 0));
    }

    #[test]
    fn mul_add_small() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        let mut c = [0u8; 32];
        a[0] = 3;
        b[0] = 4;
        c[0] = 5;
        let r = mul_add(&a, &b, &c);
        assert_eq!(r[0], 17);
        assert!(r[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn mul_add_with_carry() {
        let a = [0xffu8; 32]; // huge scalar, gets reduced
        let b = [2u8; 32];
        let c = [1u8; 32];
        let r = mul_add(&a, &b, &c);
        assert!(is_canonical(&r));
    }

    #[test]
    fn canonicality() {
        assert!(is_canonical(&[0u8; 32]));
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(is_canonical(&one));
        assert!(!is_canonical(&l_bytes()));
        let mut l_minus_1 = l_bytes();
        l_minus_1[0] -= 1;
        assert!(is_canonical(&l_minus_1));
        assert!(!is_canonical(&[0xffu8; 32]));
    }

    #[test]
    fn reduction_idempotent() {
        // reduce(reduce(x)) == reduce(x) for assorted wide inputs.
        for seed in 0u8..8 {
            let wide: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ seed);
            let once = reduce512(&wide);
            assert!(is_canonical(&once));
            assert_eq!(reduce256(&once), once);
        }
    }
}
