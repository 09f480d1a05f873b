//! Old ≡ new, adversarially: the curve kernels against the algorithms
//! they replaced, rebuilt here from the public group operations.
//!
//! The oracle is what the library ran before the Straus / fixed-base
//! rewrite: a uniform 256-step add-and-double ladder for every scalar
//! multiplication, a verifier that decompresses `R` and checks
//! `[S]B == R + [k]A`, and Montgomery-ladder key generation. Inputs come
//! from the seeded `plat::check` harness, so a failure replays.

use libseal_crypto::ed25519::{Point, SigningKey, VerifyingKey};
use libseal_crypto::sha2::Sha512;
use libseal_crypto::{scalar, x25519, CryptoError};
use plat::check::{run_cases, Gen};

/// The group order `l`, little-endian.
const L: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
];

/// `[k]P` by the uniform ladder: an addition and a doubling per bit,
/// all 256 of them, whatever `k` is.
fn ladder(p: &Point, k: &[u8; 32]) -> Point {
    let (mut r0, mut r1) = (Point::identity(), *p);
    for i in (0..256).rev() {
        let bit = (k[i / 8] >> (i % 8)) & 1 == 1;
        if bit {
            std::mem::swap(&mut r0, &mut r1);
        }
        r1 = r0.add(&r1);
        r0 = r0.double();
        if bit {
            std::mem::swap(&mut r0, &mut r1);
        }
    }
    r0
}

/// The verifier as it was: `S` canonical, `A` and `R` decompress,
/// `[S]B == R + [k]A`, and `R` was sent in its canonical bytes.
fn oracle_verify(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
    let (r_bytes, s) = halves(sig);
    if !scalar::is_canonical(&s) {
        return false;
    }
    let (Ok(a), Ok(r)) = (Point::decompress(key), Point::decompress(&r_bytes)) else {
        return false;
    };
    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(key);
    h.update(msg);
    let k = scalar::reduce512(&h.finalize());
    let lhs = ladder(&Point::basepoint(), &s);
    lhs.equals(&r.add(&ladder(&a, &k))) && r.compress() == r_bytes
}

fn halves(sig: &[u8; 64]) -> ([u8; 32], [u8; 32]) {
    let mut halves = ([0; 32], [0; 32]);
    halves.0.copy_from_slice(&sig[..32]);
    halves.1.copy_from_slice(&sig[32..]);
    halves
}

/// Both verifiers on one input; they must agree. Returns the verdict.
fn agree(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
    let new = VerifyingKey::from_bytes(key).verify(msg, sig).is_ok();
    assert_eq!(
        new,
        oracle_verify(key, msg, sig),
        "key {key:02x?} sig {sig:02x?}"
    );
    new
}

fn small(n: u8) -> [u8; 32] {
    let mut s = [0; 32];
    s[0] = n;
    s
}

fn bit(n: usize) -> [u8; 32] {
    let mut s = [0; 32];
    s[n / 8] = 1 << (n % 8);
    s
}

/// `a + b` on 256-bit little-endian integers (wrapping).
fn add256(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut carry = 0u16;
    std::array::from_fn(|i| {
        carry += a[i] as u16 + b[i] as u16;
        let byte = carry as u8;
        carry >>= 8;
        byte
    })
}

/// Scalars at the edges of the recoding: 0, 1, `l - 1`, `l`, `2^252`,
/// `2^253 - 1`, and values whose top window is at least half its width,
/// so the non-adjacent form carries into a 257th digit.
fn edge_scalars() -> Vec<[u8; 32]> {
    let mut two_253_minus_1 = [0xff; 32];
    two_253_minus_1[31] = 0x1f;
    let mut top_window = [0; 32];
    top_window[31] = 0xf8;
    vec![
        [0; 32],
        small(1),
        add256(&L, &[0xff; 32]),
        L,
        bit(252),
        two_253_minus_1,
        bit(255),
        top_window,
        add256(&bit(255), &bit(248)),
        [0xff; 32],
    ]
}

fn any_scalar(g: &mut Gen, edges: &[[u8; 32]]) -> [u8; 32] {
    let mut s: [u8; 32] = g.byte_array();
    match g.below(4) {
        0 => *g.pick(edges),
        1 => s,
        2 => scalar::reduce256(&s),
        _ => {
            s[31] |= 0xf0;
            s
        }
    }
}

/// A curve point with a random small-order component: the first `y` at
/// or after a random one that decompresses.
fn mixed_order_point(g: &mut Gen) -> Point {
    let mut enc: [u8; 32] = g.byte_array();
    enc[31] &= 0x7f;
    loop {
        if let Ok(p) = Point::decompress(&enc) {
            return p;
        }
        enc[0] = enc[0].wrapping_add(1);
    }
}

/// The eight points of small order, as the multiples `0..8` of a point
/// of order exactly 8 (a curve point with its prime-order part cleared
/// by `[l]`). Among them are the two the curve equation names outright:
/// `(0, -1)` of order 2 and `(±sqrt(-1), 0)` of order 4.
fn torsion() -> [Point; 8] {
    let generator = (2u8..)
        .filter_map(|y| Point::decompress(&small(y)).ok())
        .map(|p| ladder(&p, &L))
        .find(|t| !ladder(t, &small(4)).equals(&Point::identity()))
        .expect("a point whose small-order part has order 8");
    let mut acc = Point::identity();
    let points = std::array::from_fn(|_| {
        let p = acc;
        acc = acc.add(&generator);
        p
    });
    assert!(acc.equals(&Point::identity()), "order divides 8");
    let mut minus_one = [0xff; 32]; // y = p - 1
    (minus_one[0], minus_one[31]) = (0xec, 0x7f);
    assert_eq!(points[4].compress(), minus_one);
    let mut order_4 = [points[2].compress(), points[6].compress()];
    order_4.sort();
    assert_eq!(order_4, [[0; 32], bit(255)], "y = 0, x = ±sqrt(-1)");
    points
}

#[test]
fn double_scalar_mul_matches_two_ladders() {
    let (edges, torsion) = (edge_scalars(), torsion());
    let check = |a: &[u8; 32], point: &Point, b: &[u8; 32]| {
        let new = Point::vartime_double_scalar_mul_base(a, point, b);
        let old = ladder(point, a).add(&ladder(&Point::basepoint(), b));
        assert!(new.equals(&old), "a {a:02x?} b {b:02x?}");
        assert_eq!(new.compress(), old.compress());
    };
    // Every pair of edge scalars, then 1,900 seeded triples.
    let p = Point::scalar_mul_base(&small(7)).add(&torsion[1]);
    for a in &edges {
        for b in &edges {
            check(a, &p, b);
        }
    }
    run_cases("double_scalar_mul_matches_two_ladders", 1_900, |g| {
        let (a, b) = (any_scalar(g, &edges), any_scalar(g, &edges));
        let point = match g.below(4) {
            0 => Point::scalar_mul_base(&g.byte_array()),
            1 => mixed_order_point(g),
            2 => *g.pick(&torsion),
            _ => Point::scalar_mul_base(&g.byte_array()).add(g.pick(&torsion)),
        };
        check(&a, &point, &b);
    });
}

#[test]
fn mutated_signatures_get_the_oracles_verdict() {
    let torsion = torsion().map(|t| t.compress());
    let mut case = 0;
    let mut accepted = 0;
    run_cases("mutated_signatures_get_the_oracles_verdict", 2_000, |g| {
        let signer = SigningKey::from_seed(&g.byte_array());
        let mut key = *signer.verifying_key().as_bytes();
        let mut msg = g.bytes(1..100);
        let mut sig = signer.sign(&msg);
        let flip = 1u8 << g.below(8);
        case += 1;
        match case % 9 {
            0 => {}
            1 => sig[g.index(32)] ^= flip,
            2 => sig[32 + g.index(32)] ^= flip,
            3 => key[g.index(32)] ^= flip,
            4 => {
                let at = g.index(msg.len());
                msg[at] ^= flip;
            }
            5 => {
                let s_plus_l = add256(&halves(&sig).1, &L);
                sig[32..].copy_from_slice(&s_plus_l);
            }
            6 => sig[..32].copy_from_slice(&g.pick(&torsion)[..]),
            7 => key = *g.pick(&torsion),
            _ => {
                // A point of small order added to R and to A: the
                // equation may hold up to torsion, not exactly.
                let t = Point::decompress(g.pick(&torsion)).unwrap();
                let r = Point::decompress(&halves(&sig).0).unwrap();
                sig[..32].copy_from_slice(&r.add(&t).compress());
                key = Point::decompress(&key).unwrap().add(&t).compress();
            }
        }
        accepted += agree(&key, &msg, &sig) as u32;
    });
    // 1 in 9 is untouched; a torsion mutation may pick the identity.
    assert!((222..400).contains(&accepted), "{accepted} accepted");
}

#[test]
fn small_order_keys_and_commitments_get_the_oracles_verdict() {
    let torsion = torsion().map(|t| t.compress());
    // With S = 0 the equation reads R = -[k]A, which small-order pairs
    // do satisfy: the identity key with the identity R always, the
    // others when the hash (which covers R) falls right. Every (A, R)
    // pair, over four messages.
    let mut sig = [0u8; 64];
    let mut accepted = 0;
    for msg in [&b""[..], b"a", b"ab", b"abc"] {
        for key in &torsion {
            for r in &torsion {
                sig[..32].copy_from_slice(r);
                accepted += agree(key, msg, &sig) as u32;
            }
        }
    }
    assert!(accepted >= 4, "{accepted} accepted");
    // Non-canonical R: y = p + k, both sign bits. The residues 0 and 1
    // name small-order points, and neither verifier may accept them
    // spelled this way, whatever the key.
    for k in 0u8..19 {
        for sign in [0x7f, 0xff] {
            let mut r = [0xff; 32];
            (r[0], r[31]) = (0xed + k, sign);
            sig[..32].copy_from_slice(&r);
            for key in &torsion {
                assert!(!agree(key, b"", &sig));
            }
        }
    }
}

/// The one accept set that moved: `decompress` took `y mod 2^255` and so
/// accepted the 19 encodings `y = p + k`, two of which (`k` = 0, 1) name
/// curve points. As a key, the identity spelled `p + 1` verified what
/// the identity verifies.
#[test]
fn decompress_rejects_noncanonical_y() {
    for k in 0u8..19 {
        for sign in [0x7f, 0xff] {
            let mut enc = [0xff; 32];
            (enc[0], enc[31]) = (0xed + k, sign);
            let decoded = Point::decompress(&enc).map(|p| p.compress());
            assert_eq!(decoded, Err(CryptoError::InvalidPoint), "y = p + {k}");
        }
    }
    let mut sig = [0u8; 64];
    sig[0] = 1; // R = the identity, S = 0
    let mut spelled_p_plus_1 = [0xff; 32];
    (spelled_p_plus_1[0], spelled_p_plus_1[31]) = (0xee, 0x7f);
    assert!(agree(&small(1), b"", &sig), "the identity key, canonical");
    assert!(!agree(&spelled_p_plus_1, b"", &sig));
}

#[test]
fn edwards_key_generation_matches_the_montgomery_ladder() {
    let mut case = 0u8;
    run_cases(
        "edwards_key_generation_matches_the_montgomery_ladder",
        2_000,
        |g| {
            // Every pattern of the five bits clamping overwrites.
            let mut k: [u8; 32] = g.byte_array();
            k[0] = (k[0] & !7) | (case & 7);
            k[31] = (k[31] & 0x3f) | ((case >> 3) << 6);
            case = (case + 1) % 32;
            assert_eq!(
                x25519::public_key(&k),
                x25519::x25519(&k, &x25519::BASEPOINT)
            );
        },
    );
    for k in [[0; 32], [0xff; 32], small(1), bit(254), bit(255)] {
        assert_eq!(
            x25519::public_key(&k),
            x25519::x25519(&k, &x25519::BASEPOINT)
        );
    }
}
