//! Old ≡ new, adversarially: the curve kernels against the algorithms
//! they replaced, rebuilt here from the public group operations.
//!
//! The oracle is what the library ran before the Straus / fixed-base
//! rewrite: a uniform 256-step add-and-double ladder for every scalar
//! multiplication, a verifier that decompresses `R` and checks
//! `[S]B == R + [k]A`, and Montgomery-ladder key generation. Every suite
//! runs on every curve `Kernel` the CPU supports, called directly, so
//! the scalar kernel is held to the oracle on a host that dispatches to
//! the vector one, and each kernel's output to the others' bit for bit.
//! Inputs come from the seeded `plat::check` harness, so a failure
//! replays.

use libseal_crypto::ed25519::{Point, SigningKey, VerifyingKey};
use libseal_crypto::fe25519::{Fe, Kernel};
use libseal_crypto::sha2::Sha512;
use libseal_crypto::{scalar, x25519, CryptoError};
use plat::check::{run_cases, Gen};

fn kernels() -> impl Iterator<Item = Kernel> {
    Kernel::ALL.into_iter().filter(|k| k.supported())
}

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

/// The oracle and the verifier on every kernel, on one input; they must
/// agree. Returns the verdict.
fn agree(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> bool {
    let expected = oracle_verify(key, msg, sig);
    for kernel in kernels() {
        let got = VerifyingKey::from_bytes(key).verify_with(kernel, msg, sig);
        assert_eq!(
            got.is_ok(),
            expected,
            "{kernel:?}: key {key:02x?} sig {sig:02x?}"
        );
    }
    assert_eq!(
        VerifyingKey::from_bytes(key).verify(msg, sig).is_ok(),
        expected
    );
    expected
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
        let old = ladder(point, a).add(&ladder(&Point::basepoint(), b));
        for kernel in kernels() {
            let new = Point::vartime_double_scalar_mul_base_with(kernel, a, point, b);
            assert!(new.equals(&old), "{kernel:?}: a {a:02x?} b {b:02x?}");
            assert_eq!(new.compress(), old.compress());
        }
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
        for kernel in kernels() {
            let again = SigningKey::from_seed_with(kernel, signer.seed());
            assert_eq!(again.verifying_key().as_bytes(), &key, "{kernel:?}");
            assert_eq!(again.sign_with(kernel, &msg), sig, "{kernel:?}");
        }
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
            keys_agree(&k);
        },
    );
    for k in [[0; 32], [0xff; 32], small(1), bit(254), bit(255)] {
        keys_agree(&k);
    }
}

/// Edwards key generation and the Montgomery ladder from the base
/// point, on every kernel, give one public key.
fn keys_agree(k: &[u8; 32]) {
    let expected = x25519::x25519_with(Kernel::Scalar, k, &x25519::BASEPOINT);
    for kernel in kernels() {
        assert_eq!(x25519::public_key_with(kernel, k), expected, "{kernel:?}");
        assert_eq!(x25519::x25519_with(kernel, k, &x25519::BASEPOINT), expected);
    }
    assert_eq!(x25519::public_key(k), expected);
}

fn unhex<const N: usize>(s: &str) -> [u8; N] {
    let v: Vec<u8> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect();
    v.try_into().unwrap()
}

/// `x25519(k, u)` on every kernel; all must give one answer, returned.
fn ladders_agree(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let expected = x25519::x25519_with(Kernel::Scalar, k, u);
    for kernel in kernels() {
        let got = x25519::x25519_with(kernel, k, u);
        assert_eq!(got, expected, "{kernel:?}: k {k:02x?} u {u:02x?}");
    }
    expected
}

#[test]
fn rfc7748_vectors_on_every_kernel() {
    for (k, u, out) in [
        (
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
        ),
        (
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
        ),
    ] {
        assert_eq!(ladders_agree(&unhex(k), &unhex(u)), unhex::<32>(out));
    }
    // §5.2's iterated test, 1,000 rounds, each kernel on its own chain.
    for kernel in kernels() {
        let mut k = x25519::BASEPOINT;
        let mut u = k;
        for _ in 0..1000 {
            (k, u) = (x25519::x25519_with(kernel, &k, &u), k);
        }
        let expected = "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51";
        assert_eq!(k, unhex::<32>(expected), "{kernel:?}");
    }
}

/// `u` is read modulo 2^255, then modulo p: bit 255 is ignored, and the
/// 19 encodings in [p, 2^255) name the same `u` as their residues.
#[test]
fn x25519_reads_u_modulo_2_255_then_p() {
    run_cases("x25519_reads_u_modulo_2_255_then_p", 200, |g| {
        let (k, mut u) = (g.byte_array(), g.byte_array::<32>());
        u[31] &= 0x7f;
        let mut high = u;
        high[31] |= 0x80;
        assert_eq!(ladders_agree(&k, &high), ladders_agree(&k, &u));
    });
    let k = [0x5a; 32];
    for r in 0u8..19 {
        let mut u = [0xff; 32]; // p + r
        (u[0], u[31]) = (0xed + r, 0x7f);
        assert_eq!(
            ladders_agree(&k, &u),
            ladders_agree(&k, &small(r)),
            "p + {r}"
        );
    }
}

/// The `u` of every point of order 1, 2, 4 or 8, canonical or not: a
/// clamped scalar is a multiple of 8, so the shared secret is zero, which
/// is what the TLS layer refuses as a weak key share.
#[test]
fn small_order_u_gives_the_zero_secret() {
    let mut shares: Vec<[u8; 32]> = vec![
        small(0),
        small(1),
        unhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
        unhex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
        unhex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
        unhex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
        unhex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
    ];
    let high: Vec<_> = shares.iter().map(|u| add256(u, &bit(255))).collect();
    shares.extend(high);
    run_cases("small_order_u_gives_the_zero_secret", 100, |g| {
        for u in &shares {
            assert_eq!(ladders_agree(&g.byte_array(), u), [0; 32], "u {u:02x?}");
        }
    });
}

/// Whether `u` is the coordinate of a point on the twist rather than on
/// the curve: `u³ + 486662·u² + u` is not a square.
fn on_twist(u: &[u8; 32]) -> bool {
    let u = Fe::from_bytes(u);
    let w = u
        .square()
        .mul(&u)
        .add(&u.square().mul_small(486662))
        .add(&u);
    // w^((p-1)/2) = (w^((p-5)/8))^4 · w², 1 or -1 for w ≠ 0.
    let legendre = w.pow_p58().square().square().mul(&w.square());
    legendre.to_bytes() != Fe::ONE.to_bytes() && !w.is_zero()
}

#[test]
fn twist_points_agree() {
    let mut twist = 0;
    run_cases("twist_points_agree", 400, |g| {
        let (k, u) = (g.byte_array(), g.byte_array());
        if on_twist(&u) {
            twist += 1;
            ladders_agree(&k, &u);
        }
    });
    assert!(twist > 100, "{twist} twist points");
    // u = 2 lies on the twist.
    assert!(on_twist(&small(2)));
    ladders_agree(&[0x77; 32], &small(2));
}

#[test]
fn random_ladders_agree() {
    run_cases("random_ladders_agree", 10_000, |g| {
        ladders_agree(&g.byte_array(), &g.byte_array());
    });
}

/// RFC 8032 §7.1 TEST 1-3: key, signature and verdict on every kernel.
#[test]
fn rfc8032_vectors_on_every_kernel() {
    let vectors = [
        (
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        ),
        (
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        ),
        (
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        ),
    ];
    for (seed, public, msg, sig) in vectors {
        let msg: Vec<u8> = (0..msg.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&msg[i..i + 2], 16).unwrap())
            .collect();
        let sig: [u8; 64] = unhex(sig);
        for kernel in kernels() {
            let key = SigningKey::from_seed_with(kernel, &unhex(seed));
            assert_eq!(key.verifying_key().as_bytes(), &unhex::<32>(public));
            assert_eq!(key.sign_with(kernel, &msg), sig, "{kernel:?}");
            let vk = key.verifying_key();
            assert_eq!(vk.verify_with(kernel, &msg, &sig), Ok(()), "{kernel:?}");
        }
    }
}

#[test]
fn a_host_with_ifma_runs_the_curves_on_it() {
    // No clock: a vector kernel that silently stopped being picked (a
    // mistyped feature name, a dispatcher that falls through) would
    // otherwise pass every equivalence test above at scalar speed.
    assert!(Kernel::Scalar.supported());
    #[cfg(target_arch = "x86_64")]
    {
        let flags = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512ifma");
        assert_eq!(Kernel::Ifma.supported(), flags);
        // The kernel's own reading of /proc/cpuinfo, where there is one.
        if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
            let line = info.lines().find(|l| l.starts_with("flags"));
            let has = |f: &str| line.is_some_and(|l| l.split_whitespace().any(|w| w == f));
            assert_eq!(
                flags,
                has("avx512f") && has("avx512vl") && has("avx512ifma")
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert!(!Kernel::Ifma.supported());
    let expected = match Kernel::Ifma.supported() {
        true => Kernel::Ifma,
        false => Kernel::Scalar,
    };
    assert_eq!(Kernel::detect(), expected);
}
