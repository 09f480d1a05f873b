//! Old ≡ new, adversarially: the lane-parallel ChaCha20 kernels, the
//! 44-bit-limb Poly1305 kernels and the AEAD over them against the
//! RFC 8439 textbook code they replaced (`oracle/mod.rs`).
//!
//! Every ChaCha20 and Poly1305 kernel the host CPU can execute is
//! called directly, not only the one `Kernel::for_len` picks, so the
//! portable paths are held to the oracle on a host that never
//! dispatches to them, and the 512-bit ones on inputs shorter than they
//! are dispatched for. Inputs come from the seeded `plat::check`
//! harness, so a failure replays.

use libseal_crypto::aead::ChaCha20Poly1305;
use libseal_crypto::chacha20::{ChaCha20, Kernel};
use libseal_crypto::poly1305::{self, Poly1305};
use plat::check::{run_cases, Gen};

mod oracle;

/// Bytes one pass of the 256-bit kernels covers; the 512-bit kernel's
/// 1,024 is every second multiple of it.
const STRIPE: usize = 512;

fn kernels() -> impl Iterator<Item = Kernel> {
    Kernel::ALL.into_iter().filter(|k| k.supported())
}

/// Every supported kernel on one input; all must equal the oracle.
fn keystreams_agree(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &[u8]) {
    let mut expected = data.to_vec();
    oracle::chacha20_xor(key, nonce, counter, &mut expected);
    let cipher = ChaCha20::new(key, nonce);
    for kernel in kernels() {
        let mut got = data.to_vec();
        cipher.apply_keystream_with(kernel, counter, &mut got);
        assert!(
            got == expected,
            "{kernel:?}: {} bytes from block {counter}, key {key:02x?} nonce {nonce:02x?}",
            data.len()
        );
    }
}

#[test]
fn a_host_with_avx2_does_not_fall_back_to_the_scalar_block() {
    // No clock: a fast path that silently stopped being picked (a
    // mistyped feature name, a dispatcher that falls through) would
    // otherwise pass every equivalence test below at scalar speed.
    assert!(Kernel::Block.supported());
    assert!(Kernel::for_len(0).supported());
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        assert!(Kernel::Avx2.supported());
        assert_ne!(Kernel::for_len(0), Kernel::Block);
        let vl = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
        assert_eq!(Kernel::Avx512vl.supported(), vl);
        assert_eq!(Kernel::for_len(4095) == Kernel::Avx512vl, vl);
    }
}

#[test]
fn a_host_with_avx512_takes_the_512_bit_kernels_from_4_kib_and_only_there() {
    // The same guard for the 512-bit bodies, and for their threshold: a
    // 16 KiB record must run them, a 4,095-byte one today's code (the
    // ~1 KiB records of a new connection are slower in 512-bit lanes).
    let short = [0, 1100, 4095];
    for len in short {
        assert_ne!(Kernel::for_len(len), Kernel::Avx512, "{len} bytes");
        assert_eq!(Kernel::for_len(len), Kernel::for_len(0), "{len} bytes");
        assert_eq!(poly1305::Kernel::for_len(len), poly1305::Kernel::Scalar);
    }
    #[cfg(target_arch = "x86_64")]
    {
        let f = is_x86_feature_detected!("avx512f");
        let ifma = f && is_x86_feature_detected!("avx512ifma");
        assert_eq!(Kernel::Avx512.supported(), f);
        assert_eq!(poly1305::Kernel::Ifma.supported(), ifma);
        for len in [4096, 16 * 1024, 16 * 1024 + 17] {
            assert_eq!(Kernel::for_len(len) == Kernel::Avx512, f, "{len} bytes");
            let wide = poly1305::Kernel::for_len(len) == poly1305::Kernel::Ifma;
            assert_eq!(wide, ifma, "{len} bytes");
        }
    }
}

#[test]
fn the_block_function_is_the_oracle_s() {
    run_cases("chacha20_block", 64, |g| {
        let (key, nonce, counter) = (g.byte_array::<32>(), g.byte_array::<12>(), g.u32());
        assert_eq!(
            ChaCha20::new(&key, &nonce).block(counter),
            oracle::chacha20_block(&key, &nonce, counter)
        );
    });
}

#[test]
fn every_kernel_matches_the_oracle_at_every_short_length() {
    let mut g = Gen::for_case("chacha20_short", 0);
    let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
    let data = g.bytes(1100..1101);
    for len in 0..=1100 {
        keystreams_agree(&key, &nonce, g.u32(), &data[..len]);
    }
}

#[test]
fn every_kernel_matches_the_oracle_around_every_stripe_multiple() {
    let mut g = Gen::for_case("chacha20_stripes", 0);
    let data = g.bytes(16 * 1024 + 1..16 * 1024 + 2);
    for stripes in 1..=16 * 1024 / STRIPE {
        let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
        for len in [stripes * STRIPE - 1, stripes * STRIPE, stripes * STRIPE + 1] {
            keystreams_agree(&key, &nonce, g.u32(), &data[..len]);
        }
    }
}

#[test]
fn the_block_counter_wraps_inside_a_stripe_and_in_the_tail() {
    let mut g = Gen::for_case("chacha20_wrap", 0);
    let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
    let data = g.bytes(6 * STRIPE..6 * STRIPE + 1);
    // The wrap lands on every lane of the first 8- and 16-block stripe,
    // between two stripes, and in the blocks after the last whole one.
    for before_wrap in 0..=36 {
        for len in [
            STRIPE,
            2 * STRIPE + 100,
            3 * STRIPE,
            4 * STRIPE + 100,
            6 * STRIPE,
        ] {
            keystreams_agree(&key, &nonce, u32::MAX - before_wrap, &data[..len]);
        }
    }
}

#[test]
fn every_kernel_matches_the_oracle_on_unaligned_slices() {
    run_cases("chacha20_unaligned", 64, |g| {
        let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
        let buf = g.bytes(2200..2201);
        let start = g.usize_in(0..65);
        let len = g.usize_in(0..buf.len() - start);
        keystreams_agree(&key, &nonce, g.u32(), &buf[start..start + len]);
    });
}

fn poly_kernels() -> impl Iterator<Item = poly1305::Kernel> {
    poly1305::Kernel::ALL.into_iter().filter(|k| k.supported())
}

/// One-shot through the dispatcher and through every supported kernel,
/// against the oracle.
fn tags_agree(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let tag = oracle::Poly1305::mac(key, msg);
    let what = || format!("key {key:02x?}, {} bytes", msg.len());
    assert!(Poly1305::mac(key, msg) == tag, "{}", what());
    for kernel in poly_kernels() {
        let mut mac = Poly1305::new(key);
        mac.update_with(kernel, msg);
        assert!(mac.finalize() == tag, "{kernel:?}: {}", what());
    }
    tag
}

/// Lengths around every boundary of the one-block, four-block and
/// eight-block steps and of the 4 KiB dispatch threshold.
fn poly_lengths() -> impl Iterator<Item = usize> {
    let groups = (1..=16 * 1024 / 128).flat_map(|k| [k * 128 - 1, k * 128 + 1]);
    (0..=400)
        .chain([1023, 1024, 1025, 4095, 4096, 4097, 4096 + 17])
        .chain(groups)
        .chain([16 * 1024, 16 * 1024 + 15])
}

#[test]
fn poly1305_matches_the_oracle_on_seeded_messages() {
    run_cases("poly1305_seeded", 200, |g| {
        let key = g.byte_array::<32>();
        tags_agree(&key, &g.bytes(0..3000));
    });
}

#[test]
fn poly1305_matches_the_oracle_at_the_limb_extremes() {
    let mut g = Gen::for_case("poly1305_extremes", 0);
    let ones = vec![0xffu8; 16 * 1024 + 15];
    let random = g.bytes(ones.len()..ones.len() + 1);
    // Every bit of `r` the clamp leaves, every bit of the pad; `r = 0`
    // with a pad; a seeded key.
    let mut r_zero = [0u8; 32];
    r_zero[16..].copy_from_slice(&g.byte_array::<16>());
    for key in [[0xff; 32], r_zero, g.byte_array::<32>()] {
        for len in poly_lengths() {
            tags_agree(&key, &ones[..len]);
            tags_agree(&key, &random[..len]);
        }
    }
}

#[test]
fn poly1305_reduces_an_accumulator_between_p_and_two_to_the_130() {
    // r = 1, s = 0: the tag is the sum of the blocks, each with its
    // 2^128 bit, reduced. Three blocks summing to 2^130 - 5 + j leave
    // the accumulator at p + j, which only the final conditional
    // subtraction brings down to j.
    let mut key = [0u8; 32];
    key[0] = 1;
    for j in 0..5u8 {
        let mut msg = [0u8; 48];
        msg[..16].fill(0xff);
        msg[0] = 0xfb + j;
        let mut expected = [0u8; 16];
        expected[0] = j;
        assert_eq!(tags_agree(&key, &msg), expected, "p + {j}");
        // The same accumulator out of the four-block step, where every
        // step adds 4 * 2^128 = 2^130, which folds to 5: four steps of
        // zeros leave 20, and the fifth adds 2^130 - 30 + j and its 5.
        let mut long = vec![0u8; 20 * 16];
        long[16 * 16..].fill(0xff);
        long[19 * 16] = 0xe5 + j;
        assert_eq!(tags_agree(&key, &long), expected, "p + {j}, wide");
        // And out of the eight-block step: g groups of eight blocks
        // carry 8g · 2^128 = 2g · 2^130, which folds to 10g; the last
        // group's blocks add 2^130 - 5 - 10g + j.
        for g in [1, 3] {
            let mut msg = vec![0u8; 128 * g];
            let last = 128 * (g - 1);
            msg[last..last + 64].fill(0xff);
            msg[last + 48] = 0xfe - 10 * g as u8 + j;
            assert_eq!(tags_agree(&key, &msg), expected, "p + {j}, {g} groups");
        }
    }
}

#[test]
fn poly1305_carries_limb_0_into_limb_1_when_a_lane_folds() {
    // r = 1, so a lane is the plain sum of its blocks. Lane 0 takes
    // blocks 0, 8 and 16: two all-ones blocks leave it at 2^130 - 2, and
    // a third of 2^44 - 1 (plus its 2^128 bit) crosses 2^130, whose fold
    // adds 5 to a limb 0 of 2^44 - 3. That carry out of limb 0 happens
    // once in about 2^30 random lane steps, so random inputs miss it.
    let mut key = [0u8; 32];
    key[0] = 1;
    let mut msg = vec![0u8; 4 * 128];
    msg[..16].fill(0xff);
    msg[128..144].fill(0xff);
    msg[256..261].fill(0xff);
    msg[261] = 0x0f;
    tags_agree(&key, &msg);
}

#[test]
fn poly1305_update_split_at_every_offset() {
    let mut g = Gen::for_case("poly1305_split", 0);
    let key = g.byte_array::<32>();
    let msg = g.bytes(200..201);
    let whole = tags_agree(&key, &msg);
    for at in 0..=msg.len() {
        let mut mac = Poly1305::new(&key);
        mac.update(&msg[..at]);
        mac.update(&msg[at..]);
        assert_eq!(mac.finalize(), whole, "split at {at}");
    }
    // Long enough for the four- and eight-block steps and the 4 KiB
    // threshold on either side of the split.
    let long = g.bytes(9 * 1024..9 * 1024 + 1);
    let whole = tags_agree(&key, &long);
    for at in (0..=long.len()).step_by(7) {
        let mut mac = Poly1305::new(&key);
        mac.update(&long[..at]);
        mac.update(&long[at..]);
        assert_eq!(mac.finalize(), whole, "split at {at}");
        for kernel in poly_kernels() {
            let mut mac = Poly1305::new(&key);
            mac.update_with(kernel, &long[..at]);
            mac.update_with(kernel, &long[at..]);
            assert_eq!(mac.finalize(), whole, "{kernel:?}, split at {at}");
        }
    }
}

#[test]
fn the_aead_is_the_oracle_s_composition() {
    run_cases("aead_equiv", 150, |g| {
        let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
        let aad = g.bytes(0..40);
        // Record-sized now and then, mostly the small ones services send.
        let max = if g.usize_in(0..8) == 0 {
            16 * 1024 + 1
        } else {
            1200
        };
        let plaintext = g.bytes(0..max);
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        assert!(sealed == oracle::aead_seal(&key, &nonce, &aad, &plaintext));

        let mut in_place = plaintext.clone();
        let tag = aead.seal_in_place(&nonce, &aad, &mut in_place);
        assert!(in_place == sealed[..plaintext.len()] && tag == sealed[plaintext.len()..]);

        assert!(aead.open(&nonce, &aad, &sealed).unwrap() == plaintext);
        let mut buf = sealed.clone();
        assert!(*aead.open_in_place(&nonce, &aad, &mut buf).unwrap() == *plaintext);

        // One flipped bit anywhere: refused, and not one byte decrypted.
        let mut bad = sealed.clone();
        let at = g.index(bad.len());
        bad[at] ^= 1 << g.usize_in(0..8);
        let before = bad.clone();
        assert!(aead.open_in_place(&nonce, &aad, &mut bad).is_err());
        assert!(bad == before, "a refused message was modified");
    });
}
