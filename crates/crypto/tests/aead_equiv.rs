//! Old ≡ new, adversarially: the lane-parallel ChaCha20 kernels, the
//! 44-bit-limb four-way Poly1305 and the AEAD over them against the
//! RFC 8439 textbook code they replaced (`oracle/mod.rs`).
//!
//! Every ChaCha20 kernel the host CPU can execute is called directly,
//! not only the one [`Kernel::detect`] picks, so the portable path is
//! held to the oracle on a host that never dispatches to it. Inputs come
//! from the seeded `plat::check` harness, so a failure replays.

use libseal_crypto::aead::ChaCha20Poly1305;
use libseal_crypto::chacha20::{ChaCha20, Kernel};
use libseal_crypto::poly1305::Poly1305;
use plat::check::{run_cases, Gen};

mod oracle;

/// Bytes one pass of the wide kernels covers.
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
    assert!(Kernel::detect().supported());
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        assert!(Kernel::Avx2.supported());
        assert_ne!(Kernel::detect(), Kernel::Block);
        let vl = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
        assert_eq!(Kernel::Avx512vl.supported(), vl);
        assert_eq!(Kernel::detect() == Kernel::Avx512vl, vl);
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
    let data = g.bytes(3 * STRIPE..3 * STRIPE + 1);
    // The wrap lands on every lane of the first stripe, between two
    // stripes, and in the blocks after the last whole stripe.
    for before_wrap in 0..=20 {
        for len in [STRIPE, 2 * STRIPE + 100, 3 * STRIPE] {
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

/// One-shot, against the oracle.
fn tags_agree(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let tag = Poly1305::mac(key, msg);
    assert_eq!(
        tag,
        oracle::Poly1305::mac(key, msg),
        "key {key:02x?}, {} bytes",
        msg.len()
    );
    tag
}

/// Lengths around every boundary of the one-block and four-block steps.
fn poly_lengths() -> impl Iterator<Item = usize> {
    (0..=400).chain([1023, 1024, 1025, 4096 + 17, 16 * 1024, 16 * 1024 + 15])
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
    }
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
    // Long enough for the four-block step on either side of the split.
    let long = g.bytes(1500..1501);
    let whole = tags_agree(&key, &long);
    for at in (0..=long.len()).step_by(7) {
        let mut mac = Poly1305::new(&key);
        mac.update(&long[..at]);
        mac.update(&long[at..]);
        assert_eq!(mac.finalize(), whole, "split at {at}");
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
