//! Old ≡ new, adversarially: ChaCha20, the 44-bit-limb Poly1305 and the
//! AEAD over them against the RFC 8439 textbook code (`oracle/mod.rs`).
//!
//! No product path runs this AEAD any more (records, sealed data and the
//! journal are AES-256-GCM, held to their own oracle by
//! `gcm_equiv.rs`); `aead::ChaCha20Poly1305` stays for its pinned
//! surface and `ChaCha20::block` for the DRBG, both one block at a time.
//! Inputs come from the seeded `plat::check` harness, so a failure
//! replays.

use libseal_crypto::aead::ChaCha20Poly1305;
use libseal_crypto::chacha20::ChaCha20;
use libseal_crypto::poly1305::Poly1305;
use plat::check::{run_cases, Gen};

mod oracle;

/// The keystream must equal the oracle's.
fn keystreams_agree(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &[u8]) {
    let mut expected = data.to_vec();
    oracle::chacha20_xor(key, nonce, counter, &mut expected);
    let mut got = data.to_vec();
    ChaCha20::new(key, nonce).apply_keystream(counter, &mut got);
    assert!(
        got == expected,
        "{} bytes from block {counter}, key {key:02x?} nonce {nonce:02x?}",
        data.len()
    );
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
fn the_keystream_matches_the_oracle_at_every_short_length() {
    let mut g = Gen::for_case("chacha20_short", 0);
    let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
    let data = g.bytes(1100..1101);
    for len in 0..=1100 {
        keystreams_agree(&key, &nonce, g.u32(), &data[..len]);
    }
}

#[test]
fn the_block_counter_wraps() {
    let mut g = Gen::for_case("chacha20_wrap", 0);
    let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
    let data = g.bytes(1000..1001);
    for before_wrap in 0..=16 {
        keystreams_agree(&key, &nonce, u32::MAX - before_wrap, &data);
    }
}

/// One-shot against the oracle.
fn tags_agree(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let tag = oracle::Poly1305::mac(key, msg);
    assert!(
        Poly1305::mac(key, msg) == tag,
        "key {key:02x?}, {} bytes",
        msg.len()
    );
    tag
}

/// Every length of a few blocks, and a long message.
fn poly_lengths() -> impl Iterator<Item = usize> {
    (0..=400).chain([16 * 1024, 16 * 1024 + 15])
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
