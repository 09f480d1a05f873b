//! AES-256-GCM against references that share nothing with it.
//!
//! Both kernels are called directly, not only the one
//! `Kernel::best` picks, and held to the textbook AES-256 and
//! bit-serial GHASH of `oracle/mod.rs` at every length up to 600 bytes,
//! around every 256-byte pass up to past 16 KiB, on unaligned slices and
//! with 0–70 bytes of AAD; to the GCM specification's AES-256 cases;
//! and to vectors generated once with Python's `cryptography` package
//! (OpenSSL's AES-GCM). A forged message must be refused with its buffer
//! untouched. Inputs come from the seeded `plat::check` harness, so a
//! failure replays. x86-64 only: no kernel exists elsewhere.
#![cfg(target_arch = "x86_64")]

use libseal_crypto::gcm::{self, Aes256Gcm, Kernel};
use libseal_crypto::sha2::Sha256;
use libseal_crypto::CryptoError;
use plat::check::{run_cases, Gen};

mod oracle;

fn kernels() -> impl Iterator<Item = Kernel> {
    Kernel::ALL.into_iter().filter(|k| k.supported())
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Seals through the dispatcher and through every supported kernel,
/// and opens the result through each; all must agree with `expected`
/// (`ciphertext || tag`).
fn kernels_give(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8], expected: &[u8]) {
    let what = || format!("{} bytes, {} of AAD", plaintext.len(), aad.len());
    let gcm = Aes256Gcm::new(key);
    assert!(
        gcm.seal(nonce, aad, plaintext) == expected,
        "dispatch: {}",
        what()
    );
    let (ciphertext, tag) = expected.split_at(plaintext.len());
    for kernel in kernels() {
        let mut data = plaintext.to_vec();
        let got = gcm.seal_in_place_with(kernel, nonce, aad, &mut data);
        assert!(
            data == ciphertext && got == tag,
            "{kernel:?} seal: {}",
            what()
        );
        let mut sealed = expected.to_vec();
        let opened = gcm.open_in_place_with(kernel, nonce, aad, &mut sealed);
        assert!(
            opened.is_ok_and(|p| p == plaintext),
            "{kernel:?} open: {}",
            what()
        );
    }
}

/// Every kernel against the oracle on one message.
fn agree(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) {
    kernels_give(
        key,
        nonce,
        aad,
        plaintext,
        &oracle::gcm_seal(key, nonce, aad, plaintext),
    );
}

#[test]
fn a_host_with_vaes_takes_the_512_bit_kernel() {
    // No clock: a kernel that silently stopped being picked (a mistyped
    // feature name, a dispatcher that falls through) would otherwise
    // pass every equivalence test below at the other kernel's speed.
    let narrow = is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1");
    assert_eq!(Kernel::Aesni.supported(), narrow);
    assert_eq!(gcm::require_cpu().is_ok(), narrow);
    let wide = narrow
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("vaes")
        && is_x86_feature_detected!("vpclmulqdq");
    assert_eq!(Kernel::Vaes512.supported(), wide);
    let best = if wide { Kernel::Vaes512 } else { Kernel::Aesni };
    assert_eq!(Kernel::best(), best);
}

#[test]
fn the_gcm_specification_s_aes_256_cases() {
    // Test cases 13-16 of McGrew and Viega, "The Galois/Counter Mode of
    // Operation (GCM)": the all-zero key, then the 0xfeffe992... key
    // with a 64-byte message and a 60-byte one with 20 bytes of AAD.
    let key: [u8; 32] = unhex("feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308")
        .try_into()
        .unwrap();
    let nonce: [u8; 12] = unhex("cafebabefacedbaddecaf888").try_into().unwrap();
    let plaintext = unhex(concat!(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72",
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
    ));
    let ciphertext = unhex(concat!(
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa",
        "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
    ));
    let aad = unhex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    let zeros = ([0; 32], [0; 12]);
    spec_case(
        &zeros.0,
        &zeros.1,
        b"",
        b"",
        b"",
        "530f8afbc74536b9a963b4f1c4cb738b",
    );
    let one_block = unhex("cea7403d4d606b6e074ec5d3baf39d18");
    let tag = "d0d1c8a799996bf0265b98b5d48ab919";
    spec_case(&zeros.0, &zeros.1, b"", &[0; 16], &one_block, tag);
    let tag = "b094dac5d93471bdec1a502270e3cc6c";
    spec_case(&key, &nonce, b"", &plaintext, &ciphertext, tag);
    let tag = "76fc6ece0f4e1768cddf8853bb2d551b";
    spec_case(&key, &nonce, &aad, &plaintext[..60], &ciphertext[..60], tag);
}

/// One case of the GCM specification: the oracle and every kernel
/// give `ciphertext || tag`.
fn spec_case(
    key: &[u8; 32],
    nonce: &[u8; 12],
    aad: &[u8],
    plaintext: &[u8],
    ciphertext: &[u8],
    tag: &str,
) {
    let mut expected = ciphertext.to_vec();
    expected.extend_from_slice(&unhex(tag));
    assert!(
        oracle::gcm_seal(key, nonce, aad, plaintext) == expected,
        "the oracle itself"
    );
    kernels_give(key, nonce, aad, plaintext, &expected);
}

/// `(message length, AAD length, tag, SHA-256 of the ciphertext)` from
/// Python's `cryptography` 48.0 (`AESGCM(key).encrypt(nonce, pt, aad)`)
/// on the inputs [`generated`] builds for case `i`.
const GENERATED: [(usize, usize, &str, &str); 34] = [
    (
        0,
        0,
        "555a2af6b5efdd752774a71548f2348b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        1,
        0,
        "77ccdbfcd899bcd6855dafd377d3867a",
        "22adaf058a2cb668b15cb4c1f30e7cc720bbe38c146544169db35fbf630389c4",
    ),
    (
        0,
        1,
        "c1d60269e1bef1e314af33c1ceb1ae05",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        16,
        0,
        "3229ec2f3344c08d07b7f9ae729fb8fd",
        "60247099cf724b7498ab122d4865e69fc61e6e7b371f2cb5a9e50d0688bf68f3",
    ),
    (
        15,
        13,
        "ec7bceadb1a2ed6abd6847bec3cfcf26",
        "b704f6910ea643f129abe8e2d34e0e5491bbe6170e363ace0e40d074261aa620",
    ),
    (
        17,
        1,
        "292e97e35d7e6f0b8314644a2fc973dc",
        "31b66693ddec6bc97583d6bad090ba95b444a2d60815528efd08dad36e7e9876",
    ),
    (
        63,
        20,
        "b5440948b5d84bf97311c23412773923",
        "662bca69099aad651f0b7481b894fcb0db1b8cbfacf655a6a4d6972eee756621",
    ),
    (
        64,
        1,
        "ca12facf11ba44daea60946d91ae105e",
        "45cd74ae08688c4bdc06b9344f7464e40231652f201ec79dd0c8d7348bd1f02f",
    ),
    (
        65,
        0,
        "7cc0c1215a4d1d02b04182321a36fadd",
        "99722d703312ccef36d801176405d430282dd8323750f1b799c3d0bd93ded650",
    ),
    (
        127,
        33,
        "4e0c7d7eff4d383f96bd337f545d97b9",
        "7726511dfd9bfa89102c8ad3465eb17f3fd3ded347c2abfbbc41c20c04b171b6",
    ),
    (
        128,
        1,
        "9ca90fa236e554b0bef69c8e01ac60ce",
        "b9007e19a06df5235fbb3db9b0105f8d32f3ec37013f6a6c4302de35dec4dd63",
    ),
    (
        255,
        1,
        "c0b4cd6d8a3e753d16f6f5e6ed31bbac",
        "f73035aef4695aad89bb13306f68ce4b1289521819f61c62c7466f1a89cee998",
    ),
    (
        256,
        1,
        "15c16549f714ee8eda475d665937d7b6",
        "20d60bfa0f21af2d303205fade15e1c85c54fa00f656d6604339095fdf7cb91b",
    ),
    (
        257,
        1,
        "50ae8116125d87e0f7678875552b8385",
        "a1c93cb7c904828c28a1afa4c03a170cef0015a074899e97f4585689923f7ca3",
    ),
    (
        511,
        5,
        "8742c55e58f36cd09d203589e227dc23",
        "61b49df517b6c44bbfeafbb15057c90d12b70f246b39edd99f066f0ab95bca0c",
    ),
    (
        512,
        0,
        "deac6e714dc16abb8ae415f62ec11e67",
        "ddac6802f0201fb46eb01abd6c732018e093ba35bb5280fcc20d0e7386a79c39",
    ),
    (
        1000,
        13,
        "b2f073ad7f1253fb92701be548d9f989",
        "cf998c8f0a1f83a7159bff8af032de48675b058c8bb8195cdfc3355bd7a8b935",
    ),
    (
        1024,
        1,
        "f3342c90da07124fe0d7d0c65dee28db",
        "f2fd9e7628cee5482ac6d4a83746c3a631ebf1f1d0d3c0b38985fdbf54b7c5b1",
    ),
    (
        1100,
        1,
        "b66a23c18ff1d3a9c56f88ad00766a2c",
        "5879de7362e579f8c6a93741fb95e6025ed2a652dc29f327fc387f904f145ee7",
    ),
    (
        2048,
        70,
        "5d6ef2335658da6d6c1fc369a7b25d7d",
        "f74323fbcdf56a2b8960c3ec7aaf4d3f1b4014345b9bf9c58ca0289c1611f1ee",
    ),
    (
        4095,
        1,
        "c39c0365a714666488c76d4171bdecf6",
        "ad37ef16d0d18e21b4ec669e39fc4dc7ed8ba43516bebcaf480d1cf2a80d35e9",
    ),
    (
        4096,
        1,
        "d48bc532f97ec247d0aaa83f4e68ce56",
        "3d2d38544a633e0fdc4416cb61bf26a9fda4cff8b3bd88eb74ae419b306779cd",
    ),
    (
        4097,
        1,
        "7bfc2d538d5280105473b0f58a3fc019",
        "289d59998ee91a2a69fd4a82f3cb4aede44ba25ed4fe95950ae6a4c5982c252f",
    ),
    (
        4111,
        16,
        "68bd28fc4f03d07c23f839da6a3aed12",
        "6cccacba99aa7cf2552772b2d41b1380105c1b563ce61123fa9c026bf8ab4609",
    ),
    (
        5000,
        0,
        "8379195569e4cc8391abf1f75e34e2c1",
        "962bd628ac1c5dac9e67aceadc11ebf08b8b1f21312da6779c0c1f1bba0862f4",
    ),
    (
        8192,
        1,
        "ad7403f0710805f406584fd4cc87c92f",
        "b20f2b3fae97a10611a51d1c3e8a29156bac7d0cc1cad746b585be26378fb7a3",
    ),
    (
        12345,
        29,
        "07ca87496a08d0a6cec5c5d8fd113d5c",
        "65bc0e06679b975f3baa59a353ee04227cf133eefbff242e221873e3ea8e20b0",
    ),
    (
        16383,
        1,
        "486893cb4b0219509d5890c1942cc5b1",
        "534cfa4827f1b057a666241f53a1ec7c776632aa50a729eb5f72e1008c167bc6",
    ),
    (
        16384,
        1,
        "87e28fd956803dc6bbab50ef6f3a9895",
        "e7f991157b9a4bff04cb2f4c0cece332add4a8bc1112b1a60c587186aa3787dc",
    ),
    (
        16385,
        1,
        "0695704a5001afc3d0ca0e3c39cd63c0",
        "6566f080139f8e0ef6eb270a20449aa6534dc2b6d37260f1c895acf4781fb82c",
    ),
    (
        16400,
        1,
        "3e89f3ac8fbad5e82ab70fbbdc4e9667",
        "9a67e3c323de38d80d9c8e098512f7c38d2d8482f744158acd3981e9a79e8018",
    ),
    (
        16401,
        13,
        "88b6ff8cd6b2d71cd1dae4fcc6a668cb",
        "32e178b0ebd494736e792687ba6a9709417053eac27986f2b9c6d0a9d6ba8f6d",
    ),
    (
        65536,
        1,
        "be5817f537117eae475c45a5c10b4365",
        "042e4f4f7ccbbc772cd0ebdf67c7bea86e2f20c27f5f2cc27801ad55c4cac747",
    ),
    (
        100000,
        64,
        "c6043e0c37ffa372943e94d2d822cea9",
        "d8fa87c710a5fe7f32ebce444c70c3cd67b96a1c14992ba2d103d3934ddf8bba",
    ),
];

/// Case `i`'s key, nonce, AAD and message: simple byte ramps the
/// Python side computes the same way.
fn generated(i: usize, len: usize, aad_len: usize) -> ([u8; 32], [u8; 12], Vec<u8>, Vec<u8>) {
    let key = core::array::from_fn(|j| (j * 29 + i) as u8);
    let nonce = core::array::from_fn(|j| (j * 13 + i * 3) as u8);
    let aad = (0..aad_len).map(|j| (j * 7 + i) as u8).collect();
    let plaintext = (0..len).map(|j| (j * 31 + (j >> 8) + i) as u8).collect();
    (key, nonce, aad, plaintext)
}

#[test]
fn every_kernel_gives_the_vectors_of_an_independent_implementation() {
    for (i, &(len, aad_len, tag, digest)) in GENERATED.iter().enumerate() {
        let (key, nonce, aad, plaintext) = generated(i, len, aad_len);
        let gcm = Aes256Gcm::new(&key);
        for kernel in kernels() {
            let mut data = plaintext.clone();
            let got = gcm.seal_in_place_with(kernel, &nonce, &aad, &mut data);
            let what = format!("{kernel:?}, case {i}: {len} bytes, {aad_len} of AAD");
            assert_eq!(got.to_vec(), unhex(tag), "{what}");
            assert_eq!(Sha256::digest(&data).to_vec(), unhex(digest), "{what}");
            data.extend_from_slice(&got);
            let opened = gcm.open_in_place_with(kernel, &nonce, &aad, &mut data);
            assert!(opened.is_ok_and(|p| *p == *plaintext), "{what}");
        }
    }
}

#[test]
fn every_kernel_matches_the_oracle_at_every_short_length() {
    let mut g = Gen::for_case("gcm_short", 0);
    let data = g.bytes(600..601);
    let aad = g.bytes(70..71);
    for len in 0..=600 {
        let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
        agree(&key, &nonce, &aad[..len % 71], &data[..len]);
    }
}

#[test]
fn every_kernel_matches_the_oracle_around_every_256_byte_pass() {
    // One wide pass is 256 bytes; 16 KiB is a full record.
    let mut g = Gen::for_case("gcm_passes", 0);
    let data = g.bytes(16 * 1024 + 300..16 * 1024 + 301);
    let passes = (1..=65).flat_map(|k| [k * 256 - 1, k * 256, k * 256 + 1]);
    let lengths = passes.chain([4096 - 16, 4096 + 15, 4096 + 16, 4096 + 17, 16 * 1024 + 16]);
    for len in lengths {
        let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
        let aad = g.bytes(0..71);
        agree(&key, &nonce, &aad, &data[..len]);
    }
}

#[test]
fn every_kernel_matches_the_oracle_on_unaligned_slices() {
    run_cases("gcm_unaligned", 64, |g| {
        let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
        let buf = g.bytes(5000..5001);
        let start = g.usize_in(0..65);
        let len = g.usize_in(0..buf.len() - start);
        let aad = g.bytes(0..71);
        let at = g.usize_in(0..8);
        agree(
            &key,
            &nonce,
            &aad[at.min(aad.len())..],
            &buf[start..start + len],
        );
    });
}

#[test]
fn one_flipped_byte_is_refused_and_nothing_is_decrypted() {
    run_cases("gcm_forgery", 48, |g| {
        let (key, nonce) = (g.byte_array::<32>(), g.byte_array::<12>());
        let aad = g.bytes(1..71);
        let max = if g.usize_in(0..4) == 0 {
            16 * 1024 + 1
        } else {
            1200
        };
        let plaintext = g.bytes(0..max);
        let gcm = Aes256Gcm::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &plaintext);
        let bit = 1u8 << g.usize_in(0..8);
        for kernel in kernels() {
            // The tag, then the ciphertext where there is one.
            let mut targets = vec![plaintext.len() + g.index(16)];
            if !plaintext.is_empty() {
                targets.push(g.index(plaintext.len()));
            }
            for at in targets {
                let mut bad = sealed.clone();
                bad[at] ^= bit;
                let before = bad.clone();
                let got = gcm
                    .open_in_place_with(kernel, &nonce, &aad, &mut bad)
                    .map(|_| ());
                assert_eq!(got, Err(CryptoError::BadTag), "{kernel:?}, byte {at}");
                assert!(bad == before, "{kernel:?}: a refused message was modified");
            }
            let mut other = aad.clone();
            other[g.index(aad.len())] ^= bit;
            let mut buf = sealed.clone();
            let got = gcm
                .open_in_place_with(kernel, &nonce, &other, &mut buf)
                .map(|_| ());
            assert_eq!(got, Err(CryptoError::BadTag), "{kernel:?}, AAD");
            assert!(buf == sealed, "{kernel:?}: a refused message was modified");
        }
    });
}
