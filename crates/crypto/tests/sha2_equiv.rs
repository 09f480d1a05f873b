//! Scalar ≡ SHA-NI: every SHA-256 kernel the host CPU can execute, on
//! the FIPS 180-4 vectors, on HMAC (RFC 4231) and HKDF (RFC 5869) built
//! over it, on every padding boundary and on random inputs split at
//! random points. Reference digests of the boundary messages come from
//! an independent implementation; random inputs come from the seeded
//! `plat::check` harness, so a failure replays.

use libseal_crypto::hkdf;
use libseal_crypto::hmac::HmacSha256;
use libseal_crypto::sha2::{Kernel, Sha256, Sha512};
use plat::check::run_cases;

fn kernels() -> impl Iterator<Item = Kernel> {
    Kernel::ALL.into_iter().filter(|k| k.supported())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// The `n`-byte message of the boundary tests: byte `i` is `i mod 251`.
fn message(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8).collect()
}

/// HMAC-SHA-256 (RFC 2104) over `kernel`, spelled out.
fn hmac(kernel: Kernel, key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        k[..32].copy_from_slice(&Sha256::digest_with(kernel, key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::with_kernel(kernel);
    inner.update(&k.map(|b| b ^ 0x36));
    inner.update(data);
    let mut outer = Sha256::with_kernel(kernel);
    outer.update(&k.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

/// HKDF-SHA-256 (RFC 5869) over `kernel`, spelled out.
fn hkdf(kernel: Kernel, salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hmac(kernel, salt, ikm);
    let (mut okm, mut t) = (Vec::new(), Vec::new());
    for counter in 1..=len.div_ceil(32) as u8 {
        t = hmac(kernel, &prk, &[&t[..], info, &[counter]].concat()).to_vec();
        okm.extend_from_slice(&t);
    }
    okm.truncate(len);
    okm
}

#[test]
fn a_host_with_sha_extensions_hashes_with_them() {
    // No clock: a detection that silently stopped picking the kernel
    // would otherwise pass every test below at scalar speed.
    assert!(Kernel::Scalar.supported());
    assert!(Kernel::detect().supported());
    #[cfg(target_arch = "x86_64")]
    {
        let ni = is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1");
        assert_eq!(Kernel::ShaNi.supported(), ni);
        assert_eq!(Kernel::detect() == Kernel::ShaNi, ni);
    }
}

#[test]
fn every_kernel_computes_the_fips_180_4_vectors() {
    let million = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 4] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            &million,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for kernel in kernels() {
        for (msg, want) in vectors {
            let got = hex(&Sha256::digest_with(kernel, msg));
            assert_eq!(got, want, "{kernel:?}, {} bytes", msg.len());
        }
    }
}

#[test]
fn every_kernel_computes_the_rfc_4231_and_5869_vectors() {
    let hmac_vectors: [(&[u8], &[u8], &str); 3] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
    ];
    let salt = unhex("000102030405060708090a0b0c");
    let info = unhex("f0f1f2f3f4f5f6f7f8f9");
    let hkdf_vectors: [(&[u8], &[u8], &str); 2] = [
        (
            &salt,
            &info,
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865",
        ),
        (
            b"",
            b"",
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8",
        ),
    ];
    for kernel in kernels() {
        for (key, data, want) in hmac_vectors {
            assert_eq!(hex(&hmac(kernel, key, data)), want, "{kernel:?}");
            assert_eq!(hex(&HmacSha256::mac(key, data)), want);
        }
        for (salt, info, want) in hkdf_vectors {
            assert_eq!(
                hex(&hkdf(kernel, salt, &[0x0b; 22], info, 42)),
                want,
                "{kernel:?}"
            );
            assert_eq!(hex(&hkdf::derive(salt, &[0x0b; 22], info, 42)), want);
        }
    }
}

#[test]
fn sha256_pads_right_at_every_boundary() {
    // 55 bytes leave room for the 0x80 and the length in one block, 56
    // do not; 63, 64, 119 and 120 straddle the next block the same way.
    let vectors = [
        (
            55,
            "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
        ),
        (
            56,
            "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
        ),
        (
            63,
            "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
        ),
        (
            64,
            "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
        ),
        (
            119,
            "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
        ),
        (
            120,
            "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
        ),
    ];
    for kernel in kernels() {
        for (n, want) in vectors {
            let msg = message(n);
            assert_eq!(
                hex(&Sha256::digest_with(kernel, &msg)),
                want,
                "{kernel:?}, {n} bytes"
            );
            let mut h = Sha256::with_kernel(kernel);
            for byte in msg.chunks(1) {
                h.update(byte);
            }
            assert_eq!(
                hex(&h.finalize()),
                want,
                "{kernel:?}, {n} bytes one at a time"
            );
        }
    }
}

#[test]
fn sha512_pads_right_at_every_boundary() {
    let vectors = [
        (
            111,
            "a1a111449b198d9b1f538bad7f3fc1022b3a5b1a5e90a0bc860de8512746cbc3\
             1599e6c834de3a3235327af0b51ff57bf7acf1974a73014d9c3953812edc7c8d",
        ),
        (
            112,
            "c5fbd731d19d2ae1180f001be72c2c1aaba1d7b094b3748880e24593b8e117a7\
             50e11c1bd867cc2f96dace8c8b74abd2d5c4f236be444e77d30d1916174070b9",
        ),
        (
            127,
            "eab89674feaa34e27aebeeff3c0a4d70070bb872d5e9f186cf1dbbdee517b6e3\
             5724d629ff025a5b07185e911ada7e3c8acf830aa0e4f71777bd2d44f504f7f0",
        ),
        (
            128,
            "1dffd5e3adb71d45d2245939665521ae001a317a03720a45732ba1900ca3b835\
             1fc5c9b4ca513eba6f80bc7b1d1fdad4abd13491cb824d61b08d8c0e1561b3f7",
        ),
        (
            239,
            "cb4c7fd522756d5781ad3a4f590a1d862906b960e7720136cb3fb36b563caa1e\
             a5689134291fa79c80ccc2b4092b41df32ebdcb36dbe79db483440228c1622a8",
        ),
        (
            240,
            "6c48466c9f6c07e4ab762c696b7eeb35cfe236fca73683e5fab873ac3489b4d2\
             eb3d7afcce7e8165dbbf37aded3b5b0c889c0b7e0f1790a8330d8677429d91a5",
        ),
    ];
    for (n, want) in vectors {
        let msg = message(n);
        assert_eq!(hex(&Sha512::digest(&msg)), want, "{n} bytes");
        let mut h = Sha512::new();
        for byte in msg.chunks(1) {
            h.update(byte);
        }
        assert_eq!(hex(&h.finalize()), want, "{n} bytes one at a time");
    }
}

#[test]
fn kernels_agree_on_random_lengths_and_split_points() {
    run_cases("sha256_kernels", 256, |g| {
        let data = g.bytes(0..4097);
        let cuts = {
            let mut cuts: Vec<usize> = (0..g.usize_in(0..6))
                .map(|_| g.usize_in(0..data.len() + 1))
                .collect();
            cuts.sort_unstable();
            cuts
        };
        let want = Sha256::digest_with(Kernel::Scalar, &data);
        for kernel in kernels() {
            assert_eq!(
                Sha256::digest_with(kernel, &data),
                want,
                "{kernel:?}, {} bytes",
                data.len()
            );
            let mut h = Sha256::with_kernel(kernel);
            let mut at = 0;
            for &cut in cuts.iter().chain([&data.len()]) {
                h.update(&data[at..cut]);
                at = cut;
            }
            assert_eq!(
                h.finalize(),
                want,
                "{kernel:?}, {} bytes cut at {cuts:?}",
                data.len()
            );
        }
    });
}
