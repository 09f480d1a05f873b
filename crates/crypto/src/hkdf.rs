//! HKDF (RFC 5869) based on HMAC-SHA-256.

use crate::hmac::HmacSha256;

/// HKDF-Extract: derives a pseudorandom key from input keying material.
#[must_use]
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    HmacSha256::mac(salt, ikm)
}

/// HKDF-Expand: expands `prk` into `out.len()` bytes of output keying
/// material bound to `info`.
///
/// # Panics
///
/// Panics if more than `255 * 32` bytes are requested, per RFC 5869.
pub fn expand(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * 32, "HKDF output too long");
    // Keyed once: each output block clones the padded-key state.
    let keyed = HmacSha256::new(prk);
    let mut t = [0u8; 32];
    for (i, chunk) in out.chunks_mut(32).enumerate() {
        let mut h = keyed.clone();
        if i > 0 {
            h.update(&t);
        }
        h.update(info);
        h.update(&[i as u8 + 1]);
        t = h.finalize();
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// One-call HKDF: extract-then-expand.
#[must_use]
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = extract(salt, ikm);
    let mut out = vec![0u8; len];
    expand(&prk, info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = derive(&salt, &ikm, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0bu8; 22];
        let okm = derive(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_multiblock_lengths() {
        let prk = extract(b"salt", b"ikm");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            let mut out = vec![0u8; len];
            expand(&prk, b"info", &mut out);
            // A longer expansion must begin with a shorter one (streaming property).
            let mut longer = vec![0u8; len + 16];
            expand(&prk, b"info", &mut longer);
            assert_eq!(&longer[..len], &out[..]);
        }
    }
}
