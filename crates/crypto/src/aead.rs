//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! Used by the TLS record layer ([`libseal_tlsx`](../../tlsx)) and by the
//! sealing facility of the SGX simulator.

use crate::chacha20::ChaCha20;
use crate::ct;
use crate::poly1305::Poly1305;
use crate::{CryptoError, Result};

/// An AEAD cipher instance bound to a 256-bit key.
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
}

impl ChaCha20Poly1305 {
    /// Creates a cipher for `key`.
    pub fn new(key: &[u8; 32]) -> Self {
        ChaCha20Poly1305 { key: *key }
    }

    /// One message's cipher and its authenticator, keyed from keystream
    /// block 0 (RFC 8439 §2.6).
    fn start(&self, nonce: &[u8; 12]) -> (ChaCha20, Poly1305) {
        let cipher = ChaCha20::new(&self.key, nonce);
        let block = cipher.block(0);
        let mut otk = [0u8; 32];
        otk.copy_from_slice(&block[..32]);
        (cipher, Poly1305::new(&otk))
    }

    /// The tag over `aad` and `ciphertext`, each zero-padded to 16
    /// bytes, then both lengths.
    fn tag(mut mac: Poly1305, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let zero_pad = |len: usize| &[0u8; 15][..(16 - len % 16) % 16];
        mac.update(aad);
        mac.update(zero_pad(aad.len()));
        mac.update(ciphertext);
        mac.update(zero_pad(ciphertext.len()));
        let mut lengths = [0u8; 16];
        lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
        lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        mac.update(&lengths);
        mac.finalize()
    }

    /// Encrypts `plaintext` in place and returns the 16-byte tag.
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; 16] {
        let (cipher, mac) = self.start(nonce);
        cipher.apply_keystream(1, data);
        Self::tag(mac, aad, data)
    }

    /// Encrypts `plaintext`, returning `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + 16);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts `ciphertext || tag` in place and returns
    /// the plaintext, the leading bytes of `sealed`.
    ///
    /// On tag mismatch `sealed` is left as it was: nothing is decrypted
    /// before it is authenticated.
    pub fn open_in_place<'a>(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8]> {
        let Some(len) = sealed.len().checked_sub(16) else {
            return Err(CryptoError::BadLength);
        };
        let (data, tag) = sealed.split_at_mut(len);
        let (cipher, mac) = self.start(nonce);
        if !ct::eq(&Self::tag(mac, aad, data), tag) {
            return Err(CryptoError::BadTag);
        }
        cipher.apply_keystream(1, data);
        Ok(data)
    }

    /// Decrypts `ciphertext || tag` produced by [`Self::seal`].
    pub fn open(&self, nonce: &[u8; 12], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>> {
        let mut data = sealed.to_vec();
        let len = self.open_in_place(nonce, aad, &mut data)?.len();
        data.truncate(len);
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_aead_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, &aad, plaintext);
        let expected_ct = unhex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116",
        );
        let expected_tag = unhex("1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(&sealed[..plaintext.len()], &expected_ct[..]);
        assert_eq!(&sealed[plaintext.len()..], &expected_tag[..]);

        let opened = aead.open(&nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tamper_detected() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let aead = ChaCha20Poly1305::new(&key);
        let mut sealed = aead.seal(&nonce, b"aad", b"hello world");
        sealed[3] ^= 0x40;
        assert_eq!(aead.open(&nonce, b"aad", &sealed), Err(CryptoError::BadTag));
    }

    #[test]
    fn wrong_aad_detected() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let aead = ChaCha20Poly1305::new(&key);
        let sealed = aead.seal(&nonce, b"aad", b"hello world");
        assert_eq!(
            aead.open(&nonce, b"other", &sealed),
            Err(CryptoError::BadTag)
        );
    }

    #[test]
    fn short_input_rejected() {
        let aead = ChaCha20Poly1305::new(&[0u8; 32]);
        assert_eq!(
            aead.open(&[0u8; 12], b"", &[0u8; 15]),
            Err(CryptoError::BadLength)
        );
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let aead = ChaCha20Poly1305::new(&[9u8; 32]);
        let sealed = aead.seal(&[1u8; 12], b"context", b"");
        assert_eq!(sealed.len(), 16);
        assert_eq!(aead.open(&[1u8; 12], b"context", &sealed).unwrap(), b"");
    }
}
