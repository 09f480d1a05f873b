//! Sealed storage.
//!
//! SGX sealing encrypts enclave data for persistence with a key derived
//! from the platform and either the exact enclave measurement
//! (`MRENCLAVE`) or its signing authority (`MRSIGNER`). The format here
//! is `nonce (12) || ciphertext || tag (16)` using AES-256-GCM, as SGX
//! itself seals. [`crate::enclave::Enclave::seal_data`] draws each
//! nonce from the enclave's DRBG, 96 random bits per blob.

use libseal_crypto::gcm::Aes256Gcm;

/// Key-derivation policy for sealing (SGX KEYPOLICY analogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SealingPolicy {
    /// Bind to the exact enclave measurement: only the identical
    /// enclave can unseal.
    MrEnclave,
    /// Bind to the signing authority: any enclave signed by the same
    /// key can unseal (used for upgrades and log sharing, §6.3).
    MrSigner,
}

/// Seals `plaintext` under `key` with additional authenticated data
/// `aad`. A nonce must not repeat under one key.
///
/// # Panics
///
/// On a CPU without AES-NI and PCLMULQDQ (see
/// [`libseal_crypto::gcm::require_cpu`]).
pub fn seal_with_key(key: &[u8; 32], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let aead = Aes256Gcm::new(key);
    let mut out = Vec::with_capacity(12 + plaintext.len() + 16);
    out.extend_from_slice(nonce);
    out.extend_from_slice(&aead.seal(nonce, aad, plaintext));
    out
}

/// Unseals a blob produced by [`seal_with_key`]; `None` when the blob
/// is malformed or fails authentication.
///
/// # Panics
///
/// As [`seal_with_key`].
pub fn unseal_with_key(key: &[u8; 32], aad: &[u8], sealed: &[u8]) -> Option<Vec<u8>> {
    if sealed.len() < 12 + 16 {
        return None;
    }
    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(&sealed[..12]);
    let aead = Aes256Gcm::new(key);
    aead.open(&nonce, aad, &sealed[12..]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let key = [3u8; 32];
        let sealed = seal_with_key(&key, &[7u8; 12], b"aad", b"hello enclave");
        assert_eq!(
            unseal_with_key(&key, b"aad", &sealed).unwrap(),
            b"hello enclave"
        );
    }

    #[test]
    fn wrong_key_fails() {
        let sealed = seal_with_key(&[3u8; 32], &[7u8; 12], b"", b"data");
        assert!(unseal_with_key(&[4u8; 32], b"", &sealed).is_none());
    }

    #[test]
    fn truncated_fails() {
        let key = [3u8; 32];
        let sealed = seal_with_key(&key, &[7u8; 12], b"", b"data");
        assert!(unseal_with_key(&key, b"", &sealed[..20]).is_none());
        assert!(unseal_with_key(&key, b"", &[]).is_none());
    }

    #[test]
    fn tampered_fails() {
        let key = [3u8; 32];
        let mut sealed = seal_with_key(&key, &[7u8; 12], b"", b"data");
        let mid = sealed.len() / 2;
        sealed[mid] ^= 0x01;
        assert!(unseal_with_key(&key, b"", &sealed).is_none());
    }
}
