#![warn(missing_docs)]
//! From-scratch cryptographic primitives for the LibSEAL reproduction.
//!
//! LibSEAL needs a TLS stack, log signing, sealing and attestation, all of
//! which must run "inside the enclave" without calling out to system
//! libraries. This crate provides the complete primitive suite used by the
//! rest of the workspace:
//!
//! - [`sha2`]: SHA-256 and SHA-512 (FIPS 180-4),
//! - [`hmac`]: HMAC (RFC 2104) over both hashes,
//! - [`hkdf`]: HKDF (RFC 5869),
//! - [`gcm`]: AES-256-GCM (SP 800-38D) on the CPU's AES and
//!   carry-less-multiply units (x86-64 only), the one AEAD the product
//!   runs: TLS records, sealed storage and the audit log's journal,
//! - [`chacha20`] / [`poly1305`] / [`aead`]: the RFC 8439 AEAD, one
//!   block at a time, kept for the DRBG's block function and its own
//!   test vectors,
//! - [`x25519`]: Diffie-Hellman key agreement (RFC 7748),
//! - [`ed25519`]: signatures (RFC 8032), standing in for the SGX SDK's
//!   ECDSA (see DESIGN.md for the substitution rationale),
//! - [`rng`]: a ChaCha20-based deterministic random bit generator,
//! - [`ct`]: constant-time comparison helpers.
//!
//! All implementations are self-contained; none shell out to OS crypto,
//! and AES runs only on the CPU's AES unit: there is no table-driven
//! software AES.
//! Each module carries the relevant RFC/FIPS test vectors in its unit
//! tests.

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod ed25519;
pub mod fe25519;
#[cfg(target_arch = "x86_64")]
mod fe25519x4;
pub mod gcm;
pub mod hkdf;
pub mod hmac;
pub mod poly1305;
pub mod rng;
pub mod scalar;
pub mod sha2;
pub mod x25519;

pub use aead::ChaCha20Poly1305;
pub use ed25519::{SigningKey, VerifyingKey};
pub use gcm::Aes256Gcm;
pub use sha2::{Sha256, Sha512};

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// An AEAD tag or MAC failed to verify.
    BadTag,
    /// A signature failed to verify.
    BadSignature,
    /// An encoded public key or point was not a valid curve element.
    InvalidPoint,
    /// A key, nonce or other input had the wrong length.
    BadLength,
    /// The CPU lacks AES-NI or PCLMULQDQ, which AES-256-GCM runs on.
    Unsupported,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::BadTag => write!(f, "authentication tag mismatch"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::InvalidPoint => write!(f, "invalid curve point encoding"),
            CryptoError::BadLength => write!(f, "input has invalid length"),
            CryptoError::Unsupported => write!(f, "CPU lacks AES-NI or PCLMULQDQ"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Convenience alias for fallible crypto operations.
pub type Result<T> = std::result::Result<T, CryptoError>;
