#![warn(missing_docs)]
//! STLS: a TLS-1.3-style secure transport with an OpenSSL-shaped API.
//!
//! The paper's LibSEAL ports LibreSSL into the enclave and terminates
//! real TLS. This workspace substitutes STLS, a from-scratch protocol
//! with the same moving parts (see DESIGN.md for the substitution
//! argument):
//!
//! - X25519 ephemeral key exchange, Ed25519 certificates signed by a
//!   CA, transcript-bound signatures (CertificateVerify) and Finished
//!   MACs — so there are real long-term private keys and session keys
//!   to protect inside the enclave;
//! - an AES-256-GCM record layer with per-direction sequence nonces,
//!   on the CPU's AES and carry-less-multiply units as LibreSSL runs
//!   it on the paper's testbed — so bulk data pays realistic AEAD
//!   costs;
//! - a memory-BIO API ([`Ssl::provide_input`] / [`Ssl::take_output`])
//!   mirroring OpenSSL's `SSL_set_bio` split, plus `ssl_read` /
//!   `ssl_write` / `do_handshake` entry points and an info callback —
//!   the surface LibSEAL's shadowing and secure-callback machinery
//!   (§4.1) needs to exist (application `ex_data` lives outside the
//!   enclave, in LibSEAL's session shadow, §4.2).
//!
//! Every driver moves a session through one step, [`Ssl::pump`]: feed
//! wire bytes, progress the handshake, drain plaintext, collect output.
//! [`stream::SslStream`] runs it over a blocking `TcpStream` (or any
//! `Read + Write`) for clients; servers run it per readiness sweep and
//! queue the output in a [`stream::WireBuf`].

pub mod attest;
pub mod cert;
pub mod record;
pub mod ssl;
pub mod stream;

pub use attest::{AttestationError, AttestationExtension, AttestationPolicy};
pub use cert::{Certificate, CertificateAuthority, Extension};
pub use ssl::{HandshakeState, Pumped, ReadOutcome, Role, Ssl, SslConfig};
pub use stream::{SslStream, WireBuf};

/// Why a peer's certificate or handshake proof was rejected. The set
/// is closed, and both the message and the
/// `tlsx_verify_failures_total_<label>` counter derive from the
/// variant — rewording a message cannot move a failure to another
/// counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyFailure {
    /// The certificate's signature checks out under no trusted CA key.
    UntrustedCa,
    /// The certificate names a different subject than the one pinned.
    SubjectMismatch {
        /// The subject the certificate carries.
        got: String,
        /// The subject the configuration pins.
        expected: String,
    },
    /// The CertificateVerify signature over the transcript is wrong.
    CertVerify,
    /// The Finished MAC over the transcript is wrong.
    Finished,
    /// The server requires a client certificate and none was presented.
    ClientCertMissing,
    /// The peer's X25519 share is a point of small order: the shared
    /// secret would be all-zero whatever our ephemeral key is, so the
    /// peer alone would fix the traffic keys (RFC 8446 §7.4.2).
    WeakKeyShare,
}

impl VerifyFailure {
    /// The telemetry label of this reason.
    pub fn label(&self) -> &'static str {
        match self {
            VerifyFailure::UntrustedCa => "untrusted_ca",
            VerifyFailure::SubjectMismatch { .. } => "subject_mismatch",
            VerifyFailure::CertVerify => "cert_verify",
            VerifyFailure::Finished => "finished_mismatch",
            VerifyFailure::ClientCertMissing => "client_cert_missing",
            VerifyFailure::WeakKeyShare => "weak_key_share",
        }
    }
}

impl std::fmt::Display for VerifyFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyFailure::UntrustedCa => write!(f, "certificate not signed by a trusted CA"),
            VerifyFailure::SubjectMismatch { got, expected } => {
                write!(f, "subject mismatch: got {got}, expected {expected}")
            }
            VerifyFailure::CertVerify => write!(f, "CertVerify failed"),
            VerifyFailure::Finished => write!(f, "Finished mismatch"),
            VerifyFailure::ClientCertMissing => {
                write!(f, "client certificate required but not presented")
            }
            VerifyFailure::WeakKeyShare => write!(f, "key share of small order"),
        }
    }
}

/// Errors from the STLS protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// Peer data violated the protocol.
    Protocol(String),
    /// A certificate or signature failed verification.
    Verification(VerifyFailure),
    /// The peer's certificate failed attestation-policy evaluation
    /// (RA-TLS): the quote is missing, unverifiable, stale, names the
    /// wrong enclave, or does not commit to the certificate key.
    Attestation(AttestationError),
    /// Record decryption failed (tampering or key mismatch).
    Decrypt,
    /// The connection was closed by the peer.
    Closed,
    /// Output is blocked on the transport accepting more bytes; the
    /// unsent ciphertext stays buffered and resumes on the next call.
    WantWrite,
    /// An underlying I/O error (blocking wrapper only).
    Io(String),
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::Protocol(m) => write!(f, "protocol error: {m}"),
            TlsError::Verification(m) => write!(f, "verification failure: {m}"),
            TlsError::Attestation(e) => write!(f, "attestation failure: {e}"),
            TlsError::Decrypt => write!(f, "record decryption failed"),
            TlsError::Closed => write!(f, "connection closed"),
            TlsError::WantWrite => write!(f, "output blocked on transport"),
            TlsError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for TlsError {}

/// Convenience alias for fallible TLS operations.
pub type Result<T> = std::result::Result<T, TlsError>;
