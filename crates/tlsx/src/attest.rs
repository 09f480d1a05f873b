//! RA-TLS: enclave quotes as certificate extensions, and the client
//! policy that verifies them during the handshake.
//!
//! Following Knauth et al.'s RA-TLS design (and the lexe exemplar in
//! SNIPPETS.md), the enclave generates its TLS keypair inside, the
//! platform's quoting enclave signs a quote whose `report_data`
//! commits to SHA-256 of the TLS public key, and the quote travels as
//! a typed extension ([`EXT_SGX_QUOTE`]) in the [`Certificate`]'s
//! extension block. Clients evaluate an [`AttestationPolicy`] against
//! the presented certificate *after* CA/subject verification and
//! *before* sending Finished, so no application byte ever flows to an
//! unattested endpoint.
//!
//! Divergences from DCAP are deliberate and simulated: the quoting
//! root is a plain Ed25519 key instead of a PCK chain, and freshness
//! is a signed issuance timestamp + TTL instead of TCB/CRL evaluation.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use libseal_crypto::ed25519::VerifyingKey;
use libseal_crypto::sha2::Sha256;
use libseal_sgxsim::attest::{AttestationService, Quote};

use crate::cert::{Certificate, Extension};

/// Extension type carrying an sgxsim enclave quote.
pub const EXT_SGX_QUOTE: u16 = 0x5158; // "QX"

/// Version tag leading the serialized quote.
const QUOTE_WIRE_VERSION: u16 = 1;

/// Serialized quote length: version + measurement + signer +
/// report_data + issued_at_ms + signature.
const QUOTE_WIRE_LEN: usize = 2 + 32 + 32 + 64 + 8 + 64;

/// Tolerated forward clock skew when judging quote freshness: a quote
/// dated slightly in the future (issuer clock ahead of the verifier's)
/// is not evidence of staleness.
const MAX_CLOCK_SKEW: Duration = Duration::from_secs(60);

/// Why an attestation check failed. Every variant maps to a distinct
/// telemetry reason (see [`AttestationError::reason`]) so operators
/// can tell a stale fleet from a rogue one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttestationError {
    /// The certificate carries no quote extension.
    MissingQuote,
    /// The quote extension exists but does not parse.
    MalformedQuote,
    /// The certificate carries a critical extension the verifier does
    /// not understand.
    UnknownCriticalExtension(u16),
    /// The quote signature does not verify under any trusted quoting
    /// root.
    UntrustedRoot,
    /// The quoted MRENCLAVE is not in the pinned set.
    WrongMeasurement,
    /// The quoted MRSIGNER is not in the pinned set.
    WrongSigner,
    /// The quote is older than the policy's maximum age.
    StaleQuote,
    /// The quote's report data does not commit to the certificate's
    /// public key — the quote was minted for some other key.
    ReportDataMismatch,
}

impl AttestationError {
    /// Stable, bounded telemetry label for this rejection reason.
    /// The set is closed by construction, so per-reason counters keyed
    /// on it have fixed cardinality.
    pub fn reason(&self) -> &'static str {
        match self {
            AttestationError::MissingQuote => "missing_quote",
            AttestationError::MalformedQuote => "malformed_quote",
            AttestationError::UnknownCriticalExtension(_) => "unknown_critical",
            AttestationError::UntrustedRoot => "untrusted_root",
            AttestationError::WrongMeasurement => "wrong_measurement",
            AttestationError::WrongSigner => "wrong_signer",
            AttestationError::StaleQuote => "stale_quote",
            AttestationError::ReportDataMismatch => "report_data_mismatch",
        }
    }
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestationError::MissingQuote => write!(f, "certificate carries no quote"),
            AttestationError::MalformedQuote => write!(f, "quote extension does not parse"),
            AttestationError::UnknownCriticalExtension(t) => {
                write!(f, "unknown critical extension {t:#06x}")
            }
            AttestationError::UntrustedRoot => write!(f, "quote not signed by a trusted root"),
            AttestationError::WrongMeasurement => write!(f, "enclave measurement not pinned"),
            AttestationError::WrongSigner => write!(f, "enclave signer not pinned"),
            AttestationError::StaleQuote => write!(f, "quote exceeds the policy's maximum age"),
            AttestationError::ReportDataMismatch => {
                write!(f, "quote does not commit to the certificate key")
            }
        }
    }
}

impl std::error::Error for AttestationError {}

/// Serializes/parses a [`Quote`] to and from certificate-extension
/// bytes (the `SgxAttestationExtension` analogue).
pub struct AttestationExtension;

impl AttestationExtension {
    /// Packs `quote` into a certificate [`Extension`]. Non-critical,
    /// like the RA-TLS X.509 extension: clients that do not attest
    /// still interoperate.
    pub fn to_extension(quote: &Quote) -> Extension {
        let mut data = Vec::with_capacity(QUOTE_WIRE_LEN);
        data.extend_from_slice(&QUOTE_WIRE_VERSION.to_le_bytes());
        data.extend_from_slice(&quote.measurement);
        data.extend_from_slice(&quote.signer);
        data.extend_from_slice(&quote.report_data);
        data.extend_from_slice(&quote.issued_at_ms.to_le_bytes());
        data.extend_from_slice(&quote.signature);
        Extension {
            ext_type: EXT_SGX_QUOTE,
            critical: false,
            data,
        }
    }

    /// Parses extension bytes back into a [`Quote`].
    ///
    /// # Errors
    ///
    /// [`AttestationError::MalformedQuote`] on any length or version
    /// mismatch.
    pub fn from_bytes(data: &[u8]) -> Result<Quote, AttestationError> {
        if data.len() != QUOTE_WIRE_LEN {
            return Err(AttestationError::MalformedQuote);
        }
        let arr = |range: std::ops::Range<usize>| -> &[u8] { &data[range] };
        let version = u16::from_le_bytes([data[0], data[1]]);
        if version != QUOTE_WIRE_VERSION {
            return Err(AttestationError::MalformedQuote);
        }
        let field = |s: &[u8]| -> [u8; 32] { s.try_into().expect("fixed slice") };
        let mut report_data = [0u8; 64];
        report_data.copy_from_slice(arr(66..130));
        let mut issued = [0u8; 8];
        issued.copy_from_slice(arr(130..138));
        let mut signature = [0u8; 64];
        signature.copy_from_slice(arr(138..202));
        Ok(Quote {
            measurement: field(arr(2..34)),
            signer: field(arr(34..66)),
            report_data,
            issued_at_ms: u64::from_le_bytes(issued),
            signature,
        })
    }
}

/// Client-side verification policy for attested certificates (the
/// `EnclavePolicy` analogue), evaluated during the handshake.
pub struct AttestationPolicy {
    /// Quoting-enclave roots trusted to sign quotes.
    pub quoting_roots: Vec<VerifyingKey>,
    /// Pinned MRENCLAVE set; a quoted measurement must match one
    /// unless [`AttestationPolicy::trust_self`] is set.
    pub measurements: Vec<[u8; 32]>,
    /// Pinned MRSIGNER set; empty accepts any signer.
    pub signers: Vec<[u8; 32]>,
    /// Maximum accepted quote age.
    pub max_quote_age: Duration,
    /// Accept any measurement (tests and local development — the
    /// "trust whatever I am running" escape hatch).
    pub trust_self: bool,
    /// Signature-verification cache: SHA-256 digests of quote wire
    /// bytes whose signature already verified under one of
    /// `quoting_roots` (DCAP deployments cache verification collateral
    /// the same way). A quote is immutable once signed, so the
    /// Ed25519 check never needs repeating; measurement, signer,
    /// freshness and report-data binding are still evaluated on every
    /// handshake. Bounded by [`QUOTE_CACHE_CAP`].
    verified: Mutex<HashSet<[u8; 32]>>,
}

/// Verified-quote cache bound: a client pins a handful of
/// measurements, so a fleet presents few distinct quotes; the cache
/// resets wholesale if an adversary cycles past the cap.
const QUOTE_CACHE_CAP: usize = 64;

impl Clone for AttestationPolicy {
    fn clone(&self) -> AttestationPolicy {
        AttestationPolicy {
            quoting_roots: self.quoting_roots.clone(),
            measurements: self.measurements.clone(),
            signers: self.signers.clone(),
            max_quote_age: self.max_quote_age,
            trust_self: self.trust_self,
            // Cached verdicts are a per-instance acceleration, not
            // part of the policy's identity.
            verified: Mutex::new(HashSet::new()),
        }
    }
}

/// Default quote TTL: long enough that a service provisioned at boot
/// serves for a day, short enough that revoked fleets age out.
pub const DEFAULT_QUOTE_TTL: Duration = Duration::from_secs(24 * 60 * 60);

impl AttestationPolicy {
    /// A policy pinning an exact MRENCLAVE set under `root`.
    pub fn pinned(root: VerifyingKey, measurements: Vec<[u8; 32]>) -> AttestationPolicy {
        AttestationPolicy {
            quoting_roots: vec![root],
            measurements,
            signers: Vec::new(),
            max_quote_age: DEFAULT_QUOTE_TTL,
            trust_self: false,
            verified: Mutex::new(HashSet::new()),
        }
    }

    /// A policy accepting any measurement quoted under `root` — for
    /// tests and development only.
    pub fn trust_self(root: VerifyingKey) -> AttestationPolicy {
        AttestationPolicy {
            quoting_roots: vec![root],
            measurements: Vec::new(),
            signers: Vec::new(),
            max_quote_age: DEFAULT_QUOTE_TTL,
            trust_self: true,
            verified: Mutex::new(HashSet::new()),
        }
    }

    /// Additionally pins the MRSIGNER set.
    #[must_use]
    pub fn signers(mut self, signers: Vec<[u8; 32]>) -> AttestationPolicy {
        self.signers = signers;
        self
    }

    /// Overrides the maximum accepted quote age.
    #[must_use]
    pub fn max_quote_age(mut self, age: Duration) -> AttestationPolicy {
        self.max_quote_age = age;
        self
    }

    /// Evaluates the policy against `cert` at `now_ms` (unix
    /// milliseconds). Check order: quote presence, parse, root
    /// signature, measurement, signer, freshness, report-data
    /// commitment — each failure is a distinct typed error.
    ///
    /// # Errors
    ///
    /// The first [`AttestationError`] encountered, in check order.
    pub fn verify(&self, cert: &Certificate, now_ms: u64) -> Result<(), AttestationError> {
        if let Some(t) = cert.unknown_critical(&[EXT_SGX_QUOTE]) {
            return Err(AttestationError::UnknownCriticalExtension(t));
        }
        let ext = cert
            .extension(EXT_SGX_QUOTE)
            .ok_or(AttestationError::MissingQuote)?;
        let quote = AttestationExtension::from_bytes(&ext.data)?;
        // Ed25519 signature check, memoised: quotes are immutable
        // once signed, so a digest seen before under this policy's
        // roots needs no re-verification. Everything downstream
        // (measurement, signer, freshness, report-data) still runs on
        // every handshake — the cache can only skip the signature.
        let digest = Sha256::digest(&ext.data);
        let cached = self.verified.lock().expect("quote cache").contains(&digest);
        if !cached {
            let trusted = self
                .quoting_roots
                .iter()
                .any(|root| AttestationService::new(*root).verify(&quote, None).is_ok());
            if !trusted {
                return Err(AttestationError::UntrustedRoot);
            }
            let mut verified = self.verified.lock().expect("quote cache");
            if verified.len() >= QUOTE_CACHE_CAP {
                verified.clear();
            }
            verified.insert(digest);
        }
        if !self.trust_self && !self.measurements.contains(&quote.measurement) {
            return Err(AttestationError::WrongMeasurement);
        }
        if !self.signers.is_empty() && !self.signers.contains(&quote.signer) {
            return Err(AttestationError::WrongSigner);
        }
        let max_age_ms = self.max_quote_age.as_millis() as u64;
        let skew_ms = MAX_CLOCK_SKEW.as_millis() as u64;
        let fresh = quote.issued_at_ms <= now_ms.saturating_add(skew_ms)
            && now_ms.saturating_sub(quote.issued_at_ms) <= max_age_ms;
        if !fresh {
            return Err(AttestationError::StaleQuote);
        }
        if quote.report_data[..32] != Sha256::digest(&cert.pubkey) {
            return Err(AttestationError::ReportDataMismatch);
        }
        Ok(())
    }
}

/// Current unix time in milliseconds — the handshake's freshness
/// clock.
pub fn unix_now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use libseal_sgxsim::attest::QuotingEnclave;
    use libseal_sgxsim::cost::CostModel;
    use libseal_sgxsim::enclave::EnclaveBuilder;

    fn attested_cert(
        ca: &CertificateAuthority,
        qe: &QuotingEnclave,
        identity: &[u8],
        issued_at_ms: u64,
    ) -> Certificate {
        let enclave = EnclaveBuilder::new(identity)
            .cost_model(CostModel::free())
            .build(|_| ());
        let key = libseal_crypto::ed25519::SigningKey::from_seed(&[5u8; 32]);
        let pubkey = *key.verifying_key().as_bytes();
        let mut report = [0u8; 64];
        report[..32].copy_from_slice(&Sha256::digest(&pubkey));
        let quote = qe.quote_at(enclave.services(), &report, issued_at_ms);
        ca.issue_with_extensions(
            "svc.test",
            &pubkey,
            vec![AttestationExtension::to_extension(&quote)],
        )
        .unwrap()
    }

    #[test]
    fn quote_roundtrip_through_extension() {
        let qe = QuotingEnclave::new(&[1u8; 32]);
        let enclave = EnclaveBuilder::new(b"svc")
            .cost_model(CostModel::free())
            .build(|_| ());
        let quote = qe.quote_at(enclave.services(), &[9u8; 64], 12345);
        let ext = AttestationExtension::to_extension(&quote);
        assert_eq!(ext.ext_type, EXT_SGX_QUOTE);
        assert!(!ext.critical);
        let parsed = AttestationExtension::from_bytes(&ext.data).unwrap();
        assert_eq!(parsed, quote);
        assert_eq!(
            AttestationExtension::from_bytes(&ext.data[..ext.data.len() - 1]),
            Err(AttestationError::MalformedQuote)
        );
    }

    #[test]
    fn policy_accepts_pinned_measurement() {
        let ca = CertificateAuthority::new("CA", &[2u8; 32]);
        let qe = QuotingEnclave::new(&[1u8; 32]);
        let cert = attested_cert(&ca, &qe, b"svc", 1_000_000);
        let enclave = EnclaveBuilder::new(b"svc")
            .cost_model(CostModel::free())
            .build(|_| ());
        let policy = AttestationPolicy::pinned(qe.root_key(), vec![*enclave.measurement()]);
        policy.verify(&cert, 1_000_000).unwrap();
    }

    #[test]
    fn policy_rejects_each_failure_distinctly() {
        let ca = CertificateAuthority::new("CA", &[2u8; 32]);
        let qe = QuotingEnclave::new(&[1u8; 32]);
        let rogue_qe = QuotingEnclave::new(&[9u8; 32]);
        let enclave = EnclaveBuilder::new(b"svc")
            .cost_model(CostModel::free())
            .build(|_| ());
        let m = *enclave.measurement();
        let now = 1_000_000u64;
        let cert = attested_cert(&ca, &qe, b"svc", now);

        // Missing quote.
        let (_, bare) = ca.issue_identity("svc.test", &[5u8; 32]).unwrap();
        let policy = AttestationPolicy::pinned(qe.root_key(), vec![m]);
        assert_eq!(
            policy.verify(&bare, now),
            Err(AttestationError::MissingQuote)
        );

        // Untrusted root.
        let rogue_policy = AttestationPolicy::pinned(rogue_qe.root_key(), vec![m]);
        assert_eq!(
            rogue_policy.verify(&cert, now),
            Err(AttestationError::UntrustedRoot)
        );

        // Wrong measurement.
        let other = attested_cert(&ca, &qe, b"other-code", now);
        assert_eq!(
            policy.verify(&other, now),
            Err(AttestationError::WrongMeasurement)
        );

        // Wrong signer.
        let strict = policy.clone().signers(vec![[0xEE; 32]]);
        assert_eq!(
            strict.verify(&cert, now),
            Err(AttestationError::WrongSigner)
        );

        // Stale quote.
        let ttl_ms = DEFAULT_QUOTE_TTL.as_millis() as u64;
        assert_eq!(
            policy.verify(&cert, now + ttl_ms + 1),
            Err(AttestationError::StaleQuote)
        );
        // Far-future quotes are just as suspect.
        let future = attested_cert(&ca, &qe, b"svc", now + 10 * 60 * 1000);
        assert_eq!(
            policy.verify(&future, now),
            Err(AttestationError::StaleQuote)
        );

        // Report data minted for a different key.
        let enclave2 = EnclaveBuilder::new(b"svc")
            .cost_model(CostModel::free())
            .build(|_| ());
        let other_key = libseal_crypto::ed25519::SigningKey::from_seed(&[6u8; 32]);
        let mut report = [0u8; 64];
        report[..32].copy_from_slice(&Sha256::digest(other_key.verifying_key().as_bytes()));
        let quote = qe.quote_at(enclave2.services(), &report, now);
        let key = libseal_crypto::ed25519::SigningKey::from_seed(&[5u8; 32]);
        let mismatched = ca
            .issue_with_extensions(
                "svc.test",
                key.verifying_key().as_bytes(),
                vec![AttestationExtension::to_extension(&quote)],
            )
            .unwrap();
        assert_eq!(
            policy.verify(&mismatched, now),
            Err(AttestationError::ReportDataMismatch)
        );

        // Unknown critical extension.
        let mut with_critical = cert.clone();
        with_critical.extensions.push(crate::cert::Extension {
            ext_type: 0xDEAD,
            critical: true,
            data: Vec::new(),
        });
        assert_eq!(
            policy.verify(&with_critical, now),
            Err(AttestationError::UnknownCriticalExtension(0xDEAD))
        );
    }

    #[test]
    fn signature_cache_skips_only_the_signature() {
        let ca = CertificateAuthority::new("CA", &[2u8; 32]);
        let qe = QuotingEnclave::new(&[1u8; 32]);
        let enclave = EnclaveBuilder::new(b"svc")
            .cost_model(CostModel::free())
            .build(|_| ());
        let now = 1_000_000u64;
        let cert = attested_cert(&ca, &qe, b"svc", now);
        let policy = AttestationPolicy::pinned(qe.root_key(), vec![*enclave.measurement()]);

        // First verify populates the cache; a repeat still passes.
        policy.verify(&cert, now).unwrap();
        assert!(!policy.verified.lock().unwrap().is_empty());
        policy.verify(&cert, now).unwrap();

        // A cached signature verdict must not launder freshness: the
        // same quote judged past its TTL is still stale.
        let ttl_ms = DEFAULT_QUOTE_TTL.as_millis() as u64;
        assert_eq!(
            policy.verify(&cert, now + ttl_ms + 1),
            Err(AttestationError::StaleQuote)
        );

        // ...nor measurement pinning: a second policy that cached the
        // quote under trust_self is irrelevant — caches are
        // per-instance, and a pinned policy re-checks the measurement
        // on every call even after its own cache hit.
        let other = attested_cert(&ca, &qe, b"other-code", now);
        let lax = AttestationPolicy::trust_self(qe.root_key());
        lax.verify(&other, now).unwrap();
        assert_eq!(
            policy.verify(&other, now),
            Err(AttestationError::WrongMeasurement)
        );
    }

    #[test]
    fn trust_self_accepts_any_measurement() {
        let ca = CertificateAuthority::new("CA", &[2u8; 32]);
        let qe = QuotingEnclave::new(&[1u8; 32]);
        let cert = attested_cert(&ca, &qe, b"whatever-code", 1_000);
        let policy = AttestationPolicy::trust_self(qe.root_key());
        policy.verify(&cert, 1_000).unwrap();
    }
}
