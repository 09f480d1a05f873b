//! Attested certificate provisioning (§6.3, "Bypassing logging").
//!
//! The provider could link its service against a vanilla TLS library
//! and silently skip auditing. LibSEAL's defence: the TLS certificate
//! private key is only released to an enclave that proves — via remote
//! attestation — that it runs genuine LibSEAL code. Clients then know
//! that a connection presenting that certificate terminates inside an
//! auditing enclave.

use std::time::Duration;

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::sha2::Sha256;
use libseal_sgxsim::attest::{AttestationService, Quote, QuotingEnclave};
use libseal_sgxsim::enclave::EnclaveServices;
use libseal_tlsx::attest::{AttestationExtension, AttestationPolicy};
use libseal_tlsx::cert::{Certificate, CertificateAuthority};

use crate::{LibSealError, Result};

/// Mints attested TLS identities (RA-TLS): certificates whose
/// extension block carries a quote committing to the certificate key.
///
/// This is the deployment-side counterpart of [`CertProvisioner`]:
/// instead of releasing a pre-existing key to an attested enclave, the
/// enclave generates its keypair *inside* and the issuer binds a fresh
/// certificate to a quote over SHA-256 of the public key
/// ([`LibSeal::new`](crate::session::LibSeal::new) drives this when
/// the configuration carries an attested identity).
pub struct IdentityIssuer {
    ca: CertificateAuthority,
    qe: QuotingEnclave,
}

impl IdentityIssuer {
    /// Creates an issuer from a certificate authority and the
    /// platform's quoting enclave.
    pub fn new(ca: CertificateAuthority, qe: QuotingEnclave) -> Self {
        IdentityIssuer { ca, qe }
    }

    /// Convenience constructor from raw seeds.
    pub fn from_seeds(ca_name: &str, ca_seed: &[u8; 32], qe_seed: &[u8; 32]) -> Self {
        IdentityIssuer::new(
            CertificateAuthority::new(ca_name, ca_seed),
            QuotingEnclave::new(qe_seed),
        )
    }

    /// The CA root clients add to their trust store.
    pub fn ca_root(&self) -> VerifyingKey {
        self.ca.root_key()
    }

    /// The quoting root clients pin in their [`AttestationPolicy`].
    pub fn quoting_root(&self) -> VerifyingKey {
        self.qe.root_key()
    }

    /// Issues a certificate for `pubkey` carrying a quote over the
    /// enclave behind `services`, with `report_data` committing to
    /// SHA-256 of `pubkey`.
    ///
    /// # Errors
    ///
    /// [`LibSealError::Tls`] if certificate issuance rejects the
    /// subject or extension payload.
    pub fn mint(
        &self,
        subject: &str,
        pubkey: &[u8; 32],
        services: &EnclaveServices,
    ) -> Result<Certificate> {
        let mut report = [0u8; 64];
        report[..32].copy_from_slice(&Sha256::digest(pubkey));
        let quote = self.qe.quote(services, &report);
        self.ca
            .issue_with_extensions(
                subject,
                pubkey,
                vec![AttestationExtension::to_extension(&quote)],
            )
            .map_err(LibSealError::Tls)
    }

    /// A client policy pinning `measurements` under this issuer's
    /// quoting root.
    pub fn policy_for(&self, measurements: Vec<[u8; 32]>) -> AttestationPolicy {
        AttestationPolicy::pinned(self.quoting_root(), measurements)
    }

    /// Like [`IdentityIssuer::policy_for`] with a custom quote TTL.
    pub fn policy_with_ttl(&self, measurements: Vec<[u8; 32]>, ttl: Duration) -> AttestationPolicy {
        self.policy_for(measurements).max_quote_age(ttl)
    }
}

/// Holds a service's TLS identity and releases it only to attested
/// LibSEAL enclaves.
pub struct CertProvisioner {
    cert: Certificate,
    key_seed: [u8; 32],
    expected_measurement: [u8; 32],
    ias: AttestationService,
}

impl CertProvisioner {
    /// Creates a provisioner for `cert` (with private-key seed
    /// `key_seed`) that only trusts enclaves measuring
    /// `expected_measurement`, verified through `ias`.
    pub fn new(
        cert: Certificate,
        key_seed: [u8; 32],
        expected_measurement: [u8; 32],
        ias: AttestationService,
    ) -> Self {
        CertProvisioner {
            cert,
            key_seed,
            expected_measurement,
            ias,
        }
    }

    /// Validates `quote` and, on success, releases the certificate and
    /// its private key. The quote's report data must bind the
    /// certificate public key (hash), proving the enclave requested
    /// *this* identity.
    ///
    /// # Errors
    ///
    /// [`LibSealError::Attestation`] on any verification failure.
    pub fn provision(&self, quote: &Quote) -> Result<(Certificate, SigningKey)> {
        self.ias
            .verify(quote, Some(&self.expected_measurement))
            .map_err(|e| LibSealError::Attestation(e.to_string()))?;
        let expected_report = Sha256::digest(&self.cert.pubkey);
        if quote.report_data[..32] != expected_report {
            return Err(LibSealError::Attestation(
                "quote does not bind the requested certificate".into(),
            ));
        }
        Ok((self.cert.clone(), SigningKey::from_seed(&self.key_seed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssm::GitModule;
    use crate::{LibSeal, LibSealConfig};
    use libseal_sgxsim::attest::QuotingEnclave;
    use libseal_sgxsim::cost::CostModel;
    use libseal_tlsx::cert::CertificateAuthority;
    use std::sync::Arc;

    fn make_libseal(with_audit: bool) -> Arc<LibSeal> {
        let ca = CertificateAuthority::new("CA", &[1u8; 32]);
        let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
        let mut builder = LibSealConfig::builder(cert, key).cost_model(CostModel::free());
        if with_audit {
            builder = builder.ssm(Arc::new(GitModule));
        }
        LibSeal::new(builder.build()).unwrap()
    }

    #[test]
    fn genuine_enclave_gets_the_key() {
        let ls = make_libseal(true);
        let qe = QuotingEnclave::new(&[7u8; 32]);
        let ias = AttestationService::new(qe.root_key());
        let prov = CertProvisioner::new(ls.certificate().clone(), [2u8; 32], ls.measurement(), ias);
        let quote = ls.quote(&qe);
        let (cert, _key) = prov.provision(&quote).unwrap();
        assert_eq!(&cert, ls.certificate());
    }

    #[test]
    fn different_code_is_rejected() {
        // An enclave WITHOUT auditing has a different measurement; the
        // provisioner keyed to the auditing build must reject it.
        let audited = make_libseal(true);
        let bypass = make_libseal(false);
        assert_ne!(audited.measurement(), bypass.measurement());

        let qe = QuotingEnclave::new(&[7u8; 32]);
        let ias = AttestationService::new(qe.root_key());
        let prov = CertProvisioner::new(
            audited.certificate().clone(),
            [2u8; 32],
            audited.measurement(),
            ias,
        );
        let quote = bypass.quote(&qe);
        assert!(prov.provision(&quote).is_err());
    }

    #[test]
    fn wrong_report_data_rejected() {
        let ls = make_libseal(true);
        let qe = QuotingEnclave::new(&[7u8; 32]);
        let ias = AttestationService::new(qe.root_key());
        // Provisioner for a DIFFERENT certificate.
        let ca = CertificateAuthority::new("CA", &[1u8; 32]);
        let (_okey, other_cert) = ca.issue_identity("other.test", &[9u8; 32]).unwrap();
        let prov = CertProvisioner::new(other_cert, [9u8; 32], ls.measurement(), ias);
        let quote = ls.quote(&qe);
        assert!(prov.provision(&quote).is_err());
    }
}
