//! Certificates: Ed25519 identities signed by a certificate authority.
//!
//! Clients verify that the endpoint terminating STLS presents a
//! certificate chaining to a CA they trust; LibSEAL additionally binds
//! the certificate key to an attested enclave (§6.3, "Bypassing
//! logging") — the quote rides in the certificate's extension block
//! (see [`crate::attest`]) the way RA-TLS embeds SGX quotes in X.509
//! extensions.

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};

use crate::{Result, TlsError, VerifyFailure};

/// Longest subject or issuer name a certificate may carry; `decode`
/// has always enforced this bound on the wire, and `issue` refuses to
/// mint certificates that would exceed it (a certificate that encodes
/// but can never be decoded by a peer is worse than useless).
pub const MAX_NAME_LEN: usize = 4096;

/// Most extensions one certificate may carry.
pub const MAX_EXTENSIONS: usize = 16;

/// Largest single extension payload.
pub const MAX_EXTENSION_LEN: usize = 16 * 1024;

/// Version tag leading a certificate's extension block on the wire.
const EXT_BLOCK_VERSION: u16 = 1;

/// Flag bit marking an extension critical.
const EXT_FLAG_CRITICAL: u8 = 0x01;

/// A typed certificate extension: X.509-style `(type, critical,
/// bytes)`, carried in a versioned length-prefixed block after the
/// signature and covered by it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Extension {
    /// Extension type (see [`crate::attest::EXT_SGX_QUOTE`]).
    pub ext_type: u16,
    /// Critical extensions must be understood by the verifier; a peer
    /// seeing an unknown critical extension rejects the certificate.
    pub critical: bool,
    /// Opaque payload, interpreted per `ext_type`.
    pub data: Vec<u8>,
}

/// An STLS certificate: a subject name and Ed25519 key, signed by an
/// issuer, optionally carrying typed extensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Subject (e.g. host name).
    pub subject: String,
    /// The subject's public key.
    pub pubkey: [u8; 32],
    /// Issuer name.
    pub issuer: String,
    /// Extensions (e.g. an enclave quote); covered by the signature.
    pub extensions: Vec<Extension>,
    /// Issuer's signature over the TBS bytes.
    pub signature: [u8; 64],
}

/// Serializes an extension block (`version, count, (type, flags, len,
/// bytes)*`). Shared by the wire encoding and the TBS bytes so the
/// signature covers the extensions exactly as transmitted.
fn encode_extensions(exts: &[Extension]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&EXT_BLOCK_VERSION.to_le_bytes());
    out.extend_from_slice(&(exts.len() as u16).to_le_bytes());
    for e in exts {
        out.extend_from_slice(&e.ext_type.to_le_bytes());
        out.push(if e.critical { EXT_FLAG_CRITICAL } else { 0 });
        out.extend_from_slice(&(e.data.len() as u32).to_le_bytes());
        out.extend_from_slice(&e.data);
    }
    out
}

impl Certificate {
    fn tbs(subject: &str, pubkey: &[u8; 32], issuer: &str, extensions: &[Extension]) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + subject.len() + issuer.len());
        out.extend_from_slice(b"stls-cert-v1\0");
        out.extend_from_slice(&(subject.len() as u32).to_le_bytes());
        out.extend_from_slice(subject.as_bytes());
        out.extend_from_slice(pubkey);
        out.extend_from_slice(&(issuer.len() as u32).to_le_bytes());
        out.extend_from_slice(issuer.as_bytes());
        // Extension-free certificates keep the original TBS bytes, so
        // signatures minted before extensions existed stay valid.
        if !extensions.is_empty() {
            out.extend_from_slice(&encode_extensions(extensions));
        }
        out
    }

    /// Verifies this certificate against a trusted CA key.
    ///
    /// # Errors
    ///
    /// [`TlsError::Verification`] when the signature does not check
    /// out under `ca`.
    pub fn verify(&self, ca: &VerifyingKey) -> Result<()> {
        let tbs = Self::tbs(&self.subject, &self.pubkey, &self.issuer, &self.extensions);
        ca.verify(&tbs, &self.signature)
            .map_err(|_| TlsError::Verification(VerifyFailure::UntrustedCa))
    }

    /// The first extension of the given type, if present.
    pub fn extension(&self, ext_type: u16) -> Option<&Extension> {
        self.extensions.iter().find(|e| e.ext_type == ext_type)
    }

    /// The type of the first critical extension the caller does not
    /// recognise, if any. Verifiers must reject certificates carrying
    /// one (X.509 criticality semantics).
    pub fn unknown_critical(&self, known: &[u16]) -> Option<u16> {
        self.extensions
            .iter()
            .find(|e| e.critical && !known.contains(&e.ext_type))
            .map(|e| e.ext_type)
    }

    /// Serializes to wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.subject.len() as u32).to_le_bytes());
        out.extend_from_slice(self.subject.as_bytes());
        out.extend_from_slice(&self.pubkey);
        out.extend_from_slice(&(self.issuer.len() as u32).to_le_bytes());
        out.extend_from_slice(self.issuer.as_bytes());
        out.extend_from_slice(&self.signature);
        // Absent block = no extensions: a pre-extension decoder would
        // reject trailing bytes, and a pre-extension encoder stops
        // here, so extension-free certificates round-trip both ways.
        if !self.extensions.is_empty() {
            out.extend_from_slice(&encode_extensions(&self.extensions));
        }
        out
    }

    /// Parses from wire format.
    ///
    /// # Errors
    ///
    /// [`TlsError::Protocol`] on malformed bytes.
    pub fn decode(buf: &[u8]) -> Result<Certificate> {
        let mut i = 0usize;
        let take = |i: &mut usize, n: usize| -> Result<&[u8]> {
            let s = buf
                .get(*i..*i + n)
                .ok_or_else(|| TlsError::Protocol("certificate truncated".into()))?;
            *i += n;
            Ok(s)
        };
        // Network-supplied bytes: every fixed-width field converts
        // through a typed error, never an unwrap.
        fn arr<const N: usize>(s: &[u8]) -> Result<[u8; N]> {
            s.try_into()
                .map_err(|_| TlsError::Protocol("certificate field truncated".into()))
        }
        let slen = u32::from_le_bytes(arr(take(&mut i, 4)?)?) as usize;
        if slen > MAX_NAME_LEN {
            return Err(TlsError::Protocol("subject too long".into()));
        }
        let subject = String::from_utf8(take(&mut i, slen)?.to_vec())
            .map_err(|_| TlsError::Protocol("subject not UTF-8".into()))?;
        let pubkey: [u8; 32] = arr(take(&mut i, 32)?)?;
        let ilen = u32::from_le_bytes(arr(take(&mut i, 4)?)?) as usize;
        if ilen > MAX_NAME_LEN {
            return Err(TlsError::Protocol("issuer too long".into()));
        }
        let issuer = String::from_utf8(take(&mut i, ilen)?.to_vec())
            .map_err(|_| TlsError::Protocol("issuer not UTF-8".into()))?;
        let signature: [u8; 64] = arr(take(&mut i, 64)?)?;
        // Optional extension block; certificates minted before
        // extensions existed end exactly at the signature.
        let mut extensions = Vec::new();
        if i != buf.len() {
            let version = u16::from_le_bytes(arr(take(&mut i, 2)?)?);
            if version != EXT_BLOCK_VERSION {
                return Err(TlsError::Protocol(format!(
                    "unsupported certificate extension block version {version}"
                )));
            }
            let count = u16::from_le_bytes(arr(take(&mut i, 2)?)?) as usize;
            if count > MAX_EXTENSIONS {
                return Err(TlsError::Protocol("too many certificate extensions".into()));
            }
            for _ in 0..count {
                let ext_type = u16::from_le_bytes(arr(take(&mut i, 2)?)?);
                let flags = take(&mut i, 1)?[0];
                let len = u32::from_le_bytes(arr(take(&mut i, 4)?)?) as usize;
                if len > MAX_EXTENSION_LEN {
                    return Err(TlsError::Protocol("certificate extension too long".into()));
                }
                let data = take(&mut i, len)?.to_vec();
                extensions.push(Extension {
                    ext_type,
                    critical: flags & EXT_FLAG_CRITICAL != 0,
                    data,
                });
            }
        }
        if i != buf.len() {
            return Err(TlsError::Protocol("trailing certificate bytes".into()));
        }
        Ok(Certificate {
            subject,
            pubkey,
            issuer,
            extensions,
            signature,
        })
    }
}

/// A certificate authority that issues STLS certificates.
pub struct CertificateAuthority {
    name: String,
    key: SigningKey,
}

impl CertificateAuthority {
    /// Creates a CA with a deterministic key from `seed`.
    pub fn new(name: &str, seed: &[u8; 32]) -> Self {
        CertificateAuthority {
            name: name.to_string(),
            key: SigningKey::from_seed(seed),
        }
    }

    /// The CA's verification key, to be distributed to clients.
    pub fn root_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// Issues a certificate binding `subject` to `pubkey`.
    ///
    /// # Errors
    ///
    /// [`TlsError::Protocol`] when the subject (or this CA's name)
    /// exceeds [`MAX_NAME_LEN`] — the bound `decode` enforces, so
    /// issuance refuses certificates no peer could ever parse.
    pub fn issue(&self, subject: &str, pubkey: &[u8; 32]) -> Result<Certificate> {
        self.issue_with_extensions(subject, pubkey, Vec::new())
    }

    /// Issues a certificate carrying `extensions` (e.g. an enclave
    /// quote; see [`crate::attest::AttestationExtension`]).
    ///
    /// # Errors
    ///
    /// [`TlsError::Protocol`] when the subject or issuer exceeds
    /// [`MAX_NAME_LEN`], or the extensions exceed [`MAX_EXTENSIONS`] /
    /// [`MAX_EXTENSION_LEN`] — the same bounds `decode` enforces.
    pub fn issue_with_extensions(
        &self,
        subject: &str,
        pubkey: &[u8; 32],
        extensions: Vec<Extension>,
    ) -> Result<Certificate> {
        if subject.len() > MAX_NAME_LEN {
            return Err(TlsError::Protocol("subject too long".into()));
        }
        if self.name.len() > MAX_NAME_LEN {
            return Err(TlsError::Protocol("issuer too long".into()));
        }
        if extensions.len() > MAX_EXTENSIONS {
            return Err(TlsError::Protocol("too many certificate extensions".into()));
        }
        if extensions.iter().any(|e| e.data.len() > MAX_EXTENSION_LEN) {
            return Err(TlsError::Protocol("certificate extension too long".into()));
        }
        let tbs = Certificate::tbs(subject, pubkey, &self.name, &extensions);
        Ok(Certificate {
            subject: subject.to_string(),
            pubkey: *pubkey,
            issuer: self.name.clone(),
            extensions,
            signature: self.key.sign(&tbs),
        })
    }

    /// Issues an identity: a fresh signing key plus its certificate.
    ///
    /// # Errors
    ///
    /// Same bounds as [`CertificateAuthority::issue`].
    pub fn issue_identity(
        &self,
        subject: &str,
        seed: &[u8; 32],
    ) -> Result<(SigningKey, Certificate)> {
        let key = SigningKey::from_seed(seed);
        let cert = self.issue(subject, key.verifying_key().as_bytes())?;
        Ok((key, cert))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_and_verify() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let (key, cert) = ca.issue_identity("example.com", &[2u8; 32]).unwrap();
        cert.verify(&ca.root_key()).unwrap();
        assert_eq!(&cert.pubkey, key.verifying_key().as_bytes());
    }

    #[test]
    fn forged_cert_rejected() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let rogue = CertificateAuthority::new("TestCA", &[9u8; 32]);
        let (_, cert) = rogue.issue_identity("example.com", &[2u8; 32]).unwrap();
        assert!(cert.verify(&ca.root_key()).is_err());
    }

    #[test]
    fn tampered_subject_rejected() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let (_, mut cert) = ca.issue_identity("example.com", &[2u8; 32]).unwrap();
        cert.subject = "evil.com".to_string();
        assert!(cert.verify(&ca.root_key()).is_err());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let (_, cert) = ca.issue_identity("example.com", &[2u8; 32]).unwrap();
        let bytes = cert.encode();
        let parsed = Certificate::decode(&bytes).unwrap();
        assert_eq!(parsed, cert);
        assert!(Certificate::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn extension_roundtrip_and_signature_coverage() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let key = SigningKey::from_seed(&[2u8; 32]);
        let exts = vec![
            Extension {
                ext_type: 7,
                critical: false,
                data: b"quote-bytes".to_vec(),
            },
            Extension {
                ext_type: 9,
                critical: true,
                data: vec![0xAB; 300],
            },
        ];
        let cert = ca
            .issue_with_extensions("example.com", key.verifying_key().as_bytes(), exts)
            .unwrap();
        cert.verify(&ca.root_key()).unwrap();
        let parsed = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(parsed, cert);
        parsed.verify(&ca.root_key()).unwrap();
        assert_eq!(parsed.extension(7).unwrap().data, b"quote-bytes");
        assert_eq!(parsed.unknown_critical(&[7, 9]), None);
        assert_eq!(parsed.unknown_critical(&[7]), Some(9));

        // Tampering with extension bytes breaks the signature.
        let mut tampered = parsed;
        tampered.extensions[0].data[0] ^= 1;
        assert!(tampered.verify(&ca.root_key()).is_err());
    }

    #[test]
    fn no_extension_certs_have_stable_wire_format() {
        // Back-compat: an extension-free certificate must end exactly
        // at the signature (the pre-extension wire format).
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let (_, cert) = ca.issue_identity("example.com", &[2u8; 32]).unwrap();
        let bytes = cert.encode();
        assert_eq!(
            bytes.len(),
            4 + cert.subject.len() + 32 + 4 + cert.issuer.len() + 64
        );
        assert!(Certificate::decode(&bytes).unwrap().extensions.is_empty());
    }

    #[test]
    fn oversized_names_refused_at_issue() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let at_bound = "s".repeat(MAX_NAME_LEN);
        let over = "s".repeat(MAX_NAME_LEN + 1);
        assert!(ca.issue(&at_bound, &[0u8; 32]).is_ok());
        assert!(ca.issue(&over, &[0u8; 32]).is_err());
        let long_ca = CertificateAuthority::new(&over, &[1u8; 32]);
        assert!(long_ca.issue("example.com", &[0u8; 32]).is_err());
    }

    #[test]
    fn oversized_extensions_refused_at_issue() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let big = Extension {
            ext_type: 1,
            critical: false,
            data: vec![0; MAX_EXTENSION_LEN + 1],
        };
        assert!(ca
            .issue_with_extensions("example.com", &[0u8; 32], vec![big])
            .is_err());
        let many: Vec<Extension> = (0..MAX_EXTENSIONS as u16 + 1)
            .map(|t| Extension {
                ext_type: t,
                critical: false,
                data: Vec::new(),
            })
            .collect();
        assert!(ca
            .issue_with_extensions("example.com", &[0u8; 32], many)
            .is_err());
    }

    #[test]
    fn malformed_extension_blocks_rejected() {
        let ca = CertificateAuthority::new("TestCA", &[1u8; 32]);
        let cert = ca
            .issue_with_extensions(
                "example.com",
                &[0u8; 32],
                vec![Extension {
                    ext_type: 7,
                    critical: false,
                    data: b"x".to_vec(),
                }],
            )
            .unwrap();
        let bytes = cert.encode();
        // Truncated inside the extension block.
        assert!(Certificate::decode(&bytes[..bytes.len() - 1]).is_err());
        // Unknown block version.
        let base = 4 + cert.subject.len() + 32 + 4 + cert.issuer.len() + 64;
        let mut wrong_version = bytes.clone();
        wrong_version[base] = 0xFF;
        assert!(Certificate::decode(&wrong_version).is_err());
        // Trailing garbage after the block.
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Certificate::decode(&trailing).is_err());
    }
}
