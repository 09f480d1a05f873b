#![warn(missing_docs)]
//! **LibSEAL**: a SEcure Audit Library revealing service integrity
//! violations using trusted execution.
//!
//! This crate reproduces the primary contribution of *LibSEAL:
//! Revealing Service Integrity Violations Using Trusted Execution*
//! (Aublin et al., EuroSys 2018) as a Rust library over the
//! workspace's simulated SGX TEE:
//!
//! - [`session::LibSeal`] — the drop-in TLS termination shim that
//!   observes all service requests and responses from inside an
//!   enclave (§3, §4): the untrusted-side handle with shadow
//!   structures, secure callbacks and optional asynchronous enclave
//!   calls, configured through [`config::LibSealConfig`];
//! - [`enclave`] — the trusted side: the state that lives inside the
//!   enclave, the bodies that run there, and the [`enclave::Ecall`]
//!   table that is its whole interface;
//! - [`log::AuditLog`] — the non-repudiable relational audit log:
//!   hash-chained, Ed25519-signed, sealed to disk, rollback-protected
//!   by a ROTE quorum, trimmable (§5.1);
//! - [`ssm`] — service-specific modules for Git, ownCloud and Dropbox
//!   with the paper's schemas, invariants and trimming queries (§6.2);
//! - [`check`] — SQL invariant checking with interval scheduling,
//!   client-triggered checks and in-band result delivery (§5.2);
//! - [`queue`] — the bounded ticket queue and worker thread that run
//!   both the group-commit sealer and the background verifier;
//! - [`provision`] — attestation-gated certificate provisioning, the
//!   §6.3 defence against the provider bypassing the audit layer;
//! - [`plane`] — the [`plane::AuditPlane`] trait, the session surface
//!   services program against, implemented by one enclave
//!   ([`session::LibSeal`]) and by a fleet ([`fleet::ShardedPlane`]);
//! - [`fleet`] — the sharded multi-enclave orchestrator, which routes
//!   sessions to per-shard enclaves and cross-links the shard chains
//!   with signed epoch checkpoints (a deliberate divergence from the
//!   paper's single-enclave model; see DESIGN.md);
//! - [`checkpoint`] — the enclave-free half of fleet verification:
//!   checkpoint rows, their signing payload and the history verifier.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` at the workspace root for a complete
//! client/server round trip with attack detection.

pub mod check;
pub mod checkpoint;
pub mod config;
pub mod enclave;
pub mod fleet;
pub mod log;
pub mod plane;
pub mod provision;
pub mod queue;
pub mod session;
pub mod ssm;

pub use check::{CheckOutcome, CheckReport, Checker};
pub use checkpoint::{CheckpointRow, FleetVerifyError};
pub use config::{AttestedIdentity, GuardConfig, LibSealConfig, LibSealConfigBuilder};
pub use enclave::{Ecall, SessionInput, SessionOutcome};
pub use fleet::ShardedPlane;
pub use log::{AuditLog, CommitMode, LogBacking, TableSpec};
pub use plane::AuditPlane;
pub use provision::{CertProvisioner, IdentityIssuer};
pub use queue::{Slot, TicketQueue, Worker};
pub use session::{LibSeal, ShadowSsl};
pub use ssm::{DropboxModule, GitModule, Invariant, OwnCloudModule, ServiceModule};

pub use libseal_telemetry as telemetry;

/// Errors surfaced by LibSEAL.
#[derive(Debug)]
pub enum LibSealError {
    /// Audit-log failure.
    Log(String),
    /// The log failed an integrity check — evidence of tampering.
    Tampered(String),
    /// Underlying database error.
    Db(libseal_sealdb::DbError),
    /// Underlying TLS error.
    Tls(libseal_tlsx::TlsError),
    /// Attestation failure.
    Attestation(String),
    /// The referenced session does not exist.
    NoSuchSession(u64),
    /// The operation needs auditing, which is not configured.
    AuditingDisabled,
    /// The requested configuration is contradictory.
    Config(String),
    /// A primitive cannot run: [`libseal_crypto::CryptoError::Unsupported`]
    /// when the CPU lacks AES-NI or PCLMULQDQ, which every audited
    /// record, sealed blob and journal frame is protected with.
    Crypto(libseal_crypto::CryptoError),
}

impl std::fmt::Display for LibSealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LibSealError::Log(m) => write!(f, "audit log error: {m}"),
            LibSealError::Tampered(m) => write!(f, "log integrity violation: {m}"),
            LibSealError::Db(e) => write!(f, "database error: {e}"),
            LibSealError::Tls(e) => write!(f, "TLS error: {e}"),
            LibSealError::Attestation(m) => write!(f, "attestation error: {m}"),
            LibSealError::NoSuchSession(sid) => write!(f, "no such session: {sid}"),
            LibSealError::AuditingDisabled => write!(f, "auditing is not configured"),
            LibSealError::Config(m) => write!(f, "invalid configuration: {m}"),
            LibSealError::Crypto(e) => write!(f, "crypto error: {e}"),
        }
    }
}

impl std::error::Error for LibSealError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LibSealError::Db(e) => Some(e),
            LibSealError::Tls(e) => Some(e),
            _ => None,
        }
    }
}

/// A failed enclave entry (no TCS slot, a rejected interface
/// parameter) surfaces as an audit-log error.
impl From<libseal_sgxsim::SgxError> for LibSealError {
    fn from(e: libseal_sgxsim::SgxError) -> Self {
        LibSealError::Log(e.to_string())
    }
}

/// Convenience alias for fallible LibSEAL operations.
pub type Result<T> = std::result::Result<T, LibSealError>;
