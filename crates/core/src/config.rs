//! Instance configuration: [`LibSealConfig`] and its fluent builder.
//!
//! Everything here runs outside the enclave and holds no session
//! state: it only describes the instance [`crate::LibSeal::new`] (one
//! enclave) or [`LibSealConfigBuilder::build_plane`] (one enclave or a
//! sharded fleet) provisions.

use std::sync::Arc;
use std::time::Duration;

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::{Certificate, CertificateAuthority};

use crate::log::LogBacking;
use crate::ssm::ServiceModule;
use crate::Result;

/// Default for [`LibSealConfigBuilder::max_message_buffer`]: generous enough
/// for large Git pushes and file uploads, small enough to bound a
/// malicious never-ending stream (interface hardening, §6.3).
pub const MAX_MESSAGE_BUFFER: usize = 64 * 1024 * 1024;

/// Rollback protection: the audit log of an instance is always bound
/// to a ROTE counter (§5.1). An unprotected log is built directly on
/// [`crate::log::AuditLog`] with [`crate::log::NoGuard`].
#[derive(Clone)]
pub enum GuardConfig {
    /// A ROTE quorum tolerating `f` faults with the given per-request
    /// latency (§5.1; the paper's Git evaluation uses `f = 1`).
    Rote {
        /// Tolerated faults.
        f: usize,
        /// Simulated per-node request latency.
        latency: Duration,
    },
}

/// LibSEAL instance configuration.
///
/// Constructed exclusively through [`LibSealConfig::builder`]; the
/// fields are crate-private so every knob flows through the fluent
/// builder and defaults stay in one place.
///
/// `Clone` exists so [`crate::fleet::ShardedPlane`] can stamp out one
/// derived configuration per shard from a single template.
#[derive(Clone)]
pub struct LibSealConfig {
    /// The service's TLS certificate.
    pub(crate) cert: Certificate,
    /// The certificate's private key (provisioned via attestation in a
    /// real deployment; see [`crate::provision`]).
    pub(crate) key: SigningKey,
    /// Trusted CA roots for client-certificate verification.
    pub(crate) ca_roots: Vec<VerifyingKey>,
    /// Require client certificates (§6.3, impersonation defence).
    pub(crate) verify_clients: bool,
    /// The service-specific module; `None` disables auditing (the
    /// paper's "LibSEAL-process" configuration).
    pub(crate) ssm: Option<Arc<dyn ServiceModule>>,
    /// Log backing store.
    pub(crate) backing: LogBacking,
    /// Automatic check/trim interval in pairs (0 disables).
    pub(crate) check_interval: usize,
    /// Rollback protection.
    pub(crate) guard: GuardConfig,
    /// SGX cost model.
    pub(crate) cost_model: CostModel,
    /// TCS slots in the enclave.
    pub(crate) tcs_count: u64,
    /// Seed for the log-signing key: set by a sharded plane for each
    /// of its shards, derived from the sealing identity otherwise.
    pub(crate) log_signer_seed: Option<[u8; 32]>,
    /// Maximum bytes one session may buffer while waiting for a
    /// message boundary (must exceed the largest audited message).
    pub(crate) max_message_buffer: usize,
    /// Group-commit batch cap: how many audited pairs one seal (counter
    /// bind, head signature, fsync) may cover.
    pub(crate) group_commit: usize,
    /// Audit-plane shard count; values above 1 make
    /// [`LibSealConfigBuilder::build_plane`] provision a
    /// [`crate::fleet::ShardedPlane`] instead of a single enclave.
    pub(crate) shards: usize,
    /// Audited responses between fleet epoch checkpoints (sharded
    /// planes only; 0 restricts checkpoints to drains and explicit
    /// requests).
    pub(crate) epoch_interval: u64,
    /// When set, the configured `cert`/`key` are placeholders: the
    /// enclave generates its TLS keypair inside at build time and the
    /// issuer mints an attested certificate bound to it (RA-TLS).
    pub(crate) attest: Option<AttestedIdentity>,
}

/// An attested-identity request: who signs the certificate + quote,
/// and the subject name the minted certificate carries.
///
/// Cloning shares the issuer, so a sharded plane stamps one of these
/// per shard and every shard mints its own in-enclave keypair under
/// the same roots.
#[derive(Clone)]
pub struct AttestedIdentity {
    pub(crate) issuer: Arc<crate::provision::IdentityIssuer>,
    pub(crate) subject: String,
}

impl LibSealConfig {
    /// Starts a configuration for a service presenting `cert`/`key`.
    ///
    /// Defaults: no auditing (call [`LibSealConfigBuilder::ssm`]), an
    /// in-memory log, checks every 25 pairs with trimming, a
    /// zero-latency `f = 1` ROTE guard, the default SGX cost model,
    /// 16 TCS slots, and group commit on (batches of up to 64 pairs
    /// share one counter bind, head signature and fsync).
    pub fn builder(cert: Certificate, key: SigningKey) -> LibSealConfigBuilder {
        LibSealConfigBuilder {
            config: LibSealConfig {
                cert,
                key,
                ca_roots: Vec::new(),
                verify_clients: false,
                ssm: None,
                backing: LogBacking::Memory,
                check_interval: 25,
                guard: GuardConfig::Rote {
                    f: 1,
                    latency: Duration::ZERO,
                },
                cost_model: CostModel::default(),
                tcs_count: 16,
                log_signer_seed: None,
                max_message_buffer: MAX_MESSAGE_BUFFER,
                group_commit: 64,
                shards: 1,
                epoch_interval: 1024,
                attest: None,
            },
        }
    }

    /// Starts a configuration whose TLS identity is minted at build
    /// time: the enclave generates its keypair inside and `issuer`
    /// issues a certificate for `subject` carrying a quote that
    /// commits to the public key (RA-TLS; see [`crate::provision`]).
    pub fn attested(
        issuer: Arc<crate::provision::IdentityIssuer>,
        subject: &str,
    ) -> LibSealConfigBuilder {
        // Placeholder identity, replaced during LibSeal::build once
        // the in-enclave keypair exists.
        let placeholder_ca = CertificateAuthority::new("attested-placeholder", &[0u8; 32]);
        let (key, cert) = placeholder_ca
            .issue_identity("attested-placeholder", &[0u8; 32])
            .expect("placeholder identity");
        let mut builder = LibSealConfig::builder(cert, key);
        builder.config.attest = Some(AttestedIdentity {
            issuer,
            subject: subject.to_string(),
        });
        builder
    }
}

/// Fluent builder for [`LibSealConfig`] (see
/// [`LibSealConfig::builder`]).
pub struct LibSealConfigBuilder {
    config: LibSealConfig,
}

impl LibSealConfigBuilder {
    /// Audits traffic with the given service-specific module.
    pub fn ssm(mut self, ssm: Arc<dyn ServiceModule>) -> Self {
        self.config.ssm = Some(ssm);
        self
    }

    /// Selects the audit-log backing store.
    pub fn backing(mut self, backing: LogBacking) -> Self {
        self.config.backing = backing;
        self
    }

    /// Selects the rollback-protection guard.
    pub fn guard(mut self, guard: GuardConfig) -> Self {
        self.config.guard = guard;
        self
    }

    /// Automatic check/trim interval in request/response pairs
    /// (0 disables).
    pub fn check_interval(mut self, pairs: usize) -> Self {
        self.config.check_interval = pairs;
        self
    }

    /// SGX transition cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.config.cost_model = model;
        self
    }

    /// TCS slots in the enclave.
    pub fn tcs_count(mut self, count: u64) -> Self {
        self.config.tcs_count = count;
        self
    }

    /// Maximum bytes one session may buffer while waiting for a
    /// message boundary.
    pub fn max_message_buffer(mut self, bytes: usize) -> Self {
        self.config.max_message_buffer = bytes;
        self
    }

    /// Tunes the group-commit pipeline: `max_batch` bounds the commit
    /// queue (writers feel backpressure past it) and caps how many
    /// pairs one seal covers. The sealer seals as soon as it is free —
    /// the previous batch's counter round and fsync accumulate the
    /// next batch. `group_commit(1)` is §5.1 to the letter: one counter
    /// bind, one head signature and one fsync per pair, each response
    /// held until its own entry is durable.
    pub fn group_commit(mut self, max_batch: usize) -> Self {
        self.config.group_commit = max_batch;
        self
    }

    /// Requires client certificates (§6.3, impersonation defence).
    pub fn verify_clients(mut self, verify: bool) -> Self {
        self.config.verify_clients = verify;
        self
    }

    /// Trusted CA roots for client-certificate verification.
    pub fn ca_roots(mut self, roots: Vec<VerifyingKey>) -> Self {
        self.config.ca_roots = roots;
        self
    }

    /// Audit-plane shard count. `1` (the default) keeps the paper's
    /// single-enclave model; larger values shard the audit plane
    /// across that many enclaves behind one
    /// [`crate::plane::AuditPlane`], with a new session routed to
    /// shard `mix64(affinity) % n` and per-shard chains cross-linked
    /// into signed epoch checkpoints. The fleet keeps this size for
    /// life (a reopened disk-backed fleet takes its size from the
    /// manifest), and a plane session id encodes at most 1,024 shards:
    /// more is a [`crate::LibSealError::Config`] from `build_plane`.
    /// Only [`LibSealConfigBuilder::build_plane`] acts on this knob;
    /// [`crate::LibSeal::new`] always builds one enclave.
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards.max(1);
        self
    }

    /// Audited responses between fleet epoch checkpoints on a sharded
    /// plane (0 limits checkpoints to drains and explicit requests).
    pub fn epoch_interval(mut self, responses: u64) -> Self {
        self.config.epoch_interval = responses;
        self
    }

    /// Finalises the configuration.
    pub fn build(self) -> LibSealConfig {
        self.config
    }

    /// Finalises the configuration and provisions the audit plane it
    /// describes: a single [`crate::LibSeal`] enclave for `shards(1)`, a
    /// [`crate::fleet::ShardedPlane`] fleet otherwise. Services hold
    /// the returned [`crate::plane::AuditPlane`] and never learn
    /// which it is.
    ///
    /// # Errors
    ///
    /// [`crate::LibSealError::Config`] for `shards(n>1)` without an SSM
    /// (sharding partitions the audit log) or for `n` past 1,024, or
    /// any enclave provisioning failure.
    pub fn build_plane(self) -> Result<Arc<dyn crate::plane::AuditPlane>> {
        crate::plane::build_plane(self.config)
    }
}
