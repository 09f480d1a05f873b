//! The LibSEAL TLS termination shim (§3.1, §4).
//!
//! [`LibSeal`] is the drop-in replacement for a TLS library: services
//! hand it ciphertext from the wire ([`LibSeal::provide_input`]), read
//! decrypted requests ([`LibSeal::ssl_read`]), write responses
//! ([`LibSeal::ssl_write`]) and send the produced ciphertext back out
//! ([`LibSeal::take_output`]). The protocol state machine, session
//! keys and the audit log live inside a simulated SGX enclave; the
//! handle itself holds only *shadow* session structures with all
//! sensitive fields removed (§4.1, "Shadowing") and the application's
//! `ex_data`, which is deliberately kept outside to avoid ecalls
//! (§4.2, optimisation 3).
//!
//! When auditing is enabled, every complete request/response pair is
//! parsed by the configured service-specific module and appended to
//! the audit log before the response is encrypted; a `Libseal-Check`
//! request header triggers an invariant check whose outcome is
//! returned in-band as a `Libseal-Check-Result` response header
//! (§5.2).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::sha2::Sha256;
use libseal_httpx::http;
use libseal_lthread::{AsyncRuntime, RuntimeConfig};
use libseal_sgxsim::attest::{Quote, QuotingEnclave};
use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::{Enclave, EnclaveBuilder, EnclaveServices};
use libseal_sgxsim::seal::SealingPolicy;
use libseal_sgxsim::stats::StatsSnapshot;
use libseal_tlsx::cert::{Certificate, CertificateAuthority};
use libseal_tlsx::ssl::{HandshakeState, ReadOutcome, Role, Ssl, SslConfig};
use plat::sync::{Mutex, RwLock};

use crate::check::{CheckOutcome, Checker};
use crate::log::{
    AuditLog, CommitMode, HwCounterGuard, LogBacking, NoGuard, RollbackGuard, RoteGuard,
};
use crate::queue::{TicketQueue, Worker};
use crate::ssm::ServiceModule;
use crate::{LibSealError, Result};

/// Default for [`LibSealConfig::max_message_buffer`]: generous enough
/// for large Git pushes and file uploads, small enough to bound a
/// malicious never-ending stream (interface hardening, §6.3).
pub const MAX_MESSAGE_BUFFER: usize = 64 * 1024 * 1024;

/// Returns true when `buf` can still be the start of an HTTP message
/// (prefix-compatible with `HTTP/`-style responses). Used to detect
/// non-HTTP streams early so they pass through instead of stalling in
/// the audit buffer.
fn could_be_http_response(buf: &[u8]) -> bool {
    const P: &[u8] = b"HTTP/";
    let n = buf.len().min(P.len());
    buf[..n] == P[..n]
}

/// Rollback-protection choice.
#[derive(Clone)]
pub enum GuardConfig {
    /// No rollback protection (baselines).
    None,
    /// The slow SGX hardware counter.
    Hardware,
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
/// `Clone` exists so [`crate::plane::ShardedPlane`] can stamp out one
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
    /// Group-commit batch cap; `None` seals and fsyncs every audited
    /// pair individually.
    pub(crate) group_commit: Option<usize>,
    /// Whether due checks drain on the background verifier; `false`
    /// runs them inline on the request path.
    pub(crate) async_verify: bool,
    /// Audit-plane shard count; values above 1 make
    /// [`LibSealConfigBuilder::build_plane`] provision a
    /// [`crate::plane::ShardedPlane`] instead of a single enclave.
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
                group_commit: Some(64),
                async_verify: true,
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
    /// next batch.
    pub fn group_commit(mut self, max_batch: usize) -> Self {
        self.config.group_commit = Some(max_batch);
        self
    }

    /// Disables the group-commit pipeline: every audited pair binds
    /// the rollback counter, signs the head and fsyncs on its own.
    pub fn no_group_commit(mut self) -> Self {
        self.config.group_commit = None;
        self
    }

    /// Disables the background verifier: due checks run inline on the
    /// request path (deterministic; useful for tests and latency
    /// baselines).
    pub fn no_async_verify(mut self) -> Self {
        self.config.async_verify = false;
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
    /// [`crate::plane::AuditPlane`], with sessions routed by
    /// consistent hashing and per-shard chains cross-linked into
    /// signed epoch checkpoints. Only
    /// [`LibSealConfigBuilder::build_plane`] acts on this knob;
    /// [`LibSeal::new`] always builds one enclave.
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
    /// describes: a single [`LibSeal`] enclave for `shards(1)`, a
    /// [`crate::plane::ShardedPlane`] fleet otherwise. Services hold
    /// the returned [`crate::plane::AuditPlane`] and never learn
    /// which it is.
    ///
    /// # Errors
    ///
    /// [`LibSealError::Config`] on contradictory knobs (`shards(n>1)`
    /// with group commit disabled: a sharded plane exists to multiply
    /// sealer pipelines, so building one around per-pair sealing is
    /// certainly a mistake), or any enclave provisioning failure.
    pub fn build_plane(self) -> Result<Arc<dyn crate::plane::AuditPlane>> {
        crate::plane::build_plane(self.config)
    }
}

/// One in-enclave TLS session plus its audit buffers.
struct Session {
    ssl: Ssl,
    /// Decrypted request bytes not yet cut into messages.
    req_buf: Vec<u8>,
    /// Complete requests awaiting their response: (raw bytes,
    /// Libseal-Check requested?).
    pending: VecDeque<(Vec<u8>, bool)>,
    /// Plaintext response bytes not yet complete.
    rsp_buf: Vec<u8>,
}

/// The application's info callback (§4.1, "Secure callbacks"): lives
/// outside the enclave, reached through an ocall trampoline.
type InfoCallback = Arc<dyn Fn(i32, i32) + Send + Sync>;

/// Audit state bundle.
struct AuditState {
    log: AuditLog,
    ssm: Arc<dyn ServiceModule>,
    checker: Checker,
}

/// The trusted (in-enclave) state of a LibSEAL instance.
pub struct Trusted {
    /// Session TLS configuration. Write-locked exactly once, by the
    /// `install_cert` ecall that delivers the attested certificate
    /// minted for the in-enclave keypair; read on every new session.
    ssl_config: RwLock<Arc<SslConfig>>,
    max_message_buffer: usize,
    sessions: RwLock<HashMap<u64, Arc<Mutex<Session>>>>,
    next_sid: AtomicU64,
    audit: Option<Mutex<AuditState>>,
    /// Group-commit ticket queue shared with the sealer thread; `None`
    /// when auditing is off or group commit is disabled.
    commit: Option<Arc<TicketQueue>>,
    /// Due-check queue shared with the verifier thread; `None` when
    /// auditing is off or async verification is disabled.
    verify: Option<Arc<TicketQueue>>,
    /// Outside info callback, reached through an ocall trampoline.
    info_cb: RwLock<Option<InfoCallback>>,
}

impl Trusted {
    fn session(&self, sid: u64) -> Result<Arc<Mutex<Session>>> {
        self.sessions
            .read()
            .get(&sid)
            .cloned()
            .ok_or(LibSealError::NoSuchSession(sid))
    }
}

/// A LibSEAL instance: the untrusted-side handle.
pub struct LibSeal {
    enclave: Arc<Enclave<Trusted>>,
    runtime: Option<AsyncRuntime<Trusted>>,
    /// The sealer thread and its group-commit queue (shared with
    /// [`Trusted`]); shut down and joined on drop.
    sealer: Option<Worker>,
    /// The verifier thread and its due-check queue (shared with
    /// [`Trusted`]); shut down and joined on drop.
    verifier: Option<Worker>,
    /// Sanitised session shadows (no key material by construction).
    shadows: RwLock<HashMap<u64, ShadowSsl>>,
    /// Whether an SSM is configured (cached to avoid probing ecalls).
    audited: bool,
    cert: Certificate,
}

/// The outside shadow of an in-enclave session (§4.1): handshake
/// progress and application data only — session keys never appear
/// here.
#[derive(Clone, Debug, Default)]
pub struct ShadowSsl {
    /// Last observed handshake state.
    pub established: bool,
    /// Whether the session is closed.
    pub closed: bool,
    /// Application-specific data (kept outside to avoid ecalls, §4.2
    /// optimisation 3).
    pub ex_data: HashMap<u32, Vec<u8>>,
}

/// How enclave code reaches the outside world for the current call:
/// full synchronous ocalls, or cheap asynchronous slot handoffs
/// (§4.3). LibSEAL's internal BIO traffic (the reads/writes and small
/// allocations LibreSSL performs around every TLS record) is charged
/// through this, which is exactly where the async mechanism saves its
/// cost.
pub enum CallCtx<'p> {
    /// Synchronous ocalls: a full transition each.
    Sync(&'p EnclaveServices),
    /// Asynchronous ocalls through the caller's request slot.
    Async(&'p libseal_lthread::OcallPort<'p, Trusted>),
}

impl CallCtx<'_> {
    /// Performs one outside call under the current regime.
    pub fn ocall<R: Send + 'static>(&self, name: &'static str, f: impl FnOnce() -> R + Send) -> R {
        match self {
            CallCtx::Sync(sv) => sv.ocall(name, f),
            CallCtx::Async(port) => port.ocall(name, f),
        }
    }

    /// Charges `n` modelled BIO interactions (no payload; the data
    /// movement itself is handled by the caller).
    pub fn bio_traffic(&self, name: &'static str, n: usize) {
        for _ in 0..n {
            self.ocall(name, || ());
        }
    }
}

/// One session's pending wire input for [`LibSeal::pump_batch`].
#[derive(Debug)]
pub struct SessionInput {
    /// Session id.
    pub sid: u64,
    /// Ciphertext read from the socket since the last pump. May be
    /// empty to pump only handshake/output state.
    pub input: Vec<u8>,
}

/// Per-session result of [`LibSeal::pump_batch`]. Failures are
/// per-session (`error`), never the whole batch: one misbehaving peer
/// must not poison the other sessions sharing its transition.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Session id.
    pub sid: u64,
    /// Whether the handshake is complete after this pump.
    pub established: bool,
    /// Decrypted request plaintext drained this pump.
    pub data: Vec<u8>,
    /// Wire ciphertext that must be written to the socket.
    pub output: Vec<u8>,
    /// The peer sent close_notify; the session should be torn down.
    pub closed: bool,
    /// Fatal failure for this session only (TLS alert, audit-buffer
    /// overflow, unknown sid).
    pub error: Option<LibSealError>,
}

/// Cuts complete requests out of freshly decrypted bytes and queues
/// them for audit pairing (the read half of the pipeline). The caller
/// holds the session lock and has already charged EPC touches.
fn queue_audit_requests(max_message_buffer: usize, s: &mut Session, data: &[u8]) -> Result<()> {
    s.req_buf.extend_from_slice(data);
    loop {
        // Unlimited parser bounds: the serving edge already enforced
        // its HTTP limits before these bytes were admitted; the audit
        // pipeline's own memory bound is `max_message_buffer` below.
        match http::parse_request_limited(&s.req_buf, &http::Limits::unlimited()) {
            Ok((req, used)) => {
                let check = req.headers.get("Libseal-Check").is_some();
                let raw: Vec<u8> = s.req_buf.drain(..used).collect();
                s.pending.push_back((raw, check));
            }
            Err(libseal_httpx::ParseError::Incomplete) => break,
            Err(_) => {
                // Provably not HTTP: these bytes can never become a
                // message. Drop them so unauditable traffic does not
                // poison the session (the application already received
                // the plaintext).
                s.req_buf.clear();
                break;
            }
        }
    }
    // Interface hardening (§6.3): a peer streaming bytes that never
    // form a message must not grow enclave memory without bound.
    if s.req_buf.len() > max_message_buffer {
        return Err(LibSealError::Log(
            "request stream exceeds the audit buffer limit".into(),
        ));
    }
    Ok(())
}

/// The in-enclave body shared by [`LibSeal::ssl_write`] and
/// [`LibSeal::ssl_write_take`]: buffer the response, pair complete
/// messages with their requests, log, group-commit and encrypt.
fn write_session(
    t: &Trusted,
    sv: &EnclaveServices,
    ctx: &CallCtx<'_>,
    sid: u64,
    data: &[u8],
    audited: bool,
) -> Result<()> {
    // Record emission: scratch allocation plus BIO push per 16 KB
    // record (LibreSSL instrumentation, §4.2). All modelled
    // transitions are charged while no lock is held: an async ocall
    // suspends this lthread, and a suspended lock holder deadlocks
    // every other lthread on the same worker thread.
    ctx.bio_traffic("malloc", 1);
    ctx.bio_traffic("bio_write", 1 + data.len() / (16 * 1024));
    let mut log_flushes = 0usize;
    {
        let session = t.session(sid)?;
        let mut s = session.lock();
        if !audited {
            s.ssl.ssl_write(data).map_err(LibSealError::Tls)?;
            return Ok(());
        }
        s.rsp_buf.extend_from_slice(data);
        sv.epc_touch(data.len() as u64);
        if s.rsp_buf.len() > t.max_message_buffer {
            return Err(LibSealError::Log(
                "response stream exceeds the audit buffer limit".into(),
            ));
        }
        // A stream that provably is not HTTP (wrong first bytes) can
        // never be audited or header-injected; forward it verbatim
        // instead of stalling the client.
        if !could_be_http_response(&s.rsp_buf) {
            let raw: Vec<u8> = s.rsp_buf.drain(..).collect();
            s.ssl.ssl_write(&raw).map_err(LibSealError::Tls)?;
            return Ok(());
        }
        loop {
            let (mut response, used) =
                match http::parse_response_limited(&s.rsp_buf, &http::Limits::unlimited()) {
                Ok(r) => r,
                Err(libseal_httpx::ParseError::Incomplete) => break,
                Err(_) => {
                    // The service wrote something that can never parse
                    // as HTTP; forward it verbatim (unaudited) rather
                    // than stalling the client forever.
                    let raw: Vec<u8> = s.rsp_buf.drain(..).collect();
                    s.ssl.ssl_write(&raw).map_err(LibSealError::Tls)?;
                    break;
                }
            };
            let raw_rsp: Vec<u8> = s.rsp_buf.drain(..used).collect();
            let (raw_req, check_requested) = s.pending.pop_front().unwrap_or((Vec::new(), false));
            let audit = t.audit.as_ref().expect("audited instances have state");
            // Backpressure BEFORE taking the audit lock: blocking
            // inside it would stall the very sealer (or verifier) that
            // makes room in the queue. The reserved slots are what the
            // tickets below consume, so both bounds are hard.
            let commit_slot = t.commit.as_ref().map(|q| q.reserve());
            let verify_slot = t.verify.as_ref().map(|q| q.reserve());
            let mut astate = audit.lock();
            let AuditState { log, ssm, checker } = &mut *astate;
            let logged = ssm.log_pair(&raw_req, &raw_rsp, log)?;
            let ticket = match (commit_slot, logged > 0) {
                // Group commit: take a ticket while still holding the
                // audit lock, so ticket order matches log order; the
                // sealer makes the whole batch durable with one counter
                // bind, one signature and one fsync.
                (Some(slot), true) => Some(slot.issue()?),
                // One durable flush per request/response pair (§5.1);
                // charged as an ocall below, after the locks are
                // released.
                (None, true) => {
                    log.flush()?;
                    log_flushes += 1;
                    None
                }
                // Nothing logged: an unused reservation goes back.
                (_, false) => None,
            };
            if !checker.note_pair() {
                // No check due: the reservation goes back.
                drop(verify_slot);
            } else if verify_slot.is_none_or(|slot| slot.issue().is_err()) {
                // Background verification hands the due check to the
                // verifier thread and answers the client now (lag is
                // surfaced as the core_verifier_lag gauge); this is the
                // inline fallback (verifier disabled or shut down), the
                // pre-pool behaviour.
                let _ = checker.run_due(ssm.as_ref(), log)?;
            }
            let out_bytes = if check_requested {
                let outcome = checker.client_check(ssm.as_ref(), log)?;
                if outcome.is_some() {
                    // A synchronous check just covered the full
                    // current history; pending background batches are
                    // subsumed by it.
                    if let Some(vq) = &t.verify {
                        vq.absorb();
                    }
                }
                let value = match &outcome {
                    Some(o) => o.header_value(),
                    None => checker.last_outcome.header_value(),
                };
                response.headers.set("Libseal-Check-Result", value);
                response.to_bytes()
            } else {
                raw_rsp
            };
            drop(astate);
            // The commit barrier preserves response-before-durable:
            // the response is released only once the batch carrying
            // this pair is sealed and fsynced.
            if let (Some(q), Some(tk)) = (&t.commit, ticket) {
                q.wait(tk)?;
            }
            s.ssl.ssl_write(&out_bytes).map_err(LibSealError::Tls)?;
        }
    }
    // Persisting the log crosses the boundary: the journal write +
    // fsync happen outside the enclave (charged after all locks are
    // released).
    for _ in 0..log_flushes {
        ctx.ocall("log_flush", || ());
    }
    Ok(())
}

/// Pumps one session inside a `tls_batch` ecall: feed input, progress
/// the handshake, drain decrypted requests (queueing them for audit
/// pairing) and collect pending wire output. Never propagates — every
/// failure lands in the outcome's `error`.
fn pump_session(
    t: &Trusted,
    sv: &EnclaveServices,
    item: SessionInput,
    audited: bool,
) -> SessionOutcome {
    let mut outcome = SessionOutcome {
        sid: item.sid,
        established: false,
        data: Vec::new(),
        output: Vec::new(),
        closed: false,
        error: None,
    };
    let session = match t.session(item.sid) {
        Ok(s) => s,
        Err(e) => {
            outcome.error = Some(e);
            return outcome;
        }
    };
    let mut s = session.lock();
    if !item.input.is_empty() {
        s.ssl.provide_input(&item.input);
    }
    if s.ssl.is_established() {
        outcome.established = true;
    } else {
        match s.ssl.do_handshake() {
            Ok(done) => outcome.established = done,
            Err(e) => {
                // Collect the alert the state machine queued so the
                // peer learns why before the reactor tears down.
                outcome.error = Some(LibSealError::Tls(e));
                outcome.output = s.ssl.take_output();
                return outcome;
            }
        }
    }
    if outcome.established {
        loop {
            match s.ssl.ssl_read() {
                Ok(ReadOutcome::Data(d)) => {
                    if audited {
                        sv.epc_touch(d.len() as u64);
                        if let Err(e) = queue_audit_requests(t.max_message_buffer, &mut s, &d) {
                            outcome.error = Some(e);
                            break;
                        }
                    }
                    outcome.data.extend_from_slice(&d);
                }
                Ok(ReadOutcome::WantRead) => break,
                Ok(ReadOutcome::Closed) => {
                    outcome.closed = true;
                    break;
                }
                Err(e) => {
                    outcome.error = Some(LibSealError::Tls(e));
                    break;
                }
            }
        }
    }
    outcome.output = s.ssl.take_output();
    outcome
}

impl LibSeal {
    /// Builds a LibSEAL instance with synchronous enclave calls.
    ///
    /// # Errors
    ///
    /// Log initialisation failures.
    pub fn new(config: LibSealConfig) -> Result<Arc<LibSeal>> {
        Self::build(config, None)
    }

    /// Builds a LibSEAL instance served by the asynchronous enclave
    /// call runtime of §4.3.
    ///
    /// # Errors
    ///
    /// Log or runtime initialisation failures.
    pub fn with_async(config: LibSealConfig, rt: RuntimeConfig) -> Result<Arc<LibSeal>> {
        Self::build(config, Some(rt))
    }

    fn build(config: LibSealConfig, rt: Option<RuntimeConfig>) -> Result<Arc<LibSeal>> {
        let cert = config.cert.clone();
        let ssm_name = config
            .ssm
            .as_ref()
            .map(|s| s.name().to_string())
            .unwrap_or_else(|| "none".to_string());
        let identity = format!("libseal-v1 ssm={ssm_name}");
        let mut builder = EnclaveBuilder::new(identity.as_bytes())
            .cost_model(config.cost_model.clone())
            .tcs_count(config.tcs_count);
        for name in [
            "new_session",
            "provide_input",
            "take_output",
            "do_handshake",
            "ssl_read",
            "ssl_write",
            "close_session",
            "check_now",
            "trim_now",
            "verify_log",
            "log_stats",
            "seal_batch",
            "verify_batch",
            "tls_batch",
            // Declared unconditionally: the measurement covers the
            // interface list, so attested and plain builds of the same
            // SSM must not fork their MRENCLAVE over this ecall.
            "install_cert",
        ] {
            builder = builder.declare_interface(name);
        }

        // Each queue is shared three ways: the request path (issuing
        // tickets inside ssl_write ecalls), its worker thread, and the
        // outside handle for barriers and shutdown.
        let audited = config.ssm.is_some();
        let commit = config
            .group_commit
            .filter(|_| audited)
            .map(|max_batch| Arc::new(TicketQueue::sealer(max_batch)));
        let verify = (audited && config.async_verify).then(|| Arc::new(TicketQueue::verifier()));

        // Build failures inside the init closure are carried out, and
        // so is the public key of the keypair generated in-enclave for
        // an attested identity (the private half never leaves).
        let mut init_err: Option<LibSealError> = None;
        let mut minted_pubkey: Option<[u8; 32]> = None;
        let enclave = builder.build(|services| {
            let (tls_cert, tls_key) = match &config.attest {
                Some(_) => {
                    // RA-TLS phase one: generate the TLS keypair inside
                    // the enclave. The certificate arrives later via
                    // the `install_cert` ecall, once the issuer has
                    // quoted this enclave over the public key.
                    let mut seed = [0u8; 32];
                    services.fill_random(&mut seed);
                    let key = SigningKey::from_seed(&seed);
                    minted_pubkey = Some(*key.verifying_key().as_bytes());
                    (None, Some(key))
                }
                None => (Some(config.cert.clone()), Some(config.key.clone())),
            };
            let ssl_config = RwLock::new(Arc::new(SslConfig {
                role: Role::Server,
                cert: tls_cert,
                key: tls_key,
                ca_roots: config.ca_roots.clone(),
                verify_peer: config.verify_clients,
                expected_subject: None,
                attestation: None,
            }));
            let audit = match &config.ssm {
                None => None,
                Some(ssm) => {
                    let guard: Box<dyn RollbackGuard> = match &config.guard {
                        GuardConfig::None => Box::new(NoGuard),
                        GuardConfig::Hardware => Box::new(HwCounterGuard(
                            libseal_sgxsim::MonotonicCounter::hardware_realistic(),
                        )),
                        GuardConfig::Rote { f, latency } => {
                            match libseal_rote::Cluster::new(*f, *latency, b"libseal-log") {
                                Ok(c) => Box::new(RoteGuard(std::sync::Arc::new(c))),
                                Err(e) => {
                                    init_err = Some(LibSealError::Log(e.to_string()));
                                    Box::new(NoGuard)
                                }
                            }
                        }
                    };
                    let seal_key = services.seal_key(SealingPolicy::MrSigner);
                    let signer_seed = config.log_signer_seed.unwrap_or_else(|| {
                        // Derive a deterministic signer from the seal
                        // identity so restarts verify old logs.
                        Sha256::digest(&seal_key)
                    });
                    match AuditLog::open(
                        config.backing,
                        seal_key,
                        SigningKey::from_seed(&signer_seed),
                        guard,
                        ssm.schema_sql(),
                        ssm.tables(),
                    ) {
                        Ok(mut log) => {
                            if commit.is_some() {
                                // Appends stage into the chain; the
                                // sealer binds the counter and signs
                                // once per batch.
                                log.set_commit_mode(CommitMode::Staged);
                            }
                            // Register the delta-maintained views so
                            // checks cost O(rows touched since the
                            // last check) instead of O(log).
                            if let Err(e) = Checker::install(ssm.as_ref(), &mut log) {
                                init_err = Some(e);
                            }
                            services.epc_alloc(log.size_bytes() as u64 + 64 * 1024);
                            Some(Mutex::new(AuditState {
                                log,
                                ssm: Arc::clone(ssm),
                                // Automatic checks trim; a client may
                                // trigger 4 checks per interval (DoS
                                // limit, §6.3).
                                checker: Checker::new(config.check_interval, true, 4),
                            }))
                        }
                        Err(e) => {
                            init_err = Some(e);
                            None
                        }
                    }
                }
            };
            Trusted {
                ssl_config,
                max_message_buffer: config.max_message_buffer,
                sessions: RwLock::new(HashMap::new()),
                next_sid: AtomicU64::new(1),
                audit,
                commit: commit.clone(),
                verify: verify.clone(),
                info_cb: RwLock::new(None),
            }
        });
        if let Some(e) = init_err {
            return Err(e);
        }
        let enclave = Arc::new(enclave);
        // RA-TLS phase two: quote the built enclave over the public
        // key it generated, mint the attested certificate outside, and
        // install it next to the in-enclave private key.
        let cert = match (&config.attest, minted_pubkey) {
            (Some(att), Some(pubkey)) => {
                let minted = att.issuer.mint(&att.subject, &pubkey, enclave.services())?;
                let installed = minted.clone();
                enclave
                    .ecall("install_cert", move |t: &Trusted, _| {
                        let mut cfg = t.ssl_config.write();
                        let mut fresh = (**cfg).clone();
                        fresh.cert = Some(installed);
                        *cfg = Arc::new(fresh);
                    })
                    .map_err(|e| LibSealError::Log(e.to_string()))?;
                minted
            }
            _ => cert,
        };
        // The dedicated sealer: one enclave transition per batch makes
        // the whole batch durable — one counter bind, one head
        // signature and one fsync.
        let sealer = commit.map(|q| {
            let enclave = Arc::clone(&enclave);
            Worker::spawn("libseal-sealer", q, move || {
                enclave
                    .ecall("seal_batch", |t: &Trusted, sv| -> Result<()> {
                        let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
                        if crate::log::seal_staged(audit, |a| &mut a.log)? {
                            // The journal write + fsync cross the
                            // enclave boundary; charged after the lock
                            // is released.
                            sv.ocall("log_flush", || ());
                        }
                        Ok(())
                    })
                    .map_err(|e| LibSealError::Log(e.to_string()))?
            })
        });
        // The dedicated verifier: drains due checks off the request
        // path with one enclave transition per coalesced batch; the
        // incremental views keep each drain short.
        let verifier = verify.map(|q| {
            let enclave = Arc::clone(&enclave);
            Worker::spawn("libseal-verifier", q, move || {
                enclave
                    .ecall("verify_batch", |t: &Trusted, _| -> Result<()> {
                        let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
                        let mut astate = audit.lock();
                        let AuditState { log, ssm, checker } = &mut *astate;
                        checker.run_due(ssm.as_ref(), log)?.count_alarm();
                        Ok(())
                    })
                    .map_err(|e| LibSealError::Log(e.to_string()))?
            })
        });
        let runtime = match rt {
            Some(cfg) => Some(
                AsyncRuntime::start(Arc::clone(&enclave), cfg)
                    .map_err(|e| LibSealError::Log(e.to_string()))?,
            ),
            None => None,
        };
        Ok(Arc::new(LibSeal {
            enclave,
            runtime,
            sealer,
            verifier,
            shadows: RwLock::new(HashMap::new()),
            cert,
            audited,
        }))
    }

    fn call<R: Send + 'static>(
        &self,
        slot: usize,
        name: &'static str,
        f: impl for<'p> FnOnce(&Trusted, &EnclaveServices, &CallCtx<'p>) -> R + Send,
    ) -> Result<R> {
        // The span stays open across the enclave round trip, so the
        // transition cycles the call charges on this thread are
        // attributed to it (async handoffs dispatch on runtime worker
        // threads and attribute there instead).
        let _span = libseal_telemetry::global().span(name, libseal_telemetry::Side::Enclave);
        match &self.runtime {
            Some(rt) => {
                Ok(rt.async_ecall(slot, move |t, sv, port| f(t, sv, &CallCtx::Async(port))))
            }
            None => self
                .enclave
                .ecall(name, move |t, sv| f(t, sv, &CallCtx::Sync(sv)))
                .map_err(|e| LibSealError::Log(e.to_string())),
        }
    }

    /// Opens a new TLS session, returning its id.
    ///
    /// # Errors
    ///
    /// Enclave entry failures.
    pub fn new_session(&self, slot: usize) -> Result<u64> {
        let sid = self.call(slot, "new_session", |t, sv, _ctx| {
            let mut entropy = [0u8; 64];
            sv.fill_random(&mut entropy);
            let mut ssl = Ssl::new(Arc::clone(&t.ssl_config.read()), entropy);
            // Install the secure-callback trampoline: the outside
            // callback is reached only through an accounted ocall
            // (§4.1, "Secure callbacks").
            let cb_slot = t.info_cb.read().clone();
            if let Some(outside_cb) = cb_slot {
                let stats = sv.stats_arc();
                let model = sv.model().clone();
                ssl.set_info_callback(Arc::new(move |code, arg| {
                    let threads = 1;
                    let cycles = model.transition_cycles(threads);
                    model.charge_cycles(cycles);
                    stats.record_ocall("info_callback", cycles);
                    outside_cb(code, arg);
                }));
            }
            let sid = t.next_sid.fetch_add(1, Ordering::Relaxed);
            sv.epc_alloc(8 * 1024);
            t.sessions.write().insert(
                sid,
                Arc::new(Mutex::new(Session {
                    ssl,
                    req_buf: Vec::new(),
                    pending: VecDeque::new(),
                    rsp_buf: Vec::new(),
                })),
            );
            sid
        })?;
        self.shadows.write().insert(sid, ShadowSsl::default());
        Ok(sid)
    }

    /// Registers the application's info callback (invoked outside the
    /// enclave through an ocall trampoline).
    ///
    /// # Errors
    ///
    /// Enclave entry failures.
    pub fn set_info_callback(
        &self,
        slot: usize,
        cb: Arc<dyn Fn(i32, i32) + Send + Sync>,
    ) -> Result<()> {
        self.call(slot, "new_session", move |t, _, _ctx| {
            *t.info_cb.write() = Some(cb);
        })
    }

    /// Feeds wire ciphertext into a session.
    ///
    /// # Errors
    ///
    /// Unknown session or enclave failures.
    pub fn provide_input(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        // Stage a copy outside (the paper's BIO buffers).
        let data = data.to_vec();
        self.call(slot, "provide_input", move |t, sv, ctx| -> Result<()> {
            sv.interface_check(data.len() <= 1 << 24, "oversized input chunk")
                .map_err(|e| LibSealError::Log(e.to_string()))?;
            // The enclave pulls the ciphertext from the outside BIO and
            // stages it in a small buffer (LibreSSL: BIO_read + malloc).
            // Charged BEFORE taking any lock: an async ocall suspends
            // this lthread, and suspending while holding a lock would
            // deadlock the worker thread.
            ctx.bio_traffic("bio_read", 1 + data.len() / (16 * 1024));
            let session = t.session(sid)?;
            let mut s = session.lock();
            s.ssl.provide_input(&data);
            Ok(())
        })?
    }

    /// Takes wire ciphertext that must be sent to the peer.
    ///
    /// # Errors
    ///
    /// Unknown session or enclave failures.
    pub fn take_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        self.call(slot, "take_output", move |t, _, ctx| -> Result<Vec<u8>> {
            let session = t.session(sid)?;
            let out = {
                let mut s = session.lock();
                s.ssl.take_output()
            };
            // Push records to the outside BIO (LibreSSL: BIO_write);
            // charged after the lock is released (lock-across-ocall
            // would deadlock the lthread scheduler).
            if !out.is_empty() {
                ctx.bio_traffic("bio_write", 1 + out.len() / (16 * 1024));
            }
            Ok(out)
        })?
    }

    /// Progresses the handshake; `true` once established.
    ///
    /// # Errors
    ///
    /// Handshake failures (fatal for the session).
    pub fn do_handshake(&self, slot: usize, sid: u64) -> Result<bool> {
        let done = self.call(slot, "do_handshake", move |t, _, ctx| -> Result<bool> {
            // Handshake processing walks BIOs and allocates buffers for
            // each flight (LibreSSL: several BIO/malloc round trips).
            // Charged before locking (no ocalls under locks).
            ctx.bio_traffic("bio_handshake", 2);
            let session = t.session(sid)?;
            let mut s = session.lock();
            s.ssl.do_handshake().map_err(LibSealError::Tls)
        })??;
        if done {
            if let Some(shadow) = self.shadows.write().get_mut(&sid) {
                shadow.established = true;
            }
        }
        Ok(done)
    }

    /// Reads decrypted application data (requests). Complete requests
    /// are also queued for audit pairing.
    ///
    /// # Errors
    ///
    /// TLS failures; unknown session.
    pub fn ssl_read(&self, slot: usize, sid: u64) -> Result<ReadOutcome> {
        let audited = self.is_audited();
        let out = self.call(slot, "ssl_read", move |t, sv, ctx| -> Result<ReadOutcome> {
            // Record processing: BIO pull plus a scratch allocation per
            // call (LibreSSL instrumentation, §4.2). Charged before
            // locking (no ocalls under locks).
            ctx.bio_traffic("bio_read", 1);
            ctx.bio_traffic("malloc", 1);
            let session = t.session(sid)?;
            let mut s = session.lock();
            let outcome = s.ssl.ssl_read().map_err(LibSealError::Tls)?;
            if audited {
                if let ReadOutcome::Data(data) = &outcome {
                    sv.epc_touch(data.len() as u64);
                    // Cut complete requests out of the stream.
                    queue_audit_requests(t.max_message_buffer, &mut s, data)?;
                }
            }
            Ok(outcome)
        })??;
        if matches!(out, ReadOutcome::Closed) {
            if let Some(shadow) = self.shadows.write().get_mut(&sid) {
                shadow.closed = true;
            }
        }
        Ok(out)
    }

    /// Writes response plaintext. With auditing enabled the response
    /// is buffered until complete, logged against its request, and the
    /// `Libseal-Check-Result` header is injected when requested.
    ///
    /// # Errors
    ///
    /// TLS or audit failures.
    pub fn ssl_write(&self, slot: usize, sid: u64, data: &[u8]) -> Result<()> {
        let audited = self.is_audited();
        let data = data.to_vec();
        self.call(slot, "ssl_write", move |t, sv, ctx| {
            write_session(t, sv, ctx, sid, &data, audited)
        })?
    }

    /// Writes response plaintext and returns the resulting wire
    /// ciphertext in the *same* transition — the event-driven serve
    /// loop's replacement for an `ssl_write` + `take_output` pair
    /// (§4.2 optimisation 1: fewer crossings per response).
    ///
    /// # Errors
    ///
    /// TLS or audit failures.
    pub fn ssl_write_take(&self, slot: usize, sid: u64, data: &[u8]) -> Result<Vec<u8>> {
        let audited = self.is_audited();
        let data = data.to_vec();
        self.call(slot, "ssl_write", move |t, sv, ctx| -> Result<Vec<u8>> {
            write_session(t, sv, ctx, sid, &data, audited)?;
            let session = t.session(sid)?;
            let out = {
                let mut s = session.lock();
                s.ssl.take_output()
            };
            // Push records to the outside BIO (LibreSSL: BIO_write);
            // charged after the lock is released (lock-across-ocall
            // would deadlock the lthread scheduler).
            if !out.is_empty() {
                ctx.bio_traffic("bio_write", 1 + out.len() / (16 * 1024));
            }
            Ok(out)
        })?
    }

    /// Pumps many sessions through **one** enclave transition: for
    /// each entry, feed its wire input, progress the handshake, drain
    /// decrypted requests (queueing complete ones for audit pairing)
    /// and collect pending wire output. The event-driven serve loops
    /// call this once per readiness sweep, so the transition cost is
    /// amortised across every ready session (the same §4.3 motivation
    /// as `seal_batch`/`verify_batch`).
    ///
    /// Failures are per-session: a TLS alert or audit overflow lands
    /// in that entry's [`SessionOutcome::error`] while the rest of the
    /// batch proceeds.
    ///
    /// # Errors
    ///
    /// Enclave entry failures only.
    pub fn pump_batch(&self, slot: usize, items: Vec<SessionInput>) -> Result<Vec<SessionOutcome>> {
        let audited = self.is_audited();
        let count = items.len() as u64;
        let _span = libseal_telemetry::global().span("tls_batch", libseal_telemetry::Side::Enclave);
        let run =
            move |t: &Trusted, sv: &EnclaveServices, ctx: &CallCtx<'_>| -> Vec<SessionOutcome> {
                // Stage the whole batch's ciphertext through the outside
                // BIO up front — one pull for the sweep, charged before
                // any lock (no ocalls under locks).
                let in_bytes: usize = items.iter().map(|i| i.input.len()).sum();
                ctx.bio_traffic("bio_read", 1 + in_bytes / (16 * 1024));
                let outcomes: Vec<SessionOutcome> = items
                    .into_iter()
                    .map(|item| pump_session(t, sv, item, audited))
                    .collect();
                // One aggregate push for everything the sweep produced.
                let out_bytes: usize = outcomes.iter().map(|o| o.output.len()).sum();
                if out_bytes > 0 {
                    ctx.bio_traffic("bio_write", 1 + out_bytes / (16 * 1024));
                }
                outcomes
            };
        let outcomes = match &self.runtime {
            // Async runtime: the handoff mechanism already amortises
            // transition cost; dispatch on a runtime worker like every
            // other call.
            Some(rt) => rt.async_ecall(slot, move |t, sv, port| run(t, sv, &CallCtx::Async(port))),
            // Sync path: a single batched ecall priced as one
            // transition carrying `count` work items.
            None => self
                .enclave
                .ecall_batch("tls_batch", count, move |t, sv| {
                    run(t, sv, &CallCtx::Sync(sv))
                })
                .map_err(|e| LibSealError::Log(e.to_string()))?,
        };
        // Shadow updates happen outside the enclave, as everywhere
        // else (§4.1: the outside handle tracks progress, never keys).
        {
            let mut shadows = self.shadows.write();
            for o in &outcomes {
                if let Some(shadow) = shadows.get_mut(&o.sid) {
                    if o.established {
                        shadow.established = true;
                    }
                    if o.closed {
                        shadow.closed = true;
                    }
                }
            }
        }
        Ok(outcomes)
    }

    /// Closes a session (sends close_notify) and frees its state.
    ///
    /// # Errors
    ///
    /// Enclave entry failures.
    pub fn close_session(&self, slot: usize, sid: u64) -> Result<()> {
        self.call(slot, "close_session", move |t, sv, _ctx| {
            if let Some(session) = t.sessions.write().remove(&sid) {
                session.lock().ssl.send_close();
                sv.epc_free(8 * 1024);
            }
        })?;
        self.shadows.write().remove(&sid);
        Ok(())
    }

    /// Final output of a closing session (the close_notify record).
    ///
    /// # Errors
    ///
    /// Enclave entry failures (unknown sessions yield empty output).
    pub fn take_close_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        self.take_output(slot, sid).or(Ok(Vec::new()))
    }

    /// Runs all invariants now (the log analyser entry point, step 6
    /// of Fig. 1).
    ///
    /// # Errors
    ///
    /// Query failures; [`LibSealError::AuditingDisabled`] without an
    /// SSM.
    pub fn check_now(&self, slot: usize) -> Result<CheckOutcome> {
        self.call(
            slot,
            "check_now",
            move |t, _, _ctx| -> Result<CheckOutcome> {
                let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
                let mut astate = audit.lock();
                let AuditState { log, ssm, checker } = &mut *astate;
                let outcome = Checker::run_checks(ssm.as_ref(), log)?;
                checker.last_outcome = outcome.clone();
                drop(astate);
                // The full scan just covered everything; pending
                // background batches are subsumed by its outcome.
                if let Some(vq) = &t.verify {
                    vq.absorb();
                }
                Ok(outcome)
            },
        )?
    }

    /// Trims the log now.
    ///
    /// # Errors
    ///
    /// As [`LibSeal::check_now`].
    pub fn trim_now(&self, slot: usize) -> Result<()> {
        self.call(slot, "trim_now", move |t, _, _ctx| -> Result<()> {
            let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
            let mut astate = audit.lock();
            let AuditState { log, ssm, .. } = &mut *astate;
            log.trim(ssm.trim_queries())
        })?
    }

    /// Verifies the audit log's integrity (hash chain + signature +
    /// data consistency).
    ///
    /// # Errors
    ///
    /// [`LibSealError::Tampered`] describing the inconsistency.
    pub fn verify_log(&self, slot: usize) -> Result<()> {
        // Drain the verifier first: a consistent verification verdict
        // must cover every check already due (lag == 0). The barrier
        // runs outside any ecall — the verifier itself needs the
        // enclave to drain.
        self.verifier_barrier()?;
        self.call(slot, "verify_log", move |t, _, _ctx| -> Result<()> {
            let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
            let mut astate = audit.lock();
            // Catch the signed head up with anything still staged
            // (in-flight group-commit entries or direct appends), so
            // verification always sees a consistent head. No-op when
            // the log is clean.
            astate.log.seal()?;
            astate.log.verify()
        })?
    }

    /// Graceful drain: parks until every in-flight group-commit
    /// ticket has resolved, seals anything still staged to durable,
    /// and drains the background verifier. Unlike `Drop`, the
    /// instance stays fully usable afterwards — services call this
    /// after they stop accepting traffic, before tearing the enclave
    /// down, so no audited response ever outlives its durable log
    /// entry.
    ///
    /// # Errors
    ///
    /// Seal or background-verification failures; the log state itself
    /// is still consistent (staged entries remain in the chain).
    pub fn drain(&self, slot: usize) -> Result<()> {
        if let Some(sealer) = &self.sealer {
            // A failed batch was reported to its writers, and the seal
            // below covers its entries.
            let _ = sealer.queue().quiesce();
        }
        if self.audited {
            self.call(slot, "verify_log", move |t, _, _ctx| -> Result<()> {
                let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
                let mut astate = audit.lock();
                astate.log.seal()?;
                astate.log.flush()
            })??;
        }
        self.verifier_barrier()
    }

    /// Pending audit work: unresolved group-commit tickets plus due
    /// checks the background verifier has not drained. Services use
    /// this as the backpressure signal to pause accepting new
    /// connections while the audit plane is saturated.
    pub fn audit_backlog(&self) -> u64 {
        self.sealer.as_ref().map_or(0, |w| w.queue().depth()) + self.verifier_lag()
    }

    /// Log statistics: (entries, in-memory bytes, journal bytes).
    ///
    /// # Errors
    ///
    /// [`LibSealError::AuditingDisabled`] without an SSM.
    pub fn log_stats(&self, slot: usize) -> Result<(u64, usize, u64)> {
        self.call(
            slot,
            "log_stats",
            move |t, _, _ctx| -> Result<(u64, usize, u64)> {
                let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
                let astate = audit.lock();
                Ok((
                    astate.log.entries(),
                    astate.log.size_bytes(),
                    astate.log.journal_size_bytes(),
                ))
            },
        )?
    }

    /// Runs `f` against the audit log (tests and tooling; queries the
    /// same enclave-held database the checker uses).
    ///
    /// # Errors
    ///
    /// Propagates `f`'s failures and enclave entry failures.
    pub fn with_log<R: Send + 'static>(
        &self,
        slot: usize,
        f: impl FnOnce(&mut AuditLog) -> R + Send,
    ) -> Result<R> {
        self.call(slot, "check_now", move |t, _, _ctx| -> Result<R> {
            let audit = t.audit.as_ref().ok_or(LibSealError::AuditingDisabled)?;
            let mut astate = audit.lock();
            Ok(f(&mut astate.log))
        })?
    }

    /// Whether auditing is configured.
    pub fn is_audited(&self) -> bool {
        self.audited
    }

    /// Due checks the background verifier has not drained yet (0 when
    /// async verification is disabled).
    pub fn verifier_lag(&self) -> u64 {
        self.verifier.as_ref().map_or(0, |w| w.queue().depth())
    }

    /// Blocks until the background verifier has drained every due
    /// check (lag reaches zero). No-op when async verification is
    /// disabled.
    ///
    /// # Errors
    ///
    /// A background evaluation failure since the last barrier.
    pub fn verifier_barrier(&self) -> Result<()> {
        match &self.verifier {
            Some(w) => w.queue().quiesce(),
            None => Ok(()),
        }
    }

    /// The outside shadow of a session (no key material, §4.1).
    pub fn shadow(&self, sid: u64) -> Option<ShadowSsl> {
        self.shadows.read().get(&sid).cloned()
    }

    /// Stores application data on the shadow, outside the enclave
    /// (§4.2 optimisation 3: no transition).
    pub fn set_ex_data(&self, sid: u64, key: u32, value: Vec<u8>) {
        if let Some(shadow) = self.shadows.write().get_mut(&sid) {
            shadow.ex_data.insert(key, value);
        }
    }

    /// Reads application data from the shadow (no transition).
    pub fn get_ex_data(&self, sid: u64, key: u32) -> Option<Vec<u8>> {
        self.shadows
            .read()
            .get(&sid)
            .and_then(|s| s.ex_data.get(&key).cloned())
    }

    /// Number of asynchronous call slots, or `None` when calls are
    /// dispatched synchronously (no runtime configured). Concurrent
    /// callers must hold distinct slots.
    pub fn async_slots(&self) -> Option<usize> {
        self.runtime.as_ref().map(AsyncRuntime::slot_count)
    }

    /// Transition statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.enclave.services().stats().snapshot()
    }

    /// Resets transition statistics (between benchmark phases).
    pub fn reset_stats(&self) {
        self.enclave.services().stats().reset();
    }

    /// The process-wide telemetry registry every layer reports into
    /// (counters, gauges, latency histograms and recent span traces).
    pub fn telemetry(&self) -> &'static libseal_telemetry::Registry {
        libseal_telemetry::global()
    }

    /// The instance's TLS certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// The enclave measurement.
    pub fn measurement(&self) -> [u8; 32] {
        *self.enclave.measurement()
    }

    /// Produces an attestation quote binding this enclave to its TLS
    /// certificate (report data = SHA-256 of the certificate public
    /// key), the §6.3 defence against log bypass.
    pub fn quote(&self, qe: &QuotingEnclave) -> Quote {
        let mut report = [0u8; 64];
        report[..32].copy_from_slice(&Sha256::digest(&self.cert.pubkey));
        qe.quote(self.enclave.services(), &report)
    }

    /// The underlying enclave (benchmarks and tests).
    pub fn enclave(&self) -> &Arc<Enclave<Trusted>> {
        &self.enclave
    }
}

impl Drop for LibSeal {
    fn drop(&mut self) {
        // Drain the commit pipeline first: the sealer needs the
        // enclave (and the async runtime's TCS slots stay claimed
        // until it shuts down, so order matters).
        drop(self.sealer.take());
        // Then the verifier: it drains every due check (the shutdown
        // barrier — no pair escapes verification), then exits.
        drop(self.verifier.take());
        if self.audited {
            // Final seal + flush so entries staged outside the
            // pipeline (direct `with_log` appends) reach a signed,
            // durable head before the process lets go of the log.
            let _ = self.enclave.ecall("seal_batch", |t: &Trusted, _| {
                if let Some(audit) = t.audit.as_ref() {
                    let mut astate = audit.lock();
                    let _ = astate.log.seal();
                    let _ = astate.log.flush();
                }
            });
        }
        if let Some(rt) = self.runtime.take() {
            rt.shutdown();
        }
    }
}

/// Convenience: the states a shadow can report (re-exported for
/// applications that match on them).
pub use libseal_tlsx::ssl::HandshakeState as SessionState;

#[allow(unused)]
fn _assert_traits() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<LibSeal>();
    is_send_sync::<Trusted>();
    let _ = HandshakeState::Established;
}
