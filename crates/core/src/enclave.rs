//! The trusted side of a LibSEAL instance: everything in this file
//! runs inside the simulated SGX enclave (§4).
//!
//! [`Trusted`] is the enclave's state — the TLS configuration with the
//! private key, the live `Session`s with their key schedules and
//! audit buffers, the audit log and checker behind one lock, and the
//! two ticket queues shared with the sealer and verifier threads.
//! Outside code reaches it only through an [`Ecall`]: the table below
//! is the enclave's whole interface (the EDL file of a real SGX build),
//! it is hashed into MRENCLAVE, and it is the one place an interface
//! name is spelled. The body of every entry point is a function here
//! — the session bodies that cut, pair, log and encrypt traffic
//! (`read_session`, `write_session`, `pump_sessions`, …), the log
//! bodies (`check_now`, `verify_log`, `commit_log`, …), the worker
//! bodies (`seal_batch`, `verify_batch`) and the construction of the
//! state itself (`Trusted::init`) — and the state's fields are private
//! to this file: the closure `session.rs` or `plane.rs` hands to
//! `LibSeal::call` only names one of these functions (the fused
//! write + take names two).
//!
//! A body receives the state and a [`CallCtx`]: the enclave's services
//! and the way to the outside for the current call. One rule
//! holds for every body here: no outside call while a lock is held —
//! an asynchronous ocall suspends the calling lthread, and a suspended
//! lock holder deadlocks every other lthread on its worker thread.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};

use libseal_crypto::ed25519::SigningKey;
use libseal_crypto::sha2::Sha256;
use libseal_httpx::http;
use libseal_lthread::OcallPort;
use libseal_sgxsim::enclave::EnclaveServices;
use libseal_sgxsim::seal::SealingPolicy;
use libseal_tlsx::cert::Certificate;
use libseal_tlsx::ssl::{ReadOutcome, Role, Ssl, SslConfig};
use plat::sync::{Mutex, RwLock};

use crate::check::{CheckOutcome, Checker};
use crate::config::{GuardConfig, LibSealConfig};
use crate::log::{AuditLog, RollbackGuard, RoteGuard};
use crate::queue::TicketQueue;
use crate::ssm::ServiceModule;
use crate::{LibSealError, Result};

/// Declares [`Ecall`], its wire names and [`Ecall::ALL`] from one
/// table, so a name cannot be declared without an entry point or used
/// without being declared.
macro_rules! ecalls {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// The enclave interface: every way outside code may enter
        /// [`Trusted`]. The set of names is part of the enclave
        /// measurement, so adding, removing or renaming an entry
        /// changes MRENCLAVE and invalidates every pinned attestation
        /// policy.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Ecall {
            $($(#[$doc])* $variant,)*
        }

        impl Ecall {
            /// Every entry point, in declaration order.
            pub const ALL: &'static [Ecall] = &[$(Ecall::$variant,)*];

            /// The name the entry point is measured and accounted
            /// under.
            pub fn name(self) -> &'static str {
                match self {
                    $(Ecall::$variant => $name,)*
                }
            }
        }
    };
}

ecalls! {
    /// Opens a session; also the entry that installs the info callback
    /// new sessions are born with.
    NewSession => "new_session",
    /// Feeds wire ciphertext into a session.
    ProvideInput => "provide_input",
    /// Takes the wire ciphertext a session produced.
    TakeOutput => "take_output",
    /// Progresses a session's handshake.
    DoHandshake => "do_handshake",
    /// Reads decrypted request plaintext.
    SslRead => "ssl_read",
    /// Writes (and audits) response plaintext; the fused write + take
    /// enters here too.
    SslWrite => "ssl_write",
    /// Closes a session and frees its state.
    CloseSession => "close_session",
    /// Runs every invariant now; tooling access to the log
    /// ([`crate::LibSeal::with_log`]) enters here too.
    CheckNow => "check_now",
    /// Trims the log now.
    TrimNow => "trim_now",
    /// Commits what is staged, then verifies the log (for a drain, only
    /// commits it).
    VerifyLog => "verify_log",
    /// Reads the log's size counters.
    LogStats => "log_stats",
    /// The sealer thread's entry: one counter bind, head signature and
    /// fsync for everything staged. The final commit on drop enters
    /// here too.
    SealBatch => "seal_batch",
    /// The verifier thread's entry: one incremental check covering
    /// every due check queued so far.
    VerifyBatch => "verify_batch",
    /// Pumps many sessions in one transition.
    TlsBatch => "tls_batch",
    /// Delivers the attested certificate minted for the in-enclave
    /// keypair. Declared for plain builds too: the measurement covers
    /// the interface list, so attested and plain builds of the same
    /// SSM must not fork their MRENCLAVE over this entry.
    InstallCert => "install_cert",
}

/// Returns true when `buf` can still be the start of an HTTP message
/// (prefix-compatible with `HTTP/`-style responses). Used to detect
/// non-HTTP streams early so they pass through instead of stalling in
/// the audit buffer.
fn could_be_http_response(buf: &[u8]) -> bool {
    const P: &[u8] = b"HTTP/";
    let n = buf.len().min(P.len());
    buf[..n] == P[..n]
}

/// One in-enclave TLS session plus its audit buffers.
struct Session {
    ssl: Ssl,
    /// Decrypted request bytes not yet cut into messages.
    req_buf: Vec<u8>,
    /// Complete requests awaiting their response: (raw bytes,
    /// Libseal-Check requested?).
    pending: VecDeque<(Vec<u8>, bool)>,
    /// Raw bytes held in `pending`.
    pending_bytes: usize,
    /// Plaintext response bytes not yet complete.
    rsp_buf: Vec<u8>,
}

/// The application's info callback (§4.1, "Secure callbacks"): lives
/// outside the enclave, reached through an ocall trampoline.
pub type InfoCallback = Arc<dyn Fn(i32, i32) + Send + Sync>;

/// Audit state bundle.
struct AuditState {
    log: AuditLog,
    ssm: Arc<dyn ServiceModule>,
    checker: Checker,
}

/// The two ticket queues of an audited instance. Each is shared three
/// ways: the request path (issuing tickets inside `ssl_write` ecalls),
/// its worker thread, and the outside handle for barriers and shutdown.
#[derive(Clone)]
pub(crate) struct AuditQueues {
    /// Group-commit tickets; the sealer thread resolves them.
    pub(crate) commit: Arc<TicketQueue>,
    /// Due checks; the verifier thread drains them.
    pub(crate) verify: Arc<TicketQueue>,
}

/// What an instance with an SSM has and one without lacks.
struct Audited {
    state: Mutex<AuditState>,
    queues: AuditQueues,
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
    /// `None` when auditing is off.
    audit: Option<Audited>,
    /// Outside info callback, reached through an ocall trampoline.
    info_cb: RwLock<Option<InfoCallback>>,
}

impl Trusted {
    /// Builds the trusted state inside the freshly measured enclave.
    /// The second value is how it went: the public half of the TLS
    /// keypair generated here for an attested identity (the private
    /// half never leaves), or the failure that left auditing unopened.
    /// `queues` is `Some` exactly when `config` names an SSM.
    pub(crate) fn init(
        config: &LibSealConfig,
        sv: &EnclaveServices,
        queues: Option<AuditQueues>,
    ) -> (Trusted, Result<Option<[u8; 32]>>) {
        let (tls_cert, tls_key, minted) = match &config.attest {
            Some(_) => {
                // RA-TLS phase one: generate the TLS keypair inside
                // the enclave. The certificate arrives later via
                // the `install_cert` ecall, once the issuer has
                // quoted this enclave over the public key.
                let mut seed = [0u8; 32];
                sv.fill_random(&mut seed);
                let key = SigningKey::from_seed(&seed);
                let pubkey = *key.verifying_key().as_bytes();
                (None, key, Some(pubkey))
            }
            None => (Some(config.cert.clone()), config.key.clone(), None),
        };
        let open = |(ssm, queues)| {
            let state = Mutex::new(open_audit(config, ssm, sv)?);
            Ok(Audited { state, queues })
        };
        let (audit, outcome) = match config.ssm.as_ref().zip(queues).map(open) {
            None => (None, Ok(minted)),
            Some(Ok(audited)) => (Some(audited), Ok(minted)),
            Some(Err(e)) => (None, Err(e)),
        };
        let trusted = Trusted {
            ssl_config: RwLock::new(Arc::new(SslConfig {
                role: Role::Server,
                cert: tls_cert,
                key: Some(tls_key),
                ca_roots: config.ca_roots.clone(),
                verify_peer: config.verify_clients,
                expected_subject: None,
                attestation: None,
            })),
            max_message_buffer: config.max_message_buffer,
            sessions: RwLock::new(HashMap::new()),
            next_sid: AtomicU64::new(1),
            audit,
            info_cb: RwLock::new(None),
        };
        (trusted, outcome)
    }

    fn session(&self, sid: u64) -> Result<Arc<Mutex<Session>>> {
        self.sessions
            .read()
            .get(&sid)
            .cloned()
            .ok_or(LibSealError::NoSuchSession(sid))
    }

    /// The audit half — the one place that answers an audit operation
    /// on an instance without an SSM.
    fn audited(&self) -> Result<&Audited> {
        self.audit.as_ref().ok_or(LibSealError::AuditingDisabled)
    }

    /// The audit state, locked.
    fn audit(&self) -> Result<MutexGuard<'_, AuditState>> {
        Ok(self.audited()?.state.lock())
    }

    /// Creates a session and returns its id.
    pub(crate) fn open_session(&self, sv: &EnclaveServices) -> u64 {
        let mut entropy = [0u8; 64];
        sv.fill_random(&mut entropy);
        let mut ssl = Ssl::new(Arc::clone(&self.ssl_config.read()), entropy);
        // Install the secure-callback trampoline: the outside
        // callback is reached only through an accounted ocall
        // (§4.1, "Secure callbacks").
        let cb_slot = self.info_cb.read().clone();
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
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        sv.epc_alloc(8 * 1024);
        self.sessions.write().insert(
            sid,
            Arc::new(Mutex::new(Session {
                ssl,
                req_buf: Vec::new(),
                pending: VecDeque::new(),
                pending_bytes: 0,
                rsp_buf: Vec::new(),
            })),
        );
        sid
    }
}

/// Opens the audit log `config` describes and installs `ssm`'s views
/// on it.
fn open_audit(
    config: &LibSealConfig,
    ssm: &Arc<dyn ServiceModule>,
    sv: &EnclaveServices,
) -> Result<AuditState> {
    let GuardConfig::Rote { f, latency } = &config.guard;
    let guard: Box<dyn RollbackGuard> = Box::new(RoteGuard(Arc::new(
        libseal_rote::Cluster::new(*f, *latency, b"libseal-log")
            .map_err(|e| LibSealError::Log(e.to_string()))?,
    )));
    let seal_key = sv.seal_key(SealingPolicy::MrSigner);
    let signer_seed = config.log_signer_seed.unwrap_or_else(|| {
        // Derive a deterministic signer from the seal
        // identity so restarts verify old logs.
        Sha256::digest(&seal_key)
    });
    let mut log = AuditLog::open(
        config.backing.clone(),
        seal_key,
        SigningKey::from_seed(&signer_seed),
        guard,
        ssm.schema_sql(),
        ssm.tables(),
    )?;
    // Register the delta-maintained views so checks cost O(rows
    // touched since the last check) instead of O(log).
    Checker::install(ssm.as_ref(), &mut log)?;
    sv.epc_alloc(log.size_bytes() as u64 + 64 * 1024);
    Ok(AuditState {
        log,
        ssm: Arc::clone(ssm),
        checker: Checker::new(config.check_interval),
    })
}

/// What an in-enclave body is handed besides the state: the enclave's
/// services, and how to reach the outside world for the current call —
/// full synchronous ocalls, or cheap asynchronous slot handoffs
/// (§4.3). LibSEAL's internal BIO traffic (the reads/writes and small
/// allocations LibreSSL performs around every TLS record) is charged
/// through this, which is exactly where the async mechanism saves its
/// cost.
pub enum CallCtx<'p> {
    /// Synchronous ocalls: a full transition each.
    Sync(&'p EnclaveServices),
    /// Asynchronous ocalls through the caller's request slot.
    Async(&'p EnclaveServices, &'p OcallPort<'p, Trusted>),
}

impl CallCtx<'_> {
    /// The enclave's services: randomness, EPC accounting, interface
    /// checks.
    pub fn sv(&self) -> &EnclaveServices {
        match self {
            CallCtx::Sync(sv) | CallCtx::Async(sv, _) => sv,
        }
    }

    /// Performs one outside call under the current regime.
    pub fn ocall<R: Send + 'static>(&self, name: &'static str, f: impl FnOnce() -> R + Send) -> R {
        match self {
            CallCtx::Sync(sv) => sv.ocall(name, f),
            CallCtx::Async(_, port) => port.ocall(name, f),
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

/// One session's pending wire input for [`crate::LibSeal::pump_batch`].
#[derive(Debug)]
pub struct SessionInput {
    /// Session id.
    pub sid: u64,
    /// Ciphertext read from the socket since the last pump. May be
    /// empty to pump only handshake/output state.
    pub input: Vec<u8>,
}

/// Per-session result of [`crate::LibSeal::pump_batch`]. Failures are
/// per-session (`error`), never the whole batch: one misbehaving peer
/// must not poison the other sessions sharing its transition.
#[derive(Debug, Default)]
pub struct SessionOutcome {
    /// Session id.
    pub sid: u64,
    /// Whether the handshake is complete after this pump.
    pub established: bool,
    /// Decrypted request plaintext drained this pump.
    pub data: Vec<u8>,
    /// Wire ciphertext that must be written to the socket.
    pub output: Vec<u8>,
    /// The session should be torn down: the peer sent close_notify, or
    /// the session could not be pumped at all (`error` says why).
    pub closed: bool,
    /// Fatal failure for this session only (TLS alert, audit-buffer
    /// overflow, unknown sid, its shard unreachable).
    pub error: Option<LibSealError>,
}

impl SessionOutcome {
    /// The outcome of one [`Ssl::pump`] of session `sid`.
    pub fn pumped(sid: u64, p: libseal_tlsx::ssl::Pumped) -> SessionOutcome {
        SessionOutcome {
            sid,
            established: p.established,
            data: p.data,
            output: p.output,
            closed: p.closed,
            error: p.error.map(LibSealError::Tls),
        }
    }

    /// The outcome of a session that could not be pumped at all (an
    /// unknown or stale sid, its shard unreachable) and must be torn
    /// down.
    pub fn failed(sid: u64, error: LibSealError) -> SessionOutcome {
        SessionOutcome {
            sid,
            closed: true,
            error: Some(error),
            ..SessionOutcome::default()
        }
    }
}

/// With auditing on, cuts complete requests out of freshly decrypted
/// bytes and queues them for audit pairing (the read half of the
/// pipeline). The caller holds the session lock.
fn queue_audit_requests(
    t: &Trusted,
    ctx: &CallCtx<'_>,
    s: &mut Session,
    data: &[u8],
) -> Result<()> {
    if t.audit.is_none() || data.is_empty() {
        return Ok(());
    }
    ctx.sv().epc_touch(data.len() as u64);
    s.req_buf.extend_from_slice(data);
    let mut used = 0;
    loop {
        // Unlimited parser bounds: the serving edge already enforced
        // its HTTP limits before these bytes were admitted; the audit
        // pipeline's own memory bound is `max_message_buffer` below.
        let rest = &s.req_buf[used..];
        let (len, check) = match http::frame_request(rest, &http::Limits::unlimited()) {
            Ok(frame) => (frame.len, frame.header("Libseal-Check").is_some()),
            Err(libseal_httpx::ParseError::Incomplete) => break,
            Err(_) => {
                // Provably not HTTP: these bytes can never become a
                // message. Drop them so unauditable traffic does not
                // poison the session (the application already received
                // the plaintext).
                used = s.req_buf.len();
                break;
            }
        };
        // The buffer is the message's one retained copy: a message
        // that is all of it is taken whole.
        let raw = if len == s.req_buf.len() {
            std::mem::take(&mut s.req_buf)
        } else {
            used += len;
            rest[..len].to_vec()
        };
        s.pending_bytes += raw.len();
        s.pending.push_back((raw, check));
    }
    s.req_buf.drain(..used);
    // Interface hardening (§6.3): a peer must not grow enclave memory
    // without bound — neither by streaming bytes that never form a
    // message nor by pipelining complete requests whose responses it
    // never reads (a queued request is released only when its response
    // is written).
    if s.req_buf.len() + s.pending_bytes > t.max_message_buffer {
        return Err(LibSealError::Log(
            "request stream exceeds the audit buffer limit".into(),
        ));
    }
    Ok(())
}

/// The `install_cert` body: swaps in the configuration that carries
/// the attested certificate minted for the in-enclave keypair.
pub(crate) fn install_cert(t: &Trusted, cert: Certificate) {
    let mut cfg = t.ssl_config.write();
    let mut fresh = (**cfg).clone();
    fresh.cert = Some(cert);
    *cfg = Arc::new(fresh);
}

/// Registers the outside info callback new sessions are born with.
pub(crate) fn set_info_callback(t: &Trusted, cb: InfoCallback) {
    *t.info_cb.write() = Some(cb);
}

/// The `provide_input` body: stages wire ciphertext in a session.
pub(crate) fn provide_input(t: &Trusted, ctx: &CallCtx<'_>, sid: u64, data: &[u8]) -> Result<()> {
    ctx.sv()
        .interface_check(data.len() <= 1 << 24, "oversized input chunk")?;
    // The enclave pulls the ciphertext from the outside BIO and
    // stages it in a small buffer (LibreSSL: BIO_read + malloc).
    // Charged BEFORE taking any lock: an async ocall suspends
    // this lthread, and suspending while holding a lock would
    // deadlock the worker thread.
    ctx.bio_traffic("bio_read", 1 + data.len() / (16 * 1024));
    t.session(sid)?.lock().ssl.provide_input(data);
    Ok(())
}

/// The `do_handshake` body; `true` once established.
pub(crate) fn do_handshake(t: &Trusted, ctx: &CallCtx<'_>, sid: u64) -> Result<bool> {
    // Handshake processing walks BIOs and allocates buffers for
    // each flight (LibreSSL: several BIO/malloc round trips).
    // Charged before locking (no ocalls under locks).
    ctx.bio_traffic("bio_handshake", 2);
    let session = t.session(sid)?;
    let mut s = session.lock();
    s.ssl.do_handshake().map_err(LibSealError::Tls)
}

/// The `close_session` body: queues close_notify and frees the
/// session's state.
pub(crate) fn close_session(t: &Trusted, ctx: &CallCtx<'_>, sid: u64) {
    if let Some(session) = t.sessions.write().remove(&sid) {
        session.lock().ssl.send_close();
        ctx.sv().epc_free(8 * 1024);
    }
}

/// The `ssl_read` body: decrypt what has arrived and, with auditing
/// on, queue the complete requests in it for pairing.
pub(crate) fn read_session(t: &Trusted, ctx: &CallCtx<'_>, sid: u64) -> Result<ReadOutcome> {
    // Record processing: BIO pull plus a scratch allocation per
    // call (LibreSSL instrumentation, §4.2). Charged before
    // locking (no ocalls under locks).
    ctx.bio_traffic("bio_read", 1);
    ctx.bio_traffic("malloc", 1);
    let session = t.session(sid)?;
    let mut s = session.lock();
    let outcome = s.ssl.ssl_read().map_err(LibSealError::Tls)?;
    if let ReadOutcome::Data(data) = &outcome {
        queue_audit_requests(t, ctx, &mut s, data)?;
    }
    Ok(outcome)
}

/// The in-enclave body shared by `ssl_write` and `ssl_write_take`:
/// buffer the response, pair complete messages with their requests,
/// log, group-commit and encrypt.
pub(crate) fn write_session(t: &Trusted, ctx: &CallCtx<'_>, sid: u64, data: &[u8]) -> Result<()> {
    // Record emission: scratch allocation plus BIO push per 16 KB
    // record (LibreSSL instrumentation, §4.2). All modelled
    // transitions are charged while no lock is held: an async ocall
    // suspends this lthread, and a suspended lock holder deadlocks
    // every other lthread on the same worker thread.
    ctx.bio_traffic("malloc", 1);
    ctx.bio_traffic("bio_write", 1 + data.len() / (16 * 1024));
    let session = t.session(sid)?;
    let mut s = session.lock();
    let Some(audited) = &t.audit else {
        s.ssl.ssl_write(data).map_err(LibSealError::Tls)?;
        return Ok(());
    };
    ctx.sv().epc_touch(data.len() as u64);
    if s.rsp_buf.len() + data.len() > t.max_message_buffer {
        // Kept, so the stream stays refused rather than resuming with
        // a hole in it.
        s.rsp_buf.extend_from_slice(data);
        return Err(LibSealError::Log(
            "response stream exceeds the audit buffer limit".into(),
        ));
    }
    // Frame responses where they lie: in the ecall's staged copy, or
    // in `rsp_buf` when an earlier write left a message incomplete.
    // Only an incomplete tail is ever copied into `rsp_buf`; a failed
    // write keeps nothing (the session is torn down).
    let mut held = std::mem::take(&mut s.rsp_buf);
    if held.is_empty() {
        let used = write_responses(audited, &mut s, data)?;
        held.extend_from_slice(&data[used..]);
    } else {
        held.extend_from_slice(data);
        let used = write_responses(audited, &mut s, &held)?;
        held.drain(..used);
    }
    s.rsp_buf = held;
    Ok(())
}

/// Pairs each complete response at the front of `buf` with its request,
/// logs the pair, group-commits and encrypts it straight from `buf`;
/// returns how many bytes were written. The caller holds the session
/// lock.
fn write_responses(audited: &Audited, s: &mut Session, buf: &[u8]) -> Result<usize> {
    let Audited { state, queues } = audited;
    // A stream that provably is not HTTP (wrong first bytes) can
    // never be audited or header-injected; forward it verbatim
    // instead of stalling the client.
    if !could_be_http_response(buf) {
        s.ssl.ssl_write(buf).map_err(LibSealError::Tls)?;
        return Ok(buf.len());
    }
    let mut used = 0;
    loop {
        let rest = &buf[used..];
        let raw_rsp = match http::frame_response(rest, &http::Limits::unlimited()) {
            Ok(frame) => &rest[..frame.len],
            Err(libseal_httpx::ParseError::Incomplete) => return Ok(used),
            Err(_) => {
                // The service wrote something that can never parse
                // as HTTP; forward it verbatim (unaudited) rather
                // than stalling the client forever.
                s.ssl.ssl_write(rest).map_err(LibSealError::Tls)?;
                return Ok(buf.len());
            }
        };
        used += raw_rsp.len();
        let (raw_req, check_requested) = s.pending.pop_front().unwrap_or((Vec::new(), false));
        s.pending_bytes -= raw_req.len();
        // Backpressure BEFORE taking the audit lock: blocking inside it
        // would stall the very sealer (or verifier) that makes room in
        // the queue. The reserved slots are what the tickets below
        // consume, so both bounds are hard.
        let commit_slot = queues.commit.reserve();
        let verify_slot = queues.verify.reserve();
        let mut astate = state.lock();
        let AuditState { log, ssm, checker } = &mut *astate;
        // Staged, then sealed: the pair's entries are staged here, and
        // the ticket — taken while still holding the audit lock, so
        // ticket order matches log order — is the sealer's order to
        // make them durable, with one counter bind, one signature and
        // one fsync for the whole batch. Nothing logged: the unused
        // reservation goes back.
        let logged = ssm.log_pair(&raw_req, raw_rsp, log)?;
        let ticket = (logged > 0).then(|| commit_slot.issue()).transpose()?;
        if !checker.note_pair() {
            // No check due: the reservation goes back.
            drop(verify_slot);
        } else if verify_slot.issue().is_err() {
            // The due check goes to the verifier thread and the client
            // is answered now (lag is surfaced as the core_verifier_lag
            // gauge). A verifier that takes no ticket (shut down) must
            // not cost the check: it runs here instead.
            let _ = checker.run_due(ssm.as_ref(), log)?;
        }
        let checked = if check_requested {
            let outcome = checker.client_check(ssm.as_ref(), log)?;
            if outcome.is_some() {
                // A synchronous check just covered the full current
                // history; pending background batches are subsumed by
                // it.
                queues.verify.absorb();
            }
            let value = match &outcome {
                Some(o) => o.header_value(),
                None => checker.last_outcome.header_value(),
            };
            // The one response rebuilt rather than sealed where it
            // lies: the verdict goes into its head.
            let (mut response, _) =
                http::parse_response_limited(raw_rsp, &http::Limits::unlimited())
                    .map_err(|e| LibSealError::Log(e.to_string()))?;
            response.headers.set("Libseal-Check-Result", value);
            Some(response.to_bytes())
        } else {
            None
        };
        drop(astate);
        // The commit barrier preserves response-before-durable: the
        // response is released only once the batch carrying this pair
        // is sealed and fsynced.
        if let Some(ticket) = ticket {
            queues.commit.wait(ticket)?;
        }
        let out = checked.as_deref().unwrap_or(raw_rsp);
        s.ssl.ssl_write(out).map_err(LibSealError::Tls)?;
    }
}

/// Takes the wire ciphertext a session produced and pushes it to the
/// outside BIO (LibreSSL: BIO_write) — the tail of `take_output` and
/// of the fused write + take.
pub(crate) fn take_session_output(t: &Trusted, ctx: &CallCtx<'_>, sid: u64) -> Result<Vec<u8>> {
    let out = t.session(sid)?.lock().ssl.take_output();
    // Charged after the lock is released (lock-across-ocall would
    // deadlock the lthread scheduler).
    if !out.is_empty() {
        ctx.bio_traffic("bio_write", 1 + out.len() / (16 * 1024));
    }
    Ok(out)
}

/// Pumps one session inside a `tls_batch` ecall: [`Ssl::pump`], then
/// the decrypted requests are queued for audit pairing. Never
/// propagates — every failure lands in the outcome's `error`.
fn pump_session(t: &Trusted, ctx: &CallCtx<'_>, item: SessionInput) -> SessionOutcome {
    let session = match t.session(item.sid) {
        Ok(s) => s,
        Err(e) => return SessionOutcome::failed(item.sid, e),
    };
    let mut s = session.lock();
    let mut outcome = SessionOutcome::pumped(item.sid, s.ssl.pump(&item.input));
    if let Err(e) = queue_audit_requests(t, ctx, &mut s, &outcome.data) {
        // What the audit pipeline refused is not released to the
        // application either.
        outcome.data.clear();
        outcome.error = Some(e);
    }
    outcome
}

/// The `tls_batch` body: pumps every session of a readiness sweep,
/// answering item for item, in order.
pub(crate) fn pump_sessions(
    t: &Trusted,
    ctx: &CallCtx<'_>,
    items: Vec<SessionInput>,
) -> Vec<SessionOutcome> {
    // Stage the whole batch's ciphertext through the outside
    // BIO up front — one pull for the sweep, charged before
    // any lock (no ocalls under locks).
    let in_bytes: usize = items.iter().map(|i| i.input.len()).sum();
    ctx.bio_traffic("bio_read", 1 + in_bytes / (16 * 1024));
    let outcomes: Vec<SessionOutcome> = items
        .into_iter()
        .map(|item| pump_session(t, ctx, item))
        .collect();
    // One aggregate push for everything the sweep produced.
    let out_bytes: usize = outcomes.iter().map(|o| o.output.len()).sum();
    if out_bytes > 0 {
        ctx.bio_traffic("bio_write", 1 + out_bytes / (16 * 1024));
    }
    outcomes
}

/// The `check_now` body: a full scan of every invariant (the log
/// analyser entry point, step 6 of Fig. 1).
pub(crate) fn check_now(t: &Trusted) -> Result<CheckOutcome> {
    let Audited { state, queues } = t.audited()?;
    let mut astate = state.lock();
    let AuditState { log, ssm, checker } = &mut *astate;
    let outcome = Checker::run_checks(ssm.as_ref(), log)?;
    checker.last_outcome = outcome.clone();
    drop(astate);
    // The full scan just covered everything; pending
    // background batches are subsumed by its outcome.
    queues.verify.absorb();
    Ok(outcome)
}

/// Runs `f` on the audit state holding the log's bind gate
/// ([`crate::log::with_bind_gate`]): what everything that can bind the
/// counter under the audit lock goes through, so it waits for a commit
/// in flight instead of binding a second value beside it.
fn with_audit_bound<R>(t: &Trusted, f: impl FnOnce(&mut AuditState) -> R) -> Result<R> {
    let state = &t.audited()?.state;
    Ok(crate::log::with_bind_gate(state, |a| &mut a.log, f))
}

/// The `trim_now` body: the trim and the commit that makes it durable.
pub(crate) fn trim_log(t: &Trusted) -> Result<()> {
    with_audit_bound(t, |a| {
        a.log.trim(a.ssm.trim_queries())?;
        a.log.commit()
    })?
}

/// The `verify_log` body.
pub(crate) fn verify_log(t: &Trusted) -> Result<()> {
    with_audit_bound(t, |a| {
        // Catch the signed head up with anything still staged
        // (in-flight group-commit entries, direct appends, a trim), so
        // verification always sees a consistent head. No-op when the
        // log is clean.
        a.log.commit()?;
        a.log.verify()
    })?
}

/// The body of a drain, and of a dropped instance's final commit:
/// makes anything still staged durable.
pub(crate) fn commit_log(t: &Trusted) -> Result<()> {
    with_audit_bound(t, |a| a.log.commit())?
}

/// The `log_stats` body: (entries, in-memory bytes, journal bytes).
pub(crate) fn log_stats(t: &Trusted) -> Result<(u64, usize, u64)> {
    let log = &t.audit()?.log;
    Ok((log.entries(), log.size_bytes(), log.journal_size_bytes()))
}

/// Runs `f` against the audit log (tests and tooling), holding the
/// bind gate: a commit in `f` waits for the sealer's instead of
/// yielding to it.
pub(crate) fn with_log<R>(t: &Trusted, f: impl FnOnce(&mut AuditLog) -> R) -> Result<R> {
    with_audit_bound(t, |a| f(&mut a.log))
}

/// The sealer's body: one enclave transition per batch makes the
/// whole batch durable — one counter bind, one head signature and one
/// fsync.
pub(crate) fn seal_batch(t: &Trusted, sv: &EnclaveServices) -> Result<()> {
    if crate::log::seal_staged(&t.audited()?.state, |a| &mut a.log)? {
        // The journal write + fsync cross the enclave boundary;
        // charged after the lock is released.
        sv.ocall("log_flush", || ());
    }
    Ok(())
}

/// The verifier's body: drains due checks off the request path with
/// one enclave transition per coalesced batch; the incremental views
/// keep each drain short. A due check usually trims, and a trim only
/// stages (the sealer's next commit makes it durable), so this binds
/// nothing and needs the audit lock alone.
pub(crate) fn verify_batch(t: &Trusted, _sv: &EnclaveServices) -> Result<()> {
    let mut astate = t.audit()?;
    let AuditState { log, ssm, checker } = &mut *astate;
    checker.run_due(ssm.as_ref(), log)?.count_alarm();
    Ok(())
}
