//! The LibSEAL TLS termination shim (§3.1, §4): the untrusted-side
//! handle.
//!
//! [`LibSeal`] is the drop-in replacement for a TLS library: services
//! hand it ciphertext from the wire ([`LibSeal::provide_input`]), read
//! decrypted requests, write responses and send the produced
//! ciphertext back out ([`LibSeal::take_output`]). The protocol state
//! machine, session keys and the audit log live inside a simulated SGX
//! enclave ([`crate::enclave`]); the handle itself holds only *shadow*
//! session structures with all sensitive fields removed (§4.1,
//! "Shadowing") and the application's `ex_data`, which is deliberately
//! kept outside to avoid ecalls (§4.2, optimisation 3).
//!
//! When auditing is enabled, every complete request/response pair is
//! parsed by the configured service-specific module and appended to
//! the audit log before the response is encrypted; a `Libseal-Check`
//! request header triggers an invariant check whose outcome is
//! returned in-band as a `Libseal-Check-Result` response header
//! (§5.2).
//!
//! The session operations services program against are the
//! [`crate::plane::AuditPlane`] trait. Its entry points that the
//! benchmark pins by name are inherent methods here and the trait
//! forwards to them; the rest (`ssl_read`, `ssl_write`,
//! `audit_backlog`, `async_slots`) exist only as trait methods.

use std::collections::HashMap;
use std::sync::Arc;

use libseal_crypto::sha2::Sha256;
use libseal_lthread::{AsyncRuntime, RuntimeConfig};
use libseal_sgxsim::attest::{Quote, QuotingEnclave};
use libseal_sgxsim::enclave::{Enclave, EnclaveBuilder, EnclaveServices};
use libseal_sgxsim::stats::StatsSnapshot;
use libseal_tlsx::cert::Certificate;
use plat::sync::RwLock;

use crate::check::CheckOutcome;
use crate::config::LibSealConfig;
use crate::enclave::{
    self, seal_batch, verify_batch, AuditQueues, CallCtx, Ecall, InfoCallback, SessionInput,
    SessionOutcome, Trusted,
};
use crate::log::AuditLog;
use crate::queue::{TicketQueue, Worker};
use crate::Result;

/// A LibSEAL instance: the untrusted-side handle.
pub struct LibSeal {
    enclave: Arc<Enclave<Trusted>>,
    pub(crate) runtime: Option<AsyncRuntime<Trusted>>,
    /// The background half of auditing; `None` without an SSM.
    pub(crate) audit: Option<AuditWorkers>,
    /// Sanitised session shadows (no key material by construction).
    shadows: RwLock<HashMap<u64, ShadowSsl>>,
    cert: Certificate,
}

/// The two background threads of an audited instance, each with the
/// queue it shares with [`Trusted`]; shut down and joined on drop.
pub(crate) struct AuditWorkers {
    /// Seals group-commit batches.
    pub(crate) sealer: Worker,
    /// Drains due checks.
    pub(crate) verifier: Worker,
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
        let ssm_name = config.ssm.as_ref().map_or("none", |s| s.name());
        let identity = format!("libseal-v1 ssm={ssm_name}");
        let mut builder = EnclaveBuilder::new(identity.as_bytes())
            .cost_model(config.cost_model.clone())
            .tcs_count(config.tcs_count);
        for entry in Ecall::ALL {
            builder = builder.declare_interface(entry.name());
        }

        let queues = config.ssm.is_some().then(|| AuditQueues {
            commit: Arc::new(TicketQueue::sealer(config.group_commit)),
            verify: Arc::new(TicketQueue::verifier()),
        });

        // What the init closure found is carried out of it: a build
        // failure, or the public key of the keypair generated
        // in-enclave for an attested identity.
        let mut init = Ok(None);
        let enclave = Arc::new(builder.build(|services| {
            let (trusted, outcome) = Trusted::init(&config, services, queues.clone());
            init = outcome;
            trusted
        }));
        // RA-TLS phase two: quote the built enclave over the public
        // key it generated, mint the attested certificate outside, and
        // install it next to the in-enclave private key.
        let cert = match (&config.attest, init?) {
            (Some(att), Some(pubkey)) => {
                let minted = att.issuer.mint(&att.subject, &pubkey, enclave.services())?;
                let installed = minted.clone();
                enclave.ecall(Ecall::InstallCert.name(), move |t: &Trusted, _| {
                    enclave::install_cert(t, installed)
                })?;
                minted
            }
            _ => config.cert.clone(),
        };
        // The two background threads: each call of a worker's closure
        // is one ecall that resolves every ticket issued so far.
        type Body = fn(&Trusted, &EnclaveServices) -> Result<()>;
        let worker = |thread: &str, queue: Arc<TicketQueue>, entry: Ecall, body: Body| {
            let enclave = Arc::clone(&enclave);
            Worker::spawn(thread, queue, move || enclave.ecall(entry.name(), body)?)
        };
        let audit = queues.map(|q| AuditWorkers {
            sealer: worker("libseal-sealer", q.commit, Ecall::SealBatch, seal_batch),
            verifier: worker(
                "libseal-verifier",
                q.verify,
                Ecall::VerifyBatch,
                verify_batch,
            ),
        });
        let runtime = rt
            .map(|cfg| AsyncRuntime::start(Arc::clone(&enclave), cfg))
            .transpose()?;
        Ok(Arc::new(LibSeal {
            enclave,
            runtime,
            audit,
            shadows: RwLock::new(HashMap::new()),
            cert,
        }))
    }

    /// Enters the enclave through `entry` and runs `f` there.
    pub(crate) fn call<R: Send + 'static>(
        &self,
        slot: usize,
        entry: Ecall,
        f: impl for<'p> FnOnce(&Trusted, &CallCtx<'p>) -> R + Send,
    ) -> Result<R> {
        // The span stays open across the enclave round trip, so the
        // transition cycles the call charges on this thread are
        // attributed to it (async handoffs dispatch on runtime worker
        // threads and attribute there instead).
        let _span =
            libseal_telemetry::global().span(entry.name(), libseal_telemetry::Side::Enclave);
        match &self.runtime {
            Some(rt) => {
                Ok(rt.async_ecall(slot, move |t, sv, port| f(t, &CallCtx::Async(sv, port))))
            }
            None => Ok(self
                .enclave
                .ecall(entry.name(), move |t, sv| f(t, &CallCtx::Sync(sv)))?),
        }
    }

    /// Records handshake and close progress on a session's shadow.
    /// Shadow updates happen outside the enclave (§4.1: the outside
    /// handle tracks progress, never keys).
    pub(crate) fn note_progress(&self, progress: impl IntoIterator<Item = (u64, bool, bool)>) {
        let mut shadows = self.shadows.write();
        for (sid, established, closed) in progress {
            if let Some(shadow) = shadows.get_mut(&sid) {
                shadow.established |= established;
                shadow.closed |= closed;
            }
        }
    }

    /// Opens a new TLS session, returning its id.
    ///
    /// # Errors
    ///
    /// Enclave entry failures.
    pub fn new_session(&self, slot: usize) -> Result<u64> {
        let sid = self.call(slot, Ecall::NewSession, |t, ctx| t.open_session(ctx.sv()))?;
        self.shadows.write().insert(sid, ShadowSsl::default());
        Ok(sid)
    }

    /// Registers the application's info callback (invoked outside the
    /// enclave through an ocall trampoline).
    ///
    /// # Errors
    ///
    /// Enclave entry failures.
    pub fn set_info_callback(&self, slot: usize, cb: InfoCallback) -> Result<()> {
        self.call(slot, Ecall::NewSession, move |t, _| {
            enclave::set_info_callback(t, cb)
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
        self.call(slot, Ecall::ProvideInput, move |t, ctx| {
            enclave::provide_input(t, ctx, sid, &data)
        })?
    }

    /// Takes wire ciphertext that must be sent to the peer.
    ///
    /// # Errors
    ///
    /// Unknown session or enclave failures.
    pub fn take_output(&self, slot: usize, sid: u64) -> Result<Vec<u8>> {
        self.call(slot, Ecall::TakeOutput, move |t, ctx| {
            enclave::take_session_output(t, ctx, sid)
        })?
    }

    /// Progresses the handshake; `true` once established.
    ///
    /// # Errors
    ///
    /// Handshake failures (fatal for the session).
    pub fn do_handshake(&self, slot: usize, sid: u64) -> Result<bool> {
        let done = self.call(slot, Ecall::DoHandshake, move |t, ctx| {
            enclave::do_handshake(t, ctx, sid)
        })??;
        if done {
            self.note_progress([(sid, true, false)]);
        }
        Ok(done)
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
        let data = data.to_vec();
        self.call(slot, Ecall::SslWrite, move |t, ctx| {
            enclave::write_session(t, ctx, sid, &data)?;
            enclave::take_session_output(t, ctx, sid)
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
        let count = items.len() as u64;
        let entry = Ecall::TlsBatch.name();
        let _span = libseal_telemetry::global().span(entry, libseal_telemetry::Side::Enclave);
        let outcomes = match &self.runtime {
            // Async runtime: the handoff mechanism already amortises
            // transition cost; dispatch on a runtime worker like every
            // other call.
            Some(rt) => rt.async_ecall(slot, move |t, sv, port| {
                enclave::pump_sessions(t, &CallCtx::Async(sv, port), items)
            }),
            // Sync path: a single batched ecall priced as one
            // transition carrying `count` work items.
            None => self.enclave.ecall_batch(entry, count, move |t, sv| {
                enclave::pump_sessions(t, &CallCtx::Sync(sv), items)
            })?,
        };
        self.note_progress(outcomes.iter().map(|o| (o.sid, o.established, o.closed)));
        Ok(outcomes)
    }

    /// Closes a session (sends close_notify) and frees its state.
    ///
    /// # Errors
    ///
    /// Enclave entry failures.
    pub fn close_session(&self, slot: usize, sid: u64) -> Result<()> {
        self.call(slot, Ecall::CloseSession, move |t, ctx| {
            enclave::close_session(t, ctx, sid)
        })?;
        self.shadows.write().remove(&sid);
        Ok(())
    }

    /// Runs all invariants now (the log analyser entry point, step 6
    /// of Fig. 1).
    ///
    /// # Errors
    ///
    /// Query failures; [`crate::LibSealError::AuditingDisabled`] without an
    /// SSM.
    pub fn check_now(&self, slot: usize) -> Result<CheckOutcome> {
        self.call(slot, Ecall::CheckNow, |t, _| enclave::check_now(t))?
    }

    /// Trims the log now.
    ///
    /// # Errors
    ///
    /// As [`LibSeal::check_now`].
    pub fn trim_now(&self, slot: usize) -> Result<()> {
        self.call(slot, Ecall::TrimNow, |t, _| enclave::trim_log(t))?
    }

    /// Verifies the audit log's integrity (hash chain + signature +
    /// data consistency).
    ///
    /// # Errors
    ///
    /// [`crate::LibSealError::Tampered`] describing the inconsistency.
    pub fn verify_log(&self, slot: usize) -> Result<()> {
        // Drain the verifier first: a consistent verification verdict
        // must cover every check already due (lag == 0). The barrier
        // runs outside any ecall — the verifier itself needs the
        // enclave to drain.
        self.verifier_barrier()?;
        self.call(slot, Ecall::VerifyLog, |t, _| enclave::verify_log(t))?
    }

    /// Graceful drain: parks until every in-flight group-commit
    /// ticket has resolved, commits anything still staged,
    /// and drains the background verifier. Unlike `Drop`, the
    /// instance stays fully usable afterwards — services call this
    /// after they stop accepting traffic, before tearing the enclave
    /// down, so no audited response ever outlives its durable log
    /// entry.
    ///
    /// # Errors
    ///
    /// Commit or background-verification failures; the log state itself
    /// is still consistent (staged entries remain in the chain).
    pub fn drain(&self, slot: usize) -> Result<()> {
        if let Some(audit) = &self.audit {
            // A failed batch was reported to its writers, and the commit
            // below covers its entries.
            let _ = audit.sealer.queue().quiesce();
            self.call(slot, Ecall::VerifyLog, |t, _| enclave::commit_log(t))??;
        }
        self.verifier_barrier()
    }

    /// Log statistics: (entries, in-memory bytes, journal bytes).
    ///
    /// # Errors
    ///
    /// [`crate::LibSealError::AuditingDisabled`] without an SSM.
    pub fn log_stats(&self, slot: usize) -> Result<(u64, usize, u64)> {
        self.call(slot, Ecall::LogStats, |t, _| enclave::log_stats(t))?
    }

    /// Runs `f` against the audit log (tests and tooling; queries the
    /// same enclave-held database the checker uses). `f` runs holding
    /// the log's bind gate, so what it stages it makes durable with
    /// [`AuditLog::commit`], after any commit the sealer has in flight.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s failures and enclave entry failures.
    pub fn with_log<R: Send + 'static>(
        &self,
        slot: usize,
        f: impl FnOnce(&mut AuditLog) -> R + Send,
    ) -> Result<R> {
        self.call(slot, Ecall::CheckNow, move |t, _| enclave::with_log(t, f))?
    }

    /// Due checks the background verifier has not drained yet (0
    /// without an SSM).
    pub fn verifier_lag(&self) -> u64 {
        self.audit
            .as_ref()
            .map_or(0, |a| a.verifier.queue().depth())
    }

    /// Blocks until the background verifier has drained every due
    /// check (lag reaches zero). No-op without an SSM.
    ///
    /// # Errors
    ///
    /// A background evaluation failure since the last barrier.
    pub fn verifier_barrier(&self) -> Result<()> {
        match &self.audit {
            Some(a) => a.verifier.queue().quiesce(),
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

    /// Transition statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.enclave.services().stats().snapshot()
    }

    /// Resets transition statistics (between benchmark phases).
    pub fn reset_stats(&self) {
        self.enclave.services().stats().reset();
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
        if let Some(AuditWorkers { sealer, verifier }) = self.audit.take() {
            // Drain the commit pipeline first: the sealer needs the
            // enclave (and the async runtime's TCS slots stay claimed
            // until it shuts down, so order matters).
            drop(sealer);
            // Then the verifier: it drains every due check (the
            // shutdown barrier — no pair escapes verification), then
            // exits.
            drop(verifier);
            // A final commit so entries staged outside the pipeline
            // (direct `with_log` appends) reach a signed, durable head
            // before the process lets go of the log.
            let _ = self
                .enclave
                .ecall(Ecall::SealBatch.name(), |t, _| enclave::commit_log(t));
        }
        if let Some(rt) = self.runtime.take() {
            rt.shutdown();
        }
    }
}
