//! How a server terminates TLS — and why the rest of this crate never
//! asks. LibSEAL is a drop-in replacement for the TLS library (§4.1):
//! the application is written against one session API and does not
//! know which library it linked. Here that API is
//! [`libseal::AuditPlane`]; [`TlsMode`] is the configuration value
//! naming the library, and it is resolved to a plane once, when a
//! server's configuration is built. The drivers hold the plane and
//! contain no branch on the mode.
//!
//! `NativeTls` is the plain STLS library behind that API (the paper's
//! "LibreSSL" baseline): a table of [`Ssl`] state machines in ordinary
//! process memory, with no enclave, no transitions and no audit log.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use libseal::plane::AuditPlane;
use libseal::{LibSealError, SessionInput, SessionOutcome};
use libseal_crypto::ed25519::SigningKey;
use libseal_tlsx::cert::Certificate;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};
use plat::sync::{Mutex, RwLock};

/// How a server terminates TLS.
//
// The variant size gap (inline certificate vs `Arc`) is irrelevant:
// one value exists per server, so boxing `Native` would only
// complicate every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum TlsMode {
    /// Directly with the STLS library (native baseline).
    Native {
        /// Server certificate.
        cert: Certificate,
        /// Its private key.
        key: SigningKey,
    },
    /// Through a LibSEAL audit plane — a single enclave or a sharded
    /// fleet, per its configuration; the server never learns which.
    LibSeal(Arc<dyn AuditPlane>),
}

impl TlsMode {
    /// The session surface a server programs against under this mode.
    pub(crate) fn plane(self) -> Arc<dyn AuditPlane> {
        match self {
            TlsMode::Native { cert, key } => Arc::new(NativeTls {
                config: SslConfig::server(cert, key),
                sessions: RwLock::new(HashMap::new()),
                next_sid: AtomicU64::new(1),
            }),
            TlsMode::LibSeal(plane) => plane,
        }
    }
}

/// The STLS library without LibSEAL: sessions live outside any enclave
/// and nothing is audited. The audit operations answer as a LibSEAL
/// instance without a service module does.
struct NativeTls {
    config: Arc<SslConfig>,
    sessions: RwLock<HashMap<u64, Arc<Mutex<Ssl>>>>,
    next_sid: AtomicU64,
}

impl NativeTls {
    /// Runs `f` on session `sid`. Sessions lock one by one, so workers
    /// encrypting for different connections do not serialise.
    fn with<R>(
        &self,
        sid: u64,
        f: impl FnOnce(&mut Ssl) -> libseal_tlsx::Result<R>,
    ) -> libseal::Result<R> {
        let session = self.sessions.read().get(&sid).cloned();
        let session = session.ok_or(LibSealError::NoSuchSession(sid))?;
        let mut ssl = session.lock();
        f(&mut ssl).map_err(LibSealError::Tls)
    }
}

impl AuditPlane for NativeTls {
    fn open_session(&self, _slot: usize, _affinity: u64) -> libseal::Result<u64> {
        let mut entropy = [0u8; 64];
        plat::entropy::fill(&mut entropy);
        let ssl = Ssl::new(Arc::clone(&self.config), entropy);
        let sid = self.next_sid.fetch_add(1, Ordering::Relaxed);
        self.sessions.write().insert(sid, Arc::new(Mutex::new(ssl)));
        Ok(sid)
    }

    fn close_session(&self, _slot: usize, sid: u64) -> libseal::Result<()> {
        self.sessions.write().remove(&sid);
        Ok(())
    }

    fn provide_input(&self, _slot: usize, sid: u64, data: &[u8]) -> libseal::Result<()> {
        self.with(sid, |ssl| {
            ssl.provide_input(data);
            Ok(())
        })
    }

    fn take_output(&self, _slot: usize, sid: u64) -> libseal::Result<Vec<u8>> {
        self.with(sid, |ssl| Ok(ssl.take_output()))
    }

    fn do_handshake(&self, _slot: usize, sid: u64) -> libseal::Result<bool> {
        self.with(sid, Ssl::do_handshake)
    }

    fn ssl_read(&self, _slot: usize, sid: u64) -> libseal::Result<ReadOutcome> {
        self.with(sid, Ssl::ssl_read)
    }

    fn ssl_write(&self, _slot: usize, sid: u64, parts: &[&[u8]]) -> libseal::Result<()> {
        self.with(sid, |ssl| ssl.ssl_write_parts(parts).map(drop))
    }

    fn ssl_write_take(&self, _slot: usize, sid: u64, parts: &[&[u8]]) -> libseal::Result<Vec<u8>> {
        self.with(sid, |ssl| {
            ssl.ssl_write_parts(parts).map(|_| ssl.take_output())
        })
    }

    fn pump_batch(
        &self,
        _slot: usize,
        items: Vec<SessionInput>,
    ) -> libseal::Result<Vec<SessionOutcome>> {
        let pump = |SessionInput { sid, input }| match self.with(sid, |ssl| Ok(ssl.pump(input))) {
            Ok(pumped) => SessionOutcome::pumped(sid, pumped),
            Err(e) => SessionOutcome::failed(sid, e),
        };
        Ok(items.into_iter().map(pump).collect())
    }

    fn audit_backlog(&self) -> u64 {
        0
    }

    fn async_slots(&self) -> Option<usize> {
        None
    }

    fn drain(&self, _slot: usize) -> libseal::Result<()> {
        Ok(())
    }

    fn verify_log(&self, _slot: usize) -> libseal::Result<()> {
        Err(LibSealError::AuditingDisabled)
    }

    fn certificates(&self) -> Vec<Certificate> {
        self.config.cert.iter().cloned().collect()
    }

    fn measurements(&self) -> Vec<[u8; 32]> {
        Vec::new()
    }
}
