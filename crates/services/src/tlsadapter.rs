//! A uniform server-side TLS session interface over either the plain
//! STLS library (the "LibreSSL" baseline) or a LibSEAL instance —
//! demonstrating that LibSEAL is a drop-in replacement (§4.1).

use std::sync::Arc;

use libseal::plane::AuditPlane;
use libseal_crypto::ed25519::SigningKey;
use libseal_crypto::SystemRng;
use libseal_tlsx::cert::Certificate;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};

use crate::Result;

/// How a server terminates TLS.
//
// The variant size gap (inline certificate vs `Arc`) is irrelevant:
// one value exists per server and it is cloned per worker thread, so
// boxing `Native` would only complicate every construction site.
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

/// One server-side TLS session under either mode.
pub enum TlsSession {
    /// Plain STLS session.
    Native(Box<Ssl>),
    /// LibSEAL-managed session: (plane, worker slot, session id).
    LibSeal(Arc<dyn AuditPlane>, usize, u64),
}

impl TlsMode {
    /// Opens a session; `worker` is the application-thread slot used
    /// for asynchronous enclave calls and `affinity` a stable
    /// connection id a sharded audit plane hashes to pick the
    /// session's shard (ignored otherwise).
    ///
    /// # Errors
    ///
    /// Enclave entry failures (LibSEAL mode only).
    pub fn open_session(&self, worker: usize, affinity: u64) -> Result<TlsSession> {
        match self {
            TlsMode::Native { cert, key } => Ok(TlsSession::Native(native_session(
                SslConfig::server(cert.clone(), key.clone()),
            ))),
            TlsMode::LibSeal(ls) => {
                let sid = ls.open_session(worker, affinity)?;
                Ok(TlsSession::LibSeal(Arc::clone(ls), worker, sid))
            }
        }
    }
}

/// A fresh native server-side session under `cfg`.
pub(crate) fn native_session(cfg: Arc<SslConfig>) -> Box<Ssl> {
    let mut entropy = [0u8; 64];
    SystemRng::new().fill(&mut entropy);
    Box::new(Ssl::new(cfg, entropy))
}

impl TlsSession {
    /// Feeds wire ciphertext.
    ///
    /// # Errors
    ///
    /// Session/enclave failures.
    pub fn provide_input(&mut self, data: &[u8]) -> Result<()> {
        match self {
            TlsSession::Native(ssl) => {
                ssl.provide_input(data);
                Ok(())
            }
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.provide_input(*w, *sid, data)?),
        }
    }

    /// Takes ciphertext for the wire.
    ///
    /// # Errors
    ///
    /// Session/enclave failures.
    pub fn take_output(&mut self) -> Result<Vec<u8>> {
        match self {
            TlsSession::Native(ssl) => Ok(ssl.take_output()),
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.take_output(*w, *sid)?),
        }
    }

    /// Progresses the handshake; true when established.
    ///
    /// # Errors
    ///
    /// Fatal handshake failures.
    pub fn do_handshake(&mut self) -> Result<bool> {
        match self {
            TlsSession::Native(ssl) => Ok(ssl.do_handshake()?),
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.do_handshake(*w, *sid)?),
        }
    }

    /// Reads decrypted application data.
    ///
    /// # Errors
    ///
    /// TLS failures.
    pub fn ssl_read(&mut self) -> Result<ReadOutcome> {
        match self {
            TlsSession::Native(ssl) => Ok(ssl.ssl_read()?),
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.ssl_read(*w, *sid)?),
        }
    }

    /// Writes response plaintext.
    ///
    /// # Errors
    ///
    /// TLS failures.
    pub fn ssl_write(&mut self, data: &[u8]) -> Result<()> {
        match self {
            TlsSession::Native(ssl) => {
                ssl.ssl_write(data)?;
                Ok(())
            }
            TlsSession::LibSeal(ls, w, sid) => Ok(ls.ssl_write(*w, *sid, data)?),
        }
    }

    /// Closes the session.
    pub fn close(&mut self) {
        match self {
            TlsSession::Native(ssl) => ssl.send_close(),
            TlsSession::LibSeal(ls, w, sid) => {
                let _ = ls.close_session(*w, *sid);
            }
        }
    }
}
