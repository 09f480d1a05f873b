//! The STLS connection state machine with a memory-BIO interface.
//!
//! Handshake (TLS-1.3-flavoured, one round trip):
//!
//! ```text
//! C -> S  ClientHello   { random, X25519 share }
//! S -> C  ServerHello   { random, X25519 share }          (plaintext)
//!         --- both sides derive record keys here ---
//! S -> C  Certificate, [CertificateRequest,] CertVerify, Finished
//! C -> S  [Certificate, CertVerify,] Finished              (encrypted)
//! ```
//!
//! CertVerify signs the running transcript hash; Finished is an HMAC
//! over it, binding the handshake to the certificate keys end-to-end.

use std::ops::Range;
use std::sync::Arc;

use libseal_crypto::ed25519::{SigningKey, VerifyingKey};
use libseal_crypto::hmac::HmacSha256;
use libseal_crypto::sha2::Sha256;
use libseal_crypto::{ct, gcm, hkdf, x25519};

use crate::attest::{self, AttestationError, AttestationPolicy, EXT_SGX_QUOTE};
use crate::cert::Certificate;
use crate::record::{self, ContentType, RecordKeys, MAX_RECORD};
use crate::{Result, TlsError, VerifyFailure};

/// Endpoint role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Initiates connections.
    Client,
    /// Accepts connections.
    Server,
}

/// Shared configuration (the `SSL_CTX` analogue).
#[derive(Clone)]
pub struct SslConfig {
    /// Endpoint role.
    pub role: Role,
    /// Our certificate (servers always; clients when doing client auth).
    pub cert: Option<Certificate>,
    /// Private key matching `cert`.
    pub key: Option<SigningKey>,
    /// Trusted CA roots for verifying the peer.
    pub ca_roots: Vec<VerifyingKey>,
    /// Whether to verify the peer's certificate. For servers this
    /// requests and requires a client certificate (the paper's defence
    /// against client impersonation, §6.3).
    pub verify_peer: bool,
    /// Expected peer subject (clients; None = accept any).
    pub expected_subject: Option<String>,
    /// RA-TLS policy (clients): the peer certificate must carry a
    /// quote satisfying it, evaluated after CA/subject verification
    /// and before Finished. `None` skips attestation.
    pub attestation: Option<Arc<AttestationPolicy>>,
}

impl SslConfig {
    /// Plain client config trusting `ca_roots`.
    pub fn client(ca_roots: Vec<VerifyingKey>) -> Arc<SslConfig> {
        Arc::new(SslConfig {
            role: Role::Client,
            cert: None,
            key: None,
            ca_roots,
            verify_peer: true,
            expected_subject: None,
            attestation: None,
        })
    }

    /// Server config with an identity.
    pub fn server(cert: Certificate, key: SigningKey) -> Arc<SslConfig> {
        Arc::new(SslConfig {
            role: Role::Server,
            cert: Some(cert),
            key: Some(key),
            ca_roots: Vec::new(),
            verify_peer: false,
            expected_subject: None,
            attestation: None,
        })
    }
}

/// Handshake progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandshakeState {
    /// Nothing sent yet.
    Start,
    /// Client: waiting for the server flight.
    AwaitServerFlight,
    /// Server: waiting for ClientHello.
    AwaitClientHello,
    /// Server: waiting for the client's Finished (and certificate).
    AwaitClientFinished,
    /// Handshake complete; application data flows.
    Established,
    /// Closed by close_notify.
    Closed,
    /// Fatal failure; connection unusable.
    Failed,
}

/// Outcome of [`Ssl::ssl_read`].
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Decrypted application bytes.
    Data(Vec<u8>),
    /// No full record buffered; feed more input.
    WantRead,
    /// Peer sent close_notify.
    Closed,
}

/// What one [`Ssl::pump`] moved.
#[derive(Debug, Default)]
pub struct Pumped {
    /// Whether the handshake is complete after this pump.
    pub established: bool,
    /// Application plaintext decrypted this pump: the input's own
    /// allocation when the input began at a record boundary.
    pub data: Vec<u8>,
    /// Ciphertext that must be written to the wire.
    pub output: Vec<u8>,
    /// The peer sent close_notify.
    pub closed: bool,
    /// Fatal failure; the session is unusable.
    pub error: Option<TlsError>,
}

// Handshake message type codes.
const MSG_CLIENT_HELLO: u8 = 1;
const MSG_SERVER_HELLO: u8 = 2;
const MSG_CERT: u8 = 11;
const MSG_CERT_REQUEST: u8 = 13;
const MSG_CERT_VERIFY: u8 = 15;
const MSG_FINISHED: u8 = 20;

/// Info-callback state codes (OpenSSL-flavoured).
pub const INFO_HANDSHAKE_START: i32 = 0x10;
/// Handshake-done code for the info callback.
pub const INFO_HANDSHAKE_DONE: i32 = 0x20;

/// Per-connection state (the `SSL` analogue).
pub struct Ssl {
    config: Arc<SslConfig>,
    state: HandshakeState,
    /// Bytes from the peer. Records are opened where they lie; those
    /// before `in_pos` have been read. Between pumps it holds no more
    /// than a trailing partial record, unless reading stopped (a fatal
    /// error, close_notify) with bytes behind it.
    in_buf: Vec<u8>,
    in_pos: usize,
    /// Ciphertext for the peer, not yet taken.
    out_buf: Vec<u8>,
    kx_priv: [u8; 32],
    /// Running hash of the handshake messages so far.
    transcript: Sha256,
    write_keys: Option<RecordKeys>,
    read_keys: Option<RecordKeys>,
    fin_key_local: [u8; 32],
    fin_key_peer: [u8; 32],
    peer_cert: Option<Certificate>,
    client_cert_requested: bool,
    info_callback: Option<Arc<dyn Fn(i32, i32) + Send + Sync>>,
    /// When the first `do_handshake` ran (handshake-duration metric).
    hs_start: Option<std::time::Instant>,
    hs_recorded: bool,
}

/// Process-wide TLS metrics.
struct TlsxMetrics {
    handshake_ns: libseal_telemetry::Histogram,
    records_sealed: libseal_telemetry::Counter,
    records_opened: libseal_telemetry::Counter,
}

fn tlsx_metrics() -> &'static TlsxMetrics {
    static M: std::sync::OnceLock<TlsxMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| TlsxMetrics {
        handshake_ns: libseal_telemetry::histogram("tlsx_handshake_ns"),
        records_sealed: libseal_telemetry::counter("tlsx_records_sealed_total"),
        records_opened: libseal_telemetry::counter("tlsx_records_opened_total"),
    })
}

/// Stable telemetry label for a fatal handshake failure. The label set
/// is closed (every arm returns a literal, here or in
/// [`VerifyFailure::label`]), so the per-reason counters minted below
/// have bounded cardinality by construction — no network input ever
/// names a metric.
fn handshake_failure_reason(e: &TlsError) -> &'static str {
    match e {
        TlsError::Attestation(a) => match a {
            AttestationError::MissingQuote => "attestation_missing_quote",
            AttestationError::MalformedQuote => "attestation_malformed_quote",
            AttestationError::UnknownCriticalExtension(_) => "attestation_unknown_critical",
            AttestationError::UntrustedRoot => "attestation_untrusted_root",
            AttestationError::WrongMeasurement => "attestation_wrong_measurement",
            AttestationError::WrongSigner => "attestation_wrong_signer",
            AttestationError::StaleQuote => "attestation_stale_quote",
            AttestationError::ReportDataMismatch => "attestation_report_data_mismatch",
        },
        TlsError::Verification(v) => v.label(),
        TlsError::Decrypt => "decrypt",
        TlsError::Protocol(_) => "protocol",
        TlsError::Closed | TlsError::WantWrite | TlsError::Io(_) => "transport",
    }
}

/// Charges the per-reason handshake-rejection counter
/// (`tlsx_verify_failures_total_<reason>`). Lives on the one choke
/// point every handshake driver shares ([`Ssl::do_handshake`]), so
/// the blocking [`crate::stream::SslStream`], native sessions and
/// in-enclave sessions all charge it.
fn note_handshake_failure(e: &TlsError) {
    let reason = handshake_failure_reason(e);
    libseal_telemetry::counter(&format!("tlsx_verify_failures_total_{reason}")).inc();
}

impl Ssl {
    /// Creates a connection; `entropy` supplies the ephemeral key and
    /// hello randomness (64 bytes).
    pub fn new(config: Arc<SslConfig>, entropy: [u8; 64]) -> Ssl {
        let mut kx_priv = [0u8; 32];
        kx_priv.copy_from_slice(&entropy[..32]);
        let state = match config.role {
            Role::Client => HandshakeState::Start,
            Role::Server => HandshakeState::AwaitClientHello,
        };
        Ssl {
            config,
            state,
            in_buf: Vec::new(),
            in_pos: 0,
            out_buf: Vec::new(),
            kx_priv,
            transcript: Sha256::new(),
            write_keys: None,
            read_keys: None,
            fin_key_local: [0u8; 32],
            fin_key_peer: [0u8; 32],
            peer_cert: None,
            client_cert_requested: false,
            info_callback: None,
            hs_start: None,
            hs_recorded: false,
        }
    }

    /// Registers an info callback, invoked on handshake transitions
    /// (the LibSEAL secure-callback test surface, §4.1).
    pub fn set_info_callback(&mut self, cb: Arc<dyn Fn(i32, i32) + Send + Sync>) {
        self.info_callback = Some(cb);
    }

    fn info(&self, code: i32, arg: i32) {
        if let Some(cb) = &self.info_callback {
            cb(code, arg);
        }
    }

    /// Current handshake state.
    pub fn state(&self) -> HandshakeState {
        self.state
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == HandshakeState::Established
    }

    /// The peer's verified certificate, if any.
    pub fn peer_certificate(&self) -> Option<&Certificate> {
        self.peer_cert.as_ref()
    }

    /// Feeds ciphertext received from the wire.
    pub fn provide_input(&mut self, data: &[u8]) {
        // Drop what has been read: once per feed, not once per record.
        self.in_buf.drain(..std::mem::take(&mut self.in_pos));
        self.in_buf.extend_from_slice(data);
    }

    /// Takes ciphertext that must be sent on the wire.
    pub fn take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out_buf)
    }

    /// Whether output bytes are pending.
    pub fn has_output(&self) -> bool {
        !self.out_buf.is_empty()
    }

    /// Drives the handshake as far as the buffered input allows.
    /// Returns `true` once established.
    ///
    /// # Errors
    ///
    /// Protocol and verification failures are fatal: the state moves
    /// to [`HandshakeState::Failed`].
    pub fn do_handshake(&mut self) -> Result<bool> {
        let start = *self.hs_start.get_or_insert_with(std::time::Instant::now);
        let r = self.do_handshake_inner();
        if let Err(e) = &r {
            // Charge only on the transition into Failed, so a caller
            // re-driving a dead session cannot inflate the counters.
            if self.state != HandshakeState::Failed {
                note_handshake_failure(e);
            }
            self.state = HandshakeState::Failed;
        }
        if matches!(r, Ok(true)) && !self.hs_recorded {
            // First do_handshake to established: the whole exchange,
            // including wait time between flights.
            tlsx_metrics().handshake_ns.record_duration(start.elapsed());
            self.hs_recorded = true;
        }
        r
    }

    fn do_handshake_inner(&mut self) -> Result<bool> {
        if self.state == HandshakeState::Start && self.config.role == Role::Client {
            self.info(INFO_HANDSHAKE_START, 0);
            let share = x25519::public_key(&self.kx_priv);
            self.queue_handshake(MSG_CLIENT_HELLO, &share)?;
            self.state = HandshakeState::AwaitServerFlight;
        }
        while self.state != HandshakeState::Established {
            let Some((_, msg)) = self.next_record(true)? else {
                return Ok(false);
            };
            // Copied out: processing it appends to `self`'s buffers.
            let msg = self.in_buf[msg].to_vec();
            let [t, l0, l1, l2, body @ ..] = &msg[..] else {
                return Err(TlsError::Protocol("short handshake message".into()));
            };
            if body.len() != u32::from_be_bytes([0, *l0, *l1, *l2]) as usize {
                return Err(TlsError::Protocol("handshake length mismatch".into()));
            }
            self.process_handshake_message(*t, body)?;
        }
        Ok(true)
    }

    /// Encrypts and queues application data.
    ///
    /// # Errors
    ///
    /// [`TlsError::Protocol`] before the handshake completes.
    pub fn ssl_write(&mut self, data: &[u8]) -> Result<usize> {
        self.ssl_write_parts(&[data])
    }

    /// Encrypts and queues application data given as a chain of slices
    /// (a message's head and its body), copying each slice once, to where
    /// it is encrypted. The records are those of the concatenation: a
    /// record holds up to [`MAX_RECORD`] bytes whichever slices they
    /// come from, so a split adds no record.
    ///
    /// # Errors
    ///
    /// As [`Ssl::ssl_write`].
    pub fn ssl_write_parts(&mut self, parts: &[&[u8]]) -> Result<usize> {
        if self.state != HandshakeState::Established {
            return Err(TlsError::Protocol("ssl_write before handshake".into()));
        }
        let keys = self.write_keys.as_mut().expect("established has keys");
        let len = parts.iter().map(|p| p.len()).sum::<usize>();
        let framing = len.div_ceil(MAX_RECORD) * (record::HEADER + record::TAG);
        self.out_buf.reserve(len + framing);
        let mut seal = |record: &[&[u8]]| -> Result<()> {
            keys.seal_parts_into(ContentType::AppData, record, &mut self.out_buf)?;
            tlsx_metrics().records_sealed.inc();
            Ok(())
        };
        // The slices of the record being filled, and the room left in it.
        let (mut record, mut room) = (Vec::new(), MAX_RECORD);
        for mut part in parts.iter().copied() {
            while !part.is_empty() {
                let (into, rest) = part.split_at(room.min(part.len()));
                record.push(into);
                (part, room) = (rest, room - into.len());
                if room == 0 {
                    seal(&record)?;
                    record.clear();
                    room = MAX_RECORD;
                }
            }
        }
        if !record.is_empty() {
            seal(&record)?;
        }
        Ok(len)
    }

    /// Takes the next whole record out of `in_buf` — a handshake record
    /// when `handshaking`, any other kind when not — and, once read
    /// keys exist, authenticates and decrypts it where it lies. Returns
    /// its type and where its plaintext is, or `None` when more input
    /// is needed. A record that fails stays unread and undecrypted.
    fn next_record(&mut self, handshaking: bool) -> Result<Option<(ContentType, Range<usize>)>> {
        let Some((rec, used)) = record::parse(&self.in_buf[self.in_pos..])? else {
            return Ok(None);
        };
        let ctype = rec.ctype;
        match (ctype == ContentType::Handshake, handshaking) {
            (false, true) => return Err(TlsError::Protocol("expected handshake record".into())),
            (true, false) => return Err(TlsError::Protocol("unexpected handshake record".into())),
            _ => {}
        }
        let (start, mut end) = (self.in_pos + record::HEADER, self.in_pos + used);
        // Everything after ServerHello is encrypted; keys exist exactly
        // then.
        if let Some(keys) = self.read_keys.as_mut() {
            let plain = keys.open_in_place(ctype, &mut self.in_buf[start..end])?;
            end = start + plain.len();
        }
        self.in_pos += used;
        Ok(Some((ctype, start..end)))
    }

    /// Makes the next application record readable: where its plaintext
    /// is in `in_buf`, or `None` when no whole record is buffered or
    /// the session is closed ([`Self::state`] tells which).
    fn read_record(&mut self) -> Result<Option<Range<usize>>> {
        if self.state != HandshakeState::Closed && !self.is_established() {
            // Still handshaking: make progress first.
            self.do_handshake()?;
        }
        if !self.is_established() {
            return Ok(None);
        }
        loop {
            let Some((ctype, plain)) = self.next_record(false)? else {
                return Ok(None);
            };
            tlsx_metrics().records_opened.inc();
            if ctype == ContentType::Alert {
                if self.in_buf[plain].first() != Some(&0) {
                    return Err(TlsError::Protocol("fatal alert".into()));
                }
                self.state = HandshakeState::Closed;
                return Ok(None);
            }
            if !plain.is_empty() {
                return Ok(Some(plain));
            }
        }
    }

    /// Returns decrypted application data, one buffered record's worth.
    ///
    /// # Errors
    ///
    /// Decryption and protocol failures are fatal.
    pub fn ssl_read(&mut self) -> Result<ReadOutcome> {
        Ok(match self.read_record()? {
            Some(plain) => ReadOutcome::Data(self.in_buf[plain].to_vec()),
            None if self.state == HandshakeState::Closed => ReadOutcome::Closed,
            None => ReadOutcome::WantRead,
        })
    }

    /// Queues a close_notify alert.
    pub fn send_close(&mut self) {
        if self.state == HandshakeState::Established {
            if let Some(keys) = self.write_keys.as_mut() {
                keys.seal_into(ContentType::Alert, &[0], &mut self.out_buf)
                    .expect("one byte fits a record");
                tlsx_metrics().records_sealed.inc();
            }
            self.state = HandshakeState::Closed;
        }
    }

    /// One step of a session, whoever drives it: take `input` from the
    /// wire, progress the handshake, open the records that became
    /// readable and collect the ciphertext to send. In-enclave sessions,
    /// native sessions and [`crate::stream::SslStream`] all move through
    /// this body. Never fails as a call: a fatal error is reported in
    /// [`Pumped::error`] beside whatever the step still produced.
    ///
    /// Records are opened where they arrived. When nothing is held from
    /// an earlier input, `input` becomes the session's buffer: each
    /// record opens in place, its plaintext moves to the front, and the
    /// allocation is returned as [`Pumped::data`]. A trailing partial
    /// record is kept in a buffer of its own, and the next input
    /// completes it: that record is the one copied, and only then is the
    /// plaintext gathered into a fresh buffer.
    pub fn pump(&mut self, input: Vec<u8>) -> Pumped {
        let mut p = Pumped::default();
        let held = self.in_buf.len() - self.in_pos;
        let mut at = 0;
        if held > 0 {
            // As much of the input as completes the held record is
            // copied behind it, and the record opens there.
            let mut header = self.in_buf[self.in_pos..].iter().chain(&input).skip(1);
            let len = match (header.next(), header.next()) {
                (Some(&hi), Some(&lo)) => usize::from(u16::from_be_bytes([hi, lo])),
                _ => input.len(),
            };
            at = (record::HEADER + len).saturating_sub(held).min(input.len());
            self.in_buf.extend_from_slice(&input[..at]);
            let mut plain = 0;
            p.error = self.open_buffered(&mut plain).err();
            if plain > 0 {
                p.data = Vec::with_capacity(plain + input.len() - at);
                p.data.extend_from_slice(&self.in_buf[..plain]);
            }
            self.in_buf.drain(..std::mem::take(&mut self.in_pos));
        }
        if !self.in_buf.is_empty() {
            // Reading stopped with bytes held: the rest waits behind them.
            self.in_buf.extend_from_slice(&input[at..]);
        } else if p.error.is_none() {
            (self.in_buf, self.in_pos) = (input, at);
            let mut plain = 0;
            p.error = self.open_buffered(&mut plain).err();
            let tail = self.in_buf[self.in_pos..].to_vec();
            self.in_buf.truncate(plain);
            let opened = std::mem::replace(&mut self.in_buf, tail);
            self.in_pos = 0;
            if p.data.is_empty() && plain > 0 {
                p.data = opened;
            } else {
                p.data.extend_from_slice(&opened);
            }
        }
        p.closed = self.state == HandshakeState::Closed;
        p.established = self.is_established();
        p.output = self.take_output();
        p
    }

    /// Opens every readable record of `in_buf` from `in_pos` on, driving
    /// an unfinished handshake first, and moves each plaintext to the
    /// front of `in_buf`, over bytes already read; `front` counts the
    /// plaintext bytes lying there, up to the first failure.
    fn open_buffered(&mut self, front: &mut usize) -> Result<()> {
        while let Some(plain) = self.read_record()? {
            self.in_buf.copy_within(plain.clone(), *front);
            *front += plain.len();
        }
        Ok(())
    }

    // --- handshake internals -------------------------------------------

    fn transcript_hash(&self) -> [u8; 32] {
        self.transcript.clone().finalize()
    }

    /// A handshake message as it enters the transcript: type, 24-bit
    /// length, body.
    fn frame_handshake(t: u8, body: &[u8]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(4 + body.len());
        msg.push(t);
        msg.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..4]);
        msg.extend_from_slice(body);
        msg
    }

    /// Appends the message to the transcript and queues its record.
    ///
    /// # Errors
    ///
    /// [`TlsError::Protocol`] when the message does not fit one record
    /// (handshake messages are not fragmented).
    fn queue_handshake(&mut self, t: u8, body: &[u8]) -> Result<()> {
        let msg = Self::frame_handshake(t, body);
        self.transcript.update(&msg);
        match self.write_keys.as_mut() {
            Some(keys) if t != MSG_CLIENT_HELLO && t != MSG_SERVER_HELLO => {
                keys.seal_into(ContentType::Handshake, &msg, &mut self.out_buf)
            }
            _ => {
                self.out_buf
                    .extend_from_slice(&record::frame(ContentType::Handshake, &msg)?);
                Ok(())
            }
        }
    }

    fn derive_keys(&mut self, peer_share: &[u8; 32]) -> Result<()> {
        // A CPU that cannot run the record cipher cannot speak STLS.
        gcm::require_cpu().map_err(|e| TlsError::Protocol(format!("record cipher: {e}")))?;
        let shared = x25519::shared_secret(&self.kx_priv, peer_share);
        if ct::eq(&shared, &[0u8; 32]) {
            return Err(TlsError::Verification(VerifyFailure::WeakKeyShare));
        }
        let prk = hkdf::extract(b"stls v1", &shared);
        let hs_hash = self.transcript_hash();

        // Everything derived is HKDF-Expand(prk, label || transcript).
        let expand = |label: &[u8], out: &mut [u8]| {
            hkdf::expand(&prk, &[label, &hs_hash[..]].concat(), out);
        };
        // One direction: record keys (32-byte key, 12-byte IV) and the
        // Finished MAC key.
        let direction = |keys_label: &[u8], fin_label: &[u8]| {
            let (mut key_iv, mut fin) = ([0u8; 44], [0u8; 32]);
            expand(keys_label, &mut key_iv);
            expand(fin_label, &mut fin);
            let (mut key, mut iv) = ([0u8; 32], [0u8; 12]);
            key.copy_from_slice(&key_iv[..32]);
            iv.copy_from_slice(&key_iv[32..]);
            (RecordKeys::new(&key, &iv), fin)
        };
        let (client, server) = (direction(b"c ap", b"fin c"), direction(b"s ap", b"fin s"));
        let (local, peer) = match self.config.role {
            Role::Client => (client, server),
            Role::Server => (server, client),
        };
        (self.write_keys, self.fin_key_local) = (Some(local.0), local.1);
        (self.read_keys, self.fin_key_peer) = (Some(peer.0), peer.1);
        Ok(())
    }

    fn cert_verify_payload(hash: &[u8; 32]) -> Vec<u8> {
        let mut p = b"stls-certverify:".to_vec();
        p.extend_from_slice(hash);
        p
    }

    /// Extracts the 32-byte X25519 share leading a hello body.
    /// Network-supplied, so a short body is a typed protocol error.
    fn key_share(body: &[u8]) -> Result<[u8; 32]> {
        body.get(..32)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| TlsError::Protocol("hello body shorter than key share".into()))
    }

    fn process_handshake_message(&mut self, t: u8, body: &[u8]) -> Result<()> {
        match (self.config.role, self.state, t) {
            (Role::Server, HandshakeState::AwaitClientHello, MSG_CLIENT_HELLO) => {
                self.info(INFO_HANDSHAKE_START, 0);
                let peer_share = Self::key_share(body)
                    .map_err(|_| TlsError::Protocol("short ClientHello".into()))?;
                // Append the peer's message to the transcript exactly
                // as received.
                self.append_peer_transcript(t, body);

                // ServerHello with our share.
                let my_share = x25519::public_key(&self.kx_priv);
                self.queue_handshake(MSG_SERVER_HELLO, &my_share)?;
                self.derive_keys(&peer_share)?;

                // Certificate.
                let cert = self
                    .config
                    .cert
                    .clone()
                    .ok_or_else(|| TlsError::Protocol("server has no certificate".into()))?;
                self.queue_handshake(MSG_CERT, &cert.encode())?;
                if self.config.verify_peer {
                    self.queue_handshake(MSG_CERT_REQUEST, &[])?;
                }
                // CertVerify over the transcript so far.
                let key = self
                    .config
                    .key
                    .clone()
                    .ok_or_else(|| TlsError::Protocol("server has no key".into()))?;
                let sig = key.sign(&Self::cert_verify_payload(&self.transcript_hash()));
                self.queue_handshake(MSG_CERT_VERIFY, &sig)?;
                // Finished.
                let fin = HmacSha256::mac(&self.fin_key_local, &self.transcript_hash());
                self.queue_handshake(MSG_FINISHED, &fin)?;
                self.state = HandshakeState::AwaitClientFinished;
                Ok(())
            }
            (Role::Client, HandshakeState::AwaitServerFlight, MSG_SERVER_HELLO) => {
                let peer_share = Self::key_share(body)
                    .map_err(|_| TlsError::Protocol("short ServerHello".into()))?;
                self.append_peer_transcript(t, body);
                self.derive_keys(&peer_share)
            }
            (Role::Client, HandshakeState::AwaitServerFlight, MSG_CERT)
            | (Role::Server, HandshakeState::AwaitClientFinished, MSG_CERT) => {
                self.accept_peer_cert(t, body)
            }
            (Role::Client, HandshakeState::AwaitServerFlight, MSG_CERT_REQUEST) => {
                self.append_peer_transcript(t, body);
                self.client_cert_requested = true;
                Ok(())
            }
            (Role::Client, HandshakeState::AwaitServerFlight, MSG_CERT_VERIFY)
            | (Role::Server, HandshakeState::AwaitClientFinished, MSG_CERT_VERIFY) => {
                self.check_cert_verify(t, body)
            }
            (Role::Client, HandshakeState::AwaitServerFlight, MSG_FINISHED) => {
                self.check_finished(t, body)?;
                // Client flight: optional certificate, then Finished.
                if self.client_cert_requested {
                    let cert = self.config.cert.clone().ok_or_else(|| {
                        TlsError::Protocol("client certificate required but not configured".into())
                    })?;
                    let key = self.config.key.clone().ok_or_else(|| {
                        TlsError::Protocol("client key required but not configured".into())
                    })?;
                    self.queue_handshake(MSG_CERT, &cert.encode())?;
                    let sig = key.sign(&Self::cert_verify_payload(&self.transcript_hash()));
                    self.queue_handshake(MSG_CERT_VERIFY, &sig)?;
                }
                let fin = HmacSha256::mac(&self.fin_key_local, &self.transcript_hash());
                self.queue_handshake(MSG_FINISHED, &fin)?;
                self.state = HandshakeState::Established;
                self.info(INFO_HANDSHAKE_DONE, 0);
                Ok(())
            }
            (Role::Server, HandshakeState::AwaitClientFinished, MSG_FINISHED) => {
                if self.config.verify_peer && self.peer_cert.is_none() {
                    return Err(TlsError::Verification(VerifyFailure::ClientCertMissing));
                }
                self.check_finished(t, body)?;
                self.state = HandshakeState::Established;
                self.info(INFO_HANDSHAKE_DONE, 0);
                Ok(())
            }
            (_, state, t) => Err(TlsError::Protocol(format!(
                "unexpected handshake message {t} in state {state:?}"
            ))),
        }
    }

    /// Appends the peer's message to the transcript exactly as received.
    fn append_peer_transcript(&mut self, t: u8, body: &[u8]) {
        let mut header = (body.len() as u32).to_be_bytes();
        header[0] = t;
        self.transcript.update(&header);
        self.transcript.update(body);
    }

    /// The peer's Certificate message, either role. A server checks
    /// whatever certificate a client presents; a client may have
    /// verification switched off.
    fn accept_peer_cert(&mut self, t: u8, body: &[u8]) -> Result<()> {
        self.append_peer_transcript(t, body);
        let cert = Certificate::decode(body)?;
        if self.config.role == Role::Server || self.config.verify_peer {
            if !self
                .config
                .ca_roots
                .iter()
                .any(|ca| cert.verify(ca).is_ok())
            {
                return Err(TlsError::Verification(VerifyFailure::UntrustedCa));
            }
            // The subject pin and the attestation policy are client
            // configuration; a server carries neither.
            if let Some(expected) = &self.config.expected_subject {
                if &cert.subject != expected {
                    return Err(TlsError::Verification(VerifyFailure::SubjectMismatch {
                        got: cert.subject,
                        expected: expected.clone(),
                    }));
                }
            }
            // Criticality semantics hold even without a policy: a
            // certificate demanding understanding of an extension we
            // lack must not be trusted.
            if let Some(t) = cert.unknown_critical(&[EXT_SGX_QUOTE]) {
                return Err(TlsError::Attestation(
                    AttestationError::UnknownCriticalExtension(t),
                ));
            }
            // RA-TLS policy evaluation: after CA and subject checks,
            // before our Finished ever leaves — a failing quote aborts
            // the handshake with no application byte exchanged.
            if let Some(policy) = &self.config.attestation {
                policy
                    .verify(&cert, attest::unix_now_ms())
                    .map_err(TlsError::Attestation)?;
            }
        }
        self.peer_cert = Some(cert);
        Ok(())
    }

    /// The peer's CertificateVerify, either role: its certificate key
    /// signed the transcript NOT including this message.
    fn check_cert_verify(&mut self, t: u8, body: &[u8]) -> Result<()> {
        let hash = self.transcript_hash();
        let cert = self
            .peer_cert
            .as_ref()
            .ok_or_else(|| TlsError::Protocol("CertVerify before Certificate".into()))?;
        let sig: [u8; 64] = body
            .try_into()
            .map_err(|_| TlsError::Protocol("bad CertVerify length".into()))?;
        VerifyingKey::from_bytes(&cert.pubkey)
            .verify(&Self::cert_verify_payload(&hash), &sig)
            .map_err(|_| TlsError::Verification(VerifyFailure::CertVerify))?;
        self.append_peer_transcript(t, body);
        Ok(())
    }

    /// The peer's Finished, either role: its MAC over the transcript
    /// NOT including this message.
    fn check_finished(&mut self, t: u8, body: &[u8]) -> Result<()> {
        let expected = HmacSha256::mac(&self.fin_key_peer, &self.transcript_hash());
        if !libseal_crypto::ct::eq(&expected, body) {
            return Err(TlsError::Verification(VerifyFailure::Finished));
        }
        self.append_peer_transcript(t, body);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;

    fn pump(a: &mut Ssl, b: &mut Ssl) {
        // Move bytes between the two endpoints until both go quiet.
        for _ in 0..20 {
            let out_a = a.take_output();
            if !out_a.is_empty() {
                b.provide_input(&out_a);
            }
            let _ = b.do_handshake();
            let out_b = b.take_output();
            if !out_b.is_empty() {
                a.provide_input(&out_b);
            }
            let _ = a.do_handshake();
            if !a.has_output() && !b.has_output() {
                break;
            }
        }
    }

    fn handshake_pair(client_cfg: Arc<SslConfig>, server_cfg: Arc<SslConfig>) -> (Ssl, Ssl) {
        let mut client = Ssl::new(client_cfg, [1u8; 64]);
        let mut server = Ssl::new(server_cfg, [2u8; 64]);
        client.do_handshake().unwrap();
        pump(&mut client, &mut server);
        (client, server)
    }

    fn test_ca() -> CertificateAuthority {
        CertificateAuthority::new("RootCA", &[0x33; 32])
    }

    #[test]
    fn full_handshake_and_data() {
        let ca = test_ca();
        let (key, cert) = ca.issue_identity("server.test", &[4u8; 32]).unwrap();
        let (mut client, mut server) = handshake_pair(
            SslConfig::client(vec![ca.root_key()]),
            SslConfig::server(cert, key),
        );
        assert!(client.is_established());
        assert!(server.is_established());

        client.ssl_write(b"hello from client").unwrap();
        let wire = client.take_output();
        server.provide_input(&wire);
        match server.ssl_read().unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"hello from client"),
            other => panic!("{other:?}"),
        }

        server.ssl_write(b"hello from server").unwrap();
        let wire = server.take_output();
        client.provide_input(&wire);
        match client.ssl_read().unwrap() {
            ReadOutcome::Data(d) => assert_eq!(d, b"hello from server"),
            other => panic!("{other:?}"),
        }
    }

    fn config(
        role: Role,
        identity: Option<(SigningKey, Certificate)>,
        ca: &CertificateAuthority,
        verify_peer: bool,
        expected_subject: Option<&str>,
    ) -> Arc<SslConfig> {
        let (key, cert) = identity.unzip();
        Arc::new(SslConfig {
            role,
            cert,
            key,
            ca_roots: vec![ca.root_key()],
            verify_peer,
            expected_subject: expected_subject.map(str::to_string),
            attestation: None,
        })
    }

    /// Every way a peer's credentials can be rejected, from each role
    /// that can reject it: the rejecting side reports the typed reason
    /// and exactly that reason's counter moves. (No other test of this
    /// binary fails a verification, so the counts are exact.)
    #[test]
    fn each_rejection_moves_exactly_its_own_counter() {
        use VerifyFailure::*;
        let ca = test_ca();
        let rogue = CertificateAuthority::new("RogueCA", &[0x44; 32]);
        let id = |ca: &CertificateAuthority, name: &str, seed: u8| {
            Some(ca.issue_identity(name, &[seed; 32]).unwrap())
        };
        // An identity whose key does not match its certificate.
        let mismatched = |name: &str| {
            let (_, cert) = ca.issue_identity(name, &[6u8; 32]).unwrap();
            Some((SigningKey::from_seed(&[7u8; 32]), cert))
        };
        let client = |identity, subject| config(Role::Client, identity, &ca, true, subject);
        let server = |identity, verify| config(Role::Server, identity, &ca, verify, None);
        let honest_server = || server(id(&ca, "server.test", 4), false);
        let asking_server = || server(id(&ca, "server.test", 4), true);
        let no_sabotage: fn(&mut Ssl, &mut Ssl) = |_, _| {};
        let mismatch = SubjectMismatch {
            got: "server.test".into(),
            expected: "other.test".into(),
        };
        let labels = [
            UntrustedCa.label(),
            mismatch.label(),
            CertVerify.label(),
            Finished.label(),
            ClientCertMissing.label(),
            WeakKeyShare.label(),
        ];
        // (reason, who rejects, client, server, what goes wrong just
        // before the client reads the server's Finished)
        type Case = (
            VerifyFailure,
            Role,
            Arc<SslConfig>,
            Arc<SslConfig>,
            fn(&mut Ssl, &mut Ssl),
        );
        let cases: Vec<Case> = vec![
            (
                UntrustedCa,
                Role::Client,
                client(None, None),
                server(id(&rogue, "server.test", 4), false),
                no_sabotage,
            ),
            (
                UntrustedCa,
                Role::Server,
                client(id(&rogue, "alice", 5), None),
                asking_server(),
                no_sabotage,
            ),
            (
                mismatch,
                Role::Client,
                client(None, Some("other.test")),
                honest_server(),
                no_sabotage,
            ),
            (
                CertVerify,
                Role::Client,
                client(None, None),
                server(mismatched("server.test"), false),
                no_sabotage,
            ),
            (
                CertVerify,
                Role::Server,
                client(mismatched("alice"), None),
                asking_server(),
                no_sabotage,
            ),
            (
                Finished,
                Role::Client,
                client(None, None),
                honest_server(),
                |c, _| c.fin_key_peer[0] ^= 1,
            ),
            (
                Finished,
                Role::Server,
                client(None, None),
                honest_server(),
                |_, s| s.fin_key_peer[0] ^= 1,
            ),
            // A client that ignores the CertificateRequest.
            (
                ClientCertMissing,
                Role::Server,
                client(None, None),
                asking_server(),
                |c, _| c.client_cert_requested = false,
            ),
        ];
        let counts = || {
            labels.map(|l| {
                libseal_telemetry::counter(&format!("tlsx_verify_failures_total_{l}")).get()
            })
        };
        for (reason, rejecting, client_cfg, server_cfg, sabotage) in cases {
            let ctx = format!("{reason:?} rejected by the {rejecting:?}");
            let before = counts();
            let mut client = Ssl::new(client_cfg, [1u8; 64]);
            let mut server = Ssl::new(server_cfg, [2u8; 64]);
            client.do_handshake().unwrap();
            server.provide_input(&client.take_output());
            server.do_handshake().unwrap();
            // Deliver the server's flight up to its last record (the
            // Finished), sabotage, then deliver the rest.
            let flight = server.take_output();
            let mut last = 0;
            while let Some((_, used)) = record::parse(&flight[last..]).unwrap() {
                if last + used == flight.len() {
                    break;
                }
                last += used;
            }
            client.provide_input(&flight[..last]);
            let early = client.do_handshake();
            sabotage(&mut client, &mut server);
            client.provide_input(&flight[last..]);
            let verdict = match rejecting {
                Role::Client => early.and_then(|_| client.do_handshake()),
                Role::Server => {
                    assert_eq!(client.do_handshake(), Ok(true), "{ctx}: client must finish");
                    server.provide_input(&client.take_output());
                    server.do_handshake()
                }
            };
            assert_eq!(
                verdict,
                Err(TlsError::Verification(reason.clone())),
                "{ctx}"
            );
            let rejected = match rejecting {
                Role::Client => &client,
                Role::Server => &server,
            };
            assert_eq!(rejected.state(), HandshakeState::Failed, "{ctx}");
            let moved: Vec<u64> = counts().iter().zip(before).map(|(a, b)| a - b).collect();
            let expected: Vec<u64> = labels.map(|l| u64::from(l == reason.label())).to_vec();
            assert_eq!(moved, expected, "{ctx}: counters {labels:?}");
        }
    }

    #[test]
    fn client_auth_roundtrip() {
        let ca = test_ca();
        let server = ca.issue_identity("server.test", &[4u8; 32]).unwrap();
        let alice = ca.issue_identity("alice", &[5u8; 32]).unwrap();
        let (client, server) = handshake_pair(
            config(Role::Client, Some(alice), &ca, true, None),
            config(Role::Server, Some(server), &ca, true, None),
        );
        assert!(client.is_established());
        assert!(server.is_established());
        assert_eq!(server.peer_certificate().unwrap().subject, "alice");
    }

    #[test]
    fn client_auth_missing_cert_fails() {
        let ca = test_ca();
        let server = ca.issue_identity("server.test", &[4u8; 32]).unwrap();
        let (client, _) = handshake_pair(
            SslConfig::client(vec![ca.root_key()]),
            config(Role::Server, Some(server), &ca, true, None),
        );
        assert_eq!(client.state(), HandshakeState::Failed);
    }

    #[test]
    fn tampered_record_fails() {
        let ca = test_ca();
        let (key, cert) = ca.issue_identity("server.test", &[4u8; 32]).unwrap();
        let (mut client, mut server) = handshake_pair(
            SslConfig::client(vec![ca.root_key()]),
            SslConfig::server(cert, key),
        );
        client.ssl_write(b"sensitive").unwrap();
        let mut wire = client.take_output();
        let n = wire.len();
        wire[n - 1] ^= 0x01;
        server.provide_input(&wire);
        assert_eq!(server.ssl_read(), Err(TlsError::Decrypt));
    }

    #[test]
    fn close_notify_roundtrip() {
        let ca = test_ca();
        let (key, cert) = ca.issue_identity("server.test", &[4u8; 32]).unwrap();
        let (mut client, mut server) = handshake_pair(
            SslConfig::client(vec![ca.root_key()]),
            SslConfig::server(cert, key),
        );
        client.send_close();
        let wire = client.take_output();
        server.provide_input(&wire);
        assert_eq!(server.ssl_read().unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn large_transfer_chunks_records() {
        let ca = test_ca();
        let (key, cert) = ca.issue_identity("server.test", &[4u8; 32]).unwrap();
        let (mut client, mut server) = handshake_pair(
            SslConfig::client(vec![ca.root_key()]),
            SslConfig::server(cert, key),
        );
        let big: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        client.ssl_write(&big).unwrap();
        let wire = client.take_output();
        server.provide_input(&wire);
        let mut got = Vec::new();
        loop {
            match server.ssl_read().unwrap() {
                ReadOutcome::Data(d) => got.extend_from_slice(&d),
                ReadOutcome::WantRead => break,
                ReadOutcome::Closed => panic!("closed"),
            }
            if got.len() >= big.len() {
                break;
            }
        }
        assert_eq!(got, big);
    }

    #[test]
    fn info_callback_fires() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let ca = test_ca();
        let (key, cert) = ca.issue_identity("server.test", &[4u8; 32]).unwrap();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1u8; 64]);
        client.set_info_callback(Arc::new(move |_code, _arg| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        let mut server = Ssl::new(SslConfig::server(cert, key), [2u8; 64]);
        client.do_handshake().unwrap();
        pump(&mut client, &mut server);
        assert!(client.is_established());
        assert!(hits.load(Ordering::SeqCst) >= 2); // start + done
    }

    #[test]
    fn write_before_handshake_errors() {
        let ca = test_ca();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [1u8; 64]);
        assert!(client.ssl_write(b"early").is_err());
    }
}
