//! The combination production runs — [`Ssl::pump`] over whatever a
//! non-blocking transport has, output queued in a [`WireBuf`] — under
//! transports that misbehave at every boundary. `End::step` below is
//! the reactor's read → pump → flush sequence in miniature.
//!
//! - A trickle transport delivers one byte per read and accepts one
//!   byte per write, with a `WouldBlock` before every byte, so the
//!   handshake and the record layer must resume inside every record in
//!   both directions, and ciphertext is encrypted exactly once however
//!   many partial writes carry it (a second encryption would burn a
//!   sequence-number nonce and the peer's decryption would fail).
//! - `plat::chaos` injects short reads and writes, stalls, resets and
//!   silent truncation from a seed: every fault class ends in progress,
//!   a typed error or a stall — never a panic, corrupted plaintext or a
//!   session reported established over a dead link.

use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{Ssl, SslConfig};
use libseal_tlsx::stream::{FlushOutcome, SslStream, WireBuf};
use libseal_tlsx::{TlsError, VerifyFailure};
use plat::chaos::{ChaosConfig, ChaosStream};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::rc::Rc;
use std::sync::Arc;

type Queue = Rc<RefCell<VecDeque<u8>>>;

/// One endpoint over shared in-memory queues: `WouldBlock` when empty
/// (EOF once `peer_gone`), and with `trickle` one byte per call with a
/// `WouldBlock` before each.
struct Pipe {
    rx: Queue,
    tx: Queue,
    trickle: bool,
    read_ok: bool,
    write_ok: bool,
    peer_gone: bool,
}

fn pipe_pair(trickle: bool) -> (Pipe, Pipe) {
    let (a_to_b, b_to_a) = (Queue::default(), Queue::default());
    let end = |rx: &Queue, tx: &Queue| Pipe {
        rx: rx.clone(),
        tx: tx.clone(),
        trickle,
        read_ok: false,
        write_ok: false,
        peer_gone: false,
    };
    (end(&b_to_a, &a_to_b), end(&a_to_b, &b_to_a))
}

fn would_block() -> io::Error {
    io::Error::new(ErrorKind::WouldBlock, "not now")
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut rx = self.rx.borrow_mut();
        if rx.is_empty() {
            return if self.peer_gone {
                Ok(0)
            } else {
                Err(would_block())
            };
        }
        self.read_ok = !self.read_ok;
        if self.trickle && !self.read_ok {
            return Err(would_block());
        }
        let n = if self.trickle {
            1
        } else {
            buf.len().min(rx.len())
        };
        for (b, byte) in buf.iter_mut().zip(rx.drain(..n)) {
            *b = byte;
        }
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_ok = !self.write_ok;
        if self.trickle && !self.write_ok {
            return Err(would_block());
        }
        let n = if self.trickle { 1 } else { buf.len() };
        self.tx.borrow_mut().extend(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a step ran into.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    /// Wire bytes arrived and were pumped.
    Progress,
    /// Nothing to read.
    WantRead,
    /// The transport took only part of the queued ciphertext.
    WantWrite,
}

/// One side of a session as the reactor holds it.
struct End<S> {
    ssl: Ssl,
    wire: WireBuf,
    sock: S,
    /// Plaintext pumped so far.
    plain: Vec<u8>,
    closed: bool,
}

impl<S: Read + Write> End<S> {
    fn new(config: Arc<SslConfig>, seed: u8, sock: S) -> End<S> {
        End {
            ssl: Ssl::new(config, [seed; 64]),
            wire: WireBuf::new(),
            sock,
            plain: Vec::new(),
            closed: false,
        }
    }

    /// Reads what the transport has, pumps it, pushes what the pump
    /// produced as far as the transport takes it.
    fn step(&mut self) -> Result<Step, TlsError> {
        let io_err = |e: io::Error| TlsError::Io(e.to_string());
        let mut input = Vec::new();
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.sock.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => input.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
        let read = input.len();
        let p = self.ssl.pump(input);
        self.wire.push(p.output);
        self.plain.extend_from_slice(&p.data);
        self.closed |= p.closed;
        if let Some(e) = p.error {
            return Err(e);
        }
        Ok(match self.wire.flush_to(&mut self.sock).map_err(io_err)? {
            FlushOutcome::WantWrite => Step::WantWrite,
            FlushOutcome::Done if read == 0 => Step::WantRead,
            FlushOutcome::Done => Step::Progress,
        })
    }

    /// Encrypts `data` once; later steps carry the ciphertext out.
    fn write(&mut self, data: &[u8]) {
        self.ssl.ssl_write(data).expect("established");
        self.wire.push(self.ssl.take_output());
    }
}

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("RootCA", &[0x33; 32])
}

fn pair<S: Read + Write>(ct: S, st: S) -> (End<S>, End<S>) {
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
    (
        End::new(SslConfig::client(vec![ca.root_key()]), 1, ct),
        End::new(SslConfig::server(cert, key), 2, st),
    )
}

/// Steps both ends until both are established with nothing left to
/// send. `Ok(None)` when the budget ran out first (a stalled link);
/// otherwise how many steps pumped a partial read and how many parked
/// on a partial write on the way.
fn drive_handshake<S: Read + Write>(
    client: &mut End<S>,
    server: &mut End<S>,
) -> Result<Option<(u32, u32)>, TlsError> {
    let (mut reads, mut write_parks) = (0u32, 0u32);
    for _ in 0..200_000 {
        let mut quiet = true;
        for side in [&mut *client, &mut *server] {
            match side.step()? {
                Step::WantRead => continue,
                Step::Progress => reads += 1,
                Step::WantWrite => write_parks += 1,
            }
            quiet = false;
        }
        if quiet && client.ssl.is_established() && server.ssl.is_established() {
            return Ok(Some((reads, write_parks)));
        }
    }
    Ok(None)
}

/// Sends `payload` from `from` to `to` and returns what arrived, plus
/// how often the sender parked on a full transport.
fn transfer<S: Read + Write>(
    from: &mut End<S>,
    to: &mut End<S>,
    payload: &[u8],
) -> Result<(Vec<u8>, u32), TlsError> {
    from.write(payload);
    let mut write_waits = 0;
    for _ in 0..2_000_000 {
        if from.step()? == Step::WantWrite {
            write_waits += 1;
        }
        to.step()?;
        if to.plain.len() >= payload.len() {
            break;
        }
    }
    Ok((std::mem::take(&mut to.plain), write_waits))
}

#[test]
fn handshake_resumes_at_every_byte_in_both_directions() {
    let (ct, st) = pipe_pair(true);
    let (mut client, mut server) = pair(ct, st);
    let (reads, write_parks) = drive_handshake(&mut client, &mut server)
        .expect("no fatal error")
        .expect("handshake must converge");
    // A multi-record handshake forced through a 1-byte transport was
    // pumped a byte at a time and parked on a full transport many
    // times, in both directions.
    assert!(reads > 50, "only {reads} partial reads pumped");
    assert!(
        write_parks > 50,
        "only {write_parks} parks on a partial write"
    );
}

#[test]
fn app_data_and_close_resume_across_partial_writes() {
    let (ct, st) = pipe_pair(true);
    let (mut client, mut server) = pair(ct, st);
    drive_handshake(&mut client, &mut server).unwrap().unwrap();

    // Multi-record payload: MAX_RECORD-sized chunking plus the 1-byte
    // transport parks the sender inside every record. It arrives intact
    // only if each record was encrypted once and resumed, not redone.
    let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 253) as u8).collect();
    let (got, write_waits) = transfer(&mut client, &mut server, &payload).unwrap();
    assert_eq!(got, payload);
    assert!(write_waits > 100, "only {write_waits} write waits");

    // Close flows through the same resumable machinery.
    client.ssl.send_close();
    client.wire.push(client.ssl.take_output());
    for _ in 0..100_000 {
        client.step().unwrap();
        server.step().unwrap();
        if server.closed {
            break;
        }
    }
    assert!(server.closed, "close_notify never surfaced");
    assert!(server.plain.is_empty(), "data after close");
}

#[test]
fn bidirectional_interleaved_requests() {
    let (ct, st) = pipe_pair(true);
    let (mut client, mut server) = pair(ct, st);
    drive_handshake(&mut client, &mut server).unwrap().unwrap();
    for round in 0..5u8 {
        let req = vec![round; 700];
        let (got, _) = transfer(&mut client, &mut server, &req).unwrap();
        assert_eq!(got, req);
        // Echo back the other way.
        let (back, _) = transfer(&mut server, &mut client, &got).unwrap();
        assert_eq!(back, req);
    }
}

#[test]
fn a_rejected_certificate_is_the_pump_s_typed_error() {
    let rogue = CertificateAuthority::new("RogueCA", &[0x44; 32]);
    let (key, cert) = rogue.issue_identity("localhost", &[4u8; 32]).unwrap();
    let (ct, st) = pipe_pair(true);
    let mut client = End::new(SslConfig::client(vec![ca().root_key()]), 1, ct);
    let mut server = End::new(SslConfig::server(cert, key), 2, st);
    // The per-reason counter sits on the choke point `pump` goes
    // through; no other test of this binary fails a verification.
    let counted = || libseal_telemetry::counter("tlsx_verify_failures_total_untrusted_ca").get();
    let before = counted();
    let verdict = drive_handshake(&mut client, &mut server);
    assert_eq!(
        verdict,
        Err(TlsError::Verification(VerifyFailure::UntrustedCa))
    );
    assert!(!client.ssl.is_established());
    assert_eq!(counted(), before + 1);
}

/// A key share of small order makes the X25519 secret all-zero whatever
/// the receiver's ephemeral key, so the sender alone would fix the
/// traffic keys. Each role refuses the hello that carries one, with its
/// own typed reason and counter, before any key exists.
#[test]
fn a_small_order_key_share_is_refused_by_either_role() {
    let (key, cert) = ca().issue_identity("localhost", &[4u8; 32]).unwrap();
    let client_cfg = || SslConfig::client(vec![ca().root_key()]);
    let server_cfg = || SslConfig::server(cert.clone(), key.clone());
    // An honest ClientHello and the honest flight answering it. Both
    // hellos travel in the clear: a 3-byte record header, a 4-byte
    // handshake header, the 32-byte share.
    let mut honest = (
        Ssl::new(client_cfg(), [1; 64]),
        Ssl::new(server_cfg(), [2; 64]),
    );
    honest.0.do_handshake().unwrap();
    let client_hello = honest.0.take_output();
    honest.1.provide_input(&client_hello);
    honest.1.do_handshake().unwrap();
    let server_flight = honest.1.take_output();
    assert_eq!(client_hello.len(), 7 + 32);

    // u = 0, 1, p - 1, the non-canonical p and p + 1, and the two
    // points of order 8.
    let mut p_minus_1 = [0xffu8; 32];
    (p_minus_1[0], p_minus_1[31]) = (0xec, 0x7f);
    let mut shares = [
        [0u8; 32], [0u8; 32], p_minus_1, p_minus_1, p_minus_1, [0; 32], [0; 32],
    ];
    (shares[1][0], shares[3][0], shares[4][0]) = (1, 0xed, 0xee);
    let order_8 = [
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
    ];
    for (share, hex) in shares[5..].iter_mut().zip(order_8) {
        for (i, byte) in share.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap();
        }
    }

    let counted = || libseal_telemetry::counter("tlsx_verify_failures_total_weak_key_share").get();
    for share in shares {
        for to_server in [true, false] {
            let before = counted();
            let (mut ssl, mut hello) = match to_server {
                true => (Ssl::new(server_cfg(), [3; 64]), client_hello.clone()),
                false => (Ssl::new(client_cfg(), [1; 64]), server_flight.clone()),
            };
            assert_eq!(ssl.do_handshake(), Ok(false));
            hello[7..39].copy_from_slice(&share);
            ssl.provide_input(&hello);
            let refused = Err(TlsError::Verification(VerifyFailure::WeakKeyShare));
            assert_eq!(ssl.do_handshake(), refused, "{share:02x?} {to_server}");
            assert!(!ssl.is_established());
            assert_eq!(counted(), before + 1, "{share:02x?} {to_server}");
        }
    }
}

#[test]
fn eof_mid_handshake_is_a_typed_close() {
    // The peer hangs up before replying: once the client's hello is
    // out and the transport reports EOF, the blocking client must
    // surface TlsError::Closed, not spin or panic.
    let (mut ct, _gone) = pipe_pair(false);
    ct.peer_gone = true;
    let cfg = SslConfig::client(vec![ca().root_key()]);
    assert!(matches!(
        SslStream::handshake(cfg, [1u8; 64], ct),
        Err(TlsError::Closed)
    ));
}

fn chaos_pair(
    client_cfg: ChaosConfig,
    server_cfg: ChaosConfig,
) -> (End<ChaosStream<Pipe>>, End<ChaosStream<Pipe>>) {
    let (ct, st) = pipe_pair(false);
    pair(
        ChaosStream::new(ct, client_cfg),
        ChaosStream::new(st, server_cfg),
    )
}

#[test]
fn handshake_and_data_survive_shorts_and_stalls() {
    // Heavy but non-fatal chaos on both sides: 30 % short reads/writes
    // and 20 % stalls. The session must establish and deliver the
    // payload intact — faults only slow it down.
    let (mut client, mut server) = chaos_pair(
        ChaosConfig::new(7).shorts(300).stalls(200),
        ChaosConfig::new(11).shorts(300).stalls(200),
    );
    drive_handshake(&mut client, &mut server)
        .expect("no fatal error")
        .expect("handshake must converge under non-fatal chaos");
    let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
    let (got, _) = transfer(&mut client, &mut server, &payload).expect("no fatal error");
    assert_eq!(got, payload, "payload corrupted by chaotic transport");
}

#[test]
fn chaos_schedule_is_deterministic_end_to_end() {
    // Same seeds => identical outcome, including how many transport
    // ops the handshake needed. This is what makes chaos regressions
    // reproducible in CI.
    let run = || {
        let (mut client, mut server) = chaos_pair(
            ChaosConfig::new(42).shorts(250).stalls(150),
            ChaosConfig::new(43).shorts(250).stalls(150),
        );
        let wants = drive_handshake(&mut client, &mut server).expect("no fatal error");
        (wants, client.sock.ops(), server.sock.ops())
    };
    assert_eq!(run(), run());
}

#[test]
fn reset_mid_handshake_is_an_error_not_a_panic() {
    // The client's transport dies on its 3rd op — mid-flight. The
    // steps must surface an error (or fail to converge), never panic
    // or report an established session.
    let (mut client, mut server) = chaos_pair(ChaosConfig::new(3).reset_at(3), ChaosConfig::new(4));
    if let Ok(Some(_)) = drive_handshake(&mut client, &mut server) {
        panic!("handshake cannot complete over a reset transport");
    }
}

#[test]
fn truncation_mid_handshake_stalls_cleanly() {
    // The server's transport black-holes everything from its first op
    // (reads hit early end-of-stream, writes vanish). The handshake
    // must stall or fail cleanly, not loop into a panic or a bogus
    // established.
    let (mut client, mut server) =
        chaos_pair(ChaosConfig::new(5), ChaosConfig::new(6).truncate_at(1));
    if let Ok(Some(_)) = drive_handshake(&mut client, &mut server) {
        panic!("handshake cannot complete over a truncated transport");
    }
    assert!(!client.ssl.is_established() || !server.ssl.is_established());
}
