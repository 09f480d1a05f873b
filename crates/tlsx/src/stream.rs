//! STLS over a transport: the wire buffer every driver queues
//! ciphertext in, and the blocking stream clients use.
//!
//! - [`WireBuf`] owns ciphertext until the transport takes it, so a
//!   socket that accepts half a record and then reports `WouldBlock`
//!   resumes where it stopped instead of re-encrypting. The reactor
//!   keeps one per connection behind [`Ssl::pump`]; [`SslStream`] keeps
//!   one too.
//! - [`SslStream`] drives [`Ssl::pump`] over a blocking `Read + Write`
//!   transport. A transport that would block mid-write yields
//!   [`TlsError::WantWrite`] with the unsent ciphertext retained — the
//!   next `write_all`/`flush_pending` resumes.
//!
//! Both retry `ErrorKind::Interrupted` (EINTR) everywhere; a signal
//! delivery must never tear down a session.

use std::io::{self, ErrorKind, Read, Write};
use std::sync::Arc;

use crate::record;
use crate::ssl::{Ssl, SslConfig};
use crate::{Result, TlsError};

/// Outcome of a [`WireBuf::flush_to`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Everything buffered reached the transport.
    Done,
    /// The transport would block; unsent bytes remain buffered.
    WantWrite,
}

/// Ciphertext awaiting transmission, resumable across partial writes.
///
/// A non-blocking socket can accept half a TLS record and then return
/// `WouldBlock`; re-encrypting on retry would corrupt the record
/// stream (sequence-number nonces). This buffer owns the wire bytes
/// until the kernel takes them, retrying EINTR and compacting lazily.
#[derive(Default)]
pub struct WireBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WireBuf {
    /// An empty buffer.
    pub fn new() -> WireBuf {
        WireBuf::default()
    }

    /// Queues `bytes` behind whatever is still unsent; with nothing
    /// unsent, `bytes` becomes the buffer and nothing is copied.
    pub fn push(&mut self, bytes: Vec<u8>) {
        if self.is_empty() {
            (self.buf, self.pos) = (bytes, 0);
            return;
        }
        // Compact before growing so pos never drifts unboundedly.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(&bytes);
    }

    /// Unsent byte count.
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when nothing awaits transmission.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Writes as much as the transport accepts. EINTR is retried;
    /// `WouldBlock` returns [`FlushOutcome::WantWrite`] with the
    /// remainder kept for the next call.
    ///
    /// # Errors
    ///
    /// Transport errors other than EINTR/WouldBlock.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<FlushOutcome> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "transport accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(FlushOutcome::WantWrite),
                Err(e) => return Err(e),
            }
        }
        // Freed now rather than at the next push, which adopts a buffer
        // of its own: a connection between messages holds none.
        (self.buf, self.pos) = (Vec::new(), 0);
        loop {
            match w.flush() {
                Ok(()) => return Ok(FlushOutcome::Done),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Bytes are with the OS; nothing left for us to hold.
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(FlushOutcome::Done),
                Err(e) => return Err(e),
            }
        }
    }
}

fn io_err(e: io::Error) -> TlsError {
    TlsError::Io(e.to_string())
}

/// A blocking STLS connection over `S` (typically a `TcpStream`).
pub struct SslStream<S: Read + Write> {
    ssl: Ssl,
    stream: S,
    pending: WireBuf,
    /// Plaintext a pump decrypted that `read_some` has not returned yet
    /// (application data can share a read with the handshake's tail).
    plain: Vec<u8>,
    /// The peer sent close_notify.
    peer_closed: bool,
}

impl<S: Read + Write> SslStream<S> {
    /// Performs a full handshake over `stream`.
    ///
    /// # Errors
    ///
    /// Handshake failures and transport I/O errors;
    /// [`TlsError::Closed`] when the peer hangs up mid-handshake.
    pub fn handshake(config: Arc<SslConfig>, entropy: [u8; 64], stream: S) -> Result<Self> {
        let mut tls = SslStream {
            ssl: Ssl::new(config, entropy),
            stream,
            pending: WireBuf::new(),
            plain: Vec::new(),
            peer_closed: false,
        };
        // A client's first pump queues its hello.
        tls.pump(Vec::new())?;
        while !tls.ssl.is_established() {
            tls.fill()?;
        }
        // Send any trailing flight (e.g. the client Finished).
        tls.flush_pending()?;
        Ok(tls)
    }

    /// One [`Ssl::pump`]: keeps what it decrypted, queues what it
    /// produced — both by taking the pump's buffers when nothing is
    /// held already.
    fn pump(&mut self, input: Vec<u8>) -> Result<()> {
        let p = self.ssl.pump(input);
        if self.plain.is_empty() {
            self.plain = p.data;
        } else {
            self.plain.extend_from_slice(&p.data);
        }
        self.peer_closed |= p.closed;
        self.pending.push(p.output);
        p.error.map_or(Ok(()), Err)
    }

    /// Sends what is queued, blocks for wire bytes and pumps them.
    fn fill(&mut self) -> Result<()> {
        self.flush_pending()?;
        // Room for one whole record as it travels: with 16 KiB, every
        // full record the peer writes would straddle two reads, and its
        // first part would be copied aside until the second came.
        let mut buf = vec![0u8; record::HEADER + record::MAX_RECORD + record::TAG];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(TlsError::Closed),
                Ok(n) => {
                    buf.truncate(n);
                    return self.pump(buf);
                }
                // A signal interrupted the read; the session is fine.
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // On a blocking socket WouldBlock means the read timeout
                // elapsed — surface it, don't spin.
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Encrypts and sends `data`. If an earlier call left unsent
    /// ciphertext (see [`TlsError::WantWrite`]), that is flushed
    /// first; `data` is encrypted exactly once either way.
    ///
    /// # Errors
    ///
    /// Protocol or transport failures; [`TlsError::WantWrite`] when
    /// the transport would block (ciphertext retained for resume).
    pub fn write_all(&mut self, data: &[u8]) -> Result<()> {
        self.write_all_parts(&[data])
    }

    /// [`SslStream::write_all`] for data given as a chain of slices (a
    /// message's head and its body): sealed as their concatenation
    /// would be ([`Ssl::ssl_write_parts`]), without building it.
    ///
    /// # Errors
    ///
    /// As [`SslStream::write_all`].
    pub fn write_all_parts(&mut self, parts: &[&[u8]]) -> Result<()> {
        self.ssl.ssl_write_parts(parts)?;
        self.flush_pending()
    }

    /// Transmits queued ciphertext, including what a previous call
    /// could not fully send.
    ///
    /// # Errors
    ///
    /// As [`SslStream::write_all`].
    pub fn flush_pending(&mut self) -> Result<()> {
        self.pending.push(self.ssl.take_output());
        if self.pending.is_empty() {
            return Ok(());
        }
        match self.pending.flush_to(&mut self.stream).map_err(io_err)? {
            FlushOutcome::Done => Ok(()),
            FlushOutcome::WantWrite => Err(TlsError::WantWrite),
        }
    }

    /// Receives and decrypts the next chunk of application data.
    ///
    /// # Errors
    ///
    /// [`TlsError::Closed`] on clean close; other variants on failure.
    pub fn read_some(&mut self) -> Result<Vec<u8>> {
        loop {
            if !self.plain.is_empty() {
                return Ok(std::mem::take(&mut self.plain));
            }
            if self.peer_closed {
                return Err(TlsError::Closed);
            }
            self.fill()?;
        }
    }

    /// Reads until `pred` says the accumulated buffer is complete.
    ///
    /// # Errors
    ///
    /// As [`SslStream::read_some`].
    pub fn read_until(
        &mut self,
        buf: &mut Vec<u8>,
        mut pred: impl FnMut(&[u8]) -> bool,
    ) -> Result<()> {
        while !pred(buf) {
            let chunk = self.read_some()?;
            buf.extend_from_slice(&chunk);
        }
        Ok(())
    }

    /// Sends close_notify and flushes.
    pub fn close(&mut self) {
        self.ssl.send_close();
        let _ = self.flush_pending();
    }

    /// The inner protocol state.
    pub fn ssl(&self) -> &Ssl {
        &self.ssl
    }

    /// The underlying transport.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn tcp_echo_roundtrip() {
        let ca = CertificateAuthority::new("RootCA", &[0x33; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let server_cfg = SslConfig::server(cert, key);
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut tls = SslStream::handshake(server_cfg, [9u8; 64], sock).unwrap();
            let data = tls.read_some().unwrap();
            tls.write_all(&data).unwrap();
        });

        let client_cfg = SslConfig::client(vec![ca.root_key()]);
        let sock = TcpStream::connect(addr).unwrap();
        let mut tls = SslStream::handshake(client_cfg, [7u8; 64], sock).unwrap();
        tls.write_all(b"ping over tcp").unwrap();
        let echoed = tls.read_some().unwrap();
        assert_eq!(echoed, b"ping over tcp");
        handle.join().unwrap();
    }

    #[test]
    fn large_payload_over_tcp() {
        let ca = CertificateAuthority::new("RootCA", &[0x33; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();

        let server_cfg = SslConfig::server(cert, key);
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut tls = SslStream::handshake(server_cfg, [9u8; 64], sock).unwrap();
            tls.write_all(&payload).unwrap();
            tls.close();
        });

        let client_cfg = SslConfig::client(vec![ca.root_key()]);
        let sock = TcpStream::connect(addr).unwrap();
        let mut tls = SslStream::handshake(client_cfg, [7u8; 64], sock).unwrap();
        let mut got = Vec::new();
        loop {
            match tls.read_some() {
                Ok(d) => got.extend_from_slice(&d),
                Err(TlsError::Closed) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, expected);
        handle.join().unwrap();
    }

    /// A transport that fails reads/writes with EINTR on a schedule:
    /// the wrappers must ride through every one of them.
    struct Flaky<S> {
        inner: S,
        countdown: u32,
        every: u32,
    }

    impl<S> Flaky<S> {
        fn new(inner: S, every: u32) -> Self {
            Flaky {
                inner,
                countdown: every,
                every,
            }
        }

        fn interrupt_now(&mut self) -> bool {
            if self.countdown == 0 {
                self.countdown = self.every;
                true
            } else {
                self.countdown -= 1;
                false
            }
        }
    }

    impl<S: Read> Read for Flaky<S> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_now() {
                return Err(io::Error::new(ErrorKind::Interrupted, "signal"));
            }
            self.inner.read(buf)
        }
    }

    impl<S: Write> Write for Flaky<S> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupt_now() {
                return Err(io::Error::new(ErrorKind::Interrupted, "signal"));
            }
            // Partial writes too: at most 7 bytes per call.
            let n = buf.len().min(7);
            self.inner.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.interrupt_now() {
                return Err(io::Error::new(ErrorKind::Interrupted, "signal"));
            }
            self.inner.flush()
        }
    }

    #[test]
    fn eintr_and_partial_writes_are_survived() {
        let ca = CertificateAuthority::new("RootCA", &[0x33; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let server_cfg = SslConfig::server(cert, key);
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let flaky = Flaky::new(sock, 2);
            let mut tls = SslStream::handshake(server_cfg, [9u8; 64], flaky).unwrap();
            let mut req = Vec::new();
            tls.read_until(&mut req, |b| b.len() >= 1000).unwrap();
            tls.write_all(&req).unwrap();
        });

        let client_cfg = SslConfig::client(vec![ca.root_key()]);
        let sock = TcpStream::connect(addr).unwrap();
        let flaky = Flaky::new(sock, 3);
        let mut tls = SslStream::handshake(client_cfg, [7u8; 64], flaky).unwrap();
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 241) as u8).collect();
        tls.write_all(&payload).unwrap();
        let mut got = Vec::new();
        tls.read_until(&mut got, |b| b.len() >= 1000).unwrap();
        assert_eq!(got, payload);
        handle.join().unwrap();
    }

    #[test]
    fn wirebuf_resumes_after_partial_write() {
        struct OneByte {
            taken: Vec<u8>,
            budget: usize,
        }
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(ErrorKind::WouldBlock, "full"));
                }
                self.budget -= 1;
                self.taken.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut w = WireBuf::new();
        w.push(b"hello world".to_vec());
        let mut sink = OneByte {
            taken: Vec::new(),
            budget: 4,
        };
        assert_eq!(w.flush_to(&mut sink).unwrap(), FlushOutcome::WantWrite);
        assert_eq!(w.len(), 7);
        // More data queued behind the unsent remainder keeps order.
        w.push(b"!".to_vec());
        sink.budget = 100;
        assert_eq!(w.flush_to(&mut sink).unwrap(), FlushOutcome::Done);
        assert_eq!(sink.taken, b"hello world!");
        assert!(w.is_empty());
    }
}
