//! `SslStream`, the blocking client driver, reads from its socket in
//! whole records: every read offers room for the largest record as it
//! travels (header, 16 KiB payload, tag), so a full record the peer
//! writes is never split across two reads and copied aside in between.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};

use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::record::{HEADER, MAX_RECORD, TAG};
use libseal_tlsx::ssl::SslConfig;
use libseal_tlsx::stream::SslStream;

/// A transport that notes how many bytes each read offers room for.
struct Offers<S> {
    inner: S,
    offered: Vec<usize>,
}

impl<S: Read> Read for Offers<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.offered.push(buf.len());
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Offers<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn every_read_has_room_for_a_whole_record() {
    let ca = CertificateAuthority::new("RootCA", &[0x33; 32]);
    let (key, cert) = ca.issue_identity("localhost", &[4u8; 32]).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let body: Vec<u8> = (0..3 * MAX_RECORD).map(|i| i as u8).collect();
    let sent = body.clone();
    let server = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        let cfg = SslConfig::server(cert, key);
        let mut tls = SslStream::handshake(cfg, [9u8; 64], sock).unwrap();
        tls.write_all(&sent).unwrap();
    });
    let sock = Offers {
        inner: TcpStream::connect(addr).unwrap(),
        offered: Vec::new(),
    };
    let cfg = SslConfig::client(vec![ca.root_key()]);
    let mut tls = SslStream::handshake(cfg, [7u8; 64], sock).unwrap();
    let mut got = Vec::new();
    tls.read_until(&mut got, |b| b.len() >= body.len()).unwrap();
    assert!(got == body);
    server.join().unwrap();
    let offered = &tls.get_ref().offered;
    assert!(
        offered.iter().all(|&n| n >= HEADER + MAX_RECORD + TAG),
        "{offered:?}"
    );
}
