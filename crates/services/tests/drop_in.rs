//! The §4.1 claim as a property: LibSEAL is a drop-in replacement for
//! the TLS library, so a client cannot tell from the plaintext it
//! receives, or from how the connection ends, which library — native
//! STLS, LibSEAL without a service module, LibSEAL auditing Git — or
//! which driver served it.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use libseal::{GitModule, LibSeal, LibSealConfig};
use libseal_httpx::http::Request;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::SslConfig;
use libseal_tlsx::stream::SslStream;
use libseal_tlsx::TlsError;

use libseal_services::apache::{ApacheConfig, ApacheServer};
use libseal_services::git::GitBackend;
use libseal_services::TlsMode;

mod common;
use common::for_each_driver;

/// One scripted keep-alive exchange: a push on its own, then two
/// fetches pipelined in a single write, the second asking for the
/// connection to close. Returns every plaintext byte the server sent
/// and how the stream ended.
fn exchange(server: &ApacheServer, ca: &CertificateAuthority) -> (Vec<u8>, TlsError) {
    let sock = TcpStream::connect(server.addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let cfg = SslConfig::client(vec![ca.root_key()]);
    let mut tls = SslStream::handshake(cfg, [0x5a; 64], sock).unwrap();

    let push = Request::new(
        "POST",
        "/repo/proj/git-receive-pack",
        b"0 c1 refs/heads/main\n".to_vec(),
    );
    let fetch = Request::new(
        "GET",
        "/repo/proj/info/refs?service=git-upload-pack",
        Vec::new(),
    );
    let mut last = fetch.clone();
    last.headers.insert("Connection", "close");

    let mut seen = Vec::new();
    tls.write_all(&push.to_bytes()).unwrap();
    while libseal_httpx::http::parse_response(&seen).is_err() {
        seen.extend_from_slice(&tls.read_some().unwrap());
    }
    tls.write_all(&[fetch.to_bytes(), last.to_bytes()].concat())
        .unwrap();
    loop {
        match tls.read_some() {
            Ok(d) => seen.extend_from_slice(&d),
            Err(end) => return (seen, end),
        }
    }
}

#[test]
fn every_plane_under_every_driver_serves_the_same_bytes() {
    let ca = CertificateAuthority::new("DropInCA", &[0x71; 32]);
    let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
    let libseal = |audited: bool| {
        let mut cfg = LibSealConfig::builder(cert.clone(), key.clone())
            .cost_model(CostModel::free())
            .check_interval(0);
        if audited {
            cfg = cfg.ssm(Arc::new(GitModule));
        }
        LibSeal::new(cfg.build()).unwrap()
    };
    let runs = std::cell::RefCell::new(Vec::new());
    for_each_driver(|event| {
        let audited = libseal(true);
        let modes = [
            (
                "native",
                TlsMode::Native {
                    cert: cert.clone(),
                    key: key.clone(),
                },
            ),
            ("libseal, no ssm", TlsMode::LibSeal(libseal(false))),
            ("libseal + git ssm", TlsMode::LibSeal(audited.clone())),
        ];
        for (mode, tls) in modes {
            let router = Arc::new(Arc::new(GitBackend::new()));
            let server =
                ApacheServer::start(ApacheConfig::new(tls, router).workers(2).event_loop(event))
                    .unwrap();
            let run = exchange(&server, &ca);
            assert_eq!(server.requests_served(), 3, "{mode}, event={event}");
            server.stop();
            runs.borrow_mut().push((mode, event, run));
        }
        // The audited plane did audit the exchange it was invisible in:
        // one update and two one-branch advertisements.
        assert_eq!(audited.log_stats(0).unwrap().0, 3, "event={event}");
        audited.verify_log(0).unwrap();
    });

    let runs = runs.into_inner();
    let (_, _, (reference, end)) = &runs[0];
    assert_eq!(
        reference.windows(8).filter(|w| w == b"HTTP/1.1").count(),
        3,
        "three responses: {:?}",
        String::from_utf8_lossy(reference)
    );
    assert_eq!(*end, TlsError::Closed);
    for (mode, event, run) in &runs {
        assert_eq!(
            run,
            &(reference.clone(), TlsError::Closed),
            "{mode}, event={event}"
        );
    }
}
