//! The connection engine serving real TLS traffic. What is engine
//! behaviour — keep-alive, explicit close, 400 on garbage, Squid's
//! upstream leg — runs under both drivers; what only the reactor does
//! — batched enclave pumps, its idle-eviction counter, hundreds of
//! parked sessions on one thread — is skipped where there is no epoll.

use std::sync::Arc;
use std::time::Duration;

use libseal::{GitModule, LibSeal, LibSealConfig};
use libseal_crypto::ed25519::VerifyingKey;
use libseal_httpx::http::Request;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::git::GitBackend;
use libseal_services::squid::{SquidConfig, SquidProxy};
use libseal_services::{HttpsClient, TlsMode};

mod common;
use common::for_each_driver;

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("TestRootCA", &[0x77; 32])
}

fn native_tls(ca: &CertificateAuthority) -> (TlsMode, Vec<VerifyingKey>) {
    let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
    (TlsMode::Native { cert, key }, vec![ca.root_key()])
}

fn libseal_tls(
    ca: &CertificateAuthority,
    ssm: Option<Arc<dyn libseal::ServiceModule>>,
) -> (Arc<LibSeal>, Vec<VerifyingKey>) {
    let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
    let mut builder = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .check_interval(0);
    if let Some(ssm) = ssm {
        builder = builder.ssm(ssm);
    }
    (LibSeal::new(builder.build()).unwrap(), vec![ca.root_key()])
}

#[test]
fn native_keep_alive_roundtrips() {
    for_each_driver(|event| {
        let ca = ca();
        let (tls, roots) = native_tls(&ca);
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event),
        )
        .unwrap();
        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let mut conn = client.connect().unwrap();
        for i in 1..=8 {
            let rsp = conn
                .request(&Request::new(
                    "GET",
                    &format!("/content/{}", i * 16),
                    Vec::new(),
                ))
                .unwrap();
            assert_eq!(rsp.status, 200);
            assert_eq!(rsp.body.len(), i * 16);
        }
        conn.close();
        server.stop();
    });
}

#[test]
fn libseal_sessions_batch_through_one_reactor() {
    if !plat::reactor::supported() {
        return;
    }
    let ca = ca();
    let (ls, roots) = libseal_tls(&ca, Some(Arc::new(GitModule)));
    let backend = Arc::new(GitBackend::new());
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(backend)).workers(2),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");

    // Several persistent clients interleaving audited pushes: every
    // request decrypts inside the enclave via the batched pump.
    let mut conns: Vec<_> = (0..4).map(|_| client.connect().unwrap()).collect();
    for round in 0..3u64 {
        for (c, conn) in conns.iter_mut().enumerate() {
            let rsp = conn
                .request(&Request::new(
                    "POST",
                    &format!("/repo/r{c}/git-receive-pack"),
                    format!("0 c{round} refs/heads/main\n").into_bytes(),
                ))
                .unwrap();
            assert_eq!(rsp.status, 200);
        }
    }
    for conn in &mut conns {
        conn.close();
    }
    // The audit log held together across the batched transitions.
    ls.verify_log(0).unwrap();
    server.stop();
}

#[test]
fn connection_close_is_honored() {
    for_each_driver(|event| {
        let ca = ca();
        let (tls, roots) = native_tls(&ca);
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(1)
                .event_loop(event),
        )
        .unwrap();

        // Speak TLS by hand so we can watch the close happen.
        let sock = std::net::TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let cfg = libseal_tlsx::ssl::SslConfig::client(roots);
        let mut tls = libseal_tlsx::stream::SslStream::handshake(cfg, [0x5a; 64], sock).unwrap();
        let mut req = Request::new("GET", "/content/32", Vec::new());
        req.headers.insert("Connection", "close");
        tls.write_all(&req.to_bytes()).unwrap();
        let mut buf = Vec::new();
        let rsp = loop {
            if let Ok((rsp, _)) = libseal_httpx::http::parse_response(&buf) {
                break rsp;
            }
            match tls.read_some() {
                Ok(d) => buf.extend_from_slice(&d),
                Err(e) => panic!("expected a response before close, got {e}"),
            }
        };
        assert_eq!(rsp.status, 200);
        // After the response drains the server closes the session.
        assert!(matches!(
            tls.read_some(),
            Err(libseal_tlsx::TlsError::Closed) | Ok(_)
        ));
        server.stop();
    });
}

#[test]
fn idle_sessions_are_evicted() {
    if !plat::reactor::supported() {
        return;
    }
    let evictions = libseal_telemetry::counter("services_event_idle_evictions_total");
    let before = evictions.get();

    let ca = ca();
    let (tls, roots) = native_tls(&ca);
    let server = ApacheServer::start(
        ApacheConfig::new(tls, Arc::new(StaticContentRouter))
            .workers(1)
            .idle_timeout(Duration::from_millis(100)),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    let mut conn = client.connect().unwrap();
    let rsp = conn
        .request(&Request::new("GET", "/content/16", Vec::new()))
        .unwrap();
    assert_eq!(rsp.status, 200);

    // Park past the idle deadline: the reactor evicts the session.
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        conn.request(&Request::new("GET", "/content/16", Vec::new()))
            .is_err(),
        "request on an evicted session should fail"
    );
    assert!(
        evictions.get() > before,
        "eviction counter should have ticked"
    );
    server.stop();
}

#[test]
fn many_idle_sessions_survive_active_load() {
    if !plat::reactor::supported() {
        return;
    }
    const IDLE: usize = 300;
    let ca = ca();
    let (tls, roots) = native_tls(&ca);
    let server =
        ApacheServer::start(ApacheConfig::new(tls, Arc::new(StaticContentRouter)).workers(2))
            .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");

    // Register a crowd of established-but-idle sessions.
    let mut idle: Vec<_> = (0..IDLE)
        .map(|_| {
            let mut c = client.connect().unwrap();
            let rsp = c
                .request(&Request::new("GET", "/content/8", Vec::new()))
                .unwrap();
            assert_eq!(rsp.status, 200);
            c
        })
        .collect();
    let open = libseal_telemetry::gauge("services_event_open_connections").get();
    assert!(
        open >= IDLE as i64,
        "reactor should report >= {IDLE} open connections, saw {open}"
    );

    // Active load while the crowd sits parked.
    let mut active = client.connect().unwrap();
    for i in 1..=50 {
        let rsp = active
            .request(&Request::new(
                "GET",
                &format!("/content/{}", (i % 9) * 32),
                Vec::new(),
            ))
            .unwrap();
        assert_eq!(rsp.status, 200);
    }
    active.close();

    // Every parked session is still alive and serviceable.
    for conn in &mut idle {
        let rsp = conn
            .request(&Request::new("GET", "/content/24", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
        assert_eq!(rsp.body.len(), 24);
    }
    for conn in &mut idle {
        conn.close();
    }
    server.stop();
}

#[test]
fn malformed_bytes_get_400_and_metric() {
    for_each_driver(|event| {
        let malformed = libseal_telemetry::counter("services_apache_malformed_requests_total");
        let before = malformed.get();

        let ca = ca();
        let (tls, roots) = native_tls(&ca);
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(1)
                .event_loop(event),
        )
        .unwrap();
        let sock = std::net::TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let cfg = libseal_tlsx::ssl::SslConfig::client(roots.clone());
        let mut tls = libseal_tlsx::stream::SslStream::handshake(cfg, [0x6b; 64], sock).unwrap();
        tls.write_all(b"DEFINITELY NOT HTTP\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let rsp = loop {
            if let Ok((rsp, _)) = libseal_httpx::http::parse_response(&buf) {
                break rsp;
            }
            match tls.read_some() {
                Ok(d) => buf.extend_from_slice(&d),
                Err(e) => panic!("expected a 400 before close, got {e}"),
            }
        };
        assert_eq!(rsp.status, 400);
        assert!(malformed.get() > before);

        // The listener is unharmed: a fresh, well-formed request works.
        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let rsp = client
            .request(&Request::new("GET", "/content/64", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
        server.stop();
    });
}

#[test]
fn squid_proxies_to_origin() {
    for_each_driver(|event| {
        let ca = ca();
        let (origin_tls, origin_roots) = native_tls(&ca);
        let origin = ApacheServer::start(
            ApacheConfig::new(origin_tls, Arc::new(StaticContentRouter)).workers(2),
        )
        .unwrap();

        let (ls, roots) = libseal_tls(&ca, None);
        let proxy = SquidProxy::start(
            SquidConfig::new(
                TlsMode::LibSeal(ls),
                origin.addr(),
                origin_roots,
                "localhost",
            )
            .workers(2)
            .event_loop(event),
        )
        .unwrap();

        let client = HttpsClient::new(proxy.addr(), roots, "localhost");
        let mut conn = client.connect().unwrap();
        for i in 1..=5 {
            let rsp = conn
                .request(&Request::new(
                    "GET",
                    &format!("/content/{}", i * 100),
                    Vec::new(),
                ))
                .unwrap();
            assert_eq!(rsp.status, 200);
            assert_eq!(rsp.body.len(), i * 100);
        }
        conn.close();
        proxy.stop();
        origin.stop();
    });
}

/// With the origin down the proxy answers 502 and keeps the client
/// connection; the next request redials. A 502 of the proxy's own is
/// not a proxied request. (The blocking driver used to drop the client
/// connection instead.)
#[test]
fn squid_answers_502_while_origin_is_down() {
    for_each_driver(|event| {
        let ca = ca();
        let (origin_tls, origin_roots) = native_tls(&ca);
        let origin = ApacheServer::start(
            ApacheConfig::new(origin_tls, Arc::new(StaticContentRouter)).workers(1),
        )
        .unwrap();
        let (tls, roots) = native_tls(&ca);
        let proxy = SquidProxy::start(
            SquidConfig::new(tls, origin.addr(), origin_roots, "localhost")
                .workers(1)
                .event_loop(event),
        )
        .unwrap();

        let client = HttpsClient::new(proxy.addr(), roots, "localhost");
        let mut conn = client.connect().unwrap();
        let req = Request::new("GET", "/content/64", Vec::new());
        assert_eq!(conn.request(&req).unwrap().status, 200);

        origin.stop();
        // First the dead upstream leg, then refused redials.
        for _ in 0..3 {
            let rsp = conn
                .request(&req)
                .unwrap_or_else(|e| panic!("client connection dropped (event={event}): {e}"));
            assert_eq!(rsp.status, 502, "event={event}");
        }
        // A request is reported before the connection's next one is
        // read, so all but the last 502 have been accounted for.
        assert_eq!(proxy.requests_proxied(), 1, "a 502 was counted as proxied");
        conn.close();
        proxy.stop();
    });
}
