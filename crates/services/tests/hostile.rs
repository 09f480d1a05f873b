//! Hostile-network hardening: slowloris eviction, request-size
//! limits, load shedding at the connection cap, and graceful drain —
//! each against both drivers, and the cases that do not need a
//! particular service against both implementations of the session
//! surface (native STLS, an audited plane).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use libseal::{DropboxModule, GitModule, LibSeal, LibSealConfig, LogBacking, OwnCloudModule};
use libseal_crypto::ed25519::VerifyingKey;
use libseal_httpx::http::{Limits, Request, Response};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{ReadOutcome, Ssl, SslConfig};
use libseal_tlsx::stream::SslStream;

use libseal_services::apache::{
    ApacheConfig, ApacheServer, DelayRouter, FnRouter, Router, StaticContentRouter,
};
use libseal_services::dropbox::DropboxServer;
use libseal_services::git::{GitBackend, HistoryGenerator};
use libseal_services::owncloud::OwnCloudServer;
use libseal_services::{HttpsClient, TlsMode};

mod common;
use common::for_each_driver;

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("HostileCA", &[0x77; 32])
}

/// Both implementations of the session surface the drivers program
/// against: the native library and an audited (Git) plane.
fn planes(ca: &CertificateAuthority) -> [(&'static str, TlsMode); 2] {
    let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
    let audited = LibSealConfig::builder(cert.clone(), key.clone())
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .build();
    [
        ("native", TlsMode::Native { cert, key }),
        ("audited", TlsMode::LibSeal(LibSeal::new(audited).unwrap())),
    ]
}

/// Runs `test` under each driver against each plane, with the CA
/// roots a client needs.
fn for_each_plane(test: impl Fn(bool, TlsMode, Vec<VerifyingKey>)) {
    for_each_driver(|event| {
        let ca = ca();
        for (plane, tls) in planes(&ca) {
            eprintln!("case: event={event} plane={plane}");
            test(event, tls, vec![ca.root_key()]);
        }
    });
}

/// Raw TLS connection for sending hand-crafted (partial, oversized)
/// plaintext the high-level client refuses to produce.
fn tls_connect(addr: std::net::SocketAddr, roots: Vec<VerifyingKey>) -> SslStream<TcpStream> {
    let sock = TcpStream::connect(addr).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut entropy = [0u8; 64];
    plat::entropy::fill(&mut entropy);
    SslStream::handshake(SslConfig::client(roots), entropy, sock).unwrap()
}

/// The status of the one response `conn` still delivers, if any.
fn read_status(conn: &mut SslStream<TcpStream>) -> Option<u16> {
    let mut buf = Vec::new();
    loop {
        buf.extend_from_slice(&conn.read_some().ok()?);
        if let Ok((rsp, _)) = libseal_httpx::http::parse_response(&buf) {
            return Some(rsp.status);
        }
    }
}

fn counter(name: &'static str) -> u64 {
    libseal_telemetry::counter(name).get()
}

/// A socket that connects and then sends nothing must be evicted at
/// the handshake deadline, under both drivers.
#[test]
fn slowloris_handshake_is_evicted() {
    for_each_plane(|event, tls, roots| {
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                .handshake_timeout(Duration::from_millis(200)),
        )
        .unwrap();
        let evictions = "services_handshake_timeouts_total";
        let before = counter(evictions);

        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Say nothing. The server must close us at the deadline.
        let mut buf = [0u8; 64];
        let started = Instant::now();
        loop {
            match sock.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "server never evicted the silent handshake (event={event})"
            );
        }
        assert!(
            counter(evictions) > before,
            "handshake-timeout counter did not move (event={event})"
        );

        // The server must still serve well-behaved clients.
        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let rsp = client
            .request(&Request::new("GET", "/content/16", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
        server.stop();
    });
}

/// A ClientHello whose X25519 share has small order makes the shared
/// secret all-zero whatever the server's ephemeral key, so the client
/// alone would fix the traffic keys: the server refuses it at the hello
/// (RFC 8446 §7.4.2), on either plane, and keeps serving.
#[test]
fn small_order_key_share_is_refused() {
    for_each_plane(|event, tls, roots| {
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event),
        )
        .unwrap();
        let refusals = "tlsx_verify_failures_total_weak_key_share";
        let before = counter(refusals);

        // An honest ClientHello with its share (the last 32 bytes)
        // replaced by u = 0.
        let mut client = Ssl::new(SslConfig::client(roots.clone()), [9u8; 64]);
        client.do_handshake().unwrap();
        let mut hello = client.take_output();
        let share = hello.len() - 32;
        hello[share..].fill(0);

        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.write_all(&hello).unwrap();
        // The server hangs up instead of waiting for a Finished.
        let started = Instant::now();
        let _ = sock.read_to_end(&mut Vec::new());
        assert!(
            started.elapsed() < Duration::from_secs(4),
            "server kept the handshake open (event={event})"
        );
        assert_eq!(counter(refusals), before + 1, "event={event}");

        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let rsp = client
            .request(&Request::new("GET", "/content/16", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
        server.stop();
    });
}

/// A client that trickles header bytes without ever finishing the
/// head must be evicted at the header deadline — the deadline covers
/// the whole phase, so each byte does not buy more time.
#[test]
fn slowloris_headers_are_evicted() {
    for_each_plane(|event, tls, roots| {
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                .header_timeout(Duration::from_millis(300)),
        )
        .unwrap();
        let mut tls_conn = tls_connect(server.addr(), roots.clone());
        tls_conn
            .write_all(b"GET / HTTP/1.1\r\nHost: x\r\n")
            .unwrap();
        let started = Instant::now();
        let mut evicted = false;
        // Trickle one header byte every 100 ms; the 300 ms phase
        // deadline must still fire.
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(100));
            if tls_conn.write_all(b"y").is_err() || tls_conn.read_some().is_err() {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "trickling client never evicted (event={event})");
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "eviction took far longer than the phase deadline (event={event})"
        );

        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let rsp = client
            .request(&Request::new("GET", "/content/16", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
        server.stop();
    });
}

/// `header_timeout` starts at a request's first byte; a keep-alive
/// connection sitting between requests is bounded by `idle_timeout`
/// only. (The blocking driver used to arm the header deadline before
/// the first byte and evict idle connections with it.)
#[test]
fn idle_keep_alive_outlives_header_timeout() {
    for_each_plane(|event, tls, roots| {
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                .header_timeout(Duration::from_millis(300))
                .idle_timeout(Duration::from_secs(30)),
        )
        .unwrap();
        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let mut conn = client.connect().unwrap();
        let req = Request::new("GET", "/content/16", Vec::new());
        assert_eq!(conn.request(&req).unwrap().status, 200);
        // Longer than the header deadline plus the blocking driver's
        // one-second read tick.
        std::thread::sleep(Duration::from_millis(1500));
        let rsp = conn
            .request(&req)
            .unwrap_or_else(|e| panic!("idle connection was evicted (event={event}): {e}"));
        assert_eq!(rsp.status, 200);
        conn.close();
        server.stop();
    });
}

/// A client that requests a large response and never reads it is
/// evicted at the write deadline instead of pinning its buffers (and,
/// under the blocking driver, its worker) forever.
#[test]
fn slow_reader_is_evicted_at_write_timeout() {
    // More than loopback socket buffers can absorb on both ends.
    const BODY: usize = 40 << 20;
    for_each_plane(|event, tls, roots| {
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                .write_timeout(Duration::from_millis(300)),
        )
        .unwrap();
        let evictions = "services_write_timeouts_total";
        let before = counter(evictions);

        let mut conn = tls_connect(server.addr(), roots.clone());
        let req = Request::new("GET", &format!("/content/{BODY}"), Vec::new());
        conn.write_all(&req.to_bytes()).unwrap();
        let started = Instant::now();
        while counter(evictions) == before {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "write-timeout counter did not move (event={event})"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        // Evicted: what the socket buffers held is all that arrives.
        let mut received = 0;
        while let Ok(d) = conn.read_some() {
            received += d.len();
        }
        assert!(received < BODY, "whole response delivered (event={event})");

        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let rsp = client
            .request(&Request::new("GET", "/content/16", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
        server.stop();
    });
}

/// Oversized heads get 431, oversized declared bodies 413, and the
/// connection closes — under both drivers.
#[test]
fn oversized_requests_get_typed_rejections() {
    for_each_plane(|event, tls, roots| {
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                .http_limits(Limits {
                    max_head_bytes: 1024,
                    max_headers: 16,
                    max_body_bytes: 4096,
                }),
        )
        .unwrap();
        let rejections = counter("services_limit_rejections_total");

        // 431: a single header larger than the whole head budget.
        let mut conn = tls_connect(server.addr(), roots.clone());
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(4 * 1024));
        conn.write_all(huge.as_bytes()).unwrap();
        let status = read_status(&mut conn);
        assert_eq!(status, Some(431), "oversized head (event={event})");

        // 413: a declared body over the budget, rejected before the
        // body is sent.
        let mut conn = tls_connect(server.addr(), roots.clone());
        conn.write_all(b"POST /up HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n")
            .unwrap();
        let status = read_status(&mut conn);
        assert_eq!(status, Some(413), "oversized body (event={event})");
        assert!(counter("services_limit_rejections_total") >= rejections + 2);

        // In-budget requests still work.
        let client = HttpsClient::new(server.addr(), roots, "localhost");
        let rsp = client
            .request(&Request::new("GET", "/content/16", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
        server.stop();
    });
}

/// Holds every `/gate` request until opened.
#[derive(Default)]
struct Gate {
    /// (a request is held, the gate is open)
    state: StdMutex<(bool, bool)>,
    changed: Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.changed.notify_all();
        while !s.1 {
            s = self.changed.wait(s).unwrap();
        }
    }

    fn await_held(&self) {
        let mut s = self.state.lock().unwrap();
        while !s.0 {
            s = self.changed.wait(s).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

/// Opens the gate when dropped, so a failing test does not leave a
/// handler — and the server's shutdown, which joins it — held forever.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A client that keeps pipelining while its connection's handler runs
/// is read no further than one message's limits ahead: the reactor
/// drops the busy connection's read interest (and counts it) until the
/// handler completes, and the blocking driver never reads while busy —
/// so the client's writes stall in the socket buffers instead of piling
/// up as decrypted plaintext in the server, even on a native plane with
/// no audit buffer behind it. Afterwards the connection serves on.
#[test]
fn pipelining_behind_a_busy_handler_stalls_the_client() {
    const PIPELINED: usize = 16 << 20;
    for_each_driver(|event| {
        let ca = ca();
        let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
        let gate = Arc::new(Gate::default());
        let held = Arc::clone(&gate);
        let router = FnRouter(move |req: &Request| {
            if req.path() == "/gate" {
                held.hold();
            }
            Response::new(200, b"ok".to_vec())
        });
        let server = ApacheServer::start(
            ApacheConfig::new(TlsMode::Native { cert, key }, Arc::new(router))
                .workers(2)
                .event_loop(event)
                .http_limits(Limits {
                    max_head_bytes: 1024,
                    max_headers: 16,
                    max_body_bytes: 4096,
                }),
        )
        .unwrap();
        let _release = OpenOnDrop(Arc::clone(&gate));
        let pauses = counter("services_event_read_pauses_total");

        // A raw session, so one thread can write while another reads.
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut client = Ssl::new(SslConfig::client(vec![ca.root_key()]), [5u8; 64]);
        let mut buf = vec![0u8; 64 * 1024];
        while !client.do_handshake().unwrap() {
            sock.write_all(&client.take_output()).unwrap();
            let n = sock.read(&mut buf).unwrap();
            client.provide_input(&buf[..n]);
        }
        client.ssl_write(b"GET /gate HTTP/1.1\r\n\r\n").unwrap();
        sock.write_all(&client.take_output()).unwrap();
        gate.await_held();

        // Small complete requests, far more than the socket buffers
        // hold, from a thread of their own.
        let one = b"GET /content/1 HTTP/1.1\r\n\r\n";
        client
            .ssl_write(&one.repeat(PIPELINED / one.len()))
            .unwrap();
        let wire = client.take_output();
        let total = wire.len();
        let written = Arc::new(AtomicUsize::new(0));
        let writer = {
            let (mut sock, written) = (sock.try_clone().unwrap(), Arc::clone(&written));
            std::thread::spawn(move || {
                for chunk in wire.chunks(64 * 1024) {
                    if sock.write_all(chunk).is_err() {
                        return;
                    }
                    written.fetch_add(chunk.len(), Ordering::Relaxed);
                }
            })
        };
        let started = Instant::now();
        let (mut last, mut since) = (0, Instant::now());
        while since.elapsed() < Duration::from_millis(500) {
            std::thread::sleep(Duration::from_millis(50));
            let now = written.load(Ordering::Relaxed);
            assert!(
                now < total,
                "the server read all {total} bytes while its handler ran (event={event})"
            );
            assert!(started.elapsed() < Duration::from_secs(30), "event={event}");
            if now != last {
                (last, since) = (now, Instant::now());
            }
        }
        eprintln!("event={event}: the client stalled after {last} of {total} bytes");
        if event {
            assert!(
                counter("services_event_read_pauses_total") > pauses,
                "read pause not counted"
            );
        }

        // Released, the handler answers and the pipelined requests are
        // served.
        gate.open();
        let (mut plain, mut statuses) = (Vec::new(), Vec::new());
        while statuses.len() < 2 {
            let n = sock.read(&mut buf).unwrap();
            assert!(n > 0, "closed before answering (event={event})");
            client.provide_input(&buf[..n]);
            while let Ok(ReadOutcome::Data(d)) = client.ssl_read() {
                plain.extend_from_slice(&d);
            }
            while let Ok((rsp, used)) = libseal_httpx::http::parse_response(&plain) {
                statuses.push(rsp.status);
                plain.drain(..used);
            }
        }
        assert_eq!(statuses[..2], [200, 200], "event={event}");
        let _ = sock.shutdown(Shutdown::Both);
        writer.join().unwrap();
        server.stop();
    });
}

/// A body nested far past `json::MAX_DEPTH` used to recurse the
/// handler's JSON parser, and the in-enclave one behind it, off their
/// stacks. It is a malformed body like any other: 400, the server keeps
/// serving, and the audit log neither grows nor breaks.
#[test]
fn deeply_nested_json_body_gets_400() {
    type Service = (Arc<dyn libseal::ServiceModule>, Arc<dyn Router>, Request);
    let honest = |path: &str, body: &str| Request::new("POST", path, body.as_bytes().to_vec());
    for_each_driver(|event| {
        let services: [Service; 2] = [
            (
                Arc::new(OwnCloudModule),
                Arc::new(Arc::new(OwnCloudServer::new())),
                honest("/owncloud/join", r#"{"doc":"d","client":"bob"}"#),
            ),
            (
                Arc::new(DropboxModule),
                Arc::new(Arc::new(DropboxServer::new())),
                honest("/dropbox/list", r#"{"account":"acct","host":"h"}"#),
            ),
        ];
        for (ssm, router, honest) in services {
            let ca = ca();
            let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
            let cfg = LibSealConfig::builder(cert, key)
                .ssm(ssm)
                .cost_model(CostModel::free())
                .check_interval(0);
            let ls = LibSeal::new(cfg.build()).unwrap();
            let server = ApacheServer::start(
                ApacheConfig::new(TlsMode::LibSeal(ls.clone()), router)
                    .workers(2)
                    .event_loop(event),
            )
            .unwrap();
            // One connection per request.
            let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
            let path = honest.path().to_string();
            assert_eq!(client.request(&honest).unwrap().status, 200, "{path}");
            let (entries, ..) = ls.log_stats(0).unwrap();

            let deep = Request::new("POST", &path, "[".repeat(100_000).into_bytes());
            let rsp = client.request(&deep).unwrap();
            assert_eq!(rsp.status, 400, "{path} (event={event})");
            assert_eq!(ls.log_stats(0).unwrap().0, entries, "{path}: pair logged");

            assert_eq!(client.request(&honest).unwrap().status, 200, "{path}");
            ls.verify_log(0).unwrap();
            server.stop();
        }
    });
}

/// At the connection cap the server refuses new sockets fast (the
/// shed shows up to the client as a failed connect/handshake) while
/// established connections keep working.
#[test]
fn connection_cap_sheds_excess() {
    for_each_plane(|event, tls, roots| {
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                .max_connections(2),
        )
        .unwrap();
        let sheds = "services_sheds_total";
        let before = counter(sheds);
        let client = HttpsClient::new(server.addr(), roots, "localhost");

        let mut held: Vec<_> = (0..2).map(|_| client.connect().unwrap()).collect();
        // Give the reactor a beat to register both sessions.
        std::thread::sleep(Duration::from_millis(100));

        // Excess connections are refused; keep trying briefly since
        // the accept loop races the connect.
        let mut shed_seen = false;
        for _ in 0..50 {
            if client.connect().is_err() || counter(sheds) > before {
                shed_seen = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(shed_seen, "no shed at the cap (event={event})");
        assert!(
            counter(sheds) > before,
            "shed counter unmoved (event={event})"
        );

        // The held connections still serve.
        for conn in &mut held {
            let rsp = conn
                .request(&Request::new("GET", "/content/16", Vec::new()))
                .unwrap();
            assert_eq!(rsp.status, 200);
        }
        for mut conn in held {
            conn.close();
        }
        server.stop();
    });
}

/// Drain under load: an in-flight (slow) request is still answered,
/// the audit chain seals gap-free, and a reopened instance verifies
/// the full history.
#[test]
fn drain_under_load_keeps_chain_verifiable() {
    for_each_driver(|event| {
        let ca = ca();
        let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
        let path = plat::tmp::TempPath::new("hostile-drain", "log");
        let open = || {
            let cfg = LibSealConfig::builder(cert.clone(), key.clone())
                .ssm(Arc::new(GitModule))
                .cost_model(CostModel::free())
                .backing(LogBacking::Disk(path.to_path_buf()))
                .check_interval(0)
                .build();
            LibSeal::new(cfg).unwrap()
        };

        {
            let ls = open();
            let backend = Arc::new(GitBackend::new());
            let server = ApacheServer::start(
                ApacheConfig::new(
                    TlsMode::LibSeal(ls.clone()),
                    Arc::new(DelayRouter {
                        delay: Duration::from_millis(150),
                        busy: false,
                        inner: Arc::new(Arc::clone(&backend)),
                    }),
                )
                .workers(2)
                .event_loop(event)
                .drain_timeout(Duration::from_secs(5)),
            )
            .unwrap();
            let addr = server.addr();
            let roots = vec![ca.root_key()];

            // Seed some completed, audited traffic.
            let client = HttpsClient::new(addr, roots.clone(), "localhost");
            let mut generator = HistoryGenerator::new("repo", 2, 4);
            for _ in 0..6 {
                let req = HistoryGenerator::to_request(&generator.next_op());
                client.request(&req).unwrap();
            }
            let slow_req = HistoryGenerator::to_request(&generator.next_op());

            // Fire a slow request, then drain while it is in flight.
            let inflight = std::thread::spawn(move || {
                let client = HttpsClient::new(addr, roots, "localhost");
                client.request(&slow_req)
            });
            std::thread::sleep(Duration::from_millis(60));
            let drained_at = Instant::now();
            server.drain();
            assert!(
                drained_at.elapsed() < Duration::from_secs(10),
                "drain exceeded its deadline by far (event={event})"
            );
            let rsp = inflight
                .join()
                .unwrap()
                .expect("in-flight request must be answered during drain");
            assert_eq!(rsp.status, 200, "event={event}");
            ls.verify_log(0).unwrap();
        }

        // Reopen the sealed journal: the chain must be gap-free.
        let ls = open();
        let (entries, _, journal) = ls.log_stats(0).unwrap();
        assert!(entries > 0, "drained log lost its entries (event={event})");
        assert!(journal > 0);
        ls.verify_log(0).unwrap();
    });
}

/// Under the reactor, a handler that outlives `drain_timeout` does not
/// hold its connection open: the loop parks on the drain deadline like
/// on any other and closes the connection when it passes, while the
/// handler is still running.
#[test]
fn drain_deadline_closes_a_connection_whose_handler_outlives_it() {
    const DRAIN: Duration = Duration::from_millis(300);
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
    let gate = Arc::new(Gate::default());
    let held = Arc::clone(&gate);
    let router = FnRouter(move |_: &Request| {
        held.hold();
        Response::new(200, b"late".to_vec())
    });
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::Native { cert, key }, Arc::new(router))
            .workers(2)
            .event_loop(true)
            .drain_timeout(DRAIN),
    )
    .unwrap();
    let release = OpenOnDrop(Arc::clone(&gate));
    let mut conn = tls_connect(server.addr(), vec![ca.root_key()]);
    conn.write_all(b"GET /gate HTTP/1.1\r\n\r\n").unwrap();
    gate.await_held();

    let drained_at = Instant::now();
    let drain = std::thread::spawn(move || server.drain());
    assert_eq!(read_status(&mut conn), None, "a response got out");
    let closed = drained_at.elapsed();
    assert!(
        (DRAIN..DRAIN + Duration::from_secs(2)).contains(&closed),
        "closed {closed:?} after the drain began, deadline {DRAIN:?}"
    );
    drop(release);
    drain.join().unwrap();
}

/// A handler that runs for three idle timeouts is answered: while it
/// runs the peer owes the connection nothing, so no deadline is armed
/// and nothing is evicted. Answered, the connection is idle, and the
/// idle deadline armed at the response evicts it about one idle timeout
/// later.
#[test]
fn a_handler_outliving_the_idle_timeout_is_answered_then_idles_out() {
    const IDLE: Duration = Duration::from_millis(300);
    for_each_driver(|event| {
        let ca = ca();
        let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
        let router = FnRouter(|_: &Request| {
            std::thread::sleep(3 * IDLE);
            Response::new(200, b"slow".to_vec())
        });
        let server = ApacheServer::start(
            ApacheConfig::new(TlsMode::Native { cert, key }, Arc::new(router))
                .workers(2)
                .event_loop(event)
                .idle_timeout(IDLE),
        )
        .unwrap();
        let evictions = "services_event_idle_evictions_total";
        let mut conn = tls_connect(server.addr(), vec![ca.root_key()]);
        let before = counter(evictions);
        conn.write_all(b"GET /slow HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_status(&mut conn), Some(200), "event={event}");
        let answered = Instant::now();
        assert_eq!(
            counter(evictions),
            before,
            "evicted while its handler ran (event={event})"
        );

        // The blocking driver notices the deadline on its 1 s read tick.
        assert_eq!(read_status(&mut conn), None, "event={event}");
        let closed = answered.elapsed();
        assert!(
            (IDLE / 2..IDLE + Duration::from_millis(1500)).contains(&closed),
            "closed {closed:?} after the response, idle timeout {IDLE:?} (event={event})"
        );
        assert!(counter(evictions) > before, "event={event}");
        server.stop();
    });
}

/// Under the reactor, a response too large for the socket buffers that
/// is still queued when the drain begins is delivered whole, and its
/// connection closes as soon as the last byte has flushed, not at the
/// drain deadline.
#[test]
fn drain_delivers_a_queued_response_whole_then_closes() {
    // More than the loopback buffers hold while the client reads nothing.
    const BODY: usize = 16 << 20;
    const DRAIN: Duration = Duration::from_secs(20);
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::Native { cert, key }, Arc::new(StaticContentRouter))
            .workers(2)
            .event_loop(true)
            .drain_timeout(DRAIN),
    )
    .unwrap();
    let mut conn = tls_connect(server.addr(), vec![ca.root_key()]);
    let req = Request::new("GET", &format!("/content/{BODY}"), Vec::new());
    conn.write_all(&req.to_bytes()).unwrap();
    let started = Instant::now();
    while server.requests_served() == 0 {
        assert!(started.elapsed() < Duration::from_secs(10), "never served");
        std::thread::sleep(Duration::from_millis(10));
    }
    // Let the completion reach the reactor and fill the socket.
    std::thread::sleep(Duration::from_millis(200));

    let drained_at = Instant::now();
    let drain = std::thread::spawn(move || server.drain());
    std::thread::sleep(Duration::from_millis(200));
    let mut plain = Vec::new();
    while let Ok(d) = conn.read_some() {
        plain.extend_from_slice(&d);
    }
    let closed = drained_at.elapsed();
    let (rsp, used) = libseal_httpx::http::parse_response(&plain).expect("a whole response");
    assert_eq!((rsp.status, rsp.body.len(), used), (200, BODY, plain.len()));
    assert!(
        closed < DRAIN / 4,
        "closed {closed:?} after the drain began, deadline {DRAIN:?}"
    );
    drain.join().unwrap();
}
