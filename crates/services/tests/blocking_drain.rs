//! Draining the blocking driver with connections queued beyond its
//! carriers: the in-flight response is delivered, the queued sockets
//! are closed unserved, and every thread the server started (its
//! accept thread and the pool carriers it owns) is joined. Alone in its
//! binary because `/proc/self/task` and the pool's queue-depth gauge
//! count the whole process.
#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use libseal_httpx::http::{Request, Response};
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::{Ssl, SslConfig};
use libseal_tlsx::stream::SslStream;

use libseal_services::apache::{ApacheConfig, ApacheServer, FnRouter};
use libseal_services::{HttpsClient, TlsMode};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Waits (briefly) for `done`, then asserts it.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let patience = Instant::now() + Duration::from_secs(5);
    while !done() && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(done(), "{what}");
}

#[test]
fn drain_answers_in_flight_closes_queued_and_joins_every_thread() {
    let before = threads();
    let ca = CertificateAuthority::new("DrainCA", &[0x66; 32]);
    let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
    let roots = vec![ca.root_key()];

    // `/slow` holds its carrier until the test opens the gate.
    let (held_tx, held_rx) = mpsc::channel::<()>();
    let (open_tx, open_rx) = mpsc::channel::<()>();
    let gate = Mutex::new((held_tx, open_rx));
    let router = FnRouter(move |req: &Request| {
        if req.path() == "/slow" {
            let gate = gate.lock().unwrap();
            gate.0.send(()).unwrap();
            let _ = gate.1.recv_timeout(Duration::from_secs(30));
        }
        Response::new(200, b"done".to_vec())
    });
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::Native { cert, key }, Arc::new(router))
            .workers(2)
            .event_loop(false),
    )
    .unwrap();
    assert_eq!(threads() - before, 3, "an accept thread and two carriers");
    let addr = server.addr();

    // One carrier runs a request, the other holds an idle keep-alive
    // connection, and two more connections queue behind them, each
    // with its ClientHello on the wire.
    let inflight = {
        let client = HttpsClient::new(addr, roots.clone(), "localhost");
        std::thread::spawn(move || client.request(&Request::new("GET", "/slow", Vec::new())))
    };
    held_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the slow request reaches its handler");
    let mut idle = {
        let sock = TcpStream::connect(addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        SslStream::handshake(SslConfig::client(roots.clone()), [8u8; 64], sock).unwrap()
    };
    let mut hello = Ssl::new(SslConfig::client(roots), [7u8; 64]);
    hello.do_handshake().unwrap();
    let hello = hello.take_output();
    let queued: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut sock = TcpStream::connect(addr).unwrap();
            sock.write_all(&hello).unwrap();
            sock
        })
        .collect();
    let jobs = libseal_telemetry::gauge("lthread_pool_queue_depth");
    eventually("both extra connections queue on the pool", || {
        jobs.get() == 4
    });

    let started = Instant::now();
    let drain = std::thread::spawn(move || server.drain());
    // The idle connection's carrier closes it at its next read tick
    // (a second) after the drain began; only then does the handler
    // return. A read timing out instead would take five.
    assert!(idle.read_some().is_err());
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the idle connection is closed"
    );
    open_tx.send(()).unwrap();
    let rsp = inflight
        .join()
        .unwrap()
        .expect("the in-flight request is answered");
    assert_eq!((rsp.status, &rsp.body[..]), (200, &b"done"[..]));
    drain.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain took {:?}",
        started.elapsed()
    );

    for mut sock in queued {
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 64];
        match sock.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("a connection queued at the drain was served ({n} bytes)"),
        }
    }
    assert_eq!(jobs.get(), 0);
    // A joined thread can outlive its join in `/proc` by a moment.
    eventually("every server thread is joined", || threads() == before);
}
