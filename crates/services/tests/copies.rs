//! The untrusted serving path copies a 256 KiB body once per hop and
//! sizes each hop's buffer once, held without a clock: a counting
//! allocator totals the bytes of every allocation of at least 64 KiB,
//! process-wide, and counts the reallocations of that size (a buffer
//! regrown while a body arrives). It splits them three ways: the client
//! (the test thread), the enclave (a thread inside an ecall,
//! `libseal_sgxsim::enclave::inside`) and the untrusted server (every
//! other thread). One connection in steady state, an audited
//! `GitModule` plane behind each driver, and a `PersistentConnection`
//! on the client side.
//!
//! Per message, each side may allocate one buffer per hop it crosses
//! plus 16 KiB, and no large buffer outside the enclave is ever regrown:
//!
//! - the client's upload: the sealed records (`write_all_parts` seals
//!   the head and the body where they lie);
//! - the client's download: the response, gathered once from the pieces
//!   it arrived in; its body is moved out;
//! - the server's upload: the bytes read for the enclave (the reactor
//!   reads a socket into one buffer sized to what it holds; the blocking
//!   driver reads a record's worth at a time) and the enclave's retained
//!   request copy, plus, only when the plaintext arrived over several
//!   reads (`services_body_gathers_total` moved), the driver's gathered
//!   plaintext buffer. The plaintext the enclave hands out is the read
//!   itself: its records are opened where they arrived;
//! - the server's download: the body the handler builds, the staged
//!   copy the enclave takes in (it gathers head and body) and the
//!   sealed records.
//!
//! The enclave's request copy grows as its pieces arrive (a body that
//! came in one piece is allocated once), so the enclave's share is held
//! exactly only for an upload that arrived whole, where it is that one
//! copy.
//!
//! A second case holds a body that is declared and never sent to what
//! arrived: a connection holds its head, not what the head declares.
//!
//! Alone in its binary: it counts what every thread of the process
//! allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use libseal::{GitModule, LibSeal, LibSealConfig, LogBacking};
use libseal_httpx::http::{Limits, Request};
use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::client::PersistentConnection;
use libseal_services::{HttpsClient, TlsMode};
use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::inside;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::SslConfig;
use libseal_tlsx::stream::SslStream;

mod common;

/// The smallest allocation counted: a 16 KiB record's worth of buffer
/// is per-record work, not a copy of the message.
const LARGE: usize = 64 * 1024;

/// Large bytes allocated by the client, the untrusted server and the
/// enclave, in that order.
static BYTES: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];
/// Large reallocations outside the enclave, and inside it.
static REGROWN: [AtomicUsize; 2] = [const { AtomicUsize::new(0) }; 2];

thread_local! {
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize, regrown: bool) {
    if bytes >= LARGE {
        let enclave = inside();
        let side = match IS_CLIENT.try_with(Cell::get).unwrap_or(false) {
            true => 0,
            false if enclave => 2,
            false => 1,
        };
        BYTES[side].fetch_add(bytes, Ordering::Relaxed);
        if regrown {
            REGROWN[usize::from(enclave)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only atomics and const-initialised thread-locals.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const BODY: usize = 256 * 1024;
const SLACK: usize = 16 * 1024;

/// What one exchange costs.
#[derive(Debug)]
struct Cost {
    client: usize,
    server: usize,
    enclave: usize,
    /// Large reallocations outside the enclave, and inside it.
    regrown: [usize; 2],
    /// Request bodies the server gathered from pieces.
    gathers: u64,
}

fn gathers() -> u64 {
    libseal_telemetry::counter("services_body_gathers_total").get()
}

/// Large bytes and reallocations one exchange costs. The request is
/// built before counting starts: its body is the caller's.
fn exchange(conn: &mut PersistentConnection, req: &Request, body: usize) -> Cost {
    let read = || {
        let [c, s, e] = BYTES.each_ref().map(|b| b.load(Ordering::Relaxed));
        let [o, i] = REGROWN.each_ref().map(|r| r.load(Ordering::Relaxed));
        ([c, s, e, o, i], gathers())
    };
    let before = read();
    let rsp = conn.request(req).expect("request");
    let after = read();
    assert_eq!((rsp.status, rsp.body.len()), (200, body));
    let d = |i: usize| after.0[i] - before.0[i];
    Cost {
        client: d(0),
        server: d(1),
        enclave: d(2),
        regrown: [d(3), d(4)],
        gathers: after.1 - before.1,
    }
}

/// An Apache server on an audited `GitModule` plane, and the CA its
/// certificate chains to.
fn start(event: bool, workers: usize) -> (ApacheServer, CertificateAuthority) {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let config = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .backing(LogBacking::Memory)
        .check_interval(0)
        .build();
    let plane = LibSeal::new(config).unwrap();
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(plane), Arc::new(StaticContentRouter))
            .event_loop(event)
            .workers(workers),
    )
    .unwrap();
    (server, ca)
}

/// One test, so that nothing else allocates while a case counts.
#[test]
fn each_untrusted_hop_copies_a_body_once_into_a_buffer_sized_once() {
    IS_CLIENT.with(|c| c.set(true));
    common::for_each_driver(hops);
    common::for_each_driver(stalled_bodies);
}

fn hops(event: bool) {
    let (server, ca) = start(event, 1);
    let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "svc.test");
    let mut conn = client.connect().unwrap();

    let upload = Request::new("POST", "/content/0", vec![7u8; BODY]);
    let download = Request::new("GET", &format!("/content/{BODY}"), Vec::new());
    // Warm-up: buffers kept across messages (the sessions' record
    // buffers) reach their size.
    for _ in 0..3 {
        exchange(&mut conn, &upload, 0);
        exchange(&mut conn, &download, BODY);
    }
    let per_body = |bytes: usize| bytes as f64 / BODY as f64;
    for round in 0..3 {
        let up = exchange(&mut conn, &upload, 0);
        let down = exchange(&mut conn, &download, BODY);
        eprintln!(
            "event loop {event}, round {round}, per 256 KiB body: upload client {:.2}x \
             server {:.2}x enclave {:.2}x gathered {}, download client {:.2}x server \
             {:.2}x enclave {:.2}x, regrown {:?} + {:?}",
            per_body(up.client),
            per_body(up.server),
            per_body(up.enclave),
            up.gathers,
            per_body(down.client),
            per_body(down.server),
            per_body(down.enclave),
            up.regrown,
            down.regrown,
        );
        assert!(up.client <= BODY + SLACK, "upload, client: {up:?}");
        assert!(down.client <= BODY + SLACK, "download, client: {down:?}");
        assert!(
            down.server + down.enclave <= 3 * BODY + SLACK,
            "download, server: {down:?}"
        );
        assert_eq!(down.regrown, [0, 0], "download: a large buffer regrew");
        assert_eq!(up.regrown[0], 0, "upload: an untrusted buffer regrew");
        assert!(up.gathers <= 1, "upload gathered twice: {up:?}");
        if up.gathers == 0 {
            // Arrived whole: the read, opened in place, and the
            // enclave's retained copy.
            assert!(up.enclave <= BODY + SLACK, "upload, enclave: {up:?}");
            let all = up.server + up.enclave;
            assert!(all <= 2 * BODY + SLACK, "upload, server: {up:?}");
            assert_eq!(up.regrown, [0, 0], "upload: a large buffer regrew");
        } else {
            // In pieces: the reads and the one gathered buffer.
            assert!(up.server <= 2 * BODY + SLACK, "upload, server: {up:?}");
        }
    }
    conn.close();
}

/// Connections that each declare the largest body the server admits and
/// send a few bytes of it hold what arrived, not what was declared:
/// nothing is reserved ahead of the bytes, on either side of the
/// boundary.
fn stalled_bodies(event: bool) {
    const CONNS: usize = 4;
    // The blocking driver holds a carrier per connection.
    let (server, ca) = start(event, CONNS + 2);
    let roots = vec![ca.root_key()];
    let head = format!(
        "POST /content/0 HTTP/1.1\r\nHost: svc.test\r\nContent-Length: {}\r\n\r\n",
        Limits::default().max_body_bytes
    );
    let server_bytes = || {
        BYTES[1..]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum::<usize>()
    };
    let before = server_bytes();
    let stalled: Vec<_> = (0..CONNS)
        .map(|_| {
            let sock = TcpStream::connect(server.addr()).unwrap();
            let cfg = SslConfig::client(roots.clone());
            let mut tls = SslStream::handshake(cfg, [9u8; 64], sock).unwrap();
            let first = [head.as_bytes(), &[7u8; 1024]].concat();
            tls.write_all(&first).unwrap();
            tls
        })
        .collect();
    // A request served behind them: the server has read theirs by
    // the time it answers, and they wait in their body phase.
    let client = HttpsClient::new(server.addr(), roots, "svc.test");
    let rsp = client.request(&Request::new("GET", "/content/16", Vec::new()));
    assert_eq!(rsp.unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(100));
    let held = server_bytes() - before;
    eprintln!("event loop {event}: {CONNS} stalled bodies, {held} large bytes");
    assert!(
        held <= CONNS * LARGE,
        "{held} B for {CONNS} declared bodies"
    );
    drop(stalled);
    server.stop();
}
