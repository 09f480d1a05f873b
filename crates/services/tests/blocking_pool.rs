//! The blocking driver runs each connection as one job on a pool of
//! `workers` carriers and lends it an async-call slot for the
//! connection's lifetime: more clients than carriers wait their turn,
//! more carriers than runtime slots wait for a slot, and a request
//! crosses the enclave boundary exactly as the thread-per-connection
//! model (§6) prices it.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use libseal::{LibSeal, LibSealConfig};
use libseal_httpx::http::Request;
use libseal_lthread::RuntimeConfig;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::{HttpsClient, TlsMode};

/// The transition count reads a quiet server: the tests take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("PoolCA", &[0x55; 32])
}

fn config(ca: &CertificateAuthority) -> LibSealConfig {
    let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
    LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .build()
}

/// Eight persistent clients against two runtime slots: every request
/// is answered whether the pool has as many carriers as slots or more,
/// and no two carriers ever share a slot (the runtime panics if they
/// do).
#[test]
fn persistent_clients_beyond_slots_are_all_served() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 3;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for workers in [2, 4] {
        let ca = ca();
        let ls = LibSeal::with_async(
            config(&ca),
            RuntimeConfig {
                sgx_threads: 2,
                lthreads_per_thread: 4,
                slots: 2,
                stack_size: 256 * 1024,
            },
        )
        .unwrap();
        let server = ApacheServer::start(
            ApacheConfig::new(TlsMode::LibSeal(ls), Arc::new(StaticContentRouter))
                .workers(workers)
                .event_loop(false),
        )
        .unwrap();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
                std::thread::spawn(move || {
                    let mut conn = client.connect().unwrap();
                    let statuses: Vec<u16> = (0..REQUESTS)
                        .map(|_| {
                            let req = Request::new("GET", "/content/512", Vec::new());
                            conn.request(&req).unwrap().status
                        })
                        .collect();
                    conn.close();
                    statuses
                })
            })
            .collect();
        for c in clients {
            let statuses = c.join().expect("client thread (and server) did not panic");
            assert_eq!(statuses, [200; REQUESTS], "workers={workers}");
        }
        server.stop();
    }
}

/// Synchronous transitions since the last call, once the server has
/// gone quiet (a response reaches the client before the driver's
/// trailing read and flush do).
fn transitions_since(ls: &LibSeal, last: &mut (u64, u64)) -> (u64, u64) {
    let read = || {
        let s = ls.stats();
        (s.ecalls, s.ocalls)
    };
    let mut now = read();
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let again = read();
        if again == now {
            break;
        }
        now = again;
    }
    let delta = (now.0 - last.0, now.1 - last.1);
    *last = now;
    delta
}

/// The blocking driver makes one enclave call per TLS-library
/// operation: a request costs 6 ecalls (feed, read, write, take, the
/// empty read, take) and 8 ocalls, a connection's handshake 13 ecalls
/// and 11 ocalls, its close 3 of each. These are the counts Tables 2–4
/// and the event-loop gate's threaded reference rest on: a serving
/// change that alters them changes what those tables measure.
#[test]
fn a_request_costs_the_thread_per_connection_transitions() {
    const REQUESTS: u64 = 10;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let ca = ca();
    let ls = LibSeal::new(config(&ca)).unwrap();
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(StaticContentRouter))
            .workers(2)
            .event_loop(false),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
    let req = Request::new("GET", "/content/1024", Vec::new());
    let mut last = (0, 0);
    transitions_since(&ls, &mut last);

    // Quiet in between, so the client's Finished and its first request
    // cannot share a read.
    let mut conn = client.connect().unwrap();
    let handshake = transitions_since(&ls, &mut last);
    for _ in 0..REQUESTS {
        assert_eq!(conn.request(&req).unwrap().status, 200);
    }
    let requests = transitions_since(&ls, &mut last);
    conn.close();
    let close = transitions_since(&ls, &mut last);
    eprintln!("handshake {handshake:?}, {REQUESTS} requests {requests:?}, close {close:?}");
    assert_eq!(handshake, (13, 11));
    assert_eq!(requests, (6 * REQUESTS, 8 * REQUESTS));
    assert_eq!(close, (3, 3));
    server.stop();
}
