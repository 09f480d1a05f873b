//! Regression tests for transient accept(2) failures. A server whose
//! accept call returns EMFILE/ECONNABORTED-style errors must count
//! the error, back off briefly, and keep serving — never silently
//! shut the listener down (the bug this suite pins: squid's threaded
//! accept loop used to `break` on any accept error), under either
//! driver.
//!
//! These live in their own test binary: the fault site is process
//! global, and any other server accepting concurrently would consume
//! the armed faults.

use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::{LibSeal, LibSealConfig};
use libseal_crypto::ed25519::VerifyingKey;
use libseal_httpx::http::Request;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use plat::failpoint::{self, FaultSpec};

use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::squid::{SquidConfig, SquidProxy};
use libseal_services::{HttpsClient, TlsMode};

const SITE: &str = "services::accept";

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("TestRootCA", &[0x77; 32])
}

fn native_tls(ca: &CertificateAuthority) -> (TlsMode, Vec<VerifyingKey>) {
    let (key, cert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
    (TlsMode::Native { cert, key }, vec![ca.root_key()])
}

fn libseal_tls(ca: &CertificateAuthority) -> (Arc<LibSeal>, Vec<VerifyingKey>) {
    let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
    let ls = LibSeal::new(
        LibSealConfig::builder(cert, key)
            .cost_model(CostModel::free())
            .check_interval(0)
            .build(),
    )
    .unwrap();
    (ls, vec![ca.root_key()])
}

fn await_hits(scenario: &plat::failpoint::Scenario, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while scenario.hits(SITE) < n && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        scenario.hits(SITE) >= n,
        "accept fault site hit only {} times, wanted {n}",
        scenario.hits(SITE)
    );
}

/// Three consecutive accept failures in the blocking driver's accept
/// thread must not kill the listener.
#[test]
fn squid_threaded_accept_errors_do_not_kill_listener() {
    let errors = libseal_telemetry::counter("services_squid_accept_errors_total");
    let before = errors.get();

    let ca = ca();
    // Origin first, so its accept loop is parked inside accept(2)
    // (past the fault check) before any fault is armed.
    let (origin_tls, origin_roots) = native_tls(&ca);
    let origin = ApacheServer::start(
        ApacheConfig::new(origin_tls, Arc::new(StaticContentRouter)).workers(1),
    )
    .unwrap();

    let scenario = failpoint::scenario();
    scenario.set(SITE, FaultSpec::error().times(3));

    // The accept thread checks the fault site on every iteration, so
    // it eats all three faults (with 5 ms backoffs) straight after
    // start — before any client connects.
    let (ls, roots) = libseal_tls(&ca);
    let proxy = SquidProxy::start(
        SquidConfig::new(
            TlsMode::LibSeal(ls),
            origin.addr(),
            origin_roots,
            "localhost",
        )
        .workers(1)
        // The blocking accept thread polls, so it meets the faults
        // with no client connecting; the reactor's case is below.
        .event_loop(false),
    )
    .unwrap();
    await_hits(&scenario, 3);

    // The listener survived: a real request still proxies through.
    let client = HttpsClient::new(proxy.addr(), roots, "localhost");
    let rsp = client
        .request(&Request::new("GET", "/content/256", Vec::new()))
        .unwrap();
    assert_eq!(rsp.status, 200);
    assert_eq!(rsp.body.len(), 256);
    assert!(
        errors.get() >= before + 3,
        "accept errors should be counted: before {before}, after {}",
        errors.get()
    );

    proxy.stop();
    origin.stop();
}

/// Event-mode accept errors pause the listener for one backoff
/// period; connections queued in the backlog are served afterwards.
#[test]
fn apache_event_accept_errors_back_off_and_recover() {
    if !plat::reactor::supported() {
        return;
    }
    let errors = libseal_telemetry::counter("services_apache_accept_errors_total");
    let before = errors.get();

    let ca = ca();
    let (tls, roots) = native_tls(&ca);
    let scenario = failpoint::scenario();
    scenario.set(SITE, FaultSpec::error().times(2));

    let server =
        ApacheServer::start(ApacheConfig::new(tls, Arc::new(StaticContentRouter)).workers(1))
            .unwrap();

    // Each connection attempt makes the listener readable; the first
    // two accept sweeps fault and deregister the listener for 5 ms,
    // but the TCP backlog holds the connection until resume.
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    for _ in 0..3 {
        let rsp = client
            .request(&Request::new("GET", "/content/128", Vec::new()))
            .unwrap();
        assert_eq!(rsp.status, 200);
    }
    assert!(
        scenario.hits(SITE) >= 2,
        "fault site should have fired twice, saw {}",
        scenario.hits(SITE)
    );
    assert!(
        errors.get() >= before + 2,
        "accept errors should be counted: before {before}, after {}",
        errors.get()
    );
    server.stop();
}
