//! Services against the sharded audit plane: `shards(1)` behaves
//! exactly like a single enclave under both drivers, `shards(4)`
//! spreads sessions across the fleet and still verifies end to end,
//! and one `Server` lifecycle drives Apache and Squid.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use libseal::fleet::route_affinity;
use libseal::{AuditPlane, GitModule, LibSealConfig, LibSealError, ShardedPlane};
use libseal_crypto::ed25519::VerifyingKey;
use libseal_httpx::http::Request;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::git::GitBackend;
use libseal_services::squid::{SquidConfig, SquidProxy};
use libseal_services::{HttpsClient, LoadGenerator, TlsMode};

mod common;

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("TestRootCA", &[0x77; 32])
}

fn plane_builder(ca: &CertificateAuthority, shards: usize) -> libseal::LibSealConfigBuilder {
    let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
    LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .check_interval(0)
        .ssm(Arc::new(GitModule))
        .shards(shards)
}

fn push(repo: &str, i: u64) -> Request {
    Request::new(
        "POST",
        &format!("/repo/{repo}/git-receive-pack"),
        format!("old {i:040x} refs/heads/b{}\n", i % 4).into_bytes(),
    )
}

// ---------------------------------------------------------------
// Builder surface
// ---------------------------------------------------------------

#[test]
fn builder_rejects_shards_without_an_ssm() {
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
    let err = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .shards(2)
        .build_plane()
        .err();
    assert!(
        matches!(err, Some(LibSealError::Config(_))),
        "shards(2) without an SSM must be a typed config error, got {err:?}"
    );
}

#[test]
fn builder_rejects_more_shards_than_a_sid_encodes() {
    // A plane session id has 10 shard bits: shard 1,024 would mint
    // sids that resolve to shard 0. Refused before any enclave is
    // built, so this provisions nothing.
    let err = plane_builder(&ca(), 1025).build_plane().err();
    assert!(
        matches!(err, Some(LibSealError::Config(_))),
        "shards(1025) must be a typed config error, got {err:?}"
    );
}

#[test]
fn shards_one_builds_a_single_enclave_plane() {
    let ca = ca();
    let plane = plane_builder(&ca, 1).build_plane().unwrap();
    assert_eq!(plane.shards(), 1);
}

// ---------------------------------------------------------------
// Routing distribution
// ---------------------------------------------------------------

#[test]
fn route_affinity_spreads_sequential_ids() {
    let mut counts = [0u64; 4];
    for affinity in 0..4000u64 {
        let s = route_affinity(affinity, 4);
        counts[s as usize] += 1;
    }
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(min > 0, "a shard received no sessions: {counts:?}");
    assert!(
        max <= 2 * min,
        "shard load ratio {max}/{min} exceeds 2: {counts:?}"
    );
}

#[test]
fn load_generator_conn_ids_spread_across_four_shards() {
    // The generator's documented id scheme: client << 32 | sequence.
    // Route the ids a 4-client run would produce the way a server
    // derives shard affinity, and require the routing to keep the
    // fleet within a 2x load ratio.
    let mut counts = [0u64; 4];
    for client in 0..4u64 {
        for seq in 0..100u64 {
            let id = (client << 32) | seq;
            let s = route_affinity(id, 4);
            counts[s as usize] += 1;
        }
    }
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(min > 0, "a shard received no connections: {counts:?}");
    assert!(
        max <= 2 * min,
        "shard load ratio {max}/{min} exceeds 2: {counts:?}"
    );
}

#[test]
fn sharded_plane_balances_opened_sessions() {
    let ca = ca();
    let plane = ShardedPlane::open(plane_builder(&ca, 4).build()).unwrap();
    assert_eq!(plane.shards(), 4);
    for affinity in 0..400u64 {
        let sid = plane.open_session(0, affinity).unwrap();
        plane.close_session(0, sid).unwrap();
    }
    let counts = plane.session_counts();
    assert_eq!(counts.len(), 4);
    let max = counts.iter().map(|&(_, n)| n).max().unwrap();
    let min = counts.iter().map(|&(_, n)| n).min().unwrap();
    assert!(min > 0, "a shard opened no sessions: {counts:?}");
    assert!(
        max <= 2 * min,
        "shard session ratio {max}/{min} exceeds 2: {counts:?}"
    );
}

// ---------------------------------------------------------------
// shards(1) equivalence through the servers
// ---------------------------------------------------------------

#[test]
fn single_shard_plane_serves_under_both_drivers() {
    common::for_each_driver(|event| {
        let ca = ca();
        let plane = plane_builder(&ca, 1).build_plane().unwrap();
        let roots = vec![ca.root_key()];
        let server = ApacheServer::start(
            ApacheConfig::new(
                TlsMode::LibSeal(plane.clone()),
                Arc::new(Arc::new(GitBackend::new())),
            )
            .workers(2)
            .event_loop(event),
        )
        .unwrap();
        let client = HttpsClient::new(server.addr(), roots, "localhost");
        for i in 0..5 {
            let rsp = client.request(&push("p", i)).unwrap();
            assert_eq!(rsp.status, 200);
        }
        server.drain();
        plane.verify_log(0).unwrap();
    });
}

// ---------------------------------------------------------------
// Sharded fleet end to end
// ---------------------------------------------------------------

#[test]
fn sharded_fleet_serves_and_verifies_after_drain() {
    let ca = ca();
    let plane = plane_builder(&ca, 4)
        .epoch_interval(8)
        .build_plane()
        .unwrap();
    assert_eq!(plane.shards(), 4);
    let roots = vec![ca.root_key()];
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(plane.clone()),
            Arc::new(Arc::new(GitBackend::new())),
        )
        .workers(4),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), roots, "localhost");
    let stats = LoadGenerator {
        clients: 4,
        duration: Duration::from_millis(400),
        persistent: false,
        ..LoadGenerator::default()
    }
    .run(&client, |c, i| push(&format!("r{c}"), i));
    assert!(stats.requests > 0, "no requests completed");
    assert_eq!(stats.errors, 0, "audited requests failed");

    // Every TLS connection surfaced a distinct id.
    assert!(!stats.conn_ids.is_empty());
    let mut ids = stats.conn_ids.clone();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), stats.conn_ids.len(), "conn ids must be distinct");

    // Drain cuts a final epoch checkpoint and quiesces every shard;
    // the retained handle then verifies the whole fleet, checkpoint
    // chain included.
    server.drain();
    plane.verify_log(0).unwrap();
}

// ---------------------------------------------------------------
// One `Server` lifecycle drives both services
// ---------------------------------------------------------------

/// One request through the service at `addr`, then waits for it to be
/// reported by `served`.
fn drive(addr: SocketAddr, roots: Vec<VerifyingKey>, req: &Request, served: &dyn Fn() -> u64) {
    let client = HttpsClient::new(addr, roots, "localhost");
    let rsp = client.request(req).unwrap();
    assert_eq!(rsp.status, 200);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while served() < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(served(), 1);
}

#[test]
fn one_lifecycle_drives_apache_and_squid() {
    let ca = ca();

    // Apache through a single-shard audit plane.
    let plane = plane_builder(&ca, 1).build_plane().unwrap();
    let apache = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(plane.clone()),
            Arc::new(StaticContentRouter),
        )
        .workers(2),
    )
    .unwrap();
    drive(
        apache.addr(),
        vec![ca.root_key()],
        &Request::new("GET", "/content/128", Vec::new()),
        &|| apache.requests_served(),
    );
    let _ = apache.telemetry();
    apache.drain();
    plane.verify_log(0).unwrap();

    // Squid in front of a native origin, audited client leg.
    let (okey, ocert) = ca.issue_identity("localhost", &[0x33; 32]).unwrap();
    let origin = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::Native {
                cert: ocert,
                key: okey,
            },
            Arc::new(StaticContentRouter),
        )
        .workers(2),
    )
    .unwrap();
    let plane = plane_builder(&ca, 1).build_plane().unwrap();
    let squid = SquidProxy::start(
        SquidConfig::new(
            TlsMode::LibSeal(plane.clone()),
            origin.addr(),
            vec![ca.root_key()],
            "localhost",
        )
        .workers(2),
    )
    .unwrap();
    drive(
        squid.addr(),
        vec![ca.root_key()],
        &Request::new("GET", "/content/64", Vec::new()),
        &|| squid.requests_proxied(),
    );
    let _ = squid.telemetry();
    squid.drain();
    plane.verify_log(0).unwrap();
    origin.stop();
}
