//! Workspace-level integration tests spanning every crate: crypto →
//! TEE → TLS → audit log → services, exercised together the way a
//! deployment would.

use std::sync::Arc;
use std::time::Duration;

use libseal::{GitModule, LibSeal, LibSealConfig, LogBacking};
use libseal_httpx::http::Request;
use libseal_services::apache::{ApacheConfig, ApacheServer};
use libseal_services::git::{GitBackend, HistoryGenerator};
use libseal_services::{HttpsClient, LoadGenerator, TlsMode};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

fn ca() -> CertificateAuthority {
    CertificateAuthority::new("WorkspaceCA", &[0x55; 32])
}

#[test]
fn sealed_persistent_log_full_cycle() {
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[9u8; 32]).unwrap();
    let path = plat::tmp::TempPath::new("fullstack", "log");

    // Phase 1: serve real traffic, persist the log.
    {
        let cfg = LibSealConfig::builder(cert.clone(), key.clone())
            .ssm(Arc::new(GitModule))
            .cost_model(CostModel::free())
            .backing(LogBacking::Disk(path.to_path_buf()))
            .check_interval(0)
            .build();
        let ls = LibSeal::new(cfg).unwrap();
        let backend = Arc::new(GitBackend::new());
        let server = ApacheServer::start(
            ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(Arc::clone(&backend)))
                .workers(2),
        )
        .unwrap();
        let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
        let mut generator = HistoryGenerator::new("repo", 3, 5);
        let mut conn = client.connect().unwrap();
        for _ in 0..30 {
            let req = HistoryGenerator::to_request(&generator.next_op());
            conn.request(&req).unwrap();
        }
        conn.close();
        assert_eq!(ls.check_now(0).unwrap().total_violations(), 0);
        ls.verify_log(0).unwrap();
        server.stop();
    }

    // Phase 2: restart over the sealed journal; history verifies.
    {
        let cfg = LibSealConfig::builder(cert, key)
            .ssm(Arc::new(GitModule))
            .cost_model(CostModel::free())
            .backing(LogBacking::Disk(path.to_path_buf()))
            .check_interval(0)
            .build();
        let ls = LibSeal::new(cfg).unwrap();
        let (entries, _, journal) = ls.log_stats(0).unwrap();
        assert!(entries > 0);
        assert!(journal > 0);
        ls.verify_log(0).unwrap();
        assert_eq!(ls.check_now(0).unwrap().total_violations(), 0);
    }
}

#[test]
fn load_generator_measures_throughput() {
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[9u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .build();
    let ls = LibSeal::new(cfg).unwrap();
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(ls),
            Arc::new(libseal_services::StaticContentRouter),
        )
        .workers(4),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
    let stats = LoadGenerator {
        clients: 4,
        duration: Duration::from_millis(800),
        persistent: true,
        ..LoadGenerator::default()
    }
    .run(&client, |_, _| {
        Request::new("GET", "/content/64", Vec::new())
    });
    assert!(stats.requests > 0, "no requests completed");
    assert!(stats.throughput() > 1.0);
    assert!(stats.p50_latency <= stats.p95_latency);
    server.stop();
}

#[test]
fn cost_model_imposes_real_overhead() {
    // The same tiny workload with and without the SGX cost model; the
    // modelled configuration must be measurably slower.
    let ca = ca();
    let run = |model: CostModel| -> (Duration, libseal_sgxsim::StatsSnapshot) {
        let (key, cert) = ca.issue_identity("localhost", &[9u8; 32]).unwrap();
        let cfg = LibSealConfig::builder(cert, key).cost_model(model).build();
        let ls = LibSeal::new(cfg).unwrap();
        let server = ApacheServer::start(
            ApacheConfig::new(
                TlsMode::LibSeal(ls.clone()),
                Arc::new(libseal_services::StaticContentRouter),
            )
            .workers(1),
        )
        .unwrap();
        let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
        // Time the requests only: the handshake is ~10 ms of debug-build
        // curve arithmetic either way, and that is where the noise is.
        let mut conn = client.connect().unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            conn.request(&Request::new("GET", "/content/16", Vec::new()))
                .unwrap();
        }
        let dt = t0.elapsed();
        conn.close();
        server.stop();
        (dt, ls.stats())
    };
    let taxed_model = CostModel {
        enabled: true,
        sync_transition_cycles: 200_000, // exaggerated for test stability
        // ... and priced as the benchmarks price it, as if Apache's 25
        // threads shared the enclave (x10.7). The spin is calibrated once
        // per process, in 2 ms that sibling tests contend for: a process
        // can end up charging a seventh of the nominal time, and a 7 ms
        // tax then drowns; a 75 ms one does not.
        assumed_concurrency: 25,
        ..CostModel::default()
    };
    // Sibling tests share the cores. Scheduling noise only ever adds
    // time, so compare minima over alternating runs.
    let (mut free, mut taxed) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        free = free.min(run(CostModel::free()).0);
        let (dt, stats) = run(taxed_model.clone());
        taxed = taxed.min(dt);
        // What the model determines exactly: every transition was charged
        // at least the configured price. (Charges are recorded whether or
        // not the model spins, so this cannot stand in for the clocks.)
        assert!(
            stats.cycles_charged >= (stats.ecalls + stats.ocalls) * 200_000,
            "undercharged: {stats:?}"
        );
    }
    assert!(
        taxed > free,
        "cost model had no effect: fastest taxed {taxed:?} vs fastest free {free:?}"
    );
}

#[test]
fn transitions_are_observable_end_to_end() {
    let ca = ca();
    let (key, cert) = ca.issue_identity("localhost", &[9u8; 32]).unwrap();
    let cfg = LibSealConfig::builder(cert, key)
        .cost_model(CostModel::free())
        .build();
    let ls = LibSeal::new(cfg).unwrap();
    let server = ApacheServer::start(
        ApacheConfig::new(
            TlsMode::LibSeal(ls.clone()),
            Arc::new(libseal_services::StaticContentRouter),
        )
        .workers(1),
    )
    .unwrap();
    let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
    client
        .request(&Request::new("GET", "/content/32", Vec::new()))
        .unwrap();
    let snap = ls.stats();
    assert!(snap.ecalls > 0, "TLS termination must cross the boundary");
    // The event-driven core (the default) decrypts via the batched
    // "tls_batch" entry; the threaded model issues per-op "ssl_read"
    // calls. Either way the read path must be visible by name.
    assert!(
        snap.by_name.contains_key("tls_batch") || snap.by_name.contains_key("ssl_read"),
        "no named read-path ecall in {:?}",
        snap.by_name.keys().collect::<Vec<_>>()
    );
    assert!(snap.by_name.contains_key("ssl_write"));
    server.stop();
}
