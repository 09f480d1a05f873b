//! Deterministic network-chaos regression suite: clients whose
//! transports inject short reads, resets, truncation and delays — at
//! the handshake, mid-request and mid-response — against both
//! drivers. Chaotic clients may fail; the server must never panic,
//! must keep serving clean clients, and the audit chain must stay
//! verifiable.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use libseal::{GitModule, LibSeal, LibSealConfig};
use libseal_httpx::http::{parse_response, Request};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use libseal_tlsx::ssl::SslConfig;
use libseal_tlsx::stream::SslStream;
use plat::chaos::{ChaosConfig, ChaosStream};

use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::{HttpsClient, TlsMode};

mod common;
use common::for_each_driver;

/// One chaotic client attempt: handshake over the faulty transport,
/// send one request, try to read one response. All failures are fine;
/// only panics and server damage are not.
fn chaotic_attempt(
    addr: std::net::SocketAddr,
    roots: &[libseal_crypto::ed25519::VerifyingKey],
    cfg: ChaosConfig,
) {
    let Ok(sock) = TcpStream::connect(addr) else {
        return;
    };
    let _ = sock.set_nodelay(true);
    // Short timeout: a truncated/stalled exchange must not hang the
    // suite.
    let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
    let chaotic = ChaosStream::new(sock, cfg);
    let mut entropy = [0u8; 64];
    plat::entropy::fill(&mut entropy);
    let Ok(mut tls) = SslStream::handshake(SslConfig::client(roots.to_vec()), entropy, chaotic)
    else {
        return;
    };
    let req = Request::new("GET", "/content/256", Vec::new());
    if tls.write_all(&req.to_bytes()).is_err() {
        return;
    }
    let mut buf = Vec::new();
    for _ in 0..64 {
        match tls.read_some() {
            Ok(d) => buf.extend_from_slice(&d),
            Err(_) => return,
        }
        if parse_response(&buf).is_ok() {
            return;
        }
    }
}

/// The fault matrix: resets and truncations positioned to land in the
/// handshake (early ops), the request head/body (middle ops) and the
/// response read (late ops), plus probabilistic short/delay blends.
fn fault_matrix() -> Vec<ChaosConfig> {
    let mut cases = Vec::new();
    for op in [1, 2, 4, 8, 16, 32] {
        cases.push(ChaosConfig::new(100 + op).reset_at(op));
        cases.push(ChaosConfig::new(200 + op).truncate_at(op));
    }
    // Non-fatal degradation: shorts and delays at various densities.
    cases.push(ChaosConfig::new(301).shorts(400));
    cases.push(
        ChaosConfig::new(302)
            .shorts(200)
            .delays(100, Duration::from_millis(1)),
    );
    cases.push(
        ChaosConfig::new(303)
            .shorts(300)
            .delays(50, Duration::from_millis(2))
            .reset_at(40),
    );
    cases
}

#[test]
fn chaos_matrix_leaves_server_healthy() {
    for_each_driver(|event| {
        let ca = CertificateAuthority::new("ChaosCA", &[0x66; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[0x31; 32]).unwrap();
        let cfg = LibSealConfig::builder(cert, key)
            .ssm(Arc::new(GitModule))
            .cost_model(CostModel::free())
            .check_interval(0)
            .build();
        let ls = LibSeal::new(cfg).unwrap();
        let server = ApacheServer::start(
            ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event)
                // Tight deadlines so truncated/stalled chaotic
                // sessions are reaped quickly.
                .handshake_timeout(Duration::from_millis(400))
                .header_timeout(Duration::from_millis(400))
                .body_timeout(Duration::from_millis(600)),
        )
        .unwrap();
        let roots = vec![ca.root_key()];

        for chaos_cfg in fault_matrix() {
            chaotic_attempt(server.addr(), &roots, chaos_cfg);
        }

        // After the whole matrix the server still serves clean
        // clients...
        let client = HttpsClient::new(server.addr(), roots, "localhost");
        for _ in 0..3 {
            let rsp = client
                .request(&Request::new("GET", "/content/128", Vec::new()))
                .unwrap();
            assert_eq!(rsp.status, 200);
            assert_eq!(rsp.body.len(), 128);
        }
        server.stop();
        // ...and the audit chain of everything that was logged
        // verifies end to end.
        ls.verify_log(0).unwrap();
    });
}

#[test]
fn concurrent_chaos_and_clean_traffic() {
    // Chaotic clients hammering while clean clients run: the clean
    // side must keep completing requests throughout.
    for_each_driver(|event| {
        let ca = CertificateAuthority::new("ChaosCA2", &[0x67; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[0x32; 32]).unwrap();
        let (tls, roots) = {
            let cfg = LibSealConfig::builder(cert, key)
                .ssm(Arc::new(GitModule))
                .cost_model(CostModel::free())
                .check_interval(0)
                .build();
            (
                TlsMode::LibSeal(LibSeal::new(cfg).unwrap()),
                vec![ca.root_key()],
            )
        };
        let server = ApacheServer::start(
            ApacheConfig::new(tls, Arc::new(StaticContentRouter))
                .workers(4)
                .event_loop(event)
                .handshake_timeout(Duration::from_millis(400))
                .header_timeout(Duration::from_millis(400)),
        )
        .unwrap();
        let addr = server.addr();

        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let roots = roots.clone();
                scope.spawn(move || {
                    for (i, _) in (0..8).enumerate() {
                        let seed = t * 1000 + i as u64;
                        let cfg = if i % 2 == 0 {
                            ChaosConfig::new(seed).reset_at(2 + (seed % 20))
                        } else {
                            ChaosConfig::new(seed)
                                .shorts(300)
                                .truncate_at(10 + (seed % 30))
                        };
                        chaotic_attempt(addr, &roots, cfg);
                    }
                });
            }
            let clean_roots = roots.clone();
            scope.spawn(move || {
                let client = HttpsClient::new(addr, clean_roots, "localhost");
                let mut completed = 0u32;
                for _ in 0..10 {
                    if let Ok(rsp) = client.request(&Request::new("GET", "/content/64", Vec::new()))
                    {
                        assert_eq!(rsp.status, 200);
                        completed += 1;
                    }
                }
                assert!(
                    completed >= 8,
                    "clean traffic starved during chaos: {completed}/10"
                );
            });
        });
        server.stop();
    });
}
