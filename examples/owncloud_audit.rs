//! Collaborative-document auditing: two clients edit a document
//! through an ownCloud-like service; the provider loses one edit and
//! serves a stale snapshot — LibSEAL's invariants expose both (§6.1,
//! §6.2).
//!
//! ```sh
//! cargo run --example owncloud_audit
//! ```

use std::sync::Arc;

use libseal::{LibSeal, LibSealConfig, OwnCloudModule};
use libseal_httpx::http::Request;
use libseal_services::apache::{ApacheConfig, ApacheServer};
use libseal_services::owncloud::{OwnCloudAttack, OwnCloudServer};
use libseal_services::{HttpsClient, TlsMode};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

fn main() {
    let ca = CertificateAuthority::new("DemoCA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("localhost", &[2u8; 32]).unwrap();
    let config = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(OwnCloudModule))
        .cost_model(CostModel::free())
        .check_interval(0)
        .build();
    let libseal = LibSeal::new(config).expect("libseal");

    let oc = Arc::new(OwnCloudServer::new());
    let server = ApacheServer::start(
        ApacheConfig::new(TlsMode::LibSeal(libseal.clone()), Arc::new(Arc::clone(&oc))).workers(2),
    )
    .expect("server");
    println!("ownCloud documents (audited) on https://{}", server.addr());

    let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
    let post = |path: &str, body: String| {
        client
            .request(&Request::new("POST", path, body.into_bytes()))
            .expect("request")
    };

    // Bob joins the empty document; Alice types two edits.
    post("/owncloud/join", r#"{"doc":"paper","client":"bob"}"#.into());
    post(
        "/owncloud/sync",
        r#"{"doc":"paper","client":"alice","ops":[{"content":"Introduction. "},{"content":"Motivation. "}]}"#.into(),
    );

    // The provider LOSES Alice's first edit when relaying to Bob.
    oc.set_attack(OwnCloudAttack::DropUpdate {
        doc: "paper".into(),
        seq: 1,
    });
    let rsp = post(
        "/owncloud/sync",
        r#"{"doc":"paper","client":"bob","ops":[]}"#.into(),
    );
    println!("bob receives: {}", String::from_utf8_lossy(&rsp.body));

    let outcome = libseal.check_now(0).expect("check");
    println!("\ninvariant check after lost edit:");
    for report in &outcome.reports {
        println!(
            "  {:<32} violations: {}",
            report.invariant, report.violations
        );
    }
    assert!(outcome
        .reports
        .iter()
        .any(|r| r.invariant == "owncloud-prefix-completeness" && r.violations > 0));

    // Second attack: Alice saves snapshot v2; the provider serves the
    // stale v1 to a fresh client.
    oc.set_attack(OwnCloudAttack::None);
    post(
        "/owncloud/leave",
        r#"{"doc":"paper","client":"alice","snapshot":"v1: Introduction.","seq":2}"#.into(),
    );
    post(
        "/owncloud/leave",
        r#"{"doc":"paper","client":"alice","snapshot":"v2: Introduction. Motivation.","seq":2}"#
            .into(),
    );
    oc.set_attack(OwnCloudAttack::StaleSnapshot {
        doc: "paper".into(),
    });
    post(
        "/owncloud/join",
        r#"{"doc":"paper","client":"carol"}"#.into(),
    );

    let outcome = libseal.check_now(0).expect("check");
    println!("\ninvariant check after stale snapshot:");
    for report in &outcome.reports {
        println!(
            "  {:<32} violations: {}",
            report.invariant, report.violations
        );
    }
    assert!(outcome
        .reports
        .iter()
        .any(|r| r.invariant == "owncloud-snapshot-soundness" && r.violations > 0));

    libseal.verify_log(0).expect("log intact");
    println!("\nboth violations detected; audit log signed and verified");
    server.stop();
}
