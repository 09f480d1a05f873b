//! Quickstart: audit a Git-like service with LibSEAL and catch a
//! rollback attack.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! The example builds a LibSEAL instance with the Git service-specific
//! module, feeds it a few request/response pairs directly (no network,
//! no TLS pump — see `git_audit.rs` for the full socket path), then
//! shows the audit log detecting a rollback attack and surviving an
//! integrity check.

use std::sync::Arc;

use libseal::{GitModule, LibSeal, LibSealConfig};
use libseal_httpx::http::{Request, Response};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

fn main() {
    // 1. A CA issues the service's TLS identity (in production this
    //    private key is released only to an attested enclave — see
    //    examples/tamper_evidence.rs).
    let ca = CertificateAuthority::new("DemoCA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("git.example.com", &[2u8; 32]).unwrap();

    // 2. Build LibSEAL with the Git SSM. The cost model is disabled
    //    here; benchmarks enable it to simulate SGX overheads.
    let config = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
        .check_interval(0) // we check explicitly below
        .build();
    let libseal = LibSeal::new(config).expect("libseal init");
    println!(
        "LibSEAL enclave measurement: {}",
        hex(&libseal.measurement())
    );

    // 3. Feed audited request/response pairs into the log, as the TLS
    //    termination path would.
    let log = |req: Request, rsp: Response| {
        libseal
            .with_log(0, move |log| {
                let ssm = GitModule;
                libseal::ServiceModule::log_pair(&ssm, &req.to_bytes(), &rsp.to_bytes(), log)
                    .expect("log pair")
            })
            .expect("enclave call")
    };

    // The client pushes two commits to main...
    log(
        Request::new(
            "POST",
            "/repo/demo/git-receive-pack",
            b"0 c1 refs/heads/main\n".to_vec(),
        ),
        Response::new(200, b"ok\n".to_vec()),
    );
    log(
        Request::new(
            "POST",
            "/repo/demo/git-receive-pack",
            b"c1 c2 refs/heads/main\n".to_vec(),
        ),
        Response::new(200, b"ok\n".to_vec()),
    );
    println!("pushed c1, then c2 to refs/heads/main");

    // 4. The service advertises the STALE commit c1 — a rollback
    //    attack that Git's own hash chain cannot detect.
    log(
        Request::new(
            "GET",
            "/repo/demo/info/refs?service=git-upload-pack",
            Vec::new(),
        ),
        Response::new(200, b"c1 refs/heads/main\n".to_vec()),
    );
    println!("service advertised STALE commit c1 (rollback attack)");

    // 5. Run the invariants: the soundness query fires.
    let outcome = libseal.check_now(0).expect("check");
    println!("\ninvariant check results:");
    for report in &outcome.reports {
        println!(
            "  {:<20} violations: {}",
            report.invariant, report.violations
        );
    }
    assert_eq!(outcome.total_violations(), 1);
    println!(
        "in-band header would read: Libseal-Check-Result: {}",
        outcome.header_value()
    );

    // 6. The log itself is tamper-evident.
    libseal.verify_log(0).expect("log verifies");
    let (entries, bytes, _) = libseal.log_stats(0).expect("stats");
    println!("\naudit log: {entries} entries, ~{bytes} bytes, hash chain + signature valid");

    // 7. Everything above was measured: every wired crate reports into
    //    the process-wide telemetry registry (served as /metrics by the
    //    service layer — see crates/services::MetricsRouter).
    let reg = libseal::telemetry::global();
    let append_ns = reg.histogram("core_append_ns").snapshot();
    println!(
        "\ntelemetry: {} appends (p95 {}us), {} sealdb statements, {} enclave ecalls",
        append_ns.count(),
        append_ns.percentile(0.95) / 1000,
        reg.counter("sealdb_statements_total").get(),
        reg.counter("sgxsim_ecalls_total").get(),
    );
    println!("recent enclave-boundary spans:");
    for ev in reg.recent_spans().iter().rev().take(3) {
        println!(
            "  {} [{}] {}us (+{} boundary cycles)",
            ev.name,
            ev.side.as_str(),
            ev.duration.as_micros(),
            ev.boundary_cycles
        );
    }
    println!("\nquickstart OK: rollback attack detected with non-repudiable evidence");
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}
