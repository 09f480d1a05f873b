//! Responses that log nothing must not touch the journal: the periodic
//! check used to trim — and so compact (write, fsync, rename, directory
//! fsync) — a disk-backed log every `check_interval` responses whether
//! or not anything had been appended since the last compaction.
//!
//! Alone in its test binary: it reads a process-global counter.

use std::sync::Arc;

use libseal::{GitModule, LibSeal, LibSealConfig, LogBacking};
use libseal_httpx::http::Request;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

use libseal_services::apache::{ApacheConfig, ApacheServer, StaticContentRouter};
use libseal_services::{HttpsClient, TlsMode};

mod common;
use common::for_each_driver;

#[test]
fn unlogged_responses_leave_the_journal_alone() {
    for_each_driver(|event| {
        let journal = plat::tmp::TempPath::new("libseal-idle-journal", "log");
        let ca = CertificateAuthority::new("IdleCA", &[0x77; 32]);
        let (key, cert) = ca.issue_identity("localhost", &[0x21; 32]).unwrap();
        // Defaults otherwise: a check (with trimming) every 25 pairs on
        // the background verifier.
        let ls = LibSeal::new(
            LibSealConfig::builder(cert, key)
                .ssm(Arc::new(GitModule))
                .cost_model(CostModel::free())
                .backing(LogBacking::Disk(journal.path().to_path_buf()))
                .build(),
        )
        .unwrap();
        let server = ApacheServer::start(
            ApacheConfig::new(TlsMode::LibSeal(ls.clone()), Arc::new(StaticContentRouter))
                .workers(2)
                .event_loop(event),
        )
        .unwrap();
        let client = HttpsClient::new(server.addr(), vec![ca.root_key()], "localhost");
        let mut conn = client.connect().unwrap();
        let mut serve = |n: usize| {
            for _ in 0..n {
                let rsp = conn
                    .request(&Request::new("GET", "/content/1024", Vec::new()))
                    .unwrap();
                assert_eq!(rsp.status, 200);
            }
            ls.verifier_barrier().unwrap();
        };
        let fsyncs = libseal_telemetry::counter("sealdb_journal_fsyncs_total");

        // Warm-up: two full check intervals, so the first (legitimate)
        // trim of the freshly opened log is behind us.
        serve(50);
        let warm = fsyncs.get();
        serve(100);
        assert_eq!(
            fsyncs.get() - warm,
            0,
            "100 unlogged responses fsynced the journal (event={event})"
        );
        ls.verify_log(0).unwrap();
        server.stop();
    });
}
