//! The threads an audit plane costs its host: a sealer and a verifier
//! per enclave, plus the resident SGX threads of an asynchronous-call
//! runtime, and nothing else — the ROTE counter nodes are simulated
//! inline, not stood up as threads. Alone in its binary because
//! `/proc/self/task` counts the whole process.

use std::sync::Arc;

use libseal::{GitModule, LibSeal, LibSealConfig, LibSealConfigBuilder};
use libseal_lthread::RuntimeConfig;
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// A joined thread can outlive its join in `/proc` by a moment (the
/// joiner is woken before the kernel unlinks the task).
fn assert_settles_to(expected: usize) {
    let patience = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while threads() != expected && std::time::Instant::now() < patience {
        std::thread::yield_now();
    }
    assert_eq!(threads(), expected, "threads left behind");
}

/// An audited configuration with every default that spawns left alone
/// (in particular the default `GuardConfig::Rote`).
fn audited() -> LibSealConfigBuilder {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    LibSealConfig::builder(cert, key)
        .ssm(Arc::new(GitModule))
        .cost_model(CostModel::free())
}

#[test]
fn an_enclave_costs_two_threads_and_returns_them() {
    let before = threads();

    let one = LibSeal::new(audited().build()).unwrap();
    assert_eq!(threads() - before, 2, "sealer + verifier");
    drop(one);
    assert_settles_to(before);

    let fleet = audited().shards(4).build_plane().unwrap();
    assert_eq!(threads() - before, 8, "sealer + verifier per shard");
    drop(fleet);
    assert_settles_to(before);

    // The §4.3 runtime adds its resident SGX threads and nothing else:
    // callers wait on their own slots, no thread polls them.
    let config = RuntimeConfig::default();
    let sgx_threads = config.sgx_threads;
    let with_async = LibSeal::with_async(audited().build(), config).unwrap();
    assert_eq!(
        threads() - before,
        2 + sgx_threads,
        "sealer + verifier + resident SGX threads"
    );
    drop(with_async);
    assert_settles_to(before);
}
