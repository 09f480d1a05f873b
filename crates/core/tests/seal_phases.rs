//! `seal_staged` times each phase of a commit once: the counter round,
//! the bind and head signature, the journal write and the fdatasync.
//!
//! Alone in its binary, as one test: the histograms are process-wide,
//! and any other test that commits a log would move them too.

use libseal::log::{seal_staged, AuditLog, LogBacking, NoGuard};
use libseal::{GitModule, ServiceModule};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::Value;
use plat::tmp::TempPath;

const PHASES: [&str; 4] = [
    "core_seal_counter_ns",
    "core_seal_sign_ns",
    "core_seal_write_ns",
    "core_flush_ns",
];

fn counts() -> [u64; 4] {
    PHASES.map(|name| libseal_telemetry::histogram(name).snapshot().count())
}

#[test]
fn one_commit_moves_each_seal_phase_once() {
    let path = TempPath::new("libseal-seal-phases", "log");
    let ssm = GitModule;
    let log = AuditLog::open(
        LogBacking::Disk(path.to_path_buf()),
        [7u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        Box::new(NoGuard),
        ssm.schema_sql(),
        ssm.tables(),
    )
    .unwrap();
    let log = plat::sync::Mutex::new(log);
    for round in 0..3i64 {
        log.lock()
            .append(
                "updates",
                &[
                    Value::Integer(round),
                    Value::Text("r".into()),
                    Value::Text("main".into()),
                    Value::Text(format!("{round:040x}")),
                    Value::Text("update".into()),
                ],
            )
            .unwrap();
        let before = counts();
        assert!(seal_staged(&log, |l| l).unwrap(), "round {round} sealed");
        let moved: Vec<u64> = counts().iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, [1, 1, 1, 1], "round {round}: {PHASES:?}");
        // Nothing staged: no commit, no phase.
        let before = counts();
        assert!(!seal_staged(&log, |l| l).unwrap());
        assert_eq!(counts(), before, "round {round}, clean log");
    }
}
