//! CI gate: invariant checking must scale near-linearly in log size.
//!
//! Before the indexed executor, the correlated-subquery soundness
//! invariants were quadratic: a 10× larger log cost ~100× more to
//! check. With the key-column hash indexes the per-row subquery scans
//! a constant-size bucket, so 10× more entries should cost ~10× more.
//! This gate appends honest 2 000- and 20 000-entry logs for each of
//! the three services (key cardinality grows with the log, as it does
//! in real deployments, so index buckets stay small), times one
//! soundness invariant on each, and fails if the 10× log costs more
//! than 20× the time.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin scaling_gate
//! ```

use std::time::{Duration, Instant};

use libseal::log::{AuditLog, LogBacking, NoGuard};
use libseal::ssm::dropbox::DB_PHANTOM_FILE;
use libseal::ssm::git::GIT_SOUNDNESS;
use libseal::ssm::owncloud::OC_SNAPSHOT_SOUND;
use libseal::{DropboxModule, GitModule, OwnCloudModule, ServiceModule};
use libseal_bench::{fresh_log, git_advert, git_update};
use libseal_sealdb::Value;

/// Sub-quadratic tolerance: a 10× log may cost at most this factor.
const MAX_FACTOR: f64 = 20.0;
/// Small-log times are clamped up to this floor so timer noise on a
/// sub-100µs measurement cannot trip the gate.
const FLOOR: Duration = Duration::from_micros(100);

fn mem_log(ssm: &dyn ServiceModule) -> AuditLog {
    fresh_log(ssm, LogBacking::Memory, Box::new(NoGuard))
}

fn text(s: impl Into<String>) -> Value {
    Value::Text(s.into())
}

/// Honest Git history: each push is immediately advertised, so the
/// soundness subquery always resolves to the advertised commit.
fn git_log(n: usize) -> AuditLog {
    let mut log = mem_log(&GitModule);
    let repos = (n / 10).max(1);
    for i in 0..n / 2 {
        let (repo, branch, cid) = (
            format!("r{}", i % repos),
            format!("b{}", i % 16),
            format!("{i:040x}"),
        );
        git_update(&mut log, &repo, &branch, &cid).unwrap();
        git_advert(&mut log, &repo, &branch, &cid).unwrap();
    }
    log
}

/// Honest ownCloud history: every served snapshot repeats the latest
/// saved snapshot of its document.
fn owncloud_log(n: usize) -> AuditLog {
    let mut log = mem_log(&OwnCloudModule);
    let docs = (n / 10).max(1);
    for i in 0..n / 2 {
        let (doc, content) = (format!("d{}", i % docs), format!("v{i}"));
        for kind in ["snapshot_save", "snapshot_sent"] {
            let t = log.next_time() as i64;
            log.append(
                "docupdates",
                &[
                    Value::Integer(t),
                    text(&doc),
                    text("alice"),
                    text(kind),
                    Value::Integer(i as i64),
                    text(&content),
                ],
            )
            .unwrap();
        }
    }
    log
}

/// Honest Dropbox history: every listed file was committed earlier.
fn dropbox_log(n: usize) -> AuditLog {
    let mut log = mem_log(&DropboxModule);
    let files = (n / 10).max(1);
    for i in 0..n / 2 {
        let file = format!("f{}", i % files);
        for table in ["commit_batch", "list"] {
            let t = log.next_time() as i64;
            log.append(
                table,
                &[
                    Value::Integer(t),
                    text(&file),
                    text(format!("blk{i}")),
                    text("acct"),
                    text("h1"),
                    Value::Integer(1),
                ],
            )
            .unwrap();
        }
    }
    log
}

/// One timed clean invariant pass.
fn time_once(log: &AuditLog, sql: &str) -> Duration {
    let start = Instant::now();
    let r = log.query(sql, &[]).unwrap();
    let elapsed = start.elapsed();
    assert!(r.is_empty(), "workload violated its own invariant");
    elapsed
}

/// Minimum-of-5 wall times for both logs, with the measurements
/// interleaved so a transient machine-wide slowdown inflates both
/// sides of the ratio rather than one.
fn time_pair(small: &AuditLog, large: &AuditLog, sql: &str) -> (Duration, Duration) {
    time_once(small, sql); // warm-up, untimed
    time_once(large, sql);
    let (mut t_small, mut t_large) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        t_small = t_small.min(time_once(small, sql));
        t_large = t_large.min(time_once(large, sql));
    }
    (t_small, t_large)
}

type BuildLog = fn(usize) -> AuditLog;

fn main() {
    const SMALL: usize = 2_000;
    const LARGE: usize = 20_000;
    let services: [(&str, BuildLog, &str); 3] = [
        ("git/soundness", git_log, GIT_SOUNDNESS),
        (
            "owncloud/snapshot-soundness",
            owncloud_log,
            OC_SNAPSHOT_SOUND,
        ),
        ("dropbox/phantom-file", dropbox_log, DB_PHANTOM_FILE),
    ];
    let mut failed = false;
    for (name, build, sql) in services {
        let (small, large) = (build(SMALL), build(LARGE));
        let (t_small, t_large) = time_pair(&small, &large, sql);
        let t_small = t_small.max(FLOOR);
        let factor = t_large.as_secs_f64() / t_small.as_secs_f64();
        let verdict = if factor < MAX_FACTOR { "ok" } else { "FAIL" };
        println!(
            "{name}: {SMALL} entries {t_small:?}, {LARGE} entries {t_large:?} \
             ({factor:.1}x, limit {MAX_FACTOR:.0}x) .. {verdict}"
        );
        failed |= factor >= MAX_FACTOR;
    }
    if failed {
        eprintln!("scaling gate FAILED: invariant checking is super-linear in log size");
        std::process::exit(1);
    }
    println!("scaling gate passed");
}
