//! CI gate: incremental invariant checking must cost O(rows touched
//! since the last check), not O(log).
//!
//! The full-scan checker re-evaluates every invariant over the whole
//! audit log, so the per-append check cost grows with history and the
//! trimming interval becomes a throughput cliff (Fig. 6). With the
//! delta-maintained views a due check refreshes only the partitions
//! dirtied since the last check and reads violations straight out of
//! the view. This gate builds Git logs of 1 k and 1 M entries, then
//! measures the steady-state cost of one incremental check after a
//! fixed window of appends at each size. The per-append check cost
//! must stay flat: the 1000× larger log may cost at most 2× more.
//!
//! At every size the incremental verdicts are cross-checked against
//! the full-scan reference (both must report the injected violations,
//! exactly). Finally the background verifier pool drains a few due
//! batches so the `core_verifier_lag` gauge is live in /metrics.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin check_scaling_gate
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use libseal::log::{AuditLog, LogBacking, NoGuard};
use libseal::{Checker, GitModule, TicketQueue, Worker};
use libseal_bench::{fresh_log, git_advert, git_update};

/// Flatness tolerance: per-append check cost on the 1000× log may be
/// at most this factor of the small log's.
const MAX_FACTOR: f64 = 2.0;
/// Small-log times are clamped up to this floor so timer noise on a
/// sub-100µs measurement cannot trip the gate.
const FLOOR: Duration = Duration::from_micros(100);
/// Appended request/response pairs between two due checks (the
/// steady-state delta one check absorbs).
const WINDOW: usize = 32;
/// Deliberately wrong advertisements injected per log: the views must
/// carry real violation rows, and the incremental/full verdicts must
/// agree on a non-zero count.
const INJECTED: usize = 3;

/// One Git push: an update immediately followed by its advertisement.
/// A `lie` advertises a bogus head, creating one soundness violation.
fn push(log: &mut AuditLog, repo: &str, cid: &str, lie: bool) {
    git_update(log, repo, "main", cid).unwrap();
    git_advert(log, repo, "main", if lie { "WRONG" } else { cid }).unwrap();
}

/// Honest single-branch Git history of `n` entries (n/2 pushes) with
/// [`INJECTED`] lying advertisements spread through it. Views are
/// installed BEFORE the appends so the log pays realistic
/// dirty-tracking costs on every insert.
fn git_log(n: usize) -> AuditLog {
    let m = GitModule;
    // Appends only stage, as under the production group-commit
    // pipeline: building the history pays no head signature per append
    // (this gate times checking, not sealing).
    let mut log = fresh_log(&m, LogBacking::Memory, Box::new(NoGuard));
    Checker::install(&m, &mut log).expect("install views");
    let pushes = n / 2;
    let repos = (n / 10).max(1);
    let lie_every = (pushes / INJECTED).max(1);
    for i in 0..pushes {
        let repo = format!("r{}", i % repos);
        let cid = format!("{i:040x}");
        let lie = i % lie_every == lie_every - 1 && i / lie_every < INJECTED;
        push(&mut log, &repo, &cid, lie);
        // Periodic refresh, as the interval checker would do in
        // production: keeps the dirty backlog bounded instead of
        // draining the whole history in one go at the end.
        if i % 10_000 == 9_999 {
            log.db_mut().refresh_matviews().unwrap();
        }
    }
    log
}

/// Steady-state per-append check cost: append a window of pairs, run
/// one incremental check, repeat; report the minimum of five trials
/// divided by the window size.
fn per_append_cost(log: &mut AuditLog) -> Duration {
    let m = GitModule;
    // Drain the build backlog so trials measure the steady state.
    Checker::run_checks_incremental(&m, log).unwrap();
    let mut best = Duration::MAX;
    for trial in 0..5 {
        for i in 0..WINDOW {
            let repo = format!("w{trial}x{i}");
            push(log, &repo, "abc123", false);
        }
        let start = Instant::now();
        let out = Checker::run_checks_incremental(&m, log).unwrap();
        best = best.min(start.elapsed());
        assert_eq!(
            out.total_violations(),
            INJECTED,
            "steady-state check lost the injected violations"
        );
    }
    best / WINDOW as u32
}

/// Asserts the incremental verdicts match the full-scan reference,
/// invariant by invariant.
fn cross_check(log: &mut AuditLog) {
    let m = GitModule;
    let inc = Checker::run_checks_incremental(&m, log).unwrap();
    let full = Checker::run_checks(&m, log).unwrap();
    assert_eq!(
        inc.total_violations(),
        full.total_violations(),
        "incremental and full-scan disagree on the violation total"
    );
    for (a, b) in inc.reports.iter().zip(full.reports.iter()) {
        assert_eq!(
            a.violations, b.violations,
            "incremental and full-scan disagree on invariant {}",
            a.invariant
        );
    }
    assert_eq!(
        inc.total_violations(),
        INJECTED,
        "injected violations missing"
    );
}

/// Drains a few due batches through the background verifier pool so
/// the lag gauge and alarm counter are exercised end to end, then
/// asserts the gauge is visible in the /metrics rendering.
fn drive_verifier(log: AuditLog) {
    let m = GitModule;
    let log = Arc::new(plat::sync::Mutex::new(log));
    let queue = Arc::new(TicketQueue::verifier());
    let worker = {
        let log = Arc::clone(&log);
        Worker::spawn("gate-verifier", Arc::clone(&queue), move || {
            let mut g = log.lock();
            Checker::run_checks_incremental(&m, &mut g).map(|o| o.count_alarm())
        })
    };
    for i in 0..6 {
        let slot = queue.reserve();
        let mut g = log.lock();
        push(&mut g, &format!("v{i}"), "abc123", false);
        slot.issue().unwrap();
    }
    queue.quiesce().unwrap();
    assert_eq!(queue.depth(), 0, "quiesce must drain the verifier");
    drop(worker);
    let metrics = libseal_telemetry::global().render_text();
    assert!(
        metrics.contains("core_verifier_lag"),
        "verifier lag gauge missing from /metrics"
    );
    assert!(
        metrics.contains("core_verifier_alarms_total"),
        "verifier alarm counter missing from /metrics"
    );
}

fn main() {
    let (small_n, large_n) = (1_000, 1_000_000);

    let build = Instant::now();
    let mut small = git_log(small_n);
    cross_check(&mut small);
    let t_small = per_append_cost(&mut small).max(FLOOR);
    println!(
        "small log: {small_n} entries built+checked in {:?}",
        build.elapsed()
    );

    let build = Instant::now();
    let mut large = git_log(large_n);
    cross_check(&mut large);
    let t_large = per_append_cost(&mut large);
    println!(
        "large log: {large_n} entries built+checked in {:?}",
        build.elapsed()
    );

    let factor = t_large.as_secs_f64() / t_small.as_secs_f64();
    let verdict = if factor < MAX_FACTOR { "ok" } else { "FAIL" };
    println!(
        "git incremental check: {t_small:?}/append @ {small_n} entries, \
         {t_large:?}/append @ {large_n} entries ({factor:.2}x, limit {MAX_FACTOR:.0}x) .. {verdict}"
    );

    drive_verifier(small);
    println!("verifier pool drained; core_verifier_lag live in /metrics");

    if factor >= MAX_FACTOR {
        eprintln!(
            "check scaling gate FAILED: incremental checking is not O(rows touched) \
             ({factor:.2}x growth over a 1000x log)"
        );
        std::process::exit(1);
    }
    println!("check scaling gate passed");
}
