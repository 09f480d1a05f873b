//! CI gate: the crash matrix. Enumerate every failpoint the audited
//! write path crosses (append, per-request flush, trim and its
//! snapshot frame, the journal's write and sync, reclamation, ROTE
//! rounds, the group-commit pipeline, recovery itself), simulate a
//! crash at each one, restart, and assert the recovery contract:
//!
//!   1. the reopen succeeds (a crash never corrupts, it only truncates),
//!   2. every entry whose append *and* commit returned success is still
//!      there (the durable prefix),
//!   3. no more than the attempted appends are there (salvage never
//!      invents records),
//!   4. the hash chain and signed head verify,
//!   5. the SSM invariant queries still run,
//!   6. the ROTE counter — which survives the enclave crash, as the
//!      external service does in §5.1 — reconciles with the log.
//!
//! A trim legitimately drops entries, so what is owed after one is
//! what it keeps ([`KEPT`]), whether it landed or was given up. Sites a
//! trim crosses get a second row with the fault armed as the trim
//! begins, under both workloads, and under a third in which the trim
//! runs while the sealer's counter round is in flight. Reclamation's
//! sites run under a fourth workload that appends and trims until the
//! journal's dead bytes pass their bound. Torn writes (a `write(2)`
//! cut short) are exercised separately on the raw-write sites, the
//! zeros a commit grows the journal by among them. Runtime
//! is bounded: one fixed workload per (site, fault) pair, tens of
//! trials total.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin crash_matrix
//! ```

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use libseal::log::{seal_staged, AuditLog, LogBacking, RollbackGuard, RoteGuard};
use libseal::ssm::git::GIT_SOUNDNESS;
use libseal::{GitModule, ServiceModule, TicketQueue, Worker};
use libseal_bench::{git_advert, git_update};
use libseal_crypto::ed25519::SigningKey;
use libseal_rote::{Cluster, ClusterConfig};
use plat::failpoint::{self, FaultSpec, Scenario};
use plat::tmp::TempPath;

/// Appends attempted by one workload run.
const APPENDS: u64 = 6;
/// Entries a trim keeps, in either workload: every update goes to one
/// branch, so the Git trim queries keep the newest and nothing else.
const KEPT: u64 = 1;
/// Writer threads of the group-commit workload.
const WRITERS: u64 = 3;

fn cluster() -> Arc<Cluster> {
    let mut cfg = ClusterConfig::new(1);
    cfg.deadline = std::time::Duration::from_millis(200);
    cfg.retries = 0;
    cfg.backoff = std::time::Duration::from_millis(1);
    Arc::new(Cluster::with_config(cfg, b"crash-matrix").expect("cluster"))
}

fn open_log(path: &TempPath, guard: Box<dyn RollbackGuard>) -> libseal::Result<AuditLog> {
    let ssm = GitModule;
    AuditLog::open(
        LogBacking::Disk(path.to_path_buf()),
        [7u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        guard,
        ssm.schema_sql(),
        ssm.tables(),
    )
}

/// What the dying process managed to get done.
struct Outcome {
    /// Appends whose append *and* per-request commit both succeeded,
    /// less what a trim dropped — what recovery must preserve.
    durable: u64,
}

/// The fixed workload: five audited appends (each committed per
/// request, as the paper's per-request synchronous flush mandates), a
/// trim and its commit, one more append. Materialized-view registration
/// and refresh are interleaved so the `sealdb::view::*` failpoints sit
/// on the path.
/// Any step may fail once the armed fault fires; later steps then
/// fail too (the failpoint crash latch), exactly as in a dead process.
/// `at_trim` runs right before the trim.
fn workload(path: &TempPath, guard: Box<dyn RollbackGuard>, at_trim: &dyn Fn()) -> Outcome {
    let mut durable = 0;
    let Ok(mut log) = open_log(path, guard) else {
        return Outcome { durable };
    };
    // Views are derived state: a failed registration or refresh must
    // not affect the durable-prefix accounting of base appends.
    let _ = libseal::Checker::install(&GitModule, &mut log);
    let append_one = |log: &mut AuditLog, i: u64| -> bool {
        git_update(log, "r", "main", &format!("{i:040x}")).is_ok() && log.commit().is_ok()
    };
    // Advertisements dirty the soundness view (updates alone cannot —
    // the monotone-time rule — so refresh would be a no-op without
    // them, and the apply-delta failpoint would never fire). The
    // advertised heads are deliberately wrong: the view carries real
    // violation rows through crash and recovery.
    let append_ad = |log: &mut AuditLog, i: u64| -> bool {
        git_advert(log, "r", "main", &format!("{i:040x}")).is_ok() && log.commit().is_ok()
    };
    for i in 0..4 {
        if append_one(&mut log, i) {
            durable += 1;
        }
    }
    if append_ad(&mut log, 99) {
        durable += 1;
    }
    let _ = log.refresh_matviews();
    at_trim();
    let _ = (log.trim(GitModule.trim_queries())).and_then(|_| log.commit());
    durable = durable.min(KEPT);
    for i in 5..APPENDS {
        if append_one(&mut log, i) {
            durable += 1;
        }
    }
    let _ = log.refresh_matviews();
    Outcome { durable }
}

/// The group-commit workload: writer threads stage appends through a
/// [`TicketQueue`] and block on the commit barrier while a [`Worker`]
/// drains batches with the production seal step (one counter bind,
/// head signature and fsync per batch). `durable` counts appends whose
/// barrier acknowledged — exactly the prefix whose seal *and* flush
/// landed before the fault. Between the writers' two appends the log is
/// trimmed as the verifier trims it: under the audit lock, from a
/// thread that is neither a writer nor the sealer.
fn pipeline_workload(
    path: &TempPath,
    guard: Box<dyn RollbackGuard>,
    at_trim: &dyn Fn(),
) -> Outcome {
    let Ok(log) = open_log(path, guard) else {
        return Outcome { durable: 0 };
    };
    let log = Arc::new(plat::sync::Mutex::new(log));
    let queue = Arc::new(TicketQueue::sealer(4));
    let sealer = {
        let log = Arc::clone(&log);
        Worker::spawn("matrix-sealer", Arc::clone(&queue), move || {
            seal_staged(&log, |l| l).map(drop)
        })
    };
    // Writers park here after their first append, and again until the
    // trim is over.
    let gate = Arc::new(std::sync::Barrier::new(WRITERS as usize + 1));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let log = Arc::clone(&log);
            let queue = Arc::clone(&queue);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                // Acknowledged before and after the trim.
                let mut acked = [0u64; 2];
                for i in 0..(APPENDS / WRITERS) {
                    if i == 1 {
                        gate.wait();
                        gate.wait();
                    }
                    // Backpressure before the audit lock, so a full
                    // queue never stalls the sealer that drains it.
                    let slot = queue.reserve();
                    let ticket = {
                        let mut g = log.lock();
                        let cid = format!("{w:02x}{i:038x}");
                        if git_update(&mut g, "r", "main", &cid).is_err() {
                            continue;
                        }
                        match slot.issue() {
                            Ok(t) => t,
                            Err(_) => continue,
                        }
                    };
                    if queue.wait(ticket).is_ok() {
                        acked[i as usize] += 1;
                    }
                }
                acked
            })
        })
        .collect();
    gate.wait();
    at_trim();
    let _ = log.lock().trim(GitModule.trim_queries());
    gate.wait();
    let acked = handles.into_iter().map(|h| h.join().unwrap());
    let [before, after] = acked.fold([0, 0], |sum, a| [sum[0] + a[0], sum[1] + a[1]]);
    let durable = before.min(KEPT) + after;
    drop(sealer);
    Outcome { durable }
}

/// A counter whose rounds, once `slow` is set, answer [`ROUND`] after
/// the step is stored, and raise `in_round` meanwhile: the window in
/// which the sealer has bound a value outside the audit lock.
struct SlowRounds {
    inner: Box<dyn RollbackGuard>,
    slow: Arc<AtomicBool>,
    in_round: Arc<AtomicBool>,
}

/// How long a [`SlowRounds`] round takes to answer.
const ROUND: std::time::Duration = std::time::Duration::from_millis(30);

impl RollbackGuard for SlowRounds {
    fn increment(&self) -> libseal::Result<u64> {
        let v = self.inner.increment()?;
        if self.slow.load(SeqCst) {
            self.in_round.store(true, SeqCst);
            std::thread::sleep(ROUND);
        }
        Ok(v)
    }
    fn attested(&self) -> libseal::Result<u64> {
        self.inner.attested()
    }
}

/// The sealer's counter round and the verifier's trim, interleaved:
/// five committed appends, one staged, then a sealer binds its value
/// outside the audit lock and, while the round is still answering, the
/// log is trimmed under the lock. At most one bound value may be ahead
/// of the journal whatever dies where, so the trim binds none of its
/// own: the sealer's seal covers it.
fn sealer_trim_workload(
    path: &TempPath,
    guard: Box<dyn RollbackGuard>,
    at_trim: &dyn Fn(),
) -> Outcome {
    let (slow, in_round) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let guard = SlowRounds {
        inner: guard,
        slow: Arc::clone(&slow),
        in_round: Arc::clone(&in_round),
    };
    let Ok(mut log) = open_log(path, Box::new(guard)) else {
        return Outcome { durable: 0 };
    };
    let mut durable = 0;
    for i in 0..APPENDS - 1 {
        if git_update(&mut log, "r", "main", &format!("{i:040x}")).is_ok() && log.commit().is_ok() {
            durable += 1;
        }
    }
    let _ = git_update(&mut log, "r", "main", &format!("{:040x}", APPENDS - 1));
    slow.store(true, SeqCst);
    let log = Arc::new(plat::sync::Mutex::new(log));
    let sealer = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || seal_staged(&log, |l| l).map(drop))
    };
    let started = std::time::Instant::now();
    while !in_round.load(SeqCst) && started.elapsed() < ROUND {
        std::thread::yield_now();
    }
    at_trim();
    let _ = log.lock().trim(GitModule.trim_queries());
    let _ = sealer.join().expect("sealer thread");
    Outcome {
        durable: durable.min(KEPT),
    }
}

/// Trim cycles [`reclaim_workload`] runs at most: enough for its
/// journal's dead bytes to pass `sealdb::journal::RECLAIM_BYTES`.
const RECLAIM_CYCLES: usize = 4_000;

/// Reclamation's workload: one committed append and one committed trim
/// per cycle, until a commit has reclaimed the journal (it shrank), then
/// one more append.
fn reclaim_workload(
    path: &TempPath,
    guard: Box<dyn RollbackGuard>,
    _at_trim: &dyn Fn(),
) -> Outcome {
    let Ok(mut log) = open_log(path, guard) else {
        return Outcome { durable: 0 };
    };
    let append = |log: &mut AuditLog, i: usize| {
        git_update(log, "r", "main", &format!("{i:040x}")).is_ok() && log.commit().is_ok()
    };
    let mut durable = 0;
    for i in 0..RECLAIM_CYCLES {
        let before = log.journal_size_bytes();
        if !append(&mut log, i) {
            break;
        }
        let _ = (log.trim(GitModule.trim_queries())).and_then(|_| log.commit());
        durable = KEPT;
        if log.journal_size_bytes() < before {
            break;
        }
    }
    durable += u64::from(append(&mut log, RECLAIM_CYCLES));
    Outcome { durable }
}

/// Dry-runs the workload with no faults armed so every failpoint on
/// the path registers itself, then returns the matrix rows.
fn enumerate_sites(s: &Scenario) -> Vec<String> {
    s.reset();
    let path = TempPath::new("crash-matrix-dry", "log");
    let c = cluster();
    let out = workload(&path, Box::new(RoteGuard(Arc::clone(&c))), &|| ());
    assert_eq!(out.durable, KEPT + 1, "fault-free workload must not fail");
    // A fault-free reopen also registers the recovery-path sites
    // (salvage, rote::recover) that only fire on restart.
    drop(open_log(&path, Box::new(RoteGuard(c))).expect("fault-free reopen"));
    // And the group-commit pipeline registers its enqueue/seal/ack
    // sites, which the serial workload never crosses.
    let gc_path = TempPath::new("crash-matrix-dry-gc", "log");
    let gc = cluster();
    let out = pipeline_workload(&gc_path, Box::new(RoteGuard(gc)), &|| ());
    assert_eq!(
        out.durable,
        KEPT + WRITERS,
        "fault-free pipeline must not fail"
    );
    // And reclamation registers its copy, fsync, rename and directory
    // sync.
    let rc_path = TempPath::new("crash-matrix-dry-rc", "log");
    let out = reclaim_workload(&rc_path, Box::new(RoteGuard(cluster())), &|| ());
    assert_eq!(
        out.durable,
        KEPT + 1,
        "fault-free reclamation must not fail"
    );
    let mut sites = s.registered();
    sites.sort();
    sites
}

type Workload = fn(&TempPath, Box<dyn RollbackGuard>, &dyn Fn()) -> Outcome;

/// Runs one (site, fault) trial under `run`; returns an error
/// description on contract violation. `in_trim` arms the fault only as
/// the workload's trim begins, for a site earlier steps cross too;
/// otherwise it fires at the site's first hit.
fn trial(
    s: &Scenario,
    site: &str,
    spec: FaultSpec,
    flavor: &str,
    (run, in_trim): (Workload, bool),
) -> Result<(), String> {
    s.reset();
    let flavor = &format!("{flavor}{}", if in_trim { " in trim" } else { "" });
    let path = TempPath::new(&format!("crash-matrix-{}", site.replace(':', "_")), "log");
    // The counter cluster outlives the "crash": ROTE nodes are an
    // external service, not enclave state.
    let c = cluster();
    let guard = Box::new(RoteGuard(Arc::clone(&c)));
    let out = if in_trim {
        run(&path, guard, &|| s.set(site, spec.after(s.hits(site))))
    } else {
        s.set(site, spec);
        run(&path, guard, &|| ())
    };

    // Restart: clear the crash latch, reopen against the surviving
    // journal and the surviving counter service.
    s.reset();
    let mut log = open_log(&path, Box::new(RoteGuard(Arc::clone(&c))))
        .map_err(|e| format!("{site} [{flavor}]: reopen failed: {e}"))?;
    let entries = log.entries();
    if entries < out.durable {
        return Err(format!(
            "{site} [{flavor}]: durable prefix lost: {entries} < {}",
            out.durable
        ));
    }
    if entries > APPENDS {
        return Err(format!(
            "{site} [{flavor}]: recovered more than was written: {entries} > {APPENDS}"
        ));
    }
    log.verify()
        .map_err(|e| format!("{site} [{flavor}]: chain verify failed: {e}"))?;
    log.query(GIT_SOUNDNESS, &[])
        .map_err(|e| format!("{site} [{flavor}]: invariant query failed: {e}"))?;
    // Derived view state must be reconstructible from the recovered
    // base tables, no matter where the crash hit: re-register (which
    // reseeds the views), refresh, and compare against the full-scan
    // reference.
    libseal::Checker::install(&GitModule, &mut log)
        .map_err(|e| format!("{site} [{flavor}]: view install failed: {e}"))?;
    log.refresh_matviews()
        .map_err(|e| format!("{site} [{flavor}]: view refresh failed: {e}"))?;
    let view = log
        .matview_rows("git-soundness")
        .ok_or_else(|| format!("{site} [{flavor}]: no git-soundness view after install"))?;
    let full = log
        .query(GIT_SOUNDNESS, &[])
        .map_err(|e| format!("{site} [{flavor}]: reference query failed: {e}"))?;
    let mut got: Vec<String> = view.iter().map(|r| format!("{r:?}")).collect();
    let mut want: Vec<String> = full.rows.iter().map(|r| format!("{r:?}")).collect();
    got.sort();
    want.sort();
    if got != want {
        return Err(format!(
            "{site} [{flavor}]: view diverged from full scan after reopen: \
             {} view rows vs {} reference rows",
            got.len(),
            want.len()
        ));
    }
    let report = log.recovery_report();
    if report.attested_counter > report.durable_counter + 1 {
        return Err(format!(
            "{site} [{flavor}]: unreconciled counter: attested {} vs durable {}",
            report.attested_counter, report.durable_counter
        ));
    }
    println!(
        "  ok {site:<32} [{flavor:>13}] durable {} recovered {entries} \
         (salvaged {}B, rolled forward {}, window {})",
        out.durable, report.salvaged_bytes, report.rolled_forward, report.crash_window
    );
    Ok(())
}

fn main() {
    let s = failpoint::scenario();
    let sites = enumerate_sites(&s);
    println!(
        "crash matrix: {} failpoints on the audited write path",
        sites.len()
    );

    // The pipeline sites only fire under the group-commit workload;
    // everything else runs the serial per-request-commit workload. The
    // counter bind is crossed by both (inside `AuditLog::seal` and in
    // the sealer's `seal_staged`), so it gets a row under each.
    let mut rows: Vec<(&str, (Workload, bool))> = sites
        .iter()
        .map(|site| {
            let run: Workload = match site {
                s if s.starts_with("core::commit::") => pipeline_workload,
                s if s.starts_with("sealdb::reclaim::") => reclaim_workload,
                _ => workload,
            };
            (site.as_str(), (run, false))
        })
        .collect();
    rows.push(("core::log::append::counter", (pipeline_workload, false)));
    // A trim is sealed by the same step as an append, so by the time it
    // starts the seal's sites have long had their first hit: arm them
    // as the trim begins. The sites only a trim crosses (its queries,
    // the chain rebuild, the snapshot frame) have their first-hit rows
    // above, under the serial workload; the pipeline gets them here,
    // with the write and fsync of the commit that carries the frame.
    for site in [
        "core::log::append::counter",
        "core::log::append::sign",
        "sealdb::journal::write",
        "sealdb::journal::sync",
    ] {
        rows.push((site, (workload, true)));
        rows.push((site, (pipeline_workload, true)));
    }
    for site in [
        "core::log::trim::queries",
        "core::log::trim::rebuild",
        "sealdb::journal::snapshot",
    ] {
        assert!(sites.iter().any(|x| x == site), "{site} is not on the path");
        rows.push((site, (pipeline_workload, true)));
    }
    // The trim that meets the sealer mid-round: every step the seal
    // covering both takes, armed as the trim begins.
    for site in [
        "core::log::append::sign",
        "core::log::trim::queries",
        "core::log::trim::rebuild",
        "sealdb::journal::snapshot",
        "sealdb::journal::write",
        "sealdb::journal::sync",
        "core::log::flush",
    ] {
        rows.push((site, (sealer_trim_workload, true)));
    }

    let mut failures = Vec::new();
    let mut trials = 0;
    for &(site, run) in &rows {
        trials += 1;
        if let Err(e) = trial(&s, site, FaultSpec::crash(), "crash", run) {
            failures.push(e);
        }
        // Transient I/O error: the process survives, recovery is a
        // reopen of whatever the failed operation left behind.
        trials += 1;
        if let Err(e) = trial(&s, site, FaultSpec::error().times(1), "error", run) {
            failures.push(e);
        }
    }
    // Torn writes on the raw file-write sites: the write is cut short
    // and must be zeroed back or salvaged, never trusted. Every write
    // tears, not just the first: the journal's, under the serial and
    // pipeline workloads (whose trims put a snapshot frame in one),
    // reclamation's copy, and the zeros a commit grows the journal by.
    // A journal's first commit grows it, so a tear from the first write
    // on lands during a segment extension; from the fourth on it lands
    // in the zero tail the first commit left.
    for (site, run, skip) in [
        ("sealdb::journal::write", workload as Workload, 0),
        ("sealdb::journal::write", workload, 3),
        ("sealdb::journal::write", pipeline_workload, 0),
        ("sealdb::journal::write", pipeline_workload, 3),
        ("sealdb::journal::extend", workload, 0),
        ("sealdb::reclaim::copy", reclaim_workload, 0),
    ] {
        if sites.iter().any(|x| x == site) {
            trials += 1;
            let torn = FaultSpec::partial_write(9).after(skip);
            let flavor = if skip == 0 { "torn" } else { "torn late" };
            if let Err(e) = trial(&s, site, torn, flavor, (run, false)) {
                failures.push(e);
            }
        }
    }
    s.reset();

    println!("crash matrix: {trials} trials, {} failures", failures.len());
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
}
