//! Crash-recovery tests for the audit log: torn-tail salvage as a
//! *synced-prefix* guarantee, counter reconciliation (the legal
//! crash window vs. a rollback alarm), unsigned-tail roll-forward,
//! fail-stop on quorum loss, and a trim interrupted at every point it
//! can be (a lost quorum, a kill, a failing query, a disk that takes no
//! snapshot).
//!
//! Every test opens `plat::failpoint::scenario()` first: the failpoint
//! registry is global, so a fault one test arms would otherwise land
//! in whichever test reaches the site next.

use libseal::log::{
    AuditLog, LogBacking, NoGuard, RecoveryReport, RollbackGuard, RoteGuard, SealingCodec,
};
use libseal::ssm::git::GIT_SOUNDNESS;
use libseal::{GitModule, LibSealError, ServiceModule};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use libseal_crypto::ed25519::SigningKey;
use libseal_rote::{Cluster, ClusterConfig};
use libseal_sealdb::{Database, Value};
use plat::failpoint::{self, FaultSpec};
use plat::tmp::TempPath;

const SEAL_KEY: [u8; 32] = [7u8; 32];

fn open_log(backing: LogBacking, guard: Box<dyn RollbackGuard>) -> libseal::Result<AuditLog> {
    let ssm = GitModule;
    AuditLog::open(
        backing,
        SEAL_KEY,
        SigningKey::from_seed(&[1u8; 32]),
        guard,
        ssm.schema_sql(),
        ssm.tables(),
    )
}

fn append_one(log: &mut AuditLog, i: u64, commit: &str) {
    try_append(log, i, commit).unwrap();
}

/// Stages one update and seals it: one counter step per entry, as a log
/// sealed per request binds them.
fn try_append(log: &mut AuditLog, i: u64, commit: &str) -> libseal::Result<()> {
    stage(log, i, commit)?;
    log.seal()
}

/// Stages one update, for a commit to seal with the rest of its batch.
fn stage(log: &mut AuditLog, i: u64, commit: &str) -> libseal::Result<()> {
    let t = log.next_time() as i64;
    log.append(
        "updates",
        &[
            Value::Integer(t),
            Value::Text("r".into()),
            Value::Text("main".into()),
            Value::Text(format!("{commit}{i:036x}")),
            Value::Text("update".into()),
        ],
    )
}

/// External persistent counter (the §5.1 rollback-protection service)
/// whose attested value the tests can set directly.
struct ExternalCounter(std::sync::atomic::AtomicU64);

impl ExternalCounter {
    fn boxed(v: u64) -> Box<ExternalCounter> {
        Box::new(ExternalCounter(std::sync::atomic::AtomicU64::new(v)))
    }
}

impl RollbackGuard for ExternalCounter {
    fn increment(&self) -> libseal::Result<u64> {
        Ok(self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1)
    }
    fn attested(&self) -> libseal::Result<u64> {
        Ok(self.0.load(std::sync::atomic::Ordering::SeqCst))
    }
}

/// The same service behind an `Arc`, so the test keeps a handle on it:
/// the counter outlives the log (as ROTE outlives the enclave), and its
/// quorum can be lost and restored.
struct Quorum {
    counter: ExternalCounter,
    lost: AtomicBool,
}

impl Quorum {
    fn new() -> Arc<Quorum> {
        Arc::new(Quorum {
            counter: ExternalCounter(0.into()),
            lost: AtomicBool::new(false),
        })
    }
}

struct QuorumGuard(Arc<Quorum>);

impl RollbackGuard for QuorumGuard {
    fn increment(&self) -> libseal::Result<u64> {
        if self.0.lost.load(SeqCst) {
            return Err(LibSealError::Log("rote: quorum lost".into()));
        }
        self.0.counter.increment()
    }
    fn attested(&self) -> libseal::Result<u64> {
        self.0.counter.attested()
    }
}

plat::prop! {
    #![cases(2)]
    /// The synced-prefix guarantee: truncate the journal at EVERY byte
    /// offset and reopen. Recovery must (a) never drop an entry whose
    /// flush completed before the cut, (b) never surface more than the
    /// one entry that was mid-append at the cut, (c) leave a log whose
    /// chain and signed head verify, and (d) keep invariant queries
    /// runnable. Pure truncation is always a torn tail, never a fatal
    /// MAC failure, so every reopen must succeed.
    fn truncation_at_every_offset_recovers_a_synced_prefix(g) {
        let _s = failpoint::scenario(); // serialize with fault-injected tests
        let path = TempPath::new("libseal-prefix", "log");
        let appends = g.usize_in(2..5);
        let commit = g.lowercase(4..8);
        // boundaries[i] = journal size with exactly i entries durable.
        let mut boundaries = Vec::new();
        {
            let mut log =
                open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
            boundaries.push((log.journal_size_bytes(), 0u64));
            for i in 0..appends {
                append_one(&mut log, i as u64, &commit);
                log.flush().unwrap();
                boundaries.push((log.journal_size_bytes(), (i + 1) as u64));
            }
        }
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, boundaries.last().unwrap().0);

        let cut_path = TempPath::new("libseal-prefix-cut", "log");
        for cut in 0..=full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            let expected = boundaries
                .iter()
                .rev()
                .find(|(size, _)| *size <= cut as u64)
                .map_or(0, |(_, entries)| *entries);
            let log = open_log(
                LogBacking::Disk(cut_path.to_path_buf()),
                Box::new(NoGuard),
            )
            .unwrap_or_else(|e| panic!("reopen failed at cut {cut}: {e}"));
            let got = log.entries();
            assert!(
                got >= expected,
                "cut {cut}: flushed entry lost ({got} < {expected})"
            );
            assert!(
                got <= expected + 1,
                "cut {cut}: recovered more than the in-flight append \
                 ({got} > {} )",
                expected + 1
            );
            log.verify()
                .unwrap_or_else(|e| panic!("verify failed at cut {cut}: {e}"));
            assert!(
                log.query(GIT_SOUNDNESS, &[]).is_ok(),
                "invariant query failed at cut {cut}"
            );
        }
    }
}

/// Truncation is salvage; *mutation* is tampering. A byte flipped
/// inside an early record (here: its nonce) must fail authentication
/// and abort the open, not be silently skipped.
#[test]
fn flipped_byte_mid_file_is_fatal() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-flip", "log");
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        append_one(&mut log, 0, "aa");
        log.flush().unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[10] ^= 0x40; // inside the first frame's nonce
    std::fs::write(&path, &bytes).unwrap();
    assert!(
        open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).is_err(),
        "corrupted mid-file record must not replay"
    );
}

/// A counter one ahead of the durable log is the legal crash window
/// (§5.1: the increment lands before the signed head is durable); the
/// open succeeds, reports the window, and absorbs the wasted
/// increment so later recoveries see a consistent pair.
#[test]
fn counter_ahead_by_one_is_the_legal_crash_window() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-window", "log");
    {
        let mut log = open_log(
            LogBacking::Disk(path.to_path_buf()),
            ExternalCounter::boxed(0),
        )
        .unwrap();
        for i in 0..3 {
            append_one(&mut log, i, "bb");
        }
        log.flush().unwrap();
        assert_eq!(log.counter(), 3);
    }
    // "Crashed" after the increment to 4 but before entry 4 was
    // signed: the external service attests 4, the log accounts for 3.
    let log = open_log(
        LogBacking::Disk(path.to_path_buf()),
        ExternalCounter::boxed(4),
    )
    .unwrap();
    let r = log.recovery_report();
    assert!(r.crash_window, "one-ahead counter is a legal crash state");
    assert_eq!(r.durable_counter, 3);
    assert_eq!(r.attested_counter, 4);
    assert_eq!(log.counter(), 4, "wasted increment absorbed into the head");
    log.verify().unwrap();
}

#[test]
fn counter_ahead_by_two_is_a_rollback_alarm() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-rollback2", "log");
    {
        let mut log = open_log(
            LogBacking::Disk(path.to_path_buf()),
            ExternalCounter::boxed(0),
        )
        .unwrap();
        for i in 0..3 {
            append_one(&mut log, i, "cc");
        }
        log.flush().unwrap();
    }
    match open_log(
        LogBacking::Disk(path.to_path_buf()),
        ExternalCounter::boxed(5),
    ) {
        Err(LibSealError::Tampered(m)) => assert!(m.contains("rollback"), "{m}"),
        other => panic!("rollback not detected: {:?}", other.map(|_| ())),
    }
}

/// A signed head covering more entries than the chain holds means
/// chain rows were removed after signing — rollback by deletion, even
/// when the external counter agrees with the (tampered) head.
#[test]
fn log_behind_signed_head_is_a_rollback_alarm() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-behind", "log");
    {
        let mut log = open_log(
            LogBacking::Disk(path.to_path_buf()),
            ExternalCounter::boxed(0),
        )
        .unwrap();
        for i in 0..3 {
            append_one(&mut log, i, "dd");
        }
        log.flush().unwrap();
    }
    // The provider edits the sealed journal offline: appends a DELETE
    // of the newest chain row (it cannot re-sign the head).
    {
        let mut db = Database::open(&path, Box::new(SealingCodec::new(SEAL_KEY))).unwrap();
        db.execute("DELETE FROM _libseal_chain WHERE seq = 3")
            .unwrap();
        db.sync_journal().unwrap();
    }
    match open_log(
        LogBacking::Disk(path.to_path_buf()),
        ExternalCounter::boxed(3),
    ) {
        Err(LibSealError::Tampered(m)) => assert!(m.contains("rollback"), "{m}"),
        other => panic!("rollback not detected: {:?}", other.map(|_| ())),
    }
}

/// A crash after the chain row is written but before the head is
/// signed leaves an authenticated-but-unsigned tail: a flush writes a
/// staged append's frames before any seal covers them. Recovery rolls
/// it forward (re-signs) instead of discarding it.
#[test]
fn crash_before_sign_rolls_the_tail_forward() {
    let s = failpoint::scenario();
    let path = TempPath::new("libseal-rollfwd", "log");
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        append_one(&mut log, 0, "ee");
        append_one(&mut log, 1, "ee");
        log.flush().unwrap();
        stage(&mut log, 2, "ee").unwrap();
        log.flush().unwrap();
        s.set("core::log::append::sign", FaultSpec::crash());
        assert!(log.seal().is_err());
    }
    s.reset(); // restart
    let log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
    assert_eq!(log.entries(), 3, "unsigned tail must be rolled forward");
    assert_eq!(log.recovery_report().rolled_forward, 1);
    log.verify().unwrap();
}

/// A crash after the service row is written but before the chain row
/// loses only the in-flight entry; the synced prefix and its head
/// survive, and invariant queries still run over the recovered state.
#[test]
fn crash_before_chain_insert_loses_only_the_inflight_entry() {
    let s = failpoint::scenario();
    let path = TempPath::new("libseal-nochain", "log");
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        append_one(&mut log, 0, "ff");
        append_one(&mut log, 1, "ff");
        log.flush().unwrap();
        s.set("core::log::append::chain", FaultSpec::crash());
        let t = log.next_time() as i64;
        assert!(log
            .append(
                "updates",
                &[
                    Value::Integer(t),
                    Value::Text("r".into()),
                    Value::Text("main".into()),
                    Value::Text(format!("{:040x}", 99)),
                    Value::Text("update".into()),
                ],
            )
            .is_err());
    }
    s.reset();
    let log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
    assert_eq!(log.entries(), 2);
    log.verify().unwrap();
    assert!(log.query(GIT_SOUNDNESS, &[]).is_ok());
}

/// End-to-end fail-stop: with the ROTE quorum unreachable every append
/// is refused — it stays staged, unsigned and unacknowledged, and takes
/// no counter value; when the network heals, the next append's bind
/// seals it together with the ones refused before it.
#[test]
fn quorum_loss_stops_the_log_until_quorum_returns() {
    let s = failpoint::scenario();
    let mut cfg = ClusterConfig::new(1);
    cfg.deadline = std::time::Duration::from_millis(200);
    cfg.retries = 0;
    cfg.backoff = std::time::Duration::from_millis(1);
    let cluster = std::sync::Arc::new(Cluster::with_config(cfg, b"crash-recovery").unwrap());
    let mut log = open_log(
        LogBacking::Memory,
        Box::new(RoteGuard(std::sync::Arc::clone(&cluster))),
    )
    .unwrap();

    append_one(&mut log, 0, "gg");
    let (entries, bound) = (log.entries(), cluster.current());

    // Partition: every node delivery is dropped.
    s.set("rote::node::deliver", FaultSpec::error());
    assert!(try_append(&mut log, 1, "gg").is_err());
    assert!(try_append(&mut log, 2, "gg").is_err());
    assert_eq!(cluster.current(), bound, "a refused append took a value");

    // The partition heals; one bind covers all three.
    s.unset("rote::node::deliver");
    append_one(&mut log, 3, "gg");
    assert_eq!(log.entries(), entries + 3);
    assert_eq!(cluster.current(), bound + 1);
    log.verify().unwrap();
}

/// Every reopen advances the sealed nonce epoch, so records written
/// after a crash can never reuse a (epoch, counter) nonce prefix from
/// before it.
#[test]
fn restart_advances_the_sealed_epoch() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-epoch", "log");
    let epoch_of = |log: &AuditLog| -> String {
        match log
            .query("SELECT v FROM _libseal_meta WHERE k = 'epoch'", &[])
            .unwrap()
            .scalar()
        {
            Some(Value::Text(t)) => t.clone(),
            other => panic!("missing epoch row: {other:?}"),
        }
    };
    {
        let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
        append_one(&mut log, 0, "hh");
        assert_eq!(epoch_of(&log), "1");
        log.flush().unwrap();
    }
    let log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
    assert_eq!(epoch_of(&log), "2");
}

/// An open of a clean, signed log reports a quiet recovery: nothing
/// salvaged, nothing rolled forward, no crash window.
#[test]
fn clean_reopen_reports_quiet_recovery() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-quiet", "log");
    {
        let mut log = open_log(
            LogBacking::Disk(path.to_path_buf()),
            ExternalCounter::boxed(0),
        )
        .unwrap();
        for i in 0..2 {
            append_one(&mut log, i, "ii");
        }
        log.flush().unwrap();
    }
    let log = open_log(
        LogBacking::Disk(path.to_path_buf()),
        ExternalCounter::boxed(2),
    )
    .unwrap();
    assert_eq!(
        log.recovery_report(),
        RecoveryReport {
            salvaged_bytes: 0,
            rolled_forward: 0,
            durable_counter: 2,
            attested_counter: 2,
            crash_window: false,
        }
    );
}

/// A trim and the commit that makes it durable, as `trim_now` runs
/// them.
fn trim_now(log: &mut AuditLog) -> libseal::Result<u64> {
    let kept = log.trim(GitModule.trim_queries())?;
    log.commit()?;
    Ok(kept)
}

/// A trim compacts the journal, and the snapshot carries the schema as
/// the statements the SSM supplied — the paper's `branchcnt` view among
/// them, which every trim used to re-render from its AST. After a trim
/// and a restart the view and both Git invariants must answer, for the
/// same advertisements, what they answered before the trim.
#[test]
fn trimmed_log_reopens_with_view_and_invariants_answering_as_before() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-trim-view", "log");
    let ssm = GitModule;
    let text = |s: &str| Value::Text(s.into());
    let answers = |log: &AuditLog| {
        let queries = ssm.invariants().iter().map(|i| i.sql);
        let queries = std::iter::once("SELECT * FROM branchcnt").chain(queries);
        let rows = queries.map(|q| log.query(q, &[]).unwrap().rows);
        rows.collect::<Vec<_>>()
    };

    let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
    // Pushes: main moves twice, dev once, old is created and deleted.
    let pushes = [
        ("main", "c1", "update"),
        ("dev", "c2", "update"),
        ("old", "c3", "update"),
        ("main", "c4", "update"),
        ("old", "0", "delete"),
    ];
    for (branch, cid, kind) in pushes {
        let t = Value::Integer(log.next_time() as i64);
        let row = [t, text("r"), text(branch), text(cid), text(kind)];
        log.append("updates", &row).unwrap();
    }
    // Fetches, all later than every push: one sound and complete, one
    // advertising a stale main, one hiding dev.
    let fetches: [&[(&str, &str)]; 3] = [
        &[("main", "c4"), ("dev", "c2")],
        &[("main", "c1"), ("dev", "c2")],
        &[("main", "c4")],
    ];
    let mut advertisements = Vec::new();
    for refs in fetches {
        let t = Value::Integer(log.next_time() as i64);
        for (branch, cid) in refs {
            advertisements.push([t.clone(), text("r"), text(branch), text(cid)]);
        }
    }
    for row in &advertisements {
        log.append("advertisements", row).unwrap();
    }
    let before = answers(&log);
    assert!(before.iter().all(|rows| !rows.is_empty()), "{before:?}");

    trim_now(&mut log).unwrap();
    drop(log);
    let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(NoGuard)).unwrap();
    log.verify().unwrap();
    assert!(
        answers(&log).iter().all(Vec::is_empty),
        "trim drops fetches"
    );
    for row in &advertisements {
        log.append("advertisements", row).unwrap();
    }
    log.commit().unwrap();
    assert_eq!(answers(&log), before);
    log.verify().unwrap();
}

/// Pushes per log in the trim tests below: all to one branch, so the
/// Git trim queries keep the newest and delete the rest.
const PUSHES: u64 = 6;

fn open_under(path: &TempPath, q: &Arc<Quorum>) -> libseal::Result<AuditLog> {
    let guard = Box::new(QuorumGuard(Arc::clone(q)));
    open_log(LogBacking::Disk(path.to_path_buf()), guard)
}

/// A disk log under `q` holding [`PUSHES`] flushed updates.
fn pushed_log(path: &TempPath, q: &Arc<Quorum>) -> AuditLog {
    let mut log = open_under(path, q).unwrap();
    for i in 0..PUSHES {
        append_one(&mut log, i, "tt");
        log.flush().unwrap();
    }
    log
}

/// The commit ids the log holds, oldest first.
fn cids(log: &AuditLog) -> Vec<Value> {
    let rows = log.query("SELECT cid FROM updates ORDER BY time", &[]);
    rows.unwrap().rows.into_iter().flatten().collect()
}

/// A trim that cannot bind the counter (a ROTE `FailStop` quorum loss)
/// stays staged: the journal on disk is byte for byte the pre-trim log,
/// and the next seal, from anywhere, finishes the trim.
#[test]
fn a_trim_during_quorum_loss_is_finished_by_the_next_seal() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-trim-quorum", "log");
    let q = Quorum::new();
    let mut log = pushed_log(&path, &q);
    let (all, journal) = (cids(&log), std::fs::read(&path).unwrap());

    q.lost.store(true, SeqCst);
    assert!(trim_now(&mut log).is_err());
    q.lost.store(false, SeqCst);
    let staged = std::fs::read(&path).unwrap();
    log.seal().unwrap();
    log.verify().unwrap();
    assert_eq!(
        cids(&log),
        all[all.len() - 1..],
        "the trim keeps the newest push"
    );
    assert_eq!(log.entries(), 1);

    // What a kill before that seal would have left behind.
    assert!(staged == journal, "a staged trim wrote to the live journal");
    let copy = TempPath::new("libseal-trim-quorum-copy", "log");
    std::fs::write(&copy, &staged).unwrap();
    let old = open_under(&copy, &q).unwrap();
    old.verify().unwrap();
    assert_eq!(cids(&old), all);
    drop(log);
    let log = open_under(&path, &q).unwrap();
    log.verify().unwrap();
    assert_eq!(log.entries(), 1);
}

/// An append behind a staged trim is journaled as usual — only the
/// trim's own deletions wait for its snapshot frame — so a kill before
/// that frame leaves the pre-trim log with the append behind it, and
/// the seal that lands the trim keeps the append.
#[test]
fn an_append_behind_a_staged_trim_is_journaled_and_lands_with_it() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-trim-append", "log");
    let q = Quorum::new();
    let mut log = pushed_log(&path, &q);
    let all = cids(&log);

    q.lost.store(true, SeqCst);
    assert!(trim_now(&mut log).is_err());
    assert!(
        try_append(&mut log, PUSHES, "tt").is_err(),
        "no value to bind"
    );
    let appended = cids(&log).pop().unwrap();
    assert_eq!(cids(&log), [all[all.len() - 1].clone(), appended.clone()]);
    log.flush().unwrap();

    // What a kill before the trim's seal would have left behind.
    let copy = TempPath::new("libseal-trim-append-copy", "log");
    std::fs::write(&copy, std::fs::read(&path).unwrap()).unwrap();
    let old = open_under(&copy, &q).unwrap();
    old.verify().unwrap();
    assert_eq!(
        cids(&old),
        [&all[..], std::slice::from_ref(&appended)].concat()
    );
    assert_eq!(old.recovery_report().rolled_forward, 1);
    drop(old);

    q.lost.store(false, SeqCst);
    append_one(&mut log, PUSHES + 1, "tt");
    log.flush().unwrap();
    log.verify().unwrap();
    assert_eq!(log.entries(), 3);
    assert_eq!(cids(&log)[..2], [all[all.len() - 1].clone(), appended]);
    let kept = cids(&log);
    drop(log);
    // The appends are in the journal, before and behind the frame.
    let log = open_under(&path, &q).unwrap();
    log.verify().unwrap();
    assert_eq!(cids(&log), kept);
}

/// The two commits that make a log durable: the sealer's `seal_staged`,
/// and `AuditLog::commit` under the audit lock.
type Commit = fn(&plat::sync::Mutex<AuditLog>) -> libseal::Result<()>;

fn commits() -> [(&'static str, Commit); 2] {
    [
        ("seal_staged", |log| {
            libseal::log::seal_staged(log, |l| l).map(drop)
        }),
        ("commit", |log| log.lock().commit()),
    ]
}

/// What a kill leaves of the log at `path` now — the journal file,
/// without the frames a clean drop would still write — reopened under
/// `q` from a copy.
fn killed(path: &TempPath, q: &Arc<Quorum>) -> (TempPath, libseal::Result<AuditLog>) {
    let copy = TempPath::new("libseal-killed", "log");
    std::fs::write(&copy, std::fs::read(path).unwrap()).unwrap();
    let log = open_under(&copy, q);
    (copy, log)
}

/// A snapshot frame that cannot be staged (its sealing fails) costs the
/// trims, not the log. Each failed trim is given up — memory goes back
/// to what the journal holds — and the counter step its commit bound
/// signs the log as it was. Both commits write that head before they
/// return, so the durable head keeps up with the counter and appends
/// keep landing in the journal: however many trims fail in a row, a
/// kill after any commit finds a log that opens.
#[test]
fn a_trim_whose_snapshot_cannot_be_written_is_given_up_at_one_counter_step() {
    let s = failpoint::scenario();
    for (via, commit) in commits() {
        s.reset();
        let path = TempPath::new("libseal-trim-nospace", "log");
        let q = Quorum::new();
        let mut log = pushed_log(&path, &q);
        // A fetch that was served a stale head: a row the trim drops,
        // and a violation the delta-maintained view must still show
        // afterwards.
        libseal::Checker::install(&GitModule, &mut log).unwrap();
        let t = Value::Integer(log.next_time() as i64);
        let stale = ["r", "main", "stale"].map(|x| Value::Text(x.into()));
        log.append("advertisements", &[&[t][..], &stale[..]].concat())
            .unwrap();
        let log = plat::sync::Mutex::new(log);
        commit(&log).unwrap();
        let rows = |log: &AuditLog, sql| log.query(sql, &[]).unwrap().rows;
        s.set("sealdb::journal::snapshot", FaultSpec::error());
        for round in 0..3 {
            let all = cids(&log.lock());
            log.lock().trim(GitModule.trim_queries()).unwrap();
            assert!(commit(&log).is_err(), "{via} {round}");
            let mut held = log.lock();
            assert!(!held.is_dirty(), "{via} {round}: sealed as it was");
            held.verify().unwrap();
            assert_eq!(cids(&held), all, "{via} {round}");
            assert_eq!(held.entries(), PUSHES + 1 + round / 2);
            held.db_mut().refresh_matviews().unwrap();
            let view = rows(&held, "SELECT * FROM mv_git_soundness");
            assert_eq!(view, rows(&held, GIT_SOUNDNESS), "{via} {round}");
            assert_eq!(view.len(), 1, "{via} {round}: the stale fetch is back");
            drop(held);
            let (_copy, old) = killed(&path, &q);
            let old = old.unwrap_or_else(|e| panic!("{via} {round}: reopen failed: {e}"));
            old.verify().unwrap();
            assert_eq!(cids(&old), all, "{via} {round}");
            if round == 1 {
                // Two in a row, then the log keeps serving.
                stage(&mut log.lock(), PUSHES, "tt").unwrap();
                commit(&log).unwrap();
            }
        }
        let all = cids(&log.lock());
        s.reset(); // a kill, and a restart on a disk that works again
        let (_copy, old) = killed(&path, &q);
        let mut old = old.unwrap_or_else(|e| panic!("{via}: reopen failed: {e}"));
        old.verify().unwrap();
        assert_eq!(cids(&old), all, "{via}");
        let r = old.recovery_report();
        assert_eq!(r.attested_counter, r.durable_counter, "{via}: {r:?}");
        old.trim(GitModule.trim_queries()).unwrap();
        let old = plat::sync::Mutex::new(old);
        commit(&old).unwrap();
        assert_eq!(old.lock().entries(), 1, "{via}");
    }
}

/// A guard whose counter round takes `delay` once `slow` is set: the
/// value is attested at once, the answer comes back `delay` later (a
/// quorum that stored the step but whose acknowledgements are slow).
struct SlowGuard {
    q: Arc<Quorum>,
    slow: Arc<AtomicBool>,
    delay: std::time::Duration,
}

impl RollbackGuard for SlowGuard {
    fn increment(&self) -> libseal::Result<u64> {
        let v = QuorumGuard(Arc::clone(&self.q)).increment()?;
        if self.slow.load(SeqCst) {
            std::thread::sleep(self.delay);
        }
        Ok(v)
    }
    fn attested(&self) -> libseal::Result<u64> {
        self.q.counter.attested()
    }
}

/// The sealer binds its counter value outside the audit lock; a trim run
/// under the lock meanwhile must not bind a second one. If it did, a
/// crash before either head is durable would leave the counter two
/// steps ahead of the journal, and the honest restart would read as a
/// rollback. The trim only stages, and the in-flight seal covers it, so
/// a crash anywhere leaves at most one value unaccounted for: here the
/// seal dies rebuilding the chain, before its batch was written, and
/// the restart reads the log as it was with the crash window open.
#[test]
fn a_trim_during_the_sealers_counter_round_binds_no_second_value() {
    let s = failpoint::scenario();
    let path = TempPath::new("libseal-trim-sealer", "log");
    let q = Quorum::new();
    let delay = std::time::Duration::from_millis(300);
    let slow = Arc::new(AtomicBool::new(false));
    let guard = SlowGuard {
        q: Arc::clone(&q),
        slow: Arc::clone(&slow),
        delay,
    };
    let mut log = open_log(LogBacking::Disk(path.to_path_buf()), Box::new(guard)).unwrap();
    for i in 0..PUSHES {
        append_one(&mut log, i, "tt");
        log.flush().unwrap();
    }
    stage(&mut log, PUSHES, "tt").unwrap();
    slow.store(true, SeqCst);
    let log = Arc::new(plat::sync::Mutex::new(log));
    let sealer = {
        let log = Arc::clone(&log);
        std::thread::spawn(move || libseal::log::seal_staged(&log, |l| l))
    };
    // The sealer's value is attested; its answer is still on the way.
    let started = std::time::Instant::now();
    while q.counter.attested().unwrap() == PUSHES {
        assert!(started.elapsed() < delay, "the sealer never bound");
        std::thread::yield_now();
    }
    {
        let mut held = log.lock();
        s.set("core::log::trim::rebuild", FaultSpec::crash());
        let _ = held.trim(GitModule.trim_queries());
    }
    let _ = sealer.join().unwrap();
    assert!(s.crashed().is_some(), "the trim never reached its rebuild");
    drop(log);
    s.reset(); // restart
    let log = open_under(&path, &q).unwrap_or_else(|e| panic!("reopen failed: {e}"));
    log.verify().unwrap();
    let r = log.recovery_report();
    assert_eq!(r.attested_counter, PUSHES + 1, "{r:?}");
    assert!(r.crash_window, "{r:?}");
    assert_eq!(log.entries(), PUSHES, "the staged append was never written");
}

/// Kill the process at every failpoint hit a trim crosses, restart, and
/// the log opens, verifies, and is the pre-trim or the post-trim log —
/// nothing in between — with the counter inside the legal window.
#[test]
fn a_kill_anywhere_inside_a_trim_reopens_as_the_log_before_or_after_it() {
    let s = failpoint::scenario();
    // Dry run: which sites a trim hits, and how often.
    let hits = || -> BTreeMap<String, u64> {
        let sites = s.registered().into_iter();
        sites.map(|x| (x.clone(), s.hits(&x))).collect()
    };
    let crossings: Vec<(String, u64)> = {
        let path = TempPath::new("libseal-trim-kill-dry", "log");
        let mut log = pushed_log(&path, &Quorum::new());
        let before = hits();
        trim_now(&mut log).unwrap();
        let during = hits().into_iter().map(|(site, h)| {
            let first = before.get(&site).copied().unwrap_or(0);
            (0..h - first).map(move |k| (site.clone(), k))
        });
        during.flatten().collect()
    };
    for site in [
        "core::log::append::sign",
        "sealdb::journal::snapshot",
        "sealdb::journal::write",
    ] {
        assert!(
            crossings.iter().any(|(x, _)| x == site),
            "a trim no longer crosses {site}"
        );
    }
    let mut outcomes = [0, 0];
    for (site, k) in &crossings {
        s.reset();
        let path = TempPath::new("libseal-trim-kill", "log");
        let q = Quorum::new();
        let mut log = pushed_log(&path, &q);
        let all = cids(&log);
        s.set(site, FaultSpec::crash().after(s.hits(site) + k));
        assert!(trim_now(&mut log).is_err(), "{site}#{k}");
        drop(log);
        s.reset(); // restart
        let log =
            open_under(&path, &q).unwrap_or_else(|e| panic!("{site}#{k}: reopen failed: {e}"));
        log.verify()
            .unwrap_or_else(|e| panic!("{site}#{k}: verify failed: {e}"));
        let got = cids(&log);
        assert_eq!(log.entries() as usize, got.len(), "{site}#{k}");
        let trimmed = got == all[all.len() - 1..];
        assert!(trimmed || got == all, "{site}#{k}: neither log: {got:?}");
        outcomes[usize::from(trimmed)] += 1;
        let r = log.recovery_report();
        assert!(
            r.attested_counter <= r.durable_counter + 1,
            "{site}#{k}: {r:?}"
        );
        assert_eq!(log.counter(), r.attested_counter, "{site}#{k}: {r:?}");
    }
    assert!(
        outcomes[0] > 0 && outcomes[1] > 0,
        "both sides of the frame's write: {outcomes:?}"
    );
}

/// A trim query that fails half-way (the SSM's second `DELETE` names a
/// table that is not there) has deleted rows the chain still names; the
/// next seal rebuilds the chain over what survived.
#[test]
fn a_trim_query_failing_half_way_leaves_a_log_that_seals_and_verifies() {
    let _s = failpoint::scenario(); // serialize with fault-injected tests
    let path = TempPath::new("libseal-trim-query", "log");
    let q = Quorum::new();
    let mut log = pushed_log(&path, &q);
    let all = cids(&log);
    let queries = [
        "DELETE FROM updates WHERE time < 3",
        "DELETE FROM no_such_table",
    ];
    assert!(log.trim(&queries).is_err());
    log.seal().unwrap();
    log.verify().unwrap();
    assert_eq!(cids(&log), all[2..]);
    drop(log);
    let log = open_under(&path, &q).unwrap();
    log.verify().unwrap();
    assert_eq!(cids(&log), all[2..]);
}

/// One commit step: a trim's commit binds the counter once, signs once,
/// stages one snapshot frame, and writes it in one `write(2)` and
/// fsyncs once.
#[test]
fn a_trim_appends_one_frame_and_fsyncs_once() {
    let s = failpoint::scenario();
    let path = TempPath::new("libseal-trim-cost", "log");
    let mut log = pushed_log(&path, &Quorum::new());
    let telemetry = libseal_telemetry::global();
    let names = [
        "core_counter_binds_total",
        "core_head_signs_total",
        "sealdb_journal_fsyncs_total",
    ];
    let read = || names.map(|n| telemetry.counter(n).get());
    let sites = ["sealdb::journal::snapshot", "sealdb::journal::write"];
    let hits = || sites.map(|site| s.hits(site));
    let (before, written) = (read(), hits());
    trim_now(&mut log).unwrap();
    assert_eq!(hits(), written.map(|h| h + 1));
    assert_eq!(read(), [before[0] + 1, before[1] + 1, before[2] + 1]);
    assert!(!log.is_dirty());
}

/// Driven like the serving path — staged appends, one `seal_staged`
/// commit per pair, a due check every third pair through
/// `Checker::run_due` as the verifier runs it — a log binds the counter
/// and signs its head only in its commits: the due checks and their
/// trims bind and sign nothing, and each trim lands with the next
/// commit.
#[test]
fn a_staged_log_binds_and_signs_only_in_its_commits() {
    let _s = failpoint::scenario(); // serialize: reads global counters
    let path = TempPath::new("libseal-staged-commits", "log");
    let mut log = pushed_log(&path, &Quorum::new());
    libseal::Checker::install(&GitModule, &mut log).unwrap();
    let log = plat::sync::Mutex::new(log);
    let commit = || assert!(libseal::log::seal_staged(&log, |l| l).unwrap());
    let telemetry = libseal_telemetry::global();
    let names = ["core_counter_binds_total", "core_head_signs_total"];
    let read = || names.map(|n| telemetry.counter(n).get());
    let mut checker = libseal::Checker::new(3);
    let (before, mut commits, mut trims) = (read(), 0, 0);
    for i in 0..12 {
        stage(&mut log.lock(), PUSHES + i, "tt").unwrap();
        commit();
        commits += 1;
        if checker.note_pair() {
            let (at, mut held) = (read(), log.lock());
            let outcome = checker.run_due(&GitModule, &mut held).unwrap();
            assert_eq!(outcome.total_violations(), 0);
            trims += u64::from(held.is_dirty());
            drop(held);
            assert_eq!(read(), at, "a due check bound or signed");
        }
    }
    assert_eq!(trims, 4, "every due check found the log grown");
    commit();
    commits += 1;
    assert_eq!(read(), before.map(|n| n + commits));
    let log = log.into_inner();
    log.verify().unwrap();
    assert_eq!(log.entries(), 1, "the last trim kept the newest push");
}
