//! Randomized cross-check: the delta-maintained incremental checker
//! must agree with the full-scan reference on every invariant, for
//! arbitrary service histories.
//!
//! The full-scan path re-evaluates each invariant over the whole log
//! and is the semantic ground truth; the incremental path refreshes
//! only the partitions dirtied since the last check. These properties
//! drive random event sequences through both and assert the verdicts
//! are identical after every batch — including the hard case where a
//! late `recv_update` *clears* an earlier ownCloud `sent_update`
//! violation via the rescan rule (the one place a new row shrinks the
//! violation set of an old partition).

use libseal::log::{AuditLog, LogBacking, NoGuard, TableSpec};
use libseal::{Checker, DropboxModule, GitModule, Invariant, OwnCloudModule, ServiceModule};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::Value;
use plat::check::Gen;

fn text(s: impl Into<String>) -> Value {
    Value::Text(s.into())
}

fn open(m: &dyn ServiceModule) -> AuditLog {
    AuditLog::open(
        LogBacking::Memory,
        [0u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        Box::new(NoGuard),
        m.schema_sql(),
        m.tables(),
    )
    .expect("open audit log")
}

/// Asserts the incremental verdicts equal the full-scan reference,
/// invariant by invariant (counts and the violating rows themselves).
fn assert_agree(m: &dyn ServiceModule, log: &mut AuditLog, ctx: &str) {
    let inc = Checker::run_checks_incremental(m, log).expect("incremental check");
    let full = Checker::run_checks(m, log).expect("full-scan check");
    assert_eq!(
        inc.reports.len(),
        full.reports.len(),
        "{ctx}: report count diverged"
    );
    for (a, b) in inc.reports.iter().zip(full.reports.iter()) {
        assert_eq!(a.invariant, b.invariant, "{ctx}: invariant order diverged");
        assert_eq!(
            a.violations, b.violations,
            "{ctx}: incremental and full-scan disagree on {}",
            a.invariant
        );
    }
}

/// One random ownCloud document event. Pools are kept tiny so
/// collisions (matching doc/seq/content triples, stale snapshots) are
/// common: most of the invariant logic only fires on collisions.
fn owncloud_event(g: &mut Gen, log: &mut AuditLog) {
    let doc = format!("d{}", g.usize_in(0..2));
    let client = format!("c{}", g.usize_in(0..2));
    let seq = g.i64_in(1..4);
    let content = format!("v{}", g.usize_in(0..3));
    let t = log.next_time() as i64;
    let kind = *g.pick(&[
        "snapshot_save",
        "snapshot_sent",
        "sent_update",
        "recv_update",
        "join",
    ]);
    log.append(
        "docupdates",
        &[
            Value::Integer(t),
            text(doc),
            text(client),
            text(kind),
            Value::Integer(seq),
            text(content),
        ],
    )
    .expect("append docupdates");
}

/// One random Dropbox event: either a commit (occasionally a
/// deletion, size -1) or a list response carrying a random subset of
/// files with blocklists that may or may not match the latest commit.
fn dropbox_event(g: &mut Gen, log: &mut AuditLog) {
    let account = format!("a{}", g.usize_in(0..2));
    if g.bool() {
        let t = log.next_time() as i64;
        let deleted = g.usize_in(0..4) == 0;
        log.append(
            "commit_batch",
            &[
                Value::Integer(t),
                text(format!("f{}", g.usize_in(0..3))),
                text(format!("b{}", g.usize_in(0..3))),
                text(account),
                text("h0"),
                Value::Integer(if deleted { -1 } else { 1 }),
            ],
        )
        .expect("append commit");
    } else {
        // One list response: several rows sharing a single time.
        let t = log.next_time() as i64;
        for _ in 0..g.usize_in(0..3) {
            log.append(
                "list",
                &[
                    Value::Integer(t),
                    text(format!("f{}", g.usize_in(0..3))),
                    text(format!("b{}", g.usize_in(0..3))),
                    text(account.clone()),
                    text("h0"),
                    Value::Integer(1),
                ],
            )
            .expect("append list");
        }
    }
}

/// The Git module with its completeness invariant re-declared without
/// delta metadata, so one check mixes a delta-maintained view with a
/// full scan — the branch of `run_checks_incremental` no shipped
/// module takes (all of theirs declare a delta for every invariant).
struct GitCompletenessByFullScan;

impl ServiceModule for GitCompletenessByFullScan {
    fn name(&self) -> &'static str {
        GitModule.name()
    }
    fn schema_sql(&self) -> &'static str {
        GitModule.schema_sql()
    }
    fn tables(&self) -> Vec<TableSpec> {
        GitModule.tables()
    }
    fn invariants(&self) -> &'static [Invariant] {
        static MIXED: std::sync::OnceLock<Vec<Invariant>> = std::sync::OnceLock::new();
        MIXED.get_or_init(|| {
            let mut invariants = GitModule.invariants().to_vec();
            invariants[1].delta = None;
            invariants
        })
    }
    fn trim_queries(&self) -> &'static [&'static str] {
        GitModule.trim_queries()
    }
    fn log_pair(&self, req: &[u8], rsp: &[u8], log: &mut AuditLog) -> libseal::Result<usize> {
        GitModule.log_pair(req, rsp, log)
    }
}

/// One random Git event: a push (occasionally a branch deletion) or an
/// advertisement listing a random subset of branches with commit ids
/// that may or may not be the latest pushed.
fn git_event(g: &mut Gen, log: &mut AuditLog) {
    let repo = format!("r{}", g.usize_in(0..2));
    let t = log.next_time() as i64;
    if g.bool() {
        let kind = if g.usize_in(0..4) == 0 {
            "delete"
        } else {
            "update"
        };
        log.append(
            "updates",
            &[
                Value::Integer(t),
                text(repo),
                text(format!("b{}", g.usize_in(0..3))),
                text(format!("c{}", g.usize_in(0..3))),
                text(kind),
            ],
        )
        .expect("append update");
    } else {
        // One advertisement: its rows share a single time.
        for branch in 0..3 {
            if g.bool() {
                continue;
            }
            log.append(
                "advertisements",
                &[
                    Value::Integer(t),
                    text(repo.clone()),
                    text(format!("b{branch}")),
                    text(format!("c{}", g.usize_in(0..3))),
                ],
            )
            .expect("append advertisement");
        }
    }
}

plat::prop! {
    #![cases(48)]

    fn mixed_incremental_and_full_scan_invariants_match_the_full_scan_on_random_git_histories(g) {
        let m = GitCompletenessByFullScan;
        assert!(m.invariants()[0].delta.is_some() && m.invariants()[1].delta.is_none());
        let mut log = open(&m);
        Checker::install(&m, &mut log).expect("install views");
        let batches = g.usize_in(3..8);
        for batch in 0..batches {
            for _ in 0..g.usize_in(1..6) {
                git_event(g, &mut log);
            }
            assert_agree(&m, &mut log, &format!("git batch {batch}"));
        }
    }

    fn incremental_matches_full_scan_on_random_owncloud_histories(g) {
        let m = OwnCloudModule;
        let mut log = open(&m);
        Checker::install(&m, &mut log).expect("install views");
        let batches = g.usize_in(3..8);
        for batch in 0..batches {
            for _ in 0..g.usize_in(1..6) {
                owncloud_event(g, &mut log);
            }
            assert_agree(&m, &mut log, &format!("owncloud batch {batch}"));
        }
    }

    fn incremental_matches_full_scan_on_random_dropbox_histories(g) {
        let m = DropboxModule;
        let mut log = open(&m);
        Checker::install(&m, &mut log).expect("install views");
        let batches = g.usize_in(3..8);
        for batch in 0..batches {
            for _ in 0..g.usize_in(1..6) {
                dropbox_event(g, &mut log);
            }
            assert_agree(&m, &mut log, &format!("dropbox batch {batch}"));
        }
    }
}

/// The rescan rule, end to end: a relayed update with no matching
/// received update is a violation; when the matching `recv_update`
/// arrives later, the rescan must re-dirty the old partition so the
/// incremental checker sees the violation *clear* — without it the
/// stale view would keep reporting a violation the full scan no
/// longer finds.
#[test]
fn late_recv_update_clears_an_earlier_violation_incrementally() {
    let m = OwnCloudModule;
    let mut log = open(&m);
    Checker::install(&m, &mut log).expect("install views");

    // A client joins at baseline 0, then gets relayed an update that
    // was (so far) never received from anyone.
    let t = log.next_time() as i64;
    log.append(
        "docupdates",
        &[
            Value::Integer(t),
            text("doc"),
            text("alice"),
            text("join"),
            Value::Integer(0),
            text(""),
        ],
    )
    .unwrap();
    let t = log.next_time() as i64;
    log.append(
        "docupdates",
        &[
            Value::Integer(t),
            text("doc"),
            text("alice"),
            text("sent_update"),
            Value::Integer(1),
            text("hello"),
        ],
    )
    .unwrap();

    let inc = Checker::run_checks_incremental(&m, &mut log).unwrap();
    let sound = inc
        .reports
        .iter()
        .find(|r| r.invariant == "owncloud-update-soundness")
        .expect("update-soundness report");
    assert_eq!(sound.violations, 1, "unmatched sent_update must violate");

    // The matching receive arrives later (out-of-order relay): the
    // violation must clear on the next incremental check.
    let t = log.next_time() as i64;
    log.append(
        "docupdates",
        &[
            Value::Integer(t),
            text("doc"),
            text("bob"),
            text("recv_update"),
            Value::Integer(1),
            text("hello"),
        ],
    )
    .unwrap();

    let inc = Checker::run_checks_incremental(&m, &mut log).unwrap();
    let sound = inc
        .reports
        .iter()
        .find(|r| r.invariant == "owncloud-update-soundness")
        .unwrap();
    assert_eq!(
        sound.violations, 0,
        "late recv_update must clear the violation"
    );
    assert_agree(&m, &mut log, "after clearing recv_update");
}

/// A trim's chain is rebuilt by the next seal, so the length a due
/// check records must be the one the trim leaves, not the one it
/// found: an idle log is then trimmed once, and a grown one again.
#[test]
fn an_idle_log_is_trimmed_once_and_a_grown_one_again() {
    let m = GitModule;
    let mut log = AuditLog::open(
        LogBacking::Memory,
        [0u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        Box::new(NoGuard),
        m.schema_sql(),
        m.tables(),
    )
    .unwrap();
    let push = |log: &mut AuditLog, cid: &str| {
        let t = Value::Integer(log.next_time() as i64);
        let text = |s: &str| Value::Text(s.into());
        let row = [t, text("r"), text("main"), text(cid), text("update")];
        log.append("updates", &row).unwrap();
    };
    push(&mut log, "c1");
    push(&mut log, "c2");
    log.seal().unwrap();
    let mut checker = Checker::new(1);
    checker.run_due(&m, &mut log).unwrap();
    assert!(log.is_dirty(), "the first due check trims");
    log.seal().unwrap();
    assert_eq!(log.entries(), 1);
    checker.run_due(&m, &mut log).unwrap();
    assert!(!log.is_dirty(), "nothing was appended: no second trim");
    push(&mut log, "c3");
    log.seal().unwrap();
    checker.run_due(&m, &mut log).unwrap();
    assert!(log.is_dirty(), "the log grew: trimmed again");
    log.seal().unwrap();
    assert_eq!(log.entries(), 1);
}
