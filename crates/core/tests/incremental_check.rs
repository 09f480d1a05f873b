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

use std::collections::BTreeSet;
use std::path::Path;

use libseal::log::{AuditLog, LogBacking, NoGuard, SealingCodec, TableSpec, JOURNAL_TAG};
use libseal::{Checker, DropboxModule, GitModule, Invariant, OwnCloudModule, ServiceModule};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::journal::Journal;
use libseal_sealdb::Value;
use plat::check::Gen;
use plat::tmp::TempPath;

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

const SEAL_KEY: [u8; 32] = [7u8; 32];

fn open_git_disk(path: &Path) -> AuditLog {
    let m = GitModule;
    let backing = LogBacking::Disk(path.to_path_buf());
    let signer = SigningKey::from_seed(&[1u8; 32]);
    AuditLog::open(
        backing,
        SEAL_KEY,
        signer,
        Box::new(NoGuard),
        m.schema_sql(),
        m.tables(),
    )
    .expect("open disk-backed log")
}

/// A push of `cid` to r/main and a fetch served `advertised` as its
/// head, committed.
fn git_pair(log: &mut AuditLog, cid: &str, advertised: &str) {
    let t = Value::Integer(log.next_time() as i64);
    let row = [t, text("r"), text("main"), text(cid), text("update")];
    log.append("updates", &row).expect("append update");
    let t = Value::Integer(log.next_time() as i64);
    let row = [t, text("r"), text("main"), text(advertised)];
    log.append("advertisements", &row)
        .expect("append advertisement");
    log.commit().expect("commit");
}

/// Clean pairs, with every third fetch served a stale head.
fn git_pairs(log: &mut AuditLog, from: usize, n: usize) {
    for i in from..from + n {
        let cid = format!("{i:040x}");
        git_pair(log, &cid, if i % 3 == 2 { "stale" } else { &cid });
    }
}

/// The statements of every record the journal at `path` replays to,
/// the last snapshot frame's included, read from a copy of the file.
fn journaled(path: &Path) -> Vec<String> {
    let copy = TempPath::new("views-journal-copy", "log");
    std::fs::copy(path, &copy).expect("copy journal");
    let codec = Box::new(SealingCodec::new(SEAL_KEY));
    let mut journal = Journal::open(&copy, codec, JOURNAL_TAG).expect("journal");
    let entries = journal.replay().expect("replay");
    entries.into_iter().map(|e| e.sql).collect()
}

fn tables(log: &mut AuditLog) -> Vec<String> {
    let catalog = log.db_mut().catalog();
    (catalog.tables_sorted().iter())
        .map(|t| t.name.clone())
        .collect()
}

/// Sorted rows, for comparing a view with the full scan's result.
fn sorted(rows: &[Vec<Value>]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// The reopened views equal a full scan, and the incremental check's
/// verdicts and evidence equal the full check's.
fn assert_views_match_full_scan(log: &mut AuditLog, ctx: &str) {
    let m = GitModule;
    let inc = Checker::run_checks_incremental(&m, log).expect("incremental check");
    let full = Checker::run_checks(&m, log).expect("full check");
    for (inv, (a, b)) in m
        .invariants()
        .iter()
        .zip(inc.reports.iter().zip(&full.reports))
    {
        let view = log.matview_rows(inv.name).expect("a registered view");
        let scan = log.query(inv.sql, &[]).expect("full scan").rows;
        assert_eq!(sorted(view), sorted(&scan), "{ctx}: {}", inv.name);
        assert_eq!(a.violations, b.violations, "{ctx}: {}", inv.name);
        assert_eq!(sorted(&a.rows), sorted(&b.rows), "{ctx}: {}", inv.name);
    }
}

/// A view is its rows, not a catalog table: installing the Git views
/// journals nothing, so neither the records of a disk-backed log nor
/// its trim's snapshot frame hold view DDL, and the reopened catalog
/// holds what a log without views holds. The reopened views, seeded
/// again from the recovered base tables, equal a full scan.
#[test]
fn a_view_is_not_a_table() {
    // What a log holds with no views installed.
    let bare = TempPath::new("views-bare", "log");
    let mut log = open_git_disk(&bare);
    git_pairs(&mut log, 0, 1);
    let want_tables = tables(&mut log);
    drop(log);
    let create = |sqls: Vec<String>| -> BTreeSet<String> {
        sqls.into_iter()
            .filter(|s| s.starts_with("CREATE"))
            .collect()
    };
    let want_ddl = create(journaled(&bare));

    let path = TempPath::new("views-not-tables", "log");
    let mut log = open_git_disk(&path);
    Checker::install(&GitModule, &mut log).expect("install views");
    git_pairs(&mut log, 0, 6);
    let mut ddl = create(journaled(&path));
    let inc = Checker::run_checks_incremental(&GitModule, &mut log).expect("check");
    assert_eq!(inc.total_violations(), 2, "two stale fetches");
    log.trim(GitModule.trim_queries()).expect("trim");
    log.commit().expect("commit the trim's snapshot frame");
    git_pairs(&mut log, 6, 6);
    assert_views_match_full_scan(&mut log, "before reopen");
    drop(log);
    let records = journaled(&path);
    assert!(
        records.iter().any(|s| s.starts_with("INSERT")),
        "a snapshot"
    );
    ddl.extend(create(records));
    assert_eq!(ddl, want_ddl, "only the log's own DDL is journaled");

    let mut log = open_git_disk(&path);
    log.verify().expect("verify");
    assert_eq!(tables(&mut log), want_tables, "no view table");
    Checker::install(&GitModule, &mut log).expect("install views");
    assert_views_match_full_scan(&mut log, "after reopen");
    let inc = Checker::run_checks_incremental(&GitModule, &mut log).expect("check");
    assert_eq!(
        inc.total_violations(),
        2,
        "the stale fetches since the trim"
    );
}

/// A log whose journal holds the view DDL an earlier registration
/// journaled — `mv_<invariant>` backing tables and their partition
/// indexes — still opens and verifies. Those tables replay, inert:
/// nothing reads them, and the views hold their own rows.
#[test]
fn a_log_with_journaled_view_tables_still_opens() {
    let path = TempPath::new("views-old-ddl", "log");
    let mut log = open_git_disk(&path);
    for ddl in [
        "CREATE TABLE IF NOT EXISTS mv_git_soundness(time, repo, branch, cid)",
        "CREATE INDEX IF NOT EXISTS mvix_mv_git_soundness_part ON mv_git_soundness(time)",
        "CREATE TABLE IF NOT EXISTS mv_git_completeness(time, repo)",
        "CREATE INDEX IF NOT EXISTS mvix_mv_git_completeness_part ON mv_git_completeness(time)",
    ] {
        log.db_mut().execute_with(ddl, &[]).expect(ddl);
    }
    git_pairs(&mut log, 0, 6);
    log.trim(GitModule.trim_queries()).expect("trim");
    log.commit().expect("commit");
    git_pairs(&mut log, 6, 6);
    drop(log);
    assert!(journaled(&path)
        .iter()
        .any(|s| s.contains("mvix_mv_git_soundness_part")));

    let mut log = open_git_disk(&path);
    log.verify().expect("verify");
    assert!(tables(&mut log).contains(&"mv_git_soundness".to_string()));
    Checker::install(&GitModule, &mut log).expect("install views");
    assert_views_match_full_scan(&mut log, "reopened");
    let inc = Checker::run_checks_incremental(&GitModule, &mut log).expect("check");
    assert_eq!(
        inc.total_violations(),
        2,
        "the stale fetches since the trim"
    );
    let old = log
        .query("SELECT COUNT(*) FROM mv_git_soundness", &[])
        .unwrap();
    assert_eq!(old.scalar(), Some(&Value::Integer(0)), "inert");
}
