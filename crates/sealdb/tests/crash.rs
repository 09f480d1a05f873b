//! Fault-injected crash tests for the journal and compaction paths.
//!
//! Every test opens a `plat::failpoint::scenario()` first (a global
//! lock) so fault-injected tests serialize across the process. A
//! simulated crash latches every later failpoint as failed; recovery
//! then runs under `scenario.reset()`, exactly like a restarted
//! process reading what the dead one left behind.

use libseal_sealdb::journal::PlainCodec;
use libseal_sealdb::{Database, Value};
use plat::failpoint::{self, FaultSpec};
use plat::tmp::TempPath;

fn seeded_db(path: &TempPath, rows: i64) -> Database {
    let mut db = Database::open(path, Box::new(PlainCodec)).unwrap();
    db.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
    for i in 0..rows {
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(i), Value::Text(format!("row{i}"))],
        )
        .unwrap();
    }
    db.sync_journal().unwrap();
    db
}

fn row_count(db: &Database) -> i64 {
    match db.query("SELECT COUNT(*) FROM t", &[]).unwrap().scalar() {
        Some(Value::Integer(n)) => *n,
        _ => 0,
    }
}

/// The ISSUE's headline regression: `compact()` used to truncate the
/// journal before rewriting the snapshot, so a crash mid-compaction
/// destroyed the entire log. Now a crash at ANY point of the
/// compaction protocol leaves a journal that recovers every row.
#[test]
fn crash_at_every_compact_failpoint_preserves_the_log() {
    let s = failpoint::scenario();
    for site in [
        "sealdb::compact::write",
        "sealdb::compact::sync",
        "sealdb::compact::rename",
        "sealdb::compact::sync_dir",
    ] {
        s.reset();
        let path = TempPath::new(&format!("sealdb-crash-{}", site.replace(':', "_")), "log");
        {
            let mut db = seeded_db(&path, 20);
            s.set(site, FaultSpec::crash());
            let r = db.compact();
            if site == "sealdb::compact::sync_dir" {
                // The rename already happened: the snapshot is fully in
                // place, only its directory-entry durability is in
                // doubt, and the API still reports the failure.
                assert!(r.is_err());
            } else {
                assert!(r.is_err(), "compact must fail when {site} crashes");
            }
            // The "process" is now dead; drop the handle as a crash
            // would.
        }
        s.reset(); // restart
        let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        assert_eq!(
            row_count(&db),
            20,
            "rows lost after crash at {site}: the log must survive compaction crashes"
        );
    }
}

/// A partial write of the snapshot temp file (torn page mid-compact)
/// must leave the live journal untouched, and the half-written temp
/// must be cleaned up on reopen.
#[test]
fn torn_snapshot_write_leaves_live_journal_intact() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-tornsnap", "log");
    {
        let mut db = seeded_db(&path, 10);
        s.set("sealdb::compact::write", FaultSpec::partial_write(7));
        assert!(db.compact().is_err());
    }
    s.reset();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 10);
    // No *.compact-* litter survives the reopen.
    let parent = path.path().parent().unwrap();
    let name = path
        .path()
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    for e in std::fs::read_dir(parent).unwrap().flatten() {
        assert!(
            !e.file_name()
                .to_string_lossy()
                .starts_with(&format!("{name}.compact-")),
            "stale snapshot temp left behind"
        );
    }
}

/// A torn append (crash mid-`write(2)`) is salvaged on reopen: every
/// record before the torn frame replays, the torn bytes are dropped
/// and reported.
#[test]
fn torn_append_is_salvaged_on_reopen() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-tornapp", "log");
    {
        let mut db = seeded_db(&path, 5);
        // The next journal append persists only 9 bytes of its frame.
        s.set("sealdb::journal::append", FaultSpec::partial_write(9));
        assert!(db
            .execute_with(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Integer(99), Value::Null]
            )
            .is_err());
    }
    s.reset();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 5, "synced prefix must survive");
    let salvage = db.salvage_report().expect("salvage must be reported");
    assert_eq!(salvage.lost_bytes, 9);
}

/// Compaction happening *after* a successful compaction (generation
/// numbers advancing) still recovers at every crash point.
#[test]
fn repeated_compaction_generations_survive_crashes() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-gen", "log");
    {
        let mut db = seeded_db(&path, 8);
        db.compact().unwrap(); // generation 1, clean
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(100), Value::Null],
        )
        .unwrap();
        db.sync_journal().unwrap();
        s.set("sealdb::compact::rename", FaultSpec::crash());
        assert!(db.compact().is_err()); // generation 2, crashes
    }
    s.reset();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 9);
}

/// Regression found by the crash matrix: when the directory sync
/// *after* the rename fails transiently, the snapshot is already the
/// live journal — the writer must switch to it. Before the fix it
/// kept appending to the unlinked pre-compaction inode, so every
/// later row vanished on restart.
#[test]
fn writes_after_failed_dir_sync_survive_restart() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-dirsync", "log");
    {
        let mut db = seeded_db(&path, 4);
        s.set("sealdb::compact::sync_dir", FaultSpec::error().times(1));
        assert!(db.compact().is_err());
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(4), Value::Null],
        )
        .unwrap();
        db.sync_journal().unwrap();
    }
    s.reset();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 5, "post-compaction append lost");
}

/// An injected I/O error (not a crash) during compaction leaves the
/// database usable and the journal intact — and a later, clean
/// compaction succeeds.
#[test]
fn failed_compaction_is_retryable() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-retry", "log");
    let mut db = seeded_db(&path, 6);
    s.set("sealdb::compact::sync", FaultSpec::error().times(1));
    assert!(db.compact().is_err());
    assert_eq!(row_count(&db), 6);
    db.compact().unwrap();
    assert_eq!(row_count(&db), 6);
    // And the compacted journal replays.
    drop(db);
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 6);
}
