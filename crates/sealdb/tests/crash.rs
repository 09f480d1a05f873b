//! Fault-injected crash tests for the journal, its snapshot frames and
//! reclamation.
//!
//! Every test opens a `plat::failpoint::scenario()` first (a global
//! lock) so fault-injected tests serialize across the process. A
//! simulated crash latches every later failpoint as failed; recovery
//! then runs under `scenario.reset()`, exactly like a restarted
//! process reading what the dead one left behind.

use libseal_sealdb::journal::{Journal, PlainCodec, DEFAULT_TAG, HEADER_BYTES, SEGMENT_BYTES};
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

/// `compact()` once truncated the journal before rewriting the
/// snapshot, so a crash mid-compaction destroyed the entire log. Now a
/// crash at ANY point of it — the snapshot frame, its write and fsync,
/// and reclamation's copy, fsync, rename and directory sync — leaves a
/// journal that recovers every row.
#[test]
fn crash_at_every_compact_failpoint_preserves_the_log() {
    let s = failpoint::scenario();
    for site in [
        "sealdb::journal::snapshot",
        "sealdb::journal::write",
        "sealdb::journal::sync",
        "sealdb::reclaim::copy",
        "sealdb::reclaim::sync",
        "sealdb::reclaim::rename",
        "sealdb::reclaim::sync_dir",
    ] {
        s.reset();
        let path = TempPath::new(&format!("sealdb-crash-{}", site.replace(':', "_")), "log");
        {
            let mut db = seeded_db(&path, 20);
            s.set(site, FaultSpec::crash());
            let r = db.compact();
            if site == "sealdb::reclaim::sync_dir" {
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

/// A partial write of reclamation's temp file (torn page mid-copy)
/// must leave the live journal untouched, and the half-written temp
/// must be cleaned up on reopen.
#[test]
fn torn_snapshot_write_leaves_live_journal_intact() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-tornsnap", "log");
    {
        let mut db = seeded_db(&path, 10);
        s.set("sealdb::reclaim::copy", FaultSpec::partial_write(7));
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

/// A torn write (crash mid-`write(2)`) is salvaged on reopen: every
/// frame before the torn one replays, the torn frame is dropped and
/// reported.
#[test]
fn torn_append_is_salvaged_on_reopen() {
    let _s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-tornapp", "log");
    let (synced, end) = {
        let mut db = seeded_db(&path, 5);
        let synced = db.journal_size_bytes() as usize;
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(99), Value::Null],
        )
        .unwrap();
        db.sync_journal().unwrap();
        (synced, db.journal_size_bytes() as usize)
    };
    // The process died 9 bytes into writing the new frame over the
    // zero tail.
    let mut data = std::fs::read(&path).unwrap();
    data[synced + 9..].fill(0);
    std::fs::write(&path, &data).unwrap();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 5, "synced prefix must survive");
    let salvage = db.salvage_report().expect("salvage must be reported");
    assert_eq!(salvage.offset, synced as u64);
    assert_eq!(salvage.lost_bytes, (end - synced) as u64, "the torn frame");
}

/// A torn write the process survives (an I/O error part-way) is
/// zeroed back, and its frames stay pending: the next sync writes them
/// again, behind nothing torn.
#[test]
fn a_torn_write_the_process_survives_is_cut_back_and_written_again() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-retry-write", "log");
    {
        let mut db = seeded_db(&path, 5);
        let synced = db.journal_size_bytes() as usize;
        let len = std::fs::metadata(&path).unwrap().len();
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(5), Value::Null],
        )
        .unwrap();
        // The write first grows the zero tail it needs (the seeding
        // commit left none); the torn bytes are zeroed, not cut off.
        let need = db.journal_size_bytes() - len;
        let grown = len + need.max(len.min(SEGMENT_BYTES));
        let next = s.hits("sealdb::journal::write");
        let torn = FaultSpec::partial_write(9).after(next).times(1);
        s.set("sealdb::journal::write", torn);
        assert!(db.sync_journal().is_err());
        let data = std::fs::read(&path).unwrap();
        assert_eq!(data.len() as u64, grown);
        assert!(data[synced..].iter().all(|&b| b == 0), "torn bytes zeroed");
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(6), Value::Null],
        )
        .unwrap();
        db.sync_journal().unwrap();
    }
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 7);
    assert!(db.salvage_report().is_none());
}

/// A commit whose frames pass the zero tail grows the file in the same
/// write — by what it needs or the file's length, whichever is more, up
/// to a segment — and still costs one fsync.
#[test]
fn a_commit_across_a_segment_boundary_costs_one_fsync() {
    let s = failpoint::scenario();
    let fsyncs = libseal_telemetry::counter("sealdb_journal_fsyncs_total");
    let path = TempPath::new("sealdb-crash-segment", "log");
    let mut db = seeded_db(&path, 1);
    let len = || std::fs::metadata(&path).unwrap().len();
    let row = [Value::Integer(1), Value::Text("x".repeat(4096))];
    let (mut commits, mut within) = (0, 0);
    loop {
        let before = len();
        db.execute_with("INSERT INTO t VALUES (?, ?)", &row)
            .unwrap();
        let (extends, syncs) = (s.hits("sealdb::journal::extend"), fsyncs.get());
        db.sync_journal().unwrap();
        assert_eq!(fsyncs.get() - syncs, 1, "commit {commits}");
        commits += 1;
        if len() == before {
            within += 1;
            continue;
        }
        assert!(
            s.hits("sealdb::journal::extend") > extends,
            "grown by this commit"
        );
        let need = db.journal_size_bytes() - before;
        assert_eq!(len() - before, need.max(before.min(SEGMENT_BYTES)));
        if before >= SEGMENT_BYTES {
            assert_eq!(len(), before + SEGMENT_BYTES);
            break;
        }
        within = 0;
    }
    assert!(within > 1, "the last segment held several commits");
    drop(db);
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 1 + commits);
}

/// A crash while the zero tail grows leaves the frames before it.
#[test]
fn a_crash_while_the_tail_grows_leaves_the_synced_rows() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-extend", "log");
    {
        let mut db = seeded_db(&path, 3);
        let row = [
            Value::Integer(9),
            Value::Blob(vec![1; SEGMENT_BYTES as usize]),
        ];
        db.execute_with("INSERT INTO t VALUES (?, ?)", &row)
            .unwrap();
        let next = s.hits("sealdb::journal::extend");
        s.set(
            "sealdb::journal::extend",
            FaultSpec::partial_write(9).after(next),
        );
        assert!(db.sync_journal().is_err());
        s.set("sealdb::journal::extend", FaultSpec::crash());
        assert!(db.sync_journal().is_err());
    }
    s.reset();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 3);
    assert!(db.salvage_report().is_none());
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
        s.set("sealdb::reclaim::rename", FaultSpec::crash());
        assert!(db.compact().is_err()); // generation 2, crashes
    }
    s.reset();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 9);
}

/// Regression found by the crash matrix: when the directory sync
/// *after* the rename fails transiently, the reclaimed copy is already
/// the live journal — the writer must switch to it. Before the fix it
/// kept appending to the unlinked old inode, so every later row
/// vanished on restart.
#[test]
fn writes_after_failed_dir_sync_survive_restart() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-dirsync", "log");
    {
        let mut db = seeded_db(&path, 4);
        s.set("sealdb::reclaim::sync_dir", FaultSpec::error().times(1));
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
    s.set("sealdb::reclaim::sync", FaultSpec::error().times(1));
    assert!(db.compact().is_err());
    assert_eq!(row_count(&db), 6);
    db.compact().unwrap();
    assert_eq!(row_count(&db), 6);
    // And the compacted journal replays.
    drop(db);
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 6);
}

/// A trim as the audit log stages one, with an insert behind it: the
/// deletion waits for the snapshot frame, the insert is journaled as
/// usual.
fn stage_trim(db: &mut Database) {
    db.defer_to_snapshot();
    db.execute("DELETE FROM t WHERE a < 3").unwrap();
    db.resume_journal();
    db.execute_with(
        "INSERT INTO t VALUES (?, ?)",
        &[Value::Integer(50), Value::Null],
    )
    .unwrap();
}

/// A snapshot frame torn by a crash mid-write is salvaged like any torn
/// tail: the journal replays to the state before the trim, plus the
/// insert staged behind it.
#[test]
fn a_torn_snapshot_frame_leaves_the_pre_trim_rows_and_the_insert_behind() {
    let _s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-tornframe", "log");
    let end = {
        let mut db = seeded_db(&path, 6);
        stage_trim(&mut db);
        assert_eq!(row_count(&db), 4);
        db.write_snapshot().unwrap();
        db.sync_journal().unwrap();
        db.journal_size_bytes() as usize
    };
    let full = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&full), 4, "the frame landed");
    drop(full);
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..end - 5]).unwrap();
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 7, "the pre-trim rows and the insert");
    assert!(db.salvage_report().is_some());
}

/// A snapshot frame that cannot be staged leaves the trim to be given
/// up: reloading replays the journal — file and pending frames — to
/// the pre-trim rows plus the insert staged behind the trim.
#[test]
fn a_failed_snapshot_frame_reloads_to_the_pre_trim_rows_and_the_insert_behind() {
    let s = failpoint::scenario();
    let path = TempPath::new("sealdb-crash-failedframe", "log");
    {
        let mut db = seeded_db(&path, 6);
        stage_trim(&mut db);
        s.set("sealdb::journal::snapshot", FaultSpec::error().times(1));
        assert!(db.write_snapshot().is_err());
        assert!(db.snapshot_pending());
        db.reload().unwrap();
        assert_eq!(row_count(&db), 7);
        db.sync_journal().unwrap();
    }
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(row_count(&db), 7);
}

fn sqls(j: &mut Journal) -> Vec<String> {
    j.replay().unwrap().into_iter().map(|e| e.sql).collect()
}

#[test]
fn replay_starts_over_at_each_snapshot_frame() {
    let _s = failpoint::scenario();
    let path = TempPath::new("sealdb-journal-snap", "log");
    let mut j = Journal::open(&path, Box::new(PlainCodec), DEFAULT_TAG).unwrap();
    j.append("A", &[]).unwrap();
    j.append_snapshot([("S1", &[][..]), ("S2", &[Value::Integer(9)][..])])
        .unwrap();
    j.append("B", &[]).unwrap();
    assert_eq!(sqls(&mut j), ["S1", "S2", "B"], "pending frames replay too");
    j.sync_now().unwrap();
    j.append_snapshot([("T", &[][..])]).unwrap();
    j.sync_now().unwrap();
    drop(j);
    let mut j = Journal::open(&path, Box::new(PlainCodec), DEFAULT_TAG).unwrap();
    assert_eq!(sqls(&mut j), ["T"]);
    assert!(j.last_salvage().is_none());
}

#[test]
fn a_torn_snapshot_frame_leaves_the_state_before_it() {
    let _s = failpoint::scenario();
    let path = TempPath::new("sealdb-journal-snaptorn", "log");
    let (before, end);
    {
        let mut j = Journal::open(&path, Box::new(PlainCodec), DEFAULT_TAG).unwrap();
        j.append("A", &[]).unwrap();
        j.sync_now().unwrap();
        before = j.size_bytes();
        j.append("B", &[]).unwrap();
        j.append_snapshot([("S", &[][..])]).unwrap();
        j.sync_now().unwrap();
        end = j.size_bytes() as usize;
    }
    let data = std::fs::read(&path).unwrap();
    std::fs::write(&path, &data[..end - 2]).unwrap();
    let mut j = Journal::open(&path, Box::new(PlainCodec), DEFAULT_TAG).unwrap();
    assert_eq!(sqls(&mut j), ["A", "B"]);
    assert!(j.last_salvage().unwrap().offset > before);
}

#[test]
fn reclaim_keeps_the_live_suffix_byte_for_byte() {
    let _s = failpoint::scenario();
    let path = TempPath::new("sealdb-journal-reclaim", "log");
    let mut j = Journal::open(&path, Box::new(PlainCodec), DEFAULT_TAG).unwrap();
    for i in 0..5 {
        j.append(&format!("S{i}"), &[]).unwrap();
    }
    j.append_snapshot([("SNAP1", &[][..]), ("SNAP2", &[Value::Integer(9)][..])])
        .unwrap();
    j.append("AFTER", &[]).unwrap();
    j.sync_now().unwrap();
    let (data, end) = (std::fs::read(&path).unwrap(), j.size_bytes() as usize);
    j.reclaim().unwrap();
    let reclaimed = std::fs::read(&path).unwrap();
    let (header, suffix) = reclaimed.split_at(HEADER_BYTES as usize);
    assert_eq!(header, &data[..HEADER_BYTES as usize]);
    assert!(data[..end].ends_with(suffix) && reclaimed.len() < end);
    assert_eq!(j.size_bytes(), reclaimed.len() as u64);
    let entries = j.replay().unwrap();
    assert_eq!(entries.len(), 3);
    assert_eq!(entries[1].params, vec![Value::Integer(9)]);
    // The handle is live after the swap.
    j.append("LATER", &[]).unwrap();
    j.sync_now().unwrap();
    assert_eq!(sqls(&mut j), ["SNAP1", "SNAP2", "AFTER", "LATER"]);
}
