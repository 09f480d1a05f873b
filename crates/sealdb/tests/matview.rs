//! Delta-maintained materialized view semantics: incremental refresh
//! must always agree with a from-scratch evaluation of the view query.

use libseal_sealdb::journal::PlainCodec;
use libseal_sealdb::{Database, DbError, DeltaSpec, MatViewSpec, RescanRule, SourceRule, Value};
use plat::tmp::TempPath;

/// A miniature soundness invariant: a `sent` row with no matching
/// `recv` row is a violation. The NOT EXISTS is untimed, so a later
/// recv can clear an earlier violation — the rescan-rule case.
const FULL: &str = "SELECT s.time, s.doc FROM sent s \
  WHERE NOT EXISTS (SELECT 1 FROM recv r WHERE r.doc = s.doc AND r.content = s.content)";
const DELTA: &str = "SELECT s.time, s.doc FROM sent s \
  WHERE s.time = ?1 \
  AND NOT EXISTS (SELECT 1 FROM recv r WHERE r.doc = s.doc AND r.content = s.content)";

const SOURCES: &[SourceRule] = &[
    SourceRule {
        table: "sent",
        partition_col: Some("time"),
        rescan: None,
    },
    SourceRule {
        table: "recv",
        partition_col: None,
        rescan: Some(RescanRule {
            sql: "SELECT s.time FROM sent s WHERE s.doc = ?1 AND s.content = ?2",
            bind_cols: &["doc", "content"],
        }),
    },
];

fn spec() -> MatViewSpec {
    MatViewSpec {
        name: "unsound",
        full_sql: FULL,
        delta: DeltaSpec {
            delta_sql: DELTA,
            partition_col: 0,
            sources: SOURCES,
        },
    }
}

fn schema(db: &mut Database) {
    db.execute("CREATE TABLE sent(time INTEGER, doc TEXT, content TEXT)")
        .unwrap();
    db.execute("CREATE TABLE recv(time INTEGER, doc TEXT, content TEXT)")
        .unwrap();
    db.execute("CREATE INDEX idx_sent_doc ON sent(doc)")
        .unwrap();
    db.execute("CREATE INDEX idx_recv_doc ON recv(doc)")
        .unwrap();
}

fn send(db: &mut Database, time: i64, doc: &str, content: &str) {
    db.execute_with(
        "INSERT INTO sent VALUES (?, ?, ?)",
        &[
            Value::Integer(time),
            Value::Text(doc.into()),
            Value::Text(content.into()),
        ],
    )
    .unwrap();
}

fn recv(db: &mut Database, time: i64, doc: &str, content: &str) {
    db.execute_with(
        "INSERT INTO recv VALUES (?, ?, ?)",
        &[
            Value::Integer(time),
            Value::Text(doc.into()),
            Value::Text(content.into()),
        ],
    )
    .unwrap();
}

/// Sorted (time, doc) pairs from two-column rows.
fn pairs(rows: &[Vec<Value>]) -> Vec<(i64, String)> {
    let mut out: Vec<(i64, String)> = (rows.iter())
        .map(|r| match (&r[0], &r[1]) {
            (Value::Integer(t), Value::Text(d)) => (*t, d.clone()),
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    out.sort();
    out
}

/// The view's rows as (time, doc) pairs.
fn view(db: &Database) -> Vec<(i64, String)> {
    pairs(db.matview_rows("unsound").expect("registered"))
}

fn assert_view_matches_full(db: &Database) {
    assert_eq!(
        view(db),
        pairs(&db.query(FULL, &[]).unwrap().rows),
        "materialized view diverged from full evaluation"
    );
}

/// A view is not a table: no catalog table or index of it exists.
fn assert_no_view_table(db: &Database) {
    let names = db.catalog().tables_sorted();
    let names: Vec<&str> = names.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, ["recv", "sent"]);
}

#[test]
fn registration_seeds_from_existing_rows() {
    let mut db = Database::new();
    schema(&mut db);
    send(&mut db, 1, "a", "x");
    send(&mut db, 2, "b", "y");
    recv(&mut db, 3, "a", "x");
    db.register_matview(spec()).unwrap();
    assert_eq!(db.matview_lag(), 0);
    assert_eq!(view(&db), vec![(2, "b".to_string())]);
}

#[test]
fn inserts_dirty_only_their_partition_and_refresh_converges() {
    let mut db = Database::new();
    schema(&mut db);
    db.register_matview(spec()).unwrap();
    send(&mut db, 1, "a", "x");
    assert_eq!(db.matview_lag(), 1);
    send(&mut db, 2, "b", "y");
    assert_eq!(db.matview_lag(), 2);
    let refreshed = db.refresh_matviews().unwrap();
    assert_eq!(refreshed, 2);
    assert_eq!(db.matview_lag(), 0);
    assert_view_matches_full(&db);
    // A matching recv clears the time-1 violation via the rescan rule.
    recv(&mut db, 3, "a", "x");
    assert_eq!(db.matview_lag(), 1, "rescan should re-dirty partition 1");
    db.refresh_matviews().unwrap();
    assert_eq!(view(&db), vec![(2, "b".to_string())]);
    assert_view_matches_full(&db);
    // A recv matching nothing dirties nothing.
    recv(&mut db, 4, "zz", "zz");
    assert_eq!(db.matview_lag(), 0);
}

#[test]
fn delete_and_update_force_full_rebuild() {
    let mut db = Database::new();
    schema(&mut db);
    send(&mut db, 1, "a", "x");
    send(&mut db, 2, "b", "y");
    recv(&mut db, 3, "b", "y");
    db.register_matview(spec()).unwrap();
    assert_view_matches_full(&db);
    // Deleting the recv row resurrects the time-2 violation.
    db.execute("DELETE FROM recv WHERE doc = 'b'").unwrap();
    assert!(db.matview_lag() > 0);
    db.refresh_matviews().unwrap();
    assert_eq!(view(&db), vec![(1, "a".to_string()), (2, "b".to_string())]);
    assert_view_matches_full(&db);
    // An UPDATE on a source table also forces a rebuild.
    db.execute("UPDATE sent SET content = 'z' WHERE doc = 'a'")
        .unwrap();
    assert!(db.matview_lag() > 0);
    db.refresh_matviews().unwrap();
    assert_view_matches_full(&db);
}

plat::prop! {
    #![cases(48)]

    fn randomized_incremental_equals_full_scan(g) {
            let mut db = Database::new();
            schema(&mut db);
            db.register_matview(spec()).unwrap();
            let docs = ["a", "b", "c"];
            let mut time = 0i64;
            for _ in 0..g.usize_in(1..40) {
                time += 1;
                let doc = docs[g.usize_in(0..docs.len())];
                let content = docs[g.usize_in(0..docs.len())];
                match g.usize_in(0..10) {
                    0..=4 => send(&mut db, time, doc, content),
                    5..=7 => recv(&mut db, time, doc, content),
                    8 => {
                        db.execute_with(
                            "DELETE FROM recv WHERE doc = ?",
                            &[Value::Text(doc.into())],
                        )
                        .unwrap();
                    }
                    _ => {
                        db.refresh_matviews().unwrap();
                        assert_view_matches_full(&db);
                    }
                }
            }
            db.refresh_matviews().unwrap();
            assert_view_matches_full(&db);
    }
}

#[test]
fn reopen_reseeds_views_from_recovered_base_tables() {
    let path = TempPath::new("matview_reopen", "db");
    {
        let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        schema(&mut db);
        db.register_matview(spec()).unwrap();
        send(&mut db, 1, "a", "x");
        send(&mut db, 2, "b", "y");
        recv(&mut db, 3, "a", "x");
        db.refresh_matviews().unwrap();
        assert_view_matches_full(&db);
        db.sync_journal().unwrap();
    }
    // Reopen: nothing of the view was journaled, so the catalog holds
    // the base tables alone and no view is registered.
    let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_no_view_table(&db);
    assert!(db.matview_rows("unsound").is_none());
    // Re-registration (what the audit layer does on open) reseeds.
    db.register_matview(spec()).unwrap();
    assert_view_matches_full(&db);
    assert_eq!(view(&db), vec![(2, "b".to_string())]);
}

#[test]
fn compaction_drops_derived_rows_but_keeps_definitions() {
    let path = TempPath::new("matview_compact", "db");
    {
        let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        schema(&mut db);
        send(&mut db, 1, "a", "x");
        db.register_matview(spec()).unwrap();
        assert_view_matches_full(&db);
        db.compact().unwrap();
        db.sync_journal().unwrap();
    }
    let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_no_view_table(&db);
    assert!(db.matview_rows("unsound").is_none());
    db.register_matview(spec()).unwrap();
    assert_eq!(view(&db), vec![(1, "a".to_string())]);
}

/// A bad view fails its registration with a typed error, leaves no
/// view behind, and never fails a later INSERT or refresh.
#[test]
fn registration_is_where_a_bad_view_fails() {
    const BAD_COLUMN: &[SourceRule] = &[SourceRule {
        table: "sent",
        partition_col: Some("when"),
        rescan: None,
    }];
    const BAD_BIND: &[SourceRule] = &[SourceRule {
        table: "recv",
        partition_col: None,
        rescan: Some(RescanRule {
            sql: "SELECT s.time FROM sent s WHERE s.doc = ?1",
            bind_cols: &["document"],
        }),
    }];
    const BAD_RESCAN: &[SourceRule] = &[SourceRule {
        table: "recv",
        partition_col: None,
        rescan: Some(RescanRule {
            sql: "SELECT s.time FROM sent s WHERE s.doc LIKE ?1",
            bind_cols: &["doc"],
        }),
    }];
    let with = |f: fn(&mut DeltaSpec)| {
        let mut s = spec();
        f(&mut s.delta);
        s
    };
    // (case, the spec, what the error quotes)
    let cases = [
        (
            "delta parse",
            with(|d| d.delta_sql = "SELECT s.time FROM sent s WHERE s.doc LIKE ?1"),
            "LIKE",
        ),
        ("rescan parse", with(|d| d.sources = BAD_RESCAN), "LIKE"),
        (
            "partition column",
            with(|d| d.sources = BAD_COLUMN),
            "sent has no column when",
        ),
        (
            "bind column",
            with(|d| d.sources = BAD_BIND),
            "recv has no column document",
        ),
        (
            "partition width",
            with(|d| d.partition_col = 2),
            "partition column 2",
        ),
        (
            "delta width",
            with(|d| d.delta_sql = "SELECT s.time FROM sent s WHERE s.time = ?1"),
            "a 1-column delta",
        ),
    ];
    for (case, bad, quoted) in cases {
        let mut db = Database::new();
        schema(&mut db);
        let err = db.register_matview(bad).unwrap_err();
        match &err {
            DbError::Parse(m) if case.ends_with("parse") => assert!(m.contains(quoted), "{m}"),
            DbError::Schema(m) if !case.ends_with("parse") => assert!(m.contains(quoted), "{m}"),
            _ => panic!("{case}: the wrong error: {err}"),
        }
        assert!(db.matview_rows("unsound").is_none(), "{case}");
        send(&mut db, 1, "a", "x");
        recv(&mut db, 2, "a", "x");
        assert_eq!(db.refresh_matviews().unwrap(), 0, "{case}");
    }
}
