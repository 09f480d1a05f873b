//! End-to-end tests of the sealdb engine, centred on the exact SQL the
//! LibSEAL paper runs: the Git audit schema, its soundness and
//! completeness invariants, the `branchcnt` view, and the trimming
//! queries (§1, §3.1, §5.1, §6.2) — all verbatim.

use libseal_sealdb::{Database, Value};

fn git_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE updates(time INTEGER, repo TEXT, branch TEXT, cid TEXT, type TEXT)")
        .unwrap();
    db.execute("CREATE TABLE advertisements(time INTEGER, repo TEXT, branch TEXT, cid TEXT)")
        .unwrap();
    // The paper's auxiliary view (§6.2), verbatim.
    db.execute(
        "CREATE VIEW branchcnt AS
         SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt
         FROM advertisements a
         JOIN updates u ON u.time < a.time AND u.repo = a.repo
         WHERE u.type != 'delete' AND u.time = (SELECT MAX(time)
            FROM updates WHERE branch = u.branch
            AND repo = u.repo AND time < a.time) GROUP BY a.time,a.repo,a.branch",
    )
    .unwrap();
    db
}

fn push(db: &mut Database, time: i64, repo: &str, branch: &str, cid: &str, kind: &str) {
    db.execute_with(
        "INSERT INTO updates VALUES (?, ?, ?, ?, ?)",
        &[
            Value::Integer(time),
            Value::Text(repo.into()),
            Value::Text(branch.into()),
            Value::Text(cid.into()),
            Value::Text(kind.into()),
        ],
    )
    .unwrap();
}

fn advertise(db: &mut Database, time: i64, repo: &str, branch: &str, cid: &str) {
    db.execute_with(
        "INSERT INTO advertisements VALUES (?, ?, ?, ?)",
        &[
            Value::Integer(time),
            Value::Text(repo.into()),
            Value::Text(branch.into()),
            Value::Text(cid.into()),
        ],
    )
    .unwrap();
}

/// The paper's Git soundness invariant (§6.2), verbatim.
const SOUNDNESS: &str = "SELECT * FROM advertisements a WHERE cid != (
    SELECT u.cid FROM updates u WHERE u.repo = a.repo AND
    u.branch = a.branch AND u.time < a.time ORDER BY
    u.time DESC LIMIT 1)";

/// The paper's Git completeness invariant (§1), verbatim.
const COMPLETENESS: &str = "SELECT time, repo FROM advertisements
    NATURAL JOIN branchcnt
    GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt";

#[test]
fn git_soundness_clean_history_passes() {
    let mut db = git_db();
    push(&mut db, 1, "r", "main", "c1", "update");
    advertise(&mut db, 2, "r", "main", "c1");
    push(&mut db, 3, "r", "main", "c2", "update");
    advertise(&mut db, 4, "r", "main", "c2");
    let r = db.query(SOUNDNESS, &[]).unwrap();
    assert!(r.is_empty(), "no violations expected: {:?}", r.rows);
}

#[test]
fn git_soundness_detects_rollback() {
    let mut db = git_db();
    push(&mut db, 1, "r", "main", "c1", "update");
    push(&mut db, 2, "r", "main", "c2", "update");
    // Rollback attack: the server advertises the OLD commit c1.
    advertise(&mut db, 3, "r", "main", "c1");
    let r = db.query(SOUNDNESS, &[]).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Integer(3));
}

#[test]
fn git_soundness_detects_teleport() {
    let mut db = git_db();
    push(&mut db, 1, "r", "main", "c1", "update");
    push(&mut db, 2, "r", "dev", "d9", "update");
    // Teleport attack: main advertised as pointing at dev's commit.
    advertise(&mut db, 3, "r", "main", "d9");
    advertise(&mut db, 4, "r", "dev", "d9");
    let r = db.query(SOUNDNESS, &[]).unwrap();
    assert_eq!(r.rows.len(), 1, "{:?}", r.rows);
    assert_eq!(r.rows[0][2], Value::Text("main".into()));
}

#[test]
fn git_completeness_detects_reference_deletion() {
    let mut db = git_db();
    push(&mut db, 1, "r", "main", "c1", "update");
    push(&mut db, 2, "r", "dev", "d1", "update");
    // The server only advertises main: dev was silently dropped.
    advertise(&mut db, 3, "r", "main", "c1");
    let r = db.query(COMPLETENESS, &[]).unwrap();
    assert_eq!(r.rows.len(), 1, "{:?}", r.rows);
    assert_eq!(r.rows[0][0], Value::Integer(3));
}

#[test]
fn git_completeness_clean_advertisement_passes() {
    let mut db = git_db();
    push(&mut db, 1, "r", "main", "c1", "update");
    push(&mut db, 2, "r", "dev", "d1", "update");
    advertise(&mut db, 3, "r", "main", "c1");
    advertise(&mut db, 3, "r", "dev", "d1");
    let r = db.query(COMPLETENESS, &[]).unwrap();
    assert!(r.is_empty(), "{:?}", r.rows);
}

#[test]
fn git_completeness_ignores_deleted_branches() {
    let mut db = git_db();
    push(&mut db, 1, "r", "main", "c1", "update");
    push(&mut db, 2, "r", "dev", "d1", "update");
    push(&mut db, 3, "r", "dev", "d1", "delete");
    // dev was legitimately deleted; advertising only main is fine.
    advertise(&mut db, 4, "r", "main", "c1");
    let r = db.query(COMPLETENESS, &[]).unwrap();
    assert!(r.is_empty(), "{:?}", r.rows);
}

#[test]
fn git_trimming_queries_work() {
    let mut db = git_db();
    push(&mut db, 1, "r", "main", "c1", "update");
    push(&mut db, 2, "r", "main", "c2", "update");
    push(&mut db, 3, "r", "dev", "d1", "update");
    advertise(&mut db, 4, "r", "main", "c2");
    advertise(&mut db, 4, "r", "dev", "d1");
    // The paper's trimming queries (§5.1), verbatim.
    db.execute("DELETE FROM advertisements").unwrap();
    let r = db
        .execute(
            "DELETE FROM updates WHERE time NOT IN
             (SELECT MAX(time) FROM updates GROUP BY repo, branch)",
        )
        .unwrap();
    assert_eq!(r.rows_affected, 1); // Only (1, main, c1) removed.
    let left = db
        .query("SELECT branch, cid FROM updates ORDER BY branch", &[])
        .unwrap();
    assert_eq!(left.rows.len(), 2);
    assert_eq!(left.rows[0][1], Value::Text("d1".into()));
    assert_eq!(left.rows[1][1], Value::Text("c2".into()));
    // Invariants still hold after trimming followed by new traffic.
    advertise(&mut db, 5, "r", "main", "c2");
    advertise(&mut db, 5, "r", "dev", "d1");
    assert!(db.query(SOUNDNESS, &[]).unwrap().is_empty());
    assert!(db.query(COMPLETENESS, &[]).unwrap().is_empty());
}

#[test]
fn multi_repo_isolation() {
    let mut db = git_db();
    push(&mut db, 1, "r1", "main", "a1", "update");
    push(&mut db, 2, "r2", "main", "b1", "update");
    advertise(&mut db, 3, "r1", "main", "a1");
    advertise(&mut db, 3, "r2", "main", "b1");
    assert!(db.query(SOUNDNESS, &[]).unwrap().is_empty());
    // Cross-repo confusion would be a violation.
    advertise(&mut db, 4, "r1", "main", "b1");
    assert_eq!(db.query(SOUNDNESS, &[]).unwrap().rows.len(), 1);
}

// ---- General engine behaviour -----------------------------------------

/// Runs one `INSERT INTO table VALUES (row)` per row.
fn insert(db: &mut Database, table: &str, rows: &[&str]) {
    for row in rows {
        db.execute(&format!("INSERT INTO {table} VALUES ({row})"))
            .unwrap();
    }
}

#[test]
fn aggregates_and_group_by() {
    let mut db = Database::new();
    db.execute("CREATE TABLE s(grp TEXT, v INTEGER)").unwrap();
    insert(&mut db, "s", &["'a', 1", "'a', 2", "'b', 5", "'c', 10"]);
    db.execute_with("INSERT INTO s VALUES ('b', ?)", &[Value::Null])
        .unwrap();
    let r = db
        .query(
            "SELECT grp, COUNT(*), COUNT(v), MAX(v) FROM s GROUP BY grp ORDER BY grp",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    // Group 'b': COUNT(*)=2, COUNT(v)=1 (NULL ignored), MAX=5.
    assert_eq!(r.rows[1][1], Value::Integer(2));
    assert_eq!(r.rows[1][2], Value::Integer(1));
    assert_eq!(r.rows[1][3], Value::Integer(5));
    assert_eq!(r.rows[2][3], Value::Integer(10));
}

#[test]
fn having_filters_groups() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(g TEXT, v INTEGER)").unwrap();
    insert(&mut db, "t", &["'a', 1", "'a', 2", "'b', 1"]);
    let r = db
        .query("SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Text("a".into()));
}

#[test]
fn order_by_desc_and_limit() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(v INTEGER)").unwrap();
    insert(&mut db, "t", &["3", "1", "4", "1", "5", "9", "2", "6"]);
    let r = db
        .query("SELECT v FROM t ORDER BY v DESC LIMIT 3", &[])
        .unwrap();
    let vals: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row[0] {
            Value::Integer(i) => i,
            _ => panic!(),
        })
        .collect();
    assert_eq!(vals, vec![9, 6, 5]);
}

#[test]
fn exists_and_not_exists() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(v INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let r = db
        .query(
            "SELECT 'yes' FROM t WHERE EXISTS (SELECT 1 FROM t WHERE v = 1)",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db
        .query(
            "SELECT 'yes' FROM t WHERE NOT EXISTS (SELECT 1 FROM t WHERE v = 2)",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db
        .query(
            "SELECT 'yes' FROM t WHERE NOT EXISTS (SELECT 1 FROM t WHERE v = 1)",
            &[],
        )
        .unwrap();
    assert!(r.is_empty());
}

#[test]
fn correlated_exists() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a(x INTEGER)").unwrap();
    db.execute("CREATE TABLE b(y INTEGER)").unwrap();
    insert(&mut db, "a", &["1", "2", "3"]);
    insert(&mut db, "b", &["2", "3", "4"]);
    let r = db
        .query(
            "SELECT x FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.y = a.x) ORDER BY x",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Integer(2));
}

#[test]
fn null_three_valued_logic() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(v INTEGER)").unwrap();
    for v in [Value::Integer(1), Value::Null, Value::Integer(2)] {
        db.execute_with("INSERT INTO t VALUES (?)", &[v]).unwrap();
    }
    // NULL != 1 is unknown, so the NULL row is not returned.
    let r = db.query("SELECT v FROM t WHERE v != 1", &[]).unwrap();
    assert_eq!(r.rows.len(), 1);
    // Unknown OR true is true; unknown AND true is unknown.
    let r = db
        .query("SELECT v FROM t WHERE v != 1 OR 1 = 1", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    let r = db
        .query("SELECT v FROM t WHERE v > 0 AND 1 = 1", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // NOT IN with NULL in the subquery result yields no rows.
    db.execute("CREATE TABLE u(w INTEGER)").unwrap();
    for w in [Value::Integer(1), Value::Null] {
        db.execute_with("INSERT INTO u VALUES (?)", &[w]).unwrap();
    }
    let r = db
        .query("SELECT v FROM t WHERE v NOT IN (SELECT w FROM u)", &[])
        .unwrap();
    assert!(r.is_empty());
}

#[test]
fn update_statement_applies() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(id INTEGER, v INTEGER)").unwrap();
    insert(&mut db, "t", &["1, 10", "2, 20"]);
    let r = db.execute("UPDATE t SET v = v + 1 WHERE id = 2").unwrap();
    assert_eq!(r.rows_affected, 1);
    let r = db.query("SELECT v FROM t WHERE id = 2", &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(21));
}

#[test]
fn addition_and_concatenation() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (9223372036854775807, 'x')")
        .unwrap();
    db.execute_with(
        "INSERT INTO t VALUES (?, ?)",
        &[Value::Real(0.5), Value::Null],
    )
    .unwrap();
    let r = db.query("SELECT a + 1, 1 + -1, a + b FROM t", &[]).unwrap();
    // Integer overflow goes real; NULL propagates; text that is not a
    // number adds as NULL.
    assert!(matches!(r.rows[0][0], Value::Real(f) if f == 9223372036854775808.0));
    assert!(matches!(r.rows[0][1], Value::Integer(0)));
    assert!(r.rows[0][2].is_null());
    assert!(matches!(r.rows[1][0], Value::Real(f) if f == 1.5));
    assert!(r.rows[1][2].is_null());
}

#[test]
fn subquery_in_from_clause() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(g TEXT, v INTEGER)").unwrap();
    insert(&mut db, "t", &["'a', 1", "'a', 2", "'b', 7"]);
    let r = db
        .query(
            "SELECT MAX(n) FROM (SELECT g, COUNT(v) AS n FROM t GROUP BY g) counts",
            &[],
        )
        .unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(2));
}

#[test]
fn persistence_roundtrip() {
    use libseal_sealdb::PlainCodec;
    let path = plat::tmp::TempPath::new("sealdb-e2e", "db");
    {
        let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        db.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(1), Value::Text("one".into())],
        )
        .unwrap();
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(2), Value::Text("two".into())],
        )
        .unwrap();
        db.execute("DELETE FROM t WHERE a = 1").unwrap();
        db.sync_journal().unwrap();
    }
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    let r = db.query("SELECT a, b FROM t", &[]).unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1], Value::Text("two".into()));
}

#[test]
fn compaction_preserves_data_and_shrinks_journal() {
    use libseal_sealdb::PlainCodec;
    let path = plat::tmp::TempPath::new("sealdb-compact", "db");
    {
        let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        db.execute("CREATE TABLE t(a INTEGER)").unwrap();
        for i in 0..100 {
            db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(i)])
                .unwrap();
        }
        db.execute("DELETE FROM t WHERE a < 90").unwrap();
        let before = db.journal_size_bytes();
        db.compact().unwrap();
        assert!(db.journal_size_bytes() < before);
    }
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    let r = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(10));
}

#[test]
fn view_over_view_queries() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(v INTEGER)").unwrap();
    insert(&mut db, "t", &["1", "2", "3", "4"]);
    db.execute("CREATE VIEW upper AS SELECT v FROM t WHERE v > 1")
        .unwrap();
    db.execute("CREATE VIEW middle AS SELECT v FROM upper WHERE v < 4")
        .unwrap();
    let r = db.query("SELECT v FROM middle ORDER BY v", &[]).unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Integer(2));
    assert!(db.execute("CREATE VIEW upper AS SELECT v FROM t").is_err());
}

#[test]
fn errors_are_reported() {
    let mut db = Database::new();
    assert!(db.query("SELECT * FROM missing", &[]).is_err());
    db.execute("CREATE TABLE t(a INTEGER)").unwrap();
    assert!(db.query("SELECT nope FROM t", &[]).is_err());
    assert!(db.execute("CREATE TABLE t(a INTEGER)").is_err());
    assert!(db
        .execute("CREATE TABLE IF NOT EXISTS t(a INTEGER)")
        .is_ok());
    assert!(db.execute("INSERT INTO t VALUES (1, 2)").is_err());
    assert!(db.execute_with("INSERT INTO t VALUES (?)", &[]).is_err());
}

#[test]
fn affinity_applied_on_insert() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES ('42', 7)").unwrap();
    let r = db.query("SELECT a, b FROM t", &[]).unwrap();
    assert!(matches!(r.rows[0][0], Value::Integer(42)));
    assert!(matches!(&r.rows[0][1], Value::Text(s) if s == "7"));
}

#[test]
fn distinct_dedupes() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(v INTEGER)").unwrap();
    insert(&mut db, "t", &["1", "1", "2", "2", "2"]);
    let r = db
        .query("SELECT DISTINCT v FROM t ORDER BY v", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

fn assert_indexes_consistent(db: &Database) {
    for t in db.catalog().tables_sorted() {
        assert!(t.indexes_consistent(), "indexes on {} inconsistent", t.name);
    }
}

#[test]
fn index_ddl_and_dml_maintenance() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
    db.execute("CREATE INDEX ix_a ON t(a)").unwrap();
    assert_eq!(db.catalog().table("t").unwrap().index_names(), vec!["ix_a"]);
    // Duplicate name rejected, IF NOT EXISTS tolerated.
    assert!(db.execute("CREATE INDEX ix_a ON t(b)").is_err());
    db.execute("CREATE INDEX IF NOT EXISTS ix_a ON t(b)")
        .unwrap();

    for i in 0..50 {
        db.execute_with(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Integer(i % 7), Value::Text(format!("s{i}"))],
        )
        .unwrap();
    }
    assert_indexes_consistent(&db);
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE a = ?", &[Value::Integer(3)])
        .unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(7));

    db.execute("DELETE FROM t WHERE a = 3").unwrap();
    assert_indexes_consistent(&db);
    assert!(db
        .query("SELECT * FROM t WHERE a = 3", &[])
        .unwrap()
        .is_empty());

    db.execute("UPDATE t SET a = 3 WHERE a = 4").unwrap();
    assert_indexes_consistent(&db);
    let r = db.query("SELECT COUNT(*) FROM t WHERE a = 3", &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(7));
}

#[test]
fn indexes_survive_journal_replay() {
    use libseal_sealdb::PlainCodec;
    let path = plat::tmp::TempPath::new("sealdb-ixreplay", "db");
    {
        let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        db.execute("CREATE TABLE t(a INTEGER, b INTEGER)").unwrap();
        db.execute("CREATE INDEX ix_a ON t(a)").unwrap();
        for i in 0..40 {
            db.execute_with(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Integer(i % 5), Value::Integer(i)],
            )
            .unwrap();
        }
        db.execute("DELETE FROM t WHERE a = 1").unwrap();
    }
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(db.catalog().table("t").unwrap().index_names(), vec!["ix_a"]);
    assert_indexes_consistent(&db);
    let r = db
        .query("SELECT COUNT(*) FROM t WHERE a = ?", &[Value::Integer(2)])
        .unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(8));
}

#[test]
fn compaction_preserves_indexes() {
    use libseal_sealdb::PlainCodec;
    let path = plat::tmp::TempPath::new("sealdb-ixcompact", "db");
    {
        let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        db.execute("CREATE TABLE t(a INTEGER)").unwrap();
        db.execute("CREATE INDEX ix_a ON t(a)").unwrap();
        for i in 0..60 {
            db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(i % 4)])
                .unwrap();
        }
        db.execute("DELETE FROM t WHERE a = 0").unwrap();
        db.compact().unwrap();
        assert_indexes_consistent(&db);
    }
    let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
    assert_eq!(db.catalog().table("t").unwrap().index_names(), vec!["ix_a"]);
    assert_indexes_consistent(&db);
    let r = db.query("SELECT COUNT(*) FROM t WHERE a = 2", &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(15));
}

#[test]
fn planner_toggle_equivalence_on_git_workload() {
    let build = |planner: bool| {
        let mut db = git_db();
        db.set_planner_enabled(planner);
        db.execute("CREATE INDEX ix_u_repo ON updates(repo)")
            .unwrap();
        db.execute("CREATE INDEX ix_a_repo ON advertisements(repo)")
            .unwrap();
        for i in 0..30i64 {
            let repo = if i % 2 == 0 { "r1" } else { "r2" };
            push(&mut db, i, repo, "main", &format!("{i:040x}"), "update");
            advertise(&mut db, i, repo, "main", &format!("{i:040x}"));
        }
        db
    };
    let on = build(true);
    let off = build(false);
    for sql in [
        "SELECT * FROM updates WHERE repo = 'r1'",
        "SELECT u.time, a.time FROM updates u JOIN advertisements a ON u.repo = a.repo AND u.time = a.time",
        "SELECT repo, COUNT(*) FROM updates GROUP BY repo",
    ] {
        let a = on.query(sql, &[]).unwrap();
        let b = off.query(sql, &[]).unwrap();
        assert_eq!(a.columns, b.columns, "{sql}");
        assert_eq!(a.rows, b.rows, "{sql}");
    }
}
