//! Edge-case coverage for the SQL engine: the behaviours the paper's
//! queries rely on indirectly, plus classic NULL/aggregation corners.

use libseal_sealdb::{Database, DbError, Value};

fn db_with(sql: &str) -> Database {
    let mut db = Database::new();
    db.execute(sql).unwrap();
    db
}

/// Runs one `INSERT INTO table VALUES (row)` per row.
fn insert(db: &mut Database, table: &str, rows: &[&str]) {
    for row in rows {
        db.execute(&format!("INSERT INTO {table} VALUES ({row})"))
            .unwrap();
    }
}

#[test]
fn natural_join_multiple_shared_columns() {
    let mut db = db_with(
        "CREATE TABLE a(x INTEGER, y INTEGER, p TEXT);
         CREATE TABLE b(x INTEGER, y INTEGER, q TEXT);",
    );
    insert(&mut db, "a", &["1, 1, 'p11'", "1, 2, 'p12'", "2, 1, 'p21'"]);
    insert(&mut db, "b", &["1, 1, 'q11'", "2, 1, 'q21'", "3, 3, 'q33'"]);
    let r = db
        .query("SELECT x, y, p, q FROM a NATURAL JOIN b ORDER BY x", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][2], Value::Text("p11".into()));
    assert_eq!(r.rows[0][3], Value::Text("q11".into()));
    assert_eq!(r.rows[1][2], Value::Text("p21".into()));
}

#[test]
fn natural_join_without_shared_columns_is_cross() {
    let mut db = db_with("CREATE TABLE a(x INTEGER); CREATE TABLE b(y INTEGER);");
    insert(&mut db, "a", &["1", "2"]);
    insert(&mut db, "b", &["10", "20"]);
    let r = db.query("SELECT x, y FROM a NATURAL JOIN b", &[]).unwrap();
    assert_eq!(r.rows.len(), 4);
}

#[test]
fn order_by_column_not_in_projection() {
    let mut db = db_with("CREATE TABLE t(a INTEGER, b INTEGER);");
    insert(&mut db, "t", &["1, 3", "2, 1", "3, 2"]);
    let r = db.query("SELECT a FROM t ORDER BY b", &[]).unwrap();
    let got: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
    assert_eq!(
        got,
        vec![&Value::Integer(2), &Value::Integer(3), &Value::Integer(1)]
    );
}

#[test]
fn group_by_expression() {
    let mut db = db_with("CREATE TABLE t(v INTEGER);");
    insert(&mut db, "t", &["1", "2", "3", "4", "5"]);
    let r = db
        .query(
            "SELECT v > 2, COUNT(*) FROM t GROUP BY v > 2 ORDER BY v > 2",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][1], Value::Integer(2)); // 1, 2
    assert_eq!(r.rows[1][1], Value::Integer(3)); // 3, 4, 5
}

#[test]
fn aggregates_over_empty_table() {
    let db = db_with("CREATE TABLE t(v INTEGER);");
    let r = db
        .query("SELECT COUNT(*), COUNT(v), MAX(v) FROM t", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Integer(0));
    assert_eq!(r.rows[0][1], Value::Integer(0));
    assert_eq!(r.rows[0][2], Value::Null);
}

#[test]
fn having_without_group_by() {
    let mut db = db_with("CREATE TABLE t(v INTEGER);");
    insert(&mut db, "t", &["1", "2"]);
    let r = db
        .query("SELECT MAX(v) FROM t HAVING COUNT(v) > 1", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = db
        .query("SELECT MAX(v) FROM t HAVING COUNT(v) > 5", &[])
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn scalar_subquery_empty_is_null() {
    let mut db = db_with("CREATE TABLE t(v INTEGER); CREATE TABLE u(w INTEGER);");
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let r = db.query("SELECT (SELECT w FROM u) FROM t", &[]).unwrap();
    assert!(r.scalar().unwrap().is_null());
}

/// `x [NOT] IN (subquery)` for a NULL and a non-NULL needle against an
/// empty and a non-empty set, as SQLite answers them: an empty set
/// decides the result before the needle's NULL is looked at (`SELECT
/// NULL IN (SELECT 1 WHERE 0), NULL NOT IN (SELECT 1 WHERE 0)` is
/// `0|1`). Git's trimming query is a `NOT IN`.
#[test]
fn in_subquery_with_null_needle_or_empty_set() {
    let mut db =
        db_with("CREATE TABLE t(v INTEGER); CREATE TABLE e(w INTEGER); CREATE TABLE s(w INTEGER);");
    insert(&mut db, "t", &["0"]);
    insert(&mut db, "s", &["1"]);
    let sql = "SELECT ?1 IN (SELECT w FROM e), ?1 NOT IN (SELECT w FROM e),
                      ?1 IN (SELECT w FROM s), ?1 NOT IN (SELECT w FROM s) FROM t";
    let (no, yes) = (Value::Integer(0), Value::Integer(1));
    for (needle, want) in [
        (Value::Null, [&no, &yes, &Value::Null, &Value::Null]),
        (Value::Integer(1), [&no, &yes, &yes, &no]),
    ] {
        let r = db.query(sql, std::slice::from_ref(&needle)).unwrap();
        let got: Vec<&Value> = r.rows[0].iter().collect();
        assert_eq!(got, want, "needle {needle:?}");
    }
    // The same holds where it is a filter, with and without the planner.
    for planner in [true, false] {
        db.set_planner_enabled(planner);
        let count = |sql: &str| db.query(sql, &[Value::Null]).unwrap().rows.len();
        assert_eq!(
            count("SELECT v FROM t WHERE ?1 NOT IN (SELECT w FROM e)"),
            1
        );
        assert_eq!(count("SELECT v FROM t WHERE ?1 IN (SELECT w FROM e)"), 0);
        assert_eq!(
            count("SELECT v FROM t WHERE ?1 NOT IN (SELECT w FROM s)"),
            0
        );
    }
}

#[test]
fn nested_correlated_subqueries() {
    // Two levels of correlation, as in the paper's branchcnt view.
    let mut db = db_with("CREATE TABLE ev(t INTEGER, k TEXT, v INTEGER);");
    for (t, k, v) in [
        (1, "a", 10),
        (2, "a", 20),
        (3, "b", 5),
        (4, "a", 30),
        (5, "b", 7),
    ] {
        db.execute_with(
            "INSERT INTO ev VALUES (?, ?, ?)",
            &[Value::Integer(t), Value::Text(k.into()), Value::Integer(v)],
        )
        .unwrap();
    }
    // For each row: is it the latest event of its key?
    let r = db
        .query(
            "SELECT t FROM ev e WHERE e.t = (SELECT MAX(t) FROM ev WHERE k = e.k) ORDER BY t",
            &[],
        )
        .unwrap();
    let got: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
    assert_eq!(got, vec![&Value::Integer(4), &Value::Integer(5)]);
}

#[test]
fn update_with_correlated_subquery_filter() {
    let mut db = db_with("CREATE TABLE t(id INTEGER, v INTEGER); CREATE TABLE m(id INTEGER);");
    insert(&mut db, "t", &["1, 0", "2, 0", "3, 0"]);
    insert(&mut db, "m", &["1", "3"]);
    let r = db
        .execute("UPDATE t SET v = 9 WHERE id IN (SELECT id FROM m)")
        .unwrap();
    assert_eq!(r.rows_affected, 2);
    let r = db.query("SELECT COUNT(*) FROM t WHERE v = 9", &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(2));
}

#[test]
fn delete_everything_and_reuse() {
    let mut db = db_with("CREATE TABLE t(v INTEGER);");
    insert(&mut db, "t", &["1", "2"]);
    assert_eq!(db.execute("DELETE FROM t").unwrap().rows_affected, 2);
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    let r = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(1));
}

#[test]
fn text_never_equals_an_integer_literal() {
    let mut db = db_with("CREATE TABLE t(s TEXT, n INTEGER);");
    db.execute("INSERT INTO t VALUES ('abc', 5)").unwrap();
    // TEXT vs INTEGER never compare equal (distinct type classes).
    let r = db.query("SELECT COUNT(*) FROM t WHERE s = 5", &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(0));
}

#[test]
fn limit_zero_and_beyond_end() {
    let mut db = db_with("CREATE TABLE t(v INTEGER);");
    insert(&mut db, "t", &["1", "2", "3"]);
    assert!(db
        .query("SELECT v FROM t LIMIT 0", &[])
        .unwrap()
        .rows
        .is_empty());
    assert_eq!(
        db.query("SELECT v FROM t LIMIT 5", &[]).unwrap().rows.len(),
        3
    );
    let r = db
        .query("SELECT v FROM t ORDER BY v DESC LIMIT 2", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Integer(3));
}

#[test]
fn distinct_with_nulls() {
    let mut db = db_with("CREATE TABLE t(v INTEGER);");
    for v in [Value::Null, Value::Null, Value::Integer(1)] {
        db.execute_with("INSERT INTO t VALUES (?)", &[v]).unwrap();
    }
    let r = db.query("SELECT DISTINCT v FROM t", &[]).unwrap();
    assert_eq!(r.rows.len(), 2, "NULLs group together under DISTINCT");
}

#[test]
fn quoted_identifiers_roundtrip() {
    let mut db = Database::new();
    db.execute(r#"CREATE TABLE "my table"("a col" INTEGER)"#)
        .unwrap();
    db.execute(r#"INSERT INTO "my table" VALUES (7)"#).unwrap();
    let r = db.query(r#"SELECT "a col" FROM "my table""#, &[]).unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(7));
}

#[test]
fn view_columns_usable_in_predicates() {
    let mut db = db_with("CREATE TABLE t(g TEXT, v INTEGER);");
    insert(&mut db, "t", &["'a', 1", "'a', 2", "'b', 5"]);
    db.execute("CREATE VIEW tops AS SELECT g, MAX(v) AS top FROM t GROUP BY g")
        .unwrap();
    let r = db
        .query("SELECT g FROM tops WHERE top > 1 ORDER BY g", &[])
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = db.query("SELECT g FROM tops WHERE top > 2", &[]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Text("b".into())]]);
}

#[test]
fn self_join_with_aliases() {
    let mut db = db_with("CREATE TABLE t(id INTEGER, parent INTEGER);");
    insert(&mut db, "t", &["1, 0", "2, 1", "3, 1", "4, 2"]);
    let r = db
        .query(
            "SELECT child.id, parent.id FROM t child JOIN t parent
             ON child.parent = parent.id ORDER BY child.id",
            &[],
        )
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[2][0], Value::Integer(4));
    assert_eq!(r.rows[2][1], Value::Integer(2));
}

#[test]
fn exists_short_circuits_with_limit() {
    let mut db = db_with("CREATE TABLE t(v INTEGER);");
    for i in 0..50 {
        db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(i)])
            .unwrap();
    }
    let r = db
        .query(
            "SELECT COUNT(*) FROM t a WHERE EXISTS
               (SELECT 1 FROM t b WHERE b.v = a.v + 1 LIMIT 1)",
            &[],
        )
        .unwrap();
    assert_eq!(r.scalar().unwrap(), &Value::Integer(49));
}

/// Every construct outside the subset LibSEAL issues fails in the
/// parser, before anything executes, and the error quotes where.
#[test]
fn out_of_subset_sql_is_a_parse_error() {
    let mut db = db_with("CREATE TABLE t(a INTEGER, b TEXT); CREATE TABLE u(a INTEGER);");
    for (sql, quoted) in [
        ("SELECT a FROM t WHERE b LIKE 'x%'", "near \"LIKE 'x%'\""),
        ("SELECT a FROM t WHERE b NOT LIKE 'x%'", "LIKE"),
        ("SELECT a FROM t WHERE a BETWEEN 1 AND 5", "BETWEEN"),
        ("SELECT CASE WHEN a > 1 THEN 'big' END FROM t", "CASE"),
        ("SELECT t.a FROM t LEFT JOIN u ON t.a = u.a", "LEFT"),
        ("SELECT t.a FROM t INNER JOIN u ON t.a = u.a", "INNER"),
        ("SELECT t.a FROM t CROSS JOIN u", "CROSS"),
        ("SELECT t.a FROM t, u", ", u"),
        ("SELECT t.a FROM t JOIN u", "expected ON at the end"),
        ("DROP TABLE t", "DROP"),
        ("DROP INDEX ix", "DROP"),
        ("SELECT a FROM t WHERE a IN (1, 2)", "1, 2"),
        ("SELECT a FROM t WHERE a IS NULL", "IS NULL"),
        ("SELECT a FROM t WHERE b = NULL", "NULL"),
        ("SELECT a FROM t LIMIT 1 OFFSET 2", "OFFSET"),
        ("SELECT a FROM t LIMIT 1, 2", ", 2"),
        ("SELECT a FROM t LIMIT ?", "?"),
        ("SELECT t.* FROM t", "*"),
        ("SELECT a * 2 FROM t", "* 2"),
        ("SELECT a / 2 FROM t", "'/'"),
        ("SELECT a % 2 FROM t", "'%'"),
        ("SELECT a - 1 FROM t", "- 1"),
        ("SELECT -a FROM t", "-a"),
        ("SELECT a FROM t WHERE a <= 1", "<="),
        ("SELECT a FROM t WHERE a >= 1", ">="),
        ("SELECT a FROM t WHERE a <> 1", "<>"),
        ("SELECT a FROM t WHERE a == 1", "=="),
        ("SELECT a FROM t WHERE NOT a = 1", "a = 1"),
        ("SELECT ABS(a) FROM t", "ABS"),
        ("SELECT LENGTH(b) FROM t", "LENGTH"),
        ("SELECT SUM(a) FROM t", "SUM"),
        ("SELECT MIN(a) FROM t", "MIN"),
        ("SELECT AVG(a) FROM t", "AVG"),
        ("SELECT COUNT(DISTINCT a) FROM t", "DISTINCT"),
        ("SELECT MAX(*) FROM t", "*"),
        ("SELECT ALL a FROM t", "ALL"),
        ("SELECT a FROM t ORDER BY a ASC", "ASC"),
        ("SELECT a FROM t ORDER BY 1", "ORDER BY"),
        ("SELECT 1", "expected FROM"),
        ("CREATE TABLE v(a INTEGER PRIMARY KEY)", "PRIMARY"),
        ("CREATE TABLE v(a VARCHAR(8))", "(8)"),
        ("CREATE TABLE v(a TEXT NOT NULL)", "NOT NULL"),
        (
            "CREATE VIEW IF NOT EXISTS w AS SELECT a FROM t",
            "NOT EXISTS",
        ),
        ("INSERT INTO t(a, b) VALUES (1, 'x')", "(a, b)"),
        ("INSERT INTO t VALUES (1, 'x'), (2, 'y')", ", (2"),
        ("INSERT INTO t VALUES (2.5, 'x')", "2.5"),
        ("INSERT INTO t VALUES (1e3, 'x')", "1e3"),
        ("INSERT INTO t VALUES (1, x'00')", "'00'"),
        ("SELECT a FROM t -- comment", "- comment"),
        ("SELECT a FROM t /* comment */", "'/'"),
        ("SELECT `a` FROM t", "'`'"),
        ("SELECT [a] FROM t", "'['"),
        ("SELECT a FROM t UNION SELECT a FROM u", "UNION"),
        ("SELECT a || b FROM t", "|| b"),
    ] {
        match db.execute(sql) {
            Err(DbError::Parse(m)) => assert!(m.contains(quoted), "{sql}: {m}"),
            other => panic!("{sql}: expected a parse error, got {other:?}"),
        }
    }
    // Nothing ran: no table was created or dropped, no row written.
    assert_eq!(db.catalog().tables_sorted().len(), 2);
    assert!(db.query("SELECT a FROM t", &[]).unwrap().is_empty());
}
