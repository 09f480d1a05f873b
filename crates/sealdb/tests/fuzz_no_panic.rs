//! Malformed-input fuzzing: arbitrary byte strings fed through the
//! full parse/plan/execute pipeline must return typed `DbError`s,
//! never panic. A panic inside the audit enclave is an availability
//! violation the log cannot record, so the engine's error discipline
//! is itself part of the integrity story.

use libseal_sealdb::{Database, Value};
use plat::check::Gen;

/// Mutation seeds: corrupting real SQL reaches much deeper into the
/// parser/executor than pure noise. The first five are in the subset
/// LibSEAL issues; the rest use constructs the parser refuses, so their
/// mutations probe the refusal paths.
const TEMPLATES: &[&str] = &[
    "SELECT a, b FROM t WHERE a > 1 ORDER BY b LIMIT 3",
    "SELECT COUNT(*), MAX(a) FROM t GROUP BY b HAVING COUNT(*) > 1",
    "SELECT * FROM t x JOIN t y ON x.a = y.a WHERE NOT EXISTS (SELECT 1 FROM t z WHERE z.a = x.a + 1)",
    "SELECT DISTINCT a FROM t NATURAL JOIN (SELECT a, b FROM t) s WHERE a NOT IN (SELECT a FROM t WHERE b = ?1)",
    "UPDATE t SET b = ?2 WHERE a = -1 OR a < (SELECT MAX(a) FROM t z WHERE z.b = t.b)",
    "INSERT INTO t(a, b) VALUES (1, 'x''y'), (2, x'0aff')",
    "UPDATE t SET b = b || 'suffix' WHERE a BETWEEN 1 AND 5",
    "DELETE FROM t WHERE b LIKE 'x%' OR a IN (1, 2, 3)",
    "CREATE TABLE u(a INTEGER PRIMARY KEY, b TEXT)",
    "CREATE INDEX idx_u ON u(b)",
    "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t",
    "SELECT 1.5e3 + 2 * -4 % 3, 'é', ?1 FROM t",
];

fn fixture() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 'x'); INSERT INTO t VALUES (2, 'y'); INSERT INTO t VALUES (3, 'é')")
        .unwrap();
    db
}

/// One arbitrary SQL-ish input: raw bytes, printable noise, or a
/// corrupted valid statement.
fn arbitrary_sql(g: &mut Gen) -> String {
    match g.usize_in(0..3) {
        0 => String::from_utf8_lossy(&g.bytes(0..64)).into_owned(),
        1 => g.printable_ascii(0..64),
        _ => {
            let mut s = TEMPLATES[g.usize_in(0..TEMPLATES.len())].to_string();
            for _ in 0..g.usize_in(1..4) {
                if s.is_empty() {
                    break;
                }
                // Splice noise at a char boundary.
                let mut at = g.usize_in(0..s.len() + 1);
                while !s.is_char_boundary(at) {
                    at -= 1;
                }
                let noise = String::from_utf8_lossy(&g.bytes(0..6)).into_owned();
                let del = g.usize_in(0..8);
                let mut end = (at + del).min(s.len());
                while !s.is_char_boundary(end) {
                    end += 1;
                }
                s.replace_range(at..end, &noise);
            }
            s
        }
    }
}

plat::prop! {
    #![cases(2000)]

    fn arbitrary_input_never_panics_the_engine(g) {
        let mut db = fixture();
        let sql = arbitrary_sql(g);
        // Read-only path: must return Ok or a typed error, never panic.
        let _ = db.query(&sql, &[]);
        let _ = db.query(&sql, &[Value::Integer(7), Value::Text("p".into())]);
        // Mutating path (parser + executor + DDL).
        let _ = db.execute(&sql);
        let _ = db.execute_with(&sql, &[Value::Null]);
        // The database must still be usable afterwards.
        db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
    }
}
