//! What a restart replays is what ran (deterministic `plat::check`
//! harness).
//!
//! sealdb keeps one textual form of a statement — the source text the
//! parser accepted — in the journal and, for DDL, in the catalog that a
//! snapshot frame dumps. So four databases must be indistinguishable:
//! the *live* one, one *reopened from its journal*, one *reopened after
//! a snapshot frame* and one *reopened after reclamation* dropped
//! everything before that frame. Each case runs a random script against a disk-backed
//! database through both entry points (`execute_with` with bound
//! parameters; `execute` with literals, several statements a string
//! and stray `;`) and compares table rows in order, index
//! names and consistency, and every view's rows. It also reads the
//! journal back and checks that every record's SQL is byte-for-byte a
//! slice of a string the script passed in, or one of a snapshot's row
//! `INSERT`s: nothing on disk was regenerated from an AST. Last, a
//! thousand trims keep the journal under its reclamation bound.

use std::fmt::Write;

use libseal_sealdb::journal::{self, Journal};
use libseal_sealdb::{quote_ident, Database, PlainCodec, Value};
use plat::check::Gen;
use plat::tmp::TempPath;

mod common;
use common::{build_schema, random_dml, Sink, TYPES};

fn open(path: &TempPath) -> Database {
    Database::open(path, Box::new(PlainCodec)).unwrap_or_else(|e| panic!("reopen: {e}"))
}

const VIEWS: [&str; 3] = ["v0", "v1", "\"v 2\""];

/// Everything a reader can tell about `db`. Values are compared by
/// their `Debug` form: `Value`'s `==` is SQL's (2 = 2.0, NaN = 1).
fn observe(db: &Database) -> String {
    let mut out = String::new();
    for t in db.catalog().tables_sorted() {
        assert!(t.indexes_consistent(), "indexes on {}", t.name);
        writeln!(out, "{} {:?} {:?}", t.name, t.index_names(), t.rows).unwrap();
    }
    for v in VIEWS {
        let rows = db.query(&format!("SELECT * FROM {v}"), &[]);
        let rows = rows.map(|r| (r.columns, r.rows)).map_err(|e| e.to_string());
        writeln!(out, "{v}: {rows:?}").unwrap();
    }
    out
}

/// A disk-backed database and every string handed to it.
struct Script {
    db: Database,
    passed: Vec<String>,
}

impl Sink for Script {
    fn exec(&mut self, sql: &str, params: &[Value]) {
        self.db.execute_with(sql, params).unwrap();
        self.passed.push(sql.to_string());
    }
}

impl Script {
    fn new(path: &TempPath) -> Script {
        Script {
            db: open(path),
            passed: Vec::new(),
        }
    }

    /// Runs a `;`-separated script without parameters.
    fn run(&mut self, sql: &str) {
        self.db
            .execute(sql)
            .unwrap_or_else(|e| panic!("{e}: {sql}"));
        self.passed.push(sql.to_string());
    }

    /// Every journaled statement is a slice of what was passed in, or
    /// the row `INSERT` a snapshot frame composes for a table.
    fn journal_holds_source_text(&self, path: &TempPath) {
        let tables = self.db.catalog().tables_sorted();
        let inserts: Vec<String> = (tables.iter())
            .map(|t| {
                let marks = vec!["?"; t.columns.len()].join(", ");
                format!("INSERT INTO {} VALUES ({marks})", quote_ident(&t.name))
            })
            .collect();
        let mut journal = Journal::open(path, Box::new(PlainCodec), journal::DEFAULT_TAG).unwrap();
        for e in journal.replay().unwrap() {
            assert!(
                self.passed.iter().any(|p| p.contains(&e.sql)) || inserts.contains(&e.sql),
                "journaled text nobody passed: {}",
                e.sql
            );
        }
    }

    /// live ≡ reopened from journal ≡ reopened after a snapshot frame
    /// ≡ reopened after reclamation.
    fn reopens_to_the_same(&mut self, path: &TempPath) {
        let live = observe(&self.db);
        self.db.sync_journal().unwrap();
        assert_eq!(observe(&open(path)), live, "reopened from journal");
        self.journal_holds_source_text(path);
        self.db.write_snapshot().unwrap();
        self.db.sync_journal().unwrap();
        assert_eq!(observe(&self.db), live, "the snapshot changed the live db");
        assert_eq!(
            observe(&open(path)),
            live,
            "reopened after a snapshot frame"
        );
        self.journal_holds_source_text(path);
        self.db.reclaim().unwrap();
        assert_eq!(observe(&open(path)), live, "reopened after reclamation");
        self.journal_holds_source_text(path);
    }
}

/// A literal in source form: what only `execute` can journal.
fn literal(g: &mut Gen) -> String {
    match g.below(7) {
        0 => "'it''s'".into(),
        1 => "''".into(),
        2 => format!("'{}'", g.pick(&["x", "y", "z; -- not a comment"])),
        3 => format!("-{}", g.i64_in(1..5)),
        4 => i64::MAX.to_string(),
        _ => g.i64_in(0..5).to_string(),
    }
}

/// One statement for `execute`: DML with literals, and the DDL the
/// shared generators do not issue (indexes with quoted names).
fn statement(g: &mut Gen) -> String {
    let t = *g.pick(&["t0", "T1", "\"odd \"\"t\""]);
    let (c, d) = (g.index(3), g.index(3));
    match g.below(6) {
        0..=2 => format!(
            "INSERT INTO {t} VALUES ({}, {}, {})",
            literal(g),
            literal(g),
            literal(g)
        ),
        3 => format!(
            "UPDATE {t} SET c{c} = {} WHERE c{d} != {}",
            literal(g),
            literal(g)
        ),
        4 => format!("DELETE FROM {t} WHERE c{c} = {}", literal(g)),
        _ => format!("CREATE INDEX IF NOT EXISTS \"ix {c}\" ON {t}(c{c})"),
    }
}

/// A view over a random table, once per name: a view is never
/// replaced.
fn view(g: &mut Gen, name: &str) -> String {
    let t = *g.pick(&["t0", "T1", "\"odd \"\"t\""]);
    let (c, d) = (g.index(3), g.index(3));
    format!(
        "CREATE VIEW {name} AS SELECT c{c} AS k, COUNT(*) n, MAX(c{d}) \
         FROM {t} a WHERE c{d} != {} AND c{c} NOT IN (SELECT c{d} FROM {t} WHERE c{c} = {}) \
         GROUP BY c{c} HAVING COUNT(*) > 0 ORDER BY c{c} DESC LIMIT 20",
        literal(g),
        literal(g)
    )
}

/// One to three statements glued the ways callers glue them.
fn script(g: &mut Gen) -> String {
    let mut sql = String::from(*g.pick(&["", "  ", "\n", ";"]));
    for _ in 0..g.usize_in(1..4) {
        sql += &statement(g);
        sql += *g.pick(&[";", ";\n", " ;\t", ";;", "\n ;"]);
    }
    if g.bool() {
        sql += &statement(g); // no trailing `;`
    }
    sql
}

plat::prop! {
    #![cases(200)]

    fn live_equals_replayed_equals_compacted(g) {
        let path = TempPath::new("sealdb-replay-equiv", "db");
        let mut s = Script::new(&path);
        // A table name with a doubled quote, which compaction's row
        // INSERT must quote back, and quoted and untyped columns.
        s.run(&format!("CREATE TABLE \"odd \"\"t\"(c0, \"c1\" {}, c2)", *g.pick(&TYPES)));
        build_schema(g, &mut s);
        for v in VIEWS {
            if g.bool() {
                s.run(&view(g, v));
            }
        }
        for _ in 0..g.usize_in(4..12) {
            if g.bool() {
                random_dml(g, &mut s);
            } else {
                s.run(&script(g));
            }
        }
        s.reopens_to_the_same(&path);
    }
}

/// Lets `run` fill a fresh database, then checks the reopened and the
/// compacted-and-reopened database against the live one.
fn survives_restart(name: &str, run: impl FnOnce(&mut Script)) {
    let path = TempPath::new(name, "db");
    let mut s = Script::new(&path);
    run(&mut s);
    assert!(observe(&s.db).contains("Integer(7)"), "{}", observe(&s.db));
    s.reopens_to_the_same(&path);
}

// Each of these left a journal that could not be reopened while
// `execute` journaled a re-rendering of the AST and `compact()`
// formatted DDL from catalog fields.

#[test]
fn quoted_identifiers_survive_compaction() {
    // `execute_with` always journaled the caller's text, so these
    // replayed; the snapshot was `CREATE TABLE my table(a b INTEGER, …`.
    survives_restart("sealdb-replay-quoted", |s| {
        for sql in [
            r#"CREATE TABLE "my table"("a b" INTEGER, "select" TEXT)"#,
            r#"CREATE INDEX "my index" ON "my table"("a b")"#,
            r#"CREATE VIEW "v 2" AS SELECT "a b" + 1 AS "x y" FROM "my table" AS "m t""#,
            r#"INSERT INTO "my table" VALUES (7, 'x')"#,
        ] {
            s.exec(sql, &[]);
        }
    });
}

/// A trim as the audit log stages one: deletions applied but not
/// journaled, an insert journaled behind them, then one snapshot frame.
/// A thousand of them, each synced and reclaimed when due, keep the
/// journal's dead bytes under `RECLAIM_BYTES` — the file never passes
/// the bound by more than one live suffix — and the journal reopens to
/// the live database every time it was reclaimed.
#[test]
fn a_thousand_trims_stay_under_the_reclamation_bound() {
    use libseal_sealdb::journal::RECLAIM_BYTES;
    let path = TempPath::new("sealdb-replay-trims", "db");
    let mut db = open(&path);
    db.execute("CREATE TABLE t(k INTEGER, v TEXT)").unwrap();
    db.execute("CREATE INDEX t_k ON t(k)").unwrap();
    let row = |k: i64| [Value::Integer(k), Value::Text(format!("{k:0>96}"))];
    for k in 0..40 {
        db.execute_with("INSERT INTO t VALUES (?, ?)", &row(k))
            .unwrap();
    }
    let (mut largest, mut reclaimed) = (0, 0);
    for k in 40..1040 {
        db.defer_to_snapshot();
        db.execute_with("DELETE FROM t WHERE k = ?", &[Value::Integer(k - 40)])
            .unwrap();
        db.resume_journal();
        db.execute_with("INSERT INTO t VALUES (?, ?)", &row(k))
            .unwrap();
        db.write_snapshot().unwrap();
        db.sync_journal().unwrap();
        largest = largest.max(db.journal_size_bytes());
        if db.reclaim_due() {
            db.reclaim().unwrap();
            reclaimed += 1;
            assert_eq!(observe(&open(&path)), observe(&db), "trim {k}");
        }
    }
    assert!(reclaimed >= 3, "{reclaimed} reclamations");
    assert!(largest < RECLAIM_BYTES + 64 * 1024, "{largest} bytes");
    assert_eq!(observe(&open(&path)), observe(&db));
}
