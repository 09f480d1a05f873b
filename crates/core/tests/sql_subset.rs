//! The SQL LibSEAL issues is a closed grammar, checked by machine.
//!
//! sealdb parses only the statements LibSEAL runs (DESIGN.md, "The SQL
//! LibSEAL speaks"). This suite lists them — every SSM's schema,
//! invariants, deltas, rescans and trims through `ServiceModule`, the
//! audit log's and the checkpoint table's fixed statements, and one
//! rendering of each statement the log, the materialized views and
//! compaction compose — parses each, and walks the ASTs with exhaustive
//! matches over `Stmt`, `Expr`, `BinOp`, `JoinKind`, `SelectItem` and
//! `TableRef`: every variant must be reached. A variant added later
//! without a product use fails here. A disk-backed log per SSM is then
//! driven through append, seal, check, trim, snapshot frame and reopen, and
//! what its journal holds is walked too, so a composed statement the
//! list misses still fails. Last, an SSM whose SQL leaves the subset is
//! refused when its instance is built, before anything is served.

use std::collections::BTreeSet;
use std::sync::Arc;

use libseal::log::{AuditLog, LogBacking, NoGuard, SealingCodec, TableSpec};
use libseal::{
    Checker, DropboxModule, GitModule, Invariant, LibSeal, LibSealConfig, LibSealError,
    OwnCloudModule, ServiceModule,
};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::ast::{BinOp, Expr, JoinKind, Select, SelectItem, Stmt, TableRef};
use libseal_sealdb::journal::Journal;
use libseal_sealdb::value::Affinity;
use libseal_sealdb::{parser, DbError, Value};
use libseal_sgxsim::cost::CostModel;
use libseal_tlsx::cert::CertificateAuthority;
use plat::tmp::TempPath;

const SEAL_KEY: [u8; 32] = [7u8; 32];

/// The audit log's (`log.rs`) and the checkpoint table's
/// (`checkpoint.rs`) fixed statements, verbatim.
const FIXED: &[&str] = &[
    "CREATE TABLE IF NOT EXISTS _libseal_chain(
    seq INTEGER, tbl TEXT, pk TEXT, payload TEXT, hash BLOB)",
    "CREATE TABLE IF NOT EXISTS _libseal_meta(k TEXT, v TEXT)",
    "INSERT INTO _libseal_meta VALUES (?, ?)",
    "UPDATE _libseal_meta SET v = ? WHERE k = ?",
    "SELECT MAX(seq), COUNT(*) FROM _libseal_chain",
    "INSERT INTO _libseal_chain VALUES (?, ?, ?, ?, ?)",
    "DELETE FROM _libseal_chain",
    "CREATE TABLE IF NOT EXISTS _libseal_epochs(
    epoch INTEGER, shard INTEGER, seq INTEGER, clock INTEGER, head TEXT, sig TEXT)",
    "SELECT epoch, shard, seq, clock, head, sig FROM _libseal_epochs",
];

/// One rendering of each composed statement: the key-column index the
/// log declares, the row `INSERT` of an append and of a snapshot frame,
/// a materialized view's backing table and index, and the statements
/// the gated benchmark's sealdb stage runs.
const COMPOSED: &[&str] = &[
    "CREATE INDEX IF NOT EXISTS libseal_idx_updates_time ON updates(time)",
    "INSERT INTO \"updates\" VALUES (?, ?, ?, ?, ?)",
    "CREATE TABLE IF NOT EXISTS mv_git_completeness(time, repo)",
    "CREATE INDEX IF NOT EXISTS mvix_mv_git_completeness_part ON mv_git_completeness(time)",
    "CREATE TABLE t(k INTEGER, v TEXT)",
    "CREATE INDEX t_k ON t(k)",
    "INSERT INTO t VALUES (?, ?)",
    "SELECT v FROM t WHERE k = ?",
];

fn ssms() -> [&'static dyn ServiceModule; 3] {
    [&GitModule, &OwnCloudModule, &DropboxModule]
}

/// Every statement an SSM supplies.
fn ssm_statements(ssm: &dyn ServiceModule) -> Vec<&'static str> {
    let mut out = vec![ssm.schema_sql()];
    for inv in ssm.invariants() {
        out.push(inv.sql);
        if let Some(delta) = inv.delta {
            out.push(delta.delta_sql);
            out.extend(delta.sources.iter().filter_map(|s| s.rescan).map(|r| r.sql));
        }
    }
    out.extend(ssm.trim_queries());
    out
}

/// `visit!(walk, value, Pattern => "name" { body } ...)`: an exhaustive
/// match that records every arm's name in `walk.all` and the taken
/// arm's in `walk.reached`. A new AST variant needs a new arm (the match
/// is exhaustive), and its name then must be reached.
macro_rules! visit {
    ($walk:expr, $value:expr, $($pat:pat => $name:literal $body:block)*) => {{
        $walk.all.extend([$($name),*]);
        match $value {
            $($pat => {
                $walk.reached.insert($name);
                $body
            })*
        }
    }};
}

#[derive(Default)]
struct Walk {
    all: BTreeSet<&'static str>,
    reached: BTreeSet<&'static str>,
}

impl Walk {
    fn sql(&mut self, sql: &str) {
        let stmts = parser::parse(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
        assert!(!stmts.is_empty(), "no statement in {sql:?}");
        for (stmt, _) in &stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        visit!(self, stmt,
            Stmt::CreateTable { .. } => "Stmt::CreateTable" {}
            Stmt::CreateView { query, .. } => "Stmt::CreateView" { self.select(query) }
            Stmt::CreateIndex { .. } => "Stmt::CreateIndex" {}
            Stmt::Insert { values, .. } => "Stmt::Insert" { values.iter().for_each(|e| self.expr(e)) }
            Stmt::Delete { filter, .. } => "Stmt::Delete" { filter.iter().for_each(|e| self.expr(e)) }
            Stmt::Update { sets, filter, .. } => "Stmt::Update" {
                sets.iter().map(|(_, e)| e).chain(filter).for_each(|e| self.expr(e))
            }
            Stmt::Select(sel) => "Stmt::Select" { self.select(sel) }
        )
    }

    fn select(&mut self, sel: &Select) {
        for item in &sel.projections {
            visit!(self, item,
                SelectItem::Star => "SelectItem::Star" {}
                SelectItem::Expr { expr, .. } => "SelectItem::Expr" { self.expr(expr) }
            )
        }
        self.table(&sel.from.first);
        for join in &sel.from.joins {
            visit!(self, join.kind,
                JoinKind::Inner => "JoinKind::Inner" {}
                JoinKind::Natural => "JoinKind::Natural" {}
            );
            self.table(&join.table);
            join.on.iter().for_each(|e| self.expr(e));
        }
        let exprs = (sel.filter.iter().chain(&sel.group_by).chain(&sel.having))
            .chain(sel.order_by.iter().map(|o| &o.expr));
        exprs.for_each(|e| self.expr(e));
    }

    fn table(&mut self, table: &TableRef) {
        visit!(self, table,
            TableRef::Named { .. } => "TableRef::Named" {}
            TableRef::Subquery { query, .. } => "TableRef::Subquery" { self.select(query) }
        )
    }

    fn expr(&mut self, expr: &Expr) {
        visit!(self, expr,
            Expr::Literal(_) => "Expr::Literal" {}
            Expr::Param(_) => "Expr::Param" {}
            Expr::Column { .. } => "Expr::Column" {}
            Expr::Binary { op, left, right } => "Expr::Binary" {
                self.op(*op);
                self.expr(left);
                self.expr(right);
            }
            Expr::Function { arg, .. } => "Expr::Function" { arg.iter().for_each(|a| self.expr(a)) }
            Expr::InSubquery { expr, query, .. } => "Expr::InSubquery" {
                self.expr(expr);
                self.select(query);
            }
            Expr::Exists { query, .. } => "Expr::Exists" { self.select(query) }
            Expr::Subquery(query) => "Expr::Subquery" { self.select(query) }
        )
    }

    fn op(&mut self, op: BinOp) {
        visit!(self, op,
            BinOp::Eq => "BinOp::Eq" {}
            BinOp::Ne => "BinOp::Ne" {}
            BinOp::Lt => "BinOp::Lt" {}
            BinOp::Gt => "BinOp::Gt" {}
            BinOp::And => "BinOp::And" {}
            BinOp::Or => "BinOp::Or" {}
            BinOp::Add => "BinOp::Add" {}
        )
    }

    /// Every AST variant was reached (and every enum was visited at
    /// all, so none is missing from `all`).
    fn assert_complete(&self) {
        for kind in [
            "Stmt",
            "Expr",
            "BinOp",
            "JoinKind",
            "SelectItem",
            "TableRef",
        ] {
            let prefix = format!("{kind}::");
            assert!(
                self.all.iter().any(|n| n.starts_with(&prefix)),
                "{kind} never visited"
            );
        }
        let missed: Vec<_> = self.all.difference(&self.reached).collect();
        assert!(
            missed.is_empty(),
            "AST variants no LibSEAL statement reaches: {missed:?}"
        );
    }
}

#[test]
fn every_ast_variant_is_reached_by_a_libseal_statement() {
    let mut walk = Walk::default();
    for ssm in ssms() {
        ssm_statements(ssm)
            .into_iter()
            .for_each(|sql| walk.sql(sql));
    }
    FIXED.iter().chain(COMPOSED).for_each(|sql| walk.sql(sql));
    walk.assert_complete();
}

/// Appends `n` rows to each of `ssm`'s audited tables.
fn append_rows(ssm: &dyn ServiceModule, log: &mut AuditLog, n: i64) {
    for spec in ssm.tables() {
        let table = log
            .db_mut()
            .catalog()
            .table(spec.name)
            .expect("audited table");
        let affinities: Vec<Affinity> = table.columns.iter().map(|c| c.affinity).collect();
        for i in 0..n {
            // Every audited table leads with its logical time.
            let mut row = vec![Value::Integer(log.next_time() as i64)];
            row.extend(affinities[1..].iter().map(|a| match a {
                Affinity::Integer => Value::Integer(i),
                _ => Value::Text(format!("v{i}")),
            }));
            log.append(spec.name, &row).expect("append");
        }
    }
}

/// Drives a disk-backed log of `ssm` through append, check, trim (a
/// snapshot frame), reopen (a replay), more appends and a verify, and
/// returns the SQL of every record its journal holds.
fn drive(ssm: &dyn ServiceModule) -> Vec<String> {
    let path = TempPath::new(&format!("sql-subset-{}", ssm.name()), "log");
    let open = || {
        let backing = LogBacking::Disk(path.to_path_buf());
        let signer = SigningKey::from_seed(&[1u8; 32]);
        let mut log = AuditLog::open(
            backing,
            SEAL_KEY,
            signer,
            Box::new(NoGuard),
            ssm.schema_sql(),
            ssm.tables(),
        )
        .expect("open");
        Checker::install(ssm, &mut log).expect("install");
        log
    };
    let mut log = open();
    append_rows(ssm, &mut log, 3);
    Checker::run_checks_incremental(ssm, &mut log).expect("incremental check");
    Checker::run_checks(ssm, &log).expect("full check");
    log.trim(ssm.trim_queries()).expect("trim");
    log.commit().expect("commit");
    drop(log);
    let mut log = open();
    append_rows(ssm, &mut log, 2);
    log.commit().expect("commit");
    Checker::run_checks_incremental(ssm, &mut log).expect("check after reopen");
    log.verify().expect("verify");
    log.flush().expect("flush");
    drop(log);
    let mut journal = Journal::open(&path, Box::new(SealingCodec::new(SEAL_KEY))).expect("journal");
    journal
        .replay()
        .expect("replay")
        .into_iter()
        .map(|e| e.sql)
        .collect()
}

#[test]
fn every_statement_a_log_journals_is_in_the_subset() {
    for ssm in ssms() {
        let journaled = drive(ssm);
        let mut walk = Walk::default();
        journaled.iter().for_each(|sql| walk.sql(sql));
        // The trim's snapshot and what ran after it: DDL, row inserts
        // into the audited tables and the chain, the meta updates.
        for shape in [
            "Stmt::CreateTable",
            "Stmt::CreateIndex",
            "Stmt::Insert",
            "Stmt::Update",
        ] {
            assert!(
                walk.reached.contains(shape),
                "{}: no {shape} journaled",
                ssm.name()
            );
        }
    }
}

/// The toy SSM of the refusal test: one table, no invariants, and
/// `trim` as its one trimming query.
struct TrimSsm(&'static [&'static str]);

impl ServiceModule for TrimSsm {
    fn name(&self) -> &'static str {
        "trim"
    }

    fn schema_sql(&self) -> &'static str {
        "CREATE TABLE events(time INTEGER, v TEXT)"
    }

    fn tables(&self) -> Vec<TableSpec> {
        vec![TableSpec {
            name: "events",
            key_cols: &["time"],
        }]
    }

    fn invariants(&self) -> &'static [Invariant] {
        &[]
    }

    fn trim_queries(&self) -> &'static [&'static str] {
        self.0
    }

    fn log_pair(&self, _req: &[u8], _rsp: &[u8], _log: &mut AuditLog) -> libseal::Result<usize> {
        panic!("an instance with out-of-subset SQL must never serve a request")
    }
}

fn build(ssm: TrimSsm) -> libseal::Result<Arc<LibSeal>> {
    let ca = CertificateAuthority::new("CA", &[1u8; 32]);
    let (key, cert) = ca.issue_identity("svc.test", &[2u8; 32]).unwrap();
    let config = LibSealConfig::builder(cert, key)
        .ssm(Arc::new(ssm))
        .backing(LogBacking::Memory)
        .cost_model(CostModel::free())
        .build();
    LibSeal::new(config)
}

/// A trim outside the subset used to be parsed at the first trim, by
/// the verifier of a service already serving. It is refused when the
/// instance is built: `LibSeal::new` fails, so no session is opened and
/// no request served.
#[test]
fn out_of_subset_ssm_sql_is_refused_at_install() {
    match build(TrimSsm(&["DELETE FROM events WHERE v LIKE 'old%'"])) {
        Err(LibSealError::Db(DbError::Parse(m))) => assert!(m.contains("LIKE"), "{m}"),
        Err(e) => panic!("expected a parse error, got {e}"),
        Ok(_) => panic!("an instance with a LIKE trim was built"),
    }
    // The same SSM with its trim inside the subset builds.
    build(TrimSsm(&["DELETE FROM events WHERE time < 3"])).expect("in-subset trim");
}
