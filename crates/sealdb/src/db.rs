//! The `Database` facade: parse, plan-free execute, journal, recover.

use std::borrow::Cow;

use crate::ast::{Expr, Stmt};
use crate::catalog::Catalog;
use crate::exec::{exec_select, Ctx, Rows};
use crate::journal::{Journal, JournalCodec, JournalSync, SalvageInfo};
use crate::parser;
use crate::token::quote_ident;
use crate::value::Value;
use crate::view::{MatView, MatViewSpec};
use crate::{DbError, Result};

/// Process-wide database metrics.
struct DbMetrics {
    query_ns: libseal_telemetry::Histogram,
    statements: libseal_telemetry::Counter,
    compactions: libseal_telemetry::Counter,
}

fn db_metrics() -> &'static DbMetrics {
    static M: std::sync::OnceLock<DbMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| DbMetrics {
        query_ns: libseal_telemetry::histogram("sealdb_query_ns"),
        statements: libseal_telemetry::counter("sealdb_statements_total"),
        compactions: libseal_telemetry::counter("sealdb_compactions_total"),
    })
}

/// Result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Vec<Value>>,
    /// Rows inserted/updated/deleted (DML only).
    pub rows_affected: usize,
}

impl QueryResult {
    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// First value of the first row, if any.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// An embedded relational database (the workspace's SQLite stand-in).
pub struct Database {
    catalog: Catalog,
    journal: Option<Journal>,
    /// Use the optimizing executor (hash joins, index probes, subquery
    /// memoization). On by default; turned off to get the reference
    /// nested-loop executor for equivalence testing and benchmarks.
    planner: bool,
    /// Torn-tail salvage performed while replaying the journal on
    /// [`Database::open`], if any.
    salvage: Option<SalvageInfo>,
    /// Registered delta-maintained materialized views.
    matviews: Vec<MatView>,
    /// Statements applied but not journaled wait for the next snapshot
    /// frame ([`Database::defer_to_snapshot`]).
    snapshot_pending: bool,
    /// Statements are applied but not journaled, as during replay.
    deferring: bool,
}

/// A statement parsed once and executed from its parsed form
/// ([`Database::prepare`]).
pub struct Prepared {
    stmt: Stmt,
    /// The source text it parsed from: what the journal records.
    sql: String,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Creates an in-memory database.
    pub fn new() -> Database {
        Database {
            catalog: Catalog::new(),
            journal: None,
            planner: true,
            salvage: None,
            matviews: Vec::new(),
            snapshot_pending: false,
            deferring: false,
        }
    }

    /// Enables or disables the optimizing executor. With it off every
    /// query runs on the naive nested-loop paths; results must be
    /// identical either way.
    pub fn set_planner_enabled(&mut self, enabled: bool) {
        self.planner = enabled;
    }

    /// Opens a database persisted at `path`, replaying any existing
    /// journal: [`Database::open_tagged`] with the
    /// [`journal::DEFAULT_TAG`](crate::journal::DEFAULT_TAG).
    ///
    /// # Errors
    ///
    /// As [`Database::open_tagged`].
    pub fn open(
        path: impl AsRef<std::path::Path>,
        codec: Box<dyn JournalCodec>,
    ) -> Result<Database> {
        Database::open_tagged(path, codec, crate::journal::DEFAULT_TAG)
    }

    /// Opens a database persisted at `path` in a journal whose header
    /// carries `tag` (what its owner keeps in it), replaying any
    /// existing journal.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, if the journal is corrupt, or with
    /// [`DbError::Format`] if it has another format or tag.
    pub fn open_tagged(
        path: impl AsRef<std::path::Path>,
        codec: Box<dyn JournalCodec>,
        tag: &str,
    ) -> Result<Database> {
        let mut db = Database::new();
        db.journal = Some(Journal::open(path, codec, tag)?);
        db.reload()?;
        Ok(db)
    }

    /// Replaces the tables with what the journal replays to — its file,
    /// then the frames not yet written — and resumes journaling: how a
    /// database opens, and how a caller gives up what it applied since
    /// [`Database::defer_to_snapshot`] when the snapshot frame cannot
    /// be staged: none of it was journaled. Registered materialized
    /// views reseed on their next refresh.
    ///
    /// # Errors
    ///
    /// As [`Database::open`]; the tables are untouched on error.
    pub fn reload(&mut self) -> Result<()> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(());
        };
        let entries = journal.replay()?;
        self.salvage = journal.last_salvage();
        // Replayed into a database with no journal, so recovered
        // statements are not journaled again.
        let mut replayed = Database::new();
        for e in entries {
            replayed.execute_with(&e.sql, &e.params)?;
        }
        self.catalog = replayed.catalog;
        for v in &mut self.matviews {
            (v.full_dirty, v.rows) = (true, Vec::new());
            v.dirty.clear();
        }
        self.snapshot_pending = false;
        self.deferring = false;
        Ok(())
    }

    /// The torn-tail salvage performed while opening this database, if
    /// recovery had to drop a torn final frame. Callers (the audit
    /// layer) reconcile the lost tail against their rollback counter.
    pub fn salvage_report(&self) -> Option<SalvageInfo> {
        self.salvage
    }

    /// Executes one or more `;`-separated statements without
    /// parameters; returns the result of the last one.
    ///
    /// # Errors
    ///
    /// Parse, schema and execution errors.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmts = parser::parse(sql)?;
        if stmts.is_empty() {
            return Err(DbError::parse("empty statement"));
        }
        let mut last = QueryResult::default();
        for (stmt, span) in stmts {
            last = self.execute_stmt(&stmt, &sql[span], &[])?;
        }
        Ok(last)
    }

    /// Executes a single statement with bound `?` parameters.
    ///
    /// # Errors
    ///
    /// Parse, schema and execution errors.
    pub fn execute_with(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let (stmt, span) = parser::parse_one(sql)?;
        self.execute_stmt(&stmt, &sql[span], params)
    }

    /// Parses a single statement once, for [`Database::execute_prepared`].
    ///
    /// # Errors
    ///
    /// Parse errors.
    pub fn prepare(sql: &str) -> Result<Prepared> {
        let (stmt, span) = parser::parse_one(sql)?;
        let sql = sql[span].to_string();
        Ok(Prepared { stmt, sql })
    }

    /// Executes a prepared statement with bound `?` parameters; the
    /// journal records its source text, as [`Database::execute_with`]
    /// would.
    ///
    /// # Errors
    ///
    /// Schema and execution errors.
    pub fn execute_prepared(&mut self, p: &Prepared, params: &[Value]) -> Result<QueryResult> {
        self.execute_stmt(&p.stmt, &p.sql, params)
    }

    /// Runs a read-only query (convenience wrapper).
    ///
    /// # Errors
    ///
    /// As [`Database::execute_with`]; also fails if `sql` is not a
    /// SELECT.
    pub fn query(&self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let start = std::time::Instant::now();
        let (Stmt::Select(sel), _) = parser::parse_one(sql)? else {
            return Err(DbError::exec("query() requires a SELECT statement"));
        };
        let ctx = Ctx::with_planner(&self.catalog, params, self.planner);
        let rows = exec_select(&ctx, &sel, None)?;
        let m = db_metrics();
        m.statements.inc();
        m.query_ns.record_duration(start.elapsed());
        Ok(rows_to_result(rows))
    }

    /// Executes `stmt`, which `sql` parsed to: the text the journal
    /// replays and, for DDL, the catalog keeps for compaction.
    fn execute_stmt(&mut self, stmt: &Stmt, sql: &str, params: &[Value]) -> Result<QueryResult> {
        db_metrics().statements.inc();
        let result = match stmt {
            Stmt::Select(sel) => {
                let ctx = Ctx::with_planner(&self.catalog, params, self.planner);
                let rows = exec_select(&ctx, sel, None)?;
                return Ok(rows_to_result(rows)); // No journaling for reads.
            }
            Stmt::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                self.catalog
                    .create_table(name, columns, *if_not_exists, sql)?;
                QueryResult::default()
            }
            Stmt::CreateView { name, query } => {
                self.catalog.create_view(name, query.clone(), sql)?;
                QueryResult::default()
            }
            Stmt::CreateIndex {
                name,
                table,
                column,
                if_not_exists,
            } => {
                self.catalog
                    .create_index(name, table, column, *if_not_exists, sql)?;
                QueryResult::default()
            }
            Stmt::Insert { table, values } => self.exec_insert(table, values, params)?,
            Stmt::Delete { table, filter } => self.exec_delete(table, filter.as_ref(), params)?,
            Stmt::Update {
                table,
                sets,
                filter,
            } => self.exec_update(table, sets, filter.as_ref(), params)?,
        };
        if let Some(j) = self.journal.as_mut().filter(|_| !self.deferring) {
            j.append(sql, params)?;
        }
        Ok(result)
    }

    fn exec_insert(
        &mut self,
        table: &str,
        values: &[Expr],
        params: &[Value],
    ) -> Result<QueryResult> {
        // Evaluate the row against the current catalog first.
        let ctx = Ctx::with_planner(&self.catalog, params, self.planner);
        let scope = ctx.table_scope(None);
        let env = crate::exec::env_for(&scope, &[]);
        let eval = |e| crate::exec::eval(&ctx, e, &env, None).map(Cow::into_owned);
        let values = values.iter().map(eval).collect::<Result<Vec<_>>>()?;
        let t = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| DbError::schema(format!("no such table: {table}")))?;
        if values.len() != t.columns.len() {
            return Err(DbError::exec(format!(
                "{} values for {} columns",
                values.len(),
                t.columns.len()
            )));
        }
        let row: Vec<Value> = (t.columns.iter().zip(values))
            .map(|(c, v)| c.affinity.apply(v))
            .collect();
        t.rows.push(row);
        t.index_appended_row();
        self.note_insert(table)?;
        Ok(QueryResult {
            rows_affected: 1,
            ..Default::default()
        })
    }

    fn exec_delete(
        &mut self,
        table: &str,
        filter: Option<&Expr>,
        params: &[Value],
    ) -> Result<QueryResult> {
        let keep: Vec<bool> = {
            let t = self
                .catalog
                .table(table)
                .ok_or_else(|| DbError::schema(format!("no such table: {table}")))?;
            let ctx = Ctx::with_planner(&self.catalog, params, self.planner);
            let scope = ctx.table_scope(Some(t));
            let mut keep = Vec::with_capacity(t.rows.len());
            for row in &t.rows {
                let matched = match filter {
                    None => true,
                    Some(f) => {
                        let env = crate::exec::env_for(&scope, row);
                        crate::exec::eval(&ctx, f, &env, None)?.to_bool() == Some(true)
                    }
                };
                keep.push(!matched);
            }
            keep
        };
        let t = self.catalog.table_mut(table).expect("checked above");
        let before = t.rows.len();
        let mut it = keep.iter();
        t.rows
            .retain(|_| *it.next().expect("keep mask matches rows"));
        let removed = before - t.rows.len();
        if removed > 0 {
            // Deletion shifts row positions; rebuild.
            t.rebuild_indexes();
            self.note_table_mutation(table);
        }
        Ok(QueryResult {
            rows_affected: removed,
            ..Default::default()
        })
    }

    fn exec_update(
        &mut self,
        table: &str,
        sets: &[(String, Expr)],
        filter: Option<&Expr>,
        params: &[Value],
    ) -> Result<QueryResult> {
        let updates: Vec<Option<Vec<(usize, Value)>>> = {
            let t = self
                .catalog
                .table(table)
                .ok_or_else(|| DbError::schema(format!("no such table: {table}")))?;
            let set_indices: Vec<usize> = sets
                .iter()
                .map(|(n, _)| {
                    t.column_index(n)
                        .ok_or_else(|| DbError::schema(format!("table {table} has no column {n}")))
                })
                .collect::<Result<_>>()?;
            let ctx = Ctx::with_planner(&self.catalog, params, self.planner);
            let scope = ctx.table_scope(Some(t));
            let mut out = Vec::with_capacity(t.rows.len());
            for row in &t.rows {
                let env = crate::exec::env_for(&scope, row);
                let matched = match filter {
                    None => true,
                    Some(f) => crate::exec::eval(&ctx, f, &env, None)?.to_bool() == Some(true),
                };
                if matched {
                    let mut assignments = Vec::with_capacity(sets.len());
                    for ((_, e), &ci) in sets.iter().zip(set_indices.iter()) {
                        let v = crate::exec::eval(&ctx, e, &env, None)?;
                        assignments.push((ci, v.into_owned()));
                    }
                    out.push(Some(assignments));
                } else {
                    out.push(None);
                }
            }
            out
        };
        let t = self.catalog.table_mut(table).expect("checked above");
        let mut affected = 0;
        for (row, upd) in t.rows.iter_mut().zip(updates) {
            if let Some(assignments) = upd {
                for (ci, v) in assignments {
                    row[ci] = t.columns[ci].affinity.apply(v);
                }
                affected += 1;
            }
        }
        if affected > 0 {
            t.rebuild_indexes();
            self.note_table_mutation(table);
        }
        Ok(QueryResult {
            rows_affected: affected,
            ..Default::default()
        })
    }

    /// Marks every view sourcing `table` fully dirty (DELETE/UPDATE
    /// can invalidate arbitrary partitions, so the next refresh
    /// recomputes from scratch).
    fn note_table_mutation(&mut self, table: &str) {
        for v in self.matviews.iter_mut().filter(|v| v.sources(table)) {
            v.full_dirty = true;
            v.dirty.clear();
        }
    }

    /// Applies the views' dirty-tracking rules for the row just
    /// inserted into `table`.
    fn note_insert(&mut self, table: &str) -> Result<()> {
        let Some(row) = self.catalog.table(table).and_then(|t| t.rows.last()) else {
            return Ok(());
        };
        for v in &mut self.matviews {
            v.note_insert(table, row, &self.catalog, self.planner)?;
        }
        Ok(())
    }

    /// Registers a delta-maintained materialized view and seeds its
    /// rows from a full evaluation of the view query. This is where a
    /// view is validated: its queries are parsed and its source columns
    /// resolved here, once. Nothing is journaled: a reopened database
    /// registers its views again, which reseeds them from the recovered
    /// base tables. Registering a name that is already registered
    /// replaces the definition and reseeds.
    ///
    /// # Errors
    ///
    /// A [`DbError::Parse`] for a view query outside the subset; a
    /// [`DbError::Schema`] for a source column the source table lacks,
    /// or a partition column or delta width that does not fit the full
    /// query's output; errors of the seeding query.
    pub fn register_matview(&mut self, spec: MatViewSpec) -> Result<()> {
        let view = MatView::new(&spec, &self.catalog, self.planner)?;
        self.matviews.retain(|v| v.name != spec.name);
        self.matviews.push(view);
        Ok(())
    }

    /// Re-evaluates every dirty partition of every registered view
    /// (and fully rebuilds views marked wholly dirty). Returns the
    /// number of partitions refreshed, counting a full rebuild as one.
    ///
    /// # Errors
    ///
    /// Query errors from the view's delta/full SQL; the dirty state of
    /// a view is consumed only once its refresh succeeds.
    pub fn refresh_matviews(&mut self) -> Result<usize> {
        if self.matview_lag() == 0 {
            return Ok(0);
        }
        plat::failpoint::check("sealdb::view::apply_delta").map_err(DbError::io)?;
        let mut refreshed = 0;
        for v in self.matviews.iter_mut().filter(|v| v.lag() > 0) {
            refreshed += v.refresh(&self.catalog, self.planner)?;
        }
        Ok(refreshed)
    }

    /// The rows of the registered view `name` as of its last refresh
    /// ([`Database::refresh_matviews`]); `None` if no view of that name
    /// is registered.
    pub fn matview_rows(&self, name: &str) -> Option<&[Vec<Value>]> {
        let view = self.matviews.iter().find(|v| v.name == name);
        view.map(|v| v.rows.as_slice())
    }

    /// Pending refresh work across all registered views: dirty
    /// partitions plus one unit per pending full rebuild.
    pub fn matview_lag(&self) -> usize {
        self.matviews.iter().map(|v| v.lag()).sum()
    }

    /// Writes the journal's pending frames and forces them to stable
    /// storage (no-op in memory).
    ///
    /// # Errors
    ///
    /// I/O errors from the write or the fsync; the frames stay pending.
    pub fn sync_journal(&mut self) -> Result<()> {
        match self.write_journal()? {
            Some(sync) => sync.sync(),
            None => Ok(()),
        }
    }

    /// Writes the journal's pending frames and returns the fsync that
    /// makes them durable ([`Journal::write`]; `None` in memory).
    ///
    /// # Errors
    ///
    /// I/O errors from the write; the frames stay pending.
    pub fn write_journal(&mut self) -> Result<Option<JournalSync>> {
        self.journal.as_mut().map(Journal::write).transpose()
    }

    /// Stops journaling until [`Database::resume_journal`]: statements
    /// still apply, and the next snapshot frame
    /// ([`Database::write_snapshot`]) is what makes them durable. A
    /// caller about to delete most rows (a log trim) stages them this
    /// way, so the journal stays replayable as the state before until
    /// the frame lands behind it.
    pub fn defer_to_snapshot(&mut self) {
        self.snapshot_pending = true;
        self.deferring = true;
    }

    /// Journals statements again after [`Database::defer_to_snapshot`];
    /// what was deferred still waits for the snapshot frame.
    pub fn resume_journal(&mut self) {
        self.deferring = false;
    }

    /// Whether deferred statements are waiting for a snapshot frame.
    pub fn snapshot_pending(&self) -> bool {
        self.snapshot_pending
    }

    /// Frames a snapshot of the whole database (schema + data dump)
    /// behind everything journaled so far; it reaches the disk at the
    /// next [`Database::sync_journal`], and replay starts over at it.
    ///
    /// # Errors
    ///
    /// Encoding failures; nothing is framed and the snapshot stays
    /// pending.
    pub fn write_snapshot(&mut self) -> Result<()> {
        let Some(journal) = self.journal.as_mut() else {
            self.snapshot_pending = false;
            return Ok(());
        };
        // Every statement below already parsed once: DDL is the text
        // that ran; the row INSERT is the only SQL composed here.
        let tables = self.catalog.tables_sorted();
        let inserts: Vec<String> = (tables.iter())
            .map(|t| {
                let marks = vec!["?"; t.columns.len()].join(", ");
                format!("INSERT INTO {} VALUES ({marks})", quote_ident(&t.name))
            })
            .collect();
        let none: &[Value] = &[];
        let mut records: Vec<(&str, &[Value])> = Vec::new();
        for (t, insert) in tables.iter().zip(&inserts) {
            records.push((&t.sql, none));
            records.extend(t.rows.iter().map(|row| (insert.as_str(), row.as_slice())));
            records.extend(t.index_sql().map(|sql| (sql, none)));
        }
        let views = self.catalog.view_sql_sorted();
        records.extend(views.into_iter().map(|sql| (sql, none)));
        journal.append_snapshot(records)?;
        self.snapshot_pending = false;
        db_metrics().compactions.inc();
        Ok(())
    }

    /// Whether the journal's dead bytes call for [`Database::reclaim`].
    pub fn reclaim_due(&self) -> bool {
        self.journal.as_ref().is_some_and(Journal::reclaim_due)
    }

    /// Drops the journal's bytes before its last snapshot frame
    /// ([`Journal::reclaim`]).
    ///
    /// # Errors
    ///
    /// I/O errors; the journal replays to the same state either way.
    pub fn reclaim(&mut self) -> Result<()> {
        match self.journal.as_mut() {
            Some(j) => j.reclaim(),
            None => Ok(()),
        }
    }

    /// Compacts persistent storage: a snapshot frame, synced, then
    /// reclamation of everything before it — the journal becomes the
    /// snapshot. A crash at any point leaves a journal that replays to
    /// the same state.
    ///
    /// # Errors
    ///
    /// I/O errors while writing the frame or reclaiming.
    pub fn compact(&mut self) -> Result<()> {
        self.write_snapshot()?;
        self.sync_journal()?;
        self.reclaim()
    }

    /// Approximate size of all table data in bytes.
    pub fn size_bytes(&self) -> usize {
        self.catalog.size_bytes()
    }

    /// Size of the on-disk journal in bytes (0 for in-memory).
    pub fn journal_size_bytes(&self) -> u64 {
        self.journal.as_ref().map(|j| j.size_bytes()).unwrap_or(0)
    }

    /// Read access to the catalog (tests and tooling).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

fn rows_to_result(rows: Rows) -> QueryResult {
    QueryResult {
        columns: rows.cols.into_iter().map(|c| c.name).collect(),
        rows: rows.data,
        rows_affected: 0,
    }
}
