//! Delta-maintained materialized views.
//!
//! A materialized view holds the result rows of a registered SELECT.
//! Instead of re-running the full query on every read, the database
//! tracks which *partitions* of the view may have changed — a partition
//! is the set of result rows sharing one value in a designated output
//! column — and re-evaluates only those partitions on
//! [`crate::Database::refresh_matviews`].
//!
//! Dirty tracking is driven by per-source-table rules declared in the
//! [`MatViewSpec`]:
//!
//! - an INSERT into a source table with a [`SourceRule::partition_col`]
//!   dirties the partition named by that column of the inserted row;
//! - an INSERT into a source table with a [`RescanRule`] additionally
//!   runs a lookup query bound to columns of the inserted row, and
//!   dirties every partition the lookup returns (for views whose rows
//!   can be *cleared* by a later insert, e.g. an untimed NOT EXISTS);
//! - a DELETE or UPDATE touching any source table marks the whole
//!   view dirty (full recompute on next refresh).
//!
//! Over-approximation is always safe: refreshing a partition is
//! idempotent (drop the partition's rows, re-run the delta query, add
//! the fresh rows), so a spuriously dirtied partition just costs one
//! indexed re-evaluation.
//!
//! A view is validated once, when it is registered: its queries are
//! parsed there and run from their parsed form, its source columns are
//! resolved to positions there, and a query outside the subset, a
//! column the source table lacks or a partition column past the view's
//! output width fails the registration, never a later INSERT or
//! refresh.
//!
//! Durability: none. A view is not a catalog table: nothing about it
//! is journaled, dumped by [`crate::Database::write_snapshot`] or
//! hash-chained by the audit log above. Its rows are derived from the
//! base tables, so a reload ([`crate::Database::reload`]) marks every
//! view fully dirty and the next refresh rebuilds it from the recovered
//! tables, and a reopened database registers its views again.

use std::collections::BTreeSet;

use crate::ast::{Select, Stmt};
use crate::catalog::Catalog;
use crate::exec::{exec_select, Ctx};
use crate::parser;
use crate::value::Value;
use crate::{DbError, Result};

/// A registered materialized view definition. Its SQL and rules are
/// static tables (the SSMs' invariants), borrowed, never copied.
#[derive(Clone, Debug)]
pub struct MatViewSpec {
    /// The view's name (the audit log names a view after its
    /// invariant).
    pub name: &'static str,
    /// Full SELECT producing every view row (used to seed the view,
    /// for full rebuilds and to fix its output width).
    pub full_sql: &'static str,
    /// How the view is maintained partition by partition.
    pub delta: DeltaSpec,
}

/// Incremental maintenance of a view: how its rows decompose into
/// partitions that can be re-evaluated independently.
#[derive(Clone, Copy, Debug)]
pub struct DeltaSpec {
    /// SELECT producing the view rows of one partition; `?1` is bound
    /// to the partition value. Projects the same columns as the full
    /// SELECT.
    pub delta_sql: &'static str,
    /// Index of the output column holding the partition value.
    pub partition_col: usize,
    /// Dirty-tracking rules, one per source table feeding the view.
    pub sources: &'static [SourceRule],
}

/// How writes to one source table dirty the view.
#[derive(Clone, Copy, Debug)]
pub struct SourceRule {
    /// Source (base) table name.
    pub table: &'static str,
    /// Column of the *source* row whose value names the partition to
    /// dirty on INSERT. `None` means inserts into this table cannot
    /// add view rows (but a [`RescanRule`] may still clear some).
    pub partition_col: Option<&'static str>,
    /// Optional lookup re-dirtying partitions whose existing view
    /// rows may be invalidated by the inserted row.
    pub rescan: Option<RescanRule>,
}

/// A lookup run after each INSERT into the source table: `sql` is
/// executed with the inserted row's `bind_cols` values bound to
/// `?1..?n`, and the first column of every returned row names a
/// partition to re-dirty.
#[derive(Clone, Copy, Debug)]
pub struct RescanRule {
    /// Partition lookup query.
    pub sql: &'static str,
    /// Source-row columns bound, in order, to the query parameters.
    pub bind_cols: &'static [&'static str],
}

/// Total-order wrapper over [`Value`] so partitions can live in a
/// [`BTreeSet`]. Orders by type tag, then by value; `Real` uses IEEE
/// total ordering so NaN is admissible (it would poison a hash index,
/// but a dirty *set* must still deduplicate it).
#[derive(Clone, Debug)]
pub struct PartitionKey(pub Value);

impl PartitionKey {
    fn rank(&self) -> u8 {
        match self.0 {
            Value::Null => 0,
            Value::Integer(_) => 1,
            Value::Real(_) => 2,
            Value::Text(_) => 3,
            Value::Blob(_) => 4,
        }
    }
}

impl PartialEq for PartitionKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for PartitionKey {}

impl PartialOrd for PartitionKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PartitionKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        match (&self.0, &other.0) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Integer(a), Value::Integer(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

/// A registered view: its queries parsed and its source columns
/// resolved once, at [`crate::Database::register_matview`], and its
/// rows.
#[derive(Debug)]
pub(crate) struct MatView {
    /// The view's name: what [`crate::Database::matview_rows`] reads
    /// it by.
    pub name: &'static str,
    full: Select,
    delta: Select,
    partition_col: usize,
    sources: Vec<Source>,
    /// The view's rows as of its last refresh.
    pub rows: Vec<Vec<Value>>,
    /// Recompute the whole view on next refresh (set after any
    /// DELETE/UPDATE on a source table and on reload).
    pub full_dirty: bool,
    /// Partitions to re-evaluate on next refresh.
    pub dirty: BTreeSet<PartitionKey>,
}

/// A [`SourceRule`] with its columns resolved to positions in the
/// source table's rows and its rescan parsed.
#[derive(Debug)]
struct Source {
    table: &'static str,
    partition_col: Option<usize>,
    rescan: Option<(Select, Vec<usize>)>,
}

fn select(sql: &str, what: &str) -> Result<Select> {
    match parser::parse_one(sql)? {
        (Stmt::Select(sel), _) => Ok(sel),
        _ => Err(DbError::schema(format!("matview {what} must be a SELECT"))),
    }
}

impl MatView {
    /// Parses `spec`'s queries and resolves its source columns in
    /// `catalog`, then seeds the rows from the full query. The delta,
    /// dry-run on a NULL partition, must project as many columns as
    /// the full query, and the partition column must be one of them.
    pub(crate) fn new(spec: &MatViewSpec, catalog: &Catalog, planner: bool) -> Result<MatView> {
        let resolve = |table: &str, col: &str| {
            let t = catalog.table(table);
            t.and_then(|t| t.column_index(col)).ok_or_else(|| {
                DbError::schema(format!(
                    "matview {}: {table} has no column {col}",
                    spec.name
                ))
            })
        };
        let mut sources = Vec::with_capacity(spec.delta.sources.len());
        for s in spec.delta.sources {
            let partition_col = s.partition_col.map(|c| resolve(s.table, c)).transpose()?;
            let rescan = s.rescan.map(|r| -> Result<_> {
                let cols = r.bind_cols.iter().map(|c| resolve(s.table, c));
                Ok((select(r.sql, "rescan")?, cols.collect::<Result<_>>()?))
            });
            sources.push(Source {
                table: s.table,
                partition_col,
                rescan: rescan.transpose()?,
            });
        }
        let full = select(spec.full_sql, "query")?;
        let delta = select(spec.delta.delta_sql, "delta")?;
        let seed = exec_select(&Ctx::with_planner(catalog, &[], planner), &full, None)?;
        let null = [Value::Null];
        let dry = exec_select(&Ctx::with_planner(catalog, &null, planner), &delta, None)?;
        let width = seed.cols.len();
        if spec.delta.partition_col >= width || dry.cols.len() != width {
            return Err(DbError::schema(format!(
                "matview {}: partition column {} and a {}-column delta for {width} output columns",
                spec.name,
                spec.delta.partition_col,
                dry.cols.len()
            )));
        }
        Ok(MatView {
            name: spec.name,
            full,
            delta,
            partition_col: spec.delta.partition_col,
            sources,
            rows: seed.data,
            full_dirty: false,
            dirty: BTreeSet::new(),
        })
    }

    /// Whether writes to `table` can change this view.
    pub(crate) fn sources(&self, table: &str) -> bool {
        self.sources.iter().any(|s| s.table == table)
    }

    /// Pending refresh work: partitions plus one unit for a pending
    /// full rebuild.
    pub(crate) fn lag(&self) -> usize {
        self.dirty.len() + usize::from(self.full_dirty)
    }

    /// Applies the dirty-tracking rules of `table` for `row`, just
    /// inserted into it.
    pub(crate) fn note_insert(
        &mut self,
        table: &str,
        row: &[Value],
        catalog: &Catalog,
        planner: bool,
    ) -> Result<()> {
        if self.full_dirty {
            return Ok(());
        }
        // A table's columns never change (no ALTER), so the positions
        // resolved at registration hold for every row of it.
        let col = |i: usize| {
            let v = row.get(i).cloned();
            v.ok_or_else(|| DbError::exec(format!("matview {}: short {table} row", self.name)))
        };
        for s in self.sources.iter().filter(|s| s.table == table) {
            if let Some(c) = s.partition_col {
                self.dirty.insert(PartitionKey(col(c)?));
            }
            if let Some((sel, cols)) = &s.rescan {
                let binds = cols.iter().map(|&c| col(c)).collect::<Result<Vec<_>>>()?;
                let ctx = Ctx::with_planner(catalog, &binds, planner);
                for hit in exec_select(&ctx, sel, None)?.data {
                    if let Some(p) = hit.into_iter().next() {
                        self.dirty.insert(PartitionKey(p));
                    }
                }
            }
        }
        Ok(())
    }

    /// Re-evaluates the dirty partitions, or the whole view when it is
    /// fully dirty; returns the partitions refreshed, a full rebuild
    /// counting one. The dirty state is taken only once every query
    /// succeeded.
    pub(crate) fn refresh(&mut self, catalog: &Catalog, planner: bool) -> Result<usize> {
        if self.full_dirty {
            let ctx = Ctx::with_planner(catalog, &[], planner);
            self.rows = exec_select(&ctx, &self.full, None)?.data;
            self.full_dirty = false;
            self.dirty.clear();
            return Ok(1);
        }
        let mut fresh = Vec::new();
        for p in &self.dirty {
            let bind = [p.0.clone()];
            let ctx = Ctx::with_planner(catalog, &bind, planner);
            fresh.extend(exec_select(&ctx, &self.delta, None)?.data);
        }
        let parts = std::mem::take(&mut self.dirty);
        let pcol = self.partition_col;
        (self.rows).retain(|r| !parts.contains(&PartitionKey(r[pcol].clone())));
        self.rows.extend(fresh);
        Ok(parts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_key_orders_and_dedupes() {
        let mut set = BTreeSet::new();
        set.insert(PartitionKey(Value::Integer(3)));
        set.insert(PartitionKey(Value::Integer(3)));
        set.insert(PartitionKey(Value::Integer(1)));
        set.insert(PartitionKey(Value::Text("a".into())));
        set.insert(PartitionKey(Value::Null));
        set.insert(PartitionKey(Value::Real(f64::NAN)));
        set.insert(PartitionKey(Value::Real(f64::NAN)));
        assert_eq!(set.len(), 5);
    }
}
