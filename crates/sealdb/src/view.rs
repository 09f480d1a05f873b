//! Delta-maintained materialized views.
//!
//! A materialized view is a real catalog table (the *backing table*)
//! holding the result rows of a registered SELECT. Instead of
//! re-running the full query on every read, the database tracks which
//! *partitions* of the view may have changed — a partition is the set
//! of result rows sharing one value in a designated output column —
//! and re-evaluates only those partitions on
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
//! idempotent (delete the partition's backing rows, re-run the delta
//! query, insert the fresh rows), so a spuriously dirtied partition
//! just costs one indexed re-evaluation.
//!
//! Durability: only the backing table *definition* is journaled (as
//! ordinary `CREATE TABLE IF NOT EXISTS` / `CREATE INDEX IF NOT
//! EXISTS` statements). Derived rows are never journaled and are not
//! dumped by [`crate::Database::write_snapshot`]; re-registering a view after
//! reopen marks it fully dirty, so the first refresh rebuilds it from
//! the recovered base tables.

use std::collections::BTreeSet;

use crate::value::Value;

/// A registered materialized view definition. Its SQL and rules are
/// static tables (the SSMs' invariants), borrowed, never copied.
#[derive(Clone, Debug)]
pub struct MatViewSpec {
    /// Backing table name (conventionally `mv_<invariant>`).
    pub name: String,
    /// Full SELECT producing every view row (used for full rebuilds
    /// and to derive the backing table's columns).
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

/// Runtime state of one registered view.
#[derive(Debug)]
pub(crate) struct MatView {
    pub spec: MatViewSpec,
    /// Recompute the whole view on next refresh (set at registration
    /// and after any DELETE/UPDATE on a source table).
    pub full_dirty: bool,
    /// Partitions to re-evaluate on next refresh.
    pub dirty: BTreeSet<PartitionKey>,
}

impl MatView {
    pub(crate) fn new(spec: MatViewSpec) -> MatView {
        MatView {
            spec,
            full_dirty: true,
            dirty: BTreeSet::new(),
        }
    }

    /// Pending refresh work: partitions plus one unit for a pending
    /// full rebuild.
    pub(crate) fn lag(&self) -> usize {
        self.dirty.len() + usize::from(self.full_dirty)
    }
}

/// Sanitizes a result-column name into a SQL identifier for the
/// backing table; deduplicates against `used`.
pub(crate) fn backing_column_name(raw: &str, used: &[String]) -> String {
    let mut s: String = raw
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.as_bytes()[0].is_ascii_digit() {
        s.insert(0, 'c');
    }
    let mut out = s.clone();
    let mut n = 2;
    while used.iter().any(|u| u.eq_ignore_ascii_case(&out)) {
        out = format!("{s}_{n}");
        n += 1;
    }
    out
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

    #[test]
    fn backing_names_sanitize_and_dedupe() {
        let mut used: Vec<String> = Vec::new();
        for (raw, want) in [
            ("time", "time"),
            ("TIME", "TIME_2"),
            ("COUNT(*)", "COUNT___"),
            ("1st", "c1st"),
            ("", "c"),
        ] {
            let got = backing_column_name(raw, &used);
            assert_eq!(got, want);
            used.push(got);
        }
    }
}
