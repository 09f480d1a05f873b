//! Tables, views and their metadata.
//!
//! Beside each table, index and view the catalog keeps the statement
//! text that created it, exactly as the parser accepted it. The dialect
//! has no `ALTER` or `DROP`, so that text stays true for the life of the
//! database (an object is never removed), and
//! a snapshot frame writes it back instead of regenerating SQL from fields.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::ast::{ColumnDef, Select};
use crate::value::{Affinity, Value};
use crate::{DbError, Result};

/// A column of a stored table.
#[derive(Clone, Debug)]
pub struct Column {
    /// Column name (original case).
    pub name: String,
    /// Affinity derived from the declared type.
    pub affinity: Affinity,
}

/// A hash index over one column of a table: the hash of a value's group
/// class ([`Value::group_class`]) maps to the row positions holding a
/// value of that hash, in scan order. A probe may so return rows of
/// another class whose hash collides; every caller re-checks its
/// predicate over the rows it gets.
#[derive(Clone, Debug)]
pub struct Index {
    /// Index name (original case).
    pub name: String,
    /// Indexed column position.
    pub column: usize,
    /// The `CREATE INDEX` statement that made it.
    sql: String,
    /// Group-class hash → row positions, ascending.
    map: HashMap<u64, Vec<usize>>,
    /// Set when the column holds a NaN real. A group class separates
    /// NaN bit patterns while SQL comparison treats NaN loosely, so a
    /// poisoned index must not be probed.
    poisoned: bool,
}

impl Index {
    fn add(&mut self, row: &[Value], pos: usize) {
        let v = &row[self.column];
        if matches!(v, Value::Real(f) if f.is_nan()) {
            self.poisoned = true;
        }
        self.map.entry(class_hash(v)).or_default().push(pos);
    }

    fn rebuild(&mut self, rows: &[Vec<Value>]) {
        self.map.clear();
        self.poisoned = false;
        for (pos, row) in rows.iter().enumerate() {
            self.add(row, pos);
        }
    }

    /// Row positions of every indexed value that shares `key`'s
    /// equality class (and of any whose class hash collides with it).
    /// `None` when the index cannot be trusted (poisoned or a NaN probe
    /// key); an empty slice is a definitive miss.
    pub fn probe(&self, key: &Value) -> Option<&[usize]> {
        if self.poisoned || matches!(key, Value::Real(f) if f.is_nan()) {
            return None;
        }
        Some(self.map.get(&class_hash(key)).map_or(&[], |v| v.as_slice()))
    }
}

fn class_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.group_class().hash(&mut h);
    h.finish()
}

/// A stored table: schema plus row data.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table name (original case).
    pub name: String,
    /// The `CREATE TABLE` statement that made it.
    pub sql: String,
    /// Column definitions.
    pub columns: Vec<Column>,
    /// Row data.
    pub rows: Vec<Vec<Value>>,
    /// Hash indexes, kept in sync with `rows` by the engine.
    indexes: Vec<Index>,
}

impl Table {
    /// Index of column `name` (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Approximate in-memory size in bytes (for EPC accounting).
    pub fn size_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(Value::size_bytes).sum::<usize>() + 24)
            .sum()
    }

    /// The index covering column `column`, if one exists.
    pub fn index_on(&self, column: usize) -> Option<&Index> {
        self.indexes.iter().find(|ix| ix.column == column)
    }

    /// Names of the indexes on this table, in creation order.
    pub fn index_names(&self) -> Vec<&str> {
        self.indexes.iter().map(|ix| ix.name.as_str()).collect()
    }

    /// The `CREATE INDEX` statements of this table's indexes, in
    /// creation order.
    pub fn index_sql(&self) -> impl Iterator<Item = &str> {
        self.indexes.iter().map(|ix| ix.sql.as_str())
    }

    /// Registers the most recently pushed row with every index
    /// (incremental INSERT maintenance).
    pub fn index_appended_row(&mut self) {
        let Some(row) = self.rows.last() else { return };
        let pos = self.rows.len() - 1;
        for ix in &mut self.indexes {
            ix.add(row, pos);
        }
    }

    /// Rebuilds every index from scratch (after DELETE/UPDATE, which
    /// shift row positions).
    pub fn rebuild_indexes(&mut self) {
        for ix in &mut self.indexes {
            ix.rebuild(&self.rows);
        }
    }

    /// Whether every index exactly matches a fresh rebuild over the
    /// current rows (test hook for maintenance bugs).
    pub fn indexes_consistent(&self) -> bool {
        self.indexes.iter().all(|ix| {
            let mut fresh = Index {
                name: ix.name.clone(),
                column: ix.column,
                sql: String::new(),
                map: HashMap::new(),
                poisoned: false,
            };
            fresh.rebuild(&self.rows);
            fresh.map == ix.map && fresh.poisoned == ix.poisoned
        })
    }
}

/// The database catalog: named tables and views.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    /// Lowercased name → (the `CREATE VIEW` statement, its query).
    views: HashMap<String, (String, Select)>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table; `sql` is the statement being executed.
    ///
    /// # Errors
    ///
    /// Fails if a table or view of that name exists and
    /// `if_not_exists` is false.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: &[ColumnDef],
        if_not_exists: bool,
        sql: &str,
    ) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            if if_not_exists {
                return Ok(());
            }
            return Err(DbError::schema(format!("table {name} already exists")));
        }
        let cols = columns
            .iter()
            .map(|c| Column {
                name: c.name.clone(),
                affinity: Affinity::from_decl(&c.decl_type),
            })
            .collect();
        self.tables.insert(
            key,
            Table {
                name: name.to_string(),
                sql: sql.to_string(),
                columns: cols,
                rows: Vec::new(),
                indexes: Vec::new(),
            },
        );
        Ok(())
    }

    /// Creates a hash index over `table(column)` and builds it from
    /// the current rows; `sql` is the statement being executed.
    ///
    /// # Errors
    ///
    /// Fails when the table or column is missing, or when an index of
    /// that name exists and `if_not_exists` is false.
    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        column: &str,
        if_not_exists: bool,
        sql: &str,
    ) -> Result<()> {
        if self.index_exists(name) {
            if if_not_exists {
                return Ok(());
            }
            return Err(DbError::schema(format!("index {name} already exists")));
        }
        let Some(t) = self.tables.get_mut(&table.to_ascii_lowercase()) else {
            return Err(DbError::schema(format!("no such table: {table}")));
        };
        let Some(col) = t.column_index(column) else {
            return Err(DbError::schema(format!("no such column: {column}")));
        };
        let mut ix = Index {
            name: name.to_string(),
            column: col,
            sql: sql.to_string(),
            map: HashMap::new(),
            poisoned: false,
        };
        ix.rebuild(&t.rows);
        t.indexes.push(ix);
        Ok(())
    }

    /// Whether an index with this name exists on any table.
    pub fn index_exists(&self, name: &str) -> bool {
        self.tables.values().any(|t| {
            t.indexes
                .iter()
                .any(|ix| ix.name.eq_ignore_ascii_case(name))
        })
    }

    /// Creates a view; `sql` is the statement being executed.
    ///
    /// # Errors
    ///
    /// Fails when the name is taken.
    pub fn create_view(&mut self, name: &str, query: Select, sql: &str) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(DbError::schema(format!("view {name} already exists")));
        }
        self.views.insert(key, (sql.to_string(), query));
        Ok(())
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Looks up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_ascii_lowercase())
    }

    /// Looks up a view's defining query.
    pub fn view(&self, name: &str) -> Option<&Select> {
        self.views.get(&name.to_ascii_lowercase()).map(|(_, q)| q)
    }

    /// Iterates over tables in name order (for dumps).
    pub fn tables_sorted(&self) -> Vec<&Table> {
        let mut v: Vec<&Table> = self.tables.values().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// The `CREATE VIEW` statement of every view, in name order (for
    /// dumps).
    pub fn view_sql_sorted(&self) -> Vec<&str> {
        let mut v: Vec<_> = self.views.iter().collect();
        v.sort_by_key(|(name, _)| *name);
        v.into_iter().map(|(_, (sql, _))| sql.as_str()).collect()
    }

    /// Total approximate size of all table data in bytes.
    pub fn size_bytes(&self) -> usize {
        self.tables.values().map(Table::size_bytes).sum()
    }
}
