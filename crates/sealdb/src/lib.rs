#![warn(missing_docs)]
//! An embedded relational SQL database — the workspace's stand-in for
//! the SQLite engine that LibSEAL runs inside its enclave (§3.1, §5).
//!
//! It speaks exactly the SQL LibSEAL issues — the paper's audit
//! schemas, invariants and trimming queries verbatim, the SSMs' delta
//! and rescan queries, plus the statements the audit log and snapshot
//! frames compose — and nothing else, because every line inside the
//! enclave is attack surface: `CREATE TABLE`/`VIEW`/`INDEX`, one-row
//! `INSERT`, `DELETE`, `UPDATE`, and `SELECT [DISTINCT]` over
//! `JOIN … ON` and `NATURAL JOIN` with `GROUP BY`/`HAVING`,
//! `ORDER BY … [DESC]`, `LIMIT n`, scalar, `[NOT] IN` and
//! `[NOT] EXISTS` subqueries, `COUNT`/`MAX`, `=`/`!=`/`<`/`>`,
//! `AND`/`OR`, `+`, integer and string literals and `?` parameters.
//! Anything else fails to parse with a [`DbError::Parse`] ([`parser`]
//! has the rule for widening it). Bound parameters carry every
//! [`Value`] type. Delta-maintained materialized views ([`view`]) are
//! not SQL objects: a view holds its own rows, and nothing of it is
//! journaled.
//! Durability comes from a statement-granularity write-ahead journal
//! with pluggable sealing ([`journal::JournalCodec`]), snapshot frames
//! and reclamation of the bytes before the last one.
//!
//! Execution is an optimizing interpreter: `CREATE INDEX` declares
//! per-table hash indexes (maintained incrementally on DML) that
//! serve single-table equality filters, equality conjuncts in join
//! predicates run as build/probe hash joins, and subquery results are
//! memoized on their free-variable bindings. Every optimized path is
//! result-identical to the naive nested-loop interpreter, which
//! remains available via [`Database::set_planner_enabled`] and backs
//! the equivalence property tests.
//!
//! # Examples
//!
//! ```
//! use libseal_sealdb::{Database, Value};
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t(a INTEGER, b TEXT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
//! db.execute_with("INSERT INTO t VALUES (?, ?)", &[Value::Integer(2), Value::Null])
//!     .unwrap();
//! let r = db.query("SELECT COUNT(*) FROM t WHERE a > 1", &[]).unwrap();
//! assert_eq!(r.scalar().unwrap().to_string(), "1");
//! assert!(db.execute("SELECT a FROM t WHERE b LIKE 'x%'").is_err());
//! ```

pub mod ast;
pub mod catalog;
pub mod db;
pub mod exec;
pub mod journal;
pub mod parser;
pub mod plan;
pub mod token;
pub mod value;
pub mod view;

pub use db::{Database, QueryResult};
pub use journal::{JournalCodec, PlainCodec};
pub use token::quote_ident;
pub use value::Value;
pub use view::{DeltaSpec, MatViewSpec, RescanRule, SourceRule};

/// Errors produced by the database engine.
#[derive(Debug)]
pub enum DbError {
    /// SQL text failed to parse.
    Parse(String),
    /// Schema-level problem (missing table/column, duplicate name).
    Schema(String),
    /// Runtime execution failure.
    Exec(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A journal file of another format or tag, or no journal at all
    /// ([`journal::Journal::open`]).
    Format(String),
}

impl DbError {
    pub(crate) fn parse(msg: impl Into<String>) -> DbError {
        DbError::Parse(msg.into())
    }
    pub(crate) fn schema(msg: impl Into<String>) -> DbError {
        DbError::Schema(msg.into())
    }
    pub(crate) fn exec(msg: impl Into<String>) -> DbError {
        DbError::Exec(msg.into())
    }
    pub(crate) fn io(e: std::io::Error) -> DbError {
        DbError::Io(e)
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "SQL parse error: {m}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::Exec(m) => write!(f, "execution error: {m}"),
            DbError::Io(e) => write!(f, "I/O error: {e}"),
            DbError::Format(m) => write!(f, "journal format error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Convenience alias for fallible database operations.
pub type Result<T> = std::result::Result<T, DbError>;
