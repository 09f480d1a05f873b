//! The SQL abstract syntax tree: exactly the forms LibSEAL's own
//! statements take (DESIGN.md, "The SQL LibSEAL speaks").

use crate::value::Value;

/// A full SQL statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `CREATE TABLE [IF NOT EXISTS] name (col [type], ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Suppress the error when the table exists.
        if_not_exists: bool,
    },
    /// `CREATE VIEW name AS SELECT ...`
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        query: Select,
    },
    /// `CREATE INDEX [IF NOT EXISTS] name ON table (column)`
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
        /// Suppress the error when the index exists.
        if_not_exists: bool,
    },
    /// `INSERT INTO t VALUES (...)`: one row.
    Insert {
        /// Target table.
        table: String,
        /// One value expression per column of the table.
        values: Vec<Expr>,
    },
    /// `DELETE FROM t [WHERE ...]`
    Delete {
        /// Target table.
        table: String,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// `UPDATE t SET c = e, ... [WHERE ...]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Expr)>,
        /// Row filter.
        filter: Option<Expr>,
    },
    /// A `SELECT` query.
    Select(Select),
}

/// A column definition in CREATE TABLE.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type (one word, drives affinity), may be empty.
    pub decl_type: String,
}

/// A SELECT query.
#[derive(Clone, Debug, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Output expressions.
    pub projections: Vec<SelectItem>,
    /// FROM clause.
    pub from: FromClause,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY terms.
    pub order_by: Vec<OrderTerm>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
}

/// One item of the projection list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// The FROM clause: a first source plus joins.
#[derive(Clone, Debug, PartialEq)]
pub struct FromClause {
    /// First table/subquery.
    pub first: TableRef,
    /// Subsequent joins, applied left to right.
    pub joins: Vec<Join>,
}

/// A join step.
#[derive(Clone, Debug, PartialEq)]
pub struct Join {
    /// Join flavour.
    pub kind: JoinKind,
    /// Right-hand source.
    pub table: TableRef,
    /// `ON` predicate (None for NATURAL joins).
    pub on: Option<Expr>,
}

/// Join flavours supported by the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    /// `JOIN ... ON`.
    Inner,
    /// `NATURAL JOIN`: equality over shared column names, shared
    /// columns merged.
    Natural,
}

/// A table or subquery in FROM.
#[derive(Clone, Debug, PartialEq)]
pub enum TableRef {
    /// A named table or view with an optional alias.
    Named {
        /// Table or view name.
        name: String,
        /// Alias (e.g. `advertisements a`).
        alias: Option<String>,
    },
    /// A parenthesised subquery with an alias.
    Subquery {
        /// The inner query.
        query: Box<Select>,
        /// Alias naming the derived table.
        alias: Option<String>,
    },
}

/// An ORDER BY term.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderTerm {
    /// Sort expression.
    pub expr: Expr,
    /// Descending?
    pub desc: bool,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal value: an integer (`-1` included) or a string.
    Literal(Value),
    /// `?` parameter (0-based).
    Param(usize),
    /// Column reference, optionally qualified.
    Column {
        /// Table qualifier (`u` in `u.cid`).
        table: Option<String>,
        /// Column name.
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// An aggregate: `COUNT(*)`, `COUNT(e)` or `MAX(e)`.
    Function {
        /// Uppercased function name, `COUNT` or `MAX`.
        name: String,
        /// The argument; `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery (first output column used).
        query: Box<Select>,
        /// `NOT IN`?
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// The subquery.
        query: Box<Select>,
        /// `NOT EXISTS`?
        negated: bool,
    },
    /// A scalar subquery `(SELECT ...)`.
    Subquery(Box<Select>),
}

impl Expr {
    /// Whether this expression (outside subqueries) contains an
    /// aggregate.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { .. } => true,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            _ => false,
        }
    }

    /// A human-readable rendering used for derived column names.
    pub fn display_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Function { name, arg } => match arg {
                None => format!("{name}(*)"),
                Some(a) => format!("{name}({})", a.display_name()),
            },
            Expr::Literal(v) => v.to_string(),
            _ => "expr".to_string(),
        }
    }
}
