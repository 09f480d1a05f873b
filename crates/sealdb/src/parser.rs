//! A recursive-descent parser for the SQL LibSEAL issues, and no more.
//!
//! The grammar is closed: it is the union of the statements the
//! service-specific modules, the audit log, the materialized views and
//! snapshot frames run (DESIGN.md, "The SQL LibSEAL speaks", has it as
//! EBNF), and `crates/core/tests/sql_subset.rs` checks that every AST
//! variant is reached by one of them. Any other text — `LIKE`,
//! `BETWEEN`, `CASE`, `LEFT JOIN`, `DROP`, an `IN` list, `OFFSET`,
//! arithmetic beyond `+`, a function other than `COUNT`/`MAX` — is a
//! [`DbError::Parse`] that quotes the text where parsing stopped, so it
//! never reaches the executor. An SSM that needs a construct adds it
//! here, in the same change as its first use.

use std::ops::Range;

use crate::ast::*;
use crate::token::{tokenize, Token};
use crate::value::Value;
use crate::{DbError, Result};

/// Parses a string of one or more `;`-separated statements, each
/// with the byte range of `sql` it was read from (first token to last:
/// no separator or surrounding space). That slice is the statement's
/// one textual form — what the journal and the catalog keep.
pub fn parse(sql: &str) -> Result<Vec<(Stmt, Range<usize>)>> {
    let (tokens, spans) = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    loop {
        while p.eat_symbol(";") {}
        if p.at_end() {
            break;
        }
        let first = p.pos;
        let stmt = p.parse_stmt().and_then(|stmt| match p.peek() {
            None | Some(Token::Symbol(";")) => Ok(stmt),
            Some(_) => Err(DbError::parse("expected ';' or the end of the statement")),
        });
        let stmt = stmt.map_err(|e| match (e, spans.get(p.pos)) {
            (DbError::Parse(m), Some(at)) => {
                let rest: String = sql[at.start..].chars().take(32).collect();
                DbError::Parse(format!("{m} near \"{rest}\""))
            }
            (DbError::Parse(m), None) => DbError::Parse(format!("{m} at the end of the input")),
            (e, _) => e,
        })?;
        stmts.push((stmt, spans[first].start..spans[p.pos - 1].end));
    }
    Ok(stmts)
}

/// Parses exactly one statement.
pub fn parse_one(sql: &str) -> Result<(Stmt, Range<usize>)> {
    let mut stmts = parse(sql)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        0 => Err(DbError::parse("empty statement")),
        _ => Err(DbError::parse("expected a single statement")),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        let hit = self.peek_kw(kw);
        self.pos += usize::from(hit);
        hit
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::parse(format!("expected {kw}")))
        }
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        let hit = matches!(self.peek(), Some(Token::Symbol(sym)) if *sym == s);
        self.pos += usize::from(hit);
        hit
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(DbError::parse(format!("expected '{s}'")))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(Token::Word(w) | Token::QuotedIdent(w)) => {
                let w = w.clone();
                self.pos += 1;
                Ok(w)
            }
            _ => Err(DbError::parse("expected an identifier")),
        }
    }

    /// `[AS] name` after a projection or a FROM source. A reserved word
    /// there starts the next clause: it is not an alias.
    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w)) {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    /// `item {, item}`.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut out = vec![item(self)?];
        while self.eat_symbol(",") {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// `[kw expr]`: a WHERE or HAVING clause.
    fn clause(&mut self, kw: &str) -> Result<Option<Expr>> {
        if self.eat_kw(kw) {
            Ok(Some(self.parse_expr()?))
        } else {
            Ok(None)
        }
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        if self.peek_kw("SELECT") {
            return Ok(Stmt::Select(self.parse_select()?));
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.parse_create_table();
            }
            if self.eat_kw("VIEW") {
                let name = self.ident()?;
                self.expect_kw("AS")?;
                let query = self.parse_select()?;
                return Ok(Stmt::CreateView { name, query });
            }
            self.expect_kw("INDEX")?;
            let if_not_exists = self.parse_if_not_exists()?;
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_symbol("(")?;
            let column = self.ident()?;
            self.expect_symbol(")")?;
            return Ok(Stmt::CreateIndex {
                name,
                table,
                column,
                if_not_exists,
            });
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            self.expect_kw("VALUES")?;
            self.expect_symbol("(")?;
            let values = self.list(Self::parse_expr)?;
            self.expect_symbol(")")?;
            return Ok(Stmt::Insert { table, values });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = self.clause("WHERE")?;
            return Ok(Stmt::Delete { table, filter });
        }
        if self.eat_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let sets = self.list(|p| {
                let col = p.ident()?;
                p.expect_symbol("=")?;
                Ok((col, p.parse_expr()?))
            })?;
            let filter = self.clause("WHERE")?;
            return Ok(Stmt::Update {
                table,
                sets,
                filter,
            });
        }
        Err(DbError::parse(
            "expected SELECT, CREATE, INSERT, DELETE or UPDATE",
        ))
    }

    fn parse_if_not_exists(&mut self) -> Result<bool> {
        if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn parse_create_table(&mut self) -> Result<Stmt> {
        let if_not_exists = self.parse_if_not_exists()?;
        let name = self.ident()?;
        self.expect_symbol("(")?;
        // `name [type]`: a one-word type names the affinity; no
        // constraint or size follows it.
        let columns = self.list(|p| {
            let name = p.ident()?;
            let decl_type = match p.peek() {
                Some(Token::Word(w)) => w.clone(),
                _ => String::new(),
            };
            p.pos += usize::from(!decl_type.is_empty());
            Ok(ColumnDef { name, decl_type })
        })?;
        self.expect_symbol(")")?;
        Ok(Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let projections = self.list(|p| {
            if p.eat_symbol("*") {
                return Ok(SelectItem::Star);
            }
            let expr = p.parse_expr()?;
            Ok(SelectItem::Expr {
                expr,
                alias: p.alias()?,
            })
        })?;
        self.expect_kw("FROM")?;
        let from = self.parse_from()?;
        let filter = self.clause("WHERE")?;
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by = self.list(Self::parse_expr)?;
        }
        let having = self.clause("HAVING")?;
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            order_by = self.list(|p| {
                if matches!(p.peek(), Some(Token::Int(_))) {
                    return Err(DbError::parse(
                        "ORDER BY takes an expression, not a position",
                    ));
                }
                let expr = p.parse_expr()?;
                let desc = p.eat_kw("DESC");
                Ok(OrderTerm { expr, desc })
            })?;
        }
        let mut limit = None;
        if self.eat_kw("LIMIT") {
            let Some(&Token::Int(n)) = self.peek() else {
                return Err(DbError::parse("LIMIT takes an integer"));
            };
            self.pos += 1;
            limit = Some(n as usize);
        }
        Ok(Select {
            distinct,
            projections,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_from(&mut self) -> Result<FromClause> {
        let first = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw("NATURAL") {
                JoinKind::Natural
            } else if self.peek_kw("JOIN") {
                JoinKind::Inner
            } else {
                break;
            };
            self.expect_kw("JOIN")?;
            let table = self.parse_table_ref()?;
            let on = match kind {
                JoinKind::Natural => None,
                JoinKind::Inner => {
                    self.expect_kw("ON")?;
                    Some(self.parse_expr()?)
                }
            };
            joins.push(Join { kind, table, on });
        }
        Ok(FromClause { first, joins })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        if self.eat_symbol("(") {
            let query = Box::new(self.parse_select()?);
            self.expect_symbol(")")?;
            let alias = self.alias()?;
            return Ok(TableRef::Subquery { query, alias });
        }
        let name = self.ident()?;
        let alias = self.alias()?;
        Ok(TableRef::Named { name, alias })
    }

    // Expression parsing: precedence climbing, loosest first.

    fn parse_expr(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            left = binary(BinOp::Or, left, self.parse_and()?);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_comparison()?;
        while self.eat_kw("AND") {
            left = binary(BinOp::And, left, self.parse_comparison()?);
        }
        Ok(left)
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        let negated = self.eat_kw("NOT");
        if negated || self.peek_kw("IN") {
            // `IN` takes a subquery; a literal list is not in the subset.
            self.expect_kw("IN")?;
            self.expect_symbol("(")?;
            let query = Box::new(self.parse_select()?);
            self.expect_symbol(")")?;
            return Ok(Expr::InSubquery {
                expr: Box::new(left),
                query,
                negated,
            });
        }
        let op = if self.eat_symbol("=") {
            BinOp::Eq
        } else if self.eat_symbol("!=") {
            BinOp::Ne
        } else if self.eat_symbol("<") {
            BinOp::Lt
        } else if self.eat_symbol(">") {
            BinOp::Gt
        } else {
            return Ok(left);
        };
        Ok(binary(op, left, self.parse_additive()?))
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_primary()?;
        while self.eat_symbol("+") {
            left = binary(BinOp::Add, left, self.parse_primary()?);
        }
        Ok(left)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let Some(token) = self.peek().cloned() else {
            return Err(DbError::parse("expected an expression"));
        };
        match token {
            Token::Int(i) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Integer(i)))
            }
            Token::Str(s) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Token::Param(n) => {
                self.pos += 1;
                Ok(Expr::Param(n))
            }
            // `-` is part of an integer literal (`c.size = -1`), not an
            // operator.
            Token::Symbol("-") => match self.tokens.get(self.pos + 1) {
                Some(&Token::Int(i)) => {
                    self.pos += 2;
                    Ok(Expr::Literal(Value::Integer(-i)))
                }
                _ => Err(DbError::parse("'-' only negates an integer literal")),
            },
            Token::Symbol("(") => {
                self.pos += 1;
                let e = if self.peek_kw("SELECT") {
                    Expr::Subquery(Box::new(self.parse_select()?))
                } else {
                    self.parse_expr()?
                };
                self.expect_symbol(")")?;
                Ok(e)
            }
            Token::Word(w) if w.eq_ignore_ascii_case("NOT") || w.eq_ignore_ascii_case("EXISTS") => {
                // `NOT` negates only EXISTS here (`x NOT IN` is read by
                // the comparison).
                let negated = self.eat_kw("NOT");
                self.expect_kw("EXISTS")?;
                self.expect_symbol("(")?;
                let query = Box::new(self.parse_select()?);
                self.expect_symbol(")")?;
                Ok(Expr::Exists { query, negated })
            }
            Token::Word(w) if is_reserved(&w) => Err(DbError::parse(format!(
                "unexpected keyword {w} in expression"
            ))),
            Token::Word(name) | Token::QuotedIdent(name) => {
                self.pos += 1;
                if self.eat_symbol("(") {
                    return self.parse_aggregate(name);
                }
                if self.eat_symbol(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            _ => Err(DbError::parse("expected an expression")),
        }
    }

    /// `COUNT(*)`, `COUNT(e)` or `MAX(e)`, after the `(`: the subset's
    /// only functions.
    fn parse_aggregate(&mut self, name: String) -> Result<Expr> {
        let name = name.to_ascii_uppercase();
        if name != "COUNT" && name != "MAX" {
            return Err(DbError::parse(format!(
                "unsupported function {name}: only COUNT and MAX"
            )));
        }
        let arg = if name == "COUNT" && self.eat_symbol("*") {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        self.expect_symbol(")")?;
        Ok(Expr::Function { name, arg })
    }
}

fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
    Expr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Words that are never an alias or a column: the subset's keywords,
/// and those of the constructs it refuses, so that `t LEFT JOIN u` or
/// `SELECT ALL a` fails to parse instead of reading `LEFT` or `ALL` as a
/// name.
fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP",
        "BY",
        "HAVING",
        "ORDER",
        "LIMIT",
        "OFFSET",
        "AS",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "BETWEEN",
        "LIKE",
        "JOIN",
        "INNER",
        "LEFT",
        "OUTER",
        "CROSS",
        "NATURAL",
        "ON",
        "UNION",
        "EXCEPT",
        "INTERSECT",
        "DISTINCT",
        "ALL",
        "INSERT",
        "INTO",
        "VALUES",
        "DELETE",
        "UPDATE",
        "SET",
        "CREATE",
        "TABLE",
        "VIEW",
        "DROP",
        "IF",
        "EXISTS",
        "PRIMARY",
        "KEY",
        "DESC",
        "ASC",
        "CASE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
    ];
    RESERVED.iter().any(|r| word.eq_ignore_ascii_case(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(sql: &str) -> Stmt {
        parse_one(sql).unwrap().0
    }

    #[test]
    fn parses_simple_select() {
        let s = one("SELECT a, b AS bee FROM t WHERE a > 3 ORDER BY b DESC LIMIT 10");
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.projections.len(), 2);
        assert!(sel.filter.is_some());
        assert_eq!(sel.order_by.len(), 1);
        assert!(sel.order_by[0].desc);
        assert_eq!(sel.limit, Some(10));
    }

    #[test]
    fn parses_paper_git_soundness_invariant() {
        // Verbatim from §6.2 of the paper.
        let sql = "SELECT * FROM advertisements a WHERE cid != (
            SELECT u.cid FROM updates u WHERE u.repo = a.repo AND
            u.branch = a.branch AND u.time < a.time ORDER BY
            u.time DESC LIMIT 1)";
        let s = one(sql);
        let Stmt::Select(sel) = s else { panic!() };
        assert!(matches!(
            sel.filter,
            Some(Expr::Binary { op: BinOp::Ne, .. })
        ));
    }

    #[test]
    fn parses_paper_branchcnt_view() {
        // Verbatim from §6.2 of the paper.
        let sql = "CREATE VIEW branchcnt AS
            SELECT DISTINCT a.time,a.repo,COUNT(u.branch) AS cnt
            FROM advertisements a
            JOIN updates u ON u.time < a.time AND u.repo = a.repo
            WHERE u.type != 'delete' AND u.time = (SELECT MAX(time)
            FROM updates WHERE branch = u.branch
            AND repo = u.repo AND time < a.time) GROUP BY
            a.time,a.repo,a.branch";
        let s = one(sql);
        let Stmt::CreateView { name, query } = s else {
            panic!()
        };
        assert_eq!(name, "branchcnt");
        assert!(query.distinct);
        assert_eq!(query.group_by.len(), 3);
        assert_eq!(query.from.joins.len(), 1);
        assert!(query.from.joins[0].on.is_some());
    }

    #[test]
    fn parses_paper_completeness_invariant() {
        // Verbatim from §1 of the paper.
        let sql = "SELECT time, repo FROM advertisements
            NATURAL JOIN branchcnt
            GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt";
        let s = one(sql);
        let Stmt::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.joins[0].kind, JoinKind::Natural);
        assert_eq!(sel.group_by.len(), 3);
        assert!(sel.having.is_some());
    }

    #[test]
    fn parses_paper_trimming_queries() {
        // Verbatim from §5.1 of the paper.
        let sql = "DELETE FROM advertisements;
             DELETE FROM updates WHERE time NOT IN
               (SELECT MAX(time) FROM updates GROUP BY repo, branch);";
        let stmts = parse(sql).unwrap();
        assert_eq!(stmts.len(), 2);
        let Stmt::Delete {
            filter: Some(f), ..
        } = &stmts[1].0
        else {
            panic!()
        };
        assert!(matches!(f, Expr::InSubquery { negated: true, .. }));
        // Each span is the statement alone: no separator or indentation.
        let text = |i: usize| &sql[stmts[i].1.clone()];
        assert_eq!(text(0), "DELETE FROM advertisements");
        assert!(text(1).starts_with("DELETE FROM updates") && text(1).ends_with("branch)"));
    }

    #[test]
    fn parses_create_table_with_types() {
        let s = one("CREATE TABLE IF NOT EXISTS updates(
                time INTEGER, repo TEXT, branch, cid TEXT, type TEXT)");
        let Stmt::CreateTable {
            columns,
            if_not_exists,
            ..
        } = s
        else {
            panic!()
        };
        assert!(if_not_exists);
        assert_eq!(columns.len(), 5);
        assert_eq!(columns[1].decl_type, "TEXT");
        assert_eq!(columns[2].decl_type, "");
    }

    #[test]
    fn parses_insert_with_params() {
        let s = one("INSERT INTO t VALUES (?, ?2, -1, 'x')");
        let Stmt::Insert { values, .. } = s else {
            panic!()
        };
        assert_eq!(values[0], Expr::Param(0));
        assert_eq!(values[1], Expr::Param(1));
        assert_eq!(values[2], Expr::Literal(Value::Integer(-1)));
    }

    #[test]
    fn parses_exists_and_not_exists() {
        let s = one("SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM t)");
        let Stmt::Select(sel) = s else { panic!() };
        assert!(matches!(
            sel.filter,
            Some(Expr::Exists { negated: true, .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_one("SELEC x FROM t").is_err());
        assert!(parse_one("SELECT FROM").is_err());
        assert!(parse_one("SELECT 1").is_err());
        assert!(parse_one("").is_err());
    }

    #[test]
    fn subquery_in_from() {
        let s = one("SELECT n FROM (SELECT COUNT(*) AS n FROM t) sub");
        let Stmt::Select(sel) = s else { panic!() };
        let TableRef::Subquery { alias, .. } = sel.from.first else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("sub"));
    }

    #[test]
    fn update_statement() {
        let s = one("UPDATE t SET a = a + 1, b = 'x' WHERE id = 3");
        let Stmt::Update { sets, filter, .. } = s else {
            panic!()
        };
        assert_eq!(sets.len(), 2);
        assert!(filter.is_some());
    }
}
