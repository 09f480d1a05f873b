//! A recursive-descent SQL parser covering the dialect LibSEAL needs:
//! the paper's invariant and trimming queries (correlated subqueries,
//! NATURAL JOIN, views, GROUP BY/HAVING, ORDER BY/LIMIT) plus the DML
//! the service-specific modules use.

use std::ops::Range;

use crate::ast::*;
use crate::token::{tokenize, Token};
use crate::value::Value;
use crate::{DbError, Result};

/// Parses a string of one or more `;`-separated statements, each
/// with the byte range of `sql` it was read from (first token to last:
/// no separator, surrounding space or comment). That slice is the
/// statement's one textual form — what the journal and the catalog keep.
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
        let stmt = p.parse_stmt()?;
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

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(sym)) if *sym == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(DbError::parse(format!(
                "expected '{s}', found {:?}",
                self.peek()
            )))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w),
            Some(Token::QuotedIdent(w)) => Ok(w),
            other => Err(DbError::parse(format!(
                "expected identifier, found {other:?}"
            ))),
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
                let if_not_exists = self.parse_if_not_exists()?;
                let name = self.ident()?;
                self.expect_kw("AS")?;
                let query = self.parse_select()?;
                return Ok(Stmt::CreateView {
                    name,
                    query,
                    if_not_exists,
                });
            }
            if self.eat_kw("INDEX") {
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
            return Err(DbError::parse(
                "CREATE must be followed by TABLE, VIEW or INDEX",
            ));
        }
        if self.eat_kw("DROP") {
            let kind = if self.eat_kw("TABLE") {
                "table"
            } else if self.eat_kw("VIEW") {
                "view"
            } else if self.eat_kw("INDEX") {
                "index"
            } else {
                return Err(DbError::parse(
                    "DROP must be followed by TABLE, VIEW or INDEX",
                ));
            };
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(match kind {
                "view" => Stmt::DropView { name, if_exists },
                "index" => Stmt::DropIndex { name, if_exists },
                _ => Stmt::DropTable { name, if_exists },
            });
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            let columns = if self.eat_symbol("(") {
                let mut cols = Vec::new();
                loop {
                    cols.push(self.ident()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
                Some(cols)
            } else {
                None
            };
            self.expect_kw("VALUES")?;
            let mut rows = Vec::new();
            loop {
                self.expect_symbol("(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
                rows.push(row);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            return Ok(Stmt::Insert {
                table,
                columns,
                rows,
            });
        }
        if self.eat_kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let filter = if self.eat_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Stmt::Delete { table, filter });
        }
        if self.eat_kw("UPDATE") {
            let table = self.ident()?;
            self.expect_kw("SET")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_symbol("=")?;
                sets.push((col, self.parse_expr()?));
                if !self.eat_symbol(",") {
                    break;
                }
            }
            let filter = if self.eat_kw("WHERE") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Stmt::Update {
                table,
                sets,
                filter,
            });
        }
        Err(DbError::parse(format!(
            "unsupported statement starting with {:?}",
            self.peek()
        )))
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
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            // Type declaration: any words up to a constraint keyword,
            // comma or close paren.
            let mut decl = String::new();
            while let Some(Token::Word(w)) = self.peek() {
                if ["PRIMARY", "NOT", "UNIQUE", "DEFAULT", "CHECK", "REFERENCES"]
                    .iter()
                    .any(|k| w.eq_ignore_ascii_case(k))
                {
                    break;
                }
                if !decl.is_empty() {
                    decl.push(' ');
                }
                decl.push_str(w);
                self.pos += 1;
            }
            // Optional parenthesised size, e.g. VARCHAR(20).
            if self.eat_symbol("(") {
                while !self.eat_symbol(")") {
                    if self.next().is_none() {
                        return Err(DbError::parse("unterminated type declaration"));
                    }
                }
            }
            let mut primary_key = false;
            loop {
                if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    primary_key = true;
                } else if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                } else if self.eat_kw("UNIQUE") {
                } else if self.eat_kw("DEFAULT") {
                    let _ = self.parse_expr()?;
                } else {
                    break;
                }
            }
            columns.push(ColumnDef {
                name: col_name,
                decl_type: decl,
                primary_key,
            });
            if !self.eat_symbol(",") {
                break;
            }
            // Table-level PRIMARY KEY (cols) constraint.
            if self.peek_kw("PRIMARY") {
                self.expect_kw("PRIMARY")?;
                self.expect_kw("KEY")?;
                self.expect_symbol("(")?;
                loop {
                    let key_col = self.ident()?;
                    if let Some(c) = columns.iter_mut().find(|c| c.name == key_col) {
                        c.primary_key = true;
                    }
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
                break;
            }
        }
        self.expect_symbol(")")?;
        Ok(Stmt::CreateTable {
            name,
            columns,
            if_not_exists,
        })
    }

    /// Parses a full SELECT (after optionally consuming the keyword).
    pub fn parse_select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            let _ = self.eat_kw("ALL");
            false
        };

        let mut projections = Vec::new();
        loop {
            if self.eat_symbol("*") {
                projections.push(SelectItem::Star);
            } else if matches!(self.peek(), Some(Token::Word(_) | Token::QuotedIdent(_)))
                && matches!(self.peek2(), Some(Token::Symbol(".")))
                && matches!(self.tokens.get(self.pos + 2), Some(Token::Symbol("*")))
            {
                let t = self.ident()?;
                self.expect_symbol(".")?;
                self.expect_symbol("*")?;
                projections.push(SelectItem::QualifiedStar(t));
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_kw("AS")
                    || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w))
                {
                    Some(self.ident()?)
                } else {
                    None
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_symbol(",") {
                break;
            }
        }

        let from = if self.eat_kw("FROM") {
            Some(self.parse_from()?)
        } else {
            None
        };

        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }

        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    let _ = self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderTerm { expr, desc });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }

        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.parse_expr()?);
            if self.eat_kw("OFFSET") {
                offset = Some(self.parse_expr()?);
            } else if self.eat_symbol(",") {
                // LIMIT offset, count (MySQL/SQLite form).
                offset = limit.take();
                limit = Some(self.parse_expr()?);
            }
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
            offset,
        })
    }

    fn parse_from(&mut self) -> Result<FromClause> {
        let first = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_symbol(",") {
                let table = self.parse_table_ref()?;
                joins.push(Join {
                    kind: JoinKind::Inner,
                    table,
                    on: None,
                });
            } else if self.peek_kw("NATURAL") {
                self.expect_kw("NATURAL")?;
                let _ = self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                let table = self.parse_table_ref()?;
                joins.push(Join {
                    kind: JoinKind::Natural,
                    table,
                    on: None,
                });
            } else if self.peek_kw("LEFT") {
                self.expect_kw("LEFT")?;
                let _ = self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                let table = self.parse_table_ref()?;
                let on = if self.eat_kw("ON") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                joins.push(Join {
                    kind: JoinKind::Left,
                    table,
                    on,
                });
            } else if self.peek_kw("JOIN") || self.peek_kw("INNER") || self.peek_kw("CROSS") {
                let _ = self.eat_kw("INNER");
                let _ = self.eat_kw("CROSS");
                self.expect_kw("JOIN")?;
                let table = self.parse_table_ref()?;
                let on = if self.eat_kw("ON") {
                    Some(self.parse_expr()?)
                } else {
                    None
                };
                joins.push(Join {
                    kind: JoinKind::Inner,
                    table,
                    on,
                });
            } else {
                break;
            }
        }
        Ok(FromClause { first, joins })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        if self.eat_symbol("(") {
            let query = self.parse_select()?;
            self.expect_symbol(")")?;
            let alias = if self.eat_kw("AS")
                || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w))
            {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS")
            || matches!(self.peek(), Some(Token::Word(w)) if !is_reserved(w))
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Named { name, alias })
    }

    // Expression parsing: precedence climbing.

    /// Parses an expression.
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            // NOT EXISTS is handled in primary; general NOT here.
            if self.peek_kw("EXISTS") {
                let mut e = self.parse_primary()?;
                if let Expr::Exists { negated, .. } = &mut e {
                    *negated = true;
                }
                return Ok(e);
            }
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect_symbol("(")?;
            if self.peek_kw("SELECT") {
                let q = self.parse_select()?;
                self.expect_symbol(")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(DbError::parse("expected IN, BETWEEN or LIKE after NOT"));
        }
        let op = if self.eat_symbol("=") || self.eat_symbol("==") {
            BinOp::Eq
        } else if self.eat_symbol("!=") || self.eat_symbol("<>") {
            BinOp::Ne
        } else if self.eat_symbol("<=") {
            BinOp::Le
        } else if self.eat_symbol(">=") {
            BinOp::Ge
        } else if self.eat_symbol("<") {
            BinOp::Lt
        } else if self.eat_symbol(">") {
            BinOp::Gt
        } else {
            return Ok(left);
        };
        let right = self.parse_additive()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = if self.eat_symbol("+") {
                BinOp::Add
            } else if self.eat_symbol("-") {
                BinOp::Sub
            } else {
                break;
            };
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_concat()?;
        loop {
            let op = if self.eat_symbol("*") {
                BinOp::Mul
            } else if self.eat_symbol("/") {
                BinOp::Div
            } else if self.eat_symbol("%") {
                BinOp::Rem
            } else {
                break;
            };
            let right = self.parse_concat()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_concat(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        while self.eat_symbol("||") {
            let right = self.parse_unary()?;
            left = Expr::Binary {
                op: BinOp::Concat,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_symbol("-") {
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(inner),
            });
        }
        if self.eat_symbol("+") {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Integer(i)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Real(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Text(s)))
            }
            Some(Token::Blob(b)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Blob(b)))
            }
            Some(Token::Param(n)) => {
                self.pos += 1;
                Ok(Expr::Param(n))
            }
            Some(Token::Symbol("(")) => {
                self.pos += 1;
                if self.peek_kw("SELECT") {
                    let q = self.parse_select()?;
                    self.expect_symbol(")")?;
                    return Ok(Expr::Subquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("NULL") => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("CASE") => {
                self.pos += 1;
                let operand = if self.peek_kw("WHEN") {
                    None
                } else {
                    Some(Box::new(self.parse_expr()?))
                };
                let mut branches = Vec::new();
                while self.eat_kw("WHEN") {
                    let when = self.parse_expr()?;
                    self.expect_kw("THEN")?;
                    let then = self.parse_expr()?;
                    branches.push((when, then));
                }
                let else_expr = if self.eat_kw("ELSE") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_kw("END")?;
                Ok(Expr::Case {
                    operand,
                    branches,
                    else_expr,
                })
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("EXISTS") => {
                self.pos += 1;
                self.expect_symbol("(")?;
                let q = self.parse_select()?;
                self.expect_symbol(")")?;
                Ok(Expr::Exists {
                    query: Box::new(q),
                    negated: false,
                })
            }
            Some(Token::Word(w)) if is_reserved(&w) => Err(DbError::parse(format!(
                "unexpected keyword {w} in expression"
            ))),
            Some(Token::Word(_)) | Some(Token::QuotedIdent(_)) => {
                let name = self.ident()?;
                // Function call?
                if matches!(self.peek(), Some(Token::Symbol("("))) {
                    self.pos += 1;
                    let fname = name.to_ascii_uppercase();
                    let mut star = false;
                    let mut distinct = false;
                    let mut args = Vec::new();
                    if self.eat_symbol("*") {
                        star = true;
                    } else if !matches!(self.peek(), Some(Token::Symbol(")"))) {
                        distinct = self.eat_kw("DISTINCT");
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_symbol(",") {
                                break;
                            }
                        }
                    }
                    self.expect_symbol(")")?;
                    return Ok(Expr::Function {
                        name: fname,
                        args,
                        star,
                        distinct,
                    });
                }
                // Qualified column t.c?
                if self.eat_symbol(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(DbError::parse(format!("unexpected token {other:?}"))),
        }
    }
}

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
        assert!(sel.limit.is_some());
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
        let Stmt::CreateView { name, query, .. } = s else {
            panic!()
        };
        assert_eq!(name, "branchcnt");
        assert!(query.distinct);
        assert_eq!(query.group_by.len(), 3);
        let from = query.from.unwrap();
        assert_eq!(from.joins.len(), 1);
        assert!(from.joins[0].on.is_some());
    }

    #[test]
    fn parses_paper_completeness_invariant() {
        // Verbatim from §1 of the paper.
        let sql = "SELECT time, repo FROM advertisements
            NATURAL JOIN branchcnt
            GROUP BY time, repo, cnt HAVING COUNT(branch) != cnt";
        let s = one(sql);
        let Stmt::Select(sel) = s else { panic!() };
        let from = sel.from.unwrap();
        assert_eq!(from.joins[0].kind, JoinKind::Natural);
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
                time INTEGER PRIMARY KEY, repo TEXT, branch TEXT,
                cid TEXT, type TEXT)");
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
        assert!(columns[0].primary_key);
        assert_eq!(columns[1].decl_type, "TEXT");
    }

    #[test]
    fn parses_insert_with_params() {
        let s = one("INSERT INTO t(a, b) VALUES (?, ?), (?, 4)");
        let Stmt::Insert { rows, columns, .. } = s else {
            panic!()
        };
        assert_eq!(columns.unwrap().len(), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Expr::Param(0));
        assert_eq!(rows[1][0], Expr::Param(2));
    }

    #[test]
    fn parses_exists_and_not_exists() {
        let s = one("SELECT 1 WHERE NOT EXISTS (SELECT 1 FROM t)");
        let Stmt::Select(sel) = s else { panic!() };
        assert!(matches!(
            sel.filter,
            Some(Expr::Exists { negated: true, .. })
        ));
    }

    #[test]
    fn parses_case_expression() {
        let s = one("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t");
        let Stmt::Select(sel) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &sel.projections[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Case { .. }));
    }

    #[test]
    fn parses_between_and_like() {
        let s = one("SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE 'x%'");
        let Stmt::Select(sel) = s else { panic!() };
        assert!(sel.filter.is_some());
    }

    #[test]
    fn table_alias_without_as() {
        let s = one("SELECT a.x FROM mytable a, other b");
        let Stmt::Select(sel) = s else { panic!() };
        let from = sel.from.unwrap();
        assert_eq!(from.first.effective_name(), Some("a"));
        assert_eq!(from.joins.len(), 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_one("SELEC x FROM t").is_err());
        assert!(parse_one("SELECT FROM").is_err());
        assert!(parse_one("").is_err());
    }

    #[test]
    fn subquery_in_from() {
        let s = one("SELECT n FROM (SELECT COUNT(*) AS n FROM t) sub");
        let Stmt::Select(sel) = s else { panic!() };
        let from = sel.from.unwrap();
        assert!(matches!(from.first, TableRef::Subquery { .. }));
        assert_eq!(from.first.effective_name(), Some("sub"));
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
