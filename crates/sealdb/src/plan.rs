//! Lightweight planning helpers: conjunct analysis for hash joins,
//! index-probe eligibility, and free-variable analysis for subquery
//! memoization.
//!
//! Nothing in here changes semantics on its own — the executor only
//! uses these analyses to pick a faster, result-identical strategy
//! (hash build/probe instead of a nested loop, an index bucket instead
//! of a full scan, a cached subquery result instead of a re-execution).
//! Whenever an analysis cannot prove a rewrite safe it returns `None`
//! and the executor falls back to the naive path.

use crate::ast::{Expr, FromClause, Select, SelectItem, TableRef};
use crate::catalog::Catalog;
use crate::exec::ColMeta;
use crate::value::Value;

/// Splits a predicate into its top-level AND conjuncts.
pub fn split_and(e: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: crate::ast::BinOp::And,
            left,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(e, &mut out);
    out
}

/// Resolves a column reference against a column list using the same
/// first-match rule as the executor's `Env::lookup`.
pub fn resolve_in(cols: &[ColMeta], table: Option<&str>, name: &str) -> Option<usize> {
    cols.iter().position(|c| {
        c.name.eq_ignore_ascii_case(name)
            && match (table, &c.table) {
                (Some(q), Some(t)) => q.eq_ignore_ascii_case(t),
                (Some(_), None) => false,
                (None, _) => true,
            }
    })
}

/// Which side of a join a column reference binds to under the
/// combined-row resolution order (left columns first).
enum Side {
    Left(usize),
    Right(usize),
}

fn side_of(e: &Expr, left: &[ColMeta], right: &[ColMeta]) -> Option<Side> {
    let Expr::Column { table, name } = e else {
        return None;
    };
    if let Some(li) = resolve_in(left, table.as_deref(), name) {
        return Some(Side::Left(li));
    }
    resolve_in(right, table.as_deref(), name).map(Side::Right)
}

/// Recognises `l.x = r.y` (either orientation) where the two sides
/// resolve to different join sides; returns `(left_idx, right_idx)`.
pub fn equi_key(e: &Expr, left: &[ColMeta], right: &[ColMeta]) -> Option<(usize, usize)> {
    let Expr::Binary {
        op: crate::ast::BinOp::Eq,
        left: a,
        right: b,
    } = e
    else {
        return None;
    };
    match (side_of(a, left, right)?, side_of(b, left, right)?) {
        (Side::Left(l), Side::Right(r)) | (Side::Right(r), Side::Left(l)) => Some((l, r)),
        _ => None,
    }
}

/// Whether the expression contains a subquery anywhere.
pub fn has_subquery(e: &Expr) -> bool {
    match e {
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::Subquery(_) => true,
        Expr::Binary { left, right, .. } => has_subquery(left) || has_subquery(right),
        Expr::Function { arg, .. } => arg.as_deref().is_some_and(has_subquery),
        Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => false,
    }
}

/// Whether the expression references any column that resolves in
/// `cols` (i.e. depends on the scanned row rather than only on outer
/// scopes, parameters and literals). Does not look inside subqueries —
/// callers reject those separately with [`has_subquery`].
pub fn refs_scope(e: &Expr, cols: &[ColMeta]) -> bool {
    match e {
        Expr::Column { table, name } => resolve_in(cols, table.as_deref(), name).is_some(),
        Expr::Binary { left, right, .. } => refs_scope(left, cols) || refs_scope(right, cols),
        Expr::Function { arg, .. } => arg.as_deref().is_some_and(|a| refs_scope(a, cols)),
        Expr::Literal(_) | Expr::Param(_) => false,
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::Subquery(_) => false,
    }
}

/// Whether any of the given columns holds a `NaN` real in `data`.
///
/// `total_cmp` treats NaN as equal to every numeric while a group
/// class separates it by bit pattern, so hash-based strategies are
/// only sound when the key columns are NaN-free.
pub fn has_nan(data: &[Vec<Value>], cols: impl Iterator<Item = usize> + Clone) -> bool {
    data.iter().any(|row| {
        cols.clone()
            .any(|c| matches!(row.get(c), Some(Value::Real(f)) if f.is_nan()))
    })
}

/// A FROM source as seen by the free-variable analysis: the label it
/// is referenced by, and its column names when they can be determined
/// statically (None = unknown, treat nothing as bound by it for
/// qualified refs).
struct Source {
    label: Option<String>,
    cols: Option<Vec<String>>,
}

/// Output column names of a SELECT, when statically derivable.
/// `None` when the projection contains a star.
fn select_out_names(sel: &Select) -> Option<Vec<String>> {
    let mut out = Vec::new();
    for item in &sel.projections {
        match item {
            SelectItem::Star => return None,
            SelectItem::Expr { expr, alias } => {
                out.push(alias.clone().unwrap_or_else(|| expr.display_name()));
            }
        }
    }
    Some(out)
}

fn source_of(tref: &TableRef, catalog: &Catalog) -> Source {
    match tref {
        TableRef::Named { name, alias } => {
            let label = Some(alias.clone().unwrap_or_else(|| name.clone()));
            let cols = if let Some(t) = catalog.table(name) {
                Some(t.columns.iter().map(|c| c.name.clone()).collect())
            } else {
                catalog.view(name).and_then(select_out_names)
            };
            Source { label, cols }
        }
        TableRef::Subquery { query, alias } => Source {
            label: alias.clone(),
            cols: select_out_names(query),
        },
    }
}

/// Computes an over-approximation of the column references a SELECT
/// resolves in its *outer* environment (its free variables). Used to
/// key the subquery memo cache: two executions with identical free
/// bindings must return identical rows.
///
/// Over-approximating (reporting a bound ref as free) only costs cache
/// hits; under-approximating would be unsound, so every "bound"
/// decision errs on the side of freedom when column sets are unknown.
pub fn free_refs(sel: &Select, catalog: &Catalog) -> Vec<(Option<String>, String)> {
    let mut out = Vec::new();
    collect_free(sel, catalog, &mut out);
    out.sort();
    out.dedup();
    out
}

fn collect_free(sel: &Select, catalog: &Catalog, out: &mut Vec<(Option<String>, String)>) {
    // Refs evaluated in this select's row scope.
    let mut mine: Vec<(Option<String>, String)> = Vec::new();

    let from = &sel.from;
    let mut sources: Vec<Source> = Vec::new();
    for tref in std::iter::once(&from.first).chain(from.joins.iter().map(|j| &j.table)) {
        sources.push(source_of(tref, catalog));
        // FROM sources execute against this select's *outer*
        // environment (not its row scope), so their free refs escape
        // directly.
        match tref {
            TableRef::Named { name, .. } => {
                if catalog.table(name).is_none() {
                    if let Some(q) = catalog.view(name) {
                        collect_free(q, catalog, out);
                    }
                }
            }
            TableRef::Subquery { query, .. } => collect_free(query, catalog, out),
        }
    }
    // NATURAL JOIN strips qualifiers from merged columns, so qualified
    // refs may fall through to the outer scope; treat every qualified
    // ref as free.
    let has_natural = (from.joins.iter()).any(|j| j.kind == crate::ast::JoinKind::Natural);
    for on in from.joins.iter().filter_map(|j| j.on.as_ref()) {
        collect_refs(on, catalog, &mut mine);
    }

    for item in &sel.projections {
        if let SelectItem::Expr { expr, .. } = item {
            collect_refs(expr, catalog, &mut mine);
        }
    }
    if let Some(f) = &sel.filter {
        collect_refs(f, catalog, &mut mine);
    }
    for g in &sel.group_by {
        collect_refs(g, catalog, &mut mine);
    }
    if let Some(h) = &sel.having {
        collect_refs(h, catalog, &mut mine);
    }
    for o in &sel.order_by {
        collect_refs(&o.expr, catalog, &mut mine);
    }

    for (q, n) in mine {
        let bound = match &q {
            Some(qq) => {
                !has_natural
                    && sources.iter().any(|s| {
                        s.label
                            .as_deref()
                            .is_some_and(|l| l.eq_ignore_ascii_case(qq))
                            && s.cols
                                .as_ref()
                                .is_some_and(|cs| cs.iter().any(|c| c.eq_ignore_ascii_case(&n)))
                    })
            }
            None => sources.iter().any(|s| {
                s.cols
                    .as_ref()
                    .is_some_and(|cs| cs.iter().any(|c| c.eq_ignore_ascii_case(&n)))
            }),
        };
        if !bound {
            out.push((q, n));
        }
    }
}

/// Collects every column reference syntactically evaluated in the
/// current row scope; nested subqueries contribute their own free
/// refs (they see this scope through the environment chain).
fn collect_refs(e: &Expr, catalog: &Catalog, out: &mut Vec<(Option<String>, String)>) {
    match e {
        Expr::Column { table, name } => out.push((table.clone(), name.clone())),
        Expr::Literal(_) | Expr::Param(_) => {}
        Expr::Binary { left, right, .. } => {
            collect_refs(left, catalog, out);
            collect_refs(right, catalog, out);
        }
        Expr::Function { arg, .. } => {
            if let Some(a) = arg {
                collect_refs(a, catalog, out);
            }
        }
        Expr::InSubquery { expr, query, .. } => {
            collect_refs(expr, catalog, out);
            collect_free(query, catalog, out);
        }
        Expr::Exists { query, .. } => collect_free(query, catalog, out),
        Expr::Subquery(query) => collect_free(query, catalog, out),
    }
}

/// The single named, un-joined base table of a FROM clause, if that is
/// what it is (the only shape the index-scan fast path handles).
pub fn single_base_table(from: &FromClause) -> Option<(&str, Option<&str>)> {
    if !from.joins.is_empty() {
        return None;
    }
    match &from.first {
        TableRef::Named { name, alias } => Some((name.as_str(), alias.as_deref())),
        TableRef::Subquery { .. } => None,
    }
}
