//! The query executor: a straightforward tuple-at-a-time interpreter
//! with nested-loop joins, grouping, correlated subqueries and views —
//! what the paper's invariant and trimming queries need, and no more
//! (the parser admits nothing else).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::*;
use crate::catalog::Catalog;
use crate::plan;
use crate::value::Value;
use crate::{DbError, Result};

/// Tables scans answered by the equality-index fast path vs. full scans.
fn index_counters() -> &'static (libseal_telemetry::Counter, libseal_telemetry::Counter) {
    static C: std::sync::OnceLock<(libseal_telemetry::Counter, libseal_telemetry::Counter)> =
        std::sync::OnceLock::new();
    C.get_or_init(|| {
        (
            libseal_telemetry::counter("sealdb_index_hits_total"),
            libseal_telemetry::counter("sealdb_index_misses_total"),
        )
    })
}

/// Metadata for one column of an intermediate or final row set.
#[derive(Clone, Debug)]
pub struct ColMeta {
    /// Source qualifier (table alias) if any.
    pub table: Option<String>,
    /// Column name.
    pub name: String,
}

/// A materialised row set.
#[derive(Clone, Debug, Default)]
pub struct Rows {
    /// Column metadata.
    pub cols: Vec<ColMeta>,
    /// Row data.
    pub data: Vec<Vec<Value>>,
}

/// An evaluation scope: the current row, plus outer scopes for
/// correlated subqueries.
pub struct Env<'a> {
    cols: &'a [ColMeta],
    row: &'a [Value],
    /// Optional second segment of the same scope, searched after
    /// `cols`: lets joins evaluate predicates over two borrowed sides
    /// without materialising the combined row first.
    tail: Option<(&'a [ColMeta], &'a [Value])>,
    parent: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    fn lookup(&self, table: Option<&str>, name: &str) -> Option<&Value> {
        if let Some(i) = plan::resolve_in(self.cols, table, name) {
            return self.row.get(i);
        }
        if let Some((cols, row)) = self.tail {
            if let Some(i) = plan::resolve_in(cols, table, name) {
                return row.get(i);
            }
        }
        self.parent.and_then(|p| p.lookup(table, name))
    }
}

/// Builds a single-scope environment over `cols`/`row` (used by DML).
pub fn env_for<'a>(cols: &'a [ColMeta], row: &'a [Value]) -> Env<'a> {
    Env {
        cols,
        row,
        tail: None,
        parent: None,
    }
}

/// A possibly-qualified column reference, as collected by
/// [`plan::free_refs`].
type FreeRefs = Rc<Vec<(Option<String>, String)>>;

/// Per-query execution context.
pub struct Ctx<'a> {
    /// The catalog to resolve tables and views against.
    pub catalog: &'a Catalog,
    /// Bound parameter values for `?` placeholders.
    pub params: &'a [Value],
    /// Use hash joins, index probes and subquery memoization. Off
    /// means the original tuple-at-a-time nested-loop execution —
    /// kept as the reference implementation for equivalence testing.
    planner: bool,
    /// Memoized subquery results keyed by (AST node identity, free
    /// variable bindings). Sound because the catalog is immutable for
    /// the lifetime of a `Ctx`.
    memo: RefCell<HashMap<(usize, String), Rc<Rows>>>,
    /// Cached free-variable lists per subquery AST node.
    free_refs: RefCell<HashMap<usize, FreeRefs>>,
}

impl<'a> Ctx<'a> {
    /// A context with an explicit planner setting; `false` forces the
    /// naive nested-loop execution throughout.
    pub fn with_planner(catalog: &'a Catalog, params: &'a [Value], planner: bool) -> Ctx<'a> {
        Ctx {
            catalog,
            params,
            planner,
            memo: RefCell::new(HashMap::new()),
            free_refs: RefCell::new(HashMap::new()),
        }
    }
}

/// Executes a subquery, memoizing its result on the values of its
/// free variables so correlated subqueries re-run once per distinct
/// binding instead of once per outer row.
fn exec_subquery(ctx: &Ctx<'_>, query: &Select, env: &Env<'_>) -> Result<Rc<Rows>> {
    if !ctx.planner {
        return Ok(Rc::new(exec_select(ctx, query, Some(env))?));
    }
    let id = query as *const Select as usize;
    let refs = {
        let cached = ctx.free_refs.borrow().get(&id).cloned();
        match cached {
            Some(r) => r,
            None => {
                let r = Rc::new(plan::free_refs(query, ctx.catalog));
                ctx.free_refs.borrow_mut().insert(id, Rc::clone(&r));
                r
            }
        }
    };
    let mut key = String::new();
    for (t, n) in refs.iter() {
        match env.lookup(t.as_deref(), n) {
            Some(v) => plan::memo_key_part(&mut key, v),
            None => key.push('?'),
        }
        key.push('\x1f');
    }
    if let Some(hit) = ctx.memo.borrow().get(&(id, key.clone())) {
        return Ok(Rc::clone(hit));
    }
    let rows = Rc::new(exec_select(ctx, query, Some(env))?);
    ctx.memo.borrow_mut().insert((id, key), Rc::clone(&rows));
    Ok(rows)
}

/// Executes a SELECT and materialises its result.
pub fn exec_select(ctx: &Ctx<'_>, sel: &Select, outer: Option<&Env<'_>>) -> Result<Rows> {
    // 1. FROM: build the source row set. For a single-table scan with
    // an indexed equality filter, clone only the matching bucket
    // instead of the whole table (the full WHERE still runs over the
    // candidates below, so this is purely a pre-filter).
    let source = match try_index_scan(ctx, &sel.from, sel.filter.as_ref(), outer)? {
        Some(rows) => {
            index_counters().0.inc();
            rows
        }
        None => {
            index_counters().1.inc();
            build_from(ctx, &sel.from, outer)?
        }
    };

    // 2. WHERE.
    let mut filtered: Vec<&Vec<Value>> = Vec::new();
    for row in &source.data {
        let keep = match &sel.filter {
            None => true,
            Some(f) => {
                let env = Env {
                    cols: &source.cols,
                    row,
                    tail: None,
                    parent: outer,
                };
                eval(ctx, f, &env, None)?.to_bool() == Some(true)
            }
        };
        if keep {
            filtered.push(row);
        }
    }

    // 3. Grouping decision.
    let has_aggregates = sel
        .projections
        .iter()
        .any(|p| matches!(p, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || sel.having.as_ref().is_some_and(|h| h.contains_aggregate())
        || sel.order_by.iter().any(|o| o.expr.contains_aggregate());
    let grouped = !sel.group_by.is_empty() || has_aggregates;

    // Output column names.
    let out_cols = projection_columns(&sel.projections, &source.cols);

    // Build (values, sort_keys) pairs.
    let mut results: Vec<(Vec<Value>, Vec<Value>)> = Vec::new();

    if grouped {
        // Bucket rows by GROUP BY keys (single group if none).
        let mut groups: Vec<(String, Vec<&Vec<Value>>)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for row in &filtered {
            let env = Env {
                cols: &source.cols,
                row,
                tail: None,
                parent: outer,
            };
            let mut key = String::new();
            for g in &sel.group_by {
                let v = eval(ctx, g, &env, None)?;
                key.push_str(&v.group_key());
                key.push('\x1f');
            }
            match index.get(&key) {
                Some(&i) => groups[i].1.push(row),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![row]));
                }
            }
        }
        if groups.is_empty() && sel.group_by.is_empty() {
            // Aggregates over an empty set still produce one row.
            groups.push((String::new(), Vec::new()));
        }
        let null_row: Vec<Value> = vec![Value::Null; source.cols.len()];
        for (_, group_rows) in &groups {
            // Aggregates over an empty group still evaluate bare
            // columns; give them an all-NULL row, as SQLite does.
            let first_row: &[Value] = group_rows
                .first()
                .map(|r| r.as_slice())
                .unwrap_or(&null_row);
            let env = Env {
                cols: &source.cols,
                row: first_row,
                tail: None,
                parent: outer,
            };
            let agg = AggCtx {
                cols: &source.cols,
                rows: group_rows,
                outer,
            };
            if let Some(h) = &sel.having {
                if eval(ctx, h, &env, Some(&agg))?.to_bool() != Some(true) {
                    continue;
                }
            }
            let values = project(ctx, &sel.projections, &env, Some(&agg))?;
            let keys = order_keys(ctx, sel, &env, Some(&agg))?;
            results.push((values, keys));
        }
    } else {
        for row in &filtered {
            let env = Env {
                cols: &source.cols,
                row,
                tail: None,
                parent: outer,
            };
            let values = project(ctx, &sel.projections, &env, None)?;
            let keys = order_keys(ctx, sel, &env, None)?;
            results.push((values, keys));
        }
        if filtered.is_empty() {
            // Surface column-resolution errors even for empty results
            // (SQLite reports them at prepare time): evaluate the
            // projections once against an all-NULL row and discard.
            let null_row: Vec<Value> = vec![Value::Null; source.cols.len()];
            let env = Env {
                cols: &source.cols,
                row: &null_row,
                tail: None,
                parent: outer,
            };
            let _ = project(ctx, &sel.projections, &env, None)?;
        }
    }

    // 4. DISTINCT.
    if sel.distinct {
        let mut seen = std::collections::HashSet::new();
        results.retain(|(vals, _)| {
            let key: String = vals.iter().map(|v| v.group_key() + "\x1f").collect();
            seen.insert(key)
        });
    }

    // 5. ORDER BY.
    if !sel.order_by.is_empty() {
        let descs: Vec<bool> = sel.order_by.iter().map(|o| o.desc).collect();
        results.sort_by(|a, b| {
            for (i, desc) in descs.iter().enumerate() {
                let va = &a.1[i];
                let vb = &b.1[i];
                let ord = va.total_cmp(vb);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    // 6. LIMIT.
    let mut data: Vec<Vec<Value>> = results.into_iter().map(|(v, _)| v).collect();
    if let Some(l) = sel.limit {
        data.truncate(l);
    }

    Ok(Rows {
        cols: out_cols,
        data,
    })
}

fn eval_const(ctx: &Ctx<'_>, e: &Expr, outer: Option<&Env<'_>>) -> Result<Value> {
    let empty_cols: [ColMeta; 0] = [];
    let empty_row: [Value; 0] = [];
    let env = Env {
        cols: &empty_cols,
        row: &empty_row,
        tail: None,
        parent: outer,
    };
    eval(ctx, e, &env, None)
}

/// Computes the ORDER BY sort keys for one output row.
fn order_keys(
    ctx: &Ctx<'_>,
    sel: &Select,
    env: &Env<'_>,
    agg: Option<&AggCtx<'_>>,
) -> Result<Vec<Value>> {
    let terms = sel.order_by.iter();
    terms.map(|term| eval(ctx, &term.expr, env, agg)).collect()
}

/// Derives the output column metadata of a projection list.
fn projection_columns(items: &[SelectItem], source: &[ColMeta]) -> Vec<ColMeta> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Star => out.extend(source.iter().cloned()),
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.display_name());
                out.push(ColMeta { table: None, name });
            }
        }
    }
    out
}

/// Evaluates the projection list for one row/group.
fn project(
    ctx: &Ctx<'_>,
    items: &[SelectItem],
    env: &Env<'_>,
    agg: Option<&AggCtx<'_>>,
) -> Result<Vec<Value>> {
    let mut out = Vec::new();
    for item in items {
        match item {
            SelectItem::Star => out.extend(env.row.iter().cloned()),
            SelectItem::Expr { expr, .. } => out.push(eval(ctx, expr, env, agg)?),
        }
    }
    Ok(out)
}

/// Index-scan fast path: when the FROM is a single stored table and
/// the WHERE has a top-level `col = expr` conjunct over an indexed
/// column whose right side depends only on outer scopes / parameters,
/// returns just the matching rows (in scan order). The caller still
/// evaluates the full WHERE over them, so any conjunct this analysis
/// ignores — and the probed one — are re-checked row by row.
fn try_index_scan(
    ctx: &Ctx<'_>,
    from: &FromClause,
    filter: Option<&Expr>,
    outer: Option<&Env<'_>>,
) -> Result<Option<Rows>> {
    if !ctx.planner {
        return Ok(None);
    }
    let Some(filter) = filter else {
        return Ok(None);
    };
    let Some((name, alias)) = plan::single_base_table(from) else {
        return Ok(None);
    };
    let Some(t) = ctx.catalog.table(name) else {
        return Ok(None);
    };
    let label = alias.unwrap_or(name);
    let cols: Vec<ColMeta> = t
        .columns
        .iter()
        .map(|c| ColMeta {
            table: Some(label.to_string()),
            name: c.name.clone(),
        })
        .collect();
    let mut best: Option<&[usize]> = None;
    for conj in plan::split_and(filter) {
        let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = conj
        else {
            continue;
        };
        for (col_side, key_side) in [(&left, &right), (&right, &left)] {
            let Expr::Column { table, name } = col_side.as_ref() else {
                continue;
            };
            let Some(ci) = plan::resolve_in(&cols, table.as_deref(), name) else {
                continue;
            };
            let Some(ix) = t.index_on(ci) else {
                continue;
            };
            if plan::has_subquery(key_side) || plan::refs_scope(key_side, &cols) {
                continue;
            }
            let key = eval_const(ctx, key_side, outer)?;
            if key.is_null() {
                // `col = NULL` matches no row.
                return Ok(Some(Rows {
                    cols,
                    data: Vec::new(),
                }));
            }
            let Some(bucket) = ix.probe(&key) else {
                continue;
            };
            if best.is_none_or(|b| bucket.len() < b.len()) {
                best = Some(bucket);
            }
        }
    }
    let Some(bucket) = best else {
        return Ok(None);
    };
    Ok(Some(Rows {
        cols,
        data: bucket.iter().map(|&i| t.rows[i].clone()).collect(),
    }))
}

/// Builds the FROM row set, applying joins left to right.
fn build_from(ctx: &Ctx<'_>, from: &FromClause, outer: Option<&Env<'_>>) -> Result<Rows> {
    let mut acc = resolve_table_ref(ctx, &from.first, outer)?;
    for join in &from.joins {
        let right = resolve_table_ref(ctx, &join.table, outer)?;
        acc = match (join.kind, &join.on) {
            (JoinKind::Natural, _) => natural_join(ctx, &acc, &right)?,
            (JoinKind::Inner, Some(on)) => inner_join(ctx, &acc, &right, on, outer)?,
            (JoinKind::Inner, None) => return Err(DbError::exec("JOIN without ON")),
        };
    }
    Ok(acc)
}

fn resolve_table_ref(ctx: &Ctx<'_>, tref: &TableRef, outer: Option<&Env<'_>>) -> Result<Rows> {
    match tref {
        TableRef::Named { name, alias } => {
            let label = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(t) = ctx.catalog.table(name) {
                Ok(Rows {
                    cols: t
                        .columns
                        .iter()
                        .map(|c| ColMeta {
                            table: Some(label.clone()),
                            name: c.name.clone(),
                        })
                        .collect(),
                    data: t.rows.clone(),
                })
            } else if let Some(q) = ctx.catalog.view(name) {
                let rows = exec_select(ctx, q, outer)?;
                Ok(Rows {
                    cols: rows
                        .cols
                        .into_iter()
                        .map(|c| ColMeta {
                            table: Some(label.clone()),
                            name: c.name,
                        })
                        .collect(),
                    data: rows.data,
                })
            } else {
                Err(DbError::schema(format!("no such table: {name}")))
            }
        }
        TableRef::Subquery { query, alias } => {
            let rows = exec_select(ctx, query, outer)?;
            let label = alias.clone();
            Ok(Rows {
                cols: rows
                    .cols
                    .into_iter()
                    .map(|c| ColMeta {
                        table: label.clone().or(c.table),
                        name: c.name,
                    })
                    .collect(),
                data: rows.data,
            })
        }
    }
}

fn inner_join(
    ctx: &Ctx<'_>,
    left: &Rows,
    right: &Rows,
    on: &Expr,
    outer: Option<&Env<'_>>,
) -> Result<Rows> {
    let mut cols = left.cols.clone();
    cols.extend(right.cols.iter().cloned());
    // Evaluates `cond` against the borrowed sides: the combined row is
    // materialised only on a match.
    let holds = |cond: &Expr, l: &[Value], r: &[Value]| -> Result<bool> {
        let env = Env {
            cols: &left.cols,
            row: l,
            tail: Some((&right.cols, r)),
            parent: outer,
        };
        Ok(eval(ctx, cond, &env, None)?.to_bool() == Some(true))
    };

    // Hash path: pull equality conjuncts out of the ON predicate and
    // build/probe on them; remaining conjuncts are evaluated per
    // candidate pair. Requires NaN-free key columns (group_key and
    // SQL equality disagree on NaN) — emission order matches the
    // nested loop exactly: left-major, right rows in scan order.
    if ctx.planner {
        let mut keys: Vec<(usize, usize)> = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        for conj in plan::split_and(on) {
            match plan::equi_key(conj, &left.cols, &right.cols) {
                Some(k) => keys.push(k),
                None => residual.push(conj),
            }
        }
        if !keys.is_empty()
            && !plan::has_nan(&left.data, keys.iter().map(|k| k.0))
            && !plan::has_nan(&right.data, keys.iter().map(|k| k.1))
        {
            let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
            'build: for (ri, r) in right.data.iter().enumerate() {
                let mut key = String::new();
                for &(_, rc) in &keys {
                    if r[rc].is_null() {
                        // NULL never compares equal: unreachable by
                        // any probe.
                        continue 'build;
                    }
                    plan::push_key_part(&mut key, &r[rc]);
                }
                buckets.entry(key).or_default().push(ri);
            }
            let mut data = Vec::new();
            'probe: for l in &left.data {
                let mut key = String::new();
                for &(lc, _) in &keys {
                    if l[lc].is_null() {
                        continue 'probe;
                    }
                    plan::push_key_part(&mut key, &l[lc]);
                }
                'candidate: for &ri in buckets.get(&key).into_iter().flatten() {
                    let r = &right.data[ri];
                    for conj in &residual {
                        if !holds(conj, l, r)? {
                            continue 'candidate;
                        }
                    }
                    let mut combined = l.clone();
                    combined.extend(r.iter().cloned());
                    data.push(combined);
                }
            }
            return Ok(Rows { cols, data });
        }
    }

    // Nested-loop fallback.
    let mut data = Vec::new();
    for l in &left.data {
        for r in &right.data {
            if holds(on, l, r)? {
                let mut combined = l.clone();
                combined.extend(r.iter().cloned());
                data.push(combined);
            }
        }
    }
    Ok(Rows { cols, data })
}

fn natural_join(ctx: &Ctx<'_>, left: &Rows, right: &Rows) -> Result<Rows> {
    // Columns shared by name join the sides; they appear once in the
    // output (merged, unqualified).
    let mut shared: Vec<(usize, usize)> = Vec::new();
    for (li, lc) in left.cols.iter().enumerate() {
        if let Some(ri) = right
            .cols
            .iter()
            .position(|rc| rc.name.eq_ignore_ascii_case(&lc.name))
        {
            shared.push((li, ri));
        }
    }
    let right_keep: Vec<usize> = (0..right.cols.len())
        .filter(|ri| !shared.iter().any(|(_, r)| r == ri))
        .collect();

    let mut cols: Vec<ColMeta> = left
        .cols
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if shared.iter().any(|(l, _)| *l == i) {
                // Merged join column: reachable without qualifier.
                ColMeta {
                    table: None,
                    name: c.name.clone(),
                }
            } else {
                c.clone()
            }
        })
        .collect();
    cols.extend(right_keep.iter().map(|&ri| right.cols[ri].clone()));

    // Hash path over the shared columns; same NaN caveat as
    // `inner_join`. With no shared columns this is a cross join and
    // the nested loop below is already optimal.
    if ctx.planner
        && !shared.is_empty()
        && !plan::has_nan(&left.data, shared.iter().map(|s| s.0))
        && !plan::has_nan(&right.data, shared.iter().map(|s| s.1))
    {
        let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
        'build: for (ri, r) in right.data.iter().enumerate() {
            let mut key = String::new();
            for &(_, rc) in &shared {
                if r[rc].is_null() {
                    continue 'build;
                }
                plan::push_key_part(&mut key, &r[rc]);
            }
            buckets.entry(key).or_default().push(ri);
        }
        let mut data = Vec::new();
        'probe: for l in &left.data {
            let mut key = String::new();
            for &(lc, _) in &shared {
                if l[lc].is_null() {
                    continue 'probe;
                }
                plan::push_key_part(&mut key, &l[lc]);
            }
            if let Some(cands) = buckets.get(&key) {
                for &ri in cands {
                    let r = &right.data[ri];
                    let mut combined = l.clone();
                    combined.extend(right_keep.iter().map(|&rk| r[rk].clone()));
                    data.push(combined);
                }
            }
        }
        return Ok(Rows { cols, data });
    }

    let mut data = Vec::new();
    for l in &left.data {
        for r in &right.data {
            let all_match = shared
                .iter()
                .all(|(li, ri)| l[*li].sql_eq(&r[*ri]) == Some(true));
            if all_match {
                let mut combined = l.clone();
                combined.extend(right_keep.iter().map(|&ri| r[ri].clone()));
                data.push(combined);
            }
        }
    }
    Ok(Rows { cols, data })
}

/// Group context for aggregate evaluation.
pub struct AggCtx<'a> {
    cols: &'a [ColMeta],
    rows: &'a [&'a Vec<Value>],
    outer: Option<&'a Env<'a>>,
}

/// Evaluates `expr` in `env`; aggregates draw from `agg` when present.
pub fn eval(ctx: &Ctx<'_>, expr: &Expr, env: &Env<'_>, agg: Option<&AggCtx<'_>>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| DbError::exec(format!("missing bind parameter {}", i + 1))),
        Expr::Column { table, name } => {
            env.lookup(table.as_deref(), name).cloned().ok_or_else(|| {
                DbError::schema(match table {
                    Some(t) => format!("no such column: {t}.{name}"),
                    None => format!("no such column: {name}"),
                })
            })
        }
        Expr::Binary { op, left, right } => eval_binary(ctx, *op, left, right, env, agg),
        Expr::Function { name, arg } => {
            let Some(agg) = agg else {
                return Err(DbError::exec(format!(
                    "misuse of aggregate function {name}()"
                )));
            };
            eval_aggregate(ctx, name, arg.as_deref(), agg)
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let needle = eval(ctx, expr, env, agg)?;
            if needle.is_null() {
                return Ok(Value::Null);
            }
            let rows = exec_subquery(ctx, query, env)?;
            let mut saw_null = false;
            for row in &rows.data {
                let v = row.first().cloned().unwrap_or(Value::Null);
                match needle.sql_eq(&v) {
                    Some(true) => {
                        return Ok(Value::Integer(if *negated { 0 } else { 1 }));
                    }
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Integer(if *negated { 1 } else { 0 }))
            }
        }
        Expr::Exists { query, negated } => {
            let rows = exec_subquery(ctx, query, env)?;
            let exists = !rows.data.is_empty();
            Ok(Value::Integer((exists != *negated) as i64))
        }
        Expr::Subquery(query) => {
            let rows = exec_subquery(ctx, query, env)?;
            Ok(rows
                .data
                .first()
                .and_then(|r| r.first().cloned())
                .unwrap_or(Value::Null))
        }
    }
}

fn eval_binary(
    ctx: &Ctx<'_>,
    op: BinOp,
    left: &Expr,
    right: &Expr,
    env: &Env<'_>,
    agg: Option<&AggCtx<'_>>,
) -> Result<Value> {
    let l = eval(ctx, left, env, agg)?;
    if let BinOp::And | BinOp::Or = op {
        // Three-valued logic. `decisive` is the operand value that
        // decides the result alone (false for AND, true for OR): the
        // right side is not evaluated once the left one is decisive.
        let decisive = op == BinOp::Or;
        let l = l.to_bool();
        if l == Some(decisive) {
            return Ok(Value::Integer(decisive as i64));
        }
        return Ok(match (l, eval(ctx, right, env, agg)?.to_bool()) {
            (_, Some(r)) if r == decisive => Value::Integer(decisive as i64),
            (Some(_), Some(_)) => Value::Integer(!decisive as i64),
            _ => Value::Null,
        });
    }
    let r = eval(ctx, right, env, agg)?;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let compare = |holds: fn(Ordering) -> bool| Value::Integer(holds(l.total_cmp(&r)) as i64);
    Ok(match op {
        BinOp::Eq => compare(Ordering::is_eq),
        BinOp::Ne => compare(Ordering::is_ne),
        BinOp::Lt => compare(Ordering::is_lt),
        BinOp::Gt => compare(Ordering::is_gt),
        BinOp::Concat => Value::Text(format!("{l}{r}")),
        // Integer arithmetic when both sides are integers and the sum
        // fits, else real.
        BinOp::Add => match (&l, &r) {
            (Value::Integer(a), Value::Integer(b)) => a
                .checked_add(*b)
                .map_or(Value::Real(*a as f64 + *b as f64), Value::Integer),
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => Value::Real(a + b),
                _ => Value::Null,
            },
        },
        BinOp::And | BinOp::Or => return Err(DbError::exec("AND/OR fell through logical path")),
    })
}

/// `COUNT(*)`, `COUNT(arg)` or `MAX(arg)` over the rows of `agg`.
fn eval_aggregate(
    ctx: &Ctx<'_>,
    name: &str,
    arg: Option<&Expr>,
    agg: &AggCtx<'_>,
) -> Result<Value> {
    let Some(arg) = arg else {
        return Ok(Value::Integer(agg.rows.len() as i64));
    };
    let mut count = 0;
    let mut max: Option<Value> = None;
    for row in agg.rows {
        let env = Env {
            cols: agg.cols,
            row,
            tail: None,
            parent: agg.outer,
        };
        let v = eval(ctx, arg, &env, None)?;
        if v.is_null() {
            continue;
        }
        count += 1;
        // Of equal values the last one wins, as `Iterator::max_by`.
        if max.as_ref().is_none_or(|m| m.total_cmp(&v).is_le()) {
            max = Some(v);
        }
    }
    match name {
        "COUNT" => Ok(Value::Integer(count)),
        "MAX" => Ok(max.unwrap_or(Value::Null)),
        _ => Err(DbError::exec(format!("no such function: {name}"))),
    }
}
