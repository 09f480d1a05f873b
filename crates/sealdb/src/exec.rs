//! The query executor: a tuple-at-a-time interpreter with hash or
//! nested-loop joins, grouping, correlated subqueries and views — what
//! the paper's invariant and trimming queries need, and no more (the
//! parser admits nothing else).
//!
//! It allocates per query node, not per row. A column reference
//! resolves to a position once per SELECT node and enclosing scope
//! ([`Scope`]), not by a name search on every evaluation. Stored rows
//! are borrowed, never cloned: a scan or an index probe yields
//! references into the catalog, a join yields pairs of row indices
//! (materialised only when a third source joins them), and an
//! expression evaluates to a `Cow` that borrows the column, literal or
//! parameter it names. Join, GROUP BY and DISTINCT keys hash values
//! under `group_key`'s equality classes ([`Value::group_class`]);
//! correlated subqueries memoise on the exact values of their free
//! variables.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::rc::Rc;

use crate::ast::*;
use crate::catalog::{Catalog, Table};
use crate::plan;
use crate::value::{GroupClass, Value};
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

/// What a column of a missing row reads as.
static NULL: Value = Value::Null;

/// A row of a FROM clause, borrowed: a row of the first source and,
/// under a join, one of the joined source (empty otherwise).
#[derive(Clone, Copy)]
struct Row<'r> {
    left: &'r [Value],
    right: &'r [Value],
}

impl<'r> Row<'r> {
    /// The row every column of which reads NULL.
    const EMPTY: Row<'static> = Row {
        left: &[],
        right: &[],
    };

    fn single(left: &'r [Value]) -> Row<'r> {
        Row { left, right: &[] }
    }
}

/// The layout a query node's expressions see: the columns a reference
/// resolves against, where each lives in a [`Row`], and the positions
/// references resolved to so far. A [`Ctx`] builds one per SELECT node
/// and enclosing scope, so a reference resolves once per query, not per
/// row; a DML statement builds one for its table.
pub struct Scope {
    /// Identity within the `Ctx`: keys the scopes nested in this one.
    id: usize,
    /// Columns in resolution order (first match wins).
    cols: Vec<ColMeta>,
    /// `cols[..split]` are the left row's columns, in order.
    split: usize,
    /// `cols[split + k]` is column `right[k]` of the right row.
    right: Vec<usize>,
    /// NATURAL JOIN's shared columns, as (left, right) positions.
    shared: Vec<(usize, usize)>,
    /// (address of a reference, where it resolved).
    slots: RefCell<Vec<(usize, Slot)>>,
}

/// Where a reference resolved: (scopes up, column), or nowhere.
type Slot = Option<(usize, usize)>;

impl Scope {
    fn new(id: usize, cols: Vec<ColMeta>) -> Scope {
        Scope {
            id,
            split: cols.len(),
            cols,
            right: Vec::new(),
            shared: Vec::new(),
            slots: RefCell::default(),
        }
    }

    /// The layout of `left` joined with `right`. A NATURAL join shows
    /// the columns the two share by name once, unqualified, on the
    /// left; an inner join shows both sides whole.
    fn join(id: usize, mut left: Vec<ColMeta>, right: &[ColMeta], natural: bool) -> Scope {
        let mut shared = Vec::new();
        if natural {
            for (li, lc) in left.iter_mut().enumerate() {
                let found = right
                    .iter()
                    .position(|rc| rc.name.eq_ignore_ascii_case(&lc.name));
                if let Some(ri) = found {
                    shared.push((li, ri));
                    lc.table = None;
                }
            }
        }
        let split = left.len();
        let kept: Vec<usize> = (0..right.len())
            .filter(|ri| !shared.iter().any(|&(_, r)| r == *ri))
            .collect();
        left.extend(kept.iter().map(|&ri| right[ri].clone()));
        Scope {
            id,
            cols: left,
            split,
            right: kept,
            shared,
            slots: RefCell::default(),
        }
    }

    /// The left and right source columns of an inner join's layout.
    fn sides(&self) -> (&[ColMeta], &[ColMeta]) {
        self.cols.split_at(self.split)
    }

    /// `row` as one flat row of this layout.
    fn flatten(&self, row: Row<'_>) -> Vec<Value> {
        let env = Env {
            scope: self,
            row,
            parent: None,
        };
        (0..self.cols.len()).map(|i| env.value(i).clone()).collect()
    }
}

/// An evaluation scope: the current row, plus outer scopes for
/// correlated subqueries.
pub struct Env<'r> {
    scope: &'r Scope,
    row: Row<'r>,
    parent: Option<&'r Env<'r>>,
}

impl<'r> Env<'r> {
    /// Column `i` of the scope's layout in the current row.
    fn value(&self, i: usize) -> &'r Value {
        let v = match i.checked_sub(self.scope.split) {
            None => self.row.left.get(i),
            Some(k) => (self.scope.right.get(k)).and_then(|&p| self.row.right.get(p)),
        };
        v.unwrap_or(&NULL)
    }

    /// The value of the reference `table.name` found at address `at`:
    /// resolved in this scope or an enclosing one on first use, by
    /// position after that.
    fn lookup(&self, at: usize, table: Option<&str>, name: &str) -> Option<&'r Value> {
        let cached = self
            .scope
            .slots
            .borrow()
            .iter()
            .find(|s| s.0 == at)
            .map(|s| s.1);
        let slot = match cached {
            Some(slot) => slot,
            None => {
                let mut slot = None;
                let mut env = Some(self);
                let mut depth = 0;
                while let Some(e) = env {
                    if let Some(i) = plan::resolve_in(&e.scope.cols, table, name) {
                        slot = Some((depth, i));
                        break;
                    }
                    env = e.parent;
                    depth += 1;
                }
                self.scope.slots.borrow_mut().push((at, slot));
                slot
            }
        };
        let (depth, i) = slot?;
        let mut env = self;
        for _ in 0..depth {
            env = env.parent?;
        }
        Some(env.value(i))
    }
}

/// A single-row environment over `row` laid out by `scope` (used by
/// DML).
pub fn env_for<'r>(scope: &'r Scope, row: &'r [Value]) -> Env<'r> {
    Env {
        scope,
        row: Row::single(row),
        parent: None,
    }
}

/// A subquery's rows.
type Data = Rc<Vec<Vec<Value>>>;

/// A memoised subquery result: the free-variable values it ran with
/// (`None`: unresolved), and its rows.
type Memo = (Vec<Option<Value>>, Data);

/// A correlated subquery's free variables, possibly-qualified column
/// references as collected by [`plan::free_refs`], and its results
/// memoised by the hash of their values.
struct Subquery {
    refs: Vec<(Option<String>, String)>,
    memo: RefCell<HashMap<u64, Vec<Memo>>>,
}

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
    /// Keys every hash of values (join, group and memo keys) for this
    /// query, so data cannot be chosen to collide.
    state: RandomState,
    /// The last scope id handed out.
    scope_ids: Cell<usize>,
    /// The layout of each SELECT node, by (node address, enclosing
    /// scope id, 0 for none). Sound because the catalog is immutable
    /// for the lifetime of a `Ctx`, and every scope stays alive in here.
    scopes: RefCell<HashMap<(usize, usize), Rc<Scope>>>,
    /// Each subquery run so far, by AST node identity.
    subqueries: RefCell<HashMap<usize, Rc<Subquery>>>,
}

impl<'a> Ctx<'a> {
    /// A context with an explicit planner setting; `false` forces the
    /// naive nested-loop execution throughout.
    pub fn with_planner(catalog: &'a Catalog, params: &'a [Value], planner: bool) -> Ctx<'a> {
        Ctx {
            catalog,
            params,
            planner,
            state: RandomState::new(),
            scope_ids: Cell::new(0),
            scopes: RefCell::default(),
            subqueries: RefCell::default(),
        }
    }

    fn next_id(&self) -> usize {
        self.scope_ids.set(self.scope_ids.get() + 1);
        self.scope_ids.get()
    }

    /// The scope of a DML statement over `table` (none: no columns).
    pub fn table_scope(&self, table: Option<&Table>) -> Scope {
        let cols = table.map_or_else(Vec::new, |t| table_cols(t, &t.name));
        Scope::new(self.next_id(), cols)
    }

    /// The layout of `sel`'s FROM clause under `outer`, built on first
    /// use.
    fn scope(&self, sel: &Select, outer: Option<&Env<'_>>) -> Result<Rc<Scope>> {
        let key = (
            sel as *const Select as usize,
            outer.map_or(0, |e| e.scope.id),
        );
        if let Some(s) = self.scopes.borrow().get(&key) {
            return Ok(Rc::clone(s));
        }
        let scope = Rc::new(self.layout(&sel.from)?);
        self.scopes.borrow_mut().insert(key, Rc::clone(&scope));
        Ok(scope)
    }

    /// The layout of a FROM clause, derived from the catalog alone.
    fn layout(&self, from: &FromClause) -> Result<Scope> {
        let mut scope = Scope::new(self.next_id(), self.source_cols(&from.first)?);
        for join in &from.joins {
            let right = self.source_cols(&join.table)?;
            let natural = join.kind == JoinKind::Natural;
            scope = Scope::join(self.next_id(), scope.cols, &right, natural);
        }
        Ok(scope)
    }

    /// The columns one FROM source contributes, qualified by its label.
    fn source_cols(&self, tref: &TableRef) -> Result<Vec<ColMeta>> {
        match tref {
            TableRef::Named { name, alias } => {
                let label = alias.as_ref().unwrap_or(name);
                if let Some(t) = self.catalog.table(name) {
                    Ok(table_cols(t, label))
                } else if let Some(q) = self.catalog.view(name) {
                    let mut cols = self.output_cols(q)?;
                    for c in &mut cols {
                        c.table = Some(label.clone());
                    }
                    Ok(cols)
                } else {
                    Err(DbError::schema(format!("no such table: {name}")))
                }
            }
            TableRef::Subquery { query, alias } => {
                let mut cols = self.output_cols(query)?;
                if alias.is_some() {
                    for c in &mut cols {
                        c.table = alias.clone();
                    }
                }
                Ok(cols)
            }
        }
    }

    fn output_cols(&self, sel: &Select) -> Result<Vec<ColMeta>> {
        let from = self.layout(&sel.from)?;
        Ok(projection_columns(&sel.projections, &from.cols))
    }
}

fn table_cols(t: &Table, label: &str) -> Vec<ColMeta> {
    let col = |c: &crate::catalog::Column| ColMeta {
        table: Some(label.to_string()),
        name: c.name.clone(),
    };
    t.columns.iter().map(col).collect()
}

/// A memo key part: the exact value (2 and 2.0 apart, reals by bits),
/// because a subquery can return the bound value itself; the tag tells
/// a real and an unresolved reference apart from the rest.
fn exact(v: Option<&Value>) -> (u8, GroupClass<'_>) {
    match v {
        Some(Value::Real(f)) => (1, GroupClass::Real(f.to_bits())),
        Some(v) => (0, v.group_class()),
        None => (2, GroupClass::Null),
    }
}

/// Executes a subquery, memoizing its result on the values of its
/// free variables so correlated subqueries re-run once per distinct
/// binding instead of once per outer row.
fn exec_subquery(ctx: &Ctx<'_>, query: &Select, env: &Env<'_>) -> Result<Data> {
    if !ctx.planner {
        return Ok(Rc::new(run(ctx, query, Some(env))?));
    }
    let id = query as *const Select as usize;
    let cached = ctx.subqueries.borrow().get(&id).cloned();
    let sub = match cached {
        Some(sub) => sub,
        None => {
            let sub = Rc::new(Subquery {
                refs: plan::free_refs(query, ctx.catalog),
                memo: RefCell::default(),
            });
            ctx.subqueries.borrow_mut().insert(id, Rc::clone(&sub));
            sub
        }
    };
    // The entries of `refs` stay where they are while `ctx` lives, so
    // their addresses key the resolution cache like AST nodes do.
    let bound =
        |r: &(Option<String>, String)| env.lookup(r as *const _ as usize, r.0.as_deref(), &r.1);
    let mut h = ctx.state.build_hasher();
    for r in &sub.refs {
        exact(bound(r)).hash(&mut h);
    }
    let h = h.finish();
    if let Some(entries) = sub.memo.borrow().get(&h) {
        let hit = entries.iter().find(|(values, _)| {
            (values.iter().zip(&sub.refs)).all(|(v, r)| exact(v.as_ref()) == exact(bound(r)))
        });
        if let Some((_, rows)) = hit {
            return Ok(Rc::clone(rows));
        }
    }
    let rows = Rc::new(run(ctx, query, Some(env))?);
    let values = sub.refs.iter().map(|r| bound(r).cloned()).collect();
    let mut memo = sub.memo.borrow_mut();
    memo.entry(h).or_default().push((values, Rc::clone(&rows)));
    Ok(rows)
}

/// Executes a SELECT and materialises its result.
pub fn exec_select(ctx: &Ctx<'_>, sel: &Select, outer: Option<&Env<'_>>) -> Result<Rows> {
    let scope = ctx.scope(sel, outer)?;
    let data = select_rows(ctx, sel, &scope, outer)?;
    Ok(Rows {
        cols: projection_columns(&sel.projections, &scope.cols),
        data,
    })
}

/// The rows of a SELECT (its columns are the caller's to know).
fn run(ctx: &Ctx<'_>, sel: &Select, outer: Option<&Env<'_>>) -> Result<Vec<Vec<Value>>> {
    let scope = ctx.scope(sel, outer)?;
    select_rows(ctx, sel, &scope, outer)
}

/// Keys of `width` values each, numbered in first-seen order and found
/// by hashing them under `group_key`'s equality classes (2 ≡ 2.0; NaN
/// only matches its own bits, so callers that compare with SQL equality
/// keep NaN keys out).
struct KeySet<'v, 's> {
    state: &'s RandomState,
    width: usize,
    /// Key `k` is `values[k * width..][..width]`.
    values: Vec<Cow<'v, Value>>,
    /// Hash → the last key numbered with that hash.
    heads: HashMap<u64, usize>,
    /// Key → the key numbered before it with the same hash, if any.
    chain: Vec<Option<usize>>,
}

impl<'v, 's> KeySet<'v, 's> {
    fn new(state: &'s RandomState, width: usize, capacity: usize) -> KeySet<'v, 's> {
        KeySet {
            state,
            width,
            values: Vec::with_capacity(width * capacity),
            heads: HashMap::with_capacity(capacity),
            chain: Vec::with_capacity(capacity),
        }
    }

    fn len(&self) -> usize {
        self.chain.len()
    }

    fn hash(&self, key: &[Cow<'_, Value>]) -> u64 {
        let mut h = self.state.build_hasher();
        for v in key {
            v.group_class().hash(&mut h);
        }
        h.finish()
    }

    fn find_hashed(&self, h: u64, key: &[Cow<'_, Value>]) -> Option<usize> {
        let mut at = self.heads.get(&h).copied();
        while let Some(k) = at {
            let stored = &self.values[k * self.width..][..self.width];
            if stored
                .iter()
                .zip(key)
                .all(|(a, b)| a.group_class() == b.group_class())
            {
                return Some(k);
            }
            at = self.chain[k];
        }
        None
    }

    /// The number of `key`, if it was inserted.
    fn find(&self, key: &[Cow<'_, Value>]) -> Option<usize> {
        self.find_hashed(self.hash(key), key)
    }

    /// The number of `key`, and whether it is new.
    fn insert(&mut self, key: &[Cow<'v, Value>]) -> (usize, bool) {
        let h = self.hash(key);
        if let Some(k) = self.find_hashed(h, key) {
            return (k, false);
        }
        let k = self.len();
        self.values.extend(key.iter().cloned());
        self.chain.push(self.heads.insert(h, k));
        (k, true)
    }
}

fn truthy(v: Cow<'_, Value>) -> bool {
    v.to_bool() == Some(true)
}

/// The rows of a SELECT, projected.
fn select_rows(
    ctx: &Ctx<'_>,
    sel: &Select,
    scope: &Scope,
    outer: Option<&Env<'_>>,
) -> Result<Vec<Vec<Value>>> {
    // 1. FROM: borrowed source rows, and the pairs a join matched.
    let from = scan(ctx, sel, scope, outer)?;
    let env = |row| Env {
        scope,
        row,
        parent: outer,
    };

    // 2. WHERE.
    let mut filtered = Vec::with_capacity(from.len());
    for k in 0..from.len() {
        let row = from.row(k);
        let keep = match &sel.filter {
            None => true,
            Some(f) => truthy(eval(ctx, f, &env(row), None)?),
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

    // Projected rows, and their ORDER BY keys (`order_by.len()` each).
    let mut results: Vec<Vec<Value>> = Vec::new();
    let mut keys: Vec<Value> = Vec::new();

    if grouped {
        // Aggregates over an empty set still produce one row.
        let (members, start) = if sel.group_by.is_empty() {
            let n = filtered.len();
            (filtered, vec![0, n])
        } else {
            group(ctx, sel, filtered, env)?
        };
        for bounds in start.windows(2) {
            let group_rows = &members[bounds[0]..bounds[1]];
            // Aggregates over an empty group still evaluate bare
            // columns; give them an all-NULL row, as SQLite does.
            let env = env(group_rows.first().copied().unwrap_or(Row::EMPTY));
            let agg = AggCtx {
                scope,
                rows: group_rows,
                outer,
            };
            if let Some(h) = &sel.having {
                if !truthy(eval(ctx, h, &env, Some(&agg))?) {
                    continue;
                }
            }
            results.push(project(ctx, &sel.projections, &env, Some(&agg))?);
            order_keys(ctx, sel, &env, Some(&agg), &mut keys)?;
        }
    } else {
        results.reserve(filtered.len());
        keys.reserve(filtered.len() * sel.order_by.len());
        for &row in &filtered {
            let env = env(row);
            results.push(project(ctx, &sel.projections, &env, None)?);
            order_keys(ctx, sel, &env, None, &mut keys)?;
        }
        if filtered.is_empty() {
            // Surface column-resolution errors even for empty results
            // (SQLite reports them at prepare time): evaluate the
            // projections once against an all-NULL row and discard.
            for item in &sel.projections {
                if let SelectItem::Expr { expr, .. } = item {
                    eval(ctx, expr, &env(Row::EMPTY), None)?;
                }
            }
        }
    }

    let width = sel.order_by.len();
    if !sel.distinct && width == 0 {
        results.truncate(sel.limit.unwrap_or(usize::MAX));
        return Ok(results);
    }

    // 4. DISTINCT: the first of each class of rows stays.
    let mut order: Vec<usize> = (0..results.len()).collect();
    if sel.distinct {
        let mut seen = KeySet::new(
            &ctx.state,
            results.first().map_or(0, Vec::len),
            results.len(),
        );
        let mut key = Vec::new();
        order.retain(|&i| {
            key.clear();
            key.extend(results[i].iter().map(Cow::Borrowed));
            seen.insert(&key).1
        });
    }

    // 5. ORDER BY (stable).
    if width > 0 {
        order.sort_by(|&a, &b| {
            let (ka, kb) = (&keys[a * width..][..width], &keys[b * width..][..width]);
            for ((va, vb), term) in ka.iter().zip(kb).zip(&sel.order_by) {
                let ord = va.total_cmp(vb);
                let ord = if term.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }

    // 6. LIMIT.
    order.truncate(sel.limit.unwrap_or(usize::MAX));
    Ok(order
        .into_iter()
        .map(|i| std::mem::take(&mut results[i]))
        .collect())
}

/// `rows` laid out group by group, each group's in scan order, and the
/// bounds of each group in that layout: groups are numbered by their
/// GROUP BY key values in first-seen order.
fn group<'r>(
    ctx: &Ctx<'_>,
    sel: &'r Select,
    rows: Vec<Row<'r>>,
    env: impl Fn(Row<'r>) -> Env<'r>,
) -> Result<(Vec<Row<'r>>, Vec<usize>)> {
    let mut groups = KeySet::new(&ctx.state, sel.group_by.len(), rows.len());
    let mut tagged = Vec::with_capacity(rows.len());
    let mut key = Vec::with_capacity(sel.group_by.len());
    for row in rows {
        key.clear();
        for g in &sel.group_by {
            key.push(eval(ctx, g, &env(row), None)?);
        }
        tagged.push((groups.insert(&key).0, row));
    }
    tagged.sort_by_key(|t| t.0);
    let start = (0..=groups.len()).map(|g| tagged.partition_point(|t| t.0 < g));
    Ok((tagged.iter().map(|t| t.1).collect(), start.collect()))
}

/// Appends the ORDER BY sort keys of one output row to `keys`.
fn order_keys(
    ctx: &Ctx<'_>,
    sel: &Select,
    env: &Env<'_>,
    agg: Option<&AggCtx<'_>>,
    keys: &mut Vec<Value>,
) -> Result<()> {
    for term in &sel.order_by {
        keys.push(eval(ctx, &term.expr, env, agg)?.into_owned());
    }
    Ok(())
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
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Star => {
                out.extend((0..env.scope.cols.len()).map(|i| env.value(i).clone()));
            }
            SelectItem::Expr { expr, .. } => out.push(eval(ctx, expr, env, agg)?.into_owned()),
        }
    }
    Ok(out)
}

/// Which rows of its sources a FROM clause produced.
enum Pick<'a> {
    /// Every left row.
    All,
    /// The left rows an index probe found.
    Bucket(&'a [usize]),
    /// (left, right) pairs a join matched, in nested-loop order.
    Pairs(Vec<(usize, usize)>),
}

/// The rows of a FROM clause: those of its sources — a stored table's,
/// borrowed, or a view's or subquery's, materialised — and which.
struct FromRows<'a> {
    left: Cow<'a, [Vec<Value>]>,
    right: Cow<'a, [Vec<Value>]>,
    pick: Pick<'a>,
}

impl FromRows<'_> {
    fn len(&self) -> usize {
        match &self.pick {
            Pick::All => self.left.len(),
            Pick::Bucket(b) => b.len(),
            Pick::Pairs(p) => p.len(),
        }
    }

    fn row(&self, k: usize) -> Row<'_> {
        let (left, right) = (&self.left, &self.right);
        match &self.pick {
            Pick::All => Row::single(&left[k]),
            Pick::Bucket(b) => Row::single(&left[b[k]]),
            Pick::Pairs(p) => Row {
                left: &left[p[k].0],
                right: &right[p[k].1],
            },
        }
    }
}

/// Runs the FROM clause of `sel`, whose layout is `scope`. For a single
/// stored table with an indexed equality filter, only the matching
/// bucket is visited (the full WHERE still runs over it, so this is
/// purely a pre-filter).
fn scan<'a>(
    ctx: &Ctx<'a>,
    sel: &Select,
    scope: &Scope,
    outer: Option<&Env<'_>>,
) -> Result<FromRows<'a>> {
    if let Some(rows) = index_probe(ctx, sel, scope, outer)? {
        index_counters().0.inc();
        return Ok(rows);
    }
    index_counters().1.inc();
    let from = &sel.from;
    let mut left = source_rows(ctx, &from.first, outer)?;
    let Some((last, inner)) = from.joins.split_last() else {
        return Ok(FromRows {
            left,
            right: Cow::Borrowed(&[]),
            pick: Pick::All,
        });
    };
    // Joins left of the last one are materialised: each pairs the rows
    // so far with one more source, under its own layout.
    if !inner.is_empty() {
        let mut cols = ctx.source_cols(&from.first)?;
        for join in inner {
            let natural = join.kind == JoinKind::Natural;
            let step = Scope::join(ctx.next_id(), cols, &ctx.source_cols(&join.table)?, natural);
            let right = source_rows(ctx, &join.table, outer)?;
            let (l, r) = (&left, &right);
            let pairs = join_pairs(ctx, &step, join, l, r, outer)?;
            let rows = pairs.iter().map(|&(li, ri)| {
                step.flatten(Row {
                    left: &l[li],
                    right: &r[ri],
                })
            });
            left = Cow::Owned(rows.collect());
            cols = step.cols;
        }
    }
    let right = source_rows(ctx, &last.table, outer)?;
    let pairs = join_pairs(ctx, scope, last, &left, &right, outer)?;
    Ok(FromRows {
        left,
        right,
        pick: Pick::Pairs(pairs),
    })
}

/// Index-scan fast path: when the FROM is a single stored table and
/// the WHERE has a top-level `col = expr` conjunct over an indexed
/// column whose right side depends only on outer scopes / parameters,
/// returns just the matching rows (in scan order). The caller still evaluates the full WHERE over them, so
/// any conjunct this analysis ignores — and the probed one — are
/// re-checked row by row.
fn index_probe<'a>(
    ctx: &Ctx<'a>,
    sel: &Select,
    scope: &Scope,
    outer: Option<&Env<'_>>,
) -> Result<Option<FromRows<'a>>> {
    if !ctx.planner {
        return Ok(None);
    }
    let Some(filter) = &sel.filter else {
        return Ok(None);
    };
    let Some((name, _)) = plan::single_base_table(&sel.from) else {
        return Ok(None);
    };
    let Some(t) = ctx.catalog.table(name) else {
        return Ok(None);
    };
    // The key side references no column of this scope, so it evaluates
    // the same against any row of it.
    let env = Env {
        scope,
        row: Row::EMPTY,
        parent: outer,
    };
    let bucket = |bucket| FromRows {
        left: Cow::Borrowed(&t.rows),
        right: Cow::Borrowed(&[]),
        pick: Pick::Bucket(bucket),
    };
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
            let Some(ci) = plan::resolve_in(&scope.cols, table.as_deref(), name) else {
                continue;
            };
            let Some(ix) = t.index_on(ci) else {
                continue;
            };
            if plan::has_subquery(key_side) || plan::refs_scope(key_side, &scope.cols) {
                continue;
            }
            let key = eval(ctx, key_side, &env, None)?;
            if key.is_null() {
                // `col = NULL` matches no row.
                return Ok(Some(bucket(&[])));
            }
            let Some(bucket) = ix.probe(&key) else {
                continue;
            };
            if best.is_none_or(|b| bucket.len() < b.len()) {
                best = Some(bucket);
            }
        }
    }
    Ok(best.map(bucket))
}

/// The rows of one FROM source.
fn source_rows<'a>(
    ctx: &Ctx<'a>,
    tref: &TableRef,
    outer: Option<&Env<'_>>,
) -> Result<Cow<'a, [Vec<Value>]>> {
    match tref {
        TableRef::Named { name, .. } => {
            if let Some(t) = ctx.catalog.table(name) {
                Ok(Cow::Borrowed(&t.rows))
            } else if let Some(q) = ctx.catalog.view(name) {
                Ok(Cow::Owned(run(ctx, q, outer)?))
            } else {
                Err(DbError::schema(format!("no such table: {name}")))
            }
        }
        TableRef::Subquery { query, .. } => Ok(Cow::Owned(run(ctx, query, outer)?)),
    }
}

/// The (left, right) pairs `join` matches, left-major with right rows
/// in scan order; `scope` is the layout of the joined row.
fn join_pairs(
    ctx: &Ctx<'_>,
    scope: &Scope,
    join: &Join,
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    outer: Option<&Env<'_>>,
) -> Result<Vec<(usize, usize)>> {
    let holds = |cond: &Expr, l: &[Value], r: &[Value]| -> Result<bool> {
        let env = Env {
            scope,
            row: Row { left: l, right: r },
            parent: outer,
        };
        Ok(truthy(eval(ctx, cond, &env, None)?))
    };
    let on = match (join.kind, &join.on) {
        (JoinKind::Natural, _) => None,
        (JoinKind::Inner, Some(on)) => Some(on),
        (JoinKind::Inner, None) => return Err(DbError::exec("JOIN without ON")),
    };
    // Hash path over equality keys — NATURAL's shared columns, or the
    // ON conjuncts of the form `l.x = r.y` — with the remaining
    // conjuncts evaluated per candidate pair. Requires NaN-free key
    // columns (group classes and SQL equality disagree on NaN). With
    // no keys this is a cross join (or a theta join), and the nested
    // loop below is already what it costs.
    if ctx.planner {
        let (keys, residual) = match on {
            None => (scope.shared.clone(), Vec::new()),
            Some(on) => {
                let (l, r) = scope.sides();
                let mut keys = Vec::new();
                let mut residual = Vec::new();
                for conj in plan::split_and(on) {
                    match plan::equi_key(conj, l, r) {
                        Some(k) => keys.push(k),
                        None => residual.push(conj),
                    }
                }
                (keys, residual)
            }
        };
        if !keys.is_empty()
            && !plan::has_nan(left, keys.iter().map(|k| k.0))
            && !plan::has_nan(right, keys.iter().map(|k| k.1))
        {
            return hash_pairs(&ctx.state, left, right, &keys, |l, r| {
                for conj in &residual {
                    if !holds(conj, l, r)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            });
        }
    }
    let mut pairs = Vec::new();
    for (li, l) in left.iter().enumerate() {
        for (ri, r) in right.iter().enumerate() {
            let matched = match on {
                Some(on) => holds(on, l, r)?,
                None => (scope.shared.iter()).all(|&(lc, rc)| l[lc].sql_eq(&r[rc]) == Some(true)),
            };
            if matched {
                pairs.push((li, ri));
            }
        }
    }
    Ok(pairs)
}

/// The pairs whose `keys` columns ((left, right) positions) share a
/// group class — NULL matches nothing — and that `accept` takes, in
/// nested-loop order.
fn hash_pairs(
    state: &RandomState,
    left: &[Vec<Value>],
    right: &[Vec<Value>],
    keys: &[(usize, usize)],
    mut accept: impl FnMut(&[Value], &[Value]) -> Result<bool>,
) -> Result<Vec<(usize, usize)>> {
    // Fills `key` with `row`'s values in `cols`; false if one is NULL.
    fn key_of<'v>(
        row: &'v [Value],
        cols: impl Iterator<Item = usize>,
        key: &mut Vec<Cow<'v, Value>>,
    ) -> bool {
        key.clear();
        for c in cols {
            if row[c].is_null() {
                return false;
            }
            key.push(Cow::Borrowed(&row[c]));
        }
        true
    }
    let mut set = KeySet::new(state, keys.len(), right.len());
    // The right rows of each key, in scan order.
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut key = Vec::with_capacity(keys.len());
    for (ri, r) in right.iter().enumerate() {
        if key_of(r, keys.iter().map(|k| k.1), &mut key) {
            let (k, new) = set.insert(&key);
            if new {
                buckets.push(Vec::new());
            }
            buckets[k].push(ri);
        }
    }
    let mut pairs = Vec::new();
    for (li, l) in left.iter().enumerate() {
        if !key_of(l, keys.iter().map(|k| k.0), &mut key) {
            continue;
        }
        let Some(k) = set.find(&key) else {
            continue;
        };
        for &ri in &buckets[k] {
            if accept(l, &right[ri])? {
                pairs.push((li, ri));
            }
        }
    }
    Ok(pairs)
}

/// Group context for aggregate evaluation.
pub struct AggCtx<'r> {
    scope: &'r Scope,
    rows: &'r [Row<'r>],
    outer: Option<&'r Env<'r>>,
}

/// Evaluates `expr` in `env`; aggregates draw from `agg` when present.
/// Columns, literals and parameters come back borrowed.
pub fn eval<'r>(
    ctx: &Ctx<'r>,
    expr: &'r Expr,
    env: &Env<'r>,
    agg: Option<&AggCtx<'r>>,
) -> Result<Cow<'r, Value>> {
    Ok(match expr {
        Expr::Literal(v) => Cow::Borrowed(v),
        Expr::Param(i) => Cow::Borrowed(
            (ctx.params.get(*i))
                .ok_or_else(|| DbError::exec(format!("missing bind parameter {}", i + 1)))?,
        ),
        Expr::Column { table, name } => {
            let at = expr as *const Expr as usize;
            Cow::Borrowed(env.lookup(at, table.as_deref(), name).ok_or_else(|| {
                DbError::schema(match table {
                    Some(t) => format!("no such column: {t}.{name}"),
                    None => format!("no such column: {name}"),
                })
            })?)
        }
        Expr::Binary { op, left, right } => {
            Cow::Owned(eval_binary(ctx, *op, left, right, env, agg)?)
        }
        Expr::Function { name, arg } => {
            let Some(agg) = agg else {
                return Err(DbError::exec(format!(
                    "misuse of aggregate function {name}()"
                )));
            };
            eval_aggregate(ctx, name, arg.as_deref(), agg)?
        }
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let needle = eval(ctx, expr, env, agg)?;
            // The set is looked at first: an empty one decides the
            // result even for a NULL needle, as in SQLite.
            let rows = exec_subquery(ctx, query, env)?;
            let found = |yes: bool| Cow::Owned(Value::Integer((yes != *negated) as i64));
            if rows.is_empty() {
                return Ok(found(false));
            }
            if needle.is_null() {
                return Ok(Cow::Owned(Value::Null));
            }
            let mut saw_null = false;
            for row in rows.iter() {
                match needle.sql_eq(row.first().unwrap_or(&NULL)) {
                    Some(true) => return Ok(found(true)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Cow::Owned(Value::Null)
            } else {
                found(false)
            }
        }
        Expr::Exists { query, negated } => {
            let rows = exec_subquery(ctx, query, env)?;
            Cow::Owned(Value::Integer((rows.is_empty() == *negated) as i64))
        }
        Expr::Subquery(query) => {
            let rows = exec_subquery(ctx, query, env)?;
            Cow::Owned(
                rows.first()
                    .and_then(|r| r.first())
                    .cloned()
                    .unwrap_or(Value::Null),
            )
        }
    })
}

fn eval_binary<'r>(
    ctx: &Ctx<'r>,
    op: BinOp,
    left: &'r Expr,
    right: &'r Expr,
    env: &Env<'r>,
    agg: Option<&AggCtx<'r>>,
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
        // Integer arithmetic when both sides are integers and the sum
        // fits, else real.
        BinOp::Add => match (&*l, &*r) {
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
fn eval_aggregate<'r>(
    ctx: &Ctx<'r>,
    name: &str,
    arg: Option<&'r Expr>,
    agg: &AggCtx<'r>,
) -> Result<Cow<'r, Value>> {
    let Some(arg) = arg else {
        return Ok(Cow::Owned(Value::Integer(agg.rows.len() as i64)));
    };
    let mut count = 0;
    let mut max: Option<Cow<'r, Value>> = None;
    for &row in agg.rows {
        let env = Env {
            scope: agg.scope,
            row,
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
        "COUNT" => Ok(Cow::Owned(Value::Integer(count))),
        "MAX" => Ok(max.unwrap_or(Cow::Owned(Value::Null))),
        _ => Err(DbError::exec(format!("no such function: {name}"))),
    }
}
