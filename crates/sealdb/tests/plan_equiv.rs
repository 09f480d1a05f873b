//! Optimized-vs-naive executor equivalence (deterministic `plat::check`
//! harness).
//!
//! The optimizing interpreter (hash joins, index scans, subquery
//! memoization) must be observationally identical to the naive
//! nested-loop interpreter: same output columns, same rows, same row
//! *order*. Each case builds the same random database twice — once with
//! the planner enabled, once disabled — runs random queries against
//! both, and asserts exact equality. Random DML is interleaved and the
//! planner-side hash indexes are checked for consistency after every
//! mutation.

use libseal_sealdb::{Database, Value};
use plat::check::Gen;

mod common;
use common::{build_schema, random_dml, small_value, Sink};

/// A planner-on / planner-off database pair kept in lockstep.
struct Pair {
    on: Database,
    off: Database,
}

impl Pair {
    fn new() -> Pair {
        let on = Database::new();
        let mut off = Database::new();
        off.set_planner_enabled(false);
        Pair { on, off }
    }

    fn check(&self, sql: &str, params: &[Value]) {
        let a = self.on.query(sql, params).unwrap();
        let b = self.off.query(sql, params).unwrap();
        assert_eq!(a.columns, b.columns, "columns differ for: {sql}");
        assert_eq!(a.rows, b.rows, "rows differ for: {sql}");
    }
}

impl Sink for Pair {
    fn exec(&mut self, sql: &str, params: &[Value]) {
        self.on.execute_with(sql, params).unwrap();
        self.off.execute_with(sql, params).unwrap();
        for t in self.on.catalog().tables_sorted() {
            assert!(
                t.indexes_consistent(),
                "indexes on {} inconsistent after: {sql}",
                t.name
            );
        }
    }
}

fn random_query(g: &mut Gen, p: &Pair) {
    let ta = *g.pick(&["t0", "t1"]);
    let tb = *g.pick(&["t0", "t1"]);
    let (ci, cj, ck) = (g.index(3), g.index(3), g.index(3));
    match g.below(9) {
        // Single-table equality filter (index-scan fast path).
        0 => p.check(
            &format!("SELECT * FROM {ta} WHERE c{ci} = ?"),
            &[small_value(g)],
        ),
        // Equality conjunct plus a residual non-equi conjunct.
        1 => p.check(
            &format!("SELECT * FROM {ta} WHERE c{ci} = ? AND c{cj} > ?"),
            &[small_value(g), small_value(g)],
        ),
        // Hash inner join on one equi key.
        2 => p.check(
            &format!("SELECT a.c0, b.c1 FROM {ta} a JOIN {tb} b ON a.c{ci} = b.c{cj}"),
            &[],
        ),
        // Inner join with an equi key and a residual conjunct.
        3 => p.check(
            &format!(
                "SELECT a.c0, b.c2 FROM {ta} a JOIN {tb} b \
                 ON a.c{ci} = b.c{cj} AND a.c{ck} > ?"
            ),
            &[small_value(g)],
        ),
        // Hash join filtered by a correlated MAX, the shape of the
        // paper's invariants (memoization inside a join's output).
        4 => p.check(
            &format!(
                "SELECT a.c0, b.c{ck} FROM {ta} a JOIN {tb} b ON a.c{ci} = b.c{cj} \
                 WHERE b.c{ck} = (SELECT MAX(c{ck}) FROM {tb} WHERE c{cj} = a.c{ci})"
            ),
            &[],
        ),
        // NATURAL JOIN over all shared columns.
        5 => p.check(&format!("SELECT * FROM {ta} NATURAL JOIN {tb}"), &[]),
        // Correlated scalar subquery (memoization path).
        6 => p.check(
            &format!(
                "SELECT c0, (SELECT COUNT(*) FROM {tb} b WHERE b.c{cj} = {ta}.c{ci}) \
                 FROM {ta}"
            ),
            &[],
        ),
        // [NOT] IN / [NOT] EXISTS subqueries.
        7 => {
            let not = *g.pick(&["", "NOT "]);
            if g.bool() {
                p.check(
                    &format!("SELECT * FROM {ta} WHERE c{ci} {not}IN (SELECT c{cj} FROM {tb})"),
                    &[],
                );
            } else {
                p.check(
                    &format!(
                        "SELECT * FROM {ta} WHERE {not}EXISTS \
                         (SELECT 1 FROM {tb} b WHERE b.c{cj} = {ta}.c{ci})"
                    ),
                    &[],
                );
            }
        }
        // Aggregation over a possibly-indexed grouping column.
        _ => p.check(
            &format!("SELECT c{ci}, COUNT(*) FROM {ta} GROUP BY c{ci}"),
            &[],
        ),
    }
}

plat::prop! {
    #![cases(48)]

    fn optimized_executor_matches_naive(g) {
        let mut p = Pair::new();
        build_schema(g, &mut p);
        for _ in 0..g.usize_in(4..12) {
            if g.below(3) == 0 {
                random_dml(g, &mut p);
            }
            random_query(g, &p);
        }
    }

    fn index_scan_with_nan_matches_naive(g) {
        // Force NaN into an indexed key column: the index is poisoned
        // and every optimized path must fall back without changing
        // results.
        let mut p = Pair::new();
        p.exec("CREATE TABLE t0(c0 REAL, c1 INTEGER)", &[]);
        p.exec("CREATE INDEX ix_t0_c0 ON t0(c0)", &[]);
        for _ in 0..g.usize_in(1..12) {
            p.exec(
                "INSERT INTO t0 VALUES (?, ?)",
                &[small_value(g), small_value(g)],
            );
        }
        p.exec(
            "INSERT INTO t0 VALUES (?, ?)",
            &[Value::Real(f64::NAN), Value::Integer(1)],
        );
        p.check("SELECT * FROM t0 WHERE c0 = ?", &[small_value(g)]);
        p.check(
            "SELECT a.c1, b.c1 FROM t0 a JOIN t0 b ON a.c0 = b.c0",
            &[],
        );
    }
}
