//! Schema and DML generators shared by the equivalence suites
//! (`plan_equiv.rs`: planner on ≡ off; `replay_equiv.rs`: live ≡
//! replayed ≡ compacted). A suite is a [`Sink`]: it decides where a
//! statement runs and what must hold afterwards.

use libseal_sealdb::Value;
use plat::check::Gen;

/// Where generated statements go.
pub trait Sink {
    /// Runs one statement with bound parameters; panics if it fails.
    fn exec(&mut self, sql: &str, params: &[Value]);
}

/// Small value domain so equality predicates and join keys actually
/// match: NULLs, colliding integers/reals (2 vs 2.0), short strings,
/// and the occasional NaN to exercise the planner's fallback paths.
pub fn small_value(g: &mut Gen) -> Value {
    match g.below(16) {
        0 | 1 => Value::Null,
        2..=8 => Value::Integer(g.i64_in(0..5)),
        9..=12 => Value::Text((*g.pick(&["x", "y", "z"])).to_string()),
        13 => Value::Real(g.i64_in(0..5) as f64),
        14 => Value::Real(0.5),
        _ => {
            if g.below(4) == 0 {
                Value::Real(f64::NAN)
            } else {
                Value::Integer(g.i64_in(0..5))
            }
        }
    }
}

pub const TYPES: [&str; 4] = ["INTEGER", "TEXT", "REAL", "BLOB"];

/// Creates `t0`/`t1` (both with columns `c0..c2`, random declared
/// types), fills them with random rows, and declares random indexes.
pub fn build_schema(g: &mut Gen, p: &mut impl Sink) {
    for t in ["t0", "t1"] {
        let cols: Vec<String> = (0..3)
            .map(|c| format!("c{c} {}", *g.pick(&TYPES)))
            .collect();
        p.exec(&format!("CREATE TABLE {t}({})", cols.join(", ")), &[]);
        let rows = g.usize_in(0..30);
        for _ in 0..rows {
            let vals = [small_value(g), small_value(g), small_value(g)];
            p.exec(&format!("INSERT INTO {t} VALUES (?, ?, ?)"), &vals);
        }
        for c in 0..3 {
            if g.bool() {
                p.exec(&format!("CREATE INDEX ix_{t}_c{c} ON {t}(c{c})"), &[]);
            }
        }
    }
}

pub fn random_dml(g: &mut Gen, p: &mut impl Sink) {
    let t = *g.pick(&["t0", "t1"]);
    let c = g.index(3);
    match g.below(3) {
        0 => {
            let vals = [small_value(g), small_value(g), small_value(g)];
            p.exec(&format!("INSERT INTO {t} VALUES (?, ?, ?)"), &vals);
        }
        1 => p.exec(
            &format!("DELETE FROM {t} WHERE c{c} = ?"),
            &[small_value(g)],
        ),
        _ => {
            let set = g.index(3);
            p.exec(
                &format!("UPDATE {t} SET c{set} = ? WHERE c{c} = ?"),
                &[small_value(g), small_value(g)],
            );
        }
    }
}
