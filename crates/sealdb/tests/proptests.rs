//! Property-based tests for the sealdb engine invariants
//! (deterministic `plat::check` harness; same properties and case
//! counts as the original proptest suite).

use libseal_sealdb::{Database, PlainCodec, Value};
use plat::check::Gen;
use plat::tmp::TempPath;

fn value(g: &mut Gen) -> Value {
    match g.usize_in(0..5) {
        0 => Value::Null,
        1 => Value::Integer(g.i64()),
        2 => Value::Real(g.f64_in(-1e12, 1e12)),
        3 => Value::Text(g.lowercase(0..13)),
        _ => Value::Blob(g.bytes(0..16)),
    }
}

plat::prop! {
    #![cases(64)]

    fn total_cmp_is_a_total_order(g) {
        use std::cmp::Ordering;
        let (a, b, c) = (value(g), value(g), value(g));
        // Antisymmetry.
        assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity.
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        // Reflexivity.
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    fn group_key_agrees_with_equality(g) {
        use std::cmp::Ordering;
        let (a, b) = (value(g), value(g));
        if a.total_cmp(&b) == Ordering::Equal {
            assert_eq!(a.group_key(), b.group_key());
        } else {
            assert_ne!(a.group_key(), b.group_key());
        }
        // Hash tables key on the class, so it must split values exactly
        // as the key string does.
        assert_eq!(a.group_class() == b.group_class(), a.group_key() == b.group_key());
    }

    fn count_matches_inserted(g) {
        let values: Vec<i64> = (0..g.usize_in(0..40)).map(|_| g.i64()).collect();
        let mut db = Database::new();
        db.execute("CREATE TABLE t(v INTEGER)").unwrap();
        for v in &values {
            db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(*v)]).unwrap();
        }
        let r = db.query("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(values.len() as i64));
    }

    fn order_by_sorts(g) {
        let values: Vec<i64> = (0..g.usize_in(1..40)).map(|_| g.i64_in(-1000..1000)).collect();
        let mut db = Database::new();
        db.execute("CREATE TABLE t(v INTEGER)").unwrap();
        for v in &values {
            db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(*v)]).unwrap();
        }
        let r = db.query("SELECT v FROM t ORDER BY v", &[]).unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| match row[0] {
            Value::Integer(i) => i,
            _ => unreachable!(),
        }).collect();
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    fn distinct_matches_set(g) {
        let values: Vec<i64> = (0..g.usize_in(0..60)).map(|_| g.i64_in(0..20)).collect();
        let mut db = Database::new();
        db.execute("CREATE TABLE t(v INTEGER)").unwrap();
        for v in &values {
            db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(*v)]).unwrap();
        }
        let r = db.query("SELECT DISTINCT v FROM t", &[]).unwrap();
        let set: std::collections::HashSet<i64> = values.iter().copied().collect();
        assert_eq!(r.rows.len(), set.len());
    }

    fn max_matches(g) {
        let values: Vec<i64> = (0..g.usize_in(1..40)).map(|_| g.i64_in(-1000..1000)).collect();
        let mut db = Database::new();
        db.execute("CREATE TABLE t(v INTEGER)").unwrap();
        for v in &values {
            db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(*v)]).unwrap();
        }
        let r = db.query("SELECT MAX(v) FROM t", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Integer(*values.iter().max().unwrap()));
    }

    fn journal_replay_reproduces_state(g) {
        let ops: Vec<(i64, bool)> = (0..g.usize_in(1..40))
            .map(|_| (g.i64_in(0..50), g.bool()))
            .collect();
        let path = TempPath::new("sealdb-prop", "db");
        let live_rows = {
            let mut db = Database::open(&path, Box::new(PlainCodec)).unwrap();
            db.execute("CREATE TABLE t(v INTEGER)").unwrap();
            for (v, del) in &ops {
                if *del {
                    db.execute_with("DELETE FROM t WHERE v = ?", &[Value::Integer(*v)]).unwrap();
                } else {
                    db.execute_with("INSERT INTO t VALUES (?)", &[Value::Integer(*v)]).unwrap();
                }
            }
            db.query("SELECT v FROM t ORDER BY v", &[]).unwrap().rows
        };
        let db = Database::open(&path, Box::new(PlainCodec)).unwrap();
        let replayed = db.query("SELECT v FROM t ORDER BY v", &[]).unwrap().rows;
        assert_eq!(live_rows, replayed);
    }

    fn text_values_roundtrip_through_params(g) {
        let s = g.unicode_string(0..31);
        let mut db = Database::new();
        db.execute("CREATE TABLE t(s TEXT)").unwrap();
        db.execute_with("INSERT INTO t VALUES (?)", &[Value::Text(s.clone())]).unwrap();
        let r = db.query("SELECT s FROM t", &[]).unwrap();
        assert_eq!(r.scalar().unwrap(), &Value::Text(s));
    }
}

/// The classes hash tables key on split these corners exactly as the
/// group key string does: 2 ≡ 2.0 and 0 ≡ -0.0, reals past 9e15 and NaN by
/// bits, and no text or blob collides with a number.
#[test]
fn group_classes_match_group_keys_on_corners() {
    let values = [
        Value::Null,
        Value::Integer(2),
        Value::Real(2.0),
        Value::Real(-0.0),
        Value::Integer(0),
        Value::Real(2.5),
        Value::Real(f64::NAN),
        Value::Real(1e16),
        Value::Integer(10_000_000_000_000_000),
        Value::Text("i2".into()),
        Value::Text("2".into()),
        Value::Blob(vec![0x69, 0x32]),
        Value::Blob(vec![0xab]),
    ];
    for a in &values {
        for b in &values {
            let same = a.group_key() == b.group_key();
            assert_eq!(a.group_class() == b.group_class(), same, "{a:?} vs {b:?}");
        }
    }
    assert_eq!(Value::Blob(vec![0xab, 1]).group_key(), "bab01");
    assert_eq!(
        Value::Real(2.5).group_key(),
        format!("r{}", 2.5f64.to_bits())
    );
}
