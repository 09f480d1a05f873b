//! Dynamically-typed SQL values with SQLite-style semantics.
//!
//! Values are dynamically typed; column type declarations assign an
//! *affinity* that nudges inserted values, as in SQLite. Comparisons
//! follow SQLite's cross-type ordering (NULL < numbers < TEXT < BLOB)
//! and `NULL` propagates through operators (three-valued logic lives in
//! the expression evaluator).

use std::cmp::Ordering;
use std::fmt;

/// A single SQL value.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 string.
    Text(String),
    /// Raw bytes.
    Blob(Vec<u8>),
}

/// A value's equality class for grouping, DISTINCT and hash joins
/// ([`Value::group_class`]): 2 and 2.0 share one, other reals are told
/// apart by bit pattern (so NaNs only match their own bits, unlike
/// `total_cmp`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupClass<'v> {
    /// NULL.
    Null,
    /// An integer, or a real with an integral value below 9e15.
    Integer(i64),
    /// Any other real, by bit pattern.
    Real(u64),
    /// Text.
    Text(&'v str),
    /// Bytes.
    Blob(&'v [u8]),
}

/// Column type affinity, per SQLite's type system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Affinity {
    /// Prefer integers.
    Integer,
    /// Prefer floats.
    Real,
    /// Prefer text.
    Text,
    /// Store as-is.
    Blob,
    /// Prefer numbers, keep text otherwise.
    Numeric,
}

impl Affinity {
    /// Maps a declared column type name to an affinity (simplified
    /// version of SQLite's rules).
    pub fn from_decl(decl: &str) -> Affinity {
        let up = decl.to_ascii_uppercase();
        if up.contains("INT") {
            Affinity::Integer
        } else if up.contains("CHAR") || up.contains("TEXT") || up.contains("CLOB") {
            Affinity::Text
        } else if up.contains("BLOB") || up.is_empty() {
            Affinity::Blob
        } else if up.contains("REAL") || up.contains("FLOA") || up.contains("DOUB") {
            Affinity::Real
        } else {
            Affinity::Numeric
        }
    }

    /// Applies the affinity to a value being stored.
    pub fn apply(&self, v: Value) -> Value {
        match (self, v) {
            (_, Value::Text(s)) => self.coerce_text(&s).unwrap_or(Value::Text(s)),
            (Affinity::Integer, Value::Real(f)) if f.fract() == 0.0 && f.abs() < 9e15 => {
                Value::Integer(f as i64)
            }
            (Affinity::Real, Value::Integer(i)) => Value::Real(i as f64),
            (Affinity::Text, Value::Integer(i)) => Value::Text(i.to_string()),
            (Affinity::Text, Value::Real(f)) => Value::Text(fmt_real(f)),
            (_, v) => v,
        }
    }

    /// The number this affinity turns the text `s` into when stored;
    /// `None` keeps it text.
    pub fn coerce_text(&self, s: &str) -> Option<Value> {
        let s = s.trim();
        match self {
            Affinity::Integer | Affinity::Numeric => (s.parse::<i64>().ok().map(Value::Integer))
                .or_else(|| s.parse::<f64>().ok().map(Value::Real)),
            Affinity::Real => s.parse::<f64>().ok().map(Value::Real),
            Affinity::Text | Affinity::Blob => None,
        }
    }
}

fn fmt_real(f: f64) -> String {
    if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{:.1}", f)
    } else {
        format!("{}", f)
    }
}

impl Value {
    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL truthiness: numbers are true when non-zero; NULL is unknown
    /// (`None`).
    pub fn to_bool(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(*i != 0),
            Value::Real(f) => Some(*f != 0.0),
            Value::Text(s) => Some(s.trim().parse::<f64>().map(|f| f != 0.0).unwrap_or(false)),
            Value::Blob(_) => Some(false),
        }
    }

    /// Numeric view for arithmetic, if any.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Real(f) => Some(*f),
            Value::Text(s) => s.trim().parse::<f64>().ok(),
            _ => None,
        }
    }

    /// SQL equality: `None` when either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// Total cross-type ordering used for ORDER BY, GROUP BY and
    /// DISTINCT: NULL < numeric < TEXT < BLOB; numerics compare by
    /// value.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn class(v: &Value) -> u8 {
            match v {
                Null => 0,
                Integer(_) | Real(_) => 1,
                Text(_) => 2,
                Blob(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Integer(a), Integer(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Integer(a), Real(b)) => (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal),
            (Real(a), Integer(b)) => a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal),
            (Text(a), Text(b)) => a.cmp(b),
            (Blob(a), Blob(b)) => a.cmp(b),
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// A stable key usable for hashing groups and DISTINCT sets.
    pub fn group_key(&self) -> String {
        let mut k = String::new();
        self.write_group_key(&mut k);
        k
    }

    /// Appends [`Value::group_key`] to `out`.
    pub fn write_group_key(&self, out: &mut String) {
        use fmt::Write;
        // Writing to a String cannot fail.
        let _ = match self.group_class() {
            GroupClass::Null => write!(out, "n"),
            GroupClass::Integer(i) => write!(out, "i{i}"),
            GroupClass::Real(bits) => write!(out, "r{bits}"),
            GroupClass::Text(s) => write!(out, "t{s}"),
            GroupClass::Blob(b) => {
                out.push('b');
                b.iter().try_for_each(|byte| write!(out, "{byte:02x}"))
            }
        };
    }

    /// The value's class under [`Value::group_key`] equality, borrowed:
    /// two values share a class exactly when their group keys are
    /// equal, so hash tables key on it without building the string.
    pub fn group_class(&self) -> GroupClass<'_> {
        match self {
            Value::Null => GroupClass::Null,
            Value::Integer(i) => GroupClass::Integer(*i),
            // Integral reals group with integers, as in SQLite.
            Value::Real(f) if f.fract() == 0.0 && f.abs() < 9e15 => GroupClass::Integer(*f as i64),
            Value::Real(f) => GroupClass::Real(f.to_bits()),
            Value::Text(s) => GroupClass::Text(s),
            Value::Blob(b) => GroupClass::Blob(b),
        }
    }

    /// Estimated in-memory footprint in bytes (for EPC accounting).
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Integer(_) | Value::Real(_) => 9,
            Value::Text(s) => 13 + s.len(),
            Value::Blob(b) => 13 + b.len(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    /// Renders like the sqlite3 shell: NULL as empty, reals with at
    /// least one decimal, blobs as hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{}", fmt_real(*r)),
            Value::Text(s) => write!(f, "{s}"),
            Value::Blob(b) => {
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_from_decl() {
        assert_eq!(Affinity::from_decl("INTEGER"), Affinity::Integer);
        assert_eq!(Affinity::from_decl("int"), Affinity::Integer);
        assert_eq!(Affinity::from_decl("VARCHAR(20)"), Affinity::Text);
        assert_eq!(Affinity::from_decl("TEXT"), Affinity::Text);
        assert_eq!(Affinity::from_decl("BLOB"), Affinity::Blob);
        assert_eq!(Affinity::from_decl("REAL"), Affinity::Real);
        assert_eq!(Affinity::from_decl("DECIMAL"), Affinity::Numeric);
    }

    #[test]
    fn integer_affinity_converts_text() {
        let v = Affinity::Integer.apply(Value::Text(" 42 ".into()));
        assert_eq!(v, Value::Integer(42));
        let v = Affinity::Integer.apply(Value::Text("abc".into()));
        assert_eq!(v, Value::Text("abc".into()));
    }

    #[test]
    fn text_affinity_stringifies() {
        assert_eq!(
            Affinity::Text.apply(Value::Integer(7)),
            Value::Text("7".into())
        );
    }

    #[test]
    fn cross_type_ordering() {
        assert_eq!(Value::Null.total_cmp(&Value::Integer(0)), Ordering::Less);
        assert_eq!(
            Value::Integer(5).total_cmp(&Value::Text("a".into())),
            Ordering::Less
        );
        assert_eq!(
            Value::Text("z".into()).total_cmp(&Value::Blob(vec![0])),
            Ordering::Less
        );
        assert_eq!(
            Value::Integer(2).total_cmp(&Value::Real(2.0)),
            Ordering::Equal
        );
        assert_eq!(
            Value::Integer(2).total_cmp(&Value::Real(2.5)),
            Ordering::Less
        );
    }

    #[test]
    fn null_propagates_in_eq() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_eq(&Value::Integer(1)), Some(true));
        assert_eq!(Value::Integer(1).sql_eq(&Value::Integer(2)), Some(false));
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Integer(0).to_bool(), Some(false));
        assert_eq!(Value::Integer(3).to_bool(), Some(true));
        assert_eq!(Value::Null.to_bool(), None);
        assert_eq!(Value::Text("1".into()).to_bool(), Some(true));
        assert_eq!(Value::Text("x".into()).to_bool(), Some(false));
    }

    #[test]
    fn group_keys_distinguish_types() {
        assert_ne!(
            Value::Integer(1).group_key(),
            Value::Text("1".into()).group_key()
        );
        assert_eq!(Value::Real(1.0).group_key(), Value::Integer(1).group_key());
    }

    #[test]
    fn display_matches_sqlite_shell() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Integer(42).to_string(), "42");
        assert_eq!(Value::Text("hi".into()).to_string(), "hi");
        assert_eq!(Value::Real(1.5).to_string(), "1.5");
        assert_eq!(Value::Real(2.0).to_string(), "2.0");
    }
}
