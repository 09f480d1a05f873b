//! A minimal JSON value type, parser and serializer.
//!
//! ownCloud Documents synchronises edits as JSON messages and the
//! Dropbox protocol sends `commit_batch`/`list` JSON bodies (§6.1/§6.2);
//! the service-specific modules parse them with this module.

use std::collections::BTreeMap;
use std::fmt;

use crate::{ParseError, Result};

/// How deep arrays and objects may nest. The parser recurses once per
/// level and bodies arrive from the network on both sides of the
/// enclave boundary — in-enclave on lthread stacks of 256 KiB with no
/// guard page — so depth is capped far below what any stack holds and
/// far above the deepest honest body (Dropbox `commit_batch`: 4).
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64; integral values serialize without a
    /// decimal point).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys (deterministic serialization).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// [`ParseError::Malformed`] on invalid JSON, [`ParseError::TooDeep`]
    /// past [`MAX_DEPTH`] levels of nesting.
    pub fn parse(text: &str) -> Result<Json> {
        let chars: Vec<char> = text.chars().collect();
        let mut p = JsonParser {
            chars,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(ParseError::Malformed("trailing JSON content".into()));
        }
        Ok(v)
    }

    /// Parses from bytes (must be UTF-8).
    ///
    /// # Errors
    ///
    /// [`ParseError::Malformed`] on invalid UTF-8 or JSON.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json> {
        let s = std::str::from_utf8(bytes)
            .map_err(|_| ParseError::Malformed("JSON not UTF-8".into()))?;
        Json::parse(s)
    }

    /// Builds an object from pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Builds a number value.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Number(n.into())
    }

    /// Object member access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// Number view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer view (for integral numbers).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Number(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => write_json_string(f, s),
            Json::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Object(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_json_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_json_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct JsonParser {
    chars: Vec<char>,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl JsonParser {
    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn expect(&mut self, c: char) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::Malformed(format!(
                "expected '{c}' at position {}",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.nested(Self::parse_object),
            Some('[') => self.nested(Self::parse_array),
            Some('"') => Ok(Json::String(self.parse_string()?)),
            Some('t') => self.parse_literal("true", Json::Bool(true)),
            Some('f') => self.parse_literal("false", Json::Bool(false)),
            Some('n') => self.parse_literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(ParseError::Malformed(format!(
                "unexpected JSON character {other:?}"
            ))),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json>) -> Result<Json> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep { limit: MAX_DEPTH });
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn parse_literal(&mut self, lit: &str, v: Json) -> Result<Json> {
        for c in lit.chars() {
            self.expect(c)?;
        }
        Ok(v)
    }

    fn parse_object(&mut self) -> Result<Json> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some('}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                other => {
                    return Err(ParseError::Malformed(format!(
                        "expected ',' or '}}', found {other:?}"
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(',') => self.pos += 1,
                Some(']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(ParseError::Malformed(format!(
                        "expected ',' or ']', found {other:?}"
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            let c = self
                .peek()
                .ok_or_else(|| ParseError::Malformed("unterminated string".into()))?;
            self.pos += 1;
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| ParseError::Malformed("dangling escape".into()))?;
                    self.pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let h = self.peek().ok_or_else(|| {
                                    ParseError::Malformed("truncated \\u escape".into())
                                })?;
                                self.pos += 1;
                                code = code * 16
                                    + h.to_digit(16).ok_or_else(|| {
                                        ParseError::Malformed("bad \\u escape".into())
                                    })?;
                            }
                            // Surrogate pairs: combine when present.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some('\\') {
                                    self.pos += 1;
                                    self.expect('u')?;
                                    let mut low = 0u32;
                                    for _ in 0..4 {
                                        let h = self.peek().ok_or_else(|| {
                                            ParseError::Malformed("truncated \\u escape".into())
                                        })?;
                                        self.pos += 1;
                                        low = low * 16
                                            + h.to_digit(16).ok_or_else(|| {
                                                ParseError::Malformed("bad \\u escape".into())
                                            })?;
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| {
                                ParseError::Malformed("invalid unicode escape".into())
                            })?);
                        }
                        other => {
                            return Err(ParseError::Malformed(format!("unknown escape \\{other}")))
                        }
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| ParseError::Malformed(format!("bad number: {text}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_document() {
        let j = Json::parse(r#"{"a": 1, "b": [true, null, "x"], "c": {"d": -2.5}}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(j.get("b").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(j.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2.5));
    }

    #[test]
    fn roundtrip_display_parse() {
        let j = Json::object([
            ("file", Json::str("a.txt")),
            ("size", Json::num(1234)),
            (
                "blocks",
                Json::Array(vec![Json::str("h1"), Json::str("h2")]),
            ),
            ("deleted", Json::Bool(false)),
            ("meta", Json::Null),
        ]);
        let text = j.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(j, back);
    }

    #[test]
    fn string_escapes() {
        let j = Json::parse(r#""line\nquote\" tab\t uA""#).unwrap();
        assert_eq!(j.as_str(), Some("line\nquote\" tab\t uA"));
        let out = Json::String("a\"b\\c\nd".into()).to_string();
        assert_eq!(Json::parse(&out).unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn surrogate_pairs() {
        let j = Json::parse(r#""😀""#).unwrap();
        assert_eq!(j.as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "{",
            "[1,",
            r#"{"a" 1}"#,
            "tru",
            "01x",
            "\"unterminated",
            "{} extra",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    /// Runs `f` on a thread with the stack an in-enclave lthread gets.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let t = std::thread::Builder::new().stack_size(256 * 1024);
        t.spawn(f).unwrap().join().unwrap()
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let too_deep = ParseError::TooDeep { limit: MAX_DEPTH };
        assert!(on_small_stack(move || Json::parse(&arrays(MAX_DEPTH))).is_ok());
        assert_eq!(Json::parse(&arrays(MAX_DEPTH + 1)), Err(too_deep.clone()));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
        // Attacker-sized: the error comes back on a stack a thousand
        // levels would have overflowed.
        for unit in ["[", r#"{"a":"#] {
            let got = on_small_stack(move || Json::parse(&unit.repeat(1_000_000)));
            assert_eq!(got, Err(too_deep.clone()));
        }
        assert_eq!(too_deep.close_status(), 400);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(BTreeMap::new()));
    }

    #[test]
    fn numbers_render_cleanly() {
        assert_eq!(Json::Number(5.0).to_string(), "5");
        assert_eq!(Json::Number(5.5).to_string(), "5.5");
        assert_eq!(Json::Number(-0.25).to_string(), "-0.25");
    }

    #[test]
    fn deterministic_object_order() {
        let a = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(a.to_string(), r#"{"a":2,"z":1}"#);
    }
}
