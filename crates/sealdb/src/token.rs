//! The SQL tokenizer.

use std::ops::Range;

use crate::{DbError, Result};

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords matched by the
    /// parser; original case preserved).
    Word(String),
    /// Quoted identifier: `"name"` or `` `name` `` or `[name]`.
    QuotedIdent(String),
    /// String literal: `'text'`.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Blob literal `x'ABCD'`.
    Blob(Vec<u8>),
    /// A `?` or `?N` parameter placeholder (0-based index).
    Param(usize),
    /// Punctuation / operators.
    Symbol(&'static str),
}

impl Token {
    /// Whether this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }
}

/// Quotes `name` as an identifier (the inverse of the tokenizer's
/// `"name"` rule, `"` doubled inside), so any catalog name can be
/// spliced into statement text: the table in the row `INSERT`s that
/// [`crate::Database::compact`] and the audit log's append compose.
pub fn quote_ident(name: &str) -> String {
    format!("\"{}\"", name.replace('"', "\"\""))
}

/// Splits `sql` into tokens and, parallel to them, the byte range of
/// `sql` each was read from.
///
/// # Errors
///
/// Returns a parse error on malformed literals or unknown characters.
pub fn tokenize(sql: &str) -> Result<(Vec<Token>, Vec<Range<usize>>)> {
    let bytes = sql.as_bytes();
    // About three bytes a token: one allocation each, not five.
    let mut out = Vec::with_capacity(sql.len() / 3 + 1);
    let mut spans = Vec::with_capacity(sql.len() / 3 + 1);
    let mut i = 0;
    let mut param_counter = 0usize;
    while i < bytes.len() {
        let start = i;
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            '\'' => {
                let (s, len) = read_quoted(&sql[i..], '\'')?;
                out.push(Token::Str(s));
                i += len;
            }
            '"' => {
                let (s, len) = read_quoted(&sql[i..], '"')?;
                out.push(Token::QuotedIdent(s));
                i += len;
            }
            '`' => {
                let (s, len) = read_quoted(&sql[i..], '`')?;
                out.push(Token::QuotedIdent(s));
                i += len;
            }
            '[' => {
                let end = sql[i..]
                    .find(']')
                    .ok_or_else(|| DbError::parse("unterminated [identifier]"))?;
                out.push(Token::QuotedIdent(sql[i + 1..i + end].to_string()));
                i += end + 1;
            }
            '?' => {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j > i + 1 {
                    let n: usize = sql[i + 1..j]
                        .parse()
                        .map_err(|_| DbError::parse("bad parameter number"))?;
                    if n == 0 {
                        return Err(DbError::parse("parameter numbers are 1-based"));
                    }
                    out.push(Token::Param(n - 1));
                    param_counter = param_counter.max(n);
                } else {
                    out.push(Token::Param(param_counter));
                    param_counter += 1;
                }
                i = j.max(i + 1);
            }
            '0'..='9' => {
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len()
                    && (bytes[j].is_ascii_digit()
                        || bytes[j] == b'.'
                        || bytes[j] == b'e'
                        || bytes[j] == b'E'
                        || ((bytes[j] == b'+' || bytes[j] == b'-')
                            && j > i
                            && (bytes[j - 1] == b'e' || bytes[j - 1] == b'E')))
                {
                    if bytes[j] == b'.' || bytes[j] == b'e' || bytes[j] == b'E' {
                        is_float = true;
                    }
                    j += 1;
                }
                let text = &sql[i..j];
                if is_float {
                    out.push(Token::Float(text.parse().map_err(|_| {
                        DbError::parse(format!("bad float literal {text}"))
                    })?));
                } else {
                    out.push(Token::Int(text.parse().map_err(|_| {
                        DbError::parse(format!("bad integer literal {text}"))
                    })?));
                }
                i = j;
            }
            'x' | 'X' if bytes.get(i + 1) == Some(&b'\'') => {
                let end = sql[i + 2..]
                    .find('\'')
                    .ok_or_else(|| DbError::parse("unterminated blob literal"))?;
                let hex = &sql[i + 2..i + 2 + end];
                if !hex.len().is_multiple_of(2) || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return Err(DbError::parse("malformed blob literal"));
                }
                let blob = (0..hex.len())
                    .step_by(2)
                    .map(|k| {
                        u8::from_str_radix(&hex[k..k + 2], 16)
                            .map_err(|_| DbError::parse("malformed blob literal"))
                    })
                    .collect::<Result<Vec<u8>>>()?;
                out.push(Token::Blob(blob));
                i += 2 + end + 1;
            }
            c if c.is_alphabetic() || c == '_' => {
                // Advance whole chars: byte-wise stepping through a
                // multi-byte identifier could stop mid-char and panic
                // on the slice below.
                let mut j = i;
                while let Some(ch) = sql[j..].chars().next() {
                    if ch.is_alphanumeric() || ch == '_' {
                        j += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                if j == i {
                    // `c` was a Latin-1 reinterpretation of a lead
                    // byte whose actual char is not identifier-like.
                    return Err(DbError::parse(format!("unexpected character at byte {i}")));
                }
                out.push(Token::Word(sql[i..j].to_string()));
                i = j;
            }
            _ => {
                // Multi-char operators first.
                let two = sql.get(i..i + 2).unwrap_or("");
                let sym: &'static str = match two {
                    "!=" => "!=",
                    "<>" => "<>",
                    "<=" => "<=",
                    ">=" => ">=",
                    "||" => "||",
                    "==" => "==",
                    _ => match c {
                        '(' => "(",
                        ')' => ")",
                        ',' => ",",
                        ';' => ";",
                        '.' => ".",
                        '*' => "*",
                        '+' => "+",
                        '-' => "-",
                        '/' => "/",
                        '%' => "%",
                        '=' => "=",
                        '<' => "<",
                        '>' => ">",
                        _ => {
                            return Err(DbError::parse(format!(
                                "unexpected character '{c}' at byte {i}"
                            )))
                        }
                    },
                };
                if sym == ";" {
                    // `?` numbers from 1 in each statement, so a
                    // statement's span parses alone (as journal replay
                    // does) to what it parsed to in its script.
                    param_counter = 0;
                }
                out.push(Token::Symbol(sym));
                i += sym.len();
            }
        }
        if out.len() > spans.len() {
            spans.push(start..i);
        }
    }
    Ok((out, spans))
}

fn read_quoted(s: &str, quote: char) -> Result<(String, usize)> {
    // s starts at the opening quote. Doubled quotes escape.
    let mut out = String::new();
    let mut chars = s.char_indices().skip(1).peekable();
    while let Some((i, c)) = chars.next() {
        if c != quote {
            out.push(c);
        } else if chars.next_if(|&(_, next)| next == quote).is_some() {
            out.push(quote);
        } else {
            return Ok((out, i + quote.len_utf8()));
        }
    }
    Err(DbError::parse("unterminated string literal"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Token> {
        tokenize(sql).unwrap().0
    }

    #[test]
    fn basic_select() {
        let t = toks("SELECT a, b FROM t WHERE x != 3;");
        assert_eq!(t[0], Token::Word("SELECT".into()));
        assert!(t.contains(&Token::Symbol("!=")));
        assert!(t.contains(&Token::Int(3)));
        assert_eq!(*t.last().unwrap(), Token::Symbol(";"));
    }

    #[test]
    fn strings_with_escapes() {
        let t = toks("'it''s'");
        assert_eq!(t, vec![Token::Str("it's".into())]);
    }

    #[test]
    fn quoted_identifiers() {
        let t = toks(r#""my col" `tick` [brack]"#);
        assert_eq!(
            t,
            vec![
                Token::QuotedIdent("my col".into()),
                Token::QuotedIdent("tick".into()),
                Token::QuotedIdent("brack".into())
            ]
        );
    }

    #[test]
    fn numbers() {
        let t = toks("1 2.5 1e3 10.0");
        assert_eq!(
            t,
            vec![
                Token::Int(1),
                Token::Float(2.5),
                Token::Float(1000.0),
                Token::Float(10.0)
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let t = toks("SELECT -- comment\n 1 /* block */ + 2");
        assert_eq!(
            t,
            vec![
                Token::Word("SELECT".into()),
                Token::Int(1),
                Token::Symbol("+"),
                Token::Int(2)
            ]
        );
    }

    #[test]
    fn params_number_themselves() {
        let t = toks("? ? ?5 ?");
        assert_eq!(
            t,
            vec![
                Token::Param(0),
                Token::Param(1),
                Token::Param(4),
                Token::Param(5)
            ]
        );
    }

    #[test]
    fn blob_literal() {
        let t = toks("x'0aFF'");
        assert_eq!(t, vec![Token::Blob(vec![0x0a, 0xff])]);
        assert!(tokenize("x'0a0'").is_err());
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn concat_operator() {
        let t = toks("a || b");
        assert_eq!(t[1], Token::Symbol("||"));
    }

    #[test]
    fn spans_cover_each_token_and_params_restart_per_statement() {
        let sql = "SELECT ?, x'0a' ; -- c\n SELECT ? /* d */ ;";
        let (t, spans) = tokenize(sql).unwrap();
        let text: Vec<&str> = spans.iter().map(|s| &sql[s.clone()]).collect();
        assert_eq!(text, ["SELECT", "?", ",", "x'0a'", ";", "SELECT", "?", ";"]);
        assert_eq!((&t[1], &t[6]), (&Token::Param(0), &Token::Param(0)));
    }

    #[test]
    fn quoted_identifier_reads_back() {
        for name in ["t", "my table", "a\"b", "x]y`z"] {
            assert_eq!(
                toks(&quote_ident(name)),
                vec![Token::QuotedIdent(name.into())]
            );
        }
    }
}
