//! The SQL tokenizer.

use std::ops::Range;

use crate::{DbError, Result};

/// A lexical token.
#[derive(Clone, Debug, PartialEq)]
pub enum Token {
    /// Keyword or identifier (uppercased keywords matched by the
    /// parser; original case preserved).
    Word(String),
    /// Quoted identifier: `"name"`.
    QuotedIdent(String),
    /// String literal: `'text'`.
    Str(String),
    /// Integer literal.
    Int(i64),
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
/// [`crate::Database::write_snapshot`] and the audit log's prepared
/// append compose.
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
                i = j;
            }
            '0'..='9' => {
                // A number runs to the next non-alphanumeric, non-`.`
                // byte, so `2.5`, `1e3` and `12ab` are one malformed
                // token, never an integer followed by something else.
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'.') {
                    j += 1;
                }
                let text = &sql[i..j];
                out.push(Token::Int(text.parse().map_err(|_| {
                    DbError::parse(format!("bad integer literal {text}"))
                })?));
                i = j;
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
                // Multi-char operators first. `<=`, `>=`, `<>` and `==`
                // are read whole only so that the parser's refusal
                // names them.
                let two = sql.get(i..i + 2).unwrap_or("");
                let sym: &'static str = match two {
                    "!=" => "!=",
                    "||" => "||",
                    "<=" => "<=",
                    ">=" => ">=",
                    "<>" => "<>",
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
        let t = toks(r#""my col" "a""b""#);
        assert_eq!(
            t,
            vec![
                Token::QuotedIdent("my col".into()),
                Token::QuotedIdent("a\"b".into()),
            ]
        );
    }

    #[test]
    fn integers_only() {
        assert_eq!(toks("1 42"), vec![Token::Int(1), Token::Int(42)]);
        for bad in ["2.5", "1e3", "10.0", "12ab", "99999999999999999999"] {
            assert!(tokenize(bad).is_err(), "{bad}");
        }
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
        let sql = "SELECT ?, 'x' ;\n SELECT ? ;";
        let (t, spans) = tokenize(sql).unwrap();
        let text: Vec<&str> = spans.iter().map(|s| &sql[s.clone()]).collect();
        assert_eq!(text, ["SELECT", "?", ",", "'x'", ";", "SELECT", "?", ";"]);
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
