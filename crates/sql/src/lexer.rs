//! SQL tokenizer.
//!
//! A token borrows the statement: an identifier is a slice of it, and so
//! is a string literal, unless it doubles a quote (`'it''s'`), the one
//! token that owns its text. A pass over a statement that takes its
//! tokens one at a time (the plan cache's shape, [`crate::shape`]) costs
//! no allocation per token.

use rtdi_common::{Error, Result};
use std::borrow::Cow;

/// One SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Keyword or identifier (uppercased keywords are matched
    /// case-insensitively by the parser; identifiers keep their case).
    Ident(&'a str),
    /// Single-quoted string literal.
    Str(Cow<'a, str>),
    Number(f64),
    /// A value slot of a statement's shape: the parser reads it as a
    /// literal to be bound later. [`tokenize`] never yields one.
    Param(usize),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Token<'_> {
    /// Is this token the given keyword (case-insensitive)?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>> {
    Lexer::new(input).collect()
}

/// The tokens of a statement, in order; after an error it yields nothing
/// more. Cloning one is free, so a reader looks ahead on a clone.
#[derive(Debug, Clone)]
pub(crate) struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next token (or of the whitespace before it).
    at: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Lexer { input, at: 0 }
    }

    fn token(&mut self) -> Option<Result<Token<'a>>> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        let mut i = self.at;
        loop {
            while bytes
                .get(i)
                .is_some_and(|b| b.is_ascii() && (*b as char).is_whitespace())
            {
                i += 1;
            }
            // SQL comment `--`
            if bytes.get(i) != Some(&b'-') || bytes.get(i + 1) != Some(&b'-') {
                break;
            }
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
        }
        let &b = bytes.get(i)?;
        let next = bytes.get(i + 1).copied();
        let (token, end) = match b {
            b',' => (Token::Comma, i + 1),
            b'.' => (Token::Dot, i + 1),
            b'(' => (Token::LParen, i + 1),
            b')' => (Token::RParen, i + 1),
            b'*' => (Token::Star, i + 1),
            b'+' => (Token::Plus, i + 1),
            b'-' => (Token::Minus, i + 1),
            b'/' => (Token::Slash, i + 1),
            b'=' => (Token::Eq, i + 1),
            b'!' if next == Some(b'=') => (Token::Neq, i + 2),
            b'!' => return Some(Err(Error::Sql(format!("unexpected '!' at byte {i}")))),
            b'<' if next == Some(b'=') => (Token::Le, i + 2),
            b'<' if next == Some(b'>') => (Token::Neq, i + 2),
            b'<' => (Token::Lt, i + 1),
            b'>' if next == Some(b'=') => (Token::Ge, i + 2),
            b'>' => (Token::Gt, i + 1),
            b'\'' => match string_literal(input, i + 1) {
                Some((text, end)) => (Token::Str(text), end),
                None => return Some(Err(Error::Sql("unterminated string literal".into()))),
            },
            b'"' => {
                // quoted identifier
                let start = i + 1;
                match bytes[start..].iter().position(|&c| c == b'"') {
                    Some(len) => (Token::Ident(&input[start..start + len]), start + len + 1),
                    None => return Some(Err(Error::Sql("unterminated quoted identifier".into()))),
                }
            }
            b if b.is_ascii_digit() => {
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_digit()
                        || bytes[end] == b'.'
                        || bytes[end] == b'e'
                        || bytes[end] == b'E'
                        || ((bytes[end] == b'+' || bytes[end] == b'-')
                            && matches!(bytes[end - 1], b'e' | b'E')))
                {
                    end += 1;
                }
                let text = &input[i..end];
                match text.parse() {
                    Ok(n) => (Token::Number(n), end),
                    Err(_) => return Some(Err(Error::Sql(format!("bad number '{text}'")))),
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let mut end = i;
                while end < bytes.len()
                    && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                (Token::Ident(&input[i..end]), end)
            }
            _ => {
                // every token ends on an ASCII byte, so `i` starts a character
                let c = input[i..].chars().next().unwrap_or('?');
                return Some(Err(Error::Sql(format!(
                    "unexpected character '{c}' at byte {i}"
                ))));
            }
        };
        self.at = end;
        Some(Ok(token))
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>>;

    fn next(&mut self) -> Option<Result<Token<'a>>> {
        let token = self.token();
        if matches!(token, Some(Err(_))) {
            self.at = self.input.len();
        }
        token
    }
}

/// The text of the string literal whose body starts at byte `start`, and
/// the offset past its closing quote: a slice of the input, copied only to
/// un-double a quote. `None` when the literal is unterminated.
fn string_literal(input: &str, start: usize) -> Option<(Cow<'_, str>, usize)> {
    let bytes = input.as_bytes();
    let mut text = Cow::Borrowed("");
    let mut from = start;
    loop {
        let quote = from + bytes[from..].iter().position(|&c| c == b'\'')?;
        let run = &input[from..quote];
        if bytes.get(quote + 1) != Some(&b'\'') {
            if from == start {
                return Some((Cow::Borrowed(run), quote + 1));
            }
            text.to_mut().push_str(run);
            return Some((text, quote + 1));
        }
        // doubled quote = escaped quote
        let owned = text.to_mut();
        owned.push_str(run);
        owned.push('\'');
        from = quote + 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_query() {
        let toks = tokenize(
            "SELECT city, COUNT(*) AS n FROM orders WHERE total >= 12.5 AND city != 'sf' LIMIT 10",
        )
        .unwrap();
        assert!(toks.contains(&Token::Ident("SELECT")));
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Neq));
        assert!(toks.contains(&Token::Number(12.5)));
        assert!(toks.contains(&Token::Str("sf".into())));
    }

    #[test]
    fn string_escapes_and_comments() {
        let toks = tokenize("SELECT 'it''s' -- trailing comment\n, 2").unwrap();
        assert_eq!(toks[1], Token::Str("it's".into()));
        assert_eq!(toks[2], Token::Comma);
        assert_eq!(toks[3], Token::Number(2.0));
    }

    #[test]
    fn string_literals_keep_their_characters() {
        let toks = tokenize("city = 'São Paulo' AND x = 'l''Été' -- ü\n").unwrap();
        assert_eq!(toks[2], Token::Str("São Paulo".into()));
        assert_eq!(toks[6], Token::Str("l'Été".into()));
        assert_eq!(toks.len(), 7);
        // a literal without a doubled quote borrows the statement
        assert!(matches!(toks[2], Token::Str(Cow::Borrowed(_))));
        // outside a literal a non-ASCII character is named, not its first byte
        let err = tokenize("SELECT é FROM t").unwrap_err();
        assert!(err.to_string().contains("'é' at byte 7"), "{err}");
    }

    #[test]
    fn operators_and_diamond_neq() {
        let toks = tokenize("a <> b <= c >= d < e > f = g").unwrap();
        assert_eq!(toks[1], Token::Neq);
        assert_eq!(toks[3], Token::Le);
        assert_eq!(toks[5], Token::Ge);
    }

    #[test]
    fn quoted_identifiers() {
        let toks = tokenize("SELECT \"Weird Col\" FROM t").unwrap();
        assert_eq!(toks[1], Token::Ident("Weird Col"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT 'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("price: 10").is_err());
    }

    #[test]
    fn keyword_matching_is_case_insensitive() {
        let toks = tokenize("select").unwrap();
        assert!(toks[0].is_kw("SELECT"));
        assert!(toks[0].is_kw("select"));
        assert!(!toks[0].is_kw("FROM"));
    }

    #[test]
    fn scientific_numbers() {
        let toks = tokenize("1e3 2.5E-2").unwrap();
        assert_eq!(toks[0], Token::Number(1000.0));
        assert_eq!(toks[1], Token::Number(0.025));
    }
}
