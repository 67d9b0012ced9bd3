//! Statement shapes: the key of the engine's plan cache and the values a
//! cached plan is bound with.
//!
//! Dashboards and ops tools send the same templated statements again and
//! again with new literals (§4.5, §5). A statement's **shape** is its
//! token stream with every *value slot* left open: a literal the plan
//! reads only as a value, which is a direct operand of a comparison inside
//! a `WHERE` clause (`ts >= 1000`, `10 < fare`, `city = 'sf'`, `x > -5`).
//! The slot records its kind (integer, double or string, by the parser's
//! rule) in the key and its value in the parameter list. Every other
//! literal stays in the key: a `LIMIT n`, a literal in the select list
//! (its text names the output column), in `GROUP BY`, `HAVING` or
//! `ORDER BY`, a function argument such as `TUMBLE(ts, 1000)`, an
//! arithmetic operand (`fare + 1 > 5` keeps the `1`).
//!
//! The cache plans a shape once, from its tokens with each slot a
//! [`Token::Param`], which the parser reads as a marker literal. A
//! statement whose slots do not all land in a `WHERE` clause (text that
//! reads a keyword as a name, say) is planned from its text, uncached. A
//! `WHERE` clause becomes a `Filter` the optimizer splits into the scan's
//! predicates and a residual filter, reading no literal's value on the
//! way; binding writes each slot's value where its marker went.
//!
//! A marker is a NaN double with the slot number in its payload. The
//! lexer reads a number only from digits, which never parse to a NaN, so
//! no literal of a statement's text is ever taken for a marker.

use crate::ast::{Expr, SelectStmt, TableRef};
use crate::lexer::{Lexer, Token};
use crate::parser::number_value;
use crate::plan::Plan;
use rtdi_common::{Result, Value};
use std::fmt::Write;
use std::sync::Arc;

/// A quiet NaN whose payload's high half tags it as a slot marker; the low
/// 32 bits are the slot number.
const MARKER: u64 = 0x7FF8_5107_0000_0000;
const SLOT_BITS: u64 = 0xFFFF_FFFF;

/// The literal the parser makes of value slot `slot`.
pub(crate) fn slot_value(slot: usize) -> Value {
    Value::Double(f64::from_bits(MARKER | (slot as u64 & SLOT_BITS)))
}

/// The slot a literal marks, when it is a [`slot_value`].
pub(crate) fn slot_of(value: &Value) -> Option<usize> {
    match value {
        Value::Double(d) if d.to_bits() & !SLOT_BITS == MARKER => {
            Some((d.to_bits() & SLOT_BITS) as usize)
        }
        _ => None,
    }
}

/// Append the shape of `sql` to `key` and its slots' values, in text
/// order, to `params`. Fails with the lexer's error, the one
/// [`crate::lexer::tokenize`] returns.
pub fn shape(sql: &str, key: &mut String, params: &mut Vec<Value>) -> Result<()> {
    for item in Slots::new(sql) {
        match item? {
            Item::Slot(value) => {
                key.push_str(match value {
                    Value::Int(_) => "?i",
                    Value::Str(_) => "?s",
                    _ => "?d",
                });
                params.push(value);
            }
            Item::Token(token) => push_token(key, &token),
        }
    }
    Ok(())
}

/// The tokens of `sql` with each value slot a [`Token::Param`], numbered
/// in text order: what the plan of its shape is parsed from.
pub(crate) fn slotted_tokens(sql: &str) -> Result<Vec<Token<'_>>> {
    let mut slot = 0;
    Slots::new(sql)
        .map(|item| {
            Ok(match item? {
                Item::Token(token) => token,
                Item::Slot(_) => {
                    slot += 1;
                    Token::Param(slot - 1)
                }
            })
        })
        .collect()
}

/// How many slot markers the `WHERE` clauses of `stmt` and of its
/// subqueries hold: when it is every slot, no marker went where the
/// planner reads a literal.
pub(crate) fn slots_in_where(stmt: &SelectStmt) -> usize {
    fn count(expr: &Expr) -> usize {
        match expr {
            Expr::Literal(v) => usize::from(slot_of(v).is_some()),
            Expr::Binary { left, right, .. } => count(left) + count(right),
            Expr::Agg { arg, .. } => arg.as_deref().map_or(0, count),
            Expr::Function { args, .. } => args.iter().map(count).sum(),
            Expr::Column { .. } | Expr::Star => 0,
        }
    }
    let from = |t: &TableRef| match t {
        TableRef::Subquery { query, .. } => slots_in_where(query),
        TableRef::Table { .. } => 0,
    };
    let joined: usize = stmt.joins.iter().map(|j| from(&j.table)).sum();
    stmt.where_clause.as_ref().map_or(0, count) + from(&stmt.from) + joined
}

/// Write each slot's value where its marker went: the scans' pushed
/// predicates and the filters' expressions.
pub(crate) fn bind(plan: &mut Plan, params: &[Value]) {
    match plan {
        Plan::Scan { pushdown, .. } => {
            if pushdown
                .predicates
                .iter()
                .any(|p| slot_of(&p.value).is_some())
            {
                for p in Arc::make_mut(&mut pushdown.predicates) {
                    bind_value(&mut p.value, params);
                }
            }
        }
        Plan::Filter { input, predicate } => {
            bind_expr(predicate, params);
            bind(input, params);
        }
        Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => bind(input, params),
        Plan::Join { left, right, .. } => {
            bind(left, params);
            bind(right, params);
        }
    }
}

fn bind_expr(expr: &mut Expr, params: &[Value]) {
    match expr {
        Expr::Literal(v) => bind_value(v, params),
        Expr::Binary { left, right, .. } => {
            bind_expr(left, params);
            bind_expr(right, params);
        }
        Expr::Agg { arg, .. } => {
            if let Some(arg) = arg {
                bind_expr(arg, params);
            }
        }
        Expr::Function { args, .. } => {
            for arg in args {
                bind_expr(arg, params);
            }
        }
        Expr::Column { .. } | Expr::Star => {}
    }
}

fn bind_value(value: &mut Value, params: &[Value]) {
    if let Some(bound) = slot_of(value).and_then(|slot| params.get(slot)) {
        *value = bound.clone();
    }
}

/// One token of a statement, or one of its value slots.
enum Item<'a> {
    Token(Token<'a>),
    Slot(Value),
}

/// What the token before a literal says of its place.
#[derive(Clone, Copy)]
enum Before {
    /// `WHERE`, `AND`, `OR` or `(`: the literal may lead a comparison.
    Open,
    /// A comparison operator: the literal may be its right operand.
    Cmp,
    Other,
}

/// The tokens of a statement with its value slots taken out: a literal
/// (with a unary minus folded in) inside a `WHERE` clause, right after a
/// comparison and not followed by an arithmetic operator, or opening a
/// comparison (`WHERE 10 < fare`).
struct Slots<'a> {
    lexer: Lexer<'a>,
    before: Before,
    /// Parenthesis depth.
    depth: usize,
    /// The depth of the open `WHERE` clause.
    clause: Option<usize>,
}

impl<'a> Slots<'a> {
    fn new(sql: &'a str) -> Self {
        Slots {
            lexer: Lexer::new(sql),
            before: Before::Other,
            depth: 0,
            clause: None,
        }
    }

    /// The value of a slot at `token`, and the lexer past it.
    fn slot(&self, token: &Token<'a>) -> Option<(Value, Lexer<'a>)> {
        let mut ahead = self.lexer.clone();
        let value = match token {
            Token::Number(n) => number_value(*n),
            Token::Str(s) => Value::from(&**s),
            Token::Minus => match ahead.next() {
                Some(Ok(Token::Number(n))) => number_value(-n),
                _ => return None,
            },
            _ => return None,
        };
        let next = ahead.clone().next();
        let next = next.as_ref().and_then(|t| t.as_ref().ok());
        let slot = match self.before {
            Before::Cmp => !next.is_some_and(is_arith),
            Before::Open => next.is_some_and(is_cmp),
            Before::Other => false,
        };
        slot.then_some((value, ahead))
    }
}

impl<'a> Iterator for Slots<'a> {
    type Item = Result<Item<'a>>;

    fn next(&mut self) -> Option<Result<Item<'a>>> {
        let token = match self.lexer.next()? {
            Ok(token) => token,
            Err(e) => return Some(Err(e)),
        };
        if self.clause.is_some() {
            if let Some((value, past)) = self.slot(&token) {
                self.lexer = past;
                self.before = Before::Other;
                return Some(Ok(Item::Slot(value)));
            }
        }
        let keyword = |kws: &[&str]| kws.iter().any(|kw| token.is_kw(kw));
        self.before = Before::Other;
        match &token {
            Token::LParen => {
                self.depth += 1;
                self.before = Before::Open;
            }
            Token::RParen => {
                self.depth = self.depth.saturating_sub(1);
                if self.clause.is_some_and(|at| at > self.depth) {
                    self.clause = None;
                }
            }
            t if is_cmp(t) => self.before = Before::Cmp,
            _ if keyword(&["WHERE"]) => {
                self.clause = Some(self.depth);
                self.before = Before::Open;
            }
            _ if keyword(&["AND", "OR"]) => self.before = Before::Open,
            _ if keyword(&["GROUP", "HAVING", "ORDER", "LIMIT"])
                && self.clause == Some(self.depth) =>
            {
                self.clause = None;
            }
            _ => {}
        }
        Some(Ok(Item::Token(token)))
    }
}

fn is_cmp(token: &Token<'_>) -> bool {
    matches!(
        token,
        Token::Eq | Token::Neq | Token::Lt | Token::Le | Token::Gt | Token::Ge
    )
}

fn is_arith(token: &Token<'_>) -> bool {
    matches!(
        token,
        Token::Plus | Token::Minus | Token::Star | Token::Slash
    )
}

/// Append one token to a shape key. The encoding is injective over token
/// streams: an identifier (never holding a `"`) sits between `"`s, a
/// string literal is its length and then its bytes, a number the bits of
/// its value, and every other token one character of its own.
fn push_token(key: &mut String, token: &Token<'_>) {
    // writing into a `String` cannot fail
    let _ = match token {
        Token::Ident(s) => write!(key, "\"{s}\""),
        Token::Str(s) => write!(key, "'{}:{s}", s.len()),
        Token::Number(n) => write!(key, "#{:x};", n.to_bits()),
        Token::Param(slot) => write!(key, "?{slot};"),
        Token::Comma => key.write_char(','),
        Token::Dot => key.write_char('.'),
        Token::LParen => key.write_char('('),
        Token::RParen => key.write_char(')'),
        Token::Star => key.write_char('*'),
        Token::Plus => key.write_char('+'),
        Token::Minus => key.write_char('-'),
        Token::Slash => key.write_char('/'),
        Token::Eq => key.write_char('='),
        Token::Neq => key.write_char('!'),
        Token::Lt => key.write_char('<'),
        Token::Le => key.write_char('['),
        Token::Gt => key.write_char('>'),
        Token::Ge => key.write_char(']'),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_tokens;

    fn of(sql: &str) -> (String, Vec<Value>) {
        let (mut key, mut params) = (String::new(), Vec::new());
        shape(sql, &mut key, &mut params).unwrap();
        (key, params)
    }

    #[test]
    fn comparison_operands_under_where_are_slots() {
        let (a, pa) = of("SELECT COUNT(*) AS n FROM trips WHERE ts >= 100 AND city = 'sf'");
        let (b, pb) = of("SELECT COUNT(*) AS n FROM trips WHERE ts >= 7 AND city = 'la'");
        assert_eq!(a, b);
        assert_eq!(pa, vec![Value::Int(100), Value::from("sf")]);
        assert_eq!(pb, vec![Value::Int(7), Value::from("la")]);
        // a unary minus folds into the slot; a flipped comparison has one too
        let (c, pc) = of("SELECT COUNT(*) AS n FROM trips WHERE ts >= -3 AND 'x' = city");
        assert_eq!(pc, vec![Value::Int(-3), Value::from("x")]);
        assert_eq!(
            c,
            of("SELECT COUNT(*) AS n FROM trips WHERE ts >= 3 AND 'y' = city").0
        );
    }

    #[test]
    fn a_slot_keeps_its_kind_in_the_key() {
        let (int, _) = of("SELECT a FROM t WHERE fare > 40");
        let (double, params) = of("SELECT a FROM t WHERE fare > 40.25");
        assert_ne!(int, double);
        assert_eq!(params, vec![Value::Double(40.25)]);
        // the parser's rule: a whole number is an integer
        assert_eq!(of("SELECT a FROM t WHERE fare > 40.0").0, int);
        assert_ne!(of("SELECT a FROM t WHERE fare > '40'").0, int);
    }

    #[test]
    fn other_literals_stay_in_the_key() {
        for (a, b) in [
            ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 6"),
            ("SELECT fare + 1 FROM t", "SELECT fare + 2 FROM t"),
            (
                "SELECT a FROM t WHERE fare + 1 > 5",
                "SELECT a FROM t WHERE fare + 2 > 5",
            ),
            (
                "SELECT a FROM t WHERE fare > 5 * 2",
                "SELECT a FROM t WHERE fare > 5 * 3",
            ),
            (
                "SELECT a FROM t WHERE TUMBLE(ts, 1000) = 5",
                "SELECT a FROM t WHERE TUMBLE(ts, 2000) = 5",
            ),
            (
                "SELECT COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 1",
                "SELECT COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 2",
            ),
            (
                "SELECT a FROM (SELECT a FROM t WHERE b = 1) s LIMIT 1",
                "SELECT a FROM (SELECT a FROM t WHERE b = 1) s LIMIT 2",
            ),
        ] {
            assert_ne!(of(a).0, of(b).0, "{a} / {b}");
        }
        // a subquery's WHERE has slots, and the clause closes with it
        let (_, params) = of("SELECT a FROM (SELECT a FROM t WHERE b = 1) s LIMIT 1");
        assert_eq!(params, vec![Value::Int(1)]);
    }

    #[test]
    fn keys_tell_token_streams_apart() {
        let distinct = [
            "SELECT \"a b\" FROM t",
            "SELECT a b FROM t",
            "SELECT 'a' FROM t",
            "SELECT 'a''' FROM t",
            "SELECT a FROM t WHERE b = c",
            "SELECT a FROM t WHERE b <= c",
            "SELECT a FROM t WHERE b >= c",
        ];
        let keys: std::collections::HashSet<String> = distinct.iter().map(|s| of(s).0).collect();
        assert_eq!(keys.len(), distinct.len());
        // equal token streams share a key: spacing, comments, a number's spelling
        assert_eq!(
            of("SELECT a FROM t LIMIT 1000").0,
            of("SELECT  a -- note\nFROM t LIMIT 1e3").0
        );
    }

    #[test]
    fn slotted_tokens_parse_to_markers_in_where() {
        let sql = "SELECT a, 5 AS five FROM t WHERE b > 2 AND c = 'x' LIMIT 3";
        let stmt = parse_tokens(slotted_tokens(sql).unwrap()).unwrap();
        assert_eq!(slots_in_where(&stmt), 2);
        let Some(Expr::Binary { left, .. }) = &stmt.where_clause else {
            panic!("{stmt:?}");
        };
        let Expr::Binary { right, .. } = &**left else {
            panic!("{left:?}");
        };
        assert!(matches!(&**right, Expr::Literal(v) if slot_of(v) == Some(0)));
        assert_eq!(stmt.projections[1].expr, Expr::Literal(Value::Int(5)));
        assert_eq!(stmt.limit, Some(3));
        assert_eq!(slot_of(&slot_value(7)), Some(7));
        assert_eq!(slot_of(&Value::Double(f64::NAN)), None);
    }

    #[test]
    fn a_keyword_read_as_a_name_can_move_a_slot_out_of_where() {
        // `where` is the subquery's alias here, not a clause: the `5` is a
        // join operand, and the count tells the engine not to cache it
        let sql = "SELECT a FROM (SELECT a FROM t) where JOIN u ON a = 5";
        let stmt = parse_tokens(slotted_tokens(sql).unwrap()).unwrap();
        let (_, params) = of(sql);
        assert_eq!((params.len(), slots_in_where(&stmt)), (1, 0));
    }
}
