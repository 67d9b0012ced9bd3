//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use crate::shape::slot_value;
use rtdi_common::{Error, Result, Value};

/// Parse a SELECT statement.
pub fn parse_select(sql: &str) -> Result<SelectStmt> {
    parse_tokens(tokenize(sql)?)
}

/// Parse a SELECT statement from its tokens. A [`Token::Param`] is a
/// literal whose value is bound later: it parses as the slot's marker.
pub(crate) fn parse_tokens(tokens: Vec<Token<'_>>) -> Result<SelectStmt> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        operators: 0,
    };
    let stmt = p.select()?;
    if p.pos != p.tokens.len() {
        return Err(Error::Sql(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

/// How deep a statement may nest parentheses (expressions, calls,
/// subqueries), and how many binary operators it may hold. Together they
/// bound the recursion of the parser and the depth of the tree every later
/// pass recurses over, so hostile text is an error, not a stack overflow.
const MAX_NESTING: usize = 64;
const MAX_OPERATORS: usize = 1024;

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Parentheses open around the current position.
    depth: usize,
    /// Binary operators built so far.
    operators: usize,
}

const RESERVED: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "JOIN", "ON", "AS",
    "AND", "OR", "ASC", "DESC", "INNER", "DISTINCT",
];

/// The value of a numeric literal: an integer when it is whole and below
/// 1e15 in magnitude, a double otherwise. A leading unary minus is applied
/// before the rule: `-5` is `Int(-5)`.
pub(crate) fn number_value(n: f64) -> Value {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        Value::Int(n as i64)
    } else {
        Value::Double(n)
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_kw(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Sql(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, t: Token<'a>) -> Result<()> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::Sql(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s.to_string()),
            other => Err(Error::Sql(format!("expected identifier, found {other:?}"))),
        }
    }

    fn peek_is_reserved(&self) -> bool {
        matches!(self.peek(), Some(Token::Ident(s))
            if RESERVED.iter().any(|k| s.eq_ignore_ascii_case(k)))
    }

    /// `f` one parenthesis deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(Error::Sql(format!(
                "statement nests deeper than {MAX_NESTING} parentheses"
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn binary(&mut self, left: Expr, op: BinOp, right: Expr) -> Result<Expr> {
        self.operators += 1;
        if self.operators > MAX_OPERATORS {
            return Err(Error::Sql(format!(
                "statement holds more than {MAX_OPERATORS} operators"
            )));
        }
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut projections = Vec::new();
        loop {
            let expr = self.expr()?;
            let alias = if self.eat_kw("AS") {
                Some(self.ident()?)
            } else if !self.peek_is_reserved() {
                // implicit alias: bare identifier after an expression
                match self.peek() {
                    Some(Token::Ident(_)) => Some(self.ident()?),
                    _ => None,
                }
            } else {
                None
            };
            projections.push(SelectItem { expr, alias });
            if !matches!(self.peek(), Some(Token::Comma)) {
                break;
            }
            self.pos += 1;
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let inner = self.eat_kw("INNER");
            if self.eat_kw("JOIN") {
                let table = self.table_ref()?;
                self.expect_kw("ON")?;
                // equi-join condition: parse operands below the comparison
                // level so the '=' is ours to consume
                let on_left = self.add_expr()?;
                self.expect(Token::Eq)?;
                let on_right = self.add_expr()?;
                joins.push(Join {
                    table,
                    on_left,
                    on_right,
                });
            } else if inner {
                return Err(Error::Sql("expected JOIN after INNER".into()));
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !matches!(self.peek(), Some(Token::Comma)) {
                    break;
                }
                self.pos += 1;
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                Some(Token::Number(n)) if n >= 0.0 && n.fract() == 0.0 => Some(n as usize),
                other => return Err(Error::Sql(format!("bad LIMIT value {other:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            projections,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            let query = self.nested(Self::select)?;
            self.expect(Token::RParen)?;
            self.eat_kw("AS");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let first = self.ident()?;
        let (catalog, name) = if matches!(self.peek(), Some(Token::Dot)) {
            self.pos += 1;
            (Some(first), self.ident()?)
        } else {
            (None, first)
        };
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if !self.peek_is_reserved() {
            match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident()?),
                _ => None,
            }
        } else {
            None
        };
        Ok(TableRef::Table {
            catalog,
            name,
            alias,
        })
    }

    // expression precedence: OR < AND < comparison < add/sub < mul/div < unary/primary
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = self.binary(left, BinOp::Or, right)?;
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.cmp_expr()?;
        while self.eat_kw("AND") {
            let right = self.cmp_expr()?;
            left = self.binary(left, BinOp::And, right)?;
        }
        Ok(left)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => BinOp::Eq,
            Some(Token::Neq) => BinOp::Neq,
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            _ => return Ok(left),
        };
        self.pos += 1;
        let right = self.add_expr()?;
        self.binary(left, op, right)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.mul_expr()?;
            left = self.binary(left, op, right)?;
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.primary()?;
            left = self.binary(left, op, right)?;
        }
        Ok(left)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Token::Number(n)) => Ok(Expr::Literal(number_value(n))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::from(&*s))),
            Some(Token::Param(slot)) => Ok(Expr::Literal(slot_value(slot))),
            Some(Token::Minus) => {
                // unary minus on a numeric literal
                match self.bump() {
                    Some(Token::Number(n)) => Ok(Expr::Literal(number_value(-n))),
                    other => Err(Error::Sql(format!(
                        "expected number after '-', got {other:?}"
                    ))),
                }
            }
            Some(Token::Star) => Ok(Expr::Star),
            Some(Token::LParen) => {
                let e = self.nested(Self::expr)?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                let name = name.to_string();
                // aggregate / function call?
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.pos += 1;
                    let upper = name.to_ascii_uppercase();
                    let agg = match upper.as_str() {
                        "COUNT" => Some(AggName::Count),
                        "SUM" => Some(AggName::Sum),
                        "AVG" => Some(AggName::Avg),
                        "MIN" => Some(AggName::Min),
                        "MAX" => Some(AggName::Max),
                        _ => None,
                    };
                    if let Some(func) = agg {
                        let distinct = self.eat_kw("DISTINCT");
                        let arg = if matches!(self.peek(), Some(Token::Star)) {
                            self.pos += 1;
                            None
                        } else {
                            Some(Box::new(self.nested(Self::expr)?))
                        };
                        self.expect(Token::RParen)?;
                        return Ok(Expr::Agg {
                            func,
                            distinct,
                            arg,
                        });
                    }
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::RParen)) {
                        loop {
                            args.push(self.nested(Self::expr)?);
                            if !matches!(self.peek(), Some(Token::Comma)) {
                                break;
                            }
                            self.pos += 1;
                        }
                    }
                    self.expect(Token::RParen)?;
                    return Ok(Expr::Function { name, args });
                }
                // qualified column?
                if matches!(self.peek(), Some(Token::Dot)) {
                    self.pos += 1;
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(Error::Sql(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse_select("SELECT city, total FROM orders").unwrap();
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.projections[0].output_name(), "city");
        assert!(matches!(s.from, TableRef::Table { ref name, .. } if name == "orders"));
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn parses_full_aggregation_query() {
        let s = parse_select(
            "SELECT city, COUNT(*) AS n, AVG(total) avg_total \
             FROM pinot.orders \
             WHERE total > 10 AND city <> 'chi' \
             GROUP BY city \
             HAVING COUNT(*) > 5 \
             ORDER BY n DESC \
             LIMIT 3",
        )
        .unwrap();
        assert_eq!(s.projections.len(), 3);
        assert_eq!(s.projections[1].output_name(), "n");
        assert_eq!(s.projections[2].output_name(), "avg_total");
        assert!(matches!(
            s.from,
            TableRef::Table {
                catalog: Some(ref c),
                ..
            } if c == "pinot"
        ));
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(3));
        assert!(!s.where_clause.unwrap().contains_agg());
    }

    #[test]
    fn parses_join() {
        let s = parse_select(
            "SELECT o.city, r.cuisine FROM orders o \
             JOIN restaurants r ON o.restaurant_id = r.id",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 1);
        assert_eq!(
            s.joins[0].on_left,
            Expr::Column {
                qualifier: Some("o".into()),
                name: "restaurant_id".into()
            }
        );
        assert_eq!(s.from.binding_name(), "o");
    }

    #[test]
    fn parses_subquery_in_from() {
        let s = parse_select(
            "SELECT n FROM (SELECT COUNT(*) AS n FROM orders GROUP BY city) t WHERE n > 10",
        )
        .unwrap();
        match &s.from {
            TableRef::Subquery { query, alias } => {
                assert_eq!(alias, "t");
                assert_eq!(query.group_by.len(), 1);
            }
            other => panic!("expected subquery, got {other:?}"),
        }
    }

    #[test]
    fn parses_count_distinct_and_function_calls() {
        let s = parse_select(
            "SELECT COUNT(DISTINCT rider) riders, TUMBLE(ts, 60000) w \
             FROM trips GROUP BY TUMBLE(ts, 60000)",
        )
        .unwrap();
        assert!(matches!(
            s.projections[0].expr,
            Expr::Agg {
                func: AggName::Count,
                distinct: true,
                ..
            }
        ));
        assert!(matches!(
            s.group_by[0],
            Expr::Function { ref name, ref args } if name == "TUMBLE" && args.len() == 2
        ));
    }

    #[test]
    fn parses_arithmetic_with_precedence() {
        let s = parse_select("SELECT a + b * 2 AS x FROM t").unwrap();
        match &s.projections[0].expr {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("precedence broken: {other:?}"),
        }
        // parenthesized override
        let s = parse_select("SELECT (a + b) * 2 AS x FROM t").unwrap();
        assert!(matches!(
            s.projections[0].expr,
            Expr::Binary { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn parses_or_and_precedence() {
        let s = parse_select("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        match s.where_clause.unwrap() {
            Expr::Binary {
                op: BinOp::Or,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("OR/AND precedence broken: {other:?}"),
        }
    }

    #[test]
    fn negative_literals() {
        let s = parse_select("SELECT * FROM t WHERE x > -5").unwrap();
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => {
                assert_eq!(*right, Expr::Literal(Value::Int(-5)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn deep_statements_are_errors_not_overflows() {
        let nested = |n: usize| format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n));
        assert!(parse_select(&nested(MAX_NESTING)).is_ok());
        let err = parse_select(&nested(50_000)).unwrap_err();
        assert!(err.to_string().contains("parentheses"), "{err}");
        let chain = |n: usize| format!("SELECT a FROM t WHERE a = 0{}", " OR a = 1".repeat(n));
        // each alternative is two operators
        assert!(parse_select(&chain(MAX_OPERATORS / 2 - 1)).is_ok());
        let err = parse_select(&chain(100_000)).unwrap_err();
        assert!(err.to_string().contains("operators"), "{err}");
    }

    #[test]
    fn rejects_malformed_sql() {
        assert!(parse_select("SELECT").is_err());
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT x").is_err());
        assert!(parse_select("SELECT a FROM t extra garbage !").is_err());
        assert!(parse_select("SELECT a FROM t INNER WHERE a = 1").is_err());
        assert!(parse_select("SELECT a FROM t LIMIT 1.5").is_err());
    }
}
