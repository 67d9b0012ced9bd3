//! Expression evaluation over rows.

use crate::ast::{BinOp, Expr};
use rtdi_common::{Error, Result, Row, Value};

/// Evaluate an expression against a row. Qualified columns (`o.city`)
/// resolve against `qualifier.column` entries first, then bare names
/// (join outputs carry both). Rows are schemaless, so a column absent
/// from a row evaluates to NULL — the same semantics the OLAP layer
/// applies — rather than erroring.
pub fn eval(expr: &Expr, row: &Row) -> Result<Value> {
    match expr {
        Expr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                let qualified = format!("{q}.{name}");
                if let Some(v) = row.get(&qualified) {
                    return Ok(v.clone());
                }
            }
            Ok(row.get(name).cloned().unwrap_or(Value::Null))
        }
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Binary { left, op, right } => {
            let l = eval(left, row)?;
            let r = eval(right, row)?;
            eval_binary(&l, *op, &r)
        }
        Expr::Function { name, args } => eval_function(name, args, row),
        Expr::Star => Err(Error::Sql("'*' is not a scalar expression".into())),
        Expr::Agg { .. } => Err(Error::Sql(
            "aggregate evaluated outside an aggregation context".into(),
        )),
    }
}

fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        And => Ok(Value::Bool(truthy(l) && truthy(r))),
        Or => Ok(Value::Bool(truthy(l) || truthy(r))),
        Eq | Neq | Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                // SQL three-valued logic collapsed to false
                return Ok(Value::Bool(false));
            }
            let ord = l.total_cmp(r);
            let b = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Neq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // integer arithmetic stays integral except division
            if let (Some(a), Some(b), false) = (l.as_int(), r.as_int(), op == Div) {
                // only when both are actual Ints (not round doubles)
                if matches!(l, Value::Int(_)) && matches!(r, Value::Int(_)) {
                    return Ok(Value::Int(match op {
                        Add => a.wrapping_add(b),
                        Sub => a.wrapping_sub(b),
                        Mul => a.wrapping_mul(b),
                        _ => unreachable!(),
                    }));
                }
            }
            let a = l
                .as_double()
                .ok_or_else(|| Error::Sql(format!("non-numeric operand {l:?}")))?;
            let b = r
                .as_double()
                .ok_or_else(|| Error::Sql(format!("non-numeric operand {r:?}")))?;
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null); // SQL: division by zero -> NULL (lenient)
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Value::Double(v))
        }
    }
}

fn eval_function(name: &str, args: &[Expr], row: &Row) -> Result<Value> {
    let upper = name.to_ascii_uppercase();
    match upper.as_str() {
        // TUMBLE(ts, size): window start of the tumbling window containing ts
        "TUMBLE" => {
            if args.len() != 2 {
                return Err(Error::Sql("TUMBLE(ts, size_ms) takes 2 arguments".into()));
            }
            let ts = eval(&args[0], row)?
                .as_int()
                .ok_or_else(|| Error::Sql("TUMBLE ts must be integral".into()))?;
            let size = eval(&args[1], row)?
                .as_int()
                .filter(|s| *s > 0)
                .ok_or_else(|| Error::Sql("TUMBLE size must be positive".into()))?;
            Ok(Value::Int(ts.div_euclid(size) * size))
        }
        "ABS" => {
            let v = eval(&args[0], row)?;
            match v {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                Value::Null => Ok(Value::Null),
                other => Err(Error::Sql(format!("ABS on non-numeric {other:?}"))),
            }
        }
        "COALESCE" => {
            for a in args {
                let v = eval(a, row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "LOWER" => match eval(&args[0], row)? {
            Value::Str(s) => Ok(Value::from(s.to_lowercase())),
            Value::Null => Ok(Value::Null),
            other => Err(Error::Sql(format!("LOWER on non-string {other:?}"))),
        },
        "UPPER" => match eval(&args[0], row)? {
            Value::Str(s) => Ok(Value::from(s.to_uppercase())),
            Value::Null => Ok(Value::Null),
            other => Err(Error::Sql(format!("UPPER on non-string {other:?}"))),
        },
        other => Err(Error::Sql(format!("unknown function '{other}'"))),
    }
}

/// SQL truthiness for WHERE/HAVING results.
pub fn truthy(v: &Value) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Null => false,
        Value::Int(i) => *i != 0,
        Value::Double(d) => *d != 0.0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn where_expr(sql: &str) -> Expr {
        parse_select(&format!("SELECT * FROM t WHERE {sql}"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    fn proj_expr(sql: &str) -> Expr {
        parse_select(&format!("SELECT {sql} FROM t"))
            .unwrap()
            .projections
            .remove(0)
            .expr
    }

    fn sample() -> Row {
        Row::new()
            .with("city", "sf")
            .with("fare", 12.5)
            .with("items", 3i64)
            .with("o.city", "la")
    }

    #[test]
    fn comparisons() {
        let row = sample();
        assert_eq!(
            eval(&where_expr("fare > 10"), &row).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&where_expr("fare > 20"), &row).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&where_expr("city = 'sf' AND items <= 3"), &row).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&where_expr("city = 'nyc' OR items = 3"), &row).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn qualified_columns_resolve_qualified_first() {
        let row = sample();
        assert_eq!(
            eval(&proj_expr("o.city"), &row).unwrap(),
            Value::Str("la".into())
        );
        assert_eq!(
            eval(&proj_expr("city"), &row).unwrap(),
            Value::Str("sf".into())
        );
        // unknown qualifier falls back to bare name
        assert_eq!(
            eval(&proj_expr("x.city"), &row).unwrap(),
            Value::Str("sf".into())
        );
    }

    #[test]
    fn arithmetic_types() {
        let row = sample();
        assert_eq!(eval(&proj_expr("items + 1"), &row).unwrap(), Value::Int(4));
        assert_eq!(
            eval(&proj_expr("fare * 2"), &row).unwrap(),
            Value::Double(25.0)
        );
        assert_eq!(
            eval(&proj_expr("items / 2"), &row).unwrap(),
            Value::Double(1.5)
        );
        assert_eq!(eval(&proj_expr("items / 0"), &row).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagation() {
        let row = Row::new().with("x", Value::Null);
        assert_eq!(eval(&proj_expr("x + 1"), &row).unwrap(), Value::Null);
        assert_eq!(
            eval(&where_expr("x = 1"), &row).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval(&where_expr("x != 1"), &row).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn tumble_function() {
        let row = Row::new().with("ts", 12_345i64);
        assert_eq!(
            eval(&proj_expr("TUMBLE(ts, 1000)"), &row).unwrap(),
            Value::Int(12_000)
        );
        assert!(eval(&proj_expr("TUMBLE(ts, 0)"), &row).is_err());
    }

    #[test]
    fn scalar_functions() {
        let row = Row::new()
            .with("s", "MiXeD")
            .with("n", -4i64)
            .with("z", Value::Null);
        assert_eq!(
            eval(&proj_expr("LOWER(s)"), &row).unwrap(),
            Value::Str("mixed".into())
        );
        assert_eq!(eval(&proj_expr("ABS(n)"), &row).unwrap(), Value::Int(4));
        assert_eq!(
            eval(&proj_expr("COALESCE(z, n, 9)"), &row).unwrap(),
            Value::Int(-4)
        );
        assert!(eval(&proj_expr("NO_SUCH_FN(s)"), &row).is_err());
    }

    #[test]
    fn absent_column_is_null_but_misuse_errors() {
        let row = sample();
        // schemaless rows: absent column evaluates to NULL (matches OLAP)
        assert_eq!(eval(&proj_expr("ghost"), &row).unwrap(), Value::Null);
        assert_eq!(
            eval(&where_expr("ghost = 1"), &row).unwrap(),
            Value::Bool(false)
        );
        assert!(eval(&proj_expr("COUNT(fare)"), &row).is_err()); // agg outside agg ctx
    }
}
