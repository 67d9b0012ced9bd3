//! SQL abstract syntax tree.

use rtdi_common::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `qualifier.column` or bare `column`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    /// Aggregate call; `distinct` only meaningful for COUNT.
    Agg {
        func: AggName,
        distinct: bool,
        /// `None` = COUNT(*)
        arg: Option<Box<Expr>>,
    },
    /// Scalar/table function call (e.g. `TUMBLE(ts, 60000)`).
    Function {
        name: String,
        args: Vec<Expr>,
    },
    /// `*`
    Star,
}

impl Expr {
    /// Does this expression (transitively) contain an aggregate call?
    pub fn contains_agg(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Binary { left, right, .. } => left.contains_agg() || right.contains_agg(),
            Expr::Function { args, .. } => args.iter().any(Expr::contains_agg),
            _ => false,
        }
    }

    /// Column names referenced by this expression.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column { name, .. } if !out.contains(name) => {
                out.push(name.clone());
            }
            Expr::Column { .. } => {}
            Expr::Binary { left, right, .. } => {
                left.referenced_columns(out);
                right.referenced_columns(out);
            }
            Expr::Agg { arg: Some(a), .. } => a.referenced_columns(out),
            Expr::Function { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
            _ => {}
        }
    }

    /// A display name used when no alias is given.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Literal(v) => v.to_string(),
            Expr::Agg {
                func,
                distinct,
                arg,
            } => {
                let f = match func {
                    AggName::Count => "count",
                    AggName::Sum => "sum",
                    AggName::Avg => "avg",
                    AggName::Min => "min",
                    AggName::Max => "max",
                };
                match arg {
                    None => format!("{f}_star"),
                    Some(a) => {
                        if *distinct {
                            format!("{f}_distinct_{}", a.default_name())
                        } else {
                            format!("{f}_{}", a.default_name())
                        }
                    }
                }
            }
            Expr::Function { name, args } => {
                let inner: Vec<String> = args.iter().map(|a| a.default_name()).collect();
                format!("{}({})", name.to_lowercase(), inner.join(","))
            }
            Expr::Binary { left, op, right } => {
                format!("{}_{op:?}_{}", left.default_name(), right.default_name())
            }
            Expr::Star => "*".into(),
        }
    }
}

/// One projected item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl SelectItem {
    pub fn output_name(&self) -> String {
        self.alias
            .clone()
            .unwrap_or_else(|| self.expr.default_name())
    }
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// `catalog.table` or bare `table`.
    Table {
        catalog: Option<String>,
        name: String,
        alias: Option<String>,
    },
    /// `(SELECT ...) alias`
    Subquery {
        query: Box<SelectStmt>,
        alias: String,
    },
}

impl TableRef {
    /// The name other clauses refer to this relation by.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Table { alias: Some(a), .. } => a,
            TableRef::Table { name, .. } => name,
            TableRef::Subquery { alias, .. } => alias,
        }
    }
}

/// An inner join clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    /// Equi-join condition: (left expr, right expr).
    pub on_left: Expr,
    pub on_right: Expr,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub projections: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Expr {
        fn col(name: &str) -> Expr {
            Expr::Column {
                qualifier: None,
                name: name.to_string(),
            }
        }
    }

    #[test]
    fn contains_agg_walks_tree() {
        let e = Expr::Binary {
            left: Box::new(Expr::col("a")),
            op: BinOp::Add,
            right: Box::new(Expr::Agg {
                func: AggName::Sum,
                distinct: false,
                arg: Some(Box::new(Expr::col("b"))),
            }),
        };
        assert!(e.contains_agg());
        assert!(!Expr::col("a").contains_agg());
    }

    #[test]
    fn referenced_columns_dedupes() {
        let e = Expr::Binary {
            left: Box::new(Expr::col("a")),
            op: BinOp::Mul,
            right: Box::new(Expr::Binary {
                left: Box::new(Expr::col("a")),
                op: BinOp::Add,
                right: Box::new(Expr::col("b")),
            }),
        };
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn default_names() {
        assert_eq!(Expr::col("x").default_name(), "x");
        let count_star = Expr::Agg {
            func: AggName::Count,
            distinct: false,
            arg: None,
        };
        assert_eq!(count_star.default_name(), "count_star");
        let avg = Expr::Agg {
            func: AggName::Avg,
            distinct: false,
            arg: Some(Box::new(Expr::col("fare"))),
        };
        assert_eq!(avg.default_name(), "avg_fare");
    }

    #[test]
    fn binding_names() {
        let t = TableRef::Table {
            catalog: Some("pinot".into()),
            name: "orders".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), "orders");
        let t = TableRef::Table {
            catalog: None,
            name: "orders".into(),
            alias: Some("o".into()),
        };
        assert_eq!(t.binding_name(), "o");
    }
}
