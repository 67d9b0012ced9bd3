//! Logical plans and the AST-to-plan translator.
//!
//! The planner mirrors Presto's structure at a small scale: relational
//! operators over named bindings, aggregates extracted into an Aggregate
//! node with projections rewritten to reference aggregate outputs, and
//! scans carrying a [`crate::connector::Pushdown`] that the optimizer
//! fills in.

use crate::ast::{AggName, Expr, OrderItem, SelectStmt, TableRef};
use crate::connector::Pushdown;
use rtdi_common::{Error, Result};

/// One aggregate computed by an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggItem {
    /// Output column name.
    pub name: String,
    pub func: AggName,
    pub distinct: bool,
    /// `None` = COUNT(*).
    pub arg: Option<Expr>,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    Scan {
        catalog: Option<String>,
        table: String,
        binding: String,
        pushdown: Pushdown,
    },
    Filter {
        input: Box<Plan>,
        predicate: Expr,
    },
    Project {
        input: Box<Plan>,
        items: Vec<(String, Expr)>,
    },
    Aggregate {
        input: Box<Plan>,
        /// (output name, group expression)
        group_by: Vec<(String, Expr)>,
        aggs: Vec<AggItem>,
    },
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        left_binding: String,
        right_binding: String,
        on_left: Expr,
        on_right: Expr,
    },
    Sort {
        input: Box<Plan>,
        /// (output column name, desc)
        keys: Vec<(String, bool)>,
        /// How many trailing columns of every input row are the planner's
        /// own sort keys, stripped once the rows are sorted.
        strip: usize,
    },
    Limit {
        input: Box<Plan>,
        n: usize,
    },
}

impl Plan {
    /// Human-readable plan tree (EXPLAIN-style), for tests and docs.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan {
                catalog,
                table,
                pushdown,
                ..
            } => {
                let cat = catalog.as_deref().unwrap_or("default");
                out.push_str(&format!(
                    "{pad}Scan {cat}.{table} [filters={} proj={} agg={} limit={:?}]\n",
                    pushdown.predicates.len(),
                    pushdown
                        .projection
                        .as_ref()
                        .map(|p| p.len().to_string())
                        .unwrap_or_else(|| "*".into()),
                    pushdown.aggregation.is_some(),
                    pushdown.limit,
                ));
            }
            Plan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate:?}\n"));
                input.explain_into(depth + 1, out);
            }
            Plan::Project { input, items } => {
                let names: Vec<&str> = items.iter().map(|(n, _)| n.as_str()).collect();
                out.push_str(&format!("{pad}Project [{}]\n", names.join(", ")));
                input.explain_into(depth + 1, out);
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let g: Vec<&str> = group_by.iter().map(|(n, _)| n.as_str()).collect();
                let a: Vec<&str> = aggs.iter().map(|x| x.name.as_str()).collect();
                out.push_str(&format!(
                    "{pad}Aggregate group=[{}] aggs=[{}]\n",
                    g.join(", "),
                    a.join(", ")
                ));
                input.explain_into(depth + 1, out);
            }
            Plan::Join {
                left,
                right,
                on_left,
                on_right,
                ..
            } => {
                out.push_str(&format!("{pad}Join on {on_left:?} = {on_right:?}\n"));
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::Sort { input, keys, .. } => {
                out.push_str(&format!("{pad}Sort {keys:?}\n"));
                input.explain_into(depth + 1, out);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(depth + 1, out);
            }
        }
    }
}

/// Translate a parsed SELECT into a logical plan.
pub fn plan_select(stmt: &SelectStmt) -> Result<Plan> {
    // FROM (+ JOINs)
    let mut plan = plan_table_ref(&stmt.from)?;
    let mut left_binding = stmt.from.binding_name().to_string();
    for join in &stmt.joins {
        let right = plan_table_ref(&join.table)?;
        let right_binding = join.table.binding_name().to_string();
        plan = Plan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            left_binding: left_binding.clone(),
            right_binding: right_binding.clone(),
            on_left: join.on_left.clone(),
            on_right: join.on_right.clone(),
        };
        left_binding = format!("{left_binding}+{right_binding}");
    }

    // WHERE
    if let Some(w) = &stmt.where_clause {
        if w.contains_agg() {
            return Err(Error::Sql("aggregates are not allowed in WHERE".into()));
        }
        plan = Plan::Filter {
            input: Box::new(plan),
            predicate: w.clone(),
        };
    }

    // aggregation?
    let has_agg = stmt.projections.iter().any(|p| p.expr.contains_agg())
        || stmt
            .having
            .as_ref()
            .map(|h| h.contains_agg())
            .unwrap_or(false)
        || stmt.order_by.iter().any(|o| o.expr.contains_agg())
        || !stmt.group_by.is_empty();

    let mut projections: Vec<(String, Expr)> = Vec::new();
    let mut having = stmt.having.clone();
    let mut order_exprs: Vec<OrderItem> = stmt.order_by.clone();

    if has_agg {
        // name group expressions; reuse a projection alias when the
        // projection is exactly the group expression
        let mut group_by: Vec<(String, Expr)> = Vec::new();
        for g in &stmt.group_by {
            let name = stmt
                .projections
                .iter()
                .find(|p| &p.expr == g)
                .map(|p| p.output_name())
                .unwrap_or_else(|| g.default_name());
            group_by.push((name, g.clone()));
        }
        // collect aggregate calls from projections / having / order by
        let mut aggs: Vec<AggItem> = Vec::new();
        let mut rewritten_projs = Vec::new();
        for item in &stmt.projections {
            if matches!(item.expr, Expr::Star) {
                return Err(Error::Sql(
                    "SELECT * cannot be combined with aggregation".into(),
                ));
            }
            let rewritten = extract_aggs(&item.expr, &mut aggs);
            // group expressions referenced by name
            let rewritten = rewrite_group_refs(&rewritten, &group_by);
            rewritten_projs.push((item.output_name(), rewritten));
        }
        if let Some(h) = having.take() {
            having = Some(rewrite_group_refs(&extract_aggs(&h, &mut aggs), &group_by));
        }
        for o in &mut order_exprs {
            o.expr = rewrite_group_refs(&extract_aggs(&o.expr, &mut aggs), &group_by);
        }
        // validate: non-agg projections must be group expressions
        for (name, expr) in &rewritten_projs {
            validate_grouped_expr(expr, &group_by, name)?;
        }
        plan = Plan::Aggregate {
            input: Box::new(plan),
            group_by,
            aggs,
        };
        if let Some(h) = having {
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: h,
            };
        }
        projections = rewritten_projs;
    } else {
        for item in &stmt.projections {
            if matches!(item.expr, Expr::Star) {
                // star projection handled by executor as identity
                projections.clear();
                break;
            }
            projections.push((item.output_name(), item.expr.clone()));
        }
    }

    // ORDER BY is evaluated over the projected output: resolve each key to
    // an output column, adding hidden projections for non-trivial exprs
    let visible = projections.len();
    let mut sort_keys: Vec<(String, bool)> = Vec::new();
    for (i, o) in order_exprs.iter().enumerate() {
        let name = match &o.expr {
            Expr::Column { name, .. }
                if projections.is_empty() || projections.iter().any(|(n, _)| n == name) =>
            {
                name.clone()
            }
            expr => {
                if projections.is_empty() {
                    return Err(Error::Sql(
                        "ORDER BY expression requires explicit projections".into(),
                    ));
                }
                let hidden = format!("__sort{i}");
                projections.push((hidden.clone(), expr.clone()));
                hidden
            }
        };
        sort_keys.push((name, o.desc));
    }

    let strip = projections.len() - visible;
    if !projections.is_empty() {
        plan = Plan::Project {
            input: Box::new(plan),
            items: projections,
        };
    }
    if !sort_keys.is_empty() {
        plan = Plan::Sort {
            input: Box::new(plan),
            keys: sort_keys,
            strip,
        };
    }
    if let Some(n) = stmt.limit {
        plan = Plan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

fn plan_table_ref(t: &TableRef) -> Result<Plan> {
    match t {
        TableRef::Table {
            catalog,
            name,
            alias,
        } => Ok(Plan::Scan {
            catalog: catalog.clone(),
            table: name.clone(),
            binding: alias.clone().unwrap_or_else(|| name.clone()),
            pushdown: Pushdown::default(),
        }),
        TableRef::Subquery { query, .. } => plan_select(query),
    }
}

/// Replace aggregate calls with references to named aggregate outputs,
/// appending new [`AggItem`]s as discovered.
fn extract_aggs(expr: &Expr, aggs: &mut Vec<AggItem>) -> Expr {
    match expr {
        Expr::Agg {
            func,
            distinct,
            arg,
        } => {
            let item = AggItem {
                name: expr.default_name(),
                func: *func,
                distinct: *distinct,
                arg: arg.as_deref().cloned(),
            };
            // dedupe identical aggregates
            let name = match aggs
                .iter()
                .find(|a| a.func == item.func && a.distinct == item.distinct && a.arg == item.arg)
            {
                Some(existing) => existing.name.clone(),
                None => {
                    let name = if aggs.iter().any(|a| a.name == item.name) {
                        format!("{}_{}", item.name, aggs.len())
                    } else {
                        item.name.clone()
                    };
                    aggs.push(AggItem {
                        name: name.clone(),
                        ..item
                    });
                    name
                }
            };
            Expr::Column {
                qualifier: None,
                name,
            }
        }
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(extract_aggs(left, aggs)),
            op: *op,
            right: Box::new(extract_aggs(right, aggs)),
        },
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| extract_aggs(a, aggs)).collect(),
        },
        other => other.clone(),
    }
}

/// Replace group-by expressions with references to their output columns
/// (e.g. `TUMBLE(ts, 1000)` in the projection becomes a column ref to the
/// aggregate's group output).
fn rewrite_group_refs(expr: &Expr, group_by: &[(String, Expr)]) -> Expr {
    if let Some((name, _)) = group_by.iter().find(|(_, g)| g == expr) {
        return Expr::Column {
            qualifier: None,
            name: name.clone(),
        };
    }
    match expr {
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(rewrite_group_refs(left, group_by)),
            op: *op,
            right: Box::new(rewrite_group_refs(right, group_by)),
        },
        Expr::Function { name, args } => Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_group_refs(a, group_by))
                .collect(),
        },
        other => other.clone(),
    }
}

fn validate_grouped_expr(expr: &Expr, group_by: &[(String, Expr)], context: &str) -> Result<()> {
    match expr {
        Expr::Column { name, .. } => {
            // must be a group output or an aggregate output (aggregate
            // outputs were created by extract_aggs, which uses names not
            // present in group_by; we cannot distinguish here, so accept
            // names matching either source — unknown names surface at
            // execution time)
            let _ = (name, group_by);
            Ok(())
        }
        Expr::Binary { left, right, .. } => {
            validate_grouped_expr(left, group_by, context)?;
            validate_grouped_expr(right, group_by, context)
        }
        Expr::Function { args, .. } => {
            for a in args {
                validate_grouped_expr(a, group_by, context)?;
            }
            Ok(())
        }
        Expr::Literal(_) => Ok(()),
        Expr::Star => Err(Error::Sql(format!(
            "'*' invalid in grouped context '{context}'"
        ))),
        Expr::Agg { .. } => Err(Error::Sql("nested aggregate".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn plan(sql: &str) -> Plan {
        plan_select(&parse_select(sql).unwrap()).unwrap()
    }

    #[test]
    fn simple_select_plans_project_over_scan() {
        let p = plan("SELECT city, fare FROM trips WHERE fare > 10 LIMIT 5");
        let text = p.explain();
        assert!(text.contains("Limit 5"));
        assert!(text.contains("Project [city, fare]"));
        assert!(text.contains("Filter"));
        assert!(text.contains("Scan default.trips"));
    }

    #[test]
    fn aggregation_extraction_and_having() {
        let p = plan(
            "SELECT city, COUNT(*) AS n FROM trips GROUP BY city HAVING COUNT(*) > 5 ORDER BY n DESC",
        );
        let text = p.explain();
        assert!(text.contains("Aggregate group=[city] aggs=[count_star]"));
        // HAVING rewritten to reference the aggregate output
        assert!(text.contains("Filter"));
        assert!(text.contains("Sort"));
        // deduplicated: COUNT(*) appears once even though used twice
        match find_aggregate(&p) {
            Some(Plan::Aggregate { aggs, .. }) => assert_eq!(aggs.len(), 1),
            other => panic!("no aggregate: {other:?}"),
        }
    }

    fn find_aggregate(p: &Plan) -> Option<&Plan> {
        match p {
            Plan::Aggregate { .. } => Some(p),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => find_aggregate(input),
            Plan::Join { left, right, .. } => {
                find_aggregate(left).or_else(|| find_aggregate(right))
            }
            Plan::Scan { .. } => None,
        }
    }

    #[test]
    fn group_expr_references_rewritten() {
        let p =
            plan("SELECT TUMBLE(ts, 1000) AS w, SUM(fare) FROM trips GROUP BY TUMBLE(ts, 1000)");
        match &p {
            Plan::Project { items, .. } => {
                assert_eq!(items[0].0, "w");
                assert!(matches!(items[0].1, Expr::Column { ref name, .. } if name == "w"));
            }
            other => panic!("expected project, got {other:?}"),
        }
    }

    #[test]
    fn join_plan_structure() {
        let p = plan("SELECT o.city FROM orders o JOIN rest r ON o.rid = r.id WHERE o.total > 5");
        let text = p.explain();
        assert!(text.contains("Join"));
        assert!(text.matches("Scan").count() == 2);
    }

    #[test]
    fn subquery_plans_inline() {
        let p = plan("SELECT n FROM (SELECT COUNT(*) AS n FROM t GROUP BY city) s WHERE n > 2");
        let text = p.explain();
        assert!(text.contains("Aggregate"));
        assert!(text.contains("Filter"));
    }

    #[test]
    fn order_by_expression_gets_hidden_projection() {
        let p = plan("SELECT city, fare FROM t ORDER BY fare * 2 DESC");
        match &p {
            Plan::Sort { keys, input, strip } => {
                assert_eq!(keys[0], ("__sort0".to_string(), true));
                assert_eq!(*strip, 1);
                match &**input {
                    Plan::Project { items, .. } => {
                        assert!(items.iter().any(|(n, _)| n == "__sort0"));
                    }
                    other => panic!("expected project, got {other:?}"),
                }
            }
            other => panic!("expected sort, got {other:?}"),
        }
    }

    #[test]
    fn rejects_agg_in_where_and_star_with_group() {
        assert!(plan_select(
            &parse_select("SELECT city FROM t WHERE COUNT(*) > 1 GROUP BY city").unwrap()
        )
        .is_err());
        assert!(plan_select(&parse_select("SELECT * FROM t GROUP BY city").unwrap()).is_err());
    }
}
