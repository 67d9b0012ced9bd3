//! Pushdown optimizer (§4.5).
//!
//! "One challenge we overcame during this connector development is to be
//! intelligent and selective on which parts of the physical plan can be
//! pushed down to the Pinot layer... we enhanced Presto's query planner
//! and extended Presto Connector API to push as many operators down to the
//! Pinot layer as possible, such as projection, aggregation and limit."
//!
//! Rules (applied bottom-up, gated by connector capabilities):
//! 1. predicate pushdown: conjuncts of the form `column <op> literal`
//!    move from Filter nodes into the scan;
//! 2. aggregation pushdown: an Aggregate directly over a (filtered) scan
//!    whose group keys are bare columns and whose aggregates map to the
//!    OLAP aggregation functions collapses into the scan;
//! 3. projection pushdown: scans ship only referenced columns;
//! 4. order/limit pushdown: Sort+Limit over a pushable scan ships at most
//!    `limit` rows.
//!
//! None of them reads a literal's value, nor anything of a table's
//! current state: the engine caches their output per statement shape
//! ([`crate::shape`]). The one step that does, [`derive_partitions`],
//! runs on each query's plan once its literals are bound.

use crate::ast::{AggName, BinOp, Expr};
use crate::connector::{Capabilities, PushedAgg};
use crate::plan::{AggItem, Plan};
use rtdi_common::{AggFn, Value};
use rtdi_olap::query::{Predicate, PredicateOp};
use std::sync::Arc;

/// Resolve connector capabilities for a catalog.
pub type CapsResolver<'a> = &'a dyn Fn(&Option<String>) -> Capabilities;

/// Resolve a table's partition layout — `(column, partition count)` when
/// the connector partitions rows by `hash(column) % count`.
pub type PartitionResolver<'a> = &'a dyn Fn(&Option<String>, &str) -> Option<(String, usize)>;

/// Optimize a plan with rules 1–4. `enable` gates all pushdown (the E14
/// ablation flag).
pub fn optimize_with(plan: Plan, caps: CapsResolver, enable: bool) -> Plan {
    if !enable {
        return plan;
    }
    let plan = push_filters(plan, caps);
    let plan = push_aggregation(plan, caps);
    let plan = push_order_limit(plan, caps);
    push_projection(plan, caps)
}

/// Partition derivation, after predicate pushdown: an equality predicate
/// on a table's partition column pins the scatter to the single partition
/// `hash(value) % count` (§4.3's partition-aware routing, derived by the
/// planner instead of declared by the client). It reads the literal's
/// value and the connector's current partition layout, so it runs on every
/// query's bound plan.
pub fn derive_partitions(plan: &mut Plan, parts: PartitionResolver) {
    match plan {
        Plan::Scan {
            catalog,
            table,
            pushdown,
            ..
        } => {
            if let Some((col, n)) = parts(catalog, table) {
                let ids: Vec<usize> = pushdown
                    .predicates
                    .iter()
                    .filter(|p| p.op == PredicateOp::Eq && p.column == col)
                    .map(|p| (p.value.partition_hash() % n as u64) as usize)
                    .collect();
                if !ids.is_empty() {
                    // the hint is a routing superset: contradictory
                    // equality conjuncts still route somewhere, and the
                    // predicates themselves empty the scan
                    pushdown.partitions = Some(Arc::new(ids));
                }
            }
        }
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => derive_partitions(input, parts),
        Plan::Join { left, right, .. } => {
            derive_partitions(left, parts);
            derive_partitions(right, parts);
        }
    }
}

/// Split an AND-tree into conjuncts.
fn conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            conjuncts(left, out);
            conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Recombine conjuncts into an AND-tree.
fn combine(mut exprs: Vec<Expr>) -> Option<Expr> {
    let mut acc = exprs.pop()?;
    while let Some(e) = exprs.pop() {
        acc = Expr::Binary {
            left: Box::new(e),
            op: BinOp::And,
            right: Box::new(acc),
        };
    }
    Some(acc)
}

/// `column <op> literal` (either side) -> OLAP predicate.
fn as_predicate(expr: &Expr) -> Option<Predicate> {
    let (col, op, lit, flipped) = match expr {
        Expr::Binary { left, op, right } => match (&**left, &**right) {
            (Expr::Column { name, .. }, Expr::Literal(v)) => (name.clone(), *op, v.clone(), false),
            (Expr::Literal(v), Expr::Column { name, .. }) => (name.clone(), *op, v.clone(), true),
            _ => return None,
        },
        _ => return None,
    };
    let pop = match (op, flipped) {
        (BinOp::Eq, _) => PredicateOp::Eq,
        (BinOp::Neq, _) => PredicateOp::Ne,
        (BinOp::Lt, false) | (BinOp::Gt, true) => PredicateOp::Lt,
        (BinOp::Le, false) | (BinOp::Ge, true) => PredicateOp::Le,
        (BinOp::Gt, false) | (BinOp::Lt, true) => PredicateOp::Gt,
        (BinOp::Ge, false) | (BinOp::Le, true) => PredicateOp::Ge,
        _ => return None,
    };
    if matches!(lit, Value::Json(_) | Value::Bytes(_)) {
        return None;
    }
    Some(Predicate::new(col, pop, lit))
}

fn push_filters(plan: Plan, caps: CapsResolver) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = push_filters(*input, caps);
            if let Plan::Scan {
                catalog,
                table,
                binding,
                mut pushdown,
            } = input
            {
                if caps(&catalog).filters {
                    let mut all = Vec::new();
                    conjuncts(&predicate, &mut all);
                    let mut kept = Vec::new();
                    for c in all {
                        match as_predicate(&c) {
                            Some(p) => Arc::make_mut(&mut pushdown.predicates).push(p),
                            None => kept.push(c),
                        }
                    }
                    let scan = Plan::Scan {
                        catalog,
                        table,
                        binding,
                        pushdown,
                    };
                    return match combine(kept) {
                        Some(rest) => Plan::Filter {
                            input: Box::new(scan),
                            predicate: rest,
                        },
                        None => scan,
                    };
                }
                return Plan::Filter {
                    input: Box::new(Plan::Scan {
                        catalog,
                        table,
                        binding,
                        pushdown,
                    }),
                    predicate,
                };
            }
            Plan::Filter {
                input: Box::new(input),
                predicate,
            }
        }
        other => map_children(other, &mut |p| push_filters(p, caps)),
    }
}

/// Map an AggItem to a pushable OLAP aggregation function.
fn pushable_agg(item: &AggItem) -> Option<AggFn> {
    let col = match &item.arg {
        None => None,
        Some(Expr::Column { name, .. }) => Some(name.clone()),
        _ => return None, // expression arguments stay in the engine
    };
    match (item.func, item.distinct, col) {
        (AggName::Count, false, None) => Some(AggFn::Count),
        // COUNT(col) skips NULLs in SQL; the OLAP Count does not — not pushable
        (AggName::Count, false, Some(_)) => None,
        (AggName::Count, true, Some(c)) => Some(AggFn::DistinctCount(c)),
        (AggName::Sum, false, Some(c)) => Some(AggFn::Sum(c)),
        (AggName::Avg, false, Some(c)) => Some(AggFn::Avg(c)),
        (AggName::Min, false, Some(c)) => Some(AggFn::Min(c)),
        (AggName::Max, false, Some(c)) => Some(AggFn::Max(c)),
        _ => None,
    }
}

/// The items of a bare-column Project that gives columns other names.
pub(crate) type Renames = Vec<(String, Expr)>;

/// The aggregation the column kernels can run, if this one has that
/// shape: a connector takes it into the scan, and the engine folds it over
/// the column views of a scan that did not. Group keys must be bare
/// columns, and the kernels name a group cell by its column: when a key's
/// output name is an alias, the items of the bare-column Project that
/// renames the kernels' rows to the plan's names come with it.
pub(crate) fn pushable_aggregation(
    group_by: &[(String, Expr)],
    aggs: &[AggItem],
) -> Option<(PushedAgg, Option<Renames>)> {
    let groups: Option<Vec<String>> = group_by
        .iter()
        .map(|(_, e)| match e {
            Expr::Column { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    let fns: Option<Vec<(String, AggFn)>> = aggs
        .iter()
        .map(|a| pushable_agg(a).map(|f| (a.name.clone(), f)))
        .collect();
    let shape = PushedAgg {
        group_by: Arc::new(groups?),
        aggs: Arc::new(fns?),
    };
    let column = |name: &String| Expr::Column {
        qualifier: None,
        name: name.clone(),
    };
    let names = group_by.iter().map(|(name, _)| name);
    let rename = names.clone().ne(shape.group_by.iter()).then(|| {
        let keys = names
            .zip(shape.group_by.iter())
            .map(|(n, c)| (n.clone(), column(c)));
        keys.chain(aggs.iter().map(|a| (a.name.clone(), column(&a.name))))
            .collect()
    });
    Some((shape, rename))
}

fn push_aggregation(plan: Plan, caps: CapsResolver) -> Plan {
    match plan {
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let input = push_aggregation(*input, caps);
            if let Plan::Scan {
                catalog,
                table,
                binding,
                mut pushdown,
            } = input
            {
                let supported = caps(&catalog).aggregation && pushdown.aggregation.is_none();
                if let (true, Some((shape, rename))) =
                    (supported, pushable_aggregation(&group_by, &aggs))
                {
                    pushdown.aggregation = Some(shape);
                    let scan = Plan::Scan {
                        catalog,
                        table,
                        binding,
                        pushdown,
                    };
                    return match rename {
                        Some(items) => Plan::Project {
                            input: Box::new(scan),
                            items,
                        },
                        None => scan,
                    };
                }
                return Plan::Aggregate {
                    input: Box::new(Plan::Scan {
                        catalog,
                        table,
                        binding,
                        pushdown,
                    }),
                    group_by,
                    aggs,
                };
            }
            Plan::Aggregate {
                input: Box::new(input),
                group_by,
                aggs,
            }
        }
        other => map_children(other, &mut |p| push_aggregation(p, caps)),
    }
}

fn push_order_limit(plan: Plan, caps: CapsResolver) -> Plan {
    match plan {
        Plan::Limit { input, n } => {
            let input = push_order_limit(*input, caps);
            let input = apply_limit_below(input, None, n, caps);
            Plan::Limit {
                input: Box::new(input),
                n,
            }
        }
        other => map_children(other, &mut |p| push_order_limit(p, caps)),
    }
}

/// Try to sink `limit` (and optionally `order`) through 1:1 nodes
/// (Project) and a Sort into the scan. Returns the (possibly updated)
/// subtree; outer Sort/Limit nodes are kept — the pushdown only reduces
/// shipped rows, the engine still enforces semantics.
fn apply_limit_below(
    plan: Plan,
    order: Option<Vec<(String, bool)>>,
    n: usize,
    caps: CapsResolver,
) -> Plan {
    match plan {
        Plan::Scan {
            catalog,
            table,
            binding,
            mut pushdown,
        } => {
            // a plain limit without order is only safe when no engine-side
            // sort follows — the caller passes order=None exactly then
            let keys_ok = match (&order, &pushdown.aggregation) {
                (Some(keys), Some(agg)) => keys.iter().all(|(k, _)| {
                    agg.group_by.contains(k) || agg.aggs.iter().any(|(n2, _)| n2 == k)
                }),
                _ => true,
            };
            if caps(&catalog).limit && keys_ok {
                if let Some(keys) = order {
                    pushdown.order_by = keys;
                }
                pushdown.limit = Some(n);
            }
            Plan::Scan {
                catalog,
                table,
                binding,
                pushdown,
            }
        }
        Plan::Sort { input, keys, strip } => Plan::Sort {
            input: Box::new(apply_limit_below(*input, Some(keys.clone()), n, caps)),
            keys,
            strip,
        },
        Plan::Project { input, items } => {
            // the sort keys, projected names, become the names below; a
            // key that is not a bare column stops the sink here
            let mapped = order.as_ref().map(|keys| {
                let below = |k: &String| match &items.iter().find(|(name, _)| name == k)?.1 {
                    Expr::Column { name, .. } => Some(name.clone()),
                    _ => None,
                };
                keys.iter()
                    .map(|(k, desc)| Some((below(k)?, *desc)))
                    .collect::<Option<Vec<_>>>()
            });
            let input = match mapped {
                Some(None) => *input,
                keys => apply_limit_below(*input, keys.flatten(), n, caps),
            };
            Plan::Project {
                input: Box::new(input),
                items,
            }
        }
        other => other,
    }
}

fn push_projection(plan: Plan, caps: CapsResolver) -> Plan {
    // collect referenced columns down a linear Project/Filter/Sort chain
    fn walk(plan: Plan, needed: Option<Vec<String>>, caps: CapsResolver) -> Plan {
        match plan {
            Plan::Project { input, items } => {
                let mut cols = Vec::new();
                for (_, e) in &items {
                    e.referenced_columns(&mut cols);
                }
                Plan::Project {
                    input: Box::new(walk(*input, Some(cols), caps)),
                    items,
                }
            }
            Plan::Filter { input, predicate } => {
                let needed = needed.map(|mut cols| {
                    predicate.referenced_columns(&mut cols);
                    cols
                });
                Plan::Filter {
                    input: Box::new(walk(*input, needed, caps)),
                    predicate,
                }
            }
            Plan::Sort { input, keys, strip } => {
                let needed = needed.map(|mut cols| {
                    for (k, _) in &keys {
                        if !cols.contains(k) {
                            cols.push(k.clone());
                        }
                    }
                    cols
                });
                Plan::Sort {
                    input: Box::new(walk(*input, needed, caps)),
                    keys,
                    strip,
                }
            }
            Plan::Limit { input, n } => Plan::Limit {
                input: Box::new(walk(*input, needed, caps)),
                n,
            },
            // an aggregate reads its group keys and its arguments, whatever
            // is asked of it above: `COUNT(*)` alone reads no column at all
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let mut cols = Vec::new();
                let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                for e in group_by.iter().map(|(_, e)| e).chain(args) {
                    e.referenced_columns(&mut cols);
                }
                Plan::Aggregate {
                    input: Box::new(walk(*input, Some(cols), caps)),
                    group_by,
                    aggs,
                }
            }
            Plan::Scan {
                catalog,
                table,
                binding,
                mut pushdown,
            } => {
                if let Some(cols) = needed {
                    if caps(&catalog).projection
                        && pushdown.aggregation.is_none()
                        && pushdown.projection.is_none()
                    {
                        // also ship columns needed by pushed order_by
                        let mut cols = cols;
                        for (k, _) in &pushdown.order_by {
                            if !cols.contains(k) {
                                cols.push(k.clone());
                            }
                        }
                        pushdown.projection = Some(Arc::new(cols));
                    }
                }
                Plan::Scan {
                    catalog,
                    table,
                    binding,
                    pushdown,
                }
            }
            // joins: recurse without projection info (their column needs
            // are conservative)
            other => map_children(other, &mut |p| walk(p, None, caps)),
        }
    }
    walk(plan, None, caps)
}

/// The node with `f` applied to each of its inputs.
pub(crate) fn map_children(plan: Plan, f: &mut dyn FnMut(Plan) -> Plan) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => Plan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        Plan::Project { input, items } => Plan::Project {
            input: Box::new(f(*input)),
            items,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(f(*input)),
            group_by,
            aggs,
        },
        Plan::Join {
            left,
            right,
            left_binding,
            right_binding,
            on_left,
            on_right,
        } => Plan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            left_binding,
            right_binding,
            on_left,
            on_right,
        },
        Plan::Sort { input, keys, strip } => Plan::Sort {
            input: Box::new(f(*input)),
            keys,
            strip,
        },
        Plan::Limit { input, n } => Plan::Limit {
            input: Box::new(f(*input)),
            n,
        },
        scan @ Plan::Scan { .. } => scan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::Pushdown;
    use crate::parser::parse_select;
    use crate::plan::plan_select;

    fn full_caps(_: &Option<String>) -> Capabilities {
        Capabilities {
            filters: true,
            projection: true,
            aggregation: true,
            limit: true,
        }
    }

    fn no_caps(_: &Option<String>) -> Capabilities {
        Capabilities::default()
    }

    fn optimized(sql: &str, caps: CapsResolver) -> Plan {
        let plan = plan_select(&parse_select(sql).unwrap()).unwrap();
        optimize_with(plan, caps, true)
    }

    fn find_scan(p: &Plan) -> &Pushdown {
        match p {
            Plan::Scan { pushdown, .. } => pushdown,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Aggregate { input, .. } => find_scan(input),
            Plan::Join { left, .. } => find_scan(left),
        }
    }

    #[test]
    fn partition_hint_derived_from_equality_predicate() {
        let parts =
            |_: &Option<String>, table: &str| (table == "t").then(|| ("city".to_string(), 8usize));
        let derived = |sql: &str| {
            let mut plan = optimized(sql, &full_caps);
            assert!(
                find_scan(&plan).partitions.is_none(),
                "the rules derive nothing"
            );
            derive_partitions(&mut plan, &parts);
            find_scan(&plan).partitions.clone()
        };
        let expect = (Value::from("sf").partition_hash() % 8) as usize;
        assert_eq!(
            derived("SELECT COUNT(*) AS n FROM t WHERE city = 'sf' AND ts > 5").as_deref(),
            Some(&vec![expect])
        );
        // range predicates on the partition column derive nothing
        assert!(derived("SELECT COUNT(*) AS n FROM t WHERE city > 'a'").is_none());
        // unpartitioned tables derive nothing
        assert!(derived("SELECT COUNT(*) AS n FROM u WHERE city = 'sf'").is_none());
    }

    #[test]
    fn predicates_move_into_scan() {
        let p = optimized(
            "SELECT city FROM t WHERE total > 10 AND city = 'sf' AND total + 1 > 5",
            &full_caps,
        );
        let pd = find_scan(&p);
        assert_eq!(pd.predicates.len(), 2);
        // the arithmetic conjunct stays as an engine-side filter
        assert!(p.explain().contains("Filter"));
        // flipped literal-first comparisons normalize
        let p = optimized("SELECT city FROM t WHERE 10 < total", &full_caps);
        assert_eq!(find_scan(&p).predicates[0].op, PredicateOp::Gt);
    }

    #[test]
    fn aggregation_collapses_into_scan() {
        let p = optimized(
            "SELECT city, COUNT(*) AS n, AVG(total) AS a FROM t WHERE total > 5 GROUP BY city",
            &full_caps,
        );
        let pd = find_scan(&p);
        let agg = pd.aggregation.as_ref().expect("aggregation pushed");
        assert_eq!(*agg.group_by, vec!["city".to_string()]);
        assert_eq!(agg.aggs.len(), 2);
        assert!(!p.explain().contains("Aggregate"), "{}", p.explain());
    }

    #[test]
    fn complex_aggregations_stay_in_engine() {
        // expression argument -> not pushable
        let p = optimized("SELECT SUM(a + b) AS s FROM t", &full_caps);
        assert!(find_scan(&p).aggregation.is_none());
        assert!(p.explain().contains("Aggregate"));
        // COUNT(col) (null-sensitive) -> not pushable
        let p = optimized("SELECT COUNT(a) AS s FROM t", &full_caps);
        assert!(find_scan(&p).aggregation.is_none());
        // COUNT(DISTINCT col) -> pushable
        let p = optimized("SELECT COUNT(DISTINCT a) AS s FROM t", &full_caps);
        assert!(find_scan(&p).aggregation.is_some());
    }

    #[test]
    fn limit_and_topn_pushdown() {
        let p = optimized("SELECT city FROM t LIMIT 7", &full_caps);
        assert_eq!(find_scan(&p).limit, Some(7));
        let p = optimized(
            "SELECT city, total FROM t ORDER BY total DESC LIMIT 3",
            &full_caps,
        );
        let pd = find_scan(&p);
        assert_eq!(pd.limit, Some(3));
        assert_eq!(pd.order_by, vec![("total".to_string(), true)]);
        // top-n over pushed aggregation
        let p = optimized(
            "SELECT city, COUNT(*) AS n FROM t GROUP BY city ORDER BY n DESC LIMIT 2",
            &full_caps,
        );
        let pd = find_scan(&p);
        assert!(pd.aggregation.is_some());
        assert_eq!(pd.limit, Some(2));
    }

    #[test]
    fn projection_pushdown_ships_only_referenced() {
        let p = optimized("SELECT city FROM t WHERE total > 10", &full_caps);
        let pd = find_scan(&p);
        let proj = pd.projection.as_ref().expect("projection pushed");
        assert!(proj.contains(&"city".to_string()));
        // `total` fully pushed as predicate: not needed, but conservative
        // inclusion is fine — just assert it's a subset of {city,total}
        assert!(proj.iter().all(|c| c == "city" || c == "total"));
    }

    #[test]
    fn no_caps_means_no_pushdown() {
        let p = optimized(
            "SELECT city, COUNT(*) n FROM t WHERE total > 5 GROUP BY city LIMIT 3",
            &no_caps,
        );
        let pd = find_scan(&p);
        assert!(pd.predicates.is_empty() && pd.projection.is_none());
        assert!(pd.aggregation.is_none() && pd.limit.is_none());
        assert!(p.explain().contains("Aggregate"));
        assert!(p.explain().contains("Filter"));
    }

    #[test]
    fn disable_flag_bypasses_everything() {
        let plan =
            plan_select(&parse_select("SELECT city FROM t WHERE total > 10").unwrap()).unwrap();
        let same = optimize_with(plan.clone(), &full_caps, false);
        assert_eq!(plan, same);
    }
}
