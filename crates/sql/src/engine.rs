//! The federated SQL engine: Presto-style in-memory MPP execution over
//! connectors.
//!
//! §4.5: "Presto was designed from the ground up for fast analytical
//! queries against large scale datasets by employing a Massively Parallel
//! Processing (MPP) engine and performing all computations in-memory...
//! data scientists and engineers often want to do exploration on real-time
//! data... we have leveraged Presto's connector model and built a Pinot
//! connector."

use crate::ast::{AggName, Expr};
use crate::connector::{Connector, ScanOutput};
use crate::expr::{eval, truthy};
use crate::optimizer::{map_children, optimize_with, pushable_aggregation};
use crate::parser::parse_select;
use crate::plan::{plan_select, AggItem, Plan};
use rtdi_common::{AggAcc, Clock, Deadline, Error, PipelineTracer, Priority, Result, Row, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub default_catalog: String,
    /// Gate for all connector pushdown (E14 ablation).
    pub enable_pushdown: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            default_catalog: "pinot".into(),
            enable_pushdown: true,
        }
    }
}

/// Execution statistics for one query.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Documents touched inside connectors.
    pub docs_scanned: u64,
    /// Rows shipped from connectors into the engine.
    pub rows_shipped: u64,
    /// Some scan ran degraded (a connector could not reach every segment)
    /// and the rows cover only the available data.
    pub partial: bool,
    /// Segments connectors could not reach across all scans.
    pub segments_unavailable: u64,
    /// Segments consulted after pruning, across all scans.
    pub segments_queried: u64,
    /// Segments skipped by time-boundary, partition, or zone-map pruning.
    pub segments_pruned: u64,
    /// Cold bytes decoded from archival segment files (0 for scans that
    /// hit only resident columns or a federation result cache).
    pub bytes_read: u64,
    /// Scans answered entirely from a federation result cache.
    pub cache_hits: u64,
    /// Some scan's deadline expired mid-scatter and its rows cover only
    /// the segments served in budget.
    pub deadline_exceeded: bool,
    /// Segments abandoned across all scans because a deadline expired.
    pub segments_shed: u64,
    /// How stale the freshest data behind this query is, per the
    /// freshness tracer — `None` when the engine has no tracer attached
    /// or the pipeline has not produced yet. During a region outage this
    /// is the replication-lag signal the DR drill surfaces alongside
    /// `partial`.
    pub staleness_ms: Option<i64>,
    /// EXPLAIN text of the optimized plan.
    pub plan: String,
}

impl QueryStats {
    /// Add one scan's counters, read once its output has been consumed.
    fn absorb(&mut self, out: &ScanOutput) {
        let ledger = &out.ledger;
        self.docs_scanned += ledger.docs_scanned;
        self.rows_shipped += out.rows_shipped;
        self.partial |= ledger.partial();
        self.segments_unavailable += ledger.segments_unavailable;
        self.segments_queried += ledger.segments_queried;
        self.segments_pruned += ledger.segments_pruned;
        self.bytes_read += out.bytes_read;
        self.cache_hits += u64::from(out.cache_hit);
        self.deadline_exceeded |= ledger.deadline_exceeded;
        self.segments_shed += ledger.segments_shed;
    }
}

/// Query result.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    pub rows: Vec<Row>,
    pub stats: QueryStats,
}

/// The engine.
pub struct SqlEngine {
    connectors: HashMap<String, Arc<dyn Connector>>,
    config: EngineConfig,
    freshness: Option<(PipelineTracer, String, Arc<dyn Clock>)>,
}

impl SqlEngine {
    pub fn new(config: EngineConfig) -> Self {
        SqlEngine {
            connectors: HashMap::new(),
            config,
            freshness: None,
        }
    }

    pub fn register_connector(&mut self, catalog: &str, connector: Arc<dyn Connector>) {
        self.connectors.insert(catalog.to_string(), connector);
    }

    /// Attach the freshness tracer feeding the tables this engine serves.
    /// Every query then records query-time staleness under the tracer's
    /// SQL stage and reports it in [`QueryStats::staleness_ms`].
    pub fn with_freshness(
        mut self,
        tracer: PipelineTracer,
        pipeline: &str,
        clock: Arc<dyn Clock>,
    ) -> Self {
        self.freshness = Some((tracer, pipeline.to_string(), clock));
        self
    }

    fn connector(&self, catalog: &Option<String>) -> Result<&Arc<dyn Connector>> {
        let name = catalog
            .clone()
            .unwrap_or_else(|| self.config.default_catalog.clone());
        self.connectors
            .get(&name)
            .ok_or_else(|| Error::NotFound(format!("catalog '{name}'")))
    }

    fn resolve_catalogs(&self, plan: Plan) -> Plan {
        match plan {
            Plan::Scan {
                catalog,
                table,
                binding,
                pushdown,
            } => Plan::Scan {
                catalog: catalog.or_else(|| Some(self.config.default_catalog.clone())),
                table,
                binding,
                pushdown,
            },
            other => map_children(other, &mut |p| self.resolve_catalogs(p)),
        }
    }

    /// Parse, plan, optimize and execute a SQL query.
    pub fn query(&self, sql: &str) -> Result<QueryOutput> {
        self.query_with(sql, None, Priority::default())
    }

    /// Execute with an end-to-end deadline and a scheduling lane. The
    /// deadline is stamped onto every scan in the plan, so connectors shed
    /// segments they cannot serve in budget (degraded partial answers)
    /// instead of running long; backfill-lane scans are the first shed
    /// under pressure and run at reduced parallelism.
    pub fn query_with(
        &self,
        sql: &str,
        deadline: Option<Deadline>,
        priority: Priority,
    ) -> Result<QueryOutput> {
        let mut plan = self.optimized_plan(sql)?;
        stamp_overload(&mut plan, &deadline, priority);
        let mut stats = QueryStats {
            plan: plan.explain(),
            ..Default::default()
        };
        let rows = self.execute(&plan, &mut stats)?;
        if let Some((tracer, pipeline, clock)) = &self.freshness {
            stats.staleness_ms = tracer.note_query(pipeline, clock.now());
        }
        Ok(QueryOutput { rows, stats })
    }

    /// EXPLAIN: the optimized plan without executing it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.optimized_plan(sql)?.explain())
    }

    fn optimized_plan(&self, sql: &str) -> Result<Plan> {
        let stmt = parse_select(sql)?;
        let plan = self.resolve_catalogs(plan_select(&stmt)?);
        let caps = |catalog: &Option<String>| {
            self.connector(catalog)
                .map(|c| c.capabilities())
                .unwrap_or_default()
        };
        let parts = |catalog: &Option<String>, table: &str| {
            self.connector(catalog)
                .ok()
                .and_then(|c| c.partition_spec(table))
        };
        Ok(optimize_with(
            plan,
            &caps,
            &parts,
            self.config.enable_pushdown,
        ))
    }

    fn execute(&self, plan: &Plan, stats: &mut QueryStats) -> Result<Vec<Row>> {
        match plan {
            Plan::Scan {
                catalog,
                table,
                binding,
                pushdown,
            } => {
                let mut out = self.connector(catalog)?.scan(table, pushdown)?;
                let rows = out.take_rows()?;
                stats.absorb(&out);
                let _ = binding;
                Ok(rows)
            }
            Plan::Filter { input, predicate } => {
                let rows = self.execute(input, stats)?;
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if truthy(&eval(predicate, &row)?) {
                        out.push(row);
                    }
                }
                Ok(out)
            }
            Plan::Project { input, items } => project(self.execute(input, stats)?, items),
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                // directly over a columnar scan, an aggregate of the shape
                // a connector could have taken folds the shipped column
                // views with the segment kernels; any other shape, and any
                // scan that shipped rows, goes through the row aggregator
                if let Plan::Scan {
                    catalog,
                    table,
                    pushdown,
                    ..
                } = &**input
                {
                    if let Some((shape, rename)) = pushable_aggregation(group_by, aggs) {
                        let mut out = self.connector(catalog)?.scan(table, pushdown)?;
                        let rows = match (out.fold(&shape)?, rename) {
                            (Some(rows), Some(items)) => project(rows, &items)?,
                            (Some(rows), None) => rows,
                            (None, _) => execute_aggregate(&out.take_rows()?, group_by, aggs)?,
                        };
                        stats.absorb(&out);
                        return Ok(rows);
                    }
                }
                let rows = self.execute(input, stats)?;
                execute_aggregate(&rows, group_by, aggs)
            }
            Plan::Join {
                left,
                right,
                left_binding,
                right_binding,
                on_left,
                on_right,
            } => {
                let left_rows = self.execute(left, stats)?;
                let right_rows = self.execute(right, stats)?;
                hash_join(
                    &left_rows,
                    &right_rows,
                    left_binding,
                    right_binding,
                    on_left,
                    on_right,
                )
            }
            Plan::Sort { input, keys, strip } => {
                let mut rows = self.execute(input, stats)?;
                rows.sort_by(|a, b| {
                    for (col, desc) in keys {
                        let va = a.get(col).unwrap_or(&Value::Null);
                        let vb = b.get(col).unwrap_or(&Value::Null);
                        let ord = va.total_cmp(vb);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                // the planner's own sort keys end every row
                if *strip > 0 {
                    for row in &mut rows {
                        row.truncate(row.len().saturating_sub(*strip));
                    }
                }
                Ok(rows)
            }
            Plan::Limit { input, n } => {
                let mut rows = self.execute(input, stats)?;
                rows.truncate(*n);
                Ok(rows)
            }
        }
    }
}

/// Stamp a deadline and scheduling lane onto every scan in the plan.
fn stamp_overload(plan: &mut Plan, deadline: &Option<Deadline>, priority: Priority) {
    match plan {
        Plan::Scan { pushdown, .. } => {
            pushdown.deadline = deadline.clone();
            pushdown.priority = priority;
        }
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. } => stamp_overload(input, deadline, priority),
        Plan::Join { left, right, .. } => {
            stamp_overload(left, deadline, priority);
            stamp_overload(right, deadline, priority);
        }
    }
}

/// Evaluate the items over every row. Each item's output name is interned
/// once and shared by every row. A bare column that no other item reads
/// is moved out of its input row, looked for where the previous row had
/// it; any other item is evaluated.
fn project(rows: Vec<Row>, items: &[(String, Expr)]) -> Result<Vec<Row>> {
    let reads = |expr: &Expr, column: &str| match expr {
        Expr::Column { name, .. } => name == column,
        expr => {
            let mut cols = Vec::new();
            expr.referenced_columns(&mut cols);
            cols.iter().any(|c| c == column)
        }
    };
    // per item its output name, and the column it moves with the position
    // the last row had it at
    let mut plan: Vec<_> = (items.iter().enumerate())
        .map(|(i, (name, expr))| {
            let moved = match expr {
                Expr::Column {
                    qualifier: None,
                    name: column,
                } => {
                    let mut others = items.iter().enumerate().filter(|&(j, _)| j != i);
                    others
                        .all(|(_, (_, e))| !reads(e, column))
                        .then_some((column.as_str(), 0))
                }
                _ => None,
            };
            (Arc::<str>::from(name.as_str()), moved)
        })
        .collect();
    rows.into_iter()
        .map(|mut row| {
            let mut out = Row::with_capacity(items.len());
            for ((name, moved), (_, expr)) in plan.iter_mut().zip(items) {
                let value = match moved {
                    Some((column, at)) => {
                        if row.at(*at).is_none_or(|(found, _)| found != *column) {
                            *at = row.position(column).unwrap_or(usize::MAX);
                        }
                        let cell = row
                            .at_mut(*at)
                            .map(|(_, v)| std::mem::replace(v, Value::Null));
                        cell.unwrap_or(Value::Null)
                    }
                    None => eval(expr, &row)?,
                };
                out.push(Arc::clone(name), value);
            }
            Ok(out)
        })
        .collect()
}

fn new_acc(item: &AggItem) -> AggAcc {
    match (item.func, item.distinct) {
        (AggName::Count, true) => AggAcc::Distinct(Default::default()),
        (AggName::Count, false) => AggAcc::Count(0),
        (AggName::Sum, _) => AggAcc::Sum { sum: 0.0, count: 0 },
        (AggName::Avg, _) => AggAcc::Avg { sum: 0.0, count: 0 },
        (AggName::Min, _) => AggAcc::Min(None),
        (AggName::Max, _) => AggAcc::Max(None),
    }
}

fn execute_aggregate(
    rows: &[Row],
    group_by: &[(String, crate::ast::Expr)],
    aggs: &[AggItem],
) -> Result<Vec<Row>> {
    // group key -> (representative group values, accumulators); NULL keys
    // are None so they never collide with a literal "NULL" string
    type GroupKey = Vec<Option<String>>;
    let mut groups: BTreeMap<GroupKey, (Vec<Value>, Vec<AggAcc>)> = BTreeMap::new();
    for row in rows {
        let mut key = Vec::with_capacity(group_by.len());
        let mut vals = Vec::with_capacity(group_by.len());
        for (_, g) in group_by {
            let v = eval(g, row)?;
            key.push(if v.is_null() {
                None
            } else {
                Some(v.to_string())
            });
            vals.push(v);
        }
        let (_, accs) = groups
            .entry(key)
            .or_insert_with(|| (vals, aggs.iter().map(new_acc).collect()));
        for (acc, item) in accs.iter_mut().zip(aggs) {
            match &item.arg {
                None => acc.add_one(), // COUNT(*)
                Some(e) => {
                    // SQL semantics: aggregates skip NULL arguments
                    let arg = eval(e, row)?;
                    if !arg.is_null() {
                        acc.add_value(&arg);
                    }
                }
            }
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        // global aggregate over empty input still yields one row
        let mut row = Row::new();
        for item in aggs {
            row.push(item.name.clone(), new_acc(item).result());
        }
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (_, (vals, accs)) in groups {
        let mut row = Row::with_capacity(group_by.len() + aggs.len());
        for ((name, _), v) in group_by.iter().zip(vals) {
            row.push(name.clone(), v);
        }
        for (item, acc) in aggs.iter().zip(&accs) {
            row.push(item.name.clone(), acc.result());
        }
        out.push(row);
    }
    Ok(out)
}

fn hash_join(
    left: &[Row],
    right: &[Row],
    left_binding: &str,
    right_binding: &str,
    on_left: &crate::ast::Expr,
    on_right: &crate::ast::Expr,
) -> Result<Vec<Row>> {
    // build side: right
    let mut table: HashMap<String, Vec<&Row>> = HashMap::new();
    for row in right {
        let k = eval(on_right, row)?;
        if k.is_null() {
            continue;
        }
        table.entry(k.to_string()).or_default().push(row);
    }
    let mut out = Vec::new();
    for lrow in left {
        let k = eval(on_left, lrow)?;
        if k.is_null() {
            continue;
        }
        if let Some(matches) = table.get(&k.to_string()) {
            for rrow in matches {
                out.push(merge_joined(lrow, rrow, left_binding, right_binding));
            }
        }
    }
    Ok(out)
}

fn merge_joined(l: &Row, r: &Row, lb: &str, rb: &str) -> Row {
    let mut out = Row::with_capacity(l.len() + r.len());
    for (n, v) in l.iter() {
        out.push(n.to_string(), v.clone());
        if !n.contains('.') {
            // last element of a composite binding chain (a+b) is not a
            // valid qualifier; only qualify with simple bindings
            if !lb.contains('+') {
                out.push(format!("{lb}.{n}"), v.clone());
            }
        }
    }
    for (n, v) in r.iter() {
        if out.get(n).is_none() {
            out.push(n.to_string(), v.clone());
        }
        if !n.contains('.') && !rb.contains('+') {
            out.push(format!("{rb}.{n}"), v.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::MemoryConnector;
    use rtdi_common::{AggFn, FieldType, Schema};

    fn engine() -> SqlEngine {
        let mut mem = MemoryConnector::new();
        mem.add_table(
            "orders",
            Schema::of(
                "orders",
                &[
                    ("city", FieldType::Str),
                    ("restaurant_id", FieldType::Int),
                    ("total", FieldType::Double),
                ],
            ),
            (0..100)
                .map(|i| {
                    Row::new()
                        .with("city", ["sf", "la", "nyc"][i % 3])
                        .with("restaurant_id", (i % 10) as i64)
                        .with("total", i as f64)
                })
                .collect(),
        );
        mem.add_table(
            "restaurants",
            Schema::of(
                "restaurants",
                &[("id", FieldType::Int), ("cuisine", FieldType::Str)],
            ),
            (0..10)
                .map(|i| {
                    Row::new()
                        .with("id", i as i64)
                        .with("cuisine", if i % 2 == 0 { "thai" } else { "diner" })
                })
                .collect(),
        );
        let mut e = SqlEngine::new(EngineConfig {
            default_catalog: "mem".into(),
            enable_pushdown: true,
        });
        e.register_connector("mem", Arc::new(mem));
        e
    }

    #[test]
    fn select_with_filter_order_limit() {
        let e = engine();
        let out = e
            .query("SELECT city, total FROM orders WHERE total >= 95 ORDER BY total DESC LIMIT 2")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].get_double("total"), Some(99.0));
        assert_eq!(out.rows[0].len(), 2);
    }

    /// The sort strips the keys the planner added and nothing else: a
    /// projection of the user's stays, whatever it is called.
    #[test]
    fn sort_strips_only_its_own_keys() {
        let e = engine();
        let out = e
            .query(
                "SELECT city AS __sortable, total FROM orders WHERE total < 10 \
                 ORDER BY __sortable LIMIT 3",
            )
            .unwrap();
        let names: Vec<Vec<&str>> = out
            .rows
            .iter()
            .map(|r| r.column_names().collect())
            .collect();
        assert_eq!(names, vec![vec!["__sortable", "total"]; 3]);
        assert_eq!(out.rows[0].get_str("__sortable"), Some("la"));
        // a hidden key (`total * 2`) goes, the user's `__sortable` stays
        let out = e
            .query("SELECT city AS __sortable, total FROM orders ORDER BY total * 2 DESC LIMIT 2")
            .unwrap();
        let expect = vec![
            Row::new().with("__sortable", "sf").with("total", 99.0),
            Row::new().with("__sortable", "nyc").with("total", 98.0),
        ];
        assert_eq!(out.rows, expect);
    }

    /// A group key under an alias still goes down to the kernels: the scan
    /// aggregates on the column, and a bare-column Project above it renames
    /// the column to the alias. The answers are the row aggregator's.
    #[test]
    fn an_aliased_group_key_is_pushed_down_and_renamed() {
        use crate::connector::PinotConnector;
        use rtdi_olap::table::{OlapTable, TableConfig};

        let schema = Schema::of(
            "orders",
            &[("city", FieldType::Str), ("total", FieldType::Double)],
        );
        let config = TableConfig::new("orders", schema)
            .with_partitions(2)
            .with_segment_rows(16);
        let table = OlapTable::new(config).unwrap();
        for i in 0..100 {
            let city = ["sf", "la", "nyc", "chi"][i % 7 % 4];
            let row = Row::new().with("city", city).with("total", i as f64);
            table.ingest(i % 2, row).unwrap();
        }
        let pinot = PinotConnector::new();
        pinot.register(table);
        let mut e = SqlEngine::new(EngineConfig::default());
        e.register_connector("pinot", Arc::new(pinot));
        for order in ["c DESC", "n DESC", "revenue"] {
            let sql = format!(
                "SELECT city AS c, COUNT(*) AS n, SUM(total) AS revenue FROM orders \
                 GROUP BY city ORDER BY {order} LIMIT 3"
            );
            e.config.enable_pushdown = true;
            let plan = e.explain(&sql).unwrap();
            assert!(plan.contains("agg=true"), "{plan}");
            assert!(!plan.contains("Aggregate"), "{plan}");
            let pushed = e.query(&sql).unwrap();
            // the order and the limit went down with the aggregation
            assert_eq!(pushed.stats.rows_shipped, 3, "{sql}");
            e.config.enable_pushdown = false;
            let engine_side = e.query(&sql).unwrap();
            assert_eq!(pushed.rows, engine_side.rows, "{sql}");
            assert_eq!(pushed.rows[0].column_names().next(), Some("c"));
        }
    }

    #[test]
    fn group_by_having_order() {
        let e = engine();
        let out = e
            .query(
                "SELECT city, COUNT(*) AS n, AVG(total) AS avg_total \
                 FROM orders GROUP BY city HAVING COUNT(*) > 33 ORDER BY n DESC",
            )
            .unwrap();
        // 100 rows over 3 cities: 34/33/33 -> only 'sf' (34) survives HAVING > 33
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get_str("city"), Some("sf"));
        assert_eq!(out.rows[0].get_int("n"), Some(34));
    }

    #[test]
    fn count_distinct_and_count_col_null_handling() {
        let mut mem = MemoryConnector::new();
        mem.add_table(
            "t",
            Schema::of("t", &[("x", FieldType::Int)]),
            vec![
                Row::new().with("x", 1i64),
                Row::new().with("x", Value::Null),
                Row::new().with("x", 1i64),
                Row::new().with("x", 2i64),
            ],
        );
        let mut e = SqlEngine::new(EngineConfig {
            default_catalog: "mem".into(),
            enable_pushdown: true,
        });
        e.register_connector("mem", Arc::new(mem));
        let out = e
            .query(
                "SELECT COUNT(*) AS all_rows, COUNT(x) AS non_null, COUNT(DISTINCT x) AS d FROM t",
            )
            .unwrap();
        assert_eq!(out.rows[0].get_int("all_rows"), Some(4));
        assert_eq!(out.rows[0].get_int("non_null"), Some(3));
        assert_eq!(out.rows[0].get_int("d"), Some(2));
    }

    #[test]
    fn join_with_qualifiers() {
        let e = engine();
        let out = e
            .query(
                "SELECT o.city, r.cuisine, COUNT(*) AS n \
                 FROM orders o JOIN restaurants r ON o.restaurant_id = r.id \
                 WHERE r.cuisine = 'thai' GROUP BY o.city, r.cuisine ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 3);
        assert!(out
            .rows
            .iter()
            .all(|r| r.get_str("cuisine") == Some("thai")));
        let total: i64 = out.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 50); // half the restaurants are thai
    }

    #[test]
    fn subquery_in_from() {
        let e = engine();
        let out = e
            .query(
                "SELECT n FROM \
                 (SELECT city, COUNT(*) AS n FROM orders GROUP BY city) sub \
                 WHERE n > 33",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get_int("n"), Some(34));
    }

    #[test]
    fn arithmetic_projection() {
        let e = engine();
        let out = e
            .query("SELECT total * 2 AS double_total FROM orders WHERE total = 10")
            .unwrap();
        assert_eq!(out.rows[0].get_double("double_total"), Some(20.0));
    }

    #[test]
    fn empty_aggregate_yields_zero_row() {
        let e = engine();
        let out = e
            .query("SELECT COUNT(*) AS n FROM orders WHERE total > 10000")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get_int("n"), Some(0));
    }

    #[test]
    fn unknown_catalog_or_table() {
        let e = engine();
        assert!(e.query("SELECT * FROM nosuch.t").is_err());
        assert!(e.query("SELECT * FROM ghost_table").is_err());
    }

    #[test]
    fn hybrid_federation_end_to_end() {
        use crate::catalog::{HybridTable, RealtimeSide};
        use crate::connector::PinotConnector;
        use rtdi_olap::segment::{IndexSpec, LazySegment, Segment};
        use rtdi_olap::table::{OlapTable, TableConfig};

        let schema = Schema::of(
            "trips",
            &[
                ("city", FieldType::Str),
                ("ts", FieldType::Timestamp),
                ("fare", FieldType::Double),
            ],
        );
        let parts = 4usize;
        let cities = ["sf", "la", "nyc", "chi"];
        let trip = |city: &str, ts: i64| {
            Row::new()
                .with("city", city)
                .with("ts", ts)
                .with("fare", ts as f64)
        };

        // realtime side: ts 100..=149, all cities
        let rt = OlapTable::new(
            TableConfig::new("trips", schema.clone())
                .with_partitions(1)
                .with_time_column("ts"),
        )
        .unwrap();
        for ts in 100..=149 {
            rt.ingest(0, trip(cities[(ts % 4) as usize], ts)).unwrap();
        }

        // offline side: one archive per city, ts 0..=99, registered under
        // the partition its city hashes to
        let hybrid = Arc::new(
            HybridTable::new("trips", schema.clone(), "ts", RealtimeSide::Direct(rt))
                .with_partition_spec("city", parts),
        );
        for city in cities {
            let rows: Vec<Row> = (0..=99).map(|ts| trip(city, ts)).collect();
            let seg =
                Segment::build(format!("off_{city}"), &schema, rows, &IndexSpec::none()).unwrap();
            let lazy: LazySegment = Segment::load_lazy(seg.persist().unwrap()).unwrap();
            let p = (Value::from(city).partition_hash() % parts as u64) as usize;
            hybrid
                .register_offline_segment(Arc::new(lazy), Some(p))
                .unwrap();
        }

        let pinot = PinotConnector::new();
        pinot.register_hybrid(hybrid.clone());
        let mut e = SqlEngine::new(EngineConfig::default());
        e.register_connector("pinot", Arc::new(pinot));

        // equality on the partition column scatters only to the matching
        // partition's archives; everything federates across the boundary
        let sql = "SELECT COUNT(*) AS n FROM trips WHERE city = 'sf'";
        let out = e.query(sql).unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(100 + 13)); // offline + realtime sf
        assert!(out.stats.segments_pruned >= 3, "other partitions pruned");
        assert_eq!(out.stats.cache_hits, 0);

        // the repeat replays the offline slice from the result cache
        let again = e.query(sql).unwrap();
        assert_eq!(again.rows[0].get_int("n"), Some(113));
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.stats.bytes_read, 0);
    }

    /// `pinot.trips`: a hybrid table (archive ts 0..=99, realtime ts
    /// 100..=149); `mem.trips` holds the same rows for a row scan.
    fn hybrid_beside_its_rows() -> (SqlEngine, Arc<crate::catalog::HybridTable>) {
        use crate::catalog::{HybridTable, RealtimeSide};
        use crate::connector::PinotConnector;
        use rtdi_olap::segment::{IndexSpec, Segment};
        use rtdi_olap::table::{OlapTable, TableConfig};

        let schema = Schema::of(
            "trips",
            &[("city", FieldType::Str), ("ts", FieldType::Timestamp)],
        );
        let trip = |ts: i64| {
            Row::new()
                .with("city", ["sf", "la"][(ts % 2) as usize])
                .with("ts", ts)
        };
        let (archived, live): (Vec<Row>, Vec<Row>) = (
            (0..=99).map(trip).collect(),
            (100..=149).map(trip).collect(),
        );
        let config = TableConfig::new("trips", schema.clone())
            .with_partitions(1)
            .with_segment_rows(20)
            .with_time_column("ts");
        let rt = OlapTable::new(config).unwrap();
        for row in &live {
            rt.ingest(0, row.clone()).unwrap();
        }
        let hybrid = HybridTable::new("trips", schema.clone(), "ts", RealtimeSide::Direct(rt));
        let seg = Segment::build("off", &schema, archived.clone(), &IndexSpec::none()).unwrap();
        let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
        hybrid
            .register_offline_segment(Arc::new(lazy), None)
            .unwrap();
        let hybrid = Arc::new(hybrid);

        let pinot = PinotConnector::new();
        pinot.register_hybrid(hybrid.clone());
        let mut mem = MemoryConnector::new();
        mem.add_table("trips", schema, [archived, live].concat());
        let mut e = SqlEngine::new(EngineConfig::default());
        e.register_connector("pinot", Arc::new(pinot));
        e.register_connector("mem", Arc::new(mem));
        (e, hybrid)
    }

    /// A time literal at either end of `i64` must neither overflow the
    /// boundary planner nor answer differently from a row scan.
    #[test]
    fn time_literals_at_the_integer_extremes_match_nothing() {
        use crate::connector::{Pushdown, PushedAgg};
        use rtdi_olap::query::{Predicate, PredicateOp};
        let (e, hybrid) = hybrid_beside_its_rows();
        for select in ["COUNT(*) AS n", "ts"] {
            let sql = |catalog: &str| {
                format!("SELECT {select} FROM {catalog}.trips WHERE ts > 9223372036854775807")
            };
            let out = e.query(&sql("pinot")).unwrap();
            assert_eq!(out.rows, e.query(&sql("mem")).unwrap().rows, "{select}");
            // neither side of the boundary can hold such a row: both skipped
            assert_eq!(out.stats.segments_queried, 0);
        }
        assert_eq!(
            e.query("SELECT COUNT(*) AS n FROM trips WHERE ts >= 9223372036854775807")
                .unwrap()
                .rows[0]
                .get_int("n"),
            Some(0)
        );
        // `-9223372036854775808` is not a literal the lexer can produce
        let below_all = Arc::new(vec![Predicate::new("ts", PredicateOp::Lt, i64::MIN)]);
        let count = Pushdown {
            predicates: below_all.clone(),
            aggregation: Some(PushedAgg {
                group_by: Arc::new(vec![]),
                aggs: Arc::new(vec![("n".into(), AggFn::Count)]),
            }),
            ..Default::default()
        };
        assert_eq!(hybrid.scan(&count).unwrap().rows[0].get_int("n"), Some(0));
        let select = Pushdown {
            predicates: below_all,
            ..Default::default()
        };
        assert!(hybrid.scan(&select).unwrap().rows.is_empty());
    }

    /// A GROUP BY without an aggregate is still a grouping query once it
    /// is pushed down: one row per group, not one per document.
    #[test]
    fn bare_group_by_pushes_down_as_groups() {
        let (e, _) = hybrid_beside_its_rows();
        let sql =
            |catalog: &str| format!("SELECT city FROM {catalog}.trips GROUP BY city ORDER BY city");
        let out = e.query(&sql("pinot")).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows, e.query(&sql("mem")).unwrap().rows);
    }

    #[test]
    fn hive_scan_prunes_part_files_and_decodes_only_touched_columns() {
        use crate::connector::HiveConnector;
        use rtdi_storage::hive::HiveCatalog;
        use rtdi_storage::object::InMemoryStore;

        let catalog = HiveCatalog::new(Arc::new(InMemoryStore::new()));
        let schema = Schema::of(
            "trips",
            &[
                ("city", FieldType::Str),
                ("driver", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        );
        let table = catalog.create_table("trips", schema).unwrap();
        // two part files of one date: ts 0..100 and ts 1000..1100
        for base in [0i64, 1000] {
            let rows: Vec<Row> = (0..100)
                .map(|i| {
                    Row::new()
                        .with("city", ["sf", "la", "nyc"][i as usize % 3])
                        .with("driver", format!("d{i}"))
                        .with("fare", i as f64)
                        .with("ts", base + i)
                })
                .collect();
            catalog.write_rows("trips", "d000000", &rows).unwrap();
        }
        let mut e = SqlEngine::new(EngineConfig::default());
        e.register_connector("hive", Arc::new(HiveConnector::new(catalog)));
        let files = table.open_parts(|_| true).unwrap();
        let block = |file: usize, column: &str| files[file].entry(column).unwrap().len;

        // the window rules the first file out on its zone map: of the
        // second, the filter column and the group key decode, and no other
        let out = e
            .query(
                "SELECT city, COUNT(*) AS n FROM hive.trips WHERE ts >= 1050 \
                 GROUP BY city ORDER BY city",
            )
            .unwrap();
        let n: i64 = out.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!((out.rows.len(), n), (3, 50));
        assert_eq!(out.stats.segments_pruned, 1);
        assert_eq!(out.stats.segments_queried, 1);
        assert_eq!(out.stats.bytes_read, block(1, "ts") + block(1, "city"));
        // the warehouse ships rows (here: counts them), Pinot ships answers
        assert_eq!(out.stats.rows_shipped, 50);

        // COUNT(*) reads no column at all
        let out = e.query("SELECT COUNT(*) AS n FROM hive.trips").unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(200));
        assert_eq!((out.stats.bytes_read, out.stats.rows_shipped), (0, 200));

        // rows: the filter column for the predicate, the projected column
        // for the rows
        let out = e
            .query("SELECT fare FROM hive.trips WHERE ts < 10 ORDER BY fare DESC")
            .unwrap();
        assert_eq!(out.rows.len(), 10);
        assert_eq!(out.rows[0], Row::new().with("fare", 9.0));
        assert_eq!(out.stats.segments_pruned, 1);
        assert_eq!(out.stats.bytes_read, block(0, "ts") + block(0, "fare"));

        // with pushdown off the same answers come from full decodes
        e.config.enable_pushdown = false;
        let all: u64 = files.iter().flat_map(|f| f.entries()).map(|c| c.len).sum();
        let out = e
            .query("SELECT fare FROM hive.trips WHERE ts < 10 ORDER BY fare DESC")
            .unwrap();
        assert_eq!(out.rows.len(), 10);
        assert_eq!((out.stats.segments_pruned, out.stats.bytes_read), (0, all));
    }

    #[test]
    fn a_column_filtered_and_projected_decodes_once() {
        use crate::connector::HiveConnector;
        use rtdi_storage::hive::HiveCatalog;
        use rtdi_storage::object::InMemoryStore;

        let catalog = HiveCatalog::new(Arc::new(InMemoryStore::new()));
        let schema = Schema::of(
            "trips",
            &[
                ("city", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        );
        let table = catalog.create_table("trips", schema).unwrap();
        let rows: Vec<Row> = (0..1000i64)
            .map(|i| {
                Row::new()
                    .with("city", format!("c{}", i % 7))
                    .with("fare", i as f64 * 0.5 + 0.25)
                    .with("ts", i)
            })
            .collect();
        catalog.write_rows("trips", "d000000", &rows).unwrap();
        let file = table.open_parts(|_| true).unwrap().remove(0);
        let block = |column: &str| file.entry(column).unwrap().len;
        assert_eq!((block("city"), block("fare")), (556, 8130));
        let mut e = SqlEngine::new(EngineConfig::default());
        e.register_connector("hive", Arc::new(HiveConnector::new(catalog)));

        // the predicate decodes `city`, and its rows are built from that
        // decode: the block is read, and counted, once
        let out = e
            .query("SELECT city FROM hive.trips WHERE city = 'c3'")
            .unwrap();
        assert_eq!(out.rows.len(), 143);
        assert_eq!(out.stats.bytes_read, 556);
        // a projected column the predicate did not touch decodes for the rows
        let out = e
            .query("SELECT fare FROM hive.trips WHERE city = 'c3'")
            .unwrap();
        assert_eq!(out.rows.len(), 143);
        assert_eq!(out.stats.bytes_read, 556 + 8130);
    }

    #[test]
    fn deadline_propagates_from_sql_to_scan() {
        use crate::connector::PinotConnector;
        use rtdi_common::{FieldType, Schema, SimClock};
        use rtdi_olap::table::{OlapTable, TableConfig};

        let schema = Schema::of(
            "trips",
            &[("city", FieldType::Str), ("fare", FieldType::Double)],
        );
        let table = OlapTable::new(
            TableConfig::new("trips", schema)
                .with_partitions(1)
                .with_segment_rows(50),
        )
        .unwrap();
        for i in 0..200 {
            table
                .ingest(
                    0,
                    Row::new()
                        .with("city", ["sf", "la"][i % 2])
                        .with("fare", i as f64),
                )
                .unwrap();
        }
        let pinot = PinotConnector::new();
        pinot.register(table);
        let mut e = SqlEngine::new(EngineConfig::default());
        e.register_connector("pinot", Arc::new(pinot));

        let clock = Arc::new(SimClock::new(0));
        let sql = "SELECT COUNT(*) AS n FROM trips";
        // a live budget serves everything
        let out = e
            .query_with(
                sql,
                Some(Deadline::within_ms(clock.clone(), 1_000)),
                Priority::Interactive,
            )
            .unwrap();
        assert!(!out.stats.deadline_exceeded);
        assert_eq!(out.rows[0].get_int("n"), Some(200));
        // an already-spent budget is a hard deadline error, not a silent
        // empty answer
        clock.advance(2_000);
        let err = e
            .query_with(
                sql,
                Some(Deadline::within_ms(clock.clone(), 0)),
                Priority::Interactive,
            )
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err:?}");
    }

    #[test]
    fn query_stats_surface_pipeline_staleness() {
        use rtdi_common::{Record, SimClock};

        let clock = Arc::new(SimClock::new(0));
        let tracer = PipelineTracer::new();
        let e = engine().with_freshness(tracer.clone(), "orders", clock.clone());

        // no data traced yet: staleness is unknown, not zero
        let out = e.query("SELECT COUNT(*) AS n FROM orders").unwrap();
        assert_eq!(out.stats.staleness_ms, None);

        // a record lands at t=100; at t=5100 queries see 5s of lag
        clock.advance(100);
        let mut rec = Record::new(Row::new().with("i", 1i64), 100);
        PipelineTracer::stamp(&mut rec, 100);
        tracer.stage("orders", "ingest").observe_hop(&mut rec, 100);
        clock.advance(5_000);
        let out = e.query("SELECT COUNT(*) AS n FROM orders").unwrap();
        assert_eq!(out.stats.staleness_ms, Some(5_000));
    }

    #[test]
    fn explain_renders_plan() {
        let e = engine();
        let text = e
            .explain("SELECT city FROM orders WHERE total > 5")
            .unwrap();
        assert!(text.contains("Scan mem.orders"));
    }

    #[test]
    fn select_star() {
        let e = engine();
        let out = e.query("SELECT * FROM restaurants LIMIT 4").unwrap();
        assert_eq!(out.rows.len(), 4);
        assert!(out.rows[0].get("cuisine").is_some());
        assert!(out.rows[0].get("id").is_some());
    }
}
