//! SQL -> dataflow compilation.

use rtdi_common::{row_names, AggFn, Error, Positions, Result, Row, SetColumn, Timestamp, Value};
use rtdi_compute::operator::{FilterOp, MapOp, Operator, WindowAggregateOp};
use rtdi_compute::runtime::Job;
use rtdi_compute::sink::Sink;
use rtdi_compute::source::{HiveSource, Source, TopicSource};
use rtdi_compute::window::{WindowAssigner, WINDOW_START_COL};
use rtdi_sql::ast::{AggName, Expr, SelectStmt, TableRef};
use rtdi_sql::expr::{eval, truthy};
use rtdi_sql::parser::parse_select;
use rtdi_sql::plan::{plan_select, AggItem, Plan};
use rtdi_storage::hive::HiveTable;
use rtdi_stream::consumer::TopicSubscription;
use std::sync::Arc;

/// Compilation knobs.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Watermark bound for the generated job.
    pub max_out_of_orderness: i64,
    /// Allowed lateness of windows.
    pub allowed_lateness: i64,
    /// Bounded streaming source (read-to-current-end) vs unbounded.
    pub bounded: bool,
    /// Parallelism of keyed (window-aggregate) stages; the staged runtime
    /// expands them into router + N shards + merge. Settable per query
    /// with a leading `/*+ PARALLELISM(n) */` hint.
    pub parallelism: usize,
    /// When set, keys hotter than this observed count are salted across
    /// all shards with two-phase (partial + combine) aggregation.
    /// Settable per query with `/*+ SALT_HOT_KEYS(threshold) */`.
    pub hot_key_threshold: Option<u64>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            max_out_of_orderness: 1_000,
            allowed_lateness: 0,
            bounded: true,
            parallelism: 1,
            hot_key_threshold: None,
        }
    }
}

/// Parse an optional leading `/*+ HINT(arg), HINT(arg) */` block — the
/// FlinkSQL-style per-query override syntax — returning the SQL with the
/// block stripped and the options it overrides. Supported hints:
/// `PARALLELISM(n)` and `SALT_HOT_KEYS(threshold)`.
fn apply_hints(sql: &str, options: &CompileOptions) -> Result<(String, CompileOptions)> {
    let mut opts = options.clone();
    let trimmed = sql.trim_start();
    let Some(rest) = trimmed.strip_prefix("/*+") else {
        return Ok((sql.to_string(), opts));
    };
    let Some(end) = rest.find("*/") else {
        return Err(Error::Sql("unterminated /*+ ... */ hint block".into()));
    };
    for hint in rest[..end].split(',') {
        let hint = hint.trim();
        if hint.is_empty() {
            continue;
        }
        let (name, arg) = hint
            .split_once('(')
            .and_then(|(n, a)| a.strip_suffix(')').map(|a| (n.trim(), a.trim())))
            .ok_or_else(|| Error::Sql(format!("malformed hint '{hint}', expected NAME(arg)")))?;
        if name.eq_ignore_ascii_case("PARALLELISM") {
            opts.parallelism = arg
                .parse::<usize>()
                .ok()
                .filter(|p| *p > 0)
                .ok_or_else(|| {
                    Error::Sql(format!("PARALLELISM takes a positive integer, got '{arg}'"))
                })?;
        } else if name.eq_ignore_ascii_case("SALT_HOT_KEYS") {
            let t = arg.parse::<u64>().ok().filter(|t| *t > 0).ok_or_else(|| {
                Error::Sql(format!("SALT_HOT_KEYS takes a positive count, got '{arg}'"))
            })?;
            opts.hot_key_threshold = Some(t);
        } else {
            return Err(Error::Sql(format!("unknown query hint '{name}'")));
        }
    }
    Ok((rest[end + 2..].to_string(), opts))
}

/// Compile a SQL statement into a streaming job over a topic
/// ("DataStream mode"), read through its subscription: a job compiled
/// after a migration reads the topic where it moved.
pub fn compile_streaming(
    name: &str,
    sql: &str,
    topic: impl Into<TopicSubscription>,
    sink: Box<dyn Sink>,
    options: &CompileOptions,
) -> Result<Job> {
    // the log's records are shared as they are: nothing to project
    let source = |_: Option<&[String]>| -> Result<Box<dyn Source>> {
        Ok(if options.bounded {
            Box::new(TopicSource::bounded(topic)?)
        } else {
            Box::new(TopicSource::unbounded(topic))
        })
    };
    compile(name, sql, source, sink, options)
}

/// Compile the same SQL into a batch job over the archive
/// ("DataSet mode", the §7 SQL-based backfill). `from`/`to` bound the
/// replayed event-time range. The source decodes only the columns the
/// statement names (all of them for `SELECT *`): its records' rows carry
/// no other cell, and event time comes from `__ts` either way.
pub fn compile_batch(
    name: &str,
    sql: &str,
    table: &HiveTable,
    from: Timestamp,
    to: Timestamp,
    sink: Box<dyn Sink>,
    options: &CompileOptions,
) -> Result<Job> {
    let source = |select: Option<&[String]>| -> Result<Box<dyn Source>> {
        Ok(Box::new(HiveSource::new(table, from, to, 4096, select)?))
    };
    // archived data is out of order: widen the buffer (§7)
    let mut options = options.clone();
    options.max_out_of_orderness = options.max_out_of_orderness.max(60_000);
    compile(name, sql, source, sink, &options)
}

/// The columns `stmt` reads off its source, or `None` when it may read
/// any (`SELECT *`, a subquery or a join in FROM). Names that are not
/// source columns (an alias in HAVING) are harmless: a source leaves out
/// what it does not have.
fn referenced_columns(stmt: &SelectStmt) -> Option<Vec<String>> {
    if !matches!(stmt.from, TableRef::Table { .. }) || !stmt.joins.is_empty() {
        return None;
    }
    let exprs = (stmt.projections.iter().map(|item| &item.expr))
        .chain(&stmt.where_clause)
        .chain(&stmt.group_by)
        .chain(&stmt.having)
        .chain(stmt.order_by.iter().map(|item| &item.expr));
    let mut cols = Vec::new();
    for expr in exprs {
        if matches!(expr, Expr::Star) {
            return None;
        }
        expr.referenced_columns(&mut cols);
    }
    Some(cols)
}

/// `source` is built from the columns the statement reads (see
/// [`referenced_columns`]).
fn compile(
    name: &str,
    sql: &str,
    source: impl FnOnce(Option<&[String]>) -> Result<Box<dyn Source>>,
    sink: Box<dyn Sink>,
    options: &CompileOptions,
) -> Result<Job> {
    let (sql, options) = apply_hints(sql, options)?;
    let options = &options;
    let stmt = parse_select(&sql)?;
    let plan = plan_select(&stmt)?;
    let mut operators: Vec<Box<dyn Operator>> = Vec::new();
    lower(&plan, &mut operators, options)?;
    if operators.is_empty() {
        // pure `SELECT * FROM t`: identity map keeps the job non-trivial
        operators.push(Box::new(MapOp::new("identity", |r: &Row| r.clone())));
    }
    let source = source(referenced_columns(&stmt).as_deref())?;
    Ok(Job::new(name, source, operators, sink).with_out_of_orderness(options.max_out_of_orderness))
}

/// Lower a logical plan into an operator chain (post-order: sources first).
fn lower(plan: &Plan, out: &mut Vec<Box<dyn Operator>>, options: &CompileOptions) -> Result<()> {
    match plan {
        Plan::Scan { .. } => Ok(()), // the source is provided externally
        Plan::Filter { input, predicate } => {
            lower(input, out, options)?;
            let pred = predicate.clone();
            out.push(Box::new(FilterOp::new("where", move |row: &Row| {
                eval(&pred, row).map(|v| truthy(&v)).unwrap_or(false)
            })));
            Ok(())
        }
        Plan::Project { input, items } => {
            lower(input, out, options)?;
            // one name list for the output; a bare column is copied from
            // its position, resolved once per input row shape
            let names = row_names(items.iter().map(|(name, _)| name.as_str()));
            let exprs: Vec<Expr> = items.iter().map(|(_, expr)| expr.clone()).collect();
            let columns: Vec<String> = (exprs.iter())
                .map(|expr| match expr {
                    Expr::Column {
                        qualifier: None,
                        name,
                    } => name.clone(),
                    // evaluated, never read by position
                    _ => String::new(),
                })
                .collect();
            let mut at = Positions::default();
            out.push(Box::new(MapOp::new("project", move |row: &Row| {
                let at = at.of(row, &columns);
                let cells = (exprs.iter().zip(at))
                    .map(|(expr, at)| match expr {
                        Expr::Column {
                            qualifier: None, ..
                        } => at.map_or(Value::Null, |at| row.cells()[at].clone()),
                        _ => eval(expr, row).unwrap_or(Value::Null),
                    })
                    .collect();
                Row::on(Arc::clone(&names), cells)
            })));
            Ok(())
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            lower(input, out, options)?;
            // locate the TUMBLE group expression
            let mut window: Option<(String, i64)> = None; // (output name, size)
            let mut key_cols: Vec<String> = Vec::new();
            for (name, expr) in group_by {
                match expr {
                    Expr::Function { name: f, args } if f.eq_ignore_ascii_case("TUMBLE") => {
                        if window.is_some() {
                            return Err(Error::Sql("multiple TUMBLE windows".into()));
                        }
                        if args.len() != 2 {
                            return Err(Error::Sql("TUMBLE(ts, size_ms) takes 2 args".into()));
                        }
                        let size = match &args[1] {
                            Expr::Literal(v) => v.as_int().filter(|s| *s > 0).ok_or_else(|| {
                                Error::Sql("TUMBLE size must be a positive literal".into())
                            })?,
                            _ => return Err(Error::Sql("TUMBLE size must be a literal".into())),
                        };
                        window = Some((name.clone(), size));
                    }
                    Expr::Column { name: col, .. } => key_cols.push(col.clone()),
                    other => {
                        return Err(Error::Sql(format!(
                            "unsupported group expression in streaming SQL: {other:?}"
                        )))
                    }
                }
            }
            let (win_name, size) = window.ok_or_else(|| {
                Error::Sql(
                    "streaming GROUP BY requires a TUMBLE(ts, size) window \
                     (unbounded grouping has no emission point)"
                        .into(),
                )
            })?;
            let agg_fns = aggs
                .iter()
                .map(agg_to_fn)
                .collect::<Result<Vec<(String, AggFn)>>>()?;
            let mut agg_op = WindowAggregateOp::new(
                "window-agg",
                key_cols,
                WindowAssigner::tumbling(size),
                agg_fns,
                options.allowed_lateness,
            );
            if options.parallelism > 1 {
                agg_op = agg_op.with_parallelism(options.parallelism);
            }
            if let Some(t) = options.hot_key_threshold {
                agg_op = agg_op.with_hot_key_salting(t);
            }
            out.push(Box::new(agg_op));
            // expose the window under the group output name
            if win_name != "window_start" {
                let mut start = Positions::default();
                let mut alias = SetColumn::new(win_name);
                out.push(Box::new(MapOp::new(
                    "window-alias",
                    move |row: &Row| match start.of(row, &[WINDOW_START_COL])[0] {
                        Some(at) => alias.apply(row, row.cells()[at].clone()),
                        None => row.clone(),
                    },
                )));
            }
            Ok(())
        }
        Plan::Join { .. } => Err(Error::Sql(
            "stream-stream joins are expressed via the low-level API \
             (WindowJoinOp), not FlinkSQL"
                .into(),
        )),
        Plan::Sort { .. } | Plan::Limit { .. } => Err(Error::Sql(
            "ORDER BY / LIMIT are not defined on unbounded streams".into(),
        )),
    }
}

fn agg_to_fn(item: &AggItem) -> Result<(String, AggFn)> {
    let col = match &item.arg {
        None => None,
        Some(Expr::Column { name, .. }) => Some(name.clone()),
        Some(other) => {
            return Err(Error::Sql(format!(
                "aggregate argument must be a column in streaming SQL, got {other:?}"
            )))
        }
    };
    let f = match (item.func, item.distinct, col) {
        (AggName::Count, false, _) => AggFn::Count,
        (AggName::Count, true, Some(c)) => AggFn::DistinctCount(c),
        (AggName::Sum, _, Some(c)) => AggFn::Sum(c),
        (AggName::Avg, _, Some(c)) => AggFn::Avg(c),
        (AggName::Min, _, Some(c)) => AggFn::Min(c),
        (AggName::Max, _, Some(c)) => AggFn::Max(c),
        (f, d, c) => {
            return Err(Error::Sql(format!(
                "unsupported aggregate {f:?} (distinct={d}, col={c:?})"
            )))
        }
    };
    Ok((item.name.clone(), f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Record;
    use rtdi_compute::runtime::{run_staged_with, StagedConfig};
    use rtdi_compute::sink::CollectSink;
    use rtdi_storage::hive::HiveCatalog;
    use rtdi_storage::object::InMemoryStore;
    use rtdi_stream::topic::{Topic, TopicConfig};

    fn trips_topic(n: usize) -> Arc<Topic> {
        let t = Arc::new(Topic::new("trips", TopicConfig::default().with_partitions(2)).unwrap());
        for i in 0..n {
            t.append(
                Record::new(
                    Row::new()
                        .with("city", ["sf", "la"][i % 2])
                        .with("fare", 10.0 + (i % 5) as f64)
                        .with("ts", (i as i64) * 100),
                    (i as i64) * 100,
                )
                .with_key(format!("k{i}")),
                0,
            )
            .unwrap();
        }
        t
    }

    fn run(job: Job) {
        run_staged_with(job, &StagedConfig::default()).unwrap();
    }

    #[test]
    fn windowed_aggregation_sql_compiles_and_runs() {
        let topic = trips_topic(100);
        let sink = CollectSink::new();
        let job = compile_streaming(
            "surge-sql",
            "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips, AVG(fare) AS avg_fare \
             FROM trips GROUP BY city, TUMBLE(ts, 1000)",
            topic,
            Box::new(sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        run(job);
        let rows = sink.rows();
        // 100 records at 100ms = 10s -> 10 windows x 2 cities
        assert_eq!(rows.len(), 20);
        let total: i64 = rows.iter().map(|r| r.get_int("trips").unwrap()).sum();
        assert_eq!(total, 100);
        // projection produced exactly the requested columns
        let names: Vec<&str> = rows[0].column_names().collect();
        assert_eq!(names, vec!["city", "w", "trips", "avg_fare"]);
        // window alias carries the window start
        assert!(rows.iter().any(|r| r.get_int("w") == Some(0)));
    }

    #[test]
    fn where_filter_applies_before_windowing() {
        let topic = trips_topic(100);
        let sink = CollectSink::new();
        let job = compile_streaming(
            "filtered",
            "SELECT TUMBLE(ts, 10000) AS w, COUNT(*) AS n FROM trips \
             WHERE city = 'sf' GROUP BY TUMBLE(ts, 10000)",
            topic,
            Box::new(sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        run(job);
        let total: i64 = sink.rows().iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn stateless_projection_sql() {
        let topic = trips_topic(10);
        let sink = CollectSink::new();
        let job = compile_streaming(
            "proj",
            "SELECT city, fare * 2 AS double_fare FROM trips WHERE fare >= 12",
            topic,
            Box::new(sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        // the runtime chains the compiled WHERE and projection
        let stats = run_staged_with(job, &StagedConfig::default()).unwrap();
        let stages: Vec<&str> = stats.stages.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(stages, ["fused[where->project]"]);
        let rows = sink.rows();
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .all(|r| r.get_double("double_fare").unwrap() >= 24.0));
    }

    #[test]
    fn having_becomes_post_window_filter() {
        let topic = trips_topic(100);
        let sink = CollectSink::new();
        let job = compile_streaming(
            "having",
            "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS n FROM trips \
             GROUP BY city, TUMBLE(ts, 1000) HAVING COUNT(*) > 4",
            topic,
            Box::new(sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        run(job);
        // each (city, window) holds 5 records -> all pass > 4; sanity only
        assert!(sink.rows().iter().all(|r| r.get_int("n").unwrap() > 4));
        assert_eq!(sink.rows().len(), 20);
    }

    #[test]
    fn parallelism_hint_shards_the_aggregate_with_identical_output() {
        use rtdi_compute::runtime::{run_staged_with, StagedConfig};
        const SQL: &str = "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips, \
             AVG(fare) AS avg_fare FROM trips GROUP BY city, TUMBLE(ts, 1000)";

        let serial_sink = CollectSink::new();
        let job = compile_streaming(
            "serial",
            SQL,
            trips_topic(400),
            Box::new(serial_sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        run_staged_with(job, &StagedConfig::batched(16, 32)).unwrap();

        // the hint block widens the aggregate and salts hot keys, with
        // byte-identical results
        let hinted = format!("/*+ PARALLELISM(4), SALT_HOT_KEYS(64) */ {SQL}");
        let sink = CollectSink::new();
        let job = compile_streaming(
            "hinted",
            &hinted,
            trips_topic(400),
            Box::new(sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        let stats = run_staged_with(job, &StagedConfig::batched(16, 32)).unwrap();
        assert!(
            stats.stages.iter().any(|s| s.stage == "window-agg[x4]"),
            "sharded stage missing: {:?}",
            stats.stages.iter().map(|s| &s.stage).collect::<Vec<_>>()
        );
        assert!(
            stats.stages.iter().any(|s| s.stage.contains("combine")),
            "salting adds a combine stage"
        );
        assert_eq!(sink.records(), serial_sink.records());
    }

    #[test]
    fn malformed_hints_are_rejected() {
        let topic = trips_topic(1);
        let opts = CompileOptions::default();
        let mk = |sql: &str| {
            compile_streaming("x", sql, topic.clone(), Box::new(CollectSink::new()), &opts)
        };
        let base = "SELECT city FROM trips";
        assert!(mk(&format!("/*+ PARALLELISM(0) */ {base}")).is_err());
        assert!(mk(&format!("/*+ PARALLELISM(abc) */ {base}")).is_err());
        assert!(mk(&format!("/*+ SALT_HOT_KEYS(0) */ {base}")).is_err());
        assert!(mk(&format!("/*+ UNKNOWN_HINT(3) */ {base}")).is_err());
        assert!(
            mk(&format!("/*+ PARALLELISM(2) {base}")).is_err(),
            "unterminated"
        );
        // a well-formed hint on a stateless query is harmless
        assert!(mk(&format!("/*+ PARALLELISM(2) */ {base}")).is_ok());
    }

    #[test]
    fn unsupported_features_rejected_with_clear_errors() {
        let topic = trips_topic(1);
        let opts = CompileOptions::default();
        let mk = |sql: &str| {
            compile_streaming("x", sql, topic.clone(), Box::new(CollectSink::new()), &opts)
        };
        // unbounded group by
        assert!(mk("SELECT city, COUNT(*) FROM trips GROUP BY city").is_err());
        // order by / limit
        assert!(mk("SELECT city FROM trips ORDER BY city").is_err());
        assert!(mk("SELECT city FROM trips LIMIT 5").is_err());
        // join
        assert!(mk("SELECT a.city FROM trips a JOIN trips b ON a.ts = b.ts").is_err());
        // non-literal window size
        assert!(mk("SELECT COUNT(*) FROM trips GROUP BY TUMBLE(ts, fare)").is_err());
        // two windows
        assert!(mk("SELECT COUNT(*) FROM trips GROUP BY TUMBLE(ts, 10), TUMBLE(ts, 20)").is_err());
    }

    #[test]
    fn batch_mode_matches_streaming_mode() {
        // §7: "execute the same SQL query on both real-time (Kafka) and
        // offline datasets (Hive)"
        let sql = "SELECT city, TUMBLE(ts, 1000) AS w, SUM(fare) AS revenue \
                   FROM trips GROUP BY city, TUMBLE(ts, 1000)";
        // streaming run
        let topic = trips_topic(100);
        let stream_sink = CollectSink::new();
        let sjob = compile_streaming(
            "s",
            sql,
            topic,
            Box::new(stream_sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        run(sjob);

        // archive the same data, then batch run
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store);
        let schema = rtdi_common::Schema::of(
            "trips",
            &[
                ("city", rtdi_common::FieldType::Str),
                ("fare", rtdi_common::FieldType::Double),
                ("ts", rtdi_common::FieldType::Timestamp),
                ("__ts", rtdi_common::FieldType::Timestamp),
            ],
        );
        let table = catalog.create_table("trips", schema).unwrap();
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                Row::new()
                    .with("city", ["sf", "la"][i % 2])
                    .with("fare", 10.0 + (i % 5) as f64)
                    .with("ts", (i as i64) * 100)
                    .with("__ts", (i as i64) * 100)
            })
            .collect();
        catalog.write_rows("trips", "d000000", &rows).unwrap();
        let batch_sink = CollectSink::new();
        let bjob = compile_batch(
            "b",
            sql,
            &table,
            0,
            i64::MAX,
            Box::new(batch_sink.clone()),
            &CompileOptions::default(),
        )
        .unwrap();
        run(bjob);

        let canon = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| {
                (
                    r.get_str("city").unwrap().to_string(),
                    r.get_int("w").unwrap(),
                )
            });
            rows.into_iter()
                .map(|r| {
                    (
                        r.get_str("city").unwrap().to_string(),
                        r.get_int("w").unwrap(),
                        r.get_double("revenue").unwrap(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(canon(stream_sink.rows()), canon(batch_sink.rows()));
    }
}
