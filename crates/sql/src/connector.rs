//! The Connector API and the Pinot / Hive connectors (§4.5).
//!
//! "Presto ... provides a Connector API with high performance I/O
//! interface to multiple data sources... we enhanced Presto's query
//! planner and extended Presto Connector API to push as many operators
//! down to the Pinot layer as possible, such as projection, aggregation
//! and limit."

use crate::catalog::HybridTable;
use rtdi_common::{AggFn, Deadline, Error, FieldType, Priority, Result, Row, Schema, Value};
use rtdi_olap::query::{PartialAgg, Predicate, Query as OlapQuery, ScanLedger, SortOrder};
use rtdi_olap::segment::LazySegment;
use rtdi_olap::table::OlapTable;
use rtdi_storage::bitmap::Bitmap;
use rtdi_storage::hive::HiveCatalog;
use std::collections::HashMap;
use std::sync::Arc;

/// A fully-pushable aggregation.
///
/// Shape vectors are `Arc`-shared: the optimizer builds them once and
/// every scan hands them to the OLAP [`Query`](OlapQuery) as a refcount
/// bump instead of a deep clone (repeated dashboard queries used to
/// re-clone the whole pushdown per scan).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PushedAgg {
    pub group_by: Arc<Vec<String>>,
    /// (output name, function over a bare column)
    pub aggs: Arc<Vec<(String, AggFn)>>,
}

/// What the planner asks a connector to apply during the scan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Pushdown {
    pub predicates: Arc<Vec<Predicate>>,
    pub projection: Option<Arc<Vec<String>>>,
    pub aggregation: Option<PushedAgg>,
    /// (column, desc) — only honored together with `limit`.
    pub order_by: Vec<(String, bool)>,
    pub limit: Option<usize>,
    /// Partition-pruned scatter: partition ids derived by the optimizer
    /// from equality predicates on the table's partition column.
    pub partitions: Option<Arc<Vec<usize>>>,
    /// End-to-end deadline propagated from the engine: connectors shed
    /// work they cannot finish in budget instead of serving stale answers
    /// late (degraded-serving, not an error).
    pub deadline: Option<Deadline>,
    /// Scheduling lane: backfill scans are the first to be shed and run
    /// at reduced parallelism.
    pub priority: Priority,
}

/// What a connector can apply server-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Capabilities {
    pub filters: bool,
    pub projection: bool,
    pub aggregation: bool,
    pub limit: bool,
}

/// One part file's share of a columnar scan: the file, opened, with the
/// pushed predicates already evaluated. Columns decode when the engine
/// folds them or asks for rows, and live no longer than the query.
#[derive(Clone)]
pub struct ColumnView {
    segment: Arc<LazySegment>,
    /// The documents that passed the pushed predicates.
    docs: Bitmap,
    /// The pushed projection: the columns a row is built from.
    projection: Option<Arc<Vec<String>>>,
}

impl std::fmt::Debug for ColumnView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kept, of) = (self.docs.count(), self.segment.doc_count());
        write!(
            f,
            "ColumnView({}: {kept} of {of} docs)",
            self.segment.name()
        )
    }
}

impl ColumnView {
    /// Rows of the surviving documents, of the projected columns only,
    /// through the file's typed row reader; and the column bytes that
    /// decoded for them (a column the scan's predicates decoded is not
    /// decoded, nor counted, again).
    fn rows(&self) -> Result<(Vec<Row>, u64)> {
        let file = self.segment.file();
        let select = self.projection.as_ref().map(|p| p.as_slice());
        let mut docs = Vec::new();
        self.docs.collect_into(&mut docs);
        let before = file.bytes_loaded();
        let rows = file.read_rows_where(select, Some(&docs))?;
        Ok((rows, (file.bytes_loaded() - before) as u64))
    }
}

/// Is `column` a field of `schema` of one of `types`?
fn is_of(schema: &Schema, column: &str, types: &[FieldType]) -> bool {
    schema
        .field(column)
        .is_some_and(|f| types.contains(&f.field_type))
}

/// Scan result plus execution statistics (for the pushdown experiments).
#[derive(Debug, Clone, Default)]
pub struct ScanOutput {
    /// What a row-shipping connector returns. Read a scan's rows through
    /// [`ScanOutput::take_rows`]: a columnar scan leaves this empty.
    pub rows: Vec<Row>,
    /// What a columnar scan (the warehouse) ships in place of rows.
    pub views: Vec<ColumnView>,
    /// Rows shipped from the connector to the engine.
    pub rows_shipped: u64,
    /// What the backing store's scan covered and cost: documents touched,
    /// segments consulted, pruned (time boundary, partition, zone map),
    /// unreachable or shed on an expired deadline. `ledger.partial()` is
    /// Pinot's partial-response flag: `rows` cover only what was served.
    pub ledger: ScanLedger,
    /// Cold bytes decoded from archival segment files for this scan
    /// (0 when every touched column was already resident or cached).
    pub bytes_read: u64,
    /// True when the scan was answered from a federation result cache.
    pub cache_hit: bool,
}

impl ScanOutput {
    /// The scan's rows, for an operator that takes rows: built from the
    /// projected columns of the shipped views when the scan was columnar.
    pub fn take_rows(&mut self) -> Result<Vec<Row>> {
        let mut rows = std::mem::take(&mut self.rows);
        for view in std::mem::take(&mut self.views) {
            let (mut part, decoded) = view.rows()?;
            rows.append(&mut part);
            self.bytes_read += decoded;
        }
        Ok(rows)
    }

    /// Fold a grouped aggregate over the shipped views with the segment
    /// kernels (`execute_partial` per file, merged, finalized). `None`,
    /// with nothing consumed, when the scan shipped rows, or when a column
    /// the aggregate touches is JSON, which the kernels hold as text, or
    /// bytes, whose group keys they render as text.
    pub fn fold(&mut self, agg: &PushedAgg) -> Result<Option<Vec<Row>>> {
        let inputs = agg.aggs.iter().filter_map(|(_, f)| f.input_column());
        let mut touched = agg.group_by.iter().map(String::as_str).chain(inputs);
        let as_text = |c| {
            let mut schemas = self.views.iter().map(|v| v.segment.schema());
            schemas.any(|s| is_of(s, c, &[FieldType::Json, FieldType::Bytes]))
        };
        if self.views.is_empty() || touched.any(as_text) {
            return Ok(None);
        }
        let views = std::mem::take(&mut self.views);
        let schema = views[0].segment.schema();
        let mut q = OlapQuery::select_all(schema.name.as_str());
        q.aggregations = Arc::clone(&agg.aggs);
        q.group_by = Arc::clone(&agg.group_by);
        let mut merged = PartialAgg::default();
        for view in &views {
            let before = view.segment.bytes_loaded();
            merged.merge(view.segment.execute_partial(&q, Some(&view.docs))?);
            self.bytes_read += (view.segment.bytes_loaded() - before) as u64;
        }
        let mut rows = merged.finalize(&q);
        restore_group_key_types(&mut rows, &agg.group_by, schema);
        Ok(Some(rows))
    }
}

/// A data source exposed to the SQL engine.
pub trait Connector: Send + Sync {
    fn capabilities(&self) -> Capabilities;
    fn table_schema(&self, table: &str) -> Result<Schema>;
    /// Scan a table applying the (capability-compatible) pushdown.
    fn scan(&self, table: &str, pushdown: &Pushdown) -> Result<ScanOutput>;
    fn table_names(&self) -> Vec<String>;
    /// `(column, partition count)` when the table partitions rows by
    /// `hash(column) % count` on every side — lets the optimizer derive a
    /// partition-pruned scatter from an equality predicate.
    fn partition_spec(&self, table: &str) -> Option<(String, usize)> {
        let _ = table;
        None
    }
}

/// How the Pinot connector reaches a table's segments.
#[derive(Clone)]
enum PinotSource {
    /// In-process hybrid table (no server fan-out).
    Direct(Arc<OlapTable>),
    /// Federated hybrid table: realtime side + archival segments, split
    /// at the time boundary by [`HybridTable`].
    Hybrid(Arc<HybridTable>),
}

/// Connector over the real-time OLAP store. Tables can be registered
/// after the connector is shared with the engine (`register` takes
/// `&self`), matching how new Pinot tables appear to Presto without a
/// restart.
pub struct PinotConnector {
    tables: parking_lot::RwLock<HashMap<String, PinotSource>>,
}

impl PinotConnector {
    pub fn new() -> Self {
        PinotConnector {
            tables: parking_lot::RwLock::new(HashMap::new()),
        }
    }

    pub fn register(&self, table: Arc<OlapTable>) {
        self.tables
            .write()
            .insert(table.name().to_string(), PinotSource::Direct(table));
    }

    /// Register a federated hybrid table: queries split at the time
    /// boundary between its realtime side and its archival segments.
    pub fn register_hybrid(&self, table: Arc<HybridTable>) {
        self.tables
            .write()
            .insert(table.name().to_string(), PinotSource::Hybrid(table));
    }

    fn table(&self, name: &str) -> Result<PinotSource> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("pinot table '{name}'")))
    }
}

impl Default for PinotConnector {
    fn default() -> Self {
        Self::new()
    }
}

impl Connector for PinotConnector {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            filters: true,
            projection: true,
            aggregation: true,
            limit: true,
        }
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(match self.table(table)? {
            PinotSource::Direct(t) => t.config().schema.clone(),
            PinotSource::Hybrid(t) => t.schema().clone(),
        })
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    fn partition_spec(&self, table: &str) -> Option<(String, usize)> {
        match self.table(table).ok()? {
            PinotSource::Hybrid(t) => t.partition_spec(),
            _ => None,
        }
    }

    fn scan(&self, table: &str, pushdown: &Pushdown) -> Result<ScanOutput> {
        let source = self.table(table)?;
        let q = pushdown_query(table, pushdown);
        let (mut result, schema) = match &source {
            PinotSource::Direct(t) => (t.query(&q)?, t.config().schema.clone()),
            // the hybrid table runs its own two-sided plan over the raw
            // pushdown (it must split the time predicate itself)
            PinotSource::Hybrid(t) => return t.scan(pushdown),
        };
        if let Some(agg) = &pushdown.aggregation {
            restore_group_key_types(&mut result.rows, &agg.group_by, &schema);
        }
        Ok(ScanOutput {
            rows_shipped: result.rows.len() as u64,
            rows: result.rows,
            ledger: result.ledger,
            ..Default::default()
        })
    }
}

/// Build the OLAP query a pushdown describes. The shape vectors are
/// shared with the pushdown via `Arc`, so repeated scans of the same
/// plan allocate no per-scan copies. Shared by the direct Pinot scan and
/// the hybrid federation planner.
pub(crate) fn pushdown_query(table: &str, pushdown: &Pushdown) -> OlapQuery {
    let mut q = OlapQuery::select_all(table);
    q.predicates = Arc::clone(&pushdown.predicates);
    q.partitions = pushdown.partitions.as_ref().map(Arc::clone);
    q.deadline = pushdown.deadline.clone();
    q.priority = pushdown.priority;
    if let Some(agg) = &pushdown.aggregation {
        q.aggregations = Arc::clone(&agg.aggs);
        q.group_by = Arc::clone(&agg.group_by);
    } else if let Some(proj) = &pushdown.projection {
        q.select = Arc::clone(proj);
    }
    if pushdown.limit.is_some() {
        for (col, desc) in &pushdown.order_by {
            q = q.order(
                col.clone(),
                if *desc {
                    SortOrder::Desc
                } else {
                    SortOrder::Asc
                },
            );
        }
        // LIMIT without ORDER BY is only pushable for selections; for
        // aggregations the engine applies it post-merge (already merged
        // here, so applying is safe either way)
        q.limit = pushdown.limit;
    }
    q
}

/// The OLAP store renders non-null group keys as strings (NULL keys
/// arrive as real `Value::Null`); restore the schema types so pushed and
/// unpushed plans produce identical rows. A key is rewritten where it lies
/// — group columns lead a row, in `group_by` order — and a key whose
/// field is text is not touched at all.
pub(crate) fn restore_group_key_types(rows: &mut [Row], group_by: &[String], schema: &Schema) {
    for (at, col) in group_by.iter().enumerate() {
        let parse: fn(&str) -> Option<Value> = match schema.field(col).map(|f| f.field_type) {
            Some(FieldType::Int | FieldType::Timestamp) => |s| s.parse().ok().map(Value::Int),
            Some(FieldType::Double) => |s| s.parse().ok().map(Value::Double),
            Some(FieldType::Bool) => |s| s.parse().ok().map(Value::Bool),
            _ => continue,
        };
        for row in rows.iter_mut() {
            let at = match row.at(at) {
                Some((name, _)) if name == col => Some(at),
                _ => row.position(col),
            };
            let Some((_, cell)) = at.and_then(|at| row.at_mut(at)) else {
                continue;
            };
            if let Some(typed) = cell.as_str().and_then(parse) {
                *cell = typed;
            }
        }
    }
}

/// Connector over the warehouse. It takes filters and a projection into
/// the scan — part files are skipped on their zone maps, only the touched
/// columns decode, the predicates run on the column kernels — and ships
/// the surviving documents as column views. Aggregation and limit stay
/// with the engine: the warehouse ships rows where Pinot ships answers
/// (the paper's point — "sub-second query latencies ... is not possible to
/// do on standard backends such as HDFS/Hive").
pub struct HiveConnector {
    catalog: HiveCatalog,
}

impl HiveConnector {
    pub fn new(catalog: HiveCatalog) -> Self {
        HiveConnector { catalog }
    }
}

/// The pushed predicates as the column kernels must see them. By row
/// semantics a JSON cell outranks every literal the optimizer pushes,
/// whatever its content; the kernels, holding the column as text, would
/// compare a string literal with it. An integer literal gives them the row
/// outcome: a string column outranks it the same way.
fn kernel_predicates(predicates: &[Predicate], schema: &Schema) -> Vec<Predicate> {
    let mut out = predicates.to_vec();
    for p in &mut out {
        if is_of(schema, &p.column, &[FieldType::Json]) && matches!(p.value, Value::Str(_)) {
            p.value = Value::Int(0);
        }
    }
    out
}

impl Connector for HiveConnector {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            filters: true,
            projection: true,
            aggregation: false,
            limit: false,
        }
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(self.catalog.table(table)?.schema())
    }

    fn table_names(&self) -> Vec<String> {
        self.catalog.table_names()
    }

    fn scan(&self, table: &str, pushdown: &Pushdown) -> Result<ScanOutput> {
        if pushdown.aggregation.is_some() || pushdown.limit.is_some() {
            return Err(Error::Internal(
                "planner pushed an aggregation or a limit into the warehouse".into(),
            ));
        }
        let mut out = ScanOutput::default();
        for file in self.catalog.table(table)?.open_parts(|_| true)? {
            let segment = LazySegment::from_file(file);
            let n = segment.doc_count();
            let (docs, scanned) = if pushdown.predicates.is_empty() {
                (Bitmap::full(n), 0)
            } else {
                let mut q = OlapQuery::select_all(table);
                q.predicates = Arc::new(kernel_predicates(&pushdown.predicates, segment.schema()));
                // a column the file lacks reads NULL, which matches nothing
                let known = |p: &Predicate| segment.schema().field(&p.column).is_some();
                if !q.predicates.iter().all(known) || !segment.zones_may_match(&q) {
                    out.ledger.segments_pruned += 1;
                    continue;
                }
                let columns: Vec<String> = q.predicates.iter().map(|p| p.column.clone()).collect();
                segment.view(&columns)?.filter_docs(&q.predicates)?
            };
            let shipped = docs.count() as u64;
            out.ledger.segments_queried += 1;
            out.ledger.docs_scanned += scanned + shipped;
            // every surviving row counts as shipped, folded later or not
            out.rows_shipped += shipped;
            out.bytes_read += (segment.bytes_loaded() - segment.header_bytes()) as u64;
            if shipped > 0 {
                out.views.push(ColumnView {
                    segment: Arc::new(segment),
                    docs,
                    projection: pushdown.projection.clone(),
                });
            }
        }
        Ok(out)
    }
}

/// In-memory connector over fixed row sets (tests, examples and the
/// "inject such queries into the automation framework" path of §5.4).
#[derive(Default)]
pub struct MemoryConnector {
    tables: HashMap<String, (Schema, Vec<Row>)>,
}

impl MemoryConnector {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_table(&mut self, name: &str, schema: Schema, rows: Vec<Row>) {
        self.tables.insert(name.to_string(), (schema, rows));
    }
}

impl Connector for MemoryConnector {
    fn capabilities(&self) -> Capabilities {
        Capabilities::default()
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        self.tables
            .get(table)
            .map(|(s, _)| s.clone())
            .ok_or_else(|| Error::NotFound(format!("memory table '{table}'")))
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    fn scan(&self, table: &str, _pushdown: &Pushdown) -> Result<ScanOutput> {
        let (_, rows) = self
            .tables
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("memory table '{table}'")))?;
        let n = rows.len() as u64;
        Ok(ScanOutput {
            rows_shipped: n,
            rows: rows.clone(),
            ledger: ScanLedger {
                docs_scanned: n,
                ..Default::default()
            },
            ..Default::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::FieldType;
    use rtdi_olap::query::PredicateOp;
    use rtdi_olap::segment::IndexSpec;
    use rtdi_olap::table::TableConfig;

    fn pinot_with_data() -> PinotConnector {
        let schema = Schema::of(
            "orders",
            &[
                ("city", FieldType::Str),
                ("total", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        );
        let table = OlapTable::new(
            TableConfig::new("orders", schema)
                .with_index_spec(IndexSpec::none().with_inverted(&["city"]))
                .with_partitions(1)
                .with_segment_rows(100),
        )
        .unwrap();
        for i in 0..500 {
            table
                .ingest(
                    0,
                    Row::new()
                        .with("city", ["sf", "la"][i % 2])
                        .with("total", i as f64)
                        .with("ts", i as i64),
                )
                .unwrap();
        }
        let c = PinotConnector::new();
        c.register(table);
        c
    }

    #[test]
    fn pinot_scan_with_filter_pushdown() {
        let c = pinot_with_data();
        let pd = Pushdown {
            predicates: Arc::new(vec![Predicate::eq("city", "sf")]),
            ..Default::default()
        };
        let out = c.scan("orders", &pd).unwrap();
        assert_eq!(out.rows.len(), 250);
        assert!(out.rows.iter().all(|r| r.get_str("city") == Some("sf")));
    }

    #[test]
    fn pinot_aggregation_pushdown_ships_tiny_results() {
        let c = pinot_with_data();
        let pd = Pushdown {
            aggregation: Some(PushedAgg {
                group_by: Arc::new(vec!["city".into()]),
                aggs: Arc::new(vec![
                    ("n".into(), AggFn::Count),
                    ("rev".into(), AggFn::Sum("total".into())),
                ]),
            }),
            ..Default::default()
        };
        let out = c.scan("orders", &pd).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows_shipped, 2);
        let total: i64 = out.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn pinot_limit_and_order_pushdown() {
        let c = pinot_with_data();
        let pd = Pushdown {
            projection: Some(Arc::new(vec!["total".into()])),
            order_by: vec![("total".into(), true)],
            limit: Some(3),
            ..Default::default()
        };
        let out = c.scan("orders", &pd).unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.rows[0].get_double("total"), Some(499.0));
    }

    #[test]
    fn hive_takes_filters_and_projection_and_refuses_aggregation_and_limit() {
        use rtdi_storage::object::InMemoryStore;
        let catalog = HiveCatalog::new(Arc::new(InMemoryStore::new()));
        let schema = Schema::of("t", &[("x", FieldType::Int), ("city", FieldType::Str)]);
        catalog.create_table("t", schema).unwrap();
        let rows: Vec<Row> = (0..10i64)
            .map(|x| {
                Row::new()
                    .with("x", x)
                    .with("city", ["sf", "la"][x as usize % 2])
            })
            .collect();
        catalog.write_rows("t", "d000000", &rows).unwrap();
        let c = HiveConnector::new(catalog);
        assert_eq!(
            c.capabilities(),
            Capabilities {
                filters: true,
                projection: true,
                aggregation: false,
                limit: false,
            }
        );
        // no pushdown: every row, every column
        let mut out = c.scan("t", &Pushdown::default()).unwrap();
        assert_eq!(out.rows_shipped, 10);
        assert_eq!(out.take_rows().unwrap(), rows);
        // filter + projection: surviving rows of the projected column only
        let pd = Pushdown {
            predicates: Arc::new(vec![Predicate::new("x", PredicateOp::Ge, 6i64)]),
            projection: Some(Arc::new(vec!["city".into()])),
            ..Default::default()
        };
        let mut out = c.scan("t", &pd).unwrap();
        assert_eq!(out.rows_shipped, 4);
        let shipped = out.take_rows().unwrap();
        let expect: Vec<Row> = (6..10)
            .map(|x| Row::new().with("city", ["sf", "la"][x % 2]))
            .collect();
        assert_eq!(shipped, expect);
        // a predicate the zone map rules out skips the file undecoded
        let pd = Pushdown {
            predicates: Arc::new(vec![Predicate::new("x", PredicateOp::Gt, 100i64)]),
            ..Default::default()
        };
        let out = c.scan("t", &pd).unwrap();
        assert_eq!((out.ledger.segments_pruned, out.bytes_read), (1, 0));
        assert!(out.views.is_empty());
        // aggregation and limit are the engine's: pushing one is a planner bug
        let agg = Pushdown {
            aggregation: Some(PushedAgg {
                group_by: Arc::new(vec![]),
                aggs: Arc::new(vec![("n".into(), AggFn::Count)]),
            }),
            ..Default::default()
        };
        assert!(matches!(c.scan("t", &agg), Err(Error::Internal(_))));
        let limit = Pushdown {
            limit: Some(3),
            ..Default::default()
        };
        assert!(matches!(c.scan("t", &limit), Err(Error::Internal(_))));
    }

    #[test]
    fn unknown_tables_error() {
        let c = pinot_with_data();
        assert!(c.scan("ghost", &Pushdown::default()).is_err());
        assert!(c.table_schema("ghost").is_err());
        assert_eq!(c.table_names(), vec!["orders".to_string()]);
    }
}
