//! Hybrid realtime + offline tables.
//!
//! §4.3: "Pinot employs the lambda architecture to present a federated
//! view between real-time and historical (offline) data... data is chunked
//! by time boundary and grouped into segments; while the query is first
//! decomposed into sub-plans which execute on the distributed segments in
//! parallel, and then the plan results are aggregated and merged into a
//! final one."
//!
//! [`OlapTable`] owns per-partition realtime state (a consuming mutable
//! segment, sealed segments, and — for upsert tables — the partition's
//! primary-key index) plus offline segments pushed from the warehouse.
//! Queries scatter across all live segments with time-range pruning and
//! merge through [`crate::query::PartialAgg`].

use crate::query::{PartialResult, Query, QueryResult};
use crate::realtime::MutableSegment;
use crate::scatter::gather;
use crate::segment::{int_range_may_match, IndexSpec, Segment};
use crate::upsert::PrimaryKeyIndex;
use parking_lot::RwLock;
use rtdi_common::{Error, Result, Row, Schema, Timestamp, Value};
use rtdi_storage::bitmap::Bitmap;
use std::sync::Arc;

/// One scatter unit: a sealed/offline segment plus the upsert valid-doc
/// snapshot it must be filtered by (None when the table has no upserts).
type ScanTask = (Arc<Segment>, Option<Bitmap>);

/// Table configuration.
#[derive(Debug, Clone)]
pub struct TableConfig {
    pub name: String,
    pub schema: Schema,
    pub index_spec: IndexSpec,
    /// Time column for segment pruning and the realtime/offline boundary.
    pub time_column: Option<String>,
    /// Upsert mode: `primary_key` must be set; input must be partitioned
    /// by that key.
    pub upsert: bool,
    pub primary_key: Option<String>,
    /// Rows per realtime segment before sealing.
    pub segment_rows: usize,
    /// Realtime ingestion partitions (must match the input topic).
    pub partitions: usize,
    /// Worker threads for scattering sealed/offline segment scans
    /// (0 = one per available core). Small tables always scan serially.
    pub query_threads: usize,
}

impl TableConfig {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        TableConfig {
            name: name.into(),
            schema,
            index_spec: IndexSpec::none(),
            time_column: None,
            upsert: false,
            primary_key: None,
            segment_rows: 100_000,
            partitions: 4,
            query_threads: 0,
        }
    }

    pub fn with_query_threads(mut self, n: usize) -> Self {
        self.query_threads = n;
        self
    }

    pub fn with_index_spec(mut self, spec: IndexSpec) -> Self {
        self.index_spec = spec;
        self
    }

    pub fn with_time_column(mut self, col: &str) -> Self {
        self.time_column = Some(col.to_string());
        self
    }

    pub fn with_upsert(mut self, primary_key: &str) -> Self {
        self.upsert = true;
        self.primary_key = Some(primary_key.to_string());
        self
    }

    pub fn with_segment_rows(mut self, n: usize) -> Self {
        self.segment_rows = n.max(1);
        self
    }

    pub fn with_partitions(mut self, n: usize) -> Self {
        self.partitions = n.max(1);
        self
    }
}

struct PartitionState {
    consuming: MutableSegment,
    sealed: Vec<Arc<Segment>>,
    pk_index: PrimaryKeyIndex,
    seg_seq: u64,
    /// sealed segments not yet backed up to the segment store
    unbacked: Vec<String>,
}

/// A queryable hybrid table.
pub struct OlapTable {
    config: TableConfig,
    partitions: Vec<RwLock<PartitionState>>,
    offline: RwLock<Vec<Arc<Segment>>>,
}

impl OlapTable {
    pub fn new(mut config: TableConfig) -> Result<Arc<Self>> {
        if config.upsert {
            if config.primary_key.is_none() {
                return Err(Error::InvalidArgument(
                    "upsert table needs a primary key".into(),
                ));
            }
            // sealing must preserve doc ids for the pk index: no re-sort,
            // and the star-tree fast path is incompatible with valid-doc
            // filtering
            config.index_spec.sorted = None;
            config.index_spec.startree = None;
        }
        // an index the schema cannot carry fails here, not at the first seal
        MutableSegment::new("", config.schema.clone()).seal(&config.index_spec)?;
        let partitions = (0..config.partitions)
            .map(|p| {
                RwLock::new(PartitionState {
                    consuming: MutableSegment::new(
                        format!("{}__rt_{p}_0", config.name),
                        config.schema.clone(),
                    ),
                    sealed: Vec::new(),
                    pk_index: PrimaryKeyIndex::new(),
                    seg_seq: 0,
                    unbacked: Vec::new(),
                })
            })
            .collect();
        Ok(Arc::new(OlapTable {
            config,
            partitions,
            offline: RwLock::new(Vec::new()),
        }))
    }

    pub fn config(&self) -> &TableConfig {
        &self.config
    }

    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Ingest one row into a realtime partition. For upsert tables the
    /// caller must route rows by primary-key hash so that a key always
    /// lands in the same partition (the ingester does this).
    pub fn ingest(&self, partition: usize, row: Row) -> Result<()> {
        self.ingest_at(partition, &row, None)
    }

    /// [`OlapTable::ingest_batch`] of one borrowed row.
    pub fn ingest_at(
        &self,
        partition: usize,
        row: &Row,
        event_time: Option<Timestamp>,
    ) -> Result<()> {
        let outcome = self.ingest_batch(partition, [(row, event_time)]);
        outcome.map(|_| ()).map_err(|(_, refusal)| refusal)
    }

    /// Ingest rows into a realtime partition, in order, under one hold of
    /// the partition's write lock: queries of the partition wait for the
    /// whole batch, so a caller bounds the hold by the batch it passes (the
    /// ingester's `batch_size`). A row without the table's time column is
    /// stored with its event time there (the ingester passes the record's
    /// timestamp, which makes event time queryable). Upserts are applied
    /// and a segment is sealed at exactly `segment_rows`, row by row, as
    /// if each had come alone.
    ///
    /// Returns how many rows went in. A refused row ends the batch:
    /// `Err((k, refusal))` says the `k` rows before it are in and queryable
    /// and neither it nor any row after it is.
    pub fn ingest_batch<'a>(
        &self,
        partition: usize,
        rows: impl IntoIterator<Item = (&'a Row, Option<Timestamp>)>,
    ) -> std::result::Result<usize, (usize, Error)> {
        let mut st = self.partition(partition).map_err(|e| (0, e))?.write();
        let mut taken = 0;
        for (row, event_time) in rows {
            self.ingest_row(&mut st, row, event_time)
                .map_err(|refusal| (taken, refusal))?;
            taken += 1;
        }
        Ok(taken)
    }

    fn ingest_row(
        &self,
        st: &mut PartitionState,
        row: &Row,
        event_time: Option<Timestamp>,
    ) -> Result<()> {
        let key = match &self.config.primary_key {
            Some(pk_col) if self.config.upsert => Some(
                row.get(pk_col)
                    .ok_or_else(|| Error::Schema(format!("upsert row missing key '{pk_col}'")))?,
            ),
            _ => None,
        };
        let default = self.config.time_column.as_deref().zip(event_time);
        let doc = st.consuming.append(row, default)?;
        if let Some(key) = key {
            st.pk_index.upsert(key, st.consuming.name(), doc);
        }
        if st.consuming.doc_count() >= self.config.segment_rows {
            self.seal_partition(st)?;
        }
        Ok(())
    }

    fn seal_partition(&self, st: &mut PartitionState) -> Result<()> {
        if st.consuming.doc_count() == 0 {
            return Ok(());
        }
        let name = format!(
            "{}__rt_{}_{}",
            self.config.name,
            partition_of(st),
            st.seg_seq + 1
        );
        let next = st.consuming.successor(name);
        // `new` sealed an empty segment with this spec, and a seal error
        // depends on schema and spec alone (`Segment::seal`'s contract), so
        // the full segment handed over here is never lost to one
        let full = std::mem::replace(&mut st.consuming, next);
        let sealed = full.seal(&self.config.index_spec);
        debug_assert!(sealed.is_ok(), "seal failed on the rows");
        let sealed = Arc::new(sealed?);
        st.seg_seq += 1;
        st.unbacked.push(sealed.name().to_string());
        st.sealed.push(sealed);
        Ok(())
    }

    /// Force-seal every partition's consuming segment (tests, shutdown).
    pub fn seal_all(&self) -> Result<()> {
        for state in &self.partitions {
            self.seal_partition(&mut state.write())?;
        }
        Ok(())
    }

    /// Segment names sealed but not yet archived; the ingester drains this
    /// into the segment store.
    pub fn take_unbacked(&self) -> Vec<(usize, Arc<Segment>)> {
        let mut out = Vec::new();
        for (p, state) in self.partitions.iter().enumerate() {
            let mut st = state.write();
            let names: Vec<String> = st.unbacked.drain(..).collect();
            for name in names {
                if let Some(seg) = st.sealed.iter().find(|s| s.name() == name) {
                    out.push((p, seg.clone()));
                }
            }
        }
        out
    }

    /// Register an offline segment (pushed from the warehouse via the
    /// Piper-style offline flow of §4.3.3).
    pub fn add_offline_segment(&self, segment: Segment) {
        self.offline.write().push(Arc::new(segment));
    }

    /// Drop a sealed realtime segment from a partition (replica-failure
    /// injection for the recovery experiments). Returns the segment.
    pub fn evict_sealed(&self, partition: usize, name: &str) -> Result<Arc<Segment>> {
        let mut st = self.partition(partition)?.write();
        let idx = st
            .sealed
            .iter()
            .position(|s| s.name() == name)
            .ok_or_else(|| Error::NotFound(format!("sealed segment '{name}'")))?;
        Ok(st.sealed.remove(idx))
    }

    /// Re-install a recovered segment.
    pub fn restore_sealed(&self, partition: usize, segment: Arc<Segment>) -> Result<()> {
        self.partition(partition)?.write().sealed.push(segment);
        Ok(())
    }

    /// Names of sealed segments per partition.
    pub fn sealed_segments(&self, partition: usize) -> Result<Vec<String>> {
        let st = self.partition(partition)?.read();
        Ok(st.sealed.iter().map(|s| s.name().to_string()).collect())
    }

    fn partition(&self, partition: usize) -> Result<&RwLock<PartitionState>> {
        self.partitions
            .get(partition)
            .ok_or_else(|| Error::InvalidArgument(format!("partition {partition} out of range")))
    }

    pub fn doc_count(&self) -> usize {
        let rt: usize = self
            .partitions
            .iter()
            .map(|p| {
                let st = p.read();
                st.consuming.doc_count() + st.sealed.iter().map(|s| s.doc_count()).sum::<usize>()
            })
            .sum();
        let off: usize = self.offline.read().iter().map(|s| s.doc_count()).sum();
        rt + off
    }

    pub fn memory_bytes(&self) -> usize {
        let rt: usize = self
            .partitions
            .iter()
            .map(|p| {
                let st = p.read();
                st.consuming.memory_bytes()
                    + st.sealed.iter().map(|s| s.memory_bytes()).sum::<usize>()
                    + st.pk_index.memory_bytes()
            })
            .sum();
        let off: usize = self.offline.read().iter().map(|s| s.memory_bytes()).sum();
        rt + off
    }

    /// Do the time statistics `int_range` reads prove that no document of
    /// a segment can match? (`int_range` looks up a segment's min/max of a
    /// column; both kinds of segment keep them, so this costs no scan.)
    fn prunable(
        &self,
        query: &Query,
        int_range: impl Fn(&str) -> Option<(Timestamp, Timestamp)>,
    ) -> bool {
        let Some(tc) = &self.config.time_column else {
            return false;
        };
        int_range(tc).is_some_and(|(lo, hi)| !int_range_may_match(&query.predicates, tc, lo, hi))
    }

    /// Sealed + offline segments a query must visit, with their upsert
    /// valid-doc sets snapshotted under brief partition read locks — the
    /// scatter phase then runs lock-free across worker threads. Also
    /// returns how many segments the time statistics pruned.
    fn scan_tasks(&self, query: &Query) -> (Vec<ScanTask>, u64) {
        let mut tasks = Vec::new();
        let mut pruned = 0u64;
        for (p, state) in self.partitions.iter().enumerate() {
            let st = state.read();
            if !query.admits_partition(Some(p)) {
                // partition-pruned scatter: the whole partition is out
                pruned += st.sealed.len() as u64;
                continue;
            }
            for seg in &st.sealed {
                if self.prunable(query, |c| seg.int_range(c)) {
                    pruned += 1;
                    continue;
                }
                let valid = if self.config.upsert {
                    st.pk_index.valid_docs(seg.name()).cloned()
                } else {
                    None
                };
                tasks.push((seg.clone(), valid));
            }
        }
        for seg in self.offline.read().iter() {
            if self.prunable(query, |c| seg.int_range(c)) {
                pruned += 1;
                continue;
            }
            tasks.push((seg.clone(), None));
        }
        (tasks, pruned)
    }

    /// Worker count for a scatter over `tasks`: tiny tables stay serial —
    /// thread spawn costs more than the scan below ~8k docs.
    fn scatter_threads(&self, tasks: &[ScanTask]) -> usize {
        const SERIAL_DOC_THRESHOLD: usize = 8192;
        let total_docs: usize = tasks.iter().map(|(s, _)| s.doc_count()).sum();
        if tasks.len() <= 1 || total_docs < SERIAL_DOC_THRESHOLD {
            1
        } else {
            self.config.query_threads
        }
    }

    /// Execute a query across every live segment and stop before the
    /// finalize step, returning the merged partial and its ledger — the
    /// unit a federation layer needs to union this table's slice with
    /// offline/archival segments across the time boundary without breaking
    /// AVG, DISTINCTCOUNT or a global ORDER BY / LIMIT. Consuming (mutable)
    /// segments execute serially under their partition locks; sealed and
    /// offline segments go through [`gather`].
    pub fn query_partial(&self, query: &Query) -> Result<PartialResult> {
        let mut out = PartialResult::default();
        for (p, state) in self.partitions.iter().enumerate() {
            if !query.admits_partition(Some(p)) {
                continue;
            }
            // consuming segments serve the freshest data and go first, so
            // a blown deadline sheds historical segments before fresh ones
            if query.deadline.as_ref().is_some_and(|d| d.expired()) {
                out.ledger.shed();
                continue;
            }
            let st = state.read();
            if self.prunable(query, |c| st.consuming.int_range(c)) {
                out.ledger.segments_pruned += 1;
                continue;
            }
            let valid: Option<Bitmap> = if self.config.upsert {
                st.pk_index.valid_docs(st.consuming.name()).cloned()
            } else {
                None
            };
            out.serve(st.consuming.execute_partial(query, valid.as_ref())?);
        }
        let (tasks, segments_pruned) = self.scan_tasks(query);
        out.ledger.segments_pruned += segments_pruned;
        let threads = self.scatter_threads(&tasks);
        gather(&mut out, query, tasks.len(), threads, |i| {
            let (seg, valid) = &tasks[i];
            seg.execute_partial(query, valid.as_ref())
        })?;
        Ok(out)
    }

    /// Execute a query across every live segment (scatter-gather-merge).
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        self.query_partial(query)?.finalize(query)
    }

    /// Latest value of a column for a primary key (upsert tables): the
    /// point lookup that serves "correcting a ride fare" reads.
    pub fn lookup(&self, key: &Value, column: &str) -> Option<Value> {
        let partition = (key.partition_hash() % self.config.partitions as u64) as usize;
        let st = self.partitions[partition].read();
        let loc = st.pk_index.location(key)?;
        if &loc.segment == st.consuming.name() {
            return Some(st.consuming.value_at(column, loc.doc_id));
        }
        let seg = st.sealed.iter().find(|s| s.name() == &*loc.segment)?;
        Some(seg.value_at(column, loc.doc_id))
    }
}

fn partition_of(st: &PartitionState) -> usize {
    // partition id is embedded in the consuming segment name: ...__rt_<p>_<seq>
    st.consuming
        .name()
        .rsplit("__rt_")
        .next()
        .and_then(|tail| tail.split('_').next())
        .and_then(|p| p.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, PredicateOp};
    use rtdi_common::{AggFn, FieldType};

    fn schema() -> Schema {
        Schema::of(
            "trips",
            &[
                ("trip_id", FieldType::Str),
                ("city", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    fn plain_table(segment_rows: usize) -> Arc<OlapTable> {
        OlapTable::new(
            TableConfig::new("trips", schema())
                .with_index_spec(IndexSpec::none().with_inverted(&["city"]))
                .with_time_column("ts")
                .with_segment_rows(segment_rows)
                .with_partitions(2),
        )
        .unwrap()
    }

    fn trip(i: usize) -> Row {
        Row::new()
            .with("trip_id", format!("t{i}"))
            .with("city", ["sf", "la"][i % 2])
            .with("fare", 10.0 + (i % 5) as f64)
            .with("ts", (i as i64) * 1000)
    }

    #[test]
    fn ingest_seal_query_across_segments() {
        let table = plain_table(25);
        for i in 0..100 {
            table.ingest(i % 2, trip(i)).unwrap();
        }
        // 100 rows, 25-per-segment -> sealing happened
        assert!(!table.sealed_segments(0).unwrap().is_empty());
        assert_eq!(table.doc_count(), 100);
        let q = Query::select_all("trips")
            .aggregate("n", AggFn::Count)
            .aggregate("avg_fare", AggFn::Avg("fare".into()))
            .group(&["city"]);
        let res = table.query(&q).unwrap();
        assert_eq!(res.rows.len(), 2);
        let total: i64 = res.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 100);
        assert!(
            res.ledger.segments_queried >= 4,
            "queried {}",
            res.ledger.segments_queried
        );
    }

    #[test]
    fn time_pruning_skips_disjoint_segments() {
        let table = plain_table(10);
        for i in 0..100 {
            table.ingest(0, trip(i)).unwrap();
        }
        table.seal_all().unwrap();
        // query for a narrow time range: most sealed segments pruned
        let q = Query::select_all("trips")
            .filter(Predicate::new("ts", PredicateOp::Ge, 50_000i64))
            .filter(Predicate::new("ts", PredicateOp::Lt, 60_000i64))
            .aggregate("n", AggFn::Count);
        let res = table.query(&q).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(10));
        // 10 segments of 10 rows each (+1 empty consuming + partition 1
        // consuming): only ~1-2 segments overlap the range
        assert!(
            res.ledger.segments_queried <= 5,
            "pruning failed: queried {}",
            res.ledger.segments_queried
        );
        // the consuming tail keeps its running time range and is skipped
        // the same way: 5 fresh rows at ts 100_000.. cannot meet the window
        for i in 100..105 {
            table.ingest(0, trip(i)).unwrap();
        }
        let with_tail = table.query(&q).unwrap();
        assert_eq!(with_tail.rows, res.rows);
        assert_eq!(
            with_tail.ledger.segments_queried,
            res.ledger.segments_queried - 1
        );
        assert_eq!(
            with_tail.ledger.segments_pruned,
            res.ledger.segments_pruned + 1
        );
        // and is visited by a window that reaches it, selections included
        let fresh = Query::select_all("trips")
            .filter(Predicate::new("ts", PredicateOp::Ge, 102_000i64))
            .columns(&["trip_id"]);
        let res = table.query(&fresh).unwrap();
        assert_eq!(res.rows.len(), 3);
        // partition 0's tail and partition 1's empty one; all ten sealed
        // segments skipped
        assert_eq!(res.ledger.segments_queried, 2);
        assert_eq!(res.ledger.segments_pruned, 10);
    }

    /// The same SQL must not flip its answer at the `segment_rows`-th row:
    /// a consuming segment keeps exactly what a sealed one keeps (schema
    /// columns, coerced to the field types) and refuses what it refuses.
    #[test]
    fn answers_do_not_change_when_the_tail_seals() {
        use crate::query::SortOrder::Asc;
        let table = plain_table(1000);
        for i in 0..40 {
            // `surge` is not in the schema; every third fare is an Int in
            // the Double field
            let mut row = trip(i).with("surge", 1.5);
            if i % 3 == 0 {
                row.set("fare", 7i64);
            }
            table.ingest(i % 2, row).unwrap();
        }
        let all = || Query::select_all("trips");
        let n = |q: Query| q.aggregate("n", AggFn::Count);
        let queries = [
            n(all().filter(Predicate::eq("city", "sf")))
                .aggregate("f", AggFn::Sum("fare".into()))
                .group(&["city"]),
            all().order("ts", Asc),
            all()
                .filter(Predicate::eq("fare", 7.0))
                .columns(&["trip_id", "fare"])
                .order("trip_id", Asc),
            n(all().filter(Predicate::new("fare", PredicateOp::Gt, 7i64))),
            all().columns(&["trip_id", "surge"]).order("trip_id", Asc),
            n(all().filter(Predicate::eq("surge", 1.5))),
            n(all()).group(&["surge"]),
            all().aggregate("s", AggFn::Sum("surge".into())),
            n(all().filter(Predicate::eq("ghost", 1i64))),
            all().columns(&["ghost", "ts"]).order("ts", Asc),
            n(all()).group(&["ghost"]),
        ];
        let answers = || -> Vec<std::result::Result<Vec<Row>, String>> {
            let answer = |q| table.query(q).map(|r| r.rows).map_err(|e| e.to_string());
            queries.iter().map(answer).collect()
        };
        let consuming = answers();
        table.seal_all().unwrap();
        assert_eq!(table.sealed_segments(0).unwrap().len(), 1);
        for ((q, before), after) in queries.iter().zip(&consuming).zip(answers()) {
            assert_eq!(before, &after, "answer changed at the seal: {q:?}");
        }
        // what both sides answer: the Int fare reads back as a Double, the
        // extra column is dropped, a predicate on it is an error
        let fares = consuming[2].as_ref().unwrap();
        assert_eq!(fares.len(), 14);
        assert_eq!(fares[0].get("fare"), Some(&Value::Double(7.0)));
        let surge = consuming[4].as_ref().unwrap();
        assert_eq!(surge[0].get("surge"), Some(&Value::Null));
        assert!(consuming[5]
            .as_ref()
            .unwrap_err()
            .contains("unknown column"));
        assert!(consuming[8]
            .as_ref()
            .unwrap_err()
            .contains("unknown column"));
    }

    /// `seal_partition` hands the full segment over by value, so a seal
    /// must not fail once the table exists: every error `Segment::seal` can
    /// raise is raised for an empty segment too, which is what `new` seals.
    #[test]
    fn seal_errors_do_not_depend_on_the_rows() {
        use crate::startree::StarTreeSpec;
        let seal = |rows: usize, spec: &IndexSpec| {
            let mut seg = MutableSegment::new("s", schema());
            for i in 0..rows {
                seg.append(&trip(i), None).unwrap();
            }
            seg.seal(spec).map(|_| ()).map_err(|e| e.to_string())
        };
        for spec in [
            IndexSpec::none().with_inverted(&["ghost"]),
            IndexSpec::none().with_inverted(&["fare"]),
            IndexSpec::none().with_range(&["ghost"]),
            IndexSpec::none().with_range(&["city"]),
            IndexSpec::none().with_sorted("ghost"),
            IndexSpec::none().with_startree(StarTreeSpec::new(&[], vec![AggFn::Count])),
        ] {
            let empty = seal(0, &spec);
            assert!(empty.is_err(), "{spec:?}");
            assert_eq!(seal(30, &spec), empty, "{spec:?}");
            let config = TableConfig::new("trips", schema()).with_index_spec(spec.clone());
            assert!(OlapTable::new(config).is_err(), "{spec:?}");
        }
        let carried = IndexSpec::none()
            .with_inverted(&["city", "ts"])
            .with_range(&["fare", "ts"])
            .with_sorted("city")
            .with_startree(StarTreeSpec::new(&["city"], vec![AggFn::Count]));
        assert_eq!(seal(0, &carried), Ok(()));
        assert_eq!(seal(30, &carried), Ok(()));
    }

    #[test]
    fn offline_segments_participate() {
        let table = plain_table(1000);
        for i in 0..10 {
            table.ingest(0, trip(i)).unwrap();
        }
        let offline_rows: Vec<Row> = (100..150).map(trip).collect();
        let seg = Segment::build("off-1", &schema(), offline_rows, &IndexSpec::none()).unwrap();
        table.add_offline_segment(seg);
        let q = Query::select_all("trips").aggregate("n", AggFn::Count);
        assert_eq!(table.query(&q).unwrap().rows[0].get_int("n"), Some(60));
    }

    #[test]
    fn selection_merges_and_limits_across_segments() {
        let table = plain_table(20);
        for i in 0..60 {
            table.ingest(i % 2, trip(i)).unwrap();
        }
        let q = Query::select_all("trips")
            .columns(&["trip_id", "ts"])
            .order("ts", crate::query::SortOrder::Desc)
            .limit(5);
        let res = table.query(&q).unwrap();
        assert_eq!(res.rows.len(), 5);
        assert_eq!(res.rows[0].get_int("ts"), Some(59_000));
    }

    fn upsert_table() -> Arc<OlapTable> {
        OlapTable::new(
            TableConfig::new("fares", schema())
                .with_upsert("trip_id")
                .with_segment_rows(10)
                .with_partitions(4),
        )
        .unwrap()
    }

    fn route(table: &OlapTable, row: Row) {
        let key = row.get("trip_id").cloned().unwrap();
        let p = (key.partition_hash() % table.config().partitions as u64) as usize;
        table.ingest(p, row).unwrap();
    }

    #[test]
    fn upsert_returns_latest_version_only() {
        let table = upsert_table();
        for i in 0..50 {
            route(&table, trip(i));
        }
        // correct fares for 10 trips (spanning sealed + consuming segments)
        for i in 0..10 {
            route(
                &table,
                Row::new()
                    .with("trip_id", format!("t{i}"))
                    .with("city", ["sf", "la"][i % 2])
                    .with("fare", 999.0)
                    .with("ts", 1_000_000 + i as i64),
            );
        }
        let q = Query::select_all("fares").aggregate("n", AggFn::Count);
        // count sees exactly 50 live records (no duplicates)
        assert_eq!(table.query(&q).unwrap().rows[0].get_int("n"), Some(50));
        // corrected fare visible via point lookup, from sealed segments and
        // from the consuming tail (4 partitions x 10-row segments: the last
        // corrections are still in their partitions' tails)
        let mut in_tail = 0;
        for i in 0..10 {
            let key = Value::from(format!("t{i}"));
            assert_eq!(table.lookup(&key, "fare"), Some(Value::Double(999.0)));
            let p = (key.partition_hash() % 4) as usize;
            let st = table.partitions[p].read();
            let loc = st.pk_index.location(&key).unwrap();
            in_tail += usize::from(&loc.segment == st.consuming.name());
        }
        assert!(in_tail > 0, "no latest version sits in a consuming segment");
        // uncorrected trip unchanged
        assert_eq!(
            table.lookup(&Value::Str("t20".into()), "fare"),
            Some(Value::Double(10.0))
        );
        // aggregation reflects the corrections
        let q = Query::select_all("fares")
            .filter(Predicate::eq("trip_id", "t3"))
            .aggregate("f", AggFn::Max("fare".into()));
        assert_eq!(
            table.query(&q).unwrap().rows[0].get_double("f"),
            Some(999.0)
        );
    }

    #[test]
    fn upsert_config_sanitized() {
        let cfg = TableConfig::new("t", schema())
            .with_upsert("trip_id")
            .with_index_spec(IndexSpec::none().with_sorted("ts").with_startree(
                crate::startree::StarTreeSpec::new(&["city"], vec![AggFn::Count]),
            ));
        let table = OlapTable::new(cfg).unwrap();
        assert!(table.config().index_spec.sorted.is_none());
        assert!(table.config().index_spec.startree.is_none());
        // missing primary key rejected
        let mut bad = TableConfig::new("t", schema());
        bad.upsert = true;
        assert!(OlapTable::new(bad).is_err());
    }

    #[test]
    fn evict_and_restore_sealed_segment() {
        let table = plain_table(10);
        for i in 0..20 {
            table.ingest(0, trip(i)).unwrap();
        }
        let names = table.sealed_segments(0).unwrap();
        assert_eq!(names.len(), 2);
        let q = Query::select_all("trips").aggregate("n", AggFn::Count);
        assert_eq!(table.query(&q).unwrap().rows[0].get_int("n"), Some(20));
        let seg = table.evict_sealed(0, &names[0]).unwrap();
        assert_eq!(table.query(&q).unwrap().rows[0].get_int("n"), Some(10));
        table.restore_sealed(0, seg).unwrap();
        assert_eq!(table.query(&q).unwrap().rows[0].get_int("n"), Some(20));
        assert!(table.evict_sealed(0, "ghost").is_err());
    }

    /// A partition past the last is refused as `ingest_batch` refuses it,
    /// never indexed.
    #[test]
    fn sealed_segment_calls_refuse_an_unknown_partition() {
        let table = plain_table(10);
        for i in 0..10 {
            table.ingest(0, trip(i)).unwrap();
        }
        let seg = table.evict_sealed(0, &table.sealed_segments(0).unwrap()[0]);
        let past = table.config().partitions;
        let refused = |r: Result<()>| matches!(r, Err(Error::InvalidArgument(_)));
        assert!(refused(table.evict_sealed(past, "x").map(drop)));
        assert!(refused(table.restore_sealed(past, seg.unwrap())));
        assert!(refused(table.sealed_segments(past).map(drop)));
    }

    #[test]
    fn parallel_table_scatter_matches_serial() {
        // enough docs to clear the serial threshold so workers really run
        let mk = |threads: usize| {
            let table = OlapTable::new(
                TableConfig::new("trips", schema())
                    .with_index_spec(IndexSpec::none().with_inverted(&["city"]))
                    .with_time_column("ts")
                    .with_segment_rows(2000)
                    .with_partitions(2)
                    .with_query_threads(threads),
            )
            .unwrap();
            for i in 0..12_000 {
                table.ingest(i % 2, trip(i)).unwrap();
            }
            table.seal_all().unwrap();
            table
        };
        let serial = mk(1);
        let parallel = mk(3);
        let queries = vec![
            Query::select_all("trips")
                .aggregate("n", AggFn::Count)
                .aggregate("avg_fare", AggFn::Avg("fare".into()))
                .group(&["city"]),
            Query::select_all("trips")
                .columns(&["trip_id", "ts"])
                .filter(Predicate::new("ts", PredicateOp::Ge, 1_000_000i64))
                .order("ts", crate::query::SortOrder::Desc)
                .limit(9),
        ];
        for q in queries {
            let a = serial.query(&q).unwrap();
            let b = parallel.query(&q).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn a_batch_stops_at_the_row_it_refuses() {
        let table = plain_table(10);
        let mut rows: Vec<Row> = (0..30).map(trip).collect();
        rows[23].set("fare", "free");
        let batch = || rows.iter().map(|r| (r, None));
        assert!(matches!(
            table.ingest_batch(0, batch()),
            Err((23, Error::Schema(_)))
        ));
        assert_eq!(table.doc_count(), 23);
        assert_eq!(table.sealed_segments(0).unwrap().len(), 2);
        assert_eq!(table.ingest_batch(1, batch().take(23)), Ok(23));
        assert_eq!(table.ingest_batch(1, batch().take(0)), Ok(0));
        assert!(matches!(
            table.ingest_batch(2, batch()),
            Err((0, Error::InvalidArgument(_)))
        ));
    }

    #[test]
    fn take_unbacked_drains_once() {
        let table = plain_table(10);
        for i in 0..30 {
            table.ingest(0, trip(i)).unwrap();
        }
        let first = table.take_unbacked();
        assert_eq!(first.len(), 3);
        assert!(table.take_unbacked().is_empty());
    }
}
