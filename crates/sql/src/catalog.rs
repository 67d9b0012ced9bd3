//! Hybrid-table federation: the time-boundary planner over a realtime
//! store and archival segment files (§4.3, §4.5).
//!
//! §4.3: "Pinot employs the lambda architecture to present a federated
//! view between real-time and historical (offline) data." The realtime
//! side of a table holds the freshest minutes-to-hours; the offline side
//! holds compacted, immutable archival segments pushed from the
//! warehouse. A query must see exactly one copy of every row, so the
//! planner splits its time predicate at the **time boundary** — the
//! newest timestamp the offline side is authoritative for:
//!
//! ```text
//!            offline (authoritative)        realtime (fresh)
//!   ────────────────────────────────┤├──────────────────────────▶ time
//!                       ts <= boundary │ ts > boundary
//! ```
//!
//! The offline slice executes against [`LazySegment`] archives — zone-map
//! headers prune segments without reading column bytes, and surviving
//! segments decode only the touched columns. The realtime slice executes
//! against the live [`OlapTable`] or a scatter-gather [`Broker`]. Both
//! sides hand back an unfinalized [`PartialResult`] and merge *before*
//! finalizing, so AVG and DISTINCTCOUNT stay exact, and ORDER BY / LIMIT
//! global, across the boundary.
//!
//! **Freshness-aware result cache.** The offline slice is immutable
//! between segment events (seal/push, rebalance, compaction), so its
//! partial result is cached keyed on `(normalized pushdown, time
//! boundary, segment-version)`. The realtime slice is *never* cached —
//! it recomputes on every query — so a cache hit can never serve stale
//! fresh-side data. Any segment event bumps the version and drops every
//! cached slice.

use crate::connector::{pushdown_query, restore_group_key_types, Pushdown, ScanOutput};
use parking_lot::{Mutex, RwLock};
use rtdi_common::{Error, Result, Schema};
use rtdi_olap::broker::Broker;
use rtdi_olap::query::{PartialResult, Predicate, PredicateOp, Query};
use rtdi_olap::scatter::gather;
use rtdi_olap::segment::{int_range_may_match, LazySegment};
use rtdi_olap::table::OlapTable;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One archival segment in a hybrid table's offline inventory.
#[derive(Clone)]
pub struct OfflineSegment {
    pub segment: Arc<LazySegment>,
    /// Inclusive `(min, max)` of the time column, read from the zone-map
    /// header at registration — no column bytes touched.
    pub time_range: (i64, i64),
    /// Partition id when the offline pipeline partitions its output the
    /// same way as the realtime topic (enables partition-pruned scatter).
    pub partition: Option<usize>,
}

/// How the federation reaches the fresh side of a hybrid table.
#[derive(Clone)]
pub enum RealtimeSide {
    /// In-process hybrid table (no server fan-out).
    Direct(Arc<OlapTable>),
    /// Scatter-gather broker over server nodes; server death degrades the
    /// realtime slice to `partial=true` instead of failing the query.
    Brokered(Arc<Broker>),
}

const CACHE_CAPACITY: usize = 64;

/// A federated hybrid table: realtime store + offline segment inventory +
/// the time-boundary planner + the freshness-aware result cache.
pub struct HybridTable {
    name: String,
    schema: Schema,
    time_column: String,
    /// `(column, partition count)` when both sides partition by the same
    /// key — lets the optimizer derive a partition-pruned scatter from an
    /// equality predicate.
    partition_spec: Option<(String, usize)>,
    realtime: RealtimeSide,
    offline: RwLock<Vec<OfflineSegment>>,
    /// Bumped on every segment event (register / remove / compaction /
    /// rebalance); part of every cache key.
    version: AtomicU64,
    /// Offline slices, unfinalized, with the ledger of the scan that first
    /// computed them.
    cache: Mutex<HashMap<String, PartialResult>>,
    /// Scatter threads for the offline side (0 = one per core).
    query_threads: usize,
}

impl HybridTable {
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        time_column: impl Into<String>,
        realtime: RealtimeSide,
    ) -> Self {
        HybridTable {
            name: name.into(),
            schema,
            time_column: time_column.into(),
            partition_spec: None,
            realtime,
            offline: RwLock::new(Vec::new()),
            version: AtomicU64::new(0),
            cache: Mutex::new(HashMap::new()),
            query_threads: 0,
        }
    }

    /// Declare that both sides partition rows by `column % n`, enabling
    /// partition-pruned scatter for equality predicates on that column.
    pub fn with_partition_spec(mut self, column: &str, n: usize) -> Self {
        self.partition_spec = Some((column.to_string(), n.max(1)));
        self
    }

    pub fn with_query_threads(mut self, n: usize) -> Self {
        self.query_threads = n;
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn partition_spec(&self) -> Option<(String, usize)> {
        self.partition_spec.clone()
    }

    /// Current segment-inventory version (bumped by every segment event).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Register an archival segment into the offline inventory. The time
    /// range comes from the zone-map header; a segment whose time column
    /// carries no integer zone statistics cannot participate in boundary
    /// planning and is rejected.
    pub fn register_offline_segment(
        &self,
        segment: Arc<LazySegment>,
        partition: Option<usize>,
    ) -> Result<()> {
        let time_range = segment.int_range(&self.time_column).ok_or_else(|| {
            Error::InvalidArgument(format!(
                "offline segment '{}' has no zone statistics for time column '{}'",
                segment.name(),
                self.time_column
            ))
        })?;
        self.offline.write().push(OfflineSegment {
            segment,
            time_range,
            partition,
        });
        self.invalidate();
        Ok(())
    }

    /// Drop an offline segment by name (retention, or a rebalance moving
    /// it elsewhere). Returns whether it existed.
    pub fn remove_offline_segment(&self, name: &str) -> bool {
        let mut inv = self.offline.write();
        let before = inv.len();
        inv.retain(|s| s.segment.name() != name);
        let removed = inv.len() != before;
        drop(inv);
        if removed {
            self.invalidate();
        }
        removed
    }

    /// Replace the whole offline inventory in one step — the compaction
    /// path (k input segments rewritten as one).
    pub fn replace_offline_segments(
        &self,
        segments: Vec<(Arc<LazySegment>, Option<usize>)>,
    ) -> Result<()> {
        let mut rebuilt = Vec::with_capacity(segments.len());
        for (segment, partition) in segments {
            let time_range = segment.int_range(&self.time_column).ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "offline segment '{}' has no zone statistics for time column '{}'",
                    segment.name(),
                    self.time_column
                ))
            })?;
            rebuilt.push(OfflineSegment {
                segment,
                time_range,
                partition,
            });
        }
        *self.offline.write() = rebuilt;
        self.invalidate();
        Ok(())
    }

    /// Segment event hook: bump the inventory version and drop every
    /// cached offline slice. Called by every registration path; also the
    /// entry point for external events (a broker rebalance, a realtime
    /// seal crossing into the archive).
    pub fn invalidate(&self) {
        self.version.fetch_add(1, Ordering::Relaxed);
        self.cache.lock().clear();
    }

    /// The time boundary: the newest timestamp the offline side is
    /// authoritative for (max of every segment's zone-map max). `None`
    /// when there is no offline data — the realtime side then serves the
    /// whole time axis.
    pub fn time_boundary(&self) -> Option<i64> {
        self.offline.read().iter().map(|s| s.time_range.1).max()
    }

    /// Execute a pushdown against the federated view.
    pub fn scan(&self, pushdown: &Pushdown) -> Result<ScanOutput> {
        let base = pushdown_query(&self.name, pushdown);
        let boundary = self.time_boundary();

        // Split at the boundary. Each side is `None` when the query's own
        // time predicates cannot meet that side of it — the planner skips
        // it entirely.
        let time = &self.time_column;
        let may_match = |lo, hi| int_range_may_match(&base.predicates, time, lo, hi);
        let side = |op, b: i64| base.clone().filter(Predicate::new(time, op, b));
        let (offline_q, realtime_q) = match boundary {
            None => (None, Some(base.clone())),
            Some(b) => {
                let fresh = b.checked_add(1).is_some_and(|lo| may_match(lo, i64::MAX));
                (
                    may_match(i64::MIN, b).then(|| side(PredicateOp::Le, b)),
                    fresh.then(|| side(PredicateOp::Gt, b)),
                )
            }
        };

        // Deadline-budget split: when both sides run, the offline slice is
        // granted half the remaining budget so a slow archive scan cannot
        // starve the fresh side; the realtime slice keeps the parent
        // deadline (whatever the offline side leaves of it).
        let offline_q = offline_q.map(|mut q| {
            if realtime_q.is_some() {
                if let Some(d) = &base.deadline {
                    q.deadline = Some(d.with_budget_fraction(1, 2));
                }
            }
            q
        });

        // Both sides merge unfinalized, so a side whose deadline shed every
        // segment degrades the federated answer instead of failing it: the
        // merged ledger decides, in `finalize`.
        let mut merged = PartialResult::default();
        let mut bytes_read = 0u64;
        let mut cache_hit = false;
        match &offline_q {
            None => merged.ledger.segments_pruned = self.offline.read().len() as u64,
            Some(q) => {
                let slice = self.offline_slice(q, boundary, &mut bytes_read, &mut cache_hit)?;
                merged.merge(slice);
            }
        }
        if let Some(q) = &realtime_q {
            // always live, never cached
            let slice = match &self.realtime {
                RealtimeSide::Direct(t) => t.query_partial(q)?,
                RealtimeSide::Brokered(b) => b.query_partial(q)?,
            };
            merged.merge(slice);
        }
        let mut result = merged.finalize(&base)?;
        if let Some(agg) = &pushdown.aggregation {
            restore_group_key_types(&mut result.rows, &agg.group_by, &self.schema);
        }
        Ok(ScanOutput {
            rows_shipped: result.rows.len() as u64,
            rows: result.rows,
            views: Vec::new(),
            ledger: result.ledger,
            bytes_read,
            cache_hit,
        })
    }

    /// Execute (or replay from cache) the offline slice.
    fn offline_slice(
        &self,
        query: &Query,
        boundary: Option<i64>,
        bytes_read: &mut u64,
        cache_hit: &mut bool,
    ) -> Result<PartialResult> {
        let key = cache_key(query, boundary, self.version());
        if let Some(slice) = self.cache.lock().get(&key).cloned() {
            *cache_hit = true;
            return Ok(slice);
        }

        // Prune the inventory: partition hint, then the zone maps (the
        // time column's among them). Pruned segments cost header bytes
        // only.
        let inventory = self.offline.read().clone();
        let tasks: Vec<&OfflineSegment> = inventory
            .iter()
            .filter(|s| query.admits_partition(s.partition) && s.segment.zones_may_match(query))
            .collect();
        let mut slice = PartialResult::default();
        slice.ledger.segments_pruned = (inventory.len() - tasks.len()) as u64;

        let loaded = || -> u64 { tasks.iter().map(|s| s.segment.bytes_loaded() as u64).sum() };
        let before = loaded();
        // No limit is applied to the merged slice: it is cached and later
        // merged with a live realtime slice, so truncation must wait for
        // the union. Task order alone keeps the cache deterministic.
        gather(&mut slice, query, tasks.len(), self.query_threads, |i| {
            tasks[i].segment.execute_partial(query, None)
        })?;
        *bytes_read = loaded().saturating_sub(before);

        // Never cache a deadline-truncated slice: it covers only the
        // segments served before the budget ran out, and a later query
        // with a healthy budget must not replay the truncation.
        if !slice.ledger.deadline_exceeded {
            let mut cache = self.cache.lock();
            if cache.len() >= CACHE_CAPACITY {
                // segment events clear the map wholesale; between events a
                // full map means an unusually diverse query mix — dropping
                // it costs one recompute per shape, never correctness
                cache.clear();
            }
            cache.insert(key, slice.clone());
        }
        Ok(slice)
    }
}

/// Cache key: normalized query shape + the boundary it was split at + the
/// segment-inventory version it ran against. `cache_shape()` strips the
/// deadline and priority first — an absolute expiry timestamp in the key
/// would make every repeat of the same dashboard query a cache miss.
fn cache_key(query: &Query, boundary: Option<i64>, version: u64) -> String {
    let shape = query.cache_shape();
    format!("v{version}|b{boundary:?}|{shape:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::PushedAgg;
    use rtdi_common::AggFn;
    use rtdi_common::{FieldType, Row};
    use rtdi_olap::segment::{IndexSpec, Segment};
    use rtdi_olap::table::{OlapTable, TableConfig};

    fn schema() -> Schema {
        Schema::of(
            "trips",
            &[
                ("city", FieldType::Str),
                ("ts", FieldType::Timestamp),
                ("fare", FieldType::Double),
            ],
        )
    }

    fn trip(city: &str, ts: i64) -> Row {
        Row::new()
            .with("city", city)
            .with("ts", ts)
            .with("fare", ts as f64 / 10.0)
    }

    fn offline(name: &str, ts: std::ops::RangeInclusive<i64>) -> Arc<LazySegment> {
        let rows: Vec<Row> = ts
            .map(|t| trip(["sf", "la"][(t % 2) as usize], t))
            .collect();
        let seg = Segment::build(name, &schema(), rows, &IndexSpec::none()).unwrap();
        Arc::new(Segment::load_lazy(seg.persist().unwrap()).unwrap())
    }

    /// Offline: ts 0..=199 over two segments. Realtime: ts 150..=249 —
    /// the 150..=199 overlap is exactly what the boundary must dedup.
    fn hybrid() -> (Arc<HybridTable>, Arc<OlapTable>) {
        let table = OlapTable::new(
            TableConfig::new("trips", schema())
                .with_partitions(1)
                .with_time_column("ts"),
        )
        .unwrap();
        for t in 150..=249 {
            table
                .ingest(0, trip(["sf", "la"][(t % 2) as usize], t))
                .unwrap();
        }
        let hybrid = HybridTable::new("trips", schema(), "ts", RealtimeSide::Direct(table.clone()));
        hybrid
            .register_offline_segment(offline("off_0", 0..=99), None)
            .unwrap();
        hybrid
            .register_offline_segment(offline("off_1", 100..=199), None)
            .unwrap();
        (Arc::new(hybrid), table)
    }

    fn count_pushdown() -> Pushdown {
        Pushdown {
            aggregation: Some(PushedAgg {
                group_by: Arc::new(vec![]),
                aggs: Arc::new(vec![("n".into(), AggFn::Count)]),
            }),
            ..Default::default()
        }
    }

    #[test]
    fn boundary_dedups_the_overlap() {
        let (h, _) = hybrid();
        assert_eq!(h.time_boundary(), Some(199));
        let out = h.scan(&count_pushdown()).unwrap();
        // 200 offline rows + 50 realtime rows past the boundary; the 50
        // overlapping realtime rows (150..=199) must not be recounted
        assert_eq!(out.rows[0].get_int("n"), Some(250));
    }

    #[test]
    fn avg_is_exact_across_the_boundary() {
        let (h, _) = hybrid();
        let pd = Pushdown {
            aggregation: Some(PushedAgg {
                group_by: Arc::new(vec![]),
                aggs: Arc::new(vec![("a".into(), AggFn::Avg("fare".into()))]),
            }),
            ..Default::default()
        };
        let out = h.scan(&pd).unwrap();
        let expect = (0..=249).map(|t| t as f64 / 10.0).sum::<f64>() / 250.0;
        let got = out.rows[0].get_double("a").unwrap();
        assert!((got - expect).abs() < 1e-9, "avg {got} != {expect}");
    }

    #[test]
    fn recent_window_skips_the_offline_side() {
        let (h, _) = hybrid();
        let pd = Pushdown {
            predicates: Arc::new(vec![Predicate::new("ts", PredicateOp::Gt, 210i64)]),
            ..count_pushdown()
        };
        let out = h.scan(&pd).unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(39)); // 211..=249
        assert_eq!(out.ledger.segments_pruned, 2); // both archives skipped
        assert_eq!(out.bytes_read, 0); // without touching a single byte
        assert!(h.cache.lock().is_empty()); // skipped side never cached
    }

    #[test]
    fn historical_window_skips_the_realtime_side() {
        let (h, rt) = hybrid();
        let pd = Pushdown {
            predicates: Arc::new(vec![Predicate::new("ts", PredicateOp::Le, 50i64)]),
            ..count_pushdown()
        };
        let out = h.scan(&pd).unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(51)); // 0..=50
                                                        // zone maps prune the 100..=199 archive without loading columns
        assert_eq!(out.ledger.segments_pruned, 1);
        // the realtime store was never consulted: ingest more overlap and
        // ask again — the answer must not move
        for t in 0..=50 {
            rt.ingest(0, trip("dup", t)).unwrap();
        }
        let again = h.scan(&pd).unwrap();
        assert_eq!(again.rows[0].get_int("n"), Some(51));
        assert!(again.cache_hit);
    }

    #[test]
    fn cache_hits_are_fresh_for_realtime_data() {
        let (h, rt) = hybrid();
        let first = h.scan(&count_pushdown()).unwrap();
        assert_eq!(first.rows[0].get_int("n"), Some(250));
        assert!(!first.cache_hit);
        // new realtime rows must show up even though the offline slice
        // replays from cache
        for t in 250..260 {
            rt.ingest(0, trip("sf", t)).unwrap();
        }
        let second = h.scan(&count_pushdown()).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.rows[0].get_int("n"), Some(260));
        assert_eq!(second.bytes_read, 0);
    }

    #[test]
    fn segment_events_invalidate_the_cache() {
        let (h, _) = hybrid();
        let v0 = h.version();
        h.scan(&count_pushdown()).unwrap();
        assert!(h.scan(&count_pushdown()).unwrap().cache_hit);
        // a new archive lands (a realtime seal crossed into the store)
        h.register_offline_segment(offline("off_2", 200..=219), None)
            .unwrap();
        assert!(h.version() > v0);
        let out = h.scan(&count_pushdown()).unwrap();
        assert!(!out.cache_hit);
        // boundary moved to 219: 220 offline rows + 30 realtime (220..=249)
        assert_eq!(out.rows[0].get_int("n"), Some(250));
        // compaction-style replacement also invalidates
        h.replace_offline_segments(vec![(offline("compacted", 0..=219), None)])
            .unwrap();
        let out = h.scan(&count_pushdown()).unwrap();
        assert!(!out.cache_hit);
        assert_eq!(out.rows[0].get_int("n"), Some(250));
        assert!(h.remove_offline_segment("compacted"));
        // archive gone: realtime serves the whole axis again
        assert_eq!(h.time_boundary(), None);
        let out = h.scan(&count_pushdown()).unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(100)); // ts 150..=249
    }

    #[test]
    fn partition_hint_prunes_offline_scatter() {
        let rt = OlapTable::new(
            TableConfig::new("trips", schema())
                .with_partitions(1)
                .with_time_column("ts"),
        )
        .unwrap();
        let h = HybridTable::new("trips", schema(), "ts", RealtimeSide::Direct(rt))
            .with_partition_spec("city", 4);
        for p in 0..4 {
            h.register_offline_segment(offline(&format!("off_{p}"), 0..=99), Some(p))
                .unwrap();
        }
        let pd = Pushdown {
            partitions: Some(Arc::new(vec![2])),
            ..count_pushdown()
        };
        let out = h.scan(&pd).unwrap();
        assert_eq!(out.ledger.segments_queried, 1);
        assert_eq!(out.ledger.segments_pruned, 3);
        assert_eq!(out.rows[0].get_int("n"), Some(100));
    }

    #[test]
    fn federated_selection_orders_and_limits_across_sides() {
        let (h, _) = hybrid();
        let pd = Pushdown {
            projection: Some(Arc::new(vec!["ts".into()])),
            order_by: vec![("ts".into(), true)],
            limit: Some(3),
            ..Default::default()
        };
        let out = h.scan(&pd).unwrap();
        let ts: Vec<i64> = out.rows.iter().map(|r| r.get_int("ts").unwrap()).collect();
        assert_eq!(ts, vec![249, 248, 247]); // newest three, realtime side
        let pd_asc = Pushdown {
            projection: Some(Arc::new(vec!["ts".into()])),
            order_by: vec![("ts".into(), false)],
            limit: Some(3),
            ..Default::default()
        };
        let out = h.scan(&pd_asc).unwrap();
        let ts: Vec<i64> = out.rows.iter().map(|r| r.get_int("ts").unwrap()).collect();
        assert_eq!(ts, vec![0, 1, 2]); // oldest three, offline side
    }
}
