//! The OLAP query model.
//!
//! §3: the OLAP layer "provides a limited SQL capability ... optimized for
//! serving analytical queries including filtering, aggregations with group
//! by, order by in a high throughput, low latency manner." Joins and
//! subqueries deliberately do not exist here — they live in the full SQL
//! layer (`rtdi-sql`), which pushes what it can down to this model.

use crate::groups::Groups;
use rtdi_common::{AggAcc, AggFn, Deadline, Error, Priority, Result, Row, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Comparison operators supported by predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// One column predicate. Conjunctions only (Pinot-style WHERE a AND b).
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub column: String,
    pub op: PredicateOp,
    pub value: Value,
}

impl Predicate {
    pub fn new(column: impl Into<String>, op: PredicateOp, value: impl Into<Value>) -> Self {
        Predicate {
            column: column.into(),
            op,
            value: value.into(),
        }
    }

    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Self {
        Self::new(column, PredicateOp::Eq, value)
    }

    /// Evaluate against a materialized row. Segments, sealed and consuming,
    /// evaluate via indices or columnar scans; this is the row semantics
    /// they are tested against ([`crate::reference`]) and what the row-store
    /// baseline runs.
    pub fn matches(&self, row: &Row) -> bool {
        let Some(v) = row.get(&self.column) else {
            return false;
        };
        if v.is_null() {
            return false;
        }
        let ord = v.total_cmp(&self.value);
        match self.op {
            PredicateOp::Eq => ord == std::cmp::Ordering::Equal,
            PredicateOp::Ne => ord != std::cmp::Ordering::Equal,
            PredicateOp::Lt => ord == std::cmp::Ordering::Less,
            PredicateOp::Le => ord != std::cmp::Ordering::Greater,
            PredicateOp::Gt => ord == std::cmp::Ordering::Greater,
            PredicateOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

/// Sort direction for ORDER BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    Asc,
    Desc,
}

impl SortOrder {
    /// An ascending comparison, in this direction.
    pub fn apply(self, ord: Ordering) -> Ordering {
        match self {
            SortOrder::Asc => ord,
            SortOrder::Desc => ord.reverse(),
        }
    }
}

/// An OLAP query: either a selection (projected columns) or an aggregation
/// (aggs + optional group-by).
///
/// The shape fields (`predicates`, `select`, `aggregations`, `group_by`)
/// are `Arc`-shared so a planner can stamp out per-scan queries from a
/// cached pushdown with reference bumps instead of deep clones — the SQL
/// connector reuses one parsed pushdown across every dashboard refresh.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub table: String,
    pub predicates: Arc<Vec<Predicate>>,
    /// Selection columns (empty + empty aggs = select all columns).
    pub select: Arc<Vec<String>>,
    /// Aggregations, each with an output name.
    pub aggregations: Arc<Vec<(String, AggFn)>>,
    pub group_by: Arc<Vec<String>>,
    pub order_by: Vec<(String, SortOrder)>,
    pub limit: Option<usize>,
    /// Partition-pruned scatter: when set, only segments/servers hosting
    /// one of these partition ids are consulted (derived by the SQL
    /// optimizer from partition-key equality predicates).
    pub partitions: Option<Arc<Vec<usize>>>,
    /// Abort-by deadline: servers check it between segments and return a
    /// partial result covering whatever they finished (degraded serving,
    /// not an error). `None` = unbounded.
    pub deadline: Option<Deadline>,
    /// Scheduling lane; brokers with admission control shed the backfill
    /// lane first under pressure.
    pub priority: Priority,
}

impl Query {
    pub fn select_all(table: impl Into<String>) -> Self {
        Query {
            table: table.into(),
            predicates: Arc::new(Vec::new()),
            select: Arc::new(Vec::new()),
            aggregations: Arc::new(Vec::new()),
            group_by: Arc::new(Vec::new()),
            order_by: Vec::new(),
            limit: None,
            partitions: None,
            deadline: None,
            priority: Priority::default(),
        }
    }

    pub fn filter(mut self, p: Predicate) -> Self {
        Arc::make_mut(&mut self.predicates).push(p);
        self
    }

    pub fn columns(mut self, cols: &[&str]) -> Self {
        self.select = Arc::new(cols.iter().map(|c| c.to_string()).collect());
        self
    }

    pub fn aggregate(mut self, name: impl Into<String>, f: AggFn) -> Self {
        Arc::make_mut(&mut self.aggregations).push((name.into(), f));
        self
    }

    pub fn group(mut self, cols: &[&str]) -> Self {
        self.group_by = Arc::new(cols.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Does the partition hint (if any) admit partition `p`? Segments with
    /// an unknown partition are always admitted.
    pub fn admits_partition(&self, p: Option<usize>) -> bool {
        match (&self.partitions, p) {
            (Some(allowed), Some(p)) => allowed.contains(&p),
            _ => true,
        }
    }

    pub fn order(mut self, col: impl Into<String>, order: SortOrder) -> Self {
        self.order_by.push((col.into(), order));
        self
    }

    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Attach an abort-by deadline.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Route the query onto a scheduling lane.
    pub fn lane(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same query with deadline/priority stripped — the canonical
    /// shape used for result-cache keys, so two identical queries issued
    /// at different times (hence different absolute deadlines) share a
    /// cache entry.
    pub fn cache_shape(&self) -> Query {
        let mut q = self.clone();
        q.deadline = None;
        q.priority = Priority::default();
        q
    }

    /// The query's shape: groups (a bare GROUP BY has no aggregate and
    /// still answers one row per group) or rows.
    pub fn is_aggregation(&self) -> bool {
        !self.aggregations.is_empty() || !self.group_by.is_empty()
    }

    /// A group's accumulators before it has seen a row, one per aggregation.
    pub(crate) fn new_accs(&self) -> Vec<AggAcc> {
        self.aggregations.iter().map(|(_, f)| f.new_acc()).collect()
    }
}

/// What a scatter-gather covered and what it cost. Every layer of the read
/// path — a segment, a table, a broker, a federation slice, a connector
/// scan — books into one of these, and layers add up with
/// [`ScanLedger::absorb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanLedger {
    /// Documents actually visited (index efficiency measure; the star-tree
    /// path reports pre-aggregated node visits instead).
    pub docs_scanned: u64,
    /// Segments consulted after pruning.
    pub segments_queried: u64,
    /// Segments skipped because partition, time-range or zone-map
    /// statistics proved no document could match (lazy segments skip
    /// column reads entirely).
    pub segments_pruned: u64,
    /// Segments skipped because no live replica could serve them.
    pub segments_unavailable: u64,
    /// Segments shed because the deadline expired before they were
    /// served (disjoint from `segments_unavailable`).
    pub segments_shed: u64,
    /// True when the query's deadline expired mid-scan and the result
    /// covers only the segments finished in time.
    pub deadline_exceeded: bool,
}

impl ScanLedger {
    /// Add another scan's counters to this one.
    pub fn absorb(&mut self, other: &ScanLedger) {
        self.docs_scanned += other.docs_scanned;
        self.segments_queried += other.segments_queried;
        self.segments_pruned += other.segments_pruned;
        self.segments_unavailable += other.segments_unavailable;
        self.segments_shed += other.segments_shed;
        self.deadline_exceeded |= other.deadline_exceeded;
    }

    /// Book one segment shed on an expired deadline.
    pub fn shed(&mut self) {
        self.segments_shed += 1;
        self.deadline_exceeded = true;
    }

    /// True when one or more segments could not be served and the result
    /// covers only the rest (Pinot partial-response semantics).
    pub fn partial(&self) -> bool {
        self.segments_unavailable > 0 || self.deadline_exceeded
    }
}

/// A query result: rows plus the ledger of the scan that produced them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    pub rows: Vec<Row>,
    pub ledger: ScanLedger,
    /// True when a star-tree answered the aggregation without touching
    /// raw documents.
    pub used_startree: bool,
}

/// A gathered but not yet finalized query plus its ledger — what
/// [`crate::scatter::gather`] folds segments into, and what
/// [`crate::table::OlapTable::query_partial`] and
/// [`crate::broker::Broker::query_partial`] hand to a federation layer
/// that must union this store's slice with another store's slice *before*
/// finalizing (keeping AVG / DISTINCTCOUNT exact, and ORDER BY / LIMIT
/// global, across the realtime / offline time boundary).
#[derive(Debug, Clone, Default)]
pub struct PartialResult {
    pub agg: PartialAgg,
    pub ledger: ScanLedger,
}

impl PartialResult {
    /// Book one served segment and fold its partial in.
    pub fn serve(&mut self, part: PartialAgg) {
        self.ledger.segments_queried += 1;
        self.ledger.docs_scanned += part.docs_scanned;
        self.agg.merge(part);
    }

    /// Fold another store's partial result into this one.
    pub fn merge(&mut self, other: PartialResult) {
        self.ledger.absorb(&other.ledger);
        self.agg.merge(other.agg);
    }

    /// Finalize into a [`QueryResult`]. This is where a scan that served
    /// nothing becomes an error: a caller that still has another slice to
    /// merge in decides on the merged ledger, not on each slice's.
    pub fn finalize(self, query: &Query) -> Result<QueryResult> {
        let (ledger, table) = (self.ledger, &query.table);
        if ledger.segments_queried == 0 && ledger.deadline_exceeded {
            return Err(Error::DeadlineExceeded(format!(
                "table '{table}': deadline expired before any segment was served"
            )));
        }
        if ledger.segments_queried == 0 && ledger.segments_unavailable > 0 {
            return Err(Error::Unavailable(format!(
                "table '{table}' fully unavailable: no segment could be served"
            )));
        }
        let used_startree = self.agg.used_startree;
        Ok(QueryResult {
            rows: self.agg.finalize(query),
            ledger,
            used_startree,
        })
    }
}

/// One segment's share of a query — the unit shipped from segments/servers
/// to the broker for the "merge" step of scatter-gather-merge: per-group
/// accumulators for an aggregation (shipping accumulators, not finalized
/// values, keeps AVG and DISTINCTCOUNT correct across segments), rows for
/// a selection.
#[derive(Debug, Clone, Default)]
pub struct PartialAgg {
    pub groups: Groups,
    /// A selection's rows: the segment's own top `limit` when the query
    /// has one, in segment order otherwise.
    pub rows: Vec<Row>,
    pub docs_scanned: u64,
    pub used_startree: bool,
}

impl PartialAgg {
    /// Merge another partial in: groups fold, rows concatenate.
    pub fn merge(&mut self, other: PartialAgg) {
        self.docs_scanned += other.docs_scanned;
        self.used_startree |= other.used_startree;
        self.rows.extend(other.rows);
        self.groups.merge(other.groups);
    }

    /// Finalize into result rows (applying ORDER BY / LIMIT).
    pub fn finalize(mut self, query: &Query) -> Vec<Row> {
        if !query.is_aggregation() {
            sort_and_limit(&mut self.rows, &query.order_by, query.limit);
            return self.rows;
        }
        self.groups.into_rows(query)
    }
}

/// Cut `items` to the first `limit` in `order` and leave them in that
/// order — the ORDER BY / LIMIT of things that are not rows yet (group
/// indices, doc ids). `order` must tie no two items: the selection and the
/// sort are unstable.
pub(crate) fn sort_and_cut<T>(
    items: &mut Vec<T>,
    limit: Option<usize>,
    order: impl Fn(&T, &T) -> Ordering + Copy,
) {
    let keep = limit.map_or(items.len(), |n| n.min(items.len()));
    if 0 < keep && keep < items.len() {
        items.select_nth_unstable_by(keep - 1, order);
    }
    items.truncate(keep);
    items.sort_unstable_by(order);
}

/// Sort + limit over built rows: the broker's merge of the segments' own
/// top rows, and the row-at-a-time executors.
pub fn sort_and_limit(rows: &mut Vec<Row>, order_by: &[(String, SortOrder)], limit: Option<usize>) {
    if !order_by.is_empty() {
        rows.sort_by(|a, b| {
            for (col, dir) in order_by {
                let va = a.get(col).unwrap_or(&Value::Null);
                let vb = b.get(col).unwrap_or(&Value::Null);
                let ord = dir.apply(va.total_cmp(vb));
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let Some(n) = limit {
        rows.truncate(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_matching() {
        let row = Row::new().with("city", "sf").with("fare", 12.5);
        assert!(Predicate::eq("city", "sf").matches(&row));
        assert!(!Predicate::eq("city", "la").matches(&row));
        assert!(Predicate::new("fare", PredicateOp::Gt, 10.0).matches(&row));
        assert!(Predicate::new("fare", PredicateOp::Le, 12.5).matches(&row));
        assert!(!Predicate::new("fare", PredicateOp::Lt, 12.5).matches(&row));
        assert!(Predicate::new("fare", PredicateOp::Ne, 0.0).matches(&row));
        // missing column or null never matches
        assert!(!Predicate::eq("ghost", 1i64).matches(&row));
        let with_null = Row::new().with("x", Value::Null);
        assert!(!Predicate::eq("x", 1i64).matches(&with_null));
    }

    #[test]
    fn int_double_cross_type_predicates() {
        let row = Row::new().with("n", 5i64);
        assert!(Predicate::new("n", PredicateOp::Lt, 5.5).matches(&row));
        assert!(Predicate::new("n", PredicateOp::Eq, 5.0).matches(&row));
    }

    #[test]
    fn builder_composes() {
        let q = Query::select_all("orders")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count)
            .group(&["restaurant"])
            .order("n", SortOrder::Desc)
            .limit(10);
        assert!(q.is_aggregation());
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(*q.group_by, vec!["restaurant"]);
        assert_eq!(q.limit, Some(10));
        // shape clones are reference bumps, not deep copies
        let stamped = q.clone();
        assert!(Arc::ptr_eq(&q.predicates, &stamped.predicates));
        assert!(Arc::ptr_eq(&q.aggregations, &stamped.aggregations));
    }

    #[test]
    fn sort_and_limit_orders_nulls_first_asc() {
        let mut rows = vec![
            Row::new().with("x", 3i64),
            Row::new().with("x", Value::Null),
            Row::new().with("x", 1i64),
            Row::new().with("x", 2i64),
        ];
        sort_and_limit(&mut rows, &[("x".into(), SortOrder::Asc)], Some(3));
        let vals: Vec<Option<i64>> = rows.iter().map(|r| r.get_int("x")).collect();
        // Null ranks lowest in total_cmp -> first in Asc
        assert_eq!(vals, vec![None, Some(1), Some(2)]);
    }

    #[test]
    fn multi_key_sort() {
        let mut rows = vec![
            Row::new().with("a", 1i64).with("b", 2i64),
            Row::new().with("a", 1i64).with("b", 1i64),
            Row::new().with("a", 0i64).with("b", 9i64),
        ];
        sort_and_limit(
            &mut rows,
            &[("a".into(), SortOrder::Asc), ("b".into(), SortOrder::Desc)],
            None,
        );
        assert_eq!(rows[0].get_int("b"), Some(9));
        assert_eq!(rows[1].get_int("b"), Some(2));
        assert_eq!(rows[2].get_int("b"), Some(1));
    }
}
