//! Immutable columnar segments with index-accelerated execution.
//!
//! §4.3: "As a column store, Pinot supports a number of fast indexing
//! techniques, such as inverted, range, sorted and startree index, to
//! answer the low-latency OLAP queries" and "has incorporated optimized
//! data structures such as bit compressed forward indices, for lowering
//! the data footprint."
//!
//! A [`Segment`] holds dictionary-encoded typed columns plus whichever
//! indices the [`IndexSpec`] requested. Per-segment query execution picks
//! the cheapest access path per predicate: sorted-column binary search,
//! inverted-index bitmap, range-index buckets, or a columnar scan.

use crate::groups::{Groups, KeyCells};
use crate::query::{
    sort_and_cut, PartialAgg, PartialResult, Predicate, PredicateOp, Query, QueryResult,
    ScanLedger, SortOrder,
};
use crate::realtime::MutableSegment;
use crate::startree::{StarTree, StarTreeSpec};
use bytes::Bytes;
use rtdi_common::{AggAcc, AggFn, Error, Result, Row, Schema, Timestamp, Value};
use rtdi_storage::bitmap::Bitmap;
use rtdi_storage::column::{ColumnData, BLOCK};
use rtdi_storage::segfile;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which indices to build for a segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexSpec {
    /// Columns with inverted (posting-list) indices.
    pub inverted: Vec<String>,
    /// Physically sort the segment by this column; equality/range
    /// predicates on it become binary searches.
    pub sorted: Option<String>,
    /// Numeric columns with bucketed range indices.
    pub range: Vec<String>,
    /// Star-tree pre-aggregation.
    pub startree: Option<StarTreeSpec>,
}

impl IndexSpec {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn with_inverted(mut self, cols: &[&str]) -> Self {
        self.inverted = cols.iter().map(|c| c.to_string()).collect();
        self
    }

    pub fn with_sorted(mut self, col: &str) -> Self {
        self.sorted = Some(col.to_string());
        self
    }

    pub fn with_range(mut self, cols: &[&str]) -> Self {
        self.range = cols.iter().map(|c| c.to_string()).collect();
        self
    }

    pub fn with_startree(mut self, spec: StarTreeSpec) -> Self {
        self.startree = Some(spec);
        self
    }
}

/// Append the non-NULL cell to a group key as `value_at(doc)` would
/// display, without building the value (a bytes cell aside).
fn render_key_cell(col: &ColumnData, doc: usize, key: &mut KeyCells) {
    match col {
        ColumnData::Int { values, .. } => key.push(Some(values[doc])),
        ColumnData::Double { values, .. } => key.push(Some(values[doc])),
        ColumnData::Bool { values, .. } => key.push(Some(values.get(doc))),
        ColumnData::Str { dict, ids, .. } => key.push_str(Some(&dict[ids[doc] as usize])),
        ColumnData::Bytes { .. } => key.push(Some(col.value_at(doc))),
    }
}

/// Partition-hash of the value at `doc` without cloning strings; the
/// hash is identical to `value_at(doc).partition_hash()` so distinct
/// sets merge correctly with other segments.
#[inline]
fn hash_at(col: &ColumnData, doc: usize) -> Option<u64> {
    (!col.nulls().get(doc)).then(|| match col {
        ColumnData::Int { values, .. } => Value::hash_of_int(values[doc]),
        ColumnData::Double { values, .. } => Value::hash_of_double(values[doc]),
        ColumnData::Str { dict, ids, .. } => Value::hash_of_str(&dict[ids[doc] as usize]),
        ColumnData::Bool { .. } | ColumnData::Bytes { .. } => col.value_at(doc).partition_hash(),
    })
}

/// What an Int block's bounds settle about a predicate on its docs.
#[derive(Clone, Copy)]
enum Settled {
    /// No doc of the block can match.
    Nothing,
    /// Every non-NULL doc matches.
    Whole,
    /// Each doc must be tested.
    Open,
}

impl Settled {
    /// The one range reasoner asked twice: can a value in `[lo, hi]` pass
    /// `op literal`, and can one pass the opposite?
    fn of((lo, hi): (i64, i64), op: PredicateOp, literal: &Value) -> Settled {
        use segfile::ZoneValue::Int;
        let may = |op| range_overlaps(&Int(lo), &Int(hi), op, literal);
        if lo > hi || !may(op) {
            Settled::Nothing
        } else if !may(opposite(op)) {
            Settled::Whole
        } else {
            Settled::Open
        }
    }
}

/// The operator that accepts exactly the values `op` refuses (values of
/// one total order, so one of the two holds for each).
fn opposite(op: PredicateOp) -> PredicateOp {
    match op {
        PredicateOp::Eq => PredicateOp::Ne,
        PredicateOp::Ne => PredicateOp::Eq,
        PredicateOp::Lt => PredicateOp::Ge,
        PredicateOp::Ge => PredicateOp::Lt,
        PredicateOp::Le => PredicateOp::Gt,
        PredicateOp::Gt => PredicateOp::Le,
    }
}

/// `lo <= key <= hi`, inverted when `negate`: every comparison operator
/// over a totally ordered integer key is one such test, so a scan kernel
/// carries no per-document operator dispatch.
#[derive(Clone, Copy)]
struct KeyRange {
    lo: i64,
    hi: i64,
    negate: bool,
}

impl KeyRange {
    const EMPTY: (i64, i64) = (1, 0);

    /// The keys `op needle` accepts when the keys equal to the needle are
    /// `eq_lo..=eq_hi`: one key for a number, a span of dictionary ids
    /// (empty when the needle is absent) for a string.
    fn around(op: PredicateOp, eq_lo: i64, eq_hi: i64) -> KeyRange {
        let (lo, hi) = match op {
            PredicateOp::Eq | PredicateOp::Ne => (eq_lo, eq_hi),
            PredicateOp::Lt => eq_lo
                .checked_sub(1)
                .map_or(Self::EMPTY, |hi| (i64::MIN, hi)),
            PredicateOp::Le => (i64::MIN, eq_hi),
            PredicateOp::Gt => eq_hi
                .checked_add(1)
                .map_or(Self::EMPTY, |lo| (lo, i64::MAX)),
            PredicateOp::Ge => (eq_lo, i64::MAX),
        };
        KeyRange {
            lo,
            hi,
            negate: op == PredicateOp::Ne,
        }
    }

    #[inline]
    fn holds(self, key: i64) -> bool {
        ((self.lo <= key) & (key <= self.hi)) != self.negate
    }
}

/// `f64::total_cmp` as an integer order: `a.total_cmp(&b)` equals
/// `f64_key(a).cmp(&f64_key(b))`.
#[inline]
fn f64_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A predicate lowered onto a column's physical representation: the batch
/// kernels compare raw `i64`/`f64`/dictionary-id values and never build a
/// [`Value`] per document.
struct CompiledPred<'a> {
    /// NULL matches nothing.
    nulls: &'a Bitmap,
    test: DocTest<'a>,
}

/// What a non-NULL document must pass: its raw value, as an integer key,
/// lies in a range.
enum DocTest<'a> {
    /// A cross-type comparison: the same outcome for every document.
    Const(bool),
    Int(&'a [i64], KeyRange),
    /// Int column compared against a Double literal — each value widens,
    /// matching `Value::total_cmp`'s `(a as f64).total_cmp(b)` exactly.
    IntAsDouble(&'a [i64], KeyRange),
    Double(&'a [f64], KeyRange),
    Bool(&'a Bitmap, KeyRange),
    /// String predicates become integer comparisons of dictionary ids.
    StrId(&'a [u32], KeyRange),
    /// An ordered operator over a consuming segment's insertion-ordered
    /// dictionary: evaluated once per dictionary entry, looked up per id.
    StrIn(&'a [u32], Vec<bool>),
    /// A bytes column against a bytes literal, compared as the values are.
    Bytes(&'a [Vec<u8>], PredicateOp, &'a [u8]),
}

/// Does `op` accept this `lhs.cmp(rhs)` outcome?
#[inline]
fn op_accepts(op: PredicateOp, ord: Ordering) -> bool {
    match op {
        PredicateOp::Eq => ord == Ordering::Equal,
        PredicateOp::Ne => ord != Ordering::Equal,
        PredicateOp::Lt => ord == Ordering::Less,
        PredicateOp::Le => ord != Ordering::Greater,
        PredicateOp::Gt => ord == Ordering::Greater,
        PredicateOp::Ge => ord != Ordering::Less,
    }
}

impl<'a> CompiledPred<'a> {
    fn compile(col: &'a ColumnData, op: PredicateOp, rhs: &'a Value) -> CompiledPred<'a> {
        let keys = |key: i64| KeyRange::around(op, key, key);
        let test = match (col, rhs) {
            (ColumnData::Int { values, .. }, Value::Int(rhs)) => DocTest::Int(values, keys(*rhs)),
            (ColumnData::Int { values, .. }, Value::Double(rhs)) => {
                DocTest::IntAsDouble(values, keys(f64_key(*rhs)))
            }
            (ColumnData::Double { values, .. }, Value::Int(rhs)) => {
                DocTest::Double(values, keys(f64_key(*rhs as f64)))
            }
            (ColumnData::Double { values, .. }, Value::Double(rhs)) => {
                DocTest::Double(values, keys(f64_key(*rhs)))
            }
            (ColumnData::Bool { values, .. }, Value::Bool(rhs)) => {
                DocTest::Bool(values, keys(*rhs as i64))
            }
            (
                ColumnData::Str {
                    dict, ids, intern, ..
                },
                Value::Str(s),
            ) => match intern {
                // sorted dictionary: the ids below the needle end at `lo`,
                // the ids above it start at `hi`
                None => {
                    let lo = dict.partition_point(|d| d.as_str() < s.as_str()) as i64;
                    let hi = dict.partition_point(|d| d.as_str() <= s.as_str()) as i64;
                    DocTest::StrId(ids, KeyRange::around(op, lo, hi - 1))
                }
                // insertion-ordered dictionary: ids are identities only
                Some(intern) if matches!(op, PredicateOp::Eq | PredicateOp::Ne) => {
                    let (lo, hi) = intern
                        .get(s)
                        .map_or(KeyRange::EMPTY, |&id| (id as i64, id as i64));
                    DocTest::StrId(ids, KeyRange::around(op, lo, hi))
                }
                // nothing but NULLs so far: their id 0 names no entry, and
                // the scan tests a doc before it masks the NULLs out
                Some(_) if dict.is_empty() => DocTest::Const(false),
                Some(_) => {
                    let accepts = |d: &String| op_accepts(op, d.as_str().cmp(s));
                    DocTest::StrIn(ids, dict.iter().map(accepts).collect())
                }
            },
            (ColumnData::Bytes { values, .. }, Value::Bytes(rhs)) => {
                DocTest::Bytes(values, op, rhs)
            }
            _ => {
                // `Value::total_cmp` falls back to type ranks, so the
                // ordering is the same for every non-null document (stored
                // types never share a rank with an uncovered literal type)
                let col_rank: u8 = match col {
                    ColumnData::Bool { .. } => 1,
                    ColumnData::Int { .. } | ColumnData::Double { .. } => 2,
                    ColumnData::Str { .. } => 3,
                    ColumnData::Bytes { .. } => 4,
                };
                let rhs_rank: u8 = match rhs {
                    Value::Null => 0,
                    Value::Bool(_) => 1,
                    Value::Int(_) | Value::Double(_) => 2,
                    Value::Str(_) => 3,
                    Value::Bytes(_) => 4,
                    Value::Json(_) => 5,
                };
                DocTest::Const(op_accepts(op, col_rank.cmp(&rhs_rank)))
            }
        };
        CompiledPred {
            nulls: col.nulls(),
            test,
        }
    }

    /// Set the bit for every matching doc in `[from, to)`. The variant is
    /// matched once per run, so each arm is a tight loop over the raw
    /// column slice that fills whole bitmap words.
    fn eval_range(&self, from: usize, to: usize, out: &mut Bitmap) {
        let nulls = self.nulls;
        match &self.test {
            DocTest::Const(all) => out.set_where(from, to, nulls, |_| *all),
            DocTest::Int(v, keys) => out.set_where(from, to, nulls, |d| keys.holds(v[d])),
            DocTest::IntAsDouble(v, keys) => {
                out.set_where(from, to, nulls, |d| keys.holds(f64_key(v[d] as f64)))
            }
            DocTest::Double(v, keys) => {
                out.set_where(from, to, nulls, |d| keys.holds(f64_key(v[d])))
            }
            DocTest::Bool(v, keys) => {
                out.set_where(from, to, nulls, |d| keys.holds(v.get(d) as i64))
            }
            DocTest::StrId(ids, keys) => {
                out.set_where(from, to, nulls, |d| keys.holds(ids[d] as i64))
            }
            DocTest::StrIn(ids, accepts) => {
                out.set_where(from, to, nulls, |d| accepts[ids[d] as usize])
            }
            DocTest::Bytes(..) => out.set_where(from, to, nulls, |d| self.accepts(d)),
        }
    }

    /// Does non-NULL doc `d` match? One doc of what [`Self::eval_range`]
    /// tests a run of, for a binary search to probe with.
    fn accepts(&self, d: usize) -> bool {
        match &self.test {
            DocTest::Const(all) => *all,
            DocTest::Int(v, keys) => keys.holds(v[d]),
            DocTest::IntAsDouble(v, keys) => keys.holds(f64_key(v[d] as f64)),
            DocTest::Double(v, keys) => keys.holds(f64_key(v[d])),
            DocTest::Bool(v, keys) => keys.holds(v.get(d) as i64),
            DocTest::StrId(ids, keys) => keys.holds(ids[d] as i64),
            DocTest::StrIn(ids, accepts) => accepts[ids[d] as usize],
            DocTest::Bytes(v, op, rhs) => op_accepts(*op, v[d].as_slice().cmp(rhs)),
        }
    }
}

enum InvertedIndex {
    /// Posting list per dictionary id.
    Str(Vec<Bitmap>),
    Int(HashMap<i64, Bitmap>),
}

impl InvertedIndex {
    fn memory_bytes(&self) -> usize {
        match self {
            InvertedIndex::Str(v) => v.iter().map(Bitmap::memory_bytes).sum(),
            InvertedIndex::Int(m) => {
                m.values().map(Bitmap::memory_bytes).sum::<usize>() + m.len() * 8
            }
        }
    }
}

/// Bucketed numeric range index: each bucket holds candidate docs. The
/// bounds span the values that are not NaN; NaN docs of either sign, which
/// order above +∞ or below −∞, sit in no bucket but in `nan`.
struct RangeIndex {
    min: f64,
    max: f64,
    buckets: Vec<Bitmap>,
    nan: Bitmap,
}

impl RangeIndex {
    const BUCKETS: usize = 64;

    fn bucket_of(&self, v: f64) -> usize {
        if self.max <= self.min {
            return 0;
        }
        let frac = (v - self.min) / (self.max - self.min);
        ((frac * Self::BUCKETS as f64) as usize).min(Self::BUCKETS - 1)
    }

    /// Candidate docs for `op value` (superset; exact check follows). The
    /// NaN docs are candidates of every predicate.
    fn candidates(&self, op: PredicateOp, v: f64) -> Bitmap {
        let mut out = self.nan.clone();
        // a NaN literal buckets as the infinity of its sign
        let v = if v.is_nan() {
            f64::INFINITY.copysign(v)
        } else {
            v
        };
        let b = self.bucket_of(v.clamp(self.min, self.max));
        let range: std::ops::RangeInclusive<usize> = match op {
            PredicateOp::Eq => b..=b,
            PredicateOp::Lt | PredicateOp::Le => 0..=b,
            PredicateOp::Gt | PredicateOp::Ge => b..=Self::BUCKETS - 1,
            PredicateOp::Ne => 0..=Self::BUCKETS - 1,
        };
        // predicates entirely outside the value domain
        if (matches!(op, PredicateOp::Lt | PredicateOp::Le) && v < self.min)
            || (matches!(op, PredicateOp::Gt | PredicateOp::Ge) && v > self.max)
        {
            return out;
        }
        for i in range {
            if let Some(bm) = self.buckets.get(i) {
                out.or_with(bm);
            }
        }
        out
    }

    fn memory_bytes(&self) -> usize {
        let buckets = self.buckets.iter().map(Bitmap::memory_bytes);
        buckets.sum::<usize>() + self.nan.memory_bytes() + 16
    }
}

/// The index structures of a sealed segment.
#[derive(Default)]
pub(crate) struct Indexes {
    inverted: HashMap<String, InvertedIndex>,
    range_idx: HashMap<String, RangeIndex>,
    sorted_col: Option<String>,
    startree: Option<StarTree>,
}

impl Indexes {
    /// The inverted and range indexes `spec` asks for, over sealed columns
    /// of `n` docs already in `spec.sorted` order.
    fn build(
        columns: &BTreeMap<String, Arc<ColumnData>>,
        n: usize,
        spec: &IndexSpec,
    ) -> Result<Indexes> {
        let column = |kind: &str, col: &String| {
            columns
                .get(col)
                .ok_or_else(|| Error::Schema(format!("{kind} index on unknown column '{col}'")))
        };
        let mut indexes = Indexes {
            sorted_col: spec.sorted.clone(),
            ..Default::default()
        };
        for col in &spec.inverted {
            let idx = build_inverted(column("inverted", col)?, n)?;
            indexes.inverted.insert(col.clone(), idx);
        }
        for col in &spec.range {
            let idx = build_range(column("range", col)?, n)?;
            indexes.range_idx.insert(col.clone(), idx);
        }
        Ok(indexes)
    }

    fn memory_bytes(&self) -> usize {
        let inv: usize = self
            .inverted
            .values()
            .map(InvertedIndex::memory_bytes)
            .sum();
        let rng: usize = self.range_idx.values().map(RangeIndex::memory_bytes).sum();
        let st = self.startree.as_ref().map_or(0, StarTree::memory_bytes);
        inv + rng + st
    }
}

/// What query execution runs over: named columns of one length and
/// whichever indexes exist. A sealed [`Segment`] and a consuming
/// [`crate::realtime::MutableSegment`] answer through the same kernels
/// ([`filter_docs`], [`execute`], [`execute_partial`]); the one difference
/// in representation, a consuming column's insertion-ordered dictionary,
/// is handled where predicates compile ([`CompiledPred::compile`]).
pub(crate) trait ColumnSet {
    fn doc_count(&self) -> usize;
    /// Schema field names, interned once: every materialized row shares
    /// them instead of cloning a `String` per cell.
    fn field_names(&self) -> &[Arc<str>];
    fn column(&self, name: &str) -> Option<&ColumnData>;
    /// A consuming segment has none.
    fn indexes(&self) -> Option<&Indexes> {
        None
    }
}

/// Evaluate the conjunction of predicates, returning the matching doc
/// bitmap and how many docs had to be individually inspected.
pub(crate) fn filter_docs(seg: &dyn ColumnSet, predicates: &[Predicate]) -> Result<(Bitmap, u64)> {
    let mut selected = Bitmap::full(seg.doc_count());
    let mut scanned = 0u64;
    for pred in predicates {
        let (bm, cost) = eval_predicate(seg, pred, &selected)?;
        selected.and_with(&bm);
        scanned += cost;
        if selected.count() == 0 {
            break;
        }
    }
    Ok((selected, scanned))
}

fn eval_predicate(
    seg: &dyn ColumnSet,
    pred: &Predicate,
    current: &Bitmap,
) -> Result<(Bitmap, u64)> {
    let n = seg.doc_count();
    let col = seg
        .column(&pred.column)
        .ok_or_else(|| Error::Schema(format!("unknown column '{}'", pred.column)))?;
    let mut candidates = None;
    if let Some(indexes) = seg.indexes() {
        // 1. sorted column: binary search to a contiguous doc range
        if indexes.sorted_col.as_deref() == Some(pred.column.as_str()) {
            return Ok((eval_sorted(col, pred, n), 0));
        }
        // 2. inverted index for equality
        if matches!(pred.op, PredicateOp::Eq | PredicateOp::Ne) {
            if let Some(idx) = indexes.inverted.get(&pred.column) {
                if let Some(mut bm) = eval_inverted(idx, col, pred, n) {
                    if pred.op == PredicateOp::Ne {
                        bm.not_inplace();
                        // Ne must still exclude nulls
                        bm.and_not(col.nulls());
                    }
                    return Ok((bm, 0));
                }
            }
        }
        // 3. range index for numeric comparisons: a superset of the
        // matching docs, verified by the scan below
        if let Some(idx) = indexes.range_idx.get(&pred.column) {
            if let Some(v) = pred.value.as_double() {
                let mut bm = idx.candidates(pred.op, v);
                bm.and_with(current);
                candidates = Some(bm);
            }
        }
    }
    // 4. batch columnar scan over runs of candidate docs, cut at an Int
    // column's block edges: a block whose bounds settle the predicate is
    // skipped or taken whole, and only the docs of the others are tested
    let compiled = CompiledPred::compile(col, pred.op, &pred.value);
    let blocks = col.blocks();
    // runs ascend, so each block is settled once
    let mut settled = (usize::MAX, Settled::Open);
    let mut bm = Bitmap::new(n);
    let mut cost = 0u64;
    candidates
        .as_ref()
        .unwrap_or(current)
        .for_each_run(|mut from, to| {
            while from < to {
                let (end, verdict) = if blocks.is_empty() {
                    (to, Settled::Open)
                } else {
                    let b = from / BLOCK;
                    if settled.0 != b {
                        settled = (b, Settled::of(blocks[b], pred.op, &pred.value));
                    }
                    (to.min((b + 1) * BLOCK), settled.1)
                };
                match verdict {
                    Settled::Nothing => {}
                    Settled::Whole => bm.set_range_except(from, end, col.nulls()),
                    Settled::Open => {
                        cost += (end - from) as u64;
                        compiled.eval_range(from, end, &mut bm);
                    }
                }
                from = end;
            }
        });
    Ok((bm, cost))
}

/// A predicate on the column the segment is sorted by: NULLs first, then
/// ascending, so the docs below the literal and the docs up to it are two
/// prefixes. Each boundary is a binary search probing the raw column
/// through the compiled `<` and `<=` of the literal — no value is built
/// per probe.
fn eval_sorted(col: &ColumnData, pred: &Predicate, n: usize) -> Bitmap {
    let nulls = col.nulls();
    let prefix = |op| {
        let below = CompiledPred::compile(col, op, &pred.value);
        partition_point(n, |d| nulls.get(d) || below.accepts(d))
    };
    let (lower, upper) = (prefix(PredicateOp::Lt), prefix(PredicateOp::Le));
    let mut bm = Bitmap::new(n);
    match pred.op {
        PredicateOp::Eq => bm.set_range(lower, upper),
        PredicateOp::Ne => {
            bm.set_range(0, lower);
            bm.set_range(upper, n);
        }
        PredicateOp::Lt => bm.set_range(0, lower),
        PredicateOp::Le => bm.set_range(0, upper),
        PredicateOp::Gt => bm.set_range(upper, n),
        PredicateOp::Ge => bm.set_range(lower, n),
    }
    // nulls sort first (Null type-rank lowest): exclude them from
    // range results
    bm.and_not(nulls);
    bm
}

/// Execute a query over one segment's columns, finalized. `valid_docs`
/// restricts to currently-valid documents (upsert tables).
pub(crate) fn execute(
    seg: &dyn ColumnSet,
    query: &Query,
    valid_docs: Option<&Bitmap>,
) -> Result<QueryResult> {
    let agg = execute_partial(seg, query, valid_docs)?;
    let ledger = ScanLedger {
        docs_scanned: agg.docs_scanned,
        segments_queried: 1,
        ..Default::default()
    };
    PartialResult { agg, ledger }.finalize(query)
}

/// One segment's share of a query — the scatter-phase unit of the
/// broker's scatter-gather-merge: mergeable per-group accumulators for an
/// aggregation, the segment's own sorted-and-limited rows for a selection.
pub(crate) fn execute_partial(
    seg: &dyn ColumnSet,
    query: &Query,
    valid_docs: Option<&Bitmap>,
) -> Result<PartialAgg> {
    // star-tree fast path: aggregations with eq-only predicates over
    // tree dimensions (not usable under upsert filtering)
    if query.is_aggregation() && valid_docs.is_none() {
        if let Some(st) = seg.indexes().and_then(|i| i.startree.as_ref()) {
            if let Some(groups) = st.try_execute_partial(query)? {
                return Ok(PartialAgg {
                    groups,
                    used_startree: true,
                    ..Default::default()
                });
            }
        }
    }
    let (mut selected, scanned) = filter_docs(seg, &query.predicates)?;
    if let Some(valid) = valid_docs {
        selected.and_with(valid);
    }
    let count = selected.count();
    let mut partial = PartialAgg {
        docs_scanned: scanned + count as u64,
        ..Default::default()
    };
    let mut docs: Vec<u32> = Vec::new();
    if !query.is_aggregation() {
        selected.collect_into(&mut docs);
        partial.rows = select_rows(seg, query, &mut docs);
    } else if count == seg.doc_count() {
        // every doc selected: the folds walk the column vectors, no list
        partial.groups = aggregate(seg, query, 0..count, count);
    } else {
        // a list only for a fold that reads a doc: COUNT(*) alone is the
        // count
        let reads_docs = |(_, f): &(String, AggFn)| *f != AggFn::Count;
        if !query.group_by.is_empty() || query.aggregations.iter().any(reads_docs) {
            selected.collect_into(&mut docs);
        }
        partial.groups = aggregate(seg, query, docs.iter().map(|&d| d as usize), count);
    }
    Ok(partial)
}

/// The fold half of [`execute_partial`]: `docs` yields the `count`
/// selected docs in ascending order, and is not walked when no fold reads
/// a doc. Each aggregation slot folds into a [`Lane`].
fn aggregate<I>(seg: &dyn ColumnSet, query: &Query, docs: I, count: usize) -> Groups
where
    I: Iterator<Item = usize> + Clone,
{
    if count == 0 {
        return Groups::default();
    }
    if query.group_by.is_empty() {
        let accs = query.aggregations.iter().map(|(_, f)| {
            let mut lane = Lane::new(seg, f, 1);
            lane.fold_global(docs.clone());
            lane.emit(0, count as u64)
        });
        return Groups::global(accs.collect());
    }
    let lanes = |groups: usize| -> Vec<Lane<'_>> {
        let aggs = query.aggregations.iter();
        aggs.map(|(_, f)| Lane::new(seg, f, groups)).collect()
    };
    let key_col = |c: &String| KeyCol::of(seg.column(c), docs.clone());
    let cols: Vec<KeyCol<'_>> = query.group_by.iter().map(key_col).collect();
    group_by_ids(&cols, lanes, docs, count)
}

/// `KeyCol` id of a NULL cell.
const NULL: u32 = u32::MAX;

/// A group column as ids, [`NULL`] for a NULL cell.
enum KeyCol<'a> {
    /// A string column's dictionary ids, per doc. `nulls` only when the
    /// column has a NULL; `sorted` when id order is text order, as in a
    /// sealed segment.
    Dict {
        dict: &'a [String],
        ids: &'a [u32],
        nulls: Option<&'a Bitmap>,
        sorted: bool,
    },
    /// Another column's values, numbered as the selected docs meet them:
    /// per selected doc, in selection order, its number, and each number's
    /// key text, rendered once. An absent column has no ids, so every doc
    /// is NULL.
    Rendered { ids: Vec<u32>, text: KeyCells },
}

impl<'a> KeyCol<'a> {
    fn of(col: Option<&'a ColumnData>, docs: impl Iterator<Item = usize>) -> KeyCol<'a> {
        match col {
            Some(ColumnData::Str {
                dict,
                ids,
                nulls,
                intern,
                ..
            }) => KeyCol::Dict {
                dict,
                ids,
                nulls: nulls.any().then_some(nulls),
                sorted: intern.is_none(),
            },
            Some(col @ ColumnData::Int { values, .. }) => render(col, docs, |d| values[d] as u64),
            Some(col @ ColumnData::Double { values, .. }) => render(col, docs, |d| {
                // every NaN renders as one text, so it is one group
                let v = values[d];
                if v.is_nan() {
                    u64::MAX
                } else {
                    v.to_bits()
                }
            }),
            Some(col @ ColumnData::Bool { values, .. }) => {
                render(col, docs, |d| values.get(d) as u64)
            }
            // a bytes cell displays as its length
            Some(col @ ColumnData::Bytes { values, .. }) => {
                render(col, docs, |d| values[d].len() as u64)
            }
            None => KeyCol::Rendered {
                ids: Vec::new(),
                text: KeyCells::default(),
            },
        }
    }

    /// How many ids there are.
    fn len(&self) -> usize {
        match self {
            KeyCol::Dict { dict, .. } => dict.len(),
            KeyCol::Rendered { text, .. } => text.len(),
        }
    }

    /// The id of `doc`, the selection's `pos`-th doc.
    #[inline]
    fn id(&self, pos: usize, doc: usize) -> u32 {
        match self {
            KeyCol::Dict {
                nulls: Some(nulls), ..
            } if nulls.get(doc) => NULL,
            KeyCol::Dict { ids, .. } => ids[doc],
            KeyCol::Rendered { ids, .. } => ids.get(pos).copied().unwrap_or(NULL),
        }
    }

    /// The key cell of an id.
    fn cell(&self, id: u32) -> Option<&str> {
        match self {
            _ if id == NULL => None,
            KeyCol::Dict { dict, .. } => Some(&dict[id as usize]),
            KeyCol::Rendered { text, .. } => text.cell(id as usize),
        }
    }

    /// An integer that orders as the id's key cell does (NULL first, then
    /// text) wherever two of them differ: 0 for NULL, a sealed dictionary's
    /// id + 1, else the text's first 15 bytes and its length up to 15.
    /// Where two are equal, the cells are compared in full.
    fn abbrev(&self, id: u32) -> u128 {
        match (self, self.cell(id)) {
            (_, None) => 0,
            (KeyCol::Dict { sorted: true, .. }, _) => id as u128 + 1,
            (_, Some(text)) => {
                let (mut bytes, n) = ([0u8; 16], text.len().min(15));
                bytes[..n].copy_from_slice(&text.as_bytes()[..n]);
                bytes[15] = n as u8 + 1;
                u128::from_be_bytes(bytes)
            }
        }
    }
}

/// A column without a dictionary as a [`KeyCol::Rendered`] of the docs:
/// `value(doc)` tells apart what the non-NULL cells render as.
fn render<'a>(
    col: &ColumnData,
    docs: impl Iterator<Item = usize>,
    value: impl Fn(usize) -> u64,
) -> KeyCol<'a> {
    let mut text = KeyCells::default();
    // the values are table data, so the map hashes with a key of its own:
    // whoever writes rows cannot pick values that collide in it
    let mut seen: HashMap<u64, u32> = HashMap::new();
    let nulls = col.nulls();
    let ids = docs.map(|d| {
        if nulls.get(d) {
            return NULL;
        }
        *seen.entry(value(d)).or_insert_with(|| {
            render_key_cell(col, d, &mut text);
            text.len() as u32 - 1
        })
    });
    KeyCol::Rendered {
        ids: ids.collect(),
        text,
    }
}

/// Group on key columns' ids, and emit the groups in key order.
///
/// One dictionary column and at least as many docs as ids (dense): the
/// lanes are indexed by id, NULL's slot after the last one, so no doc
/// carries a group id. Otherwise groups are numbered as first met — one
/// column's through a per-id table, several columns' through a map of
/// their ids — into a per-doc `gids` vector the lanes fold through, so
/// lanes are as long as the groups found. Then the groups found are
/// sorted; a sealed dictionary's dense groups already lie in key order.
fn group_by_ids<'a, I>(
    cols: &[KeyCol<'_>],
    lanes: impl Fn(usize) -> Vec<Lane<'a>>,
    docs: I,
    count: usize,
) -> Groups
where
    I: Iterator<Item = usize> + Clone,
{
    let width = cols.len();
    // `keys` holds each lane group's key, `width` ids a group; `groups`
    // the lane groups that met a doc, each beside its first cell abbreviated
    let abbrev = |keys: &[u32], g: usize| (cols[0].abbrev(keys[g * width]), g);
    let (mut lanes, counts, keys, mut groups): (_, _, _, Vec<(u128, usize)>) = match cols {
        [KeyCol::Dict {
            dict, ids, nulls, ..
        }] if count >= dict.len() => {
            let null_slot = dict.len();
            let mut lanes = lanes(null_slot + 1);
            let counts = match nulls {
                Some(nulls) => fold_by_slot(&mut lanes, docs, null_slot + 1, |d| {
                    if nulls.get(d) {
                        null_slot
                    } else {
                        ids[d] as usize
                    }
                }),
                None => fold_by_slot(&mut lanes, docs, null_slot + 1, |d| ids[d] as usize),
            };
            let keys: Vec<u32> = (0..null_slot as u32).chain([NULL]).collect();
            let slots = std::iter::once(null_slot).chain(0..null_slot);
            let present = slots.filter(|&s| counts[s] > 0);
            let groups = present.map(|s| abbrev(&keys, s)).collect();
            (lanes, counts, keys, groups)
        }
        _ => {
            let (mut keys, mut gids) = (Vec::new(), Vec::with_capacity(count));
            if let [col] = cols {
                // slot `len` holds NULL
                let mut gid_of = vec![NULL; col.len() + 1];
                for (pos, d) in docs.clone().enumerate() {
                    let id = col.id(pos, d);
                    let slot = &mut gid_of[(id as usize).min(col.len())];
                    if *slot == NULL {
                        *slot = keys.len() as u32;
                        keys.push(id);
                    }
                    gids.push(*slot);
                }
            } else {
                // ids are numbers the segment gave, so FNV meets no chosen
                // collision; up to four pack into one integer key, which
                // costs a group no allocation of its own
                let mut narrow: HashMap<u128, u32, FnvBuildHasher> = HashMap::default();
                let mut wide: HashMap<Vec<u32>, u32, FnvBuildHasher> = HashMap::default();
                let mut key = Vec::with_capacity(width);
                for (pos, d) in docs.clone().enumerate() {
                    let id = |col: &KeyCol<'_>| col.id(pos, d);
                    let next = (keys.len() / width) as u32;
                    let g = if width <= 4 {
                        let packed = cols.iter().fold(0, |k, col| (k << 32) | id(col) as u128);
                        *narrow.entry(packed).or_insert(next)
                    } else {
                        key.clear();
                        key.extend(cols.iter().map(id));
                        wide.get(&key).copied().unwrap_or_else(|| {
                            wide.insert(key.clone(), next);
                            next
                        })
                    };
                    if g == next {
                        keys.extend(cols.iter().map(id));
                    }
                    gids.push(g);
                }
            }
            let len = keys.len() / width;
            let mut counts = vec![0u64; len];
            gids.iter().for_each(|&g| counts[g as usize] += 1);
            let mut lanes = lanes(len);
            for lane in &mut lanes {
                lane.fold(docs.clone().zip(gids.iter().map(|&g| g as usize)));
            }
            let groups = (0..len).map(|g| abbrev(&keys, g)).collect();
            (lanes, counts, keys, groups)
        }
    };
    let key = |g: usize| &keys[g * width..(g + 1) * width];
    // groups already in order sort in one pass; keys are compared cell by
    // cell only where the abbreviations tie
    groups.sort_unstable_by(|&(x, a), &(y, b)| {
        let ids = key(a).iter().zip(key(b));
        let mut ords = (cols.iter().zip(ids)).map(|(col, (&i, &j))| col.cell(i).cmp(&col.cell(j)));
        x.cmp(&y)
            .then_with(|| ords.find(|ord| ord.is_ne()).unwrap_or(Ordering::Equal))
    });
    let groups = groups.iter().map(|&(_, g)| g);
    let accs = emit(&mut lanes, &counts, groups.clone(), groups.len());
    let cells = groups.flat_map(|g| cols.iter().zip(key(g)).map(|(col, &id)| col.cell(id)));
    Groups::from_sorted(width, cells, accs)
}

/// Count the docs into `slots` groups by `slot(doc)` and fold every lane
/// over them; the doc count of each slot.
fn fold_by_slot<I>(
    lanes: &mut [Lane<'_>],
    docs: I,
    slots: usize,
    slot: impl Fn(usize) -> usize + Copy,
) -> Vec<u64>
where
    I: Iterator<Item = usize> + Clone,
{
    let mut counts = vec![0u64; slots];
    docs.clone().for_each(|d| counts[slot(d)] += 1);
    for lane in lanes {
        lane.fold(docs.clone().map(|d| (d, slot(d))));
    }
    counts
}

/// The accumulators of `groups` (`len` of them, `counts` holding each
/// group's doc count), group after group: lanes become `AggAcc`s only here.
fn emit(
    lanes: &mut [Lane<'_>],
    counts: &[u64],
    groups: impl Iterator<Item = usize>,
    len: usize,
) -> Vec<AggAcc> {
    let mut accs = Vec::with_capacity(len * lanes.len());
    for g in groups {
        accs.extend(lanes.iter_mut().map(|lane| lane.emit(g, counts[g])));
    }
    accs
}

/// A selection's rows: the selected docs are ordered on the ORDER BY
/// columns' cells and cut to LIMIT first, and only the survivors become
/// rows. An ORDER BY column outside the projection is NULL in every row (a
/// row is all a later sort would see) and orders nothing; docs that tie
/// keep doc order.
fn select_rows(seg: &dyn ColumnSet, query: &Query, docs: &mut Vec<u32>) -> Vec<Row> {
    // late materialization: resolve projected columns and interned
    // names once, then emit rows only for the surviving docs. An empty
    // select projects onto the schema.
    let select_names: Vec<Arc<str>>;
    let names: &[Arc<str>] = if query.select.is_empty() {
        seg.field_names()
    } else {
        select_names = query.select.iter().map(|s| Arc::from(s.as_str())).collect();
        &select_names
    };
    let cols: Vec<Option<&ColumnData>> = names.iter().map(|n| seg.column(n)).collect();

    let projected = |col: &String| names.iter().position(|n| **n == **col);
    let order: Vec<(&ColumnData, SortOrder)> = query
        .order_by
        .iter()
        .filter_map(|(col, dir)| Some((cols[projected(col)?]?, *dir)))
        .collect();
    let by_order_then_doc = |a: &u32, b: &u32| {
        for (col, dir) in &order {
            let ord = dir.apply(col.cmp_docs(*a as usize, *b as usize));
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(b)
    };
    if order.is_empty() {
        docs.truncate(query.limit.unwrap_or(docs.len()));
    } else {
        // doc ids are distinct, so no two docs tie: this is what a stable
        // sort of the rows would give
        sort_and_cut(docs, query.limit, by_order_then_doc);
    }

    let mut rows = Vec::with_capacity(docs.len());
    for &d in docs.iter() {
        let doc = d as usize;
        let mut row = Row::with_capacity(names.len());
        for (name, col) in names.iter().zip(&cols) {
            row.push(
                Arc::clone(name),
                col.map_or(Value::Null, |c| c.value_at(doc)),
            );
        }
        rows.push(row);
    }
    rows
}

/// An immutable, index-equipped columnar segment.
pub struct Segment {
    name: String,
    schema: Schema,
    /// Columns are shared (`Arc`) so a [`LazySegment`] view and a fully
    /// materialized segment can reference the same decoded data.
    columns: BTreeMap<String, Arc<ColumnData>>,
    field_names: Vec<Arc<str>>,
    doc_count: usize,
    indexes: Indexes,
}

impl ColumnSet for Segment {
    fn doc_count(&self) -> usize {
        self.doc_count
    }

    fn field_names(&self) -> &[Arc<str>] {
        &self.field_names
    }

    fn column(&self, name: &str) -> Option<&ColumnData> {
        self.columns.get(name).map(|c| c.as_ref())
    }

    fn indexes(&self) -> Option<&Indexes> {
        Some(&self.indexes)
    }
}

/// Schema field names as the shared names of materialized rows.
pub(crate) fn intern_field_names(schema: &Schema) -> Vec<Arc<str>> {
    schema.field_names().map(Arc::from).collect()
}

impl Segment {
    /// Build a segment from rows, constructing the requested indices:
    /// every row appended to a consuming segment, then sealed — the one
    /// row-to-column pivot there is. Row columns absent from the schema
    /// are dropped: the schema is the contract.
    pub fn build(
        name: impl Into<String>,
        schema: &Schema,
        rows: Vec<Row>,
        spec: &IndexSpec,
    ) -> Result<Segment> {
        let mut consuming = MutableSegment::new(name.into(), schema.clone());
        for row in &rows {
            consuming.push(row);
        }
        consuming.seal(spec)
    }

    /// Seal a consuming segment's columns (`columns[i]` holds
    /// `schema.fields[i]`): dictionaries are sorted, docs are reordered by
    /// `spec.sorted` through one permutation, and the indexes are built.
    ///
    /// Contract: an error depends on `schema` and `spec` alone, never on
    /// the cells (an index on a column the schema lacks or of a type it
    /// cannot take, a star-tree without dimensions). `OlapTable::new`
    /// checks a spec by sealing an empty segment and from then on hands
    /// full segments over by value; a data-dependent error added here would
    /// lose such a segment. `seal_errors_do_not_depend_on_the_rows` pins it.
    pub(crate) fn seal(
        name: String,
        schema: Schema,
        field_names: Vec<Arc<str>>,
        mut columns: Vec<ColumnData>,
        doc_count: usize,
        spec: &IndexSpec,
    ) -> Result<Segment> {
        columns.iter_mut().for_each(ColumnData::seal);
        if let Some(sorted) = &spec.sorted {
            let by = schema
                .field_index(sorted)
                .map(|i| &columns[i])
                .ok_or_else(|| {
                    Error::Schema(format!("sorted index on unknown column '{sorted}'"))
                })?;
            let mut order: Vec<u32> = (0..doc_count as u32).collect();
            order.sort_by(|&a, &b| by.cmp_docs(a as usize, b as usize));
            columns.iter_mut().for_each(|c| c.permute(&order));
        }
        let columns: BTreeMap<String, Arc<ColumnData>> = schema
            .fields
            .iter()
            .zip(columns)
            .map(|(f, c)| (f.name.clone(), Arc::new(c)))
            .collect();
        let indexes = Indexes::build(&columns, doc_count, spec)?;
        let mut segment = Segment {
            name,
            schema,
            columns,
            field_names,
            doc_count,
            indexes,
        };
        if let Some(st_spec) = &spec.startree {
            // the star-tree builder takes rows
            segment.indexes.startree = Some(StarTree::build(&segment.to_rows(), st_spec)?);
        }
        Ok(segment)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// In-memory footprint, indices included.
    pub fn memory_bytes(&self) -> usize {
        let cols: usize = self.columns.values().map(|c| c.memory_bytes()).sum();
        cols + self.indexes.memory_bytes()
    }

    /// Value of a column at a document.
    pub fn value_at(&self, column: &str, doc: usize) -> Value {
        self.columns
            .get(column)
            .map(|c| c.value_at(doc))
            .unwrap_or(Value::Null)
    }

    /// Materialize one document.
    pub fn row_at(&self, doc: usize) -> Row {
        let mut row = Row::with_capacity(self.field_names.len());
        for name in &self.field_names {
            row.push(Arc::clone(name), self.value_at(name, doc));
        }
        row
    }

    /// Materialize every document (used for deep-store encode and tests).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.doc_count).map(|i| self.row_at(i)).collect()
    }

    /// Min/max of an integer column's non-null values (time pruning): the
    /// fold of its block statistics, no scan of its values.
    pub fn int_range(&self, column: &str) -> Option<(Timestamp, Timestamp)> {
        self.columns.get(column)?.int_range()
    }

    /// Evaluate the conjunction of predicates, returning the matching doc
    /// bitmap and how many docs had to be individually inspected.
    pub fn filter_docs(&self, predicates: &[Predicate]) -> Result<(Bitmap, u64)> {
        filter_docs(self, predicates)
    }

    /// Execute a query against this segment. `valid_docs` restricts to
    /// currently-valid documents (upsert tables).
    pub fn execute(&self, query: &Query, valid_docs: Option<&Bitmap>) -> Result<QueryResult> {
        execute(self, query, valid_docs)
    }

    /// This segment's share of a query, unfinalized — the scatter-phase
    /// unit of the broker's scatter-gather-merge.
    pub fn execute_partial(
        &self,
        query: &Query,
        valid_docs: Option<&Bitmap>,
    ) -> Result<PartialAgg> {
        execute_partial(self, query, valid_docs)
    }

    /// Serialize into the on-disk segment format of
    /// [`rtdi_storage::segfile`]: per-column dictionary/bit-packed/RLE
    /// blocks, null bitmaps, zone maps, and a CRC32-checked footer whose
    /// index map makes every column's byte range independently
    /// addressable. Round-trips through [`Segment::load_lazy`].
    pub fn persist(&self) -> Result<Bytes> {
        let meta = segfile::SegmentMeta {
            name: self.name.clone(),
            table: self.schema.name.clone(),
            sorted_col: self.indexes.sorted_col.clone(),
            nrows: self.doc_count as u64,
        };
        let mut cols = Vec::with_capacity(self.schema.fields.len());
        for field in &self.schema.fields {
            let data = self.columns.get(&field.name).ok_or_else(|| {
                Error::Internal(format!("column '{}' missing at persist", field.name))
            })?;
            cols.push(data.as_ref());
        }
        segfile::encode_segment(&meta, &self.schema.fields, &cols)
    }

    /// Open persisted segment bytes without decoding any column: only the
    /// header, index map and CRC-checked footer are parsed. Columns
    /// decode on first touch (and zone maps can answer some queries
    /// without any column load at all).
    pub fn load_lazy(data: Bytes) -> Result<LazySegment> {
        Ok(LazySegment::from_file(segfile::SegmentFile::open(data)?))
    }
}

/// A persisted segment opened lazily: header and index map parsed, column
/// bytes untouched until a query needs them. Zone maps are consulted
/// before any column load, so a pruned segment costs header bytes only.
/// Each column decodes at most once, in the file, and is shared with every
/// view and with the file's own row reader.
pub struct LazySegment {
    file: segfile::SegmentFile,
    schema: Schema,
    field_names: Vec<Arc<str>>,
}

impl LazySegment {
    /// Wrap an opened file: a reader that already holds one (the warehouse
    /// hands its part files out opened) pays for no second open.
    pub fn from_file(file: segfile::SegmentFile) -> LazySegment {
        let schema = file.schema();
        let field_names = intern_field_names(&schema);
        LazySegment {
            file,
            schema,
            field_names,
        }
    }

    /// The file underneath: its typed row reader serves whoever needs rows
    /// of the types the columns were written with, from the columns this
    /// segment decoded.
    pub fn file(&self) -> &segfile::SegmentFile {
        &self.file
    }

    pub fn name(&self) -> &str {
        &self.file.meta().name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn doc_count(&self) -> usize {
        self.file.nrows()
    }

    /// Per-column index-map entries (byte ranges + zone maps).
    pub fn entries(&self) -> &[segfile::ColumnEntry] {
        self.file.entries()
    }

    /// Bytes parsed at open time (header + index map + footer) — the full
    /// cost of a zone-map-pruned query.
    pub fn header_bytes(&self) -> usize {
        self.file.header_bytes()
    }

    pub fn file_bytes(&self) -> usize {
        self.file.file_bytes()
    }

    /// How many columns have been decoded so far.
    pub fn columns_loaded(&self) -> usize {
        self.file.columns_loaded()
    }

    /// File bytes touched so far: the header plus every decoded column's
    /// block.
    pub fn bytes_loaded(&self) -> usize {
        self.file.bytes_loaded()
    }

    /// Columns this query touches: predicate, group-by and aggregation
    /// inputs, plus the projection (every field for a bare `SELECT *`).
    fn touched_columns(&self, query: &Query) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        let mut add = |n: &str| {
            if !names.iter().any(|x| x == n) {
                names.push(n.to_string());
            }
        };
        for p in query.predicates.iter() {
            add(&p.column);
        }
        for c in query.group_by.iter() {
            add(c);
        }
        for (_, f) in query.aggregations.iter() {
            match f {
                AggFn::Count => {}
                AggFn::Sum(c)
                | AggFn::Avg(c)
                | AggFn::Min(c)
                | AggFn::Max(c)
                | AggFn::DistinctCount(c) => add(c),
            }
        }
        if !query.is_aggregation() {
            if query.select.is_empty() {
                for f in &self.schema.fields {
                    add(&f.name);
                }
            } else {
                for c in query.select.iter() {
                    add(c);
                }
            }
        }
        names
    }

    /// Can any document in this segment satisfy every predicate, judging
    /// by per-column zone maps alone? Public so a federation planner can
    /// prune segments before scheduling scatter work (a pruned segment
    /// costs header bytes only).
    pub fn zones_may_match(&self, query: &Query) -> bool {
        let nrows = self.file.nrows() as u64;
        query.predicates.iter().all(|p| {
            self.file
                .entry(&p.column)
                .is_none_or(|e| zone_may_match(&e.zone, p, nrows))
        })
    }

    /// Min/max of an integer/timestamp column straight from the zone map —
    /// no column bytes are read. This is how the federation catalog learns
    /// each archival segment's time range.
    pub fn int_range(&self, column: &str) -> Option<(i64, i64)> {
        self.file.entry(column).and_then(|e| e.zone.int_bounds())
    }

    /// Execute a query, decoding only the columns it touches. When the
    /// zone maps prove no document can match, nothing is decoded and the
    /// result reports `segments_pruned = 1`.
    pub fn execute(&self, query: &Query) -> Result<QueryResult> {
        if !query.predicates.is_empty() && !self.zones_may_match(query) {
            let mut pruned = PartialResult::default();
            pruned.ledger.segments_pruned = 1;
            return pruned.finalize(query);
        }
        self.as_view(query)?.execute(query, None)
    }

    /// This segment's share of a query, unfinalized — the offline-side
    /// scatter unit of hybrid-table federation. The caller is expected to
    /// have consulted [`Self::zones_may_match`] first; an unprunable query
    /// decodes only the touched columns. `valid_docs` restricts the scan
    /// to documents a caller has already selected.
    pub fn execute_partial(
        &self,
        query: &Query,
        valid_docs: Option<&Bitmap>,
    ) -> Result<PartialAgg> {
        self.as_view(query)?.execute_partial(query, valid_docs)
    }

    fn as_view(&self, query: &Query) -> Result<Segment> {
        self.view(&self.touched_columns(query))
    }

    /// Materialize an index-free [`Segment`] view holding only the named
    /// columns (shared `Arc`s; each column decodes at most once). A name
    /// the file lacks is left out.
    pub fn view(&self, names: &[String]) -> Result<Segment> {
        let mut columns = BTreeMap::new();
        for name in names {
            if let Some(idx) = self.file.entries().iter().position(|e| e.name == *name) {
                columns.insert(name.clone(), self.file.column_at(idx)?);
            }
        }
        Ok(Segment {
            name: self.name().to_string(),
            schema: self.schema.clone(),
            columns,
            field_names: self.field_names.clone(),
            doc_count: self.file.nrows(),
            indexes: Indexes {
                sorted_col: self.file.meta().sorted_col.clone(),
                ..Default::default()
            },
        })
    }

    /// Fully materialize into an indexed [`Segment`] (the recovery path:
    /// deep-store bytes back to a servable segment): the decoded columns
    /// are sealed as a consuming segment's are, re-sorted by `spec.sorted`
    /// and indexed, a star-tree built when the spec asks for one.
    pub fn into_segment(&self, spec: &IndexSpec) -> Result<Segment> {
        let columns = (0..self.file.entries().len())
            .map(|idx| Ok(Arc::unwrap_or_clone(self.file.column_at(idx)?)))
            .collect::<Result<Vec<_>>>()?;
        Segment::seal(
            self.name().to_string(),
            self.schema.clone(),
            self.field_names.clone(),
            columns,
            self.file.nrows(),
            spec,
        )
    }
}

/// The one range reasoner: with a column's non-null values confined to
/// `[min, max]`, can `op literal` accept any of them? Every pruning
/// decision — a consuming or sealed segment's running time range, a
/// federation side of the time boundary, a zone map, an Int column's block
/// — comes here, so pruning can never disagree with itself. Bounds compare
/// with the literal the way the scan kernels compare a cell with it
/// (integers exactly, an integer against a double widened, doubles by
/// `f64::total_cmp`); a cross-type predicate is never pruned on.
fn range_overlaps(
    min: &segfile::ZoneValue,
    max: &segfile::ZoneValue,
    op: PredicateOp,
    literal: &Value,
) -> bool {
    use segfile::ZoneValue as Z;
    let cmp = |bound: &Z| match (bound, literal) {
        (Z::Int(x), Value::Int(v)) => Some(x.cmp(v)),
        (Z::Int(x), Value::Double(v)) => Some((*x as f64).total_cmp(v)),
        (Z::Double(x), Value::Int(v)) => Some(x.total_cmp(&(*v as f64))),
        (Z::Double(x), Value::Double(v)) => Some(x.total_cmp(v)),
        (Z::Str(x), Value::Str(v)) => Some(x.as_str().cmp(v)),
        (Z::Bool(x), Value::Bool(v)) => Some(x.cmp(v)),
        _ => None,
    };
    let (Some(lo), Some(hi)) = (cmp(min), cmp(max)) else {
        return true;
    };
    match op {
        PredicateOp::Eq => lo != Ordering::Greater && hi != Ordering::Less,
        PredicateOp::Ne => !(lo == Ordering::Equal && hi == Ordering::Equal),
        // the smallest value is the likeliest to be below the literal,
        // the largest to be above it
        PredicateOp::Lt | PredicateOp::Le => op_accepts(op, lo),
        PredicateOp::Gt | PredicateOp::Ge => op_accepts(op, hi),
    }
}

/// Can an integer column whose non-null values lie in `[lo, hi]` pass
/// every predicate put on `column`? Time pruning, for any holder of a time
/// range: `false` only when no value in the range can match.
pub fn int_range_may_match(predicates: &[Predicate], column: &str, lo: i64, hi: i64) -> bool {
    use segfile::ZoneValue::Int;
    let mut on_column = predicates.iter().filter(|p| p.column == column);
    on_column.all(|p| range_overlaps(&Int(lo), &Int(hi), p.op, &p.value))
}

/// Zone-map admission test: `false` only when no document in the segment
/// can satisfy `pred` (so pruning never changes results).
pub(crate) fn zone_may_match(zone: &segfile::ZoneMap, pred: &Predicate, nrows: u64) -> bool {
    if nrows == 0 || zone.null_count >= nrows {
        // empty segment or all-null column: predicates never match NULL
        return false;
    }
    match (&zone.min, &zone.max) {
        (Some(min), Some(max)) => range_overlaps(min, max, pred.op, &pred.value),
        // unordered statistics (raw bytes): cannot prune
        _ => true,
    }
}

/// One aggregation slot's per-group state while a segment folds: a typed
/// vector indexed by group where the fold is arithmetic, an [`AggAcc`]
/// per group where it is not. Docs are folded in ascending order, so a
/// group's values add up in doc order and every float is what an `AggAcc`
/// fed doc by doc would hold.
enum Lane<'a> {
    /// COUNT(*): the group's doc count, which the kernel keeps anyway.
    Count,
    /// SUM or AVG over an Int or Double column. `nulls` is the column's
    /// NULL mask only when it has a NULL, and then `counts` holds each
    /// group's non-NULL count; otherwise the group's doc count is the
    /// count and the loop tests nothing.
    Sum {
        avg: bool,
        values: Numbers<'a>,
        nulls: Option<&'a Bitmap>,
        sums: Vec<f64>,
        counts: Vec<u64>,
    },
    /// MIN/MAX (an `f64` lane seeded with ±∞ would turn an all-NaN MIN
    /// into ∞ where `AggAcc` gives NaN), DISTINCTCOUNT, and anything over
    /// an absent or non-numeric column: an `AggAcc` per group, fed the
    /// column's numbers, or its values' hashes when `distinct`.
    Acc {
        column: Option<&'a ColumnData>,
        distinct: bool,
        accs: Vec<AggAcc>,
    },
}

#[derive(Clone, Copy)]
enum Numbers<'a> {
    Int(&'a [i64]),
    Double(&'a [f64]),
}

impl<'a> Lane<'a> {
    /// The lane of `f` over `groups` groups. Whether its column has a NULL
    /// is decided here, once per column and segment.
    fn new(seg: &'a dyn ColumnSet, f: &AggFn, groups: usize) -> Lane<'a> {
        let acc = || Lane::Acc {
            column: f.input_column().and_then(|c| seg.column(c)),
            distinct: matches!(f, AggFn::DistinctCount(_)),
            accs: vec![f.new_acc(); groups],
        };
        let (avg, column) = match f {
            AggFn::Count => return Lane::Count,
            AggFn::Sum(c) => (false, c),
            AggFn::Avg(c) => (true, c),
            _ => return acc(),
        };
        let (values, nulls) = match seg.column(column) {
            Some(ColumnData::Int { values, nulls, .. }) => (Numbers::Int(values), nulls),
            Some(ColumnData::Double { values, nulls }) => (Numbers::Double(values), nulls),
            _ => return acc(),
        };
        let nulls = nulls.any().then_some(nulls);
        Lane::Sum {
            avg,
            values,
            nulls,
            sums: vec![0.0; groups],
            counts: if nulls.is_some() {
                vec![0; groups]
            } else {
                Vec::new()
            },
        }
    }

    /// Fold `(doc, group)` pairs in, the input's variant matched once per
    /// lane, not once per doc.
    fn fold(&mut self, pairs: impl Iterator<Item = (usize, usize)>) {
        match self {
            Lane::Count => {}
            Lane::Sum {
                values,
                nulls,
                sums,
                counts,
                ..
            } => match *values {
                Numbers::Int(v) => sum_by_group(pairs, |d| v[d] as f64, *nulls, sums, counts),
                Numbers::Double(v) => sum_by_group(pairs, |d| v[d], *nulls, sums, counts),
            },
            Lane::Acc {
                column: Some(column),
                distinct,
                accs,
            } => fold_accs(column, *distinct, pairs, accs),
            // an absent column folds nothing
            Lane::Acc { column: None, .. } => {}
        }
    }

    /// Fold the docs of the one group of a global aggregation in, keeping
    /// a sum in a local rather than in its lane.
    fn fold_global(&mut self, docs: impl Iterator<Item = usize>) {
        match self {
            Lane::Sum {
                values,
                nulls,
                sums,
                counts,
                ..
            } => {
                let (sum, count) = match *values {
                    Numbers::Int(v) => sum_of(docs, |d| v[d] as f64, *nulls),
                    Numbers::Double(v) => sum_of(docs, |d| v[d], *nulls),
                };
                sums[0] = sum;
                if nulls.is_some() {
                    counts[0] = count;
                }
            }
            lane => lane.fold(docs.map(|d| (d, 0))),
        }
    }

    /// Group `g`'s accumulator, `docs` being its doc count. An `AggAcc`
    /// lane hands its own over.
    fn emit(&mut self, g: usize, docs: u64) -> AggAcc {
        match self {
            Lane::Count => AggAcc::Count(docs),
            Lane::Sum {
                avg,
                nulls,
                sums,
                counts,
                ..
            } => {
                let (sum, count) = (sums[g], if nulls.is_some() { counts[g] } else { docs });
                if *avg {
                    AggAcc::Avg { sum, count }
                } else {
                    AggAcc::Sum { sum, count }
                }
            }
            Lane::Acc { accs, .. } => std::mem::replace(&mut accs[g], AggAcc::Count(0)),
        }
    }
}

/// `sums[group] += value(doc)` for every pair, in pair order; with a NULL
/// mask, a NULL doc is skipped and `counts[group]` counts the others.
#[inline]
fn sum_by_group(
    pairs: impl Iterator<Item = (usize, usize)>,
    value: impl Fn(usize) -> f64,
    nulls: Option<&Bitmap>,
    sums: &mut [f64],
    counts: &mut [u64],
) {
    match nulls {
        None => pairs.for_each(|(d, g)| sums[g] += value(d)),
        Some(nulls) => pairs.filter(|&(d, _)| !nulls.get(d)).for_each(|(d, g)| {
            sums[g] += value(d);
            counts[g] += 1;
        }),
    }
}

/// The sum of `value(doc)` over the docs, in doc order, and how many were
/// not NULL (only counted under a NULL mask).
#[inline]
fn sum_of(
    docs: impl Iterator<Item = usize>,
    value: impl Fn(usize) -> f64,
    nulls: Option<&Bitmap>,
) -> (f64, u64) {
    let (mut sum, mut count) = (0.0, 0u64);
    match nulls {
        None => docs.for_each(|d| sum += value(d)),
        Some(nulls) => docs.filter(|&d| !nulls.get(d)).for_each(|d| {
            sum += value(d);
            count += 1;
        }),
    }
    (sum, count)
}

/// Fold `(doc, group)` pairs of a column into per-group accumulators —
/// its numbers, or its values' hashes when `distinct` — the column's
/// variant matched once per lane, not once per doc.
fn fold_accs(
    column: &ColumnData,
    distinct: bool,
    pairs: impl Iterator<Item = (usize, usize)>,
    accs: &mut [AggAcc],
) {
    match column {
        ColumnData::Str {
            dict, ids, nulls, ..
        } if distinct => {
            // hash each dictionary entry once, not once per document
            let hashes: Vec<u64> = dict.iter().map(|s| Value::hash_of_str(s)).collect();
            pairs
                .filter(|&(d, _)| !nulls.get(d))
                .for_each(|(d, g)| accs[g].add_hash(hashes[ids[d] as usize]));
        }
        _ if distinct => pairs.for_each(|(d, g)| {
            if let Some(h) = hash_at(column, d) {
                accs[g].add_hash(h);
            }
        }),
        ColumnData::Int { values, nulls, .. } => pairs
            .filter(|&(d, _)| !nulls.get(d))
            .for_each(|(d, g)| accs[g].add_num(values[d] as f64)),
        ColumnData::Double { values, nulls } => pairs
            .filter(|&(d, _)| !nulls.get(d))
            .for_each(|(d, g)| accs[g].add_num(values[d])),
        // a column with no number in it folds nothing, as an absent one
        _ => {}
    }
}

/// FNV-1a over an integer group key — the interning maps sit in the
/// hottest group-by loops and SipHash costs more than the fold itself.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

type FnvBuildHasher = std::hash::BuildHasherDefault<FnvHasher>;

fn partition_point(n: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let mut lo = 0;
    let mut hi = n;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

fn build_inverted(col: &ColumnData, n: usize) -> Result<InvertedIndex> {
    match col {
        ColumnData::Str {
            dict, ids, nulls, ..
        } => {
            let mut postings = vec![Bitmap::new(n); dict.len()];
            for (doc, id) in ids.iter().enumerate() {
                if !nulls.get(doc) {
                    postings[*id as usize].set(doc);
                }
            }
            Ok(InvertedIndex::Str(postings))
        }
        ColumnData::Int { values, nulls, .. } => {
            let mut map: HashMap<i64, Bitmap> = HashMap::new();
            for (doc, v) in values.iter().enumerate() {
                if !nulls.get(doc) {
                    map.entry(*v).or_insert_with(|| Bitmap::new(n)).set(doc);
                }
            }
            Ok(InvertedIndex::Int(map))
        }
        _ => Err(Error::Schema(
            "inverted index requires a string or int column".into(),
        )),
    }
}

fn eval_inverted(
    idx: &InvertedIndex,
    col: &ColumnData,
    pred: &Predicate,
    n: usize,
) -> Option<Bitmap> {
    match (idx, col) {
        (InvertedIndex::Str(postings), ColumnData::Str { dict, .. }) => {
            let needle = pred.value.as_str()?;
            match dict.binary_search_by(|d| d.as_str().cmp(needle)) {
                Ok(id) => Some(postings[id].clone()),
                Err(_) => Some(Bitmap::new(n)),
            }
        }
        (InvertedIndex::Int(map), ColumnData::Int { .. }) => {
            let v = pred.value.as_int()?;
            Some(map.get(&v).cloned().unwrap_or_else(|| Bitmap::new(n)))
        }
        _ => None,
    }
}

fn build_range(col: &ColumnData, n: usize) -> Result<RangeIndex> {
    let values: Vec<Option<f64>> = match col {
        ColumnData::Int { values, nulls, .. } => values
            .iter()
            .enumerate()
            .map(|(i, v)| if nulls.get(i) { None } else { Some(*v as f64) })
            .collect(),
        ColumnData::Double { values, nulls } => values
            .iter()
            .enumerate()
            .map(|(i, v)| if nulls.get(i) { None } else { Some(*v) })
            .collect(),
        _ => {
            return Err(Error::Schema(
                "range index requires a numeric column".into(),
            ))
        }
    };
    let ordered = values.iter().flatten().copied().filter(|v| !v.is_nan());
    let min = ordered.clone().min_by(f64::total_cmp);
    let max = ordered.max_by(f64::total_cmp);
    let mut idx = RangeIndex {
        min: min.unwrap_or(0.0),
        max: max.unwrap_or(0.0),
        buckets: vec![Bitmap::new(n); RangeIndex::BUCKETS],
        nan: Bitmap::new(n),
    };
    for (doc, v) in values.iter().enumerate() {
        match v {
            Some(v) if v.is_nan() => idx.nan.set(doc),
            Some(v) => {
                let b = idx.bucket_of(*v);
                idx.buckets[b].set(doc);
            }
            None => {}
        }
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::{AggFn, FieldType};

    fn orders_schema() -> Schema {
        Schema::of(
            "orders",
            &[
                ("restaurant", FieldType::Str),
                ("city", FieldType::Str),
                ("total", FieldType::Double),
                ("items", FieldType::Int),
                ("delivered", FieldType::Bool),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    fn orders(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new()
                    .with("restaurant", format!("rest-{:03}", i % 50))
                    .with("city", ["sf", "la", "nyc", "chi"][i % 4])
                    .with("total", 5.0 + (i % 100) as f64)
                    .with("items", (i % 7) as i64 + 1)
                    .with("delivered", i % 3 == 0)
                    .with("ts", 1_000_000 + (i as i64) * 10)
            })
            .collect()
    }

    fn full_spec() -> IndexSpec {
        IndexSpec::none()
            .with_inverted(&["restaurant", "city"])
            .with_sorted("ts")
            .with_range(&["total"])
    }

    #[test]
    fn build_and_materialize_roundtrip() {
        let rows = orders(100);
        let seg = Segment::build("s0", &orders_schema(), rows.clone(), &IndexSpec::none()).unwrap();
        assert_eq!(seg.doc_count(), 100);
        // unsorted build preserves order
        for (i, row) in rows.iter().enumerate() {
            let got = seg.row_at(i);
            assert_eq!(got.get_str("restaurant"), row.get_str("restaurant"));
            assert_eq!(got.get_double("total"), row.get_double("total"));
            assert_eq!(got.get("delivered"), row.get("delivered"));
        }
    }

    #[test]
    fn equality_via_inverted_index_scans_nothing() {
        let seg = Segment::build("s", &orders_schema(), orders(1000), &full_spec()).unwrap();
        let q = Query::select_all("orders")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count);
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(250));
        // only the 250 matched docs were folded; predicate cost was 0
        assert_eq!(res.ledger.docs_scanned, 250);
    }

    #[test]
    fn full_scan_costs_every_doc() {
        let seg = Segment::build("s", &orders_schema(), orders(1000), &IndexSpec::none()).unwrap();
        let q = Query::select_all("orders")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count);
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(250));
        assert!(
            res.ledger.docs_scanned >= 1000,
            "scan cost {}",
            res.ledger.docs_scanned
        );
    }

    #[test]
    fn sorted_column_range_query() {
        let seg = Segment::build("s", &orders_schema(), orders(1000), &full_spec()).unwrap();
        let q = Query::select_all("orders")
            .filter(Predicate::new("ts", PredicateOp::Ge, 1_002_000i64))
            .filter(Predicate::new("ts", PredicateOp::Lt, 1_003_000i64))
            .aggregate("n", AggFn::Count);
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(100));
        // sorted access is free
        assert_eq!(res.ledger.docs_scanned, 100);
    }

    #[test]
    fn range_index_candidates_verified() {
        let spec = IndexSpec::none().with_range(&["total"]);
        let seg = Segment::build("s", &orders_schema(), orders(1000), &spec).unwrap();
        let q = Query::select_all("orders")
            .filter(Predicate::new("total", PredicateOp::Gt, 95.0))
            .aggregate("n", AggFn::Count);
        let res = seg.execute(&q, None).unwrap();
        // totals cycle 5..104; > 95 means 96..104 -> 9 of 100 values
        assert_eq!(res.rows[0].get_int("n"), Some(90));
        // candidate verification touched far fewer than all docs
        assert!(
            res.ledger.docs_scanned < 500,
            "range index should prune, scanned {}",
            res.ledger.docs_scanned
        );
    }

    #[test]
    fn index_and_scan_paths_agree() {
        // equivalence: every predicate type over indexed and unindexed builds
        let rows = orders(500);
        let indexed = Segment::build("a", &orders_schema(), rows.clone(), &full_spec()).unwrap();
        let plain = Segment::build("b", &orders_schema(), rows, &IndexSpec::none()).unwrap();
        let preds = vec![
            Predicate::eq("city", "la"),
            Predicate::new("city", PredicateOp::Ne, "la"),
            Predicate::new("total", PredicateOp::Le, 50.0),
            Predicate::new("total", PredicateOp::Gt, 80.0),
            Predicate::new("ts", PredicateOp::Lt, 1_001_000i64),
            Predicate::new("items", PredicateOp::Ge, 4i64),
            Predicate::eq("delivered", true),
        ];
        for pred in preds {
            let q = Query::select_all("orders")
                .filter(pred.clone())
                .aggregate("n", AggFn::Count);
            let a = indexed.execute(&q, None).unwrap().rows[0]
                .get_int("n")
                .unwrap();
            let b = plain.execute(&q, None).unwrap().rows[0]
                .get_int("n")
                .unwrap();
            assert_eq!(a, b, "mismatch for {pred:?}");
        }

        // a string column the segment is sorted by: a binary search on
        // dictionary ids, against the scan and the row semantics, over
        // NULL cells, every operator, needles in, between, below and
        // above the dictionary, and literals of other types
        let rows: Vec<Row> = orders(500)
            .into_iter()
            .enumerate()
            .map(|(i, row)| {
                if i % 9 == 0 {
                    row.project(&["city", "total", "items", "delivered", "ts"])
                } else {
                    row
                }
            })
            .collect();
        let sorted = IndexSpec::none().with_sorted("restaurant");
        let sorted = Segment::build("a", &orders_schema(), rows.clone(), &sorted).unwrap();
        let plain =
            Segment::build("b", &orders_schema(), rows.clone(), &IndexSpec::none()).unwrap();
        let needles = [
            Value::from("rest-010"),
            Value::from("rest-0105"),
            Value::from("a"),
            Value::from("z"),
            Value::from(""),
            Value::Int(7),
            Value::Null,
        ];
        let ops = [
            PredicateOp::Eq,
            PredicateOp::Ne,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
        ];
        let matched_ts = |seg: &Segment, pred: &Predicate| {
            let q = Query::select_all("orders")
                .columns(&["ts"])
                .filter(pred.clone());
            let rows = seg.execute(&q, None).unwrap().rows;
            let mut ts: Vec<i64> = rows.iter().map(|r| r.get_int("ts").unwrap()).collect();
            ts.sort_unstable();
            ts
        };
        for needle in &needles {
            for op in ops {
                let pred = Predicate::new("restaurant", op, needle.clone());
                let expected: Vec<i64> = rows
                    .iter()
                    .filter(|r| pred.matches(r))
                    .map(|r| r.get_int("ts").unwrap())
                    .collect();
                assert_eq!(matched_ts(&sorted, &pred), expected, "sorted {pred:?}");
                assert_eq!(matched_ts(&plain, &pred), expected, "scan {pred:?}");
            }
        }
    }

    #[test]
    fn group_by_and_order_by() {
        let seg = Segment::build("s", &orders_schema(), orders(400), &full_spec()).unwrap();
        let q = Query::select_all("orders")
            .aggregate("n", AggFn::Count)
            .aggregate("revenue", AggFn::Sum("total".into()))
            .group(&["city"]);
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows.len(), 4);
        let total: i64 = res.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn selection_with_projection_order_limit() {
        let seg = Segment::build("s", &orders_schema(), orders(100), &full_spec()).unwrap();
        let q = Query::select_all("orders")
            .columns(&["restaurant", "total"])
            .filter(Predicate::eq("city", "sf"))
            .order("total", crate::query::SortOrder::Desc)
            .limit(5);
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows.len(), 5);
        assert_eq!(res.rows[0].len(), 2);
        let totals: Vec<f64> = res
            .rows
            .iter()
            .map(|r| r.get_double("total").unwrap())
            .collect();
        let mut sorted = totals.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(totals, sorted);
    }

    /// Ordering and cutting the docs before any row is built answers what
    /// building every row, sorting stably and truncating does — on ties,
    /// NULL order cells, an order column the projection leaves out, two
    /// sort keys and every size of limit, whichever kind of segment runs
    /// the kernel.
    #[test]
    fn selection_top_k_equals_materialise_sort_truncate() {
        use crate::query::{sort_and_limit, SortOrder::*};
        let rows: Vec<Row> = (0..300usize)
            .map(|i| {
                let mut row = Row::new()
                    .with("restaurant", format!("rest-{:02}", (i * 7) % 31))
                    .with("items", (i % 5) as i64)
                    .with("delivered", i % 3 == 0)
                    .with("ts", 1_000 + (i as i64 / 10));
                if i % 7 != 0 {
                    row.push("city", ["sf", "la", "nyc", "chi"][i % 4]);
                }
                if i % 11 != 0 {
                    row.push("total", ((i * 5) % 13) as f64);
                }
                row
            })
            .collect();
        let mut consuming = MutableSegment::new("c", orders_schema());
        for row in &rows {
            consuming.append(row, None).unwrap();
        }
        let sealed = Segment::build("s", &orders_schema(), rows.clone(), &full_spec()).unwrap();
        let plain = Segment::build("p", &orders_schema(), rows, &IndexSpec::none()).unwrap();
        let lazy = Segment::load_lazy(plain.persist().unwrap()).unwrap();
        type Run<'a> = Box<dyn Fn(&Query) -> Vec<Row> + 'a>;
        let segments: [(&str, Run); 3] = [
            (
                "consuming",
                Box::new(|q| consuming.execute(q, None).unwrap().rows),
            ),
            (
                "sealed",
                Box::new(|q| sealed.execute(q, None).unwrap().rows),
            ),
            ("lazy", Box::new(|q| lazy.execute(q).unwrap().rows)),
        ];

        let filters = [
            None,
            Some(Predicate::eq("city", "sf")),
            Some(Predicate::new("items", PredicateOp::Ge, 2i64)),
        ];
        let projections: [&[&str]; 2] = [&[], &["city", "items", "total", "ts"]];
        let orders: [&[(&str, SortOrder)]; 8] = [
            &[],
            &[("items", Asc)],
            &[("total", Desc)],
            &[("total", Asc)],
            &[("restaurant", Desc)],
            &[("items", Desc), ("city", Asc)],
            &[("delivered", Asc), ("ts", Desc)],
            &[("ghost", Desc), ("city", Desc)],
        ];
        for (kind, run) in &segments {
            for filter in &filters {
                for select in projections {
                    let mut base = Query::select_all("orders").columns(select);
                    if let Some(p) = filter {
                        base = base.filter(p.clone());
                    }
                    let all = run(&base);
                    assert!(all.len() > 50, "{kind}: {} rows match", all.len());
                    for order in orders {
                        for limit in [
                            None,
                            Some(0),
                            Some(1),
                            Some(20),
                            Some(all.len()),
                            Some(9_999),
                        ] {
                            let mut q = base.clone();
                            q.limit = limit;
                            for (col, dir) in order {
                                q = q.order(*col, *dir);
                            }
                            let mut expected = all.clone();
                            sort_and_limit(&mut expected, &q.order_by, q.limit);
                            assert_eq!(run(&q), expected, "{kind}: {q:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn valid_docs_filter_applies() {
        let seg = Segment::build("s", &orders_schema(), orders(10), &IndexSpec::none()).unwrap();
        let mut valid = Bitmap::full(10);
        valid.unset(0);
        valid.unset(5);
        let q = Query::select_all("orders").aggregate("n", AggFn::Count);
        let res = seg.execute(&q, Some(&valid)).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(8));
    }

    #[test]
    fn nulls_excluded_from_all_predicates() {
        let schema = Schema::of("t", &[("x", FieldType::Int), ("s", FieldType::Str)]);
        let rows = vec![
            Row::new().with("x", 1i64).with("s", "a"),
            Row::new(), // both null
            Row::new().with("x", 3i64).with("s", "b"),
        ];
        for spec in [
            IndexSpec::none(),
            IndexSpec::none().with_inverted(&["s"]).with_sorted("x"),
        ] {
            let seg = Segment::build("s", &schema, rows.clone(), &spec).unwrap();
            let ne = Query::select_all("t")
                .filter(Predicate::new("s", PredicateOp::Ne, "a"))
                .aggregate("n", AggFn::Count);
            assert_eq!(
                seg.execute(&ne, None).unwrap().rows[0].get_int("n"),
                Some(1),
                "null must not match Ne (spec {spec:?})"
            );
            let ge = Query::select_all("t")
                .filter(Predicate::new("x", PredicateOp::Ge, 0i64))
                .aggregate("n", AggFn::Count);
            assert_eq!(
                seg.execute(&ge, None).unwrap().rows[0].get_int("n"),
                Some(2)
            );
        }
    }

    /// The scan kernels test an integer key against a range; at the ends
    /// of the key space, for signed zeros, infinities and NaN, and across
    /// Int/Double they must agree with `Value::total_cmp` row semantics,
    /// over a sealed and over a consuming segment.
    #[test]
    fn scan_predicates_match_row_semantics_at_the_extremes() {
        let schema = Schema::of("t", &[("n", FieldType::Int), ("x", FieldType::Double)]);
        let ints = [i64::MIN, -1, 0, 1, i64::MAX];
        let doubles = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut rows = vec![Row::new()];
        for n in ints {
            for x in doubles {
                rows.push(Row::new().with("n", n).with("x", x));
            }
        }
        let mut consuming = MutableSegment::new("c", schema.clone());
        rows.iter().for_each(|r| consuming.push(r));
        let sealed = Segment::build("s", &schema, rows.clone(), &IndexSpec::none()).unwrap();
        let ops = [
            PredicateOp::Eq,
            PredicateOp::Ne,
            PredicateOp::Lt,
            PredicateOp::Le,
            PredicateOp::Gt,
            PredicateOp::Ge,
        ];
        let literals = ints
            .iter()
            .map(|&n| Value::Int(n))
            .chain(doubles.iter().map(|&x| Value::Double(x)));
        for literal in literals {
            for op in ops {
                for col in ["n", "x"] {
                    let pred = Predicate::new(col, op, literal.clone());
                    let expected = rows.iter().filter(|r| pred.matches(r)).count() as i64;
                    let q = Query::select_all("t")
                        .filter(pred.clone())
                        .aggregate("n", AggFn::Count);
                    let count = |res: QueryResult| res.rows[0].get_int("n").unwrap();
                    assert_eq!(
                        count(sealed.execute(&q, None).unwrap()),
                        expected,
                        "{pred:?}"
                    );
                    let tail = consuming.execute(&q, None).unwrap();
                    assert_eq!(count(tail), expected, "consuming {pred:?}");
                }
            }
        }
    }

    #[test]
    fn unknown_column_predicate_errors() {
        let seg = Segment::build("s", &orders_schema(), orders(10), &IndexSpec::none()).unwrap();
        let q = Query::select_all("orders").filter(Predicate::eq("ghost", 1i64));
        assert!(seg.execute(&q, None).is_err());
    }

    #[test]
    fn indexes_on_unknown_columns_rejected() {
        assert!(Segment::build(
            "s",
            &orders_schema(),
            orders(10),
            &IndexSpec::none().with_inverted(&["ghost"])
        )
        .is_err());
        assert!(Segment::build(
            "s",
            &orders_schema(),
            orders(10),
            &IndexSpec::none().with_range(&["city"]) // non-numeric
        )
        .is_err());
    }

    #[test]
    fn empty_segment_queries_cleanly() {
        let seg = Segment::build("s", &orders_schema(), vec![], &full_spec()).unwrap();
        let q = Query::select_all("orders")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count);
        let res = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(0));
    }

    #[test]
    fn memory_accounting_grows_with_indices() {
        let rows = orders(1000);
        let plain =
            Segment::build("a", &orders_schema(), rows.clone(), &IndexSpec::none()).unwrap();
        let indexed = Segment::build("b", &orders_schema(), rows, &full_spec()).unwrap();
        assert!(indexed.memory_bytes() > plain.memory_bytes());
        assert!(plain.memory_bytes() > 0);
    }

    #[test]
    fn persist_load_lazy_roundtrip_matches_original() {
        let rows = orders(200);
        let seg = Segment::build("s0", &orders_schema(), rows, &full_spec()).unwrap();
        let bytes = seg.persist().unwrap();
        let lazy = Segment::load_lazy(bytes).unwrap();
        assert_eq!(lazy.name(), "s0");
        assert_eq!(lazy.doc_count(), 200);
        assert_eq!(lazy.schema().fields.len(), 6);
        // full materialization (with indices rebuilt) restores every row
        let back = lazy.into_segment(&full_spec()).unwrap();
        assert_eq!(back.doc_count(), 200);
        for i in 0..200 {
            assert_eq!(back.row_at(i), seg.row_at(i), "row {i} differs");
        }
    }

    #[test]
    fn lazy_execution_decodes_only_touched_columns() {
        let seg = Segment::build("s", &orders_schema(), orders(1000), &IndexSpec::none()).unwrap();
        let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
        assert_eq!(lazy.columns_loaded(), 0);
        let q = Query::select_all("orders")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count);
        let res = lazy.execute(&q).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(250));
        // a count over one predicate touches exactly one of six columns
        assert_eq!(lazy.columns_loaded(), 1);
        assert!(
            lazy.bytes_loaded() < lazy.file_bytes() / 2,
            "lazy read {} of {} bytes",
            lazy.bytes_loaded(),
            lazy.file_bytes()
        );
    }

    #[test]
    fn zone_map_pruning_reads_header_only() {
        let seg = Segment::build("s", &orders_schema(), orders(1000), &IndexSpec::none()).unwrap();
        let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
        // ts spans 1_000_000..1_009_990: a disjoint range prunes via the
        // zone map before any column bytes are read
        let q = Query::select_all("orders")
            .filter(Predicate::new("ts", PredicateOp::Gt, 99_999_999i64))
            .aggregate("n", AggFn::Count);
        let res = lazy.execute(&q).unwrap();
        assert_eq!(res.ledger.segments_pruned, 1);
        assert_eq!(lazy.columns_loaded(), 0, "pruned query decoded a column");
        assert_eq!(lazy.bytes_loaded(), lazy.header_bytes());
        // the pruned result is identical to actually executing
        let full = seg.execute(&q, None).unwrap();
        assert_eq!(res.rows, full.rows);
        assert_eq!(res.rows[0].get_int("n"), Some(0));
        // selections prune to empty row sets
        let sel = Query::select_all("orders").filter(Predicate::new("ts", PredicateOp::Lt, 5i64));
        let res = lazy.execute(&sel).unwrap();
        assert_eq!(res.ledger.segments_pruned, 1);
        assert!(res.rows.is_empty());
        assert_eq!(lazy.columns_loaded(), 0);
    }

    #[test]
    fn lazy_and_eager_execution_agree() {
        let rows = orders(500);
        let seg = Segment::build("s", &orders_schema(), rows, &full_spec()).unwrap();
        let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
        let queries = vec![
            Query::select_all("orders")
                .filter(Predicate::eq("city", "la"))
                .aggregate("n", AggFn::Count)
                .aggregate("rev", AggFn::Sum("total".into())),
            Query::select_all("orders")
                .filter(Predicate::new("city", PredicateOp::Ne, "la"))
                .aggregate("n", AggFn::Count),
            Query::select_all("orders")
                .filter(Predicate::new("total", PredicateOp::Gt, 80.0))
                .aggregate("d", AggFn::DistinctCount("restaurant".into()))
                .group(&["city"]),
            Query::select_all("orders")
                .columns(&["restaurant", "total"])
                .filter(Predicate::new("ts", PredicateOp::Lt, 1_002_000i64))
                .order("total", crate::query::SortOrder::Desc)
                .limit(7),
            Query::select_all("orders").filter(Predicate::eq("delivered", true)),
        ];
        for q in queries {
            let eager = seg.execute(&q, None).unwrap();
            let lazy_res = lazy.execute(&q).unwrap();
            assert_eq!(eager.rows, lazy_res.rows, "mismatch for {q:?}");
        }
    }

    #[test]
    fn zone_admission_logic_is_exact_on_bounds() {
        use rtdi_storage::segfile::{ZoneMap, ZoneValue};
        let zone = ZoneMap {
            min: Some(ZoneValue::Int(10)),
            max: Some(ZoneValue::Int(20)),
            null_count: 0,
        };
        let cases = [
            (PredicateOp::Eq, 9i64, false),
            (PredicateOp::Eq, 10, true),
            (PredicateOp::Eq, 21, false),
            (PredicateOp::Lt, 10, false),
            (PredicateOp::Lt, 11, true),
            (PredicateOp::Le, 9, false),
            (PredicateOp::Le, 10, true),
            (PredicateOp::Gt, 20, false),
            (PredicateOp::Gt, 19, true),
            (PredicateOp::Ge, 21, false),
            (PredicateOp::Ge, 20, true),
            (PredicateOp::Ne, 15, true),
        ];
        for (op, v, expect) in cases {
            let p = Predicate::new("x", op, v);
            assert_eq!(zone_may_match(&zone, &p, 100), expect, "{op:?} {v}");
        }
        // constant column: Ne against that constant prunes
        let constant = ZoneMap {
            min: Some(ZoneValue::Int(7)),
            max: Some(ZoneValue::Int(7)),
            null_count: 0,
        };
        assert!(!zone_may_match(
            &constant,
            &Predicate::new("x", PredicateOp::Ne, 7i64),
            100
        ));
        // all-null column never matches any predicate
        let all_null = ZoneMap {
            min: None,
            max: None,
            null_count: 100,
        };
        assert!(!zone_may_match(&all_null, &Predicate::eq("x", 1i64), 100));
        // cross-type predicates are never pruned on
        assert!(zone_may_match(
            &zone,
            &Predicate::eq("x", "not a number"),
            100
        ));
    }

    #[test]
    fn all_null_column_persists_and_reloads() {
        let schema = Schema::of("t", &[("x", FieldType::Int), ("s", FieldType::Str)]);
        let rows: Vec<Row> = (0..10).map(|i| Row::new().with("x", i as i64)).collect();
        let seg = Segment::build("s", &schema, rows, &IndexSpec::none()).unwrap();
        let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
        let back = lazy.into_segment(&IndexSpec::none()).unwrap();
        for i in 0..10 {
            assert_eq!(back.value_at("s", i), Value::Null);
            assert_eq!(back.value_at("x", i), Value::Int(i as i64));
        }
    }

    #[test]
    fn a_bytes_cell_answers_as_bytes_before_and_after_persist() {
        let schema = Schema::of("t", &[("id", FieldType::Int), ("blob", FieldType::Bytes)]);
        let blob = Value::Bytes(vec![1, 2, 3]);
        let row = Row::new().with("id", 1i64).with("blob", blob.clone());
        let mut consuming = MutableSegment::new("c", schema.clone());
        consuming.append(&row, None).unwrap();
        assert_eq!(consuming.value_at("blob", 0), blob);
        let seg = Segment::build("s", &schema, vec![row.clone()], &IndexSpec::none()).unwrap();
        assert_eq!(seg.row_at(0), row);
        let q = Query::select_all("t").filter(Predicate::eq("blob", blob.clone()));
        assert_eq!(seg.execute(&q, None).unwrap().rows, vec![row.clone()]);
        // the file holds the three bytes, not their printed form
        let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
        assert_eq!(lazy.file().read_rows().unwrap().1, vec![row.clone()]);
        assert_eq!(lazy.execute(&q).unwrap().rows, vec![row.clone()]);
        let back = lazy.into_segment(&IndexSpec::none()).unwrap();
        assert_eq!(back.row_at(0), row);
    }

    #[test]
    fn lazy_load_rejects_corrupt_bytes() {
        let seg = Segment::build("s", &orders_schema(), orders(50), &IndexSpec::none()).unwrap();
        let bytes = seg.persist().unwrap();
        let mut broken = bytes.as_slice().to_vec();
        let mid = broken.len() / 2;
        broken[mid] ^= 0x40;
        match Segment::load_lazy(Bytes::from(broken)) {
            Err(Error::Corruption(_)) => {}
            Err(other) => panic!("expected Corruption, got {other}"),
            Ok(_) => panic!("corrupt segment bytes decoded"),
        }
    }

    #[test]
    fn int_range_reports_time_bounds() {
        let seg = Segment::build("s", &orders_schema(), orders(100), &IndexSpec::none()).unwrap();
        let (lo, hi) = seg.int_range("ts").unwrap();
        assert_eq!(lo, 1_000_000);
        assert_eq!(hi, 1_000_990);
        assert!(seg.int_range("city").is_none());
        // the bounds ride the segment file's zone map, NULLs aside, and an
        // all-NULL column has none
        let mut rows = orders(100);
        rows.push(Row::new().with("city", "sf"));
        let seg = Segment::build("s", &orders_schema(), rows, &full_spec()).unwrap();
        assert_eq!(seg.int_range("ts"), Some((lo, hi)));
        let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
        let back = lazy.into_segment(&full_spec()).unwrap();
        assert_eq!(back.int_range("ts"), Some((lo, hi)));
        let empty = Segment::build("s", &orders_schema(), vec![Row::new()], &IndexSpec::none());
        assert_eq!(empty.unwrap().int_range("ts"), None);
    }
}
