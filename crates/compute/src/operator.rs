//! Dataflow operators.
//!
//! A job is a linear chain of operators; records flow through
//! [`Operator::process`] and event-time progress flows through
//! [`Operator::on_watermark`]. Stateful operators (windowed aggregation,
//! windowed stream-stream join) expose snapshot/restore for the
//! checkpointing runtime — the Flink "state management and checkpointing
//! features for failure recovery" the paper names as the reason it chose
//! Flink (§4.2).
//!
//! **Record ownership.** Records travel as shared handles
//! (`Arc<Record>`) that the partition log, the archive source or another
//! stage may still hold, so an operator *borrows* its input and nothing
//! copies a cell it does not change. A read-only operator (filter, window
//! fold, dedup) forwards the handle it was given or reads the cells it
//! needs; an operator that changes a record builds a new one from the new
//! [`Row`] and the key, timestamp, headers and envelope it keeps
//! ([`Record::rewritten`]). No operator writes through a handle: a record
//! in the log is immutable.
//!
//! The runtime hands operators whole record batches via
//! [`Operator::process_batch`]. [`fuse_stateless`] is the
//! operator-chaining pass: adjacent stateless operators collapse into one
//! [`FusedOp`] stage that executes in a single thread with no channel hop
//! in between — Flink's operator chaining.
//!
//! Keyed stateful operators ([`WindowAggregateOp`], [`DedupOp`]) can also
//! run *data-parallel*: [`Operator::shard_spec`] declares the stage's
//! parallelism and grouping columns, [`Operator::make_shard`] builds the
//! per-instance operators, and their state snapshots use the key-group
//! framed [`KeyedSnapshot`] envelope so a stage checkpoint is independent
//! of the parallelism it was taken at (the rescale unit is the key group,
//! exactly as in Flink). Salted hot-key aggregation adds a second phase:
//! shards emit partial aggregates ([`PARTIAL_COL`]) and a
//! [`PartialCombineOp`] built by [`Operator::make_combiner`] folds them
//! into final rows via [`AggAcc::merge`].

use crate::window::{Window, WindowAssigner, WINDOW_END_COL, WINDOW_START_COL};
use bytes::Bytes;
use rtdi_common::agg::{AggAcc, AggFn};
use rtdi_common::wire::{Reader, Writer};
use rtdi_common::{Error, Record, Result, Row, Timestamp, Value};
use rtdi_storage::archival::{decode_rows, encode_rows_into};
use rtdi_storage::keyed::{key_group_of, shard_of_group, KeyedSnapshot};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write;
use std::sync::Arc;

/// Operator emission buffer: handles, so a forwarded record is not copied.
pub type OperatorOutput = Vec<Arc<Record>>;

/// Sharding contract of a keyed stateful stage (see
/// [`Operator::shard_spec`]). The runtime's router hashes the grouping
/// key built from `key_cols` to a key group and the key group to one of
/// `parallelism` instances; when `hot_key_threshold` is set, keys whose
/// estimated frequency crosses it are salted round-robin across all
/// instances instead (two-phase pre-aggregation).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of parallel instances (1 is legal for a salted-only stage:
    /// the two-phase topology is kept so checkpoints stay slot-stable
    /// across rescales).
    pub parallelism: usize,
    /// Grouping columns; the router and the deterministic merge both key
    /// off [`key_string`] over these.
    pub key_cols: Vec<String>,
    /// Salting threshold (estimated per-key frequency); `None` disables
    /// hot-key mitigation for this stage.
    pub hot_key_threshold: Option<u64>,
}

/// One stage of a dataflow. Input records are borrowed handles that other
/// holders (the log, a source, an upstream buffer) may share: read them,
/// forward them (`Arc::clone`), or emit new records — never write them.
pub trait Operator: Send {
    fn name(&self) -> &str;

    /// Process one record, appending any outputs.
    fn process(&mut self, record: &Arc<Record>, out: &mut OperatorOutput) -> Result<()>;

    /// Process a whole batch. Must be equivalent to calling
    /// [`Operator::process`] on each record in order — the runtime relies
    /// on that for byte-identical results vs the per-record oracle
    /// ([`crate::reference`]).
    fn process_batch(&mut self, batch: &[Arc<Record>], out: &mut OperatorOutput) -> Result<()> {
        for record in batch {
            self.process(record, out)?;
        }
        Ok(())
    }

    /// Event time advanced to `wm`; flush anything that became complete.
    fn on_watermark(&mut self, _wm: Timestamp, _out: &mut OperatorOutput) {}

    /// Serialize operator state for a checkpoint.
    fn snapshot(&self) -> Bytes {
        Bytes::new()
    }

    /// Restore from a checkpoint snapshot.
    fn restore(&mut self, _data: Bytes) -> Result<()> {
        Ok(())
    }

    /// Approximate live state size; drives the auto-scaler's
    /// CPU-bound-vs-memory-bound classification (§4.2.1).
    fn memory_bytes(&self) -> usize {
        0
    }

    fn is_stateful(&self) -> bool {
        false
    }

    /// Logical operator names executed by this stage. Fused stages report
    /// every member so per-operator observability survives chaining.
    fn operator_names(&self) -> Vec<String> {
        vec![self.name().to_string()]
    }

    /// Records dropped for arriving behind the watermark (stage total).
    fn late_dropped(&self) -> u64 {
        0
    }

    /// Declare this stage data-parallel: `Some` makes the staged runtime
    /// expand it into a router, `parallelism` shard instances built by
    /// [`Operator::make_shard`], and a deterministic merge. `None` (the
    /// default) keeps the stage serial.
    fn shard_spec(&self) -> Option<ShardSpec> {
        None
    }

    /// Build shard `index` of `of` for a sharded stage. Must return
    /// `Some` whenever [`Operator::shard_spec`] does.
    fn make_shard(&self, _index: usize, _of: usize) -> Option<Box<dyn Operator>> {
        None
    }

    /// The final-combine stage of a salted two-phase aggregation; placed
    /// by the runtime immediately downstream of the merge. `Some` only
    /// when the stage emits partial aggregates.
    fn make_combiner(&self) -> Option<Box<dyn Operator>> {
        None
    }

    /// Whether [`Operator::process`] may emit records. Operators that
    /// only emit from [`Operator::on_watermark`] (windowed aggregation)
    /// return `false`, which lets a shard run [`Operator::process_batch`]
    /// without per-record output attribution. An operator returning
    /// `false` must not emit from `process`/`process_batch`.
    fn emits_inline(&self) -> bool {
        true
    }
}

/// Stateless 1:1 row transform.
pub struct MapOp {
    name: String,
    f: Box<dyn FnMut(&Row) -> Row + Send>,
}

impl MapOp {
    pub fn new(name: impl Into<String>, f: impl FnMut(&Row) -> Row + Send + 'static) -> Self {
        MapOp {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Operator for MapOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, out: &mut OperatorOutput) -> Result<()> {
        // changes the payload: a new record around the mapped row
        out.push(Arc::new(record.rewritten((self.f)(&record.value))));
        Ok(())
    }
}

/// Stateless predicate filter.
pub struct FilterOp {
    name: String,
    pred: Box<dyn FnMut(&Row) -> bool + Send>,
}

impl FilterOp {
    pub fn new(name: impl Into<String>, pred: impl FnMut(&Row) -> bool + Send + 'static) -> Self {
        FilterOp {
            name: name.into(),
            pred: Box::new(pred),
        }
    }
}

impl Operator for FilterOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, out: &mut OperatorOutput) -> Result<()> {
        if (self.pred)(&record.value) {
            out.push(Arc::clone(record));
        }
        Ok(())
    }
}

type FlatMapFn = Box<dyn FnMut(&Record) -> Vec<Record> + Send>;

/// Stateless 1:N transform; may re-key and re-time outputs.
pub struct FlatMapOp {
    name: String,
    f: FlatMapFn,
}

impl FlatMapOp {
    pub fn new(
        name: impl Into<String>,
        f: impl FnMut(&Record) -> Vec<Record> + Send + 'static,
    ) -> Self {
        FlatMapOp {
            name: name.into(),
            f: Box::new(f),
        }
    }
}

impl Operator for FlatMapOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, out: &mut OperatorOutput) -> Result<()> {
        out.extend((self.f)(record).into_iter().map(Arc::new));
        Ok(())
    }
}

/// Write the grouping key of `row` over `cols` into `buf` (cleared first).
/// This is the one canonical keying function of the compute layer:
/// operators probe their state with it, the parallel router hashes the
/// same bytes (FNV via [`Value::hash_of_str`]) to pick a key group, and
/// the downstream merge sorts flushed emissions by it to reproduce serial
/// emission order. Callers on the per-record path keep one `buf` and so
/// build no `String` per record.
pub fn write_key(buf: &mut String, row: &Row, cols: &[impl AsRef<str>]) {
    buf.clear();
    for (i, c) in cols.iter().enumerate() {
        if i > 0 {
            buf.push('\u{1f}');
        }
        match row.get(c.as_ref()) {
            Some(Value::Str(s)) => buf.push_str(s),
            // writing to a `String` cannot fail
            Some(v) => {
                let _ = write!(buf, "{v}");
            }
            None => buf.push('\u{0}'),
        }
    }
}

/// [`write_key`] into a fresh `String`.
pub fn key_string(row: &Row, cols: &[impl AsRef<str>]) -> String {
    let mut s = String::new();
    write_key(&mut s, row, cols);
    s
}

/// Column carrying encoded partial aggregate accumulators between the
/// shard phase and the combine phase of a salted aggregation.
pub const PARTIAL_COL: &str = "__partial";

/// One open window of a key.
struct Held {
    start: Timestamp,
    end: Timestamp,
    accs: Vec<AggAcc>,
    /// The window's own key row, kept only when the record that opened it
    /// projects to another row than its key's under the same key text (`1`
    /// and `"1"`, or a `\u{1f}` inside a cell): every window emits the key
    /// row it was opened with.
    row: Option<Row>,
}

/// One key's open windows in (start, end) order, under the key row stored
/// once.
struct KeyWindows {
    key_row: Row,
    windows: Vec<Held>,
}

impl KeyWindows {
    fn find(&self, start: Timestamp, end: Timestamp) -> std::result::Result<usize, usize> {
        let bounds = (start, end);
        self.windows
            .binary_search_by(|w| (w.start, w.end).cmp(&bounds))
    }

    fn insert(&mut self, held: Held) {
        let (Ok(at) | Err(at)) = self.find(held.start, held.end);
        self.windows.insert(at, held);
    }

    fn row_of<'a>(&'a self, held: &'a Held) -> &'a Row {
        held.row.as_ref().unwrap_or(&self.key_row)
    }
}

/// Whether `row` projected onto `cols` ([`Row::project_shared`]) would be
/// `key_row`, answered without allocating the projection.
fn projects_to(row: &Row, cols: &[Arc<str>], key_row: &Row) -> bool {
    key_row.len() == cols.len()
        && cols.iter().zip(key_row.iter()).all(|(col, (name, kept))| {
            **col == *name && row.get(col).map_or(kept.is_null(), |cell| cell == kept)
        })
}

/// Windowed state: the group-key text ([`write_key`]) to that key's open
/// windows. A record finds its window by hash; order exists only at the
/// edges — a flush sorts the windows it closes by (key, start, end), a
/// snapshot sorts its entries, a session merge scans its own key's windows
/// — so emissions and checkpoint bytes are those of an ordered map. The
/// hash is std's keyed `RandomState`, drawn afresh for every map: key texts
/// are table data, and with a fixed hash crafted keys could all collide.
#[derive(Default)]
struct WindowMap {
    keys: HashMap<Arc<str>, KeyWindows>,
}

impl WindowMap {
    /// The accumulators of `key`'s window `[start, end)`, if it is held.
    fn held(&mut self, key: &str, start: Timestamp, end: Timestamp) -> Option<&mut Vec<AggAcc>> {
        let kw = self.keys.get_mut(key)?;
        let at = kw.find(start, end).ok()?;
        Some(&mut kw.windows[at].accs)
    }

    /// Open `key`'s window `[start, end)` with `accs`. The key row is the
    /// projection of `opener`, the row that opened it, onto `cols`: built
    /// for a key not held, and for a held key only when it differs.
    fn open(
        &mut self,
        key: &str,
        opener: &Row,
        cols: &[Arc<str>],
        (start, end): (Timestamp, Timestamp),
        accs: Vec<AggAcc>,
    ) {
        let mut held = Held {
            start,
            end,
            accs,
            row: None,
        };
        match self.keys.get_mut(key) {
            Some(kw) => {
                if !projects_to(opener, cols, &kw.key_row) {
                    held.row = Some(opener.project_shared(cols));
                }
                kw.insert(held);
            }
            None => {
                let kw = KeyWindows {
                    key_row: opener.project_shared(cols),
                    windows: vec![held],
                };
                self.keys.insert(key.into(), kw);
            }
        }
    }

    /// Session windows merge: every window of `key` that overlaps
    /// `window`, or the union grown so far, scanned in start order, folds
    /// into the first of them, which takes the merged bounds and the key
    /// row of the last. Returns the merged bounds for the caller to fold
    /// the record into.
    fn absorb_sessions(&mut self, key: &str, window: Window) -> Window {
        let mut merged = window;
        let Some(kw) = self.keys.get_mut(key) else {
            return merged;
        };
        let mut union: Option<Held> = None;
        let overlapping = kw.windows.extract_if(.., |w| {
            // [w.start, w.end) intersects [merged.start, merged.end)
            let hit = w.start < merged.end && merged.start < w.end;
            if hit {
                merged.start = merged.start.min(w.start);
                merged.end = merged.end.max(w.end);
            }
            hit
        });
        for absorbed in overlapping {
            match &mut union {
                None => union = Some(absorbed),
                Some(u) => {
                    for (a, b) in u.accs.iter_mut().zip(&absorbed.accs) {
                        a.merge(b);
                    }
                    u.row = absorbed.row;
                }
            }
        }
        if let Some(mut u) = union {
            (u.start, u.end) = (merged.start, merged.end);
            kw.insert(u);
        }
        merged
    }

    fn memory_bytes(&self) -> usize {
        let held = |kw: &KeyWindows, w: &Held| {
            let accs = w.accs.iter().map(AggAcc::memory_bytes).sum::<usize>();
            kw.row_of(w).approx_bytes() + accs + 48
        };
        let per_key = |kw: &KeyWindows| kw.windows.iter().map(|w| held(kw, w)).sum::<usize>();
        self.keys.values().map(per_key).sum()
    }

    /// Snapshot as a key-group framed [`KeyedSnapshot`]: one frame per
    /// non-empty key group, in group order, its entries in (key, start,
    /// end) order. The entries are written straight into one buffer, and
    /// each frame is a slice of it.
    fn snapshot(&self, watermark: Timestamp, dropped: u64) -> Bytes {
        let held = self.keys.values().map(|kw| kw.windows.len()).sum();
        let mut entries: Vec<(u32, &str, &Held, &Row)> = Vec::with_capacity(held);
        for (key, kw) in &self.keys {
            let group = key_group_of(Value::hash_of_str(key));
            entries.extend(kw.windows.iter().map(|w| (group, &**key, w, kw.row_of(w))));
        }
        entries.sort_unstable_by(|a, b| {
            (a.0, a.1, a.2.start, a.2.end).cmp(&(b.0, b.1, b.2.start, b.2.end))
        });
        let mut w = Writer::new();
        let mut frames = Vec::new();
        for group in entries.chunk_by(|a, b| a.0 == b.0) {
            let at = w.len();
            w.u32(group.len() as u32);
            for &(_, key, held, key_row) in group {
                encode_window_entry(&mut w, key, held, key_row);
            }
            frames.push((group[0].0, at..w.len()));
        }
        let buf = w.into_bytes();
        KeyedSnapshot {
            watermark,
            dropped,
            frames: frames
                .into_iter()
                .map(|(g, at)| (g, buf.slice(at)))
                .collect(),
        }
        .encode()
    }

    /// Restore from a [`KeyedSnapshot`] stage envelope. A shard instance
    /// keeps only the key groups it owns; duplicate entries for the same
    /// (key, window) — salted partial state from several source shards —
    /// fold together via [`AggAcc::merge`]. The stage-wide drop counter is
    /// assigned to instance 0 so shard sums stay exact.
    fn restore(data: Bytes, shard: Option<(usize, usize)>) -> Result<(Timestamp, u64, WindowMap)> {
        let snap = KeyedSnapshot::decode(data)?;
        let mut state = WindowMap::default();
        for (group, frame) in snap.frames {
            if let Some((index, of)) = shard {
                if shard_of_group(group, of) != index {
                    continue;
                }
            }
            let mut r = Reader::new(&frame);
            // an entry's fixed-width fields alone (two length prefixes, the
            // window bounds, the accumulator count) take 28 bytes
            let count = r.count(28, "key-group frame entry count")?;
            for _ in 0..count {
                let (key, held, key_row) = decode_window_entry(&mut r)?;
                state.restore_entry(key, held, key_row)?;
            }
        }
        let dropped = match shard {
            Some((index, _)) if index != 0 => 0,
            _ => snap.dropped,
        };
        Ok((snap.watermark, dropped, state))
    }

    fn restore_entry(&mut self, key: &str, mut held: Held, key_row: Row) -> Result<()> {
        let Some(kw) = self.keys.get_mut(key) else {
            let windows = vec![held];
            self.keys
                .insert(key.into(), KeyWindows { key_row, windows });
            return Ok(());
        };
        let at = match kw.find(held.start, held.end) {
            Ok(at) => at,
            Err(_) => {
                held.row = (key_row != kw.key_row).then_some(key_row);
                kw.insert(held);
                return Ok(());
            }
        };
        // `AggAcc::merge` asserts equal shapes: check them here, where the
        // bytes are still untrusted
        let accs = &mut kw.windows[at].accs;
        let same_shape = accs.len() == held.accs.len()
            && accs
                .iter()
                .zip(&held.accs)
                .all(|(a, b)| std::mem::discriminant(a) == std::mem::discriminant(b));
        if !same_shape {
            return Err(Error::Corruption(
                "duplicate window entry with different accumulators".into(),
            ));
        }
        for (a, b) in accs.iter_mut().zip(&held.accs) {
            a.merge(b);
        }
        Ok(())
    }
}

/// The grouping and output columns of a windowed stage, names interned
/// once so state rows and emitted rows share them.
struct WindowCols {
    keys: Vec<Arc<str>>,
    start: Arc<str>,
    end: Arc<str>,
    partial: Arc<str>,
    aggs: Vec<(Arc<str>, AggFn)>,
}

impl WindowCols {
    fn new(key_cols: Vec<String>, aggs: &[(String, AggFn)]) -> Self {
        WindowCols {
            keys: key_cols.into_iter().map(Into::into).collect(),
            start: WINDOW_START_COL.into(),
            end: WINDOW_END_COL.into(),
            partial: PARTIAL_COL.into(),
            aggs: aggs
                .iter()
                .map(|(name, f)| (name.as_str().into(), f.clone()))
                .collect(),
        }
    }

    fn key_cols(&self) -> Vec<String> {
        self.keys.iter().map(|c| c.to_string()).collect()
    }

    fn aggs(&self) -> Vec<(String, AggFn)> {
        let named = |(name, f): &(Arc<str>, AggFn)| (name.to_string(), f.clone());
        self.aggs.iter().map(named).collect()
    }

    fn new_accs(&self) -> Vec<AggAcc> {
        self.aggs.iter().map(|(_, f)| f.new_acc()).collect()
    }

    /// The output record of a closed (key, window): the key row, the
    /// window bounds, then one final column per aggregate — or, from a
    /// shard of a salted aggregation (`partial`), the raw accumulators for
    /// the combine stage to merge.
    fn record(&self, key_row: &Row, held: &Held, partial: bool) -> Record {
        let key = self.keys.first().and_then(|c| key_row.get(c).cloned());
        let cells = if partial { 1 } else { self.aggs.len() };
        let mut row = key_row.clone_with_room(2 + cells);
        row.push(self.start.clone(), held.start);
        row.push(self.end.clone(), held.end);
        if partial {
            let mut accs = Writer::new();
            accs.u32(held.accs.len() as u32);
            for a in &held.accs {
                a.encode(&mut accs);
            }
            row.push(self.partial.clone(), Value::Bytes(accs.into_vec()));
        } else {
            for ((name, _), acc) in self.aggs.iter().zip(&held.accs) {
                row.push(name.clone(), acc.result());
            }
        }
        let mut rec = Record::new(row, held.end - 1);
        rec.key = key;
        rec
    }

    /// Remove every (key, window) the watermark closed from `state` and
    /// emit its record, in (key, start, end) order.
    fn flush_closed(
        &self,
        state: &mut WindowMap,
        wm: Timestamp,
        lateness: i64,
        partial: bool,
        out: &mut OperatorOutput,
    ) {
        let mut closed = Vec::new();
        state.keys.retain(|key, kw| {
            let shut = |w: &mut Held| w.end.checked_add(lateness).is_none_or(|e| e <= wm);
            for w in kw.windows.extract_if(.., shut) {
                let rec = self.record(w.row.as_ref().unwrap_or(&kw.key_row), &w, partial);
                closed.push((Arc::clone(key), w.start, w.end, rec));
            }
            !kw.windows.is_empty()
        });
        closed.sort_unstable_by(|a, b| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)));
        out.extend(closed.into_iter().map(|(.., rec)| Arc::new(rec)));
    }
}

fn encode_window_entry(w: &mut Writer, key: &str, held: &Held, key_row: &Row) {
    w.str(key);
    w.i64(held.start);
    w.i64(held.end);
    w.block_with(|w| encode_rows_into(w, std::slice::from_ref(key_row)));
    w.u32(held.accs.len() as u32);
    for a in &held.accs {
        a.encode(w);
    }
}

fn decode_window_entry<'a>(r: &mut Reader<'a>) -> Result<(&'a str, Held, Row)> {
    let key = r.str("window state key")?;
    let start = r.i64("window start")?;
    let end = r.i64("window end")?;
    let rows = decode_rows(r.block("window key row")?)?;
    let key_row = rows.into_iter().next().unwrap_or_default();
    // the smallest accumulator (an empty MIN/MAX) is a tag and a flag
    let na = r.count(2, "window accumulator count")?;
    let mut accs = Vec::with_capacity(na);
    for _ in 0..na {
        accs.push(AggAcc::decode(r)?);
    }
    let held = Held {
        start,
        end,
        accs,
        row: None,
    };
    Ok((key, held, key_row))
}

/// Keyed event-time window aggregation.
///
/// Emits one row per (key, window) when the watermark passes
/// `window.end + allowed_lateness`. Output rows carry the key columns,
/// `window_start`, `window_end` and one column per aggregate.
pub struct WindowAggregateOp {
    name: String,
    cols: WindowCols,
    assigner: WindowAssigner,
    allowed_lateness: i64,
    state: WindowMap,
    /// The lookup key, reused across records: [`write_key`] fills it, and
    /// the map copies it only for a key it does not hold.
    key: String,
    watermark: Timestamp,
    late_dropped: u64,
    parallelism: usize,
    hot_key_threshold: Option<u64>,
    /// Phase one of a salted aggregation: emit encoded partial
    /// accumulators ([`PARTIAL_COL`]) instead of final rows.
    emit_partials: bool,
    /// `(instance, parallelism)` when running as one shard of a sharded
    /// stage; restore then keeps only the owned key groups.
    shard: Option<(usize, usize)>,
}

impl WindowAggregateOp {
    pub fn new(
        name: impl Into<String>,
        key_cols: Vec<String>,
        assigner: WindowAssigner,
        aggs: Vec<(String, AggFn)>,
        allowed_lateness: i64,
    ) -> Self {
        WindowAggregateOp {
            name: name.into(),
            cols: WindowCols::new(key_cols, &aggs),
            assigner,
            allowed_lateness: allowed_lateness.max(0),
            state: WindowMap::default(),
            key: String::new(),
            watermark: Timestamp::MIN,
            late_dropped: 0,
            parallelism: 1,
            hot_key_threshold: None,
            emit_partials: false,
            shard: None,
        }
    }

    /// Run this stage as `n` parallel instances in the staged runtime
    /// (key-group sharded; output stays byte-identical to serial).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// Enable salted two-phase aggregation for keys whose estimated
    /// frequency exceeds `threshold`. Ignored for session windows, whose
    /// cross-record merges need all of a key's state in one instance.
    pub fn with_hot_key_salting(mut self, threshold: u64) -> Self {
        self.hot_key_threshold = Some(threshold.max(1));
        self
    }

    fn salted(&self) -> bool {
        self.hot_key_threshold.is_some() && !self.assigner.is_session()
    }

    /// Fold `row` into `window` of the key held in `self.key`.
    fn fold_into(&mut self, mut window: Window, row: &Row) {
        if window.end + self.allowed_lateness <= self.watermark {
            self.late_dropped += 1;
            return;
        }
        if self.assigner.is_session() {
            window = self.state.absorb_sessions(&self.key, window);
        }
        let add = |accs: &mut Vec<AggAcc>| {
            for (acc, (_, f)) in accs.iter_mut().zip(&self.cols.aggs) {
                acc.add(f, row);
            }
        };
        match self.state.held(&self.key, window.start, window.end) {
            Some(accs) => add(accs),
            None => {
                let mut accs = self.cols.new_accs();
                add(&mut accs);
                let bounds = (window.start, window.end);
                self.state
                    .open(&self.key, row, &self.cols.keys, bounds, accs);
            }
        }
    }
}

impl Operator for WindowAggregateOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, _out: &mut OperatorOutput) -> Result<()> {
        write_key(&mut self.key, &record.value, &self.cols.keys);
        match self.assigner.single_window(record.timestamp) {
            Some(window) => self.fold_into(window, &record.value),
            // sliding and session assigners: one fold per assigned window
            None => {
                for window in self.assigner.assign(record.timestamp) {
                    self.fold_into(window, &record.value);
                }
            }
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut OperatorOutput) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        let lateness = self.allowed_lateness;
        self.cols
            .flush_closed(&mut self.state, wm, lateness, self.emit_partials, out);
    }

    fn snapshot(&self) -> Bytes {
        self.state.snapshot(self.watermark, self.late_dropped)
    }

    fn restore(&mut self, data: Bytes) -> Result<()> {
        let (watermark, dropped, state) = WindowMap::restore(data, self.shard)?;
        self.watermark = watermark;
        self.late_dropped = dropped;
        self.state = state;
        Ok(())
    }

    fn memory_bytes(&self) -> usize {
        self.state.memory_bytes()
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    fn shard_spec(&self) -> Option<ShardSpec> {
        (self.parallelism > 1 || self.salted()).then(|| ShardSpec {
            parallelism: self.parallelism,
            key_cols: self.cols.key_cols(),
            hot_key_threshold: self.hot_key_threshold.filter(|_| self.salted()),
        })
    }

    fn make_shard(&self, index: usize, of: usize) -> Option<Box<dyn Operator>> {
        let mut op = WindowAggregateOp::new(
            self.name.clone(),
            self.cols.key_cols(),
            self.assigner,
            self.cols.aggs(),
            self.allowed_lateness,
        );
        op.emit_partials = self.salted();
        op.shard = Some((index, of));
        Some(Box::new(op))
    }

    fn make_combiner(&self) -> Option<Box<dyn Operator>> {
        self.salted().then(|| {
            Box::new(PartialCombineOp::new(
                format!("{}-combine", self.name),
                self.cols.key_cols(),
                self.cols.aggs(),
                self.allowed_lateness,
            )) as Box<dyn Operator>
        })
    }

    fn emits_inline(&self) -> bool {
        false
    }
}

/// Keyed first-occurrence filter: a record passes iff its grouping key
/// has not been seen before. The compute-layer building block behind
/// exactly-once sinks and the DR replay dedup — and, like
/// [`WindowAggregateOp`], shardable: disjoint key ranges mean the
/// per-shard seen-sets never overlap, so parallel output equals serial.
pub struct DedupOp {
    name: String,
    key_cols: Vec<String>,
    parallelism: usize,
    /// `(instance, parallelism)` when running as a shard.
    shard: Option<(usize, usize)>,
    seen: BTreeSet<String>,
    /// Reused [`write_key`] buffer: only a first occurrence allocates.
    key_buf: String,
}

impl DedupOp {
    pub fn new(name: impl Into<String>, key_cols: Vec<String>) -> Self {
        DedupOp {
            name: name.into(),
            key_cols,
            parallelism: 1,
            shard: None,
            seen: BTreeSet::new(),
            key_buf: String::new(),
        }
    }

    /// Run this stage as `n` parallel instances in the staged runtime.
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }
}

impl Operator for DedupOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, out: &mut OperatorOutput) -> Result<()> {
        write_key(&mut self.key_buf, &record.value, &self.key_cols);
        if !self.seen.contains(&self.key_buf) {
            self.seen.insert(self.key_buf.clone());
            out.push(Arc::clone(record));
        }
        Ok(())
    }

    fn snapshot(&self) -> Bytes {
        let mut groups: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for key in &self.seen {
            let g = key_group_of(Value::hash_of_str(key));
            groups.entry(g).or_default().push(key);
        }
        let frames = groups
            .into_iter()
            .map(|(g, keys)| {
                let len = keys.iter().map(|k| 4 + k.len()).sum::<usize>();
                let mut f = Writer::with_capacity(4 + len);
                f.u32(keys.len() as u32);
                for key in keys {
                    f.str(key);
                }
                (g, f.into_bytes())
            })
            .collect();
        KeyedSnapshot {
            watermark: Timestamp::MIN,
            dropped: 0,
            frames,
        }
        .encode()
    }

    fn restore(&mut self, data: Bytes) -> Result<()> {
        let snap = KeyedSnapshot::decode(data)?;
        let mut seen = BTreeSet::new();
        for (group, frame) in snap.frames {
            if let Some((index, of)) = self.shard {
                if shard_of_group(group, of) != index {
                    continue;
                }
            }
            let mut r = Reader::new(&frame);
            // every key has at least its length prefix
            let count = r.count(4, "dedup frame key count")?;
            for _ in 0..count {
                seen.insert(r.str("dedup key")?.to_string());
            }
        }
        self.seen = seen;
        Ok(())
    }

    fn memory_bytes(&self) -> usize {
        self.seen.iter().map(|k| k.len() + 24).sum()
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn shard_spec(&self) -> Option<ShardSpec> {
        (self.parallelism > 1).then(|| ShardSpec {
            parallelism: self.parallelism,
            key_cols: self.key_cols.clone(),
            hot_key_threshold: None,
        })
    }

    fn make_shard(&self, index: usize, of: usize) -> Option<Box<dyn Operator>> {
        let mut op = DedupOp::new(self.name.clone(), self.key_cols.clone());
        op.shard = Some((index, of));
        Some(Box::new(op))
    }
}

/// Phase two of a salted hot-key aggregation: folds the partial
/// accumulators shipped in [`PARTIAL_COL`] rows back together per
/// (key, window) via [`AggAcc::merge`] and emits final rows with exactly
/// the shape and order of an unsalted [`WindowAggregateOp`].
pub struct PartialCombineOp {
    name: String,
    cols: WindowCols,
    allowed_lateness: i64,
    state: WindowMap,
    /// Reused lookup key, as in [`WindowAggregateOp`].
    key: String,
    /// Reused decode buffer of a row's accumulators: a row whose (key,
    /// window) is held merges them and allocates nothing.
    incoming: Vec<AggAcc>,
    watermark: Timestamp,
    dropped: u64,
}

impl PartialCombineOp {
    pub fn new(
        name: impl Into<String>,
        key_cols: Vec<String>,
        aggs: Vec<(String, AggFn)>,
        allowed_lateness: i64,
    ) -> Self {
        PartialCombineOp {
            name: name.into(),
            cols: WindowCols::new(key_cols, &aggs),
            allowed_lateness: allowed_lateness.max(0),
            state: WindowMap::default(),
            key: String::new(),
            incoming: Vec::new(),
            watermark: Timestamp::MIN,
            dropped: 0,
        }
    }
}

impl Operator for PartialCombineOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, _out: &mut OperatorOutput) -> Result<()> {
        let row = &record.value;
        let start = row
            .get_int(WINDOW_START_COL)
            .ok_or_else(|| Error::InvalidArgument("partial row missing window_start".into()))?;
        let end = row
            .get_int(WINDOW_END_COL)
            .ok_or_else(|| Error::InvalidArgument("partial row missing window_end".into()))?;
        let Some(Value::Bytes(payload)) = row.get(PARTIAL_COL) else {
            return Err(Error::InvalidArgument(
                "combine input missing __partial accumulators".into(),
            ));
        };
        let mut r = Reader::new(payload);
        let n = r.u32("partial accumulator count")? as usize;
        if n != self.cols.aggs.len() {
            return Err(Error::Corruption(format!(
                "partial row has {n} accumulators, stage has {}",
                self.cols.aggs.len()
            )));
        }
        self.incoming.clear();
        for _ in 0..n {
            self.incoming.push(AggAcc::decode(&mut r)?);
        }
        if end
            .checked_add(self.allowed_lateness)
            .map(|e| e <= self.watermark)
            .unwrap_or(false)
        {
            // unreachable under epoch-aligned merges; counted defensively
            self.dropped += 1;
            return Ok(());
        }
        write_key(&mut self.key, row, &self.cols.keys);
        match self.state.held(&self.key, start, end) {
            Some(accs) => {
                for (a, b) in accs.iter_mut().zip(&self.incoming) {
                    a.merge(b);
                }
            }
            None => {
                let accs = self.incoming.drain(..).collect();
                self.state
                    .open(&self.key, row, &self.cols.keys, (start, end), accs);
            }
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut OperatorOutput) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        let lateness = self.allowed_lateness;
        self.cols
            .flush_closed(&mut self.state, wm, lateness, false, out);
    }

    fn snapshot(&self) -> Bytes {
        self.state.snapshot(self.watermark, self.dropped)
    }

    fn restore(&mut self, data: Bytes) -> Result<()> {
        let (watermark, dropped, state) = WindowMap::restore(data, None)?;
        self.watermark = watermark;
        self.dropped = dropped;
        self.state = state;
        Ok(())
    }

    fn memory_bytes(&self) -> usize {
        self.state.memory_bytes()
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn late_dropped(&self) -> u64 {
        self.dropped
    }

    fn emits_inline(&self) -> bool {
        false
    }
}

/// A chain of operators fused into one stage — Flink's operator chaining.
///
/// Records flow member-to-member through reused scratch buffers with no
/// channel hop, no per-record `StagedMsg`, and no extra thread. Built by
/// [`fuse_stateless`]; the runtime treats it as any other operator, and
/// [`Operator::operator_names`] still reports every member for stats.
pub struct FusedOp {
    name: String,
    ops: Vec<Box<dyn Operator>>,
    /// Reused ping-pong buffers between chain members.
    scratch: (OperatorOutput, OperatorOutput),
    /// Error raised while cascading a watermark (which can't return one);
    /// surfaced at the next fallible call.
    pending_error: Option<Error>,
}

impl FusedOp {
    pub fn new(ops: Vec<Box<dyn Operator>>) -> Self {
        assert!(!ops.is_empty(), "fused chain needs at least one operator");
        let name = format!(
            "fused[{}]",
            ops.iter().map(|o| o.name()).collect::<Vec<_>>().join("->")
        );
        FusedOp {
            name,
            ops,
            scratch: Default::default(),
            pending_error: None,
        }
    }
}

impl Operator for FusedOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, out: &mut OperatorOutput) -> Result<()> {
        self.process_batch(std::slice::from_ref(record), out)
    }

    /// Run `batch` through every member in order; the last member writes
    /// into `out`. Buffers are recycled across calls.
    fn process_batch(&mut self, batch: &[Arc<Record>], out: &mut OperatorOutput) -> Result<()> {
        if let Some(e) = self.pending_error.take() {
            return Err(e);
        }
        let last = self.ops.len() - 1;
        let (mut cur, mut next) = std::mem::take(&mut self.scratch);
        for (i, op) in self.ops.iter_mut().enumerate() {
            let input = if i == 0 { batch } else { &cur[..] };
            if i == last {
                op.process_batch(input, out)?;
            } else {
                next.clear();
                op.process_batch(input, &mut next)?;
                std::mem::swap(&mut cur, &mut next);
            }
        }
        cur.clear();
        next.clear();
        self.scratch = (cur, next);
        Ok(())
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut OperatorOutput) {
        // anything member i emits on the watermark must pass through
        // members i+1.. before the watermark itself reaches them
        let last = self.ops.len() - 1;
        let mut pending = OperatorOutput::new();
        for i in 0..self.ops.len() {
            let mut emitted = Vec::new();
            if !pending.is_empty() {
                let dst = if i == last { &mut *out } else { &mut emitted };
                if let Err(e) = self.ops[i].process_batch(&pending, dst) {
                    self.pending_error.get_or_insert(e);
                    return;
                }
            }
            let dst = if i == last { &mut *out } else { &mut emitted };
            self.ops[i].on_watermark(wm, dst);
            pending = emitted;
        }
    }

    fn snapshot(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(self.ops.len() as u32);
        for op in &self.ops {
            w.block(&op.snapshot());
        }
        w.into_bytes()
    }

    fn restore(&mut self, data: Bytes) -> Result<()> {
        let mut r = Reader::new(&data);
        let n = r.u32("fused snapshot member count")? as usize;
        if n != self.ops.len() {
            return Err(Error::Corruption(format!(
                "fused snapshot has {n} members, chain has {}",
                self.ops.len()
            )));
        }
        for op in &mut self.ops {
            op.restore(r.owned_block(&data, "fused member snapshot")?)?;
        }
        Ok(())
    }

    fn memory_bytes(&self) -> usize {
        self.ops.iter().map(|o| o.memory_bytes()).sum()
    }

    fn is_stateful(&self) -> bool {
        self.ops.iter().any(|o| o.is_stateful())
    }

    fn operator_names(&self) -> Vec<String> {
        self.ops.iter().flat_map(|o| o.operator_names()).collect()
    }

    fn late_dropped(&self) -> u64 {
        self.ops.iter().map(|o| o.late_dropped()).sum()
    }
}

fn flush_fuse_run(out: &mut Vec<Box<dyn Operator>>, run: &mut Vec<Box<dyn Operator>>) {
    if run.len() > 1 {
        out.push(Box::new(FusedOp::new(std::mem::take(run))));
    } else {
        out.append(run);
    }
}

/// The operator-chaining pass: collapse every maximal run of two or more
/// adjacent stateless operators into a single [`FusedOp`] stage. Stateful
/// operators (windowed aggregation, joins) keep their own stage so their
/// snapshots stay addressable and their thread stays isolated; singleton
/// stateless operators pass through unchanged.
pub fn fuse_stateless(ops: Vec<Box<dyn Operator>>) -> Vec<Box<dyn Operator>> {
    let mut out: Vec<Box<dyn Operator>> = Vec::with_capacity(ops.len());
    let mut run: Vec<Box<dyn Operator>> = Vec::new();
    for op in ops {
        if op.is_stateful() {
            flush_fuse_run(&mut out, &mut run);
            out.push(op);
        } else {
            run.push(op);
        }
    }
    flush_fuse_run(&mut out, &mut run);
    out
}

/// Column that tags which input stream a record of a unioned source came
/// from (see [`crate::source::UnionSource`]).
pub const STREAM_TAG: &str = "__stream";

/// Windowed stream-stream inner join on a key column.
///
/// Inputs must carry [`STREAM_TAG`] identifying their side. Emits one
/// merged row per matching (left, right) pair within the same tumbling
/// window. This is the paper's "stream-stream join job \[that\] will almost
/// always be memory bound" (§4.2.1) and the core of the prediction
/// monitoring pipeline (§5.3: joining predictions to observed outcomes).
pub struct WindowJoinOp {
    name: String,
    key_col: String,
    left_tag: String,
    right_tag: String,
    window_ms: i64,
    /// (key, window_start) -> (left rows, right rows)
    state: BTreeMap<(String, Timestamp), (Vec<Row>, Vec<Row>)>,
    watermark: Timestamp,
    dropped: u64,
}

impl WindowJoinOp {
    pub fn new(
        name: impl Into<String>,
        key_col: impl Into<String>,
        left_tag: impl Into<String>,
        right_tag: impl Into<String>,
        window_ms: i64,
    ) -> Self {
        assert!(window_ms > 0);
        WindowJoinOp {
            name: name.into(),
            key_col: key_col.into(),
            left_tag: left_tag.into(),
            right_tag: right_tag.into(),
            window_ms,
            state: BTreeMap::new(),
            watermark: Timestamp::MIN,
            dropped: 0,
        }
    }

    fn merge_rows(left: &Row, right: &Row) -> Row {
        let mut out = left.clone();
        for (name, value) in right.iter() {
            if name == STREAM_TAG {
                continue;
            }
            if out.get(name).is_none() {
                out.push(name.to_string(), value.clone());
            } else if name != "window_start" {
                out.push(format!("r_{name}"), value.clone());
            }
        }
        out
    }
}

impl Operator for WindowJoinOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, record: &Arc<Record>, out: &mut OperatorOutput) -> Result<()> {
        let row = &record.value;
        let tag = row
            .get_str(STREAM_TAG)
            .ok_or_else(|| Error::InvalidArgument("join input missing __stream tag".into()))?;
        let win_start = record.timestamp.div_euclid(self.window_ms) * self.window_ms;
        if win_start + self.window_ms <= self.watermark {
            self.dropped += 1;
            return Ok(());
        }
        let key = key_string(row, std::slice::from_ref(&self.key_col));
        let (lefts, rights) = self.state.entry((key, win_start)).or_default();
        let mut emit = |left: &Row, right: &Row| {
            let mut joined = Self::merge_rows(left, right);
            joined.set(STREAM_TAG, Value::Null);
            let mut rec = Record::new(joined, record.timestamp);
            rec.key = record.key.clone();
            out.push(Arc::new(rec));
        };
        // the join buffers the row itself: state outlives the batch, and a
        // held handle would pin the whole record
        if tag == self.left_tag {
            rights.iter().for_each(|r| emit(row, r));
            lefts.push(row.clone());
        } else if tag == self.right_tag {
            lefts.iter().for_each(|l| emit(l, row));
            rights.push(row.clone());
        } else {
            return Err(Error::InvalidArgument(format!(
                "unknown stream tag '{tag}' (expected '{}' or '{}')",
                self.left_tag, self.right_tag
            )));
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: Timestamp, _out: &mut OperatorOutput) {
        if wm <= self.watermark {
            return;
        }
        self.watermark = wm;
        let window = self.window_ms;
        self.state.retain(|(_, start), _| start + window > wm);
    }

    fn snapshot(&self) -> Bytes {
        let mut w = Writer::new();
        w.i64(self.watermark);
        w.u64(self.dropped);
        w.u32(self.state.len() as u32);
        for ((key, start), (left, right)) in &self.state {
            w.str(key);
            w.i64(*start);
            w.block_with(|w| encode_rows_into(w, left));
            w.block_with(|w| encode_rows_into(w, right));
        }
        w.into_bytes()
    }

    fn restore(&mut self, data: Bytes) -> Result<()> {
        let mut r = Reader::new(&data);
        let watermark = r.i64("join watermark")?;
        let dropped = r.u64("join drop counter")?;
        // an entry's fixed-width fields (three length prefixes and the
        // window start) take 20 bytes
        let n = r.count(20, "join state entry count")?;
        let mut state = BTreeMap::new();
        for _ in 0..n {
            let key = r.str("join key")?.to_string();
            let start = r.i64("join window start")?;
            let left = decode_rows(r.block("join left rows")?)?;
            let right = decode_rows(r.block("join right rows")?)?;
            state.insert((key, start), (left, right));
        }
        self.watermark = watermark;
        self.dropped = dropped;
        self.state = state;
        Ok(())
    }

    fn memory_bytes(&self) -> usize {
        self.state
            .values()
            .map(|(l, r)| {
                l.iter().map(Row::approx_bytes).sum::<usize>()
                    + r.iter().map(Row::approx_bytes).sum::<usize>()
                    + 48
            })
            .sum()
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn late_dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: Timestamp, row: Row) -> Arc<Record> {
        Arc::new(Record::new(row, ts))
    }

    fn drain(
        op: &mut dyn Operator,
        records: Vec<Arc<Record>>,
        final_wm: Timestamp,
    ) -> OperatorOutput {
        let mut out = Vec::new();
        for r in &records {
            op.process(r, &mut out).unwrap();
        }
        op.on_watermark(final_wm, &mut out);
        out
    }

    #[test]
    fn map_transforms_rows() {
        let mut op = MapOp::new("double", |r: &Row| {
            Row::new().with("x", r.get_int("x").unwrap_or(0) * 2)
        });
        let out = drain(&mut op, vec![rec(0, Row::new().with("x", 21i64))], 100);
        assert_eq!(out[0].value.get_int("x"), Some(42));
    }

    #[test]
    fn filter_drops_rows() {
        let mut op = FilterOp::new("evens", |r: &Row| r.get_int("x").unwrap_or(0) % 2 == 0);
        let records = (0..10).map(|i| rec(i, Row::new().with("x", i))).collect();
        let out = drain(&mut op, records, 100);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn flatmap_expands() {
        let mut op = FlatMapOp::new("dup", |r: &Record| vec![r.clone(), r.clone()]);
        let out = drain(&mut op, vec![rec(0, Row::new())], 100);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn window_aggregate_counts_per_key_per_window() {
        let mut op = WindowAggregateOp::new(
            "agg",
            vec!["city".into()],
            WindowAssigner::tumbling(1000),
            vec![
                ("trips".into(), AggFn::Count),
                ("total_fare".into(), AggFn::Sum("fare".into())),
            ],
            0,
        );
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(rec(
                i * 300,
                Row::new()
                    .with("city", if i % 2 == 0 { "sf" } else { "la" })
                    .with("fare", 1.0),
            ));
        }
        let out = drain(&mut op, records, i64::MAX);
        // 3 windows (0-1000, 1000-2000, 2000-3000) x up to 2 keys
        let sf_first = out
            .iter()
            .find(|r| {
                r.value.get_str("city") == Some("sf") && r.value.get_int("window_start") == Some(0)
            })
            .unwrap();
        assert_eq!(sf_first.value.get_int("trips"), Some(2)); // i=0 (t 0) and i=2 (t 600)
        assert_eq!(sf_first.value.get_double("total_fare"), Some(2.0));
        let total: i64 = out.iter().map(|r| r.value.get_int("trips").unwrap()).sum();
        assert_eq!(total, 10);
        assert_eq!(op.late_dropped(), 0);
    }

    #[test]
    fn late_records_dropped_after_watermark() {
        let mut op = WindowAggregateOp::new(
            "agg",
            vec!["k".into()],
            WindowAssigner::tumbling(1000),
            vec![("n".into(), AggFn::Count)],
            0,
        );
        let mut out = Vec::new();
        op.process(&rec(100, Row::new().with("k", "a")), &mut out)
            .unwrap();
        op.on_watermark(1500, &mut out); // window [0,1000) closes and emits
        assert_eq!(out.len(), 1);
        // a record for the closed window is late
        op.process(&rec(200, Row::new().with("k", "a")), &mut out)
            .unwrap();
        assert_eq!(op.late_dropped(), 1);
        // with lateness allowance it would have been accepted
        let mut op2 = WindowAggregateOp::new(
            "agg",
            vec!["k".into()],
            WindowAssigner::tumbling(1000),
            vec![("n".into(), AggFn::Count)],
            1000,
        );
        let mut out2 = Vec::new();
        op2.process(&rec(100, Row::new().with("k", "a")), &mut out2)
            .unwrap();
        op2.on_watermark(1500, &mut out2); // not emitted yet: lateness holds it
        assert!(out2.is_empty());
        op2.process(&rec(200, Row::new().with("k", "a")), &mut out2)
            .unwrap();
        assert_eq!(op2.late_dropped(), 0);
        op2.on_watermark(2100, &mut out2);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].value.get_int("n"), Some(2));
    }

    #[test]
    fn window_emission_timestamp_is_window_end_minus_one() {
        let mut op = WindowAggregateOp::new(
            "agg",
            vec!["k".into()],
            WindowAssigner::tumbling(1000),
            vec![("n".into(), AggFn::Count)],
            0,
        );
        let out = drain(&mut op, vec![rec(5, Row::new().with("k", "a"))], i64::MAX);
        assert_eq!(out[0].timestamp, 999);
        assert_eq!(out[0].key, Some(Value::Str("a".into())));
    }

    #[test]
    fn session_windows_merge() {
        let mut op = WindowAggregateOp::new(
            "sessions",
            vec!["user".into()],
            WindowAssigner::session(1000),
            vec![("events".into(), AggFn::Count)],
            0,
        );
        let records = vec![
            rec(0, Row::new().with("user", "u1")),
            rec(500, Row::new().with("user", "u1")), // merges with first
            rec(3000, Row::new().with("user", "u1")), // separate session
            rec(400, Row::new().with("user", "u2")),
        ];
        let out = drain(&mut op, records, i64::MAX);
        assert_eq!(out.len(), 3);
        let u1_first = out
            .iter()
            .find(|r| {
                r.value.get_str("user") == Some("u1") && r.value.get_int("window_start") == Some(0)
            })
            .unwrap();
        assert_eq!(u1_first.value.get_int("events"), Some(2));
        assert_eq!(u1_first.value.get_int("window_end"), Some(1500));
    }

    #[test]
    fn window_agg_snapshot_restore_roundtrip() {
        let mk = || {
            WindowAggregateOp::new(
                "agg",
                vec!["city".into()],
                WindowAssigner::tumbling(1000),
                vec![
                    ("n".into(), AggFn::Count),
                    ("riders".into(), AggFn::DistinctCount("rider".into())),
                ],
                0,
            )
        };
        let mut op = mk();
        let mut out = Vec::new();
        for i in 0..20 {
            op.process(
                &rec(
                    i * 100,
                    Row::new()
                        .with("city", "sf")
                        .with("rider", format!("r{}", i % 5)),
                ),
                &mut out,
            )
            .unwrap();
        }
        op.on_watermark(1000, &mut out);
        let emitted_before = out.len();
        let snap = op.snapshot();
        assert!(op.memory_bytes() > 0);

        let mut restored = mk();
        restored.restore(snap).unwrap();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        op.on_watermark(i64::MAX, &mut out_a);
        restored.on_watermark(i64::MAX, &mut out_b);
        assert_eq!(out_a, out_b, "restored operator continues identically");
        assert!(emitted_before >= 1);
    }

    fn map_filter_chain() -> Vec<Box<dyn Operator>> {
        vec![
            Box::new(MapOp::new("inc", |r: &Row| {
                Row::new().with("x", r.get_int("x").unwrap_or(0) + 1)
            })),
            Box::new(FilterOp::new("evens", |r: &Row| {
                r.get_int("x").unwrap_or(0) % 2 == 0
            })),
            Box::new(FlatMapOp::new("dup", |r: &Record| {
                vec![r.clone(), r.clone()]
            })),
        ]
    }

    #[test]
    fn fused_chain_matches_sequential_execution() {
        let records: Vec<Arc<Record>> = (0..20).map(|i| rec(i, Row::new().with("x", i))).collect();
        // reference: run the chain operator by operator
        let mut expected = records.clone();
        for mut op in map_filter_chain() {
            let mut next = Vec::new();
            for r in &expected {
                op.process(r, &mut next).unwrap();
            }
            expected = next;
        }
        let mut fused = FusedOp::new(map_filter_chain());
        assert_eq!(fused.name(), "fused[inc->evens->dup]");
        assert_eq!(fused.operator_names(), vec!["inc", "evens", "dup"]);
        assert!(!fused.is_stateful());
        // per-record path
        let mut got = Vec::new();
        for r in &records {
            fused.process(r, &mut got).unwrap();
        }
        assert_eq!(got, expected);
        // batched path
        let mut fused2 = FusedOp::new(map_filter_chain());
        let mut got2 = Vec::new();
        fused2.process_batch(&records, &mut got2).unwrap();
        assert_eq!(got2, expected);
    }

    #[test]
    fn fuse_stateless_groups_maximal_runs() {
        let ops: Vec<Box<dyn Operator>> = vec![
            Box::new(MapOp::new("a", |r: &Row| r.clone())),
            Box::new(MapOp::new("b", |r: &Row| r.clone())),
            Box::new(WindowAggregateOp::new(
                "agg",
                vec!["k".into()],
                WindowAssigner::tumbling(1000),
                vec![("n".into(), AggFn::Count)],
                0,
            )),
            Box::new(MapOp::new("c", |r: &Row| r.clone())),
        ];
        let fused = fuse_stateless(ops);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0].name(), "fused[a->b]");
        assert_eq!(fused[0].operator_names(), vec!["a", "b"]);
        assert_eq!(fused[1].name(), "agg");
        assert!(fused[1].is_stateful());
        assert_eq!(fused[2].name(), "c"); // singleton left unfused
    }

    #[test]
    fn fused_watermark_cascades_through_members() {
        // window-agg emissions on watermark must flow through the
        // downstream map before the watermark moves on
        let ops: Vec<Box<dyn Operator>> = vec![
            Box::new(WindowAggregateOp::new(
                "agg",
                vec!["k".into()],
                WindowAssigner::tumbling(1000),
                vec![("n".into(), AggFn::Count)],
                0,
            )),
            Box::new(MapOp::new("tag", |r: &Row| {
                let mut out = r.clone();
                out.push("tagged", 1i64);
                out
            })),
        ];
        let mut fused = FusedOp::new(ops);
        let mut out = Vec::new();
        fused
            .process(&rec(100, Row::new().with("k", "a")), &mut out)
            .unwrap();
        fused.on_watermark(5000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value.get_int("tagged"), Some(1));
        assert_eq!(out[0].value.get_int("n"), Some(1));
    }

    #[test]
    fn fused_snapshot_restore_roundtrip() {
        let mk = || {
            FusedOp::new(vec![
                Box::new(MapOp::new("id", |r: &Row| r.clone())) as Box<dyn Operator>,
                Box::new(WindowAggregateOp::new(
                    "agg",
                    vec!["k".into()],
                    WindowAssigner::tumbling(1000),
                    vec![("n".into(), AggFn::Count)],
                    0,
                )),
            ])
        };
        let mut op = mk();
        let mut out = Vec::new();
        for i in 0..10 {
            op.process(&rec(i * 100, Row::new().with("k", "a")), &mut out)
                .unwrap();
        }
        let snap = op.snapshot();
        let mut restored = mk();
        restored.restore(snap).unwrap();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        op.on_watermark(i64::MAX, &mut out_a);
        restored.on_watermark(i64::MAX, &mut out_b);
        assert_eq!(out_a, out_b);
        assert!(!out_a.is_empty());
    }

    #[test]
    fn window_agg_batched_path_matches_per_record() {
        let mk = |assigner: WindowAssigner| {
            WindowAggregateOp::new(
                "agg",
                vec!["k".into()],
                assigner,
                vec![
                    ("n".into(), AggFn::Count),
                    ("s".into(), AggFn::Sum("v".into())),
                ],
                0,
            )
        };
        for assigner in [
            WindowAssigner::tumbling(700),
            WindowAssigner::sliding(900, 300),
        ] {
            let records: Vec<Arc<Record>> = (0..60)
                .map(|i| {
                    rec(
                        (i * 137) % 2500, // out of order, with same-key runs
                        Row::new()
                            .with("k", format!("k{}", (i / 7) % 3))
                            .with("v", i as f64),
                    )
                })
                .collect();
            let mut a = mk(assigner);
            let mut b = mk(assigner);
            let mut out_a = Vec::new();
            let mut out_b = Vec::new();
            // interleave a watermark so the late path is exercised too
            for (idx, chunk) in records.chunks(20).enumerate() {
                for r in chunk {
                    a.process(r, &mut out_a).unwrap();
                }
                b.process_batch(chunk, &mut out_b).unwrap();
                let wm = 600 * (idx as i64 + 1);
                a.on_watermark(wm, &mut out_a);
                b.on_watermark(wm, &mut out_b);
            }
            a.on_watermark(i64::MAX, &mut out_a);
            b.on_watermark(i64::MAX, &mut out_b);
            assert_eq!(out_a, out_b, "assigner {assigner:?}");
            assert_eq!(Operator::late_dropped(&a), Operator::late_dropped(&b));
        }
    }

    #[test]
    fn join_matches_within_window_only() {
        let mut op = WindowJoinOp::new("join", "model", "pred", "outcome", 1000);
        let mut out = Vec::new();
        let pred = |ts, model: &str, v: f64| {
            rec(
                ts,
                Row::new()
                    .with(STREAM_TAG, "pred")
                    .with("model", model)
                    .with("predicted", v),
            )
        };
        let outcome = |ts, model: &str, v: f64| {
            rec(
                ts,
                Row::new()
                    .with(STREAM_TAG, "outcome")
                    .with("model", model)
                    .with("actual", v),
            )
        };
        op.process(&pred(100, "m1", 0.9), &mut out).unwrap();
        op.process(&outcome(200, "m1", 1.0), &mut out).unwrap(); // same window -> join
        op.process(&outcome(1500, "m1", 0.0), &mut out).unwrap(); // next window -> no match
        op.process(&outcome(300, "m2", 0.5), &mut out).unwrap(); // other key -> no match
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value.get_double("predicted"), Some(0.9));
        assert_eq!(out[0].value.get_double("actual"), Some(1.0));
        assert!(op.memory_bytes() > 0);
    }

    #[test]
    fn join_state_evicted_by_watermark() {
        let mut op = WindowJoinOp::new("join", "k", "l", "r", 1000);
        let mut out = Vec::new();
        op.process(
            &rec(
                100,
                Row::new()
                    .with(STREAM_TAG, "l")
                    .with("k", "a")
                    .with("x", 1i64),
            ),
            &mut out,
        )
        .unwrap();
        let before = op.memory_bytes();
        op.on_watermark(2000, &mut out);
        assert!(op.memory_bytes() < before);
        // matching record now arrives too late: dropped, no join output
        op.process(
            &rec(
                150,
                Row::new()
                    .with(STREAM_TAG, "r")
                    .with("k", "a")
                    .with("y", 2i64),
            ),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn join_rejects_untagged_input() {
        let mut op = WindowJoinOp::new("join", "k", "l", "r", 1000);
        let mut out = Vec::new();
        assert!(op
            .process(&rec(0, Row::new().with("k", "a")), &mut out)
            .is_err());
        assert!(op
            .process(
                &rec(0, Row::new().with(STREAM_TAG, "zzz").with("k", "a")),
                &mut out
            )
            .is_err());
    }

    #[test]
    fn join_snapshot_restore_roundtrip() {
        let mut op = WindowJoinOp::new("join", "k", "l", "r", 1000);
        let mut out = Vec::new();
        for i in 0..10 {
            op.process(
                &rec(
                    i * 50,
                    Row::new()
                        .with(STREAM_TAG, "l")
                        .with("k", format!("k{}", i % 3))
                        .with("x", i),
                ),
                &mut out,
            )
            .unwrap();
        }
        let snap = op.snapshot();
        let mut restored = WindowJoinOp::new("join", "k", "l", "r", 1000);
        restored.restore(snap).unwrap();
        // a right-side record joins against restored left buffers
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        let right = rec(
            400,
            Row::new()
                .with(STREAM_TAG, "r")
                .with("k", "k0")
                .with("y", 7i64),
        );
        op.process(&right, &mut out_a).unwrap();
        restored.process(&right, &mut out_b).unwrap();
        assert_eq!(out_a.len(), out_b.len());
        assert!(!out_b.is_empty());
    }

    #[test]
    fn join_restore_rejects_truncated_and_length_flipped_snapshots() {
        let mut op = WindowJoinOp::new("join", "k", "l", "r", 1000);
        let mut out = Vec::new();
        for (i, tag) in ["l", "r", "l", "r"].into_iter().enumerate() {
            let row = Row::new()
                .with(STREAM_TAG, tag)
                .with("k", format!("k{}", i % 2))
                .with("x", i as i64);
            op.process(&rec(i as i64 * 10, row), &mut out).unwrap();
        }
        let snap = op.snapshot().to_vec();
        let restore = |bytes: &[u8]| {
            WindowJoinOp::new("join", "k", "l", "r", 1000).restore(Bytes::copy_from_slice(bytes))
        };
        restore(&snap).unwrap();
        for cut in 0..snap.len() {
            let got = restore(&snap[..cut]);
            assert!(
                matches!(got, Err(Error::Corruption(_))),
                "cut {cut}: {got:?}"
            );
        }
        // the first entry's three length prefixes: klen, llen, rlen
        let be32 = |at: usize| u32::from_be_bytes(snap[at..at + 4].try_into().unwrap()) as usize;
        let klen_at = 20;
        let llen_at = klen_at + 4 + be32(klen_at) + 8;
        let rlen_at = llen_at + 4 + be32(llen_at);
        for at in [klen_at, llen_at, rlen_at] {
            let mut bad = snap.clone();
            bad[at] ^= 0x7f;
            let got = restore(&bad);
            assert!(
                matches!(got, Err(Error::Corruption(_))),
                "flip at {at}: {got:?}"
            );
        }
    }

    #[test]
    fn windowed_restore_rejects_duplicate_entries_of_different_shape() {
        // two stages that disagree on the aggregate list, same key and
        // window: folding their frames must not reach `AggAcc::merge`
        let mk = |agg: AggFn| {
            let mut op = WindowAggregateOp::new(
                "agg",
                vec!["city".into()],
                WindowAssigner::tumbling(1000),
                vec![("a".into(), agg)],
                0,
            );
            let row = Row::new().with("city", "sf").with("fare", 2.0);
            op.process(&rec(10, row), &mut Vec::new()).unwrap();
            KeyedSnapshot::decode(op.snapshot()).unwrap()
        };
        let mixed = KeyedSnapshot::merge([mk(AggFn::Count), mk(AggFn::Sum("fare".into()))]);
        let got = WindowMap::restore(mixed.encode(), None);
        assert!(matches!(got, Err(Error::Corruption(_))), "{:?}", got.err());
        let same = KeyedSnapshot::merge([mk(AggFn::Count), mk(AggFn::Count)]);
        let (_, _, mut state) = WindowMap::restore(same.encode(), None).unwrap();
        assert_eq!(state.held("sf", 0, 1000), Some(&mut vec![AggAcc::Count(2)]));
    }

    #[test]
    fn dedup_passes_first_occurrence_only() {
        let mut op = DedupOp::new("dedup", vec!["city".into(), "driver".into()]);
        assert!(op.is_stateful());
        let mut out = Vec::new();
        for (i, (c, d)) in [("sf", "d1"), ("sf", "d2"), ("sf", "d1"), ("la", "d1")]
            .iter()
            .enumerate()
        {
            op.process(
                &rec(i as i64, Row::new().with("city", *c).with("driver", *d)),
                &mut out,
            )
            .unwrap();
        }
        assert_eq!(out.len(), 3);
        assert_eq!(op.seen.len(), 3);
        assert!(op.memory_bytes() > 0);
    }

    #[test]
    fn dedup_snapshot_roundtrip_and_sharded_restore() {
        let mut op = DedupOp::new("dedup", vec!["k".into()]);
        let mut out = Vec::new();
        for i in 0..200 {
            op.process(&rec(i, Row::new().with("k", format!("k{i}"))), &mut out)
                .unwrap();
        }
        let snap = op.snapshot();
        let mut whole = DedupOp::new("dedup", vec!["k".into()]);
        whole.restore(snap.clone()).unwrap();
        assert_eq!(whole.seen.len(), 200);
        // sharded restore partitions the seen-set without loss or overlap
        for p in [2usize, 3, 4] {
            let template = DedupOp::new("dedup", vec!["k".into()]).with_parallelism(p);
            let mut total = 0;
            for i in 0..p {
                let mut shard = template.make_shard(i, p).unwrap();
                shard.restore(snap.clone()).unwrap();
                total += shard.memory_bytes();
            }
            assert_eq!(
                total,
                whole.memory_bytes(),
                "parallelism {p} must partition exactly"
            );
        }
    }

    #[test]
    fn window_agg_sharded_restore_partitions_state() {
        // Snapshot a serial aggregation mid-flight, restore it into N
        // shards, and check the union of shard flushes equals the serial
        // flush — the rescale redistribution property end to end.
        let mk = || {
            WindowAggregateOp::new(
                "agg",
                vec!["city".into()],
                WindowAssigner::tumbling(1000),
                vec![
                    ("n".into(), AggFn::Count),
                    ("fare".into(), AggFn::Sum("fare".into())),
                ],
                0,
            )
        };
        let mut serial = mk();
        let mut out = Vec::new();
        for i in 0..300i64 {
            serial
                .process(
                    &rec(
                        (i * 37) % 5000,
                        Row::new()
                            .with("city", format!("city-{}", i % 29))
                            .with("fare", (i % 13) as f64 * 0.25),
                    ),
                    &mut out,
                )
                .unwrap();
        }
        let snap = serial.snapshot();
        let mut serial_flush = Vec::new();
        serial.on_watermark(i64::MAX, &mut serial_flush);
        for p in [2usize, 4, 8] {
            let template = mk().with_parallelism(p);
            let mut union = Vec::new();
            for i in 0..p {
                let mut shard = template.make_shard(i, p).unwrap();
                shard.restore(snap.clone()).unwrap();
                shard.on_watermark(i64::MAX, &mut union);
            }
            let sort_key = |r: &Arc<Record>| {
                (
                    key_string(&r.value, &["city".to_string()]),
                    r.value.get_int(WINDOW_START_COL),
                )
            };
            union.sort_by_key(sort_key);
            let mut expected = serial_flush.clone();
            expected.sort_by_key(sort_key);
            assert_eq!(union, expected, "parallelism {p}");
        }
    }

    #[test]
    fn salted_two_phase_matches_serial() {
        let aggs = || {
            vec![
                ("n".into(), AggFn::Count),
                ("fare".into(), AggFn::Sum("fare".into())),
                ("top".into(), AggFn::Max("fare".into())),
            ]
        };
        let mk = || {
            WindowAggregateOp::new(
                "agg",
                vec!["city".into()],
                WindowAssigner::tumbling(1000),
                aggs(),
                0,
            )
        };
        // dyadic fares, so re-associated float sums stay exact
        let records: Vec<Arc<Record>> = (0..400i64)
            .map(|i| {
                rec(
                    (i * 53) % 4000,
                    Row::new()
                        .with("city", if i % 3 == 0 { "hot" } else { "cold" })
                        .with("fare", (i % 17) as f64 * 0.25),
                )
            })
            .collect();
        let mut serial = mk();
        let mut expected = Vec::new();
        for r in &records {
            serial.process(r, &mut expected).unwrap();
        }
        serial.on_watermark(i64::MAX, &mut expected);

        // two shards in salted mode, records sprayed round-robin (as the
        // router does for a 100%-hot stream), then the combine stage
        let template = mk().with_hot_key_salting(1).with_parallelism(2);
        let mut shards: Vec<Box<dyn Operator>> =
            (0..2).map(|i| template.make_shard(i, 2).unwrap()).collect();
        assert!(!template.emits_inline());
        let mut combiner = template.make_combiner().unwrap();
        let mut partials = Vec::new();
        for (i, r) in records.iter().enumerate() {
            shards[i % 2].process(r, &mut partials).unwrap();
        }
        for s in &mut shards {
            s.on_watermark(i64::MAX, &mut partials);
        }
        // deterministic merge order: (key, window_start)
        partials.sort_by_key(|r| {
            (
                key_string(&r.value, &["city".to_string()]),
                r.value.get_int(WINDOW_START_COL),
            )
        });
        let mut got = Vec::new();
        for p in &partials {
            combiner.process(p, &mut got).unwrap();
        }
        combiner.on_watermark(i64::MAX, &mut got);
        assert_eq!(got, expected, "salted two-phase output must be identical");
        // combiner checkpoint roundtrip keeps in-flight partials
        let snap = combiner.snapshot();
        let mut restored = PartialCombineOp::new("agg-combine", vec!["city".into()], aggs(), 0);
        restored.restore(snap).unwrap();
        assert_eq!(restored.memory_bytes(), combiner.memory_bytes());
    }

    #[test]
    fn shard_spec_declared_only_when_parallel_or_salted() {
        let serial = WindowAggregateOp::new(
            "agg",
            vec!["k".into()],
            WindowAssigner::tumbling(1000),
            vec![("n".into(), AggFn::Count)],
            0,
        );
        assert!(serial.shard_spec().is_none());
        let parallel = WindowAggregateOp::new(
            "agg",
            vec!["k".into()],
            WindowAssigner::tumbling(1000),
            vec![("n".into(), AggFn::Count)],
            0,
        )
        .with_parallelism(4);
        let spec = parallel.shard_spec().unwrap();
        assert_eq!(spec.parallelism, 4);
        assert_eq!(spec.hot_key_threshold, None);
        assert!(parallel.make_combiner().is_none());
        // sessions refuse salting (cross-record merges need one instance)
        let sessions = WindowAggregateOp::new(
            "agg",
            vec!["k".into()],
            WindowAssigner::session(500),
            vec![("n".into(), AggFn::Count)],
            0,
        )
        .with_parallelism(2)
        .with_hot_key_salting(10);
        assert_eq!(sessions.shard_spec().unwrap().hot_key_threshold, None);
        assert!(sessions.make_combiner().is_none());
    }
}
