//! Raw-log archival and compaction.
//!
//! §4.4: "Most of this data comes from Kafka which is in Avro format and is
//! persisted in HDFS as raw logs. These logs are then merged into the long
//! term Parquet data format using a compaction process."
//!
//! [`ArchivalWriter`] appends micro-batches of records as raw-log objects
//! keyed by `raw/<dataset>/<date>/<seq>`; [`Compactor`] merges all raw logs
//! of a (dataset, date) into one columnar file under
//! `warehouse/<dataset>/<date>/part-<n>` and registers it with the Hive
//! catalog.
//!
//! Both are written in event-time order. A raw log holds its records by
//! timestamp, equal timestamps in the order they came; a part file holds
//! its rows by `__ts`, NULL first, and says so in its header
//! (`sorted_col`), so a `__ts` range is a binary search and the Kappa+
//! source's sort is one pass over each part.

use crate::column::ColumnData;
use crate::hive::HiveCatalog;
use crate::object::ObjectStore;
use crate::segfile::{self, SegmentMeta};
use bytes::Bytes;
use rtdi_common::wire::{Reader, Writer};
use rtdi_common::{
    Error, Record, Result, RetryPolicy, Row, RowNames, Schema, Timestamp, UniqueId, Value,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Format a timestamp into the `YYYY-MM-DD`-style date partition used for
/// archival layout. We use day buckets computed from epoch days — exact
/// calendar rendering is irrelevant to the experiments, only stable
/// bucketing matters.
pub fn date_partition(ts: Timestamp) -> String {
    day_name(epoch_day(ts))
}

pub(crate) fn epoch_day(ts: Timestamp) -> i64 {
    ts.div_euclid(86_400_000)
}

fn day_name(day: i64) -> String {
    format!("d{day:06}")
}

/// Inverse of [`day_name`]: the epoch day a date partition names.
pub(crate) fn date_day(date: &str) -> Option<i64> {
    date.strip_prefix('d')?.parse().ok()
}

/// Raw-log encoding of a record batch: length-prefixed rows with key,
/// timestamp, the typed audit block and headers (public: claim E22's
/// tiered-log model reuses it for cold chunks).
pub fn encode_raw(records: &[Record]) -> Result<Bytes> {
    Ok(encode_raw_refs(records.iter()))
}

/// Fewest bytes a raw-log record takes: ts(8) + key tag(1) + an audit
/// block of its length(4) and flags(1) + header and column counts(8).
const MIN_RECORD_BYTES: usize = 22;

/// Audit-block flags: bits 0-1 say which [`UniqueId`] form follows, one
/// bit each for the four optional fields after it, in this order.
const ID_SEQ: u8 = 1;
const ID_TEXT: u8 = 2;
const HAS_APP_TS: u8 = 1 << 2;
const HAS_TRACE_TS: u8 = 1 << 3;
const HAS_SERVICE: u8 = 1 << 4;
const HAS_ORIGIN_REGION: u8 = 1 << 5;

/// A record's audit envelope, typed: a flags byte, then the fields it
/// announces — fixed-width integers, length-prefixed strings.
fn encode_audit(w: &mut Writer, r: &Record) {
    let has = |present: bool, flag: u8| if present { flag } else { 0 };
    let id = r.unique_id();
    let id_form = match id {
        None => 0,
        Some(UniqueId::Seq { .. }) => ID_SEQ,
        Some(UniqueId::Text(_)) => ID_TEXT,
    };
    let (app_ts, trace_ts) = (r.app_ts(), r.trace_ts());
    let (service, origin_region) = (r.service(), r.origin_region());
    let flags = id_form
        | has(app_ts.is_some(), HAS_APP_TS)
        | has(trace_ts.is_some(), HAS_TRACE_TS)
        | has(service.is_some(), HAS_SERVICE)
        | has(origin_region.is_some(), HAS_ORIGIN_REGION);
    w.u8(flags);
    match id {
        None => {}
        Some(UniqueId::Seq { origin, seq }) => {
            w.u64(seq);
            w.str(origin);
        }
        Some(UniqueId::Text(text)) => w.str(text),
    }
    for ts in [app_ts, trace_ts].into_iter().flatten() {
        w.i64(ts);
    }
    for s in [service, origin_region].into_iter().flatten() {
        w.str(s);
    }
}

/// Inverse of [`encode_audit`] over one record's block, which must hold
/// exactly the fields its flags announce.
fn decode_audit(block: &[u8], rec: &mut Record) -> Result<()> {
    let mut r = Reader::new(block);
    let flags = r.u8("audit flags")?;
    match flags & 0b11 {
        0 => {}
        ID_SEQ => {
            let seq = r.u64("unique id seq")?;
            let origin = &r.str("unique id origin")?.into();
            rec.set_unique_id(Some(UniqueId::Seq { origin, seq }));
        }
        ID_TEXT => rec.set_unique_id(Some(UniqueId::Text(&r.str("unique id")?.into()))),
        _ => return Err(Error::Corruption("bad unique id form".into())),
    }
    if flags & HAS_APP_TS != 0 {
        rec.set_app_ts(Some(r.i64("app timestamp")?));
    }
    if flags & HAS_TRACE_TS != 0 {
        rec.set_trace_ts(Some(r.i64("trace timestamp")?));
    }
    if flags & HAS_SERVICE != 0 {
        rec.set_service(Some(r.str("service")?.into()));
    }
    if flags & HAS_ORIGIN_REGION != 0 {
        rec.set_origin_region(Some(r.str("origin region")?.into()));
    }
    if flags >> 6 != 0 || r.remaining() != 0 {
        return Err(Error::Corruption(
            "audit block does not match its flags".into(),
        ));
    }
    Ok(())
}

fn encode_raw_refs<'a>(records: impl ExactSizeIterator<Item = &'a Record>) -> Bytes {
    let mut w = Writer::new();
    w.u32(records.len() as u32);
    for r in records {
        w.i64(r.timestamp);
        match &r.key {
            Some(Value::Str(s)) => {
                w.u8(KEY_STR);
                w.str(s);
            }
            Some(Value::Int(i)) => {
                w.u8(KEY_INT);
                w.i64(*i);
            }
            _ => w.u8(0),
        }
        // length-prefixed, so a reader that wants none of it skips it
        w.block_with(|w| encode_audit(w, r));
        w.u32(r.headers().len() as u32);
        for (k, v) in r.headers() {
            w.str(k);
            w.str(v);
        }
        encode_row(&mut w, &r.value);
    }
    w.into_bytes()
}

/// Key tags of a raw-log record (anything else: no key).
const KEY_STR: u8 = 1;
const KEY_INT: u8 = 2;
/// Value tags compaction reads without decoding a heap [`Value`].
const TAG_INT: u8 = 2;
const TAG_DOUBLE: u8 = 3;
const TAG_STR: u8 = 4;

fn encode_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.u8(0),
        Value::Bool(b) => {
            w.u8(1);
            w.u8(*b as u8);
        }
        Value::Int(i) => {
            w.u8(TAG_INT);
            w.i64(*i);
        }
        Value::Double(d) => {
            w.u8(TAG_DOUBLE);
            w.f64(*d);
        }
        Value::Str(s) => {
            w.u8(TAG_STR);
            w.str(s);
        }
        Value::Bytes(b) => {
            w.u8(5);
            w.block(b);
        }
        Value::Json(j) => {
            w.u8(6);
            w.str(&rtdi_common::json::to_string(j));
        }
    }
}

/// The value a tag announces, read after the tag.
fn decode_value(tag: u8, r: &mut Reader) -> Result<Value> {
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Bool(r.u8("bool value")? == 1),
        TAG_INT => Value::Int(r.i64("int value")?),
        TAG_DOUBLE => Value::Double(r.f64("double value")?),
        TAG_STR => Value::Str(r.str("string value")?.into()),
        5 => Value::Bytes(r.block("bytes value")?.to_vec()),
        6 => {
            let text = r.str("json value")?;
            let j = rtdi_common::json::parse(text)
                .map_err(|_| Error::Corruption("invalid json in raw log".into()))?;
            Value::Json(Box::new(j))
        }
        t => return Err(Error::Corruption(format!("bad value tag {t}"))),
    })
}

/// Encode a bare row list (used by compute-state checkpoints).
pub fn encode_rows(rows: &[Row]) -> Bytes {
    let mut w = Writer::new();
    encode_rows_into(&mut w, rows);
    w.into_bytes()
}

/// [`encode_rows`] appended to `w`: the same bytes, no buffer of its own.
pub fn encode_rows_into(w: &mut Writer, rows: &[Row]) {
    w.u32(rows.len() as u32);
    for row in rows {
        encode_row(w, row);
    }
}

/// One row: a column count, then `(name, value)` pairs.
fn encode_row(w: &mut Writer, row: &Row) {
    w.u32(row.len() as u32);
    for (name, value) in row.iter() {
        w.str(name);
        encode_value(w, value);
    }
}

/// Inverse of [`encode_rows`]. Bounds-checked throughout: corrupt input
/// returns `Err(Corruption)` and declared counts cannot force giant
/// preallocations.
pub fn decode_rows(data: &[u8]) -> Result<Vec<Row>> {
    let mut r = Reader::new(data);
    // every row needs at least its 4-byte column count
    let n = r.count(4, "row count")?;
    let mut out = Vec::with_capacity(n);
    let mut shape = RowNames::default();
    for _ in 0..n {
        out.push(decode_row(&mut r, &mut shape)?);
    }
    Ok(out)
}

/// One row: a column count, then `(name, value)` pairs. A row whose names
/// spell `shape`, the list of the row before it, shares that list;
/// another row starts a new one.
fn decode_row(r: &mut Reader, shape: &mut RowNames) -> Result<Row> {
    // every column needs at least its name length(4) + value tag(1)
    let ncols = r.count(5, "column count")?;
    let mut cells = Vec::with_capacity(ncols);
    // the names read so far, once one differs from `shape`
    let mut fresh: Option<Vec<Arc<str>>> =
        (shape.len() != ncols).then(|| Vec::with_capacity(ncols));
    for i in 0..ncols {
        let name = r.str("column name")?;
        if fresh.is_none() && *shape[i] != *name {
            let mut names = Vec::with_capacity(ncols);
            names.extend_from_slice(&shape[..i]);
            fresh = Some(names);
        }
        if let Some(names) = &mut fresh {
            names.push(name.into());
        }
        cells.push(decode_value(r.u8("value tag")?, r)?);
    }
    if let Some(names) = fresh {
        *shape = Arc::new(names);
    }
    Ok(Row::on(Arc::clone(shape), cells))
}

/// Decode a raw-log object back into records. Bounds-checked throughout:
/// corrupt input returns `Err(Corruption)`, never panics.
pub fn decode_raw(data: &Bytes) -> Result<Vec<Record>> {
    let mut r = Reader::new(data);
    let n = r.count(MIN_RECORD_BYTES, "record count")?;
    let mut out = Vec::with_capacity(n);
    let mut shape = RowNames::default();
    for _ in 0..n {
        let ts = r.i64("record timestamp")?;
        let key = match r.u8("key tag")? {
            KEY_STR => Some(Value::Str(r.str("key")?.into())),
            KEY_INT => Some(Value::Int(r.i64("int key")?)),
            _ => None,
        };
        let mut rec = Record::new(Row::new(), ts);
        rec.key = key;
        decode_audit(r.block("audit block")?, &mut rec)?;
        // every header needs at least its two length prefixes
        let nh = r.count(8, "header count")?;
        for _ in 0..nh {
            let k = r.str("header key")?.to_string();
            rec.set_header(k, r.str("header value")?);
        }
        rec.value = decode_row(&mut r, &mut shape)?;
        out.push(rec);
    }
    Ok(out)
}

/// Persists stream records into raw-log objects, bucketed by dataset and
/// date.
pub struct ArchivalWriter {
    store: Arc<dyn ObjectStore>,
    dataset: String,
    seq: AtomicU64,
}

impl ArchivalWriter {
    pub fn new(store: Arc<dyn ObjectStore>, dataset: impl Into<String>) -> Self {
        ArchivalWriter {
            store,
            dataset: dataset.into(),
            seq: AtomicU64::new(0),
        }
    }

    /// Write one micro-batch; records may span dates — they are split into
    /// per-date objects so compaction stays date-aligned.
    /// Returns the object keys written.
    pub fn write_batch(&self, records: &[Record]) -> Result<Vec<String>> {
        let written = self.write_records(records)?;
        Ok(written.into_iter().map(|(_, key)| key).collect())
    }

    /// [`Self::write_batch`] over borrowed records, wherever they live:
    /// the archiver encodes a topic's records from the log's own handles.
    /// Each object holds its records in event-time order, equal timestamps
    /// in the order given. Returns `(date, object key)` per object written,
    /// in date-name order, so a caller compacts the dates without parsing a
    /// key (a dataset name may hold a `/`).
    pub fn write_records<'a>(
        &self,
        records: impl IntoIterator<Item = &'a Record>,
    ) -> Result<Vec<(String, String)>> {
        let mut by_day: BTreeMap<i64, Vec<(Timestamp, &Record)>> = BTreeMap::new();
        for r in records {
            let day = by_day.entry(epoch_day(r.timestamp)).or_default();
            day.push((r.timestamp, r));
        }
        // objects are written in the order of the date names
        let mut by_date: Vec<(String, Vec<(Timestamp, &Record)>)> = by_day
            .into_iter()
            .map(|(day, recs)| (day_name(day), recs))
            .collect();
        by_date.sort_by(|a, b| a.0.cmp(&b.0));
        let mut written = Vec::new();
        let policy = RetryPolicy::new(4).with_backoff_us(50, 2_000);
        for (date, mut recs) in by_date {
            // a stable sort on the time beside each handle. Where event
            // time follows the order the records were produced in (a log fed
            // roughly in event-time order, late records a minority), the
            // encode then walks them in the order they were allocated in
            // instead of jumping across the heap partition by partition;
            // where event times are shuffled against it, the walk is random
            // and slower than the partition walk, which the sorted part
            // repays when it is read back in event-time order
            recs.sort_by_key(|&(ts, _)| ts);
            let seq = self.seq.fetch_add(1, Ordering::SeqCst);
            let key = format!("raw/{}/{}/log-{seq:08}", self.dataset, date);
            let data = encode_raw_refs(recs.iter().map(|&(_, r)| r));
            // a flaky archive is absorbed here: re-putting the same key is
            // an idempotent overwrite, so retries cannot duplicate data
            policy.run(|_| self.store.put(&key, data.clone()))?;
            written.push((date, key));
        }
        Ok(written)
    }

    /// List the raw-log object keys for a date.
    pub fn raw_keys(&self, date: &str) -> Result<Vec<String>> {
        self.store.list(&format!("raw/{}/{}/", self.dataset, date))
    }

    /// Read all raw records of a date (ordered by object key, i.e. write
    /// order).
    pub fn read_raw(&self, date: &str) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        for key in self.raw_keys(date)? {
            out.extend(decode_raw(&self.store.get(&key)?)?);
        }
        Ok(out)
    }
}

/// Merges raw logs into columnar warehouse files and registers them in the
/// Hive catalog — the §4.4 compaction process.
pub struct Compactor {
    store: Arc<dyn ObjectStore>,
    catalog: HiveCatalog,
}

impl Compactor {
    pub fn new(store: Arc<dyn ObjectStore>, catalog: HiveCatalog) -> Self {
        Compactor { store, catalog }
    }

    /// Compact every raw log of `(dataset, date)` into a single columnar
    /// part file sorted by `__ts` (NULL first, then
    /// [`ColumnData::cmp_docs`] order, equal times in raw-log order), which
    /// its header claims; register it with the catalog, and delete the raw
    /// logs. Returns the number of rows compacted.
    pub fn compact(&self, dataset: &str, date: &str, schema: &Schema) -> Result<usize> {
        let raw_prefix = format!("raw/{dataset}/{date}/");
        let keys = self.store.list(&raw_prefix)?;
        if keys.is_empty() {
            return Ok(0);
        }
        let mut full_schema = schema.clone();
        let ts_col = match full_schema.field_index("__ts") {
            Some(i) => i,
            None => {
                full_schema.fields.push(rtdi_common::Field::new(
                    "__ts",
                    rtdi_common::FieldType::Timestamp,
                ));
                full_schema.fields.len() - 1
            }
        };
        let mut columns: Vec<ColumnData> = full_schema
            .fields
            .iter()
            .map(|f| ColumnData::new(f.field_type))
            .collect();
        for key in &keys {
            compact_raw(&self.store.get(key)?, &full_schema, &mut columns)?;
        }
        columns.iter_mut().for_each(ColumnData::seal);
        let nrows = columns.first().map_or(0, ColumnData::len);
        // one raw log written by `ArchivalWriter` is in order already; two
        // of one date, or rows that carry their own `__ts`, may not be
        let by = &columns[ts_col];
        if !by.is_sorted() {
            let mut order: Vec<u32> = (0..nrows as u32).collect();
            order.sort_by(|&a, &b| by.cmp_docs(a as usize, b as usize));
            columns.iter_mut().for_each(|c| c.permute(&order));
        }
        // a date compacted before keeps its files: this one takes the
        // next part number, as `HiveCatalog::write_rows` does
        let n = self.catalog.table(dataset)?.part_count(date);
        let part = format!("warehouse/{dataset}/{date}/part-{n:05}");
        // real on-disk segment format: dictionary + bit-packed forward
        // indexes, zone maps and a CRC-checked footer (§4.3)
        let meta = SegmentMeta {
            name: format!("{dataset}-{date}-{n:05}"),
            table: full_schema.name.clone(),
            sorted_col: Some("__ts".into()),
            nrows: nrows as u64,
        };
        let data = segfile::encode_segment(&meta, &full_schema.fields, &columns)?;
        self.store.put(&part, data)?;
        self.catalog
            .register_partition(dataset, date, &part, nrows)?;
        for key in keys {
            self.store.delete(&key)?;
        }
        Ok(nrows)
    }
}

/// Append one raw log's rows to the columns (`columns[i]` holds
/// `schema.fields[i]`, `__ts` among them), each cell pushed as
/// [`ColumnData::push`] would take its [`Value`]. It walks the layout
/// [`decode_raw`] walks, with every check that makes outside the audit
/// block (skipped by its length), but builds neither the keys and headers
/// a part file does not store nor a `Record`, a `Row` or, for a string
/// cell, a heap value. A column name equal to a schema field's is its own
/// UTF-8 proof; any other name is validated. As in a `Row`, the first of
/// two equal column names wins; an event time the row lacks is the
/// record's timestamp.
fn compact_raw(data: &[u8], schema: &Schema, columns: &mut [ColumnData]) -> Result<()> {
    let ts_col = schema.field_index("__ts");
    let mut r = Reader::new(data);
    let n = r.count(MIN_RECORD_BYTES, "record count")?;
    for _ in 0..n {
        let row = columns.first().map_or(0, ColumnData::len);
        let ts = r.i64("record timestamp")?;
        match r.u8("key tag")? {
            KEY_STR => drop(r.str("key")?),
            KEY_INT => drop(r.i64("int key")?),
            _ => {}
        }
        r.block("audit block")?;
        let nh = r.count(8, "header count")?;
        for _ in 0..nh {
            r.str("header key")?;
            r.str("header value")?;
        }
        let ncols = r.count(5, "column count")?;
        for _ in 0..ncols {
            let name = r.block("column name")?;
            let field = schema.fields.iter().position(|f| f.name.as_bytes() == name);
            if field.is_none() && std::str::from_utf8(name).is_err() {
                return Err(Error::Corruption("invalid utf8 in column name".into()));
            }
            let col = field
                .map(|i| &mut columns[i])
                .filter(|col| col.len() == row);
            match (col, r.u8("value tag")?) {
                (Some(col), TAG_INT) => col.push(Some(&Value::Int(r.i64("int value")?))),
                (Some(col), TAG_DOUBLE) => col.push(Some(&Value::Double(r.f64("double value")?))),
                (Some(col), TAG_STR) => col.push_str(r.str("string value")?),
                (Some(col), tag) => col.push(Some(&decode_value(tag, &mut r)?)),
                (None, tag) => drop(decode_value(tag, &mut r)?),
            }
        }
        for (i, col) in columns.iter_mut().enumerate() {
            if col.len() == row {
                // preserve event time for time-bounded backfills
                let ts = (Some(i) == ts_col).then_some(Value::Int(ts));
                col.push(ts.as_ref());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::InMemoryStore;
    use rtdi_common::FieldType;

    fn rec(i: i64, ts: Timestamp) -> Record {
        Record::new(
            Row::new().with("id", i).with("city", format!("c{}", i % 3)),
            ts,
        )
        .with_key(format!("k{i}"))
        .with_unique_id(format!("u{i}"))
    }

    #[test]
    fn raw_roundtrip() {
        let records: Vec<Record> = (0..50).map(|i| rec(i, 1000 + i)).collect();
        let data = encode_raw(&records).unwrap();
        let decoded = decode_raw(&data).unwrap();
        assert_eq!(records, decoded);
    }

    #[test]
    fn audit_block_roundtrips_every_shape_of_envelope() {
        // what a producer sends: a minted id and all of its stamps
        let mut minted = rec(1, 10);
        minted.set_unique_id(Some(UniqueId::Seq {
            origin: &"driver-app#3".into(),
            seq: u64::MAX,
        }));
        minted.set_app_ts(Some(-5));
        minted.set_trace_ts(Some(i64::MAX));
        minted.set_service(Some("driver-app".into()));
        minted.set_origin_region(Some("us-west".into()));
        // a caller's id beside caller headers, one stamp of the two
        let mut text = rec(2, 11).with_header("tenant", "eats").with_header("", "");
        text.set_trace_ts(Some(12));
        // nothing at all, and a region alone
        let bare = Record::new(Row::new(), 12);
        let mut region_only = Record::new(Row::new().with("x", 1i64), 13);
        region_only.set_origin_region(Some("".into()));
        let records = vec![minted, text, bare, region_only];
        let data = encode_raw(&records).unwrap();
        assert_eq!(decode_raw(&data).unwrap(), records);
        // the typed block is what the four string headers used to be
        let as_headers = |r: &Record| {
            let mut h = Record::new(r.value.clone(), r.timestamp);
            h.key = r.key.clone();
            h.with_header("rtdi.unique_id", "driver-app-18446744073709551615")
                .with_header("rtdi.app_ts", "1700000000000")
                .with_header("rtdi.trace_ts", "1700000000000")
                .with_header("rtdi.service", "driver-app")
        };
        let typed = encode_raw(&records[..1]).unwrap().len();
        let stringly = encode_raw(&[as_headers(&records[0])]).unwrap().len();
        assert!(typed < stringly, "{typed} >= {stringly}");
    }

    #[test]
    fn audit_block_rejects_flags_that_disagree_with_its_bytes() {
        let clean = encode_raw(&[rec(1, 10)]).unwrap().to_vec();
        // record 0: count(4) ts(8) key tag(1) len(4) "k1"(2) -> block length, flags
        let (len_at, flags_at) = (19, 23);
        assert_eq!(clean[flags_at], ID_TEXT);
        for flags in [0b11, ID_TEXT | 1 << 6, ID_TEXT | HAS_APP_TS, 0] {
            let mut bad = clean.clone();
            bad[flags_at] = flags;
            let r = decode_raw(&Bytes::from(bad));
            assert!(matches!(r, Err(Error::Corruption(_))), "flags {flags:#b}");
        }
        let mut short = clean.clone();
        short[len_at + 3] -= 1;
        assert!(decode_raw(&Bytes::from(short)).is_err());
    }

    #[test]
    fn date_partition_buckets_by_day() {
        assert_eq!(date_partition(0), "d000000");
        assert_eq!(date_partition(86_400_000), "d000001");
        assert_eq!(date_partition(86_399_999), "d000000");
        // before 1970 a day is negative, and its name reads back
        assert_eq!(date_partition(-1), "d-00001");
        assert_eq!(date_partition(-86_400_001), "d-00002");
        for day in [-100_000, -2, -1, 0, 1, 123_456] {
            assert_eq!(date_day(&day_name(day)), Some(day));
        }
        assert_eq!(date_day("2021-06-01"), None);
    }

    #[test]
    fn writer_splits_batches_by_date() {
        let store = Arc::new(InMemoryStore::new());
        let w = ArchivalWriter::new(store.clone(), "trips");
        let day = 86_400_000i64;
        let batch: Vec<Record> = vec![rec(1, 10), rec(2, day + 10), rec(3, 20)];
        let keys = w.write_batch(&batch).unwrap();
        assert_eq!(keys.len(), 2);
        let d0 = w.read_raw("d000000").unwrap();
        let d1 = w.read_raw("d000001").unwrap();
        assert_eq!(d0.len(), 2);
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].value.get_int("id"), Some(2));
    }

    #[test]
    fn raw_logs_hold_their_records_in_event_time_order() {
        let store = Arc::new(InMemoryStore::new());
        let w = ArchivalWriter::new(store.clone(), "trips");
        let day = 86_400_000i64;
        // two days, each out of order, equal times among them
        let times = [30, day + 5, 10, 30, day + 1, 20, 10, day + 5, 30];
        let batch: Vec<Record> = (0i64..).zip(times).map(|(i, ts)| rec(i, ts)).collect();
        assert_eq!(w.write_batch(&batch).unwrap().len(), 2);
        let order = |date: &str| -> Vec<(Timestamp, i64)> {
            let recs = w.read_raw(date).unwrap();
            recs.iter()
                .map(|r| (r.timestamp, r.value.get_int("id").unwrap()))
                .collect()
        };
        // equal times keep the order they were given in
        let d0 = [(10, 2), (10, 6), (20, 5), (30, 0), (30, 3), (30, 8)];
        assert_eq!(order("d000000"), d0);
        assert_eq!(order("d000001"), [(day + 1, 4), (day + 5, 1), (day + 5, 7)]);
    }

    #[test]
    fn compaction_merges_and_registers() {
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone() as Arc<dyn ObjectStore>);
        let schema = Schema::of("trips", &[("id", FieldType::Int), ("city", FieldType::Str)]);
        catalog.create_table("trips", schema.clone()).unwrap();
        let w = ArchivalWriter::new(store.clone(), "trips");
        for chunk in 0..5 {
            let batch: Vec<Record> = (0..10).map(|i| rec(chunk * 10 + i, 100 + i)).collect();
            w.write_batch(&batch).unwrap();
        }
        assert_eq!(w.raw_keys("d000000").unwrap().len(), 5);
        let compactor = Compactor::new(store.clone(), catalog.clone());
        let n = compactor.compact("trips", "d000000", &schema).unwrap();
        assert_eq!(n, 50);
        // raw logs gone, warehouse file present
        assert!(w.raw_keys("d000000").unwrap().is_empty());
        let table = catalog.table("trips").unwrap();
        let rows = table.scan_all().unwrap();
        assert_eq!(rows.len(), 50);
        // event time preserved
        assert!(rows[0].get_int("__ts").is_some());
    }

    #[test]
    fn compacting_a_date_twice_keeps_both_part_files() {
        // the second compaction of a date used to write `part-00000` again:
        // the first batch was overwritten and the second scanned twice
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone() as Arc<dyn ObjectStore>);
        let schema = Schema::of("trips", &[("id", FieldType::Int), ("city", FieldType::Str)]);
        let table = catalog.create_table("trips", schema.clone()).unwrap();
        let w = ArchivalWriter::new(store.clone(), "trips");
        let compactor = Compactor::new(store.clone(), catalog.clone());
        for cycle in 0..2 {
            let batch: Vec<Record> = (0..10).map(|i| rec(cycle * 10 + i, 100 + i)).collect();
            w.write_batch(&batch).unwrap();
            assert_eq!(compactor.compact("trips", "d000000", &schema).unwrap(), 10);
        }
        assert_eq!(table.part_count("d000000"), 2);
        assert_eq!(table.row_count(), 20);
        let mut ids: Vec<i64> = table
            .scan_all()
            .unwrap()
            .iter()
            .map(|r| r.get_int("id").unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<i64>>());
    }

    /// A part file of `rows`: one sealed column per field of `schema` and
    /// the sort claim as given.
    fn part_file(schema: &Schema, name: &str, rows: &[Row], sorted_col: Option<&str>) -> Bytes {
        let column = |f: &rtdi_common::Field| {
            let mut col = ColumnData::new(f.field_type);
            rows.iter().for_each(|row| col.push(row.get(&f.name)));
            col.seal();
            col
        };
        let columns: Vec<ColumnData> = schema.fields.iter().map(column).collect();
        let meta = SegmentMeta {
            name: name.into(),
            table: schema.name.clone(),
            sorted_col: sorted_col.map(String::from),
            nrows: rows.len() as u64,
        };
        segfile::encode_segment(&meta, &schema.fields, &columns).unwrap()
    }

    #[test]
    fn compaction_writes_the_file_the_row_detour_wrote() {
        // decode_raw -> Row -> a stable sort by `__ts` -> one column per
        // field is what compaction used to do: the column builders must
        // produce the same bytes from rows that are missing columns, repeat
        // one, carry extra ones, hold NULLs and values of the wrong type,
        // and bring their own event time, out of order or NULL
        let schema = Schema::of(
            "t",
            &[
                ("id", FieldType::Int),
                ("city", FieldType::Str),
                ("fare", FieldType::Double),
                ("ok", FieldType::Bool),
                ("doc", FieldType::Json),
                ("blob", FieldType::Bytes),
            ],
        );
        let json = rtdi_common::json::parse(r#"{"a":[1,2]}"#).unwrap();
        let records = vec![
            rec(1, 10),
            Record::new(Row::new().with("city", "sf").with("city", "la"), 11),
            Record::new(Row::new().with("extra", "x").with("id", "not an int"), 12),
            Record::new(Row::new().with("__ts", 999i64).with("fare", 2.5), 13),
            Record::new(Row::new().with("__ts", Value::Null).with("ok", true), 14),
            Record::new(
                Row::new()
                    .with("doc", Value::Json(Box::new(json)))
                    .with("blob", Value::Bytes(vec![0xff, 0, 1]))
                    .with("city", Value::Null),
                15,
            )
            .with_key(7i64),
            Record::new(Row::new(), 16),
        ];
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone() as Arc<dyn ObjectStore>);
        catalog.create_table("t", schema.clone()).unwrap();
        ArchivalWriter::new(store.clone(), "t")
            .write_batch(&records)
            .unwrap();
        let compactor = Compactor::new(store.clone(), catalog);
        assert_eq!(compactor.compact("t", "d000000", &schema).unwrap(), 7);

        let mut full_schema = schema.clone();
        full_schema
            .fields
            .push(rtdi_common::Field::new("__ts", FieldType::Timestamp));
        let mut rows: Vec<Row> = decode_raw(&encode_raw(&records).unwrap())
            .unwrap()
            .into_iter()
            .map(|r| {
                let mut row = r.value;
                if row.get("__ts").is_none() {
                    row.push("__ts", r.timestamp);
                }
                row
            })
            .collect();
        // NULL first, then by time: `None < Some`
        rows.sort_by_key(|row| row.get("__ts").and_then(Value::as_int));
        let expect = part_file(&full_schema, "t-d000000-00000", &rows, Some("__ts"));
        let written = store.get("warehouse/t/d000000/part-00000").unwrap();
        assert_eq!(written, expect);
    }

    #[test]
    fn both_warehouse_writers_read_a_refused_cell_back_as_null() {
        let schema = Schema::of(
            "t",
            &[
                ("city", FieldType::Str),
                ("flag", FieldType::Bool),
                ("n", FieldType::Int),
            ],
        );
        let rows = vec![
            Row::new()
                .with("city", "zurich")
                .with("flag", true)
                .with("n", 1i64),
            Row::new()
                .with("city", 5i64)
                .with("flag", 1i64)
                .with("n", "x"),
            Row::new()
                .with("city", "amsterdam")
                .with("flag", false)
                .with("n", 2.5),
        ];
        let want = vec![
            Row::new()
                .with("city", "zurich")
                .with("flag", true)
                .with("n", 1i64),
            Row::new()
                .with("city", Value::Null)
                .with("flag", Value::Null)
                .with("n", Value::Null),
            Row::new()
                .with("city", "amsterdam")
                .with("flag", false)
                .with("n", Value::Null),
        ];
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone() as Arc<dyn ObjectStore>);
        let written = catalog.create_table("t", schema.clone()).unwrap();
        catalog.write_rows("t", "d000000", &rows).unwrap();
        assert_eq!(written.scan_all().unwrap(), want);

        let compacted = catalog.create_table("c", schema.clone()).unwrap();
        let records: Vec<Record> = rows.into_iter().map(|r| Record::new(r, 7)).collect();
        ArchivalWriter::new(store.clone(), "c")
            .write_batch(&records)
            .unwrap();
        let compactor = Compactor::new(store, catalog);
        assert_eq!(compactor.compact("c", "d000000", &schema).unwrap(), 3);
        let got: Vec<Row> = compacted
            .scan_all()
            .unwrap()
            .iter()
            .map(|r| r.project(&["city", "flag", "n"]))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn compaction_reports_a_damaged_raw_log_as_corruption() {
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone() as Arc<dyn ObjectStore>);
        let schema = Schema::of("t", &[("id", FieldType::Int), ("city", FieldType::Str)]);
        catalog.create_table("t", schema.clone()).unwrap();
        let records: Vec<Record> = (0..4).map(|i| rec(i, 10 + i)).collect();
        let clean = encode_raw(&records).unwrap();
        let compactor = Compactor::new(store.clone(), catalog);
        for cut in 0..clean.len() {
            store
                .put("raw/t/d000000/log-00000000", clean.slice(0..cut))
                .unwrap();
            assert!(
                matches!(
                    compactor.compact("t", "d000000", &schema),
                    Err(Error::Corruption(_))
                ),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn compacting_empty_date_is_noop() {
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone() as Arc<dyn ObjectStore>);
        let schema = Schema::of("t", &[("id", FieldType::Int)]);
        catalog.create_table("t", schema.clone()).unwrap();
        let c = Compactor::new(store, catalog);
        assert_eq!(c.compact("t", "d000099", &schema).unwrap(), 0);
    }
}
