//! Date-partitioned warehouse tables — the "Hive" stand-in.
//!
//! §4.4: compacted datasets "constitute the source of truth for all
//! analytical data. This is used to backfill data in Kafka, Pinot and even
//! some OLTP or key-value store data sinks." The Kappa+ backfill (§7)
//! reads these tables through [`HiveTable::open_range`] (its source through
//! [`HiveTable::scan_range_timed`]), and the SQL layer's Hive connector
//! scans them for federated queries.

use crate::archival::{date_day, epoch_day};
use crate::object::ObjectStore;
use crate::segfile::{self, ColumnValues, SegmentFile};
use parking_lot::RwLock;
use rtdi_common::{Error, Result, Row, Schema, Timestamp};
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct PartitionInfo {
    files: Vec<String>,
    row_count: usize,
}

#[derive(Debug)]
struct TableInner {
    schema: Schema,
    partitions: RwLock<BTreeMap<String, PartitionInfo>>,
}

/// A partitioned table backed by columnar files in the object store.
#[derive(Clone)]
pub struct HiveTable {
    store: Arc<dyn ObjectStore>,
    inner: Arc<TableInner>,
}

impl HiveTable {
    pub fn schema(&self) -> Schema {
        self.inner.schema.clone()
    }

    /// Part files registered under one partition: the number the next one
    /// takes.
    pub fn part_count(&self, date: &str) -> usize {
        let parts = self.inner.partitions.read();
        parts.get(date).map_or(0, |p| p.files.len())
    }

    pub fn row_count(&self) -> usize {
        self.inner
            .partitions
            .read()
            .values()
            .map(|p| p.row_count)
            .sum()
    }

    /// The warehouse's one read primitive: the part files of every
    /// partition `keep` accepts, in partition then file order, each opened
    /// (header and zone maps parsed, CRC verified) with no column decoded.
    /// Every reader starts here: the row scans below, the SQL connector's
    /// columnar scan and the Kappa+ source.
    pub fn open_parts(&self, keep: impl Fn(&str) -> bool) -> Result<Vec<SegmentFile>> {
        let keys: Vec<String> = {
            let parts = self.inner.partitions.read();
            parts
                .iter()
                .filter(|(date, _)| keep(date))
                .flat_map(|(_, p)| p.files.iter().cloned())
                .collect()
        };
        keys.iter()
            .map(|key| SegmentFile::open(self.store.get(key)?))
            .collect()
    }

    /// The part files of the date partitions `[from, to)` touches. Dates
    /// compare as epoch days, not as names: before 1970 the names sort
    /// backwards (`d-00002` after `d-00001`).
    pub fn open_range(&self, from: Timestamp, to: Timestamp) -> Result<Vec<SegmentFile>> {
        if to <= from {
            return Ok(Vec::new());
        }
        let days = epoch_day(from)..=epoch_day(to);
        self.open_parts(|date| date_day(date).is_some_and(|day| days.contains(&day)))
    }

    /// Full scan across all partitions, in partition order.
    pub fn scan_all(&self) -> Result<Vec<Row>> {
        all_rows(self.open_parts(|_| true)?)
    }

    /// Rows whose `__ts` column falls in `[from, to)`, each with its event
    /// time beside it (0 for a row without one, which belongs to every
    /// range). Partitions are pruned by their date bucket, then rows
    /// filtered — the bounded-input read path of the Kappa+ backfill's
    /// "start/end boundary of the bounded input" (§7). Rows carry the
    /// columns `select` names (all when `None`), whether or not `__ts` is
    /// one of them.
    pub fn scan_range_timed(
        &self,
        from: Timestamp,
        to: Timestamp,
        select: Option<&[String]>,
    ) -> Result<Vec<(Timestamp, Row)>> {
        let mut out = Vec::new();
        for file in self.open_range(from, to)? {
            let cover = ts_cover(&file, from, to);
            if cover == TsCover::Disjoint {
                continue;
            }
            let times = event_times(&file)?;
            // only a file that straddles a bound tests its rows
            let inside = cover == TsCover::Inside;
            let in_range = |ts: Timestamp| from <= ts && ts < to;
            let docs: Vec<u32> = (0..file.nrows() as u32)
                .filter(|&d| inside || times[d as usize].is_none_or(in_range))
                .collect();
            let rows = file.read_rows_where(select, Some(&docs))?;
            let timed = docs.iter().map(|&d| times[d as usize].unwrap_or(0));
            out.extend(timed.zip(rows));
        }
        Ok(out)
    }
}

fn all_rows(files: Vec<SegmentFile>) -> Result<Vec<Row>> {
    let mut rows = Vec::with_capacity(files.iter().map(SegmentFile::nrows).sum());
    for file in files {
        rows.append(&mut file.read_rows_where(None, None)?);
    }
    Ok(rows)
}

/// How a part file's `__ts` zone map sits against `[from, to)`. A row
/// without an event time (NULL, or a table that has no `__ts`) belongs to
/// every range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsCover {
    /// No row can be in range: the file is skipped undecoded.
    Disjoint,
    /// Every row is in range: no row is tested.
    Inside,
    Straddles,
}

pub fn ts_cover(file: &SegmentFile, from: Timestamp, to: Timestamp) -> TsCover {
    if file.nrows() == 0 {
        return TsCover::Disjoint;
    }
    // no `__ts` column, or every cell of it NULL: no row has an event time
    let Some((zone, (lo, hi))) = file
        .entry("__ts")
        .and_then(|e| Some((&e.zone, e.zone.int_bounds()?)))
    else {
        return TsCover::Inside;
    };
    if from <= lo && hi < to {
        TsCover::Inside
    } else if zone.null_count == 0 && (hi < from || to <= lo) {
        TsCover::Disjoint
    } else {
        TsCover::Straddles
    }
}

/// The `__ts` column of a part file, one entry per row: `None` for a NULL
/// cell, and for every row of a file without the column.
pub fn event_times(file: &SegmentFile) -> Result<Vec<Option<Timestamp>>> {
    if file.entry("__ts").is_none() {
        return Ok(vec![None; file.nrows()]);
    }
    let col = file.column("__ts")?;
    Ok(match &col.values {
        ColumnValues::Int(vals) => vals
            .iter()
            .enumerate()
            .map(|(i, &ts)| (!col.nulls.is_null(i)).then_some(ts))
            .collect(),
        // a `__ts` that is not integral carries no event time
        _ => vec![None; file.nrows()],
    })
}

#[derive(Default)]
struct CatalogInner {
    tables: RwLock<BTreeMap<String, HiveTable>>,
}

/// The warehouse catalog: table registry shared between the compactor, the
/// SQL layer and the backfill machinery.
#[derive(Clone)]
pub struct HiveCatalog {
    store: Arc<dyn ObjectStore>,
    inner: Arc<CatalogInner>,
}

impl HiveCatalog {
    pub fn new(store: Arc<dyn ObjectStore>) -> Self {
        HiveCatalog {
            store,
            inner: Arc::new(CatalogInner::default()),
        }
    }

    pub fn create_table(&self, name: &str, schema: Schema) -> Result<HiveTable> {
        let mut tables = self.inner.tables.write();
        if tables.contains_key(name) {
            return Err(Error::AlreadyExists(format!("hive table '{name}'")));
        }
        let table = HiveTable {
            store: self.store.clone(),
            inner: Arc::new(TableInner {
                schema,
                partitions: RwLock::new(BTreeMap::new()),
            }),
        };
        tables.insert(name.to_string(), table.clone());
        Ok(table)
    }

    pub fn table(&self, name: &str) -> Result<HiveTable> {
        self.inner
            .tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("hive table '{name}'")))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.inner.tables.read().keys().cloned().collect()
    }

    /// Register a new part file under a partition (invoked by the
    /// compactor and by direct warehouse writers).
    pub fn register_partition(
        &self,
        table: &str,
        date: &str,
        file: &str,
        rows: usize,
    ) -> Result<()> {
        let t = self.table(table)?;
        let mut parts = t.inner.partitions.write();
        let entry = parts.entry(date.to_string()).or_insert(PartitionInfo {
            files: Vec::new(),
            row_count: 0,
        });
        entry.files.push(file.to_string());
        entry.row_count += rows;
        Ok(())
    }

    /// Write a batch of rows directly as a new part file of a partition
    /// (used by tests, examples and the Piper-style offline-table builds
    /// the paper mentions in §4.3.3).
    pub fn write_rows(&self, table: &str, date: &str, rows: &[Row]) -> Result<()> {
        let t = self.table(table)?;
        let n = t.part_count(date);
        let key = format!("warehouse/{table}/{date}/part-{n:05}");
        let seg_name = format!("{table}-{date}-{n:05}");
        let data = segfile::encode_rows_segment(&t.inner.schema, &seg_name, rows)?;
        self.store.put(&key, data)?;
        self.register_partition(table, date, &key, rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::InMemoryStore;
    use rtdi_common::FieldType;

    fn setup() -> (HiveCatalog, HiveTable) {
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store);
        let schema = Schema::of(
            "trips",
            &[
                ("id", FieldType::Int),
                ("city", FieldType::Str),
                ("__ts", FieldType::Timestamp),
            ],
        );
        let table = catalog.create_table("trips", schema).unwrap();
        (catalog, table)
    }

    fn rows_for_day(day: i64, n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new()
                    .with("id", day * 1000 + i as i64)
                    .with("city", "sf")
                    .with("__ts", day * 86_400_000 + i as i64 * 1000)
            })
            .collect()
    }

    #[test]
    fn create_and_duplicate() {
        let (catalog, _) = setup();
        assert!(matches!(
            catalog.create_table("trips", Schema::of("x", &[])),
            Err(Error::AlreadyExists(_))
        ));
        assert!(catalog.table("missing").is_err());
        assert_eq!(catalog.table_names(), vec!["trips".to_string()]);
    }

    #[test]
    fn write_scan_partitions() {
        let (catalog, table) = setup();
        catalog
            .write_rows("trips", "d000000", &rows_for_day(0, 10))
            .unwrap();
        catalog
            .write_rows("trips", "d000001", &rows_for_day(1, 20))
            .unwrap();
        catalog
            .write_rows("trips", "d000001", &rows_for_day(1, 5))
            .unwrap();
        let rows_of = |date: &str| -> usize {
            let files = table.open_parts(|d| d == date).unwrap();
            files.iter().map(SegmentFile::nrows).sum()
        };
        assert_eq!((rows_of("d000000"), rows_of("d000001")), (10, 25));
        assert_eq!(rows_of("d000009"), 0);
        assert_eq!(table.part_count("d000001"), 2);
        assert_eq!(table.scan_all().unwrap().len(), 35);
        assert_eq!(table.row_count(), 35);
    }

    #[test]
    fn scan_range_prunes_and_filters() {
        let (catalog, table) = setup();
        for day in 0..5 {
            catalog
                .write_rows(
                    "trips",
                    &crate::archival::date_partition(day * 86_400_000),
                    &rows_for_day(day, 10),
                )
                .unwrap();
        }
        // range covering day 1 and first half of day 2
        let from = 86_400_000;
        let to = 2 * 86_400_000 + 5_000;
        let rows = table.scan_range_timed(from, to, None).unwrap();
        // all 10 of day1 + 5 of day2 (ts < to means i*1000 < 5000 -> i in 0..5)
        assert_eq!(rows.len(), 15);
        let in_range =
            |(ts, r): &(i64, Row)| r.get_int("__ts") == Some(*ts) && (from..to).contains(ts);
        assert!(rows.iter().all(in_range));
        // empty and inverted ranges
        assert!(table.scan_range_timed(100, 100, None).unwrap().is_empty());
        assert!(table.scan_range_timed(500, 100, None).unwrap().is_empty());
    }

    #[test]
    fn range_reads_keep_the_days_before_1970() {
        // date names sort backwards below day 0 ("d-00002" > "d-00001"):
        // a range over them must still find every row a filter finds
        let (catalog, table) = setup();
        let day = 86_400_000;
        let times: Vec<i64> = (-3..3)
            .flat_map(|d| [d * day + 5, d * day + day / 2])
            .collect();
        for (id, &ts) in times.iter().enumerate() {
            let row = Row::new().with("id", id as i64).with("__ts", ts);
            let date = crate::archival::date_partition(ts);
            catalog.write_rows("trips", &date, &[row]).unwrap();
        }
        let mut bounds: Vec<i64> = times.iter().flat_map(|&t| [t, t + 1]).collect();
        bounds.extend([-4 * day, -day, 0, 1, 4 * day]);
        for &from in &bounds {
            for &to in &bounds {
                let mut got: Vec<i64> = table
                    .scan_range_timed(from, to, None)
                    .unwrap()
                    .into_iter()
                    .map(|(ts, _)| ts)
                    .collect();
                got.sort_unstable();
                let want: Vec<i64> = times
                    .iter()
                    .copied()
                    .filter(|ts| (from..to).contains(ts))
                    .collect();
                assert_eq!(got, want, "[{from}, {to})");
            }
        }
    }

    #[test]
    fn range_reads_test_rows_only_where_a_file_straddles_a_bound() {
        let (catalog, table) = setup();
        let day = 86_400_000;
        // one date, three part files: ts 0..10k, 10k..20k, and one whose
        // rows carry no event time
        catalog
            .write_rows("trips", "d000000", &rows_for_day(0, 10))
            .unwrap();
        let later: Vec<Row> = (10..20)
            .map(|i| Row::new().with("id", i).with("__ts", i * 1000))
            .collect();
        catalog.write_rows("trips", "d000000", &later).unwrap();
        let untimed = vec![Row::new().with("id", 99i64), Row::new().with("id", 98i64)];
        catalog.write_rows("trips", "d000000", &untimed).unwrap();
        let files = table.open_range(0, day).unwrap();
        assert_eq!(files.len(), 3);
        let covers =
            |from, to| -> Vec<TsCover> { files.iter().map(|f| ts_cover(f, from, to)).collect() };
        use TsCover::*;
        assert_eq!(covers(0, day), vec![Inside, Inside, Inside]);
        assert_eq!(covers(0, 10_000), vec![Inside, Disjoint, Inside]);
        assert_eq!(covers(5_000, 15_000), vec![Straddles, Straddles, Inside]);
        // rows without an event time belong to every range, at time 0
        let timed = table.scan_range_timed(5_000, 15_000, None).unwrap();
        let got: Vec<(Timestamp, i64)> = timed
            .iter()
            .map(|(ts, r)| (*ts, r.get_int("id").unwrap()))
            .collect();
        let mut want: Vec<(Timestamp, i64)> = (5..15).map(|i| (i * 1000, i)).collect();
        want.extend([(0, 99), (0, 98)]);
        assert_eq!(got, want);
        assert_eq!(
            event_times(&files[2]).unwrap(),
            vec![None, None],
            "NULL event times"
        );
    }
}
