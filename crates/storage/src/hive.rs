//! Date-partitioned warehouse tables — the "Hive" stand-in.
//!
//! §4.4: compacted datasets "constitute the source of truth for all
//! analytical data. This is used to backfill data in Kafka, Pinot and even
//! some OLTP or key-value store data sinks." The Kappa+ backfill (§7)
//! reads these tables through [`HiveTable::open_range`] (its source plans a
//! range with [`HiveTable::time_groups`] and replays each group in
//! [`time_order`]), and the SQL layer's Hive connector scans them for
//! federated queries.

use crate::archival::{date_day, epoch_day};
use crate::column::ColumnData;
use crate::object::ObjectStore;
use crate::segfile::{self, SegmentFile};
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

    /// The replay plan of `[from, to)`: the part files of the range's
    /// date partitions that can hold a row of it, opened with no column
    /// decoded, in groups. A part's interval is the closed range of its
    /// `__ts` zone map, widened to take in 0 when a row has no event time;
    /// parts whose intervals overlap or touch share a group. The groups are
    /// in time order (every event time of one is below every one of the
    /// next) and a group's parts in (date partition, part) order, so
    /// replaying each group in [`time_order`] replays the range as one
    /// stable sort of its rows by event time would. The bounded input of
    /// the Kappa+ backfill's "start/end boundary of the bounded input"
    /// (§7).
    pub fn time_groups(&self, from: Timestamp, to: Timestamp) -> Result<Vec<Vec<SegmentFile>>> {
        let files: Vec<SegmentFile> = self
            .open_range(from, to)?
            .into_iter()
            .filter(|file| ts_cover(file, from, to) != TsCover::Disjoint)
            .collect();
        let mut spans: Vec<(Timestamp, Timestamp, usize)> = files
            .iter()
            .enumerate()
            .map(|(rank, file)| {
                let (lo, hi) = time_interval(file);
                (lo, hi, rank)
            })
            .collect();
        spans.sort_unstable();
        // a part joins the group before it when it starts at or before
        // that group's end
        let (mut ends, mut group_of) = (Vec::<Timestamp>::new(), vec![0; files.len()]);
        for (lo, hi, rank) in spans {
            match ends.last_mut() {
                Some(end) if lo <= *end => *end = (*end).max(hi),
                _ => ends.push(hi),
            }
            group_of[rank] = ends.len() - 1;
        }
        let mut groups: Vec<Vec<SegmentFile>> = ends.iter().map(|_| Vec::new()).collect();
        for (file, g) in files.into_iter().zip(group_of) {
            groups[g].push(file);
        }
        Ok(groups)
    }
}

/// The closed interval a part's event times lie in: its `__ts` zone map,
/// widened to take in 0 when a row has no event time (a NULL cell, a file
/// without the column, or one whose `__ts` is not integral).
fn time_interval(file: &SegmentFile) -> (Timestamp, Timestamp) {
    let Some(zone) = file.entry("__ts").map(|e| &e.zone) else {
        return (0, 0);
    };
    match zone.int_bounds() {
        Some((lo, hi)) if zone.null_count > 0 => (lo.min(0), hi.max(0)),
        Some(bounds) => bounds,
        None => (0, 0),
    }
}

/// One row of a replay: its event time and where it lives (the part's
/// index within its group, the document within the part).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedDoc {
    pub ts: Timestamp,
    pub part: u32,
    pub doc: u32,
}

/// The replay order of one [`HiveTable::time_groups`] group: its rows in
/// `[from, to)`, a row without an event time at time 0 (it belongs to every
/// range), stable-sorted by event time, so equal times keep (part, doc)
/// order. Decodes each part's `__ts` column and nothing else; only a part
/// that straddles a bound tests its rows. The sort is adaptive: over parts
/// that are each in time order it is a linear pass.
pub fn time_order(group: &[SegmentFile], from: Timestamp, to: Timestamp) -> Result<Vec<TimedDoc>> {
    let mut order = Vec::with_capacity(group.iter().map(SegmentFile::nrows).sum());
    for (part, file) in group.iter().enumerate() {
        let inside = ts_cover(file, from, to) == TsCover::Inside;
        let in_range = |ts: Timestamp| from <= ts && ts < to;
        for (doc, ts) in event_times(file)?.into_iter().enumerate() {
            if inside || ts.is_none_or(in_range) {
                order.push(TimedDoc {
                    ts: ts.unwrap_or(0),
                    part: part as u32,
                    doc: doc as u32,
                });
            }
        }
    }
    order.sort_by_key(|entry| entry.ts);
    Ok(order)
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
    Ok(match file.column("__ts")?.as_ref() {
        ColumnData::Int { values, nulls, .. } => values
            .iter()
            .enumerate()
            .map(|(i, &ts)| (!nulls.get(i)).then_some(ts))
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
    fn time_groups_join_parts_whose_times_overlap_or_touch() {
        let (catalog, table) = setup();
        // one date, six parts (intervals): [10, 19] (touches nothing),
        // [20, 29] and [29, 38] (touching), [-5, 4] and a part of NULL
        // times ([0, 0]), which overlap; and a part wholly out of the range
        for (at, timed) in [
            (10, true),
            (20, true),
            (29, true),
            (-5, true),
            (0, false),
            (90, true),
        ] {
            let rows: Vec<Row> = (at..at + 10)
                .map(|i| {
                    let row = Row::new().with("id", i);
                    if timed {
                        row.with("__ts", i)
                    } else {
                        row
                    }
                })
                .collect();
            catalog.write_rows("trips", "d000000", &rows).unwrap();
        }
        let groups = table.time_groups(-5, 50).unwrap();
        assert!(groups.iter().flatten().all(|f| f.columns_loaded() == 0));
        let first_ids: Vec<Vec<i64>> = groups
            .iter()
            .map(|group| {
                group
                    .iter()
                    .map(|f| {
                        f.read_rows_where(None, Some(&[0])).unwrap()[0]
                            .get_int("id")
                            .unwrap()
                    })
                    .collect()
            })
            .collect();
        assert_eq!(first_ids, vec![vec![-5, 0], vec![10], vec![20, 29]]);
        // a group replays its rows in time order, NULL at 0 among them
        let order = time_order(&groups[0], -5, 50).unwrap();
        let times: Vec<Timestamp> = order.iter().map(|e| e.ts).collect();
        let mut want: Vec<Timestamp> = (-5..5).chain([0; 10]).collect();
        want.sort();
        assert_eq!(times, want);
        // rows without an event time belong to every range of their date
        let late = table.time_groups(50, 60).unwrap();
        assert_eq!((late.len(), late[0].len(), late[0][0].nrows()), (1, 1, 10));
        assert!(table.time_groups(60, 50).unwrap().is_empty());
    }
}
