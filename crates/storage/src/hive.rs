//! Date-partitioned warehouse tables — the "Hive" stand-in.
//!
//! §4.4: compacted datasets "constitute the source of truth for all
//! analytical data. This is used to backfill data in Kafka, Pinot and even
//! some OLTP or key-value store data sinks." The Kappa+ backfill (§7)
//! reads these tables through [`HiveTable::scan_range`], and the SQL
//! layer's Hive connector scans them for federated queries.

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
    name: String,
    store: Arc<dyn ObjectStore>,
    inner: Arc<TableInner>,
}

impl HiveTable {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> Schema {
        self.inner.schema.clone()
    }

    /// Sorted list of partition keys (dates).
    pub fn partitions(&self) -> Vec<String> {
        self.inner.partitions.read().keys().cloned().collect()
    }

    pub fn row_count(&self) -> usize {
        self.inner
            .partitions
            .read()
            .values()
            .map(|p| p.row_count)
            .sum()
    }

    /// Read every row of one partition.
    pub fn scan_partition(&self, date: &str) -> Result<Vec<Row>> {
        let files = {
            let parts = self.inner.partitions.read();
            parts
                .get(date)
                .ok_or_else(|| Error::NotFound(format!("partition '{date}' of '{}'", self.name)))?
                .files
                .clone()
        };
        let mut rows = Vec::new();
        for f in files {
            let (_, mut batch) = SegmentFile::open(self.store.get(&f)?)?.read_rows()?;
            rows.append(&mut batch);
        }
        Ok(rows)
    }

    /// Full scan across all partitions, in partition order.
    pub fn scan_all(&self) -> Result<Vec<Row>> {
        let mut rows = Vec::new();
        for date in self.partitions() {
            rows.extend(self.scan_partition(&date)?);
        }
        Ok(rows)
    }

    /// Scan rows whose `__ts` column falls in `[from, to)`. Partitions are
    /// pruned by their date bucket, then rows filtered — this is the
    /// bounded-input read path the Kappa+ backfill uses to identify the
    /// "start/end boundary of the bounded input" (§7).
    pub fn scan_range(&self, from: Timestamp, to: Timestamp) -> Result<Vec<Row>> {
        if to <= from {
            return Ok(Vec::new());
        }
        let from_day = crate::archival::date_partition(from);
        let to_day = crate::archival::date_partition(to);
        let mut rows = Vec::new();
        for date in self.partitions() {
            if date < from_day || date > to_day {
                continue; // partition pruning
            }
            for row in self.scan_partition(&date)? {
                match row.get_int("__ts") {
                    Some(ts) if ts >= from && ts < to => rows.push(row),
                    None => rows.push(row), // tables without event time: no pruning
                    _ => {}
                }
            }
        }
        Ok(rows)
    }
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
            name: name.to_string(),
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
        let n = {
            let parts = t.inner.partitions.read();
            parts.get(date).map(|p| p.files.len()).unwrap_or(0)
        };
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
        assert_eq!(table.partitions(), vec!["d000000", "d000001"]);
        assert_eq!(table.scan_partition("d000000").unwrap().len(), 10);
        assert_eq!(table.scan_partition("d000001").unwrap().len(), 25);
        assert_eq!(table.scan_all().unwrap().len(), 35);
        assert_eq!(table.row_count(), 35);
        assert!(table.scan_partition("d000009").is_err());
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
        let rows = table.scan_range(from, to).unwrap();
        // all 10 of day1 + 5 of day2 (ts < to means i*1000 < 5000 -> i in 0..5)
        assert_eq!(rows.len(), 15);
        assert!(rows.iter().all(|r| {
            let ts = r.get_int("__ts").unwrap();
            ts >= from && ts < to
        }));
        // empty and inverted ranges
        assert!(table.scan_range(100, 100).unwrap().is_empty());
        assert!(table.scan_range(500, 100).unwrap().is_empty());
    }
}
