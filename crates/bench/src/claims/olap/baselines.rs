//! OLAP comparison baselines: an Elasticsearch-like heap/row store (E10),
//! a Druid-like index spec (E11) and the orders both compare on.
//!
//! §4.3: "With the same amount of data ingested into Elasticsearch and
//! Pinot, Elasticsearch's memory usage was 4x higher and disk usage was 8x
//! higher than Pinot. In addition, Elasticsearch's query latency was
//! 2x-4x higher than Pinot."
//!
//! [`HeapStore`] reproduces the architectural sources of that gap rather
//! than caricaturing them:
//! - every document is stored as an owned row (the `_source` document ES
//!   keeps), not columnar/dictionary-encoded;
//! - every field of every document is indexed into per-value posting
//!   lists keyed by stringified values (ES indexes all fields by
//!   default) — large heap;
//! - "disk" is the JSON rendering of each document (no dictionary or
//!   bit-packing, field names repeated per document);
//! - aggregations walk materialized rows with by-name field lookups
//!   (fielddata-style access) instead of tight columnar loops.

use rtdi_common::{FieldType, Result, Row, Schema};
use rtdi_olap::query::{sort_and_limit, PredicateOp, Query, QueryResult, ScanLedger};
use rtdi_olap::reference;
use rtdi_olap::segment::IndexSpec;
use std::collections::{HashMap, HashSet};

/// Row-store with all-fields inverted indexing.
#[derive(Default)]
pub struct HeapStore {
    docs: Vec<Row>,
    /// (field, rendered value) -> posting list of doc ids
    postings: HashMap<(String, String), Vec<usize>>,
    doc_bytes: usize,
}

impl HeapStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn index(&mut self, row: Row) {
        let id = self.docs.len();
        for (field, value) in row.iter() {
            if value.is_null() {
                continue;
            }
            self.postings
                .entry((field.to_string(), value.to_string()))
                .or_default()
                .push(id);
        }
        self.doc_bytes += row.approx_bytes();
        self.docs.push(row);
    }

    /// Heap footprint: stored docs (`_source`), posting lists (terms +
    /// postings), and the uncompressed per-field doc-values columns ES
    /// keeps for sorting/aggregations.
    pub fn memory_bytes(&self) -> usize {
        let postings: usize = self
            .postings
            .iter()
            .map(|((f, v), ids)| f.len() + v.len() + 48 + ids.len() * 8)
            .sum();
        // doc_values: one 8-byte cell per field per document (no dictionary
        // bit-packing in this model)
        let fields: HashSet<&str> = self.docs.iter().flat_map(|d| d.column_names()).collect();
        let doc_values = self.docs.len() * fields.len() * 8;
        self.doc_bytes + postings + doc_values
    }

    /// "Disk" footprint: JSON-ish rendering of every document.
    pub fn disk_bytes(&self) -> usize {
        self.docs
            .iter()
            .map(|row| {
                2 + row
                    .iter()
                    .map(|(k, v)| k.len() + format!("{v}").len() + 6)
                    .sum::<usize>()
            })
            .sum()
    }

    fn matching_docs(&self, query: &Query) -> Vec<usize> {
        // use a posting list for the first equality predicate, then verify
        // the rest by document inspection (ES-style filter execution)
        let seed: Option<Vec<usize>> = query
            .predicates
            .iter()
            .find(|p| p.op == PredicateOp::Eq)
            .and_then(|p| {
                self.postings
                    .get(&(p.column.clone(), p.value.to_string()))
                    .cloned()
                    .or(Some(Vec::new()))
            });
        let candidates: Vec<usize> = match seed {
            Some(ids) => ids,
            None => (0..self.docs.len()).collect(),
        };
        candidates
            .into_iter()
            .filter(|&id| {
                let doc = &self.docs[id];
                query.predicates.iter().all(|p| p.matches(doc))
            })
            .collect()
    }

    pub fn execute(&self, query: &Query) -> Result<QueryResult> {
        let ids = self.matching_docs(query);
        let ledger = ScanLedger {
            docs_scanned: ids.len() as u64,
            segments_queried: 1,
            ..Default::default()
        };
        let docs = ids.into_iter().map(|id| &self.docs[id]);
        let mut rows: Vec<Row> = if query.is_aggregation() {
            reference::aggregate(docs, query)
        } else if query.select.is_empty() {
            docs.cloned().collect()
        } else {
            let select: Vec<&str> = query.select.iter().map(|s| s.as_str()).collect();
            docs.map(|doc| doc.project(&select)).collect()
        };
        sort_and_limit(&mut rows, &query.order_by, query.limit);
        Ok(QueryResult {
            rows,
            ledger,
            used_startree: false,
        })
    }
}

/// A "Druid-like" configuration helper for the index-ablation experiment
/// (E11): same columnar engine, but without the startree/sorted/range
/// indices Pinot adds. Returns the reduced index spec.
pub fn druid_like_spec(full: &IndexSpec) -> IndexSpec {
    IndexSpec {
        inverted: full.inverted.clone(),
        sorted: None,
        range: Vec::new(),
        startree: None,
    }
}

/// Helper used by E10: group-by distribution shared by both engines.
pub fn comparison_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new()
                .with("restaurant", format!("rest-{:04}", i % 500))
                .with("city", ["sf", "la", "nyc", "chi", "sea", "mia"][i % 6])
                .with("total", 4.0 + (i % 120) as f64 * 0.5)
                .with("items", (i % 9) as i64 + 1)
                .with("ts", 1_600_000_000_000i64 + (i as i64) * 250)
        })
        .collect()
}

/// Schema for [`comparison_rows`].
pub fn comparison_schema() -> Schema {
    Schema::of(
        "orders",
        &[
            ("restaurant", FieldType::Str),
            ("city", FieldType::Str),
            ("total", FieldType::Double),
            ("items", FieldType::Int),
            ("ts", FieldType::Timestamp),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::AggFn;
    use rtdi_olap::query::Predicate;
    use rtdi_olap::segment::Segment;
    use rtdi_olap::startree::StarTreeSpec;
    use rtdi_storage::segfile;

    fn filled(n: usize) -> HeapStore {
        let mut hs = HeapStore::new();
        for row in comparison_rows(n) {
            hs.index(row);
        }
        hs
    }

    #[test]
    fn heapstore_agrees_with_columnar_results() {
        let rows = comparison_rows(2000);
        let hs = filled(2000);
        let seg = Segment::build(
            "s",
            &comparison_schema(),
            rows,
            &IndexSpec::none().with_inverted(&["city", "restaurant"]),
        )
        .unwrap();
        let queries = vec![
            Query::select_all("orders")
                .filter(Predicate::eq("city", "sf"))
                .aggregate("n", AggFn::Count)
                .aggregate("rev", AggFn::Sum("total".into())),
            Query::select_all("orders")
                .filter(Predicate::new("total", PredicateOp::Gt, 40.0))
                .aggregate("n", AggFn::Count)
                .group(&["city"]),
            Query::select_all("orders")
                .filter(Predicate::eq("restaurant", "rest-0007"))
                .aggregate("avg", AggFn::Avg("total".into())),
        ];
        for q in queries {
            let a = hs.execute(&q).unwrap().rows;
            let b = seg.execute(&q, None).unwrap().rows;
            assert_eq!(a, b, "mismatch for {q:?}");
        }
    }

    #[test]
    fn memory_gap_matches_paper_band() {
        let n = 20_000;
        let hs = filled(n);
        let seg = Segment::build(
            "s",
            &comparison_schema(),
            comparison_rows(n),
            &IndexSpec::none()
                .with_inverted(&["city", "restaurant"])
                .with_sorted("ts")
                .with_range(&["total"]),
        )
        .unwrap();
        let ratio = hs.memory_bytes() as f64 / seg.memory_bytes() as f64;
        assert!(
            ratio >= 3.0,
            "expected ES-like memory ~4x columnar, got {ratio:.1}x"
        );
    }

    #[test]
    fn disk_gap_matches_paper_band() {
        let n = 20_000;
        let hs = filled(n);
        let data =
            segfile::encode_rows_segment(&comparison_schema(), "s", &comparison_rows(n)).unwrap();
        let ratio = hs.disk_bytes() as f64 / data.len() as f64;
        assert!(
            ratio >= 6.0,
            "expected ES-like disk ~8x columnar file, got {ratio:.1}x"
        );
    }

    #[test]
    fn druid_like_spec_strips_pinot_specials() {
        let full = IndexSpec::none()
            .with_inverted(&["city"])
            .with_sorted("ts")
            .with_range(&["total"])
            .with_startree(StarTreeSpec::new(&["city"], vec![AggFn::Count]));
        let druid = druid_like_spec(&full);
        assert_eq!(druid.inverted, vec!["city"]);
        assert!(druid.sorted.is_none());
        assert!(druid.range.is_empty());
        assert!(druid.startree.is_none());
    }
}
