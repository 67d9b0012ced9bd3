//! UberEats Restaurant Manager (§5.2).
//!
//! "This dashboard enables the owner of a Restaurant to get insights from
//! the UberEats orders regarding customer satisfaction, popular menu
//! items, sales and service quality... we used Pinot with the efficient
//! pre-aggregation indices... Also, we built preprocessors in Flink such
//! as aggressive filtering, partial aggregate and roll-ups to further
//! reduce the processing time in Pinot... we trade the query flexibility
//! required for ad-hoc exploration and complexity of query evolution for
//! lower latency."

use rtdi_common::{AggFn, FieldType, Record, Result, Row, Schema};
use rtdi_compute::operator::{FilterOp, Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, Job, StagedConfig};
use rtdi_compute::source::VecSource;
use rtdi_compute::window::WindowAssigner;
use rtdi_flinksql::sinks::PinotSink;
use rtdi_olap::query::{Predicate, Query, QueryResult, SortOrder};
use rtdi_olap::segment::IndexSpec;
use rtdi_olap::startree::StarTreeSpec;
use rtdi_olap::table::{OlapTable, TableConfig};
use std::sync::Arc;

/// The restaurant-manager deployment: a pre-aggregated stats table plus
/// (for the E16 comparison) an optional raw-events table.
pub struct RestaurantManager {
    pub stats_table: Arc<OlapTable>,
    window_ms: i64,
}

impl RestaurantManager {
    pub fn stats_schema() -> Schema {
        Schema::of(
            "restaurant_stats",
            &[
                ("restaurant", FieldType::Str),
                ("window_start", FieldType::Timestamp),
                ("window_end", FieldType::Timestamp),
                ("orders", FieldType::Int),
                ("revenue", FieldType::Double),
                ("avg_rating", FieldType::Double),
                ("distinct_items", FieldType::Int),
                ("ingest_ts", FieldType::Timestamp),
            ],
        )
    }

    /// The raw-order schema (used by the no-preagg baseline table).
    pub fn raw_schema() -> Schema {
        Schema::of(
            "eats_orders_raw",
            &[
                ("restaurant", FieldType::Str),
                ("item", FieldType::Str),
                ("items", FieldType::Int),
                ("total", FieldType::Double),
                ("rating", FieldType::Int),
                ("hex", FieldType::Str),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    /// Create the pre-aggregated dashboard table with the "efficient
    /// pre-aggregation indices": inverted on restaurant, sorted by window,
    /// star-tree over (restaurant) with the dashboard metrics.
    pub fn new(window_ms: i64) -> Result<Self> {
        let index_spec = IndexSpec::none()
            .with_inverted(&["restaurant"])
            .with_sorted("window_start")
            .with_startree(StarTreeSpec::new(
                &["restaurant"],
                vec![
                    AggFn::Sum("orders".into()),
                    AggFn::Sum("revenue".into()),
                    AggFn::Count,
                ],
            ));
        let stats_table = OlapTable::new(
            TableConfig::new("restaurant_stats", Self::stats_schema())
                .with_index_spec(index_spec)
                .with_time_column("ingest_ts")
                .with_partitions(2)
                .with_segment_rows(4096),
        )?;
        Ok(RestaurantManager {
            stats_table,
            window_ms,
        })
    }

    /// The Flink preprocessor: aggressive filtering (malformed orders
    /// dropped) + partial aggregation/roll-up per restaurant per window.
    pub fn preprocessor(&self) -> Vec<Box<dyn Operator>> {
        vec![
            Box::new(FilterOp::new("valid-orders", |r: &Row| {
                r.get_str("restaurant").is_some()
                    && r.get_double("total").map(|t| t > 0.0).unwrap_or(false)
            })),
            Box::new(WindowAggregateOp::new(
                "order-rollup",
                vec!["restaurant".into()],
                WindowAssigner::tumbling(self.window_ms),
                vec![
                    ("orders".into(), AggFn::Count),
                    ("revenue".into(), AggFn::Sum("total".into())),
                    ("avg_rating".into(), AggFn::Avg("rating".into())),
                    ("distinct_items".into(), AggFn::DistinctCount("item".into())),
                ],
                0,
            )),
        ]
    }

    /// Run the preprocessing pipeline over a batch of raw order events
    /// into the stats table.
    pub fn ingest_orders(&self, orders: Vec<Record>) -> Result<u64> {
        let job = Job::new(
            "restaurant-rollup",
            Box::new(VecSource::new(orders)),
            self.preprocessor(),
            Box::new(PinotSink::new(self.stats_table.clone())),
        );
        let stats = run_staged_with(job, &StagedConfig::default())?;
        Ok(stats.records_out)
    }

    /// Dashboard page load: the fixed query set §5.2 describes (sales,
    /// popular items proxy, satisfaction), all against one restaurant.
    pub fn dashboard_queries(&self, restaurant: &str) -> Vec<Query> {
        vec![
            // sales trend: revenue + orders per window
            Query::select_all("restaurant_stats")
                .filter(Predicate::eq("restaurant", restaurant))
                .columns(&["window_start", "orders", "revenue"])
                .order("window_start", SortOrder::Desc)
                .limit(48),
            // lifetime totals (star-tree answerable)
            Query::select_all("restaurant_stats")
                .filter(Predicate::eq("restaurant", restaurant))
                .aggregate("total_orders", AggFn::Sum("orders".into()))
                .aggregate("total_revenue", AggFn::Sum("revenue".into())),
            // satisfaction
            Query::select_all("restaurant_stats")
                .filter(Predicate::eq("restaurant", restaurant))
                .aggregate("rating", AggFn::Avg("avg_rating".into())),
        ]
    }

    /// Serve one dashboard page load; returns per-query results.
    pub fn load_dashboard(&self, restaurant: &str) -> Result<Vec<QueryResult>> {
        self.dashboard_queries(restaurant)
            .iter()
            .map(|q| self.stats_table.query(q))
            .collect()
    }

    /// The E16 baseline: the same dashboard served from raw events (no
    /// Flink preprocessing). Returns the equivalent query set against a
    /// raw table.
    pub fn raw_dashboard_queries(restaurant: &str, window_ms: i64) -> Vec<Query> {
        let _ = window_ms;
        vec![
            Query::select_all("eats_orders_raw")
                .filter(Predicate::eq("restaurant", restaurant))
                .aggregate("orders", AggFn::Count)
                .aggregate("revenue", AggFn::Sum("total".into()))
                .group(&["ts"]), // per-event granularity: the flexibility cost
            Query::select_all("eats_orders_raw")
                .filter(Predicate::eq("restaurant", restaurant))
                .aggregate("total_orders", AggFn::Count)
                .aggregate("total_revenue", AggFn::Sum("total".into())),
            Query::select_all("eats_orders_raw")
                .filter(Predicate::eq("restaurant", restaurant))
                .aggregate("rating", AggFn::Avg("rating".into())),
        ]
    }

    /// Build the raw-events comparison table.
    pub fn raw_table() -> Result<Arc<OlapTable>> {
        OlapTable::new(
            TableConfig::new("eats_orders_raw", Self::raw_schema())
                .with_index_spec(IndexSpec::none().with_inverted(&["restaurant"]))
                .with_time_column("ts")
                .with_partitions(2)
                .with_segment_rows(65_536),
        )
    }
}

/// Ingest raw orders into the baseline table (no preprocessing).
pub fn ingest_raw(table: &OlapTable, orders: &[Record]) -> Result<()> {
    for (i, rec) in orders.iter().enumerate() {
        table.ingest(i % table.config().partitions, rec.value.clone())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::TripEventGenerator;
    use rtdi_common::Error;

    /// The first row of an answer, or an error for an empty one.
    fn first_row(result: &QueryResult) -> Result<&Row> {
        result
            .rows
            .first()
            .ok_or_else(|| Error::Internal("empty result".into()))
    }

    fn orders(n: usize) -> Vec<Record> {
        let mut g = TripEventGenerator::new(21, 32);
        (0..n).map(|i| g.eats_order((i as i64) * 100)).collect()
    }

    #[test]
    fn rollup_reduces_rows_dramatically() {
        let rm = RestaurantManager::new(60_000).unwrap();
        let raw = orders(20_000);
        let rolled = rm.ingest_orders(raw).unwrap();
        // 20k orders over ~2000s = ~34 windows x active restaurants —
        // orders of magnitude fewer rows than raw
        assert!(rolled < 20_000 / 2, "rollup produced {rolled} rows");
        assert_eq!(rm.stats_table.doc_count() as u64, rolled);
    }

    #[test]
    fn dashboard_answers_match_raw_truth() {
        let rm = RestaurantManager::new(60_000).unwrap();
        let raw = orders(5_000);
        // ground truth from the raw events
        let target = "rest-0003";
        let true_orders = raw
            .iter()
            .filter(|r| r.value.get_str("restaurant") == Some(target))
            .count() as f64;
        let true_revenue: f64 = raw
            .iter()
            .filter(|r| r.value.get_str("restaurant") == Some(target))
            .map(|r| r.value.get_double("total").unwrap())
            .sum();
        rm.ingest_orders(raw).unwrap();
        let results = rm.load_dashboard(target).unwrap();
        let totals = first_row(&results[1]).unwrap();
        assert_eq!(totals.get_double("total_orders"), Some(true_orders));
        let revenue = totals.get_double("total_revenue").unwrap();
        assert!((revenue - true_revenue).abs() < 1e-6);
        // satisfaction query returns a rating in range
        let rating = first_row(&results[2])
            .unwrap()
            .get_double("rating")
            .unwrap();
        assert!((1.0..=5.0).contains(&rating));
    }

    #[test]
    fn lifetime_totals_use_startree_after_seal() {
        let rm = RestaurantManager::new(60_000).unwrap();
        rm.ingest_orders(orders(10_000)).unwrap();
        rm.stats_table.seal_all().unwrap();
        let q = &rm.dashboard_queries("rest-0001")[1];
        let res = rm.stats_table.query(q).unwrap();
        assert!(res.used_startree, "pre-aggregation index not used");
        assert!(res.ledger.docs_scanned == 0);
    }

    #[test]
    fn malformed_orders_filtered_by_preprocessor() {
        let rm = RestaurantManager::new(60_000).unwrap();
        let mut raw = orders(100);
        raw.push(Record::new(Row::new().with("total", 5.0), 1)); // no restaurant
        raw.push(Record::new(
            Row::new()
                .with("restaurant", "rest-bad")
                .with("total", -3.0),
            2,
        ));
        rm.ingest_orders(raw).unwrap();
        let res = rm
            .stats_table
            .query(
                &Query::select_all("restaurant_stats")
                    .filter(Predicate::eq("restaurant", "rest-bad"))
                    .aggregate("n", AggFn::Count),
            )
            .unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(0));
    }
}
