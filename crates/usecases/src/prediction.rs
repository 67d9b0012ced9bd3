//! Real-time prediction monitoring (§5.3).
//!
//! "A real-time prediction monitoring pipeline is set up that joins the
//! predictions to the observed outcomes (or labels) generated by the data
//! pipeline, creating ongoing, live measurements of model accuracy. The
//! key requirement from this use case is scalability, due to a high volume
//! and high cardinality of data... the Flink job also creates
//! pre-aggregation as Pinot tables."

use rtdi_common::{AggFn, FieldType, Record, Result, Row, Schema};
use rtdi_compute::operator::{MapOp, Operator, WindowAggregateOp, WindowJoinOp};
use rtdi_compute::runtime::{run_staged_with, Job, JobRunStats, StagedConfig};
use rtdi_compute::source::{Source, UnionSource, VecSource};
use rtdi_compute::window::WindowAssigner;
use rtdi_flinksql::sinks::PinotSink;
use rtdi_olap::query::{Predicate, Query};
use rtdi_olap::segment::IndexSpec;
use rtdi_olap::table::{OlapTable, TableConfig};
use std::sync::Arc;

/// The monitoring deployment: join window, accuracy aggregation window and
/// the Pinot cube the results land in.
pub struct PredictionMonitoring {
    pub cube: Arc<OlapTable>,
    join_window_ms: i64,
    agg_window_ms: i64,
}

impl PredictionMonitoring {
    pub fn cube_schema() -> Schema {
        Schema::of(
            "model_accuracy",
            &[
                ("model", FieldType::Str),
                ("window_start", FieldType::Timestamp),
                ("window_end", FieldType::Timestamp),
                ("samples", FieldType::Int),
                ("mean_abs_error", FieldType::Double),
                ("max_abs_error", FieldType::Double),
                ("ingest_ts", FieldType::Timestamp),
            ],
        )
    }

    pub fn new(join_window_ms: i64, agg_window_ms: i64) -> Result<Self> {
        let cube = OlapTable::new(
            TableConfig::new("model_accuracy", Self::cube_schema())
                .with_index_spec(
                    IndexSpec::none()
                        .with_inverted(&["model"])
                        .with_sorted("window_start"),
                )
                .with_time_column("ingest_ts")
                .with_partitions(4)
                .with_segment_rows(8192),
        )?;
        Ok(PredictionMonitoring {
            cube,
            join_window_ms,
            agg_window_ms,
        })
    }

    /// The pipeline: union(predictions, outcomes) -> windowed join on
    /// case_id -> per-sample absolute error -> windowed accuracy per model.
    fn operators(&self) -> Vec<Box<dyn Operator>> {
        vec![
            Box::new(WindowJoinOp::new(
                "prediction-outcome-join",
                "case_id",
                "predictions",
                "outcomes",
                self.join_window_ms,
            )),
            Box::new(MapOp::new("abs-error", |r: &Row| {
                let p = r.get_double("predicted").unwrap_or(0.0);
                let a = r.get_double("actual").unwrap_or(0.0);
                let mut out = r.clone();
                out.push("abs_error", (p - a).abs());
                out
            })),
            Box::new(WindowAggregateOp::new(
                "accuracy-window",
                vec!["model".into()],
                WindowAssigner::tumbling(self.agg_window_ms),
                vec![
                    ("samples".into(), AggFn::Count),
                    ("mean_abs_error".into(), AggFn::Avg("abs_error".into())),
                    ("max_abs_error".into(), AggFn::Max("abs_error".into())),
                ],
                0,
            )),
        ]
    }

    /// Run the monitoring job over bounded prediction/outcome streams.
    pub fn run(&self, predictions: Vec<Record>, outcomes: Vec<Record>) -> Result<JobRunStats> {
        let source = UnionSource::new(vec![
            (
                "predictions".into(),
                Box::new(VecSource::new(predictions)) as Box<dyn Source>,
            ),
            (
                "outcomes".into(),
                Box::new(VecSource::new(outcomes)) as Box<dyn Source>,
            ),
        ]);
        let job = Job::new(
            "prediction-monitoring",
            Box::new(source),
            self.operators(),
            Box::new(PinotSink::new(self.cube.clone())),
        )
        .with_out_of_orderness(self.join_window_ms);
        run_staged_with(job, &StagedConfig::default())
    }

    /// Alerting read: models whose latest mean absolute error exceeds a
    /// threshold ("detect prediction abnormality").
    pub fn degraded_models(&self, threshold: f64) -> Result<Vec<String>> {
        let q = Query::select_all("model_accuracy")
            .filter(Predicate::new(
                "mean_abs_error",
                rtdi_olap::query::PredicateOp::Gt,
                threshold,
            ))
            .columns(&["model", "mean_abs_error", "window_start"]);
        let res = self.cube.query(&q)?;
        let mut models: Vec<String> = res
            .rows
            .iter()
            .filter_map(|r| r.get_str("model").map(|s| s.to_string()))
            .collect();
        models.sort();
        models.dedup();
        Ok(models)
    }

    /// Accuracy time series for one model (the dashboard read).
    pub fn accuracy_series(&self, model: &str) -> Result<Vec<Row>> {
        let q = Query::select_all("model_accuracy")
            .filter(Predicate::eq("model", model))
            .columns(&["window_start", "samples", "mean_abs_error"])
            .order("window_start", rtdi_olap::query::SortOrder::Asc);
        Ok(self.cube.query(&q)?.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::TripEventGenerator;

    fn generate(n: usize, models: usize) -> (Vec<Record>, Vec<Record>) {
        let mut g = TripEventGenerator::new(33, 8);
        let mut preds = Vec::with_capacity(n);
        let mut outs = Vec::with_capacity(n);
        for i in 0..n {
            let (p, o) = g.prediction_pair((i as i64) * 20, models, 500);
            preds.push(p);
            outs.push(o);
        }
        (preds, outs)
    }

    #[test]
    fn accuracy_cube_fills_with_joined_measurements() {
        let pm = PredictionMonitoring::new(10_000, 5_000).unwrap();
        let (preds, outs) = generate(5_000, 50);
        pm.run(preds, outs).unwrap();
        let q = Query::select_all("model_accuracy")
            .aggregate("total_samples", AggFn::Sum("samples".into()));
        let res = pm.cube.query(&q).unwrap();
        // nearly every prediction joined its outcome; pairs straddling a
        // join-window boundary (outcome_delay / join_window ~= 5%) are the
        // expected tumbling-window-join miss rate
        let joined = res.rows[0].get_double("total_samples").unwrap();
        assert!(
            (4_600.0..=5_000.0).contains(&joined),
            "joined {joined} of 5000"
        );
        // errors bounded by the generator's noise
        let q = Query::select_all("model_accuracy")
            .aggregate("worst", AggFn::Max("max_abs_error".into()));
        let worst = pm.cube.query(&q).unwrap().rows[0]
            .get_double("worst")
            .unwrap();
        assert!(worst <= 0.1 + 1e-9, "worst error {worst}");
    }

    #[test]
    fn degraded_model_detection() {
        let pm = PredictionMonitoring::new(10_000, 5_000).unwrap();
        let (mut preds, mut outs) = generate(1_000, 10);
        // model-9999 is broken: predictions far from outcomes. Its events
        // use fresh timestamps past the generated range so they are not
        // late with respect to the already-advanced watermark.
        for i in 0..50 {
            let ts = 25_000 + (i as i64) * 20;
            let case = format!("bad-{i}");
            preds.push(
                Record::new(
                    Row::new()
                        .with("case_id", case.clone())
                        .with("model", "model-9999")
                        .with("predicted", 0.95)
                        .with("ts", ts),
                    ts,
                )
                .with_key(case.clone()),
            );
            outs.push(
                Record::new(
                    Row::new()
                        .with("case_id", case.clone())
                        .with("model", "model-9999")
                        .with("actual", 0.05)
                        .with("ts", ts + 100),
                    ts + 100,
                )
                .with_key(case),
            );
        }
        pm.run(preds, outs).unwrap();
        let degraded = pm.degraded_models(0.5).unwrap();
        assert_eq!(degraded, vec!["model-9999".to_string()]);
    }

    #[test]
    fn outcomes_outside_join_window_never_match() {
        let pm = PredictionMonitoring::new(1_000, 5_000).unwrap();
        let ts = 100;
        let pred = Record::new(
            Row::new()
                .with("case_id", "c1")
                .with("model", "m")
                .with("predicted", 0.5)
                .with("ts", ts),
            ts,
        )
        .with_key("c1");
        // outcome lands in the next join window
        let outcome = Record::new(
            Row::new()
                .with("case_id", "c1")
                .with("model", "m")
                .with("actual", 0.5)
                .with("ts", ts + 2_000),
            ts + 2_000,
        )
        .with_key("c1");
        pm.run(vec![pred], vec![outcome]).unwrap();
        let q = Query::select_all("model_accuracy").aggregate("n", AggFn::Count);
        assert_eq!(pm.cube.query(&q).unwrap().rows[0].get_int("n"), Some(0));
    }

    #[test]
    fn accuracy_series_is_time_ordered() {
        let pm = PredictionMonitoring::new(10_000, 1_000).unwrap();
        let (preds, outs) = generate(2_000, 4);
        pm.run(preds, outs).unwrap();
        let series = pm.accuracy_series("model-0001").unwrap();
        assert!(series.len() > 1);
        let starts: Vec<i64> = series
            .iter()
            .map(|r| r.get_int("window_start").unwrap())
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn high_cardinality_scales() {
        // thousands of (model x feature) series in one run — the §5.3
        // scalability point at laptop scale
        let pm = PredictionMonitoring::new(60_000, 10_000).unwrap();
        let (preds, outs) = generate(20_000, 1_000);
        let stats = pm.run(preds, outs).unwrap();
        assert_eq!(stats.records_in, 40_000);
        let q = Query::select_all("model_accuracy")
            .aggregate("models", AggFn::DistinctCount("model".into()));
        let models = pm.cube.query(&q).unwrap().rows[0]
            .get_int("models")
            .unwrap();
        assert!(models >= 900, "only {models} models materialized");
    }
}
