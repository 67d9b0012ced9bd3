//! Surge pricing (§5.1, Figure 6).
//!
//! "Surge pricing is essentially a streaming pipeline for computing the
//! pricing multipliers per hexagon-area geofence based on the trip data,
//! rider and driver status in a time window... ingests streaming data from
//! Kafka, runs a complex machine-learning based algorithm in Flink, and
//! stores the result in a sink key-value store for quick result look up.
//! The surge pricing favors data freshness and availability over data
//! consistency. The late-arriving messages do not contribute to the surge
//! computation."

use rtdi_common::{AggFn, Record, Result, Row, TraceReport};
use rtdi_compute::operator::{FilterOp, MapOp, Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, Job, JobRunStats, StagedConfig};
use rtdi_compute::sink::FnSink;
use rtdi_compute::source::{Source, TopicSource, VecSource};
use rtdi_compute::window::WindowAssigner;
use rtdi_multiregion::kv::ReplicatedKv;
use rtdi_stream::topic::Topic;
use std::sync::Arc;

/// The pricing model applied per geofence per window — the "complex
/// machine-learning based algorithm" slot. Implementations must be pure
/// (the active-active convergence argument of §6 depends on it).
pub trait SurgeModel: Send + Sync {
    /// `demand`, `supply` are windowed counts; returns the multiplier.
    fn multiplier(&self, demand: f64, supply: f64) -> f64;
}

/// A calibrated linear-ratio model (stand-in for Uber's ML model; same
/// input/output contract).
#[derive(Debug, Clone)]
pub struct LinearSurgeModel {
    /// Multiplier gain per unit of excess demand ratio.
    pub sensitivity: f64,
    pub max_multiplier: f64,
}

impl Default for LinearSurgeModel {
    fn default() -> Self {
        LinearSurgeModel {
            sensitivity: 0.5,
            max_multiplier: 5.0,
        }
    }
}

impl SurgeModel for LinearSurgeModel {
    fn multiplier(&self, demand: f64, supply: f64) -> f64 {
        let ratio = if supply <= 0.0 {
            demand.max(1.0)
        } else {
            demand / supply
        };
        (1.0 + self.sensitivity * (ratio - 1.0).max(0.0)).min(self.max_multiplier)
    }
}

/// Configuration of the surge pipeline.
pub struct SurgePipeline {
    pub window_ms: i64,
    pub model: Arc<dyn SurgeModel>,
    /// Freshness over completeness: no allowed lateness, small watermark
    /// bound.
    pub max_out_of_orderness: i64,
}

impl SurgePipeline {
    pub fn new(window_ms: i64, model: Arc<dyn SurgeModel>) -> Self {
        SurgePipeline {
            window_ms,
            model,
            max_out_of_orderness: 500,
        }
    }

    /// Operator chain: filter malformed -> windowed demand/supply counts
    /// per hex -> model evaluation.
    fn operators(&self) -> Vec<Box<dyn Operator>> {
        let model = self.model.clone();
        vec![
            Box::new(FilterOp::new("valid-events", |r: &Row| {
                r.get_str("hex").is_some()
                    && matches!(r.get_str("kind"), Some("demand") | Some("supply"))
            })),
            Box::new(MapOp::new("tag-kind", |r: &Row| {
                let mut out = r.clone();
                let is_demand = r.get_str("kind") == Some("demand");
                out.push("demand_1", if is_demand { 1.0 } else { 0.0 });
                out.push("supply_1", if is_demand { 0.0 } else { 1.0 });
                out
            })),
            Box::new(WindowAggregateOp::new(
                "demand-supply-window",
                vec!["hex".into()],
                WindowAssigner::tumbling(self.window_ms),
                vec![
                    ("demand".into(), AggFn::Sum("demand_1".into())),
                    ("supply".into(), AggFn::Sum("supply_1".into())),
                ],
                0, // late events dropped: freshness over completeness
            )),
            Box::new(MapOp::new("surge-model", move |r: &Row| {
                let demand = r.get_double("demand").unwrap_or(0.0);
                let supply = r.get_double("supply").unwrap_or(0.0);
                let mut out = r.clone();
                out.push("multiplier", model.multiplier(demand, supply));
                out
            })),
        ]
    }

    /// Build the job over a topic source, sinking multipliers into the KV
    /// store. `written_by` names the region's update service.
    pub fn job(
        &self,
        name: &str,
        topic: Arc<Topic>,
        kv: ReplicatedKv,
        written_by: &str,
    ) -> Result<Job> {
        Ok(self.job_from_source(name, Box::new(TopicSource::bounded(topic)?), kv, written_by))
    }

    /// Same pipeline over an in-memory source (tests, benches).
    pub fn job_from_records(
        &self,
        name: &str,
        records: Vec<Record>,
        kv: ReplicatedKv,
        written_by: &str,
    ) -> Job {
        self.job_from_source(name, Box::new(VecSource::new(records)), kv, written_by)
    }

    fn job_from_source(
        &self,
        name: &str,
        source: Box<dyn Source>,
        kv: ReplicatedKv,
        written_by: &str,
    ) -> Job {
        let writer = written_by.to_string();
        let sink = FnSink::new(move |rec: Record| {
            let hex = rec.value.get_str("hex").unwrap_or("?").to_string();
            kv.put(&hex, rec.value.clone(), rec.timestamp, &writer);
            Ok(())
        });
        Job::new(name, source, self.operators(), Box::new(sink))
            .with_out_of_orderness(self.max_out_of_orderness)
    }

    /// Run the pipeline to completion over a bounded source.
    pub fn run(&self, job: Job) -> Result<JobRunStats> {
        run_staged_with(job, &StagedConfig::default())
    }

    /// §5.1's SLA check against measured freshness: every traced hop of
    /// `pipeline` must have p99 dwell at or below `sla_ms`. False when the
    /// pipeline has no traced stages — an unmeasured pipeline cannot be
    /// declared fresh.
    pub fn meets_freshness_sla(&self, report: &TraceReport, pipeline: &str, sla_ms: u64) -> bool {
        let stages = report.pipeline(pipeline);
        !stages.is_empty() && stages.iter().all(|s| s.p99_ms <= sla_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::TripEventGenerator;
    use rtdi_common::{Timestamp, Value};

    /// Hands its records out at most five a poll.
    struct PollsOfFive(VecSource);

    impl Source for PollsOfFive {
        fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
            self.0.poll_batch(max.min(5))
        }
        fn is_exhausted(&self) -> bool {
            self.0.is_exhausted()
        }
        fn position(&self) -> Vec<u64> {
            self.0.position()
        }
        fn seek(&mut self, position: &[u64]) -> Result<()> {
            self.0.seek(position)
        }
        fn event_time(&self) -> Timestamp {
            self.0.event_time()
        }
    }

    fn run_over(records: Vec<Record>) -> ReplicatedKv {
        let kv = ReplicatedKv::new();
        let p = SurgePipeline::new(1_000, Arc::new(LinearSurgeModel::default()));
        let job = p.job_from_records("surge", records, kv.clone(), "test-region");
        p.run(job).unwrap();
        kv
    }

    fn event(ts: Timestamp, hex: &str, kind: &str) -> Record {
        Record::new(
            Row::new()
                .with("hex", hex)
                .with("kind", kind)
                .with("ts", ts),
            ts,
        )
        .with_key(hex)
    }

    #[test]
    fn multiplier_reflects_demand_supply_imbalance() {
        let mut records = Vec::new();
        // hexA: 9 demand, 3 supply -> ratio 3 -> 1 + 0.5*2 = 2.0
        for i in 0..9 {
            records.push(event(100 + i, "hexA", "demand"));
        }
        for i in 0..3 {
            records.push(event(200 + i, "hexA", "supply"));
        }
        // hexB: balanced -> 1.0
        for i in 0..4 {
            records.push(event(300 + i, "hexB", "demand"));
            records.push(event(400 + i, "hexB", "supply"));
        }
        let kv = run_over(records);
        let a = kv.get("hexA").unwrap();
        assert_eq!(a.get_double("multiplier"), Some(2.0));
        let b = kv.get("hexB").unwrap();
        assert_eq!(b.get_double("multiplier"), Some(1.0));
    }

    #[test]
    fn zero_supply_is_capped() {
        let model = LinearSurgeModel::default();
        assert!(model.multiplier(100.0, 0.0) <= model.max_multiplier);
        assert_eq!(model.multiplier(0.0, 10.0), 1.0);
        assert_eq!(model.multiplier(10.0, 10.0), 1.0);
    }

    #[test]
    fn late_events_do_not_contribute() {
        // hexA gets 5 on-time events in window [0,1000); unrelated hexB
        // traffic at t=5s advances the watermark past the window end; a
        // very late hexA event for the closed window must be dropped.
        let mut records = Vec::new();
        for i in 0..5 {
            records.push(event(100 + i, "hexA", "demand"));
        }
        for i in 0..5 {
            records.push(event(5_000 + i, "hexB", "demand"));
        }
        records.push(event(150, "hexA", "demand")); // late by ~5s, bound 500ms
        let kv = ReplicatedKv::new();
        let p = SurgePipeline::new(1_000, Arc::new(LinearSurgeModel::default()));
        // polls of 5 so the watermark advances between the hexB traffic
        // and the late arrival (watermarks are generated per poll)
        let source = PollsOfFive(VecSource::new(records));
        let job = p.job_from_source("surge", Box::new(source), kv.clone(), "t");
        p.run(job).unwrap();
        // hexA's only window was computed from the 5 on-time events; the
        // late 6th never contributed
        let row = kv.get("hexA").unwrap();
        assert_eq!(row.get_double("demand"), Some(5.0));
    }

    #[test]
    fn malformed_events_filtered() {
        let records = vec![
            event(100, "hexA", "demand"),
            Record::new(Row::new().with("kind", "demand"), 101), // no hex
            Record::new(Row::new().with("hex", "hexA").with("kind", "riddle"), 102),
        ];
        let kv = run_over(records);
        assert_eq!(kv.get("hexA").unwrap().get_double("demand"), Some(1.0));
    }

    #[test]
    fn realistic_workload_produces_multipliers_for_every_active_hex() {
        let mut g = TripEventGenerator::new(11, 64);
        let records = g.marketplace_batch(0, 10_000, 200);
        let hexes: std::collections::HashSet<String> = records
            .iter()
            .map(|r| r.value.get_str("hex").unwrap().to_string())
            .collect();
        let kv = run_over(records);
        assert_eq!(kv.len(), hexes.len());
        for hex in kv.keys() {
            let m = kv.get(&hex).unwrap().get_double("multiplier").unwrap();
            assert!((1.0..=5.0).contains(&m), "multiplier {m} out of range");
        }
    }

    #[test]
    fn kv_writer_attribution_for_active_active() {
        let kv = ReplicatedKv::new();
        let p = SurgePipeline::new(1_000, Arc::new(LinearSurgeModel::default()));
        let job = p.job_from_records(
            "surge-west",
            vec![event(1, "hexZ", "demand")],
            kv.clone(),
            "us-west",
        );
        p.run(job).unwrap();
        assert_eq!(kv.writer_of("hexZ").unwrap(), "us-west");
        assert_eq!(
            kv.get("hexZ").unwrap().get("multiplier").cloned(),
            Some(Value::Double(1.0))
        );
    }

    #[test]
    fn freshness_sla_check_uses_traced_percentiles() {
        use rtdi_common::PipelineTracer;
        let tracer = PipelineTracer::default();
        let p = SurgePipeline::new(1_000, Arc::new(LinearSurgeModel::default()));
        // an unmeasured pipeline cannot be declared fresh
        assert!(!p.meets_freshness_sla(&tracer.report(), "surge", 5_000));
        for _ in 0..100 {
            tracer.record_dwell("surge", "stream", 40);
            tracer.record_dwell("surge", "compute", 200);
        }
        let report = tracer.report();
        assert!(p.meets_freshness_sla(&report, "surge", 5_000));
        // the compute hop's p99 exceeds a 100ms SLA
        assert!(!p.meets_freshness_sla(&report, "surge", 100));
    }
}
