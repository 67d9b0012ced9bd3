//! Pipeline-wide freshness tracing.
//!
//! §5.1 demands "seconds-level" end-to-end freshness for pipelines like
//! surge pricing; §9.3 demands real-time monitoring of every component.
//! This module provides the plumbing both need: producers stamp an origin
//! timestamp into record headers, every downstream hop (stream append,
//! consumer proxy, compute runtime, OLAP ingestion, SQL broker) measures
//! how long the record dwelled since the previous hop, and the resulting
//! per-stage histograms roll up into a [`TraceReport`] that the platform's
//! health snapshot and the job manager's rule engine consume.
//!
//! Dwell is measured in **milliseconds** (the repo-wide [`Timestamp`]
//! unit), so the per-stage numbers of a pipeline sum to its end-to-end
//! freshness: `origin -> hop1 -> hop2 -> visible` decomposes as
//! `(hop1 - origin) + (hop2 - hop1) + (visible - hop2)`.

use crate::metrics::Histogram;
use crate::record::{headers, Record};
use crate::time::Timestamp;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Stage name under which [`PipelineTracer::record_total`] reports the
/// origin-to-visible freshness of a record (kept out of the hop chain so
/// per-stage dwells still sum to it).
pub const END_TO_END: &str = "end-to-end";

/// Stage name under which query-time staleness is reported (how old the
/// newest visible data was when a SQL query ran against the pipeline).
pub const SQL_QUERY_STAGE: &str = "sql-staleness";

/// Snapshot of one stage's dwell distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDwell {
    pub pipeline: String,
    pub stage: String,
    pub count: u64,
    pub mean_ms: f64,
    pub p50_ms: u64,
    pub p99_ms: u64,
    pub max_ms: u64,
}

/// Every stage of every pipeline, hop order preserved within a pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    pub stages: Vec<StageDwell>,
}

impl TraceReport {
    /// Stages of one pipeline, in the order hops first reported.
    pub fn pipeline(&self, pipeline: &str) -> Vec<&StageDwell> {
        self.stages
            .iter()
            .filter(|s| s.pipeline == pipeline)
            .collect()
    }

    pub fn stage(&self, pipeline: &str, stage: &str) -> Option<&StageDwell> {
        self.stages
            .iter()
            .find(|s| s.pipeline == pipeline && s.stage == stage)
    }

    /// Sum of per-hop mean dwells, excluding the [`END_TO_END`] and
    /// [`SQL_QUERY_STAGE`] rollups — comparable to the `END_TO_END` mean.
    pub fn sum_of_hop_means_ms(&self, pipeline: &str) -> f64 {
        self.pipeline(pipeline)
            .iter()
            .filter(|s| s.stage != END_TO_END && s.stage != SQL_QUERY_STAGE)
            .map(|s| s.mean_ms)
            .sum()
    }
}

struct PipelineData {
    /// Insertion-ordered so reports list stages in hop order.
    stages: Vec<(String, Arc<Histogram>)>,
    /// Newest origin (producer) timestamp seen — drives staleness.
    last_origin_ts: Option<Timestamp>,
}

/// Shared, cheap-to-clone tracer. All clones write into the same
/// histograms, so the producer, broker, ingester and broker-side SQL can
/// each hold one without coordination.
#[derive(Clone, Default)]
pub struct PipelineTracer {
    inner: Arc<RwLock<BTreeMap<String, PipelineData>>>,
}

impl PipelineTracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn hist(&self, pipeline: &str, stage: &str) -> Arc<Histogram> {
        let mut inner = self.inner.write();
        let data = inner
            .entry(pipeline.to_string())
            .or_insert_with(|| PipelineData {
                stages: Vec::new(),
                last_origin_ts: None,
            });
        if let Some((_, h)) = data.stages.iter().find(|(n, _)| n == stage) {
            return h.clone();
        }
        let h = Arc::new(Histogram::default());
        data.stages.push((stage.to_string(), h.clone()));
        h
    }

    /// The timestamp the *previous* hop stamped (origin for a fresh
    /// record): the trace stamp, else the producer's app timestamp, else
    /// the record's event time.
    pub fn origin_of(record: &Record) -> Timestamp {
        record
            .headers
            .get(headers::TRACE_TIMESTAMP)
            .or_else(|| record.headers.get(headers::APP_TIMESTAMP))
            .and_then(|s| s.parse::<i64>().ok())
            .unwrap_or(record.timestamp)
    }

    /// The producer-side origin stamp (ignores intermediate hop stamps).
    pub fn app_ts_of(record: &Record) -> Timestamp {
        record
            .headers
            .get(headers::APP_TIMESTAMP)
            .and_then(|s| s.parse::<i64>().ok())
            .unwrap_or(record.timestamp)
    }

    /// Stamp a record at its origin: sets the trace stamp, and the app
    /// timestamp too if the producer has not already done so.
    pub fn stamp(record: &mut Record, now: Timestamp) {
        if record.headers.get(headers::APP_TIMESTAMP).is_none() {
            record.headers.set_i64(headers::APP_TIMESTAMP, now);
        }
        record.headers.set_i64(headers::TRACE_TIMESTAMP, now);
    }

    /// Record a raw dwell (negative values clamp to zero — clock skew must
    /// not corrupt the histogram).
    pub fn record_dwell(&self, pipeline: &str, stage: &str, dwell_ms: i64) {
        self.hist(pipeline, stage).record(dwell_ms.max(0) as u64);
    }

    /// Measure and record the dwell since the previous hop, then restamp
    /// the record so the next hop measures only its own dwell. Returns the
    /// dwell.
    ///
    /// A hop does three things, and the three observers are its prefixes —
    /// add a step here rather than a fourth observer:
    /// 1. record the dwell — all a side channel does ([`Self::observe_read`]);
    /// 2. advance the pipeline's newest origin, which `staleness_ms` reads —
    ///    where a borrowed record stops ([`Self::observe_last_hop`]);
    /// 3. restamp the record (this method, which needs `&mut Record`).
    pub fn observe_hop(
        &self,
        pipeline: &str,
        stage: &str,
        record: &mut Record,
        now: Timestamp,
    ) -> i64 {
        let dwell = self.observe_last_hop(pipeline, stage, record, now);
        record.headers.set_i64(headers::TRACE_TIMESTAMP, now);
        dwell
    }

    /// Steps 1 and 2 of [`Self::observe_hop`]: no restamp, for the stage
    /// after which no hop reads the stamp again (OLAP ingestion works from
    /// the log's shared records and would have to copy one to restamp it).
    pub fn observe_last_hop(
        &self,
        pipeline: &str,
        stage: &str,
        record: &Record,
        now: Timestamp,
    ) -> i64 {
        let dwell = self.observe_read(pipeline, stage, record, now);
        let origin = Self::app_ts_of(record);
        let mut inner = self.inner.write();
        if let Some(data) = inner.get_mut(pipeline) {
            data.last_origin_ts = Some(data.last_origin_ts.map_or(origin, |t| t.max(origin)));
        }
        dwell
    }

    /// Step 1 of [`Self::observe_hop`] alone, for observers off the main
    /// path (e.g. the consumer proxy dispatching borrowed records). The
    /// next hop will re-measure from the same stamp and the pipeline's
    /// staleness does not move, so use this only for side channels.
    pub fn observe_read(
        &self,
        pipeline: &str,
        stage: &str,
        record: &Record,
        now: Timestamp,
    ) -> i64 {
        let dwell = now - Self::origin_of(record);
        self.record_dwell(pipeline, stage, dwell);
        dwell.max(0)
    }

    /// Record origin-to-now freshness under [`END_TO_END`] — call at the
    /// point where the record becomes visible to consumers (OLAP segment,
    /// KV store, sink topic).
    pub fn record_total(&self, pipeline: &str, record: &Record, now: Timestamp) -> i64 {
        let total = now - Self::app_ts_of(record);
        self.record_dwell(pipeline, END_TO_END, total);
        total.max(0)
    }

    /// How stale the pipeline's newest data is at `now`.
    pub fn staleness_ms(&self, pipeline: &str, now: Timestamp) -> Option<i64> {
        self.inner
            .read()
            .get(pipeline)?
            .last_origin_ts
            .map(|t| (now - t).max(0))
    }

    /// Record query-time staleness under [`SQL_QUERY_STAGE`]; the SQL
    /// broker calls this per query per referenced pipeline.
    pub fn note_query(&self, pipeline: &str, now: Timestamp) -> Option<i64> {
        let staleness = self.staleness_ms(pipeline, now)?;
        self.record_dwell(pipeline, SQL_QUERY_STAGE, staleness);
        Some(staleness)
    }

    pub fn pipelines(&self) -> Vec<String> {
        self.inner.read().keys().cloned().collect()
    }

    pub fn report(&self) -> TraceReport {
        let inner = self.inner.read();
        let mut stages = Vec::new();
        for (pipeline, data) in inner.iter() {
            for (stage, h) in &data.stages {
                stages.push(StageDwell {
                    pipeline: pipeline.clone(),
                    stage: stage.clone(),
                    count: h.count(),
                    mean_ms: h.mean(),
                    p50_ms: h.quantile(0.5),
                    p99_ms: h.quantile(0.99),
                    max_ms: h.max(),
                });
            }
        }
        TraceReport { stages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Row;

    fn stamped(ts: Timestamp) -> Record {
        let mut r = Record::new(Row::new(), ts);
        PipelineTracer::stamp(&mut r, ts);
        r
    }

    #[test]
    fn hop_dwells_sum_to_end_to_end() {
        let tr = PipelineTracer::new();
        let mut r = stamped(1_000);
        assert_eq!(tr.observe_hop("p", "stream", &mut r, 1_010), 10);
        assert_eq!(tr.observe_hop("p", "compute", &mut r, 1_250), 240);
        assert_eq!(tr.observe_hop("p", "olap", &mut r, 1_300), 50);
        assert_eq!(tr.record_total("p", &r, 1_300), 300);
        let report = tr.report();
        assert_eq!(
            report.sum_of_hop_means_ms("p"),
            report.stage("p", END_TO_END).unwrap().mean_ms
        );
        // hop order preserved, not alphabetical
        let names: Vec<&str> = report
            .pipeline("p")
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(names, vec!["stream", "compute", "olap", END_TO_END]);
    }

    #[test]
    fn staleness_tracks_newest_origin() {
        let tr = PipelineTracer::new();
        assert_eq!(tr.staleness_ms("p", 99), None);
        let mut a = stamped(1_000);
        let mut b = stamped(4_000);
        tr.observe_hop("p", "stream", &mut a, 1_001);
        tr.observe_hop("p", "stream", &mut b, 4_001);
        assert_eq!(tr.staleness_ms("p", 5_000), Some(1_000));
        assert_eq!(tr.note_query("p", 5_000), Some(1_000));
        assert_eq!(tr.report().stage("p", SQL_QUERY_STAGE).unwrap().count, 1);
    }

    #[test]
    fn unstamped_records_fall_back_to_event_time() {
        let tr = PipelineTracer::new();
        let mut r = Record::new(Row::new(), 500);
        assert_eq!(tr.observe_hop("p", "s", &mut r, 600), 100);
        // hop restamped: the next hop measures only its own dwell
        assert_eq!(tr.observe_hop("p", "s2", &mut r, 650), 50);
    }

    #[test]
    fn clock_skew_clamps_to_zero() {
        let tr = PipelineTracer::new();
        let mut r = stamped(1_000);
        assert_eq!(tr.observe_hop("p", "s", &mut r, 900), 0);
        assert_eq!(tr.report().stage("p", "s").unwrap().max_ms, 0);
    }

    #[test]
    fn clones_share_state() {
        let tr = PipelineTracer::new();
        let tr2 = tr.clone();
        tr.record_dwell("p", "s", 5);
        assert_eq!(tr2.report().stage("p", "s").unwrap().count, 1);
    }
}
