//! Pipeline-wide freshness tracing.
//!
//! §5.1 demands "seconds-level" end-to-end freshness for pipelines like
//! surge pricing; §9.3 demands real-time monitoring of every component.
//! This module provides the plumbing both need: producers stamp an origin
//! timestamp into the record's envelope, every downstream hop (stream append,
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
use crate::record::Record;
use crate::time::Timestamp;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Stage name under which [`TraceStage::observe_visible`] reports the
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
    /// In the order the stages were first resolved.
    stages: Vec<(String, Arc<Histogram>)>,
    /// Newest origin (producer) timestamp seen — drives staleness.
    /// `i64::MIN` until a hop advances it.
    newest_origin: Arc<AtomicI64>,
}

impl PipelineData {
    /// Has some stage recorded a dwell?
    fn fed(&self) -> bool {
        self.stages.iter().any(|(_, h)| h.count() > 0)
    }

    fn sql_stage(&self) -> Option<&Histogram> {
        let stage = self.stages.iter().find(|(n, _)| n == SQL_QUERY_STAGE);
        stage.map(|(_, h)| &**h)
    }

    fn staleness_ms(&self, now: Timestamp) -> Option<i64> {
        let newest = self.newest_origin.load(Ordering::Relaxed);
        (newest != i64::MIN).then(|| now.saturating_sub(newest).max(0))
    }
}

/// Shared, cheap-to-clone tracer. All clones write into the same
/// histograms, so the producer, broker, ingester and broker-side SQL can
/// each hold one without coordination.
#[derive(Clone, Default)]
pub struct PipelineTracer {
    inner: Arc<RwLock<BTreeMap<String, PipelineData>>>,
}

/// One stage of one pipeline, resolved once by [`PipelineTracer::stage`]:
/// a component on the record path holds it and observes each record with
/// no lookup, lock or name copy.
#[derive(Clone)]
pub struct TraceStage {
    hist: Arc<Histogram>,
    newest_origin: Arc<AtomicI64>,
}

impl TraceStage {
    /// Record a raw dwell (negative values clamp to zero — clock skew must
    /// not corrupt the histogram).
    pub fn record_dwell(&self, dwell_ms: i64) {
        self.hist.record(dwell_ms.max(0) as u64);
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
    pub fn observe_hop(&self, record: &mut Record, now: Timestamp) -> i64 {
        let dwell = self.observe_last_hop(record, now);
        record.set_trace_ts(Some(now));
        dwell
    }

    /// Steps 1 and 2 of [`Self::observe_hop`]: no restamp, for a stage that
    /// works from the log's shared records and would have to copy one to
    /// restamp it (the broker append of a record stamped at this very
    /// `now`, OLAP ingestion after which no hop reads the stamp again).
    pub fn observe_last_hop(&self, record: &Record, now: Timestamp) -> i64 {
        let dwell = self.observe_read(record, now);
        self.advance_origin(PipelineTracer::app_ts_of(record));
        dwell
    }

    /// [`Self::observe_last_hop`] of every record of a batch, and on
    /// `total` each one's origin-to-now freshness: the records became
    /// visible here.
    /// Each histogram is updated once per run of equal dwells and the
    /// pipeline's newest origin once per batch.
    pub fn observe_visible<'a>(
        &self,
        total: &TraceStage,
        records: impl IntoIterator<Item = (&'a Record, Timestamp)>,
    ) {
        let (mut hops, mut totals) = (self.hist.runs(), total.hist.runs());
        let mut newest = i64::MIN;
        for (record, now) in records {
            let origin = PipelineTracer::app_ts_of(record);
            hops.record(now.saturating_sub(PipelineTracer::origin_of(record)).max(0) as u64);
            totals.record(now.saturating_sub(origin).max(0) as u64);
            newest = newest.max(origin);
        }
        self.advance_origin(newest);
    }

    /// Raise the pipeline's newest origin to `origin`: a load, and a
    /// read-modify-write only when it does rise.
    fn advance_origin(&self, origin: Timestamp) {
        if origin > self.newest_origin.load(Ordering::Relaxed) {
            self.newest_origin.fetch_max(origin, Ordering::Relaxed);
        }
    }

    /// Step 1 of [`Self::observe_hop`] alone, for observers off the main
    /// path that only borrow the records they see. The next hop will re-measure from the same stamp and the pipeline's
    /// staleness does not move, so use this only for side channels.
    pub fn observe_read(&self, record: &Record, now: Timestamp) -> i64 {
        let dwell = now.saturating_sub(PipelineTracer::origin_of(record));
        self.record_dwell(dwell);
        dwell.max(0)
    }
}

impl PipelineTracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve (creating on first use) one stage of one pipeline.
    pub fn stage(&self, pipeline: &str, stage: &str) -> TraceStage {
        let mut inner = self.inner.write();
        let data = inner
            .entry(pipeline.to_string())
            .or_insert_with(|| PipelineData {
                stages: Vec::new(),
                newest_origin: Arc::new(AtomicI64::new(i64::MIN)),
            });
        let known = data.stages.iter().find(|(n, _)| n == stage);
        let hist = known.map(|(_, h)| h.clone()).unwrap_or_else(|| {
            let h = Arc::new(Histogram::default());
            data.stages.push((stage.to_string(), h.clone()));
            h
        });
        TraceStage {
            hist,
            newest_origin: data.newest_origin.clone(),
        }
    }

    /// The timestamp the *previous* hop stamped (origin for a fresh
    /// record): the trace stamp, else the producer's app timestamp, else
    /// the record's event time.
    pub fn origin_of(record: &Record) -> Timestamp {
        let stamp = record.trace_ts().or(record.app_ts());
        stamp.unwrap_or(record.timestamp)
    }

    /// The producer-side origin stamp (ignores intermediate hop stamps).
    pub fn app_ts_of(record: &Record) -> Timestamp {
        record.app_ts().unwrap_or(record.timestamp)
    }

    /// Stamp a record at its origin: sets the trace stamp, and the app
    /// timestamp too if the producer has not already done so.
    pub fn stamp(record: &mut Record, now: Timestamp) {
        record.set_app_ts(Some(record.app_ts().unwrap_or(now)));
        record.set_trace_ts(Some(now));
    }

    /// [`TraceStage::record_dwell`] for a caller without a handle.
    pub fn record_dwell(&self, pipeline: &str, stage: &str, dwell_ms: i64) {
        self.stage(pipeline, stage).record_dwell(dwell_ms);
    }

    /// How stale the pipeline's newest data is at `now`.
    pub fn staleness_ms(&self, pipeline: &str, now: Timestamp) -> Option<i64> {
        self.inner.read().get(pipeline)?.staleness_ms(now)
    }

    /// Record query-time staleness under [`SQL_QUERY_STAGE`]; the SQL
    /// broker calls this per query per referenced pipeline. Once the stage
    /// exists this takes the read lock only and copies no name.
    pub fn note_query(&self, pipeline: &str, now: Timestamp) -> Option<i64> {
        let staleness = {
            let inner = self.inner.read();
            let data = inner.get(pipeline)?;
            let staleness = data.staleness_ms(now)?;
            if let Some(h) = data.sql_stage() {
                h.record(staleness as u64);
                return Some(staleness);
            }
            staleness
        };
        self.record_dwell(pipeline, SQL_QUERY_STAGE, staleness);
        Some(staleness)
    }

    /// [`Self::note_query`] for every pipeline of [`Self::pipelines`]
    /// whose name the query text contains: one read lock, and no name
    /// copied once each pipeline's SQL stage exists.
    pub fn note_query_text(&self, query: &str, now: Timestamp) {
        let mut unresolved = Vec::new();
        {
            let inner = self.inner.read();
            for (name, data) in inner.iter() {
                if !data.fed() || !query.contains(name.as_str()) {
                    continue;
                }
                let Some(staleness) = data.staleness_ms(now) else {
                    continue;
                };
                match data.sql_stage() {
                    Some(h) => h.record(staleness as u64),
                    None => unresolved.push((name.clone(), staleness)),
                }
            }
        }
        for (name, staleness) in unresolved {
            self.record_dwell(&name, SQL_QUERY_STAGE, staleness);
        }
    }

    /// Pipelines with at least one stage that has recorded a dwell.
    pub fn pipelines(&self) -> Vec<String> {
        let inner = self.inner.read();
        let reported = inner.iter().filter(|(_, d)| d.fed());
        reported.map(|(name, _)| name.clone()).collect()
    }

    /// Every stage that has recorded a dwell (a stage resolved but never
    /// fed is not reported), hop order preserved within a pipeline.
    pub fn report(&self) -> TraceReport {
        let inner = self.inner.read();
        let mut stages = Vec::new();
        for (pipeline, data) in inner.iter() {
            for (stage, h) in data.stages.iter().filter(|(_, h)| h.count() > 0) {
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

    impl TraceStage {
        /// Record origin-to-now freshness — on the pipeline's [`END_TO_END`]
        /// stage, at the point where the record becomes visible to consumers
        /// (OLAP segment, KV store, sink topic).
        fn record_total(&self, record: &Record, now: Timestamp) -> i64 {
            let total = now.saturating_sub(PipelineTracer::app_ts_of(record));
            self.record_dwell(total);
            total.max(0)
        }
    }

    fn stamped(ts: Timestamp) -> Record {
        let mut r = Record::new(Row::new(), ts);
        PipelineTracer::stamp(&mut r, ts);
        r
    }

    #[test]
    fn hop_dwells_sum_to_end_to_end() {
        let tr = PipelineTracer::new();
        let mut r = stamped(1_000);
        tr.stage("p", "never-fed");
        assert_eq!(tr.stage("p", "stream").observe_hop(&mut r, 1_010), 10);
        assert_eq!(tr.stage("p", "compute").observe_hop(&mut r, 1_250), 240);
        assert_eq!(tr.stage("p", "olap").observe_hop(&mut r, 1_300), 50);
        assert_eq!(tr.stage("p", END_TO_END).record_total(&r, 1_300), 300);
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
        let stream = tr.stage("p", "stream");
        assert_eq!(tr.staleness_ms("p", 99), None, "resolved, nothing seen");
        assert!(tr.pipelines().is_empty());
        stream.observe_hop(&mut a, 1_001);
        stream.observe_hop(&mut b, 4_001);
        assert_eq!(tr.staleness_ms("p", 5_000), Some(1_000));
        assert_eq!(tr.note_query("p", 5_000), Some(1_000));
        assert_eq!(tr.report().stage("p", SQL_QUERY_STAGE).unwrap().count, 1);
    }

    #[test]
    fn query_text_notes_the_fed_pipelines_it_names() {
        let tr = PipelineTracer::new();
        let mut a = stamped(1_000);
        tr.stage("trips", "stream").observe_hop(&mut a, 1_001);
        let _resolved_never_fed = tr.stage("orders", "stream");
        // the first note makes the SQL stage, the second finds it
        for now in [3_000, 4_000] {
            tr.note_query_text("SELECT COUNT(*) FROM trips JOIN orders", now);
        }
        tr.note_query_text("SELECT COUNT(*) FROM drivers", 5_000);
        let report = tr.report();
        let sql = report.stage("trips", SQL_QUERY_STAGE).unwrap();
        assert_eq!((sql.count, sql.max_ms), (2, 3_000));
        assert!(report.stage("orders", SQL_QUERY_STAGE).is_none());
        assert_eq!(tr.note_query("trips", 6_000), Some(5_000));
        assert_eq!(
            tr.report().stage("trips", SQL_QUERY_STAGE).unwrap().count,
            3
        );
    }

    #[test]
    fn a_visible_batch_reads_as_its_records_one_by_one() {
        // runs of equal dwells, a restamped record, skew, unstamped ones
        let mut records: Vec<(Record, Timestamp)> = (0..40)
            .map(|i| (stamped(1_000 + i / 7 * 10), 1_100 + i % 3))
            .collect();
        records[5].0.set_trace_ts(Some(1_090));
        records[6].1 = 900;
        records.push((Record::new(Row::new(), 50), 80));
        let (batch, single) = (PipelineTracer::new(), PipelineTracer::new());
        let (hop, total) = (batch.stage("p", "olap"), batch.stage("p", END_TO_END));
        hop.observe_visible(&total, records.iter().map(|(r, now)| (r, *now)));
        let (hop, total) = (single.stage("p", "olap"), single.stage("p", END_TO_END));
        for (r, now) in &records {
            hop.observe_last_hop(r, *now);
            total.record_total(r, *now);
        }
        assert_eq!(batch.report(), single.report());
        assert_eq!(
            batch.staleness_ms("p", 2_000),
            single.staleness_ms("p", 2_000)
        );
        assert_eq!(batch.report().stage("p", "olap").unwrap().count, 41);
    }

    #[test]
    fn unstamped_records_fall_back_to_event_time() {
        let tr = PipelineTracer::new();
        let mut r = Record::new(Row::new(), 500);
        assert_eq!(tr.stage("p", "s").observe_hop(&mut r, 600), 100);
        // hop restamped: the next hop measures only its own dwell
        assert_eq!(tr.stage("p", "s2").observe_hop(&mut r, 650), 50);
    }

    #[test]
    fn clock_skew_clamps_to_zero() {
        let tr = PipelineTracer::new();
        let mut r = stamped(1_000);
        assert_eq!(tr.stage("p", "s").observe_hop(&mut r, 900), 0);
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
