//! Chaperone: end-to-end auditing (§4.1.4).
//!
//! "Chaperone collects key statistics like the number of unique messages
//! in a tumbling time window from every stage of the replication pipeline.
//! The auditing service compares the collected statistics and generates
//! alerts when mismatch is detected."
//!
//! Every stage of a pipeline (regional Kafka, aggregate Kafka, Flink sink,
//! Pinot ingestion...) reports each message's unique id and event time to
//! a [`Chaperone`] collector; [`Chaperone::audit`] compares any two stages
//! window by window and emits loss/duplicate alerts. A component on the
//! record path resolves its stage once ([`Chaperone::stage`]) and reports
//! through the handle.

use parking_lot::{Mutex, RwLock};
use rtdi_common::metrics::Histogram;
use rtdi_common::trace::PipelineTracer;
use rtdi_common::{Record, Timestamp, UniqueId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Per-(stage, window) statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Total messages observed (duplicates and anonymous ones included).
    pub count: u64,
    /// Distinct unique-ids observed.
    pub unique: u64,
    /// Messages without an id, each taken for a message of its own: they
    /// weigh in the loss comparison, never in duplication.
    pub anonymous: u64,
}

/// One detected mismatch between two stages in one window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditAlert {
    pub window_start: Timestamp,
    pub from_stage: String,
    pub to_stage: String,
    pub kind: AlertKind,
    /// How many messages the mismatch involves.
    pub magnitude: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Downstream saw fewer unique messages than upstream.
    Loss,
    /// Downstream saw some message more than once.
    Duplication,
}

#[derive(Default)]
struct Window {
    /// id -> occurrences
    ids: HashMap<UniqueId, u32>,
    anonymous: u64,
}

#[derive(Default)]
struct StageData {
    /// window start -> what the window saw
    windows: Mutex<BTreeMap<Timestamp, Window>>,
    /// Freshness at this stage: observation time minus the record's
    /// producer origin stamp, in milliseconds. Only populated by
    /// `observe_at` (plain `observe` has no wall clock).
    freshness: Histogram,
}

/// Freshness percentiles of one stage, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageFreshness {
    pub count: u64,
    pub p50_ms: u64,
    pub p99_ms: u64,
    pub max_ms: u64,
}

/// The audit collector.
#[derive(Clone)]
pub struct Chaperone {
    window_ms: i64,
    stages: Arc<RwLock<BTreeMap<String, Arc<StageData>>>>,
}

/// One stage of the collector, resolved once: observing a record through
/// it takes the stage's own lock and copies no name and no id text.
#[derive(Clone)]
pub struct ChaperoneStage {
    window_ms: i64,
    data: Arc<StageData>,
}

impl ChaperoneStage {
    /// Report one message's passage through the stage, windowed by its
    /// event time. One without a unique id is counted, not deduplicated.
    pub fn observe(&self, record: &Record) {
        self.count(record.audit().unique_id.as_ref(), record.timestamp);
    }

    /// Like [`observe`](Self::observe), but with the observer's clock:
    /// also records the record's freshness (now minus its producer origin
    /// stamp) so audits carry per-stage freshness percentiles alongside
    /// counts. Windowing still uses the record's event time so upstream
    /// and downstream observations of the same message land in the same
    /// audit window regardless of when each stage saw it.
    pub fn observe_at(&self, record: &Record, now: Timestamp) {
        self.observe(record);
        let dwell = (now - PipelineTracer::app_ts_of(record)).max(0);
        self.data.freshness.record(dwell as u64);
    }

    fn count(&self, id: Option<&UniqueId>, ts: Timestamp) {
        let start = ts.div_euclid(self.window_ms) * self.window_ms;
        let mut windows = self.data.windows.lock();
        let window = windows.entry(start).or_default();
        match id {
            None => window.anonymous += 1,
            Some(id) => *window.ids.entry(id.clone()).or_insert(0) += 1,
        }
    }
}

impl Chaperone {
    pub fn new(window_ms: i64) -> Self {
        Chaperone {
            window_ms: window_ms.max(1),
            stages: Arc::new(RwLock::new(BTreeMap::new())),
        }
    }

    /// Resolve (creating on first use) a stage's handle.
    pub fn stage(&self, name: &str) -> ChaperoneStage {
        let known = self.stages.read().get(name).cloned();
        let data = known.unwrap_or_else(|| {
            let mut stages = self.stages.write();
            stages.entry(name.to_string()).or_default().clone()
        });
        ChaperoneStage {
            window_ms: self.window_ms,
            data,
        }
    }

    /// [`ChaperoneStage::observe`] for a caller without a handle.
    pub fn observe(&self, stage: &str, record: &Record) {
        self.stage(stage).observe(record);
    }

    /// Lower-level variant for stages that only have ids.
    pub fn observe_id(&self, stage: &str, unique_id: &str, ts: Timestamp) {
        let id = UniqueId::Text(unique_id.into());
        self.stage(stage).count(Some(&id), ts);
    }

    /// Freshness percentiles for a stage; `None` if the stage has never
    /// been observed with a clock.
    pub fn freshness(&self, stage: &str) -> Option<StageFreshness> {
        let stages = self.stages.read();
        let h = &stages.get(stage)?.freshness;
        if h.count() == 0 {
            return None;
        }
        Some(StageFreshness {
            count: h.count(),
            p50_ms: h.quantile(0.5),
            p99_ms: h.quantile(0.99),
            max_ms: h.max(),
        })
    }

    /// Every stage that has reported at least one observation.
    pub fn stage_names(&self) -> Vec<String> {
        let stages = self.stages.read();
        let observed = stages.iter().filter(|(_, d)| !d.windows.lock().is_empty());
        observed.map(|(name, _)| name.clone()).collect()
    }

    fn tallies(&self, stage: &str) -> BTreeMap<Timestamp, WindowStats> {
        let Some(data) = self.stages.read().get(stage).cloned() else {
            return BTreeMap::new();
        };
        let tally = |w: &Window| WindowStats {
            count: w.ids.values().map(|&c| c as u64).sum::<u64>() + w.anonymous,
            unique: w.ids.len() as u64,
            anonymous: w.anonymous,
        };
        let windows = data.windows.lock();
        windows.iter().map(|(&at, w)| (at, tally(w))).collect()
    }

    /// Statistics for one stage/window.
    pub fn stats(&self, stage: &str, window_start: Timestamp) -> WindowStats {
        self.tallies(stage)
            .remove(&window_start)
            .unwrap_or_default()
    }

    /// Compare two stages across every window either has seen; emit alerts
    /// for loss (downstream saw fewer distinct messages than upstream) and
    /// duplication (downstream saw some id more than once).
    pub fn audit(&self, upstream: &str, downstream: &str) -> Vec<AuditAlert> {
        let up = self.tallies(upstream);
        let down = self.tallies(downstream);
        let windows: BTreeSet<Timestamp> = up.keys().chain(down.keys()).copied().collect();
        let mut alerts = Vec::new();
        let mut alert = |window_start, kind, magnitude| {
            alerts.push(AuditAlert {
                window_start,
                from_stage: upstream.to_string(),
                to_stage: downstream.to_string(),
                kind,
                magnitude,
            })
        };
        for w in windows {
            let u = up.get(&w).cloned().unwrap_or_default();
            let d = down.get(&w).cloned().unwrap_or_default();
            let (u_distinct, d_distinct) = (u.unique + u.anonymous, d.unique + d.anonymous);
            if d_distinct < u_distinct {
                alert(w, AlertKind::Loss, u_distinct - d_distinct);
            }
            if d.count > d_distinct {
                alert(w, AlertKind::Duplication, d.count - d_distinct);
            }
        }
        alerts
    }

    /// Exactly-once certification: no loss and no duplication between two
    /// stages (the §2 "ability to certify data quality" requirement).
    pub fn certify(&self, upstream: &str, downstream: &str) -> bool {
        self.audit(upstream, downstream).is_empty()
    }

    /// Audit a whole pipeline — each consecutive pair of stages in order
    /// (stream -> compute -> OLAP) — and return every alert found.
    pub fn audit_chain(&self, stages: &[&str]) -> Vec<AuditAlert> {
        stages
            .windows(2)
            .flat_map(|pair| self.audit(pair[0], pair[1]))
            .collect()
    }

    /// Total messages lost and duplicated between two stages, summed over
    /// every audit window — the counters a health snapshot wants.
    pub fn loss_and_duplication(&self, upstream: &str, downstream: &str) -> (u64, u64) {
        let mut lost = 0;
        let mut duplicated = 0;
        for alert in self.audit(upstream, downstream) {
            match alert.kind {
                AlertKind::Loss => lost += alert.magnitude,
                AlertKind::Duplication => duplicated += alert.magnitude,
            }
        }
        (lost, duplicated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;

    fn rec(id: &str, ts: Timestamp) -> Record {
        Record::new(Row::new(), ts).with_unique_id(id)
    }

    #[test]
    fn clean_pipeline_certifies() {
        let ch = Chaperone::new(1000);
        for i in 0..100 {
            let r = rec(&format!("m{i}"), i * 50);
            ch.observe("regional", &r);
            ch.observe("aggregate", &r);
        }
        assert!(ch.certify("regional", "aggregate"));
        assert_eq!(ch.stats("regional", 0).unique, 20); // 20 msgs per 1s window
    }

    #[test]
    fn loss_detected_in_the_right_window() {
        let ch = Chaperone::new(1000);
        for i in 0..100 {
            let r = rec(&format!("m{i}"), i * 50);
            ch.observe("regional", &r);
            // drop messages 40..45 (window starting at 2000)
            if !(40..45).contains(&i) {
                ch.observe("aggregate", &r);
            }
        }
        let alerts = ch.audit("regional", "aggregate");
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Loss);
        assert_eq!(alerts[0].magnitude, 5);
        assert_eq!(alerts[0].window_start, 2000);
        assert!(!ch.certify("regional", "aggregate"));
    }

    #[test]
    fn duplication_detected() {
        let ch = Chaperone::new(1000);
        for i in 0..10 {
            let r = rec(&format!("m{i}"), i);
            ch.observe("a", &r);
            ch.observe("b", &r);
        }
        // replay two messages downstream
        ch.observe("b", &rec("m3", 3));
        ch.observe("b", &rec("m3", 3));
        ch.observe("b", &rec("m7", 7));
        let alerts = ch.audit("a", "b");
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Duplication);
        assert_eq!(alerts[0].magnitude, 3);
    }

    #[test]
    fn missing_stage_counts_as_total_loss() {
        let ch = Chaperone::new(1000);
        for i in 0..5 {
            ch.observe("a", &rec(&format!("m{i}"), 0));
        }
        let alerts = ch.audit("a", "never-reported");
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].magnitude, 5);
    }

    #[test]
    fn anonymous_records_count_towards_loss_never_duplication() {
        let ch = Chaperone::new(1000);
        // two undecorated records of one event millisecond are two messages
        let anon = Record::new(Row::new(), 5);
        for stage in ["a", "b", "c"] {
            ch.observe(stage, &anon);
        }
        ch.observe("a", &anon);
        ch.observe("b", &anon);
        let stats = ch.stats("a", 0);
        assert_eq!((stats.count, stats.unique, stats.anonymous), (2, 0, 2));
        assert!(ch.certify("a", "b"), "same-ms twins are not duplicates");
        let alerts = ch.audit("a", "c");
        assert_eq!(alerts.len(), 1, "the twin that never arrived is a loss");
        assert_eq!((alerts[0].kind, alerts[0].magnitude), (AlertKind::Loss, 1));
    }

    #[test]
    fn minted_and_text_ids_key_the_same_windows() {
        let ch = Chaperone::new(1000);
        let stage = ch.stage("a");
        for seq in [0, 1, 1] {
            let mut r = Record::new(Row::new(), 7);
            r.audit_mut().unique_id = Some(UniqueId::Seq {
                origin: "svc#0".into(),
                seq,
            });
            stage.observe(&r);
        }
        stage.observe(&rec("m1", 7));
        let stats = ch.stats("a", 0);
        assert_eq!((stats.count, stats.unique), (4, 3));
        assert!(ch.stage_names().contains(&"a".to_string()));
        // a stage resolved but never fed is not reported
        ch.stage("idle");
        assert!(!ch.stage_names().contains(&"idle".to_string()));
    }

    #[test]
    fn negative_timestamps_window_correctly() {
        let ch = Chaperone::new(1000);
        ch.observe_id("a", "x", -1);
        assert_eq!(ch.stats("a", -1000).unique, 1);
    }

    #[test]
    fn observe_at_records_freshness_percentiles() {
        let ch = Chaperone::new(1000);
        for i in 0..10i64 {
            let mut r = rec(&format!("m{i}"), i);
            r.audit_mut().app_ts = Some(i);
            // observed 100ms after its origin stamp
            ch.stage("kafka").observe_at(&r, i + 100);
        }
        let f = ch.freshness("kafka").unwrap();
        assert_eq!(f.count, 10);
        assert!(f.p50_ms >= 100 && f.p50_ms <= 128, "p50={}", f.p50_ms);
        assert!(f.max_ms == 100);
        // a stage observed without a clock has no freshness data
        ch.observe("clockless", &rec("x", 0));
        assert!(ch.freshness("clockless").is_none());
        assert!(ch.stage_names().contains(&"kafka".to_string()));
    }

    #[test]
    fn chain_audit_covers_every_consecutive_pair() {
        let ch = Chaperone::new(1000);
        for i in 0..20 {
            let r = rec(&format!("m{i}"), i);
            ch.observe("stream", &r);
            ch.observe("compute", &r);
            // OLAP loses 3 messages
            if i >= 3 {
                ch.observe("olap", &r);
            }
        }
        assert!(ch.audit_chain(&["stream", "compute"]).is_empty());
        let alerts = ch.audit_chain(&["stream", "compute", "olap"]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].from_stage, "compute");
        let (lost, duplicated) = ch.loss_and_duplication("compute", "olap");
        assert_eq!((lost, duplicated), (3, 0));
        // duplication counted separately
        ch.observe("olap", &rec("m5", 5));
        let (_, duplicated) = ch.loss_and_duplication("compute", "olap");
        assert_eq!(duplicated, 1);
    }
}
