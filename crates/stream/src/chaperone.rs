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

/// Sequence numbers one bit chunk covers.
const CHUNK_SEQS: u64 = 512;
type Chunk = [u64; (CHUNK_SEQS / 64) as usize];

/// The sequence numbers of one origin's ids in one window, a bit each in
/// fixed-size chunks: a run of consecutive sends stays in the chunk touched
/// last and costs a bit per id, and a chunk exists only where a number
/// fell, so sparse numbers cost O(ids), not O(range).
#[derive(Default)]
struct SeqSet {
    chunks: Vec<Chunk>,
    /// chunk number (`seq / CHUNK_SEQS`) -> slot in `chunks`
    slots: HashMap<u64, usize>,
    /// Chunk number and slot touched last.
    last: Option<(u64, usize)>,
    /// Distinct numbers seen, and sightings of a number already seen.
    unique: u64,
    repeats: u64,
}

impl SeqSet {
    fn insert(&mut self, seq: u64) {
        let number = seq / CHUNK_SEQS;
        let slot = match self.last {
            Some((last, slot)) if last == number => slot,
            _ => {
                let chunks = &mut self.chunks;
                let slot = *self.slots.entry(number).or_insert_with(|| {
                    chunks.push(Chunk::default());
                    chunks.len() - 1
                });
                self.last = Some((number, slot));
                slot
            }
        };
        let bit = seq % CHUNK_SEQS;
        let word = &mut self.chunks[slot][(bit / 64) as usize];
        let mask = 1u64 << (bit % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.unique += 1;
        } else {
            self.repeats += 1;
        }
    }
}

/// What one window of one stage saw. The two kinds of id are kept apart
/// (a text that spells an origin's `"{origin}-{seq}"` is still another
/// id), and [`Window::tally`] adds them up to what one map of ids gave.
#[derive(Default)]
struct Window {
    /// caller-supplied id -> occurrences
    texts: HashMap<Arc<str>, u32>,
    /// Producer-minted ids: each origin's sequence numbers.
    origins: Vec<(Arc<str>, SeqSet)>,
    /// origin name -> slot in `origins`, for an id whose origin is not the
    /// one used last: an observation is not linear in the origins
    by_name: HashMap<Arc<str>, usize>,
    /// Slot in `origins` used last.
    last_origin: usize,
    anonymous: u64,
}

impl Window {
    fn count(&mut self, id: Option<&UniqueId>) {
        match id {
            None => self.anonymous += 1,
            Some(UniqueId::Text(text)) => *self.texts.entry(text.clone()).or_insert(0) += 1,
            Some(UniqueId::Seq { origin, seq }) => {
                let slot = match self.origins.get(self.last_origin) {
                    Some((last, _)) if Arc::ptr_eq(last, origin) => self.last_origin,
                    _ => match self.by_name.get(&**origin) {
                        Some(&slot) => slot,
                        None => {
                            self.origins.push((origin.clone(), SeqSet::default()));
                            self.by_name.insert(origin.clone(), self.origins.len() - 1);
                            self.origins.len() - 1
                        }
                    },
                };
                self.last_origin = slot;
                self.origins[slot].1.insert(*seq);
            }
        }
    }

    fn tally(&self) -> WindowStats {
        let seqs = self.origins.iter().map(|(_, set)| set);
        let texts: u64 = self.texts.values().map(|&c| c as u64).sum();
        let minted: u64 = seqs.clone().map(|set| set.unique + set.repeats).sum();
        WindowStats {
            count: texts + minted + self.anonymous,
            unique: self.texts.len() as u64 + seqs.map(|set| set.unique).sum::<u64>(),
            anonymous: self.anonymous,
        }
    }
}

/// window start -> what the window saw
type StageData = Mutex<BTreeMap<Timestamp, Window>>;

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
        self.count([id_and_time(record)]);
    }

    /// Report a batch under one hold of the stage's lock, each record as
    /// [`observe`](Self::observe) does. How fresh a record is, is the
    /// tracer's to measure; the Chaperone counts.
    pub fn observe_batch<'a>(&self, records: impl IntoIterator<Item = &'a Record>) {
        self.count(records.into_iter().map(id_and_time));
    }

    /// The one counting function: takes the lock once and keeps the
    /// current window while event time stays inside it.
    fn count<'a>(&self, ids: impl IntoIterator<Item = (Option<&'a UniqueId>, Timestamp)>) {
        let mut ids = ids.into_iter().peekable();
        let mut windows = self.data.lock();
        while let Some((id, ts)) = ids.next() {
            let start = ts.div_euclid(self.window_ms) * self.window_ms;
            let inside = |ts: Timestamp| {
                let since = ts.checked_sub(start);
                since.is_some_and(|ms| (0..self.window_ms).contains(&ms))
            };
            let window = windows.entry(start).or_default();
            window.count(id);
            while let Some((id, _)) = ids.next_if(|&(_, ts)| inside(ts)) {
                window.count(id);
            }
        }
    }
}

fn id_and_time(record: &Record) -> (Option<&UniqueId>, Timestamp) {
    (record.audit().unique_id.as_ref(), record.timestamp)
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
        self.stage(stage).count([(Some(&id), ts)]);
    }

    /// Every stage that has reported at least one observation.
    pub fn stage_names(&self) -> Vec<String> {
        let stages = self.stages.read();
        let observed = stages.iter().filter(|(_, d)| !d.lock().is_empty());
        observed.map(|(name, _)| name.clone()).collect()
    }

    fn tallies(&self, stage: &str) -> BTreeMap<Timestamp, WindowStats> {
        let Some(data) = self.stages.read().get(stage).cloned() else {
            return BTreeMap::new();
        };
        let windows = data.lock();
        windows.iter().map(|(&at, w)| (at, w.tally())).collect()
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

    /// The id sets against a plain map of ids: streams of minted ids from
    /// 1, 3 and 1000 origins (dense runs, numbers ahead of their turn, gaps
    /// of 2^40, replays), text ids (some spelling a minted id's text form,
    /// which stays another id), anonymous records and negative event times,
    /// fed through both observers in drawn chunk sizes; the downstream
    /// stage sees the stream with drops and repeats.
    #[test]
    fn tallies_equal_a_plain_map_of_ids() {
        use rtdi_common::chaos::SplitMix64;
        /// window start -> (id -> occurrences, anonymous records)
        type Model = BTreeMap<Timestamp, (HashMap<(u8, String), u32>, u64)>;
        let tallies_of = |stream: &[Record]| -> BTreeMap<Timestamp, WindowStats> {
            let mut model = Model::new();
            for r in stream {
                let window = model.entry(r.timestamp.div_euclid(1000) * 1000);
                let (ids, anonymous) = window.or_default();
                match &r.audit().unique_id {
                    None => *anonymous += 1,
                    Some(id) => {
                        let variant = matches!(id, UniqueId::Text(_)) as u8;
                        *ids.entry((variant, id.to_string())).or_insert(0) += 1
                    }
                }
            }
            let stats = |(ids, anonymous): &(HashMap<_, u32>, u64)| WindowStats {
                count: ids.values().map(|&c| c as u64).sum::<u64>() + anonymous,
                unique: ids.len() as u64,
                anonymous: *anonymous,
            };
            model.iter().map(|(&at, w)| (at, stats(w))).collect()
        };
        for (case, origins) in [1usize, 3, 1000].into_iter().enumerate() {
            let mut rng = SplitMix64::new(0xC4A9E + case as u64);
            let mut draw = |n: u64| rng.next_u64() % n;
            let names: Vec<Arc<str>> = (0..origins).map(|o| format!("svc#{o}").into()).collect();
            let mut next_seq = vec![0u64; origins];
            let mut ts = 0i64;
            let mut upstream = Vec::new();
            for _ in 0..6000 {
                ts = match draw(10) {
                    0..=1 => draw(8000) as i64 - 3000,
                    _ => ts + draw(3) as i64,
                };
                let o = draw(origins as u64) as usize;
                let next = &mut next_seq[o];
                let seq = match draw(100) {
                    0..=4 => None,
                    5..=9 => Some(Err(format!("t{}", draw(200)))),
                    10..=14 => Some(Err(format!("{}-{}", names[o], draw(50)))),
                    15..=24 => Some(Ok(draw(*next + 1))),
                    25..=34 => Some(Ok(*next + 1 + draw(5))),
                    35..=39 => {
                        *next += 1 << 40;
                        Some(Ok(*next))
                    }
                    _ => {
                        *next += 1;
                        Some(Ok(*next - 1))
                    }
                };
                let mut record = Record::new(Row::new(), ts);
                record.audit_mut().unique_id = seq.map(|seq| match seq {
                    Err(text) => UniqueId::Text(text.into()),
                    // an origin is its name, under whichever pointer
                    Ok(seq) => UniqueId::Seq {
                        origin: match draw(4) {
                            0 => Arc::from(&*names[o]),
                            _ => names[o].clone(),
                        },
                        seq,
                    },
                });
                upstream.push(record);
            }
            let downstream: Vec<Record> = upstream
                .iter()
                .flat_map(|r| vec![r.clone(); [1, 1, 1, 1, 0, 2][draw(6) as usize]])
                .collect();

            let ch = Chaperone::new(1000);
            for (stage, stream) in [("up", &upstream), ("down", &downstream)] {
                let handle = ch.stage(stage);
                let mut left = &stream[..];
                while !left.is_empty() {
                    let (chunk, rest) = left.split_at(left.len().min(1 + draw(64) as usize));
                    left = rest;
                    match draw(2) {
                        0 => chunk.iter().for_each(|r| handle.observe(r)),
                        _ => handle.observe_batch(chunk),
                    }
                }
                let expected = tallies_of(stream);
                assert_eq!(ch.tallies(stage), expected, "{origins} origins, {stage}");
                for (&at, stats) in &expected {
                    assert_eq!(&ch.stats(stage, at), stats);
                }
                // a number costs at most the chunk it falls in, however far
                // it lies from the one before
                for window in handle.data.lock().values() {
                    for (origin, set) in &window.origins {
                        assert!(set.chunks.len() as u64 <= set.unique, "{origin}");
                    }
                }
            }
            let (up, down) = (tallies_of(&upstream), tallies_of(&downstream));
            let mut expected = Vec::new();
            for (&at, u) in &up {
                let d = down.get(&at).cloned().unwrap_or_default();
                let (sent, arrived) = (u.unique + u.anonymous, d.unique + d.anonymous);
                if arrived < sent {
                    expected.push((at, AlertKind::Loss, sent - arrived));
                }
                if d.count > arrived {
                    expected.push((at, AlertKind::Duplication, d.count - arrived));
                }
            }
            let alerts = ch.audit("up", "down");
            let found = alerts.iter().map(|a| (a.window_start, a.kind, a.magnitude));
            assert_eq!(found.collect::<Vec<_>>(), expected, "{origins} origins");
            let total = |kind| expected.iter().filter(|a| a.1 == kind).map(|a| a.2).sum();
            let totals: (u64, u64) = (total(AlertKind::Loss), total(AlertKind::Duplication));
            assert_eq!(ch.loss_and_duplication("up", "down"), totals);
            assert!(totals.0 > 0 && totals.1 > 0, "{totals:?}");
        }
    }

    #[test]
    fn negative_timestamps_window_correctly() {
        let ch = Chaperone::new(1000);
        ch.observe_id("a", "x", -1);
        assert_eq!(ch.stats("a", -1000).unique, 1);
    }

    #[test]
    fn loss_and_duplication_are_counted_apart() {
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
        assert!(ch.audit("stream", "compute").is_empty());
        let alerts = ch.audit("compute", "olap");
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
