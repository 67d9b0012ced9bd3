//! Real-time ingestion from the streaming layer.
//!
//! §4.3: "records can be updated during the real-time ingestion into the
//! OLAP store"; §4.3.3: Pinot "integrates with Uber's schema service to
//! automatically infer the schema from the input Kafka topic". The
//! ingester consumes a topic partition-aligned into an [`OlapTable`] and
//! reports audit observations to Chaperone; the segments it seals wait in
//! [`OlapTable::take_unbacked`] for whoever archives them. It follows the
//! topic's [`TopicSubscription`] across a migration, and each partition
//! is read through its own [`PartitionCursor`]: committed records only,
//! advanced past the rows the table took (a refused row included), with
//! retention jumps counted in [`RealtimeIngester::skipped`].

use crate::scatter::{self, scatter};
use crate::table::OlapTable;
use rtdi_common::trace::END_TO_END;
use rtdi_common::{Clock, Error, PipelineTracer, Result, TraceStage};
use rtdi_stream::chaperone::{Chaperone, ChaperoneStage};
use rtdi_stream::consumer::TopicSubscription;
use rtdi_stream::topic::{PartitionCursor, Topic};
use std::sync::Arc;

/// Ingestion knobs.
#[derive(Debug, Clone)]
pub struct IngestionConfig {
    /// The fetch size: `run_once` drains each partition in fetches of at
    /// most this many records. A fetch goes in under one hold of its
    /// partition's lock, so this bounds how long a query of that partition
    /// waits. It is also the backlog that makes a partition count towards
    /// a parallel drain: at least this many committed records past its
    /// position.
    pub batch_size: usize,
    /// Name under which ingestion reports to Chaperone.
    pub audit_stage: String,
}

impl Default for IngestionConfig {
    fn default() -> Self {
        IngestionConfig {
            batch_size: 1024,
            audit_stage: "pinot-ingestion".into(),
        }
    }
}

/// Consumes a topic into a table.
pub struct RealtimeIngester {
    /// Resolved once per `run_once`: a migrated topic is read where it
    /// moved, from the same positions.
    subscription: TopicSubscription,
    table: Arc<OlapTable>,
    /// The `config.audit_stage` stage of the auditor, resolved once.
    chaperone: Option<ChaperoneStage>,
    /// The topic's pipeline: its `"olap-ingest"` hop and its end-to-end
    /// rollup, resolved once.
    trace: Option<(TraceStage, TraceStage)>,
    clock: Option<Arc<dyn Clock>>,
    config: IngestionConfig,
    cursors: Vec<PartitionCursor>,
    /// Rows the table took over every round, failed rounds included.
    ingested: u64,
}

impl RealtimeIngester {
    pub fn new(
        subscription: impl Into<TopicSubscription>,
        table: Arc<OlapTable>,
        config: IngestionConfig,
    ) -> Result<Self> {
        let subscription = subscription.into();
        let topic = subscription.topic();
        if topic.num_partitions() != table.config().partitions {
            return Err(Error::InvalidArgument(format!(
                "topic has {} partitions but table expects {} — upsert \
                 integrity requires alignment",
                topic.num_partitions(),
                table.config().partitions
            )));
        }
        Ok(RealtimeIngester {
            cursors: (0..topic.num_partitions())
                .map(|p| PartitionCursor::new(p, 0))
                .collect(),
            subscription,
            table,
            chaperone: None,
            trace: None,
            clock: None,
            config,
            ingested: 0,
        })
    }

    pub fn with_chaperone(mut self, ch: Chaperone) -> Self {
        self.chaperone = Some(ch.stage(&self.config.audit_stage));
        self
    }

    /// Record per-record ingestion freshness under the topic's pipeline:
    /// the `"olap-ingest"` hop plus the end-to-end rollup (record becomes
    /// queryable here).
    pub fn with_tracer(mut self, tracer: PipelineTracer) -> Self {
        let topic = self.subscription.topic();
        self.trace = Some((
            tracer.stage(topic.name(), "olap-ingest"),
            tracer.stage(topic.name(), END_TO_END),
        ));
        self
    }

    /// Clock used for dwell measurements; without one, observations fall
    /// back to each record's event time (zero-dwell in simulated setups).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// The next offset to consume, per partition.
    pub fn positions(&self) -> Vec<u64> {
        self.cursors.iter().map(|c| c.position).collect()
    }

    /// Rows the table took over every `run_once` so far, those of a round
    /// that returned an error included.
    pub fn records_ingested(&self) -> u64 {
        self.ingested
    }

    /// Records retention removed before they were ingested.
    pub fn skipped(&self) -> u64 {
        self.cursors.iter().map(|c| c.skipped).sum()
    }

    /// Ingest everything currently available. Returns records ingested;
    /// a round that stops on an error returns the error, and the rows it
    /// did ingest still count in [`Self::records_ingested`].
    ///
    /// Each partition drains to its log's end or to its own error; the
    /// error of the lowest-numbered partition that stopped short is
    /// returned. When at least two partitions each hold a full fetch
    /// between their position and the committed watermark, the drains run
    /// on `min(cores, those partitions)` workers, the caller among them;
    /// otherwise one after another on the calling thread. A partition's
    /// outcome is the same either way: its rows go in under its own lock.
    pub fn run_once(&mut self) -> Result<u64> {
        let topic = self.subscription.topic();
        let partitions = self.cursors.len();
        let batch = self.config.batch_size as u64;
        let backlogged = (self.cursors.iter())
            .filter(|c| {
                let committed = topic.committed_watermark(c.partition).unwrap_or(0);
                committed.saturating_sub(c.position) >= batch
            })
            .count();
        let mut total = 0;
        let mut first_error = None;
        let mut settle = |(ingested, error): (u64, Option<Error>)| {
            total += ingested;
            if let Some(e) = error {
                first_error.get_or_insert(e);
            }
        };
        let threads = scatter::effective_threads(0, backlogged);
        if threads > 1 {
            let drains = scatter(partitions, threads, |p| {
                Ok(self.drain(&topic, self.cursors[p]))
            });
            for (p, drain) in drains.into_iter().enumerate() {
                // a drain that panicked leaves its cursor where it was
                let (cursor, drained) = drain.unwrap_or_else(|e| (self.cursors[p], (0, Some(e))));
                self.cursors[p] = cursor;
                settle(drained);
            }
        } else {
            for p in 0..partitions {
                let (cursor, drained) = self.drain(&topic, self.cursors[p]);
                self.cursors[p] = cursor;
                settle(drained);
            }
        }
        self.ingested += total;
        first_error.map_or(Ok(total), Err)
    }

    /// Drain the cursor's partition in fetches of `batch_size`: each is
    /// ingested under one hold of the partition's lock, then audited and
    /// traced. Returns the cursor advanced past what the table took, the
    /// rows the table took, and the error that stopped the drain there.
    fn drain(
        &self,
        topic: &Topic,
        mut cursor: PartitionCursor,
    ) -> (PartitionCursor, (u64, Option<Error>)) {
        let mut total = 0;
        loop {
            let fetch = match cursor.fetch(topic, self.config.batch_size) {
                Ok(records) if records.is_empty() => return (cursor, (total, None)),
                Ok(records) => records,
                Err(e) => return (cursor, (total, Some(e))),
            };
            // the log shares its records: append and observe from the
            // borrow, copying nothing. Event time is queryable under the
            // table's time column.
            let rows = fetch.iter();
            let rows = rows.map(|r| (&r.record.value, Some(r.record.timestamp)));
            // a refused row is consumed like the rows before it: it is
            // audited and the next round resumes behind it
            let (taken, refusal) = match self.table.ingest_batch(cursor.partition, rows) {
                Ok(all) => (all, None),
                Err((before, refusal)) => (before, Some(refusal)),
            };
            total += taken as u64;
            let consumed = &fetch[..taken + refusal.is_some() as usize];
            cursor.consumed(consumed);
            if let Some(stage) = &self.chaperone {
                stage.observe_batch(consumed.iter().map(|r| r.record.as_ref()));
            }
            // the records are queryable from here on: close out the
            // end-to-end freshness measurement, one clock reading a fetch
            if let Some((hop, end_to_end)) = &self.trace {
                let now = self.clock.as_ref().map(|c| c.now());
                let seen = consumed.iter().map(|r| {
                    let record = r.record.as_ref();
                    (record, now.unwrap_or(record.timestamp))
                });
                hop.observe_visible(end_to_end, seen);
            }
            if let Some(refusal) = refusal {
                return (cursor, (total, Some(refusal)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Predicate, Query};
    use crate::table::TableConfig;
    use rtdi_common::{AggFn, FieldType, Record, Row, Schema, Value};
    use rtdi_stream::topic::TopicConfig;

    impl RealtimeIngester {
        /// Total lag across partitions.
        fn lag(&self) -> u64 {
            let topic = self.subscription.topic();
            (0..topic.num_partitions())
                .map(|p| {
                    topic
                        .partition(p)
                        .map(|l| l.high_watermark().saturating_sub(self.cursors[p].position))
                        .unwrap_or(0)
                })
                .sum()
        }
    }

    fn schema() -> Schema {
        Schema::of(
            "trips",
            &[
                ("trip_id", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    fn topic() -> Arc<Topic> {
        Arc::new(Topic::new("trips", TopicConfig::default().with_partitions(2)).unwrap())
    }

    fn table(upsert: bool) -> Arc<OlapTable> {
        let mut cfg = TableConfig::new("trips", schema())
            .with_time_column("ts")
            .with_segment_rows(10)
            .with_partitions(2);
        if upsert {
            cfg = cfg.with_upsert("trip_id");
        }
        OlapTable::new(cfg).unwrap()
    }

    fn trip(i: usize, fare: f64) -> Record {
        Record::new(
            Row::new()
                .with("trip_id", format!("t{i}"))
                .with("fare", fare)
                .with("ts", i as i64),
            i as i64,
        )
        .with_key(format!("t{i}"))
        .with_unique_id(format!("m{i}-{fare}"))
    }

    #[test]
    fn ingests_all_partitions_and_tracks_lag() {
        let t = topic();
        for i in 0..50 {
            t.append(trip(i, 10.0), 0).unwrap();
        }
        let mut ing =
            RealtimeIngester::new(t.clone(), table(false), IngestionConfig::default()).unwrap();
        assert_eq!(ing.lag(), 50);
        assert_eq!(ing.run_once().unwrap(), 50);
        assert_eq!(ing.lag(), 0);
        // incremental
        t.append(trip(99, 5.0), 0).unwrap();
        assert_eq!(ing.lag(), 1);
        assert_eq!(ing.run_once().unwrap(), 1);
    }

    #[test]
    fn partition_mismatch_rejected() {
        let t = Arc::new(Topic::new("x", TopicConfig::default().with_partitions(8)).unwrap());
        assert!(RealtimeIngester::new(t, table(false), IngestionConfig::default()).is_err());
    }

    #[test]
    fn upsert_ingestion_dedupes_by_key() {
        let t = topic();
        let tbl = table(true);
        for i in 0..30 {
            t.append(trip(i, 10.0), 0).unwrap();
        }
        // fare corrections for 5 trips
        for i in 0..5 {
            t.append(trip(i, 777.0), 0).unwrap();
        }
        let mut ing = RealtimeIngester::new(t, tbl.clone(), IngestionConfig::default()).unwrap();
        ing.run_once().unwrap();
        let q = Query::select_all("trips").aggregate("n", AggFn::Count);
        assert_eq!(tbl.query(&q).unwrap().rows[0].get_int("n"), Some(30));
        assert_eq!(
            tbl.lookup(&Value::Str("t2".into()), "fare"),
            Some(Value::Double(777.0))
        );
        let q = Query::select_all("trips")
            .filter(Predicate::eq("trip_id", "t2"))
            .aggregate("f", AggFn::Sum("fare".into()));
        assert_eq!(tbl.query(&q).unwrap().rows[0].get_double("f"), Some(777.0));
    }

    /// `run_once`'s contract around a row the schema refuses: the rows
    /// before it are in, it is consumed and audited like them, the error
    /// comes back, and the next round resumes behind it.
    #[test]
    fn a_refused_row_is_skipped_and_the_rows_before_it_stay() {
        const REFUSED: usize = 13;
        let one = TopicConfig::default().with_partitions(1);
        let t = Arc::new(Topic::new("trips", one).unwrap());
        for i in 0..30 {
            let mut rec = trip(i, 1.0);
            if i == REFUSED {
                rec.value.set("fare", "free");
            }
            t.append(rec, 0).unwrap();
        }
        let cfg = TableConfig::new("trips", schema()).with_time_column("ts");
        // a seal falls inside the fetch, before the refused row
        let tbl = OlapTable::new(cfg.with_segment_rows(10).with_partitions(1)).unwrap();
        let ch = Chaperone::new(1_000);
        let mut ing = RealtimeIngester::new(t, tbl.clone(), IngestionConfig::default())
            .unwrap()
            .with_chaperone(ch.clone());
        let rows = || {
            let q = Query::select_all("trips").aggregate("n", AggFn::Count);
            tbl.query(&q).unwrap().rows[0].get_int("n")
        };
        assert!(matches!(ing.run_once(), Err(Error::Schema(_))));
        assert_eq!(rows(), Some(REFUSED as i64));
        assert_eq!(ing.records_ingested(), REFUSED as u64);
        assert_eq!(tbl.sealed_segments(0).unwrap().len(), 1);
        assert_eq!(ch.stats("pinot-ingestion", 0).count, REFUSED as u64 + 1);
        assert_eq!(ing.lag(), 30 - (REFUSED as u64 + 1));
        assert_eq!(ing.run_once().unwrap(), 30 - (REFUSED as u64 + 1));
        assert_eq!(rows(), Some(29));
        assert_eq!(ch.stats("pinot-ingestion", 0).count, 30);
    }

    /// A refusal holds back its own partition only: the others drain to
    /// their ends in the same call, one after another (no partition holds
    /// a full fetch) or in parallel (every partition does), and the error
    /// returned is the lowest-numbered refusing partition's.
    #[test]
    fn a_refused_row_holds_back_only_its_own_partition() {
        const ROWS: usize = 30;
        const REFUSED: usize = 13;
        for batch_size in [1024, 8] {
            let four = TopicConfig::default().with_partitions(4);
            let t = Arc::new(Topic::new("trips", four).unwrap());
            let append = |p: usize, i: usize, fare: Option<&str>| {
                let mut rec = trip(p * 100 + i, 1.0);
                if let Some(fare) = fare {
                    rec.value.set("fare", fare);
                }
                t.append_to(p, rec, 0).unwrap();
            };
            for p in 0..4 {
                for i in 0..ROWS {
                    append(p, i, (p == 0 && i == REFUSED).then_some("free"));
                }
            }
            let cfg = TableConfig::new("trips", schema()).with_time_column("ts");
            let tbl = OlapTable::new(cfg.with_segment_rows(10).with_partitions(4)).unwrap();
            let ch = Chaperone::new(1_000);
            let config = IngestionConfig {
                batch_size,
                ..IngestionConfig::default()
            };
            let mut ing = RealtimeIngester::new(t.clone(), tbl.clone(), config)
                .unwrap()
                .with_chaperone(ch.clone());
            let rows = |p: usize| {
                let q = Query::select_all("trips").aggregate("n", AggFn::Count);
                let q = Query {
                    partitions: Some(Arc::new(vec![p])),
                    ..q
                };
                tbl.query(&q).unwrap().rows[0].get_int("n")
            };
            let audited = || ch.stats("pinot-ingestion", 0).count;
            let case = format!("batch_size {batch_size}");
            match ing.run_once() {
                Err(Error::Schema(msg)) => assert!(msg.contains("free"), "{case}: {msg}"),
                other => panic!("{case}: {other:?}"),
            }
            assert_eq!(ing.positions(), [REFUSED as u64 + 1, 30, 30, 30], "{case}");
            assert_eq!(rows(0), Some(REFUSED as i64), "{case}");
            for p in 1..4 {
                assert_eq!(rows(p), Some(ROWS as i64), "{case}: partition {p}");
            }
            assert_eq!(audited(), 3 * ROWS as u64 + REFUSED as u64 + 1, "{case}");

            // refusals in partitions 3 and 1: partition 1's comes back, and
            // both partitions still drain past their own
            for p in 1..4 {
                for i in ROWS..ROWS + 10 {
                    let fare = match (p, i) {
                        (1, 35) => Some("gratis"),
                        (3, 32) => Some("libre"),
                        _ => None,
                    };
                    append(p, i, fare);
                }
            }
            match ing.run_once() {
                Err(Error::Schema(msg)) => assert!(msg.contains("gratis"), "{case}: {msg}"),
                other => panic!("{case}: {other:?}"),
            }
            assert_eq!(ing.positions(), [30, 36, 40, 33], "{case}");
            assert_eq!(audited(), 30 + 36 + 40 + 33, "{case}");
            assert_eq!(ing.run_once().unwrap(), 4 + 7, "{case}");
            assert_eq!(ing.positions(), [30, 40, 40, 40], "{case}");
            assert_eq!(audited(), 30 + 3 * 40, "{case}");
        }
    }

    /// A fetch is ingested as if its rows had come one by one: fetches that
    /// cross `segment_rows` several times leave the segments (names, doc
    /// counts, back-up order) and the answers that `ingest_at` row by row
    /// leaves, upserts across the seals included.
    #[test]
    fn a_fetch_seals_and_upserts_like_its_rows_one_by_one() {
        for (upsert, partitions) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
            let config = TopicConfig::default().with_partitions(partitions);
            let t = Arc::new(Topic::new("trips", config).unwrap());
            for i in 0..137 {
                // every key comes back with another fare, segments later
                t.append(trip(i % 50, i as f64), 0).unwrap();
            }
            let table = || {
                let cfg = TableConfig::new("trips", schema()).with_time_column("ts");
                let cfg = cfg.with_segment_rows(7).with_partitions(partitions);
                OlapTable::new(if upsert {
                    cfg.with_upsert("trip_id")
                } else {
                    cfg
                })
                .unwrap()
            };
            let (fetched, one_by_one) = (table(), table());
            let ing = RealtimeIngester::new(t.clone(), fetched.clone(), IngestionConfig::default());
            assert_eq!(ing.unwrap().run_once().unwrap(), 137);
            for p in 0..partitions {
                for r in t.fetch(p, 0, 1024).unwrap().records {
                    let at = Some(r.record.timestamp);
                    one_by_one.ingest_at(p, &r.record.value, at).unwrap();
                }
            }
            let case = format!("upsert {upsert}, {partitions} partitions");
            let segments = |tbl: &OlapTable| -> Vec<(usize, String, usize)> {
                let sealed = tbl.take_unbacked().into_iter();
                sealed
                    .map(|(p, seg)| (p, seg.name().to_string(), seg.doc_count()))
                    .collect()
            };
            let sealed = segments(&fetched);
            assert!(sealed.len() > 3 * partitions, "{case}: {sealed:?}");
            assert_eq!(sealed, segments(&one_by_one), "{case}");
            for p in 0..partitions {
                assert_eq!(
                    fetched.sealed_segments(p).unwrap(),
                    one_by_one.sealed_segments(p).unwrap()
                );
            }
            let queries = [
                Query::select_all("trips")
                    .aggregate("n", AggFn::Count)
                    .aggregate("f", AggFn::Sum("fare".into())),
                Query::select_all("trips")
                    .filter(Predicate::eq("trip_id", "t7"))
                    .order("fare", crate::query::SortOrder::Asc),
            ];
            for q in &queries {
                let answer = fetched.query(q).unwrap();
                assert_eq!(answer.rows, one_by_one.query(q).unwrap().rows, "{case}");
                assert!(!answer.rows.is_empty());
            }
            let key = Value::Str("t7".into());
            assert_eq!(
                fetched.lookup(&key, "fare"),
                one_by_one.lookup(&key, "fare"),
                "{case}"
            );
            assert_eq!(
                fetched.lookup(&key, "fare"),
                upsert.then_some(Value::Double(107.0))
            );
        }
    }

    /// A failed fetch stops only its own partition's drain, behind the
    /// rows the table took. One fetch in three times out on four
    /// partitions, so every round fails; rounds retried until the table is
    /// full take each record once, and the ingester's count of what it
    /// took matches the table after every failed round.
    #[test]
    fn failed_fetches_are_retried_and_deliver_each_record_once() {
        use rtdi_common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
        const N: usize = 400;
        let chaos = Chaos::seeded(0xFE7C);
        let four = TopicConfig::default().with_partitions(4);
        let t = Arc::new(Topic::new("trips", four).unwrap().with_chaos(chaos.clone()));
        let ch = Chaperone::new(1_000);
        for i in 0..N {
            let rec = trip(i, 1.0);
            ch.observe("kafka", &rec);
            t.append(rec, 0).unwrap();
        }
        let config = TableConfig::new("trips", schema())
            .with_time_column("ts")
            .with_segment_rows(64)
            .with_partitions(4);
        let table = OlapTable::new(config).unwrap();
        let small = IngestionConfig {
            batch_size: 32,
            ..IngestionConfig::default()
        };
        let mut ing = RealtimeIngester::new(t, table.clone(), small)
            .unwrap()
            .with_chaperone(ch.clone());
        chaos.arm(
            FaultPoint::StreamFetch,
            FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(3)),
        );
        let count = Query::select_all("trips").aggregate("n", AggFn::Count);
        let count = || table.query(&count).unwrap().rows[0].get_int("n");
        let mut rounds = 0;
        while count() != Some(N as i64) {
            assert!(matches!(ing.run_once(), Err(Error::Timeout(_))));
            rounds += 1;
            // a failed round's rows count too
            let ingested = ing.records_ingested() as i64;
            assert_eq!(Some(ingested), count(), "after round {rounds}");
            assert!(rounds < 100, "{:?} of {N} after {rounds} rounds", count());
        }
        assert!(rounds > 1);
        chaos.disarm(FaultPoint::StreamFetch);
        assert_eq!(ing.run_once().unwrap(), 0, "nothing is read twice");
        assert_eq!(ing.records_ingested(), N as u64);
        assert_eq!(ch.loss_and_duplication("kafka", "pinot-ingestion"), (0, 0));
        assert_eq!(count(), Some(N as i64));
    }

    #[test]
    fn chaperone_certifies_topic_to_table() {
        let t = topic();
        let ch = Chaperone::new(1_000);
        for i in 0..20 {
            let rec = trip(i, 1.0);
            ch.observe("kafka", &rec);
            t.append(rec, 0).unwrap();
        }
        let mut ing = RealtimeIngester::new(t, table(false), IngestionConfig::default())
            .unwrap()
            .with_chaperone(ch.clone());
        ing.run_once().unwrap();
        assert!(ch.certify("kafka", "pinot-ingestion"));
    }

    #[test]
    fn tracer_measures_ingestion_freshness() {
        use rtdi_common::SimClock;
        let t = topic();
        let tracer = PipelineTracer::default();
        for i in 0..20 {
            let mut rec = trip(i, 1.0);
            PipelineTracer::stamp(&mut rec, 1_000);
            t.append(rec, 1_000).unwrap();
        }
        // records sat 3 seconds between production and ingestion
        let clock = Arc::new(SimClock::new(4_000));
        let mut ing = RealtimeIngester::new(t, table(false), IngestionConfig::default())
            .unwrap()
            .with_tracer(tracer.clone())
            .with_clock(clock);
        ing.run_once().unwrap();
        let report = tracer.report();
        let hop = report.stage("trips", "olap-ingest").unwrap();
        assert_eq!(hop.count, 20);
        assert_eq!(hop.max_ms, 3_000);
        let e2e = report
            .stage("trips", rtdi_common::trace::END_TO_END)
            .unwrap();
        assert_eq!(e2e.count, 20);
        assert_eq!(e2e.max_ms, 3_000);
    }
}
