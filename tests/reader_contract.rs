//! One reader contract, checked on every reader of a topic.
//!
//! Every topic reader polls through a `CursorSet`: a fetch is retried
//! under one constant policy (four attempts), so a transient
//! `stream.fetch` fault is ridden out in place, and a fetch that fails
//! for good ends the poll behind what came before it. Each case runs one
//! reader over 400 records on four partitions while every k-th fetch
//! times out, for k in 2, 3, 40 and 100 (no fetch exhausts the policy),
//! counted so that the reader's first fetch is a k-th one, and checks that
//! one call of the reader succeeds, delivers each record exactly once and
//! counts nothing as skipped. Three probes pin what a reader that does not
//! ride a failed fetch out costs: an active-passive consumer that delivers
//! nothing, a SQL pipeline that restarts and writes windows twice, and a
//! replicator that copies records twice.

use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi::common::{FieldType, Record, Row, Schema, SimClock};
use rtdi::compute::backfill::{kafka_replay_job, kafka_retains};
use rtdi::compute::runtime::{run_staged_with, StagedConfig};
use rtdi::compute::sink::CollectSink;
use rtdi::compute::source::{Source, TopicSource, UnionSource};
use rtdi::core::platform::RealtimePlatform;
use rtdi::flinksql::compiler::CompileOptions;
use rtdi::multiregion::activeactive::{redundant_compute_round, ActiveActiveCoordinator};
use rtdi::multiregion::activepassive::ActivePassiveConsumer;
use rtdi::multiregion::kv::ReplicatedKv;
use rtdi::multiregion::topology::MultiRegionTopology;
use rtdi::olap::ingestion::{IngestionConfig, RealtimeIngester};
use rtdi::olap::query::Query;
use rtdi::olap::table::{OlapTable, TableConfig};
use rtdi::stream::cluster::{Cluster, ClusterConfig};
use rtdi::stream::consumer::{ConsumerGroup, TopicSubscription};
use rtdi::stream::replicator::{OffsetMappingStore, Replicator};
use rtdi::stream::topic::{Topic, TopicConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const N: i64 = 400;

/// The record `i`: its own key, so the four partitions share the records.
fn at(i: i64) -> Record {
    Record::new(Row::new().with("i", i).with("ts", i), i).with_key(format!("k{i}"))
}

fn schema() -> Schema {
    Schema::of("t", &[("i", FieldType::Int), ("ts", FieldType::Timestamp)])
}

fn four() -> TopicConfig {
    TopicConfig::default().with_partitions(4)
}

fn i_of(row: &Row) -> i64 {
    row.get_int("i").unwrap()
}

/// A topic of four partitions whose fetches fail when `chaos` says so,
/// holding the records `from..to`.
fn topic(chaos: &Chaos, from: i64, to: i64) -> Arc<Topic> {
    let topic = Arc::new(Topic::new("t", four()).unwrap().with_chaos(chaos.clone()));
    for i in from..to {
        topic.append(at(i), 0).unwrap();
    }
    topic
}

/// One call of the reader: it reads everything committed and returns the
/// `i` of every record it has delivered so far and its skipped count
/// (`None` for a reader that keeps none).
type Read = Box<dyn FnMut() -> (Vec<i64>, Option<u64>)>;

/// Every reader of a topic, built over the records `0..N` with the handle
/// whose `stream.fetch` the case arms.
fn readers() -> Vec<(&'static str, Chaos, Read)> {
    let mut readers: Vec<(&'static str, Chaos, Read)> = Vec::new();

    let chaos = Chaos::seeded(1);
    let group = ConsumerGroup::new("g", TopicSubscription::new(topic(&chaos, 0, N)));
    group.join("m");
    let mut out = Vec::new();
    let read = move || {
        loop {
            let polled = group.poll_partitioned("m", 4).unwrap();
            if polled.is_empty() {
                break;
            }
            let records = polled.into_iter().flat_map(|(_, records)| records);
            out.extend(records.map(|r| i_of(&r.record.value)));
        }
        group.commit("m");
        (out.clone(), Some(group.skipped()))
    };
    readers.push(("ConsumerGroup", chaos, Box::new(read)));

    let chaos = Chaos::seeded(2);
    let config = TableConfig::new("t", schema())
        .with_time_column("ts")
        .with_partitions(4);
    let table = OlapTable::new(config).unwrap();
    let config = IngestionConfig {
        batch_size: 4,
        ..IngestionConfig::default()
    };
    let mut ingester = RealtimeIngester::new(topic(&chaos, 0, N), table.clone(), config).unwrap();
    let read = move || {
        ingester.run_once().unwrap();
        let rows = table.query(&Query::select_all("t")).unwrap().rows;
        (rows.iter().map(i_of).collect(), Some(ingester.skipped()))
    };
    readers.push(("RealtimeIngester", chaos, Box::new(read)));

    let chaos = Chaos::seeded(3);
    let mut source = TopicSource::unbounded(topic(&chaos, 0, N));
    let mut out = Vec::new();
    let read = move || loop {
        let batch = source.poll_batch(16).unwrap();
        if batch.is_empty() {
            return (out.clone(), Some(source.skipped()));
        }
        out.extend(batch.iter().map(|r| i_of(&r.value)));
    };
    readers.push(("TopicSource", chaos, Box::new(read)));

    let chaos = Chaos::seeded(4);
    let children: Vec<(String, Box<dyn Source>)> = vec![
        (
            "a".into(),
            Box::new(TopicSource::unbounded(topic(&chaos, 0, N / 2))),
        ),
        (
            "b".into(),
            Box::new(TopicSource::unbounded(topic(&chaos, N / 2, N))),
        ),
    ];
    let mut union = UnionSource::new(children);
    let mut out = Vec::new();
    let read = move || loop {
        let batch = union.poll_batch(16).unwrap();
        if batch.is_empty() {
            return (out.clone(), None);
        }
        out.extend(batch.iter().map(|r| i_of(&r.value)));
    };
    readers.push(("UnionSource", chaos, Box::new(read)));

    let topology = MultiRegionTopology::new(&["west"], "t", four()).unwrap();
    for i in 0..N {
        topology.produce("west", at(i), 0).unwrap();
    }
    assert_eq!(topology.replicate(0), N as u64);
    let chaos = topology.chaos().clone();
    let mut consumer = ActivePassiveConsumer::new("c", "t", "west");
    let mut out = Vec::new();
    let read = move || {
        let records = consumer.consume_available(&topology).unwrap();
        out.extend(records.iter().map(|r| i_of(&r.value)));
        (out.clone(), Some(consumer.skipped()))
    };
    readers.push(("ActivePassiveConsumer", chaos, Box::new(read)));

    let chaos = Chaos::seeded(6);
    let source = Cluster::with_chaos("regional", ClusterConfig::default(), chaos.clone());
    source.create_topic("t", four()).unwrap();
    for i in 0..N {
        source.produce("t", at(i), 0).unwrap();
    }
    let destination = Cluster::new("aggregate", ClusterConfig::default());
    let copies = destination.create_topic("t", four()).unwrap();
    let route = Replicator::new("r", source, destination, "t", OffsetMappingStore::new(), 16);
    let read = move || {
        route.run_once(0).unwrap();
        let copied = (0..4).flat_map(|p| copies.fetch(p, 0, usize::MAX / 2).unwrap().records);
        let out = copied.map(|r| i_of(&r.record.value)).collect();
        (out, Some(route.skipped()))
    };
    readers.push(("Replicator", chaos, Box::new(read)));

    let topology = MultiRegionTopology::new(&["west"], "t", four()).unwrap();
    for i in 0..N {
        topology.produce("west", at(i), 0).unwrap();
    }
    assert_eq!(topology.replicate(0), N as u64);
    let chaos = topology.chaos().clone();
    let (coordinator, kv) = (ActiveActiveCoordinator::new("west"), ReplicatedKv::new());
    let read = move || {
        let seen = Mutex::new(Vec::new());
        redundant_compute_round(&topology, &coordinator, &kv, 0, |rows| {
            seen.lock().unwrap().extend(rows.iter().map(i_of));
            BTreeMap::new()
        })
        .unwrap();
        (seen.into_inner().unwrap(), None)
    };
    readers.push(("redundant_compute_round", chaos, Box::new(read)));

    let chaos = Chaos::seeded(8);
    let replayed = topic(&chaos, 0, N);
    let read = move || {
        // every partition's oldest record is older than 100
        assert!(kafka_retains(&replayed, 100), "the topic holds all it had");
        let sink = CollectSink::new();
        let job = kafka_replay_job(
            "replay",
            replayed.clone(),
            100,
            vec![],
            Box::new(sink.clone()),
        );
        run_staged_with(job.unwrap(), &StagedConfig::default()).unwrap();
        (sink.rows().iter().map(i_of).collect(), None)
    };
    readers.push(("kafka_replay_job", chaos, Box::new(read)));

    let chaos = Chaos::seeded(9);
    let platform = RealtimePlatform::with_chaos(Arc::new(SimClock::new(0)), chaos.clone());
    let archived = platform.create_topic("t", four(), schema()).unwrap();
    for i in 0..N {
        archived.append(at(i), 0).unwrap();
    }
    let read = move || {
        platform.archive_topic("t", &schema()).unwrap();
        let rows = platform.catalog().table("t").unwrap().scan_all().unwrap();
        let cursors = platform.archive_cursors("t");
        let skipped = cursors.iter().map(|c| c.skipped).sum();
        (rows.iter().map(i_of).collect(), Some(skipped))
    };
    readers.push(("archive_topic", chaos, Box::new(read)));
    readers
}

#[test]
fn every_reader_rides_out_fetch_timeouts_and_delivers_each_record_once() {
    for k in [2, 3, 40, 100] {
        for (reader, chaos, mut read) in readers() {
            let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(k));
            chaos.arm(FaultPoint::StreamFetch, plan);
            // the reader's first fetch is the k-th
            for _ in 1..k {
                chaos.check(FaultPoint::StreamFetch).unwrap();
            }
            let (mut delivered, skipped) = read();
            let (hits, fires) = chaos.stats(FaultPoint::StreamFetch);
            assert!(
                fires > 0,
                "{reader}, every {k}th fetch: {hits} fetches, none failed"
            );
            delivered.sort_unstable();
            assert_eq!(
                delivered,
                (0..N).collect::<Vec<_>>(),
                "{reader}, every {k}th fetch"
            );
            assert!(skipped.unwrap_or(0) == 0, "{reader}: {skipped:?} skipped");
        }
    }
}

/// Four partitions hold 400 records and one fetch in three times out. A
/// consumer that moved its positions only when all of a read's fetches
/// succeeded would deliver none of them, however often it polled.
#[test]
fn an_active_passive_consumer_reads_past_every_third_fetch_failing() {
    let topology = MultiRegionTopology::new(&["west"], "payments", four()).unwrap();
    for i in 0..N {
        topology.produce("west", at(i), 0).unwrap();
    }
    topology.replicate(0);
    let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(3));
    topology.chaos().arm(FaultPoint::StreamFetch, plan);
    let mut consumer = ActivePassiveConsumer::new("c", "payments", "west");
    let mut seen: Vec<i64> = consumer
        .consume_available(&topology)
        .unwrap()
        .iter()
        .map(|r| i_of(&r.value))
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..N).collect::<Vec<_>>());
    assert!(consumer.consume_available(&topology).unwrap().is_empty());
}

/// 30 000 trips, one per event millisecond on four partitions, counted per
/// city and one-second window by a supervised SQL pipeline while every
/// 40th or 100th fetch times out. A timeout that failed the run would
/// restart it from its last checkpoint, and the restarted run would write
/// the windows emitted since then a second time (`SUM(n)` of 36 000 at
/// every 100th fetch; at every 40th, a deploy that fails after three
/// restarts).
#[test]
fn a_sql_pipeline_rides_out_fetch_timeouts_without_a_restart() {
    const TRIPS: i64 = 30_000;
    let trips = Schema::of(
        "trips",
        &[("city", FieldType::Str), ("ts", FieldType::Timestamp)],
    );
    let counts = Schema::of(
        "counts",
        &[
            ("city", FieldType::Str),
            ("w", FieldType::Timestamp),
            ("n", FieldType::Int),
            ("ingest_ts", FieldType::Timestamp),
        ],
    );
    for k in [40, 100] {
        let chaos = Chaos::seeded(k);
        let platform = RealtimePlatform::with_chaos(Arc::new(SimClock::new(0)), chaos.clone());
        let topic = platform
            .create_topic("trips", four(), trips.clone())
            .unwrap();
        for i in 0..TRIPS {
            let row = Row::new()
                .with("city", format!("city-{}", i % 7))
                .with("ts", i);
            topic
                .append(Record::new(row, i).with_key(format!("trip-{i}")), i)
                .unwrap();
        }
        let table = TableConfig::new("counts", counts.clone()).with_time_column("ingest_ts");
        let table = platform.create_olap_table(table).unwrap();
        let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(k));
        chaos.arm(FaultPoint::StreamFetch, plan);
        let sql = "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS n FROM trips \
                   GROUP BY city, TUMBLE(ts, 1000)";
        let options = CompileOptions::default();
        let run = platform.deploy_sql_pipeline("counts", sql, "trips", table, &options);
        assert_eq!(run.unwrap().records_in, TRIPS as u64, "every {k}th fetch");
        assert!(
            chaos.stats(FaultPoint::StreamFetch).1 > 0,
            "no fetch failed"
        );
        let restarts = platform.job_manager().status("counts").unwrap().restarts;
        assert_eq!(restarts, 0, "every {k}th fetch");
        let out = platform.sql("SELECT n FROM counts LIMIT 1000000").unwrap();
        let sum: i64 = out.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(sum, TRIPS, "every {k}th fetch");
    }
}

/// One partition holds 3 000 records and one fetch of the route times
/// out: its third, which reads offsets 2 048..3 000, or its fourth, which
/// finds the partition drained. A failed fetch that left the route's
/// cursor behind would make the next run resume after the last
/// offset-mapping checkpoint (one every 64 records): after a timeout at the
/// fourth fetch the aggregate cluster would hold 3 056 records.
#[test]
fn one_fetch_timeout_does_not_make_the_replicator_copy_twice() {
    const RECORDS: i64 = 3_000;
    for nth in [3, 4] {
        let one = TopicConfig::default().with_partitions(1);
        let topology = MultiRegionTopology::new(&["west"], "trips", one).unwrap();
        for i in 0..RECORDS {
            topology.produce("west", at(i), 0).unwrap();
        }
        let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(nth)).with_max_fires(1);
        topology.chaos().arm(FaultPoint::StreamFetch, plan);
        topology.replicate(0);
        topology.replicate(1);
        let fires = topology.chaos().stats(FaultPoint::StreamFetch).1;
        assert_eq!(fires, 1, "fetch {nth}");
        let copies = topology.aggregate_count("west").unwrap();
        assert_eq!(copies, RECORDS as u64, "fetch {nth}");
    }
}

/// Whether a topic still retains a range decides between a Kappa replay
/// and a Kappa+ backfill. A check that gave up at the first failed fetch
/// would read a timeout at every second fetch as "not retained".
#[test]
fn kafka_retains_rides_out_fetch_timeouts() {
    let chaos = Chaos::seeded(10);
    let retained = topic(&chaos, 0, N);
    let config = TopicConfig {
        retention_ms: 1_000,
        ..four()
    };
    let trimmed = Arc::new(Topic::new("t", config).unwrap().with_chaos(chaos.clone()));
    for i in 0..N {
        // append time tracks event time, so retention takes the old records
        trimmed.append(at(i), i * 100).unwrap();
    }
    let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(2));
    chaos.arm(FaultPoint::StreamFetch, plan);
    assert!(kafka_retains(&retained, 100));
    assert!(!kafka_retains(&trimmed, 100));
    assert!(
        chaos.stats(FaultPoint::StreamFetch).1 > 0,
        "no fetch failed"
    );
}

/// A fetch that fails for good ends a poll, and what it kept from its
/// turn must not count as idle: partition 1 (and the union's child `b`)
/// holds records older than those the other input handed out, and an
/// event time past them would drop them as late.
#[test]
fn a_poll_that_a_failed_fetch_ended_holds_event_time_back() {
    let chaos = Chaos::seeded(11);
    let two = TopicConfig::default().with_partitions(2);
    let topic = Arc::new(Topic::new("t", two).unwrap().with_chaos(chaos.clone()));
    for i in 0..10 {
        topic.append_to(0, at(1_000 + i), 0).unwrap();
        topic.append_to(1, at(i), 0).unwrap();
    }
    let mut source = TopicSource::unbounded(topic);
    // partition 0's fetch succeeds, and all four attempts at partition 1's
    // fail
    let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(1, Some(4));
    chaos.arm(FaultPoint::StreamFetch, plan);
    let first: Vec<i64> = (source.poll_batch(100).unwrap().iter())
        .map(|r| i_of(&r.value))
        .collect();
    assert_eq!(first, (1_000..1_010).collect::<Vec<_>>());
    assert_eq!(source.event_time(), i64::MIN, "partition 1 is not idle");
    // the next poll starts at the failed partition
    let second = source.poll_batch(100).unwrap();
    assert_eq!(
        second.iter().map(|r| i_of(&r.value)).collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>()
    );

    let one = TopicConfig::default().with_partitions(1);
    let (a, b) = (
        Topic::new("a", one.clone()).unwrap(),
        Topic::new("b", one).unwrap(),
    );
    let chaos = Chaos::seeded(12);
    let b = b.with_chaos(chaos.clone());
    for i in 0..10 {
        a.append(at(1_000 + i), 0).unwrap();
        b.append(at(i), 0).unwrap();
    }
    let children: Vec<(String, Box<dyn Source>)> = vec![
        ("a".into(), Box::new(TopicSource::unbounded(Arc::new(a)))),
        ("b".into(), Box::new(TopicSource::unbounded(Arc::new(b)))),
    ];
    let mut union = UnionSource::new(children);
    let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(0, Some(4));
    chaos.arm(FaultPoint::StreamFetch, plan);
    assert_eq!(union.poll_batch(100).unwrap().len(), 10, "a's records");
    assert_eq!(union.event_time(), i64::MIN, "child b is not idle");
    let second = union.poll_batch(100).unwrap();
    assert_eq!(
        second.iter().map(|r| i_of(&r.value)).collect::<Vec<_>>(),
        (0..10).collect::<Vec<_>>()
    );
}

/// The active-passive consumer drains a partition fetch by fetch. Its one
/// partition's first fetch delivers all 400 records, and all four attempts
/// at the next fetch, the one that would find the partition drained, time
/// out: the records already delivered come back, and a position moved
/// past records that never reached the caller would lose them.
#[test]
fn an_active_passive_consumer_keeps_what_came_before_a_failed_fetch() {
    let one = TopicConfig::default().with_partitions(1);
    let topology = MultiRegionTopology::new(&["west"], "payments", one).unwrap();
    for i in 0..N {
        topology.produce("west", at(i), 0).unwrap();
    }
    topology.replicate(0);
    let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(1, Some(4));
    topology.chaos().arm(FaultPoint::StreamFetch, plan);
    let mut consumer = ActivePassiveConsumer::new("c", "payments", "west");
    let mut seen = Vec::new();
    for _ in 0..2 {
        let records = consumer.consume_available(&topology).unwrap();
        seen.extend(records.iter().map(|r| i_of(&r.value)));
    }
    assert_eq!(topology.chaos().stats(FaultPoint::StreamFetch).1, 4);
    seen.sort_unstable();
    assert_eq!(seen, (0..N).collect::<Vec<_>>());
}

/// A round's state of a region is computed from its whole log: when all
/// four attempts at the second partition's fetch time out, the round fails
/// and writes nothing, where a round that went on would write a state
/// computed from a quarter of the log.
#[test]
fn a_redundant_compute_round_fails_whole_on_a_failed_fetch() {
    let topology = MultiRegionTopology::new(&["west"], "t", four()).unwrap();
    for i in 0..N {
        topology.produce("west", at(i), 0).unwrap();
    }
    topology.replicate(0);
    let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(1, Some(4));
    topology.chaos().arm(FaultPoint::StreamFetch, plan);
    let (coordinator, kv) = (ActiveActiveCoordinator::new("west"), ReplicatedKv::new());
    let count =
        |rows: &[Row]| BTreeMap::from([("n".to_string(), Row::new().with("n", rows.len() as i64))]);
    assert!(redundant_compute_round(&topology, &coordinator, &kv, 0, count).is_err());
    assert!(kv.is_empty());
    let states = redundant_compute_round(&topology, &coordinator, &kv, 0, count).unwrap();
    assert_eq!(states["west"]["n"].get_int("n"), Some(N));
    assert_eq!(kv.get("n").unwrap().get_int("n"), Some(N));
}

/// A copy that fails for good fails the run wherever it happens, also
/// after the first partition: the second partition's one record meets
/// four failed cross-region appends, and the run is an error. The next run
/// copies what is left, each record once.
#[test]
fn a_replicator_surfaces_a_failed_copy_after_the_first_partition() {
    let chaos = Chaos::seeded(13);
    let source = Cluster::new("regional", ClusterConfig::default());
    let t = source.create_topic("t", four()).unwrap();
    for p in 0..4 {
        t.append_to(p, at(p as i64), 0).unwrap();
    }
    let destination = Cluster::new("aggregate", ClusterConfig::default());
    let copies = destination.create_topic("t", four()).unwrap();
    let route = Replicator::new("r", source, destination, "t", OffsetMappingStore::new(), 16)
        .with_chaos(chaos.clone());
    let plan = FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(1, Some(4));
    chaos.arm(FaultPoint::MultiregionReplicate, plan);
    assert!(route.run_once(0).is_err());
    assert_eq!(route.run_once(1).unwrap(), 3);
    assert_eq!(copies.total_records(), 4);
}
