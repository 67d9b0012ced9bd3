//! The delivery guarantee of every stream edge, under faults.
//!
//! - producer → log: at-least-once with per-partition order. A retry
//!   re-sends the one shared record, so under faults that strike before
//!   the append every accepted record is in the log exactly once, each
//!   partition holds its keys in send order, and every offered record is
//!   either sent or surfaced as an error.
//! - log → replicator → log and federation migration: the destination log
//!   shares the source's records (`Arc::ptr_eq`), retried or not.
//! - log → reader: every reader of a topic reads through a
//!   `PartitionCursor`. When retention overtakes its position it resumes
//!   at the log start and counts the records in between as skipped.
//!
//! Each test arms a `Chaos` handle of its own and builds what it faults
//! with it, so the tests run beside each other.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi::common::{FieldType, Record, Row, Schema, SimClock, UniqueId};
use rtdi::compute::source::{Source, TopicSource};
use rtdi::core::platform::RealtimePlatform;
use rtdi::multiregion::activepassive::ActivePassiveConsumer;
use rtdi::multiregion::topology::MultiRegionTopology;
use rtdi::olap::ingestion::{IngestionConfig, RealtimeIngester};
use rtdi::olap::query::Query;
use rtdi::olap::table::{OlapTable, TableConfig};
use rtdi::stream::cluster::{Cluster, ClusterConfig};
use rtdi::stream::consumer::{ConsumerGroup, TopicSubscription};
use rtdi::stream::federation::FederatedCluster;
use rtdi::stream::log::OffsetRecord;
use rtdi::stream::producer::{Producer, ProducerConfig, StreamEndpoint};
use rtdi::stream::replicator::{OffsetMappingStore, Replicator};
use rtdi::stream::topic::{PartitionCursor, Topic, TopicConfig};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

fn keyed(key: usize, i: i64) -> Record {
    Record::new(Row::new().with("i", i), i).with_key(format!("k{key}"))
}

/// Everything a partition's log holds, beneath the committed watermark.
fn raw_log(topic: &Topic, partition: usize) -> Vec<OffsetRecord> {
    let log = topic.partition(partition).unwrap();
    log.fetch(log.log_start_offset(), usize::MAX / 2)
        .unwrap()
        .records
}

#[test]
fn accepted_records_land_exactly_once_and_in_send_order_under_retry() {
    let mut surfaced_in_all = 0;
    for seed in 0..24u64 {
        let chaos = Chaos::seeded(seed);
        let mut rng = StdRng::seed_from_u64(0xDE11_7E12 ^ seed);
        let partitions = rng.gen_range(1..=4usize);
        let cluster = Cluster::with_chaos("c", ClusterConfig::default(), chaos.clone());
        let config = TopicConfig::default().with_partitions(partitions);
        let topic = cluster.create_topic("t", config).unwrap();
        let clock = Arc::new(SimClock::new(1_000));
        let producer = Producer::with_clock(cluster.clone(), ProducerConfig::default(), clock);
        // the cluster edge refuses sends often enough that some outlive the
        // four attempts; followers miss replications, holding acks back
        let refuse = Trigger::Probability(rng.gen_range(0.3..0.7));
        let append = FaultPlan::fail(FaultKind::Unavailable, refuse);
        chaos.arm(FaultPoint::StreamAppend, append);
        let lag = FaultPlan::fail(FaultKind::Timeout, Trigger::Probability(0.3));
        chaos.arm(FaultPoint::StreamReplicate, lag);

        let offered = rng.gen_range(200..400i64);
        let mut accepted = Vec::new();
        let mut surfaced = 0u64;
        for i in 0..offered {
            match producer.send("t", keyed(rng.gen_range(0..12usize), i)) {
                Ok(()) => accepted.push(i),
                Err(e) => {
                    assert!(e.is_retryable(), "seed {seed}: {e}");
                    surfaced += 1;
                }
            }
        }
        let (_, refused) = chaos.stats(FaultPoint::StreamAppend);
        assert_eq!(producer.records_sent(), accepted.len() as u64);
        assert_eq!(producer.records_sent() + surfaced, offered as u64);
        assert!(refused > surfaced && !accepted.is_empty(), "seed {seed}");
        surfaced_in_all += surfaced;

        let mut landed = Vec::new();
        let mut ids = HashSet::new();
        let mut home: BTreeMap<String, usize> = BTreeMap::new();
        for p in 0..partitions {
            let entries = raw_log(&topic, p);
            let mut last_of_key: BTreeMap<String, i64> = BTreeMap::new();
            for entry in &entries {
                let key = entry.record.key.as_ref().unwrap().to_string();
                let i = entry.record.value.get_int("i").unwrap();
                assert_eq!(
                    *home.entry(key.clone()).or_insert(p),
                    p,
                    "seed {seed}: {key}"
                );
                let earlier = last_of_key.insert(key.clone(), i);
                assert!(
                    earlier < Some(i),
                    "seed {seed} p{p}: {key} out of send order"
                );
                let id = entry.record.unique_id();
                assert!(
                    matches!(id, Some(UniqueId::Seq { .. }))
                        && ids.insert(id.map(|id| id.to_string())),
                    "seed {seed}: a retry must keep its record's one minted id"
                );
                landed.push(i);
            }
            // consumers see a prefix of it: only what the ISR acknowledged
            let visible = topic.fetch(p, 0, usize::MAX / 2).unwrap().records;
            assert_eq!(visible[..], entries[..visible.len()], "seed {seed} p{p}");
        }
        landed.sort_unstable();
        assert_eq!(
            landed, accepted,
            "seed {seed}: accepted != landed exactly once"
        );
    }
    assert!(surfaced_in_all > 0, "no send ever outlived its retries");
}

#[test]
fn replication_shares_the_source_records_even_when_retried() {
    let chaos = Chaos::seeded(0x5A4E);
    let src = Cluster::new("regional", ClusterConfig::default());
    let dst = Cluster::new("aggregate", ClusterConfig::default());
    let config = TopicConfig::default().with_partitions(3);
    src.create_topic("t", config).unwrap();
    let route = Replicator::new(
        "regional->aggregate",
        src.clone(),
        dst.clone(),
        "t",
        OffsetMappingStore::new(),
        10,
    )
    .with_chaos(chaos.clone());
    route.prepare().unwrap();
    for i in 0..90 {
        src.produce("t", keyed(i as usize, i), i).unwrap();
    }
    // every third cross-region attempt fails and is retried
    let flaky = FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(3));
    chaos.arm(FaultPoint::MultiregionReplicate, flaky);
    assert_eq!(route.run_once(1_000).unwrap(), 90);
    let (src, dst) = (src.topic("t").unwrap(), dst.topic("t").unwrap());
    for p in 0..3 {
        let (from, to) = (raw_log(&src, p), raw_log(&dst, p));
        assert_eq!(from.len(), to.len(), "partition {p} aligned");
        for (a, b) in from.iter().zip(&to) {
            assert!(
                Arc::ptr_eq(&a.record, &b.record),
                "p{p} offset {}",
                a.offset
            );
        }
    }
}

#[test]
fn migration_hands_the_records_over_uncopied() {
    let fed = FederatedCluster::new();
    fed.add_cluster(Cluster::new("c1", ClusterConfig::default()));
    fed.add_cluster(Cluster::new("c2", ClusterConfig::default()));
    let config = TopicConfig::default().with_partitions(2);
    fed.create_topic("t", config).unwrap();
    for i in 0..60 {
        fed.send("t", Arc::new(keyed(i as usize, i)), i).unwrap();
    }
    let before = fed.cluster("c1").unwrap().topic("t").unwrap();
    let held: Vec<Vec<OffsetRecord>> = (0..2).map(|p| raw_log(&before, p)).collect();
    fed.migrate_topic("t", "c2").unwrap();
    let after = fed.cluster("c2").unwrap().topic("t").unwrap();
    for (p, from) in held.iter().enumerate() {
        let to = raw_log(&after, p);
        assert_eq!(from.len(), to.len(), "partition {p}");
        for (a, b) in from.iter().zip(&to) {
            assert_eq!(a.offset, b.offset, "offsets preserved");
            assert!(
                Arc::ptr_eq(&a.record, &b.record),
                "p{p} offset {}",
                a.offset
            );
        }
    }
    assert_eq!(after.committed_watermarks().iter().sum::<u64>(), 60);
}

/// The record at offset `i` of a one-partition topic: `i` in its row and
/// as its event time.
fn at(i: i64) -> Record {
    Record::new(Row::new().with("i", i).with("ts", i), i).with_key("k")
}

fn offsets_schema() -> Schema {
    Schema::of("t", &[("i", FieldType::Int), ("ts", FieldType::Timestamp)])
}

/// One partition that retains the newest 20 records.
fn size_retained() -> TopicConfig {
    TopicConfig {
        partitions: 1,
        retention_ms: 0,
        retention_bytes: 20 * at(0).approx_bytes(),
        ..TopicConfig::default()
    }
}

fn i_of(row: &Row) -> i64 {
    row.get_int("i").unwrap()
}

/// Reads everything committed, returning the `i` of each record it
/// delivered in delivery order and its owner's skipped count after the
/// read.
type Read = Box<dyn FnMut() -> (Vec<i64>, u64)>;

/// Every reader of a topic, each over a size-retained topic of its own.
fn readers() -> Vec<(&'static str, Arc<Topic>, Read)> {
    let mut readers: Vec<(&'static str, Arc<Topic>, Read)> = Vec::new();

    let topic = Arc::new(Topic::new("t", size_retained()).unwrap());
    let mut source = TopicSource::unbounded(topic.clone());
    let read = move || {
        let mut out = Vec::new();
        loop {
            let batch = source.poll_batch(8).unwrap();
            if batch.is_empty() {
                return (out, source.skipped());
            }
            out.extend(batch.iter().map(|r| i_of(&r.value)));
        }
    };
    readers.push(("TopicSource", topic, Box::new(read)));

    let topic = Arc::new(Topic::new("t", size_retained()).unwrap());
    let config = TableConfig::new("t", offsets_schema())
        .with_time_column("ts")
        .with_partitions(1);
    let table = OlapTable::new(config).unwrap();
    let config = IngestionConfig {
        batch_size: 8,
        ..IngestionConfig::default()
    };
    let mut ingester = RealtimeIngester::new(topic.clone(), table.clone(), config).unwrap();
    let mut seen = 0;
    let read = move || {
        ingester.run_once().unwrap();
        let rows = table.query(&Query::select_all("t")).unwrap().rows;
        let out = rows[seen..].iter().map(i_of).collect();
        seen = rows.len();
        (out, ingester.skipped())
    };
    readers.push(("RealtimeIngester", topic, Box::new(read)));

    let topic = Arc::new(Topic::new("t", size_retained()).unwrap());
    let group = ConsumerGroup::new("g", TopicSubscription::new(topic.clone()));
    group.join("m");
    let read = move || {
        let mut out = Vec::new();
        loop {
            let polled = group.poll_partitioned("m", 8).unwrap();
            if polled.is_empty() {
                return (out, group.skipped());
            }
            let records = polled.into_iter().flat_map(|(_, records)| records);
            out.extend(records.map(|r| i_of(&r.record.value)));
        }
    };
    readers.push(("ConsumerGroup", topic, Box::new(read)));

    let source = Cluster::new("regional", ClusterConfig::default());
    let topic = source.create_topic("t", size_retained()).unwrap();
    let destination = Cluster::new("aggregate", ClusterConfig::default());
    let unretained = TopicConfig::default().with_partitions(1);
    let copies = destination.create_topic("t", unretained).unwrap();
    let route = Replicator::new("r", source, destination, "t", OffsetMappingStore::new(), 4);
    let mut copied = PartitionCursor::new(0, 0);
    let read = move || {
        route.run_once(0).unwrap();
        let records = copied.fetch(&copies, usize::MAX / 2).unwrap();
        copied.consumed(&records);
        let out = records.iter().map(|r| i_of(&r.record.value)).collect();
        (out, route.skipped())
    };
    readers.push(("Replicator", topic, Box::new(read)));

    let topology = MultiRegionTopology::new(&["west"], "t", size_retained()).unwrap();
    let west = topology.region("west").unwrap();
    let topic = west.aggregate.topic("t").unwrap();
    let mut consumer = ActivePassiveConsumer::new("c", "t", "west");
    let read = move || {
        let records = consumer.consume_available(&topology).unwrap();
        let out = records.iter().map(|r| i_of(&r.value)).collect();
        (out, consumer.skipped())
    };
    readers.push(("ActivePassiveConsumer", topic, Box::new(read)));

    let platform = RealtimePlatform::with_clock(Arc::new(SimClock::new(0)));
    let topic = (platform.create_topic("t", size_retained(), offsets_schema())).unwrap();
    let mut seen = 0;
    let read = move || {
        platform.archive_topic("t", &offsets_schema()).unwrap();
        let rows = platform.catalog().table("t").unwrap().scan_all().unwrap();
        let out = rows[seen..].iter().map(i_of).collect();
        seen = rows.len();
        let cursors = platform.archive_cursors("t");
        (out, cursors.iter().map(|c| c.skipped).sum())
    };
    readers.push(("archive_topic", topic, Box::new(read)));
    readers
}

#[test]
fn retention_overtaking_a_reader_is_counted_not_silent() {
    for (reader, topic, mut read) in readers() {
        for i in 0..10 {
            topic.append(at(i), 0).unwrap();
        }
        assert_eq!(read(), ((0..10).collect(), 0), "{reader}: first read");
        // 100 more records: retention takes everything but the newest 20,
        // so the reader's position (10) is behind the log start
        for i in 10..110 {
            topic.append(at(i), 0).unwrap();
        }
        let low = topic.partition(0).unwrap().log_start_offset();
        let committed = topic.committed_watermark(0).unwrap();
        assert!(low > 10, "{reader}: retention trimmed to {low}");
        assert_eq!(committed, 110, "{reader}");
        let (delivered, skipped) = read();
        assert_eq!(skipped, low - 10, "{reader}: skipped count");
        let expected: Vec<i64> = (low as i64..committed as i64).collect();
        assert_eq!(delivered, expected, "{reader}: records after the jump");
        assert_eq!(read(), (Vec::new(), low - 10), "{reader}: nothing new");
    }
}

#[test]
fn a_bounded_source_overtaken_by_retention_stops_at_its_bound() {
    let topic = Arc::new(Topic::new("t", size_retained()).unwrap());
    for i in 0..10 {
        topic.append(at(i), 0).unwrap();
    }
    let mut source = TopicSource::bounded(topic.clone()).unwrap();
    // retention keeps the newest 20 of 110: the source's start (0) and its
    // bound (10) both lie below the log start
    for i in 10..110 {
        topic.append(at(i), 0).unwrap();
    }
    assert!(topic.partition(0).unwrap().log_start_offset() > 10);
    let mut delivered = Vec::new();
    while !source.is_exhausted() {
        let batch = source.poll_batch(5).unwrap();
        assert!(batch.len() <= 5);
        delivered.extend(batch.iter().map(|r| i_of(&r.value)));
        assert!(delivered.len() <= 110, "the source never ends");
    }
    assert_eq!(
        delivered,
        Vec::<i64>::new(),
        "no offset at or past the bound"
    );
    assert_eq!(source.skipped(), 10, "only the offsets below the bound");
    assert_eq!(source.position(), vec![10]);
    assert!(source.poll_batch(5).unwrap().is_empty());
}
