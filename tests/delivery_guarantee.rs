//! The delivery guarantee of every stream edge, under faults.
//!
//! - producer → log: at-least-once with per-partition order. A retry
//!   re-sends the one shared record, so under faults that strike before
//!   the append every accepted record is in the log exactly once, each
//!   partition holds its keys in send order, and every offered record is
//!   either sent or surfaced as an error.
//! - log → replicator → log and federation migration: the destination log
//!   shares the source's records (`Arc::ptr_eq`), retried or not.
//!
//! Each test arms a `Chaos` handle of its own and builds what it faults
//! with it, so the tests run beside each other.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi::common::{Record, Row, SimClock, UniqueId};
use rtdi::stream::cluster::{Cluster, ClusterConfig};
use rtdi::stream::federation::FederatedCluster;
use rtdi::stream::log::OffsetRecord;
use rtdi::stream::producer::{Producer, ProducerConfig, StreamEndpoint};
use rtdi::stream::replicator::{OffsetMappingStore, Replicator};
use rtdi::stream::topic::{Topic, TopicConfig};
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
                let id = entry.record.audit().unique_id.clone();
                assert!(
                    matches!(id, Some(UniqueId::Seq { .. })) && ids.insert(id),
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
