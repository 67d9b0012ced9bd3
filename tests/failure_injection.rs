//! Failure-injection integration tests: the availability machinery of
//! §4.1.2/§4.3.4/§6 under induced faults.

use rtdi::common::{AggFn, Error, FieldType, Record, Row, Schema};
use rtdi::olap::broker::{Broker, ServerNode};
use rtdi::olap::query::Query;
use rtdi::olap::segment::{IndexSpec, Segment};
use rtdi::olap::segstore::{SegmentStore, SegmentStoreMode};
use rtdi::olap::table::{OlapTable, TableConfig};
use rtdi::storage::object::{FaultyStore, InMemoryStore, ObjectStore};
use rtdi::stream::consumer::{ConsumerGroup, TopicSubscription};
use rtdi::stream::dlq::DeadLetterQueue;
use rtdi::stream::proxy::{ConsumerProxy, DispatchMode, ProxyConfig};
use rtdi::stream::topic::{Topic, TopicConfig};
use std::sync::Arc;

fn schema() -> Schema {
    Schema::of(
        "t",
        &[
            ("city", FieldType::Str),
            ("v", FieldType::Int),
            ("ts", FieldType::Timestamp),
        ],
    )
}

fn seg(name: &str, n: usize) -> Arc<Segment> {
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new()
                .with("city", ["sf", "la"][i % 2])
                .with("v", i as i64)
                .with("ts", i as i64)
        })
        .collect();
    Arc::new(Segment::build(name, &schema(), rows, &IndexSpec::none()).unwrap())
}

/// E13 scenario: a replica dies; with peer-to-peer recovery the table is
/// fully queryable again even while the deep store is down.
#[test]
fn segment_recovery_survives_deep_store_outage() {
    let table = OlapTable::new(
        TableConfig::new("t", schema())
            .with_partitions(1)
            .with_segment_rows(50),
    )
    .unwrap();
    for i in 0..200usize {
        table
            .ingest(
                0,
                Row::new()
                    .with("city", ["sf", "la"][i % 2])
                    .with("v", i as i64)
                    .with("ts", i as i64),
            )
            .unwrap();
    }
    let names = table.sealed_segments(0).unwrap();
    assert_eq!(names.len(), 4);

    // peers (other server replicas) hold copies of the sealed segments
    let peer = ServerNode::new(1);
    for (_, s) in table.take_unbacked() {
        peer.host(s);
    }
    // deep store is DOWN
    let faulty = FaultyStore::new(InMemoryStore::new());
    faulty.set_down(true);
    let store = SegmentStore::new(
        Arc::new(faulty),
        SegmentStoreMode::PeerToPeer,
        IndexSpec::none(),
    );

    // a replica loses a segment
    let victim = names[1].clone();
    let _lost = table.evict_sealed(0, &victim).unwrap();
    let count = |t: &OlapTable| {
        t.query(&Query::select_all("t").aggregate("n", AggFn::Count))
            .unwrap()
            .rows[0]
            .get_int("n")
            .unwrap()
    };
    assert_eq!(count(&table), 150);

    // peer-to-peer recovery restores it without touching the archive
    let recovered = store.recover("t", &victim, &[peer]).unwrap();
    table.restore_sealed(0, recovered).unwrap();
    assert_eq!(count(&table), 200);
}

/// Broker failover: servers die one by one; queries survive while any
/// replica lives, then fail cleanly.
#[test]
fn broker_survives_n_minus_one_server_failures() {
    let servers: Vec<Arc<ServerNode>> = (0..3).map(ServerNode::new).collect();
    let broker = Broker::new(servers);
    broker.register_table("t", false);
    for i in 0..4 {
        broker
            .place_segment("t", seg(&format!("s{i}"), 100), None, 3)
            .unwrap();
    }
    let q = Query::select_all("t").aggregate("n", AggFn::Count);
    assert_eq!(broker.query(&q).unwrap().rows[0].get_int("n"), Some(400));
    broker.servers()[0].set_down(true);
    assert_eq!(broker.query(&q).unwrap().rows[0].get_int("n"), Some(400));
    broker.servers()[1].set_down(true);
    assert_eq!(broker.query(&q).unwrap().rows[0].get_int("n"), Some(400));
    broker.servers()[2].set_down(true);
    assert!(matches!(broker.query(&q), Err(Error::Unavailable(_))));
    // recovery restores service
    broker.servers()[2].set_down(false);
    assert_eq!(broker.query(&q).unwrap().rows[0].get_int("n"), Some(400));
}

/// Poison messages + a flapping downstream service: live traffic never
/// blocks, the DLQ isolates the poison, merge retries it after the fix.
#[test]
fn dlq_merge_after_downstream_fix() {
    let topic = Arc::new(Topic::new("orders", TopicConfig::default().with_partitions(2)).unwrap());
    for i in 0..100i64 {
        topic
            .append(
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                0,
            )
            .unwrap();
    }
    let dlq = Arc::new(DeadLetterQueue::new("orders").unwrap());
    // phase 1: messages divisible by 10 are "corrupt" for the current
    // service version
    let broken = Arc::new(|r: &Record| {
        if r.value.get_int("i").unwrap() % 10 == 0 {
            Err(Error::ProcessingFailed("cannot parse v1 payload".into()))
        } else {
            Ok(())
        }
    });
    let group = ConsumerGroup::new("g", TopicSubscription::new(topic.clone()));
    let proxy = ConsumerProxy::new(
        ProxyConfig {
            mode: DispatchMode::Push(8),
            max_attempts: 2,
            poll_batch: 32,
            ..Default::default()
        },
        broken,
        dlq.clone(),
    );
    let stats = proxy.run_until_caught_up(&group).unwrap();
    assert_eq!(stats.delivered, 90);
    assert_eq!(stats.dead_lettered, 10);
    assert_eq!(group.lag(), 0, "poison never blocked live traffic");

    // phase 2: service fixed; merge the DLQ back into the main topic
    struct Cluster0(Arc<Topic>);
    impl rtdi::stream::producer::StreamEndpoint for Cluster0 {
        fn send(
            &self,
            _topic: &str,
            record: Arc<Record>,
            now: i64,
        ) -> rtdi::common::Result<(usize, u64)> {
            self.0.append(record, now)
        }
    }
    let merged = dlq.merge(&Cluster0(topic.clone()), 1_000).unwrap();
    assert_eq!(merged, 10);
    let fixed = Arc::new(|_: &Record| Ok(()));
    let proxy = ConsumerProxy::new(
        ProxyConfig {
            mode: DispatchMode::Push(8),
            max_attempts: 2,
            poll_batch: 32,
            ..Default::default()
        },
        fixed,
        dlq.clone(),
    );
    let stats = proxy.run_until_caught_up(&group).unwrap();
    assert_eq!(stats.delivered, 10, "merged messages reprocessed");
    assert_eq!(dlq.depth(), 0);
}

/// Intermittent object-store failures: the writer's built-in retry policy
/// absorbs injected `storage.object_put` faults without data loss and
/// without caller-side retry loops.
#[test]
fn archival_tolerates_flaky_store() {
    use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
    use rtdi::storage::archival::ArchivalWriter;
    use rtdi::storage::object::FaultyStore;
    let chaos = Chaos::seeded(0xA2C417);
    // every 3rd put fails transiently: well inside the writer's 4-attempt
    // budget, so every batch lands
    chaos.arm(
        FaultPoint::StorageObjectPut,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(3)),
    );
    let store = Arc::new(FaultyStore::new(InMemoryStore::new()).with_chaos(chaos.clone()));
    let writer = ArchivalWriter::new(store as Arc<dyn ObjectStore>, "trips");
    for batch in 0..10 {
        let records: Vec<Record> = (0..10)
            .map(|i| Record::new(Row::new().with("i", (batch * 10 + i) as i64), 0))
            .collect();
        writer.write_batch(&records).unwrap();
    }
    chaos.disarm(FaultPoint::StorageObjectPut);
    let read_back = writer.read_raw("d000000").unwrap();
    // retried puts overwrite the same key: no loss AND no duplicates
    let values: Vec<i64> = read_back
        .iter()
        .map(|r| r.value.get_int("i").unwrap())
        .collect();
    assert_eq!(values.len(), 100);
    let distinct: std::collections::BTreeSet<i64> = values.iter().copied().collect();
    assert_eq!(distinct.len(), 100);
}

/// uReplicator resume semantics: when the cross-region link stays down
/// past the retry budget, the run fails with the per-partition resume
/// position saved; the next run picks up exactly where the last copied
/// record left off — every source record lands in the destination once,
/// in order, with no duplicates and no gaps.
#[test]
fn replicator_honors_saved_resume_position_after_retry_exhaustion() {
    use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
    use rtdi::stream::cluster::{Cluster, ClusterConfig};
    use rtdi::stream::replicator::{OffsetMappingStore, Replicator};
    let chaos = Chaos::seeded(0x2E5);

    let src = Cluster::new("regional", ClusterConfig::default());
    src.create_topic("trips", TopicConfig::default().with_partitions(2))
        .unwrap();
    let dst = Cluster::new("aggregate", ClusterConfig::default());
    let r = Replicator::new(
        "regional->aggregate",
        src.clone(),
        dst.clone(),
        "trips",
        OffsetMappingStore::new(),
        10,
    )
    .with_chaos(chaos.clone());
    r.prepare().unwrap();
    let produce = |lo: i64, hi: i64| {
        for i in lo..hi {
            src.produce(
                "trips",
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                i,
            )
            .unwrap();
        }
    };

    // wave 1 copies cleanly and establishes non-zero resume positions
    produce(0, 60);
    assert_eq!(r.run_once(1_000).unwrap(), 60);

    // wave 2 hits a persistent outage: the retry budget (4 attempts)
    // exhausts and run_once errors with the position parked at the
    // first uncopied record
    produce(60, 120);
    chaos.arm(
        FaultPoint::MultiregionReplicate,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(20, None),
    );
    assert!(r.run_once(2_000).is_err(), "outage must surface");

    // link restored: the restart resumes from the saved position
    chaos.disarm(FaultPoint::MultiregionReplicate);
    let resumed = r.run_once(3_000).unwrap();
    assert!(resumed > 0 && resumed <= 60, "resumed {resumed}");
    assert_eq!(r.run_once(4_000).unwrap(), 0, "nothing left behind");

    // record-level proof: per partition the destination holds exactly
    // the source sequence — no duplicate, no skip, no reorder
    let st = src.topic("trips").unwrap();
    let dt = dst.topic("trips").unwrap();
    for p in 0..2 {
        let pull = |t: &Topic| -> Vec<i64> {
            t.fetch(p, 0, 10_000)
                .unwrap()
                .records
                .into_iter()
                .map(|r| r.record.value.get_int("i").unwrap())
                .collect()
        };
        let src_vals = pull(&st);
        let dst_vals = pull(&dt);
        assert!(!src_vals.is_empty());
        assert_eq!(src_vals, dst_vals, "partition {p} replicated exactly once");
    }
}

/// Upsert tables stay correct when segments seal mid-correction-stream.
#[test]
fn upsert_correct_across_seals_and_eviction_recovery() {
    let table = OlapTable::new(
        TableConfig::new("fares", schema())
            .with_upsert("city") // two keys only: heavy update pressure
            .with_partitions(1)
            .with_segment_rows(10),
    )
    .unwrap();
    for i in 0..95usize {
        table
            .ingest(
                0,
                Row::new()
                    .with("city", ["sf", "la"][i % 2])
                    .with("v", i as i64)
                    .with("ts", i as i64),
            )
            .unwrap();
    }
    let q = Query::select_all("fares").aggregate("n", AggFn::Count);
    // only the latest version of each key is live
    assert_eq!(table.query(&q).unwrap().rows[0].get_int("n"), Some(2));
    let latest_sf = table
        .lookup(&rtdi::common::Value::Str("sf".into()), "v")
        .unwrap();
    assert_eq!(latest_sf, rtdi::common::Value::Int(94));
}

/// §4.1.1's clusters fail independently: a fault armed on one cluster's
/// handle fails every send to it while a neighbour in the same process,
/// driven at the same moments from another thread, never sees it.
#[test]
fn a_fault_armed_on_one_cluster_spares_its_neighbour() {
    use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
    use rtdi::stream::cluster::{Cluster, ClusterConfig};
    use rtdi::stream::producer::StreamEndpoint;
    const SENDS: usize = 200;
    let handles = [Chaos::seeded(7), Chaos::seeded(7)];
    let clusters: Vec<Arc<Cluster>> = handles
        .iter()
        .enumerate()
        .map(|(i, chaos)| {
            let c = Cluster::with_chaos(format!("c{i}"), ClusterConfig::default(), chaos.clone());
            c.create_topic("t", TopicConfig::default()).unwrap();
            c
        })
        .collect();
    handles[0].arm(
        FaultPoint::StreamAppend,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::Always),
    );
    let barrier = std::sync::Barrier::new(2);
    let sent: Vec<usize> = std::thread::scope(|s| {
        let drivers: Vec<_> = clusters
            .iter()
            .map(|c| {
                s.spawn(|| {
                    (0..SENDS)
                        .filter(|&i| {
                            barrier.wait();
                            let rec = Record::new(Row::new().with("i", i as i64), i as i64);
                            c.send("t", rec.into(), i as i64).is_ok()
                        })
                        .count()
                })
            })
            .collect();
        drivers.into_iter().map(|d| d.join().unwrap()).collect()
    });
    assert_eq!(sent, vec![0, SENDS]);
    let n = SENDS as u64;
    assert_eq!(handles[0].stats(FaultPoint::StreamAppend), (n, n));
    assert_eq!(handles[1].stats(FaultPoint::StreamAppend), (0, 0));
    assert_eq!(clusters[1].topic("t").unwrap().total_records(), n);
}

/// A store, a topic and a whole platform built without a handle cannot
/// be failed by one: with every point armed `Always` on a handle the test
/// holds, each works and the handle never sees a check.
#[test]
fn what_is_built_without_a_handle_is_out_of_every_handles_reach() {
    use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
    use rtdi::core::platform::RealtimePlatform;
    let chaos = Chaos::seeded(0xBAD);
    for point in FaultPoint::ALL {
        chaos.arm(
            point,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::Always),
        );
    }

    let store = InMemoryStore::new();
    store.put("k", b"v".to_vec().into()).unwrap();
    assert_eq!(store.get("k").unwrap()[..], b"v"[..]);

    let topic = Topic::new("t", TopicConfig::lossless().with_partitions(1)).unwrap();
    for i in 0..10 {
        topic
            .append(Record::new(Row::new().with("v", i), i), i)
            .unwrap();
    }
    let status = topic.replica_status(0).unwrap();
    assert_eq!(status.committed, 10);
    assert_eq!(status.isr.len(), status.assignment.len());

    let platform = RealtimePlatform::new();
    platform
        .create_topic("t", TopicConfig::default().with_partitions(2), schema())
        .unwrap();
    let producer = platform.producer("svc");
    for i in 0..50i64 {
        let row = Row::new().with("city", "sf").with("v", i).with("ts", i);
        producer.send("t", Record::new(row, i)).unwrap();
    }
    assert_eq!(producer.retries(), 0);
    let config = TableConfig::new("t", schema())
        .with_time_column("ts")
        .with_partitions(2);
    let table = platform.create_olap_table(config).unwrap();
    let mut ingester = platform.ingest_into("t", table).unwrap();
    assert_eq!(ingester.run_once().unwrap(), 50);
    assert_eq!(platform.archive_topic("t", &schema()).unwrap(), 50);

    for point in FaultPoint::ALL {
        assert_eq!(chaos.stats(point), (0, 0), "{point}");
    }
}
