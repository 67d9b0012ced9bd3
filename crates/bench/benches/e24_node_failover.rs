//! E24: node-level failure domains — failover MTTR and committed-record
//! durability.
//!
//! Three measurements against the PR-4 replication machinery:
//!
//! - leader failover MTTR, split into its two components: the *detection*
//!   latency of the heartbeat deadline detector (logical time: a silent
//!   node must miss `dead_after_ms` of beats) and the *failover* work
//!   itself (wall time: ISR eviction + epoch bump + in-sync election
//!   across every partition the dead broker led);
//! - segment re-hosting MTTR: a dead OLAP server leaves placements
//!   under-replicated; the rebalancer recovers each segment (peer first,
//!   deep store fallback) and re-hosts it to full query coverage;
//! - durability under kill/heal cycles: every record committed under
//!   acks=all survives repeated leader kills exactly once, in order.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::chaos;
use rtdi_common::{AggFn, Clock, FieldType, NodeState, Record, Row, Schema, SimClock};
use rtdi_olap::broker::{Broker, ServerNode};
use rtdi_olap::query::Query;
use rtdi_olap::rebalance::Rebalancer;
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_olap::segstore::{SegmentStore, SegmentStoreMode};
use rtdi_storage::object::InMemoryStore;
use rtdi_stream::cluster::{Cluster, ClusterConfig};
use rtdi_stream::topic::TopicConfig;
use std::sync::Arc;

fn replicated_topic() -> TopicConfig {
    TopicConfig {
        partitions: 8,
        replication: 3,
        lossless: true,
        min_insync: 2,
        ..Default::default()
    }
}

fn leader_failover_mttr() {
    chaos::registry().reset(0xE24);
    let clock = Arc::new(SimClock::new(0));
    let cluster = Cluster::with_clock(
        "core",
        ClusterConfig {
            nodes: 6,
            ..Default::default()
        },
        clock.clone(),
    );
    let topic = cluster.create_topic("trips", replicated_topic()).unwrap();
    for i in 0..2_000i64 {
        cluster
            .produce(
                "trips",
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                i,
            )
            .unwrap();
    }

    // --- detection latency (logical): the node falls silent and the
    // deadline detector must notice the missed heartbeats
    let victim = topic.replica_status(0).unwrap().leader.unwrap();
    let led_before: usize = (0..topic.num_partitions())
        .filter(|&p| topic.replica_status(p).unwrap().leader.as_deref() == Some(victim.as_str()))
        .count();
    let killed_at = clock.now();
    cluster.fail_node_silently(&victim);
    let interval = cluster.membership().config().heartbeat_interval_ms;
    let mut detect_ms = None;
    for _ in 0..30 {
        clock.advance(interval);
        let evs = cluster.heartbeat_tick();
        if evs
            .iter()
            .any(|e| e.node == victim && e.to == NodeState::Dead)
        {
            detect_ms = Some(clock.now() - killed_at);
            break;
        }
    }
    let detect_ms = detect_ms.expect("detector declares the silent node dead");
    cluster.heal_node(&victim);
    clock.advance(interval);
    cluster.heartbeat_tick();

    // --- failover work (wall): announced kill, so the measured time is
    // purely ISR eviction + election across every partition the node led
    let victim = topic.replica_status(0).unwrap().leader.unwrap();
    let (_, failover) = time_it(|| cluster.kill_node(&victim));
    let still_led: usize = (0..topic.num_partitions())
        .filter(|&p| topic.replica_status(p).unwrap().leader.as_deref() == Some(victim.as_str()))
        .count();
    assert_eq!(still_led, 0, "no partition keeps the dead leader");
    cluster.heal_node(&victim);
    chaos::registry().reset(0xE24);
    report(
        "leader failover MTTR",
        format!(
            "detection {detect_ms} ms logical (deadline detector, {} ms heartbeat interval), \
             failover of a broker leading {led_before}/8 partitions in {:.0} us wall",
            interval,
            failover.as_secs_f64() * 1e6,
        ),
    );
}

fn segment_rehost_mttr() {
    const SEGMENTS: usize = 16;
    const ROWS: usize = 5_000;
    chaos::registry().reset(0xE24B);
    let schema = Schema::of("t", &[("city", FieldType::Str), ("v", FieldType::Int)]);
    let servers: Vec<Arc<ServerNode>> = (0..4).map(ServerNode::new).collect();
    let broker = Arc::new(Broker::new(servers));
    broker.register_table("t", false);
    let store = Arc::new(SegmentStore::new(
        Arc::new(InMemoryStore::new()),
        SegmentStoreMode::PeerToPeer,
        IndexSpec::none(),
    ));
    for s in 0..SEGMENTS {
        let rows: Vec<Row> = (0..ROWS)
            .map(|j| {
                Row::new()
                    .with("city", ["sf", "la"][j % 2])
                    .with("v", (s * ROWS + j) as i64)
            })
            .collect();
        let seg =
            Arc::new(Segment::build(format!("s{s}"), &schema, rows, &IndexSpec::none()).unwrap());
        store.backup("t", seg.clone()).unwrap();
        broker.place_segment("t", seg, None, 2).unwrap();
    }
    store.flush_pending().unwrap();
    let rebalancer = Rebalancer::new(broker.clone(), store);

    let victim = broker.servers()[0].name().to_string();
    chaos::registry().kill_node(&victim);
    let q = Query::select_all("t").aggregate("n", AggFn::Count);
    let (report_out, mttr) = time_it(|| rebalancer.rebalance().unwrap());
    assert!(report_out.unrecovered.is_empty());
    let healed = broker.query(&q).unwrap();
    assert!(!healed.ledger.partial());
    assert_eq!(
        healed.rows[0].get_int("n"),
        Some((SEGMENTS * ROWS) as i64),
        "full coverage after re-host"
    );
    chaos::registry().heal_node(&victim);
    chaos::registry().reset(0xE24B);
    report(
        "segment re-host MTTR",
        format!(
            "server death stranded {} replicas; rebalancer re-hosted them (peer-first) to full \
             query coverage in {:.0} us ({:.0} us/segment)",
            report_out.moves.len(),
            mttr.as_secs_f64() * 1e6,
            mttr.as_secs_f64() * 1e6 / report_out.moves.len().max(1) as f64,
        ),
    );
}

fn durability_under_kill_cycles() {
    const CYCLES: usize = 6;
    chaos::registry().reset(0xE24C);
    let clock = Arc::new(SimClock::new(0));
    let cluster = Cluster::with_clock(
        "core",
        ClusterConfig {
            nodes: 5,
            ..Default::default()
        },
        clock.clone(),
    );
    let topic = cluster.create_topic("trips", replicated_topic()).unwrap();
    let mut committed: Vec<Vec<i64>> = vec![Vec::new(); topic.num_partitions()];
    let mut i = 0i64;
    let mut rejected = 0u64;
    let (_, elapsed) = time_it(|| {
        for cycle in 0..CYCLES {
            let victim = topic
                .replica_status(cycle % topic.num_partitions())
                .unwrap()
                .leader
                .unwrap();
            cluster.kill_node(&victim);
            for _ in 0..2_000 {
                let rec = Record::new(Row::new().with("i", i), i).with_key(format!("k{i}"));
                match cluster.produce("trips", rec, i) {
                    Ok((p, _)) => committed[p].push(i),
                    Err(_) => rejected += 1,
                }
                i += 1;
            }
            cluster.heal_node(&victim);
            clock.advance(1_000);
            cluster.heartbeat_tick();
        }
    });
    let mut total = 0usize;
    for (p, expect) in committed.iter().enumerate() {
        let fetched: Vec<i64> = topic
            .fetch(p, 0, usize::MAX)
            .unwrap()
            .records
            .into_iter()
            .map(|r| r.record.value.get_int("i").unwrap())
            .collect();
        assert_eq!(&fetched, expect, "partition {p} exactly once, in order");
        total += expect.len();
    }
    chaos::registry().reset(0xE24C);
    report(
        "durability under kill/heal",
        format!(
            "{CYCLES} leader kill/heal cycles while producing: {total} committed records all \
             delivered exactly once ({rejected} rejected by acks=all, exempt), {:.1} ms total",
            elapsed.as_secs_f64() * 1e3,
        ),
    );
}

fn bench(c: &mut Criterion) {
    report_header(
        "E24 node failover: replicated partitions, failure detection, self-healing",
        "per-partition replica sets with ISR/acks=all commit semantics, a \
         heartbeat deadline failure detector, and the OLAP rebalancer — \
         MTTR is split into detection (logical deadline) and repair (wall)",
    );
    leader_failover_mttr();
    segment_rehost_mttr();
    durability_under_kill_cycles();

    // hot-path cost of commit bookkeeping: an acks=all append through a
    // 3-replica ISR vs the single-copy baseline
    let mut g = c.benchmark_group("e24");
    let replicated = Cluster::new("r", ClusterConfig::default());
    replicated.create_topic("t", replicated_topic()).unwrap();
    let single = Cluster::new("s", ClusterConfig::default());
    single
        .create_topic(
            "t",
            TopicConfig {
                replication: 1,
                min_insync: 1,
                ..replicated_topic()
            },
        )
        .unwrap();
    let mut n = 0i64;
    g.bench_function("append_acks_all_r3", |b| {
        b.iter(|| {
            n += 1;
            replicated
                .produce("t", Record::new(Row::new().with("i", n), n), n)
                .unwrap()
        })
    });
    let mut m = 0i64;
    g.bench_function("append_single_copy", |b| {
        b.iter(|| {
            m += 1;
            single
                .produce("t", Record::new(Row::new().with("i", m), m), m)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
