//! Streaming layer (§4.1): E1–E5, E22, E28, and the stream halves of the
//! recovery experiments E23 and E24.

mod sticky;
mod tiered;

use super::{present, Report};
use rtdi_common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi_common::{
    AdmissionConfig, AdmissionController, Clock, NodeState, Priority, Quota, Record, Result, Row,
    SimClock,
};
use rtdi_storage::object::InMemoryStore;
use rtdi_stream::chaperone::{AlertKind, Chaperone};
use rtdi_stream::cluster::{Cluster, ClusterConfig};
use rtdi_stream::consumer::{ConsumerGroup, TopicSubscription};
use rtdi_stream::dlq::{DeadLetterQueue, ParkReason};
use rtdi_stream::federation::FederatedCluster;
use rtdi_stream::producer::{Producer, ProducerConfig, StreamEndpoint};
use rtdi_stream::proxy::{ConsumerProxy, ConsumerService, DispatchMode, ProxyConfig};
use rtdi_stream::replicator::{OffsetMappingStore, Replicator};
use rtdi_stream::topic::{Topic, TopicConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sticky::StickyAssigner;
use tiered::TieredLog;

pub fn claims(r: &mut Report) -> Result<()> {
    e01_pubsub(r)?;
    e02_federation(r)?;
    e03_consumer_proxy(r)?;
    e04_replicator(r)?;
    e05_chaperone(r)?;
    e22_tiered_storage(r)?;
    e23_producer_burst_and_dlq_drain(r)?;
    e24_leader_failover(r)?;
    e24_durability_under_kill_cycles(r)?;
    e28_overload(r);
    Ok(())
}

/// Record `i` of a stream, keyed so the partitioner spreads it.
fn keyed(i: usize) -> Record {
    Record::new(Row::new().with("i", i as i64), i as i64).with_key(format!("k{i}"))
}

fn cluster_with_topic(name: &str, topic: &str, partitions: usize) -> Result<Arc<Cluster>> {
    let cluster = Cluster::new(name, ClusterConfig::default());
    cluster.create_topic(topic, TopicConfig::default().with_partitions(partitions))?;
    Ok(cluster)
}

/// Drain `group` as member `m`, checking what E1 and E2 both claim: how
/// many of the ids `0..seen.len()` arrive twice, and how many arrive
/// behind a larger id of their own partition.
fn drain(group: &ConsumerGroup, seen: &mut [u32], last: &mut [i64]) -> Result<(u64, u64)> {
    let (mut duplicated, mut out_of_order) = (0, 0);
    loop {
        let batches = group.poll_partitioned("m", 4096)?;
        if batches.is_empty() {
            return Ok((duplicated, out_of_order));
        }
        for (p, run) in batches {
            for rec in run {
                let i = present(rec.record.value.get_int("i"), "record id")?;
                seen[i as usize] += 1;
                duplicated += u64::from(seen[i as usize] > 1);
                out_of_order += u64::from(i <= last[p]);
                last[p] = i;
            }
        }
        group.commit("m");
    }
}

fn e01_pubsub(r: &mut Report) -> Result<()> {
    const N: usize = 20_000;
    const PARTITIONS: usize = 8;
    let cluster = cluster_with_topic("c", "trips", PARTITIONS)?;
    r.timed("E1", format!("produce {N} records, 8 partitions"), || {
        (0..N).try_for_each(|i| cluster.produce("trips", keyed(i), 0).map(|_| ()))
    })?;
    let group = ConsumerGroup::new("g", TopicSubscription::new(cluster.topic("trips")?));
    group.join("m");
    let (mut seen, mut last) = (vec![0u32; N], vec![-1i64; PARTITIONS]);
    let (duplicated, out_of_order) = r.timed("E1", format!("consume {N} records"), || {
        drain(&group, &mut seen, &mut last)
    })?;
    let lost = seen.iter().filter(|&&n| n == 0).count() as u64;
    r.claim(
        "E1.once",
        "§4.1, Fig 3",
        "every record is consumed exactly once",
        (lost + duplicated) as f64,
        "records lost or duplicated of 20000",
        lost + duplicated == 0,
    );
    r.claim(
        "E1.order",
        "§4.1",
        "a partition is read in the order it was written",
        out_of_order as f64,
        "records out of order",
        out_of_order == 0,
    );
    Ok(())
}

/// The node count past which a cluster's coordination overhead grows
/// super-linearly: the paper's "ideal cluster size < 150 nodes".
const IDEAL_MAX_NODES: usize = 150;

/// Per-operation coordination overhead of a `nodes`-node cluster, in
/// arbitrary cost units: flat up to [`IDEAL_MAX_NODES`], then growing
/// quadratically with the excess. The model E2 compares one giant cluster
/// against federated ones with.
fn coordination_cost(nodes: usize) -> f64 {
    let base = 1.0 + (nodes as f64).log2() * 0.05;
    let excess = nodes.saturating_sub(IDEAL_MAX_NODES) as f64;
    base + 0.002 * excess * excess
}

fn e02_federation(r: &mut Report) -> Result<()> {
    let cost = coordination_cost;
    let (at_300, at_600) = (cost(300) / cost(150), cost(600) / cost(150));
    r.claim(
        "E2.cost",
        "§4.1.1",
        "clusters past ~150 nodes degrade; the ideal size is below 150",
        at_600,
        "x per-op coordination cost, 600 nodes vs 150",
        at_300 > 1.0 && at_600 > at_300,
    );

    // capacity spill: topics land on the next cluster as each one fills
    let fed = FederatedCluster::new();
    for i in 0..4 {
        let config = ClusterConfig {
            nodes: 150,
            partitions_per_node: 2,
        };
        fed.add_cluster(Cluster::new(format!("c{i}"), config));
    }
    let mut created = 0;
    while fed
        .create_topic(
            &format!("topic-{created}"),
            TopicConfig::default().with_partitions(16),
        )
        .is_ok()
    {
        created += 1;
    }
    let mut spread = Vec::new();
    for name in fed.cluster_names() {
        spread.push(fed.cluster(&name)?.topic_names().len());
    }
    let (most, least) = (spread.iter().max(), spread.iter().min());
    let uneven = present(most, "cluster")? - present(least, "cluster")?;
    r.claim(
        "E2.placement",
        "§4.1.1",
        "adding clusters scales the service horizontally",
        uneven as f64,
        "topics between the fullest and emptiest of 4 clusters (24 placed)",
        created == 24 && uneven == 0,
    );

    // live migration under a consumer that is never re-created
    const N: usize = 4_000;
    let fed = FederatedCluster::new();
    fed.add_cluster(Cluster::new("a", ClusterConfig::default()));
    fed.add_cluster(Cluster::new("b", ClusterConfig::default()));
    fed.create_topic("hot", TopicConfig::default().with_partitions(8))?;
    let group = ConsumerGroup::new("g", fed.subscribe("hot")?);
    group.join("m");
    let (mut seen, mut last) = (vec![0u32; N], vec![-1i64; 8]);
    for i in 0..N / 2 {
        fed.send("hot", keyed(i).into(), 0)?;
    }
    // the consumer is mid-topic, with a committed position, when it moves
    let before = group.poll_partitioned("m", 100)?;
    for (p, run) in before {
        for rec in run {
            let i = present(rec.record.value.get_int("i"), "record id")?;
            seen[i as usize] += 1;
            last[p] = i;
        }
    }
    group.commit("m");
    r.timed(
        "E2",
        format!("migrate a topic holding {} records", N / 2),
        || fed.migrate_topic("hot", "b"),
    )?;
    for i in N / 2..N {
        fed.send("hot", keyed(i).into(), 0)?;
    }
    let (duplicated, out_of_order) = drain(&group, &mut seen, &mut last)?;
    let lost = seen.iter().filter(|&&n| n == 0).count() as u64;
    let moved = fed.placement("hot").as_deref() == Some("b");
    r.claim(
        "E2.migration",
        "§4.1.1",
        "topics migrate without restarting the consumer",
        (lost + duplicated + out_of_order) as f64,
        "records lost, repeated or reordered for one consumer across the move",
        moved && lost + duplicated + out_of_order == 0,
    );
    Ok(())
}

/// A downstream service that records how many of its calls overlap. With
/// `rendezvous` it holds each call until more than `PARTITIONS` are in
/// flight at once (or 50 ms pass), so a dispatcher able to overlap that
/// many is seen doing it whatever the scheduler does.
struct Overlap {
    in_flight: AtomicUsize,
    peak: AtomicUsize,
    rendezvous: bool,
}

const PARTITIONS: usize = 4;

impl ConsumerService for Overlap {
    fn process(&self, _: &Record) -> Result<()> {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_millis(50);
        while self.rendezvous
            && self.peak.load(Ordering::SeqCst) <= PARTITIONS
            && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        Ok(())
    }
}

/// Dispatch `records` keyed records through a proxy in `mode`; how many
/// were delivered and how many sit in the dead letter queue afterwards.
fn proxy_run(
    mode: DispatchMode,
    records: usize,
    service: Arc<dyn ConsumerService>,
) -> Result<(u64, usize)> {
    let config = TopicConfig::default().with_partitions(PARTITIONS);
    let topic = Arc::new(Topic::new("t", config)?);
    for i in 0..records {
        topic.append(keyed(i), 0)?;
    }
    let group = ConsumerGroup::new("g", TopicSubscription::new(topic));
    let config = ProxyConfig {
        mode,
        ..Default::default()
    };
    let dlq = Arc::new(DeadLetterQueue::new("t")?);
    let stats = ConsumerProxy::new(config, service, dlq.clone()).run_until_caught_up(&group)?;
    Ok((stats.delivered, dlq.depth()))
}

fn e03_consumer_proxy(r: &mut Report) -> Result<()> {
    const N: usize = 400;
    let overlap = |rendezvous| {
        Arc::new(Overlap {
            in_flight: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            rendezvous,
        })
    };
    let (polled, pushed) = (overlap(false), overlap(true));
    let by_poll = proxy_run(DispatchMode::Poll, N, polled.clone())?;
    let by_push = proxy_run(DispatchMode::Push(16), N, pushed.clone())?;
    let poll_peak = polled.peak.load(Ordering::SeqCst);
    r.claim(
        "E3.poll",
        "§4.1.3",
        "a polling consumer's parallelism is capped by the partition count",
        poll_peak as f64,
        "handler calls in flight at once, 4 partitions",
        poll_peak <= PARTITIONS && by_poll == (N as u64, 0),
    );
    // the peak itself depends on the scheduler; that it passes the
    // partition count does not
    let push_peak = pushed.peak.load(Ordering::SeqCst).min(PARTITIONS + 1);
    r.claim(
        "E3.push",
        "§4.1.3, Fig 4",
        "push dispatch gives slow consumers parallelism beyond the partition count",
        push_peak as f64,
        "handler calls in flight at once (counted up to partitions + 1), 16 workers",
        push_peak > PARTITIONS && by_push == (N as u64, 0),
    );

    // one poison message in fifty: parked after its retries, the rest flow
    let picky: Arc<dyn ConsumerService> = Arc::new(|rec: &Record| match rec.value.get_int("i") {
        Some(i) if i % 50 == 0 => Err(rtdi_common::Error::InvalidArgument("poison".into())),
        _ => Ok(()),
    });
    let (delivered, parked) = proxy_run(DispatchMode::Push(16), N, picky)?;
    r.claim(
        "E3.dlq",
        "§4.1.2",
        "poison messages go to the dead letter queue without blocking live traffic",
        delivered as f64,
        "of 400 delivered with 8 poisoned and parked",
        delivered == (N - N / 50) as u64 && parked == N / 50,
    );

    // the wall-clock side of the same claim: a 200 µs handler
    let slow: Arc<dyn ConsumerService> = Arc::new(|_: &Record| {
        std::thread::sleep(Duration::from_micros(200));
        Ok(())
    });
    for (what, mode) in [
        ("poll", DispatchMode::Poll),
        ("push x16", DispatchMode::Push(16)),
    ] {
        let label = format!("{what}: {N} records through a 200 us handler");
        r.timed("E3", label, || proxy_run(mode, N, slow.clone()))?;
    }
    Ok(())
}

fn e04_replicator(r: &mut Report) -> Result<()> {
    const PARTITIONS: u32 = 1_000;
    let workers = |n: usize| (0..n).map(|i| format!("w{i}")).collect::<Vec<_>>();
    let mut sticky = StickyAssigner::new(workers(10), vec![]);
    sticky.rebalance(PARTITIONS);
    sticky.add_worker("w10");
    let moved_sticky = sticky.rebalance(PARTITIONS).len();
    let mut naive = StickyAssigner::new(workers(10), vec![]);
    naive.naive_rebalance(PARTITIONS);
    naive.add_worker("w10");
    let moved_naive = naive.naive_rebalance(PARTITIONS).len();
    r.claim(
        "E4.sticky",
        "§4.1.4",
        "rebalancing minimizes the number of affected topic partitions",
        moved_sticky as f64,
        "of 1000 partitions moved when worker 11 joins (fair share 91)",
        moved_sticky <= PARTITIONS.div_ceil(11) as usize && sticky.skew(PARTITIONS) < 1.05,
    );
    r.claim(
        "E4.naive",
        "§4.1.4",
        "a modulo rehash reshuffles almost everything",
        moved_naive as f64 / moved_sticky.max(1) as f64,
        "x the partitions the sticky assigner moved",
        moved_naive >= 5 * moved_sticky,
    );

    let mut sticky = StickyAssigner::new(workers(10), vec![]);
    sticky.rebalance(PARTITIONS);
    sticky.remove_worker("w3");
    let moved = sticky.rebalance(PARTITIONS).len();
    r.claim(
        "E4.loss",
        "§4.1.4",
        "losing a worker moves only that worker's partitions",
        moved as f64,
        "of 1000 partitions moved when 1 of 10 workers dies",
        moved == 100,
    );

    let standby = (0..4).map(|i| format!("s{i}")).collect();
    let mut burst = StickyAssigner::new(workers(4), standby);
    burst.rebalance(PARTITIONS);
    let promoted = burst.promote_standby(4);
    burst.rebalance(PARTITIONS);
    r.claim(
        "E4.burst",
        "§4.1.4",
        "bursty traffic is redistributed to standby workers",
        burst.skew(PARTITIONS),
        "max/mean load after 4 standbys join 4 workers",
        promoted == 4 && burst.skew(PARTITIONS) < 1.05,
    );

    const N: usize = 20_000;
    let src = cluster_with_topic("regional", "trips", 8)?;
    for i in 0..N {
        src.produce("trips", keyed(i), 0)?;
    }
    let dst = Cluster::new("aggregate", ClusterConfig::default());
    let rep = Replicator::new(
        "r",
        src,
        dst.clone(),
        "trips",
        OffsetMappingStore::new(),
        1_000,
    );
    rep.prepare()?;
    let copied = r.timed(
        "E4",
        format!("replicate {N} records across clusters"),
        || rep.run_once(0),
    )?;
    let topic = dst.topic("trips")?;
    let mut landed = 0;
    for p in 0..topic.num_partitions() {
        landed += topic.fetch(p, 0, usize::MAX / 2)?.records.len();
    }
    r.claim(
        "E4.copy",
        "§4.1.4",
        "uReplicator copies a topic between clusters reliably",
        landed as f64,
        "of 20000 records in the destination after one run",
        copied == N as u64 && landed == N,
    );
    Ok(())
}

fn e05_chaperone(r: &mut Report) -> Result<()> {
    const N: usize = 40_000;
    let ch = Chaperone::new(10_000);
    r.timed("E5", format!("observe {N} messages at two stages"), || {
        for i in 0..N {
            let rec = Record::new(Row::new(), (i as i64) * 3).with_unique_id(format!("m{i}"));
            ch.observe("regional", &rec);
            if i % 2_000 == 0 {
                continue; // lost in replication
            }
            ch.observe("aggregate", &rec);
            if i % 4_000 == 1 {
                ch.observe("aggregate", &rec); // delivered twice
            }
        }
    });
    let alerts = r.timed("E5", "audit regional -> aggregate", || {
        ch.audit("regional", "aggregate")
    });
    let total = |kind| -> u64 {
        let of_kind = alerts.iter().filter(|a| a.kind == kind);
        of_kind.map(|a| a.magnitude).sum()
    };
    let (lost, duplicated) = (total(AlertKind::Loss), total(AlertKind::Duplication));
    r.claim(
        "E5.loss",
        "§4.1.4",
        "Chaperone alerts when a stage's unique-message count falls short",
        lost as f64,
        "messages reported lost (20 were dropped)",
        lost == 20,
    );
    r.claim(
        "E5.duplication",
        "§4.1.4",
        "and when a stage counts a message twice",
        duplicated as f64,
        "messages reported duplicated (10 were)",
        duplicated == 10,
    );
    Ok(())
}

fn e22_tiered_storage(r: &mut Report) -> Result<()> {
    const N: i64 = 20_000;
    let store = Arc::new(InMemoryStore::new());
    let log = TieredLog::new(store.clone(), "tiered/trips/0");
    for i in 0..N {
        let row = Row::new().with("trip", i).with("payload", "x".repeat(100));
        log.append(Record::new(row, i), i);
    }
    let hot_before = log.hot_bytes();
    let moved = r.timed("E22", "offload the oldest 90% of 20000 records", || {
        log.offload_older_than(N * 9 / 10)
    })?;
    r.claim(
        "E22.hot",
        "§11",
        "tiering stores colder data on a cheaper medium",
        hot_before as f64 / log.hot_bytes().max(1) as f64,
        "x smaller hot tier once 90% of the log is offloaded",
        moved == (N * 9 / 10) as usize
            && log.hot_bytes() * 5 <= hot_before
            && store.stored_bytes() > 0,
    );
    r.timed(
        "E22",
        "fetch 100 records from the hot tier, 100 times",
        || (0..100).try_for_each(|_| log.fetch(N as u64 - 1_000, 100).map(|_| ())),
    )?;
    r.timed(
        "E22",
        "fetch 100 records from the cold tier, 5 times",
        || (0..5).try_for_each(|_| log.fetch(1_000, 100).map(|_| ())),
    )?;
    let replay = log.fetch(0, 1_000)?.records;
    let in_order = replay
        .iter()
        .enumerate()
        .all(|(i, rec)| rec.offset == i as u64);
    r.claim(
        "E22.replay",
        "§11, §7",
        "offloaded history stays readable from the log itself",
        replay.len() as f64,
        "records served from offset 0 after the offload",
        replay.len() == 1_000 && in_order,
    );
    Ok(())
}

fn e23_producer_burst_and_dlq_drain(r: &mut Report) -> Result<()> {
    let chaos = Chaos::seeded(0xE23A);
    let cluster = Cluster::with_chaos("c1", ClusterConfig::default(), chaos.clone());
    cluster.create_topic("trips", TopicConfig::default().with_partitions(4))?;
    let producer = Producer::new(cluster.clone(), ProducerConfig::default());
    producer.send("trips", keyed(0))?;
    // an outage of three appends: what the four-attempt budget absorbs
    chaos.arm(
        FaultPoint::StreamAppend,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(0, Some(3)),
    );
    let sent = r.timed("E23", "one send through a 3-deep append outage", || {
        producer.send("trips", keyed(1))
    });
    let (_, fired) = chaos.stats(FaultPoint::StreamAppend);
    chaos.disarm(FaultPoint::StreamAppend);
    r.claim(
        "E23.producer",
        "§4.1, §9",
        "a produce outage shorter than the retry budget never reaches the caller",
        producer.retries() as f64,
        "retries spent on 3 injected append failures, 0 send errors",
        sent.is_ok() && fired == 3 && producer.retries() == 3 && producer.records_sent() == 2,
    );

    // the cost of leaving the fault points compiled in: one atomic load
    r.timed("E23", "100000 disarmed fault-point checks", || {
        (0..100_000).try_for_each(|_| chaos.check(FaultPoint::StreamAppend))
    })?;

    const PARKED: usize = 1_000;
    let dlq = DeadLetterQueue::new("trips")?;
    for i in 0..PARKED {
        dlq.park(
            keyed(i),
            ParkReason::RetriesExhausted,
            "downstream outage",
            0,
        );
    }
    let merged = r.timed("E23", format!("merge {PARKED} parked records back"), || {
        dlq.merge(&*cluster, 10)
    })?;
    r.claim(
        "E23.dlq",
        "§4.1.2",
        "parked messages are merged back once the downstream is fixed",
        merged as f64,
        "of 1000 parked records republished, 0 left",
        merged == PARKED && dlq.depth() == 0,
    );
    Ok(())
}

fn replicated_topic() -> TopicConfig {
    TopicConfig {
        partitions: 8,
        replication: 3,
        lossless: true,
        min_insync: 2,
        ..Default::default()
    }
}

fn leads(topic: &Topic, node: &str) -> usize {
    (0..topic.num_partitions())
        .filter(|&p| topic.replica_status(p).and_then(|s| s.leader).as_deref() == Some(node))
        .count()
}

fn e24_leader_failover(r: &mut Report) -> Result<()> {
    let clock = Arc::new(SimClock::new(0));
    let config = ClusterConfig {
        nodes: 6,
        ..Default::default()
    };
    let cluster = Cluster::with_clock("core", config, clock.clone());
    let topic = cluster.create_topic("trips", replicated_topic())?;
    for i in 0..500 {
        cluster.produce("trips", keyed(i), i as i64)?;
    }
    let leader_of_0 = || present(topic.replica_status(0).and_then(|s| s.leader), "leader");

    // detection: the node falls silent and must miss its deadline
    let victim = leader_of_0()?;
    let killed_at = clock.now();
    cluster.fail_node_silently(&victim);
    let interval = cluster.membership().config().heartbeat_interval_ms;
    let mut detected_after = None;
    for _ in 0..30 {
        clock.advance(interval);
        let dead = |e: &rtdi_common::MembershipEvent| e.node == victim && e.to == NodeState::Dead;
        if cluster.heartbeat_tick().iter().any(dead) {
            detected_after = Some(clock.now() - killed_at);
            break;
        }
    }
    let detected_after = present(detected_after, "death event within 30 heartbeats")?;
    r.claim(
        "E24.detection",
        "§4.1, §9",
        "a silent broker is declared dead once it misses the heartbeat deadline",
        detected_after as f64,
        "logical ms from silence to the Dead event",
        detected_after >= cluster.membership().config().dead_after_ms,
    );
    cluster.heal_node(&victim);
    clock.advance(interval);
    cluster.heartbeat_tick();

    // repair: an announced kill is ISR eviction plus election, nothing else
    let victim = leader_of_0()?;
    let led = leads(&topic, &victim);
    r.timed(
        "E24",
        format!("fail over a broker leading {led}/8 partitions"),
        || cluster.kill_node(&victim),
    );
    let still_led = leads(&topic, &victim);
    let leaderless = (0..8)
        .filter(|&p| topic.replica_status(p).and_then(|s| s.leader).is_none())
        .count();
    cluster.heal_node(&victim);
    r.claim(
        "E24.election",
        "§4.1",
        "every partition a dead broker led gets an in-sync leader",
        (still_led + leaderless) as f64,
        "of 8 partitions still on the dead broker or leaderless",
        led > 0 && still_led + leaderless == 0,
    );
    Ok(())
}

fn e24_durability_under_kill_cycles(r: &mut Report) -> Result<()> {
    const CYCLES: usize = 3;
    const PER_CYCLE: i64 = 500;
    let clock = Arc::new(SimClock::new(0));
    let config = ClusterConfig {
        nodes: 5,
        ..Default::default()
    };
    let cluster = Cluster::with_clock("core", config, clock.clone());
    let topic = cluster.create_topic("trips", replicated_topic())?;
    let mut committed: Vec<Vec<i64>> = vec![Vec::new(); topic.num_partitions()];
    let (mut i, mut rejected) = (0i64, 0u64);
    for cycle in 0..CYCLES {
        let status = topic.replica_status(cycle % topic.num_partitions());
        let victim = present(status.and_then(|s| s.leader), "leader")?;
        cluster.kill_node(&victim);
        for _ in 0..PER_CYCLE {
            match cluster.produce("trips", keyed(i as usize), i) {
                Ok((p, _)) => committed[p].push(i),
                Err(_) => rejected += 1,
            }
            i += 1;
        }
        cluster.heal_node(&victim);
        clock.advance(1_000);
        cluster.heartbeat_tick();
    }
    let mut wrong = 0;
    for (p, expect) in committed.iter().enumerate() {
        let fetched = topic.fetch(p, 0, usize::MAX / 2)?.records;
        let ids: Vec<Option<i64>> = fetched
            .iter()
            .map(|rec| rec.record.value.get_int("i"))
            .collect();
        wrong += usize::from(!ids.iter().copied().eq(expect.iter().map(|&i| Some(i))));
    }
    let total: usize = committed.iter().map(Vec::len).sum();
    r.claim(
        "E24.durability",
        "§4.1",
        "records committed under acks=all survive leader kills exactly once, in order",
        wrong as f64,
        "of 8 partitions differing from what was acknowledged over 3 kill/heal cycles",
        wrong == 0 && total as u64 + rejected == (CYCLES as i64 * PER_CYCLE) as u64 && total > 0,
    );
    Ok(())
}

/// Sustained service capacity, records per second, of the E28 service.
const CAPACITY_PER_SEC: u64 = 5_000;
/// A record delivered within this many logical ms counts toward goodput.
const SLA_MS: i64 = 500;
/// Logical drive time per offered-load point.
const DRIVE_MS: i64 = 4_000;
/// Backlog the service takes at full speed; past it the drain rate falls
/// as capacity / (1 + excess / 5000), the congestion-collapse shape.
const FREE_QUEUE: f64 = 2_000.0;

struct LoadPoint {
    shed: u64,
    goodput_per_sec: f64,
    p99_ms: i64,
    balanced: bool,
}

/// Offer `mult` x capacity for [`DRIVE_MS`] of discrete logical time to
/// an unbounded queue, behind the real [`AdmissionController`] (a tenant
/// quota sized to capacity, watermarks fed the live queue depth) when
/// `protected`.
fn drive(mult: u64, protected: bool) -> LoadPoint {
    let clock = Arc::new(SimClock::new(0));
    let admission = protected.then(|| {
        let quota = Quota::per_sec(CAPACITY_PER_SEC).with_burst(CAPACITY_PER_SEC / 1_000);
        let config = AdmissionConfig {
            max_in_flight: 0, // the drive dispatches nothing concurrently
            queue_high_watermark: 2_000,
            queue_low_watermark: 500,
            default_tenant_quota: Some(quota),
        };
        AdmissionController::new(clock.clone(), config)
    });
    let arrivals_per_ms = (mult * CAPACITY_PER_SEC) as f64 / 1_000.0;
    let capacity_per_ms = CAPACITY_PER_SEC as f64 / 1_000.0;
    let mut queue: VecDeque<i64> = VecDeque::new();
    let mut latencies: Vec<i64> = Vec::new();
    let (mut offered, mut shed) = (0u64, 0u64);
    let (mut arrival_credit, mut drain_credit) = (0.0f64, 0.0f64);
    for now in 0..DRIVE_MS {
        clock.advance(1);
        arrival_credit += arrivals_per_ms;
        while arrival_credit >= 1.0 {
            arrival_credit -= 1.0;
            offered += 1;
            let admitted = admission.as_ref().is_none_or(|ac| {
                ac.set_queue_depth(queue.len() as u64);
                ac.admit("city-ops", Priority::Interactive).is_ok()
            });
            if admitted {
                queue.push_back(now);
            } else {
                shed += 1;
            }
        }
        let excess = (queue.len() as f64 - FREE_QUEUE).max(0.0);
        drain_credit += capacity_per_ms / (1.0 + excess / 5_000.0);
        while drain_credit >= 1.0 {
            drain_credit -= 1.0;
            match queue.pop_front() {
                Some(arrived) => latencies.push(now - arrived),
                None => break,
            }
        }
    }
    let ledger = admission.as_ref().map(|ac| ac.stats());
    let balanced = offered == latencies.len() as u64 + shed + queue.len() as u64
        && ledger.is_none_or(|s| s.offered == offered && s.shed_total() == shed);
    latencies.sort_unstable();
    let good = latencies.iter().filter(|&&l| l <= SLA_MS).count();
    LoadPoint {
        shed,
        goodput_per_sec: good as f64 / (DRIVE_MS as f64 / 1_000.0),
        p99_ms: latencies
            .get(latencies.len().saturating_sub(1) * 99 / 100)
            .copied()
            .unwrap_or(0),
        balanced,
    }
}

fn e28_overload(r: &mut Report) {
    let point = |mult| (drive(mult, false), drive(mult, true));
    let ((bare_1x, kept_1x), (bare_5x, kept_5x), kept_10x) =
        r.timed("E28", "five 4 s logical drives at 1x, 5x and 10x", || {
            (point(1), point(5), drive(10, true))
        });
    let saturation = kept_1x.goodput_per_sec;
    r.claim(
        "E28.protected",
        "§4.1, §8",
        "quota-protected tiers hold their goodput under a burst",
        kept_5x.goodput_per_sec,
        "records/s within the 500 ms SLA at 5x offered load (capacity 5000/s)",
        kept_5x.goodput_per_sec >= 0.9 * saturation
            && kept_10x.goodput_per_sec >= 0.9 * saturation
            && kept_5x.shed > 0,
    );
    r.claim(
        "E28.unprotected",
        "§8",
        "an unbounded queue collapses instead",
        bare_5x.goodput_per_sec,
        "records/s within the SLA at 5x with no admission control",
        bare_5x.goodput_per_sec < 0.5 * bare_1x.goodput_per_sec && bare_5x.shed == 0,
    );
    r.claim(
        "E28.p99",
        "§8",
        "and its latency grows faster than its load",
        bare_5x.p99_ms as f64,
        "logical ms p99 at 5x unprotected (1 ms at 1x)",
        bare_5x.p99_ms > 10 * bare_1x.p99_ms.max(1),
    );
    let points = [&bare_1x, &kept_1x, &bare_5x, &kept_5x, &kept_10x];
    let unbalanced = points.iter().filter(|p| !p.balanced).count();
    r.claim(
        "E28.ledger",
        "§8",
        "load is shed loudly, never silently",
        unbalanced as f64,
        "drive points where offered != processed + shed + queued",
        unbalanced == 0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordination_cost_grows_past_ideal() {
        let (small, ideal, big) = (
            coordination_cost(100),
            coordination_cost(IDEAL_MAX_NODES),
            coordination_cost(400),
        );
        assert!(small <= ideal + 0.01);
        assert!(big > 10.0 * ideal, "big={big} ideal={ideal}");
    }
}
