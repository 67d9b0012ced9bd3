//! E23: measured mean-time-to-recovery under injected faults.
//!
//! The chaos layer (rtdi-common::chaos) arms deterministic fault plans at
//! named points across the stack; this bench measures how long each layer
//! takes to return to full service after the fault clears: supervised
//! compute restart from checkpoint, producer retry absorption during an
//! outage burst, OLAP segment re-replication after a server loss, and
//! cross-region replication catch-up plus DLQ drain after a downstream
//! outage. It also pins the cost of a *disarmed* fault point, which must
//! stay at a single atomic load so production code can keep the checks
//! compiled in.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::chaos::{self, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi_common::{AggFn, FieldType, Record, Row, Schema};
use rtdi_compute::jobmanager::{JobManager, JobSpec, JobType};
use rtdi_compute::operator::MapOp;
use rtdi_compute::runtime::{CheckpointStore, Job, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::VecSource;
use rtdi_multiregion::topology::MultiRegionTopology;
use rtdi_olap::broker::{Broker, ServerNode};
use rtdi_olap::query::Query;
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_olap::segstore::{SegmentStore, SegmentStoreMode};
use rtdi_storage::object::InMemoryStore;
use rtdi_stream::cluster::{Cluster, ClusterConfig};
use rtdi_stream::dlq::{DeadLetterQueue, ParkReason};
use rtdi_stream::producer::{Producer, ProducerConfig};
use rtdi_stream::topic::TopicConfig;
use std::sync::Arc;

fn seg(name: &str, n: usize) -> Arc<Segment> {
    let schema = Schema::of("t", &[("city", FieldType::Str), ("v", FieldType::Int)]);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new()
                .with("city", ["sf", "la"][i % 2])
                .with("v", i as i64)
        })
        .collect();
    Arc::new(Segment::build(name, &schema, rows, &IndexSpec::none()).unwrap())
}

fn compute_job_spec(name: &str, n: usize, sink: CollectSink) -> JobSpec {
    let job_name = name.to_string();
    JobSpec {
        name: name.to_string(),
        job_type: JobType::Stateless,
        tier: 1,
        expected_records_per_sec: 100_000,
        factory: Box::new(move || {
            Job::new(
                job_name.clone(),
                Box::new(VecSource::from_rows(
                    (0..n as i64)
                        .map(|i| (i, Row::new().with("i", i)))
                        .collect(),
                )),
                vec![Box::new(MapOp::new("identity", |row| row.clone()))],
                Box::new(sink.clone()),
            )
        }),
    }
}

fn compute_restart_mttr() {
    const N: usize = 50_000;
    chaos::registry().reset(0xE23);
    let config = |store: Arc<InMemoryStore>| StagedConfig {
        checkpoint_interval: 5_000,
        checkpoint_store: Some(CheckpointStore::new(store)),
        ..StagedConfig::default()
    };
    // warm-up run so allocation effects don't skew the clean baseline
    let jm = JobManager::new(config(Arc::new(InMemoryStore::new())), 3);
    jm.supervise(&compute_job_spec("warmup", N, CollectSink::new()))
        .unwrap();
    // clean run: no faults armed
    let jm = JobManager::new(config(Arc::new(InMemoryStore::new())), 3);
    let (_, clean) = time_it(|| {
        jm.supervise(&compute_job_spec("clean", N, CollectSink::new()))
            .unwrap()
    });
    // chaos run: the job is killed mid-stream at record ~N/2, well past a
    // checkpoint; supervision re-instantiates and resumes from it
    chaos::registry().arm(
        FaultPoint::ComputeProcess,
        FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Always)
            .with_burst(N as u64 / 2, Some(1)),
    );
    let jm = JobManager::new(config(Arc::new(InMemoryStore::new())), 3);
    let (stats, crashed) = time_it(|| {
        jm.supervise(&compute_job_spec("crashed", N, CollectSink::new()))
            .unwrap()
    });
    chaos::registry().disarm_all();
    let restarts = jm.status("crashed").unwrap().restarts;
    assert!(restarts >= 1 && stats.records_in as usize >= N);
    report(
        "compute crash MTTR",
        format!(
            "{N} records, crash at ~{}: clean {:.1} ms vs crash+checkpoint-recovery {:.1} ms (recovery overhead {:.1} ms, {restarts} restart)",
            N / 2,
            clean.as_secs_f64() * 1e3,
            crashed.as_secs_f64() * 1e3,
            (crashed.as_secs_f64() - clean.as_secs_f64()) * 1e3,
        ),
    );
}

fn producer_outage_mttr() {
    chaos::registry().reset(0xE23A);
    let cluster = Cluster::new("c1", ClusterConfig::default());
    cluster
        .create_topic("trips", TopicConfig::default().with_partitions(4))
        .unwrap();
    // the Cluster endpoint impl carries the stream.append fault point
    let producer = Producer::new(
        cluster,
        ProducerConfig {
            service: "bench".into(),
            ..Default::default()
        },
    );
    let rec = || Record::new(Row::new().with("i", 1i64), 0).with_key("k");
    // warm up, then take the healthy baseline
    producer.send("trips", rec()).unwrap();
    let (_, healthy) = time_it(|| producer.send("trips", rec()).unwrap());
    // a 3-failure outage burst: exactly absorbed by the 4-attempt budget
    chaos::registry().arm(
        FaultPoint::StreamAppend,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(0, Some(3)),
    );
    let (_, outage) = time_it(|| producer.send("trips", rec()).unwrap());
    chaos::registry().disarm_all();
    report(
        "producer outage-burst MTTR",
        format!(
            "healthy send {:.0} us vs send through 3-deep outage burst {:.0} us (backoff absorbed, zero caller involvement)",
            healthy.as_secs_f64() * 1e6,
            outage.as_secs_f64() * 1e6,
        ),
    );
}

fn segment_loss_mttr() {
    const SEGMENTS: usize = 8;
    const ROWS: usize = 5_000;
    // deep store holds backups of every segment the dead server hosted
    let deep = SegmentStore::new(
        Arc::new(InMemoryStore::new()),
        SegmentStoreMode::Centralized,
        IndexSpec::none(),
    );
    let names: Vec<String> = (0..SEGMENTS).map(|i| format!("s{i}")).collect();
    for name in &names {
        deep.backup("t", seg(name, ROWS)).unwrap();
    }
    // a fresh replacement server comes up empty behind the broker
    let broker = Broker::new(vec![ServerNode::new(0)]);
    broker.register_table("t", false);
    let q = Query::select_all("t").aggregate("n", AggFn::Count);
    let (_, mttr) = time_it(|| {
        for name in &names {
            let recovered = deep.recover("t", name, &[]).unwrap();
            broker.place_segment("t", recovered, None, 1).unwrap();
        }
        assert_eq!(
            broker.query(&q).unwrap().rows[0].get_int("n"),
            Some((SEGMENTS * ROWS) as i64)
        );
    });
    report(
        "segment-loss MTTR",
        format!(
            "{SEGMENTS} segments x {ROWS} rows rebuilt from deep store to full query service in {:.1} ms ({:.2} ms/segment)",
            mttr.as_secs_f64() * 1e3,
            mttr.as_secs_f64() * 1e3 / SEGMENTS as f64,
        ),
    );
}

fn replication_catchup_mttr() {
    const BACKLOG: usize = 20_000;
    chaos::registry().reset(0xE23B);
    let topo = MultiRegionTopology::new(
        &["west", "east"],
        "trips",
        TopicConfig::default().with_partitions(4),
    )
    .unwrap();
    for i in 0..BACKLOG {
        topo.produce(
            "west",
            Record::new(Row::new().with("i", i as i64), i as i64).with_key(format!("k{i}")),
            i as i64,
        )
        .unwrap();
    }
    // the cross-region link is dead: replication makes no progress
    chaos::registry().arm(
        FaultPoint::MultiregionReplicate,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::Always),
    );
    assert_eq!(topo.replicate(100), 0);
    // the link heals: measure catching up the whole backlog
    chaos::registry().disarm_all();
    let (copied, mttr) = time_it(|| topo.replicate(200));
    assert_eq!(copied, 2 * BACKLOG as u64, "both aggregates catch up");
    report(
        "replication catch-up MTTR",
        format!(
            "{BACKLOG}-record backlog after link outage drained in {:.1} ms ({:.0} krec/s)",
            mttr.as_secs_f64() * 1e3,
            copied as f64 / mttr.as_secs_f64() / 1e3,
        ),
    );
}

fn dlq_drain_mttr() {
    const PARKED: usize = 1_000;
    let cluster = Cluster::new("c1", ClusterConfig::default());
    cluster
        .create_topic("trips", TopicConfig::default().with_partitions(4))
        .unwrap();
    let dlq = DeadLetterQueue::new("trips").unwrap();
    for i in 0..PARKED {
        dlq.park(
            Record::new(Row::new().with("i", i as i64), 0).with_key(format!("k{i}")),
            ParkReason::RetriesExhausted,
            "downstream outage",
            0,
        );
    }
    let (merged, mttr) = time_it(|| dlq.merge(&*cluster, 10).unwrap());
    assert_eq!(merged, PARKED);
    assert_eq!(dlq.depth(), 0);
    report(
        "DLQ drain MTTR",
        format!(
            "{PARKED} parked records republished after downstream fix in {:.1} ms",
            mttr.as_secs_f64() * 1e3,
        ),
    );
}

fn bench(c: &mut Criterion) {
    report_header(
        "E23 chaos MTTR: recovery time under injected faults",
        "deterministic fault injection at named points; every layer returns \
         to full service via shared retry/backoff policies, checkpoint \
         restart or degraded serving — recovery time is measured, not hoped",
    );
    compute_restart_mttr();
    producer_outage_mttr();
    segment_loss_mttr();
    replication_catchup_mttr();
    dlq_drain_mttr();

    // the acceptance gate for leaving fault points compiled into hot
    // paths: a disarmed check is one relaxed atomic load
    let mut g = c.benchmark_group("e23");
    g.bench_function("disarmed_fault_check", |b| {
        b.iter(|| chaos::check(FaultPoint::StreamAppend).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
