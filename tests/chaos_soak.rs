//! Chaos soak: the full pipeline — producer, consumer proxy, stateful
//! compute under supervision, OLAP ingestion, broker scatter-gather and
//! archival — driven under seeded, deterministic fault plans.
//!
//! Every test runs the same soak twice with the same seed and asserts the
//! recorded fault schedule is byte-identical: the chaos layer never uses
//! wall-clock or ambient randomness, so a failure seen once can always be
//! replayed. `ci.sh` additionally diffs the printed `CHAOS_SUMMARY` lines
//! between two separate processes for three fixed seeds.

use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi::common::{AggFn, FieldType, Record, Row, Schema, SimClock};
use rtdi::core::platform::RealtimePlatform;
use rtdi::flinksql::compiler::CompileOptions;
use rtdi::olap::broker::{Broker, ServerNode};
use rtdi::olap::query::Query;
use rtdi::olap::segment::{IndexSpec, Segment};
use rtdi::olap::table::TableConfig;
use rtdi::stream::consumer::ConsumerGroup;
use rtdi::stream::dlq::DeadLetterQueue;
use rtdi::stream::proxy::{ConsumerProxy, DispatchMode, ProxyConfig};
use rtdi::stream::topic::TopicConfig;
use std::sync::Arc;

const RECORDS: usize = 200;

fn trips_schema() -> Schema {
    Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    )
}

fn seg(name: &str, n: usize) -> Arc<Segment> {
    let schema = Schema::of("cities", &[("city", FieldType::Str), ("v", FieldType::Int)]);
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            Row::new()
                .with("city", ["sf", "la"][i % 2])
                .with("v", i as i64)
        })
        .collect();
    Arc::new(Segment::build(name, &schema, rows, &IndexSpec::none()).unwrap())
}

/// One named fault plan per layer of the pipeline.
struct FaultMix {
    append: FaultPlan,
    dispatch: FaultPlan,
    compute: FaultPlan,
    serve: FaultPlan,
    archive_put: FaultPlan,
}

/// Every-Nth faults on every layer; the compute job crashes once mid-run.
fn mix_every_nth() -> FaultMix {
    FaultMix {
        append: FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(7)),
        dispatch: FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(5)),
        compute: FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Always)
            .with_burst(50, Some(1)),
        serve: FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(3)),
        archive_put: FaultPlan::fail(FaultKind::Unavailable, Trigger::Always)
            .with_burst(0, Some(1)),
    }
}

/// Probabilistic faults where a retry budget backs the caller, plus
/// latency injection on segment serving.
fn mix_probabilistic() -> FaultMix {
    FaultMix {
        append: FaultPlan::fail(FaultKind::Unavailable, Trigger::Probability(0.08)),
        dispatch: FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Probability(0.05)),
        compute: FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Always)
            .with_burst(120, Some(1)),
        serve: FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(2)).with_latency_us(200),
        archive_put: FaultPlan::fail(FaultKind::Unavailable, Trigger::Always)
            .with_burst(0, Some(1)),
    }
}

/// Burst windows: consecutive failures that exactly exhaust (but never
/// exceed) the retry budgets, and a compute job that crashes twice.
fn mix_bursty() -> FaultMix {
    FaultMix {
        append: FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(100, Some(3)),
        dispatch: FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(6)),
        compute: FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Always)
            .with_burst(30, Some(2)),
        serve: FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(4)),
        archive_put: FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(0, Some(2)),
    }
}

/// Run the full pipeline under `mix` with `seed`, assert every soak
/// invariant (zero loss, green health, degraded-not-failed broker,
/// bounded retries) and return the recorded fault schedule.
fn soak(seed: u64, mix: FaultMix) -> String {
    let chaos = Chaos::seeded(seed);
    let clock = Arc::new(SimClock::new(1_000_000));
    let p = RealtimePlatform::with_chaos(clock, chaos.clone());
    p.create_topic(
        "trips",
        TopicConfig::default().with_partitions(2),
        trips_schema(),
    )
    .unwrap();
    chaos.arm(FaultPoint::StreamAppend, mix.append);
    chaos.arm(FaultPoint::ProxyDispatch, mix.dispatch);
    chaos.arm(FaultPoint::ComputeProcess, mix.compute);

    // --- produce through injected stream.append faults: the producer's
    // retry policy absorbs every one of them
    let producer = p.producer("chaos-soak");
    for i in 0..RECORDS {
        producer
            .send(
                "trips",
                Record::new(
                    Row::new()
                        .with("city", ["sf", "la"][i % 2])
                        .with("fare", 10.0 + (i % 5) as f64)
                        .with("ts", (i as i64) * 100),
                    (i as i64) * 100,
                )
                .with_key(format!("t{i}")),
            )
            .expect("producer retries absorb injected append faults");
    }

    // --- consumer proxy under injected dispatch faults: transient, so
    // everything is delivered and nothing is dead-lettered
    let group = ConsumerGroup::new("soak", p.federation().subscribe("trips").unwrap());
    let dlq = Arc::new(DeadLetterQueue::new("trips").unwrap());
    let proxy = ConsumerProxy::new(
        ProxyConfig {
            mode: DispatchMode::Poll,
            max_attempts: 4,
            poll_batch: 64,
            ..Default::default()
        },
        Arc::new(|_: &Record| Ok(())),
        dlq.clone(),
    )
    .with_chaos(chaos.clone());
    let stats = proxy.run_until_caught_up(&group).unwrap();
    assert_eq!(stats.delivered as usize, RECORDS, "proxy delivered all");
    assert_eq!(stats.dead_lettered, 0, "transient faults never park");
    assert_eq!(dlq.depth(), 0);

    // --- OLAP ingestion (audited by Chaperone against the stream hop)
    let table = p
        .create_olap_table(
            TableConfig::new("trips", trips_schema())
                .with_time_column("ts")
                .with_partitions(2),
        )
        .unwrap();
    let mut ing = p.ingest_into("trips", table).unwrap();
    assert_eq!(ing.run_once().unwrap() as usize, RECORDS);

    // --- supervised stateful compute: the injected compute.process crash
    // kills the run; the job manager restarts from the last checkpoint and
    // the windowed state comes back exactly once
    let stats_schema = Schema::of(
        "trip_stats",
        &[
            ("city", FieldType::Str),
            ("w", FieldType::Timestamp),
            ("trips", FieldType::Int),
            ("ingest_ts", FieldType::Timestamp),
        ],
    );
    let sink_table = p
        .create_olap_table(
            TableConfig::new("trip_stats", stats_schema)
                .with_time_column("ingest_ts")
                .with_partitions(2),
        )
        .unwrap();
    let job_stats = p
        .deploy_sql_pipeline(
            "trip-windows",
            "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips \
             FROM trips GROUP BY city, TUMBLE(ts, 1000)",
            "trips",
            sink_table.clone(),
            &CompileOptions::default(),
        )
        .expect("supervision recovers the crashed job");
    assert!(job_stats.records_in as usize >= RECORDS);
    let restarts = p.job_manager().status("trip-windows").unwrap().restarts;
    assert!(restarts >= 1, "injected crash must force a restart");
    let q = Query::select_all("trip_stats").aggregate("total", AggFn::Sum("trips".into()));
    assert_eq!(
        sink_table.query(&q).unwrap().rows[0].get_double("total"),
        Some(RECORDS as f64),
        "exactly-once window state after crash recovery"
    );

    // --- broker degradation: one server down plus injected segment-serve
    // faults yields a partial answer, never an error
    let servers: Vec<Arc<ServerNode>> = (0..3)
        .map(|i| ServerNode::with_chaos(i, chaos.clone()))
        .collect();
    let broker = Broker::new(servers);
    broker.register_table("cities", false);
    for i in 0..4 {
        broker
            .place_segment("cities", seg(&format!("s{i}"), 100), None, 1)
            .unwrap();
    }
    chaos.arm(FaultPoint::OlapSegmentServe, mix.serve);
    broker.servers()[1].set_down(true);
    let cq = Query::select_all("cities").aggregate("n", AggFn::Count);
    let degraded = broker
        .query(&cq)
        .expect("degraded service, not an outage: partial beats Err");
    assert!(
        degraded.ledger.partial(),
        "faults must flag the answer partial"
    );
    assert!(degraded.ledger.segments_unavailable > 0);
    let n = degraded.rows[0].get_int("n").unwrap();
    assert!(n > 0 && n < 400, "partial count, got {n}");
    // the server heals and the faults stop: full service resumes
    chaos.disarm(FaultPoint::OlapSegmentServe);
    broker.servers()[1].set_down(false);
    let healed = broker.query(&cq).unwrap();
    assert!(!healed.ledger.partial());
    assert_eq!(healed.rows[0].get_int("n"), Some(400));

    // --- archival through injected storage.object_put faults
    chaos.arm(FaultPoint::StorageObjectPut, mix.archive_put);
    assert_eq!(p.archive_topic("trips", &trips_schema()).unwrap(), RECORDS);
    let (_, put_fires) = chaos.stats(FaultPoint::StorageObjectPut);
    assert!(put_fires >= 1, "archival fault plan must have fired");

    // --- green health: per-stage freshness traced, Chaperone audits clean
    let health = p.health();
    let audit = health
        .audits
        .iter()
        .find(|a| a.pipeline == "trips")
        .expect("stream->ingested hop audited");
    assert_eq!(audit.lost, 0, "chaos must not lose records");
    assert_eq!(audit.duplicated, 0, "chaos must not duplicate records");
    assert!(health.zero_loss());

    // --- retries happened, and stayed within a sane bound: the producer's
    // and the proxy's, the two retry loops the plans reach
    let retries = producer.retries() + stats.retried;
    assert!(retries > 0, "fault plans must exercise the retry paths");
    assert!(retries < 1_000, "retry storm: {retries} retries");

    chaos.schedule_summary()
}

/// Run one seed twice; the fault schedule must be byte-identical.
fn soak_twice(seed: u64, mk: fn() -> FaultMix) -> String {
    let first = soak(seed, mk());
    let second = soak(seed, mk());
    assert_eq!(
        first, second,
        "same seed must reproduce a byte-identical fault schedule"
    );
    assert!(first.starts_with(&format!("seed={seed}")));
    first
}

#[test]
fn soak_every_nth_plan_is_survivable_and_deterministic() {
    soak_twice(0xA11CE, mix_every_nth);
}

#[test]
fn soak_probabilistic_plan_is_survivable_and_deterministic() {
    soak_twice(0xB0B5EED, mix_probabilistic);
}

#[test]
fn soak_bursty_plan_is_survivable_and_deterministic() {
    soak_twice(0xC4A05C4, mix_bursty);
}

/// ci.sh hook: the seed comes from `RTDI_CHAOS_SEED`, and the schedule is
/// printed so two separate processes can be diffed line-by-line.
#[test]
fn soak_env_seed_prints_schedule() {
    let seed = std::env::var("RTDI_CHAOS_SEED")
        .ok()
        .and_then(|s| {
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(0xA11CE);
    let summary = soak_twice(seed, mix_every_nth);
    for line in summary.lines() {
        println!("CHAOS_SUMMARY {line}");
    }
}
