//! Overload soak: seeded burst traffic at 1×/2×/5×/10× of sustained
//! capacity driven through both admission points — producer topic quotas
//! at the edge, then the consumer proxy's tenant quotas and queue-depth
//! watermarks — plus a deadline-bounded broker scatter, all on the
//! injectable clock.
//!
//! The invariant is exact accounting at every layer: offered = accepted +
//! shed at the producer edge, accepted = delivered + parked at the proxy,
//! and the admission controller's own ledger balances (`offered ==
//! admitted + shed_total`). Nothing panics, nothing is silently dropped.
//! Every test runs the same soak twice with the same seed and asserts the
//! printed `OVERLOAD_SUMMARY` is byte-identical; `ci.sh` additionally
//! diffs the summaries between two separate processes for two fixed
//! seeds.

use rtdi::common::record::headers;
use rtdi::common::{
    AdmissionConfig, AdmissionController, AggFn, Clock, Deadline, Error, FieldType, Priority,
    Quota, Record, Row, Schema, SimClock, Timestamp,
};
use rtdi::olap::broker::{Broker, ServerNode};
use rtdi::olap::query::Query;
use rtdi::olap::segment::{IndexSpec, Segment};
use rtdi::olap::table::{OlapTable, TableConfig};
use rtdi::stream::cluster::{Cluster, ClusterConfig};
use rtdi::stream::consumer::{ConsumerGroup, TopicSubscription};
use rtdi::stream::dlq::{DeadLetterQueue, ParkReason};
use rtdi::stream::producer::{Producer, ProducerConfig};
use rtdi::stream::proxy::{ConsumerProxy, DispatchMode, ProxyConfig};
use rtdi::stream::topic::{Topic, TopicConfig};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Records per phase at 1× offered load.
const BASE: usize = 20;
const TENANTS: [&str; 3] = ["driver-app", "eats-app", "rider-app"];
/// The burst plan: sustained, then 2×, 5×, 10×, then recovery.
const MULTIPLIERS: [usize; 5] = [1, 2, 5, 10, 1];

/// Deterministic generator for the burst plan (same mix as the chaos
/// layer's seeding; local copy because the soak must not depend on
/// chaos internals).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<'a>(&mut self, xs: &'a [&'a str]) -> &'a str {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// A clock that advances a fixed step on every read, so query deadlines
/// expire mid-scatter deterministically without sleeping.
struct TickClock {
    now: AtomicI64,
    step: i64,
}

impl Clock for TickClock {
    fn now(&self) -> Timestamp {
        self.now.fetch_add(self.step, Ordering::Relaxed) + self.step
    }
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

/// Drive the seeded burst plan through producer quotas, proxy admission
/// and a deadline-bounded broker query; assert every accounting
/// invariant and return the byte-stable summary.
fn soak(seed: u64) -> String {
    let mut rng = SplitMix64(seed);
    let mut out = format!("seed={seed}\n");

    let clock = Arc::new(SimClock::new(0));
    let cluster = Cluster::new("soak", ClusterConfig::default());
    cluster
        .create_topic("trips", TopicConfig::default().with_partitions(2))
        .unwrap();
    // one producer per tenant service, each behind the same edge quota —
    // the paper's Kafka-side client quotas
    let producers: Vec<(&str, Producer)> = TENANTS
        .iter()
        .map(|svc| {
            let p = Producer::with_clock(
                cluster.clone(),
                ProducerConfig {
                    service: (*svc).into(),
                    ..Default::default()
                },
                clock.clone(),
            );
            p.set_topic_quota("trips", Quota::per_sec(40).with_burst(50));
            (*svc, p)
        })
        .collect();

    // the proxy's admission gate: tenant quotas plus lag-fed watermarks
    // small enough that the 10× burst trips the high watermark
    let admission = Arc::new(AdmissionController::new(
        clock.clone(),
        AdmissionConfig {
            max_in_flight: 64,
            queue_high_watermark: 150,
            queue_low_watermark: 60,
            default_tenant_quota: Some(Quota::per_sec(30).with_burst(40)),
        },
    ));
    let dlq = Arc::new(DeadLetterQueue::new("trips").unwrap());
    let proxy = ConsumerProxy::new(
        ProxyConfig {
            // serial dispatch: admit order, and therefore the summary,
            // is exact
            mode: DispatchMode::Poll,
            max_attempts: 2,
            poll_batch: 32,
            admission: Some(admission.clone()),
            max_in_flight: 64,
        },
        Arc::new(|_: &Record| Ok(())),
        dlq.clone(),
    );
    let group = ConsumerGroup::new(
        "soak",
        TopicSubscription::new(cluster.topic("trips").unwrap()),
    );

    let (mut offered_total, mut accepted_total, mut delivered_total) = (0u64, 0u64, 0u64);
    let mut prev_depth = 0u64;
    for (phase, mult) in MULTIPLIERS.iter().enumerate() {
        // each phase starts a fresh second: both edge and proxy token
        // buckets refill by exactly one second's rate
        clock.advance(1_000);
        let offered = (BASE * mult) as u64;
        let (mut accepted, mut shed_edge) = (0u64, 0u64);
        for i in 0..offered {
            let tenant = rng.pick(&TENANTS);
            let producer = &producers.iter().find(|(s, _)| *s == tenant).unwrap().1;
            let rec = Record::new(
                Row::new().with("i", i as i64).with("phase", phase as i64),
                clock.now(),
            )
            .with_key(format!("p{phase}-{i}"));
            match producer.send("trips", rec) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    assert!(
                        matches!(e, rtdi::common::Error::Overloaded(_)),
                        "edge refusal must be Overloaded, got {e}"
                    );
                    assert!(e.is_retryable(), "overload must invite retry-with-backoff");
                    shed_edge += 1;
                }
            }
        }
        assert_eq!(offered, accepted + shed_edge, "edge accounting (exact)");

        let stats = proxy.run_until_caught_up(&group).unwrap();
        let parked = dlq.depth() as u64 - prev_depth;
        prev_depth = dlq.depth() as u64;
        assert_eq!(
            accepted,
            stats.delivered + stats.dead_lettered + stats.shed,
            "proxy accounting (exact)"
        );
        assert_eq!(stats.dead_lettered, 0, "a healthy service never parks");
        assert_eq!(
            parked, stats.shed,
            "every shed record is parked, none dropped"
        );
        offered_total += offered;
        accepted_total += accepted;
        delivered_total += stats.delivered;
        out.push_str(&format!(
            "phase={phase} mult={mult} offered={offered} accepted={accepted} shed_edge={shed_edge} delivered={} shed_proxy={} parked={parked}\n",
            stats.delivered, stats.shed
        ));
    }

    // the global ledger balances: offered = processed + shed, end to end
    let s = admission.stats();
    assert_eq!(
        s.offered, accepted_total,
        "proxy offered all accepted records"
    );
    assert_eq!(s.offered, s.admitted + s.shed_total(), "admission ledger");
    assert_eq!(s.admitted, delivered_total);
    assert_eq!(
        offered_total,
        delivered_total + (offered_total - accepted_total) + s.shed_total(),
        "end-to-end: offered = delivered + shed_edge + shed_proxy"
    );
    assert!(s.shed_queue > 0, "the 10x burst must trip the watermark");
    assert!(s.shed_quota > 0, "the burst must exhaust tenant buckets");
    // shed work parks under Overload — replayable, not lost
    for rec in dlq.peek(dlq.depth()) {
        assert_eq!(
            rec.headers.get(headers::DLQ_REASON),
            Some(ParkReason::Overload.as_str())
        );
    }
    out.push_str(&admission.summary());

    // --- query side: a deadline-bounded scatter sheds trailing segments
    // as a partial answer instead of missing its budget
    let servers: Vec<Arc<ServerNode>> = (0..2).map(ServerNode::new).collect();
    let broker = Broker::new(servers);
    broker.register_table("cities", false);
    for i in 0..6 {
        broker
            .place_segment("cities", seg(&format!("s{i}"), 50), None, 1)
            .unwrap();
    }
    let qclock = Arc::new(TickClock {
        now: AtomicI64::new(0),
        step: 10,
    });
    let q = Query::select_all("cities")
        .aggregate("n", AggFn::Count)
        .with_deadline(Deadline::within_ms(qclock, 35))
        .lane(Priority::Backfill); // serial lane: deterministic shed order
    let res = broker.query(&q).unwrap();
    assert!(
        res.ledger.deadline_exceeded,
        "the ticking clock must blow the budget"
    );
    assert!(res.ledger.segments_shed > 0 && res.ledger.partial());
    let n = res.rows[0].get_int("n").unwrap();
    assert!(n > 0 && n < 300, "partial count, got {n}");
    out.push_str(&format!(
        "query rows={n} segments_shed={} deadline_exceeded={}\n",
        res.ledger.segments_shed, res.ledger.deadline_exceeded
    ));
    out
}

/// Run one seed twice; the summary must be byte-identical.
fn soak_twice(seed: u64) -> String {
    let first = soak(seed);
    let second = soak(seed);
    assert_eq!(
        first, second,
        "same seed must reproduce a byte-identical overload summary"
    );
    assert!(first.starts_with(&format!("seed={seed}")));
    first
}

#[test]
fn burst_soak_is_survivable_and_deterministic() {
    soak_twice(0x0FFE12ED);
}

#[test]
fn burst_soak_alternate_seed() {
    soak_twice(0x5A70FFE);
}

/// Satellite: under a seeded burst plan driven straight at the proxy,
/// quota rejection + DLQ `Overload` parks satisfy offered = delivered +
/// parked *exactly*, across 3 seeds.
#[test]
fn offered_equals_delivered_plus_parked_across_seeds() {
    for seed in [1u64, 0xFEED, 0xDEAD_BEEF] {
        let mut rng = SplitMix64(seed);
        let topic =
            Arc::new(Topic::new("trips", TopicConfig::default().with_partitions(2)).unwrap());
        let mut offered = 0u64;
        for burst in 0..4 {
            let n = 10 + rng.next() % 90;
            for i in 0..n {
                let mut r = Record::new(Row::new().with("i", i as i64), burst * 1_000)
                    .with_key(format!("b{burst}-{i}"));
                r.audit_mut().service = Some(rng.pick(&TENANTS).into());
                topic.append(r, burst * 1_000).unwrap();
                offered += 1;
            }
        }
        let clock = Arc::new(SimClock::new(0));
        let admission = Arc::new(AdmissionController::new(
            clock,
            AdmissionConfig {
                default_tenant_quota: Some(Quota::per_sec(15).with_burst(30)),
                ..Default::default()
            },
        ));
        let dlq = Arc::new(DeadLetterQueue::new("trips").unwrap());
        let proxy = ConsumerProxy::new(
            ProxyConfig {
                mode: DispatchMode::Poll,
                max_attempts: 2,
                poll_batch: 64,
                admission: Some(admission.clone()),
                max_in_flight: 64,
            },
            Arc::new(|_: &Record| Ok(())),
            dlq.clone(),
        );
        let group = ConsumerGroup::new("prop", TopicSubscription::new(topic));
        let stats = proxy.run_until_caught_up(&group).unwrap();
        assert_eq!(
            stats.delivered + dlq.depth() as u64,
            offered,
            "seed {seed:#x}: offered = delivered + parked, exactly"
        );
        assert_eq!(stats.dead_lettered, 0);
        assert!(stats.shed > 0, "seed {seed:#x}: the burst must shed");
        assert_eq!(stats.shed, dlq.depth() as u64);
        let s = admission.stats();
        assert_eq!(s.offered, offered);
        assert_eq!(s.offered, s.admitted + s.shed_total());
    }
}

/// The broker's own admission gate, keyed by table (the tenant) and the
/// query's lane: over the high watermark every lane is refused and stays
/// refused until the depth falls below the low one; between the two only
/// the backfill lane is. A refused query is `Error::Overloaded`, and the
/// controller's ledger balances.
#[test]
fn broker_admission_sheds_every_lane_over_the_high_watermark_and_backfill_first() {
    let servers: Vec<Arc<ServerNode>> = (0..2).map(ServerNode::new).collect();
    let broker = Broker::new(servers);
    broker.register_table("cities", false);
    for i in 0..3 {
        broker
            .place_segment("cities", seg(&format!("s{i}"), 50), None, 1)
            .unwrap();
    }
    let admission = Arc::new(AdmissionController::new(
        Arc::new(SimClock::new(0)),
        AdmissionConfig {
            queue_high_watermark: 8,
            queue_low_watermark: 4,
            ..Default::default()
        },
    ));
    broker.set_admission(admission.clone());
    let interactive = Query::select_all("cities").aggregate("n", AggFn::Count);
    let backfill = interactive.clone().lane(Priority::Backfill);
    let refused = |q: &Query| match broker.query(q) {
        Ok(res) => {
            assert_eq!(res.rows[0].get_int("n"), Some(150));
            false
        }
        Err(e) => {
            assert!(matches!(e, Error::Overloaded(_)), "{e}");
            true
        }
    };
    assert!(!refused(&interactive) && !refused(&backfill));
    admission.set_queue_depth(9);
    assert!(refused(&interactive) && refused(&backfill));
    // hysteresis: between the watermarks the latch holds
    admission.set_queue_depth(6);
    assert!(refused(&interactive));
    admission.set_queue_depth(3);
    assert!(!refused(&interactive));
    // released, between the watermarks only the backfill lane sheds
    admission.set_queue_depth(6);
    assert!(refused(&backfill) && !refused(&interactive));
    let s = admission.stats();
    assert_eq!((s.offered, s.admitted), (8, 4));
    assert_eq!(s.offered, s.admitted + s.shed_total());
}

/// ci.sh hook: the seed comes from `RTDI_OVERLOAD_SEED` and the summary
/// is printed so two separate processes can be diffed line-by-line.
#[test]
fn soak_env_seed_prints_summary() {
    let seed = std::env::var("RTDI_OVERLOAD_SEED")
        .ok()
        .and_then(|s| {
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(0x0FFE12ED);
    let summary = soak_twice(seed);
    for line in summary.lines() {
        println!("OVERLOAD_SUMMARY {line}");
    }
}

/// What a deadline-bounded answer covered: `(rows, segments_queried,
/// segments_shed, deadline_exceeded)`.
type Covered = (usize, u64, u64, bool);

fn trips_schema() -> Schema {
    Schema::of(
        "trips",
        &[("city", FieldType::Str), ("ts", FieldType::Timestamp)],
    )
}

fn trips(ts: std::ops::Range<i64>) -> Vec<Row> {
    ts.map(|t| {
        Row::new()
            .with("city", ["sf", "la"][(t % 2) as usize])
            .with("ts", t)
    })
    .collect()
}

fn ticking(expires_at: Timestamp) -> Deadline {
    let clock = Arc::new(TickClock {
        now: AtomicI64::new(0),
        step: 10,
    });
    Deadline::at(clock, expires_at)
}

/// Every deadline read advances the `TickClock`, so how often and in what
/// order the table reads it per segment is what these numbers pin: one
/// read per consuming segment (partition order, before any sealed one),
/// one per sealed segment served (partition order, seal order within), two
/// per sealed segment shed (the refusal reads the clock for its message).
#[test]
fn table_deadline_accounting_is_pinned() {
    let table = OlapTable::new(
        TableConfig::new("trips", trips_schema())
            .with_partitions(2)
            .with_segment_rows(10)
            .with_query_threads(1),
    )
    .unwrap();
    // per partition: two sealed segments of 10 rows and a consuming tail of 5
    for (i, row) in trips(0..50).into_iter().enumerate() {
        table.ingest(i % 2, row).unwrap();
    }
    let count = Query::select_all("trips").aggregate("n", AggFn::Count);
    let select = Query::select_all("trips").columns(&["ts"]);
    let run = |q: &Query, expires_at| -> Option<Covered> {
        let res = table.query(&q.clone().with_deadline(ticking(expires_at)));
        match res {
            Ok(res) => {
                let rows = match res.rows.first().and_then(|r| r.get_int("n")) {
                    Some(n) => n as usize,
                    None => res.rows.len(),
                };
                assert_eq!(res.ledger.partial(), res.ledger.deadline_exceeded);
                Some((
                    rows,
                    res.ledger.segments_queried,
                    res.ledger.segments_shed,
                    res.ledger.deadline_exceeded,
                ))
            }
            Err(e) => {
                assert!(matches!(e, rtdi::common::Error::DeadlineExceeded(_)), "{e}");
                None
            }
        }
    };
    for q in [&count, &select] {
        // reads at 10, 20 (tails), 30..60 (sealed): nothing is shed
        assert_eq!(run(q, 65), Some((50, 6, 0, false)));
        // the budget ends between the second and third sealed segment
        assert_eq!(run(q, 45), Some((30, 4, 2, true)));
        // ... between the two tails: fresh data first, one tail answers
        assert_eq!(run(q, 15), Some((5, 1, 5, true)));
        // spent before the first read: an error, not an empty answer
        assert_eq!(run(q, 5), None);
    }
}

/// The hybrid table splits the budget: the offline slice runs first on
/// half of what is left, the realtime slice on the caller's deadline. The
/// split itself reads the clock twice (10, 20), the offline slice once per
/// segment served and twice per segment shed, then the realtime table as
/// pinned above.
#[test]
fn hybrid_deadline_accounting_is_pinned() {
    use rtdi::sql::catalog::{HybridTable, RealtimeSide};
    use rtdi::sql::connector::{Pushdown, PushedAgg};
    // `archives` offline segments of 10 rows, then a realtime table past
    // the boundary: three sealed segments of 10 and a consuming tail of 5
    let hybrid = |archives: i64| {
        let boundary = archives * 10;
        let table = OlapTable::new(
            TableConfig::new("trips", trips_schema())
                .with_partitions(1)
                .with_segment_rows(10)
                .with_time_column("ts")
                .with_query_threads(1),
        )
        .unwrap();
        for row in trips(boundary..boundary + 35) {
            table.ingest(0, row).unwrap();
        }
        let hybrid = HybridTable::new("trips", trips_schema(), "ts", RealtimeSide::Direct(table))
            .with_query_threads(1);
        for a in 0..archives {
            let seg = Segment::build(
                format!("off_{a}"),
                &trips_schema(),
                trips(a * 10..a * 10 + 10),
                &IndexSpec::none(),
            )
            .unwrap();
            let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
            hybrid
                .register_offline_segment(Arc::new(lazy), None)
                .unwrap();
        }
        hybrid
    };
    let count = Pushdown {
        aggregation: Some(PushedAgg {
            group_by: Arc::new(vec![]),
            aggs: Arc::new(vec![("n".into(), AggFn::Count)]),
        }),
        ..Default::default()
    };
    let select = Pushdown {
        projection: Some(Arc::new(vec!["ts".into()])),
        ..Default::default()
    };
    let run = |archives: i64, pd: &Pushdown, expires_at| -> Option<Covered> {
        let pd = Pushdown {
            deadline: Some(ticking(expires_at)),
            ..pd.clone()
        };
        let out = hybrid(archives).scan(&pd).ok()?;
        let rows = match out.rows.first().and_then(|r| r.get_int("n")) {
            Some(n) => n as usize,
            None => out.rows.len(),
        };
        assert_eq!(out.ledger.partial(), out.ledger.deadline_exceeded);
        Some((
            rows,
            out.ledger.segments_queried,
            out.ledger.segments_shed,
            out.ledger.deadline_exceeded,
        ))
    };
    for pd in [&count, &select] {
        // budget 100 at the split: the offline slice gets 10 + 80/2 = 50,
        // serves two archives (30, 40) and sheds the third (50, 60); the
        // realtime side serves its tail (70) and two sealed segments (80,
        // 90) and sheds the last (100)
        assert_eq!(run(3, pd, 100), Some((45, 5, 2, true)));
        // a roomy budget serves all seven segments
        assert_eq!(run(3, pd, 1000), Some((65, 7, 0, false)));
        // budget 60: the offline slice gets 30 and its one archive is shed
        // at its first read (30, 40); the realtime side still answers from
        // its tail (50) and sheds its sealed segments
        assert_eq!(run(1, pd, 60), Some((5, 1, 4, true)));
        // budget 70: the offline slice gets 35, serves one archive (30) and
        // sheds two (40, 50; 60, 70); every realtime read is past 70, and a
        // realtime side shed whole still lets the archive answer go out
        // (how many segments that side counts as shed is its own business)
        let (rows, queried, shed, exceeded) = run(3, pd, 70).unwrap();
        assert_eq!((rows, queried, exceeded), (10, 1, true));
        assert!(shed >= 2, "the offline slice alone shed two, got {shed}");
        // nothing served on either side is an error
        assert_eq!(run(3, pd, 20), None);
    }
}
