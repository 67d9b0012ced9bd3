//! Hybrid-table federation correctness properties.
//!
//! The invariant under test: for any split of a dataset into an offline
//! archive (authoritative up to the time boundary) and a realtime store
//! (fresh, overlapping the archive's tail), every federated query answer
//! is identical to the same query over a single full-scan table holding
//! exactly one copy of every row. Cases cover boundary-straddling
//! windows, windows entirely on one side, empty sides, partitioned
//! archives, and replays through the freshness-aware result cache across
//! seal/compaction invalidation.
//!
//! No proptest in the offline container: a deterministic seeded-PRNG
//! harness generates the cases, and any failure message carries the case
//! number so it replays exactly. `ci.sh` additionally diffs the printed
//! `FED_SUMMARY` lines between two separate processes per seed (cache
//! hits included), proving cached and uncached executions byte-agree.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::{AggFn, FieldType, Row, Schema};
use rtdi::olap::broker::{Broker, ServerNode};
use rtdi::olap::query::{Predicate, PredicateOp, Query, ScanLedger};
use rtdi::olap::segment::{IndexSpec, LazySegment, Segment};
use rtdi::olap::table::{OlapTable, TableConfig};
use rtdi::sql::catalog::{HybridTable, RealtimeSide};
use rtdi::sql::connector::{Pushdown, PushedAgg, ScanOutput};
use std::sync::Arc;

const SEED_FED: u64 = 0xFED_2021;
const PARTITIONS: usize = 4;

fn schema() -> Schema {
    Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("ts", FieldType::Timestamp),
            ("fare", FieldType::Double),
        ],
    )
}

/// Integer-valued fares keep every SUM/AVG exact in f64, so federated
/// and single-scan answers are bit-identical regardless of merge order.
fn arb_row(rng: &mut StdRng) -> Row {
    let mut row = Row::new()
        .with("city", format!("c{}", rng.gen_range(0..5u8)))
        .with("ts", rng.gen_range(0..400i64));
    if rng.gen_bool(0.9) {
        row.push("fare", rng.gen_range(0..1000i64) as f64);
    }
    row
}

fn lazy(name: &str, rows: Vec<Row>) -> Arc<LazySegment> {
    let seg = Segment::build(name, &schema(), rows, &IndexSpec::none()).unwrap();
    Arc::new(Segment::load_lazy(seg.persist().unwrap()).unwrap())
}

fn partition_of(row: &Row) -> usize {
    (row.get("city").unwrap().partition_hash() % PARTITIONS as u64) as usize
}

/// One generated dataset: a hybrid table plus the row sets behind it.
struct FedCase {
    hybrid: HybridTable,
    offline: Vec<Row>,
    realtime: Vec<Row>,
    /// Exactly one copy of every row the federation must see.
    reference: Vec<Row>,
}

/// The federation contract, stated over raw rows: the offline side is
/// authoritative up to its newest timestamp; the realtime side serves
/// only what lies past that.
fn semantic_reference(offline: &[Row], realtime: &[Row]) -> Vec<Row> {
    let boundary = offline.iter().map(|r| r.get_int("ts").unwrap()).max();
    offline
        .iter()
        .cloned()
        .chain(
            realtime
                .iter()
                .filter(|r| boundary.is_none_or(|b| r.get_int("ts").unwrap() > b))
                .cloned(),
        )
        .collect()
}

fn arb_case(rng: &mut StdRng) -> FedCase {
    let n = rng.gen_range(50..300usize);
    let rows: Vec<Row> = (0..n).map(|_| arb_row(rng)).collect();
    let boundary = rng.gen_range(50..350i64);
    let overlap = rng.gen_range(0..80i64);
    let partitioned = rng.gen_bool(0.5);
    let no_offline = rng.gen_bool(0.15);
    let no_realtime = rng.gen_bool(0.15);

    let mut offline: Vec<Row> = Vec::new();
    let mut realtime: Vec<Row> = Vec::new();
    for row in rows {
        let ts = row.get_int("ts").unwrap();
        // the realtime store re-sees the archive's tail — the boundary
        // must dedup this overlap
        if !no_offline && ts <= boundary {
            offline.push(row.clone());
        }
        if !no_realtime && (ts > boundary - overlap || no_offline) {
            realtime.push(row);
        }
    }
    let reference = semantic_reference(&offline, &realtime);

    let rt = OlapTable::new(
        TableConfig::new("trips", schema())
            .with_partitions(1)
            .with_query_threads(1)
            .with_time_column("ts"),
    )
    .unwrap();
    for row in &realtime {
        rt.ingest(0, row.clone()).unwrap();
    }

    let mut hybrid =
        HybridTable::new("trips", schema(), "ts", RealtimeSide::Direct(rt)).with_query_threads(1);
    if partitioned {
        hybrid = hybrid.with_partition_spec("city", PARTITIONS);
        let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); PARTITIONS];
        for row in &offline {
            buckets[partition_of(row)].push(row.clone());
        }
        for (p, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                hybrid
                    .register_offline_segment(lazy(&format!("off_p{p}"), bucket), Some(p))
                    .unwrap();
            }
        }
    } else {
        // chunk the archive into several time-sliced segments
        let mut sorted = offline.clone();
        sorted.sort_by_key(|r| r.get_int("ts").unwrap());
        let chunks = rng.gen_range(1..4usize);
        for (i, chunk) in sorted
            .chunks(sorted.len().max(1).div_ceil(chunks))
            .enumerate()
        {
            if !chunk.is_empty() {
                hybrid
                    .register_offline_segment(lazy(&format!("off_{i}"), chunk.to_vec()), None)
                    .unwrap();
            }
        }
    }
    FedCase {
        hybrid,
        offline,
        realtime,
        reference,
    }
}

/// A random pushdown: aggregation or selection, with a random time
/// window (straddling, one-sided, unbounded, or empty) and sometimes a
/// city equality.
fn arb_pushdown(rng: &mut StdRng) -> Pushdown {
    let mut predicates = Vec::new();
    match rng.gen_range(0..5u8) {
        0 => {} // unbounded
        1 => predicates.push(Predicate::new(
            "ts",
            PredicateOp::Gt,
            rng.gen_range(0..400i64),
        )),
        2 => predicates.push(Predicate::new(
            "ts",
            PredicateOp::Le,
            rng.gen_range(0..400i64),
        )),
        _ => {
            let lo = rng.gen_range(-50..420i64);
            let hi = lo + rng.gen_range(0..200i64);
            predicates.push(Predicate::new("ts", PredicateOp::Ge, lo));
            predicates.push(Predicate::new("ts", PredicateOp::Le, hi));
        }
    }
    if rng.gen_bool(0.4) {
        predicates.push(Predicate::eq("city", format!("c{}", rng.gen_range(0..6u8))));
    }
    if rng.gen_bool(0.7) {
        let mut aggs: Vec<(String, AggFn)> = vec![("n".into(), AggFn::Count)];
        if rng.gen_bool(0.6) {
            aggs.push(("s".into(), AggFn::Sum("fare".into())));
        }
        if rng.gen_bool(0.4) {
            aggs.push(("a".into(), AggFn::Avg("fare".into())));
        }
        if rng.gen_bool(0.4) {
            aggs.push(("mn".into(), AggFn::Min("ts".into())));
            aggs.push(("mx".into(), AggFn::Max("ts".into())));
        }
        if rng.gen_bool(0.3) {
            aggs.push(("d".into(), AggFn::DistinctCount("city".into())));
        }
        let group_by = if rng.gen_bool(0.5) {
            vec!["city".to_string()]
        } else {
            vec![]
        };
        Pushdown {
            predicates: Arc::new(predicates),
            aggregation: Some(PushedAgg {
                group_by: Arc::new(group_by),
                aggs: Arc::new(aggs),
            }),
            ..Default::default()
        }
    } else {
        Pushdown {
            predicates: Arc::new(predicates),
            projection: Some(Arc::new(vec!["city".into(), "ts".into(), "fare".into()])),
            ..Default::default()
        }
    }
}

/// The reference answer: the same pushdown over a single table holding
/// exactly one copy of every row.
fn reference_answer(reference: &[Row], pushdown: &Pushdown) -> Vec<String> {
    let mut q = Query::select_all("trips");
    q.predicates = Arc::clone(&pushdown.predicates);
    if let Some(agg) = &pushdown.aggregation {
        q.aggregations = Arc::clone(&agg.aggs);
        q.group_by = Arc::clone(&agg.group_by);
    } else if let Some(proj) = &pushdown.projection {
        q.select = Arc::clone(proj);
    }
    let table = OlapTable::new(
        TableConfig::new("trips", schema())
            .with_partitions(1)
            .with_query_threads(1)
            .with_time_column("ts"),
    )
    .unwrap();
    for row in reference {
        table.ingest(0, row.clone()).unwrap();
    }
    canonical(table.query(&q).unwrap().rows)
}

/// Order-independent canonical form for multiset comparison.
fn canonical(rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn fnv(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for l in lines {
        for b in l.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0x0a;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Core property: federated == full-scan reference, uncached and cached.
#[test]
fn federated_equals_full_scan_reference() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(SEED_FED + case);
        let fed = arb_case(&mut rng);
        for qi in 0..6 {
            let pd = arb_pushdown(&mut rng);
            let expect = reference_answer(&fed.reference, &pd);
            let cold = fed.hybrid.scan(&pd).unwrap();
            assert_eq!(
                canonical(cold.rows.clone()),
                expect,
                "case {case} query {qi} diverged from reference ({pd:?})"
            );
            // the replay may hit the freshness-aware cache; it must not
            // change a single byte of the answer
            let warm = fed.hybrid.scan(&pd).unwrap();
            assert_eq!(
                canonical(warm.rows),
                expect,
                "case {case} query {qi} cached replay diverged"
            );
        }
    }
}

/// Segment events must invalidate cached slices. A compaction that
/// rewrites the same rows into one segment changes no answer but must
/// recompute it; a late archive push of genuinely new data moves the
/// boundary and must surface in the next answer.
#[test]
fn cache_invalidation_tracks_segment_events() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(SEED_FED + 0x1000 + case);
        let fed = arb_case(&mut rng);
        let pd = arb_pushdown(&mut rng);
        let before = reference_answer(&fed.reference, &pd);
        assert_eq!(canonical(fed.hybrid.scan(&pd).unwrap().rows), before);

        // compaction: the whole archive rewritten as one segment — same
        // rows, so the same answer, but never from a stale cache entry
        let v = fed.hybrid.version();
        let compacted = if fed.offline.is_empty() {
            vec![]
        } else {
            vec![(lazy("compacted", fed.offline.clone()), None)]
        };
        fed.hybrid.replace_offline_segments(compacted).unwrap();
        assert!(fed.hybrid.version() > v, "case {case}: no version bump");
        let after = fed.hybrid.scan(&pd).unwrap();
        assert!(
            !after.cache_hit,
            "case {case}: stale cache survived compaction"
        );
        assert_eq!(
            canonical(after.rows),
            before,
            "case {case}: compaction changed the answer"
        );

        // a late archive push of brand-new data: the boundary jumps past
        // every realtime row, so the archive becomes authoritative for
        // everything — exactly what semantic_reference predicts
        let fresh: Vec<Row> = (400..=429)
            .map(|ts| {
                Row::new()
                    .with("city", format!("c{}", ts % 5))
                    .with("ts", ts as i64)
                    .with("fare", (ts % 90) as f64)
            })
            .collect();
        let mut offline_after = fed.offline.clone();
        offline_after.extend(fresh.clone());
        fed.hybrid
            .register_offline_segment(lazy("late", fresh), None)
            .unwrap();
        let expect = reference_answer(&semantic_reference(&offline_after, &fed.realtime), &pd);
        let pushed = fed.hybrid.scan(&pd).unwrap();
        assert!(
            !pushed.cache_hit,
            "case {case}: stale cache survived a push"
        );
        assert_eq!(
            canonical(pushed.rows),
            expect,
            "case {case}: late push not reflected"
        );
    }
}

/// Realtime side behind a degraded scatter-gather broker: with a live
/// replica the federation still matches the reference; with data loss it
/// reports `partial` instead of failing.
#[test]
fn degraded_broker_realtime_slice() {
    let rows: Vec<Row> = (0..200i64)
        .map(|ts| {
            Row::new()
                .with("city", format!("c{}", ts % 3))
                .with("ts", ts)
                .with("fare", (ts % 50) as f64)
        })
        .collect();
    let (offline_rows, realtime_rows): (Vec<Row>, Vec<Row>) = (
        rows.iter()
            .filter(|r| r.get_int("ts").unwrap() <= 99)
            .cloned()
            .collect(),
        rows.iter()
            .filter(|r| r.get_int("ts").unwrap() > 79)
            .cloned()
            .collect(),
    );
    let pd = Pushdown {
        aggregation: Some(PushedAgg {
            group_by: Arc::new(vec![]),
            aggs: Arc::new(vec![
                ("n".into(), AggFn::Count),
                ("s".into(), AggFn::Sum("fare".into())),
            ]),
        }),
        ..Default::default()
    };
    let expect = reference_answer(&rows, &pd);

    let build_hybrid = |replication: usize| {
        let servers: Vec<Arc<ServerNode>> = (0..2).map(ServerNode::new).collect();
        let broker = Arc::new(Broker::new(servers));
        broker.register_table("trips", false);
        for (i, chunk) in realtime_rows.chunks(30).enumerate() {
            let seg = Segment::build(
                format!("rt_{i}"),
                &schema(),
                chunk.to_vec(),
                &IndexSpec::none(),
            )
            .unwrap();
            broker
                .place_segment("trips", Arc::new(seg), None, replication)
                .unwrap();
        }
        let hybrid = HybridTable::new(
            "trips",
            schema(),
            "ts",
            RealtimeSide::Brokered(broker.clone()),
        );
        hybrid
            .register_offline_segment(lazy("off", offline_rows.clone()), None)
            .unwrap();
        (hybrid, broker)
    };

    // replication 2: killing a server loses nothing — exact answer
    let (hybrid, broker) = build_hybrid(2);
    broker.servers()[0].set_down(true);
    let out = hybrid.scan(&pd).unwrap();
    assert!(!out.ledger.partial());
    assert_eq!(canonical(out.rows), expect);

    // replication 1: killing a server degrades the realtime slice to a
    // partial answer (never an error, never a stale cache)
    let (hybrid, broker) = build_hybrid(1);
    let healthy = hybrid.scan(&pd).unwrap();
    assert_eq!(canonical(healthy.rows), expect);
    broker.servers()[1].set_down(true);
    hybrid.invalidate(); // rebalance-style event alongside the failure
    let degraded = hybrid.scan(&pd).unwrap();
    assert!(degraded.ledger.partial());
    assert!(degraded.ledger.segments_unavailable > 0);
    assert!(degraded.rows[0].get_int("n").unwrap() < 200);
}

/// Deterministic digest for the ci gate: every case prints the digests
/// of an uncached and a cached execution of the same query stream; the
/// two must agree with each other and across processes.
fn fed_soak(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(case));
        let fed = arb_case(&mut rng);
        let mut cold_digests = Vec::new();
        let mut warm_digests = Vec::new();
        let mut hits = 0u64;
        // what every scan of the case cost, summed: the digests above pin
        // the answers, these pin the accounting
        let mut ledger = ScanLedger::default();
        let mut bytes_read = 0u64;
        let mut book = |out: &ScanOutput| {
            ledger.absorb(&out.ledger);
            bytes_read += out.bytes_read;
        };
        for _ in 0..4 {
            let pd = arb_pushdown(&mut rng);
            let cold = fed.hybrid.scan(&pd).unwrap();
            book(&cold);
            cold_digests.push(format!("{:016x}", fnv(&canonical(cold.rows))));
            let warm = fed.hybrid.scan(&pd).unwrap();
            book(&warm);
            hits += u64::from(warm.cache_hit);
            warm_digests.push(format!("{:016x}", fnv(&canonical(warm.rows))));
        }
        assert_eq!(
            cold_digests, warm_digests,
            "case {case}: cache changed bytes"
        );
        // seal-style invalidation, then one more pass over a fresh query
        fed.hybrid
            .register_offline_segment(
                lazy(
                    "late",
                    (400..=409)
                        .map(|ts| {
                            Row::new()
                                .with("city", format!("c{}", ts % 5))
                                .with("ts", ts as i64)
                                .with("fare", (ts % 90) as f64)
                        })
                        .collect(),
                ),
                None,
            )
            .unwrap();
        let pd = arb_pushdown(&mut rng);
        let post = fed.hybrid.scan(&pd).unwrap();
        book(&post);
        let post = fnv(&canonical(post.rows));
        lines.push(format!(
            "case={case} digest={:016x} hits={hits} post_seal={post:016x} \
             docs={} queried={} pruned={} shed={} unavailable={} bytes_read={bytes_read}",
            fnv(&cold_digests),
            ledger.docs_scanned,
            ledger.segments_queried,
            ledger.segments_pruned,
            ledger.segments_shed,
            ledger.segments_unavailable,
        ));
    }
    lines
}

#[test]
fn fed_soak_deterministic_in_process() {
    assert_eq!(fed_soak(SEED_FED), fed_soak(SEED_FED));
}

/// ci.sh hook: seed from `RTDI_FED_SEED`, one `FED_SUMMARY` line per
/// case, byte-diffed across two separate processes.
#[test]
fn fed_env_seed_prints_summary() {
    let seed = std::env::var("RTDI_FED_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(SEED_FED);
    for line in fed_soak(seed) {
        println!("FED_SUMMARY seed={seed:#x} {line}");
    }
}
