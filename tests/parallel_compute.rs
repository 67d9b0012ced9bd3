//! Data-parallel keyed compute: end-to-end guarantees for sharded
//! stateful operators (ISSUE 10).
//!
//! - the sharded plan (`parallelism: N`) must be observationally
//!   invisible: byte-identical output vs the single-threaded oracle
//!   (`run_reference`) and the serial plan for any N and any batch size;
//! - salted hot-key pre-aggregation (two-phase partial/combine) must
//!   also be byte-identical — workloads use dyadic-rational fares so
//!   f64 sums are order-independent and strict equality is meaningful;
//! - elastic rescale at a checkpoint boundary (2 -> 4 -> 1) preserves
//!   exactly-once, including a chaos-injected crash mid-segment;
//! - `parallel_env_seed_prints_summary` is the ci.sh determinism gate:
//!   one `PARALLEL_SUMMARY` line whose digests must agree across
//!   parallelism levels, across processes and across seeds.

use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi::common::{AggFn, Error, Record, Row, Value};
use rtdi::compute::reference::run_reference;
use rtdi::compute::{
    run_staged_with, CheckpointStore, CollectSink, DedupOp, Job, Operator, RescaleHandle,
    StagedConfig, VecSource, WindowAggregateOp, WindowAssigner,
};
use rtdi::storage::object::InMemoryStore;
use rtdi::usecases::CityDriverGenerator;
use std::sync::Arc;

fn trips(seed: u64, n: usize, skew: f64) -> Vec<Record> {
    CityDriverGenerator::new(seed, 24, 4_000, skew).trips(n, 7)
}

/// Keyed tumbling-window revenue rollup — the §5.1 surge-shaped job.
fn agg_job(name: &str, rows: Vec<Record>, sink: CollectSink, parallelism: usize) -> Job {
    let op = WindowAggregateOp::new(
        "agg",
        vec!["city".into()],
        WindowAssigner::tumbling(1_000),
        vec![
            ("trips".into(), AggFn::Count),
            ("revenue".into(), AggFn::Sum("fare".into())),
        ],
        0,
    )
    .with_parallelism(parallelism);
    Job::new(
        name,
        Box::new(VecSource::new(rows)),
        vec![Box::new(op)],
        Box::new(sink),
    )
}

fn salted_job(
    name: &str,
    rows: Vec<Record>,
    sink: CollectSink,
    parallelism: usize,
    threshold: u64,
) -> Job {
    let op = WindowAggregateOp::new(
        "agg",
        vec!["city".into()],
        WindowAssigner::tumbling(1_000),
        vec![
            ("trips".into(), AggFn::Count),
            ("revenue".into(), AggFn::Sum("fare".into())),
        ],
        0,
    )
    .with_parallelism(parallelism)
    .with_hot_key_salting(threshold);
    Job::new(
        name,
        Box::new(VecSource::new(rows)),
        vec![Box::new(op)],
        Box::new(sink),
    )
}

#[test]
fn parallel_output_is_byte_identical_to_serial_for_all_parallelisms() {
    let rows = trips(0xA110, 4_000, 1.1);
    let serial = CollectSink::new();
    run_reference(agg_job("serial", rows.clone(), serial.clone(), 1)).unwrap();
    assert!(!serial.is_empty());

    // every parallelism, plus batches of one at p=4
    for (p, batch) in [(1usize, 32usize), (2, 32), (4, 32), (8, 32), (4, 1)] {
        let sink = CollectSink::new();
        let stats = run_staged_with(
            agg_job("par", rows.clone(), sink.clone(), p),
            &StagedConfig::batched(16, batch),
        )
        .unwrap();
        assert_eq!(
            sink.records(),
            serial.records(),
            "parallelism {p} batch {batch}"
        );
        if p == 1 {
            continue; // the serial plan has no sharded stage to inspect
        }
        let stage = stats
            .stages
            .iter()
            .find(|s| s.stage.starts_with("agg[x"))
            .expect("sharded stage missing from stats");
        assert_eq!(stage.shards.len(), p);
        let shard_in: u64 = stage.shards.iter().map(|s| s.records_in).sum();
        assert_eq!(shard_in, rows.len() as u64);
        // every shard advanced to the terminal watermark
        assert!(stage.shards.iter().all(|s| s.watermark > 0));
    }
}

#[test]
fn parallel_dedup_matches_serial_exactly() {
    // duplicate-heavy stream: replay each trip 1-3 times
    let base = trips(0xD0D0, 1_500, 1.0);
    let mut rows = Vec::new();
    for (i, r) in base.iter().enumerate() {
        for _ in 0..=(i % 3) {
            rows.push(r.clone());
        }
    }
    let job = |name: &str, sink: CollectSink, p: usize| {
        let op = DedupOp::new("dedup", vec!["city".into(), "driver".into(), "ts".into()])
            .with_parallelism(p);
        Job::new(
            name,
            Box::new(VecSource::new(rows.clone())),
            vec![Box::new(op) as Box<dyn Operator>],
            Box::new(sink),
        )
    };
    let serial = CollectSink::new();
    run_reference(job("ser", serial.clone(), 1)).unwrap();
    assert!(!serial.is_empty() && serial.len() < rows.len());
    for p in [1usize, 2, 4] {
        let sink = CollectSink::new();
        run_staged_with(job("par", sink.clone(), p), &StagedConfig::batched(16, 32)).unwrap();
        assert_eq!(sink.records(), serial.records(), "dedup parallelism {p}");
    }
}

#[test]
fn salted_hot_key_aggregation_is_byte_identical() {
    // s=1.5 Zipf: one scorching city plus a long tail — the hot-key
    // storm that motivates two-phase salted pre-aggregation
    let rows = trips(0x5A17, 6_000, 1.5);
    let serial = CollectSink::new();
    run_reference(agg_job("serial", rows.clone(), serial.clone(), 1)).unwrap();

    let sink = CollectSink::new();
    let stats = run_staged_with(
        salted_job("salted", rows.clone(), sink.clone(), 4, 64),
        &StagedConfig::batched(16, 32),
    )
    .unwrap();
    assert_eq!(
        sink.records(),
        serial.records(),
        "salted two-phase plan diverged from serial"
    );
    // the plan really is two-phase: sharded partial stage + combiner
    assert!(stats.stages.iter().any(|s| s.stage.starts_with("agg[x4]")));
    assert!(stats.stages.iter().any(|s| s.stage.contains("combine")));
    // salting spread the hot key: no shard saw the full stream
    let stage = stats
        .stages
        .iter()
        .find(|s| s.stage.starts_with("agg[x4]"))
        .unwrap();
    let max_shard = stage.shards.iter().map(|s| s.records_in).max().unwrap();
    assert!(
        max_shard < rows.len() as u64 * 2 / 3,
        "hot key not salted: one shard took {max_shard}/{} records",
        rows.len()
    );
}

#[test]
fn rescale_chain_two_to_four_to_one_is_exactly_once() {
    let rows = trips(0x2E5C, 3_000, 1.2);
    let baseline = CollectSink::new();
    run_staged_with(
        agg_job("base", rows.clone(), baseline.clone(), 1),
        &StagedConfig::batched(8, 16),
    )
    .unwrap();

    let store = Arc::new(InMemoryStore::new());
    let cs = CheckpointStore::new(store);
    let mut cfg = StagedConfig::batched(8, 16);
    cfg.checkpoint_interval = 500;
    cfg.checkpoint_store = Some(cs);

    let sink = CollectSink::new();
    // segment 1 at p=2: stop at the first checkpoint boundary
    let handle = RescaleHandle::new();
    handle.request();
    cfg.rescale = Some(handle);
    let s1 = run_staged_with(agg_job("job", rows.clone(), sink.clone(), 2), &cfg).unwrap();
    assert_eq!(s1.stopped_at_checkpoint, Some(1));

    // segment 2 at p=4: restore the p=2 state, stop at the next barrier
    let handle = RescaleHandle::new();
    handle.request();
    cfg.rescale = Some(handle);
    let s2 = run_staged_with(agg_job("job", rows.clone(), sink.clone(), 4), &cfg).unwrap();
    assert_eq!(s2.restored_from_checkpoint, Some(1));
    assert_eq!(s2.stopped_at_checkpoint, Some(2));

    // segment 3 back to serial: run to completion
    cfg.rescale = None;
    let s3 = run_staged_with(agg_job("job", rows.clone(), sink.clone(), 1), &cfg).unwrap();
    assert_eq!(s3.restored_from_checkpoint, Some(2));
    assert_eq!(s3.records_in, rows.len() as u64);

    // exactly-once across both rescales: sorted but NOT deduplicated
    let canon = |mut out: Vec<Row>| {
        out.sort_by_key(|r| {
            (
                r.get_str("city").unwrap().to_string(),
                r.get_int("window_start").unwrap(),
            )
        });
        out
    };
    assert_eq!(canon(baseline.rows()), canon(sink.rows()));
}

#[test]
fn crash_during_rescaled_segment_recovers_exactly_once() {
    let rows = trips(0xC2A5, 2_000, 1.2);
    let baseline = CollectSink::new();
    run_staged_with(
        agg_job("base", rows.clone(), baseline.clone(), 1),
        &StagedConfig::batched(8, 16),
    )
    .unwrap();

    let store = Arc::new(InMemoryStore::new());
    let cs = CheckpointStore::new(store);
    let mut cfg = StagedConfig::batched(8, 16);
    cfg.checkpoint_interval = 400;
    cfg.checkpoint_store = Some(cs);

    let sink = CollectSink::new();
    // segment 1 at p=2 stops at the first barrier
    let handle = RescaleHandle::new();
    handle.request();
    cfg.rescale = Some(handle);
    let s1 = run_staged_with(agg_job("job", rows.clone(), sink.clone(), 2), &cfg).unwrap();
    assert_eq!(s1.stopped_at_checkpoint, Some(1));

    // segment 2 at p=4 crashes mid-flight on an injected channel fault
    cfg.chaos = Chaos::seeded(0xC2A5);
    cfg.chaos.arm(
        FaultPoint::ComputeChannel,
        FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(300, Some(1)),
    );
    cfg.rescale = None;
    let err = run_staged_with(agg_job("job", rows.clone(), sink.clone(), 4), &cfg)
        .expect_err("armed channel fault must crash the rescaled segment");
    assert!(matches!(err, Error::Unavailable(_)), "wrong error: {err}");

    // retry from the surviving checkpoint completes the job
    let s3 = run_staged_with(agg_job("job", rows.clone(), sink.clone(), 4), &cfg).unwrap();
    assert!(s3.restored_from_checkpoint.is_some());
    assert_eq!(s3.records_in, rows.len() as u64);

    // state is exactly-once; the sink may hold replayed duplicates from
    // the crashed attempt, so compare after sort + dedup
    let canon = |mut out: Vec<Row>| {
        out.sort_by_key(|r| format!("{r:?}"));
        out.dedup();
        out
    };
    assert_eq!(canon(baseline.rows()), canon(sink.rows()));
}

/// Property-style sweep: random keyed jobs (window size, parallelism,
/// skew, salting, batch size all drawn from a seeded rng) must produce
/// byte-identical output under the sharded plan and the serial plan.
#[test]
fn random_keyed_jobs_parallel_equals_serial() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x9A11E1 + case);
        let n = rng.gen_range(500..2_000usize);
        let cities = [8usize, 24, 64][rng.gen_range(0..3usize)];
        let skew = rng.gen_range(0.8..1.6f64);
        let window = [500i64, 1_000, 2_000][rng.gen_range(0..3usize)];
        let p = [2usize, 3, 4, 8][rng.gen_range(0..4usize)];
        let salt = rng.gen_bool(0.5).then(|| rng.gen_range(16..128u64));
        let batch = [1usize, 16, 32][rng.gen_range(0..3usize)];
        let rows = CityDriverGenerator::new(case, cities, 1_000, skew).trips(n, 5);

        let make = |name: &str, sink: CollectSink, parallelism: usize, salt: Option<u64>| {
            let mut op = WindowAggregateOp::new(
                "agg",
                vec!["city".into()],
                WindowAssigner::tumbling(window),
                vec![
                    ("trips".into(), AggFn::Count),
                    ("revenue".into(), AggFn::Sum("fare".into())),
                ],
                0,
            )
            .with_parallelism(parallelism);
            if let Some(t) = salt {
                op = op.with_hot_key_salting(t);
            }
            Job::new(
                name,
                Box::new(VecSource::new(rows.clone())),
                vec![Box::new(op) as Box<dyn Operator>],
                Box::new(sink),
            )
        };
        let serial = CollectSink::new();
        run_reference(make("ser", serial.clone(), 1, None)).unwrap();
        let sink = CollectSink::new();
        run_staged_with(
            make("par", sink.clone(), p, salt),
            &StagedConfig::batched(16, batch),
        )
        .unwrap();
        assert_eq!(
            sink.records(),
            serial.records(),
            "case {case}: n={n} cities={cities} skew={skew:.2} window={window} p={p} salt={salt:?} batch={batch}"
        );
    }
}

/// FNV-1a over every output record's canonical rendering, in emit order.
fn digest(sink: &CollectSink) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for rec in sink.records() {
        let mut cols: Vec<String> = rec
            .value
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        cols.sort();
        let line = format!("ts={} key={:?} {}", rec.timestamp, rec.key, cols.join(","));
        for b in line.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= Value::hash_of_str("|");
    }
    h
}

fn env_seed() -> u64 {
    std::env::var("RTDI_PARALLEL_SEED")
        .ok()
        .and_then(|s| {
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(0xFA11)
}

/// ci.sh hook: digest the serial, sharded and salted plans for the env
/// seed and print one `PARALLEL_SUMMARY` line. ci.sh runs this twice per
/// seed in separate processes and diffs the output: all digests must
/// match the serial plan and reproduce across processes.
#[test]
fn parallel_env_seed_prints_summary() {
    let seed = env_seed();
    let rows = trips(seed, 3_000, 1.0 + (seed % 7) as f64 / 10.0);

    let run = |p: usize, salt: Option<u64>| {
        let sink = CollectSink::new();
        let job = match salt {
            Some(t) => salted_job("gate", rows.clone(), sink.clone(), p, t),
            None => agg_job("gate", rows.clone(), sink.clone(), p),
        };
        run_staged_with(job, &StagedConfig::batched(16, 32)).unwrap();
        (digest(&sink), sink.len())
    };
    let (d1, n1) = run(1, None);
    let (d2, _) = run(2, None);
    let (d4, _) = run(4, None);
    let (ds, _) = run(4, Some(48));
    println!(
        "PARALLEL_SUMMARY seed={seed:#x} records={n1} digest_p1={d1:016x} \
         digest_p2={d2:016x} digest_p4={d4:016x} digest_salted={ds:016x}"
    );
    assert_eq!(d1, d2, "p=2 diverged from serial");
    assert_eq!(d1, d4, "p=4 diverged from serial");
    assert_eq!(d1, ds, "salted plan diverged from serial");
}
