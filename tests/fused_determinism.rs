//! Fused-vs-reference determinism gate (ci.sh).
//!
//! For a seed taken from `RTDI_FUSE_SEED`, build a random operator chain
//! and input stream, run it through (a) the single-threaded per-record
//! oracle (`run_reference`) and (b) the micro-batched + operator-chained
//! staged runtime, digest both output streams, and print one
//! `FUSED_SUMMARY` line. ci.sh runs this twice per seed in separate
//! processes and diffs the lines: the digests must match between the two
//! (chaining is observationally invisible) and between processes (the
//! whole pipeline is deterministic).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::{AggFn, Row, Timestamp, Value};
use rtdi::compute::reference::run_reference;
use rtdi::compute::{
    run_staged_with, CollectSink, FilterOp, Job, MapOp, Operator, StagedConfig, VecSource,
    WindowAggregateOp, WindowAssigner,
};

fn arb_rows(rng: &mut StdRng, n: usize) -> Vec<(Timestamp, Row)> {
    (0..n)
        .map(|_| {
            let mut row = Row::new();
            row.push("city", format!("c{}", rng.gen_range(0..5u8)));
            row.push("n", rng.gen_range(-500..500i64));
            if rng.gen_bool(0.8) {
                row.push("x", rng.gen_range(-50.0..50.0f64));
            }
            (rng.gen_range(0..6_000i64), row)
        })
        .collect()
}

fn build_job(name: &str, seed: u64, sink: CollectSink) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let shift = rng.gen_range(-20..20i64);
    let modulus = rng.gen_range(2..5i64);
    let window = [500, 1_000, 2_000][rng.gen_range(0..3usize)];
    let n = rng.gen_range(200..600usize);
    let rows = arb_rows(&mut rng, n);
    let ops: Vec<Box<dyn Operator>> = vec![
        Box::new(MapOp::new("shift", move |r: &Row| {
            let mut out = r.clone();
            out.push("n2", r.get_int("n").unwrap_or(0) + shift);
            out
        })),
        Box::new(FilterOp::new("mod", move |r: &Row| {
            r.get_int("n2").unwrap_or(0).rem_euclid(modulus) != 0
        })),
        Box::new(WindowAggregateOp::new(
            "agg",
            vec!["city".into()],
            WindowAssigner::tumbling(window),
            vec![
                ("cnt".into(), AggFn::Count),
                ("sum".into(), AggFn::Sum("n2".into())),
            ],
            0,
        )),
        Box::new(MapOp::new("post", |r: &Row| r.clone())),
    ];
    Job::new(
        name,
        Box::new(VecSource::from_rows(rows)),
        ops,
        Box::new(sink),
    )
    .with_out_of_orderness(250)
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
    std::env::var("RTDI_FUSE_SEED")
        .ok()
        .and_then(|s| {
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(0xF05E)
}

/// ci.sh hook: print the reference and fused digests for the env seed.
#[test]
fn fuse_env_seed_prints_digests() {
    let seed = env_seed();
    let ref_sink = CollectSink::new();
    let ref_stats = run_reference(build_job("ref", seed, ref_sink.clone())).unwrap();
    assert_eq!(ref_stats.stages.len(), 4);
    let fused_sink = CollectSink::new();
    let fused_stats = run_staged_with(
        build_job("fused", seed, fused_sink.clone()),
        &StagedConfig::batched(32, 64),
    )
    .unwrap();
    assert!(fused_stats.stages.len() < 4, "chaining must merge stages");
    let (dr, df) = (digest(&ref_sink), digest(&fused_sink));
    println!(
        "FUSED_SUMMARY seed={seed:#x} records={} digest_ref={dr:016x} digest_fused={df:016x}",
        ref_sink.len()
    );
    assert_eq!(dr, df, "fused+batched digest diverged from reference");
}
