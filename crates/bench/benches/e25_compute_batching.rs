//! E25 (§4.2): micro-batching + operator chaining in the staged dataflow
//! runtime. Flink amortizes per-record overhead by moving serialized
//! buffers between tasks and by chaining adjacent operators into one task
//! so eligible hops cost a function call instead of a network/channel
//! transfer. This bench sweeps the batch size over a 4-stage
//! map/filter/window-aggregate/map job and toggles the chaining pass,
//! reporting records/s and allocations-per-record for each point.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{count_allocations, quick_criterion, report, report_header, time_it};
use rtdi_common::{AggFn, Row, Timestamp};
use rtdi_compute::operator::{FilterOp, MapOp, Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, Job, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::VecSource;
use rtdi_compute::window::WindowAssigner;

fn trip_rows(n: usize) -> Vec<(Timestamp, Row)> {
    (0..n)
        .map(|i| {
            (
                (i as i64) * 10,
                Row::new()
                    .with("city", ["sf", "la", "nyc"][i % 3])
                    .with("fare", 5.0 + (i % 40) as f64),
            )
        })
        .collect()
}

/// The 4-stage job from the staged-runtime tests: two stateless stages
/// (chain-eligible), a keyed tumbling-window aggregation, and a stateless
/// post-projection.
fn four_stage_job(name: &str, rows: Vec<(Timestamp, Row)>, sink: CollectSink) -> Job {
    let ops: Vec<Box<dyn Operator>> = vec![
        Box::new(MapOp::new("tag", |r: &Row| {
            let mut out = r.clone();
            out.push("fare2", r.get_double("fare").unwrap_or(0.0) * 2.0);
            out
        })),
        Box::new(FilterOp::new("nonneg", |r: &Row| {
            r.get_double("fare").unwrap_or(0.0) >= 0.0
        })),
        Box::new(WindowAggregateOp::new(
            "agg",
            vec!["city".into()],
            WindowAssigner::tumbling(1_000),
            vec![
                ("trips".into(), AggFn::Count),
                ("total2".into(), AggFn::Sum("fare2".into())),
            ],
            0,
        )),
        Box::new(MapOp::new("post", |r: &Row| {
            let mut out = r.clone();
            out.push(
                "avg2",
                r.get_double("total2").unwrap_or(0.0) / r.get_int("trips").unwrap_or(1) as f64,
            );
            out
        })),
    ];
    Job::new(
        name,
        Box::new(VecSource::from_rows(rows)),
        ops,
        Box::new(sink),
    )
    .with_out_of_orderness(0)
}

struct Point {
    batch: usize,
    fused: bool,
    rec_per_s: f64,
    allocs_per_rec: f64,
    out_rows: usize,
}

/// Best-of-3 runs: the single-core container schedules the stage threads
/// noisily, and we are after the protocol's shape, not scheduler jitter.
fn run_point(rows: &[(Timestamp, Row)], batch: usize, fused: bool) -> Point {
    let cfg = StagedConfig {
        channel_capacity: 64,
        batch_size: batch,
        fuse_operators: fused,
        checkpoint_interval: 0,
        checkpoint_store: None,
        rescale: None,
    };
    let mut best = f64::MIN;
    let mut best_allocs = f64::MAX;
    let mut out_rows = 0;
    for _ in 0..3 {
        let sink = CollectSink::new();
        let job = four_stage_job("e25", rows.to_vec(), sink.clone());
        let ((stats, elapsed), allocs) =
            count_allocations(|| time_it(|| run_staged_with(job, &cfg).unwrap()));
        assert_eq!(stats.records_in, rows.len() as u64);
        best = best.max(rows.len() as f64 / elapsed.as_secs_f64());
        best_allocs = best_allocs.min(allocs.allocs as f64 / rows.len() as f64);
        out_rows = sink.len();
    }
    Point {
        batch,
        fused,
        rec_per_s: best,
        allocs_per_rec: best_allocs,
        out_rows,
    }
}

fn bench(c: &mut Criterion) {
    report_header(
        "E25 compute micro-batching + operator chaining",
        "batched channel hops + chained stateless operators >=3x records/s \
         over the per-record unchained protocol, with fewer allocs/record",
    );
    let n = 120_000;
    let rows = trip_rows(n);

    let mut points = Vec::new();
    for fused in [false, true] {
        for batch in [1usize, 16, 64, 256] {
            let p = run_point(&rows, batch, fused);
            report(
                &format!(
                    "batch={:>3} {:7}",
                    p.batch,
                    if p.fused { "fused" } else { "unfused" }
                ),
                format!(
                    "{:>9.0} rec/s, {:.2} allocs/rec",
                    p.rec_per_s, p.allocs_per_rec
                ),
            );
            points.push(p);
        }
    }
    let expected_rows = points[0].out_rows;
    assert!(expected_rows > 0);
    assert!(
        points.iter().all(|p| p.out_rows == expected_rows),
        "all protocol variants must emit the same result rows"
    );

    let baseline = points.iter().find(|p| p.batch == 1 && !p.fused).unwrap();
    let tuned = points.iter().find(|p| p.batch == 64 && p.fused).unwrap();
    report(
        "speedup batch=64+fused vs batch=1 unfused",
        format!("{:.1}x", tuned.rec_per_s / baseline.rec_per_s),
    );
    report(
        "allocs/rec drop",
        format!(
            "{:.2} -> {:.2}",
            baseline.allocs_per_rec, tuned.allocs_per_rec
        ),
    );
    assert!(
        tuned.rec_per_s >= 3.0 * baseline.rec_per_s,
        "expected >=3x: batch=64+fused {:.0} rec/s vs batch=1 unfused {:.0} rec/s",
        tuned.rec_per_s,
        baseline.rec_per_s
    );
    assert!(
        tuned.allocs_per_rec < baseline.allocs_per_rec,
        "batching must reduce allocations per record"
    );

    let mut g = c.benchmark_group("e25");
    let small = trip_rows(20_000);
    g.bench_function("staged_batch64_fused", |b| {
        b.iter(|| run_point(&small, 64, true).rec_per_s)
    });
    g.bench_function("staged_batch1_unfused", |b| {
        b.iter(|| run_point(&small, 1, false).rec_per_s)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
