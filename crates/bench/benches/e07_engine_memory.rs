//! E7 (§4.2): "Spark jobs consumed 5-10 times more memory than a
//! corresponding Flink job for the same workload." Micro-batch execution
//! materializes whole batches plus per-key shuffle groups; pipelined
//! streaming keeps only incremental accumulators.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header};
use rtdi_common::{AggFn, Record, Row};
use rtdi_compute::baselines::{streaming_windowed_agg, MicroBatchEngine};
use std::sync::Arc;

fn workload(n: usize) -> Vec<Arc<Record>> {
    (0..n)
        .map(|i| {
            Arc::new(Record::new(
                Row::new()
                    .with("city", format!("c{}", i % 16))
                    .with("fare", 5.0 + (i % 20) as f64),
                (i as i64) * 10,
            ))
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    report_header(
        "E7 engine memory: micro-batch vs pipelined streaming",
        "micro-batch uses 5-10x more memory than streaming for the same \
         windowed aggregation",
    );
    let aggs = vec![
        ("n".to_string(), AggFn::Count),
        ("revenue".to_string(), AggFn::Sum("fare".into())),
    ];
    for n in [50_000usize, 200_000] {
        let records = workload(n);
        let mb = MicroBatchEngine::new(10_000).run_windowed_agg(&records, "city", &aggs);
        let (st_rows, st_peak) =
            streaming_windowed_agg(&records, "city", &aggs, 10_000).expect("the fold cannot fail");
        assert_eq!(mb.rows.len(), st_rows.len(), "engines disagree");
        report(
            format!("{n} records").as_str(),
            format!(
                "micro-batch peak {} KiB vs streaming peak {} KiB -> {:.1}x",
                mb.peak_bytes / 1024,
                st_peak / 1024,
                mb.peak_bytes as f64 / st_peak as f64
            ),
        );
    }

    let records = workload(50_000);
    let mut g = c.benchmark_group("e07");
    g.bench_function("microbatch_50k", |b| {
        b.iter(|| MicroBatchEngine::new(10_000).run_windowed_agg(&records, "city", &aggs))
    });
    g.bench_function("streaming_50k", |b| {
        b.iter(|| streaming_windowed_agg(&records, "city", &aggs, 10_000))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
