//! E8 (§4.2.1): FlinkSQL "compiles the queries to reliable, efficient,
//! distributed Flink applications" — the generated job matches a
//! hand-built dataflow in both results and throughput, and compilation is
//! cheap enough for interactive provisioning ("a span of mere hours"
//! includes zero compile cost).

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{AggFn, Record, Row};
use rtdi_compute::operator::{Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, Job, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::TopicSource;
use rtdi_compute::window::WindowAssigner;
use rtdi_flinksql::compiler::{compile_streaming, CompileOptions};
use rtdi_stream::topic::{Topic, TopicConfig};
use std::sync::Arc;

const SQL: &str = "SELECT city, TUMBLE(ts, 10000) AS w, COUNT(*) AS trips, \
                   SUM(fare) AS revenue FROM trips GROUP BY city, TUMBLE(ts, 10000)";

fn topic(n: usize) -> Arc<Topic> {
    let t = Arc::new(Topic::new("trips", TopicConfig::default().with_partitions(4)).unwrap());
    for i in 0..n {
        t.append(
            Record::new(
                Row::new()
                    .with("city", ["sf", "la", "nyc"][i % 3])
                    .with("fare", 10.0)
                    .with("ts", (i as i64) * 10),
                (i as i64) * 10,
            )
            .with_key(format!("k{i}")),
            0,
        )
        .unwrap();
    }
    t
}

/// Stateless filter + projection pipeline: the shape the operator-chaining
/// pass collapses into a single `fused[where->project]` stage.
const PROJ_SQL: &str = "SELECT city, fare * 2 AS fare2 FROM trips WHERE ts >= 0";

/// Run the compiled stateless pipeline through the staged runtime under
/// one channel-protocol configuration; returns (records/s, result rows).
fn staged_sql_run(n: usize, chain: bool, cfg: &StagedConfig) -> (f64, Vec<Row>) {
    let opts = CompileOptions {
        chain_operators: chain,
        ..CompileOptions::default()
    };
    let sink = CollectSink::new();
    let job = compile_streaming("proj", PROJ_SQL, topic(n), Box::new(sink.clone()), &opts).unwrap();
    let (stats, elapsed) = time_it(|| run_staged_with(job, cfg).unwrap());
    assert_eq!(stats.records_in, n as u64);
    assert_eq!(stats.stages.len(), if chain { 1 } else { 2 });
    (n as f64 / elapsed.as_secs_f64(), sink.rows())
}

fn hand_built(t: Arc<Topic>, sink: CollectSink) -> Job {
    let ops: Vec<Box<dyn Operator>> = vec![Box::new(WindowAggregateOp::new(
        "agg",
        vec!["city".into()],
        WindowAssigner::tumbling(10_000),
        vec![
            ("trips".into(), AggFn::Count),
            ("revenue".into(), AggFn::Sum("fare".into())),
        ],
        0,
    ))];
    Job::new(
        "hand",
        Box::new(TopicSource::bounded(t).unwrap()),
        ops,
        Box::new(sink),
    )
    .with_out_of_orderness(1_000)
}

fn bench(c: &mut Criterion) {
    report_header(
        "E8 FlinkSQL compilation parity",
        "SQL-compiled job == hand-built dataflow in results; compile cost \
         negligible vs job runtime",
    );
    let n = 100_000;
    let (_, compile_cost) = time_it(|| {
        compile_streaming(
            "x",
            SQL,
            topic(0),
            Box::new(CollectSink::new()),
            &CompileOptions::default(),
        )
        .unwrap()
    });
    report("SQL->job compile time", format!("{:?}", compile_cost));

    let sql_sink = CollectSink::new();
    let sql_job = compile_streaming(
        "sql",
        SQL,
        topic(n),
        Box::new(sql_sink.clone()),
        &CompileOptions::default(),
    )
    .unwrap();
    let (_, sql_time) = time_it(|| run_staged_with(sql_job, &StagedConfig::default()).unwrap());

    let hand_sink = CollectSink::new();
    let hand_job = hand_built(topic(n), hand_sink.clone());
    let (_, hand_time) = time_it(|| run_staged_with(hand_job, &StagedConfig::default()).unwrap());

    let total = |rows: Vec<Row>| -> i64 { rows.iter().map(|r| r.get_int("trips").unwrap()).sum() };
    let (a, b) = (total(sql_sink.rows()), total(hand_sink.rows()));
    assert_eq!(a, n as i64);
    assert_eq!(a, b, "SQL job and hand-built job disagree");
    report(
        "throughput SQL-compiled",
        format!("{:.0} rec/s", n as f64 / sql_time.as_secs_f64()),
    );
    report(
        "throughput hand-built",
        format!("{:.0} rec/s", n as f64 / hand_time.as_secs_f64()),
    );
    report(
        "SQL overhead",
        format!("{:.2}x", sql_time.as_secs_f64() / hand_time.as_secs_f64()),
    );

    // Batch-size sweep over the compiled WHERE+projection pipeline:
    // batches of one vs micro-batched vs micro-batched + chained
    // (the compiler's chain_operators pass fuses where->project into one
    // stage, removing the channel hop entirely).
    let (per_record, rows_ref) = staged_sql_run(
        n,
        false,
        &StagedConfig {
            fuse_operators: false,
            ..StagedConfig::batched(64, 1)
        },
    );
    let (batched, rows_batched) = staged_sql_run(
        n,
        false,
        &StagedConfig {
            fuse_operators: false,
            ..StagedConfig::batched(64, 64)
        },
    );
    let (chained, rows_chained) = staged_sql_run(n, true, &StagedConfig::batched(64, 64));
    assert_eq!(rows_ref, rows_batched);
    assert_eq!(rows_ref, rows_chained);
    report(
        "staged batch=1 (2 stages)",
        format!("{per_record:.0} rec/s"),
    );
    report("staged batch=64 (2 stages)", format!("{batched:.0} rec/s"));
    report(
        "staged batch=64 + chained (1 stage)",
        format!("{chained:.0} rec/s"),
    );

    let mut g = c.benchmark_group("e08");
    g.bench_function("compile_sql_to_job", |b| {
        let t = topic(0);
        b.iter(|| {
            compile_streaming(
                "x",
                SQL,
                t.clone(),
                Box::new(CollectSink::new()),
                &CompileOptions::default(),
            )
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
