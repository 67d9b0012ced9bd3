//! E21 (§7): backfill. Kappa (replaying Kafka) is impossible past the
//! retention window; Kappa+ replays the archive through the same
//! streaming operators, throttled, with results identical to the original
//! streaming run.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{AggFn, Record, Row, Schema};
use rtdi_compute::backfill::{kafka_retains, kappa_plus_job, BackfillConfig};
use rtdi_compute::operator::{Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, Job, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::VecSource;
use rtdi_compute::window::WindowAssigner;
use rtdi_storage::hive::HiveCatalog;
use rtdi_storage::object::InMemoryStore;
use rtdi_stream::topic::{Topic, TopicConfig};
use std::sync::Arc;

fn agg_chain() -> Vec<Box<dyn Operator>> {
    vec![Box::new(WindowAggregateOp::new(
        "hourly",
        vec!["city".into()],
        WindowAssigner::tumbling(3_600_000),
        vec![
            ("trips".into(), AggFn::Count),
            ("revenue".into(), AggFn::Sum("fare".into())),
        ],
        0,
    ))]
}

fn trip(i: usize, days: usize, n: usize) -> (i64, Row) {
    let span = days as i64 * 86_400_000;
    let ts = (i as i64) * span / n as i64;
    (
        ts,
        Row::new()
            .with("city", ["sf", "la"][i % 2])
            .with("fare", 10.0 + (i % 9) as f64)
            .with("ts", ts)
            .with("__ts", ts),
    )
}

fn bench(c: &mut Criterion) {
    report_header(
        "E21 Kappa+ backfill",
        "Kafka retention (days) makes Kappa impossible for week-old data; \
         Kappa+ replays the archive with the same operators and matches \
         the streaming results",
    );
    let n = 200_000usize;
    let days = 7;
    // archive the full history
    let store = Arc::new(InMemoryStore::new());
    let catalog = HiveCatalog::new(store);
    let schema = Schema::of(
        "trips",
        &[
            ("city", rtdi_common::FieldType::Str),
            ("fare", rtdi_common::FieldType::Double),
            ("ts", rtdi_common::FieldType::Timestamp),
            ("__ts", rtdi_common::FieldType::Timestamp),
        ],
    );
    let table = catalog.create_table("trips", schema).unwrap();
    let mut by_day: std::collections::BTreeMap<String, Vec<Row>> = Default::default();
    for i in 0..n {
        let (ts, row) = trip(i, days, n);
        by_day
            .entry(rtdi_storage::archival::date_partition(ts))
            .or_default()
            .push(row);
    }
    for (day, rows) in &by_day {
        catalog.write_rows("trips", day, rows).unwrap();
    }

    // the topic only retains the last ~2 days
    let topic = Arc::new(
        Topic::new(
            "trips",
            TopicConfig {
                partitions: 4,
                retention_ms: 2 * 86_400_000,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    for i in 0..n {
        let (ts, row) = trip(i, days, n);
        topic
            .append(Record::new(row, ts).with_key(format!("k{i}")), ts)
            .unwrap();
    }
    report(
        "Kappa feasible for day-1 data?",
        format!("{}", kafka_retains(&topic, 86_400_000)),
    );

    // streaming reference (what the original job computed live)
    let stream_sink = CollectSink::new();
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let (ts, row) = trip(i, days, n);
            Record::new(row, ts)
        })
        .collect();
    let stream_job = Job::new(
        "live",
        Box::new(VecSource::new(records)),
        agg_chain(),
        Box::new(stream_sink.clone()),
    );
    run_staged_with(stream_job, &StagedConfig::default()).unwrap();

    // Kappa+ over the archive
    let bf_sink = CollectSink::new();
    let bf_job = kappa_plus_job(
        "backfill",
        &table,
        agg_chain(),
        Box::new(bf_sink.clone()),
        &BackfillConfig::default(),
    )
    .unwrap();
    let (stats, t) = time_it(|| run_staged_with(bf_job, &StagedConfig::default()).unwrap());
    report(
        "Kappa+ replay throughput",
        format!(
            "{:.0} events/s over {} archived events",
            stats.records_in as f64 / t.as_secs_f64(),
            stats.records_in
        ),
    );
    let canon = |rows: Vec<Row>| {
        let mut v: Vec<(String, i64, i64)> = rows
            .iter()
            .map(|r| {
                (
                    r.get_str("city").unwrap().to_string(),
                    r.get_int("window_start").unwrap(),
                    r.get_int("trips").unwrap(),
                )
            })
            .collect();
        v.sort();
        v
    };
    let matches = canon(stream_sink.rows()) == canon(bf_sink.rows());
    report(
        "backfill == original streaming results",
        format!("{matches}"),
    );
    assert!(matches);

    let mut g = c.benchmark_group("e21");
    g.bench_function("kappa_plus_50k", |b| {
        b.iter(|| {
            let sink = CollectSink::new();
            let job = kappa_plus_job(
                "bf",
                &table,
                agg_chain(),
                Box::new(sink),
                &BackfillConfig {
                    from: 0,
                    to: 2 * 86_400_000,
                    ..Default::default()
                },
            )
            .unwrap();
            run_staged_with(job, &StagedConfig::default()).unwrap()
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
