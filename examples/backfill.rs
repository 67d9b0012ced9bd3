//! Backfill (§7): why Kappa fails at Uber's retention settings and how
//! Kappa+ replays archived data through the *same* streaming logic.
//!
//! Run with: `cargo run --example backfill`

use rtdi::common::{AggFn, FieldType, Record, Row, Schema};
use rtdi::compute::backfill::{
    detect_bounds, kafka_replay_job, kafka_retains, kappa_plus_job, BackfillConfig,
};
use rtdi::compute::operator::{Operator, WindowAggregateOp};
use rtdi::compute::runtime::{run_staged_with, StagedConfig};
use rtdi::compute::sink::CollectSink;
use rtdi::compute::window::WindowAssigner;
use rtdi::storage::archival::{ArchivalWriter, Compactor};
use rtdi::storage::hive::HiveCatalog;
use rtdi::storage::object::InMemoryStore;
use rtdi::stream::topic::{Topic, TopicConfig};
use std::sync::Arc;

fn agg_chain() -> Vec<Box<dyn Operator>> {
    vec![Box::new(WindowAggregateOp::new(
        "hourly-trips",
        vec!["city".into()],
        WindowAssigner::tumbling(3_600_000),
        vec![
            ("trips".into(), AggFn::Count),
            ("revenue".into(), AggFn::Sum("fare".into())),
        ],
        0,
    ))]
}

fn main() {
    // a trips topic with 2 days of retention (the paper: "we limit Kafka
    // retention to only a few days")
    let topic = Arc::new(
        Topic::new(
            "trips",
            TopicConfig {
                partitions: 2,
                retention_ms: 2 * 86_400_000,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let store = Arc::new(InMemoryStore::new());
    let catalog = HiveCatalog::new(store.clone());
    let schema = Schema::of(
        "trips",
        &[("city", FieldType::Str), ("fare", FieldType::Double)],
    );
    catalog.create_table("trips", schema.clone()).unwrap();
    let writer = ArchivalWriter::new(store.clone(), "trips");
    let compactor = Compactor::new(store.clone(), catalog.clone());

    // 7 days of trips: produced, archived continuously, retention trims
    // the topic as time advances
    let day = 86_400_000i64;
    let mut archived_dates = Vec::new();
    for d in 0..7i64 {
        let mut batch = Vec::new();
        for i in 0..2_000i64 {
            let ts = d * day + i * (day / 2_000);
            let rec = Record::new(
                Row::new()
                    .with("city", if i % 2 == 0 { "sf" } else { "la" })
                    .with("fare", 10.0 + (i % 9) as f64),
                ts,
            )
            .with_key(format!("t{d}-{i}"));
            topic.append(rec.clone(), ts).unwrap();
            batch.push(rec);
        }
        for key in writer.write_batch(&batch).unwrap() {
            let date = key.split('/').nth(2).unwrap().to_string();
            if !archived_dates.contains(&date) {
                archived_dates.push(date);
            }
        }
    }
    for date in &archived_dates {
        compactor.compact("trips", date, &schema).unwrap();
    }
    let table = catalog.table("trips").unwrap();
    println!(
        "7 days produced; topic retains {} records, warehouse holds {}",
        topic.total_records() as usize - topic_trimmed(&topic),
        table.row_count()
    );

    // A bug was found: reprocess days 1-5. Kafka no longer has them.
    let from = day;
    let to = 6 * day;
    println!(
        "\nKappa (replay Kafka) possible for day 1..6? {}",
        kafka_retains(&topic, from)
    );
    match kafka_replay_job(
        "kappa",
        topic.clone(),
        from,
        agg_chain(),
        Box::new(CollectSink::new()),
    ) {
        Err(e) => println!("Kappa replay rejected: {e}"),
        Ok(_) => println!("unexpectedly possible"),
    }

    // Kappa+: same operators over the archive
    let (lo, hi) = detect_bounds(&table, from, to).unwrap();
    println!("\nKappa+ detected archive bounds for the request: [{lo}, {hi})");
    let sink = CollectSink::new();
    let job = kappa_plus_job(
        "kappa-plus",
        &table,
        agg_chain(),
        Box::new(sink.clone()),
        &BackfillConfig {
            from,
            to,
            throttle_per_poll: 2_048,
            max_out_of_orderness: 60_000,
        },
    )
    .unwrap();
    let stats = run_staged_with(job, &StagedConfig::default()).unwrap();
    println!(
        "Kappa+ replayed {} archived events into {} hourly windows with the SAME streaming code",
        stats.records_in,
        sink.len()
    );
    let revenue: f64 = sink
        .rows()
        .iter()
        .map(|r| r.get_double("revenue").unwrap())
        .sum();
    println!("recomputed revenue for days 1-5: ${revenue:.0}");
}

fn topic_trimmed(topic: &Topic) -> usize {
    (0..topic.num_partitions())
        .map(|p| topic.partition(p).unwrap().log_start_offset() as usize)
        .sum()
}
