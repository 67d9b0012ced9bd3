//! Cross-crate integration tests: the platform flows of Figures 1 and 3.

use rtdi::common::{AggFn, FieldType, Record, Row, Schema, SimClock};
use rtdi::core::platform::RealtimePlatform;
use rtdi::flinksql::compiler::CompileOptions;
use rtdi::olap::query::Query;
use rtdi::olap::table::TableConfig;
use rtdi::stream::cluster::{Cluster, ClusterConfig};
use rtdi::stream::topic::TopicConfig;
use std::sync::Arc;

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

fn platform() -> RealtimePlatform {
    RealtimePlatform::with_clock(Arc::new(SimClock::new(1_000)))
}

fn produce(p: &RealtimePlatform, topic: &str, n: usize) {
    let producer = p.producer("it-test");
    for i in 0..n {
        producer
            .send(
                topic,
                Record::new(
                    Row::new()
                        .with("city", ["sf", "la", "nyc"][i % 3])
                        .with("fare", 5.0 + (i % 10) as f64)
                        .with("ts", (i as i64) * 100),
                    (i as i64) * 100,
                )
                .with_key(format!("t{i}")),
            )
            .unwrap();
    }
}

#[test]
fn figure1_full_path_stream_compute_olap_sql_storage() {
    let p = platform();
    p.create_topic(
        "trips",
        TopicConfig::default().with_partitions(2),
        trips_schema(),
    )
    .unwrap();
    produce(&p, "trips", 3_000);

    // realtime path: FlinkSQL windows into Pinot
    let stats_schema = Schema::of(
        "trip_stats",
        &[
            ("city", FieldType::Str),
            ("w", FieldType::Timestamp),
            ("trips", FieldType::Int),
            ("revenue", FieldType::Double),
            ("ingest_ts", FieldType::Timestamp),
        ],
    );
    let stats = p
        .create_olap_table(
            TableConfig::new("trip_stats", stats_schema)
                .with_time_column("ingest_ts")
                .with_partitions(2)
                .with_segment_rows(64),
        )
        .unwrap();
    let job = p
        .deploy_sql_pipeline(
            "windows",
            "SELECT city, TUMBLE(ts, 10000) AS w, COUNT(*) AS trips, SUM(fare) AS revenue \
             FROM trips GROUP BY city, TUMBLE(ts, 10000)",
            "trips",
            stats,
            &CompileOptions::default(),
        )
        .unwrap();
    assert_eq!(job.records_in, 3_000);

    // serving path: federated SQL with pushdown
    let out = p
        .sql("SELECT city, SUM(trips) AS total FROM trip_stats GROUP BY city ORDER BY total DESC")
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    let total: f64 = out
        .rows
        .iter()
        .map(|r| r.get_double("total").unwrap())
        .sum();
    assert_eq!(total, 3_000.0);
    // aggregation pushdown kept the engine thin
    assert!(
        out.stats.rows_shipped <= 10,
        "shipped {}",
        out.stats.rows_shipped
    );

    // archival path: raw logs -> warehouse -> federated query over hive
    let archived = p.archive_topic("trips", &trips_schema()).unwrap();
    assert_eq!(archived, 3_000);
    let out = p.sql("SELECT COUNT(*) AS n FROM hive.trips").unwrap();
    assert_eq!(out.rows[0].get_int("n"), Some(3_000));

    // lineage spans the whole graph
    let impact = p.lineage().impact("kafka.trips");
    assert!(impact.contains(&"pinot.trip_stats".to_string()));
    assert!(impact.contains(&"hive.trips".to_string()));
}

#[test]
fn federation_migration_under_live_sql_pipeline() {
    let p = platform();
    // add a second physical cluster, then migrate the topic mid-stream
    p.federation()
        .add_cluster(Cluster::new("cluster-2", ClusterConfig::default()));
    p.create_topic(
        "trips",
        TopicConfig::default().with_partitions(2),
        trips_schema(),
    )
    .unwrap();
    produce(&p, "trips", 500);

    let table = p
        .create_olap_table(
            TableConfig::new("trips", trips_schema())
                .with_time_column("ts")
                .with_partitions(2),
        )
        .unwrap();
    let mut ingester = p.ingest_into("trips", table.clone()).unwrap();
    assert_eq!(ingester.run_once().unwrap(), 500);

    // live migration: the ingester follows the topic's subscription and
    // reads on from its own positions, without a restart
    p.federation().migrate_topic("trips", "cluster-2").unwrap();
    assert_eq!(p.federation().placement("trips").unwrap(), "cluster-2");
    produce(&p, "trips", 100);
    assert_eq!(ingester.run_once().unwrap(), 100);
    let res = table
        .query(&Query::select_all("trips").aggregate("n", AggFn::Count))
        .unwrap();
    // exactly once: nothing replayed, nothing left behind
    let res_sel = p.sql("SELECT COUNT(*) AS n FROM trips").unwrap();
    assert_eq!(res_sel.rows[0].get_int("n"), Some(600));
    assert_eq!(res.rows[0].get_int("n"), Some(600));
}

#[test]
fn chaperone_certifies_topic_to_olap_and_detects_injected_loss() {
    let p = platform();
    p.create_topic(
        "trips",
        TopicConfig::default().with_partitions(2),
        trips_schema(),
    )
    .unwrap();
    let producer = p.producer("svc");
    for i in 0..200 {
        let rec = Record::new(
            Row::new()
                .with("city", "sf")
                .with("fare", 1.0)
                .with("ts", i as i64),
            i as i64,
        )
        .with_key(format!("k{i}"));
        producer.send("trips", rec).unwrap();
    }
    // observe the produce side by re-reading the topic (the producer
    // stamped unique ids)
    let sub = p.federation().subscribe("trips").unwrap();
    let t = sub.topic();
    for part in 0..t.num_partitions() {
        let log = t.partition(part).unwrap();
        for r in log.fetch(0, 10_000).unwrap().records {
            p.chaperone().observe("kafka", &r.record);
        }
    }
    let table = p
        .create_olap_table(
            TableConfig::new("trips", trips_schema())
                .with_time_column("ts")
                .with_partitions(2),
        )
        .unwrap();
    // ingestion reports under the `{topic}/ingested` stage so the
    // platform can pair it with the broker-side `{topic}/stream` counts
    p.ingest_into("trips", table).unwrap().run_once().unwrap();
    assert!(p.chaperone().certify("kafka", "trips/ingested"));

    // injected loss shows up as an audit alert
    p.chaperone().observe_id("kafka", "ghost-message", 50);
    let alerts = p.chaperone().audit("kafka", "trips/ingested");
    assert_eq!(alerts.len(), 1);
    assert_eq!(alerts[0].magnitude, 1);
}

#[test]
fn producer_audit_headers_survive_to_olap_ingestion() {
    let p = platform();
    p.create_topic(
        "trips",
        TopicConfig::default().with_partitions(1),
        trips_schema(),
    )
    .unwrap();
    let producer = p.producer("driver-app");
    producer
        .send(
            "trips",
            Record::new(
                Row::new()
                    .with("city", "sf")
                    .with("fare", 1.0)
                    .with("ts", 1i64),
                1,
            )
            .with_key("k"),
        )
        .unwrap();
    let sub = p.federation().subscribe("trips").unwrap();
    let rec = sub.topic().fetch(0, 0, 1).unwrap().records.remove(0).record;
    let rec = rec.audit();
    assert_eq!(rec.service.as_deref(), Some("driver-app"));
    assert!(rec.unique_id.is_some());
    assert!(rec.app_ts.is_some());
}

/// Ingest `topic` into a fresh table and return its two audit stages.
fn ingest_and_audit_stages(p: &RealtimePlatform, topic: &str, n: u64) -> (String, String) {
    let table = p
        .create_olap_table(
            TableConfig::new(topic, trips_schema())
                .with_time_column("ts")
                .with_partitions(2),
        )
        .unwrap();
    assert_eq!(p.ingest_into(topic, table).unwrap().run_once().unwrap(), n);
    (format!("{topic}/stream"), format!("{topic}/ingested"))
}

fn same_ms_trip(i: i64) -> Record {
    let row = Row::new()
        .with("city", "sf")
        .with("fare", 1.0)
        .with("ts", 7i64);
    Record::new(row, 7).with_key(format!("k{i}"))
}

#[test]
fn two_producers_of_one_service_audit_clean() {
    // both handles used to mint `svc-0, svc-1, ...`: Chaperone saw every
    // second record as a duplicate and half the uniques
    let p = platform();
    p.create_topic(
        "trips",
        TopicConfig::default().with_partitions(2),
        trips_schema(),
    )
    .unwrap();
    let (a, b) = (p.producer("svc"), p.producer("svc"));
    for i in 0..50 {
        a.send("trips", same_ms_trip(2 * i)).unwrap();
        b.send("trips", same_ms_trip(2 * i + 1)).unwrap();
    }
    let (stream, olap) = ingest_and_audit_stages(&p, "trips", 100);
    assert!(p.chaperone().certify(&stream, &olap));
    for stage in [&stream, &olap] {
        let stats = p.chaperone().stats(stage, 0);
        assert_eq!((stats.count, stats.unique), (100, 100), "{stage}");
    }
    assert!(p.health().zero_loss());
}

#[test]
fn undecorated_records_of_one_millisecond_are_not_duplicates() {
    // `platform.produce` mints no id: two records of one event ms used to
    // share the `<anon-7>` key, a false duplication that also hid a loss
    let p = platform();
    p.create_topic(
        "trips",
        TopicConfig::default().with_partitions(2),
        trips_schema(),
    )
    .unwrap();
    p.produce("trips", same_ms_trip(0)).unwrap();
    p.produce("trips", same_ms_trip(1)).unwrap();
    let (stream, olap) = ingest_and_audit_stages(&p, "trips", 2);
    assert!(p.chaperone().certify(&stream, &olap));
    let stats = p.chaperone().stats(&stream, 0);
    assert_eq!((stats.count, stats.anonymous), (2, 2));
    // a third one that never reaches the table is a loss of exactly one
    p.produce("trips", same_ms_trip(2)).unwrap();
    assert_eq!(p.chaperone().loss_and_duplication(&stream, &olap), (1, 0));
}

#[test]
fn schema_registry_guards_all_surfaces() {
    let p = platform();
    p.create_topic("trips", TopicConfig::default(), trips_schema())
        .unwrap();
    p.create_olap_table(TableConfig::new("trips", trips_schema()))
        .unwrap();
    // subjects exist per surface
    let subjects = p.registry().subjects();
    assert!(subjects.contains(&"kafka.trips".to_string()));
    assert!(subjects.contains(&"pinot.trips".to_string()));
    // discovery finds them
    assert_eq!(p.registry().discover("trips").len(), 2);
    // the topic holds version 1 of its schema, and a version its readers
    // could not read is refused
    let latest = p.registry().latest("kafka.trips").unwrap();
    assert_eq!((latest.version, &latest.schema), (1, &trips_schema()));
    let mut narrowed = trips_schema();
    narrowed.fields.pop();
    assert!(p.registry().register("kafka.trips", narrowed).is_err());
    assert_eq!(p.registry().latest("kafka.trips").unwrap().version, 1);
}

#[test]
fn semistructured_json_flattened_then_ingested() {
    // §4.3.3: "Users currently rely on a Flink job to preprocess an input
    // Kafka topic with nested JSON format into a flattened-schema Kafka
    // topic for Pinot ingestion."
    use rtdi::common::json;
    use rtdi::common::Value;
    use rtdi::compute::operator::FlatMapOp;
    use rtdi::compute::runtime::{run_staged_with, Job, StagedConfig};
    use rtdi::compute::sink::CollectSink;
    use rtdi::compute::source::VecSource;

    // nested JSON order events as they arrive from the app
    let docs: Vec<&str> = vec![
        r#"{"order": {"id": 1, "restaurant": {"name": "taqueria", "city": "sf"}, "total": 21.5}}"#,
        r#"{"order": {"id": 2, "restaurant": {"name": "noodles", "city": "la"}, "total": 11.0}}"#,
        r#"{"order": {"id": 3, "restaurant": {"name": "taqueria", "city": "sf"}, "total": 9.25}}"#,
    ];
    let records: Vec<Record> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            Record::new(
                Row::new().with("payload", Value::Json(Box::new(json::parse(d).unwrap()))),
                i as i64,
            )
        })
        .collect();

    // the Flink flattening preprocessor
    let flatten = FlatMapOp::new("flatten-json", |rec: &Record| {
        let Some(Value::Json(doc)) = rec.value.get("payload") else {
            return vec![];
        };
        let mut row = Row::new();
        for (path, value) in doc.flatten() {
            row.push(path.replace('.', "_"), value);
        }
        row.push("ts", rec.timestamp);
        vec![Record::new(row, rec.timestamp)]
    });
    let sink = CollectSink::new();
    let job = Job::new(
        "json-flatten",
        Box::new(VecSource::new(records)),
        vec![Box::new(flatten)],
        Box::new(sink.clone()),
    );
    run_staged_with(job, &StagedConfig::default()).unwrap();

    // flattened rows land in an OLAP table inferred from the sample —
    // "Pinot integrates with Uber's schema service to automatically infer
    // the schema from the input Kafka topic"
    let flat_rows = sink.rows();
    let (schema, cardinality) =
        rtdi::metadata::registry::SchemaRegistry::infer_from_rows("orders_flat", &flat_rows);
    assert!(schema.field("order_restaurant_city").is_some());
    assert_eq!(cardinality["order_restaurant_city"], 2);
    let table = rtdi::olap::table::OlapTable::new(
        rtdi::olap::table::TableConfig::new("orders_flat", schema).with_partitions(1),
    )
    .unwrap();
    for row in flat_rows {
        table.ingest(0, row).unwrap();
    }
    // queryable through the full SQL layer
    use rtdi::sql::connector::PinotConnector;
    use rtdi::sql::engine::{EngineConfig, SqlEngine};
    let pinot = PinotConnector::new();
    pinot.register(table);
    let mut engine = SqlEngine::new(EngineConfig::default());
    engine.register_connector("pinot", Arc::new(pinot));
    let out = engine
        .query(
            "SELECT order_restaurant_city AS city, COUNT(*) AS n, SUM(order_total) AS revenue \
             FROM orders_flat GROUP BY order_restaurant_city ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0].get_str("city"), Some("sf"));
    assert_eq!(out.rows[0].get_int("n"), Some(2));
    assert_eq!(out.rows[0].get_double("revenue"), Some(30.75));
}
