//! Allocation budget of the write path, counted by the workspace's
//! counting allocator (`rtdi_bench`): one record from `Producer::send` to the partition log costs
//! the `Arc<Record>` the log keeps plus amortised container growth (its
//! audit envelope rides inside the record, and a clone of it copies only
//! its cells), its
//! audit at OLAP ingest costs nothing per record, a round of ingest costs
//! its fetches and keeps no scratch of its own, an upsert names its segment
//! by pointer, and a retried send re-sends the shared record instead of
//! copying it. Then compute's: the
//! FlinkSQL window job reads the log's records where they lie, a filter
//! forwards the log's own handles, and a map leaves the log as appended.
//! Then the read path's: a query pays for the groups and rows it answers
//! with and a fixed sum per segment, not for every group of every segment
//! nor for every document that matched, a predicate on a sorted column
//! builds no cell per probe, and a statement whose shape ran before pays
//! for binding its literals into the cached plan, not for a parse. And the codecs': archiving pays nothing per
//! record, compaction pays per distinct string, not per record or field,
//! and a combine stage merges a partial row into a held window without
//! allocating. And the backfill's: the Kappa+ source's peak live bytes
//! follow the part it reads, not the range, and the records its first
//! stage hands back are refilled, so a backfill allocates for what is in
//! flight, not for every row. And the row's own: a row
//! built on a shared name list, a clone of one, a renamed window row and
//! a row read from a part pay for their cells and never for a name. And a
//! reader's subscription is a clone of its topic's one, which costs
//! nothing.
//!
//! One `#[test]`, so the process-wide counter sees one thread at work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::AggFn;
use rtdi::common::{row_names, Error, FieldType, Record, Result, Row, Schema, Text, Value};
use rtdi::compute::{
    run_staged_with, CollectSink, FilterOp, HiveSource, Job, MapOp, Operator, Source, StagedConfig,
    TopicSink, TopicSource, WindowAggregateOp, WindowAssigner,
};
use rtdi::core::platform::RealtimePlatform;
use rtdi::flinksql::compiler::{compile_streaming, CompileOptions};
use rtdi::olap::ingestion::{IngestionConfig, RealtimeIngester};
use rtdi::olap::query::{Predicate, PredicateOp, Query, SortOrder};
use rtdi::olap::realtime::MutableSegment;
use rtdi::olap::segment::{IndexSpec, Segment};
use rtdi::olap::table::{OlapTable, TableConfig};
use rtdi::sql::catalog::{HybridTable, RealtimeSide};
use rtdi::sql::connector::PinotConnector;
use rtdi::sql::engine::{EngineConfig, SqlEngine};
use rtdi::storage::archival::{ArchivalWriter, Compactor};
use rtdi::storage::hive::HiveCatalog;
use rtdi::storage::keyed::KeyedSnapshot;
use rtdi::storage::object::{InMemoryStore, ObjectStore};
use rtdi::stream::producer::{Producer, ProducerConfig, StreamEndpoint};
use rtdi::stream::topic::{Topic, TopicConfig};
use rtdi::usecases::workloads::CityDriverGenerator;
use rtdi_bench::count_allocations;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const PARTITIONS: usize = 4;

fn schema() -> Schema {
    Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    )
}

fn trips(n: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let row = Row::new()
                .with("city", ["sf", "la", "nyc"][i % 3])
                .with("fare", (i % 64) as f64)
                .with("ts", (i / 20) as i64);
            Record::new(row, (i / 20) as i64).with_key(format!("trip-{i}"))
        })
        .collect()
}

fn platform_with_topic() -> RealtimePlatform {
    let platform = RealtimePlatform::new();
    let config = TopicConfig::default().with_partitions(PARTITIONS);
    platform.create_topic("trips", config, schema()).unwrap();
    platform
}

fn table(name: &str) -> TableConfig {
    TableConfig::new(name, schema())
        .with_time_column("ts")
        .with_partitions(PARTITIONS)
}

/// An endpoint that refuses every send `failures` times before passing it
/// on. Its error carries an empty `String`, which allocates nothing.
struct Flaky {
    inner: Arc<dyn StreamEndpoint>,
    failures: usize,
    refused: AtomicUsize,
}

impl StreamEndpoint for Flaky {
    fn send(&self, topic: &str, record: Arc<Record>, now: i64) -> Result<(usize, u64)> {
        if self.refused.fetch_add(1, Ordering::Relaxed) % (self.failures + 1) < self.failures {
            return Err(Error::Unavailable(String::new()));
        }
        self.inner.send(topic, record, now)
    }
}

/// Allocations of `n` sends through an endpoint failing `failures` times
/// per send, on a platform of its own.
fn allocs_of_flaky_sends(n: usize, failures: usize) -> u64 {
    let platform = platform_with_topic();
    let endpoint = Arc::new(Flaky {
        inner: Arc::new(platform.federation().clone()),
        failures,
        refused: AtomicUsize::new(0),
    });
    let producer = Producer::new(endpoint.clone(), ProducerConfig::default());
    let records = trips(n);
    let ((), spent) = count_allocations(|| {
        for r in records {
            producer.send("trips", r).unwrap();
        }
    });
    assert_eq!(producer.records_sent(), n as u64);
    let attempts = endpoint.refused.load(Ordering::Relaxed);
    assert_eq!(attempts, n * (failures + 1), "every refusal was retried");
    spent.allocs
}

/// Ingest the `n` records of `platform`'s topic with the platform's
/// ingester, which audits and traces every record, and again with a bare
/// one into a twin table: the audit and the trace cost at most `n / 16`
/// allocations beyond the table's own. Returns the audited run's count.
fn audited_ingest_within_budget(platform: &RealtimePlatform, n: usize) -> u64 {
    let topic = platform.federation().subscribe("trips").unwrap().topic();
    let partitions = topic.num_partitions();
    let config = |name: &str| table(name).with_partitions(partitions);
    let audited = platform.create_olap_table(config("trips")).unwrap();
    let mut ingester = platform.ingest_into("trips", audited).unwrap();
    let (ingested, with_audit) = count_allocations(|| ingester.run_once().unwrap());
    let twin = OlapTable::new(config("twin")).unwrap();
    let mut bare = RealtimeIngester::new(topic, twin, IngestionConfig::default()).unwrap();
    let (plain, table_only) = count_allocations(|| bare.run_once().unwrap());
    let (with_audit, table_only) = (with_audit.allocs, table_only.allocs);
    assert_eq!((ingested, plain), (n as u64, n as u64));
    assert!(
        with_audit <= table_only + n as u64 / 16,
        "audited ingest of {n} records in {partitions} partitions: {with_audit} allocations \
         against {table_only} for the table alone"
    );
    assert!(platform.health().zero_loss());
    with_audit
}

/// The federation keeps one subscription per topic: a reader's is a
/// clone, however many readers subscribe.
fn subscribing_allocates_nothing() {
    let platform = platform_with_topic();
    let federation = platform.federation();
    let ((), spent) = count_allocations(|| {
        for _ in 0..100 {
            std::hint::black_box(federation.subscribe("trips").unwrap());
        }
    });
    assert_eq!(spent.allocs, 0, "100 subscriptions to one topic");
}

/// Every handle a topic's partition `p` holds, in offset order.
fn held(topic: &Topic, p: usize) -> Vec<Arc<Record>> {
    let fetched = topic.fetch(p, 0, usize::MAX / 2).unwrap();
    fetched.records.into_iter().map(|r| r.record).collect()
}

fn bare_topic(name: &str) -> Arc<Topic> {
    Arc::new(Topic::new(name, TopicConfig::default().with_partitions(PARTITIONS)).unwrap())
}

/// Compute over records a topic already holds: the benchmark's windowed SQL
/// within its allocation budget, and the ownership rule at both ends — a
/// filter's output *is* the source log's entries, a map's input is left
/// as it was appended.
fn compute_reads_the_log_where_it_lies() {
    const N: usize = 40_000;
    let source = bare_topic("trips");
    let mut gen = CityDriverGenerator::new(7, 512, 4_000, 1.0);
    for i in 0..N {
        let trip = gen.trip((i / 20) as i64).with_key(format!("trip-{i}"));
        source.append(trip, 0).unwrap();
    }
    let appended: Vec<Vec<Record>> = (0..PARTITIONS)
        .map(|p| held(&source, p).iter().map(|r| (**r).clone()).collect())
        .collect();
    let run = |job: Job| run_staged_with(job, &StagedConfig::default()).unwrap();

    let windows = CollectSink::new();
    let job = compile_streaming(
        "windows",
        "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips, SUM(fare) AS revenue \
         FROM trips GROUP BY city, TUMBLE(ts, 1000)",
        source.clone(),
        Box::new(windows.clone()),
        &CompileOptions::default(),
    )
    .unwrap();
    let (stats, spent) = count_allocations(|| run(job));
    let allocs = spent.allocs;
    assert_eq!(stats.records_in, N as u64);
    let counted: i64 = windows
        .rows()
        .iter()
        .filter_map(|r| r.get_int("trips"))
        .sum();
    assert_eq!(counted, N as i64, "no record dropped as late");
    assert!(
        allocs <= 2 * N as u64,
        "window job: {allocs} allocations for {N} records, emissions included"
    );

    // filter -> topic: what the destination log holds are the source log's
    // own entries, in order, so no record was copied on the way
    let dest = bare_topic("cheap");
    let cheap = |r: &Row| r.get_double("fare").is_some_and(|f| f < 20.0);
    run(Job::new(
        "filter",
        Box::new(TopicSource::bounded(source.clone()).unwrap()),
        vec![Box::new(FilterOp::new("cheap", cheap))],
        Box::new(TopicSink::new(dest.clone(), || 0)),
    ));
    let mut kept = 0;
    for p in 0..PARTITIONS {
        let from = held(&source, p);
        let mut from = from.iter();
        for forwarded in held(&dest, p) {
            let shared = from.any(|r| Arc::ptr_eq(r, &forwarded));
            assert!(
                shared,
                "partition {p} holds a record the source log does not"
            );
            kept += 1;
        }
    }
    let expected = appended
        .iter()
        .flatten()
        .filter(|r| cheap(&r.value))
        .count();
    assert!(
        0 < kept && kept < N,
        "the filter passes some records, not all"
    );
    assert_eq!(kept, expected);

    // map: new records come out, and the log's are as they were appended
    let mapped = CollectSink::new();
    run(Job::new(
        "map",
        Box::new(TopicSource::bounded(source.clone()).unwrap()),
        vec![Box::new(MapOp::new("tag", |r: &Row| {
            r.clone().with("tagged", true)
        }))],
        Box::new(mapped.clone()),
    ));
    assert_eq!(mapped.len(), N);
    assert!(mapped.rows().iter().all(|r| r.get("tagged").is_some()));
    for (p, before) in appended.iter().enumerate() {
        let after = held(&source, p);
        assert!(
            after.iter().map(|r| &**r).eq(before),
            "partition {p} of the source log changed under a map"
        );
    }
}

/// An upsert costs its key's text and nothing for the segment's name.
fn upsert_names_its_segment_by_pointer() {
    const N: usize = 10_000;
    let trip = Schema::of(
        "fares",
        &[("trip", FieldType::Str), ("fare", FieldType::Double)],
    );
    let rows: Vec<Row> = (0..N)
        .map(|i| {
            let fare = (i % 64) as f64;
            Row::new()
                .with("trip", format!("t{}", i % 2_000))
                .with("fare", fare)
        })
        .collect();
    let allocs_of = |config: TableConfig| {
        let table = OlapTable::new(config.with_partitions(1).with_segment_rows(3_000)).unwrap();
        let batch = rows.iter().map(|r| (r, None));
        let (ingested, spent) = count_allocations(|| table.ingest_batch(0, batch));
        assert_eq!(ingested, Ok(N));
        spent.allocs
    };
    let plain = allocs_of(TableConfig::new("plain", trip.clone()));
    let upsert = allocs_of(TableConfig::new("upsert", trip.clone()).with_upsert("trip"));
    assert!(
        upsert <= plain + N as u64 + 64,
        "upsert ingest: {upsert} allocations for {N} rows against {plain} without the index"
    );
}

/// What a query's answer travels in: a segment's groups are cells in an
/// arena and accumulators in a vector, a selection's docs are cut to the
/// limit before rows are built. Budgets are `a * what is answered +
/// b * segments`; the forms they replaced paid per group per segment and
/// per matching document.
fn queries_pay_for_what_they_answer() {
    const N: usize = 12_000;
    const CITIES: usize = 512;
    // `rows` rows in segments of `segment_rows`, 128 cities a partition,
    // queried on one thread: how a pool's workers split the segments
    // moves the allocations of their result vectors
    let filled = |segment_rows: usize, rows: usize| {
        let config = table("trips").with_segment_rows(segment_rows);
        let table = OlapTable::new(config.with_query_threads(1)).unwrap();
        for i in 0..rows {
            let row = Row::new()
                .with("city", format!("city-{:03}", (i * 7) % CITIES))
                .with("fare", (i % 64) as f64)
                .with("ts", (i / 20) as i64);
            table.ingest(i % PARTITIONS, row).unwrap();
        }
        table
    };
    let table = filled(1_000, N);
    let run = |q: &Query| {
        let (res, spent) = count_allocations(|| table.query(q).unwrap());
        assert!(res.ledger.segments_queried >= 12);
        (
            res.rows.len() as u64,
            res.ledger.segments_queried,
            spent.allocs,
        )
    };
    let count = Query::select_all("trips").aggregate("n", AggFn::Count);
    let revenue = count
        .clone()
        .aggregate("revenue", AggFn::Sum("fare".into()));

    // a global aggregate has no keys to ship: a partial is its accumulators
    // and the merge probes nothing. A full selection walks the column
    // vectors, so a sealed segment pays its selection bitmap and its
    // accumulator vector and no doc-id list (33 over 16 segments, 4 of them
    // empty; a doc-id list and a vector of resolved inputs beside them, 61)
    let (_, segments, allocs) = run(&count);
    assert!(
        allocs <= 2 * segments + 12,
        "COUNT(*): {allocs} allocations over {segments} segments"
    );

    // every city is in every segment: 512 groups a segment, 512 answered
    let by_city = revenue.clone().group(&["city"]);
    let (groups, segments, allocs) = run(&by_city);
    assert_eq!(groups, CITIES as u64);
    assert!(
        allocs <= 2 * groups + 40 * segments + 64,
        "GROUP BY city: {allocs} allocations for {groups} groups over {segments} segments"
    );
    // and a top 10 builds 10 rows
    let top = by_city.order("n", SortOrder::Desc).limit(10);
    let (rows, segments, allocs) = run(&top);
    assert!(
        allocs <= 2 * rows + 40 * segments + 64,
        "top 10 cities: {allocs} allocations over {segments} segments"
    );

    // four times the docs a segment, as many segments: a full selection
    // folds off the column vectors, with no doc-id list and no per-doc
    // group id, so what a query allocates does not change and what grows
    // is the filter's selection bitmap, a bit a doc
    let quadrupled = filled(4_000, 4 * N);
    for q in [&revenue, &top] {
        let (small, of_small) = count_allocations(|| table.query(q).unwrap());
        let (big, of_big) = count_allocations(|| quadrupled.query(q).unwrap());
        let segments = small.ledger.segments_queried;
        assert_eq!(segments, big.ledger.segments_queried);
        assert_eq!(big.ledger.docs_scanned, 4 * small.ledger.docs_scanned);
        assert_eq!(
            of_small.allocs,
            of_big.allocs,
            "{q:?}: {of_small} over {N} docs, {of_big} over {}",
            4 * N
        );
        assert!(
            of_big.bytes <= of_small.bytes + (3 * N / 8) as u64 + 8 * segments,
            "{q:?}: {of_small} over {N} docs, {of_big} over {}",
            4 * N
        );
    }

    // a group column without a dictionary renders each value's key once:
    // a new group allocates, a document does not
    let (groups, segments, allocs) = run(&count.clone().group(&["ts"]));
    assert_eq!(groups, (N / 20) as u64);
    assert!(
        allocs <= 3 * groups + 40 * segments + 64,
        "GROUP BY ts: {allocs} allocations for {groups} groups, {N} docs, {segments} segments"
    );
    // and numbers the selected docs, not the segment's: the 200 docs of
    // `ts < 10` cost the same in 4 000-doc segments as in 1 000-doc ones,
    // bar the selection bitmap
    let recent = count.filter(Predicate::new("ts", PredicateOp::Lt, 10i64));
    let recent = recent.group(&["ts"]);
    let (small, of_small) = count_allocations(|| table.query(&recent).unwrap());
    let (big, of_big) = count_allocations(|| quadrupled.query(&recent).unwrap());
    assert_eq!((small.rows.len(), big.rows.len()), (10, 10));
    let segments = small.ledger.segments_queried;
    assert_eq!(segments, big.ledger.segments_queried);
    assert_eq!(
        of_small.allocs, of_big.allocs,
        "{of_small} against {of_big}"
    );
    assert!(
        of_big.bytes <= of_small.bytes + (3 * N / 8) as u64 + 8 * segments,
        "WHERE ts < 10 GROUP BY ts: {of_small} over {N} docs, {of_big} over {}",
        4 * N
    );

    // two key columns, one of them without a dictionary, pack into one
    // integer key: a new group allocates no key of its own, and a row
    // answered its two key cells
    let (groups, segments, allocs) = run(&revenue.clone().group(&["city", "fare"]));
    assert_eq!(groups, CITIES as u64);
    assert!(
        allocs <= 3 * groups + 40 * segments + 64,
        "GROUP BY city, fare: {allocs} allocations for {groups} groups over {segments} segments"
    );

    // the latest 20 of an eighth of the table and of all of it: eight times
    // the matching docs grow each segment's doc-id list three doublings
    let latest = |fare: f64| {
        Query::select_all("trips")
            .columns(&["city", "fare", "ts"])
            .filter(Predicate::new("fare", PredicateOp::Ge, fare))
            .order("ts", SortOrder::Desc)
            .limit(20)
    };
    let (_, segments, of_an_eighth) = run(&latest(56.0));
    let (rows, _, of_all) = run(&latest(0.0));
    assert_eq!(rows, 20);
    assert!(
        of_all <= of_an_eighth + 4 * segments,
        "ORDER BY ts DESC LIMIT 20: {of_all} allocations over {N} matching docs, \
         {of_an_eighth} over an eighth of them"
    );
}

/// The same through SQL: a drilldown pays per group answered the OLAP row
/// (its cell vector and its key's text) and the projection's row, whose
/// cells move over from it under names interned once; the rest is a fixed
/// sum per segment, parse and plan included. At two group counts, so a
/// cost per group cannot hide in the sum.
fn sql_drilldown_pays_for_its_groups() {
    const N: usize = 16_000;
    let platform = RealtimePlatform::new();
    let schema = Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("driver", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    );
    let config = TableConfig::new("trips", schema)
        .with_time_column("ts")
        .with_partitions(PARTITIONS)
        .with_segment_rows(1_000)
        .with_query_threads(1);
    let table = platform.create_olap_table(config).unwrap();
    for i in 0..N {
        // city "few" has 250 drivers, city "many" 2 000
        let (city, driver) = match i % 2 {
            0 => ("few", (i / 2 * 7) % 250),
            _ => ("many", (i / 2 * 13) % 2_000),
        };
        let row = Row::new()
            .with("city", city)
            .with("driver", format!("drv-{driver:05}"))
            .with("fare", (i % 64) as f64)
            .with("ts", (i / 20) as i64);
        table.ingest(i % PARTITIONS, row).unwrap();
    }
    for (city, drivers) in [("few", 250), ("many", 2_000)] {
        let sql = format!(
            "SELECT driver, COUNT(*) AS n, SUM(fare) AS revenue FROM trips \
             WHERE city = '{city}' GROUP BY driver"
        );
        let (out, spent) = count_allocations(|| platform.sql(&sql).unwrap());
        let (groups, segments) = (out.rows.len() as u64, out.stats.segments_queried);
        assert_eq!(groups, drivers);
        assert!(
            spent.allocs <= 3 * groups + 24 * segments,
            "{sql}: {} allocations for {groups} groups over {segments} segments",
            spent.allocs
        );
    }
}

/// A statement whose shape was planned before pays for its shape key, its
/// literal and a copy of the cached plan with the literal bound in, not
/// for a parse, a plan and an optimisation: `trickle_visible`'s
/// `COUNT(*) … WHERE ts >= X` front end (normalise, look up, bind, derive
/// partitions) is exactly 12 allocations on a hit — the key and the
/// literal list, the plan's copy (a projection over a scan, 7) and the
/// scan's predicate list the literal is bound into (3) — where the first
/// run of the shape pays 64. The hit's plan is the one a fresh engine
/// makes of the text.
fn a_repeated_shape_skips_the_front_end() {
    let engine = || {
        let pinot = PinotConnector::new();
        pinot.register(OlapTable::new(table("trips")).unwrap());
        let mut engine = SqlEngine::new(EngineConfig::default());
        engine.register_connector("pinot", Arc::new(pinot));
        engine
    };
    let sql = |ts: i64| format!("SELECT COUNT(*) AS n FROM trips WHERE ts >= {ts}");
    let (warm, first, second) = (engine(), sql(1_000), sql(2_000));
    let (_, missed) = count_allocations(|| warm.plan(&first).unwrap());
    let (plan, hit) = count_allocations(|| warm.plan(&second).unwrap());
    assert_eq!(plan, engine().plan(&second).unwrap());
    assert_eq!(
        hit.allocs, 12,
        "{second}: a planned shape's front end allocated {} (its first run {})",
        hit.allocs, missed.allocs
    );
    assert!(missed.allocs > 4 * hit.allocs, "{}", missed.allocs);
}

/// A query through a `HybridTable` left at its default thread count (one
/// per core) over one offline segment scatters one task: it allocates
/// exactly what the same query allocates on one query thread, and does not
/// ask the host for its core count, which reads cgroup files and allocates.
fn one_segment_asks_no_core_count() {
    let rows: Vec<Row> = trips(2_000).into_iter().map(|r| r.value).collect();
    let segment = Segment::build("off", &schema(), rows, &IndexSpec::none()).unwrap();
    let file = segment.persist().unwrap();
    let engine = |threads: Option<usize>| {
        let realtime = OlapTable::new(table("trips").with_query_threads(1)).unwrap();
        let hybrid = HybridTable::new("trips", schema(), "ts", RealtimeSide::Direct(realtime));
        let hybrid = match threads {
            Some(n) => hybrid.with_query_threads(n),
            None => hybrid,
        };
        let offline = Segment::load_lazy(file.clone()).unwrap();
        hybrid
            .register_offline_segment(Arc::new(offline), None)
            .unwrap();
        let pinot = PinotConnector::new();
        pinot.register_hybrid(Arc::new(hybrid));
        let mut engine = SqlEngine::new(EngineConfig {
            default_catalog: "pinot".into(),
            enable_pushdown: true,
        });
        engine.register_connector("pinot", Arc::new(pinot));
        engine
    };
    let sql = "SELECT city, COUNT(*) AS n FROM trips GROUP BY city";
    let (default, one) = (engine(None), engine(Some(1)));
    let (answer, spent) = count_allocations(|| default.query(sql).unwrap());
    let (expected, on_one) = count_allocations(|| one.query(sql).unwrap());
    assert_eq!(answer.rows, expected.rows);
    assert_eq!(
        spent.allocs, on_one.allocs,
        "{sql}: the default thread count allocated {} against {} on one thread",
        spent.allocs, on_one.allocs
    );
}

/// A predicate on the column a segment is sorted by is a binary search
/// that probes the raw column (dictionary ids here), so it allocates its
/// bitmaps and no cell: sixty-four times the docs, six more probes, the
/// same allocations.
fn sorted_probes_build_no_value() {
    let by_city = IndexSpec::none().with_sorted("city");
    let allocs_of = |n: usize| {
        let rows = (0..n).map(|i| Row::new().with("city", format!("city-{i:06}")));
        let segment = Segment::build("s", &schema(), rows.collect(), &by_city).unwrap();
        let ops = [
            PredicateOp::Eq,
            PredicateOp::Ne,
            PredicateOp::Lt,
            PredicateOp::Ge,
        ];
        let preds: Vec<Predicate> = ops
            .into_iter()
            .map(|op| Predicate::new("city", op, "city-000500"))
            .collect();
        preds
            .iter()
            .map(|p| {
                let ((docs, _), spent) =
                    count_allocations(|| segment.filter_docs(std::slice::from_ref(p)).unwrap());
                assert!(docs.any(), "{p:?} over {n} docs");
                spent.allocs
            })
            .sum::<u64>()
    };
    let (small, big) = (allocs_of(1_000), allocs_of(64_000));
    assert_eq!(
        small, big,
        "sorted-column predicates: {small} allocations over 1 000 docs, {big} over 64 000"
    );
}

/// `ts >= X` over rows appended in time order, as event time arrives: the
/// docs a segment tests are those of the one or two 1 024-doc blocks whose
/// time bounds straddle X, consuming or sealed, at 10 000 docs and at
/// 40 000, and the query allocates the same at both. Shuffled, every block
/// straddles X, every doc is tested, and the answer is the same.
fn fresh_rows_skip_old_blocks() {
    const BLOCK: u64 = 1_024;
    const LATEST: usize = 2_000;
    let mut allocs = Vec::new();
    for n in [10_000usize, 40_000] {
        let row = |i: usize| Row::new().with("city", "sf").with("ts", (i / 20) as i64);
        let since = Query::select_all("trips")
            .filter(Predicate::new(
                "ts",
                PredicateOp::Ge,
                ((n - LATEST) / 20) as i64,
            ))
            .aggregate("n", AggFn::Count);
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut shuffled: Vec<Row> = (0..n).map(row).collect();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        for (ordered, rows) in [(true, (0..n).map(row).collect()), (false, shuffled)] {
            let mut consuming = MutableSegment::new("c", schema());
            for r in &rows {
                consuming.append(r, None).unwrap();
            }
            let sealed = Segment::build("s", &schema(), rows, &IndexSpec::none()).unwrap();
            let (tail, of_tail) = count_allocations(|| consuming.execute(&since, None).unwrap());
            let (cold, of_cold) = count_allocations(|| sealed.execute(&since, None).unwrap());
            for res in [&tail, &cold] {
                // a segment's docs_scanned: the docs it tested, then the
                // docs that matched, folded
                assert_eq!(res.rows[0].get_int("n"), Some(LATEST as i64));
                let tested = res.ledger.docs_scanned - LATEST as u64;
                if ordered {
                    assert!(tested <= 2 * BLOCK, "{tested} of {n} docs tested");
                } else {
                    assert_eq!(tested, n as u64, "shuffled: {tested} of {n} docs tested");
                }
            }
            if ordered {
                allocs.push((of_tail.allocs, of_cold.allocs));
            }
        }
    }
    assert_eq!(allocs[0], allocs[1], "ts >= X at 10 000 and at 40 000 docs");
}

/// The benchmark's trips: Zipf cities and drivers over its vocabulary.
fn benchmark_trips(n: usize) -> Vec<Record> {
    let mut gen = CityDriverGenerator::new(7, 512, 4_000, 1.0);
    (0..n).map(|i| gen.trip((i / 20) as i64)).collect()
}

/// Compaction reads a raw log where it lies: two allocations per distinct
/// string (the dictionary's and the intern table's copy) plus a sum that
/// does not grow with the records, at 10 000 records and at 40 000. A
/// copy per field or per record would be tens of thousands more.
fn compaction_pays_per_distinct_string() {
    const FIXED: u64 = 512;
    let schema = Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("driver", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    );
    for n in [10_000usize, 40_000] {
        let records = benchmark_trips(n);
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone());
        catalog.create_table("trips", schema.clone()).unwrap();
        ArchivalWriter::new(store.clone(), "trips")
            .write_batch(&records)
            .unwrap();
        let distinct = |col: &str| {
            let texts = records.iter().filter_map(|r| r.value.get_str(col));
            texts.collect::<HashSet<_>>().len() as u64
        };
        let strings = distinct("city") + distinct("driver");
        let compactor = Compactor::new(store, catalog);
        let (rows, spent) =
            count_allocations(|| compactor.compact("trips", "d000000", &schema).unwrap());
        assert_eq!(rows, n);
        let allocs = spent.allocs;
        assert!(
            allocs <= 2 * strings + FIXED,
            "compaction of {n} records: {allocs} allocations for {strings} distinct strings"
        );
    }
}

/// The Kappa+ source holds one group of part files decoded and one poll of
/// records at a time: drained a poll at a time, eight days of one-day parts
/// peak within a quarter of what one day peaks at. A source that built
/// every record of its range before the first poll peaked eightfold.
fn backfill_memory_follows_the_part_not_the_range() {
    const DAY: i64 = 86_400_000;
    const PER_DAY: usize = 5_000;
    let schema = Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("driver", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    );
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let catalog = HiveCatalog::new(store.clone());
    let table = catalog.create_table("trips", schema.clone()).unwrap();
    let mut gen = CityDriverGenerator::new(7, 512, 4_000, 1.0);
    let records: Vec<Record> = (0..8 * PER_DAY)
        .map(|i| gen.trip((i / PER_DAY) as i64 * DAY + (i % PER_DAY) as i64 * 10))
        .collect();
    let written = ArchivalWriter::new(store.clone(), "trips")
        .write_records(&records)
        .unwrap();
    let compactor = Compactor::new(store, catalog);
    for (date, _) in &written {
        assert_eq!(compactor.compact("trips", date, &schema).unwrap(), PER_DAY);
    }
    let peak = |days: i64| {
        let (n, spent) = count_allocations(|| {
            let mut source = HiveSource::new(&table, 0, days * DAY, 512, None).unwrap();
            let mut n = 0;
            while !source.is_exhausted() {
                n += source.poll_batch(512).unwrap().len();
            }
            n
        });
        assert_eq!(n, days as usize * PER_DAY);
        spent.peak_live
    };
    let (one, eight) = (peak(1), peak(8));
    assert!(
        eight * 4 <= one * 5,
        "draining one day peaked at {one} live bytes, eight days at {eight}"
    );
}

/// Archiving encodes a date's records into one growing buffer: 10 000 and
/// 40 000 records of one date allocate within a constant of each other.
/// Anything paid per record — a `String`, a buffer of its own — would be
/// tens of thousands more.
fn archiving_pays_nothing_per_record() {
    const SLACK: u64 = 16;
    let mut allocs = Vec::new();
    for n in [10_000usize, 40_000] {
        let records = benchmark_trips(n);
        let writer = ArchivalWriter::new(Arc::new(InMemoryStore::new()), "trips");
        let (written, spent) = count_allocations(|| writer.write_records(&records).unwrap());
        assert_eq!(written.len(), 1, "{n} records span one date");
        allocs.push(spent.allocs);
    }
    assert!(
        allocs[1] <= allocs[0] + SLACK,
        "archiving 10 000 records: {} allocations, 40 000: {}",
        allocs[0],
        allocs[1]
    );
}

/// A combine stage reads each partial row's accumulators in place: a row
/// whose (key, window) it already holds merges into it and allocates
/// nothing.
fn combine_merges_held_partials_in_place() {
    let aggs = vec![
        ("trips".to_string(), AggFn::Count),
        ("revenue".to_string(), AggFn::Sum("fare".into())),
        ("top".to_string(), AggFn::Max("fare".into())),
    ];
    // a window of 10 ms holds 200 trips: both shards leave a partial of
    // most cities in each
    let window = WindowAssigner::tumbling(10);
    let salted = WindowAggregateOp::new("agg", vec!["city".into()], window, aggs, 0)
        .with_parallelism(2)
        .with_hot_key_salting(1);
    let mut shards: Vec<_> = (0..2).map(|i| salted.make_shard(i, 2).unwrap()).collect();
    let mut partials = Vec::new();
    for (i, trip) in benchmark_trips(20_000).into_iter().enumerate() {
        shards[i % 2]
            .process(&Arc::new(trip), &mut partials)
            .unwrap();
    }
    for shard in &mut shards {
        shard.on_watermark(i64::MAX, &mut partials);
    }
    let mut combiner = salted.make_combiner().unwrap();
    let mut out = Vec::new();
    for p in &partials {
        combiner.process(p, &mut out).unwrap();
    }
    let ((), spent) = count_allocations(|| {
        for p in &partials {
            combiner.process(p, &mut out).unwrap();
        }
    });
    assert!(out.is_empty(), "no window closed");
    assert!(partials.len() > 10_000, "{} partial rows", partials.len());
    assert_eq!(
        spent.allocs,
        0,
        "{} held partial rows merged",
        partials.len()
    );
}

/// The benchmark's tumble keeps its windows in a hash map: a record whose
/// (key, window) is held folds in and allocates nothing, and a checkpoint
/// of its ~1 000 held windows writes every entry straight into one buffer,
/// a constant per key group however many windows a group holds.
fn windows_fold_and_checkpoint_in_place() {
    let aggs = vec![
        ("trips".to_string(), AggFn::Count),
        ("revenue".to_string(), AggFn::Sum("fare".into())),
    ];
    let window = WindowAssigner::tumbling(1_000);
    let mut tumble = WindowAggregateOp::new("agg", vec!["city".into()], window, aggs, 0);
    let trips: Vec<Arc<Record>> = benchmark_trips(40_000).into_iter().map(Arc::new).collect();
    let mut out = Vec::new();
    tumble.process_batch(&trips, &mut out).unwrap();
    let ((), folded) = count_allocations(|| tumble.process_batch(&trips, &mut out).unwrap());
    assert!(out.is_empty(), "no window closed");
    assert_eq!(
        folded.allocs,
        0,
        "{} records folded into held windows",
        trips.len()
    );

    let (snapshot, spent) = count_allocations(|| tumble.snapshot());
    let snap = KeyedSnapshot::decode(snapshot).unwrap();
    let groups = snap.frames.len() as u64;
    let frame_entries = |frame: &[u8]| u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]);
    let windows: u32 = snap.frames.iter().map(|(_, f)| frame_entries(f)).sum();
    assert!(windows > 900, "{windows} windows held");
    assert!(
        spent.allocs <= 2 * groups,
        "checkpoint of {windows} windows in {groups} key groups: {spent}"
    );
}

/// A row is its cells and one shared name list. 1 000 rows built on one
/// list allocate their cell slices and nothing else: no name, and no
/// short string cell ([`Text`] holds it inline). A clone of them
/// allocates the same. The benchmark job's `TUMBLE(ts, 1000) AS w`
/// stage allocates what a clone of its input row does: nothing for the
/// rename. The rows a `HiveSource` reads from one part all stand on one
/// list.
fn rows_share_their_names() {
    const N: usize = 1_000;
    let names = row_names(["city", "driver", "fare", "ts"]);
    let (city, driver) = (Text::from("city-001"), Text::from("drv-00001"));
    let (rows, built) = count_allocations(|| {
        let row = |i: usize| {
            let cells = vec![
                Value::Str(city.clone()),
                Value::Str(driver.clone()),
                Value::Double(0.25),
                Value::Int(i as i64),
            ];
            Row::on(Arc::clone(&names), cells)
        };
        (0..N).map(row).collect::<Vec<Row>>()
    });
    // per row its cell slice, and the vector of rows
    let cell_slices = N as u64 + 1;
    assert_eq!(built.allocs, cell_slices, "{N} rows on one list");
    let (copies, cloned) = count_allocations(|| rows.clone());
    assert_eq!(cloned.allocs, cell_slices, "a clone of {N} rows");
    assert!(copies.iter().all(|r| Arc::ptr_eq(r.names(), &names)));

    // the window stage's rows as the alias stage receives them
    let job = compile_streaming(
        "alias",
        "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips, SUM(fare) AS revenue \
         FROM trips GROUP BY city, TUMBLE(ts, 1000)",
        bare_topic("alias"),
        Box::new(CollectSink::new()),
        &CompileOptions::default(),
    )
    .unwrap();
    let mut alias = (job.operators.into_iter())
        .find(|op| op.name() == "window-alias")
        .unwrap();
    let emitted = row_names(["city", "window_start", "window_end", "trips", "revenue"]);
    let windows: Vec<Arc<Record>> = (0..N as i64)
        .map(|i| {
            let cells = vec![
                Value::Str(city.clone()),
                Value::Int(i * 1_000),
                Value::Int((i + 1) * 1_000),
                Value::Int(3),
                Value::Double(7.5),
            ];
            Arc::new(Record::new(
                Row::on(Arc::clone(&emitted), cells),
                i * 1_000 + 999,
            ))
        })
        .collect();
    // the first row builds the stage's output list, once
    alias.process(&windows[0], &mut Vec::new()).unwrap();
    let mut copy = MapOp::new("copy", |row: &Row| row.clone());
    let run = |op: &mut dyn Operator| {
        let mut out = Vec::with_capacity(N);
        let ((), spent) = count_allocations(|| {
            windows
                .iter()
                .for_each(|r| op.process(r, &mut out).unwrap());
        });
        (out, spent.allocs)
    };
    let (aliased, renaming) = run(alias.as_mut());
    let (_, copying) = run(&mut copy);
    assert_eq!(
        renaming, copying,
        "window-alias over {N} rows against a clone"
    );
    let list = aliased[0].value.names();
    assert!(aliased.iter().all(|r| Arc::ptr_eq(r.value.names(), list)));
    assert_eq!(aliased[5].value.get_int("w"), Some(5_000));

    // a part's rows: one list, whichever batch they come in
    let schema = Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("driver", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    );
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let catalog = HiveCatalog::new(store.clone());
    let table = catalog.create_table("trips", schema.clone()).unwrap();
    let mut gen = CityDriverGenerator::new(7, 512, 4_000, 1.0);
    let records: Vec<Record> = (0..N).map(|i| gen.trip(i as i64)).collect();
    let written = ArchivalWriter::new(store.clone(), "trips")
        .write_records(&records)
        .unwrap();
    let compactor = Compactor::new(store, catalog);
    for (date, _) in &written {
        assert_eq!(compactor.compact("trips", date, &schema).unwrap(), N);
    }
    let mut source = HiveSource::new(&table, 0, 86_400_000, 128, None).unwrap();
    let mut read = Vec::new();
    while !source.is_exhausted() {
        read.extend(source.poll_batch(100).unwrap());
    }
    assert_eq!(read.len(), N);
    let list = read[0].value.names();
    assert!(read.iter().all(|r| Arc::ptr_eq(r.value.names(), list)));

    // the backfill's rows: once the part's group is open, a row is its
    // cell slice and its `Arc<Record>`, its city text inline
    let select = ["city", "fare", "ts"].map(String::from).to_vec();
    let mut source = HiveSource::new(&table, 0, 86_400_000, 128, Some(&select)).unwrap();
    assert_eq!(source.poll_batch(100).unwrap().len(), 100);
    let (batch, polled) = count_allocations(|| source.poll_batch(100).unwrap());
    assert_eq!(batch.len(), 100);
    assert_eq!(batch[0].value.len(), 3);
    assert_eq!(
        polled.allocs,
        2 * 100 + 1,
        "100 backfill rows and their batch"
    );

    // once those records come back, held by nothing else, the next poll
    // refills them: its batch vector is all it allocates
    let mut spent = batch;
    source.recycle(&mut spent);
    assert!(spent.is_empty());
    let (batch, polled) = count_allocations(|| source.poll_batch(100).unwrap());
    assert_eq!(batch.len(), 100);
    assert!(
        polled.allocs <= 1,
        "100 refilled backfill rows: {} allocations",
        polled.allocs
    );
}

/// A whole backfill refills the records its first stage is done with: it
/// builds new ones only for what is in flight on the first hop, at most
/// about `channel_capacity + 2` batches, however many rows it reads
/// (about 4 600 allocations for 200 000 rows in a release build, 20 600
/// in a debug one). A backfill that built every row anew paid two
/// allocations a row.
fn a_backfill_builds_only_its_records_in_flight() {
    const ROWS: usize = 200_000;
    const PART: usize = 10_000;
    let platform = RealtimePlatform::new();
    let schema = Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
            ("__ts", FieldType::Timestamp),
        ],
    );
    let catalog = platform.catalog();
    catalog.create_table("trips", schema).unwrap();
    for part in 0..ROWS / PART {
        let rows: Vec<Row> = (part * PART..(part + 1) * PART)
            .map(|i| {
                let ts = i as i64 * 10;
                Row::new()
                    .with("city", ["sf", "la", "nyc"][i % 3])
                    .with("fare", (i % 64) as f64)
                    .with("ts", ts)
                    .with("__ts", ts)
            })
            .collect();
        catalog.write_rows("trips", "d000000", &rows).unwrap();
    }
    let sink = CollectSink::new();
    let (stats, spent) = count_allocations(|| {
        platform
            .backfill_sql(
                "refill",
                "SELECT city, TUMBLE(ts, 60000) AS w, COUNT(*) AS trips \
                 FROM trips GROUP BY city, TUMBLE(ts, 60000)",
                "trips",
                0,
                i64::MAX,
                Box::new(sink.clone()),
            )
            .unwrap()
    });
    assert_eq!(stats.records_in, ROWS as u64);
    let trips: i64 = sink.rows().iter().filter_map(|r| r.get_int("trips")).sum();
    assert_eq!(trips, ROWS as i64);
    let config = StagedConfig::default();
    let in_flight = ((config.channel_capacity + 2) * config.batch_size) as u64;
    // two a record in flight, and a poll's vector and a part's columns
    // for every 64 rows
    assert!(
        spent.allocs <= 2 * in_flight + (ROWS / 64) as u64,
        "a backfill of {ROWS} rows, {in_flight} in flight: {spent}"
    );
}

/// A string cell of up to 22 bytes is held inline ([`Text`]): it costs no
/// allocation to build, clone or intern. One byte longer, it costs what a
/// `String` did: one allocation to build and one to clone.
fn short_strings_live_in_the_cell() {
    let long = "hexagon-0123456789abcde";
    assert_eq!(long.len(), Text::INLINE + 1);
    let (cell, built) = count_allocations(|| Value::from(long));
    assert_eq!(built.allocs, 1, "a {}-byte cell", long.len());
    let (_, cloned) = count_allocations(|| cell.clone());
    assert_eq!(cloned.allocs, 1, "a clone of a {}-byte cell", long.len());
    let short = &long[..Text::INLINE];
    let (cell, built) = count_allocations(|| Value::from(short));
    let (_, cloned) = count_allocations(|| cell.clone());
    assert_eq!(
        (built.allocs, cloned.allocs),
        (0, 0),
        "a {}-byte cell",
        short.len()
    );

    // 1 000 new cities cost a consuming segment what 1 000 repeats of one
    // city cost, but for the doublings of its dictionary and intern map:
    // no string per new value (a `String` a copy cost 2 000 more)
    const N: usize = 1_000;
    let names = row_names(["city", "fare", "ts"]);
    let appended = |city: &dyn Fn(usize) -> String| {
        let rows: Vec<Row> = (0..N)
            .map(|i| {
                let cells = vec![city(i).into(), Value::Double(1.0), Value::Int(i as i64)];
                Row::on(Arc::clone(&names), cells)
            })
            .collect();
        let mut consuming = MutableSegment::new("c", schema());
        let ((), spent) = count_allocations(|| {
            for r in &rows {
                consuming.append(r, None).unwrap();
            }
        });
        spent.allocs
    };
    let repeated = appended(&|_| "city-000".to_string());
    let distinct = appended(&|i| format!("city-{i:03}"));
    assert!(
        distinct <= repeated + 32,
        "{N} new cities: {distinct} allocations against {repeated} for one city"
    );
}

#[test]
fn produce_ingest_and_retry_hold_their_allocation_budgets() {
    const N: usize = 10_000;
    let platform = platform_with_topic();
    let producer = platform.producer("budget");
    let records = trips(N);
    let ((), sent) = count_allocations(|| {
        for r in records {
            producer.send("trips", r).unwrap();
        }
    });
    // the `Arc<Record>` the log keeps, and the log's growth: the envelope
    // travels inside the record
    let sent = sent.allocs;
    assert!(
        sent <= (N + N / 64) as u64,
        "producer.send: {sent} allocations for {N} records"
    );
    // a produced record's clone copies its cell slice and nothing else
    let logged = platform.federation().subscribe("trips").unwrap().topic();
    let logged = logged.fetch(0, 0, 1).unwrap().records.remove(0).record;
    assert!(logged.unique_id().is_some() && logged.service().is_some());
    let (_, cloned) = count_allocations(|| Record::clone(&logged));
    assert_eq!(cloned.allocs, 1, "a clone of a produced record");

    // the platform's ingester audits and traces every record; a bare one
    // into a twin table pays only what the table itself allocates
    let with_audit = audited_ingest_within_budget(&platform, N);

    // and so does one whole fetch of 1 024 records
    let one = RealtimePlatform::new();
    let partition = TopicConfig::default().with_partitions(1);
    one.create_topic("trips", partition, schema()).unwrap();
    let producer = one.producer("budget");
    for r in trips(1_024) {
        producer.send("trips", r).unwrap();
    }
    audited_ingest_within_budget(&one, 1_024);

    // the same records trickling in, a hundred to a fetch: a round costs
    // its fetches, not a scratch buffer of its own
    let trickle = platform_with_topic();
    let producer = trickle.producer("budget");
    let slow = trickle.create_olap_table(table("trips")).unwrap();
    let mut ingester = trickle.ingest_into("trips", slow).unwrap();
    let mut trickled = 0;
    for round in trips(N).chunks(100) {
        for r in round {
            producer.send("trips", r.clone()).unwrap();
        }
        let (ingested, spent) = count_allocations(|| ingester.run_once().unwrap());
        assert_eq!(ingested, 100);
        trickled += spent.allocs;
    }
    assert!(
        trickled <= with_audit + 8 * (N as u64 / 100),
        "{trickled} allocations in rounds of 100 against {with_audit} in one round"
    );

    upsert_names_its_segment_by_pointer();

    subscribing_allocates_nothing();

    // two refusals per send cost two more attempts and no copy of the record
    const M: usize = 1_000;
    let (clean, retried) = (allocs_of_flaky_sends(M, 0), allocs_of_flaky_sends(M, 2));
    assert_eq!(
        retried, clean,
        "a retried send allocated ({retried}) what a clean one does not ({clean})"
    );

    compute_reads_the_log_where_it_lies();

    queries_pay_for_what_they_answer();

    sql_drilldown_pays_for_its_groups();

    a_repeated_shape_skips_the_front_end();

    one_segment_asks_no_core_count();

    short_strings_live_in_the_cell();

    sorted_probes_build_no_value();

    fresh_rows_skip_old_blocks();

    compaction_pays_per_distinct_string();

    archiving_pays_nothing_per_record();

    backfill_memory_follows_the_part_not_the_range();

    combine_merges_held_partials_in_place();

    windows_fold_and_checkpoint_in_place();

    rows_share_their_names();

    a_backfill_builds_only_its_records_in_flight();
}
