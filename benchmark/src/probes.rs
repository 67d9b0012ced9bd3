//! Isolated per-layer probes of the traced run: each on its own fresh
//! inputs, after the timed rounds, around one public function of one crate.
//! A probe repeats on fresh state and keeps its fastest repetition in
//! reference seconds. Each call leaves a span with no round.

use crate::api::{
    compile_streaming, run_staged_with, ArchivalWriter, CollectSink, Compactor, CompileOptions,
    EngineConfig, HiveCatalog, InMemoryStore, OlapTable, PinotConnector, RealtimePlatform, Record,
    Row, SqlEngine, StagedConfig, Topic,
};
use crate::gen::{self, Trip, PARTITIONS, TOPIC, TUMBLE_SQL};
use crate::harness::Probe;
use crate::metrics::Values;
use crate::oracle;
use std::sync::Arc;

const REPEATS: usize = 3;

/// `n` records for a probe: the run's seed, apart from every round's stream.
fn probe_trips(probe: &Probe, n: usize) -> (Vec<Record>, Vec<Trip>) {
    gen::trips(gen::round_seed(probe.seed, u32::MAX), n)
}

fn fastest(mut probe: impl FnMut() -> f64) -> f64 {
    (0..REPEATS).map(|_| probe()).fold(f64::INFINITY, f64::min)
}

fn us_per(seconds: f64, units: usize) -> f64 {
    seconds * 1e6 / units.max(1) as f64
}

/// A new platform with its empty `trips` topic.
pub fn fresh_platform() -> (RealtimePlatform, Arc<Topic>) {
    let platform = RealtimePlatform::new();
    let topic = platform
        .create_topic(TOPIC, gen::topic_config(), gen::trips_schema())
        .expect("a fresh platform accepts its first topic");
    (platform, topic)
}

/// A platform whose topic already holds `records`, sent by the thin client.
pub fn loaded_platform(records: Vec<Record>) -> (RealtimePlatform, Arc<Topic>) {
    let (platform, topic) = fresh_platform();
    let producer = platform.producer("bench");
    for r in records {
        producer
            .send(TOPIC, r)
            .expect("a fresh topic accepts records");
    }
    (platform, topic)
}

/// `Topic::append` and `Topic::fetch` alone: no client, federation or
/// audit in the way.
pub fn stream(probe: &mut Probe, out: &mut Values) {
    let n = probe.scale.of(40_000);
    let mut filled = None;
    let append_s = fastest(|| {
        let records = probe_trips(probe, n).0;
        let (_platform, topic) = fresh_platform();
        let (errors, s) = probe.call("stream", "append", n as u64, || {
            records
                .into_iter()
                .map(|r| topic.append(r, 0))
                .filter(Result::is_err)
                .count()
        });
        probe
            .check
            .reflected("Topic::append", n as u64, (n - errors) as u64);
        filled = Some(topic);
        s
    });
    let topic = filled.expect("probed at least once");
    let fetch_s = fastest(|| {
        let (fetched, s) = probe.call("stream", "fetch", n as u64, || {
            let mut fetched = 0;
            for p in 0..PARTITIONS {
                let mut offset = 0;
                while let Ok(batch) = topic.fetch(p, offset, 1024) {
                    if batch.records.is_empty() {
                        break;
                    }
                    offset += batch.records.len() as u64;
                    fetched += batch.records.len();
                }
            }
            fetched
        });
        probe
            .check
            .reflected("Topic::fetch", n as u64, fetched as u64);
        s
    });
    let log_bytes: usize = (0..PARTITIONS)
        .filter_map(|p| topic.partition(p))
        .map(|log| log.bytes())
        .sum();
    let ends = topic.high_watermarks();
    let mean = ends.iter().sum::<u64>() as f64 / ends.len() as f64;
    out.set("stream.append_us_per_rec", us_per(append_s, n));
    out.set("stream.fetch_us_per_rec", us_per(fetch_s, n));
    out.set("stream.log_bytes_per_rec", log_bytes as f64 / n as f64);
    out.set(
        "stream.partition_skew",
        ends.iter().copied().max().unwrap_or(0) as f64 / mean,
    );
}

/// `compile_streaming` alone, and the compiled jobs on the staged runtime
/// (the engine ROADMAP 2a keeps): the windowed job of the pipeline, and a
/// `WHERE fare > 20` projection that has an operator chain but no window
/// state.
pub fn compute(probe: &mut Probe, out: &mut Values) {
    let n = probe.scale.of(40_000);
    let (records, plain) = probe_trips(probe, n);
    let (_platform, topic) = loaded_platform(records);
    let mut compile_s = f64::INFINITY;
    let mut staged = |probe: &mut Probe, name: &'static str, sql: &str| {
        let sink = CollectSink::new();
        let (compiled, s) = probe.call("flinksql", "compile", 1, || {
            let options = CompileOptions::default();
            compile_streaming(name, sql, topic.clone(), Box::new(sink.clone()), &options)
        });
        compile_s = compile_s.min(s);
        let run_s = probe.check.call("compile_streaming", compiled).map(|job| {
            let (stats, s) = probe.call("compute", name, n as u64, || {
                run_staged_with(job, &StagedConfig::batched(64, 256))
            });
            probe.check.call("run_staged_with", stats);
            s
        });
        (run_s.unwrap_or(f64::INFINITY), sink)
    };

    let staged_s = fastest(|| {
        let (s, sink) = staged(probe, "staged", TUMBLE_SQL);
        let trips: i64 = sink.rows().iter().filter_map(|r| r.get_int("trips")).sum();
        probe
            .check
            .reflected("staged windows", n as u64, trips as u64);
        s
    });
    let over_20 = plain.iter().filter(|t| t.fare > 20.0).count();
    let stateless_s = fastest(|| {
        let sql = "SELECT city, fare, ts FROM trips WHERE fare > 20";
        let (s, sink) = staged(probe, "stateless", sql);
        probe
            .check
            .reflected("stateless rows", over_20 as u64, sink.len() as u64);
        s
    });
    out.set("flinksql.compile_us", compile_s * 1e6);
    out.set("compute.staged_us_per_rec", us_per(staged_s, n));
    out.set("compute.stateless_us_per_rec", us_per(stateless_s, n));
}

/// The key-skew hazard, measured once so its fix has a before-number: the
/// same records keyed by `city` instead of trip id lose records as late in
/// the FlinkSQL pipeline. Not counted as a failure: the workloads are built
/// on inputs where it does not occur.
pub fn late_drops_city_keyed(probe: &mut Probe, out: &mut Values) {
    let n = probe.scale.of(100_000);
    let (platform, _topic) = loaded_platform(gen::keyed_by_city(probe_trips(probe, n).0));
    let stats = platform
        .create_olap_table(gen::trip_stats_table())
        .expect("a fresh platform accepts the table");
    let (job, _) = probe.call("compute", "job_city_keyed", n as u64, || {
        let options = CompileOptions::default();
        platform.deploy_sql_pipeline("trip-stats", TUMBLE_SQL, TOPIC, stats, &options)
    });
    let reflected = job
        .and_then(|_| platform.sql("SELECT SUM(trips) AS n FROM trip_stats"))
        .map_or(0, oracle::count_of);
    println!("key-skew hazard: {reflected} of {n} city-keyed records reflected in trip_stats");
    out.set(
        "compute.late_drop_share_city_keyed",
        1.0 - reflected as f64 / n as f64,
    );
}

/// `OlapTable::ingest` on prebuilt rows without a seal, then `seal_all` on
/// the four consuming segments.
pub fn olap_write(probe: &mut Probe, out: &mut Values) {
    let n = probe.scale.of(40_000);
    let rows: Vec<Row> = probe_trips(probe, n)
        .0
        .into_iter()
        .map(|r| r.value)
        .collect();
    let (mut append_s, mut seal_s, mut bytes_per_row) = (f64::INFINITY, f64::INFINITY, 0.0);
    for _ in 0..REPEATS {
        let table = OlapTable::new(gen::trips_table("probe", n + 1)).expect("valid table config");
        let rows = rows.clone();
        let ((), s) = probe.call("olap", "append", n as u64, || {
            for (i, row) in rows.into_iter().enumerate() {
                // a refused row shows as a missing document below
                let _ = table.ingest(i % PARTITIONS, row);
            }
        });
        append_s = append_s.min(s);
        let (sealed, s) = probe.call("olap", "seal", PARTITIONS as u64, || table.seal_all());
        seal_s = seal_s.min(s);
        probe.check.call("seal_all", sealed);
        probe
            .check
            .reflected("OlapTable::ingest", n as u64, table.doc_count() as u64);
        bytes_per_row = table.memory_bytes() as f64 / table.doc_count().max(1) as f64;
    }
    out.set("olap.append_us_per_row", us_per(append_s, n));
    out.set("olap.seal_ms_per_segment", seal_s * 1e3 / PARTITIONS as f64);
    out.set("olap.table_bytes_per_row", bytes_per_row);
}

/// The benchmark's own SQL engine over `table`, for what the facade does
/// not reach: `explain`, and hybrid tables registered on the connector.
pub fn engine_over(table: Arc<OlapTable>) -> (SqlEngine, Arc<PinotConnector>) {
    let pinot = Arc::new(PinotConnector::new());
    pinot.register(table);
    let mut engine = SqlEngine::new(EngineConfig::default());
    engine.register_connector("pinot", pinot.clone());
    (engine, pinot)
}

/// `SqlEngine::explain`: parse, plan and optimise without executing; the
/// mean over `sqls`.
pub fn sql_plan(engine: &SqlEngine, sqls: &[String], probe: &mut Probe, out: &mut Values) {
    let plan_s = fastest(|| {
        let (errors, s) = probe.call("sql", "explain", sqls.len() as u64, || {
            sqls.iter().filter(|q| engine.explain(q).is_err()).count()
        });
        let planned = (sqls.len() - errors) as u64;
        probe.check.reflected("explain", sqls.len() as u64, planned);
        s
    });
    out.set("sql.plan_us", us_per(plan_s, sqls.len()));
}

/// The storage crate's pieces one by one — raw-log write, compaction,
/// columnar scan — and how `archive_topic` scales from `n` to `2n`.
pub fn storage(probe: &mut Probe, out: &mut Values) {
    let n = probe.scale.of(50_000);
    let records = probe_trips(probe, 2 * n).0;
    let schema = gen::trips_schema();
    let (mut raw_s, mut compact_s, mut scan_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut bytes = 0;
    for _ in 0..REPEATS {
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone());
        let created = catalog.create_table(TOPIC, schema.clone());
        let Some(table) = probe.check.call("create_table", created) else {
            continue;
        };
        let writer = ArchivalWriter::new(store.clone(), TOPIC);
        let (keys, s) = probe.call("storage", "raw_write", n as u64, || {
            writer.write_batch(&records[..n])
        });
        raw_s = raw_s.min(s);
        let Some(keys) = probe.check.call("write_batch", keys) else {
            continue;
        };
        // raw/<dataset>/<date>/log-<seq>: a run's event times all fall in one date
        let date = keys[0].split('/').nth(2).unwrap_or_default().to_string();
        let compactor = Compactor::new(store.clone(), catalog.clone());
        let (rows, s) = probe.call("storage", "compact", n as u64, || {
            compactor.compact(TOPIC, &date, &schema)
        });
        compact_s = compact_s.min(s);
        probe
            .check
            .reflecting("compact", n as u64, rows.map(|r| r as u64));
        bytes = store.stored_bytes();
        let (rows, s) = probe.call("storage", "hive_scan", n as u64, || table.scan_all());
        scan_s = scan_s.min(s);
        probe
            .check
            .reflecting("scan_all", n as u64, rows.map(|r| r.len() as u64));
    }
    out.set("storage.raw_write_us_per_rec", us_per(raw_s, n));
    out.set("storage.compact_us_per_rec", us_per(compact_s, n));
    out.set("storage.hive_scan_us_per_row", us_per(scan_s, n));
    out.set("storage.archive_bytes_per_rec", bytes as f64 / n as f64);

    let mut archive = |name: &'static str, records: &[Record]| {
        fastest(|| {
            let (platform, _topic) = loaded_platform(records.to_vec());
            let (rows, s) = probe.call("storage", name, records.len() as u64, || {
                platform.archive_topic(TOPIC, &schema)
            });
            let archived = rows.map(|r| r as u64);
            probe.check.reflecting(name, records.len() as u64, archived);
            s
        })
    };
    let (one, two) = (
        archive("archive_n", &records[..n]),
        archive("archive_2n", &records),
    );
    out.set("storage.archive_scaling_ratio", two / (2.0 * one));
}
