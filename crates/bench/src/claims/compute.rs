//! Compute layer (§4.2, §7): E6–E9, E21, E25, E30, and the compute part
//! of the recovery experiment E23.

mod baselines;

use super::{present, Report, Timing};
use crate::count_allocations;
use baselines::{simulate_recovery, streaming_windowed_agg, EngineModel, MicroBatchEngine};
use rtdi_common::chaos::{FaultKind, FaultPlan, FaultPoint, Trigger};
use rtdi_common::{
    AggFn, Chaos, CountMinSketch, FieldType, Record, Result, Row, Schema, Timestamp, Value,
};
use rtdi_compute::backfill::{kafka_retains, kappa_plus_job, BackfillConfig};
use rtdi_compute::jobmanager::{JobManager, JobSpec};
use rtdi_compute::operator::{key_string, FilterOp, MapOp, Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, CheckpointStore, Job, JobRunStats, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::{TopicSource, VecSource};
use rtdi_compute::window::WindowAssigner;
use rtdi_flinksql::compiler::{compile_streaming, CompileOptions};
use rtdi_storage::hive::HiveCatalog;
use rtdi_storage::keyed::{key_group_of, shard_of_group};
use rtdi_storage::object::InMemoryStore;
use rtdi_stream::topic::{Topic, TopicConfig};
use rtdi_usecases::CityDriverGenerator;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn claims(r: &mut Report) -> Result<()> {
    e06_backpressure(r);
    e07_engine_memory(r)?;
    e08_flinksql(r)?;
    e09_job_manager(r)?;
    e21_backfill(r)?;
    e23_compute_restart(r)?;
    e25_batching_and_chaining(r)?;
    e30_parallel_compute(r)?;
    Ok(())
}

fn count_and_revenue() -> Vec<(String, AggFn)> {
    vec![
        ("trips".into(), AggFn::Count),
        ("revenue".into(), AggFn::Sum("fare".into())),
    ]
}

fn window_by_city(window_ms: i64, aggs: Vec<(String, AggFn)>) -> WindowAggregateOp {
    let assigner = WindowAssigner::tumbling(window_ms);
    WindowAggregateOp::new("agg", vec!["city".into()], assigner, aggs, 0)
}

fn run(job: Job, config: &StagedConfig) -> Result<JobRunStats> {
    run_staged_with(job, config)
}

fn e06_backpressure(r: &mut Report) {
    // 5M-message backlog, 5k msg/s capacity, 1k msg/s still arriving
    let recover = |model| simulate_recovery(model, 5_000_000, 5_000, 1_000, 200_000_000);
    let flink = recover(EngineModel::FlinkLike {
        buffer_capacity: 10_000,
    });
    let storm = recover(EngineModel::StormLike {
        ack_timeout_ms: 60_000,
        emit_multiplier: 1.2,
    });
    let flink_minutes = flink.recovery_ms as f64 / 60_000.0;
    r.claim(
        "E6.flink",
        "§4.2",
        "Flink took 20 minutes to work off a backlog of millions of messages",
        flink_minutes,
        "simulated minutes, credit-based engine, 5M-message backlog",
        (15.0..30.0).contains(&flink_minutes) && flink.wasted_replays == 0,
    );
    r.claim(
        "E6.storm",
        "§4.2",
        "Storm took several hours",
        storm.recovery_ms as f64 / flink.recovery_ms as f64,
        "x the Flink-like engine's simulated recovery time (ack timeouts, replays)",
        storm.recovery_ms >= 5 * flink.recovery_ms && storm.wasted_replays > 0,
    );
}

fn e07_engine_memory(r: &mut Report) -> Result<()> {
    const N: usize = 50_000;
    let records: Vec<Arc<Record>> = (0..N)
        .map(|i| {
            let row = Row::new()
                .with("city", format!("c{}", i % 16))
                .with("fare", 5.0 + (i % 20) as f64);
            Arc::new(Record::new(row, (i as i64) * 10))
        })
        .collect();
    let aggs = count_and_revenue();
    let batch = r.timed("E7", format!("micro-batch engine, {N} records"), || {
        MicroBatchEngine::new(10_000).run_windowed_agg(&records, "city", &aggs)
    });
    let (rows, streaming_peak) = r.timed("E7", format!("streaming fold, {N} records"), || {
        streaming_windowed_agg(&records, "city", &aggs, 10_000)
    })?;
    let ratio = batch.peak_bytes as f64 / streaming_peak as f64;
    r.claim(
        "E7.memory",
        "§4.2",
        "Spark jobs use 5-10x the memory of the Flink job for the same workload",
        ratio,
        "x peak live bytes, micro-batch vs streaming windowed aggregation",
        ratio >= 5.0 && batch.rows.len() == rows.len(),
    );
    Ok(())
}

fn trips_topic(n: usize) -> Result<Arc<Topic>> {
    let topic = Arc::new(Topic::new(
        "trips",
        TopicConfig::default().with_partitions(4),
    )?);
    for i in 0..n {
        let ts = (i as i64) * 10;
        let row = Row::new()
            .with("city", ["sf", "la", "nyc"][i % 3])
            .with("fare", 10.0)
            .with("ts", ts);
        topic.append(Record::new(row, ts).with_key(format!("k{i}")), 0)?;
    }
    Ok(topic)
}

fn e08_flinksql(r: &mut Report) -> Result<()> {
    const N: usize = 20_000;
    const SQL: &str = "SELECT city, TUMBLE(ts, 10000) AS w, COUNT(*) AS trips, \
                       SUM(fare) AS revenue FROM trips GROUP BY city, TUMBLE(ts, 10000)";
    fn compile(
        name: &str,
        sql: &str,
        topic: Arc<Topic>,
        sink: &CollectSink,
        options: &CompileOptions,
    ) -> Result<Job> {
        compile_streaming(name, sql, topic, Box::new(sink.clone()), options)
    }
    let options = CompileOptions::default();
    let empty = trips_topic(0)?;
    r.timed("E8", "compile the windowed SQL to a job", || {
        compile("x", SQL, empty, &CollectSink::new(), &options).map(|_| ())
    })?;

    let (from_sql, by_hand) = (CollectSink::new(), CollectSink::new());
    let sql_job = compile("sql", SQL, trips_topic(N)?, &from_sql, &options)?;
    let source = Box::new(TopicSource::bounded(trips_topic(N)?)?);
    let ops: Vec<Box<dyn Operator>> = vec![Box::new(window_by_city(10_000, count_and_revenue()))];
    let hand_job =
        Job::new("hand", source, ops, Box::new(by_hand.clone())).with_out_of_orderness(1_000);
    r.timed("E8", format!("SQL-compiled job, {N} records"), || {
        run(sql_job, &StagedConfig::default())
    })?;
    r.timed("E8", format!("hand-built job, {N} records"), || {
        run(hand_job, &StagedConfig::default())
    })?;
    let canon = |sink: &CollectSink| {
        let window = |row: &Row| {
            let city = row.get_str("city").map(str::to_string);
            let revenue = row.get("revenue").map(Value::to_string);
            // the SQL names the window `w`
            let start = row.get_int("w").or(row.get_int("window_start"));
            (city, start, row.get_int("trips"), revenue)
        };
        let mut windows: Vec<_> = sink.rows().iter().map(window).collect();
        windows.sort();
        windows
    };
    let counted: i64 = from_sql
        .rows()
        .iter()
        .filter_map(|row| row.get_int("trips"))
        .sum();
    r.claim(
        "E8.parity",
        "§4.2.1",
        "FlinkSQL compiles a query to the Flink job an engineer would have built",
        counted as f64,
        "of 20000 records counted by the compiled job, windows equal to the hand-built job's",
        counted == N as i64 && canon(&from_sql) == canon(&by_hand),
    );

    // the runtime's chaining pass folds the compiled WHERE and projection
    // into one stage
    const STATELESS: &str = "SELECT city, fare * 2 AS fare2 FROM trips WHERE ts >= 0";
    let mut stages = Vec::new();
    let mut outputs = Vec::new();
    for fuse_operators in [false, true] {
        let sink = CollectSink::new();
        let job = compile("proj", STATELESS, trips_topic(N)?, &sink, &options)?;
        let config = StagedConfig {
            fuse_operators,
            ..StagedConfig::batched(64, 64)
        };
        stages.push(run(job, &config)?.stages.len());
        outputs.push(sink.rows());
    }
    r.claim(
        "E8.chaining",
        "§4.2.1",
        "the compiled application is an efficient one",
        stages[1] as f64,
        "stage for WHERE + projection once chained (2 unchained), same rows",
        stages == [2, 1] && outputs[0] == outputs[1] && outputs[0].len() == N,
    );
    Ok(())
}

fn numbered_job_spec(name: &str, n: usize, sink: &CollectSink) -> JobSpec {
    let (job_name, sink) = (name.to_string(), sink.clone());
    JobSpec {
        name: name.to_string(),
        factory: Box::new(move || {
            let rows = (0..n as i64)
                .map(|i| (i, Row::new().with("i", i)))
                .collect();
            let ops: Vec<Box<dyn Operator>> =
                vec![Box::new(MapOp::new("id", |row: &Row| row.clone()))];
            let source = Box::new(VecSource::from_rows(rows));
            Ok(Job::new(
                job_name.clone(),
                source,
                ops,
                Box::new(sink.clone()),
            ))
        }),
    }
}

/// What a supervised run went through after its process was killed once.
struct Recovery {
    restarts: u32,
    /// Ids the sink never received.
    lost: usize,
    /// Sink deliveries beyond the first of each id.
    replayed: usize,
    /// Records between the checkpoint the restart resumed from and the kill.
    reread: u64,
}

/// Supervise a job of `n` numbered records that checkpoints every
/// `interval` and is killed, once, after `kill_after` records (between
/// two checkpoints, so the one it falls back to is not a race). Narrow
/// channels keep the records in flight to a few hundred.
fn kill_and_recover(
    r: &mut Report,
    id: &'static str,
    n: usize,
    interval: u64,
    kill_after: u64,
) -> Result<Recovery> {
    let chaos = Chaos::seeded(0xE23);
    chaos.arm(
        FaultPoint::ComputeProcess,
        FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Always)
            .with_burst(kill_after, Some(1)),
    );
    let config = StagedConfig {
        checkpoint_interval: interval,
        checkpoint_store: Some(CheckpointStore::new(Arc::new(InMemoryStore::new()))),
        chaos,
        ..StagedConfig::batched(2, 64)
    };
    let jm = JobManager::new(config, 3);
    let sink = CollectSink::new();
    let spec = numbered_job_spec("killed", n, &sink);
    let label = format!("{n}-record job killed after {kill_after}, restarted");
    let stats = r.timed(id, label, || jm.supervise(&spec));
    let resumed_at = stats?.restored_from_checkpoint.unwrap_or(0) * interval;
    let mut seen = vec![false; n];
    for row in sink.rows() {
        if let Some(i) = row.get_int("i") {
            seen[i as usize] = true;
        }
    }
    let delivered = seen.iter().filter(|&&s| s).count();
    Ok(Recovery {
        restarts: present(jm.status("killed"), "job status")?.restarts,
        lost: n - delivered,
        replayed: sink.len() - delivered,
        reread: kill_after.saturating_sub(resumed_at),
    })
}

fn e09_job_manager(r: &mut Report) -> Result<()> {
    const N: usize = 20_000;
    let run = kill_and_recover(r, "E9", N, 4_000, N as u64 * 9 / 10)?;
    r.claim(
        "E9.recovery",
        "§4.2.2, Fig 5",
        "the job manager recovers a failed job automatically",
        run.reread as f64 * 100.0 / N as f64,
        "% of the job read twice: 1 restart, from the last checkpoint before the failure at 90%",
        run.restarts == 1 && run.lost == 0 && run.replayed < N / 2 && run.reread < N as u64 / 2,
    );

    let estimate = |job_type| estimate_resources(job_type, 100_000);
    let (stateless, join) = (estimate(JobType::Stateless), estimate(JobType::StreamJoin));
    r.claim(
        "E9.resources",
        "§4.2.1",
        "stateless jobs are CPU bound, stream-join jobs memory bound",
        join.memory_mb as f64 / stateless.memory_mb as f64,
        "x the memory of a stateless job estimated for a stream join at 100k records/s",
        join.memory_mb > 5 * stateless.memory_mb && stateless.cpu_cores >= 2,
    );
    Ok(())
}

/// Broad job classification driving the §4.2.1 resource model.
#[derive(Clone, Copy)]
enum JobType {
    /// No windows, no joins: CPU bound.
    Stateless,
    /// Stream-stream joins: memory bound.
    StreamJoin,
}

/// Estimated resources for a job (§4.2.1 "Resource estimation").
struct ResourceEstimate {
    cpu_cores: u32,
    memory_mb: u64,
}

/// §4.2.1's empirical resource model: "a stateless Flink job ... is CPU
/// bound vs a stream-stream join job will almost always be memory bound".
fn estimate_resources(job_type: JobType, records_per_sec: u64) -> ResourceEstimate {
    let rate = records_per_sec.max(1);
    match job_type {
        // CPU bound: one core per ~50k rec/s, little memory
        JobType::Stateless => ResourceEstimate {
            cpu_cores: rate.div_ceil(50_000).max(1) as u32,
            memory_mb: 512,
        },
        // memory bound: buffers hold the full join window on both sides
        JobType::StreamJoin => ResourceEstimate {
            cpu_cores: rate.div_ceil(40_000).max(1) as u32,
            memory_mb: 4096 + rate / 20,
        },
    }
}

fn e21_backfill(r: &mut Report) -> Result<()> {
    const N: usize = 20_000;
    const DAY_MS: i64 = 86_400_000;
    let trip = |i: usize| {
        let ts = (i as i64) * 7 * DAY_MS / N as i64;
        let row = Row::new()
            .with("city", ["sf", "la"][i % 2])
            .with("fare", 10.0 + (i % 9) as f64)
            .with("ts", ts)
            .with("__ts", ts);
        (ts, row)
    };
    let hourly = || -> Vec<Box<dyn Operator>> {
        vec![Box::new(window_by_city(3_600_000, count_and_revenue()))]
    };

    // a week in the warehouse, two days retained in the topic
    let fields = [
        ("city", FieldType::Str),
        ("fare", FieldType::Double),
        ("ts", FieldType::Timestamp),
        ("__ts", FieldType::Timestamp),
    ];
    let catalog = HiveCatalog::new(Arc::new(InMemoryStore::new()));
    let table = catalog.create_table("trips", Schema::of("trips", &fields))?;
    let mut by_day: BTreeMap<String, Vec<Row>> = BTreeMap::new();
    for (ts, row) in (0..N).map(trip) {
        by_day
            .entry(rtdi_storage::archival::date_partition(ts))
            .or_default()
            .push(row);
    }
    for (day, rows) in &by_day {
        catalog.write_rows("trips", day, rows)?;
    }
    let config = TopicConfig {
        partitions: 4,
        retention_ms: 2 * DAY_MS,
        ..Default::default()
    };
    let topic = Arc::new(Topic::new("trips", config)?);
    for (i, (ts, row)) in (0..N).map(trip).enumerate() {
        topic.append(Record::new(row, ts).with_key(format!("k{i}")), ts)?;
    }
    let retained = kafka_retains(&topic, DAY_MS);
    r.claim(
        "E21.kappa",
        "§7",
        "Kafka retains only a few days, so replaying it cannot backfill older data",
        f64::from(retained),
        "(1 = day-1 data still in a topic with 2-day retention, a week in)",
        !retained,
    );

    let (live, backfilled) = (CollectSink::new(), CollectSink::new());
    let source = Box::new(VecSource::from_rows((0..N).map(trip).collect()));
    run(
        Job::new("live", source, hourly(), Box::new(live.clone())),
        &StagedConfig::default(),
    )?;
    let sink = Box::new(backfilled.clone());
    let job = kappa_plus_job(
        "backfill",
        &table,
        hourly(),
        sink,
        &BackfillConfig::default(),
    )?;
    let stats = r.timed(
        "E21",
        format!("Kappa+ replay of {N} archived events"),
        || run(job, &StagedConfig::default()),
    )?;
    let canon = |sink: &CollectSink| {
        let mut windows: Vec<_> = sink
            .rows()
            .iter()
            .map(|w| {
                (
                    w.get_str("city").map(str::to_string),
                    w.get_int("window_start"),
                    w.get_int("trips"),
                )
            })
            .collect();
        windows.sort();
        windows
    };
    let windows = canon(&live);
    r.claim(
        "E21.kappa_plus",
        "§7",
        "Kappa+ runs the same streaming logic over archived data",
        windows.len() as f64,
        "hourly windows over the 7-day archive, all equal to the live run's",
        stats.records_in == N as u64 && !windows.is_empty() && windows == canon(&backfilled),
    );
    Ok(())
}

fn e23_compute_restart(r: &mut Report) -> Result<()> {
    const N: usize = 10_000;
    let run = kill_and_recover(r, "E23", N, 1_000, 5_500)?;
    r.claim(
        "E23.compute",
        "§4.2.2",
        "a crashed job restarts from its checkpoint, not from the beginning",
        run.reread as f64,
        "of 10000 records read twice after a kill at record 5500 (a checkpoint per 1000)",
        run.restarts == 1 && run.lost == 0 && run.replayed < N / 2 && run.reread < 1_000,
    );
    Ok(())
}

/// Two chain-eligible stateless stages, a keyed tumbling-window
/// aggregation, and a stateless post-projection.
fn four_stage_job(rows: Vec<(Timestamp, Row)>, sink: CollectSink) -> Job {
    let aggs = vec![
        ("trips".into(), AggFn::Count),
        ("total2".into(), AggFn::Sum("fare2".into())),
    ];
    let ops: Vec<Box<dyn Operator>> = vec![
        Box::new(MapOp::new("tag", |row: &Row| {
            let fare = row.get_double("fare").unwrap_or(0.0);
            row.clone().with("fare2", fare * 2.0)
        })),
        Box::new(FilterOp::new("nonneg", |row: &Row| {
            row.get_double("fare").unwrap_or(0.0) >= 0.0
        })),
        Box::new(window_by_city(1_000, aggs)),
        Box::new(MapOp::new("post", |row: &Row| {
            let trips = row.get_int("trips").unwrap_or(1) as f64;
            row.clone()
                .with("avg2", row.get_double("total2").unwrap_or(0.0) / trips)
        })),
    ];
    let source = Box::new(VecSource::from_rows(rows));
    Job::new("e25", source, ops, Box::new(sink)).with_out_of_orderness(0)
}

fn e25_batching_and_chaining(r: &mut Report) -> Result<()> {
    const N: usize = 30_000;
    let rows: Vec<(Timestamp, Row)> = (0..N)
        .map(|i| {
            let row = Row::new()
                .with("city", ["sf", "la", "nyc"][i % 3])
                .with("fare", 5.0 + (i % 40) as f64);
            ((i as i64) * 10, row)
        })
        .collect();
    // (channel messages, stages, allocations, output) per protocol variant
    let mut points = Vec::new();
    let mut records_read = 0;
    for (batch_size, fuse_operators) in [(1, false), (64, false), (1, true), (64, true)] {
        let config = StagedConfig {
            fuse_operators,
            ..StagedConfig::batched(64, batch_size)
        };
        let sink = CollectSink::new();
        let job = four_stage_job(rows.clone(), sink.clone());
        let chained = if fuse_operators {
            "chained"
        } else {
            "unchained"
        };
        let label = format!("4-stage job, {N} records, batch={batch_size} {chained}");
        let (stats, allocs) = r.timed("E25", label, || count_allocations(|| run(job, &config)));
        let stats = stats?;
        let messages: u64 = stats.stages.iter().map(|s| s.batches_in).sum();
        records_read += stats.records_in;
        points.push((messages, stats.stages.len(), allocs.allocs, sink.rows()));
    }
    let (per_record, tuned) = (&points[0], &points[3]);
    r.claim(
        "E25.messages",
        "§4.2",
        "Flink moves buffers between tasks, and chains operators into one task",
        per_record.0 as f64 / tuned.0 as f64,
        "x fewer channel messages at batch=64 chained (3 stages) than per record unchained (4)",
        per_record.0 >= 10 * tuned.0 && (per_record.1, tuned.1) == (4, 3),
    );
    // stage threads interleave, so the counts move a little from run to
    // run; their order does not
    r.claim(
        "E25.allocations",
        "§4.2",
        "so per-record overhead is amortized",
        f64::from(tuned.2 < per_record.2),
        "(1 = the batched, chained run allocated less than the per-record run)",
        tuned.2 < per_record.2,
    );
    let differing = points.iter().filter(|p| p.3 != per_record.3).count();
    r.claim(
        "E25.output",
        "§4.2",
        "without changing what the job computes",
        differing as f64,
        "of 4 protocol variants emitting rows that differ from the per-record run's",
        differing == 0 && !per_record.3.is_empty() && records_read == 4 * N as u64,
    );
    Ok(())
}

const HOT_KEY_THRESHOLD: u64 = 64;

fn keyed_op(window_ms: i64, p: usize, salted: bool) -> WindowAggregateOp {
    let mut aggs = count_and_revenue();
    aggs.push(("min_fare".into(), AggFn::Min("fare".into())));
    aggs.push(("max_fare".into(), AggFn::Max("fare".into())));
    let op = window_by_city(window_ms, aggs).with_parallelism(p);
    if salted {
        op.with_hot_key_salting(HOT_KEY_THRESHOLD)
    } else {
        op
    }
}

/// Run the keyed aggregation at parallelism `p`; the output and, for a
/// sharded run, the records each shard folded.
fn keyed_run(
    rows: &[Record],
    window_ms: i64,
    p: usize,
    salted: bool,
) -> Result<(Vec<Record>, Vec<u64>)> {
    let sink = CollectSink::new();
    let source = Box::new(VecSource::new(rows.to_vec()));
    let ops: Vec<Box<dyn Operator>> = vec![Box::new(keyed_op(window_ms, p, salted))];
    let job = Job::new("e30", source, ops, Box::new(sink.clone()));
    let stats = run(job, &StagedConfig::batched(64, 256))?;
    let sharded = stats.stages.iter().find(|s| s.stage.starts_with("agg[x"));
    let per_shard = sharded.map(|s| s.shards.iter().map(|shard| shard.records_in).collect());
    Ok((sink.records(), per_shard.unwrap_or_default()))
}

/// Largest shard over the mean shard.
fn imbalance(per_shard: &[u64]) -> f64 {
    let total: u64 = per_shard.iter().sum();
    let max = per_shard.iter().copied().max().unwrap_or(0);
    max as f64 * per_shard.len() as f64 / total.max(1) as f64
}

/// Replay the router's shard choice (same hash, same sketch, same
/// round-robin salt) and return the p99, over window epochs, of the
/// records the busiest shard must fold before the epoch's windows can
/// merge: what gates a window's freshness.
fn p99_critical_shard_records(rows: &[Record], window_ms: i64, p: usize, salted: bool) -> u64 {
    let key_cols = ["city"];
    let mut sketch = CountMinSketch::new(4, 1024);
    let mut epochs: Vec<Vec<u64>> = Vec::new();
    for (seq, rec) in rows.iter().enumerate() {
        let hash = Value::hash_of_str(&key_string(&rec.value, &key_cols));
        let shard = if salted && sketch.observe(hash) >= HOT_KEY_THRESHOLD {
            seq % p
        } else {
            shard_of_group(key_group_of(hash), p)
        };
        let epoch = (rec.timestamp / window_ms) as usize;
        if epochs.len() <= epoch {
            epochs.resize(epoch + 1, vec![0; p]);
        }
        epochs[epoch][shard] += 1;
    }
    let mut critical: Vec<u64> = epochs
        .iter()
        .filter_map(|e| e.iter().copied().max())
        .collect();
    critical.sort_unstable();
    critical
        .get(critical.len() * 99 / 100)
        .or(critical.last())
        .copied()
        .unwrap_or(0)
}

/// Busy time of each stage of the sharded plan at parallelism `p`, run
/// one after another on this thread over the real operator code: route,
/// slowest shard fold, merge sort.
fn stage_busy_times(rows: &[Arc<Record>], window_ms: i64, p: usize) -> Result<[Duration; 3]> {
    let key_cols = ["city"];
    let start = Instant::now();
    let mut buckets: Vec<Vec<Arc<Record>>> = vec![Vec::new(); p];
    for rec in rows {
        let hash = Value::hash_of_str(&key_string(&rec.value, &key_cols));
        buckets[shard_of_group(key_group_of(hash), p)].push(Arc::clone(rec));
    }
    let route = start.elapsed();

    let template = keyed_op(window_ms, p, false);
    let (mut slowest, mut flushed) = (Duration::ZERO, Vec::new());
    for (i, bucket) in buckets.iter().enumerate() {
        let mut shard: Box<dyn Operator> = if p > 1 {
            present(template.make_shard(i, p), "shard operator")?
        } else {
            Box::new(keyed_op(window_ms, 1, false))
        };
        let start = Instant::now();
        for chunk in bucket.chunks(256) {
            shard.process_batch(chunk, &mut flushed)?;
            shard.on_watermark(chunk.last().map_or(0, |rec| rec.timestamp), &mut flushed);
        }
        shard.on_watermark(i64::MAX, &mut flushed);
        slowest = slowest.max(start.elapsed());
    }

    let start = Instant::now();
    flushed.sort_by_cached_key(|rec| {
        let window_start = rec.value.get_int("window_start").unwrap_or(rec.timestamp);
        (key_string(&rec.value, &key_cols), window_start)
    });
    Ok([route, slowest, start.elapsed()])
}

fn e30_parallel_compute(r: &mut Report) -> Result<()> {
    // 512 cities at s=0.5 spread over the 128 key groups: the sweep shows
    // the sharding protocol, not skew
    const N: usize = 40_000;
    const SWEEP_WINDOW_MS: i64 = 2_000;
    let rows = CityDriverGenerator::new(0xE30, 512, 4_000, 0.5).trips(N, 1);
    let (serial, _) = keyed_run(&rows, SWEEP_WINDOW_MS, 1, false)?;
    let mut differing = 0;
    let mut critical_share = 0.0;
    for p in [2, 4, 8] {
        let (out, per_shard) =
            r.timed("E30", format!("threaded run, {N} records, p={p}"), || {
                keyed_run(&rows, SWEEP_WINDOW_MS, p, false)
            })?;
        differing += usize::from(out != serial || per_shard.len() != p);
        if p == 4 {
            critical_share = imbalance(&per_shard) / 4.0;
        }
    }

    // a Zipf s=1.5 storm over 24 cities: one key dominates
    const STORM: usize = 30_000;
    const STORM_WINDOW_MS: i64 = 1_000;
    let storm = CityDriverGenerator::new(0x5707, 24, 4_000, 1.5).trips(STORM, 7);
    let (storm_serial, _) = keyed_run(&storm, STORM_WINDOW_MS, 1, false)?;
    let (plain_out, plain_shards) = keyed_run(&storm, STORM_WINDOW_MS, 4, false)?;
    let (salted_out, salted_shards) = keyed_run(&storm, STORM_WINDOW_MS, 4, true)?;
    differing += usize::from(plain_out != storm_serial) + usize::from(salted_out != storm_serial);
    r.claim(
        "E30.output",
        "§4.2",
        "a keyed operator scales out without changing its answer",
        differing as f64,
        "of 5 sharded plans (p=2,4,8; storm plain and salted) differing from serial",
        differing == 0 && !serial.is_empty(),
    );
    r.claim(
        "E30.critical_path",
        "§4.2",
        "each shard folds its share of the key groups",
        critical_share,
        "of the records on the busiest of 4 shards (0.25 is even; below 0.4 projects >= 2.5x)",
        critical_share < 0.4,
    );
    let (plain, salted) = (imbalance(&plain_shards), imbalance(&salted_shards));
    r.claim(
        "E30.hot_key",
        "§4.2",
        "a hot key pins its stream to one shard",
        plain,
        "x the mean shard's records on the hot shard, Zipf s=1.5, p=4, unsalted",
        plain > 1.5,
    );
    r.claim(
        "E30.salting",
        "§4.2",
        "salted pre-aggregation spreads it",
        salted,
        "x the mean on the busiest shard once hot keys are salted",
        salted < plain && salted < 1.1,
    );
    let p99 = |salted| p99_critical_shard_records(&storm, STORM_WINDOW_MS, 4, salted);
    r.claim(
        "E30.freshness",
        "§4.2",
        "and shortens the wait for the slowest shard of a window",
        p99(true) as f64 / p99(false).max(1) as f64,
        "x the unsalted p99 of records the busiest shard folds per window epoch",
        p99(true) < p99(false),
    );

    // projected, not measured: this host cannot give each stage a core,
    // so the plan's stages are timed one after another and the speed-up
    // is what they would sustain overlapped
    let shared: Vec<Arc<Record>> = rows.into_iter().map(Arc::new).collect();
    let [_, serial_fold, _] = stage_busy_times(&shared, SWEEP_WINDOW_MS, 1)?;
    let stages = stage_busy_times(&shared, SWEEP_WINDOW_MS, 4)?;
    let critical = stages.iter().copied().max().unwrap_or_default();
    let speedup = serial_fold.as_secs_f64() / critical.as_secs_f64().max(1e-9);
    for (stage, busy) in ["route", "slowest shard fold", "merge"].iter().zip(stages) {
        let what = format!("projected p=4 (one core per stage, {speedup:.2}x of p=1): {stage}");
        r.timings.push(Timing {
            id: "E30",
            what,
            elapsed: busy,
        });
    }
    Ok(())
}
