//! E30 (§4.2): data-parallel keyed compute — sharded stateful operators
//! with salted hot-key pre-aggregation. Flink scales a keyed aggregation
//! by hashing keys into key groups and sharding the operator; a hot key
//! pins its whole stream to one subtask unless it is salted across
//! shards and re-combined. This bench (a) decomposes the sharded plan's
//! critical path (route / shard fold / merge) with real timers on the
//! real operator code and projects multi-core throughput — the container
//! has ONE core, so wall-clock parallel speedup is physically impossible
//! here and the projection (records / max stage busy time) is the honest
//! stand-in; and (b) replays a Zipf s=1.5 hot-key storm through the real
//! threaded runtime, unsalted vs salted, comparing shard imbalance and
//! projected p99 window freshness.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{AggFn, CountMinSketch, Record, Value};
use rtdi_compute::operator::{key_string, Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, Job, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::VecSource;
use rtdi_compute::window::WindowAssigner;
use rtdi_storage::keyed::{key_group_of, shard_of_group};
use rtdi_usecases::CityDriverGenerator;
use std::sync::Arc;
use std::time::Duration;

/// Storm-phase window; also the epoch the freshness model is scored on.
const WINDOW_MS: i64 = 1_000;
/// Sweep-phase window: wider, so the output volume (and hence the merge
/// stage) stays in realistic proportion to the input volume.
const SWEEP_WINDOW_MS: i64 = 2_000;
const HOT_THRESHOLD: u64 = 64;

fn agg_op(window_ms: i64, parallelism: usize, salted: bool) -> WindowAggregateOp {
    let op = WindowAggregateOp::new(
        "agg",
        vec!["city".into()],
        WindowAssigner::tumbling(window_ms),
        vec![
            ("trips".into(), AggFn::Count),
            ("revenue".into(), AggFn::Sum("fare".into())),
            ("min_fare".into(), AggFn::Min("fare".into())),
            ("max_fare".into(), AggFn::Max("fare".into())),
        ],
        0,
    )
    .with_parallelism(parallelism);
    if salted {
        op.with_hot_key_salting(HOT_THRESHOLD)
    } else {
        op
    }
}

fn job(
    name: &str,
    window_ms: i64,
    rows: Vec<Record>,
    sink: CollectSink,
    parallelism: usize,
    salted: bool,
) -> Job {
    Job::new(
        name,
        Box::new(VecSource::new(rows)),
        vec![Box::new(agg_op(window_ms, parallelism, salted))],
        Box::new(sink),
    )
}

/// Drive an operator instance over its share of the stream the way a
/// shard thread does: batched process_batch calls with a watermark per
/// batch, then the terminal flush. Returns (busy time, emissions).
fn fold_time(op: &mut Box<dyn Operator>, share: &[Arc<Record>]) -> (Duration, Vec<Arc<Record>>) {
    let mut out = Vec::new();
    let (res, t) = time_it(|| {
        for chunk in share.chunks(256) {
            let wm = chunk.last().map(|r| r.timestamp).unwrap_or(0);
            op.process_batch(chunk, &mut out)?;
            op.on_watermark(wm, &mut out);
        }
        op.on_watermark(i64::MAX, &mut out);
        Ok::<(), rtdi_common::Error>(())
    });
    res.unwrap();
    (t, out)
}

struct Projection {
    parallelism: usize,
    route_s: f64,
    max_shard_s: f64,
    merge_s: f64,
    projected_rec_s: f64,
}

/// Critical-path decomposition: time each pipeline-stage's busy work
/// sequentially on the real operator code, then project throughput as
/// n / max(stage busy time) — what p cores would sustain with the
/// stages overlapped.
fn project(rows: &[Arc<Record>], parallelism: usize) -> Projection {
    let n = rows.len();
    let key_cols = vec!["city".to_string()];

    // stage 1: the router — hash every key to its key-group home shard
    let mut buckets: Vec<Vec<Arc<Record>>> = vec![Vec::new(); parallelism];
    let (_, route_t) = time_it(|| {
        for r in rows {
            let h = Value::hash_of_str(&key_string(&r.value, &key_cols));
            let s = shard_of_group(key_group_of(h), parallelism);
            buckets[s].push(Arc::clone(r));
        }
    });

    // stage 2: each shard folds its share; the slowest shard gates the epoch
    let template = agg_op(SWEEP_WINDOW_MS, parallelism, false);
    let mut max_shard = Duration::ZERO;
    let mut merged: Vec<Vec<Arc<Record>>> = Vec::new();
    for (i, bucket) in buckets.iter().enumerate() {
        let mut shard = if parallelism > 1 {
            template.make_shard(i, parallelism).unwrap()
        } else {
            Box::new(agg_op(SWEEP_WINDOW_MS, 1, false)) as Box<dyn Operator>
        };
        let (t, out) = fold_time(&mut shard, bucket);
        max_shard = max_shard.max(t);
        merged.push(out);
    }

    // stage 3: the deterministic merge — stable sort flushed windows into
    // serial emission order
    let (_, merge_t) = time_it(|| {
        let mut all: Vec<Arc<Record>> = merged.into_iter().flatten().collect();
        all.sort_by_cached_key(|r| {
            (
                key_string(&r.value, &key_cols),
                r.value.get_int("window_start").unwrap_or(r.timestamp),
                r.value.get_int("window_end").unwrap_or(0),
            )
        });
        all.len()
    });

    let critical = route_t.max(max_shard).max(merge_t);
    Projection {
        parallelism,
        route_s: route_t.as_secs_f64(),
        max_shard_s: max_shard.as_secs_f64(),
        merge_s: merge_t.as_secs_f64(),
        projected_rec_s: n as f64 / critical.as_secs_f64(),
    }
}

fn best_projection(rows: &[Arc<Record>], parallelism: usize) -> Projection {
    let mut best = project(rows, parallelism);
    for _ in 0..2 {
        let p = project(rows, parallelism);
        if p.projected_rec_s > best.projected_rec_s {
            best = p;
        }
    }
    best
}

/// Replay the router's shard assignment offline (same hash, same CMS,
/// same round-robin salt) and return per-window-epoch per-shard record
/// counts — the input to the projected-freshness model.
fn epoch_shard_counts(rows: &[Record], parallelism: usize, salted: bool) -> Vec<Vec<u64>> {
    let key_cols = vec!["city".to_string()];
    let mut sketch = CountMinSketch::new(4, 1024);
    let mut epochs: Vec<Vec<u64>> = Vec::new();
    for (seq, r) in rows.iter().enumerate() {
        let h = Value::hash_of_str(&key_string(&r.value, &key_cols));
        let s = if salted && sketch.observe(h) >= HOT_THRESHOLD {
            seq % parallelism
        } else {
            shard_of_group(key_group_of(h), parallelism)
        };
        let epoch = (r.timestamp / WINDOW_MS) as usize;
        if epochs.len() <= epoch {
            epochs.resize(epoch + 1, vec![0u64; parallelism]);
        }
        epochs[epoch][s] += 1;
    }
    epochs
}

/// p99 of the per-epoch critical-shard busy time: the slowest shard
/// gates when a window's results can merge, i.e. the window's freshness.
fn projected_p99_freshness_ms(epochs: &[Vec<u64>], per_rec_us: f64) -> f64 {
    let mut lags: Vec<f64> = epochs
        .iter()
        .map(|shards| *shards.iter().max().unwrap() as f64 * per_rec_us / 1_000.0)
        .collect();
    lags.sort_by(|a, b| a.partial_cmp(b).unwrap());
    lags[(lags.len() * 99 / 100).min(lags.len() - 1)]
}

fn bench(c: &mut Criterion) {
    report_header(
        "E30 data-parallel keyed compute",
        "sharded keyed window aggregation projects >=2.5x records/s at \
         parallelism=4 (critical-path decomposition; 1-core host) and \
         salted pre-aggregation cuts hot-key shard imbalance and p99 \
         window freshness under a Zipf s=1.5 storm",
    );

    // ---- phase 1: parallelism sweep, mild skew ----------------------
    // 512 cities at s=0.5 spread well across the 128 key groups, so the
    // sweep isolates the sharding protocol's scaling rather than skew
    // (skew is phase 2's subject)
    let n = 200_000;
    let rows: Vec<Record> = CityDriverGenerator::new(0xE30, 512, 4_000, 0.5).trips(n, 1);
    let shared: Vec<Arc<Record>> = rows.iter().cloned().map(Arc::new).collect();

    // real threaded runs first: correctness + honest 1-core wall numbers
    let serial_sink = CollectSink::new();
    let (_, serial_wall) = time_it(|| {
        run_staged_with(
            job(
                "e30-serial",
                SWEEP_WINDOW_MS,
                rows.clone(),
                serial_sink.clone(),
                1,
                false,
            ),
            &StagedConfig::batched(64, 256),
        )
        .unwrap()
    });
    for p in [2usize, 4, 8] {
        let sink = CollectSink::new();
        let (stats, wall) = time_it(|| {
            run_staged_with(
                job(
                    "e30-par",
                    SWEEP_WINDOW_MS,
                    rows.clone(),
                    sink.clone(),
                    p,
                    false,
                ),
                &StagedConfig::batched(64, 256),
            )
            .unwrap()
        });
        assert_eq!(
            sink.records(),
            serial_sink.records(),
            "parallel output diverged at p={p}"
        );
        let stage = stats
            .stages
            .iter()
            .find(|s| s.stage.starts_with("agg[x"))
            .unwrap();
        assert_eq!(stage.shards.len(), p);
        report(
            &format!("threaded wall p={p} (1 core)"),
            format!(
                "{:>9.0} rec/s (serial {:.0})",
                n as f64 / wall.as_secs_f64(),
                n as f64 / serial_wall.as_secs_f64()
            ),
        );
    }

    // critical-path projection: what the sharded plan sustains when each
    // stage has its own core
    let base = best_projection(&shared, 1);
    let serial_rec_s = n as f64 / base.max_shard_s;
    report(
        "projection p=1",
        format!("{serial_rec_s:>9.0} rec/s (fold-bound)"),
    );
    let mut speedup_at_4 = 0.0;
    for p in [2usize, 4, 8] {
        let proj = best_projection(&shared, p);
        let speedup = proj.projected_rec_s / serial_rec_s;
        if p == 4 {
            speedup_at_4 = speedup;
        }
        report(
            &format!("projection p={p}"),
            format!(
                "{:>9.0} rec/s ({speedup:.2}x) route={:.1}ms shard_max={:.1}ms merge={:.1}ms",
                proj.projected_rec_s,
                proj.route_s * 1e3,
                proj.max_shard_s * 1e3,
                proj.merge_s * 1e3
            ),
        );
        assert_eq!(proj.parallelism, p);
    }
    assert!(
        speedup_at_4 >= 2.5,
        "projected speedup at parallelism=4 is {speedup_at_4:.2}x, need >=2.5x"
    );

    // ---- phase 2: Zipf s=1.5 hot-key storm, salted vs unsalted ------
    let storm_n = 120_000;
    let storm: Vec<Record> = CityDriverGenerator::new(0x5707, 24, 4_000, 1.5).trips(storm_n, 7);
    let storm_serial = CollectSink::new();
    run_staged_with(
        job(
            "e30-storm-ser",
            WINDOW_MS,
            storm.clone(),
            storm_serial.clone(),
            1,
            false,
        ),
        &StagedConfig::batched(64, 256),
    )
    .unwrap();

    let imbalance = |salted: bool| {
        let sink = CollectSink::new();
        let stats = run_staged_with(
            job(
                "e30-storm",
                WINDOW_MS,
                storm.clone(),
                sink.clone(),
                4,
                salted,
            ),
            &StagedConfig::batched(64, 256),
        )
        .unwrap();
        assert_eq!(
            sink.records(),
            storm_serial.records(),
            "storm output diverged (salted={salted})"
        );
        let stage = stats
            .stages
            .iter()
            .find(|s| s.stage.starts_with("agg[x4]"))
            .unwrap();
        let max = stage.shards.iter().map(|s| s.records_in).max().unwrap() as f64;
        let mean = storm_n as f64 / 4.0;
        max / mean
    };
    let (unsalted_imb, salted_imb) = (imbalance(false), imbalance(true));
    report(
        "hot-key shard imbalance (max/mean, p=4)",
        format!("unsalted {unsalted_imb:.2}x -> salted {salted_imb:.2}x"),
    );
    assert!(
        salted_imb < unsalted_imb,
        "salting must spread the hot key: {salted_imb:.2} !< {unsalted_imb:.2}"
    );

    // projected p99 freshness: per-record fold cost from phase 1, epoch
    // critical-shard counts from the replayed router
    let per_rec_us = base.max_shard_s * 1e6 / n as f64;
    let p99_unsalted =
        projected_p99_freshness_ms(&epoch_shard_counts(&storm, 4, false), per_rec_us);
    let p99_salted = projected_p99_freshness_ms(&epoch_shard_counts(&storm, 4, true), per_rec_us);
    report(
        "projected p99 window freshness (p=4)",
        format!("unsalted {p99_unsalted:.2}ms -> salted {p99_salted:.2}ms"),
    );
    assert!(
        p99_salted < p99_unsalted,
        "salting must improve projected p99 freshness: {p99_salted:.2} !< {p99_unsalted:.2}"
    );

    let mut g = c.benchmark_group("e30");
    let small: Vec<Arc<Record>> = shared.iter().take(30_000).cloned().collect();
    g.bench_function("projection_p4", |b| {
        b.iter(|| project(&small, 4).projected_rec_s)
    });
    g.bench_function("projection_p1", |b| {
        b.iter(|| project(&small, 1).projected_rec_s)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
