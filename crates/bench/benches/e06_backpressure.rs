//! E6 (§4.2): "Storm performed poorly in handling back pressure when
//! faced with a massive input backlog of millions of messages, taking
//! several hours to recover whereas Flink only took 20 minutes."
//!
//! Reproduced as a discrete-time simulation of both engines draining a
//! 5M-message backlog at 5k msg/s capacity with 1k msg/s of live input
//! (see `rtdi_compute::baselines::simulate_recovery`).

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{AggFn, Row, Timestamp};
use rtdi_compute::baselines::{simulate_recovery, EngineModel};
use rtdi_compute::operator::{FilterOp, MapOp, Operator, WindowAggregateOp};
use rtdi_compute::runtime::{run_staged_with, Job, StagedConfig};
use rtdi_compute::sink::CollectSink;
use rtdi_compute::source::VecSource;
use rtdi_compute::window::WindowAssigner;

/// Drain a pre-built backlog through the staged runtime's 4-stage
/// map/filter/window/map pipeline under one channel protocol; the bounded
/// channels are the credit-based backpressure being measured, so drain
/// throughput is exactly how fast the engine works through a backlog.
fn drain_backlog(n: usize, cfg: &StagedConfig) -> (f64, usize) {
    let rows: Vec<(Timestamp, Row)> = (0..n)
        .map(|i| {
            (
                (i as i64) * 10,
                Row::new()
                    .with("city", ["sf", "la"][i % 2])
                    .with("fare", 8.0 + (i % 25) as f64),
            )
        })
        .collect();
    let sink = CollectSink::new();
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
            vec![("trips".into(), AggFn::Count)],
            0,
        )),
        Box::new(MapOp::new("post", |r: &Row| r.clone())),
    ];
    let job = Job::new(
        "drain",
        Box::new(VecSource::from_rows(rows)),
        ops,
        Box::new(sink.clone()),
    );
    let (stats, elapsed) = time_it(|| run_staged_with(job, cfg).unwrap());
    assert_eq!(stats.records_in, n as u64);
    (n as f64 / elapsed.as_secs_f64(), sink.len())
}

fn bench(c: &mut Criterion) {
    report_header(
        "E6 backlog recovery: Flink-like vs Storm-like",
        "Flink ~20 minutes, Storm several hours (>=6x slower) on a \
         multi-million message backlog",
    );
    let backlog = 5_000_000;
    let capacity = 5_000;
    let input = 1_000;
    let horizon = 200_000_000;
    let flink = simulate_recovery(
        EngineModel::FlinkLike {
            buffer_capacity: 10_000,
        },
        backlog,
        capacity,
        input,
        horizon,
    );
    let storm = simulate_recovery(
        EngineModel::StormLike {
            ack_timeout_ms: 60_000,
            emit_multiplier: 1.2,
        },
        backlog,
        capacity,
        input,
        horizon,
    );
    report(
        "Flink-like (credit-based backpressure)",
        format!(
            "{:.1} minutes, {} wasted replays",
            flink.recovery_ms as f64 / 60_000.0,
            flink.wasted_replays
        ),
    );
    report(
        "Storm-like (ack timeout, no flow control)",
        format!(
            "{:.1} minutes, {} wasted replays{}",
            storm.recovery_ms as f64 / 60_000.0,
            storm.wasted_replays,
            if storm.timed_out {
                " (hit simulation horizon)"
            } else {
                ""
            }
        ),
    );
    report(
        "recovery ratio storm/flink",
        format!(
            "{:.1}x",
            storm.recovery_ms as f64 / flink.recovery_ms as f64
        ),
    );
    // shape check from the paper: ~20 min for Flink, hours for Storm
    assert!((15.0..30.0).contains(&(flink.recovery_ms as f64 / 60_000.0)));
    assert!(storm.recovery_ms as f64 / flink.recovery_ms as f64 >= 5.0);

    // The real staged runtime draining a backlog at three settings:
    // batches of one, micro-batched, and micro-batched with the stateless
    // operators chained into one stage.
    let n = 80_000;
    let (per_record, out_a) = drain_backlog(
        n,
        &StagedConfig {
            fuse_operators: false,
            ..StagedConfig::batched(64, 1)
        },
    );
    let (batched, out_b) = drain_backlog(
        n,
        &StagedConfig {
            fuse_operators: false,
            ..StagedConfig::batched(64, 64)
        },
    );
    let (fused, out_c) = drain_backlog(n, &StagedConfig::batched(64, 64));
    assert_eq!(out_a, out_b);
    assert_eq!(out_a, out_c);
    report("staged drain batch=1", format!("{per_record:.0} rec/s"));
    report("staged drain batch=64", format!("{batched:.0} rec/s"));
    report(
        "staged drain batch=64 + chained",
        format!("{fused:.0} rec/s"),
    );

    let mut g = c.benchmark_group("e06");
    g.bench_function("simulate_flink_recovery", |b| {
        b.iter(|| {
            simulate_recovery(
                EngineModel::FlinkLike {
                    buffer_capacity: 10_000,
                },
                500_000,
                5_000,
                1_000,
                10_000_000,
            )
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
