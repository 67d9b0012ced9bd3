//! Event time is the source's: a job's watermark is the minimum over the
//! inputs that have more to give of the largest time each handed out.
//! Three hazards of a single source-wide watermark, kept as regressions:
//!
//! - a union of a fast and a slow stream, where the slow one's times would
//!   pass the fast one's backlog;
//! - city-keyed partitions of unequal length, across a checkpoint stop and
//!   a restart from it;
//! - a partition that never receives a record, which must not stall the
//!   watermark of the others.

use rtdi::common::{AggFn, Record, Row};
use rtdi::compute::reference::run_reference;
use rtdi::compute::source::UnionSource;
use rtdi::compute::{
    run_staged_with, CheckpointStore, CollectSink, Job, JobRunStats, Operator, RescaleHandle,
    Source, StagedConfig, TopicSource, WindowAggregateOp, WindowAssigner,
};
use rtdi::flinksql::compiler::{compile_streaming, CompileOptions};
use rtdi::storage::object::InMemoryStore;
use rtdi::stream::topic::{Topic, TopicConfig};
use rtdi::usecases::CityDriverGenerator;
use std::sync::Arc;

fn topic(name: &str, partitions: usize) -> Arc<Topic> {
    let config = TopicConfig::default().with_partitions(partitions);
    Arc::new(Topic::new(name, config).unwrap())
}

/// `n` records `gap_ms` apart, keyed by their index.
fn fill(topic: &Topic, n: i64, gap_ms: i64) {
    for i in 0..n {
        let record = Record::new(Row::new().with("i", i), i * gap_ms).with_key(format!("k{i}"));
        topic.append(record, 0).unwrap();
    }
}

/// An unkeyed tumbling COUNT: one row per window.
fn tumbling_count(size_ms: i64) -> WindowAggregateOp {
    let count = vec![("n".into(), AggFn::Count)];
    WindowAggregateOp::new(
        "count",
        Vec::new(),
        WindowAssigner::tumbling(size_ms),
        count,
        0,
    )
}

fn counted(rows: &[Row], col: &str) -> i64 {
    rows.iter().map(|r| r.get_int(col).unwrap()).sum()
}

fn late(stats: &JobRunStats) -> u64 {
    stats.stages.iter().map(|s| s.late_dropped).sum()
}

/// 10 000 records 1 ms apart beside 100 records 100 ms apart, both over
/// the same ten seconds, through a 1 s tumbling count with a 250 ms bound.
/// The slow stream is drained in one poll; a watermark over every polled
/// record would then pass almost all of the fast stream's backlog.
#[test]
fn a_union_of_unequal_rates_loses_nothing() {
    let (fast, slow) = (topic("fast", 2), topic("slow", 2));
    fill(&fast, 10_000, 1);
    fill(&slow, 100, 100);
    let job = |sink: &CollectSink| {
        let source = UnionSource::new(vec![
            (
                "fast".into(),
                Box::new(TopicSource::bounded(fast.clone()).unwrap()),
            ),
            (
                "slow".into(),
                Box::new(TopicSource::bounded(slow.clone()).unwrap()),
            ),
        ]);
        let ops: Vec<Box<dyn Operator>> = vec![Box::new(tumbling_count(1_000))];
        Job::new("union", Box::new(source), ops, Box::new(sink.clone())).with_out_of_orderness(250)
    };
    let (staged, reference) = (CollectSink::new(), CollectSink::new());
    let stats = run_staged_with(job(&staged), &StagedConfig::default()).unwrap();
    let oracle = run_reference(job(&reference)).unwrap();
    for (what, stats, sink) in [("staged", stats, staged), ("reference", oracle, reference)] {
        assert_eq!(late(&stats), 0, "{what}: records dropped as late");
        assert_eq!(counted(&sink.rows(), "n"), 10_100, "{what}");
        assert_eq!(sink.rows().len(), 10, "{what}: one row per second");
    }
}

/// Zipf-skewed cities keyed onto four partitions, 20 records an event-ms
/// (the benchmark's city-keyed stream): hot partitions lag the cold ones
/// in event time, by more than the 250 ms bound before the cold ones run
/// dry. The job stops at its first checkpoint and a restart
/// from that checkpoint finishes it; every record is counted once and
/// none is late in either run.
#[test]
fn city_keyed_partitions_lose_nothing_across_a_checkpoint_restart() {
    const N: usize = 40_000;
    let trips = topic("trips", 4);
    let mut gen = CityDriverGenerator::new(1, 512, 4_000, 1.0);
    for i in 0..N {
        trips.append(gen.trip(i as i64 / 20), 0).unwrap();
    }
    let sql = "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips \
               FROM trips GROUP BY city, TUMBLE(ts, 1000)";
    let options = CompileOptions {
        max_out_of_orderness: 250,
        ..CompileOptions::default()
    };
    let sink = CollectSink::new();
    let job = || {
        let sink = Box::new(sink.clone());
        compile_streaming("trip-stats", sql, trips.clone(), sink, &options).unwrap()
    };
    let stop = RescaleHandle::new();
    stop.request();
    let mut config = StagedConfig {
        checkpoint_interval: 15_000,
        checkpoint_store: Some(CheckpointStore::new(Arc::new(InMemoryStore::new()))),
        rescale: Some(stop),
        ..StagedConfig::default()
    };
    let first = run_staged_with(job(), &config).unwrap();
    assert_eq!(first.stopped_at_checkpoint, Some(1));
    config.rescale = None;
    let rest = run_staged_with(job(), &config).unwrap();
    assert_eq!(rest.restored_from_checkpoint, Some(1));
    assert_eq!(
        (late(&first), late(&rest)),
        (0, 0),
        "records dropped as late"
    );
    assert_eq!(counted(&sink.rows(), "trips"), N as i64);
}

/// An unbounded topic of two partitions, one of which never receives a
/// record: the other's records still close windows as they arrive. The
/// run stops at a checkpoint, before any end-of-input flush, so every row
/// in the sink was closed by a watermark.
#[test]
fn an_empty_partition_does_not_stall_the_watermark() {
    let t = topic("t", 2);
    for i in 0..5_000i64 {
        t.append_to(0, Record::new(Row::new().with("i", i), i), 0)
            .unwrap();
    }
    let mut source = TopicSource::unbounded(t.clone());
    // the empty partition's share goes to the other: one full poll
    assert_eq!(source.poll_batch(100).unwrap().len(), 100);
    assert_eq!(source.event_time(), 99, "the empty partition is idle");

    let sink = CollectSink::new();
    let ops: Vec<Box<dyn Operator>> = vec![Box::new(tumbling_count(100))];
    let source = Box::new(TopicSource::unbounded(t));
    let job = Job::new("idle", source, ops, Box::new(sink.clone()));
    let stop = RescaleHandle::new();
    stop.request();
    let config = StagedConfig {
        checkpoint_interval: 1_000,
        checkpoint_store: Some(CheckpointStore::new(Arc::new(InMemoryStore::new()))),
        rescale: Some(stop),
        ..StagedConfig::default()
    };
    let stats = run_staged_with(job, &config).unwrap();
    assert_eq!(stats.stopped_at_checkpoint, Some(1));
    let rows = sink.rows();
    assert!(rows.len() >= 9, "only {} windows closed", rows.len());
    assert!(rows.iter().all(|r| r.get_int("n") == Some(100)));
}

/// A city-keyed topic's partitions are of unequal length, so its cold
/// partitions drain first. A poll still comes back full while the topic
/// holds that many records, in event-time order.
#[test]
fn a_poll_stays_full_after_the_cold_partitions_drain() {
    const N: usize = 8_000;
    const MAX: usize = 512;
    let trips = topic("trips", 4);
    let mut gen = CityDriverGenerator::new(1, 512, 4_000, 1.0);
    for i in 0..N {
        trips.append(gen.trip(i as i64 / 20), 0).unwrap();
    }
    let lengths = trips.committed_watermarks();
    let mut source = TopicSource::unbounded(trips.clone());
    let (mut left, mut full_after_a_drain) = (N, 0);
    while left > 0 {
        let batch = source.poll_batch(MAX).unwrap();
        assert_eq!(batch.len(), MAX.min(left), "{left} records left");
        assert!(batch.is_sorted_by_key(|r| r.timestamp));
        left -= batch.len();
        let position = source.position();
        let drained = position.iter().zip(&lengths).filter(|(p, l)| p == l);
        if drained.count() > 0 && left > 0 {
            full_after_a_drain += 1;
        }
    }
    assert!(
        full_after_a_drain >= 2,
        "partitions {lengths:?}: {full_after_a_drain} full polls after a drain"
    );
    assert!(source.poll_batch(MAX).unwrap().is_empty());
}
