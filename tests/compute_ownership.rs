//! Record ownership in compute: operators borrow shared handles and copy
//! no cell they do not change, so a job's output may not depend on who
//! else holds its input.
//!
//! - Seeded random chains (filter / map / flat-map / tumbling, sliding and
//!   session aggregate / dedup, any batch size and parallelism) run once
//!   over a topic, whose log keeps a handle to every record, once over a
//!   source that hands out records nobody else holds, and once over its
//!   twin that refills in place the records the first stage hands back:
//!   each must equal the per-record oracle byte for byte, a stop at a
//!   checkpoint barrier followed by a restore (at another parallelism)
//!   must reproduce the same output, the refilling twin's sink must keep
//!   what the plain one's does, and the log must hold what was appended.
//! - The Kappa+ source decodes only the columns the SQL names: same
//!   windows as a source that decodes every column, `SELECT *` still
//!   carries all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::{AggFn, FieldType, Record, Result, Row, Schema, Timestamp};
use rtdi::compute::reference::run_reference;
use rtdi::compute::{
    run_staged_with, CheckpointStore, CollectSink, DedupOp, FilterOp, FlatMapOp, HiveSource, Job,
    MapOp, Operator, RescaleHandle, Source, StagedConfig, TopicSource, WindowAggregateOp,
    WindowAssigner,
};
use rtdi::flinksql::compiler::{compile_batch, CompileOptions};
use rtdi::storage::hive::HiveCatalog;
use rtdi::storage::object::InMemoryStore;
use rtdi::stream::topic::{Topic, TopicConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The staged pump polls up to 512 records and so does the oracle; a
/// checkpoint every 512 keeps the two on the same watermark cadence.
const POLL: usize = 512;

/// Hands out every record in a handle of its own: nothing else holds it.
/// Its recycling twin (`spent` set) also takes back what the first stage
/// is done with and, as `HiveSource` does, refills a record it holds alone
/// in place: the next record's cells go into its cell slice, and the
/// record is reset to the next one's time and key.
struct UniqueSource {
    records: Vec<Record>,
    cursor: usize,
    reached: Timestamp,
    spent: Option<Vec<Arc<Record>>>,
    refilled: Arc<AtomicUsize>,
}

impl UniqueSource {
    fn new(records: Vec<Record>, recycling: bool, refilled: &Arc<AtomicUsize>) -> Self {
        UniqueSource {
            records,
            cursor: 0,
            reached: Timestamp::MIN,
            spent: recycling.then(Vec::new),
            refilled: Arc::clone(refilled),
        }
    }
}

/// `next` in a handle: a spent one held alone, refilled, else a new one.
fn handle(
    spent: Option<&mut Vec<Arc<Record>>>,
    refilled: &AtomicUsize,
    next: &Record,
) -> Arc<Record> {
    let Some(mut rec) = spent.and_then(Vec::pop) else {
        return Arc::new(next.clone());
    };
    let Some(owned) = Arc::get_mut(&mut rec) else {
        return Arc::new(next.clone());
    };
    let mut cells = std::mem::take(&mut owned.value).into_cells();
    let row = if cells.len() == next.value.len() {
        cells.clone_from_slice(next.value.cells());
        Row::on(Arc::clone(next.value.names()), cells)
    } else {
        next.value.clone()
    };
    *owned = Record::new(row, next.timestamp);
    owned.key = next.key.clone();
    refilled.fetch_add(1, Ordering::Relaxed);
    rec
}

impl Source for UniqueSource {
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let end = (self.cursor + max).min(self.records.len());
        let batch = &self.records[self.cursor..end];
        self.cursor = end;
        self.reached = (batch.iter().map(|r| r.timestamp)).fold(self.reached, Timestamp::max);
        let (spent, refilled) = (&mut self.spent, &self.refilled);
        Ok((batch.iter())
            .map(|next| handle(spent.as_mut(), refilled, next))
            .collect())
    }
    fn recycle(&mut self, spent: &mut Vec<Arc<Record>>) {
        match &mut self.spent {
            Some(held) => held.append(spent),
            None => spent.clear(),
        }
    }
    fn is_exhausted(&self) -> bool {
        self.cursor >= self.records.len()
    }
    fn position(&self) -> Vec<u64> {
        vec![self.cursor as u64]
    }
    fn seek(&mut self, position: &[u64]) -> Result<()> {
        self.cursor = position.first().copied().unwrap_or(0) as usize;
        self.reached = Timestamp::MIN;
        Ok(())
    }
    fn event_time(&self) -> Timestamp {
        self.reached
    }
}

#[derive(Clone, Copy, Debug)]
enum OpSpec {
    Filter(i64),
    Map(i64),
    Dup,
    Tumbling(i64),
    Sliding(i64, i64),
    Session(i64),
    Dedup,
}

fn arb_op(rng: &mut StdRng) -> OpSpec {
    match rng.gen_range(0..7u8) {
        0 => OpSpec::Filter(rng.gen_range(2..5i64)),
        1 => OpSpec::Map(rng.gen_range(-20..20i64)),
        2 => OpSpec::Dup,
        3 => OpSpec::Tumbling([500, 1_000, 1_700][rng.gen_range(0..3usize)]),
        4 => OpSpec::Sliding(900, 300),
        5 => OpSpec::Session(rng.gen_range(50..400i64)),
        _ => OpSpec::Dedup,
    }
}

fn arb_records(rng: &mut StdRng) -> Vec<Record> {
    (0..rng.gen_range(600..1_100usize))
        .map(|i| {
            let mut row = Row::new();
            row.push("city", format!("c{}", rng.gen_range(0..6u8)));
            if rng.gen_bool(0.9) {
                // integers: f64 sums are exact in any fold order
                row.push("n", rng.gen_range(-40..40i64));
            }
            Record::new(row, rng.gen_range(0..6_000i64)).with_key(format!("k{i}"))
        })
        .collect()
}

fn build_op(idx: usize, spec: OpSpec, parallelism: usize) -> Box<dyn Operator> {
    let window = |assigner| {
        let aggs = vec![
            ("cnt".into(), AggFn::Count),
            ("sum".into(), AggFn::Sum("n".into())),
        ];
        let op =
            WindowAggregateOp::new(format!("agg{idx}"), vec!["city".into()], assigner, aggs, 0);
        Box::new(op.with_parallelism(parallelism)) as Box<dyn Operator>
    };
    match spec {
        OpSpec::Filter(m) => Box::new(FilterOp::new(format!("mod{idx}"), move |r: &Row| {
            r.get_int("n").unwrap_or(1).rem_euclid(m) != 0
        })),
        OpSpec::Map(k) => Box::new(MapOp::new(format!("add{idx}"), move |r: &Row| {
            let shifted = r.get_int("n").unwrap_or(0) + k;
            r.clone().with(format!("m{idx}"), shifted)
        })),
        OpSpec::Dup => Box::new(FlatMapOp::new(format!("dup{idx}"), |r: &Record| {
            vec![r.clone(), r.clone()]
        })),
        OpSpec::Tumbling(size) => window(WindowAssigner::tumbling(size)),
        OpSpec::Sliding(size, slide) => window(WindowAssigner::sliding(size, slide)),
        OpSpec::Session(gap) => window(WindowAssigner::session(gap)),
        OpSpec::Dedup => Box::new(
            DedupOp::new(format!("dedup{idx}"), vec!["city".into(), "n".into()])
                .with_parallelism(parallelism),
        ),
    }
}

/// Who else holds a job's input records: the log, nobody, or nobody and
/// the source refills what comes back.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Input {
    Log,
    Unique,
    Recycled,
}

#[test]
fn shared_and_unique_inputs_agree_with_the_oracle() {
    let refilled = Arc::new(AtomicUsize::new(0));
    for case in 0..24u64 {
        let seed = 0x0B0220E5 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let chain: Vec<OpSpec> = (0..rng.gen_range(1..5usize))
            .map(|_| arb_op(&mut rng))
            .collect();
        let records = arb_records(&mut rng);
        let batch = [1, 2, 7, 64, 256, 512][rng.gen_range(0..6usize)];
        let (wide, narrow) = (rng.gen_range(1..5usize), rng.gen_range(1..5usize));
        let ctx = format!("seed {seed:#x} chain {chain:?} batch {batch} p {wide}->{narrow}");

        // one partition: a poll returns the log's next records in order
        let config = TopicConfig::default().with_partitions(1);
        let topic = Arc::new(Topic::new("in", config).unwrap());
        for r in &records {
            topic.append(r.clone(), 0).unwrap();
        }
        let job = |input: Input, parallelism: usize, sink: &CollectSink| {
            let source: Box<dyn Source> = match input {
                Input::Log => Box::new(TopicSource::bounded(topic.clone()).unwrap()),
                Input::Unique | Input::Recycled => {
                    let recycling = input == Input::Recycled;
                    Box::new(UniqueSource::new(records.clone(), recycling, &refilled))
                }
            };
            let ops = chain.iter().enumerate();
            let ops = ops.map(|(i, spec)| build_op(i, *spec, parallelism));
            Job::new("job", source, ops.collect(), Box::new(sink.clone()))
                .with_out_of_orderness(250)
        };
        let mut unique_out = Vec::new();
        for input in [Input::Log, Input::Unique, Input::Recycled] {
            let ctx = format!("{ctx} input {input:?}");
            let oracle = CollectSink::new();
            run_reference(job(input, 1, &oracle)).unwrap_or_else(|e| panic!("{ctx}: {e}"));

            let sink = CollectSink::new();
            let config = StagedConfig::batched(8, batch);
            run_staged_with(job(input, wide, &sink), &config)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(sink.records(), oracle.records(), "{ctx}: staged run");
            // what the sink kept is not written over by a later refill
            match input {
                Input::Unique => unique_out = sink.records(),
                Input::Recycled => assert_eq!(sink.records(), unique_out, "{ctx}: refilled"),
                Input::Log => {}
            }

            // stop at the first barrier, restore at another parallelism
            let stop = RescaleHandle::new();
            stop.request();
            let mut config = StagedConfig {
                checkpoint_interval: POLL as u64,
                checkpoint_store: Some(CheckpointStore::new(Arc::new(InMemoryStore::new()))),
                rescale: Some(stop),
                ..config
            };
            let sink = CollectSink::new();
            let stats = run_staged_with(job(input, wide, &sink), &config)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(stats.stopped_at_checkpoint, Some(1), "{ctx}");
            assert_eq!(stats.records_in, POLL as u64, "{ctx}");
            config.rescale = None;
            let stats = run_staged_with(job(input, narrow, &sink), &config)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(stats.restored_from_checkpoint, Some(1), "{ctx}");
            assert_eq!(sink.records(), oracle.records(), "{ctx}: restored run");
        }
        // the jobs that read the log left it as appended
        let held = topic.fetch(0, 0, usize::MAX / 2).unwrap().records;
        assert!(
            held.iter().map(|r| &*r.record).eq(&records),
            "{ctx}: the source log changed"
        );
    }
    assert!(refilled.load(Ordering::Relaxed) > 0, "no record came back");
}

#[test]
fn kappa_plus_source_decodes_what_the_sql_names() {
    let catalog = HiveCatalog::new(Arc::new(InMemoryStore::new()));
    let schema = Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("driver", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
            ("__ts", FieldType::Timestamp),
        ],
    );
    let table = catalog.create_table("trips", schema).unwrap();
    let rows: Vec<Row> = (0..400i64)
        .map(|i| {
            Row::new()
                .with("city", ["sf", "la", "nyc"][i as usize % 3])
                .with("driver", format!("drv-{}", i % 17))
                .with("fare", 5.0 + (i % 8) as f64 * 0.25)
                .with("ts", i * 25)
                .with("__ts", i * 25)
        })
        .collect();
    catalog.write_rows("trips", "d000000", &rows).unwrap();

    let compile = |sql: &str, sink: &CollectSink| {
        let options = CompileOptions::default();
        compile_batch(
            "b",
            sql,
            &table,
            0,
            i64::MAX,
            Box::new(sink.clone()),
            &options,
        )
        .unwrap()
    };
    let columns_of = |job: &mut Job| -> Vec<String> {
        let polled = job.source.poll_batch(8).unwrap();
        assert_eq!(polled.len(), 8);
        let first: Vec<String> = polled[0].value.column_names().map(String::from).collect();
        for r in &polled {
            assert!(r.value.column_names().eq(first.iter().map(String::as_str)));
        }
        first
    };
    const SQL: &str = "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips, \
                       SUM(fare) AS revenue FROM trips GROUP BY city, TUMBLE(ts, 1000)";
    let sink = CollectSink::new();
    let mut named = columns_of(&mut compile(SQL, &sink));
    named.sort();
    assert_eq!(named, ["city", "fare", "ts"], "`driver` is never decoded");
    let all = columns_of(&mut compile("SELECT * FROM trips", &sink));
    assert_eq!(all, ["city", "driver", "fare", "ts", "__ts"]);

    // the projected source against one that decodes every column, as
    // before the projection existed: same windows
    let projected = CollectSink::new();
    let config = StagedConfig::default();
    run_staged_with(compile(SQL, &projected), &config).unwrap();
    let full = CollectSink::new();
    let mut job = compile(SQL, &full);
    job.source = Box::new(HiveSource::new(&table, 0, i64::MAX, 4096, None).unwrap());
    run_staged_with(job, &config).unwrap();
    assert_eq!(projected.records(), full.records());
    let trips: i64 = projected
        .rows()
        .iter()
        .filter_map(|r| r.get_int("trips"))
        .sum();
    assert_eq!(trips, 400);
}
