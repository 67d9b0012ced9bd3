//! E27 (§4.3/§4.5): hybrid-table federation. A dashboard-style aggregate
//! over a recent time window, answered four ways against the same data —
//! a full scan of every archival file, the time-boundary split (zone-map
//! pruned historical slice + realtime slice), the split with
//! partition-pruned scatter on top, and a warm freshness-aware result
//! cache. The paper's claim: hybrid tables keep "seconds-level freshness
//! with historical completeness" while repeated queries cost only the
//! fresh slice.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{
    assert_allocs_at_most, count_allocations, quick_criterion, report, report_header, time_it,
};
use rtdi_common::{AggFn, FieldType, Row, Schema, Value};
use rtdi_olap::query::{Predicate, PredicateOp, Query};
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_olap::table::{OlapTable, TableConfig};
use rtdi_sql::catalog::{HybridTable, RealtimeSide};
use rtdi_sql::connector::{Connector, PinotConnector, Pushdown, PushedAgg};
use std::sync::Arc;
use std::time::Duration;

const PARTITIONS: usize = 4;
const TIME_CHUNKS: usize = 4;
/// Rows per (time chunk, partition) archival segment.
const SEG_ROWS: usize = 6_000;
/// Rows in the realtime store past the boundary.
const RT_ROWS: usize = 12_000;
/// ts span covered by each archival time chunk.
const CHUNK_SPAN: i64 = 100_000;
const BOUNDARY: i64 = TIME_CHUNKS as i64 * CHUNK_SPAN - 1;
/// Recent window: the tail of the newest chunk plus everything fresh.
const WINDOW_LO: i64 = BOUNDARY - CHUNK_SPAN / 2;
const ITERS: usize = 30;

const CITIES: [&str; 8] = ["sf", "la", "nyc", "chi", "sea", "mia", "atx", "den"];
const TARGET: &str = "sf";

fn schema() -> Schema {
    Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("ts", FieldType::Timestamp),
            ("fare", FieldType::Double),
        ],
    )
}

fn partition_of(city: &str) -> usize {
    (Value::from(city).partition_hash() % PARTITIONS as u64) as usize
}

/// Integer-valued fares keep f64 sums exact, so every variant's answer
/// is bit-identical regardless of merge order.
fn row(city: &str, ts: i64, i: usize) -> Row {
    Row::new()
        .with("city", city)
        .with("ts", ts)
        .with("fare", (5 + i % 400) as f64)
}

/// Two archival layouts over the same rows, persisted once and re-opened
/// cold by every variant: one segment per time chunk (cities interleaved
/// — what a partition-oblivious offline pipeline writes), and one
/// segment per (time chunk, partition) for the partition-aware pipeline.
#[allow(clippy::type_complexity)]
fn offline_files() -> (
    Vec<(String, usize, bytes::Bytes)>,
    Vec<(String, usize, bytes::Bytes)>,
) {
    let mut chunk_files = Vec::new();
    let mut part_files = Vec::new();
    for chunk in 0..TIME_CHUNKS {
        let mut all = Vec::new();
        let mut buckets: Vec<Vec<Row>> = vec![Vec::new(); PARTITIONS];
        let per_chunk = SEG_ROWS * PARTITIONS;
        for i in 0..per_chunk {
            let city = CITIES[i % CITIES.len()];
            // spread the chunk's rows across its whole ts span so the
            // newest chunk genuinely reaches the time boundary
            let ts = chunk as i64 * CHUNK_SPAN + i as i64 * CHUNK_SPAN / per_chunk as i64;
            let r = row(city, ts, i);
            buckets[partition_of(city)].push(r.clone());
            all.push(r);
        }
        let name = format!("trips_c{chunk}");
        let seg = Segment::build(&name, &schema(), all, &IndexSpec::none()).unwrap();
        chunk_files.push((name, 0, seg.persist().unwrap()));
        for (p, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let name = format!("trips_c{chunk}_p{p}");
            let seg = Segment::build(&name, &schema(), bucket, &IndexSpec::none()).unwrap();
            part_files.push((name, p, seg.persist().unwrap()));
        }
    }
    (chunk_files, part_files)
}

fn realtime_table() -> Arc<OlapTable> {
    let rt = OlapTable::new(
        TableConfig::new("trips", schema())
            .with_partitions(1)
            .with_query_threads(1)
            .with_time_column("ts"),
    )
    .unwrap();
    for i in 0..RT_ROWS {
        let city = CITIES[i % CITIES.len()];
        rt.ingest(0, row(city, BOUNDARY + 1 + i as i64, i)).unwrap();
    }
    rt
}

fn build_hybrid(
    files: &[(String, usize, bytes::Bytes)],
    rt: &Arc<OlapTable>,
    partition_aware: bool,
) -> HybridTable {
    let mut hybrid = HybridTable::new(
        "trips",
        schema(),
        "ts",
        RealtimeSide::Direct(Arc::clone(rt)),
    )
    .with_query_threads(1);
    if partition_aware {
        hybrid = hybrid.with_partition_spec("city", PARTITIONS);
    }
    for (_, p, bytes) in files {
        let lazy = Arc::new(Segment::load_lazy(bytes.clone()).unwrap());
        let part = partition_aware.then_some(*p);
        hybrid.register_offline_segment(lazy, part).unwrap();
    }
    hybrid
}

fn pushdown(partitions: Option<Vec<usize>>) -> Pushdown {
    Pushdown {
        predicates: Arc::new(vec![
            Predicate::eq("city", TARGET),
            Predicate::new("ts", PredicateOp::Ge, WINDOW_LO),
        ]),
        aggregation: Some(PushedAgg {
            group_by: Arc::new(Vec::new()),
            aggs: Arc::new(vec![
                ("n".to_string(), AggFn::Count),
                ("s".to_string(), AggFn::Sum("fare".into())),
            ]),
        }),
        partitions: partitions.map(Arc::new),
        ..Pushdown::default()
    }
}

fn olap_query() -> Query {
    Query::select_all("trips")
        .filter(Predicate::eq("city", TARGET))
        .filter(Predicate::new("ts", PredicateOp::Ge, WINDOW_LO))
        .aggregate("n", AggFn::Count)
        .aggregate("s", AggFn::Sum("fare".into()))
}

fn scalar(rows: &[Row]) -> (i64, f64) {
    let r = &rows[0];
    let n = r.get_int("n").unwrap_or(0);
    let s = match r.get("s") {
        Some(Value::Double(v)) => *v,
        Some(Value::Int(v)) => *v as f64,
        _ => 0.0,
    };
    (n, s)
}

fn p50(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// The pre-federation baseline: open and fully decode every archival
/// file, execute the aggregate on each, merge, then add the realtime
/// slice. No boundary planning, no zone maps, no partition pruning.
fn full_scan(
    files: &[(String, usize, bytes::Bytes)],
    rt: &Arc<OlapTable>,
    q: &Query,
) -> (i64, f64, usize) {
    let mut n = 0i64;
    let mut s = 0.0f64;
    let mut bytes_read = 0usize;
    for (_, _, bytes) in files {
        let lazy = Segment::load_lazy(bytes.clone()).unwrap();
        let seg = lazy.into_segment(&IndexSpec::none()).unwrap();
        let res = seg.execute(q, None).unwrap();
        let (dn, ds) = scalar(&res.rows);
        n += dn;
        s += ds;
        bytes_read += bytes.len();
    }
    let res = rt.query(q).unwrap();
    let (dn, ds) = scalar(&res.rows);
    (n + dn, s + ds, bytes_read)
}

fn bench(c: &mut Criterion) {
    report_header(
        "E27 hybrid-table federation (§4.3/§4.5)",
        "time-boundary planning + partition-pruned scatter + a \
         freshness-aware result cache turn a repeated dashboard aggregate \
         from a full archive scan into a cache hit plus the fresh slice",
    );
    let (chunk_files, part_files) = offline_files();
    let rt = realtime_table();
    let q = olap_query();
    let pd_split = pushdown(None);
    let pd_pruned = pushdown(Some(vec![partition_of(TARGET)]));
    let total_file_bytes: usize = chunk_files.iter().map(|(_, _, b)| b.len()).sum();

    // --- variant 1: full scan of every archival file, every query
    let mut times = Vec::new();
    let mut expected = (0i64, 0.0f64, 0usize);
    for _ in 0..ITERS {
        let (out, t) = time_it(|| full_scan(&chunk_files, &rt, &q));
        expected = out;
        times.push(t);
    }
    let p50_full = p50(times);
    assert!(expected.0 > 0, "the benchmark query must match rows");

    // --- variant 2: time-boundary split; zone maps prune the historical
    // chunks outside the window, cold columns decoded per query
    let mut times = Vec::new();
    let mut split_bytes = 0;
    let mut split_pruned = 0;
    for _ in 0..ITERS {
        let hybrid = build_hybrid(&chunk_files, &rt, false);
        let (out, t) = time_it(|| hybrid.scan(&pd_split).unwrap());
        assert_eq!(scalar(&out.rows), (expected.0, expected.1));
        assert!(!out.cache_hit);
        split_bytes = out.bytes_read;
        split_pruned = out.ledger.segments_pruned;
        times.push(t);
    }
    let p50_split = p50(times);
    assert!(
        split_pruned >= chunk_files.len() as u64 - 1,
        "time window must prune the older chunks, pruned {split_pruned} of \
         {}",
        chunk_files.len(),
    );

    // --- variant 3: split + partition-pruned scatter from the city
    // equality; only the target partition's newest chunk is consulted
    let mut times = Vec::new();
    let mut pruned_bytes = 0;
    let mut pruned_queried = 0;
    for _ in 0..ITERS {
        let hybrid = build_hybrid(&part_files, &rt, true);
        let (out, t) = time_it(|| hybrid.scan(&pd_pruned).unwrap());
        assert_eq!(scalar(&out.rows), (expected.0, expected.1));
        pruned_bytes = out.bytes_read;
        pruned_queried = out.ledger.segments_queried;
        times.push(t);
    }
    let p50_pruned = p50(times);
    assert_eq!(
        pruned_queried, 2,
        "partition + time pruning leaves 1 archival segment (plus the \
         realtime store's one)"
    );

    // --- variant 4: warm freshness-aware cache; the offline slice is a
    // lookup, only the realtime slice executes
    let hybrid = build_hybrid(&part_files, &rt, true);
    let cold = hybrid.scan(&pd_pruned).unwrap();
    assert_eq!(scalar(&cold.rows), (expected.0, expected.1));
    let mut times = Vec::new();
    for _ in 0..ITERS {
        let (out, t) = time_it(|| hybrid.scan(&pd_pruned).unwrap());
        assert_eq!(scalar(&out.rows), (expected.0, expected.1));
        assert!(out.cache_hit, "warm scan must hit the result cache");
        assert_eq!(out.bytes_read, 0, "cache hit reads no archival bytes");
        times.push(t);
    }
    let p50_cached = p50(times);

    report(
        "repeated hybrid aggregate p50",
        format!(
            "full-scan {:.2} ms | time-split {:.2} ms | split+pruned {:.2} \
             ms | cached {:.3} ms (**{:.0}x vs full-scan**)",
            p50_full.as_secs_f64() * 1e3,
            p50_split.as_secs_f64() * 1e3,
            p50_pruned.as_secs_f64() * 1e3,
            p50_cached.as_secs_f64() * 1e3,
            p50_full.as_secs_f64() / p50_cached.as_secs_f64(),
        ),
    );
    report(
        "archival bytes read per query",
        format!(
            "full-scan {} KiB | time-split {} KiB | split+pruned {} KiB | \
             cached 0 KiB (archive: {} KiB on disk as {} chunk or {} \
             partitioned segments)",
            expected.2 / 1024,
            split_bytes / 1024,
            pruned_bytes / 1024,
            total_file_bytes / 1024,
            chunk_files.len(),
            part_files.len(),
        ),
    );
    assert!(
        p50_cached.as_secs_f64() * 5.0 <= p50_full.as_secs_f64(),
        "acceptance: cached p50 must be >=5x faster than full-scan, got \
         {:.1}x",
        p50_full.as_secs_f64() / p50_cached.as_secs_f64(),
    );
    assert!(
        split_bytes < expected.2 as u64 / 2,
        "split must cut bytes read"
    );
    assert!(pruned_bytes < split_bytes, "pruning must cut bytes further");

    // --- satellite: the Arc-shared pushdown plumbing. Cloning a fully
    // populated pushdown is refcount bumps only, and a warm connector
    // scan stays allocation-bounded instead of re-cloning shape vectors.
    let (_, clone_stats) = count_allocations(|| {
        let c = pd_pruned.clone();
        std::hint::black_box(&c);
    });
    assert_allocs_at_most("Pushdown::clone (Arc-shared shapes)", clone_stats, 0);
    report(
        "allocations per Pushdown::clone",
        format!("{} (shape vectors are Arc-shared)", clone_stats.allocs),
    );
    let conn = PinotConnector::new();
    conn.register(Arc::clone(&rt));
    conn.scan("trips", &pd_split).unwrap();
    let (out, scan_stats) = count_allocations(|| conn.scan("trips", &pd_split).unwrap());
    assert!(!out.rows.is_empty());
    assert_allocs_at_most("warm PinotConnector::scan", scan_stats, 64);
    report(
        "allocations per warm connector scan (12k-row realtime table)",
        scan_stats.allocs,
    );

    let mut g = c.benchmark_group("e27");
    g.bench_function("full_scan", |b| b.iter(|| full_scan(&chunk_files, &rt, &q)));
    g.bench_function("time_split_cold", |b| {
        b.iter(|| {
            let h = build_hybrid(&chunk_files, &rt, false);
            h.scan(&pd_split).unwrap()
        })
    });
    g.bench_function("split_partition_pruned_cold", |b| {
        b.iter(|| {
            let h = build_hybrid(&part_files, &rt, true);
            h.scan(&pd_pruned).unwrap()
        })
    });
    g.bench_function("cached_warm", |b| {
        b.iter(|| hybrid.scan(&pd_pruned).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
