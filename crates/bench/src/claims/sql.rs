//! SQL layer (§4.5): E14 and E27.

use super::olap::baselines::{comparison_rows, comparison_schema};
use super::Report;
use crate::count_allocations;
use rtdi_common::{AggFn, FieldType, Result, Row, Schema, Value};
use rtdi_olap::query::{Predicate, PredicateOp, Query};
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_olap::table::{OlapTable, TableConfig};
use rtdi_sql::catalog::{HybridTable, RealtimeSide};
use rtdi_sql::connector::{Connector, PinotConnector, Pushdown, PushedAgg};
use rtdi_sql::engine::{EngineConfig, SqlEngine};
use std::sync::Arc;

pub fn claims(r: &mut Report) -> Result<()> {
    e14_pushdown(r)?;
    e27_hybrid_federation(r)?;
    Ok(())
}

fn e14_pushdown(r: &mut Report) -> Result<()> {
    const N: usize = 40_000;
    const QUERIES: [&str; 4] = [
        "SELECT city, COUNT(*) AS n, SUM(total) AS rev FROM orders GROUP BY city",
        "SELECT restaurant, COUNT(*) AS n FROM orders WHERE city = 'sf' \
         GROUP BY restaurant ORDER BY n DESC LIMIT 10",
        "SELECT COUNT(*) AS n FROM orders WHERE total > 55 AND city = 'la'",
        "SELECT restaurant, total FROM orders WHERE city = 'nyc' ORDER BY total DESC LIMIT 5",
    ];
    let indexes = IndexSpec::none()
        .with_inverted(&["city", "restaurant"])
        .with_range(&["total"]);
    let config = TableConfig::new("orders", comparison_schema())
        .with_index_spec(indexes)
        .with_time_column("ts")
        .with_partitions(2)
        .with_segment_rows(10_000);
    let table = OlapTable::new(config)?;
    for (i, row) in comparison_rows(N).into_iter().enumerate() {
        table.ingest(i % 2, row)?;
    }
    let engine = |enable_pushdown| {
        let pinot = PinotConnector::new();
        pinot.register(table.clone());
        let mut engine = SqlEngine::new(EngineConfig {
            default_catalog: "pinot".into(),
            enable_pushdown,
        });
        engine.register_connector("pinot", Arc::new(pinot));
        engine
    };
    let mut shipped = [0u64; 2];
    let mut answers = Vec::new();
    for (i, (what, pushdown)) in [("on", true), ("off", false)].into_iter().enumerate() {
        let engine = engine(pushdown);
        answers.push(
            r.timed("E14", format!("4-query suite, pushdown {what}"), || {
                QUERIES
                    .iter()
                    .map(|q| engine.query(q))
                    .collect::<Result<Vec<_>>>()
            })?,
        );
        shipped[i] = answers[i].iter().map(|out| out.stats.rows_shipped).sum();
    }
    let same = answers[0]
        .iter()
        .zip(&answers[1])
        .all(|(on, off)| on.rows == off.rows);
    r.claim(
        "E14.rows_shipped",
        "§4.5",
        "predicate and aggregation pushdown make sub-second PrestoSQL on Pinot possible",
        shipped[0] as f64,
        "rows shipped connector to engine for the suite with pushdown (without: 160000)",
        shipped[0] * 1_000 <= shipped[1] && shipped[1] == 4 * N as u64 && same,
    );
    Ok(())
}

const PARTITIONS: usize = 4;
const TIME_CHUNKS: usize = 4;
/// Rows per archived (time chunk, partition) segment.
const SEGMENT_ROWS: usize = 6_000;
/// Rows in the realtime table, all past the boundary.
const REALTIME_ROWS: usize = 12_000;
/// Span of `ts` each archived time chunk covers.
const CHUNK_SPAN: i64 = 100_000;
const BOUNDARY: i64 = TIME_CHUNKS as i64 * CHUNK_SPAN - 1;
/// The dashboard's window: the tail of the newest chunk and all that is fresh.
const WINDOW_FROM: i64 = BOUNDARY - CHUNK_SPAN / 2;
const CITIES: [&str; 8] = ["sf", "la", "nyc", "chi", "sea", "mia", "atx", "den"];
/// The dashboard's city. It sorts inside the city range of every
/// partition's segments, so no zone map can stand in for the partition hint.
const CITY: &str = "la";

fn trips_schema() -> Schema {
    let fields = [
        ("city", FieldType::Str),
        ("ts", FieldType::Timestamp),
        ("fare", FieldType::Double),
    ];
    Schema::of("trips", &fields)
}

fn partition_of(city: &str) -> usize {
    (Value::from(city).partition_hash() % PARTITIONS as u64) as usize
}

/// Whole-number fares keep the f64 sums exact whatever the merge order.
fn trip(i: usize, ts: i64) -> Row {
    Row::new()
        .with("city", CITIES[i % CITIES.len()])
        .with("ts", ts)
        .with("fare", (5 + i % 400) as f64)
}

/// One persisted archive segment and the partition it holds.
type ArchiveFile = (usize, bytes::Bytes);

/// The same rows archived twice: one segment per time chunk (cities
/// interleaved, as a partition-oblivious pipeline writes them) and one
/// per (time chunk, partition).
fn archive() -> Result<(Vec<ArchiveFile>, Vec<ArchiveFile>)> {
    let persist = |name: String, rows| -> Result<bytes::Bytes> {
        Segment::build(name, &trips_schema(), rows, &IndexSpec::none())?.persist()
    };
    let (mut by_chunk, mut by_partition) = (Vec::new(), Vec::new());
    let per_chunk = SEGMENT_ROWS * PARTITIONS;
    for chunk in 0..TIME_CHUNKS {
        // spread over the chunk's whole span, so the newest chunk really
        // reaches the time boundary
        let rows: Vec<Row> = (0..per_chunk)
            .map(|i| {
                trip(
                    i,
                    chunk as i64 * CHUNK_SPAN + i as i64 * CHUNK_SPAN / per_chunk as i64,
                )
            })
            .collect();
        for p in 0..PARTITIONS {
            let of_partition = |row: &&Row| row.get_str("city").map(partition_of) == Some(p);
            let bucket: Vec<Row> = rows.iter().filter(of_partition).cloned().collect();
            if !bucket.is_empty() {
                by_partition.push((p, persist(format!("trips_c{chunk}_p{p}"), bucket)?));
            }
        }
        by_chunk.push((0, persist(format!("trips_c{chunk}"), rows)?));
    }
    Ok((by_chunk, by_partition))
}

fn hybrid(
    files: &[ArchiveFile],
    realtime: &Arc<OlapTable>,
    partitioned: bool,
) -> Result<HybridTable> {
    let side = RealtimeSide::Direct(realtime.clone());
    let mut table = HybridTable::new("trips", trips_schema(), "ts", side).with_query_threads(1);
    if partitioned {
        table = table.with_partition_spec("city", PARTITIONS);
    }
    for (p, file) in files {
        let segment = Arc::new(Segment::load_lazy(file.clone())?);
        table.register_offline_segment(segment, partitioned.then_some(*p))?;
    }
    Ok(table)
}

/// `(COUNT(*), SUM(fare))` of a one-row aggregate answer.
fn count_and_sum(rows: &[Row]) -> (i64, f64) {
    let Some(row) = rows.first() else {
        return (0, 0.0);
    };
    let sum = match row.get("s") {
        Some(Value::Double(v)) => *v,
        Some(Value::Int(v)) => *v as f64,
        _ => 0.0,
    };
    (row.get_int("n").unwrap_or(0), sum)
}

fn e27_hybrid_federation(r: &mut Report) -> Result<()> {
    let (by_chunk, by_partition) = archive()?;
    let config = TableConfig::new("trips", trips_schema())
        .with_partitions(PARTITIONS)
        .with_query_threads(1)
        .with_time_column("ts");
    let realtime = OlapTable::new(config)?;
    for i in 0..REALTIME_ROWS {
        let partition = partition_of(CITIES[i % CITIES.len()]);
        realtime.ingest(partition, trip(i, BOUNDARY + 1 + i as i64))?;
    }
    let window = [
        Predicate::eq("city", CITY),
        Predicate::new("ts", PredicateOp::Ge, WINDOW_FROM),
    ];
    let aggs = vec![
        ("n".to_string(), AggFn::Count),
        ("s".to_string(), AggFn::Sum("fare".into())),
    ];
    let pushdown = |partitions: Option<Vec<usize>>| Pushdown {
        predicates: Arc::new(window.to_vec()),
        aggregation: Some(PushedAgg {
            group_by: Arc::new(Vec::new()),
            aggs: Arc::new(aggs.clone()),
        }),
        partitions: partitions.map(Arc::new),
        ..Pushdown::default()
    };
    let (split, pruned) = (pushdown(None), pushdown(Some(vec![partition_of(CITY)])));

    // plan 1: decode every archived file and run the aggregate on each
    let [city, since] = window.clone();
    let query = Query::select_all("trips")
        .filter(city)
        .filter(since)
        .aggregate("n", AggFn::Count)
        .aggregate("s", AggFn::Sum("fare".into()));
    let (expected, full_bytes) = r.timed("E27", "full scan of every archived file", || {
        let (mut n, mut s) = count_and_sum(&realtime.query(&query)?.rows);
        let mut bytes = 0u64;
        for (_, file) in &by_chunk {
            let segment = Segment::load_lazy(file.clone())?.into_segment(&IndexSpec::none())?;
            let (dn, ds) = count_and_sum(&segment.execute(&query, None)?.rows);
            (n, s, bytes) = (n + dn, s + ds, bytes + file.len() as u64);
        }
        Ok::<_, rtdi_common::Error>(((n, s), bytes))
    })?;

    // plan 2: split at the time boundary, zone maps prune the older chunks
    let table = hybrid(&by_chunk, &realtime, false)?;
    let by_time = r.timed("E27", "time-boundary split, cold", || table.scan(&split))?;
    // plan 3: the city equality also prunes the scatter to one partition
    let table = hybrid(&by_partition, &realtime, true)?;
    let by_both = r.timed("E27", "split + partition-pruned, cold", || {
        table.scan(&pruned)
    })?;
    // plan 4: the same table again, its offline slice now cached
    let cached = r.timed("E27", "warm result cache", || table.scan(&pruned))?;

    let plans = [&by_time, &by_both, &cached];
    let differing = plans
        .iter()
        .filter(|out| count_and_sum(&out.rows) != expected)
        .count();
    r.claim(
        "E27.answers",
        "§4.3, §4.5",
        "a hybrid table serves fresh and historical data as one",
        differing as f64,
        "of 3 federated plans answering differently from the full scan",
        differing == 0 && expected.0 > 0,
    );
    let archived: u64 = by_chunk.iter().map(|(_, file)| file.len() as u64).sum();
    r.claim(
        "E27.full_scan",
        "§4.5",
        "without federation a recent-window aggregate reads the whole archive",
        full_bytes as f64 / 1024.0,
        "KiB of archive read by the full scan: every byte of the 4 archived chunks",
        full_bytes == archived,
    );
    r.claim(
        "E27.time_split",
        "§4.5",
        "the time boundary keeps a recent-window query off old segments",
        by_time.bytes_read as f64 / 1024.0,
        "KiB of archive read once split at the boundary, 3 of 4 chunks pruned by zone map",
        by_time.bytes_read * 2 < full_bytes
            && by_time.ledger.segments_pruned >= TIME_CHUNKS as u64 - 1
            && !by_time.cache_hit,
    );
    r.claim(
        "E27.partition_pruning",
        "§4.3",
        "partition-aware routing sends it to one partition's segments",
        by_both.bytes_read as f64 / 1024.0,
        "KiB of archive read once the scatter is pruned to the city's partition",
        by_both.bytes_read < by_time.bytes_read && by_both.ledger.segments_queried == 2,
    );
    r.claim(
        "E27.cache",
        "§4.5",
        "and a repeated dashboard query costs only the fresh slice",
        cached.bytes_read as f64,
        "archive bytes read on the repeat (offline slice served from the result cache)",
        cached.cache_hit && cached.bytes_read == 0,
    );

    // the pushdown's shape vectors are shared, not copied, per scan
    let (_, cloning) = count_allocations(|| std::hint::black_box(pruned.clone()));
    let connector = PinotConnector::new();
    connector.register(realtime);
    connector.scan("trips", &split)?;
    let (warm, scanning) = count_allocations(|| connector.scan("trips", &split));
    r.claim(
        "E27.allocations",
        "§4.5",
        "pushdown adds no per-query copying of the plan",
        cloning.allocs as f64,
        "allocations per Pushdown::clone (a warm connector scan stays within 64)",
        cloning.allocs == 0 && scanning.allocs <= 64 && !warm?.rows.is_empty(),
    );
    Ok(())
}
