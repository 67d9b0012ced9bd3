//! E26 (§4.3): the real on-disk segment format. Pinot-style segments —
//! per-column dictionaries, bit-packed forward indexes, RLE runs, null
//! bitmaps and zone maps behind a CRC-checked footer — against the naive
//! row encoding the archival layer uses for raw records. The paper's
//! footprint claim (§4.3, E10) is about memory AND disk; this experiment
//! pins the disk half and the two read-path consequences: lazy per-column
//! loads and header-only zone-map pruning.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::{AggFn, FieldType, Row, Schema};
use rtdi_olap::query::{Predicate, PredicateOp, Query};
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_storage::archival;
use std::sync::Arc;

const ROWS: usize = 100_000;

fn schema() -> Schema {
    Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("status", FieldType::Str),
            ("fare", FieldType::Double),
            ("n_riders", FieldType::Int),
            ("ts", FieldType::Timestamp),
        ],
    )
}

fn rows() -> Vec<Row> {
    let cities = ["sf", "la", "nyc", "chi", "sea", "mia", "atx", "den"];
    let statuses = ["completed", "completed", "completed", "canceled"];
    (0..ROWS)
        .map(|i| {
            Row::new()
                .with("city", cities[i % cities.len()])
                .with("status", statuses[(i / 7) % statuses.len()])
                .with("fare", 5.0 + (i % 400) as f64 / 10.0)
                .with("n_riders", 1 + (i % 4) as i64)
                .with("ts", 1_600_000_000_000 + (i as i64) * 250)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    report_header(
        "E26 on-disk segment format (§4.3)",
        "dictionary + bit-packed columns with zone maps vs naive row \
         encoding; lazy loads decode only the columns a query touches, \
         zone-pruned segments never read past the header",
    );
    let rows = rows();
    let seg =
        Arc::new(Segment::build("trips_0", &schema(), rows.clone(), &IndexSpec::none()).unwrap());

    // --- disk footprint: segment format vs the naive row encoding
    let (segment_bytes, encode_t) = time_it(|| seg.persist().unwrap());
    let naive = archival::encode_rows(&rows);
    let ratio = naive.len() as f64 / segment_bytes.len() as f64;
    report(
        "disk footprint (100k rows)",
        format!(
            "segment {} KiB vs naive rows {} KiB (**{ratio:.1}x smaller**); \
             encode {:.1} ms",
            segment_bytes.len() / 1024,
            naive.len() / 1024,
            encode_t.as_secs_f64() * 1e3,
        ),
    );
    assert!(
        ratio >= 4.0,
        "acceptance: segment must be >=4x smaller than naive rows, got {ratio:.2}x"
    );
    // both encodings must carry the same data before sizes count
    let (_, decoded) = rtdi_storage::segfile::decode_rows_segment(&segment_bytes).unwrap();
    assert_eq!(decoded.len(), rows.len());

    // --- lazy load: a 1-column aggregation decodes 1 of 5 columns
    let q_one_col = Query::select_all("trips")
        .filter(Predicate::new("city", PredicateOp::Eq, "sf"))
        .aggregate("n", AggFn::Count);
    let (full_res, full_t) = time_it(|| {
        let lazy = Segment::load_lazy(segment_bytes.clone()).unwrap();
        let s = lazy.into_segment(&IndexSpec::none()).unwrap();
        s.execute(&q_one_col, None).unwrap()
    });
    let lazy = Segment::load_lazy(segment_bytes.clone()).unwrap();
    let (lazy_res, lazy_t) = time_it(|| lazy.execute(&q_one_col).unwrap());
    assert_eq!(full_res.rows, lazy_res.rows, "lazy answers must match full");
    report(
        "single-column count query on a cold segment",
        format!(
            "full load {:.2} ms vs lazy load {:.2} ms (**{:.1}x**); lazy \
             decoded {}/{} columns, {} of {} KiB",
            full_t.as_secs_f64() * 1e3,
            lazy_t.as_secs_f64() * 1e3,
            full_t.as_secs_f64() / lazy_t.as_secs_f64(),
            lazy.columns_loaded(),
            schema().fields.len(),
            lazy.bytes_loaded() / 1024,
            lazy.file_bytes() / 1024,
        ),
    );
    assert!(lazy_t < full_t, "lazy load must beat full load");
    assert_eq!(lazy.columns_loaded(), 1, "count query touches 1 column");

    // --- zone-map pruning: a time predicate outside the segment's range
    // answers from the header alone, zero column bytes decoded
    let q_pruned = Query::select_all("trips")
        .filter(Predicate::new("ts", PredicateOp::Gt, 1_700_000_000_000i64))
        .aggregate("n", AggFn::Count);
    let cold = Segment::load_lazy(segment_bytes.clone()).unwrap();
    let (pruned_res, pruned_t) = time_it(|| cold.execute(&q_pruned).unwrap());
    assert_eq!(pruned_res.ledger.segments_pruned, 1, "zone map must prune");
    assert_eq!(cold.columns_loaded(), 0, "pruning decodes no column");
    assert_eq!(
        cold.bytes_loaded(),
        cold.header_bytes(),
        "pruned segment reads header only"
    );
    report(
        "zone-map pruned time query",
        format!(
            "{:.0} us, {} header bytes read of a {} KiB file, 0/{} columns \
             decoded",
            pruned_t.as_secs_f64() * 1e6,
            cold.header_bytes(),
            cold.file_bytes() / 1024,
            schema().fields.len(),
        ),
    );

    let mut g = c.benchmark_group("e26");
    g.bench_function("persist_100k", |b| b.iter(|| seg.persist().unwrap()));
    g.bench_function("lazy_open_plus_count", |b| {
        b.iter(|| {
            let l = Segment::load_lazy(segment_bytes.clone()).unwrap();
            l.execute(&q_one_col).unwrap()
        })
    });
    g.bench_function("zone_pruned_query", |b| {
        b.iter(|| {
            let l = Segment::load_lazy(segment_bytes.clone()).unwrap();
            l.execute(&q_pruned).unwrap()
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
