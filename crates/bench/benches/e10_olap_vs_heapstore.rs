//! E10 (§4.3): "With the same amount of data ingested into Elasticsearch
//! and Pinot, Elasticsearch's memory usage was 4x higher and disk usage
//! was 8x higher than Pinot. In addition, Elasticsearch's query latency
//! was 2x-4x higher than Pinot, benchmarked with a combination of
//! filters, aggregation and group by/order by queries."

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{count_allocations, quick_criterion, report, report_header, time_it};
use rtdi_common::AggFn;
use rtdi_olap::baselines::{comparison_rows, comparison_schema, HeapStore};
use rtdi_olap::query::{Predicate, PredicateOp, Query, SortOrder};
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_storage::segfile;

/// The paper's query mix: filters, aggregation, group by / order by.
fn query_suite() -> Vec<Query> {
    vec![
        Query::select_all("orders")
            .filter(Predicate::eq("city", "sf"))
            .aggregate("n", AggFn::Count)
            .aggregate("rev", AggFn::Sum("total".into())),
        Query::select_all("orders")
            .filter(Predicate::new("total", PredicateOp::Gt, 50.0))
            .aggregate("n", AggFn::Count)
            .group(&["city"]),
        Query::select_all("orders")
            .filter(Predicate::eq("restaurant", "rest-0042"))
            .aggregate("avg_total", AggFn::Avg("total".into())),
        Query::select_all("orders")
            .aggregate("n", AggFn::Count)
            .aggregate("rev", AggFn::Sum("total".into()))
            .group(&["city"])
            .order("rev", SortOrder::Desc)
            .limit(3),
    ]
}

fn bench(c: &mut Criterion) {
    report_header(
        "E10 columnar OLAP vs ES-like heap store",
        "ES memory ~4x, disk ~8x, query latency 2-4x higher than Pinot",
    );
    let n = 400_000usize;
    let rows = comparison_rows(n);
    let schema = comparison_schema();

    let mut heap = HeapStore::new();
    for r in &rows {
        heap.index(r.clone());
    }
    let spec = IndexSpec::none()
        .with_inverted(&["city", "restaurant"])
        .with_sorted("ts")
        .with_range(&["total"]);
    let seg = Segment::build("orders", &schema, rows.clone(), &spec).unwrap();

    // footprints
    let col_disk = segfile::encode_rows_segment(&schema, "orders", &rows)
        .unwrap()
        .len();
    report(
        "memory",
        format!(
            "heap-store {} MiB vs columnar {} MiB -> {:.1}x (paper ~4x)",
            heap.memory_bytes() / (1 << 20),
            seg.memory_bytes() / (1 << 20),
            heap.memory_bytes() as f64 / seg.memory_bytes() as f64
        ),
    );
    report(
        "disk",
        format!(
            "heap-store {} MiB vs columnar {} MiB -> {:.1}x (paper ~8x)",
            heap.disk_bytes() / (1 << 20),
            col_disk / (1 << 20),
            heap.disk_bytes() as f64 / col_disk as f64
        ),
    );

    // latency over the paper's query mix
    let suite = query_suite();
    let (_, heap_t) = time_it(|| {
        for q in &suite {
            heap.execute(q).unwrap();
        }
    });
    let (_, col_t) = time_it(|| {
        for q in &suite {
            seg.execute(q, None).unwrap();
        }
    });
    report(
        "query-suite latency",
        format!(
            "heap-store {:.1} ms vs columnar {:.1} ms -> {:.1}x (paper 2-4x)",
            heap_t.as_secs_f64() * 1e3,
            col_t.as_secs_f64() * 1e3,
            heap_t.as_secs_f64() / col_t.as_secs_f64()
        ),
    );
    // allocation traffic for the same suite (vectorized execution should
    // allocate far less than the per-doc heap store)
    let (_, heap_a) = count_allocations(|| {
        for q in &suite {
            heap.execute(q).unwrap();
        }
    });
    let (_, col_a) = count_allocations(|| {
        for q in &suite {
            seg.execute(q, None).unwrap();
        }
    });
    report(
        "query-suite allocations",
        format!("heap-store {heap_a} vs columnar {col_a}"),
    );
    // results agree
    for q in &suite {
        assert_eq!(
            heap.execute(q).unwrap().rows,
            seg.execute(q, None).unwrap().rows,
            "engines disagree on {q:?}"
        );
    }

    let mut g = c.benchmark_group("e10");
    let q = &query_suite()[1];
    g.bench_function("heapstore_groupby", |b| b.iter(|| heap.execute(q).unwrap()));
    g.bench_function("columnar_groupby", |b| {
        b.iter(|| seg.execute(q, None).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
