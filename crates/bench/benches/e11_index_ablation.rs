//! E11 (§4.3): Pinot "uses specialized indices for faster query execution
//! such as Startree, sorted and range indices, which could result in order
//! of magnitude difference of query latency" vs Druid-like plain columnar.

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_common::AggFn;
use rtdi_olap::baselines::{comparison_rows, comparison_schema, druid_like_spec};
use rtdi_olap::query::{Predicate, PredicateOp, Query};
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_olap::startree::StarTreeSpec;

fn bench(c: &mut Criterion) {
    report_header(
        "E11 index ablation (Pinot vs Druid-like vs none)",
        "startree/sorted/range indices give order-of-magnitude latency \
         wins on aggregation and selective-range queries",
    );
    let n = 400_000usize;
    let rows = comparison_rows(n);
    let schema = comparison_schema();

    let full_spec = IndexSpec::none()
        .with_inverted(&["city", "restaurant"])
        .with_sorted("ts")
        .with_range(&["total"])
        .with_startree(StarTreeSpec::new(
            &["city", "restaurant"],
            vec![AggFn::Count, AggFn::Sum("total".into())],
        ));
    let pinot = Segment::build("pinot", &schema, rows.clone(), &full_spec).unwrap();
    let druid =
        Segment::build("druid", &schema, rows.clone(), &druid_like_spec(&full_spec)).unwrap();
    let none = Segment::build("none", &schema, rows, &IndexSpec::none()).unwrap();

    // 1. pre-aggregatable group-by (startree territory)
    let groupby = Query::select_all("orders")
        .aggregate("n", AggFn::Count)
        .aggregate("rev", AggFn::Sum("total".into()))
        .group(&["city"]);
    // 2. selective time range (sorted-column territory)
    let timerange = Query::select_all("orders")
        .filter(Predicate::new(
            "ts",
            PredicateOp::Ge,
            1_600_000_050_000_000i64 / 1_000,
        ))
        .filter(Predicate::new(
            "ts",
            PredicateOp::Lt,
            1_600_000_052_000_000i64 / 1_000,
        ))
        .aggregate("n", AggFn::Count);
    // 3. numeric range filter (range-index territory)
    let numrange = Query::select_all("orders")
        .filter(Predicate::new("total", PredicateOp::Gt, 62.0))
        .aggregate("n", AggFn::Count);

    for (name, q) in [
        ("group-by city (startree)", &groupby),
        ("narrow time range (sorted)", &timerange),
        ("selective total>62 (range idx)", &numrange),
    ] {
        let reps = 20;
        let timing = |seg: &Segment| {
            let (_, t) = time_it(|| {
                for _ in 0..reps {
                    seg.execute(q, None).unwrap();
                }
            });
            t.as_secs_f64() * 1e6 / reps as f64
        };
        let (tp, td, tn) = (timing(&pinot), timing(&druid), timing(&none));
        report(
            name,
            format!(
                "pinot {tp:.0}us vs druid-like {td:.0}us ({:.0}x) vs no-index {tn:.0}us ({:.0}x)",
                td / tp,
                tn / tp
            ),
        );
        // equivalence across all three
        assert_eq!(
            pinot.execute(q, None).unwrap().rows,
            druid.execute(q, None).unwrap().rows
        );
        assert_eq!(
            pinot.execute(q, None).unwrap().rows,
            none.execute(q, None).unwrap().rows
        );
    }
    let st = pinot.execute(&groupby, None).unwrap();
    report(
        "startree engaged on group-by",
        format!(
            "{} (docs scanned: {})",
            st.used_startree, st.ledger.docs_scanned
        ),
    );

    let mut g = c.benchmark_group("e11");
    g.bench_function("pinot_groupby", |b| {
        b.iter(|| pinot.execute(&groupby, None).unwrap())
    });
    g.bench_function("druidlike_groupby", |b| {
        b.iter(|| druid.execute(&groupby, None).unwrap())
    });
    g.bench_function("pinot_timerange", |b| {
        b.iter(|| pinot.execute(&timerange, None).unwrap())
    });
    g.bench_function("noindex_timerange", |b| {
        b.iter(|| none.execute(&timerange, None).unwrap())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
