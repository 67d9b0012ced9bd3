//! E16 (§5.2): the restaurant-manager tradeoff — "preprocessing during
//! transformation time can create optimized indices and reduce the amount
//! of data for serving, but it reduces the query flexibility on the
//! serving layer."

use criterion::{criterion_group, criterion_main, Criterion};
use rtdi_bench::{quick_criterion, report, report_header, time_it};
use rtdi_usecases::restaurant::{ingest_raw, RestaurantManager};
use rtdi_usecases::workloads::TripEventGenerator;

fn bench(c: &mut Criterion) {
    report_header(
        "E16 transform-time vs query-time processing",
        "Flink pre-aggregation + Pinot indices cut dashboard latency and \
         docs touched by orders of magnitude vs serving from raw events",
    );
    let mut gen = TripEventGenerator::new(77, 64);
    let orders: Vec<_> = (0..200_000)
        .map(|i| gen.eats_order((i as i64) * 50))
        .collect();

    let rm = RestaurantManager::new(60_000).unwrap();
    let (rolled, rollup_t) = time_it(|| rm.ingest_orders(orders.clone()).unwrap());
    rm.stats_table.seal_all().unwrap();
    report(
        "preprocessing",
        format!(
            "{} raw -> {} stat rows ({}x reduction) in {:.0} ms",
            orders.len(),
            rolled,
            orders.len() as u64 / rolled.max(1),
            rollup_t.as_secs_f64() * 1e3
        ),
    );

    let raw_table = RestaurantManager::raw_table().unwrap();
    ingest_raw(&raw_table, &orders).unwrap();
    raw_table.seal_all().unwrap();

    let restaurant = "rest-0005";
    let reps = 20;
    let (pre_docs, pre_t) = {
        let mut docs = 0;
        let (_, t) = time_it(|| {
            for _ in 0..reps {
                docs = rm
                    .load_dashboard(restaurant)
                    .unwrap()
                    .iter()
                    .map(|r| r.ledger.docs_scanned)
                    .sum();
            }
        });
        (docs, t / reps)
    };
    let (raw_docs, raw_t) = {
        let queries = RestaurantManager::raw_dashboard_queries(restaurant, 60_000);
        let mut docs = 0;
        let (_, t) = time_it(|| {
            for _ in 0..reps {
                docs = queries
                    .iter()
                    .map(|q| raw_table.query(q).unwrap().ledger.docs_scanned)
                    .sum();
            }
        });
        (docs, t / reps)
    };
    report(
        "dashboard page load",
        format!(
            "pre-aggregated {:.2} ms ({pre_docs} docs) vs raw {:.2} ms ({raw_docs} docs) \
             -> {:.1}x latency, {:.0}x docs",
            pre_t.as_secs_f64() * 1e3,
            raw_t.as_secs_f64() * 1e3,
            raw_t.as_secs_f64() / pre_t.as_secs_f64(),
            raw_docs as f64 / pre_docs.max(1) as f64
        ),
    );

    let mut g = c.benchmark_group("e16");
    g.bench_function("dashboard_preagg", |b| {
        b.iter(|| rm.load_dashboard(restaurant).unwrap())
    });
    g.bench_function("dashboard_raw", |b| {
        let queries = RestaurantManager::raw_dashboard_queries(restaurant, 60_000);
        b.iter(|| {
            queries
                .iter()
                .map(|q| raw_table.query(q).unwrap().rows.len())
                .sum::<usize>()
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
