//! UberEats Restaurant Manager (§5.2): Flink pre-aggregation feeding a
//! Pinot table with pre-aggregation indices, serving dashboard page loads.
//!
//! Also prints the transform-time-vs-query-time tradeoff the paper
//! describes: the same page served from raw events touches orders of
//! magnitude more documents.
//!
//! Run with: `cargo run --example restaurant_dashboard`

use rtdi::usecases::restaurant::{ingest_raw, RestaurantManager};
use rtdi::usecases::workloads::TripEventGenerator;

fn main() {
    let mut gen = TripEventGenerator::new(77, 64);
    let orders: Vec<_> = (0..100_000)
        .map(|i| gen.eats_order((i as i64) * 50))
        .collect();
    println!(
        "generated {} order events over ~{} minutes",
        orders.len(),
        100_000 * 50 / 60_000
    );

    // transform-time processing: Flink rollup into the stats table
    let rm = RestaurantManager::new(60_000).expect("deploy");
    let rolled = rm.ingest_orders(orders.clone()).expect("rollup");
    println!(
        "Flink preprocessor rolled {} raw events into {} stat rows ({}x reduction)",
        orders.len(),
        rolled,
        orders.len() as u64 / rolled.max(1)
    );
    rm.stats_table.seal_all().expect("seal");

    // a restaurant owner loads their dashboard
    let restaurant = "rest-0005";
    let t0 = std::time::Instant::now();
    let pages = rm.load_dashboard(restaurant).expect("dashboard");
    let preagg_elapsed = t0.elapsed();
    let docs: u64 = pages.iter().map(|p| p.ledger.docs_scanned).sum();
    println!("\ndashboard for {restaurant} (pre-aggregated path):");
    println!(
        "  sales series rows: {}, lifetime orders: {}, avg rating: {:.2}",
        pages[0].rows.len(),
        pages[1].rows[0].get_double("total_orders").unwrap(),
        pages[2].rows[0].get_double("rating").unwrap(),
    );
    println!(
        "  latency {:?}, docs touched {}, star-tree used: {}",
        preagg_elapsed, docs, pages[1].used_startree
    );

    // the query-time alternative: same questions over raw events
    let raw_table = RestaurantManager::raw_table().expect("raw table");
    ingest_raw(&raw_table, &orders).expect("raw ingest");
    raw_table.seal_all().expect("seal");
    let t0 = std::time::Instant::now();
    let raw_queries = RestaurantManager::raw_dashboard_queries(restaurant, 60_000);
    let mut raw_docs = 0;
    for q in &raw_queries {
        raw_docs += raw_table.query(q).expect("raw query").ledger.docs_scanned;
    }
    let raw_elapsed = t0.elapsed();
    println!("\nsame dashboard from raw events (no preprocessing):");
    println!("  latency {raw_elapsed:?}, docs touched {raw_docs}");
    println!(
        "\ntransform-time preprocessing gave {:.0}x fewer docs touched and {:.1}x lower latency",
        raw_docs as f64 / docs.max(1) as f64,
        raw_elapsed.as_secs_f64() / preagg_elapsed.as_secs_f64().max(1e-9)
    );
}
