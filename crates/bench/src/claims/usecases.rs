//! Use cases (§5, Table 1): E15–E19.

pub mod usage;

use super::{present, Report};
use crate::count_allocations;
use rtdi_common::trace::END_TO_END;
use rtdi_common::{AggFn, FieldType, Record, Result, Row, Schema, SimClock};
use rtdi_core::platform::RealtimePlatform;
use rtdi_multiregion::activeactive::{redundant_compute_round, ActiveActiveCoordinator};
use rtdi_multiregion::kv::ReplicatedKv;
use rtdi_multiregion::topology::MultiRegionTopology;
use rtdi_olap::query::Query;
use rtdi_olap::table::TableConfig;
use rtdi_stream::topic::TopicConfig;
use rtdi_usecases::eatsops::{AutomationRule, OpsAutomation, RuleAction};
use rtdi_usecases::prediction::PredictionMonitoring;
use rtdi_usecases::restaurant::{ingest_raw, RestaurantManager};
use rtdi_usecases::surge::{LinearSurgeModel, SurgeModel, SurgePipeline};
use rtdi_usecases::workloads::TripEventGenerator;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use usage::{Component, UsageTracker};

pub fn claims(r: &mut Report) -> Result<()> {
    e15_surge(r)?;
    e15_active_active(r)?;
    e16_restaurant_manager(r)?;
    e17_prediction_monitoring(r)?;
    e18_ops_automation(r)?;
    e19_table1(r)?;
    Ok(())
}

fn surge_pipeline() -> SurgePipeline {
    SurgePipeline::new(2_000, Arc::new(LinearSurgeModel::default()))
}

fn marketplace_schema(name: &str) -> Schema {
    let fields = [
        ("hex", FieldType::Str),
        ("kind", FieldType::Str),
        ("ts", FieldType::Timestamp),
    ];
    Schema::of(name, &fields)
}

fn e15_surge(r: &mut Report) -> Result<()> {
    // one minute of marketplace events at 1k/s, 5% of them up to 5 s late
    let pipeline = surge_pipeline();
    let mut generator = TripEventGenerator::new(5, 128).with_lateness(0.05, 5_000);
    let events = generator.marketplace_batch(0, 60_000, 1_000);
    let offered = events.len();
    let prices = ReplicatedKv::new();
    let job = pipeline.job_from_records("surge", events, prices.clone(), "region");
    let stats = r.timed(
        "E15",
        format!("surge pipeline over {offered} events"),
        || pipeline.run(job),
    )?;
    let dropped: u64 = stats.stages.iter().map(|s| s.late_dropped).sum();
    r.claim(
        "E15.late_events",
        "§5.1",
        "surge favours freshness over completeness: late-arriving messages are dropped",
        dropped as f64,
        "of 60000 events (5% sent up to 5 s late) dropped behind the 500 ms watermark",
        dropped > 0 && (dropped as usize) < offered / 10 && !prices.is_empty(),
    );

    // the same events through the platform on a logical clock: produced
    // over two seconds, ingested a second later, then queried
    let clock = Arc::new(SimClock::new(1_000_000));
    let platform = RealtimePlatform::with_clock(clock.clone());
    let schema = marketplace_schema("surge");
    platform.create_topic(
        "surge",
        TopicConfig::default().with_partitions(4),
        schema.clone(),
    )?;
    let producer = platform.producer("surge-claims");
    let mut generator = TripEventGenerator::new(11, 128);
    for t in 0..2_000 {
        clock.advance(1);
        producer.send("surge", generator.marketplace_event(t))?;
    }
    clock.advance(1_000);
    let config = TableConfig::new("surge", schema)
        .with_time_column("ts")
        .with_partitions(4);
    let table = platform.create_olap_table(config)?;
    platform.ingest_into("surge", table)?.run_once()?;
    platform.sql("SELECT COUNT(*) AS n FROM surge")?;
    let health = platform.health();
    let end_to_end = present(health.report.stage("surge", END_TO_END), "end-to-end stage")?;
    r.claim(
        "E15.freshness",
        "§5.1, Fig 6",
        "the pipeline meets a seconds-level end-to-end latency SLA",
        end_to_end.p99_ms as f64,
        "logical ms p99 produce-to-queryable over 2000 traced events (SLA 5000, every hop within it)",
        end_to_end.count == 2_000
            && end_to_end.max_ms >= 1_000
            && pipeline.meets_freshness_sla(&health.report, "surge", 5_000),
    );
    let (lost, duplicated) = health
        .audits
        .iter()
        .fold((0, 0), |(l, d), a| (l + a.lost, d + a.duplicated));
    r.claim(
        "E15.audit",
        "§4.1.4, §5.1",
        "with no loss between the broker and the serving store",
        (lost + duplicated) as f64,
        "records lost or duplicated across the audited hops",
        !health.audits.is_empty() && lost + duplicated == 0,
    );
    Ok(())
}

fn e15_active_active(r: &mut Report) -> Result<()> {
    let config = TopicConfig::high_throughput().with_partitions(4);
    let topo = MultiRegionTopology::new(&["west", "east"], "marketplace", config)?;
    let model = LinearSurgeModel::default();
    let price = move |rows: &[Row]| -> BTreeMap<String, Row> {
        let mut counts: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for row in rows {
            let Some(hex) = row.get_str("hex") else {
                continue;
            };
            let (demand, supply) = counts.entry(hex.to_string()).or_default();
            match row.get_str("kind") {
                Some("demand") => *demand += 1.0,
                Some("supply") => *supply += 1.0,
                _ => {}
            }
        }
        let priced = |(hex, (d, s))| (hex, Row::new().with("multiplier", model.multiplier(d, s)));
        counts.into_iter().map(priced).collect()
    };
    let (mut west, mut east) = (
        TripEventGenerator::new(6, 64),
        TripEventGenerator::new(7, 64),
    );
    for t in 0..2_000 {
        topo.produce("west", west.marketplace_event(t), t)?;
        topo.produce("east", east.marketplace_event(t), t)?;
    }
    topo.replicate(10_000);
    let coordinator = ActiveActiveCoordinator::new("west");
    let prices = ReplicatedKv::new();
    let states = redundant_compute_round(&topo, &coordinator, &prices, 10_000, &price)?;
    let converged = states.get("west") == states.get("east");
    r.claim(
        "E15.active_active",
        "§6, Fig 6",
        "both regions compute the same pricing state from the aggregate clusters",
        states.get("west").map_or(0, BTreeMap::len) as f64,
        "hexes priced identically by west and east",
        converged && states.len() == 2 && !prices.is_empty(),
    );
    let covered = prices.len();
    topo.region("west")?.set_down(true);
    r.timed(
        "E15",
        "recompute pricing after the primary region dies",
        || redundant_compute_round(&topo, &coordinator, &prices, 11_000, &price),
    )?;
    r.claim(
        "E15.failover",
        "§6",
        "and the update service fails over with pricing coverage intact",
        prices.len() as f64,
        "hexes still priced after the primary region died and east took over",
        coordinator.primary() == "east" && prices.len() >= covered,
    );
    Ok(())
}

fn e16_restaurant_manager(r: &mut Report) -> Result<()> {
    const ORDERS: usize = 40_000;
    const WINDOW_MS: i64 = 60_000;
    let mut generator = TripEventGenerator::new(77, 64);
    let orders: Vec<Record> = (0..ORDERS)
        .map(|i| generator.eats_order((i as i64) * 50))
        .collect();
    let manager = RestaurantManager::new(WINDOW_MS)?;
    let rolled = r.timed("E16", format!("pre-aggregate {ORDERS} orders"), || {
        manager.ingest_orders(orders.clone())
    })?;
    manager.stats_table.seal_all()?;
    let raw = RestaurantManager::raw_table()?;
    ingest_raw(&raw, &orders)?;
    raw.seal_all()?;

    let restaurant = "rest-0005";
    let page = r.timed("E16", "dashboard page, pre-aggregated", || {
        manager.load_dashboard(restaurant)
    })?;
    let scanned: u64 = page.iter().map(|result| result.ledger.docs_scanned).sum();
    let queries = RestaurantManager::raw_dashboard_queries(restaurant, WINDOW_MS);
    let raw_scanned = r.timed("E16", "dashboard page, from raw events", || {
        let scan = |q| raw.query(q).map(|result| result.ledger.docs_scanned);
        queries.iter().map(scan).sum::<Result<u64>>()
    })?;
    r.claim(
        "E16.docs_scanned",
        "§5.2",
        "preprocessing in Flink reduces the data the serving layer has to process",
        raw_scanned as f64 / scanned.max(1) as f64,
        "x the documents scanned per dashboard page when served from raw order events",
        raw_scanned >= 10 * scanned && scanned > 0 && rolled < ORDERS as u64,
    );
    Ok(())
}

fn e17_prediction_monitoring(r: &mut Report) -> Result<()> {
    const EVENTS: usize = 10_000;
    // (cube rows, allocations per event, models the cube misses) at each
    // model cardinality
    let mut points = Vec::new();
    for models in [10, 100, 1_000] {
        let monitoring = PredictionMonitoring::new(60_000, 10_000)?;
        let mut generator = TripEventGenerator::new(models as u64, 8);
        let pairs = (0..EVENTS).map(|i| generator.prediction_pair((i as i64) * 5, models, 500));
        let (predictions, outcomes): (Vec<Record>, Vec<Record>) = pairs.unzip();
        let drawn: BTreeSet<String> = predictions
            .iter()
            .filter_map(|p| p.value.get_str("model").map(str::to_string))
            .collect();
        let label = format!("join + aggregate {EVENTS} prediction pairs, {models} models");
        let (stats, allocs) = r.timed("E17", label, || {
            count_allocations(|| monitoring.run(predictions, outcomes))
        });
        let per_event = allocs.allocs as f64 / stats?.records_in as f64;
        let health = Query::select_all("model_accuracy")
            .aggregate("models", AggFn::DistinctCount("model".into()));
        let seen = r.timed("E17", format!("cube health query, {models} models"), || {
            monitoring.cube.query(&health)
        })?;
        let missing = drawn.len() as i64 - seen.rows[0].get_int("models").unwrap_or(0);
        points.push((monitoring.cube.doc_count(), per_event, missing));
    }
    let [(few, few_allocs, _), (some, _, _), (many, many_allocs, _)] = points[..] else {
        return Err(rtdi_common::Error::Internal(
            "three cardinalities ran".into(),
        ));
    };
    r.claim(
        "E17.cube",
        "§5.3",
        "monitoring covers a high cardinality of models as time series in Pinot",
        many as f64,
        "accuracy-cube rows at 1000 models (up from 10 and 100 models), no model missing",
        few < some && some < many && points.iter().all(|p| p.2 == 0),
    );
    // stage threads interleave, so the exact counts move from run to run
    let drift = many_allocs / few_allocs;
    r.claim(
        "E17.per_event_cost",
        "§5.3",
        "and the join and aggregation scale with volume, not with cardinality",
        f64::from((0.9..=1.1).contains(&drift)),
        "(1 = allocations per event at 1000 models within 10% of those at 10 models)",
        (0.9..=1.1).contains(&drift),
    );
    Ok(())
}

fn courier_schema() -> Schema {
    let fields = [
        ("hex", FieldType::Str),
        ("restaurant", FieldType::Str),
        ("items", FieldType::Int),
        ("ts", FieldType::Timestamp),
    ];
    Schema::of("courier_activity", &fields)
}

/// Courier activity flowing into a Pinot table, as §5.4 has it.
fn ingest_courier_activity(
    platform: &RealtimePlatform,
    generator: &mut TripEventGenerator,
    events: usize,
) -> Result<()> {
    let schema = courier_schema();
    let config = TopicConfig::default().with_partitions(2);
    platform.create_topic("courier_activity", config, schema.clone())?;
    let config = TableConfig::new("courier_activity", schema)
        .with_time_column("ts")
        .with_partitions(2);
    let table = platform.create_olap_table(config)?;
    let producer = platform.producer("eats");
    for i in 0..events {
        let order = generator.eats_order((i as i64) * 50);
        let mut record = Record::new(order.value.clone(), order.timestamp);
        record.key = order.key.clone();
        producer.send("courier_activity", record)?;
    }
    platform
        .ingest_into("courier_activity", table)?
        .run_once()?;
    Ok(())
}

fn capacity_rule(threshold: f64) -> AutomationRule {
    AutomationRule {
        name: "capacity".into(),
        sql: "SELECT hex, COUNT(*) AS couriers FROM courier_activity GROUP BY hex".into(),
        metric_column: "couriers".into(),
        threshold,
        action: RuleAction::ThrottleOrders,
    }
}

fn e18_ops_automation(r: &mut Report) -> Result<()> {
    let platform = RealtimePlatform::new();
    ingest_courier_activity(&platform, &mut TripEventGenerator::new(31, 64), 5_000)?;
    // ad-hoc exploration finds the hot areas ...
    let explored = platform.sql(
        "SELECT hex, COUNT(*) AS couriers FROM courier_activity \
         GROUP BY hex ORDER BY couriers DESC LIMIT 5",
    )?;
    let hottest = present(explored.rows.first(), "explored row")?.get_double("couriers");
    let threshold = present(hottest, "courier count")? * 0.6;
    let over = |rows: &[Row]| -> BTreeSet<String> {
        let hot = rows
            .iter()
            .filter(|row| row.get_double("couriers") > Some(threshold));
        hot.filter_map(|row| row.get_str("hex").map(str::to_string))
            .collect()
    };
    let by_hand = over(&platform.sql(&capacity_rule(threshold).sql)?.rows);
    // ... and the same query, promoted, is the production rule
    let validate = |sql: &str| platform.sql(sql).map(|_| ());
    let mut ops = OpsAutomation::new();
    ops.promote_with(validate, capacity_rule(threshold))?;
    let alerts = ops.evaluate_with(|sql| platform.sql(sql).map(|out| out.rows))?;
    let alerted = over(&alerts.iter().map(|a| a.subject.clone()).collect::<Vec<_>>());
    let broken = AutomationRule {
        sql: "SELECT hex FROM no_such_table".into(),
        ..capacity_rule(threshold)
    };
    let rejected = ops.promote_with(validate, broken).is_err();
    r.claim(
        "E18.promotion",
        "§5.4",
        "an ad-hoc exploration query is promoted to a production rule as it is",
        alerted.len() as f64,
        "hexes alerted by the promoted rule, the set the ad-hoc query put over the threshold",
        !alerted.is_empty() && alerted == by_hand && alerts.len() == alerted.len() && rejected,
    );
    Ok(())
}

/// Run the four §5 use cases, scaled down, against `platform`, declaring
/// beside each step the components it is built on: what
/// `examples/table1.rs` prints and E19 checks.
pub fn run_table1_use_cases(platform: &RealtimePlatform) -> Result<UsageTracker> {
    let mut usage = UsageTracker::new();
    let mut generator = TripEventGenerator::new(99, 32);

    usage.begin_use_case("Surge");
    let config = TopicConfig::high_throughput().with_partitions(2);
    platform.create_topic("marketplace", config, marketplace_schema("marketplace"))?;
    let producer = platform.producer("marketplace");
    usage.note(Component::Stream); // the topic and its producer
    for t in 0..2_000 {
        producer.send("marketplace", generator.marketplace_event(t * 10))?;
    }
    // advanced users build the surge job on the low-level API, not SQL
    let surge = SurgePipeline::new(10_000, Arc::new(LinearSurgeModel::default()));
    let topic = platform.federation().subscribe("marketplace")?.topic();
    let job = surge.job("surge", topic, ReplicatedKv::new(), "region-1")?;
    usage.note(Component::Api);
    usage.note(Component::Compute);
    surge.run(job)?;

    usage.begin_use_case("Restaurant Manager");
    let manager = RestaurantManager::new(60_000)?;
    let orders = (0..5_000)
        .map(|i| generator.eats_order((i as i64) * 100))
        .collect();
    usage.note(Component::Compute);
    usage.note(Component::Stream);
    usage.note(Component::Storage); // segments archived long-term
    manager.ingest_orders(orders)?;
    usage.note(Component::Sql);
    usage.note(Component::Olap);
    manager.load_dashboard("rest-0001")?;

    usage.begin_use_case("Real-time Prediction Monitoring");
    let monitoring = PredictionMonitoring::new(60_000, 10_000)?;
    let pairs = (0..2_000).map(|i| generator.prediction_pair((i as i64) * 20, 100, 1_000));
    let (predictions, outcomes) = pairs.unzip();
    usage.note(Component::Api); // the pipeline is built on the low-level API
    usage.note(Component::Compute);
    usage.note(Component::Stream);
    usage.note(Component::Storage); // checkpoints and archives
    monitoring.run(predictions, outcomes)?;
    usage.note(Component::Sql);
    usage.note(Component::Olap);
    monitoring.degraded_models(0.5)?;

    usage.begin_use_case("Eats Ops Automation");
    ingest_courier_activity(platform, &mut generator, 3_000)?;
    usage.note(Component::Stream); // the topic, its producer and ingester
    usage.note(Component::Olap);
    usage.note(Component::Compute); // the ingestion pipeline
    let mut ops = OpsAutomation::new();
    ops.promote_with(|sql| platform.sql(sql).map(|_| ()), capacity_rule(50.0))?;
    ops.evaluate_with(|sql| platform.sql(sql).map(|out| out.rows))?;
    usage.note(Component::Sql);
    usage.note(Component::Olap);
    Ok(usage)
}

fn e19_table1(r: &mut Report) -> Result<()> {
    use Component::{Api, Compute, Olap, Sql, Storage, Stream};
    let paper: [(&str, &[Component]); 4] = [
        ("Surge", &[Api, Compute, Stream]),
        ("Restaurant Manager", &[Sql, Olap, Compute, Stream, Storage]),
        (
            "Real-time Prediction Monitoring",
            &[Api, Sql, Olap, Compute, Stream, Storage],
        ),
        ("Eats Ops Automation", &[Sql, Olap, Compute, Stream]),
    ];
    let platform = RealtimePlatform::new();
    let usage = r.timed("E19", "the four use cases behind Table 1", || {
        run_table1_use_cases(&platform)
    })?;
    let mut differing = 0;
    for (use_case, components) in paper {
        for component in Component::all() {
            let expected = components.contains(&component);
            differing += usize::from(usage.uses(use_case, component) != expected);
        }
    }
    r.claim(
        "E19.table1",
        "Table 1",
        "the components used by the example use cases",
        differing as f64,
        "of 24 cells (4 use cases x 6 components) differing from the paper's Table 1",
        differing == 0,
    );
    Ok(())
}
