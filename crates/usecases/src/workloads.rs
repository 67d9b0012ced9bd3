//! Seeded synthetic workload generators.
//!
//! Substitutes for the production traces the paper's pipelines consume
//! (trips, marketplace events, eats orders, ML predictions). All
//! generators are deterministic given a seed, skewed like real traffic
//! (hot geofences, hot restaurants) and can inject late arrivals — the
//! property the surge pipeline must tolerate (§5.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi_common::{row_names, Record, Row, RowNames, Text, Timestamp, Value};
use std::sync::Arc;

/// A seeded Zipfian sampler over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`. `s ~ 1` matches the
/// skew of real keyed traffic (hot cities, hot restaurants); larger `s`
/// concentrates more mass on the head — the hot-key storm the salted
/// pre-aggregation path is built for.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Normalized cumulative distribution over ranks; `cdf[k]` is
    /// `P(rank <= k)`, with `cdf[n-1] == 1.0`.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n` (rank 0 is the hottest key).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Keyed trip generator for the parallel-compute experiments: trips
/// keyed by city (Zipf over `cities`) with a per-trip driver id (Zipf
/// over `drivers`). Fares are dyadic rationals (multiples of 0.25) so
/// floating-point sums are exact regardless of fold order — parallel /
/// salted aggregation can then be checked for *byte-identical* output
/// against the serial plan, not just approximate equality.
pub struct CityDriverGenerator {
    rng: StdRng,
    cities: Zipf,
    drivers: Zipf,
    /// Each rank's name, built once: a trip copies its city and driver.
    city_names: Vec<Text>,
    driver_names: Vec<Text>,
    /// One name list for every trip.
    names: RowNames,
}

impl CityDriverGenerator {
    pub fn new(seed: u64, cities: usize, drivers: usize, skew: f64) -> Self {
        CityDriverGenerator {
            rng: StdRng::seed_from_u64(seed),
            cities: Zipf::new(cities, skew),
            drivers: Zipf::new(drivers, 1.0),
            city_names: (0..cities.max(1))
                .map(|k| format!("city-{k:03}").into())
                .collect(),
            driver_names: (0..drivers.max(1))
                .map(|k| format!("drv-{k:05}").into())
                .collect(),
            names: row_names(["city", "driver", "fare", "ts"]),
        }
    }

    pub fn trip(&mut self, ts: Timestamp) -> Record {
        let city = self.city_names[self.cities.sample(&mut self.rng)].clone();
        let driver = self.driver_names[self.drivers.sample(&mut self.rng)].clone();
        // quarter-dollar fares: exactly representable, order-independent sums
        let fare = self.rng.gen_range(4..200) as f64 * 0.25;
        let cells = vec![
            Value::Str(city.clone()),
            Value::Str(driver),
            Value::Double(fare),
            Value::Int(ts),
        ];
        Record::new(Row::on(Arc::clone(&self.names), cells), ts).with_key(city)
    }

    pub fn trips(&mut self, n: usize, interval_ms: i64) -> Vec<Record> {
        (0..n).map(|i| self.trip(i as i64 * interval_ms)).collect()
    }
}

/// Map a (lat, lon) position onto a hexagon-ish geofence id. A square
/// grid stands in for H3 hexagons: what matters to the pipeline is a
/// deterministic position -> cell mapping with controllable granularity.
pub fn hex_for(lat: f64, lon: f64, cell_deg: f64) -> String {
    let r = (lat / cell_deg).floor() as i64;
    let c = (lon / cell_deg).floor() as i64;
    format!("hex_{r}_{c}")
}

/// Marketplace event generator: demand (ride requests) and supply
/// (driver availability) events over a grid of geofences.
pub struct TripEventGenerator {
    rng: StdRng,
    /// Number of distinct geofences.
    pub cells: usize,
    /// Probability an event is late by up to `max_lateness_ms`.
    pub late_probability: f64,
    pub max_lateness_ms: i64,
    /// Demand:supply ratio skew per cell (hot cells get more demand).
    hot_cells: usize,
    /// Zipfian order distribution over restaurants (hot restaurants
    /// draw most orders).
    restaurants: Zipf,
    /// One name list per event shape: marketplace, eats order,
    /// prediction, outcome.
    names: [RowNames; 4],
}

impl TripEventGenerator {
    pub fn new(seed: u64, cells: usize) -> Self {
        TripEventGenerator {
            rng: StdRng::seed_from_u64(seed),
            cells: cells.max(1),
            late_probability: 0.0,
            max_lateness_ms: 0,
            hot_cells: (cells / 8).max(1),
            restaurants: Zipf::new(500, 1.05),
            names: [
                &["hex", "kind", "rider", "ts"][..],
                &[
                    "restaurant",
                    "item",
                    "items",
                    "total",
                    "rating",
                    "hex",
                    "ts",
                ],
                &["case_id", "model", "feature", "predicted", "ts"],
                &["case_id", "model", "actual", "ts"],
            ]
            .map(|cols| row_names(cols.iter().copied())),
        }
    }

    pub fn with_lateness(mut self, probability: f64, max_ms: i64) -> Self {
        self.late_probability = probability.clamp(0.0, 1.0);
        self.max_lateness_ms = max_ms.max(0);
        self
    }

    fn cell(&mut self) -> String {
        // 50% of traffic concentrates on the hot cells
        let c = if self.rng.gen_bool(0.5) {
            self.rng.gen_range(0..self.hot_cells)
        } else {
            self.rng.gen_range(0..self.cells)
        };
        format!("hex_{}_{}", c / 16, c % 16)
    }

    /// One marketplace event at (approximately) event time `ts`.
    pub fn marketplace_event(&mut self, ts: Timestamp) -> Record {
        let late = self.rng.gen_bool(self.late_probability);
        let event_ts = if late {
            ts - self.rng.gen_range(1..=self.max_lateness_ms.max(1))
        } else {
            ts
        };
        let hex = Text::from(self.cell());
        let kind = if self.rng.gen_bool(0.6) {
            "demand"
        } else {
            "supply"
        };
        let cells = vec![
            Value::Str(hex.clone()),
            kind.into(),
            format!("u{}", self.rng.gen_range(0..10_000)).into(),
            Value::Int(event_ts),
        ];
        Record::new(Row::on(Arc::clone(&self.names[0]), cells), event_ts).with_key(hex)
    }

    /// A batch of events covering `[start, start + duration_ms)` at a
    /// fixed rate.
    pub fn marketplace_batch(
        &mut self,
        start: Timestamp,
        duration_ms: i64,
        events_per_sec: usize,
    ) -> Vec<Record> {
        let total = (duration_ms as usize * events_per_sec) / 1000;
        (0..total)
            .map(|i| {
                let ts = start + (i as i64 * duration_ms) / total.max(1) as i64;
                self.marketplace_event(ts)
            })
            .collect()
    }

    /// UberEats order events for the restaurant-manager and ops use cases.
    pub fn eats_order(&mut self, ts: Timestamp) -> Record {
        // hot restaurants get most orders (seeded Zipfian over 500)
        let restaurant = Text::from(format!(
            "rest-{:04}",
            self.restaurants.sample(&mut self.rng)
        ));
        let items = self.rng.gen_range(1..=8i64);
        let total = items as f64 * self.rng.gen_range(6.0..25.0);
        let rating = self.rng.gen_range(1..=5i64);
        let cells = vec![
            Value::Str(restaurant.clone()),
            format!("item-{}", self.rng.gen_range(0..50)).into(),
            Value::Int(items),
            Value::Double((total * 100.0).round() / 100.0),
            Value::Int(rating),
            self.cell().into(),
            Value::Int(ts),
        ];
        Record::new(Row::on(Arc::clone(&self.names[1]), cells), ts).with_key(restaurant)
    }

    /// Prediction + delayed outcome pair for model monitoring (§5.3).
    /// Returns `(prediction, outcome)` where the outcome arrives
    /// `outcome_delay_ms` later.
    pub fn prediction_pair(
        &mut self,
        ts: Timestamp,
        models: usize,
        outcome_delay_ms: i64,
    ) -> (Record, Record) {
        let model = Text::from(format!("model-{:04}", self.rng.gen_range(0..models.max(1))));
        let feature = Text::from(format!("f{}", self.rng.gen_range(0..100)));
        let case = Text::from(format!("case-{}-{}", ts, self.rng.gen_range(0..1_000_000)));
        let predicted = self.rng.gen_range(0.0..1.0);
        let noise: f64 = self.rng.gen_range(-0.1..0.1);
        let actual = (predicted + noise).clamp(0.0, 1.0);
        let cells = vec![
            Value::Str(case.clone()),
            Value::Str(model.clone()),
            Value::Str(feature),
            Value::Double(predicted),
            Value::Int(ts),
        ];
        let pred =
            Record::new(Row::on(Arc::clone(&self.names[2]), cells), ts).with_key(case.clone());
        let at = ts + outcome_delay_ms;
        let cells = vec![
            Value::Str(case.clone()),
            Value::Str(model),
            Value::Double(actual),
            Value::Int(at),
        ];
        let outcome = Record::new(Row::on(Arc::clone(&self.names[3]), cells), at).with_key(case);
        (pred, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = TripEventGenerator::new(42, 64);
        let mut b = TripEventGenerator::new(42, 64);
        for i in 0..50 {
            assert_eq!(a.marketplace_event(i).value, b.marketplace_event(i).value);
        }
        let mut c = TripEventGenerator::new(43, 64);
        let differs = (0..50).any(|i| {
            TripEventGenerator::new(42, 64).marketplace_event(i).value
                != c.marketplace_event(i).value
        });
        assert!(differs);
    }

    #[test]
    fn hex_mapping_is_stable_grid() {
        assert_eq!(
            hex_for(37.77, -122.41, 0.01),
            hex_for(37.7701, -122.4099, 0.01)
        );
        assert_ne!(hex_for(37.77, -122.41, 0.01), hex_for(37.80, -122.41, 0.01));
    }

    #[test]
    fn traffic_is_skewed_to_hot_cells() {
        let mut g = TripEventGenerator::new(7, 128);
        let mut counts = std::collections::HashMap::new();
        for i in 0..10_000 {
            let e = g.marketplace_event(i);
            *counts
                .entry(e.value.get_str("hex").unwrap().to_string())
                .or_insert(0usize) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top_share: usize = freqs.iter().take(16).sum();
        assert!(
            top_share * 100 / 10_000 > 40,
            "hot cells should draw a large share, got {}%",
            top_share * 100 / 10_000
        );
    }

    #[test]
    fn lateness_injection_respects_bounds() {
        let mut g = TripEventGenerator::new(1, 16).with_lateness(1.0, 5_000);
        for i in 0..100 {
            let ts = 1_000_000 + i;
            let e = g.marketplace_event(ts);
            assert!(e.timestamp < ts && e.timestamp >= ts - 5_000);
        }
        let mut g = TripEventGenerator::new(1, 16); // no lateness
        for i in 0..100 {
            assert_eq!(g.marketplace_event(i).timestamp, i);
        }
    }

    #[test]
    fn batch_spans_requested_window() {
        let mut g = TripEventGenerator::new(5, 32);
        let batch = g.marketplace_batch(10_000, 2_000, 500);
        assert_eq!(batch.len(), 1000);
        assert!(batch.first().unwrap().timestamp >= 10_000);
        assert!(batch.last().unwrap().timestamp < 12_000);
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let z = Zipf::new(100, 1.2);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let sa: Vec<usize> = (0..200).map(|_| z.sample(&mut a)).collect();
        let sb: Vec<usize> = (0..200).map(|_| z.sample(&mut b)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().all(|&r| r < 100));

        // rank-0 share grows with the skew parameter
        let share = |s: f64| {
            let z = Zipf::new(100, s);
            let mut rng = StdRng::seed_from_u64(3);
            (0..20_000).filter(|_| z.sample(&mut rng) == 0).count()
        };
        let (mild, hot) = (share(0.8), share(1.5));
        assert!(
            hot > mild && hot > 20_000 / 5,
            "s=1.5 rank-0 share {hot} should beat s=0.8 share {mild}"
        );
    }

    #[test]
    fn eats_orders_remain_zipf_skewed() {
        let mut g = TripEventGenerator::new(13, 32);
        let mut counts = std::collections::HashMap::new();
        for i in 0..10_000 {
            let o = g.eats_order(i);
            *counts
                .entry(o.value.get_str("restaurant").unwrap().to_string())
                .or_insert(0usize) += 1;
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top_share: usize = freqs.iter().take(20).sum();
        assert!(
            top_share * 100 / 10_000 > 35,
            "top-20 restaurants should draw a large share, got {}%",
            top_share * 100 / 10_000
        );
        // the low ranks the dashboards query are all present
        for target in ["rest-0001", "rest-0003", "rest-0005"] {
            assert!(counts.contains_key(target), "{target} never generated");
        }
    }

    #[test]
    fn city_driver_trips_are_deterministic_with_dyadic_fares() {
        let mut a = CityDriverGenerator::new(21, 16, 1000, 1.1);
        let mut b = CityDriverGenerator::new(21, 16, 1000, 1.1);
        let ta = a.trips(500, 10);
        let tb = b.trips(500, 10);
        assert_eq!(ta.len(), 500);
        for (x, y) in ta.iter().zip(&tb) {
            assert_eq!(x.value, y.value);
            let fare = x.value.get_double("fare").unwrap();
            assert_eq!(fare, (fare * 4.0).round() / 4.0, "fare must be dyadic");
            assert!(x.key.is_some());
        }
    }

    #[test]
    fn prediction_pairs_share_case_and_model() {
        let mut g = TripEventGenerator::new(9, 8);
        let (p, o) = g.prediction_pair(1000, 50, 2_000);
        assert_eq!(p.value.get_str("case_id"), o.value.get_str("case_id"));
        assert_eq!(p.value.get_str("model"), o.value.get_str("model"));
        assert_eq!(o.timestamp, p.timestamp + 2_000);
        let predicted = p.value.get_double("predicted").unwrap();
        let actual = o.value.get_double("actual").unwrap();
        assert!((predicted - actual).abs() <= 0.1 + 1e-9);
    }
}
