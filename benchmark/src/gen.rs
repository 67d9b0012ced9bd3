//! Seeded inputs and the table shapes every workload shares.
//!
//! Records come from the system's own `CityDriverGenerator` (512 cities
//! Zipf s = 1.0, 4 000 drivers, dyadic fares so f64 sums are exact in any
//! fold order). The benchmark re-keys each record by a unique trip id and
//! stamps event time `ts = i / 20` ms: with city keys the FlinkSQL job
//! drops most records as late (see README.md, "Key-skew hazard"), and a
//! benchmark must run on inputs where no operation fails.

use crate::api::{CityDriverGenerator, FieldType, Record, Schema, TableConfig, TopicConfig};

pub const CITIES: usize = 512;
pub const DRIVERS: usize = 4_000;
pub const SKEW: f64 = 1.0;
/// Records per event-time millisecond.
pub const RECORDS_PER_MS: usize = 20;
/// Partitions of every topic and table.
pub const PARTITIONS: usize = 4;
/// Tumbling window of the FlinkSQL job, in event-ms.
pub const WINDOW_MS: i64 = 1_000;

pub const TOPIC: &str = "trips";

/// The windowed pre-aggregation of Fig. 3, used streaming
/// (`deploy_sql_pipeline`) and batch (`backfill_sql`).
pub const TUMBLE_SQL: &str = "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips, \
     SUM(fare) AS revenue FROM trips GROUP BY city, TUMBLE(ts, 1000)";

/// One generated trip, in the plain form the oracle recomputes from.
#[derive(Debug, Clone, PartialEq)]
pub struct Trip {
    pub city: String,
    pub driver: String,
    pub fare: f64,
    pub ts: i64,
}

/// Seed of the record stream of round `round`: apart for every round of
/// every `--seed`, so two seeds share no round's inputs.
pub fn round_seed(seed: u64, round: u32) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(u64::from(round))
}

pub fn event_ts(i: usize) -> i64 {
    (i / RECORDS_PER_MS) as i64
}

/// `n` records of the stream seeded `seed`, keyed `trip-<i>`, with their
/// plain twins for the oracle.
pub fn trips(seed: u64, n: usize) -> (Vec<Record>, Vec<Trip>) {
    let mut gen = CityDriverGenerator::new(seed, CITIES, DRIVERS, SKEW);
    let mut records = Vec::with_capacity(n);
    let mut plain = Vec::with_capacity(n);
    for i in 0..n {
        let rec = gen.trip(event_ts(i));
        let row = &rec.value;
        plain.push(Trip {
            city: row.get_str("city").expect("generated").to_string(),
            driver: row.get_str("driver").expect("generated").to_string(),
            fare: row.get_double("fare").expect("generated"),
            ts: rec.timestamp,
        });
        records.push(rec.with_key(format!("trip-{i}")));
    }
    (records, plain)
}

/// The same records keyed by city: the input of the key-skew probe only.
pub fn keyed_by_city(records: Vec<Record>) -> Vec<Record> {
    records
        .into_iter()
        .map(|r| {
            let city = r.value.get_str("city").expect("generated").to_string();
            r.with_key(city)
        })
        .collect()
}

pub fn city_name(rank: usize) -> String {
    format!("city-{rank:03}")
}

pub fn driver_name(rank: usize) -> String {
    format!("drv-{rank:05}")
}

pub fn trips_schema() -> Schema {
    Schema::of(
        TOPIC,
        &[
            ("city", FieldType::Str),
            ("driver", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    )
}

pub fn trip_stats_schema() -> Schema {
    Schema::of(
        "trip_stats",
        &[
            ("city", FieldType::Str),
            ("w", FieldType::Timestamp),
            ("trips", FieldType::Int),
            ("revenue", FieldType::Double),
            ("ingest_ts", FieldType::Timestamp),
        ],
    )
}

pub fn topic_config() -> TopicConfig {
    TopicConfig::default().with_partitions(PARTITIONS)
}

pub fn trips_table(name: &str, segment_rows: usize) -> TableConfig {
    TableConfig::new(name, trips_schema())
        .with_time_column("ts")
        .with_partitions(PARTITIONS)
        .with_segment_rows(segment_rows)
        .with_query_threads(1)
}

pub fn trip_stats_table() -> TableConfig {
    TableConfig::new("trip_stats", trip_stats_schema())
        .with_time_column("ingest_ts")
        .with_partitions(PARTITIONS)
}

/// SplitMix64: the benchmark's own parameter draws (query cities, time
/// windows), independent of the record stream's generator.
pub struct Draw(u64);

impl Draw {
    pub fn new(seed: u64) -> Self {
        Draw(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(seed: u64, n: usize) -> Vec<u8> {
        format!("{:?}", trips(seed, n).0).into_bytes()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        assert_eq!(bytes_of(7, 500), bytes_of(7, 500));
        assert_ne!(bytes_of(7, 500), bytes_of(8, 500));
    }

    #[test]
    fn records_are_trip_keyed_with_twenty_per_event_ms() {
        let (records, plain) = trips(3, 100);
        assert_eq!(records.len(), 100);
        for (i, (r, t)) in records.iter().zip(&plain).enumerate() {
            assert_eq!(r.timestamp, (i / 20) as i64);
            assert_eq!(r.value.get_int("ts"), Some(r.timestamp));
            assert_eq!(format!("{:?}", r.key), format!("Some(Str(\"trip-{i}\"))"));
            assert_eq!(r.value.get_str("city"), Some(t.city.as_str()));
            assert_eq!(t.fare, (t.fare * 4.0).round() / 4.0, "fares are dyadic");
        }
        let by_city = keyed_by_city(trips(3, 100).0);
        assert_eq!(by_city[5].value, records[5].value);
        assert_ne!(by_city[5].key, records[5].key);
    }

    #[test]
    fn draws_repeat() {
        let (mut a, mut b) = (Draw::new(9), Draw::new(9));
        assert!((0..50).all(|_| a.next_u64() == b.next_u64()));
        assert!(Draw::new(1).below(10) < 10);
    }
}
