//! Allocation pin for the batch read path: the `archive_backfill`
//! workload's Hive query, over the 50 000 rows it archives, must stay a
//! columnar fold. Materializing the scan as `Row`s cost 560 574
//! allocations per query (11.2 per row); a fold allocates per part file,
//! per touched column and per group. This file is its own test binary, so
//! the process-wide counter sees this test alone.

use rtdi_bench::{assert_allocs_at_most, count_allocations};
use rtdi_common::{FieldType, Schema};
use rtdi_core::platform::RealtimePlatform;
use rtdi_stream::topic::TopicConfig;
use rtdi_usecases::workloads::CityDriverGenerator;

const ROWS: usize = 50_000;
const HIVE_SQL: &str =
    "SELECT city, COUNT(*) AS n FROM hive.trips GROUP BY city ORDER BY n DESC LIMIT 5";

#[test]
fn hive_group_by_over_50k_rows_allocates_per_column_not_per_row() {
    let schema = Schema::of(
        "trips",
        &[
            ("city", FieldType::Str),
            ("driver", FieldType::Str),
            ("fare", FieldType::Double),
            ("ts", FieldType::Timestamp),
        ],
    );
    let platform = RealtimePlatform::new();
    platform
        .create_topic(
            "trips",
            TopicConfig::default().with_partitions(4),
            schema.clone(),
        )
        .unwrap();
    let producer = platform.producer("pin");
    let mut gen = CityDriverGenerator::new(17, 512, 4_000, 1.0);
    for i in 0..ROWS {
        let trip = gen.trip((i / 20) as i64).with_key(format!("trip-{i}"));
        producer.send("trips", trip).unwrap();
    }
    assert_eq!(platform.archive_topic("trips", &schema).unwrap(), ROWS);

    let (out, stats) = count_allocations(|| platform.sql(HIVE_SQL).unwrap());
    assert_eq!(out.rows.len(), 5);
    // the warehouse still ships every row as far as the stats go: it is
    // Pinot that ships answers
    assert_eq!(out.stats.rows_shipped, ROWS as u64);
    let counted: i64 = platform
        .sql("SELECT COUNT(*) AS n FROM hive.trips")
        .unwrap()
        .rows[0]
        .get_int("n")
        .unwrap();
    assert_eq!(counted, ROWS as i64);
    assert_allocs_at_most("hive group-by over 50k rows", stats, 10_000);
}
