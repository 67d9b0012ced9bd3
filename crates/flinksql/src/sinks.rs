//! FlinkSQL sinks into the OLAP layer.
//!
//! §4.3.3: "Pinot also integrates with FlinkSQL as a data sink, so
//! customers can simply build a SQL transformation query and the output
//! messages can be 'pushed' to Pinot."

use rtdi_common::{Record, Result, Value};
use rtdi_compute::sink::Sink;
use rtdi_olap::table::OlapTable;
use std::sync::Arc;

/// Writes job output rows into an OLAP table, routing by the record key
/// (upsert tables require key routing; unkeyed records round-robin).
pub struct PinotSink {
    table: Arc<OlapTable>,
    round_robin: usize,
}

impl PinotSink {
    pub fn new(table: Arc<OlapTable>) -> Self {
        PinotSink {
            table,
            round_robin: 0,
        }
    }

    fn partition_for(&mut self, key: &Option<Value>) -> usize {
        let n = self.table.config().partitions;
        match key {
            Some(k) => (k.partition_hash() % n as u64) as usize,
            None => {
                self.round_robin = (self.round_robin + 1) % n;
                self.round_robin
            }
        }
    }
}

impl PinotSink {
    /// The table reads the row where it lies and stores the record's event
    /// time under its time column when the row has none.
    fn ingest(&mut self, record: &Record) -> Result<()> {
        let p = self.partition_for(&record.key);
        self.table
            .ingest_at(p, &record.value, Some(record.timestamp))
    }
}

impl Sink for PinotSink {
    fn write(&mut self, record: Record) -> Result<()> {
        self.ingest(&record)
    }

    fn write_batch(&mut self, records: Vec<Arc<Record>>) -> Result<()> {
        records.iter().try_for_each(|record| self.ingest(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_streaming, CompileOptions};
    use rtdi_common::{AggFn, FieldType, Row, Schema};
    use rtdi_compute::runtime::{run_staged_with, StagedConfig};
    use rtdi_olap::query::Query;
    use rtdi_olap::table::TableConfig;
    use rtdi_stream::topic::{Topic, TopicConfig};

    #[test]
    fn sql_to_pinot_pipeline_end_to_end() {
        // the §4.3.3 flow: Kafka topic -> FlinkSQL pre-aggregation -> Pinot
        let topic =
            Arc::new(Topic::new("orders", TopicConfig::default().with_partitions(2)).unwrap());
        for i in 0..200usize {
            topic
                .append(
                    Record::new(
                        Row::new()
                            .with("restaurant", format!("r{}", i % 4))
                            .with("total", 10.0 + (i % 10) as f64)
                            .with("ts", (i as i64) * 50),
                        (i as i64) * 50,
                    )
                    .with_key(format!("r{}", i % 4)),
                    0,
                )
                .unwrap();
        }
        let schema = Schema::of(
            "order_stats",
            &[
                ("restaurant", FieldType::Str),
                ("w", FieldType::Timestamp),
                ("orders", FieldType::Int),
                ("revenue", FieldType::Double),
                ("ingest_ts", FieldType::Timestamp),
            ],
        );
        let table = OlapTable::new(
            TableConfig::new("order_stats", schema)
                .with_time_column("ingest_ts")
                .with_partitions(4)
                .with_segment_rows(16),
        )
        .unwrap();
        let job = compile_streaming(
            "orders-to-pinot",
            "SELECT restaurant, TUMBLE(ts, 1000) AS w, COUNT(*) AS orders, SUM(total) AS revenue \
             FROM orders GROUP BY restaurant, TUMBLE(ts, 1000)",
            topic,
            Box::new(PinotSink::new(table.clone())),
            &CompileOptions::default(),
        )
        .unwrap();
        run_staged_with(job, &StagedConfig::default()).unwrap();

        // 200 records at 50ms = 10s -> 10 windows x 4 restaurants = 40 rows
        let q = Query::select_all("order_stats").aggregate("n", AggFn::Count);
        assert_eq!(table.query(&q).unwrap().rows[0].get_int("n"), Some(40));
        let q =
            Query::select_all("order_stats").aggregate("total_orders", AggFn::Sum("orders".into()));
        assert_eq!(
            table.query(&q).unwrap().rows[0].get_double("total_orders"),
            Some(200.0)
        );
    }

    #[test]
    fn unkeyed_rows_round_robin_across_partitions() {
        let schema = Schema::of("t", &[("x", FieldType::Int)]);
        let table = OlapTable::new(
            TableConfig::new("t", schema)
                .with_partitions(3)
                .with_segment_rows(1000),
        )
        .unwrap();
        let mut sink = PinotSink::new(table.clone());
        for i in 0..9 {
            sink.write(Record::new(Row::new().with("x", i as i64), 0))
                .unwrap();
        }
        assert_eq!(table.doc_count(), 9);
    }
}
