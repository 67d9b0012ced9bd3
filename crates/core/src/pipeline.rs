//! Self-serve pipeline provisioning.
//!
//! §9.4: "users can automatically create Flink and Pinot pipelines using a
//! convenient drag and drop UI that hides the complex sequence of
//! provisioning and capacity allocation." [`PipelineBuilder`] is that UI's
//! programmatic equivalent: name a source topic, a SQL transformation and
//! a sink table; `deploy` provisions the table and the job in order.

use crate::platform::RealtimePlatform;
use rtdi_common::{Error, Result, Schema};
use rtdi_compute::runtime::JobRunStats;
use rtdi_flinksql::compiler::CompileOptions;
use rtdi_olap::segment::IndexSpec;
use rtdi_olap::table::TableConfig;

/// Declarative pipeline description.
pub struct PipelineBuilder {
    name: String,
    source: Option<String>,
    sql: Option<String>,
    sink: Option<(String, Schema, IndexSpec, Option<String>)>,
}

impl PipelineBuilder {
    pub fn new(name: &str) -> Self {
        PipelineBuilder {
            name: name.to_string(),
            source: None,
            sql: None,
            sink: None,
        }
    }

    /// Use an already-provisioned topic.
    pub fn from_topic(mut self, topic: &str) -> Self {
        self.source = Some(topic.to_string());
        self
    }

    /// The FlinkSQL transformation.
    pub fn transform(mut self, sql: &str) -> Self {
        self.sql = Some(sql.to_string());
        self
    }

    /// Sink into a new OLAP table (`time_column` optional).
    pub fn sink_pinot(
        mut self,
        table: &str,
        schema: Schema,
        index_spec: IndexSpec,
        time_column: Option<&str>,
    ) -> Self {
        self.sink = Some((
            table.to_string(),
            schema,
            index_spec,
            time_column.map(|s| s.to_string()),
        ));
        self
    }

    /// Provision and run the pipeline on the platform. Returns the job
    /// stats of the first (bounded) supervision run.
    pub fn deploy(self, platform: &RealtimePlatform) -> Result<JobRunStats> {
        let source = self
            .source
            .ok_or_else(|| Error::InvalidArgument("pipeline needs a from_topic(..)".into()))?;
        let sql = self
            .sql
            .ok_or_else(|| Error::InvalidArgument("pipeline needs a transform(sql)".into()))?;
        let (table_name, schema, index_spec, time_column) = self
            .sink
            .ok_or_else(|| Error::InvalidArgument("pipeline needs a sink_pinot(...)".into()))?;
        let mut config = TableConfig::new(&table_name, schema).with_index_spec(index_spec);
        if let Some(tc) = time_column {
            config = config.with_time_column(&tc);
        }
        let table = platform.create_olap_table(config)?;
        platform.deploy_sql_pipeline(&self.name, &sql, &source, table, &CompileOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::{FieldType, Record, Row, SimClock};
    use rtdi_stream::topic::TopicConfig;
    use std::sync::Arc;

    fn order_schema() -> Schema {
        Schema::of(
            "eats_orders",
            &[
                ("restaurant", FieldType::Str),
                ("total", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    #[test]
    fn builder_provisions_everything() {
        let platform = RealtimePlatform::with_clock(Arc::new(SimClock::new(0)));
        // provision the source first so we can seed data before deploying
        platform
            .create_topic(
                "eats_orders",
                TopicConfig::default().with_partitions(2),
                order_schema(),
            )
            .unwrap();
        let producer = platform.producer("eats");
        for i in 0..60 {
            producer
                .send(
                    "eats_orders",
                    Record::new(
                        Row::new()
                            .with("restaurant", format!("r{}", i % 3))
                            .with("total", 20.0)
                            .with("ts", (i as i64) * 100),
                        (i as i64) * 100,
                    )
                    .with_key(format!("r{}", i % 3)),
                )
                .unwrap();
        }
        let stats = PipelineBuilder::new("eats-dashboard")
            .from_topic("eats_orders")
            .transform(
                "SELECT restaurant, TUMBLE(ts, 1000) AS w, COUNT(*) AS orders, \
                 SUM(total) AS revenue FROM eats_orders \
                 GROUP BY restaurant, TUMBLE(ts, 1000)",
            )
            .sink_pinot(
                "eats_order_stats",
                Schema::of(
                    "eats_order_stats",
                    &[
                        ("restaurant", FieldType::Str),
                        ("w", FieldType::Timestamp),
                        ("orders", FieldType::Int),
                        ("revenue", FieldType::Double),
                        ("ingest_ts", FieldType::Timestamp),
                    ],
                ),
                IndexSpec::none().with_inverted(&["restaurant"]),
                Some("ingest_ts"),
            )
            .deploy(&platform)
            .unwrap();
        assert_eq!(stats.records_in, 60);
        // the sink table is queryable via SQL immediately
        let out = platform
            .sql("SELECT SUM(revenue) AS r FROM eats_order_stats")
            .unwrap();
        assert_eq!(out.rows[0].get_double("r"), Some(1200.0));
        // lineage captured end to end
        assert!(platform
            .lineage()
            .impact("kafka.eats_orders")
            .contains(&"pinot.eats_order_stats".to_string()));
    }

    #[test]
    fn missing_pieces_rejected() {
        let platform = RealtimePlatform::with_clock(Arc::new(SimClock::new(0)));
        assert!(PipelineBuilder::new("p").deploy(&platform).is_err());
        assert!(PipelineBuilder::new("p")
            .from_topic("t")
            .deploy(&platform)
            .is_err());
        assert!(PipelineBuilder::new("p")
            .from_topic("t")
            .transform("SELECT * FROM t")
            .deploy(&platform)
            .is_err());
    }
}
