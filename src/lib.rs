//! # rtdi — Real-time Data Infrastructure
//!
//! A from-scratch Rust reproduction of *"Real-time Data Infrastructure at
//! Uber"* (Fu & Soman, SIGMOD 2021): the full stack of Figure 3 — a
//! Kafka-like streaming substrate, a Flink-like stream-processing engine,
//! a Pinot-like real-time OLAP store, a Presto-like federated SQL layer,
//! an HDFS-like archival warehouse and the metadata services — plus every
//! Uber-specific enhancement the paper describes (cluster federation,
//! dead-letter queues, the consumer proxy, uReplicator, Chaperone,
//! FlinkSQL, upserts, peer-to-peer segment recovery, active-active /
//! active-passive multi-region operation and Kappa+ backfills) and the
//! four representative §5 use cases.
//!
//! ## Quick start
//!
//! ```
//! use rtdi::core::platform::RealtimePlatform;
//! use rtdi::common::{FieldType, Record, Row, Schema};
//! use rtdi::stream::topic::TopicConfig;
//! use rtdi::olap::table::TableConfig;
//!
//! let platform = RealtimePlatform::new();
//! let schema = Schema::of("trips", &[
//!     ("city", FieldType::Str),
//!     ("fare", FieldType::Double),
//!     ("ts", FieldType::Timestamp),
//! ]);
//! platform.create_topic("trips", TopicConfig::default().with_partitions(2),
//!                       schema.clone()).unwrap();
//! let producer = platform.producer("quickstart");
//! for i in 0..100i64 {
//!     producer.send("trips", Record::new(
//!         Row::new().with("city", if i % 2 == 0 { "sf" } else { "la" })
//!                   .with("fare", 10.0 + (i % 7) as f64)
//!                   .with("ts", i * 100),
//!         i * 100,
//!     ).with_key(format!("t{i}"))).unwrap();
//! }
//! let table = platform.create_olap_table(
//!     TableConfig::new("trips", schema).with_time_column("ts").with_partitions(2),
//! ).unwrap();
//! platform.ingest_into("trips", table).unwrap().run_once().unwrap();
//! let out = platform.sql(
//!     "SELECT city, COUNT(*) AS n, AVG(fare) AS avg_fare \
//!      FROM trips GROUP BY city ORDER BY n DESC").unwrap();
//! assert_eq!(out.rows.len(), 2);
//! ```
//!
//! See `DESIGN.md` for the system inventory and the experiment index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use rtdi_common as common;
pub use rtdi_compute as compute;
pub use rtdi_core as core;
pub use rtdi_core::metadata;
pub use rtdi_flinksql as flinksql;
pub use rtdi_multiregion as multiregion;
pub use rtdi_olap as olap;
pub use rtdi_sql as sql;
pub use rtdi_storage as storage;
pub use rtdi_stream as stream;
pub use rtdi_usecases as usecases;

/// Crate version of the umbrella package.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
