//! The benchmark's whole view of the system: the only file that names
//! `rtdi::` paths. Everything here is a public item of the umbrella crate,
//! so the benchmark times the system from outside, the way a user of the
//! platform would call it.
//!
//! The list is closed on purpose (see README.md, "API surface"). It leaves
//! out what ROADMAP item 2 deletes (`Executor`, `supervise_staged`,
//! `supervise_elastic`, `run_staged`, `StagedConfig::reference`,
//! `colfile`) and never arms the process-global `FaultRegistry`, so those
//! removals cannot break the benchmark.

pub use rtdi::common::{AggFn, FieldType, Record, Result, Row, Schema};
pub use rtdi::compute::runtime::{run_staged_with, JobRunStats, StagedConfig};
pub use rtdi::compute::sink::CollectSink;
pub use rtdi::core::platform::RealtimePlatform;
pub use rtdi::flinksql::compiler::{compile_streaming, CompileOptions};
pub use rtdi::olap::ingestion::RealtimeIngester;
pub use rtdi::olap::query::{Predicate, Query, SortOrder};
pub use rtdi::olap::segment::{IndexSpec, Segment};
pub use rtdi::olap::table::{OlapTable, TableConfig};
pub use rtdi::sql::catalog::{HybridTable, RealtimeSide};
pub use rtdi::sql::connector::PinotConnector;
pub use rtdi::sql::engine::{EngineConfig, QueryOutput, SqlEngine};
pub use rtdi::storage::archival::{ArchivalWriter, Compactor};
pub use rtdi::storage::hive::HiveCatalog;
pub use rtdi::storage::object::InMemoryStore;
pub use rtdi::stream::topic::{Topic, TopicConfig};
pub use rtdi::usecases::workloads::CityDriverGenerator;
