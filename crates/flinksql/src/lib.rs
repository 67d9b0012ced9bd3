//! # rtdi-flinksql
//!
//! FlinkSQL (§4.2.1): "the ability to transform an input Apache Calcite
//! SQL query into an efficient Flink job. The SQL processor compiles the
//! queries to reliable, efficient, distributed Flink applications, and
//! manages the full lifecycle of the application, allowing users to focus
//! solely on their business logic."
//!
//! The compiler reuses the `rtdi-sql` frontend (parser + logical planner)
//! and lowers the logical plan onto `rtdi-compute` operators:
//!
//! - `WHERE`  -> [`rtdi_compute::FilterOp`]
//! - `GROUP BY TUMBLE(ts, size), k1, ...` + aggregates ->
//!   [`rtdi_compute::WindowAggregateOp`]
//! - projections -> [`rtdi_compute::MapOp`]
//! - `HAVING` -> a post-window [`rtdi_compute::FilterOp`]
//!
//! Two build modes implement the §7 SQL-based backfill: the same statement
//! compiles to a *streaming* job over a topic (DataStream) or a *batch*
//! job over the archived Hive table (DataSet) — "the user does not need to
//! maintain 2 distinct jobs."

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod compiler;
pub mod sinks;
