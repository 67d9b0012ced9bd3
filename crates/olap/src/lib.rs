//! # rtdi-olap
//!
//! The real-time OLAP layer — the Apache Pinot stand-in of §4.3 — with
//! every Uber enhancement the paper describes:
//!
//! - [`segment`]: dictionary-encoded, bit-packed columnar segments with
//!   inverted, sorted and range indices over `rtdi_storage::column`'s one
//!   decoded column, persisted to the real on-disk format of
//!   `rtdi_storage::segfile` and re-opened lazily (zone maps first,
//!   per-column decode on demand, each column decoded once per file);
//! - [`startree`]: the star-tree pre-aggregation index Pinot credits for
//!   order-of-magnitude group-by speedups;
//! - [`query`]: the "limited SQL" query model (filters, aggregations,
//!   group-by/order-by, limits) executed per segment with automatic index
//!   selection;
//! - [`groups`]: the form an aggregation's groups travel in from a segment
//!   through the merge to finalize — key cells in one arena, accumulators
//!   in one flat vector, rows only for what ORDER BY / LIMIT keeps;
//! - [`realtime`], [`ingestion`]: consuming (mutable) segments fed from
//!   stream topics — columnar from the first row, queried by the sealed
//!   segments' kernels — sealed into immutable segments at size
//!   thresholds by sorting their dictionaries;
//! - [`mod@reference`]: the row-at-a-time executor kept as the test oracle of
//!   those kernels (no production caller, not re-exported);
//! - [`upsert`] (§4.3.1): partitioned primary-key tracking with
//!   shared-nothing, per-partition ownership and valid-doc filtering;
//! - [`table`], [`broker`]: hybrid realtime+offline tables behind a
//!   scatter-gather-merge broker with partition-aware routing;
//! - [`segstore`] (§4.3.4): segment archival with a centralized
//!   controller-mediated scheme and the peer-to-peer replica recovery
//!   scheme that replaced it;
//! - [`rebalance`] (§4.3.4): the self-healing placement loop that
//!   re-hosts under-replicated segments after server death, wired to the
//!   shared heartbeat membership view.

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod broker;
pub mod groups;
pub mod ingestion;
pub mod query;
pub mod realtime;
pub mod rebalance;
pub mod reference;
pub mod scatter;
pub mod segment;
pub mod segstore;
pub mod startree;
pub mod table;
pub mod upsert;

pub use ingestion::{IngestionConfig, RealtimeIngester};
pub use table::{OlapTable, TableConfig};
