//! # rtdi-core
//!
//! The unified real-time data platform: the integration layer that wires
//! the streaming, compute, OLAP, SQL, storage and metadata subsystems into
//! the architecture of Figure 3 and exposes the self-serve abstractions of
//! §9.4 ("a layer of indirection between our users and the underlying
//! technologies", §10).
//!
//! - [`platform`]: the [`RealtimePlatform`] facade — topics, producers,
//!   OLAP tables, federated SQL, archival and backfill in one place;
//! - [`pipeline`]: the drag-and-drop-style [`pipeline::PipelineBuilder`]
//!   that provisions a FlinkSQL job from source topic to Pinot sink ("users
//!   can automatically create Flink and Pinot pipelines using a convenient
//!   drag and drop UI");
//! - [`usage`]: per-use-case component accounting that regenerates the
//!   paper's Table 1.

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod pipeline;
pub mod platform;
pub mod usage;

pub use pipeline::PipelineBuilder;
pub use platform::RealtimePlatform;
pub use usage::{Component, UsageTracker};
