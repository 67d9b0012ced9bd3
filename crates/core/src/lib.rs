//! # rtdi-core
//!
//! The unified real-time data platform: the integration layer that wires
//! the streaming, compute, OLAP, SQL, storage and metadata subsystems into
//! the architecture of Figure 3 and exposes the self-serve abstractions of
//! §9.4 ("a layer of indirection between our users and the underlying
//! technologies", §10).
//!
//! - [`metadata`]: the versioned schema registry and the lineage graph
//!   (§3, §9.4);
//! - [`platform`]: the [`RealtimePlatform`](platform::RealtimePlatform) facade — topics, producers,
//!   OLAP tables, federated SQL, archival and backfill in one place.

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod metadata;
pub mod platform;
