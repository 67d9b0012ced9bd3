//! # rtdi-sql
//!
//! The full SQL layer — the Presto stand-in of §4.5 — over the OLAP store
//! and the warehouse:
//!
//! - [`lexer`], [`ast`], [`parser`]: a SQL frontend covering the
//!   analytical subset the paper's use cases need (projections,
//!   aggregations, GROUP BY / HAVING / ORDER BY / LIMIT, inner joins,
//!   subqueries in FROM, function calls such as `TUMBLE` used by
//!   FlinkSQL);
//! - [`expr`]: expression evaluation over rows;
//! - [`plan`]: logical plans and the AST-to-plan translator;
//! - [`optimizer`]: predicate / projection / aggregation / limit pushdown
//!   into connectors — the §4.5 contribution ("we enhanced Presto's query
//!   planner and extended Presto Connector API to push as many operators
//!   down to the Pinot layer as possible");
//! - [`connector`]: the Connector API plus the Pinot and Hive connectors;
//! - [`catalog`]: hybrid-table federation — the time-boundary planner
//!   splitting each query between the realtime store and archival
//!   segments, with partition-pruned scatter and a freshness-aware
//!   result cache;
//! - [`shape`]: a statement's shape, the key of the engine's plan cache,
//!   and the binding of its literals into a cached plan;
//! - [`engine`]: the MPP-style in-memory executor and the federated query
//!   entry point.

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod ast;
pub mod catalog;
pub mod connector;
pub mod engine;
pub mod expr;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod plan;
pub mod shape;

pub use connector::PinotConnector;
pub use engine::{EngineConfig, SqlEngine};
