//! # rtdi-usecases
//!
//! The four representative production use cases of §5, built on the
//! platform exactly as Table 1 describes:
//!
//! - [`surge`] (§5.1, analytical application): the dynamic-pricing
//!   pipeline — windowed demand/supply per hexagon geofence, an ML-style
//!   pricing model, a KV sink, freshness-over-consistency tradeoffs and
//!   the active-active failover of Figure 6;
//! - [`restaurant`] (§5.2, dashboards): UberEats Restaurant Manager —
//!   Flink pre-aggregation into a Pinot table tuned with pre-aggregation
//!   indices, serving fixed-shape dashboard queries at low latency;
//! - [`prediction`] (§5.3, machine learning): real-time prediction
//!   monitoring — joining predictions to observed outcomes at high
//!   cardinality and cubing accuracy metrics into Pinot;
//! - [`eatsops`] (§5.4, ad-hoc exploration): UberEats Ops automation —
//!   ad-hoc PrestoSQL exploration promoted into a rule-based automation
//!   framework;
//! - [`workloads`]: the seeded synthetic event generators standing in for
//!   Uber's production traces (see DESIGN.md substitution table).

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod eatsops;
pub mod prediction;
pub mod restaurant;
pub mod surge;
pub mod workloads;

pub use workloads::CityDriverGenerator;
