//! # rtdi-multiregion
//!
//! The all-active multi-region strategy of §6:
//!
//! - [`topology`]: regions with regional + aggregate Kafka clusters and
//!   uReplicator routes that fan every regional topic into every region's
//!   aggregate cluster (Figure 6's "global view");
//! - [`kv`]: the active-active replicated key-value store surge results
//!   land in;
//! - [`activeactive`]: redundant per-region computation with a coordinator
//!   that designates the primary update service and fails over on region
//!   loss — "its state must be computed independently from the input
//!   messages from the aggregate clusters. Given that the input ... is
//!   consistent across all regions, the output state converges";
//! - [`activepassive`] (Figure 7): the offset-sync service that lets a
//!   strong-consistency consumer fail over to another region and "take
//!   the latest synchronized offset and resume the consumption" — no data
//!   loss, bounded replay;
//! - [`dr`]: region-scale disaster-recovery drills — seeded kill/heal
//!   cycles against whole region failure domains with an exact RPO/RTO
//!   ledger ("business resilience and continuity is a top priority").

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod activeactive;
pub mod activepassive;
pub mod dr;
pub mod kv;
pub mod topology;

pub use dr::{DrConfig, DrDrill, DrReport};
