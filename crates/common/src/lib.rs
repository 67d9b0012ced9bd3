//! # rtdi-common
//!
//! Shared foundation types for the real-time data infrastructure
//! reproduction: values, records, schemas, time sources (wall clock and a
//! deterministic simulated clock), latency histograms and a
//! small JSON codec used for semi-structured ingestion (§4.3.3 of the
//! paper).
//!
//! Every other crate in the workspace depends on this one; it has no
//! dependencies on the rest of the stack.

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod agg;
pub mod chaos;
pub mod error;
pub mod json;
pub mod membership;
pub mod metrics;
pub mod overload;
pub mod record;
pub mod schema;
pub mod sketch;
pub mod text;
pub mod time;
pub mod trace;
pub mod value;
pub mod wire;

pub use agg::{AggAcc, AggFn};
pub use chaos::{Chaos, FaultPoint, RegionOutage, RegionOutageKind, RetryPolicy};
pub use error::{Error, Result};
pub use membership::{
    Membership, MembershipConfig, MembershipEvent, MembershipListener, NodeState,
};
pub use overload::{
    AdmissionConfig, AdmissionController, Deadline, Permit, Priority, Quota, RateLimiter,
};
pub use record::{Origin, Record, UniqueId};
pub use schema::{Field, FieldType, Schema};
pub use sketch::CountMinSketch;
pub use text::Text;
pub use time::{Clock, SimClock, Timestamp, WallClock};
pub use trace::{PipelineTracer, TraceReport, TraceStage};
pub use value::{row_names, Positions, Row, RowNames, SetColumn, Value};
