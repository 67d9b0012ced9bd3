//! # rtdi-compute
//!
//! The stream-processing layer — the Apache Flink stand-in of §4.2 — with
//! the platform features Uber built around it:
//!
//! - [`window`], [`watermark`]: event-time tumbling / sliding / session
//!   windows and bounded-out-of-orderness watermarks (the aggregate
//!   functions live in `rtdi_common::agg`, re-exported here);
//! - [`operator`]: the dataflow operators (map / filter / flat-map / keyed
//!   window aggregation / windowed stream-stream join) with snapshotable
//!   state, plus the operator-chaining pass that fuses adjacent stateless
//!   operators into one stage. Operators borrow shared record handles
//!   (`&Arc<Record>`) and copy no cell they do not change;
//! - [`source`], [`sink`]: bounded & unbounded sources over topics,
//!   in-memory vectors and archived Hive tables (the Kappa+ read path),
//!   all batch-aware (`poll_batch` / `write_batch`) and all moving
//!   handles, not copies;
//! - [`runtime`]: the one engine every job runs on — a staged
//!   multi-threaded runtime with bounded channels whose natural
//!   backpressure reproduces Flink's backlog behaviour, moving
//!   micro-batches (`Vec<Arc<Record>>`) per hop, with aligned checkpoint
//!   barriers persisted to the object store and exact state recovery;
//! - [`mod@reference`]: the single-threaded per-record oracle the tests
//!   compare the runtime against (never called by production code);
//! - [`jobmanager`] (§4.2.2, Figure 5): job lifecycle management,
//!   rule-based health monitoring and automatic failure recovery;
//! - [`backfill`] (§7): the Kappa+ architecture — the same operator chain
//!   replayed over archived data with throttling and enlarged buffers.

// Non-test code on the data path returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod backfill;
pub mod jobmanager;
pub mod operator;
pub mod reference;
pub mod runtime;
pub mod sink;
pub mod source;
pub mod watermark;
pub mod window;

pub use jobmanager::{JobManager, JobSpec};
pub use operator::{
    DedupOp, FilterOp, FlatMapOp, FusedOp, MapOp, Operator, WindowAggregateOp, WindowJoinOp,
};
pub use runtime::{
    run_staged_with, CheckpointStore, Job, JobRunStats, RescaleHandle, StagedConfig,
};
pub use sink::{CollectSink, FnSink, TopicSink};
pub use source::{HiveSource, Source, TopicSource, VecSource};
pub use window::WindowAssigner;
