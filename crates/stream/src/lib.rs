//! # rtdi-stream
//!
//! The streaming-storage layer — the Apache Kafka stand-in of §4.1 — plus
//! every enhancement the paper layers on top of it:
//!
//! - [`log`], [`topic`], [`cluster`]: partitioned append-only logs,
//!   topics with per-use-case configs (lossless vs high-throughput),
//!   multi-node clusters with failure injection;
//! - [`replica`] (§4.1): per-partition replica sets with ISR tracking,
//!   acks-all commit semantics and leader failover, driven by the shared
//!   heartbeat membership view (`rtdi_common::membership`);
//! - [`producer`], [`consumer`]: at-least-once producers that decorate the
//!   audit envelope and retry the shared record, consumer groups with
//!   offset commits and rebalancing;
//! - [`federation`] (§4.1.1): the logical-cluster metadata server that
//!   routes topics across physical clusters, scales out by adding
//!   clusters, and migrates topics without consumer restarts;
//! - [`dlq`] (§4.1.2): dead letter queues with purge/merge;
//! - [`proxy`] (§4.1.3): the consumer proxy that turns polling into
//!   push-based dispatch with retries, DLQ hand-off and parallelism beyond
//!   the partition count;
//! - [`replicator`] (§4.1.4): uReplicator-style cross-cluster replication
//!   with offset mapping checkpoints;
//! - [`chaperone`] (§4.1.4): end-to-end audit of per-window message counts
//!   across pipeline stages with loss/duplicate alerting.

// Non-test code on the data path returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod chaperone;
pub mod cluster;
pub mod consumer;
pub mod dlq;
pub mod federation;
pub mod log;
pub mod producer;
pub mod proxy;
pub mod replica;
pub mod replicator;
pub mod topic;
