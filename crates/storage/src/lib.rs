//! # rtdi-storage
//!
//! The archival/storage layer of the stack (§3 "Storage", §4.4 "HDFS for
//! archival store"). Provides:
//!
//! - [`object`]: a generic object/blob store interface with read-after-write
//!   consistency (the paper's minimum storage requirement), with an
//!   in-memory backend plus a fault-injecting wrapper used by the failure
//!   experiments;
//! - [`archival`]: raw-log persistence of stream records (the "Avro raw
//!   logs" of §4.4) and the compaction process that merges them into
//!   segment files;
//! - [`hive`]: date-partitioned long-term tables over segment files — the
//!   source of truth used for backfills (§7) and Pinot offline segments;
//! - [`keyed`]: the key-group framed checkpoint envelope of keyed compute
//!   state;
//! - [`segfile`]: the one columnar file format — warehouse part files
//!   (the "Parquet" stand-in) and OLAP segment backups alike
//!   (little-endian, dictionary + bit-packed/var-byte forward indexes,
//!   RLE runs, zone maps, CRC32-checked footer, lazy per-column decoding).

// Non-test code returns `Error`, never panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Every [dependencies] edge is one the code uses.
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod archival;
pub mod hive;
pub mod keyed;
pub mod object;
pub mod segfile;

pub use keyed::{key_group_of, KeyedSnapshot};
pub use object::{FaultyStore, InMemoryStore, MirroredStore, ObjectStore};
pub use segfile::SegmentFile;
