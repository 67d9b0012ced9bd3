//! The Metadata layer of the stack (§3): a versioned schema registry with
//! backward-compatibility enforcement, plus the data-discovery and
//! lineage-tracking services the paper describes in §9.4 ("a centralized
//! metadata repository ... the source of truth for schemas across both
//! realtime and offline systems ... this system also tracks the data
//! lineage representing flow of data across these components").

pub mod lineage;
pub mod registry;

pub use lineage::LineageGraph;
pub use registry::SchemaRegistry;
