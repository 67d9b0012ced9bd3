pub mod archive_backfill;
pub mod dashboard_query;
pub mod ingest_drain;
pub mod trickle_visible;
