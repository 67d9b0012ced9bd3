//! Tiered log storage — the §11 future-work item, the model claim E22
//! runs. No platform path holds a tiered log.
//!
//! "Storage tiering improves both cost efficiency by storing colder data
//! in a cheaper storage medium as well as elasticity by separating data
//! storage and serving layers. We are actively investigating tiered
//! storage solutions for both Kafka and Pinot."
//!
//! [`TieredLog`] keeps a hot in-memory [`PartitionLog`] for the serving
//! path and offloads cold head records into immutable chunk objects in the
//! archive. Fetches below the hot log's start transparently read from the
//! cold tier, so consumers see one continuous offset space — which also
//! removes the retention wall that made Kappa backfills impossible (§7):
//! with tiering, "retention" becomes a cost knob instead of a data-loss
//! cliff.

use parking_lot::RwLock;
use rtdi_common::{Error, Record, Result, Timestamp};
use rtdi_storage::archival::{decode_raw, encode_raw};
use rtdi_storage::object::ObjectStore;
use rtdi_stream::log::{FetchResult, OffsetRecord, PartitionLog};
use std::sync::Arc;

/// Index entry for one cold chunk object.
#[derive(Debug, Clone)]
struct ColdChunk {
    base_offset: u64,
    count: u64,
    key: String,
}

/// A partition log with a hot in-memory tier and a cold object-store tier.
pub struct TieredLog {
    hot: PartitionLog,
    store: Arc<dyn ObjectStore>,
    prefix: String,
    cold: RwLock<Vec<ColdChunk>>,
}

impl TieredLog {
    /// `prefix` namespaces this partition's chunks in the object store,
    /// e.g. `tiered/trips/0`.
    pub fn new(store: Arc<dyn ObjectStore>, prefix: impl Into<String>) -> Self {
        TieredLog {
            // the hot tier never time/size-trims on its own: tiering owns
            // data movement
            hot: PartitionLog::new(0, 0),
            store,
            prefix: prefix.into(),
            cold: RwLock::new(Vec::new()),
        }
    }

    pub fn append(&self, record: Record, now: Timestamp) -> u64 {
        self.hot.append(record, now)
    }

    /// Move records appended before `cutoff` into a cold chunk. Returns
    /// how many records were offloaded.
    pub fn offload_older_than(&self, cutoff: Timestamp) -> Result<usize> {
        let base = self.hot.log_start_offset();
        let drained = self.hot.drain_head_older_than(cutoff);
        if drained.is_empty() {
            return Ok(0);
        }
        let count = drained.len() as u64;
        let key = format!("{}/chunk-{base:012}", self.prefix);
        self.store.put(&key, encode_raw(&drained)?)?;
        self.cold.write().push(ColdChunk {
            base_offset: base,
            count,
            key,
        });
        Ok(drained.len())
    }

    /// Fetch with a continuous offset space across both tiers.
    pub fn fetch(&self, offset: u64, max: usize) -> Result<FetchResult> {
        let hot_start = self.hot.log_start_offset();
        if offset >= hot_start {
            return self.hot.fetch(offset, max);
        }
        // cold read: locate the chunk containing `offset`
        let chunk = {
            let cold = self.cold.read();
            let idx = cold.partition_point(|c| c.base_offset <= offset);
            if idx == 0 {
                return Err(Error::OffsetOutOfRange {
                    requested: offset,
                    low: self.log_start_offset(),
                    high: self.hot.high_watermark(),
                });
            }
            cold[idx - 1].clone()
        };
        if offset >= chunk.base_offset + chunk.count {
            return Err(Error::Internal(format!(
                "cold chunk gap at offset {offset} (chunk {} + {})",
                chunk.base_offset, chunk.count
            )));
        }
        let data = self.store.get(&chunk.key)?;
        let records = decode_raw(&data)?;
        let skip = (offset - chunk.base_offset) as usize;
        let out: Vec<OffsetRecord> = records
            .into_iter()
            .enumerate()
            .skip(skip)
            .take(max)
            .map(|(i, record)| OffsetRecord {
                offset: chunk.base_offset + i as u64,
                record: std::sync::Arc::new(record),
            })
            .collect();
        Ok(FetchResult {
            records: out,
            high_watermark: self.hot.high_watermark(),
            log_start_offset: self.log_start_offset(),
        })
    }

    /// Earliest offset across both tiers.
    pub fn log_start_offset(&self) -> u64 {
        self.cold
            .read()
            .first()
            .map(|c| c.base_offset)
            .unwrap_or_else(|| self.hot.log_start_offset())
    }

    /// Bytes held in expensive hot memory — the cost-efficiency metric
    /// tiering optimizes.
    pub fn hot_bytes(&self) -> usize {
        self.hot.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;
    use rtdi_storage::object::InMemoryStore;

    fn rec(i: i64) -> Record {
        Record::new(Row::new().with("i", i).with("pad", "x".repeat(50)), i)
    }

    fn tiered() -> (TieredLog, Arc<InMemoryStore>) {
        let store = Arc::new(InMemoryStore::new());
        let log = TieredLog::new(store.clone(), "tiered/trips/0");
        (log, store)
    }

    #[test]
    fn offsets_continuous_across_tiers() {
        let (log, _) = tiered();
        for i in 0..100 {
            log.append(rec(i), i); // append time = i
        }
        // offload everything appended before t=60
        assert_eq!(log.offload_older_than(60).unwrap(), 60);
        assert_eq!(log.log_start_offset(), 0);
        assert_eq!(log.hot.high_watermark(), 100);
        // hot read
        let hot = log.fetch(80, 10).unwrap();
        assert_eq!(hot.records[0].offset, 80);
        assert_eq!(hot.records[0].record.value.get_int("i"), Some(80));
        // cold read, transparent
        let cold = log.fetch(10, 10).unwrap();
        assert_eq!(cold.records.len(), 10);
        assert_eq!(cold.records[0].offset, 10);
        assert_eq!(cold.records[9].record.value.get_int("i"), Some(19));
        // a sequential consumer can walk the boundary
        let mut pos = 0u64;
        let mut seen = 0;
        loop {
            let f = log.fetch(pos, 7).unwrap();
            if f.records.is_empty() {
                break;
            }
            for r in &f.records {
                assert_eq!(r.offset, pos);
                pos += 1;
                seen += 1;
            }
        }
        assert_eq!(seen, 100);
    }

    #[test]
    fn hot_memory_shrinks_history_remains() {
        let (log, store) = tiered();
        for i in 0..1000 {
            log.append(rec(i), i);
        }
        let before = log.hot_bytes();
        log.offload_older_than(900).unwrap();
        let after = log.hot_bytes();
        assert!(
            after * 5 < before,
            "hot tier should shrink: {before} -> {after}"
        );
        assert!(store.stored_bytes() > 0);
        // the full history is still served
        assert_eq!(log.fetch(0, 5).unwrap().records.len(), 5);
    }

    #[test]
    fn multiple_offload_rounds_chunk_correctly() {
        let (log, _) = tiered();
        for i in 0..30 {
            log.append(rec(i), i);
        }
        assert_eq!(log.offload_older_than(10).unwrap(), 10);
        for i in 30..60 {
            log.append(rec(i), i);
        }
        assert_eq!(log.offload_older_than(40).unwrap(), 30);
        assert_eq!(log.offload_older_than(40).unwrap(), 0); // idempotent
                                                            // reads spanning chunk boundaries
        for offset in [0u64, 9, 10, 25, 39, 40] {
            let f = log.fetch(offset, 1).unwrap();
            assert_eq!(f.records[0].offset, offset, "offset {offset}");
            assert_eq!(f.records[0].record.value.get_int("i"), Some(offset as i64));
        }
    }

    #[test]
    fn tiering_reenables_old_data_replay() {
        // the §7 motivation inverted: with tiering, a "Kappa" style replay
        // of week-old data from the log itself works again
        let (log, _) = tiered();
        let day = 86_400_000i64;
        for d in 0..7i64 {
            for i in 0..100 {
                log.append(rec(d * day + i), d * day + i);
            }
            // nightly offload of everything older than 2 days
            log.offload_older_than((d - 2) * day).unwrap();
        }
        // replay from the very beginning — impossible with plain retention
        let f = log.fetch(0, 10).unwrap();
        assert_eq!(f.records.len(), 10);
        assert_eq!(f.records[0].record.value.get_int("i"), Some(0));
    }
}
