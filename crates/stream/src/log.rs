//! Partitioned append-only log — the storage heart of the streaming layer.
//!
//! Each partition is an ordered sequence of records with monotonically
//! increasing offsets. Retention trims the head by time or size (the paper
//! limits Kafka retention "to only a few days" (§7), which is why Kappa
//! backfill is infeasible and Kappa+ reads the archive instead).

use parking_lot::RwLock;
use rtdi_common::{Error, Record, Result, Timestamp};
use std::collections::VecDeque;
use std::sync::Arc;

/// A record paired with its log offset. The record is shared with the
/// log's own storage (and every other consumer fetching the same offset),
/// so a fetch costs an `Arc` bump per record instead of a deep clone.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetRecord {
    pub offset: u64,
    pub record: Arc<Record>,
}

impl OffsetRecord {
    /// Take ownership of the record, cloning only if other holders remain.
    pub fn into_record(self) -> Record {
        Arc::try_unwrap(self.record).unwrap_or_else(|a| (*a).clone())
    }
}

/// Result of a fetch: records plus the high watermark (next offset to be
/// assigned) so consumers can compute lag.
#[derive(Debug, Clone)]
pub struct FetchResult {
    pub records: Vec<OffsetRecord>,
    pub high_watermark: u64,
    pub log_start_offset: u64,
}

#[derive(Debug)]
struct LogInner {
    /// Offset of `entries[0]`.
    base_offset: u64,
    entries: VecDeque<(Timestamp, Arc<Record>)>,
    bytes: usize,
}

impl LogInner {
    /// Drop the head record when its append time satisfies `expired`,
    /// advancing the log start past it.
    fn pop_front_if(&mut self, expired: impl Fn(Timestamp) -> bool) -> Option<Arc<Record>> {
        if !expired(self.entries.front()?.0) {
            return None;
        }
        let (_, record) = self.entries.pop_front()?;
        self.bytes -= record.approx_bytes();
        self.base_offset += 1;
        Some(record)
    }
}

/// One partition's log. Thread-safe; appends and fetches may interleave.
#[derive(Debug)]
pub struct PartitionLog {
    inner: RwLock<LogInner>,
    retention_ms: i64,
    retention_bytes: usize,
}

impl PartitionLog {
    /// `retention_ms`/`retention_bytes` of 0 mean unlimited.
    pub fn new(retention_ms: i64, retention_bytes: usize) -> Self {
        PartitionLog {
            inner: RwLock::new(LogInner {
                base_offset: 0,
                entries: VecDeque::new(),
                bytes: 0,
            }),
            retention_ms,
            retention_bytes,
        }
    }

    /// Append a record, returning its offset. The log keeps the `Arc` it
    /// is given (a forwarded record is shared with its source log, never
    /// copied). `now` drives time-based retention (the record's own event
    /// time can be older).
    pub fn append(&self, record: impl Into<Arc<Record>>, now: Timestamp) -> u64 {
        let record = record.into();
        let mut inner = self.inner.write();
        let offset = inner.base_offset + inner.entries.len() as u64;
        inner.bytes += record.approx_bytes();
        inner.entries.push_back((now, record));
        self.enforce_retention(&mut inner, now);
        offset
    }

    fn enforce_retention(&self, inner: &mut LogInner, now: Timestamp) {
        if self.retention_ms > 0 {
            let cutoff = now - self.retention_ms;
            while inner.pop_front_if(|t| t < cutoff).is_some() {}
        }
        if self.retention_bytes > 0 {
            while inner.bytes > self.retention_bytes && inner.entries.len() > 1 {
                inner.pop_front_if(|_| true);
            }
        }
    }

    /// Fetch up to `max` records starting at `offset`.
    ///
    /// Fetching below the log start returns `OffsetOutOfRange` — this is
    /// the situation that forces consumers to choose between earliest
    /// (huge backlog) and latest (data loss) and motivates the offset-sync
    /// service of §6. Fetching at or above the high watermark returns an
    /// empty result.
    pub fn fetch(&self, offset: u64, max: usize) -> Result<FetchResult> {
        self.fetch_capped(offset, max, u64::MAX)
    }

    /// Fetch up to `max` records starting at `offset`, but never at or
    /// past `visible_end` — the replicated partition's committed high
    /// watermark. The reported high watermark is capped the same way, so
    /// consumers compute lag against committed data only and never
    /// observe records the ISR has not acknowledged.
    pub fn fetch_capped(&self, offset: u64, max: usize, visible_end: u64) -> Result<FetchResult> {
        let inner = self.inner.read();
        let end = (inner.base_offset + inner.entries.len() as u64).min(visible_end);
        if offset < inner.base_offset {
            return Err(Error::OffsetOutOfRange {
                requested: offset,
                low: inner.base_offset,
                high: end,
            });
        }
        let take = if offset >= end {
            0
        } else {
            ((end - offset) as usize).min(max)
        };
        let start = (offset - inner.base_offset) as usize;
        let records = inner
            .entries
            .iter()
            .skip(start)
            .take(take)
            .enumerate()
            .map(|(i, (_, r))| OffsetRecord {
                offset: offset + i as u64,
                record: Arc::clone(r),
            })
            .collect();
        Ok(FetchResult {
            records,
            high_watermark: end,
            log_start_offset: inner.base_offset,
        })
    }

    /// Drop every record at or above `end_offset` — the uncommitted tail
    /// a newly elected leader never replicated. Returns how many records
    /// were dropped. No-op when `end_offset` is at or past the log end.
    /// Leader failover only truncates above the committed high watermark,
    /// so committed records are never touched.
    pub fn truncate_to(&self, end_offset: u64) -> u64 {
        let mut inner = self.inner.write();
        let hwm = inner.base_offset + inner.entries.len() as u64;
        if end_offset >= hwm {
            return 0;
        }
        let keep = end_offset.saturating_sub(inner.base_offset) as usize;
        let dropped = inner.entries.len() - keep;
        let tail = inner.entries.drain(keep..);
        inner.bytes -= tail.map(|(_, r)| r.approx_bytes()).sum::<usize>();
        dropped as u64
    }

    /// Next offset that will be assigned (a.k.a. log end offset / high
    /// watermark in this single-replica model).
    pub fn high_watermark(&self) -> u64 {
        let inner = self.inner.read();
        inner.base_offset + inner.entries.len() as u64
    }

    /// Earliest retained offset.
    pub fn log_start_offset(&self) -> u64 {
        self.inner.read().base_offset
    }

    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.read().entries.is_empty()
    }

    pub fn bytes(&self) -> usize {
        self.inner.read().bytes
    }

    /// Set the base offset of an *empty* log. Used by offset-preserving
    /// topic migration (§4.1.1): the destination partition starts at the
    /// source's log start so absolute consumer offsets stay valid across
    /// the redirect.
    pub fn advance_base_to(&self, offset: u64) -> Result<()> {
        let mut inner = self.inner.write();
        if !inner.entries.is_empty() {
            return Err(Error::InvalidArgument(
                "advance_base_to requires an empty log".into(),
            ));
        }
        if offset < inner.base_offset {
            return Err(Error::InvalidArgument(
                "base offset may not move backwards".into(),
            ));
        }
        inner.base_offset = offset;
        Ok(())
    }

    /// Remove and return the head records whose *append* time is older
    /// than `cutoff`, advancing the log start past them: the stream-side
    /// hook of tiered storage (§11, claim E22's model in `rtdi-bench`),
    /// which moves cold data to the object store instead of deleting it
    /// the way time retention does.
    pub fn drain_head_older_than(&self, cutoff: Timestamp) -> Vec<Record> {
        let mut inner = self.inner.write();
        let mut out = Vec::new();
        while let Some(r) = inner.pop_front_if(|t| t < cutoff) {
            out.push(Arc::try_unwrap(r).unwrap_or_else(|a| (*a).clone()));
        }
        out
    }

    /// Drop every retained record, advancing the log start to the high
    /// watermark. Used by DLQ purge (§4.1.2).
    pub fn truncate_all(&self) {
        let mut inner = self.inner.write();
        inner.base_offset += inner.entries.len() as u64;
        inner.entries.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;

    fn rec(i: i64) -> Record {
        Record::new(Row::new().with("i", i), i)
    }

    #[test]
    fn offsets_are_monotonic() {
        let log = PartitionLog::new(0, 0);
        for i in 0..10 {
            assert_eq!(log.append(rec(i), i), i as u64);
        }
        assert_eq!(log.high_watermark(), 10);
        assert_eq!(log.log_start_offset(), 0);
    }

    #[test]
    fn fetch_returns_requested_window() {
        let log = PartitionLog::new(0, 0);
        for i in 0..100 {
            log.append(rec(i), i);
        }
        let fr = log.fetch(10, 5).unwrap();
        assert_eq!(fr.records.len(), 5);
        assert_eq!(fr.records[0].offset, 10);
        assert_eq!(fr.records[0].record.value.get_int("i"), Some(10));
        assert_eq!(fr.high_watermark, 100);
        // fetch at high watermark: empty, not error
        let fr = log.fetch(100, 5).unwrap();
        assert!(fr.records.is_empty());
        // beyond: also empty (consumer will retry)
        assert!(log.fetch(150, 5).unwrap().records.is_empty());
    }

    #[test]
    fn fetch_capped_hides_uncommitted_tail() {
        let log = PartitionLog::new(0, 0);
        for i in 0..10 {
            log.append(rec(i), i);
        }
        // only offsets < 6 are committed
        let fr = log.fetch_capped(4, 100, 6).unwrap();
        assert_eq!(fr.records.len(), 2);
        assert_eq!(fr.high_watermark, 6, "visible hwm is the cap");
        assert!(log.fetch_capped(6, 100, 6).unwrap().records.is_empty());
        // cap above log end clamps to log end
        assert_eq!(log.fetch_capped(0, 100, 99).unwrap().records.len(), 10);
        // below log start still errors
        log.truncate_all();
        assert!(log.fetch_capped(0, 10, 99).is_err());
    }

    #[test]
    fn truncate_to_drops_only_the_tail() {
        let log = PartitionLog::new(0, 0);
        for i in 0..10 {
            log.append(rec(i), i);
        }
        assert_eq!(log.truncate_to(7), 3);
        assert_eq!(log.high_watermark(), 7);
        let fr = log.fetch(0, 100).unwrap();
        assert_eq!(fr.records.len(), 7);
        assert_eq!(
            fr.records.last().unwrap().record.value.get_int("i"),
            Some(6)
        );
        // truncating at/after the end is a no-op
        assert_eq!(log.truncate_to(7), 0);
        assert_eq!(log.truncate_to(100), 0);
        // appends continue from the truncation point
        assert_eq!(log.append(rec(77), 77), 7);
    }

    #[test]
    fn time_retention_trims_head() {
        let log = PartitionLog::new(1000, 0);
        for i in 0..10 {
            log.append(rec(i), i * 100); // appended at t=0..900
        }
        // appending at t=2000 expires everything older than t=1000
        log.append(rec(99), 2000);
        assert!(
            log.log_start_offset() >= 10,
            "start={}",
            log.log_start_offset()
        );
        let err = log.fetch(0, 10).unwrap_err();
        assert!(matches!(err, Error::OffsetOutOfRange { .. }));
        // the retained tail is still fetchable
        let fr = log.fetch(log.log_start_offset(), 10).unwrap();
        assert_eq!(
            fr.records.last().unwrap().record.value.get_int("i"),
            Some(99)
        );
    }

    #[test]
    fn size_retention_bounds_bytes() {
        let log = PartitionLog::new(0, 2_000);
        for i in 0..1000 {
            log.append(rec(i), 0);
        }
        assert!(log.bytes() <= 2_000 + 200, "bytes={}", log.bytes());
        assert!(log.log_start_offset() > 0);
        assert_eq!(log.high_watermark(), 1000);
    }

    #[test]
    fn a_forwarded_record_is_shared_not_copied() {
        let src = PartitionLog::new(0, 0);
        let dst = PartitionLog::new(0, 0);
        src.append(rec(1), 0);
        let entry = src.fetch(0, 1).unwrap().records.remove(0);
        dst.append(entry.record.clone(), 0);
        assert!(Arc::ptr_eq(
            &entry.record,
            &dst.fetch(0, 1).unwrap().records[0].record
        ));
        assert_eq!(dst.bytes(), src.bytes());
    }

    #[test]
    fn concurrent_appends_never_lose_records() {
        use std::sync::Arc;
        let log = Arc::new(PartitionLog::new(0, 0));
        let mut handles = Vec::new();
        for t in 0..8 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    log.append(rec(t * 1000 + i), 0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.high_watermark(), 8000);
        assert_eq!(log.fetch(0, 10_000).unwrap().records.len(), 8000);
    }
}
