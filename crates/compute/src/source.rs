//! Sources: where jobs read records from.
//!
//! - [`VecSource`]: bounded in-memory source for tests and examples;
//! - [`TopicSource`]: the Kafka source — reads a topic's partitions with
//!   checkpointable positions; bounded ("read to current end", used by
//!   catch-up runs) or unbounded;
//! - [`UnionSource`]: merges several sources, tagging each record with its
//!   stream name — the input shape [`crate::operator::WindowJoinOp`]
//!   expects;
//! - [`HiveSource`]: the Kappa+ (§7) read path — streams archived rows of
//!   a warehouse table in event-time order as if they were live, with a
//!   throughput throttle ("handling the higher throughput from the
//!   historic data with throttling").

use crate::operator::STREAM_TAG;
use rtdi_common::{Error, Record, Result, Row, Timestamp};
use rtdi_storage::hive::HiveTable;
use rtdi_stream::topic::Topic;
use std::sync::Arc;

/// A record source with checkpointable progress.
pub trait Source: Send {
    /// Pull up to `max` records as handles. The source may keep a handle to
    /// every record it hands out (the stream log and the in-memory sources
    /// do, so a poll is a reference bump and a seek can replay), which is
    /// why nothing downstream writes through one: a stage that changes a
    /// record emits a new one. An empty result from a bounded source means
    /// exhaustion; from an unbounded source it means "nothing right now".
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>>;

    /// Bounded sources report completion.
    fn is_exhausted(&self) -> bool;

    /// Progress vector for checkpoints (per-partition offsets, or a single
    /// cursor).
    fn position(&self) -> Vec<u64>;

    /// Rewind to a checkpointed position.
    fn seek(&mut self, position: &[u64]) -> Result<()>;
}

/// Bounded source over an in-memory vector. Records are held behind
/// `Arc` so the batched runtime's shared poll is a reference bump.
pub struct VecSource {
    records: Vec<Arc<Record>>,
    cursor: usize,
}

impl VecSource {
    pub fn new(records: Vec<Record>) -> Self {
        VecSource {
            records: records.into_iter().map(Arc::new).collect(),
            cursor: 0,
        }
    }

    /// Convenience: rows with explicit timestamps.
    pub fn from_rows(rows: Vec<(Timestamp, Row)>) -> Self {
        VecSource::new(
            rows.into_iter()
                .map(|(ts, row)| Record::new(row, ts))
                .collect(),
        )
    }
}

impl Source for VecSource {
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let end = (self.cursor + max).min(self.records.len());
        let batch = self.records[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(batch)
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.records.len()
    }

    fn position(&self) -> Vec<u64> {
        vec![self.cursor as u64]
    }

    fn seek(&mut self, position: &[u64]) -> Result<()> {
        self.cursor = position.first().copied().unwrap_or(0) as usize;
        Ok(())
    }
}

/// Source over a stream topic with per-partition positions.
pub struct TopicSource {
    topic: Arc<Topic>,
    positions: Vec<u64>,
    /// For bounded mode: stop at these high watermarks (captured at
    /// construction). `None` = unbounded.
    end_offsets: Option<Vec<u64>>,
    next_partition: usize,
}

impl TopicSource {
    /// Unbounded: keeps returning new records as they are produced.
    pub fn unbounded(topic: Arc<Topic>) -> Self {
        let n = topic.num_partitions();
        TopicSource {
            topic,
            positions: vec![0; n],
            end_offsets: None,
            next_partition: 0,
        }
    }

    /// Bounded: reads from the current log start to the current end.
    /// Errors (rather than panicking) if the topic's partition map is
    /// inconsistent — e.g. a partition dropped between the watermark
    /// snapshot and here.
    pub fn bounded(topic: Arc<Topic>) -> Result<Self> {
        let ends = topic.high_watermarks();
        let n = topic.num_partitions();
        let starts = (0..n)
            .map(|p| {
                topic
                    .partition(p)
                    .map(|part| part.log_start_offset())
                    .ok_or_else(|| {
                        Error::NotFound(format!("topic '{}' partition {p}", topic.name()))
                    })
            })
            .collect::<Result<Vec<u64>>>()?;
        Ok(TopicSource {
            topic,
            positions: starts,
            end_offsets: Some(ends),
            next_partition: 0,
        })
    }
}

impl Source for TopicSource {
    /// Fetches an even share from *every* partition and emits the combined
    /// batch in event-time order. Draining partitions one at a time would
    /// manufacture cross-partition out-of-orderness and make watermarks
    /// drop perfectly-good records as late — Flink's Kafka source solves
    /// the same problem with per-partition watermark alignment.
    ///
    /// Zero-copy fetch: the log stores the `Arc<Record>` it was appended
    /// with, and the combined batch holds those same handles.
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let n = self.topic.num_partitions();
        let per_partition = (max / n).max(1);
        let mut out: Vec<Arc<Record>> = Vec::new();
        for _ in 0..n {
            let p = self.next_partition;
            self.next_partition = (self.next_partition + 1) % n;
            let limit = match &self.end_offsets {
                Some(ends) => {
                    if self.positions[p] >= ends[p] {
                        continue;
                    }
                    ((ends[p] - self.positions[p]) as usize).min(per_partition)
                }
                None => per_partition,
            };
            if limit == 0 || out.len() >= max {
                continue;
            }
            let fetch = match self.topic.fetch(p, self.positions[p], limit) {
                Ok(f) => f,
                Err(rtdi_common::Error::OffsetOutOfRange { low, .. }) => {
                    self.positions[p] = low;
                    self.topic.fetch(p, low, limit)?
                }
                Err(e) => return Err(e),
            };
            if let Some(last) = fetch.records.last() {
                self.positions[p] = last.offset + 1;
            }
            out.extend(fetch.records.into_iter().map(|r| r.record));
        }
        out.sort_by_key(|r| r.timestamp);
        Ok(out)
    }

    fn is_exhausted(&self) -> bool {
        match &self.end_offsets {
            Some(ends) => self.positions.iter().zip(ends).all(|(pos, end)| pos >= end),
            None => false,
        }
    }

    fn position(&self) -> Vec<u64> {
        self.positions.clone()
    }

    fn seek(&mut self, position: &[u64]) -> Result<()> {
        if position.len() != self.positions.len() {
            return Err(rtdi_common::Error::InvalidArgument(
                "position vector length mismatch".into(),
            ));
        }
        self.positions = position.to_vec();
        Ok(())
    }
}

/// Merges multiple named sources, tagging records with their origin.
pub struct UnionSource {
    sources: Vec<(String, Box<dyn Source>)>,
    next: usize,
}

impl UnionSource {
    pub fn new(sources: Vec<(String, Box<dyn Source>)>) -> Self {
        UnionSource { sources, next: 0 }
    }
}

impl Source for UnionSource {
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let n = self.sources.len();
        let mut out = Vec::new();
        for _ in 0..n {
            let i = self.next;
            self.next = (self.next + 1) % n;
            let (tag, src) = &mut self.sources[i];
            let batch = src.poll_batch(max.saturating_sub(out.len()).max(1))?;
            for mut rec in batch {
                // changes the payload (adds the tag cell): in place on a
                // record held alone, else a new record around the new row
                match Arc::get_mut(&mut rec) {
                    Some(owned) => owned.value.set(STREAM_TAG, tag.as_str()),
                    None => {
                        let mut row = rec.value.clone();
                        row.set(STREAM_TAG, tag.as_str());
                        rec = Arc::new(rec.rewritten(row));
                    }
                }
                out.push(rec);
            }
            if out.len() >= max {
                break;
            }
        }
        Ok(out)
    }

    fn is_exhausted(&self) -> bool {
        self.sources.iter().all(|(_, s)| s.is_exhausted())
    }

    fn position(&self) -> Vec<u64> {
        // concatenated with per-source length prefix
        let mut out = Vec::new();
        for (_, s) in &self.sources {
            let pos = s.position();
            out.push(pos.len() as u64);
            out.extend(pos);
        }
        out
    }

    fn seek(&mut self, position: &[u64]) -> Result<()> {
        let mut idx = 0;
        for (_, s) in &mut self.sources {
            let len = *position
                .get(idx)
                .ok_or_else(|| rtdi_common::Error::InvalidArgument("short union position".into()))?
                as usize;
            idx += 1;
            let slice = position.get(idx..idx + len).ok_or_else(|| {
                rtdi_common::Error::InvalidArgument("short union position".into())
            })?;
            s.seek(slice)?;
            idx += len;
        }
        Ok(())
    }
}

/// Kappa+ source: replays archived rows of a Hive table, in event-time
/// order, at a bounded records-per-poll rate.
pub struct HiveSource {
    rows: Vec<Arc<Record>>,
    cursor: usize,
    /// Max records handed out per poll regardless of the requested batch —
    /// the Kappa+ throttle that protects downstream operators from
    /// full-speed historic reads.
    throttle_per_poll: usize,
}

impl HiveSource {
    /// Load the `[from, to)` event-time range of the table. The `__ts`
    /// column (added by the archival compactor) provides event time.
    /// `select` names the columns the job reads — only those are decoded
    /// into the records' rows; `None` decodes every column.
    pub fn new(
        table: &HiveTable,
        from: Timestamp,
        to: Timestamp,
        throttle_per_poll: usize,
        select: Option<&[String]>,
    ) -> Result<Self> {
        let mut rows = table.scan_range_timed(from, to, select)?;
        // archived data "could be out of order": restore event-time order
        // here so the pipeline's lateness buffer needs stay bounded. Each
        // compacted part is in order already, so this stable sort merges
        // one run per part
        rows.sort_by_key(|(ts, _)| *ts);
        let records = rows
            .into_iter()
            .map(|(ts, row)| Arc::new(Record::new(row, ts)))
            .collect();
        Ok(HiveSource {
            rows: records,
            cursor: 0,
            throttle_per_poll: throttle_per_poll.max(1),
        })
    }
}

impl Source for HiveSource {
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let take = max.min(self.throttle_per_poll);
        let end = (self.cursor + take).min(self.rows.len());
        let batch = self.rows[self.cursor..end].to_vec();
        self.cursor = end;
        Ok(batch)
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.rows.len()
    }

    fn position(&self) -> Vec<u64> {
        vec![self.cursor as u64]
    }

    fn seek(&mut self, position: &[u64]) -> Result<()> {
        self.cursor = position.first().copied().unwrap_or(0) as usize;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_stream::topic::TopicConfig;

    fn topic(partitions: usize, records: usize) -> Arc<Topic> {
        let t =
            Arc::new(Topic::new("t", TopicConfig::default().with_partitions(partitions)).unwrap());
        for i in 0..records {
            t.append(
                Record::new(Row::new().with("i", i as i64), i as i64).with_key(format!("k{i}")),
                0,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn vec_source_drains_and_seeks() {
        let mut s = VecSource::from_rows((0..10).map(|i| (i, Row::new().with("i", i))).collect());
        assert_eq!(s.poll_batch(4).unwrap().len(), 4);
        assert_eq!(s.position(), vec![4]);
        s.seek(&[8]).unwrap();
        assert_eq!(s.poll_batch(10).unwrap().len(), 2);
        assert!(s.is_exhausted());
        assert!(s.poll_batch(10).unwrap().is_empty());
    }

    #[test]
    fn poll_is_a_reference_bump_not_a_deep_copy() {
        let mut s = VecSource::from_rows((0..6).map(|i| (i, Row::new().with("i", i))).collect());
        let shared = s.poll_batch(4).unwrap();
        assert_eq!(shared.len(), 4);
        // the source still holds its own Arc: sharing, not deep copies
        assert!(Arc::strong_count(&shared[0]) >= 2);
        assert_eq!(s.position(), vec![4]);
        // the topic source shares the log's own entries the same way
        let mut t = TopicSource::bounded(topic(2, 10)).unwrap();
        let polled = t.poll_batch(10).unwrap();
        assert_eq!(polled.len(), 10);
        assert!(Arc::strong_count(&polled[0]) >= 2);
    }

    #[test]
    fn bounded_topic_source_reads_to_snapshot_end() {
        let t = topic(3, 30);
        let mut s = TopicSource::bounded(t.clone()).unwrap();
        // records appended after construction are not part of this run
        t.append(
            Record::new(Row::new().with("i", 999i64), 0).with_key("late"),
            0,
        )
        .unwrap();
        let mut total = 0;
        while !s.is_exhausted() {
            let batch = s.poll_batch(7).unwrap();
            total += batch.len();
            assert!(batch.iter().all(|r| r.value.get_int("i") != Some(999)));
        }
        assert_eq!(total, 30);
    }

    #[test]
    fn unbounded_topic_source_sees_new_records() {
        let t = topic(2, 4);
        let mut s = TopicSource::unbounded(t.clone());
        assert_eq!(s.poll_batch(100).unwrap().len(), 4);
        assert!(!s.is_exhausted());
        assert!(s.poll_batch(100).unwrap().is_empty());
        t.append(Record::new(Row::new().with("i", 5i64), 0).with_key("x"), 0)
            .unwrap();
        assert_eq!(s.poll_batch(100).unwrap().len(), 1);
    }

    #[test]
    fn topic_source_checkpoint_roundtrip() {
        let t = topic(2, 20);
        let mut s = TopicSource::bounded(t.clone()).unwrap();
        s.poll_batch(6).unwrap();
        let pos = s.position();
        let consumed_after: usize = {
            let mut s2 = TopicSource::bounded(t).unwrap();
            s2.seek(&pos).unwrap();
            let mut n = 0;
            while !s2.is_exhausted() {
                n += s2.poll_batch(100).unwrap().len();
            }
            n
        };
        assert_eq!(consumed_after, 14);
        assert!(s.seek(&[0]).is_err(), "length mismatch rejected");
    }

    #[test]
    fn union_source_tags_streams() {
        let a = VecSource::from_rows(vec![(0, Row::new().with("x", 1i64))]);
        let b = VecSource::from_rows(vec![(1, Row::new().with("y", 2i64))]);
        let mut u = UnionSource::new(vec![
            ("left".into(), Box::new(a)),
            ("right".into(), Box::new(b)),
        ]);
        let mut all = Vec::new();
        while !u.is_exhausted() {
            all.extend(u.poll_batch(10).unwrap());
        }
        assert_eq!(all.len(), 2);
        let tags: Vec<&str> = all
            .iter()
            .map(|r| r.value.get_str(STREAM_TAG).unwrap())
            .collect();
        assert!(tags.contains(&"left") && tags.contains(&"right"));
    }

    #[test]
    fn union_position_roundtrip() {
        let mk = || {
            UnionSource::new(vec![
                (
                    "a".into(),
                    Box::new(VecSource::from_rows(
                        (0..5).map(|i| (i, Row::new().with("i", i))).collect(),
                    )) as Box<dyn Source>,
                ),
                (
                    "b".into(),
                    Box::new(VecSource::from_rows(
                        (0..5).map(|i| (i, Row::new().with("i", i))).collect(),
                    )) as Box<dyn Source>,
                ),
            ])
        };
        let mut u = mk();
        u.poll_batch(3).unwrap();
        let pos = u.position();
        let mut u2 = mk();
        u2.seek(&pos).unwrap();
        let mut rest = 0;
        while !u2.is_exhausted() {
            rest += u2.poll_batch(100).unwrap().len();
        }
        assert_eq!(rest, 7);
    }

    #[test]
    fn hive_source_orders_and_throttles() {
        use rtdi_storage::hive::HiveCatalog;
        use rtdi_storage::object::InMemoryStore;
        let store = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store);
        let schema = rtdi_common::Schema::of(
            "t",
            &[
                ("v", rtdi_common::FieldType::Int),
                ("__ts", rtdi_common::FieldType::Timestamp),
            ],
        );
        let table = catalog.create_table("t", schema).unwrap();
        // write out of order
        let rows: Vec<Row> = [5i64, 1, 9, 3, 7]
            .iter()
            .map(|&ts| Row::new().with("v", ts).with("__ts", ts))
            .collect();
        catalog.write_rows("t", "d000000", &rows).unwrap();
        let mut s = HiveSource::new(&table, 0, 100, 2, None).unwrap();
        let b1 = s.poll_batch(100).unwrap();
        assert_eq!(b1.len(), 2, "throttle caps the batch");
        assert_eq!(b1[0].timestamp, 1, "event-time order restored");
        assert_eq!(b1[1].timestamp, 3);
        let mut rest = Vec::new();
        while !s.is_exhausted() {
            rest.extend(s.poll_batch(100).unwrap());
        }
        assert_eq!(rest.len(), 3);
        assert_eq!(rest.last().unwrap().timestamp, 9);
    }
}
