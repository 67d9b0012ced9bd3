//! Sources: where jobs read records from.
//!
//! - [`VecSource`]: bounded in-memory source for tests and examples;
//! - [`TopicSource`]: the Kafka source — follows a topic's
//!   [`TopicSubscription`] across a migration and reads it through a
//!   [`CursorSet`] (committed records only, a transient fetch fault ridden
//!   out in place, a retention jump counted in [`TopicSource::skipped`]),
//!   whose positions are the checkpoint; bounded ("read to current end",
//!   used by catch-up runs) or unbounded;
//! - [`UnionSource`]: merges several sources, tagging each record with its
//!   stream name — the input shape [`crate::operator::WindowJoinOp`]
//!   expects;
//! - [`HiveSource`]: the Kappa+ (§7) read path — streams archived rows of
//!   a warehouse table in event-time order as if they were live, with a
//!   throughput throttle ("handling the higher throughput from the
//!   historic data with throttling"). It plans the range from zone maps,
//!   decodes one group of overlapping part files at a time and builds the
//!   records of one poll at a time, so its memory follows the part it
//!   reads, not the range ("fine tuning job memory").
//!
//! Every source owns its event time ([`Source::event_time`]): the minimum
//! over its live inputs of the largest timestamp each handed out, which
//! the staged pump and the reference runner turn into the job's
//! watermark.

use crate::operator::STREAM_TAG;
use rtdi_common::{Error, Record, Result, Row, SetColumn, Timestamp};
use rtdi_storage::hive::{time_order, HiveTable, TimedDoc};
use rtdi_storage::segfile::{RowReader, SegmentFile};
use rtdi_stream::consumer::TopicSubscription;
use rtdi_stream::topic::CursorSet;
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

    /// Take back records the job's first stage is done with, leaving
    /// `spent` empty. Another stage, a sink or a checkpoint may still hold
    /// one, so a source writes a record only when it holds the last handle
    /// ([`Arc::get_mut`]) and otherwise drops it. This default drops them
    /// all; [`HiveSource`] refills the ones it holds alone.
    fn recycle(&mut self, spent: &mut Vec<Arc<Record>>) {
        spent.clear();
    }

    /// Bounded sources report completion.
    fn is_exhausted(&self) -> bool;

    /// Progress vector for checkpoints (per-partition offsets, or a single
    /// cursor).
    fn position(&self) -> Vec<u64>;

    /// Rewind to a checkpointed position. What the source reached in
    /// event time starts over: a restored source has seen nothing.
    fn seek(&mut self, position: &[u64]) -> Result<()>;

    /// The event time every live input has reached: the largest timestamp
    /// each partition or child handed out, and the minimum of those over
    /// the inputs that have more to give. An idle input (a bounded
    /// partition at its end, an unbounded one drained to its committed
    /// watermark, a child that is exhausted or whose last poll came back
    /// empty) does not hold it back; when every input is idle it is the
    /// largest time handed out. `Timestamp::MIN` until every live input
    /// handed something out. The staged pump and the reference runner turn
    /// it into a watermark with [`crate::watermark::watermark`].
    fn event_time(&self) -> Timestamp;
}

/// The minimum time over the live inputs, or the maximum over all of them
/// when every input is idle: `(reached, idle)` per input.
fn min_over_live(inputs: impl Iterator<Item = (Timestamp, bool)>) -> Timestamp {
    let (mut live, mut all) = (Timestamp::MAX, Timestamp::MIN);
    for (reached, idle) in inputs {
        all = all.max(reached);
        if !idle {
            live = live.min(reached);
        }
    }
    live.min(all)
}

/// Bounded source over an in-memory vector. Records are held behind
/// `Arc` so the batched runtime's shared poll is a reference bump.
pub struct VecSource {
    records: Vec<Arc<Record>>,
    cursor: usize,
    reached: Timestamp,
}

impl VecSource {
    pub fn new(records: Vec<Record>) -> Self {
        VecSource {
            records: records.into_iter().map(Arc::new).collect(),
            cursor: 0,
            reached: Timestamp::MIN,
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
        self.reached = (batch.iter().map(|r| r.timestamp)).fold(self.reached, Timestamp::max);
        Ok(batch)
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.records.len()
    }

    fn position(&self) -> Vec<u64> {
        vec![self.cursor as u64]
    }

    fn seek(&mut self, position: &[u64]) -> Result<()> {
        match *position {
            [cursor] if cursor as usize <= self.records.len() => {
                (self.cursor, self.reached) = (cursor as usize, Timestamp::MIN);
                Ok(())
            }
            _ => Err(Error::InvalidArgument(format!(
                "position {position:?} is not a cursor into {} records",
                self.records.len()
            ))),
        }
    }

    fn event_time(&self) -> Timestamp {
        self.reached
    }
}

/// Source over a stream topic, read through a [`CursorSet`]: it resolves
/// its subscription once per poll, so a migrated topic is read where it
/// moved, and rides out a transient fetch fault in place.
pub struct TopicSource {
    cursors: CursorSet,
    /// Per cursor: the largest event time it handed out, and whether the
    /// last poll that fetched from it left it with nothing more to give.
    reached: Vec<(Timestamp, bool)>,
    /// For bounded mode: stop at these high watermarks (captured at
    /// construction). `None` = unbounded.
    end_offsets: Option<Vec<u64>>,
}

impl TopicSource {
    /// Unbounded: keeps returning new records as they are produced.
    pub fn unbounded(subscription: impl Into<TopicSubscription>) -> Self {
        let cursors = CursorSet::from_zero(subscription);
        TopicSource {
            reached: vec![(Timestamp::MIN, false); cursors.cursors.len()],
            cursors,
            end_offsets: None,
        }
    }

    /// Bounded: reads from the current log start to the current end, which
    /// a later migration of the topic does not move. Errors (rather than
    /// panicking) if the topic's partition map is inconsistent — e.g. a
    /// partition dropped between the watermark snapshot and here.
    pub fn bounded(subscription: impl Into<TopicSubscription>) -> Result<Self> {
        let cursors = CursorSet::at_log_start(subscription)?;
        Ok(TopicSource {
            reached: vec![(Timestamp::MIN, false); cursors.cursors.len()],
            end_offsets: Some(cursors.topic().committed_watermarks()),
            cursors,
        })
    }

    /// Records retention removed before this source read them.
    pub fn skipped(&self) -> u64 {
        self.cursors.skipped()
    }

    /// One pass over the partitions, in a refill only those whose last
    /// fetch came back full: each fetches up to `share` records into
    /// `out`, short of its bound and of `max` in `out`, and notes what it
    /// reached. Returns how many fetches came back full, so their
    /// partitions may hold more, and whether every partition had its turn.
    /// A partition that a failed fetch kept from its turn keeps what its
    /// last fetch found: it is idle only once a fetch found it drained.
    fn pass(
        &mut self,
        refill: bool,
        share: usize,
        max: usize,
        out: &mut Vec<(Timestamp, Arc<Record>)>,
    ) -> Result<(usize, bool)> {
        let TopicSource {
            cursors,
            reached,
            end_offsets,
        } = self;
        let mut full = 0;
        let complete = cursors.poll(|turn| {
            let p = turn.cursor.partition;
            let (reached, idle) = &mut reached[p];
            if refill && *idle {
                return Ok(());
            }
            let end = end_offsets.as_ref().map(|ends| ends[p]);
            let limit = match end {
                Some(end) => (end.saturating_sub(turn.cursor.position) as usize).min(share),
                None => share,
            };
            if limit == 0 || out.len() >= max {
                // at its end a bounded partition is idle; one skipped for a
                // full batch keeps what its last fetch found
                *idle |= limit == 0;
                return Ok(());
            }
            let mut records = turn.fetch(limit)?;
            let cursor = &mut *turn.cursor;
            // the bound holds for what the fetch returned: a cursor that
            // retention moved past its end delivers nothing, and of what it
            // jumped over only the offsets below the end count
            if let Some(end) = end {
                records.retain(|r| r.offset < end);
                if cursor.position > end {
                    cursor.skipped -= cursor.position - end;
                    cursor.position = end;
                }
            }
            cursor.consumed(&records);
            // a fetch short of its limit found the partition drained
            *idle = records.len() < limit;
            *reached = (records.iter()).fold(*reached, |t, r| t.max(r.record.timestamp));
            out.extend(records.into_iter().map(|r| (r.record.timestamp, r.record)));
            full += usize::from(!*idle);
            Ok(())
        })?;
        Ok((full, complete))
    }
}

impl Source for TopicSource {
    /// Fetches an even share from *every* partition, then hands what is
    /// left of `max` to the partitions whose fetch came back full, in the
    /// same order, until the poll is full or they drain: once the cold
    /// partitions of a skewed topic drain, a poll is still `max` records
    /// while any partition holds that many. The combined batch is in
    /// event-time order. Each partition keeps the largest event time it
    /// handed out, and [`Source::event_time`] is their minimum over the
    /// partitions with more to give: a hot partition that lags in event
    /// time holds the watermark back for its own records, while one that
    /// a fetch drained (or a bounded one at its end) is idle and holds
    /// nothing back.
    ///
    /// A fetch that fails for good ends the poll with what the partitions
    /// before it delivered (the [`CursorSet`] contract); the poll is an
    /// error only when it delivered nothing.
    ///
    /// Zero-copy fetch: the log stores the `Arc<Record>` it was appended
    /// with, and the combined batch holds those same handles.
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let n = self.reached.len();
        let mut out = Vec::new();
        let (mut full, mut complete) = self.pass(false, (max / n).max(1), max, &mut out)?;
        while complete && out.len() < max && full > 0 {
            let share = ((max - out.len()) / full).max(1);
            (full, complete) = match self.pass(true, share, max, &mut out) {
                Ok(refill) => refill,
                Err(_) if !out.is_empty() => break,
                Err(e) => return Err(e),
            };
        }
        // the timestamp beside each handle: the sort reads no record
        out.sort_by_key(|&(ts, _)| ts);
        Ok(out.into_iter().map(|(_, record)| record).collect())
    }

    fn is_exhausted(&self) -> bool {
        match &self.end_offsets {
            Some(ends) => (self.cursors.cursors.iter())
                .zip(ends)
                .all(|(c, &end)| c.position >= end),
            None => false,
        }
    }

    fn position(&self) -> Vec<u64> {
        self.cursors.cursors.iter().map(|c| c.position).collect()
    }

    fn seek(&mut self, position: &[u64]) -> Result<()> {
        let cursors = &mut self.cursors.cursors;
        if position.len() != cursors.len() {
            return Err(Error::InvalidArgument(
                "position vector length mismatch".into(),
            ));
        }
        for (cursor, &offset) in cursors.iter_mut().zip(position) {
            cursor.position = offset;
        }
        self.reached.fill((Timestamp::MIN, false));
        Ok(())
    }

    fn event_time(&self) -> Timestamp {
        min_over_live(self.reached.iter().copied())
    }
}

/// Merges multiple named sources, tagging records with their origin.
pub struct UnionSource {
    sources: Vec<(String, Box<dyn Source>)>,
    /// Sets the tag cell, one per source.
    tags: Vec<SetColumn>,
    /// Per source: its last poll came back empty.
    drained: Vec<bool>,
    next: usize,
}

impl UnionSource {
    pub fn new(sources: Vec<(String, Box<dyn Source>)>) -> Self {
        let tags = sources.iter().map(|_| SetColumn::new(STREAM_TAG)).collect();
        UnionSource {
            drained: vec![false; sources.len()],
            sources,
            tags,
            next: 0,
        }
    }
}

impl Source for UnionSource {
    /// Polls the children in turn until the poll is full. A child whose
    /// poll fails ends this one with what the children before it
    /// delivered, and is polled first next time; the poll is an error only
    /// when that child came first. A failed child keeps its idle mark.
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let n = self.sources.len();
        let mut out = Vec::new();
        for turn in 0..n {
            let i = self.next;
            let (tag, src) = &mut self.sources[i];
            let batch = match src.poll_batch(max.saturating_sub(out.len()).max(1)) {
                Ok(batch) => batch,
                Err(e) if turn == 0 => return Err(e),
                Err(_) => break,
            };
            self.next = (self.next + 1) % n;
            self.drained[i] = batch.is_empty();
            for mut rec in batch {
                // changes the payload (adds the tag cell): in place on a
                // record held alone, else a new record around the new row
                let row = self.tags[i].apply(&rec.value, tag.as_str().into());
                match Arc::get_mut(&mut rec) {
                    Some(owned) => owned.value = row,
                    None => rec = Arc::new(rec.rewritten(row)),
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
        self.drained.fill(false);
        Ok(())
    }

    /// The minimum over the children that have more to give: a child that
    /// is exhausted, or whose last poll came back empty, is idle.
    fn event_time(&self) -> Timestamp {
        let children = self.sources.iter().zip(&self.drained);
        min_over_live(
            children.map(|((_, s), &drained)| (s.event_time(), drained || s.is_exhausted())),
        )
    }
}

/// Kappa+ source: replays archived rows of a Hive table, in event-time
/// order, at a bounded records-per-poll rate, holding one group of part
/// files decoded at a time and no row beyond the poll that builds it.
///
/// The range is planned from zone maps alone ([`HiveTable::time_groups`]).
/// A group decodes its `__ts` column and the selected columns when it is
/// first polled, replays in [`time_order`] and drops what it decoded once
/// drained. The position is `[group, offset in its order]`.
///
/// Records the job hands back ([`Source::recycle`]) are built into again:
/// a returned record this source holds alone takes the next row's cells
/// in its own cell slice and is reset to a record of that row alone, so
/// a backfill at full speed reuses the records in flight instead of
/// allocating two a row.
pub struct HiveSource {
    groups: Vec<Vec<SegmentFile>>,
    from: Timestamp,
    to: Timestamp,
    select: Option<Vec<String>>,
    /// The group being replayed and how many of its rows were handed out:
    /// the whole of the progress. `open` is that group decoded.
    group: usize,
    offset: usize,
    open: Option<OpenGroup>,
    /// The largest event time handed out since the start or the last seek.
    reached: Timestamp,
    /// Max records handed out per poll regardless of the requested batch —
    /// the Kappa+ throttle that protects downstream operators from
    /// full-speed historic reads.
    throttle_per_poll: usize,
    /// Records handed back, each refilled if nothing else holds it by the
    /// time a row needs it: at most the job's records in flight.
    spent: Vec<Arc<Record>>,
}

/// One group's replay order and a row reader per part of it.
struct OpenGroup {
    order: Vec<TimedDoc>,
    readers: Vec<RowReader>,
}

impl HiveSource {
    /// Plan the `[from, to)` event-time range of the table: its part files
    /// are opened (header and CRC) and grouped, and no column is decoded.
    /// The `__ts` column (added by the archival compactor) provides event
    /// time; a row without one replays at time 0. `select` names the
    /// columns the job reads — only those are decoded into the records'
    /// rows; `None` decodes every column.
    pub fn new(
        table: &HiveTable,
        from: Timestamp,
        to: Timestamp,
        throttle_per_poll: usize,
        select: Option<&[String]>,
    ) -> Result<Self> {
        Ok(HiveSource {
            groups: table.time_groups(from, to)?,
            from,
            to,
            select: select.map(<[String]>::to_vec),
            group: 0,
            offset: 0,
            open: None,
            reached: Timestamp::MIN,
            throttle_per_poll: throttle_per_poll.max(1),
            spent: Vec::new(),
        })
    }

    /// Decode group `g`: its `__ts` column for the order, the selected
    /// columns for the rows.
    fn open_group(&self, g: usize) -> Result<OpenGroup> {
        let parts = &self.groups[g];
        let order = time_order(parts, self.from, self.to)?;
        let select = self.select.as_deref();
        let readers = parts
            .iter()
            .map(|file| file.row_reader(select))
            .collect::<Result<_>>()?;
        Ok(OpenGroup { order, readers })
    }

    /// Drop what the open group decoded, in the source and in its files.
    fn close_group(&mut self) {
        self.open = None;
        self.unload(self.group);
    }

    fn unload(&mut self, g: usize) {
        if let Some(parts) = self.groups.get_mut(g) {
            parts.iter_mut().for_each(SegmentFile::unload);
        }
    }

    /// The record of `doc`: the next spent record refilled when this
    /// source holds its last handle, else a new one (a spent record
    /// something else still holds is dropped).
    fn record_of(&mut self, reader: &RowReader, doc: usize, ts: Timestamp) -> Result<Arc<Record>> {
        if let Some(mut rec) = self.spent.pop() {
            if let Some(owned) = Arc::get_mut(&mut rec) {
                let mut row = std::mem::take(&mut owned.value);
                reader.fill_row(doc, &mut row)?;
                // no key, envelope or header outlives the row it came with
                *owned = Record::new(row, ts);
                return Ok(rec);
            }
        }
        Ok(Arc::new(Record::new(reader.row(doc)?, ts)))
    }
}

impl Source for HiveSource {
    fn poll_batch(&mut self, max: usize) -> Result<Vec<Arc<Record>>> {
        let take = max.min(self.throttle_per_poll);
        while take > 0 && self.group < self.groups.len() {
            let open = match self.open.take() {
                Some(open) => open,
                None => self.open_group(self.group)?,
            };
            let end = (self.offset + take).min(open.order.len());
            let mut batch = Vec::with_capacity(end - self.offset);
            for entry in &open.order[self.offset..end] {
                let reader = &open.readers[entry.part as usize];
                self.reached = self.reached.max(entry.ts);
                batch.push(self.record_of(reader, entry.doc as usize, entry.ts)?);
            }
            self.offset = end;
            if end < open.order.len() {
                self.open = Some(open);
                return Ok(batch);
            }
            self.close_group();
            (self.group, self.offset) = (self.group + 1, 0);
            if !batch.is_empty() {
                return Ok(batch);
            }
        }
        Ok(Vec::new())
    }

    fn recycle(&mut self, spent: &mut Vec<Arc<Record>>) {
        self.spent.append(spent);
    }

    fn is_exhausted(&self) -> bool {
        self.group >= self.groups.len()
    }

    fn position(&self) -> Vec<u64> {
        vec![self.group as u64, self.offset as u64]
    }

    /// Reopens the one group the position names and skips `offset`
    /// entries of its order without building a row.
    fn seek(&mut self, position: &[u64]) -> Result<()> {
        let &[group, offset] = position else {
            return Err(Error::InvalidArgument(format!(
                "a warehouse position is [group, offset], got {position:?}"
            )));
        };
        let (group, offset) = (group as usize, offset as usize);
        let past_end = || {
            Error::InvalidArgument(format!(
                "position {position:?} is past the end of the range"
            ))
        };
        self.close_group();
        if group < self.groups.len() {
            let open = match self.open_group(group) {
                Ok(open) if offset <= open.order.len() => open,
                other => {
                    self.unload(group);
                    return Err(other.err().unwrap_or_else(past_end));
                }
            };
            self.open = Some(open);
        } else if group > self.groups.len() || offset > 0 {
            return Err(past_end());
        }
        (self.group, self.offset) = (group, offset);
        self.reached = Timestamp::MIN;
        Ok(())
    }

    fn event_time(&self) -> Timestamp {
        self.reached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_stream::topic::{Topic, TopicConfig};

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
        assert_eq!(s.event_time(), 3);
        s.seek(&[8]).unwrap();
        assert_eq!(s.event_time(), Timestamp::MIN);
        assert_eq!(s.poll_batch(10).unwrap().len(), 2);
        assert_eq!(s.event_time(), 9);
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

    /// Sources hold the topic's subscription: across a migration between
    /// two polls an unbounded one reads each record once, the new ones
    /// where the topic moved, and a bounded one stops at the end it
    /// captured before the move.
    #[test]
    fn topic_sources_follow_a_migration() {
        use rtdi_stream::cluster::{Cluster, ClusterConfig};
        use rtdi_stream::federation::FederatedCluster;
        use rtdi_stream::producer::StreamEndpoint;
        let fed = FederatedCluster::new();
        for name in ["c1", "c2"] {
            fed.add_cluster(Cluster::new(name, ClusterConfig::default()));
        }
        fed.create_topic("t", TopicConfig::default().with_partitions(2))
            .unwrap();
        let send = |ids: std::ops::Range<i64>| {
            for i in ids {
                let rec = Record::new(Row::new().with("i", i), i).with_key(format!("k{i}"));
                fed.send("t", Arc::new(rec), 0).unwrap();
            }
        };
        let ids = |polled: Vec<Arc<Record>>| -> Vec<i64> {
            polled
                .iter()
                .map(|r| r.value.get_int("i").unwrap())
                .collect()
        };
        send(0..20);
        let mut live = TopicSource::unbounded(fed.subscribe("t").unwrap());
        let mut bounded = TopicSource::bounded(fed.subscribe("t").unwrap()).unwrap();
        let mut read = ids(live.poll_batch(15).unwrap());
        let mut read_bounded = ids(bounded.poll_batch(15).unwrap());
        assert_eq!((read.len(), read_bounded.len()), (15, 15));

        fed.migrate_topic("t", "c2").unwrap();
        send(20..30);
        read.extend(ids(live.poll_batch(100).unwrap()));
        assert!(live.poll_batch(100).unwrap().is_empty());
        read.sort_unstable();
        assert_eq!(read, (0..30).collect::<Vec<_>>());
        while !bounded.is_exhausted() {
            read_bounded.extend(ids(bounded.poll_batch(100).unwrap()));
        }
        read_bounded.sort_unstable();
        assert_eq!(read_bounded, (0..20).collect::<Vec<_>>());
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
    fn topic_event_time_is_the_minimum_over_live_partitions() {
        // partition 0 runs ahead in event time, 1 lags, 2 stays empty
        let t = Arc::new(Topic::new("t", TopicConfig::default().with_partitions(3)).unwrap());
        for i in 0..10i64 {
            let at = |ts| Record::new(Row::new().with("i", i), ts);
            t.append_to(0, at(100 * i), 0).unwrap();
            t.append_to(1, at(i), 0).unwrap();
        }
        let mut s = TopicSource::unbounded(t.clone());
        assert_eq!(s.event_time(), Timestamp::MIN, "nothing handed out");
        // two of each live partition, then one more of each: the empty
        // one's share goes to those whose fetch came back full
        assert_eq!(s.poll_batch(6).unwrap().len(), 6);
        assert_eq!(s.event_time(), 2, "the lagging partition holds it back");
        assert_eq!(s.poll_batch(60).unwrap().len(), 14);
        assert_eq!(s.event_time(), 900, "all drained: the largest time");
        s.seek(&[0, 0, 0]).unwrap();
        assert_eq!(s.event_time(), Timestamp::MIN, "a seek starts over");

        // bounded: a partition at its end holds nothing back
        let mut b = TopicSource::bounded(t).unwrap();
        assert_eq!(b.poll_batch(12).unwrap().len(), 12);
        assert_eq!(b.event_time(), 5, "the empty partition is at its end");
        assert_eq!(b.poll_batch(3).unwrap().len(), 3);
        assert_eq!(b.event_time(), 6);
    }

    #[test]
    fn union_event_time_skips_idle_children() {
        let times = |ts: &[i64]| {
            let rows = ts.iter().map(|&t| (t, Row::new().with("t", t))).collect();
            Box::new(VecSource::from_rows(rows)) as Box<dyn Source>
        };
        let mut u = UnionSource::new(vec![
            ("a".into(), times(&[0, 1, 2, 3])),
            ("b".into(), times(&[100, 101, 102])),
        ]);
        u.poll_batch(2).unwrap();
        assert_eq!(u.event_time(), Timestamp::MIN, "b handed out nothing yet");
        u.poll_batch(2).unwrap();
        assert_eq!(u.event_time(), 1, "a lags b");
        u.poll_batch(2).unwrap();
        assert_eq!(u.event_time(), 101, "a is exhausted");

        // an unbounded child that never receives a record holds nothing
        // back once a poll of it came back empty
        let empty = Arc::new(Topic::new("e", TopicConfig::default()).unwrap());
        let mut u = UnionSource::new(vec![
            ("a".into(), times(&[0, 1, 2, 3])),
            ("e".into(), Box::new(TopicSource::unbounded(empty))),
        ]);
        u.poll_batch(2).unwrap();
        assert_eq!(u.event_time(), Timestamp::MIN, "e not polled yet");
        u.poll_batch(1).unwrap();
        assert_eq!(u.event_time(), 2, "e came back empty");
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
        assert_eq!(s.event_time(), 3);
        let mut rest = Vec::new();
        while !s.is_exhausted() {
            rest.extend(s.poll_batch(100).unwrap());
        }
        assert_eq!(rest.len(), 3);
        assert_eq!(rest.last().unwrap().timestamp, 9);
    }

    fn warehouse() -> (rtdi_storage::hive::HiveCatalog, HiveTable) {
        use rtdi_common::FieldType;
        let store = Arc::new(rtdi_storage::object::InMemoryStore::new());
        let catalog = rtdi_storage::hive::HiveCatalog::new(store);
        let schema = rtdi_common::Schema::of(
            "trips",
            &[
                ("id", FieldType::Int),
                ("city", FieldType::Str),
                ("__ts", FieldType::Timestamp),
            ],
        );
        let table = catalog.create_table("trips", schema).unwrap();
        (catalog, table)
    }

    fn rows_for_day(day: i64, n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new()
                    .with("id", day * 1000 + i as i64)
                    .with("city", "sf")
                    .with("__ts", day * 86_400_000 + i as i64 * 1000)
            })
            .collect()
    }

    /// Every record of `[from, to)`, drained 3 at a time.
    fn drain(table: &HiveTable, from: Timestamp, to: Timestamp) -> Vec<(Timestamp, Row)> {
        let mut source = HiveSource::new(table, from, to, 3, None).unwrap();
        let mut out = Vec::new();
        while !source.is_exhausted() {
            let batch = source.poll_batch(100).unwrap();
            assert!(batch.len() <= 3);
            out.extend(batch.iter().map(|r| (r.timestamp, r.value.clone())));
        }
        out
    }

    #[test]
    fn hive_source_prunes_and_filters() {
        let (catalog, table) = warehouse();
        for day in 0..5 {
            catalog
                .write_rows(
                    "trips",
                    &rtdi_storage::archival::date_partition(day * 86_400_000),
                    &rows_for_day(day, 10),
                )
                .unwrap();
        }
        // range covering day 1 and first half of day 2
        let from = 86_400_000;
        let to = 2 * 86_400_000 + 5_000;
        let rows = drain(&table, from, to);
        // all 10 of day1 + 5 of day2 (ts < to means i*1000 < 5000 -> i in 0..5)
        assert_eq!(rows.len(), 15);
        let in_range =
            |(ts, r): &(i64, Row)| r.get_int("__ts") == Some(*ts) && (from..to).contains(ts);
        assert!(rows.iter().all(in_range));
        // empty and inverted ranges
        assert!(drain(&table, 100, 100).is_empty());
        assert!(drain(&table, 500, 100).is_empty());
    }

    #[test]
    fn hive_source_keeps_the_days_before_1970() {
        // date names sort backwards below day 0 ("d-00002" > "d-00001"):
        // a range over them must still find every row a filter finds, in
        // time order
        let (catalog, table) = warehouse();
        let day = 86_400_000;
        let times: Vec<i64> = (-3..3)
            .flat_map(|d| [d * day + 5, d * day + day / 2])
            .collect();
        for (id, &ts) in times.iter().enumerate() {
            let row = Row::new().with("id", id as i64).with("__ts", ts);
            let date = rtdi_storage::archival::date_partition(ts);
            catalog.write_rows("trips", &date, &[row]).unwrap();
        }
        let mut bounds: Vec<i64> = times.iter().flat_map(|&t| [t, t + 1]).collect();
        bounds.extend([-4 * day, -day, 0, 1, 4 * day]);
        for &from in &bounds {
            for &to in &bounds {
                let got: Vec<i64> = drain(&table, from, to)
                    .into_iter()
                    .map(|(ts, _)| ts)
                    .collect();
                let want: Vec<i64> = times
                    .iter()
                    .copied()
                    .filter(|ts| (from..to).contains(ts))
                    .collect();
                assert_eq!(got, want, "[{from}, {to})");
            }
        }
    }

    #[test]
    fn hive_source_tests_rows_only_where_a_file_straddles_a_bound() {
        use rtdi_storage::hive::{event_times, ts_cover, TsCover};
        let (catalog, table) = warehouse();
        let day = 86_400_000;
        // one date, three part files: ts 0..10k, 10k..20k, and one whose
        // rows carry no event time
        catalog
            .write_rows("trips", "d000000", &rows_for_day(0, 10))
            .unwrap();
        let later: Vec<Row> = (10..20)
            .map(|i| Row::new().with("id", i).with("__ts", i * 1000))
            .collect();
        catalog.write_rows("trips", "d000000", &later).unwrap();
        let untimed = vec![Row::new().with("id", 99i64), Row::new().with("id", 98i64)];
        catalog.write_rows("trips", "d000000", &untimed).unwrap();
        let files = table.open_range(0, day).unwrap();
        assert_eq!(files.len(), 3);
        let covers =
            |from, to| -> Vec<TsCover> { files.iter().map(|f| ts_cover(f, from, to)).collect() };
        use TsCover::*;
        assert_eq!(covers(0, day), vec![Inside, Inside, Inside]);
        assert_eq!(covers(0, 10_000), vec![Inside, Disjoint, Inside]);
        assert_eq!(covers(5_000, 15_000), vec![Straddles, Straddles, Inside]);
        // rows without an event time belong to every range, at time 0
        let got: Vec<(Timestamp, i64)> = drain(&table, 5_000, 15_000)
            .iter()
            .map(|(ts, r)| (*ts, r.get_int("id").unwrap()))
            .collect();
        let mut want: Vec<(Timestamp, i64)> = vec![(0, 99), (0, 98)];
        want.extend((5..15).map(|i| (i * 1000, i)));
        assert_eq!(got, want);
        assert_eq!(
            event_times(&files[2]).unwrap(),
            vec![None, None],
            "NULL event times"
        );
    }

    #[test]
    fn a_refilled_record_is_its_own_part_s_row_alone() {
        use rtdi_common::{FieldType, Schema};
        use rtdi_storage::object::ObjectStore;
        let store = Arc::new(rtdi_storage::object::InMemoryStore::new());
        let catalog = rtdi_storage::hive::HiveCatalog::new(store.clone());
        let shape = |col| {
            Schema::of(
                "t",
                &[(col, FieldType::Int), ("__ts", FieldType::Timestamp)],
            )
        };
        let table = catalog.create_table("t", shape("a")).unwrap();
        // one group of two parts whose rows interleave in time: two cells
        // each, under other names
        for (p, col) in ["a", "b"].into_iter().enumerate() {
            let rows: Vec<Row> = (0..4i64)
                .map(|i| Row::new().with(col, i).with("__ts", 2 * i + p as i64))
                .collect();
            let data = rtdi_storage::segfile::encode_rows_segment(&shape(col), col, &rows).unwrap();
            let key = format!("warehouse/t/d000000/part-{p}");
            store.put(&key, data).unwrap();
            catalog.register_partition("t", "d000000", &key, 4).unwrap();
        }
        let mut source = HiveSource::new(&table, 0, 100, 1, None).unwrap();
        let mut polled = source.poll_batch(1).unwrap();
        for ts in 1..7i64 {
            // whatever a record picked up before it came back
            let before = Arc::as_ptr(&polled[0]);
            let owned = Arc::get_mut(&mut polled[0]).unwrap();
            owned.key = Some("stale".into());
            owned.set_header("stale", "yes");
            owned.set_app_ts(Some(-1));
            source.recycle(&mut polled);
            polled = source.poll_batch(1).unwrap();
            let rec = &polled[0];
            assert_eq!(Arc::as_ptr(rec), before, "ts {ts}: refilled, not rebuilt");
            let col = ["a", "b"][ts as usize % 2];
            let want = Row::new().with(col, ts / 2).with("__ts", ts);
            assert_eq!((rec.timestamp, &rec.value), (ts, &want));
            assert_eq!(rec.key, None, "ts {ts}");
            assert_eq!((rec.headers().len(), rec.app_ts()), (0, None), "ts {ts}");
        }
        // a record something else still holds is left alone
        let kept = Arc::clone(&polled[0]);
        source.recycle(&mut polled);
        let last = source.poll_batch(1).unwrap();
        assert!(!Arc::ptr_eq(&last[0], &kept) && last[0].timestamp == 7);
        assert_eq!(kept.value, Row::new().with("a", 3i64).with("__ts", 6i64));
    }

    #[test]
    fn a_seek_past_the_end_is_an_error_not_a_panic() {
        let mut v = VecSource::from_rows((0..10).map(|i| (i, Row::new().with("i", i))).collect());
        for bad in [&[100][..], &[11], &[], &[1, 2]] {
            assert!(
                matches!(v.seek(bad), Err(Error::InvalidArgument(_))),
                "{bad:?}"
            );
        }
        // a refused seek leaves the cursor where it was
        assert_eq!(v.poll_batch(4).unwrap().len(), 4);
        v.seek(&[10]).unwrap();
        assert!(v.poll_batch(4).unwrap().is_empty() && v.is_exhausted());

        let (catalog, table) = warehouse();
        catalog
            .write_rows("trips", "d000000", &rows_for_day(0, 5))
            .unwrap();
        let mut h = HiveSource::new(&table, 0, 86_400_000, 2, None).unwrap();
        assert_eq!(h.poll_batch(10).unwrap().len(), 2);
        assert_eq!(h.position(), vec![0, 2]);
        for bad in [&[9][..], &[], &[0, 6], &[1, 1], &[2, 0], &[0, 1, 2]] {
            assert!(
                matches!(h.seek(bad), Err(Error::InvalidArgument(_))),
                "{bad:?}"
            );
        }
        let ids = |batch: Vec<Arc<Record>>| -> Vec<i64> {
            batch
                .iter()
                .map(|r| r.value.get_int("id").unwrap())
                .collect()
        };
        assert_eq!(ids(h.poll_batch(10).unwrap()), vec![2, 3]);
        h.seek(&[0, 5]).unwrap();
        assert!(h.poll_batch(10).unwrap().is_empty() && h.is_exhausted());
        h.seek(&[0, 4]).unwrap();
        assert_eq!(ids(h.poll_batch(10).unwrap()), vec![4]);
        assert_eq!(h.position(), vec![1, 0]);
        h.seek(&[1, 0]).unwrap();
        assert!(h.is_exhausted());
    }
}
