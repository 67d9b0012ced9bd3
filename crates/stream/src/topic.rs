//! Topics: named, partitioned streams with per-use-case configuration.
//!
//! §10 ("Scaling use cases"): "with the same client protocol we're able to
//! serve a wide spectrum of use cases from logging which trades off data
//! consistency for achieving high availability, to disseminating financial
//! data that needs zero data loss guarantees". [`TopicConfig`] carries
//! that tuning: lossless (acks-all, fsync-like semantics) vs
//! high-throughput (acks-leader, bounded retention), matching the surge
//! pipeline's choice in §5.1.
//!
//! Since PR 4 every partition carries a [`ReplicaSet`]: leader/follower
//! placement across broker nodes, ISR tracking, a committed high
//! watermark capping consumer fetches, and leader failover driven by
//! [`Topic::on_node_down`] / [`Topic::on_node_up`] (wired to the shared
//! membership detector by [`crate::cluster::Cluster`]).
//!
//! [`PartitionCursor`] is every reader's place in one partition: it reads
//! committed records only and counts what retention took from under it.
//! [`CursorSet`] is a reader's cursors over one subscribed topic and the
//! one contract of a fetch that fails: every topic reader polls through
//! one.

use crate::consumer::TopicSubscription;
use crate::log::{FetchResult, OffsetRecord, PartitionLog};
use crate::replica::{FailoverEvent, ReplicaSet, ReplicaStatus, MAX_REPLICAS};
use parking_lot::RwLock;
use rtdi_common::{Chaos, Error, Record, Result, RetryPolicy, Timestamp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Durability/throughput profile of a topic.
#[derive(Debug, Clone, PartialEq)]
pub struct TopicConfig {
    pub partitions: usize,
    /// Replication factor (replica-set placement across broker nodes).
    pub replication: usize,
    /// Zero-data-loss topics reject writes when under-replicated;
    /// high-throughput topics accept them (§5.1's surge tradeoff).
    pub lossless: bool,
    /// Minimum in-sync replicas an acks=all (`lossless`) write requires
    /// (Kafka's `min.insync.replicas`); ignored for throughput topics.
    pub min_insync: usize,
    /// Retention window; 0 = unlimited. The paper limits retention to "a
    /// few days" (§7).
    pub retention_ms: i64,
    /// Per-partition retention bytes; 0 = unlimited.
    pub retention_bytes: usize,
}

impl Default for TopicConfig {
    fn default() -> Self {
        TopicConfig {
            partitions: 4,
            replication: 3,
            lossless: false,
            min_insync: 2,
            retention_ms: 3 * 86_400_000, // 3 days
            retention_bytes: 0,
        }
    }
}

impl TopicConfig {
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.partitions = n;
        self
    }

    /// Financial-grade: lossless, full replication.
    pub fn lossless() -> Self {
        TopicConfig {
            lossless: true,
            ..Default::default()
        }
    }

    /// Surge-style: favor throughput/freshness over durability.
    pub fn high_throughput() -> Self {
        TopicConfig {
            replication: 2,
            lossless: false,
            ..Default::default()
        }
    }
}

/// A partitioned, replicated stream.
pub struct Topic {
    name: String,
    config: TopicConfig,
    /// Shared per-partition storage (every replica's content is a prefix
    /// of it; see [`crate::replica`]).
    partitions: Vec<Arc<PartitionLog>>,
    replica_sets: Vec<ReplicaSet>,
    failovers: RwLock<Vec<FailoverEvent>>,
    round_robin: AtomicUsize,
}

impl Topic {
    /// Standalone topic over a synthetic node pool `node-0..node-{R-1}`
    /// (one node per replica). Cluster-hosted topics get real placement
    /// via [`Topic::with_placement`].
    pub fn new(name: impl Into<String>, config: TopicConfig) -> Result<Self> {
        let pool: Vec<String> = (0..config.replication.max(1))
            .map(|i| format!("node-{i}"))
            .collect();
        Self::with_placement(name, config, &pool)
    }

    /// Create a topic with partition replicas placed round-robin across
    /// `nodes` (partition `p`, replica `r` lands on node `(p + r) % N`;
    /// the first replica is the preferred leader). When the pool is
    /// smaller than the replication factor the assignment is deduplicated
    /// — effective replication degrades to the node count, as on a real
    /// cluster.
    pub fn with_placement(
        name: impl Into<String>,
        config: TopicConfig,
        nodes: &[String],
    ) -> Result<Self> {
        if config.partitions == 0 {
            return Err(Error::InvalidArgument("topic needs >= 1 partition".into()));
        }
        if config.replication > MAX_REPLICAS {
            return Err(Error::InvalidArgument(format!(
                "replication factor {} exceeds {MAX_REPLICAS}",
                config.replication
            )));
        }
        if nodes.is_empty() {
            return Err(Error::Unavailable(
                "no live nodes available for placement".into(),
            ));
        }
        let partitions: Vec<Arc<PartitionLog>> = (0..config.partitions)
            .map(|_| {
                Arc::new(PartitionLog::new(
                    config.retention_ms,
                    config.retention_bytes,
                ))
            })
            .collect();
        let replica_sets = partitions
            .iter()
            .enumerate()
            .map(|(p, log)| {
                let mut assignment = Vec::new();
                for r in 0..config.replication.max(1) {
                    let node = nodes[(p + r) % nodes.len()].clone();
                    if !assignment.contains(&node) {
                        assignment.push(node);
                    }
                }
                ReplicaSet::new(p, Arc::clone(log), assignment)
            })
            .collect();
        Ok(Topic {
            name: name.into(),
            config,
            partitions,
            replica_sets,
            failovers: RwLock::new(Vec::new()),
            round_robin: AtomicUsize::new(0),
        })
    }

    /// Follower replication and fetches on every partition fail when
    /// `chaos` says so: a cluster hands the topics it creates its own
    /// handle.
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.replica_sets = self
            .replica_sets
            .into_iter()
            .map(|rs| rs.with_chaos(chaos.clone()))
            .collect();
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn config(&self) -> &TopicConfig {
        &self.config
    }

    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Choose the partition for a record: keyed records hash, unkeyed
    /// round-robin.
    pub fn partition_for(&self, record: &Record) -> usize {
        record
            .partition_for(self.partitions.len())
            .unwrap_or_else(|| {
                self.round_robin.fetch_add(1, Ordering::Relaxed) % self.partitions.len()
            })
    }

    /// Append to the chosen partition; returns `(partition, offset)`.
    /// Fails when the partition has no live leader, or — on lossless
    /// topics — when the ISR is below `min_insync` (acks=all). The log
    /// keeps the `Arc` it is given: a caller that already shares the
    /// record (a retry, a replicator) hands it over uncopied.
    pub fn append(&self, record: impl Into<Arc<Record>>, now: Timestamp) -> Result<(usize, u64)> {
        let record = record.into();
        let p = self.partition_for(&record);
        Ok((p, self.append_to(p, record, now)?))
    }

    /// Append directly to a specific partition (used by the replicator to
    /// preserve partition alignment, which upsert tables require, §4.3.1).
    pub fn append_to(
        &self,
        partition: usize,
        record: impl Into<Arc<Record>>,
        now: Timestamp,
    ) -> Result<u64> {
        if partition >= self.partitions.len() {
            return Err(Error::InvalidArgument(format!(
                "partition {partition} out of range"
            )));
        }
        self.replica_sets[partition].append(
            record,
            now,
            self.config.lossless,
            self.config.min_insync,
        )
    }

    /// Consumer fetch: never returns records at or past the partition's
    /// committed high watermark.
    pub fn fetch(&self, partition: usize, offset: u64, max: usize) -> Result<FetchResult> {
        let rs = self
            .replica_sets
            .get(partition)
            .ok_or_else(|| Error::InvalidArgument(format!("partition {partition} out of range")))?;
        rs.fetch(offset, max)
    }

    /// Raw storage access for internal subsystems (tiering, migration,
    /// DLQ bookkeeping). Bypasses the committed-watermark cap; readers go
    /// through a [`PartitionCursor`].
    pub fn partition(&self, i: usize) -> Option<&Arc<PartitionLog>> {
        self.partitions.get(i)
    }

    /// Sum of log-end offsets (total records ever appended & retained
    /// bookkeeping).
    pub fn total_records(&self) -> u64 {
        self.partitions.iter().map(|p| p.high_watermark()).sum()
    }

    /// Per-partition log-end offsets (leader log ends).
    pub fn high_watermarks(&self) -> Vec<u64> {
        self.partitions.iter().map(|p| p.high_watermark()).collect()
    }

    /// The committed (consumer-visible) high watermark of one partition.
    pub fn committed_watermark(&self, partition: usize) -> Option<u64> {
        self.replica_sets.get(partition).map(|rs| rs.committed())
    }

    pub fn committed_watermarks(&self) -> Vec<u64> {
        self.replica_sets.iter().map(|rs| rs.committed()).collect()
    }

    /// Replication state of one partition.
    pub fn replica_status(&self, partition: usize) -> Option<ReplicaStatus> {
        self.replica_sets.get(partition).map(|rs| rs.status())
    }

    /// Mark a broker node dead: every partition drops it from its ISR and
    /// partitions it led elect an in-sync follower (or go offline when
    /// none exists). Returns the leadership transitions.
    pub fn on_node_down(&self, node: &str, now: Timestamp) -> Vec<FailoverEvent> {
        let events: Vec<FailoverEvent> = self
            .replica_sets
            .iter()
            .filter_map(|rs| rs.on_node_down(node, now, &self.name))
            .collect();
        self.failovers.write().extend(events.iter().cloned());
        events
    }

    /// Mark a broker node live again: it catches up, rejoins ISRs, and
    /// revives partitions that were offline.
    pub fn on_node_up(&self, node: &str, now: Timestamp) -> Vec<FailoverEvent> {
        let events: Vec<FailoverEvent> = self
            .replica_sets
            .iter()
            .filter_map(|rs| rs.on_node_up(node, now, &self.name))
            .collect();
        self.failovers.write().extend(events.iter().cloned());
        events
    }

    /// Every leadership transition this topic has seen, in order.
    pub fn failover_events(&self) -> Vec<FailoverEvent> {
        self.failovers.read().clone()
    }

    /// Declare all live replicas caught up with shared storage. Called
    /// after offset-preserving bulk imports (topic migration) that write
    /// to the partition logs beneath the replication layer.
    pub fn resync_replicas(&self) {
        for rs in &self.replica_sets {
            rs.sync_to_end();
        }
    }
}

/// One reader's place in one partition of a topic: the next offset it
/// reads and how many records retention took before it read them.
///
/// Every reader of a topic holds one per partition. It is a plain value:
/// the owner passes the topic on every fetch (a redirected subscription
/// keeps its positions), and a parallel drain hands each worker its
/// partition's cursor and takes it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionCursor {
    pub partition: usize,
    /// The next offset this cursor reads. A reader resumes from a
    /// checkpoint, a commit or a translated offset by setting it.
    pub position: u64,
    /// Records retention removed between the position and the log start
    /// before they were read.
    pub skipped: u64,
}

impl PartitionCursor {
    pub fn new(partition: usize, position: u64) -> Self {
        PartitionCursor {
            partition,
            position,
            skipped: 0,
        }
    }

    /// A cursor at the partition's log start: what retention took before
    /// the reader existed is not counted as skipped.
    pub fn at_log_start(topic: &Topic, partition: usize) -> Result<Self> {
        let log = topic.partition(partition).ok_or_else(|| {
            Error::NotFound(format!("partition {partition} of topic '{}'", topic.name))
        })?;
        Ok(Self::new(partition, log.log_start_offset()))
    }

    /// Up to `max` committed records from the position, which this does not
    /// advance: the caller hands what it consumed to
    /// [`PartitionCursor::consumed`]. When retention has overtaken the
    /// position, the cursor jumps to the log start once and counts the
    /// records in between as skipped.
    pub fn fetch(&mut self, topic: &Topic, max: usize) -> Result<Vec<OffsetRecord>> {
        let fetched = match topic.fetch(self.partition, self.position, max) {
            Err(Error::OffsetOutOfRange { low, .. }) => {
                self.skipped += low - self.position;
                self.position = low;
                topic.fetch(self.partition, low, max)
            }
            fetched => fetched,
        };
        Ok(fetched?.records)
    }

    /// Advance past `records`, a prefix of a fetch from this position
    /// (offsets are dense). A retention jump that the fetch made on a copy
    /// of this cursor is counted here: what lies before the first record
    /// was skipped.
    pub fn consumed(&mut self, records: &[OffsetRecord]) {
        if let Some(first) = records.first() {
            self.skipped += first.offset - self.position;
            self.position = first.offset + records.len() as u64;
        }
    }
}

/// A reader's cursors over one subscribed topic: one [`PartitionCursor`]
/// per partition it reads, and the partition its next poll starts at.
///
/// [`CursorSet::poll`] gives each partition a turn, in order from that
/// start, and resolves the subscription once, so a migrated topic is read
/// where it moved. A fetch in a turn is retried under
/// [`RetryPolicy::transient`]: a transient fault is ridden out in place.
/// A turn that fails (a fetch that exhausts the policy or fails with an
/// error that is not retryable, or an error of the reader's own) ends the
/// poll: the partitions before it keep what they consumed, the failed
/// partition is where the next poll starts, and the poll is an error only
/// when its first turn failed.
#[derive(Clone)]
pub struct CursorSet {
    subscription: TopicSubscription,
    /// One per partition the reader reads, in the order a poll visits
    /// them. A reader seeks by setting their positions, which keeps their
    /// skipped counts.
    pub cursors: Vec<PartitionCursor>,
    /// The index of the cursor the next poll starts at.
    start: usize,
}

/// One partition's turn in a [`CursorSet::poll`].
pub struct Turn<'a> {
    topic: &'a Topic,
    /// The partition's cursor: the turn advances it past what it consumed
    /// ([`PartitionCursor::consumed`]).
    pub cursor: &'a mut PartitionCursor,
}

impl Turn<'_> {
    /// Up to `max` committed records from the cursor's position, fetched
    /// under [`RetryPolicy::transient`]; the cursor does not advance.
    pub fn fetch(&mut self, max: usize) -> Result<Vec<OffsetRecord>> {
        RetryPolicy::transient().run(|_| self.cursor.fetch(self.topic, max))
    }
}

impl CursorSet {
    /// These cursors, polled in the order given: a group member's share,
    /// or positions resumed from elsewhere.
    pub fn new(subscription: impl Into<TopicSubscription>, cursors: Vec<PartitionCursor>) -> Self {
        let subscription = subscription.into();
        CursorSet {
            subscription,
            cursors,
            start: 0,
        }
    }

    /// A cursor at offset 0 of every partition.
    pub fn from_zero(subscription: impl Into<TopicSubscription>) -> Self {
        let subscription = subscription.into();
        let n = subscription.topic().num_partitions();
        let cursors = (0..n).map(|p| PartitionCursor::new(p, 0)).collect();
        Self::new(subscription, cursors)
    }

    /// A cursor at the log start of every partition: what retention took
    /// before the reader existed is not counted as skipped.
    pub fn at_log_start(subscription: impl Into<TopicSubscription>) -> Result<Self> {
        let subscription = subscription.into();
        let topic = subscription.topic();
        let cursors = (0..topic.num_partitions()).map(|p| PartitionCursor::at_log_start(&topic, p));
        Ok(Self::new(subscription, cursors.collect::<Result<_>>()?))
    }

    /// The topic the subscription points at now.
    pub fn topic(&self) -> Arc<Topic> {
        self.subscription.topic()
    }

    /// Records retention removed before the reader read them.
    pub fn skipped(&self) -> u64 {
        self.cursors.iter().map(|c| c.skipped).sum()
    }

    /// Give each cursor a turn, from the start, until one fails; a failed
    /// turn is where the next poll starts. `Ok(true)` when every cursor had
    /// its turn, `Ok(false)` when a turn after the first failed, and the
    /// error when the first turn failed.
    pub fn poll(&mut self, mut turn: impl FnMut(&mut Turn<'_>) -> Result<()>) -> Result<bool> {
        let topic = self.subscription.topic();
        let n = self.cursors.len();
        for i in 0..n {
            let at = (self.start + i) % n;
            let cursor = &mut self.cursors[at];
            if let Err(e) = turn(&mut Turn {
                topic: &topic,
                cursor,
            }) {
                self.start = at;
                return if i == 0 { Err(e) } else { Ok(false) };
            }
        }
        self.start = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;

    impl Topic {
        /// Partitions that currently have no live leader.
        fn offline_partitions(&self) -> Vec<usize> {
            self.replica_sets
                .iter()
                .enumerate()
                .filter(|(_, rs)| rs.status().leader.is_none())
                .map(|(p, _)| p)
                .collect()
        }
    }

    fn rec(key: Option<&str>, i: i64) -> Record {
        let r = Record::new(Row::new().with("i", i), i);
        match key {
            Some(k) => r.with_key(k),
            None => r,
        }
    }

    #[test]
    fn keyed_records_stay_on_one_partition() {
        let t = Topic::new("trips", TopicConfig::default().with_partitions(8)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            let (p, _) = t.append(rec(Some("driver-7"), i), 0).unwrap();
            seen.insert(p);
        }
        assert_eq!(seen.len(), 1);
    }

    #[test]
    fn unkeyed_records_round_robin() {
        let t = Topic::new("logs", TopicConfig::default().with_partitions(4)).unwrap();
        for i in 0..40 {
            t.append(rec(None, i), 0).unwrap();
        }
        for p in 0..4 {
            assert_eq!(t.fetch(p, 0, 100).unwrap().records.len(), 10);
        }
    }

    #[test]
    fn zero_partitions_rejected() {
        assert!(Topic::new("bad", TopicConfig::default().with_partitions(0)).is_err());
    }

    #[test]
    fn fetch_bad_partition_rejected() {
        let t = Topic::new("t", TopicConfig::default().with_partitions(2)).unwrap();
        assert!(t.fetch(5, 0, 10).is_err());
        assert!(t.append_to(5, rec(None, 1), 0).is_err());
    }

    #[test]
    fn config_profiles() {
        assert!(TopicConfig::lossless().lossless);
        assert!(!TopicConfig::high_throughput().lossless);
        assert!(TopicConfig::high_throughput().replication < TopicConfig::lossless().replication);
    }

    #[test]
    fn total_records_sums_partitions() {
        let t = Topic::new("t", TopicConfig::default().with_partitions(3)).unwrap();
        for i in 0..30 {
            t.append(rec(Some(&format!("k{i}")), i), 0).unwrap();
        }
        assert_eq!(t.total_records(), 30);
        assert_eq!(t.high_watermarks().iter().sum::<u64>(), 30);
        assert_eq!(t.committed_watermarks().iter().sum::<u64>(), 30);
    }

    #[test]
    fn placement_spreads_leaders_across_nodes() {
        let nodes: Vec<String> = (0..4).map(|i| format!("b{i}")).collect();
        let t =
            Topic::with_placement("t", TopicConfig::default().with_partitions(4), &nodes).unwrap();
        let leaders: Vec<String> = (0..4)
            .map(|p| t.replica_status(p).unwrap().leader.unwrap())
            .collect();
        assert_eq!(leaders, vec!["b0", "b1", "b2", "b3"]);
        for p in 0..4 {
            let st = t.replica_status(p).unwrap();
            assert_eq!(st.assignment.len(), 3, "replication-factor placement");
            assert_eq!(st.isr.len(), 3);
        }
    }

    #[test]
    fn small_pools_dedupe_assignment() {
        let nodes = vec!["only".to_string()];
        let t =
            Topic::with_placement("t", TopicConfig::default().with_partitions(2), &nodes).unwrap();
        let st = t.replica_status(0).unwrap();
        assert_eq!(st.assignment, vec!["only".to_string()]);
        assert_eq!(st.isr.len(), 1);
    }

    #[test]
    fn node_death_fails_over_and_keeps_committed_records() {
        let nodes: Vec<String> = (0..3).map(|i| format!("b{i}")).collect();
        let t =
            Topic::with_placement("t", TopicConfig::default().with_partitions(3), &nodes).unwrap();
        for i in 0..30 {
            t.append(rec(Some(&format!("k{i}")), i), 0).unwrap();
        }
        let before: u64 = t.committed_watermarks().iter().sum();
        let events = t.on_node_down("b0", 100);
        // b0 led partition 0; followers exist so it fails over cleanly
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].old_leader.as_deref(), Some("b0"));
        assert!(events[0].new_leader.is_some());
        assert_eq!(events[0].truncated, 0);
        assert!(t.offline_partitions().is_empty());
        // all committed records still readable, in order
        assert_eq!(t.committed_watermarks().iter().sum::<u64>(), before);
        // writes continue on every partition
        for i in 30..40 {
            t.append(rec(Some(&format!("k{i}")), i), 101).unwrap();
        }
        // the node returns and rejoins ISRs
        t.on_node_up("b0", 200);
        for p in 0..3 {
            assert_eq!(t.replica_status(p).unwrap().isr.len(), 3);
        }
        assert_eq!(t.failover_events().len(), 1);
    }

    #[test]
    fn losing_all_replicas_takes_partition_offline_then_heals() {
        let nodes = vec!["b0".to_string(), "b1".to_string()];
        let t =
            Topic::with_placement("t", TopicConfig::default().with_partitions(1), &nodes).unwrap();
        t.append_to(0, rec(None, 1), 0).unwrap();
        t.on_node_down("b0", 10);
        t.on_node_down("b1", 11);
        assert_eq!(t.offline_partitions(), vec![0]);
        assert!(t.append_to(0, rec(None, 2), 12).is_err());
        // committed data remains readable from surviving storage
        assert_eq!(t.fetch(0, 0, 10).unwrap().records.len(), 1);
        let events = t.on_node_up("b1", 20);
        assert_eq!(events.len(), 1, "offline partition re-elects on heal");
        assert!(t.offline_partitions().is_empty());
        t.append_to(0, rec(None, 2), 21).unwrap();
        assert_eq!(t.fetch(0, 0, 10).unwrap().records.len(), 2);
    }
}
