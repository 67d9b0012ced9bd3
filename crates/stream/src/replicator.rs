//! uReplicator: cross-cluster replication (§4.1.4).
//!
//! "uReplicator is designed for strong reliability and elasticity. It has
//! an in-built rebalancing algorithm so that it minimizes the number of
//! the affected topic partitions during rebalancing. Moreover, uReplicator
//! is adaptive to the workload so that when there is bursty traffic it can
//! dynamically redistribute the load to the standby workers."
//!
//! [`Replicator`] is the copy engine: it mirrors a topic between clusters
//! partition-aligned, periodically checkpointing the source->destination
//! offset mapping that the active/passive offset-sync service of §6
//! consumes. It reads the source topic through a [`CursorSet`]: committed
//! records only, a transient fetch fault ridden out in place, each cursor
//! advanced past the last record the destination took, and retention
//! jumps counted in [`Replicator::skipped`]. The sticky rebalancing the
//! quote describes is a model beside claim E4 in `rtdi-bench`, not part of
//! the copy path.

use crate::cluster::Cluster;
use crate::topic::{CursorSet, PartitionCursor, Topic};
use parking_lot::{Mutex, RwLock};
use rtdi_common::{Chaos, Error, FaultPoint, Result, RetryPolicy, Timestamp};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One source->destination offset correspondence for a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetMapping {
    pub partition: usize,
    pub src_offset: u64,
    pub dst_offset: u64,
    pub checkpointed_at: Timestamp,
}

// (route, partition) -> mappings in checkpoint order
type MappingsByRoute = BTreeMap<(String, usize), Vec<OffsetMapping>>;

/// The shared "active-active database" of offset-mapping checkpoints
/// (Figure 7). The offset sync job of `rtdi-multiregion` reads this.
#[derive(Clone, Default)]
pub struct OffsetMappingStore {
    inner: Arc<RwLock<MappingsByRoute>>,
}

impl OffsetMappingStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn checkpoint(&self, route: &str, mapping: OffsetMapping) {
        self.inner
            .write()
            .entry((route.to_string(), mapping.partition))
            .or_default()
            .push(mapping);
    }

    /// Latest mapping with `src_offset <= src` — the translation the
    /// failover consumer uses. Returns the conservative (floor) mapping so
    /// replays are possible but loss is not.
    pub fn translate(&self, route: &str, partition: usize, src: u64) -> Option<OffsetMapping> {
        let inner = self.inner.read();
        let maps = inner.get(&(route.to_string(), partition))?;
        maps.iter().rev().find(|m| m.src_offset <= src).copied()
    }

    /// Latest mapping with `dst_offset <= dst` — the inverse translation
    /// the offset-sync job uses to map a consumer's aggregate-cluster
    /// offset back to a source offset. Conservative (floor) like
    /// [`OffsetMappingStore::translate`].
    pub fn translate_reverse(
        &self,
        route: &str,
        partition: usize,
        dst: u64,
    ) -> Option<OffsetMapping> {
        let inner = self.inner.read();
        let maps = inner.get(&(route.to_string(), partition))?;
        maps.iter().rev().find(|m| m.dst_offset <= dst).copied()
    }

    pub fn latest(&self, route: &str, partition: usize) -> Option<OffsetMapping> {
        let inner = self.inner.read();
        inner.get(&(route.to_string(), partition))?.last().copied()
    }
}

/// Replicates one topic from a source cluster to a destination cluster,
/// partition-aligned, checkpointing offset mappings every
/// `checkpoint_interval` records per partition.
pub struct Replicator {
    route: String,
    source: Arc<Cluster>,
    destination: Arc<Cluster>,
    topic: String,
    mappings: OffsetMappingStore,
    checkpoint_interval: u64,
    /// Where the next copy reads the source; made by the first run.
    reader: Mutex<Option<CursorSet>>,
    chaos: Chaos,
}

impl Replicator {
    pub fn new(
        route: impl Into<String>,
        source: Arc<Cluster>,
        destination: Arc<Cluster>,
        topic: impl Into<String>,
        mappings: OffsetMappingStore,
        checkpoint_interval: u64,
    ) -> Self {
        Replicator {
            route: route.into(),
            source,
            destination,
            topic: topic.into(),
            mappings,
            checkpoint_interval: checkpoint_interval.max(1),
            reader: Mutex::new(None),
            chaos: Chaos::default(),
        }
    }

    /// Copies across the route fail when `chaos` says so.
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Ensure the destination topic exists with the same partitioning.
    pub fn prepare(&self) -> Result<()> {
        let src = self.source.topic(&self.topic)?;
        match self.destination.topic(&self.topic) {
            Ok(dst) => {
                if dst.num_partitions() != src.num_partitions() {
                    return Err(Error::InvalidArgument(
                        "destination topic partition count mismatch".into(),
                    ));
                }
                Ok(())
            }
            Err(Error::NotFound(_)) => {
                self.destination
                    .create_topic(&self.topic, src.config().clone())?;
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Replicate everything currently pending. Returns records copied.
    ///
    /// Transient cross-region faults (`multiregion.replicate`) and
    /// transient fetch faults are retried with backoff. A copy that fails
    /// for good is an error, and a fetch that fails for good after the
    /// first partition ends the run (the [`CursorSet`] contract): either
    /// way the partition's position stays just past the last copied
    /// record, so the next `run_once` of this worker resumes there without
    /// loss or duplication.
    pub fn run_once(&self, now: Timestamp) -> Result<u64> {
        // a route to or from a cluster that is down fails here
        let src = self.source.topic(&self.topic)?;
        let dst = self.destination.topic(&self.topic)?;
        let mut reader = self.reader.lock();
        let reader = match &mut *reader {
            Some(reader) => reader,
            None => reader.insert(self.resume(src)?),
        };
        let policy = RetryPolicy::transient();
        let (mut copied, mut failed) = (0, None);
        let polled = reader.poll(|turn| {
            // an error of the copy's own fails the run wherever it happens
            let mut own = |e: Error| {
                failed = Some(e.clone());
                e
            };
            let p = turn.cursor.partition;
            let mut since_checkpoint = 0u64;
            loop {
                let records = turn.fetch(1024)?;
                if records.is_empty() {
                    break;
                }
                for (i, rec) in records.iter().enumerate() {
                    // the fault check sits inside the retried closure: an
                    // injected fault consumes attempts exactly like a real
                    // cross-region failure would. Every attempt offers the
                    // source log's own record: the two logs share it.
                    let dst_offset = match policy.run(|_| {
                        self.chaos.check(FaultPoint::MultiregionReplicate)?;
                        dst.append_to(p, Arc::clone(&rec.record), now)
                    }) {
                        Ok(off) => off,
                        Err(e) => {
                            turn.cursor.consumed(&records[..i]);
                            return Err(own(e));
                        }
                    };
                    copied += 1;
                    since_checkpoint += 1;
                    if since_checkpoint >= self.checkpoint_interval {
                        self.mappings.checkpoint(
                            &self.route,
                            OffsetMapping {
                                partition: p,
                                src_offset: rec.offset,
                                dst_offset,
                                checkpointed_at: now,
                            },
                        );
                        since_checkpoint = 0;
                    }
                }
                turn.cursor.consumed(&records);
            }
            // always checkpoint the frontier so translation stays fresh
            if copied > 0 {
                let dst_log = dst.partition(p).ok_or_else(|| {
                    own(Error::NotFound(format!(
                        "partition {p} of topic '{}'",
                        self.topic
                    )))
                })?;
                self.mappings.checkpoint(
                    &self.route,
                    OffsetMapping {
                        partition: p,
                        src_offset: turn.cursor.position.saturating_sub(1),
                        dst_offset: dst_log.high_watermark().saturating_sub(1),
                        checkpointed_at: now,
                    },
                );
            }
            Ok(())
        });
        match failed {
            Some(e) => Err(e),
            None => polled.map(|_| copied),
        }
    }

    /// A worker's first positions: after the last checkpointed mapping of
    /// each partition (a restarted worker replays at most one checkpoint
    /// interval, never leaves a gap), else the retained log start (a fresh
    /// route).
    fn resume(&self, src: Arc<Topic>) -> Result<CursorSet> {
        let cursors = (0..src.num_partitions())
            .map(|p| match self.mappings.latest(&self.route, p) {
                Some(m) => Ok(PartitionCursor::new(p, m.src_offset + 1)),
                None => PartitionCursor::at_log_start(&src, p),
            })
            .collect::<Result<_>>()?;
        Ok(CursorSet::new(src, cursors))
    }

    /// Source records retention removed before this route copied them.
    pub fn skipped(&self) -> u64 {
        self.reader.lock().as_ref().map_or(0, CursorSet::skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::topic::TopicConfig;
    use rtdi_common::{Record, Row};

    fn cluster_with_topic(name: &str) -> Arc<Cluster> {
        let c = Cluster::new(name, ClusterConfig::default());
        c.create_topic("trips", TopicConfig::default().with_partitions(4))
            .unwrap();
        c
    }

    #[test]
    fn replication_is_partition_aligned_and_complete() {
        let src = cluster_with_topic("regional");
        let dst = Cluster::new("aggregate", ClusterConfig::default());
        let r = Replicator::new(
            "regional->aggregate",
            src.clone(),
            dst.clone(),
            "trips",
            OffsetMappingStore::new(),
            10,
        );
        r.prepare().unwrap();
        for i in 0..200 {
            src.produce(
                "trips",
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                i,
            )
            .unwrap();
        }
        let copied = r.run_once(1000).unwrap();
        assert_eq!(copied, 200);
        let st = src.topic("trips").unwrap();
        let dt = dst.topic("trips").unwrap();
        for p in 0..4 {
            assert_eq!(
                st.partition(p).unwrap().high_watermark(),
                dt.partition(p).unwrap().high_watermark(),
                "partition {p} aligned"
            );
        }
        // idempotent continuation: nothing new to copy
        assert_eq!(r.run_once(2000).unwrap(), 0);
        // new records replicate incrementally
        src.produce("trips", Record::new(Row::new(), 5).with_key("x"), 5)
            .unwrap();
        assert_eq!(r.run_once(3000).unwrap(), 1);
    }

    #[test]
    fn replication_retries_faults_and_resumes_after_outage_without_duplication() {
        use rtdi_common::chaos::{FaultKind, FaultPlan, Trigger};
        let chaos = Chaos::seeded(0x5EED);
        let src = cluster_with_topic("regional");
        let dst = Cluster::new("aggregate", ClusterConfig::default());
        let r = Replicator::new(
            "regional->aggregate",
            src.clone(),
            dst.clone(),
            "trips",
            OffsetMappingStore::new(),
            10,
        )
        .with_chaos(chaos.clone());
        r.prepare().unwrap();
        for i in 0..100 {
            src.produce(
                "trips",
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                i,
            )
            .unwrap();
        }
        // every 5th cross-region send fails transiently: well inside the
        // 4-attempt budget, so replication completes without caller help
        chaos.arm(
            FaultPoint::MultiregionReplicate,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(5)),
        );
        assert_eq!(r.run_once(1000).unwrap(), 100);

        // persistent outage after partial progress: run_once errors, then
        // resumes from the saved position once the link is back
        for i in 100..150 {
            src.produce(
                "trips",
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                i,
            )
            .unwrap();
        }
        chaos.arm(
            FaultPoint::MultiregionReplicate,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(10, None),
        );
        let partial = r.run_once(2000);
        assert!(partial.is_err(), "persistent outage surfaces");
        chaos.disarm(FaultPoint::MultiregionReplicate);
        let resumed = r.run_once(3000).unwrap();
        assert!(resumed > 0 && resumed <= 50, "resumed {resumed}");

        // every partition aligned: nothing lost, nothing duplicated
        let st = src.topic("trips").unwrap();
        let dt = dst.topic("trips").unwrap();
        for p in 0..4 {
            assert_eq!(
                st.partition(p).unwrap().high_watermark(),
                dt.partition(p).unwrap().high_watermark(),
                "partition {p} aligned after recovery"
            );
        }
    }

    #[test]
    fn restarted_replicator_resumes_from_mapping_store_without_gaps() {
        use rtdi_common::chaos::{FaultKind, FaultPlan, Trigger};
        let chaos = Chaos::seeded(0x2E57A27);
        let src = cluster_with_topic("regional");
        let dst = Cluster::new("aggregate", ClusterConfig::default());
        let store = OffsetMappingStore::new();
        let interval = 10u64;
        let r = Replicator::new(
            "regional->aggregate",
            src.clone(),
            dst.clone(),
            "trips",
            store.clone(),
            interval,
        )
        .with_chaos(chaos.clone());
        r.prepare().unwrap();
        for i in 0..200 {
            src.produce(
                "trips",
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                i,
            )
            .unwrap();
        }
        // the route dies mid-copy: the worker loses its in-memory
        // positions (the process is gone), leaving only the mapping store
        chaos.arm(
            FaultPoint::MultiregionReplicate,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(95, None),
        );
        assert!(r.run_once(1_000).is_err(), "outage mid-route surfaces");
        chaos.disarm(FaultPoint::MultiregionReplicate);
        drop(r);

        // a restarted worker with the same route + shared mapping store
        // resumes from the last checkpointed mapping per partition
        let r2 = Replicator::new(
            "regional->aggregate",
            src.clone(),
            dst.clone(),
            "trips",
            store.clone(),
            interval,
        );
        r2.run_once(2_000).unwrap();

        let st = src.topic("trips").unwrap();
        let dt = dst.topic("trips").unwrap();
        for p in 0..4 {
            let src_hwm = st.partition(p).unwrap().high_watermark();
            let dst_hwm = dt.partition(p).unwrap().high_watermark();
            // no gap: every source record landed at least once...
            assert!(dst_hwm >= src_hwm, "partition {p} lost records");
            // ...and duplicates are bounded by one checkpoint interval
            assert!(
                dst_hwm - src_hwm <= interval,
                "partition {p}: {} duplicates exceeds the checkpoint interval {interval}",
                dst_hwm - src_hwm
            );
            // a failover consumer translating through this route never
            // observes a mapping gap: the latest mapping is at the new
            // frontier, and translation below it floors conservatively
            let latest = store.latest("regional->aggregate", p).unwrap();
            assert_eq!(latest.src_offset, src_hwm - 1, "mapping frontier");
            for probe in [0, src_hwm / 2, src_hwm - 1] {
                if let Some(m) = store.translate("regional->aggregate", p, probe) {
                    assert!(m.src_offset <= probe, "floor translation");
                }
            }
        }
    }

    #[test]
    fn offset_mappings_translate_conservatively() {
        let store = OffsetMappingStore::new();
        for (s, d) in [(9u64, 9u64), (19, 19), (29, 29)] {
            store.checkpoint(
                "r",
                OffsetMapping {
                    partition: 0,
                    src_offset: s,
                    dst_offset: d,
                    checkpointed_at: 0,
                },
            );
        }
        // exact hit
        assert_eq!(store.translate("r", 0, 19).unwrap().dst_offset, 19);
        // between checkpoints -> floor
        assert_eq!(store.translate("r", 0, 25).unwrap().dst_offset, 19);
        // before first checkpoint -> none (caller falls back to earliest)
        assert!(store.translate("r", 0, 3).is_none());
        assert_eq!(store.latest("r", 0).unwrap().src_offset, 29);
        assert!(store.translate("other", 0, 10).is_none());
    }
}
