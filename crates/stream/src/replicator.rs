//! uReplicator: cross-cluster replication (§4.1.4).
//!
//! "uReplicator is designed for strong reliability and elasticity. It has
//! an in-built rebalancing algorithm so that it minimizes the number of
//! the affected topic partitions during rebalancing. Moreover, uReplicator
//! is adaptive to the workload so that when there is bursty traffic it can
//! dynamically redistribute the load to the standby workers."
//!
//! Two pieces:
//!
//! - [`StickyAssigner`]: the minimal-movement partition->worker assignment
//!   algorithm, benchmarked in E4 against the naive modulo rehash used by
//!   vanilla mirroring;
//! - [`Replicator`]: the copy engine that mirrors a topic between clusters
//!   partition-aligned, periodically checkpointing the source->destination
//!   offset mapping that the active/passive offset-sync service of §6
//!   consumes.

use crate::cluster::Cluster;
use parking_lot::RwLock;
use rtdi_common::{Chaos, Error, FaultPoint, Result, RetryPolicy, Timestamp};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A partition->worker assignment with sticky (minimal-movement)
/// rebalancing.
#[derive(Debug, Default)]
pub struct StickyAssigner {
    workers: Vec<String>,
    /// Standby workers receive load only during bursts or failover.
    standby: Vec<String>,
    assignment: BTreeMap<u32, String>,
}

impl StickyAssigner {
    pub fn new(workers: Vec<String>, standby: Vec<String>) -> Self {
        StickyAssigner {
            workers,
            standby,
            assignment: BTreeMap::new(),
        }
    }

    /// Assign `partitions` to the active workers, moving as few existing
    /// assignments as possible: partitions keep their worker unless it is
    /// gone or overloaded; only the overflow/orphans move. Returns the set
    /// of partitions whose worker changed.
    pub fn rebalance(&mut self, partitions: u32) -> Vec<u32> {
        let active = self.workers.clone();
        if active.is_empty() {
            let moved: Vec<u32> = self.assignment.keys().copied().collect();
            self.assignment.clear();
            return moved;
        }
        let capacity = (partitions as usize).div_ceil(active.len());
        let mut load: BTreeMap<&str, usize> = active.iter().map(|w| (w.as_str(), 0)).collect();
        let mut moved = Vec::new();
        let mut orphans = Vec::new();
        // keep sticky assignments that are still valid and under capacity
        for p in 0..partitions {
            let sticky = self.assignment.get(&p);
            match sticky.and_then(|w| load.get_mut(w.as_str())) {
                Some(l) if *l < capacity => *l += 1,
                _ => orphans.push(p),
            }
        }
        // place orphans on least-loaded workers
        for p in orphans {
            let Some(w) = active.iter().min_by_key(|w| load.get(w.as_str())) else {
                break;
            };
            if let Some(l) = load.get_mut(w.as_str()) {
                *l += 1;
            }
            if self.assignment.insert(p, w.clone()).as_ref() != Some(w) {
                moved.push(p);
            }
        }
        // drop assignments beyond the partition count (topic shrank)
        self.assignment.retain(|p, _| *p < partitions);
        moved
    }

    /// Naive modulo assignment for comparison (what a consistent-hash-free
    /// mirror does): partition p -> worker[p % n]. Returns moved
    /// partitions relative to the current assignment.
    pub fn naive_rebalance(&mut self, partitions: u32) -> Vec<u32> {
        let mut moved = Vec::new();
        let n = self.workers.len();
        if n == 0 {
            let all: Vec<u32> = self.assignment.keys().copied().collect();
            self.assignment.clear();
            return all;
        }
        for p in 0..partitions {
            let w = self.workers[(p as usize) % n].clone();
            if self.assignment.get(&p) != Some(&w) {
                moved.push(p);
                self.assignment.insert(p, w);
            }
        }
        self.assignment.retain(|p, _| *p < partitions);
        moved
    }

    pub fn add_worker(&mut self, w: impl Into<String>) {
        self.workers.push(w.into());
    }

    pub fn remove_worker(&mut self, w: &str) {
        self.workers.retain(|x| x != w);
    }

    /// Burst handling: promote standby workers into the active set.
    /// Returns how many were promoted.
    pub fn promote_standby(&mut self, n: usize) -> usize {
        let take = n.min(self.standby.len());
        for w in self.standby.drain(..take) {
            self.workers.push(w);
        }
        take
    }

    /// Max partitions on one worker divided by the ideal share; 1.0 is a
    /// perfect balance.
    pub fn skew(&self, partitions: u32) -> f64 {
        if self.workers.is_empty() || partitions == 0 {
            return 0.0;
        }
        let mut load: BTreeMap<&String, usize> = BTreeMap::new();
        for w in self.assignment.values() {
            *load.entry(w).or_insert(0) += 1;
        }
        let max = load.values().copied().max().unwrap_or(0) as f64;
        let ideal = partitions as f64 / self.workers.len() as f64;
        max / ideal
    }
}

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
    /// next source offset to replicate, per partition
    positions: RwLock<BTreeMap<usize, u64>>,
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
            positions: RwLock::new(BTreeMap::new()),
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
    /// Transient cross-region faults (`multiregion.replicate`) are retried
    /// with backoff; a persistent outage surfaces as an error with the
    /// per-partition position untouched past the last copied record, so the
    /// next `run_once` resumes without loss or duplication.
    pub fn run_once(&self, now: Timestamp) -> Result<u64> {
        let src = self.source.topic(&self.topic)?;
        let dst = self.destination.topic(&self.topic)?;
        let policy = RetryPolicy::new(4).with_backoff_us(50, 2_000);
        let mut copied = 0;
        for p in 0..src.num_partitions() {
            // resume priority: in-memory position (same worker), then the
            // shared mapping store (a restarted worker picks up after the
            // last checkpoint — duplicates bounded by checkpoint_interval,
            // never a gap), then the retained log start (fresh route)
            let saved = self.positions.read().get(&p).copied();
            let mut pos = match saved {
                Some(v) => v,
                None => match self.mappings.latest(&self.route, p) {
                    Some(m) => m.src_offset + 1,
                    None => src
                        .partition(p)
                        .ok_or_else(|| {
                            Error::NotFound(format!("partition {p} of topic '{}'", self.topic))
                        })?
                        .log_start_offset(),
                },
            };
            let mut since_checkpoint = 0u64;
            loop {
                let fetch = match src.fetch(p, pos, 1024) {
                    Ok(f) => f,
                    Err(Error::OffsetOutOfRange { low, .. }) => {
                        pos = low;
                        src.fetch(p, low, 1024)?
                    }
                    Err(e) => return Err(e),
                };
                if fetch.records.is_empty() {
                    break;
                }
                for rec in fetch.records {
                    let src_offset = rec.offset;
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
                            self.positions.write().insert(p, pos);
                            return Err(e);
                        }
                    };
                    pos = src_offset + 1;
                    copied += 1;
                    since_checkpoint += 1;
                    if since_checkpoint >= self.checkpoint_interval {
                        self.mappings.checkpoint(
                            &self.route,
                            OffsetMapping {
                                partition: p,
                                src_offset,
                                dst_offset,
                                checkpointed_at: now,
                            },
                        );
                        since_checkpoint = 0;
                    }
                }
            }
            // always checkpoint the frontier so translation stays fresh
            if copied > 0 {
                let dst_hwm = dst
                    .partition(p)
                    .ok_or_else(|| {
                        Error::NotFound(format!("partition {p} of topic '{}'", self.topic))
                    })?
                    .high_watermark();
                self.mappings.checkpoint(
                    &self.route,
                    OffsetMapping {
                        partition: p,
                        src_offset: pos.saturating_sub(1),
                        dst_offset: dst_hwm.saturating_sub(1),
                        checkpointed_at: now,
                    },
                );
            }
            self.positions.write().insert(p, pos);
        }
        Ok(copied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::topic::TopicConfig;
    use rtdi_common::{Record, Row};

    #[test]
    fn sticky_rebalance_moves_minimum() {
        let mut a = StickyAssigner::new((0..10).map(|i| format!("w{i}")).collect(), vec![]);
        let initial = a.rebalance(1000);
        assert_eq!(initial.len(), 1000, "initial assignment places everything");
        // adding one worker should move roughly 1000/11 partitions, not all
        a.add_worker("w10");
        let moved = a.rebalance(1000);
        assert!(
            moved.len() <= 120,
            "sticky moved {} partitions, expected ~91",
            moved.len()
        );
        assert!(a.skew(1000) <= 1.2, "skew {}", a.skew(1000));
    }

    #[test]
    fn naive_rebalance_moves_most() {
        let mut a = StickyAssigner::new((0..10).map(|i| format!("w{i}")).collect(), vec![]);
        a.naive_rebalance(1000);
        a.add_worker("w10");
        let moved = a.naive_rebalance(1000);
        assert!(
            moved.len() > 800,
            "naive modulo should reshuffle almost everything, moved {}",
            moved.len()
        );
    }

    #[test]
    fn worker_removal_only_moves_its_partitions() {
        let mut a = StickyAssigner::new((0..4).map(|i| format!("w{i}")).collect(), vec![]);
        a.rebalance(100);
        let victim_parts: Vec<u32> = a
            .assignment
            .iter()
            .filter(|(_, w)| *w == "w0")
            .map(|(p, _)| *p)
            .collect();
        a.remove_worker("w0");
        let moved = a.rebalance(100);
        assert_eq!(moved.len(), victim_parts.len());
        for p in moved {
            assert!(victim_parts.contains(&p));
        }
    }

    #[test]
    fn standby_promotion_absorbs_bursts() {
        let mut a = StickyAssigner::new(
            vec!["w0".into(), "w1".into()],
            vec!["s0".into(), "s1".into()],
        );
        a.rebalance(100);
        let before_share = 100 / 2;
        let promoted = a.promote_standby(2);
        assert_eq!(promoted, 2);
        let moved = a.rebalance(100);
        assert_eq!(a.workers.len(), 4);
        // the two new workers absorb ~half the load with minimal movement
        assert!(moved.len() <= before_share + 5, "moved {}", moved.len());
        assert!(a.skew(100) <= 1.2);
        assert_eq!(a.promote_standby(5), 0, "standby pool exhausted");
    }

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
