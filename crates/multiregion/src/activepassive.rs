//! Active-passive consumption with offset synchronization (§6, Figure 7).
//!
//! "Only one consumer (identified by a unique name) is allowed to consume
//! from the aggregate clusters in one of the regions designated as the
//! primary region at a time... the consumer can neither resume from the
//! high watermark ... nor from the low watermark... when uReplicator
//! replicates messages from source cluster to the destination cluster, it
//! periodically checkpoints the offset mapping... an offset sync job
//! periodically synchronizes the offsets between the two regions... when
//! an active/passive consumer fails over from one region to another, the
//! consumer can take the latest synchronized offset and resume the
//! consumption."
//!
//! [`ActivePassiveConsumer`] reads each partition of the active region's
//! aggregate topic through a [`PartitionCursor`]: committed records only,
//! retention jumps counted in [`ActivePassiveConsumer::skipped`], and a
//! failover seeks every cursor to its translated offset.

use crate::topology::{route_name, MultiRegionTopology};
use rtdi_common::{Error, Record, Result};
use rtdi_stream::replicator::OffsetMappingStore;
use rtdi_stream::topic::PartitionCursor;
use std::collections::BTreeMap;

/// Translates committed offsets between regions using the replicator's
/// offset-mapping checkpoints.
pub struct OffsetSyncService {
    mappings: OffsetMappingStore,
}

impl OffsetSyncService {
    pub fn new(mappings: OffsetMappingStore) -> Self {
        OffsetSyncService { mappings }
    }

    /// Translate a consumer offset on `from_region`'s aggregate cluster to
    /// a safe resume offset on `to_region`'s aggregate cluster.
    ///
    /// The aggregate topic interleaves messages replicated from every
    /// source region, so the translation goes through each source route
    /// (aggregate offset -> source offset -> other aggregate offset) and
    /// takes the conservative minimum: resuming there can replay a bounded
    /// suffix (at-least-once) but can never skip an unconsumed message.
    pub fn translate(
        &self,
        topic: &str,
        sources: &[String],
        from_region: &str,
        to_region: &str,
        partition: usize,
        offset: u64,
    ) -> u64 {
        let mut resume: Option<u64> = None;
        for src in sources {
            let from_route = route_name(src, from_region, topic);
            let to_route = route_name(src, to_region, topic);
            let candidate = self
                .mappings
                .translate_reverse(&from_route, partition, offset.saturating_sub(1))
                .and_then(|m| self.mappings.translate(&to_route, partition, m.src_offset))
                .map(|m| m.dst_offset)
                .unwrap_or(0);
            resume = Some(match resume {
                None => candidate,
                Some(r) => r.min(candidate),
            });
        }
        resume.unwrap_or(0)
    }
}

/// A uniquely-named consumer that reads one region's aggregate cluster and
/// can fail over with offset translation.
pub struct ActivePassiveConsumer {
    pub name: String,
    topic: String,
    current_region: String,
    /// where the next read starts, per partition of the current region's
    /// aggregate topic
    cursors: BTreeMap<usize, PartitionCursor>,
}

impl ActivePassiveConsumer {
    pub fn new(name: &str, topic: &str, region: &str) -> Self {
        ActivePassiveConsumer {
            name: name.to_string(),
            topic: topic.to_string(),
            current_region: region.to_string(),
            cursors: BTreeMap::new(),
        }
    }

    /// Records retention removed before this consumer read them.
    pub fn skipped(&self) -> u64 {
        self.cursors.values().map(|c| c.skipped).sum()
    }

    /// Consume everything currently available in the active region. The
    /// positions move only when the whole read succeeds.
    pub fn consume_available(&mut self, topo: &MultiRegionTopology) -> Result<Vec<Record>> {
        let region = topo.region(&self.current_region)?;
        // the consumer reads the aggregate cluster: aggregate-only loss
        // forces a failover even while the regional half keeps ingesting
        if region.aggregate.is_down() {
            return Err(Error::Unavailable(format!(
                "region '{}' aggregate down",
                self.current_region
            )));
        }
        let topic = region.aggregate.topic(&self.topic)?;
        let mut cursors = self.cursors.clone();
        let mut out = Vec::new();
        for p in 0..topic.num_partitions() {
            let cursor = cursors.entry(p).or_insert(PartitionCursor::new(p, 0));
            loop {
                let records = cursor.fetch(&topic, 1024)?;
                if records.is_empty() {
                    break;
                }
                cursor.consumed(&records);
                out.extend(records.into_iter().map(|r| r.into_record()));
            }
        }
        self.cursors = cursors;
        Ok(out)
    }

    /// Fail over to another region, resuming from synchronized offsets.
    pub fn fail_over(
        &mut self,
        topo: &MultiRegionTopology,
        sync: &OffsetSyncService,
        to_region: &str,
    ) -> Result<()> {
        let target = topo.region(to_region)?;
        if target.aggregate.is_down() {
            return Err(Error::Unavailable(format!(
                "region '{to_region}' aggregate down"
            )));
        }
        let sources: Vec<String> = topo.regions.iter().map(|r| r.name.clone()).collect();
        let topic = target.aggregate.topic(&self.topic)?;
        for p in 0..topic.num_partitions() {
            let cursor = self.cursors.entry(p).or_insert(PartitionCursor::new(p, 0));
            cursor.position = sync.translate(
                &self.topic,
                &sources,
                &self.current_region,
                to_region,
                p,
                cursor.position,
            );
        }
        self.current_region = to_region.to_string();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;
    use rtdi_stream::topic::TopicConfig;
    use std::collections::BTreeSet;

    fn payment(i: i64) -> Record {
        Record::new(Row::new().with("payment", i), i)
            .with_key(format!("p{i}"))
            .with_unique_id(format!("pay-{i}"))
    }

    fn ids(records: &[Record]) -> BTreeSet<String> {
        records
            .iter()
            .map(|r| r.unique_id().unwrap().to_string())
            .collect()
    }

    #[test]
    fn failover_loses_nothing_and_bounds_replay() {
        let topo = MultiRegionTopology::new(
            &["west", "east"],
            "payments",
            TopicConfig::lossless().with_partitions(2),
        )
        .unwrap();
        // 200 payments from both regions, replicated with periodic
        // offset-mapping checkpoints
        for i in 0..200 {
            let region = if i % 2 == 0 { "west" } else { "east" };
            topo.produce(region, payment(i), i).unwrap();
        }
        topo.replicate(500);

        let sync = OffsetSyncService::new(topo.mappings().clone());
        let mut consumer = ActivePassiveConsumer::new("payment-processor", "payments", "west");
        let consumed_before = consumer.consume_available(&topo).unwrap();
        assert_eq!(consumed_before.len(), 200);

        // more payments arrive, then the west region dies mid-stream
        for i in 200..260 {
            let region = if i % 2 == 0 { "west" } else { "east" };
            topo.produce(region, payment(i), i).unwrap();
        }
        topo.replicate(600);
        let more = consumer.consume_available(&topo).unwrap();
        assert_eq!(more.len(), 60);
        topo.region("west").unwrap().set_down(true);
        assert!(consumer.consume_available(&topo).is_err());

        // fail over to east and drain
        consumer.fail_over(&topo, &sync, "east").unwrap();
        assert_eq!(consumer.current_region, "east");
        let after = consumer.consume_available(&topo).unwrap();

        // zero data loss: every payment id seen at least once
        let mut all = ids(&consumed_before);
        all.extend(ids(&more));
        all.extend(ids(&after));
        assert_eq!(all.len(), 260, "payments lost in failover");

        // bounded replay: duplicates are limited to the checkpoint gap,
        // far from a full re-read
        assert!(
            after.len() < 200,
            "resumed from near the sync point, got {} replayed",
            after.len()
        );
    }

    #[test]
    fn failover_under_injected_replication_lag_loses_nothing() {
        use rtdi_common::chaos::{FaultKind, FaultPlan, FaultPoint, Trigger};
        let topo = MultiRegionTopology::new(
            &["west", "east"],
            "payments",
            TopicConfig::lossless().with_partitions(2),
        )
        .unwrap();
        for i in 0..200 {
            let region = if i % 2 == 0 { "west" } else { "east" };
            topo.produce(region, payment(i), i).unwrap();
        }
        topo.replicate(500);
        let sync = OffsetSyncService::new(topo.mappings().clone());
        let mut consumer = ActivePassiveConsumer::new("payment-processor", "payments", "west");
        let consumed_before = consumer.consume_available(&topo).unwrap();
        assert_eq!(consumed_before.len(), 200);

        // 60 more payments arrive, then the cross-region links degrade:
        // this replication round only partially lands, so the aggregates
        // diverge (east lags behind west)
        for i in 200..260 {
            let region = if i % 2 == 0 { "west" } else { "east" };
            topo.produce(region, payment(i), i).unwrap();
        }
        topo.chaos().arm(
            FaultPoint::MultiregionReplicate,
            FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(40, None),
        );
        topo.replicate(600);
        let west_count = topo.aggregate_count("west").unwrap();
        let east_count = topo.aggregate_count("east").unwrap();
        assert!(
            east_count < west_count,
            "lag injected: east {east_count} should trail west {west_count}"
        );
        let more = consumer.consume_available(&topo).unwrap();

        // west dies; the consumer fails over to the lagging region using
        // the synchronized offsets
        topo.region("west").unwrap().set_down(true);
        assert!(consumer.consume_available(&topo).is_err());
        consumer.fail_over(&topo, &sync, "east").unwrap();
        assert_eq!(consumer.current_region, "east");

        // the links heal and west recovers; replication catches east up,
        // and the consumer drains from the translated resume point
        topo.chaos().disarm(FaultPoint::MultiregionReplicate);
        topo.region("west").unwrap().set_down(false);
        topo.replicate(700);
        let after = consumer.consume_available(&topo).unwrap();

        // zero data loss despite failing over while the target lagged:
        // every payment id seen at least once
        let mut all = ids(&consumed_before);
        all.extend(ids(&more));
        all.extend(ids(&after));
        assert_eq!(all.len(), 260, "payments lost in lagging failover");
        // bounded replay: the conservative translation replays a suffix,
        // never the whole topic
        assert!(
            after.len() < 260,
            "resumed from the sync point, got {} replayed",
            after.len()
        );
    }

    #[test]
    fn failover_without_sync_data_restarts_from_earliest() {
        let topo =
            MultiRegionTopology::new(&["a", "b"], "t", TopicConfig::default().with_partitions(1))
                .unwrap();
        for i in 0..10 {
            topo.produce("a", payment(i), i).unwrap();
        }
        topo.replicate(50);
        // a fresh mapping store = no checkpoints at all
        let sync = OffsetSyncService::new(rtdi_stream::replicator::OffsetMappingStore::new());
        let mut consumer = ActivePassiveConsumer::new("c", "t", "a");
        consumer.consume_available(&topo).unwrap();
        consumer.fail_over(&topo, &sync, "b").unwrap();
        // conservative: resume from earliest (replay everything, lose nothing)
        let replayed = consumer.consume_available(&topo).unwrap();
        assert_eq!(replayed.len(), 10);
    }

    #[test]
    fn cannot_fail_over_to_downed_region() {
        let topo =
            MultiRegionTopology::new(&["a", "b"], "t", TopicConfig::default().with_partitions(1))
                .unwrap();
        topo.region("b").unwrap().set_down(true);
        let sync = OffsetSyncService::new(topo.mappings().clone());
        let mut consumer = ActivePassiveConsumer::new("c", "t", "a");
        assert!(consumer.fail_over(&topo, &sync, "b").is_err());
        assert_eq!(consumer.current_region, "a");
    }
}
