//! Regions, regional/aggregate clusters and cross-region replication.
//!
//! §6: "All the trip events are sent over to the Kafka regional cluster
//! and then aggregated into the aggregate clusters for the global view."

use rtdi_common::{Chaos, Clock, Error, Membership, MembershipEvent, Record, Result, Timestamp};
use rtdi_stream::cluster::{Cluster, ClusterConfig};
use rtdi_stream::replicator::{OffsetMappingStore, Replicator};
use rtdi_stream::topic::TopicConfig;
use std::sync::Arc;

/// One region: a regional ingestion cluster and an aggregate cluster
/// receiving replicated data from every region.
pub struct Region {
    pub name: String,
    /// `name`, interned: what [`MultiRegionTopology::produce`] stamps as a
    /// record's origin region.
    origin: Arc<str>,
    pub regional: Arc<Cluster>,
    pub aggregate: Arc<Cluster>,
}

impl Region {
    /// Both clusters take their faults from `chaos`.
    pub fn new(name: &str, chaos: &Chaos) -> Region {
        let cluster = |role: &str| {
            Cluster::with_chaos(
                format!("{name}-{role}"),
                ClusterConfig::default(),
                chaos.clone(),
            )
        };
        Region {
            name: name.to_string(),
            origin: name.into(),
            regional: cluster("regional"),
            aggregate: cluster("aggregate"),
        }
    }

    /// Build a region whose clusters join a shared membership view, so a
    /// region kill is detectable as a correlated burst of node deaths.
    pub fn with_membership(name: &str, membership: Arc<Membership>, chaos: &Chaos) -> Region {
        let cluster = |role: &str| {
            Cluster::with_membership(
                format!("{name}-{role}"),
                ClusterConfig::default(),
                membership.clone(),
                Some(name),
                chaos.clone(),
            )
        };
        Region {
            name: name.to_string(),
            origin: name.into(),
            regional: cluster("regional"),
            aggregate: cluster("aggregate"),
        }
    }

    /// Down (or restore) the whole region: both failure domains.
    pub fn set_down(&self, down: bool) {
        self.regional.set_down(down);
        self.aggregate.set_down(down);
    }

    /// Down only the aggregate cluster (partial degradation).
    pub fn set_aggregate_down(&self, down: bool) {
        self.aggregate.set_down(down);
    }

    /// Full region loss: both clusters unreachable. Partial degradation
    /// (one cluster lost) is not — a region with a live aggregate can
    /// still serve consumers, and one with a live regional cluster still
    /// ingests.
    pub fn is_down(&self) -> bool {
        self.regional.is_down() && self.aggregate.is_down()
    }

    /// Region kill: every broker of both clusters falls silent (the
    /// shared failure detector must notice the missed heartbeats) and
    /// both clusters reject operations immediately.
    pub fn fail_region(&self) {
        self.regional.fail_all_nodes_silently();
        self.aggregate.fail_all_nodes_silently();
        self.set_down(true);
    }

    /// Heal a killed region: brokers rejoin their ISRs and operations
    /// resume.
    pub fn heal_region(&self) {
        self.regional.heal_all_nodes();
        self.aggregate.heal_all_nodes();
        self.set_down(false);
    }

    /// Aggregate-only loss: the aggregate cluster's brokers fall silent
    /// while the regional cluster keeps ingesting and replicating out.
    pub fn fail_aggregate(&self) {
        self.aggregate.fail_all_nodes_silently();
        self.set_aggregate_down(true);
    }

    pub fn heal_aggregate(&self) {
        self.aggregate.heal_all_nodes();
        self.set_aggregate_down(false);
    }
}

/// The full mesh: every regional topic replicates into every region's
/// aggregate cluster.
pub struct MultiRegionTopology {
    pub regions: Vec<Region>,
    replicators: Vec<Replicator>,
    mappings: OffsetMappingStore,
    topic: String,
    /// Shared failure detector across every cluster of every region
    /// (only when built via [`MultiRegionTopology::with_chaos`]).
    membership: Option<Arc<Membership>>,
    /// The one handle every cluster and replication route was built with.
    chaos: Chaos,
}

impl MultiRegionTopology {
    /// Build `n` regions wired for `topic`.
    pub fn new(region_names: &[&str], topic: &str, config: TopicConfig) -> Result<Self> {
        let chaos = Chaos::default();
        let regions: Vec<Region> = region_names
            .iter()
            .map(|n| Region::new(n, &chaos))
            .collect();
        Self::wire(regions, topic, config, None, chaos)
    }

    /// Build the topology on one shared membership view driven by
    /// `clock`, under a fault-injection handle the caller keeps a clone
    /// of: every broker of every cluster registers under its region, so a
    /// region kill surfaces as a correlated burst of heartbeat-deadline
    /// deaths in `membership().region_is_down(...)` — detected, not
    /// announced.
    pub fn with_chaos(
        region_names: &[&str],
        topic: &str,
        config: TopicConfig,
        clock: Arc<dyn Clock>,
        chaos: Chaos,
    ) -> Result<Self> {
        let membership = Membership::new(clock, rtdi_common::MembershipConfig::default());
        let regions: Vec<Region> = region_names
            .iter()
            .map(|n| Region::with_membership(n, membership.clone(), &chaos))
            .collect();
        Self::wire(regions, topic, config, Some(membership), chaos)
    }

    fn wire(
        regions: Vec<Region>,
        topic: &str,
        config: TopicConfig,
        membership: Option<Arc<Membership>>,
        chaos: Chaos,
    ) -> Result<Self> {
        let mappings = OffsetMappingStore::new();
        for r in &regions {
            r.regional.create_topic(topic, config.clone())?;
            r.aggregate.create_topic(topic, config.clone())?;
        }
        let mut replicators = Vec::new();
        for src in &regions {
            for dst in &regions {
                let route = route_name(&src.name, &dst.name, topic);
                let rep = Replicator::new(
                    route,
                    src.regional.clone(),
                    dst.aggregate.clone(),
                    topic,
                    mappings.clone(),
                    64,
                )
                .with_chaos(chaos.clone());
                rep.prepare()?;
                replicators.push(rep);
            }
        }
        Ok(MultiRegionTopology {
            regions,
            replicators,
            mappings,
            topic: topic.to_string(),
            membership,
            chaos,
        })
    }

    /// The topology's fault-injection handle: arm `multiregion.replicate`
    /// or `stream.*` here to fail its routes and clusters.
    pub fn chaos(&self) -> &Chaos {
        &self.chaos
    }

    pub fn topic(&self) -> &str {
        &self.topic
    }

    pub fn mappings(&self) -> &OffsetMappingStore {
        &self.mappings
    }

    /// The shared failure detector (None unless built with
    /// [`MultiRegionTopology::with_chaos`]).
    pub fn membership(&self) -> Option<&Arc<Membership>> {
        self.membership.as_ref()
    }

    /// One heartbeat interval: every live broker of every cluster
    /// heartbeats, then the shared detector runs once. Returns the
    /// detector's state transitions. No-op (empty) without a shared
    /// membership.
    pub fn heartbeat_tick(&self) -> Vec<MembershipEvent> {
        let Some(m) = &self.membership else {
            return Vec::new();
        };
        for r in &self.regions {
            r.regional.heartbeat_nodes();
            r.aggregate.heartbeat_nodes();
        }
        m.tick()
    }

    pub fn region(&self, name: &str) -> Result<&Region> {
        self.regions
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| Error::NotFound(format!("region '{name}'")))
    }

    /// Produce an event into a region's regional cluster (what the app in
    /// that region does).
    pub fn produce(&self, region: &str, mut record: Record, now: Timestamp) -> Result<()> {
        let region = self.region(region)?;
        record.set_origin_region(Some(region.origin.clone()));
        region.regional.produce(&self.topic, record, now)?;
        Ok(())
    }

    /// Run every replication route once (skipping routes touching downed
    /// regions). Returns records copied.
    pub fn replicate(&self, now: Timestamp) -> u64 {
        let mut copied = 0;
        for rep in &self.replicators {
            // routes to/from downed clusters simply fail; that is the
            // disaster the failover machinery tolerates
            if let Ok(n) = rep.run_once(now) {
                copied += n;
            }
        }
        copied
    }

    /// Total records in one region's aggregate topic.
    pub fn aggregate_count(&self, region: &str) -> Result<u64> {
        Ok(self
            .region(region)?
            .aggregate
            .topic(&self.topic)?
            .total_records())
    }

    /// Total records across every region's regional (source) topic —
    /// what a fully caught-up aggregate would hold.
    pub fn total_regional_count(&self) -> u64 {
        self.regions
            .iter()
            .filter_map(|r| r.regional.topic(&self.topic).ok())
            .map(|t| t.total_records())
            .sum()
    }

    /// Replication lag of one region's aggregate: records produced
    /// somewhere in the mesh that have not landed in this aggregate yet.
    /// This is the staleness a query against this region's OLAP serving
    /// path inherits during an outage.
    pub fn aggregate_lag(&self, region: &str) -> Result<u64> {
        let target = self.aggregate_count(region)?;
        Ok(self.total_regional_count().saturating_sub(target))
    }
}

/// Canonical name of a replication route.
pub fn route_name(src: &str, dst: &str, topic: &str) -> String {
    format!("{src}->{dst}:{topic}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;

    fn trip(i: i64) -> Record {
        Record::new(Row::new().with("trip", i), i).with_key(format!("t{i}"))
    }

    #[test]
    fn aggregate_clusters_converge_to_global_view() {
        let topo = MultiRegionTopology::new(
            &["us-west", "us-east"],
            "trips",
            TopicConfig::default().with_partitions(2),
        )
        .unwrap();
        for i in 0..30 {
            topo.produce("us-west", trip(i), i).unwrap();
        }
        for i in 30..50 {
            topo.produce("us-east", trip(i), i).unwrap();
        }
        topo.replicate(100);
        // both aggregates see all 50 events (the global view)
        assert_eq!(topo.aggregate_count("us-west").unwrap(), 50);
        assert_eq!(topo.aggregate_count("us-east").unwrap(), 50);
    }

    #[test]
    fn downed_region_does_not_block_others() {
        let topo = MultiRegionTopology::new(
            &["a", "b"],
            "trips",
            TopicConfig::default().with_partitions(1),
        )
        .unwrap();
        for i in 0..10 {
            topo.produce("a", trip(i), i).unwrap();
        }
        topo.region("b").unwrap().set_down(true);
        topo.replicate(100);
        assert_eq!(topo.aggregate_count("a").unwrap(), 10);
        assert!(topo.produce("b", trip(99), 99).is_err());
        // b recovers and catches up on the next replication round
        topo.region("b").unwrap().set_down(false);
        topo.replicate(200);
        assert_eq!(topo.aggregate_count("b").unwrap(), 10);
    }

    #[test]
    fn partial_degradation_reports_which_half_is_lost() {
        let topo = MultiRegionTopology::new(
            &["a", "b"],
            "trips",
            TopicConfig::default().with_partitions(1),
        )
        .unwrap();
        let a = topo.region("a").unwrap();
        assert!(!a.is_down());

        // aggregate-only loss: produce + outbound replication still work
        a.set_aggregate_down(true);
        assert!(!a.is_down(), "partial loss is not full region loss");
        for i in 0..5 {
            topo.produce("a", trip(i), i).unwrap();
        }
        topo.replicate(10);
        assert_eq!(topo.aggregate_count("b").unwrap(), 5, "b still converges");
        assert!(topo.aggregate_count("a").is_err(), "a's aggregate is dark");
        assert_eq!(topo.aggregate_lag("b").unwrap(), 0);

        // the aggregate heals and catches up from the live regional side
        a.set_aggregate_down(false);
        topo.replicate(20);
        assert_eq!(topo.aggregate_count("a").unwrap(), 5, "aggregate caught up");

        // regional-only loss: ingest fails, the aggregate keeps serving
        a.regional.set_down(true);
        assert!(topo.produce("a", trip(9), 9).is_err());
        assert_eq!(topo.aggregate_count("a").unwrap(), 5, "still serving");

        a.regional.set_down(false);
        a.set_down(true);
        assert!(a.is_down());
    }

    #[test]
    fn shared_membership_detects_region_kill_by_missed_heartbeats() {
        use rtdi_common::SimClock;
        let clock = Arc::new(SimClock::new(0));
        let topo = MultiRegionTopology::with_chaos(
            &["west", "east"],
            "trips",
            TopicConfig::default().with_partitions(1),
            clock.clone(),
            Chaos::default(),
        )
        .unwrap();
        let m = topo.membership().unwrap().clone();
        // all brokers of both regions live under their region tags
        let statuses = m.region_statuses();
        let regions: Vec<&str> = statuses.iter().map(|s| s.region.as_str()).collect();
        assert_eq!(regions, ["east", "west"]);
        assert!(statuses.iter().all(|s| s.live > 0 && s.dead == 0));
        for _ in 0..3 {
            clock.advance(1_000);
            topo.heartbeat_tick();
        }
        assert!(!m.region_is_down("west"));

        // west region dies silently: nothing is announced, the shared
        // detector notices the correlated burst of missed deadlines
        topo.region("west").unwrap().fail_region();
        let mut detected_at = None;
        for _ in 0..15 {
            clock.advance(1_000);
            topo.heartbeat_tick();
            if m.region_is_down("west") {
                detected_at = Some(clock.now());
                break;
            }
        }
        let detected_at = detected_at.expect("region death detected");
        assert!(detected_at >= 10_000, "not before the dead deadline");
        assert!(!m.region_is_down("east"), "east unaffected");

        // heal: brokers heartbeat again and the region leaves the dead set
        topo.region("west").unwrap().heal_region();
        clock.advance(1_000);
        topo.heartbeat_tick();
        assert!(!m.region_is_down("west"));
    }

    #[test]
    fn origin_region_stamped() {
        let topo =
            MultiRegionTopology::new(&["a"], "trips", TopicConfig::default().with_partitions(1))
                .unwrap();
        topo.produce("a", trip(1), 1).unwrap();
        let t = topo.region("a").unwrap().regional.topic("trips").unwrap();
        let rec = &t.fetch(0, 0, 1).unwrap().records[0].record;
        assert_eq!(rec.origin_region(), Some("a"));
    }
}
