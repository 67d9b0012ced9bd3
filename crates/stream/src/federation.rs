//! Cluster federation (§4.1.1).
//!
//! "A metadata server aggregates all the metadata information of the
//! clusters and topics in a central place, so that it can transparently
//! route the client's request to the actual physical cluster... With
//! federation, the Kafka service can scale horizontally by adding more
//! clusters when a cluster is full. New topics are seamlessly created on
//! the newly added clusters... Cluster federation enables consumer traffic
//! redirection to another physical cluster without restarting the
//! application."
//!
//! [`FederatedCluster`] exposes the same [`StreamEndpoint`] interface as a
//! single physical cluster — producers and consumers see one "logical
//! cluster". Each topic has one [`TopicSubscription`], made when the topic
//! is placed; every reader holds a clone of it, and a migration redirects
//! it once. Topic migration is offset-preserving: destination partitions
//! adopt the source's base offsets before the copy, so every reader's
//! cursors remain valid after the transparent redirect.

use crate::chaperone::{Chaperone, ChaperoneStage};
use crate::cluster::Cluster;
use crate::consumer::TopicSubscription;
use crate::producer::StreamEndpoint;
use crate::topic::{Topic, TopicConfig};
use parking_lot::RwLock;
use rtdi_common::{
    Chaos, Error, FaultPoint, PipelineTracer, Record, Result, Timestamp, TraceStage,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The metadata server's entry for one topic: where it lives, the one
/// subscription its readers follow, and what every append reports to,
/// resolved when the topic is placed (or the tracer/auditor set), so a send
/// looks up one entry and builds no name.
struct Route {
    cluster: Arc<Cluster>,
    /// Where the subscription points: a send appends here without a lock.
    topic: Arc<Topic>,
    subscription: TopicSubscription,
    /// The topic's pipeline, `"stream"` stage: producer->broker dwell.
    trace: Option<TraceStage>,
    /// The `"<topic>/stream"` stage, the upstream side of loss/dup audits.
    audit: Option<ChaperoneStage>,
}

struct Inner {
    clusters: Vec<Arc<Cluster>>,
    /// topic -> route: the central placement table.
    routes: BTreeMap<String, Arc<Route>>,
    /// Optional freshness tracing on every append.
    tracer: Option<PipelineTracer>,
    /// Optional Chaperone observation on every append.
    chaperone: Option<Chaperone>,
}

impl Inner {
    /// (Re)place `name` on `cluster`, where `subscription` points,
    /// resolving its audit handles.
    fn route(&mut self, name: &str, cluster: Arc<Cluster>, subscription: TopicSubscription) {
        let route = Route {
            cluster,
            topic: subscription.topic(),
            subscription,
            trace: self.tracer.as_ref().map(|tr| tr.stage(name, "stream")),
            audit: self
                .chaperone
                .as_ref()
                .map(|ch| ch.stage(&format!("{name}/stream"))),
        };
        self.routes.insert(name.to_string(), Arc::new(route));
    }

    /// Resolve every route again, after the tracer or the auditor changed.
    fn reroute(&mut self) {
        for (name, old) in std::mem::take(&mut self.routes) {
            self.route(&name, old.cluster.clone(), old.subscription.clone());
        }
    }

    fn cluster(&self, name: &str) -> Result<Arc<Cluster>> {
        self.clusters
            .iter()
            .find(|c| c.name() == name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("cluster '{name}'")))
    }
}

/// The logical cluster clients talk to.
#[derive(Clone)]
pub struct FederatedCluster {
    inner: Arc<RwLock<Inner>>,
    chaos: Chaos,
}

impl FederatedCluster {
    pub fn new() -> Self {
        FederatedCluster {
            inner: Arc::new(RwLock::new(Inner {
                clusters: Vec::new(),
                routes: BTreeMap::new(),
                tracer: None,
                chaperone: None,
            })),
            chaos: Chaos::default(),
        }
    }

    /// Sends through the federation fail when `chaos` says so.
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Enable freshness tracing on every append through the federation:
    /// producer->broker dwell under the topic's pipeline, `"stream"` stage.
    pub fn set_tracer(&self, tracer: PipelineTracer) {
        let mut inner = self.inner.write();
        inner.tracer = Some(tracer);
        inner.reroute();
    }

    /// Enable Chaperone observation on every append: records are counted
    /// under the `"<topic>/stream"` stage so downstream stages (ingestion,
    /// sinks) can be audited against the broker.
    pub fn set_chaperone(&self, chaperone: Chaperone) {
        let mut inner = self.inner.write();
        inner.chaperone = Some(chaperone);
        inner.reroute();
    }

    /// Register a physical cluster with the federation.
    pub fn add_cluster(&self, cluster: Arc<Cluster>) {
        self.inner.write().clusters.push(cluster);
    }

    pub fn cluster_names(&self) -> Vec<String> {
        self.inner
            .read()
            .clusters
            .iter()
            .map(|c| c.name().to_string())
            .collect()
    }

    pub fn cluster(&self, name: &str) -> Result<Arc<Cluster>> {
        self.inner.read().cluster(name)
    }

    /// Create a topic on the first healthy, non-full cluster. This is the
    /// "new topics are seamlessly created on the newly added clusters"
    /// behaviour: when existing clusters fill up, operators `add_cluster`
    /// and placement picks it up automatically. Returns the topic placed.
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> Result<Arc<Topic>> {
        let mut inner = self.inner.write();
        if inner.routes.contains_key(name) {
            return Err(Error::AlreadyExists(format!("federated topic '{name}'")));
        }
        let needed = config.partitions * config.replication;
        let target = inner
            .clusters
            .iter()
            .find(|c| {
                // skip clusters marked down, with no live broker left, or
                // without capacity — placement reroutes to the next one
                if c.is_down() || c.live_node_names().is_empty() {
                    return false;
                }
                let (total, used) = c.capacity();
                used + needed <= total
            })
            .cloned()
            .ok_or_else(|| {
                Error::CapacityExceeded(
                    "no federated cluster has capacity for this topic; add a cluster".into(),
                )
            })?;
        let topic = target.create_topic(name, config)?;
        inner.route(name, target, TopicSubscription::new(topic.clone()));
        Ok(topic)
    }

    /// The topic's route, on a cluster that is up.
    fn resolve(&self, topic: &str) -> Result<Arc<Route>> {
        let route = self
            .inner
            .read()
            .routes
            .get(topic)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("federated topic '{topic}'")))?;
        route.cluster.check_up()?;
        Ok(route)
    }

    /// Which physical cluster currently hosts the topic.
    pub fn placement(&self, topic: &str) -> Option<String> {
        let inner = self.inner.read();
        let route = inner.routes.get(topic)?;
        Some(route.cluster.name().to_string())
    }

    /// Subscribe to a topic: a clone of its one subscription, which
    /// follows topic migration without a restart.
    pub fn subscribe(&self, topic: &str) -> Result<TopicSubscription> {
        Ok(self.resolve(topic)?.subscription.clone())
    }

    /// Migrate a topic to another physical cluster while consumers keep
    /// polling. Steps (all under the metadata write lock, so producers are
    /// briefly paused rather than failed):
    ///
    /// 1. create the topic on the target with the same config;
    /// 2. align destination partition base offsets with the source;
    /// 3. hand every retained record to the destination log (the two logs
    ///    share the records; nothing is copied);
    /// 4. redirect the topic's subscription (every reader follows);
    /// 5. update placement (producers now route to the target);
    /// 6. drop the source topic.
    pub fn migrate_topic(&self, topic: &str, to_cluster: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let route = inner
            .routes
            .get(topic)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("federated topic '{topic}'")))?;
        let from = &route.cluster;
        if from.name() == to_cluster {
            return Ok(());
        }
        let to = inner.cluster(to_cluster)?;
        let src = from.topic(topic)?;
        let dst = to.create_topic(topic, src.config().clone())?;
        let partition = |t: &Arc<Topic>, p| {
            t.partition(p)
                .cloned()
                .ok_or_else(|| Error::Internal(format!("topic '{topic}' lost partition {p}")))
        };
        for p in 0..src.num_partitions() {
            let (src_log, dst_log) = (partition(&src, p)?, partition(&dst, p)?);
            dst_log.advance_base_to(src_log.log_start_offset())?;
            let mut offset = src_log.log_start_offset();
            loop {
                let fetch = src_log.fetch(offset, 1024)?;
                if fetch.records.is_empty() {
                    break;
                }
                for rec in fetch.records {
                    offset = rec.offset + 1;
                    // reuse event time as append time so time-based
                    // retention behaves consistently on the destination
                    let now = rec.record.timestamp;
                    dst_log.append(rec.record, now);
                }
            }
        }
        // the hand-over wrote beneath the replication layer; declare the
        // destination replicas caught up so its committed watermarks
        // expose the migrated records
        dst.resync_replicas();
        route.subscription.redirect(dst)?;
        inner.route(topic, to, route.subscription.clone());
        from.drop_topic(topic)?;
        Ok(())
    }
}

impl Default for FederatedCluster {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamEndpoint for FederatedCluster {
    fn send(&self, topic: &str, mut record: Arc<Record>, now: Timestamp) -> Result<(usize, u64)> {
        self.chaos.check(FaultPoint::StreamAppend)?;
        let route = self.resolve(topic)?;
        if let Some(stage) = &route.trace {
            stage.observe_last_hop(&record, now);
            // the stream hop's restamp: a record sent through `Producer`
            // carries this very stamp and stays shared with its retry loop
            if record.audit().trace_ts != Some(now) {
                Arc::make_mut(&mut record).audit_mut().trace_ts = Some(now);
            }
        }
        if let Some(stage) = &route.audit {
            stage.observe(&record);
        }
        route.topic.append(record, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::consumer::ConsumerGroup;
    use rtdi_common::Row;

    fn small_cluster(name: &str, slots: usize) -> Arc<Cluster> {
        Cluster::new(
            name,
            ClusterConfig {
                nodes: 1,
                partitions_per_node: slots,
            },
        )
    }

    fn rec(i: i64) -> Record {
        Record::new(Row::new().with("i", i), i).with_key(format!("k{}", i % 7))
    }

    #[test]
    fn injected_fetch_faults_surface_and_clear() {
        use crate::topic::PartitionCursor;
        use rtdi_common::chaos::{FaultKind, FaultPlan, FaultPoint, Trigger};
        let chaos = Chaos::seeded(0xFE7C);
        let fed = FederatedCluster::new();
        let config = ClusterConfig {
            nodes: 1,
            partitions_per_node: 16,
        };
        fed.add_cluster(Cluster::with_chaos("c1", config, chaos.clone()));
        fed.create_topic("t", TopicConfig::default().with_partitions(1))
            .unwrap();
        fed.send("t", rec(1).into(), 0).unwrap();
        let topic = fed.subscribe("t").unwrap().topic();
        let mut cursor = PartitionCursor::new(0, 0);
        // every 2nd fetch of a cursor on the cluster's topic times out
        chaos.arm(
            FaultPoint::StreamFetch,
            FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(2)),
        );
        assert_eq!(cursor.fetch(&topic, 10).unwrap().len(), 1);
        assert!(matches!(cursor.fetch(&topic, 10), Err(Error::Timeout(_))));
        assert_eq!(
            cursor,
            PartitionCursor::new(0, 0),
            "a failed fetch moves nothing"
        );
        chaos.disarm(FaultPoint::StreamFetch);
        assert_eq!(cursor.fetch(&topic, 10).unwrap().len(), 1);
    }

    #[test]
    fn topics_spill_to_new_clusters_when_full() {
        let fed = FederatedCluster::new();
        fed.add_cluster(small_cluster("c1", 6)); // fits one 2p x 3r topic
        fed.create_topic("a", TopicConfig::default().with_partitions(2))
            .unwrap();
        // c1 full; no capacity anywhere
        assert!(matches!(
            fed.create_topic("b", TopicConfig::default().with_partitions(2)),
            Err(Error::CapacityExceeded(_))
        ));
        // operator adds a cluster; creation now succeeds transparently
        fed.add_cluster(small_cluster("c2", 6));
        fed.create_topic("b", TopicConfig::default().with_partitions(2))
            .unwrap();
        assert_eq!(fed.placement("a").unwrap(), "c1");
        assert_eq!(fed.placement("b").unwrap(), "c2");
    }

    #[test]
    fn placement_rejects_down_cluster_and_reroutes() {
        let fed = FederatedCluster::new();
        let c1 = small_cluster("c1", 100);
        fed.add_cluster(c1.clone());
        fed.add_cluster(small_cluster("c2", 100));
        // c1 (first in placement order) is down: topics must land on c2
        c1.set_down(true);
        fed.create_topic("t", TopicConfig::default().with_partitions(2))
            .unwrap();
        assert_eq!(fed.placement("t").unwrap(), "c2");
        // with every cluster down, placement fails outright
        fed.cluster("c2").unwrap().set_down(true);
        assert!(fed
            .create_topic("u", TopicConfig::default().with_partitions(1))
            .is_err());
        // recovery reroutes again
        c1.set_down(false);
        fed.create_topic("u", TopicConfig::default().with_partitions(1))
            .unwrap();
        assert_eq!(fed.placement("u").unwrap(), "c1");
    }

    #[test]
    fn placement_skips_cluster_with_all_brokers_dead() {
        let fed = FederatedCluster::new();
        let c1 = small_cluster("c1", 100);
        fed.add_cluster(c1.clone());
        fed.add_cluster(small_cluster("c2", 100));
        // the cluster answers metadata requests but has no live broker
        c1.kill_node("c1-n0");
        fed.create_topic("t", TopicConfig::default().with_partitions(2))
            .unwrap();
        assert_eq!(
            fed.placement("t").unwrap(),
            "c2",
            "placement skips the brokerless cluster"
        );
        c1.heal_node("c1-n0");
    }

    #[test]
    fn logical_produce_routes_to_physical_cluster() {
        let fed = FederatedCluster::new();
        fed.add_cluster(small_cluster("c1", 100));
        fed.create_topic("t", TopicConfig::default().with_partitions(2))
            .unwrap();
        for i in 0..10 {
            fed.send("t", rec(i).into(), 0).unwrap();
        }
        let c1 = fed.cluster("c1").unwrap();
        assert_eq!(c1.topic("t").unwrap().total_records(), 10);
        assert!(fed.send("ghost", rec(0).into(), 0).is_err());
    }

    #[test]
    fn migration_preserves_offsets_and_redirects_consumers() {
        let fed = FederatedCluster::new();
        fed.add_cluster(small_cluster("c1", 100));
        fed.add_cluster(small_cluster("c2", 100));
        fed.create_topic("t", TopicConfig::default().with_partitions(2))
            .unwrap();
        for i in 0..100 {
            fed.send("t", rec(i).into(), 0).unwrap();
        }
        let sub = fed.subscribe("t").unwrap();
        let group = ConsumerGroup::new("g", sub.clone());
        group.join("m");
        // consume half, commit
        let mut consumed = Vec::new();
        for _ in 0..5 {
            consumed.extend(group.poll("m", 10).unwrap());
        }
        group.commit("m");
        let before = consumed.len();
        assert!(before >= 50);

        // migrate with live consumer
        fed.migrate_topic("t", "c2").unwrap();
        assert_eq!(fed.placement("t").unwrap(), "c2");
        assert!(fed.cluster("c1").unwrap().topic("t").is_err());
        // the one subscription moved: every clone, old or new, reads c2
        let moved = fed.cluster("c2").unwrap().topic("t").unwrap();
        assert!(Arc::ptr_eq(&sub.topic(), &moved));
        assert!(Arc::ptr_eq(&fed.subscribe("t").unwrap().topic(), &moved));

        // producers keep working against the logical name
        for i in 100..110 {
            fed.send("t", rec(i).into(), 0).unwrap();
        }

        // consumer continues without restart; no loss, no duplication
        loop {
            let recs = group.poll("m", 10).unwrap();
            if recs.is_empty() {
                break;
            }
            consumed.extend(recs);
            group.commit("m");
        }
        let mut ids: Vec<i64> = consumed
            .iter()
            .map(|r| r.record.value.get_int("i").unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 110, "every record seen exactly once");
        assert_eq!(group.lag(), 0);
    }

    #[test]
    fn migrate_to_same_cluster_is_noop() {
        let fed = FederatedCluster::new();
        fed.add_cluster(small_cluster("c1", 100));
        fed.create_topic("t", TopicConfig::default()).unwrap();
        fed.migrate_topic("t", "c1").unwrap();
        assert_eq!(fed.placement("t").unwrap(), "c1");
    }

    #[test]
    fn placement_skips_down_clusters() {
        let fed = FederatedCluster::new();
        let c1 = small_cluster("c1", 100);
        c1.set_down(true);
        fed.add_cluster(c1);
        fed.add_cluster(small_cluster("c2", 100));
        fed.create_topic("t", TopicConfig::default()).unwrap();
        assert_eq!(fed.placement("t").unwrap(), "c2");
    }
}
