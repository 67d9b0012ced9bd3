//! Physical clusters: named broker nodes hosting replicated topics.
//!
//! §4.1.1: "Based on our empirical data, the ideal cluster size is less
//! than 150 nodes for optimum performance. With federation, the Kafka
//! service can scale horizontally by adding more clusters when a cluster
//! is full." [`Cluster`] models node count, per-node partition capacity
//! and a fullness signal the federation layer uses to decide when to add a
//! cluster. The overhead model behind the 150-node observation is claim
//! E2's, in `rtdi-bench`.
//!
//! Since PR 4 the nodes are real failure domains: each broker is a named
//! member (`{cluster}-n{i}`) of a shared [`Membership`] view. Topic
//! partitions are placed across live nodes with replication-factor
//! spread, node death (declared by the heartbeat failure detector or by a
//! [`Cluster::kill_node`] on the cluster's [`Chaos`] handle) triggers
//! leader failover on every partition the node led, and recovery rejoins
//! it to the ISRs.

use crate::replica::FailoverEvent;
use crate::topic::{Topic, TopicConfig};
use parking_lot::RwLock;
use rtdi_common::{
    Chaos, Clock, Error, Membership, MembershipConfig, MembershipEvent, MembershipListener,
    NodeState, Record, Result, SimClock, Timestamp,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Sizing/behaviour knobs for a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub nodes: usize,
    /// How many partition replicas one node can host.
    pub partitions_per_node: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 30,
            partitions_per_node: 100,
        }
    }
}

/// One physical broker cluster.
pub struct Cluster {
    name: String,
    config: ClusterConfig,
    topics: RwLock<BTreeMap<String, Arc<Topic>>>,
    /// Simulated total-cluster failure (for federation failover tests).
    down: AtomicBool,
    membership: Arc<Membership>,
    /// Which brokers are chaos-downed, and the handle every topic created
    /// here and the [`crate::producer::StreamEndpoint`] send check.
    pub(crate) chaos: Chaos,
}

/// Fans membership transitions out to every topic's replica sets:
/// `Dead` fails the node's partitions over, `Alive` (from dead) rejoins
/// it. Holds a weak ref so the cluster can be dropped while subscribed.
struct TopicFailoverFanout {
    cluster: Weak<Cluster>,
}

impl MembershipListener for TopicFailoverFanout {
    fn on_membership_event(&self, event: &MembershipEvent) {
        let Some(cluster) = self.cluster.upgrade() else {
            return;
        };
        let topics: Vec<Arc<Topic>> = cluster.topics.read().values().cloned().collect();
        match (event.from, event.to) {
            (_, NodeState::Dead) => {
                for t in &topics {
                    t.on_node_down(&event.node, event.at);
                }
            }
            (NodeState::Dead, NodeState::Alive) => {
                for t in &topics {
                    t.on_node_up(&event.node, event.at);
                }
            }
            _ => {} // Suspect transitions don't move leadership
        }
    }
}

impl Cluster {
    pub fn new(name: impl Into<String>, config: ClusterConfig) -> Arc<Self> {
        Self::with_chaos(name, config, Chaos::default())
    }

    /// [`Cluster::new`] under a fault-injection handle the caller keeps a
    /// clone of.
    pub fn with_chaos(name: impl Into<String>, config: ClusterConfig, chaos: Chaos) -> Arc<Self> {
        let membership = Membership::new(Arc::new(SimClock::new(0)), MembershipConfig::default());
        Self::with_membership(name, config, membership, None, chaos)
    }

    /// Create a cluster whose membership/failure detection runs on the
    /// given logical clock (shared with the rest of a simulation).
    pub fn with_clock(
        name: impl Into<String>,
        config: ClusterConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        let membership = Membership::new(clock, MembershipConfig::default());
        Self::with_membership(name, config, membership, None, Chaos::default())
    }

    /// Create a cluster joining an existing (shared) membership view,
    /// optionally tagging its brokers with a region failure domain. A
    /// multi-region topology registers every cluster of a region under
    /// the region's name, so a region kill is observable as a correlated
    /// burst of node deaths in one shared detector
    /// (`membership.region_is_down(region)`), not just a cluster flag.
    pub fn with_membership(
        name: impl Into<String>,
        config: ClusterConfig,
        membership: Arc<Membership>,
        region: Option<&str>,
        chaos: Chaos,
    ) -> Arc<Self> {
        let name = name.into();
        let cluster = Arc::new(Cluster {
            name,
            config,
            topics: RwLock::new(BTreeMap::new()),
            down: AtomicBool::new(false),
            membership,
            chaos,
        });
        for node in cluster.node_names() {
            match region {
                Some(r) => cluster.membership.register_in_region(&node, r),
                None => cluster.membership.register(&node),
            }
        }
        cluster.membership.subscribe(Arc::new(TopicFailoverFanout {
            cluster: Arc::downgrade(&cluster),
        }));
        cluster
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Names of every broker this cluster was sized with, dead or alive.
    pub fn node_names(&self) -> Vec<String> {
        (0..self.config.nodes)
            .map(|i| format!("{}-n{}", self.name, i))
            .collect()
    }

    /// The shared membership view (heartbeats, failure detection,
    /// listeners).
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    pub(crate) fn check_up(&self) -> Result<()> {
        if self.is_down() {
            Err(Error::Unavailable(format!("cluster '{}' down", self.name)))
        } else {
            Ok(())
        }
    }

    /// Emit a heartbeat from every node that is not chaos-downed, then
    /// run the failure detector. This is the per-interval driver a
    /// simulation calls as it advances the logical clock; a chaos-downed
    /// node simply falls silent, so its death is *detected* (after
    /// `dead_after_ms`) rather than announced — that detection latency is
    /// what the failover MTTR experiment measures.
    pub fn heartbeat_tick(&self) -> Vec<MembershipEvent> {
        self.heartbeat_nodes();
        self.membership.tick()
    }

    /// Emit heartbeats from this cluster's non-chaos-downed brokers
    /// without running the detector. When several clusters share one
    /// membership view ([`Cluster::with_membership`]), the driver calls
    /// this on every cluster and then ticks the shared membership once.
    pub fn heartbeat_nodes(&self) {
        for node in self.node_names() {
            if !self.chaos.node_is_down(&node) {
                self.membership.heartbeat(&node);
            }
        }
    }

    /// Silence every broker in this cluster at once (chaos down, no
    /// announcement) — the cluster half of a region kill. The shared
    /// detector must notice the correlated burst of missed deadlines.
    pub fn fail_all_nodes_silently(&self) {
        for node in self.node_names() {
            self.chaos.kill_node(&node);
        }
    }

    /// Heal every broker in this cluster (chaos heal + membership
    /// revive); each rejoins its ISRs.
    pub fn heal_all_nodes(&self) {
        for node in self.node_names() {
            self.heal_node(&node);
        }
    }

    /// Kill a broker abruptly and *announce* it (chaos handle + pinned
    /// membership kill): partitions fail over immediately. Use
    /// [`Cluster::fail_node_silently`] to exercise the detection path
    /// instead. Returns false if the node was already down.
    pub fn kill_node(&self, node: &str) -> bool {
        let newly = self.chaos.kill_node(node);
        self.membership.kill(node);
        newly
    }

    /// Kill a broker silently: it stops heartbeating (the chaos handle
    /// marks it down so [`Cluster::heartbeat_tick`] skips it) but nothing
    /// is announced — the failure detector must notice the missed
    /// deadlines. Returns false if the node was already down.
    pub fn fail_node_silently(&self, node: &str) -> bool {
        self.chaos.kill_node(node)
    }

    /// Bring a downed broker back: heartbeats resume and it rejoins every
    /// ISR (catching up from shared storage). Works for both announced
    /// and silent kills.
    pub fn heal_node(&self, node: &str) -> bool {
        let newly = self.chaos.heal_node(node);
        self.membership.revive(node);
        newly
    }

    /// Live (non-dead) broker names, in name order.
    pub fn live_node_names(&self) -> Vec<String> {
        self.membership.live_nodes()
    }

    /// Total partition-replica slots and how many are used.
    pub fn capacity(&self) -> (usize, usize) {
        let cfg = &self.config;
        let total = cfg.nodes * cfg.partitions_per_node;
        let used: usize = self
            .topics
            .read()
            .values()
            .map(|t| t.num_partitions() * t.config().replication)
            .sum();
        (total, used)
    }

    /// Create a topic with its partition replicas placed across this
    /// cluster's *live* nodes — brokers currently marked dead are skipped
    /// at placement time.
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> Result<Arc<Topic>> {
        self.check_up()?;
        let mut topics = self.topics.write();
        if topics.contains_key(name) {
            return Err(Error::AlreadyExists(format!("topic '{name}'")));
        }
        {
            let cfg = &self.config;
            let total = cfg.nodes * cfg.partitions_per_node;
            let used: usize = topics
                .values()
                .map(|t| t.num_partitions() * t.config().replication)
                .sum();
            let needed = config.partitions * config.replication;
            if used + needed > total {
                return Err(Error::CapacityExceeded(format!(
                    "cluster '{}' cannot host {needed} more partition replicas ({used}/{total} used)",
                    self.name
                )));
            }
        }
        let live = self.live_node_names();
        if live.is_empty() {
            return Err(Error::Unavailable(format!(
                "cluster '{}' has no live nodes to place topic '{name}'",
                self.name
            )));
        }
        let topic =
            Arc::new(Topic::with_placement(name, config, &live)?.with_chaos(self.chaos.clone()));
        topics.insert(name.to_string(), topic.clone());
        Ok(topic)
    }

    pub fn topic(&self, name: &str) -> Result<Arc<Topic>> {
        self.check_up()?;
        self.topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("topic '{name}' in cluster '{}'", self.name)))
    }

    pub fn topic_names(&self) -> Vec<String> {
        self.topics.read().keys().cloned().collect()
    }

    /// Remove a topic (after federation migrates it away).
    pub fn drop_topic(&self, name: &str) -> Result<()> {
        self.topics
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("topic '{name}'")))
    }

    /// Produce a record to a topic on this cluster.
    pub fn produce(
        &self,
        topic: &str,
        record: impl Into<Arc<Record>>,
        now: Timestamp,
    ) -> Result<(usize, u64)> {
        let t = self.topic(topic)?;
        t.append(record, now)
    }

    /// Every leadership transition across all topics, ordered by
    /// (time, topic, partition, epoch) — deterministic for a given
    /// kill/heal/clock schedule; the node-kill CI gate diffs this.
    pub fn failover_log(&self) -> String {
        let mut events: Vec<FailoverEvent> = self
            .topics
            .read()
            .values()
            .flat_map(|t| t.failover_events())
            .collect();
        events.sort_by(|a, b| {
            (a.at, &a.topic, a.partition, a.epoch).cmp(&(b.at, &b.topic, b.partition, b.epoch))
        });
        let mut out = String::new();
        for ev in &events {
            out.push_str(&ev.line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::Row;

    impl Cluster {
        /// Whether the federation layer should stop placing new topics here.
        fn is_full(&self) -> bool {
            let (total, used) = self.capacity();
            used >= total
        }
    }

    #[test]
    fn create_produce_fetch() {
        let c = Cluster::new("agg1", ClusterConfig::default());
        c.create_topic("trips", TopicConfig::default()).unwrap();
        let (p, o) = c
            .produce("trips", Record::new(Row::new().with("x", 1i64), 0), 0)
            .unwrap();
        assert_eq!(o, 0);
        let t = c.topic("trips").unwrap();
        assert_eq!(t.fetch(p, 0, 10).unwrap().records.len(), 1);
        assert!(c.produce("nope", Record::new(Row::new(), 0), 0).is_err());
    }

    #[test]
    fn duplicate_topic_rejected() {
        let c = Cluster::new("c", ClusterConfig::default());
        c.create_topic("t", TopicConfig::default()).unwrap();
        assert!(matches!(
            c.create_topic("t", TopicConfig::default()),
            Err(Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn capacity_enforced() {
        let c = Cluster::new(
            "small",
            ClusterConfig {
                nodes: 1,
                partitions_per_node: 9,
            },
        );
        // 9 slots; topic with 2 partitions x 3 replicas = 6 slots
        c.create_topic("a", TopicConfig::default().with_partitions(2))
            .unwrap();
        assert!(!c.is_full());
        // another 6 would exceed
        assert!(matches!(
            c.create_topic("b", TopicConfig::default().with_partitions(2)),
            Err(Error::CapacityExceeded(_))
        ));
        // 1 partition x 3 replicas fits exactly
        c.create_topic("c", TopicConfig::default().with_partitions(1))
            .unwrap();
        assert!(c.is_full());
    }

    #[test]
    fn down_cluster_rejects_operations() {
        let c = Cluster::new("c", ClusterConfig::default());
        c.create_topic("t", TopicConfig::default()).unwrap();
        c.set_down(true);
        assert!(matches!(c.topic("t"), Err(Error::Unavailable(_))));
        assert!(c.produce("t", Record::new(Row::new(), 0), 0).is_err());
        c.set_down(false);
        assert!(c.topic("t").is_ok());
    }

    #[test]
    fn drop_topic_frees_capacity() {
        let c = Cluster::new(
            "c",
            ClusterConfig {
                nodes: 1,
                partitions_per_node: 6,
            },
        );
        c.create_topic("a", TopicConfig::default().with_partitions(2))
            .unwrap();
        assert!(c.is_full());
        c.drop_topic("a").unwrap();
        assert!(!c.is_full());
        assert!(c.drop_topic("a").is_err());
    }

    #[test]
    fn announced_kill_fails_partitions_over_immediately() {
        let c = Cluster::new(
            "agg",
            ClusterConfig {
                nodes: 4,
                ..Default::default()
            },
        );
        let t = c.create_topic("trips", TopicConfig::default()).unwrap();
        for i in 0..20 {
            c.produce(
                "trips",
                Record::new(Row::new().with("i", i), i).with_key(format!("k{i}")),
                i,
            )
            .unwrap();
        }
        let victim = t.replica_status(0).unwrap().leader.unwrap();
        assert!(c.kill_node(&victim));
        let st = t.replica_status(0).unwrap();
        assert_ne!(st.leader.as_deref(), Some(victim.as_str()));
        assert!(st.leader.is_some(), "in-sync follower elected");
        // committed records survive, writes keep flowing
        let committed: u64 = t.committed_watermarks().iter().sum();
        assert_eq!(committed, 20);
        c.produce("trips", Record::new(Row::new().with("i", 99i64), 99), 99)
            .unwrap();
        assert!(c.failover_log().contains(&victim));
        c.heal_node(&victim);
        assert_eq!(t.replica_status(0).unwrap().isr.len(), 3);
    }

    #[test]
    fn silent_failure_is_detected_by_deadline_and_healed() {
        let clock = Arc::new(SimClock::new(0));
        let c = Cluster::with_clock(
            "agg",
            ClusterConfig {
                nodes: 3,
                ..Default::default()
            },
            clock.clone(),
        );
        let t = c.create_topic("trips", TopicConfig::default()).unwrap();
        let victim = t.replica_status(0).unwrap().leader.unwrap();
        assert!(c.fail_node_silently(&victim));
        // node goes silent; detector needs dead_after_ms of missed beats
        let interval = c.membership().config().heartbeat_interval_ms;
        let mut detected_at = None;
        for _ in 0..15 {
            clock.advance(interval);
            let evs = c.heartbeat_tick();
            if evs
                .iter()
                .any(|e| e.node == victim && e.to == NodeState::Dead)
            {
                detected_at = Some(clock.now());
                break;
            }
        }
        let detected_at = detected_at.expect("silent node declared dead");
        assert!(detected_at >= c.membership().config().dead_after_ms);
        assert!(t.replica_status(0).unwrap().leader.is_some());
        assert_ne!(t.replica_status(0).unwrap().leader.unwrap(), victim);
        // heal: heartbeats resume, node rejoins the ISR
        c.heal_node(&victim);
        clock.advance(interval);
        c.heartbeat_tick();
        assert_eq!(t.replica_status(0).unwrap().isr.len(), 3);
    }

    #[test]
    fn placement_skips_dead_nodes() {
        let c = Cluster::new(
            "agg",
            ClusterConfig {
                nodes: 5,
                ..Default::default()
            },
        );
        c.kill_node("agg-n0");
        let t = c.create_topic("t", TopicConfig::default()).unwrap();
        for p in 0..t.num_partitions() {
            let st = t.replica_status(p).unwrap();
            assert!(
                !st.assignment.contains(&"agg-n0".to_string()),
                "dead node must not receive replicas"
            );
        }
        c.heal_node("agg-n0");
    }
}
