//! Cluster membership and heartbeat-based failure detection.
//!
//! The paper's availability story is node-granular: Kafka partitions
//! survive broker loss through replication (§4.1), Pinot re-serves
//! segments from deep storage when a server dies (§4.3.4), and the job
//! manager restarts Flink jobs whose task managers stop heartbeating
//! (§4.2.1). All three need the same primitive — "which nodes are alive
//! right now?" — so this module provides one shared membership view:
//!
//! - simulated nodes emit [`Membership::heartbeat`]s on the existing
//!   logical clock ([`Clock`]/`SimClock`), never the wall clock;
//! - a deadline-based failure detector ([`Membership::tick`]) declares a
//!   node [`NodeState::Suspect`] after `suspect_after_ms` without a
//!   heartbeat and [`NodeState::Dead`] after `dead_after_ms`;
//! - registered [`MembershipListener`]s (partition leader election, the
//!   OLAP rebalancer, the job manager) react to state transitions, which
//!   come out in a deterministic order for a given heartbeat/clock
//!   schedule — the same discipline as the chaos layer.
//!
//! Chaos node-kills ([`crate::chaos::Chaos::kill_node`]) route
//! through [`Membership::kill`]: a killed node is pinned `Dead` and its
//! heartbeats are ignored until [`Membership::revive`].

use crate::time::{Clock, Timestamp};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Failure-detector verdict for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeState {
    /// Heartbeating within the suspect deadline.
    Alive,
    /// Missed the suspect deadline; still counted as live (serving) but
    /// flagged for operators, like a Kafka broker with a stalled ZK
    /// session that has not yet expired.
    Suspect,
    /// Missed the dead deadline (or chaos-killed): failure domains react.
    Dead,
}

impl NodeState {
    pub fn name(self) -> &'static str {
        match self {
            NodeState::Alive => "alive",
            NodeState::Suspect => "suspect",
            NodeState::Dead => "dead",
        }
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One membership transition, in detection order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Logical time the detector observed the transition.
    pub at: Timestamp,
    pub node: String,
    pub from: NodeState,
    pub to: NodeState,
}

/// Reacts to membership transitions. Listeners are called after the
/// membership state is updated and outside its locks, so they may call
/// back into [`Membership`].
pub trait MembershipListener: Send + Sync {
    fn on_membership_event(&self, event: &MembershipEvent);
}

/// Failure-detector deadlines, in logical milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// Expected heartbeat cadence (informational; drivers use it to pace
    /// heartbeats).
    pub heartbeat_interval_ms: i64,
    /// No heartbeat for this long -> `Suspect`.
    pub suspect_after_ms: i64,
    /// No heartbeat for this long -> `Dead`.
    pub dead_after_ms: i64,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            heartbeat_interval_ms: 1_000,
            suspect_after_ms: 3_000,
            dead_after_ms: 10_000,
        }
    }
}

struct NodeInfo {
    last_heartbeat: Timestamp,
    state: NodeState,
    /// Chaos-killed: pinned `Dead`, heartbeats ignored until revived.
    killed: bool,
    /// Failure-domain tag (§6): nodes in the same region die together
    /// when the region does.
    region: Option<String>,
}

/// Aggregated detector view of one region's nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionStatus {
    pub region: String,
    pub live: usize,
    pub dead: usize,
}

impl RegionStatus {
    /// A region is down when every one of its nodes is dead. A region
    /// with no registered nodes is never "down" (nothing to lose).
    pub fn is_down(&self) -> bool {
        self.live == 0 && self.dead > 0
    }
}

/// Shared membership view: register nodes, feed heartbeats, tick the
/// failure detector, subscribe listeners.
pub struct Membership {
    clock: Arc<dyn Clock>,
    config: MembershipConfig,
    /// node name -> what the detector knows of it
    nodes: RwLock<BTreeMap<String, NodeInfo>>,
    listeners: RwLock<Vec<Arc<dyn MembershipListener>>>,
}

impl Membership {
    pub fn new(clock: Arc<dyn Clock>, config: MembershipConfig) -> Arc<Self> {
        Arc::new(Membership {
            clock,
            config,
            nodes: RwLock::new(BTreeMap::new()),
            listeners: RwLock::new(Vec::new()),
        })
    }

    pub fn config(&self) -> MembershipConfig {
        self.config
    }

    /// Register a node as alive now. Re-registering an existing node is a
    /// no-op (its state is preserved).
    pub fn register(&self, node: &str) {
        let now = self.clock.now();
        let mut nodes = self.nodes.write();
        nodes.entry(node.to_string()).or_insert(NodeInfo {
            last_heartbeat: now,
            state: NodeState::Alive,
            killed: false,
            region: None,
        });
    }

    /// Register a node under a region failure domain. Re-registering an
    /// existing node keeps its state but (re)tags its region, so a
    /// cluster can adopt region tags after construction.
    pub fn register_in_region(&self, node: &str, region: &str) {
        let now = self.clock.now();
        let mut nodes = self.nodes.write();
        nodes
            .entry(node.to_string())
            .and_modify(|i| i.region = Some(region.to_string()))
            .or_insert(NodeInfo {
                last_heartbeat: now,
                state: NodeState::Alive,
                killed: false,
                region: Some(region.to_string()),
            });
    }

    /// Per-region live/dead counts, in region name order. A region kill
    /// shows up here as a correlated burst of node deaths — the detector
    /// declares each node dead by heartbeat deadline, and the region is
    /// down once the whole burst has been observed.
    pub fn region_statuses(&self) -> Vec<RegionStatus> {
        let nodes = self.nodes.read();
        let mut by_region: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for info in nodes.values() {
            if let Some(r) = &info.region {
                let e = by_region.entry(r.as_str()).or_insert((0, 0));
                if info.state == NodeState::Dead {
                    e.1 += 1;
                } else {
                    e.0 += 1;
                }
            }
        }
        by_region
            .into_iter()
            .map(|(region, (live, dead))| RegionStatus {
                region: region.to_string(),
                live,
                dead,
            })
            .collect()
    }

    /// Whether every node registered under `region` is dead (and the
    /// region has at least one node). This is the detection signal the
    /// DR machinery keys failover off — it lags a silent region kill by
    /// the heartbeat dead-deadline.
    pub fn region_is_down(&self, region: &str) -> bool {
        self.region_statuses()
            .iter()
            .any(|s| s.region == region && s.is_down())
    }

    /// Record a heartbeat from `node` at the current logical time. A
    /// suspect (or dead-by-deadline) node that heartbeats again recovers
    /// to `Alive`; a chaos-killed node's heartbeats are ignored.
    pub fn heartbeat(&self, node: &str) {
        let now = self.clock.now();
        let event = {
            let mut nodes = self.nodes.write();
            let Some(info) = nodes.get_mut(node) else {
                return;
            };
            if info.killed {
                return;
            }
            info.last_heartbeat = now;
            if info.state == NodeState::Alive {
                None
            } else {
                let from = info.state;
                info.state = NodeState::Alive;
                Some(MembershipEvent {
                    at: now,
                    node: node.to_string(),
                    from,
                    to: NodeState::Alive,
                })
            }
        };
        if let Some(ev) = event {
            self.notify(&ev);
        }
    }

    /// Run the failure detector over every node at the current logical
    /// time and return the transitions it observed (already dispatched to
    /// listeners). Nodes are evaluated in name order, so the transitions
    /// are deterministic for a given heartbeat/clock schedule.
    pub fn tick(&self) -> Vec<MembershipEvent> {
        let now = self.clock.now();
        let transitions = {
            let mut nodes = self.nodes.write();
            let mut transitions = Vec::new();
            for (name, info) in nodes.iter_mut() {
                if info.killed {
                    continue;
                }
                let silent_for = now - info.last_heartbeat;
                let verdict = if silent_for >= self.config.dead_after_ms {
                    NodeState::Dead
                } else if silent_for >= self.config.suspect_after_ms {
                    NodeState::Suspect
                } else {
                    NodeState::Alive
                };
                // the detector only worsens state; recovery comes from an
                // actual heartbeat, never from the deadline scan
                if verdict > info.state {
                    transitions.push(MembershipEvent {
                        at: now,
                        node: name.clone(),
                        from: info.state,
                        to: verdict,
                    });
                    info.state = verdict;
                }
            }
            transitions
        };
        for ev in &transitions {
            self.notify(ev);
        }
        transitions
    }

    /// Chaos kill: pin the node `Dead` immediately (no deadline wait) and
    /// ignore its heartbeats until [`Membership::revive`]. Returns the
    /// transition, or `None` if the node was unknown or already dead.
    pub fn kill(&self, node: &str) -> Option<MembershipEvent> {
        let now = self.clock.now();
        let event = {
            let mut nodes = self.nodes.write();
            let info = nodes.get_mut(node)?;
            info.killed = true;
            if info.state == NodeState::Dead {
                return None;
            }
            let from = info.state;
            info.state = NodeState::Dead;
            MembershipEvent {
                at: now,
                node: node.to_string(),
                from,
                to: NodeState::Dead,
            }
        };
        self.notify(&event);
        Some(event)
    }

    /// Undo a chaos kill: the node is alive as of now and heartbeats
    /// count again. Returns the transition, or `None` if the node was
    /// unknown or already alive.
    pub fn revive(&self, node: &str) -> Option<MembershipEvent> {
        let now = self.clock.now();
        let event = {
            let mut nodes = self.nodes.write();
            let info = nodes.get_mut(node)?;
            info.killed = false;
            info.last_heartbeat = now;
            if info.state == NodeState::Alive {
                return None;
            }
            let from = info.state;
            info.state = NodeState::Alive;
            MembershipEvent {
                at: now,
                node: node.to_string(),
                from,
                to: NodeState::Alive,
            }
        };
        self.notify(&event);
        Some(event)
    }

    pub fn state(&self, node: &str) -> Option<NodeState> {
        self.nodes.read().get(node).map(|i| i.state)
    }

    /// Live = not `Dead`. Suspect nodes still serve (their session has
    /// not expired yet); unknown nodes are not live.
    pub fn is_live(&self, node: &str) -> bool {
        self.state(node)
            .map(|s| s != NodeState::Dead)
            .unwrap_or(false)
    }

    /// Names of live (non-dead) nodes, in name order.
    pub fn live_nodes(&self) -> Vec<String> {
        self.nodes
            .read()
            .iter()
            .filter(|(_, i)| i.state != NodeState::Dead)
            .map(|(n, _)| n.clone())
            .collect()
    }

    pub fn subscribe(&self, listener: Arc<dyn MembershipListener>) {
        self.listeners.write().push(listener);
    }

    fn notify(&self, event: &MembershipEvent) {
        let listeners: Vec<_> = self.listeners.read().clone();
        for l in listeners {
            l.on_membership_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimClock;
    use parking_lot::Mutex;

    /// Every transition a listener was told of, in order.
    struct Collect(Mutex<Vec<MembershipEvent>>);

    impl MembershipListener for Collect {
        fn on_membership_event(&self, event: &MembershipEvent) {
            self.0.lock().push(event.clone());
        }
    }

    impl Collect {
        fn subscribed(m: &Membership) -> Arc<Collect> {
            let seen = Arc::new(Collect(Mutex::new(Vec::new())));
            m.subscribe(seen.clone());
            seen
        }
    }

    fn setup() -> (Arc<SimClock>, Arc<Membership>) {
        let clock = Arc::new(SimClock::new(0));
        let m = Membership::new(clock.clone(), MembershipConfig::default());
        (clock, m)
    }

    #[test]
    fn heartbeating_node_stays_alive() {
        let (clock, m) = setup();
        m.register("n0");
        for _ in 0..20 {
            clock.advance(1_000);
            m.heartbeat("n0");
            assert!(m.tick().is_empty());
        }
        assert_eq!(m.state("n0"), Some(NodeState::Alive));
    }

    #[test]
    fn silent_node_goes_suspect_then_dead() {
        let (clock, m) = setup();
        m.register("n0");
        m.register("n1");
        clock.advance(3_000);
        m.heartbeat("n1");
        let evs = m.tick();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].node, "n0");
        assert_eq!(evs[0].to, NodeState::Suspect);
        assert!(m.is_live("n0")); // suspect still serves
        clock.advance(7_000);
        m.heartbeat("n1");
        let evs = m.tick();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].to, NodeState::Dead);
        assert!(!m.is_live("n0"));
        assert_eq!(m.live_nodes(), vec!["n1".to_string()]);
    }

    #[test]
    fn suspect_node_recovers_on_heartbeat() {
        let (clock, m) = setup();
        m.register("n0");
        clock.advance(4_000);
        m.tick();
        assert_eq!(m.state("n0"), Some(NodeState::Suspect));
        let seen = Collect::subscribed(&m);
        m.heartbeat("n0");
        assert_eq!(m.state("n0"), Some(NodeState::Alive));
        // the recovery itself is an event
        assert_eq!(seen.0.lock().last().unwrap().to, NodeState::Alive);
    }

    #[test]
    fn kill_pins_dead_until_revive() {
        let (clock, m) = setup();
        m.register("n0");
        let ev = m.kill("n0").unwrap();
        assert_eq!(ev.to, NodeState::Dead);
        // heartbeats from a killed node are ignored
        clock.advance(500);
        m.heartbeat("n0");
        assert_eq!(m.state("n0"), Some(NodeState::Dead));
        assert!(m.kill("n0").is_none()); // idempotent
        let ev = m.revive("n0").unwrap();
        assert_eq!(ev.to, NodeState::Alive);
        assert!(m.is_live("n0"));
    }

    #[test]
    fn listeners_observe_transitions() {
        let (clock, m) = setup();
        let seen = Collect::subscribed(&m);
        m.register("n0");
        clock.advance(20_000);
        m.tick();
        m.revive("n0");
        let got = seen.0.lock().clone();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].to, NodeState::Dead);
        assert_eq!(got[1].to, NodeState::Alive);
    }

    #[test]
    fn transitions_are_deterministic() {
        let run = || {
            let (clock, m) = setup();
            let seen = Collect::subscribed(&m);
            m.register("a");
            m.register("b");
            clock.advance(5_000);
            m.heartbeat("b");
            m.tick();
            clock.advance(10_000);
            m.tick();
            m.kill("b");
            m.revive("a");
            let transitions = seen.0.lock().clone();
            transitions
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run());
    }

    #[test]
    fn region_kill_is_detected_as_correlated_node_deaths() {
        let (clock, m) = setup();
        for i in 0..3 {
            m.register_in_region(&format!("west-n{i}"), "west");
            m.register_in_region(&format!("east-n{i}"), "east");
        }
        assert_eq!(m.region_statuses()[0].live, 3); // east
        assert!(!m.region_is_down("west"));
        // west falls silent; east keeps heartbeating
        for _ in 0..12 {
            clock.advance(1_000);
            for i in 0..3 {
                m.heartbeat(&format!("east-n{i}"));
            }
            m.tick();
        }
        assert!(m.region_is_down("west"), "deadline detector downs west");
        assert!(!m.region_is_down("east"));
        let st = m.region_statuses();
        assert_eq!(st.len(), 2);
        assert_eq!((st[1].live, st[1].dead), (0, 3)); // west
                                                      // one node heartbeats again: region no longer down
        m.heartbeat("west-n1");
        assert!(!m.region_is_down("west"));
    }

    #[test]
    fn partially_dead_region_is_not_down() {
        let (_, m) = setup();
        m.register_in_region("a-n0", "a");
        m.register_in_region("a-n1", "a");
        m.kill("a-n0");
        assert!(!m.region_is_down("a"));
        m.kill("a-n1");
        assert!(m.region_is_down("a"));
        // unknown region (no nodes) is never down
        assert!(!m.region_is_down("ghost"));
    }

    #[test]
    fn detector_never_resurrects_without_heartbeat() {
        let (clock, m) = setup();
        m.register("n0");
        clock.advance(20_000);
        m.tick();
        assert_eq!(m.state("n0"), Some(NodeState::Dead));
        // further ticks with no heartbeat: still dead, no new events
        clock.advance(1_000);
        assert!(m.tick().is_empty());
        assert_eq!(m.state("n0"), Some(NodeState::Dead));
    }
}
