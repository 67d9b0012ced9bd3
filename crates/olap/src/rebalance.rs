//! Self-healing segment placement (§4.3.4).
//!
//! When an OLAP server dies, every segment it hosted drops to fewer live
//! replicas than its placement calls for. The paper's peer-to-peer
//! archival scheme makes recovery cheap: "server replicas can serve the
//! archived segments in case of failures", with the deep store as the
//! fallback. The [`Rebalancer`] closes the loop: it scans the broker's
//! routing table for under-replicated placements, recovers each affected
//! segment (live peer first, then deep storage) and re-hosts it on the
//! least-loaded live server — so a query that degraded to
//! `partial=true` right after the failure returns to full coverage once
//! the rebalance completes.
//!
//! The rebalancer is also a [`MembershipListener`]: subscribed to the
//! shared heartbeat membership view, it reacts to a `Dead` transition of
//! any node named like one of its servers by running a rebalance pass
//! immediately.

use crate::broker::Broker;
use crate::segstore::SegmentStore;
use parking_lot::Mutex;
use rtdi_common::{MembershipEvent, MembershipListener, NodeState, Result};
use std::sync::Arc;

/// One replica move performed by a rebalance pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMove {
    pub table: String,
    pub segment: String,
    pub from_server: usize,
    pub to_server: usize,
    /// Whether the segment came from a live peer (vs the deep store).
    pub from_peer: bool,
}

impl ReplicaMove {
    /// Stable one-line rendering for the deterministic rebalance log.
    pub fn line(&self) -> String {
        format!(
            "table={} segment={} {}->{} source={}",
            self.table,
            self.segment,
            self.from_server,
            self.to_server,
            if self.from_peer { "peer" } else { "deepstore" }
        )
    }
}

/// Outcome of one rebalance pass.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    pub segments_checked: usize,
    pub moves: Vec<ReplicaMove>,
    /// Segments that stayed under-replicated (no live target or the
    /// segment was unrecoverable from peers and deep store alike).
    pub unrecovered: Vec<String>,
}

/// Watches segment placements and re-hosts replicas lost to server death.
pub struct Rebalancer {
    broker: Arc<Broker>,
    store: Arc<SegmentStore>,
    /// Accumulated moves across passes, for the deterministic log.
    history: Mutex<Vec<ReplicaMove>>,
}

impl Rebalancer {
    pub fn new(broker: Arc<Broker>, store: Arc<SegmentStore>) -> Arc<Self> {
        Arc::new(Rebalancer {
            broker,
            store,
            history: Mutex::new(Vec::new()),
        })
    }

    /// Subscribe this rebalancer to a membership view so server deaths
    /// trigger rebalances without polling.
    pub fn watch(self: &Arc<Self>, membership: &Arc<rtdi_common::Membership>) {
        membership.subscribe(Arc::clone(self) as Arc<dyn MembershipListener>);
    }

    /// One pass: find placements whose replicas include a dead server,
    /// recover each affected segment and re-host it on the least-loaded
    /// live server that doesn't already hold it. Deterministic: tables
    /// and placements are visited in routing order, targets tie-break by
    /// server id.
    pub fn rebalance(&self) -> Result<RebalanceReport> {
        let servers = self.broker.servers();
        let mut report = RebalanceReport::default();
        // live-server load (hosted segment count), updated as we move
        let mut load: Vec<usize> = servers.iter().map(|s| s.hosted().len()).collect();
        for table in self.broker.tables() {
            for pl in self.broker.placements(&table) {
                report.segments_checked += 1;
                let dead: Vec<usize> = pl
                    .replicas
                    .iter()
                    .copied()
                    .filter(|&r| servers[r].is_down())
                    .collect();
                if dead.is_empty() {
                    continue;
                }
                let live_peers: Vec<_> = pl
                    .replicas
                    .iter()
                    .copied()
                    .filter(|&r| !servers[r].is_down())
                    .map(|r| Arc::clone(&servers[r]))
                    .collect();
                for from in dead {
                    // least-loaded live server not already in the replica set
                    let target = (0..servers.len())
                        .filter(|&s| !servers[s].is_down() && !pl.replicas.contains(&s))
                        .min_by_key(|&s| (load[s], s));
                    let Some(to) = target else {
                        report.unrecovered.push(pl.segment.clone());
                        continue;
                    };
                    let from_peer = !live_peers.is_empty()
                        && live_peers
                            .iter()
                            .any(|p| p.fetch_segment(&pl.segment).is_ok());
                    match self.store.recover(&table, &pl.segment, &live_peers) {
                        Ok(seg) => {
                            self.broker
                                .rehost_replica(&table, &pl.segment, from, to, seg)?;
                            load[to] += 1;
                            report.moves.push(ReplicaMove {
                                table: table.clone(),
                                segment: pl.segment.clone(),
                                from_server: from,
                                to_server: to,
                                from_peer,
                            });
                        }
                        Err(_) => report.unrecovered.push(pl.segment.clone()),
                    }
                }
            }
        }
        self.history.lock().extend(report.moves.iter().cloned());
        Ok(report)
    }

    /// Every replica move ever performed, one line each — byte-identical
    /// across runs with the same kill/heal schedule.
    pub fn move_log(&self) -> String {
        let mut out = String::new();
        for mv in self.history.lock().iter() {
            out.push_str(&mv.line());
            out.push('\n');
        }
        out
    }
}

impl MembershipListener for Rebalancer {
    fn on_membership_event(&self, event: &MembershipEvent) {
        if event.to == NodeState::Dead && self.broker.server_by_name(&event.node).is_some() {
            // a server we route to died: heal placements now
            let _ = self.rebalance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::ServerNode;
    use crate::query::Query;
    use crate::segment::{IndexSpec, Segment};
    use crate::segstore::SegmentStoreMode;
    use rtdi_common::{AggFn, FieldType, Row, Schema};
    use rtdi_storage::object::{InMemoryStore, ObjectStore};

    fn schema() -> Schema {
        Schema::of(
            "t",
            &[("city", FieldType::Str), ("fare", FieldType::Double)],
        )
    }

    fn seg(name: &str, offset: usize, n: usize) -> Arc<Segment> {
        let rows: Vec<Row> = (offset..offset + n)
            .map(|i| {
                Row::new()
                    .with("city", ["sf", "la"][i % 2])
                    .with("fare", i as f64)
            })
            .collect();
        Arc::new(Segment::build(name, &schema(), rows, &IndexSpec::none()).unwrap())
    }

    fn setup(
        servers: usize,
        segments: usize,
        replication: usize,
    ) -> (Arc<Broker>, Arc<Rebalancer>) {
        let nodes: Vec<Arc<ServerNode>> = (0..servers).map(ServerNode::new).collect();
        let broker = Arc::new(Broker::new(nodes));
        broker.register_table("t", false);
        let store = Arc::new(SegmentStore::new(
            Arc::new(InMemoryStore::new()),
            SegmentStoreMode::PeerToPeer,
            IndexSpec::none(),
        ));
        for i in 0..segments {
            let s = seg(&format!("s{i}"), i * 100, 100);
            store.backup("t", s.clone()).unwrap();
            broker.place_segment("t", s, None, replication).unwrap();
        }
        store.flush_pending().unwrap();
        let rb = Rebalancer::new(broker.clone(), store);
        (broker, rb)
    }

    #[test]
    fn rebalance_restores_full_coverage_after_server_death() {
        let (broker, rb) = setup(4, 8, 2);
        let q = Query::select_all("t").aggregate("n", AggFn::Count);
        broker.servers()[0].set_down(true);
        broker.servers()[1].set_down(true);
        // with replication 2 some segments now have 0 live replicas
        let degraded = broker.query(&q).unwrap();
        assert!(degraded.ledger.partial());
        let report = rb.rebalance().unwrap();
        assert!(!report.moves.is_empty());
        assert!(report.unrecovered.is_empty());
        let healed = broker.query(&q).unwrap();
        assert!(!healed.ledger.partial(), "rebalance restored every segment");
        assert_eq!(healed.rows[0].get_int("n"), Some(800));
        // routing no longer references the dead servers
        for pl in broker.placements("t") {
            for r in pl.replicas {
                assert!(!broker.servers()[r].is_down());
            }
        }
    }

    #[test]
    fn rebalance_recovers_from_deep_store_when_no_peer_survives() {
        let (broker, rb) = setup(3, 3, 1);
        // replication 1: killing a host leaves no live peer
        let victim = broker.placements("t")[0].replicas[0];
        broker.servers()[victim].set_down(true);
        let report = rb.rebalance().unwrap();
        assert!(report.moves.iter().all(|m| !m.from_peer));
        assert!(report.unrecovered.is_empty());
        let q = Query::select_all("t").aggregate("n", AggFn::Count);
        let res = broker.query(&q).unwrap();
        assert!(!res.ledger.partial());
        assert_eq!(res.rows[0].get_int("n"), Some(300));
    }

    #[test]
    fn corrupt_deep_store_object_reports_unrecovered_without_panic() {
        // replication 1 and a dead host: recovery must go to the deep
        // store, where the archived object has been damaged
        let nodes: Vec<Arc<ServerNode>> = (0..3).map(ServerNode::new).collect();
        let broker = Arc::new(Broker::new(nodes));
        broker.register_table("t", false);
        let object_store = Arc::new(InMemoryStore::new());
        let store = Arc::new(SegmentStore::new(
            object_store.clone(),
            SegmentStoreMode::PeerToPeer,
            IndexSpec::none(),
        ));
        let s = seg("s0", 0, 100);
        store.backup("t", s.clone()).unwrap();
        broker.place_segment("t", s, None, 1).unwrap();
        store.flush_pending().unwrap();
        let mut broken = object_store.get("segments/t/s0").unwrap().to_vec();
        let mid = broken.len() / 2;
        broken[mid] ^= 0xFF;
        object_store.put("segments/t/s0", broken.into()).unwrap();
        let victim = broker.placements("t")[0].replicas[0];
        broker.servers()[victim].set_down(true);
        let rb = Rebalancer::new(broker.clone(), store);
        // decoder rejects the damaged bytes with Error::Corruption; the
        // rebalancer records the segment instead of crashing
        let report = rb.rebalance().unwrap();
        assert!(report.moves.is_empty());
        assert_eq!(report.unrecovered, vec!["s0".to_string()]);
    }

    #[test]
    fn rebalance_reports_unrecovered_when_no_target_exists() {
        let (broker, rb) = setup(2, 2, 2);
        // both replicas of every segment are on the only two servers;
        // killing one leaves no server outside the replica set to host
        broker.servers()[0].set_down(true);
        let report = rb.rebalance().unwrap();
        assert!(report.moves.is_empty());
        assert_eq!(report.unrecovered.len(), 2);
    }

    #[test]
    fn move_log_is_deterministic() {
        let run = || {
            let (broker, rb) = setup(4, 6, 2);
            broker.servers()[2].set_down(true);
            rb.rebalance().unwrap();
            rb.move_log()
        };
        let first = run();
        assert!(!first.is_empty());
        assert_eq!(first, run());
    }
}
