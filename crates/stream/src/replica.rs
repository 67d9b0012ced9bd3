//! Per-partition replica sets: leader/follower placement, ISR tracking,
//! acks=all commit semantics and leader failover (§4.1).
//!
//! Each topic partition gets a [`ReplicaSet`]: an ordered assignment of
//! broker nodes (first entry is the preferred leader), the in-sync
//! replica set, per-replica log-end offsets and the committed high
//! watermark. The record data itself lives in one shared
//! [`PartitionLog`]; every replica's content is, by construction, a
//! prefix of it (exactly the invariant real Kafka maintains after
//! leader-epoch truncation), so a replica is fully described by its
//! log-end offset. Replication advances follower offsets — subject to
//! [`FaultPoint::StreamReplicate`] chaos and node liveness — and the
//! committed watermark is the minimum log-end offset across the ISR.
//! Consumers only ever see records below it, and every consumer fetch
//! checks [`FaultPoint::StreamFetch`] here.
//!
//! Failover: when a leader's node dies, an in-sync follower is elected
//! and the shared log is truncated to the new leader's log-end offset.
//! Because `committed <= leo(f)` for every ISR member `f`, truncation
//! never touches a committed record — the durability invariant "no
//! committed record is ever lost or reordered" holds by construction and
//! is exercised under seeded chaos by the node-kill soak.

use crate::log::{FetchResult, PartitionLog};
use parking_lot::RwLock;
use rtdi_common::{Chaos, Error, FaultPoint, Record, Result, Timestamp};
use std::sync::Arc;

/// Consecutive failed replication attempts before a follower is dropped
/// from the ISR (the hit-count analogue of `replica.lag.time.max.ms`).
pub const MAX_REPLICA_STRIKES: u32 = 3;

/// A leadership change on one partition, in detection order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    pub at: Timestamp,
    pub topic: String,
    pub partition: usize,
    pub old_leader: Option<String>,
    /// `None` = the partition went offline (no in-sync candidate).
    pub new_leader: Option<String>,
    /// Leader epoch after the transition.
    pub epoch: u64,
    /// Uncommitted records truncated from the log tail on election.
    pub truncated: u64,
}

impl FailoverEvent {
    /// Stable one-line rendering for the deterministic failover log.
    pub fn line(&self) -> String {
        format!(
            "at={} topic={} p={} epoch={} leader {}->{} truncated={}",
            self.at,
            self.topic,
            self.partition,
            self.epoch,
            self.old_leader.as_deref().unwrap_or("none"),
            self.new_leader.as_deref().unwrap_or("none"),
            self.truncated,
        )
    }
}

/// Point-in-time view of one partition's replication state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    pub assignment: Vec<String>,
    pub leader: Option<String>,
    pub isr: Vec<String>,
    pub epoch: u64,
    pub committed: u64,
    /// Log-end offset of the shared storage (leader log end).
    pub log_end: u64,
}

/// Most replicas of one partition (the in-sync and dead sets are bit
/// masks): `ReplicaSet::new` keeps the first 64, `Topic` rejects more.
pub const MAX_REPLICAS: usize = 64;

/// Everything but `assignment` is indexed by replica slot — the position
/// of a node in `assignment` — so the per-record path touches no node name.
struct ReplicaInner {
    /// Replica placement in preference order (slot 0: preferred leader).
    assignment: Vec<String>,
    leader: Option<usize>,
    epoch: u64,
    /// Bit `i` set: slot `i` is in sync.
    isr: u64,
    /// Bit `i` set: slot `i`'s node is dead. Disjoint from `isr`.
    down: u64,
    /// Per-slot log-end offset (next offset the replica would write).
    leo: Vec<u64>,
    /// Consecutive replication failures per follower slot.
    strikes: Vec<u32>,
    /// Committed high watermark: consumers only see offsets below it.
    committed: u64,
}

impl ReplicaInner {
    fn in_sync(&self, slot: usize) -> bool {
        self.isr & (1 << slot) != 0
    }

    /// The slot is caught up to `end`: it (re)joins the ISR with a clean
    /// strike count.
    fn caught_up(&mut self, slot: usize, end: u64) {
        self.leo[slot] = end;
        self.strikes[slot] = 0;
        self.isr |= 1 << slot;
    }

    /// committed = min log-end offset across the ISR; never moves back.
    fn recompute_committed(&mut self) {
        if let Some(min) = (0..self.leo.len())
            .filter(|&slot| self.in_sync(slot))
            .map(|slot| self.leo[slot])
            .min()
        {
            self.committed = self.committed.max(min);
        }
    }
}

/// Replication metadata for one partition over its shared storage log.
pub struct ReplicaSet {
    partition: usize,
    log: Arc<PartitionLog>,
    inner: RwLock<ReplicaInner>,
    chaos: Chaos,
}

impl ReplicaSet {
    pub fn new(partition: usize, log: Arc<PartitionLog>, mut assignment: Vec<String>) -> Self {
        assignment.truncate(MAX_REPLICAS);
        let start = log.high_watermark();
        let n = assignment.len();
        ReplicaSet {
            partition,
            log,
            inner: RwLock::new(ReplicaInner {
                leader: (n > 0).then_some(0),
                epoch: 0,
                isr: (0..n).fold(0, |isr, slot| isr | 1 << slot),
                down: 0,
                leo: vec![start; n],
                strikes: vec![0; n],
                committed: start,
                assignment,
            }),
            chaos: Chaos::default(),
        }
    }

    /// Follower replication and fetches fail when `chaos` says so.
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.chaos = chaos;
        self
    }

    pub fn status(&self) -> ReplicaStatus {
        let inner = self.inner.read();
        let mut isr: Vec<String> = (0..inner.assignment.len())
            .filter(|&slot| inner.in_sync(slot))
            .map(|slot| inner.assignment[slot].clone())
            .collect();
        isr.sort();
        ReplicaStatus {
            assignment: inner.assignment.clone(),
            leader: inner.leader.map(|slot| inner.assignment[slot].clone()),
            isr,
            epoch: inner.epoch,
            committed: inner.committed.min(self.log.high_watermark()),
            log_end: self.log.high_watermark(),
        }
    }

    /// Committed high watermark, clamped to the log end (bulk operations
    /// like DLQ truncation act on the raw log underneath us).
    pub fn committed(&self) -> u64 {
        self.inner.read().committed.min(self.log.high_watermark())
    }

    /// Leader-side append with replication. Fails when the partition has
    /// no live leader, or — for `lossless` (acks=all) topics — when the
    /// in-sync set is smaller than `min_insync`. On success the record is
    /// replicated to every live follower (chaos permitting), the ISR is
    /// updated, and the committed watermark advances; the returned offset
    /// is therefore *committed* under the topic's durability contract.
    /// Dead nodes are those `on_node_down` named and `on_node_up` has not.
    pub fn append(
        &self,
        record: impl Into<Arc<Record>>,
        now: Timestamp,
        lossless: bool,
        min_insync: usize,
    ) -> Result<u64> {
        let mut inner = self.inner.write();
        let Some(leader) = inner.leader else {
            return Err(Error::Unavailable(format!(
                "partition {} has no live leader",
                self.partition
            )));
        };
        inner.isr |= 1 << leader;
        if lossless {
            let need = min_insync.min(inner.assignment.len()).max(1);
            let isr = inner.isr.count_ones() as usize;
            if isr < need {
                return Err(Error::Unavailable(format!(
                    "partition {}: not enough in-sync replicas (isr={isr}, min.insync={need})",
                    self.partition,
                )));
            }
        }
        let offset = self.log.append(record, now);
        let end = offset + 1;
        inner.leo[leader] = end;
        // synchronous replication to live followers, in assignment order;
        // a follower that keeps failing is dropped from the ISR, one that
        // succeeds again catches up from shared storage and rejoins
        for f in 0..inner.leo.len() {
            if f == leader || inner.down & (1 << f) != 0 {
                continue;
            }
            match self.chaos.check(FaultPoint::StreamReplicate) {
                Ok(()) => inner.caught_up(f, end),
                Err(_) => {
                    inner.strikes[f] += 1;
                    if inner.strikes[f] >= MAX_REPLICA_STRIKES {
                        inner.isr &= !(1 << f);
                    }
                }
            }
        }
        inner.recompute_committed();
        Ok(offset)
    }

    /// Consumer fetch: capped at the committed high watermark. Every
    /// reader's fetch passes here, so this is where it fails when `chaos`
    /// says so.
    pub fn fetch(&self, offset: u64, max: usize) -> Result<FetchResult> {
        self.chaos.check(FaultPoint::StreamFetch)?;
        let committed = self.committed();
        self.log.fetch_capped(offset, max, committed)
    }

    /// React to a node death. Shrinks the ISR; when the dead node led
    /// this partition, elects the first in-sync replica in assignment
    /// order, truncating the shared log to the new leader's log-end
    /// offset (only ever uncommitted tail). Returns the leadership
    /// transition, if any.
    pub fn on_node_down(&self, node: &str, now: Timestamp, topic: &str) -> Option<FailoverEvent> {
        let mut inner = self.inner.write();
        let slot = inner.assignment.iter().position(|n| n == node)?;
        inner.down |= 1 << slot;
        inner.isr &= !(1 << slot);
        inner.strikes[slot] = 0;
        if inner.leader != Some(slot) {
            // follower death: ISR shrink may advance the watermark
            inner.recompute_committed();
            return None;
        }
        inner.leader = None;
        inner.epoch += 1;
        let candidate = (0..inner.leo.len()).find(|&s| inner.in_sync(s));
        let mut truncated = 0;
        if let Some(new_leader) = candidate {
            let new_end = inner.leo[new_leader];
            truncated = self.log.truncate_to(new_end);
            // survivors cannot be ahead of the new leader's log
            for leo in &mut inner.leo {
                *leo = (*leo).min(new_end);
            }
            inner.leader = candidate;
            inner.recompute_committed();
        }
        Some(FailoverEvent {
            at: now,
            topic: topic.to_string(),
            partition: self.partition,
            old_leader: Some(node.to_string()),
            new_leader: candidate.map(|s| inner.assignment[s].clone()),
            epoch: inner.epoch,
            truncated,
        })
    }

    /// React to a node (re)joining: it catches up from shared storage,
    /// rejoins the ISR, and becomes leader if the partition was offline.
    pub fn on_node_up(&self, node: &str, now: Timestamp, topic: &str) -> Option<FailoverEvent> {
        let mut inner = self.inner.write();
        let slot = inner.assignment.iter().position(|n| n == node)?;
        inner.down &= !(1 << slot);
        let end = self.log.high_watermark();
        inner.caught_up(slot, end);
        let event = if inner.leader.is_none() {
            inner.leader = Some(slot);
            inner.epoch += 1;
            Some(FailoverEvent {
                at: now,
                topic: topic.to_string(),
                partition: self.partition,
                old_leader: None,
                new_leader: Some(node.to_string()),
                epoch: inner.epoch,
                truncated: 0,
            })
        } else {
            None
        };
        inner.recompute_committed();
        event
    }

    /// Declare every live replica fully caught up to the shared log (used
    /// after offset-preserving bulk imports like topic migration, where
    /// records are copied into storage beneath the replication layer).
    pub fn sync_to_end(&self) {
        let mut inner = self.inner.write();
        let end = self.log.high_watermark();
        for slot in 0..inner.leo.len() {
            if inner.down & (1 << slot) == 0 {
                inner.caught_up(slot, end);
            }
        }
        inner.recompute_committed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::chaos::{FaultKind, FaultPlan, Trigger};
    use rtdi_common::Row;

    fn rec(i: i64) -> Record {
        Record::new(Row::new().with("i", i), i)
    }

    fn rs(nodes: &[&str]) -> ReplicaSet {
        ReplicaSet::new(
            0,
            Arc::new(PartitionLog::new(0, 0)),
            nodes.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn rs_with_chaos(nodes: &[&str], seed: u64) -> (ReplicaSet, Chaos) {
        let chaos = Chaos::seeded(seed);
        (rs(nodes).with_chaos(chaos.clone()), chaos)
    }

    #[test]
    fn replicated_append_commits_through_full_isr() {
        let r = rs(&["n0", "n1", "n2"]);
        for i in 0..10 {
            let off = r.append(rec(i), 0, true, 2).unwrap();
            assert_eq!(off, i as u64);
        }
        let st = r.status();
        assert_eq!(st.leader.as_deref(), Some("n0"));
        assert_eq!(st.isr.len(), 3);
        assert_eq!(st.committed, 10);
        assert_eq!(r.fetch(0, 100).unwrap().records.len(), 10);
    }

    #[test]
    fn dead_leader_fails_over_to_the_next_in_sync_replica() {
        let r = rs(&["n0", "n1", "n2"]);
        r.append(rec(0), 0, false, 1).unwrap();
        let ev = r.on_node_down("n0", 5, "t").unwrap();
        assert_eq!(ev.old_leader.as_deref(), Some("n0"));
        assert_eq!(ev.new_leader.as_deref(), Some("n1"));
        assert_eq!(ev.epoch, 1);
        assert_eq!(ev.truncated, 0, "fully replicated tail survives");
        // writes flow again through the new leader
        let off = r.append(rec(1), 6, false, 1).unwrap();
        assert_eq!(off, 1);
        assert_eq!(r.committed(), 2);
    }

    #[test]
    fn failover_truncates_only_uncommitted_tail() {
        let (r, chaos) = rs_with_chaos(&["n0", "n1"], 0xFA11);
        // replicate 5 records cleanly...
        for i in 0..5 {
            r.append(rec(i), 0, false, 1).unwrap();
        }
        // ...then the follower stops replicating: strikes shrink the ISR
        chaos.arm(
            FaultPoint::StreamReplicate,
            FaultPlan::fail(FaultKind::Timeout, Trigger::Always),
        );
        for i in 5..12 {
            r.append(rec(i), 0, false, 1).unwrap();
        }
        chaos.disarm(FaultPoint::StreamReplicate);
        let st = r.status();
        assert_eq!(st.isr, vec!["n0".to_string()], "lagging follower dropped");
        assert_eq!(st.log_end, 12);
        // leader-only ISR: watermark follows the leader (Kafka semantics)
        assert_eq!(st.committed, 12);
        let committed_before = 5; // what n1 actually holds
        let ev = r.on_node_down("n0", 9, "t").unwrap();
        // n1 is not in the ISR: the partition goes offline rather than
        // electing an unclean leader
        assert_eq!(ev.new_leader, None);
        assert!(matches!(
            r.append(rec(99), 10, false, 1),
            Err(Error::Unavailable(_))
        ));
        // the old leader comes back: catches up, leads again, no data lost
        let ev = r.on_node_up("n0", 20, "t").unwrap();
        assert_eq!(ev.new_leader.as_deref(), Some("n0"));
        assert_eq!(r.committed(), 12);
        assert!(committed_before < r.committed());
    }

    #[test]
    fn clean_failover_to_in_sync_follower_truncates_unreplicated_tail() {
        let (r, chaos) = rs_with_chaos(&["n0", "n1"], 0xFA12);
        for i in 0..5 {
            r.append(rec(i), 0, false, 1).unwrap();
        }
        // follower misses 2 records (strikes below the ISR-drop threshold)
        chaos.arm(
            FaultPoint::StreamReplicate,
            FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_max_fires(2),
        );
        for i in 5..7 {
            r.append(rec(i), 0, false, 1).unwrap();
        }
        chaos.disarm(FaultPoint::StreamReplicate);
        let st = r.status();
        assert_eq!(st.isr.len(), 2, "2 strikes < {MAX_REPLICA_STRIKES}");
        assert_eq!(st.committed, 5, "watermark held back by lagging follower");
        assert_eq!(st.log_end, 7);
        // leader dies; n1 (in-sync at offset 5) is elected and the two
        // uncommitted records are truncated — consumers never saw them
        let ev = r.on_node_down("n0", 9, "t").unwrap();
        assert_eq!(ev.new_leader.as_deref(), Some("n1"));
        assert_eq!(ev.truncated, 2);
        assert_eq!(r.committed(), 5);
        assert_eq!(r.fetch(0, 100).unwrap().records.len(), 5);
        // new appends continue from the truncation point: no reordering
        let off = r.append(rec(7), 10, false, 1).unwrap();
        assert_eq!(off, 5);
    }

    #[test]
    fn lossless_rejects_when_isr_below_min_insync() {
        let r = rs(&["n0", "n1", "n2"]);
        r.append(rec(0), 0, true, 2).unwrap();
        assert!(r.on_node_down("n1", 1, "t").is_none(), "follower death");
        assert!(r.on_node_down("n2", 1, "t").is_none());
        // acks=all with min.insync=2: reject rather than under-replicate
        let err = r.append(rec(1), 1, true, 2).unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)));
        assert!(err.to_string().contains("in-sync"));
        // the same write succeeds for a throughput-profile topic
        assert!(r.append(rec(1), 1, false, 1).is_ok());
    }

    #[test]
    fn consumers_never_see_past_committed_watermark() {
        let (r, chaos) = rs_with_chaos(&["n0", "n1"], 0xFA13);
        for i in 0..4 {
            r.append(rec(i), 0, false, 1).unwrap();
        }
        chaos.arm(
            FaultPoint::StreamReplicate,
            FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_max_fires(1),
        );
        r.append(rec(4), 0, false, 1).unwrap();
        chaos.disarm(FaultPoint::StreamReplicate);
        let f = r.fetch(0, 100).unwrap();
        assert_eq!(f.records.len(), 4, "unacked record invisible");
        assert_eq!(f.high_watermark, 4);
        // replication recovers on the next append: both become visible
        r.append(rec(5), 0, false, 1).unwrap();
        assert_eq!(r.fetch(0, 100).unwrap().records.len(), 6);
    }
}
