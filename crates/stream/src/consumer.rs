//! Consumer groups with offset management and rebalancing.
//!
//! Implements the open-source Kafka consumption model the paper builds on:
//! partitions are divided among group members (capping parallelism at the
//! partition count — the limitation §4.1.3's consumer proxy removes),
//! offsets are committed per partition, and uncommitted progress is
//! replayed after a rebalance (at-least-once). The group reads each
//! partition through its own [`PartitionCursor`]: committed records only,
//! and a retention jump is counted in [`ConsumerGroup::skipped`].
//!
//! [`TopicSubscription`] is the level of indirection federation (§4.1.1)
//! uses to redirect a live consumer to another physical cluster without an
//! application restart: the federation keeps one per topic, and every
//! reader of the topic holds a clone and resolves it once per poll.

use crate::log::OffsetRecord;
use crate::topic::{PartitionCursor, Topic};
use parking_lot::RwLock;
use rtdi_common::{Error, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A re-pointable handle to a physical topic. The federation layer swaps
/// the inner topic during migration; consumers keep polling through the
/// subscription and never notice. A bare topic converts into one that
/// nothing redirects.
#[derive(Clone)]
pub struct TopicSubscription {
    inner: Arc<RwLock<Arc<Topic>>>,
}

impl TopicSubscription {
    pub fn new(topic: Arc<Topic>) -> Self {
        TopicSubscription {
            inner: Arc::new(RwLock::new(topic)),
        }
    }

    pub fn topic(&self) -> Arc<Topic> {
        self.inner.read().clone()
    }

    /// Atomically redirect to another physical topic (same partition
    /// count required, so partition assignments stay valid).
    pub(crate) fn redirect(&self, to: Arc<Topic>) -> Result<()> {
        let mut guard = self.inner.write();
        if to.num_partitions() != guard.num_partitions() {
            return Err(Error::InvalidArgument(format!(
                "cannot redirect: partition count {} != {}",
                to.num_partitions(),
                guard.num_partitions()
            )));
        }
        *guard = to;
        Ok(())
    }
}

impl From<Arc<Topic>> for TopicSubscription {
    fn from(topic: Arc<Topic>) -> Self {
        TopicSubscription::new(topic)
    }
}

#[derive(Debug, Default)]
struct GroupState {
    members: Vec<String>,
    /// member -> partitions
    assignment: BTreeMap<String, Vec<usize>>,
    /// where the next poll reads, per partition polled or committed
    cursors: BTreeMap<usize, PartitionCursor>,
    /// committed offset (next offset to process after restart), per partition
    committed: BTreeMap<usize, u64>,
    /// member -> the partition whose fetch failed its last poll: where
    /// the member's next poll starts
    resume: BTreeMap<String, usize>,
    generation: u64,
}

/// A named consumer group over one subscribed topic.
pub struct ConsumerGroup {
    name: String,
    subscription: TopicSubscription,
    state: RwLock<GroupState>,
}

impl ConsumerGroup {
    pub fn new(name: impl Into<String>, subscription: TopicSubscription) -> Self {
        ConsumerGroup {
            name: name.into(),
            subscription,
            state: RwLock::new(GroupState::default()),
        }
    }

    /// Add a member and rebalance. Returns the new generation.
    pub fn join(&self, member: &str) -> u64 {
        let mut st = self.state.write();
        if !st.members.iter().any(|m| m == member) {
            st.members.push(member.to_string());
        }
        self.rebalance(&mut st);
        st.generation
    }

    fn rebalance(&self, st: &mut GroupState) {
        st.generation += 1;
        st.assignment.clear();
        st.resume.clear();
        let n = self.subscription.topic().num_partitions();
        if st.members.is_empty() {
            return;
        }
        // range assignment, deterministic by member order
        for (i, member) in st.members.iter().enumerate() {
            let parts: Vec<usize> = (0..n).filter(|p| p % st.members.len() == i).collect();
            st.assignment.insert(member.clone(), parts);
        }
        // at-least-once: rewind positions to last commit
        for (p, cursor) in &mut st.cursors {
            cursor.position = st.committed.get(p).copied().unwrap_or(0);
        }
    }

    /// Partitions currently assigned to a member. Members beyond the
    /// partition count get nothing — Kafka's parallelism cap (§4.1.3).
    pub fn assignment(&self, member: &str) -> Vec<usize> {
        self.state
            .read()
            .assignment
            .get(member)
            .cloned()
            .unwrap_or_default()
    }

    /// Poll up to `max` records *per assigned partition* for a member,
    /// grouped by the partition they came from — the consumer proxy needs
    /// partition identity for its out-of-order offset tracking. Advances
    /// the in-memory position (not the commit) of each partition it
    /// delivers. A fetch that fails ends the poll: what the partitions
    /// before it fetched is delivered, the failed partition is where the
    /// member's next poll starts, and the poll is an error only when its
    /// first fetch failed. So a member that holds many partitions makes
    /// progress while some of its fetches fail. Takes the group's lock
    /// once.
    pub fn poll_partitioned(
        &self,
        member: &str,
        max: usize,
    ) -> Result<Vec<(usize, Vec<OffsetRecord>)>> {
        let topic = self.subscription.topic();
        let mut st = self.state.write();
        let GroupState {
            assignment,
            cursors,
            resume,
            ..
        } = &mut *st;
        let parts = assignment.get(member).ok_or_else(|| {
            Error::NotFound(format!("member '{member}' not in group '{}'", self.name))
        })?;
        let start = resume.get(member);
        let start = start.and_then(|p| parts.iter().position(|q| q == p));
        let (before, from) = parts.split_at(start.unwrap_or(0));
        let mut out = Vec::new();
        for (i, &p) in from.iter().chain(before).enumerate() {
            let cursor = cursors.entry(p).or_insert(PartitionCursor::new(p, 0));
            match cursor.fetch(&topic, max) {
                Ok(records) => {
                    cursor.consumed(&records);
                    if !records.is_empty() {
                        out.push((p, records));
                    }
                }
                Err(e) => {
                    resume.insert(member.to_string(), p);
                    return if i == 0 { Err(e) } else { Ok(out) };
                }
            }
        }
        resume.remove(member);
        Ok(out)
    }

    /// Commit current positions of the member's partitions.
    pub fn commit(&self, member: &str) {
        let parts = self.assignment(member);
        let mut st = self.state.write();
        for p in parts {
            if let Some(&cursor) = st.cursors.get(&p) {
                st.committed.insert(p, cursor.position);
            }
        }
    }

    /// Explicitly commit an offset for one partition (used by the offset
    /// sync service when failing over between regions, §6).
    pub fn commit_offset(&self, partition: usize, offset: u64) {
        let mut st = self.state.write();
        st.committed.insert(partition, offset);
        let cursor = PartitionCursor::new(partition, 0);
        st.cursors.entry(partition).or_insert(cursor).position = offset;
    }

    /// Records retention removed before the group read them.
    pub fn skipped(&self) -> u64 {
        self.state.read().cursors.values().map(|c| c.skipped).sum()
    }

    /// Total lag: records between committed offsets and the *committed*
    /// (consumer-visible) high watermarks — uncommitted tail records a
    /// consumer could never fetch don't count as lag. The job manager's
    /// auto-scaler watches this (§4.2.1).
    pub fn lag(&self) -> u64 {
        let topic = self.subscription.topic();
        let st = self.state.read();
        (0..topic.num_partitions())
            .map(|p| {
                let hwm = topic.committed_watermark(p).unwrap_or(0);
                hwm.saturating_sub(*st.committed.get(&p).unwrap_or(&0))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::TopicConfig;
    use rtdi_common::{Record, Row};

    impl ConsumerGroup {
        /// Poll up to `max` records *per assigned partition* for a member.
        /// Advances the in-memory position (not the commit).
        pub(crate) fn poll(&self, member: &str, max: usize) -> Result<Vec<OffsetRecord>> {
            Ok(self
                .poll_partitioned(member, max)?
                .into_iter()
                .flat_map(|(_, recs)| recs)
                .collect())
        }

        fn committed(&self, partition: usize) -> u64 {
            *self.state.read().committed.get(&partition).unwrap_or(&0)
        }
    }

    fn topic_with(n: usize, records: usize) -> Arc<Topic> {
        let t = Arc::new(Topic::new("t", TopicConfig::default().with_partitions(n)).unwrap());
        for i in 0..records {
            t.append(
                Record::new(Row::new().with("i", i as i64), i as i64).with_key(format!("k{i}")),
                0,
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn single_member_consumes_everything() {
        let t = topic_with(4, 100);
        let g = ConsumerGroup::new("g", TopicSubscription::new(t));
        g.join("m1");
        assert_eq!(g.assignment("m1").len(), 4);
        let mut total = 0;
        loop {
            let recs = g.poll("m1", 10).unwrap();
            if recs.is_empty() {
                break;
            }
            total += recs.len();
            g.commit("m1");
        }
        assert_eq!(total, 100);
        assert_eq!(g.lag(), 0);
    }

    #[test]
    fn partitions_split_across_members() {
        let t = topic_with(4, 0);
        let g = ConsumerGroup::new("g", TopicSubscription::new(t));
        g.join("a");
        g.join("b");
        let pa = g.assignment("a");
        let pb = g.assignment("b");
        assert_eq!(pa.len() + pb.len(), 4);
        assert!(pa.iter().all(|p| !pb.contains(p)));
        // parallelism capped at partition count: 6 members, 4 partitions
        for m in ["c", "d", "e", "f"] {
            g.join(m);
        }
        let assigned: usize = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .map(|m| g.assignment(m).len())
            .sum();
        assert_eq!(assigned, 4);
        let idle = ["a", "b", "c", "d", "e", "f"]
            .iter()
            .filter(|m| g.assignment(m).is_empty())
            .count();
        assert_eq!(idle, 2);
    }

    #[test]
    fn rebalance_replays_uncommitted() {
        let t = topic_with(1, 10);
        let g = ConsumerGroup::new("g", TopicSubscription::new(t));
        g.join("a");
        let first = g.poll("a", 5).unwrap();
        assert_eq!(first.len(), 5);
        g.commit("a");
        let second = g.poll("a", 3).unwrap(); // offsets 5..8, uncommitted
        assert_eq!(second[0].offset, 5);
        // member joins -> rebalance -> position rewinds to commit (5)
        g.join("b");
        let owner = if g.assignment("a").is_empty() {
            "b"
        } else {
            "a"
        };
        let replay = g.poll(owner, 10).unwrap();
        assert_eq!(replay[0].offset, 5, "uncommitted records must replay");
        assert_eq!(replay.len(), 5);
    }

    #[test]
    fn unknown_member_rejected() {
        let t = topic_with(1, 0);
        let g = ConsumerGroup::new("g", TopicSubscription::new(t));
        assert!(g.poll("ghost", 1).is_err());
    }

    #[test]
    fn lag_tracks_commits() {
        let t = topic_with(2, 20);
        let g = ConsumerGroup::new("g", TopicSubscription::new(t.clone()));
        g.join("a");
        assert_eq!(g.lag(), 20);
        g.poll("a", 100).unwrap();
        assert_eq!(g.lag(), 20, "poll without commit leaves lag");
        g.commit("a");
        assert_eq!(g.lag(), 0);
        t.append(Record::new(Row::new(), 0).with_key("x"), 0)
            .unwrap();
        assert_eq!(g.lag(), 1);
    }

    #[test]
    fn retention_overrun_jumps_to_earliest() {
        let t = Arc::new(
            Topic::new(
                "t",
                TopicConfig {
                    partitions: 1,
                    retention_bytes: 1500,
                    retention_ms: 0,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let g = ConsumerGroup::new("g", TopicSubscription::new(t.clone()));
        g.join("a");
        for i in 0..500 {
            t.append(
                Record::new(Row::new().with("i", i as i64), 0).with_key("k"),
                0,
            )
            .unwrap();
        }
        // committed offset 0 has been retained away; poll recovers at the
        // log start and counts what retention took
        let low = t.partition(0).unwrap().log_start_offset();
        assert!(low > 0);
        let recs = g.poll("a", 10).unwrap();
        assert_eq!(recs[0].offset, low);
        assert_eq!(g.skipped(), low);
        assert_eq!(g.lag(), 500, "nothing committed yet");
        g.commit("a");
        assert_eq!(g.lag(), 500 - low - 10);
    }

    /// "a" holds partitions 0 and 3, "b" 1 and "c" 2, and one fetch in
    /// three times out: polled b, a, c, the first poll of a fetches
    /// partition 0, fails on 3 and delivers 0's records, and a's next poll
    /// starts at 3. Retried polls deliver every committed record once.
    #[test]
    fn failed_fetches_are_retried_and_deliver_each_record_once() {
        use rtdi_common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
        let chaos = Chaos::seeded(0xFE7C);
        let t = Topic::new("t", TopicConfig::default().with_partitions(4)).unwrap();
        let t = Arc::new(t.with_chaos(chaos.clone()));
        for i in 0..400i64 {
            let rec = Record::new(Row::new().with("i", i), i).with_key(format!("k{i}"));
            t.append(rec, 0).unwrap();
        }
        let g = ConsumerGroup::new("g", TopicSubscription::new(t));
        for m in ["a", "b", "c"] {
            g.join(m);
        }
        assert_eq!(g.assignment("a"), vec![0, 3]);
        chaos.arm(
            FaultPoint::StreamFetch,
            FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(3)),
        );
        let mut seen = Vec::new();
        loop {
            let before = seen.len();
            for m in ["b", "a", "c"] {
                let polled = (0..3)
                    .find_map(|_| match g.poll(m, 10) {
                        Ok(records) => Some(records),
                        Err(e) => {
                            assert!(matches!(e, Error::Timeout(_)), "{e}");
                            None
                        }
                    })
                    .expect("a retried poll succeeds");
                seen.extend(polled.iter().map(|r| r.record.value.get_int("i").unwrap()));
                g.commit(m);
            }
            if seen.len() == before {
                break;
            }
        }
        assert!(
            chaos.stats(FaultPoint::StreamFetch).1 > 0,
            "no fetch failed"
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..400).collect::<Vec<i64>>());
        assert_eq!(g.lag(), 0);
    }

    /// One member holds all four partitions and one fetch in three times
    /// out, so no poll gets through four fetches: each delivers what came
    /// before its failure and the next starts where it failed, and a
    /// retry loop reads every record once.
    #[test]
    fn a_wide_member_progresses_past_failed_fetches() {
        use rtdi_common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
        let chaos = Chaos::seeded(0x4A1D);
        let t = Topic::new("t", TopicConfig::default().with_partitions(4)).unwrap();
        let t = Arc::new(t.with_chaos(chaos.clone()));
        for i in 0..400i64 {
            let rec = Record::new(Row::new().with("i", i), i).with_key(format!("k{i}"));
            t.append(rec, 0).unwrap();
        }
        let g = ConsumerGroup::new("g", TopicSubscription::new(t));
        g.join("a");
        assert_eq!(g.assignment("a"), vec![0, 1, 2, 3]);
        chaos.arm(
            FaultPoint::StreamFetch,
            FaultPlan::fail(FaultKind::Timeout, Trigger::EveryNth(3)),
        );
        let mut seen = Vec::new();
        for _ in 0..200 {
            match g.poll("a", 10) {
                Ok(records) => {
                    seen.extend(records.iter().map(|r| r.record.value.get_int("i").unwrap()));
                }
                Err(e) => assert!(matches!(e, Error::Timeout(_)), "{e}"),
            }
            if seen.len() == 400 {
                break;
            }
        }
        assert!(
            chaos.stats(FaultPoint::StreamFetch).1 > 0,
            "no fetch failed"
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..400).collect::<Vec<i64>>());
    }

    #[test]
    fn subscription_redirect_checks_partitions() {
        let t1 = topic_with(4, 0);
        let t2 = topic_with(4, 0);
        let t3 = topic_with(8, 0);
        let sub = TopicSubscription::new(t1);
        assert!(sub.redirect(t2).is_ok());
        assert!(sub.redirect(t3).is_err());
    }

    #[test]
    fn explicit_commit_offset_moves_position() {
        let t = topic_with(1, 10);
        let g = ConsumerGroup::new("g", TopicSubscription::new(t));
        g.join("a");
        g.commit_offset(0, 7);
        let recs = g.poll("a", 10).unwrap();
        assert_eq!(recs[0].offset, 7);
        assert_eq!(g.committed(0), 7);
    }
}
