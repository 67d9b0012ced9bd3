//! Dead letter queues (§4.1.2).
//!
//! "If a consumer of the topic cannot process a message with several
//! retries, it will publish that message to the dead letter topic. The
//! messages in the dead letter topic can be purged or merged (i.e.
//! retried) on demand by the users. This way, the unprocessed messages
//! remain separate and therefore are unable to impede live traffic."

use crate::log::PartitionLog;
use crate::producer::StreamEndpoint;
use crate::topic::{Topic, TopicConfig};
use rtdi_common::record::headers;
use rtdi_common::{Error, Record, Result, RetryPolicy, Timestamp};
use std::sync::Arc;

/// Why a record was parked. A closed enum (stamped into the
/// [`headers::DLQ_REASON`] header) instead of free text, so chaos tests
/// can assert *why* records landed in the DLQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkReason {
    /// A retryable failure that outlived the proxy's retry budget.
    RetriesExhausted,
    /// The record itself is malformed / fails schema validation.
    Schema,
    /// The downstream service rejects the record non-retryably.
    Poison,
    /// Admission control shed the record (quota / watermark / permits);
    /// it is parked instead of dropped so overload never loses data and
    /// `offered == delivered + parked` holds exactly.
    Overload,
}

impl ParkReason {
    pub fn as_str(self) -> &'static str {
        match self {
            ParkReason::RetriesExhausted => "retries-exhausted",
            ParkReason::Schema => "schema",
            ParkReason::Poison => "poison",
            ParkReason::Overload => "overload",
        }
    }

    /// Classify a processing error into a park reason.
    pub fn classify(err: &Error) -> Self {
        match err {
            // Overloaded is retryable, so this arm must come before the
            // generic retryable -> RetriesExhausted mapping: a shed
            // record parks as Overload, not as a processing failure.
            Error::Overloaded(_) => ParkReason::Overload,
            _ if err.is_retryable() => ParkReason::RetriesExhausted,
            Error::Schema(_) => ParkReason::Schema,
            Error::DeadlineExceeded(_) => ParkReason::Overload,
            _ => ParkReason::Poison,
        }
    }
}

impl std::fmt::Display for ParkReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The dead-letter companion of a main topic.
pub struct DeadLetterQueue {
    /// Name of the topic whose poison messages land here.
    source_topic: String,
    dlq: Topic,
    /// The queue's one partition: what depth, peek, purge and merge read.
    log: Arc<PartitionLog>,
}

impl DeadLetterQueue {
    pub fn new(source_topic: impl Into<String>) -> Result<Self> {
        let source_topic = source_topic.into();
        // DLQ uses a single partition: ordering across poison messages is
        // irrelevant and it simplifies drain/merge.
        let dlq = Topic::new(
            format!("{source_topic}.dlq"),
            TopicConfig {
                partitions: 1,
                retention_ms: 0, // poison messages never expire silently
                retention_bytes: 0,
                ..TopicConfig::lossless()
            },
        )?;
        let log = dlq
            .partition(0)
            .cloned()
            .ok_or_else(|| Error::Internal(format!("'{source_topic}.dlq' has no partition")))?;
        Ok(DeadLetterQueue {
            source_topic,
            dlq,
            log,
        })
    }

    /// Park a message that cannot be processed. The classified reason,
    /// human-readable detail and source topic are recorded in headers for
    /// triage.
    pub fn park(&self, mut record: Record, reason: ParkReason, detail: &str, now: Timestamp) {
        record.set_header(headers::DLQ_SOURCE, self.source_topic.clone());
        record.set_header(headers::DLQ_REASON, reason.as_str());
        record.set_header(headers::DLQ_DETAIL, detail);
        let record = Arc::new(record);
        // the last resort must not lose a record: when replicate faults
        // have shrunk the acks=all ISR, it stays on the leader's log
        if self.dlq.append_to(0, Arc::clone(&record), now).is_err() {
            self.log.append(record, now);
        }
    }

    /// Number of currently parked messages.
    pub fn depth(&self) -> usize {
        self.log.len()
    }

    /// Inspect parked messages without consuming them.
    pub fn peek(&self, max: usize) -> Vec<Record> {
        self.log
            .fetch(self.log.log_start_offset(), max)
            .map(|f| f.records.into_iter().map(|r| r.into_record()).collect())
            .unwrap_or_default()
    }

    /// Drop every parked message ("purged ... on demand by the users").
    pub fn purge(&self) -> usize {
        let n = self.log.len();
        self.log.truncate_all();
        n
    }

    /// Re-publish every parked message to the main topic for another
    /// processing attempt ("merged (i.e. retried) on demand"). The main
    /// topic shares the parked record; only one whose retry-counter header
    /// is stale is copied, to reset it. Returns how many were merged.
    pub fn merge(&self, endpoint: &dyn StreamEndpoint, now: Timestamp) -> Result<usize> {
        let log = &self.log;
        // a flaky endpoint is retried per record; only a persistently
        // failing send aborts the merge
        let policy = RetryPolicy::transient();
        let mut merged = 0;
        loop {
            // fetch the whole backlog so truncate_all below cannot drop
            // records that were never re-published
            let parked = log.fetch(log.log_start_offset(), log.len().max(1))?.records;
            if parked.is_empty() {
                break;
            }
            for (i, entry) in parked.iter().enumerate() {
                let mut record = Arc::clone(&entry.record);
                if !matches!(record.header(headers::ATTEMPTS), None | Some("0")) {
                    Arc::make_mut(&mut record).set_header(headers::ATTEMPTS, "0");
                }
                let sent =
                    policy.run(|_| endpoint.send(&self.source_topic, Arc::clone(&record), now));
                if let Err(e) = sent {
                    // drop exactly the re-published prefix and keep the
                    // unsent tail parked, so a later merge can neither
                    // duplicate nor lose records
                    log.truncate_all();
                    for unsent in &parked[i..] {
                        log.append(Arc::clone(&unsent.record), now);
                    }
                    return Err(e);
                }
                merged += 1;
            }
            log.truncate_all();
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use rtdi_common::Row;

    fn rec(i: i64) -> Record {
        Record::new(Row::new().with("i", i), i).with_key("k")
    }

    #[test]
    fn park_and_inspect() {
        let dlq = DeadLetterQueue::new("trips").unwrap();
        dlq.park(rec(1), ParkReason::Schema, "schema mismatch", 100);
        dlq.park(rec(2), ParkReason::Poison, "downstream 500", 101);
        assert_eq!(dlq.depth(), 2);
        let peeked = dlq.peek(10);
        assert_eq!(peeked.len(), 2);
        assert_eq!(peeked[0].header(headers::DLQ_SOURCE), Some("trips"));
        assert_eq!(peeked[0].header(headers::DLQ_REASON), Some("schema"));
        assert_eq!(
            peeked[0].header(headers::DLQ_DETAIL),
            Some("schema mismatch")
        );
        assert_eq!(peeked[1].header(headers::DLQ_REASON), Some("poison"));
        // peeking does not consume
        assert_eq!(dlq.depth(), 2);
    }

    #[test]
    fn park_reason_classification() {
        assert_eq!(
            ParkReason::classify(&Error::Unavailable("x".into())),
            ParkReason::RetriesExhausted
        );
        assert_eq!(
            ParkReason::classify(&Error::Timeout("x".into())),
            ParkReason::RetriesExhausted
        );
        assert_eq!(
            ParkReason::classify(&Error::Schema("bad field".into())),
            ParkReason::Schema
        );
        assert_eq!(
            ParkReason::classify(&Error::InvalidArgument("x".into())),
            ParkReason::Poison
        );
        // shed work parks as Overload even though Overloaded is
        // retryable — the Overloaded arm precedes the retryable one
        assert!(Error::Overloaded("q".into()).is_retryable());
        assert_eq!(
            ParkReason::classify(&Error::Overloaded("quota".into())),
            ParkReason::Overload
        );
        assert_eq!(
            ParkReason::classify(&Error::DeadlineExceeded("late".into())),
            ParkReason::Overload
        );
    }

    /// Inverse of [`ParkReason::as_str`]: parse the value of a
    /// [`headers::DLQ_REASON`] header back into the enum.
    fn parse(s: &str) -> Option<ParkReason> {
        match s {
            "retries-exhausted" => Some(ParkReason::RetriesExhausted),
            "schema" => Some(ParkReason::Schema),
            "poison" => Some(ParkReason::Poison),
            "overload" => Some(ParkReason::Overload),
            _ => None,
        }
    }

    #[test]
    fn park_reason_round_trips_through_header_string() {
        for reason in [
            ParkReason::RetriesExhausted,
            ParkReason::Schema,
            ParkReason::Poison,
            ParkReason::Overload,
        ] {
            assert_eq!(parse(reason.as_str()), Some(reason));
        }
        assert_eq!(parse("gibberish"), None);
        // and through an actual parked record's headers
        let dlq = DeadLetterQueue::new("trips").unwrap();
        dlq.park(rec(1), ParkReason::Overload, "tenant over quota", 7);
        let parked = dlq.peek(1);
        let header = parked[0].header(headers::DLQ_REASON).unwrap();
        assert_eq!(parse(header), Some(ParkReason::Overload));
    }

    #[test]
    fn purge_empties_queue() {
        let dlq = DeadLetterQueue::new("trips").unwrap();
        for i in 0..5 {
            dlq.park(rec(i), ParkReason::Poison, "x", 0);
        }
        assert_eq!(dlq.purge(), 5);
        assert_eq!(dlq.depth(), 0);
        assert_eq!(dlq.purge(), 0);
    }

    #[test]
    fn merge_republishes_to_source_topic() {
        let cluster = Cluster::new("c", ClusterConfig::default());
        cluster
            .create_topic("trips", TopicConfig::default().with_partitions(1))
            .unwrap();
        let dlq = DeadLetterQueue::new("trips").unwrap();
        for i in 0..3 {
            let mut r = rec(i);
            r.set_header(headers::ATTEMPTS, "5");
            dlq.park(r, ParkReason::RetriesExhausted, "boom", 0);
        }
        let merged = dlq.merge(cluster.as_ref(), 50).unwrap();
        assert_eq!(merged, 3);
        assert_eq!(dlq.depth(), 0);
        let topic = cluster.topic("trips").unwrap();
        let records = topic.fetch(0, 0, 10).unwrap().records;
        assert_eq!(records.len(), 3);
        // retry budget reset
        assert_eq!(records[0].record.header(headers::ATTEMPTS), Some("0"));
        // provenance retained
        assert_eq!(records[0].record.header(headers::DLQ_SOURCE), Some("trips"));
    }

    #[test]
    fn merge_shares_the_parked_record_unless_its_retry_counter_is_stale() {
        let cluster = Cluster::new("c", ClusterConfig::default());
        cluster
            .create_topic("trips", TopicConfig::default().with_partitions(1))
            .unwrap();
        let dlq = DeadLetterQueue::new("trips").unwrap();
        dlq.park(rec(0), ParkReason::Poison, "x", 0);
        let mut shed = rec(1);
        shed.set_header(headers::ATTEMPTS, "0");
        dlq.park(shed, ParkReason::Overload, "x", 0);
        let mut retried = rec(2);
        retried.set_header(headers::ATTEMPTS, "3");
        dlq.park(retried, ParkReason::RetriesExhausted, "x", 0);
        let parked = dlq.log.fetch(0, 10).unwrap().records;
        assert_eq!(dlq.merge(cluster.as_ref(), 50).unwrap(), 3);
        let merged = cluster.topic("trips").unwrap().fetch(0, 0, 10).unwrap();
        let shared: Vec<bool> = parked
            .iter()
            .zip(&merged.records)
            .map(|(a, b)| Arc::ptr_eq(&a.record, &b.record))
            .collect();
        assert_eq!(shared, vec![true, true, false]);
    }

    #[test]
    fn parking_survives_a_replication_outage_of_the_queue_itself() {
        use rtdi_common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
        let chaos = Chaos::seeded(0xD2);
        let mut dlq = DeadLetterQueue::new("trips").unwrap();
        dlq.dlq = dlq.dlq.with_chaos(chaos.clone());
        // followers stop acknowledging: after three strikes each the
        // acks=all queue refuses appends, which used to panic the parker
        chaos.arm(
            FaultPoint::StreamReplicate,
            FaultPlan::fail(FaultKind::Timeout, Trigger::Always),
        );
        for i in 0..6 {
            dlq.park(rec(i), ParkReason::Poison, "x", i);
        }
        assert_eq!(dlq.depth(), 6);
        let ids: Vec<_> = dlq.peek(10).iter().map(|r| r.value.get_int("i")).collect();
        assert_eq!(ids, (0..6).map(Some).collect::<Vec<_>>());
    }

    /// Endpoint whose sends fail transiently according to a script of
    /// per-call failures.
    struct FlakyEndpoint {
        inner: Arc<Cluster>,
        failures_left: parking_lot::Mutex<usize>,
    }

    impl StreamEndpoint for FlakyEndpoint {
        fn send(&self, topic: &str, record: Arc<Record>, now: Timestamp) -> Result<(usize, u64)> {
            let mut left = self.failures_left.lock();
            if *left > 0 {
                *left -= 1;
                return Err(Error::Unavailable("flaky".into()));
            }
            self.inner.produce(topic, record, now)
        }
    }

    #[test]
    fn merge_retries_flaky_endpoint_without_duplicates() {
        let cluster = Cluster::new("c", ClusterConfig::default());
        cluster
            .create_topic("trips", TopicConfig::default().with_partitions(1))
            .unwrap();
        let dlq = DeadLetterQueue::new("trips").unwrap();
        for i in 0..5 {
            dlq.park(rec(i), ParkReason::RetriesExhausted, "boom", 0);
        }
        // the first record's send fails 3 times and succeeds on the 4th
        // attempt, inside the per-record retry budget
        let flaky = FlakyEndpoint {
            inner: cluster.clone(),
            failures_left: parking_lot::Mutex::new(3),
        };
        assert_eq!(dlq.merge(&flaky, 10).unwrap(), 5);
        assert_eq!(dlq.depth(), 0);
        let records = cluster
            .topic("trips")
            .unwrap()
            .fetch(0, 0, 100)
            .unwrap()
            .records;
        assert_eq!(records.len(), 5, "each record republished exactly once");
        let ids: Vec<Option<i64>> = records
            .iter()
            .map(|r| r.record.value.get_int("i"))
            .collect();
        assert_eq!(ids, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn merge_aborts_without_losing_or_duplicating_on_persistent_failure() {
        let cluster = Cluster::new("c", ClusterConfig::default());
        cluster
            .create_topic("trips", TopicConfig::default().with_partitions(1))
            .unwrap();
        let dlq = DeadLetterQueue::new("trips").unwrap();
        for i in 0..4 {
            dlq.park(rec(i), ParkReason::RetriesExhausted, "boom", 0);
        }
        // every send fails: the merge aborts on the first record and the
        // whole backlog must remain parked, nothing published
        let broken = FlakyEndpoint {
            inner: cluster.clone(),
            failures_left: parking_lot::Mutex::new(usize::MAX),
        };
        assert!(dlq.merge(&broken, 10).is_err());
        let published = cluster
            .topic("trips")
            .unwrap()
            .fetch(0, 0, 100)
            .unwrap()
            .records;
        assert!(published.is_empty());
        assert_eq!(dlq.depth(), 4);
        let again = FlakyEndpoint {
            inner: cluster.clone(),
            failures_left: parking_lot::Mutex::new(0),
        };
        assert_eq!(dlq.merge(&again, 20).unwrap(), 4);
        assert_eq!(dlq.depth(), 0);
        let records = cluster
            .topic("trips")
            .unwrap()
            .fetch(0, 0, 100)
            .unwrap()
            .records;
        assert_eq!(records.len(), 4, "no duplicates after retried merge");
    }

    #[test]
    fn merge_keeps_unsent_tail_when_endpoint_dies_mid_merge() {
        use rtdi_common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
        let chaos = Chaos::seeded(0xD1);
        let cluster = Cluster::with_chaos("c", ClusterConfig::default(), chaos.clone());
        cluster
            .create_topic("trips", TopicConfig::default().with_partitions(1))
            .unwrap();
        let dlq = DeadLetterQueue::new("trips").unwrap();
        for i in 0..4 {
            dlq.park(rec(i), ParkReason::RetriesExhausted, "boom", 0);
        }
        // the stream endpoint accepts the first 2 appends, then the
        // cluster edge goes hard-down
        chaos.arm(
            FaultPoint::StreamAppend,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(2, None),
        );
        assert!(dlq.merge(cluster.as_ref(), 10).is_err());
        chaos.disarm(FaultPoint::StreamAppend);
        // exactly the sent prefix was dropped from the DLQ...
        let published = cluster
            .topic("trips")
            .unwrap()
            .fetch(0, 0, 100)
            .unwrap()
            .records;
        assert_eq!(published.len(), 2);
        assert_eq!(dlq.depth(), 2);
        // ...and a later merge completes the tail with no duplicates
        assert_eq!(dlq.merge(cluster.as_ref(), 20).unwrap(), 2);
        assert_eq!(dlq.depth(), 0);
        let all = cluster
            .topic("trips")
            .unwrap()
            .fetch(0, 0, 100)
            .unwrap()
            .records;
        let mut ids: Vec<i64> = all
            .iter()
            .filter_map(|r| r.record.value.get_int("i"))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
