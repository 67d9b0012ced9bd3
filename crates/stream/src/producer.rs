//! Producer client.
//!
//! A deliberately *thin* client (§9.2: "a thin client is always preferred
//! in order to reduce the frequency of the client upgrades"): at-least-once
//! retries and audit decoration live here; everything else (routing,
//! federation, quotas) lives server-side.

use parking_lot::Mutex;
use rtdi_common::{
    Clock, FaultPoint, Origin, Quota, RateLimiter, Record, Result, RetryPolicy, Timestamp,
    WallClock,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Anything records can be produced to by topic name: a single
/// [`crate::cluster::Cluster`] or a federated logical cluster. `send` takes
/// the record shared: the log keeps that `Arc`, and a caller that retries
/// or forwards hands the same one over again. Readers do not come through
/// here: each holds a [`crate::consumer::TopicSubscription`] and a
/// [`crate::topic::PartitionCursor`] per partition.
pub trait StreamEndpoint: Send + Sync {
    fn send(&self, topic: &str, record: Arc<Record>, now: Timestamp) -> Result<(usize, u64)>;
}

impl StreamEndpoint for crate::cluster::Cluster {
    fn send(&self, topic: &str, record: Arc<Record>, now: Timestamp) -> Result<(usize, u64)> {
        self.chaos.check(FaultPoint::StreamAppend)?;
        self.produce(topic, record, now)
    }
}

/// Producer configuration.
#[derive(Debug, Clone)]
pub struct ProducerConfig {
    /// At-least-once: how many times to retry a retryable send.
    pub max_retries: usize,
    /// Service name stamped into the audit envelope.
    pub service: String,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            max_retries: 3,
            service: "unknown-service".into(),
        }
    }
}

/// Producers created so far in this process: the instance number keeps
/// two producers of one service from minting the same ids, on one platform
/// or on two that share a process (and an aggregate cluster).
static PRODUCER_INSTANCES: AtomicU64 = AtomicU64::new(0);

/// At-least-once producer with audit decoration (§9.4: unique identifier,
/// application timestamp, service name).
pub struct Producer {
    endpoint: Arc<dyn StreamEndpoint>,
    config: ProducerConfig,
    clock: Arc<dyn Clock>,
    /// `config.service` and the id space of this producer's `seq`
    /// (`"<service>#<instance>"`): stamping both is one `Arc` bump.
    origin: Arc<Origin>,
    seq: AtomicU64,
    sent: AtomicU64,
    /// Per-topic ingress quotas (the paper's Kafka-side client quotas,
    /// §4.1): a send that exhausts its topic bucket after the retry
    /// budget surfaces `Error::Overloaded`.
    quotas: Mutex<BTreeMap<String, Arc<RateLimiter>>>,
    /// Whether any quota was ever set: until then a send takes no lock.
    /// Stored (`Release`) after the quota is in the map, so a send that
    /// loads it (`Acquire`) as set finds the quota under the lock.
    quoted: AtomicBool,
    retries: AtomicU64,
}

impl Producer {
    pub fn new(endpoint: Arc<dyn StreamEndpoint>, config: ProducerConfig) -> Self {
        Self::with_clock(endpoint, config, Arc::new(WallClock))
    }

    pub fn with_clock(
        endpoint: Arc<dyn StreamEndpoint>,
        config: ProducerConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let instance = PRODUCER_INSTANCES.fetch_add(1, Ordering::Relaxed);
        Producer {
            endpoint,
            clock,
            origin: Arc::new(Origin {
                name: format!("{}#{instance}", config.service).into(),
                service: config.service.as_str().into(),
            }),
            config,
            seq: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            quotas: Mutex::new(BTreeMap::new()),
            quoted: AtomicBool::new(false),
            retries: AtomicU64::new(0),
        }
    }

    /// Enforce an ingress quota for `topic`, on the producer's clock.
    pub fn set_topic_quota(&self, topic: &str, quota: Quota) {
        self.quotas.lock().insert(
            topic.to_string(),
            Arc::new(RateLimiter::new(self.clock.clone(), quota)),
        );
        self.quoted.store(true, Ordering::Release);
    }

    /// Decorate and send one record. Every attempt hands the endpoint the
    /// same `Arc`: a retry re-sends the record and copies nothing.
    pub fn send(&self, topic: &str, mut record: Record) -> Result<()> {
        let now = self.clock.now();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        // the trace stamp is the origin of the freshness trace: downstream
        // hops measure dwell from it and restamp as they pass the record
        // along
        record.stamp(&self.origin, seq, now);
        let record = Arc::new(record);
        let limiter = if self.quoted.load(Ordering::Acquire) {
            self.quotas.lock().get(topic).cloned()
        } else {
            None
        };
        // at-least-once: the shared policy retries only retryable errors
        // and backs off with deterministic jitter between attempts. The
        // quota check sits inside the retried closure: Overloaded is
        // retryable, so a throttled send backs off and tries again while
        // the bucket refills before surfacing.
        let policy = RetryPolicy::new(self.config.max_retries as u32 + 1);
        let (result, attempts) = policy.run_with_attempts(&mut |_| {
            if let Some(limiter) = &limiter {
                limiter.acquire(1, topic)?;
            }
            self.endpoint.send(topic, Arc::clone(&record), now)
        });
        if attempts > 1 {
            self.retries
                .fetch_add(attempts as u64 - 1, Ordering::Relaxed);
        }
        result.map(|_| {
            self.sent.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Records successfully delivered to the endpoint.
    pub fn records_sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Send attempts beyond the first, over every `send` so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::topic::TopicConfig;
    use parking_lot::RwLock;
    use rtdi_common::{Error, Row, SimClock, UniqueId};

    fn setup() -> (Arc<Cluster>, Arc<SimClock>) {
        let c = Cluster::new("c", ClusterConfig::default());
        c.create_topic("t", TopicConfig::default().with_partitions(2))
            .unwrap();
        (c, Arc::new(SimClock::new(1000)))
    }

    #[test]
    fn send_decorates_with_audit_headers() {
        let (c, clock) = setup();
        let p = Producer::with_clock(
            c.clone(),
            ProducerConfig {
                service: "driver-app".into(),
                ..Default::default()
            },
            clock,
        );
        p.send(
            "t",
            Record::new(Row::new().with("x", 1i64), 5).with_key("k"),
        )
        .unwrap();
        let topic = c.topic("t").unwrap();
        let part = (0..2)
            .find(|&i| topic.fetch(i, 0, 1).unwrap().records.len() == 1)
            .unwrap();
        let rec = topic.fetch(part, 0, 1).unwrap().records.remove(0).record;
        assert_eq!(rec.service(), Some("driver-app"));
        assert_eq!((rec.app_ts(), rec.trace_ts()), (Some(1000), Some(1000)));
        let id = rec.unique_id().unwrap().to_string();
        assert!(id.starts_with("driver-app#") && id.ends_with("-0"), "{id}");
    }

    #[test]
    fn two_producers_of_one_service_mint_distinct_ids() {
        let (c, clock) = setup();
        let config = ProducerConfig {
            service: "svc".into(),
            ..Default::default()
        };
        let a = Producer::with_clock(c.clone(), config.clone(), clock.clone());
        let b = Producer::with_clock(c.clone(), config, clock);
        for _ in 0..3 {
            a.send("t", Record::new(Row::new(), 5)).unwrap();
            b.send("t", Record::new(Row::new(), 5)).unwrap();
        }
        let topic = c.topic("t").unwrap();
        let ids: std::collections::HashSet<String> = (0..2)
            .flat_map(|p| topic.fetch(p, 0, 10).unwrap().records)
            .filter_map(|r| r.record.unique_id().map(|id| id.to_string()))
            .collect();
        assert_eq!(ids.len(), 6);
        // a caller-supplied id is kept
        a.send(
            "t",
            Record::new(Row::new(), 5)
                .with_unique_id("mine")
                .with_key("k"),
        )
        .unwrap();
        let kept = (0..2)
            .flat_map(|p| topic.fetch(p, 0, 10).unwrap().records)
            .any(|r| r.record.unique_id() == Some(UniqueId::Text(&"mine".into())));
        assert!(kept);
    }

    /// Endpoint that fails transiently N times then succeeds.
    struct Flaky {
        inner: Arc<Cluster>,
        failures_left: RwLock<usize>,
    }

    impl StreamEndpoint for Flaky {
        fn send(&self, topic: &str, record: Arc<Record>, now: Timestamp) -> Result<(usize, u64)> {
            let mut left = self.failures_left.write();
            if *left > 0 {
                *left -= 1;
                return Err(Error::Unavailable("transient".into()));
            }
            self.inner.produce(topic, record, now)
        }
    }

    #[test]
    fn topic_quota_sheds_deterministically_and_refills_with_the_clock() {
        use rtdi_common::Quota;
        let (c, clock) = setup();
        let p = Producer::with_clock(c.clone(), ProducerConfig::default(), clock.clone());
        // unthrottled until a quota is set, and bound from the next send on
        for i in 0..4 {
            p.send("t", Record::new(Row::new().with("i", i as i64), 0))
                .unwrap();
        }
        p.set_topic_quota("t", Quota::per_sec(1_000).with_burst(3));
        let mut accepted = 0u64;
        let mut shed = 0u64;
        for i in 0..5 {
            match p.send("t", Record::new(Row::new().with("i", i as i64), 0)) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    assert!(matches!(e, Error::Overloaded(_)));
                    assert!(e.is_retryable(), "clients may back off and retry");
                    shed += 1;
                }
            }
        }
        assert_eq!((accepted, shed), (3, 2), "burst of 3, then quota sheds");
        assert_eq!(p.records_sent(), 4 + 3);
        assert_eq!(c.topic("t").unwrap().total_records(), 4 + 3);
        // advancing the injected clock refills the bucket: 2ms at 1000/s
        clock.advance(2);
        for i in 0..3 {
            let r = p.send("t", Record::new(Row::new().with("i", i as i64), 0));
            if i < 2 {
                r.unwrap();
            } else {
                assert!(matches!(r, Err(Error::Overloaded(_))));
            }
        }
        assert_eq!(p.records_sent(), 4 + 5);
    }

    #[test]
    fn retries_transient_failures() {
        let (c, clock) = setup();
        let flaky = Arc::new(Flaky {
            inner: c.clone(),
            failures_left: RwLock::new(2),
        });
        let p = Producer::with_clock(flaky, ProducerConfig::default(), clock.clone());
        p.send("t", Record::new(Row::new(), 0)).unwrap();
        assert_eq!(c.topic("t").unwrap().total_records(), 1);
        assert_eq!(p.records_sent(), 1);
        assert_eq!(p.retries(), 2, "this producer's own retries");

        // too many failures -> surfaced
        let flaky = Arc::new(Flaky {
            inner: c.clone(),
            failures_left: RwLock::new(10),
        });
        let p = Producer::with_clock(flaky, ProducerConfig::default(), clock);
        assert!(p.send("t", Record::new(Row::new(), 0)).is_err());
        assert_eq!(
            p.retries(),
            3,
            "the budget of 3, none of the first producer's"
        );
    }
}
