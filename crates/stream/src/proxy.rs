//! Consumer proxy (§4.1.3, Figure 4).
//!
//! "We built a proxy layer that consumes messages from Kafka and
//! dispatches them to a user-registered gRPC service endpoint... the
//! consumer proxy provides sophisticated error handling. When the
//! downstream service fails to receive or process some messages, the
//! consumer proxy can retry the dispatch, and send them to the DLQ if
//! several retries failed... a push-based dispatching mechanism can
//! greatly improve the consumption throughput by enabling higher
//! parallelism for slow consumers... This addresses Kafka's consumer group
//! size issue."
//!
//! [`DispatchMode::Poll`] models the classic consumer-library path
//! (parallelism = partition count); [`DispatchMode::Push`] models the
//! proxy (worker pool independent of partitions, per-partition offset
//! tracking with contiguous-prefix commits). Experiment E3 compares the
//! two under a slow downstream service.

use crate::consumer::ConsumerGroup;
use crate::dlq::{DeadLetterQueue, ParkReason};
use crate::log::OffsetRecord;
use parking_lot::Mutex;
use rtdi_common::record::headers;
use rtdi_common::{
    AdmissionController, Chaos, Error, FaultPoint, Priority, Record, Result, RetryPolicy,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The user-registered downstream service. In production this is a gRPC
/// endpoint; here it is a trait object with the same semantics (may be
/// slow, may fail transiently, may reject a poison message forever).
pub trait ConsumerService: Send + Sync {
    fn process(&self, record: &Record) -> Result<()>;
}

impl<F> ConsumerService for F
where
    F: Fn(&Record) -> Result<()> + Send + Sync,
{
    fn process(&self, record: &Record) -> Result<()> {
        self(record)
    }
}

/// Poll (library-style, partition-bounded) vs Push (proxy worker pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    Poll,
    /// Push with this many concurrent dispatch workers.
    Push(usize),
}

/// Proxy behaviour knobs.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    pub mode: DispatchMode,
    /// Dispatch attempts per message before DLQ hand-off.
    pub max_attempts: usize,
    /// Records fetched per poll per partition.
    pub poll_batch: usize,
    /// Admission gate consulted per record before dispatch: per-tenant
    /// quotas (tenant = the producing service, `Audit::service`) plus
    /// queue-depth watermarks fed from consumer lag. Shed
    /// records park to the DLQ as [`ParkReason::Overload`] instead of
    /// being dropped. `None` disables admission control.
    pub admission: Option<Arc<AdmissionController>>,
    /// Bound on records buffered between the poller and the push
    /// workers; a full buffer blocks the poller (backpressure to the
    /// fetch side) instead of queueing without limit. 0 = unbounded.
    pub max_in_flight: usize,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            mode: DispatchMode::Push(16),
            max_attempts: 3,
            poll_batch: 256,
            admission: None,
            max_in_flight: 1024,
        }
    }
}

/// Outcome counters for one proxy run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DispatchStats {
    pub delivered: u64,
    pub retried: u64,
    pub dead_lettered: u64,
    /// Records refused by admission control and parked as
    /// [`ParkReason::Overload`]. Disjoint from `dead_lettered`:
    /// `delivered + dead_lettered + shed` always equals records offered.
    pub shed: u64,
}

/// Tracks out-of-order completions and exposes the contiguous committed
/// prefix per partition — the proxy can only commit offsets up to the
/// first still-in-flight message.
#[derive(Debug, Default)]
pub struct OffsetTracker {
    /// partition -> (next offset to commit, set of completed offsets ≥ next)
    state: Mutex<BTreeMap<usize, (u64, BTreeSet<u64>)>>,
}

impl OffsetTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Prime the tracker with the first offset the proxy will dispatch for
    /// a partition.
    pub fn start_partition(&self, partition: usize, first_offset: u64) {
        self.state
            .lock()
            .entry(partition)
            .or_insert((first_offset, BTreeSet::new()));
    }

    /// Mark an offset complete; returns the new committable offset (one
    /// past the contiguous prefix).
    pub fn complete(&self, partition: usize, offset: u64) -> u64 {
        let mut state = self.state.lock();
        let (next, done) = state.entry(partition).or_insert((offset, BTreeSet::new()));
        done.insert(offset);
        while done.remove(next) {
            *next += 1;
        }
        *next
    }

    pub fn committable(&self, partition: usize) -> Option<u64> {
        self.state.lock().get(&partition).map(|(n, _)| *n)
    }
}

/// The proxy itself.
pub struct ConsumerProxy {
    config: ProxyConfig,
    service: Arc<dyn ConsumerService>,
    dlq: Arc<DeadLetterQueue>,
    chaos: Chaos,
}

impl ConsumerProxy {
    pub fn new(
        config: ProxyConfig,
        service: Arc<dyn ConsumerService>,
        dlq: Arc<DeadLetterQueue>,
    ) -> Self {
        ConsumerProxy {
            config,
            service,
            dlq,
            chaos: Chaos::default(),
        }
    }

    /// Dispatches fail when `chaos` says so.
    pub fn with_chaos(mut self, chaos: Chaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Consume the group's topic until fully caught up (lag 0 at commit),
    /// dispatching every record to the downstream service. Returns
    /// delivery statistics. The group must already have the member
    /// `"proxy"` joined (the proxy appears as a single consumer-group
    /// member regardless of its internal worker count — exactly how it
    /// defeats the group-size cap).
    pub fn run_until_caught_up(&self, group: &ConsumerGroup) -> Result<DispatchStats> {
        group.join("proxy");
        let stats = Arc::new(StatsCells::default());
        loop {
            // consumer lag is the proxy's queue: feed it to the admission
            // watermarks so a growing backlog starts shedding before the
            // proxy drowns
            if let Some(ac) = &self.config.admission {
                ac.set_queue_depth(group.lag());
            }
            let batches = group.poll_partitioned("proxy", self.config.poll_batch)?;
            if batches.is_empty() {
                if group.lag() == 0 {
                    break;
                }
                continue;
            }
            match self.config.mode {
                DispatchMode::Poll => self.dispatch_serial(group, &batches, &stats),
                DispatchMode::Push(workers) => {
                    self.dispatch_parallel(group, batches, workers.max(1), &stats)
                }
            }
        }
        Ok(DispatchStats {
            delivered: stats.delivered.load(Ordering::Relaxed),
            retried: stats.retried.load(Ordering::Relaxed),
            dead_lettered: stats.dead_lettered.load(Ordering::Relaxed),
            shed: stats.shed.load(Ordering::Relaxed),
        })
    }

    fn dispatch_serial(
        &self,
        group: &ConsumerGroup,
        batches: &[(usize, Vec<OffsetRecord>)],
        stats: &StatsCells,
    ) {
        for (_, run) in batches {
            for rec in run {
                self.dispatch_one(&rec.record, stats);
            }
        }
        group.commit("proxy");
    }

    fn dispatch_parallel(
        &self,
        group: &ConsumerGroup,
        batches: Vec<(usize, Vec<OffsetRecord>)>,
        workers: usize,
        stats: &StatsCells,
    ) {
        let tracker = OffsetTracker::new();
        let mut touched: Vec<usize> = Vec::new();
        for (partition, run) in &batches {
            if let Some(first) = run.first() {
                tracker.start_partition(*partition, first.offset);
                touched.push(*partition);
            }
        }
        // bounded in-flight buffer: a full channel blocks this feeder
        // until a worker drains a slot, so overload backpressure reaches
        // the fetch side instead of growing an unbounded queue
        let (tx, rx) = if self.config.max_in_flight > 0 {
            crossbeam::channel::bounded::<(usize, OffsetRecord)>(self.config.max_in_flight)
        } else {
            crossbeam::channel::unbounded::<(usize, OffsetRecord)>()
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let rx = rx.clone();
                let tracker = &tracker;
                let stats = &*stats;
                scope.spawn(move || {
                    while let Ok((partition, rec)) = rx.recv() {
                        self.dispatch_one(&rec.record, stats);
                        tracker.complete(partition, rec.offset);
                    }
                });
            }
            for (partition, run) in batches {
                for rec in run {
                    if tx.send((partition, rec)).is_err() {
                        break;
                    }
                }
            }
            drop(tx);
        });
        for p in touched {
            if let Some(commit) = tracker.committable(p) {
                group.commit_offset(p, commit);
            }
        }
    }

    fn dispatch_one(&self, record: &Record, stats: &StatsCells) {
        // admission gate: the tenant is the producing service, the lane
        // is interactive (the proxy serves live traffic). A refusal
        // parks the record as Overload — shed, never silently dropped —
        // and skips the retry budget entirely: retrying against a
        // tripped quota only adds load.
        let _permit = if let Some(ac) = &self.config.admission {
            let tenant = record.audit().service.as_deref().unwrap_or("unknown");
            match ac.admit(tenant, Priority::Interactive) {
                Ok(permit) => Some(permit),
                Err(e) => {
                    self.park(record, 0, &e);
                    stats.shed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        } else {
            None
        };
        // the injected fault sits inside the retried closure: a dispatch
        // fault behaves exactly like a downstream failure, including the
        // retry budget and DLQ hand-off
        let policy = RetryPolicy::new(self.config.max_attempts as u32);
        let (result, attempts) = policy.run_with_attempts(&mut |_| {
            self.chaos.check(FaultPoint::ProxyDispatch)?;
            self.service.process(record)
        });
        if attempts > 1 {
            stats
                .retried
                .fetch_add(attempts as u64 - 1, Ordering::Relaxed);
        }
        match result {
            Ok(()) => {
                stats.delivered.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.park(record, attempts, &e);
                stats.dead_lettered.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Park a copy of the borrowed record with the attempts it consumed.
    fn park(&self, record: &Record, attempts: u32, e: &Error) {
        let mut parked = record.clone();
        parked.headers.set(headers::ATTEMPTS, attempts.to_string());
        let reason = ParkReason::classify(e);
        self.dlq
            .park(parked, reason, &e.to_string(), record.timestamp);
    }
}

#[derive(Default)]
struct StatsCells {
    delivered: AtomicU64,
    retried: AtomicU64,
    dead_lettered: AtomicU64,
    shed: AtomicU64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::TopicSubscription;
    use crate::topic::{Topic, TopicConfig};
    use rtdi_common::{Error, Row};
    use std::sync::atomic::AtomicUsize;

    fn topic_with(partitions: usize, records: usize) -> Arc<Topic> {
        let t = Arc::new(
            Topic::new("trips", TopicConfig::default().with_partitions(partitions)).unwrap(),
        );
        for i in 0..records {
            t.append(
                Record::new(Row::new().with("i", i as i64), i as i64).with_key(format!("k{i}")),
                0,
            )
            .unwrap();
        }
        t
    }

    fn proxy(mode: DispatchMode, service: Arc<dyn ConsumerService>) -> ConsumerProxy {
        ConsumerProxy::new(
            ProxyConfig {
                mode,
                max_attempts: 3,
                poll_batch: 64,
                ..Default::default()
            },
            service,
            Arc::new(DeadLetterQueue::new("trips").unwrap()),
        )
    }

    #[test]
    fn push_delivers_every_record_once() {
        let t = topic_with(4, 500);
        let group = ConsumerGroup::new("g", TopicSubscription::new(t));
        let seen = Arc::new(Mutex::new(BTreeSet::new()));
        let seen2 = seen.clone();
        let service = Arc::new(move |r: &Record| {
            seen2.lock().insert(r.value.get_int("i").unwrap());
            Ok(())
        });
        let stats = proxy(DispatchMode::Push(8), service)
            .run_until_caught_up(&group)
            .unwrap();
        assert_eq!(stats.delivered, 500);
        assert_eq!(stats.dead_lettered, 0);
        assert_eq!(seen.lock().len(), 500);
        assert_eq!(group.lag(), 0);
    }

    #[test]
    fn poll_mode_also_delivers_everything() {
        let t = topic_with(3, 200);
        let group = ConsumerGroup::new("g", TopicSubscription::new(t));
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let service = Arc::new(move |_: &Record| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        let stats = proxy(DispatchMode::Poll, service)
            .run_until_caught_up(&group)
            .unwrap();
        assert_eq!(stats.delivered, 200);
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn poison_messages_go_to_dlq_without_blocking() {
        let t = topic_with(2, 100);
        let group = ConsumerGroup::new("g", TopicSubscription::new(t));
        let dlq = Arc::new(DeadLetterQueue::new("trips").unwrap());
        // every 10th record is poison
        let service = Arc::new(|r: &Record| {
            if r.value.get_int("i").unwrap() % 10 == 0 {
                Err(Error::ProcessingFailed("corrupt".into()))
            } else {
                Ok(())
            }
        });
        let p = ConsumerProxy::new(
            ProxyConfig {
                mode: DispatchMode::Push(4),
                max_attempts: 2,
                poll_batch: 32,
                ..Default::default()
            },
            service,
            dlq.clone(),
        );
        let stats = p.run_until_caught_up(&group).unwrap();
        assert_eq!(stats.delivered, 90);
        assert_eq!(stats.dead_lettered, 10);
        assert_eq!(stats.retried, 10); // one retry each before giving up
        assert_eq!(dlq.depth(), 10);
        // live traffic not impeded: group fully caught up
        assert_eq!(group.lag(), 0);
        // parked messages carry attempt count and classified reason
        let parked = dlq.peek(1);
        assert_eq!(parked[0].headers.get(headers::ATTEMPTS), Some("2"));
        assert_eq!(
            parked[0].headers.get(headers::DLQ_REASON),
            Some(ParkReason::RetriesExhausted.as_str())
        );
    }

    #[test]
    fn non_retryable_errors_park_immediately_with_reason() {
        let t = topic_with(1, 5);
        let group = ConsumerGroup::new("g", TopicSubscription::new(t));
        let dlq = Arc::new(DeadLetterQueue::new("trips").unwrap());
        let service = Arc::new(|r: &Record| {
            if r.value.get_int("i").unwrap() == 2 {
                Err(Error::Schema("field mismatch".into()))
            } else {
                Ok(())
            }
        });
        let p = ConsumerProxy::new(
            ProxyConfig {
                mode: DispatchMode::Poll,
                max_attempts: 3,
                poll_batch: 32,
                ..Default::default()
            },
            service,
            dlq.clone(),
        );
        let stats = p.run_until_caught_up(&group).unwrap();
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.dead_lettered, 1);
        // a schema error never consumes the retry budget
        assert_eq!(stats.retried, 0);
        let parked = dlq.peek(1);
        assert_eq!(parked[0].headers.get(headers::ATTEMPTS), Some("1"));
        assert_eq!(
            parked[0].headers.get(headers::DLQ_REASON),
            Some(ParkReason::Schema.as_str())
        );
        assert_eq!(
            parked[0].headers.get(headers::DLQ_DETAIL),
            Some("schema error: field mismatch")
        );
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let t = topic_with(1, 10);
        let group = ConsumerGroup::new("g", TopicSubscription::new(t));
        let attempts = Arc::new(Mutex::new(BTreeMap::<i64, usize>::new()));
        let a = attempts.clone();
        // fail the first attempt of every record, succeed the second
        let service = Arc::new(move |r: &Record| {
            let i = r.value.get_int("i").unwrap();
            let mut map = a.lock();
            let n = map.entry(i).or_insert(0);
            *n += 1;
            if *n == 1 {
                Err(Error::Timeout("slow".into()))
            } else {
                Ok(())
            }
        });
        let stats = proxy(DispatchMode::Push(2), service)
            .run_until_caught_up(&group)
            .unwrap();
        assert_eq!(stats.delivered, 10);
        assert_eq!(stats.retried, 10);
        assert_eq!(stats.dead_lettered, 0);
    }

    #[test]
    fn admission_sheds_to_dlq_with_exact_accounting() {
        use rtdi_common::{AdmissionConfig, AdmissionController, Quota, SimClock};
        let t = Arc::new(Topic::new("trips", TopicConfig::default().with_partitions(2)).unwrap());
        // two tenants: rider-app floods, driver-app stays modest
        for i in 0..60i64 {
            let svc = if i % 3 == 0 {
                "driver-app"
            } else {
                "rider-app"
            };
            let mut r = Record::new(Row::new().with("i", i), i).with_key(format!("k{i}"));
            r.audit_mut().service = Some(svc.into());
            t.append(r, 0).unwrap();
        }
        let group = ConsumerGroup::new("g", TopicSubscription::new(t));
        let dlq = Arc::new(DeadLetterQueue::new("trips").unwrap());
        let clock = Arc::new(SimClock::new(0));
        let admission = Arc::new(AdmissionController::new(
            clock,
            AdmissionConfig {
                default_tenant_quota: Some(Quota::per_sec(10).with_burst(25)),
                ..Default::default()
            },
        ));
        let p = ConsumerProxy::new(
            ProxyConfig {
                // serial dispatch so the quota's admit order is exact
                mode: DispatchMode::Poll,
                max_attempts: 2,
                poll_batch: 64,
                admission: Some(admission.clone()),
                max_in_flight: 8,
            },
            Arc::new(|_: &Record| Ok(())),
            dlq.clone(),
        );
        let stats = p.run_until_caught_up(&group).unwrap();
        // exact accounting: every offered record delivered, failed or shed
        assert_eq!(stats.delivered + stats.dead_lettered + stats.shed, 60);
        assert_eq!(stats.dead_lettered, 0);
        assert!(stats.shed > 0, "flood must overrun the 25-token burst");
        assert_eq!(dlq.depth() as u64, stats.shed);
        // shed records parked as overload, not dropped
        let parked = dlq.peek(1);
        assert_eq!(
            parked[0].headers.get(headers::DLQ_REASON),
            Some(ParkReason::Overload.as_str())
        );
        let s = admission.stats();
        assert_eq!(s.offered, 60);
        assert_eq!(s.admitted, stats.delivered);
        assert_eq!(s.shed_total(), stats.shed);
        // per-tenant ledger balances too
        let summary = admission.summary();
        assert!(summary.contains("tenant driver-app offered=20"));
        assert!(summary.contains("tenant rider-app offered=40"));
    }

    #[test]
    fn bounded_in_flight_still_delivers_everything() {
        let t = topic_with(4, 300);
        let group = ConsumerGroup::new("g", TopicSubscription::new(t));
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let service = Arc::new(move |_: &Record| {
            c.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        let p = ConsumerProxy::new(
            ProxyConfig {
                mode: DispatchMode::Push(8),
                max_attempts: 3,
                poll_batch: 64,
                admission: None,
                // buffer far smaller than the batch: the feeder must block
                // on worker drain instead of queueing unboundedly
                max_in_flight: 4,
            },
            service,
            Arc::new(DeadLetterQueue::new("trips").unwrap()),
        );
        let stats = p.run_until_caught_up(&group).unwrap();
        assert_eq!(stats.delivered, 300);
        assert_eq!(count.load(Ordering::Relaxed), 300);
        assert_eq!(group.lag(), 0);
    }

    #[test]
    fn offset_tracker_commits_contiguous_prefix_only() {
        let tr = OffsetTracker::new();
        tr.start_partition(0, 100);
        assert_eq!(tr.committable(0), Some(100));
        assert_eq!(tr.complete(0, 102), 100); // gap at 100
        assert_eq!(tr.complete(0, 100), 101); // still gap at 101
        assert_eq!(tr.complete(0, 101), 103); // prefix closes through 102
        assert_eq!(tr.committable(0), Some(103));
        assert_eq!(tr.committable(9), None);
    }

    #[test]
    fn push_outperforms_poll_for_slow_consumers() {
        // 2 partitions, 1ms-per-message service: poll is bounded by 2-way
        // parallelism (here: fully serial since one member), push uses 16
        // workers. Wall-clock sanity check of the §4.1.3 claim; the full
        // measurement lives in bench E3.
        let service = Arc::new(|_: &Record| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            Ok(())
        });
        let run = |mode| {
            let t = topic_with(2, 120);
            let group = ConsumerGroup::new("g", TopicSubscription::new(t));
            let start = std::time::Instant::now();
            proxy(mode, service.clone())
                .run_until_caught_up(&group)
                .unwrap();
            start.elapsed()
        };
        let poll = run(DispatchMode::Poll);
        let push = run(DispatchMode::Push(16));
        assert!(
            push < poll / 2,
            "push {push:?} should beat poll {poll:?} by >2x"
        );
    }
}
