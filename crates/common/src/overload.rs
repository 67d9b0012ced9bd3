//! Pipeline-wide overload protection: deadlines, rate limits, admission.
//!
//! The paper's platform survives sustained saturation because every tier
//! refuses or sheds work it cannot finish instead of queueing it until
//! freshness collapses: Kafka enforces per-client quotas at ingress
//! (§4.1), Flink propagates backpressure through bounded credit
//! channels (§4.4), and Pinot brokers degrade queries rather than die
//! (§4.3). This module is the shared policy layer those enforcement
//! points plug into:
//!
//! - [`Deadline`] — an absolute expiry on the injectable [`Clock`],
//!   carried through `Pushdown`/`Query` so every tier can stop working
//!   on a request the caller has already given up on, and split into
//!   child budgets at federation boundaries;
//! - [`RateLimiter`] — a deterministic token bucket (milli-token integer
//!   arithmetic, refilled from the clock, never from wall time) used for
//!   per-topic producer quotas and per-tenant proxy quotas;
//! - [`AdmissionController`] — concurrency permits, queue-depth
//!   watermarks with hysteresis, priority lanes (backfill sheds first)
//!   and per-tenant token buckets, with exact shed accounting so soak
//!   tests can assert `offered == admitted + shed` byte-for-byte.
//!
//! Everything is deterministic under a [`SimClock`](crate::SimClock):
//! two identical drive sequences produce byte-identical
//! [`AdmissionController::summary`] strings — the CI overload gate
//! diffs them across processes.

use crate::error::{Error, Result};
use crate::time::{Clock, Timestamp};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Deadline
// ---------------------------------------------------------------------------

/// An absolute expiry instant on an injectable clock.
///
/// Cloning shares the clock; equality and `Debug` look only at the
/// expiry instant so a `Deadline` inside a derived-`PartialEq` query
/// shape compares by budget, not by clock identity.
#[derive(Clone)]
pub struct Deadline {
    clock: Arc<dyn Clock>,
    expires_at: Timestamp,
}

impl fmt::Debug for Deadline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deadline")
            .field("expires_at", &self.expires_at)
            .finish()
    }
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.expires_at == other.expires_at
    }
}

impl Deadline {
    /// A deadline expiring at absolute clock time `expires_at` (ms).
    pub fn at(clock: Arc<dyn Clock>, expires_at: Timestamp) -> Self {
        Deadline { clock, expires_at }
    }

    /// A deadline `budget_ms` from now on `clock`.
    pub fn within_ms(clock: Arc<dyn Clock>, budget_ms: i64) -> Self {
        let expires_at = clock.now().saturating_add(budget_ms.max(0));
        Deadline { clock, expires_at }
    }

    /// Milliseconds of budget left, clamped at zero.
    pub fn remaining_ms(&self) -> i64 {
        (self.expires_at - self.clock.now()).max(0)
    }

    pub fn expired(&self) -> bool {
        self.clock.now() >= self.expires_at
    }

    /// `Err(DeadlineExceeded)` if the budget is spent; `what` names the
    /// work being abandoned.
    pub fn check(&self, what: &str) -> Result<()> {
        if self.expired() {
            Err(Error::DeadlineExceeded(format!(
                "{what}: deadline {} passed at {}",
                self.expires_at,
                self.clock.now()
            )))
        } else {
            Ok(())
        }
    }

    /// A child deadline holding `num/den` of the remaining budget,
    /// never extending past the parent. This is the federation split
    /// rule: the offline side of a hybrid scan gets half the remaining
    /// budget, the realtime side keeps the full parent deadline, so a
    /// slow archive scan can never starve the fresh data the caller
    /// actually came for.
    pub fn with_budget_fraction(&self, num: i64, den: i64) -> Deadline {
        let den = den.max(1);
        let child = self
            .clock
            .now()
            .saturating_add(self.remaining_ms() * num.max(0) / den);
        Deadline {
            clock: self.clock.clone(),
            expires_at: child.min(self.expires_at),
        }
    }
}

/// Scheduling lane for a piece of work. Interactive traffic (dashboards,
/// operators staring at a surge map) is protected; backfill lanes are
/// the first to shed when watermarks trip (§4.3 query isolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    #[default]
    Interactive,
    Backfill,
}

// ---------------------------------------------------------------------------
// RateLimiter
// ---------------------------------------------------------------------------

/// Steady-state rate plus burst headroom for one quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quota {
    /// Sustained tokens per second.
    pub rate_per_sec: u64,
    /// Bucket capacity (burst size), in tokens.
    pub burst: u64,
}

impl Quota {
    pub fn per_sec(rate: u64) -> Self {
        Quota {
            rate_per_sec: rate,
            burst: rate.max(1),
        }
    }

    pub fn with_burst(mut self, burst: u64) -> Self {
        self.burst = burst.max(1);
        self
    }
}

struct BucketState {
    /// Milli-tokens, so a 1-ms refill of any integer rate is exact.
    tokens_milli: u64,
    last_refill: Timestamp,
}

/// Deterministic token bucket on the injectable clock.
///
/// Refill arithmetic is integer milli-tokens
/// (`elapsed_ms * rate_per_sec` milli-tokens per elapsed millisecond),
/// so identical clock sequences always yield identical admit/deny
/// decisions — no floats, no wall time.
pub struct RateLimiter {
    clock: Arc<dyn Clock>,
    quota: Quota,
    state: Mutex<BucketState>,
}

impl RateLimiter {
    pub fn new(clock: Arc<dyn Clock>, quota: Quota) -> Self {
        let now = clock.now();
        RateLimiter {
            clock,
            quota,
            state: Mutex::new(BucketState {
                tokens_milli: quota.burst.saturating_mul(1000),
                last_refill: now,
            }),
        }
    }

    fn refill(&self, state: &mut BucketState, now: Timestamp) {
        if now <= state.last_refill {
            return;
        }
        let elapsed_ms = (now - state.last_refill) as u64;
        state.tokens_milli = state
            .tokens_milli
            .saturating_add(elapsed_ms.saturating_mul(self.quota.rate_per_sec))
            .min(self.quota.burst.saturating_mul(1000));
        state.last_refill = now;
    }

    /// Take `n` tokens if available; false (and no tokens taken) if not.
    pub fn try_acquire(&self, n: u64) -> bool {
        let now = self.clock.now();
        let mut state = self.state.lock();
        self.refill(&mut state, now);
        let need = n.saturating_mul(1000);
        if state.tokens_milli >= need {
            state.tokens_milli -= need;
            true
        } else {
            false
        }
    }

    /// Like [`RateLimiter::try_acquire`] but surfaces the shed as a
    /// retryable [`Error::Overloaded`]; `what` names the quota.
    pub fn acquire(&self, n: u64, what: &str) -> Result<()> {
        if self.try_acquire(n) {
            Ok(())
        } else {
            Err(Error::Overloaded(format!(
                "{what}: quota {}/s (burst {}) exhausted",
                self.quota.rate_per_sec, self.quota.burst
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

/// Admission policy: permits, watermarks, lanes, tenant quotas.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Concurrent in-flight permits; 0 disables the concurrency gate.
    pub max_in_flight: usize,
    /// Queue depth at which *all* new work sheds.
    pub queue_high_watermark: u64,
    /// Queue depth at which backfill-lane work starts shedding; also the
    /// hysteresis floor — once the high watermark trips, everything
    /// sheds until depth falls back below this.
    pub queue_low_watermark: u64,
    /// Per-tenant token-bucket quota applied to tenants without an
    /// explicit override; `None` disables tenant quotas.
    pub default_tenant_quota: Option<Quota>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 64,
            queue_high_watermark: 1024,
            queue_low_watermark: 512,
            default_tenant_quota: None,
        }
    }
}

/// Why a unit of work was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket is empty.
    TenantQuota,
    /// All concurrency permits are in flight.
    Concurrency,
    /// Queue depth tripped a watermark for this lane.
    QueueDepth,
}

#[derive(Default)]
struct TenantCounters {
    offered: u64,
    admitted: u64,
    shed: u64,
}

struct AdmissionInner {
    tenants: BTreeMap<String, (RateLimiter, TenantCounters)>,
    /// Hysteresis latch: tripped at the high watermark, released below
    /// the low one.
    shedding_all: bool,
}

/// Exact admit/shed totals, for summaries and invariant checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    pub offered: u64,
    pub admitted: u64,
    pub shed_quota: u64,
    pub shed_concurrency: u64,
    pub shed_queue: u64,
}

impl AdmissionStats {
    pub fn shed_total(&self) -> u64 {
        self.shed_quota + self.shed_concurrency + self.shed_queue
    }
}

/// The admission gate in front of a work queue: every enforcement point
/// (producer edge, consumer proxy, OLAP broker) asks it before taking
/// work, and every refusal is counted so `offered == admitted + shed`
/// holds exactly.
pub struct AdmissionController {
    clock: Arc<dyn Clock>,
    config: AdmissionConfig,
    in_flight: AtomicU64,
    queue_depth: AtomicU64,
    offered: AtomicU64,
    admitted: AtomicU64,
    shed_quota: AtomicU64,
    shed_concurrency: AtomicU64,
    shed_queue: AtomicU64,
    inner: Mutex<AdmissionInner>,
}

impl fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdmissionController")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl AdmissionController {
    pub fn new(clock: Arc<dyn Clock>, config: AdmissionConfig) -> Self {
        AdmissionController {
            clock,
            config,
            in_flight: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            shed_concurrency: AtomicU64::new(0),
            shed_queue: AtomicU64::new(0),
            inner: Mutex::new(AdmissionInner {
                tenants: BTreeMap::new(),
                shedding_all: false,
            }),
        }
    }

    /// Report the current downstream queue depth (records buffered,
    /// scatter tasks pending...). Drives the watermark gate.
    pub fn set_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Admit one unit of work for `tenant` on `lane`, or say why not.
    /// On `Ok`, the returned [`Permit`] holds one concurrency slot until
    /// dropped. Shed order: tenant quota, then concurrency permits,
    /// then queue watermarks (backfill sheds at the low watermark,
    /// everything at the high one, with hysteresis in between).
    pub fn admit(&self, tenant: &str, lane: Priority) -> Result<Permit<'_>> {
        self.offered.fetch_add(1, Ordering::Relaxed);
        match self.decide(tenant, lane) {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                self.in_flight.fetch_add(1, Ordering::Relaxed);
                self.with_tenant(&mut self.inner.lock(), tenant, |t| t.1.admitted += 1);
                Ok(Permit { controller: self })
            }
            Err((reason, err)) => {
                self.with_tenant(&mut self.inner.lock(), tenant, |t| t.1.shed += 1);
                match reason {
                    ShedReason::TenantQuota => &self.shed_quota,
                    ShedReason::Concurrency => &self.shed_concurrency,
                    ShedReason::QueueDepth => &self.shed_queue,
                }
                .fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
        }
    }

    fn decide(&self, tenant: &str, lane: Priority) -> std::result::Result<(), (ShedReason, Error)> {
        {
            let mut inner = self.inner.lock();
            let has_quota = self.config.default_tenant_quota.is_some();
            let within_quota = self.with_tenant(&mut inner, tenant, |t| {
                t.1.offered += 1;
                !has_quota || t.0.try_acquire(1)
            });
            if !within_quota {
                return Err((
                    ShedReason::TenantQuota,
                    Error::Overloaded(format!("tenant {tenant} over quota")),
                ));
            }
        }
        if self.config.max_in_flight > 0
            && self.in_flight.load(Ordering::Relaxed) >= self.config.max_in_flight as u64
        {
            return Err((
                ShedReason::Concurrency,
                Error::Overloaded(format!(
                    "all {} permits in flight",
                    self.config.max_in_flight
                )),
            ));
        }
        let depth = self.queue_depth.load(Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if depth >= self.config.queue_high_watermark {
            inner.shedding_all = true;
        } else if depth < self.config.queue_low_watermark {
            inner.shedding_all = false;
        }
        if inner.shedding_all {
            return Err((
                ShedReason::QueueDepth,
                Error::Overloaded(format!(
                    "queue depth {depth} over high watermark {}",
                    self.config.queue_high_watermark
                )),
            ));
        }
        if lane == Priority::Backfill && depth >= self.config.queue_low_watermark {
            return Err((
                ShedReason::QueueDepth,
                Error::Overloaded(format!(
                    "backfill lane shed: queue depth {depth} over low watermark {}",
                    self.config.queue_low_watermark
                )),
            ));
        }
        Ok(())
    }

    /// Run `f` on the tenant's limiter and counters, creating them on the
    /// tenant's first request.
    fn with_tenant<R>(
        &self,
        inner: &mut AdmissionInner,
        tenant: &str,
        f: impl FnOnce(&mut (RateLimiter, TenantCounters)) -> R,
    ) -> R {
        if let Some(entry) = inner.tenants.get_mut(tenant) {
            return f(entry);
        }
        let quota = self
            .config
            .default_tenant_quota
            // quota-less controllers still track per-tenant counters
            .unwrap_or(Quota {
                rate_per_sec: u64::MAX / 2000,
                burst: u64::MAX / 2000,
            });
        let limiter = RateLimiter::new(self.clock.clone(), quota);
        let mut entry = (limiter, TenantCounters::default());
        let out = f(&mut entry);
        inner.tenants.insert(tenant.to_string(), entry);
        out
    }

    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            offered: self.offered.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_quota: self.shed_quota.load(Ordering::Relaxed),
            shed_concurrency: self.shed_concurrency.load(Ordering::Relaxed),
            shed_queue: self.shed_queue.load(Ordering::Relaxed),
        }
    }

    /// Byte-stable accounting summary: totals then per-tenant lines in
    /// tenant order. Two identical drive sequences under the same seed
    /// produce identical summaries — the CI overload gate diffs this.
    pub fn summary(&self) -> String {
        let s = self.stats();
        let mut out = format!(
            "offered={} admitted={} shed_quota={} shed_concurrency={} shed_queue={}\n",
            s.offered, s.admitted, s.shed_quota, s.shed_concurrency, s.shed_queue
        );
        let inner = self.inner.lock();
        for (tenant, (_, c)) in &inner.tenants {
            out.push_str(&format!(
                "tenant {tenant} offered={} admitted={} shed={}\n",
                c.offered, c.admitted, c.shed
            ));
        }
        out
    }
}

/// One admitted unit of work; releases its concurrency slot on drop.
pub struct Permit<'a> {
    controller: &'a AdmissionController,
}

impl fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Permit").finish_non_exhaustive()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.controller.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimClock;

    impl RateLimiter {
        /// Whole tokens currently available (after refill to now).
        fn available(&self) -> u64 {
            let now = self.clock.now();
            let mut state = self.state.lock();
            self.refill(&mut state, now);
            state.tokens_milli / 1000
        }
    }

    fn clock() -> Arc<SimClock> {
        Arc::new(SimClock::new(1_000))
    }

    #[test]
    fn deadline_expires_on_the_sim_clock() {
        let c = clock();
        let d = Deadline::within_ms(c.clone(), 500);
        assert_eq!(d.expires_at, 1_500);
        assert_eq!(d.remaining_ms(), 500);
        assert!(!d.expired());
        assert!(d.check("scan").is_ok());
        c.advance(499);
        assert!(!d.expired());
        c.advance(1);
        assert!(d.expired());
        assert_eq!(d.remaining_ms(), 0);
        let err = d.check("scan").unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)));
        assert!(!err.is_retryable());
    }

    #[test]
    fn deadline_split_never_extends_past_parent() {
        let c = clock();
        let d = Deadline::within_ms(c.clone(), 1_000);
        let half = d.with_budget_fraction(1, 2);
        assert_eq!(half.expires_at, 1_500);
        c.advance(800);
        // 200ms left; half of it is 100ms
        assert_eq!(d.with_budget_fraction(1, 2).expires_at, 1_900);
        // an over-unity fraction still caps at the parent
        assert_eq!(d.with_budget_fraction(5, 2).expires_at, 2_000);
        // deadlines compare by expiry, not clock identity
        assert_eq!(d, Deadline::at(clock(), 2_000));
    }

    #[test]
    fn token_bucket_refills_deterministically() {
        let c = clock();
        let rl = RateLimiter::new(c.clone(), Quota::per_sec(1_000).with_burst(10));
        assert_eq!(rl.available(), 10);
        assert!(rl.try_acquire(10));
        assert!(!rl.try_acquire(1), "bucket empty");
        assert!(matches!(
            rl.acquire(1, "topic trips"),
            Err(Error::Overloaded(_))
        ));
        c.advance(5); // 1000/s => 1 token/ms
        assert_eq!(rl.available(), 5);
        assert!(rl.try_acquire(5));
        c.advance(60_000);
        assert_eq!(rl.available(), 10, "refill caps at burst");
    }

    #[test]
    fn token_bucket_is_exact_at_sub_token_rates() {
        let c = clock();
        let rl = RateLimiter::new(c.clone(), Quota::per_sec(1).with_burst(1));
        assert!(rl.try_acquire(1));
        c.advance(999);
        assert!(!rl.try_acquire(1), "999ms at 1/s is 0.999 tokens");
        c.advance(1);
        assert!(rl.try_acquire(1), "exactly 1s refills exactly 1 token");
    }

    #[test]
    fn admission_sheds_on_tenant_quota_and_accounts_exactly() {
        let c = clock();
        let ac = AdmissionController::new(
            c.clone(),
            AdmissionConfig {
                default_tenant_quota: Some(Quota::per_sec(10).with_burst(2)),
                ..Default::default()
            },
        );
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for _ in 0..5 {
            match ac.admit("rider-app", Priority::Interactive) {
                Ok(_p) => {
                    admitted += 1;
                }
                Err(e) => {
                    assert!(matches!(e, Error::Overloaded(_)));
                    shed += 1;
                }
            }
        }
        assert_eq!((admitted, shed), (2, 3), "burst of 2 then quota sheds");
        // another tenant has a bucket of its own
        let vip: Vec<bool> = (0..3)
            .map(|_| ac.admit("vip", Priority::Interactive).is_ok())
            .collect();
        assert_eq!(vip, [true, true, false]);
        let s = ac.stats();
        assert_eq!(s.offered, 8);
        assert_eq!(s.offered, s.admitted + s.shed_total());
        assert_eq!(s.shed_quota, 4);
        let summary = ac.summary();
        assert!(summary.contains("tenant rider-app offered=5 admitted=2 shed=3"));
        assert!(summary.contains("tenant vip offered=3 admitted=2 shed=1"));
        // tenant lines come out in tenant order — byte-stable
        let rider = summary.find("tenant rider-app").unwrap();
        let vip = summary.find("tenant vip").unwrap();
        assert!(rider < vip);
    }

    #[test]
    fn concurrency_permits_bound_in_flight_and_release_on_drop() {
        let c = clock();
        let ac = AdmissionController::new(
            c,
            AdmissionConfig {
                max_in_flight: 2,
                default_tenant_quota: None,
                ..Default::default()
            },
        );
        let p1 = ac.admit("svc", Priority::Interactive).unwrap();
        let p2 = ac.admit("svc", Priority::Interactive).unwrap();
        assert_eq!(ac.in_flight.load(Ordering::Relaxed), 2);
        let err = ac.admit("svc", Priority::Interactive).unwrap_err();
        assert!(matches!(err, Error::Overloaded(_)));
        drop(p1);
        assert_eq!(ac.in_flight.load(Ordering::Relaxed), 1);
        assert!(ac.admit("svc", Priority::Interactive).is_ok());
        drop(p2);
        assert_eq!(ac.stats().shed_concurrency, 1);
    }

    #[test]
    fn watermarks_shed_backfill_first_with_hysteresis() {
        let c = clock();
        let ac = AdmissionController::new(
            c,
            AdmissionConfig {
                max_in_flight: 0,
                queue_high_watermark: 100,
                queue_low_watermark: 50,
                default_tenant_quota: None,
            },
        );
        // below low watermark: both lanes admitted
        ac.set_queue_depth(10);
        assert!(ac.admit("t", Priority::Backfill).is_ok());
        assert!(ac.admit("t", Priority::Interactive).is_ok());
        // between watermarks: backfill sheds, interactive survives
        ac.set_queue_depth(60);
        assert!(ac.admit("t", Priority::Backfill).is_err());
        assert!(ac.admit("t", Priority::Interactive).is_ok());
        // above high: everything sheds
        ac.set_queue_depth(150);
        assert!(ac.admit("t", Priority::Interactive).is_err());
        // hysteresis: dipping between the watermarks keeps shedding...
        ac.set_queue_depth(60);
        assert!(ac.admit("t", Priority::Interactive).is_err());
        // ...until depth falls below the low watermark
        ac.set_queue_depth(49);
        assert!(ac.admit("t", Priority::Interactive).is_ok());
        let s = ac.stats();
        assert_eq!(s.offered, s.admitted + s.shed_total());
        assert_eq!(s.shed_queue, 3);
    }
}
