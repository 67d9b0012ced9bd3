//! Deterministic chaos injection and unified retry policies.
//!
//! The paper's reliability story is spread across every layer: consumer
//! proxy retries with DLQ hand-off (§4.1.2), Flink checkpoint recovery
//! (§4.4), Pinot peer-to-peer segment recovery (§4.3.4) and cross-region
//! failover (§6). This module gives the whole stack one coherent fault
//! model instead of per-crate one-off injectors:
//!
//! - a [`Chaos`] handle on which named [`FaultPoint`]s can be armed with
//!   a [`FaultPlan`] (error kind, probability or every-Nth trigger,
//!   latency injection, burst windows). Whoever builds a component owns
//!   the handle and hands clones down (a platform to its federation, a
//!   cluster to its topics, a job to its stage threads), so a fault armed
//!   on one handle reaches exactly what was built with it and nothing
//!   else in the process;
//! - [`Chaos::check`] calls threaded through the stream, compute, olap,
//!   storage and multiregion crates;
//! - a shared [`RetryPolicy`]: exponential backoff with deterministic
//!   jitter, an attempt budget, and retry classification via
//!   [`Error::is_retryable`].
//!
//! Everything is deterministic: fault decisions come from a seeded
//! SplitMix64 stream per fault point (never the wall clock), so the same
//! seed always yields a byte-identical fault schedule
//! ([`Chaos::schedule_summary`], one per handle). The disarmed fast path
//! is a single relaxed atomic load of the handle's own mask per check —
//! cheap enough to leave compiled into the hot paths (benchmarked by
//! E01/E10 against the pre-chaos baselines).

use crate::error::{Error, Result};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Named places in the stack where faults can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Broker-edge append (producer / DLQ merge -> stream).
    StreamAppend,
    /// Broker-edge fetch (consumers, ingesters).
    StreamFetch,
    /// Leader-to-follower replication of one record (ISR maintenance).
    StreamReplicate,
    /// Consumer-proxy dispatch to the downstream service.
    ProxyDispatch,
    /// Staged-runtime channel hop between operators.
    ComputeChannel,
    /// Operator-chain record processing (replaces the old hard-coded
    /// "injected crash" operator).
    ComputeProcess,
    /// OLAP server serving a segment to the broker or to a recovering
    /// peer.
    OlapSegmentServe,
    /// Object-store writes (checkpoints, archival, segment backup).
    StorageObjectPut,
    /// Object-store reads (recovery, backfill).
    StorageObjectGet,
    /// One replication route run of uReplicator.
    MultiregionReplicate,
}

impl FaultPoint {
    pub const ALL: [FaultPoint; 10] = [
        FaultPoint::StreamAppend,
        FaultPoint::StreamFetch,
        FaultPoint::StreamReplicate,
        FaultPoint::ProxyDispatch,
        FaultPoint::ComputeChannel,
        FaultPoint::ComputeProcess,
        FaultPoint::OlapSegmentServe,
        FaultPoint::StorageObjectPut,
        FaultPoint::StorageObjectGet,
        FaultPoint::MultiregionReplicate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::StreamAppend => "stream.append",
            FaultPoint::StreamFetch => "stream.fetch",
            FaultPoint::StreamReplicate => "stream.replicate",
            FaultPoint::ProxyDispatch => "proxy.dispatch",
            FaultPoint::ComputeChannel => "compute.channel",
            FaultPoint::ComputeProcess => "compute.process",
            FaultPoint::OlapSegmentServe => "olap.segment_serve",
            FaultPoint::StorageObjectPut => "storage.object_put",
            FaultPoint::StorageObjectGet => "storage.object_get",
            FaultPoint::MultiregionReplicate => "multiregion.replicate",
        }
    }

    fn index(self) -> usize {
        // fieldless, declared in the order of `ALL`
        self as usize
    }

    fn bit(self) -> u64 {
        1u64 << self.index()
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What kind of [`Error`] an armed fault produces when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    Unavailable,
    Timeout,
    ProcessingFailed,
    Io,
    Corruption,
}

impl FaultKind {
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Unavailable => "unavailable",
            FaultKind::Timeout => "timeout",
            FaultKind::ProcessingFailed => "processing_failed",
            FaultKind::Io => "io",
            FaultKind::Corruption => "corruption",
        }
    }

    fn to_error(self, point: FaultPoint, fire: u64) -> Error {
        let msg = format!("chaos: {} fault #{fire}", point.name());
        match self {
            FaultKind::Unavailable => Error::Unavailable(msg),
            FaultKind::Timeout => Error::Timeout(msg),
            FaultKind::ProcessingFailed => Error::ProcessingFailed(msg),
            FaultKind::Io => Error::Io(msg),
            FaultKind::Corruption => Error::Corruption(msg),
        }
    }
}

/// When an armed fault point fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every eligible check fires.
    Always,
    /// Every Nth eligible check fires (1 = every check).
    EveryNth(u64),
    /// Each eligible check fires with this probability, drawn from the
    /// point's seeded SplitMix64 stream.
    Probability(f64),
}

/// A plan describing how one fault point misbehaves.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Error produced on fire; `None` makes the plan latency-only.
    pub kind: Option<FaultKind>,
    pub trigger: Trigger,
    /// Injected latency (microseconds of real sleep) on every fire.
    pub latency_us: u64,
    /// Burst window: checks before `skip_first` never fire; with
    /// `burst_len = Some(n)`, only the `n` checks after `skip_first` are
    /// eligible (hit counts, not wall time — deterministic).
    pub skip_first: u64,
    pub burst_len: Option<u64>,
    /// Stop firing after this many fires (None = unlimited).
    pub max_fires: Option<u64>,
}

impl FaultPlan {
    pub fn fail(kind: FaultKind, trigger: Trigger) -> Self {
        FaultPlan {
            kind: Some(kind),
            trigger,
            latency_us: 0,
            skip_first: 0,
            burst_len: None,
            max_fires: None,
        }
    }

    /// Latency-only plan: every trigger fire sleeps, nothing errors.
    pub fn delay(latency_us: u64, trigger: Trigger) -> Self {
        FaultPlan {
            kind: None,
            trigger,
            latency_us,
            skip_first: 0,
            burst_len: None,
            max_fires: None,
        }
    }

    pub fn with_latency_us(mut self, us: u64) -> Self {
        self.latency_us = us;
        self
    }

    /// Fire only inside the hit-count window `[skip_first, skip_first+len)`.
    pub fn with_burst(mut self, skip_first: u64, len: Option<u64>) -> Self {
        self.skip_first = skip_first;
        self.burst_len = len;
        self
    }

    pub fn with_max_fires(mut self, n: u64) -> Self {
        self.max_fires = Some(n);
        self
    }
}

/// One planned node outage: kill at `kill_at_ms`, heal at `heal_at_ms`
/// (logical clock). Produced by [`Chaos::plan_node_outages`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOutage {
    pub node: String,
    pub kill_at_ms: i64,
    pub heal_at_ms: i64,
}

/// What a planned region outage takes out (§6 failure modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionOutageKind {
    /// Every node in the region — regional and aggregate clusters — goes
    /// silent at once: the full-region disaster.
    RegionKill,
    /// Only the aggregate cluster is lost; regional ingestion keeps
    /// accepting local traffic that replicates out to the survivors.
    AggregateLoss,
    /// Nothing dies, but cross-region replication degrades for the
    /// outage window (uReplicator partition/lag burst).
    ReplicatorLag,
}

impl RegionOutageKind {
    pub fn name(self) -> &'static str {
        match self {
            RegionOutageKind::RegionKill => "region-kill",
            RegionOutageKind::AggregateLoss => "aggregate-loss",
            RegionOutageKind::ReplicatorLag => "replicator-lag",
        }
    }
}

/// One planned region outage: strike at `kill_at_ms`, heal at
/// `heal_at_ms` (logical clock). Produced by
/// [`Chaos::plan_region_outages`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionOutage {
    pub region: String,
    pub kind: RegionOutageKind,
    pub kill_at_ms: i64,
    pub heal_at_ms: i64,
}

/// One fired fault, recorded in hit order for schedule comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    pub point: FaultPoint,
    /// 1-based check number at this point since it was armed.
    pub hit: u64,
    pub kind: Option<FaultKind>,
    pub latency_us: u64,
}

/// Deterministic SplitMix64 PRNG (the PCG-family seeder); no wall-clock
/// anywhere near it.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct PlanState {
    plan: FaultPlan,
    hits: u64,
    fires: u64,
    rng: SplitMix64,
}

struct Inner {
    seed: u64,
    plans: [Option<PlanState>; FaultPoint::ALL.len()],
    events: Vec<FaultEvent>,
    /// Named nodes currently downed by chaos (node-level failure
    /// domains, PR 4) and the kill/heal log in action order.
    nodes_down: BTreeSet<String>,
    node_log: Vec<String>,
}

const MAX_RECORDED_EVENTS: usize = 100_000;

struct Shared {
    /// Bitmask of currently armed fault points, outside the mutex so the
    /// disarmed fast path is exactly one relaxed atomic load.
    armed: AtomicU64,
    inner: Mutex<Inner>,
}

/// A fault-injection handle: the seed, the armed plans with their
/// decision streams, the fired-event log and the downed-node set. Cheap
/// to clone (an `Arc` inside); every clone arms, checks and reports the
/// same state. A component built without one starts with a handle of its
/// own that nobody else holds, so nothing can fail it.
#[derive(Clone)]
pub struct Chaos {
    shared: Arc<Shared>,
}

impl Default for Chaos {
    fn default() -> Self {
        Chaos::seeded(0)
    }
}

impl Chaos {
    /// A disarmed handle whose fault schedule derives from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Chaos {
            shared: Arc::new(Shared {
                armed: AtomicU64::new(0),
                inner: Mutex::new(Inner {
                    seed,
                    plans: Default::default(),
                    events: Vec::new(),
                    nodes_down: BTreeSet::new(),
                    node_log: Vec::new(),
                }),
            }),
        }
    }

    /// Check a fault point. Disarmed cost: one relaxed atomic load.
    #[inline(always)]
    pub fn check(&self, point: FaultPoint) -> Result<()> {
        if self.shared.armed.load(Ordering::Relaxed) & point.bit() == 0 {
            return Ok(());
        }
        self.check_slow(point)
    }

    /// Arm a fault point. The point's decision stream is seeded from the
    /// handle's seed and the point's identity, so concurrent activity at
    /// *other* points cannot perturb this one's schedule.
    pub fn arm(&self, point: FaultPoint, plan: FaultPlan) {
        let mut inner = self.shared.inner.lock();
        let seed = inner.seed;
        let point_seed =
            SplitMix64::new(seed ^ (point.index() as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
                .next_u64();
        inner.plans[point.index()] = Some(PlanState {
            plan,
            hits: 0,
            fires: 0,
            rng: SplitMix64::new(point_seed),
        });
        self.shared.armed.fetch_or(point.bit(), Ordering::SeqCst);
    }

    pub fn disarm(&self, point: FaultPoint) {
        let mut inner = self.shared.inner.lock();
        inner.plans[point.index()] = None;
        self.shared.armed.fetch_and(!point.bit(), Ordering::SeqCst);
    }

    /// (checks seen, faults fired) at a point since it was armed.
    pub fn stats(&self, point: FaultPoint) -> (u64, u64) {
        let inner = self.shared.inner.lock();
        inner.plans[point.index()]
            .as_ref()
            .map(|s| (s.hits, s.fires))
            .unwrap_or((0, 0))
    }

    /// The full fired-fault schedule, one line per event, in hit order.
    /// Two runs under the same seed and workload produce byte-identical
    /// summaries — the CI determinism gate diffs this.
    pub fn schedule_summary(&self) -> String {
        let inner = self.shared.inner.lock();
        let mut out = String::new();
        out.push_str(&format!("seed={}\n", inner.seed));
        for ev in &inner.events {
            out.push_str(&format!(
                "{} hit={} kind={} latency_us={}\n",
                ev.point.name(),
                ev.hit,
                ev.kind.map(|k| k.name()).unwrap_or("delay"),
                ev.latency_us,
            ));
        }
        for p in FaultPoint::ALL {
            if let Some(s) = &inner.plans[p.index()] {
                out.push_str(&format!(
                    "totals {} hits={} fires={}\n",
                    p.name(),
                    s.hits,
                    s.fires
                ));
            }
        }
        for line in &inner.node_log {
            out.push_str(&format!("node {line}\n"));
        }
        out
    }

    /// Down a named node (a Kafka broker node, an OLAP server, a task
    /// manager): node-granular chaos rather than call-granular. Drivers
    /// mirror the handle's down set into their `Membership` so every
    /// failure domain reacts. Returns false if already down.
    pub fn kill_node(&self, node: &str) -> bool {
        let mut inner = self.shared.inner.lock();
        let newly = inner.nodes_down.insert(node.to_string());
        if newly {
            inner.node_log.push(format!("kill {node}"));
        }
        newly
    }

    /// Bring a chaos-killed node back. Returns false if it was not down.
    pub fn heal_node(&self, node: &str) -> bool {
        let mut inner = self.shared.inner.lock();
        let healed = inner.nodes_down.remove(node);
        if healed {
            inner.node_log.push(format!("heal {node}"));
        }
        healed
    }

    pub fn node_is_down(&self, node: &str) -> bool {
        self.shared.inner.lock().nodes_down.contains(node)
    }

    /// Plan a deterministic node-outage schedule from the handle's seed:
    /// `cycles` outages, each picking a victim node and a kill time inside
    /// its cycle window from the seeded stream, healing `outage_ms` later.
    /// Same seed + same arguments => byte-identical schedule; the soak
    /// test and `e24_node_failover` replay these against the logical
    /// clock.
    pub fn plan_node_outages(
        &self,
        nodes: &[&str],
        cycles: usize,
        start_ms: i64,
        period_ms: i64,
        outage_ms: i64,
    ) -> Vec<NodeOutage> {
        let seed = self.shared.inner.lock().seed;
        let mut rng = SplitMix64::new(seed ^ 0x004E_0DE0_C1D5_C4ED_u64);
        let mut out = Vec::with_capacity(cycles);
        for cycle in 0..cycles {
            let node = nodes[(rng.next_u64() % nodes.len() as u64) as usize];
            let jitter = (rng.next_u64() % (period_ms.max(4) as u64 / 4)) as i64;
            let kill_at_ms = start_ms + cycle as i64 * period_ms + jitter;
            out.push(NodeOutage {
                node: node.to_string(),
                kill_at_ms,
                heal_at_ms: kill_at_ms + outage_ms,
            });
        }
        out
    }

    /// Plan a deterministic region-outage schedule from the handle's
    /// seed: `cycles` outages, each picking a victim region, an outage
    /// kind (full-region kill, aggregate-only loss, or a replicator lag
    /// burst) and a kill time inside its cycle window from the seeded
    /// stream, healing `outage_ms` later. Same seed + same arguments =>
    /// byte-identical schedule; the DR drill replays these against the
    /// logical clock.
    pub fn plan_region_outages(
        &self,
        regions: &[&str],
        cycles: usize,
        start_ms: i64,
        period_ms: i64,
        outage_ms: i64,
    ) -> Vec<RegionOutage> {
        let seed = self.shared.inner.lock().seed;
        let mut rng = SplitMix64::new(seed ^ 0x2E61_0D15_A57E_25ED_u64);
        let mut out = Vec::with_capacity(cycles);
        for cycle in 0..cycles {
            let region = regions[(rng.next_u64() % regions.len() as u64) as usize];
            let kind = match rng.next_u64() % 3 {
                0 => RegionOutageKind::RegionKill,
                1 => RegionOutageKind::AggregateLoss,
                _ => RegionOutageKind::ReplicatorLag,
            };
            let jitter = (rng.next_u64() % (period_ms.max(4) as u64 / 4)) as i64;
            let kill_at_ms = start_ms + cycle as i64 * period_ms + jitter;
            out.push(RegionOutage {
                region: region.to_string(),
                kind,
                kill_at_ms,
                heal_at_ms: kill_at_ms + outage_ms,
            });
        }
        out
    }

    /// Slow path: the point is (or just was) armed. Decides, records and
    /// (outside the lock) applies latency.
    fn check_slow(&self, point: FaultPoint) -> Result<()> {
        let (error, latency_us) = {
            let mut inner = self.shared.inner.lock();
            let Some(state) = inner.plans[point.index()].as_mut() else {
                // disarmed between the fast-path load and here
                return Ok(());
            };
            state.hits += 1;
            let hit = state.hits;
            // burst window gate (hit counts, not wall time)
            if hit <= state.plan.skip_first {
                return Ok(());
            }
            if let Some(len) = state.plan.burst_len {
                if hit > state.plan.skip_first + len {
                    return Ok(());
                }
            }
            if let Some(max) = state.plan.max_fires {
                if state.fires >= max {
                    return Ok(());
                }
            }
            let fires = match state.plan.trigger {
                Trigger::Always => true,
                Trigger::EveryNth(n) => {
                    let n = n.max(1);
                    (hit - state.plan.skip_first).is_multiple_of(n)
                }
                Trigger::Probability(p) => state.rng.next_f64() < p,
            };
            if !fires {
                return Ok(());
            }
            state.fires += 1;
            let fire = state.fires;
            let kind = state.plan.kind;
            let latency_us = state.plan.latency_us;
            if inner.events.len() < MAX_RECORDED_EVENTS {
                inner.events.push(FaultEvent {
                    point,
                    hit,
                    kind,
                    latency_us,
                });
            }
            (kind.map(|k| k.to_error(point, fire)), latency_us)
        };
        if latency_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(latency_us));
        }
        match error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Shared retry/backoff policy: exponential backoff with deterministic
/// jitter and a hard attempt budget. Only errors classified retryable by
/// [`Error::is_retryable`] are retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, microseconds.
    pub base_delay_us: u64,
    /// Backoff cap, microseconds.
    pub max_delay_us: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Whether backoff actually sleeps (false in simulated-time tests;
    /// schedules stay identical either way).
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(4)
    }
}

impl RetryPolicy {
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay_us: 50,
            max_delay_us: 5_000,
            jitter_seed: 0x5EED_5EED_5EED_5EED,
            sleep: true,
        }
    }

    /// Four attempts, 50 µs to 2 ms apart: the budget of one hop's
    /// transient fault — a topic reader's fetch, a replicated append, an
    /// archive or segment upload, a DLQ merge's send.
    pub fn transient() -> Self {
        RetryPolicy::new(4).with_backoff_us(50, 2_000)
    }

    pub fn with_backoff_us(mut self, base: u64, max: u64) -> Self {
        self.base_delay_us = base;
        self.max_delay_us = max.max(base);
        self
    }

    /// Deterministic backoff before retry number `retry` (1-based):
    /// exponential, capped, with half-width jitter drawn from SplitMix64
    /// keyed by `(jitter_seed, retry)` — decorrelated but reproducible.
    pub fn backoff_us(&self, retry: u32) -> u64 {
        let exp = self
            .base_delay_us
            .saturating_mul(1u64 << (retry.saturating_sub(1)).min(20))
            .min(self.max_delay_us);
        let half = exp / 2;
        if half == 0 {
            return exp;
        }
        let jitter = SplitMix64::new(self.jitter_seed ^ retry as u64).next_u64() % (half + 1);
        half + jitter
    }

    /// Run `op` under the policy. `op` receives the 1-based attempt
    /// number. Non-retryable errors and budget exhaustion surface the last
    /// error unchanged.
    pub fn run<T>(&self, mut op: impl FnMut(u32) -> Result<T>) -> Result<T> {
        self.run_with_attempts(&mut op).0
    }

    /// Like [`RetryPolicy::run`] but also reports how many attempts were
    /// consumed.
    pub fn run_with_attempts<T>(&self, op: &mut dyn FnMut(u32) -> Result<T>) -> (Result<T>, u32) {
        let mut attempt = 1;
        loop {
            match op(attempt) {
                Ok(v) => return (Ok(v), attempt),
                Err(e) if e.is_retryable() && attempt < self.max_attempts => {
                    if self.sleep {
                        let us = self.backoff_us(attempt);
                        if us > 0 {
                            std::thread::sleep(std::time::Duration::from_micros(us));
                        }
                    }
                    attempt += 1;
                }
                Err(e) => return (Err(e), attempt),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Chaos {
        fn events(&self) -> Vec<FaultEvent> {
            self.shared.inner.lock().events.clone()
        }

        /// Currently downed nodes, in name order.
        fn downed_nodes(&self) -> Vec<String> {
            self.shared
                .inner
                .lock()
                .nodes_down
                .iter()
                .cloned()
                .collect()
        }

        /// The kill/heal action log, in action order.
        fn node_log(&self) -> Vec<String> {
            self.shared.inner.lock().node_log.clone()
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_well_spread() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(43);
        assert_ne!(xs[0], c.next_u64());
        for _ in 0..100 {
            let f = a.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn disarmed_points_never_interfere() {
        let chaos = Chaos::seeded(1);
        for p in FaultPoint::ALL {
            assert!(chaos.check(p).is_ok());
            assert_eq!(chaos.stats(p), (0, 0));
        }
        assert_eq!(chaos.events().len(), 0);
    }

    #[test]
    fn every_nth_fires_deterministically() {
        let chaos = Chaos::seeded(7);
        chaos.arm(
            FaultPoint::StreamAppend,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::EveryNth(3)),
        );
        let outcomes: Vec<bool> = (0..9)
            .map(|_| chaos.check(FaultPoint::StreamAppend).is_err())
            .collect();
        assert_eq!(
            outcomes,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(chaos.stats(FaultPoint::StreamAppend), (9, 3));
    }

    #[test]
    fn probability_schedule_is_seed_stable() {
        let run = |seed: u64| -> String {
            let chaos = Chaos::seeded(seed);
            chaos.arm(
                FaultPoint::StorageObjectPut,
                FaultPlan::fail(FaultKind::Io, Trigger::Probability(0.3)),
            );
            for _ in 0..50 {
                let _ = chaos.check(FaultPoint::StorageObjectPut);
            }
            chaos.schedule_summary()
        };
        assert_eq!(run(99), run(99), "same seed, same schedule");
        assert_ne!(run(99), run(100), "different seed, different schedule");
    }

    /// Two handles with one seed, each checked from its own thread while
    /// the other runs: neither perturbs the other's stream.
    #[test]
    fn same_seed_handles_on_interleaving_threads_agree_byte_for_byte() {
        let handles = [Chaos::seeded(0x5A3E), Chaos::seeded(0x5A3E)];
        for chaos in &handles {
            chaos.arm(
                FaultPoint::StreamFetch,
                FaultPlan::fail(FaultKind::Timeout, Trigger::Probability(0.3)),
            );
        }
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for chaos in &handles {
                s.spawn(|| {
                    for _ in 0..200 {
                        barrier.wait();
                        let _ = chaos.check(FaultPoint::StreamFetch);
                    }
                });
            }
        });
        let summary = handles[0].schedule_summary();
        assert_eq!(summary, handles[1].schedule_summary());
        assert!(summary.contains("totals stream.fetch hits=200"));
        assert!(handles[0].stats(FaultPoint::StreamFetch).1 > 0);
    }

    #[test]
    fn a_clone_is_the_same_handle_and_a_new_one_is_not() {
        let chaos = Chaos::seeded(4);
        let clone = chaos.clone();
        let other = Chaos::seeded(4);
        chaos.arm(
            FaultPoint::ComputeProcess,
            FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Always),
        );
        assert!(matches!(
            clone.check(FaultPoint::ComputeProcess),
            Err(Error::ProcessingFailed(_))
        ));
        assert!(other.check(FaultPoint::ComputeProcess).is_ok());
        assert_eq!(other.stats(FaultPoint::ComputeProcess), (0, 0));
        clone.disarm(FaultPoint::ComputeProcess);
        assert!(chaos.check(FaultPoint::ComputeProcess).is_ok());
    }

    #[test]
    fn burst_window_and_max_fires_gate_firing() {
        let chaos = Chaos::seeded(5);
        chaos.arm(
            FaultPoint::ProxyDispatch,
            FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_burst(3, Some(2)),
        );
        let outcomes: Vec<bool> = (0..8)
            .map(|_| chaos.check(FaultPoint::ProxyDispatch).is_err())
            .collect();
        // hits 1-3 skipped, 4-5 in window, 6+ past it
        assert_eq!(
            outcomes,
            vec![false, false, false, true, true, false, false, false]
        );
        chaos.arm(
            FaultPoint::ProxyDispatch,
            FaultPlan::fail(FaultKind::Timeout, Trigger::Always).with_max_fires(2),
        );
        let fired = (0..10)
            .filter(|_| chaos.check(FaultPoint::ProxyDispatch).is_err())
            .count();
        assert_eq!(fired, 2);
    }

    #[test]
    fn latency_only_plan_returns_ok() {
        let chaos = Chaos::seeded(11);
        chaos.arm(
            FaultPoint::StreamFetch,
            FaultPlan::delay(1, Trigger::Always),
        );
        assert!(chaos.check(FaultPoint::StreamFetch).is_ok());
        let events = chaos.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, None);
    }

    #[test]
    fn error_kinds_map_to_error_variants() {
        let chaos = Chaos::seeded(2);
        let cases = [
            (FaultKind::Unavailable, "unavailable"),
            (FaultKind::Timeout, "timeout"),
            (FaultKind::Corruption, "corruption"),
        ];
        for (kind, _) in cases {
            chaos.arm(
                FaultPoint::MultiregionReplicate,
                FaultPlan::fail(kind, Trigger::Always),
            );
            let err = chaos.check(FaultPoint::MultiregionReplicate).unwrap_err();
            match kind {
                FaultKind::Unavailable => assert!(matches!(err, Error::Unavailable(_))),
                FaultKind::Timeout => assert!(matches!(err, Error::Timeout(_))),
                FaultKind::Corruption => assert!(matches!(err, Error::Corruption(_))),
                _ => {}
            }
            assert!(err.to_string().contains("multiregion.replicate"));
        }
    }

    #[test]
    fn retry_policy_respects_budget_and_classification() {
        let policy = RetryPolicy {
            sleep: false,
            ..RetryPolicy::new(3)
        };
        // transient failure resolved within budget
        let mut calls = 0;
        let out = policy.run(|attempt| {
            calls += 1;
            if attempt < 3 {
                Err(Error::Unavailable("x".into()))
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 3);
        assert_eq!(calls, 3);
        // budget exhausted -> last error surfaces
        let (res, attempts) =
            policy.run_with_attempts(&mut |_| Err::<(), _>(Error::Timeout("t".into())));
        assert!(matches!(res, Err(Error::Timeout(_))));
        assert_eq!(attempts, 3);
        // non-retryable fails immediately
        let (res, attempts) =
            policy.run_with_attempts(&mut |_| Err::<(), _>(Error::Corruption("c".into())));
        assert!(matches!(res, Err(Error::Corruption(_))));
        assert_eq!(attempts, 1);
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy::new(8).with_backoff_us(100, 1_000);
        let seq: Vec<u64> = (1..=6).map(|r| p.backoff_us(r)).collect();
        assert_eq!(seq, (1..=6).map(|r| p.backoff_us(r)).collect::<Vec<_>>());
        // each backoff sits in [exp/2, exp]
        for (i, b) in seq.iter().enumerate() {
            let exp = (100u64 << i).min(1_000);
            assert!(*b >= exp / 2 && *b <= exp, "retry {} backoff {b}", i + 1);
        }
        // capped at max
        assert!(p.backoff_us(20) <= 1_000);
    }

    #[test]
    fn node_kill_heal_tracks_down_set_and_log() {
        let chaos = Chaos::seeded(21);
        assert!(!chaos.node_is_down("broker-0"));
        assert!(chaos.kill_node("broker-0"));
        assert!(!chaos.kill_node("broker-0"), "idempotent kill");
        chaos.kill_node("olap-server-2");
        assert!(chaos.node_is_down("broker-0"));
        assert_eq!(
            chaos.downed_nodes(),
            vec!["broker-0".to_string(), "olap-server-2".to_string()]
        );
        assert!(chaos.heal_node("broker-0"));
        assert!(!chaos.heal_node("broker-0"));
        assert_eq!(
            chaos.node_log(),
            vec!["kill broker-0", "kill olap-server-2", "heal broker-0"]
        );
        // node actions land in the schedule summary (determinism gate)
        let summary = chaos.schedule_summary();
        assert!(summary.contains("node kill broker-0"));
        assert!(summary.contains("node heal broker-0"));
        assert!(
            !Chaos::seeded(21).node_is_down("olap-server-2"),
            "the down set belongs to the handle"
        );
    }

    #[test]
    fn node_outage_plan_is_seed_stable() {
        let plan = |seed: u64| {
            Chaos::seeded(seed).plan_node_outages(&["n0", "n1", "n2"], 6, 1_000, 10_000, 2_500)
        };
        let a = plan(77);
        assert_eq!(a, plan(77), "same seed, same outage schedule");
        assert_ne!(a, plan(78), "different seed, different schedule");
        assert_eq!(a.len(), 6);
        for (i, o) in a.iter().enumerate() {
            assert_eq!(o.heal_at_ms, o.kill_at_ms + 2_500);
            let window = 1_000 + i as i64 * 10_000;
            assert!(o.kill_at_ms >= window && o.kill_at_ms < window + 10_000);
        }
    }

    #[test]
    fn region_outage_plan_is_seed_stable_and_mixes_kinds() {
        let plan = |seed: u64| {
            Chaos::seeded(seed).plan_region_outages(
                &["west", "east", "asia"],
                9,
                5_000,
                30_000,
                12_000,
            )
        };
        let a = plan(0xD12);
        assert_eq!(a, plan(0xD12), "same seed, same region schedule");
        assert_ne!(a, plan(0xD13), "different seed, different schedule");
        assert_eq!(a.len(), 9);
        for (i, o) in a.iter().enumerate() {
            assert_eq!(o.heal_at_ms, o.kill_at_ms + 12_000);
            let window = 5_000 + i as i64 * 30_000;
            assert!(o.kill_at_ms >= window && o.kill_at_ms < window + 30_000);
            assert!(["west", "east", "asia"].contains(&o.region.as_str()));
        }
        // the seeded stream exercises more than one outage kind over a
        // long enough schedule
        let kinds: std::collections::BTreeSet<&str> = a.iter().map(|o| o.kind.name()).collect();
        assert!(kinds.len() >= 2, "kinds drawn: {kinds:?}");
        // the region plan is independent of the node plan (distinct salt)
        let nodes = Chaos::seeded(0xD12).plan_node_outages(
            &["west", "east", "asia"],
            9,
            5_000,
            30_000,
            12_000,
        );
        assert!(
            a.iter()
                .zip(&nodes)
                .any(|(r, n)| r.region != n.node || r.kill_at_ms != n.kill_at_ms),
            "region and node plans must not be correlated"
        );
    }
}
