//! Job lifecycle management (§4.2.1–4.2.2, Figure 5).
//!
//! The job-management layer "manages the Flink job's lifecycle including
//! validation, deployment, monitoring and failure recovery... a shared
//! component in the job management server continuously monitors the health
//! of all jobs and automatically recovers the jobs from the transient
//! failures." It also owns the empirical resource model ("a stateless
//! Flink job ... is CPU bound vs a stream-stream join job will almost
//! always be memory bound") and the rule-based engine that restarts or
//! rescales jobs when metrics drift from the desired state.

use crate::runtime::{run_staged_with, Job, JobRunStats, RescaleHandle, StagedConfig};
use crate::source::SourceThrottle;
use parking_lot::RwLock;
use rtdi_common::{
    Clock, Error, MembershipEvent, MembershipListener, NodeState, PipelineTracer, Result,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// Broad job classification driving the resource model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobType {
    /// No windows, no joins: CPU bound.
    Stateless,
    /// Windowed aggregations: mixed.
    WindowedAggregation,
    /// Stream-stream joins: memory bound.
    StreamJoin,
}

/// A deployable job: a factory (so the manager can re-instantiate after
/// failure) plus scheduling metadata.
pub struct JobSpec {
    pub name: String,
    pub job_type: JobType,
    /// Importance tier (0 = most critical); the dispatcher uses it for
    /// placement priority.
    pub tier: u8,
    /// Expected steady-state input rate, used for resource estimation.
    pub expected_records_per_sec: u64,
    pub factory: Box<dyn Fn() -> Result<Job> + Send + Sync>,
}

/// An elastically scalable job: like [`JobSpec`] but the factory takes
/// the parallelism to build the operator chain at, so the supervisor can
/// re-instantiate the job wider or narrower across rescale restarts.
pub struct ElasticJobSpec {
    pub name: String,
    pub job_type: JobType,
    pub tier: u8,
    pub expected_records_per_sec: u64,
    pub min_parallelism: usize,
    pub max_parallelism: usize,
    pub factory: Box<dyn Fn(usize) -> Job + Send + Sync>,
}

/// Backlog-driven rescale policy: double while the watched pipeline is
/// staler than the scale-up threshold, halve when it is fresher than the
/// scale-down threshold, always clamped to the spec's bounds.
#[derive(Debug, Clone, Copy)]
pub struct RescalePolicy {
    pub scale_up_staleness_ms: i64,
    pub scale_down_staleness_ms: i64,
}

impl Default for RescalePolicy {
    fn default() -> Self {
        RescalePolicy {
            scale_up_staleness_ms: 5_000,
            scale_down_staleness_ms: 250,
        }
    }
}

impl RescalePolicy {
    /// The parallelism the policy wants given the current one and the
    /// watched staleness (pure, so tests drive it directly).
    pub fn desired(&self, current: usize, min: usize, max: usize, staleness_ms: i64) -> usize {
        let min = min.max(1);
        let max = max.max(min);
        let current = current.clamp(min, max);
        if staleness_ms > self.scale_up_staleness_ms {
            (current * 2).clamp(min, max)
        } else if staleness_ms < self.scale_down_staleness_ms {
            (current / 2).clamp(min, max)
        } else {
            current
        }
    }
}

/// One completed rescale: the job stopped at `at_checkpoint` running
/// `from` shards and restarted from that checkpoint with `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RescaleEvent {
    pub from: usize,
    pub to: usize,
    pub at_checkpoint: u64,
}

/// Outcome of an elastically supervised run.
#[derive(Debug, Clone, Default)]
pub struct ElasticRunStats {
    pub final_parallelism: usize,
    /// Failure-recovery restarts (rescale restarts are not failures).
    pub attempts: u32,
    pub rescales: Vec<RescaleEvent>,
    /// The final segment's stats, with `records_out` and
    /// `checkpoints_taken` summed over every rescale segment.
    pub run: JobRunStats,
}

/// Estimated resources for a job (§4.2.1 "Resource estimation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceEstimate {
    pub cpu_cores: u32,
    pub memory_mb: u64,
}

/// Point-in-time health of a running job, fed to the rule engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobHealth {
    /// Input backlog (e.g. Kafka lag).
    pub lag: u64,
    /// Live operator state bytes.
    pub state_bytes: u64,
    /// Processing rate over the last window.
    pub records_per_sec: u64,
    /// Consecutive heartbeat misses.
    pub missed_heartbeats: u32,
    /// Restarts so far.
    pub restarts: u32,
    /// p99 end-to-end freshness of the pipeline this job feeds, in ms
    /// (from the platform's `PipelineTracer`; 0 when untraced).
    pub freshness_p99_ms: u64,
}

/// What the rule engine decides to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    None,
    Restart,
    ScaleUp,
    ScaleDown,
}

/// A monitoring rule: a named condition and the corrective action.
pub struct HealthRule {
    pub name: String,
    pub condition: Box<dyn Fn(&JobHealth) -> bool + Send + Sync>,
    pub action: HealthAction,
}

/// Lifecycle state of a managed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    Validated,
    Running,
    Finished,
    /// Failed after exhausting restarts (with the final error).
    Failed(String),
}

#[derive(Debug, Clone)]
pub struct ManagedJobInfo {
    pub status: JobStatus,
    pub restarts: u32,
    pub last_stats: Option<JobRunStats>,
    pub tier: u8,
    /// Task-manager node this job runs on (when placed).
    pub node: Option<String>,
    /// Set when the node hosting the job died; the deployment loop must
    /// re-run the job (it recovers from its last checkpoint).
    pub pending_restart: bool,
}

/// Saturation watch: the freshness tracer's backlog signal wired to a
/// source throttle, plus the staleness level at which the platform is
/// considered saturated.
struct SaturationWatch {
    tracer: PipelineTracer,
    clock: Arc<dyn Clock>,
    threshold_ms: i64,
    throttle: SourceThrottle,
    /// Per-poll cap applied to throttled sources while saturated.
    throttled_cap: usize,
}

/// The job manager: deploy, supervise, recover, rescale.
pub struct JobManager {
    /// What every supervised job runs under.
    config: StagedConfig,
    max_restarts: u32,
    jobs: RwLock<BTreeMap<String, ManagedJobInfo>>,
    rules: Vec<HealthRule>,
    saturation: RwLock<Option<SaturationWatch>>,
}

impl JobManager {
    pub fn new(config: StagedConfig, max_restarts: u32) -> Self {
        JobManager {
            config,
            max_restarts,
            jobs: RwLock::new(BTreeMap::new()),
            rules: Self::default_rules(),
            saturation: RwLock::new(None),
        }
    }

    /// Wire the freshness tracer's backlog signal into the manager: while
    /// any traced pipeline is more than `threshold_ms` stale, the manager
    /// refuses new deployments and caps every source wrapped with the
    /// returned [`SourceThrottle`] at `throttled_cap` records per poll.
    pub fn watch_saturation(
        &self,
        tracer: PipelineTracer,
        clock: Arc<dyn Clock>,
        threshold_ms: i64,
        throttled_cap: usize,
    ) -> SourceThrottle {
        let throttle = SourceThrottle::new();
        *self.saturation.write() = Some(SaturationWatch {
            tracer,
            clock,
            threshold_ms,
            throttle: throttle.clone(),
            throttled_cap: throttled_cap.max(1),
        });
        throttle
    }

    /// Pipelines currently staler than the saturation threshold, with
    /// their staleness, in name order.
    pub fn saturated_pipelines(&self) -> Vec<(String, i64)> {
        let watch = self.saturation.read();
        let Some(w) = watch.as_ref() else {
            return Vec::new();
        };
        let now = w.clock.now();
        w.tracer
            .pipelines()
            .into_iter()
            .filter_map(|p| {
                let stale = w.tracer.staleness_ms(&p, now)?;
                (stale > w.threshold_ms).then_some((p, stale))
            })
            .collect()
    }

    /// Re-evaluate the backlog signal and apply/release the source
    /// throttle. Returns whether the platform is currently saturated.
    /// Called periodically by the deployment loop (tests call it
    /// directly).
    pub fn tick_saturation(&self) -> bool {
        let saturated = !self.saturated_pipelines().is_empty();
        if let Some(w) = self.saturation.read().as_ref() {
            if saturated {
                w.throttle.set_cap(w.throttled_cap);
            } else {
                w.throttle.clear();
            }
        }
        saturated
    }

    /// The default rule set the paper's description implies: restart stuck
    /// jobs, scale on sustained lag, scale down idle over-provisioned
    /// jobs.
    fn default_rules() -> Vec<HealthRule> {
        vec![
            HealthRule {
                name: "stuck-job-restart".into(),
                condition: Box::new(|h| h.missed_heartbeats >= 3),
                action: HealthAction::Restart,
            },
            HealthRule {
                // the paper's freshness SLA is "seconds, not minutes";
                // a pipeline half a minute stale is treated as wedged
                name: "stale-pipeline-restart".into(),
                condition: Box::new(|h| h.freshness_p99_ms > 30_000),
                action: HealthAction::Restart,
            },
            HealthRule {
                name: "lag-scale-up".into(),
                condition: Box::new(|h| h.lag > 1_000_000),
                action: HealthAction::ScaleUp,
            },
            HealthRule {
                name: "idle-scale-down".into(),
                condition: Box::new(|h| h.lag == 0 && h.records_per_sec < 10),
                action: HealthAction::ScaleDown,
            },
        ]
    }

    /// Evaluate rules in order; first match wins.
    pub fn evaluate_health(&self, health: &JobHealth) -> (HealthAction, Option<&str>) {
        for rule in &self.rules {
            if (rule.condition)(health) {
                return (rule.action, Some(rule.name.as_str()));
            }
        }
        (HealthAction::None, None)
    }

    /// §4.2.1 empirical resource model.
    pub fn estimate_resources(spec: &JobSpec) -> ResourceEstimate {
        let rate = spec.expected_records_per_sec.max(1);
        match spec.job_type {
            // CPU bound: one core per ~50k rec/s, little memory
            JobType::Stateless => ResourceEstimate {
                cpu_cores: rate.div_ceil(50_000).max(1) as u32,
                memory_mb: 512,
            },
            // aggregation: moderate CPU, memory grows with rate (window
            // state is proportional to keys/sec x window length)
            JobType::WindowedAggregation => ResourceEstimate {
                cpu_cores: rate.div_ceil(30_000).max(1) as u32,
                memory_mb: 1024 + rate / 100,
            },
            // memory bound: buffers hold the full join window on both sides
            JobType::StreamJoin => ResourceEstimate {
                cpu_cores: rate.div_ceil(40_000).max(1) as u32,
                memory_mb: 4096 + rate / 20,
            },
        }
    }

    /// Validate a spec before deployment (the "validation" step of the job
    /// management layer).
    pub fn validate(&self, spec: &JobSpec) -> Result<()> {
        if spec.name.is_empty() {
            return Err(Error::InvalidArgument("job name must not be empty".into()));
        }
        if self.jobs.read().contains_key(&spec.name) {
            return Err(Error::AlreadyExists(format!("job '{}'", spec.name)));
        }
        // overload protection: a saturated platform takes no new work —
        // deploying into a backlog only deepens it (retryable, so the
        // deployment loop tries again once the pipelines catch up)
        if let Some((pipeline, stale)) = self.saturated_pipelines().into_iter().next() {
            return Err(Error::Overloaded(format!(
                "deployment of '{}' refused: pipeline '{pipeline}' is {stale}ms stale",
                spec.name
            )));
        }
        // instantiate once to catch construction and config errors early
        let job = (spec.factory)()?;
        if job.operators.is_empty() {
            return Err(Error::InvalidArgument(
                "job must have at least one operator".into(),
            ));
        }
        self.register(&spec.name, spec.tier);
        Ok(())
    }

    fn register(&self, name: &str, tier: u8) {
        self.jobs.write().insert(
            name.to_string(),
            ManagedJobInfo {
                status: JobStatus::Validated,
                restarts: 0,
                last_stats: None,
                tier,
                node: None,
                pending_restart: false,
            },
        );
    }

    /// Record which task-manager node a job was placed on, so node-level
    /// failure detection can find its victims.
    pub fn assign_node(&self, job: &str, node: &str) -> Result<()> {
        let mut jobs = self.jobs.write();
        let info = jobs
            .get_mut(job)
            .ok_or_else(|| Error::NotFound(format!("job '{job}'")))?;
        info.node = Some(node.to_string());
        Ok(())
    }

    /// React to a task-manager node death (§4.2.1 failure recovery):
    /// every job placed on it is marked `pending_restart` and unplaced.
    /// Returns the affected job names, in name order.
    pub fn on_node_dead(&self, node: &str) -> Vec<String> {
        let mut affected = Vec::new();
        let mut jobs = self.jobs.write();
        for (name, info) in jobs.iter_mut() {
            if info.node.as_deref() == Some(node)
                && !matches!(info.status, JobStatus::Finished | JobStatus::Failed(_))
            {
                info.pending_restart = true;
                info.node = None;
                affected.push(name.clone());
            }
        }
        affected
    }

    /// Region-scale failure: every job placed on a node of the dead
    /// region (nodes are named `{region}-...`) is marked for restart and
    /// unplaced, so the deployment loop can redeploy it into a surviving
    /// region restoring from the cross-region-replicated checkpoint
    /// store. Returns the affected job names.
    pub fn on_region_dead(&self, region: &str) -> Vec<String> {
        let prefix = format!("{region}-");
        let mut affected = Vec::new();
        let mut jobs = self.jobs.write();
        for (name, info) in jobs.iter_mut() {
            let on_region = info
                .node
                .as_deref()
                .is_some_and(|n| n.starts_with(&prefix) || n == region);
            if on_region && !matches!(info.status, JobStatus::Finished | JobStatus::Failed(_)) {
                info.pending_restart = true;
                info.node = None;
                affected.push(name.clone());
            }
        }
        affected
    }

    /// Drain the set of jobs needing a restart after node failures; the
    /// deployment loop re-runs each via [`JobManager::supervise`].
    pub fn take_pending_restarts(&self) -> Vec<String> {
        let mut jobs = self.jobs.write();
        let mut pending = Vec::new();
        for (name, info) in jobs.iter_mut() {
            if info.pending_restart {
                info.pending_restart = false;
                pending.push(name.clone());
            }
        }
        pending
    }

    /// A membership listener that fans node deaths into
    /// [`JobManager::on_node_dead`]. Subscribe it to the shared
    /// membership view; it holds a weak ref so the manager can be
    /// dropped freely.
    pub fn node_listener(self: &Arc<Self>) -> Arc<dyn MembershipListener> {
        Arc::new(NodeFailureListener {
            manager: Arc::downgrade(self),
        })
    }

    /// Run a job under supervision: on failure, re-instantiate from the
    /// factory (the run recovers from the last checkpoint) and retry, up
    /// to `max_restarts` times.
    pub fn supervise(&self, spec: &JobSpec) -> Result<JobRunStats> {
        if !self.jobs.read().contains_key(&spec.name) {
            self.validate(spec)?;
        }
        self.run_supervised(&spec.name, &|_| (spec.factory)(), 1, None)
            .map(|stats| stats.run)
    }

    /// Worst staleness across every watched pipeline right now (`None`
    /// when no saturation watch is wired or nothing is traced yet). This
    /// is the backlog signal the elastic supervisor scales on.
    pub fn max_watched_staleness(&self) -> Option<i64> {
        let watch = self.saturation.read();
        let w = watch.as_ref()?;
        let now = w.clock.now();
        w.tracer
            .pipelines()
            .into_iter()
            .filter_map(|p| w.tracer.staleness_ms(&p, now))
            .max()
    }

    /// Supervise a job with backlog-driven elastic rescale: a monitor
    /// thread watches the freshness tracer (wired via
    /// [`JobManager::watch_saturation`]) and, whenever `policy` wants a
    /// different parallelism, asks the running job to stop at its next
    /// checkpoint barrier; the job is then re-instantiated at the new
    /// parallelism and resumes from that checkpoint — key-group framed
    /// state redistributes across the new shard count without rehashing.
    /// Requires checkpointing in the manager's config; without it the
    /// rescale flag is never acted on and the job simply runs to
    /// completion. Failures still retry from the last checkpoint, up to
    /// `max_restarts`.
    pub fn supervise_elastic(
        &self,
        spec: &ElasticJobSpec,
        policy: &RescalePolicy,
        initial_parallelism: usize,
    ) -> Result<ElasticRunStats> {
        let min = spec.min_parallelism.max(1);
        let max = spec.max_parallelism.max(min);
        if !self.jobs.read().contains_key(&spec.name) {
            self.register(&spec.name, spec.tier);
        }
        self.run_supervised(
            &spec.name,
            &|p| Ok((spec.factory)(p)),
            initial_parallelism.clamp(min, max),
            Some((policy, min, max)),
        )
    }

    /// The one restart loop behind every front door: instantiate, run,
    /// then finish, restart rescaled, retry from the last checkpoint, or
    /// fail. `elastic` carries the rescale policy with its parallelism
    /// bounds; the monitor thread exists only when it is given.
    fn run_supervised(
        &self,
        name: &str,
        factory: &dyn Fn(usize) -> Result<Job>,
        mut p: usize,
        elastic: Option<(&RescalePolicy, usize, usize)>,
    ) -> Result<ElasticRunStats> {
        self.set_status(name, JobStatus::Running);
        let mut out = ElasticRunStats {
            final_parallelism: p,
            ..ElasticRunStats::default()
        };
        loop {
            // the parallelism the monitor decided on when it raised the
            // rescale flag, so the restart uses exactly that decision
            let mut target = None;
            // a factory that fails is a failed attempt like any other
            let result = factory(p).and_then(|job| match elastic {
                None => run_staged_with(job, &self.config),
                Some((policy, min, max)) => {
                    let handle = RescaleHandle::new();
                    let mut cfg = self.config.clone();
                    cfg.rescale = Some(handle.clone());
                    let stop = AtomicBool::new(false);
                    std::thread::scope(|scope| {
                        let monitor = scope.spawn(|| {
                            // watch until the run ends or a decision is made
                            let mut want = None;
                            while want.is_none() && !stop.load(Ordering::SeqCst) {
                                if let Some(stale) = self.max_watched_staleness() {
                                    let to = policy.desired(p, min, max, stale);
                                    if to != p {
                                        want = Some(to);
                                        handle.request();
                                    }
                                }
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                            want
                        });
                        let res = run_staged_with(job, &cfg);
                        stop.store(true, Ordering::SeqCst);
                        // a panicked monitor made no decision
                        target = monitor.join().unwrap_or(None);
                        res
                    })
                }
            });
            // the one place the loop touches the registry: a job forgotten
            // while it ran is an error for the caller, never a panic
            let mut jobs = self.jobs.write();
            let info = jobs.get_mut(name).ok_or_else(|| {
                Error::NotFound(format!("job '{name}' was forgotten while supervised"))
            })?;
            match result {
                Ok(mut stats) => {
                    stats.records_out += out.run.records_out;
                    stats.checkpoints_taken += out.run.checkpoints_taken;
                    out.run = stats;
                    if let Some(ckpt) = out.run.stopped_at_checkpoint {
                        if let Some(to) = target {
                            out.rescales.push(RescaleEvent {
                                from: p,
                                to,
                                at_checkpoint: ckpt,
                            });
                            p = to;
                            out.final_parallelism = p;
                        }
                        continue; // restart from the checkpoint, rescaled
                    }
                    info.status = JobStatus::Finished;
                    info.last_stats = Some(out.run.clone());
                    return Ok(out);
                }
                // transient: retry from checkpoint
                Err(_) if out.attempts < self.max_restarts => {
                    out.attempts += 1;
                    info.restarts = out.attempts;
                }
                Err(e) => {
                    info.status = JobStatus::Failed(e.to_string());
                    return Err(e);
                }
            }
        }
    }

    fn set_status(&self, name: &str, status: JobStatus) {
        if let Some(info) = self.jobs.write().get_mut(name) {
            info.status = status;
        }
    }

    pub fn status(&self, name: &str) -> Option<ManagedJobInfo> {
        self.jobs.read().get(name).cloned()
    }

    /// List jobs sorted by tier then name — the dispatch order of the
    /// proxy layer in Figure 5.
    pub fn list(&self) -> Vec<(String, ManagedJobInfo)> {
        let mut jobs: Vec<(String, ManagedJobInfo)> = self
            .jobs
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        jobs.sort_by(|a, b| a.1.tier.cmp(&b.1.tier).then(a.0.cmp(&b.0)));
        jobs
    }

    /// Remove a finished/failed job from the registry.
    pub fn forget(&self, name: &str) -> Result<()> {
        self.jobs
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(format!("job '{name}'")))
    }
}

/// Routes `Dead` membership transitions to the job manager.
struct NodeFailureListener {
    manager: Weak<JobManager>,
}

impl MembershipListener for NodeFailureListener {
    fn on_membership_event(&self, event: &MembershipEvent) {
        if event.to == NodeState::Dead {
            if let Some(manager) = self.manager.upgrade() {
                manager.on_node_dead(&event.node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{MapOp, Operator};
    use crate::runtime::CheckpointStore;
    use crate::sink::CollectSink;
    use crate::source::VecSource;
    use parking_lot::Mutex;
    use rtdi_common::{Record, Row};
    use rtdi_storage::object::InMemoryStore;
    use std::sync::Arc;

    fn simple_spec(name: &str, sink: CollectSink) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            job_type: JobType::Stateless,
            tier: 1,
            expected_records_per_sec: 1000,
            factory: Box::new(move || {
                Ok(Job::new(
                    "inner",
                    Box::new(VecSource::from_rows(
                        (0..10).map(|i| (i, Row::new().with("i", i))).collect(),
                    )),
                    vec![Box::new(MapOp::new("id", |r: &Row| r.clone()))],
                    Box::new(sink.clone()),
                ))
            }),
        }
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let jm = JobManager::new(StagedConfig::default(), 3);
        let sink = CollectSink::new();
        let spec = simple_spec("good", sink.clone());
        jm.validate(&spec).unwrap();
        assert!(matches!(
            jm.validate(&simple_spec("good", sink.clone())),
            Err(Error::AlreadyExists(_))
        ));
        let empty_ops = JobSpec {
            name: "no-ops".into(),
            job_type: JobType::Stateless,
            tier: 0,
            expected_records_per_sec: 1,
            factory: Box::new(|| {
                Ok(Job::new(
                    "x",
                    Box::new(VecSource::new(vec![])),
                    vec![],
                    Box::new(CollectSink::new()),
                ))
            }),
        };
        assert!(jm.validate(&empty_ops).is_err());
    }

    #[test]
    fn supervise_runs_to_completion() {
        let jm = JobManager::new(StagedConfig::default(), 3);
        let sink = CollectSink::new();
        let spec = simple_spec("run", sink.clone());
        let stats = jm.supervise(&spec).unwrap();
        assert_eq!(stats.records_in, 10);
        assert_eq!(sink.len(), 10);
        let info = jm.status("run").unwrap();
        assert_eq!(info.status, JobStatus::Finished);
        assert_eq!(info.restarts, 0);
    }

    /// Operator that fails a fixed number of times across instantiations
    /// (shared counter), then succeeds — a transient failure.
    struct TransientFail {
        budget: Arc<Mutex<u32>>,
    }
    impl Operator for TransientFail {
        fn name(&self) -> &str {
            "transient"
        }
        fn process(&mut self, r: &Arc<Record>, out: &mut Vec<Arc<Record>>) -> Result<()> {
            let mut b = self.budget.lock();
            if *b > 0 {
                *b -= 1;
                return Err(Error::Unavailable("downstream flake".into()));
            }
            out.push(Arc::clone(r));
            Ok(())
        }
    }

    fn flaky_spec(
        name: &str,
        budget: Arc<Mutex<u32>>,
        sink: CollectSink,
        store: Arc<InMemoryStore>,
    ) -> (JobSpec, StagedConfig) {
        let mut config = StagedConfig::batched(4, 8);
        config.checkpoint_interval = 5;
        config.checkpoint_store = Some(CheckpointStore::new(store));
        let job_name = name.to_string();
        let spec = JobSpec {
            name: name.to_string(),
            job_type: JobType::Stateless,
            tier: 0,
            expected_records_per_sec: 100,
            factory: Box::new(move || {
                Ok(Job::new(
                    job_name.clone(),
                    Box::new(VecSource::from_rows(
                        (0..20).map(|i| (i, Row::new().with("i", i))).collect(),
                    )),
                    vec![
                        Box::new(MapOp::new("id", |r: &Row| r.clone())),
                        Box::new(TransientFail {
                            budget: budget.clone(),
                        }),
                    ],
                    Box::new(sink.clone()),
                ))
            }),
        };
        (spec, config)
    }

    #[test]
    fn transient_failures_recover_automatically() {
        let budget = Arc::new(Mutex::new(2u32)); // fails twice then healthy
        let sink = CollectSink::new();
        let store = Arc::new(InMemoryStore::new());
        let (spec, config) = flaky_spec("flaky", budget, sink.clone(), store);
        let jm = JobManager::new(config, 5);
        let stats = jm.supervise(&spec).unwrap();
        let info = jm.status("flaky").unwrap();
        assert_eq!(info.status, JobStatus::Finished);
        assert_eq!(info.restarts, 2);
        assert_eq!(stats.checkpoints_taken, 4, "barrier every 5 of 20 records");
        // all records eventually delivered (at-least-once: duplicates from
        // replay are possible but every input must appear)
        let mut ids: Vec<i64> = sink
            .rows()
            .iter()
            .map(|r| r.get_int("i").unwrap())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 20);
        assert!(stats.records_in >= 20);
    }

    #[test]
    fn permanent_failure_exhausts_restarts() {
        let budget = Arc::new(Mutex::new(u32::MAX)); // never heals
        let sink = CollectSink::new();
        let store = Arc::new(InMemoryStore::new());
        let (spec, config) = flaky_spec("doomed", budget, sink, store);
        let jm = JobManager::new(config, 2);
        assert!(jm.supervise(&spec).is_err());
        let info = jm.status("doomed").unwrap();
        assert!(matches!(info.status, JobStatus::Failed(_)));
    }

    #[test]
    fn job_forgotten_while_supervised_is_an_error_not_a_panic() {
        let jm = Arc::new(JobManager::new(StagedConfig::default(), 3));
        let mut spec = simple_spec("gone", CollectSink::new());
        let inner = spec.factory;
        let forgetful = jm.clone();
        spec.factory = Box::new(move || {
            // not registered yet when `validate` instantiates: ignore
            let _ = forgetful.forget("gone");
            inner()
        });
        assert!(matches!(jm.supervise(&spec), Err(Error::NotFound(_))));
        assert!(jm.status("gone").is_none());
    }

    #[test]
    fn resource_model_matches_paper_observations() {
        let mk = |jt| JobSpec {
            name: "r".into(),
            job_type: jt,
            tier: 0,
            expected_records_per_sec: 100_000,
            factory: Box::new(|| {
                Ok(Job::new(
                    "x",
                    Box::new(VecSource::new(vec![])),
                    vec![],
                    Box::new(CollectSink::new()),
                ))
            }),
        };
        let stateless = JobManager::estimate_resources(&mk(JobType::Stateless));
        let join = JobManager::estimate_resources(&mk(JobType::StreamJoin));
        // stateless: CPU-heavy relative to memory; join: memory-heavy
        assert!(join.memory_mb > 5 * stateless.memory_mb);
        assert!(stateless.cpu_cores >= 2);
    }

    #[test]
    fn rule_engine_matches_in_order() {
        let jm = JobManager::new(StagedConfig::default(), 0);
        let stuck = JobHealth {
            missed_heartbeats: 5,
            ..Default::default()
        };
        assert_eq!(jm.evaluate_health(&stuck).0, HealthAction::Restart);
        let lagging = JobHealth {
            lag: 5_000_000,
            records_per_sec: 100_000,
            ..Default::default()
        };
        assert_eq!(jm.evaluate_health(&lagging).0, HealthAction::ScaleUp);
        let idle = JobHealth {
            lag: 0,
            records_per_sec: 1,
            ..Default::default()
        };
        assert_eq!(jm.evaluate_health(&idle).0, HealthAction::ScaleDown);
        let healthy = JobHealth {
            lag: 100,
            records_per_sec: 50_000,
            ..Default::default()
        };
        assert_eq!(jm.evaluate_health(&healthy).0, HealthAction::None);
    }

    #[test]
    fn stale_pipeline_triggers_restart() {
        let jm = JobManager::new(StagedConfig::default(), 0);
        let stale = JobHealth {
            freshness_p99_ms: 45_000,
            records_per_sec: 50_000,
            lag: 100,
            ..Default::default()
        };
        let (action, rule) = jm.evaluate_health(&stale);
        assert_eq!(action, HealthAction::Restart);
        assert_eq!(rule, Some("stale-pipeline-restart"));
        // within the "seconds, not minutes" SLA: no action
        let fresh = JobHealth {
            freshness_p99_ms: 2_000,
            records_per_sec: 50_000,
            lag: 100,
            ..Default::default()
        };
        assert_eq!(jm.evaluate_health(&fresh).0, HealthAction::None);
    }

    #[test]
    fn node_death_marks_placed_jobs_for_restart() {
        use rtdi_common::{Membership, MembershipConfig, SimClock};
        let jm = Arc::new(JobManager::new(StagedConfig::default(), 3));
        let sink = CollectSink::new();
        jm.validate(&simple_spec("surge", sink.clone())).unwrap();
        jm.validate(&simple_spec("eats-etl", sink.clone())).unwrap();
        jm.validate(&simple_spec("idle", sink)).unwrap();
        jm.assign_node("surge", "tm-0").unwrap();
        jm.assign_node("eats-etl", "tm-0").unwrap();
        jm.assign_node("idle", "tm-1").unwrap();
        // wire the manager to a membership view and let the failure
        // detector declare tm-0 dead
        let clock = Arc::new(SimClock::new(0));
        let m = Membership::new(clock.clone(), MembershipConfig::default());
        m.register("tm-0");
        m.register("tm-1");
        m.subscribe(jm.node_listener());
        clock.advance(20_000);
        m.heartbeat("tm-1");
        m.tick();
        // both tm-0 jobs marked, the tm-1 job untouched
        let pending = jm.take_pending_restarts();
        assert_eq!(pending, vec!["eats-etl".to_string(), "surge".to_string()]);
        assert!(jm.status("idle").unwrap().node.is_some());
        assert!(jm.status("surge").unwrap().node.is_none(), "unplaced");
        assert!(jm.take_pending_restarts().is_empty(), "drained");
        // re-running the job completes it
        let sink2 = CollectSink::new();
        let spec = simple_spec("surge2", sink2);
        jm.supervise(&spec).unwrap();
        assert_eq!(jm.status("surge2").unwrap().status, JobStatus::Finished);
    }

    #[test]
    fn saturation_refuses_deployments_and_throttles_sources() {
        use crate::source::{Source, ThrottledSource};
        use rtdi_common::SimClock;

        let jm = JobManager::new(StagedConfig::default(), 3);
        let tracer = PipelineTracer::new();
        let clock = Arc::new(SimClock::new(0));
        let throttle = jm.watch_saturation(tracer.clone(), clock.clone(), 10_000, 2);

        // trace a hop so the pipeline has an origin timestamp
        let mut rec = Record::new(Row::new().with("i", 1i64), 0);
        PipelineTracer::stamp(&mut rec, 0);
        tracer.stage("surge", "ingest").observe_hop(&mut rec, 0);

        // fresh: deployments admitted, sources unthrottled
        assert!(!jm.tick_saturation());
        let sink = CollectSink::new();
        jm.validate(&simple_spec("fresh-ok", sink.clone())).unwrap();
        assert_eq!(throttle.cap(), None);

        // backlog grows past the threshold: refuse and throttle
        clock.advance(30_000);
        assert!(jm.tick_saturation());
        let refused = jm.validate(&simple_spec("too-late", sink.clone()));
        assert!(matches!(refused, Err(Error::Overloaded(_))), "{refused:?}");
        assert!(
            refused.unwrap_err().is_retryable(),
            "deployment loop may retry once drained"
        );
        assert_eq!(throttle.cap(), Some(2));
        let mut src = ThrottledSource::new(
            Box::new(VecSource::from_rows(
                (0..10).map(|i| (i, Row::new().with("i", i))).collect(),
            )),
            throttle.clone(),
        );
        assert_eq!(src.poll_batch(100).unwrap().len(), 2, "cap applied");

        // pipeline catches up: throttle released, deployments admitted
        let mut rec = Record::new(Row::new().with("i", 2i64), 30_000);
        PipelineTracer::stamp(&mut rec, 30_000);
        tracer
            .stage("surge", "ingest")
            .observe_hop(&mut rec, 30_000);
        assert!(!jm.tick_saturation());
        assert_eq!(throttle.cap(), None);
        assert_eq!(src.poll_batch(100).unwrap().len(), 8, "uncapped again");
        jm.validate(&simple_spec("recovered", sink)).unwrap();
    }

    #[test]
    fn finished_jobs_ignore_node_death() {
        let jm = JobManager::new(StagedConfig::default(), 3);
        let sink = CollectSink::new();
        let spec = simple_spec("done", sink);
        jm.supervise(&spec).unwrap();
        jm.assign_node("done", "tm-9").unwrap();
        assert!(jm.on_node_dead("tm-9").is_empty());
        assert!(jm.take_pending_restarts().is_empty());
    }

    #[test]
    fn region_death_marks_jobs_on_regional_nodes() {
        let jm = JobManager::new(StagedConfig::default(), 3);
        let sink = CollectSink::new();
        jm.validate(&simple_spec("surge", sink.clone())).unwrap();
        jm.validate(&simple_spec("eats-etl", sink.clone())).unwrap();
        jm.validate(&simple_spec("idle", sink)).unwrap();
        jm.assign_node("surge", "west-tm-0").unwrap();
        jm.assign_node("eats-etl", "west-tm-1").unwrap();
        jm.assign_node("idle", "east-tm-0").unwrap();
        let displaced = jm.on_region_dead("west");
        assert_eq!(displaced, vec!["eats-etl".to_string(), "surge".to_string()]);
        assert!(jm.status("surge").unwrap().node.is_none(), "unplaced");
        assert!(jm.status("idle").unwrap().node.is_some(), "east untouched");
        assert_eq!(jm.take_pending_restarts(), displaced);
        assert!(jm.on_region_dead("west").is_empty(), "already displaced");
    }

    #[test]
    fn rescale_policy_doubles_and_halves_within_bounds() {
        let pol = RescalePolicy::default();
        // stale: double, clamped at max
        assert_eq!(pol.desired(1, 1, 8, 60_000), 2);
        assert_eq!(pol.desired(4, 1, 8, 60_000), 8);
        assert_eq!(pol.desired(8, 1, 8, 60_000), 8);
        // fresh: halve, clamped at min
        assert_eq!(pol.desired(8, 2, 8, 0), 4);
        assert_eq!(pol.desired(2, 2, 8, 0), 2);
        // in between: hold
        assert_eq!(pol.desired(4, 1, 8, 1_000), 4);
        // degenerate bounds clamp sanely
        assert_eq!(pol.desired(0, 0, 0, 60_000), 1);
    }

    #[test]
    fn supervise_elastic_scales_up_on_stale_pipeline_and_stays_exact() {
        use crate::operator::WindowAggregateOp;
        use crate::runtime::run_staged_with;
        use crate::window::WindowAssigner;
        use rtdi_common::{AggFn, SimClock, Timestamp};

        let rows: Vec<(Timestamp, Row)> = (0..20_000)
            .map(|i| {
                (
                    (i as i64) * 10,
                    Row::new()
                        .with("city", format!("city-{:02}", i % 7))
                        .with("fare", 5.0 + (i % 13) as f64),
                )
            })
            .collect();
        let make_job = |name: &str, rows: Vec<(Timestamp, Row)>, sink: CollectSink, p: usize| {
            Job::new(
                name,
                Box::new(VecSource::from_rows(rows)),
                vec![Box::new(
                    WindowAggregateOp::new(
                        "agg",
                        vec!["city".into()],
                        WindowAssigner::tumbling(1000),
                        vec![
                            ("trips".into(), AggFn::Count),
                            ("total".into(), AggFn::Sum("fare".into())),
                        ],
                        0,
                    )
                    .with_parallelism(p),
                )],
                Box::new(sink),
            )
        };

        // baseline: uninterrupted serial run
        let base_sink = CollectSink::new();
        run_staged_with(
            make_job("base", rows.clone(), base_sink.clone(), 1),
            &StagedConfig::batched(16, 64),
        )
        .unwrap();

        // a pipeline that is permanently 60s stale: the tracer saw one
        // record at t=0 and the (simulated) clock is pinned at 60s
        let mut cfg = StagedConfig::batched(16, 64);
        cfg.checkpoint_interval = 2_000;
        cfg.checkpoint_store = Some(CheckpointStore::new(Arc::new(InMemoryStore::new())));
        let jm = JobManager::new(cfg, 2);
        let tracer = PipelineTracer::new();
        let mut rec = Record::new(Row::new().with("i", 1i64), 0);
        PipelineTracer::stamp(&mut rec, 0);
        tracer.stage("trips", "ingest").observe_hop(&mut rec, 0);
        let clock = Arc::new(SimClock::new(60_000));
        jm.watch_saturation(tracer, clock, 1_000_000, usize::MAX);
        assert_eq!(jm.max_watched_staleness(), Some(60_000));

        let sink = CollectSink::new();
        let job_rows = rows.clone();
        let job_sink = sink.clone();
        let spec = ElasticJobSpec {
            name: "elastic".into(),
            job_type: JobType::WindowedAggregation,
            tier: 0,
            expected_records_per_sec: 10_000,
            min_parallelism: 1,
            max_parallelism: 4,
            factory: Box::new(move |p| make_job("elastic", job_rows.clone(), job_sink.clone(), p)),
        };
        let stats = jm
            .supervise_elastic(&spec, &RescalePolicy::default(), 1)
            .unwrap();

        // the permanently stale signal must have forced at least one
        // doubling; with 10 checkpoint boundaries available it reaches max
        assert!(!stats.rescales.is_empty(), "no rescale happened: {stats:?}");
        assert!(stats.final_parallelism > 1);
        for ev in &stats.rescales {
            assert_eq!(ev.to, (ev.from * 2).min(4), "doubling steps: {ev:?}");
        }
        assert_eq!(stats.run.records_in, 20_000);
        assert_eq!(jm.status("elastic").unwrap().status, JobStatus::Finished);

        // exactly-once across every rescale restart: sorted, NOT deduped
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| {
                (
                    r.get_str("city").unwrap().to_string(),
                    r.get_int("window_start").unwrap(),
                )
            });
            rows
        };
        assert_eq!(canon(base_sink.rows()), canon(sink.rows()));
    }

    #[test]
    fn list_orders_by_tier() {
        let jm = JobManager::new(StagedConfig::default(), 0);
        let mk = |name: &str, tier| JobSpec {
            name: name.to_string(),
            job_type: JobType::Stateless,
            tier,
            expected_records_per_sec: 1,
            factory: Box::new(|| {
                Ok(Job::new(
                    "x",
                    Box::new(VecSource::new(vec![])),
                    vec![Box::new(MapOp::new("id", |r: &Row| r.clone()))],
                    Box::new(CollectSink::new()),
                ))
            }),
        };
        jm.validate(&mk("zeta-critical", 0)).unwrap();
        jm.validate(&mk("alpha-batchy", 2)).unwrap();
        let names: Vec<String> = jm.list().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["zeta-critical", "alpha-batchy"]);
        jm.forget("alpha-batchy").unwrap();
        assert!(jm.forget("alpha-batchy").is_err());
    }
}
