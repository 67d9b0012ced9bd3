//! Job lifecycle management (§4.2.1–4.2.2, Figure 5).
//!
//! The job-management layer "manages the Flink job's lifecycle including
//! validation, deployment, monitoring and failure recovery... a shared
//! component in the job management server continuously monitors the health
//! of all jobs and automatically recovers the jobs from the transient
//! failures." It also owns the rule-based engine that restarts or
//! rescales jobs when metrics drift from the desired state.

use crate::runtime::{run_staged_with, Job, JobRunStats, StagedConfig};
use parking_lot::RwLock;
use rtdi_common::{Error, MembershipEvent, MembershipListener, NodeState, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

/// A deployable job: a name and a factory, so the manager can
/// re-instantiate it after a failure.
pub struct JobSpec {
    pub name: String,
    pub factory: Box<dyn Fn() -> Result<Job> + Send + Sync>,
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
    /// Task-manager node this job runs on (when placed).
    pub node: Option<String>,
    /// Set when the node hosting the job died; the deployment loop must
    /// re-run the job (it recovers from its last checkpoint).
    pub pending_restart: bool,
}

/// The job manager: deploy, supervise, recover.
pub struct JobManager {
    /// What every supervised job runs under.
    config: StagedConfig,
    max_restarts: u32,
    jobs: RwLock<BTreeMap<String, ManagedJobInfo>>,
    rules: Vec<HealthRule>,
}

impl JobManager {
    pub fn new(config: StagedConfig, max_restarts: u32) -> Self {
        JobManager {
            config,
            max_restarts,
            jobs: RwLock::new(BTreeMap::new()),
            rules: Self::default_rules(),
        }
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

    /// Validate a spec before deployment (the "validation" step of the job
    /// management layer).
    pub fn validate(&self, spec: &JobSpec) -> Result<()> {
        if spec.name.is_empty() {
            return Err(Error::InvalidArgument("job name must not be empty".into()));
        }
        if self.jobs.read().contains_key(&spec.name) {
            return Err(Error::AlreadyExists(format!("job '{}'", spec.name)));
        }
        // instantiate once to catch construction and config errors early
        let job = (spec.factory)()?;
        if job.operators.is_empty() {
            return Err(Error::InvalidArgument(
                "job must have at least one operator".into(),
            ));
        }
        self.jobs.write().insert(
            spec.name.clone(),
            ManagedJobInfo {
                status: JobStatus::Validated,
                restarts: 0,
                last_stats: None,
                node: None,
                pending_restart: false,
            },
        );
        Ok(())
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
    /// to `max_restarts` times. The one supervision loop: nothing watches
    /// the run from outside it.
    pub fn supervise(&self, spec: &JobSpec) -> Result<JobRunStats> {
        if !self.jobs.read().contains_key(&spec.name) {
            self.validate(spec)?;
        }
        self.set_status(&spec.name, JobStatus::Running);
        let mut restarts = 0;
        loop {
            // a factory that fails is a failed attempt like any other
            let result = (spec.factory)().and_then(|job| run_staged_with(job, &self.config));
            // `validate` registered the job and nothing unregisters one;
            // a missing entry is still an error, never a panic
            let mut jobs = self.jobs.write();
            let info = jobs
                .get_mut(&spec.name)
                .ok_or_else(|| Error::NotFound(format!("job '{}' is not registered", spec.name)))?;
            match result {
                // a run the config's own `rescale` handle stopped at a
                // checkpoint is returned as it is (`stopped_at_checkpoint`)
                Ok(stats) => {
                    info.status = JobStatus::Finished;
                    info.last_stats = Some(stats.clone());
                    return Ok(stats);
                }
                // transient: retry from checkpoint
                Err(_) if restarts < self.max_restarts => {
                    restarts += 1;
                    info.restarts = restarts;
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
    fn a_requested_stop_at_a_checkpoint_is_returned_not_restarted() {
        use crate::runtime::RescaleHandle;
        let sink = CollectSink::new();
        let store = Arc::new(InMemoryStore::new());
        let (spec, mut config) = flaky_spec("stops", Arc::new(Mutex::new(0)), sink, store);
        let handle = RescaleHandle::new();
        handle.request();
        config.rescale = Some(handle);
        let jm = JobManager::new(config, 3);
        let stats = jm.supervise(&spec).unwrap();
        assert_eq!(stats.stopped_at_checkpoint, Some(1));
        assert_eq!(stats.records_in, 5, "stopped at the first barrier");
        let info = jm.status("stops").unwrap();
        assert_eq!((info.status, info.restarts), (JobStatus::Finished, 0));
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
}
