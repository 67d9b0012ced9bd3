//! Region-scale disaster-recovery drills with RPO/RTO accounting.
//!
//! §6: "we provide multi-region strategies for the key services...
//! provide business resilience and continuity is a top priority". This
//! module wires every layer of the platform into one seeded kill/heal
//! loop: regions die as correlated bursts of silent brokers (detected by
//! the shared membership deadline, not announced), the active-passive
//! consumer fails over through the offset-sync service, the job manager
//! redeploys the checkpointed compute job into the surviving region from
//! a cross-region-mirrored checkpoint store, SQL keeps answering from
//! the survivor's OLAP table with replication lag surfaced as staleness,
//! and the active-active surge path re-converges after the coordinator
//! fails over. The drill emits an exact ledger — RPO (committed records
//! lost, must be zero), bounded replay duplicates, and per-layer RTO —
//! as a byte-stable `DR_SUMMARY` for determinism gates.
//!
//! Everything runs on one logical clock; a drill with the same seed and
//! config produces an identical summary in any process.

use crate::activeactive::{redundant_compute_round, ActiveActiveCoordinator};
use crate::activepassive::{ActivePassiveConsumer, OffsetSyncService};
use crate::kv::ReplicatedKv;
use crate::topology::MultiRegionTopology;
use parking_lot::Mutex;
use rtdi_common::chaos::{FaultKind, FaultPlan, Trigger};
use rtdi_common::{
    row_names, Chaos, Clock, Error, FaultPoint, FieldType, PipelineTracer, Record, RegionOutage,
    RegionOutageKind, Result, Row, Schema, SimClock,
};
use rtdi_compute::operator::{DedupOp, MapOp};
use rtdi_compute::runtime::CheckpointData;
use rtdi_compute::{
    run_staged_with, CheckpointStore, CollectSink, FnSink, Job, JobManager, JobSpec, StagedConfig,
    TopicSource, VecSource,
};
use rtdi_olap::{IngestionConfig, OlapTable, RealtimeIngester, TableConfig};
use rtdi_sql::{EngineConfig, PinotConnector, SqlEngine};
use rtdi_storage::{FaultyStore, InMemoryStore, MirroredStore, ObjectStore};
use rtdi_stream::topic::{Topic, TopicConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Name of the checkpointed compute job the drill keeps alive.
const JOB: &str = "dr-global-count";
/// Logical heartbeat interval the drill ticks at.
const TICK_MS: i64 = 1_000;

/// Drill knobs. Defaults give each outage enough room for the failure
/// detector (10s dead deadline) to fire inside the outage window and for
/// replication to catch up before the next strike.
#[derive(Debug, Clone)]
pub struct DrConfig {
    pub regions: Vec<String>,
    pub partitions: usize,
    /// Outage cycles to run (one planned strike per cycle).
    pub cycles: usize,
    /// Cycle length; strikes land in the first quarter of each cycle.
    pub period_ms: i64,
    /// Kill-to-heal duration of each outage.
    pub outage_ms: i64,
    /// Steady-state warmup before the first cycle window opens.
    pub warmup_ms: i64,
    /// Records produced per tick (round-robin across up regions).
    pub produce_per_tick: usize,
    /// Ticks after the last cycle for drain + convergence.
    pub drain_ticks: usize,
    /// Compute-job checkpoint interval (records).
    pub checkpoint_interval: u64,
}

impl Default for DrConfig {
    fn default() -> Self {
        DrConfig {
            regions: vec!["west".into(), "east".into()],
            partitions: 2,
            cycles: 3,
            period_ms: 40_000,
            outage_ms: 15_000,
            warmup_ms: 20_000,
            produce_per_tick: 6,
            drain_ticks: 20,
            checkpoint_interval: 32,
        }
    }
}

/// Exact per-cycle accounting. All times are logical milliseconds.
#[derive(Debug, Clone)]
pub struct CycleLedger {
    pub cycle: usize,
    pub kind: &'static str,
    pub region: String,
    pub kill_ms: i64,
    /// Kill-to-detection latency (0 for replicator-lag bursts, which are
    /// observed as lag rather than death).
    pub detect_ms: i64,
    /// Whether the strike hit the active serving region (failovers ran).
    pub affected: bool,
    pub rto_consume_ms: i64,
    pub rto_compute_ms: i64,
    pub rto_query_ms: i64,
    /// Consumer replay duplicates attributed to this cycle.
    pub dup_consume: u64,
    /// Records still missing from some live aggregate at heal time.
    pub lag_at_heal: u64,
    /// Heal-to-full-replication-catch-up latency (-1 if the drill ended
    /// before catch-up completed).
    pub catchup_ms: i64,
}

impl CycleLedger {
    fn summary_line(&self) -> String {
        format!(
            "DR_SUMMARY cycle={} kind={} region={} kill_ms={} detect_ms={} \
             affected={} rto_consume_ms={} rto_compute_ms={} rto_query_ms={} \
             dup_consume={} lag_at_heal={} catchup_ms={}",
            self.cycle,
            self.kind,
            self.region,
            self.kill_ms,
            self.detect_ms,
            self.affected,
            self.rto_consume_ms,
            self.rto_compute_ms,
            self.rto_query_ms,
            self.dup_consume,
            self.lag_at_heal,
            self.catchup_ms,
        )
    }
}

/// Drill outcome: the ledger plus end-state convergence checks.
#[derive(Debug, Clone)]
pub struct DrReport {
    pub seed: u64,
    pub regions: Vec<String>,
    pub partitions: usize,
    pub cycles: Vec<CycleLedger>,
    /// Records acknowledged by produce (the RPO baseline).
    pub committed: u64,
    pub consumer_seen: u64,
    pub consumer_duplicates: u64,
    pub consumer_failovers: u64,
    /// Distinct records counted by the checkpointed compute job.
    pub compute_distinct: u64,
    /// At-least-once re-emissions from checkpoint replay (state stays
    /// exactly-once; the sink sees a bounded replay suffix).
    pub compute_duplicate_emits: u64,
    /// Committed records never observed by the consumer or the compute
    /// job after heal + drain. RPO — must be zero.
    pub lost: u64,
    /// Checkpoint objects copied while resyncing mirrors after outages.
    pub ckpt_resynced: usize,
    /// Max query-time staleness observed during any outage window.
    pub max_staleness_ms: i64,
    pub aggregates_equal: bool,
    pub surge_converged: bool,
    pub isr_full: bool,
}

impl DrReport {
    /// Offset-sync replay bound: each failover may replay up to one
    /// mapping-checkpoint interval per source route per partition.
    pub fn replay_bound(&self, sync_interval: u64) -> u64 {
        self.consumer_failovers * self.regions.len() as u64 * self.partitions as u64 * sync_interval
    }

    /// Byte-stable, logical-time-only drill ledger.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "DR_SUMMARY seed={:#018x} regions={} partitions={} cycles={}\n",
            self.seed,
            self.regions.join(","),
            self.partitions,
            self.cycles.len(),
        ));
        for c in &self.cycles {
            out.push_str(&c.summary_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "DR_SUMMARY totals committed={} consumer_seen={} consumer_dups={} \
             failovers={} compute_distinct={} compute_dup_emits={} \
             ckpt_resynced={} max_staleness_ms={} lost={}\n",
            self.committed,
            self.consumer_seen,
            self.consumer_duplicates,
            self.consumer_failovers,
            self.compute_distinct,
            self.compute_duplicate_emits,
            self.ckpt_resynced,
            self.max_staleness_ms,
            self.lost,
        ));
        out.push_str(&format!(
            "DR_SUMMARY convergence aggregates={} surge={} isr={} rpo={}\n",
            if self.aggregates_equal {
                "equal"
            } else {
                "DIVERGED"
            },
            if self.surge_converged {
                "converged"
            } else {
                "DIVERGED"
            },
            if self.isr_full { "full" } else { "DEGRADED" },
            self.lost,
        ));
        out
    }
}

/// Per-region serving stack: mirrored checkpoint store view, OLAP table
/// fed from the region's aggregate topic, and a SQL engine with the
/// region's freshness tracer attached.
struct RegionRt {
    name: String,
    tm: String,
    store: Arc<FaultyStore<InMemoryStore>>,
    view: Arc<MirroredStore>,
    ckpts: CheckpointStore,
    agg_topic: Arc<Topic>,
    ingester: RealtimeIngester,
    engine: SqlEngine,
}

struct ActiveState {
    outage: RegionOutage,
    cycle: usize,
    detected_at: Option<i64>,
    affected: bool,
    healed_at: Option<i64>,
    rto_consume: Option<i64>,
    rto_compute: Option<i64>,
    rto_query: Option<i64>,
    dup_baseline: u64,
    lag_at_heal: u64,
}

/// The drill harness. Owns the whole simulated platform; `run` executes
/// the seeded kill/heal schedule and returns the ledger.
pub struct DrDrill {
    cfg: DrConfig,
    seed: u64,
    clock: Arc<SimClock>,
    topo: MultiRegionTopology,
    plan: Vec<RegionOutage>,
    rts: Vec<RegionRt>,
    jm: Arc<JobManager>,
    consumer: ActivePassiveConsumer,
    sync: OffsetSyncService,
    coord: ActiveActiveCoordinator,
    kv: ReplicatedKv,
    /// Region currently serving the consumer, compute and query layers.
    active_region: String,
    region_killed: BTreeSet<String>,
    committed: BTreeSet<String>,
    seen: BTreeMap<String, u64>,
    compute_emitted: Arc<Mutex<BTreeMap<String, u64>>>,
    seq: u64,
    produce_cursor: usize,
}

impl DrDrill {
    /// Build the platform under drill, on a fault-injection handle of its
    /// own seeded with `seed` (reachable as the topology's).
    pub fn new(seed: u64, cfg: DrConfig) -> Result<Self> {
        let chaos = Chaos::seeded(seed);
        let clock = Arc::new(SimClock::new(0));
        let region_names: Vec<&str> = cfg.regions.iter().map(|s| s.as_str()).collect();
        let topo = MultiRegionTopology::with_chaos(
            &region_names,
            "trips",
            TopicConfig::lossless().with_partitions(cfg.partitions),
            clock.clone(),
            chaos.clone(),
        )?;
        let plan = chaos.plan_region_outages(
            &region_names,
            cfg.cycles,
            cfg.warmup_ms,
            cfg.period_ms,
            cfg.outage_ms,
        );
        let membership = topo
            .membership()
            .cloned()
            .ok_or_else(|| Error::Internal("topology has no shared membership".into()))?;

        let schema = Schema::of(
            "trips",
            &[
                ("id", FieldType::Str),
                ("hex", FieldType::Str),
                ("kind", FieldType::Str),
            ],
        );
        let stores: Vec<Arc<FaultyStore<InMemoryStore>>> = cfg
            .regions
            .iter()
            .map(|_| Arc::new(FaultyStore::new(InMemoryStore::new()).with_chaos(chaos.clone())))
            .collect();
        let mut rts = Vec::with_capacity(cfg.regions.len());
        for (i, name) in cfg.regions.iter().enumerate() {
            let mirror = stores[(i + 1) % stores.len()].clone();
            let view = Arc::new(MirroredStore::new(
                stores[i].clone() as Arc<dyn ObjectStore>,
                mirror as Arc<dyn ObjectStore>,
            ));
            let ckpts = CheckpointStore::new(view.clone() as Arc<dyn ObjectStore>).with_retain(3);
            let agg_topic = topo.region(name)?.aggregate.topic("trips")?;
            let table = OlapTable::new(
                TableConfig::new("trips", schema.clone()).with_partitions(cfg.partitions),
            )?;
            let tracer = PipelineTracer::new();
            let ingester = RealtimeIngester::new(
                agg_topic.clone(),
                table.clone(),
                IngestionConfig::default(),
            )?
            .with_tracer(tracer.clone())
            .with_clock(clock.clone() as Arc<dyn Clock>);
            let pinot = PinotConnector::new();
            pinot.register(table);
            let mut engine = SqlEngine::new(EngineConfig::default()).with_freshness(
                tracer,
                "trips",
                clock.clone() as Arc<dyn Clock>,
            );
            engine.register_connector("pinot", Arc::new(pinot));
            let tm = format!("{name}-tm");
            membership.register_in_region(&tm, name);
            rts.push(RegionRt {
                name: name.clone(),
                tm,
                store: stores[i].clone(),
                view,
                ckpts,
                agg_topic,
                ingester,
                engine,
            });
        }

        let jm_config = StagedConfig {
            chaos,
            ..StagedConfig::default()
        };
        let jm = Arc::new(JobManager::new(jm_config, 8));
        membership.subscribe(jm.node_listener());
        jm.validate(&JobSpec {
            name: JOB.into(),
            factory: Box::new(|| {
                Ok(Job::new(
                    JOB,
                    Box::new(VecSource::new(Vec::new())),
                    vec![Box::new(MapOp::new("noop", |r| r.clone()))],
                    Box::new(CollectSink::new()),
                ))
            }),
        })?;
        jm.assign_node(JOB, &rts[0].tm)?;

        let home = cfg.regions[0].clone();
        Ok(DrDrill {
            consumer: ActivePassiveConsumer::new("dr-consumer", "trips", &home),
            sync: OffsetSyncService::new(topo.mappings().clone()),
            coord: ActiveActiveCoordinator::new(&home),
            kv: ReplicatedKv::new(),
            active_region: home,
            cfg,
            seed,
            clock,
            topo,
            plan,
            rts,
            jm,
            region_killed: BTreeSet::new(),
            committed: BTreeSet::new(),
            seen: BTreeMap::new(),
            compute_emitted: Arc::new(Mutex::new(BTreeMap::new())),
            seq: 0,
            produce_cursor: 0,
        })
    }

    fn rt_index(&self, region: &str) -> usize {
        self.rts.iter().position(|r| r.name == region).unwrap_or(0)
    }

    fn aggregate_up(&self, region: &str) -> bool {
        self.topo
            .region(region)
            .map(|r| !r.aggregate.is_down())
            .unwrap_or(false)
    }

    fn survivor_of(&self, dead: &str) -> Option<String> {
        self.cfg
            .regions
            .iter()
            .find(|r| r.as_str() != dead && self.aggregate_up(r))
            .cloned()
    }

    /// Run the compute job once in `region`: recover from the latest
    /// checkpoint in that region's store view, drain what is currently
    /// available from its aggregate topic (the bounded source snapshots
    /// the high watermarks), and checkpoint as it goes.
    fn run_compute(&self, region: &str) -> Result<()> {
        let rt = &self.rts[self.rt_index(region)];
        let source = TopicSource::bounded(rt.agg_topic.clone())?;
        let emitted = self.compute_emitted.clone();
        let sink = FnSink::new(move |rec: Record| {
            if let Some(id) = rec.value.get_str("id") {
                *emitted.lock().entry(id.to_string()).or_insert(0) += 1;
            }
            Ok(())
        });
        let job = Job::new(
            JOB,
            Box::new(source),
            // the dedup state is the exactly-once proof: restoring it on a
            // redeployed job filters the replayed suffix
            vec![Box::new(DedupOp::new("dr-dedup", vec!["id".into()]))],
            Box::new(sink),
        );
        let cfg = StagedConfig {
            checkpoint_interval: self.cfg.checkpoint_interval,
            checkpoint_store: Some(rt.ckpts.clone()),
            chaos: self.topo.chaos().clone(),
            ..StagedConfig::default()
        };
        run_staged_with(job, &cfg)?;
        Ok(())
    }

    /// Redeploy the compute job into `survivor` after losing `dead`:
    /// read the checkpoint from the survivor's mirror, translate its
    /// source offsets through the offset-sync service, persist the
    /// translated checkpoint and re-run against the survivor topic.
    fn redeploy_compute(&self, dead: &str, survivor: &str) -> Result<()> {
        let target = &self.rts[self.rt_index(survivor)];
        if let Some(mut ckpt) = target.ckpts.latest(JOB)? {
            let sources: Vec<String> = self.cfg.regions.clone();
            let mut translated = Vec::with_capacity(self.cfg.partitions);
            for p in 0..self.cfg.partitions {
                let off = ckpt.source_position.get(p).copied().unwrap_or(0);
                translated.push(
                    self.sync
                        .translate("trips", &sources, dead, survivor, p, off),
                );
            }
            let data = CheckpointData {
                checkpoint_id: ckpt.checkpoint_id + 1,
                source_position: translated,
                operator_state: std::mem::take(&mut ckpt.operator_state),
                records_in: ckpt.records_in,
            };
            target.ckpts.persist(JOB, &data)?;
        }
        self.jm.assign_node(JOB, &target.tm)?;
        self.run_compute(survivor)
    }

    fn apply_strike(&mut self, outage: &RegionOutage) -> Result<()> {
        let region = self.topo.region(&outage.region)?;
        match outage.kind {
            RegionOutageKind::RegionKill => {
                region.fail_region();
                self.rts[self.rt_index(&outage.region)].store.set_down(true);
                self.region_killed.insert(outage.region.clone());
            }
            RegionOutageKind::AggregateLoss => region.fail_aggregate(),
            RegionOutageKind::ReplicatorLag => self.topo.chaos().arm(
                FaultPoint::MultiregionReplicate,
                FaultPlan::fail(FaultKind::Timeout, Trigger::Always),
            ),
        }
        Ok(())
    }

    fn apply_heal(&mut self, outage: &RegionOutage) -> Result<usize> {
        let region = self.topo.region(&outage.region)?;
        let mut resynced = 0;
        match outage.kind {
            RegionOutageKind::RegionKill => {
                region.heal_region();
                self.rts[self.rt_index(&outage.region)]
                    .store
                    .set_down(false);
                self.region_killed.remove(&outage.region);
                for rt in &self.rts {
                    resynced += rt.view.resync().unwrap_or(0);
                }
            }
            RegionOutageKind::AggregateLoss => region.heal_aggregate(),
            RegionOutageKind::ReplicatorLag => {
                self.topo.chaos().disarm(FaultPoint::MultiregionReplicate)
            }
        }
        Ok(resynced)
    }

    fn detected(&self, outage: &RegionOutage) -> bool {
        let Some(m) = self.topo.membership() else {
            return true;
        };
        match outage.kind {
            RegionOutageKind::RegionKill => m.region_is_down(&outage.region),
            RegionOutageKind::AggregateLoss => self
                .topo
                .region(&outage.region)
                .map(|r| r.aggregate.node_names().iter().all(|n| !m.is_live(n)))
                .unwrap_or(false),
            RegionOutageKind::ReplicatorLag => true,
        }
    }

    fn consumer_duplicates(&self) -> u64 {
        self.seen.values().map(|c| c.saturating_sub(1)).sum()
    }

    /// Max replication lag across regions whose aggregate is reachable.
    fn live_lag(&self) -> u64 {
        self.cfg
            .regions
            .iter()
            .filter(|r| self.aggregate_up(r))
            .filter_map(|r| self.topo.aggregate_lag(r).ok())
            .max()
            .unwrap_or(0)
    }

    /// Execute the full drill and return the ledger.
    pub fn run(mut self) -> Result<DrReport> {
        let cfg = self.cfg.clone();
        let produce_until = cfg.warmup_ms + cfg.cycles as i64 * cfg.period_ms;
        let total_ticks = (produce_until / TICK_MS) as usize + cfg.drain_ticks;
        // one name list per row shape: a drill event, a surge row
        let event_names = row_names(["id", "hex", "kind"]);
        let surge_names = row_names(["demand"]);
        let surge_fn = |rows: &[Row]| -> BTreeMap<String, Row> {
            let mut counts: BTreeMap<String, i64> = BTreeMap::new();
            for r in rows {
                if r.get_str("kind") == Some("demand") {
                    let hex = r.get_str("hex").unwrap_or("?").to_string();
                    *counts.entry(hex).or_insert(0) += 1;
                }
            }
            counts
                .into_iter()
                .map(|(hex, n)| (hex, Row::on(Arc::clone(&surge_names), vec![n.into()])))
                .collect()
        };

        let mut cycles: Vec<CycleLedger> = Vec::new();
        let mut active: Option<ActiveState> = None;
        let mut next_outage = 0usize;
        let mut consumer_failovers = 0u64;
        let mut ckpt_resynced = 0usize;
        let mut max_staleness = 0i64;
        let mut last_surge: BTreeMap<String, BTreeMap<String, Row>> = BTreeMap::new();
        let mut consumer_ok = true;

        for tick in 0..total_ticks {
            self.clock.advance(TICK_MS);
            let now = self.clock.now();
            let last_tick = tick + 1 == total_ticks;

            // strike / heal per the seeded schedule
            if active.is_none()
                && next_outage < self.plan.len()
                && self.plan[next_outage].kill_at_ms <= now
            {
                let outage = self.plan[next_outage].clone();
                next_outage += 1;
                self.apply_strike(&outage)?;
                let lag_kind = outage.kind == RegionOutageKind::ReplicatorLag;
                let affected = !lag_kind && outage.region == self.active_region;
                active = Some(ActiveState {
                    cycle: next_outage,
                    detected_at: if lag_kind {
                        Some(outage.kill_at_ms)
                    } else {
                        None
                    },
                    affected,
                    healed_at: None,
                    rto_consume: None,
                    rto_compute: None,
                    rto_query: None,
                    dup_baseline: self.consumer_duplicates(),
                    lag_at_heal: 0,
                    outage,
                });
            }
            if let Some(st) = &mut active {
                if st.healed_at.is_none() && st.outage.heal_at_ms <= now {
                    st.lag_at_heal = {
                        let committed = self.committed.len() as u64;
                        self.cfg
                            .regions
                            .iter()
                            .filter(|r| {
                                self.topo
                                    .region(r)
                                    .map(|x| !x.aggregate.is_down())
                                    .unwrap_or(false)
                            })
                            .filter_map(|r| self.topo.aggregate_count(r).ok())
                            .map(|n| committed.saturating_sub(n))
                            .max()
                            .unwrap_or(0)
                    };
                    ckpt_resynced += self.apply_heal(&st.outage.clone())?;
                    st.healed_at = Some(now);
                }
            }

            // produce into whichever regional clusters are up
            if now <= produce_until {
                for _ in 0..cfg.produce_per_tick {
                    let id = format!("r{:06}", self.seq);
                    let mut target = None;
                    for k in 0..cfg.regions.len() {
                        let cand = &cfg.regions[(self.produce_cursor + k) % cfg.regions.len()];
                        let up = self
                            .topo
                            .region(cand)
                            .map(|x| !x.regional.is_down())
                            .unwrap_or(false);
                        if up {
                            target = Some(cand.clone());
                            break;
                        }
                    }
                    self.produce_cursor = (self.produce_cursor + 1) % cfg.regions.len();
                    if let Some(target) = target {
                        let kind = if self.seq.is_multiple_of(3) {
                            "supply"
                        } else {
                            "demand"
                        };
                        let hex = format!("h{}", self.seq % 4);
                        let cells = vec![id.as_str().into(), hex.into(), kind.into()];
                        let row = Row::on(Arc::clone(&event_names), cells);
                        let mut rec = Record::new(row, now).with_key(id.clone());
                        PipelineTracer::stamp(&mut rec, now);
                        if self.topo.produce(&target, rec, now).is_ok() {
                            self.committed.insert(id);
                        }
                    }
                    self.seq += 1;
                }
            }

            // replication mesh (lag bursts make routes fail here)
            self.topo.replicate(now);

            // heartbeats: task managers of live regions, then every
            // broker, then one shared detector tick
            for rt in &self.rts {
                if !self.region_killed.contains(&rt.name) {
                    if let Some(m) = self.topo.membership() {
                        m.heartbeat(&rt.tm);
                    }
                }
            }
            self.topo.heartbeat_tick();

            // detection -> failover of every serving layer
            let mut just_redeployed = false;
            if let Some(st) = &mut active {
                if st.detected_at.is_none() && self.detected(&st.outage) {
                    st.detected_at = Some(now);
                    if st.affected {
                        if let Some(survivor) = self.survivor_of(&st.outage.region) {
                            let dead = st.outage.region.clone();
                            if self
                                .consumer
                                .fail_over(&self.topo, &self.sync, &survivor)
                                .is_ok()
                            {
                                consumer_failovers += 1;
                            }
                            self.jm.on_region_dead(&dead);
                            self.jm.take_pending_restarts();
                            if self.redeploy_compute(&dead, &survivor).is_ok() {
                                st.rto_compute = Some(now - st.outage.kill_at_ms);
                                just_redeployed = true;
                            }
                            self.active_region = survivor;
                        }
                    }
                }
            }

            // OLAP ingestion for reachable aggregates
            for rt in &mut self.rts {
                let up = self
                    .topo
                    .region(&rt.name)
                    .map(|r| !r.aggregate.is_down())
                    .unwrap_or(false);
                if up {
                    let _ = rt.ingester.run_once();
                }
            }

            // consume layer
            match self.consumer.consume_available(&self.topo) {
                Ok(records) => {
                    for r in &records {
                        if let Some(id) = r.value.get_str("id") {
                            *self.seen.entry(id.to_string()).or_insert(0) += 1;
                        }
                    }
                    if !consumer_ok {
                        if let Some(st) = &mut active {
                            if st.affected && st.rto_consume.is_none() {
                                st.rto_consume = Some(now - st.outage.kill_at_ms);
                            }
                        }
                    }
                    consumer_ok = true;
                }
                Err(_) => consumer_ok = false,
            }

            // compute layer (periodic incremental runs)
            if (tick % 4 == 0 || just_redeployed || last_tick)
                && self.aggregate_up(&self.active_region)
            {
                let region = self.active_region.clone();
                let _ = self.run_compute(&region);
            }

            // surge layer (active-active redundant compute)
            if tick % 8 == 0 || last_tick {
                if let Ok(states) =
                    redundant_compute_round(&self.topo, &self.coord, &self.kv, now, surge_fn)
                {
                    last_surge = states;
                }
            }

            // query layer: route to the active region, degraded answers
            // carry freshness staleness
            let qr = self.active_region.clone();
            if self.aggregate_up(&qr) {
                let rt = &self.rts[self.rt_index(&qr)];
                if let Ok(out) = rt.engine.query("SELECT COUNT(*) AS n FROM trips") {
                    if let Some(st) = &mut active {
                        if st.healed_at.is_none() {
                            if let Some(s) = out.stats.staleness_ms {
                                max_staleness = max_staleness.max(s);
                            }
                        }
                        if st.affected && st.rto_query.is_none() && st.detected_at.is_some() {
                            st.rto_query = Some(now - st.outage.kill_at_ms);
                        }
                    }
                }
            }

            // catch-up bookkeeping: an outage cycle closes once every
            // reachable aggregate holds every committed record
            if let Some(st) = &mut active {
                if let Some(healed_at) = st.healed_at {
                    if now > healed_at && self.live_lag() == 0 {
                        let detect_ms = st
                            .detected_at
                            .map(|t| t - st.outage.kill_at_ms)
                            .unwrap_or(-1);
                        cycles.push(CycleLedger {
                            cycle: st.cycle,
                            kind: st.outage.kind.name(),
                            region: st.outage.region.clone(),
                            kill_ms: st.outage.kill_at_ms,
                            detect_ms,
                            affected: st.affected,
                            rto_consume_ms: st.rto_consume.unwrap_or(0),
                            rto_compute_ms: st.rto_compute.unwrap_or(0),
                            rto_query_ms: st.rto_query.unwrap_or(0),
                            dup_consume: self.consumer_duplicates() - st.dup_baseline,
                            lag_at_heal: st.lag_at_heal,
                            catchup_ms: now - healed_at,
                        });
                        active = None;
                    }
                }
            }
        }

        // a cycle that never caught up is reported, not hidden
        if let Some(st) = active.take() {
            cycles.push(CycleLedger {
                cycle: st.cycle,
                kind: st.outage.kind.name(),
                region: st.outage.region.clone(),
                kill_ms: st.outage.kill_at_ms,
                detect_ms: st
                    .detected_at
                    .map(|t| t - st.outage.kill_at_ms)
                    .unwrap_or(-1),
                affected: st.affected,
                rto_consume_ms: st.rto_consume.unwrap_or(0),
                rto_compute_ms: st.rto_compute.unwrap_or(0),
                rto_query_ms: st.rto_query.unwrap_or(0),
                dup_consume: self.consumer_duplicates() - st.dup_baseline,
                lag_at_heal: st.lag_at_heal,
                catchup_ms: -1,
            });
        }

        // final convergence accounting
        let committed = self.committed.len() as u64;
        let emitted = self.compute_emitted.lock();
        let compute_distinct = emitted.len() as u64;
        let compute_duplicate_emits: u64 = emitted.values().map(|c| c.saturating_sub(1)).sum();
        let lost = self
            .committed
            .iter()
            .filter(|id| !self.seen.contains_key(*id) || !emitted.contains_key(*id))
            .count() as u64;
        drop(emitted);

        let aggregates_equal = self
            .cfg
            .regions
            .iter()
            .all(|r| self.topo.aggregate_count(r).map(|n| n == committed) == Ok(true));
        let first_surge = last_surge.values().next();
        let surge_converged = first_surge.is_some()
            && last_surge.len() == self.cfg.regions.len()
            && last_surge.values().all(|s| Some(s) == first_surge);
        let mut isr_full = true;
        for r in &self.topo.regions {
            for cluster in [&r.regional, &r.aggregate] {
                if let Ok(topic) = cluster.topic("trips") {
                    for p in 0..topic.num_partitions() {
                        if let Some(st) = topic.replica_status(p) {
                            isr_full &= st.isr.len() == st.assignment.len();
                        }
                    }
                }
            }
        }

        Ok(DrReport {
            seed: self.seed,
            regions: self.cfg.regions.clone(),
            partitions: self.cfg.partitions,
            cycles,
            committed,
            consumer_seen: self.seen.len() as u64,
            consumer_duplicates: self.consumer_duplicates(),
            consumer_failovers,
            compute_distinct,
            compute_duplicate_emits,
            lost,
            ckpt_resynced,
            max_staleness_ms: max_staleness,
            aggregates_equal,
            surge_converged,
            isr_full,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drill_runs_clean_with_zero_rpo() {
        let report = DrDrill::new(7, DrConfig::default()).unwrap().run().unwrap();
        assert!(report.committed > 0);
        assert_eq!(report.lost, 0, "RPO must be zero:\n{}", report.summary());
        assert_eq!(report.cycles.len(), 3);
        assert!(report.aggregates_equal, "{}", report.summary());
        assert!(report.surge_converged, "{}", report.summary());
        assert!(report.isr_full, "{}", report.summary());
        assert!(
            report.consumer_duplicates <= report.replay_bound(64),
            "replay beyond the offset-sync bound: {} > {}",
            report.consumer_duplicates,
            report.replay_bound(64)
        );
    }

    #[test]
    fn drill_summary_is_seed_stable() {
        let a = DrDrill::new(42, DrConfig::default())
            .unwrap()
            .run()
            .unwrap()
            .summary();
        let b = DrDrill::new(42, DrConfig::default())
            .unwrap()
            .run()
            .unwrap()
            .summary();
        assert_eq!(a, b, "same seed must produce a byte-identical ledger");
        let c = DrDrill::new(43, DrConfig::default())
            .unwrap()
            .run()
            .unwrap()
            .summary();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn region_kill_failover_detects_and_restores_every_layer() {
        // scan seeds for a plan whose first strike is a region-kill of
        // the home region, so every layer must fail over
        let mut hit = None;
        for seed in 0..64 {
            let plan = Chaos::seeded(seed).plan_region_outages(
                &["west", "east"],
                1,
                20_000,
                40_000,
                15_000,
            );
            if plan[0].kind == RegionOutageKind::RegionKill && plan[0].region == "west" {
                hit = Some(seed);
                break;
            }
        }
        let seed = hit.expect("some seed kills the home region first");
        let cfg = DrConfig {
            cycles: 1,
            ..DrConfig::default()
        };
        let report = DrDrill::new(seed, cfg).unwrap().run().unwrap();
        let cycle = &report.cycles[0];
        assert_eq!(cycle.kind, "region-kill");
        assert!(cycle.affected);
        // the dead deadline is 10s past the last heartbeat, which lands
        // up to one tick before the planned kill instant
        assert!(
            cycle.detect_ms >= 9_000,
            "death is detected, not announced: {}",
            cycle.detect_ms
        );
        assert!(
            cycle.detect_ms <= 12_000,
            "detection overshot the deadline: {}",
            cycle.detect_ms
        );
        assert!(cycle.rto_consume_ms >= cycle.detect_ms);
        assert!(cycle.rto_compute_ms >= cycle.detect_ms);
        assert!(cycle.rto_query_ms >= cycle.detect_ms);
        assert!(cycle.catchup_ms >= 0, "replication caught back up");
        assert_eq!(report.lost, 0, "{}", report.summary());
        assert!(report.consumer_failovers >= 1);
    }
}
