//! The [`RealtimePlatform`] facade: Figure 3 in one object.
//!
//! Wires together the federated streaming layer, the compute job manager,
//! the OLAP store, the federated SQL engine, the archival warehouse and
//! the metadata services, and exposes the self-serve operations the paper
//! highlights: topic provisioning with schema registration (§9.4), SQL
//! pipeline deployment (§4.2.1), OLAP table creation with Presto
//! visibility (§4.3.3), archival + compaction (§4.4) and one-call
//! backfills (§7, §10: "Backfilling data across regions is as simple as
//! clicking a button").

use crate::metadata::{LineageGraph, SchemaRegistry};
use crate::usage::{Component, UsageTracker};
use rtdi_common::{
    Chaos, Clock, Error, PipelineTracer, Record, Result, Schema, Timestamp, TraceReport, WallClock,
};
use rtdi_compute::jobmanager::{JobHealth, JobManager, JobSpec, JobType};
use rtdi_compute::runtime::{run_staged_with, CheckpointStore, JobRunStats, StagedConfig};
use rtdi_compute::sink::Sink;
use rtdi_flinksql::compiler::{compile_batch, compile_streaming, CompileOptions};
use rtdi_flinksql::sinks::PinotSink;
use rtdi_olap::ingestion::{IngestionConfig, RealtimeIngester};
use rtdi_olap::table::{OlapTable, TableConfig};
use rtdi_sql::connector::{HiveConnector, PinotConnector};
use rtdi_sql::engine::{EngineConfig, QueryOutput, SqlEngine};
use rtdi_storage::archival::{ArchivalWriter, Compactor};
use rtdi_storage::hive::HiveCatalog;
use rtdi_storage::object::{FaultyStore, InMemoryStore, ObjectStore};
use rtdi_stream::chaperone::Chaperone;
use rtdi_stream::cluster::{Cluster, ClusterConfig};
use rtdi_stream::federation::FederatedCluster;
use rtdi_stream::producer::{Producer, ProducerConfig, StreamEndpoint};
use rtdi_stream::topic::{Topic, TopicConfig};
use std::sync::Arc;

/// Loss/duplication audit for one hop of a pipeline, computed by
/// Chaperone from the `{topic}/stream` vs `{topic}/ingested` counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineAudit {
    pub pipeline: String,
    pub from_stage: String,
    pub to_stage: String,
    pub lost: u64,
    pub duplicated: u64,
}

/// Point-in-time snapshot of pipeline health across the platform:
/// per-stage dwell percentiles from the freshness tracer plus Chaperone's
/// completeness audits. This is what the paper's monitoring stack (§8)
/// alerts on: data should be fresh ("seconds, not minutes", §5.1) and
/// complete (zero loss).
#[derive(Debug, Clone)]
pub struct PlatformHealth {
    pub generated_at: Timestamp,
    pub report: TraceReport,
    pub audits: Vec<PipelineAudit>,
}

impl PlatformHealth {
    /// True when every audited hop saw neither loss nor duplication.
    pub fn zero_loss(&self) -> bool {
        self.audits.iter().all(|a| a.lost == 0 && a.duplicated == 0)
    }
}

/// The unified platform.
pub struct RealtimePlatform {
    federation: FederatedCluster,
    store: Arc<dyn ObjectStore>,
    catalog: HiveCatalog,
    registry: SchemaRegistry,
    lineage: LineageGraph,
    chaperone: Chaperone,
    pinot: Arc<PinotConnector>,
    engine: SqlEngine,
    job_manager: JobManager,
    usage: UsageTracker,
    tracer: PipelineTracer,
    clock: Arc<dyn Clock>,
    chaos: Chaos,
}

impl RealtimePlatform {
    /// A platform with one physical cluster and in-memory storage — the
    /// laptop-scale equivalent of Figure 3.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock))
    }

    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self::with_chaos(clock, Chaos::default())
    }

    /// [`RealtimePlatform::with_clock`] under a fault-injection handle the
    /// caller keeps a clone of: the federation and its cluster, the object
    /// store and every supervised or backfill job check it.
    pub fn with_chaos(clock: Arc<dyn Clock>, chaos: Chaos) -> Self {
        let federation = FederatedCluster::new().with_chaos(chaos.clone());
        federation.add_cluster(Cluster::with_chaos(
            "cluster-1",
            ClusterConfig::default(),
            chaos.clone(),
        ));
        let tracer = PipelineTracer::default();
        let chaperone = Chaperone::new(60_000);
        // every broker append records the "stream" hop and a
        // `{topic}/stream` audit observation
        federation.set_tracer(tracer.clone());
        federation.set_chaperone(chaperone.clone());
        let store: Arc<dyn ObjectStore> =
            Arc::new(FaultyStore::new(InMemoryStore::new()).with_chaos(chaos.clone()));
        let catalog = HiveCatalog::new(store.clone());
        let pinot = Arc::new(PinotConnector::new());
        let mut engine = SqlEngine::new(EngineConfig::default());
        engine.register_connector("pinot", pinot.clone());
        engine.register_connector("hive", Arc::new(HiveConnector::new(catalog.clone())));
        let job_manager = JobManager::new(
            StagedConfig {
                checkpoint_interval: 10_000,
                checkpoint_store: Some(CheckpointStore::new(store.clone())),
                chaos: chaos.clone(),
                ..StagedConfig::default()
            },
            3,
        );
        RealtimePlatform {
            federation,
            store,
            catalog,
            registry: SchemaRegistry::new(),
            lineage: LineageGraph::new(),
            chaperone,
            pinot,
            engine,
            job_manager,
            usage: UsageTracker::new(),
            tracer,
            clock,
            chaos,
        }
    }

    /// The handle everything this platform built takes its faults from.
    pub fn chaos(&self) -> &Chaos {
        &self.chaos
    }

    pub fn federation(&self) -> &FederatedCluster {
        &self.federation
    }

    pub fn registry(&self) -> &SchemaRegistry {
        &self.registry
    }

    pub fn lineage(&self) -> &LineageGraph {
        &self.lineage
    }

    pub fn chaperone(&self) -> &Chaperone {
        &self.chaperone
    }

    pub fn catalog(&self) -> &HiveCatalog {
        &self.catalog
    }

    /// The object store under the warehouse, the checkpoints and the
    /// deep-store segments.
    pub fn store(&self) -> &Arc<dyn ObjectStore> {
        &self.store
    }

    pub fn usage(&self) -> &UsageTracker {
        &self.usage
    }

    pub fn job_manager(&self) -> &JobManager {
        &self.job_manager
    }

    /// The pipeline-wide freshness tracer shared by every layer.
    pub fn tracer(&self) -> &PipelineTracer {
        &self.tracer
    }

    /// Snapshot freshness and completeness across all traced pipelines.
    /// Audits are emitted for each pipeline whose records were observed
    /// both at the broker (`{topic}/stream`) and after OLAP ingestion
    /// (`{topic}/ingested`).
    pub fn health(&self) -> PlatformHealth {
        let report = self.tracer.report();
        let stages = self.chaperone.stage_names();
        let mut audits = Vec::new();
        for pipeline in self.tracer.pipelines() {
            let up = format!("{pipeline}/stream");
            let down = format!("{pipeline}/ingested");
            if stages.contains(&up) && stages.contains(&down) {
                let (lost, duplicated) = self.chaperone.loss_and_duplication(&up, &down);
                audits.push(PipelineAudit {
                    pipeline,
                    from_stage: up,
                    to_stage: down,
                    lost,
                    duplicated,
                });
            }
        }
        PlatformHealth {
            generated_at: self.clock.now(),
            report,
            audits,
        }
    }

    /// Condense a pipeline's traced freshness into a [`JobHealth`] the
    /// job manager's rule engine can evaluate (worst stage p99 drives the
    /// `stale-pipeline-restart` rule).
    pub fn job_health_for(&self, pipeline: &str) -> JobHealth {
        let report = self.tracer.report();
        let p99 = report
            .pipeline(pipeline)
            .iter()
            .map(|s| s.p99_ms)
            .max()
            .unwrap_or(0);
        JobHealth {
            freshness_p99_ms: p99,
            ..Default::default()
        }
    }

    /// Provision a topic with a registered, compatibility-checked schema
    /// (§9.4 "seamless onboarding").
    pub fn create_topic(
        &self,
        name: &str,
        config: TopicConfig,
        schema: Schema,
    ) -> Result<Arc<Topic>> {
        self.usage.note(Component::Stream);
        self.registry.register(&format!("kafka.{name}"), schema)?;
        self.federation.create_topic(name, config)?;
        let sub = self.federation.subscribe(name)?;
        Ok(sub.topic())
    }

    /// A thin producer for a service (§9.2's "thin client").
    pub fn producer(&self, service: &str) -> Producer {
        self.usage.note(Component::Stream);
        Producer::with_clock(
            Arc::new(self.federation.clone()),
            ProducerConfig {
                service: service.to_string(),
                ..Default::default()
            },
            self.clock.clone(),
        )
    }

    /// Produce one record (convenience; services normally hold a
    /// [`Producer`]).
    pub fn produce(&self, topic: &str, record: Record) -> Result<()> {
        self.usage.note(Component::Stream);
        self.federation
            .send(topic, Arc::new(record), self.clock.now())?;
        Ok(())
    }

    /// Create an OLAP table, register it with the schema service and make
    /// it queryable through the SQL layer (§4.3.3 integration).
    pub fn create_olap_table(&self, config: TableConfig) -> Result<Arc<OlapTable>> {
        self.usage.note(Component::Olap);
        self.registry
            .register(&format!("pinot.{}", config.name), config.schema.clone())?;
        let table = OlapTable::new(config)?;
        self.pinot.register(table.clone());
        Ok(table)
    }

    /// Connect a topic to an OLAP table with a realtime ingester.
    pub fn ingest_into(&self, topic: &str, table: Arc<OlapTable>) -> Result<RealtimeIngester> {
        self.usage.note(Component::Stream);
        self.usage.note(Component::Olap);
        let sub = self.federation.subscribe(topic)?;
        self.lineage.record(
            &format!("kafka.{topic}"),
            &format!("pinot.{}", table.name()),
            "ingestion",
        );
        RealtimeIngester::new(
            sub.topic(),
            table,
            IngestionConfig {
                // pairs with the `{topic}/stream` observation the
                // federation records on append, forming the audit hop
                audit_stage: format!("{topic}/ingested"),
                ..Default::default()
            },
        )
        .map(|i| {
            i.with_chaperone(self.chaperone.clone())
                .with_tracer(self.tracer.clone())
                .with_clock(self.clock.clone())
        })
    }

    /// Deploy a FlinkSQL pipeline: compile the statement against a source
    /// topic, sink into an OLAP table, run under job-manager supervision
    /// (bounded: processes what is currently in the topic). §4.2.1:
    /// "users of all technical levels can run their streaming processing
    /// applications in production in a span of mere hours."
    pub fn deploy_sql_pipeline(
        &self,
        name: &str,
        sql: &str,
        source_topic: &str,
        sink_table: Arc<OlapTable>,
        options: &CompileOptions,
    ) -> Result<JobRunStats> {
        self.usage.note(Component::Sql);
        self.usage.note(Component::Compute);
        self.usage.note(Component::Stream);
        self.usage.note(Component::Olap);
        let sub = self.federation.subscribe(source_topic)?;
        self.lineage.record(
            &format!("kafka.{source_topic}"),
            &format!("flink.{name}"),
            name,
        );
        self.lineage.record(
            &format!("flink.{name}"),
            &format!("pinot.{}", sink_table.name()),
            name,
        );
        let spec = sql_pipeline_spec(name, sql, sub.topic(), sink_table, options)?;
        self.job_manager.supervise(&spec)
    }

    /// Federated SQL over Pinot (default catalog) and Hive (§4.5).
    pub fn sql(&self, query: &str) -> Result<QueryOutput> {
        self.usage.note(Component::Sql);
        self.usage.note(Component::Olap);
        // record query-time staleness for every traced pipeline the query
        // mentions (substring match is a heuristic — topic and table names
        // coincide on this platform, so it tags the right pipelines)
        let now = self.clock.now();
        for pipeline in self.tracer.pipelines() {
            if query.contains(pipeline.as_str()) {
                self.tracer.note_query(&pipeline, now);
            }
        }
        self.engine.query(query)
    }

    /// Archive everything currently in a topic into the warehouse raw
    /// logs and compact into a queryable Hive table (§4.4). Registers the
    /// table on first call.
    pub fn archive_topic(&self, topic: &str, schema: &Schema) -> Result<usize> {
        self.usage.note(Component::Storage);
        let sub = self.federation.subscribe(topic)?;
        let t = sub.topic();
        let writer = ArchivalWriter::new(self.store.clone(), topic);
        let mut fetched = Vec::new();
        for p in 0..t.num_partitions() {
            let log = t
                .partition(p)
                .ok_or_else(|| Error::NotFound(format!("partition {p} of topic '{topic}'")))?;
            fetched.extend(log.fetch(log.log_start_offset(), usize::MAX / 2)?.records);
        }
        if fetched.is_empty() {
            return Ok(0);
        }
        // encoded from the log's own handles: no record is copied
        let written = writer.write_records(fetched.iter().map(|r| &*r.record))?;
        if self.catalog.table(topic).is_err() {
            self.catalog.create_table(topic, schema.clone())?;
        }
        self.lineage.record(
            &format!("kafka.{topic}"),
            &format!("hive.{topic}"),
            "archival",
        );
        let compactor = Compactor::new(self.store.clone(), self.catalog.clone());
        let mut rows = 0;
        // one object per date
        for (date, _) in written {
            rows += compactor.compact(topic, &date, schema)?;
        }
        Ok(rows)
    }

    /// One-call backfill (§7 Kappa+ SQL mode): run `sql` over the archived
    /// `[from, to)` range of a dataset into a sink.
    pub fn backfill_sql(
        &self,
        name: &str,
        sql: &str,
        dataset: &str,
        from: Timestamp,
        to: Timestamp,
        sink: Box<dyn Sink>,
    ) -> Result<JobRunStats> {
        self.usage.note(Component::Sql);
        self.usage.note(Component::Compute);
        self.usage.note(Component::Storage);
        let table = self.catalog.table(dataset)?;
        let job = compile_batch(
            name,
            sql,
            &table,
            from,
            to,
            sink,
            &CompileOptions::default(),
        )?;
        let config = StagedConfig {
            chaos: self.chaos.clone(),
            ..StagedConfig::default()
        };
        run_staged_with(job, &config)
    }
}

/// The supervised job of a FlinkSQL pipeline. Compiling the statement here
/// surfaces its errors at deploy time, not at run time, and the compiled
/// chain — not the SQL text, where 'group by' can sit in a string literal
/// — says whether the job holds state (§4.2.1 sizes the two differently).
fn sql_pipeline_spec(
    name: &str,
    sql: &str,
    topic: Arc<Topic>,
    sink_table: Arc<OlapTable>,
    options: &CompileOptions,
) -> Result<JobSpec> {
    let validated = compile_streaming(
        name,
        sql,
        topic.clone(),
        Box::new(rtdi_compute::sink::CollectSink::new()),
        &CompileOptions::default(),
    )?;
    let sql_owned = sql.to_string();
    let name_owned = name.to_string();
    let options = options.clone();
    Ok(JobSpec {
        name: name.to_string(),
        job_type: if validated.operators.iter().any(|op| op.is_stateful()) {
            JobType::WindowedAggregation
        } else {
            JobType::Stateless
        },
        expected_records_per_sec: 10_000,
        factory: Box::new(move || {
            compile_streaming(
                &name_owned,
                &sql_owned,
                topic.clone(),
                Box::new(PinotSink::new(sink_table.clone())),
                &options,
            )
        }),
    })
}

impl Default for RealtimePlatform {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdi_common::{FieldType, Row, SimClock, Value};
    use rtdi_olap::query::Query;

    fn trips_schema() -> Schema {
        Schema::of(
            "trips",
            &[
                ("city", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    fn platform() -> RealtimePlatform {
        RealtimePlatform::with_clock(Arc::new(SimClock::new(1_000_000)))
    }

    fn produce_trips(p: &RealtimePlatform, n: usize) {
        produce(p, "trips", n);
    }

    fn produce(p: &RealtimePlatform, topic: &str, n: usize) {
        let producer = p.producer("trip-service");
        for i in 0..n {
            producer
                .send(
                    topic,
                    Record::new(
                        Row::new()
                            .with("city", ["sf", "la"][i % 2])
                            .with("fare", 10.0 + (i % 5) as f64)
                            .with("ts", (i as i64) * 100),
                        (i as i64) * 100,
                    )
                    .with_key(format!("t{i}")),
                )
                .unwrap();
        }
    }

    #[test]
    fn end_to_end_stream_to_sql() {
        let p = platform();
        p.create_topic(
            "trips",
            TopicConfig::default().with_partitions(2),
            trips_schema(),
        )
        .unwrap();
        produce_trips(&p, 100);
        // raw ingestion into an OLAP table
        let table = p
            .create_olap_table(
                TableConfig::new("trips", trips_schema())
                    .with_time_column("ts")
                    .with_partitions(2)
                    .with_segment_rows(32),
            )
            .unwrap();
        let mut ingester = p.ingest_into("trips", table).unwrap();
        assert_eq!(ingester.run_once().unwrap(), 100);
        // federated SQL with pushdown answers over fresh data
        let out = p
            .sql("SELECT city, COUNT(*) AS n FROM trips GROUP BY city ORDER BY n DESC")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        let total: i64 = out.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 100);
        // schema service knows both sides
        assert!(p.registry().latest("kafka.trips").is_ok());
        assert!(p.registry().latest("pinot.trips").is_ok());
        // lineage recorded
        assert!(p
            .lineage()
            .impact("kafka.trips")
            .contains(&"pinot.trips".to_string()));
    }

    const TRIP_WINDOWS_SQL: &str = "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS trips \
                                    FROM trips GROUP BY city, TUMBLE(ts, 1000)";

    /// A platform with 100 trips in the topic and an empty `trip_stats`.
    fn platform_with_trip_stats() -> (RealtimePlatform, Arc<OlapTable>) {
        let p = platform();
        p.create_topic(
            "trips",
            TopicConfig::default().with_partitions(2),
            trips_schema(),
        )
        .unwrap();
        produce_trips(&p, 100);
        let stats_schema = Schema::of(
            "trip_stats",
            &[
                ("city", FieldType::Str),
                ("w", FieldType::Timestamp),
                ("trips", FieldType::Int),
                ("ingest_ts", FieldType::Timestamp),
            ],
        );
        let sink_table = p
            .create_olap_table(
                TableConfig::new("trip_stats", stats_schema)
                    .with_time_column("ingest_ts")
                    .with_partitions(2),
            )
            .unwrap();
        (p, sink_table)
    }

    #[test]
    fn sql_pipeline_deploys_and_fills_pinot() {
        let (p, sink_table) = platform_with_trip_stats();
        let stats = p
            .deploy_sql_pipeline(
                "trip-windows",
                TRIP_WINDOWS_SQL,
                "trips",
                sink_table.clone(),
                &CompileOptions::default(),
            )
            .unwrap();
        assert_eq!(stats.records_in, 100);
        let q = Query::select_all("trip_stats")
            .aggregate("total", rtdi_common::AggFn::Sum("trips".into()));
        assert_eq!(
            sink_table.query(&q).unwrap().rows[0].get_double("total"),
            Some(100.0)
        );
        // bad SQL rejected at deploy time
        assert!(p
            .deploy_sql_pipeline(
                "bad",
                "SELECT city FROM trips ORDER BY city",
                "trips",
                sink_table,
                &CompileOptions::default(),
            )
            .is_err());
    }

    #[test]
    fn sql_job_type_comes_from_the_compiled_chain_not_the_text() {
        let (p, sink_table) = platform_with_trip_stats();
        let topic = p.federation.subscribe("trips").unwrap().topic();
        let job_type = |sql: &str| {
            let options = CompileOptions::default();
            sql_pipeline_spec("j", sql, topic.clone(), sink_table.clone(), &options)
                .unwrap()
                .job_type
        };
        // the words in a string literal do not make a job stateful
        assert_eq!(
            job_type("SELECT city FROM trips WHERE note = 'group by'"),
            JobType::Stateless
        );
        // and an aggregate is one however its keywords are cased
        assert_eq!(
            job_type(
                "select city, tumble(ts, 1000) as w, count(*) as trips \
                 from trips group by city, tumble(ts, 1000)"
            ),
            JobType::WindowedAggregation
        );
    }

    #[test]
    fn parallelism_hint_runs_sharded_on_the_platform_path() {
        let run = |hint: &str| {
            let (p, sink_table) = platform_with_trip_stats();
            let sql = format!("{hint}{TRIP_WINDOWS_SQL}");
            let stats = p
                .deploy_sql_pipeline(
                    "trip-windows",
                    &sql,
                    "trips",
                    sink_table.clone(),
                    &CompileOptions::default(),
                )
                .unwrap();
            let mut rows = sink_table
                .query(&Query::select_all("trip_stats"))
                .unwrap()
                .rows;
            rows.sort_by_key(|r| format!("{r:?}"));
            (stats, rows)
        };
        let (plain, plain_rows) = run("");
        let (hinted, hinted_rows) = run("/*+ PARALLELISM(4) */ ");
        assert!(plain.stages.iter().all(|s| s.shards.is_empty()));
        let sharded = hinted
            .stages
            .iter()
            .find(|s| s.stage.ends_with("[x4]"))
            .expect("the hint must reach the engine the platform runs");
        assert_eq!(sharded.shards.len(), 4);
        assert_eq!(plain_rows.len(), 20, "10 windows x 2 cities");
        assert_eq!(hinted_rows, plain_rows);
    }

    #[test]
    fn archive_then_backfill_sql() {
        let p = platform();
        p.create_topic(
            "trips",
            TopicConfig::default().with_partitions(2),
            trips_schema(),
        )
        .unwrap();
        produce_trips(&p, 50);
        let rows = p.archive_topic("trips", &trips_schema()).unwrap();
        assert_eq!(rows, 50);
        // warehouse table queryable through federated SQL (hive catalog)
        let out = p.sql("SELECT COUNT(*) AS n FROM hive.trips").unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(50));
        // backfill: same FlinkSQL over the archive
        let sink = rtdi_compute::sink::CollectSink::new();
        let stats = p
            .backfill_sql(
                "trips-backfill",
                "SELECT city, TUMBLE(ts, 1000) AS w, COUNT(*) AS n \
                 FROM trips GROUP BY city, TUMBLE(ts, 1000)",
                "trips",
                0,
                i64::MAX,
                Box::new(sink.clone()),
            )
            .unwrap();
        assert_eq!(stats.records_in, 50);
        let total: i64 = sink.rows().iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn archiving_a_topic_again_never_shrinks_its_table() {
        // archive_topic re-reads the topic from its start: the second call
        // adds a part file per date beside the first, it must not replace it
        let p = platform();
        p.create_topic(
            "trips",
            TopicConfig::default().with_partitions(2),
            trips_schema(),
        )
        .unwrap();
        produce_trips(&p, 30);
        assert_eq!(p.archive_topic("trips", &trips_schema()).unwrap(), 30);
        produce_trips(&p, 20);
        assert_eq!(p.archive_topic("trips", &trips_schema()).unwrap(), 50);
        let table = p.catalog().table("trips").unwrap();
        assert_eq!(table.row_count(), 80);
        assert_eq!(table.scan_all().unwrap().len(), 80);
        let out = p.sql("SELECT COUNT(*) AS n FROM hive.trips").unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(80));
    }

    #[test]
    fn archiving_a_topic_whose_name_holds_a_slash_compacts_it() {
        // the dates to compact were once parsed out of the object keys,
        // `raw/<topic>/<date>/..`: for `eats/orders` that read `orders`, and
        // nothing was compacted
        let p = platform();
        let topic = "eats/orders";
        p.create_topic(
            topic,
            TopicConfig::default().with_partitions(2),
            trips_schema(),
        )
        .unwrap();
        produce(&p, topic, 30);
        assert_eq!(p.archive_topic(topic, &trips_schema()).unwrap(), 30);
        assert_eq!(p.store().list("raw/").unwrap(), Vec::<String>::new());
        let table = p.catalog().table(topic).unwrap();
        assert_eq!(table.scan_all().unwrap().len(), 30);
    }

    #[test]
    fn usage_tracker_builds_table1_rows() {
        let p = platform();
        p.usage().begin_use_case("Surge");
        p.create_topic("trips", TopicConfig::high_throughput(), trips_schema())
            .unwrap();
        produce_trips(&p, 4);
        p.usage().end_use_case();
        assert!(p.usage().uses("Surge", Component::Stream));
        assert!(!p.usage().uses("Surge", Component::Sql));
        let table = p.usage().render_table();
        assert!(table.contains("Surge"));
    }

    #[test]
    fn schema_evolution_enforced_on_topics() {
        let p = platform();
        p.create_topic("trips", TopicConfig::default(), trips_schema())
            .unwrap();
        // incompatible schema change rejected by the registry
        let mut breaking = trips_schema();
        breaking.fields.retain(|f| f.name != "fare");
        assert!(p.registry().register("kafka.trips", breaking).is_err());
        let mut compatible = trips_schema();
        compatible
            .fields
            .push(rtdi_common::Field::new("tip", FieldType::Double));
        assert!(p.registry().register("kafka.trips", compatible).is_ok());
    }

    #[test]
    fn upsert_table_via_platform() {
        let p = platform();
        p.create_topic(
            "fares",
            TopicConfig::lossless().with_partitions(4),
            trips_schema(),
        )
        .unwrap();
        let schema = Schema::of(
            "fares",
            &[
                ("trip_id", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        );
        let table = p
            .create_olap_table(
                TableConfig::new("fares", schema)
                    .with_upsert("trip_id")
                    .with_partitions(4),
            )
            .unwrap();
        let producer = p.producer("fare-service");
        for i in 0..20 {
            producer
                .send(
                    "fares",
                    Record::new(
                        Row::new()
                            .with("trip_id", format!("t{i}"))
                            .with("fare", 10.0)
                            .with("ts", i as i64),
                        i as i64,
                    )
                    .with_key(format!("t{i}")),
                )
                .unwrap();
        }
        // correction
        producer
            .send(
                "fares",
                Record::new(
                    Row::new()
                        .with("trip_id", "t5")
                        .with("fare", 42.0)
                        .with("ts", 100i64),
                    100,
                )
                .with_key("t5"),
            )
            .unwrap();
        let mut ing = p.ingest_into("fares", table.clone()).unwrap();
        ing.run_once().unwrap();
        let out = p.sql("SELECT COUNT(*) AS n FROM fares").unwrap();
        assert_eq!(out.rows[0].get_int("n"), Some(20));
        assert_eq!(
            table.lookup(&Value::Str("t5".into()), "fare"),
            Some(Value::Double(42.0))
        );
    }
}
