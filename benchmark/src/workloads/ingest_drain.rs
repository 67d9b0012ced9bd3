//! `ingest_drain` — the write path in large batches: Fig. 3's journey.
//!
//! Per round, on a fresh platform: `producer.send` N records → the FlinkSQL
//! windowed job into `trip_stats` → realtime ingest of the raw topic into
//! `trips` → three SQL checks. `stream`, `compute` and `olap` ingest each do
//! a large share of a round and `sql` almost none, so a per-record saving in
//! any of the three shows here, and a read-side change must not.

use crate::api::{CompileOptions, JobRunStats, OlapTable, RealtimePlatform, Record};
use crate::gen::{self, Trip, TOPIC, TUMBLE_SQL};
use crate::harness::{span_rates, Check, Names, Probe, Round, Scale, Workload};
use crate::metrics::Values;
use crate::oracle::{self, Agg};
use crate::probes;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::sync::Arc;

pub struct IngestDrain {
    seed: u64,
    scale: Scale,
    records: usize,
    last_job: JobRunStats,
}

pub struct Inputs {
    round: u32,
    platform: RealtimePlatform,
    trip_stats: Arc<OlapTable>,
    trips: Arc<OlapTable>,
    records: Vec<Record>,
    by_city: HashMap<String, Agg>,
}

impl Workload for IngestDrain {
    const NAME: &'static str = "ingest_drain";
    type Inputs = Inputs;

    fn build(seed: u64, scale: Scale) -> Self {
        IngestDrain {
            seed,
            scale,
            records: scale.of(40_000),
            last_job: JobRunStats::default(),
        }
    }

    fn names() -> Names {
        Names {
            work_per_s: "rec_per_s",
            latency: "check_query",
            allocs: "allocs_per_rec",
        }
    }

    fn units(&self) -> u64 {
        self.records as u64
    }

    fn prepare(&mut self, round: u32, _check: &mut Check) -> Inputs {
        let (records, plain) = gen::trips(gen::round_seed(self.seed, round), self.records);
        let (platform, _topic) = probes::fresh_platform();
        let table = |config| {
            platform
                .create_olap_table(config)
                .expect("a fresh platform accepts the table")
        };
        Inputs {
            round,
            trip_stats: table(gen::trip_stats_table()),
            trips: table(gen::trips_table("trips", self.scale.of(10_000))),
            platform,
            records,
            by_city: oracle::group_by(&plain, |t: &Trip| t.city.clone()),
        }
    }

    fn round(&mut self, inputs: Inputs, tr: &mut Tracer, check: &mut Check) -> Round {
        let Inputs {
            round,
            platform,
            trip_stats,
            trips,
            records,
            by_city,
        } = inputs;
        let n = self.units();
        let clock = tr.begin_round(round);

        let (errors, _) = tr.call("stream", "produce", n, || {
            let producer = platform.producer("bench");
            records
                .into_iter()
                .map(|r| producer.send(TOPIC, r))
                .filter(Result::is_err)
                .count()
        });
        let (job, _) = tr.call("compute", "job", n, || {
            platform.deploy_sql_pipeline(
                "trip-stats",
                TUMBLE_SQL,
                TOPIC,
                trip_stats,
                &CompileOptions::default(),
            )
        });
        let (ingested, _) = tr.call("olap", "ingest", n, || {
            platform.ingest_into(TOPIC, trips)?.run_once()
        });
        let mut latencies_ms = Vec::with_capacity(3);
        let mut sql = |q: &str| {
            let (out, s) = tr.call("sql", "check", 1, || platform.sql(q));
            latencies_ms.push(s * 1e3);
            out
        };
        let in_stats = sql("SELECT SUM(trips) AS n FROM trip_stats");
        let in_trips = sql("SELECT COUNT(*) AS n FROM trips");
        let top =
            sql("SELECT city, COUNT(*) AS n FROM trips GROUP BY city ORDER BY n DESC LIMIT 10");
        let (wall_s, allocs) = tr.end_round(clock);

        check.reflected("producer.send", n, n - errors as u64);
        if let Some(job) = check.call("deploy_sql_pipeline", job) {
            check.reflected("job records_in", n, job.records_in);
            self.last_job = job;
        }
        check.reflecting("ingest_into + run_once", n, ingested);
        check.reflecting(
            "SUM(trips) over trip_stats",
            n,
            in_stats.map(oracle::count_of),
        );
        check.reflecting("COUNT(*) over trips", n, in_trips.map(oracle::count_of));
        let top = check.call("sql", top).map(|o| o.rows).unwrap_or_default();
        check.that(
            oracle::is_top_by_count(&top, "city", false, &by_city, 10),
            || format!("top-10 cities differ from the oracle: {top:?}"),
        );
        Round::new(wall_s, allocs, latencies_ms)
    }

    fn per_layer(&mut self, probe: &mut Probe, out: &mut Values) {
        span_rates(probe.tr, out, "stream", "produce");
        span_rates(probe.tr, out, "compute", "job");
        span_rates(probe.tr, out, "olap", "ingest");
        let job = &self.last_job;
        out.set("compute.records_out", job.records_out as f64);
        out.set("compute.checkpoints_taken", job.checkpoints_taken as f64);
        out.set("compute.peak_state_bytes", job.peak_state_bytes as f64);
        probes::stream(probe, out);
        probes::compute(probe, out);
        probes::late_drops_city_keyed(probe, out);
        probes::olap_write(probe, out);
    }
}
