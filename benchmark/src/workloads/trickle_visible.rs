//! `trickle_visible` — the layers of `ingest_drain` used the other way:
//! small writes beside reads.
//!
//! Per round, a table preloaded with 60 000 rows (untimed), then 400
//! micro-batches of 100 records: send → `run_once` → a SQL count over the
//! batch's time range that must include it. One sample is first send →
//! answer. Fixed per-call costs (fetch set-up, locks, planning, the
//! consuming-segment scan) dominate here and per-record costs dominate in
//! `ingest_drain`, so batching harder, or indexing eagerly at ingest, shows
//! as a gain on one and a loss on the other.

use crate::api::{OlapTable, RealtimeIngester, RealtimePlatform, Record};
use crate::gen::{self, RECORDS_PER_MS, TOPIC};
use crate::harness::{span_rates, Check, Names, Probe, Round, Scale, Workload};
use crate::metrics::Values;
use crate::oracle;
use crate::probes;
use crate::trace::Tracer;
use std::time::Instant;

const BATCH: usize = 100;

pub struct TrickleVisible {
    seed: u64,
    scale: Scale,
    preload: usize,
    batches: usize,
}

pub struct Inputs {
    round: u32,
    platform: RealtimePlatform,
    ingester: RealtimeIngester,
    /// The records after the preload, in sending order.
    records: Vec<Record>,
}

impl TrickleVisible {
    /// The SQL of batch `b`: the rows at or after the batch's first event
    /// time, which are exactly the batch (later ones are not sent yet).
    fn visible_sql(&self, b: usize) -> String {
        let first = gen::event_ts(self.preload + b * BATCH);
        format!("SELECT COUNT(*) AS n FROM trips WHERE ts >= {first}")
    }
}

impl Workload for TrickleVisible {
    const NAME: &'static str = "trickle_visible";
    type Inputs = Inputs;

    fn build(seed: u64, scale: Scale) -> Self {
        // whole event-milliseconds per batch, so a batch's time range is its own
        const _: () = assert!(BATCH.is_multiple_of(RECORDS_PER_MS));
        TrickleVisible {
            seed,
            scale,
            preload: scale.of(60_000) / BATCH * BATCH,
            batches: scale.of(400),
        }
    }

    fn names() -> Names {
        Names {
            work_per_s: "rec_per_s",
            latency: "visible",
            allocs: "allocs_per_rec",
        }
    }

    fn units(&self) -> u64 {
        (self.batches * BATCH) as u64
    }

    fn prepare(&mut self, round: u32, check: &mut Check) -> Inputs {
        let total = self.preload + self.batches * BATCH;
        let mut records = gen::trips(gen::round_seed(self.seed, round), total).0;
        let timed = records.split_off(self.preload);
        let (platform, _topic) = probes::loaded_platform(records);
        let table = platform
            .create_olap_table(gen::trips_table("trips", self.scale.of(10_000)))
            .expect("a fresh platform accepts the table");
        let mut ingester = platform
            .ingest_into(TOPIC, table)
            .expect("topic and table have the same partitions");
        check.reflecting("preload run_once", self.preload as u64, ingester.run_once());
        Inputs {
            round,
            platform,
            ingester,
            records: timed,
        }
    }

    fn round(&mut self, inputs: Inputs, tr: &mut Tracer, check: &mut Check) -> Round {
        let Inputs {
            round,
            platform,
            mut ingester,
            records,
        } = inputs;
        let producer = platform.producer("bench");
        let mut records = records.into_iter();
        let mut latencies_ms = Vec::with_capacity(self.batches);
        let clock = tr.begin_round(round);
        for b in 0..self.batches {
            let first_send = Instant::now();
            let (errors, _) = tr.call("stream", "produce", BATCH as u64, || {
                records
                    .by_ref()
                    .take(BATCH)
                    .map(|r| producer.send(TOPIC, r))
                    .filter(Result::is_err)
                    .count()
            });
            let (ingested, _) = tr.call("olap", "ingest", BATCH as u64, || ingester.run_once());
            let sql = self.visible_sql(b);
            let (answer, _) = tr.call("sql", "visible", 1, || platform.sql(&sql));
            latencies_ms.push(first_send.elapsed().as_secs_f64() * 1e3);
            check.that(errors == 0, || format!("{errors} sends of a batch refused"));
            check.call("run_once", ingested);
            check.reflecting("batch visible", BATCH as u64, answer.map(oracle::count_of));
        }
        let (wall_s, allocs) = tr.end_round(clock);
        Round::new(wall_s, allocs, latencies_ms)
    }

    fn per_layer(&mut self, probe: &mut Probe, out: &mut Values) {
        span_rates(probe.tr, out, "stream", "produce");
        span_rates(probe.tr, out, "olap", "ingest");
        probes::stream(probe, out);
        probes::olap_write(probe, out);
        // the plan of the workload's own query, against an engine that has the table
        let table = OlapTable::new(gen::trips_table("trips", 1)).expect("valid table config");
        let (engine, _pinot) = probes::engine_over(table);
        let sqls: Vec<String> = (0..10).map(|b| self.visible_sql(b)).collect();
        probes::sql_plan(&engine, &sqls, probe, out);
    }
}
