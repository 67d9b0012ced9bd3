//! `archive_backfill` — the batch path; `olap` idle.
//!
//! Per round, N records already in the topic (untimed): `archive_topic`
//! (raw-log write + compaction into Hive) → five federated SQL queries over
//! `hive.trips` → `backfill_sql` (the pipeline's tumbling SQL over the
//! archive into a `CollectSink`). It is the only workload that drives
//! `storage` and the batch source of `compute`. N is pinned: `archive_topic`
//! is super-linear in N at the seed (`storage.archive_scaling_ratio`).

use crate::api::{CollectSink, RealtimePlatform};
use crate::gen::{self, Trip, TOPIC, TUMBLE_SQL, WINDOW_MS};
use crate::harness::{at_reference, span_us_per_rec, Check, Names, Probe, Round, Scale, Workload};
use crate::metrics::Values;
use crate::oracle::{self, Agg};
use crate::probes;
use crate::trace::Tracer;
use std::collections::HashMap;

const HIVE_QUERIES: usize = 5;
const HIVE_SQL: &str =
    "SELECT city, COUNT(*) AS n FROM hive.trips GROUP BY city ORDER BY n DESC LIMIT 5";

pub struct ArchiveBackfill {
    seed: u64,
    records: usize,
}

pub struct Inputs {
    round: u32,
    platform: RealtimePlatform,
    by_city: HashMap<String, Agg>,
    by_window: HashMap<(String, i64), Agg>,
}

impl Workload for ArchiveBackfill {
    const NAME: &'static str = "archive_backfill";
    type Inputs = Inputs;

    fn build(seed: u64, scale: Scale) -> Self {
        ArchiveBackfill {
            seed,
            records: scale.of(50_000),
        }
    }

    fn names() -> Names {
        Names {
            work_per_s: "rec_per_s",
            latency: "hive_query",
            allocs: "allocs_per_rec",
        }
    }

    fn units(&self) -> u64 {
        self.records as u64
    }

    fn prepare(&mut self, round: u32, _check: &mut Check) -> Inputs {
        let (records, plain) = gen::trips(gen::round_seed(self.seed, round), self.records);
        let (platform, _topic) = probes::loaded_platform(records);
        Inputs {
            round,
            platform,
            by_city: oracle::group_by(&plain, |t: &Trip| t.city.clone()),
            by_window: oracle::group_by(&plain, |t: &Trip| {
                (t.city.clone(), oracle::window_of(t, WINDOW_MS))
            }),
        }
    }

    fn round(&mut self, inputs: Inputs, tr: &mut Tracer, check: &mut Check) -> Round {
        let Inputs {
            round,
            platform,
            by_city,
            by_window,
        } = inputs;
        let n = self.units();
        let sink = CollectSink::new();
        let clock = tr.begin_round(round);
        let (archived, archive_s) = tr.call("storage", "archive", n, || {
            platform.archive_topic(TOPIC, &gen::trips_schema())
        });
        let mut latencies_ms = Vec::with_capacity(HIVE_QUERIES);
        let mut answers = Vec::with_capacity(HIVE_QUERIES);
        for _ in 0..HIVE_QUERIES {
            let (answer, s) = tr.call("sql", "hive_query", 1, || platform.sql(HIVE_SQL));
            latencies_ms.push(s * 1e3);
            answers.push(answer);
        }
        let (backfilled, backfill_s) = tr.call("compute", "backfill", n, || {
            platform.backfill_sql(
                "backfill",
                TUMBLE_SQL,
                TOPIC,
                0,
                i64::MAX,
                Box::new(sink.clone()),
            )
        });
        let (wall_s, allocs) = tr.end_round(clock);

        check.reflecting("archive_topic", n, archived.map(|rows| rows as u64));
        for answer in answers {
            let rows = check
                .call("sql over hive", answer)
                .map(|o| o.rows)
                .unwrap_or_default();
            check.that(
                oracle::is_top_by_count(&rows, "city", false, &by_city, 5),
                || format!("top-5 cities over hive.trips differ from the oracle: {rows:?}"),
            );
        }
        check.reflecting("backfill_sql", n, backfilled.map(|stats| stats.records_in));
        let windows = sink.rows();
        let equal = windows.len() == by_window.len()
            && windows.iter().all(|r| {
                let key = (
                    r.get_str("city").unwrap_or_default().to_string(),
                    r.get_int("w").unwrap_or(-1),
                );
                by_window.get(&key).is_some_and(|&(trips, revenue)| {
                    r.get_int("trips") == Some(trips as i64)
                        && r.get_double("revenue") == Some(revenue)
                })
            });
        check.that(equal, || {
            format!(
                "{} backfilled windows differ from the oracle's {}",
                windows.len(),
                by_window.len()
            )
        });
        Round {
            parts: vec![("archive", archive_s), ("backfill", backfill_s)],
            ..Round::new(wall_s, allocs, latencies_ms)
        }
    }

    fn extras(&self, rounds: &[Round]) -> Vec<(&'static str, &'static str, f64)> {
        let rate = |part: &str| {
            let seconds: Vec<f64> = rounds.iter().map(|r| r.part(part) / r.slowdown).collect();
            self.records as f64 / at_reference(&seconds)
        };
        vec![
            ("archive_rec_per_s", "1/s", rate("archive")),
            ("backfill_rec_per_s", "1/s", rate("backfill")),
        ]
    }

    fn per_layer(&mut self, probe: &mut Probe, out: &mut Values) {
        span_us_per_rec(probe.tr, out, "storage", "archive");
        span_us_per_rec(probe.tr, out, "compute", "backfill");
        probes::storage(probe, out);
    }
}
