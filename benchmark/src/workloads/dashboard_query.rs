//! `dashboard_query` — the read path only; `stream` and `compute` idle.
//!
//! One table built once in set-up (sealed segments with an inverted index on
//! `city` and a range index on `fare`, plus a consuming tail per partition)
//! and a hybrid table over the same rows: the older half as segment files
//! opened lazily, the fresher half in a realtime table, behind the
//! benchmark's own SQL engine. A round is 70 SQL queries, 10 of each class,
//! every round the same 70 (drawn from the seed). This is where column
//! kernels, indexes, pruning, the federation cache and lazy segment-file
//! decode show, and where an ingest-side change must show nothing.

use crate::api::{
    AggFn, HybridTable, IndexSpec, OlapTable, PinotConnector, Predicate, Query, QueryOutput,
    RealtimePlatform, RealtimeSide, Result, Row, Segment, SortOrder, SqlEngine,
};
use crate::gen::{self, Draw, Trip, CITIES, DRIVERS, PARTITIONS, RECORDS_PER_MS};
use crate::harness::{at_reference, Check, Names, Probe, Round, Scale, Workload};
use crate::metrics::Values;
use crate::oracle::{self, Agg};
use crate::probes;
use crate::stats::median;
use crate::trace::Tracer;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

const CLASSES: [&str; 7] = [
    "topn_group",
    "filter_count",
    "time_range",
    "drilldown",
    "recent_rows",
    "range_agg",
    "hybrid_recent",
];
const PER_CLASS: usize = 10;
/// Distinct windows of `hybrid_recent`: each is asked twice a round, so
/// half the offline slices can come from the federation's result cache.
const HYBRID_WINDOWS: usize = 5;
const HYBRID: &str = "trips_hybrid";

enum Expect {
    /// `ORDER BY n DESC LIMIT 10` over cities.
    TopCities {
        by_city: HashMap<String, Agg>,
        with_revenue: bool,
    },
    Count(u64),
    /// One row per driver, no limit.
    Drivers(HashMap<String, Agg>),
    /// `ORDER BY ts DESC LIMIT 20` of one driver: the event times in order,
    /// and every `(ts, fare)` the driver has (rows that tie on `ts` at the
    /// cut may resolve either way).
    Recent {
        ts: Vec<i64>,
        trips: HashSet<(i64, u64)>,
    },
    Scalar(Agg),
}

impl Expect {
    fn holds(&self, rows: &[Row]) -> bool {
        match self {
            Expect::TopCities {
                by_city,
                with_revenue,
            } => oracle::is_top_by_count(rows, "city", *with_revenue, by_city, 10),
            Expect::Count(n) => rows.len() == 1 && rows[0].get_int("n") == Some(*n as i64),
            Expect::Drivers(by_driver) => oracle::groups_equal(rows, "driver", true, by_driver),
            Expect::Recent { ts, trips } => {
                let got: Vec<i64> = rows.iter().filter_map(|r| r.get_int("ts")).collect();
                got == *ts
                    && rows.iter().all(|r| {
                        let fare = r.get_double("fare").unwrap_or(f64::NAN);
                        trips.contains(&(r.get_int("ts").unwrap_or(-1), fare.to_bits()))
                    })
            }
            Expect::Scalar(agg) => oracle::scalar_equal(rows, *agg),
        }
    }
}

struct Q {
    class: &'static str,
    sql: String,
    expect: Expect,
    /// The same question put to the table without the SQL layer, for the
    /// two classes the traced run also times that way.
    olap: Option<Query>,
}

type OpenSegment = Box<dyn Fn(&HybridTable) -> Result<()>>;

pub struct DashboardQuery {
    platform: RealtimePlatform,
    table: Arc<OlapTable>,
    engine: SqlEngine,
    pinot: Arc<PinotConnector>,
    realtime: Arc<OlapTable>,
    /// Opens one persisted segment file lazily and registers it as an
    /// offline segment of a hybrid table.
    offline: Vec<OpenSegment>,
    offline_rows: usize,
    queries: Vec<Q>,
    persist_us_per_row: f64,
    segfile_bytes_per_row: f64,
    load_us_per_row: f64,
    /// Connector statistics of the last round: docs scanned, rows shipped,
    /// hybrid scans answered from the result cache.
    last_stats: (u64, u64, u64),
}

impl DashboardQuery {
    /// A hybrid table over freshly opened (cold) segment files, with an
    /// empty result cache: what `invalidate()` plus a restart would leave.
    fn fresh_hybrid(&self) -> HybridTable {
        let hybrid = HybridTable::new(
            HYBRID,
            gen::trips_schema(),
            "ts",
            RealtimeSide::Direct(self.realtime.clone()),
        )
        .with_query_threads(1);
        for open in &self.offline {
            open(&hybrid).expect("a file this run persisted opens");
        }
        hybrid
    }

    fn run_query(&self, q: &Q) -> Result<QueryOutput> {
        if q.class == "hybrid_recent" {
            self.engine.query(&q.sql)
        } else {
            self.platform.sql(&q.sql)
        }
    }
}

/// The round's 70 queries with their expected answers: ten passes over the
/// seven classes, so the classes interleave the way a dashboard's panels do.
fn queries(seed: u64, plain: &[Trip]) -> Vec<Q> {
    let span = (plain.len() / RECORDS_PER_MS) as i64;
    let (boundary, width) = (span / 2, (span / 20).max(1));
    let by_city = oracle::group_by(plain, |t: &Trip| t.city.clone());
    let mut draw = Draw::new(seed);
    let windows: Vec<i64> = (0..HYBRID_WINDOWS)
        .map(|_| boundary - 1 - draw.below(width as usize) as i64)
        .collect();
    let mut queries = Vec::with_capacity(CLASSES.len() * PER_CLASS);
    for k in 0..PER_CLASS {
        // hot to cold keys by a fixed ladder of Zipf ranks (0, 1, 3, 7, …),
        // the same every seed: the rows a key matches set a query's cost, and
        // ranks drawn from the seed moved `allocs_per_query` by 3 % between
        // seeds. Time windows and thresholds are drawn from the seed.
        let city = gen::city_name(((1 << k) - 1).min(CITIES - 1));
        let driver = gen::driver_name(((1 << k) - 1).min(DRIVERS - 1));
        let mut push = |class, sql: String, expect, olap| {
            queries.push(Q {
                class,
                sql,
                expect,
                olap,
            });
        };

        push(
            "topn_group",
            "SELECT city, COUNT(*) AS n, SUM(fare) AS revenue FROM trips \
             GROUP BY city ORDER BY n DESC LIMIT 10"
                .into(),
            Expect::TopCities {
                by_city: by_city.clone(),
                with_revenue: true,
            },
            Some(
                Query::select_all("trips")
                    .aggregate("n", AggFn::Count)
                    .aggregate("revenue", AggFn::Sum("fare".into()))
                    .group(&["city"])
                    .order("n", SortOrder::Desc)
                    .limit(10),
            ),
        );

        push(
            "filter_count",
            format!("SELECT COUNT(*) AS n FROM trips WHERE city = '{city}'"),
            Expect::Count(by_city.get(&city).map_or(0, |a| a.0)),
            Some(
                Query::select_all("trips")
                    .filter(Predicate::eq("city", city.as_str()))
                    .aggregate("n", AggFn::Count),
            ),
        );

        // one window in each tenth of the time axis, inside it: segments
        // seal on tenth edges, so a window never straddles two of them and
        // the segments a round touches do not depend on the draw
        let tenth = span / PER_CLASS as i64;
        let from = k as i64 * tenth + draw.below((tenth - width).max(1) as usize) as i64;
        let inside = plain.iter().filter(|t| t.ts >= from && t.ts < from + width);
        push(
            "time_range",
            format!(
                "SELECT city, COUNT(*) AS n FROM trips WHERE ts >= {from} AND ts < {} \
                 GROUP BY city ORDER BY n DESC LIMIT 10",
                from + width
            ),
            Expect::TopCities {
                by_city: oracle::group_by(inside, |t| t.city.clone()),
                with_revenue: false,
            },
            None,
        );

        let inside = plain.iter().filter(|t| t.city == city);
        push(
            "drilldown",
            format!(
                "SELECT driver, COUNT(*) AS n, SUM(fare) AS revenue FROM trips \
                 WHERE city = '{city}' GROUP BY driver"
            ),
            Expect::Drivers(oracle::group_by(inside, |t| t.driver.clone())),
            None,
        );

        let mut theirs: Vec<&Trip> = plain.iter().filter(|t| t.driver == driver).collect();
        theirs.sort_by_key(|t| std::cmp::Reverse(t.ts));
        push(
            "recent_rows",
            format!("SELECT driver, fare, ts FROM trips WHERE driver = '{driver}' ORDER BY ts DESC LIMIT 20"),
            Expect::Recent {
                ts: theirs.iter().take(20).map(|t| t.ts).collect(),
                trips: theirs.iter().map(|t| (t.ts, t.fare.to_bits())).collect(),
            },
            None,
        );

        // around the issue's `fare > 40`, in the generator's quarter-dollar steps
        let above = 38.0 + 0.25 * draw.below(17) as f64;
        push(
            "range_agg",
            format!("SELECT COUNT(*) AS n, SUM(fare) AS revenue FROM trips WHERE fare > {above}"),
            Expect::Scalar(oracle::total(plain.iter().filter(|t| t.fare > above))),
            None,
        );

        let from = windows[k % HYBRID_WINDOWS];
        push(
            "hybrid_recent",
            format!("SELECT COUNT(*) AS n, SUM(fare) AS revenue FROM {HYBRID} WHERE ts >= {from}"),
            Expect::Scalar(oracle::total(plain.iter().filter(|t| t.ts >= from))),
            None,
        );
    }
    queries
}

impl Workload for DashboardQuery {
    const NAME: &'static str = "dashboard_query";
    type Inputs = u32;

    fn build(seed: u64, scale: Scale) -> Self {
        let n = scale.of(200_000);
        let segment_rows = scale.of(20_000);
        let (records, plain) = gen::trips(gen::round_seed(seed, 0), n);
        let rows: Vec<Row> = records.into_iter().map(|r| r.value).collect();
        let fill = |table: &OlapTable, rows: &[Row]| {
            for (i, row) in rows.iter().enumerate() {
                table
                    .ingest(i % PARTITIONS, row.clone())
                    .expect("a generated row fits the table's schema");
            }
        };

        let platform = RealtimePlatform::new();
        let indexes = IndexSpec::none()
            .with_inverted(&["city"])
            .with_range(&["fare"]);
        let table = platform
            .create_olap_table(gen::trips_table("trips", segment_rows).with_index_spec(indexes))
            .expect("a fresh platform accepts the table");
        fill(&table, &rows);

        // the hybrid twin: the older half as segment files, the fresher half live
        let (old, fresh) = rows.split_at(n / 2);
        let schema = gen::trips_schema();
        let mut offline: Vec<OpenSegment> = Vec::new();
        let (mut persist_s, mut file_bytes) = (0.0, 0);
        for (i, chunk) in old.chunks(segment_rows).enumerate() {
            let segment = Segment::build(
                format!("trips_offline_{i}"),
                &schema,
                chunk.to_vec(),
                &IndexSpec::none(),
            )
            .expect("generated rows build a segment");
            let t = Instant::now();
            let file = segment.persist().expect("a built segment persists");
            persist_s += t.elapsed().as_secs_f64();
            file_bytes += file.len();
            offline.push(Box::new(move |hybrid| {
                hybrid.register_offline_segment(Arc::new(Segment::load_lazy(file.clone())?), None)
            }));
        }
        let realtime =
            OlapTable::new(gen::trips_table(HYBRID, segment_rows)).expect("valid table config");
        fill(&realtime, fresh);
        let (engine, pinot) = probes::engine_over(table.clone());

        DashboardQuery {
            platform,
            table,
            engine,
            pinot,
            realtime,
            offline,
            offline_rows: old.len(),
            queries: queries(seed, &plain),
            persist_us_per_row: persist_s * 1e6 / old.len() as f64,
            segfile_bytes_per_row: file_bytes as f64 / old.len() as f64,
            load_us_per_row: f64::INFINITY,
            last_stats: (0, 0, 0),
        }
    }

    fn names() -> Names {
        Names {
            work_per_s: "queries_per_s",
            latency: "query",
            allocs: "allocs_per_query",
        }
    }

    fn units(&self) -> u64 {
        self.queries.len() as u64
    }

    fn prepare(&mut self, round: u32, _check: &mut Check) -> u32 {
        let t = Instant::now();
        let hybrid = self.fresh_hybrid();
        let us_per_row = t.elapsed().as_secs_f64() * 1e6 / self.offline_rows as f64;
        self.load_us_per_row = self.load_us_per_row.min(us_per_row);
        self.pinot.register_hybrid(Arc::new(hybrid));
        round
    }

    fn round(&mut self, round: u32, tr: &mut Tracer, check: &mut Check) -> Round {
        let mut latencies_ms = Vec::with_capacity(self.queries.len());
        let mut answers = Vec::with_capacity(self.queries.len());
        let clock = tr.begin_round(round);
        for q in &self.queries {
            let (answer, s) = tr.call("sql", q.class, 1, || self.run_query(q));
            latencies_ms.push(s * 1e3);
            answers.push(answer);
        }
        let (wall_s, allocs) = tr.end_round(clock);

        self.last_stats = (0, 0, 0);
        for (q, answer) in self.queries.iter().zip(answers) {
            let Some(out) = check.call(q.class, answer) else {
                continue;
            };
            check.that(q.expect.holds(&out.rows), || {
                format!(
                    "{} differs from the oracle: {} -> {} rows",
                    q.class,
                    q.sql,
                    out.rows.len()
                )
            });
            self.last_stats.0 += out.stats.docs_scanned;
            self.last_stats.1 += out.stats.rows_shipped;
            self.last_stats.2 += out.stats.cache_hits;
        }
        Round::new(wall_s, allocs, latencies_ms)
    }

    fn per_layer(&mut self, probe: &mut Probe, out: &mut Values) {
        for class in CLASSES {
            let p50s: Vec<f64> = probe
                .tr
                .by_round("sql", class)
                .iter()
                .map(|spans| {
                    let ms: Vec<f64> = spans
                        .iter()
                        .map(|s| s.ns() as f64 / s.slowdown / 1e6)
                        .collect();
                    median(&ms)
                })
                .collect();
            out.set(&format!("sql.q.{class}.p50_ms"), at_reference(&p50s));
        }
        let queries = self.queries.len() as f64;
        let (docs_scanned, rows_shipped, cache_hits) = self.last_stats;
        out.set("olap.docs_scanned_per_query", docs_scanned as f64 / queries);
        out.set("sql.rows_shipped_per_query", rows_shipped as f64 / queries);
        out.set(
            "sql.hybrid_cache_hit_share",
            cache_hits as f64 / PER_CLASS as f64,
        );
        out.set(
            "storage.segfile_persist_us_per_row",
            self.persist_us_per_row,
        );
        out.set("storage.segfile_load_us_per_row", self.load_us_per_row);
        out.set("storage.segfile_bytes_per_row", self.segfile_bytes_per_row);

        // the same two classes without the SQL layer: `sql.q.X - olap.q.X`
        // is the SQL layer's own cost
        for class in ["topn_group", "filter_count"] {
            // one bracket around the class: a reference sample before every
            // query would hand each of them a cold cache
            let (ms, slowdown) = probe.bracket(|tr, check| {
                let mut ms = Vec::with_capacity(PER_CLASS);
                for q in self.queries.iter().filter(|q| q.class == class) {
                    let query = q.olap.as_ref().expect("both classes carry their olap twin");
                    let (result, s) = tr.call("olap", class, 1, || self.table.query(query));
                    ms.push(s * 1e3);
                    let rows = check.call("OlapTable::query", result);
                    let rows = rows.map(|r| r.rows).unwrap_or_default();
                    check.that(q.expect.holds(&rows), || {
                        format!("olap {class} differs from the oracle")
                    });
                }
                ms
            });
            out.set(&format!("olap.q.{class}.p50_ms"), median(&ms) / slowdown);
        }

        // one SQL of each class through the planner alone
        let sqls: Vec<String> = CLASSES
            .iter()
            .filter_map(|c| self.queries.iter().find(|q| q.class == *c))
            .map(|q| q.sql.clone())
            .collect();
        probes::sql_plan(&self.engine, &sqls, probe, out);
    }
}
