//! The fixed metric names and units, and the result line the driver reads.
//!
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step). Every run prints every metric of its kind; a per-layer metric
//! reads 0 on a workload that never enters that layer and is not the home
//! of that probe (README.md has the table).

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the platform sees. The unit of work and the request
/// behind `work_per_s`, `latency_*` and `allocs_per_unit` are the
/// workload's own (see `Workload::names`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("work_per_s", "1/s"),
    def("latency_p50_ms", "ms"),
    def("latency_p95_ms", "ms"),
    def("allocs_per_unit", "count"),
    def("peak_rss_mb", "MiB"),
];

/// Single layers, named by crate.
pub const PER_LAYER: &[Def] = &[
    def("stream.produce_us_per_rec", "us"),
    def("stream.produce_allocs_per_rec", "count"),
    def("stream.append_us_per_rec", "us"),
    def("stream.fetch_us_per_rec", "us"),
    def("stream.log_bytes_per_rec", "bytes"),
    def("stream.partition_skew", "ratio"),
    def("flinksql.compile_us", "us"),
    def("compute.job_us_per_rec", "us"),
    def("compute.job_allocs_per_rec", "count"),
    def("compute.records_out", "count"),
    def("compute.checkpoints_taken", "count"),
    def("compute.peak_state_bytes", "bytes"),
    def("compute.stateless_us_per_rec", "us"),
    def("compute.staged_us_per_rec", "us"),
    def("compute.backfill_us_per_rec", "us"),
    def("compute.late_drop_share_city_keyed", "share"),
    def("olap.ingest_us_per_rec", "us"),
    def("olap.ingest_allocs_per_rec", "count"),
    def("olap.append_us_per_row", "us"),
    def("olap.seal_ms_per_segment", "ms"),
    def("olap.table_bytes_per_row", "bytes"),
    def("olap.q.topn_group.p50_ms", "ms"),
    def("olap.q.filter_count.p50_ms", "ms"),
    def("olap.docs_scanned_per_query", "count"),
    def("sql.q.topn_group.p50_ms", "ms"),
    def("sql.q.filter_count.p50_ms", "ms"),
    def("sql.q.time_range.p50_ms", "ms"),
    def("sql.q.drilldown.p50_ms", "ms"),
    def("sql.q.recent_rows.p50_ms", "ms"),
    def("sql.q.range_agg.p50_ms", "ms"),
    def("sql.q.hybrid_recent.p50_ms", "ms"),
    def("sql.plan_us", "us"),
    def("sql.rows_shipped_per_query", "count"),
    def("sql.hybrid_cache_hit_share", "share"),
    def("storage.archive_us_per_rec", "us"),
    def("storage.raw_write_us_per_rec", "us"),
    def("storage.compact_us_per_rec", "us"),
    def("storage.hive_scan_us_per_row", "us"),
    def("storage.archive_bytes_per_rec", "bytes"),
    def("storage.archive_scaling_ratio", "ratio"),
    def("storage.segfile_persist_us_per_row", "us"),
    def("storage.segfile_load_us_per_row", "us"),
    def("storage.segfile_bytes_per_row", "bytes"),
    def("bench.trace_overhead_share", "share"),
    def("bench.round_iqr_share", "share"),
    def("bench.spans", "count"),
];

/// One value per definition, 0 until set.
pub struct Values {
    defs: &'static [Def],
    values: Vec<f64>,
    set: Vec<bool>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Self {
        Values {
            defs,
            values: vec![0.0; defs.len()],
            set: vec![false; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not one of the fixed names"));
        assert!(value.is_finite(), "metric '{name}' is not a finite number");
        self.values[i] = value;
        self.set[i] = true;
    }

    pub fn unit(&self, name: &str) -> &'static str {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .map_or("", |d| d.unit)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// The metrics this run measured, for the readable listing.
    pub fn iter_set(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.iter()
            .zip(&self.set)
            .filter(|(_, set)| **set)
            .map(|(m, _)| m)
    }
}

/// The last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &Values) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names between `"<key>": [` and the closing `]` of that array.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let from = json.find(&format!("\"{key}\"")).expect("key present");
        let block = &json[from..from + json[from..].find(']').expect("array closes")];
        block
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let json = include_str!("../../BENCHMARK.json");
        let own = |defs: &[Def]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(json, "end_to_end"), own(END_TO_END));
        assert_eq!(names_in(json, "per_layer"), own(PER_LAYER));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(json.contains(&format!(
                "\"name\": \"{}\", \"unit\": \"{}\"",
                d.name, d.unit
            )));
        }
    }

    #[test]
    fn result_line_has_the_contract_keys_and_full_digits() {
        let mut v = Values::new(END_TO_END);
        v.set("setup_s", 0.812_734_561);
        let line = result_line(10, 0, &v);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.812734561, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MiB\"}"));
        assert!(result_line(10, 1, &v).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not one of the fixed names")]
    fn unknown_names_are_refused() {
        Values::new(END_TO_END).set("rec_per_s", 1.0);
    }
}
