//! Decoder robustness soak: a seeded corpus of damaged persisted bytes
//! through every decode entry point — segment files (eager
//! `decode_rows_segment`, lazy `Segment::load_lazy`, and as a warehouse
//! part file under `platform.sql` and the Kappa+ `HiveSource`), raw logs
//! (`decode_raw`, and `Compactor::compact`, which walks them on its own)
//! and compute state: the stateful operators' `restore` (serial and as
//! shards), `KeyedSnapshot::decode` and `CheckpointStore::latest`.
//!
//! The invariant is the bugfix contract of every decoder: fed hostile
//! bytes it may succeed (benign damage — only segment files carry a
//! checksum) or return `Err(Error::Corruption)`, but it must NEVER panic
//! and never surface another error kind. A panic fails `ci.sh`. A segment
//! file whose checksum holds but whose rows break its sort claim is
//! `Corruption` too, never a wrong answer.
//!
//! The corpus derives entirely from a seed (`RTDI_FUZZ_SEED` in ci), so
//! the printed `DECODER_SUMMARY` lines — one per decoder, with the size
//! and CRC32 of its undamaged inputs, so a changed encoder shows too —
//! are a pure function of it: `ci.sh` diffs them between two processes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::value::JsonValue;
use rtdi::common::{AggFn, Error, Field, FieldType, Record, Result, Row, Schema, UniqueId, Value};
use rtdi::compute::runtime::CheckpointData;
use rtdi::compute::source::{HiveSource, Source};
use rtdi::compute::{
    CheckpointStore, DedupOp, FusedOp, Operator, WindowAggregateOp, WindowAssigner, WindowJoinOp,
};
use rtdi::core::platform::RealtimePlatform;
use rtdi::olap::query::Query;
use rtdi::olap::segment::{IndexSpec, Segment};
use rtdi::storage::archival::{decode_raw, encode_raw, ArchivalWriter, Compactor};
use rtdi::storage::column::ColumnData;
use rtdi::storage::hive::{HiveCatalog, HiveTable};
use rtdi::storage::keyed::KeyedSnapshot;
use rtdi::storage::object::{InMemoryStore, ObjectStore};
use rtdi::storage::segfile::{self, SegmentMeta};
use std::collections::BTreeMap;
use std::sync::Arc;

const DEFAULT_SEED: u64 = 0xDEC0DE;

/// A schema of 1–5 fields over every supported field type.
fn arb_schema(rng: &mut StdRng) -> Schema {
    let types = [
        FieldType::Bool,
        FieldType::Int,
        FieldType::Double,
        FieldType::Str,
        FieldType::Bytes,
        FieldType::Json,
        FieldType::Timestamp,
    ];
    let n = rng.gen_range(1..=5usize);
    Schema::new(
        "t",
        (0..n)
            .map(|i| Field::new(format!("f{i}"), types[rng.gen_range(0..types.len())]))
            .collect(),
    )
}

fn arb_rows(rng: &mut StdRng, schema: &Schema, lo: usize, hi: usize) -> Vec<Row> {
    let len = rng.gen_range(lo..hi);
    (0..len)
        .map(|_| {
            let mut row = Row::new();
            for f in &schema.fields {
                if !rng.gen_bool(0.8) {
                    continue;
                }
                let v = match f.field_type {
                    FieldType::Bool => Value::Bool(rng.gen()),
                    FieldType::Int | FieldType::Timestamp => Value::Int(rng.gen_range(0..5000i64)),
                    FieldType::Double => Value::Double(rng.gen_range(-1e6..1e6)),
                    FieldType::Str => Value::from(format!("s{}", rng.gen_range(0..12u8))),
                    FieldType::Bytes => {
                        let n = rng.gen_range(0..10usize);
                        Value::Bytes((0..n).map(|_| rng.gen_range(0..=255u8)).collect())
                    }
                    FieldType::Json => {
                        let text = format!("j{}", rng.gen_range(0..12u8));
                        Value::Json(Box::new(JsonValue::String(text)))
                    }
                };
                row.push(f.name.as_str(), v);
            }
            row
        })
        .collect()
}

/// Trip-like records: a few cities and riders so windows, distinct sets
/// and dedup keys all hold more than one entry.
fn arb_records(rng: &mut StdRng) -> Vec<Record> {
    (0..rng.gen_range(4..40usize))
        .map(|i| {
            let row = Row::new()
                .with("city", format!("c{}", rng.gen_range(0..5u8)))
                .with("rider", format!("r{}", rng.gen_range(0..9u8)))
                .with("fare", rng.gen_range(0.0..90.0f64))
                .with("__stream", if i % 2 == 0 { "l" } else { "r" });
            Record::new(row, rng.gen_range(0..4000i64)).with_key(format!("k{i}"))
        })
        .collect()
}

/// Give record `i` one of the envelopes the system writes: a producer's
/// (minted id, both stamps, service), a caller's id from a region, none.
fn audit((i, mut record): (usize, Record)) -> Record {
    match i % 3 {
        0 => {
            record.set_unique_id(Some(UniqueId::Seq {
                origin: &"fz#1".into(),
                seq: i as u64,
            }));
            record.set_app_ts(Some(record.timestamp));
            record.set_trace_ts(Some(i as i64));
            record.set_service(Some("fz".into()));
        }
        1 => {
            record = record.with_unique_id(format!("m{i}"));
            record.set_origin_region(Some("west".into()));
        }
        _ => {}
    }
    record.with_header("tenant", "fz")
}

/// Decode outcomes of one decoder across the corpus: a pure function of
/// the seed, so its summary line is byte-stable across processes.
#[derive(Default)]
struct Tally {
    /// Every undamaged input, concatenated (printed as size + CRC32).
    clean: Vec<u8>,
    detected: u64,
    benign: u64,
}

impl Tally {
    /// Feed `probe` the prefix of `clean` at each of `cuts`, then `flips`
    /// copies with one seeded byte damaged. Only a non-Corruption error
    /// panics here; a panic inside the decoder propagates — that is the gate.
    fn damage(
        &mut self,
        clean: &[u8],
        cuts: impl Iterator<Item = usize>,
        flips: usize,
        rng: &mut StdRng,
        ctx: &str,
        probe: &dyn Fn(Vec<u8>) -> Result<()>,
    ) {
        self.clean.extend_from_slice(clean);
        let mut count = |outcome, what: String| match outcome {
            Ok(()) => self.benign += 1,
            Err(Error::Corruption(_)) => self.detected += 1,
            Err(e) => panic!("{ctx} {what}: decode surfaced wrong error kind: {e}"),
        };
        for cut in cuts {
            count(probe(clean[..cut].to_vec()), format!("cut {cut}"));
        }
        for _ in 0..flips {
            let mut bad = clean.to_vec();
            let at = rng.gen_range(0..bad.len());
            bad[at] ^= rng.gen_range(1..=255u8);
            count(probe(bad), format!("flip {at}"));
        }
    }
}

/// A platform whose warehouse table `fz` has one part file, rewritten by
/// every probe: damaged bytes reach the SQL engine's columnar scan (rows,
/// a filter, a fold) and the Kappa+ source the way a damaged object in the
/// archive would.
struct Warehouse {
    platform: RealtimePlatform,
    table: HiveTable,
}

const PART: &str = "warehouse/fz/d000000/part-00000";

impl Warehouse {
    fn new() -> Self {
        let platform = RealtimePlatform::new();
        let table = platform
            .catalog()
            .create_table("fz", Schema::new("fz", Vec::new()))
            .unwrap();
        platform
            .catalog()
            .register_partition("fz", "d000000", PART, 0)
            .unwrap();
        Warehouse { platform, table }
    }

    fn probe(&self, bytes: Vec<u8>) {
        self.platform.store().put(PART, bytes.into()).unwrap();
        let outcomes = [
            self.platform.sql("SELECT * FROM hive.fz").map(drop),
            self.platform
                .sql(
                    "SELECT f0, COUNT(*) AS n, MAX(f1) AS m FROM hive.fz WHERE f0 >= 0 GROUP BY f0",
                )
                .map(drop),
            replay(&self.table),
        ];
        for outcome in outcomes {
            match outcome {
                Ok(()) | Err(Error::Corruption(_)) => {}
                Err(e) => panic!("warehouse read surfaced wrong error kind: {e}"),
            }
        }
    }
}

/// Drain the Kappa+ source over the whole table.
fn replay(table: &HiveTable) -> Result<()> {
    let mut source = HiveSource::new(table, 0, i64::MAX, 64, None)?;
    while !source.is_exhausted() {
        source.poll_batch(64)?;
    }
    Ok(())
}

/// A part file of `rows`: one sealed column per field of `schema` and the
/// sort claim as given, true or not.
fn part_file(schema: &Schema, name: &str, rows: &[Row], sorted_col: Option<&str>) -> Vec<u8> {
    let column = |f: &Field| {
        let mut col = ColumnData::new(f.field_type);
        rows.iter().for_each(|row| col.push(row.get(&f.name)));
        col.seal();
        col
    };
    let columns: Vec<ColumnData> = schema.fields.iter().map(column).collect();
    let meta = SegmentMeta {
        name: name.into(),
        table: schema.name.clone(),
        sorted_col: sorted_col.map(String::from),
        nrows: rows.len() as u64,
    };
    segfile::encode_segment(&meta, &schema.fields, &columns)
        .unwrap()
        .to_vec()
}

/// The event time a row's `__ts` cell holds once its column coerces it:
/// `None` (NULL) orders first.
fn event_time(row: &Row) -> Option<i64> {
    row.get("__ts").and_then(Value::as_int)
}

/// Compact a damaged raw log into a warehouse of its own. Whenever
/// `decode_raw` accepts the bytes, the part file must be the one the row
/// detour writes: the decoded rows, each with its event time, stably
/// sorted by it, through [`part_file`] with `__ts` claimed.
fn probe_compaction(schema: &Schema, bytes: Vec<u8>) -> Result<()> {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let catalog = HiveCatalog::new(store.clone());
    catalog.create_table("fz", schema.clone())?;
    store.put("raw/fz/d000000/log-00000000", bytes.clone().into())?;
    let compacted = Compactor::new(store.clone(), catalog).compact("fz", "d000000", schema);
    let Ok(records) = decode_raw(&bytes.into()) else {
        return compacted.map(drop);
    };
    let n = compacted.expect("compaction refused a raw log decode_raw accepts");
    assert_eq!(n, records.len());
    let mut full = schema.clone();
    full.fields.push(Field::new("__ts", FieldType::Timestamp));
    let mut rows: Vec<Row> = records
        .into_iter()
        .map(|r| match r.value.get("__ts") {
            Some(_) => r.value,
            None => r.value.with("__ts", r.timestamp),
        })
        .collect();
    rows.sort_by_key(event_time);
    let detour = part_file(&full, "fz-d000000-00000", &rows, Some("__ts"));
    let written = store.get("warehouse/fz/d000000/part-00000")?;
    assert!(
        written.as_slice() == detour,
        "compaction and the row detour disagree"
    );
    Ok(())
}

/// Decode a damaged segment file through both entry points.
fn probe_segfile(bytes: Vec<u8>) -> Result<()> {
    // the lazy path must hold the same bound: open, query (a damaged
    // column may only fail on access), full materialize
    let lazy = Segment::load_lazy(bytes.clone().into()).and_then(|l| {
        l.execute(&Query::select_all("t"))?;
        l.into_segment(&IndexSpec::none())
    });
    match lazy {
        Ok(_) | Err(Error::Corruption(_)) => {}
        Err(e) => panic!("lazy decode surfaced wrong error kind: {e}"),
    }
    segfile::decode_rows_segment(&bytes.into()).map(drop)
}

/// Every accumulator variant, so each `AggAcc` layout is in the corpus.
fn window_agg() -> WindowAggregateOp {
    let aggs = vec![
        ("n".into(), AggFn::Count),
        ("sum".into(), AggFn::Sum("fare".into())),
        ("avg".into(), AggFn::Avg("fare".into())),
        ("lo".into(), AggFn::Min("fare".into())),
        ("hi".into(), AggFn::Max("absent".into())),
        ("riders".into(), AggFn::DistinctCount("rider".into())),
    ];
    let window = WindowAssigner::tumbling(1000);
    WindowAggregateOp::new("agg", vec!["city".into()], window, aggs, 0)
}

/// The stateful stages whose snapshots the corpus damages, by summary name.
fn stage(name: &str) -> Box<dyn Operator> {
    match name {
        "window-agg" => Box::new(window_agg()),
        "window-agg-p4" => Box::new(window_agg().with_parallelism(4)),
        "dedup" => Box::new(DedupOp::new("dedup", vec!["city".into(), "rider".into()])),
        "window-join" => Box::new(WindowJoinOp::new("join", "city", "l", "r", 1000)),
        _ => Box::new(FusedOp::new(vec![stage("dedup"), stage("window-agg")])),
    }
}

/// Run the whole corpus for one seed: one summary line per decoder.
fn soak(seed: u64) -> Vec<String> {
    let mut tallies: BTreeMap<&str, Tally> = BTreeMap::new();
    let warehouse = Warehouse::new();
    // --- segment files (checksummed format): seeded cuts plus the empty file
    for case in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(case));
        let schema = arb_schema(&mut rng);
        let rows = arb_rows(&mut rng, &schema, 1, 60);
        let clean = segfile::encode_rows_segment(&schema, "fz", &rows)
            .unwrap()
            .to_vec();
        let mut cuts = vec![0];
        cuts.extend((0..4).map(|_| rng.gen_range(0..clean.len())));
        let ctx = format!("case {case} segfile");
        let tally = tallies.entry("segfile").or_default();
        // the undamaged file reads back whole through the warehouse
        warehouse.probe(clean.clone());
        let n = warehouse.platform.sql("SELECT COUNT(*) AS n FROM hive.fz");
        assert_eq!(n.unwrap().rows[0].get_int("n"), Some(rows.len() as i64));
        tally.damage(&clean, cuts.into_iter(), 5, &mut rng, &ctx, &|bytes| {
            warehouse.probe(bytes.clone());
            probe_segfile(bytes)
        });
    }

    // --- raw logs and checkpoint frames (no checksum: benign decodes
    // allowed), each truncated at every cut
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xC4EC_0000 + case));
        let records = arb_records(&mut rng);
        let mut run = |name: &'static str, clean: &[u8], probe: &dyn Fn(Vec<u8>) -> Result<()>| {
            let ctx = format!("case {case} {name}");
            let tally = tallies.entry(name).or_default();
            tally.damage(clean, 0..clean.len(), 48, &mut rng, &ctx, probe);
        };
        run("raw-log", &encode_raw(&records).unwrap(), &|b| {
            decode_raw(&b.into()).map(drop)
        });
        // mid-stream snapshots (open windows), restored into the stage and,
        // where it is parallel, into each shard (it keeps the groups it owns)
        let mut snapshots = Vec::new();
        for name in [
            "window-agg",
            "dedup",
            "window-join",
            "fused",
            "window-agg-p4",
        ] {
            let mut op = stage(name);
            let mut out = Vec::new();
            for r in &records {
                op.process(&Arc::new(r.clone()), &mut out).unwrap();
            }
            op.on_watermark(1000, &mut out);
            let shards = op.shard_spec().map_or(0, |spec| spec.parallelism);
            run(name, &op.snapshot(), &|b| {
                (0..shards).try_for_each(|i| {
                    let mut shard = op.make_shard(i, shards).expect("keyed stage shards");
                    shard.restore(b.clone().into())
                })?;
                stage(name).restore(b.into())
            });
            snapshots.push(op.snapshot());
        }
        // the dedup snapshot is a key-group envelope: the framing alone
        run("keyed-snapshot", &snapshots[1], &|b| {
            KeyedSnapshot::decode(b.into()).map(drop)
        });
        // a persisted checkpoint object, read back the way recovery does
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let checkpoints = CheckpointStore::new(store.clone());
        let data = CheckpointData {
            checkpoint_id: 7,
            source_position: vec![0, records.len() as u64],
            operator_state: snapshots,
            records_in: records.len() as u64,
        };
        checkpoints.persist("fz", &data).unwrap();
        let key = store.list("checkpoints/fz/").unwrap().remove(0);
        run("checkpoint-object", &store.get(&key).unwrap(), &|b| {
            store.put(&key, b.into()).unwrap();
            checkpoints.latest("fz").map(drop)
        });
        // the same records as a producer and a region leave them: the typed
        // audit block in each of its shapes (last, so the damage drawn for
        // the decoders above does not move)
        let audited: Vec<Record> = records.iter().cloned().enumerate().map(audit).collect();
        run("raw-log-audit", &encode_raw(&audited).unwrap(), &|b| {
            decode_raw(&b.into()).map(drop)
        });
        // compaction walks the raw log itself, skipping the audit block by
        // its length; the fields take each cell it reads without a `Value`
        // through the column coercions: a string in an Int field, a double
        // in one (fractional, then whole), an integer in a Double one
        let schema = Schema::of(
            "fz",
            &[
                ("city", FieldType::Str),
                ("fare", FieldType::Double),
                ("rider", FieldType::Int),
                ("n", FieldType::Double),
                ("cents", FieldType::Int),
                ("whole", FieldType::Int),
                ("__stream", FieldType::Json),
            ],
        );
        let priced: Vec<Record> = audited
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                let fare = r.value.get_double("fare").unwrap_or(0.0);
                let row = r.value.with("n", i as i64).with("cents", fare * 100.0);
                r.value = row.with("whole", fare.floor());
                r
            })
            .collect();
        run("raw-log-compact", &encode_raw(&priced).unwrap(), &|b| {
            probe_compaction(&schema, b)
        });
    }
    let line = |(name, t): (&&str, &Tally)| {
        format!(
            "seed={seed:#x} decoder={name} bytes={} crc={:#010x} corrupt_detected={} benign={}",
            t.clean.len(),
            segfile::crc32(&t.clean),
            t.detected,
            t.benign
        )
    };
    tallies.iter().map(line).collect()
}

/// `COUNT(*)` of `hive.<table>` under `cond`.
fn count_where(platform: &RealtimePlatform, table: &str, cond: &str) -> Result<i64> {
    let sql = format!("SELECT COUNT(*) AS n FROM hive.{table} WHERE {cond}");
    let out = platform.sql(&sql)?;
    Ok(out.rows.first().and_then(|r| r.get_int("n")).unwrap_or(0))
}

#[test]
fn a_false_sort_claim_is_corruption_not_a_wrong_answer() {
    // readers binary-search a claimed column: over these rows a claim of
    // `__ts` answered `>= 25` as 6, `< 25` as 2 and `= 40` as 0
    let schema = Schema::of(
        "t",
        &[("id", FieldType::Int), ("__ts", FieldType::Timestamp)],
    );
    let rows: Vec<Row> = [50i64, 10, 40, 20, 30, 60, 0, 70]
        .into_iter()
        .enumerate()
        .map(|(i, ts)| Row::new().with("id", i as i64).with("__ts", ts))
        .collect();
    let conds = ["__ts >= 25", "__ts < 25", "__ts = 40"];
    for claim in [None, Some("__ts")] {
        let platform = RealtimePlatform::new();
        platform
            .catalog()
            .create_table("t", schema.clone())
            .unwrap();
        let part = "warehouse/t/d000000/part-00000";
        let file = part_file(&schema, "t-d000000-00000", &rows, claim);
        platform.store().put(part, file.into()).unwrap();
        let catalog = platform.catalog();
        catalog
            .register_partition("t", "d000000", part, rows.len())
            .unwrap();
        for (cond, want) in conds.into_iter().zip([5, 3, 1]) {
            match (claim, count_where(&platform, "t", cond)) {
                (None, Ok(n)) => assert_eq!(n, want, "{cond}"),
                (Some(_), Err(Error::Corruption(msg))) => assert!(msg.contains("__ts"), "{msg}"),
                (_, got) => panic!("claim {claim:?}, {cond}: {got:?}"),
            }
        }
    }
}

#[test]
fn a_sorted_part_with_two_times_swapped_is_corruption_everywhere() {
    // a part `Compactor::compact` wrote, claims and all, then written again
    // with two `__ts` cells of different value swapped: every reader that
    // decodes `__ts` refuses it, and none panics or answers
    let schema = Schema::of("fz", &[("id", FieldType::Int)]);
    let mut swapped = 0;
    for case in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(DEFAULT_SEED.wrapping_add(case));
        let records: Vec<Record> = (0..rng.gen_range(2..60i64))
            .map(|i| {
                let row = Row::new().with("id", i);
                let ts = rng.gen_range(0..50_000i64);
                // now and then a NULL event time of the row's own
                if rng.gen_bool(0.1) {
                    Record::new(row.with("__ts", Value::Null), ts)
                } else {
                    Record::new(row, ts)
                }
            })
            .collect();
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone());
        catalog.create_table("fz", schema.clone()).unwrap();
        ArchivalWriter::new(store.clone(), "fz")
            .write_batch(&records)
            .unwrap();
        Compactor::new(store.clone(), catalog)
            .compact("fz", "d000000", &schema)
            .unwrap();
        let sorted = store.get("warehouse/fz/d000000/part-00000").unwrap();
        let (full, mut rows) = segfile::decode_rows_segment(&sorted).unwrap();
        // the undamaged part is its own detour, claim included
        assert_eq!(
            part_file(&full, "fz-d000000-00000", &rows, Some("__ts")),
            sorted.to_vec()
        );
        let (a, b) = (rng.gen_range(0..rows.len()), rng.gen_range(0..rows.len()));
        let (a, b) = (a.min(b), a.max(b));
        if event_time(&rows[a]) == event_time(&rows[b]) {
            continue;
        }
        let (ta, tb) = (rows[a].get("__ts").cloned(), rows[b].get("__ts").cloned());
        rows[a].set("__ts", tb.unwrap_or(Value::Null));
        rows[b].set("__ts", ta.unwrap_or(Value::Null));
        let bad = part_file(&full, "fz-d000000-00000", &rows, Some("__ts"));
        swapped += 1;

        let warehouse = Warehouse::new();
        warehouse
            .platform
            .store()
            .put(PART, bad.clone().into())
            .unwrap();
        let corrupt = |what: &str, outcome: Result<()>| match outcome {
            Err(Error::Corruption(msg)) => assert!(msg.contains("__ts"), "{what}: {msg}"),
            other => panic!("case {case} {what}: {other:?}"),
        };
        // a time the zone map cannot prune away: one of the two swapped
        let t = event_time(&rows[a]).or(event_time(&rows[b])).unwrap_or(0);
        for op in [">=", "<=", "="] {
            let cond = format!("__ts {op} {t}");
            corrupt(
                &cond,
                count_where(&warehouse.platform, "fz", &cond).map(drop),
            );
        }
        corrupt(
            "select",
            warehouse.platform.sql("SELECT * FROM hive.fz").map(drop),
        );
        // the source plans from headers alone: the claim is tested when
        // the first poll decodes `__ts`
        corrupt("hive source", replay(&warehouse.table));
        corrupt(
            "rows",
            segfile::decode_rows_segment(&bad.clone().into()).map(drop),
        );
        let lazy = Segment::load_lazy(bad.into()).unwrap();
        corrupt("lazy", lazy.execute(&Query::select_all("fz")).map(drop));
        corrupt("reload", lazy.into_segment(&IndexSpec::none()).map(drop));
    }
    assert!(
        swapped >= 8,
        "only {swapped} of 16 parts had two times to swap"
    );
}

#[test]
fn damaged_files_never_panic_the_decoders() {
    let first = soak(DEFAULT_SEED);
    let second = soak(DEFAULT_SEED);
    assert_eq!(first, second, "same seed must replay identically");
}

/// ci.sh hook: the seed comes from `RTDI_FUZZ_SEED`, and the summary is
/// printed so two separate processes can be diffed byte-for-byte.
#[test]
fn fuzz_env_seed_prints_summary() {
    let seed = std::env::var("RTDI_FUZZ_SEED")
        .ok()
        .and_then(|s| {
            s.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| s.parse().ok())
        })
        .unwrap_or(DEFAULT_SEED);
    let summary = soak(seed);
    assert_eq!(summary, soak(seed), "replay must be byte-identical");
    for line in summary {
        println!("DECODER_SUMMARY {line}");
    }
}
