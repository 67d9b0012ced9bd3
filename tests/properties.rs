//! Property-based tests on cross-crate invariants.
//!
//! The build container has no registry access, so instead of proptest this
//! uses a deterministic seeded-PRNG harness: every test runs N generated
//! cases, each derived from `StdRng::seed_from_u64(BASE + case)`. A failure
//! message always carries the case number, so any failure replays exactly
//! by re-running the test. The shrunk counter-examples proptest found in
//! the seed (`tests/properties.proptest-regressions`) are pinned below as
//! plain deterministic tests in `mod pinned_regressions`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtdi::common::{AggFn, FieldType, Record, Row, Schema, Value};
use rtdi::olap::query::{Predicate, PredicateOp, Query};
use rtdi::olap::segment::{IndexSpec, Segment};
use rtdi::olap::startree::StarTreeSpec;
use rtdi::storage::bitmap::Bitmap;
use rtdi::storage::segfile::{self, SegmentFile};
use rtdi::stream::log::PartitionLog;

/// Distinct per-test seed bases so tests never share generated streams.
const SEED_INDEXES: u64 = 0x001D_E7E5;
const SEED_SORTED: u64 = 0x0050_27ED;
const SEED_STARTREE: u64 = 0x57A2_72EE;
const SEED_LOG: u64 = 0x10C_0FF5;
const SEED_VECTOR: u64 = 0x0B47_C4ED;
const SEED_JSON: u64 = 0x150_4200;
const SEED_PARTITION: u64 = 0x9A27_1710;
const SEED_PUSHDOWN: u64 = 0x0090_54D0;
const SEED_FUSION: u64 = 0x0F05_ED00;
const SEED_SEGFILE: u64 = 0x5E6F_11E0;
const SEED_SEGFUZZ: u64 = 0x5E6F_F422;
const SEED_HIVE: u64 = 0x0041_7E5C;
const SEED_BLOCKS: u64 = 0xB10C_5EED;
const SEED_WINDOWS: u64 = 0x0057_A7E5;
const SEED_COMPACTION: u64 = 0xC0_4D5E_0A7E;
const SEED_BACKFILL: u64 = 0xBAC_CF11;
const SEED_CURSOR: u64 = 0xC025_0A11;
const SEED_ROWS: u64 = 0x0520_3A3E;
const SEED_ENVELOPE: u64 = 0x0E4E_10BE;

fn schema() -> Schema {
    Schema::of(
        "t",
        &[
            ("city", FieldType::Str),
            ("n", FieldType::Int),
            ("x", FieldType::Double),
            ("flag", FieldType::Bool),
            ("blob", FieldType::Bytes),
        ],
    )
}

/// A row over the schema where each column but `blob` is independently
/// present ~75% of the time (absent columns exercise the NULL paths end to
/// end).
fn arb_row(rng: &mut StdRng) -> Row {
    arb_row_with(rng, 0.75, 6, &Specials::default())
}

/// The doubles that `Value::total_cmp`, and so every kernel, orders apart
/// from IEEE comparison: NaN of either sign (above +∞, below −∞), the two
/// zeros (−0.0 below 0.0), and the infinities.
const SPECIAL_X: [f64; 6] = [
    f64::NAN,
    -f64::NAN,
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Which of [`SPECIAL_X`] a case's `x` cells take, and what share of them.
#[derive(Default)]
struct Specials {
    values: Vec<f64>,
    share: f64,
}

/// Half the cases take no special double; the others a nonempty subset of
/// them, in a third of the `x` cells or in all of them.
fn arb_specials(rng: &mut StdRng) -> Specials {
    if rng.gen_bool(0.5) {
        return Specials::default();
    }
    loop {
        let values: Vec<f64> = SPECIAL_X
            .into_iter()
            .filter(|_| rng.gen_bool(0.5))
            .collect();
        if !values.is_empty() {
            let share = [0.3, 1.0][rng.gen_range(0..2usize)];
            return Specials { values, share };
        }
    }
}

/// [`arb_row`] with each column present at `presence` (1.0: no column
/// has a NULL), `cities` distinct cities and `x` drawn from `specials` in
/// its share of the rows.
fn arb_row_with(rng: &mut StdRng, presence: f64, cities: u32, specials: &Specials) -> Row {
    let mut row = Row::new();
    if rng.gen_bool(presence) {
        row.push("city", format!("c{}", rng.gen_range(0..cities)));
    }
    if rng.gen_bool(presence) {
        row.push("n", rng.gen_range(-1000..1000i64));
    }
    if rng.gen_bool(presence) {
        let special = specials.share > 0.0 && rng.gen_bool(specials.share);
        row.push(
            "x",
            match special {
                true => specials.values[rng.gen_range(0..specials.values.len())],
                false => rng.gen_range(-100.0..100.0f64),
            },
        );
    }
    if rng.gen_bool(presence) {
        row.push("flag", rng.gen::<bool>());
    }
    row
}

fn arb_rows(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<Row> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| arb_row(rng)).collect()
}

fn arb_predicate(rng: &mut StdRng) -> Predicate {
    arb_predicate_with(rng, 6, &Specials::default())
}

const OPS: [PredicateOp; 6] = [
    PredicateOp::Eq,
    PredicateOp::Ne,
    PredicateOp::Lt,
    PredicateOp::Le,
    PredicateOp::Gt,
    PredicateOp::Ge,
];

/// A predicate of any operator on any column; where the case has special
/// doubles, half the literals on `x` are one of [`SPECIAL_X`].
fn arb_predicate_with(rng: &mut StdRng, cities: u32, specials: &Specials) -> Predicate {
    let op = OPS[rng.gen_range(0..6usize)];
    match rng.gen_range(0..3u8) {
        0 => Predicate::new("city", op, format!("c{}", rng.gen_range(0..cities))),
        1 => Predicate::new("n", op, rng.gen_range(-1000..1000i64)),
        _ if specials.share > 0.0 && rng.gen_bool(0.5) => {
            Predicate::new("x", op, SPECIAL_X[rng.gen_range(0..SPECIAL_X.len())])
        }
        _ => Predicate::new("x", op, rng.gen_range(-100.0..100.0f64)),
    }
}

/// On-disk segment files round-trip arbitrary rows over arbitrary
/// schemas drawn from every field type the format supports (bit-packed
/// ints, RLE, dictionaries, var-byte blobs, JSON text, null bitmaps).
#[test]
fn segfile_roundtrip_random_schemas() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_SEGFILE + case);
        let schema = arb_schema(&mut rng);
        let rows = arb_typed_rows(&mut rng, &schema, 0, 200);
        let data = segfile::encode_rows_segment(&schema, "p", &rows).unwrap();
        assert!(SegmentFile::open(data.clone()).is_ok(), "case {case}");
        let (s2, decoded) = segfile::decode_rows_segment(&data).unwrap();
        assert_eq!(s2.fields.len(), schema.fields.len(), "case {case}");
        assert_eq!(decoded.len(), rows.len(), "case {case}");
        for (i, (a, b)) in rows.iter().zip(&decoded).enumerate() {
            for f in &schema.fields {
                let va = a.get(&f.name).cloned().unwrap_or(Value::Null);
                let vb = b.get(&f.name).cloned().unwrap_or(Value::Null);
                assert_eq!(va, vb, "case {case} row {i} column {}", f.name);
            }
        }
    }
}

/// Decoder robustness: truncating or flipping bytes of a valid segment
/// file must never panic — every damaged input decodes to `Ok` (benign
/// damage) or `Err(Error::Corruption)`, nothing else. The segment
/// format's CRC-checked footer means damage is in fact always detected.
#[test]
fn segfile_decode_never_panics_on_corrupt_bytes() {
    use rtdi::common::Error;

    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(SEED_SEGFUZZ + case);
        let schema = arb_schema(&mut rng);
        let rows = arb_typed_rows(&mut rng, &schema, 1, 80);
        let clean = segfile::encode_rows_segment(&schema, "p", &rows)
            .unwrap()
            .to_vec();
        // truncations at random cut points (plus the empty file)
        for t in 0..6 {
            let cut = if t == 0 {
                0
            } else {
                rng.gen_range(0..clean.len())
            };
            let res = segfile::decode_rows_segment(&clean[..cut].to_vec().into());
            match res {
                Err(Error::Corruption(_)) => {}
                Err(e) => panic!("case {case} cut {cut}: wrong error kind: {e}"),
                Ok(_) => panic!("case {case} cut {cut}: truncated file decoded"),
            }
        }
        // random byte flips anywhere in the file
        for _ in 0..6 {
            let mut bad = clean.clone();
            let at = rng.gen_range(0..bad.len());
            bad[at] ^= rng.gen_range(1..=255u8);
            match segfile::decode_rows_segment(&bad.into()) {
                Err(Error::Corruption(_)) => {}
                Err(e) => panic!("case {case} flip at {at}: wrong error kind: {e}"),
                Ok(_) => panic!("case {case} flip at {at}: checksum missed a flip"),
            }
        }
    }
}

/// A schema of 1–6 fields drawn from all seven supported field types.
fn arb_schema(rng: &mut StdRng) -> Schema {
    use rtdi::common::Field;
    let types = [
        FieldType::Bool,
        FieldType::Int,
        FieldType::Double,
        FieldType::Str,
        FieldType::Bytes,
        FieldType::Json,
        FieldType::Timestamp,
    ];
    let n = rng.gen_range(1..=6usize);
    Schema::new(
        "t",
        (0..n)
            .map(|i| Field::new(format!("f{i}"), types[rng.gen_range(0..types.len())]))
            .collect(),
    )
}

/// Rows matching `schema`, each field independently present ~80% of the
/// time with a type-appropriate random value. Low-cardinality int/str
/// draws keep the RLE and dictionary paths exercised.
fn arb_typed_rows(rng: &mut StdRng, schema: &Schema, lo: usize, hi: usize) -> Vec<Row> {
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
                    FieldType::Int => {
                        if rng.gen_bool(0.5) {
                            Value::Int(rng.gen_range(0..4i64)) // RLE-friendly
                        } else {
                            Value::Int(rng.gen_range(i64::MIN / 2..i64::MAX / 2))
                        }
                    }
                    FieldType::Double => Value::Double(rng.gen_range(-1e6..1e6)),
                    FieldType::Str => Value::from(format!("s{}", rng.gen_range(0..10u8))),
                    FieldType::Bytes => {
                        let n = rng.gen_range(0..12usize);
                        Value::Bytes((0..n).map(|_| rng.gen_range(0..=255u8)).collect())
                    }
                    FieldType::Json => Value::Json(Box::new(arb_json(rng, 2))),
                    FieldType::Timestamp => Value::Int(rng.gen_range(0..2_000_000_000i64)),
                };
                row.push(f.name.as_str(), v);
            }
            row
        })
        .collect()
}

/// Index-accelerated segment execution agrees with row-by-row predicate
/// evaluation for every predicate type, over NaN of either sign, signed
/// zeros and infinities too: a range index's candidates hold every match.
#[test]
fn indexes_equal_scan() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_INDEXES + case);
        let specials = arb_specials(&mut rng);
        let len = rng.gen_range(1..300);
        let rows: Vec<Row> = (0..len)
            .map(|_| arb_row_with(&mut rng, 0.75, 6, &specials))
            .collect();
        let preds: Vec<Predicate> = (0..rng.gen_range(1..3usize))
            .map(|_| arb_predicate_with(&mut rng, 6, &specials))
            .collect();
        let spec = IndexSpec::none()
            .with_inverted(&["city", "n"])
            .with_range(&["x", "n"]);
        let seg = Segment::build("s", &schema(), rows.clone(), &spec).unwrap();
        let mut q = Query::select_all("t").aggregate("cnt", AggFn::Count);
        q.predicates = std::sync::Arc::new(preds.clone());
        let got = seg.execute(&q, None).unwrap().rows[0]
            .get_int("cnt")
            .unwrap();
        let expected = rows
            .iter()
            .filter(|r| preds.iter().all(|p| p.matches(r)))
            .count() as i64;
        assert_eq!(got, expected, "case {case} preds {preds:?}");
    }
}

/// Sorted-column builds return the same answers as unsorted ones.
#[test]
fn sorted_build_preserves_answers() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_SORTED + case);
        let rows = arb_rows(&mut rng, 1, 200);
        let pred = arb_predicate(&mut rng);
        let plain = Segment::build("a", &schema(), rows.clone(), &IndexSpec::none()).unwrap();
        let sorted =
            Segment::build("b", &schema(), rows, &IndexSpec::none().with_sorted("n")).unwrap();
        let q = Query::select_all("t")
            .filter(pred.clone())
            .aggregate("cnt", AggFn::Count)
            .aggregate("sum_x", AggFn::Sum("x".into()));
        let a = plain.execute(&q, None).unwrap().rows;
        let b = sorted.execute(&q, None).unwrap().rows;
        assert_eq!(
            a[0].get_int("cnt"),
            b[0].get_int("cnt"),
            "case {case} pred {pred:?}"
        );
        let (sa, sb) = (
            a[0].get_double("sum_x").unwrap_or(0.0),
            b[0].get_double("sum_x").unwrap_or(0.0),
        );
        assert!((sa - sb).abs() < 1e-6, "case {case}: {sa} vs {sb}");
    }
}

/// Star-tree answers equal exact aggregation for covered query shapes.
#[test]
fn startree_equals_exact() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_STARTREE + case);
        let rows = arb_rows(&mut rng, 1, 300);
        let mut st_spec = StarTreeSpec::new(&["city"], vec![AggFn::Count, AggFn::Sum("x".into())]);
        st_spec.max_leaf_records = 0; // always split: tree covers every group-by
        let spec = IndexSpec::none().with_startree(st_spec);
        let seg = Segment::build("s", &schema(), rows.clone(), &spec).unwrap();
        let q = Query::select_all("t")
            .aggregate("cnt", AggFn::Count)
            .aggregate("sx", AggFn::Sum("x".into()))
            .group(&["city"]);
        let res = seg.execute(&q, None).unwrap();
        assert!(res.used_startree, "case {case}");
        let total: i64 = res.rows.iter().map(|r| r.get_int("cnt").unwrap()).sum();
        assert_eq!(total, rows.len() as i64, "case {case}");
        let sum: f64 = res
            .rows
            .iter()
            .map(|r| r.get_double("sx").unwrap_or(0.0))
            .sum();
        let exact: f64 = rows.iter().filter_map(|r| r.get_double("x")).sum();
        assert!((sum - exact).abs() < 1e-6, "case {case}: {sum} vs {exact}");
    }
}

/// The first `len` bits of an upsert valid-doc mask (a mask is as long as
/// its segment, and the consuming segment below grows row by row).
fn mask_prefix(mask: &Bitmap, len: usize) -> Bitmap {
    let mut out = Bitmap::new(len);
    mask.iter()
        .take_while(|&i| i < len)
        .for_each(|i| out.set(i));
    out
}

/// One question, three engines: the sealed `Segment` (compiled predicates
/// over a sorted dictionary, indexes, batched columnar folds, dict-id
/// group interning), the consuming `MutableSegment` (the same kernels over
/// insertion-ordered dictionaries and no index) and the row-at-a-time
/// oracle of `rtdi::olap::reference`, which shares no code with either.
/// The consuming segment also answers after every `every`-th append, when
/// its dictionaries have grown since the last query, against the oracle
/// over the rows so far. The sealed segment answers once more after
/// `persist` → `load_lazy`, from columns decoded out of its file, and,
/// unmasked, through `LazySegment::execute`, which consults the file's zone
/// maps first. Answers must be identical, values and order, a double to
/// its bits.
fn assert_three_way(
    rows: &[Row],
    spec: &IndexSpec,
    q: &Query,
    valid: Option<&Bitmap>,
    every: usize,
    ctx: &str,
) {
    use rtdi::olap::realtime::MutableSegment;
    use rtdi::olap::reference;

    let mut consuming = MutableSegment::new("v", schema());
    for (i, r) in rows.iter().enumerate() {
        consuming.append(r, None).unwrap();
        if (i + 1) % every == 0 && i + 1 < rows.len() {
            let valid = valid.map(|v| mask_prefix(v, i + 1));
            let tail = consuming.execute(q, valid.as_ref()).unwrap();
            let slow = reference::execute(&schema(), &rows[..=i], q, valid.as_ref());
            assert_eq!(
                by_bits(tail.rows),
                by_bits(slow),
                "{ctx} after {} rows {q:?}",
                i + 1
            );
        }
    }
    let slow = by_bits(reference::execute(&schema(), rows, q, valid));
    let sealed = Segment::build("v", &schema(), rows.to_vec(), spec).unwrap();
    // docs_scanned intentionally differs (index pruning vs full scan)
    let fast = sealed.execute(q, valid).unwrap();
    assert_eq!(by_bits(fast.rows), slow, "{ctx} sealed {q:?}");
    let tail = consuming.execute(q, valid).unwrap();
    assert_eq!(by_bits(tail.rows), slow, "{ctx} consuming {q:?}");
    // and the consuming segment seals into that sealed segment
    let resealed = consuming.seal(spec).unwrap();
    let again = resealed.execute(q, valid).unwrap();
    assert_eq!(by_bits(again.rows), slow, "{ctx} resealed {q:?}");
    // and the sealed segment answers the same from its file, decoded
    let lazy = Segment::load_lazy(sealed.persist().unwrap()).unwrap();
    let cold = lazy.execute_partial(q, valid).unwrap().finalize(q);
    assert_eq!(by_bits(cold), slow, "{ctx} lazy {q:?}");
    if valid.is_none() {
        let zoned = lazy.execute(q).unwrap();
        assert_eq!(by_bits(zoned.rows), slow, "{ctx} lazy, zone maps {q:?}");
    }
}

/// Rows with every double replaced by its bits, so that a NaN equals the
/// same NaN and −0.0 differs from 0.0.
fn by_bits(rows: Vec<Row>) -> Vec<Row> {
    let bits = |(name, v): (&str, &Value)| {
        let v = match v {
            Value::Double(x) => Value::Bytes(x.to_bits().to_be_bytes().to_vec()),
            v => v.clone(),
        };
        (std::sync::Arc::from(name), v)
    };
    rows.iter()
        .map(|row| row.iter().map(bits).collect())
        .collect()
}

/// The column kernels return exactly the rows of the row-at-a-time oracle
/// for arbitrary queries, from a sealed, a consuming and a persisted
/// segment (see [`assert_three_way`]): selections and aggregations,
/// predicates of every operator, NULL-producing absent columns, group-by
/// and projections over columns the schema does not even have, a bytes
/// column that is not UTF-8 (filtered, grouped, ordered, projected and
/// counted by value), and upsert valid-doc masks. A case draws whether
/// cells go missing at all (so the folds over NULL-free columns run too)
/// and 6 or 200 cities (so a city group-by runs on both sides of the
/// dense-lane rule: a selection at least as large as the dictionary, and
/// one smaller). Specs are restricted to
/// non-reordering indices so all engines fold docs in identical order and
/// float sums compare exactly, to the bit: half the cases hold NaN of
/// either sign, signed zeros or infinities in `x`.
#[test]
fn vectorized_execution_equals_row_reference() {
    for case in 0..96u64 {
        let mut rng = StdRng::seed_from_u64(SEED_VECTOR + case);
        let presence = [1.0, 0.75][rng.gen_range(0..2usize)];
        let cities = [6, 200][rng.gen_range(0..2usize)];
        let specials = arb_specials(&mut rng);
        let len = rng.gen_range(0..300usize);
        let rows: Vec<Row> = (0..len)
            .map(|_| {
                let mut row = arb_row_with(&mut rng, presence, cities, &specials);
                if rng.gen_bool(presence) {
                    row.push("blob", arb_blob(&mut rng));
                }
                row
            })
            .collect();
        let spec = match rng.gen_range(0..3u8) {
            0 => IndexSpec::none(),
            1 => IndexSpec::none().with_inverted(&["city", "n"]),
            _ => IndexSpec::none().with_range(&["x", "n"]),
        };

        let mut q = Query::select_all("t");
        for _ in 0..rng.gen_range(0..3usize) {
            let pred = match rng.gen_range(0..5u8) {
                // a bytes literal, or a literal of another type
                0 => Predicate::new("blob", OPS[rng.gen_range(0..6usize)], arb_blob(&mut rng)),
                1 => Predicate::new("blob", OPS[rng.gen_range(0..6usize)], "c1"),
                _ => arb_predicate_with(&mut rng, cities, &specials),
            };
            q = q.filter(pred);
        }
        if rng.gen_bool(0.5) {
            // aggregation: slots may target absent ("ghost") columns, and
            // group-by may mix dict fast-path, non-dict and ghost columns
            let aggs: &[(&str, AggFn)] = &[
                ("cnt", AggFn::Count),
                ("sx", AggFn::Sum("x".into())),
                ("ax", AggFn::Avg("x".into())),
                ("mn", AggFn::Min("n".into())),
                ("mx", AggFn::Max("n".into())),
                ("dc", AggFn::DistinctCount("city".into())),
                ("gg", AggFn::Sum("ghost".into())),
                ("db", AggFn::DistinctCount("blob".into())),
                ("sb", AggFn::Sum("blob".into())),
            ];
            for slot in 0..rng.gen_range(1..4usize) {
                let (name, f) = &aggs[rng.gen_range(0..aggs.len())];
                q = q.aggregate(format!("{name}{slot}"), f.clone());
            }
            q = match rng.gen_range(0..7u8) {
                0 => q,
                1 => q.group(&["city"]),
                2 => q.group(&["city", "flag"]),
                3 => q.group(&["ghost"]),
                4 => q.group(&["blob"]),
                5 => q.group(&["blob", "city"]),
                _ => q.group(&["city", "ghost"]),
            };
        } else {
            q = match rng.gen_range(0..4u8) {
                0 => q,
                1 => q.columns(&["city", "x"]),
                2 => q.columns(&["blob", "n"]),
                _ => q.columns(&["ghost", "n"]),
            };
            if rng.gen_bool(0.5) {
                let by = ["n", "blob"][rng.gen_range(0..2usize)];
                q = q.order(by, rtdi::olap::query::SortOrder::Asc);
            }
            if rng.gen_bool(0.5) {
                q = q.limit(rng.gen_range(1..40usize));
            }
        }
        let valid: Option<Bitmap> = if rng.gen_bool(0.5) && !rows.is_empty() {
            let mut bm = Bitmap::new(rows.len());
            for i in 0..rows.len() {
                if rng.gen_bool(0.6) {
                    bm.set(i);
                }
            }
            Some(bm)
        } else {
            None
        };
        let every = rng.gen_range(1..48usize);
        let ctx = format!("case {case}");
        assert_three_way(&rows, &spec, &q, valid.as_ref(), every, &ctx);
        // the masked cases also run unmasked
        if valid.is_some() {
            assert_three_way(&rows, &spec, &q, None, every, &ctx);
        }
    }
}

/// A bytes cell that is not UTF-8, of 0–3 bytes out of a small alphabet,
/// so equal cells and equal lengths (a group key's text) recur.
fn arb_blob(rng: &mut StdRng) -> Value {
    let len = rng.gen_range(0..4usize);
    Value::Bytes((0..len).map(|_| rng.gen_range(0xfd..=0xffu8)).collect())
}

/// Docs per block of an Int column's min/max statistics in a segment.
const BLOCK: usize = 1024;

/// `len` rows whose `n` grows like event time, by 0–2 a row: a drawn share
/// of cells (none, 1 % or 10 %) is out of order (an earlier time or an
/// extreme), up to two runs of 1 024–2 199 rows have no `n`, which empties
/// whole blocks, and a fifth of the cases climb to just below `i64::MAX`.
fn time_like_rows(rng: &mut StdRng, len: usize) -> Vec<Row> {
    let disorder = [0.0, 0.01, 0.1][rng.gen_range(0..3usize)];
    let start = match rng.gen_bool(0.2) {
        true => i64::MAX - 3 * len as i64,
        false => rng.gen_range(-1000..1000i64),
    };
    let gaps: Vec<std::ops::Range<usize>> = (0..rng.gen_range(0..3usize))
        .map(|_| {
            let from = rng.gen_range(0..len);
            from..from + rng.gen_range(BLOCK..2200)
        })
        .collect();
    let mut t = start;
    (0..len)
        .map(|i| {
            let row = arb_row_with(rng, 1.0, 6, &Specials::default());
            let mut row = row.project(&["city", "x", "flag"]);
            t += rng.gen_range(0..3i64);
            let n = match rng.gen_bool(disorder) {
                false => t,
                true => match rng.gen_range(0..4u8) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.gen_range(start..=t),
                },
            };
            if !gaps.iter().any(|gap| gap.contains(&i)) {
                row.push("n", n);
            }
            row
        })
        .collect()
}

/// An Int column keeps a min and a max per block of docs, and a predicate
/// on it skips the blocks whose bounds rule it out, takes whole (NULLs
/// aside) the blocks whose bounds rule it in, and tests the docs of the
/// rest. Cases of k·1 024 − 1, k·1 024 and k·1 024 + 1 rows put a
/// [`time_like_rows`] `n` through every engine of [`assert_three_way`],
/// queried at block edges as the consuming segment grows: each operator
/// against a cell at a block edge, the last cell or an extreme, a
/// two-sided range, a predicate behind a selective one on another column,
/// and Double literals.
#[test]
fn block_statistics_never_change_an_answer() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(SEED_BLOCKS + case);
        let len = rng.gen_range(1..=4usize) * BLOCK + rng.gen_range(0..3usize) - 1;
        let rows = time_like_rows(&mut rng, len);
        let present: Vec<i64> = rows.iter().filter_map(|r| r.get_int("n")).collect();
        let literal = |rng: &mut StdRng| -> i64 {
            let edge = (rng.gen_range(0..=len / BLOCK) * BLOCK + rng.gen_range(0..3usize))
                .saturating_sub(1)
                .min(len - 1);
            let cell = match rng.gen_range(0..4u8) {
                0 | 1 => rows[edge].get_int("n"),
                2 => rows[len - 1].get_int("n"),
                _ => Some([i64::MIN, i64::MAX, 0][rng.gen_range(0..3usize)]),
            };
            let any = || present.get(rng.gen_range(0..present.len().max(1))).copied();
            let n = cell.or_else(any).unwrap_or(0);
            n.saturating_add(rng.gen_range(-1..=1i64))
        };
        let spec = match rng.gen_range(0..3u8) {
            0 => IndexSpec::none(),
            1 => IndexSpec::none().with_inverted(&["city"]),
            _ => IndexSpec::none().with_range(&["n"]),
        };
        let base = Query::select_all("t")
            .aggregate("cnt", AggFn::Count)
            .aggregate("lo", AggFn::Min("n".into()))
            .aggregate("hi", AggFn::Max("n".into()));
        let mut queries: Vec<Query> = OPS
            .iter()
            .map(|&op| {
                base.clone()
                    .filter(Predicate::new("n", op, literal(&mut rng)))
            })
            .collect();
        let (a, b) = (literal(&mut rng), literal(&mut rng));
        queries.push(
            base.clone()
                .filter(Predicate::new("n", PredicateOp::Ge, a.min(b)))
                .filter(Predicate::new("n", PredicateOp::Lt, a.max(b))),
        );
        let op = OPS[rng.gen_range(0..6usize)];
        queries.push(
            base.clone()
                .filter(Predicate::eq("city", format!("c{}", rng.gen_range(0..6))))
                .filter(Predicate::new("n", op, literal(&mut rng))),
        );
        let op = OPS[rng.gen_range(0..6usize)];
        let x = match rng.gen_range(0..3u8) {
            0 => literal(&mut rng) as f64 + 0.5,
            1 => literal(&mut rng) as f64,
            _ => SPECIAL_X[rng.gen_range(0..SPECIAL_X.len())],
        };
        queries.push(base.clone().filter(Predicate::new("n", op, x)));
        let op = OPS[rng.gen_range(0..6usize)];
        let selection = Query::select_all("t").columns(&["n", "city"]);
        queries.push(selection.filter(Predicate::new("n", op, literal(&mut rng))));
        let every = [BLOCK - 1, BLOCK, BLOCK + 1, 600][rng.gen_range(0..4usize)];
        for q in &queries {
            let ctx = format!("case {case} ({len} rows)");
            assert_three_way(&rows, &spec, q, None, every, &ctx);
        }
    }
}

/// Ordered string predicates over a consuming segment's insertion-ordered
/// dictionary — evaluated per dictionary entry, where a sealed segment
/// compares ids of its sorted dictionary — for needles in the dictionary,
/// between two entries, below all and above all of them. The second pass
/// opens with rows that have no city and queries after every append: the
/// dictionary is still empty while the NULL cells already hold id 0, as
/// for any sparse field at the start of each consuming segment.
#[test]
fn string_predicates_agree_on_sorted_and_unsorted_dictionaries() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(SEED_VECTOR + 0x1000 + case);
        let rows = arb_rows(&mut rng, 1, 120);
        let mut null_prefixed = rows.clone();
        for r in null_prefixed.iter_mut().take(1 + case as usize) {
            *r = r.project(&["n", "x", "flag"]);
        }
        for op in OPS {
            for needle in ["c2", "c25", "b", "d", ""] {
                let q = Query::select_all("t")
                    .filter(Predicate::new("city", op, needle))
                    .aggregate("cnt", AggFn::Count)
                    .aggregate("sx", AggFn::Sum("x".into()))
                    .group(&["city"]);
                let ctx = format!("case {case} city {op:?} {needle:?}");
                assert_three_way(&rows, &IndexSpec::none(), &q, None, 7, &ctx);
                assert_three_way(&null_prefixed, &IndexSpec::none(), &q, None, 1, &ctx);
            }
        }
    }
}

/// Sealing a consuming segment that took its rows one by one persists the
/// very bytes of a batch build over the same rows, for random schemas over
/// every field type, unsorted and sorted. Both end in the same seal, so two
/// independent pivots pin it from outside: the storage layer's row encoder
/// (unsorted, where it stores a field type the way OLAP does) and a stable
/// row sort by `Value::total_cmp` (sorted).
#[test]
fn consuming_seal_is_byte_equal_to_batch_build() {
    use rtdi::olap::realtime::MutableSegment;
    use rtdi::storage::segfile;

    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_SEGFILE + 0x1000 + case);
        let schema = arb_schema(&mut rng);
        let rows = arb_typed_rows(&mut rng, &schema, 0, 200);
        // a JSON cell has no order of its own to sort by
        let sortable: Vec<&str> = schema
            .fields
            .iter()
            .filter(|f| f.field_type != FieldType::Json)
            .map(|f| f.name.as_str())
            .collect();
        let sorted = (!sortable.is_empty() && rng.gen_bool(0.5))
            .then(|| sortable[rng.gen_range(0..sortable.len())]);
        let spec = sorted.map_or(IndexSpec::none(), |c| IndexSpec::none().with_sorted(c));

        let mut consuming = MutableSegment::new("p", schema.clone());
        for r in &rows {
            consuming.append(r, None).unwrap();
        }
        let sealed = consuming.seal(&spec).unwrap();
        let built = Segment::build("p", &schema, rows.clone(), &spec).unwrap();
        let bytes = built.persist().unwrap();
        assert_eq!(
            sealed.persist().unwrap(),
            bytes,
            "case {case} spec {spec:?}"
        );

        match sorted {
            None => {
                let stored = segfile::encode_rows_segment(&schema, "p", &rows).unwrap();
                assert_eq!(bytes, stored, "case {case}: storage pivot differs");
            }
            Some(col) => {
                let mut by_value = rows.clone();
                by_value.sort_by(|a, b| {
                    let va = a.get(col).unwrap_or(&Value::Null);
                    let vb = b.get(col).unwrap_or(&Value::Null);
                    va.total_cmp(vb)
                });
                let plain = Segment::build("p", &schema, by_value, &IndexSpec::none()).unwrap();
                assert_eq!(sealed.to_rows(), plain.to_rows(), "case {case} by {col}");
            }
        }
    }
}

/// Log offsets are dense and monotonic under any append/retention mix.
#[test]
fn log_offsets_monotonic() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_LOG + case);
        let sizes: Vec<usize> = (0..rng.gen_range(1..20usize))
            .map(|_| rng.gen_range(1..50usize))
            .collect();
        let retention_bytes = if rng.gen_bool(0.5) {
            rng.gen_range(1_000..20_000usize)
        } else {
            0
        };
        let log = PartitionLog::new(0, retention_bytes);
        let mut expected = 0u64;
        for (i, size) in sizes.iter().enumerate() {
            for j in 0..*size {
                let record = Record::new(Row::new().with("i", (i * 100 + j) as i64), 0);
                let offset = log.append(record, i as i64);
                assert_eq!(offset, expected, "case {case} burst {i} record {j}");
                expected += 1;
            }
        }
        assert_eq!(log.high_watermark(), expected, "case {case}");
        assert!(
            log.log_start_offset() <= log.high_watermark(),
            "case {case}"
        );
        // everything retained is fetchable with contiguous offsets
        let fetch = log.fetch(log.log_start_offset(), usize::MAX / 2).unwrap();
        for (k, r) in fetch.records.iter().enumerate() {
            assert_eq!(
                r.offset,
                log.log_start_offset() + k as u64,
                "case {case} record {k}"
            );
        }
    }
}

/// JSON parse/serialize round-trips arbitrary generated documents.
#[test]
fn json_roundtrip() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_JSON + case);
        let doc = arb_json(&mut rng, 3);
        let text = rtdi::common::json::to_string(&doc);
        let parsed = rtdi::common::json::parse(&text).unwrap();
        assert_eq!(parsed, doc, "case {case}: {text}");
    }
}

/// Keyed records always land on the same partition.
#[test]
fn partitioning_deterministic() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(SEED_PARTITION + case);
        let len = rng.gen_range(0..=24usize);
        let key: String = (0..len)
            .map(|_| {
                // printable ASCII keeps the property readable on failure
                char::from(rng.gen_range(0x20..0x7Fu8))
            })
            .collect();
        let parts = rng.gen_range(1..64usize);
        let r1 = Record::new(Row::new(), 0).with_key(key.clone());
        let r2 = Record::new(Row::new(), 0).with_key(key.clone());
        assert_eq!(
            r1.partition_for(parts),
            r2.partition_for(parts),
            "case {case} key {key:?}"
        );
        assert!(r1.partition_for(parts).unwrap() < parts, "case {case}");
    }
}

fn arb_json(rng: &mut StdRng, depth: u32) -> rtdi::common::value::JsonValue {
    use rtdi::common::value::JsonValue;
    let max = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..max) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.gen::<bool>()),
        2 => {
            // finite, round-trippable numbers
            let f = rng.gen_range(-1e9..1e9f64);
            JsonValue::Number((f * 100.0).round() / 100.0)
        }
        3 => {
            const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABC XYZ0123456789_-";
            let len = rng.gen_range(0..=12usize);
            JsonValue::String(
                (0..len)
                    .map(|_| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]))
                    .collect(),
            )
        }
        4 => {
            let len = rng.gen_range(0..4usize);
            JsonValue::Array((0..len).map(|_| arb_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..4usize);
            JsonValue::Object(
                (0..len)
                    .map(|_| {
                        let klen = rng.gen_range(1..=6usize);
                        let k: String = (0..klen)
                            .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                            .collect();
                        (k, arb_json(rng, depth - 1))
                    })
                    .collect(),
            )
        }
    }
}

/// Engine-level property: connector pushdown never changes SQL results.
mod pushdown_equivalence {
    use super::*;
    use rtdi::olap::table::{OlapTable, TableConfig};
    use rtdi::sql::connector::PinotConnector;
    use rtdi::sql::engine::{EngineConfig, SqlEngine};
    use std::sync::Arc;

    pub fn engines(rows: &[Row]) -> (SqlEngine, SqlEngine) {
        let table = OlapTable::new(
            TableConfig::new("t", schema())
                .with_index_spec(
                    IndexSpec::none()
                        .with_inverted(&["city"])
                        .with_range(&["x", "n"]),
                )
                .with_partitions(2)
                .with_segment_rows(64),
        )
        .unwrap();
        for (i, r) in rows.iter().enumerate() {
            table.ingest(i % 2, r.clone()).unwrap();
        }
        let mk = |pushdown: bool| {
            let pinot = PinotConnector::new();
            pinot.register(table.clone());
            let mut e = SqlEngine::new(EngineConfig {
                default_catalog: "pinot".into(),
                enable_pushdown: pushdown,
            });
            e.register_connector("pinot", Arc::new(pinot));
            e
        };
        (mk(true), mk(false))
    }

    fn arb_sql(rng: &mut StdRng) -> String {
        let pred = if rng.gen_bool(0.7) {
            Some(match rng.gen_range(0..4u8) {
                0 => format!("city = 'c{}'", rng.gen_range(0..6u8)),
                1 => format!("n > {}", rng.gen_range(-500..500i64)),
                2 => format!("x <= {}", rng.gen_range(-50..50i64)),
                _ => format!("city <> 'c{}'", rng.gen_range(0..6u8)),
            })
        } else {
            None
        };
        let agg = [
            "COUNT(*) AS a",
            "SUM(x) AS a",
            "AVG(x) AS a",
            "MIN(n) AS a",
            "MAX(n) AS a",
        ][rng.gen_range(0..5usize)];
        let group = rng.gen::<bool>();
        let limit = if rng.gen_bool(0.5) {
            Some(rng.gen_range(1..20usize))
        } else {
            None
        };
        let mut sql = String::from("SELECT ");
        if group {
            sql.push_str("city, ");
        }
        sql.push_str(agg);
        sql.push_str(" FROM t");
        if let Some(p) = pred {
            sql.push_str(&format!(" WHERE {p}"));
        }
        if group {
            sql.push_str(" GROUP BY city ORDER BY city ASC");
            if let Some(n) = limit {
                sql.push_str(&format!(" LIMIT {n}"));
            }
        }
        sql
    }

    /// Assert the pushdown-on and pushdown-off engines agree on a query
    /// (with float tolerance: AVG/SUM accumulate in different orders).
    pub fn assert_pushdown_equivalent(rows: &[Row], sql: &str, ctx: &str) {
        let (on, off) = engines(rows);
        let a = on.query(sql).unwrap();
        let b = off.query(sql).unwrap();
        assert_eq!(a.rows.len(), b.rows.len(), "{ctx}: {sql}");
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            for (name, va) in ra.iter() {
                let vb = rb.get(name).unwrap();
                match (va.as_double(), vb.as_double()) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() < 1e-6, "{ctx}: {sql}: {x} vs {y}")
                    }
                    _ => assert_eq!(va, vb, "{ctx}: {sql}"),
                }
            }
        }
        // and pushdown actually reduced (or matched) shipped rows
        assert!(
            a.stats.rows_shipped <= b.stats.rows_shipped,
            "{ctx}: {sql}: shipped {} > {}",
            a.stats.rows_shipped,
            b.stats.rows_shipped
        );
    }

    #[test]
    fn pushdown_never_changes_results() {
        for case in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(SEED_PUSHDOWN + case);
            let rows = arb_rows(&mut rng, 1, 150);
            let sql = arb_sql(&mut rng);
            assert_pushdown_equivalent(&rows, &sql, &format!("case {case}"));
        }
    }
}

/// The warehouse's columnar scan (filters and projection pushed into the
/// part files, aggregates folded over column views) must be unobservable
/// in the answers: over random Hive tables — several dates, several part
/// files each, every field type, NULL-heavy columns, one column never
/// written and one the schema lacks — a random query returns, row for
/// row, what it returns with pushdown off and what a `MemoryConnector`
/// over the same rows returns.
mod hive_pushdown_equivalence {
    use super::*;
    use rtdi::sql::connector::{HiveConnector, MemoryConnector};
    use rtdi::sql::engine::{EngineConfig, SqlEngine};
    use rtdi::storage::archival::date_partition;
    use rtdi::storage::hive::HiveCatalog;
    use rtdi::storage::object::InMemoryStore;
    use std::sync::Arc;

    const DAY: i64 = 86_400_000;

    fn wide_schema() -> Schema {
        Schema::of(
            "t",
            &[
                ("city", FieldType::Str),
                ("n", FieldType::Int),
                ("x", FieldType::Double),
                ("flag", FieldType::Bool),
                ("doc", FieldType::Json),
                ("blob", FieldType::Bytes),
                ("ts", FieldType::Timestamp),
                // in the schema, in no row: NULL everywhere
                ("void", FieldType::Str),
            ],
        )
    }

    fn dim_schema() -> Schema {
        Schema::of("dim", &[("id", FieldType::Int), ("label", FieldType::Str)])
    }

    /// A type-correct row (so the part file stores it losslessly) with
    /// each column absent 35% of the time and an explicit NULL 10%.
    fn wide_row(rng: &mut StdRng, day: i64) -> Row {
        const DOCS: [&str; 4] = [r#"{"a":1}"#, "[1,2]", r#""c1""#, r#"{"k":"c1"}"#];
        let mut row = Row::new();
        let mut cell = |rng: &mut StdRng, name: &str, v: Value| match rng.gen_range(0..20u8) {
            0..=6 => {}
            7..=8 => row.push(name, Value::Null),
            _ => row.push(name, v),
        };
        let v = Value::from(format!("c{}", rng.gen_range(0..6u8)));
        cell(rng, "city", v);
        let v = Value::Int(rng.gen_range(-20..20i64));
        cell(rng, "n", v);
        // quarters: sums are exact in any fold order
        let v = Value::Double(rng.gen_range(-40..40i64) as f64 * 0.25);
        cell(rng, "x", v);
        let v = Value::Bool(rng.gen());
        cell(rng, "flag", v);
        let doc = rtdi::common::json::parse(DOCS[rng.gen_range(0..4usize)]).unwrap();
        cell(rng, "doc", Value::Json(Box::new(doc)));
        let len = rng.gen_range(0..4usize);
        // not valid UTF-8 on purpose
        let v = Value::Bytes((0..len).map(|_| rng.gen_range(0xf0..=0xffu8)).collect());
        cell(rng, "blob", v);
        let v = Value::Int(day * DAY + rng.gen_range(0..1000i64));
        cell(rng, "ts", v);
        row
    }

    /// (pushdown on, pushdown off, memory) over the same random tables.
    fn engines(rng: &mut StdRng) -> [SqlEngine; 3] {
        let catalog = HiveCatalog::new(Arc::new(InMemoryStore::new()));
        let t = catalog.create_table("t", wide_schema()).unwrap();
        for day in 0..rng.gen_range(1..4i64) {
            for _ in 0..rng.gen_range(1..4u8) {
                let rows: Vec<Row> = (0..rng.gen_range(0..40usize))
                    .map(|_| wide_row(rng, day))
                    .collect();
                catalog
                    .write_rows("t", &date_partition(day * DAY), &rows)
                    .unwrap();
            }
        }
        let dim = catalog.create_table("dim", dim_schema()).unwrap();
        let labels: Vec<Row> = (-5..5i64)
            .map(|id| {
                Row::new()
                    .with("id", id)
                    .with("label", format!("l{}", id.rem_euclid(3)))
            })
            .collect();
        catalog.write_rows("dim", "d000000", &labels).unwrap();
        let mut mem = MemoryConnector::new();
        mem.add_table("t", wide_schema(), t.scan_all().unwrap());
        mem.add_table("dim", dim_schema(), dim.scan_all().unwrap());
        let mem: Arc<MemoryConnector> = Arc::new(mem);
        let engine = |pushdown: bool, memory: bool| {
            let mut e = SqlEngine::new(EngineConfig {
                default_catalog: "w".into(),
                enable_pushdown: pushdown,
            });
            if memory {
                e.register_connector("w", mem.clone());
            } else {
                e.register_connector("w", Arc::new(HiveConnector::new(catalog.clone())));
            }
            e
        };
        [
            engine(true, false),
            engine(false, false),
            engine(true, true),
        ]
    }

    const COLUMNS: [&str; 9] = [
        "city", "n", "x", "flag", "doc", "blob", "ts", "void", "ghost",
    ];

    fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    /// Any column against a literal of any type the parser has.
    fn arb_conjunct(rng: &mut StdRng, qualifier: &str) -> String {
        let col = pick(rng, &COLUMNS);
        let op = pick(rng, &["=", "<>", "<", "<=", ">", ">="]);
        let lit = match rng.gen_range(0..5u8) {
            0 => format!("'c{}'", rng.gen_range(0..6u8)),
            1 => "'zz'".to_string(),
            2 => rng.gen_range(-20..20i64).to_string(),
            3 => format!("{:?}", rng.gen_range(-40..40i64) as f64 * 0.25 + 0.125),
            _ => (rng.gen_range(0..3i64) * DAY + rng.gen_range(0..1000i64)).to_string(),
        };
        match rng.gen_range(0..10u8) {
            // not of the `column <op> literal` shape: stays in the engine
            0 => format!("{qualifier}n + 1 {op} 3"),
            1 => format!("{lit} {op} {qualifier}{col}"),
            _ => format!("{qualifier}{col} {op} {lit}"),
        }
    }

    fn arb_where(rng: &mut StdRng, qualifier: &str) -> String {
        let conjuncts: Vec<String> = (0..rng.gen_range(0..3u8))
            .map(|_| arb_conjunct(rng, qualifier))
            .collect();
        if conjuncts.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conjuncts.join(" AND "))
        }
    }

    fn arb_limit(rng: &mut StdRng) -> String {
        if rng.gen_bool(0.5) {
            format!(" LIMIT {}", rng.gen_range(1..15usize))
        } else {
            String::new()
        }
    }

    fn arb_sql(rng: &mut StdRng) -> String {
        match rng.gen_range(0..10u8) {
            // rows: a projection (or `*`), filters, ORDER BY, LIMIT
            0..=2 => {
                let cols: Vec<&str> = (0..rng.gen_range(0..4u8))
                    .map(|_| pick(rng, &COLUMNS))
                    .collect();
                let mut distinct = cols.clone();
                distinct.sort_unstable();
                distinct.dedup();
                let (list, sortable) = if distinct.is_empty() {
                    ("*".to_string(), &COLUMNS[..8])
                } else {
                    (distinct.join(", "), &distinct[..])
                };
                let order = if rng.gen_bool(0.5) {
                    let dir = pick(rng, &["ASC", "DESC"]);
                    format!(" ORDER BY {} {dir}", pick(rng, sortable))
                } else {
                    String::new()
                };
                let filter = arb_where(rng, "");
                format!("SELECT {list} FROM t{filter}{order}{}", arb_limit(rng))
            }
            // COUNT(*) alone: no column is read
            3 => format!("SELECT COUNT(*) AS c FROM t{}", arb_where(rng, "")),
            // a join under an aggregate
            4 => {
                let filter = arb_where(rng, "a.");
                format!(
                    "SELECT a.city, d.label, COUNT(*) AS c, SUM(a.x) AS s \
                     FROM t a JOIN dim d ON a.n = d.id{filter} \
                     GROUP BY a.city, d.label ORDER BY c DESC, city ASC, label ASC{}",
                    arb_limit(rng)
                )
            }
            // GROUP BY over zero to two keys with one to three aggregates
            _ => {
                let mut keys: Vec<&str> = (0..rng.gen_range(0..3u8))
                    .map(|_| pick(rng, &COLUMNS))
                    .collect();
                keys.dedup();
                let aggs: Vec<String> = (0..rng.gen_range(1..4usize))
                    .map(|i| {
                        let col = pick(rng, &COLUMNS);
                        let f = match rng.gen_range(0..8u8) {
                            0 => "COUNT(*)".to_string(),
                            1 => format!("SUM({col})"),
                            2 => format!("AVG({col})"),
                            3 => format!("MIN({col})"),
                            4 => format!("MAX({col})"),
                            5 => format!("COUNT(DISTINCT {col})"),
                            // shapes the kernels do not take
                            6 => format!("COUNT({col})"),
                            _ => "SUM(n + 1)".to_string(),
                        };
                        format!("{f} AS a{i}")
                    })
                    .collect();
                let mut select: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                select.extend(aggs);
                let group = if keys.is_empty() {
                    String::new()
                } else {
                    format!(" GROUP BY {}", keys.join(", "))
                };
                let order = if rng.gen_bool(0.5) {
                    " ORDER BY a0 DESC"
                } else {
                    ""
                };
                let filter = arb_where(rng, "");
                format!(
                    "SELECT {} FROM t{filter}{group}{order}{}",
                    select.join(", "),
                    arb_limit(rng)
                )
            }
        }
    }

    #[test]
    fn hive_pushdown_and_fold_never_change_results() {
        for case in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(SEED_HIVE + case);
            let [on, off, memory] = engines(&mut rng);
            for q in 0..12 {
                let sql = arb_sql(&mut rng);
                let ctx = format!("case {case} query {q}: {sql}");
                let a = on.query(&sql).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let b = off.query(&sql).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let c = memory.query(&sql).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(a.rows, b.rows, "{ctx}: pushdown on vs off");
                assert_eq!(a.rows, c.rows, "{ctx}: hive vs memory");
                assert!(a.stats.rows_shipped <= b.stats.rows_shipped, "{ctx}");
            }
        }
    }
}

/// A grouped answer without ORDER BY comes out in key order — NULL first,
/// then text, column by column — whichever path computed it, so every
/// path answers the same rows in the same order, byte for byte: the row
/// aggregator (pushdown off), a table whose segments are all consuming,
/// the same rows sealed (all of them, and all but the last segment), the
/// sealed segments persisted and reopened lazily, a hybrid split at a
/// drawn row, and the warehouse's fold over part files. A LIMIT without
/// ORDER BY keeps the first groups in that order, so it must cut the same.
mod grouped_emission_order {
    use super::*;
    use rtdi::olap::table::{OlapTable, TableConfig};
    use rtdi::sql::catalog::{HybridTable, RealtimeSide};
    use rtdi::sql::connector::{Connector, HiveConnector, PinotConnector};
    use rtdi::sql::engine::{EngineConfig, SqlEngine};
    use rtdi::storage::hive::HiveCatalog;
    use rtdi::storage::object::InMemoryStore;
    use std::sync::Arc;

    const SEED_GROUPED: u64 = 0x0060_0D3E;

    fn schema() -> Schema {
        Schema::of(
            "t",
            &[
                ("city", FieldType::Str),
                ("n", FieldType::Int),
                ("x", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    /// Row `i`: a city out of `cities` (a three-entry dictionary is dense
    /// in any segment, a few hundred sparse in most), `n` in -3..=12, whose
    /// text orders `10` before `9`, each NULL or absent now and then; `x`
    /// in quarters, so every fold order sums it exactly; `ts` = `i`, so a
    /// hybrid split loses no row.
    fn row(rng: &mut StdRng, i: usize, cities: u32) -> Row {
        let mut row = Row::new();
        match rng.gen_range(0..10u8) {
            0 => {}
            1 => row.push("city", Value::Null),
            _ => row.push("city", format!("c{}", rng.gen_range(0..cities))),
        }
        if rng.gen_range(0..8u8) > 0 {
            row.push("n", rng.gen_range(-3..=12i64));
        }
        row.push("x", rng.gen_range(-40..40i64) as f64 * 0.25);
        row.push("ts", i as i64);
        row
    }

    fn table(segment_rows: usize, rows: &[Row]) -> Arc<OlapTable> {
        let config = TableConfig::new("t", schema())
            .with_partitions(1)
            .with_segment_rows(segment_rows)
            .with_time_column("ts");
        let table = OlapTable::new(config).unwrap();
        for r in rows {
            table.ingest(0, r.clone()).unwrap();
        }
        table
    }

    /// A hybrid table: `archived` as lazily opened segment files of
    /// `segment_rows` rows, `live` in a realtime table.
    fn hybrid(archived: &[Row], live: &[Row], segment_rows: usize) -> Arc<PinotConnector> {
        let realtime = RealtimeSide::Direct(table(segment_rows, live));
        let hybrid = HybridTable::new("t", schema(), "ts", realtime).with_query_threads(1);
        for (i, chunk) in archived.chunks(segment_rows).enumerate() {
            let spec = IndexSpec::none();
            let segment = Segment::build(format!("off{i}"), &schema(), chunk.to_vec(), &spec);
            let file = segment.unwrap().persist().unwrap();
            let lazy = Segment::load_lazy(file).unwrap();
            hybrid
                .register_offline_segment(Arc::new(lazy), None)
                .unwrap();
        }
        let pinot = PinotConnector::new();
        pinot.register_hybrid(Arc::new(hybrid));
        Arc::new(pinot)
    }

    fn engine(connector: Arc<dyn Connector>, pushdown: bool) -> SqlEngine {
        let mut e = SqlEngine::new(EngineConfig {
            default_catalog: "c".into(),
            enable_pushdown: pushdown,
        });
        e.register_connector("c", connector);
        e
    }

    fn pinot(table: Arc<OlapTable>) -> Arc<PinotConnector> {
        let pinot = PinotConnector::new();
        pinot.register(table);
        Arc::new(pinot)
    }

    /// A GROUP BY of one or two keys (one maybe under an alias), a few
    /// aggregates, maybe a pushable WHERE, maybe a LIMIT; never ORDER BY.
    fn arb_sql(rng: &mut StdRng, cities: u32) -> String {
        let keys: &[&str] = [
            &["city"][..],
            &["n"],
            &["x"],
            &["city", "n"],
            &["n", "city"],
        ][rng.gen_range(0..5usize)];
        let select: Vec<String> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| match rng.gen_bool(0.25) {
                true => format!("{k} AS k{i}"),
                false => k.to_string(),
            })
            .collect();
        let aggs = [
            "COUNT(*) AS c",
            "SUM(x) AS s",
            "AVG(x) AS a",
            "MIN(x) AS lo",
            "MAX(n) AS hi",
            "COUNT(DISTINCT city) AS d",
        ];
        let aggs: Vec<&str> = (0..rng.gen_range(1..4usize))
            .map(|_| aggs[rng.gen_range(0..aggs.len())])
            .collect();
        let mut sql = format!("SELECT {}, {} FROM t", select.join(", "), aggs.join(", "));
        match rng.gen_range(0..5u8) {
            0 => sql.push_str(&format!(" WHERE city = 'c{}'", rng.gen_range(0..cities))),
            1 => sql.push_str(&format!(" WHERE city <> 'c{}'", rng.gen_range(0..cities))),
            2 => sql.push_str(&format!(" WHERE x > {}", rng.gen_range(-10..10i64))),
            _ => {}
        }
        sql.push_str(&format!(" GROUP BY {}", keys.join(", ")));
        if rng.gen_bool(0.3) {
            sql.push_str(&format!(" LIMIT {}", rng.gen_range(1..8usize)));
        }
        sql
    }

    #[test]
    fn grouped_answers_come_out_in_key_order_on_every_path() {
        let mut dense_and_sparse = (false, false);
        for case in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(SEED_GROUPED + case);
            let cities = [3, 300][rng.gen_range(0..2usize)];
            let len = rng.gen_range(1..400usize);
            let rows: Vec<Row> = (0..len).map(|i| row(&mut rng, i, cities)).collect();
            // 1 to 12 segments
            let per = len.div_ceil(rng.gen_range(1..=12usize));
            let cut = rng.gen_range(0..=len);

            let sealed = table(per, &rows);
            sealed.seal_all().unwrap();
            let hive = HiveCatalog::new(Arc::new(InMemoryStore::new()));
            hive.create_table("t", schema()).unwrap();
            for chunk in rows.chunks(per) {
                hive.write_rows("t", "d000000", chunk).unwrap();
            }
            let paths: [(&str, SqlEngine); 7] = [
                ("rows", engine(pinot(table(len + 1, &rows)), false)),
                ("consuming", engine(pinot(table(len + 1, &rows)), true)),
                ("partly sealed", engine(pinot(table(per, &rows)), true)),
                ("sealed", engine(pinot(sealed), true)),
                ("lazy", engine(hybrid(&rows, &[], per), true)),
                (
                    "hybrid",
                    engine(hybrid(&rows[..cut], &rows[cut..], per), true),
                ),
                ("hive", engine(Arc::new(HiveConnector::new(hive)), true)),
            ];
            dense_and_sparse.0 |= cities == 3;
            dense_and_sparse.1 |= cities == 300 && per < 300;
            for q in 0..8 {
                let sql = arb_sql(&mut rng, cities);
                let ctx = format!("case {case} query {q}: {sql}");
                let expect = paths[0].1.query(&sql).unwrap().rows;
                for (path, e) in &paths[1..] {
                    let got = e
                        .query(&sql)
                        .unwrap_or_else(|e| panic!("{ctx}: {path}: {e}"));
                    assert_eq!(got.rows, expect, "{ctx}: {path} vs rows");
                }
            }
        }
        assert_eq!(dense_and_sparse, (true, true));
    }
}

/// The shrunk counter-examples recorded by the seed's proptest runs
/// (`tests/properties.proptest-regressions`), pinned as deterministic
/// tests so the regressions stay covered without the regressions file.
/// The staged runtime's micro-batched + operator-chained protocol must be
/// observationally identical to the per-record oracle (`run_reference`): same
/// result records in the same order, same late-drop counts — across random
/// operator chains (stateless map/filter/flat-map runs around an optional
/// keyed window aggregation), random out-of-order streams, every batch
/// size, and with a chaos delay fault injected on the channel hop.
mod fused_batched_equivalence {
    use super::*;
    use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
    use rtdi::common::Timestamp;
    use rtdi::compute::reference::run_reference;
    use rtdi::compute::{
        run_staged_with, CollectSink, FilterOp, FlatMapOp, Job, MapOp, Operator, StagedConfig,
        VecSource, WindowAggregateOp, WindowAssigner,
    };

    #[derive(Clone, Debug)]
    enum StageSpec {
        AddN(i64),
        ScaleX(f64),
        FilterMod(i64),
        Dup,
    }

    #[derive(Clone, Debug)]
    struct JobSpec {
        pre: Vec<StageSpec>,
        window: Option<i64>, // tumbling size
        post: Vec<StageSpec>,
        out_of_orderness: i64,
        rows: Vec<(Timestamp, Row)>,
    }

    fn arb_stage(rng: &mut StdRng) -> StageSpec {
        match rng.gen_range(0..4u8) {
            0 => StageSpec::AddN(rng.gen_range(-50..50i64)),
            1 => StageSpec::ScaleX(rng.gen_range(0.5..2.0f64)),
            2 => StageSpec::FilterMod(rng.gen_range(2..5i64)),
            _ => StageSpec::Dup,
        }
    }

    fn arb_job_spec(rng: &mut StdRng) -> JobSpec {
        let pre = (0..rng.gen_range(1..4usize))
            .map(|_| arb_stage(rng))
            .collect();
        let window = if rng.gen_bool(0.7) {
            Some([500, 1_000, 1_700][rng.gen_range(0..3usize)])
        } else {
            None
        };
        let post = (0..rng.gen_range(0..3usize))
            .map(|_| arb_stage(rng))
            .collect();
        let n = rng.gen_range(40..250usize);
        let rows = (0..n)
            .map(|_| (rng.gen_range(0..8_000i64), arb_row(rng)))
            .collect();
        JobSpec {
            pre,
            window,
            post,
            out_of_orderness: [0, 250, 1_000][rng.gen_range(0..3usize)],
            rows,
        }
    }

    fn stateless_op(idx: usize, spec: &StageSpec) -> Box<dyn Operator> {
        match spec {
            StageSpec::AddN(k) => {
                let k = *k;
                Box::new(MapOp::new(format!("add{idx}"), move |r: &Row| {
                    let mut out = r.clone();
                    out.push(format!("m{idx}"), r.get_int("n").unwrap_or(0) + k);
                    out
                }))
            }
            StageSpec::ScaleX(f) => {
                let f = *f;
                Box::new(MapOp::new(format!("scale{idx}"), move |r: &Row| {
                    let mut out = r.clone();
                    out.push(format!("m{idx}"), r.get_double("x").unwrap_or(0.0) * f);
                    out
                }))
            }
            StageSpec::FilterMod(m) => {
                let m = *m;
                Box::new(FilterOp::new(format!("mod{idx}"), move |r: &Row| {
                    r.get_int("n").unwrap_or(0).rem_euclid(m) != 0
                }))
            }
            StageSpec::Dup => Box::new(FlatMapOp::new(format!("dup{idx}"), |r: &Record| {
                vec![r.clone(), r.clone()]
            })),
        }
    }

    fn build_job(name: &str, spec: &JobSpec, sink: CollectSink) -> Job {
        let mut ops: Vec<Box<dyn Operator>> = Vec::new();
        for (i, s) in spec.pre.iter().enumerate() {
            ops.push(stateless_op(i, s));
        }
        if let Some(size) = spec.window {
            ops.push(Box::new(WindowAggregateOp::new(
                "agg",
                vec!["city".into()],
                WindowAssigner::tumbling(size),
                vec![
                    ("cnt".into(), AggFn::Count),
                    ("sum_n".into(), AggFn::Sum("n".into())),
                ],
                0,
            )));
        }
        for (i, s) in spec.post.iter().enumerate() {
            ops.push(stateless_op(100 + i, s));
        }
        Job::new(
            name,
            Box::new(VecSource::from_rows(spec.rows.clone())),
            ops,
            Box::new(sink),
        )
        .with_out_of_orderness(spec.out_of_orderness)
    }

    fn late_drops(stats: &rtdi::compute::JobRunStats) -> u64 {
        stats.stages.iter().map(|s| s.late_dropped).sum()
    }

    /// Batched + fused output is identical to the per-record reference
    /// for every batch size, including sizes that leave partial batches.
    #[test]
    fn staged_batched_fused_matches_reference_on_random_jobs() {
        for case in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(SEED_FUSION + case);
            let spec = arb_job_spec(&mut rng);
            let ref_sink = CollectSink::new();
            let ref_stats = run_reference(build_job("ref", &spec, ref_sink.clone()))
                .unwrap_or_else(|e| panic!("case {case}: reference run failed: {e}"));
            for batch in [1usize, 2, 7, 64] {
                let sink = CollectSink::new();
                let stats = run_staged_with(
                    build_job("fused", &spec, sink.clone()),
                    &StagedConfig::batched(32, batch),
                )
                .unwrap_or_else(|e| panic!("case {case} batch {batch}: run failed: {e}"));
                assert_eq!(
                    sink.records(),
                    ref_sink.records(),
                    "case {case} batch {batch}: fused+batched output diverged"
                );
                assert_eq!(
                    late_drops(&stats),
                    late_drops(&ref_stats),
                    "case {case} batch {batch}: late-drop counts diverged"
                );
                assert_eq!(stats.records_in, ref_stats.records_in, "case {case}");
            }
        }
    }

    /// A chaos delay fault on the channel hop slows the pump but must not
    /// change what comes out.
    #[test]
    fn staged_batched_fused_matches_reference_under_channel_delay_fault() {
        for case in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(SEED_FUSION + 0x1000 + case);
            let spec = arb_job_spec(&mut rng);
            let ref_sink = CollectSink::new();
            run_reference(build_job("ref", &spec, ref_sink.clone())).unwrap();
            let chaos = Chaos::seeded(SEED_FUSION + case);
            chaos.arm(
                FaultPoint::ComputeChannel,
                FaultPlan::delay(50, Trigger::Probability(0.2)),
            );
            let config = StagedConfig {
                chaos,
                ..StagedConfig::batched(32, 7)
            };
            let sink = CollectSink::new();
            let res = run_staged_with(build_job("fused", &spec, sink.clone()), &config);
            res.unwrap_or_else(|e| panic!("case {case}: delay fault must not error: {e}"));
            assert_eq!(
                sink.records(),
                ref_sink.records(),
                "case {case}: output changed under channel delay fault"
            );
        }
    }

    /// A transient channel-hop failure surfaces as the injected error and
    /// a clean re-run (fault exhausted) reproduces the reference output
    /// exactly — the retry semantics jobs lean on.
    #[test]
    fn staged_batched_fused_recovers_identically_after_channel_fault() {
        for case in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(SEED_FUSION + 0x2000 + case);
            let spec = arb_job_spec(&mut rng);
            let ref_sink = CollectSink::new();
            run_reference(build_job("ref", &spec, ref_sink.clone())).unwrap();
            let chaos = Chaos::seeded(SEED_FUSION + case);
            let skip = rng.gen_range(0..spec.rows.len() as u64);
            chaos.arm(
                FaultPoint::ComputeChannel,
                FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(skip, Some(1)),
            );
            let config = StagedConfig {
                chaos,
                ..StagedConfig::batched(32, 7)
            };
            let crash_sink = CollectSink::new();
            let err = run_staged_with(build_job("crash", &spec, crash_sink.clone()), &config)
                .expect_err("armed channel fault must surface");
            assert!(
                matches!(err, rtdi::common::Error::Unavailable(_)),
                "case {case}: wrong error kind: {err}"
            );
            let retry_sink = CollectSink::new();
            let res = run_staged_with(build_job("retry", &spec, retry_sink.clone()), &config);
            res.unwrap_or_else(|e| panic!("case {case}: retry must succeed: {e}"));
            assert_eq!(
                retry_sink.records(),
                ref_sink.records(),
                "case {case}: re-run output diverged from reference"
            );
        }
    }
}

/// Window state kept in a hash map is invisible from outside: what a
/// windowed aggregation emits, snapshots and reports as its size is what a
/// plain ordered map of (key, start, end) gives, whatever the hash keys.
mod order_free_window_state {
    use super::*;
    use rtdi::common::wire::Writer;
    use rtdi::common::{AggAcc, Timestamp};
    use rtdi::compute::operator::key_string;
    use rtdi::compute::{Operator, WindowAggregateOp, WindowAssigner};
    use rtdi::storage::archival::encode_rows;
    use rtdi::storage::{key_group_of, KeyedSnapshot};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    type Entry = (Row, Vec<AggAcc>);

    /// The operator's contract over an ordered map: a (key, window) keeps
    /// the key row of the record that opened it, a session merge folds the
    /// overlapping sessions into the first in start order under the key row
    /// of the last, a flush walks the map in order.
    struct Model {
        cols: Vec<String>,
        assigner: WindowAssigner,
        aggs: Vec<(String, AggFn)>,
        lateness: i64,
        state: BTreeMap<(String, Timestamp, Timestamp), Entry>,
        watermark: Timestamp,
        dropped: u64,
    }

    impl Model {
        fn process(&mut self, record: &Record) {
            let key = key_string(&record.value, &self.cols);
            for mut window in self.assigner.assign(record.timestamp) {
                if window.end + self.lateness <= self.watermark {
                    self.dropped += 1;
                    continue;
                }
                if self.assigner.is_session() {
                    let mut hits = Vec::new();
                    let from = (key.clone(), Timestamp::MIN, Timestamp::MIN);
                    for (k, _) in self.state.range(from..) {
                        if k.0 != key {
                            break;
                        }
                        if k.1 < window.end && window.start < k.2 {
                            window.start = window.start.min(k.1);
                            window.end = window.end.max(k.2);
                            hits.push((k.1, k.2));
                        }
                    }
                    let mut union: Option<Entry> = None;
                    for (start, end) in hits {
                        let absorbed = self.state.remove(&(key.clone(), start, end)).unwrap();
                        match &mut union {
                            None => union = Some(absorbed),
                            Some((row, accs)) => {
                                accs.iter_mut()
                                    .zip(&absorbed.1)
                                    .for_each(|(a, b)| a.merge(b));
                                *row = absorbed.0;
                            }
                        }
                    }
                    if let Some(union) = union {
                        self.state
                            .insert((key.clone(), window.start, window.end), union);
                    }
                }
                let names: Vec<&str> = self.cols.iter().map(String::as_str).collect();
                let aggs = &self.aggs;
                let (_, accs) = self
                    .state
                    .entry((key.clone(), window.start, window.end))
                    .or_insert_with(|| {
                        let accs = aggs.iter().map(|(_, f)| f.new_acc()).collect();
                        (record.value.project(&names), accs)
                    });
                for (acc, (_, f)) in accs.iter_mut().zip(aggs) {
                    acc.add(f, &record.value);
                }
            }
        }

        fn on_watermark(&mut self, wm: Timestamp, out: &mut Vec<Record>) {
            if wm <= self.watermark {
                return;
            }
            self.watermark = wm;
            let lateness = self.lateness;
            let closed = |end: Timestamp| end.checked_add(lateness).is_none_or(|e| e <= wm);
            let keys: Vec<_> = self.state.keys().filter(|k| closed(k.2)).cloned().collect();
            for k in keys {
                let (key_row, accs) = self.state.remove(&k).unwrap();
                let mut row = key_row.clone();
                row.push("window_start", k.1);
                row.push("window_end", k.2);
                for ((name, _), acc) in self.aggs.iter().zip(&accs) {
                    row.push(name.as_str(), acc.result());
                }
                let mut rec = Record::new(row, k.2 - 1);
                rec.key = key_row.get(&self.cols[0]).cloned();
                out.push(rec);
            }
        }

        /// The snapshot's envelope fields and frames: one frame per key
        /// group in group order, each a count and its entries in map order.
        fn snapshot(&self) -> (Timestamp, u64, Vec<(u32, Vec<u8>)>) {
            let mut groups: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
            let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
            for ((key, start, end), (key_row, accs)) in &self.state {
                let g = key_group_of(Value::hash_of_str(key));
                *counts.entry(g).or_default() += 1;
                let body = groups.entry(g).or_default();
                body.extend((key.len() as u32).to_be_bytes());
                body.extend(key.as_bytes());
                body.extend(start.to_be_bytes());
                body.extend(end.to_be_bytes());
                let rows = encode_rows(std::slice::from_ref(key_row));
                body.extend((rows.len() as u32).to_be_bytes());
                body.extend(&rows[..]);
                body.extend((accs.len() as u32).to_be_bytes());
                for acc in accs {
                    let mut w = Writer::new();
                    acc.encode(&mut w);
                    body.extend(w.into_vec());
                }
            }
            let frames = groups.into_iter().map(|(g, body)| {
                let mut frame = counts[&g].to_be_bytes().to_vec();
                frame.extend(body);
                (g, frame)
            });
            (self.watermark, self.dropped, frames.collect())
        }

        fn memory_bytes(&self) -> usize {
            let entry = |(row, accs): &Entry| {
                row.approx_bytes() + accs.iter().map(AggAcc::memory_bytes).sum::<usize>() + 48
            };
            self.state.values().map(entry).sum()
        }
    }

    /// An operator's snapshot as [`Model::snapshot`] shows one.
    fn decoded(snap: KeyedSnapshot) -> (Timestamp, u64, Vec<(u32, Vec<u8>)>) {
        let frames = snap.frames.iter().map(|(g, f)| (*g, f.to_vec()));
        (snap.watermark, snap.dropped, frames.collect())
    }

    /// Key cells that write to the same key text under different rows:
    /// shared prefixes, a `\u{1f}` inside a cell (the key separator), the
    /// empty string, a number and its text, NULL and `"NULL"`, an absent
    /// cell and `"\u{0}"`.
    fn arb_cell(rng: &mut StdRng) -> Option<Value> {
        const TEXTS: [&str; 9] = [
            "", "a", "ab", "a\u{1f}", "\u{1f}b", "a\u{1f}b", "b", "NULL", "\u{0}",
        ];
        Some(match rng.gen_range(0..20u32) {
            0 => return None,
            1 => Value::Null,
            2 => Value::Int(1),
            3 => Value::Str("1".into()),
            _ => Value::Str(TEXTS[rng.gen_range(0..TEXTS.len())].into()),
        })
    }

    fn arb_assigner(rng: &mut StdRng) -> WindowAssigner {
        match rng.gen_range(0..3u32) {
            0 => WindowAssigner::tumbling([7, 50, 300][rng.gen_range(0..3usize)]),
            1 => {
                let slide = [5, 20, 100][rng.gen_range(0..3usize)];
                WindowAssigner::sliding(slide * rng.gen_range(1..5i64), slide)
            }
            _ => WindowAssigner::session([3, 40, 250][rng.gen_range(0..3usize)]),
        }
    }

    fn aggs() -> Vec<(String, AggFn)> {
        vec![
            ("n".into(), AggFn::Count),
            ("sum".into(), AggFn::Sum("v".into())),
            ("avg".into(), AggFn::Avg("v".into())),
            ("lo".into(), AggFn::Min("v".into())),
            ("hi".into(), AggFn::Max("v".into())),
            ("kinds".into(), AggFn::DistinctCount("v".into())),
        ]
    }

    /// Tumbling, sliding and session windows over one- and two-column keys
    /// that collide on their text, records in shuffled order with late ones
    /// among them, and watermarks that come at drawn points, stand still or
    /// go back. Three ways:
    /// - emissions, snapshots, late drops and state size equal the model;
    /// - two instances (each map with hash keys of its own) emit and
    ///   snapshot byte-identically;
    /// - a restored instance snapshots its checkpoint byte for byte, and
    ///   carries on as the one it was restored from.
    #[test]
    fn hashed_window_state_equals_an_ordered_map() {
        for case in 0..96u64 {
            let mut rng = StdRng::seed_from_u64(SEED_WINDOWS + case);
            let cols: Vec<String> = if rng.gen_bool(0.5) {
                vec!["k".into()]
            } else {
                vec!["k".into(), "j".into()]
            };
            let assigner = arb_assigner(&mut rng);
            let lateness = [0, 0, 30, 200][rng.gen_range(0..4usize)];
            let mk = || WindowAggregateOp::new("agg", cols.clone(), assigner, aggs(), lateness);
            let (mut a, mut b) = (mk(), mk());
            let mut model = Model {
                cols: cols.clone(),
                assigner,
                aggs: aggs(),
                lateness,
                state: BTreeMap::new(),
                watermark: Timestamp::MIN,
                dropped: 0,
            };
            let n = rng.gen_range(20..400usize);
            let mut records: Vec<Record> = (0..n)
                .map(|i| {
                    let mut row = Row::new();
                    for col in &cols {
                        if let Some(cell) = arb_cell(&mut rng) {
                            row.push(col.as_str(), cell);
                        }
                    }
                    if rng.gen_bool(0.9) {
                        row.push("v", (rng.gen_range(-40..40i64) as f64) * 0.37);
                    }
                    Record::new(row, (i as i64) * 3 + rng.gen_range(0..60i64))
                })
                .collect();
            // shuffle within a drawn reach: mostly ordered, some far behind
            let reach = [1usize, 8, n][rng.gen_range(0..3usize)];
            for i in (1..n).rev() {
                let j = i.saturating_sub(rng.gen_range(0..reach));
                records.swap(i, j);
            }
            let (mut out_a, mut out_b, mut expected) = (Vec::new(), Vec::new(), Vec::new());
            let mut newest = Timestamp::MIN;
            let ctx = format!("case {case} {assigner:?} keys {cols:?} lateness {lateness}");
            for record in &records {
                newest = newest.max(record.timestamp);
                let shared = Arc::new(record.clone());
                a.process(&shared, &mut out_a).unwrap();
                b.process(&shared, &mut out_b).unwrap();
                model.process(record);
                if rng.gen_bool(0.08) {
                    let wm = newest - rng.gen_range(0..120i64);
                    a.on_watermark(wm, &mut out_a);
                    b.on_watermark(wm, &mut out_b);
                    model.on_watermark(wm, &mut expected);
                }
                if rng.gen_bool(0.03) {
                    let snap = a.snapshot();
                    assert_eq!(snap, b.snapshot(), "{ctx}: two instances");
                    let held = decoded(KeyedSnapshot::decode(snap.clone()).unwrap());
                    assert_eq!(held, model.snapshot(), "{ctx}: model snapshot");
                    let mut restored = mk();
                    restored.restore(snap.clone()).unwrap();
                    assert_eq!(restored.snapshot(), snap, "{ctx}: restore round trip");
                    b = restored;
                }
                assert_eq!(a.memory_bytes(), model.memory_bytes(), "{ctx}: state size");
            }
            let held = decoded(KeyedSnapshot::decode(a.snapshot()).unwrap());
            assert_eq!(held, model.snapshot(), "{ctx}: last snapshot");
            a.on_watermark(Timestamp::MAX, &mut out_a);
            b.on_watermark(Timestamp::MAX, &mut out_b);
            model.on_watermark(Timestamp::MAX, &mut expected);
            let expected: Vec<Arc<Record>> = expected.into_iter().map(Arc::new).collect();
            assert_eq!(out_a, expected, "{ctx}: emissions");
            assert_eq!(out_b, expected, "{ctx}: emissions of the second instance");
            assert_eq!(
                Operator::late_dropped(&a),
                model.dropped,
                "{ctx}: late drops"
            );
            assert_eq!(Operator::late_dropped(&b), model.dropped, "{ctx}");
            assert!(!expected.is_empty(), "{ctx}");
        }
    }
}

mod pinned_regressions {
    use super::*;
    use pushdown_equivalence::{assert_pushdown_equivalent, engines};

    /// `rows = [Row { columns: [] }]`: a fully-empty row must survive the
    /// segment-file round-trip, match raw scans, and aggregate through
    /// the star-tree (one all-NULL group).
    #[test]
    fn empty_row_roundtrips_and_aggregates() {
        let rows = vec![Row::new()];

        let data = segfile::encode_rows_segment(&schema(), "p", &rows).unwrap();
        let (_, decoded) = segfile::decode_rows_segment(&data).unwrap();
        assert_eq!(decoded.len(), 1);
        for col in ["city", "n", "x", "flag"] {
            assert_eq!(
                decoded[0].get(col).cloned().unwrap_or(Value::Null),
                Value::Null
            );
        }

        let mut st_spec = StarTreeSpec::new(&["city"], vec![AggFn::Count, AggFn::Sum("x".into())]);
        st_spec.max_leaf_records = 0;
        let spec = IndexSpec::none().with_startree(st_spec);
        let seg = Segment::build("s", &schema(), rows, &spec).unwrap();
        let q = Query::select_all("t")
            .aggregate("cnt", AggFn::Count)
            .aggregate("sx", AggFn::Sum("x".into()))
            .group(&["city"]);
        let res = seg.execute(&q, None).unwrap();
        assert!(res.used_startree);
        assert_eq!(res.rows.len(), 1);
        // the group key for the absent city is a real NULL, not "NULL"
        assert_eq!(res.rows[0].get("city"), Some(&Value::Null));
        assert_eq!(res.rows[0].get_int("cnt"), Some(1));
        // SUM over no non-null inputs is NULL, not 0
        assert_eq!(res.rows[0].get("sx"), Some(&Value::Null));
    }

    /// `rows = [Row { columns: [] }], sql = "SELECT SUM(x) AS a FROM t"`:
    /// empty-set SUM must be NULL on both the engine and pushdown paths.
    #[test]
    fn sum_over_columnless_row_is_null() {
        let rows = vec![Row::new()];
        let sql = "SELECT SUM(x) AS a FROM t";
        assert_pushdown_equivalent(&rows, sql, "pinned");
        let (on, off) = engines(&rows);
        for (label, engine) in [("pushdown", &on), ("engine", &off)] {
            let out = engine.query(sql).unwrap();
            assert_eq!(out.rows.len(), 1, "{label}");
            assert_eq!(out.rows[0].get("a"), Some(&Value::Null), "{label}");
        }
    }

    /// `rows = [Row { columns: [("x", Double(0.0))] }], sql = "SELECT
    /// city, COUNT(*) AS a FROM t GROUP BY city ORDER BY city ASC"`:
    /// grouping by an absent column yields one NULL-keyed group on both
    /// paths (the pushdown path used to render it as the string "NULL").
    #[test]
    fn group_by_absent_column_yields_null_group() {
        let rows = vec![Row::new().with("x", 0.0)];
        let sql = "SELECT city, COUNT(*) AS a FROM t GROUP BY city ORDER BY city ASC";
        assert_pushdown_equivalent(&rows, sql, "pinned");
        let (on, off) = engines(&rows);
        for (label, engine) in [("pushdown", &on), ("engine", &off)] {
            let out = engine.query(sql).unwrap();
            assert_eq!(out.rows.len(), 1, "{label}");
            assert_eq!(out.rows[0].get("city"), Some(&Value::Null), "{label}");
            assert_eq!(out.rows[0].get_int("a"), Some(1), "{label}");
        }
    }

    /// Double statistics order as the kernels do: of 200 rows of `x`, 4 are
    /// NaN, which sorts above +∞, and 4 −NaN, below −∞; and a column holds
    /// 0.0 before −0.0, which sorts below it. A range index's candidates and
    /// a reloaded segment's zone maps keep every doc the scan matches.
    #[test]
    fn nan_and_signed_zero_statistics_keep_every_match() {
        let with_nan: Vec<Row> = (0..200usize)
            .map(|i| {
                let x = match i % 50 {
                    0 => f64::NAN,
                    1 => -f64::NAN,
                    _ => (i % 100) as f64,
                };
                Row::new().with("x", x)
            })
            .collect();
        let zeros = vec![Row::new().with("x", 0.0), Row::new().with("x", -0.0)];
        let cases = [
            (&with_nan, PredicateOp::Gt, 100.0, 4),
            (&with_nan, PredicateOp::Gt, 5.0, 188),
            (&with_nan, PredicateOp::Lt, -1.0, 4),
            (&zeros, PredicateOp::Lt, 0.0, 1),
        ];
        for (rows, op, v, matches) in cases {
            let pred = Predicate::new("x", op, v);
            assert_eq!(rows.iter().filter(|r| pred.matches(r)).count(), matches);
            let q = Query::select_all("t")
                .filter(pred.clone())
                .aggregate("cnt", AggFn::Count);
            let count = |rows: Vec<Row>| rows[0].get_int("cnt");
            for spec in [IndexSpec::none(), IndexSpec::none().with_range(&["x"])] {
                let seg = Segment::build("s", &schema(), rows.clone(), &spec).unwrap();
                let got = count(seg.execute(&q, None).unwrap().rows);
                assert_eq!(got, Some(matches as i64), "{pred:?} {spec:?}");
                let lazy = Segment::load_lazy(seg.persist().unwrap()).unwrap();
                let got = count(lazy.execute(&q).unwrap().rows);
                assert_eq!(got, Some(matches as i64), "{pred:?} {spec:?} reloaded");
                let sum = q.clone().aggregate("sx", AggFn::Sum("x".into()));
                assert_three_way(rows, &spec, &sum, None, 7, "pinned");
            }
        }
    }

    /// A literal string "NULL" must stay distinct from a NULL group key —
    /// the collision the stringified group keys used to allow.
    #[test]
    fn literal_null_string_is_not_a_null_group() {
        let rows = vec![
            Row::new().with("city", "NULL").with("x", 1.0),
            Row::new().with("x", 2.0),
        ];
        let sql = "SELECT city, COUNT(*) AS a FROM t GROUP BY city ORDER BY city ASC";
        assert_pushdown_equivalent(&rows, sql, "pinned");
        let (on, _) = engines(&rows);
        let out = on.query(sql).unwrap();
        assert_eq!(out.rows.len(), 2, "NULL key must not merge with 'NULL'");
        assert_eq!(out.rows[0].get("city"), Some(&Value::Null));
        assert_eq!(out.rows[1].get("city"), Some(&Value::Str("NULL".into())));
    }
}

/// Every part `Compactor::compact` writes is in event-time order and says
/// so, whatever order its input came in: two raw logs of one date, rows
/// that carry their own `__ts` (out of order, or NULL), days before 1970.
/// The part holds the input's rows, equal times in raw-log order, and every
/// `__ts` range reads as a row oracle over the unsorted input reads it:
/// the Kappa+ `HiveSource`, and SQL `=`, `<`, `>=` and two-sided ranges.
mod sorted_compaction {
    use super::*;
    use rtdi::compute::source::{HiveSource, Source};
    use rtdi::sql::connector::HiveConnector;
    use rtdi::sql::engine::{EngineConfig, SqlEngine};
    use rtdi::storage::archival::{date_partition, ArchivalWriter, Compactor};
    use rtdi::storage::column::ColumnData;
    use rtdi::storage::hive::HiveCatalog;
    use rtdi::storage::object::{InMemoryStore, ObjectStore};
    use std::sync::Arc;

    const DAY: i64 = 86_400_000;

    #[derive(Debug, Clone, Copy)]
    enum Shape {
        TwoRawLogs,
        OwnTimes,
        Before1970,
    }

    /// The raw logs of one date, each a batch in no time order. Times fall
    /// on 200 instants of the day, so many are equal.
    fn raw_logs(rng: &mut StdRng, shape: Shape) -> (i64, Vec<Vec<Record>>) {
        let day = match shape {
            Shape::Before1970 => -rng.gen_range(1..400i64),
            _ => rng.gen_range(0..400i64),
        };
        let logs = match shape {
            Shape::OwnTimes => 1,
            Shape::TwoRawLogs => 2,
            Shape::Before1970 => rng.gen_range(1..=2),
        };
        let own = match shape {
            Shape::TwoRawLogs => 0.0,
            _ => 0.3,
        };
        let instant = |rng: &mut StdRng| day * DAY + rng.gen_range(0..200i64) * 1_000;
        let mut id = 0i64;
        let batches = (0..logs)
            .map(|_| {
                (0..rng.gen_range(1..300))
                    .map(|_| {
                        id += 1;
                        let city = format!("c{}", rng.gen_range(0..5u8));
                        let mut row = Row::new().with("id", id).with("city", city);
                        if rng.gen_bool(own) {
                            let cell = if rng.gen_bool(0.3) {
                                Value::Null
                            } else {
                                Value::Int(instant(rng))
                            };
                            row.push("__ts", cell);
                        }
                        Record::new(row, instant(rng))
                    })
                    .collect()
            })
            .collect();
        (day, batches)
    }

    /// A record's row as the part holds it, with the event time it keeps:
    /// its own `__ts` cell, or else its timestamp.
    fn stored(r: &Record) -> (Option<i64>, Row) {
        let ts = match r.value.get("__ts") {
            Some(cell) => cell.as_int(),
            None => Some(r.timestamp),
        };
        let row = Row::new()
            .with("id", r.value.get("id").cloned().unwrap_or(Value::Null))
            .with("city", r.value.get("city").cloned().unwrap_or(Value::Null))
            .with("__ts", ts.map_or(Value::Null, Value::Int));
        (ts, row)
    }

    fn ids(rows: impl IntoIterator<Item = Row>) -> Vec<i64> {
        let mut ids: Vec<i64> = rows.into_iter().filter_map(|r| r.get_int("id")).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn compacted_parts_are_sorted_by_event_time_and_read_like_their_input() {
        let schema = Schema::of("t", &[("id", FieldType::Int), ("city", FieldType::Str)]);
        for case in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(SEED_COMPACTION + case);
            let shape = [Shape::TwoRawLogs, Shape::OwnTimes, Shape::Before1970][case as usize % 3];
            let ctx = format!("case {case} ({shape:?})");
            let (day, logs) = raw_logs(&mut rng, shape);
            let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
            let catalog = HiveCatalog::new(store.clone());
            let table = catalog.create_table("t", schema.clone()).unwrap();
            let writer = ArchivalWriter::new(store.clone(), "t");
            logs.iter()
                .for_each(|batch| drop(writer.write_batch(batch).unwrap()));
            let date = date_partition(day * DAY);
            assert_eq!(writer.raw_keys(&date).unwrap().len(), logs.len(), "{ctx}");
            let n = Compactor::new(store.clone(), catalog.clone()).compact("t", &date, &schema);
            let input: Vec<(Option<i64>, Row)> = logs.iter().flatten().map(stored).collect();
            assert_eq!(n.unwrap(), input.len(), "{ctx}");

            // the part claims `__ts`, and its cells are NULL first, then
            // non-decreasing
            let files = table.open_parts(|_| true).unwrap();
            assert_eq!(files.len(), 1, "{ctx}");
            assert_eq!(files[0].meta().sorted_col.as_deref(), Some("__ts"), "{ctx}");
            let ColumnData::Int { values, nulls, .. } = &*files[0].column("__ts").unwrap() else {
                panic!("{ctx}: `__ts` is not an integer column");
            };
            let cells: Vec<Option<i64>> = (0..values.len())
                .map(|d| (!nulls.get(d)).then_some(values[d]))
                .collect();
            assert!(cells.windows(2).all(|w| w[0] <= w[1]), "{ctx}: {cells:?}");

            // the input's rows: each raw log in time order, the logs in
            // write order, then a stable sort by the time each row keeps
            let mut want: Vec<(Option<i64>, Row)> = Vec::new();
            for batch in &logs {
                let mut log: Vec<&Record> = batch.iter().collect();
                log.sort_by_key(|r| r.timestamp);
                want.extend(log.into_iter().map(stored));
            }
            want.sort_by_key(|(ts, _)| *ts);
            let got = table.scan_all().unwrap();
            let want_rows: Vec<Row> = want.iter().map(|(_, r)| r.clone()).collect();
            assert_eq!(got, want_rows, "{ctx}");

            // ranges: through the Kappa+ read path and through SQL, against
            // the unsorted input
            let engine = {
                let mut e = SqlEngine::new(EngineConfig {
                    default_catalog: "w".into(),
                    enable_pushdown: true,
                });
                e.register_connector("w", Arc::new(HiveConnector::new(catalog.clone())));
                e
            };
            let times: Vec<i64> = input.iter().filter_map(|(ts, _)| *ts).collect();
            for q in 0..if times.is_empty() { 0 } else { 8 } {
                let a = times[rng.gen_range(0..times.len())];
                let b = a + rng.gen_range(0..80i64) * 1_000;
                let (from, to) = (a - rng.gen_range(0..2i64) * 500, b + 1);
                let mut source = HiveSource::new(&table, from, to, 64, None).unwrap();
                let mut got: Vec<(i64, i64)> = Vec::new();
                while !source.is_exhausted() {
                    let batch = source.poll_batch(64).unwrap();
                    got.extend(
                        batch
                            .iter()
                            .map(|r| (r.timestamp, r.value.get_int("id").unwrap())),
                    );
                }
                got.sort_unstable();
                let mut oracle: Vec<(i64, i64)> = input
                    .iter()
                    .filter(|(ts, _)| ts.is_none_or(|t| from <= t && t < to))
                    .map(|(ts, row)| (ts.unwrap_or(0), row.get_int("id").unwrap()))
                    .collect();
                oracle.sort_unstable();
                assert_eq!(got, oracle, "{ctx} query {q}: HiveSource [{from}, {to})");

                let preds: [(String, &dyn Fn(i64) -> bool); 5] = [
                    (format!("__ts = {a}"), &|t| t == a),
                    (format!("__ts < {a}"), &|t| t < a),
                    (format!("__ts >= {a}"), &|t| t >= a),
                    (format!("__ts >= {from} AND __ts < {to}"), &|t| {
                        from <= t && t < to
                    }),
                    (format!("__ts > {a} AND __ts <= {b}"), &|t| a < t && t <= b),
                ];
                for (cond, holds) in preds {
                    let sql = format!("SELECT id FROM t WHERE {cond}");
                    let out = engine
                        .query(&sql)
                        .unwrap_or_else(|e| panic!("{ctx}: {sql}: {e}"));
                    let want = input
                        .iter()
                        .filter(|(ts, _)| ts.is_some_and(holds))
                        .map(|(_, row)| row.clone());
                    assert_eq!(ids(out.rows), ids(want), "{ctx}: {sql}");
                }
            }
        }
    }
}

/// The Kappa+ source builds its records a poll at a time from one group of
/// part files; the source it replaced materialised every row of the range
/// and stable-sorted them by event time. Over archives with overlapping
/// parts of one date (compacted, sorted and claiming `__ts`; written
/// directly, unsorted; and written without a `__ts` column), NULL and
/// absent times, and days before 1970, the two hand out the same records
/// in the same order with the same timestamps, for any range, selection
/// and throttle; and so does a fresh source that seeks to the position the
/// first reported at any poll boundary.
mod streaming_backfill {
    use super::*;
    use rtdi::compute::source::{HiveSource, Source};
    use rtdi::storage::archival::{date_partition, ArchivalWriter, Compactor};
    use rtdi::storage::hive::{event_times, ts_cover, HiveCatalog, HiveTable, TsCover};
    use rtdi::storage::object::{InMemoryStore, ObjectStore};
    use std::sync::Arc;

    const DAY: i64 = 86_400_000;

    /// Records as (event time, row), in the order handed out.
    type Replay = Vec<(i64, Row)>;

    fn schema() -> Schema {
        Schema::of(
            "t",
            &[
                ("id", FieldType::Int),
                ("city", FieldType::Str),
                ("fare", FieldType::Double),
                ("__ts", FieldType::Timestamp),
            ],
        )
    }

    /// The materialising source, as test code: the rows of `[from, to)`
    /// part by part (a row without an event time at 0), then one stable
    /// sort by event time.
    fn materialised(table: &HiveTable, from: i64, to: i64, select: Option<&[String]>) -> Replay {
        let mut out = Vec::new();
        for file in table.open_range(from, to).unwrap() {
            let cover = ts_cover(&file, from, to);
            if cover == TsCover::Disjoint {
                continue;
            }
            let times = event_times(&file).unwrap();
            let inside = cover == TsCover::Inside;
            let in_range = |ts: i64| from <= ts && ts < to;
            let docs: Vec<u32> = (0..file.nrows() as u32)
                .filter(|&d| inside || times[d as usize].is_none_or(in_range))
                .collect();
            let rows = file.read_rows_where(select, Some(&docs)).unwrap();
            let timed = docs.iter().map(|&d| times[d as usize].unwrap_or(0));
            out.extend(timed.zip(rows));
        }
        out.sort_by_key(|(ts, _)| *ts);
        out
    }

    /// An archive of one to three days around day 0, two to five parts a
    /// day. Times fall on coarse instants of a window of the day, so parts
    /// overlap, touch or stand apart, and many times are equal.
    fn archive(rng: &mut StdRng) -> (HiveTable, Vec<i64>) {
        let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
        let catalog = HiveCatalog::new(store.clone());
        let table = catalog.create_table("t", schema()).unwrap();
        let writer = ArchivalWriter::new(store.clone(), "t");
        let compactor = Compactor::new(store.clone(), catalog.clone());
        let untimed = Schema::of("t", &[("id", FieldType::Int), ("city", FieldType::Str)]);
        let first = rng.gen_range(-3..2i64);
        let mut id = 0i64;
        let mut times = Vec::new();
        for day in first..first + rng.gen_range(1..=3i64) {
            let date = date_partition(day * DAY);
            for _ in 0..rng.gen_range(2..=5) {
                let start = day * DAY + rng.gen_range(0..6i64) * 10_000;
                let width = rng.gen_range(1..4i64) * 10_000;
                let mut row = |rng: &mut StdRng| {
                    id += 1;
                    let ts = start + rng.gen_range(0..=width / 1_000) * 1_000;
                    let row = Row::new()
                        .with("id", id)
                        .with("city", format!("c{}", rng.gen_range(0..4u8)))
                        .with("fare", rng.gen_range(0..100i64) as f64 / 4.0);
                    (ts, row)
                };
                let n = rng.gen_range(0..40usize);
                match rng.gen_range(0..4u8) {
                    // compacted from a raw log: sorted, claims `__ts`
                    0 => {
                        let records: Vec<Record> = (0..n)
                            .map(|_| {
                                let (ts, mut row) = row(rng);
                                if rng.gen_bool(0.15) {
                                    row.push("__ts", Value::Null);
                                }
                                Record::new(row, ts)
                            })
                            .collect();
                        drop(writer.write_batch(&records).unwrap());
                        compactor.compact("t", &date, &untimed).unwrap();
                    }
                    // a part without a `__ts` column: every row at time 0
                    1 => {
                        let rows: Vec<Row> = (0..n).map(|_| row(rng).1).collect();
                        let key = format!("warehouse/t/{date}/untimed-{id}");
                        let data = segfile::encode_rows_segment(&untimed, "t", &rows).unwrap();
                        store.put(&key, data).unwrap();
                        catalog.register_partition("t", &date, &key, n).unwrap();
                    }
                    // written directly, in no order, some times NULL or absent
                    _ => {
                        let rows: Vec<Row> = (0..n)
                            .map(|_| {
                                let (ts, row) = row(rng);
                                match rng.gen_range(0..10u8) {
                                    0 => row.with("__ts", Value::Null),
                                    1 => row,
                                    _ => row.with("__ts", ts),
                                }
                            })
                            .collect();
                        catalog.write_rows("t", &date, &rows).unwrap();
                    }
                }
                times.extend([start, start + width]);
            }
        }
        (table, times)
    }

    /// Poll `source` until exhausted, `max` at a time: every record's
    /// (time, row), and the position and record count at each poll
    /// boundary.
    fn drain(source: &mut HiveSource, max: usize) -> (Replay, Vec<(Vec<u64>, usize)>) {
        let (mut out, mut stops) = (Vec::new(), vec![(source.position(), 0)]);
        while !source.is_exhausted() {
            let batch = source.poll_batch(max).unwrap();
            out.extend(batch.iter().map(|r| (r.timestamp, r.value.clone())));
            stops.push((source.position(), out.len()));
        }
        (out, stops)
    }

    #[test]
    fn the_streaming_source_replays_what_the_materialising_one_did() {
        let selects: [Option<Vec<String>>; 5] = [
            None,
            Some(vec!["city".into()]),
            Some(vec!["fare".into(), "id".into(), "ghost".into()]),
            Some(vec!["__ts".into(), "city".into()]),
            Some(Vec::new()),
        ];
        for case in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(SEED_BACKFILL + case);
            let (table, times) = archive(&mut rng);
            let pick = |rng: &mut StdRng| times[rng.gen_range(0..times.len())];
            let (from, to) = match rng.gen_range(0..4u8) {
                0 => (i64::MIN, i64::MAX),
                1 => (pick(&mut rng) - DAY, pick(&mut rng) + DAY),
                _ => {
                    let (a, b) = (pick(&mut rng), pick(&mut rng));
                    (a.min(b) + rng.gen_range(-2..3i64) * 1_000, a.max(b) + 1)
                }
            };
            let select = selects[rng.gen_range(0..selects.len())].as_deref();
            let throttle = [1usize, 3, 7, 64][rng.gen_range(0..4usize)];
            let max = [2usize, 5, 512][rng.gen_range(0..3usize)];
            let ctx =
                format!("case {case}: [{from}, {to}) {select:?} throttle {throttle} max {max}");

            let want = materialised(&table, from, to, select);
            let mut source = HiveSource::new(&table, from, to, throttle, select).unwrap();
            let (got, stops) = drain(&mut source, max);
            assert_eq!(got, want, "{ctx}");
            for (position, done) in stops {
                let mut fresh = HiveSource::new(&table, from, to, throttle, select).unwrap();
                fresh.seek(&position).unwrap();
                let (rest, _) = drain(&mut fresh, max);
                assert_eq!(rest, want[done..], "{ctx}: resumed at {position:?}");
            }
        }
    }
}

/// Realtime ingestion drains its partitions in parallel once at least two
/// of them hold a full fetch, and one after another otherwise; neither
/// path may be observable. The oracle feeds each partition's new records
/// to `OlapTable::ingest_batch` in one call, one partition after another,
/// and resumes a partition behind a refused row in the next round, as the
/// ingester does. Over 1–8 partitions, backlogs below, at and far above
/// one fetch, seals inside fetches, plain and upsert tables and the odd
/// refused row, every round must leave the same segments (names, doc
/// counts, back-up order), SQL answers, upsert lookups, Chaperone window
/// counts, positions and outcome.
mod parallel_ingest {
    use super::*;
    use rtdi::common::Error;
    use rtdi::olap::ingestion::{IngestionConfig, RealtimeIngester};
    use rtdi::olap::table::{OlapTable, TableConfig};
    use rtdi::sql::connector::PinotConnector;
    use rtdi::sql::engine::{EngineConfig, SqlEngine};
    use rtdi::stream::chaperone::Chaperone;
    use rtdi::stream::topic::{Topic, TopicConfig};
    use std::sync::Arc;

    const SEED_INGEST: u64 = 0x1A6E_5700;
    const STAGE: &str = "pinot-ingestion";
    const WINDOW_MS: i64 = 100;
    const QUERIES: [&str; 3] = [
        "SELECT COUNT(*) AS n, SUM(fare) AS f, MAX(ts) AS t FROM t",
        "SELECT city, COUNT(*) AS n, SUM(fare) AS f FROM t GROUP BY city ORDER BY city ASC",
        "SELECT key, fare, ts FROM t WHERE city = 'c1' ORDER BY key ASC, ts ASC LIMIT 40",
    ];

    fn schema() -> Schema {
        Schema::of(
            "t",
            &[
                ("key", FieldType::Str),
                ("city", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    /// `per_partition` keys for each of `partitions`, each key in the
    /// partition its hash routes an upsert lookup to.
    fn keys(partitions: usize, per_partition: usize) -> Vec<Vec<String>> {
        let mut keys = vec![Vec::new(); partitions];
        for j in 0.. {
            let key = format!("k{j}");
            let p = (Value::Str(key.as_str().into()).partition_hash() % partitions as u64) as usize;
            if keys[p].len() < per_partition {
                keys[p].push(key);
            }
            if keys.iter().all(|k| k.len() == per_partition) {
                break;
            }
        }
        keys
    }

    /// Record `i` of partition `p`: fares in quarters, so every sum is
    /// exact whatever order it is added up in. A refused record carries a
    /// fare the schema does not accept.
    fn record(p: usize, i: usize, keys: &[String], refused: bool) -> Record {
        let key = &keys[(i * 7 + p) % keys.len()];
        let fare = if refused {
            Value::from(format!("free in partition {p}"))
        } else {
            Value::Double(((i * 13 + p) % 37) as f64 / 4.0)
        };
        let ts = (i * 7 + p) as i64;
        let row = Row::new()
            .with("key", key.as_str())
            .with("city", format!("c{}", (i + p) % 5))
            .with("fare", fare)
            .with("ts", ts);
        Record::new(row, ts)
            .with_key(key.as_str())
            .with_unique_id(format!("m{p}-{i}"))
    }

    fn table(partitions: usize, segment_rows: usize, upsert: bool) -> Arc<OlapTable> {
        let config = TableConfig::new("t", schema())
            .with_time_column("ts")
            .with_partitions(partitions)
            .with_segment_rows(segment_rows);
        let config = if upsert {
            config.with_upsert("key")
        } else {
            config
        };
        OlapTable::new(config).unwrap()
    }

    fn engine(table: &Arc<OlapTable>) -> SqlEngine {
        let pinot = PinotConnector::new();
        pinot.register(table.clone());
        let mut e = SqlEngine::new(EngineConfig {
            default_catalog: "pinot".into(),
            enable_pushdown: true,
        });
        e.register_connector("pinot", Arc::new(pinot));
        e
    }

    /// The oracle's round: each partition's records past `positions`, in
    /// one `ingest_batch`, partition after partition. Returns what
    /// `run_once` returns, with the error as text.
    fn oracle_round(
        topic: &Topic,
        table: &OlapTable,
        chaperone: &Chaperone,
        positions: &mut [u64],
    ) -> std::result::Result<u64, String> {
        let stage = chaperone.stage(STAGE);
        let (mut total, mut first_error) = (0, None);
        for (p, position) in positions.iter_mut().enumerate() {
            let fetched = topic.fetch(p, *position, usize::MAX / 2).unwrap().records;
            let rows = fetched.iter();
            let rows = rows.map(|r| (&r.record.value, Some(r.record.timestamp)));
            let consumed = match table.ingest_batch(p, rows) {
                Ok(n) => {
                    total += n as u64;
                    n
                }
                Err((k, e)) => {
                    first_error.get_or_insert(e.to_string());
                    k + 1
                }
            };
            stage.observe_batch(fetched[..consumed].iter().map(|r| r.record.as_ref()));
            *position += consumed as u64;
        }
        first_error.map_or(Ok(total), Err)
    }

    type Observed = (
        Vec<(usize, String, usize)>,
        Vec<Vec<String>>,
        Vec<Vec<Row>>,
        Vec<Option<Value>>,
        Vec<rtdi::stream::chaperone::WindowStats>,
    );

    /// Everything a round leaves that a reader can see.
    fn observe(table: &Arc<OlapTable>, chaperone: &Chaperone, keys: &[Vec<String>]) -> Observed {
        let partitions = keys.len();
        let backed_up = table.take_unbacked().into_iter();
        let backed_up = backed_up.map(|(p, s)| (p, s.name().to_string(), s.doc_count()));
        let sealed = (0..partitions).map(|p| table.sealed_segments(p).unwrap());
        let engine = engine(table);
        let answers = QUERIES.iter().map(|q| engine.query(q).unwrap().rows);
        let lookups = keys.iter().flatten();
        let lookups = lookups.map(|k| table.lookup(&Value::from(k.as_str()), "ts"));
        let windows = (0..40).map(|w| chaperone.stats(STAGE, w * WINDOW_MS));
        (
            backed_up.collect(),
            sealed.collect(),
            answers.collect(),
            lookups.collect(),
            windows.collect(),
        )
    }

    /// What a round appends to a partition: nothing, less than one fetch,
    /// exactly one, or several with a partial one at the end.
    fn backlog(rng: &mut StdRng, batch: usize) -> usize {
        match rng.gen_range(0..5u8) {
            0 => 0,
            1 => rng.gen_range(1..batch),
            2 => batch,
            _ => rng.gen_range(batch + 1..batch * 6),
        }
    }

    #[test]
    fn parallel_ingest_equals_the_serial_oracle() {
        const CASES: u64 = 48;
        let (mut serial_rounds, mut parallel_rounds) = (0, 0);
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(SEED_INGEST + case);
            let partitions = rng.gen_range(1..=8usize);
            let batch = rng.gen_range(2..=24usize);
            // below a fetch, so that fetches seal, or well above one
            let segment_rows = [rng.gen_range(2..batch + 2), rng.gen_range(batch..batch * 4)]
                [rng.gen_range(0..2usize)];
            let upsert = rng.gen_bool(0.5);
            let refusal_share = [0.0, 0.0, 0.02][rng.gen_range(0..3usize)];
            let keys = keys(partitions, rng.gen_range(1..=12usize));
            let ctx = format!(
                "case {case}: {partitions} partitions, fetch {batch}, segment {segment_rows}, \
                 upsert {upsert}, refusals {refusal_share}"
            );

            let topic = Topic::new("t", TopicConfig::default().with_partitions(partitions));
            let topic = Arc::new(topic.unwrap());
            let (parallel, oracle) = (
                table(partitions, segment_rows, upsert),
                table(partitions, segment_rows, upsert),
            );
            let (audit, oracle_audit) = (Chaperone::new(WINDOW_MS), Chaperone::new(WINDOW_MS));
            let config = IngestionConfig {
                batch_size: batch,
                ..IngestionConfig::default()
            };
            let mut ingester = RealtimeIngester::new(topic.clone(), parallel.clone(), config)
                .unwrap()
                .with_chaperone(audit.clone());
            let mut positions = vec![0u64; partitions];
            let mut appended = vec![0usize; partitions];
            for round in 0..rng.gen_range(1..=3) {
                for (p, end) in appended.iter_mut().enumerate() {
                    for _ in 0..backlog(&mut rng, batch) {
                        let refused = rng.gen_bool(refusal_share);
                        topic
                            .append_to(p, record(p, *end, &keys[p], refused), 0)
                            .unwrap();
                        *end += 1;
                    }
                }
                let qualifying = (0..partitions)
                    .filter(|&p| appended[p] as u64 - positions[p] >= batch as u64)
                    .count();
                if qualifying >= 2 {
                    parallel_rounds += 1;
                } else {
                    serial_rounds += 1;
                }
                let ctx = format!("{ctx}, round {round}, {qualifying} with a full fetch");

                let got = ingester.run_once().map_err(|e: Error| e.to_string());
                let want = oracle_round(&topic, &oracle, &oracle_audit, &mut positions);
                assert_eq!(got, want, "{ctx}");
                assert_eq!(ingester.positions(), positions, "{ctx}");
                assert_eq!(
                    observe(&parallel, &audit, &keys),
                    observe(&oracle, &oracle_audit, &keys),
                    "{ctx}"
                );
            }
        }
        // both paths ran under the property
        assert!(parallel_rounds >= 10, "{parallel_rounds} parallel rounds");
        assert!(serial_rounds >= 10, "{serial_rounds} serial rounds");
    }

    /// FNV-1a over `bytes`, folded into `h`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn env_seed() -> u64 {
        std::env::var("RTDI_INGEST_SEED")
            .ok()
            .and_then(|s| {
                s.strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or_else(|| s.parse().ok())
            })
            .unwrap_or(0x1A6E57)
    }

    /// ci.sh hook: a seeded backlog of several thousand records in each of
    /// six partitions, every one of them many fetches deep, ingested in
    /// one `run_once` (the parallel path on a host with two cores or
    /// more) into an upsert table whose segments seal inside fetches.
    /// Prints `INGEST_SUMMARY` lines: the outcome and positions, each
    /// partition's segments and a digest of their persisted bytes, the
    /// audit counts, and the answers of a fixed set of queries and
    /// lookups. ci.sh runs it twice per seed and diffs the lines.
    #[test]
    fn ingest_env_seed_prints_summary() {
        const PARTITIONS: usize = 6;
        const FETCH: usize = 256;
        let seed = env_seed();
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = keys(PARTITIONS, 400);
        let topic = Topic::new("t", TopicConfig::default().with_partitions(PARTITIONS));
        let topic = Arc::new(topic.unwrap());
        for (p, keys) in keys.iter().enumerate() {
            for i in 0..rng.gen_range(2_000..3_000usize) {
                topic.append_to(p, record(p, i, keys, false), 0).unwrap();
            }
        }
        let table = table(PARTITIONS, rng.gen_range(500..900usize), true);
        let audit = Chaperone::new(WINDOW_MS);
        let config = IngestionConfig {
            batch_size: FETCH,
            ..IngestionConfig::default()
        };
        let mut ingester = RealtimeIngester::new(topic, table.clone(), config)
            .unwrap()
            .with_chaperone(audit.clone());
        let ingested = ingester.run_once().unwrap();
        println!(
            "INGEST_SUMMARY seed={seed:#x} partitions={PARTITIONS} fetch={FETCH} \
             ingested={ingested} positions={:?}",
            ingester.positions()
        );

        let answers = QUERIES.map(|q| engine(&table).query(q).unwrap().rows);
        let lookups = keys.iter().flatten();
        let lookups: Vec<_> = lookups
            .map(|k| table.lookup(&Value::from(k.as_str()), "ts"))
            .collect();
        table.seal_all().unwrap();
        let mut segments = vec![(Vec::new(), 0xcbf2_9ce4_8422_2325u64); PARTITIONS];
        for (p, segment) in table.take_unbacked() {
            let (names, digest) = &mut segments[p];
            names.push(format!("{}:{}", segment.name(), segment.doc_count()));
            *digest = fnv(*digest, &segment.persist().unwrap());
        }
        for (p, (names, digest)) in segments.iter().enumerate() {
            println!(
                "INGEST_SUMMARY p={p} segments={} digest={digest:016x}",
                names.join(",")
            );
        }

        let max_ts = (3_000 * 7 + PARTITIONS) as i64;
        let windows = (0..=max_ts / WINDOW_MS).map(|w| audit.stats(STAGE, w * WINDOW_MS));
        let (mut count, mut unique, mut digest) = (0, 0, 0xcbf2_9ce4_8422_2325u64);
        for w in windows.filter(|w| w.count > 0) {
            (count, unique) = (count + w.count, unique + w.unique);
            digest = fnv(digest, format!("{w:?}").as_bytes());
        }
        println!("INGEST_SUMMARY audit count={count} unique={unique} windows={digest:016x}");
        for (q, rows) in QUERIES.iter().zip(&answers) {
            let digest = fnv(0xcbf2_9ce4_8422_2325, format!("{rows:?}").as_bytes());
            println!(
                "INGEST_SUMMARY rows={} digest={digest:016x} sql={q}",
                rows.len()
            );
        }
        let digest = fnv(0xcbf2_9ce4_8422_2325, format!("{lookups:?}").as_bytes());
        println!(
            "INGEST_SUMMARY lookups={} digest={digest:016x}",
            lookups.len()
        );
        assert_eq!(count, ingested, "the audit counts every record ingested");
    }
}

mod partition_cursor {
    use super::*;
    use rtdi::common::chaos::{Chaos, FaultKind, FaultPlan, FaultPoint, Trigger};
    use rtdi::stream::topic::{PartitionCursor, Topic, TopicConfig};

    fn at(i: u64) -> Record {
        Record::new(Row::new().with("i", i as i64), i as i64)
    }

    /// Seeded interleavings of appends, retention trims (a size-retained
    /// log trims at every append), replication lag, fetches of drawn sizes,
    /// failed fetches and partial advances. What a cursor delivers plus
    /// what it counts as skipped covers every offset from where it started
    /// to the committed watermark exactly once, in offset order; a failed
    /// fetch moves the cursor by at most a retention jump; and a cursor
    /// seeked to any position it reported fetches what it fetches from
    /// there.
    #[test]
    fn delivered_and_skipped_cover_every_committed_offset_once() {
        use rtdi::common::Error;
        let (mut jumps, mut partial, mut failed) = (0, 0, 0);
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(SEED_CURSOR + case);
            let chaos = Chaos::seeded(case);
            let config = TopicConfig {
                partitions: 1,
                retention_ms: 0,
                retention_bytes: rng.gen_range(5..60usize) * at(0).approx_bytes(),
                ..TopicConfig::default()
            };
            let topic = Topic::new("t", config).unwrap().with_chaos(chaos.clone());
            // followers miss replications: the committed watermark lags the
            // log end by up to two records at a time
            let lag = Trigger::Probability(rng.gen_range(0.0..0.4));
            chaos.arm(
                FaultPoint::StreamReplicate,
                FaultPlan::fail(FaultKind::Timeout, lag),
            );
            let faults = Trigger::Probability(rng.gen_range(0.0..0.3));
            chaos.arm(
                FaultPoint::StreamFetch,
                FaultPlan::fail(FaultKind::Timeout, faults),
            );
            let mut appended = 0u64;
            let mut append = |rng: &mut StdRng| {
                for _ in 0..rng.gen_range(1..12u32) {
                    assert_eq!(topic.append(at(appended), 0).unwrap().1, appended);
                    appended += 1;
                }
            };
            append(&mut rng);
            let mut cursor = if rng.gen_bool(0.5) {
                PartitionCursor::new(0, 0)
            } else {
                PartitionCursor::at_log_start(&topic, 0).unwrap()
            };
            // the next offset the cursor must deliver or count as skipped
            let (start, mut next) = (cursor.position, cursor.position);
            let mut delivered = 0u64;
            let ctx = |step: usize| format!("case {case} step {step}");
            for step in 0..rng.gen_range(20..120usize) {
                if rng.gen_bool(0.4) {
                    append(&mut rng);
                    continue;
                }
                let max = rng.gen_range(1..16usize);
                let mut twin = PartitionCursor::new(0, 0);
                twin.position = cursor.position;
                let before = cursor;
                let fetched = cursor.fetch(&topic, max);
                let skipped = cursor.skipped - before.skipped;
                assert_eq!(cursor.position, next + skipped, "{}", ctx(step));
                jumps += usize::from(skipped > 0);
                next += skipped;
                let records = match fetched {
                    Ok(records) => records,
                    Err(e) => {
                        assert!(matches!(e, Error::Timeout(_)), "{}: {e}", ctx(step));
                        failed += 1;
                        continue;
                    }
                };
                // the twin's own fetch may fail: it is compared when it reads
                if let Ok(again) = twin.fetch(&topic, max) {
                    assert_eq!(again, records, "{}", ctx(step));
                    assert_eq!(twin.position, cursor.position, "{}", ctx(step));
                    assert_eq!(twin.skipped, skipped, "{}", ctx(step));
                }
                let taken = rng.gen_range(0..=records.len());
                partial += usize::from(taken < records.len());
                for (k, r) in records[..taken].iter().enumerate() {
                    assert_eq!(r.offset, next + k as u64, "{}", ctx(step));
                    assert_eq!(r.record.value.get_int("i"), Some(r.offset as i64));
                }
                cursor.consumed(&records[..taken]);
                next += taken as u64;
                delivered += taken as u64;
                assert_eq!(cursor.position, next, "{}", ctx(step));
                let committed = topic.committed_watermark(0).unwrap();
                assert!(next <= committed, "{}: past {committed}", ctx(step));
            }
            chaos.disarm(FaultPoint::StreamReplicate);
            chaos.disarm(FaultPoint::StreamFetch);
            loop {
                let skipped = cursor.skipped;
                let records = cursor.fetch(&topic, 64).unwrap();
                next += cursor.skipped - skipped;
                if records.is_empty() {
                    break;
                }
                assert_eq!(records[0].offset, next, "case {case}");
                cursor.consumed(&records);
                next += records.len() as u64;
                delivered += records.len() as u64;
            }
            let committed = topic.committed_watermark(0).unwrap();
            assert_eq!(
                (cursor.position, next),
                (committed, committed),
                "case {case}"
            );
            assert_eq!(delivered + cursor.skipped, committed - start, "case {case}");
        }
        assert!(jumps >= 20, "only {jumps} retention jumps");
        assert!(partial >= 100, "only {partial} partial advances");
        assert!(failed >= 100, "only {failed} failed fetches");
    }
}

/// A row on a shared name list behaves as the list of `(name, value)`
/// pairs it stands for: rows drawn with duplicate and absent names, built
/// by the builder and on one list, answer every read as a plain
/// `Vec<(String, Value)>` model does, and a write to one row (by the
/// builder or a [`SetColumn`]) leaves every other row on its list as it
/// was.
mod row_semantics {
    use super::*;
    use rtdi::common::{row_names, Positions, SetColumn};
    use std::sync::Arc;

    type Model = Vec<(String, Value)>;

    /// Names a row may hold; `e` is never drawn into a shape, so it is
    /// absent until a write appends it.
    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];

    fn arb_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..6) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::Int(rng.gen_range(-3i64..4)),
            3 => Value::Double([0.5, -0.0, f64::NAN][rng.gen_range(0..3usize)]),
            4 => Value::Str(["", "x", "yz"][rng.gen_range(0..3usize)].into()),
            _ => Value::Bytes(vec![7; rng.gen_range(0..3usize)]),
        }
    }

    /// The model's `approx_bytes`: a name and a value per cell and 16
    /// bytes of overhead, the wire size the retention and state
    /// accounting read.
    fn model_bytes(model: &Model) -> usize {
        let value = |v: &Value| match v {
            Value::Null | Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 8,
            Value::Str(s) => s.len() + 24,
            Value::Bytes(b) => b.len() + 24,
            Value::Json(_) => unreachable!("not drawn"),
        };
        model.iter().map(|(n, v)| n.len() + value(v) + 16).sum()
    }

    fn model_get<'a>(model: &'a Model, name: &str) -> Option<&'a Value> {
        model.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn assert_agrees(row: &Row, model: &Model, case: u64) {
        assert_eq!(row.len(), model.len(), "case {case}");
        assert_eq!(row.is_empty(), model.is_empty(), "case {case}");
        let pairs: Vec<(&str, &Value)> = row.iter().collect();
        let expected: Vec<(&str, &Value)> = model.iter().map(|(n, v)| (n.as_str(), v)).collect();
        assert_eq!(format!("{pairs:?}"), format!("{expected:?}"), "case {case}");
        let mut at = Positions::default();
        let resolved = at.of(row, &NAMES).to_vec();
        for (name, resolved) in NAMES.iter().zip(resolved) {
            let position = model.iter().position(|(n, _)| n == name);
            assert_eq!(row.position(name), position, "case {case}: {name}");
            assert_eq!(resolved, position, "case {case}: {name}");
            let got = row.get(name).map(|v| format!("{v:?}"));
            let want = model_get(model, name).map(|v| format!("{v:?}"));
            assert_eq!(got, want, "case {case}: {name}");
        }
        for i in 0..=model.len() {
            let got = row.at(i).map(|(n, v)| format!("{n} {v:?}"));
            let want = model.get(i).map(|(n, v)| format!("{n} {v:?}"));
            assert_eq!(got, want, "case {case}: at {i}");
        }
        assert_eq!(row.approx_bytes(), model_bytes(model), "case {case}");
        let before = old::Row {
            columns: model.clone(),
        };
        assert_eq!(before.columns.len(), row.len(), "case {case}");
        assert_eq!(format!("{row:?}"), format!("{before:?}"), "case {case}");
        assert_eq!(format!("{row:#?}"), format!("{before:#?}"), "case {case}");
    }

    /// The row as a list of pairs, the form it had before its names were
    /// shared: its derived `Debug` is the text row digests are taken in.
    mod old {
        use rtdi::common::Value;

        #[derive(Debug)]
        pub struct Row {
            pub columns: Vec<(String, Value)>,
        }
    }

    #[test]
    fn rows_on_a_shared_list_agree_with_a_pair_list() {
        for case in 0..400 {
            let mut rng = StdRng::seed_from_u64(SEED_ROWS + case);
            let shape: Vec<&str> = (0..rng.gen_range(0..5))
                .map(|_| NAMES[rng.gen_range(0..4usize)])
                .collect();
            let list = row_names(shape.iter().copied());
            let mut rows = Vec::new();
            let mut models: Vec<Model> = Vec::new();
            for _ in 0..rng.gen_range(1..5) {
                let model: Model = shape
                    .iter()
                    .map(|n| (n.to_string(), arb_value(&mut rng)))
                    .collect();
                let cells = model.iter().map(|(_, v)| v.clone()).collect();
                let row = if rng.gen_bool(0.5) {
                    Row::on(Arc::clone(&list), cells)
                } else {
                    model
                        .iter()
                        .fold(Row::new(), |row, (n, v)| row.with(n.as_str(), v.clone()))
                };
                rows.push(row);
                models.push(model);
            }
            // a clone shares the list and is the same row
            let copy = rows[0].clone();
            assert_eq!(format!("{copy:?}"), format!("{:?}", rows[0]), "case {case}");
            rows.push(copy);
            models.push(models[0].clone());

            // writes to one row, by the builder
            for _ in 0..rng.gen_range(0..4) {
                let i = rng.gen_range(0..rows.len());
                let name = NAMES[rng.gen_range(0..NAMES.len())];
                let value = arb_value(&mut rng);
                let model = &mut models[i];
                let set = |model: &mut Model, value: Value| match model
                    .iter_mut()
                    .find(|(n, _)| n == name)
                {
                    Some(slot) => slot.1 = value,
                    None => model.push((name.to_string(), value)),
                };
                match rng.gen_range(0..4) {
                    0 => {
                        rows[i].set(name, value.clone());
                        set(model, value);
                    }
                    1 => {
                        rows[i] = SetColumn::new(name).apply(&rows[i], value.clone());
                        set(model, value);
                    }
                    2 => {
                        rows[i].push(name, value.clone());
                        model.push((name.to_string(), value));
                    }
                    _ => {
                        rows[i] = rows[i].clone().with(name, value.clone());
                        model.push((name.to_string(), value));
                    }
                }
            }
            let names: Vec<&str> = list.iter().map(|n| &**n).collect();
            assert_eq!(names, shape, "case {case}: the shared list changed");

            for (row, model) in rows.iter().zip(&models) {
                assert_agrees(row, model, case);
                let picked: Vec<&str> = (0..rng.gen_range(0..4))
                    .map(|_| NAMES[rng.gen_range(0..NAMES.len())])
                    .collect();
                let projected: Model = picked
                    .iter()
                    .map(|n| {
                        (
                            n.to_string(),
                            model_get(model, n).cloned().unwrap_or(Value::Null),
                        )
                    })
                    .collect();
                assert_agrees(&row.project(&picked), &projected, case);
            }
            for (a, ma) in rows.iter().zip(&models) {
                for (b, mb) in rows.iter().zip(&models) {
                    assert_eq!(a == b, ma == mb, "case {case}: {a:?} == {b:?}");
                }
            }
        }
    }
}

/// The Kappa+ claim end to end (§7): the same windowed SQL over the live
/// topic and over its archive gives the answer a plain fold of the input
/// gives. Each case draws 1–16 partitions, trip-id or Zipf-city record
/// keys (city keys make the partitions unequal), 500–5 000 records with
/// disorder inside a partition up to the job's bound, a tumbling window,
/// an optional WHERE on the fare and 1–3 archive rounds between bursts of
/// production. Path A deploys the
/// statement as a FlinkSQL pipeline into an OLAP table; path B backfills
/// the same text from the archive into another; both are read back with
/// SQL. The fold below shares no code with the compute layer.
mod kappa_equivalence {
    use super::*;
    use rtdi::common::SimClock;
    use rtdi::core::platform::RealtimePlatform;
    use rtdi::flinksql::compiler::CompileOptions;
    use rtdi::flinksql::sinks::PinotSink;
    use rtdi::olap::table::TableConfig;
    use rtdi::stream::cluster::{Cluster, ClusterConfig};
    use rtdi::stream::topic::TopicConfig;
    use rtdi::usecases::CityDriverGenerator;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    const SEED_KAPPA: u64 = 0x4A99_A000;
    /// Event time starts here, so no record (jittered back by at most
    /// the bound) falls before 0.
    const T0: i64 = 10_000;

    type Answer = Vec<(String, i64, i64, f64, f64, f64)>;

    fn trips_schema() -> Schema {
        Schema::of(
            "trips",
            &[
                ("city", FieldType::Str),
                ("driver", FieldType::Str),
                ("fare", FieldType::Double),
                ("ts", FieldType::Timestamp),
            ],
        )
    }

    fn stats_table(name: &str) -> TableConfig {
        let schema = Schema::of(
            name,
            &[
                ("city", FieldType::Str),
                ("w", FieldType::Timestamp),
                ("n", FieldType::Int),
                ("s", FieldType::Double),
                ("lo", FieldType::Double),
                ("hi", FieldType::Double),
                ("ingest_ts", FieldType::Timestamp),
            ],
        );
        TableConfig::new(name, schema).with_time_column("ingest_ts")
    }

    /// COUNT, SUM, MIN and MAX of the fares above `cut` per (city, window
    /// start).
    fn fold(records: &[Record], window: i64, cut: Option<f64>) -> Answer {
        let mut groups: BTreeMap<(String, i64), (i64, f64, f64, f64)> = BTreeMap::new();
        for r in records {
            let city = r.value.get_str("city").unwrap().to_string();
            let fare = r.value.get_double("fare").unwrap();
            if cut.is_some_and(|cut| fare <= cut) {
                continue;
            }
            let start = r.timestamp - r.timestamp.rem_euclid(window);
            let g =
                groups
                    .entry((city, start))
                    .or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
            *g = (g.0 + 1, g.1 + fare, g.2.min(fare), g.3.max(fare));
        }
        (groups.into_iter())
            .map(|((city, w), (n, s, lo, hi))| (city, w, n, s, lo, hi))
            .collect()
    }

    fn answer(platform: &RealtimePlatform, table: &str) -> Answer {
        let sql =
            format!("SELECT city, w, n, s, lo, hi FROM {table} ORDER BY city, w LIMIT 1000000");
        let out = platform.sql(&sql).unwrap();
        (out.rows.iter())
            .map(|r| {
                let double = |c| r.get_double(c).unwrap();
                let (city, w, n) = (r.get_str("city").unwrap(), r.get_int("w"), r.get_int("n"));
                (
                    city.into(),
                    w.unwrap(),
                    n.unwrap(),
                    double("s"),
                    double("lo"),
                    double("hi"),
                )
            })
            .collect()
    }

    #[test]
    fn the_live_job_and_its_backfill_equal_a_plain_fold() {
        let options = CompileOptions::default();
        let bound = options.max_out_of_orderness;
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(SEED_KAPPA + case);
            let partitions = rng.gen_range(1..=16usize);
            let by_city = rng.gen_bool(0.5);
            let n = rng.gen_range(500..=5_000usize);
            let per_ms = rng.gen_range(1..=20usize);
            let jitter = [0, bound / 4, bound][rng.gen_range(0..3usize)];
            let window = [100i64, 250, 1_000, 5_000][rng.gen_range(0..4usize)];
            let rounds = rng.gen_range(1..=3usize);
            let ctx = format!(
                "case {case}: {partitions} partitions, city keys {by_city}, {n} records, \
                 {per_ms}/ms, jitter {jitter} ms, window {window} ms, {rounds} archive rounds"
            );

            let mut gen = CityDriverGenerator::new(case, 64, 500, 1.0);
            let records: Vec<Record> = (0..n)
                .map(|i| {
                    let ts = T0 + (i / per_ms) as i64 - rng.gen_range(0..=jitter);
                    let trip = gen.trip(ts);
                    if by_city {
                        trip
                    } else {
                        trip.with_key(format!("trip-{i}"))
                    }
                })
                .collect();
            // drawn after the records, so a case's stream does not depend on it
            let cut = [None, Some(10.0), Some(30.0)][rng.gen_range(0..3usize)];
            // the chunk after which `trips` moves to a second cluster; one
            // past the last chunk is no move at all
            let moved_after = rng.gen_range(0..=rounds);
            let ctx = format!("{ctx}, fares above {cut:?}, moved after chunk {moved_after}");
            let want = fold(&records, window, cut);

            let platform = RealtimePlatform::with_clock(Arc::new(SimClock::new(1_000)));
            let federation = platform.federation();
            federation.add_cluster(Cluster::new("cluster-2", ClusterConfig::default()));
            let config = TopicConfig::default().with_partitions(partitions);
            platform
                .create_topic("trips", config, trips_schema())
                .unwrap();
            let producer = platform.producer("kappa");
            let mut archived = 0;
            for (chunk, records) in records.chunks(n.div_ceil(rounds)).enumerate() {
                for r in records {
                    producer.send("trips", r.clone()).unwrap();
                }
                archived += platform.archive_topic("trips", &trips_schema()).unwrap();
                if chunk == moved_after {
                    federation.migrate_topic("trips", "cluster-2").unwrap();
                }
            }
            let placed = if moved_after < rounds {
                "cluster-2"
            } else {
                "cluster-1"
            };
            assert_eq!(
                federation.placement("trips").as_deref(),
                Some(placed),
                "{ctx}"
            );
            assert_eq!(archived, n, "{ctx}");

            let filter = cut.map_or(String::new(), |cut| format!("WHERE fare > {cut:.1} "));
            let sql = format!(
                "SELECT city, TUMBLE(ts, {window}) AS w, COUNT(*) AS n, SUM(fare) AS s, \
                 MIN(fare) AS lo, MAX(fare) AS hi FROM trips {filter}\
                 GROUP BY city, TUMBLE(ts, {window})"
            );
            let live = platform.create_olap_table(stats_table("live")).unwrap();
            let job = platform.deploy_sql_pipeline("live", &sql, "trips", live, &options);
            assert_eq!(job.unwrap().records_in, n as u64, "{ctx}");
            assert_eq!(answer(&platform, "live"), want, "{ctx}: the live job");

            let replay = platform.create_olap_table(stats_table("replay")).unwrap();
            let sink = Box::new(PinotSink::new(replay));
            let (from, to) = (i64::MIN, i64::MAX);
            let job = platform.backfill_sql("replay", &sql, "trips", from, to, sink);
            assert_eq!(job.unwrap().records_in, n as u64, "{ctx}");
            assert_eq!(answer(&platform, "replay"), want, "{ctx}: the backfill");
        }
    }
}

/// [`Text`] against the `String` it stands for: texts of 0–64 bytes,
/// ASCII and multi-byte ones whose last character straddles the 22-byte
/// inline limit, built from a `&str`, from a `String`, by clone and
/// through `Value::from`, agree with a `String` model on equality,
/// order, hashing, `Display`, `Debug`, length, partition hash,
/// `approx_bytes` and a raw-log and a segment-file round trip.
mod text_semantics {
    use super::*;
    use rtdi::common::Text;
    use rtdi::storage::archival::{decode_raw, encode_raw};
    use std::collections::HashMap;

    const SEED_TEXT: u64 = 0x7E47_0022;
    /// Characters of one to four bytes; the first three are ASCII.
    const CHARS: [char; 6] = ['a', 'Z', '-', 'é', '€', '🦀'];

    fn arb_string(rng: &mut StdRng) -> String {
        if rng.gen_bool(0.25) {
            // a multi-byte character across the limit, or just inside it
            let wide = CHARS[rng.gen_range(3..CHARS.len())];
            return "a".repeat(rng.gen_range(17..=Text::INLINE)) + &wide.to_string();
        }
        let (target, ascii) = (rng.gen_range(0..=64usize), rng.gen_bool(0.5));
        let mut s = String::new();
        loop {
            let c = CHARS[rng.gen_range(0..if ascii { 3 } else { CHARS.len() })];
            if s.len() + c.len_utf8() > target {
                return s;
            }
            s.push(c);
        }
    }

    /// `s` as a string cell, built one of five ways.
    fn cell(s: &str, how: u32) -> Value {
        match how {
            0 => Value::Str(Text::from(s)),
            1 => Value::Str(Text::from(s.to_string())),
            2 => Value::Str(Text::from(s).clone()),
            3 => Value::from(s),
            _ => Value::from(s.to_string()),
        }
    }

    fn text(v: &Value) -> &Text {
        match v {
            Value::Str(t) => t,
            other => panic!("not a string cell: {other:?}"),
        }
    }

    #[test]
    fn texts_agree_with_a_string_model() {
        let schema = Schema::of("t", &[("s", FieldType::Str)]);
        for case in 0..400 {
            let mut rng = StdRng::seed_from_u64(SEED_TEXT + case);
            let model: Vec<String> = (0..rng.gen_range(1..9))
                .map(|_| arb_string(&mut rng))
                .collect();
            let cells: Vec<Value> = model
                .iter()
                .map(|s| cell(s, rng.gen_range(0..5u32)))
                .collect();

            for (s, v) in model.iter().zip(&cells) {
                let t = text(v);
                assert_eq!((t.as_str(), t.len()), (s.as_str(), s.len()), "case {case}");
                assert_eq!(t.is_inline(), s.len() <= Text::INLINE, "case {case}: {s:?}");
                assert_eq!(format!("{t}"), *s, "case {case}");
                assert_eq!(format!("{v}"), *s, "case {case}");
                assert_eq!(format!("{t:?}"), format!("{s:?}"), "case {case}");
                assert_eq!(format!("{v:?}"), format!("Str({s:?})"), "case {case}");
                assert_eq!(v.partition_hash(), Value::hash_of_str(s), "case {case}");
                let row = Row::new().with("k", v.clone());
                assert_eq!(row.approx_bytes(), 1 + s.len() + 24 + 16, "case {case}");
                let keyed = Record::new(Row::new(), 0).with_key(v.clone());
                assert_eq!(keyed.approx_bytes(), 16 + s.len() + 8, "case {case}");
            }
            for (sa, a) in model.iter().zip(&cells) {
                for (sb, b) in model.iter().zip(&cells) {
                    assert_eq!(a == b, sa == sb, "case {case}: {sa:?} == {sb:?}");
                    assert_eq!(text(a).cmp(text(b)), sa.cmp(sb), "case {case}");
                    assert_eq!(a.total_cmp(b), sa.cmp(sb), "case {case}");
                }
            }

            // later entries overwrite earlier equal ones in both maps
            let mut by_text: HashMap<Text, u32> = HashMap::new();
            let mut by_string: HashMap<String, u32> = HashMap::new();
            for (i, (s, v)) in (0u32..).zip(model.iter().zip(&cells)) {
                by_text.insert(text(v).clone(), i);
                by_string.insert(s.clone(), i);
            }
            assert_eq!(by_text.len(), by_string.len(), "case {case}");
            for s in &model {
                assert_eq!(by_text.get(s.as_str()), by_string.get(s), "case {case}");
            }

            let records: Vec<Record> = (0i64..)
                .zip(&cells)
                .map(|(ts, v)| Record::new(Row::new().with("s", v.clone()), ts).with_key(v.clone()))
                .collect();
            let decoded = decode_raw(&encode_raw(&records).unwrap()).unwrap();
            assert_eq!(decoded, records, "case {case}: raw log");
            for (r, s) in decoded.iter().zip(&model) {
                assert_eq!(r.key.as_ref().and_then(Value::as_str), Some(s.as_str()));
                assert_eq!(r.value.get_str("s"), Some(s.as_str()), "case {case}");
            }
            let rows: Vec<Row> = records.into_iter().map(|r| r.value).collect();
            let data = segfile::encode_rows_segment(&schema, "p", &rows).unwrap();
            let (_, read) = segfile::decode_rows_segment(&data).unwrap();
            let read: Vec<&str> = read.iter().map(|r| r.get_str("s").unwrap()).collect();
            assert_eq!(read, model, "case {case}: segment file");
        }
    }

    /// Partition assignment cannot move: these hashes were taken with
    /// string cells as `String`s.
    #[test]
    fn key_hashes_are_pinned() {
        let long = "0123456789abcdef".repeat(4);
        let pins = [
            ("trip-0", 0xf355_aaa3_0474_52cf_u64),
            ("city-511", 0x5f9a_fa15_cb74_bc6e),
            ("hexagon-0123456789abcde", 0x9a0f_baa8_1178_73a0),
            (long.as_str(), 0xec63_1990_456e_2f45),
        ];
        for (key, hash) in pins {
            for how in 0..5 {
                assert_eq!(cell(key, how).partition_hash(), hash, "{key}");
            }
        }
        assert_eq!(pins[2].0.len(), Text::INLINE + 1);
    }
}

/// A record's audit envelope against a model of it as five plain optional
/// fields: every mix of a producer's stamp and fields set by hand, read
/// back directly, from a clone, from `Record::rewritten` and from the raw
/// log, with the size `approx_bytes` reports.
mod envelope {
    use super::*;
    use rtdi::common::{Origin, PipelineTracer, UniqueId};
    use rtdi::storage::archival::{decode_raw, encode_raw};
    use std::sync::Arc;

    #[derive(Debug, Clone, PartialEq)]
    enum Id {
        Seq(String, u64),
        Text(String),
    }

    /// The envelope as five independent fields.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Audit {
        unique_id: Option<Id>,
        app_ts: Option<i64>,
        trace_ts: Option<i64>,
        service: Option<String>,
        origin_region: Option<String>,
    }

    impl Audit {
        fn of(record: &Record) -> Self {
            Audit {
                unique_id: record.unique_id().map(|id| match id {
                    UniqueId::Seq { origin, seq } => Id::Seq(origin.to_string(), seq),
                    UniqueId::Text(text) => Id::Text(text.to_string()),
                }),
                app_ts: record.app_ts(),
                trace_ts: record.trace_ts(),
                service: record.service().map(str::to_string),
                origin_region: record.origin_region().map(str::to_string),
            }
        }

        fn bytes(&self) -> usize {
            let id = match &self.unique_id {
                Some(Id::Seq(origin, _)) => origin.len() + 8,
                Some(Id::Text(text)) => text.len(),
                None => 0,
            };
            let stamps = 8 * (self.app_ts.is_some() as usize + self.trace_ts.is_some() as usize);
            let strs = [&self.service, &self.origin_region];
            id + stamps
                + strs
                    .iter()
                    .map(|s| s.as_ref().map_or(0, String::len))
                    .sum::<usize>()
        }
    }

    fn arb_ts(rng: &mut StdRng) -> Option<i64> {
        match rng.gen_range(0..6) {
            0 => None,
            1 => Some(i64::MIN),
            2 => Some(i64::MAX),
            3 => Some(0),
            _ => Some(rng.gen_range(-5_000..5_000i64)),
        }
    }

    fn arb_seq(rng: &mut StdRng) -> u64 {
        match rng.gen_range(0..6) {
            0 => u64::MAX,
            1 => (1 << 60) - 1,
            2 => 1 << 60,
            3 => 0,
            _ => rng.gen_range(0..1_000u64),
        }
    }

    fn arb_str(rng: &mut StdRng) -> Option<String> {
        let words = ["", "svc", "us-west", "a-name-longer-than-twenty-two"];
        rng.gen_bool(0.8)
            .then(|| words[rng.gen_range(0..words.len())].to_string())
    }

    #[test]
    fn every_mix_of_envelope_fields_reads_back_as_set() {
        let origins: Vec<Arc<Origin>> = ["a", "b", ""]
            .iter()
            .enumerate()
            .map(|(i, service)| {
                Arc::new(Origin {
                    name: format!("{service}#{i}").into(),
                    service: (*service).into(),
                })
            })
            .collect();
        for case in 0..400 {
            let mut rng = StdRng::seed_from_u64(SEED_ENVELOPE + case);
            let mut record = Record::new(arb_row(&mut rng), rng.gen_range(-100..100i64));
            if rng.gen_bool(0.5) {
                record = record.with_key(format!("k{case}"));
            }
            let mut model = Audit::default();
            let mut headers: Vec<(String, String)> = Vec::new();
            for step in 0..rng.gen_range(1..12) {
                match rng.gen_range(0..8) {
                    0 => {
                        let origin = &origins[rng.gen_range(0..origins.len())];
                        let (seq, now) = (arb_seq(&mut rng), rng.gen_range(-9..9i64));
                        record.stamp(origin, seq, now);
                        if model.unique_id.is_none() {
                            model.unique_id = Some(Id::Seq(origin.name.to_string(), seq));
                        }
                        (model.app_ts, model.trace_ts) = (Some(now), Some(now));
                        model.service = Some(origin.service.to_string());
                    }
                    1 => {
                        let id = match rng.gen_range(0..3) {
                            0 => None,
                            1 => Some(Id::Seq(
                                format!("o{}", rng.gen_range(0..3)),
                                arb_seq(&mut rng),
                            )),
                            _ => Some(Id::Text(arb_str(&mut rng).unwrap_or_default())),
                        };
                        let text: Arc<str> = match &id {
                            Some(Id::Seq(s, _) | Id::Text(s)) => s.as_str().into(),
                            None => "".into(),
                        };
                        record.set_unique_id(id.as_ref().map(|id| match id {
                            Id::Seq(_, seq) => UniqueId::Seq {
                                origin: &text,
                                seq: *seq,
                            },
                            Id::Text(_) => UniqueId::Text(&text),
                        }));
                        model.unique_id = id;
                    }
                    2 => {
                        model.app_ts = arb_ts(&mut rng);
                        record.set_app_ts(model.app_ts);
                    }
                    3 => {
                        model.trace_ts = arb_ts(&mut rng);
                        record.set_trace_ts(model.trace_ts);
                    }
                    4 => {
                        model.service = arb_str(&mut rng);
                        record.set_service(model.service.as_deref().map(Arc::from));
                    }
                    5 => {
                        model.origin_region = arb_str(&mut rng);
                        record.set_origin_region(model.origin_region.as_deref().map(Arc::from));
                    }
                    6 => {
                        let (k, v) = (format!("h{}", rng.gen_range(0..3)), format!("{step}"));
                        record.set_header(k.clone(), v.clone());
                        match headers.iter_mut().find(|(key, _)| *key == k) {
                            Some(entry) => entry.1 = v,
                            None => headers.push((k, v)),
                        }
                    }
                    _ => {
                        trace(&mut record, &mut model, rng.gen_range(0..9i64));
                    }
                }
                let at = format!("case {case} step {step}");
                let header_list = |r: &Record| -> Vec<(String, String)> {
                    r.headers()
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .collect()
                };
                assert_eq!(Audit::of(&record), model, "{at}");
                assert_eq!(header_list(&record), headers, "{at}");
                let copy = record.clone();
                assert_eq!(Audit::of(&copy), model, "{at}: clone");
                assert_eq!(copy, record, "{at}: clone");
                let rewritten = record.rewritten(Row::new().with("n", 1i64));
                assert_eq!(Audit::of(&rewritten), model, "{at}: rewritten");
                assert_eq!(header_list(&rewritten), headers, "{at}: rewritten");
                let logged = encode_raw(std::slice::from_ref(&record)).unwrap();
                let decoded = decode_raw(&logged).unwrap();
                assert_eq!(Audit::of(&decoded[0]), model, "{at}: raw log");
                assert_eq!(decoded[0], record, "{at}: raw log");
                let mut bare = Record::new(record.value.clone(), record.timestamp);
                bare.key = record.key.clone();
                let header_bytes: usize = headers.iter().map(|(k, v)| k.len() + v.len() + 8).sum();
                assert_eq!(
                    record.approx_bytes(),
                    bare.approx_bytes() + model.bytes() + header_bytes,
                    "{at}: approx_bytes"
                );
            }
        }
    }

    /// The tracer's two writers, on the model: a hop restamps, an origin
    /// stamp keeps an app timestamp the producer set.
    fn trace(record: &mut Record, model: &mut Audit, now: i64) {
        if now % 2 == 0 {
            PipelineTracer::stamp(record, now);
            model.app_ts.get_or_insert(now);
        } else {
            PipelineTracer::new()
                .stage("p", "hop")
                .observe_hop(record, now);
        }
        model.trace_ts = Some(now);
    }
}
