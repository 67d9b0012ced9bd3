//! The bytes of every encoder, pinned: a fixed corpus goes through each
//! encoder the system persists or ships state with — the big-endian
//! layouts of `wire::Writer` and the little-endian segment file alike —
//! and each output's length and CRC32 must equal the constants below. The
//! big-endian constants were taken before those encoders moved to
//! `wire::Writer`, the segment-file ones while each writer still built its
//! own column model; an encoder that writes one byte differently fails
//! here even where its own decoder would still read it back.
//!
//! On a mismatch the failure prints the whole table to paste, but a layout
//! change is a format change: every persisted raw log, snapshot,
//! checkpoint and segment file in the field would stop reading.

use rtdi::common::json;
use rtdi::common::wire::Writer;
use rtdi::common::{AggAcc, AggFn, Audit, FieldType, Record, Row, Schema, UniqueId, Value};
use rtdi::compute::runtime::CheckpointData;
use rtdi::compute::{
    CheckpointStore, DedupOp, FusedOp, Operator, WindowAggregateOp, WindowAssigner, WindowJoinOp,
};
use rtdi::olap::segment::{IndexSpec, Segment};
use rtdi::storage::archival::{encode_raw, encode_rows, ArchivalWriter, Compactor};
use rtdi::storage::hive::HiveCatalog;
use rtdi::storage::keyed::KeyedSnapshot;
use rtdi::storage::object::{InMemoryStore, ObjectStore};
use rtdi::storage::segfile::{crc32, encode_rows_segment};
use std::sync::Arc;

/// `(encoder, byte length, CRC32)`, taken before the port; a segment file's
/// without its footer's last eight bytes ([`segment_body`]). One format
/// change since: a compacted part names its sort column, `__ts`, in its
/// header (`segfile-compact`, 4455 bytes before, four more now).
const EXPECTED: &[(&str, usize, u32)] = &[
    ("raw-log", 619, 0x3306eccd),
    ("rows", 354, 0x9bc9053e),
    ("agg-acc", 101, 0xd4284d9e),
    ("window-agg", 1518, 0x838419d2),
    ("window-agg-partial", 1440, 0xf9ab7e29),
    ("dedup", 615, 0x45060054),
    ("window-join", 2980, 0x5c44ff4d),
    ("fused", 1404, 0x1675a957),
    ("keyed-snapshot", 69, 0x036bb978),
    ("checkpoint-object", 680, 0x85d20100),
    ("segfile-rows", 4150, 0xa1949135),
    ("segfile-persist", 2806, 0x2a6c1266),
    ("segfile-persist-sorted", 2801, 0x790d9068),
    ("segfile-compact", 4459, 0xcde585b7),
];

/// A value of every tag the raw log and row layouts know.
fn every_value() -> Vec<(&'static str, Value)> {
    let doc = json::parse(r#"{"a":[1,2.5,null,true],"b":"x"}"#).unwrap();
    vec![
        ("null", Value::Null),
        ("yes", Value::Bool(true)),
        ("no", Value::Bool(false)),
        ("int", Value::Int(i64::MIN)),
        ("double", Value::Double(-0.0)),
        ("nan", Value::Double(f64::NAN)),
        ("str", Value::Str("héllo".into())),
        ("empty", Value::Str("".into())),
        ("bytes", Value::Bytes(vec![0, 0xff, 7])),
        ("doc", Value::Json(Box::new(doc))),
    ]
}

/// Records with string, int and absent keys, every shape of audit block
/// and headers, and cells of every value tag.
fn raw_records() -> Vec<Record> {
    let full: Row = every_value()
        .into_iter()
        .fold(Row::new(), |r, (n, v)| r.with(n, v));
    let mut minted = Record::new(full.clone(), 10).with_key("k1");
    *minted.audit_mut() = Audit {
        unique_id: Some(UniqueId::Seq {
            origin: "driver-app#3".into(),
            seq: u64::MAX,
        }),
        app_ts: Some(-5),
        trace_ts: Some(i64::MAX),
        service: Some("driver-app".into()),
        origin_region: Some("us-west".into()),
    };
    let mut text = Record::new(Row::new().with("id", 2i64).with("city", "c2"), 11)
        .with_key(7i64)
        .with_unique_id("u2")
        .with_header("tenant", "eats")
        .with_header("", "");
    text.audit_mut().trace_ts = Some(12);
    let bare = Record::new(Row::new(), -12);
    let mut region_only = Record::new(Row::new().with("x", 1i64), 13).with_key(2.5);
    region_only.audit_mut().origin_region = Some("".into());
    vec![minted, text, bare, region_only, Record::new(full, 14)]
}

fn rows() -> Vec<Row> {
    let mut rows: Vec<Row> = every_value()
        .into_iter()
        .map(|(n, v)| Row::new().with(n, v).with("k", n))
        .collect();
    rows.push(Row::new());
    rows
}

/// Every accumulator kind, an empty and a filled one of each that can be
/// empty.
fn accs() -> Vec<AggAcc> {
    vec![
        AggAcc::Count(7),
        AggAcc::Sum { sum: 1.5, count: 3 },
        AggAcc::Avg {
            sum: -10.0,
            count: 4,
        },
        AggAcc::Min(Some(-2.5)),
        AggAcc::Min(None),
        AggAcc::Max(Some(f64::INFINITY)),
        AggAcc::Max(None),
        AggAcc::Distinct([1u64, 5, u64::MAX].into_iter().collect()),
        AggAcc::Distinct(Default::default()),
    ]
}

fn acc_bytes(accs: &[AggAcc]) -> Vec<u8> {
    let mut w = Writer::new();
    for a in accs {
        a.encode(&mut w);
    }
    w.into_bytes().to_vec()
}

/// Trip-like records over a few cities and riders, two stream tags.
fn trips() -> Vec<Arc<Record>> {
    (0..60i64)
        .map(|i| {
            let row = Row::new()
                .with("city", format!("c{}", i % 5))
                .with("rider", format!("r{}", i % 7))
                .with("fare", (i * 37 % 90) as f64 + 0.25)
                .with("__stream", if i % 2 == 0 { "l" } else { "r" });
            Arc::new(Record::new(row, i * 53 % 3_000).with_key(format!("k{i}")))
        })
        .collect()
}

/// Every accumulator kind, one of them over a column no record has.
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

fn dedup() -> DedupOp {
    DedupOp::new("dedup", vec!["city".into(), "rider".into()])
}

/// A stage's snapshot with windows open: every trip in, watermark 1 000.
fn snapshot_of(mut op: Box<dyn Operator>) -> Vec<u8> {
    let mut out = Vec::new();
    op.process_batch(&trips(), &mut out).unwrap();
    op.on_watermark(1_000, &mut out);
    op.snapshot().to_vec()
}

/// The accumulator cells a salted shard emits for the combine stage.
fn partial_cells() -> Vec<u8> {
    let salted = window_agg().with_parallelism(2).with_hot_key_salting(1);
    let mut shard = salted.make_shard(0, 2).unwrap();
    let mut out = Vec::new();
    shard.process_batch(&trips(), &mut out).unwrap();
    shard.on_watermark(i64::MAX, &mut out);
    let mut cells = Vec::new();
    for rec in &out {
        for (_, v) in rec.value.iter() {
            if let Value::Bytes(b) = v {
                cells.extend_from_slice(b);
            }
        }
    }
    assert!(!cells.is_empty(), "no partial emitted");
    cells
}

fn keyed_snapshot() -> Vec<u8> {
    KeyedSnapshot {
        watermark: -123_456,
        dropped: 7,
        frames: vec![
            (0, b"alpha".to_vec().into()),
            (90, Vec::new().into()),
            (127, b"omega".to_vec().into()),
            (127, vec![0xff; 3].into()),
        ],
    }
    .encode()
    .to_vec()
}

/// A checkpoint object as `CheckpointStore` persists it.
fn checkpoint_object() -> Vec<u8> {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let data = CheckpointData {
        checkpoint_id: 9,
        source_position: vec![0, 3, u64::MAX],
        operator_state: vec![
            snapshot_of(Box::new(dedup())).into(),
            Vec::new().into(),
            b"state".to_vec().into(),
        ],
        records_in: 60,
    };
    CheckpointStore::new(store.clone())
        .persist("codec", &data)
        .unwrap();
    let key = store.list("checkpoints/codec/").unwrap().remove(0);
    store.get(&key).unwrap().to_vec()
}

/// A field of every type the segment file stores, and one no row fills.
fn segment_schema(with_bytes: bool) -> Schema {
    let mut fields = vec![
        ("id", FieldType::Int),
        ("city", FieldType::Str),
        ("fare", FieldType::Double),
        ("ok", FieldType::Bool),
        ("ts", FieldType::Timestamp),
        ("doc", FieldType::Json),
        ("gone", FieldType::Str),
    ];
    if with_bytes {
        fields.push(("blob", FieldType::Bytes));
    }
    Schema::of("t", &fields)
}

/// Well-typed rows with NULL cells in every column but `id`, runs of equal
/// ids (the RLE encoding), a packed timestamp and bytes that are not UTF-8.
fn segment_rows(with_bytes: bool) -> Vec<Row> {
    let doc = json::parse(r#"{"a":[1,2.5,null],"b":"x"}"#).unwrap();
    (0..200i64)
        .map(|i| {
            let mut row = Row::new().with("id", i / 50);
            if i % 11 != 0 {
                row.push("city", format!("c{}", i % 7));
            }
            if i % 13 != 0 {
                row.push("fare", i as f64 * 0.5 - 20.0);
            }
            if i % 17 != 0 {
                row.push("ok", i % 3 == 0);
            }
            if i % 19 != 0 {
                row.push("ts", 1_000 + i * 7);
            }
            if i % 4 == 0 {
                row.push("doc", Value::Json(Box::new(doc.clone())));
            }
            if with_bytes && i % 5 != 0 {
                row.push("blob", Value::Bytes(vec![0xff, i as u8, 0xfe]));
            }
            row
        })
        .collect()
}

/// A sealed OLAP segment persisted, unsorted or sorted by `city` with an
/// inverted and a range index.
fn persisted(sorted: bool) -> Vec<u8> {
    let spec = if sorted {
        IndexSpec::none()
            .with_sorted("city")
            .with_inverted(&["city"])
            .with_range(&["fare"])
    } else {
        IndexSpec::none()
    };
    let segment = Segment::build("seg", &segment_schema(false), segment_rows(false), &spec);
    segment.unwrap().persist().unwrap().to_vec()
}

/// The part file `Compactor::compact` writes from one raw log.
fn compacted() -> Vec<u8> {
    let store: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::new());
    let catalog = HiveCatalog::new(store.clone());
    let schema = segment_schema(true);
    catalog.create_table("t", schema.clone()).unwrap();
    let records: Vec<Record> = (0i64..)
        .zip(segment_rows(true))
        .map(|(i, row)| Record::new(row, 5_000 + i))
        .collect();
    ArchivalWriter::new(store.clone(), "t")
        .write_batch(&records)
        .unwrap();
    let n = Compactor::new(store.clone(), catalog).compact("t", "d000000", &schema);
    assert_eq!(n.unwrap(), records.len());
    store
        .get("warehouse/t/d000000/part-00000")
        .unwrap()
        .to_vec()
}

/// A segment file without its last eight bytes: its CRC32 and tail magic
/// are a function of what precedes them, and the CRC32 of a file that ends
/// in its own CRC32 is the same constant for every file.
fn segment_body(file: impl AsRef<[u8]>) -> Vec<u8> {
    let file = file.as_ref();
    file[..file.len() - 8].to_vec()
}

fn encoded() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("raw-log", encode_raw(&raw_records()).unwrap().to_vec()),
        ("rows", encode_rows(&rows()).to_vec()),
        ("agg-acc", acc_bytes(&accs())),
        ("window-agg", snapshot_of(Box::new(window_agg()))),
        ("window-agg-partial", partial_cells()),
        ("dedup", snapshot_of(Box::new(dedup()))),
        (
            "window-join",
            snapshot_of(Box::new(WindowJoinOp::new("join", "city", "l", "r", 1000))),
        ),
        (
            "fused",
            snapshot_of(Box::new(FusedOp::new(vec![
                Box::new(dedup()),
                Box::new(window_agg()),
            ]))),
        ),
        ("keyed-snapshot", keyed_snapshot()),
        ("checkpoint-object", checkpoint_object()),
        (
            "segfile-rows",
            segment_body(
                encode_rows_segment(&segment_schema(true), "part", &segment_rows(true)).unwrap(),
            ),
        ),
        ("segfile-persist", segment_body(persisted(false))),
        ("segfile-persist-sorted", segment_body(persisted(true))),
        ("segfile-compact", segment_body(compacted())),
    ]
}

#[test]
fn every_encoder_writes_the_bytes_it_always_wrote() {
    let got: Vec<(&str, usize, u32)> = encoded()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), crc32(bytes)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, crc)| format!("    ({name:?}, {len}, {crc:#010x}),\n"))
        .collect();
    assert_eq!(got, EXPECTED, "encoder bytes moved; now:\n{table}");
}
