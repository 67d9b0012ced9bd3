//! OLAP layer (§4.3): E10–E13, E26, and the OLAP parts of the recovery
//! experiments E23 and E24.

pub(super) mod baselines;

use super::Report;
use crate::count_allocations;
use baselines::{comparison_rows, comparison_schema, druid_like_spec, HeapStore};
use bytes::Bytes;
use parking_lot::Mutex;
use rtdi_common::{AggFn, Chaos, FieldType, Result, Row, Schema, Value};
use rtdi_olap::broker::{Broker, ServerNode};
use rtdi_olap::query::{Predicate, PredicateOp, Query, SortOrder};
use rtdi_olap::rebalance::Rebalancer;
use rtdi_olap::segment::{IndexSpec, Segment};
use rtdi_olap::segstore::{SegmentStore, SegmentStoreMode};
use rtdi_olap::startree::StarTreeSpec;
use rtdi_olap::table::{OlapTable, TableConfig};
use rtdi_olap::upsert::PrimaryKeyIndex;
use rtdi_storage::object::{FaultyStore, InMemoryStore, ObjectStore};
use rtdi_storage::{archival, segfile};
use std::sync::Arc;
use std::time::Duration;

pub fn claims(r: &mut Report) -> Result<()> {
    // E10 and E11 read the same 40k orders
    let orders = comparison_rows(ORDERS);
    e10_heap_store(r, &orders)?;
    e11_index_ablation(r, orders)?;
    e12_upsert(r)?;
    e13_segment_backup(r)?;
    e23_segment_loss(r)?;
    e24_segment_rehost(r)?;
    e26_segment_format(r)?;
    Ok(())
}

const ORDERS: usize = 40_000;

fn count() -> Query {
    Query::select_all("orders").aggregate("n", AggFn::Count)
}

fn revenue() -> Query {
    count().aggregate("rev", AggFn::Sum("total".into()))
}

fn pinot_spec() -> IndexSpec {
    IndexSpec::none()
        .with_inverted(&["city", "restaurant"])
        .with_sorted("ts")
        .with_range(&["total"])
}

fn e10_heap_store(r: &mut Report, orders: &[Row]) -> Result<()> {
    let schema = comparison_schema();
    let mut heap = HeapStore::new();
    for row in orders {
        heap.index(row.clone());
    }
    let segment = Segment::build("orders", &schema, orders.to_vec(), &pinot_spec())?;
    let memory = heap.memory_bytes() as f64 / segment.memory_bytes() as f64;
    r.claim(
        "E10.memory",
        "§4.3",
        "Elasticsearch's memory usage was 4x higher than Pinot's",
        memory,
        "x live bytes, ES-like heap store vs columnar segment, 40000 orders",
        memory >= 2.5,
    );
    let file = segfile::encode_rows_segment(&schema, "orders", orders)?;
    let disk = heap.disk_bytes() as f64 / file.len() as f64;
    r.claim(
        "E10.disk",
        "§4.3",
        "and its disk usage 8x higher",
        disk,
        "x bytes on disk, stored documents vs segment file",
        disk >= 4.0,
    );

    // the paper's mix: filters, aggregation, group by / order by
    let suite = [
        revenue().filter(Predicate::eq("city", "sf")),
        count()
            .filter(Predicate::new("total", PredicateOp::Gt, 50.0))
            .group(&["city"]),
        Query::select_all("orders")
            .filter(Predicate::eq("restaurant", "rest-0042"))
            .aggregate("avg_total", AggFn::Avg("total".into())),
        revenue()
            .group(&["city"])
            .order("rev", SortOrder::Desc)
            .limit(3),
    ];
    let mut differing = 0;
    for q in &suite {
        differing += usize::from(heap.execute(q)?.rows != segment.execute(q, None)?.rows);
    }
    // what the 2-4x latency gap is made of: the heap store walks and
    // allocates per document, the segment folds columns in batches
    let (heap_run, heap_allocs) = r.timed("E10", "query suite, heap store", || {
        count_allocations(|| suite.iter().try_for_each(|q| heap.execute(q).map(|_| ())))
    });
    let (columnar_run, columnar_allocs) = r.timed("E10", "query suite, columnar", || {
        count_allocations(|| {
            suite
                .iter()
                .try_for_each(|q| segment.execute(q, None).map(|_| ()))
        })
    });
    heap_run.and(columnar_run)?;
    r.claim(
        "E10.query_work",
        "§4.3",
        "and its query latency 2x-4x higher on filters, aggregation, group by/order by",
        columnar_allocs.allocs as f64,
        "allocations for the 4-query suite on the columnar segment (heap store: over 100x more)",
        heap_allocs.allocs >= 100 * columnar_allocs.allocs && differing == 0,
    );
    Ok(())
}

fn e11_index_ablation(r: &mut Report, orders: Vec<Row>) -> Result<()> {
    let schema = comparison_schema();
    let aggs = vec![AggFn::Count, AggFn::Sum("total".into())];
    let full = pinot_spec().with_startree(StarTreeSpec::new(&["city", "restaurant"], aggs));
    let druid = Segment::build("druid", &schema, orders.clone(), &druid_like_spec(&full))?;
    let plain = Segment::build("none", &schema, orders.clone(), &IndexSpec::none())?;
    let pinot = Segment::build("pinot", &schema, orders, &full)?;

    let first_ts = 1_600_000_000_000i64;
    let queries = [
        // pre-aggregated dimensions: star-tree territory
        ("group by city", revenue().group(&["city"])),
        // a two-second slice of the sorted time column
        (
            "2 s time range",
            count()
                .filter(Predicate::new("ts", PredicateOp::Ge, first_ts + 50_000))
                .filter(Predicate::new("ts", PredicateOp::Lt, first_ts + 52_000)),
        ),
        // a selective numeric filter: range-index territory
        (
            "total > 62",
            count().filter(Predicate::new("total", PredicateOp::Gt, 62.0)),
        ),
    ];
    let mut scanned = Vec::new();
    let mut differing = 0;
    for (what, q) in &queries {
        let run = |r: &mut Report, engine: &str, segment: &Segment| {
            r.timed("E11", format!("{what}, {engine}"), || {
                segment.execute(q, None)
            })
        };
        let (with, without) = (
            run(r, "all indexes", &pinot)?,
            run(r, "Druid-like", &druid)?,
        );
        let bare = run(r, "no index", &plain)?;
        differing += usize::from(with.rows != without.rows || with.rows != bare.rows);
        scanned.push((
            with.ledger.docs_scanned,
            without.ledger.docs_scanned,
            with.used_startree,
        ));
    }
    let [(tree, tree_less, used_startree), (sorted, unsorted, _), (ranged, unranged, _)] =
        scanned[..]
    else {
        return Err(rtdi_common::Error::Internal("three queries ran".into()));
    };
    r.claim(
        "E11.startree",
        "§4.3",
        "star-tree indices give an order of magnitude on aggregations",
        tree as f64,
        "documents scanned for the group-by with the star-tree (Druid-like: all 40000)",
        used_startree && tree * 10 <= tree_less && tree_less == ORDERS as u64,
    );
    r.claim(
        "E11.sorted",
        "§4.3",
        "as do sorted indices on time ranges",
        unsorted as f64 / sorted.max(1) as f64,
        "x fewer documents scanned for a 2 s time range on the sorted column",
        sorted * 10 <= unsorted,
    );
    r.claim(
        "E11.range",
        "§4.3",
        "and range indices on selective numeric filters",
        unranged as f64 / ranged.max(1) as f64,
        "x fewer documents scanned for total > 62 with the range index",
        ranged * 10 <= unranged && differing == 0,
    );
    Ok(())
}

fn e12_upsert(r: &mut Report) -> Result<()> {
    const KEYS: usize = 2_000;
    const VERSIONS: usize = 5;
    const PARTITIONS: u64 = 4;
    let fields = [
        ("trip_id", FieldType::Str),
        ("fare", FieldType::Double),
        ("ts", FieldType::Timestamp),
    ];
    let config = TableConfig::new("fares", Schema::of("fares", &fields))
        .with_upsert("trip_id")
        .with_partitions(PARTITIONS as usize)
        .with_segment_rows(1_000);
    let table = OlapTable::new(config)?;
    // each key always lands on the partition its hash names: no partition
    // ever asks another where a key lives
    r.timed(
        "E12",
        format!("{VERSIONS} versions of {KEYS} keys, 4 partitions"),
        || {
            (0..VERSIONS * KEYS).try_for_each(|i| {
                let (key, version) = (format!("t{}", i % KEYS), i / KEYS);
                let partition = (Value::from(key.as_str()).partition_hash() % PARTITIONS) as usize;
                let row = Row::new()
                    .with("trip_id", key)
                    .with("fare", version as f64)
                    .with("ts", version as i64);
                table.ingest(partition, row)
            })
        },
    )?;
    let live = table.query(&Query::select_all("fares").aggregate("n", AggFn::Count))?;
    let live = live.rows[0].get_int("n").unwrap_or(0);
    r.claim(
        "E12.one_row_per_key",
        "§4.3.1",
        "upsert by primary-key partitioning keeps one record per key, shared-nothing",
        live as f64,
        "live rows after 10000 writes to 2000 keys across 4 partitions",
        live == KEYS as i64,
    );
    let stale = (0..KEYS)
        .filter(|k| {
            let served = table.lookup(&Value::from(format!("t{k}")), "fare");
            served != Some(Value::Double((VERSIONS - 1) as f64))
        })
        .count();
    r.claim(
        "E12.latest",
        "§4.3.1",
        "and a query sees the latest version",
        stale as f64,
        "of 2000 keys serving anything but their last write",
        stale == 0,
    );

    // the centralized tracker the paper rejects puts one lock around this
    let keys: Vec<Value> = (0..100_000)
        .map(|i| Value::from(format!("k{}", i % 10_000)))
        .collect();
    let seg: Arc<str> = "seg".into();
    let mut local = PrimaryKeyIndex::new();
    r.timed(
        "E12",
        "100000 key-tracking upserts, partition-local",
        || {
            for (i, key) in keys.iter().enumerate() {
                local.upsert(key, &seg, i);
            }
        },
    );
    let shared = Mutex::new(PrimaryKeyIndex::new());
    r.timed(
        "E12",
        "100000 key-tracking upserts, behind one lock",
        || {
            for (i, key) in keys.iter().enumerate() {
                shared.lock().upsert(key, &seg, i);
            }
        },
    );
    Ok(())
}

fn city_segment(name: &str, first: usize, rows: usize) -> Result<Arc<Segment>> {
    let schema = Schema::of("t", &[("city", FieldType::Str), ("v", FieldType::Int)]);
    let rows = (first..first + rows)
        .map(|i| {
            Row::new()
                .with("city", ["sf", "la"][i % 2])
                .with("v", i as i64)
        })
        .collect();
    Ok(Arc::new(Segment::build(
        name,
        &schema,
        rows,
        &IndexSpec::none(),
    )?))
}

/// An archive that takes 1 ms per upload, one upload at a time: the
/// single-controller backup path §4.3.4 calls out.
#[derive(Default)]
struct SerializedSlowStore {
    inner: InMemoryStore,
    put_lock: Mutex<()>,
}

impl ObjectStore for SerializedSlowStore {
    fn put(&self, key: &str, data: Bytes) -> Result<()> {
        let _one_at_a_time = self.put_lock.lock();
        std::thread::sleep(Duration::from_millis(1));
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        self.inner.get(key)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>> {
        self.inner.list(prefix)
    }
}

fn e13_segment_backup(r: &mut Report) -> Result<()> {
    const SEALS: usize = 16;
    let archive = || Arc::new(FaultyStore::new(SerializedSlowStore::default()));
    let (central_archive, p2p_archive) = (archive(), archive());
    let store = |archive: &Arc<FaultyStore<SerializedSlowStore>>, mode| {
        SegmentStore::new(archive.clone(), mode, IndexSpec::none())
    };
    let centralized = store(&central_archive, SegmentStoreMode::Centralized);
    let p2p = store(&p2p_archive, SegmentStoreMode::PeerToPeer);
    let mut segments = Vec::new();
    for i in 0..SEALS {
        segments.push(city_segment(&format!("s{i}"), 0, 1_000)?);
    }
    for (what, store) in [("centralized", &centralized), ("peer-to-peer", &p2p)] {
        r.timed(
            "E13",
            format!("{SEALS} segment seals, {what} backup"),
            || {
                segments
                    .iter()
                    .try_for_each(|s| store.backup("t", s.clone()))
            },
        )?;
    }
    // what a seal waited for: the uploads done by the time it returned
    let waited_central = central_archive.inner().inner.object_count();
    let waited_p2p = p2p_archive.inner().inner.object_count();
    let queued = p2p.pending_count();
    let flushed = p2p.flush_pending()?;
    r.claim(
        "E13.stall",
        "§4.3.4",
        "synchronous backup through one controller stalls ingestion; Uber's is asynchronous",
        waited_p2p as f64,
        "archive uploads 16 peer-to-peer seals waited for (centralized: all 16)",
        waited_central == SEALS && waited_p2p == 0 && queued == SEALS && flushed == SEALS,
    );

    let peer = ServerNode::new(0);
    peer.host(segments[1].clone());
    let peers = std::slice::from_ref(&peer);
    r.timed("E13", "recover a segment from a peer replica", || {
        p2p.recover("t", "s1", peers)
    })?;
    r.timed("E13", "recover a segment from the archive", || {
        centralized.recover("t", "s1", &[])
    })?;
    central_archive.set_down(true);
    p2p_archive.set_down(true);
    let central_recovers = centralized.recover("t", "s1", peers).is_ok();
    let p2p_recovers = p2p.recover("t", "s1", peers).is_ok();
    r.claim(
        "E13.recovery",
        "§4.3.4",
        "server replicas can serve the archived segments on failure",
        f64::from(p2p_recovers),
        "segment recovered with the archive down (centralized scheme: 0)",
        p2p_recovers && !central_recovers,
    );
    Ok(())
}

fn e23_segment_loss(r: &mut Report) -> Result<()> {
    const SEGMENTS: usize = 8;
    const ROWS: usize = 1_000;
    let archive = Arc::new(InMemoryStore::new());
    let deep = SegmentStore::new(archive, SegmentStoreMode::Centralized, IndexSpec::none());
    for i in 0..SEGMENTS {
        deep.backup("t", city_segment(&format!("s{i}"), i * ROWS, ROWS)?)?;
    }
    // a replacement server comes up empty behind the broker
    let broker = Broker::new(vec![ServerNode::new(0)]);
    broker.register_table("t", false);
    r.timed(
        "E23",
        format!("rebuild {SEGMENTS} segments from the deep store"),
        || {
            (0..SEGMENTS).try_for_each(|i| {
                let recovered = deep.recover("t", &format!("s{i}"), &[])?;
                broker.place_segment("t", recovered, None, 1)
            })
        },
    )?;
    let served = broker.query(&Query::select_all("t").aggregate("n", AggFn::Count))?;
    let rows = served.rows[0].get_int("n").unwrap_or(0);
    r.claim(
        "E23.segment_loss",
        "§4.3.4",
        "a lost server's segments are rebuilt from the archive",
        rows as f64,
        "of 8000 rows served again by a replacement server",
        rows == (SEGMENTS * ROWS) as i64 && !served.ledger.partial(),
    );
    Ok(())
}

fn e24_segment_rehost(r: &mut Report) -> Result<()> {
    const SEGMENTS: usize = 16;
    const ROWS: usize = 500;
    let chaos = Chaos::seeded(0xE24B);
    let servers = (0..4).map(|i| ServerNode::with_chaos(i, chaos.clone()));
    let broker = Arc::new(Broker::new(servers.collect()));
    broker.register_table("t", false);
    let archive = Arc::new(InMemoryStore::new());
    let store = SegmentStore::new(archive, SegmentStoreMode::PeerToPeer, IndexSpec::none());
    for i in 0..SEGMENTS {
        let segment = city_segment(&format!("s{i}"), i * ROWS, ROWS)?;
        store.backup("t", segment.clone())?;
        broker.place_segment("t", segment, None, 2)?;
    }
    store.flush_pending()?;
    let rebalancer = Rebalancer::new(broker.clone(), Arc::new(store));

    let victim = broker.servers()[0].name().to_string();
    let stranded = broker.servers()[0].hosted().len();
    chaos.kill_node(&victim);
    let report = r.timed("E24", "re-host a dead server's replicas", || {
        rebalancer.rebalance()
    })?;
    let healed = broker.query(&Query::select_all("t").aggregate("n", AggFn::Count))?;
    r.claim(
        "E24.rehost",
        "§4.3.4",
        "replicas lost with a server are re-hosted from peers",
        report.moves.len() as f64,
        "replicas re-hosted after 1 of 4 servers died, full coverage back",
        report.moves.len() == stranded
            && stranded > 0
            && report.unrecovered.is_empty()
            && !healed.ledger.partial()
            && healed.rows[0].get_int("n") == Some((SEGMENTS * ROWS) as i64),
    );
    Ok(())
}

fn e26_segment_format(r: &mut Report) -> Result<()> {
    const ROWS: usize = 20_000;
    let fields = [
        ("city", FieldType::Str),
        ("status", FieldType::Str),
        ("fare", FieldType::Double),
        ("n_riders", FieldType::Int),
        ("ts", FieldType::Timestamp),
    ];
    let schema = Schema::of("trips", &fields);
    let cities = ["sf", "la", "nyc", "chi", "sea", "mia", "atx", "den"];
    let statuses = ["completed", "completed", "completed", "canceled"];
    let rows: Vec<Row> = (0..ROWS)
        .map(|i| {
            Row::new()
                .with("city", cities[i % cities.len()])
                .with("status", statuses[(i / 7) % statuses.len()])
                .with("fare", 5.0 + (i % 400) as f64 / 10.0)
                .with("n_riders", 1 + (i % 4) as i64)
                .with("ts", 1_600_000_000_000 + (i as i64) * 250)
        })
        .collect();
    let segment = Segment::build("trips_0", &schema, rows.clone(), &IndexSpec::none())?;
    let file = r.timed("E26", format!("persist a {ROWS}-row segment"), || {
        segment.persist()
    })?;
    let (_, decoded) = segfile::decode_rows_segment(&file)?;
    let ratio = archival::encode_rows(&rows).len() as f64 / file.len() as f64;
    r.claim(
        "E26.disk",
        "§4.3",
        "dictionary-encoded, bit-packed columns are what make Pinot's footprint small",
        ratio,
        "x smaller than the row encoding of the same 20000 trips",
        ratio >= 4.0 && decoded.len() == ROWS,
    );

    // a one-column count on a cold file decodes one column of five
    let one_column = Query::select_all("trips")
        .filter(Predicate::eq("city", "sf"))
        .aggregate("n", AggFn::Count);
    let full = r.timed("E26", "cold count, every column decoded first", || {
        let loaded = Segment::load_lazy(file.clone())?.into_segment(&IndexSpec::none())?;
        loaded.execute(&one_column, None)
    })?;
    let lazy = Segment::load_lazy(file.clone())?;
    let answer = r.timed("E26", "cold count, lazy load", || lazy.execute(&one_column))?;
    r.claim(
        "E26.lazy",
        "§4.3",
        "a query decodes only the columns it touches",
        lazy.bytes_loaded() as f64 / lazy.file_bytes() as f64,
        "of the file's bytes read for a 1-column count (1 of 5 columns decoded)",
        lazy.columns_loaded() == 1
            && lazy.bytes_loaded() * 4 < lazy.file_bytes()
            && answer.rows == full.rows,
    );

    // a time predicate outside the segment's range stops at the zone map
    let outside = Query::select_all("trips")
        .filter(Predicate::new("ts", PredicateOp::Gt, 1_700_000_000_000i64))
        .aggregate("n", AggFn::Count);
    let cold = Segment::load_lazy(file)?;
    let pruned = r.timed("E26", "zone-map-pruned time query", || {
        cold.execute(&outside)
    })?;
    r.claim(
        "E26.zone_map",
        "§4.3",
        "and a segment whose zone map rules it out is never read past its header",
        cold.bytes_loaded() as f64,
        "bytes read (the header) to answer a time query outside the segment's range",
        pruned.ledger.segments_pruned == 1
            && cold.columns_loaded() == 0
            && cold.bytes_loaded() == cold.header_bytes(),
    );
    Ok(())
}
