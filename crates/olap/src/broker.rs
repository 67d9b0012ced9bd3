//! Broker: scatter-gather-merge across server nodes.
//!
//! §4.3: "the query is first decomposed into sub-plans which execute on
//! the distributed segments in parallel, and then the plan results are
//! aggregated and merged into a final one." §4.3.1 adds the upsert
//! routing constraint: "we introduced a new routing strategy that
//! dispatches subqueries over the segments of the same partition to the
//! same node to ensure the integrity of the query result."

use crate::query::{PartialAgg, PartialResult, Query, QueryResult};
use crate::scatter::gather;
use crate::segment::Segment;
use parking_lot::RwLock;
use rtdi_common::{AdmissionController, Chaos, Error, FaultPoint, Permit, Priority, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// One server node hosting segment replicas.
pub struct ServerNode {
    id: usize,
    /// Membership/chaos identity: a node downed by name on `chaos`
    /// ([`Chaos::kill_node`]) reports itself down here too.
    name: String,
    down: AtomicBool,
    segments: RwLock<HashMap<String, Arc<Segment>>>,
    chaos: Chaos,
}

impl ServerNode {
    pub fn new(id: usize) -> Arc<Self> {
        Self::with_chaos(id, Chaos::default())
    }

    /// A server whose segment serving fails, and which is down, when
    /// `chaos` says so. Its membership name is `olap-server-{id}`.
    pub fn with_chaos(id: usize, chaos: Chaos) -> Arc<Self> {
        Arc::new(ServerNode {
            id,
            name: format!("olap-server-{id}"),
            down: AtomicBool::new(false),
            segments: RwLock::new(HashMap::new()),
            chaos,
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst) || self.chaos.node_is_down(&self.name)
    }

    pub fn host(&self, segment: Arc<Segment>) {
        self.segments
            .write()
            .insert(segment.name().to_string(), segment);
    }

    pub fn drop_segment(&self, name: &str) -> Option<Arc<Segment>> {
        self.segments.write().remove(name)
    }

    pub fn hosted(&self) -> Vec<String> {
        self.segments.read().keys().cloned().collect()
    }

    /// Serve a peer-recovery fetch (§4.3.4: "server replicas can serve the
    /// archived segments in case of failures").
    pub fn fetch_segment(&self, name: &str) -> Result<Arc<Segment>> {
        self.chaos.check(FaultPoint::OlapSegmentServe)?;
        if self.is_down() {
            return Err(Error::Unavailable(format!("server {} down", self.id)));
        }
        self.segments
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("segment '{name}' on server {}", self.id)))
    }

    fn execute_partial(&self, name: &str, query: &Query) -> Result<PartialAgg> {
        let seg = self.fetch_segment(name)?;
        seg.execute_partial(query, None)
    }
}

/// Placement of one segment: which partition it belongs to (upsert
/// routing) and which servers hold replicas.
#[derive(Debug, Clone)]
pub struct SegmentPlacement {
    pub segment: String,
    pub partition: Option<usize>,
    pub replicas: Vec<usize>,
}

/// The query broker.
/// Per-segment scatter assignments: `(segment name, candidate servers
/// in preference order)`.
type ScatterPlan = Vec<(String, Vec<usize>)>;

pub struct Broker {
    servers: Vec<Arc<ServerNode>>,
    /// table -> placements
    routing: RwLock<BTreeMap<String, Vec<SegmentPlacement>>>,
    /// partition-aware tables (upsert): all segments of one partition must
    /// route to one server
    partition_aware: RwLock<BTreeMap<String, bool>>,
    /// Scatter-phase worker threads (0 = one per available core).
    parallelism: AtomicUsize,
    /// Optional admission gate in front of the scatter: per-table tenant
    /// quotas, concurrency permits and queue watermarks; shed queries
    /// surface `Error::Overloaded` before touching any server.
    admission: RwLock<Option<Arc<AdmissionController>>>,
}

impl Broker {
    pub fn new(servers: Vec<Arc<ServerNode>>) -> Self {
        Broker {
            servers,
            routing: RwLock::new(BTreeMap::new()),
            partition_aware: RwLock::new(BTreeMap::new()),
            parallelism: AtomicUsize::new(0),
            admission: RwLock::new(None),
        }
    }

    /// Gate queries behind an admission controller (tenant = table name,
    /// lane = the query's priority).
    pub fn set_admission(&self, admission: Arc<AdmissionController>) {
        *self.admission.write() = Some(admission);
    }

    /// Admit a query (or refuse it with `Error::Overloaded`). The permit
    /// holds one broker concurrency slot for the query's lifetime.
    fn admit<'a>(
        &self,
        query: &Query,
        ac: &'a Option<Arc<AdmissionController>>,
    ) -> Result<Option<Permit<'a>>> {
        match ac {
            Some(ac) => Ok(Some(ac.admit(&query.table, query.priority)?)),
            None => Ok(None),
        }
    }

    /// Scatter parallelism for a query: the backfill lane runs on a
    /// single worker so batch scans never crowd interactive capacity.
    fn lane_parallelism(&self, query: &Query) -> usize {
        match query.priority {
            Priority::Backfill => 1,
            Priority::Interactive => self.parallelism.load(Ordering::Relaxed),
        }
    }

    pub fn servers(&self) -> &[Arc<ServerNode>] {
        &self.servers
    }

    pub fn register_table(&self, table: &str, partition_aware: bool) {
        self.routing.write().entry(table.to_string()).or_default();
        self.partition_aware
            .write()
            .insert(table.to_string(), partition_aware);
    }

    /// Place a segment on `replication` servers (round-robin by segment
    /// count, partition-pinned for partition-aware tables).
    pub fn place_segment(
        &self,
        table: &str,
        segment: Arc<Segment>,
        partition: Option<usize>,
        replication: usize,
    ) -> Result<()> {
        let n = self.servers.len();
        if n == 0 {
            return Err(Error::Unavailable("no servers".into()));
        }
        let aware = *self
            .partition_aware
            .read()
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table '{table}'")))?;
        let mut routing = self.routing.write();
        let placements = routing.entry(table.to_string()).or_default();
        let base = match (aware, partition) {
            // partition-aware: pin by partition id so all segments of a
            // partition share servers
            (true, Some(p)) => p,
            _ => placements.len(),
        };
        let replicas: Vec<usize> = (0..replication.max(1).min(n))
            .map(|r| (base + r) % n)
            .collect();
        for &s in &replicas {
            self.servers[s].host(segment.clone());
        }
        placements.push(SegmentPlacement {
            segment: segment.name().to_string(),
            partition,
            replicas,
        });
        Ok(())
    }

    /// Choose live candidate servers per segment (in preference order),
    /// respecting partition affinity. A segment with no live replica gets
    /// an empty candidate list — the query layer degrades to a partial
    /// response instead of failing outright. Segments whose partition the
    /// query's partition hint excludes are skipped entirely (pruned, not
    /// unavailable) and counted in the second return value.
    fn plan(&self, query: &Query) -> Result<(ScatterPlan, u64)> {
        let table = query.table.as_str();
        let routing = self.routing.read();
        let placements = routing
            .get(table)
            .ok_or_else(|| Error::NotFound(format!("table '{table}'")))?;
        let aware = *self.partition_aware.read().get(table).unwrap_or(&false);
        // partition -> chosen server, so all of a partition goes together
        let mut chosen_by_partition: HashMap<usize, usize> = HashMap::new();
        let mut pruned = 0u64;
        let mut plan = Vec::with_capacity(placements.len());
        for pl in placements {
            if !query.admits_partition(pl.partition) {
                pruned += 1;
                continue;
            }
            let live: Vec<usize> = pl
                .replicas
                .iter()
                .copied()
                .filter(|&s| !self.servers[s].is_down())
                .collect();
            let candidates = match (aware, pl.partition) {
                (true, Some(p)) => {
                    // prefer the server already chosen for this partition;
                    // the rest stay as mid-scatter fallbacks
                    let preferred = match chosen_by_partition.get(&p).copied() {
                        Some(s) if !self.servers[s].is_down() => Some(s),
                        _ => live.first().copied(),
                    };
                    match preferred {
                        Some(s) => {
                            chosen_by_partition.insert(p, s);
                            let mut c = vec![s];
                            c.extend(live.iter().copied().filter(|&x| x != s));
                            c
                        }
                        None => Vec::new(),
                    }
                }
                _ => live,
            };
            plan.push((pl.segment.clone(), candidates));
        }
        Ok((plan, pruned))
    }

    /// Try each candidate server for a segment in order, routing around
    /// servers that die mid scatter-gather; availability errors only
    /// surface when every replica fails.
    fn serve_with_failover(
        &self,
        segment: &str,
        candidates: &[usize],
        query: &Query,
    ) -> Result<PartialAgg> {
        let mut last: Option<Error> = None;
        for &s in candidates {
            match self.servers[s].execute_partial(segment, query) {
                Ok(v) => return Ok(v),
                Err(e) if matches!(e, Error::Unavailable(_) | Error::Timeout(_)) => {
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            Error::Unavailable(format!("segment '{segment}' has no live replica"))
        }))
    }

    /// Execute a query: scatter sub-queries to the chosen servers across
    /// the worker pool, gather in plan order, merge, finalize.
    ///
    /// Graceful degradation (Pinot partial-response semantics): segments
    /// with no live replica, or whose serve fails with an availability
    /// error mid scatter-gather, are skipped and counted in
    /// `segments_unavailable`, which makes the ledger `partial()`. Only a
    /// total outage (no segment servable at all) is an `Err`.
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        self.query_partial(query)?.finalize(query)
    }

    /// Scatter-gather that stops before the finalize step, returning the
    /// merged partial and its ledger — the unit the SQL federation layer
    /// unions with offline segment partials across the realtime/offline
    /// time boundary.
    pub fn query_partial(&self, query: &Query) -> Result<PartialResult> {
        let ac = self.admission.read().clone();
        let _permit = self.admit(query, &ac)?;
        let (plan, segments_pruned) = self.plan(query)?;
        // a segment with no live replica is unavailable before the scatter
        // starts: it costs no deadline check and can never count as shed
        let planned = plan.len();
        let live: ScatterPlan = plan.into_iter().filter(|(_, c)| !c.is_empty()).collect();
        let mut out = PartialResult::default();
        out.ledger.segments_pruned = segments_pruned;
        out.ledger.segments_unavailable = (planned - live.len()) as u64;
        let threads = self.lane_parallelism(query);
        gather(&mut out, query, live.len(), threads, |i| {
            let (segment, candidates) = &live[i];
            self.serve_with_failover(segment, candidates, query)
        })?;
        Ok(out)
    }

    /// Registered table names, in order.
    pub fn tables(&self) -> Vec<String> {
        self.routing.read().keys().cloned().collect()
    }

    /// Current placements of a table's segments.
    pub fn placements(&self, table: &str) -> Vec<SegmentPlacement> {
        self.routing.read().get(table).cloned().unwrap_or_default()
    }

    /// Index of the server with the given membership name.
    pub fn server_by_name(&self, name: &str) -> Option<usize> {
        self.servers.iter().position(|s| s.name() == name)
    }

    /// Move one replica of a segment from a dead server to a new host:
    /// the recovered segment is hosted on `to` and the routing entry
    /// updated. Used by the rebalancer (§4.3.4 self-healing).
    pub fn rehost_replica(
        &self,
        table: &str,
        segment: &str,
        from: usize,
        to: usize,
        seg: Arc<Segment>,
    ) -> Result<()> {
        if to >= self.servers.len() {
            return Err(Error::InvalidArgument(format!("no server {to}")));
        }
        let mut routing = self.routing.write();
        let placements = routing
            .get_mut(table)
            .ok_or_else(|| Error::NotFound(format!("table '{table}'")))?;
        let pl = placements
            .iter_mut()
            .find(|p| p.segment == segment)
            .ok_or_else(|| Error::NotFound(format!("segment '{segment}'")))?;
        let slot = pl.replicas.iter().position(|&r| r == from).ok_or_else(|| {
            Error::NotFound(format!(
                "segment '{segment}' has no replica on server {from}"
            ))
        })?;
        if pl.replicas.contains(&to) {
            return Err(Error::AlreadyExists(format!(
                "segment '{segment}' already on server {to}"
            )));
        }
        pl.replicas[slot] = to;
        self.servers[to].host(seg);
        self.servers[from].drop_segment(segment);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::IndexSpec;
    use rtdi_common::{AggFn, FieldType, Row, Schema};

    impl Broker {
        fn set_parallelism(&self, threads: usize) {
            self.parallelism.store(threads, Ordering::Relaxed);
        }
    }

    fn schema() -> Schema {
        Schema::of(
            "t",
            &[("city", FieldType::Str), ("fare", FieldType::Double)],
        )
    }

    fn seg(name: &str, offset: usize, n: usize) -> Arc<Segment> {
        let rows: Vec<Row> = (offset..offset + n)
            .map(|i| {
                Row::new()
                    .with("city", ["sf", "la"][i % 2])
                    .with("fare", i as f64)
            })
            .collect();
        Arc::new(Segment::build(name, &schema(), rows, &IndexSpec::none()).unwrap())
    }

    fn setup() -> Broker {
        let servers: Vec<Arc<ServerNode>> = (0..3).map(ServerNode::new).collect();
        let broker = Broker::new(servers);
        broker.register_table("t", false);
        for i in 0..6 {
            broker
                .place_segment("t", seg(&format!("s{i}"), i * 100, 100), None, 2)
                .unwrap();
        }
        broker
    }

    #[test]
    fn scatter_gather_merges_aggregations() {
        let broker = setup();
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .aggregate("avg_fare", AggFn::Avg("fare".into()))
            .group(&["city"]);
        let res = broker.query(&q).unwrap();
        assert_eq!(res.ledger.segments_queried, 6);
        let total: i64 = res.rows.iter().map(|r| r.get_int("n").unwrap()).sum();
        assert_eq!(total, 600);
        // avg must be the true global average, not an average of averages
        let sf = res
            .rows
            .iter()
            .find(|r| r.get_str("city") == Some("sf"))
            .unwrap();
        let expected: f64 = (0..600)
            .filter(|i| i % 2 == 0)
            .map(|i| i as f64)
            .sum::<f64>()
            / 300.0;
        assert!((sf.get_double("avg_fare").unwrap() - expected).abs() < 1e-9);
    }

    #[test]
    fn parallel_scatter_matches_serial() {
        let broker = setup();
        let queries = vec![
            Query::select_all("t")
                .aggregate("n", AggFn::Count)
                .aggregate("avg_fare", AggFn::Avg("fare".into()))
                .group(&["city"]),
            Query::select_all("t")
                .columns(&["fare"])
                .order("fare", crate::query::SortOrder::Desc)
                .limit(7),
        ];
        for q in queries {
            broker.set_parallelism(1);
            let serial = broker.query(&q).unwrap();
            broker.set_parallelism(4);
            let parallel = broker.query(&q).unwrap();
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn failover_to_replicas() {
        let broker = setup();
        let q = Query::select_all("t").aggregate("n", AggFn::Count);
        broker.servers()[0].set_down(true);
        let res = broker.query(&q).unwrap();
        assert_eq!(res.rows[0].get_int("n"), Some(600));
        assert!(
            !res.ledger.partial(),
            "replicas cover one lost server fully"
        );
        // two servers down with replication 2 -> some segments unreachable,
        // but the query degrades to a partial answer instead of failing
        broker.servers()[1].set_down(true);
        let res = broker.query(&q).unwrap();
        assert!(res.ledger.partial());
        assert!(res.ledger.segments_unavailable > 0);
        assert!(res.ledger.segments_queried > 0);
        let n = res.rows[0].get_int("n").unwrap();
        assert!(
            n > 0 && n < 600,
            "partial count covers a strict subset: {n}"
        );
        // total outage is still an error
        broker.servers()[2].set_down(true);
        assert!(matches!(broker.query(&q), Err(Error::Unavailable(_))));
    }

    #[test]
    fn selection_scatter_respects_order_limit() {
        let broker = setup();
        let q = Query::select_all("t")
            .columns(&["fare"])
            .order("fare", crate::query::SortOrder::Desc)
            .limit(3);
        let res = broker.query(&q).unwrap();
        let fares: Vec<f64> = res
            .rows
            .iter()
            .map(|r| r.get_double("fare").unwrap())
            .collect();
        assert_eq!(fares, vec![599.0, 598.0, 597.0]);
    }

    #[test]
    fn partition_aware_routing_keeps_partition_on_one_server() {
        let servers: Vec<Arc<ServerNode>> = (0..4).map(ServerNode::new).collect();
        let broker = Broker::new(servers);
        broker.register_table("u", true);
        // two segments per partition, 3 partitions
        for p in 0..3usize {
            for s in 0..2usize {
                broker
                    .place_segment("u", seg(&format!("p{p}s{s}"), 0, 10), Some(p), 2)
                    .unwrap();
            }
        }
        let (plan, pruned) = broker.plan(&Query::select_all("u")).unwrap();
        assert_eq!(pruned, 0);
        let mut by_partition: HashMap<usize, Vec<usize>> = HashMap::new();
        for (name, candidates) in plan {
            let p: usize = name[1..2].parse().unwrap();
            by_partition
                .entry(p)
                .or_default()
                .push(*candidates.first().expect("all servers live"));
        }
        for (p, servers) in by_partition {
            assert!(
                servers.windows(2).all(|w| w[0] == w[1]),
                "partition {p} split across servers: {servers:?}"
            );
        }
    }

    #[test]
    fn unknown_table_rejected() {
        let broker = setup();
        let q = Query::select_all("ghost").aggregate("n", AggFn::Count);
        assert!(matches!(broker.query(&q), Err(Error::NotFound(_))));
        assert!(broker
            .place_segment("ghost", seg("x", 0, 1), None, 1)
            .is_err());
    }

    #[test]
    fn peer_fetch_for_recovery() {
        let broker = setup();
        // segment s0 hosted on servers 0 and 1; fetch from a peer
        let from_peer = broker.servers()[1]
            .fetch_segment("s0")
            .or_else(|_| broker.servers()[0].fetch_segment("s0"));
        assert!(from_peer.is_ok());
        assert!(broker.servers()[2].fetch_segment("zzz").is_err());
    }

    /// A clock that advances a fixed step on every read, so a deadline can
    /// expire mid-scatter without real sleeps.
    struct TickClock {
        now: std::sync::atomic::AtomicI64,
        step: i64,
    }

    impl rtdi_common::Clock for TickClock {
        fn now(&self) -> rtdi_common::Timestamp {
            self.now
                .fetch_add(self.step, std::sync::atomic::Ordering::SeqCst)
                + self.step
        }
    }

    #[test]
    fn expired_deadline_sheds_remaining_segments_as_partial() {
        let broker = setup();
        broker.set_parallelism(1);
        let clock = Arc::new(TickClock {
            now: std::sync::atomic::AtomicI64::new(0),
            step: 10,
        });
        // budget covers two per-segment checks (t=10, t=20) and expires
        // before the third (t=30): the rest of the scatter is shed
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .with_deadline(rtdi_common::Deadline::at(clock, 25));
        let res = broker.query(&q).unwrap();
        assert_eq!(res.ledger.segments_queried, 2);
        assert_eq!(res.ledger.segments_shed, 4);
        assert!(res.ledger.deadline_exceeded);
        assert!(res.ledger.partial());
        assert_eq!(res.rows[0].get_int("n"), Some(200));
        // a deadline that is already spent before the first segment is a
        // hard error, not an empty partial answer
        let clock = Arc::new(TickClock {
            now: std::sync::atomic::AtomicI64::new(0),
            step: 10,
        });
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .with_deadline(rtdi_common::Deadline::at(clock, 5));
        assert!(matches!(broker.query(&q), Err(Error::DeadlineExceeded(_))));
    }

    /// The backfill lane scatters on one worker; its admission is pinned in
    /// `tests/overload_soak.rs`.
    #[test]
    fn backfill_lane_runs_serial() {
        let broker = setup();
        broker.set_parallelism(4);
        let q = Query::select_all("t")
            .aggregate("n", AggFn::Count)
            .lane(Priority::Backfill);
        assert_eq!(broker.lane_parallelism(&q), 1);
        let interactive = Query::select_all("t").aggregate("n", AggFn::Count);
        assert_eq!(broker.lane_parallelism(&interactive), 4);
    }
}
