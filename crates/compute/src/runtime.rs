//! The staged dataflow runtime: the one engine every job runs on.
//!
//! [`run_staged_with`] drives a linear operator chain over a source with
//! one thread per stage connected by *bounded* channels, whose blocking
//! sends are the credit-based backpressure that lets the engine absorb
//! massive input backlogs gracefully (§4.2) — measured against the
//! Storm-like baseline in experiment E6. Its hot path is micro-batched
//! (`StagedMsg::Batch` moves one `Vec<Arc<Record>>` per hop instead of
//! one message per record — Flink's network-buffer batching) and
//! operator-chained (adjacent stateless stages fuse into one thread via
//! [`crate::operator::fuse_stateless`]).
//!
//! The source pump generates watermarks and periodically injects aligned
//! checkpoint barriers that flow through the chain collecting stage
//! snapshots, so a barrier arriving mid-batch captures exactly the records
//! before it; the sink stage persists the consistent cut — source
//! positions plus every stateful stage's state — to the object store (the
//! paper's "robust checkpoints" on HDFS, §4.4/§10). Recovery seeks the
//! source back to the snapshot and restores stage state, giving
//! at-least-once end-to-end and exactly-once state semantics.
//!
//! Stages whose operator declares a [`ShardSpec`] run *data-parallel*:
//! the runtime expands them into a router thread (FNV key-hash over 128
//! key groups, plus count-min-sketch driven hot-key salting), N shard
//! threads with per-instance state and watermarks, and a merge thread
//! that reassembles output deterministically (inline emissions by input
//! sequence number, watermark flushes by grouping key) — so parallel
//! output is byte-identical to `parallelism = 1`. Barriers broadcast to
//! every shard and their key-group framed snapshots merge into one
//! parallelism-independent stage snapshot, which is what lets
//! [`RescaleHandle`]-driven restarts redistribute state by key group.
//!
//! The single-threaded per-record oracle the tests compare this engine
//! against lives in [`crate::reference`].

use crate::operator::{key_string, write_key, Operator, OperatorOutput, ShardSpec};
use crate::sink::Sink;
use crate::source::Source;
use crate::watermark::WatermarkGenerator;
use crate::window::{WINDOW_END_COL, WINDOW_START_COL};
use bytes::Bytes;
use rtdi_common::wire::{Reader, Writer};
use rtdi_common::{Chaos, CountMinSketch, Error, FaultPoint, Record, Result, Timestamp, Value};
use rtdi_storage::keyed::{key_group_of, shard_of_group, KeyedSnapshot};
use rtdi_storage::object::ObjectStore;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A runnable job: source -> operators -> sink.
pub struct Job {
    pub name: String,
    pub source: Box<dyn Source>,
    pub operators: Vec<Box<dyn Operator>>,
    pub sink: Box<dyn Sink>,
    /// Watermark bound; Kappa+ backfills use a larger value (§7).
    pub max_out_of_orderness: i64,
}

impl Job {
    pub fn new(
        name: impl Into<String>,
        source: Box<dyn Source>,
        operators: Vec<Box<dyn Operator>>,
        sink: Box<dyn Sink>,
    ) -> Self {
        Job {
            name: name.into(),
            source,
            operators,
            sink,
            max_out_of_orderness: 0,
        }
    }

    pub fn with_out_of_orderness(mut self, ms: i64) -> Self {
        self.max_out_of_orderness = ms;
        self
    }
}

/// Outcome of a job run, with per-stage throughput numbers.
#[derive(Debug, Clone, Default)]
pub struct JobRunStats {
    pub records_in: u64,
    pub records_out: u64,
    pub checkpoints_taken: u64,
    pub restored_from_checkpoint: Option<u64>,
    /// Peak operator state, summed over stages (drives memory-bound
    /// classification).
    pub peak_state_bytes: usize,
    /// `Some(id)` when the run stopped deliberately at checkpoint `id`
    /// because a [`RescaleHandle`] requested it; the job can be restarted
    /// from that checkpoint at a different parallelism.
    pub stopped_at_checkpoint: Option<u64>,
    pub stages: Vec<StageStats>,
    pub elapsed: std::time::Duration,
}

/// One persisted checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    pub checkpoint_id: u64,
    pub source_position: Vec<u64>,
    pub operator_state: Vec<Bytes>,
    pub records_in: u64,
}

impl CheckpointData {
    fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u64(self.checkpoint_id);
        w.u64(self.records_in);
        w.u32(self.source_position.len() as u32);
        for p in &self.source_position {
            w.u64(*p);
        }
        w.u32(self.operator_state.len() as u32);
        for s in &self.operator_state {
            w.block(s);
        }
        w.into_bytes()
    }

    fn decode(data: &Bytes) -> Result<Self> {
        let mut r = Reader::new(data);
        let checkpoint_id = r.u64("checkpoint id")?;
        let records_in = r.u64("checkpoint record count")?;
        let np = r.count(8, "checkpoint position count")?;
        let mut source_position = Vec::with_capacity(np);
        for _ in 0..np {
            source_position.push(r.u64("checkpoint position")?);
        }
        // every state slot has at least its length prefix; each is handed
        // on as a slice of `data`
        let ns = r.count(4, "checkpoint state count")?;
        let mut operator_state = Vec::with_capacity(ns);
        for _ in 0..ns {
            operator_state.push(r.owned_block(data, "checkpoint state")?);
        }
        Ok(CheckpointData {
            checkpoint_id,
            source_position,
            operator_state,
            records_in,
        })
    }
}

/// Checkpoint persistence over the object store.
///
/// Retains the last [`CheckpointStore::with_retain`] checkpoints per job
/// (pruning older ones on persist) so recovery can fall back to an
/// earlier snapshot when the newest one fails to decode — a single
/// corrupt object must degrade recovery, never defeat it.
#[derive(Clone)]
pub struct CheckpointStore {
    store: Arc<dyn ObjectStore>,
    retain: usize,
}

/// Checkpoints kept per job by default.
pub const DEFAULT_CHECKPOINT_RETENTION: usize = 3;

impl CheckpointStore {
    pub fn new(store: Arc<dyn ObjectStore>) -> Self {
        CheckpointStore {
            store,
            retain: DEFAULT_CHECKPOINT_RETENTION,
        }
    }

    /// Keep the last `n` checkpoints per job (minimum 1).
    pub fn with_retain(mut self, n: usize) -> Self {
        self.retain = n.max(1);
        self
    }

    fn key(job: &str, id: u64) -> String {
        format!("checkpoints/{job}/ckpt-{id:010}")
    }

    pub fn persist(&self, job: &str, data: &CheckpointData) -> Result<()> {
        self.store
            .put(&Self::key(job, data.checkpoint_id), data.encode())?;
        // prune beyond the retention window (keys sort by id)
        let keys = self.store.list(&format!("checkpoints/{job}/"))?;
        if keys.len() > self.retain {
            for k in &keys[..keys.len() - self.retain] {
                self.store.delete(k)?;
            }
        }
        Ok(())
    }

    /// The newest *decodable* checkpoint: a corrupt latest object
    /// (`Error::Corruption`) falls back to the previous retained one
    /// instead of failing recovery outright. Surfaces the corruption
    /// only when every retained checkpoint is damaged.
    pub fn latest(&self, job: &str) -> Result<Option<CheckpointData>> {
        let keys = self.store.list(&format!("checkpoints/{job}/"))?;
        let mut last_corruption = None;
        for k in keys.iter().rev() {
            match CheckpointData::decode(&self.store.get(k)?) {
                Ok(data) => return Ok(Some(data)),
                Err(Error::Corruption(msg)) => last_corruption = Some(msg),
                Err(e) => return Err(e),
            }
        }
        match last_corruption {
            None => Ok(None),
            Some(msg) => Err(Error::Corruption(format!(
                "every retained checkpoint of job '{job}' is corrupt (latest: {msg})"
            ))),
        }
    }
}

/// Per-stage counters from a staged run. A fused stage lists every
/// logical operator it executes in `operators` — observability parity
/// with the unchained plan.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    pub stage: String,
    pub operators: Vec<String>,
    pub records_in: u64,
    pub records_out: u64,
    /// Channel messages carrying records.
    pub batches_in: u64,
    pub late_dropped: u64,
    /// Largest `memory_bytes()` the stage reported, sampled after each
    /// watermark; the shards of a parallel stage add up.
    pub peak_state_bytes: usize,
    /// Per-instance counters when the stage ran data-parallel (empty for
    /// serial stages). Skew shows up here: a hot key inflates one shard's
    /// `records_in` and `max_queue_depth` relative to its siblings.
    pub shards: Vec<ShardStats>,
}

/// Counters for one parallel instance of a sharded stage.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    pub instance: usize,
    pub records_in: u64,
    pub records_out: u64,
    /// Deepest this shard's input queue got (a saturation/skew signal).
    pub max_queue_depth: usize,
    /// The shard's own watermark (stage watermark is the min over shards).
    pub watermark: Timestamp,
    pub late_dropped: u64,
    pub peak_state_bytes: usize,
}

/// Cooperative rescale request: the caller raises the flag, the
/// source pump notices right after it emits a checkpoint barrier and shuts
/// the run down cleanly at that exact cut. All open windows live in the
/// checkpoint; the restarted job (at any parallelism) resumes from it with
/// no loss and no duplication.
#[derive(Clone, Default)]
pub struct RescaleHandle {
    flag: Arc<AtomicBool>,
}

impl RescaleHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the running job to stop at its next checkpoint boundary.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    pub fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// An aligned checkpoint barrier flowing down the chain. Each stage
/// appends its snapshot when the barrier passes — by the time it reaches
/// the sink it holds a consistent cut of exactly the records before it.
struct BarrierState {
    id: u64,
    source_position: Vec<u64>,
    records_in: u64,
    snapshots: Vec<Bytes>,
}

enum StagedMsg {
    /// One send per micro-batch of up to `batch_size` records.
    Batch(Vec<Arc<Record>>),
    Watermark(Timestamp),
    Barrier(Box<BarrierState>),
}

/// Knobs for the staged runtime.
#[derive(Clone)]
pub struct StagedConfig {
    /// Per-hop channel buffer (in messages).
    pub channel_capacity: usize,
    /// Records per channel hop: larger values amortize one send + one
    /// wakeup across the whole batch (1 is a batch of one). Watermarks and
    /// barriers flush any partial batch first, so ordering semantics are
    /// identical at every size.
    pub batch_size: usize,
    /// Run the operator-chaining pass ([`crate::operator::fuse_stateless`])
    /// before spawning stages.
    pub fuse_operators: bool,
    /// Checkpoint every N input records via barrier alignment (0 = off).
    pub checkpoint_interval: u64,
    pub checkpoint_store: Option<CheckpointStore>,
    /// Optional cooperative stop-at-checkpoint flag for a rescale: the
    /// caller restores the stopped run at another parallelism. Only
    /// effective when checkpointing is configured.
    pub rescale: Option<RescaleHandle>,
    /// Where the run's `compute.channel` and `compute.process` faults
    /// come from; a handle of the config's own unless the caller sets one.
    pub chaos: Chaos,
}

impl StagedConfig {
    /// Batched + fused defaults used by production-style runs.
    pub fn batched(channel_capacity: usize, batch_size: usize) -> Self {
        StagedConfig {
            channel_capacity,
            batch_size,
            fuse_operators: true,
            checkpoint_interval: 0,
            checkpoint_store: None,
            rescale: None,
            chaos: Chaos::default(),
        }
    }
}

impl Default for StagedConfig {
    /// `batched(64, 256)`: what the platform's front doors run under.
    fn default() -> Self {
        StagedConfig::batched(64, 256)
    }
}

/// One entry of the staged execution plan: a serial operator thread, or a
/// sharded stage expanded into router + N shards + merge. Each entry owns
/// exactly one checkpoint slot, so slot counts are independent of
/// parallelism and checkpoints survive rescales.
enum StagePlan {
    Serial(Box<dyn Operator>),
    Parallel {
        shards: Vec<Box<dyn Operator>>,
        spec: ShardSpec,
        name: String,
        operators: Vec<String>,
    },
}

impl StagePlan {
    fn restore(&mut self, state: Bytes) -> Result<()> {
        match self {
            StagePlan::Serial(op) => op.restore(state),
            StagePlan::Parallel { shards, .. } => {
                // every shard gets the whole stage snapshot and keeps only
                // the key groups it owns
                for shard in shards.iter_mut() {
                    shard.restore(state.clone())?;
                }
                Ok(())
            }
        }
    }
}

/// Expand the (possibly fused) operator chain into the execution plan:
/// operators declaring a [`ShardSpec`] become parallel entries, and a
/// salted windowed aggregate contributes its final-combine operator as an
/// extra serial entry right behind the shards.
fn build_stage_plan(ops: Vec<Box<dyn Operator>>) -> Result<Vec<StagePlan>> {
    let mut plan = Vec::with_capacity(ops.len());
    for op in ops {
        let Some(spec) = op.shard_spec() else {
            plan.push(StagePlan::Serial(op));
            continue;
        };
        let n = spec.parallelism.max(1);
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            shards.push(op.make_shard(i, n).ok_or_else(|| {
                Error::Internal(format!(
                    "operator '{}' declared shard_spec but produced no shard",
                    op.name()
                ))
            })?);
        }
        let combiner = op.make_combiner();
        plan.push(StagePlan::Parallel {
            name: format!("{}[x{n}]", op.name()),
            operators: op.operator_names(),
            shards,
            spec,
        });
        if let Some(c) = combiner {
            plan.push(StagePlan::Serial(c));
        }
    }
    Ok(plan)
}

/// Records routed to one shard, tagged with their global input sequence
/// number so the merge can restore input order exactly.
enum ShardMsg {
    Batch(Vec<(u64, Arc<Record>)>),
    Watermark(Timestamp),
    /// Take a state snapshot for barrier `id`.
    Snapshot(u64),
}

/// What shards send the merge thread.
enum MergeMsg {
    /// Inline emissions: `(input seq, emission index within record, rec)`.
    Data(usize, Vec<(u64, u32, Arc<Record>)>),
    /// Watermark epoch complete on this shard, with its flush emissions
    /// (already in the operator's deterministic per-shard order). Sent
    /// even when empty — it is the epoch-completion signal.
    Flush(usize, Timestamp, OperatorOutput),
    /// This shard's snapshot for barrier `id`.
    Snapshot(usize, u64, Bytes),
}

/// What the router measured; shard errors surface from the shards.
#[derive(Default)]
struct RouterOutcome {
    records_in: u64,
    batches_in: u64,
    max_depth: Vec<usize>,
    err: Option<Error>,
}

/// The chaos crash site for operator processing: one check per source
/// record, made only on the thread of the first plan entry (the one
/// given the run's handle), so hit counts and seeded `Probability` draws
/// are deterministic per run.
fn process_fault(chaos: Option<&Chaos>, records: usize) -> Result<()> {
    if let Some(chaos) = chaos {
        for _ in 0..records {
            chaos.check(FaultPoint::ComputeProcess)?;
        }
    }
    Ok(())
}

fn flush_buckets(
    buckets: &mut [Vec<(u64, Arc<Record>)>],
    txs: &[crossbeam::channel::Sender<ShardMsg>],
    max_depth: &mut [usize],
) -> bool {
    for (s, bucket) in buckets.iter_mut().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        if txs[s]
            .send(ShardMsg::Batch(std::mem::take(bucket)))
            .is_err()
        {
            return false;
        }
        max_depth[s] = max_depth[s].max(txs[s].len());
    }
    true
}

/// The router thread of a parallel stage: key-hash partitioning over key
/// groups, with count-min-sketch hot-key detection spraying keys above
/// the threshold round-robin across shards (their partial aggregates are
/// recombined by the combine stage). Barriers go to the merge thread
/// first (so it can attach the merged snapshot), then broadcast to every
/// shard; watermarks broadcast to every shard.
fn run_parallel_router(
    rx: crossbeam::channel::Receiver<StagedMsg>,
    shard_txs: Vec<crossbeam::channel::Sender<ShardMsg>>,
    barrier_tx: crossbeam::channel::Sender<Box<BarrierState>>,
    spec: ShardSpec,
    chaos: Option<Chaos>,
) -> RouterOutcome {
    let n = shard_txs.len();
    let mut out = RouterOutcome {
        max_depth: vec![0; n],
        ..RouterOutcome::default()
    };
    let mut sketch = CountMinSketch::new(4, 1024);
    let mut seq = 0u64;
    let mut buckets: Vec<Vec<(u64, Arc<Record>)>> = (0..n).map(|_| Vec::new()).collect();
    // the operators' own key bytes, hashed in place: no `String` per record
    let mut key = String::new();
    let mut route = |r: Arc<Record>, seq: &mut u64, buckets: &mut Vec<Vec<(u64, Arc<Record>)>>| {
        write_key(&mut key, &r.value, &spec.key_cols);
        let h = Value::hash_of_str(&key);
        let shard = match spec.hot_key_threshold {
            // hot key: salt it across all shards (two-phase aggregation
            // recombines); cold keys keep their stable key-group home
            Some(t) if sketch.observe(h) >= t => (*seq % n as u64) as usize,
            _ => shard_of_group(key_group_of(h), n),
        };
        buckets[shard].push((*seq, r));
        *seq += 1;
    };
    'recv: while let Ok(msg) = rx.recv() {
        match msg {
            StagedMsg::Batch(batch) => {
                out.records_in += batch.len() as u64;
                out.batches_in += 1;
                if let Err(e) = process_fault(chaos.as_ref(), batch.len()) {
                    out.err = Some(e);
                    break 'recv;
                }
                for r in batch {
                    route(r, &mut seq, &mut buckets);
                }
                if !flush_buckets(&mut buckets, &shard_txs, &mut out.max_depth) {
                    break 'recv;
                }
            }
            StagedMsg::Watermark(wm) => {
                for t in &shard_txs {
                    if t.send(ShardMsg::Watermark(wm)).is_err() {
                        break 'recv;
                    }
                }
            }
            StagedMsg::Barrier(b) => {
                let id = b.id;
                // merge must receive the barrier before any shard snapshot
                // for it can arrive
                if barrier_tx.send(b).is_err() {
                    break 'recv;
                }
                for t in &shard_txs {
                    if t.send(ShardMsg::Snapshot(id)).is_err() {
                        break 'recv;
                    }
                }
            }
        }
    }
    out
}

/// One shard thread: processes its partition of the keyed stream with its
/// own operator instance, tagging inline emissions with input sequence
/// numbers for the merge. Watermark flushes always produce a `Flush`
/// message (even empty) so the merge can close the epoch.
fn run_parallel_shard(
    index: usize,
    mut op: Box<dyn Operator>,
    rx: crossbeam::channel::Receiver<ShardMsg>,
    tx: crossbeam::channel::Sender<MergeMsg>,
) -> (ShardStats, Option<Error>) {
    let inline = op.emits_inline();
    let mut st = ShardStats {
        instance: index,
        watermark: Timestamp::MIN,
        ..ShardStats::default()
    };
    let mut err = None;
    let mut fold: Vec<Arc<Record>> = Vec::new();
    let mut buf = OperatorOutput::new();
    let mut data: Vec<(u64, u32, Arc<Record>)> = Vec::new();
    'recv: while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch(batch) => {
                st.records_in += batch.len() as u64;
                if inline {
                    for (seq, r) in batch {
                        if let Err(e) = op.process(&r, &mut buf) {
                            err = Some(e);
                            break 'recv;
                        }
                        for (sub, rec) in buf.drain(..).enumerate() {
                            data.push((seq, sub as u32, rec));
                        }
                    }
                } else {
                    // stateful fold: emissions only happen on watermarks,
                    // so the batch needs no seq attribution
                    fold.extend(batch.into_iter().map(|(_, r)| r));
                    let res = op.process_batch(&fold, &mut buf);
                    fold.clear();
                    if let Err(e) = res {
                        err = Some(e);
                        break;
                    }
                    debug_assert!(
                        buf.is_empty(),
                        "operator declared emits_inline=false but emitted from process"
                    );
                    buf.clear();
                }
                if !data.is_empty() {
                    st.records_out += data.len() as u64;
                    if tx
                        .send(MergeMsg::Data(index, std::mem::take(&mut data)))
                        .is_err()
                    {
                        break;
                    }
                }
            }
            ShardMsg::Watermark(wm) => {
                op.on_watermark(wm, &mut buf);
                st.peak_state_bytes = st.peak_state_bytes.max(op.memory_bytes());
                st.watermark = st.watermark.max(wm);
                st.records_out += buf.len() as u64;
                let flushed = std::mem::take(&mut buf);
                if tx.send(MergeMsg::Flush(index, wm, flushed)).is_err() {
                    break;
                }
            }
            ShardMsg::Snapshot(id) => {
                if tx
                    .send(MergeMsg::Snapshot(index, id, op.snapshot()))
                    .is_err()
                {
                    break;
                }
            }
        }
    }
    st.late_dropped = op.late_dropped();
    (st, err)
}

/// Deterministic downstream order of watermark-flush emissions: grouping
/// key first, then window bounds — exactly the `BTreeMap` emission order
/// of the serial windowed operators, reconstructed across shards.
fn flush_sort_key(r: &Record, key_cols: &[String]) -> (String, i64, i64) {
    (
        key_string(&r.value, key_cols),
        r.value.get_int(WINDOW_START_COL).unwrap_or(r.timestamp),
        r.value.get_int(WINDOW_END_COL).unwrap_or(0),
    )
}

fn send_merge_out(
    tx: &crossbeam::channel::Sender<StagedMsg>,
    recs: OperatorOutput,
    records_out: &mut u64,
) -> bool {
    if recs.is_empty() {
        return true;
    }
    *records_out += recs.len() as u64;
    tx.send(StagedMsg::Batch(recs)).is_ok()
}

/// The merge thread of a parallel stage: buffers each shard's output per
/// watermark epoch and, once all shards closed the epoch, re-emits inline
/// data in global input order (by sequence number), flush emissions in
/// key order, then the stage watermark (min over shards). Snapshots merge
/// into one key-group framed stage snapshot attached to the barrier.
fn run_parallel_merge(
    n: usize,
    rx: crossbeam::channel::Receiver<MergeMsg>,
    barrier_rx: crossbeam::channel::Receiver<Box<BarrierState>>,
    tx: crossbeam::channel::Sender<StagedMsg>,
    key_cols: Vec<String>,
) -> (u64, Option<Error>) {
    let mut records_out = 0u64;
    let mut err = None;
    // per shard: data of the open epoch, plus closed-but-unmerged epochs
    let mut cur: Vec<Vec<(u64, u32, Arc<Record>)>> = (0..n).map(|_| Vec::new()).collect();
    type Epoch = (Timestamp, Vec<(u64, u32, Arc<Record>)>, OperatorOutput);
    let mut done: Vec<VecDeque<Epoch>> = (0..n).map(|_| VecDeque::new()).collect();
    let mut parts: BTreeMap<u64, Vec<Option<Bytes>>> = BTreeMap::new();
    'recv: while let Ok(msg) = rx.recv() {
        match msg {
            MergeMsg::Data(s, mut v) => cur[s].append(&mut v),
            MergeMsg::Flush(s, wm, flushed) => {
                let data = std::mem::take(&mut cur[s]);
                done[s].push_back((wm, data, flushed));
                while done.iter().all(|q| !q.is_empty()) {
                    let mut epoch_data: Vec<(u64, u32, Arc<Record>)> = Vec::new();
                    let mut epoch_flush = OperatorOutput::new();
                    let mut wm_min = Timestamp::MAX;
                    for (w, d, f) in done.iter_mut().filter_map(VecDeque::pop_front) {
                        wm_min = wm_min.min(w);
                        epoch_data.extend(d);
                        epoch_flush.extend(f);
                    }
                    epoch_data.sort_by_key(|(seq, sub, _)| (*seq, *sub));
                    let inline = epoch_data.into_iter().map(|(_, _, r)| r).collect();
                    if !send_merge_out(&tx, inline, &mut records_out) {
                        break 'recv;
                    }
                    epoch_flush.sort_by_cached_key(|r| flush_sort_key(r, &key_cols));
                    if !send_merge_out(&tx, epoch_flush, &mut records_out) {
                        break 'recv;
                    }
                    if tx.send(StagedMsg::Watermark(wm_min)).is_err() {
                        break 'recv;
                    }
                }
            }
            MergeMsg::Snapshot(s, id, bytes) => {
                let entry = parts.entry(id).or_insert_with(|| vec![None; n]);
                entry[s] = Some(bytes);
                if entry.iter().all(Option::is_some) {
                    let ready = parts.remove(&id).into_iter().flatten().flatten();
                    // FIFO per shard means barriers complete in id order,
                    // and the router enqueued this barrier before any of
                    // its snapshot requests — recv cannot block forever
                    let mut b = match barrier_rx.recv() {
                        Ok(b) => b,
                        Err(_) => break,
                    };
                    debug_assert_eq!(b.id, id, "barriers complete in order");
                    let decoded: Result<Vec<KeyedSnapshot>> =
                        ready.map(KeyedSnapshot::decode).collect();
                    match decoded {
                        Ok(shard_snaps) => {
                            b.snapshots.push(KeyedSnapshot::merge(shard_snaps).encode());
                            if tx.send(StagedMsg::Barrier(b)).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
            }
        }
    }
    (records_out, err)
}

/// One serial operator stage (the classic staged-runtime thread body).
fn run_serial_stage(
    mut op: Box<dyn Operator>,
    rx: crossbeam::channel::Receiver<StagedMsg>,
    tx: crossbeam::channel::Sender<StagedMsg>,
    chaos: Option<Chaos>,
) -> (StageStats, Option<Error>) {
    let mut st = StageStats {
        stage: op.name().to_string(),
        operators: op.operator_names(),
        ..StageStats::default()
    };
    let mut err = None;
    let mut buf = OperatorOutput::new();
    // emissions travel as one batch; `false` = downstream is gone
    let emit = |buf: &mut OperatorOutput, st: &mut StageStats| {
        if buf.is_empty() {
            return true;
        }
        st.records_out += buf.len() as u64;
        // the next emission is likely as long: one allocation, no regrowth
        let batch = std::mem::replace(buf, Vec::with_capacity(buf.len()));
        tx.send(StagedMsg::Batch(batch)).is_ok()
    };
    while let Ok(msg) = rx.recv() {
        match msg {
            StagedMsg::Batch(batch) => {
                st.records_in += batch.len() as u64;
                st.batches_in += 1;
                let res = process_fault(chaos.as_ref(), batch.len())
                    .and_then(|_| op.process_batch(&batch, &mut buf));
                if let Err(e) = res {
                    err = Some(e);
                    break;
                }
                if !emit(&mut buf, &mut st) {
                    break;
                }
            }
            StagedMsg::Watermark(wm) => {
                op.on_watermark(wm, &mut buf);
                st.peak_state_bytes = st.peak_state_bytes.max(op.memory_bytes());
                if !emit(&mut buf, &mut st) || tx.send(StagedMsg::Watermark(wm)).is_err() {
                    break;
                }
            }
            StagedMsg::Barrier(mut b) => {
                b.snapshots.push(op.snapshot());
                if tx.send(StagedMsg::Barrier(b)).is_err() {
                    break;
                }
            }
        }
    }
    st.late_dropped = op.late_dropped();
    (st, err)
}

/// Run a job until its source is exhausted (or a [`RescaleHandle`] stops
/// it at a barrier): multi-threaded execution with micro-batching,
/// operator chaining and aligned checkpoint barriers, per `config`.
pub fn run_staged_with(mut job: Job, config: &StagedConfig) -> Result<JobRunStats> {
    let start = std::time::Instant::now();
    let mut stats = JobRunStats::default();
    if config.fuse_operators {
        job.operators = crate::operator::fuse_stateless(std::mem::take(&mut job.operators));
    }

    // expand sharded operators into router+shards+merge entries — after
    // fusion, so shard specs on unfusable stateful ops are still visible
    let mut plan = build_stage_plan(std::mem::take(&mut job.operators))?;

    // recovery — against the plan, so snapshot slots line up with the
    // topology the barriers will capture (one slot per plan entry, stable
    // across parallelism changes)
    let mut next_checkpoint_id = 1u64;
    if let Some(cs) = &config.checkpoint_store {
        if let Some(ckpt) = cs.latest(&job.name)? {
            job.source.seek(&ckpt.source_position)?;
            for (entry, state) in plan.iter_mut().zip(&ckpt.operator_state) {
                if !state.is_empty() {
                    entry.restore(state.clone())?;
                }
            }
            stats.records_in = ckpt.records_in;
            stats.restored_from_checkpoint = Some(ckpt.checkpoint_id);
            next_checkpoint_id = ckpt.checkpoint_id + 1;
        }
    }

    let batch_size = config.batch_size.max(1);
    let checkpointing = config.checkpoint_interval > 0 && config.checkpoint_store.is_some();
    let n_stages = plan.len();
    let mut senders = Vec::with_capacity(n_stages + 1);
    let mut receivers = Vec::with_capacity(n_stages + 1);
    for _ in 0..=n_stages {
        let (tx, rx) = crossbeam::channel::bounded::<StagedMsg>(config.channel_capacity.max(1));
        senders.push(tx);
        receivers.push(rx);
    }
    let records_out = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let checkpoints_taken = Arc::new(std::sync::atomic::AtomicU64::new(0));

    // pair stages with their channels before any thread exists, so a
    // topology mismatch is an error on this thread — never a panicking
    // worker wedging the scope
    if receivers.len() != n_stages + 1 {
        return Err(Error::Internal(format!(
            "staged topology mismatch: {} channels for {n_stages} stages",
            receivers.len()
        )));
    }
    let sink_rx = receivers
        .pop()
        .ok_or_else(|| Error::Internal("staged topology missing sink channel".into()))?;
    let stage_inputs: Vec<(StagePlan, crossbeam::channel::Receiver<StagedMsg>)> =
        plan.drain(..).zip(receivers).collect();

    // handles of one spawned plan entry (lifetime = the thread scope)
    enum Spawned<'s> {
        Serial(std::thread::ScopedJoinHandle<'s, (StageStats, Option<Error>)>),
        Parallel {
            name: String,
            operators: Vec<String>,
            router: std::thread::ScopedJoinHandle<'s, RouterOutcome>,
            shards: Vec<std::thread::ScopedJoinHandle<'s, (ShardStats, Option<Error>)>>,
            merge: std::thread::ScopedJoinHandle<'s, (u64, Option<Error>)>,
        },
    }

    let (pump_res, stage_outcomes, sink_err) = std::thread::scope(|scope| {
        // operator stages
        let mut handles = Vec::with_capacity(n_stages);
        for (i, (entry, rx)) in stage_inputs.into_iter().enumerate() {
            let tx = senders[i + 1].clone();
            let chaos = (i == 0).then(|| config.chaos.clone());
            match entry {
                StagePlan::Serial(op) => {
                    handles.push(Spawned::Serial(
                        scope.spawn(move || run_serial_stage(op, rx, tx, chaos)),
                    ));
                }
                StagePlan::Parallel {
                    shards,
                    spec,
                    name,
                    operators,
                } => {
                    let n = shards.len();
                    let cap = config.channel_capacity.max(1);
                    let mut shard_txs = Vec::with_capacity(n);
                    let mut shard_rxs = Vec::with_capacity(n);
                    for _ in 0..n {
                        let (stx, srx) = crossbeam::channel::bounded::<ShardMsg>(cap);
                        shard_txs.push(stx);
                        shard_rxs.push(srx);
                    }
                    let (merge_tx, merge_rx) = crossbeam::channel::bounded::<MergeMsg>(cap.max(n));
                    let (barrier_tx, barrier_rx) =
                        crossbeam::channel::bounded::<Box<BarrierState>>(cap);
                    let key_cols = spec.key_cols.clone();
                    let router = scope
                        .spawn(move || run_parallel_router(rx, shard_txs, barrier_tx, spec, chaos));
                    let shard_handles: Vec<_> = shards
                        .into_iter()
                        .zip(shard_rxs)
                        .enumerate()
                        .map(|(idx, (op, srx))| {
                            let mtx = merge_tx.clone();
                            scope.spawn(move || run_parallel_shard(idx, op, srx, mtx))
                        })
                        .collect();
                    drop(merge_tx); // merge ends when every shard exits
                    let merge = scope
                        .spawn(move || run_parallel_merge(n, merge_rx, barrier_rx, tx, key_cols));
                    handles.push(Spawned::Parallel {
                        name,
                        operators,
                        router,
                        shards: shard_handles,
                        merge,
                    });
                }
            }
        }

        // sink stage
        let out_counter = records_out.clone();
        let ckpt_counter = checkpoints_taken.clone();
        let mut sink = job.sink;
        let job_name = job.name.clone();
        let store = config.checkpoint_store.clone();
        let sink_handle = scope.spawn(move || -> Option<Error> {
            let mut err = None;
            while let Ok(msg) = sink_rx.recv() {
                match msg {
                    StagedMsg::Batch(batch) => {
                        let n = batch.len() as u64;
                        if let Err(e) = sink.write_batch(batch) {
                            err = Some(e);
                            break;
                        }
                        out_counter.fetch_add(n, Ordering::Relaxed);
                    }
                    StagedMsg::Watermark(_) => {}
                    StagedMsg::Barrier(b) => {
                        if let Some(cs) = &store {
                            let b = *b;
                            let res = sink.flush().and_then(|_| {
                                cs.persist(
                                    &job_name,
                                    &CheckpointData {
                                        checkpoint_id: b.id,
                                        source_position: b.source_position,
                                        operator_state: b.snapshots,
                                        records_in: b.records_in,
                                    },
                                )
                            });
                            if let Err(e) = res {
                                err = Some(e);
                                break;
                            }
                            ckpt_counter.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            if err.is_none() {
                if let Err(e) = sink.flush() {
                    err = Some(e);
                }
            }
            err
        });

        // source pump on this thread
        let tx0 = senders.remove(0);
        drop(senders); // stages own their senders via clone
        let mut wm_gen = WatermarkGenerator::new(job.max_out_of_orderness);
        let mut since_checkpoint = 0u64;
        let mut pending: Vec<Arc<Record>> = Vec::with_capacity(batch_size);
        let source = &mut job.source;
        let interval = config.checkpoint_interval;
        let records_in = &mut stats.records_in;
        let stopped_at = &mut stats.stopped_at_checkpoint;
        let rescale = config.rescale.clone();
        let pump_res = {
            let mut pump = || -> Result<()> {
                let send_err = |_| Error::Internal("stage died".into());
                loop {
                    // cap the poll so a due barrier lands exactly at a poll
                    // boundary: source.position() then describes precisely the
                    // records ahead of the barrier
                    let mut want = 512.max(batch_size);
                    if checkpointing {
                        want = want.min((interval - since_checkpoint).max(1) as usize);
                    }
                    let batch = source.poll_batch(want)?;
                    if batch.is_empty() {
                        if source.is_exhausted() {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    for rec in batch {
                        wm_gen.observe(rec.timestamp);
                        *records_in += 1;
                        since_checkpoint += 1;
                        // a channel-hop fault surfaces exactly like a dead stage
                        config.chaos.check(FaultPoint::ComputeChannel)?;
                        pending.push(rec);
                        if pending.len() >= batch_size {
                            let full =
                                std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
                            tx0.send(StagedMsg::Batch(full)).map_err(send_err)?;
                        }
                    }
                    // linger flush: watermarks/barriers never pass records
                    if !pending.is_empty() {
                        let partial =
                            std::mem::replace(&mut pending, Vec::with_capacity(batch_size));
                        tx0.send(StagedMsg::Batch(partial)).map_err(send_err)?;
                    }
                    tx0.send(StagedMsg::Watermark(wm_gen.current()))
                        .map_err(send_err)?;
                    if checkpointing && since_checkpoint >= interval {
                        tx0.send(StagedMsg::Barrier(Box::new(BarrierState {
                            id: next_checkpoint_id,
                            source_position: source.position(),
                            records_in: *records_in,
                            snapshots: Vec::new(),
                        })))
                        .map_err(send_err)?;
                        next_checkpoint_id += 1;
                        since_checkpoint = 0;
                        // cooperative rescale: stop cleanly right at this
                        // barrier — open windows live in the checkpoint,
                        // so the restart (at any parallelism) loses and
                        // duplicates nothing. Skips the final MAX
                        // watermark on purpose.
                        if rescale.as_ref().is_some_and(|h| h.is_requested()) {
                            *stopped_at = Some(next_checkpoint_id - 1);
                            return Ok(());
                        }
                    }
                }
                if !pending.is_empty() {
                    let partial = std::mem::take(&mut pending);
                    tx0.send(StagedMsg::Batch(partial)).map_err(send_err)?;
                }
                tx0.send(StagedMsg::Watermark(Timestamp::MAX))
                    .map_err(send_err)?;
                Ok(())
            };
            pump()
        };
        drop(tx0);

        let stage_outcomes: Vec<(StageStats, Option<Error>)> = handles
            .into_iter()
            .map(|h| match h {
                Spawned::Serial(h) => h.join().unwrap_or_else(|_| {
                    (
                        StageStats::default(),
                        Some(Error::Internal("stage panicked".into())),
                    )
                }),
                Spawned::Parallel {
                    name,
                    operators,
                    router,
                    shards,
                    merge,
                } => {
                    let mut st = StageStats {
                        stage: name,
                        operators,
                        ..StageStats::default()
                    };
                    let mut router_out = router.join().unwrap_or_else(|_| RouterOutcome {
                        err: Some(Error::Internal("router panicked".into())),
                        ..RouterOutcome::default()
                    });
                    let mut err = router_out.err.take();
                    st.records_in = router_out.records_in;
                    st.batches_in = router_out.batches_in;
                    for (idx, sh) in shards.into_iter().enumerate() {
                        let (mut sst, serr) = sh.join().unwrap_or_else(|_| {
                            (
                                ShardStats::default(),
                                Some(Error::Internal("shard panicked".into())),
                            )
                        });
                        sst.max_queue_depth = router_out.max_depth.get(idx).copied().unwrap_or(0);
                        st.late_dropped += sst.late_dropped;
                        st.peak_state_bytes += sst.peak_state_bytes;
                        if err.is_none() {
                            err = serr;
                        }
                        st.shards.push(sst);
                    }
                    let (merged_out, merr) = merge
                        .join()
                        .unwrap_or_else(|_| (0, Some(Error::Internal("merge panicked".into()))));
                    st.records_out = merged_out;
                    if err.is_none() {
                        err = merr;
                    }
                    (st, err)
                }
            })
            .collect();
        let sink_err = sink_handle
            .join()
            .unwrap_or_else(|_| Some(Error::Internal("sink panicked".into())));
        (pump_res, stage_outcomes, sink_err)
    });

    // error precedence: a stage's own failure is the root cause — the
    // pump's "stage died" send error is only its symptom
    let mut stage_stats = Vec::with_capacity(stage_outcomes.len());
    let mut first_stage_err = None;
    for (st, err) in stage_outcomes {
        if first_stage_err.is_none() {
            first_stage_err = err;
        }
        stage_stats.push(st);
    }
    if let Some(e) = first_stage_err {
        return Err(e);
    }
    if let Some(e) = sink_err {
        return Err(e);
    }
    pump_res?;

    stats.peak_state_bytes = stage_stats.iter().map(|s| s.peak_state_bytes).sum();
    stats.stages = stage_stats;
    stats.records_out = records_out.load(Ordering::Relaxed);
    stats.checkpoints_taken = checkpoints_taken.load(Ordering::Relaxed);
    stats.elapsed = start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{FilterOp, MapOp, WindowAggregateOp};
    use crate::reference::run_reference;
    use crate::sink::CollectSink;
    use crate::source::VecSource;
    use crate::window::WindowAssigner;
    use rtdi_common::chaos::{FaultKind, FaultPlan, Trigger};
    use rtdi_common::AggFn;
    use rtdi_common::Row;
    use rtdi_storage::object::InMemoryStore;

    fn trip_rows(n: usize) -> Vec<(Timestamp, Row)> {
        (0..n)
            .map(|i| {
                (
                    (i as i64) * 100,
                    Row::new()
                        .with("city", if i % 2 == 0 { "sf" } else { "la" })
                        .with("fare", 10.0 + i as f64),
                )
            })
            .collect()
    }

    fn window_count_job(name: &str, rows: Vec<(Timestamp, Row)>, sink: CollectSink) -> Job {
        Job::new(
            name,
            Box::new(VecSource::from_rows(rows)),
            vec![
                Box::new(FilterOp::new("nonneg", |r: &Row| {
                    r.get_double("fare").unwrap_or(0.0) >= 0.0
                })),
                Box::new(WindowAggregateOp::new(
                    "agg",
                    vec!["city".into()],
                    WindowAssigner::tumbling(1000),
                    vec![
                        ("trips".into(), AggFn::Count),
                        ("total".into(), AggFn::Sum("fare".into())),
                    ],
                    0,
                )),
            ],
            Box::new(sink),
        )
    }

    #[test]
    fn bounded_run_emits_all_windows() {
        let sink = CollectSink::new();
        let job = window_count_job("j", trip_rows(100), sink.clone());
        let stats = run_staged_with(job, &StagedConfig::default()).unwrap();
        assert_eq!(stats.records_in, 100);
        let total: i64 = sink
            .rows()
            .iter()
            .map(|r| r.get_int("trips").unwrap())
            .sum();
        assert_eq!(total, 100);
        // 100 records at 100ms spacing = 10s -> 10 windows x 2 cities
        assert_eq!(sink.len(), 20);
        assert!(stats.peak_state_bytes > 0);
    }

    #[test]
    fn chained_map_runs() {
        let sink = CollectSink::new();
        let job = Job::new(
            "m",
            Box::new(VecSource::from_rows(trip_rows(10))),
            vec![Box::new(MapOp::new("tag", |r: &Row| {
                let mut out = r.clone();
                out.push("tagged", true);
                out
            }))],
            Box::new(sink.clone()),
        );
        let stats = run_staged_with(job, &StagedConfig::default()).unwrap();
        assert_eq!(stats.records_out, 10);
        assert!(sink.rows().iter().all(|r| r.get("tagged").is_some()));
        assert_eq!(stats.peak_state_bytes, 0, "a stateless job holds no state");
    }

    #[test]
    fn checkpoint_and_recover_produces_identical_results() {
        let chaos = Chaos::seeded(0xC0FFEE);
        let cs = CheckpointStore::new(Arc::new(InMemoryStore::new()));
        let config = StagedConfig {
            checkpoint_interval: 30,
            checkpoint_store: Some(cs),
            chaos: chaos.clone(),
            ..StagedConfig::batched(8, 10)
        };
        // the sharded aggregate is the only operator, so the router is the
        // first plan entry: the thread that owns the compute.process site
        let job = |name: &str, sink: &CollectSink| {
            let mut job = parallel_window_job(name, trip_rows(100), sink.clone(), 2);
            job.operators.remove(0);
            job
        };

        // baseline: uninterrupted run
        let baseline_sink = CollectSink::new();
        run_staged_with(job("base", &baseline_sink), &StagedConfig::default()).unwrap();

        // crash run: the compute.process fault point hard-fails the 59th
        // source record (after the checkpoint at 30 records)
        chaos.arm(
            FaultPoint::ComputeProcess,
            FaultPlan::fail(FaultKind::ProcessingFailed, Trigger::Always).with_burst(58, None),
        );
        let crash_sink = CollectSink::new();
        let err = run_staged_with(job("ckpt-job", &crash_sink), &config);
        assert!(matches!(err, Err(Error::ProcessingFailed(_))));
        // one check per source record, from one thread: 59 hits, 1 fire
        assert_eq!(chaos.stats(FaultPoint::ComputeProcess), (59, 1));
        chaos.disarm(FaultPoint::ComputeProcess);

        // recovery run: fresh job instance restores from the checkpoint and
        // keeps writing into the SAME sink (at-least-once to the sink,
        // exactly-once for state)
        let stats = run_staged_with(job("ckpt-job", &crash_sink), &config).unwrap();
        assert_eq!(stats.restored_from_checkpoint, Some(1));

        // after deduplication (window contents are deterministic, so
        // replayed emissions are byte-identical), results match the
        // uninterrupted baseline exactly
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| {
                (
                    r.get_str("city").unwrap().to_string(),
                    r.get_int("window_start").unwrap(),
                )
            });
            rows.dedup();
            rows
        };
        assert_eq!(canon(baseline_sink.rows()), canon(crash_sink.rows()));
    }

    #[test]
    fn checkpoint_store_roundtrip() {
        let cs = CheckpointStore::new(Arc::new(InMemoryStore::new()));
        assert!(cs.latest("j").unwrap().is_none());
        let data = CheckpointData {
            checkpoint_id: 3,
            source_position: vec![10, 20],
            operator_state: vec![Bytes::from_static(b"abc"), Bytes::new()],
            records_in: 30,
        };
        cs.persist("j", &data).unwrap();
        assert_eq!(cs.latest("j").unwrap().unwrap(), data);
        let newer = CheckpointData {
            checkpoint_id: 4,
            ..data.clone()
        };
        cs.persist("j", &newer).unwrap();
        assert_eq!(cs.latest("j").unwrap().unwrap().checkpoint_id, 4);
    }

    #[test]
    fn checkpoint_store_retains_last_n() {
        let store = Arc::new(InMemoryStore::new());
        let cs = CheckpointStore::new(store.clone()).with_retain(2);
        for id in 1..=5 {
            cs.persist(
                "j",
                &CheckpointData {
                    checkpoint_id: id,
                    source_position: vec![id * 10],
                    operator_state: vec![],
                    records_in: id,
                },
            )
            .unwrap();
        }
        let keys = store.list("checkpoints/j/").unwrap();
        assert_eq!(keys.len(), 2, "older checkpoints pruned: {keys:?}");
        assert_eq!(cs.latest("j").unwrap().unwrap().checkpoint_id, 5);
    }

    #[test]
    fn corrupt_latest_checkpoint_falls_back_to_previous() {
        let store = Arc::new(InMemoryStore::new());
        let cs = CheckpointStore::new(store.clone());
        for id in 1..=3 {
            cs.persist(
                "j",
                &CheckpointData {
                    checkpoint_id: id,
                    source_position: vec![id * 100],
                    operator_state: vec![Bytes::from_static(b"state")],
                    records_in: id,
                },
            )
            .unwrap();
        }
        // damage the newest object: truncate it mid-header
        let keys = store.list("checkpoints/j/").unwrap();
        let newest = keys.last().unwrap().clone();
        let bytes = store.get(&newest).unwrap();
        store.put(&newest, bytes.slice(0..7)).unwrap();
        // recovery degrades to checkpoint 2 instead of failing outright
        let recovered = cs.latest("j").unwrap().unwrap();
        assert_eq!(recovered.checkpoint_id, 2);
        assert_eq!(recovered.source_position, vec![200]);

        // bit-flip damage (bogus element counts) is also contained
        let second = keys[keys.len() - 2].clone();
        let mut raw = store.get(&second).unwrap().to_vec();
        raw[16] = 0xFF; // position count explodes past the buffer
        store.put(&second, bytes::Bytes::from(raw)).unwrap();
        let recovered = cs.latest("j").unwrap().unwrap();
        assert_eq!(recovered.checkpoint_id, 1);

        // every retained checkpoint damaged -> Corruption surfaces
        for k in store.list("checkpoints/j/").unwrap() {
            store.put(&k, Bytes::from_static(b"xx")).unwrap();
        }
        assert!(matches!(cs.latest("j"), Err(Error::Corruption(_))));
    }

    #[test]
    fn staged_run_matches_single_threaded() {
        let sink = CollectSink::new();
        let job = window_count_job("staged", trip_rows(1000), sink.clone());
        let stats = run_staged_with(job, &StagedConfig::default()).unwrap();
        assert_eq!(stats.records_in, 1000);
        let oracle = CollectSink::new();
        run_reference(window_count_job("oracle", trip_rows(1000), oracle.clone())).unwrap();
        assert_eq!(sink.records(), oracle.records());
    }

    #[test]
    fn staged_run_surfaces_channel_faults_and_recovers_when_disarmed() {
        let chaos = Chaos::seeded(0xC4A7);
        chaos.arm(
            FaultPoint::ComputeChannel,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(100, None),
        );
        let sink = CollectSink::new();
        let job = window_count_job("chan-fault", trip_rows(1000), sink.clone());
        // the injected channel-hop fault kills the run like a dead stage
        let cfg = StagedConfig {
            chaos: chaos.clone(),
            ..StagedConfig::default()
        };
        assert!(matches!(
            run_staged_with(job, &cfg),
            Err(Error::Unavailable(_))
        ));
        chaos.disarm(FaultPoint::ComputeChannel);
        // a fresh run with the fault cleared completes normally
        let sink = CollectSink::new();
        let job = window_count_job("chan-ok", trip_rows(1000), sink.clone());
        assert_eq!(run_staged_with(job, &cfg).unwrap().records_in, 1000);
        let total: i64 = sink
            .rows()
            .iter()
            .map(|r| r.get_int("trips").unwrap())
            .sum();
        assert_eq!(total, 1000);
    }

    fn four_stage_job(name: &str, rows: Vec<(Timestamp, Row)>, sink: CollectSink) -> Job {
        Job::new(
            name,
            Box::new(VecSource::from_rows(rows)),
            vec![
                Box::new(MapOp::new("tag", |r: &Row| {
                    let mut out = r.clone();
                    out.push("fare2", r.get_double("fare").unwrap_or(0.0) * 2.0);
                    out
                })),
                Box::new(FilterOp::new("nonneg", |r: &Row| {
                    r.get_double("fare").unwrap_or(0.0) >= 0.0
                })),
                Box::new(WindowAggregateOp::new(
                    "agg",
                    vec!["city".into()],
                    WindowAssigner::tumbling(1000),
                    vec![
                        ("trips".into(), AggFn::Count),
                        ("total2".into(), AggFn::Sum("fare2".into())),
                    ],
                    0,
                )),
                Box::new(MapOp::new("post", |r: &Row| {
                    let mut out = r.clone();
                    out.push(
                        "avg2",
                        r.get_double("total2").unwrap_or(0.0)
                            / r.get_int("trips").unwrap_or(1) as f64,
                    );
                    out
                })),
            ],
            Box::new(sink),
        )
    }

    #[test]
    fn staged_batched_fused_matches_reference_protocol() {
        let ref_sink = CollectSink::new();
        let ref_stats =
            run_reference(four_stage_job("ref", trip_rows(1000), ref_sink.clone())).unwrap();
        assert_eq!(ref_stats.stages.len(), 4, "reference runs unchained");
        for batch in [1usize, 2, 64, 256] {
            let sink = CollectSink::new();
            let stats = run_staged_with(
                four_stage_job("fused", trip_rows(1000), sink.clone()),
                &StagedConfig::batched(64, batch),
            )
            .unwrap();
            assert_eq!(stats.records_in, ref_stats.records_in);
            assert_eq!(stats.records_out, ref_stats.records_out);
            assert_eq!(sink.records(), ref_sink.records(), "batch={batch}");
            // chaining: map+filter fused; window and trailing map separate
            assert_eq!(stats.stages.len(), 3);
            assert_eq!(stats.stages[0].stage, "fused[tag->nonneg]");
            assert_eq!(stats.stages[0].operators, vec!["tag", "nonneg"]);
            assert_eq!(stats.stages[1].operators, vec!["agg"]);
            // batching: far fewer channel messages than records
            assert!(
                stats.stages[0].batches_in * batch as u64 >= stats.stages[0].records_in,
                "batches carry up to batch_size records"
            );
            if batch >= 64 {
                assert!(
                    stats.stages[0].batches_in < stats.stages[0].records_in / 8,
                    "hop amortization: {} msgs for {} records",
                    stats.stages[0].batches_in,
                    stats.stages[0].records_in
                );
            }
        }
    }

    #[test]
    fn barrier_mid_batch_checkpoints_exactly_the_records_before_it() {
        let chaos = Chaos::seeded(0xBA881E);
        let store = Arc::new(InMemoryStore::new());
        let cs = CheckpointStore::new(store);
        // interval 130 is deliberately not a multiple of batch_size 64, so
        // every barrier lands mid-micro-batch (after a partial flush of 2)
        let cfg = StagedConfig {
            checkpoint_interval: 130,
            checkpoint_store: Some(cs.clone()),
            chaos: chaos.clone(),
            ..StagedConfig::batched(8, 64)
        };

        // baseline: uninterrupted run, no checkpoints
        let baseline_sink = CollectSink::new();
        run_staged_with(
            window_count_job("base", trip_rows(1000), baseline_sink.clone()),
            &StagedConfig::batched(8, 64),
        )
        .unwrap();

        // crash run: channel-hop fault fires once at the 701st record
        chaos.arm(
            FaultPoint::ComputeChannel,
            FaultPlan::fail(FaultKind::Unavailable, Trigger::Always).with_burst(700, Some(1)),
        );
        let sink = CollectSink::new();
        let job = window_count_job("mid-batch", trip_rows(1000), sink.clone());
        assert!(matches!(
            run_staged_with(job, &cfg),
            Err(Error::Unavailable(_))
        ));
        // the surviving checkpoint covers exactly the 5 full intervals
        // before the crash — not the records of any in-flight batch
        let ckpt = cs.latest("mid-batch").unwrap().expect("checkpoints taken");
        assert_eq!(ckpt.checkpoint_id, 5);
        assert_eq!(ckpt.records_in, 650);
        assert_eq!(ckpt.source_position, vec![650]);

        // recovery run: restores the mid-stream cut and completes
        let job = window_count_job("mid-batch", trip_rows(1000), sink.clone());
        let stats = run_staged_with(job, &cfg).unwrap();
        assert_eq!(stats.restored_from_checkpoint, Some(5));
        assert_eq!(stats.records_in, 1000);
        assert!(stats.checkpoints_taken >= 2);

        // exactly-once state: deduplicated replayed output matches the
        // uninterrupted baseline byte for byte
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| {
                (
                    r.get_str("city").unwrap().to_string(),
                    r.get_int("window_start").unwrap(),
                )
            });
            rows.dedup();
            rows
        };
        assert_eq!(canon(baseline_sink.rows()), canon(sink.rows()));
    }

    fn parallel_window_job(
        name: &str,
        rows: Vec<(Timestamp, Row)>,
        sink: CollectSink,
        parallelism: usize,
    ) -> Job {
        Job::new(
            name,
            Box::new(VecSource::from_rows(rows)),
            vec![
                Box::new(FilterOp::new("nonneg", |r: &Row| {
                    r.get_double("fare").unwrap_or(0.0) >= 0.0
                })),
                Box::new(
                    WindowAggregateOp::new(
                        "agg",
                        vec!["city".into()],
                        WindowAssigner::tumbling(1000),
                        vec![
                            ("trips".into(), AggFn::Count),
                            ("total".into(), AggFn::Sum("fare".into())),
                        ],
                        0,
                    )
                    .with_parallelism(parallelism),
                ),
            ],
            Box::new(sink),
        )
    }

    #[test]
    fn parallel_stage_output_matches_serial_exactly() {
        let serial_sink = CollectSink::new();
        run_staged_with(
            window_count_job("ser", trip_rows(1000), serial_sink.clone()),
            &StagedConfig::batched(16, 32),
        )
        .unwrap();
        for p in [2usize, 4] {
            let sink = CollectSink::new();
            let stats = run_staged_with(
                parallel_window_job("par", trip_rows(1000), sink.clone(), p),
                &StagedConfig::batched(16, 32),
            )
            .unwrap();
            assert_eq!(sink.records(), serial_sink.records(), "parallelism {p}");
            let stage = stats
                .stages
                .iter()
                .find(|s| s.stage.starts_with("agg[x"))
                .expect("parallel stage present");
            assert_eq!(stage.shards.len(), p);
            assert_eq!(stage.records_in, 1000);
            let sharded_in: u64 = stage.shards.iter().map(|s| s.records_in).sum();
            assert_eq!(sharded_in, 1000, "router partitions every record");
        }
    }

    #[test]
    fn rescale_stop_at_barrier_then_resume_is_exactly_once() {
        let store = Arc::new(InMemoryStore::new());
        let cs = CheckpointStore::new(store);
        let handle = RescaleHandle::new();
        handle.request(); // stop at the very first checkpoint boundary
        let mut cfg = StagedConfig::batched(8, 32);
        cfg.checkpoint_interval = 150;
        cfg.checkpoint_store = Some(cs.clone());
        cfg.rescale = Some(handle.clone());

        let base_sink = CollectSink::new();
        run_staged_with(
            parallel_window_job("base", trip_rows(600), base_sink.clone(), 2),
            &StagedConfig::batched(8, 32),
        )
        .unwrap();

        let sink = CollectSink::new();
        let stats = run_staged_with(
            parallel_window_job("rescale", trip_rows(600), sink.clone(), 2),
            &cfg,
        )
        .unwrap();
        assert_eq!(stats.stopped_at_checkpoint, Some(1));
        assert_eq!(stats.records_in, 150, "stopped exactly at the barrier cut");

        // resume at doubled parallelism into the same sink — key-group
        // frames redistribute, open windows keep accumulating
        cfg.rescale = None;
        let stats2 = run_staged_with(
            parallel_window_job("rescale", trip_rows(600), sink.clone(), 4),
            &cfg,
        )
        .unwrap();
        assert_eq!(stats2.restored_from_checkpoint, Some(1));
        assert_eq!(stats2.records_in, 600);

        // exactly-once: sorted (NOT deduplicated) outputs match — nothing
        // lost across the rescale, nothing emitted twice
        let canon = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| {
                (
                    r.get_str("city").unwrap().to_string(),
                    r.get_int("window_start").unwrap(),
                )
            });
            rows
        };
        assert_eq!(canon(base_sink.rows()), canon(sink.rows()));
    }

    #[test]
    fn staged_run_with_tiny_buffers_still_completes() {
        // capacity-1 channels carrying batches of one exercise full
        // backpressure blocking
        let sink = CollectSink::new();
        let job = window_count_job("tiny", trip_rows(200), sink.clone());
        let cfg = StagedConfig {
            fuse_operators: false,
            ..StagedConfig::batched(1, 1)
        };
        let stats = run_staged_with(job, &cfg).unwrap();
        assert_eq!(stats.records_in, 200);
        let total: i64 = sink
            .rows()
            .iter()
            .map(|r| r.get_int("trips").unwrap())
            .sum();
        assert_eq!(total, 200);
    }
}
