//! Parallel wave execution with deterministic commit.
//!
//! The driver schedules work in *waves*: every planning pass yields the
//! set of ready tasks, whose real-data materialization (lineage
//! recomputation, shuffle-bucket fetches, checkpoint serialization) is
//! the expensive part of a simulated run. This module computes those
//! results on a pool of scoped host threads while keeping the simulation
//! bit-for-bit deterministic:
//!
//! * **Compute phase (parallel, pure).** Each task runs
//!   [`compute_task`]/[`compute_ckpt`] against an immutable [`WaveCtx`]
//!   snapshot of the lineage, cluster caches, checkpoint store, and cost
//!   model. Nothing is mutated; every would-be side effect (LRU bumps,
//!   cache inserts, stat deltas, resolved range partitioners) is
//!   *recorded* in the returned [`TaskOutput`]. Durations that depend on
//!   the executing worker (network fetches) are recorded as
//!   [`NetFetch`]es and priced later.
//! * **Commit phase (sequential, ordered).** The driver admits outputs
//!   in fixed task-key order on its own thread: it picks the worker,
//!   prices network time, applies the recorded effects, and reserves a
//!   core. Because admission order, worker choice, and every mutation are
//!   independent of how the compute phase was scheduled, any
//!   `host_threads` setting produces identical results, stats, and
//!   virtual-time trajectories.
//!
//! Compared to the previous depth-first in-place materializer, tasks in
//! the same wave read the wave-start snapshot rather than each other's
//! incidental cache inserts. Results are unchanged (closures are pure and
//! sampling is seed-keyed); only modeled durations can differ from the
//! old sequential interleaving, and they remain identical across thread
//! counts.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use flint_simtime::{SimDuration, SimTime};
use flint_trace::EventKind;

use crate::block::{BlockData, BlockKey, BlockLocation};
use crate::checkpoint::{wire_size, CheckpointStore, ReadFault};
use crate::cluster::{Cluster, WorkerId};
use crate::column::{typed_agg, typed_group, typed_sort_by_key, Column, ColumnBatch, OpKernel};
use crate::cost::CostModel;
use crate::driver::{CkptJob, MissingShuffle, TaskKey};
use crate::lineage::Lineage;
use crate::rdd::{PartitionData, RddId, RddOp};
use crate::shuffle::{
    scan_flat_bucket, Bucket, BucketedBlock, HashPartitioner, Partitioner, RangePartitioner,
    ShuffleId, ShuffleKind,
};
use crate::value::Value;

/// Immutable snapshot of everything a wave's tasks may read.
///
/// All fields are shared references, so the whole context is `Sync` and
/// can be borrowed by every host thread of a wave simultaneously.
pub(crate) struct WaveCtx<'a> {
    pub lineage: &'a Lineage,
    pub cluster: &'a Cluster,
    pub ckpt: &'a CheckpointStore,
    pub cost: &'a CostModel,
    pub computed_once: &'a HashSet<(RddId, u32)>,
    pub range_cache: &'a BTreeMap<ShuffleId, RangePartitioner>,
    /// Wave-start instant: the snapshot time every store-readability
    /// check in this wave is evaluated at. Planner and executor share
    /// it, so both sides agree on which checkpoints are restorable.
    pub now: SimTime,
    /// Whether a trace sink is attached. When false, tasks skip
    /// recording [`TaskOutput::events`] entirely, preserving the
    /// zero-overhead-when-disabled contract on the hot path.
    pub trace_enabled: bool,
    /// Whether vectorized kernels may run. Fixed at plan time from the
    /// driver config — never per wave — so the row and columnar paths
    /// produce byte-identical observables and either one can replay a
    /// pinned trace.
    pub columnar: bool,
}

// The wave executor shares the snapshot and task closures across scoped
// threads; this fails to compile if any engine type silently loses
// Send/Sync (e.g. an Rc or RefCell sneaking into the lineage).
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<WaveCtx<'static>>();
};

/// A block read whose network cost depends on the (not yet chosen)
/// executing worker: priced at admission, charged only if the source is
/// remote.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetFetch {
    pub source: WorkerId,
    pub vbytes: u64,
}

/// A deferred, ordered cache mutation recorded during the compute phase
/// and replayed at admission. Replaying in recorded order reproduces the
/// LRU stamp sequence a sequential execution of the task would have
/// produced.
#[derive(Debug, Clone)]
pub(crate) enum CacheEffect {
    /// Bump the LRU stamp of a block on the worker that held it.
    Touch(WorkerId, BlockKey),
    /// Bump a block inserted earlier by this same task (it lives on the
    /// executing worker, unknown during compute).
    TouchLocal(BlockKey),
    /// Insert a block into the executing worker's store. Carries the
    /// final block form (flat rows or a columnar batch) so re-reads see
    /// exactly what the producing task materialized.
    Insert(BlockKey, BlockData, u64),
}

/// A partition's in-flight payload during task compute: plain row
/// records or a typed columnar batch. Both forms decode to the same
/// record sequence and account identical real/virtual bytes, so every
/// duration and cache decision downstream is form-independent.
#[derive(Debug, Clone)]
pub(crate) enum PartData {
    /// Row records (the classic path).
    Rows(PartitionData),
    /// A typed columnar batch produced by a vectorized kernel.
    Col(Arc<ColumnBatch>),
}

impl PartData {
    /// The records in row form (decodes columnar batches).
    fn rows(&self) -> PartitionData {
        match self {
            PartData::Rows(d) => Arc::clone(d),
            PartData::Col(b) => Arc::new(b.to_rows()),
        }
    }

    /// Real payload size: `Σ size_bytes + 16` in either form —
    /// [`ColumnBatch::size_at`] mirrors `Value::size_bytes` exactly, so
    /// eviction order, τ estimation, and checkpoint accounting cannot
    /// tell the forms apart.
    fn real_bytes(&self) -> u64 {
        match self {
            PartData::Rows(d) => real_bytes(d),
            PartData::Col(b) => b.payload_bytes() + 16,
        }
    }

    /// The cache/block representation of this payload.
    fn to_block(&self) -> BlockData {
        match self {
            PartData::Rows(d) => BlockData::Flat(Arc::clone(d)),
            PartData::Col(b) => BlockData::Columnar(Arc::clone(b)),
        }
    }
}

/// Everything a task's parallel compute phase produced: the data, the
/// worker-independent duration, and a ledger of deferred mutations for
/// the driver to apply in task-key order.
pub(crate) struct TaskOutput {
    /// Final block payload (map-side combine applied; shuffle map
    /// outputs bucketed when their partitioner is known).
    pub data: BlockData,
    /// Virtual size of `data` under the cost model.
    pub vbytes: u64,
    /// Byte-exact serialized size (checkpoint tasks only, else 0).
    pub wire: u64,
    /// Source/compute/disk/durable-read time, independent of the
    /// executing worker.
    pub base_dur: SimDuration,
    /// Reads whose network time depends on the chosen worker.
    pub net: Vec<NetFetch>,
    /// Deferred cache mutations, in execution order.
    pub effects: Vec<CacheEffect>,
    /// Partition sizes computed along the chain (ancestors first).
    pub touched: Vec<(RddId, u32, u64)>,
    /// Partitions newly computed (for `computed_once` bookkeeping).
    pub computed: Vec<(RddId, u32)>,
    /// Range partitioners resolved during this task.
    pub resolved: Vec<(ShuffleId, RangePartitioner)>,
    /// For shuffle checkpoint jobs: the worker holding the map block.
    pub source: Option<WorkerId>,
    /// Checkpoint restores performed.
    pub restores: u64,
    /// Time spent in those restores.
    pub restore_time: SimDuration,
    /// Portion of `base_dur` that recomputed previously-materialized
    /// partitions.
    pub recompute_time: SimDuration,
    /// Trace events recorded during the parallel compute phase
    /// (restores, recomputation cascades). Buffered here — part of the
    /// effect ledger — and emitted by the driver at admission, in
    /// task-key order, so the trace stream is bit-identical for any
    /// `host_threads` setting. Empty when tracing is disabled.
    pub events: Vec<EventKind>,
}

/// Runs `f` over `items` on up to `host_threads` scoped threads, pulling
/// work from a shared atomic cursor. Results come back in input order, so
/// the caller's sequential commit loop is independent of scheduling.
/// `host_threads <= 1` degenerates to a plain in-order loop over the very
/// same function — the single- and multi-threaded paths cannot diverge.
pub(crate) fn run_wave<T, O, F>(host_threads: usize, items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let n_threads = host_threads.min(items.len());
    if n_threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, O)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("wave worker thread panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, o)| o).collect()
}

/// Computes one compute task (`Output` or `ShuffleMap`) against the wave
/// snapshot. Returns `None` when a required shuffle input vanished
/// between planning and execution (the driver replans).
pub(crate) fn compute_task(ctx: &WaveCtx<'_>, key: TaskKey) -> Option<TaskOutput> {
    let (rdd, part) = match key {
        TaskKey::Output { rdd, part } => (rdd, part),
        TaskKey::ShuffleMap { shuffle, map_part } => {
            (ctx.lineage.shuffle(shuffle).parent, map_part)
        }
        TaskKey::Ckpt(_) => unreachable!("checkpoint jobs use compute_ckpt"),
    };
    let mut b = TaskBuilder::new(ctx);
    let (data, mut vbytes, mut dur) = match b.materialize(rdd, part) {
        Ok(x) => x,
        Err(MissingShuffle) => return None,
    };
    // Bucket shuffle map outputs once, at materialization: one pass over
    // the records replaces the per-reduce-task O(N) scans. Hash shuffles
    // always know their partitioner; range shuffles stay flat until the
    // barrier resolves (and caches) the bounds, after which the driver
    // converts resident blocks in place and recomputed blocks take this
    // eager path. Batch-marked shuffles with a columnar payload combine
    // and bucket without ever decoding to rows; anything else falls back
    // to the row path with identical observables.
    let out: BlockData = match key {
        TaskKey::ShuffleMap { shuffle, .. } => {
            let combine = ctx.lineage.shuffle(shuffle).combine.clone();
            if let Some(bb) = columnar_map_output(ctx, shuffle, &data, combine.is_some()) {
                if combine.is_some() {
                    // Same pre-aggregation charge as the row path: input
                    // vbytes at factor 1.0, before the output resize.
                    dur += ctx.cost.compute_time(vbytes, 1.0);
                }
                vbytes = ctx.cost.vbytes(bb.payload_bytes() + 16);
                Arc::new(bb).into()
            } else {
                let mut rows = data.rows();
                // Map-side combine (Spark `reduceByKey` pre-aggregation).
                let mut combined_dirty = false;
                if let Some(combine) = combine {
                    dur += ctx.cost.compute_time(vbytes, 1.0);
                    let mut agg: BTreeMap<Value, Value> = BTreeMap::new();
                    let mut non_pairs: Vec<Value> = Vec::new();
                    for v in rows.iter() {
                        match v {
                            Value::Pair(p) => match agg.get_mut(p.key()) {
                                Some(acc) => *acc = combine(acc, p.val()),
                                None => {
                                    agg.insert(p.key().clone(), p.val().clone());
                                }
                            },
                            other => non_pairs.push(other.clone()),
                        }
                    }
                    let mut combined: Vec<Value> = Vec::with_capacity(agg.len() + non_pairs.len());
                    combined.extend(agg.into_iter().map(|(k, v)| Value::pair(k, v)));
                    combined.extend(non_pairs);
                    rows = Arc::new(combined);
                    combined_dirty = true;
                }
                match shuffle_map_partitioner(ctx, shuffle) {
                    Some(p) => {
                        let bb = BucketedBlock::partition(&rows, p.as_ref());
                        // Bucketing preserves the record multiset, so the
                        // virtual size is unchanged; the bucket walk
                        // already summed the payload bytes.
                        vbytes = ctx.cost.vbytes(bb.payload_bytes() + 16);
                        Arc::new(bb).into()
                    }
                    None => {
                        if combined_dirty {
                            vbytes = ctx.cost.vbytes(real_bytes(&rows));
                        }
                        rows.into()
                    }
                }
            }
        }
        _ => data.to_block(),
    };
    Some(b.finish(out, vbytes, 0, dur, None))
}

/// The fully-columnar map side of a batch-marked hash shuffle: typed
/// map-side combine (when the shuffle declares one) followed by columnar
/// hash bucketing, with zero row materialization. Returns `None` — row
/// fallback — when columnar execution is off, the shuffle is not batch
/// capable, the payload is already rows, or the batch shape defeats the
/// typed kernels. Range shuffles are never batch-marked, so their map
/// outputs stay flat exactly as before.
fn columnar_map_output(
    ctx: &WaveCtx<'_>,
    shuffle: ShuffleId,
    data: &PartData,
    has_combine: bool,
) -> Option<BucketedBlock> {
    if !ctx.columnar || !ctx.lineage.is_batch_shuffle(shuffle) {
        return None;
    }
    let PartData::Col(batch) = data else {
        return None;
    };
    let ShuffleKind::Hash { parts } = ctx.lineage.shuffle(shuffle).kind else {
        return None;
    };
    if has_combine {
        let kernel = ctx.lineage.agg_kernel(shuffle)?;
        // Typed combine needs the key/payload pair layout; scalar pair
        // encodings (whole-record keys) take the row path instead.
        let ColumnBatch::Pair { key, val } = batch.as_ref() else {
            return None;
        };
        let combined = typed_agg(kernel, &[(key, val.as_ref())])?;
        BucketedBlock::partition_columnar(&combined, parts)
    } else {
        BucketedBlock::partition_columnar(batch, parts)
    }
}

/// The partitioner a shuffle's map outputs should be bucketed with, if
/// it is already known: always for hash shuffles, only after barrier
/// resolution for range shuffles.
fn shuffle_map_partitioner(ctx: &WaveCtx<'_>, shuffle: ShuffleId) -> Option<Box<dyn Partitioner>> {
    match ctx.lineage.shuffle(shuffle).kind {
        ShuffleKind::Hash { parts } => Some(Box::new(HashPartitioner::new(parts))),
        ShuffleKind::Range { .. } => ctx
            .range_cache
            .get(&shuffle)
            .map(|rp| Box::new(rp.clone()) as Box<dyn Partitioner>),
    }
}

/// Computes one checkpoint job: materializes (or peeks) the payload and
/// runs the serialization walk on the wave thread. Returns `None` when
/// the payload is gone (vanished shuffle block or missing shuffle input)
/// and the job should be dropped silently, as the sequential path did.
pub(crate) fn compute_ckpt(ctx: &WaveCtx<'_>, job: CkptJob) -> Option<TaskOutput> {
    match job {
        CkptJob::RddPart(rdd, part) => {
            let mut b = TaskBuilder::new(ctx);
            // Only the durable write is charged: Flint's checkpoint tasks
            // capture partitions as they are produced (§4), so the
            // materialization duration is discarded.
            let (data, vbytes, _resolve) = match b.materialize(rdd, part) {
                Ok(x) => x,
                Err(MissingShuffle) => return None,
            };
            // RDD checkpoints are stored and restored as rows; forcing
            // the decode here keeps the durable format and its wire
            // accounting identical whichever path produced the payload.
            let rows = data.rows();
            let wire = wire_size(&rows);
            Some(b.finish(rows.into(), vbytes, wire, SimDuration::ZERO, None))
        }
        CkptJob::Shuffle(s, mp) => {
            let bk = BlockKey::ShuffleMap {
                shuffle: s,
                map_part: mp,
            };
            let (wid, data, _, vbytes) = ctx.cluster.peek_fetch(&bk)?;
            let mut b = TaskBuilder::new(ctx);
            b.effects.push(CacheEffect::Touch(wid, bk));
            let wire = data.wire_size();
            Some(b.finish(data, vbytes, wire, SimDuration::ZERO, Some(wid)))
        }
    }
}

/// Real payload size of one partition, matching the sequential driver's
/// accounting (16 bytes of fixed per-partition overhead).
pub(crate) fn real_bytes(data: &[Value]) -> u64 {
    data.iter().map(Value::size_bytes).sum::<u64>() + 16
}

/// Deterministic Bernoulli sampling for [`RddOp::Sample`]: keyed by seed,
/// RDD, and partition, so results are independent of execution order and
/// thread count.
pub(crate) fn deterministic_sample(
    data: &[Value],
    fraction: f64,
    seed: u64,
    rdd: RddId,
    part: u32,
) -> Vec<Value> {
    use rand::Rng;
    let mut rng =
        flint_simtime::rng::stream(seed ^ (u64::from(rdd.0) << 32), &format!("sample:{part}"));
    let keep = fraction.clamp(0.0, 1.0);
    let mut out = Vec::with_capacity(data.len());
    out.extend(data.iter().filter(|_| rng.gen_bool(keep)).cloned());
    out
}

/// Accumulates one task's pure computation against a [`WaveCtx`].
struct TaskBuilder<'c, 'a> {
    ctx: &'c WaveCtx<'a>,
    net: Vec<NetFetch>,
    effects: Vec<CacheEffect>,
    touched: Vec<(RddId, u32, u64)>,
    computed: Vec<(RddId, u32)>,
    resolved: Vec<(ShuffleId, RangePartitioner)>,
    restores: u64,
    restore_time: SimDuration,
    recompute_time: SimDuration,
    /// Buffered trace events (only filled when `ctx.trace_enabled`).
    events: Vec<EventKind>,
    /// Current `materialize` recursion depth: 0 for the task's own
    /// partition, increasing toward recomputed ancestors.
    depth: u32,
    /// Blocks this task has queued for insertion, with their virtual
    /// sizes, visible to its own later reads (mirrors the sequential
    /// materializer, where a persisted ancestor cached mid-task is a
    /// free local hit for the rest of the task).
    local: HashMap<BlockKey, (PartData, u64)>,
}

impl<'c, 'a> TaskBuilder<'c, 'a> {
    fn new(ctx: &'c WaveCtx<'a>) -> Self {
        TaskBuilder {
            ctx,
            net: Vec::new(),
            effects: Vec::new(),
            touched: Vec::new(),
            computed: Vec::new(),
            resolved: Vec::new(),
            restores: 0,
            restore_time: SimDuration::ZERO,
            recompute_time: SimDuration::ZERO,
            events: Vec::new(),
            depth: 0,
            local: HashMap::new(),
        }
    }

    fn finish(
        self,
        data: BlockData,
        vbytes: u64,
        wire: u64,
        base_dur: SimDuration,
        source: Option<WorkerId>,
    ) -> TaskOutput {
        TaskOutput {
            data,
            vbytes,
            wire,
            base_dur,
            net: self.net,
            effects: self.effects,
            touched: self.touched,
            computed: self.computed,
            resolved: self.resolved,
            source,
            restores: self.restores,
            restore_time: self.restore_time,
            recompute_time: self.recompute_time,
            events: self.events,
        }
    }

    fn was_computed_before(&self, rdd: RddId, part: u32) -> bool {
        self.ctx.computed_once.contains(&(rdd, part)) || self.computed.contains(&(rdd, part))
    }

    /// Computes `(rdd, part)`, returning the data, its virtual size
    /// under the cost model, and the worker-independent duration. Uses
    /// (in order): this task's own pending inserts, the wave-start
    /// cluster cache, the durable checkpoint store, recursive
    /// recomputation through the lineage.
    ///
    /// The returned virtual size equals `cost.vbytes(real_bytes(&data))`
    /// on every path (caches and the checkpoint store record it at
    /// insert time), so callers reuse it instead of re-walking the
    /// payload.
    fn materialize(
        &mut self,
        rdd: RddId,
        part: u32,
    ) -> std::result::Result<(PartData, u64, SimDuration), MissingShuffle> {
        self.depth += 1;
        let r = self.materialize_inner(rdd, part);
        self.depth -= 1;
        r
    }

    fn materialize_inner(
        &mut self,
        rdd: RddId,
        part: u32,
    ) -> std::result::Result<(PartData, u64, SimDuration), MissingShuffle> {
        let bk = BlockKey::RddPart { rdd, part };

        // 0. A block this task already queued for insertion: a free
        //    local memory hit on the executing worker.
        if let Some((data, vb)) = self.local.get(&bk) {
            let (data, vb) = (data.clone(), *vb);
            self.effects.push(CacheEffect::TouchLocal(bk));
            return Ok((data, vb, SimDuration::ZERO));
        }

        // 1. Cluster cache (memory or local disk beats a durable read).
        if let Some((wid, data, loc, vb)) = self.ctx.cluster.peek_fetch(&bk) {
            let data = match &data {
                BlockData::Flat(d) => PartData::Rows(Arc::clone(d)),
                BlockData::Columnar(b) => PartData::Col(Arc::clone(b)),
                BlockData::Bucketed(_) => unreachable!("RDD partition blocks are never bucketed"),
            };
            self.effects.push(CacheEffect::Touch(wid, bk));
            let mut dur = SimDuration::ZERO;
            if loc == BlockLocation::Disk {
                dur += self.ctx.cost.disk_time(vb);
            }
            self.net.push(NetFetch {
                source: wid,
                vbytes: vb,
            });
            return Ok((data, vb, dur));
        }

        // 2. Durable checkpoint. The restore runs the integrity check
        //    first: a torn write or an outage window abandons the
        //    restore and falls through to lineage recomputation, so a
        //    degraded store can slow a wave down but never corrupt it.
        if self.ctx.ckpt.has(rdd, part) {
            match self.ctx.ckpt.read_fault(rdd, part, self.ctx.now) {
                None => {
                    let data = self
                        .ctx
                        .ckpt
                        .get(rdd, part)
                        .expect("checkpoint bitmap and store agree")
                        .clone();
                    let vb = self
                        .ctx
                        .ckpt
                        .size_of(rdd, part)
                        .unwrap_or_else(|| self.ctx.cost.vbytes(real_bytes(&data)));
                    let dur = self.ctx.ckpt.config().read_time(vb, 1);
                    self.restore_time += dur;
                    self.restores += 1;
                    if self.ctx.trace_enabled {
                        self.events.push(EventKind::Restored {
                            block: bk.to_string(),
                            millis: dur.as_millis(),
                        });
                    }
                    // Re-cache the restored partition if the RDD is persisted so
                    // subsequent reads stay in memory. Restores are rows by
                    // construction (checkpoints store rows), so downstream
                    // consumers take the row path — same records, same bytes.
                    let data = PartData::Rows(data);
                    if self.ctx.lineage.is_persisted(rdd) {
                        self.effects
                            .push(CacheEffect::Insert(bk, data.to_block(), vb));
                        self.local.insert(bk, (data.clone(), vb));
                    }
                    return Ok((data, vb, dur));
                }
                Some(fault) => {
                    if self.ctx.trace_enabled {
                        if fault == ReadFault::Corrupt {
                            self.events.push(EventKind::CheckpointCorruptDetected {
                                block: bk.to_string(),
                            });
                        }
                        self.events.push(EventKind::RestoreFallback {
                            block: bk.to_string(),
                            reason: match fault {
                                ReadFault::Corrupt => "corrupt",
                                ReadFault::Unavailable => "outage",
                            }
                            .to_string(),
                        });
                    }
                    // Fall through to lineage recomputation.
                }
            }
        }

        // 3. Recompute from lineage.
        let meta = self.ctx.lineage.meta(rdd);
        let op = meta.op.clone();
        let parents = meta.parents.clone();
        let was_before = self.was_computed_before(rdd, part);
        let factor = op.cost_factor();

        // Arms yield `PartData` so pass-through operators (`Union`, the
        // shared identity `Map`) hand the parent's payload onward in
        // whichever form it arrived, and vectorized kernels keep batches
        // columnar end to end.
        let (data, own_dur, child_dur): (PartData, SimDuration, SimDuration) = match op {
            RddOp::Parallelize { data } => {
                // Source partitions encode once into a per-partition
                // columnar batch cached in the lineage; later reads share
                // the Arc instead of deep-cloning the row vector.
                let rows = &data[part as usize];
                let out = if self.ctx.columnar {
                    match self.ctx.lineage.source_batch(rdd, part, rows) {
                        Some(b) => PartData::Col(b),
                        None => PartData::Rows(Arc::new(rows.clone())),
                    }
                } else {
                    PartData::Rows(Arc::new(rows.clone()))
                };
                let vb = self.ctx.cost.vbytes(out.real_bytes());
                (out, self.ctx.cost.source_time(vb), SimDuration::ZERO)
            }
            RddOp::Union => {
                let (p, pp) = self.ctx.lineage.union_source(rdd, part);
                let (pd, _, pdur) = self.materialize(p, pp)?;
                (pd, SimDuration::ZERO, pdur)
            }
            RddOp::Coalesce { group } => {
                let parent = parents[0];
                let n = self.ctx.lineage.meta(parent).num_partitions;
                let lo = part * group;
                let hi = (lo + group).min(n);
                let mut inputs: Vec<PartitionData> = Vec::with_capacity((hi - lo) as usize);
                let mut cdur = SimDuration::ZERO;
                for pp in lo..hi {
                    let (pd, _, pdur) = self.materialize(parent, pp)?;
                    cdur += pdur;
                    inputs.push(pd.rows());
                }
                let mut out = Vec::with_capacity(inputs.iter().map(|d| d.len()).sum());
                for pd in &inputs {
                    out.extend(pd.iter().cloned());
                }
                (PartData::Rows(Arc::new(out)), SimDuration::ZERO, cdur)
            }
            RddOp::Map { f } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                // The identity transform shares the parent's records; the
                // charged compute time depends only on the input size, so
                // the short-circuit cannot move the clock.
                let out = if crate::rdd::is_identity(&f) {
                    pd
                } else if let Some(b) = self.map_batch(rdd, &pd) {
                    b
                } else {
                    let rows = pd.rows();
                    let mut out = Vec::with_capacity(rows.len());
                    out.extend(rows.iter().map(|v| f(v)));
                    PartData::Rows(Arc::new(out))
                };
                (out, self.ctx.cost.compute_time(vb, factor), pdur)
            }
            RddOp::Filter { p } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let out = if let Some(b) = self.filter_batch(rdd, &pd) {
                    b
                } else {
                    let rows = pd.rows();
                    let mut out = Vec::with_capacity(rows.len());
                    out.extend(rows.iter().filter(|v| p(v)).cloned());
                    PartData::Rows(Arc::new(out))
                };
                (out, self.ctx.cost.compute_time(vb, factor), pdur)
            }
            RddOp::FlatMap { f } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let rows = pd.rows();
                let mut out: Vec<Value> = Vec::with_capacity(rows.len());
                out.extend(rows.iter().flat_map(|v| f(v)));
                (
                    PartData::Rows(Arc::new(out)),
                    self.ctx.cost.compute_time(vb, factor),
                    pdur,
                )
            }
            RddOp::MapPartitions { f, .. } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let out = if let Some(b) = self.parts_batch(rdd, &pd) {
                    b
                } else {
                    PartData::Rows(Arc::new(f(part, &pd.rows())))
                };
                (out, self.ctx.cost.compute_time(vb, factor), pdur)
            }
            RddOp::Sample { fraction, seed } => {
                let (pd, vb, pdur) = self.materialize(parents[0], part)?;
                let out = deterministic_sample(&pd.rows(), fraction, seed, rdd, part);
                (
                    PartData::Rows(Arc::new(out)),
                    self.ctx.cost.compute_time(vb, factor),
                    pdur,
                )
            }
            RddOp::ShuffleAgg { shuffle, combine } => {
                let (chunks, bytes, fdur) = self.fetch_shuffle_bucket(shuffle, part)?;
                let vb = self.ctx.cost.vbytes(bytes + 16);
                let out = self.reduce_agg(shuffle, &chunks, &combine);
                (out, self.ctx.cost.compute_time(vb, factor), fdur)
            }
            RddOp::ShuffleGroup { shuffle } => {
                let (chunks, bytes, fdur) = self.fetch_shuffle_bucket(shuffle, part)?;
                let vb = self.ctx.cost.vbytes(bytes + 16);
                let out = self.reduce_group(&chunks);
                (out, self.ctx.cost.compute_time(vb, factor), fdur)
            }
            RddOp::CoGroup { shuffles } => {
                let mut fdur = SimDuration::ZERO;
                let mut total = 0u64;
                let mut per_parent: Vec<Vec<PartitionData>> = Vec::with_capacity(shuffles.len());
                for s in &shuffles {
                    let (chunks, bytes, d) = self.fetch_shuffle_bucket(*s, part)?;
                    fdur += d;
                    total += bytes + 16;
                    per_parent.push(chunks.iter().map(Bucket::rows).collect());
                }
                let vb = self.ctx.cost.vbytes(total);
                let mut groups: BTreeMap<Value, Vec<Vec<Value>>> = BTreeMap::new();
                for (i, chunks) in per_parent.iter().enumerate() {
                    for v in chunks.iter().flat_map(|c| c.iter()) {
                        if let Value::Pair(p) = v {
                            groups
                                .entry(p.key().clone())
                                .or_insert_with(|| vec![Vec::new(); per_parent.len()])[i]
                                .push(p.val().clone());
                        }
                    }
                }
                let mut out: Vec<Value> = Vec::with_capacity(groups.len());
                out.extend(groups.into_iter().map(|(k, gs)| {
                    Value::pair(k, Value::list(gs.into_iter().map(Value::list).collect()))
                }));
                (
                    PartData::Rows(Arc::new(out)),
                    self.ctx.cost.compute_time(vb, factor),
                    fdur,
                )
            }
            RddOp::SortByKey { shuffle, ascending } => {
                let (chunks, bytes, fdur) = self.fetch_shuffle_bucket(shuffle, part)?;
                let vb = self.ctx.cost.vbytes(bytes + 16);
                // Concatenate the buckets (decoded to rows) in the same
                // map-partition-major order the flat fetch produced, then
                // sort stably: equal keys keep fetch order, exactly as
                // before. The typed sort extracts a homogeneous key
                // column and sorts index vectors; mixed keys fall back to
                // the general comparator with identical ordering.
                let inputs: Vec<PartitionData> = chunks.iter().map(Bucket::rows).collect();
                let mut out: Vec<Value> = Vec::with_capacity(inputs.iter().map(|c| c.len()).sum());
                for c in &inputs {
                    out.extend(c.iter().cloned());
                }
                if !(self.ctx.columnar && typed_sort_by_key(&mut out, ascending)) {
                    out.sort_by(|a, b| {
                        let ka = a.key().unwrap_or(a);
                        let kb = b.key().unwrap_or(b);
                        if ascending {
                            ka.cmp(kb)
                        } else {
                            kb.cmp(ka)
                        }
                    });
                }
                (
                    PartData::Rows(Arc::new(out)),
                    self.ctx.cost.compute_time(vb, factor),
                    fdur,
                )
            }
        };

        if was_before {
            self.recompute_time += own_dur;
            if self.ctx.trace_enabled {
                self.events.push(EventKind::Recomputed {
                    block: bk.to_string(),
                    depth: u64::from(self.depth - 1),
                    millis: own_dur.as_millis(),
                });
            }
        }
        let real = data.real_bytes();
        let vb = self.ctx.cost.vbytes(real);
        // Deferred: the size is recorded into the lineage when the task
        // commits, so materialization hooks observe RDDs in completion
        // order (ancestors before descendants within one task chain).
        self.touched.push((rdd, part, real));
        self.computed.push((rdd, part));
        if self.ctx.lineage.is_persisted(rdd) {
            self.effects
                .push(CacheEffect::Insert(bk, data.to_block(), vb));
            self.local.insert(bk, (data.clone(), vb));
        }
        Ok((data, vb, own_dur + child_dur))
    }

    /// Vectorized `Map`: runs when columnar execution is on, the RDD
    /// registered a map kernel at plan time, and the parent arrived as a
    /// batch. `None` → row fallback.
    fn map_batch(&self, rdd: RddId, pd: &PartData) -> Option<PartData> {
        if !self.ctx.columnar {
            return None;
        }
        let (Some(OpKernel::Map(k)), PartData::Col(b)) = (self.ctx.lineage.kernel(rdd), pd) else {
            return None;
        };
        k.eval_batch(b).map(|nb| PartData::Col(Arc::new(nb)))
    }

    /// Vectorized `Filter`: mask evaluation over typed columns plus a
    /// single gather. `None` → row fallback.
    fn filter_batch(&self, rdd: RddId, pd: &PartData) -> Option<PartData> {
        if !self.ctx.columnar {
            return None;
        }
        let (Some(OpKernel::Filter(k)), PartData::Col(b)) = (self.ctx.lineage.kernel(rdd), pd)
        else {
            return None;
        };
        k.filter_batch(b).map(|nb| PartData::Col(Arc::new(nb)))
    }

    /// Vectorized `MapPartitions` for kernels registered as per-record
    /// filter-maps (e.g. k-means nearest-center assignment). `None` →
    /// row fallback through the op's own closure.
    fn parts_batch(&self, rdd: RddId, pd: &PartData) -> Option<PartData> {
        if !self.ctx.columnar {
            return None;
        }
        let (Some(OpKernel::PartsFilterMap(k)), PartData::Col(b)) =
            (self.ctx.lineage.kernel(rdd), pd)
        else {
            return None;
        };
        k.eval_batch(b).map(|nb| PartData::Col(Arc::new(nb)))
    }

    /// Reduce side of `ShuffleAgg`: typed columnar aggregation when the
    /// shuffle registered an agg kernel and every fetched bucket arrived
    /// as a key/payload batch, else the classic `BTreeMap` fold over
    /// decoded rows. Both produce the same sorted pair sequence and the
    /// same bytes.
    fn reduce_agg(
        &self,
        shuffle: ShuffleId,
        chunks: &[Bucket],
        combine: &crate::rdd::AggFn,
    ) -> PartData {
        if self.ctx.columnar {
            if let Some(kernel) = self.ctx.lineage.agg_kernel(shuffle) {
                if let Some(typed) = pair_chunks(chunks) {
                    if let Some(batch) = typed_agg(kernel, &typed) {
                        return PartData::Col(Arc::new(batch));
                    }
                }
            }
        }
        let rows: Vec<PartitionData> = chunks.iter().map(Bucket::rows).collect();
        let mut agg: BTreeMap<Value, Value> = BTreeMap::new();
        for v in rows.iter().flat_map(|c| c.iter()) {
            if let Value::Pair(p) = v {
                match agg.get_mut(p.key()) {
                    Some(acc) => *acc = combine(acc, p.val()),
                    None => {
                        agg.insert(p.key().clone(), p.val().clone());
                    }
                }
            }
        }
        let mut out: Vec<Value> = Vec::with_capacity(agg.len());
        out.extend(agg.into_iter().map(|(k, v)| Value::pair(k, v)));
        PartData::Rows(Arc::new(out))
    }

    /// Reduce side of `ShuffleGroup`: typed grouping over homogeneous
    /// key columns when every bucket arrived as a key/payload batch,
    /// else the classic `BTreeMap` path over decoded rows.
    fn reduce_group(&self, chunks: &[Bucket]) -> PartData {
        if self.ctx.columnar {
            if let Some(typed) = pair_chunks(chunks) {
                if let Some(rows) = typed_group(&typed) {
                    return PartData::Rows(Arc::new(rows));
                }
            }
        }
        let rows: Vec<PartitionData> = chunks.iter().map(Bucket::rows).collect();
        let mut groups: BTreeMap<Value, Vec<Value>> = BTreeMap::new();
        for v in rows.iter().flat_map(|c| c.iter()) {
            if let Value::Pair(p) = v {
                groups
                    .entry(p.key().clone())
                    .or_default()
                    .push(p.val().clone());
            }
        }
        let mut out: Vec<Value> = Vec::with_capacity(groups.len());
        out.extend(
            groups
                .into_iter()
                .map(|(k, vs)| Value::pair(k, Value::list(vs))),
        );
        PartData::Rows(Arc::new(out))
    }

    /// Fetches the reduce-side bucket `part` of `shuffle` from every map
    /// output block, charging disk/durable time directly and recording
    /// network transfers for pricing at admission. Returns one shared
    /// chunk per map block (map-partition order), the records' summed
    /// payload bytes (without the 16-byte partition overhead), and the
    /// worker-independent duration.
    ///
    /// Bucketed map blocks serve the request as an O(1) shared handle —
    /// zero record copies — in whichever form the map side produced
    /// (row bucket or contiguous columnar slice); flat blocks (range
    /// shuffles before barrier resolution) fall back to the full
    /// partition-assignment scan. All paths yield the same records in
    /// the same order — buckets preserve production order, and
    /// flattening the chunks in order reproduces the old concatenated
    /// fetch exactly.
    fn fetch_shuffle_bucket(
        &mut self,
        shuffle: ShuffleId,
        part: u32,
    ) -> std::result::Result<(Vec<Bucket>, u64, SimDuration), MissingShuffle> {
        let info = self.ctx.lineage.shuffle(shuffle).clone();
        let m = self.ctx.lineage.meta(info.parent).num_partitions;

        // Resolve the partitioner (range bounds are sampled lazily at the
        // barrier and cached for deterministic recomputation).
        let partitioner: Box<dyn Partitioner> = match info.kind {
            ShuffleKind::Hash { parts } => Box::new(HashPartitioner::new(parts)),
            ShuffleKind::Range { parts, ascending } => {
                let cached = self
                    .ctx
                    .range_cache
                    .get(&shuffle)
                    .or_else(|| {
                        self.resolved
                            .iter()
                            .find(|(s, _)| *s == shuffle)
                            .map(|(_, rp)| rp)
                    })
                    .cloned();
                let rp = match cached {
                    Some(rp) => rp,
                    None => {
                        let rp = self.resolve_range_partitioner(shuffle, m, parts, ascending)?;
                        self.resolved.push((shuffle, rp.clone()));
                        rp
                    }
                };
                Box::new(rp)
            }
        };

        let mut out: Vec<Bucket> = Vec::with_capacity(m as usize);
        let mut payload = 0u64;
        let mut dur = SimDuration::ZERO;
        for mp in 0..m {
            let (block, source, from_disk, from_store) = self.read_shuffle_block(shuffle, mp)?;
            let bucket_bytes = match &block {
                BlockData::Bucketed(bb) => {
                    match bb.bucket_batch(part) {
                        Some(cb) => out.push(Bucket::Col(Arc::clone(cb))),
                        None => out.push(Bucket::Rows(bb.bucket_shared(part))),
                    }
                    bb.bucket_bytes(part)
                }
                BlockData::Flat(d) => {
                    let (sel, bytes) = scan_flat_bucket(d, partitioner.as_ref(), part);
                    out.push(Bucket::Rows(Arc::new(sel)));
                    bytes
                }
                BlockData::Columnar(cb) => {
                    // Shuffle map outputs are bucketed or flat by
                    // construction; decode defensively if a columnar
                    // block ever lands here.
                    let rows = cb.to_rows();
                    let (sel, bytes) = scan_flat_bucket(&rows, partitioner.as_ref(), part);
                    out.push(Bucket::Rows(Arc::new(sel)));
                    bytes
                }
            };
            payload += bucket_bytes;
            let vb = self.ctx.cost.vbytes(bucket_bytes);
            if from_store {
                dur += self.ctx.ckpt.config().read_time(vb, 1);
            } else {
                if from_disk {
                    dur += self.ctx.cost.disk_time(vb);
                }
                if let Some(wid) = source {
                    self.net.push(NetFetch {
                        source: wid,
                        vbytes: vb,
                    });
                }
            }
        }
        Ok((out, payload, dur))
    }

    /// Reads one shuffle map block: `(data, holding worker, from_disk,
    /// from_store)`. The worker is `None` for durable-store reads.
    #[allow(clippy::type_complexity)]
    fn read_shuffle_block(
        &mut self,
        shuffle: ShuffleId,
        mp: u32,
    ) -> std::result::Result<(BlockData, Option<WorkerId>, bool, bool), MissingShuffle> {
        let bk = BlockKey::ShuffleMap {
            shuffle,
            map_part: mp,
        };
        if let Some((wid, data, loc, _)) = self.ctx.cluster.peek_fetch(&bk) {
            self.effects.push(CacheEffect::Touch(wid, bk));
            return Ok((data, Some(wid), loc == BlockLocation::Disk, false));
        }
        // A corrupt or outage-blocked shuffle checkpoint counts as
        // missing: the driver replans and recomputes the map task
        // rather than serving bad bytes.
        if self.ctx.ckpt.shuffle_readable(shuffle, mp, self.ctx.now) {
            if let Some(data) = self.ctx.ckpt.get_shuffle(shuffle, mp) {
                return Ok((data.clone(), None, false, true));
            }
        }
        Err(MissingShuffle)
    }

    fn resolve_range_partitioner(
        &mut self,
        shuffle: ShuffleId,
        map_parts: u32,
        parts: u32,
        ascending: bool,
    ) -> std::result::Result<RangePartitioner, MissingShuffle> {
        let mut sample = Vec::new();
        for mp in 0..map_parts {
            let (block, _, _, _) = self.read_shuffle_block(shuffle, mp)?;
            // Blocks of an unresolved range shuffle are flat by
            // construction: bucketing only happens once the partitioner
            // this function is about to produce has been cached, and the
            // cache is monotone, so resolution never runs again after
            // that point. Sampling raw production order keeps the
            // resolved bounds byte-identical to the pre-bucketing
            // engine.
            let block = block
                .flat()
                .expect("range shuffle map blocks stay flat until resolution");
            // Cap the per-block sample to keep planning cheap.
            let stride = (block.len() / 256).max(1);
            for v in block.iter().step_by(stride) {
                sample.push(v.key().unwrap_or(v).clone());
            }
        }
        Ok(RangePartitioner::from_sample(sample, parts, ascending))
    }
}

/// The typed key/payload views of a fetched bucket set, if every chunk
/// is a columnar batch in pair layout. Any row chunk or scalar-encoded
/// pair batch disqualifies the set: the typed reduce kernels key on the
/// dedicated key column, which only the pair layout guarantees matches
/// the row path's `v.key()` routing.
fn pair_chunks(chunks: &[Bucket]) -> Option<Vec<(&Column, &ColumnBatch)>> {
    chunks
        .iter()
        .map(|c| match c {
            Bucket::Col(b) => match b.as_ref() {
                ColumnBatch::Pair { key, val } => Some((key, val.as_ref())),
                ColumnBatch::Scalar(_) | ColumnBatch::Rows(_) => None,
            },
            Bucket::Rows(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_wave_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let out = run_wave(threads, &items, |x| x * 3);
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_wave_uses_multiple_threads_when_asked() {
        // With 8 threads over blocking-free work we can at least verify
        // every item ran exactly once.
        let counter = AtomicU64::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let out = run_wave(8, &items, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn run_wave_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(run_wave(8, &empty, |x| *x).is_empty());
        assert_eq!(run_wave(8, &[42u32], |x| *x + 1), vec![43]);
    }

    #[test]
    fn run_wave_overlaps_blocking_tasks() {
        // Eight 30 ms sleeps take ~240 ms sequentially; with 8 threads
        // they overlap to ~30 ms even on a single CPU. The generous bound
        // still proves concurrency.
        let items: Vec<u32> = (0..8).collect();
        let t0 = std::time::Instant::now();
        let out = run_wave(8, &items, |x| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            *x
        });
        let elapsed = t0.elapsed();
        assert_eq!(out, items);
        assert!(
            elapsed < std::time::Duration::from_millis(150),
            "8 blocking tasks did not overlap: {elapsed:?}"
        );
    }

    #[test]
    #[should_panic(expected = "wave worker thread panicked")]
    fn run_wave_propagates_panics() {
        let items: Vec<u32> = (0..10).collect();
        let _ = run_wave(4, &items, |x| {
            assert!(*x != 7, "boom");
            *x
        });
    }
}
