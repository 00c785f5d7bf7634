//! The driver: stage planning, virtual-time task execution, failure
//! handling, and checkpoint orchestration.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use flint_simtime::{Clock, SimDuration, SimTime};
use flint_store::StorageConfig;
use flint_trace::{EventKind, TraceHandle};

use crate::backend::{Backend, ShuffleTransport, TransientVmBackend};
use crate::block::{BlockData, BlockKey, InsertOutcome};
use crate::checkpoint::{CheckpointStore, ReadFault, WriteFault};
use crate::cluster::{Cluster, WorkerId, WorkerSpec};
use crate::context::EngineContext;
use crate::cost::CostModel;
use crate::error::{EngineError, Result};
use crate::executor::{self, CacheEffect, TaskOutput, WaveCtx};
use crate::hooks::{CheckpointDirective, CheckpointHooks, LineageView, NoCheckpoint};
use crate::injector::{FailureInjector, NoFailures, WorkerEvent};
use crate::manifest::RunManifest;
use crate::rdd::{PartitionData, RddId, RddOp, RddRef};
use crate::shuffle::{BucketedBlock, RangePartitioner, ShuffleId};
use crate::stats::{ActionRecord, RunStats};
use crate::value::Value;

/// A retry policy: an attempt budget plus capped exponential backoff in
/// virtual time, used by [`DriverConfig::store_retry`] for the
/// store-outage wait. `backoff(attempt)` doubles from `backoff_base` per
/// attempt and saturates at `backoff_cap`; a zero base means "retry
/// immediately" (no virtual time passes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts allowed before the loop gives up with a typed error.
    pub budget: u64,
    /// First backoff; each further attempt doubles it. `ZERO` retries
    /// without advancing virtual time.
    pub backoff_base: SimDuration,
    /// Ceiling on the backoff.
    pub backoff_cap: SimDuration,
}

impl RetryPolicy {
    /// A policy of `budget` immediate retries (no backoff).
    pub fn immediate(budget: u64) -> Self {
        RetryPolicy {
            budget,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
        }
    }

    /// A policy of `budget` retries with capped exponential backoff.
    pub fn backoff(budget: u64, base: SimDuration, cap: SimDuration) -> Self {
        RetryPolicy {
            budget,
            backoff_base: base,
            backoff_cap: cap,
        }
    }

    /// `true` once `attempt` retries have been spent.
    pub fn exhausted(&self, attempt: u64) -> bool {
        attempt >= self.budget
    }

    /// The wait before retry number `attempt` (0-based): capped
    /// exponential doubling, or `ZERO` for a no-backoff policy.
    pub fn delay(&self, attempt: u64) -> SimDuration {
        if self.backoff_base == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let base = self.backoff_base.as_millis().max(1);
        let cap = self.backoff_cap.as_millis().max(base);
        SimDuration::from_millis(base.saturating_mul(1u64 << attempt.min(32)).min(cap))
    }
}

/// Hard cap on scheduler loop iterations per action, guarding against
/// revocation livelock (MTTF far below task granularity).
const MAX_ITERATIONS: u64 = 5_000_000;

/// Gather attempts per action. A result block can vanish between job
/// completion and gather (a same-instant revocation); every failed
/// attempt but the last re-runs the job at once, and the last fails the
/// action with [`EngineError::RetryBudgetExhausted`].
const GATHER_RETRIES: u64 = 3;

/// Sliding window over which repeated revocations of the same external
/// id count as flapping.
const FLAP_WINDOW: SimDuration = SimDuration::from_secs(600);

/// Revocations of one external id within [`FLAP_WINDOW`] that
/// quarantine it (further joins are ignored).
const FLAP_THRESHOLD: u32 = 3;

/// Tuning knobs for a [`Driver`], built through [`DriverConfig::builder`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct DriverConfig {
    /// The virtual-time cost model.
    pub cost: CostModel,
    /// The durable-storage bandwidth model.
    pub storage: StorageConfig,
    /// Host threads used to materialize each scheduling wave's tasks in
    /// parallel (real wall-clock parallelism; virtual time is
    /// unaffected). Results are committed in fixed task-key order on the
    /// driver thread, so any value — including 1 — produces bit-identical
    /// results, statistics, and virtual-time trajectories. See the
    /// `executor` module docs for the compute/commit split.
    pub host_threads: usize,
    /// Retry policy for transient checkpoint-store outages: how many
    /// capped-exponential backoff waits a restore spends before failing
    /// the action with [`EngineError::StoreUnavailable`].
    pub store_retry: RetryPolicy,
    /// Enables the columnar batch execution path: partitions of
    /// batch-capable ops (built through the `*_kernel` context
    /// constructors) are stored as typed column vectors and run through
    /// vectorized kernels; everything else stays on the per-record
    /// path. Either setting produces bit-identical results, virtual
    /// sizes, and traces — only host wall-clock changes. On by default.
    pub columnar: bool,
    /// When set, the driver suspends the run at the first wave-commit
    /// boundary where the committed-wave counter reaches this value: a
    /// [`RunManifest`] is persisted through the durable store and the
    /// in-flight action returns [`EngineError::Suspended`]. `None` (the
    /// default) never suspends and leaves every trace byte-identical.
    /// This is the deterministic stand-in for a driver crash — chaos
    /// campaigns wire [`crate::ChaosSchedule::driver_crash_wave`] here.
    pub suspend_after_waves: Option<u64>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            cost: CostModel::default(),
            storage: StorageConfig::default(),
            host_threads: 1,
            store_retry: RetryPolicy::backoff(
                6,
                SimDuration::from_secs(1),
                SimDuration::from_secs(60),
            ),
            columnar: true,
            suspend_after_waves: None,
        }
    }
}

impl DriverConfig {
    /// Starts a builder preloaded with the defaults (the §5.5 cost model,
    /// default EBS bandwidth, one host thread).
    pub fn builder() -> DriverConfigBuilder {
        DriverConfigBuilder::default()
    }

    /// FNV-1a fingerprint of the determinism-relevant configuration.
    ///
    /// Covers every knob that shapes results, virtual time, or the
    /// trace; deliberately excludes `host_threads` and `columnar`
    /// (proven bit-identical by the determinism suite) and
    /// `suspend_after_waves` (which necessarily differs between a
    /// crashing run and its resume replay). [`Driver::resume`] rejects
    /// a manifest whose fingerprint does not match. The constants that
    /// were once fields keep their slots in the hashed string (the
    /// retired recompute budget as `u64::MAX`), so persisted manifests
    /// still resume.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |s: &str| {
            for b in s.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&format!(
            "{:?}|{:?}|{}|{:?}|{:?}|{}|{:?}|{}",
            self.cost,
            self.storage,
            MAX_ITERATIONS,
            self.store_retry,
            RetryPolicy::immediate(GATHER_RETRIES),
            u64::MAX,
            FLAP_WINDOW,
            FLAP_THRESHOLD,
        ));
        h
    }
}

/// Fluent builder for [`DriverConfig`];
/// `DriverConfig::builder().build()` equals `DriverConfig::default()`.
///
/// # Examples
///
/// ```
/// use flint_engine::DriverConfig;
///
/// let cfg = DriverConfig::builder()
///     .host_threads(8)
///     .size_scale(5e5)
///     .build();
/// assert_eq!(cfg.host_threads, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DriverConfigBuilder {
    cfg: DriverConfig,
}

impl DriverConfigBuilder {
    /// The virtual-time cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// The durable-storage bandwidth model.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.cfg.storage = storage;
        self
    }

    /// Host threads used to materialize each wave in parallel. Any value
    /// produces bit-identical results; see [`DriverConfig::host_threads`].
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.cfg.host_threads = threads;
        self
    }

    /// Convenience: sets the cost model's virtual-size multiplier
    /// (`cost.size_scale`), the usual knob for simulating paper-scale
    /// datasets from small in-memory collections.
    pub fn size_scale(mut self, scale: f64) -> Self {
        self.cfg.cost.size_scale = scale;
        self
    }

    /// Retry policy for transient checkpoint-store outages.
    pub fn store_retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.store_retry = policy;
        self
    }

    /// Suspend the run once this many waves have committed (see
    /// [`DriverConfig::suspend_after_waves`]).
    pub fn suspend_after_waves(mut self, waves: u64) -> Self {
        self.cfg.suspend_after_waves = Some(waves);
        self
    }

    /// Enables or disables the columnar batch path (on by default);
    /// results are bit-identical either way, see
    /// [`DriverConfig::columnar`].
    pub fn columnar(mut self, on: bool) -> Self {
        self.cfg.columnar = on;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> DriverConfig {
        self.cfg
    }
}

/// A schedulable unit of work.
///
/// The derived `Ord` defines the commit order within a wave: outputs are
/// admitted in ascending `TaskKey` order regardless of which host thread
/// computed them first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum TaskKey {
    /// Produce the shuffle map output block for `(shuffle, map_part)`.
    ShuffleMap { shuffle: ShuffleId, map_part: u32 },
    /// Materialize and cache partition `part` of the job target.
    Output { rdd: RddId, part: u32 },
    /// Durably write a checkpoint.
    Ckpt(CkptJob),
}

/// A pending checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum CkptJob {
    /// Checkpoint `(rdd, part)`.
    RddPart(RddId, u32),
    /// Checkpoint a shuffle map output (systems-level baseline).
    Shuffle(ShuffleId, u32),
}

/// What to do when a running task completes.
#[derive(Debug, Clone)]
enum Commit {
    /// Insert a block into the executing worker's store.
    Block(BlockKey),
    /// Write a checkpoint object of `wire` serialized bytes.
    Checkpoint { job: CkptJob, wire: u64 },
}

#[derive(Debug, Clone)]
struct Running {
    key: TaskKey,
    worker: WorkerId,
    finish: SimTime,
    data: BlockData,
    vbytes: u64,
    duration: SimDuration,
    commit: Commit,
    touched: Vec<(RddId, u32, u64)>,
    seq: u64,
    /// Backend invocation id assigned at admission (0 = the backend
    /// registered no invocation for this task).
    invocation: u64,
}

/// Internal materialization failure: a required shuffle input vanished
/// between planning and execution (cannot normally happen; handled by
/// replanning).
#[derive(Debug)]
pub(crate) struct MissingShuffle;

/// The execution engine: owns the lineage context, the simulated cluster,
/// the checkpoint store, and the virtual clock.
///
/// See the [crate-level documentation](crate) for the execution model.
pub struct Driver {
    ctx: EngineContext,
    cluster: Cluster,
    ckpt: CheckpointStore,
    backend: Box<dyn Backend>,
    hooks: Box<dyn CheckpointHooks>,
    injector: Box<dyn FailureInjector>,
    clock: Clock,
    stats: RunStats,
    trace: TraceHandle,
    config: DriverConfig,
    range_cache: BTreeMap<ShuffleId, RangePartitioner>,
    computed_once: HashSet<(RddId, u32)>,
    fired_materialized: HashSet<RddId>,
    marked_ckpt: HashSet<RddId>,
    ckpt_queue: VecDeque<CkptJob>,
    ckpt_queued: BTreeSet<CkptJob>,
    running: Vec<Running>,
    in_flight: BTreeSet<TaskKey>,
    last_pumped: SimTime,
    next_local_ext: u64,
    task_seq: u64,
    /// Blocks whose corrupt/unavailable checkpoint the driver has
    /// already paired with a `RestoreFallback` event (dedup across
    /// planning iterations).
    corrupt_reported: HashSet<String>,
    /// Recent revocation instants per external id (flap detection).
    remove_times: HashMap<u64, VecDeque<SimTime>>,
    /// External ids quarantined for flapping: their joins are ignored.
    quarantined: HashSet<u64>,
    /// Committed-wave frontier: `advance_and_commit` calls that landed
    /// at least one task. Deterministic across `host_threads`, so it is
    /// the resume-manifest's notion of progress.
    waves_committed: u64,
    /// Session tag naming this run's manifest key in the durable store.
    session: String,
    /// A suspension is armed and fires at the next loop boundary.
    pending_suspend: bool,
    /// Manifest a resume replay must cross and verify against.
    resume_check: Option<RunManifest>,
    /// A resume replay diverged from its manifest; surfaced as a typed
    /// error at the next loop boundary.
    resume_failed: Option<EngineError>,
}

impl Driver {
    /// Creates a driver with explicit policy hooks and failure injector.
    pub fn new(
        config: DriverConfig,
        hooks: Box<dyn CheckpointHooks>,
        injector: Box<dyn FailureInjector>,
    ) -> Self {
        let storage = config.storage;
        Driver {
            ctx: EngineContext::new(),
            cluster: Cluster::new(),
            ckpt: CheckpointStore::new(storage),
            backend: Box::new(TransientVmBackend),
            hooks,
            injector,
            clock: Clock::new(),
            stats: RunStats::default(),
            trace: TraceHandle::disabled(),
            config,
            range_cache: BTreeMap::new(),
            computed_once: HashSet::new(),
            fired_materialized: HashSet::new(),
            marked_ckpt: HashSet::new(),
            ckpt_queue: VecDeque::new(),
            ckpt_queued: BTreeSet::new(),
            running: Vec::new(),
            in_flight: BTreeSet::new(),
            last_pumped: SimTime::ZERO,
            next_local_ext: 1 << 40,
            task_seq: 0,
            corrupt_reported: HashSet::new(),
            remove_times: HashMap::new(),
            quarantined: HashSet::new(),
            waves_committed: 0,
            session: "run".to_string(),
            pending_suspend: false,
            resume_check: None,
            resume_failed: None,
        }
    }

    /// Creates a driver with `n` healthy local workers, no checkpointing
    /// policy, and no failures — a correctness sandbox. Wave execution
    /// uses all available host cores (results are identical to
    /// `host_threads = 1` by construction).
    pub fn local(n: u32) -> Self {
        let mut d = Driver::new(
            DriverConfig {
                host_threads: std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                ..DriverConfig::default()
            },
            Box::new(NoCheckpoint),
            Box::new(NoFailures),
        );
        for _ in 0..n.max(1) {
            d.add_worker(WorkerSpec::r3_large());
        }
        d
    }

    /// Adds a worker immediately (outside the failure injector).
    pub fn add_worker(&mut self, spec: WorkerSpec) -> WorkerId {
        let ext = self.next_local_ext;
        self.next_local_ext += 1;
        self.cluster.add_worker(ext, spec, self.clock.now())
    }

    /// Adds a worker with a caller-chosen external id, so scripted
    /// injectors can later target it with `WorkerEvent::Remove`.
    pub fn add_worker_with_ext(&mut self, ext_id: u64, spec: WorkerSpec) -> WorkerId {
        self.cluster.add_worker(ext_id, spec, self.clock.now())
    }

    /// Returns the RDD construction context.
    pub fn ctx(&mut self) -> &mut EngineContext {
        &mut self.ctx
    }

    /// Returns the lineage graph.
    pub fn lineage(&self) -> &crate::Lineage {
        self.ctx.lineage()
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Jumps the virtual clock forward to `t` without simulating the gap
    /// (used to start a session mid-trace so backward-looking market
    /// statistics have history). Injector events in the skipped span are
    /// delivered on the next pump.
    pub fn warp_to(&mut self, t: SimTime) {
        self.clock.advance_to(t);
    }

    /// Returns accumulated execution statistics.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Resets execution statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = RunStats::default();
    }

    /// The committed-wave frontier so far: scheduler advances that
    /// landed at least one task commit. Deterministic across
    /// `host_threads`, so it is the [`RunManifest`] notion of progress.
    pub fn waves_committed(&self) -> u64 {
        self.waves_committed
    }

    /// Arms a resume replay against `manifest`.
    ///
    /// The engine is deterministic, so crash recovery is re-launching
    /// the identical session and replaying it; the manifest is the
    /// verification artifact. Call on a freshly built driver (same
    /// config, workload, and injector as the crashed run) before
    /// re-running the actions: when the replay's committed-wave frontier
    /// crosses `manifest.frontier`, the driver checks virtual time and
    /// stats against the manifest and emits `RunResumed` — a mismatch
    /// surfaces as [`EngineError::ResumeDiverged`] instead of silently
    /// continuing a divergent run. Rejects a manifest whose config
    /// fingerprint does not match this driver's.
    pub fn resume(&mut self, manifest: &RunManifest) -> Result<()> {
        let fp = self.config.fingerprint();
        if manifest.config_fp != fp {
            return Err(EngineError::ResumeDiverged {
                field: "config_fp",
                expected: manifest.config_fp,
                actual: fp,
            });
        }
        self.session.clone_from(&manifest.session);
        if manifest.frontier == 0 {
            // Crashed before any wave committed: nothing to verify.
            let key = manifest.store_key();
            let now = self.clock.now();
            self.trace.emit_with(now, || EventKind::RunResumed {
                manifest: key.clone(),
                frontier: 0,
            });
            return Ok(());
        }
        self.resume_check = Some(manifest.clone());
        Ok(())
    }

    fn build_manifest(&self) -> RunManifest {
        let mut blocks: Vec<String> = self
            .ckpt
            .store()
            .keys_with_prefix("")
            .into_iter()
            .map(str::to_string)
            .collect();
        blocks.retain(|k| !k.starts_with("manifest/"));
        RunManifest {
            version: 1,
            session: self.session.clone(),
            config_fp: self.config.fingerprint(),
            frontier: self.waves_committed,
            now_ms: self.clock.now().as_millis(),
            tasks_run: self.stats.tasks_run,
            revocations: self.stats.revocations,
            checkpoints_written: self.stats.checkpoints_written,
            blocks,
        }
    }

    /// Persists the run manifest and returns the typed suspension
    /// error the in-flight action propagates.
    fn suspend_now(&mut self) -> EngineError {
        let now = self.clock.now();
        let m = self.build_manifest();
        let key = m.store_key();
        let frontier = m.frontier;
        self.ckpt.put_manifest(&key, &m.encode(), now);
        self.trace.emit_with(now, || EventKind::RunSuspended {
            manifest: key.clone(),
            frontier,
        });
        EngineError::Suspended {
            manifest: key,
            frontier,
        }
    }

    /// Typed interruption pending at a scheduler loop boundary: an
    /// armed suspension or a failed resume verification. `None` on the
    /// hot path when neither feature is in use.
    fn take_interrupt(&mut self) -> Option<EngineError> {
        if let Some(e) = self.resume_failed.take() {
            return Some(e);
        }
        if self.pending_suspend {
            self.pending_suspend = false;
            return Some(self.suspend_now());
        }
        None
    }

    /// Verifies a resume replay the moment its frontier reaches the
    /// manifest's: virtual time and stats must match exactly, or the
    /// replay is flagged divergent.
    fn check_resume_frontier(&mut self) {
        let due = self
            .resume_check
            .as_ref()
            .map(|m| self.waves_committed >= m.frontier)
            .unwrap_or(false);
        if !due {
            return;
        }
        let m = self.resume_check.take().expect("checked above");
        let now_ms = self.clock.now().as_millis();
        let mismatch = if self.waves_committed > m.frontier {
            Some(("frontier", m.frontier, self.waves_committed))
        } else if now_ms != m.now_ms {
            Some(("now_ms", m.now_ms, now_ms))
        } else if self.stats.tasks_run != m.tasks_run {
            Some(("tasks_run", m.tasks_run, self.stats.tasks_run))
        } else if self.stats.revocations != m.revocations {
            Some(("revocations", m.revocations, self.stats.revocations))
        } else if self.stats.checkpoints_written != m.checkpoints_written {
            Some((
                "checkpoints_written",
                m.checkpoints_written,
                self.stats.checkpoints_written,
            ))
        } else {
            None
        };
        match mismatch {
            Some((field, expected, actual)) => {
                self.resume_failed = Some(EngineError::ResumeDiverged {
                    field,
                    expected,
                    actual,
                });
            }
            None => {
                let now = self.clock.now();
                let key = m.store_key();
                let frontier = m.frontier;
                self.trace.emit_with(now, || EventKind::RunResumed {
                    manifest: key.clone(),
                    frontier,
                });
            }
        }
    }

    /// Returns the cluster view.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Returns the checkpoint store.
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.ckpt
    }

    /// Returns the checkpoint store mutably (cost accounting).
    pub fn checkpoints_mut(&mut self) -> &mut CheckpointStore {
        &mut self.ckpt
    }

    /// Returns the cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.config.cost
    }

    /// Replaces the cost model (calibration).
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.config.cost = cost;
    }

    /// Number of queued (not yet written) checkpoint partitions.
    pub fn pending_checkpoints(&self) -> usize {
        self.ckpt_queue.len()
            + self
                .running
                .iter()
                .filter(|r| matches!(r.key, TaskKey::Ckpt(_)))
                .count()
    }

    // ------------------------------------------------------------------
    // Actions
    // ------------------------------------------------------------------

    /// Materializes `r` and returns all its elements in partition order.
    pub fn collect(&mut self, r: RddRef) -> Result<Vec<Value>> {
        let parts = self.run_action(r.id, "collect")?;
        let total = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend_from_slice(&p);
        }
        Ok(out)
    }

    /// Materializes `r` and returns its element count.
    pub fn count(&mut self, r: RddRef) -> Result<u64> {
        let parts = self.run_action(r.id, "count")?;
        Ok(parts.iter().map(|p| p.len() as u64).sum())
    }

    /// Materializes `r` and folds its elements with `f`.
    ///
    /// Returns [`EngineError::EmptyDataset`] if `r` is empty.
    pub fn reduce(&mut self, r: RddRef, f: impl Fn(&Value, &Value) -> Value) -> Result<Value> {
        let parts = self.run_action(r.id, "reduce")?;
        let mut acc: Option<Value> = None;
        for p in parts {
            for v in p.iter() {
                acc = Some(match acc {
                    None => v.clone(),
                    Some(a) => f(&a, v),
                });
            }
        }
        acc.ok_or(EngineError::EmptyDataset)
    }

    /// Materializes `r` and returns up to `n` elements in partition order.
    pub fn take(&mut self, r: RddRef, n: usize) -> Result<Vec<Value>> {
        let parts = self.run_action(r.id, "take")?;
        let mut out = Vec::with_capacity(n);
        for p in parts {
            for v in p.iter() {
                if out.len() >= n {
                    return Ok(out);
                }
                out.push(v.clone());
            }
        }
        Ok(out)
    }

    /// Materializes `r` and returns its first element, if any.
    pub fn first(&mut self, r: RddRef) -> Result<Option<Value>> {
        Ok(self.take(r, 1)?.into_iter().next())
    }

    /// Materializes `r` and returns the `n` smallest elements (by total
    /// order), like Spark's `takeOrdered`.
    pub fn take_ordered(&mut self, r: RddRef, n: usize) -> Result<Vec<Value>> {
        let mut all = self.collect(r)?;
        all.sort();
        all.truncate(n);
        Ok(all)
    }

    /// Materializes a pair RDD and counts elements per key.
    pub fn count_by_key(&mut self, r: RddRef) -> Result<std::collections::BTreeMap<Value, u64>> {
        let parts = self.run_action(r.id, "count_by_key")?;
        let mut counts = std::collections::BTreeMap::new();
        for p in parts {
            for v in p.iter() {
                let key = v.key().cloned().unwrap_or(Value::Null);
                *counts.entry(key).or_insert(0u64) += 1;
            }
        }
        Ok(counts)
    }

    /// Explicitly checkpoints `r` (like Spark's `rdd.checkpoint()` +
    /// materialization): runs a job to materialize it, then enqueues
    /// durable writes and drains them.
    pub fn checkpoint_now(&mut self, r: RddRef) -> Result<()> {
        self.run_action(r.id, "checkpoint")?;
        self.apply_directives(vec![CheckpointDirective::Checkpoint(r.id)]);
        self.drain_checkpoints()?;
        Ok(())
    }

    /// Advances virtual time to `t`, draining checkpoint writes and
    /// processing failure events while "idle" (an interactive session
    /// between queries).
    pub fn idle_until(&mut self, t: SimTime) -> Result<()> {
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(EngineError::JobBudgetExhausted {
                    phase: "idle",
                    iterations,
                });
            }
            if let Some(e) = self.take_interrupt() {
                return Err(e);
            }
            self.poll_hooks();
            self.assign_checkpoint_jobs();
            let now = self.clock.now();
            if now >= t && self.running.is_empty() {
                return Ok(());
            }
            let t_task = self.running.iter().map(|r| r.finish).min();
            let t_inj = self.injector.next_event_after(now);
            let mut next = t;
            if let Some(tt) = t_task {
                next = next.min(tt);
            }
            if let Some(ti) = t_inj {
                next = next.min(ti);
            }
            if next <= now {
                // Running tasks that finish exactly now, or we are done.
                if t_task.map(|tt| tt <= now).unwrap_or(false) {
                    self.advance_and_commit(now);
                    continue;
                }
                if now >= t {
                    // Only tasks beyond `t` remain: let them finish.
                    if let Some(tt) = t_task {
                        self.advance_and_commit(tt);
                        continue;
                    }
                    return Ok(());
                }
                self.clock
                    .advance_to(t.min(next.max(now + SimDuration::from_millis(1))));
                self.pump_injector();
                continue;
            }
            self.advance_and_commit(next);
        }
    }

    // ------------------------------------------------------------------
    // The scheduler loop
    // ------------------------------------------------------------------

    /// Runs a job materializing every partition of `target`, then gathers
    /// the partitions to the driver. Records an [`ActionRecord`].
    fn run_action(&mut self, target: RddId, label: &str) -> Result<Vec<PartitionData>> {
        if !self.ctx.lineage().contains(target) {
            return Err(EngineError::UnknownRdd(target));
        }
        let started = self.clock.now();
        let name = format!("{label}(rdd-{})", target.0);
        self.trace
            .emit_with(started, || EventKind::ActionStarted { name: name.clone() });
        self.pump_injector();
        self.run_job(target)?;
        let parts = self.gather(target)?;
        let finished = self.clock.now();
        self.trace
            .emit_with(finished, || EventKind::ActionFinished {
                name: name.clone(),
                millis: (finished - started).as_millis(),
            });
        self.stats.actions.push(ActionRecord {
            name,
            started,
            finished,
        });
        Ok(parts)
    }

    fn run_job(&mut self, target: RddId) -> Result<()> {
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(EngineError::RetryBudgetExhausted { rdd: target });
            }
            if let Some(e) = self.take_interrupt() {
                return Err(e);
            }

            self.poll_hooks();

            let (ready, done) = self.plan_ready(target);
            #[cfg(test)]
            assert_eq!(
                (ready.clone(), done),
                self.plan_ready_reference(target),
                "planner diverged from the reference planner"
            );
            if done {
                return Ok(());
            }
            self.report_unreadable_shuffles(&ready);

            // Materialize every ready task in parallel against the
            // wave-start snapshot, then admit the results sequentially in
            // fixed task-key order (`plan_ready` yields sorted keys), so
            // scheduling and accounting are bit-identical for any
            // `host_threads` setting. Checkpoint writes follow.
            let pending: Vec<TaskKey> = ready
                .into_iter()
                .filter(|k| !self.in_flight.contains(k))
                .collect();
            let mut assigned_any = false;
            if !pending.is_empty() && self.cluster.alive_count() > 0 {
                self.trace
                    .emit_with(self.clock.now(), || EventKind::WaveStarted {
                        tasks: pending.len() as u64,
                    });
                let outputs = self.compute_wave(&pending);
                for (key, out) in pending.into_iter().zip(outputs) {
                    if let Some(out) = out {
                        if self.admit_task(key, out) {
                            assigned_any = true;
                        }
                    }
                }
            }
            self.assign_checkpoint_jobs();

            let now = self.clock.now();
            let t_task = self.running.iter().map(|r| r.finish).min();
            let t_inj = self.injector.next_event_after(now);

            match (t_task, t_inj) {
                (None, None) => {
                    if !assigned_any {
                        return Err(EngineError::NoWorkers);
                    }
                }
                (None, Some(ti)) => {
                    // Stalled waiting for workers.
                    self.stats.stall_time += ti - now;
                    self.trace.emit_with(now, || EventKind::Stalled {
                        millis: (ti - now).as_millis(),
                    });
                    self.clock.advance_to(ti);
                    self.pump_injector();
                }
                (Some(tt), Some(ti)) if ti < tt => {
                    self.clock.advance_to(ti);
                    self.pump_injector();
                }
                (Some(tt), _) => {
                    self.advance_and_commit(tt);
                }
            }
        }
    }

    /// Advances the clock to `t`, processing injector events at or before
    /// `t` first (ties: revocations beat completions), then committing
    /// every running task that finishes by `t` on a still-alive worker.
    fn advance_and_commit(&mut self, t: SimTime) {
        self.clock.advance_to(t);
        self.pump_injector();
        let mut finished: Vec<Running> = Vec::new();
        let mut rest: Vec<Running> = Vec::new();
        for r in self.running.drain(..) {
            if r.finish <= t {
                finished.push(r);
            } else {
                rest.push(r);
            }
        }
        self.running = rest;
        finished.sort_by_key(|r| (r.finish, r.seq));
        let committed_any = !finished.is_empty();
        for r in finished {
            self.in_flight.remove(&r.key);
            self.commit_task(r);
        }
        if committed_any {
            self.waves_committed += 1;
            if self.config.suspend_after_waves == Some(self.waves_committed) {
                self.pending_suspend = true;
            }
            self.check_resume_frontier();
        }
    }

    /// Delivers all failure-injector events up to the current instant,
    /// interleaving any planted-fault notes (chaos campaigns) into the
    /// trace by time so the stream stays chronologically ordered.
    fn pump_injector(&mut self) {
        let now = self.clock.now();
        if now < self.last_pumped {
            return;
        }
        let from = self.last_pumped;
        let events = self.injector.events(from, now);
        let notes = self.injector.fault_notes(from, now);
        self.last_pumped = now;
        let mut notes = notes.into_iter().peekable();
        for (t, ev) in events {
            while notes.peek().map(|(nt, _, _)| *nt <= t).unwrap_or(false) {
                let (nt, kind, target) = notes.next().expect("peeked");
                self.trace.emit_with(nt, || EventKind::FaultInjected {
                    kind: kind.clone(),
                    target: target.clone(),
                });
            }
            match ev {
                WorkerEvent::Add { ext_id, spec } => {
                    if self.quarantined.contains(&ext_id) {
                        // A flapping instance rejoining: refuse it so
                        // its next revocation cannot strand tasks again.
                        continue;
                    }
                    self.cluster.add_worker(ext_id, spec, t);
                    self.trace
                        .emit_with(t, || EventKind::WorkerAdded { ext: ext_id });
                }
                WorkerEvent::Warn { ext_id } => {
                    self.stats.warnings += 1;
                    self.trace
                        .emit_with(t, || EventKind::RevocationWarning { ext: ext_id });
                    self.hooks.on_warning(ext_id, t);
                }
                WorkerEvent::Remove { ext_id } => {
                    if let Some(wid) = self.cluster.remove_by_ext(ext_id) {
                        self.stats.revocations += 1;
                        self.trace
                            .emit_with(t, || EventKind::WorkerRevoked { ext: ext_id });
                        self.hooks.on_revocation(ext_id, t);
                        self.invalidate_worker(wid);
                        self.note_remove(ext_id, t);
                    }
                }
            }
        }
        for (nt, kind, target) in notes {
            self.trace.emit_with(nt, || EventKind::FaultInjected {
                kind: kind.clone(),
                target: target.clone(),
            });
        }
    }

    /// Flap detection: a worker revoked [`FLAP_THRESHOLD`] times
    /// within [`FLAP_WINDOW`] is quarantined — its
    /// future joins are ignored, so replacement capacity comes from
    /// stable instances instead.
    fn note_remove(&mut self, ext_id: u64, t: SimTime) {
        if self.quarantined.contains(&ext_id) {
            return;
        }
        let times = self.remove_times.entry(ext_id).or_default();
        times.push_back(t);
        while times.front().map(|&f| f + FLAP_WINDOW < t).unwrap_or(false) {
            times.pop_front();
        }
        if times.len() as u32 >= FLAP_THRESHOLD {
            let removes = times.len() as u64;
            self.quarantined.insert(ext_id);
            self.remove_times.remove(&ext_id);
            self.trace.emit_with(t, || EventKind::WorkerQuarantined {
                ext: ext_id,
                removes,
            });
        }
    }

    /// Discards in-flight tasks on a dead worker; checkpoint jobs are
    /// requeued, compute tasks are replanned naturally.
    fn invalidate_worker(&mut self, wid: WorkerId) {
        let mut keep: Vec<Running> = Vec::new();
        for r in self.running.drain(..) {
            if r.worker == wid {
                self.in_flight.remove(&r.key);
                if let TaskKey::Ckpt(job) = r.key {
                    if self.ckpt_queued.insert(job) {
                        self.ckpt_queue.push_back(job);
                    }
                }
            } else {
                keep.push(r);
            }
        }
        self.running = keep;
    }

    // ------------------------------------------------------------------
    // Planning
    // ------------------------------------------------------------------

    fn rdd_part_available(&self, rdd: RddId, part: u32) -> bool {
        // Directory first: the checkpoint probe formats a string key.
        self.cluster
            .locate(&BlockKey::RddPart { rdd, part })
            .is_some()
            || self.ckpt.readable(rdd, part, self.clock.now())
    }

    fn shuffle_block_available(&self, s: ShuffleId, mp: u32) -> bool {
        self.cluster
            .locate(&BlockKey::ShuffleMap {
                shuffle: s,
                map_part: mp,
            })
            .is_some()
            || self.ckpt.shuffle_readable(s, mp, self.clock.now())
    }

    /// Emits the detection/fallback event pair for shuffle checkpoints
    /// the planner just declared unreadable (corrupt or mid-outage):
    /// the scheduled `ShuffleMap` recompute in `ready` is their
    /// fallback. RDD-part fallbacks are reported by the executor at the
    /// restore site; this covers the shuffle side, where "fallback"
    /// means the planner re-runs the map task instead. Deduplicated per
    /// block so replanning iterations do not repeat the pair.
    fn report_unreadable_shuffles(&mut self, ready: &[TaskKey]) {
        let now = self.clock.now();
        for key in ready {
            let TaskKey::ShuffleMap { shuffle, map_part } = *key else {
                continue;
            };
            if !self.ckpt.has_shuffle(shuffle, map_part) {
                continue;
            }
            let Some(fault) = self.ckpt.shuffle_read_fault(shuffle, map_part, now) else {
                continue;
            };
            let block = BlockKey::ShuffleMap { shuffle, map_part }.to_string();
            if !self.corrupt_reported.insert(block.clone()) {
                continue;
            }
            if fault == ReadFault::Corrupt {
                self.trace
                    .emit_with(now, || EventKind::CheckpointCorruptDetected {
                        block: block.clone(),
                    });
            }
            self.trace.emit_with(now, || EventKind::RestoreFallback {
                block: block.clone(),
                reason: match fault {
                    ReadFault::Corrupt => "corrupt",
                    ReadFault::Unavailable => "outage",
                }
                .to_string(),
            });
        }
    }

    /// Collects the input shuffles that block computing `(rdd, part)`
    /// through its narrow cone: those with at least one missing map
    /// output. `missing` memoizes each shuffle's missing map parts for
    /// one planning pass, so a shuffle is probed once, not once per
    /// reduce partition.
    fn missing_deps(
        &self,
        rdd: RddId,
        part: u32,
        missing: &mut HashMap<ShuffleId, Vec<u32>>,
        blocked: &mut Vec<ShuffleId>,
    ) {
        if self.rdd_part_available(rdd, part) {
            return;
        }
        let meta = self.ctx.lineage().meta(rdd);
        match &meta.op {
            RddOp::Parallelize { .. } => {}
            RddOp::Union => {
                let (p, pp) = self.ctx.lineage().union_source(rdd, part);
                self.missing_deps(p, pp, missing, blocked);
            }
            RddOp::Coalesce { group } => {
                let parent = meta.parents[0];
                let n = self.ctx.lineage().meta(parent).num_partitions;
                let lo = part * group;
                let hi = (lo + group).min(n);
                for pp in lo..hi {
                    self.missing_deps(parent, pp, missing, blocked);
                }
            }
            op if op.is_shuffle() => {
                for s in op.input_shuffles() {
                    let parts = missing.entry(s).or_insert_with(|| {
                        let parent = self.ctx.lineage().shuffle(s).parent;
                        let m = self.ctx.lineage().meta(parent).num_partitions;
                        (0..m)
                            .filter(|&mp| !self.shuffle_block_available(s, mp))
                            .collect()
                    });
                    if !parts.is_empty() {
                        blocked.push(s);
                    }
                }
            }
            _ => {
                // Narrow single-parent ops are partition-aligned.
                let parent = meta.parents[0];
                self.missing_deps(parent, part, missing, blocked);
            }
        }
    }

    /// Returns the currently runnable tasks for `target`, and whether the
    /// target is fully available.
    ///
    /// A breadth-first walk from the target's missing partitions: a
    /// task is ready when nothing blocks it, and otherwise the missing
    /// map tasks of each blocking shuffle join the walk — once per
    /// shuffle per pass, so no task is enqueued twice. One pass costs
    /// O(P + ΣM) directory lookups for P target partitions and M map
    /// outputs per reachable shuffle.
    fn plan_ready(&self, target: RddId) -> (Vec<TaskKey>, bool) {
        let n = self.ctx.lineage().meta(target).num_partitions;
        let mut queue: VecDeque<TaskKey> = (0..n)
            .filter(|p| !self.rdd_part_available(target, *p))
            .map(|part| TaskKey::Output { rdd: target, part })
            .collect();
        if queue.is_empty() {
            return (Vec::new(), true);
        }
        let mut missing: HashMap<ShuffleId, Vec<u32>> = HashMap::new();
        let mut expanded: HashSet<ShuffleId> = HashSet::new();
        let mut blocked: Vec<ShuffleId> = Vec::new();
        let mut ready: BTreeSet<TaskKey> = BTreeSet::new();
        while let Some(task) = queue.pop_front() {
            let (rdd, part) = match task {
                TaskKey::Output { rdd, part } => (rdd, part),
                TaskKey::ShuffleMap { shuffle, map_part } => {
                    (self.ctx.lineage().shuffle(shuffle).parent, map_part)
                }
                TaskKey::Ckpt(_) => continue,
            };
            self.missing_deps(rdd, part, &mut missing, &mut blocked);
            // A shuffle-map task for an *available* parent partition still
            // needs to run (to produce the map output block); nothing
            // blocks it by construction.
            if blocked.is_empty() {
                ready.insert(task);
            }
            for s in blocked.drain(..) {
                if expanded.insert(s) {
                    queue.extend(missing[&s].iter().map(|&mp| TaskKey::ShuffleMap {
                        shuffle: s,
                        map_part: mp,
                    }));
                }
            }
        }
        (ready.into_iter().collect(), false)
    }

    /// The planner before the per-pass memo, kept as the oracle the
    /// engine's unit tests check [`Driver::plan_ready`] against after
    /// every scheduler-loop iteration.
    #[cfg(test)]
    fn plan_ready_reference(&self, target: RddId) -> (Vec<TaskKey>, bool) {
        let n = self.ctx.lineage().meta(target).num_partitions;
        let missing: Vec<u32> = (0..n)
            .filter(|p| !self.rdd_part_available(target, *p))
            .collect();
        if missing.is_empty() {
            return (Vec::new(), true);
        }
        let mut ready: BTreeSet<TaskKey> = BTreeSet::new();
        let mut seen: BTreeSet<TaskKey> = BTreeSet::new();
        let mut queue: VecDeque<TaskKey> = missing
            .into_iter()
            .map(|part| TaskKey::Output { rdd: target, part })
            .collect();
        while let Some(task) = queue.pop_front() {
            if !seen.insert(task) {
                continue;
            }
            let (rdd, part) = match task {
                TaskKey::Output { rdd, part } => (rdd, part),
                TaskKey::ShuffleMap { shuffle, map_part } => {
                    (self.ctx.lineage().shuffle(shuffle).parent, map_part)
                }
                TaskKey::Ckpt(_) => continue,
            };
            let mut deps = BTreeSet::new();
            self.missing_deps_reference(rdd, part, &mut deps);
            // A shuffle-map task for an *available* parent partition still
            // needs to run (to produce the map output block); its deps are
            // then empty by construction.
            if deps.is_empty() {
                ready.insert(task);
            } else {
                for (s, mp) in deps {
                    queue.push_back(TaskKey::ShuffleMap {
                        shuffle: s,
                        map_part: mp,
                    });
                }
            }
        }
        (ready.into_iter().collect(), false)
    }

    /// Collects missing shuffle inputs for computing `(rdd, part)`
    /// through its narrow cone (the reference planner's probe).
    #[cfg(test)]
    fn missing_deps_reference(&self, rdd: RddId, part: u32, acc: &mut BTreeSet<(ShuffleId, u32)>) {
        if self.rdd_part_available(rdd, part) {
            return;
        }
        let meta = self.ctx.lineage().meta(rdd);
        match &meta.op {
            RddOp::Parallelize { .. } => {}
            RddOp::Union => {
                let (p, pp) = self.ctx.lineage().union_source(rdd, part);
                self.missing_deps_reference(p, pp, acc);
            }
            RddOp::Coalesce { group } => {
                let parent = meta.parents[0];
                let n = self.ctx.lineage().meta(parent).num_partitions;
                let lo = part * group;
                let hi = (lo + group).min(n);
                for pp in lo..hi {
                    self.missing_deps_reference(parent, pp, acc);
                }
            }
            op if op.is_shuffle() => {
                for s in op.input_shuffles() {
                    let parent = self.ctx.lineage().shuffle(s).parent;
                    let m = self.ctx.lineage().meta(parent).num_partitions;
                    for mp in 0..m {
                        if !self.shuffle_block_available(s, mp) {
                            acc.insert((s, mp));
                        }
                    }
                }
            }
            _ => {
                // Narrow single-parent ops are partition-aligned.
                let parent = meta.parents[0];
                self.missing_deps_reference(parent, part, acc);
            }
        }
    }

    // ------------------------------------------------------------------
    // Assignment & commit
    // ------------------------------------------------------------------

    /// Prefers the worker already caching the narrow-chain input of
    /// `(rdd, part)`.
    fn preferred_worker(&self, rdd: RddId, part: u32) -> Option<WorkerId> {
        let mut cur = (rdd, part);
        loop {
            if let Some((wid, _, _)) = self.cluster.locate(&BlockKey::RddPart {
                rdd: cur.0,
                part: cur.1,
            }) {
                return Some(wid);
            }
            let meta = self.ctx.lineage().meta(cur.0);
            match &meta.op {
                RddOp::Union => {
                    cur = self.ctx.lineage().union_source(cur.0, cur.1);
                }
                RddOp::Coalesce { group } => {
                    cur = (meta.parents[0], cur.1 * group);
                }
                op if op.is_shuffle() || matches!(op, RddOp::Parallelize { .. }) => {
                    return None;
                }
                _ => {
                    cur = (meta.parents[0], cur.1);
                }
            }
        }
    }

    fn pick_worker(&self, prefer: Option<WorkerId>) -> Option<WorkerId> {
        let alive = self.cluster.alive();
        if alive.is_empty() {
            return None;
        }
        let now = self.clock.now();
        let least_loaded = alive
            .into_iter()
            .min_by_key(|w| (self.cluster.worker(*w).earliest_free(now), w.0))?;
        if let Some(p) = prefer {
            let pw = self.cluster.worker(p);
            if pw.is_alive() {
                // Delay scheduling (Spark-style bounded locality wait):
                // prefer the data-local worker unless it is backed up well
                // past the least-loaded one — then eat the network fetch
                // rather than pile tasks onto one node's cores.
                let locality_wait = SimDuration::from_secs(3);
                if pw.earliest_free(now)
                    <= self.cluster.worker(least_loaded).earliest_free(now) + locality_wait
                {
                    return Some(p);
                }
            }
        }
        Some(least_loaded)
    }

    /// Replaces the failure injector and the suspension wave of a
    /// freshly built driver — the worker-fault half of a chaos session
    /// (see [`crate::run_chaos`]).
    pub(crate) fn install_faults(
        &mut self,
        injector: Box<dyn FailureInjector>,
        suspend_after_waves: Option<u64>,
    ) {
        self.injector = injector;
        self.config.suspend_after_waves = suspend_after_waves;
    }

    /// Attaches the shared trace handle; the driver emits all engine
    /// lifecycle events on it, in commit order.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The driver's trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Installs the execution backend. The default
    /// [`TransientVmBackend`] is a guaranteed no-op, so calling this
    /// with it (or never calling it) leaves every trace byte-identical
    /// to the pre-abstraction engine. Install before running actions:
    /// swapping backends mid-job would orphan in-flight invocations.
    pub fn set_backend(&mut self, backend: Box<dyn Backend>) {
        self.backend = backend;
    }

    /// The installed execution backend.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// Emits the cache-churn events for one traced block insert: any
    /// spills and evictions the insert forced, then the insert itself.
    fn emit_cache(&self, t: SimTime, ext: u64, key: BlockKey, vbytes: u64, out: &InsertOutcome) {
        if !self.trace.is_enabled() {
            return;
        }
        for (bk, vb) in &out.spilled {
            self.trace.emit(
                t,
                EventKind::CacheSpill {
                    worker: ext,
                    block: bk.to_string(),
                    vbytes: *vb,
                },
            );
        }
        for (bk, vb) in &out.dropped {
            self.trace.emit(
                t,
                EventKind::CacheEvict {
                    worker: ext,
                    block: bk.to_string(),
                    vbytes: *vb,
                },
            );
        }
        if out.stored {
            self.trace.emit(
                t,
                EventKind::CacheInsert {
                    worker: ext,
                    block: key.to_string(),
                    vbytes,
                },
            );
        }
    }

    /// Builds the immutable snapshot the wave executor's host threads
    /// read. Borrowing rules guarantee the snapshot cannot change while a
    /// wave is computing.
    fn wave_ctx(&self) -> WaveCtx<'_> {
        WaveCtx {
            lineage: self.ctx.lineage(),
            cluster: &self.cluster,
            ckpt: &self.ckpt,
            cost: &self.config.cost,
            computed_once: &self.computed_once,
            range_cache: &self.range_cache,
            now: self.clock.now(),
            trace_enabled: self.trace.is_enabled(),
            columnar: self.config.columnar,
        }
    }

    /// Materializes a wave of compute tasks in parallel. Outputs come
    /// back in input order; `None` marks a transient shuffle miss.
    fn compute_wave(&self, keys: &[TaskKey]) -> Vec<Option<TaskOutput>> {
        let ctx = self.wave_ctx();
        executor::run_wave(self.config.host_threads, keys, |k| {
            executor::compute_task(&ctx, *k)
        })
    }

    /// Serializes a wave of checkpoint jobs in parallel. `None` marks a
    /// vanished payload (dropped silently, as the job is replanned or
    /// moot).
    fn compute_ckpt_wave(&self, jobs: &[CkptJob]) -> Vec<Option<TaskOutput>> {
        let ctx = self.wave_ctx();
        executor::run_wave(self.config.host_threads, jobs, |j| {
            executor::compute_ckpt(&ctx, *j)
        })
    }

    /// Applies a computed task's recorded side effects — stat deltas,
    /// resolved range partitioners, `computed_once` entries, and deferred
    /// cache mutations — against the now-chosen `worker`, and prices the
    /// task's network reads (charged only when the source worker is not
    /// the executing one). Runs on the driver thread, in admission order.
    fn apply_output_effects(&mut self, out: &TaskOutput, worker: WorkerId) -> SimDuration {
        self.stats.restores += out.restores;
        self.stats.restore_time += out.restore_time;
        self.stats.recompute_time += out.recompute_time;
        let now = self.clock.now();
        if self.trace.is_enabled() {
            // Compute-phase events were buffered in the effect ledger;
            // replaying them here (admission order) keeps the stream
            // identical for every `host_threads` setting.
            for ev in &out.events {
                self.trace.emit(now, ev.clone());
            }
        }
        for (s, rp) in &out.resolved {
            // First admitted resolution wins; later tasks resolved the
            // same bounds from the same snapshot. The winning insert also
            // converts the shuffle's resident map blocks to bucketed
            // form, so subsequent waves take the O(1) fetch path.
            if !self.range_cache.contains_key(s) {
                self.range_cache.insert(*s, rp.clone());
                self.bucketize_resolved_shuffle(*s, rp);
            }
        }
        for cp in &out.computed {
            self.computed_once.insert(*cp);
        }
        for e in &out.effects {
            match e {
                CacheEffect::Touch(wid, bk) => self.cluster.touch(*wid, bk),
                CacheEffect::TouchLocal(bk) => self.cluster.touch(worker, bk),
                CacheEffect::Insert(bk, data, vb) => {
                    let w = self.cluster.worker(worker);
                    if w.is_alive() {
                        let ext = w.ext_id;
                        let outcome = self.cluster.insert_block(worker, *bk, data.clone(), *vb);
                        self.emit_cache(now, ext, *bk, *vb, &outcome);
                    }
                }
            }
        }
        let mut net = SimDuration::ZERO;
        for f in &out.net {
            if f.source != worker {
                net += self.config.cost.net_time(f.vbytes);
            }
        }
        net
    }

    /// Converts a freshly-resolved range shuffle's resident map blocks —
    /// cluster caches and durable snapshots — from flat to bucketed
    /// form, in place.
    ///
    /// Runs exactly once per shuffle, at the deterministic admission
    /// point where the partitioner enters `range_cache`, so every wave
    /// snapshot sees either all-flat (pre-resolution) or bucketed state.
    /// The conversion preserves record multisets, virtual sizes, LRU
    /// stamps, and the eviction clock, so cache behavior and all
    /// accounting are bit-identical to a run that never converted; map
    /// blocks recomputed after this point bucket eagerly in
    /// `compute_task` instead.
    fn bucketize_resolved_shuffle(&mut self, s: ShuffleId, rp: &RangePartitioner) {
        let parent = self.ctx.lineage().shuffle(s).parent;
        let m = self.ctx.lineage().meta(parent).num_partitions;
        for mp in 0..m {
            let bk = BlockKey::ShuffleMap {
                shuffle: s,
                map_part: mp,
            };
            let convert = |bd: &BlockData| match bd {
                BlockData::Flat(d) => Some(BlockData::Bucketed(Arc::new(
                    BucketedBlock::partition(d, rp),
                ))),
                // Already bucketed: nothing to do, skip the write.
                // Columnar cannot occur: range shuffle map outputs are
                // forced to row form until resolution.
                BlockData::Bucketed(_) | BlockData::Columnar(_) => None,
            };
            self.cluster.replace_payload_everywhere(&bk, convert);
            self.ckpt.replace_shuffle_payload(s, mp, convert);
        }
    }

    /// Admits one computed task: picks the worker, applies the recorded
    /// effects, prices network time, and reserves a core. Returns `false`
    /// if no worker is available.
    fn admit_task(&mut self, key: TaskKey, out: TaskOutput) -> bool {
        let (rdd, part, commit) = match key {
            TaskKey::Output { rdd, part } => {
                (rdd, part, Commit::Block(BlockKey::RddPart { rdd, part }))
            }
            TaskKey::ShuffleMap { shuffle, map_part } => {
                let parent = self.ctx.lineage().shuffle(shuffle).parent;
                (
                    parent,
                    map_part,
                    Commit::Block(BlockKey::ShuffleMap { shuffle, map_part }),
                )
            }
            TaskKey::Ckpt(_) => return false,
        };
        let Some(worker) = self.pick_worker(self.preferred_worker(rdd, part)) else {
            return false;
        };
        let net = self.apply_output_effects(&out, worker);
        let mut dur = out.base_dur + net + self.config.cost.task_overhead;
        // Under external shuffle transport the map output is written to
        // the durable store at commit; the producing task pays the
        // store-write time up front (reducers pay the store read in
        // `fetch_shuffle_bucket`, exactly like a checkpointed shuffle).
        if self.backend.shuffle_transport() == ShuffleTransport::ExternalStore
            && matches!(key, TaskKey::ShuffleMap { .. })
        {
            dur += self.ckpt.config().write_time(out.vbytes, 1);
        }
        let now = self.clock.now();
        // Core choice and start instant from an immutable view first, so
        // the backend hook (which needs `&mut self.backend`) can observe
        // the start before the reservation is written back.
        let (core, start) = {
            let w = self.cluster.worker(worker);
            let core = w.earliest_free_core();
            (core, w.cores_busy_until[core].max(now))
        };
        let mut invocation = 0;
        if let Some(inv) = self.backend.on_task_admitted(worker, start) {
            invocation = inv.invocation;
            dur += inv.overhead;
            let ext = self.cluster.worker(worker).ext_id;
            self.trace.emit_with(now, || EventKind::InvocationStarted {
                invocation: inv.invocation,
                worker: ext,
                cold_ms: inv.cold_ms,
            });
        }
        let finish = start + dur;
        self.cluster.worker_mut(worker).cores_busy_until[core] = finish;
        self.task_seq += 1;
        self.running.push(Running {
            key,
            worker,
            finish,
            data: out.data,
            vbytes: out.vbytes,
            duration: dur,
            commit,
            touched: out.touched,
            seq: self.task_seq,
            invocation,
        });
        self.in_flight.insert(key);
        true
    }

    /// True when a queued checkpoint job needs no work: it is already in
    /// flight or its object is already durable.
    fn ckpt_satisfied(&self, job: CkptJob) -> bool {
        if self.in_flight.contains(&TaskKey::Ckpt(job)) {
            return true;
        }
        match job {
            CkptJob::RddPart(rdd, part) => self.ckpt.has(rdd, part),
            CkptJob::Shuffle(s, mp) => self.ckpt.has_shuffle(s, mp),
        }
    }

    /// Assigns every queued checkpoint write to a worker core. The
    /// serialization walks and any payload materialization run on the
    /// wave executor's host threads; admission (worker choice, core
    /// reservation, contention stalls) stays in queue order on the driver
    /// thread.
    fn assign_checkpoint_jobs(&mut self) {
        if self.ckpt_queue.is_empty() || self.cluster.alive_count() == 0 {
            return; // keep the queue intact until workers exist
        }
        let mut todo: Vec<CkptJob> = Vec::with_capacity(self.ckpt_queue.len());
        while let Some(job) = self.ckpt_queue.pop_front() {
            if !self.ckpt_satisfied(job) {
                todo.push(job);
            }
        }
        self.ckpt_queued.clear();
        if todo.is_empty() {
            return;
        }
        let outputs = self.compute_ckpt_wave(&todo);
        for (job, out) in todo.into_iter().zip(outputs) {
            // A vanished payload (dead shuffle block, missing shuffle
            // input) is dropped silently; the partition is replanned or
            // moot.
            let Some(out) = out else { continue };
            if !self.admit_ckpt(job, out) && self.ckpt_queued.insert(job) {
                // Lost the worker between compute and admit: requeue.
                self.ckpt_queue.push_back(job);
            }
        }
    }

    /// Admits one serialized checkpoint job. Returns `false` if no worker
    /// can host the write.
    fn admit_ckpt(&mut self, job: CkptJob, out: TaskOutput) -> bool {
        let worker = match job {
            CkptJob::RddPart(rdd, part) => {
                match self.pick_worker(self.preferred_worker(rdd, part)) {
                    Some(w) => w,
                    None => return false,
                }
            }
            // A shuffle snapshot is written by the worker holding the
            // map output block.
            CkptJob::Shuffle(..) => match out.source {
                Some(w) if self.cluster.worker(w).is_alive() => w,
                _ => return false,
            },
        };
        // Materialization time (including network reads) is discarded:
        // Flint's checkpoint tasks capture partitions as they are
        // produced (§4), so no recomputation is charged — but bookkeeping
        // side effects (restores, cache inserts, LRU bumps) still apply.
        let _net = self.apply_output_effects(&out, worker);
        // Durable-write bandwidth is a per-NODE resource shared by all
        // cores; with one writer per core, each sees 1/cores of the
        // node's EBS bandwidth.
        let cores = u64::from(self.cluster.worker(worker).spec.cores.max(1));
        let write = self.ckpt.config().write_time(out.vbytes * cores, 1);
        self.start_ckpt_task(TaskKey::Ckpt(job), worker, out, write, job);
        true
    }

    fn start_ckpt_task(
        &mut self,
        key: TaskKey,
        worker: WorkerId,
        out: TaskOutput,
        dur: SimDuration,
        job: CkptJob,
    ) {
        let mut dur = dur;
        let now = self.clock.now();
        let contention = self.config.cost.ckpt_contention.clamp(0.0, 1.0);
        // The write saturates the node's shared EBS/NIC bandwidth,
        // stalling concurrent compute on its sibling cores. The stall
        // models the write itself, so invocation startup overhead
        // (added below) is excluded.
        let stall = dur.mul_f64(contention);
        let (core, start) = {
            let w = self.cluster.worker(worker);
            let core = w.earliest_free_core();
            (core, w.cores_busy_until[core].max(now))
        };
        let mut invocation = 0;
        if let Some(inv) = self.backend.on_task_admitted(worker, start) {
            invocation = inv.invocation;
            dur += inv.overhead;
            let ext = self.cluster.worker(worker).ext_id;
            self.trace.emit_with(now, || EventKind::InvocationStarted {
                invocation: inv.invocation,
                worker: ext,
                cold_ms: inv.cold_ms,
            });
        }
        let finish = start + dur;
        let w = self.cluster.worker_mut(worker);
        w.cores_busy_until[core] = finish;
        for (i, busy) in w.cores_busy_until.iter_mut().enumerate() {
            if i != core {
                *busy = (*busy).max(now) + stall;
            }
        }
        self.task_seq += 1;
        self.running.push(Running {
            key,
            worker,
            finish,
            data: out.data,
            vbytes: out.vbytes,
            duration: dur,
            commit: Commit::Checkpoint {
                job,
                wire: out.wire,
            },
            touched: out.touched,
            seq: self.task_seq,
            invocation,
        });
        self.in_flight.insert(key);
    }

    fn commit_task(&mut self, mut r: Running) {
        let now = self.clock.now();
        // Per-invocation billing fires for every commit, in commit
        // order — also for checkpoint tasks and for writes the store
        // subsequently faults (the invocation ran either way). The VM
        // backend returns `None` here, so this is a no-op for it.
        if let Some(bill) = self
            .backend
            .on_task_committed(r.invocation, r.worker, r.duration, now)
        {
            let invocation = r.invocation;
            self.trace.emit_with(now, || EventKind::InvocationBilled {
                invocation,
                gb_seconds: bill.gb_seconds,
                cost: bill.cost,
            });
        }
        match r.commit {
            Commit::Block(key) => {
                self.stats.tasks_run += 1;
                self.stats.compute_time += r.duration;
                let ext = self.cluster.worker(r.worker).ext_id;
                self.trace.emit_with(now, || {
                    let (kind, id, part) = match r.key {
                        TaskKey::ShuffleMap { shuffle, map_part } => {
                            ("shuffle", u64::from(shuffle.0), u64::from(map_part))
                        }
                        TaskKey::Output { rdd, part } => {
                            ("output", u64::from(rdd.0), u64::from(part))
                        }
                        TaskKey::Ckpt(_) => unreachable!("ckpt tasks commit as Checkpoint"),
                    };
                    EventKind::TaskFinished {
                        kind: kind.to_string(),
                        id,
                        part,
                        worker: ext,
                        millis: r.duration.as_millis(),
                    }
                });
                let external_shuffle = self.backend.shuffle_transport()
                    == ShuffleTransport::ExternalStore
                    && matches!(key, BlockKey::ShuffleMap { .. });
                if let (
                    true,
                    BlockKey::ShuffleMap {
                        shuffle: s,
                        map_part: mp,
                    },
                ) = (external_shuffle, key)
                {
                    // Serverless invocations cannot serve remote reads
                    // after returning: the map output goes to the
                    // durable store instead of worker memory. Reducers
                    // find it via `shuffle_block_available` /
                    // `fetch_shuffle_bucket`'s existing store path. A
                    // failed write leaves nothing durable and the
                    // planner re-runs the map task.
                    let fault = self.ckpt.put_shuffle(s, mp, r.data, r.vbytes, now);
                    match fault {
                        WriteFault::Fail => {
                            self.trace.emit_with(now, || EventKind::FaultInjected {
                                kind: "shuffle_ext_fail".to_string(),
                                target: key.to_string(),
                            });
                        }
                        WriteFault::Torn => {
                            self.trace.emit_with(now, || EventKind::FaultInjected {
                                kind: "shuffle_ext_torn".to_string(),
                                target: key.to_string(),
                            });
                        }
                        WriteFault::None => {}
                    }
                    if fault != WriteFault::Fail {
                        let vbytes = r.vbytes;
                        self.trace
                            .emit_with(now, || EventKind::ShuffleExternalized {
                                shuffle: u64::from(s.0),
                                map_part: u64::from(mp),
                                vbytes,
                            });
                    }
                } else if self.cluster.worker(r.worker).is_alive() {
                    let outcome = self.cluster.insert_block(r.worker, key, r.data, r.vbytes);
                    self.emit_cache(now, ext, key, r.vbytes, &outcome);
                }
                if let BlockKey::RddPart { rdd, part } = key {
                    self.computed_once.insert((rdd, part));
                }
                // Record sizes and fire materialization hooks
                // *interleaved* in chain order (ancestors before
                // descendants), so each RDD is observed at its
                // execution-frontier moment — before its own child's
                // completion is visible — the paper's mark-on-generation.
                for (rdd, part, bytes) in r.touched {
                    self.ctx
                        .lineage_mut()
                        .record_partition_size(rdd, part, bytes);
                    self.fire_materialized(rdd, now);
                }
            }
            Commit::Checkpoint { job, wire } => {
                self.apply_touched(std::mem::take(&mut r.touched), now);
                let block = match job {
                    CkptJob::RddPart(rdd, part) => BlockKey::RddPart { rdd, part }.to_string(),
                    CkptJob::Shuffle(shuffle, map_part) => {
                        BlockKey::ShuffleMap { shuffle, map_part }.to_string()
                    }
                };
                let fault = match job {
                    CkptJob::RddPart(rdd, part) => {
                        let n = self.ctx.lineage().meta(rdd).num_partitions;
                        self.ckpt.put(rdd, part, n, r.data, r.vbytes, now)
                    }
                    CkptJob::Shuffle(s, mp) => self.ckpt.put_shuffle(s, mp, r.data, r.vbytes, now),
                };
                match fault {
                    WriteFault::Fail => {
                        // The store dropped the object: nothing durable
                        // exists, so neither the written event nor the
                        // checkpoint stats fire (keeping the trace
                        // aggregate consistent with `RunStats`).
                        self.trace.emit_with(now, || EventKind::FaultInjected {
                            kind: "ckpt_write_fail".to_string(),
                            target: block.clone(),
                        });
                        return;
                    }
                    WriteFault::Torn => {
                        // The write "succeeded" from the client's view;
                        // the note records the planted corruption the
                        // restore-time integrity check will catch.
                        self.trace.emit_with(now, || EventKind::FaultInjected {
                            kind: "ckpt_torn".to_string(),
                            target: block.clone(),
                        });
                    }
                    WriteFault::None => {}
                }
                self.stats.checkpoint_time += r.duration;
                self.stats.checkpoints_written += 1;
                self.stats.checkpoint_bytes += r.vbytes;
                self.stats.checkpoint_wire_bytes += wire;
                self.trace.emit_with(now, || EventKind::CheckpointWritten {
                    block: block.clone(),
                    vbytes: r.vbytes,
                    wire_bytes: wire,
                    millis: r.duration.as_millis(),
                });
                if let CkptJob::RddPart(rdd, part) = job {
                    self.hooks
                        .on_checkpoint_written(rdd, part, r.vbytes, r.duration, now);
                    if self.ckpt.is_fully_checkpointed(rdd) {
                        // Paper §4: checkpointing an RDD terminates its
                        // lineage; ancestors' checkpoints become garbage.
                        let deleted = self.ckpt.gc(self.ctx.lineage(), now);
                        if deleted > 0 {
                            self.trace.emit_with(now, || EventKind::CheckpointGc {
                                rdd: u64::from(rdd.0),
                                blocks: deleted as u64,
                            });
                        }
                    }
                }
            }
        }
    }

    /// Records computed partition sizes in chain order.
    fn apply_touched(&mut self, touched: Vec<(RddId, u32, u64)>, _now: SimTime) {
        for (rdd, part, bytes) in touched {
            self.ctx
                .lineage_mut()
                .record_partition_size(rdd, part, bytes);
        }
    }

    /// Fires the materialization hook for `rdd` the first time it becomes
    /// fully materialized.
    fn fire_materialized(&mut self, rdd: RddId, now: SimTime) {
        if self.fired_materialized.contains(&rdd) || !self.ctx.lineage().is_fully_materialized(rdd)
        {
            return;
        }
        self.fired_materialized.insert(rdd);
        let view = LineageView {
            lineage: self.ctx.lineage(),
            checkpoints: &self.ckpt,
            alive_workers: self.cluster.alive_count(),
            cost: &self.config.cost,
            storage: self.ckpt.config(),
        };
        let directives = self
            .hooks
            .on_rdd_materialized(&view, &mut self.trace, rdd, now);
        self.apply_directives(directives);
    }

    fn poll_hooks(&mut self) {
        let now = self.clock.now();
        let view = LineageView {
            lineage: self.ctx.lineage(),
            checkpoints: &self.ckpt,
            alive_workers: self.cluster.alive_count(),
            cost: &self.config.cost,
            storage: self.ckpt.config(),
        };
        let directives = self.hooks.poll(&view, &mut self.trace, now);
        self.apply_directives(directives);
    }

    fn apply_directives(&mut self, directives: Vec<CheckpointDirective>) {
        for d in directives {
            match d {
                CheckpointDirective::Checkpoint(rdd) => {
                    if !self.ctx.lineage().contains(rdd) {
                        continue;
                    }
                    if !self.marked_ckpt.insert(rdd) {
                        continue;
                    }
                    let n = self.ctx.lineage().meta(rdd).num_partitions;
                    let mut enqueued = 0u64;
                    for part in 0..n {
                        if !self.ckpt.has(rdd, part) {
                            let job = CkptJob::RddPart(rdd, part);
                            if self.ckpt_queued.insert(job) {
                                self.ckpt_queue.push_back(job);
                                enqueued += 1;
                            }
                        }
                    }
                    if self.trace.is_enabled() {
                        let view = LineageView {
                            lineage: self.ctx.lineage(),
                            checkpoints: &self.ckpt,
                            alive_workers: self.cluster.alive_count(),
                            cost: &self.config.cost,
                            storage: self.ckpt.config(),
                        };
                        let delta_ms = view.checkpoint_delta(rdd).as_millis();
                        self.trace.emit(
                            self.clock.now(),
                            EventKind::CheckpointScheduled {
                                rdd: u64::from(rdd.0),
                                parts: enqueued,
                                delta_ms,
                            },
                        );
                    }
                }
                CheckpointDirective::CheckpointAllCached => {
                    let snap = self.cluster.snapshot();
                    for (_, key, _) in snap.blocks {
                        let job = match key {
                            BlockKey::RddPart { rdd, part } => {
                                if self.ckpt.has(rdd, part) {
                                    continue;
                                }
                                CkptJob::RddPart(rdd, part)
                            }
                            BlockKey::ShuffleMap { shuffle, map_part } => {
                                if self.ckpt.has_shuffle(shuffle, map_part) {
                                    continue;
                                }
                                CkptJob::Shuffle(shuffle, map_part)
                            }
                        };
                        if self.ckpt_queued.insert(job) {
                            self.ckpt_queue.push_back(job);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Gather
    // ------------------------------------------------------------------

    /// Waits (in virtual time) until a *present* checkpoint of
    /// `(rdd, part)` is restorable. Transient outages are retried with
    /// capped exponential backoff; a corrupt object returns `Ok(false)`
    /// (with the detection/fallback event pair) so the caller falls
    /// back to cluster state or recomputation — corrupt bytes are never
    /// served. Exhausting the retry budget returns
    /// [`EngineError::StoreUnavailable`].
    fn await_store_readable(&mut self, rdd: RddId, part: u32) -> Result<bool> {
        let mut attempt = 0u64;
        loop {
            match self.ckpt.read_fault(rdd, part, self.clock.now()) {
                None => return Ok(true),
                Some(ReadFault::Corrupt) => {
                    let now = self.clock.now();
                    let block = BlockKey::RddPart { rdd, part }.to_string();
                    if self.corrupt_reported.insert(block.clone()) {
                        self.trace
                            .emit_with(now, || EventKind::CheckpointCorruptDetected {
                                block: block.clone(),
                            });
                        self.trace.emit_with(now, || EventKind::RestoreFallback {
                            block: block.clone(),
                            reason: "corrupt".to_string(),
                        });
                    }
                    return Ok(false);
                }
                Some(ReadFault::Unavailable) => {
                    let retry = self.config.store_retry;
                    if retry.exhausted(attempt) {
                        return Err(EngineError::StoreUnavailable { retries: attempt });
                    }
                    let wait_ms = retry.delay(attempt).as_millis();
                    attempt += 1;
                    self.trace
                        .emit_with(self.clock.now(), || EventKind::BackoffScheduled {
                            attempt,
                            millis: wait_ms,
                        });
                    self.clock.advance(SimDuration::from_millis(wait_ms));
                    self.pump_injector();
                }
            }
        }
    }

    /// Fetches every partition of `target` to the driver, charging
    /// parallel transfer time. A vanished block (same-instant
    /// revocation) re-runs the job, within [`GATHER_RETRIES`] attempts.
    fn gather(&mut self, target: RddId) -> Result<Vec<PartitionData>> {
        let mut attempt = 0u64;
        loop {
            let n = self.ctx.lineage().meta(target).num_partitions;
            let mut parts = Vec::with_capacity(n as usize);
            let mut total_vb = 0u64;
            let mut ok = true;
            for p in 0..n {
                if self.ckpt.has(target, p) && self.await_store_readable(target, p)? {
                    let d = self.ckpt.get(target, p).expect("bitmap agrees").clone();
                    total_vb += self.ckpt.size_of(target, p).unwrap_or(0);
                    self.stats.restores += 1;
                    // Gather reads count as restores but charge no restore
                    // time (the transfer is priced below), hence millis: 0.
                    self.trace
                        .emit_with(self.clock.now(), || EventKind::Restored {
                            block: BlockKey::RddPart {
                                rdd: target,
                                part: p,
                            }
                            .to_string(),
                            millis: 0,
                        });
                    parts.push(d);
                } else if let Some((_, d, _, vb)) = self.cluster.fetch(&BlockKey::RddPart {
                    rdd: target,
                    part: p,
                }) {
                    total_vb += vb;
                    parts.push(d.rows().expect("RDD partition blocks decode to rows"));
                } else {
                    ok = false;
                    break;
                }
            }
            if ok {
                // Workers stream to the driver in parallel.
                let streams = self.cluster.alive_count().max(1) as u64;
                let dur = self.config.cost.net_time(total_vb / streams);
                self.clock.advance(dur);
                return Ok(parts);
            }
            // A block vanished between job completion and gather (e.g. a
            // same-instant revocation): re-run the job.
            attempt += 1;
            if attempt >= GATHER_RETRIES {
                break;
            }
            self.run_job(target)?;
        }
        Err(EngineError::RetryBudgetExhausted { rdd: target })
    }

    /// Drains the checkpoint queue to completion (used by explicit
    /// `checkpoint_now`).
    fn drain_checkpoints(&mut self) -> Result<()> {
        let mut iterations = 0u64;
        while self.pending_checkpoints() > 0 {
            iterations += 1;
            if iterations > MAX_ITERATIONS {
                return Err(EngineError::JobBudgetExhausted {
                    phase: "drain-checkpoints",
                    iterations,
                });
            }
            if let Some(e) = self.take_interrupt() {
                return Err(e);
            }
            self.assign_checkpoint_jobs();
            let Some(tt) = self.running.iter().map(|r| r.finish).min() else {
                // Nothing running and nothing assignable: need workers.
                let now = self.clock.now();
                match self.injector.next_event_after(now) {
                    Some(ti) => {
                        self.stats.stall_time += ti - now;
                        self.trace.emit_with(now, || EventKind::Stalled {
                            millis: (ti - now).as_millis(),
                        });
                        self.clock.advance_to(ti);
                        self.pump_injector();
                        continue;
                    }
                    None => return Err(EngineError::NoWorkers),
                }
            };
            self.advance_and_commit(tt);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_pairs(d: &mut Driver, r: RddRef) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = d
            .collect(r)
            .unwrap()
            .into_iter()
            .map(|v| {
                let (k, val) = v.into_pair().unwrap();
                (k.as_i64().unwrap(), val.as_i64().unwrap())
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn default_fingerprint_is_pinned() {
        // Persisted manifests carry this value: it must not move when
        // config fields become constants.
        assert_eq!(DriverConfig::default().fingerprint(), 0xbee6_daaf_d64b_6931);
    }

    #[test]
    fn map_filter_pipeline() {
        let mut d = Driver::local(3);
        let src = d.ctx().parallelize((0..100).map(Value::from_i64), 8);
        let doubled = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() * 2));
        let big = d.ctx().filter(doubled, |v| v.as_i64().unwrap() >= 100);
        let out = d.collect(big).unwrap();
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|v| v.as_i64().unwrap() % 2 == 0));
        assert!(d.now() > SimTime::ZERO, "virtual time must advance");
        assert!(d.stats().tasks_run >= 8);
    }

    #[test]
    fn word_count_reduce_by_key() {
        let mut d = Driver::local(2);
        let words = d.ctx().parallelize(
            ["a", "b", "a", "c", "b", "a"]
                .iter()
                .map(|s| Value::from_str_(s)),
            3,
        );
        let pairs = d
            .ctx()
            .map(words, |w| Value::pair(w.clone(), Value::Int(1)));
        let counts = d.ctx().reduce_by_key(pairs, 2, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        });
        let mut out: Vec<(String, i64)> = d
            .collect(counts)
            .unwrap()
            .into_iter()
            .map(|v| {
                let (k, c) = v.into_pair().unwrap();
                (k.as_str().unwrap().to_string(), c.as_i64().unwrap())
            })
            .collect();
        out.sort();
        assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
    }

    #[test]
    fn join_matches_keys() {
        let mut d = Driver::local(2);
        let left = d.ctx().parallelize(
            vec![
                Value::pair(Value::Int(1), Value::from_str_("x")),
                Value::pair(Value::Int(2), Value::from_str_("y")),
            ],
            2,
        );
        let right = d.ctx().parallelize(
            vec![
                Value::pair(Value::Int(1), Value::Int(10)),
                Value::pair(Value::Int(1), Value::Int(11)),
                Value::pair(Value::Int(3), Value::Int(30)),
            ],
            2,
        );
        let joined = d.ctx().join(left, right, 3);
        let out = d.collect(joined).unwrap();
        // Key 1 joins with two right values; keys 2 and 3 do not match.
        assert_eq!(out.len(), 2);
        for v in &out {
            assert_eq!(v.key().unwrap().as_i64(), Some(1));
        }
    }

    #[test]
    fn sort_by_key_orders_globally() {
        let mut d = Driver::local(3);
        let vals: Vec<Value> = [5i64, 3, 9, 1, 7, 2, 8, 0, 6, 4]
            .iter()
            .map(|i| Value::pair(Value::Int(*i), Value::Int(*i * 10)))
            .collect();
        let src = d.ctx().parallelize(vals, 4);
        let sorted = d.ctx().sort_by_key(src, 3, true);
        let keys: Vec<i64> = d
            .collect(sorted)
            .unwrap()
            .iter()
            .map(|v| v.key().unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());

        let sorted_desc = d.ctx().sort_by_key(src, 3, false);
        let keys: Vec<i64> = d
            .collect(sorted_desc)
            .unwrap()
            .iter()
            .map(|v| v.key().unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(keys, (0..10).rev().collect::<Vec<_>>());
    }

    #[test]
    fn count_reduce_take_actions() {
        let mut d = Driver::local(2);
        let src = d.ctx().parallelize((1..=10).map(Value::from_i64), 4);
        assert_eq!(d.count(src).unwrap(), 10);
        let total = d
            .reduce(src, |a, b| {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            })
            .unwrap();
        assert_eq!(total.as_i64(), Some(55));
        assert_eq!(d.take(src, 3).unwrap().len(), 3);
        assert_eq!(d.stats().actions.len(), 3);
    }

    #[test]
    fn reduce_on_empty_errors() {
        let mut d = Driver::local(1);
        let src = d.ctx().parallelize(std::iter::empty(), 2);
        let e = d.reduce(src, |a, _| a.clone()).unwrap_err();
        assert_eq!(e, EngineError::EmptyDataset);
    }

    #[test]
    fn distinct_and_union() {
        let mut d = Driver::local(2);
        let a = d.ctx().parallelize([1, 2, 2, 3].map(Value::from_i64), 2);
        let b = d.ctx().parallelize([3, 4].map(Value::from_i64), 1);
        let u = d.ctx().union(a, b);
        assert_eq!(d.count(u).unwrap(), 6);
        let dist = d.ctx().distinct(u, 2);
        let mut vals: Vec<i64> = d
            .collect(dist)
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        vals.sort();
        assert_eq!(vals, vec![1, 2, 3, 4]);
    }

    #[test]
    fn sample_is_deterministic() {
        let mut d1 = Driver::local(2);
        let s1 = d1.ctx().parallelize((0..1000).map(Value::from_i64), 4);
        let samp1 = d1.ctx().sample(s1, 0.3, 42);
        let c1 = d1.count(samp1).unwrap();
        let mut d2 = Driver::local(2);
        let s2 = d2.ctx().parallelize((0..1000).map(Value::from_i64), 4);
        let samp2 = d2.ctx().sample(s2, 0.3, 42);
        let c2 = d2.count(samp2).unwrap();
        assert_eq!(c1, c2);
        assert!(c1 > 150 && c1 < 450, "sample count {c1} wildly off 30%");
    }

    #[test]
    fn revocation_mid_job_recovers_with_identical_result() {
        // Golden result without failures.
        let build = |d: &mut Driver| {
            let src = d.ctx().parallelize((0..500).map(Value::from_i64), 10);
            let pairs = d.ctx().map(src, |v| {
                Value::pair(Value::Int(v.as_i64().unwrap() % 7), Value::Int(1))
            });
            d.ctx().reduce_by_key(pairs, 5, |a, b| {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            })
        };
        let mut golden_driver = Driver::local(4);
        let g = build(&mut golden_driver);
        let golden = sum_pairs(&mut golden_driver, g);

        // Same job with two workers revoked mid-run (and never replaced;
        // two survivors carry on).
        let mut d = Driver::new(
            DriverConfig::default(),
            Box::new(NoCheckpoint),
            Box::new(crate::ScriptedInjector::new(vec![
                (SimTime::from_millis(50), WorkerEvent::Remove { ext_id: 1 }),
                (SimTime::from_millis(60), WorkerEvent::Remove { ext_id: 2 }),
            ])),
        );
        for ext in 1..=4u64 {
            d.cluster
                .add_worker(ext, WorkerSpec::r3_large(), SimTime::ZERO);
        }
        let r = build(&mut d);
        let out = sum_pairs(&mut d, r);
        assert_eq!(out, golden);
        assert_eq!(d.stats().revocations, 2);
    }

    #[test]
    fn all_workers_lost_then_replaced() {
        let mut d = Driver::new(
            DriverConfig::default(),
            Box::new(NoCheckpoint),
            Box::new(crate::ScriptedInjector::new(vec![
                (SimTime::from_millis(10), WorkerEvent::Remove { ext_id: 1 }),
                (SimTime::from_millis(10), WorkerEvent::Remove { ext_id: 2 }),
                (
                    SimTime::from_millis(120_000),
                    WorkerEvent::Add {
                        ext_id: 3,
                        spec: WorkerSpec::r3_large(),
                    },
                ),
            ])),
        );
        d.cluster
            .add_worker(1, WorkerSpec::r3_large(), SimTime::ZERO);
        d.cluster
            .add_worker(2, WorkerSpec::r3_large(), SimTime::ZERO);
        let src = d.ctx().parallelize((0..200).map(Value::from_i64), 6);
        let sq = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap().pow(2)));
        assert_eq!(d.count(sq).unwrap(), 200);
        // The job must have stalled waiting for the replacement.
        assert!(d.stats().stall_time > SimDuration::from_secs(60));
        assert_eq!(d.stats().revocations, 2);
    }

    #[test]
    fn no_workers_and_no_events_errors() {
        let mut d = Driver::new(
            DriverConfig::default(),
            Box::new(NoCheckpoint),
            Box::new(NoFailures),
        );
        let src = d.ctx().parallelize((0..10).map(Value::from_i64), 2);
        assert_eq!(d.count(src).unwrap_err(), EngineError::NoWorkers);
    }

    #[test]
    fn persisted_rdd_cached_and_reused() {
        let mut d = Driver::local(2);
        let src = d.ctx().parallelize((0..100).map(Value::from_i64), 4);
        let heavy = d.ctx().map(src, |v| v.clone());
        d.ctx().persist(heavy);
        let _ = d.count(heavy).unwrap();
        let t1 = d.stats().actions[0].latency();
        let _ = d.count(heavy).unwrap();
        let t2 = d.stats().actions[1].latency();
        assert!(t2 < t1, "cached second run ({t2}) should beat first ({t1})");
    }

    #[test]
    fn explicit_checkpoint_survives_total_cluster_loss() {
        let mut d = Driver::new(
            DriverConfig::default(),
            Box::new(NoCheckpoint),
            Box::new(crate::ScriptedInjector::new(vec![
                (
                    SimTime::from_hours_f64(1.0),
                    WorkerEvent::Remove { ext_id: 1 },
                ),
                (
                    SimTime::from_hours_f64(1.0),
                    WorkerEvent::Remove { ext_id: 2 },
                ),
                (
                    SimTime::from_hours_f64(1.1),
                    WorkerEvent::Add {
                        ext_id: 10,
                        spec: WorkerSpec::r3_large(),
                    },
                ),
                (
                    SimTime::from_hours_f64(1.1),
                    WorkerEvent::Add {
                        ext_id: 11,
                        spec: WorkerSpec::r3_large(),
                    },
                ),
            ])),
        );
        d.cluster
            .add_worker(1, WorkerSpec::r3_large(), SimTime::ZERO);
        d.cluster
            .add_worker(2, WorkerSpec::r3_large(), SimTime::ZERO);

        let src = d.ctx().parallelize((0..300).map(Value::from_i64), 6);
        let mapped = d.ctx().map(src, |v| Value::Int(v.as_i64().unwrap() + 1));
        d.checkpoint_now(mapped).unwrap();
        assert!(d.checkpoints().is_fully_checkpointed(mapped.id()));

        // Lose the whole cluster, get new workers, and re-read: the data
        // must come back from the durable store (restores > 0).
        d.idle_until(SimTime::from_hours_f64(1.2)).unwrap();
        assert_eq!(d.cluster().alive_count(), 2);
        let before = d.stats().restores;
        let total = d
            .reduce(mapped, |a, b| {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            })
            .unwrap();
        assert_eq!(total.as_i64(), Some((1..=300).sum::<i64>()));
        assert!(d.stats().restores > before);
    }

    #[test]
    fn recompute_time_tracked_after_loss() {
        // Scale the tiny in-process dataset up so durations exceed the
        // millisecond resolution of virtual time.
        let mut config = DriverConfig::default();
        config.cost.size_scale = 1e6;
        let mut d = Driver::new(
            config,
            Box::new(NoCheckpoint),
            Box::new(crate::ScriptedInjector::new(vec![(
                SimTime::from_hours_f64(0.5),
                WorkerEvent::Remove { ext_id: 1 },
            )])),
        );
        d.cluster
            .add_worker(1, WorkerSpec::r3_large(), SimTime::ZERO);
        d.cluster
            .add_worker(2, WorkerSpec::r3_large(), SimTime::ZERO);
        let src = d.ctx().parallelize((0..400).map(Value::from_i64), 8);
        let pairs = d.ctx().map(src, |v| {
            Value::pair(Value::Int(v.as_i64().unwrap() % 5), Value::Int(1))
        });
        let red = d.ctx().reduce_by_key(pairs, 4, |a, b| {
            Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
        });
        let _ = d.count(red).unwrap();
        assert_eq!(d.stats().recompute_time, SimDuration::ZERO);

        // Idle across the revocation, then ask again: half the cache is
        // gone, so some recomputation must happen.
        d.idle_until(SimTime::from_hours_f64(0.6)).unwrap();
        let _ = d.count(red).unwrap();
        assert!(d.stats().recompute_time > SimDuration::ZERO);
    }

    #[test]
    fn coalesce_preserves_data_with_fewer_partitions() {
        let mut d = Driver::local(3);
        let src = d.ctx().parallelize((0..100).map(Value::from_i64), 8);
        let co = d.ctx().coalesce(src, 3);
        assert_eq!(d.ctx().num_partitions(co), 3);
        let mut vals: Vec<i64> = d
            .collect(co)
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..100).collect::<Vec<_>>());
        // Coalescing to more partitions than exist clamps.
        let same = d.ctx().coalesce(src, 100);
        assert_eq!(d.ctx().num_partitions(same), 8);
        assert_eq!(d.count(same).unwrap(), 100);
    }

    #[test]
    fn coalesce_survives_revocation() {
        let mut d = Driver::new(
            DriverConfig::default(),
            Box::new(NoCheckpoint),
            Box::new(crate::ScriptedInjector::new(vec![(
                SimTime::from_millis(40),
                WorkerEvent::Remove { ext_id: 1 },
            )])),
        );
        for ext in 1..=3u64 {
            d.add_worker_with_ext(ext, WorkerSpec::r3_large());
        }
        let src = d.ctx().parallelize((0..60).map(Value::from_i64), 6);
        let co = d.ctx().coalesce(src, 2);
        let total = d
            .reduce(co, |a, b| {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            })
            .unwrap();
        assert_eq!(total.as_i64(), Some((0..60).sum::<i64>()));
    }

    #[test]
    fn pair_projection_helpers() {
        let mut d = Driver::local(2);
        let pairs = d.ctx().parallelize(
            (0..10).map(|i| Value::pair(Value::Int(i % 3), Value::Int(i))),
            2,
        );
        let doubled = d
            .ctx()
            .map_values(pairs, |v| Value::Int(v.as_i64().unwrap() * 2));
        let vals = d.ctx().values(doubled);
        let total = d
            .reduce(vals, |a, b| {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            })
            .unwrap();
        assert_eq!(total.as_i64(), Some(2 * (0..10).sum::<i64>()));

        let keys = d.ctx().keys(pairs);
        let distinct = d.ctx().distinct(keys, 2);
        assert_eq!(d.count(distinct).unwrap(), 3);
    }

    #[test]
    fn ordered_and_keyed_actions() {
        let mut d = Driver::local(2);
        let src = d.ctx().parallelize([5, 1, 9, 3, 7].map(Value::from_i64), 3);
        assert_eq!(
            d.take_ordered(src, 2).unwrap(),
            vec![Value::Int(1), Value::Int(3)]
        );
        assert!(d.first(src).unwrap().is_some());

        let pairs = d.ctx().parallelize(
            (0..12).map(|i| Value::pair(Value::Int(i % 3), Value::Int(i))),
            3,
        );
        let counts = d.count_by_key(pairs).unwrap();
        assert_eq!(counts.len(), 3);
        assert!(counts.values().all(|c| *c == 4));

        let empty = d.ctx().parallelize(std::iter::empty(), 1);
        assert_eq!(d.first(empty).unwrap(), None);
    }

    #[test]
    fn cogroup_groups_both_sides() {
        let mut d = Driver::local(2);
        let a = d.ctx().parallelize(
            vec![
                Value::pair(Value::Int(1), Value::from_str_("a1")),
                Value::pair(Value::Int(2), Value::from_str_("a2")),
            ],
            2,
        );
        let b = d
            .ctx()
            .parallelize(vec![Value::pair(Value::Int(1), Value::from_str_("b1"))], 1);
        let cg = d.ctx().cogroup(a, b, 2);
        let out = d.collect(cg).unwrap();
        assert_eq!(out.len(), 2); // keys 1 and 2
        for v in out {
            let (k, groups) = v.into_pair().unwrap();
            let groups = groups.as_list().unwrap().to_vec();
            assert_eq!(groups.len(), 2);
            if k.as_i64() == Some(2) {
                assert_eq!(groups[1].as_list().unwrap().len(), 0);
            } else {
                assert_eq!(groups[1].as_list().unwrap().len(), 1);
            }
        }
    }

    /// One step of a random lineage DAG for the planner-oracle property.
    #[derive(Debug, Clone, Copy)]
    enum PlanStep {
        Map,
        Filter,
        Persist,
        /// Union with the stage this many steps back (mod history).
        Union(usize),
        Coalesce(u32),
        ReduceByKey(u32),
        SortByKey(u32),
        /// Join with a one-record-per-key table: a cogroup reading two
        /// shuffles at once, without growing the data.
        Join(u32),
    }

    fn plan_step() -> impl proptest::strategy::Strategy<Value = PlanStep> {
        use proptest::prelude::*;
        prop_oneof![
            Just(PlanStep::Map),
            Just(PlanStep::Filter),
            Just(PlanStep::Persist),
            (0usize..4).prop_map(PlanStep::Union),
            (1u32..5).prop_map(PlanStep::Coalesce),
            (1u32..10).prop_map(PlanStep::ReduceByKey),
            (1u32..10).prop_map(PlanStep::SortByKey),
            (1u32..10).prop_map(PlanStep::Join),
        ]
    }

    /// Builds the DAG — at most two wide steps, at least one (appended
    /// if the steps drew none) — and collects it, sorted.
    fn plan_dag_job(d: &mut Driver, parts: u32, steps: &[PlanStep]) -> Result<Vec<Value>> {
        let src = d.ctx().parallelize(
            (0..90).map(|i| Value::pair(Value::Int(i % 13), Value::Int(i))),
            parts,
        );
        let mut history = vec![src];
        let mut cur = src;
        let mut shuffles = 0;
        let reduce = |d: &mut Driver, r, p| {
            d.ctx().reduce_by_key(r, p, |a, b| {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            })
        };
        for step in steps {
            cur = match *step {
                PlanStep::Map => d.ctx().map(cur, |v| {
                    let (k, x) = v.clone().into_pair().unwrap();
                    Value::pair(Value::Int((k.as_i64().unwrap() + 5) % 11), x)
                }),
                PlanStep::Filter => d.ctx().filter(cur, |v| {
                    v.key().and_then(Value::as_i64).is_none_or(|k| k % 4 != 1)
                }),
                PlanStep::Persist => d.ctx().persist(cur),
                PlanStep::Union(back) => {
                    let other = history[history.len() - 1 - back % history.len()];
                    d.ctx().union(cur, other)
                }
                PlanStep::Join(p) if shuffles < 2 => {
                    shuffles += 1;
                    let table = d.ctx().parallelize(
                        (0..13).map(|k| Value::pair(Value::Int(k), Value::Int(k * 7))),
                        parts,
                    );
                    let joined = d.ctx().join(cur, table, p);
                    d.ctx().map_values(joined, |vw| {
                        let xy = vw.as_list().unwrap();
                        Value::Int(xy[0].as_i64().unwrap() + xy[1].as_i64().unwrap())
                    })
                }
                PlanStep::Coalesce(n) => d.ctx().coalesce(cur, n),
                PlanStep::ReduceByKey(p) if shuffles < 2 => {
                    shuffles += 1;
                    reduce(d, cur, p)
                }
                PlanStep::SortByKey(p) if shuffles < 2 => {
                    shuffles += 1;
                    d.ctx().sort_by_key(cur, p, true)
                }
                PlanStep::ReduceByKey(_) | PlanStep::SortByKey(_) | PlanStep::Join(..) => cur,
            };
            history.push(cur);
        }
        if shuffles == 0 {
            cur = reduce(d, cur, parts);
        }
        let mut out = d.collect(cur)?;
        out.sort();
        Ok(out)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random lineage DAGs under chaos schedules with revocations,
        /// replacements and store outages: every scheduler-loop
        /// iteration checks the planner against the reference planner
        /// (the `cfg(test)` assertion in `run_job`), including the
        /// replanning passes after block loss. A divergence panics,
        /// which `run_chaos` reports as `Panicked`.
        #[test]
        fn planner_matches_reference_under_chaos(
            seed in 0u64..10_000,
            parts in 1u32..10,
            workers in 1u32..5,
            steps in proptest::collection::vec(plan_step(), 1..8),
        ) {
            let build = || {
                let mut cfg = DriverConfig::default();
                cfg.cost.size_scale = 5e5;
                cfg.store_retry.budget = 4;
                let mut d = Driver::new(
                    cfg,
                    Box::new(crate::EagerCheckpoint),
                    Box::new(NoFailures),
                );
                for ext in 1..=u64::from(workers) {
                    d.add_worker_with_ext(ext, WorkerSpec::r3_large());
                }
                d
            };
            let job = |d: &mut Driver| plan_dag_job(d, parts, &steps);
            let mut twin = build();
            let expect = job(&mut twin).expect("fault-free run completes");
            // Faults land in the first quarter of the fault-free
            // makespan, so the first revocation hits a live worker while
            // the job still runs.
            let mut ccfg = crate::ChaosConfig::for_fault_kinds(seed, "revoke,store", workers);
            ccfg.horizon = SimDuration::from_millis(twin.now().since_epoch().as_millis() / 4);
            ccfg.revocations = 4;
            ccfg.outages = 2;
            let schedule = crate::ChaosSchedule::generate(&ccfg);
            match crate::run_chaos(&schedule, &ccfg, build, job, &expect) {
                crate::ChaosOutcome::Identical { stats, .. } => {
                    proptest::prop_assert!(stats.revocations > 0, "no revocation landed");
                }
                crate::ChaosOutcome::Typed(_) => {}
                crate::ChaosOutcome::WrongData(out) => panic!("wrong data: {out:?}"),
                crate::ChaosOutcome::Panicked => panic!("chaos run panicked"),
            }
        }
    }
}
