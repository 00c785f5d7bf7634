//! The four benchmark workloads, each assembled the way the public entry
//! points assemble it: engine jobs through `FlintCluster::launch` (as
//! `run_on_flint` does) when untraced, and from the same public
//! constructors as `FlintCluster::launch_custom`, with timed wrappers,
//! when traced; the fleet through `run_mc` / `run_mc_traced` (as
//! `flint mc` does).

use std::time::Instant;

use flint::core::{
    new_shared, BatchSelection, FlintCheckpointPolicy, FlintCluster, FlintConfig,
    InteractiveSelection, Mode, NodeManager, NodeManagerHandle, SelectionPolicy,
};
use flint::engine::{Driver, EngineError, EventKind, RunStats, TraceHandle, TransientVmBackend};
use flint::market::{EbsCostModel, HazardSpec, MarketCatalog};
use flint::model::{catalog_with_mttf, run_mc, run_mc_traced, McConfig, PolicyKind};
use flint::simtime::{SimDuration, SimTime};
use flint::trace::JsonlSink;
use flint::workloads::{PageRank, Tpch, TpchQuery, Workload, WorkloadConfig};

use crate::layers::{Layer, Shared, TimedBackend, TimedHooks, TimedInjector, TimedSink};

/// A PageRank batch job on a Flint-managed cluster.
#[derive(Debug, Clone, Copy)]
pub struct PagerankSpec {
    /// Logical dataset size.
    pub gb: f64,
    /// Partitions of the main datasets.
    pub partitions: u32,
    /// PageRank iterations.
    pub iterations: u32,
    /// Cluster size.
    pub workers: u32,
    /// Target MTTF of the catalog's spot markets, hours.
    pub mttf_hours: f64,
}

/// An interactive TPC-H session.
#[derive(Debug, Clone, Copy)]
pub struct TpchSpec {
    /// Logical dataset size.
    pub gb: f64,
    /// Partitions of each table.
    pub partitions: u32,
    /// Cluster size.
    pub workers: u32,
    /// Queries per session, cycling `TpchQuery::ALL`.
    pub queries: u32,
}

/// A week-long Monte-Carlo fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Fleet size.
    pub workers: u32,
    /// Job length, hours.
    pub hours: u64,
    /// Target MTTF of the catalog's spot markets, hours.
    pub mttf_hours: f64,
    /// Catalog horizon, days.
    pub horizon_days: u64,
    /// The region's catalog seed. Fixed: across catalog seeds the
    /// selection policy flips between spot and on-demand fleets and the
    /// bill of one call ranges over 10x, which would swamp every timing.
    /// The benchmark seed moves the start offset and the cloud seed.
    pub catalog_seed: u64,
}

/// Host seconds of one set-up, by part.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    /// Catalog generation.
    pub catalog_s: f64,
    /// Cluster launch (and sizing the engine cost model).
    pub launch_s: f64,
    /// Table load (TPC-H only).
    pub load_s: f64,
}

/// What an operation must reproduce exactly: the result digest, the
/// engine statistics, the virtual makespan and the bill.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Result digest.
    pub checksum: u64,
    /// Engine statistics (or Monte-Carlo counters), rendered.
    pub stats: String,
    /// Virtual running time, seconds.
    pub makespan_s: f64,
    /// Total bill, dollars.
    pub cost_usd: f64,
}

/// One measured operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Host wall time, seconds.
    pub wall_s: f64,
    /// `None` on success, else the error message.
    pub error: Option<String>,
}

/// A PageRank job or a TPC-H session or a set of fleet calls, with its
/// set-up and its outputs.
#[derive(Debug, Clone)]
pub struct Session {
    /// Set-up host time.
    pub setup: Setup,
    /// Operations in order (one per job, query or call).
    pub ops: Vec<Op>,
    /// Host wall time of the whole job (a PageRank job, the session's
    /// query loop, one `run_mc` call).
    pub job_s: f64,
    /// The outputs to compare against the pins; absent after an error.
    pub pin: Option<Pin>,
    /// Per-query result digests (TPC-H), in query order.
    pub query_digests: Vec<u64>,
    /// Node-manager counters (engine workloads).
    pub revocations: u64,
    /// Node-manager replacement rounds (engine workloads).
    pub replacements: u64,
}

/// The seed-derived inputs shared by every workload: the catalog seed,
/// the cloud seed, the workload data seed, and the session's start
/// offset within the price traces.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// The sub-job's seed.
    pub seed: u64,
}

impl Inputs {
    /// The inputs of sub-job `i` of a run with benchmark seed `seed`.
    pub fn sub(seed: u64, i: u64) -> Inputs {
        Inputs {
            seed: seed * 64 + i,
        }
    }

    /// Session start: two weeks in (so the backward-looking selection
    /// window has history) plus a seed-dependent 0–47.5 h offset.
    pub fn start(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_days(14) + SimDuration::from_mins((self.seed % 96) * 30)
    }

    fn flint_config(&self, workers: u32, mode: Mode) -> FlintConfig {
        FlintConfig::builder()
            .n_workers(workers)
            .mode(mode)
            .seed(self.seed)
            .start(self.start())
            .build()
    }
}

/// Stable FNV-1a digest of a rendered value.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn render_stats(s: &RunStats) -> String {
    format!(
        "tasks={} ckpts={} ckpt_bytes={} restores={} revocations={} warnings={} \
         recompute_ms={} stall_ms={} actions={}",
        s.tasks_run,
        s.checkpoints_written,
        s.checkpoint_bytes,
        s.restores,
        s.revocations,
        s.warnings,
        s.recompute_time.as_millis(),
        s.stall_time.as_millis(),
        s.actions.len(),
    )
}

fn err_text(e: &EngineError) -> String {
    format!("{e}")
}

/// A cluster assembled from public constructors with every trait object
/// the driver calls wrapped in a timer.
struct TracedCluster {
    driver: Driver,
    nm: NodeManagerHandle,
}

impl TracedCluster {
    fn launch(
        catalog: MarketCatalog,
        config: &FlintConfig,
        policy: Box<dyn SelectionPolicy>,
        shared: &Shared,
    ) -> TracedCluster {
        let mut cloud = flint::market::CloudSim::with_seed(catalog, config.seed);
        cloud.set_trace(config.trace.clone());
        let ft = new_shared(SimDuration::MAX);
        let (nm_injector, nm) = NodeManager::launch(
            cloud,
            policy,
            config.bid,
            config.selection,
            config.job,
            config.driver.storage,
            config.n_workers,
            ft.clone(),
            config.start,
        );
        let mut driver = Driver::new(
            config.driver.clone(),
            Box::new(TimedHooks::new(
                FlintCheckpointPolicy::new(ft),
                shared.clone(),
            )),
            Box::new(TimedInjector::new(nm_injector, shared.clone())),
        );
        driver.set_trace(config.trace.clone());
        driver.set_backend(Box::new(TimedBackend::new(
            TransientVmBackend,
            shared.clone(),
        )));
        driver.warp_to(config.start);
        config.trace.emit(
            driver.now(),
            EventKind::BackendSelected {
                backend: "vm".to_string(),
                workers: u64::from(config.n_workers),
            },
        );
        TracedCluster { driver, nm }
    }

    /// Terminates the instances and returns the bill, as
    /// `FlintCluster::shutdown` computes it.
    fn shutdown(mut self) -> f64 {
        let now = self.driver.now();
        self.nm.shutdown(now);
        let storage = self
            .driver
            .checkpoints_mut()
            .store_mut()
            .storage_cost(&EbsCostModel::default(), now);
        self.nm.compute_cost(now) + storage
    }
}

/// A trace handle whose only sink is a timed JSONL encoder writing to
/// `io::sink`.
fn timed_trace(shared: &Shared) -> TraceHandle {
    let trace = TraceHandle::disabled();
    trace.add_sink(Box::new(TimedSink::new(
        JsonlSink::new(std::io::sink()),
        shared.clone(),
    )));
    trace
}

/// Either a plain `FlintCluster` or a traced assembly.
enum Cluster {
    Plain(Box<FlintCluster>),
    Traced(Box<TracedCluster>),
}

impl Cluster {
    fn launch(catalog: MarketCatalog, mut config: FlintConfig, traced: Option<&Shared>) -> Cluster {
        match traced {
            None => Cluster::Plain(Box::new(FlintCluster::launch(catalog, config))),
            Some(shared) => {
                config.trace = timed_trace(shared);
                let policy: Box<dyn SelectionPolicy> = match config.mode {
                    Mode::Interactive => Box::new(InteractiveSelection::default()),
                    _ => Box::new(BatchSelection),
                };
                Cluster::Traced(Box::new(TracedCluster::launch(
                    catalog, &config, policy, shared,
                )))
            }
        }
    }

    fn driver_mut(&mut self) -> &mut Driver {
        match self {
            Cluster::Plain(c) => c.driver_mut(),
            Cluster::Traced(c) => &mut c.driver,
        }
    }

    fn counters(&self) -> (u64, u64) {
        let nm = match self {
            Cluster::Plain(c) => c.node_manager(),
            Cluster::Traced(c) => &c.nm,
        };
        (nm.revocations(), nm.replacements())
    }

    /// Final bill in dollars.
    fn shutdown(self) -> f64 {
        match self {
            Cluster::Plain(c) => c.shutdown().total(),
            Cluster::Traced(c) => c.shutdown(),
        }
    }
}

/// One PageRank job: set-up, then the job, timed.
pub fn pagerank_job(spec: &PagerankSpec, inputs: Inputs, traced: Option<&Shared>) -> Session {
    let t0 = Instant::now();
    let catalog = catalog_with_mttf(inputs.seed, SimDuration::from_days(30), spec.mttf_hours);
    let t1 = Instant::now();
    let wl = PageRank::new(WorkloadConfig {
        dataset_gb: spec.gb,
        partitions: spec.partitions,
        iterations: spec.iterations,
        seed: inputs.seed,
    });
    let mut cluster = Cluster::launch(
        catalog,
        inputs.flint_config(spec.workers, Mode::Batch),
        traced,
    );
    let driver = cluster.driver_mut();
    let mut cost_model = *driver.cost_model();
    cost_model.size_scale = wl.recommended_size_scale();
    driver.set_cost_model(cost_model);
    let t2 = Instant::now();

    if let Some(shared) = traced {
        shared.lock().start(Layer::Outside);
    }
    let started = driver.now();
    let t3 = Instant::now();
    let result = wl.run(driver);
    let job_s = t3.elapsed().as_secs_f64();
    if let Some(shared) = traced {
        shared.lock().finish();
    }
    let makespan_s = (driver.now() - started).as_secs_f64();
    let stats = render_stats(driver.stats());
    let (revocations, replacements) = cluster.counters();
    let cost_usd = cluster.shutdown();

    let (pin, error) = match result {
        Ok(summary) => (
            Some(Pin {
                checksum: summary.checksum,
                stats,
                makespan_s,
                cost_usd,
            }),
            None,
        ),
        Err(e) => (None, Some(err_text(&e))),
    };
    Session {
        setup: Setup {
            catalog_s: (t1 - t0).as_secs_f64(),
            launch_s: (t2 - t1).as_secs_f64(),
            load_s: 0.0,
        },
        ops: vec![Op {
            wall_s: job_s,
            error,
        }],
        job_s,
        pin,
        query_digests: Vec::new(),
        revocations,
        replacements,
    }
}

/// One interactive TPC-H session: set-up (catalog, launch, table load),
/// then a closed loop of `spec.queries` queries with no think time.
pub fn tpch_session(spec: &TpchSpec, inputs: Inputs, traced: Option<&Shared>) -> Session {
    let t0 = Instant::now();
    let catalog = MarketCatalog::synthetic_ec2(inputs.seed, SimDuration::from_days(30));
    let t1 = Instant::now();
    let wl = Tpch::new(WorkloadConfig {
        dataset_gb: spec.gb,
        partitions: spec.partitions,
        iterations: 1,
        seed: inputs.seed,
    });
    let mut cluster = Cluster::launch(
        catalog,
        inputs.flint_config(spec.workers, Mode::Interactive),
        traced,
    );
    let driver = cluster.driver_mut();
    let mut cost_model = *driver.cost_model();
    cost_model.size_scale = wl.recommended_size_scale();
    driver.set_cost_model(cost_model);
    let t2 = Instant::now();
    let tables = wl.prepare(driver);
    let t3 = Instant::now();
    let setup = Setup {
        catalog_s: (t1 - t0).as_secs_f64(),
        launch_s: (t2 - t1).as_secs_f64(),
        load_s: (t3 - t2).as_secs_f64(),
    };

    let mut ops = Vec::with_capacity(spec.queries as usize);
    let mut query_digests = Vec::with_capacity(spec.queries as usize);
    let mut checksum = 0u64;
    let mut failed = tables.as_ref().err().map(err_text);
    if let Some(shared) = traced {
        shared.lock().start(Layer::Outside);
    }
    let started = driver.now();
    let loop_t = Instant::now();
    if let Ok(tables) = &tables {
        for i in 0..spec.queries {
            let q = TpchQuery::ALL[i as usize % TpchQuery::ALL.len()];
            let t = Instant::now();
            let rows = wl.query(driver, tables, q);
            let wall_s = t.elapsed().as_secs_f64();
            match rows {
                Ok(rows) => {
                    let d = fnv(format!("{rows:?}").as_bytes());
                    checksum = checksum.rotate_left(7) ^ d;
                    query_digests.push(d);
                    ops.push(Op {
                        wall_s,
                        error: None,
                    });
                }
                Err(e) => {
                    failed.get_or_insert_with(|| err_text(&e));
                    query_digests.push(0);
                    ops.push(Op {
                        wall_s,
                        error: Some(err_text(&e)),
                    });
                }
            }
        }
    }
    let job_s = loop_t.elapsed().as_secs_f64();
    if let Some(shared) = traced {
        shared.lock().finish();
    }
    let makespan_s = (driver.now() - started).as_secs_f64();
    let stats = render_stats(driver.stats());
    let (revocations, replacements) = cluster.counters();
    let cost_usd = cluster.shutdown();
    if ops.is_empty() {
        // The table load failed: every query of the session is lost.
        ops = (0..spec.queries)
            .map(|_| Op {
                wall_s: 0.0,
                error: failed.clone(),
            })
            .collect();
    }
    Session {
        setup,
        ops,
        job_s,
        pin: failed.is_none().then_some(Pin {
            checksum,
            stats,
            makespan_s,
            cost_usd,
        }),
        query_digests,
        revocations,
        replacements,
    }
}

/// The fleet's Monte-Carlo configuration (the BENCH_scale 10k-worker
/// age-aware regime), seeded.
pub fn fleet_config(spec: &FleetSpec, inputs: Inputs) -> McConfig {
    let mut cfg = McConfig {
        job_length: SimDuration::from_hours(spec.hours),
        n_workers: spec.workers,
        policy: PolicyKind::FlintBatch,
        seed: inputs.seed,
        start: inputs.start(),
        ..McConfig::default()
    };
    cfg.selection.hazard = HazardSpec::CappedLifetime {
        early_prob: 0.1,
        cap_hours: 24.0,
    };
    cfg
}

/// Generates the fleet's catalog, timed.
pub fn fleet_catalog(spec: &FleetSpec) -> (MarketCatalog, f64) {
    let t = Instant::now();
    let cat = catalog_with_mttf(
        spec.catalog_seed,
        SimDuration::from_days(spec.horizon_days),
        spec.mttf_hours,
    );
    (cat, t.elapsed().as_secs_f64())
}

/// One `run_mc` call on a prepared catalog.
pub fn fleet_call(
    catalog: &MarketCatalog,
    cfg: &McConfig,
    setup: Setup,
    traced: Option<&Shared>,
) -> Session {
    let t = Instant::now();
    let r = match traced {
        None => run_mc(catalog, cfg),
        Some(shared) => {
            let trace = timed_trace(shared);
            shared.lock().start(Layer::Mc);
            let r = run_mc_traced(catalog, cfg, trace);
            shared.lock().finish();
            r
        }
    };
    let job_s = t.elapsed().as_secs_f64();
    let stats = format!(
        "revocation_events={} servers_revoked={} stall_fraction={:.9}",
        r.revocation_events, r.servers_revoked, r.stall_fraction
    );
    Session {
        setup,
        ops: vec![Op {
            wall_s: job_s,
            error: None,
        }],
        job_s,
        pin: Some(Pin {
            checksum: u64::from(r.revocation_events),
            stats,
            makespan_s: r.runtime.as_secs_f64(),
            cost_usd: r.total_cost(),
        }),
        query_digests: Vec::new(),
        revocations: u64::from(r.revocation_events),
        replacements: 0,
    }
}

/// Host seconds of a fixed synthetic kernel that shares no code with
/// flint, the median of three passes. A pass fills a 256 KB array from a
/// fixed pseudo-random sequence, sorts it, counts it into a small map and
/// walks it by dependent loads, twelve times; the working set stays in
/// the core's caches, so the time follows the speed the host gives this
/// process at the moment (on a shared host it drifts by tens of percent
/// within a minute), and no change to flint moves it.
pub fn calibrate() -> f64 {
    let mut passes = [calibration_pass(), calibration_pass(), calibration_pass()];
    passes.sort_by(f64::total_cmp);
    passes[1]
}

fn calibration_pass() -> f64 {
    const N: usize = 1 << 15;
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for round in 0..12u64 {
        let mut v: Vec<u64> = (0..N as u64)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i | 1 | round);
                x
            })
            .collect();
        v.sort_unstable();
        let mut m = std::collections::HashMap::new();
        for y in v.iter().step_by(2) {
            *m.entry(y % 1021).or_insert(0u64) += 1;
        }
        let mut idx = 0usize;
        for _ in 0..N {
            idx = (v[idx] as usize ^ idx) & (N - 1);
            acc = acc.wrapping_add(v[idx]);
        }
        acc = acc.wrapping_add(m.len() as u64);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}
