//! One-call convenience: run a workload on a Flint-managed transient
//! cluster and get the result, the bill, and (optionally) the full
//! event trace.

use flint_core::{CostReport, FlintCluster, FlintConfig};
use flint_engine::{EngineError, Result, RunManifest, TraceHandle};
use flint_market::MarketCatalog;
use flint_workloads::{Workload, WorkloadSummary};

/// Everything a Flint-managed workload run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The workload's result digest.
    pub summary: WorkloadSummary,
    /// Total virtual running time of the workload, in seconds.
    pub runtime_secs: f64,
    /// Engine statistics snapshot.
    pub stats: flint_engine::RunStats,
    /// The final bill (cluster terminated).
    pub cost: CostReport,
    /// The run's trace handle, when the launch config had one enabled
    /// (a sink attached). Flushed before return; read it back through
    /// whatever sink was attached (memory ring, JSONL file, …).
    pub trace: Option<TraceHandle>,
}

impl RunReport {
    /// The execution backend that produced this run (`"vm"` or
    /// `"serverless"`); under serverless, `cost.invocations` and
    /// `cost.invocation_gb_seconds` carry the billing breakdown.
    pub fn backend(&self) -> &str {
        &self.cost.backend
    }
}

/// How a [`run_session`] ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The workload ran to completion.
    Completed(Box<RunReport>),
    /// The driver suspended at a wave-commit boundary
    /// ([`flint_engine::DriverConfig::suspend_after_waves`]) before
    /// the workload finished. The cluster is dropped without a bill.
    Suspended {
        /// Durable-store key the manifest was persisted under.
        key: String,
        /// Committed-wave frontier at the suspension.
        frontier: u64,
        /// The persisted [`RunManifest`] in its line format; decode it
        /// and pass it back to [`run_session`] to resume.
        manifest: String,
    },
}

/// Launches a Flint cluster for `config`, sizes the engine's cost model
/// to the workload's recommended scale, runs the workload to completion,
/// shuts the cluster down, and returns results plus the bill.
///
/// A run whose config suspends it fails with [`EngineError::Suspended`];
/// [`run_session`] keeps the manifest.
///
/// # Examples
///
/// ```
/// use flint::runner::run_on_flint;
/// use flint::core::FlintConfig;
/// use flint::market::MarketCatalog;
/// use flint::simtime::SimDuration;
/// use flint::workloads::{PageRank, WorkloadConfig};
///
/// let catalog = MarketCatalog::synthetic_ec2(7, SimDuration::from_days(30));
/// let wl = PageRank::new(WorkloadConfig {
///     dataset_gb: 0.3,
///     partitions: 4,
///     iterations: 2,
///     seed: 1,
/// });
/// let run = run_on_flint(catalog, FlintConfig::builder().n_workers(4).build(), &wl).unwrap();
/// assert!(run.summary.records > 0);
/// assert!(run.cost.compute_cost >= 0.0);
/// assert!(run.trace.is_none()); // no sink attached
/// ```
pub fn run_on_flint(
    catalog: MarketCatalog,
    config: FlintConfig,
    workload: &dyn Workload,
) -> Result<RunReport> {
    match run_session(catalog, config, workload, None)? {
        RunOutcome::Completed(run) => Ok(*run),
        RunOutcome::Suspended { key, frontier, .. } => Err(EngineError::Suspended {
            manifest: key,
            frontier,
        }),
    }
}

/// [`run_on_flint`] with crash-resume: with `resume` set, the fresh
/// session replays up to the manifest's frontier through
/// [`Driver::resume`](flint_engine::Driver::resume) and verifies it
/// there; a run that reaches its `suspend_after_waves` boundary ends
/// [`RunOutcome::Suspended`] with the persisted manifest.
pub fn run_session(
    catalog: MarketCatalog,
    config: FlintConfig,
    workload: &dyn Workload,
    resume: Option<&RunManifest>,
) -> Result<RunOutcome> {
    let trace = config.trace.clone();
    let mut cluster = FlintCluster::launch(catalog, config);
    let mut cost_model = *cluster.driver().cost_model();
    cost_model.size_scale = workload.recommended_size_scale();
    cluster.driver_mut().set_cost_model(cost_model);
    if let Some(manifest) = resume {
        cluster.driver_mut().resume(manifest)?;
    }

    let started = cluster.driver().now();
    let summary = match workload.run(cluster.driver_mut()) {
        Ok(summary) => summary,
        Err(EngineError::Suspended { manifest, frontier }) => {
            let text = cluster
                .driver()
                .checkpoints()
                .get_manifest(&manifest)
                .expect("a suspension persists its manifest")
                .to_string();
            trace.flush();
            return Ok(RunOutcome::Suspended {
                key: manifest,
                frontier,
                manifest: text,
            });
        }
        Err(e) => return Err(e),
    };
    let runtime_secs = (cluster.driver().now() - started).as_secs_f64();
    let stats = cluster.driver().stats().clone();
    let cost = cluster.shutdown();
    trace.flush();
    Ok(RunOutcome::Completed(Box::new(RunReport {
        summary,
        runtime_secs,
        stats,
        cost,
        trace: trace.is_enabled().then_some(trace),
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_core::Mode;
    use flint_simtime::SimDuration;
    use flint_workloads::{KMeans, WorkloadConfig};

    #[test]
    fn end_to_end_run_with_bill() {
        let catalog = MarketCatalog::synthetic_ec2(3, SimDuration::from_days(30));
        let wl = KMeans::new(WorkloadConfig {
            dataset_gb: 0.5,
            partitions: 4,
            iterations: 2,
            seed: 2,
        });
        let trace = TraceHandle::disabled();
        let reader = trace.attach_memory(0);
        let run = run_on_flint(
            catalog,
            FlintConfig::builder()
                .n_workers(4)
                .mode(Mode::Interactive)
                .trace(trace)
                .build(),
            &wl,
        )
        .unwrap();
        assert_eq!(run.summary.records, 10); // k centroids
        assert!(run.runtime_secs > 0.0);
        assert!(run.cost.compute_cost > 0.0);
        assert_eq!(run.cost.policy, "flint-interactive");
        assert!(run.trace.is_some());
        assert!(!reader.is_empty(), "an enabled trace must capture events");
    }

    #[test]
    fn suspended_session_resumes_to_the_same_answer() {
        let catalog = || MarketCatalog::synthetic_ec2(5, SimDuration::from_days(30));
        let wl = KMeans::new(WorkloadConfig {
            dataset_gb: 0.3,
            partitions: 4,
            iterations: 2,
            seed: 3,
        });
        let config = || FlintConfig::builder().n_workers(4).build();
        let whole = run_on_flint(catalog(), config(), &wl).unwrap();

        let mut suspending = config();
        suspending.driver.suspend_after_waves = Some(2);
        let manifest = match run_session(catalog(), suspending, &wl, None).unwrap() {
            RunOutcome::Suspended {
                frontier, manifest, ..
            } => {
                assert_eq!(frontier, 2);
                RunManifest::decode(&manifest).unwrap()
            }
            RunOutcome::Completed(_) => panic!("the run must suspend at wave 2"),
        };
        match run_session(catalog(), config(), &wl, Some(&manifest)).unwrap() {
            RunOutcome::Completed(run) => {
                assert_eq!(run.summary.checksum, whole.summary.checksum);
                assert_eq!(run.stats, whole.stats);
            }
            RunOutcome::Suspended { .. } => {
                panic!("a resumed run without a suspend point completes")
            }
        }
    }
}
