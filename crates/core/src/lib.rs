//! Flint: batch-interactive data-intensive processing on transient servers.
//!
//! This crate implements the policies contributed by the EuroSys 2016
//! paper, on top of the [`flint_engine`] data-parallel engine and the
//! [`flint_market`] transient-server simulator:
//!
//! * **Automated checkpointing** ([`FlintCheckpointPolicy`]) — every
//!   `τ = √(2·δ·MTTF)` time units, the RDDs at the frontier of the lineage
//!   graph are checkpointed (Policy 1); shuffle-produced RDDs are
//!   checkpointed at the faster interval `τ / #map-partitions`; the
//!   checkpoint time `δ` is re-estimated from observed frontier sizes and
//!   write bandwidth, so `τ` adapts to the program as it runs.
//! * **Batch server selection** ([`BatchSelection`]) — provision a
//!   homogeneous cluster from the single spot market minimizing the
//!   expected cost `E[C_k] = E[T_k] · p_k` (Eq. 1–2), where the expected
//!   running time folds in checkpoint overhead and expected recomputation.
//! * **Interactive server selection** ([`InteractiveSelection`]) —
//!   diversify across mutually-uncorrelated markets (Policy 2): greedily
//!   add markets in expected-cost order while the variance of the running
//!   time keeps dropping, using the harmonic-mean cluster MTTF (Eq. 3–4).
//! * **A node manager** ([`NodeManager`]) that provisions and replaces
//!   transient servers through the cloud simulator, reacting to the
//!   two-minute revocation warning, and bridges cloud instance events into
//!   the engine as worker add/remove events.
//! * **Baselines** used in the paper's evaluation: no checkpointing,
//!   periodic systems-level (whole-memory) checkpointing, SpotFleet-style
//!   application-agnostic market selection, Spark-EMR pricing, and pure
//!   on-demand.
//!
//! The one-stop entry point is [`FlintCluster`], which wires a
//! [`flint_engine::Driver`] to a node manager and checkpoint policy and
//! exposes cost reporting.
//!
//! # Examples
//!
//! ```
//! use flint_core::{FlintCluster, FlintConfig, Mode};
//! use flint_market::MarketCatalog;
//! use flint_simtime::SimDuration;
//! use flint_engine::Value;
//!
//! let catalog = MarketCatalog::synthetic_ec2(7, SimDuration::from_days(30));
//! let config = FlintConfig::builder().n_workers(4).mode(Mode::Batch).build();
//! let mut cluster = FlintCluster::launch(catalog, config);
//!
//! let driver = cluster.driver_mut();
//! let nums = driver.ctx().parallelize((0..1000).map(Value::from_i64), 8);
//! let sq = driver.ctx().map(nums, |v| Value::Int(v.as_i64().unwrap().pow(2)));
//! assert_eq!(driver.count(sq).unwrap(), 1000);
//!
//! let report = cluster.cost_report();
//! assert!(report.compute_cost >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod bidding;
mod ckpt_policy;
mod flint;
mod node_manager;
mod report;
mod selection;

pub use baselines::{EmrPricing, FixedMarketSelection, SpotFleetCriterion, SpotFleetSelection};
pub use bidding::BidPolicy;
pub use ckpt_policy::{
    new_shared, FlintCheckpointPolicy, FtShared, FtSharedHandle, PeriodicRddCheckpoint,
    PeriodicSystemCheckpoint,
};
pub use flint::{BackendSpec, FlintCluster, FlintConfig, FlintConfigBuilder, Mode};
pub use node_manager::{NodeManager, NodeManagerHandle};
pub use report::CostReport;
pub use selection::{
    expected_cost, expected_runtime_factor, harmonic_mttf, optimal_tau, runtime_variance,
    BatchSelection, InteractiveSelection, JobProfile, MarketView, OnDemandSelection,
    PortfolioPolicy, SelectionConfig, SelectionPolicy, PRICE_WINDOW, RISK_POLICY2,
};
