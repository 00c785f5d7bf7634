//! Trace-driven simulation of long-horizon cost and performance (§5.5).
//!
//! The paper's Figures 10 and 11 come from *simulation*, not live runs:
//! a canonical program that checkpoints 4 GB of RDDs every interval is
//! replayed against months of spot-price traces. This crate reproduces
//! that methodology: [`run_mc`] drives the real [`flint_core`] node
//! manager (server selection, warnings, replacements) and the real
//! [`flint_market`] billing over generated traces, while modelling the
//! *program* abstractly as a scalar progress rate with checkpoint
//! overhead and revocation rollback — exactly the quantities in Eq. 1.
//!
//! # Examples
//!
//! ```
//! use flint_model::{run_mc, McConfig};
//! use flint_market::MarketCatalog;
//! use flint_simtime::SimDuration;
//!
//! let catalog = MarketCatalog::synthetic_ec2(3, SimDuration::from_days(60));
//! let r = run_mc(&catalog, &McConfig::default());
//! assert!(r.runtime >= McConfig::default().job_length);
//! assert!(r.compute_cost > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;

pub use campaign::{fan_out, run_mc_campaign, run_seeds, CampaignConfig, CampaignReport};

use flint_core::{
    new_shared, optimal_tau, BatchSelection, BidPolicy, FixedMarketSelection, InteractiveSelection,
    JobProfile, NodeManager, OnDemandSelection, PortfolioPolicy, SelectionConfig, SelectionPolicy,
    SpotFleetCriterion, SpotFleetSelection,
};
use flint_engine::{FailureInjector, WorkerEvent};
use flint_market::{CloudSim, EbsCostModel, MarketCatalog};
use flint_simtime::{SimDuration, SimTime};
use flint_store::StorageConfig;
use serde::{Deserialize, Serialize};

/// Checkpointing behaviour of the canonical program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CkptMode {
    /// Never checkpoint (unmodified Spark): a revocation rolls lost
    /// servers' work back to the beginning.
    None,
    /// Checkpoint on a fixed wall-clock interval.
    Fixed(SimDuration),
    /// Flint's adaptive interval `τ = √(2·δ·MTTF)`, re-derived whenever
    /// the cluster composition (and hence its MTTF) changes.
    Adaptive,
}

/// Which selection policy the run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Flint's batch policy (single cheapest-expected-cost market).
    FlintBatch,
    /// Flint's interactive policy (diversified uncorrelated markets).
    FlintInteractive,
    /// SpotFleet, cheapest-current-price criterion.
    SpotFleetCheapest,
    /// SpotFleet, least-volatile criterion.
    SpotFleetStable,
    /// On-demand only.
    OnDemand,
    /// Pinned to one market (bid-sweep experiments); the value is the
    /// market's raw id.
    FixedMarket(u32),
    /// Mean-variance portfolio policy; the value is the risk-aversion
    /// λ in thousandths (per-mille), keeping the enum `Copy + Eq`
    /// (`Portfolio(2000)` runs at λ = 2.0).
    Portfolio(u32),
}

impl PolicyKind {
    fn build(self) -> Box<dyn SelectionPolicy> {
        match self {
            PolicyKind::FlintBatch => Box::new(BatchSelection),
            PolicyKind::FlintInteractive => Box::new(InteractiveSelection::default()),
            PolicyKind::SpotFleetCheapest => {
                Box::new(SpotFleetSelection::new(SpotFleetCriterion::Cheapest))
            }
            PolicyKind::SpotFleetStable => {
                Box::new(SpotFleetSelection::new(SpotFleetCriterion::LeastVolatile))
            }
            PolicyKind::OnDemand => Box::new(OnDemandSelection),
            PolicyKind::FixedMarket(id) => {
                Box::new(FixedMarketSelection(flint_market::MarketId(id)))
            }
            PolicyKind::Portfolio(risk_milli) => {
                Box::new(PortfolioPolicy::new(f64::from(risk_milli) / 1000.0))
            }
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::FlintBatch => "Flint-Batch",
            PolicyKind::FlintInteractive => "Flint-Interactive",
            PolicyKind::SpotFleetCheapest => "Spot-Fleet",
            PolicyKind::SpotFleetStable => "Spot-Fleet-Stable",
            PolicyKind::OnDemand => "On-demand",
            PolicyKind::FixedMarket(_) => "Fixed-Market",
            PolicyKind::Portfolio(_) => "Flint-Portfolio",
        }
    }
}

/// Configuration of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Failure-free running time `T` of the canonical program.
    pub job_length: SimDuration,
    /// Cluster size `N`.
    pub n_workers: u32,
    /// Checkpointing behaviour.
    pub ckpt: CkptMode,
    /// Bytes checkpointed per interval (the paper's canonical program
    /// writes 4 GB).
    pub checkpoint_bytes: u64,
    /// Storage bandwidth model (for δ).
    pub storage: StorageConfig,
    /// Selection policy.
    pub policy: PolicyKind,
    /// Bid policy.
    pub bid: BidPolicy,
    /// Market-selection configuration.
    pub selection: SelectionConfig,
    /// Session start within the traces.
    pub start: SimTime,
    /// Cloud seed (preemptible lifetimes).
    pub seed: u64,
}

/// Upper bound on the work a partial revocation loses even without
/// checkpoints: iterative data-parallel programs have natural lineage
/// cuts (persisted per-iteration state, durable inputs), so
/// recomputation is bounded by the distance to the nearest surviving
/// cut rather than rolling back to zero.
const ROLLBACK_CAP: SimDuration = SimDuration::from_hours(2);

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            job_length: SimDuration::from_hours(10),
            n_workers: 10,
            ckpt: CkptMode::Adaptive,
            checkpoint_bytes: 4_000_000_000,
            storage: StorageConfig::default(),
            policy: PolicyKind::FlintBatch,
            bid: BidPolicy::OnDemandPrice,
            selection: SelectionConfig::default(),
            start: SimTime::ZERO + SimDuration::from_days(14),
            seed: 0,
        }
    }
}

/// Outcome of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct McResult {
    /// Wall time from start to completion.
    pub runtime: SimDuration,
    /// Instance bill.
    pub compute_cost: f64,
    /// EBS checkpoint storage bill.
    pub storage_cost: f64,
    /// Managed-service fee (0 unless added by the caller).
    pub service_fee: f64,
    /// Revocation events (batches of simultaneous losses).
    pub revocation_events: u32,
    /// Individual servers revoked.
    pub servers_revoked: u32,
    /// Fraction of wall time spent with zero alive workers.
    pub stall_fraction: f64,
    /// The on-demand price of the catalog's reference instance.
    pub on_demand_price: f64,
    /// Cluster size.
    pub n_workers: u32,
    /// The failure-free job length (fixed work) this run performed.
    pub job_length: SimDuration,
}

impl McResult {
    /// Total dollars.
    pub fn total_cost(&self) -> f64 {
        self.compute_cost + self.storage_cost + self.service_fee
    }

    /// Runtime inflation versus the failure-free job length.
    pub fn runtime_increase_frac(&self, job_length: SimDuration) -> f64 {
        let t = job_length.as_secs_f64().max(1.0);
        (self.runtime.as_secs_f64() - t) / t
    }

    /// Cost normalized to what an on-demand cluster would charge for the
    /// same *work* (the paper's unit cost; on-demand = 1.0). Using the
    /// fixed job length as the denominator means revocation-induced
    /// runtime bloat shows up as *higher* unit cost, as it should.
    pub fn unit_cost(&self) -> f64 {
        let od = self.on_demand_price * f64::from(self.n_workers) * self.job_length.as_hours_f64();
        if od <= 0.0 {
            return 0.0;
        }
        self.total_cost() / od
    }
}

/// Runs the canonical program against the catalog under the given
/// configuration. Deterministic for a fixed catalog and config.
pub fn run_mc(catalog: &MarketCatalog, cfg: &McConfig) -> McResult {
    run_mc_traced(catalog, cfg, flint_engine::TraceHandle::disabled())
}

/// [`run_mc`] with a trace handle attached to the cloud simulator, so
/// campaigns can write (or hash) the per-seed lifecycle/billing event
/// stream. The handle is flushed before returning.
pub fn run_mc_traced(
    catalog: &MarketCatalog,
    cfg: &McConfig,
    trace: flint_engine::TraceHandle,
) -> McResult {
    let mut cloud = CloudSim::with_seed(catalog.clone(), cfg.seed);
    cloud.set_trace(trace.clone());
    let ft = new_shared(SimDuration::MAX);
    let job = JobProfile {
        runtime_estimate: cfg.job_length,
        checkpoint_bytes: cfg.checkpoint_bytes,
    };
    let (mut injector, handle) = NodeManager::launch(
        cloud,
        cfg.policy.build(),
        cfg.bid,
        cfg.selection,
        job,
        cfg.storage,
        cfg.n_workers,
        ft.clone(),
        cfg.start,
    );

    let n = f64::from(cfg.n_workers.max(1));
    let target = cfg.job_length.as_secs_f64();
    let delta = cfg.storage.write_time(cfg.checkpoint_bytes, cfg.n_workers);

    let mut t = cfg.start;
    let mut alive: u32 = 0;
    let mut work = 0.0_f64; // useful seconds completed
    let mut ckpt_work = 0.0_f64; // durably saved progress
    let mut last_ckpt_wall = cfg.start;
    let mut revocation_events = 0u32;
    let mut servers_revoked = 0u32;
    let mut stall = SimDuration::ZERO;

    // Hard bound: give up after a year of virtual time (prevents
    // livelock under absurd volatility).
    let deadline = cfg.start + SimDuration::from_days(365);

    while work < target && t < deadline {
        // Current checkpoint interval and overhead.
        let tau = match cfg.ckpt {
            CkptMode::None => SimDuration::MAX,
            CkptMode::Fixed(i) => i,
            CkptMode::Adaptive => optimal_tau(delta, ft.lock().mttf),
        };
        let overhead = if tau == SimDuration::MAX {
            0.0
        } else {
            delta.as_secs_f64() / tau.as_secs_f64().max(1.0)
        };
        let rate = if alive == 0 {
            0.0
        } else {
            (f64::from(alive) / n).min(1.0) / (1.0 + overhead)
        };

        // Next decision point: finish, checkpoint boundary, or cluster
        // event.
        let finish_at = if rate > 0.0 {
            Some(t + SimDuration::from_secs_f64((target - work) / rate))
        } else {
            None
        };
        let next_ckpt = if tau == SimDuration::MAX {
            None
        } else {
            Some((last_ckpt_wall + tau).max(t + SimDuration::from_millis(1)))
        };
        let next_ev = injector.next_event_after(t);

        let mut next = deadline;
        if let Some(x) = finish_at {
            next = next.min(x);
        }
        if let Some(x) = next_ckpt {
            next = next.min(x);
        }
        if let Some(x) = next_ev {
            next = next.min(x);
        }
        if next <= t {
            next = t + SimDuration::from_millis(1);
        }

        // Progress over [t, next).
        let dt = (next - t).as_secs_f64();
        if rate == 0.0 {
            stall += next - t;
        }
        work = (work + rate * dt).min(target);
        let prev_t = t;
        t = next;

        if work >= target {
            break;
        }

        // Checkpoint boundary reached?
        if next_ckpt.map(|x| x <= t).unwrap_or(false) {
            ckpt_work = work;
            last_ckpt_wall = t;
        }

        // Cluster events at or before t.
        let evs = injector.events(prev_t, t);
        let mut removed = 0u32;
        for (_, ev) in evs {
            match ev {
                WorkerEvent::Add { .. } => alive += 1,
                WorkerEvent::Remove { .. } => {
                    alive = alive.saturating_sub(1);
                    removed += 1;
                }
                WorkerEvent::Warn { .. } => {}
            }
        }
        if removed > 0 {
            revocation_events += 1;
            servers_revoked += removed;
            // Lost work is proportional to the fraction of the cluster
            // revoked; unsaved progress since the last checkpoint rolls
            // back (all of it when everything is lost and there are no
            // checkpoints).
            let frac = (f64::from(removed) / n).min(1.0);
            // Partial losses are bounded by the surviving lineage cuts
            // (persisted per-iteration state on the remaining workers);
            // a full-cluster loss destroys those cuts, so everything
            // since the last durable checkpoint is gone.
            let unsaved = if frac >= 1.0 {
                work - ckpt_work
            } else {
                (work - ckpt_work).min(ROLLBACK_CAP.as_secs_f64())
            };
            work -= unsaved * frac;
        }
    }

    let runtime = t - cfg.start;
    handle.shutdown(t);
    let compute_cost = handle.compute_cost(t);
    // Checkpoint volumes are garbage-collected down to roughly one
    // frontier's worth of data (×replication) held for the run.
    let storage_cost = if matches!(cfg.ckpt, CkptMode::None) {
        0.0
    } else {
        let gb = cfg.checkpoint_bytes as f64 / 1e9 * f64::from(cfg.storage.replication.max(1));
        EbsCostModel::default().cost(gb, runtime)
    };

    trace.flush();
    McResult {
        runtime,
        compute_cost,
        storage_cost,
        service_fee: 0.0,
        revocation_events,
        servers_revoked,
        stall_fraction: stall.as_secs_f64() / runtime.as_secs_f64().max(1.0),
        on_demand_price: handle.on_demand_price(),
        n_workers: cfg.n_workers,
        job_length: cfg.job_length,
    }
}

/// Builds a catalog of three independent spot markets with the given
/// target MTTF (hours) at an on-demand bid, plus the on-demand pool —
/// the x-axis of Fig. 10a. Three markets ensure the restoration policy
/// can keep replacing revoked servers with *spot* servers of the same
/// volatility instead of escaping to on-demand.
pub fn catalog_with_mttf(seed: u64, horizon: SimDuration, mttf_hours: f64) -> MarketCatalog {
    use flint_market::{
        InstanceSpec, Market, MarketId, MarketKind, PriceTrace, TraceGenerator, TraceProfile,
    };
    let od = 0.175;
    let gen = TraceGenerator::new(seed, SimTime::ZERO + horizon);
    let profile = TraceProfile::with_mttf_hours(od, mttf_hours);
    let mut markets: Vec<Market> = (0..3u32)
        .map(|i| Market {
            id: MarketId(i),
            name: format!("synthetic-{i}/mttf-{mttf_hours:.0}h"),
            zone: format!("zone-{i}"),
            spec: InstanceSpec::R3_LARGE,
            on_demand_price: od,
            kind: MarketKind::Spot,
            trace: gen.generate(&format!("mttf-target-{i}"), &profile),
        })
        .collect();
    markets.push(Market {
        id: MarketId(3),
        name: "on-demand".into(),
        zone: "region".into(),
        spec: InstanceSpec::R3_LARGE,
        on_demand_price: od,
        kind: MarketKind::OnDemand,
        trace: PriceTrace::flat(od),
    });
    MarketCatalog::new(markets, MarketId(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> McConfig {
        McConfig {
            job_length: SimDuration::from_hours(10),
            ..McConfig::default()
        }
    }

    #[test]
    fn on_demand_run_has_no_overhead() {
        let catalog = MarketCatalog::synthetic_ec2(3, SimDuration::from_days(60));
        let r = run_mc(
            &catalog,
            &McConfig {
                policy: PolicyKind::OnDemand,
                ckpt: CkptMode::Adaptive,
                ..quick_cfg()
            },
        );
        assert_eq!(r.revocation_events, 0);
        // Only the acquisition delay pads the runtime.
        assert!(r.runtime_increase_frac(quick_cfg().job_length) < 0.01);
        assert!(
            (r.unit_cost() - 1.0).abs() < 0.15,
            "unit cost {}",
            r.unit_cost()
        );
    }

    #[test]
    fn flint_batch_is_far_cheaper_than_on_demand() {
        let catalog = MarketCatalog::synthetic_ec2(3, SimDuration::from_days(90));
        let flint = run_mc(&catalog, &quick_cfg());
        let od = run_mc(
            &catalog,
            &McConfig {
                policy: PolicyKind::OnDemand,
                ..quick_cfg()
            },
        );
        assert!(
            flint.total_cost() < 0.5 * od.total_cost(),
            "flint {} vs od {}",
            flint.total_cost(),
            od.total_cost()
        );
    }

    #[test]
    fn runtime_increase_shrinks_with_mttf() {
        let horizon = SimDuration::from_days(120);
        let job = SimDuration::from_hours(24);
        let frac_at = |mttf: f64| {
            let cat = catalog_with_mttf(9, horizon, mttf);
            // Average over a few trace offsets for stability.
            let mut sum = 0.0;
            for (i, day) in [15u64, 30, 45, 60].iter().enumerate() {
                let r = run_mc(
                    &cat,
                    &McConfig {
                        job_length: job,
                        start: SimTime::ZERO + SimDuration::from_days(*day),
                        seed: i as u64,
                        ..McConfig::default()
                    },
                );
                sum += r.runtime_increase_frac(job);
            }
            sum / 4.0
        };
        let volatile = frac_at(3.0);
        let stable = frac_at(100.0);
        assert!(
            stable < volatile,
            "100h MTTF ({stable:.3}) should beat 3h MTTF ({volatile:.3})"
        );
        assert!(
            stable < 0.10,
            "quiet market increase {stable:.3} should be <10%"
        );
    }

    #[test]
    fn checkpointing_beats_recomputation_under_volatility() {
        let cat = catalog_with_mttf(5, SimDuration::from_days(60), 2.0);
        let base = McConfig {
            job_length: SimDuration::from_hours(12),
            ..McConfig::default()
        };
        let with = run_mc(&cat, &base);
        let without = run_mc(
            &cat,
            &McConfig {
                ckpt: CkptMode::None,
                ..base
            },
        );
        assert!(
            with.runtime < without.runtime,
            "ckpt {} vs none {}",
            with.runtime,
            without.runtime
        );
    }

    #[test]
    fn deterministic_runs() {
        let catalog = MarketCatalog::synthetic_ec2(3, SimDuration::from_days(60));
        let a = run_mc(&catalog, &quick_cfg());
        let b = run_mc(&catalog, &quick_cfg());
        assert_eq!(a, b);
    }

    /// Eq. 1's expected-runtime model should predict the Monte-Carlo
    /// measurement within a factor-level tolerance: the analytic factor
    /// and the simulated mean increase must agree on which regimes are
    /// mild and which are harsh.
    #[test]
    fn analytic_model_tracks_simulation() {
        use flint_core::{expected_runtime_factor, optimal_tau};
        let job = SimDuration::from_hours(24);
        for mttf_h in [5.0, 10.0, 20.0] {
            let cat = catalog_with_mttf(9, SimDuration::from_days(150), mttf_h);
            let cfg = McConfig {
                job_length: job,
                ..McConfig::default()
            };
            let delta = cfg.storage.write_time(cfg.checkpoint_bytes, cfg.n_workers);
            let mttf = SimDuration::from_hours_f64(mttf_h);
            let tau = optimal_tau(delta, mttf);
            let analytic =
                expected_runtime_factor(delta, tau, mttf, SimDuration::from_secs(120), 1.0) - 1.0;

            let mut sum = 0.0;
            const RUNS: u64 = 8;
            for i in 0..RUNS {
                let r = run_mc(
                    &cat,
                    &McConfig {
                        seed: i,
                        start: SimTime::ZERO + SimDuration::from_days(14 + i * 9),
                        ..cfg.clone()
                    },
                );
                sum += r.runtime_increase_frac(job);
            }
            let simulated = sum / RUNS as f64;
            // Same order of magnitude (both are small percentages), and
            // the analytic figure is a sane upper-ish bound: the MC run
            // only pays rollbacks on events that actually land.
            assert!(
                simulated < analytic * 5.0 + 0.02,
                "MTTF {mttf_h}h: simulated {simulated:.4} >> analytic {analytic:.4}"
            );
            assert!(
                simulated > analytic / 20.0 - 0.001,
                "MTTF {mttf_h}h: simulated {simulated:.4} << analytic {analytic:.4}"
            );
        }
    }

    #[test]
    fn interactive_policy_survives_and_completes() {
        let catalog = MarketCatalog::synthetic_ec2(3, SimDuration::from_days(60));
        let r = run_mc(
            &catalog,
            &McConfig {
                policy: PolicyKind::FlintInteractive,
                ..quick_cfg()
            },
        );
        assert!(r.runtime >= quick_cfg().job_length);
        assert!(r.compute_cost > 0.0);
    }
}
