//! The Flint benchmark harness: one experiment per table/figure of the
//! paper's evaluation (§5), plus ablations.
//!
//! Every experiment is a plain function returning a [`Table`], listed
//! once in [`EXPERIMENTS`] under its `results/<name>.json` name. The
//! `figures` bench target runs the registry through [`run_and_save`],
//! so `cargo bench -p flint-bench --bench figures [-- NAME…]` regenerates
//! the entire evaluation (or the named tables), and `flint experiment
//! <name>` prints one table from the same list. Unit tests call the same
//! functions and assert the paper's *directional* claims (who wins, by
//! roughly what factor), which keeps the reproduction honest under
//! refactoring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod exp_engine;
pub mod exp_market;
pub mod exp_model;
pub mod setups;
mod table;

pub use table::Table;

/// One experiment: builds its table from scratch, deterministically.
pub type Experiment = fn() -> Table;

/// Every experiment of the evaluation, keyed by the name its table is
/// saved under (`results/<name>.json`).
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig02a", exp_market::fig02a_ec2_availability),
    ("fig02b", exp_market::fig02b_gce_availability),
    ("fig03", exp_engine::fig03_memory_pressure),
    ("fig04", exp_market::fig04_correlation),
    ("fig06a", exp_engine::fig06a_ckpt_tax),
    ("fig06b", exp_engine::fig06b_system_ckpt),
    ("fig06c", exp_engine::fig06c_volatility),
    ("fig07", exp_engine::fig07_single_revocation),
    ("fig08", exp_engine::fig08_concurrent_failures),
    ("fig09", exp_engine::fig09_interactive),
    ("fig10a", exp_model::fig10a_mttf_sweep),
    ("fig10b", exp_model::fig10b_flint_vs_spark),
    ("fig11a", exp_model::fig11a_unit_cost),
    ("fig11b", exp_model::fig11b_bid_sweep),
    ("tab_multi_az", exp_engine::tab_multi_az),
    ("tab_storage_cost", exp_model::tab_storage_cost),
    ("ablation_fixed_tau", ablations::ablation_fixed_tau),
    (
        "ablation_adaptive_vs_periodic",
        ablations::ablation_adaptive_vs_periodic,
    ),
    (
        "ablation_shuffle_fastpath",
        ablations::ablation_shuffle_fastpath,
    ),
    ("ablation_market_count", ablations::ablation_market_count),
    (
        "ablation_bid_stratification",
        ablations::ablation_bid_stratification,
    ),
    ("ext_streaming", ablations::ext_streaming_latency),
    (
        "ablation_adaptive_delta",
        ablations::ablation_adaptive_delta,
    ),
    ("ablation_portfolio", ablations::ablation_portfolio),
    ("ablation_backend", ablations::ablation_backend),
    ("ablation_backstop", ablations::ablation_backstop),
];

/// Looks `name` up in [`EXPERIMENTS`]; the error lists the valid names.
pub fn experiment(name: &str) -> Result<Experiment, String> {
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some(&(_, f)) => Ok(f),
        None => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            Err(format!(
                "unknown experiment: {name} (expected one of: {})",
                names.join(" ")
            ))
        }
    }
}

/// Runs an experiment function, prints its table, and persists JSON under
/// `results/` (relative to the workspace root).
pub fn run_and_save(name: &str, f: impl FnOnce() -> Table) {
    let started = std::time::Instant::now();
    let table = f();
    println!("{table}");
    let elapsed = started.elapsed();
    println!("[{name}] completed in {:.1}s (wall)", elapsed.as_secs_f64());
    if let Err(e) = table.save_json(name) {
        eprintln!("[{name}] could not write results JSON: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn unknown_names_list_the_registry() {
        assert!(experiment("fig04").is_ok());
        let err = experiment("multiaz").unwrap_err();
        assert!(err.starts_with("unknown experiment: multiaz (expected one of: fig02a "));
        assert!(err.ends_with(" ablation_backstop)"));
    }
}
