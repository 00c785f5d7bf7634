//! Regenerates the paper's evaluation: every table in
//! `flint_bench::EXPERIMENTS`, or only the ones named after `--`.
//! Each is printed and saved as `results/<name>.json`.
//!
//! ```sh
//! cargo bench -p flint-bench --bench figures
//! cargo bench -p flint-bench --bench figures -- fig08 tab_storage_cost
//! ```

use std::process::ExitCode;

use flint_bench::{experiment, run_and_save, EXPERIMENTS};

fn main() -> ExitCode {
    // cargo passes `--bench` to every bench target; flags are not names.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    // Resolve every name before running any, so a typo fails at once.
    let chosen: Result<Vec<_>, _> = if names.is_empty() {
        Ok(EXPERIMENTS.to_vec())
    } else {
        names
            .iter()
            .map(|n| experiment(n).map(|f| (n.as_str(), f)))
            .collect()
    };
    match chosen {
        Ok(chosen) => {
            for (name, f) in chosen {
                run_and_save(name, f);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
