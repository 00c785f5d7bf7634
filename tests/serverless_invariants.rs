//! Cross-crate invariants of the serverless execution backend, driven
//! through the public `FlintCluster` / `run_on_flint` surface:
//!
//! * every workload in the suite completes under `BackendSpec::Serverless`
//!   with a result checksum identical to its transient-VM run — the
//!   backend moves latency and dollars, never data;
//! * the traced run is deterministic across `host_threads` settings and
//!   across replays of the same seed;
//! * the billing ledger reconciles three ways: Σ `InvocationBilled`
//!   events == `CostReport.compute_cost` == the `MetricsAggregator`'s
//!   fold, exactly.

use flint::core::{BackendSpec, FlintConfig};
use flint::engine::DriverConfig;
use flint::market::MarketCatalog;
use flint::runner::run_on_flint;
use flint::simtime::SimDuration;
use flint::trace::{EventKind, MetricsAggregator, TraceHandle};
use flint::workloads::{Als, KMeans, PageRank, Streaming, Tpch, Workload, WorkloadConfig};

fn small_config(seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        dataset_gb: 0.3,
        partitions: 4,
        iterations: 2,
        seed,
    }
}

/// All five stock workloads, at small scale.
fn suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(PageRank::new(small_config(1))),
        Box::new(KMeans::new(small_config(2))),
        Box::new(Als::new(small_config(3))),
        Box::new(Tpch::new(small_config(4))),
        Box::new(Streaming::new(small_config(5))),
    ]
}

fn catalog() -> MarketCatalog {
    MarketCatalog::synthetic_ec2(7, SimDuration::from_days(30))
}

#[test]
fn every_workload_matches_its_vm_checksum_under_serverless() {
    for wl in suite() {
        let vm = run_on_flint(
            catalog(),
            FlintConfig::builder().n_workers(4).seed(13).build(),
            wl.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{} failed on vm: {e}", wl.name()));
        assert_eq!(vm.backend(), "vm");
        let sl = run_on_flint(
            catalog(),
            FlintConfig::builder()
                .n_workers(8)
                .seed(13)
                .backend(BackendSpec::Serverless(Default::default()))
                .build(),
            wl.as_ref(),
        )
        .unwrap_or_else(|e| panic!("{} failed on serverless: {e}", wl.name()));
        assert_eq!(sl.backend(), "serverless");
        assert_eq!(
            sl.summary.checksum,
            vm.summary.checksum,
            "{}: serverless changed the answer",
            wl.name()
        );
        assert_eq!(sl.summary.records, vm.summary.records);
        assert!(sl.cost.invocations > 0, "{}: nothing billed", wl.name());
        assert!(sl.cost.compute_cost > 0.0);
        assert!(sl.cost.invocation_gb_seconds > 0.0);
        assert_eq!(sl.cost.revocations, 0, "function slots are not revocable");
    }
}

/// Runs PageRank on a traced serverless cluster and returns the JSONL
/// stream plus the final bill.
fn traced_serverless_run(host_threads: usize, seed: u64) -> (String, flint::core::CostReport) {
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    let driver_cfg = DriverConfig::builder().host_threads(host_threads).build();
    let wl = PageRank::new(small_config(9));
    let run = run_on_flint(
        catalog(),
        FlintConfig::builder()
            .n_workers(8)
            .seed(seed)
            .driver(driver_cfg)
            .trace(trace)
            .backend(BackendSpec::Serverless(Default::default()))
            .build(),
        &wl,
    )
    .unwrap();
    let jsonl = reader.to_jsonl();
    if let Err(e) = flint::trace::validate(jsonl.as_bytes()) {
        panic!("serverless trace fails validation: {e}");
    }
    (jsonl, run.cost)
}

#[test]
fn serverless_cluster_runs_are_host_thread_and_replay_deterministic() {
    let (golden, cost) = traced_serverless_run(1, 77);
    assert!(!golden.is_empty());
    for threads in [2usize, 8] {
        let (jsonl, other) = traced_serverless_run(threads, 77);
        assert_eq!(
            jsonl, golden,
            "host_threads={threads} moved the serverless stream"
        );
        assert_eq!(other.compute_cost, cost.compute_cost);
        assert_eq!(other.invocations, cost.invocations);
    }
    // Replay at the same thread count is byte-identical too.
    let (replay, _) = traced_serverless_run(1, 77);
    assert_eq!(replay, golden);
    // A different cloud seed draws different cold-start latencies.
    let (other_seed, _) = traced_serverless_run(1, 78);
    assert_ne!(other_seed, golden);
}

#[test]
fn billing_reconciles_event_stream_aggregator_and_cost_report() {
    let (jsonl, cost) = traced_serverless_run(4, 21);
    assert_eq!(cost.backend, "serverless");
    assert_eq!(cost.policy, "serverless");

    // Raw fold of the event stream, in stream (commit) order — the same
    // f64 accumulation order the backend used, so equality is exact —
    // next to the aggregator's fold of the same stream.
    let mut billed_cost = 0.0f64;
    let mut billed_gb = 0.0f64;
    let mut billed_n = 0u64;
    let mut selected = None;
    let mut agg = MetricsAggregator::new();
    flint::trace::scan(jsonl.as_bytes(), |ev| {
        agg.observe(ev);
        match &ev.kind {
            EventKind::InvocationBilled {
                gb_seconds, cost, ..
            } => {
                billed_cost += cost;
                billed_gb += gb_seconds;
                billed_n += 1;
            }
            EventKind::BackendSelected { backend, workers } => {
                selected = Some((backend.clone(), *workers));
            }
            _ => {}
        }
    })
    .expect("emitted stream scans");
    assert_eq!(selected, Some(("serverless".to_string(), 8)));
    assert_eq!(billed_cost, cost.compute_cost, "Σ events != compute cost");
    assert_eq!(billed_gb, cost.invocation_gb_seconds);
    assert_eq!(billed_n, cost.invocations);

    // The aggregator folds to the same ledger.
    assert_eq!(agg.backend.as_deref(), Some("serverless"));
    assert_eq!(agg.backend_workers, 8);
    assert_eq!(agg.invocations_billed, cost.invocations);
    assert_eq!(agg.invocation_cost, cost.compute_cost);
    assert_eq!(agg.invocation_gb_seconds, cost.invocation_gb_seconds);
    assert!(agg.invocations > 0);
    assert!(agg.cold_starts > 0, "first hit on each slot must be cold");
    assert!(agg.shuffles_externalized > 0, "shuffles must hit the store");
}
