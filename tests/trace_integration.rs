//! Cross-layer trace integration: one Flint-managed run produces a
//! single ordered event stream whose fold reproduces both the engine's
//! `RunStats` and the market's bill.

use flint::core::{FlintConfig, Mode};
use flint::market::MarketCatalog;
use flint::runner::run_on_flint;
use flint::simtime::SimDuration;
use flint::trace::{scan, validate, EventKind, MetricsAggregator, TraceHandle};
use flint::workloads::{PageRank, WorkloadConfig};

fn small_pagerank() -> PageRank {
    PageRank::new(WorkloadConfig {
        dataset_gb: 0.3,
        partitions: 4,
        iterations: 2,
        seed: 11,
    })
}

#[test]
fn traced_run_reproduces_stats_and_bill() {
    let catalog = MarketCatalog::synthetic_ec2(9, SimDuration::from_days(30));
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    let run = run_on_flint(
        catalog,
        FlintConfig::builder()
            .n_workers(4)
            .mode(Mode::Batch)
            .trace(trace)
            .build(),
        &small_pagerank(),
    )
    .unwrap();
    assert!(run.trace.is_some(), "enabled trace must be returned");

    let events = reader.events();
    assert!(!events.is_empty());
    let agg = MetricsAggregator::from_events(&events);

    // Engine accounting is reproduced exactly.
    assert_eq!(agg.tasks_run, run.stats.tasks_run);
    assert_eq!(agg.compute_time_ms, run.stats.compute_time.as_millis());
    assert_eq!(agg.checkpoints_written, run.stats.checkpoints_written);
    assert_eq!(
        agg.checkpoint_wire_bytes, run.stats.checkpoint_wire_bytes,
        "wire-byte accounting must round-trip through the trace"
    );
    assert_eq!(agg.restores, run.stats.restores);
    assert_eq!(agg.revocations, run.stats.revocations);
    assert_eq!(agg.actions, run.stats.actions.len() as u64);

    // After shutdown every instance has been billed exactly once, so the
    // folded bill equals the cost report (modulo float summation order).
    assert!(
        (agg.compute_cost - run.cost.compute_cost).abs() < 1e-9,
        "Σ InstanceBilled = {} but CostReport.compute_cost = {}",
        agg.compute_cost,
        run.cost.compute_cost
    );

    // Market-layer lifecycle made it into the same stream.
    assert!(agg.bids > 0, "bids must be traced");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MarketSelected { .. })),
        "server selection must be traced"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::InstanceReady { .. })),
        "instance readiness must be traced"
    );
}

#[test]
fn untraced_run_returns_no_handle() {
    let catalog = MarketCatalog::synthetic_ec2(9, SimDuration::from_days(30));
    let run = run_on_flint(
        catalog,
        FlintConfig::builder().n_workers(4).build(),
        &small_pagerank(),
    )
    .unwrap();
    assert!(run.trace.is_none());
}

#[test]
fn jsonl_written_by_a_run_validates_and_summarizes() {
    // The reader and validator `flint trace validate` and `flint trace
    // summary` run: every emitted line parses, timestamps are monotone,
    // corrupt checkpoints pair with fallbacks, and the summary fold sees
    // the whole run.
    let catalog = MarketCatalog::synthetic_ec2(9, SimDuration::from_days(30));
    let trace = TraceHandle::disabled();
    let reader = trace.attach_memory(0);
    let run = run_on_flint(
        catalog,
        FlintConfig::builder().n_workers(4).trace(trace).build(),
        &small_pagerank(),
    )
    .unwrap();
    let jsonl = reader.to_jsonl();
    let checked = validate(jsonl.as_bytes()).expect("emitted trace validates");
    assert_eq!(checked.events, reader.len() as u64);
    assert!(
        checked.events >= run.stats.tasks_run,
        "at least one event per task"
    );
    let mut agg = MetricsAggregator::new();
    scan(jsonl.as_bytes(), |ev| agg.observe(ev)).expect("emitted trace scans");
    assert_eq!(agg.events, checked.events);
    assert_eq!(agg.tasks_run, run.stats.tasks_run);
}
