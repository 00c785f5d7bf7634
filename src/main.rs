//! The `flint` command-line interface: run workloads on simulated
//! transient clusters, explore markets, and regenerate the paper's
//! experiments.
//!
//! ```sh
//! flint workload pagerank --gb 2 --workers 10 --failures 5 --checkpoint
//! flint markets --seed 42 --days 60
//! flint mc --policy fleet --hours 24
//! flint experiment fig08
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use flint::core::{BackendSpec, FlintCheckpointPolicy, FlintConfig, Mode, PRICE_WINDOW};
use flint::engine::{
    run_chaos, ChaosConfig, ChaosOutcome, ChaosSchedule, CheckpointHooks, Driver, DriverConfig,
    EagerCheckpoint, NoCheckpoint, NoFailures, RunManifest, ScriptedInjector, ServerlessConfig,
    WorkerEvent, WorkerSpec,
};
use flint::market::MarketCatalog;
use flint::model::{
    fan_out, run_mc, run_mc_campaign, CampaignConfig, CkptMode, McConfig, PolicyKind,
};
use flint::runner::{run_session, RunOutcome, RunReport};
use flint::simtime::{SimDuration, SimTime};
use flint::trace::{JsonlSink, MetricsAggregator, TraceHandle};
use flint::workloads::{Als, KMeans, PageRank, Tpch, Workload, WorkloadConfig, WorkloadSummary};

/// Exit codes beyond plain success/failure, so callers can tell the
/// degradation outcomes apart: `3` = the run completed correctly but
/// through a degradation path (crash-resume replay, on-demand backstop),
/// `4` = a typed engine error (fail-stop, never wrong data), `5` = a
/// panic or invariant violation. `1` stays for usage and I/O errors.
const EXIT_DEGRADED: u8 = 3;
const EXIT_TYPED: u8 = 4;
const EXIT_PANIC: u8 = 5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    // A closed stdout (`flint markets | head -1`) means the reader has
    // what it wanted: that one panic is silenced and ends the run with 0.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !is_closed_stdout(info.payload()) {
            default_hook(info);
        }
    }));
    // Any other panic below is an invariant violation, reported with its
    // own exit code so scripts can tell it from a typed fail-stop error.
    let code = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match cmd.as_str() {
        "run" => cmd_run(&args, &flags),
        "workload" => cmd_workload(&args, &flags),
        "chaos" => cmd_chaos(&flags),
        "markets" => cmd_markets(&flags),
        "mc" => cmd_mc(&flags),
        "experiment" => cmd_experiment(&args),
        "trace" => cmd_trace(&args, &flags),
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
            ExitCode::FAILURE
        }
    }));
    match code {
        Ok(code) => code,
        Err(payload) if is_closed_stdout(&*payload) => ExitCode::SUCCESS,
        Err(_) => ExitCode::from(EXIT_PANIC),
    }
}

/// Whether a panic payload is the standard library's `print!` failure
/// on a stdout pipe whose reader has gone away.
fn is_closed_stdout(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<String>().is_some_and(|msg| {
        msg.starts_with("failed printing to stdout: ") && msg.contains("Broken pipe")
    })
}

fn usage() {
    eprintln!(
        "flint — batch-interactive data-intensive processing on transient servers

USAGE:
  flint run <pagerank|kmeans|als|tpch> [--gb N] [--partitions N]
        [--iterations N] [--seed N] [--workers N]
        [--backend vm|serverless]
        [--policy batch|interactive|portfolio] [--risk R]
        [--trace FILE]   (run on a Flint-managed cluster; --trace writes
                          the structured event stream as JSONL. --mode is
                          accepted as an alias for --policy; --risk sets
                          the portfolio's risk-aversion lambda, default 1.0.
                          --backend serverless runs every task as a billed
                          function invocation — market flags like --policy
                          and --bid are rejected there)
        [--suspend-after W] [--manifest FILE] [--resume FILE]
                         (crash-resume: --suspend-after kills the run at
                          wave-commit boundary W and writes its run
                          manifest to --manifest (default flint.manifest);
                          --resume replays a fresh session from a manifest
                          file — same flags required — and exits 3 on a
                          degraded-but-complete finish)
  flint workload <pagerank|kmeans|als|tpch> [--gb N] [--iterations N]
        [--workers N] [--failures K] [--mttf H] [--checkpoint] [--seed N]
        [--dot FILE]   (write the executed lineage graph as Graphviz DOT)
  flint chaos [--seed N] [--runs R] [--jobs N]
        [--faults revoke,mass,flap,delay,store,driver-crash,market-collapse]
        [--crash-prob P] [--crash-wave-max N] [--collapse-prob P]
        [--workload W] [--gb N] [--workers N] [--mttf H] [--trace FILE]
                          (seeded fault-injection campaign: each run is
                           diffed against its fault-free twin and must
                           finish byte-identical or with a typed error;
                           --jobs fans runs across host threads with
                           byte-identical output. driver-crash and
                           market-collapse arm only when named explicitly
                           — a crashed run is resumed from its persisted
                           manifest and must still match the twin)
  flint markets [--seed N] [--days N]
  flint mc [--policy batch|interactive|portfolio|fleet|od] [--risk R]
        [--hours N] [--seed N] [--workers N] [--runs R] [--jobs N]
                          (--runs > 1 replays the config under consecutive
                           seeds and merges a campaign report; --jobs fans
                           seeds across host threads, byte-identical to
                           --jobs 1)
  flint experiment <name>   (print one evaluation table, named as its
                             results/<name>.json; an unknown name lists
                             every experiment)
  flint trace summary <FILE>    (fold a JSONL event trace into run metrics)
  flint trace validate <FILE>   (parse-check a JSONL event trace and verify
                                 fault/recovery pairing: every corrupt
                                 checkpoint detection must be answered by a
                                 lineage fallback or a typed failure)
  flint trace prices [--seed N] [--days N] [--market I]
                                (CSV price trace to stdout; also the
                                 default when no subcommand is given)

EXIT CODES:
  0 success   1 usage/I-O error   3 degraded-but-complete (resumed or
  backstopped)   4 typed engine error (fail-stop)   5 panic / invariant
  violation"
    );
}

fn parse_flags(rest: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < rest.len() {
        if let Some(name) = rest[i].strip_prefix("--") {
            let value = rest
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".to_string());
            if value != "true" {
                i += 1;
            }
            flags.insert(name.to_string(), value);
        }
        i += 1;
    }
    flags
}

fn flag_f64(flags: &HashMap<String, String>, name: &str, default: f64) -> f64 {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag_u(flags: &HashMap<String, String>, name: &str, default: u64) -> u64 {
    flags
        .get(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Why the `--backend` selection could not be honored.
#[derive(Debug, PartialEq, Eq)]
enum BackendFlagError {
    /// `--backend` named something other than `vm` or `serverless`.
    UnknownBackend(String),
    /// A VM-market flag was passed under a backend that has no market
    /// (rejected instead of silently ignored).
    MeaninglessFlag {
        backend: &'static str,
        flag: &'static str,
    },
}

impl std::fmt::Display for BackendFlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendFlagError::UnknownBackend(name) => {
                write!(f, "unknown backend: {name} (expected vm|serverless)")
            }
            BackendFlagError::MeaninglessFlag { backend, flag } => write!(
                f,
                "--{flag} is meaningless under the {backend} backend: functions are \
                 not bid for on spot markets (drop --{flag} or use --backend vm)"
            ),
        }
    }
}

/// Resolves `--backend` (default `vm`). Under `serverless`, the flags
/// that parameterize the VM market path are typed errors.
fn resolve_backend(flags: &HashMap<String, String>) -> Result<BackendSpec, BackendFlagError> {
    match flags.get("backend").map(String::as_str).unwrap_or("vm") {
        "vm" => Ok(BackendSpec::TransientVm),
        "serverless" => {
            for flag in ["policy", "mode", "bid", "risk"] {
                if flags.contains_key(flag) {
                    return Err(BackendFlagError::MeaninglessFlag {
                        backend: "serverless",
                        flag,
                    });
                }
            }
            Ok(BackendSpec::Serverless(ServerlessConfig::default()))
        }
        other => Err(BackendFlagError::UnknownBackend(other.to_string())),
    }
}

fn parse_workload(name: &str, flags: &HashMap<String, String>) -> Option<Box<dyn Workload>> {
    let cfg = WorkloadConfig {
        dataset_gb: flag_f64(flags, "gb", 2.0),
        partitions: flag_u(flags, "partitions", 20) as u32,
        iterations: flag_u(flags, "iterations", 5) as u32,
        seed: flag_u(flags, "seed", 42),
    };
    make_workload(name, cfg)
}

fn make_workload(name: &str, cfg: WorkloadConfig) -> Option<Box<dyn Workload>> {
    match name {
        "pagerank" => Some(Box::new(PageRank::new(cfg))),
        "kmeans" => Some(Box::new(KMeans::new(cfg))),
        "als" => Some(Box::new(Als::new(cfg))),
        "tpch" => Some(Box::new(Tpch::new(cfg))),
        _ => None,
    }
}

fn cmd_run(args: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(name) = args.get(1) else {
        eprintln!("run: missing workload name");
        return ExitCode::FAILURE;
    };
    let Some(wl) = parse_workload(name, flags) else {
        eprintln!("unknown workload: {name}");
        return ExitCode::FAILURE;
    };
    let backend = match resolve_backend(flags) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("run: {e}");
            return ExitCode::FAILURE;
        }
    };
    // `--policy` is the canonical spelling; `--mode` stays as an alias
    // for older scripts. (Under serverless both were already rejected
    // above, so the default here is never a silent override.)
    let policy = flags
        .get("policy")
        .or_else(|| flags.get("mode"))
        .map(String::as_str)
        .unwrap_or("batch");
    let mode = match policy {
        "batch" => Mode::Batch,
        "interactive" => Mode::Interactive,
        "portfolio" => Mode::Portfolio,
        other => {
            eprintln!("unknown policy: {other} (expected batch|interactive|portfolio)");
            return ExitCode::FAILURE;
        }
    };
    let trace = TraceHandle::disabled();
    if let Some(path) = flags.get("trace") {
        match std::fs::File::create(path) {
            Ok(f) => trace.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f)))),
            Err(e) => {
                eprintln!("could not create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let suspend_after = match flags.get("suspend-after") {
        Some(v) => match v.parse::<u64>() {
            Ok(w) => Some(w),
            Err(_) => {
                eprintln!("run: --suspend-after expects a wave number, got {v}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let resume = match flags.get("resume") {
        Some(path) => match read_manifest(path) {
            Ok(manifest) => Some((path, manifest)),
            Err(e) => {
                eprintln!("run: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let catalog =
        MarketCatalog::synthetic_ec2(flag_u(flags, "seed", 42), SimDuration::from_days(30));
    let mut config = FlintConfig::builder()
        .n_workers(flag_u(flags, "workers", 10) as u32)
        .mode(mode)
        .risk_aversion(flag_f64(flags, "risk", 1.0))
        .seed(flag_u(flags, "seed", 42))
        .trace(trace)
        .backend(backend)
        .build();
    config.driver.suspend_after_waves = suspend_after;

    let resume_from = resume.as_ref().map(|(_, m)| m);
    match run_session(catalog, config, wl.as_ref(), resume_from) {
        Ok(RunOutcome::Completed(run)) => {
            print_run_report(&run, flags.get("trace"));
            match resume {
                // A resumed run is correct but took the degradation path.
                Some((path, manifest)) => {
                    println!(
                        "resumed      : replayed from wave {} ({path})",
                        manifest.frontier
                    );
                    ExitCode::from(EXIT_DEGRADED)
                }
                None => ExitCode::SUCCESS,
            }
        }
        Ok(RunOutcome::Suspended {
            frontier, manifest, ..
        }) => {
            let out = flags
                .get("manifest")
                .map_or("flint.manifest", String::as_str);
            if let Err(e) = std::fs::write(out, manifest) {
                eprintln!("run: could not write {out}: {e}");
                return ExitCode::FAILURE;
            }
            println!("suspended    : at wave {frontier}; manifest written to {out}");
            println!("resume with  : flint run … --resume {out} (same flags)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::from(EXIT_TYPED)
        }
    }
}

/// Reads and decodes the run manifest at `path`.
fn read_manifest(path: &str) -> Result<RunManifest, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read manifest {path}: {e}"))?;
    RunManifest::decode(&text).map_err(|e| format!("{path} is not a run manifest: {e}"))
}

/// The human-readable summary of a completed run.
fn print_run_report(run: &RunReport, trace_path: Option<&String>) {
    println!("workload     : {}", run.summary.name);
    println!("records      : {}", run.summary.records);
    println!("checksum     : {:#018x}", run.summary.checksum);
    println!("runtime      : {:.1}s", run.runtime_secs);
    println!("tasks        : {}", run.stats.tasks_run);
    println!(
        "checkpoints  : {} ({} GB)",
        run.stats.checkpoints_written,
        run.stats.checkpoint_bytes / 1_000_000_000
    );
    println!("restores     : {}", run.stats.restores);
    println!("revocations  : {}", run.stats.revocations);
    println!("backend      : {}", run.backend());
    println!("policy       : {}", run.cost.policy);
    if run.cost.invocations > 0 {
        println!("invocations  : {}", run.cost.invocations);
        println!("gb-seconds   : {:.2}", run.cost.invocation_gb_seconds);
        // Per-invocation pricing bills in micro-dollars; two decimals
        // would round a typical run to $0.00.
        println!("compute cost : ${:.6}", run.cost.compute_cost);
    } else {
        println!("compute cost : ${:.2}", run.cost.compute_cost);
    }
    println!("storage cost : ${:.2}", run.cost.storage_cost);
    if let Some(path) = trace_path {
        println!("trace        : written to {path}");
    }
}

/// Runs `wl` with no faults and no checkpoints on `workers` r3.large
/// workers (ext ids `1..=workers`), returning the reference result and
/// virtual makespan that faulted runs are measured against.
fn fault_free_run(
    wl: &dyn Workload,
    cfg: &DriverConfig,
    workers: u64,
) -> (WorkloadSummary, SimDuration) {
    let mut d = Driver::new(cfg.clone(), Box::new(NoCheckpoint), Box::new(NoFailures));
    for ext in 1..=workers {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let summary = wl.run(&mut d).expect("fault-free run");
    (summary, d.now().since_epoch())
}

fn cmd_workload(args: &[String], flags: &HashMap<String, String>) -> ExitCode {
    let Some(name) = args.get(1) else {
        eprintln!("workload: missing name");
        return ExitCode::FAILURE;
    };
    let Some(wl) = parse_workload(name, flags) else {
        eprintln!("unknown workload: {name}");
        return ExitCode::FAILURE;
    };
    let workers = flag_u(flags, "workers", 10);
    let failures = flag_u(flags, "failures", 0) as u32;
    let checkpoint = flags.contains_key("checkpoint");
    let mttf = SimDuration::from_hours_f64(flag_f64(flags, "mttf", 20.0));

    // Time the failure-free run first so failures can strike mid-job.
    let mut driver_cfg = DriverConfig::default();
    driver_cfg.cost.size_scale = wl.recommended_size_scale();
    let (_, baseline) = fault_free_run(wl.as_ref(), &driver_cfg, workers);

    let mut events = Vec::new();
    let strike = SimTime::ZERO + baseline / 2;
    for ext in 1..=u64::from(failures) {
        events.push((strike, WorkerEvent::Remove { ext_id: ext }));
        events.push((
            strike + SimDuration::from_secs(120),
            WorkerEvent::Add {
                ext_id: 1000 + ext,
                spec: WorkerSpec::r3_large(),
            },
        ));
    }
    let hooks: Box<dyn CheckpointHooks> = if checkpoint {
        Box::new(FlintCheckpointPolicy::with_mttf(mttf))
    } else {
        Box::new(NoCheckpoint)
    };
    let mut d = Driver::new(driver_cfg, hooks, Box::new(ScriptedInjector::new(events)));
    for ext in 1..=workers {
        d.add_worker_with_ext(ext, WorkerSpec::r3_large());
    }
    let summary = wl.run(&mut d).expect("workload run");
    let runtime = d.now().since_epoch();
    println!("workload     : {}", summary.name);
    println!("records      : {}", summary.records);
    println!("checksum     : {:#018x}", summary.checksum);
    println!("baseline     : {baseline}");
    println!("runtime      : {runtime}");
    println!(
        "increase     : {:+.1}%",
        (runtime.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0
    );
    let s = d.stats();
    println!("tasks        : {}", s.tasks_run);
    println!("recompute    : {}", s.recompute_time);
    println!(
        "checkpoints  : {} ({} GB)",
        s.checkpoints_written,
        s.checkpoint_bytes / 1_000_000_000
    );
    println!("restores     : {}", s.restores);
    println!("revocations  : {}", s.revocations);
    if let Some(path) = flags.get("dot") {
        match std::fs::write(path, d.lineage().to_dot()) {
            Ok(()) => println!("lineage DOT  : written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_markets(flags: &HashMap<String, String>) -> ExitCode {
    let seed = flag_u(flags, "seed", 42);
    let days = flag_u(flags, "days", 60);
    let cat = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(days));
    let now = SimTime::ZERO + SimDuration::from_days(days.saturating_sub(1));
    println!(
        "{:<28} {:>10} {:>10} {:>12}",
        "market", "current$", "mean$", "MTTF"
    );
    for m in cat.spot_markets() {
        let s = m.stats(now, PRICE_WINDOW, m.on_demand_price);
        println!(
            "{:<28} {:>10.4} {:>10.4} {:>12}",
            m.name,
            s.current_price,
            s.mean_price,
            s.mttf.to_string()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_mc(flags: &HashMap<String, String>) -> ExitCode {
    let policy = match flags.get("policy").map(String::as_str).unwrap_or("batch") {
        "batch" => PolicyKind::FlintBatch,
        "interactive" => PolicyKind::FlintInteractive,
        "portfolio" => {
            let risk = flag_f64(flags, "risk", 1.0).max(0.0);
            PolicyKind::Portfolio((risk * 1000.0) as u32)
        }
        "fleet" => PolicyKind::SpotFleetCheapest,
        "od" | "on-demand" => PolicyKind::OnDemand,
        other => {
            eprintln!("unknown policy: {other}");
            return ExitCode::FAILURE;
        }
    };
    let hours = flag_u(flags, "hours", 24);
    let seed = flag_u(flags, "seed", 0);
    let workers = flag_u(flags, "workers", 10).max(1) as u32;
    let runs = flag_u(flags, "runs", 1).max(1);
    let jobs = flag_u(flags, "jobs", 1).max(1) as usize;
    let cat = MarketCatalog::synthetic_ec2(40, SimDuration::from_days(90));
    let ckpt = if flags.contains_key("no-checkpoint") {
        CkptMode::None
    } else {
        CkptMode::Adaptive
    };
    let base = McConfig {
        job_length: SimDuration::from_hours(hours),
        n_workers: workers,
        policy,
        ckpt,
        seed,
        ..McConfig::default()
    };
    if runs > 1 {
        // Seed campaign: compute in parallel (--jobs), merge in seed
        // order — the printed report is byte-identical for any --jobs.
        let campaign = CampaignConfig::consecutive(base, runs, jobs);
        let report = run_mc_campaign(&cat, &campaign);
        println!("policy        : {}", policy.name());
        print!("{report}");
        return ExitCode::SUCCESS;
    }
    let r = run_mc(&cat, &base);
    println!("policy        : {}", policy.name());
    println!("runtime       : {}", r.runtime);
    println!("compute cost  : ${:.2}", r.compute_cost);
    println!("storage cost  : ${:.2}", r.storage_cost);
    println!("unit cost     : {:.3} (on-demand = 1.0)", r.unit_cost());
    println!(
        "revocations   : {} events / {} servers",
        r.revocation_events, r.servers_revoked
    );
    println!("stall fraction: {:.1}%", r.stall_fraction * 100.0);
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String], flags: &HashMap<String, String>) -> ExitCode {
    // `flint trace --seed N …` (no subcommand) keeps its original meaning:
    // dump a market price trace as CSV.
    let sub = args
        .get(1)
        .map(String::as_str)
        .filter(|s| !s.starts_with("--"))
        .unwrap_or("prices");
    match sub {
        "prices" => cmd_trace_prices(flags),
        "summary" | "validate" => {
            let Some(path) = args.get(2).filter(|p| !p.starts_with("--")) else {
                eprintln!("trace {sub}: missing FILE");
                return ExitCode::FAILURE;
            };
            let reader = match std::fs::File::open(path) {
                Ok(f) => std::io::BufReader::new(f),
                Err(e) => {
                    eprintln!("could not read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // One pass, one event in memory at a time: multi-gigabyte
            // traces stream through instead of materializing.
            if sub == "validate" {
                match flint::trace::validate(reader) {
                    Ok(v) if v.pairs > 0 => println!(
                        "{path}: OK ({} events, {} fault/recovery pairs)",
                        v.events, v.pairs
                    ),
                    Ok(v) => println!("{path}: OK ({} events)", v.events),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                let mut agg = MetricsAggregator::new();
                if let Err(e) = flint::trace::scan(reader, |ev| agg.observe(ev)) {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
                print!("{agg}");
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown trace subcommand: {other} (expected summary|validate|prices)");
            ExitCode::FAILURE
        }
    }
}

fn cmd_chaos(flags: &HashMap<String, String>) -> ExitCode {
    let seed = flag_u(flags, "seed", 42);
    let runs = flag_u(flags, "runs", 3).max(1);
    let jobs = flag_u(flags, "jobs", 1).max(1) as usize;
    let workers = flag_u(flags, "workers", 4).max(1) as u32;
    let faults = flags.get("faults").map(String::as_str).unwrap_or("all");
    let mttf = SimDuration::from_hours_f64(flag_f64(flags, "mttf", 1.0));

    let name = flags
        .get("workload")
        .map(String::as_str)
        .unwrap_or("pagerank");
    let wl_cfg = WorkloadConfig {
        dataset_gb: flag_f64(flags, "gb", 0.3),
        partitions: flag_u(flags, "partitions", 6) as u32,
        iterations: flag_u(flags, "iterations", 3) as u32,
        seed: flag_u(flags, "wl-seed", 1),
    };
    let Some(wl) = make_workload(name, wl_cfg) else {
        eprintln!("unknown workload: {name}");
        return ExitCode::FAILURE;
    };
    let ckpt_kind = flags.get("ckpt").map(String::as_str).unwrap_or("eager");
    if !matches!(ckpt_kind, "eager" | "adaptive" | "none") {
        eprintln!("unknown ckpt policy: {ckpt_kind} (expected eager|adaptive|none)");
        return ExitCode::FAILURE;
    }
    // Every per-run trace file is created up front, so an unwritable
    // path is an I/O error before any run starts, not a run verdict.
    let trace_paths: Vec<Option<String>> = (0..runs)
        .map(|r| match flags.get("trace") {
            Some(p) if runs > 1 => Some(format!("{p}.run{r}")),
            p => p.cloned(),
        })
        .collect();
    for path in trace_paths.iter().flatten() {
        if let Err(e) = std::fs::File::create(path) {
            eprintln!("could not create {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // The fault-free twin: its digest is the ground truth every chaos
    // run must reproduce, and its runtime sizes the fault horizon so
    // faults strike mid-job rather than after completion.
    let mut driver_cfg = DriverConfig::default();
    driver_cfg.cost.size_scale = wl.recommended_size_scale();
    let (expect, baseline) = fault_free_run(wl.as_ref(), &driver_cfg, u64::from(workers));
    println!(
        "chaos campaign: seed {seed}, {runs} run(s), faults [{faults}], \
         workload {name}"
    );
    println!(
        "fault-free    : checksum {:#018x}, {} records, runtime {baseline}",
        expect.checksum, expect.records
    );

    let mut base = ChaosConfig::for_fault_kinds(seed, faults, workers);
    base.horizon = baseline.max(SimDuration::from_mins(1));
    base.revocations = flag_u(flags, "revocations", u64::from(base.revocations)) as u32;
    if base.driver_crash_prob > 0.0 {
        base.driver_crash_prob = flag_f64(flags, "crash-prob", base.driver_crash_prob);
        base.driver_crash_wave_max =
            flag_u(flags, "crash-wave-max", base.driver_crash_wave_max).max(1);
    }
    if base.market_collapse_prob > 0.0 {
        base.market_collapse_prob = flag_f64(flags, "collapse-prob", base.market_collapse_prob);
    }

    // Each run is self-contained (own seed, own workload instance, own
    // trace file), so runs fan out across `--jobs` scoped threads and
    // their verdicts are committed back in run order — output and
    // per-run trace files are byte-identical to a sequential campaign.
    let run_ids: Vec<u64> = (0..runs).collect();
    let outcomes = fan_out(jobs, &run_ids, |&r| {
        let ccfg = ChaosConfig {
            seed: seed.wrapping_add(r),
            ..base.clone()
        };
        let schedule = ChaosSchedule::generate(&ccfg);
        let collapsed = schedule
            .notes
            .iter()
            .any(|(_, k, _)| k == "market_collapse");
        let trace_path = &trace_paths[r as usize];
        // Workloads are not shareable across threads; each parallel run
        // rebuilds its own instance from the (copyable) name + config.
        let wl = make_workload(name, wl_cfg).expect("workload validated before fan-out");
        // Each session re-creates the trace file: a crashed session's
        // partial trace is discarded, so the file always holds one
        // complete, monotonic event stream.
        let build = || {
            let hooks: Box<dyn CheckpointHooks> = match ckpt_kind {
                "eager" => Box::new(EagerCheckpoint),
                "adaptive" => Box::new(FlintCheckpointPolicy::with_mttf(mttf)),
                _ => Box::new(NoCheckpoint),
            };
            let mut d = Driver::new(driver_cfg.clone(), hooks, Box::new(NoFailures));
            if let Some(path) = trace_path {
                let f = std::fs::File::create(path).expect("trace path created before fan-out");
                let trace = TraceHandle::disabled();
                trace.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f))));
                d.set_trace(trace);
            }
            for ext in 1..=u64::from(workers) {
                d.add_worker_with_ext(ext, WorkerSpec::r3_large());
            }
            d
        };
        let outcome = run_chaos(&schedule, &ccfg, build, |d| wl.run(d), &expect);
        (outcome, collapsed)
    });

    let mut identical = 0u64;
    let mut degraded = 0u64;
    let mut typed = 0u64;
    let mut violations = 0u64;
    for (r, (outcome, collapsed)) in outcomes.into_iter().enumerate() {
        let run_seed = seed.wrapping_add(r as u64);
        let verdict = match outcome {
            ChaosOutcome::Identical {
                resumed_from,
                stats,
                runtime,
            } => {
                identical += 1;
                let mut tags = String::new();
                if let Some(w) = resumed_from {
                    degraded += 1;
                    tags.push_str(&format!(", resumed from wave {w}"));
                }
                if collapsed {
                    tags.push_str(", market collapse");
                }
                format!(
                    "survived byte-identical ({:+.1}% runtime, {} restores, \
                     {} revocations{tags})",
                    (runtime.as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0,
                    stats.restores,
                    stats.revocations
                )
            }
            ChaosOutcome::Typed(e) => {
                typed += 1;
                format!("typed error: {e}")
            }
            ChaosOutcome::WrongData(s) => {
                violations += 1;
                format!(
                    "WRONG DATA (checksum {:#018x} != {:#018x}) — invariant violated",
                    s.checksum, expect.checksum
                )
            }
            ChaosOutcome::Panicked => {
                violations += 1;
                format!("PANIC (seed {run_seed}) — invariant violated")
            }
        };
        println!("run {r:>3} seed {run_seed:<8}: {verdict}");
        if let Some(path) = &trace_paths[r] {
            println!("              trace written to {path}");
        }
    }
    println!(
        "survival      : {identical}/{runs} byte-identical ({degraded} via resume), \
         {typed} typed error(s), {violations} violation(s)"
    );
    if violations > 0 {
        ExitCode::from(EXIT_PANIC)
    } else if typed > 0 {
        ExitCode::from(EXIT_TYPED)
    } else if degraded > 0 {
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_trace_prices(flags: &HashMap<String, String>) -> ExitCode {
    let seed = flag_u(flags, "seed", 42);
    let days = flag_u(flags, "days", 60);
    let market = flag_u(flags, "market", 0) as u32;
    let cat = MarketCatalog::synthetic_ec2(seed, SimDuration::from_days(days));
    if market as usize >= cat.len() {
        eprintln!("market index out of range (catalog has {})", cat.len());
        return ExitCode::FAILURE;
    }
    print!(
        "{}",
        cat.market(flint::market::MarketId(market)).trace.to_csv()
    );
    ExitCode::SUCCESS
}

fn cmd_experiment(args: &[String]) -> ExitCode {
    let Some(name) = args.get(1) else {
        eprintln!("experiment: missing name");
        return ExitCode::FAILURE;
    };
    match flint_bench::experiment(name) {
        Ok(f) => {
            println!("{}", f());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn backend_defaults_to_vm() {
        assert!(matches!(
            resolve_backend(&flags(&[])),
            Ok(BackendSpec::TransientVm)
        ));
        assert!(matches!(
            resolve_backend(&flags(&[("backend", "vm"), ("policy", "portfolio")])),
            Ok(BackendSpec::TransientVm)
        ));
    }

    #[test]
    fn serverless_backend_parses() {
        assert!(matches!(
            resolve_backend(&flags(&[("backend", "serverless")])),
            Ok(BackendSpec::Serverless(_))
        ));
    }

    #[test]
    fn unknown_backend_is_a_typed_error() {
        let err = resolve_backend(&flags(&[("backend", "mainframe")])).unwrap_err();
        assert_eq!(err, BackendFlagError::UnknownBackend("mainframe".into()));
        assert!(err.to_string().contains("vm|serverless"));
    }

    #[test]
    fn market_flags_are_rejected_under_serverless() {
        for flag in ["policy", "mode", "bid", "risk"] {
            let err =
                resolve_backend(&flags(&[("backend", "serverless"), (flag, "x")])).unwrap_err();
            assert_eq!(
                err,
                BackendFlagError::MeaninglessFlag {
                    backend: "serverless",
                    flag: match flag {
                        "policy" => "policy",
                        "mode" => "mode",
                        "bid" => "bid",
                        _ => "risk",
                    },
                },
            );
            assert!(err.to_string().contains(flag));
        }
    }
}
