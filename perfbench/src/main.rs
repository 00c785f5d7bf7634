//! Benchmark driver for one workload in one fresh process.
//!
//! ```sh
//! flint-perfbench --workload pagerank-calm --seed 3 --seconds 10 --trace 0
//! ```
//!
//! Runs the workload's operations for at least `--seconds` seconds and
//! prints one JSON line of raw samples: every set-up, every operation's
//! host time, the host-speed calibrations taken between sub-jobs, the
//! outputs to check against the pins, and (with `--trace 1`) the
//! per-layer split of each traced session. Statistics,
//! pin checks and the result line are `perfbench/run.py`'s job.

mod layers;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use layers::{Brackets, Layer, Shared};
use workloads::{
    calibrate, fleet_call, fleet_catalog, fleet_config, pagerank_job, tpch_session, FleetSpec,
    Inputs, PagerankSpec, Session, Setup, TpchSpec,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Pagerank(PagerankSpec),
    Tpch(TpchSpec),
    Fleet(FleetSpec),
}

fn workload(name: &str) -> Option<Workload> {
    let pagerank = |mttf_hours| PagerankSpec {
        gb: 4.0,
        partitions: 16,
        iterations: 8,
        workers: 8,
        mttf_hours,
    };
    Some(match name {
        "pagerank-calm" => Workload::Pagerank(pagerank(24.0)),
        "pagerank-revoking" => Workload::Pagerank(pagerank(0.25)),
        "tpch-interactive" => Workload::Tpch(TpchSpec {
            gb: 50.0,
            partitions: 8,
            workers: 16,
            queries: 64,
        }),
        "fleet-week" => Workload::Fleet(FleetSpec {
            workers: 10_000,
            hours: 168,
            mttf_hours: 2.0,
            horizon_days: 120,
            catalog_seed: 40,
        }),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    verify: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        verify: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag}: malformed value {value}");
        let bit = || match value.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("{flag} expects 0 or 1, got {value}")),
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = bit()?,
            "--verify" => args.verify = bit()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// How a session was run.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Untraced: the end-to-end measurement.
    Plain,
    /// Traced: the per-layer measurement.
    Traced,
    /// An untraced re-run of the first sub-job, checked for identical
    /// outputs and left out of every metric.
    Repeat,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Plain => "plain",
            Kind::Traced => "traced",
            Kind::Repeat => "repeat",
        }
    }
}

/// Sub-jobs per run: as many as fill `seconds` at the workload's typical
/// host time per sub-job on a 2-core x86 host, and at least one. A
/// deterministic function of `--seconds`, never of the measured speed.
fn sub_jobs(w: &Workload, seconds: f64) -> u64 {
    let per_job_s = match w {
        Workload::Pagerank(_) => 1.25,
        Workload::Tpch(_) => 2.0,
        Workload::Fleet(_) => 3.0,
    };
    ((seconds / per_job_s).round() as u64).max(1)
}

fn run_one(w: &Workload, inputs: Inputs, traced: Option<&Shared>) -> Session {
    match w {
        Workload::Pagerank(spec) => pagerank_job(spec, inputs, traced),
        Workload::Tpch(spec) => tpch_session(spec, inputs, traced),
        Workload::Fleet(spec) => {
            let (catalog, catalog_s) = fleet_catalog(spec);
            let setup = Setup {
                catalog_s,
                ..Setup::default()
            };
            fleet_call(&catalog, &fleet_config(spec, inputs), setup, traced)
        }
    }
}

/// The per-layer table of one traced session.
fn layer_table(
    b: &Brackets,
    s: &Session,
    untraced_job_s: f64,
    fleet: Option<&FleetSpec>,
) -> Vec<(String, f64)> {
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| m.push((k.to_string(), v));
    let c = &b.counts;
    put("driver.plan_s", b.self_s(Layer::Plan));
    put("driver.loop_iters", b.loop_iters as f64);
    put(
        "driver.idle_iter_frac",
        ratio(b.idle_iters as f64, b.loop_iters as f64),
    );
    put("executor.wave_s", b.self_s(Layer::Wave));
    put("executor.waves", b.waves as f64);
    put(
        "executor.tasks_per_wave",
        ratio(b.wave_tasks as f64, b.waves as f64),
    );
    put("driver.admit_s", b.self_s(Layer::Admit));
    put("driver.commit_s", b.self_s(Layer::Commit));
    put("driver.tasks_committed", c.tasks_committed as f64);
    put("block.inserts", c.block_inserts as f64);
    put("block.spills", c.block_spills as f64);
    put("block.evicts", c.block_evicts as f64);
    put(
        "block.evict_per_insert",
        ratio(c.block_evicts as f64, c.block_inserts as f64),
    );
    put("checkpoint.writes", c.checkpoint_writes as f64);
    put("checkpoint.write_gb", c.checkpoint_write_bytes as f64 / 1e9);
    put("checkpoint.restores", c.restores as f64);
    put("recompute.sim_s", c.recompute_ms as f64 / 1e3);
    put("ckpt_policy.s", b.self_s(Layer::CkptPolicy));
    put("ckpt_policy.calls", b.calls(Layer::CkptPolicy) as f64);
    put("node_manager.s", b.self_s(Layer::NodeManager));
    put("node_manager.calls", b.calls(Layer::NodeManager) as f64);
    let engine = fleet.is_none();
    put(
        "node_manager.revocations",
        if engine { s.revocations as f64 } else { 0.0 },
    );
    put(
        "node_manager.replacements",
        if engine { s.replacements as f64 } else { 0.0 },
    );
    let mc_s = b.self_s(Layer::Mc);
    put("mc.run_s", mc_s);
    put(
        "mc.wall_ms_per_cluster_hour",
        match (fleet, &s.pin) {
            (Some(f), Some(pin)) => mc_s * 1e3 / (f64::from(f.workers) * pin.makespan_s / 3600.0),
            _ => 0.0,
        },
    );
    put(
        "mc.revocation_events",
        if engine { 0.0 } else { s.revocations as f64 },
    );
    put("mc.hazard_refits", c.hazard_refits as f64);
    put("trace.encode_s", b.self_s(Layer::TraceEncode));
    put("trace.events", c.events as f64);
    put("trace.overhead_frac", ratio(b.wall_s(), untraced_job_s));
    put("layer.coverage_frac", b.coverage_frac());
    put("outside_s", b.self_s(Layer::Outside));
    put("traced_wall_s", b.wall_s());
    m
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set of this process, MB (VmHWM).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn session_json(s: &Session, kind: Kind, sub_seed: u64) -> String {
    let mut o = String::new();
    let _ = write!(
        o,
        "{{\"kind\":\"{}\",\"sub_seed\":{sub_seed},\"setup\":{{\"catalog_s\":{},\"launch_s\":{},\"load_s\":{}}},\"job_s\":{},",
        kind.name(),
        num(s.setup.catalog_s),
        num(s.setup.launch_s),
        num(s.setup.load_s),
        num(s.job_s)
    );
    let ops: Vec<String> = s.ops.iter().map(|op| num(op.wall_s)).collect();
    let errors: Vec<String> = s
        .ops
        .iter()
        .filter_map(|op| op.error.as_ref())
        .map(|e| format!("{e:?}"))
        .collect();
    let digests: Vec<String> = s
        .query_digests
        .iter()
        .map(|d| format!("\"{d:#018x}\""))
        .collect();
    let _ = write!(
        o,
        "\"ops_s\":[{}],\"errors\":[{}],\"query_digests\":[{}],",
        ops.join(","),
        errors.join(","),
        digests.join(",")
    );
    match &s.pin {
        Some(p) => {
            let _ = write!(
                o,
                "\"pin\":{{\"checksum\":\"{:#018x}\",\"stats\":{:?},\"makespan_s\":{},\"cost_usd\":{}}}",
                p.checksum,
                p.stats,
                num(p.makespan_s),
                num(p.cost_usd)
            );
        }
        None => o.push_str("\"pin\":null"),
    }
    o.push('}');
    o
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flint-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("flint-perfbench: unknown workload {}", args.workload);
        return ExitCode::FAILURE;
    };
    let fleet = match &w {
        Workload::Fleet(f) => Some(*f),
        _ => None,
    };

    // A fixed list of sub-jobs, each on its own seed-derived inputs, so
    // the same `--seed` and `--seconds` always do the same work and the
    // run's means of the virtual outputs are deterministic.
    let k = sub_jobs(&w, args.seconds);
    let t0 = Instant::now();
    let mut sessions: Vec<(Session, Kind, u64)> = Vec::new();
    let mut tables: Vec<Vec<(String, f64)>> = Vec::new();
    // The host's speed at the time of each sub-job, for run.py to
    // normalize host times with.
    calibrate(); // warm-up: the first passes run on cold caches
    let mut calib_s: Vec<f64> = vec![calibrate()];
    if args.trace {
        // Untraced and traced runs of the same inputs, in pairs: the
        // traced run must reproduce the untraced outputs exactly.
        for i in 0..k.div_ceil(2) {
            let inputs = Inputs::sub(args.seed, i);
            let plain = run_one(&w, inputs, None);
            let shared = Shared::default();
            let traced = run_one(&w, inputs, Some(&shared));
            tables.push(layer_table(
                &shared.lock(),
                &traced,
                plain.job_s,
                fleet.as_ref(),
            ));
            sessions.push((plain, Kind::Plain, inputs.seed));
            sessions.push((traced, Kind::Traced, inputs.seed));
            calib_s.push(calibrate());
        }
    } else {
        for i in 0..k {
            let inputs = Inputs::sub(args.seed, i);
            sessions.push((run_one(&w, inputs, None), Kind::Plain, inputs.seed));
            calib_s.push(calibrate());
        }
        if args.verify {
            let inputs = Inputs::sub(args.seed, 0);
            sessions.push((run_one(&w, inputs, None), Kind::Repeat, inputs.seed));
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{:?},\"seed\":{},\"trace\":{},\"measured_s\":{},\"peak_rss_mb\":{},\"sessions\":[",
        args.workload,
        args.seed,
        u8::from(args.trace),
        num(measured_s),
        num(peak_rss_mb())
    );
    let body: Vec<String> = sessions
        .iter()
        .map(|(s, kind, sub_seed)| session_json(s, *kind, *sub_seed))
        .collect();
    out.push_str(&body.join(","));
    let calib: Vec<String> = calib_s.iter().map(|c| num(*c)).collect();
    let _ = write!(out, "],\"calib_s\":[{}],\"layers\":[", calib.join(","));
    let tabs: Vec<String> = tables
        .iter()
        .map(|t| {
            let kv: Vec<String> = t
                .iter()
                .map(|(k, v)| format!("{k:?}:{}", num(*v)))
                .collect();
            format!("{{{}}}", kv.join(","))
        })
        .collect();
    out.push_str(&tabs.join(","));
    out.push_str("]}");
    println!("{out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mttf_hours: f64) -> Workload {
        Workload::Pagerank(PagerankSpec {
            gb: 1.0,
            partitions: 8,
            iterations: 4,
            workers: 4,
            mttf_hours,
        })
    }

    fn table_value(t: &[(String, f64)], name: &str) -> f64 {
        t.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap()
    }

    /// The wrapped assembly measures the same program: a traced run
    /// reproduces the untraced outputs exactly, and the brackets account
    /// for at least 95% of its wall time.
    #[test]
    fn traced_run_reproduces_pins_and_covers_the_wall_time() {
        for mttf in [720.0, 0.25] {
            let w = tiny(mttf);
            let inputs = Inputs::sub(3, 0);
            let plain = run_one(&w, inputs, None);
            let shared = Shared::default();
            let traced = run_one(&w, inputs, Some(&shared));
            assert!(plain.pin.is_some(), "{:?}", plain.ops[0].error);
            assert_eq!(plain.pin, traced.pin);
            let t = layer_table(&shared.lock(), &traced, plain.job_s, None);
            let coverage = table_value(&t, "layer.coverage_frac");
            assert!(coverage >= 0.95, "coverage {coverage} at mttf {mttf}");
            assert!(table_value(&t, "driver.loop_iters") > 0.0);
            assert!(table_value(&t, "executor.waves") > 0.0);
            assert_eq!(
                table_value(&t, "driver.tasks_committed") as u64,
                plain
                    .pin
                    .as_ref()
                    .unwrap()
                    .stats
                    .split_whitespace()
                    .next()
                    .unwrap()["tasks=".len()..]
                    .parse::<u64>()
                    .unwrap(),
                "the sink sees one TaskFinished per task run"
            );
        }
    }

    #[test]
    fn a_second_seed_changes_the_pinned_outputs() {
        let w = tiny(0.25);
        let a = run_one(&w, Inputs::sub(0, 0), None).pin.unwrap();
        let b = run_one(&w, Inputs::sub(1, 0), None).pin.unwrap();
        assert_ne!(a.checksum, b.checksum, "the data seed moves the result");
        assert_ne!(
            a.cost_usd, b.cost_usd,
            "the catalog seed and start move the bill"
        );
    }

    #[test]
    fn sub_jobs_follow_the_time_budget_only() {
        let w = tiny(720.0);
        assert_eq!(sub_jobs(&w, 0.0), 1);
        assert_eq!(sub_jobs(&w, 20.0), 16);
    }
}
