#!/usr/bin/env python3
"""Flint end-to-end and per-layer benchmark.

One run, one workload, one fresh process:

    python3 perfbench/run.py --workload pagerank-calm --seed 3 --seconds 10 --trace 0

builds the harness (``perfbench/``, a cargo package of its own that
depends on the repository's ``flint`` crate), runs it, checks every
output against ``perfbench/pins.json``, prints each metric by name with
its unit, writes a ledger record under ``perfbench/ledger/runs/``, and
prints as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer split of a traced run.

Maintenance commands (each a sequence of fresh single runs):

    python3 perfbench/run.py --sweep 0-9      # every workload x seed -> perfbench/LEDGER.json
    python3 perfbench/run.py --write-pins 0-9 # re-record pins.json from the current program
    python3 -m unittest discover -s perfbench # self-tests of the statistics

See perfbench/README.md for the workloads, metrics and known gaps.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ["pagerank-calm", "pagerank-revoking", "tpch-interactive", "fleet-week"]
PINS = os.path.join(HERE, "pins.json")
RUNS = os.path.join(HERE, "ledger", "runs")
LEDGER = os.path.join(HERE, "LEDGER.json")
RUN_TIMEOUT_S = 170
# Harness sub-jobs are seeded `seed * 64 + i`; see `Inputs::sub`.
SUB_SEEDS_PER_SEED = 64

# Host times are reported at a reference host speed. The harness times a
# calibration kernel that shares no code with flint (`calibrate` in
# src/workloads.rs) before the first sub-job and after each one; each
# sub-job's host times are scaled by REFERENCE_CALIB_S over the mean of
# the two calibrations around it. On a shared host the speed this process
# gets drifts by tens of percent within a minute; the kernel's time
# follows it, and no change to flint moves the kernel. The reference is
# the kernel's typical time on a 2-core x86 host.
REFERENCE_CALIB_S = 0.0125

E2E_UNITS = {
    "setup_s": "s",
    "job_wall_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "s",
    "cost_usd": "usd",
}

LAYER_UNITS = {
    "driver.plan_s": "s",
    "driver.loop_iters": "count",
    "driver.idle_iter_frac": "frac",
    "executor.wave_s": "s",
    "executor.waves": "count",
    "executor.tasks_per_wave": "count",
    "driver.admit_s": "s",
    "driver.commit_s": "s",
    "driver.tasks_committed": "count",
    "block.inserts": "count",
    "block.spills": "count",
    "block.evicts": "count",
    "block.evict_per_insert": "frac",
    "checkpoint.writes": "count",
    "checkpoint.write_gb": "GB",
    "checkpoint.restores": "count",
    "recompute.sim_s": "s",
    "ckpt_policy.s": "s",
    "ckpt_policy.calls": "count",
    "node_manager.s": "s",
    "node_manager.calls": "count",
    "node_manager.revocations": "count",
    "node_manager.replacements": "count",
    "mc.run_s": "s",
    "mc.wall_ms_per_cluster_hour": "ms",
    "mc.revocation_events": "count",
    "mc.hazard_refits": "count",
    "setup.catalog_s": "s",
    "setup.launch_s": "s",
    "setup.load_s": "s",
    "trace.encode_s": "s",
    "trace.events": "count",
    "trace.overhead_frac": "frac",
    "layer.coverage_frac": "frac",
    "host.calib_ms": "ms",
}


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Builds the harness in release mode; its path on success."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        die(f"no flint sources next to {HERE}: the harness builds against ../Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("harness build failed", 1)
    return os.path.join(target_dir(), "release", "flint-perfbench")


def load_pins():
    if not os.path.isfile(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def run_harness(binary, workload, seed, seconds, trace, verify):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--verify", str(int(verify))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} seed {seed}: harness exceeded {RUN_TIMEOUT_S}s", 1)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        die(f"{workload} seed {seed}: harness exited {r.returncode}", 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def pin_record(session):
    """The outputs a session must reproduce exactly."""
    p = dict(session["pin"])
    digests = session["query_digests"]
    if digests:
        # Queries run on read-only tables: query j repeats query j mod 4.
        p["query_digests"] = digests[:4]
    return p


def check(data, pins):
    """Counts failed operations and lists every check that did not hold.

    An operation fails when it returned an error or its output differs
    from the pin (for its seed) or from another run of the same inputs
    (traced against untraced, a repeat against the first run).
    """
    workload, seed = data["workload"], data["seed"]
    pinned = pins.get(workload, {}).get(str(seed), [])
    problems, attempted, failed = [], 0, 0
    first = {}
    for s in data["sessions"]:
        n_ops = len(s["ops_s"])
        counted = s["kind"] != "repeat"
        if counted:
            attempted += n_ops
        bad = len(s["errors"])
        if s["errors"]:
            problems.append(f"sub-seed {s['sub_seed']}: {s['errors'][0]}")
        if s["pin"] is not None:
            rec = pin_record(s)
            digests = s["query_digests"]
            for j, d in enumerate(digests):
                if d != digests[j % 4]:
                    bad += 1
                    problems.append(f"sub-seed {s['sub_seed']}: query {j} differs from query {j % 4}")
            refs = []
            i = s["sub_seed"] - seed * SUB_SEEDS_PER_SEED
            if i < len(pinned):
                refs.append(("pin", pinned[i]))
            if s["sub_seed"] in first:
                refs.append(("first run", first[s["sub_seed"]]))
            first.setdefault(s["sub_seed"], rec)
            for what, ref in refs:
                if rec != ref:
                    diff = sorted(k for k in set(rec) | set(ref) if rec.get(k) != ref.get(k))
                    problems.append(f"{s['kind']} sub-seed {s['sub_seed']}: {', '.join(diff)} differ from the {what}")
                    bad = n_ops
        if counted:
            failed += min(bad, n_ops)
        elif bad:
            failed += 1
            attempted += 1
    return attempted, failed, problems, bool(pinned)


HOST_TIMES = ("setup_s", "job_wall_s", "queries_per_s", "query_p50_ms", "query_tail_ms")


def e2e_metrics(data):
    """End-to-end values at the reference host speed, the same values as
    measured, and the raw samples."""
    plain = [s for s in data["sessions"] if s["kind"] == "plain"]
    calib = data["calib_s"]
    # Sub-job i runs between calibrations i and i + 1.
    scale = [2 * REFERENCE_CALIB_S / (calib[i] + calib[i + 1]) for i in range(len(plain))]
    setups = [sum(s["setup"].values()) for s in plain]
    ops = [x for s in plain for x in s["ops_s"]]
    scaled_ops = [x * f for s, f in zip(plain, scale) for x in s["ops_s"]]
    pins = [s["pin"] for s in plain if s["pin"] is not None]

    def host_times(setups, jobs, ops):
        tail_p, tail_v = stats.tail(ops)
        return {
            "setup_s": stats.median(setups),
            "job_wall_s": sum(jobs) / len(jobs),
            "queries_per_s": len(ops) / sum(ops),
            "query_p50_ms": stats.median(ops) * 1e3,
            "query_tail_ms": tail_v * 1e3,
        }, tail_p

    measured, tail_p = host_times(setups, [s["job_s"] for s in plain], ops)
    values, _ = host_times([x * f for x, f in zip(setups, scale)],
                           [s["job_s"] * f for s, f in zip(plain, scale)], scaled_ops)
    values.update({
        "peak_rss_mb": data["peak_rss_mb"],
        "sim_makespan_s": sum(p["makespan_s"] for p in pins) / max(1, len(pins)),
        "cost_usd": sum(p["cost_usd"] for p in pins) / max(1, len(pins)),
    })
    samples = {
        "setup_s": setups,
        "job_wall_s": [s["job_s"] for s in plain],
        "op_ms": [x * 1e3 for x in ops],
        "calib_s": calib,
        "speed_scale": scale,
        "sim_makespan_s": [p["makespan_s"] for p in pins],
        "cost_usd": [p["cost_usd"] for p in pins],
    }
    notes = {"tail_percentile": tail_p, "op_samples": len(ops), "jobs": len(plain),
             "measured": measured}
    return values, samples, notes


def layer_metrics(data):
    tables = data["layers"]
    traced = [s for s in data["sessions"] if s["kind"] == "traced"]
    values = {}
    for name in LAYER_UNITS:
        if name.startswith("setup."):
            part = name.split(".")[1]
            values[name] = stats.median([s["setup"][part] for s in traced])
        elif name == "host.calib_ms":
            values[name] = stats.median(data["calib_s"]) * 1e3
        else:
            values[name] = stats.median([t[name] for t in tables])
    return values, {"tables": tables}


def git_rev():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_record(record):
    os.makedirs(RUNS, exist_ok=True)
    name = f"{record['workload']}.seed{record['seed']}.trace{record['trace']}.json"
    with open(os.path.join(RUNS, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def single_run(args):
    binary = build()
    pins = load_pins()
    pinned = str(args.seed) in pins.get(args.workload, {})
    data = run_harness(binary, args.workload, args.seed, args.seconds, args.trace,
                       verify=not pinned and not args.trace)
    attempted, failed, problems, pinned = check(data, pins)
    if args.trace:
        values, extra = layer_metrics(data)
        units = LAYER_UNITS
    else:
        values, extra, notes = e2e_metrics(data)
        units = E2E_UNITS
        extra = {"samples": extra, **notes}
    for name, v in values.items():
        line = f"{data['workload']:<18} {name:<28} {v:>16.6f} {units[name]}"
        if not args.trace and name in HOST_TIMES:
            line += f"  (measured {extra['measured'][name]:.6f})"
        print(line)
    if not args.trace:
        print(f"{data['workload']:<18} host times at reference speed: calibration kernel median "
              f"{stats.median(data['calib_s']) * 1e3:.1f} ms against {REFERENCE_CALIB_S * 1e3:.0f} ms")
        print(f"{data['workload']:<18} query_tail_ms is p{extra['tail_percentile']:.1f} "
              f"of {extra['op_samples']} operations over {extra['jobs']} sub-jobs")
    print(f"{data['workload']:<18} failed_frac {failed}/{attempted} = {failed / attempted:.6f}; "
          f"outputs checked against {'pins' if pinned else 'repeated runs only (seed not pinned)'}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    write_record({
        "command": [os.path.basename(sys.executable)] + sys.argv,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "host": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": data["measured_s"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "failed_frac": failed / attempted,
        "problems": problems,
        **extra,
    })
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def self_run(workload, seed, seconds, trace):
    """One fresh single run of this script; its result line."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        die(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}", 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def sweep(args):
    """Every workload x seed, untraced, plus one traced run per workload;
    writes the summary ledger."""
    cfg = bench_config()
    seconds = args.seconds if args.seconds is not None else cfg["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    seeds = parse_seeds(args.sweep)
    ledger = {
        "command": [os.path.basename(sys.executable)] + sys.argv,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "host": platform.machine(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        runs = []
        for seed in seeds:
            t = time.time()
            res = self_run(w, seed, seconds, 0)
            print(f"{w} seed {seed}: {time.time() - t:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
            runs.append(res)
        traced = self_run(w, seeds[0], seconds, 1)
        entry = {"correct": all(r["correct"] for r in runs) and traced["correct"],
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "end_to_end": {}, "per_layer": {}}
        for name in E2E_UNITS:
            vals = [r["metrics"][name]["value"] for r in runs]
            s = stats.summary(vals)
            s["iqr_frac"] = stats.iqr_frac(vals)
            s["bound"] = bounds.get(name)
            s["samples"] = vals
            s["unit"] = E2E_UNITS[name]
            entry["end_to_end"][name] = s
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        ledger["workloads"][w] = entry
        print(f"\n{w}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for name, s in entry["end_to_end"].items():
            flag = ""
            if s["bound"] is not None and name != "setup_s" and s["iqr_frac"] > s["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name:<16} median {s['median']:>14.6f} {s['unit']:<5} "
                  f"iqr/median {s['iqr_frac']:.4f} (bound {s['bound']}){flag}")
    with open(LEDGER, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"ledger written to {os.path.relpath(LEDGER, ROOT)}")


def write_pins(args):
    """Records the current program's outputs for each workload and seed."""
    binary = build()
    cfg = bench_config()
    seconds = args.seconds if args.seconds is not None else cfg["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    pins = load_pins()
    for w in workloads:
        for seed in parse_seeds(args.write_pins):
            data = run_harness(binary, w, seed, seconds, 0, verify=True)
            sessions = [s for s in data["sessions"] if s["kind"] == "plain"]
            attempted, failed, problems, _ = check(data, {})
            if problems or failed:
                die(f"{w} seed {seed}: not pinned, outputs failed their checks: {problems}", 1)
            pins.setdefault(w, {})[str(seed)] = [pin_record(s) for s in sessions]
            print(f"pinned {w} seed {seed}: {len(sessions)} sub-jobs", file=sys.stderr)
    # Recovery invariant: losing blocks to revocations never changes the
    # answer, so both PageRank workloads must agree on every sub-seed.
    calm, rev = pins.get("pagerank-calm", {}), pins.get("pagerank-revoking", {})
    for seed in set(calm) & set(rev):
        for a, b in zip(calm[seed], rev[seed]):
            if a["checksum"] != b["checksum"]:
                die(f"seed {seed}: revoking checksum {b['checksum']} != calm {a['checksum']}", 1)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sweep", metavar="SEEDS", help="e.g. 0-9: run every workload on each seed")
    ap.add_argument("--write-pins", metavar="SEEDS", help="e.g. 0-9: record pins.json")
    ap.add_argument("--workloads", help="comma-separated subset for --sweep/--write-pins")
    args = ap.parse_args()
    if args.sweep:
        sweep(args)
    elif args.write_pins:
        write_pins(args)
    elif args.workload:
        if args.seconds is None:
            ap.error("--seconds is required")
        single_run(args)
    else:
        ap.error("one of --workload, --sweep or --write-pins is required")


if __name__ == "__main__":
    main()
