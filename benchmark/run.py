#!/usr/bin/env python3
"""Build and run the greenps benchmark.

One run of one workload (the form BENCHMARK.json names):

    python3 benchmark/run.py --workload consolidate --seed 42 --seconds 10 --trace 0

prints the binary's report on stderr and, as the last line of stdout, one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list (a per-layer metric the workload does not exercise reads 0).

Sets of runs, summarised into benchmark/results/<label>.json:

    python3 benchmark/run.py --runs 5 [--seed 42] [--label NAME] [--traced-runs 1]
                             [--parent DIR]

runs every workload --runs times untraced (the order alternates between
sets) plus --traced-runs traced, records the git sha, nproc and load average,
and fails if a deterministic metric (one whose unit is a count or a simulated
quantity) differs between runs of the same seed. With --parent, DIR is
another checkout (the parent commit) run the same way, one run of each side
back to back, alternating which side goes first; its summary goes to
<label>.parent.json, so compare.py sees pairs taken at the same time.

Either form first configures and builds benchmark/ (the library plus the
greenps_bench binary) into .bench_build/ at the root of the checkout, and
runs the binary with every GREENPS_* variable removed from its environment.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["consolidate", "scinet", "churn", "selfheal"]
# Units of metrics that must repeat exactly for one seed; every other unit
# is a wall-clock or memory measurement.
DETERMINISTIC_UNITS = {"count", "hops", "msg/sim_s", "sim_ms", "sim_s", "h", "ratio"}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir(root):
    return os.path.join(root, ".bench_build")


def build(root):
    """Configure and build greenps_bench (incremental); serialised by a file lock."""
    out = build_dir(root)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", os.path.join(root, "benchmark"), "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out, "--target", "greenps_bench",
                  "-j", str(os.cpu_count() or 1)]]
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise SystemExit(f"benchmark build failed: {' '.join(cmd)}")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("GREENPS_")}


def run_binary(root, workload, seed, seconds, traced):
    """One greenps_bench process; returns (exit code, its JSON report or None)."""
    cmd = [os.path.join(build_dir(root), "greenps_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        trace_dir = os.path.join(build_dir(root), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", os.path.join(trace_dir, f"{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        report = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        log(lines[-1])
        report = None
    return done.returncode, report


def contract_result(report, spec, traced):
    """Reduce a greenps_bench report to the metrics BENCHMARK.json lists."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not traced:
                raise SystemExit(f"greenps_bench did not report {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def one_run(args, spec):
    build(ROOT)
    code, report = run_binary(ROOT, args.workload, args.seed, args.seconds, args.trace == 1)
    if report is None:
        return 1
    print(json.dumps(contract_result(report, spec, args.trace == 1)), flush=True)
    return 0 if code == 0 and report["correct"] else 1


def summarize(values):
    ordered = sorted(values)
    q1, _, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "min": ordered[0],
            "max": ordered[-1], "n": len(ordered), "values": values}


def git_sha(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        return done.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def summarize_side(runs, spec, failures):
    """Per-workload metric summaries of one checkout's reports."""
    workloads = {}
    for w in WORKLOADS:
        entry = {}
        for kind in ("untraced", "traced"):
            reports = runs[w][kind]
            names = sorted({n for r in reports for n in r["metrics"]})
            entry[kind] = {
                n: dict(unit=next(r["metrics"][n]["unit"] for r in reports if n in r["metrics"]),
                        **summarize([r["metrics"][n]["value"] for r in reports
                                     if n in r["metrics"]]))
                for n in names}
            entry[kind + "_ops"] = {"attempted": [r["attempted"] for r in reports],
                                    "failed": [r["failed"] for r in reports]}
        # Deterministic metrics repeat exactly across every run of the seed.
        for n in sorted(set(entry["untraced"]) | set(entry["traced"])):
            values = set()
            for kind in ("untraced", "traced"):
                m = entry[kind].get(n)
                if m and m["unit"] in DETERMINISTIC_UNITS:
                    values |= set(m["values"])
            if len(values) > 1:
                failures.append(f"{w}: deterministic metric {n} differs: {sorted(values)}")
        entry["tracing_overhead"] = {
            n: entry["traced"][n]["median"] - entry["untraced"][n]["median"]
            for n in (m["name"] for m in spec["end_to_end"])
            if n in entry["traced"] and n in entry["untraced"]}
        workloads[w] = entry
    return workloads


def sets(args, spec):
    sides = {ROOT: args.label}
    if args.parent:
        sides[os.path.abspath(args.parent)] = args.label + ".parent"
    for root in sides:
        build(root)
    started = os.getloadavg()
    runs = {root: {w: {"untraced": [], "traced": []} for w in WORKLOADS} for root in sides}
    failures = {root: [] for root in sides}
    plan = [(i, False) for i in range(args.runs)] + [(i, True) for i in range(args.traced_runs)]
    for i, traced in plan:
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        roots = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for w in order:
            for root in roots:
                log(f"== {sides[root]}: {w} {'traced' if traced else 'untraced'} run {i + 1}")
                code, report = run_binary(root, w, args.seed, args.seconds, traced)
                if report is None or code != 0 or not report["correct"]:
                    failures[root].append(f"{w} run {i + 1}: exit {code}")
                if report is not None:
                    runs[root][w]["traced" if traced else "untraced"].append(report)

    out_dir = os.path.join(ROOT, "benchmark", "results")
    os.makedirs(out_dir, exist_ok=True)
    for root, label in sides.items():
        result = {"label": label, "git_sha": git_sha(root), "nproc": os.cpu_count(),
                  "loadavg_start": started, "loadavg_end": os.getloadavg(),
                  "seed": args.seed, "seconds": args.seconds, "runs": args.runs,
                  "traced_runs": args.traced_runs,
                  "workloads": summarize_side(runs[root], spec, failures[root]),
                  "failures": failures[root]}
        path = os.path.join(out_dir, f"{label}.json")
        with open(path, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
        log(f"{label}:")
        for w in WORKLOADS:
            log(f"  {w}:")
            for m in spec["end_to_end"]:
                s = result["workloads"][w]["untraced"].get(m["name"])
                if s:
                    log(f"    {m['name']:<14} median {s['median']:.6g} {m['unit']}"
                        f"  IQR {s['q1']:.6g}..{s['q3']:.6g}  n={s['n']}")
        for f in failures[root]:
            log("FAIL", label, f)
        log(f"wrote {os.path.relpath(path, ROOT)}")
    return 1 if any(failures.values()) else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=5, help="untraced sets (without --workload)")
    p.add_argument("--traced-runs", type=int, default=1, help="traced sets (without --workload)")
    p.add_argument("--label", default=time.strftime("run-%Y%m%d-%H%M%S"))
    p.add_argument("--parent", help="checkout of the parent commit, run interleaved")
    args = p.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return one_run(args, spec)
    return sets(args, spec)


if __name__ == "__main__":
    sys.exit(main())
