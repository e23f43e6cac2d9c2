#!/usr/bin/env python3
"""Compare two benchmark result files written by benchmark/run.py --runs.

    python3 benchmark/compare.py PARENT.json CHANGE.json

For every workload and end-to-end metric in BENCHMARK.json it prints one
verdict, pairing run i of PARENT with run i of CHANGE:

  improved    CHANGE wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than PARENT's
              interquartile range
  worse       CHANGE's median is worse than PARENT's by more than the bound
  unresolved  PARENT's own spread (IQR / median) is wider than the bound, so
              "unchanged" cannot be told apart from noise
  unchanged   otherwise

A metric that must repeat exactly (a count or a simulated quantity) is
improved or worse whenever its value moved. The failure share
(failed / attempted operations) is compared too, and every deterministic
per-layer metric that moved is listed. Exits 1 if anything got worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import DETERMINISTIC_UNITS  # noqa: E402


def verdict(metric, parent, change):
    a, b = parent["values"], change["values"]
    lower = metric["better"] == "lower"
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = (med_a - med_b) if lower else (med_b - med_a)
    if parent["unit"] in DETERMINISTIC_UNITS:
        return "unchanged" if gain == 0 else ("improved" if gain > 0 else "worse")
    if med_a != 0 and -gain > metric["bound"] * abs(med_a):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
    if pairs and wins >= 0.9 * len(pairs) and gain > parent["q3"] - parent["q1"]:
        return "improved"
    spread = (parent["q3"] - parent["q1"]) / abs(med_a) if med_a else 0.0
    if spread > metric["bound"]:
        better_everywhere = all((y < x if lower else y > x) for x in a for y in b)
        return "improved" if better_everywhere else "unresolved"
    return "unchanged"


def failure_share(ops):
    attempted = sum(ops["attempted"])
    return sum(ops["failed"]) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(sys.argv[1]) as f:
        parent = json.load(f)
    with open(sys.argv[2]) as f:
        change = json.load(f)
    if parent["seed"] != change["seed"] or parent["seconds"] != change["seconds"]:
        sys.exit("the two files were run with different --seed or --seconds")
    print(f"parent {parent['label']} ({parent['git_sha'][:12]}), "
          f"change {change['label']} ({change['git_sha'][:12]})")
    worse = False
    for w, pw in parent["workloads"].items():
        cw = change["workloads"].get(w)
        if cw is None:
            print(f"{w}: missing from {sys.argv[2]}")
            worse = True
            continue
        print(f"{w}:")
        for m in spec["end_to_end"]:
            pm, cm = pw["untraced"].get(m["name"]), cw["untraced"].get(m["name"])
            if pm is None or cm is None:
                continue
            v = verdict(m, pm, cm)
            worse = worse or v == "worse"
            print(f"  {m['name']:<14} {pm['median']:>14.6g} -> {cm['median']:<14.6g} "
                  f"{m['unit']:<6} {v}")
        fa, fb = failure_share(pw["untraced_ops"]), failure_share(cw["untraced_ops"])
        print(f"  {'failure share':<14} {fa:>14.6g} -> {fb:<14.6g} "
              f"{'worse' if fb > fa else 'unchanged'}")
        worse = worse or fb > fa
        for kind in ("untraced", "traced"):
            for name, pm in sorted(pw[kind].items()):
                cm = cw[kind].get(name)
                if (pm["unit"] in DETERMINISTIC_UNITS and cm is not None
                        and cm["median"] != pm["median"]):
                    print(f"  moved: {name} {pm['median']:.10g} -> {cm['median']:.10g} "
                          f"{pm['unit']} ({kind})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
