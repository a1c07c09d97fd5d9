#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or summarize the spread of one.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds runs saved by `run.py --save DIR`.  For every
workload and metric the table gives each side's median and quartiles;
with two sets it adds the share of paired runs (same workload, seed and
trace flag) the new side wins, ties counting for neither, and a verdict:

  improved    the new side wins at least 9/10 of the pairs and the medians
              differ, in the metric's better direction, by more than the
              spread (Q3 - Q1) of the base side's own runs;
  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the runs' spread (Q3 - Q1, as a share of the median) is wider
              than the bound, or the metric has no bound, and neither rule
              above decides; every new run better than every base run
              still counts as no worse;
  no worse    otherwise.

With one set the table gives the spread of each metric as a share of its
median, next to a third of its bound, the steadiness target.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return metrics


def load_runs(d):
    runs = {}
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        p = r["provenance"]
        key = (p["workload"], str(p["seed"]), bool(p["trace"]))
        runs[key] = r["result"]["metrics"]
    if not runs:
        sys.exit("compare.py: no saved runs in %s" % d)
    return runs


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def series(runs, workload, metric):
    return {k: v[metric]["value"] for k, v in runs.items()
            if k[0] == workload and metric in v}


def better(spec, a, b):
    """+1 if a is better than b, -1 if worse, 0 on a tie."""
    if a == b:
        return 0
    lower = spec["better"] == "lower"
    return 1 if (a < b) == lower else -1


def verdict(spec, base, new):
    bound = spec.get("bound")
    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    pairs = [k for k in base if k in new]
    wins = sum(1 for k in pairs if better(spec, new[k], base[k]) > 0)
    share = wins / len(pairs) if pairs else 0.0
    if pairs and share >= 0.9 and better(spec, nm, bm) > 0 and abs(nm - bm) > (b3 - b1):
        return share, "improved"
    if bound is not None and bm != 0:
        worse_by = (nm - bm) / abs(bm) if spec["better"] == "lower" else (bm - nm) / abs(bm)
        if worse_by > bound:
            return share, "worse"
    if all(better(spec, x, y) > 0 for x in new.values() for y in base.values()):
        return share, "no worse"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if bound is None or spread > bound:
        return share, "unresolved"
    return share, "no worse"


def fmt(x):
    return "%.6g" % x


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    specs = load_spec()
    base = load_runs(sys.argv[1])
    new = load_runs(sys.argv[2]) if len(sys.argv) == 3 else None
    workloads = sorted({k[0] for k in base})
    for w in workloads:
        print("== %s" % w)
        for name, spec in specs.items():
            b = series(base, w, name)
            if not b:
                continue
            b1, bm, b3 = quartiles(list(b.values()))
            bound = spec.get("bound")
            row = "  %-32s %-6s base %s [%s, %s]" % (name, spec["unit"], fmt(bm), fmt(b1), fmt(b3))
            if new is None:
                spread = (b3 - b1) / abs(bm) if bm else 0.0
                target = "" if bound is None else "  target < %.3f" % (bound / 3)
                flag = "" if bound is None or spread < bound / 3 else "  WIDE"
                print("%s  n=%d  spread %.4f%s%s" % (row, len(b), spread, target, flag))
                continue
            n = series(new, w, name)
            if not n:
                print("%s  (missing in new set)" % row)
                continue
            n1, nm, n3 = quartiles(list(n.values()))
            share, v = verdict(spec, b, n)
            print("%s  new %s [%s, %s]  wins %.2f  %s" % (row, fmt(nm), fmt(n1), fmt(n3), share, v))


if __name__ == "__main__":
    main()
