#!/usr/bin/env python3
"""Compares two sets of run_benchmark.py result files, e.g. the parent
commit's runs and a change's runs, made with the same seed and settings.

  python3 e2ebench/compare.py --base p1.json ... p10.json \\
                              --change c1.json ... c10.json [--per-layer]

For every (metric, workload) it prints each side's median and quartiles,
the pairwise win fraction (base run k against change run k; ties count for
neither side), and a verdict, using each end-to-end metric's bound from
BENCHMARK.json:

  unresolved  either side's quartile spread, as a share of the base median,
              is wider than the bound, and not every change run beats every
              base run;
  regressed   the change's median is worse than the base's by more than
              the bound;
  improved    there are at least 10 pairs, the change wins at least 9/10 of
              them, and the medians differ by more than the base runs' own
              quartile spread;
  unchanged   otherwise.

With fewer than 10 pairs no gain is claimed: what would be "improved" (or,
for a per-layer metric, "worse") is reported as "unresolved".

query_success_ratio (1 - error_rate) has a bound of 1e-4, less than one
query in any run, and is judged on each side's worst run: a change run with
more failures than the worst base run regressed.  Per-layer metrics have no
bound; with --per-layer they are listed with the improved/worse/unchanged
test above.  Exits 1 if anything regressed.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS_FOR_GAIN = 10
SUCCESS = "query_success_ratio"


def load_runs(paths):
    """Per file: {workload: {metric: value}}."""
    runs = []
    for path in paths:
        with open(path) as f:
            results = json.load(f)
        run = {}
        for workload, modes in results["workloads"].items():
            values = {}
            for mode in ("timed", "traced"):
                if mode not in modes:
                    continue
                for name, m in modes[mode]["metrics"].items():
                    # End-to-end metrics come from the timed run; the traced
                    # run contributes only what the timed run lacks.
                    if mode == "timed" or name not in values:
                        values[name] = m["value"]
            run[workload] = values
        runs.append(run)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(base, change, better, bound):
    """Returns (row fields, verdict) for one (metric, workload)."""
    sign = 1.0 if better == "lower" else -1.0
    bm, cm = statistics.median(base), statistics.median(change)
    bq1, bq3 = quartiles(base)
    cq1, cq3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    win_frac = wins / len(pairs)
    worse = sign * (cm - bm) / bm if bm else 0.0
    all_better = (max(change) < min(base) if sign > 0
                  else min(change) > max(base))
    spread = max(bq3 - bq1, cq3 - cq1) / abs(bm) if bm else 0.0
    moved = abs(cm - bm) > bq3 - bq1
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0) / len(pairs)
    if bound is not None and spread > bound and not all_better:
        verdict = "unresolved"
    elif bound is not None and worse > bound:
        verdict = "regressed"
    elif ((win_frac >= 0.9 and worse < 0) or
          (bound is None and losses >= 0.9 and worse > 0)) and moved:
        if len(pairs) < MIN_PAIRS_FOR_GAIN:
            verdict = "unresolved"
        else:
            verdict = "improved" if worse < 0 else "worse"
    else:
        verdict = "unchanged"
    row = (bm, bq1, bq3, cm, cq1, cq3, 100.0 * (cm - bm) / bm if bm else 0.0,
           win_frac, spread)
    return row, verdict


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--per-layer", action="store_true")
    args = ap.parse_args()
    if len(args.base) != len(args.change):
        sys.exit("compare.py: give the same number of base and change runs "
                 "(they are compared pairwise)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        decl = json.load(f)
    metrics = [(m["name"], m["better"], m["bound"]) for m in decl["end_to_end"]]
    if args.per_layer:
        metrics += [(m["name"], m["better"], None) for m in decl["per_layer"]]
    base, change = load_runs(args.base), load_runs(args.change)
    workloads = [w["name"] for w in decl["workloads"]]

    print("%-30s %-15s %12s %23s %12s %23s %8s %5s %7s  %s" % (
        "metric", "workload", "base_med", "base_q1..q3", "change_med",
        "change_q1..q3", "delta%", "wins", "spread", "verdict"))
    regressed = False
    for name, better, bound in metrics:
        for w in workloads:
            b = [run[w][name] for run in base if name in run.get(w, {})]
            c = [run[w][name] for run in change if name in run.get(w, {})]
            if not b or len(b) != len(c):
                continue
            row, verdict = compare(b, c, better, bound)
            if name == SUCCESS and min(c) < min(b) * (1.0 - bound):
                verdict = "regressed"  # one failing run is enough
            regressed = regressed or verdict == "regressed"
            print("%-30s %-15s %12.5g %11.5g..%-11.5g %12.5g %11.5g..%-11.5g "
                  "%+8.2f %5.2f %7.3f  %s" % ((name, w) + row + (verdict,)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
