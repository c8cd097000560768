#!/usr/bin/env python3
"""Smoke test for bench_e2e (registered with ctest as smoke_bench_e2e).

Runs every workload of BENCHMARK.json at --tiny size (grid-32, rmat-10; one
round), timed and traced, and fails unless each run validates and prints
every metric BENCHMARK.json declares.  Also checks that metrics.json maps
exactly the declared per-layer metrics, so no declaration drifts from
bench_e2e.

usage: smoke.py path/to/bench_e2e path/to/BENCHMARK.json
"""

import json
import os
import subprocess
import sys
import tempfile


def main():
    binary, declaration = sys.argv[1], sys.argv[2]
    with open(declaration) as f:
        decl = json.load(f)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "metrics.json")) as f:
        layer_map = json.load(f)["per_layer"]
    wanted = {"timed": [m["name"] for m in decl["end_to_end"]],
              "traced": [m["name"] for m in decl["per_layer"]]}
    problems = []
    if sorted(layer_map) != sorted(wanted["traced"]):
        problems.append("metrics.json per_layer keys differ from "
                        "BENCHMARK.json per_layer names")
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as work:
        for w in (w["name"] for w in decl["workloads"]):
            for mode, extra in (("timed", []), ("traced", ["--traced"])):
                cmd = [binary, "--workload", w, "--seed", "7", "--tiny",
                       "--work-dir", work] + extra
                p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   timeout=120)
                lines = p.stdout.strip().splitlines()
                if p.returncode != 0 or not lines:
                    problems.append("%s %s: exit %d" % (w, mode, p.returncode))
                    continue
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] != 0:
                    problems.append("%s %s: correct=%s failed=%d %s" % (
                        w, mode, result["correct"], result["failed"],
                        result["errors"] + result["failures"]))
                missing = [m for m in wanted[mode]
                           if m not in result["metrics"]]
                if missing:
                    problems.append("%s %s: missing %s" % (w, mode, missing))
                print("%s %s: %d metrics, ok" % (w, mode,
                                                 len(result["metrics"])))
    for p in problems:
        print("FAIL: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
