#!/usr/bin/env python3
"""End-to-end SSSP benchmark runner.

Builds bench_e2e (Release, into build-bench/) and runs it, one process per
workload.  Two ways to call it:

  python3 e2ebench/run_benchmark.py --seed 1
      Every workload with tracing off, then every workload once more with
      tracing on.  Prints every metric by name with its unit, the tracing
      overhead, and writes one results JSON (--out).  Exits non-zero if any
      output is wrong or any query failed.

  python3 e2ebench/run_benchmark.py --workload road --seed 1 \
      --seconds 25 --trace 0
      One workload.  The last line of stdout is one JSON object with the
      keys correct, attempted, failed and metrics: the end-to-end metrics
      of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

Inputs are generated inside bench_e2e from the seed; the same seed gives the
same graphs and sources.  OMP_NUM_THREADS is pinned to 1: the library's
OpenMP kernels wait at barriers, and on a shared host a single descheduled
thread stalls them (fig2-graphblas queries of 3.5-4.9 s were seen with 4
threads when another process ran); thread scaling is not measured here.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "bench_e2e")
WORKLOADS = ["road", "social", "serving-hot", "fig2-graphblas"]
OMP_THREADS = "1"
RUN_TIMEOUT_S = 170


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then rebuilds bench_e2e (a no-op when up to date)."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [os.path.realpath(l.split("=", 1)[1].strip()) for l in f
                    if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [os.path.realpath(HERE)]:
            shutil.rmtree(BUILD)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def run_workload(workload, seed, seconds, traced, trace_dir=None):
    """Runs one bench_e2e process; returns its parsed JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS=OMP_THREADS)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--work-dir", os.path.join(BUILD, "work")]
    if traced:
        cmd.append("--traced")
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
    start = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, env=env, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if not lines or p.returncode not in (0, 1):
        log("bench_e2e %s exited %d without a result" % (workload,
                                                          p.returncode))
        sys.exit(2)
    result = json.loads(lines[-1])
    result["process_s"] = time.monotonic() - start
    return result


def print_metrics(workload, result, names=None, notes=None):
    for name, m in sorted(result["metrics"].items()):
        if names is not None and name not in names:
            continue
        note = ("  -> " + notes[name]) if notes and name in notes else ""
        log("  %-16s %-30s %16.6g %-7s [min %.6g, max %.6g, n=%d]%s"
            % (workload, name, m["value"], m["unit"], m["min"], m["max"],
               m["n"], note))


def declared(decl, key):
    return {m["name"]: m for m in decl[key]}


def contract_line(result, names):
    """The one-line result: exactly the declared metrics."""
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            log("metric %s missing from the bench output" % name)
            sys.exit(2)
        m = result["metrics"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def layer_notes():
    with open(os.path.join(HERE, "metrics.json")) as f:
        layers = json.load(f)["per_layer"]
    return {name: "%s layer; moves %s" % (
                info["layer"],
                ", ".join("%s on %s" % (m, w) for m, w in info["moves"]))
            for name, info in layers.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 1 runs the traced per-layer run")
    ap.add_argument("--trace-dir",
                    help="write Chrome trace JSON + self-time tables here")
    ap.add_argument("--out", help="results JSON (all-workload mode default: "
                                  "build-bench/results/seed<S>.json)")
    args = ap.parse_args()

    decl = load_declaration()
    seconds = args.seconds if args.seconds is not None else decl["run_seconds"]
    e2e = declared(decl, "end_to_end")
    per_layer = declared(decl, "per_layer")
    build()

    if args.workload:
        traced = args.trace == 1
        result = run_workload(args.workload, args.seed, seconds, traced,
                              args.trace_dir)
        names = per_layer if traced else e2e
        print_metrics(args.workload, result, names)
        if args.out:
            write_results(args.out, args.seed, seconds,
                          {args.workload: {result["mode"]: result}})
        line = contract_line(result, names)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    trace_dir = args.trace_dir or os.path.join(BUILD, "traces",
                                               "seed%d" % args.seed)
    results = {w: {} for w in WORKLOADS}
    for w in WORKLOADS:
        results[w]["timed"] = run_workload(w, args.seed, seconds, False)
    for w in WORKLOADS:
        results[w]["traced"] = run_workload(w, args.seed, seconds, True,
                                            trace_dir)

    ok = True
    log("\n== end-to-end metrics (tracing off; seed %d, %gs per workload, "
        "OMP_NUM_THREADS=%s)" % (args.seed, seconds, OMP_THREADS))
    for w in WORKLOADS:
        r = results[w]["timed"]
        print_metrics(w, r, e2e)
        log("  %-16s %-30s %16.6g %-7s [%d failed of %d attempted]"
            % (w, "error_rate", r["failed"] / r["attempted"], "ratio",
               r["failed"], r["attempted"]))
    log("\n== per-layer metrics (traced run: the same rounds + layer probes)")
    notes = layer_notes()
    for w in WORKLOADS:
        print_metrics(w, results[w]["traced"], per_layer, notes)
    log("\n== workload descriptors")
    for w in WORKLOADS:
        t = results[w]["traced"]
        log("  %-16s %s, delta %.4g, light fraction %.4g" % (
            w, ", ".join("%s=%s" % kv for kv in sorted(t["config"].items())),
            t["metrics"]["sssp.delta"]["value"],
            t["metrics"]["sssp.light_fraction"]["value"]))
    log("\n== tracing overhead (traced run vs timed run, same seed and "
        "rounds; on a shared host this difference is mostly noise)")
    for w in WORKLOADS:
        timed_m = results[w]["timed"]["metrics"]
        traced_m = results[w]["traced"]["metrics"]
        parts = []
        for name in e2e:
            base = timed_m[name]["value"]
            parts.append("%s %+.1f%%" % (
                name, 100.0 * (traced_m[name]["value"] - base) / base))
        log("  %-16s %s" % (w, ", ".join(parts)))
    log("\n== correctness")
    for w in WORKLOADS:
        timed_r, traced_r = results[w]["timed"], results[w]["traced"]
        same = timed_r["digest"] == traced_r["digest"]
        good = (timed_r["correct"] and traced_r["correct"] and same
                and timed_r["failed"] == 0 and traced_r["failed"] == 0)
        ok = ok and good
        log("  %-16s %s  (validated, bit-identical across rounds and cache "
            "hits; timed and traced distances %s)%s"
            % (w, "ok" if good else "WRONG", "identical" if same else "DIFFER",
               "".join("\n    " + e for e in timed_r["errors"] +
                       traced_r["errors"] + timed_r["failures"] +
                       traced_r["failures"])))
    out = args.out or os.path.join(BUILD, "results",
                                   "seed%d.json" % args.seed)
    write_results(out, args.seed, seconds, results)
    log("\nresults: %s\ntraces:  %s" % (out, trace_dir))
    return 0 if ok else 1


def write_results(path, seed, seconds, workloads):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"schema": 1, "seed": seed, "seconds": seconds,
                   "nproc": os.cpu_count(), "omp_threads": OMP_THREADS,
                   "workloads": workloads}, f, indent=1)


if __name__ == "__main__":
    sys.exit(main())
