#!/usr/bin/env bash
# Perf baseline: builds the bench binaries in Release mode, runs them on the
# generated RMAT / Erdos-Renyi / grid suite, and emits BENCH_sssp.json at
# the repo root — the checked-in record of the paper's figures and of the
# CI ratio gates.
#
# Usage: scripts/bench_baseline.sh [build-dir] [--quick]
#   build-dir  defaults to build-figs (kept separate from the dev build and
#              from build-bench/, which e2ebench/run_benchmark.py owns and
#              wipes when it finds another configuration there)
#   --quick    CI smoke mode: fewer graphs, smaller spmspv instance
#
# ---------------------------------------------------------------------------
# BENCH_sssp.json schema (dsg-bench-sssp-v3)
#
# Each bench binary run with --json prints one JSON line per table,
# {"<table key>": [{<column>: <value>, ...}, ...]}.  This script merges
# those objects by key (a key printed twice fails the run) and stamps:
#   schema   "dsg-bench-sssp-v3" — bump only on breaking shape changes.
#   quick    true when produced by --quick (CI smoke); the checked-in file
#            must always come from a full (non-quick) run.
#   commit   short git hash of HEAD at generation time, "-dirty" appended
#            when the working tree differed from it (so the checked-in
#            file normally reads "<parent-hash>-dirty").
#   host     { machine, nproc } — compare runs on like hardware only.
#
# Values are JSON numbers (unit in the column name: _ms, qps, speedup
# ratios), booleans or null (not applicable, or non-finite); the only
# strings are identifiers: graph, algorithm, leg, op, metric.
#
# Table keys, by the bench that prints them:
#   fig3_fusion    bench_fig3_fusion: one-shot unfused (graphblas) vs fused
#                  ms per graph — the paper's Fig. 3 abstraction penalty —
#                  plus fused_setup_ms, whose share of fused_ms is the
#                  paper's Sec. VI-C filtering claim (35-40%).
#   baselines      bench_baselines: warm per-query ms for every registry
#                  algorithm (one column each) plus split_plan_ms.
#   delta_sweep    bench_delta_sweep: fused ms, buckets, light phases and
#                  relaxations across the Δ grid (Sec. VII), `auto` marking
#                  the plan's auto-Δ; dijkstra and bellman_ford reference
#                  rows per graph (delta/buckets/light_phases null).
#   async_scaling  bench_fig4_scaling: t1_ms and self-relative speedups per
#                  thread count for every registry algorithm flagged
#                  `threaded` (Fig. 4).  --check gate: best async speedup
#                  at the largest thread count >= best deterministic one
#                  on grid-128x128 / rmat-16; skipped (noted on stderr) on
#                  hosts with fewer hardware threads than the sweep asks
#                  for, where "scaling" measures oversubscription.
#   spmspv         bench_spmspv: sparse-frontier vxm, fresh vs reused
#                  workspace per frontier size (gate: >= 5x at 16).
#   spmspv_pointwise
#                  bench_spmspv: point-wise ops over a 75%-dense vector,
#                  sparse vs dense representation (gate: geomean >= 2x;
#                  outputs bit-identical, sparse vs dense and serial vs
#                  OpenMP, at every size).
#   spmspv_wordpack
#                  bench_spmspv: probe-bound dense ops, byte-bitmap
#                  reference vs word-packed (gate: geomean >= 1.3x).
#   solver_batch   bench_solver_batch: queries/sec through a warm
#                  SsspSolver at batch sizes 1/8/64 per graph.
#   solver_batch_amortization
#                  bench_solver_batch: 64 one-shot solvers vs 64 warm
#                  solves vs solve_batch(64), vs_batch = total / batch
#                  (--check gate: batch < 2x warm, one-shot >= 1.5x batch).
#   solver_batch_representation
#                  bench_solver_batch: the unfused GraphBLAS variant with
#                  Vector density auto-switching on vs off (record only).
#   serving        bench_solver_batch: closed-loop traffic through
#                  SsspServer on rmat-13, cache on vs off, half the queries
#                  from a hot source set (--check gate: cache-on qps >=
#                  1.5x cache-off, and the cache-on leg's minimum hits).
#
# The spmspv gates hold at its default size only (n = 1<<20; the --quick
# run is smaller); the bit-identity checks hold at every size.
#
# Regenerating and gating: run `scripts/bench_baseline.sh` on an idle
# machine and commit the rewritten BENCH_sssp.json alongside the change
# that moved the numbers.  CI runs the --quick variant on every push
# (.github/workflows/ci.yml, bench-smoke job), which enforces the gates
# above but does not diff numbers against the checked-in file (CI hardware
# varies).  The performance gate is e2ebench/; this file records the
# paper's figures.  See docs/ARCHITECTURE.md for where each measured path
# lives.
# ---------------------------------------------------------------------------
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="build-figs"
QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

# Tests are excluded: the perf build only needs the bench binaries (and the
# GCC-12 -Wrestrict false positive in one -O3 test TU stays out of the way).
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
  -DDSG_BUILD_TESTS=OFF -DDSG_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_fig3_fusion bench_baselines bench_delta_sweep \
           bench_spmspv bench_solver_batch bench_fig4_scaling

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

if [[ "$QUICK" -eq 1 ]]; then
  FIG3_ARGS=(--graphs 3)
  BASE_ARGS=(--graphs 3)
  SWEEP_ARGS=(--graphs 2 --deltas "0.5,1,2")
  SPMSPV_ARGS=(--n 65536 --deg 4)
  BATCH_ARGS=(--graphs 3)
  FIG4_ARGS=(--graphs 3)
else
  FIG3_ARGS=(--graphs 6)
  BASE_ARGS=(--graphs 6)
  SWEEP_ARGS=(--graphs 3)
  SPMSPV_ARGS=()
  BATCH_ARGS=(--graphs 6)
  # 6 graphs reaches grid-128x128, the first async-scaling gate graph.
  FIG4_ARGS=(--graphs 6)
fi

B="$BUILD_DIR/bench"
"$B/bench_fig3_fusion" "${FIG3_ARGS[@]}" --json > "$OUT_DIR/fig3.json"
"$B/bench_baselines" "${BASE_ARGS[@]}" --json > "$OUT_DIR/baselines.json"
"$B/bench_delta_sweep" "${SWEEP_ARGS[@]}" --json > "$OUT_DIR/sweep.json"
# Exits non-zero on a bit-identity failure at any size and, at full
# scale, on a missed perf gate.
"$B/bench_spmspv" "${SPMSPV_ARGS[@]}" --json > "$OUT_DIR/spmspv.json"
# --check: the amortization and serving gates (schema notes above).
"$B/bench_solver_batch" "${BATCH_ARGS[@]}" --json --check \
  > "$OUT_DIR/solver_batch.json"
# --check: the async-scaling gate (schema notes above).
"$B/bench_fig4_scaling" "${FIG4_ARGS[@]}" --json --check \
  > "$OUT_DIR/fig4.json"

python3 - "$OUT_DIR" "$QUICK" <<'PY'
import json, os, platform, subprocess, sys

out_dir, quick = sys.argv[1], sys.argv[2] == "1"

def git_head():
    """HEAD at generation time, "-dirty" appended when the tree has
    uncommitted changes — see the `commit` schema note in the header."""
    try:
        head = subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"], text=True).strip()
        # status --porcelain (not diff-index) so untracked files — new
        # sources compiled into the measured binaries — also count as dirty.
        dirty = subprocess.check_output(
            ["git", "status", "--porcelain"], text=True).strip() != ""
        return head + ("-dirty" if dirty else "")
    except Exception:
        return "unknown"

doc = {
    "schema": "dsg-bench-sssp-v3",
    "quick": quick,
    "commit": git_head(),
    "host": {"machine": platform.machine(), "nproc": os.cpu_count()},
}
for name in ("fig3", "baselines", "sweep", "spmspv", "solver_batch",
             "fig4"):
    with open(os.path.join(out_dir, name + ".json")) as f:
        for line in f:
            for key, rows in json.loads(line).items():
                if key in doc:
                    sys.exit(f"{name}.json: duplicate table key {key!r}")
                doc[key] = rows

with open("BENCH_sssp.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_sssp.json")
PY
