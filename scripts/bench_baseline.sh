#!/usr/bin/env bash
# Perf baseline: builds the bench binaries in Release mode, runs them on the
# generated RMAT / Erdos-Renyi / grid suite, and emits BENCH_sssp.json at
# the repo root — the checked-in perf trajectory for the SSSP hot path.
#
# Usage: scripts/bench_baseline.sh [build-dir] [--quick]
#   build-dir  defaults to build-figs (kept separate from the dev build and
#              from build-bench/, which e2ebench/run_benchmark.py owns and
#              wipes when it finds another configuration there)
#   --quick    CI smoke mode: fewer graphs, smaller spmspv instance
#
# ---------------------------------------------------------------------------
# BENCH_sssp.json schema (dsg-bench-sssp-v2)
#
# Top-level keys:
#   schema   "dsg-bench-sssp-v2" — bump only on breaking shape changes;
#            additive keys (like spmspv_pointwise) do not bump it.
#   quick    true when produced by --quick (CI smoke); the checked-in file
#            must always come from a full (non-quick) run.
#   commit   short git hash of HEAD at *generation* time, with a "-dirty"
#            suffix when the working tree differed from it.  The checked-in
#            baseline is normally generated right before the commit that
#            includes it, so its stamp reads "<parent-hash>-dirty": the
#            numbers were measured on the dirty tree that *became* that
#            commit, not on the clean parent.  A stamp with no suffix means
#            the numbers reproduce a committed state exactly.
#   host     { machine, nproc } — compare runs on like hardware only.
#
# Table keys (each a list of row objects keyed by that table's CSV header):
#   fig3_fusion    bench_fig3_fusion: per-graph end-to-end SSSP milliseconds
#                  per variant (graphblas / select / capi / fused / openmp
#                  columns; the paper's abstraction-penalty table).  This is
#                  the end-to-end regression reference: a PR touching the
#                  operations layer must keep these faster-or-equal.
#   delta_sweep    bench_delta_sweep: milliseconds across the Δ ablation
#                  grid plus the auto-Δ row, as one table (list of rows)
#                  per graph, in the bench's suite order.
#   spmspv         bench_spmspv table 1: sparse-frontier vxm, workspace
#                  reuse vs per-call reset (cold_ms / reused_ms / speedup
#                  per frontier size; CI gate >= 5x at frontier=16).
#   spmspv_pointwise
#                  bench_spmspv table 2: point-wise ops over a 75%-dense
#                  vector, sparse vs dense representation (sparse_ms /
#                  dense_ms / speedup per op; CI gate: geomean >= 2x,
#                  outputs verified bit-identical — sparse vs dense AND
#                  serial vs OpenMP — before timing).
#   spmspv_wordpack
#                  bench_spmspv table 3: the probe-bound dense ops against
#                  a byte-per-position bitmap reference (byte_ms / word_ms
#                  / speedup; CI gate: geomean >= 1.3x for the word-packed
#                  layout).
#   solver_batch   bench_solver_batch table 1: queries/sec through a warm
#                  SsspSolver at batch sizes 1/8/64 per graph.
#   solver_batch_amortization
#                  bench_solver_batch table 2: 64-query one-shot-solver vs
#                  warm vs batch totals (CI gate: batch < 2x warm,
#                  one-shot >= 1.5x batch).
#   solver_batch_representation
#                  bench_solver_batch table 3: the unfused GraphBLAS
#                  variant with Vector density auto-switching on vs off
#                  (record only — the dense-path gate is spmspv_pointwise).
#   serving        bench_solver_batch table 4: sustained closed-loop
#                  traffic through SsspServer (pool + LRU result cache)
#                  on rmat-13 — qps and client-observed p50/p99 per leg,
#                  cache on vs off, half the traffic from a hot source
#                  set (CI gate: cache-on qps >= 1.5x cache-off at
#                  >= 50% repeated sources).  Additive key — does not
#                  bump the schema.
#   async_scaling  bench_fig4_scaling: per-graph, per-engine self-relative
#                  thread speedups for every registry variant flagged
#                  `threaded` (openmp / rho_stepping / delta_stepping_async;
#                  t1_ms plus Nt_speedup columns).  Additive key — does not
#                  bump the schema.  --check gates: best *async* self-speedup
#                  at the largest thread count >= best deterministic
#                  engine's on grid-128x128 / rmat-16; auto-skipped (noted
#                  on stderr) on hosts with fewer hardware threads than the
#                  sweep asks for, where "scaling" would measure
#                  oversubscription contention.
#
# Regenerating and gating: run `scripts/bench_baseline.sh` on an idle
# machine and commit the rewritten BENCH_sssp.json alongside the change
# that moved the numbers.  CI runs the --quick variant on every push
# (.github/workflows/ci.yml, bench-smoke job), which enforces the
# bench_spmspv and bench_solver_batch --check gates but does not diff
# milliseconds against the checked-in file (CI hardware varies); the
# checked-in numbers are the human-reviewed trajectory.
# See docs/ARCHITECTURE.md for where each measured path lives.
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
  --target bench_fig3_fusion bench_delta_sweep bench_spmspv \
           bench_solver_batch bench_fig4_scaling

OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

if [[ "$QUICK" -eq 1 ]]; then
  FIG3_ARGS=(--graphs 3)
  SWEEP_ARGS=(--graphs 2 --deltas "0.5,1,2")
  SPMSPV_ARGS=(--n 65536 --deg 4)
  BATCH_ARGS=(--graphs 3)
  FIG4_ARGS=(--graphs 3)
else
  FIG3_ARGS=(--graphs 6)
  SWEEP_ARGS=(--graphs 3)
  SPMSPV_ARGS=()
  BATCH_ARGS=(--graphs 6)
  # 6 graphs reaches grid-128x128, the first async-scaling gate graph.
  FIG4_ARGS=(--graphs 6)
fi

"$BUILD_DIR/bench/bench_fig3_fusion" "${FIG3_ARGS[@]}" --csv \
  > "$OUT_DIR/fig3.csv"
"$BUILD_DIR/bench/bench_delta_sweep" "${SWEEP_ARGS[@]}" --csv \
  > "$OUT_DIR/sweep.csv"
# --check asserts the dense-vs-sparse bit-identity at every size and (at
# full scale) the two perf gates: workspace reuse >= 5x, dense-path
# pointwise geomean >= 2x.
"$BUILD_DIR/bench/bench_spmspv" "${SPMSPV_ARGS[@]}" --csv --check \
  > "$OUT_DIR/spmspv.csv"
# --check is the Release amortization + serving gate: solve_batch(64) < 2x
# the 64 warm solves, 64 one-shot solvers >= 1.5x solve_batch(64), AND serving
# cache-on qps >= 1.5x cache-off under 50%-repeated-source traffic.  A
# failed gate fails this script (and the CI bench-smoke job).
"$BUILD_DIR/bench/bench_solver_batch" "${BATCH_ARGS[@]}" --csv --check \
  > "$OUT_DIR/solver_batch.csv"
# --check is the async-scaling gate (see the async_scaling schema note):
# best async self-speedup >= best deterministic engine's at the largest
# thread count on the gate graphs; skipped with a stderr note on hosts too
# narrow to measure scaling honestly.
"$BUILD_DIR/bench/bench_fig4_scaling" "${FIG4_ARGS[@]}" --csv --check \
  > "$OUT_DIR/fig4.csv"

python3 - "$OUT_DIR" "$QUICK" <<'PY'
import csv, json, platform, os, subprocess, sys

out_dir, quick = sys.argv[1], sys.argv[2] == "1"

def read_table(path):
    rows, header = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            else:
                rows.append(dict(zip(header, cells)))
    return rows

def read_tables(path):
    """Multi-table CSV: a known header first-cell after data rows starts a
    new table (bench_solver_batch emits throughput + amortization +
    representation + serving; bench_spmspv emits vxm + pointwise;
    bench_delta_sweep emits one table per graph)."""
    tables, header, rows = [], None, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
            elif cells[0] in ("graph", "metric", "op", "frontier", "leg",
                              "delta"):
                tables.append((header, rows))
                header, rows = cells, []
            else:
                rows.append(dict(zip(header, cells)))
    if header is not None:
        tables.append((header, rows))
    return [rows for _, rows in tables]

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

batch_tables = read_tables(os.path.join(out_dir, "solver_batch.csv"))
spmspv_tables = read_tables(os.path.join(out_dir, "spmspv.csv"))

doc = {
    "schema": "dsg-bench-sssp-v2",
    "quick": quick,
    "commit": git_head(),
    "host": {
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    },
    "fig3_fusion": read_table(os.path.join(out_dir, "fig3.csv")),
    "delta_sweep": read_tables(os.path.join(out_dir, "sweep.csv")),
    # Sparse-frontier vxm workspace reuse, plus the point-wise ops measured
    # with the vector pinned sparse vs pinned dense (see scripts header for
    # the full schema description).
    "spmspv": spmspv_tables[0] if spmspv_tables else [],
    "spmspv_pointwise":
        spmspv_tables[1] if len(spmspv_tables) > 1 else [],
    "spmspv_wordpack":
        spmspv_tables[2] if len(spmspv_tables) > 2 else [],
    # Batched-query scenario: queries/sec at batch sizes 1/8/64 through a
    # warm SsspSolver, the 64-query one-shot/warm/batch amortization, and the
    # dense auto-switching on/off record for the graphblas variant.
    "solver_batch": batch_tables[0] if batch_tables else [],
    "solver_batch_amortization":
        batch_tables[1] if len(batch_tables) > 1 else [],
    "solver_batch_representation":
        batch_tables[2] if len(batch_tables) > 2 else [],
    # Closed-loop serving traffic through SsspServer: cache-on vs cache-off
    # legs, qps + p50/p99 (see the `serving` schema note above).
    "serving": batch_tables[3] if len(batch_tables) > 3 else [],
    # Registry-driven thread scaling: one row per (graph, threaded engine),
    # self-relative speedups per thread count.
    "async_scaling": read_table(os.path.join(out_dir, "fig4.csv")),
}
def check_no_header_rows(doc):
    """A row equal to its own header is a later table's header read in as
    data — the symptom of a multi-table CSV parsed with read_table."""
    def tables(value):
        if isinstance(value, list) and value and isinstance(value[0], list):
            for t in value:
                yield from tables(t)
        elif isinstance(value, list):
            yield value
    bad = [(key, row) for key, value in doc.items() for t in tables(value)
           for row in t if isinstance(row, dict) and
           all(k == v for k, v in row.items())]
    for key, row in bad:
        print(f"{key}: header row read as data: {row}", file=sys.stderr)
    if bad:
        sys.exit(1)

check_no_header_rows(doc)
with open("BENCH_sssp.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print("wrote BENCH_sssp.json")
PY
