// solver.hpp — sssp::SsspSolver, the plan/execute front door of the SSSP
// family.
//
// The solver has the classic plan/execute shape:
//
//   construction  = plan: validate the graph once, pick Δ (explicitly or
//                   via the degree-stats heuristic), build the splits the
//                   chosen algorithm needs, own a grb::Context;
//   solve()       = execute: run the chosen algorithm against the plan
//                   with warm-reused workspaces;
//   solve_batch() = execute many: round-robin over the shared workspace,
//                   OpenMP across sources for the internally-serial
//                   variants;
//   solve_with_paths() = execute + recover the shortest-path tree.
//
// Algorithm choice is data, not code: the Algorithm enum + registry map
// over the variants, so callers (and the v2 C API) can select by value or
// by name.  Each registry entry is the one body of its variant, with the
// signature (const GraphPlan&, grb::Context&, Index, const ExecOptions&).
//
// A solver is single-owner: not copyable, not thread-safe for concurrent
// solve() calls on the same instance (it owns one Context).  solve_batch
// parallelizes internally and is safe to call from one thread.
#pragma once

#include <exception>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graphblas/context.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace dsg::sssp {

/// The registered SSSP algorithm variants.  Values are stable (the v2 C
/// API mirrors them numerically).
enum class Algorithm {
  kBuckets = 0,          ///< canonical Meyer–Sanders buckets (Fig. 1 right)
  kGraphblas = 1,        ///< unfused GraphBLAS formulation (Fig. 2)
  kGraphblasSelect = 2,  ///< GraphBLAS, select filters (bench_baselines)
  kCapi = 3,             ///< the Fig. 2 C-API transcription (not thread-safe)
  kFused = 4,            ///< fused C implementation (Sec. VI-B) — default
  kOpenmp = 5,           ///< task-parallel fused (Sec. VI-C)
  kBellmanFord = 6,      ///< SPFA worklist baseline
  kDijkstra = 7,         ///< binary-heap baseline / oracle
  // 8 is retired (it named rho_stepping); do not reuse it.
  kDeltaSteppingAsync = 9,  ///< lock-free async delta-stepping
};

/// Registry row: how to name, select and run one variant.
struct AlgorithmInfo {
  Algorithm id;
  const char* name;  ///< stable string id, e.g. "fused", "graphblas_select"
  /// True when independent solves may run on different threads (the
  /// variant is internally serial and free of global state).
  bool batch_parallel;
  /// True when repeated runs are bit-identical end to end, SsspStats
  /// included.  The async variant is value-deterministic (distances are
  /// the unique fp fixed point, identical for any schedule or thread
  /// count) but its schedule — and therefore its stats counters — varies
  /// run to run, so it is flagged false.
  bool deterministic;
  /// True when the variant parallelizes internally and honors
  /// ExecOptions::num_threads (the registry-driven scaling bench sweeps
  /// exactly these variants).
  bool threaded;
  /// Plan-based core of the variant.
  SsspResult (*run)(const GraphPlan&, grb::Context&, Index,
                    const ExecOptions&);
};

/// All registered algorithms, ordered by enum value.
std::span<const AlgorithmInfo> algorithm_registry();

/// Lookup by enum: the one check of an algorithm id.  Throws
/// grb::InvalidValue for an id with no registry entry (the retired 8,
/// anything out of range).
const AlgorithmInfo& algorithm_info(Algorithm algorithm);

/// Lookup by stable name; nullptr when unknown.
const AlgorithmInfo* find_algorithm(std::string_view name);

/// Front-loads the plan state `algorithm` will need (light/heavy split,
/// grb split matrices) so later solves hit only const reads.  Used by
/// SsspSolver construction and by the serving layer's worker pool.
void warm_plan(const GraphPlan& plan, Algorithm algorithm);

/// Auto-algorithm selection from the plan's graph/Δ statistics — the
/// serving-layer companion of GraphPlan::auto_delta.  The policy, from the
/// repository's own bench trajectory (fig3_fusion / delta_sweep):
///   - tiny or edgeless graphs (< 4096 vertices): kDijkstra — the heap
///     baseline wins below the point where bucket setup amortizes;
///   - a Δ that leaves almost no light edges (light fraction <= 10%):
///     kDijkstra — delta-stepping degenerates to Dijkstra-with-overhead
///     when nearly every relaxation is a heavy-phase one;
///   - otherwise: kFused, the default fused CSR core.
/// Only internally-serial, pool-safe variants are returned (never kCapi,
/// whose process-global operator state cannot run on concurrent workers).
/// Forces the plan's light/heavy split on graphs past the size cutoff.
Algorithm auto_algorithm(const GraphPlan& plan);

/// Solver construction options.
struct SolverOptions {
  Algorithm algorithm = Algorithm::kFused;
  /// Bucket width Δ; a finite value <= 0 (kAutoDelta) selects it from the
  /// plan's degree statistics, a non-finite one throws grb::InvalidValue.
  /// Ignored by kBellmanFord / kDijkstra.
  double delta = kAutoDelta;
  /// Per-solve options handed to every run.  exec.num_threads also caps
  /// the source-level fan-out of solve_batch; a control passed to solve()
  /// or through BatchOptions overrides exec.control.
  ExecOptions exec{};
};

/// Distances plus the recovered shortest-path tree.
struct SsspPathResult {
  std::vector<double> dist;    ///< kInfDist where unreachable
  std::vector<Index> parent;   ///< kNoParent for source and unreachable
  SsspStats stats;
};

/// Outcome of one query in a failure-isolated batch (see
/// solve_batch(sources, BatchOptions)).
struct QueryResult {
  /// The query's result.  When the query failed, dist is empty and
  /// result.status == SsspStatus::kFailed; an interrupted query
  /// (deadline/cancel) is a *success* carrying partial upper bounds.
  SsspResult result;
  /// The failing exception's message; empty on success.
  std::string error;
  /// The failing exception itself, for callers that need its type (the C
  /// API classifies it into an error code); null on success.
  std::exception_ptr exception;
  bool ok() const { return error.empty(); }
};

/// Options for the failure-isolated batch entry point.
struct BatchOptions {
  /// Shared lifecycle control for every query of the batch (null = none).
  /// Cancelling it winds the whole batch down: in-flight queries return
  /// their partial upper bounds, not-yet-started ones their init state.
  const QueryControl* control = nullptr;
};

class SsspSolver {
 public:
  /// Owning constructors: move a matrix in (or share one via shared_ptr)
  /// and the plan keeps it alive.  Throws grb::InvalidValue /
  /// grb::DimensionMismatch on invalid graphs (negative or non-finite
  /// weights, non-square, empty) or a non-finite Δ — solve() itself cannot
  /// fail on graph shape.
  explicit SsspSolver(grb::Matrix<double> graph, SolverOptions options = {});
  explicit SsspSolver(std::shared_ptr<const grb::Matrix<double>> graph,
                      SolverOptions options = {});

  SsspSolver(SsspSolver&&) noexcept = default;
  SsspSolver& operator=(SsspSolver&&) noexcept = default;
  SsspSolver(const SsspSolver&) = delete;
  SsspSolver& operator=(const SsspSolver&) = delete;

  const GraphPlan& plan() const { return plan_; }
  const SolverOptions& options() const { return options_; }
  Algorithm algorithm() const { return options_.algorithm; }
  /// The Δ actually in use (auto-selected when options.delta <= 0).
  double delta() const { return plan_.delta(); }
  Index num_vertices() const { return plan_.num_vertices(); }

  /// One query against the warm plan/workspace.  Preprocessing was paid at
  /// construction (see plan().setup_seconds()).
  SsspResult solve(Index source);

  /// One query under a lifecycle control: the run observes the control's
  /// deadline/cancel at its round boundaries and, when interrupted,
  /// returns distances-so-far (valid upper bounds) with the matching
  /// result.status.  Arm the control's deadline before calling;
  /// request_cancel() may come from any thread while this runs.
  SsspResult solve(Index source, const QueryControl& control);

  /// Many queries against the shared plan.  Results are element-identical
  /// to calling solve() per source in order (duplicate sources included —
  /// warm-workspace reuse leaks no state between queries).  Internally
  /// serial variants fan out across OpenMP threads when available.
  /// Every source is validated before any query runs; after the batch,
  /// the first query failure (lowest source index) rethrows and discards
  /// it (the legacy contract).  Use the BatchOptions overload for
  /// per-query isolation.
  std::vector<SsspResult> solve_batch(std::span<const Index> sources);

  /// Failure-isolated batch: one query throwing (or naming an out-of-range
  /// source) marks only its own QueryResult as failed; the other N-1
  /// queries complete normally.
  std::vector<QueryResult> solve_batch(std::span<const Index> sources,
                                       const BatchOptions& batch);

  /// One query plus shortest-path-tree recovery over the plan's matrix.
  SsspPathResult solve_with_paths(Index source);

 private:
  GraphPlan plan_;
  SolverOptions options_;
  grb::Context ctx_;
};

}  // namespace dsg::sssp
