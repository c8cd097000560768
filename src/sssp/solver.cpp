#include "sssp/solver.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sssp/async/async_stepping.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping_buckets.hpp"
#include "sssp/delta_stepping_capi.hpp"
#include "sssp/delta_stepping_fused.hpp"
#include "sssp/delta_stepping_graphblas.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/paths.hpp"
#include "testing/fault_injection.hpp"

namespace dsg::sssp {

namespace {

// The registry, in enum order.  Fields: {id, name, batch_parallel,
// deterministic, threaded, run}.  batch_parallel notes:
//   - capi carries the listing's global operator state (delta/i_global);
//   - openmp and the async variant parallelize internally — nesting a
//     source-level fan-out on top would oversubscribe.
// deterministic notes: the async variant returns bit-identical *distances*
// for any schedule, but its stats counters are schedule-dependent (see
// AlgorithmInfo::deterministic).
constexpr AlgorithmInfo kRegistry[] = {
    {Algorithm::kBuckets, "buckets", true, true, false,
     &delta_stepping_buckets},
    {Algorithm::kGraphblas, "graphblas", true, true, false,
     &delta_stepping_graphblas},
    {Algorithm::kGraphblasSelect, "graphblas_select", true, true, false,
     &delta_stepping_graphblas_select},
    {Algorithm::kCapi, "capi", false, true, false, &delta_stepping_capi},
    {Algorithm::kFused, "fused", true, true, false, &delta_stepping_fused},
    {Algorithm::kOpenmp, "openmp", false, true, true,
     &delta_stepping_openmp},
    {Algorithm::kBellmanFord, "bellman_ford", true, true, false,
     &bellman_ford},
    {Algorithm::kDijkstra, "dijkstra", true, true, false, &dijkstra},
    {Algorithm::kDeltaSteppingAsync, "delta_stepping_async", false, false,
     true, &delta_stepping_async},
};

}  // namespace

// Touches the plan state the algorithm will need, so that batched
// execution hits only const reads (the lazy materialization is mutex
// guarded anyway; this just front-loads the cost to construction, where
// the plan/execute contract says it belongs).
void warm_plan(const GraphPlan& plan, Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kBuckets:
    case Algorithm::kFused:
    case Algorithm::kOpenmp:
    case Algorithm::kGraphblas:
    case Algorithm::kGraphblasSelect:
      plan.light_heavy();  // one A_L/A_H, read as CSR or as grb matrices
      break;
    case Algorithm::kCapi:
      // Handles are built lazily on first solve (they live in the plan's
      // derived-state cache); nothing cheap to warm here without running
      // the C API setup, which first solve does once.
      break;
    case Algorithm::kBellmanFord:
    case Algorithm::kDijkstra:
      break;  // no Δ-dependent preprocessing
    case Algorithm::kDeltaSteppingAsync:
      // Raw CSR traversal, no split; the level-round test is its state.
      plan.uniform_symmetric_weight();
      break;
  }
}

namespace {

/// auto_algorithm's pick, made once per plan: a derived slot, so the
/// weight pass and the BFS below count in setup_seconds().
struct AutoRoute {
  Algorithm algorithm;
};

/// True when some vertex lies more than `budget` hops from `source`.  A
/// level-synchronous BFS that stops at the first level past the budget,
/// since no deeper level can change the answer.
bool hops_exceed(const grb::Matrix<double>& a, Index source, double budget) {
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  std::vector<unsigned char> seen(a.nrows(), 0);
  std::vector<Index> frontier{source};
  std::vector<Index> next;
  seen[source] = 1;
  for (Index hops = 0; !frontier.empty(); ++hops) {
    if (static_cast<double>(hops) > budget) return true;
    next.clear();
    for (Index v : frontier) {
      for (Index k = row_ptr[v]; k < row_ptr[v + 1]; ++k) {
        const Index w = col_ind[k];
        if (!seen[w]) {
          seen[w] = 1;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return false;
}

Algorithm route(const GraphPlan& plan, std::optional<double> uniform) {
  const PlanStats& stats = plan.stats();
  // Below the cutoff (or with no edges at all) the fused core's bucket
  // machinery costs more than it saves; the heap baseline is the floor.
  constexpr Index kSmallGraphCutoff = 4096;
  if (stats.num_edges == 0 || stats.num_vertices < kSmallGraphCutoff) {
    return Algorithm::kDijkstra;
  }
  const double delta = plan.delta();
  // One weight on a symmetric pattern (GraphPlan::uniform_symmetric_weight):
  // the async engine's level rounds, with no hop BFS.  The light-fraction
  // rule below, for one weight, is whether that weight is light.
  if (uniform) {
    return *uniform > 0.0 && *uniform <= delta
               ? Algorithm::kDeltaSteppingAsync
               : Algorithm::kDijkstra;
  }
  // One pass over the weights: the light fraction (the split's rule,
  // 0 < w <= Δ, without building the split), the mean weight and the
  // minimum weight, zeros included (a loaded plan's stats come from the
  // file header, so the minimum is taken from the weights themselves).
  std::size_t light = 0;
  double weight_sum = 0.0;
  double min_weight = kInfDist;
  for (const double w : plan.matrix().raw_values()) {
    light += (w > 0.0 && w <= delta) ? 1 : 0;
    weight_sum += w;
    min_weight = std::min(min_weight, w);
  }
  const double m = static_cast<double>(stats.num_edges);
  if (static_cast<double>(light) / m <= 0.1) return Algorithm::kDijkstra;
  // The split cores drop zero-weight edges (A_L = A ∘ (0 < A <= Δ)), so a
  // stored zero goes to a core that traverses it.
  if (min_weight == 0.0) return Algorithm::kDeltaSteppingAsync;
  // With no edge lighter than Δ a bucket can never refill itself, so the
  // async engine expands every vertex once and skips fused's O(n) scans.
  const Algorithm fused_or_async = min_weight >= delta
                                       ? Algorithm::kDeltaSteppingAsync
                                       : Algorithm::kFused;

  // The cost rule documented on auto_algorithm.  buckets also scans its
  // ceil(max_w / Δ) + 2 cyclic slots per bucket, so it is a candidate only
  // while they number fewer than fused's n vertices.  The constant was
  // fitted on one thread over grids, small worlds, Erdős–Rényi and rmat
  // graphs: the winner flips near n × B ≈ m.  Solving n × hops × mean
  // weight / Δ > kRelaxationInScans × m for hops gives the BFS its budget.
  constexpr double kRelaxationInScans = 1.0;
  const double n = static_cast<double>(stats.num_vertices);
  if (stats.max_weight / delta >= n) return fused_or_async;
  const double mean_weight = weight_sum / m;
  const double hop_budget = kRelaxationInScans * m * delta / (n * mean_weight);
  // The first max-degree vertex, found from the CSR itself: a loaded
  // plan's stats come from the file header.
  auto row_ptr = plan.matrix().row_ptr();
  Index hub = 0;
  for (Index v = 1; v < plan.num_vertices(); ++v) {
    if (row_ptr[v + 1] - row_ptr[v] > row_ptr[hub + 1] - row_ptr[hub]) hub = v;
  }
  return hops_exceed(plan.matrix(), hub, hop_budget) ? Algorithm::kBuckets
                                                     : fused_or_async;
}

}  // namespace

Algorithm auto_algorithm(const GraphPlan& plan) {
  // Outside the route's own slot: derived() holds the plan's lock while it
  // builds, so a slot cannot build another.
  const std::optional<double> uniform = plan.uniform_symmetric_weight();
  const auto make = [&] {
    return std::make_shared<const AutoRoute>(AutoRoute{route(plan, uniform)});
  };
  return plan.derived<AutoRoute>(make).algorithm;
}

std::span<const AlgorithmInfo> algorithm_registry() { return kRegistry; }

const AlgorithmInfo& algorithm_info(Algorithm algorithm) {
  for (const auto& info : kRegistry) {
    if (info.id == algorithm) return info;
  }
  throw grb::InvalidValue("sssp: unknown algorithm id " +
                          std::to_string(static_cast<int>(algorithm)));
}

const AlgorithmInfo* find_algorithm(std::string_view name) {
  for (const auto& info : kRegistry) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

SsspSolver::SsspSolver(grb::Matrix<double> graph, SolverOptions options)
    : SsspSolver(
          std::make_shared<const grb::Matrix<double>>(std::move(graph)),
          options) {}

SsspSolver::SsspSolver(std::shared_ptr<const grb::Matrix<double>> graph,
                       SolverOptions options)
    : plan_(std::move(graph), options.delta), options_(options) {
  algorithm_info(options_.algorithm);  // validate the enum up front
  warm_plan(plan_, options_.algorithm);
}

SsspResult SsspSolver::solve(Index source) {
  const AlgorithmInfo& info = algorithm_info(options_.algorithm);
  testing::fault_point("solver/solve");
  return info.run(plan_, ctx_, source, options_.exec);
}

SsspResult SsspSolver::solve(Index source, const QueryControl& control) {
  const AlgorithmInfo& info = algorithm_info(options_.algorithm);
  testing::fault_point("solver/solve");
  ExecOptions exec = options_.exec;
  exec.control = &control;
  return info.run(plan_, ctx_, source, exec);
}

std::vector<SsspResult> SsspSolver::solve_batch(
    std::span<const Index> sources) {
  // Legacy contract: a bad index must not surface mid-batch — validate
  // everything before launching.  Isolation mode instead turns a bad
  // source into that query's failure.
  for (Index s : sources) {
    grb::detail::check_index(s, plan_.num_vertices(), "solve_batch: source");
  }
  std::vector<QueryResult> isolated = solve_batch(sources, BatchOptions{});
  std::vector<SsspResult> results;
  results.reserve(isolated.size());
  for (QueryResult& q : isolated) {
    if (q.exception) std::rethrow_exception(q.exception);
    results.push_back(std::move(q.result));
  }
  return results;
}

std::vector<QueryResult> SsspSolver::solve_batch(
    std::span<const Index> sources, const BatchOptions& batch) {
  const AlgorithmInfo& info = algorithm_info(options_.algorithm);
  ExecOptions exec = options_.exec;
  if (batch.control) exec.control = batch.control;
  std::vector<QueryResult> results(sources.size());

  // Per-query body: every exception stays inside its own slot.  The fault
  // point is keyed by source so tests can poison one specific query
  // regardless of OpenMP scheduling.
  auto run_one = [&](std::size_t k, grb::Context& query_ctx) {
    QueryResult& out = results[k];
    try {
      const Index s = sources[k];
      grb::detail::check_index(s, plan_.num_vertices(), "solve_batch: source");
      testing::fault_point("solver/batch_query", s);
      out.result = info.run(plan_, query_ctx, s, exec);
    } catch (const std::exception& e) {
      out.exception = std::current_exception();
      out.result = SsspResult{};
      out.result.status = SsspStatus::kFailed;
      out.error = e.what();
    } catch (...) {
      out.exception = std::current_exception();
      out.result = SsspResult{};
      out.result.status = SsspStatus::kFailed;
      out.error = "unknown error";
    }
  };

#if defined(DSG_HAVE_OPENMP)
  if (info.batch_parallel && sources.size() > 1 &&
      resolve_num_threads(0) > 1) {
    // Source-level fan-out.  Each thread executes on its own thread-local
    // Context, so workspaces never cross threads; every solve is an
    // independent deterministic run, so results match the serial loop
    // bit-for-bit.  Exceptions cannot cross the region: run_one contains
    // each inside its query's slot.
    const int threads = resolve_num_threads(options_.exec.num_threads);
#pragma omp parallel for schedule(dynamic) num_threads(threads)
    for (std::int64_t k = 0;
         k < static_cast<std::int64_t>(sources.size()); ++k) {
      run_one(static_cast<std::size_t>(k), grb::default_context());
    }
  } else
#endif
  {
    // Serial round-robin over the solver's own warm workspace.
    for (std::size_t k = 0; k < sources.size(); ++k) {
      run_one(k, ctx_);
    }
  }

  return results;
}

SsspPathResult SsspSolver::solve_with_paths(Index source) {
  SsspResult r = solve(source);
  SsspPathResult out;
  out.parent = recover_parents(plan_.matrix(), source, r.dist);
  out.dist = std::move(r.dist);
  out.stats = r.stats;
  return out;
}

}  // namespace dsg::sssp
