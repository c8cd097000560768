#include "sssp/solver.hpp"

#include <exception>
#include <utility>

#include "sssp/async/async_stepping.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping_buckets.hpp"
#include "sssp/delta_stepping_capi.hpp"
#include "sssp/delta_stepping_fused.hpp"
#include "sssp/delta_stepping_graphblas.hpp"
#include "sssp/delta_stepping_openmp.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/paths.hpp"
#include "testing/fault_injection.hpp"

#if defined(DSG_HAVE_OPENMP)
#include <omp.h>
#endif

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
      break;  // raw CSR traversal — no split to warm
  }
}

Algorithm auto_algorithm(const GraphPlan& plan) {
  const PlanStats& stats = plan.stats();
  // Below the cutoff (or with no edges at all) the fused core's bucket
  // machinery costs more than it saves; the heap baseline is the floor.
  constexpr Index kSmallGraphCutoff = 4096;
  if (stats.num_edges == 0 || stats.num_vertices < kSmallGraphCutoff) {
    return Algorithm::kDijkstra;
  }
  // Exact light fraction from the materialized split (the serving layer
  // persists/warms it anyway, so this is a const read in steady state).
  const detail::LightHeavySplit& split = plan.light_heavy();
  const double light_fraction = static_cast<double>(split.light_ind.size()) /
                                static_cast<double>(stats.num_edges);
  if (light_fraction <= 0.1) return Algorithm::kDijkstra;
  return Algorithm::kFused;
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
      omp_get_max_threads() > 1) {
    // Source-level fan-out.  Each thread executes on its own thread-local
    // Context, so workspaces never cross threads; every solve is an
    // independent deterministic run, so results match the serial loop
    // bit-for-bit.  Exceptions cannot cross the region: run_one contains
    // each inside its query's slot.
    const int threads = options_.exec.num_threads > 0
                            ? options_.exec.num_threads
                            : omp_get_max_threads();
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
