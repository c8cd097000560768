// test_solver.cpp — the plan/execute SSSP API: GraphPlan, the algorithm
// registry, SsspSolver solve/solve_batch/solve_with_paths, and the v2
// DsgSolver C handles.
//
// The load-bearing guarantees pinned here:
//   1. every registered algorithm, run through the solver, produces results
//      identical to its registry core on a shared plan and agrees with the
//      Dijkstra oracle;
//   2. solve_batch is element-identical to a per-source solve() loop,
//      including repeated and duplicate sources (warm-workspace reuse must
//      not leak state between queries);
//   3. the unreachable-vertex convention (exactly +inf, never absent) holds
//      across every algorithm on a disconnected graph;
//   4. plan validation (graph shape, weights, a finite Δ) fails
//      construction, not solve.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "capi/graphblas.h"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/paths.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"

namespace dsg::test {
namespace {

using sssp::Algorithm;
using sssp::SolverOptions;
using sssp::SsspSolver;

grb::Matrix<double> weighted_test_graph(Index n = 400, std::size_t extra = 1200,
                                        unsigned seed = 11) {
  auto graph = generate_connected_random(n, extra, seed);
  assign_uniform_weights(graph, 0.1, 5.0, seed + 1);
  graph.normalize();
  return graph.to_matrix();
}

// ---------------------------------------------------------------------------
// Registry basics.
// ---------------------------------------------------------------------------

TEST(SolverRegistry, CoversAllAlgorithmsWithStableNames) {
  const auto registry = sssp::algorithm_registry();
  // Stable (id, name) pairs in enum order; 8 is retired.
  const struct {
    int id;
    const char* name;
  } expected[] = {{0, "buckets"},      {1, "graphblas"},
                  {2, "graphblas_select"}, {3, "capi"},
                  {4, "fused"},        {5, "openmp"},
                  {6, "bellman_ford"}, {7, "dijkstra"},
                  {9, "delta_stepping_async"}};
  ASSERT_EQ(registry.size(), std::size(expected));
  for (std::size_t k = 0; k < registry.size(); ++k) {
    EXPECT_EQ(static_cast<int>(registry[k].id), expected[k].id);
    EXPECT_STREQ(registry[k].name, expected[k].name);
    EXPECT_EQ(sssp::find_algorithm(registry[k].name), &registry[k]);
    EXPECT_EQ(&sssp::algorithm_info(registry[k].id), &registry[k]);
  }
  EXPECT_EQ(sssp::find_algorithm("no_such_algorithm"), nullptr);
}

// algorithm_info is the one check of an id: the retired 8 and
// out-of-range ids are rejected by name, by enum, and by both C API
// constructors, before any plan is built.
TEST(SolverRegistry, RetiredIdIsRejected) {
  EXPECT_EQ(sssp::find_algorithm("rho_stepping"), nullptr);
  EXPECT_THROW(sssp::algorithm_info(Algorithm{8}), grb::InvalidValue);
  EXPECT_THROW(sssp::algorithm_info(Algorithm{10}), grb::InvalidValue);

  const auto m = diamond_graph().to_matrix();
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, m.nrows(), m.ncols()), GrB_SUCCESS);
  m.for_each([&](Index r, Index c, const double& w) {
    GrB_Matrix_setElement_FP64(a, w, r, c);
  });
  for (const int alg : {8, 10, -1}) {
    DsgSolver solver = nullptr;
    EXPECT_EQ(DsgSolver_new(&solver, a, static_cast<DsgSsspAlgorithm>(alg),
                            1.0),
              GrB_INVALID_VALUE)
        << "solver algorithm " << alg;
    if (solver != nullptr) DsgSolver_free(&solver);
  }
  for (const int alg : {8, 10}) {  // -1 is DSG_SSSP_AUTO for a server
    DsgServer server = nullptr;
    EXPECT_EQ(DsgServer_new(&server, a, static_cast<DsgSsspAlgorithm>(alg),
                            1.0, 1, 4, 4),
              GrB_INVALID_VALUE)
        << "server algorithm " << alg;
    if (server != nullptr) DsgServer_free(&server);
  }
  GrB_Matrix_free(&a);
}

// ---------------------------------------------------------------------------
// Solver results == registry core on a shared plan == oracle, for every
// algorithm.
// ---------------------------------------------------------------------------

TEST(SsspSolver, MatchesRegistryCoreAndOracleOnAllAlgorithms) {
  const auto a = weighted_test_graph();
  const double delta = 1.0;
  const Index source = 3;
  const GraphPlan plan(grb::Matrix<double>(a), delta);
  const auto oracle = dijkstra(a, source);

  for (const auto& info : sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    SolverOptions options;
    options.algorithm = info.id;
    options.delta = delta;
    SsspSolver solver(a, options);
    const auto got = solver.solve(source);
    // The async engine is value-deterministic (bit-identical distances
    // for any schedule), so exact equality holds for every entry.
    const auto want = run_registry(plan, info.id, source);
    ASSERT_EQ(got.dist.size(), want.dist.size());
    for (std::size_t v = 0; v < want.dist.size(); ++v) {
      EXPECT_EQ(got.dist[v], want.dist[v]) << "vertex " << v;
    }
    const auto cmp = compare_distances(oracle.dist, got.dist, 1e-9);
    EXPECT_TRUE(cmp.ok) << cmp.message;
  }
}

// ---------------------------------------------------------------------------
// solve_batch: element-identical to per-source solve loops, duplicates
// included, across every registered algorithm.
// ---------------------------------------------------------------------------

TEST(SsspSolver, BatchIdenticalToPerSourceLoopAllAlgorithms) {
  const auto a = weighted_test_graph(250, 700, 23);
  // Repeats and duplicates on purpose: a workspace leaking state between
  // queries would show up as a divergence on the second occurrence.
  const std::vector<Index> sources = {0, 17, 17, 3, 249, 0, 101, 17};

  for (const auto& info : sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    SolverOptions options;
    options.algorithm = info.id;
    options.delta = 0.8;
    SsspSolver solver(a, options);

    const auto batched = solver.solve_batch(sources);
    ASSERT_EQ(batched.size(), sources.size());
    for (std::size_t k = 0; k < sources.size(); ++k) {
      const auto individual = solver.solve(sources[k]);
      ASSERT_EQ(batched[k].dist.size(), individual.dist.size());
      for (std::size_t v = 0; v < individual.dist.size(); ++v) {
        EXPECT_EQ(batched[k].dist[v], individual.dist[v])
            << "source " << sources[k] << " vertex " << v;
      }
    }
  }
}

TEST(SsspSolver, BatchValidatesSourcesUpFront) {
  SsspSolver solver(two_islands_graph().to_matrix());
  const std::vector<Index> sources = {0, 99};  // 99 out of range (n=4)
  EXPECT_THROW(solver.solve_batch(sources), grb::IndexOutOfBounds);
  EXPECT_THROW(solver.solve(99), grb::IndexOutOfBounds);
}

// ---------------------------------------------------------------------------
// Unreachable-vertex convention: exactly +inf everywhere, all algorithms
// (the disconnected-graph regression of the consistency audit).
// ---------------------------------------------------------------------------

TEST(SsspSolver, DisconnectedGraphReportsExactInfEverywhere) {
  const auto a = two_islands_graph().to_matrix();
  const auto want = two_islands_distances_from_0();

  for (const auto& info : sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    SolverOptions options;
    options.algorithm = info.id;
    SsspSolver solver(a, options);
    const auto result = solver.solve(0);

    ASSERT_EQ(result.dist.size(), want.size());  // never absent entries
    for (std::size_t v = 0; v < want.size(); ++v) {
      if (want[v] == kInfDist) {
        // Exactly +inf: not NaN, not a large finite sentinel.
        EXPECT_EQ(result.dist[v], kInfDist) << "vertex " << v;
        EXPECT_FALSE(std::isnan(result.dist[v]));
      } else {
        EXPECT_NEAR(result.dist[v], want[v], 1e-12) << "vertex " << v;
      }
    }
    // And validate_sssp accepts exactly this convention.
    const auto report = validate_sssp(a, 0, result.dist);
    EXPECT_TRUE(report.ok) << report.message;
  }
}

TEST(ValidateSssp, RejectsWrongUnreachableConventions) {
  const auto a = two_islands_graph().to_matrix();
  // NaN where unreachable: rejected.
  std::vector<double> with_nan = {0.0, 1.0, std::nan(""), std::nan("")};
  EXPECT_FALSE(validate_sssp(a, 0, with_nan).ok);
  // Finite sentinel where unreachable: rejected.
  std::vector<double> with_sentinel = {0.0, 1.0, 1e300, 1e300};
  EXPECT_FALSE(validate_sssp(a, 0, with_sentinel).ok);
  // +inf where reachable: rejected.
  std::vector<double> inf_reachable = {0.0, kInfDist, kInfDist, kInfDist};
  EXPECT_FALSE(validate_sssp(a, 0, inf_reachable).ok);
  // The one true convention: accepted.
  EXPECT_TRUE(validate_sssp(a, 0, two_islands_distances_from_0()).ok);
}

// ---------------------------------------------------------------------------
// Plan behaviour: validation at construction, auto-delta, setup accounting.
// ---------------------------------------------------------------------------

TEST(GraphPlan, ValidatesAtConstructionNotSolve) {
  grb::Matrix<double> negative(3, 3);
  negative.set_element(0, 1, -2.0);
  EXPECT_THROW(SsspSolver{negative}, grb::InvalidValue);
  EXPECT_THROW(GraphPlan{negative}, grb::InvalidValue);

  grb::Matrix<double> nan_weight(3, 3);
  nan_weight.set_element(0, 1, std::nan(""));
  EXPECT_THROW(GraphPlan{nan_weight}, grb::InvalidValue);

  grb::Matrix<double> rect(3, 4);
  EXPECT_THROW(SsspSolver{rect}, grb::DimensionMismatch);
  EXPECT_THROW(GraphPlan{rect}, grb::DimensionMismatch);

  grb::Matrix<double> empty(0, 0);
  EXPECT_THROW(SsspSolver{empty}, grb::InvalidValue);
  EXPECT_THROW(GraphPlan{empty}, grb::InvalidValue);

  // An out-of-range source is a per-query error of every registry entry.
  const GraphPlan plan(diamond_graph().to_matrix(), 1.0);
  for (const auto& info : sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    EXPECT_THROW(run_registry(plan, info.id, 5), grb::IndexOutOfBounds);
  }
}

TEST(GraphPlan, RejectsNonFiniteDeltaForEveryAlgorithm) {
  // +inf would make the bucket bounds 0 * inf = NaN (fused and graphblas
  // then return {0, inf, inf, inf} on this path), and NaN would silently
  // pass as auto-Δ.
  EdgeList path(4);
  path.add_edge(0, 1, 1.0);
  path.add_edge(1, 2, 2.0);
  path.add_edge(2, 3, 3.0);
  const auto a = path.to_matrix();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& info : sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    for (const double delta : {inf, -inf, std::nan("")}) {
      SolverOptions options;
      options.algorithm = info.id;
      options.delta = delta;
      EXPECT_THROW(SsspSolver(a, options), grb::InvalidValue)
          << "delta=" << delta;
    }
    // A finite Δ <= 0 still means auto-Δ, and answers correctly.
    SolverOptions options;
    options.algorithm = info.id;
    options.delta = -1.0;
    SsspSolver solver(a, options);
    EXPECT_TRUE(solver.plan().delta_was_auto());
    expect_distances(solver.solve(0).dist, {0.0, 1.0, 3.0, 6.0}, info.name);
  }
}

TEST(GraphPlan, AutoDeltaFollowsDegreeStats) {
  const auto a = weighted_test_graph(300, 900, 5);
  SsspSolver solver(a);  // delta = kAutoDelta
  const auto& stats = solver.plan().stats();
  EXPECT_TRUE(solver.plan().delta_was_auto());
  EXPECT_GT(solver.delta(), 0.0);
  const double expected = std::max(
      stats.max_weight / std::max(1.0, stats.avg_out_degree),
      stats.min_positive_weight);
  EXPECT_DOUBLE_EQ(solver.delta(), expected);

  // Explicit delta wins.
  SolverOptions options;
  options.delta = 2.5;
  SsspSolver fixed(a, options);
  EXPECT_FALSE(fixed.plan().delta_was_auto());
  EXPECT_DOUBLE_EQ(fixed.delta(), 2.5);

  // Auto-delta answers are still correct.
  const auto result = solver.solve(0);
  const auto report = validate_sssp(a, 0, result.dist);
  EXPECT_TRUE(report.ok) << report.message;
}

TEST(GraphPlan, SetupPaidOncePerPlanNotPerSolve) {
  const auto a = weighted_test_graph(500, 2000, 7);
  SsspSolver solver(a);
  const double setup_after_build = solver.plan().setup_seconds();
  EXPECT_GT(setup_after_build, 0.0);
  for (int k = 0; k < 3; ++k) (void)solver.solve(0);
  EXPECT_EQ(solver.plan().setup_seconds(), setup_after_build);
}

TEST(GraphPlan, OneSplitServesCsrAndMatrixReaders) {
  GraphPlan plan(weighted_test_graph(), 1.0);
  const dsg::detail::LightHeavySplit& s = plan.light_heavy();
  ASSERT_GT(s.light_ind.size(), 0u);
  ASSERT_GT(s.heavy_ind.size(), 0u);
  expect_one_split(plan);
}

// Fig. 2's split at Fig. 3's configuration: with unit weights and Δ = 1,
// A_L = A ∘ (0 < A <= Δ) is A, so the plan shares A instead of copying
// it; with Δ below every weight, A_H is A.  A mixed graph, or one
// zero-weight edge (which belongs to neither half), still gets two built
// halves.  Every registry entry answers with Dijkstra's bits on all four.
TEST(GraphPlan, SplitSharesAWhenOneHalfHoldsEveryEdge) {
  auto unit = generate_connected_random(300, 900, 5);
  auto heavy = unit;
  assign_integer_weights(heavy, 2, 9, 6);
  auto mixed = unit;
  assign_integer_weights(mixed, 1, 9, 7);
  auto zero = unit;
  zero.edges()[17].weight = 0.0;
  struct Case {
    const char* name;
    const EdgeList& graph;
    double delta;
    bool light_is_a;
    bool heavy_is_a;
  };
  const Case cases[] = {{"unit", unit, 1.0, true, false},
                        {"all_heavy", heavy, 1.0, false, true},
                        {"mixed", mixed, 4.0, false, false},
                        {"one_zero_weight", zero, 1.0, false, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const GraphPlan plan(c.graph.to_matrix(), c.delta);
    const grb::Matrix<double>& a = plan.matrix();
    EXPECT_EQ(&plan.light_matrix() == &a, c.light_is_a);
    EXPECT_EQ(&plan.heavy_matrix() == &a, c.heavy_is_a);
    if (c.light_is_a) {
      EXPECT_EQ(plan.heavy_matrix().nvals(), 0u);
    } else if (c.heavy_is_a) {
      EXPECT_EQ(plan.light_matrix().nvals(), 0u);
    } else {
      EXPECT_GT(plan.light_matrix().nvals(), 0u);
    }
    expect_one_split(plan);
    plan.check_invariants();
    expect_registry_matches_dijkstra_bits(plan, 0);
  }
}

// The view's spans point into the plan's lazy cache, which a move hands
// over without relocating: a materialized, moved plan still solves.
TEST(GraphPlan, MaterializedPlanSurvivesMove) {
  const auto a = weighted_test_graph();
  const GraphPlan reference(grb::Matrix<double>(a), 1.0);
  GraphPlan original(grb::Matrix<double>(a), 1.0);
  original.light_heavy();
  GraphPlan moved(std::move(original));
  expect_one_split(moved);
  for (Algorithm algorithm : {Algorithm::kFused, Algorithm::kGraphblas}) {
    SCOPED_TRACE(sssp::algorithm_info(algorithm).name);
    EXPECT_EQ(run_registry(moved, algorithm, 0).dist,
              run_registry(reference, algorithm, 0).dist);
  }
}

// ---------------------------------------------------------------------------
// solve_with_paths.
// ---------------------------------------------------------------------------

TEST(SsspSolver, SolveWithPathsRecoversTree) {
  const auto a = diamond_graph().to_matrix();
  SsspSolver solver(a);
  const auto result = solver.solve_with_paths(0);
  expect_distances(result.dist, diamond_distances_from_0(), "paths dist");
  ASSERT_EQ(result.parent.size(), result.dist.size());
  EXPECT_EQ(result.parent[0], kNoParent);  // source
  // Every non-source reachable vertex has a tight parent edge.
  for (Index v = 1; v < result.dist.size(); ++v) {
    const Index u = result.parent[v];
    ASSERT_NE(u, kNoParent) << "vertex " << v;
    const auto w = a.extract_element(u, v);
    ASSERT_TRUE(w.has_value());
    EXPECT_NEAR(result.dist[u] + *w, result.dist[v], 1e-12);
  }
}

// ---------------------------------------------------------------------------
// v2 C API handles.
// ---------------------------------------------------------------------------

class DsgSolverCapi : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto m = diamond_graph().to_matrix();
    ASSERT_EQ(GrB_Matrix_new(&a_, m.nrows(), m.ncols()), GrB_SUCCESS);
    m.for_each([&](Index r, Index c, const double& w) {
      GrB_Matrix_setElement_FP64(a_, w, r, c);
    });
  }
  void TearDown() override { GrB_Matrix_free(&a_); }
  GrB_Matrix a_ = nullptr;
};

TEST_F(DsgSolverCapi, SolveAndBatchMatchReference) {
  DsgSolver solver = nullptr;
  ASSERT_EQ(DsgSolver_new(&solver, a_, DSG_SSSP_FUSED, 1.0), GrB_SUCCESS);

  GrB_Index n = 0;
  ASSERT_EQ(DsgSolver_nrows(&n, solver), GrB_SUCCESS);
  ASSERT_EQ(n, 5u);
  double delta = 0.0;
  ASSERT_EQ(DsgSolver_delta(&delta, solver), GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(delta, 1.0);
  const char* name = nullptr;
  ASSERT_EQ(DsgSolver_algorithm_name(&name, solver), GrB_SUCCESS);
  EXPECT_STREQ(name, "fused");

  const auto want = diamond_distances_from_0();
  std::vector<double> dist(n, -1.0);
  ASSERT_EQ(DsgSolver_solve(solver, 0, dist.data()), GrB_SUCCESS);
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_NEAR(dist[v], want[v], 1e-12) << "vertex " << v;
  }

  // Batch (with a duplicate source) equals per-source solves.
  const GrB_Index sources[] = {0, 2, 0};
  std::vector<double> batch(3 * n, -1.0);
  ASSERT_EQ(DsgSolver_solve_batch(solver, sources, 3, batch.data()),
            GrB_SUCCESS);
  for (std::size_t k = 0; k < 3; ++k) {
    std::vector<double> single(n);
    ASSERT_EQ(DsgSolver_solve(solver, sources[k], single.data()),
              GrB_SUCCESS);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(batch[k * n + v], single[v]) << "query " << k;
    }
  }

  ASSERT_EQ(DsgSolver_free(&solver), GrB_SUCCESS);
  EXPECT_EQ(solver, nullptr);
}

TEST_F(DsgSolverCapi, AutoDeltaSentinel) {
  DsgSolver solver = nullptr;
  ASSERT_EQ(DsgSolver_new(&solver, a_, DSG_SSSP_FUSED, DSG_SSSP_DELTA_AUTO),
            GrB_SUCCESS);
  double delta = 0.0;
  ASSERT_EQ(DsgSolver_delta(&delta, solver), GrB_SUCCESS);
  EXPECT_GT(delta, 0.0);
  DsgSolver_free(&solver);
}

TEST_F(DsgSolverCapi, ErrorCodesNotExceptions) {
  DsgSolver solver = nullptr;
  EXPECT_EQ(DsgSolver_new(nullptr, a_, DSG_SSSP_FUSED, 1.0),
            GrB_NULL_POINTER);
  EXPECT_EQ(DsgSolver_new(&solver, nullptr, DSG_SSSP_FUSED, 1.0),
            GrB_NULL_POINTER);
  EXPECT_EQ(DsgSolver_new(&solver, a_, static_cast<DsgSsspAlgorithm>(99), 1.0),
            GrB_INVALID_VALUE);

  // Non-square graph: error code at plan time, no exception escapes.
  GrB_Matrix rect = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&rect, 2, 3), GrB_SUCCESS);
  EXPECT_EQ(DsgSolver_new(&solver, rect, DSG_SSSP_FUSED, 1.0),
            GrB_DIMENSION_MISMATCH);
  GrB_Matrix_free(&rect);

  // Negative weight: GrB_INVALID_VALUE.
  GrB_Matrix neg = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&neg, 2, 2), GrB_SUCCESS);
  GrB_Matrix_setElement_FP64(neg, -1.0, 0, 1);
  EXPECT_EQ(DsgSolver_new(&solver, neg, DSG_SSSP_FUSED, 1.0),
            GrB_INVALID_VALUE);
  GrB_Matrix_free(&neg);

  // Non-finite Δ: GrB_INVALID_VALUE, for every algorithm.
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& info : sssp::algorithm_registry()) {
    for (const double delta : {inf, -inf, std::nan("")}) {
      EXPECT_EQ(DsgSolver_new(&solver, a_,
                              static_cast<DsgSsspAlgorithm>(info.id), delta),
                GrB_INVALID_VALUE)
          << "algorithm " << info.name << " delta " << delta;
      EXPECT_EQ(solver, nullptr);
    }
  }

  ASSERT_EQ(DsgSolver_new(&solver, a_, DSG_SSSP_FUSED, 1.0), GrB_SUCCESS);
  double dist[5];
  EXPECT_EQ(DsgSolver_solve(solver, 77, dist), GrB_INVALID_INDEX);
  EXPECT_EQ(DsgSolver_solve(solver, 0, nullptr), GrB_NULL_POINTER);
  const GrB_Index bad_sources[] = {0, 77};
  double batch[10];
  EXPECT_EQ(DsgSolver_solve_batch(solver, bad_sources, 2, batch),
            GrB_INVALID_INDEX);
  DsgSolver_free(&solver);

  // Snapshot semantics: mutating the matrix after planning is harmless.
  ASSERT_EQ(DsgSolver_new(&solver, a_, DSG_SSSP_DIJKSTRA, 1.0), GrB_SUCCESS);
  GrB_Matrix_clear(a_);
  ASSERT_EQ(DsgSolver_solve(solver, 0, dist), GrB_SUCCESS);
  const auto want = diamond_distances_from_0();
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_NEAR(dist[v], want[v], 1e-12);
  }
  DsgSolver_free(&solver);
}

}  // namespace
}  // namespace dsg::test
