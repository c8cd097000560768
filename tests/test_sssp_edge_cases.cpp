// Edge cases and failure injection for the SSSP entry points (GraphPlan /
// SsspSolver and the Dijkstra oracle): input validation, extreme deltas,
// extreme structures, numeric extremes.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#if defined(DSG_HAVE_OPENMP)
#include <omp.h>
#endif

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "test_support.hpp"

namespace {

using dsg::EdgeList;
using dsg::kInfDist;
using dsg::sssp::Algorithm;
using dsg::sssp::SsspSolver;
using grb::Index;

grb::Matrix<double> tiny() {
  EdgeList g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  return g.to_matrix();
}

/// One-shot solve through the solver (one plan per call).
dsg::SsspResult solve(const grb::Matrix<double>& a, Index source,
                      Algorithm algorithm, double delta = 1.0) {
  return SsspSolver(a, {.algorithm = algorithm, .delta = delta}).solve(source);
}

TEST(InputValidation, NonSquareMatrixRejected) {
  grb::Matrix<double> a(2, 3);
  EXPECT_THROW(dsg::GraphPlan{a}, grb::DimensionMismatch);
  EXPECT_THROW(SsspSolver{a}, grb::DimensionMismatch);
  EXPECT_THROW(dsg::dijkstra(a, 0), grb::DimensionMismatch);
}

TEST(InputValidation, EmptyGraphRejected) {
  grb::Matrix<double> a(0, 0);
  EXPECT_THROW(dsg::GraphPlan{a}, grb::InvalidValue);
  EXPECT_THROW(SsspSolver{a}, grb::InvalidValue);
  EXPECT_THROW(dsg::dijkstra(a, 0), grb::InvalidValue);
}

TEST(InputValidation, SourceOutOfRangeRejected) {
  SsspSolver solver(tiny(), {.algorithm = Algorithm::kGraphblas});
  EXPECT_THROW(solver.solve(3), grb::IndexOutOfBounds);
  SsspSolver buckets(tiny(), {.algorithm = Algorithm::kBuckets});
  EXPECT_THROW(buckets.solve(99), grb::IndexOutOfBounds);
  EXPECT_THROW(dsg::dijkstra(tiny(), 3), grb::IndexOutOfBounds);
}

TEST(InputValidation, NegativeWeightRejected) {
  EdgeList g(2);
  g.add_edge(0, 1, -1.0);
  auto a = g.to_matrix();
  EXPECT_THROW(dsg::GraphPlan{a}, grb::InvalidValue);
  for (const auto& info : dsg::sssp::algorithm_registry()) {
    SCOPED_TRACE(info.name);
    EXPECT_THROW(SsspSolver(a, {.algorithm = info.id}), grb::InvalidValue);
  }
  EXPECT_THROW(dsg::dijkstra(a, 0), grb::InvalidValue);
}

TEST(InputValidation, NonFiniteWeightRejectedByOracle) {
  // The oracle applies the same strict check as GraphPlan: a plain
  // (w < 0) test would wave NaN through into the relaxation loop.
  for (const double w : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    EdgeList g(3);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 2, w);
    auto a = g.to_matrix();
    EXPECT_THROW(dsg::dijkstra(a, 0), grb::InvalidValue) << "w=" << w;
    EXPECT_THROW(dsg::GraphPlan{a}, grb::InvalidValue) << "w=" << w;
  }
}

TEST(EdgeCases, IsolatedSourceVertex) {
  EdgeList g(3);
  g.add_edge(1, 2, 1.0);
  auto r = solve(g.to_matrix(), 0, Algorithm::kGraphblas);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_EQ(r.dist[1], kInfDist);
  EXPECT_EQ(r.dist[2], kInfDist);
}

TEST(EdgeCases, SinkOnlySource) {
  // Source has only incoming edges.
  EdgeList g(3);
  g.add_edge(1, 0, 1.0);
  g.add_edge(2, 0, 1.0);
  auto r = solve(g.to_matrix(), 0, Algorithm::kFused);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_EQ(r.dist[1], kInfDist);
}

TEST(EdgeCases, ZeroWeightEdgesAreExcludedFromLightSet) {
  // The formulation A_L = A ∘ (0 < A <= Δ) excludes explicit zeros;
  // with heavy also requiring w > Δ, zero-weight edges vanish entirely.
  // Document this contract: zero-weight edges are not traversed by the
  // linear-algebraic delta-stepping (the paper's graphs have unit weights).
  EdgeList g(3);
  g.add_edge(0, 1, 0.0);
  g.add_edge(1, 2, 1.0);
  auto r = solve(g.to_matrix(), 0, Algorithm::kGraphblas);
  EXPECT_EQ(r.dist[1], kInfDist);  // 0-weight edge not in A_L nor A_H
  // Dijkstra (not delta-split) does traverse it:
  auto rd = dsg::dijkstra(g.to_matrix(), 0);
  EXPECT_DOUBLE_EQ(rd.dist[1], 0.0);
  EXPECT_DOUBLE_EQ(rd.dist[2], 1.0);
}

TEST(EdgeCases, TinyDeltaManyEmptyBuckets) {
  auto a = tiny();
  // Δ = 0.125: distances 0,1,2 -> buckets 0,8,16.
  auto r = solve(a, 0, Algorithm::kFused, 0.125);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  EXPECT_GE(r.stats.outer_iterations, 3u);
}

TEST(EdgeCases, HugeDeltaSingleBucket) {
  auto a = tiny();
  auto r = solve(a, 0, Algorithm::kGraphblas, 1e12);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  EXPECT_EQ(r.stats.outer_iterations, 1u);
}

TEST(EdgeCases, DeltaEqualToWeightBoundary) {
  // w == delta goes to the light set (<=); verify boundary handling across
  // every variant via the shared parity table.
  EdgeList g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 2.0);
  DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(), g.to_matrix(), 0,
                        2.0);
}

TEST(EdgeCases, DistanceExactlyOnBucketBoundary) {
  // tent(v) == i*delta must land in bucket i (closed-below interval).
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  auto r = solve(g.to_matrix(), 0, Algorithm::kGraphblas, 1.0);
  EXPECT_DOUBLE_EQ(r.dist[3], 3.0);
}

TEST(EdgeCases, VeryLargeWeights) {
  EdgeList g(3);
  g.add_edge(0, 1, 1e15);
  g.add_edge(1, 2, 1e15);
  auto r = solve(g.to_matrix(), 0, Algorithm::kBuckets, 1e14);
  EXPECT_DOUBLE_EQ(r.dist[2], 2e15);
}

TEST(EdgeCases, DenseCompleteGraph) {
  auto g = dsg::generate_complete(30);
  dsg::assign_uniform_weights(g, 0.5, 2.0, 3);
  DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(), g.to_matrix(), 0,
                        0.7);
}

TEST(EdgeCases, StarGraphSingleHub) {
  auto g = dsg::generate_star(500);
  dsg::assign_unit_weights(g);
  auto r = solve(g.to_matrix(), 0, Algorithm::kGraphblas);
  for (Index v = 1; v < 500; ++v) EXPECT_DOUBLE_EQ(r.dist[v], 1.0);
  // From a leaf: everything is at most 2.
  auto r2 = solve(g.to_matrix(), 7, Algorithm::kFused);
  EXPECT_DOUBLE_EQ(r2.dist[0], 1.0);
  EXPECT_DOUBLE_EQ(r2.dist[8], 2.0);
}

TEST(EdgeCases, OpenMpThreadCountVariants) {
  auto g = dsg::generate_connected_random(200, 300, 5);
  dsg::assign_uniform_weights(g, 0.1, 2.0, 6);
  g.normalize();
  auto a = g.to_matrix();
  auto ref = dsg::dijkstra(a, 0);
  const dsg::GraphPlan plan(grb::Matrix<double>(a), 0.5);
  // 3 threads chunk the vector passes unevenly.
  for (int threads : {1, 2, 3, 4, 8}) {
    dsg::ExecOptions exec;
    exec.num_threads = threads;
    auto r = dsg::test::run_registry(plan, Algorithm::kOpenmp, 0, exec);
    auto cmp = dsg::compare_distances(ref.dist, r.dist);
    EXPECT_TRUE(cmp.ok) << threads << " threads: " << cmp.message;
  }
}

#if defined(DSG_HAVE_OPENMP)
// exec.num_threads sizes the solve's own team; the calling thread's OpenMP
// default for its later parallel regions must not change.
TEST(EdgeCases, OpenMpThreadCountDoesNotLeakIntoCaller) {
  auto g = dsg::generate_grid2d(20, 20);
  const dsg::GraphPlan plan(g.to_matrix(), 1.0);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(3);
  dsg::ExecOptions exec;
  exec.num_threads = 2;
  (void)dsg::test::run_registry(plan, Algorithm::kOpenmp, 0, exec);
  const int after = omp_get_max_threads();
  omp_set_num_threads(saved);
  EXPECT_EQ(after, 3);
}
#endif

TEST(EdgeCases, RepeatedRunsAreDeterministic) {
  auto g = dsg::generate_rmat({.scale = 7, .edge_factor = 5, .seed = 2});
  g.symmetrize();
  dsg::assign_unit_weights(g);
  g.normalize();
  auto a = g.to_matrix();
  auto r1 = solve(a, 0, Algorithm::kGraphblas);
  auto r2 = solve(a, 0, Algorithm::kGraphblas);
  EXPECT_EQ(r1.dist, r2.dist);
  EXPECT_EQ(r1.stats.light_phases, r2.stats.light_phases);
}

TEST(EdgeCases, ProfileFlagPopulatesTimers) {
  auto g = dsg::generate_grid2d(30, 30);
  dsg::sssp::SolverOptions options;
  options.delta = 1.0;
  options.exec.profile = true;
  SsspSolver solver(g.to_matrix(), options);
  auto r = solver.solve(0);
  // Setup is paid (and timed) once by the plan, never per solve.
  EXPECT_GT(solver.plan().setup_seconds(), 0.0);
  EXPECT_GT(r.stats.light_seconds + r.stats.vector_seconds, 0.0);
}

}  // namespace
