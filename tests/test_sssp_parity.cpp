// Integration tests: the full benchmark-suite graphs run through every
// implementation and must agree, with plausible instrumentation — the same
// configuration (unit weights, Δ=1, symmetric graphs) as the paper's
// evaluation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "bench_support/suite.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "test_support.hpp"

namespace {

using dsg::sssp::Algorithm;
using grb::Index;

TEST(Suite, IsSortedByAscendingNodeCount) {
  auto suite = dsg::benchmark_suite();
  ASSERT_GE(suite.size(), 5u);
  Index prev = 0;
  for (const auto& entry : suite) {
    auto g = entry.make();
    EXPECT_GE(g.num_vertices(), prev) << entry.name;
    prev = g.num_vertices();
  }
}

TEST(Suite, GraphsAreSymmetricSimpleUnitWeighted) {
  // The paper: "input data are symmetric and undirected graphs with unit
  // edge weights".
  for (const auto& entry : dsg::quick_suite(5)) {
    auto g = entry.make();
    EXPECT_TRUE(g.is_symmetric()) << entry.name;
    for (const auto& e : g.edges()) {
      EXPECT_NE(e.src, e.dst) << entry.name << ": self loop";
      EXPECT_DOUBLE_EQ(e.weight, 1.0) << entry.name;
    }
  }
}

TEST(Suite, QuickSuiteIsPrefix) {
  auto full = dsg::benchmark_suite();
  auto quick = dsg::quick_suite(3);
  ASSERT_EQ(quick.size(), 3u);
  for (std::size_t k = 0; k < quick.size(); ++k) {
    EXPECT_EQ(quick[k].name, full[k].name);
  }
}

TEST(Suite, WeightedSuiteHasRealWeights) {
  auto weighted = dsg::weighted_suite(0.5, 2.5);
  auto g = weighted.front().make();
  bool any_non_unit = false;
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.weight, 0.5);
    EXPECT_LT(e.weight, 2.5);
    if (e.weight != 1.0) any_non_unit = true;
  }
  EXPECT_TRUE(any_non_unit);
}

class SuiteParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SuiteParity, AllImplementationsAgreeOnSuiteGraph) {
  auto suite = dsg::quick_suite(4);  // keep runtime bounded
  const auto& entry = suite[GetParam()];
  SCOPED_TRACE(entry.name);
  // delta = 1 is the paper's setting for the unit-weight suite graphs.
  DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(),
                        entry.make().to_matrix(), 0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Graphs, SuiteParity,
                         ::testing::Values(0u, 1u, 2u, 3u),
                         [](const auto& param_info) {
                           // gtest parameter names must be [A-Za-z0-9_].
                           std::string name =
                               dsg::quick_suite(4)[param_info.param].name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// `openmp` runs fused's own loop with its vector passes cut into tasks, so
// at every team size its distances are fused's bit for bit and its
// counters equal fused's.
void expect_openmp_matches_fused(const dsg::GraphPlan& plan,
                                 const dsg::SsspResult& fused) {
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("openmp threads=" + std::to_string(threads));
    dsg::ExecOptions exec;
    exec.num_threads = threads;
    const auto r = dsg::test::run_registry(plan, Algorithm::kOpenmp, 0, exec);
    ASSERT_EQ(r.dist.size(), fused.dist.size());
    EXPECT_EQ(std::memcmp(r.dist.data(), fused.dist.data(),
                          fused.dist.size() * sizeof(double)),
              0);
    EXPECT_EQ(r.stats.outer_iterations, fused.stats.outer_iterations);
    EXPECT_EQ(r.stats.light_phases, fused.stats.light_phases);
    EXPECT_EQ(r.stats.relax_requests, fused.stats.relax_requests);
  }
}

TEST(SuiteParity, PhaseCountsAgreeAcrossAlgebraicVariants) {
  // The GraphBLAS and fused implementations run the same abstract
  // algorithm, so bucket/phase counts must match exactly.
  auto suite = dsg::quick_suite(3);
  for (const auto& entry : suite) {
    SCOPED_TRACE(entry.name);
    const dsg::GraphPlan plan(entry.make().to_matrix(), 1.0);
    auto r_gb = dsg::test::run_registry(plan, Algorithm::kGraphblas, 0);
    auto r_fused = dsg::test::run_registry(plan, Algorithm::kFused, 0);
    EXPECT_EQ(r_gb.stats.outer_iterations, r_fused.stats.outer_iterations);
    EXPECT_EQ(r_gb.stats.light_phases, r_fused.stats.light_phases);
    expect_openmp_matches_fused(plan, r_fused);
  }

  // The suite graphs are too small for a vector pass to be split (a task
  // owns at least 2^15 elements).  70000 vertices split into 2 tasks at 2
  // threads and 3 at 4; weights in [0.5, 2.5) against Δ = 1 give the heavy
  // pass work too.
  SCOPED_TRACE("smallworld-70k-w");
  auto g = dsg::generate_small_world(70000, 4, 0.1, 7);
  g.symmetrize();
  g.normalize();
  dsg::assign_uniform_weights(g, 0.5, 2.5, 3);
  const dsg::GraphPlan plan(g.to_matrix(), 1.0);
  expect_openmp_matches_fused(
      plan, dsg::test::run_registry(plan, Algorithm::kFused, 0));
}

TEST(SuiteParity, UnitWeightDeltaOneBucketsEqualBfsDepth) {
  // With unit weights and Δ=1, bucket i holds exactly the BFS level-i
  // frontier, so the number of processed buckets equals ecc(source)+1.
  auto suite = dsg::quick_suite(3);
  for (const auto& entry : suite) {
    auto g = entry.make();
    auto levels = dsg::bfs_levels(g, 0);
    Index ecc = 0;
    for (auto l : levels) {
      if (l != std::numeric_limits<Index>::max()) ecc = std::max(ecc, l);
    }
    auto r = dsg::sssp::SsspSolver(g.to_matrix(), {.delta = 1.0}).solve(0);
    EXPECT_EQ(r.stats.outer_iterations, ecc + 1) << entry.name;
  }
}

}  // namespace
