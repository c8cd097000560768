// Integration tests: the full benchmark-suite graphs run through every
// implementation and must agree, with plausible instrumentation — the same
// configuration (unit weights, Δ=1, symmetric graphs) as the paper's
// evaluation.
#include <gtest/gtest.h>

#include "bench_support/suite.hpp"
#include "graph/stats.hpp"
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

TEST(SuiteParity, PhaseCountsAgreeAcrossAlgebraicVariants) {
  // The GraphBLAS and fused implementations run the same abstract
  // algorithm, so bucket/phase counts must match exactly.
  auto suite = dsg::quick_suite(3);
  for (const auto& entry : suite) {
    const dsg::GraphPlan plan(entry.make().to_matrix(), 1.0);
    auto r_gb = dsg::test::run_registry(plan, Algorithm::kGraphblas, 0);
    auto r_fused = dsg::test::run_registry(plan, Algorithm::kFused, 0);
    EXPECT_EQ(r_gb.stats.outer_iterations, r_fused.stats.outer_iterations)
        << entry.name;
    EXPECT_EQ(r_gb.stats.light_phases, r_fused.stats.light_phases)
        << entry.name;
  }
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
