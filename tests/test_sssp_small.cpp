// Hand-computed SSSP instances exercised against every implementation,
// via the shared fixture layer in test_support.hpp.
#include <gtest/gtest.h>

#include "graph/edge_list.hpp"
#include "sssp/paths.hpp"
#include "test_support.hpp"

namespace {

using dsg::EdgeList;
using dsg::kInfDist;
using dsg::test::Impl;
using grb::Index;

class AllImpls : public ::testing::TestWithParam<Impl> {};

INSTANTIATE_TEST_SUITE_P(Sssp, AllImpls,
                         ::testing::ValuesIn(dsg::test::all_sssp_impls()),
                         [](const auto& param_info) {
                           return param_info.param.name;
                         });

TEST_P(AllImpls, DiamondDigraph) {
  auto r = GetParam().run(dsg::test::diamond_graph().to_matrix(), 0, 3.0);
  dsg::test::expect_distances(r.dist, dsg::test::diamond_distances_from_0(),
                              GetParam().name);
}

TEST_P(AllImpls, DiamondFromOtherSource) {
  auto r = GetParam().run(dsg::test::diamond_graph().to_matrix(), 3, 2.0);
  dsg::test::expect_distances(r.dist, {9.0, 3.0, 4.0, 0.0, 2.0},
                              GetParam().name);
}

TEST_P(AllImpls, UnweightedPathGraphCountsHops) {
  auto r = GetParam().run(dsg::test::path_graph(6).to_matrix(), 0, 1.0);
  dsg::test::expect_distances(r.dist, dsg::test::path_distances_from_0(6),
                              GetParam().name);
}

TEST_P(AllImpls, DisconnectedComponentStaysInfinite) {
  auto r = GetParam().run(dsg::test::two_islands_graph().to_matrix(), 0, 1.0);
  dsg::test::expect_distances(
      r.dist, dsg::test::two_islands_distances_from_0(), GetParam().name);
}

TEST_P(AllImpls, ShorterLongRouteBeatsDirectEdge) {
  // Direct heavy edge 0->2 (10) loses to the two-hop light route (3).
  EdgeList g(3);
  g.add_edge(0, 2, 10.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  auto r = GetParam().run(g.to_matrix(), 0, 2.5);
  EXPECT_DOUBLE_EQ(r.dist[2], 3.0);
}

TEST_P(AllImpls, SingleVertexGraph) {
  EdgeList g(1);
  auto r = GetParam().run(g.to_matrix(), 0, 1.0);
  ASSERT_EQ(r.dist.size(), 1u);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
}

TEST_P(AllImpls, TwoVertexBothDirections) {
  EdgeList g(2);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 0, 0.5);
  auto r = GetParam().run(g.to_matrix(), 1, 1.0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.5);
  EXPECT_DOUBLE_EQ(r.dist[1], 0.0);
}

TEST_P(AllImpls, ZigzagRequiresReintroduction) {
  // Classic delta-stepping stress: improving a vertex within the same
  // bucket multiple times (light edge chains inside one bucket).
  auto r = GetParam().run(dsg::test::zigzag_graph().to_matrix(), 0, 1.0);
  dsg::test::expect_distances(r.dist, dsg::test::zigzag_distances_from_0(),
                              GetParam().name);
}

// --- Shortest-path tree. -----------------------------------------------------

TEST(Dijkstra, ParentsFormShortestPathTree) {
  dsg::sssp::SsspSolver solver(
      dsg::test::diamond_graph().to_matrix(),
      {.algorithm = dsg::sssp::Algorithm::kDijkstra});
  const auto r = solver.solve_with_paths(0);
  const auto& parent = r.parent;
  EXPECT_EQ(parent[0], dsg::kNoParent);
  EXPECT_EQ(parent[3], 0u);
  EXPECT_EQ(parent[1], 3u);  // 0->3->1 = 8 beats 0->1 = 10
  EXPECT_EQ(parent[2], 1u);
  EXPECT_EQ(parent[4], 3u);
  // Tree edges are tight.
  const auto& a = solver.plan().matrix();
  for (Index v = 1; v < 5; ++v) {
    auto w = a.extract_element(parent[v], v);
    ASSERT_TRUE(w.has_value());
    EXPECT_DOUBLE_EQ(r.dist[parent[v]] + *w, r.dist[v]);
  }
}

// --- Stats plumbing. ----------------------------------------------------------

TEST(SsspStats, BucketsCountedOnPathGraph) {
  EdgeList g(5);
  for (Index v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 1.0);
  dsg::sssp::SsspSolver solver(g.to_matrix(), {.delta = 1.0});
  auto r = solver.solve(0);
  // Distances 0..4 with delta 1 -> 5 buckets processed.
  EXPECT_EQ(r.stats.outer_iterations, 5u);
  EXPECT_GE(r.stats.light_phases, 5u);
}

TEST(SsspStats, SingleBucketWhenDeltaHuge) {
  EdgeList g(5);
  for (Index v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1, 1.0);
  // Bellman-Ford regime: one bucket, many phases.
  dsg::sssp::SsspSolver solver(g.to_matrix(), {.delta = 1000.0});
  auto r = solver.solve(0);
  EXPECT_EQ(r.stats.outer_iterations, 1u);
  EXPECT_GE(r.stats.light_phases, 4u);
}

}  // namespace
