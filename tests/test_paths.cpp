// Unit tests for shortest-path tree recovery and path extraction.
#include <gtest/gtest.h>

#include "graph/edge_list.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/paths.hpp"
#include "test_support.hpp"

namespace {

using dsg::EdgeList;
using grb::Index;

grb::Matrix<double> diamond() { return dsg::test::diamond_graph().to_matrix(); }

TEST(RecoverParents, TreeEdgesAreTight) {
  auto a = diamond();
  auto r = dsg::dijkstra(a, 0);
  auto parent = dsg::recover_parents(a, 0, r.dist);
  EXPECT_EQ(parent[0], dsg::kNoParent);
  for (Index v = 1; v < 5; ++v) {
    ASSERT_NE(parent[v], dsg::kNoParent) << "vertex " << v;
    auto w = a.extract_element(parent[v], v);
    ASSERT_TRUE(w.has_value());
    EXPECT_DOUBLE_EQ(r.dist[parent[v]] + *w, r.dist[v]);
  }
}

TEST(RecoverParents, WorksOnDeltaSteppingOutput) {
  auto g = dsg::generate_connected_random(150, 300, 3);
  dsg::assign_uniform_weights(g, 0.2, 3.0, 4);
  g.normalize();
  auto a = g.to_matrix();
  auto r = dsg::sssp::SsspSolver(a, {.delta = 1.0}).solve(0);
  auto parent = dsg::recover_parents(a, 0, r.dist);
  // Following parents from any vertex reaches the source.
  for (Index v = 0; v < 150; ++v) {
    auto path = dsg::extract_path(parent, 0, v);
    ASSERT_FALSE(path.empty()) << "vertex " << v;
    EXPECT_EQ(path.front(), 0u);
    EXPECT_EQ(path.back(), v);
    EXPECT_NEAR(dsg::path_weight(a, path), r.dist[v], 1e-9);
  }
}

TEST(RecoverParents, UnreachableVerticesHaveNoParent) {
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  auto a = g.to_matrix();
  auto r = dsg::dijkstra(a, 0);
  auto parent = dsg::recover_parents(a, 0, r.dist);
  EXPECT_EQ(parent[2], dsg::kNoParent);
  EXPECT_EQ(parent[3], dsg::kNoParent);
}

TEST(RecoverParents, RejectsInvalidDistanceVector) {
  auto a = diamond();
  std::vector<double> bogus(5, 0.0);
  bogus[1] = 0.5;  // no in-edge can produce 0.5
  EXPECT_THROW(dsg::recover_parents(a, 0, bogus), grb::InvalidValue);
}

TEST(RecoverParents, RejectsNonZeroSource) {
  auto a = diamond();
  auto r = dsg::dijkstra(a, 0);
  r.dist[0] = 1.0;
  EXPECT_THROW(dsg::recover_parents(a, 0, r.dist), grb::InvalidValue);
}

TEST(RecoverParents, RejectsWrongSize) {
  auto a = diamond();
  std::vector<double> wrong(4, 0.0);
  EXPECT_THROW(dsg::recover_parents(a, 0, wrong), grb::DimensionMismatch);
}

TEST(ExtractPath, SourceToItself) {
  std::vector<Index> parent{dsg::kNoParent, 0};
  auto path = dsg::extract_path(parent, 0, 0);
  EXPECT_EQ(path, (std::vector<Index>{0}));
}

TEST(ExtractPath, SimpleChain) {
  std::vector<Index> parent{dsg::kNoParent, 0, 1, 2};
  auto path = dsg::extract_path(parent, 0, 3);
  EXPECT_EQ(path, (std::vector<Index>{0, 1, 2, 3}));
}

TEST(ExtractPath, UnreachableReturnsEmpty) {
  std::vector<Index> parent{dsg::kNoParent, 0, dsg::kNoParent};
  auto path = dsg::extract_path(parent, 0, 2);
  EXPECT_TRUE(path.empty());
}

TEST(ExtractPath, DetectsCyclicParentArray) {
  std::vector<Index> parent{dsg::kNoParent, 2, 1};  // 1 <-> 2 loop
  EXPECT_THROW(dsg::extract_path(parent, 0, 1), grb::InvalidValue);
}

TEST(ExtractPath, OutOfRangeTarget) {
  std::vector<Index> parent{dsg::kNoParent};
  EXPECT_THROW(dsg::extract_path(parent, 0, 5), grb::IndexOutOfBounds);
}

TEST(PathWeight, SumsEdges) {
  auto a = diamond();
  EXPECT_DOUBLE_EQ(dsg::path_weight(a, {0, 3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(dsg::path_weight(a, {0}), 0.0);
  EXPECT_DOUBLE_EQ(dsg::path_weight(a, {}), 0.0);
}

TEST(PathWeight, MissingEdgeThrows) {
  auto a = diamond();
  EXPECT_THROW(dsg::path_weight(a, {0, 4}), grb::InvalidValue);
}

}  // namespace
