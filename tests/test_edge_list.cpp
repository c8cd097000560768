// Unit tests for dsg::EdgeList — normalization, symmetrization, matrix
// round trips.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "graph/edge_list.hpp"

namespace {

using dsg::EdgeList;
using grb::Index;

TEST(EdgeList, AddEdgeGrowsVertexCount) {
  EdgeList g;
  g.add_edge(0, 5, 2.0);
  EXPECT_EQ(g.num_vertices(), 6u);
  g.add_edge(9, 1);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.edges()[1].weight, 1.0);  // default weight
}

TEST(EdgeList, SymmetrizeAddsReverses) {
  EdgeList g(3);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 2, 3.5);
  g.symmetrize();
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.is_symmetric());
}

TEST(EdgeList, SymmetrizeSkipsSelfLoops) {
  EdgeList g(2);
  g.add_edge(1, 1, 9.0);
  g.symmetrize();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeList, NormalizeRemovesSelfLoopsAndDedupsByMin) {
  EdgeList g(3);
  g.add_edge(0, 0, 1.0);  // self loop: dropped (paper: empty diagonal)
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 3.0);  // duplicate: min weight wins
  g.add_edge(2, 1, 4.0);
  g.normalize();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 3.0);
}

TEST(EdgeList, NormalizeSortsEdges) {
  EdgeList g(4);
  g.add_edge(3, 0);
  g.add_edge(0, 2);
  g.add_edge(0, 1);
  g.normalize();
  EXPECT_EQ(g.edges()[0].dst, 1u);
  EXPECT_EQ(g.edges()[1].dst, 2u);
  EXPECT_EQ(g.edges()[2].src, 3u);
}

TEST(EdgeList, IsSymmetricRequiresMatchingWeights) {
  EdgeList g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 2.0);  // reverse exists but weight differs
  EXPECT_FALSE(g.is_symmetric());
}

TEST(EdgeList, ToMatrixPlacesWeights) {
  EdgeList g(3);
  g.add_edge(0, 1, 1.5);
  g.add_edge(2, 0, 2.5);
  auto a = g.to_matrix();
  EXPECT_EQ(a.nrows(), 3u);
  EXPECT_EQ(a.nvals(), 2u);
  EXPECT_DOUBLE_EQ(*a.extract_element(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(*a.extract_element(2, 0), 2.5);
}

TEST(EdgeList, ToMatrixDuplicatesKeepMin) {
  EdgeList g(2);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);
  auto a = g.to_matrix();
  EXPECT_DOUBLE_EQ(*a.extract_element(0, 1), 2.0);
}

// to_matrix feeds its edges straight into the CSR builder; the result
// must be bit for bit what Matrix::build makes of the same triples
// (duplicates and signed-zero ties included, combined by min).
TEST(EdgeList, ToMatrixEqualsBuildOverTheSameTriples) {
  std::mt19937_64 rng(7);
  EdgeList g(30);
  const double pool[] = {0.0, -0.0, 1.0, 3.5, 2.0};
  for (int k = 0; k < 600; ++k) {
    g.add_edge(rng() % 30, rng() % 30, pool[rng() % std::size(pool)]);
  }
  std::vector<Index> rows, cols;
  std::vector<double> vals;
  for (const dsg::Edge& e : g.edges()) {
    rows.push_back(e.src);
    cols.push_back(e.dst);
    vals.push_back(e.weight);
  }
  const auto a = g.to_matrix();
  const auto b = grb::Matrix<double>::build(30, 30, rows, cols, vals,
                                            grb::Min<double>{});
  ASSERT_EQ(a, b);
  for (Index k = 0; k < a.nvals(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.raw_values()[k]),
              std::bit_cast<std::uint64_t>(b.raw_values()[k]))
        << "entry " << k;
  }
}

TEST(EdgeList, ToMatrixRejectsOutOfRangeEndpoint) {
  const EdgeList g(3, {{0, 1, 1.0}, {1, 5, 1.0}});
  EXPECT_THROW(g.to_matrix(), grb::IndexOutOfBounds);
}

TEST(EdgeList, MatrixRoundTrip) {
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(3, 0, 3.0);
  g.normalize();
  auto back = EdgeList::from_matrix(g.to_matrix());
  EXPECT_EQ(back, g);
}

TEST(EdgeList, MaxVertexPlusOne) {
  EdgeList g(100);  // declared larger than used
  g.add_edge(3, 7);
  EXPECT_EQ(g.max_vertex_plus_one(), 8u);
  EXPECT_EQ(g.num_vertices(), 100u);  // declared count unchanged
}

TEST(EdgeList, EmptyGraphToMatrix) {
  EdgeList g(5);
  auto a = g.to_matrix();
  EXPECT_EQ(a.nrows(), 5u);
  EXPECT_EQ(a.nvals(), 0u);
}

}  // namespace
