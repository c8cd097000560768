// Unit tests for weight models and graph statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"

namespace {

using dsg::EdgeList;
using grb::Index;

TEST(Weights, UnitSetsEverythingToOne) {
  auto g = dsg::generate_erdos_renyi(50, 200, 1);
  dsg::assign_uniform_weights(g, 2.0, 9.0, 1);
  dsg::assign_unit_weights(g);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.weight, 1.0);
}

TEST(Weights, UniformStaysInRange) {
  auto g = dsg::generate_erdos_renyi(50, 300, 2);
  dsg::assign_uniform_weights(g, 0.5, 3.5, 2);
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.weight, 0.5);
    EXPECT_LT(e.weight, 3.5);
  }
}

TEST(Weights, UniformIsSymmetricConsistent) {
  auto g = dsg::generate_grid2d(6, 6);  // symmetric structure
  dsg::assign_uniform_weights(g, 0.1, 5.0, 3);
  EXPECT_TRUE(g.is_symmetric());  // (u,v) and (v,u) share a weight
}

TEST(Weights, OneDrawPerPairInFirstEdgeOrder) {
  // Unsorted, with a repeated edge and both directions of each pair.
  EdgeList g(5);
  g.add_edge(3, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 0);
  g.add_edge(4, 1);
  g.add_edge(3, 1);
  g.add_edge(1, 4);
  dsg::assign_integer_weights(g, 1, 1000, 11);
  // Pairs {1,3}, {0,2}, {1,4} draw in the order of their first edges.
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> uni(1, 1000);
  const double d13 = uni(rng), d02 = uni(rng), d14 = uni(rng);
  std::vector<double> got;
  for (const auto& e : g.edges()) got.push_back(e.weight);
  EXPECT_EQ(got, (std::vector<double>{d13, d02, d13, d02, d14, d13, d14}));
}

TEST(Weights, IntegerRange) {
  auto g = dsg::generate_erdos_renyi(30, 100, 4);
  dsg::assign_integer_weights(g, 1, 4, 4);
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.weight, 1.0);
    EXPECT_LE(e.weight, 4.0);
    EXPECT_DOUBLE_EQ(e.weight, std::round(e.weight));
  }
}

TEST(Weights, ExponentialIsPositiveAndHeavyTailed) {
  auto g = dsg::generate_erdos_renyi(100, 2000, 5);
  dsg::assign_exponential_weights(g, 4.0, 5);
  double min_w = 1e18, max_w = 0;
  for (const auto& e : g.edges()) {
    EXPECT_GT(e.weight, 0.0);
    min_w = std::min(min_w, e.weight);
    max_w = std::max(max_w, e.weight);
  }
  EXPECT_GT(max_w / min_w, 10.0);  // spans more than a decade
}

TEST(Weights, DeterministicPerSeed) {
  auto a = dsg::generate_erdos_renyi(30, 100, 6);
  auto b = a;
  dsg::assign_uniform_weights(a, 0.0, 1.0, 42);
  dsg::assign_uniform_weights(b, 0.0, 1.0, 42);
  EXPECT_EQ(a, b);
}

// --- stats. -------------------------------------------------------------------

TEST(Stats, OutDegrees) {
  EdgeList g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(2, 1);
  auto deg = dsg::out_degrees(g);
  EXPECT_EQ(deg, (std::vector<Index>{2, 0, 1}));
}

TEST(Stats, ComponentSizesDescending) {
  EdgeList g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  auto sizes = dsg::component_sizes(g);
  EXPECT_EQ(sizes, (std::vector<Index>{3, 2, 1}));
}

TEST(Stats, ComponentsAreWeaklyConnected) {
  // Directed edge only: still one component weakly.
  EdgeList g(2);
  g.add_edge(1, 0);
  auto sizes = dsg::component_sizes(g);
  EXPECT_EQ(sizes.size(), 1u);
}

TEST(Stats, BfsLevels) {
  auto g = dsg::generate_path(5);
  auto levels = dsg::bfs_levels(g, 2);
  EXPECT_EQ(levels[2], 0u);
  EXPECT_EQ(levels[0], 2u);
  EXPECT_EQ(levels[4], 2u);
}

TEST(Stats, BfsUnreachableIsMax) {
  EdgeList g(3);
  g.add_edge(0, 1);
  auto levels = dsg::bfs_levels(g, 0);
  EXPECT_EQ(levels[2], std::numeric_limits<Index>::max());
}

TEST(Stats, ComputeStatsBlock) {
  auto g = dsg::generate_grid2d(4, 4);
  dsg::assign_uniform_weights(g, 1.0, 2.0, 7);
  auto s = dsg::compute_stats(g);
  EXPECT_EQ(s.num_vertices, 16u);
  EXPECT_EQ(s.num_edges, g.num_edges());
  EXPECT_EQ(s.min_degree, 2u);  // corners
  EXPECT_EQ(s.max_degree, 4u);  // interior
  EXPECT_EQ(s.num_components, 1u);
  EXPECT_EQ(s.largest_component, 16u);
  EXPECT_EQ(s.bfs_ecc_from_zero, 6u);
  EXPECT_GE(s.min_weight, 1.0);
  EXPECT_LT(s.max_weight, 2.0);
}

TEST(Stats, FormatMentionsKeyNumbers) {
  auto g = dsg::generate_path(3);
  auto str = dsg::format_stats(dsg::compute_stats(g));
  EXPECT_NE(str.find("|V|=3"), std::string::npos);
  EXPECT_NE(str.find("comps=1"), std::string::npos);
}

TEST(Stats, EmptyGraph) {
  EdgeList g;
  auto s = dsg::compute_stats(g);
  EXPECT_EQ(s.num_vertices, 0u);
  EXPECT_EQ(s.num_edges, 0u);
}

}  // namespace
