// Property-based cross-validation: every delta-stepping variant must agree
// with Dijkstra on randomized graphs across families, weight models, deltas
// and sources, and every produced distance vector must satisfy the SSSP
// fixed-point invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "test_support.hpp"

namespace {

using dsg::sssp::Algorithm;
using dsg::sssp::SsspSolver;
using grb::Index;

enum class Family { kRmat, kErdos, kGrid, kSmallWorld, kTree };
enum class WeightModel { kUnit, kUniform, kExponential, kInteger };

struct Case {
  Family family;
  WeightModel weights;
  double delta;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const char* fam[] = {"rmat", "erdos", "grid", "smallworld", "tree"};
  const char* wm[] = {"unit", "uniform", "exp", "integer"};
  return std::string(fam[static_cast<int>(info.param.family)]) + "_" +
         wm[static_cast<int>(info.param.weights)] + "_d" +
         std::to_string(static_cast<int>(info.param.delta * 10)) + "_s" +
         std::to_string(info.param.seed);
}

dsg::EdgeList make_graph(const Case& c) {
  dsg::EdgeList g;
  switch (c.family) {
    case Family::kRmat:
      g = dsg::generate_rmat({.scale = 7, .edge_factor = 6, .seed = c.seed});
      break;
    case Family::kErdos:
      g = dsg::generate_erdos_renyi(150, 600, c.seed);
      break;
    case Family::kGrid:
      g = dsg::generate_grid2d(12, 12);
      break;
    case Family::kSmallWorld:
      g = dsg::generate_small_world(120, 3, 0.2, c.seed);
      break;
    case Family::kTree:
      g = dsg::generate_connected_random(130, 0, c.seed);
      break;
  }
  g.symmetrize();
  switch (c.weights) {
    case WeightModel::kUnit:
      dsg::assign_unit_weights(g);
      break;
    case WeightModel::kUniform:
      dsg::assign_uniform_weights(g, 0.05, 4.0, c.seed + 1);
      break;
    case WeightModel::kExponential:
      dsg::assign_exponential_weights(g, 3.0, c.seed + 1);
      break;
    case WeightModel::kInteger:
      dsg::assign_integer_weights(g, 1, 7, c.seed + 1);
      break;
  }
  g.normalize();
  return g;
}

class SsspProperty : public ::testing::TestWithParam<Case> {};

TEST_P(SsspProperty, AllVariantsMatchDijkstraAndValidate) {
  const Case c = GetParam();
  auto graph = make_graph(c);
  auto a = graph.to_matrix();
  const Index n = a.nrows();
  // A couple of sources spread across the id range; the shared table runs
  // every delta-stepping variant against the Dijkstra + structural oracle
  // (the macro validates the Dijkstra reference itself first).
  for (Index source : {Index{0}, n / 2, n - 1}) {
    SCOPED_TRACE("source " + std::to_string(source));
    DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(), a, source,
                          c.delta);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SsspProperty,
    ::testing::Values(
        Case{Family::kRmat, WeightModel::kUnit, 1.0, 11},
        Case{Family::kRmat, WeightModel::kUniform, 0.5, 12},
        Case{Family::kRmat, WeightModel::kExponential, 2.0, 13},
        Case{Family::kErdos, WeightModel::kUnit, 1.0, 21},
        Case{Family::kErdos, WeightModel::kUniform, 1.0, 22},
        Case{Family::kErdos, WeightModel::kInteger, 3.0, 23},
        Case{Family::kGrid, WeightModel::kUnit, 1.0, 31},
        Case{Family::kGrid, WeightModel::kUniform, 0.7, 32},
        Case{Family::kSmallWorld, WeightModel::kUnit, 1.0, 41},
        Case{Family::kSmallWorld, WeightModel::kExponential, 4.0, 42},
        Case{Family::kTree, WeightModel::kUniform, 1.5, 51},
        Case{Family::kTree, WeightModel::kInteger, 2.0, 52}),
    case_name);

// One non-integer weight on a symmetric pattern, the async engine's level
// rounds: every k-hop path sums left to right to the same fp value, so the
// shortest distances are exact hop levels and every registry entry must
// return Dijkstra's bits, at Δ below, at and above the weight.
struct UniformCase {
  Family family;
  double weight;
  double delta;  ///< kAutoDelta = the plan's heuristic
  std::uint64_t seed;
};

std::string uniform_case_name(
    const ::testing::TestParamInfo<UniformCase>& info) {
  const char* fam[] = {"rmat", "erdos", "grid", "smallworld", "tree"};
  return std::string(fam[static_cast<int>(info.param.family)]) + "_" +
         std::to_string(info.index);
}

class UniformProperty : public ::testing::TestWithParam<UniformCase> {};

TEST_P(UniformProperty, EveryRegistryEntryMatchesDijkstraBits) {
  const UniformCase c = GetParam();
  auto graph = make_graph({c.family, WeightModel::kUnit, c.delta, c.seed});
  for (auto& e : graph.edges()) e.weight = c.weight;
  const dsg::GraphPlan plan(graph.to_matrix(), c.delta);
  ASSERT_EQ(plan.uniform_symmetric_weight(), c.weight);
  const Index n = plan.num_vertices();
  for (Index source : {Index{0}, n / 2, n - 1}) {
    SCOPED_TRACE("source " + std::to_string(source));
    dsg::test::expect_registry_matches_dijkstra_bits(plan, source);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Weights, UniformProperty,
    ::testing::Values(UniformCase{Family::kRmat, 0.1, dsg::kAutoDelta, 61},
                      UniformCase{Family::kRmat, 0.3, 1.0, 62},
                      UniformCase{Family::kErdos, 0.7, 0.2, 63},
                      UniformCase{Family::kGrid, 0.1, dsg::kAutoDelta, 64},
                      UniformCase{Family::kSmallWorld, 2.5, 1.0, 65},
                      UniformCase{Family::kTree, 1.0 / 3.0, 2.0, 66}),
    uniform_case_name);

// Delta sweep on one fixed weighted graph: the answer must be independent
// of delta (delta only affects scheduling).
class DeltaSweep : public ::testing::TestWithParam<double> {};

TEST_P(DeltaSweep, DistancesIndependentOfDelta) {
  auto g = dsg::generate_connected_random(120, 240, 99);
  dsg::assign_uniform_weights(g, 0.1, 6.0, 100);
  g.normalize();
  SCOPED_TRACE("delta=" + std::to_string(GetParam()));
  DSG_CHECK_IMPL_PARITY(dsg::test::delta_stepping_impls(), g.to_matrix(), 0,
                        GetParam());
}

INSTANTIATE_TEST_SUITE_P(Widths, DeltaSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 1.0, 2.0, 5.0,
                                           20.0, 1e6),
                         [](const auto& param_info) {
                           // Named-string concat (not `"d" + std::string&&`):
                           // GCC 12 -O3 emits a -Wrestrict false positive
                           // inside the rvalue operator+'s inlined insert,
                           // which -Werror turns into a Release build break.
                           std::string name = "d";
                           name += std::to_string(param_info.index);
                           return name;
                         });

// Monotonicity property: adding an edge can only improve (or keep)
// distances.
TEST(SsspMonotonicity, AddingEdgesNeverIncreasesDistances) {
  auto g = dsg::generate_connected_random(100, 50, 7);
  dsg::assign_uniform_weights(g, 0.5, 3.0, 8);
  g.normalize();
  auto a1 = g.to_matrix();
  auto d1 = SsspSolver(a1, {.delta = 1.0}).solve(0).dist;

  g.add_edge(0, 99, 0.25);  // a shortcut
  g.add_edge(99, 0, 0.25);
  g.normalize();
  auto a2 = g.to_matrix();
  auto d2 = SsspSolver(a2, {.delta = 1.0}).solve(0).dist;
  for (Index v = 0; v < 100; ++v) {
    EXPECT_LE(d2[v], d1[v] + 1e-12) << "vertex " << v;
  }
}

// Scaling property: scaling all weights scales all distances.
TEST(SsspScaling, WeightsScaleLinearly) {
  auto g = dsg::generate_connected_random(80, 160, 17);
  dsg::assign_uniform_weights(g, 0.2, 2.0, 18);
  g.normalize();
  auto a1 = g.to_matrix();
  auto g2 = g;
  for (auto& e : g2.edges()) e.weight *= 3.0;
  auto a2 = g2.to_matrix();

  // Scale delta along (0.8 -> 2.4) to keep identical bucketing.
  auto d1 = SsspSolver(a1, {.algorithm = Algorithm::kGraphblas, .delta = 0.8})
                .solve(5)
                .dist;
  auto d2 = SsspSolver(a2, {.algorithm = Algorithm::kGraphblas, .delta = 2.4})
                .solve(5)
                .dist;
  for (Index v = 0; v < 80; ++v) {
    EXPECT_NEAR(d2[v], 3.0 * d1[v], 1e-9);
  }
}

// Permutation property: relabeling vertices permutes distances.
TEST(SsspPermutation, RelabelingCommutesWithSssp) {
  auto g = dsg::generate_connected_random(60, 120, 23);
  dsg::assign_uniform_weights(g, 0.1, 3.0, 24);
  g.normalize();
  const Index n = g.num_vertices();

  // A fixed pseudo-random permutation.
  std::vector<Index> perm(n);
  for (Index v = 0; v < n; ++v) perm[v] = (v * 37 + 11) % n;

  dsg::EdgeList h(n);
  for (const auto& e : g.edges()) {
    h.add_edge(perm[e.src], perm[e.dst], e.weight);
  }
  auto dg = SsspSolver(g.to_matrix(), {.delta = 1.0}).solve(0).dist;
  auto dh = SsspSolver(h.to_matrix(), {.delta = 1.0}).solve(perm[0]).dist;
  for (Index v = 0; v < n; ++v) {
    EXPECT_NEAR(dh[perm[v]], dg[v], 1e-9);
  }
}

// Unit-weight graphs: delta=1 distances equal BFS hop counts.
TEST(SsspBfsEquivalence, UnitWeightsMatchBfsLevels) {
  auto g = dsg::generate_rmat({.scale = 8, .edge_factor = 6, .seed = 77});
  g.symmetrize();
  dsg::assign_unit_weights(g);
  g.normalize();
  auto levels = dsg::bfs_levels(g, 0);
  auto dist = SsspSolver(g.to_matrix(),
                         {.algorithm = Algorithm::kGraphblas, .delta = 1.0})
                  .solve(0)
                  .dist;
  for (Index v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] == std::numeric_limits<Index>::max()) {
      EXPECT_EQ(dist[v], dsg::kInfDist);
    } else {
      EXPECT_DOUBLE_EQ(dist[v], static_cast<double>(levels[v]));
    }
  }
}

}  // namespace
