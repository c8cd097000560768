#include "graph/weights.hpp"

#include <cmath>
#include <memory_resource>
#include <random>
#include <unordered_map>

namespace dsg {

namespace {

/// Canonical key for an undirected pair so both directions get one weight.
std::uint64_t pair_key(Index u, Index v) {
  const Index lo = u < v ? u : v;
  const Index hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) ^ hi;
}

template <typename Draw>
void assign_symmetric(EdgeList& graph, Draw&& draw) {
  // The map's nodes come from one arena, freed whole: node-by-node frees
  // left the heap fragmented by a graph-dependent amount, which moved the
  // peak RSS of what ran next by ~10 MiB from one rmat-16 seed to another.
  std::pmr::monotonic_buffer_resource nodes;
  std::pmr::unordered_map<std::uint64_t, double> chosen(&nodes);
  chosen.reserve(graph.num_edges());
  for (Edge& e : graph.edges()) {
    auto [it, inserted] = chosen.try_emplace(pair_key(e.src, e.dst), 0.0);
    if (inserted) it->second = draw();
    e.weight = it->second;
  }
}

}  // namespace

void assign_unit_weights(EdgeList& graph) {
  for (Edge& e : graph.edges()) e.weight = 1.0;
}

void assign_uniform_weights(EdgeList& graph, double lo, double hi,
                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(lo, hi);
  assign_symmetric(graph, [&] { return uni(rng); });
}

void assign_integer_weights(EdgeList& graph, int lo, int hi,
                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> uni(lo, hi);
  assign_symmetric(graph, [&] { return static_cast<double>(uni(rng)); });
}

void assign_exponential_weights(EdgeList& graph, double scale,
                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, scale);
  assign_symmetric(graph, [&] { return std::exp(uni(rng)); });
}

}  // namespace dsg
