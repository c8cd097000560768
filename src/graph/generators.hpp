// generators.hpp — synthetic graph generators.
//
// The paper's evaluation uses real SNAP / GraphChallenge graphs (symmetric,
// undirected, unit weights).  Those datasets are not available offline, so
// the benchmark suite substitutes generator families that span the same
// structural regimes (bench_support/suite.cpp maps each suite graph to the
// dataset family it stands in for):
//   - rmat            : skewed-degree, low-diameter (social / citation nets)
//   - erdos_renyi     : uniform random, low diameter
//   - grid2d          : bounded degree, high diameter (road networks)
//   - small_world     : ring + rewiring (Watts–Strogatz)
//   - path/cycle/star/complete/binary_tree : extreme shapes for edge cases
//
// All generators are deterministic given a seed.
#pragma once

#include <cstdint>
#include <random>

#include "graph/edge_list.hpp"

namespace dsg {

/// Recursive-MATrix (Kronecker-like) generator, GraphChallenge/Graph500
/// style.  scale = log2(#vertices); edge_factor = edges per vertex.
/// Default partition probabilities (a,b,c) = (0.57, 0.19, 0.19) match
/// Graph500.
struct RmatParams {
  unsigned scale = 10;
  double edge_factor = 8.0;
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  std::uint64_t seed = 42;
};
EdgeList generate_rmat(const RmatParams& params);

/// Erdős–Rényi G(n, m): m distinct directed edges chosen uniformly.
EdgeList generate_erdos_renyi(Index n, std::size_t m, std::uint64_t seed = 42);

/// width x height 4-neighbour grid (optionally with diagonal 8-neighbour
/// links), the canonical road-network stand-in: bounded degree, large
/// diameter.
EdgeList generate_grid2d(Index width, Index height, bool diagonals = false);

/// Watts–Strogatz small world: ring lattice with k neighbours per side and
/// rewiring probability beta.
EdgeList generate_small_world(Index n, Index k, double beta,
                              std::uint64_t seed = 42);

/// Simple path 0-1-2-...-(n-1).
EdgeList generate_path(Index n);

/// Cycle 0-1-...-(n-1)-0.
EdgeList generate_cycle(Index n);

/// Star: vertex 0 connected to all others.
EdgeList generate_star(Index n);

/// Complete graph K_n (no self loops).
EdgeList generate_complete(Index n);

/// Complete binary tree with n vertices (parent i -> children 2i+1, 2i+2).
EdgeList generate_binary_tree(Index n);

/// Uniform random spanning tree over n vertices plus `extra_edges`
/// additional random edges — guarantees connectivity, used by the
/// property-based tests.
EdgeList generate_connected_random(Index n, std::size_t extra_edges,
                                   std::uint64_t seed = 42);

}  // namespace dsg
