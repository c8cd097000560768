// suite.hpp — the standard benchmark graph suite.
//
// Stand-ins for the SNAP / GraphChallenge collection the paper uses
// (symmetric, undirected, unit weights); each entry's `stand_in` names the
// dataset family it substitutes.  Graphs are listed in ascending node
// count, the sort order of Fig. 3 / Fig. 4's x-axes.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"

namespace dsg {

struct SuiteEntry {
  std::string name;      ///< e.g. "rmat-13" (stand-in for soc-Epinions1)
  std::string stand_in;  ///< which paper-family dataset this substitutes
  std::function<EdgeList()> make;
};

/// The full suite (9 graphs, ~1e2 .. ~3e5 vertices), unit weights,
/// symmetrized and normalized (no self loops, deduped).
std::vector<SuiteEntry> benchmark_suite();

/// A reduced suite for quick runs / CI (first `count` entries).
std::vector<SuiteEntry> quick_suite(std::size_t count = 4);

/// Weighted variants for the Δ-sweep ablation: same structures, uniform
/// real weights in [w_lo, w_hi).
std::vector<SuiteEntry> weighted_suite(double w_lo = 0.1, double w_hi = 10.0);

}  // namespace dsg
