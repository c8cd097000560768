// social_hops — the low-diameter workload: an RMAT social-network stand-in
// with unit weights, where delta-stepping with Δ=1 computes BFS hop
// distances (the paper's exact evaluation configuration).  Prints the hop
// histogram ("degrees of separation") and compares the GraphBLAS and fused
// implementations' phase structure.
//
// Usage: social_hops [--scale 13] [--edge-factor 12] [--source 0]
#include <iostream>
#include <map>
#include <memory>

#include "bench_support/cli.hpp"
#include "bench_support/timer.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);

  RmatParams params;
  params.scale = static_cast<unsigned>(args.get_int("scale", 13));
  params.edge_factor = args.get_double("edge-factor", 12.0);
  params.seed = 99;
  auto graph = generate_rmat(params);
  graph.symmetrize();
  assign_unit_weights(graph);
  graph.normalize();
  const auto a =
      std::make_shared<const grb::Matrix<double>>(graph.to_matrix());
  const auto source = static_cast<Index>(args.get_int("source", 0));

  std::cout << "social graph: " << format_stats(compute_stats(graph)) << "\n";

  // Unit weights + delta=1: bucket i is exactly the BFS level-i frontier.
  // Each timing covers a one-shot solver: plan (split) plus one solve.
  WallTimer gb_timer;
  const auto gb =
      sssp::SsspSolver(a, {.algorithm = sssp::Algorithm::kGraphblas,
                           .delta = 1.0})
          .solve(source);
  const double gb_ms = gb_timer.milliseconds();
  WallTimer fused_timer;
  const auto fused =
      sssp::SsspSolver(a, {.algorithm = sssp::Algorithm::kFused, .delta = 1.0})
          .solve(source);
  const double fused_ms = fused_timer.milliseconds();

  const auto agree = compare_distances(gb.dist, fused.dist);
  if (!agree.ok) {
    std::cerr << "IMPLEMENTATIONS DISAGREE: " << agree.message << "\n";
    return 1;
  }

  // Hop histogram: how many people are k handshakes away?
  std::map<int, Index> histogram;
  Index reachable = 0;
  for (double d : fused.dist) {
    if (d != kInfDist) {
      ++histogram[static_cast<int>(d)];
      ++reachable;
    }
  }
  std::cout << "reachable from " << source << ": " << reachable << " of "
            << a->nrows() << "\n";
  for (const auto& [hops, count] : histogram) {
    std::cout << "  " << hops << " hops: " << count << "\n";
  }

  std::cout << "buckets == BFS depth+1: " << fused.stats.outer_iterations
            << " (low diameter — few buckets, the easy regime for "
               "frontier-at-a-time algorithms)\n";
  std::cout << "unfused GraphBLAS: " << gb_ms << " ms, fused C: " << fused_ms
            << " ms (" << gb_ms / fused_ms << "x — the Fig. 3 effect)\n";
  return 0;
}
