// quickstart — the smallest end-to-end use of the library:
//   1. build a graph (from a generator, or any .mtx / SNAP file),
//   2. run the GraphBLAS delta-stepping SSSP,
//   3. validate against Dijkstra and print a few distances.
//
// Usage:
//   quickstart                      # built-in RMAT graph
//   quickstart --mtx path/to/a.mtx  # Matrix Market input
//   quickstart --snap path/to/a.txt # SNAP edge list input
//   quickstart --source 5 --delta 2.0
#include <iostream>

#include "bench_support/cli.hpp"
#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "graph/snap_reader.hpp"
#include "graph/stats.hpp"
#include "graph/weights.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);

  // 1. Load or generate a graph.
  EdgeList graph;
  if (args.has("mtx")) {
    graph = read_matrix_market_file(args.get("mtx"));
  } else if (args.has("snap")) {
    graph = read_snap_file(args.get("snap")).graph;
  } else {
    graph = generate_rmat({.scale = 12, .edge_factor = 8, .seed = 1});
    graph.symmetrize();
    assign_unit_weights(graph);
  }
  graph.normalize();  // simple graph: no self loops, min-weight dedup
  std::cout << "graph: " << format_stats(compute_stats(graph)) << "\n";

  // 2. Run the linear-algebraic delta-stepping on the adjacency matrix.
  //    The solver owns the matrix; a Δ <= 0 lets it pick one.
  sssp::SsspSolver solver(graph.to_matrix(),
                          {.algorithm = sssp::Algorithm::kGraphblas,
                           .delta = args.get_double("delta", 1.0)});
  const auto& a = solver.plan().matrix();
  const auto source = static_cast<Index>(args.get_int("source", 0));

  const auto result = solver.solve(source);
  std::cout << "delta-stepping: " << result.stats.outer_iterations
            << " buckets, " << result.stats.light_phases
            << " light phases, " << result.stats.relax_requests
            << " relax requests\n";

  // 3. Validate: structural SSSP invariants + agreement with Dijkstra.
  const auto check = validate_sssp(a, source, result.dist);
  if (!check.ok) {
    std::cerr << "INVALID RESULT: " << check.message << "\n";
    return 1;
  }
  const auto reference = dijkstra(a, source);
  const auto agree = compare_distances(reference.dist, result.dist);
  if (!agree.ok) {
    std::cerr << "DISAGREES WITH DIJKSTRA: " << agree.message << "\n";
    return 1;
  }
  std::cout << "validated: matches Dijkstra on all " << a.nrows()
            << " vertices\n";

  // Print the first few finite distances.
  std::cout << "sample distances from " << source << ":";
  int shown = 0;
  for (Index v = 0; v < a.nrows() && shown < 8; ++v) {
    if (result.dist[v] != kInfDist) {
      std::cout << "  d(" << v << ")=" << result.dist[v];
      ++shown;
    }
  }
  std::cout << "\n";
  return 0;
}
