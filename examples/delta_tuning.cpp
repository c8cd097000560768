// delta_tuning — interactive ablation of the Δ parameter on a weighted
// graph: shows the Dijkstra-like and Bellman-Ford-like limits the paper
// discusses in Sec. VII, and how bucket count trades against wasted
// re-relaxations.
//
// The sweep is anchored on the plan's auto-Δ heuristic (max_weight /
// avg_degree, clamped to the smallest positive weight): the hand-rolled
// default list is gone — the program prints the chosen Δ and sweeps
// geometric multiples around it, so the table shows where the heuristic
// lands on the U-curve.
//
// Usage: delta_tuning [--n 20000] [--extra 60000] [--wmax 10]
#include <iomanip>
#include <iostream>
#include <memory>

#include "bench_support/cli.hpp"
#include "bench_support/reporter.hpp"
#include "bench_support/timer.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);
  const auto n = static_cast<Index>(args.get_int("n", 20000));
  const auto extra = static_cast<std::size_t>(args.get_int("extra", 60000));
  const double wmax = args.get_double("wmax", 10.0);

  auto graph = generate_connected_random(n, extra, 7);
  assign_uniform_weights(graph, 0.1, wmax, 8);
  graph.normalize();
  auto a = std::make_shared<const grb::Matrix<double>>(graph.to_matrix());

  // Let the plan pick Δ from the degree statistics, then sweep around it.
  sssp::SsspSolver auto_solver(a);  // delta = kAutoDelta
  const double auto_delta = auto_solver.delta();
  const auto& stats = auto_solver.plan().stats();

  std::cout << "graph: |V|=" << n << " |E|=" << a->nvals()
            << " weights in [0.1," << wmax << ")\n";
  std::cout << "auto delta = " << auto_delta << "  (max_weight "
            << stats.max_weight << " / avg_degree " << std::setprecision(3)
            << stats.avg_out_degree << ", clamped to min weight "
            << stats.min_positive_weight << ")\n\n";
  std::cout << std::left << std::setw(14) << "delta" << std::setw(10)
            << "ms" << std::setw(10) << "buckets" << std::setw(14)
            << "light_phases" << std::setw(16) << "relax_requests"
            << "\n";

  auto reference = dijkstra(*a, 0);
  for (double scale : {0.1, 0.3, 1.0, 3.0, 10.0, 1e9}) {
    const double delta = auto_delta * scale;
    sssp::SolverOptions options;
    options.algorithm = sssp::Algorithm::kFused;
    options.delta = delta;
    sssp::SsspSolver solver(a, options);
    WallTimer timer;
    const auto result = solver.solve(0);
    const double ms = timer.milliseconds();
    const auto agree = compare_distances(reference.dist, result.dist);
    if (!agree.ok) {
      std::cerr << "WRONG ANSWER at delta=" << delta << ": " << agree.message
                << "\n";
      return 1;
    }
    const std::string label =
        format_double(delta, 3) + (scale == 1.0 ? " (auto)" : "");
    std::cout << std::left << std::setw(14) << label << std::setw(10)
              << format_double(ms, 3) << std::setw(10)
              << result.stats.outer_iterations << std::setw(14)
              << result.stats.light_phases << std::setw(16)
              << result.stats.relax_requests << "\n";
  }

  WallTimer dij_timer;
  dijkstra(*a, 0);
  std::cout << "\ndijkstra:     "
            << format_double(dij_timer.milliseconds(), 3) << " ms\n";
  sssp::SsspSolver bellman_ford(a,
                                {.algorithm = sssp::Algorithm::kBellmanFord});
  WallTimer bf_timer;
  bellman_ford.solve(0);
  std::cout << "bellman-ford: " << format_double(bf_timer.milliseconds(), 3)
            << " ms\n";
  std::cout << "\nreading the table: tiny delta ~ Dijkstra (many buckets, "
               "no wasted work); huge delta ~ Bellman-Ford (one bucket, "
               "many correction phases).  The auto row is the heuristic's "
               "pick; per-delta times are warm solves (plan built outside "
               "the timer).\n";
  return 0;
}
