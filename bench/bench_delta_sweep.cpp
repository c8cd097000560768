// ABL-DELTA — the Δ sweep discussed in paper Sec. VII: Δ at the minimum
// edge weight makes delta-stepping behave like Dijkstra (many buckets, no
// wasted re-relaxation), Δ -> infinity makes it Bellman-Ford-like (one
// bucket, many correction phases).  The sweep exposes the classic U-shaped
// runtime curve and the bucket/phase trade-off.
//
// Each Δ runs through its own SsspSolver, so the numbers are warm
// per-query costs (the Δ-dependent split is built once per Δ, outside the
// timed region).  The plan's auto-Δ heuristic (max_weight / avg_degree) is
// swept alongside and marked, as a sanity check that it lands near the
// U-curve's basin.
//
// Runs on weighted suite variants (uniform [0.1, 10) weights) so the
// light/heavy split is non-trivial.
//
// Flags: --graphs N (default 4), --csv, --deltas "0.1,0.5,1,..".
#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "bench_support/reporter.hpp"
#include "graphblas/context.hpp"
#include "sssp/solver.hpp"

namespace {

std::vector<double> parse_deltas(const std::string& spec) {
  std::vector<double> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const double d = std::atof(item.c_str());
    if (d > 0) out.push_back(d);
  }
  if (out.empty()) out = {0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 1e9};
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);
  const auto explicit_deltas = parse_deltas(args.get("deltas", ""));
  auto suite = weighted_suite(0.1, 10.0);
  const auto count =
      static_cast<std::size_t>(args.get_int("graphs", 4));
  if (count < suite.size()) suite.resize(count);

  for (const auto& entry : suite) {
    auto graph = entry.make();
    auto a = std::make_shared<const grb::Matrix<double>>(graph.to_matrix());
    const Index n = a->nrows();
    const int reps = bench::reps_for(n);

    TableReporter table("ABL-DELTA: " + entry.name + " (|V|=" +
                        std::to_string(n) + ", |E|=" +
                        std::to_string(a->nvals()) + ", w in [0.1,10))");
    table.set_header({"delta", "ms", "buckets", "light_phases",
                      "relax_requests"});

    // The heuristic's pick joins the sweep, tagged in the table.
    const sssp::SsspSolver probe(a);  // delta = kAutoDelta
    const double auto_delta = probe.delta();
    auto deltas = explicit_deltas;
    deltas.push_back(auto_delta);
    std::sort(deltas.begin(), deltas.end());

    for (double delta : deltas) {
      sssp::SolverOptions options;
      options.algorithm = sssp::Algorithm::kFused;
      options.delta = delta;
      sssp::SsspSolver solver(a, options);
      SsspResult result;
      const double ms = bench::time_best_ms(
          [&] {
            result = solver.solve(0);
            return result;
          },
          *a, 0, reps);
      const bool is_auto = delta == auto_delta;
      table.add_row({format_double(delta, 2) + (is_auto ? " (auto)" : ""),
                     format_ms(ms),
                     std::to_string(result.stats.outer_iterations),
                     std::to_string(result.stats.light_phases),
                     std::to_string(result.stats.relax_requests)});
    }

    // Reference points: the two limits delta-stepping interpolates, run
    // through the registry on the probe's plan (neither reads its Δ).
    auto reference_ms = [&](sssp::Algorithm algorithm) {
      grb::Context ctx;
      const sssp::AlgorithmInfo& info = sssp::algorithm_info(algorithm);
      return bench::time_best_ms(
          [&] { return info.run(probe.plan(), ctx, 0, {}); }, *a, 0, reps);
    };
    const double dij_ms = reference_ms(sssp::Algorithm::kDijkstra);
    const double bf_ms = reference_ms(sssp::Algorithm::kBellmanFord);
    table.add_footer("dijkstra (binary heap): " + format_ms(dij_ms));
    table.add_footer("bellman-ford (worklist): " + format_ms(bf_ms));
    table.add_footer("auto-delta heuristic picked " +
                     format_double(auto_delta, 3) +
                     " (max_weight / avg_degree, clamped to min weight)");
    table.add_footer("shape check: small delta -> many buckets / few "
                     "wasted relaxations; huge delta -> 1 bucket / "
                     "Bellman-Ford-like phase count.");
    if (args.has("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }
  return 0;
}
