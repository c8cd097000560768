// ABL-DELTA — the Δ sweep discussed in paper Sec. VII: Δ at the minimum
// edge weight makes delta-stepping behave like Dijkstra (many buckets, no
// wasted re-relaxation), Δ -> infinity makes it Bellman-Ford-like (one
// bucket, many correction phases).  The sweep exposes the classic U-shaped
// runtime curve and the bucket/phase trade-off.
//
// Each Δ runs through its own SsspSolver, so the numbers are warm
// per-query costs (the Δ-dependent split is built once per Δ, outside the
// timed region).  The plan's auto-Δ heuristic (max_weight / avg_degree) is
// swept alongside and flagged in the `auto` column, as a sanity check that
// it lands near the U-curve's basin.  The two limits, Dijkstra and
// Bellman-Ford, follow each graph's sweep as reference rows; they read no
// Δ and have no buckets or light phases, so those cells are null.
//
// Runs on weighted suite variants (uniform [0.1, 10) weights) so the
// light/heavy split is non-trivial.
//
// Flags: --graphs N (default 4), --json, --deltas "0.1,0.5,1,..".
#include <algorithm>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
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
  constexpr double kNull = std::numeric_limits<double>::quiet_NaN();

  TableReporter table("delta_sweep",
                      "ABL-DELTA: fused warm per-query ms across delta, "
                      "w in [0.1,10)");
  table.set_header({"graph", "algorithm", "delta", "auto", "ms", "buckets",
                    "light_phases", "relax_requests"});

  for (const auto& entry : suite) {
    auto graph = entry.make();
    auto a = std::make_shared<const grb::Matrix<double>>(graph.to_matrix());
    const int reps = bench::reps_for(a->nrows());

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
      table.add_row({entry.name, "fused", delta, delta == auto_delta, ms,
                     result.stats.outer_iterations, result.stats.light_phases,
                     result.stats.relax_requests});
    }

    // Reference points: the two limits delta-stepping interpolates, run
    // through the registry on the probe's plan (neither reads its Δ).
    for (const sssp::Algorithm algorithm :
         {sssp::Algorithm::kDijkstra, sssp::Algorithm::kBellmanFord}) {
      grb::Context ctx;
      const sssp::AlgorithmInfo& info = sssp::algorithm_info(algorithm);
      SsspResult result;
      const double ms = bench::time_best_ms(
          [&] {
            result = info.run(probe.plan(), ctx, 0, {});
            return result;
          },
          *a, 0, reps);
      table.add_row({entry.name, info.name, kNull, false, ms, kNull, kNull,
                     result.stats.relax_requests});
    }
  }

  table.add_footer("auto = the plan's auto-delta pick (max_weight / "
                   "avg_degree, clamped to min weight)");
  table.add_footer("shape check: small delta -> many buckets / few "
                   "wasted relaxations; huge delta -> 1 bucket / "
                   "Bellman-Ford-like phase count.");
  bench::emit(table, args);
  return 0;
}
