// FIG3 — reproduces paper Fig. 3: runtime (ms) of the unfused
// GraphBLAS-style implementation vs the fused C implementation, one SSSP
// per suite graph (sorted ascending by node count), unit weights, Δ=1.
//
// Paper headline: the fused implementation is on average ~3.7x faster.
// Expected shape here: fused wins by a large constant factor on every
// graph; the exact factor depends on machine and substrate.
//
// Both columns are per-call numbers, as in the paper: every timed rep
// builds a one-shot SsspSolver (plan validation scan + A_L/A_H split) on
// the shared matrix and solves once.  The paper's double-apply A_L/A_H
// construction (Fig. 2, lines 15-21) runs in the capi variant.
//
// fused_setup_ms is that plan setup alone for the fused column (best of
// the same reps): fused_setup_ms / fused_ms is the matrix-filtering share
// of the fused runtime that paper Sec. VI-C puts at 35-40%.
//
// Flags: --quick (first 4 graphs), --graphs N, --json, --delta D.
#include <algorithm>
#include <iostream>
#include <limits>
#include <memory>

#include "bench_common.hpp"
#include "sssp/solver.hpp"

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);
  auto suite = bench::select_suite(args);
  const double delta = args.get_double("delta", 1.0);

  TableReporter table(
      "fig3_fusion",
      "FIG3: Unfused (GraphBLAS) vs Fused C delta-stepping, delta=" +
          format_double(delta, 2));
  table.set_header({"graph", "nodes", "edges", "unfused_ms", "fused_ms",
                    "fused_setup_ms", "speedup"});

  std::vector<double> speedups;
  std::vector<double> setup_shares;
  for (const auto& entry : suite) {
    const auto shared =
        std::make_shared<const grb::Matrix<double>>(entry.make().to_matrix());
    const grb::Matrix<double>& a = *shared;
    const Index n = a.nrows();
    const int reps = bench::reps_for(n);
    double setup_ms = 0.0;  // best plan setup of the last one_shot()
    auto one_shot = [&](sssp::Algorithm algorithm) {
      setup_ms = std::numeric_limits<double>::infinity();
      return bench::time_best_ms(
          [&] {
            sssp::SsspSolver solver(shared,
                                    {.algorithm = algorithm, .delta = delta});
            SsspResult result = solver.solve(0);
            // Read after the solve: the split is materialized lazily.
            setup_ms =
                std::min(setup_ms, solver.plan().setup_seconds() * 1000.0);
            return result;
          },
          a, 0, reps);
    };

    const double unfused_ms = one_shot(sssp::Algorithm::kGraphblas);
    const double fused_ms = one_shot(sssp::Algorithm::kFused);
    const double fused_setup_ms = setup_ms;
    const double speedup = unfused_ms / fused_ms;
    speedups.push_back(speedup);
    setup_shares.push_back(fused_setup_ms / fused_ms);

    table.add_row({entry.name, n, a.nvals(), unfused_ms, fused_ms,
                   fused_setup_ms, speedup});
  }

  table.add_footer("arithmetic mean speedup: " +
                   format_double(arithmetic_mean(speedups), 2) +
                   "x   (paper Fig. 3: ~3.7x)");
  table.add_footer("geometric mean speedup:  " +
                   format_double(geometric_mean(speedups), 2) + "x");
  table.add_footer("average fused setup share: " +
                   format_double(100.0 * arithmetic_mean(setup_shares), 1) +
                   "%   (paper Sec. VI-C: 35-40% on their SNAP suite)");
  bench::emit(table, args);
  return 0;
}
