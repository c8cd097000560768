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
// Flags: --quick (first 4 graphs), --graphs N, --csv, --delta D.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "bench_support/reporter.hpp"
#include "sssp/solver.hpp"

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);
  auto suite = bench::select_suite(args);
  const double delta = args.get_double("delta", 1.0);

  TableReporter table(
      "FIG3: Unfused (GraphBLAS) vs Fused C delta-stepping, delta=" +
      format_double(delta, 2));
  table.set_header({"graph", "nodes", "edges", "unfused_ms", "fused_ms",
                    "speedup"});

  std::vector<double> speedups;
  for (const auto& entry : suite) {
    const auto shared =
        std::make_shared<const grb::Matrix<double>>(entry.make().to_matrix());
    const grb::Matrix<double>& a = *shared;
    const Index n = a.nrows();
    const int reps = bench::reps_for(n);
    auto one_shot = [&](sssp::Algorithm algorithm) {
      return bench::time_best_ms(
          [&] {
            return sssp::SsspSolver(shared,
                                    {.algorithm = algorithm, .delta = delta})
                .solve(0);
          },
          a, 0, reps);
    };

    const double unfused_ms = one_shot(sssp::Algorithm::kGraphblas);
    const double fused_ms = one_shot(sssp::Algorithm::kFused);
    const double speedup = unfused_ms / fused_ms;
    speedups.push_back(speedup);

    table.add_row({entry.name, std::to_string(n),
                   std::to_string(a.nvals()), format_ms(unfused_ms),
                   format_ms(fused_ms), format_double(speedup, 2) + "x"});
  }

  table.add_footer("arithmetic mean speedup: " +
                   format_double(arithmetic_mean(speedups), 2) +
                   "x   (paper Fig. 3: ~3.7x)");
  table.add_footer("geometric mean speedup:  " +
                   format_double(geometric_mean(speedups), 2) + "x");
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
}
