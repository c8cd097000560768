// ABL-BASE — cross-algorithm comparison on the standard suite, now driven
// by the solver registry: every registered algorithm (four delta-stepping
// implementations, the C-API transcription, the OpenMP variant, Dijkstra
// and Bellman-Ford) runs through a warm SsspSolver, so the numbers are
// per-query costs with plan setup amortized (the serving scenario).  The
// one-time plan cost is reported in its own column.
//
// Expected shape: fused ~ buckets ~ dijkstra within small factors;
// graphblas slower by the Fig. 3 factor; graphblas_select between the two
// (it fuses filters but not the cross-operation data movement).
//
// Flags: --quick, --graphs N, --json, --delta D.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "sssp/solver.hpp"

int main(int argc, char** argv) {
  using namespace dsg;
  CliArgs args(argc, argv);
  auto suite = bench::select_suite(args);
  const double delta = args.get_double("delta", 1.0);

  TableReporter table(
      "baselines",
      "ABL-BASE: warm per-query ms by registry algorithm, delta=" +
          format_double(delta, 2));
  std::vector<std::string> header = {"graph", "nodes", "split_plan_ms"};
  for (const auto& info : sssp::algorithm_registry()) {
    header.push_back(info.name);
  }
  table.set_header(header);

  for (const auto& entry : suite) {
    auto graph = entry.make();
    auto a = std::make_shared<const grb::Matrix<double>>(graph.to_matrix());
    const int reps = bench::reps_for(a->nrows());

    std::vector<Cell> row = {entry.name, a->nrows()};
    bool first = true;
    for (const auto& info : sssp::algorithm_registry()) {
      sssp::SolverOptions options;
      options.algorithm = info.id;
      options.delta = delta;
      sssp::SsspSolver solver(a, options);
      const double ms = bench::time_best_ms(
          [&] { return solver.solve(0); }, *a, 0, reps);
      if (first) {
        // One-time validation + CSR light/heavy split cost (the plan work
        // of the buckets/fused/openmp family) — what a one-shot solver
        // re-pays per query.  The graphblas family pays this plus the
        // grb-matrix materialization; bellman_ford/dijkstra pay only the
        // validation scan.
        row.emplace_back(solver.plan().setup_seconds() * 1000.0);
        first = false;
      }
      row.emplace_back(ms);
    }
    table.add_row(std::move(row));
  }

  table.add_footer("per-query cost on a warm plan; split_plan_ms is the "
                   "one-time validation + CSR-split setup of the "
                   "buckets/fused/openmp family (the graphblas family "
                   "additionally materializes grb A_L/A_H once).");
  table.add_footer("expected shape: fused/buckets/dijkstra within small "
                   "factors; graphblas slower by the Fig. 3 factor; "
                   "graphblas_select in between.");
  bench::emit(table, args);
  return 0;
}
