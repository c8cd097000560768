// ABL-BASE — cross-algorithm comparison on the standard suite, now driven
// by the solver registry: every registered algorithm (four delta-stepping
// implementations, the C-API transcription, the OpenMP variant, Dijkstra
// and Bellman-Ford) runs through a warm SsspSolver, so the numbers are
// per-query costs with plan setup amortized (the serving scenario).  Every
// core runs at ExecOptions::num_threads = 1, as SsspServer runs it, so the
// threaded columns (openmp, delta_stepping_async) are the times a server
// actually serves.  The one-time plan cost is reported in its own column,
// and `auto` names the core sssp::auto_algorithm routes the graph to at
// the run's Δ, so the routing rule can be checked against the measured
// columns.
//
// Expected shape: fused ~ buckets ~ dijkstra within small factors;
// graphblas slower by the Fig. 3 factor; graphblas_select between the two:
// several times below graphblas on the high-diameter grids, near it on the
// low-diameter graphs (it fuses the filters and marks S over the bucket
// frontier only, but keeps the cross-operation data movement).
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
  std::vector<std::string> header = {"graph", "nodes", "split_plan_ms",
                                     "auto"};
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
      options.exec.num_threads = 1;
      sssp::SsspSolver solver(a, options);
      const double ms = bench::time_best_ms(
          [&] { return solver.solve(0); }, *a, 0, reps);
      if (first) {
        // One-time validation + A_L/A_H split cost (the plan work of the
        // buckets/fused/openmp and graphblas families, which share one
        // split) — what a one-shot solver re-pays per query.
        // bellman_ford/dijkstra pay only the validation scan.
        row.emplace_back(solver.plan().setup_seconds() * 1000.0);
        row.emplace_back(
            sssp::algorithm_info(sssp::auto_algorithm(solver.plan())).name);
        first = false;
      }
      row.emplace_back(ms);
    }
    table.add_row(std::move(row));
  }

  table.add_footer("per-query cost on a warm plan, every core at one "
                   "thread as SsspServer runs it; split_plan_ms is the "
                   "one-time validation + A_L/A_H split setup, shared by "
                   "the buckets/fused/openmp and graphblas families; auto "
                   "is auto_algorithm's pick at this delta.");
  table.add_footer("expected shape: fused/buckets/dijkstra within small "
                   "factors; graphblas slower by the Fig. 3 factor; "
                   "graphblas_select between the two: several times below "
                   "graphblas on the grids, near it on low-diameter "
                   "graphs.");
  bench::emit(table, args);
  return 0;
}
