// FIG4 — paper Fig. 4 generalized: thread-scaling of every *threaded*
// engine in the algorithm registry (the variants whose AlgorithmInfo says
// they honor ExecOptions::num_threads), normalized per engine to its own
// single-thread run.  Today that sweeps the OpenMP-task fused variant
// (paper Sec. VI-C) and the lock-free async engine (delta_stepping_async);
// a future threaded variant joins the table by registering itself — this
// file does not change.
//
// Paper headline for the OpenMP engine: average 1.44x at 2 threads, 1.5x
// at 4 — modest and saturating, because the A_L/A_H filtering is one task
// per matrix.  Here every engine runs against one shared GraphPlan, so the
// split is built once, outside the timed region.  The async engine exists
// to beat that self-relative scaling: no bucket barrier, relaxations race
// through write_min and the concurrent bag.  The --check gate pins exactly
// that claim.
//
// Every timed configuration is validated against the SSSP invariants
// before timing (time_best_ms), so the async engine's numbers are from
// runs whose distances are provably correct at that thread count.
//
// Flags: --quick, --graphs N, --json, --delta D, --threads "2,4", --check.
//   --check  gate (stderr, exit 1 on failure): on the gate graphs
//            (grid-128x128, rmat-16) the best async self-relative speedup
//            at the largest thread count must be >= the best deterministic
//            threaded engine's.  Skipped with a note when the host has
//            fewer hardware threads than the largest requested count
//            (oversubscribed "scaling" measures contention, not scaling)
//            or when no gate graph is in the selected suite.
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "sssp/solver.hpp"

namespace {

std::vector<int> parse_thread_list(const std::string& spec) {
  std::vector<int> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const int t = std::atoi(item.c_str());
    if (t > 0) out.push_back(t);
  }
  return out.empty() ? std::vector<int>{2, 4} : out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsg;
  using sssp::AlgorithmInfo;
  CliArgs args(argc, argv);
  auto suite = bench::select_suite(args);
  const double delta = args.get_double("delta", 1.0);
  const auto threads = parse_thread_list(args.get("threads", "2,4"));
  const int max_threads = *std::max_element(threads.begin(), threads.end());

  // The sweep set: whatever the registry flags as threaded.
  std::vector<const AlgorithmInfo*> engines;
  for (const auto& info : sssp::algorithm_registry()) {
    if (info.threaded) engines.push_back(&info);
  }

  TableReporter table(
      "async_scaling",
      "FIG4: per-engine self-relative thread scaling (registry-driven), "
      "delta=" + format_double(delta, 2));
  std::vector<std::string> header{"graph", "nodes", "algorithm", "t1_ms"};
  for (int t : threads) header.push_back(std::to_string(t) + "t_speedup");
  table.set_header(header);

  // engine name -> speedups across graphs (for the footer averages), and
  // (graph, engine) -> speedup at max_threads (for the --check gate).
  std::map<std::string, std::vector<double>> engine_speedups;
  std::map<std::string, std::map<std::string, double>> at_max;

  for (const auto& entry : suite) {
    const GraphPlan plan(entry.make().to_matrix(), delta);
    const grb::Matrix<double>& a = plan.matrix();
    const Index n = a.nrows();
    const int reps = bench::reps_for(n);
    grb::Context ctx;

    for (const AlgorithmInfo* engine : engines) {
      auto timed = [&](int num_threads) {
        ExecOptions exec;
        exec.num_threads = num_threads;
        return bench::time_best_ms(
            [&] { return engine->run(plan, ctx, 0, exec); }, a, 0, reps);
      };
      const double t1_ms = timed(1);
      std::vector<Cell> row{entry.name, n, engine->name, t1_ms};
      for (int t : threads) {
        const double speedup = t1_ms / timed(t);
        engine_speedups[engine->name].push_back(speedup);
        if (t == max_threads) at_max[entry.name][engine->name] = speedup;
        row.emplace_back(speedup);
      }
      table.add_row(std::move(row));
    }
  }

  for (const AlgorithmInfo* engine : engines) {
    table.add_footer(std::string("average self-speedup ") + engine->name +
                     ": " +
                     format_double(arithmetic_mean(engine_speedups[engine->name]),
                                   2) +
                     "x   (paper Fig. 4 openmp reference: 1.44x @2t, 1.5x @4t)");
  }
  bench::emit(table, args);

  if (!args.has("check")) return 0;

  // --- Gate: async scaling beats the deterministic engines' (stderr). ----
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < static_cast<unsigned>(max_threads)) {
    std::cerr << "FIG4 gate skipped: hardware_concurrency=" << hw
              << " < " << max_threads
              << " threads (oversubscribed scaling measures contention)\n";
    return 0;
  }
  bool gated = false, failed = false;
  for (const char* gate_graph : {"grid-128x128", "rmat-16"}) {
    const auto git = at_max.find(gate_graph);
    if (git == at_max.end()) continue;  // graph not in the selected suite
    double best_async = 0.0, best_det = 0.0;
    for (const auto& [name, speedup] : git->second) {
      const auto* info = sssp::find_algorithm(name);
      double& best = info->deterministic ? best_det : best_async;
      best = std::max(best, speedup);
    }
    gated = true;
    const bool ok = best_async >= best_det;
    std::cerr << "FIG4 gate [" << gate_graph << " @" << max_threads
              << "t]: best async self-speedup " << format_double(best_async, 2)
              << "x vs best deterministic " << format_double(best_det, 2)
              << "x -> " << (ok ? "OK" : "FAIL") << "\n";
    if (!ok) failed = true;
  }
  if (!gated) {
    std::cerr << "FIG4 gate skipped: no gate graph (grid-128x128, rmat-16) "
                 "in the selected suite\n";
  }
  return failed ? 1 : 0;
}
