// bench_common.hpp — shared runner for the paper-style benchmark tables.
#pragma once

#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_support/cli.hpp"
#include "bench_support/reporter.hpp"
#include "bench_support/stats.hpp"
#include "bench_support/suite.hpp"
#include "bench_support/timer.hpp"
#include "graph/stats.hpp"
#include "sssp/common.hpp"
#include "sssp/validate.hpp"

namespace dsg::bench {

/// Times `fn` `reps` times after one untimed warmup (first-touch page
/// faults and cache warming would otherwise pollute single-rep numbers)
/// and returns the *best* milliseconds.  Best-of-N is the standard
/// de-noising protocol on shared/contended machines: interference only
/// ever inflates a sample, so the minimum is the least-polluted estimate.
/// The warmup run is validated, so every number printed by the harness
/// comes from a configuration whose output is *correct*.
inline double time_best_ms(const std::function<SsspResult()>& fn,
                           const grb::Matrix<double>& a, Index source,
                           int reps) {
  SsspResult warm = fn();
  auto report = validate_sssp(a, source, warm.dist);
  if (!report.ok) {
    std::cerr << "VALIDATION FAILED: " << report.message << "\n";
    std::exit(1);
  }
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    SsspResult result = fn();
    samples.push_back(timer.milliseconds());
  }
  return summarize(samples).min;
}

/// Repetition budget: more reps on small graphs, one timed rep (after the
/// warmup) on the largest, whose runtimes are long enough to be stable.
inline int reps_for(Index num_vertices) {
  if (num_vertices <= 2000) return 9;
  if (num_vertices <= 100000) return 5;
  return 1;
}

/// Applies --quick / --graphs=N trimming shared by all table benches.
inline std::vector<SuiteEntry> select_suite(const CliArgs& args) {
  if (args.has("quick")) return quick_suite(4);
  const auto n = static_cast<std::size_t>(args.get_int("graphs", 0));
  return n > 0 ? quick_suite(n) : benchmark_suite();
}

/// Prints `table` as one JSON line with --json (what
/// scripts/bench_baseline.sh merges into BENCH_sssp.json), else as the
/// aligned human-readable table.
inline void emit(const TableReporter& table, const CliArgs& args) {
  if (args.has("json")) {
    table.print_json(std::cout);
  } else {
    table.print(std::cout);
  }
}

}  // namespace dsg::bench
