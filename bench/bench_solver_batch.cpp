// SOLVER-BATCH — the repeated-query serving scenario the plan/execute API
// exists for: many SSSP queries against one graph (routing services,
// all-pairs sampling).
//
// Three measurements:
//   1. throughput table: queries/sec through one warm SsspSolver at batch
//      sizes 1 / 8 / 64 on the standard suite;
//   2. amortization check on a fig3-scale graph (rmat-13): total time of
//      64 one-shot solvers (one SsspSolver built on the shared matrix per
//      query, each re-paying plan setup) vs 64 warm solve() calls vs one
//      solve_batch(64);
//   3. serving closed loop on the same graph: fixed client concurrency
//      driving an SsspServer (pool + LRU result cache), half the traffic
//      drawn from a small hot source set, one leg with the cache on and
//      one with it off — qps and client-observed p50/p99 latency.
//
// With --check the amortization and serving numbers become gates (used by
// the CI Release bench smoke):
//   - solve_batch(64)  <  2x the 64 warm solves (batching adds no
//     meaningful overhead beyond the solves themselves),
//   - 64 one-shot solvers >= 1.5x solve_batch(64) (plan + workspace
//     amortization pays), and
//   - serving cache-on qps >= 1.5x cache-off qps at >= 50% repeated
//     sources (the result cache pays under realistic skewed traffic).
//
// Flags: --quick / --graphs N, --json, --algo NAME (default fused),
//        --delta D (default 1.0, suite graphs are unit-weight), --check.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serving/server.hpp"
#include "sssp/delta_stepping_graphblas.hpp"
#include "sssp/solver.hpp"

namespace {

using namespace dsg;
using sssp::Algorithm;

/// Deterministic spread of `count` sources over [0, n).
std::vector<Index> make_sources(Index n, std::size_t count) {
  std::vector<Index> sources(count);
  for (std::size_t k = 0; k < count; ++k) {
    sources[k] = static_cast<Index>((k * 7919 + 13) % n);
  }
  return sources;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string algo_name = args.get("algo", "fused");
  const auto* info = sssp::find_algorithm(algo_name);
  if (!info) {
    std::cerr << "unknown --algo " << algo_name << "\n";
    return 2;
  }
  const double delta = args.get_double("delta", 1.0);
  const bool check = args.has("check");

  // --- 1. Throughput table over the suite. --------------------------------
  auto suite = bench::select_suite(args);
  TableReporter table("solver_batch",
                      "SOLVER-BATCH: warm-plan throughput, algo=" +
                          algo_name + ", delta=" + format_double(delta, 2));
  table.set_header(
      {"graph", "nodes", "edges", "batch", "total_ms", "queries_per_sec"});

  for (const auto& entry : suite) {
    auto graph = entry.make();
    auto a = graph.to_matrix();
    const Index n = a.nrows();

    sssp::SolverOptions options;
    options.algorithm = info->id;
    options.delta = delta;
    sssp::SsspSolver solver(a, options);

    // Warm + validate once; every later number comes from a configuration
    // whose output is correct.
    {
      const auto warm = solver.solve(0);
      const auto report = validate_sssp(a, 0, warm.dist);
      if (!report.ok) {
        std::cerr << "VALIDATION FAILED (" << entry.name
                  << "): " << report.message << "\n";
        return 1;
      }
    }

    for (std::size_t batch : {std::size_t{1}, std::size_t{8},
                              std::size_t{64}}) {
      const auto sources = make_sources(n, batch);
      WallTimer timer;
      const auto results = solver.solve_batch(sources);
      const double ms = timer.milliseconds();
      if (results.size() != batch) return 1;
      const double qps = ms > 0.0 ? 1000.0 * static_cast<double>(batch) / ms
                                  : 0.0;
      table.add_row({entry.name, n, a.nvals(), batch, ms, qps});
    }
  }

  bench::emit(table, args);

  // --- 2. Amortization on a fig3-scale graph (rmat-13 stand-in). ----------
  SuiteEntry big;
  {
    bool found = false;
    for (auto& entry : benchmark_suite()) {
      if (entry.name == "rmat-13") {  // the fig3 mid-size point
        big = entry;
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "suite no longer contains rmat-13; update the "
                   "amortization gate graph\n";
      return 2;
    }
  }
  auto big_graph = big.make();
  auto big_a = std::make_shared<const grb::Matrix<double>>(
      big_graph.to_matrix());
  const Index big_n = big_a->nrows();
  const auto sources = make_sources(big_n, 64);

  sssp::SolverOptions options;
  options.algorithm = info->id;
  options.delta = delta;
  sssp::SsspSolver solver(big_a, options);
  (void)solver.solve(sources[0]);  // warm the workspace

  WallTimer batch_timer;
  const auto batched = solver.solve_batch(sources);
  const double batch_ms = batch_timer.milliseconds();

  WallTimer warm_timer;
  for (Index s : sources) (void)solver.solve(s);
  const double warm_ms = warm_timer.milliseconds();

  // The per-call baseline the batch API must beat: a fresh solver per
  // query, re-deriving the plan every time (the matrix itself is shared).
  WallTimer one_shot_timer;
  for (Index s : sources) (void)sssp::SsspSolver(big_a, options).solve(s);
  const double one_shot_ms = one_shot_timer.milliseconds();

  // Spot-check the batch against a fresh solve.
  {
    const auto single = solver.solve(sources[7]);
    if (batched[7].dist != single.dist) {
      std::cerr << "BATCH MISMATCH on " << big.name << "\n";
      return 1;
    }
  }

  const double one_shot_speedup = one_shot_ms / batch_ms;
  const double warm_ratio = batch_ms / warm_ms;
  TableReporter amort("solver_batch_amortization",
                      "SOLVER-BATCH amortization: " + big.name + " (|V|=" +
                          std::to_string(big_n) + "), 64 queries, algo=" +
                          algo_name);
  amort.set_header({"metric", "total_ms", "vs_batch"});
  amort.add_row({"one_shot_64_solvers", one_shot_ms, one_shot_speedup});
  amort.add_row({"warm_64_solves", warm_ms, warm_ms / batch_ms});
  amort.add_row({"solve_batch_64", batch_ms, 1.0});
  amort.add_footer(
      "gate: batch < 2x warm solves AND one-shot >= 1.5x batch "
      "(plan + workspace amortization)");
  bench::emit(amort, args);

  // --- 3. Storage-representation effect on the GraphBLAS variant ----------
  // (record only, no gate: the dense-path perf gate lives in bench_spmspv;
  // the end-to-end trajectory is tracked by BENCH_sssp.json's fig3 table).
  // Same plan, same queries, one Context with density auto-switching on and
  // one with it pinned off — the delta between the rows is what the dual
  // sparse/dense Vector representation buys the unfused Fig. 2 pipeline.
  {
    const GraphPlan plan(big_a, delta);
    (void)plan.light_matrix();  // pay the A_L/A_H split before timing
    (void)plan.heavy_matrix();
    const auto rep_sources = make_sources(big_n, 8);
    ExecOptions exec;

    auto run_all = [&](grb::Context& ctx) {
      for (Index s : rep_sources) {
        (void)delta_stepping_graphblas(plan, ctx, s, exec);
      }
    };
    grb::Context ctx_on, ctx_off;
    ctx_off.auto_representation = false;
    run_all(ctx_on);  // warm both workspace sets
    run_all(ctx_off);

    WallTimer on_timer;
    run_all(ctx_on);
    const double on_ms = on_timer.milliseconds();
    WallTimer off_timer;
    run_all(ctx_off);
    const double off_ms = off_timer.milliseconds();

    TableReporter rep("solver_batch_representation",
                      "SOLVER-BATCH representation: " + big.name +
                          ", 8 graphblas queries, dense auto-switching on/off");
    rep.set_header({"metric", "total_ms", "vs_auto_on"});
    rep.add_row({"auto_representation_on", on_ms, 1.0});
    rep.add_row({"auto_representation_off", off_ms, off_ms / on_ms});
    rep.add_footer("record only; dense-path gate lives in bench_spmspv");
    bench::emit(rep, args);
  }

  // --- 4. Serving: sustained closed-loop traffic through SsspServer. ------
  // Fixed concurrency (4 clients, each submit-then-wait, so exactly 4
  // queries in flight), 32 queries per client against the shared rmat-13
  // plan.  Every even-indexed query draws from an 8-source hot set, so
  // >= 50% of traffic repeats a recent source — the skew a routing service
  // actually sees.  Two legs, identical traffic: cache on vs cache off.
  double serving_qps_on = 0.0;
  double serving_qps_off = 0.0;
  std::uint64_t serving_hits_on = 0;
  std::uint64_t serving_min_hits = 0;
  {
    constexpr int kClients = 4;
    constexpr std::size_t kQueriesPerClient = 32;
    constexpr std::size_t kQueries = kClients * kQueriesPerClient;
    constexpr std::size_t kHotSources = 4;

    auto serving_plan = std::make_shared<const GraphPlan>(big_a, delta);
    const auto source_for = [big_n](int client, std::size_t q) -> Index {
      const std::size_t global =
          static_cast<std::size_t>(client) * kQueriesPerClient + q;
      if (q % 2 == 0) {
        // Hot half: cycles through kHotSources sources, staggered per
        // client so concurrent clients mostly target different sources
        // (fewer duplicate-miss races — the cache has no coalescing).
        const std::size_t hot =
            (static_cast<std::size_t>(client) + q / 2) % kHotSources;
        return static_cast<Index>((hot * 409 + 1) %
                                  static_cast<std::size_t>(big_n));
      }
      return static_cast<Index>((global * 7919 + 13) %
                                static_cast<std::size_t>(big_n));
    };

    struct LegResult {
      double total_ms = 0.0;
      double qps = 0.0;
      double p50_ms = 0.0;
      double p99_ms = 0.0;
      serving::ServerStats stats;
      std::string algorithm;
    };
    const auto run_leg = [&](std::size_t cache_capacity) -> LegResult {
      serving::ServerOptions opt;
      opt.num_workers = 2;
      opt.queue_capacity = 8;
      opt.cache_capacity = cache_capacity;  // 0 disables the cache
      serving::SsspServer server{serving_plan, opt};

      // Untimed warm query (cache-bypassing, so both legs start equal);
      // validated, so the serving numbers come from correct output.
      {
        serving::SsspServer::Query warm;
        warm.source = source_for(0, 1);
        warm.bypass_cache = true;
        const auto result = server.wait(server.submit(warm));
        const auto report =
            validate_sssp(*big_a, warm.source, result.result.dist);
        if (!report.ok) {
          std::cerr << "VALIDATION FAILED (serving): " << report.message
                    << "\n";
          std::exit(1);
        }
      }

      std::vector<std::vector<double>> latencies(kClients);
      std::vector<std::string> errors(kClients);
      WallTimer leg_timer;
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          auto& samples = latencies[static_cast<std::size_t>(t)];
          samples.reserve(kQueriesPerClient);
          for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
            WallTimer query_timer;
            const auto result = server.wait(server.submit(source_for(t, q)));
            samples.push_back(query_timer.milliseconds());
            if (!result.ok() ||
                result.result.status != SsspStatus::kComplete) {
              errors[static_cast<std::size_t>(t)] =
                  "query (" + std::to_string(t) + ", " + std::to_string(q) +
                  ") did not complete: " +
                  (result.ok() ? "bad status" : result.error);
              return;
            }
          }
        });
      }
      for (auto& client : clients) client.join();
      const double total_ms = leg_timer.milliseconds();
      for (const auto& error : errors) {
        if (!error.empty()) {
          std::cerr << "SERVING LEG FAILED: " << error << "\n";
          std::exit(1);
        }
      }

      std::vector<double> all;
      all.reserve(kQueries);
      for (const auto& per_client : latencies) {
        all.insert(all.end(), per_client.begin(), per_client.end());
      }
      std::sort(all.begin(), all.end());
      const auto pct = [&all](double p) {
        const double pos = p * static_cast<double>(all.size() - 1);
        return all[static_cast<std::size_t>(pos + 0.5)];
      };
      LegResult leg;
      leg.total_ms = total_ms;
      leg.qps = total_ms > 0.0
                    ? 1000.0 * static_cast<double>(kQueries) / total_ms
                    : 0.0;
      leg.p50_ms = pct(0.50);
      leg.p99_ms = pct(0.99);
      leg.stats = server.stats();
      leg.algorithm = sssp::algorithm_info(server.default_algorithm()).name;
      return leg;
    };

    const LegResult on = run_leg(256);
    const LegResult off = run_leg(0);
    serving_qps_on = on.qps;
    serving_qps_off = off.qps;
    serving_hits_on = on.stats.cache.hits;
    // Hot half minus its first pass, minus slack for concurrent duplicate
    // misses (two in-flight misses on one source both count as misses).
    serving_min_hits = kQueries / 2 - kHotSources - 8;

    TableReporter serving_table(
        "serving",
        "SOLVER-BATCH serving: " + big.name + " closed loop, " +
            std::to_string(kClients) + " clients x " +
            std::to_string(kQueriesPerClient) + " queries, 2 workers, algo=" +
            on.algorithm + " (auto), hot set " + std::to_string(kHotSources));
    serving_table.set_header({"leg", "queries", "total_ms", "qps", "p50_ms",
                              "p99_ms", "cache_hits", "cache_misses"});
    serving_table.add_row({"cache_on", kQueries, on.total_ms, on.qps,
                           on.p50_ms, on.p99_ms, on.stats.cache.hits,
                           on.stats.cache.misses});
    serving_table.add_row({"cache_off", kQueries, off.total_ms, off.qps,
                           off.p50_ms, off.p99_ms, off.stats.cache.hits,
                           off.stats.cache.misses});
    serving_table.add_footer(
        "gate: cache_on qps >= 1.5x cache_off at >= 50% repeated sources");
    bench::emit(serving_table, args);
  }

  if (check) {
    bool ok = true;
    if (!(warm_ratio < 2.0)) {
      std::cerr << "GATE FAILED: solve_batch(64) took " << batch_ms
                << " ms, >= 2x the 64 warm solves (" << warm_ms << " ms)\n";
      ok = false;
    }
    if (!(one_shot_speedup >= 1.5)) {
      std::cerr << "GATE FAILED: 64 one-shot solvers (" << one_shot_ms
                << " ms) are only " << one_shot_speedup
                << "x of solve_batch(64) (" << batch_ms << " ms); need 1.5x\n";
      ok = false;
    }
    const double cache_speedup =
        serving_qps_off > 0.0 ? serving_qps_on / serving_qps_off : 0.0;
    if (!(cache_speedup >= 1.5)) {
      std::cerr << "GATE FAILED: serving cache-on qps (" << serving_qps_on
                << ") is only " << cache_speedup << "x of cache-off ("
                << serving_qps_off << "); need 1.5x\n";
      ok = false;
    }
    // Traffic honesty: the hot half must actually hit the cache.
    if (serving_hits_on < serving_min_hits) {
      std::cerr << "GATE FAILED: serving cache-on leg saw only "
                << serving_hits_on
                << " cache hits; the 50%-repeated-source traffic shape "
                   "expects >= "
                << serving_min_hits << "\n";
      ok = false;
    }
    if (!ok) return 1;
    // stderr: keeps --json stdout machine-parseable.
    std::cerr << "gate passed: one-shot/batch = "
              << format_double(one_shot_speedup, 2)
              << "x, batch/warm = " << format_double(warm_ratio, 2)
              << "x, serving cache-on/off = "
              << format_double(cache_speedup, 2) << "x\n";
  }
  return 0;
}
