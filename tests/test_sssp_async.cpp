// test_sssp_async.cpp — the lock-free asynchronous relaxation engine
// (delta_stepping_async).
//
// The engine is *schedule*-nondeterministic: stats counters and round
// structure vary with thread interleaving.  Its *distances* do not — at
// quiescence every edge satisfies dist[v] <= fp(dist[u] + w), and since
// IEEE addition is monotone with non-negative weights the reachable fixed
// point is unique: the min over fp path sums, the same values Dijkstra
// computes.  Every check here therefore goes through the distances-only
// oracle (DSG_CHECK_DISTANCES_ONLY) or compares distance vectors across
// thread counts with exact equality.  Stats are checked only where they
// do not depend on the schedule: with no edge lighter than Δ (the premise
// of auto_algorithm's async pick), under exec.profile's timers, and in
// level rounds, whose frontier is exactly one hop level at any thread
// count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "capi/graphblas.h"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/async/write_min.hpp"
#include "sssp/query_control.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"
#include "testing/fault_injection.hpp"

namespace dsg::test {
namespace {

using sssp::Algorithm;
using sssp::SolverOptions;
using sssp::SsspSolver;

grb::Matrix<double> random_weighted(Index n, std::size_t extra,
                                    unsigned seed) {
  auto g = generate_connected_random(n, extra, seed);
  assign_uniform_weights(g, 0.05, 4.0, seed + 1);
  g.normalize();
  return g.to_matrix();
}

// ---------------------------------------------------------------------------
// write_min: the one primitive everything else leans on.
// ---------------------------------------------------------------------------

TEST(WriteMin, LowersAndReportsOnlyImprovements) {
  std::atomic<double> slot{10.0};
  EXPECT_TRUE(dsg::async::write_min(slot, 4.0));
  EXPECT_EQ(slot.load(), 4.0);
  EXPECT_FALSE(dsg::async::write_min(slot, 4.0));  // ties are not improvements
  EXPECT_FALSE(dsg::async::write_min(slot, 7.0));
  EXPECT_EQ(slot.load(), 4.0);
}

TEST(WriteMin, ConcurrentWritersConvergeToGlobalMin) {
  // Hammer one slot from several threads (barrier-started, so the writers
  // genuinely overlap); whatever the interleaving, the slot must end at
  // the global minimum of everything written.
  std::atomic<double> slot{1e9};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  run_concurrent_stress(kThreads, 1, [&slot](int t, std::mt19937_64&) {
    for (int k = 0; k < kPerThread; ++k) {
      dsg::async::write_min(slot,
                            static_cast<double>((k * kThreads + t) % 977));
    }
  });
  EXPECT_EQ(slot.load(), 0.0);  // 0 == (k*kThreads+t) % 977 is hit by t=0,k=0
}

// ---------------------------------------------------------------------------
// Registry contract: the variant is registered, flagged nondeterministic
// and threaded, exposed by name.
// ---------------------------------------------------------------------------

TEST(AsyncRegistry, VariantsRegisteredWithHonestFlags) {
  const auto& da = sssp::algorithm_info(Algorithm::kDeltaSteppingAsync);
  EXPECT_STREQ(da.name, "delta_stepping_async");
  EXPECT_FALSE(da.deterministic);  // schedule-dependent stats
  EXPECT_TRUE(da.threaded);

  EXPECT_EQ(sssp::find_algorithm("delta_stepping_async"), &da);

  // The deterministic engines keep their flag.
  EXPECT_TRUE(sssp::algorithm_info(Algorithm::kFused).deterministic);
  EXPECT_TRUE(sssp::algorithm_info(Algorithm::kDijkstra).deterministic);
}

// ---------------------------------------------------------------------------
// Property sweep: sources x thread counts x Δ, distances-only oracle.
// Families chosen to stress both traversal modes: the grid keeps frontiers
// thin (sparse mode), rmat floods them (dense switch), the two-islands
// graph exercises unreachability.  The extreme Δs force extreme schedules
// on the grid: 1e-12 about one vertex per round, 1e300 a single round,
// and 1e-300 loses the bucket's +1 in floating point, so a round admits
// nothing and the engine's flush path runs.  Only distances are checked;
// round counts are schedule-dependent.
// ---------------------------------------------------------------------------

struct AsyncCase {
  const char* graph;
  double delta;
  const char* label;  // test-name suffix
};

class AsyncProperty : public ::testing::TestWithParam<AsyncCase> {
 protected:
  static grb::Matrix<double> make(const std::string& which) {
    if (which == "grid") {
      auto g = generate_grid2d(14, 14);
      g.symmetrize();
      assign_uniform_weights(g, 0.1, 2.0, 7);
      g.normalize();
      return g.to_matrix();
    }
    if (which == "rmat") {
      auto g = generate_rmat({.scale = 7, .edge_factor = 8, .seed = 5});
      g.symmetrize();
      assign_exponential_weights(g, 2.0, 6);
      g.normalize();
      return g.to_matrix();
    }
    return two_islands_graph().to_matrix();
  }
};

TEST_P(AsyncProperty, MatchesOracleAcrossSourcesAndThreads) {
  const AsyncCase c = GetParam();
  const auto a = make(c.graph);
  const Index n = a.nrows();
  const GraphPlan plan(grb::Matrix<double>(a), c.delta);
  for (Index source : {Index{0}, n / 2, n - 1}) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE("graph=" + std::string(c.graph) +
                   " source=" + std::to_string(source) +
                   " threads=" + std::to_string(threads));
      ExecOptions exec;
      exec.num_threads = threads;
      DSG_CHECK_DISTANCES_ONLY(
          a, source,
          run_registry(plan, Algorithm::kDeltaSteppingAsync, source, exec)
              .dist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndDeltas, AsyncProperty,
    ::testing::Values(AsyncCase{"grid", 1.0, "k10"},
                      AsyncCase{"grid", 8.0, "k80"},
                      AsyncCase{"grid", 1e-12, "one_vertex_per_round"},
                      AsyncCase{"grid", 1e300, "one_round"},
                      AsyncCase{"grid", 1e-300, "empty_window"},
                      AsyncCase{"rmat", 0.5, "k5"},
                      AsyncCase{"rmat", 64.0, "k640"},
                      AsyncCase{"islands", 1.0, "k10"}),
    [](const auto& param_info) {
      return std::string(param_info.param.graph) + "_" +
             param_info.param.label;
    });

// ---------------------------------------------------------------------------
// Value determinism: distance vectors are bit-identical across 1 / 2 / max
// threads (the fp-fixed-point argument, checked with EXPECT_EQ, no
// tolerance).
// ---------------------------------------------------------------------------

TEST(AsyncDeterminism, DistancesBitIdenticalAcrossThreadCounts) {
  const GraphPlan plan(random_weighted(350, 1400, 71), 0.7);
  const int hw = static_cast<int>(
      std::max(2u, std::thread::hardware_concurrency()));
  auto run = [&](int threads) {
    ExecOptions exec;
    exec.num_threads = threads;
    return run_registry(plan, Algorithm::kDeltaSteppingAsync, 3, exec).dist;
  };
  const auto serial = run(1);
  for (int threads : {2, hw}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t v = 0; v < serial.size(); ++v) {
      EXPECT_EQ(parallel[v], serial[v])
          << "threads=" << threads << " vertex " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// The premise of auto_algorithm's async pick: with every weight >= Δ a
// relaxation from the window [iΔ, (i+1)Δ) lands at or past (i+1)Δ, so no
// vertex re-enters the round that expanded it and each reached vertex is
// expanded exactly once, at any thread count.  Integer weights at Δ 1 keep
// every bucket bound exact.
// ---------------------------------------------------------------------------

grb::Matrix<double> rmat12(int max_weight) {
  auto g = generate_rmat({.scale = 12, .edge_factor = 12, .seed = 3});
  g.symmetrize();
  g.normalize();
  assign_integer_weights(g, 1, max_weight, 9);
  return g.to_matrix();
}

TEST(AsyncWork, ExpandsEachReachedVertexOnceWhenNoEdgeIsLighterThanDelta) {
  for (const int max_weight : {1, 3}) {  // unit, then weights {1, 2, 3}
    const auto a = rmat12(max_weight);
    const GraphPlan plan(grb::Matrix<double>(a), 1.0);
    for (const Index source : {Index{0}, a.nrows() / 2 + 7}) {
      for (const int threads : {1, 2}) {
        SCOPED_TRACE("weights 1.." + std::to_string(max_weight) +
                     " source " + std::to_string(source) + " threads " +
                     std::to_string(threads));
        ExecOptions exec;
        exec.num_threads = threads;
        const SsspResult r =
            run_registry(plan, Algorithm::kDeltaSteppingAsync, source, exec);
        DSG_CHECK_DISTANCES_ONLY(a, source, r.dist);
        const auto reached = static_cast<std::uint64_t>(std::count_if(
            r.dist.begin(), r.dist.end(),
            [](double d) { return std::isfinite(d); }));
        EXPECT_GT(reached, 1u);
        EXPECT_EQ(r.stats.relax_requests, reached);
      }
    }
  }
}

// Under exec.profile the engine times its relaxation rounds as light and
// the coordinator's bookkeeping as vector work; it has no heavy phase, and
// without the flag every timer stays 0.
TEST(AsyncWork, ProfileFillsLightAndVectorTimers) {
  const GraphPlan plan(rmat12(3), 1.0);
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExecOptions exec;
    exec.num_threads = threads;
    const SsspResult plain =
        run_registry(plan, Algorithm::kDeltaSteppingAsync, 0, exec);
    EXPECT_EQ(plain.stats.light_seconds, 0.0);
    EXPECT_EQ(plain.stats.heavy_seconds, 0.0);
    EXPECT_EQ(plain.stats.vector_seconds, 0.0);

    exec.profile = true;
    const auto start = std::chrono::steady_clock::now();
    const SsspResult timed =
        run_registry(plan, Algorithm::kDeltaSteppingAsync, 0, exec);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GT(timed.stats.light_seconds, 0.0);
    EXPECT_GT(timed.stats.vector_seconds, 0.0);
    EXPECT_EQ(timed.stats.heavy_seconds, 0.0);
    EXPECT_LE(timed.stats.light_seconds + timed.stats.vector_seconds, wall);
    EXPECT_EQ(timed.dist, plain.dist);
  }
}

// ---------------------------------------------------------------------------
// Level rounds: every stored weight has the same bits w and the pattern is
// symmetric, so the k-th hop level sits at the k-fold left-to-right sum of
// w and the engine runs one level per round, pushing sparse levels and
// pulling dense ones.  Every case compares bits with Dijkstra at 1, 2 and
// 4 threads, at any Δ (the level rounds do not bucket).
// ---------------------------------------------------------------------------

/// Two rmat parts in disjoint id ranges, a 32-vertex path hanging off
/// vertex 0, self-loops on every 5th vertex of the first part, and 8
/// isolated vertices at the end, every edge weighing w.  From vertex 0 the
/// dense levels pull and the path's levels push after them.
grb::Matrix<double> uniform_parts(double w) {
  const EdgeList big =
      generate_rmat({.scale = 10, .edge_factor = 8, .seed = 21});
  const EdgeList small =
      generate_rmat({.scale = 7, .edge_factor = 4, .seed = 22});
  const Index offset = big.num_vertices();
  const Index tail = offset + small.num_vertices();
  constexpr Index kTail = 32;
  EdgeList g(tail + kTail + 8);
  for (const auto& e : big.edges()) g.add_edge(e.src, e.dst, w);
  for (const auto& e : small.edges()) {
    g.add_edge(offset + e.src, offset + e.dst, w);
  }
  g.add_edge(0, tail, w);
  for (Index v = tail; v + 1 < tail + kTail; ++v) g.add_edge(v, v + 1, w);
  g.symmetrize();
  g.normalize();
  for (Index v = 0; v < offset; v += 5) g.add_edge(v, v, w);
  return g.to_matrix();
}

void expect_dijkstra_bits(const grb::Matrix<double>& a, Index source,
                          const std::vector<double>& dist) {
  const std::vector<double> want = dijkstra(a, source).dist;
  ASSERT_EQ(dist.size(), want.size());
  EXPECT_EQ(std::memcmp(dist.data(), want.data(),
                        want.size() * sizeof(double)),
            0);
}

struct LevelCase {
  double weight;
  double delta_per_weight;  ///< Δ / w; 0 = auto Δ
  const char* label;
};

class AsyncLevel : public ::testing::TestWithParam<LevelCase> {};

TEST_P(AsyncLevel, MatchesDijkstraBitsAtAnyThreadCount) {
  const LevelCase c = GetParam();
  const auto a = uniform_parts(c.weight);
  const Index n = a.nrows();
  const GraphPlan plan(grb::Matrix<double>(a),
                       c.delta_per_weight * c.weight);
  ASSERT_EQ(plan.uniform_symmetric_weight(), c.weight);
  // A hub of the big part, a vertex of the small one (the big part has
  // 2^10 vertices), an isolated vertex.
  for (const Index source : {Index{0}, Index{1024 + 3}, n - 1}) {
    SsspStats serial;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE("source " + std::to_string(source) + " threads " +
                   std::to_string(threads));
      ExecOptions exec;
      exec.num_threads = threads;
      const SsspResult r =
          run_registry(plan, Algorithm::kDeltaSteppingAsync, source, exec);
      expect_dijkstra_bits(a, source, r.dist);
      const auto reached = static_cast<std::uint64_t>(std::count_if(
          r.dist.begin(), r.dist.end(),
          [](double d) { return std::isfinite(d); }));
      EXPECT_EQ(r.stats.relax_requests, reached);
      EXPECT_EQ(r.stats.light_phases, r.stats.outer_iterations);
      if (threads == 1) {
        serial = r.stats;
      } else {  // one level per round, whatever the schedule
        EXPECT_EQ(r.stats.outer_iterations, serial.outer_iterations);
        EXPECT_EQ(r.stats.pull_rounds, serial.pull_rounds);
      }
    }
    if (source == 0) {
      EXPECT_GT(serial.pull_rounds, 0u);
    }
    if (source == n - 1) {
      EXPECT_EQ(serial.outer_iterations, 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WeightsAndDeltas, AsyncLevel,
    ::testing::Values(LevelCase{1.0, 0.0, "w1_auto"},
                      LevelCase{1.0, 0.25, "w1_below"},
                      LevelCase{1.0, 4.0, "w1_above"},
                      LevelCase{0.1, 0.0, "w01_auto"},
                      LevelCase{0.1, 0.25, "w01_below"},
                      LevelCase{0.1, 4.0, "w01_above"},
                      LevelCase{3.0, 0.0, "w3_auto"},
                      LevelCase{3.0, 0.25, "w3_below"},
                      LevelCase{3.0, 4.0, "w3_above"}),
    [](const auto& param_info) {
      return std::string(param_info.param.label);
    });

TEST(AsyncLevel, DirectedUniformGraphDoesNotPull) {
  // rmat without symmetrize: one weight, but A(i,j) without A(j,i), so a
  // row does not list its in-neighbours and the eager rounds run.
  auto g = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 23});
  g.normalize();
  assign_unit_weights(g);
  const auto a = g.to_matrix();
  const GraphPlan plan(grb::Matrix<double>(a), 1.0);
  EXPECT_EQ(plan.uniform_symmetric_weight(), std::nullopt);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExecOptions exec;
    exec.num_threads = threads;
    const SsspResult r =
        run_registry(plan, Algorithm::kDeltaSteppingAsync, 0, exec);
    expect_dijkstra_bits(a, 0, r.dist);
    EXPECT_EQ(r.stats.pull_rounds, 0u);
    EXPECT_EQ(r.stats.light_phases, r.stats.outer_iterations);
  }
}

TEST(AsyncLevel, UniformSymmetricWeightChecksBitsAndMirrors) {
  const auto plan_of = [](const EdgeList& g) {
    return GraphPlan(g.to_matrix(), 1.0).uniform_symmetric_weight();
  };
  EXPECT_EQ(plan_of(path_graph(6)), 1.0);

  // A directed 3-cycle: every vertex has in- and out-degree 1, but no
  // edge has its mirror.
  EdgeList cycle(3);
  cycle.add_edge(0, 1, 1.0);
  cycle.add_edge(1, 2, 1.0);
  cycle.add_edge(2, 0, 1.0);
  EXPECT_EQ(plan_of(cycle), std::nullopt);

  // The path with one mirror missing, in the last row.
  EdgeList one_way = path_graph(6);
  one_way.add_edge(5, 0, 1.0);
  EXPECT_EQ(plan_of(one_way), std::nullopt);

  // Self-loops mirror themselves; an isolated vertex has no row to check.
  EdgeList loops = path_graph(6);
  loops.add_edge(0, 0, 1.0);
  loops.add_edge(3, 3, 1.0);
  EdgeList padded(8);
  for (const auto& e : loops.edges()) padded.add_edge(e.src, e.dst, e.weight);
  EXPECT_EQ(plan_of(padded), 1.0);

  // Equal patterns, weights one ulp apart.
  const EdgeList path = path_graph(6);
  EdgeList ulp(6);
  for (const auto& e : path.edges()) {
    const bool bump = e.src == 2 && e.dst == 3;
    ulp.add_edge(e.src, e.dst, bump ? std::nextafter(1.0, 2.0) : e.weight);
  }
  EXPECT_EQ(plan_of(ulp), std::nullopt);

  EXPECT_EQ(plan_of(EdgeList(5)), std::nullopt);  // no edges
}

TEST(AsyncLevel, SolveEndingInAPullRoundLeavesTheWorkspaceClean) {
  // A unit star: from the centre, round 1 pulls with nothing left to
  // claim; from a leaf, round 1 pulls every other leaf and round 2 pulls
  // nothing.  Both end after a pull round, whose frontier flags were read
  // and not consumed; each later solve on the same workspace must still
  // be exact.
  const auto a = generate_star(300).to_matrix();
  const GraphPlan plan{grb::Matrix<double>(a)};
  for (const int threads : {1, 2, 4}) {
    ExecOptions exec;
    exec.num_threads = threads;
    for (const Index source : {Index{0}, Index{7}, Index{0}, Index{299}}) {
      SCOPED_TRACE("source " + std::to_string(source) + " threads " +
                   std::to_string(threads));
      const SsspResult r =
          run_registry(plan, Algorithm::kDeltaSteppingAsync, source, exec);
      expect_dijkstra_bits(a, source, r.dist);
      EXPECT_GT(r.stats.pull_rounds, 0u);
    }
  }
}

TEST(AsyncLevel, InterruptedPullRunReturnsUpperBoundsAndStaysReusable) {
  const auto a = uniform_parts(1.0);
  const GraphPlan plan(grb::Matrix<double>(a), 1.0);
  const std::vector<double> oracle = dijkstra(a, 0).dist;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExecOptions exec;
    exec.num_threads = threads;
    QueryControl control;
    exec.control = &control;
    // Cancel at the third round edge, after round 2: round 0 pushes from
    // the hub, rounds 1 and 2 pull, and the tail's far end is unreached.
    testing::FaultSpec cancel;
    cancel.point = "async/coordinate";
    cancel.on_hit = 2;
    cancel.action = testing::FaultSpec::Action::kCallback;
    cancel.callback = [&control] { control.request_cancel(); };
    {
      testing::ScopedFaults faults(/*seed=*/7, {cancel});
      const SsspResult r =
          run_registry(plan, Algorithm::kDeltaSteppingAsync, 0, exec);
      EXPECT_EQ(r.status, SsspStatus::kCancelled);
      EXPECT_GT(r.stats.pull_rounds, 0u);
      ASSERT_EQ(r.dist.size(), oracle.size());
      bool partial = false;
      for (std::size_t v = 0; v < oracle.size(); ++v) {
        EXPECT_GE(r.dist[v], oracle[v]) << "vertex " << v;
        partial = partial || r.dist[v] != oracle[v];
      }
      EXPECT_TRUE(partial);
    }
    // The scrubbed workspace serves exact answers again.
    control.reset();
    for (const Index source : {Index{0}, Index{5}}) {
      expect_dijkstra_bits(
          a, source,
          run_registry(plan, Algorithm::kDeltaSteppingAsync, source, exec)
              .dist);
    }
  }
}

TEST(AsyncLevel, SavedAndLoadedPlanSolvesBitIdentically) {
  const auto a = uniform_parts(0.1);
  const GraphPlan plan{grb::Matrix<double>(a)};
  const std::string path = ::testing::TempDir() + "dsg_async_level.plan";
  plan.save(path);
  const GraphPlan loaded = GraphPlan::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.uniform_symmetric_weight(), 0.1);
  for (const int threads : {1, 2, 4}) {
    ExecOptions exec;
    exec.num_threads = threads;
    for (const Index source : {Index{0}, Index{77}}) {
      SCOPED_TRACE("source " + std::to_string(source) + " threads " +
                   std::to_string(threads));
      const SsspResult fresh =
          run_registry(plan, Algorithm::kDeltaSteppingAsync, source, exec);
      const SsspResult again =
          run_registry(loaded, Algorithm::kDeltaSteppingAsync, source, exec);
      ASSERT_EQ(again.dist.size(), fresh.dist.size());
      EXPECT_EQ(std::memcmp(again.dist.data(), fresh.dist.data(),
                            fresh.dist.size() * sizeof(double)),
                0);
      EXPECT_EQ(again.stats.pull_rounds, fresh.stats.pull_rounds);
      expect_dijkstra_bits(a, source, again.dist);
    }
  }
}

// ---------------------------------------------------------------------------
// Solver integration: solve_batch with duplicate sources stays
// element-identical to per-source solves (warm workspace, flag-array
// all-zero invariant between solves).
// ---------------------------------------------------------------------------

TEST(AsyncSolver, BatchWithDuplicateSourcesMatchesPerSourceLoop) {
  const auto a = random_weighted(200, 600, 29);
  const std::vector<Index> sources = {5, 0, 5, 199, 5, 0};
  SolverOptions options;
  options.algorithm = Algorithm::kDeltaSteppingAsync;
  options.delta = 0.9;
  options.exec.num_threads = 2;
  SsspSolver solver(a, options);
  const auto batched = solver.solve_batch(sources);
  ASSERT_EQ(batched.size(), sources.size());
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const auto single = solver.solve(sources[k]);
    ASSERT_EQ(batched[k].dist.size(), single.dist.size());
    for (std::size_t v = 0; v < single.dist.size(); ++v) {
      EXPECT_EQ(batched[k].dist[v], single.dist[v])
          << "query " << k << " vertex " << v;
    }
    DSG_CHECK_DISTANCES_ONLY(a, sources[k], batched[k].dist);
  }
}

// ---------------------------------------------------------------------------
// v2 C API: the DSG_SSSP_DELTA_ASYNC enum value drives the same engine end
// to end.
// ---------------------------------------------------------------------------

TEST(AsyncCapi, AsyncDeltaSolvesThroughHandles) {
  const auto m = diamond_graph().to_matrix();
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, m.nrows(), m.ncols()), GrB_SUCCESS);
  m.for_each([&](Index r, Index c, const double& w) {
    GrB_Matrix_setElement_FP64(a, w, r, c);
  });

  const auto want = diamond_distances_from_0();
  DsgSolver solver = nullptr;
  ASSERT_EQ(DsgSolver_new(&solver, a, DSG_SSSP_DELTA_ASYNC, 1.0),
            GrB_SUCCESS);
  const char* name = nullptr;
  ASSERT_EQ(DsgSolver_algorithm_name(&name, solver), GrB_SUCCESS);
  EXPECT_STREQ(name, "delta_stepping_async");

  double dist[5] = {-1, -1, -1, -1, -1};
  ASSERT_EQ(DsgSolver_solve(solver, 0, dist), GrB_SUCCESS);
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_NEAR(dist[k], want[k], 1e-12) << "vertex " << k;
  }
  ASSERT_EQ(DsgSolver_free(&solver), GrB_SUCCESS);
  GrB_Matrix_free(&a);
}

}  // namespace
}  // namespace dsg::test
