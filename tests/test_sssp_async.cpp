// test_sssp_async.cpp — the lock-free asynchronous relaxation engine
// (rho_stepping + delta_stepping_async).
//
// The engines are *schedule*-nondeterministic: stats counters and round
// structure vary with thread interleaving.  Their *distances* do not — at
// quiescence every edge satisfies dist[v] <= fp(dist[u] + w), and since
// IEEE addition is monotone with non-negative weights the reachable fixed
// point is unique: the min over fp path sums, the same values Dijkstra
// computes.  Every check here therefore goes through the distances-only
// oracle (DSG_CHECK_DISTANCES_ONLY) or compares distance vectors across
// thread counts with exact equality — never through stats.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "capi/graphblas.h"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/async/write_min.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"

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
// Registry contract: both variants registered, flagged nondeterministic and
// threaded, exposed by name.
// ---------------------------------------------------------------------------

TEST(AsyncRegistry, VariantsRegisteredWithHonestFlags) {
  const auto& rho = sssp::algorithm_info(Algorithm::kRhoStepping);
  EXPECT_STREQ(rho.name, "rho_stepping");
  EXPECT_FALSE(rho.deterministic);  // schedule-dependent stats
  EXPECT_TRUE(rho.threaded);
  EXPECT_FALSE(rho.batch_parallel);  // spawns its own threads

  const auto& da = sssp::algorithm_info(Algorithm::kDeltaSteppingAsync);
  EXPECT_STREQ(da.name, "delta_stepping_async");
  EXPECT_FALSE(da.deterministic);
  EXPECT_TRUE(da.threaded);
  EXPECT_FALSE(da.batch_parallel);

  EXPECT_EQ(sssp::find_algorithm("rho_stepping"), &rho);
  EXPECT_EQ(sssp::find_algorithm("delta_stepping_async"), &da);

  // The deterministic engines keep their flag.
  EXPECT_TRUE(sssp::algorithm_info(Algorithm::kFused).deterministic);
  EXPECT_TRUE(sssp::algorithm_info(Algorithm::kDijkstra).deterministic);
}

// ---------------------------------------------------------------------------
// Property sweep: sources x thread counts x tuning knobs, both variants,
// distances-only oracle.  Families chosen to stress both traversal modes:
// the grid keeps frontiers thin (sparse mode), rmat floods them (dense
// switch), the two-islands graph exercises unreachability.
// ---------------------------------------------------------------------------

struct AsyncCase {
  const char* graph;
  double knob;  // delta for delta_stepping_async, rho for rho_stepping
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

TEST_P(AsyncProperty, BothVariantsMatchOracleAcrossSourcesAndThreads) {
  const AsyncCase c = GetParam();
  const auto a = make(c.graph);
  const Index n = a.nrows();
  // One plan at Δ = knob; rho_stepping ignores the plan's Δ.
  const GraphPlan plan(grb::Matrix<double>(a), c.knob);
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

      exec.rho = static_cast<Index>(c.knob);
      DSG_CHECK_DISTANCES_ONLY(
          a, source,
          run_registry(plan, Algorithm::kRhoStepping, source, exec).dist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphsAndKnobs, AsyncProperty,
    ::testing::Values(AsyncCase{"grid", 1.0}, AsyncCase{"grid", 8.0},
                      AsyncCase{"rmat", 0.5}, AsyncCase{"rmat", 64.0},
                      AsyncCase{"islands", 1.0}),
    [](const auto& param_info) {
      return std::string(param_info.param.graph) + "_k" +
             std::to_string(static_cast<int>(param_info.param.knob * 10));
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
  for (const Algorithm alg :
       {Algorithm::kRhoStepping, Algorithm::kDeltaSteppingAsync}) {
    SCOPED_TRACE(sssp::algorithm_info(alg).name);
    auto run = [&](int threads) {
      ExecOptions exec;
      exec.num_threads = threads;
      return run_registry(plan, alg, 3, exec).dist;
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
}

// ---------------------------------------------------------------------------
// Solver integration: solve_batch with duplicate sources stays
// element-identical to per-source solves (warm workspace, flag-array
// all-zero invariant between solves).
// ---------------------------------------------------------------------------

TEST(AsyncSolver, BatchWithDuplicateSourcesMatchesPerSourceLoop) {
  const auto a = random_weighted(200, 600, 29);
  const std::vector<Index> sources = {5, 0, 5, 199, 5, 0};
  for (const Algorithm alg :
       {Algorithm::kRhoStepping, Algorithm::kDeltaSteppingAsync}) {
    SCOPED_TRACE(std::string("algorithm=") + sssp::algorithm_info(alg).name);
    SolverOptions options;
    options.algorithm = alg;
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
}

TEST(AsyncSolver, RhoKnobFlowsThroughSolverOptions) {
  const auto a = random_weighted(150, 450, 43);
  // Extreme rho values change the schedule drastically but never the
  // answer: rho=1 processes ~one vertex per round, huge rho degenerates to
  // Bellman-Ford-ish full-frontier rounds.
  for (const Index rho : {Index{1}, Index{4}, Index{1u << 20}}) {
    SCOPED_TRACE("rho=" + std::to_string(rho));
    SolverOptions options;
    options.algorithm = Algorithm::kRhoStepping;
    options.exec.rho = rho;
    options.exec.num_threads = 2;
    SsspSolver solver(a, options);
    DSG_CHECK_DISTANCES_ONLY(a, 7, solver.solve(7).dist);
  }
}

// ---------------------------------------------------------------------------
// v2 C API: the DSG_SSSP_RHO / DSG_SSSP_DELTA_ASYNC enum values drive the
// same engines end to end.
// ---------------------------------------------------------------------------

TEST(AsyncCapi, RhoAndAsyncDeltaSolveThroughHandles) {
  const auto m = diamond_graph().to_matrix();
  GrB_Matrix a = nullptr;
  ASSERT_EQ(GrB_Matrix_new(&a, m.nrows(), m.ncols()), GrB_SUCCESS);
  m.for_each([&](Index r, Index c, const double& w) {
    GrB_Matrix_setElement_FP64(a, w, r, c);
  });

  const auto want = diamond_distances_from_0();
  struct Variant {
    DsgSsspAlgorithm alg;
    const char* name;
  };
  for (const Variant v : {Variant{DSG_SSSP_RHO, "rho_stepping"},
                          Variant{DSG_SSSP_DELTA_ASYNC,
                                  "delta_stepping_async"}}) {
    SCOPED_TRACE(v.name);
    DsgSolver solver = nullptr;
    ASSERT_EQ(DsgSolver_new(&solver, a, v.alg, 1.0), GrB_SUCCESS);
    const char* name = nullptr;
    ASSERT_EQ(DsgSolver_algorithm_name(&name, solver), GrB_SUCCESS);
    EXPECT_STREQ(name, v.name);

    double dist[5] = {-1, -1, -1, -1, -1};
    ASSERT_EQ(DsgSolver_solve(solver, 0, dist), GrB_SUCCESS);
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_NEAR(dist[k], want[k], 1e-12) << "vertex " << k;
    }
    ASSERT_EQ(DsgSolver_free(&solver), GrB_SUCCESS);
  }
  GrB_Matrix_free(&a);
}

}  // namespace
}  // namespace dsg::test
