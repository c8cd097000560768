// Fault-injection tests: the injection machinery itself (determinism,
// trigger semantics), allocation-failure sweeps over every algorithm's
// yield points with recovery afterwards, catalog honesty, and the C-API
// error-code mapping under injected faults.
//
// The suites run under ASan and TSan in CI: "pass" here also means no
// leak on any injected-throw path, no deadlock in the async engine when a
// worker dies, and no exception escaping an extern "C" or OpenMP boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <new>
#include <string>
#include <vector>

#include "capi/graphblas.h"
#include "serving/server.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"
#include "testing/fault_injection.hpp"

namespace {

using dsg::QueryControl;
using dsg::SsspResult;
using dsg::SsspStatus;
using dsg::sssp::Algorithm;
using dsg::sssp::BatchOptions;
using dsg::sssp::SolverOptions;
using dsg::sssp::SsspSolver;
using dsg::testing::FaultSpec;
using dsg::testing::ScopedFaults;
using grb::Index;

SsspSolver make_solver(Algorithm algorithm, const dsg::EdgeList& g) {
  SolverOptions options;
  options.algorithm = algorithm;
  // Δ = 1 keeps the diamond graph's bucket count at ~5+, so "fire on hit
  // 2 of <variant>/round" is guaranteed to be reachable in every sweep.
  options.delta = 1.0;
  return SsspSolver(g.to_matrix(), options);
}

FaultSpec throw_at(const char* point, std::int64_t hit) {
  FaultSpec spec;
  spec.point = point;
  spec.on_hit = hit;
  return spec;
}

// --- The machinery itself. ---------------------------------------------------

TEST(FaultInjection, InactiveByDefault) {
  EXPECT_FALSE(dsg::testing::faults_active());
  dsg::testing::fault_point("no/such/point");  // must be a no-op
  EXPECT_EQ(dsg::testing::fault_point_hits("no/such/point"), 0u);
  EXPECT_TRUE(dsg::testing::touched_fault_points().empty());
}

TEST(FaultInjection, EmptyTableCountsHitsWithoutFiring) {
  ScopedFaults faults(1, {});
  EXPECT_TRUE(dsg::testing::faults_active());
  dsg::testing::fault_point("p");
  dsg::testing::fault_point("p");
  dsg::testing::fault_point("q");
  EXPECT_EQ(dsg::testing::fault_point_hits("p"), 2u);
  EXPECT_EQ(dsg::testing::fault_point_hits("q"), 1u);
  const auto touched = dsg::testing::touched_fault_points();
  EXPECT_EQ(touched.size(), 2u);
}

TEST(FaultInjection, OnHitFiresExactlyOnce) {
  ScopedFaults faults(1, {throw_at("p", 2)});
  dsg::testing::fault_point("p");  // hit 0
  dsg::testing::fault_point("p");  // hit 1
  EXPECT_THROW(dsg::testing::fault_point("p"), std::bad_alloc);  // hit 2
  dsg::testing::fault_point("p");  // hit 3 — past the trigger
}

TEST(FaultInjection, PerPointHitCountersAreIndependent) {
  ScopedFaults faults(1, {throw_at("p", 1)});
  dsg::testing::fault_point("q");  // q's hit 0 must not advance p
  dsg::testing::fault_point("p");  // p hit 0
  EXPECT_THROW(dsg::testing::fault_point("p"), std::bad_alloc);  // p hit 1
}

TEST(FaultInjection, WildcardMatchesEveryPoint) {
  ScopedFaults faults(1, {throw_at("*", 0)});
  EXPECT_THROW(dsg::testing::fault_point("anything"), std::bad_alloc);
  // Each point has its own hit counter, so another point's hit 0 fires too.
  EXPECT_THROW(dsg::testing::fault_point("elsewhere"), std::bad_alloc);
}

TEST(FaultInjection, KeyedTriggerIgnoresHitOrder) {
  FaultSpec spec;
  spec.point = "p";
  spec.with_key = 7;
  ScopedFaults faults(1, {spec});
  dsg::testing::fault_point("p", 3);
  dsg::testing::fault_point("p", 9);
  EXPECT_THROW(dsg::testing::fault_point("p", 7), std::bad_alloc);
  dsg::testing::fault_point("p", 8);
  EXPECT_THROW(dsg::testing::fault_point("p", 7), std::bad_alloc);
}

TEST(FaultInjection, OneInEveryHitFiresAlways) {
  FaultSpec spec;
  spec.point = "p";
  spec.one_in = 1;
  ScopedFaults faults(1, {spec});
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(dsg::testing::fault_point("p"), std::bad_alloc);
  }
}

TEST(FaultInjection, OneInPatternIsSeedDeterministic) {
  FaultSpec spec;
  spec.point = "p";
  spec.one_in = 3;
  auto pattern_for_seed = [&](std::uint64_t seed) {
    ScopedFaults faults(seed, {spec});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool hit = false;
      try {
        dsg::testing::fault_point("p");
      } catch (const std::bad_alloc&) {
        hit = true;
      }
      fired.push_back(hit);
    }
    return fired;
  };
  const auto a = pattern_for_seed(42);
  const auto b = pattern_for_seed(42);
  EXPECT_EQ(a, b);  // replayable
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);  // it does fire...
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);  // ...but not always
}

TEST(FaultInjection, DelayActionSleepsInsteadOfThrowing) {
  FaultSpec spec;
  spec.point = "p";
  spec.one_in = 1;
  spec.action = FaultSpec::Action::kDelay;
  spec.delay = std::chrono::microseconds(50);
  ScopedFaults faults(1, {spec});
  dsg::testing::fault_point("p");  // must return, not throw
  EXPECT_EQ(dsg::testing::fault_point_hits("p"), 1u);
}

// --- Allocation-failure sweep: every algorithm's yield points. ---------------
//
// For each (algorithm, fault point) pair: inject a bad_alloc at an early
// hit, require the solve to surface it as an exception (never a terminate,
// a deadlock, or a leak — ASan/TSan enforce the latter two), then clear
// faults and require the SAME solver to produce exact distances.  Recovery
// is the sharp edge: a throw must not leave a stale workspace behind.

struct SweepCase {
  Algorithm algorithm;
  const char* point;
};

void check_throw_then_recover(const SweepCase& c, std::int64_t hit) {
  SCOPED_TRACE(std::string(c.point) + " hit " + std::to_string(hit));
  const auto g = dsg::test::diamond_graph();
  SsspSolver solver = make_solver(c.algorithm, g);
  {
    ScopedFaults faults(1, {throw_at(c.point, hit)});
    EXPECT_THROW(solver.solve(0), std::bad_alloc);
  }
  SsspResult r = solver.solve(0);
  EXPECT_EQ(r.status, SsspStatus::kComplete);
  dsg::test::expect_distances(r.dist, dsg::test::diamond_distances_from_0(),
                              "recovery");
}

TEST(FaultSweep, BucketsRound) {
  check_throw_then_recover({Algorithm::kBuckets, "buckets/round"}, 0);
  check_throw_then_recover({Algorithm::kBuckets, "buckets/round"}, 2);
}

TEST(FaultSweep, FusedRound) {
  check_throw_then_recover({Algorithm::kFused, "fused/round"}, 0);
  check_throw_then_recover({Algorithm::kFused, "fused/round"}, 2);
}

TEST(FaultSweep, GraphblasRound) {
  check_throw_then_recover({Algorithm::kGraphblas, "graphblas/round"}, 0);
}

TEST(FaultSweep, GraphblasSelectRound) {
  check_throw_then_recover(
      {Algorithm::kGraphblasSelect, "graphblas_select/round"}, 0);
}

TEST(FaultSweep, CapiRound) {
  // The capi core owns eight GrB_Vector handles; the throw path must free
  // them all (ASan leak check is the assertion that matters here).
  check_throw_then_recover({Algorithm::kCapi, "capi/round"}, 0);
  check_throw_then_recover({Algorithm::kCapi, "capi/round"}, 1);
}

TEST(FaultSweep, OpenmpRound) {
  // openmp runs the fused loop, so it shares fused's round point.  On a
  // team the throw happens inside an OpenMP single block: it must be
  // captured and rethrown after the region, never allowed to terminate the
  // process.
  check_throw_then_recover({Algorithm::kOpenmp, "fused/round"}, 0);
  check_throw_then_recover({Algorithm::kOpenmp, "fused/round"}, 2);
}

TEST(FaultSweep, DijkstraSettle) {
  check_throw_then_recover({Algorithm::kDijkstra, "dijkstra/settle"}, 0);
  check_throw_then_recover({Algorithm::kDijkstra, "dijkstra/settle"}, 3);
}

TEST(FaultSweep, BellmanFordRelax) {
  check_throw_then_recover({Algorithm::kBellmanFord, "bellman_ford/relax"}, 0);
  check_throw_then_recover({Algorithm::kBellmanFord, "bellman_ford/relax"}, 3);
}

TEST(FaultSweep, SolverEntry) {
  check_throw_then_recover({Algorithm::kFused, "solver/solve"}, 0);
}

// The async engine cases: the faulting worker must record its failure and
// still reach both round barriers, or the sweep deadlocks right here.
TEST(FaultSweep, AsyncWorkerRound) {
  check_throw_then_recover({Algorithm::kDeltaSteppingAsync, "async/round"}, 0);
  check_throw_then_recover({Algorithm::kDeltaSteppingAsync, "async/round"}, 2);
}

TEST(FaultSweep, AsyncCoordinator) {
  check_throw_then_recover(
      {Algorithm::kDeltaSteppingAsync, "async/coordinate"}, 0);
}

TEST(FaultSweep, AsyncEngineSurvivesRepeatedFaults) {
  // A larger graph and a probabilistic trigger: many rounds, many workers,
  // faults landing at schedule-dependent moments.  Every iteration must
  // either complete exactly or throw cleanly — and the next one must be
  // exact after faults clear.
  const auto g = dsg::test::path_graph(512);
  SsspSolver solver = make_solver(Algorithm::kDeltaSteppingAsync, g);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    FaultSpec spec;
    spec.point = "async/round";
    spec.one_in = 37;
    ScopedFaults faults(seed, {spec});
    try {
      SsspResult r = solver.solve(0);
      DSG_CHECK_DISTANCES_ONLY(solver.plan().matrix(), 0, r.dist);
    } catch (const std::bad_alloc&) {
      // contained failure — fine
    }
  }
  dsg::testing::clear_faults();
  SsspResult r = solver.solve(0);
  dsg::test::expect_distances(r.dist, dsg::test::path_distances_from_0(512),
                              "after fault storm");
}

// --- Serving-layer yield points: throw, then recover. ------------------------

TEST(FaultSweep, ServingPlanLoad) {
  const std::string path = ::testing::TempDir() + "dsg_fault_plan.plan";
  dsg::GraphPlan plan(dsg::test::diamond_graph().to_matrix(), 1.0);
  plan.save(path);
  {
    ScopedFaults faults(1, {throw_at("serving/plan_load", 0)});
    EXPECT_THROW(dsg::GraphPlan::load(path), std::bad_alloc);
  }
  // The same file loads cleanly once faults clear — the throw left no
  // half-open mapping or stream behind.
  dsg::GraphPlan loaded = dsg::GraphPlan::load(path);
  EXPECT_EQ(loaded.fingerprint(), plan.fingerprint());
  std::remove(path.c_str());
}

TEST(FaultSweep, ServingPoolEnqueue) {
  dsg::serving::SsspServer server(dsg::test::diamond_graph().to_matrix());
  {
    ScopedFaults faults(1, {throw_at("serving/pool_enqueue", 0)});
    // The throw happens before a ticket is issued: nothing to redeem,
    // nothing counted as submitted.
    EXPECT_THROW(server.submit(0), std::bad_alloc);
  }
  EXPECT_EQ(server.stats().submitted, 0u);
  const dsg::sssp::QueryResult r = server.wait(server.submit(0));
  ASSERT_TRUE(r.ok()) << r.error;
  dsg::test::expect_distances(r.result.dist,
                              dsg::test::diamond_distances_from_0(),
                              "after enqueue fault");
}

TEST(FaultSweep, ServingCacheInsertFailureIsBestEffort) {
  dsg::serving::SsspServer server(dsg::test::diamond_graph().to_matrix());
  {
    ScopedFaults faults(1, {throw_at("serving/cache_insert", 0)});
    // The insert throw must NOT fail the query: the caller still gets its
    // exact distances; only the accounting records the dropped insert.
    const dsg::sssp::QueryResult r = server.wait(server.submit(0));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.result.status, SsspStatus::kComplete);
    dsg::test::expect_distances(r.result.dist,
                                dsg::test::diamond_distances_from_0(),
                                "during insert fault");
  }
  dsg::serving::ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_insert_failures, 1u);
  EXPECT_EQ(stats.cache.entries, 0u);
  // Recovery: the next identical query misses (nothing was cached), solves,
  // and this time its insert lands.
  ASSERT_TRUE(server.wait(server.submit(0)).ok());
  stats = server.stats();
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

// (serving/worker_query's isolation contract — one poisoned query fails
// alone, the pool recovers — is covered in test_serving.cpp.)

// --- Catalog honesty. --------------------------------------------------------

/// Touches every serving-layer fault point: a solved query (pool_enqueue,
/// worker_query, cache_insert), its repeat answered from the cache
/// (cache_hit) and a plan-file load (plan_load).
void run_serving_workload() {
  dsg::serving::ServerOptions options;
  options.num_workers = 1;
  dsg::serving::SsspServer server(dsg::test::diamond_graph().to_matrix(),
                                  options);
  ASSERT_TRUE(server.wait(server.submit(0)).ok());
  ASSERT_TRUE(server.wait(server.submit(0)).ok());
  const std::string path = ::testing::TempDir() + "dsg_catalog.plan";
  server.plan().save(path);
  dsg::GraphPlan::load(path);
  std::remove(path.c_str());
}

TEST(FaultCatalog, EveryCatalogPointIsReachable) {
  // Run the workloads that should visit every named point, with an empty
  // fault table (accounting only), then compare against the catalog.
  ScopedFaults faults(1, {});
  const auto g = dsg::test::diamond_graph();
  for (const auto& info : dsg::sssp::algorithm_registry()) {
    SsspSolver solver = make_solver(info.id, g);
    solver.solve(0);
  }
  {
    SsspSolver solver = make_solver(Algorithm::kFused, g);
    const std::vector<Index> sources = {0, 1};
    solver.solve_batch(sources, BatchOptions{});
  }
  {
    GrB_Vector v = nullptr;
    ASSERT_EQ(GrB_Vector_new(&v, 3), GrB_SUCCESS);
    GrB_Vector_free(&v);
  }
  run_serving_workload();

  const auto touched = dsg::testing::touched_fault_points();
  for (const char* name : dsg::testing::fault_point_catalog()) {
    EXPECT_NE(std::find(touched.begin(), touched.end(), name), touched.end())
        << "catalog point never reached: " << name;
  }
}

TEST(FaultCatalog, TouchedPointsAreCatalogued) {
  // The inverse direction: production code must not grow ad-hoc fault
  // points that the catalog (and the docs) do not know about.
  ScopedFaults faults(1, {});
  const auto g = dsg::test::diamond_graph();
  for (const auto& info : dsg::sssp::algorithm_registry()) {
    SsspSolver solver = make_solver(info.id, g);
    solver.solve(0);
  }
  run_serving_workload();
  const auto catalog = dsg::testing::fault_point_catalog();
  for (const std::string& name : dsg::testing::touched_fault_points()) {
    EXPECT_NE(std::find_if(catalog.begin(), catalog.end(),
                           [&](const char* c) { return name == c; }),
              catalog.end())
        << "uncatalogued fault point: " << name;
  }
}

// --- C-API error mapping under injected faults. ------------------------------

TEST(CapiFaults, ObjectCreationMapsBadAllocToOutOfMemory) {
  {
    ScopedFaults faults(1, {throw_at("capi/object_new", 0)});
    GrB_Vector v = nullptr;
    EXPECT_EQ(GrB_Vector_new(&v, 4), GrB_OUT_OF_MEMORY);
    EXPECT_EQ(v, nullptr);
  }
  {
    ScopedFaults faults(1, {throw_at("capi/object_new", 0)});
    GrB_Matrix a = nullptr;
    EXPECT_EQ(GrB_Matrix_new(&a, 4, 4), GrB_OUT_OF_MEMORY);
    EXPECT_EQ(a, nullptr);
  }
  // After faults clear the same calls succeed.
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, 4), GrB_SUCCESS);
  {
    ScopedFaults faults(1, {throw_at("capi/object_new", 0)});
    GrB_Vector copy = nullptr;
    EXPECT_EQ(GrB_Vector_dup(&copy, v), GrB_OUT_OF_MEMORY);
    EXPECT_EQ(copy, nullptr);
  }
  GrB_Vector_free(&v);
}

class CapiSolverFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto m = dsg::test::diamond_graph().to_matrix();
    ASSERT_EQ(GrB_Matrix_new(&a_, m.nrows(), m.ncols()), GrB_SUCCESS);
    m.for_each([&](Index r, Index c, const double& w) {
      GrB_Matrix_setElement_FP64(a_, w, r, c);
    });
    ASSERT_EQ(DsgSolver_new(&solver_, a_, DSG_SSSP_FUSED, 1.0), GrB_SUCCESS);
  }
  void TearDown() override {
    DsgSolver_free(&solver_);
    GrB_Matrix_free(&a_);
  }
  GrB_Matrix a_ = nullptr;
  DsgSolver solver_ = nullptr;
};

TEST_F(CapiSolverFaults, SolveMapsInjectedBadAllocToOutOfMemory) {
  ScopedFaults faults(1, {throw_at("solver/solve", 0)});
  std::vector<double> dist(5, -1.0);
  EXPECT_EQ(DsgSolver_solve(solver_, 0, dist.data()), GrB_OUT_OF_MEMORY);
}

TEST_F(CapiSolverFaults, ExpiredDeadlineReturnsTimeoutWithBounds) {
  DsgQueryControl control = nullptr;
  ASSERT_EQ(DsgQueryControl_new(&control), GrB_SUCCESS);
  ASSERT_EQ(DsgQueryControl_set_timeout(control, 0.0), GrB_SUCCESS);
  std::vector<double> dist(5, -1.0);
  EXPECT_EQ(DsgSolver_solve_opts(solver_, 0, dist.data(), control),
            DSG_TIMEOUT);
  // Partial result written: source settled, the rest still unreached.
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  for (int v = 1; v < 5; ++v) EXPECT_EQ(dist[v], dsg::kInfDist);
  // reset re-arms the same handle for a complete run.
  ASSERT_EQ(DsgQueryControl_reset(control), GrB_SUCCESS);
  EXPECT_EQ(DsgSolver_solve_opts(solver_, 0, dist.data(), control),
            GrB_SUCCESS);
  const auto want = dsg::test::diamond_distances_from_0();
  for (int v = 0; v < 5; ++v) EXPECT_NEAR(dist[v], want[v], 1e-12);
  DsgQueryControl_free(&control);
  EXPECT_EQ(control, nullptr);
}

TEST_F(CapiSolverFaults, CancelledControlReturnsCancelled) {
  DsgQueryControl control = nullptr;
  ASSERT_EQ(DsgQueryControl_new(&control), GrB_SUCCESS);
  ASSERT_EQ(DsgQueryControl_cancel(control), GrB_SUCCESS);
  std::vector<double> dist(5, -1.0);
  EXPECT_EQ(DsgSolver_solve_opts(solver_, 0, dist.data(), control),
            DSG_CANCELLED);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  DsgQueryControl_free(&control);
}

TEST_F(CapiSolverFaults, NullControlRunsToCompletion) {
  std::vector<double> dist(5, -1.0);
  EXPECT_EQ(DsgSolver_solve_opts(solver_, 0, dist.data(), nullptr),
            GrB_SUCCESS);
  const auto want = dsg::test::diamond_distances_from_0();
  for (int v = 0; v < 5; ++v) EXPECT_NEAR(dist[v], want[v], 1e-12);
}

TEST_F(CapiSolverFaults, BatchOptsIsolatesThePoisonedQuery) {
  FaultSpec poison;
  poison.point = "solver/batch_query";
  poison.with_key = 2;
  ScopedFaults faults(1, {poison});

  const GrB_Index sources[] = {0, 2, 4};
  std::vector<double> dist(3 * 5, -1.0);
  std::vector<GrB_Info> statuses(3, GrB_PANIC);
  ASSERT_EQ(DsgSolver_solve_batch_opts(solver_, sources, 3, dist.data(),
                                       nullptr, statuses.data()),
            GrB_SUCCESS);
  EXPECT_EQ(statuses[0], GrB_SUCCESS);
  EXPECT_EQ(statuses[1], GrB_OUT_OF_MEMORY);
  EXPECT_EQ(statuses[2], GrB_SUCCESS);
  // The poisoned query's slice is untouched; its neighbors are complete.
  for (int v = 0; v < 5; ++v) EXPECT_EQ(dist[5 + v], -1.0);
  const auto want = dsg::test::diamond_distances_from_0();
  for (int v = 0; v < 5; ++v) EXPECT_NEAR(dist[v], want[v], 1e-12);
}

}  // namespace
