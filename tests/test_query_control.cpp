// Query lifecycle tests: deadlines, cooperative cancellation, partial
// upper-bound results, and failure-isolated batches — across every
// registered algorithm.
//
// The partial-result contract under test (see sssp/query_control.hpp):
// every core's tentative distances only ever improve (write_min /
// relax-only), so a run interrupted at ANY round boundary must return
// dist with dist[source] == 0 and dist[v] >= d*(v) for all v, +inf
// meaning "not reached yet".  The oracle is a self-validated Dijkstra.
#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/solver.hpp"
#include "test_support.hpp"
#include "testing/fault_injection.hpp"

namespace {

using dsg::QueryControl;
using dsg::SsspResult;
using dsg::SsspStatus;
using dsg::sssp::Algorithm;
using dsg::sssp::AlgorithmInfo;
using dsg::sssp::BatchOptions;
using dsg::sssp::QueryResult;
using dsg::sssp::SolverOptions;
using dsg::sssp::SsspSolver;
using grb::Index;

/// Checks the partial-result contract: dist is a valid element-wise upper
/// bound on the true distances (Dijkstra oracle), with the source settled.
void expect_upper_bounds(const grb::Matrix<double>& a, Index source,
                         const std::vector<double>& dist) {
  const auto ref = dsg::dijkstra(a, source);
  ASSERT_EQ(dist.size(), ref.dist.size());
  EXPECT_DOUBLE_EQ(dist[source], 0.0);
  for (Index v = 0; v < dist.size(); ++v) {
    if (ref.dist[v] == dsg::kInfDist) {
      // Unreachable vertices can never acquire a finite tentative value.
      EXPECT_EQ(dist[v], dsg::kInfDist) << "vertex " << v;
    } else if (dist[v] != dsg::kInfDist) {
      EXPECT_GE(dist[v], ref.dist[v] - 1e-9) << "vertex " << v;
    }
  }
}

SsspSolver make_solver(Algorithm algorithm, const dsg::EdgeList& g,
                       double delta = dsg::kAutoDelta) {
  SolverOptions options;
  options.algorithm = algorithm;
  options.delta = delta;
  return SsspSolver(g.to_matrix(), options);
}

// --- QueryControl unit semantics. --------------------------------------------

TEST(QueryControl, DefaultIsComplete) {
  QueryControl control;
  EXPECT_EQ(control.poll(), SsspStatus::kComplete);
  EXPECT_FALSE(control.cancel_requested());
  EXPECT_FALSE(control.has_deadline());
}

TEST(QueryControl, CancelSticksUntilReset) {
  QueryControl control;
  control.request_cancel();
  EXPECT_EQ(control.poll(), SsspStatus::kCancelled);
  EXPECT_EQ(control.poll(), SsspStatus::kCancelled);
  control.reset();
  EXPECT_EQ(control.poll(), SsspStatus::kComplete);
}

TEST(QueryControl, ZeroTimeoutIsAlreadyExpired) {
  QueryControl control;
  control.set_timeout(0.0);
  EXPECT_EQ(control.poll(), SsspStatus::kDeadlineExpired);
}

TEST(QueryControl, NegativeTimeoutIsAlreadyExpired) {
  QueryControl control;
  control.set_timeout(-5.0);
  EXPECT_EQ(control.poll(), SsspStatus::kDeadlineExpired);
}

TEST(QueryControl, CancelWinsOverExpiredDeadline) {
  QueryControl control;
  control.set_timeout(0.0);
  control.request_cancel();
  EXPECT_EQ(control.poll(), SsspStatus::kCancelled);
}

TEST(QueryControl, FarDeadlineStaysComplete) {
  QueryControl control;
  control.set_timeout(3600.0);
  EXPECT_EQ(control.poll(), SsspStatus::kComplete);
  control.clear_deadline();
  EXPECT_FALSE(control.has_deadline());
}

TEST(QueryControl, StatusNames) {
  EXPECT_STREQ(to_string(SsspStatus::kComplete), "complete");
  EXPECT_STREQ(to_string(SsspStatus::kDeadlineExpired), "deadline_expired");
  EXPECT_STREQ(to_string(SsspStatus::kCancelled), "cancelled");
  EXPECT_STREQ(to_string(SsspStatus::kFailed), "failed");
}

TEST(QueryControl, NullControlPollsComplete) {
  EXPECT_EQ(dsg::poll_control(nullptr), SsspStatus::kComplete);
}

// --- Deadline / cancel across every registered algorithm. --------------------

TEST(QueryLifecycle, ExpiredDeadlineReturnsUpperBoundsOnEveryAlgorithm) {
  const auto g = dsg::test::diamond_graph();
  const auto a = g.to_matrix();
  for (const AlgorithmInfo& info : dsg::sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    SsspSolver solver = make_solver(info.id, g);
    QueryControl control;
    control.set_timeout(0.0);
    SsspResult r = solver.solve(0, control);
    EXPECT_EQ(r.status, SsspStatus::kDeadlineExpired);
    expect_upper_bounds(a, 0, r.dist);
  }
}

TEST(QueryLifecycle, PreCancelledControlReturnsUpperBoundsOnEveryAlgorithm) {
  const auto g = dsg::test::zigzag_graph();
  const auto a = g.to_matrix();
  for (const AlgorithmInfo& info : dsg::sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    SsspSolver solver = make_solver(info.id, g);
    QueryControl control;
    control.request_cancel();
    SsspResult r = solver.solve(0, control);
    EXPECT_EQ(r.status, SsspStatus::kCancelled);
    expect_upper_bounds(a, 0, r.dist);
  }
}

TEST(QueryLifecycle, NoControlAndFarDeadlineBothRunToCompletion) {
  const auto g = dsg::test::diamond_graph();
  for (const AlgorithmInfo& info : dsg::sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    SsspSolver solver = make_solver(info.id, g);
    QueryControl control;
    control.set_timeout(3600.0);
    SsspResult r = solver.solve(0, control);
    EXPECT_EQ(r.status, SsspStatus::kComplete);
    dsg::test::expect_distances(r.dist, dsg::test::diamond_distances_from_0(),
                                info.name);
  }
}

TEST(QueryLifecycle, SolverIsReusableAfterInterruption) {
  // An interrupted run must leave the warm workspace clean: the next solve
  // on the same solver has to be exact.  The async engine's scratch flags
  // are the sharp edge here, so every algorithm gets the same treatment.
  const auto g = dsg::test::diamond_graph();
  for (const AlgorithmInfo& info : dsg::sssp::algorithm_registry()) {
    SCOPED_TRACE(std::string("algorithm=") + info.name);
    SsspSolver solver = make_solver(info.id, g);
    QueryControl control;
    control.set_timeout(0.0);
    SsspResult interrupted = solver.solve(0, control);
    EXPECT_EQ(interrupted.status, SsspStatus::kDeadlineExpired);
    control.reset();
    SsspResult r = solver.solve(0, control);
    EXPECT_EQ(r.status, SsspStatus::kComplete);
    dsg::test::expect_distances(r.dist, dsg::test::diamond_distances_from_0(),
                                info.name);
  }
}

// --- Mid-run interruption on the threaded variants. --------------------------
//
// A kCallback fault at the round fault point cancels the query from inside
// its own run, on a fixed hit index (counted by the fault table, so it does
// not depend on thread scheduling).  The run must come back kCancelled —
// the cancel was observed at a round boundary, not after running to
// completion — with valid partial upper bounds.  The graph is a 64x64 grid
// with weights 1..5 at Δ = 1, so every variant needs many rounds, which
// leaves a mid-run window.  The test pins that window.

struct MidRunCase {
  Algorithm algorithm;
  const char* round_point;  // the fault point that cancels
};

void check_mid_run_cancel(const MidRunCase& c) {
  auto g = dsg::generate_grid2d(64, 64);
  dsg::assign_integer_weights(g, 1, 5, /*seed=*/3);
  const auto a = g.to_matrix();
  SolverOptions options;
  options.algorithm = c.algorithm;
  options.delta = 1.0;
  SsspSolver solver(a, options);

  // The mid-run window: an uninterrupted run takes many rounds.
  const SsspResult exact = solver.solve(0);
  ASSERT_EQ(exact.status, SsspStatus::kComplete);
  ASSERT_GE(exact.stats.outer_iterations, 10u);
  DSG_CHECK_DISTANCES_ONLY(a, 0, exact.dist);

  QueryControl control;
  dsg::testing::FaultSpec cancel;
  cancel.point = c.round_point;
  cancel.on_hit = 3;
  cancel.action = dsg::testing::FaultSpec::Action::kCallback;
  cancel.callback = [&control] { control.request_cancel(); };
  {
    dsg::testing::ScopedFaults faults(/*seed=*/7, {cancel});
    SsspResult r = solver.solve(0, control);
    EXPECT_EQ(r.status, SsspStatus::kCancelled);
    EXPECT_LT(r.stats.outer_iterations, exact.stats.outer_iterations);
    expect_upper_bounds(a, 0, r.dist);
  }

  // And the solver must still be reusable for an exact run afterwards.
  control.reset();
  SsspResult again = solver.solve(0, control);
  EXPECT_EQ(again.status, SsspStatus::kComplete);
  EXPECT_EQ(again.dist, exact.dist);
}

TEST(QueryLifecycle, MidRunCancelOpenmp) {
  check_mid_run_cancel({Algorithm::kOpenmp, "fused/round"});
}

TEST(QueryLifecycle, MidRunCancelDeltaSteppingAsync) {
  check_mid_run_cancel({Algorithm::kDeltaSteppingAsync, "async/coordinate"});
}

TEST(QueryLifecycle, MidRunDeadlineExpiresOnThreadedVariant) {
  // Same shape with a short armed deadline instead of a watcher thread:
  // the delay guarantees the deadline fires strictly mid-run.
  const auto g = dsg::test::path_graph(2000);
  const auto a = g.to_matrix();
  dsg::testing::FaultSpec slow;
  slow.point = "async/coordinate";
  slow.one_in = 1;
  slow.action = dsg::testing::FaultSpec::Action::kDelay;
  slow.delay = std::chrono::microseconds(500);
  dsg::testing::ScopedFaults faults(/*seed=*/7, {slow});

  SsspSolver solver = make_solver(Algorithm::kDeltaSteppingAsync, g, 1.0);
  QueryControl control;
  control.set_timeout(0.01);
  SsspResult r = solver.solve(0, control);
  EXPECT_EQ(r.status, SsspStatus::kDeadlineExpired);
  expect_upper_bounds(a, 0, r.dist);
}

// --- Failure-isolated batches. -----------------------------------------------

TEST(BatchIsolation, PoisonedQueryFailsAloneOthersComplete) {
  // Poison exactly the query whose source is 2, schedule-independently
  // (the fault keys on the source id, not on hit order).
  const auto g = dsg::test::diamond_graph();
  dsg::testing::FaultSpec poison;
  poison.point = "solver/batch_query";
  poison.with_key = 2;
  dsg::testing::ScopedFaults faults(/*seed=*/1, {poison});

  SsspSolver solver = make_solver(Algorithm::kFused, g);
  const std::vector<Index> sources = {0, 1, 2, 3, 4};
  std::vector<QueryResult> results =
      solver.solve_batch(sources, BatchOptions{});
  ASSERT_EQ(results.size(), sources.size());
  for (std::size_t k = 0; k < results.size(); ++k) {
    SCOPED_TRACE("query " + std::to_string(k));
    if (sources[k] == 2) {
      EXPECT_FALSE(results[k].ok());
      EXPECT_EQ(results[k].result.status, SsspStatus::kFailed);
      EXPECT_TRUE(results[k].result.dist.empty());
      EXPECT_NE(results[k].exception, nullptr);
    } else {
      EXPECT_TRUE(results[k].ok());
      EXPECT_EQ(results[k].result.status, SsspStatus::kComplete);
      DSG_CHECK_DISTANCES_ONLY(solver.plan().matrix(), sources[k],
                               results[k].result.dist);
    }
  }
}

TEST(BatchIsolation, LegacyOverloadStillRethrows) {
  const auto g = dsg::test::diamond_graph();
  dsg::testing::FaultSpec poison;
  poison.point = "solver/batch_query";
  poison.with_key = 2;
  dsg::testing::ScopedFaults faults(/*seed=*/1, {poison});

  SsspSolver solver = make_solver(Algorithm::kFused, g);
  const std::vector<Index> sources = {0, 1, 2, 3};
  EXPECT_THROW(solver.solve_batch(std::span<const Index>(sources)),
               std::bad_alloc);
}

TEST(BatchIsolation, OutOfRangeSourceIsPerQueryFailure) {
  const auto g = dsg::test::diamond_graph();
  SsspSolver solver = make_solver(Algorithm::kFused, g);
  const std::vector<Index> sources = {0, 99, 4};
  std::vector<QueryResult> results =
      solver.solve_batch(sources, BatchOptions{});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].result.status, SsspStatus::kFailed);
  EXPECT_TRUE(results[2].ok());
}

TEST(BatchIsolation, SharedControlWindsDownTheWholeBatch) {
  const auto g = dsg::test::diamond_graph();
  const auto a = g.to_matrix();
  SsspSolver solver = make_solver(Algorithm::kFused, g);
  QueryControl control;
  control.request_cancel();
  BatchOptions batch;
  batch.control = &control;
  const std::vector<Index> sources = {0, 1, 2};
  std::vector<QueryResult> results = solver.solve_batch(sources, batch);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t k = 0; k < results.size(); ++k) {
    SCOPED_TRACE("query " + std::to_string(k));
    EXPECT_TRUE(results[k].ok());
    EXPECT_EQ(results[k].result.status, SsspStatus::kCancelled);
    expect_upper_bounds(a, sources[k], results[k].result.dist);
  }
}

TEST(BatchIsolation, CleanBatchMatchesPerQuerySolves) {
  const auto g = dsg::test::zigzag_graph();
  SsspSolver solver = make_solver(Algorithm::kFused, g);
  const std::vector<Index> sources = {0, 1, 2, 3, 4};
  std::vector<QueryResult> results =
      solver.solve_batch(sources, BatchOptions{});
  ASSERT_EQ(results.size(), sources.size());
  for (std::size_t k = 0; k < results.size(); ++k) {
    SCOPED_TRACE("query " + std::to_string(k));
    ASSERT_TRUE(results[k].ok());
    SsspResult single = solver.solve(sources[k]);
    dsg::test::expect_distances(results[k].result.dist, single.dist, "batch");
  }
}

}  // namespace
