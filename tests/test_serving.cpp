// test_serving.cpp — the SsspServer pool under concurrency: mixed-source
// traffic from many client threads checked against a Dijkstra oracle
// (cache on and off), cache hits answered inside submit() (a saturated
// pool, a poisoned hit, shutdown, a cancelled control, bypass_cache),
// cancellation and deadlines mid-stream, one poisoned query failing alone,
// ticket discipline, auto-algorithm selection, and the DsgServer_* C
// surface.
//
// Assertion discipline: client threads run inside run_concurrent_stress
// (test_support.hpp), where gtest macros are not safe — bodies throw on
// violation and the harness rethrows on the main thread.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "capi/graphblas.h"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "serving/server.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/validate.hpp"
#include "test_support.hpp"
#include "testing/fault_injection.hpp"

namespace dsg::serving {
namespace {

using grb::Index;

/// The stress graph: the suite's small-world graph with mixed real
/// weights, so the auto-Δ split has genuine light AND heavy edges and
/// queries take long enough to overlap across workers.
grb::Matrix<double> stress_graph() {
  EdgeList graph = generate_small_world(300, 4, 0.1, 7);
  graph.symmetrize();
  graph.normalize();
  assign_uniform_weights(graph, 0.1, 10.0, 101);
  return graph.to_matrix();
}

/// Memoized Dijkstra oracle over all sources of one graph.
class Oracle {
 public:
  explicit Oracle(const grb::Matrix<double>& a)
      : a_(a), dist_(a.nrows()) {}

  const std::vector<double>& operator[](Index source) {
    std::vector<double>& slot = dist_[source];
    if (slot.empty()) slot = dijkstra(a_, source).dist;
    return slot;
  }

 private:
  const grb::Matrix<double>& a_;
  std::vector<std::vector<double>> dist_;
};

/// Throws unless `got` matches the oracle's exact distances (1e-9, the
/// project-wide cross-implementation tolerance).
void require_oracle_match(const std::vector<double>& want,
                          const std::vector<double>& got, Index source) {
  const auto cmp = compare_distances(want, got, 1e-9);
  if (!cmp.ok) {
    throw std::runtime_error("source " + std::to_string(source) + ": " +
                             cmp.message);
  }
}

/// Throws unless `got` is a valid PARTIAL result for `source`: the source
/// itself settled at 0 and every entry is an upper bound on the truth.
void require_upper_bounds(const std::vector<double>& want,
                          const std::vector<double>& got, Index source) {
  if (got.size() != want.size()) {
    throw std::runtime_error("partial result has wrong size");
  }
  if (got[source] != 0.0) {
    throw std::runtime_error("partial result lost dist[source] == 0");
  }
  for (std::size_t v = 0; v < want.size(); ++v) {
    if (got[v] < want[v] - 1e-9) {
      throw std::runtime_error("partial result below true distance at vertex " +
                               std::to_string(v));
    }
  }
}

TEST(Serving, SingleQueryMatchesOracle) {
  SsspServer server(test::diamond_graph().to_matrix());
  const SsspServer::Ticket ticket = server.submit(0);
  const sssp::QueryResult r = server.wait(ticket);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.status, SsspStatus::kComplete);
  test::expect_distances(r.result.dist, test::diamond_distances_from_0(),
                         "served diamond");
}

// The headline stress: N client threads, mixed sources (a hot set plus
// per-thread randoms), every result checked against the oracle.  One leg
// with the cache on, one with it off — identical correctness contract.
class ServingStress : public ::testing::TestWithParam<bool> {};

TEST_P(ServingStress, ConcurrentMixedTrafficMatchesOracle) {
  const bool cache_on = GetParam();
  const grb::Matrix<double> a = stress_graph();
  const Index n = a.nrows();
  Oracle oracle(a);
  // Pre-warm the oracle for every source any thread can draw (worker
  // threads must not race the memoization).
  for (Index s = 0; s < n; ++s) oracle[s];

  ServerOptions options;
  options.num_workers = 3;
  options.queue_capacity = 8;  // small: exercises submit backpressure
  options.cache_capacity = cache_on ? 64 : 0;
  SsspServer server(grb::Matrix<double>(a), options);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 24;
  test::run_concurrent_stress(kClients, 7, [&](int t, std::mt19937_64& rng) {
    for (int q = 0; q < kQueriesPerClient; ++q) {
      // Half the traffic draws from an 8-source hot set (repeats across
      // threads feed the cache); half is thread-private uniform.
      const Index source = (q % 2 == 0)
                               ? static_cast<Index>(rng() % 8)
                               : static_cast<Index>(rng() % n);
      const SsspServer::Ticket ticket = server.submit(source);
      const sssp::QueryResult r = server.wait(ticket);
      if (!r.ok()) {
        throw std::runtime_error("query failed: " + r.error);
      }
      if (r.result.status != SsspStatus::kComplete) {
        throw std::runtime_error("query not complete");
      }
      require_oracle_match(oracle[source], r.result.dist, source);
      (void)t;
    }
  });

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted,
            static_cast<std::uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  if (cache_on) {
    // Hot-set repeats guarantee hits: 48 hot-set queries over 8 sources
    // cannot all miss.  (The exact count is schedule-dependent.)
    EXPECT_GT(stats.cache.hits, 0u);
    EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.submitted);
  } else {
    EXPECT_EQ(stats.cache.hits, 0u);
    EXPECT_EQ(stats.cache.capacity, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(CacheOnOff, ServingStress, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& leg) {
                           return leg.param ? "CacheOn" : "CacheOff";
                         });

TEST(Serving, CacheHitReplaysBitIdenticalDistances) {
  ServerOptions options;
  options.num_workers = 1;
  SsspServer server(stress_graph(), options);
  const sssp::QueryResult first = server.wait(server.submit(5));
  const sssp::QueryResult second = server.wait(server.submit(5));
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first.result.dist.size(), second.result.dist.size());
  for (std::size_t v = 0; v < first.result.dist.size(); ++v) {
    EXPECT_EQ(first.result.dist[v], second.result.dist[v]) << "vertex " << v;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(Serving, BypassCacheSkipsLookupAndInsert) {
  ServerOptions options;
  options.num_workers = 1;
  SsspServer server(test::diamond_graph().to_matrix(), options);
  SsspServer::Query query;
  query.source = 0;
  query.bypass_cache = true;
  ASSERT_TRUE(server.wait(server.submit(query)).ok());
  ASSERT_TRUE(server.wait(server.submit(query)).ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

// ---------------------------------------------------------------------------
// Cache hits answered inside submit(): no worker, no queue slot.
// ---------------------------------------------------------------------------

/// Holds every worker that reaches `serving/worker_query` with `key` until
/// release().  The callback shares its state, so a worker still leaving
/// it never touches a destroyed parking.
class WorkerParking {
 public:
  explicit WorkerParking(Index key) : state_(std::make_shared<State>()) {
    testing::FaultSpec spec;
    spec.point = "serving/worker_query";
    spec.with_key = static_cast<std::int64_t>(key);
    spec.action = testing::FaultSpec::Action::kCallback;
    spec.callback = [state = state_] {
      std::unique_lock<std::mutex> lock(state->mu);
      ++state->parked;
      state->cv.notify_all();
      state->cv.wait(lock, [&] { return state->released; });
    };
    testing::install_faults(1, {spec});
  }
  ~WorkerParking() {
    release();
    testing::clear_faults();
  }
  WorkerParking(const WorkerParking&) = delete;
  WorkerParking& operator=(const WorkerParking&) = delete;

  void wait_parked(int workers) {
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->parked >= workers; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->released = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int parked = 0;
    bool released = false;
  };
  std::shared_ptr<State> state_;
};

TEST(ServingHits, HitCompletesWhileThePoolIsSaturated) {
  constexpr Index kHot = 5;
  constexpr Index kParked = 9;
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 2;
  SsspServer server(stress_graph(), options);
  const sssp::QueryResult miss = server.wait(server.submit(kHot));
  ASSERT_TRUE(miss.ok()) << miss.error;

  std::vector<SsspServer::Ticket> parked;
  sssp::QueryResult hit;
  {
    WorkerParking parking(kParked);
    // Both workers park on kParked; two more fill the queue, so a miss
    // would now block in submit.
    parked.push_back(server.submit(kParked));
    parked.push_back(server.submit(kParked));
    parking.wait_parked(2);
    parked.push_back(server.submit(kParked));
    parked.push_back(server.submit(kParked));

    auto submitted = std::async(std::launch::async,
                                [&] { return server.submit(kHot); });
    const bool returned = submitted.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    EXPECT_TRUE(returned) << "a cached source blocked on the full queue";
    if (returned) hit = server.wait(submitted.get());
    parking.release();
    if (!returned) hit = server.wait(submitted.get());
  }
  ASSERT_TRUE(hit.ok()) << hit.error;
  EXPECT_EQ(hit.result.status, SsspStatus::kComplete);
  ASSERT_EQ(hit.result.dist.size(), miss.result.dist.size());
  EXPECT_EQ(std::memcmp(hit.result.dist.data(), miss.result.dist.data(),
                        miss.result.dist.size() * sizeof(double)),
            0);
  for (const SsspServer::Ticket ticket : parked) {
    EXPECT_TRUE(server.wait(ticket).ok());
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.submitted);
}

TEST(ServingHits, PoisonedHitFailsAloneAndTheNextHitIsClean) {
  constexpr Index kPoisoned = 5;
  constexpr Index kHealthy = 6;
  ServerOptions options;
  options.num_workers = 1;
  SsspServer server(stress_graph(), options);
  const sssp::QueryResult first = server.wait(server.submit(kPoisoned));
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_TRUE(server.wait(server.submit(kHealthy)).ok());
  {
    testing::FaultSpec poison;
    poison.point = "serving/cache_hit";
    poison.with_key = static_cast<std::int64_t>(kPoisoned);
    testing::ScopedFaults faults(1, {poison});
    SsspServer::Ticket poisoned = 0;
    SsspServer::Ticket healthy = 0;
    ASSERT_NO_THROW(poisoned = server.submit(kPoisoned));
    ASSERT_NO_THROW(healthy = server.submit(kHealthy));
    const sssp::QueryResult r = server.wait(poisoned);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.result.status, SsspStatus::kFailed);
    EXPECT_TRUE(r.result.dist.empty());
    ASSERT_NE(r.exception, nullptr);
    EXPECT_THROW(std::rethrow_exception(r.exception), std::bad_alloc);
    EXPECT_TRUE(server.wait(healthy).ok());
  }
  const sssp::QueryResult again = server.wait(server.submit(kPoisoned));
  ASSERT_TRUE(again.ok()) << again.error;
  ASSERT_EQ(again.result.dist.size(), first.result.dist.size());
  EXPECT_EQ(std::memcmp(again.result.dist.data(), first.result.dist.data(),
                        first.result.dist.size() * sizeof(double)),
            0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.cache.hits, 3u);
  EXPECT_EQ(stats.cache.misses, 2u);
}

TEST(ServingHits, CachedSourceAfterShutdownThrows) {
  SsspServer server(test::diamond_graph().to_matrix());
  ASSERT_TRUE(server.wait(server.submit(0)).ok());
  server.shutdown();
  EXPECT_THROW(server.submit(0), grb::InvalidValue);
  // The refused submit issued no ticket and counted no lookup.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(ServingHits, HitUnderCancelledControlIsComplete) {
  SsspServer server(test::diamond_graph().to_matrix());
  ASSERT_TRUE(server.wait(server.submit(0)).ok());
  QueryControl control;
  control.request_cancel();
  // A hit is instant, so the control never gets a chance to fire.
  const sssp::QueryResult r = server.wait(server.submit(0, control));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.status, SsspStatus::kComplete);
  test::expect_distances(r.result.dist, test::diamond_distances_from_0(),
                         "hit under a cancelled control");
  EXPECT_EQ(server.stats().cancelled, 0u);
}

TEST(ServingHits, BypassCacheStillReachesAWorker) {
  ServerOptions options;
  options.num_workers = 1;
  SsspServer server(test::diamond_graph().to_matrix(), options);
  ASSERT_TRUE(server.wait(server.submit(0)).ok());  // 0 is now cached
  testing::ScopedFaults faults(1, {});              // count hits only
  SsspServer::Query query;
  query.source = 0;
  query.bypass_cache = true;
  const sssp::QueryResult r = server.wait(server.submit(query));
  ASSERT_TRUE(r.ok()) << r.error;
  test::expect_distances(r.result.dist, test::diamond_distances_from_0(),
                         "bypass");
  EXPECT_EQ(testing::fault_point_hits("serving/worker_query"), 1u);
  EXPECT_EQ(testing::fault_point_hits("serving/cache_hit"), 0u);
  EXPECT_EQ(server.stats().cache.hits, 0u);
}

// ---------------------------------------------------------------------------
// Lifecycle under the pool: deadlines, cancellation, poisoned queries.
// ---------------------------------------------------------------------------

TEST(Serving, PreCancelledQueryReturnsCancelledUpperBounds) {
  const grb::Matrix<double> a = stress_graph();
  Oracle oracle(a);
  const std::vector<double>& truth = oracle[3];
  SsspServer server{grb::Matrix<double>(a)};
  QueryControl control;
  control.request_cancel();
  const sssp::QueryResult r = server.wait(server.submit(3, control));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.status, SsspStatus::kCancelled);
  require_upper_bounds(truth, r.result.dist, 3);
  // An interrupted result must never be cached.
  EXPECT_EQ(server.stats().cache.entries, 0u);
}

TEST(Serving, ExpiredDeadlineReturnsDeadlineExpired) {
  SsspServer server{stress_graph()};
  QueryControl control;
  control.set_timeout(0.0);  // already expired at the first poll
  const sssp::QueryResult r = server.wait(server.submit(3, control));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.result.status, SsspStatus::kDeadlineExpired);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  EXPECT_EQ(server.stats().cache.entries, 0u);
}

// Mid-stream cancellation, racy by construction: a watcher thread cancels
// while workers chew through a stream that the fault injector has slowed
// down.  Whatever each query's outcome, its distances must be either
// exact or valid upper bounds — never garbage.
TEST(Serving, MidStreamCancellationLeavesOnlyValidResults) {
  const grb::Matrix<double> a = stress_graph();
  Oracle oracle(a);
  for (Index s = 0; s < 16; ++s) oracle[s];

  // Widen the race window: every worker query sleeps at pickup.
  testing::FaultSpec slow;
  slow.point = "serving/worker_query";
  slow.one_in = 1;
  slow.action = testing::FaultSpec::Action::kDelay;
  slow.delay = std::chrono::microseconds(500);
  testing::ScopedFaults faults(42, {slow});

  ServerOptions options;
  options.num_workers = 2;
  SsspServer server(grb::Matrix<double>(a), options);
  QueryControl control;
  std::vector<SsspServer::Ticket> tickets;
  tickets.reserve(16);
  for (Index s = 0; s < 16; ++s) tickets.push_back(server.submit(s, control));

  std::thread watcher([&control] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    control.request_cancel();
  });
  int cancelled = 0;
  for (Index s = 0; s < 16; ++s) {
    const sssp::QueryResult r = server.wait(tickets[static_cast<size_t>(s)]);
    ASSERT_TRUE(r.ok()) << r.error;
    if (r.result.status == SsspStatus::kComplete) {
      const auto cmp = compare_distances(oracle[s], r.result.dist, 1e-9);
      EXPECT_TRUE(cmp.ok) << cmp.message;
    } else {
      ASSERT_EQ(r.result.status, SsspStatus::kCancelled);
      ++cancelled;
      require_upper_bounds(oracle[s], r.result.dist, s);
    }
  }
  watcher.join();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.cancelled, 16u);
  EXPECT_EQ(stats.cancelled, static_cast<std::uint64_t>(cancelled));
}

// One poisoned query (targeted via its source key) fails alone: the other
// queries of the same stream complete exactly, and the pool survives.
TEST(Serving, PoisonedQueryFailsAloneAndPoolRecovers) {
  const grb::Matrix<double> a = stress_graph();
  Oracle oracle(a);
  for (Index s = 0; s < 8; ++s) oracle[s];

  constexpr Index kPoisoned = 5;
  testing::FaultSpec poison;
  poison.point = "serving/worker_query";
  poison.with_key = static_cast<std::int64_t>(kPoisoned);
  testing::ScopedFaults faults(1, {poison});

  ServerOptions options;
  options.num_workers = 2;
  options.cache_capacity = 0;  // keep every query an honest solve
  SsspServer server(grb::Matrix<double>(a), options);
  std::vector<SsspServer::Ticket> tickets;
  tickets.reserve(8);
  for (Index s = 0; s < 8; ++s) tickets.push_back(server.submit(s));

  for (Index s = 0; s < 8; ++s) {
    const sssp::QueryResult r = server.wait(tickets[static_cast<size_t>(s)]);
    if (s == kPoisoned) {
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.result.status, SsspStatus::kFailed);
      EXPECT_FALSE(r.error.empty());
      ASSERT_NE(r.exception, nullptr);
      EXPECT_THROW(std::rethrow_exception(r.exception), std::bad_alloc);
    } else {
      ASSERT_TRUE(r.ok()) << "source " << s << ": " << r.error;
      const auto cmp = compare_distances(oracle[s], r.result.dist, 1e-9);
      EXPECT_TRUE(cmp.ok) << cmp.message;
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 7u);

  // The pool is still serving after the failure.
  ASSERT_TRUE(server.wait(server.submit(0)).ok());
}

// ---------------------------------------------------------------------------
// Ticket discipline and shutdown.
// ---------------------------------------------------------------------------

TEST(Serving, TicketsRedeemExactlyOnce) {
  SsspServer server(test::diamond_graph().to_matrix());
  const SsspServer::Ticket ticket = server.submit(0);
  ASSERT_TRUE(server.wait(ticket).ok());
  EXPECT_THROW(server.wait(ticket), grb::InvalidValue);
  EXPECT_THROW(server.wait(ticket + 1000), grb::InvalidValue);
}

TEST(Serving, SubmitValidatesBeforeEnqueue) {
  SsspServer server(test::diamond_graph().to_matrix());
  EXPECT_THROW(server.submit(5), grb::IndexOutOfBounds);  // n == 5
  SsspServer::Query bad_alg;
  bad_alg.source = 0;
  bad_alg.algorithm = sssp::Algorithm::kCapi;
  EXPECT_THROW(server.submit(bad_alg), grb::InvalidValue);
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST(Serving, ShutdownDrainsAndRejectsNewWork) {
  SsspServer server{stress_graph()};
  std::vector<SsspServer::Ticket> tickets;
  tickets.reserve(6);
  for (Index s = 0; s < 6; ++s) tickets.push_back(server.submit(s));
  server.shutdown();
  server.shutdown();  // idempotent
  EXPECT_THROW(server.submit(0), grb::InvalidValue);
  // Everything submitted before shutdown stays redeemable.
  for (const SsspServer::Ticket ticket : tickets) {
    EXPECT_TRUE(server.wait(ticket).ok());
  }
}

TEST(Serving, PerQueryAlgorithmOverrideIsHonored) {
  const grb::Matrix<double> a = stress_graph();
  Oracle oracle(a);
  SsspServer server{grb::Matrix<double>(a)};
  SsspServer::Query query;
  query.source = 2;
  query.algorithm = sssp::Algorithm::kBuckets;
  query.bypass_cache = true;
  const sssp::QueryResult r = server.wait(server.submit(query));
  ASSERT_TRUE(r.ok()) << r.error;
  const auto cmp = compare_distances(oracle[2], r.result.dist, 1e-9);
  EXPECT_TRUE(cmp.ok) << cmp.message;

  // A server pinned to a threaded core: the workers are the parallelism,
  // so each solve runs on its worker's thread alone, and answers with
  // Dijkstra's bits (integer weights make every path sum exact).
  EdgeList graph = generate_small_world(300, 4, 0.1, 7);
  graph.symmetrize();
  graph.normalize();
  assign_integer_weights(graph, 1, 20, 5);
  const grb::Matrix<double> b = graph.to_matrix();
  ServerOptions options;
  options.num_workers = 2;
  options.algorithm = sssp::Algorithm::kOpenmp;
  options.cache_capacity = 0;
  SsspServer pinned{grb::Matrix<double>(b), options};
  std::vector<SsspServer::Ticket> tickets;
  for (Index source = 0; source < 8; ++source) {
    tickets.push_back(pinned.submit(source));
  }
  for (Index source = 0; source < 8; ++source) {
    SCOPED_TRACE("source " + std::to_string(source));
    const sssp::QueryResult got = pinned.wait(tickets[source]);
    ASSERT_TRUE(got.ok()) << got.error;
    const std::vector<double> want = dijkstra(b, source).dist;
    ASSERT_EQ(got.result.dist.size(), want.size());
    EXPECT_EQ(std::memcmp(got.result.dist.data(), want.data(),
                          want.size() * sizeof(double)),
              0);
  }
}

// ---------------------------------------------------------------------------
// Auto-algorithm selection.
// ---------------------------------------------------------------------------

TEST(Serving, AutoAlgorithmPicksDijkstraForTinyGraphs) {
  GraphPlan plan(test::diamond_graph().to_matrix());
  EXPECT_EQ(sssp::auto_algorithm(plan), sssp::Algorithm::kDijkstra);
  SsspServer server(test::diamond_graph().to_matrix());
  EXPECT_EQ(server.default_algorithm(), sssp::Algorithm::kDijkstra);
}

TEST(Serving, AutoAlgorithmPicksFusedForLightDominatedGraphs) {
  // 5000 vertices, integer weights 1..100, auto Δ ~50: about half the
  // edges are light and some lie below Δ.  A star, so two hops per query
  // and fused's vertex scans stay cheap.
  EdgeList graph = generate_star(5000);
  assign_integer_weights(graph, 1, 100, 5);
  GraphPlan plan(graph.to_matrix());
  EXPECT_EQ(sssp::auto_algorithm(plan), sssp::Algorithm::kFused);
}

TEST(Serving, AutoAlgorithmPicksAsyncWhenNoEdgeIsLighterThanDelta) {
  // The same star with unit weights, auto Δ 1: every edge is light, but
  // none is below Δ, so no bucket can refill itself.
  GraphPlan plan(generate_star(5000).to_matrix());
  EXPECT_EQ(sssp::auto_algorithm(plan),
            sssp::Algorithm::kDeltaSteppingAsync);
}

TEST(Serving, AutoAlgorithmPicksBucketsForLongPaths) {
  // 5000 vertices in a line, integer weights 1..100, auto Δ ~50: ~5000
  // buckets, so fused would scan all 5000 vertices 5000 times.
  EdgeList graph = test::path_graph(5000);
  assign_integer_weights(graph, 1, 100, 5);
  GraphPlan plan(graph.to_matrix());
  EXPECT_EQ(sssp::auto_algorithm(plan), sssp::Algorithm::kBuckets);
}

TEST(Serving, AutoAlgorithmPicksAsyncForUniformSymmetricGraphs) {
  // One weight on a symmetric pattern: the async engine's level rounds,
  // however long the paths are.  The unit path above and a unit grid.
  GraphPlan path(test::path_graph(5000).to_matrix());
  EXPECT_EQ(sssp::auto_algorithm(path), sssp::Algorithm::kDeltaSteppingAsync);
  EdgeList grid = generate_grid2d(100, 100);
  grid.symmetrize();
  grid.normalize();
  assign_unit_weights(grid);
  GraphPlan grid_plan(grid.to_matrix());
  EXPECT_EQ(sssp::auto_algorithm(grid_plan),
            sssp::Algorithm::kDeltaSteppingAsync);
}

TEST(Serving, AutoAlgorithmPicksDijkstraWhenAlmostNothingIsLight) {
  // Same 5000-vertex graph, but Δ far below every weight: the light
  // partition is empty and delta-stepping would degenerate.
  GraphPlan plan(test::path_graph(5000).to_matrix(), 0.125);
  EXPECT_EQ(sssp::auto_algorithm(plan), sssp::Algorithm::kDijkstra);
}

TEST(Serving, AutoAlgorithmPicksAsyncWhenBucketSlotsOutnumberVertices) {
  // Half the edges weigh 1e-9 and half 1: at Δ 1e-9 half are light, but
  // buckets would keep 1e9 cyclic slots for 5000 vertices.  No weight is
  // below Δ, so the non-buckets pick is async rather than fused.
  EdgeList graph(5000);
  for (Index v = 0; v + 1 < 5000; ++v) {
    const double w = v % 2 == 0 ? 1e-9 : 1.0;
    graph.add_edge(v, v + 1, w);
    graph.add_edge(v + 1, v, w);
  }
  GraphPlan plan(graph.to_matrix(), 1e-9);
  EXPECT_EQ(sssp::auto_algorithm(plan),
            sssp::Algorithm::kDeltaSteppingAsync);
}

TEST(Serving, AutoAlgorithmPicksAsyncWhenAnEdgeWeighsZero) {
  // The unit star plus one zero-weight edge.  The split cores do not
  // traverse a zero-weight edge (see
  // EdgeCases.ZeroWeightEdgesAreExcludedFromLightSet), so the pick is a
  // core that does: async, which beat Dijkstra on a zero-edge rmat and a
  // zero-edge grid.
  EdgeList graph = generate_star(5000);
  graph.add_edge(1, 2, 0.0);
  GraphPlan plan(graph.to_matrix());
  EXPECT_EQ(sssp::auto_algorithm(plan), sssp::Algorithm::kDeltaSteppingAsync);
}

// 64x64 grid, integer weights 1..100: `road`'s shape at test size (~125
// hops, ~130 buckets at the auto Δ).
grb::Matrix<double> weighted_grid() {
  EdgeList graph = generate_grid2d(64, 64);
  graph.normalize();
  assign_integer_weights(graph, 1, 100, 5);
  return graph.to_matrix();
}

// rmat scale 12, unit weights: `social`'s shape, a handful of hops.
EdgeList unit_rmat_edges() {
  EdgeList graph = generate_rmat({.scale = 12, .edge_factor = 12, .seed = 3});
  graph.symmetrize();
  graph.normalize();
  assign_unit_weights(graph);
  return graph;
}

grb::Matrix<double> unit_rmat() { return unit_rmat_edges().to_matrix(); }

// The same graph plus one edge pair of weight 0.5, served at Δ 1 (auto Δ
// would drop to 0.5): an edge lighter than Δ, so a bucket can refill
// itself and the pick stays fused.
grb::Matrix<double> unit_rmat_with_light_edge() {
  EdgeList graph = unit_rmat_edges();
  graph.add_edge(0, 1, 0.5);  // to_matrix keeps the minimum of duplicates
  graph.add_edge(1, 0, 0.5);
  return graph.to_matrix();
}

// The same graph plus one zero-weight edge pair: served by a core that
// traverses it, so the distances still equal Dijkstra's.
grb::Matrix<double> unit_rmat_with_zero_edge() {
  EdgeList graph = unit_rmat_edges();
  graph.add_edge(0, 1, 0.0);
  graph.add_edge(1, 0, 0.0);
  return graph.to_matrix();
}

struct RoutedShape {
  const char* name;
  grb::Matrix<double> (*make)();
  sssp::Algorithm pick;
  double delta = kAutoDelta;
};

void PrintTo(const RoutedShape& shape, std::ostream* os) { *os << shape.name; }

class AutoRoute : public ::testing::TestWithParam<RoutedShape> {};

// The auto default is the cost model's pick and returns the oracle's bits,
// on a miss and on a cache hit.
TEST_P(AutoRoute, PicksByCostAndMatchesDijkstraOnMissAndHit) {
  const grb::Matrix<double> a = GetParam().make();
  ServerOptions options;
  options.num_workers = 1;
  options.delta = GetParam().delta;
  SsspServer server{grb::Matrix<double>(a), options};
  EXPECT_EQ(server.default_algorithm(), GetParam().pick);
  for (const Index source : {Index{0}, a.nrows() / 2 + 7}) {
    const std::vector<double> oracle = dijkstra(a, source).dist;
    for (int pass = 0; pass < 2; ++pass) {  // miss, then hit
      const sssp::QueryResult r = server.wait(server.submit(source));
      ASSERT_TRUE(r.ok()) << r.error;
      ASSERT_EQ(r.result.dist.size(), oracle.size());
      EXPECT_EQ(std::memcmp(r.result.dist.data(), oracle.data(),
                            oracle.size() * sizeof(double)),
                0)
          << "source " << source << (pass == 0 ? " (miss)" : " (hit)");
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Serving, AutoRoute,
    ::testing::Values(
        RoutedShape{"WeightedGrid", &weighted_grid, sssp::Algorithm::kBuckets},
        RoutedShape{"UnitRmat", &unit_rmat,
                    sssp::Algorithm::kDeltaSteppingAsync},
        RoutedShape{"UnitRmatWithLightEdge", &unit_rmat_with_light_edge,
                    sssp::Algorithm::kFused, 1.0},
        RoutedShape{"UnitRmatWithZeroEdge", &unit_rmat_with_zero_edge,
                    sssp::Algorithm::kDeltaSteppingAsync}),
    [](const auto& param) { return std::string(param.param.name); });

// ---------------------------------------------------------------------------
// The C surface: DsgServer_*.
// ---------------------------------------------------------------------------

class CapiServing : public ::testing::Test {
 protected:
  void SetUp() override {
    const EdgeList graph = test::diamond_graph();
    ASSERT_EQ(GrB_Matrix_new(&a_, 5, 5), GrB_SUCCESS);
    for (const auto& e : graph.edges()) {
      ASSERT_EQ(GrB_Matrix_setElement_FP64(a_, e.weight, e.src, e.dst),
                GrB_SUCCESS);
    }
  }

  void TearDown() override { GrB_Matrix_free(&a_); }

  GrB_Matrix a_ = nullptr;
};

TEST_F(CapiServing, SubmitWaitStatsRoundTrip) {
  DsgServer server = nullptr;
  ASSERT_EQ(DsgServer_new(&server, a_, DSG_SSSP_AUTO, DSG_SSSP_DELTA_AUTO, 2,
                          16, 8),
            GrB_SUCCESS);
  uint64_t ticket = 0;
  ASSERT_EQ(DsgServer_submit(server, 0, nullptr, &ticket), GrB_SUCCESS);
  std::vector<double> dist(5, -1.0);
  ASSERT_EQ(DsgServer_wait(server, ticket, dist.data()), GrB_SUCCESS);
  test::expect_distances(dist, test::diamond_distances_from_0(), "capi serve");

  // Second submit of the same source: served from cache, same distances.
  ASSERT_EQ(DsgServer_submit(server, 0, nullptr, &ticket), GrB_SUCCESS);
  std::vector<double> dist2(5, -1.0);
  ASSERT_EQ(DsgServer_wait(server, ticket, dist2.data()), GrB_SUCCESS);
  EXPECT_EQ(dist, dist2);

  DsgServerStats stats = {};
  ASSERT_EQ(DsgServer_stats(server, &stats), GrB_SUCCESS);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.queue_capacity, 16u);
  EXPECT_EQ(stats.cache_capacity, 8u);

  EXPECT_EQ(DsgServer_free(&server), GrB_SUCCESS);
  EXPECT_EQ(server, nullptr);
  EXPECT_EQ(DsgServer_free(&server), GrB_SUCCESS);  // NULL-safe
}

TEST_F(CapiServing, SavePlanAndColdStartFromFile) {
  const std::string path = ::testing::TempDir() + "dsg_capi_server.plan";
  DsgServer server = nullptr;
  ASSERT_EQ(DsgServer_new(&server, a_, DSG_SSSP_FUSED, 2.5, 1, 4, 4),
            GrB_SUCCESS);
  ASSERT_EQ(DsgServer_save_plan(server, path.c_str()), GrB_SUCCESS);
  ASSERT_EQ(DsgServer_free(&server), GrB_SUCCESS);

  DsgServer loaded = nullptr;
  ASSERT_EQ(DsgServer_new_from_file(&loaded, path.c_str(), DSG_SSSP_FUSED, 1,
                                    4, 4),
            GrB_SUCCESS);
  uint64_t ticket = 0;
  ASSERT_EQ(DsgServer_submit(loaded, 0, nullptr, &ticket), GrB_SUCCESS);
  std::vector<double> dist(5, -1.0);
  ASSERT_EQ(DsgServer_wait(loaded, ticket, dist.data()), GrB_SUCCESS);
  test::expect_distances(dist, test::diamond_distances_from_0(), "cold start");
  ASSERT_EQ(DsgServer_free(&loaded), GrB_SUCCESS);
  std::remove(path.c_str());

  EXPECT_EQ(DsgServer_new_from_file(&loaded, (path + ".missing").c_str(),
                                    DSG_SSSP_AUTO, 1, 4, 4),
            GrB_INVALID_VALUE);
  EXPECT_EQ(loaded, nullptr);
}

TEST_F(CapiServing, QueryControlCodesSurface) {
  DsgServer server = nullptr;
  ASSERT_EQ(DsgServer_new(&server, a_, DSG_SSSP_AUTO, DSG_SSSP_DELTA_AUTO, 1,
                          4, 0),
            GrB_SUCCESS);
  DsgQueryControl control = nullptr;
  ASSERT_EQ(DsgQueryControl_new(&control), GrB_SUCCESS);
  ASSERT_EQ(DsgQueryControl_cancel(control), GrB_SUCCESS);
  uint64_t ticket = 0;
  ASSERT_EQ(DsgServer_submit(server, 0, control, &ticket), GrB_SUCCESS);
  std::vector<double> dist(5, -1.0);
  EXPECT_EQ(DsgServer_wait(server, ticket, dist.data()), DSG_CANCELLED);
  EXPECT_EQ(dist[0], 0.0);  // partial upper bounds were still written
  ASSERT_EQ(DsgQueryControl_free(&control), GrB_SUCCESS);
  ASSERT_EQ(DsgServer_free(&server), GrB_SUCCESS);
}

TEST_F(CapiServing, ErrorCodes) {
  DsgServer server = nullptr;
  // kCapi cannot run on pool workers.
  EXPECT_EQ(DsgServer_new(&server, a_, DSG_SSSP_CAPI, DSG_SSSP_DELTA_AUTO, 1,
                          4, 4),
            GrB_INVALID_VALUE);
  EXPECT_EQ(server, nullptr);
  EXPECT_EQ(DsgServer_new(&server, a_, static_cast<DsgSsspAlgorithm>(99),
                          DSG_SSSP_DELTA_AUTO, 1, 4, 4),
            GrB_INVALID_VALUE);
  // A non-finite Δ is rejected by the plan, not taken as auto-Δ.
  EXPECT_EQ(DsgServer_new(&server, a_, DSG_SSSP_FUSED, std::nan(""), 1, 4, 4),
            GrB_INVALID_VALUE);
  EXPECT_EQ(server, nullptr);
  EXPECT_EQ(DsgServer_new(nullptr, a_, DSG_SSSP_AUTO, DSG_SSSP_DELTA_AUTO, 1,
                          4, 4),
            GrB_NULL_POINTER);

  ASSERT_EQ(DsgServer_new(&server, a_, DSG_SSSP_AUTO, DSG_SSSP_DELTA_AUTO, 1,
                          4, 4),
            GrB_SUCCESS);
  uint64_t ticket = 0;
  EXPECT_EQ(DsgServer_submit(server, 99, nullptr, &ticket),
            GrB_INVALID_INDEX);
  EXPECT_EQ(DsgServer_submit(server, 0, nullptr, nullptr), GrB_NULL_POINTER);
  std::vector<double> dist(5);
  EXPECT_EQ(DsgServer_wait(server, 424242, dist.data()), GrB_INVALID_VALUE);
  EXPECT_EQ(DsgServer_stats(server, nullptr), GrB_NULL_POINTER);
  ASSERT_EQ(DsgServer_free(&server), GrB_SUCCESS);
  EXPECT_EQ(DsgServer_free(nullptr), GrB_NULL_POINTER);
}

// A worker count above kMaxWorkers is refused before any thread starts, on
// both constructors; INT32_MAX would otherwise ask for 2^31 OS threads.
TEST_F(CapiServing, WorkerCountAboveCapIsRejected) {
  static_assert(kMaxWorkers < INT32_MAX);
  DsgServer server = nullptr;
  for (const int32_t workers : {kMaxWorkers + 1, INT32_MAX}) {
    EXPECT_EQ(DsgServer_new(&server, a_, DSG_SSSP_FUSED, DSG_SSSP_DELTA_AUTO,
                            workers, 4, 4),
              GrB_INVALID_VALUE)
        << workers;
    EXPECT_EQ(server, nullptr);
  }

  const std::string path = ::testing::TempDir() + "dsg_capi_worker_cap.plan";
  ASSERT_EQ(DsgServer_new(&server, a_, DSG_SSSP_FUSED, 2.5, 1, 4, 4),
            GrB_SUCCESS);
  ASSERT_EQ(DsgServer_save_plan(server, path.c_str()), GrB_SUCCESS);
  ASSERT_EQ(DsgServer_free(&server), GrB_SUCCESS);
  EXPECT_EQ(DsgServer_new_from_file(&server, path.c_str(), DSG_SSSP_FUSED,
                                    INT32_MAX, 4, 4),
            GrB_INVALID_VALUE);
  EXPECT_EQ(server, nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsg::serving
