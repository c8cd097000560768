// test_support.hpp — shared fixture layer for the SSSP test suites.
//
// Provides four things so the SSSP variants are exercised uniformly:
//   1. tiny hand-computed graphs with their known distance vectors,
//   2. an oracle checker against hand-computed distances,
//   3. the solver registry as a table (the threaded entries at two thread
//      counts), plus the DSG_CHECK_IMPL_PARITY table-driven parity macro
//      (structural validate_sssp + Dijkstra agreement for each entry, all
//      run on one shared GraphPlan) and its bit-exact sibling
//      expect_registry_matches_dijkstra_bits,
//   4. run_concurrent_stress, the barrier-started multi-thread harness
//      shared by the serving and async suites.
#pragma once

#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <cstring>
#include <exception>
#include <ostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "graph/edge_list.hpp"
#include "graphblas/context.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

namespace dsg::test {

using grb::Index;

// ---------------------------------------------------------------------------
// 1. Hand-computed instances.  Each returns the graph; the matching
//    *_distances() function returns the worked-by-hand oracle from the
//    conventional source (documented per graph).
// ---------------------------------------------------------------------------

/// The classic CLRS-style weighted digraph on 5 vertices.
inline EdgeList diamond_graph() {
  EdgeList g(5);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 3, 5.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(2, 4, 4.0);
  g.add_edge(3, 1, 3.0);
  g.add_edge(3, 2, 9.0);
  g.add_edge(3, 4, 2.0);
  g.add_edge(4, 0, 7.0);
  g.add_edge(4, 2, 6.0);
  return g;
}

/// Shortest paths in diamond_graph() from source 0:
///   0; 0->3->1 = 8; 0->3->1->2 = 9; 0->3 = 5; 0->3->4 = 7.
inline std::vector<double> diamond_distances_from_0() {
  return {0.0, 8.0, 9.0, 5.0, 7.0};
}

/// Undirected unit-weight path 0-1-...-(n-1): dist from 0 is the hop count.
inline EdgeList path_graph(Index n) {
  EdgeList g(n);
  for (Index v = 0; v + 1 < n; ++v) {
    g.add_edge(v, v + 1, 1.0);
    g.add_edge(v + 1, v, 1.0);
  }
  return g;
}

inline std::vector<double> path_distances_from_0(Index n) {
  std::vector<double> d(n);
  for (Index v = 0; v < n; ++v) d[v] = static_cast<double>(v);
  return d;
}

/// Two disconnected unit-weight edges: {0-1} and the island {2-3}.
inline EdgeList two_islands_graph() {
  EdgeList g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  return g;
}

inline std::vector<double> two_islands_distances_from_0() {
  return {0.0, 1.0, kInfDist, kInfDist};
}

/// Light-edge chain inside one bucket beating a direct heavier edge:
/// 0 -> 4 direct costs 1.0; 0->1->2->3->4 costs 0.95.  Stresses bucket
/// re-introduction (the delta-stepping corner the paper's Fig. 2 loops on).
inline EdgeList zigzag_graph() {
  EdgeList g(5);
  g.add_edge(0, 1, 0.3);
  g.add_edge(1, 2, 0.3);
  g.add_edge(2, 3, 0.3);
  g.add_edge(3, 4, 0.05);
  g.add_edge(0, 4, 1.0);
  return g;
}

inline std::vector<double> zigzag_distances_from_0() {
  return {0.0, 0.3, 0.6, 0.9, 0.95};
}

// ---------------------------------------------------------------------------
// 2. Oracle checkers.
// ---------------------------------------------------------------------------

/// Element-wise check of a distance vector against a hand-computed oracle.
inline void expect_distances(const std::vector<double>& got,
                             const std::vector<double>& want,
                             const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (Index v = 0; v < want.size(); ++v) {
    if (want[v] == kInfDist) {
      EXPECT_EQ(got[v], kInfDist) << context << ": vertex " << v;
    } else {
      EXPECT_NEAR(got[v], want[v], 1e-12) << context << ": vertex " << v;
    }
  }
}

/// The plan holds one light/heavy split: the CSR view the fused family
/// reads is the storage of the A_L / A_H the GraphBLAS family reads (A
/// itself for a half that holds every edge).
inline void expect_one_split(const GraphPlan& plan) {
  const dsg::detail::LightHeavySplit& s = plan.light_heavy();
  const grb::Matrix<double>& al = plan.light_matrix();
  const grb::Matrix<double>& ah = plan.heavy_matrix();
  EXPECT_EQ(al.row_ptr().data(), s.light_ptr.data());
  EXPECT_EQ(al.col_ind().data(), s.light_ind.data());
  EXPECT_EQ(al.raw_values().data(), s.light_val.data());
  EXPECT_EQ(al.nvals(), s.light_ind.size());
  EXPECT_EQ(ah.row_ptr().data(), s.heavy_ptr.data());
  EXPECT_EQ(ah.col_ind().data(), s.heavy_ind.data());
  EXPECT_EQ(ah.raw_values().data(), s.heavy_val.data());
  EXPECT_EQ(ah.nvals(), s.heavy_ind.size());
}

// ---------------------------------------------------------------------------
// 3. The registry as a table: every SSSP variant, each through its one
//    entry point.
// ---------------------------------------------------------------------------

/// Runs one registry entry against a plan on the calling thread's default
/// context — the registry's single entry point, spelled out.
inline SsspResult run_registry(const GraphPlan& plan,
                               sssp::Algorithm algorithm, Index source,
                               const ExecOptions& exec = {}) {
  return sssp::algorithm_info(algorithm).run(plan, grb::default_context(),
                                             source, exec);
}

/// One registry entry at one thread count.
struct Impl {
  std::string name;  ///< registry name, "_2t"/"_4t" suffixed when threaded
  sssp::Algorithm algorithm;
  int num_threads = 0;  ///< ExecOptions::num_threads (0 = default)

  /// Runs the entry against a shared plan.
  SsspResult run(const GraphPlan& plan, Index source) const {
    ExecOptions exec;
    exec.num_threads = num_threads;
    return run_registry(plan, algorithm, source, exec);
  }

  /// One-off run: builds a plan for (a, delta) first.
  SsspResult run(const grb::Matrix<double>& a, Index source,
                 double delta) const {
    return run(GraphPlan(grb::Matrix<double>(a), delta), source);
  }
};

/// gtest parameter printing: the entry's name instead of a byte dump.
inline void PrintTo(const Impl& impl, std::ostream* os) { *os << impl.name; }

/// True for the registry entries that bucket by Δ (everything except the
/// Dijkstra / Bellman–Ford baselines).
inline bool uses_delta(sssp::Algorithm algorithm) {
  return algorithm != sssp::Algorithm::kDijkstra &&
         algorithm != sssp::Algorithm::kBellmanFord;
}

namespace detail {

/// The registry in enum order.  Threaded entries (openmp and the async
/// engine) appear at 2 and 4 threads, so parallel bugs that need more
/// than two threads still have a chance to surface.
inline std::vector<Impl> registry_impls(bool delta_only) {
  std::vector<Impl> impls;
  for (const sssp::AlgorithmInfo& info : sssp::algorithm_registry()) {
    if (delta_only && !uses_delta(info.id)) continue;
    if (!info.threaded) {
      impls.push_back({info.name, info.id});
      continue;
    }
    for (int threads : {2, 4}) {
      impls.push_back({std::string(info.name) + "_" +
                           std::to_string(threads) + "t",
                       info.id, threads});
    }
  }
  return impls;
}

}  // namespace detail

/// The delta-stepping variants (paper Fig. 2 and its optimizations,
/// including the async engine, whose *distances* honor Δ-independence like
/// every other variant).  Δ is honored.
inline const std::vector<Impl>& delta_stepping_impls() {
  static const std::vector<Impl> impls = detail::registry_impls(true);
  return impls;
}

/// The whole registry, baselines included (Δ ignored by the baselines).
inline const std::vector<Impl>& all_sssp_impls() {
  static const std::vector<Impl> impls = detail::registry_impls(false);
  return impls;
}

/// Every registry entry (the threaded ones at 2 and 4 threads) returns
/// Dijkstra's distances on `plan` bit for bit, not merely within a
/// tolerance.  Use it on integer-weighted graphs, where every path sum is
/// exact, or on graphs whose edges all weigh the same, where every path
/// of k hops sums to the same value.
inline void expect_registry_matches_dijkstra_bits(const GraphPlan& plan,
                                                  Index source) {
  const SsspResult want =
      run_registry(plan, sssp::Algorithm::kDijkstra, source);
  for (const Impl& impl : all_sssp_impls()) {
    SCOPED_TRACE("impl=" + impl.name);
    const SsspResult got = impl.run(plan, source);
    ASSERT_EQ(got.dist.size(), want.dist.size());
    EXPECT_EQ(std::memcmp(got.dist.data(), want.dist.data(),
                          want.dist.size() * sizeof(double)),
              0);
  }
}

// ---------------------------------------------------------------------------
// 4. Concurrent-stress harness.
// ---------------------------------------------------------------------------

/// Runs `body(thread_index, rng)` on `num_threads` threads that all start
/// together (a barrier maximizes real overlap — without it, thread 0 often
/// finishes before thread N-1 even launches) with a per-thread
/// deterministically-seeded RNG.  gtest assertions are not thread-safe to
/// *fail* on worker threads, so bodies should collect observations and
/// throw on violation; the first exception from any thread is rethrown on
/// the caller after every thread has joined.
template <typename Body>
void run_concurrent_stress(int num_threads, std::uint64_t seed, Body&& body) {
  std::barrier gate(num_threads);
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_threads));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(t));
      gate.arrive_and_wait();
      try {
        body(t, rng);
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace dsg::test

/// Table-driven cross-implementation parity: builds one GraphPlan for
/// (matrix, delta), runs every entry of `impls` on it from `source` and
/// checks each result against the structural SSSP invariants and against a
/// single shared Dijkstra reference (itself validated first).
#define DSG_CHECK_IMPL_PARITY(impls, matrix, source, delta)                  \
  do {                                                                       \
    const auto& dsg_parity_a = (matrix);                                     \
    const auto dsg_parity_ref = ::dsg::dijkstra(dsg_parity_a, (source));     \
    const auto dsg_ref_val =                                                 \
        ::dsg::validate_sssp(dsg_parity_a, (source), dsg_parity_ref.dist);   \
    ASSERT_TRUE(dsg_ref_val.ok) << "dijkstra invalid: "                      \
                                << dsg_ref_val.message;                      \
    const ::dsg::GraphPlan dsg_parity_plan(                                  \
        ::grb::Matrix<double>(dsg_parity_a), (delta));                       \
    for (const auto& dsg_impl : (impls)) {                                   \
      SCOPED_TRACE("impl=" + dsg_impl.name);                                 \
      const auto dsg_r = dsg_impl.run(dsg_parity_plan, (source));            \
      const auto dsg_cmp =                                                   \
          ::dsg::compare_distances(dsg_parity_ref.dist, dsg_r.dist, 1e-9);   \
      EXPECT_TRUE(dsg_cmp.ok) << dsg_cmp.message;                            \
      const auto dsg_val =                                                   \
          ::dsg::validate_sssp(dsg_parity_a, (source), dsg_r.dist);          \
      EXPECT_TRUE(dsg_val.ok) << dsg_val.message;                            \
    }                                                                        \
  } while (0)

/// Distances-only (schedule-independent) parity: checks ONE distance vector
/// — however it was produced — against the structural SSSP invariants and a
/// fresh, self-validated Dijkstra reference.  This is the oracle for the
/// nondeterministic engines: it never looks at stats, phase counts or any
/// other schedule artifact, only at the returned distances (which the async
/// engines guarantee are the unique fp fixed point for every thread count).
#define DSG_CHECK_DISTANCES_ONLY(matrix, source, dist_vec)                   \
  do {                                                                       \
    const auto& dsg_do_a = (matrix);                                         \
    const auto& dsg_do_d = (dist_vec);                                       \
    const auto dsg_do_ref = ::dsg::dijkstra(dsg_do_a, (source));             \
    const auto dsg_do_refval =                                               \
        ::dsg::validate_sssp(dsg_do_a, (source), dsg_do_ref.dist);           \
    ASSERT_TRUE(dsg_do_refval.ok) << "dijkstra invalid: "                    \
                                  << dsg_do_refval.message;                  \
    const auto dsg_do_cmp =                                                  \
        ::dsg::compare_distances(dsg_do_ref.dist, dsg_do_d, 1e-9);           \
    EXPECT_TRUE(dsg_do_cmp.ok) << dsg_do_cmp.message;                        \
    const auto dsg_do_val =                                                  \
        ::dsg::validate_sssp(dsg_do_a, (source), dsg_do_d);                  \
    EXPECT_TRUE(dsg_do_val.ok) << dsg_do_val.message;                        \
  } while (0)
