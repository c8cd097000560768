// async_stepping.cpp — the lock-free engine behind delta_stepping_async.
// See async_stepping.hpp for the execution model and write_min.hpp for the
// memory-ordering contract.
//
// Threading layout: one std::barrier with two arrive_and_wait points per
// round.  Workers relax between the round start and the first barrier;
// thread 0 then runs the round bookkeeping (termination test, sparse/dense
// mode decision, theta computation, buffer swap) alone between the two
// barriers while the other workers are parked inside the second wait — so
// the bookkeeping mutates plain (non-atomic) shared state without races,
// and the barrier's release/acquire edge publishes it to everyone.
#include "sssp/async/async_stepping.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "graphblas/context.hpp"
#include "sssp/async/write_min.hpp"
#include "testing/fault_injection.hpp"

namespace dsg {

namespace {

/// Per-thread eager queue depth (the PASGAL local-queue idiom): freshly
/// improved vertices are relaxed in-round, skipping a frontier round trip.
constexpr int kLocalQueueSize = 128;
/// Strided-sampling budget for the dense frontier-size estimate.
constexpr Index kSampleTarget = 1024;
/// Work-stealing grab sizes: list entries per claim (sparse rounds) and
/// vertex-range width per claim (dense sweeps).
constexpr Index kGrabSparse = 256;
constexpr Index kGrabDense = 2048;
/// Frontier density (estimated) at which the next round switches from the
/// sparse list traversal to the dense flag sweep.
constexpr Index kDenseFractionDivisor = 16;

/// O(n) engine state parked in the executing grb::Context so repeated
/// solves (benchmark reps, batches) reuse capacity.  Invariant between
/// solves: both flag arrays are all-zero — every round clears the flags it
/// consumes, and a solve only terminates once the frontier is empty.
struct AsyncWorkspace {
  Index n = 0;
  std::unique_ptr<std::atomic<double>[]> dist;
  std::unique_ptr<std::atomic<unsigned char>[]> flags0, flags1;
  std::vector<Index> list0, list1;

  void ensure(Index n_now) {
    if (n == n_now && dist) return;
    n = n_now;
    dist = std::make_unique<std::atomic<double>[]>(n_now);
    // Value-initialized: all-zero, satisfying the between-solves invariant.
    flags0 = std::make_unique<std::atomic<unsigned char>[]>(n_now);
    flags1 = std::make_unique<std::atomic<unsigned char>[]>(n_now);
    list0.assign(n_now, 0);
    list1.assign(n_now, 0);
  }
};

enum class Mode { kSparse, kDense };

/// Thread-local round state: the eager queue plus counters merged into the
/// shared accumulators at the end of every round.
struct Local {
  std::array<Index, kLocalQueueSize> queue;
  int qsize = 0;
  std::uint64_t processed = 0;
  double next_min = kInfDist;
};

struct Engine {
  // Immutable CSR view + policy, set once before any thread starts.
  std::span<const Index> row_ptr, col_ind;
  std::span<const double> val;
  Index n = 0;
  double delta = 1.0;

  // Shared concurrent state (atomics: touched by all workers in-round).
  std::atomic<double>* dist = nullptr;
  std::atomic<unsigned char>* cur_flags = nullptr;
  std::atomic<unsigned char>* nxt_flags = nullptr;
  Index* cur_list = nullptr;
  Index* nxt_list = nullptr;
  std::atomic<Index> nxt_cursor{0};     ///< sparse bag append position
  std::atomic<unsigned char> nxt_nonempty{0};  ///< dense-mode liveness latch
  std::atomic<double> nxt_min{kInfDist};       ///< min candidate seen for next
  std::atomic<Index> work_cursor{0};    ///< work-stealing claim position
  std::atomic<std::uint64_t> processed_round{0};

  // Round configuration: written only by thread 0 between the two round
  // barriers (all other workers are parked in the second wait), read by
  // everyone after it — the barrier edge orders the plain accesses.
  Mode traverse_mode = Mode::kSparse;
  Mode insert_mode = Mode::kSparse;
  Index cur_size = 0;  ///< exact in sparse rounds, estimated in dense ones
  double theta = kInfDist;
  bool done = false;

  SsspStats stats;  // coordinator-owned

  // --- lifecycle + failure containment ------------------------------------
  // The control is polled only by the coordinator (between the barriers),
  // which turns expiry/cancel into `done` — the same plain flag every
  // worker already observes at the round edge, so cancellation needs no
  // extra synchronization.  A worker that throws records the exception
  // here (first one wins), keeps the barrier protocol so nobody deadlocks,
  // and the coordinator shuts the engine down at the next round edge; the
  // error is rethrown on the coordinating caller after the join.
  const QueryControl* control = nullptr;
  SsspStatus status = SsspStatus::kComplete;  // coordinator-owned
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu until the join

  void record_failure() {
    {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
  }

  // --- shared concurrent bag ----------------------------------------------

  /// Publishes v (at candidate distance dv) into the next frontier.  The
  /// flag array both deduplicates the sparse append list and *is* the
  /// frontier in dense rounds.
  void insert_next(Index v, double dv, Local& loc) {
    loc.next_min = std::min(loc.next_min, dv);
    if (insert_mode == Mode::kSparse) {
      if (nxt_flags[v].exchange(1, std::memory_order_relaxed) == 0) {
        nxt_list[nxt_cursor.fetch_add(1, std::memory_order_relaxed)] = v;
      }
    } else {
      // Dense rounds skip the list: the flag is idempotent, so a plain
      // test-and-set (no RMW) avoids cursor contention on huge frontiers.
      if (nxt_flags[v].load(std::memory_order_relaxed) == 0) {
        nxt_flags[v].store(1, std::memory_order_relaxed);
      }
      if (nxt_nonempty.load(std::memory_order_relaxed) == 0) {
        nxt_nonempty.store(1, std::memory_order_relaxed);
      }
    }
  }

  // --- relaxation core ----------------------------------------------------

  /// Relaxes u if its distance falls inside this round's theta window,
  /// else defers it to the next frontier.  Every successful write_min
  /// re-enqueues its target (locally when there is room, otherwise into
  /// the shared bag), which is the invariant that makes quiescence the
  /// min-plus fixed point: no improvement is ever dropped.
  void handle(Index u, Local& loc) {
    const double du = dist[u].load(std::memory_order_relaxed);
    if (du >= theta) {
      insert_next(u, du, loc);
      return;
    }
    ++loc.processed;
    const Index hi = row_ptr[u + 1];
    for (Index k = row_ptr[u]; k < hi; ++k) {
      const Index v = col_ind[k];
      const double cand = du + val[k];
      if (async::write_min(dist[v], cand)) {
        if (loc.qsize < kLocalQueueSize) {
          loc.queue[static_cast<std::size_t>(loc.qsize++)] = v;
        } else {
          insert_next(v, cand, loc);
        }
      }
    }
  }

  void drain(Local& loc) {
    while (loc.qsize > 0) handle(loc.queue[static_cast<std::size_t>(--loc.qsize)], loc);
  }

  /// One worker's share of a round: claim frontier blocks through the
  /// work cursor until the frontier is exhausted, then merge the local
  /// counters into the shared round accumulators.
  void run_round(Local& loc) {
    testing::fault_point("async/round");
    if (traverse_mode == Mode::kSparse) {
      for (;;) {
        const Index start =
            work_cursor.fetch_add(kGrabSparse, std::memory_order_relaxed);
        if (start >= cur_size) break;
        const Index end = std::min(cur_size, start + kGrabSparse);
        for (Index i = start; i < end; ++i) {
          const Index u = cur_list[i];
          // Clear as we consume: the array must be all-zero by round end
          // so the swap can reuse it as the next-frontier flags.
          cur_flags[u].store(0, std::memory_order_relaxed);
          handle(u, loc);
          drain(loc);
        }
      }
    } else {
      for (;;) {
        const Index start =
            work_cursor.fetch_add(kGrabDense, std::memory_order_relaxed);
        if (start >= n) break;
        const Index end = std::min(n, start + kGrabDense);
        for (Index u = start; u < end; ++u) {
          if (cur_flags[u].load(std::memory_order_relaxed) != 0) {
            cur_flags[u].store(0, std::memory_order_relaxed);
            handle(u, loc);
            drain(loc);
          }
        }
      }
    }
    processed_round.fetch_add(loc.processed, std::memory_order_relaxed);
    loc.processed = 0;
    if (loc.next_min < kInfDist) {
      async::write_min(nxt_min, loc.next_min);
      loc.next_min = kInfDist;
    }
  }

  // --- round bookkeeping (thread 0 only, between the round barriers) ------

  Index dense_threshold() const {
    return std::max<Index>(Index{1}, n / kDenseFractionDivisor);
  }

  /// Sampled frontier-size estimate over the dense flag array: the same
  /// deterministic strided-probe idiom as Context::dense_output_crossover
  /// (no RNG, fixed stride), scaled back to the full domain.
  Index estimate_dense_size() const {
    const Index stride = std::max<Index>(Index{1}, n / kSampleTarget);
    Index probes = 0, hits = 0;
    for (Index v = 0; v < n; v += stride) {
      ++probes;
      hits += nxt_flags[v].load(std::memory_order_relaxed) != 0 ? 1u : 0u;
    }
    return static_cast<Index>(static_cast<double>(hits) /
                              static_cast<double>(probes) *
                              static_cast<double>(n));
  }

  /// Dense -> sparse transition: materialize the flag array as a list.
  /// Serial (coordinator-only) O(n); transitions are rare — a frontier
  /// shrinking back through the density threshold near the end of a solve.
  Index pack_dense_to_list() {
    Index count = 0;
    for (Index v = 0; v < n; ++v) {
      if (nxt_flags[v].load(std::memory_order_relaxed) != 0) {
        nxt_list[count++] = v;
      }
    }
    return count;
  }

  /// theta for the upcoming round: the end of the bucket that holds
  /// frontier_min, the smallest candidate recorded while the frontier was
  /// filled — an upper bound on the true minimum (in-round improvements
  /// can undercut their recorded value), which only coarsens the window:
  /// theta stays above the true minimum, so the minimum vertex is
  /// processed and settles.  The one exception is a Δ so small next to
  /// the distances that the +1 is lost in floating point; coordinate()
  /// catches the resulting empty round.
  double compute_theta(double frontier_min) const {
    return (std::floor(frontier_min / delta) + 1.0) * delta;
  }

  void coordinate() {
    // A recorded worker failure ends the solve at this round edge; the
    // acquire pairs with record_failure's release so the error_ptr write
    // is visible to the post-join rethrow.
    if (failed.load(std::memory_order_acquire)) {
      done = true;
      return;
    }
    testing::fault_point("async/coordinate");
    if (status == SsspStatus::kComplete) status = poll_control(control);
    if (status != SsspStatus::kComplete) {
      // Stop cooperatively: dist holds write_min upper bounds at any cut.
      done = true;
      return;
    }
    ++stats.outer_iterations;
    const std::uint64_t processed =
        processed_round.load(std::memory_order_relaxed);
    stats.relax_requests += processed;

    Index next_size = 0;
    bool empty = false;
    if (insert_mode == Mode::kSparse) {
      next_size = nxt_cursor.load(std::memory_order_relaxed);
      empty = next_size == 0;
    } else {
      empty = nxt_nonempty.load(std::memory_order_relaxed) == 0;
      next_size = empty ? Index{0} : estimate_dense_size();
    }
    if (empty) {
      done = true;
      return;
    }

    Mode next_mode =
        next_size >= dense_threshold() ? Mode::kDense : Mode::kSparse;
    if (insert_mode == Mode::kDense && next_mode == Mode::kSparse) {
      next_size = pack_dense_to_list();
    }
    const double frontier_min = nxt_min.load(std::memory_order_relaxed);

    std::swap(cur_flags, nxt_flags);
    std::swap(cur_list, nxt_list);
    cur_size = next_size;
    traverse_mode = insert_mode = next_mode;
    nxt_cursor.store(0, std::memory_order_relaxed);
    nxt_nonempty.store(0, std::memory_order_relaxed);
    nxt_min.store(kInfDist, std::memory_order_relaxed);
    work_cursor.store(0, std::memory_order_relaxed);
    processed_round.store(0, std::memory_order_relaxed);

    // A round that processed nothing (only a tiny Δ's rounding, see
    // compute_theta) flushes everything next round rather than spinning.
    theta = processed == 0 ? kInfDist : compute_theta(frontier_min);
  }

  void worker(std::barrier<>& bar, int tid) {
    Local loc;
    for (;;) {
      try {
        run_round(loc);
      } catch (...) {
        // Record and keep going to the barrier: peers may still be inside
        // run_round, and abandoning the protocol would deadlock them.  The
        // local round state is reset so nothing half-drained carries over.
        record_failure();
        loc.qsize = 0;
        loc.processed = 0;
        loc.next_min = kInfDist;
      }
      bar.arrive_and_wait();  // all relaxation for this round is done
      if (tid == 0) {
        try {
          coordinate();
        } catch (...) {
          record_failure();
          done = true;
        }
      }
      bar.arrive_and_wait();  // round bookkeeping published
      if (done) break;
    }
  }
};

}  // namespace

SsspResult delta_stepping_async(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  const grb::Matrix<double>& a = plan.matrix();

  auto& ws = ctx.get<AsyncWorkspace>();
  ws.ensure(n);

  Engine eng;
  eng.row_ptr = a.row_ptr();
  eng.col_ind = a.col_ind();
  eng.val = a.raw_values();
  eng.n = n;
  eng.delta = plan.delta();

  eng.dist = ws.dist.get();
  for (Index v = 0; v < n; ++v) {
    eng.dist[v].store(kInfDist, std::memory_order_relaxed);
  }
  eng.dist[source].store(0.0, std::memory_order_relaxed);

  eng.cur_flags = ws.flags0.get();
  eng.nxt_flags = ws.flags1.get();
  eng.cur_list = ws.list0.data();
  eng.nxt_list = ws.list1.data();
  eng.cur_list[0] = source;
  eng.cur_flags[source].store(1, std::memory_order_relaxed);
  eng.cur_size = 1;
  eng.traverse_mode = eng.insert_mode = Mode::kSparse;
  eng.theta = eng.compute_theta(0.0);
  eng.control = exec.control;

  int threads = exec.num_threads > 0
                    ? exec.num_threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;

  // Pre-run poll: a deadline of 0 (or an already-cancelled control) returns
  // before any thread spawns, with the init-state upper bounds.
  eng.status = poll_control(exec.control);
  if (eng.status != SsspStatus::kComplete) {
    eng.done = true;
  } else if (threads == 1) {
    // Inline serial path: the same rounds, no barrier, no spawn.  Errors
    // are parked like the threaded path's so the workspace scrub below
    // runs before the rethrow.
    Local loc;
    try {
      while (!eng.done) {
        eng.run_round(loc);
        eng.coordinate();
      }
    } catch (...) {
      eng.record_failure();
    }
  } else {
    std::barrier<> bar(threads);
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&eng, &bar, t] { eng.worker(bar, t); });
    }
    for (auto& th : pool) th.join();  // join: publishes every final store
  }

  // An interrupted or failed run stops with frontier flags still set
  // (normal termination only happens on an empty frontier).  Scrub both
  // arrays to restore the workspace's between-solves all-zero invariant
  // before returning or rethrowing.
  if (eng.error || eng.status != SsspStatus::kComplete) {
    for (Index v = 0; v < n; ++v) {
      ws.flags0[v].store(0, std::memory_order_relaxed);
      ws.flags1[v].store(0, std::memory_order_relaxed);
    }
  }
  if (eng.error) std::rethrow_exception(eng.error);

  SsspResult result;
  result.dist.resize(n);
  for (Index v = 0; v < n; ++v) {
    result.dist[v] = eng.dist[v].load(std::memory_order_relaxed);
  }
  result.stats = eng.stats;
  result.status = eng.status;
  return result;
}

}  // namespace dsg
