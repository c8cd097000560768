// server.hpp — SsspServer, the SSSP-as-a-service front door: a fixed pool
// of worker threads sharing one immutable GraphPlan, fed by a bounded
// MPMC queue of queries, with an LRU result cache in front of the solves.
//
// Lifecycle of one query:
//   submit()  validates the source and the algorithm choice, resolves the
//             algorithm (per-query override, else the server's
//             auto-selected default) and consults the cache — the only
//             lookup site.  A hit finishes right there, on the submitting
//             thread: the distances are copied outside every lock and the
//             ticket lands finished, without a queue slot, backpressure or
//             a worker.  A miss (or a bypass_cache query, or a server with
//             cache_capacity 0) blocks while the queue is full (bounded
//             backpressure — a serving tier must push back, not buffer
//             unboundedly) and is queued.  Either way submit returns a
//             Ticket;
//   a worker  pops a queued query and runs the plan-based core on its OWN
//             grb::Context (contexts are not thread-safe; the plan is,
//             after warming — its lazy cache is mutex-guarded), then
//             inserts a kComplete result into the cache;
//   wait()    blocks until that ticket's result is ready and redeems it
//             (each ticket redeemable exactly once).
//
// Failure containment mirrors solve_batch's isolation contract: a query
// that throws — on a worker, or in submit's cache lookup and copy — marks
// only its own QueryResult kFailed; the pool and every other in-flight
// query keep going.  QueryControl deadlines/cancellation plug in per
// query — an interrupted query returns its partial upper bounds with the
// matching status and is NOT cached (only kComplete results are).
//
// Determinism under concurrency: distances are deterministic — every
// pool-safe algorithm is value-deterministic per (graph, Δ, source), so
// the answer to a query does not depend on which worker ran it or what
// else was in flight; a cache hit returns a bit-identical copy of the
// first computation.  Scheduling is not — completion ORDER, cache
// hit/miss counts, and eviction victims depend on thread interleaving.
//
// Synchronization: one mutex + three condvars (queue space, queue data,
// results), plain counters under the same mutex.  No raw atomics — the
// project's atomics-confinement lint routes anything lock-free through
// the audited wrappers, and nothing here is hot enough to need them (the
// lock is taken per query, not per edge).  ResultCache::mu is never
// taken while mu_ is held: submit looks up, workers insert and stats()
// snapshots the cache between their critical sections.  The mutex and
// condvars are the lockdep-audited wrappers from testing/lock_audit.hpp:
// under DSG_AUDIT_INVARIANTS every acquisition feeds the process-global
// lock-order graph (order inversions and condvar-wait-while-holding-
// second-lock abort with both chains); otherwise they compile to plain
// std::mutex / condition_variable_any.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serving/result_cache.hpp"
#include "sssp/plan.hpp"
#include "sssp/solver.hpp"
#include "testing/lock_audit.hpp"

namespace dsg::serving {

/// Most worker threads a server starts; a larger num_workers is rejected.
inline constexpr int kMaxWorkers = 1024;

struct ServerOptions {
  /// Worker threads (<= 0 selects hardware_concurrency, at least 1; above
  /// kMaxWorkers the constructor throws grb::InvalidValue).
  int num_workers = 2;
  /// Bounded queue depth; submit() blocks when full.  0 is clamped to 1.
  std::size_t queue_capacity = 64;
  /// Result-cache entries; 0 disables caching entirely.
  std::size_t cache_capacity = 256;
  /// Default algorithm for queries without an override.  nullopt =
  /// sssp::auto_algorithm(plan).  kCapi is rejected (process-global
  /// operator state cannot run on pool threads).
  std::optional<sssp::Algorithm> algorithm;
  /// Bucket width for the matrix-snapshot constructor (the plan
  /// constructor consumes it; the plan-sharing constructor ignores it).
  double delta = kAutoDelta;
  /// Collect per-phase timers in each result's SsspStats.
  bool profile = false;
};

/// Monotonic since construction; "completed" counts kComplete only.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_insert_failures = 0;  ///< best-effort inserts that threw
  ResultCacheStats cache;
  std::uint64_t workers = 0;
  std::uint64_t queue_capacity = 0;
};

class SsspServer {
 public:
  using Ticket = std::uint64_t;

  struct Query {
    Index source = 0;
    /// Optional lifecycle control; the caller keeps it alive until wait()
    /// returns for this ticket.
    const QueryControl* control = nullptr;
    /// Per-query algorithm override (validated at submit; kCapi rejected).
    std::optional<sssp::Algorithm> algorithm;
    /// Skip the cache for this query (both lookup and insert).
    bool bypass_cache = false;
  };

  /// Shares an existing (already validated) plan across servers.
  explicit SsspServer(std::shared_ptr<const GraphPlan> plan,
                      ServerOptions options = {});
  /// Snapshots a matrix into a fresh plan at options.delta.
  explicit SsspServer(grb::Matrix<double> graph, ServerOptions options = {});

  /// Drains every submitted query, then joins the pool (shutdown()).
  ~SsspServer();

  SsspServer(const SsspServer&) = delete;
  SsspServer& operator=(const SsspServer&) = delete;

  const GraphPlan& plan() const { return *plan_; }
  /// The algorithm queries run under when they carry no override:
  /// ServerOptions::algorithm, or sssp::auto_algorithm's pick (dijkstra,
  /// buckets, fused, or delta_stepping_async: for one weight on a
  /// symmetric pattern, a stored zero weight, or no edge lighter than Δ),
  /// which every query runs at one thread.
  sssp::Algorithm default_algorithm() const { return default_algorithm_; }

  Ticket submit(Index source) {
    Query query;
    query.source = source;
    return submit(query);
  }
  Ticket submit(Index source, const QueryControl& control) {
    Query query;
    query.source = source;
    query.control = &control;
    return submit(query);
  }
  /// Validates, then answers a cache hit in place or enqueues; only the
  /// enqueue blocks while the queue is full.  A hit ignores the query's
  /// control (it is instant).  Throws grb::IndexOutOfBounds (bad source)
  /// or grb::InvalidValue (bad or pool-unsafe algorithm, server shutting
  /// down, cached source or not) without issuing a ticket; a lookup or
  /// copy that throws finishes its ticket kFailed instead.  A refused
  /// submit counts nothing, unless shutdown began while it waited on a
  /// full queue: then its cache miss is already counted.
  Ticket submit(const Query& query);

  /// Blocks until `ticket`'s result is ready and redeems it.  Unknown or
  /// already-redeemed tickets throw grb::InvalidValue.  Results of
  /// queries drained during shutdown() remain redeemable until
  /// destruction.
  sssp::QueryResult wait(Ticket ticket);

  ServerStats stats() const;

  /// Stops accepting new queries, finishes every query already submitted,
  /// and joins the workers.  Idempotent; called by the destructor.  Must
  /// not race other submit() calls from the destructing thread's
  /// perspective — standard owner-drives-shutdown discipline.
  void shutdown();

 private:
  struct Item {
    Ticket ticket = 0;
    Query query;
  };

  void start_workers();
  void worker_loop();
  sssp::QueryResult run_query(const Query& query, grb::Context& ctx);
  /// The hit's result (kFailed if the lookup or copy threw); nullopt on a
  /// miss.  Called with no lock held.
  std::optional<sssp::QueryResult> serve_from_cache(Index source,
                                                    sssp::Algorithm algorithm);
  CacheKey cache_key(Index source, sssp::Algorithm algorithm) const;
  bool uses_cache(const Query& query) const;
  /// Counts `result` by status and files it for wait(); mu_ held.
  void finish_locked(Ticket ticket, sssp::QueryResult result);

  std::shared_ptr<const GraphPlan> plan_;
  ServerOptions options_;
  sssp::Algorithm default_algorithm_ = sssp::Algorithm::kFused;
  // The cache key's per-server prefix, read once at construction so no
  // query takes the plan's lazy-slot mutex.
  std::uint64_t fingerprint_ = 0;
  double delta_ = 0.0;
  ResultCache cache_;

  mutable testing::AuditedMutex mu_{"SsspServer::mu"};
  testing::AuditedConditionVariable not_full_;   // queue has space
  testing::AuditedConditionVariable not_empty_;  // queue has work/stopping
  testing::AuditedConditionVariable done_;       // a result landed
  std::deque<Item> queue_;
  std::unordered_set<Ticket> outstanding_;  // queued or solving
  std::unordered_map<Ticket, sssp::QueryResult> finished_;  // awaiting wait()
  Ticket next_ticket_ = 1;
  bool stopping_ = false;
  // Counters (guarded by mu_).
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t deadline_expired_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cache_insert_failures_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace dsg::serving
