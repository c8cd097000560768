// result_cache.hpp — the serving layer's LRU source→distances cache.
//
// A cache entry is one completed query's full distance vector, keyed by
// everything that determines it: the plan's structural fingerprint, the
// source vertex, the algorithm, and Δ.  The fingerprint is load-bearing —
// two servers over different graphs (or one server whose plan was swapped)
// can never serve each other's distances, because the keys differ even
// when (source, algorithm, Δ) collide.
//
// Only kComplete results are cacheable: an interrupted query's distances
// are upper bounds for *that* query's deadline, not shortest paths, and a
// later hit would silently launder them into exact answers.  The server
// enforces this; the cache itself stores whatever it is given.
//
// Values are shared_ptr<const vector<double>>: a hit hands back a
// reference to the cached vector (no copy inside the lock) and eviction
// cannot invalidate a result a client is still reading.
//
// Thread-safety: every public method is mutex-guarded; lookup() bumps
// recency, so even "reads" mutate LRU order.  No raw atomics (the project
// atomics-confinement lint applies): one lock, coarse and simple, is the
// audited design — the cache is consulted once per query, not per edge.
// The mutex is a lockdep-audited AuditedMutex (testing/lock_audit.hpp):
// the server consults the cache while NOT holding its own lock, and the
// auditor proves that stays true — nesting ResultCache::mu inside
// SsspServer::mu in one place and the reverse elsewhere would abort the
// DSG_AUDIT_INVARIANTS build at the first offending acquire.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sssp/common.hpp"
#include "testing/lock_audit.hpp"

namespace dsg::serving {

/// Everything that determines a cached distance vector.
struct CacheKey {
  std::uint64_t plan_fingerprint = 0;
  Index source = 0;
  int algorithm = 0;  ///< sssp::Algorithm enum value
  double delta = 0.0;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

/// Monotonic accounting counters plus the current size (surfaced through
/// SsspServer::stats and the C API's DsgServerStats).
struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;  ///< new keys + value refreshes
  std::uint64_t evictions = 0;   ///< LRU entries dropped at capacity
  std::uint64_t entries = 0;     ///< current size
  std::uint64_t capacity = 0;
};

class ResultCache {
 public:
  using Distances = std::shared_ptr<const std::vector<double>>;

  /// capacity 0 disables the cache: every lookup misses, every insert is
  /// dropped (no accounting as an eviction — nothing was ever resident).
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// nullptr on miss.  A hit moves the entry to most-recently-used.
  Distances lookup(const CacheKey& key);

  /// Inserts (or refreshes) `dist` under `key`, evicting the
  /// least-recently-used entry when at capacity.  Null distances are
  /// rejected by the server before reaching here.
  void insert(const CacheKey& key, Distances dist);

  ResultCacheStats stats() const;

  void clear();

 private:
  using LruList = std::list<std::pair<CacheKey, Distances>>;

  const std::size_t capacity_;
  mutable testing::AuditedMutex mu_{"ResultCache::mu"};
  LruList lru_;  // front = most recently used
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace dsg::serving
