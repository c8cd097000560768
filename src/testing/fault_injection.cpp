#include "testing/fault_injection.hpp"

#include <cstring>
#include <mutex>
#include <new>
#include <thread>
#include <unordered_map>

#include "sssp/query_control.hpp"  // PublishedFlag, the audited latch

namespace dsg::testing {
namespace {

// Fast-path gate: fault_point() bails on one relaxed peek when no table is
// installed, so production builds pay nothing measurable.  The
// release/acquire publication pairs install_faults()'s table write with
// concurrent observers; the racy peek() fast path re-checks g_state under
// g_mutex before touching it.
PublishedFlag g_active;

struct FaultState {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> specs;
  std::unordered_map<std::string, std::uint64_t> hits;
};

std::mutex g_mutex;
FaultState* g_state = nullptr;  // guarded by g_mutex

// splitmix64 — the standard seeded mixer; deterministic across platforms.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_name(const char* name) {
  // FNV-1a over the point name, folded through mix64.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = name; *p; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  return mix64(h);
}

bool spec_matches(const FaultSpec& spec, std::uint64_t seed, const char* name,
                  std::uint64_t hit, std::uint64_t key) {
  if (spec.point != "*" && spec.point != name) return false;
  if (spec.on_hit >= 0 && static_cast<std::uint64_t>(spec.on_hit) == hit) {
    return true;
  }
  if (spec.with_key >= 0 && static_cast<std::uint64_t>(spec.with_key) == key) {
    return true;
  }
  if (spec.one_in > 0 &&
      mix64(seed ^ hash_name(name) ^ hit) % spec.one_in == 0) {
    return true;
  }
  return false;
}

}  // namespace

void install_faults(std::uint64_t seed, std::vector<FaultSpec> specs) {
  std::lock_guard<std::mutex> lock(g_mutex);
  delete g_state;
  g_state = new FaultState{seed, std::move(specs), {}};
  g_active.publish(true);
}

void clear_faults() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_active.publish(false);
  delete g_state;
  g_state = nullptr;
}

bool faults_active() { return g_active.observe(); }

void fault_point(const char* name, std::uint64_t key) {
  if (!g_active.peek()) return;

  FaultSpec::Action action{};
  std::chrono::microseconds delay{};
  std::function<void()> callback;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    // Re-check under the lock: clear_faults() may have raced the fast path.
    if (g_state == nullptr) return;
    const std::uint64_t hit = g_state->hits[name]++;
    for (const FaultSpec& spec : g_state->specs) {
      if (spec_matches(spec, g_state->seed, name, hit, key)) {
        fire = true;
        action = spec.action;
        delay = spec.delay;
        callback = spec.callback;
        break;
      }
    }
  }
  if (!fire) return;
  switch (action) {
    case FaultSpec::Action::kThrowBadAlloc:
      throw std::bad_alloc();
    case FaultSpec::Action::kDelay:
      std::this_thread::sleep_for(delay);
      break;
    case FaultSpec::Action::kCallback:
      if (callback) callback();
      break;
  }
}

std::uint64_t fault_point_hits(const char* name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_state == nullptr) return 0;
  auto it = g_state->hits.find(name);
  return it == g_state->hits.end() ? 0 : it->second;
}

std::vector<std::string> touched_fault_points() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<std::string> out;
  if (g_state == nullptr) return out;
  out.reserve(g_state->hits.size());
  for (const auto& [name, count] : g_state->hits) {
    if (count > 0) out.push_back(name);
  }
  return out;
}

std::span<const char* const> fault_point_catalog() {
  // The authoritative list of named points in production code.  Keep in
  // sync with docs/ARCHITECTURE.md ("Failure model & query lifecycle").
  static constexpr const char* kCatalog[] = {
      "solver/solve",            // SsspSolver::solve, before dispatch
      "solver/batch_query",      // per-query in solve_batch (key = source)
      "buckets/round",           // kBuckets bucket loop
      "fused/round",             // kFused / kOpenmp bucket loop (one body)
      "graphblas/round",         // kGraphblas pure-GraphBLAS loop
      "graphblas_select/round",  // kGraphblasSelect loop
      "capi/round",              // kCapi plan-core loop
      "dijkstra/settle",         // kDijkstra heap pops (sampled)
      "bellman_ford/relax",      // kBellmanFord worklist dequeues (sampled)
      "async/round",             // async engine, per-worker round start
      "async/coordinate",        // async engine, coordinator phase
      "capi/object_new",         // C-API object creation entry points
      "serving/plan_load",       // PlanIo::load, before reading the file
      "serving/pool_enqueue",    // SsspServer::submit, before queueing (key = source)
      "serving/cache_hit",       // submit's cache hit, before the copy (key = source)
      "serving/worker_query",    // worker picks up a miss (key = source)
      "serving/cache_insert",    // result-cache insert of a kComplete result
  };
  return {kCatalog, sizeof(kCatalog) / sizeof(kCatalog[0])};
}

}  // namespace dsg::testing
