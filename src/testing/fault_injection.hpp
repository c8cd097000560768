// fault_injection.hpp — seeded, deterministic fault injection at named
// yield points.
//
// Production code marks its natural failure/yield points with
//
//     dsg::testing::fault_point("async/round");            // unkeyed
//     dsg::testing::fault_point("solver/batch_query", k);  // keyed
//
// When no faults are installed (the default, and always in production)
// a fault point is one relaxed atomic load and a branch.  Tests install a
// fault table — a list of FaultSpec triggers — and every hit of a matching
// point deterministically throws std::bad_alloc (allocation-failure
// injection), sleeps (delay injection, to widen race windows and force
// deadlines to fire mid-run) or runs a test callback (e.g. cancelling the
// running query at an exact round).
//
// Determinism: triggers fire from pure data — the installed seed, the
// point name, the per-point hit index, and the caller-supplied key — never
// from RNG state or wall-clock time, so a failing run replays exactly
// under the same seed.  (With concurrent callers the *interleaving* of
// hits is scheduling-dependent, so concurrent tests should trigger on
// `key` or `one_in`, which do not depend on global hit order.)
//
// Thread-safety: fault_point may be called from any thread (the async
// engine's workers do).  install/clear are test-side and must not race a
// running solve's *installation* — install before, clear after.
//
// The canonical list of named points compiled into the library is
// fault_point_catalog(); tests sweep it and docs/ARCHITECTURE.md mirrors
// it.  Add every new production fault point to the catalog.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace dsg::testing {

/// One trigger.  `point` selects the fault point by exact name ("*"
/// matches every point); the trigger fires on a hit when ANY armed
/// condition matches that hit.
struct FaultSpec {
  std::string point;

  // Conditions (all optional; unarmed conditions never match):
  /// Fire when the seeded hash of (seed, point, hit index) lands in a
  /// 1-in-`one_in` bucket.  1 = every hit.
  std::uint64_t one_in = 0;
  /// Fire on exactly this per-point hit index (0-based).
  std::int64_t on_hit = -1;
  /// Fire when the caller-supplied key equals this (for schedule-
  /// independent targeting, e.g. "fail the query whose source is 5").
  std::int64_t with_key = -1;

  enum class Action { kThrowBadAlloc, kDelay, kCallback };
  Action action = Action::kThrowBadAlloc;
  /// Sleep length for kDelay.
  std::chrono::microseconds delay{200};
  /// Run by kCallback on the thread that hit the point, outside the fault
  /// table's lock — e.g. a test cancelling its own query at an exact round.
  std::function<void()> callback;
};

/// Installs a fault table (replacing any previous one) and starts
/// recording hits.  An empty spec list is valid: nothing fires, but hit
/// accounting runs — useful for coverage assertions.
void install_faults(std::uint64_t seed, std::vector<FaultSpec> specs);

/// Removes the table; fault points return to no-ops.
void clear_faults();

bool faults_active();

/// Production-side yield point.  May throw std::bad_alloc or sleep when a
/// matching trigger fires; otherwise (and always when inactive) a no-op.
void fault_point(const char* name, std::uint64_t key = 0);

/// Hits of `name` since the last install (0 when inactive or never hit).
std::uint64_t fault_point_hits(const char* name);

/// Names hit at least once since the last install.
std::vector<std::string> touched_fault_points();

/// Every named fault point compiled into the library (the documented
/// catalog).  Tests assert the catalog stays honest by exercising the
/// code paths and comparing against touched_fault_points().
std::span<const char* const> fault_point_catalog();

/// RAII install/clear for tests.
struct ScopedFaults {
  ScopedFaults(std::uint64_t seed, std::vector<FaultSpec> specs) {
    install_faults(seed, std::move(specs));
  }
  ~ScopedFaults() { clear_faults(); }
  ScopedFaults(const ScopedFaults&) = delete;
  ScopedFaults& operator=(const ScopedFaults&) = delete;
};

}  // namespace dsg::testing
