// write_min.hpp — the lock-free relaxation primitive of the asynchronous
// SSSP engine (async delta-stepping).
//
// Memory-ordering contract
// ------------------------
// Every access in write_min is std::memory_order_relaxed, and that is
// sufficient — documented per access below — because a distance slot is a
// *monotone-decreasing* scalar whose value is the entire message:
//
//   - load(relaxed): a stale (too-high) read only makes the caller attempt
//     a CAS that either fails (another thread already published something
//     lower — the relaxation was redundant) or succeeds with a value that
//     is still an upper bound on the true distance.  No decision other
//     than "is my candidate smaller" is taken from the read, so no
//     acquire fence is needed: there is no dependent data behind the
//     value.
//   - compare_exchange_weak(relaxed, relaxed): the success ordering needs
//     no release because the stored double carries no payload besides
//     itself; the failure ordering needs no acquire for the same reason
//     the initial load does not.  Spurious failures just re-enter the
//     loop with the freshly observed value.
//
// Cross-round visibility is *not* write_min's job: the engine's round
// barrier (std::barrier arrive_and_wait, a release/acquire point) orders
// every relaxed store of round r before every read of round r+1, and the
// final distances are read only after the worker threads have been
// joined.  Within a round, a thread that observes a stale distance merely
// performs a weaker relaxation — and the thread that made the improvement
// re-enqueues the vertex, so the final-value relaxation is never lost.
//
// The loop exits without writing when the candidate is not an
// improvement, so quiescence (no write_min succeeds anywhere) is exactly
// the min-plus fixed point: dist[v] <= dist[u] + w(u,v) for every edge.
// Since IEEE addition is monotone and every stored value is a
// left-to-right fp path sum, that fixed point is unique — which is why
// the async engine is *value*-deterministic (bit-identical distances for
// any schedule or thread count) even though its schedule is not.
#pragma once

#include <atomic>

namespace dsg::async {

/// Atomically lowers `slot` to `value` if (and only if) `value` is
/// strictly smaller.  Returns true when this call improved the slot.
/// Lock-free on every platform where std::atomic<double> is (x86-64,
/// aarch64: plain 64-bit CAS).
inline bool write_min(std::atomic<double>& slot, double value) {
  double current = slot.load(std::memory_order_relaxed);
  while (value < current) {
    if (slot.compare_exchange_weak(current, value, std::memory_order_relaxed,
                                   std::memory_order_relaxed)) {
      return true;
    }
    // CAS failure reloaded `current`; loop re-tests value < current.
  }
  return false;
}

}  // namespace dsg::async
