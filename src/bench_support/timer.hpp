// timer.hpp — the harness's wall-clock stopwatch.
//
// The paper times with RDTSC at a fixed CPU frequency; the harness uses
// monotonic wall time instead, since the host's frequency is not pinned.
#pragma once

#include <chrono>

namespace dsg {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds since construction/reset.
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dsg
