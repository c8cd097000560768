#include "sssp/delta_stepping_buckets.hpp"

#include <chrono>
#include <cmath>
#include <vector>

#include "graphblas/context.hpp"
#include "testing/fault_injection.hpp"

namespace dsg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Cyclic bucket array.  Meyer & Sanders observe that at most
/// ceil(max_weight / delta) + 1 buckets can be simultaneously non-empty, so
/// the bucket index wraps modulo that bound.
class BucketArray {
 public:
  BucketArray(Index num_buckets, Index num_vertices)
      : buckets_(num_buckets),
        position_(num_vertices, kAbsent),
        bucket_of_(num_vertices, kAbsent) {}

  static constexpr Index kAbsent = std::numeric_limits<Index>::max();

  /// Moves v into logical bucket b (removing it from its current bucket).
  void insert(Index v, Index b) {
    remove(v);
    const Index slot = b % buckets_.size();
    position_[v] = static_cast<Index>(buckets_[slot].size());
    bucket_of_[v] = slot;
    buckets_[slot].push_back(v);
  }

  /// Removes v from whichever bucket holds it (no-op when absent).
  void remove(Index v) {
    const Index slot = bucket_of_[v];
    if (slot == kAbsent) return;
    auto& bucket = buckets_[slot];
    const Index pos = position_[v];
    const Index last = bucket.back();
    bucket[pos] = last;
    position_[last] = pos;
    bucket.pop_back();
    bucket_of_[v] = kAbsent;
    position_[v] = kAbsent;
  }

  /// Steals the contents of logical bucket b, emptying it.
  std::vector<Index> take(Index b) {
    const Index slot = b % buckets_.size();
    std::vector<Index> out = std::move(buckets_[slot]);
    buckets_[slot].clear();
    for (Index v : out) {
      bucket_of_[v] = kAbsent;
      position_[v] = kAbsent;
    }
    return out;
  }

  bool logical_bucket_empty(Index b) const {
    return buckets_[b % buckets_.size()].empty();
  }

  bool all_empty() const {
    for (const auto& bucket : buckets_) {
      if (!bucket.empty()) return false;
    }
    return true;
  }

 private:
  std::vector<std::vector<Index>> buckets_;
  std::vector<Index> position_;   // index of v inside its bucket
  std::vector<Index> bucket_of_;  // physical slot holding v, or kAbsent
};

}  // namespace

SsspResult delta_stepping_buckets(const GraphPlan& plan, grb::Context&,
                                  Index source, const ExecOptions& exec) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  const double delta = plan.delta();
  const double max_w = plan.stats().max_weight;
  const auto& split = plan.light_heavy();
  SsspStats stats;

  // ceil(max_w/delta)+2 cyclic buckets always suffice (+2 guards the
  // boundary case max_w == k*delta exactly).
  const Index num_buckets =
      static_cast<Index>(std::ceil(max_w / delta)) + 2;
  BucketArray buckets(num_buckets, n);

  std::vector<double> tent(n, kInfDist);

  // relax(v, new_dist) — Fig. 1 right, top.
  auto relax = [&](Index v, double new_dist) {
    if (new_dist < tent[v]) {
      buckets.insert(v, static_cast<Index>(new_dist / delta));
      tent[v] = new_dist;
    }
  };

  relax(source, 0.0);

  // Lifecycle: poll once before the loop (a deadline of 0 returns
  // immediately with the init-state upper bounds) and at every bucket
  // boundary.  tent is relax-only, so it is a valid upper bound at any cut.
  SsspStatus status = poll_control(exec.control);

  std::vector<std::pair<Index, double>> requests;
  Index i = 0;
  while (status == SsspStatus::kComplete && !buckets.all_empty()) {
    testing::fault_point("buckets/round");
    // Advance to the next non-empty bucket.  The cyclic array caps the
    // probe distance at num_buckets.
    while (buckets.logical_bucket_empty(i)) ++i;
    ++stats.outer_iterations;

    std::vector<Index> settled;  // S in the paper
    while (!buckets.logical_bucket_empty(i)) {
      ++stats.light_phases;
      auto current = buckets.take(i);

      // Req = {(w, tent(v) + c(v,w)) : v in B[i], (v,w) light}
      auto light_start = Clock::now();
      requests.clear();
      for (Index v : current) {
        for (Index k = split.light_ptr[v]; k < split.light_ptr[v + 1]; ++k) {
          requests.emplace_back(split.light_ind[k],
                                tent[v] + split.light_val[k]);
        }
      }
      stats.relax_requests += requests.size();

      // S = S ∪ B[i]
      settled.insert(settled.end(), current.begin(), current.end());

      // foreach (w, x) in Req do relax(w, x)
      for (const auto& [w, x] : requests) relax(w, x);
      if (exec.profile) stats.light_seconds += seconds_since(light_start);
    }

    // Req = {(w, tent(v) + c(v,w)) : v in S, (v,w) heavy}; relax each.
    auto heavy_start = Clock::now();
    requests.clear();
    for (Index v : settled) {
      for (Index k = split.heavy_ptr[v]; k < split.heavy_ptr[v + 1]; ++k) {
        requests.emplace_back(split.heavy_ind[k],
                              tent[v] + split.heavy_val[k]);
      }
    }
    stats.relax_requests += requests.size();
    for (const auto& [w, x] : requests) relax(w, x);
    if (exec.profile) stats.heavy_seconds += seconds_since(heavy_start);

    ++i;
    status = poll_control(exec.control);
  }

  SsspResult result;
  result.dist = std::move(tent);
  result.stats = stats;
  result.status = status;
  return result;
}

}  // namespace dsg
