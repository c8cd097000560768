#include "sssp/delta_stepping_fused.hpp"

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

/// Dense work buffers for the fused kernel, parked in the executing
/// grb::Context so repeated runs (benchmark reps, multi-source batches)
/// reuse capacity instead of reallocating four O(n) arrays.  The distance
/// vector t is excluded: it is moved into the result.
struct FusedWorkspace {
  std::vector<double> treq;
  std::vector<unsigned char> tb;
  std::vector<unsigned char> s;
  std::vector<Index> frontier;
  std::vector<Index> touched;
};

}  // namespace

SsspResult delta_stepping_fused(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  const double delta = plan.delta();
  const auto& split = plan.light_heavy();
  SsspStats stats;

  // Dense work vectors.  Absent == infinity for t/tReq; tb/s are the
  // characteristic vectors of tB_i and S.
  auto& ws = ctx.get<FusedWorkspace>();
  std::vector<double> t(n, kInfDist);
  auto& treq = ws.treq;
  treq.assign(n, kInfDist);
  auto& tb = ws.tb;
  tb.assign(n, 0);
  auto& s = ws.s;
  s.assign(n, 0);
  auto& frontier = ws.frontier;  // indices with tb set (bucket members)
  frontier.clear();
  auto& touched = ws.touched;    // indices where treq got a request
  touched.clear();

  t[source] = 0.0;

  Index i = 0;
  // Outer loop: while some reached vertex still has t >= i*delta.
  // count_remaining is that test: its own O(n) pass over t at the head of
  // every bucket iteration, separate from the bucket-construction pass.
  auto count_remaining = [&](double lo) {
    Index count = 0;
    for (Index v = 0; v < n; ++v) {
      if (t[v] != kInfDist && t[v] >= lo) ++count;
    }
    return count;
  };

  // Lifecycle: poll before the loop (deadline 0 ⇒ init-state upper bounds)
  // and at every bucket boundary.  t is min-only, so any cut is a valid
  // upper bound.
  SsspStatus status = poll_control(exec.control);

  while (status == SsspStatus::kComplete &&
         count_remaining(static_cast<double>(i) * delta) > 0) {
    testing::fault_point("fused/round");
    ++stats.outer_iterations;
    const double lo = static_cast<double>(i) * delta;
    // (i+1)Δ, where the next bucket starts: lo + Δ can round below it
    // and leave a gap that no bucket holds.
    const double hi = static_cast<double>(i + 1) * delta;

    // Fused bucket construction: tb and the frontier in one pass.
    auto vec_start = Clock::now();
    frontier.clear();
    for (Index v = 0; v < n; ++v) {
      const bool in_bucket = (t[v] >= lo && t[v] < hi);
      tb[v] = in_bucket;
      if (in_bucket) frontier.push_back(v);
    }
    if (exec.profile) stats.vector_seconds += seconds_since(vec_start);

    while (!frontier.empty()) {
      ++stats.light_phases;
      stats.relax_requests += frontier.size();

      // Fusion 1: tReq = A_Lᵀ (t ∘ tB_i) as a single push traversal —
      // the Hadamard filter is the frontier list itself.
      auto light_start = Clock::now();
      for (Index v : frontier) {
        const double tv = t[v];
        for (Index k = split.light_ptr[v]; k < split.light_ptr[v + 1]; ++k) {
          const Index w = split.light_ind[k];
          const double cand = tv + split.light_val[k];
          if (cand < treq[w]) {
            if (treq[w] == kInfDist) touched.push_back(w);
            treq[w] = cand;
          }
        }
      }
      if (exec.profile) stats.light_seconds += seconds_since(light_start);

      // Fusion 2: S |= tB_i;  tB_i' = in-range(tReq) ∘ (tReq < t);
      // t = min(t, tReq) — one pass over the touched set plus the frontier.
      vec_start = Clock::now();
      for (Index v : frontier) s[v] = 1;
      frontier.clear();
      for (Index w : touched) {
        const double req = treq[w];
        const bool improved = req < t[w];
        if (improved) {
          t[w] = req;
          if (req >= lo && req < hi) {
            // (Re)introduce into the bucket.  `touched` holds each vertex at
            // most once per phase (treq acts as the min-combining
            // accumulator), so no dedup test is needed here.
            frontier.push_back(w);
            tb[w] = 1;
          }
        }
        treq[w] = kInfDist;  // reset the request buffer for the next phase
      }
      touched.clear();
      if (exec.profile) stats.vector_seconds += seconds_since(vec_start);
    }

    // Heavy relaxation from all vertices settled in this bucket:
    // tReq = A_Hᵀ (t ∘ S); t = min(t, tReq), fused into one traversal.
    auto heavy_start = Clock::now();
    for (Index v = 0; v < n; ++v) {
      if (!s[v]) continue;
      const double tv = t[v];
      for (Index k = split.heavy_ptr[v]; k < split.heavy_ptr[v + 1]; ++k) {
        const Index w = split.heavy_ind[k];
        const double cand = tv + split.heavy_val[k];
        if (cand < t[w]) t[w] = cand;
      }
      s[v] = 0;  // clear S for the next bucket while we are here
    }
    if (exec.profile) stats.heavy_seconds += seconds_since(heavy_start);

    ++i;
    status = poll_control(exec.control);
  }

  SsspResult result;
  result.dist = std::move(t);
  result.stats = stats;
  result.status = status;
  return result;
}

}  // namespace dsg
