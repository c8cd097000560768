#include "sssp/delta_stepping_fused.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <vector>

#include "graphblas/context.hpp"
#include "sssp/query_control.hpp"  // RelaxedCounter (audited; no raw atomics here)
#include "testing/fault_injection.hpp"

#if defined(DSG_HAVE_OPENMP)
#include <omp.h>
#endif

namespace dsg {

namespace {

using Clock = std::chrono::steady_clock;

/// Fewest vector elements a task must own for spawning it to pay; a pass
/// over at most kMinGrain elements runs inline even on a team.
constexpr Index kMinGrain = 1 << 15;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Dense work buffers, parked in the executing grb::Context so repeated
/// runs (benchmark reps, multi-source batches) reuse capacity instead of
/// reallocating O(n) arrays.  The distance vector t is excluded: it is
/// moved into the result.
struct FusedWorkspace {
  std::vector<double> treq;            // tReq; absent == infinity
  std::vector<unsigned char> s;        // characteristic vector of S
  std::vector<Index> frontier;         // members of tB_i
  std::vector<Index> touched;          // indices where treq got a request
  std::vector<Index> settled;          // S as a list, for the heavy push
  std::vector<std::vector<Index>> parts;  // one output slice per task
};

// Hot loops as free functions over raw pointers: loops nested inside the
// outlined `omp single` body would reach captured state through
// indirection, which costs 20-30%.

/// Counts reached vertices with t >= lo in [begin, end).
Index count_ge_range(const double* t, Index begin, Index end, double lo) {
  Index count = 0;
  for (Index v = begin; v < end; ++v) {
    if (t[v] != kInfDist && t[v] >= lo) ++count;
  }
  return count;
}

/// Bucket construction: `out` = vertices with lo <= t < hi in [begin, end).
void collect_bucket_range(const double* t, Index begin, Index end, double lo,
                          double hi, std::vector<Index>& out) {
  out.clear();
  for (Index v = begin; v < end; ++v) {
    if (t[v] >= lo && t[v] < hi) out.push_back(v);
  }
}

/// The fused tB_i/t update over a slice of the touched list: t = min(t,
/// tReq), and vertices improved into [lo, hi) land in `out`.  tReq is reset
/// behind the sweep.  `touched` holds each vertex at most once per phase
/// (tReq is the min-combining accumulator), so slices hold disjoint
/// vertices: no dedup test, no races.
void sweep_touched_range(double* t, double* treq, const Index* touched,
                         Index begin, Index end, double lo, double hi,
                         std::vector<Index>& out) {
  out.clear();
  for (Index idx = begin; idx < end; ++idx) {
    const Index w = touched[idx];
    const double req = treq[w];
    if (req < t[w]) {
      t[w] = req;
      if (req >= lo && req < hi) out.push_back(w);
    }
    treq[w] = kInfDist;
  }
}

/// `out` = the set bits of s in [begin, end), cleared for the next bucket.
void collect_settled_range(unsigned char* s, Index begin, Index end,
                           std::vector<Index>& out) {
  out.clear();
  for (Index v = begin; v < end; ++v) {
    if (s[v]) {
      out.push_back(v);
      s[v] = 0;
    }
  }
}

/// Fusion 1: tReq = A_Lᵀ (t ∘ tB_i) as a single push traversal — the
/// Hadamard filter is the frontier list itself.
void push_light(const detail::LightHeavySplit& split, const double* t,
                double* treq, const std::vector<Index>& frontier,
                std::vector<Index>& touched) {
  touched.clear();
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
}

/// Heavy relaxation from the settled set: tReq = A_Hᵀ (t ∘ S);
/// t = min(t, tReq), fused into one sequential traversal.
void push_heavy(const detail::LightHeavySplit& split,
                const std::vector<Index>& settled, double* t) {
  for (Index v : settled) {
    const double tv = t[v];
    for (Index k = split.heavy_ptr[v]; k < split.heavy_ptr[v + 1]; ++k) {
      const Index w = split.heavy_ind[k];
      const double cand = tv + split.heavy_val[k];
      if (cand < t[w]) t[w] = cand;
    }
  }
}

/// How many evenly sized slices a pass over n elements is cut into: one per
/// task, each of at least kMinGrain elements.  1 means "run inline".
Index num_slices(Index n, int num_tasks) {
  return std::clamp<Index>((n + kMinGrain - 1) / kMinGrain, 1,
                           static_cast<Index>(num_tasks));
}

/// Runs `body(begin, end, k)` over the k-th of `slices` evenly sized slices
/// of [0, n): inline for one slice, as OpenMP tasks otherwise (more than
/// one slice needs a team, so this is then inside its single region).
/// Returns the number of slices run, which rounding can make fewer than
/// `slices`.
template <typename Body>
Index tasked_for(Index n, [[maybe_unused]] Index slices, Body body) {
#if defined(DSG_HAVE_OPENMP)
  if (slices > 1) {
    const Index chunk = (n + slices - 1) / slices;
    Index k = 0;
    for (Index begin = 0; begin < n; begin += chunk, ++k) {
      const Index end = std::min(n, begin + chunk);
#pragma omp task firstprivate(begin, end, k) shared(body)
      body(begin, end, k);
    }
#pragma omp taskwait
    return k;
  }
#endif
  body(Index{0}, n, Index{0});
  return 1;
}

/// A collecting pass over [0, n): `collect(begin, end, out)` fills `out`
/// with its slice's hits.  Inline, it fills `out` directly; tasked, each
/// slice fills its own part and the parts are joined in slice order, so
/// `out` holds the same sequence either way.
template <typename Collect>
void collect_pass(Index n, int num_tasks,
                  std::vector<std::vector<Index>>& parts,
                  std::vector<Index>& out, Collect collect) {
  const Index slices = num_slices(n, num_tasks);
  if (slices == 1) {
    collect(Index{0}, n, out);
    return;
  }
  if (parts.size() < slices) parts.resize(slices);
  const Index used = tasked_for(n, slices, [&](Index b, Index e, Index k) {
    collect(b, e, parts[k]);
  });
  out.clear();
  for (Index k = 0; k < used; ++k) {
    out.insert(out.end(), parts[k].begin(), parts[k].end());
  }
}

/// The bucket loop over the dense t and the workspace's cleared tReq and S.
/// Every point-wise vector pass is cut into `num_tasks` evenly sized tasks
/// (Sec. VI-C); with more than one it runs inside an `omp single` region.
SsspStatus bucket_loop(const GraphPlan& plan, FusedWorkspace& ws, double* t,
                       int num_tasks, const ExecOptions& exec,
                       SsspStats& stats) {
  const Index n = plan.num_vertices();
  const double delta = plan.delta();
  const detail::LightHeavySplit& split = plan.light_heavy();
  double* treq = ws.treq.data();
  unsigned char* s = ws.s.data();
  auto& frontier = ws.frontier;
  auto& touched = ws.touched;

  // Outer condition: count of reached vertices with t >= i*delta.  The
  // relaxed counter is enough: tasked_for's taskwait orders every add
  // before the load.
  auto count_remaining = [&](double lo) {
    RelaxedCounter<Index> count;
    tasked_for(n, num_slices(n, num_tasks),
               [&](Index begin, Index end, Index) {
                 count.add(count_ge_range(t, begin, end, lo));
               });
    return count.load();
  };

  // Lifecycle: poll before the loop (deadline 0 ⇒ init-state upper bounds)
  // and at every bucket boundary.  t is min-only, so any cut is a valid
  // upper bound.
  SsspStatus status = poll_control(exec.control);
  Index i = 0;
  while (status == SsspStatus::kComplete &&
         count_remaining(static_cast<double>(i) * delta) > 0) {
    testing::fault_point("fused/round");
    ++stats.outer_iterations;
    const double lo = static_cast<double>(i) * delta;
    // (i+1)Δ, where the next bucket starts: lo + Δ can round below it
    // and leave a gap that no bucket holds.
    const double hi = static_cast<double>(i + 1) * delta;

    auto vec_start = Clock::now();
    collect_pass(n, num_tasks, ws.parts, frontier,
                 [&](Index begin, Index end, std::vector<Index>& out) {
                   collect_bucket_range(t, begin, end, lo, hi, out);
                 });
    if (exec.profile) stats.vector_seconds += seconds_since(vec_start);

    while (!frontier.empty()) {
      ++stats.light_phases;
      stats.relax_requests += frontier.size();

      auto light_start = Clock::now();
      push_light(split, t, treq, frontier, touched);
      if (exec.profile) stats.light_seconds += seconds_since(light_start);

      // Fusion 2: S |= tB_i;  tB_i' = in-range(tReq) ∘ (tReq < t);
      // t = min(t, tReq) — one pass over the frontier plus a sweep over
      // the touched set.
      vec_start = Clock::now();
      for (Index v : frontier) s[v] = 1;
      collect_pass(static_cast<Index>(touched.size()), num_tasks, ws.parts,
                   frontier,
                   [&](Index begin, Index end, std::vector<Index>& out) {
                     sweep_touched_range(t, treq, touched.data(), begin, end,
                                         lo, hi, out);
                   });
      if (exec.profile) stats.vector_seconds += seconds_since(vec_start);
    }

    // Heavy relaxation: the settled-set scan is point-wise vector work and
    // is tasked like the other filters; the (min,+) push stays sequential.
    auto heavy_start = Clock::now();
    collect_pass(n, num_tasks, ws.parts, ws.settled,
                 [&](Index begin, Index end, std::vector<Index>& out) {
                   collect_settled_range(s, begin, end, out);
                 });
    push_heavy(split, ws.settled, t);
    if (exec.profile) stats.heavy_seconds += seconds_since(heavy_start);

    ++i;
    status = poll_control(exec.control);
  }
  return status;
}

/// One solve on a team of `team` threads (1 = no OpenMP region at all).
SsspResult run_fused(const GraphPlan& plan, grb::Context& ctx, Index source,
                     const ExecOptions& exec, [[maybe_unused]] int team) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");

  auto& ws = ctx.get<FusedWorkspace>();
  ws.treq.assign(n, kInfDist);
  ws.s.assign(n, 0);
  std::vector<double> t(n, kInfDist);
  t[source] = 0.0;

  SsspResult result;
#if defined(DSG_HAVE_OPENMP)
  if (team > 1) {
    // Failure containment: an exception escaping the `omp single`
    // structured block would std::terminate, so it is parked and rethrown
    // after the region.  A num_threads clause, not omp_set_num_threads:
    // the team size applies to this region only and does not leak into
    // the caller's later regions.
    std::exception_ptr error;
#pragma omp parallel num_threads(team)
#pragma omp single
    {
      try {
        result.status = bucket_loop(plan, ws, t.data(), omp_get_num_threads(),
                                    exec, result.stats);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
  } else
#endif
  {
    result.status = bucket_loop(plan, ws, t.data(), 1, exec, result.stats);
  }
  result.dist = std::move(t);
  return result;
}

}  // namespace

SsspResult delta_stepping_fused(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec) {
  return run_fused(plan, ctx, source, exec, 1);
}

SsspResult delta_stepping_openmp(const GraphPlan& plan, grb::Context& ctx,
                                 Index source, const ExecOptions& exec) {
  return run_fused(plan, ctx, source, exec,
                   resolve_num_threads(exec.num_threads));
}

}  // namespace dsg
