#include "sssp/delta_stepping_openmp.hpp"

#include <chrono>
#include <vector>

#include "graphblas/context.hpp"
#include "sssp/delta_stepping_fused.hpp"
#include "sssp/query_control.hpp"  // RelaxedCounter (audited; no raw atomics here)
#include "testing/fault_injection.hpp"

#if defined(DSG_HAVE_OPENMP)
#include <omp.h>
#endif

namespace dsg {

#if !defined(DSG_HAVE_OPENMP)

SsspResult delta_stepping_openmp(const GraphPlan& plan, grb::Context& ctx,
                                 Index source, const ExecOptions& exec) {
  return delta_stepping_fused(plan, ctx, source, exec);
}

#else  // DSG_HAVE_OPENMP

namespace {

using Clock = std::chrono::steady_clock;

/// Minimum number of vector elements a task must own before spawning tasks
/// pays for itself.  Below 2x this, passes run serially inside the single
/// region.  (The paper's graphs are large; small inputs would drown in task
/// overhead and obscure the Fig. 4 shape.)
constexpr Index kMinGrain = 1 << 15;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Hot loops as free functions: keeps codegen identical to the fused
// implementation (loops nested inside the outlined `omp single` body access
// captured state through indirection, which costs 20-30%).
// ---------------------------------------------------------------------------

/// Counts reached vertices with t >= lo in [begin, end).
Index count_ge_range(const double* t, Index begin, Index end, double lo) {
  Index count = 0;
  for (Index v = begin; v < end; ++v) {
    if (t[v] != kInfDist && t[v] >= lo) ++count;
  }
  return count;
}

/// Appends vertices with lo <= t < hi in [begin, end) to `out`.
void collect_bucket_range(const double* t, Index begin, Index end, double lo,
                          double hi, std::vector<Index>& out) {
  out.clear();
  for (Index v = begin; v < end; ++v) {
    if (t[v] >= lo && t[v] < hi) out.push_back(v);
  }
}

/// The fused tB/t update over a slice of the touched list; re-bucketed
/// vertices land in `out`.  Slices hold disjoint vertices, so no races.
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

/// Collects and clears set bits of s in [begin, end).
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

/// Light-edge push over the frontier (sequential, like the paper).
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

/// Heavy-edge push over the settled set (sequential, like the paper).
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

/// Splits [0, n) into task ranges of at least kMinGrain elements, at most
/// `max_tasks` ranges.  A single range means "run serially".
std::vector<std::pair<Index, Index>> task_ranges(Index n, int max_tasks) {
  const Index by_grain = (n + kMinGrain - 1) / kMinGrain;
  const Index tasks = std::max<Index>(
      1, std::min<Index>(by_grain, static_cast<Index>(max_tasks)));
  const Index chunk = (n + tasks - 1) / tasks;
  std::vector<std::pair<Index, Index>> ranges;
  for (Index begin = 0; begin < n; begin += chunk) {
    ranges.emplace_back(begin, std::min(n, begin + chunk));
  }
  if (ranges.empty()) ranges.emplace_back(0, 0);
  return ranges;
}

/// Runs `body(begin, end, slot)` over [0, n): serially when one range
/// suffices, as OpenMP tasks otherwise.  Must be called from inside the
/// single region.
template <typename Body>
void tasked_for(Index n, int num_tasks, Body body) {
  auto ranges = task_ranges(n, num_tasks);
  if (ranges.size() == 1) {
    body(ranges[0].first, ranges[0].second, std::size_t{0});
    return;
  }
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    const Index begin = ranges[k].first;
    const Index end = ranges[k].second;
#pragma omp task firstprivate(begin, end, k) shared(body)
    body(begin, end, k);
  }
#pragma omp taskwait
}

}  // namespace

SsspResult delta_stepping_openmp(const GraphPlan& plan, grb::Context&,
                                 Index source, const ExecOptions& exec) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  const double delta = plan.delta();
  const detail::LightHeavySplit& split = plan.light_heavy();
  SsspStats stats;

  std::vector<double> t_vec(n, kInfDist);
  std::vector<double> treq_vec(n, kInfDist);
  std::vector<unsigned char> s_vec(n, 0);
  t_vec[source] = 0.0;
  double* t = t_vec.data();
  double* treq = treq_vec.data();
  unsigned char* s = s_vec.data();

  // Lifecycle + failure containment.  The whole loop lives inside one
  // parallel region; an exception escaping the `omp single` structured
  // block would std::terminate, so the body is bracketed by a try/catch
  // that parks the error in an exception_ptr for rethrow after the region.
  // Cancellation/deadline need no throw: the single-executor thread polls
  // at bucket boundaries and falls out of the loop cleanly (t is min-only,
  // so the cut is a valid upper bound).
  SsspStatus status = poll_control(exec.control);
  std::exception_ptr error;

  // A num_threads clause, not omp_set_num_threads: the team size applies
  // to this region only and does not leak into the caller's later regions.
  const int team =
      exec.num_threads > 0 ? exec.num_threads : omp_get_max_threads();
#pragma omp parallel num_threads(team)
#pragma omp single
  {
    try {
    const int num_tasks = omp_get_num_threads();

    std::vector<std::vector<Index>> parts(
        static_cast<std::size_t>(num_tasks) + 1);
    std::vector<Index> frontier;
    std::vector<Index> touched;

    auto gather_parts = [&](std::size_t count, std::vector<Index>& out) {
      out.clear();
      for (std::size_t k = 0; k < count; ++k) {
        out.insert(out.end(), parts[k].begin(), parts[k].end());
      }
    };

    // Outer condition: count of reached vertices with t >= i*delta.  The
    // audited relaxed counter is enough: the taskwait inside tasked_for
    // orders every add before the load below.
    auto count_remaining = [&](double lo) {
      RelaxedCounter<Index> count;
      tasked_for(n, num_tasks, [&](Index begin, Index end, std::size_t) {
        count.add(count_ge_range(t, begin, end, lo));
      });
      return count.load();
    };

    Index i = 0;
    while (status == SsspStatus::kComplete &&
           count_remaining(static_cast<double>(i) * delta) > 0) {
      testing::fault_point("openmp/round");
      ++stats.outer_iterations;
      const double lo = static_cast<double>(i) * delta;
      // (i+1)Δ, where the next bucket starts: lo + Δ can round below it
      // and leave a gap that no bucket holds.
      const double hi = static_cast<double>(i + 1) * delta;

      // Bucket construction: evenly-sized tasks over the t vector.
      auto vec_start = Clock::now();
      std::size_t used = 0;
      tasked_for(n, num_tasks, [&](Index begin, Index end, std::size_t k) {
        collect_bucket_range(t, begin, end, lo, hi, parts[k]);
#pragma omp atomic
        ++used;
      });
      gather_parts(used, frontier);
      if (exec.profile) stats.vector_seconds += seconds_since(vec_start);

      while (!frontier.empty()) {
        ++stats.light_phases;
        stats.relax_requests += frontier.size();

        // Light push — sequential, as in the paper (parallelizing within
        // the matrix-vector operation is its "future work").
        auto light_start = Clock::now();
        push_light(split, t, treq, frontier, touched);
        if (exec.profile) stats.light_seconds += seconds_since(light_start);

        // Fused tB/S/t update: S from the old frontier, then a tasked
        // sweep over the touched set.
        vec_start = Clock::now();
        for (Index v : frontier) s[v] = 1;

        used = 0;
        tasked_for(static_cast<Index>(touched.size()), num_tasks,
                   [&](Index begin, Index end, std::size_t k) {
                     sweep_touched_range(t, treq, touched.data(), begin, end,
                                         lo, hi, parts[k]);
#pragma omp atomic
                     ++used;
                   });
        gather_parts(used, frontier);
        if (exec.profile) stats.vector_seconds += seconds_since(vec_start);
      }

      // Heavy relaxation: the settled-set scan is point-wise vector work
      // and is tasked like the other filters; the (min,+) push itself stays
      // sequential, as in the paper.
      auto heavy_start = Clock::now();
      used = 0;
      tasked_for(n, num_tasks, [&](Index begin, Index end, std::size_t k) {
        collect_settled_range(s, begin, end, parts[k]);
#pragma omp atomic
        ++used;
      });
      std::vector<Index> settled;
      gather_parts(used, settled);
      push_heavy(split, settled, t);
      if (exec.profile) stats.heavy_seconds += seconds_since(heavy_start);

      ++i;
      status = poll_control(exec.control);
    }
    } catch (...) {
      error = std::current_exception();
    }
  }  // omp single / parallel

  if (error) std::rethrow_exception(error);

  SsspResult result;
  result.dist = std::move(t_vec);
  result.stats = stats;
  result.status = status;
  return result;
}

#endif  // DSG_HAVE_OPENMP

}  // namespace dsg
