#include "sssp/delta_stepping_graphblas.hpp"

#include <chrono>

#include "graphblas/graphblas.hpp"
#include "testing/fault_injection.hpp"

namespace dsg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The Fig. 2 loop (lines 8 and 23-69) against the plan's A_L / A_H.
SsspResult run_graphblas_loop(const grb::Matrix<double>& al,
                              const grb::Matrix<double>& ah, Index n,
                              double delta, grb::Context& ctx, Index source,
                              bool profile, const QueryControl* control) {
  SsspStats stats;
  const auto minplus = grb::min_plus_semiring<double>();

  // t[src] = 0                                           (Fig. 2, line 8)
  grb::Vector<double> t(n);
  t.set_element(source, 0.0);

  // Work vectors, kept allocated across iterations like the C listing.
  // Storage representations are managed by the Context density policy: t
  // and the boolean filters go dense once half the graph is reached (O(1)
  // mask probes, positional kernels, in-place min-relaxation), while the
  // bucket frontiers and request vectors stay sparse.
  grb::Vector<bool> tgeq(n);     // t .>= i*delta (boolean, incl. false)
  grb::Vector<double> tcomp(n);  // t where tgeq true
  grb::Vector<bool> tb(n);       // bucket membership filter tB_i
  grb::Vector<double> tmasked(n);
  grb::Vector<double> treq(n);
  grb::Vector<bool> tless(n);  // (tReq .< t)
  grb::Vector<bool> s(n);      // processed-vertex set S

  Index i = 0;

  // Outer loop: while (t .>= i*delta) != 0        (Fig. 2, lines 26-30)
  grb::apply(ctx, tgeq, grb::NoMask{}, grb::NoAccumulate{},
             grb::GreaterEqualThreshold<double>{0.0}, t);
  grb::apply(ctx, tcomp, tgeq, grb::NoAccumulate{}, grb::Identity<double>{}, t,
             grb::replace_desc);
  // Lifecycle: poll before the loop and per bucket.  t is min-only
  // (Min eWiseAdd), so any cut of it is a valid upper bound.
  SsspStatus status = poll_control(control);
  while (status == SsspStatus::kComplete && tcomp.nvals() > 0) {
    testing::fault_point("graphblas/round");
    ++stats.outer_iterations;
    const double lo = static_cast<double>(i) * delta;
    // (i+1)Δ, where the next bucket starts: lo + Δ can round below it
    // and leave a gap that no bucket holds.
    const double hi = static_cast<double>(i + 1) * delta;

    // s = 0                                         (Fig. 2, line 32)
    s.clear();

    auto vec_start = Clock::now();
    // tBi = (i*delta .<= t .< (i+1)*delta)          (Fig. 2, line 35)
    grb::apply(ctx, tb, grb::NoMask{}, grb::NoAccumulate{},
               grb::HalfOpenRangePredicate<double>{lo, hi}, t,
               grb::replace_desc);
    // t .* tBi                                      (Fig. 2, line 37)
    grb::apply(ctx, tmasked, tb, grb::NoAccumulate{}, grb::Identity<double>{},
               t, grb::replace_desc);
    if (profile) stats.vector_seconds += seconds_since(vec_start);

    // Inner loop: while tBi != 0                    (Fig. 2, lines 39-57)
    while (tmasked.nvals() > 0) {
      ++stats.light_phases;
      stats.relax_requests += tmasked.nvals();

      // tReq = A_L' (min.+) (t .* tBi)              (Fig. 2, line 43)
      auto light_start = Clock::now();
      grb::vxm(ctx, treq, grb::NoMask{}, grb::NoAccumulate{}, minplus,
               tmasked, al, grb::replace_desc);
      if (profile) stats.light_seconds += seconds_since(light_start);

      vec_start = Clock::now();
      // s = s + tBi                                 (Fig. 2, line 45)
      grb::ewise_add(ctx, s, grb::NoMask{}, grb::NoAccumulate{},
                     grb::LogicalOr<bool>{}, s, tb);

      // tBi = (i*delta .<= tReq .< (i+1)*delta) .* (tReq .< t)
      // The (tReq < t) comparison is computed by eWiseAdd under the tReq
      // mask — the Sec. V-B workaround for union pass-through with a
      // non-commutative operator.                   (Fig. 2, lines 48-49)
      grb::ewise_add(ctx, tless, treq, grb::NoAccumulate{},
                     grb::LessThan<double>{}, treq, t, grb::replace_desc);
      grb::apply(ctx, tb, tless, grb::NoAccumulate{},
                 grb::HalfOpenRangePredicate<double>{lo, hi}, treq,
                 grb::replace_desc);

      // t = min(t, tReq)                            (Fig. 2, line 52)
      grb::ewise_add(ctx, t, grb::NoMask{}, grb::NoAccumulate{},
                     grb::Min<double>{}, t, treq);

      // tmasked = t .* tBi                          (Fig. 2, line 54)
      grb::apply(ctx, tmasked, tb, grb::NoAccumulate{}, grb::Identity<double>{},
                 t, grb::replace_desc);
      if (profile) stats.vector_seconds += seconds_since(vec_start);
    }

    // Heavy relaxation for all vertices processed in this bucket:
    // tReq = A_H' (min.+) (t .* s)                  (Fig. 2, lines 58-63)
    auto heavy_start = Clock::now();
    grb::apply(ctx, tmasked, s, grb::NoAccumulate{}, grb::Identity<double>{},
               t, grb::replace_desc);
    grb::vxm(ctx, treq, grb::NoMask{}, grb::NoAccumulate{}, minplus, tmasked,
             ah, grb::replace_desc);
    grb::ewise_add(ctx, t, grb::NoMask{}, grb::NoAccumulate{},
                   grb::Min<double>{}, t, treq);
    if (profile) stats.heavy_seconds += seconds_since(heavy_start);

    // i = i + 1; recompute the outer condition      (Fig. 2, lines 66-69)
    ++i;
    vec_start = Clock::now();
    grb::apply(ctx, tgeq, grb::NoMask{}, grb::NoAccumulate{},
               grb::GreaterEqualThreshold<double>{static_cast<double>(i) *
                                                  delta},
               t, grb::replace_desc);
    grb::apply(ctx, tcomp, tgeq, grb::NoAccumulate{}, grb::Identity<double>{},
               t, grb::replace_desc);
    if (profile) stats.vector_seconds += seconds_since(vec_start);
    status = poll_control(control);
  }

  SsspResult result;
  result.dist = t.to_dense_array(kInfDist);
  // Stored-but-unreached cannot happen: t only ever receives finite values.
  result.stats = stats;
  result.status = status;
  return result;
}

}  // namespace

SsspResult delta_stepping_graphblas(const GraphPlan& plan, grb::Context& ctx,
                                    Index source, const ExecOptions& exec) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  // A_L / A_H prebuilt by the plan — paid once per graph, not per query.
  return run_graphblas_loop(plan.light_matrix(), plan.heavy_matrix(), n,
                            plan.delta(), ctx, source, exec.profile,
                            exec.control);
}

}  // namespace dsg
