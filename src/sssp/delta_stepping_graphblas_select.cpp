// delta_stepping_graphblas_select lives in its own translation unit so
// the compiler's per-function inlining budget applies to each variant
// independently (both fully inline the grb:: kernel templates).
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

/// The select-variant loop against the plan's A_L / A_H.
SsspResult run_select_loop(const grb::Matrix<double>& al,
                           const grb::Matrix<double>& ah, Index n,
                           double delta, grb::Context& ctx, Index source,
                           bool profile, const QueryControl* control) {
  SsspStats stats;
  const auto minplus = grb::min_plus_semiring<double>();

  grb::Vector<double> t(n);
  t.set_element(source, 0.0);

  grb::Vector<double> tcomp(n);
  grb::Vector<double> tbv(n);  // bucket members carrying their t values
  grb::Vector<double> treq(n);
  grb::Vector<double> tnew(n);
  grb::Vector<double> tmasked(n);  // heavy-phase frontier, reused per bucket
  grb::Vector<bool> s(n);

  Index i = 0;
  grb::select(ctx, tcomp, grb::GreaterEqualThreshold<double>{0.0}, t);
  // Lifecycle: poll before the loop and per bucket; t is min-only, so any
  // cut is a valid upper bound.
  SsspStatus status = poll_control(control);
  while (status == SsspStatus::kComplete && tcomp.nvals() > 0) {
    testing::fault_point("graphblas_select/round");
    ++stats.outer_iterations;
    const double lo = static_cast<double>(i) * delta;
    // (i+1)Δ, where the next bucket starts: lo + Δ can round below it
    // and leave a gap that no bucket holds.
    const double hi = static_cast<double>(i + 1) * delta;
    s.clear();

    // tbv = t restricted to the bucket, one pass.
    grb::select(ctx, tbv, grb::HalfOpenRangePredicate<double>{lo, hi}, t,
                grb::replace_desc);
    while (tbv.nvals() > 0) {
      ++stats.light_phases;
      stats.relax_requests += tbv.nvals();

      auto light_start = Clock::now();
      grb::vxm(ctx, treq, grb::NoMask{}, grb::NoAccumulate{}, minplus, tbv,
               al, grb::replace_desc);
      if (profile) stats.light_seconds += seconds_since(light_start);

      // S |= bucket members (structural mask of tbv).
      grb::assign_scalar(ctx, s, tbv, true, grb::structure_mask_desc);

      // Improved-and-in-bucket: tnew = treq entries that beat t...
      grb::ewise_add(ctx, tnew, treq, grb::NoAccumulate{},
                     grb::LessThan<double>{}, treq, t, grb::replace_desc);
      // ...keep treq values where the comparison was true,
      grb::apply(ctx, tnew, tnew, grb::NoAccumulate{}, grb::Identity<double>{},
                 treq, grb::replace_desc);
      // t = min(t, treq)
      grb::ewise_add(ctx, t, grb::NoMask{}, grb::NoAccumulate{},
                     grb::Min<double>{}, t, treq);
      // next bucket frontier: improved entries that fall in [lo, hi)
      grb::select(ctx, tbv, grb::HalfOpenRangePredicate<double>{lo, hi}, tnew,
                  grb::replace_desc);
    }

    auto heavy_start = Clock::now();
    grb::apply(ctx, tmasked, s, grb::NoAccumulate{}, grb::Identity<double>{},
               t, grb::replace_desc);
    grb::vxm(ctx, treq, grb::NoMask{}, grb::NoAccumulate{}, minplus, tmasked,
             ah, grb::replace_desc);
    grb::ewise_add(ctx, t, grb::NoMask{}, grb::NoAccumulate{},
                   grb::Min<double>{}, t, treq);
    if (profile) stats.heavy_seconds += seconds_since(heavy_start);

    ++i;
    grb::select(ctx, tcomp,
                grb::GreaterEqualThreshold<double>{static_cast<double>(i) *
                                                   delta},
                t, grb::replace_desc);
    status = poll_control(control);
  }

  SsspResult result;
  result.dist = t.to_dense_array(kInfDist);
  result.stats = stats;
  result.status = status;
  return result;
}

}  // namespace

SsspResult delta_stepping_graphblas_select(const GraphPlan& plan,
                                           grb::Context& ctx, Index source,
                                           const ExecOptions& exec) {
  const Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  // A_L / A_H prebuilt by the plan.
  return run_select_loop(plan.light_matrix(), plan.heavy_matrix(), n,
                         plan.delta(), ctx, source, exec.profile,
                         exec.control);
}

}  // namespace dsg
