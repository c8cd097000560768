// delta_stepping_capi.hpp — the paper's Fig. 2 SuiteSparse listing,
// transcribed nearly line-for-line against the C API shim in
// capi/graphblas.h: same call sequence, same operator set, same global
// `delta` / `i_global` state threading the custom unary operators.
//
// This is the most literal of the repository's delta-stepping variants and
// exists to demonstrate (and regression-test) that the paper's published
// code runs unchanged on this substrate.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Runs the Fig. 2 listing against the plan.  The listing's
/// operator/descriptor/matrix setup (lines 2-21) is built once and parked
/// in the plan; each call replays only the loop (lines 23-73).  Not
/// thread-safe: the listing's operator state is global, as in the paper.
/// `exec.profile` is ignored — the listing has no instrumentation hooks.
SsspResult delta_stepping_capi(const GraphPlan& plan, grb::Context& ctx,
                               Index source, const ExecOptions& exec = {});

}  // namespace dsg
