// delta_stepping_buckets.hpp — the canonical vertex/edge formulation of
// Meyer & Sanders' delta-stepping (paper Fig. 1, right column): explicit
// buckets of vertices, a request set per processing phase, and the relax()
// procedure that moves vertices between buckets.
//
// This is the form the paper's translation methodology *starts from*; the
// repository keeps it both as a reference point and as an independent
// correctness oracle for the linear-algebraic implementations.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Canonical bucket-based delta-stepping from `source` against a prebuilt
/// GraphPlan (weights already validated, light/heavy split already
/// materialized).
SsspResult delta_stepping_buckets(const GraphPlan& plan, grb::Context& ctx,
                                  Index source, const ExecOptions& exec = {});

}  // namespace dsg
