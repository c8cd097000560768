// bellman_ford.hpp — Bellman–Ford baseline.
//
// Delta-stepping interpolates between Dijkstra (Δ -> min weight) and
// Bellman–Ford (Δ -> ∞ gives one bucket holding everything, i.e. pure
// rounds of simultaneous relaxation).  The Δ-sweep ablation uses both ends.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Queue-based Bellman–Ford (SPFA-style worklist) from `source`.
/// Bellman–Ford needs no Δ-dependent preprocessing; this runs the worklist
/// against the plan's already-validated (non-negative) matrix.
SsspResult bellman_ford(const GraphPlan& plan, grb::Context& ctx, Index source,
                        const ExecOptions& exec = {});

}  // namespace dsg
