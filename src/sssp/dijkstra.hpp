// dijkstra.hpp — Dijkstra's algorithm with a binary heap, the classic
// priority-queue SSSP the paper contrasts with delta-stepping (Sec. VII:
// with Δ = min edge weight, delta-stepping degenerates to Dijkstra-like
// settling order).  Serves as the primary correctness oracle.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Binary-heap Dijkstra from `source` on a raw matrix: the test and
/// example oracle, independent of GraphPlan.  Validates per call (square,
/// non-empty, in-range source, check_edge_weight on every weight).
SsspResult dijkstra(const grb::Matrix<double>& a, Index source);

/// Plan-based entry (solver registry): skips the per-call O(|E|)
/// non-negativity re-validation — the plan did it once.
SsspResult dijkstra(const GraphPlan& plan, grb::Context& ctx, Index source,
                    const ExecOptions& exec = {});

}  // namespace dsg
