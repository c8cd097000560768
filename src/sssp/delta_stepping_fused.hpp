// delta_stepping_fused.hpp — the paper's "direct linear algebra to C"
// implementation (Sec. VI-B): same linear-algebraic algorithm as the
// GraphBLAS version, but with the two fusion opportunities exploited:
//
//   1. the Hadamard product and the vector-matrix multiplication
//      tReq = A_Lᵀ (t ∘ tB_i) fuse into a single push traversal of the
//      bucket's rows;
//   2. the three dependent vector updates (tB_i, S, t) fuse into one pass
//      over the vectors.
//
// Vectors are dense arrays (length |V|), as implied by the paper's
// "splitting the vector into evenly-sized tasks" parallelization; matrices
// are CSR.  Fig. 3 reports this implementation at ~3.7x over the unfused
// GraphBLAS version.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Fused sequential delta-stepping from `source` against a prebuilt
/// GraphPlan (weights already validated, A_L/A_H split already
/// materialized) with `ctx`-owned warm buffers.
SsspResult delta_stepping_fused(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec = {});

}  // namespace dsg
