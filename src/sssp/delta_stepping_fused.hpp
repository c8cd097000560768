// delta_stepping_fused.hpp — the paper's "direct linear algebra to C"
// implementation (Sec. VI-B) and its task-parallel form (Sec. VI-C), one
// loop body for both.  Same linear-algebraic algorithm as the GraphBLAS
// version, but with the two fusion opportunities exploited:
//
//   1. the Hadamard product and the vector-matrix multiplication
//      tReq = A_Lᵀ (t ∘ tB_i) fuse into a single push traversal of the
//      bucket's rows;
//   2. the three dependent vector updates (tB_i, S, t) fuse into one pass
//      over the vectors.
//
// Vectors are dense arrays (length |V|); matrices are CSR.  Sec. VI-C
// "splits the vector into evenly-sized tasks": each point-wise vector pass
// becomes one OpenMP task per team thread, while the (min,+) pushes stay
// sequential, as in the paper (parallelizing them is its future work).
// Fig. 3 reports the fused code at ~3.7x over the unfused GraphBLAS
// version; Fig. 4 reports ~1.44x at 2 threads and ~1.5x at 4 over it.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Fused delta-stepping from `source` against a prebuilt GraphPlan
/// (weights already validated, A_L/A_H split already materialized) with
/// `ctx`-owned warm buffers, on the calling thread only
/// (exec.num_threads is ignored).
SsspResult delta_stepping_fused(const GraphPlan& plan, grb::Context& ctx,
                                Index source, const ExecOptions& exec = {});

/// The same loop with each vector pass split into evenly sized OpenMP
/// tasks, on a team of resolve_num_threads(exec.num_threads) threads for
/// this solve only (the caller's OpenMP settings are left as they were).
/// A team of one, or a build without OpenMP, runs it inline like
/// delta_stepping_fused.
SsspResult delta_stepping_openmp(const GraphPlan& plan, grb::Context& ctx,
                                 Index source, const ExecOptions& exec = {});

}  // namespace dsg
