// delta_stepping_graphblas.hpp — the paper's primary artifact: the linear
// algebraic delta-stepping SSSP implemented call-for-call on the GraphBLAS
// substrate (paper Fig. 1 left / Fig. 2).
//
// The structure deliberately mirrors the SuiteSparse listing in Fig. 2,
// including the eWiseAdd-with-tReq-mask workaround for the non-commutative
// (tReq < t) comparison (Sec. V-B).  This is the *unfused* implementation
// whose cost Fig. 3 compares against the fused C implementation.
//
// Both variants run against a GraphPlan: the plan builds A_L / A_H once
// per graph (one count pass and one fill pass over A) and each call
// executes only the loop, with warm workspaces from the grb::Context.  The
// paper's per-call double-apply A_L / A_H construction (Fig. 2, lines
// 15-21) is run and timed by the C-API transcription
// (delta_stepping_capi.hpp).
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Runs delta-stepping from `source` against the plan using only
/// GraphBLAS operations.
///
/// Faithfulness notes:
///  - A_L / A_H are the plan's prebuilt split matrices (Fig. 2 lines
///    15-21 build the same matrices with two GrB_apply calls each).
///  - The bucket filter, the (tReq < t) test and the S-set update use the
///    same apply / eWiseAdd sequence as Fig. 2 lines 35-54.
///  - Relaxations are vxm over the (min,+) semiring (lines 43 and 60).
SsspResult delta_stepping_graphblas(const GraphPlan& plan, grb::Context& ctx,
                                    Index source, const ExecOptions& exec = {});

/// Variant using one fused grb::select per filter instead of the
/// double-apply idiom — the "what if the API had first-class selection"
/// ablation (still unfused across operations); bench_baselines times it
/// against delta_stepping_graphblas.
SsspResult delta_stepping_graphblas_select(const GraphPlan& plan,
                                           grb::Context& ctx, Index source,
                                           const ExecOptions& exec = {});

}  // namespace dsg
