// delta_stepping_openmp.hpp — OpenMP task-parallel fused delta-stepping,
// following the parallelization scheme of paper Sec. VI-C:
//
//   - point-wise vector work (bucket filtering, the fused tB/S/t update,
//     the outer-loop condition) is split into evenly-sized index-range
//     tasks;
//   - the (min,+) vector-matrix products stay sequential, as in the paper
//     (parallelizing them is listed as future work).
//
// The paper also builds A_L and A_H as one task each and names that as the
// scaling limiter ("Because each matrix is allocated to a single task,
// benefits of using more than two threads do not extend to these costly
// operations").  Here the split comes prebuilt from the GraphPlan, so that
// limiter is amortized away; Fig. 4 reports ~1.44x at 2 threads and ~1.5x
// at 4 threads over the fused sequential implementation.
#pragma once

#include "graphblas/matrix.hpp"
#include "sssp/common.hpp"
#include "sssp/plan.hpp"

namespace grb {
class Context;
}

namespace dsg {

/// Task-parallel fused delta-stepping against a prebuilt GraphPlan.
/// exec.num_threads sets the size of the OpenMP team for this solve only
/// (0 = the library default; the caller's OpenMP settings are left as
/// they were).  A vector pass is split into one evenly-sized task per
/// team thread.  Runs the sequential fused core when built without OpenMP.
SsspResult delta_stepping_openmp(const GraphPlan& plan, grb::Context& ctx,
                                 Index source, const ExecOptions& exec = {});

}  // namespace dsg
