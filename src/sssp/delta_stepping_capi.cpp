// delta_stepping_capi.cpp — transcription of the paper's Fig. 2.
//
// build_capi_handles() (lines 1-21) and delta_stepping_capi() (lines
// 4-73) follow the listing's structure and comments; the original line
// numbers are kept in the comments so the two can be read side by side.
// Deviations are limited to:
//   - the setup (lines 2-21) runs once per GraphPlan, not once per call,
//   - the input matrix arriving as grb::Matrix instead of a file load,
//   - source validation up front (the plan validated the graph),
//   - the lifecycle poll per bucket and the RAII cleanup of the vectors.
#include "sssp/delta_stepping_capi.hpp"

#include <memory>
#include <vector>

#include "capi/graphblas.h"
#include "testing/fault_injection.hpp"

namespace dsg {

namespace {

// Global scalars, exactly as in the listing (Fig. 2 lines 2-3 declare
// `delta` and `i_global` at file scope so the custom operators can read
// them).
double delta_global = 1.0;
double i_global = 0.0;

// Custom unary operators (the listing's delta_leq, delta_gt, delta_igeq,
// delta_irange).
double delta_leq(double x) {
  return (x > 0.0 && x <= delta_global) ? 1.0 : 0.0;
}
double delta_gt(double x) { return x > delta_global ? 1.0 : 0.0; }
double delta_igeq(double x) {
  return x >= i_global * delta_global ? 1.0 : 0.0;
}
double delta_irange(double x) {
  return (i_global * delta_global <= x &&
          x < (i_global + 1.0) * delta_global)
             ? 1.0
             : 0.0;
}

/// Plan-owned C-API objects: the listing's setup (operators, descriptor,
/// A and the A_L/A_H filter products, lines 2-21 of Fig. 2) built once per
/// plan instead of once per call.  Freed with the plan.
struct CapiPlanHandles {
  GrB_Matrix A = nullptr, Al = nullptr, Ah = nullptr;
  GrB_UnaryOp op_delta_leq = nullptr, op_delta_gt = nullptr;
  GrB_UnaryOp op_delta_igeq = nullptr, op_delta_irange = nullptr;
  GrB_Descriptor clear_desc = nullptr;

  CapiPlanHandles() = default;
  CapiPlanHandles(const CapiPlanHandles&) = delete;
  CapiPlanHandles& operator=(const CapiPlanHandles&) = delete;
  ~CapiPlanHandles() {
    GrB_Matrix_free(&A);
    GrB_Matrix_free(&Al);
    GrB_Matrix_free(&Ah);
    GrB_UnaryOp_free(&op_delta_leq);
    GrB_UnaryOp_free(&op_delta_gt);
    GrB_UnaryOp_free(&op_delta_igeq);
    GrB_UnaryOp_free(&op_delta_irange);
    GrB_Descriptor_free(&clear_desc);
  }
};

/// Frees a fixed set of GrB_Vector handles on scope exit, so the loop
/// cannot leak them when a fault point (or a C-API call) throws mid-loop.
struct VectorGuard {
  std::vector<GrB_Vector*> vecs;
  ~VectorGuard() {
    for (GrB_Vector* v : vecs) GrB_Vector_free(v);
  }
};

/// Replays Fig. 2 lines 1-21 (minus the vectors) against the plan's matrix.
std::shared_ptr<CapiPlanHandles> build_capi_handles(
    const grb::Matrix<double>& a_in, double delta) {
  auto h = std::make_shared<CapiPlanHandles>();
  const GrB_Index n = a_in.nrows();
  const GrB_Index m = a_in.ncols();

  // Load the adjacency matrix into a C-API object (the listing's caller
  // passes A in already built).
  GrB_Matrix_new(&h->A, n, m);
  {
    std::vector<GrB_Index> rows, cols;
    std::vector<double> vals;
    rows.reserve(a_in.nvals());
    cols.reserve(a_in.nvals());
    vals.reserve(a_in.nvals());
    a_in.for_each([&](Index r, Index c, const double& w) {
      rows.push_back(r);
      cols.push_back(c);
      vals.push_back(w);
    });
    GrB_Matrix_build_FP64(h->A, rows.data(), cols.data(), vals.data(),
                          static_cast<GrB_Index>(vals.size()), GrB_NULL);
  }

  // Global scalars:                                  (lines 2-3)
  delta_global = delta;

  // Define operators                                  (lines 4-5)
  GrB_UnaryOp_new(&h->op_delta_leq, delta_leq);
  GrB_UnaryOp_new(&h->op_delta_gt, delta_gt);
  GrB_UnaryOp_new(&h->op_delta_igeq, delta_igeq);
  GrB_UnaryOp_new(&h->op_delta_irange, delta_irange);

  GrB_Descriptor_new(&h->clear_desc);  // the listing's `clear_desc`
  GrB_Descriptor_set(h->clear_desc, GrB_OUTP, GrB_REPLACE);

  // Create A_L and A_H based on delta:                (lines 10-13)
  GrB_Matrix Ab = nullptr;
  GrB_Matrix_new(&h->Ah, n, m);
  GrB_Matrix_new(&h->Al, n, m);
  GrB_Matrix_new(&Ab, n, m);

  // A_L = A .* (A .<= delta)                          (lines 15-17)
  GrB_apply(Ab, GrB_NULL, GrB_NULL, h->op_delta_leq, h->A, GrB_NULL);
  GrB_apply(h->Al, Ab, GrB_NULL, GrB_IDENTITY_FP64, h->A, GrB_NULL);

  // A_H = A .* (A .> delta)                           (lines 19-21)
  GrB_apply(Ab, GrB_NULL, GrB_NULL, h->op_delta_gt, h->A, h->clear_desc);
  GrB_apply(h->Ah, Ab, GrB_NULL, GrB_IDENTITY_FP64, h->A, GrB_NULL);
  GrB_Matrix_free(&Ab);
  return h;
}

}  // namespace

SsspResult delta_stepping_capi(const GraphPlan& plan, grb::Context&,
                               Index source, const ExecOptions& exec) {
  const GrB_Index n = plan.num_vertices();
  grb::detail::check_index(source, n, "sssp: source");
  SsspStats stats;

  // ---- sssp_delta_step(A, d, src, &paths) — Fig. 2 line 1. ----------------
  // Global scalars, operators, descriptor and A_L / A_H (lines 2-21) come
  // from the plan: build_capi_handles replays those lines on first use and
  // later calls reuse them.
  const auto& h = plan.derived<CapiPlanHandles>(
      [&] { return build_capi_handles(plan.matrix(), plan.delta()); });
  delta_global = plan.delta();  // the loop operators read the globals

  // Define vectors                                    (lines 4-5)
  GrB_Vector t = nullptr, tmasked = nullptr, tReq = nullptr;
  GrB_Vector tless = nullptr, tB = nullptr, tgeq = nullptr, tcomp = nullptr;
  GrB_Vector s = nullptr;
  GrB_Vector_new(&t, n);
  VectorGuard guard{{&t, &tmasked, &tReq, &tless, &tB, &tgeq, &tcomp, &s}};
  GrB_Vector_new(&tmasked, n);
  GrB_Vector_new(&tReq, n);
  GrB_Vector_new(&tless, n);
  GrB_Vector_new(&tB, n);
  GrB_Vector_new(&tgeq, n);
  GrB_Vector_new(&tcomp, n);
  GrB_Vector_new(&s, n);

  // t[src] = 0                                        (line 8)
  GrB_Vector_setElement_FP64(t, 0.0, source);

  // init i = 0                                        (lines 23-24)
  i_global = 0.0;

  // Outer loop: while (t .>= i*delta) != 0 do         (lines 26-30)
  // Not in the listing: the lifecycle poll before the loop and at each
  // bucket boundary.  t is min-only, so any cut is a valid upper bound,
  // and the sparse extraction below fills the rest with +inf exactly as a
  // completed run does for unreached vertices.
  GrB_Vector_apply(tgeq, GrB_NULL, GrB_NULL, h.op_delta_igeq, t, GrB_NULL);
  GrB_Vector_apply(tcomp, tgeq, GrB_NULL, GrB_IDENTITY_BOOL, t, GrB_NULL);
  GrB_Index tcomp_size = 0;
  GrB_Vector_nvals(&tcomp_size, tcomp);
  SsspStatus status = poll_control(exec.control);
  while (status == SsspStatus::kComplete && tcomp_size > 0) {
    testing::fault_point("capi/round");
    ++stats.outer_iterations;
    // s = 0                                           (lines 31-32)
    GrB_Vector_clear(s);

    // tBi = (i*delta .<= t .< (i+1)*delta)            (lines 34-35)
    GrB_Vector_apply(tB, GrB_NULL, GrB_NULL, h.op_delta_irange, t,
                     h.clear_desc);
    // t .* tBi                                        (lines 36-37)
    GrB_Vector_apply(tmasked, tB, GrB_NULL, GrB_IDENTITY_FP64, t,
                     h.clear_desc);

    // Inner loop: while tBi != 0 do                   (lines 39-41)
    GrB_Index tm_size = 0;
    GrB_Vector_nvals(&tm_size, tmasked);
    while (tm_size > 0) {
      ++stats.light_phases;
      stats.relax_requests += tm_size;
      // tReq = A_L'(min.+)(t .* tBi)                  (lines 42-43)
      GrB_vxm(tReq, GrB_NULL, GrB_NULL, GxB_MIN_PLUS_FP64, tmasked, h.Al,
              h.clear_desc);
      // s = s + tBi                                   (lines 44-45)
      GrB_eWiseAdd(s, GrB_NULL, GrB_NULL, GrB_LOR, s, tB, GrB_NULL);

      // tBi = (i*delta .<= tReq .< (i+1)*delta) .* (tReq .< t)
      //                                               (lines 47-49)
      GrB_eWiseAdd(tless, tReq, GrB_NULL, GrB_LT_FP64, tReq, t, h.clear_desc);
      GrB_Vector_apply(tB, tless, GrB_NULL, h.op_delta_irange, tReq,
                       h.clear_desc);

      // t = min(t, tReq)                              (lines 51-52)
      GrB_eWiseAdd(t, GrB_NULL, GrB_NULL, GrB_MIN_FP64, t, tReq, GrB_NULL);

      GrB_Vector_apply(tmasked, tB, GrB_NULL, GrB_IDENTITY_FP64, t,
                       h.clear_desc);                     // (line 54)
      GrB_Vector_nvals(&tm_size, tmasked);                // (line 55)
    }

    // tReq = A_H'(min.+)(t .* s)                      (lines 58-60)
    GrB_Vector_apply(tmasked, s, GrB_NULL, GrB_IDENTITY_FP64, t, h.clear_desc);
    GrB_vxm(tReq, GrB_NULL, GrB_NULL, GxB_MIN_PLUS_FP64, tmasked, h.Ah,
            h.clear_desc);

    // t = min(t, tReq)                                (lines 62-63)
    GrB_eWiseAdd(t, GrB_NULL, GrB_NULL, GrB_MIN_FP64, t, tReq, GrB_NULL);

    // i = i+1                                         (lines 65-66)
    i_global += 1.0;
    GrB_Vector_apply(tgeq, GrB_NULL, GrB_NULL, h.op_delta_igeq, t,
                     h.clear_desc);
    GrB_Vector_apply(tcomp, tgeq, GrB_NULL, GrB_IDENTITY_BOOL, t,
                     h.clear_desc);
    GrB_Vector_nvals(&tcomp_size, tcomp);                 // (lines 67-69)
    status = poll_control(exec.control);
  }

  // Set the return paths                              (lines 72-73)
  // The listing returns the live vector t; this copies it out densely and
  // `guard` frees the vectors on return.
  SsspResult result;
  result.dist.assign(n, kInfDist);
  {
    GrB_Index count = 0;
    GrB_Vector_nvals(&count, t);
    std::vector<GrB_Index> indices(count);
    std::vector<double> values(count);
    GrB_Vector_extractTuples_FP64(indices.data(), values.data(), &count, t);
    for (GrB_Index k = 0; k < count; ++k) {
      result.dist[indices[k]] = values[k];
    }
  }
  result.stats = stats;
  result.status = status;
  return result;
}

}  // namespace dsg
