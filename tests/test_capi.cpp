// Unit tests for the GraphBLAS C API shim (capi/graphblas.h): object
// lifecycle, error codes, operator registration, operation semantics, and
// the Fig. 2 transcription's parity with the template implementation.
#include <gtest/gtest.h>

#include <vector>

#include "capi/graphblas.h"
#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "sssp/delta_stepping_capi.hpp"
#include "test_support.hpp"

namespace {

// RAII helpers keep the C tests leak-free without polluting the API.
struct VectorGuard {
  GrB_Vector v = nullptr;
  explicit VectorGuard(GrB_Index n) { GrB_Vector_new(&v, n); }
  ~VectorGuard() { GrB_Vector_free(&v); }
};

struct MatrixGuard {
  GrB_Matrix m = nullptr;
  MatrixGuard(GrB_Index r, GrB_Index c) { GrB_Matrix_new(&m, r, c); }
  ~MatrixGuard() { GrB_Matrix_free(&m); }
};

TEST(CapiVector, LifecycleAndElements) {
  GrB_Vector v = nullptr;
  ASSERT_EQ(GrB_Vector_new(&v, 5), GrB_SUCCESS);
  GrB_Index n = 0, nvals = 99;
  EXPECT_EQ(GrB_Vector_size(&n, v), GrB_SUCCESS);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(GrB_Vector_nvals(&nvals, v), GrB_SUCCESS);
  EXPECT_EQ(nvals, 0u);

  EXPECT_EQ(GrB_Vector_setElement_FP64(v, 2.5, 3), GrB_SUCCESS);
  double x = 0;
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, v, 3), GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(x, 2.5);
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, v, 1), GrB_NO_VALUE);
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, v, 9), GrB_INVALID_INDEX);

  EXPECT_EQ(GrB_Vector_removeElement(v, 3), GrB_SUCCESS);
  GrB_Vector_nvals(&nvals, v);
  EXPECT_EQ(nvals, 0u);

  EXPECT_EQ(GrB_Vector_free(&v), GrB_SUCCESS);
  EXPECT_EQ(v, nullptr);
}

TEST(CapiVector, NullPointerChecks) {
  EXPECT_EQ(GrB_Vector_new(nullptr, 5), GrB_NULL_POINTER);
  GrB_Index out;
  EXPECT_EQ(GrB_Vector_nvals(&out, nullptr), GrB_NULL_POINTER);
  EXPECT_EQ(GrB_Vector_setElement_FP64(nullptr, 1.0, 0), GrB_NULL_POINTER);
}

TEST(CapiVector, SetElementOutOfBounds) {
  VectorGuard v(3);
  EXPECT_EQ(GrB_Vector_setElement_FP64(v.v, 1.0, 3), GrB_INVALID_INDEX);
}

TEST(CapiVector, DupAndExtractTuples) {
  VectorGuard v(4);
  GrB_Vector_setElement_FP64(v.v, 1.0, 1);
  GrB_Vector_setElement_FP64(v.v, 3.0, 3);
  GrB_Vector copy = nullptr;
  ASSERT_EQ(GrB_Vector_dup(&copy, v.v), GrB_SUCCESS);
  GrB_Vector_setElement_FP64(v.v, 9.0, 0);  // must not affect the copy

  GrB_Index indices[4];
  double values[4];
  GrB_Index count = 4;
  ASSERT_EQ(GrB_Vector_extractTuples_FP64(indices, values, &count, copy),
            GrB_SUCCESS);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(indices[0], 1u);
  EXPECT_DOUBLE_EQ(values[1], 3.0);
  GrB_Vector_free(&copy);
}

TEST(CapiVector, ExtractTuplesCapacityCheck) {
  VectorGuard v(4);
  GrB_Vector_setElement_FP64(v.v, 1.0, 0);
  GrB_Vector_setElement_FP64(v.v, 2.0, 1);
  GrB_Index indices[1];
  double values[1];
  GrB_Index count = 1;  // too small
  EXPECT_EQ(GrB_Vector_extractTuples_FP64(indices, values, &count, v.v),
            GrB_INVALID_VALUE);
}

TEST(CapiMatrix, LifecycleAndBuild) {
  MatrixGuard a(3, 3);
  GrB_Index dims = 0;
  GrB_Matrix_nrows(&dims, a.m);
  EXPECT_EQ(dims, 3u);

  const GrB_Index rows[] = {0, 1, 1};
  const GrB_Index cols[] = {1, 2, 2};
  const double vals[] = {1.5, 9.0, 2.5};  // duplicate at (1,2)
  ASSERT_EQ(GrB_Matrix_build_FP64(a.m, rows, cols, vals, 3, GrB_MIN_FP64),
            GrB_SUCCESS);
  GrB_Index nvals = 0;
  GrB_Matrix_nvals(&nvals, a.m);
  EXPECT_EQ(nvals, 2u);
  double x = 0;
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, a.m, 1, 2), GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(x, 2.5);  // min dup
  EXPECT_EQ(GrB_Matrix_extractElement_FP64(&x, a.m, 2, 2), GrB_NO_VALUE);
}

TEST(CapiMatrix, BuildRejectsOutOfRange) {
  MatrixGuard a(2, 2);
  const GrB_Index rows[] = {5};
  const GrB_Index cols[] = {0};
  const double vals[] = {1.0};
  EXPECT_EQ(GrB_Matrix_build_FP64(a.m, rows, cols, vals, 1, GrB_NULL),
            GrB_INVALID_INDEX);
}

TEST(CapiDescriptor, SetFields) {
  GrB_Descriptor d = nullptr;
  ASSERT_EQ(GrB_Descriptor_new(&d), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_OUTP, GrB_REPLACE), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_MASK, GrB_COMP), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_INP1, GrB_TRAN), GrB_SUCCESS);
  EXPECT_EQ(GrB_Descriptor_set(d, GrB_OUTP, GrB_TRAN), GrB_INVALID_VALUE);
  GrB_Descriptor_free(&d);
}

TEST(CapiApply, FilterIdiomWorksThroughTheCApi) {
  // The double-apply filter from the listing: predicate, then identity
  // under the produced mask.
  VectorGuard t(4), tgeq(4), tcomp(4);
  GrB_Vector_setElement_FP64(t.v, 0.5, 0);
  GrB_Vector_setElement_FP64(t.v, 2.5, 1);
  GrB_Vector_setElement_FP64(t.v, 3.5, 3);

  GrB_UnaryOp geq2 = nullptr;
  static auto geq2_fn = [](double x) { return x >= 2.0 ? 1.0 : 0.0; };
  GrB_UnaryOp_new(&geq2, +geq2_fn);
  ASSERT_EQ(GrB_Vector_apply(tgeq.v, GrB_NULL, GrB_NULL, geq2, t.v, GrB_NULL),
            GrB_SUCCESS);
  ASSERT_EQ(GrB_Vector_apply(tcomp.v, tgeq.v, GrB_NULL, GrB_IDENTITY_FP64,
                             t.v, GrB_NULL),
            GrB_SUCCESS);
  GrB_Index nvals = 0;
  GrB_Vector_nvals(&nvals, tcomp.v);
  EXPECT_EQ(nvals, 2u);
  double x = 0;
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, tcomp.v, 1), GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(x, 2.5);
  GrB_UnaryOp_free(&geq2);
}

TEST(CapiEwise, UnionSemanticsAndPitfall) {
  // The Sec. V-B pass-through behaviour must survive the C boundary.
  VectorGuard treq(3), t(3), out(3);
  GrB_Vector_setElement_FP64(treq.v, 3.0, 0);
  GrB_Vector_setElement_FP64(t.v, 5.0, 0);
  GrB_Vector_setElement_FP64(t.v, 4.0, 1);
  ASSERT_EQ(GrB_eWiseAdd(out.v, GrB_NULL, GrB_NULL, GrB_LT_FP64, treq.v, t.v,
                         GrB_NULL),
            GrB_SUCCESS);
  double x = 0;
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, out.v, 0), GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(x, 1.0);  // genuine 3 < 5
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, out.v, 1), GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(x, 4.0);  // pass-through: t's value, truthy!
}

TEST(CapiEwise, MaskWorkaroundFixesPitfall) {
  VectorGuard treq(3), t(3), out(3);
  GrB_Vector_setElement_FP64(treq.v, 3.0, 0);
  GrB_Vector_setElement_FP64(t.v, 5.0, 0);
  GrB_Vector_setElement_FP64(t.v, 4.0, 1);
  GrB_Descriptor clear = nullptr;
  GrB_Descriptor_new(&clear);
  GrB_Descriptor_set(clear, GrB_OUTP, GrB_REPLACE);
  ASSERT_EQ(GrB_eWiseAdd(out.v, treq.v, GrB_NULL, GrB_LT_FP64, treq.v, t.v,
                         clear),
            GrB_SUCCESS);
  GrB_Index nvals = 0;
  GrB_Vector_nvals(&nvals, out.v);
  EXPECT_EQ(nvals, 1u);  // position 1 masked away
  GrB_Descriptor_free(&clear);
}

TEST(CapiVxm, MinPlusRelaxation) {
  MatrixGuard a(3, 3);
  GrB_Matrix_setElement_FP64(a.m, 2.0, 0, 1);
  GrB_Matrix_setElement_FP64(a.m, 3.0, 1, 2);
  VectorGuard t(3), req(3);
  GrB_Vector_setElement_FP64(t.v, 0.0, 0);
  ASSERT_EQ(GrB_vxm(req.v, GrB_NULL, GrB_NULL, GxB_MIN_PLUS_FP64, t.v, a.m,
                    GrB_NULL),
            GrB_SUCCESS);
  double x = 0;
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, req.v, 1), GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(x, 2.0);
  EXPECT_EQ(GrB_Vector_extractElement_FP64(&x, req.v, 2), GrB_NO_VALUE);
}

TEST(CapiVxm, DimensionMismatchReported) {
  MatrixGuard a(3, 3);
  VectorGuard u(2), w(3);
  EXPECT_EQ(GrB_vxm(w.v, GrB_NULL, GrB_NULL, GxB_MIN_PLUS_FP64, u.v, a.m,
                    GrB_NULL),
            GrB_DIMENSION_MISMATCH);
}

TEST(CapiReduce, SumWithMonoidIdentity) {
  VectorGuard v(4);
  GrB_Vector_setElement_FP64(v.v, 1.5, 0);
  GrB_Vector_setElement_FP64(v.v, 2.5, 2);
  double out = 0;
  ASSERT_EQ(GrB_Vector_reduce_FP64(&out, GrB_NULL, GrB_PLUS_FP64, 0.0, v.v,
                                   GrB_NULL),
            GrB_SUCCESS);
  EXPECT_DOUBLE_EQ(out, 4.0);
}

// --- The Fig. 2 transcription, end to end. --------------------------------------

TEST(CapiDeltaStepping, SolvesTheHandComputedDiamond) {
  const dsg::GraphPlan plan(dsg::test::diamond_graph().to_matrix(), 1.0);
  auto r = dsg::delta_stepping_capi(plan, grb::default_context(), 0);
  dsg::test::expect_distances(r.dist, dsg::test::diamond_distances_from_0(),
                              "capi diamond");
}

TEST(CapiDeltaStepping, MatchesDijkstraAcrossGraphsAndDeltas) {
  for (std::uint64_t seed : {3u, 5u}) {
    auto g = dsg::generate_connected_random(150, 300, seed);
    dsg::assign_uniform_weights(g, 0.1, 4.0, seed + 1);
    g.normalize();
    auto a = g.to_matrix();
    auto ref = dsg::dijkstra(a, 0);
    for (double delta : {0.5, 1.0, 5.0}) {
      const dsg::GraphPlan plan(grb::Matrix<double>(a), delta);
      auto r = dsg::delta_stepping_capi(plan, grb::default_context(), 0);
      auto cmp = dsg::compare_distances(ref.dist, r.dist, 1e-9);
      EXPECT_TRUE(cmp.ok) << "seed " << seed << " delta " << delta << ": "
                          << cmp.message;
      auto val = dsg::validate_sssp(a, 0, r.dist);
      EXPECT_TRUE(val.ok) << val.message;
    }
  }
}

TEST(CapiDeltaStepping, StatsMatchTemplateImplementation) {
  auto g = dsg::generate_grid2d(16, 16);
  const dsg::GraphPlan plan(g.to_matrix(), 1.0);
  auto capi = dsg::delta_stepping_capi(plan, grb::default_context(), 0);
  // The transcription runs the same abstract algorithm, so its bucket and
  // phase counts must agree with the template GraphBLAS implementation.
  EXPECT_EQ(capi.stats.outer_iterations, 31u);  // grid diameter 30 -> 31
  EXPECT_GE(capi.stats.light_phases, capi.stats.outer_iterations);
}

}  // namespace
