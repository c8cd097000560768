// Unit tests for eWiseAdd / eWiseMult — union vs intersection semantics and
// the Sec. V-B non-commutative-operator pitfall with its mask workaround.
#include <gtest/gtest.h>

#include "graphblas/graphblas.hpp"

namespace {

using grb::Index;

grb::Vector<double> vec(std::initializer_list<std::pair<Index, double>> elems,
                        Index n) {
  grb::Vector<double> v(n);
  for (auto [i, x] : elems) v.set_element(i, x);
  return v;
}

TEST(EwiseAddVector, UnionCombinesIntersectionAndPassesThroughRest) {
  auto u = vec({{0, 1.0}, {1, 2.0}}, 4);
  auto v = vec({{1, 10.0}, {3, 30.0}}, 4);
  grb::Vector<double> w(4);
  grb::ewise_add(w, grb::Plus<double>{}, u, v);
  EXPECT_EQ(w.nvals(), 3u);
  EXPECT_DOUBLE_EQ(*w.extract_element(0), 1.0);   // only u: pass-through
  EXPECT_DOUBLE_EQ(*w.extract_element(1), 12.0);  // both: op
  EXPECT_DOUBLE_EQ(*w.extract_element(3), 30.0);  // only v: pass-through
}

TEST(EwiseAddVector, MinIsTheDistanceUpdate) {
  // t = min(t, tReq) with union semantics: absent t means infinity, so new
  // distances flow in — exactly Fig. 2 line 52.
  auto t = vec({{0, 0.0}, {1, 5.0}}, 4);
  auto treq = vec({{1, 3.0}, {2, 7.0}}, 4);
  grb::ewise_add(t, grb::Min<double>{}, t, treq);
  EXPECT_DOUBLE_EQ(*t.extract_element(0), 0.0);
  EXPECT_DOUBLE_EQ(*t.extract_element(1), 3.0);
  EXPECT_DOUBLE_EQ(*t.extract_element(2), 7.0);
}

TEST(EwiseAddVector, OutputAliasingInputIsSafe) {
  auto s = vec({{0, 1.0}}, 3);
  auto tb = vec({{1, 1.0}}, 3);
  grb::ewise_add(s, grb::LogicalOr<double>{}, s, tb);  // s = s + tB (Fig. 2)
  EXPECT_EQ(s.nvals(), 2u);
  EXPECT_TRUE(s.has_element(0));
  EXPECT_TRUE(s.has_element(1));
}

TEST(EwiseAddVector, NonCommutativePitfall) {
  // Sec. V-B: (tReq < t) via eWiseAdd.  Where tReq is ABSENT but t present,
  // the union passes t's value through — truthy, i.e. a spurious "true".
  auto treq = vec({{0, 3.0}}, 3);
  auto t = vec({{0, 5.0}, {1, 4.0}}, 3);
  grb::Vector<bool> out(3);
  grb::ewise_add(out, grb::NoMask{}, grb::NoAccumulate{},
                 grb::LessThan<double>{}, treq, t);
  EXPECT_TRUE(*out.extract_element(0));  // genuine comparison: 3 < 5
  // The pitfall: position 1 has no request, yet the output is stored and
  // truthy because t[1]=4.0 passed through.
  ASSERT_TRUE(out.has_element(1));
  EXPECT_TRUE(*out.extract_element(1));
}

TEST(EwiseAddVector, PitfallFixedByTreqMask) {
  // The paper's workaround: apply tReq as the output mask.
  auto treq = vec({{0, 3.0}, {2, 9.0}}, 3);
  auto t = vec({{0, 5.0}, {1, 4.0}, {2, 2.0}}, 3);
  grb::Vector<bool> out(3);
  grb::ewise_add(out, treq, grb::NoAccumulate{}, grb::LessThan<double>{},
                 treq, t, grb::replace_desc);
  EXPECT_EQ(out.nvals(), 2u);        // only where tReq exists
  EXPECT_TRUE(*out.extract_element(0));   // 3 < 5
  EXPECT_FALSE(*out.extract_element(2));  // 9 < 2 is false (stored false)
  EXPECT_FALSE(out.has_element(1));       // masked out
}

TEST(EwiseAddVector, EwiseMultWouldLoseNewVertices) {
  // Also from Sec. V-B: eWiseMult intersects, so a request for a vertex
  // with no current distance (t absent == infinity) vanishes — wrong for
  // the algorithm, demonstrated here.
  auto treq = vec({{1, 3.0}}, 3);  // new vertex, t[1] absent
  auto t = vec({{0, 5.0}}, 3);
  grb::Vector<bool> out(3);
  grb::ewise_mult(out, grb::NoMask{}, grb::NoAccumulate{},
                  grb::LessThan<double>{}, treq, t);
  EXPECT_EQ(out.nvals(), 0u);  // the improvement at vertex 1 is lost
}

TEST(EwiseMultVector, IntersectionOnly) {
  auto u = vec({{0, 2.0}, {1, 3.0}}, 4);
  auto v = vec({{1, 4.0}, {2, 5.0}}, 4);
  grb::Vector<double> w(4);
  grb::ewise_mult(w, grb::Times<double>{}, u, v);
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_DOUBLE_EQ(*w.extract_element(1), 12.0);
}

TEST(EwiseMultVector, HadamardFilterIdiom) {
  // t ∘ tB: restrict t to the bucket.
  auto t = vec({{0, 0.5}, {1, 1.5}, {2, 2.5}}, 3);
  grb::Vector<bool> tb(3);
  tb.set_element(0, true);
  tb.set_element(2, true);
  grb::Vector<double> masked(3);
  grb::ewise_mult(masked, grb::Second<double>{}, tb, t);
  EXPECT_EQ(masked.nvals(), 2u);
  EXPECT_DOUBLE_EQ(*masked.extract_element(0), 0.5);
  EXPECT_DOUBLE_EQ(*masked.extract_element(2), 2.5);
}

TEST(EwiseVector, MaskAccumReplaceComposition) {
  auto u = vec({{0, 1.0}, {1, 2.0}, {2, 3.0}}, 3);
  auto v = vec({{0, 10.0}, {1, 20.0}, {2, 30.0}}, 3);
  auto w = vec({{0, 100.0}, {2, 300.0}}, 3);
  grb::Vector<bool> mask(3);
  mask.set_element(0, true);
  mask.set_element(1, true);
  grb::ewise_add(w, mask, grb::Plus<double>{}, grb::Plus<double>{}, u, v,
                 grb::replace_desc);
  // z = u+v = {11, 22, 33}; accum with old w at mask-true positions:
  // w[0] = 100+11, w[1] = 22 (no old); w[2] dropped by replace.
  EXPECT_EQ(w.nvals(), 2u);
  EXPECT_DOUBLE_EQ(*w.extract_element(0), 111.0);
  EXPECT_DOUBLE_EQ(*w.extract_element(1), 22.0);
}

TEST(EwiseVector, DimensionChecks) {
  grb::Vector<double> a(3), b(4), w(3);
  EXPECT_THROW(grb::ewise_add(w, grb::Plus<double>{}, a, b),
               grb::DimensionMismatch);
  EXPECT_THROW(grb::ewise_mult(w, grb::Plus<double>{}, a, b),
               grb::DimensionMismatch);
}

}  // namespace
