// Unit tests for grb::select — value and index-aware filtering, the fused
// alternative to the paper's double-apply idiom.
#include <gtest/gtest.h>

#include "graphblas/graphblas.hpp"

namespace {

using grb::Index;

TEST(SelectVector, ValuePredicateKeepsMatches) {
  grb::Vector<double> u(5);
  u.set_element(0, 0.5);
  u.set_element(1, 1.5);
  u.set_element(3, 2.5);
  grb::Vector<double> w(5);
  grb::select(w, grb::GreaterThanThreshold<double>{1.0}, u);
  EXPECT_EQ(w.nvals(), 2u);
  EXPECT_TRUE(w.has_element(1));
  EXPECT_TRUE(w.has_element(3));
}

TEST(SelectVector, EquivalentToDoubleApplyIdiom) {
  // select(pred) == apply(pred) + apply(identity under mask) — the paper's
  // fusion opportunity in one call.
  grb::Vector<double> t(6);
  t.set_element(0, 0.0);
  t.set_element(1, 1.2);
  t.set_element(2, 2.9);
  t.set_element(4, 3.4);
  const grb::HalfOpenRangePredicate<double> bucket{1.0, 3.0};

  grb::Vector<double> fused(6);
  grb::select(fused, bucket, t);

  grb::Vector<bool> tb(6);
  grb::Vector<double> unfused(6);
  grb::apply(tb, grb::NoMask{}, grb::NoAccumulate{}, bucket, t);
  grb::apply(unfused, tb, grb::NoAccumulate{}, grb::Identity<double>{}, t,
             grb::replace_desc);
  EXPECT_EQ(fused, unfused);
}

TEST(SelectVector, IndexAwarePredicate) {
  grb::Vector<double> u(6);
  for (Index i = 0; i < 6; ++i) u.set_element(i, 1.0);
  grb::Vector<double> w(6);
  grb::select(
      w, [](const double&, Index i) { return i % 2 == 0; }, u);
  EXPECT_EQ(w.nvals(), 3u);
  EXPECT_TRUE(w.has_element(0));
  EXPECT_FALSE(w.has_element(1));
}

TEST(SelectVector, EmptyInput) {
  grb::Vector<double> u(4), w(4);
  grb::select(w, grb::GreaterThanThreshold<double>{0.0}, u);
  EXPECT_EQ(w.nvals(), 0u);
}

// --- Selectivity-sampler regression: position-correlated predicates. --------
//
// sampled_keep_fraction used to probe only the FIRST set bit of each
// sampled word, so any predicate correlated with i mod 64 (structured
// grids, strided frontiers) was estimated from one intra-word position
// only — a fully populated vector with keep(i) = (i % 64 < 32) came back
// as keep-everything (bit 0 always passes).  The rotating probe offset
// spreads samples across intra-word positions and kills the bias.

TEST(SelectivitySampler, PositionCorrelatedPredicateUnbiased) {
  const Index n = 64 * 256;
  grb::Vector<double> u(n);
  for (Index i = 0; i < n; ++i) u.set_element(i, 1.0);
  u.to_dense();

  // True keep fraction 1/2, but concentrated in the low half of each word.
  const auto low_half = [](Index i) { return (i % 64) < 32; };
  const double est_half = grb::detail::sampled_keep_fraction(u, low_half);
  EXPECT_NEAR(est_half, 0.5, 0.05);

  // True keep fraction 1/64, all on bit 0 — the old sampler's only probe
  // position, which made it report 1.0.
  const auto bit_zero = [](Index i) { return (i % 64) == 0; };
  const double est_thin = grb::detail::sampled_keep_fraction(u, bit_zero);
  EXPECT_NEAR(est_thin, 1.0 / 64.0, 0.01);

  // Behavioral consequence: a thin position-correlated filter must choose
  // the compacted output path (the old estimate of 1.0 forced the dense
  // stage no matter the crossover).
  grb::Context ctx;
  ctx.dense_output_crossover = 0.4;
  EXPECT_TRUE(grb::detail::dense_output_prefers_compaction(ctx, u, bit_zero));
}

}  // namespace
