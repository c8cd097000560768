// Unit tests for graphblas/ops.hpp: each predefined operator and the
// delta-stepping threshold predicates.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graphblas/ops.hpp"

namespace {

TEST(UnaryOps, Identity) {
  EXPECT_DOUBLE_EQ(grb::Identity<double>{}(3.25), 3.25);
  EXPECT_EQ(grb::Identity<int>{}(-7), -7);
}

TEST(UnaryOps, AdditiveInverse) {
  EXPECT_DOUBLE_EQ(grb::AdditiveInverse<double>{}(2.0), -2.0);
  EXPECT_EQ(grb::AdditiveInverse<int>{}(-3), 3);
}

TEST(UnaryOps, MultiplicativeInverse) {
  EXPECT_DOUBLE_EQ(grb::MultiplicativeInverse<double>{}(4.0), 0.25);
}

TEST(UnaryOps, LogicalNot) {
  EXPECT_EQ(grb::LogicalNot<int>{}(0), 1);
  EXPECT_EQ(grb::LogicalNot<int>{}(7), 0);
}

TEST(UnaryOps, Abs) {
  EXPECT_EQ(grb::AbsOp<int>{}(-5), 5);
  EXPECT_EQ(grb::AbsOp<int>{}(5), 5);
  EXPECT_EQ(grb::AbsOp<unsigned>{}(5u), 5u);
}

TEST(UnaryOps, One) {
  EXPECT_DOUBLE_EQ(grb::One<double>{}(123.0), 1.0);
}

TEST(UnaryOps, BindSecondTurnsBinaryIntoUnary) {
  grb::BindSecond<grb::Plus<double>, double> add5{{}, 5.0};
  EXPECT_DOUBLE_EQ(add5(2.0), 7.0);
  grb::BindSecond<grb::LessThan<double>, double> lt3{{}, 3.0};
  EXPECT_TRUE(lt3(2.0));
  EXPECT_FALSE(lt3(3.0));
}

TEST(UnaryOps, BindFirst) {
  grb::BindFirst<grb::Minus<double>, double> tenMinus{{}, 10.0};
  EXPECT_DOUBLE_EQ(tenMinus(4.0), 6.0);
}

// --- Delta-stepping predicates (paper: delta_leq, delta_gt, delta_igeq,
// delta_irange). --------------------------------------------------------

TEST(Predicates, GreaterThanThresholdIsStrict) {
  grb::GreaterThanThreshold<double> heavy{2.0};
  EXPECT_FALSE(heavy(2.0));  // boundary goes to the light set
  EXPECT_TRUE(heavy(2.0000001));
  EXPECT_FALSE(heavy(0.5));
}

TEST(Predicates, LightEdgeExcludesZeroAndIncludesBoundary) {
  grb::LightEdgePredicate<double> light{2.0};
  EXPECT_TRUE(light(2.0));    // w <= delta
  EXPECT_TRUE(light(0.001));
  EXPECT_FALSE(light(0.0));   // 0 < A: explicit zeros are not edges
  EXPECT_FALSE(light(2.5));
  EXPECT_FALSE(light(-1.0));
  EXPECT_FALSE(light(std::nan("")));  // NaN fails both comparisons
}

TEST(Predicates, LightHeavyPartitionIsExact) {
  // Every positive weight is exactly one of light/heavy.
  grb::LightEdgePredicate<double> light{1.0};
  grb::GreaterThanThreshold<double> heavy{1.0};
  for (double w : {0.1, 0.5, 1.0, 1.5, 10.0}) {
    EXPECT_NE(light(w), heavy(w)) << "w=" << w;
  }
}

TEST(Predicates, GreaterEqualThreshold) {
  grb::GreaterEqualThreshold<double> geq{3.0};
  EXPECT_TRUE(geq(3.0));
  EXPECT_TRUE(geq(4.0));
  EXPECT_FALSE(geq(2.999));
}

TEST(Predicates, HalfOpenRange) {
  grb::HalfOpenRangePredicate<double> bucket{2.0, 4.0};
  EXPECT_TRUE(bucket(2.0));   // closed below
  EXPECT_TRUE(bucket(3.999));
  EXPECT_FALSE(bucket(4.0));  // open above
  EXPECT_FALSE(bucket(1.999));
  EXPECT_FALSE(bucket(std::nan("")));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(bucket(inf));
  EXPECT_FALSE(bucket(-inf));
  // An unbounded top bucket holds every finite value at or above lo.
  grb::HalfOpenRangePredicate<double> top{2.0, inf};
  EXPECT_TRUE(top(1e300));
  EXPECT_FALSE(top(inf));
  // lo == hi is an empty range, even at the shared bound.
  grb::HalfOpenRangePredicate<double> empty{2.0, 2.0};
  for (const double v : {1.0, 2.0, 3.0, -inf, inf}) {
    EXPECT_FALSE(empty(v)) << "v=" << v;
  }
}

// --- Binary ops. --------------------------------------------------------

TEST(BinaryOps, Arithmetic) {
  EXPECT_DOUBLE_EQ(grb::Plus<double>{}(2.0, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(grb::Minus<double>{}(2.0, 3.0), -1.0);
  EXPECT_DOUBLE_EQ(grb::Times<double>{}(2.0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(grb::Div<double>{}(6.0, 3.0), 2.0);
}

TEST(BinaryOps, PlusSaturatingOnIntegral) {
  const int inf = grb::infinity_value<int>();
  EXPECT_EQ(grb::PlusSaturating<int>{}(inf, 7), inf);
  EXPECT_EQ(grb::PlusSaturating<int>{}(3, 4), 7);
}

TEST(BinaryOps, MinMax) {
  EXPECT_DOUBLE_EQ(grb::Min<double>{}(2.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(grb::Max<double>{}(2.0, 3.0), 3.0);
  // min/max are commutative and idempotent
  EXPECT_DOUBLE_EQ(grb::Min<double>{}(3.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(grb::Min<double>{}(2.0, 2.0), 2.0);
}

TEST(BinaryOps, FirstSecond) {
  EXPECT_EQ(grb::First<int>{}(1, 2), 1);
  EXPECT_EQ(grb::Second<int>{}(1, 2), 2);
}

TEST(BinaryOps, Logical) {
  EXPECT_EQ(grb::LogicalOr<int>{}(0, 0), 0);
  EXPECT_EQ(grb::LogicalOr<int>{}(0, 5), 1);
  EXPECT_EQ(grb::LogicalAnd<int>{}(3, 5), 1);
  EXPECT_EQ(grb::LogicalAnd<int>{}(3, 0), 0);
  EXPECT_EQ(grb::LogicalXor<int>{}(3, 0), 1);
  EXPECT_EQ(grb::LogicalXor<int>{}(3, 5), 0);
}

TEST(BinaryOps, ComparisonsReturnBool) {
  EXPECT_TRUE(grb::LessThan<double>{}(1.0, 2.0));
  EXPECT_FALSE(grb::LessThan<double>{}(2.0, 2.0));
  EXPECT_TRUE(grb::LessEqual<double>{}(2.0, 2.0));
  EXPECT_TRUE(grb::GreaterThan<double>{}(3.0, 2.0));
  EXPECT_TRUE(grb::GreaterEqual<double>{}(2.0, 2.0));
  EXPECT_TRUE(grb::Equal<double>{}(2.0, 2.0));
  EXPECT_TRUE(grb::NotEqual<double>{}(2.0, 3.0));
}

TEST(BinaryOps, LessThanIsNotCommutative) {
  // The property at the heart of the paper's Sec. V-B discussion.
  grb::LessThan<double> lt;
  EXPECT_NE(lt(1.0, 2.0), lt(2.0, 1.0));
}

}  // namespace
