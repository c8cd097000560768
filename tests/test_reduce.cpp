// Unit tests for grb::reduce — scalar reductions of a vector.
#include <gtest/gtest.h>

#include "graphblas/graphblas.hpp"

namespace {

TEST(ReduceVector, PlusSumsStoredElements) {
  grb::Vector<double> v(5);
  v.set_element(0, 1.0);
  v.set_element(2, 2.5);
  v.set_element(4, 3.5);
  EXPECT_DOUBLE_EQ(grb::reduce(grb::plus_monoid<double>(), v), 7.0);
}

TEST(ReduceVector, EmptyGivesIdentity) {
  grb::Vector<double> v(5);
  EXPECT_DOUBLE_EQ(grb::reduce(grb::plus_monoid<double>(), v), 0.0);
  EXPECT_EQ(grb::reduce(grb::min_monoid<double>(), v),
            grb::infinity_value<double>());
}

TEST(ReduceVector, MinFindsSmallest) {
  grb::Vector<double> v(5);
  v.set_element(1, 4.0);
  v.set_element(3, -2.0);
  EXPECT_DOUBLE_EQ(grb::reduce(grb::min_monoid<double>(), v), -2.0);
}

TEST(ReduceVector, LorDetectsAnyTruthy) {
  grb::Vector<bool> v(4);
  v.set_element(0, false);
  EXPECT_FALSE(grb::reduce(grb::lor_monoid<bool>(), v));
  v.set_element(2, true);
  EXPECT_TRUE(grb::reduce(grb::lor_monoid<bool>(), v));
}

TEST(ReduceVector, SetCardinalityIdiom) {
  // |S| as reduce(plus) over a 0/1 vector of set membership.
  grb::Vector<int> s(6);
  s.set_element(0, 1);
  s.set_element(3, 1);
  s.set_element(5, 1);
  EXPECT_EQ(grb::reduce(grb::plus_monoid<int>(), s), 3);
}

TEST(ReduceVector, WithAccumIntoScalar) {
  grb::Vector<double> v(3);
  v.set_element(0, 2.0);
  double out = 10.0;
  grb::reduce(out, grb::Plus<double>{}, grb::plus_monoid<double>(), v);
  EXPECT_DOUBLE_EQ(out, 12.0);
  grb::reduce(out, grb::NoAccumulate{}, grb::plus_monoid<double>(), v);
  EXPECT_DOUBLE_EQ(out, 2.0);
}

}  // namespace
