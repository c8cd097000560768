// Unit tests for mxm: Gustavson product vs dense reference, semiring
// variety, masks, and the K-truss-style fill-in elimination the paper cites.
#include <gtest/gtest.h>

#include <vector>

#include "graphblas/graphblas.hpp"

namespace {

using grb::Index;

/// Dense (plus,times) reference product for cross-checking.
std::vector<std::vector<double>> dense_product(
    const grb::Matrix<double>& a, const grb::Matrix<double>& b) {
  std::vector<std::vector<double>> c(
      a.nrows(), std::vector<double>(b.ncols(), 0.0));
  a.for_each([&](Index i, Index k, double av) {
    b.for_each([&](Index kk, Index j, double bv) {
      if (k == kk) c[i][j] += av * bv;
    });
  });
  return c;
}

grb::Matrix<double> random_matrix(Index n, Index m, int seed, double density) {
  grb::Matrix<double> out(n, m);
  unsigned state = static_cast<unsigned>(seed);
  auto next = [&] {
    state = state * 1664525u + 1013904223u;
    return (state >> 8) % 1000 / 1000.0;
  };
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < m; ++j) {
      if (next() < density) out.set_element(i, j, next() * 10 + 0.1);
    }
  }
  return out;
}

TEST(Mxm, MatchesDenseReference) {
  auto a = random_matrix(8, 6, 1, 0.4);
  auto b = random_matrix(6, 7, 2, 0.4);
  grb::Matrix<double> c(8, 7);
  grb::mxm(c, grb::plus_times_semiring<double>(), a, b);
  auto ref = dense_product(a, b);
  for (Index i = 0; i < 8; ++i) {
    for (Index j = 0; j < 7; ++j) {
      const double got = c.extract_element(i, j).value_or(0.0);
      EXPECT_NEAR(got, ref[i][j], 1e-9) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Mxm, IdentityMatrixIsNeutral) {
  auto a = random_matrix(5, 5, 3, 0.5);
  grb::Matrix<double> eye(5, 5);
  for (Index i = 0; i < 5; ++i) eye.set_element(i, i, 1.0);
  grb::Matrix<double> c(5, 5);
  grb::mxm(c, grb::plus_times_semiring<double>(), a, eye);
  EXPECT_EQ(c, a);
  grb::mxm(c, grb::plus_times_semiring<double>(), eye, a);
  EXPECT_EQ(c, a);
}

TEST(Mxm, TransposeDescriptors) {
  auto a = random_matrix(4, 6, 4, 0.5);
  auto b = random_matrix(4, 5, 5, 0.5);
  // C = AT * B via descriptor must equal the explicit transpose product.
  grb::Matrix<double> c1(6, 5), c2(6, 5);
  grb::mxm(c1, grb::NoMask{}, grb::NoAccumulate{},
           grb::plus_times_semiring<double>(), a, b,
           grb::Descriptor{.transpose_in0 = true});
  grb::mxm(c2, grb::plus_times_semiring<double>(), a.transposed(), b);
  EXPECT_EQ(c1, c2);
}

TEST(Mxm, MinPlusComputesTwoHopDistances) {
  grb::Matrix<double> a(3, 3);
  a.set_element(0, 1, 2.0);
  a.set_element(1, 2, 3.0);
  grb::Matrix<double> c(3, 3);
  grb::mxm(c, grb::min_plus_semiring<double>(), a, a);
  EXPECT_DOUBLE_EQ(*c.extract_element(0, 2), 5.0);
  EXPECT_EQ(c.nvals(), 1u);
}

TEST(Mxm, KTrussStyleMaskEliminatesFillIn) {
  // The paper motivates Hadamard-after-product to kill fill-in:
  // S = ATA ∘ A.  With A as mask + replace, mxm delivers it in one call.
  grb::Matrix<double> a(4, 4);
  // A small undirected triangle 0-1-2 plus a pendant 2-3.
  auto set_sym = [&](Index i, Index j) {
    a.set_element(i, j, 1.0);
    a.set_element(j, i, 1.0);
  };
  set_sym(0, 1);
  set_sym(1, 2);
  set_sym(0, 2);
  set_sym(2, 3);

  grb::Matrix<double> full(4, 4);
  grb::mxm(full, grb::NoMask{}, grb::NoAccumulate{},
           grb::plus_times_semiring<double>(), a, a,
           grb::Descriptor{.transpose_in0 = true});
  grb::Matrix<double> masked(4, 4);
  grb::mxm(masked, a, grb::NoAccumulate{}, grb::plus_times_semiring<double>(),
           a, a,
           grb::Descriptor{.replace = true, .transpose_in0 = true});
  EXPECT_GT(full.nvals(), masked.nvals());  // fill-in eliminated
  // Each triangle edge supports exactly 1 triangle: S[0][1] == 1.
  EXPECT_DOUBLE_EQ(*masked.extract_element(0, 1), 1.0);
  // The pendant edge 2-3 supports no triangle: vertices 2 and 3 share no
  // neighbour, so the product has no stored entry there even though the
  // mask would allow one.
  EXPECT_FALSE(masked.has_element(2, 3));
}

TEST(Mxm, TriangleCountIdiom) {
  // Sandia-style triangle count: with L the strictly lower pattern,
  // sum(L .* (L L)) counts each triangle once.  Pins the masked product
  // without a transpose descriptor, reduced to a scalar.
  grb::Matrix<double> a(5, 5);
  auto set_sym = [&](Index i, Index j) {
    a.set_element(i, j, 1.0);
    a.set_element(j, i, 1.0);
  };
  // A 4-clique {0,1,2,3} (4 triangles) plus a pendant edge 3-4.
  for (Index i = 0; i < 4; ++i) {
    for (Index j = i + 1; j < 4; ++j) set_sym(i, j);
  }
  set_sym(3, 4);
  grb::Matrix<double> lower(5, 5);
  grb::select(lower, grb::TriLower{-1}, a);
  grb::Matrix<double> closed(5, 5);
  grb::mxm(closed, lower, grb::NoAccumulate{},
           grb::plus_times_semiring<double>(), lower, lower,
           grb::replace_desc);
  EXPECT_DOUBLE_EQ(grb::reduce(grb::plus_monoid<double>(), closed), 4.0);
  // The mask kept only positions of L: no fill-in outside it.
  closed.for_each([&](Index i, Index j, double) {
    EXPECT_TRUE(lower.has_element(i, j)) << i << "," << j;
  });
}

TEST(Mxm, AccumAddsIntoExisting) {
  auto a = random_matrix(3, 3, 6, 0.6);
  grb::Matrix<double> c(3, 3);
  c.set_element(0, 0, 100.0);
  grb::Matrix<double> ab(3, 3);
  grb::mxm(ab, grb::plus_times_semiring<double>(), a, a);
  const double expected =
      100.0 + ab.extract_element(0, 0).value_or(0.0);
  grb::mxm(c, grb::NoMask{}, grb::Plus<double>{},
           grb::plus_times_semiring<double>(), a, a);
  if (ab.has_element(0, 0)) {
    EXPECT_NEAR(*c.extract_element(0, 0), expected, 1e-9);
  } else {
    EXPECT_DOUBLE_EQ(*c.extract_element(0, 0), 100.0);
  }
}

TEST(Mxm, DimensionChecks) {
  grb::Matrix<double> a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(grb::mxm(c, grb::plus_times_semiring<double>(), a, b),
               grb::DimensionMismatch);
}

TEST(Mxm, EmptyOperandsGiveEmptyResult) {
  grb::Matrix<double> a(3, 3), b(3, 3), c(3, 3);
  grb::mxm(c, grb::plus_times_semiring<double>(), a, b);
  EXPECT_EQ(c.nvals(), 0u);
}

}  // namespace
