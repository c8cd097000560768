// Unit tests for grb::Matrix<T>: CSR construction, row access, element ops,
// build with dup, transpose, tuples.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <tuple>
#include <vector>

#include "graphblas/matrix.hpp"

namespace {

using grb::Index;

grb::Matrix<double> make_sample() {
  //     0    1    2    3
  // 0 [ .   1.0  2.0   . ]
  // 1 [ .    .   3.0   . ]
  // 2 [4.0   .    .   5.0]
  // 3 [ .    .    .    . ]
  const std::vector<Index> r{0, 0, 1, 2, 2};
  const std::vector<Index> c{1, 2, 2, 0, 3};
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  return grb::Matrix<double>::build(4, 4, r, c, v);
}

TEST(Matrix, EmptyConstruction) {
  grb::Matrix<double> m(3, 5);
  EXPECT_EQ(m.nrows(), 3u);
  EXPECT_EQ(m.ncols(), 5u);
  EXPECT_EQ(m.nvals(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.row_indices(1).empty());
}

TEST(Matrix, BuildProducesSortedRows) {
  auto m = make_sample();
  EXPECT_EQ(m.nvals(), 5u);
  auto row0 = m.row_indices(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0], 1u);
  EXPECT_EQ(row0[1], 2u);
  auto vals0 = m.row_values(0);
  EXPECT_DOUBLE_EQ(vals0[0], 1.0);
  EXPECT_DOUBLE_EQ(vals0[1], 2.0);
  EXPECT_EQ(m.row_nvals(3), 0u);
}

TEST(Matrix, BuildUnsortedInput) {
  const std::vector<Index> r{2, 0, 1, 0, 2};
  const std::vector<Index> c{3, 2, 2, 1, 0};
  const std::vector<double> v{5.0, 2.0, 3.0, 1.0, 4.0};
  auto m = grb::Matrix<double>::build(4, 4, r, c, v);
  EXPECT_EQ(m, make_sample());
}

TEST(Matrix, BuildCombinesDuplicatesWithDup) {
  const std::vector<Index> r{1, 1, 1};
  const std::vector<Index> c{2, 2, 2};
  const std::vector<double> v{5.0, 3.0, 4.0};
  auto m = grb::Matrix<double>::build(3, 3, r, c, v, grb::Min<double>{});
  EXPECT_EQ(m.nvals(), 1u);
  EXPECT_DOUBLE_EQ(*m.extract_element(1, 2), 3.0);
}

/// The builder build() replaced: stable-sort the triple order by
/// (row, col), then fold each run of equal coordinates left to right with
/// `dup`.  Written independently so the counting-sort builder is checked
/// against the semantics, not against itself.
template <typename Dup>
grb::Matrix<double> reference_build(Index n, const std::vector<Index>& r,
                                    const std::vector<Index>& c,
                                    const std::vector<double>& v, Dup dup) {
  std::vector<std::size_t> order(r.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return std::tie(r[a], c[a]) < std::tie(r[b], c[b]);
  });
  std::vector<Index> ptr(n + 1, 0), ind;
  std::vector<double> val;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t k = order[i];
    if (i > 0 && r[order[i - 1]] == r[k] && c[order[i - 1]] == c[k]) {
      val.back() = dup(val.back(), v[k]);
    } else {
      ind.push_back(c[k]);
      val.push_back(v[k]);
      ++ptr[r[k] + 1];
    }
  }
  for (Index i = 0; i < n; ++i) ptr[i + 1] += ptr[i];
  grb::Matrix<double> m(n, n);
  m.adopt(std::move(ptr), std::move(ind), std::move(val));
  return m;
}

/// Same CSR and the same value bits (operator== would equate 0.0 and -0.0).
void expect_bit_identical(const grb::Matrix<double>& got,
                          const grb::Matrix<double>& want) {
  ASSERT_EQ(got.nrows(), want.nrows());
  EXPECT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(got.col_ind(), want.col_ind()));
  ASSERT_EQ(got.nvals(), want.nvals());
  for (Index k = 0; k < got.nvals(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.raw_values()[k]),
              std::bit_cast<std::uint64_t>(want.raw_values()[k]))
        << "entry " << k;
  }
}

// Seeded unsorted triples with duplicates within and across rows, values
// drawn from a set with signed-zero ties: Min keeps the first of 0.0 and
// -0.0, so only a builder that folds in input order matches.  The second
// leg feeds the triples pre-sorted, which takes the no-sort path per row
// and still has to fold its duplicates.
TEST(Matrix, BuildMatchesStableSortReferenceBitForBit) {
  constexpr Index n = 40;
  const double pool[] = {0.0, -0.0, 1.0, 2.5, -0.0, 0.0, 7.0};
  std::mt19937_64 rng(20231);
  std::vector<Index> r, c;
  std::vector<double> v;
  for (int k = 0; k < 1500; ++k) {
    r.push_back(rng() % n);
    c.push_back(rng() % 12);  // narrow column range: many duplicates
    v.push_back(pool[rng() % std::size(pool)]);
  }
  // Explicit signed-zero ties at one coordinate in each order.
  for (const auto& [row, col, x] : {std::tuple{3u, 30u, 0.0},
                                    std::tuple{3u, 30u, -0.0},
                                    std::tuple{5u, 31u, -0.0},
                                    std::tuple{5u, 31u, 0.0}}) {
    r.push_back(row);
    c.push_back(col);
    v.push_back(x);
  }
  for (bool presorted : {false, true}) {
    SCOPED_TRACE(presorted ? "presorted" : "unsorted");
    if (presorted) {
      std::vector<std::size_t> order(r.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return std::tie(r[a], c[a]) < std::tie(r[b], c[b]);
                       });
      std::vector<Index> sorted_r, sorted_c;
      std::vector<double> sorted_v;
      for (std::size_t k : order) {
        sorted_r.push_back(r[k]);
        sorted_c.push_back(c[k]);
        sorted_v.push_back(v[k]);
      }
      r.swap(sorted_r);
      c.swap(sorted_c);
      v.swap(sorted_v);
    }
    const auto by_min = grb::Matrix<double>::build(n, n, r, c, v,
                                                   grb::Min<double>{});
    expect_bit_identical(by_min, reference_build(n, r, c, v,
                                                 grb::Min<double>{}));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*by_min.extract_element(3, 30)),
              std::bit_cast<std::uint64_t>(0.0));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*by_min.extract_element(5, 31)),
              std::bit_cast<std::uint64_t>(-0.0));
    expect_bit_identical(grb::Matrix<double>::build(n, n, r, c, v),
                         reference_build(n, r, c, v, grb::Second<double>{}));
  }
}

TEST(Matrix, BuildRejectsOutOfBounds) {
  const std::vector<Index> r{5};
  const std::vector<Index> c{0};
  const std::vector<double> v{1.0};
  EXPECT_THROW(grb::Matrix<double>::build(4, 4, r, c, v),
               grb::IndexOutOfBounds);
}

TEST(Matrix, BuildRejectsLengthMismatch) {
  const std::vector<Index> r{0, 1};
  const std::vector<Index> c{0};
  const std::vector<double> v{1.0};
  EXPECT_THROW(grb::Matrix<double>::build(4, 4, r, c, v), grb::InvalidValue);
}

TEST(Matrix, ExtractElement) {
  auto m = make_sample();
  EXPECT_DOUBLE_EQ(*m.extract_element(2, 3), 5.0);
  EXPECT_FALSE(m.extract_element(3, 3).has_value());
  EXPECT_TRUE(m.has_element(0, 1));
  EXPECT_FALSE(m.has_element(1, 0));
}

TEST(Matrix, SetElementInsertsAndUpdates) {
  auto m = make_sample();
  m.set_element(3, 1, 7.0);
  EXPECT_EQ(m.nvals(), 6u);
  EXPECT_DOUBLE_EQ(*m.extract_element(3, 1), 7.0);
  m.set_element(3, 1, 8.0);
  EXPECT_EQ(m.nvals(), 6u);
  EXPECT_DOUBLE_EQ(*m.extract_element(3, 1), 8.0);
  // Insertion keeps later rows' spans coherent.
  EXPECT_DOUBLE_EQ(*m.extract_element(2, 0), 4.0);
}

TEST(Matrix, RemoveElement) {
  auto m = make_sample();
  m.remove_element(0, 2);
  EXPECT_EQ(m.nvals(), 4u);
  EXPECT_FALSE(m.has_element(0, 2));
  EXPECT_DOUBLE_EQ(*m.extract_element(2, 3), 5.0);
  m.remove_element(0, 2);  // absent: no-op
  EXPECT_EQ(m.nvals(), 4u);
}

TEST(Matrix, ExtractTuplesRoundTrips) {
  auto m = make_sample();
  std::vector<Index> r, c;
  std::vector<double> v;
  m.extract_tuples(r, c, v);
  auto m2 = grb::Matrix<double>::build(4, 4, r, c, v);
  EXPECT_EQ(m, m2);
}

TEST(Matrix, ForEachRowMajor) {
  auto m = make_sample();
  std::vector<Index> rows;
  m.for_each([&](Index r, Index, double) { rows.push_back(r); });
  EXPECT_EQ(rows, (std::vector<Index>{0, 0, 1, 2, 2}));
}

TEST(Matrix, TransposedSwapsCoordinates) {
  auto m = make_sample();
  auto t = m.transposed();
  EXPECT_EQ(t.nrows(), 4u);
  EXPECT_EQ(t.nvals(), m.nvals());
  m.for_each([&](Index r, Index c, double v) {
    auto got = t.extract_element(c, r);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, v);
  });
}

TEST(Matrix, DoubleTransposeIsIdentity) {
  auto m = make_sample();
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Matrix, TransposeRectangular) {
  const std::vector<Index> r{0, 1};
  const std::vector<Index> c{4, 0};
  const std::vector<double> v{1.0, 2.0};
  auto m = grb::Matrix<double>::build(2, 5, r, c, v);
  auto t = m.transposed();
  EXPECT_EQ(t.nrows(), 5u);
  EXPECT_EQ(t.ncols(), 2u);
  EXPECT_DOUBLE_EQ(*t.extract_element(4, 0), 1.0);
  EXPECT_DOUBLE_EQ(*t.extract_element(0, 1), 2.0);
}

TEST(Matrix, ClearKeepsDimensions) {
  auto m = make_sample();
  m.clear();
  EXPECT_EQ(m.nrows(), 4u);
  EXPECT_EQ(m.nvals(), 0u);
  EXPECT_TRUE(m.row_indices(2).empty());
}

TEST(Matrix, BoolMatrixWorks) {
  grb::Matrix<bool> m(2, 2);
  m.set_element(0, 1, true);
  m.set_element(1, 0, false);
  EXPECT_EQ(m.nvals(), 2u);
  EXPECT_TRUE(*m.extract_element(0, 1));
  EXPECT_FALSE(*m.extract_element(1, 0));
}

TEST(Matrix, RowAccessOutOfRangeThrows) {
  auto m = make_sample();
  EXPECT_THROW(m.row_indices(4), grb::IndexOutOfBounds);
  EXPECT_THROW(m.row_values(4), grb::IndexOutOfBounds);
  EXPECT_THROW(m.set_element(0, 9, 1.0), grb::IndexOutOfBounds);
}

}  // namespace
