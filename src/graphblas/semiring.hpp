// semiring.hpp — semirings: an additive monoid paired with a multiplicative
// binary operator, analogous to GrB_Semiring.
#pragma once

#include "graphblas/monoid.hpp"
#include "graphblas/ops.hpp"
#include "graphblas/types.hpp"

namespace grb {

/// Generic semiring.  `AddMonoid` supplies add() and zero(); `MultOp`
/// supplies mult().  vxm/mxv accumulate mult-products with add.
template <typename AddMonoid, typename MultOp>
struct Semiring {
  using value_type = typename AddMonoid::value_type;
  AddMonoid add_monoid{};
  MultOp mult_op{};

  template <typename A, typename B>
  constexpr auto mult(const A& a, const B& b) const {
    return mult_op(a, b);
  }
  constexpr value_type add(const value_type& a, const value_type& b) const {
    return add_monoid(a, b);
  }
  constexpr value_type zero() const { return add_monoid.identity(); }
};

/// Arithmetic semiring (+, *): ordinary linear algebra.
template <typename T>
constexpr auto plus_times_semiring() {
  return Semiring<Monoid<T, Plus<T>>, Times<T>>{plus_monoid<T>(), Times<T>{}};
}

/// Tropical / shortest-path semiring (min, +).  The `+` saturates at
/// infinity so integral weight types do not wrap around.
/// This is the paper's `min_plus_sring` (Fig. 2, lines 43 and 60).
template <typename T>
constexpr auto min_plus_semiring() {
  return Semiring<Monoid<T, Min<T>>, PlusSaturating<T>>{min_monoid<T>(),
                                                        PlusSaturating<T>{}};
}

/// (max, +) semiring: longest/critical path on DAGs.
template <typename T>
constexpr auto max_plus_semiring() {
  return Semiring<Monoid<T, Max<T>>, Plus<T>>{max_monoid<T>(), Plus<T>{}};
}

/// (min, max) semiring: minimax / bottleneck path.
template <typename T>
constexpr auto min_max_semiring() {
  return Semiring<Monoid<T, Min<T>>, Max<T>>{min_monoid<T>(), Max<T>{}};
}

/// Boolean semiring (||, &&): reachability / BFS frontier expansion.
template <typename T>
constexpr auto lor_land_semiring() {
  return Semiring<Monoid<T, LogicalOr<T>>, LogicalAnd<T>>{lor_monoid<T>(),
                                                          LogicalAnd<T>{}};
}

/// (min, first) semiring: parent selection in BFS-like traversals.
template <typename T>
constexpr auto min_first_semiring() {
  return Semiring<Monoid<T, Min<T>>, First<T>>{min_monoid<T>(), First<T>{}};
}

/// (min, second) semiring: propagate the matrix value on min.
template <typename T>
constexpr auto min_second_semiring() {
  return Semiring<Monoid<T, Min<T>>, Second<T>>{min_monoid<T>(), Second<T>{}};
}

/// (plus, first)/(plus, second) semirings: degree-style aggregations.
template <typename T>
constexpr auto plus_first_semiring() {
  return Semiring<Monoid<T, Plus<T>>, First<T>>{plus_monoid<T>(), First<T>{}};
}

template <typename T>
constexpr auto plus_second_semiring() {
  return Semiring<Monoid<T, Plus<T>>, Second<T>>{plus_monoid<T>(),
                                                 Second<T>{}};
}

}  // namespace grb
