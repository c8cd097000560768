// reduce.hpp — GrB_reduce: fold the stored elements of a vector with a
// monoid.
//
// Delta-stepping's loop conditions are nvals() checks on filtered vectors;
// the reduce caller is the C API's GrB_Vector_reduce_FP64.
#pragma once

#include "graphblas/mask.hpp"
#include "graphblas/monoid.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

/// Scalar reduce of a vector: returns fold(monoid, stored elements) or the
/// monoid identity when the vector is empty (per GrB_reduce semantics the
/// identity is the neutral start value).
template <typename MonoidT, typename U>
typename MonoidT::value_type reduce(const MonoidT& monoid,
                                    const Vector<U>& u) {
  using T = typename MonoidT::value_type;
  T acc = monoid.identity();
  u.for_each([&](Index, const U& x) { acc = monoid(acc, static_cast<T>(x)); });
  return acc;
}

/// Scalar reduce with accumulator: out = accum(out, reduce(monoid, u)).
template <typename T, typename Accum, typename MonoidT, typename U>
void reduce(T& out, const Accum& accum, const MonoidT& monoid,
            const Vector<U>& u) {
  const auto r = reduce(monoid, u);
  if constexpr (detail::is_no_accum_v<Accum>) {
    out = static_cast<T>(r);
  } else {
    out = static_cast<T>(accum(out, r));
  }
}

}  // namespace grb
