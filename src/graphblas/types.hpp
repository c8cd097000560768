// types.hpp — fundamental types, error model, and concepts for the grb::
// GraphBLAS-style substrate.
//
// This library implements the subset (and a bit more) of the GraphBLAS C API
// semantics needed by the linear-algebraic delta-stepping SSSP of
// Sridhar et al. (IPDPSW'19), in the template style of GBTL.  Sparse objects
// store *structural* zeros implicitly: an index either holds a value or is
// absent ("no stored element"), independent of the value itself.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace grb {

/// Index type for vector positions and matrix coordinates.
/// GraphBLAS uses GrB_Index (uint64_t); 64 bits keeps us faithful.
using Index = std::uint64_t;

/// In-memory element type for T.  bool maps to unsigned char so containers
/// avoid the std::vector<bool> proxy specialization (no data(), no spans);
/// every other type is stored as itself.  Conversions at the boundary are
/// value-preserving for bool.
template <typename T>
using storage_of_t =
    std::conditional_t<std::is_same_v<T, bool>, unsigned char, T>;

/// Sentinel used by some convenience APIs to mean "all indices".
inline constexpr Index all_indices = std::numeric_limits<Index>::max();

// ---------------------------------------------------------------------------
// Error model.  The GraphBLAS C API returns GrB_Info codes; a C++ library is
// better served by exceptions carrying the same taxonomy.
// ---------------------------------------------------------------------------

/// Base class for all GraphBLAS errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Mismatched object dimensions (GrB_DIMENSION_MISMATCH).
class DimensionMismatch : public Error {
 public:
  explicit DimensionMismatch(const std::string& what)
      : Error("dimension mismatch: " + what) {}
};

/// Index out of bounds (GrB_INDEX_OUT_OF_BOUNDS).
class IndexOutOfBounds : public Error {
 public:
  explicit IndexOutOfBounds(const std::string& what)
      : Error("index out of bounds: " + what) {}
};

/// Reading an element that is not stored (GrB_NO_VALUE).
class NoValue : public Error {
 public:
  explicit NoValue(const std::string& what) : Error("no value: " + what) {}
};

/// Invalid argument combination (GrB_INVALID_VALUE / GrB_NULL_POINTER).
class InvalidValue : public Error {
 public:
  explicit InvalidValue(const std::string& what)
      : Error("invalid value: " + what) {}
};

/// Output object aliased with an input where the operation forbids it.
class AliasError : public Error {
 public:
  explicit AliasError(const std::string& what) : Error("aliasing: " + what) {}
};

// ---------------------------------------------------------------------------
// Concepts.
// ---------------------------------------------------------------------------

/// A unary operator: T -> U via operator().
template <typename Op, typename T>
concept UnaryOpFor = requires(Op op, T a) {
  { op(a) };
};

/// A binary operator: (T, U) -> V via operator().
template <typename Op, typename T, typename U = T>
concept BinaryOpFor = requires(Op op, T a, U b) {
  { op(a, b) };
};

/// An index-aware unary predicate used by select(): (value, index) -> bool.
template <typename Op, typename T>
concept VectorSelectOpFor = requires(Op op, T a, Index i) {
  { op(a, i) } -> std::convertible_to<bool>;
};

/// Monoid: associative binary op with an identity element.
template <typename M, typename T>
concept MonoidFor = requires(M m, T a, T b) {
  { m(a, b) } -> std::convertible_to<T>;
  { m.identity() } -> std::convertible_to<T>;
};

/// Semiring: additive monoid + multiplicative binary op.
template <typename S, typename A, typename B>
concept SemiringFor = requires(S s, A a, B b) {
  { s.mult(a, b) };
  { s.add(s.mult(a, b), s.mult(a, b)) };
  { s.zero() };
};

// ---------------------------------------------------------------------------
// Infinity helpers.  Delta-stepping initializes tentative distances to
// "infinity"; for integral weight types we use max() as the conventional
// saturating infinity.
// ---------------------------------------------------------------------------

template <typename T>
constexpr T infinity_value() {
  if constexpr (std::numeric_limits<T>::has_infinity) {
    return std::numeric_limits<T>::infinity();
  } else {
    return std::numeric_limits<T>::max();
  }
}

/// Saturating add: infinity + x == infinity (prevents integral overflow in
/// the (min,+) semiring).
template <typename T>
constexpr T saturating_add(T a, T b) {
  if constexpr (std::numeric_limits<T>::has_infinity) {
    return a + b;
  } else {
    const T inf = infinity_value<T>();
    if (a == inf || b == inf) return inf;
    if constexpr (std::is_unsigned_v<T>) {
      return (b > inf - a) ? inf : static_cast<T>(a + b);
    } else {
      if (a > 0 && b > inf - a) return inf;
      return static_cast<T>(a + b);
    }
  }
}

namespace detail {

/// Throws DimensionMismatch unless a == b.
inline void check_size_match(Index a, Index b, const char* where) {
  if (a != b) {
    throw DimensionMismatch(std::string(where) + ": " + std::to_string(a) +
                            " vs " + std::to_string(b));
  }
}

inline void check_index(Index i, Index bound, const char* where) {
  if (i >= bound) {
    throw IndexOutOfBounds(std::string(where) + ": " + std::to_string(i) +
                           " >= " + std::to_string(bound));
  }
}

}  // namespace detail

}  // namespace grb
