// ops.hpp — unary and binary operators in the style of the GraphBLAS
// predefined operator set (GrB_PLUS_FP64, GrB_MIN_FP64, GrB_LT_FP64, ...).
//
// Operators are stateless function objects so they inline fully; the
// "parameterized" operators used by delta-stepping (value <= Δ, iΔ <= value <
// (i+1)Δ) carry their thresholds as members, mirroring how the paper's C code
// closes over the global `delta` and `i_global`.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>

#include "graphblas/types.hpp"

namespace grb {

// ---------------------------------------------------------------------------
// Unary operators (GrB_UnaryOp analogues).
// ---------------------------------------------------------------------------

/// GrB_IDENTITY_*: passes the value through.
template <typename T>
struct Identity {
  constexpr T operator()(const T& v) const { return v; }
};

/// GrB_AINV_*: additive inverse.
template <typename T>
struct AdditiveInverse {
  constexpr T operator()(const T& v) const { return static_cast<T>(-v); }
};

/// GrB_MINV_*: multiplicative inverse.
template <typename T>
struct MultiplicativeInverse {
  constexpr T operator()(const T& v) const { return static_cast<T>(T(1) / v); }
};

/// GrB_LNOT: logical negation.
template <typename T>
struct LogicalNot {
  constexpr T operator()(const T& v) const {
    return static_cast<T>(v == T(0));
  }
};

/// GrB_ABS_*.
template <typename T>
struct AbsOp {
  constexpr T operator()(const T& v) const {
    if constexpr (std::is_unsigned_v<T>) {
      return v;
    } else {
      return static_cast<T>(v < T(0) ? -v : v);
    }
  }
};

/// GxB_ONE_*: maps every stored value to one (handy for structure-only views).
template <typename T>
struct One {
  constexpr T operator()(const T&) const { return T(1); }
};

/// Bind-second: turns a binary op into a unary op with fixed rhs
/// (GrB_apply with a BinaryOp + scalar in the v1.3+ C API).
template <typename BinaryOp, typename T>
struct BindSecond {
  BinaryOp op{};
  T rhs{};
  constexpr auto operator()(const T& lhs) const { return op(lhs, rhs); }
};

/// Bind-first analogue.
template <typename BinaryOp, typename T>
struct BindFirst {
  BinaryOp op{};
  T lhs{};
  constexpr auto operator()(const T& rhs) const { return op(lhs, rhs); }
};

// --- Threshold predicates used by the delta-stepping filters. --------------

/// v > delta  (paper: `delta_gt` used to build A_H).
template <typename T>
struct GreaterThanThreshold {
  T threshold{};
  constexpr bool operator()(const T& v) const { return v > threshold; }
};

/// 0 < v <= delta  (paper: `delta_leq` used to build A_L).  The lower bound
/// excludes explicit zeros, matching `A ∘ (0 < A ≤ Δ)` in the formulation.
template <typename T>
struct LightEdgePredicate {
  T threshold{};
  constexpr bool operator()(const T& v) const {
    return v > T(0) && v <= threshold;
  }
};

/// v >= i*delta  (paper: `delta_igeq`, the outer-loop continuation filter).
template <typename T>
struct GreaterEqualThreshold {
  T threshold{};
  constexpr bool operator()(const T& v) const { return v >= threshold; }
};

/// lo <= v < hi  (paper: `delta_irange`, the bucket membership filter
/// iΔ ≤ t < (i+1)Δ).  The comparisons combine with `&`, not `&&`: both are
/// cheap, and on unordered t a short-circuit branch mispredicts about half
/// the time.
template <typename T>
struct HalfOpenRangePredicate {
  T lo{};
  T hi{};
  constexpr bool operator()(const T& v) const {
    return (lo <= v) & (v < hi);
  }
};

// ---------------------------------------------------------------------------
// Binary operators (GrB_BinaryOp analogues).
// ---------------------------------------------------------------------------

/// GrB_PLUS_*.
template <typename T>
struct Plus {
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a + b);
  }
};

/// Saturating plus for the (min,+) semiring: inf + w stays inf even for
/// integral T.  For floating T this is ordinary +.
template <typename T>
struct PlusSaturating {
  constexpr T operator()(const T& a, const T& b) const {
    return saturating_add(a, b);
  }
};

/// GrB_MINUS_*.
template <typename T>
struct Minus {
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a - b);
  }
};

/// GrB_TIMES_*.
template <typename T>
struct Times {
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a * b);
  }
};

/// GrB_DIV_*.
template <typename T>
struct Div {
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>(a / b);
  }
};

/// GrB_MIN_*.
template <typename T>
struct Min {
  constexpr T operator()(const T& a, const T& b) const {
    return b < a ? b : a;
  }
};

/// GrB_MAX_*.
template <typename T>
struct Max {
  constexpr T operator()(const T& a, const T& b) const {
    return a < b ? b : a;
  }
};

/// GrB_FIRST_*: returns the first argument.
template <typename T>
struct First {
  constexpr T operator()(const T& a, const T&) const { return a; }
};

/// GrB_SECOND_*: returns the second argument.
template <typename T>
struct Second {
  constexpr T operator()(const T&, const T& b) const { return b; }
};

/// GrB_LOR / GrB_LAND / GrB_LXOR on any type with truthiness.
template <typename T>
struct LogicalOr {
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>((a != T(0)) || (b != T(0)));
  }
};

template <typename T>
struct LogicalAnd {
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>((a != T(0)) && (b != T(0)));
  }
};

template <typename T>
struct LogicalXor {
  constexpr T operator()(const T& a, const T& b) const {
    return static_cast<T>((a != T(0)) != (b != T(0)));
  }
};

// --- Comparison operators; result type bool (GrB_LT_* family). -------------
// Note: these are NOT commutative.  Section V-B of the paper discusses the
// surprising behaviour of eWiseAdd with non-commutative operators; our
// eWiseAdd implements the standard-mandated union semantics (pass the lone
// operand through) so the pitfall — and its mask workaround — reproduce.

template <typename T>
struct LessThan {
  constexpr bool operator()(const T& a, const T& b) const { return a < b; }
};

template <typename T>
struct LessEqual {
  constexpr bool operator()(const T& a, const T& b) const { return a <= b; }
};

template <typename T>
struct GreaterThan {
  constexpr bool operator()(const T& a, const T& b) const { return a > b; }
};

template <typename T>
struct GreaterEqual {
  constexpr bool operator()(const T& a, const T& b) const { return a >= b; }
};

template <typename T>
struct Equal {
  constexpr bool operator()(const T& a, const T& b) const { return a == b; }
};

template <typename T>
struct NotEqual {
  constexpr bool operator()(const T& a, const T& b) const { return a != b; }
};

}  // namespace grb
