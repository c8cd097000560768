// mxv.hpp — GrB_vxm and GrB_mxv: sparse vector–matrix and matrix–vector
// products over an arbitrary semiring.
//
// vxm computes w = uᵀ A, which over (min,+) with u = (t ∘ tB_i) and A = A_L
// is exactly the edge-relaxation request vector tReq = A_Lᵀ (t ∘ tB_i) of
// the delta-stepping formulation (paper Fig. 2, lines 43 and 60).
//
// Kernel shape: for each stored u[i], scatter semiring.mult(u[i], A[i][j])
// into a dense accumulator indexed by j, combining with semiring.add.  This
// is the push-style SpMSpV that SuiteSparse uses for row-major vxm; its cost
// is proportional to the sum of the out-degrees of the frontier.  The
// accumulator lives in the grb::Context workspace (sparse reset, see
// context.hpp), and the mask probe is pushed down into the scatter loop so
// non-writable columns are never computed.
#pragma once

#include "graphblas/context.hpp"
#include "graphblas/descriptor.hpp"
#include "graphblas/mask.hpp"
#include "graphblas/matrix.hpp"
#include "graphblas/semiring.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

namespace detail {

/// Core push kernel: z = uᵀ A over semiring `sr`.  The probe (from
/// with_vector_probe) is applied inside the scatter loop: a column the mask
/// makes non-writable is skipped before its product is ever formed, at one
/// probe call per distinct column.  Accum/replace still happen in the
/// caller's write phase.
template <typename Z, typename SR, typename U, typename A, typename Probe>
Vector<Z> vxm_kernel(Context& ctx, const SR& sr, const Vector<U>& u,
                     const Matrix<A>& a, const Probe& probe) {
  const Index n = a.ncols();
  if constexpr (std::is_same_v<Probe, AlwaysFalseProbe>) {
    // Complement of "no mask": nothing is writable, skip the product.
    return Vector<Z>(n);
  } else {
    auto& acc = ctx.get<ScatterAccumulator<Z>>();
    acc.reset(n);
    u.for_each([&](Index i, const U& ux) {
      auto cols = a.row_indices(i);
      auto vals = a.row_values(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        const Index j = cols[k];
        if (!acc.occupied[j] && !probe(j)) continue;  // mask push-down
        acc.scatter(j, static_cast<Z>(sr.mult(ux, static_cast<A>(vals[k]))),
                    sr);
      }
    });
    Vector<Z> z(n);
    acc.extract_sorted(n, z.mutable_indices(), z.mutable_values());
    return z;
  }
}

/// Core pull kernel: z = A u over semiring `sr` (dot products of CSR rows
/// with the sparse input vector).  The probe skips non-writable rows before
/// their dot product is computed.  A dense-representation u replaces the
/// sorted two-pointer intersection with an O(1) bitmap test per matrix
/// entry, making each dot product O(row nnz) regardless of u's density.
template <typename Z, typename SR, typename A, typename U, typename Probe>
Vector<Z> mxv_kernel(const SR& sr, const Matrix<A>& a, const Vector<U>& u,
                     const Probe& probe) {
  Vector<Z> z(a.nrows());
  auto& zi = z.mutable_indices();
  auto& zv = z.mutable_values();

  if (u.is_dense()) {
    auto ubit = u.dense_bitmap();
    auto uval = u.dense_values();
    for (Index r = 0; r < a.nrows(); ++r) {
      if (!probe(r)) continue;  // mask push-down
      auto cols = a.row_indices(r);
      auto vals = a.row_values(r);
      bool any = false;
      Z acc{};
      for (std::size_t x = 0; x < cols.size(); ++x) {
        const Index j = cols[x];
        if (!detail::bitmap_test(ubit.data(), j)) continue;
        const Z p = static_cast<Z>(
            sr.mult(static_cast<A>(vals[x]), static_cast<U>(uval[j])));
        acc = any ? sr.add(acc, p) : p;
        any = true;
      }
      if (any) {
        zi.push_back(r);
        zv.push_back(acc);
      }
    }
    return z;
  }

  auto ui = u.indices();
  auto uv = u.values();
  for (Index r = 0; r < a.nrows(); ++r) {
    if (!probe(r)) continue;  // mask push-down
    auto cols = a.row_indices(r);
    auto vals = a.row_values(r);
    bool any = false;
    Z acc{};
    std::size_t x = 0, y = 0;
    while (x < cols.size() && y < ui.size()) {
      if (cols[x] < ui[y]) {
        ++x;
      } else if (ui[y] < cols[x]) {
        ++y;
      } else {
        const Z p = static_cast<Z>(
            sr.mult(static_cast<A>(vals[x]), static_cast<U>(uv[y])));
        acc = any ? sr.add(acc, p) : p;
        any = true;
        ++x;
        ++y;
      }
    }
    if (any) {
      zi.push_back(r);
      zv.push_back(acc);
    }
  }
  return z;
}

}  // namespace detail

/// w<mask> accum= uᵀ A  (GrB_vxm) using `ctx`'s workspaces.
/// desc.transpose_in1 transposes A (served from the matrix's cached
/// transpose — no per-call rebuild).
template <typename W, typename Mask, typename Accum, typename SR, typename U,
          typename A>
void vxm(Context& ctx, Vector<W>& w, const Mask& mask, const Accum& accum,
         const SR& sr, const Vector<U>& u, const Matrix<A>& a,
         const Descriptor& desc = default_desc) {
  const Matrix<A>* pa = desc.transpose_in1 ? &a.transpose_cached() : &a;
  detail::check_size_match(u.size(), pa->nrows(), "vxm: u size vs A rows");
  detail::check_size_match(w.size(), pa->ncols(), "vxm: w size vs A cols");

  using Z = typename SR::value_type;
  detail::with_vector_probe(mask, desc, w.size(), [&](const auto& probe) {
    auto z = detail::vxm_kernel<Z>(ctx, sr, u, *pa, probe);
    detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                desc.replace,
                                /*z_prefiltered=*/true);
  });
}

/// Legacy signature: runs on the thread-local default context.
template <typename W, typename Mask, typename Accum, typename SR, typename U,
          typename A>
void vxm(Vector<W>& w, const Mask& mask, const Accum& accum, const SR& sr,
         const Vector<U>& u, const Matrix<A>& a,
         const Descriptor& desc = default_desc) {
  vxm(default_context(), w, mask, accum, sr, u, a, desc);
}

/// Unmasked, non-accumulating convenience overloads.
template <typename W, typename SR, typename U, typename A>
void vxm(Context& ctx, Vector<W>& w, const SR& sr, const Vector<U>& u,
         const Matrix<A>& a, const Descriptor& desc = default_desc) {
  vxm(ctx, w, NoMask{}, NoAccumulate{}, sr, u, a, desc);
}

template <typename W, typename SR, typename U, typename A>
void vxm(Vector<W>& w, const SR& sr, const Vector<U>& u, const Matrix<A>& a,
         const Descriptor& desc = default_desc) {
  vxm(default_context(), w, NoMask{}, NoAccumulate{}, sr, u, a, desc);
}

/// w<mask> accum= A u  (GrB_mxv) using `ctx`'s workspaces.
/// desc.transpose_in0 transposes A, in which case the push kernel (vxm on
/// the untransposed matrix) is used since Aᵀu = (uᵀA)ᵀ.
template <typename W, typename Mask, typename Accum, typename SR, typename A,
          typename U>
void mxv(Context& ctx, Vector<W>& w, const Mask& mask, const Accum& accum,
         const SR& sr, const Matrix<A>& a, const Vector<U>& u,
         const Descriptor& desc = default_desc) {
  using Z = typename SR::value_type;
  if (desc.transpose_in0) {
    detail::check_size_match(u.size(), a.nrows(), "mxv(T): u size vs A rows");
    detail::check_size_match(w.size(), a.ncols(), "mxv(T): w size vs A cols");
    detail::with_vector_probe(mask, desc, w.size(), [&](const auto& probe) {
      auto z = detail::vxm_kernel<Z>(ctx, sr, u, a, probe);
      detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                desc.replace,
                                /*z_prefiltered=*/true);
    });
    return;
  }
  detail::check_size_match(u.size(), a.ncols(), "mxv: u size vs A cols");
  detail::check_size_match(w.size(), a.nrows(), "mxv: w size vs A rows");
  detail::with_vector_probe(mask, desc, w.size(), [&](const auto& probe) {
    auto z = detail::mxv_kernel<Z>(sr, a, u, probe);
    detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                desc.replace,
                                /*z_prefiltered=*/true);
  });
}

/// Legacy signature: runs on the thread-local default context.
template <typename W, typename Mask, typename Accum, typename SR, typename A,
          typename U>
void mxv(Vector<W>& w, const Mask& mask, const Accum& accum, const SR& sr,
         const Matrix<A>& a, const Vector<U>& u,
         const Descriptor& desc = default_desc) {
  mxv(default_context(), w, mask, accum, sr, a, u, desc);
}

/// Unmasked, non-accumulating convenience overloads.
template <typename W, typename SR, typename A, typename U>
void mxv(Context& ctx, Vector<W>& w, const SR& sr, const Matrix<A>& a,
         const Vector<U>& u, const Descriptor& desc = default_desc) {
  mxv(ctx, w, NoMask{}, NoAccumulate{}, sr, a, u, desc);
}

template <typename W, typename SR, typename A, typename U>
void mxv(Vector<W>& w, const SR& sr, const Matrix<A>& a, const Vector<U>& u,
         const Descriptor& desc = default_desc) {
  mxv(default_context(), w, NoMask{}, NoAccumulate{}, sr, a, u, desc);
}

}  // namespace grb
