// apply.hpp — GrB_apply: point-wise application of a unary operator to the
// stored elements of a vector or matrix, with optional mask and accumulator.
//
// This is the workhorse of the paper's filter idiom: a first apply turns a
// threshold predicate into a boolean object, and a second apply uses that
// boolean object as a *mask* over an identity op to keep only the entries
// where the predicate held (Fig. 2, lines 16-17, 20-21, 27-28, 35, 37, ...).
#pragma once

#include <vector>

#include "graphblas/bitmap.hpp"
#include "graphblas/descriptor.hpp"
#include "graphblas/mask.hpp"
#include "graphblas/matrix.hpp"
#include "graphblas/operations/dense_compact.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

namespace detail {

/// Dense-representation apply kernel: word-packed sweep of u's bitmap with
/// the mask pushed down one 64-lane word at a time (zero words skipped
/// whole, probe applied via probe_writable_word, op run only at surviving
/// bits via ctz iteration), staging a dense result.
template <typename W, typename Probe, typename Accum, typename UnaryOp,
          typename U>
void apply_vector_dense(Context& ctx, Vector<W>& w, const Probe& probe,
                        const Accum& accum, UnaryOp op, const Vector<U>& u,
                        const Descriptor& desc) {
  using Z = decltype(op(std::declval<U>()));
  const Index n = u.size();
  auto& stage = ctx.get<DenseKernelStage<Z>>();
  stage.reset(n);
  Index nnz = 0;
  if constexpr (!std::is_same_v<Probe, AlwaysFalseProbe>) {
    auto ubit = u.dense_bitmap();
    auto uval = u.dense_values();
    const std::size_t nwords = ubit.size();
    auto word_kernel = [&](std::size_t wd) -> Index {
      const BitmapWord uw = ubit[wd];
      if (uw == 0) return 0;  // whole-word skip of empty regions
      const BitmapWord m = uw & probe_writable_word(probe, wd, uw);
      if (m == 0) return 0;
      stage.bit[wd] = m;
      bitmap_for_each_in_word(
          m, static_cast<Index>(wd) * kBitmapWordBits, [&](Index i) {
            stage.val[i] =
                static_cast<storage_of_t<Z>>(op(static_cast<U>(uval[i])));
          });
      return static_cast<Index>(std::popcount(m));
    };
    for (std::size_t wd = 0; wd < nwords; ++wd) nnz += word_kernel(wd);
  }
  masked_write_vector_dense(ctx, w, stage, nnz, probe, accum, desc.replace,
                            /*z_prefiltered=*/true);
}

}  // namespace detail

/// w<mask> accum= op(u), using `ctx`'s workspaces.
///
/// Applies `op` to every stored element of `u`; absent elements stay absent.
/// Mask/accum/descriptor behave per the standard write rule (see mask.hpp);
/// the mask probe is pushed down so `op` never runs at non-writable
/// positions.  A sparse mask holding fewer entries than u drives the
/// kernel instead (detail::try_mask_driven); otherwise a dense-
/// representation input takes the positional bitmap kernel
/// (detail::apply_vector_dense).  Results are bit-identical either way.
template <typename W, typename Mask, typename Accum, typename UnaryOp,
          typename U>
void apply(Context& ctx, Vector<W>& w, const Mask& mask, const Accum& accum,
           UnaryOp op, const Vector<U>& u,
           const Descriptor& desc = default_desc) {
  detail::check_size_match(w.size(), u.size(), "apply: w vs u");

  using Z = decltype(op(std::declval<U>()));
  detail::with_vector_probe(mask, desc, w.size(), [&](const auto& probe) {
    detail::AscendingReader<U> ur(u);
    auto emit = [&](Index i, auto& zi, auto& zv) {
      if (const auto* x = ur.find(i)) {
        zi.push_back(i);
        zv.push_back(static_cast<storage_of_t<Z>>(op(static_cast<U>(*x))));
      }
    };
    if (detail::try_mask_driven<Z>(ctx, w, probe, accum, desc.replace,
                                   u.nvals(), emit)) {
      return;
    }
    if (u.is_dense()) {
      // Output structure is u ∧ mask, so when the estimated output density
      // falls below the crossover the compacted kernel replaces the dense
      // stage (see dense_compact.hpp); results are bit-identical.
      if constexpr (!std::is_same_v<std::decay_t<decltype(probe)>,
                                    detail::AlwaysFalseProbe>) {
        if (detail::dense_output_prefers_compaction(
                ctx, u, [&](Index i) { return probe(i); })) {
          auto uval = u.dense_values();
          Vector<Z> z(u.size());
          detail::compact_dense_to_sparse(
              z, u, probe, [](Index) { return true; },
              [&](Index i) {
                return static_cast<storage_of_t<Z>>(
                    op(static_cast<U>(uval[i])));
              });
          detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                      desc.replace,
                                      /*z_prefiltered=*/true);
          return;
        }
      }
      detail::apply_vector_dense(ctx, w, probe, accum, op, u, desc);
      return;
    }
    Vector<Z> z(u.size());
    auto& zi = z.mutable_indices();
    auto& zv = z.mutable_values();
    auto ui = u.indices();
    auto uv = u.values();
    const std::size_t nu = ui.size();
    if constexpr (std::is_same_v<std::decay_t<decltype(probe)>,
                                 detail::AlwaysTrueProbe>) {
      // Unmasked fast path: bulk-copy the structure, transform the values.
      zi.assign(ui.begin(), ui.end());
      zv.reserve(nu);
      for (const auto& x : uv) {
        zv.push_back(static_cast<storage_of_t<Z>>(op(static_cast<U>(x))));
      }
    } else {
      zi.reserve(nu);
      zv.reserve(nu);
      u.for_each([&](Index i, const U& x) {
        if (!probe(i)) return;  // mask push-down
        zi.push_back(i);
        zv.push_back(static_cast<storage_of_t<Z>>(op(x)));
      });
    }
    detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                desc.replace,
                                /*z_prefiltered=*/true);
  });
}

/// Legacy signature: runs on the thread-local default context.
template <typename W, typename Mask, typename Accum, typename UnaryOp,
          typename U>
void apply(Vector<W>& w, const Mask& mask, const Accum& accum, UnaryOp op,
           const Vector<U>& u, const Descriptor& desc = default_desc) {
  apply(default_context(), w, mask, accum, op, u, desc);
}

/// Unmasked, non-accumulating convenience overloads.
template <typename W, typename UnaryOp, typename U>
void apply(Context& ctx, Vector<W>& w, UnaryOp op, const Vector<U>& u,
           const Descriptor& desc = default_desc) {
  apply(ctx, w, NoMask{}, NoAccumulate{}, op, u, desc);
}

template <typename W, typename UnaryOp, typename U>
void apply(Vector<W>& w, UnaryOp op, const Vector<U>& u,
           const Descriptor& desc = default_desc) {
  apply(default_context(), w, NoMask{}, NoAccumulate{}, op, u, desc);
}

/// C<Mask> accum= op(A)     (with optional transpose of A via desc)
template <typename C, typename Mask, typename Accum, typename UnaryOp,
          typename A>
void apply(Matrix<C>& c, const Mask& mask, const Accum& accum, UnaryOp op,
           const Matrix<A>& a, const Descriptor& desc = default_desc) {
  const Matrix<A>* src = desc.transpose_in0 ? &a.transpose_cached() : &a;
  detail::check_size_match(c.nrows(), src->nrows(), "apply: C rows vs A rows");
  detail::check_size_match(c.ncols(), src->ncols(), "apply: C cols vs A cols");

  using Z = decltype(op(std::declval<A>()));
  Matrix<Z> z(src->nrows(), src->ncols());
  std::vector<Index> zptr(src->row_ptr().begin(), src->row_ptr().end());
  std::vector<Index> zind(src->col_ind().begin(), src->col_ind().end());
  std::vector<storage_of_t<Z>> zval;
  zval.reserve(src->nvals());
  for (const auto& x : src->raw_values()) {
    zval.push_back(static_cast<storage_of_t<Z>>(op(static_cast<A>(x))));
  }
  z.adopt(std::move(zptr), std::move(zind), std::move(zval));

  detail::write_matrix_result(c, std::move(z), mask, accum, desc);
}

/// Unmasked, non-accumulating convenience overload (matrix).
template <typename C, typename UnaryOp, typename A>
void apply(Matrix<C>& c, UnaryOp op, const Matrix<A>& a,
           const Descriptor& desc = default_desc) {
  apply(c, NoMask{}, NoAccumulate{}, op, a, desc);
}

}  // namespace grb
