// select.hpp — GxB_select-style structural filtering: keep the stored
// elements satisfying an index-aware predicate.
//
// select() is the *fused* alternative to the paper's double-apply filter
// idiom: one pass instead of "apply predicate -> boolean object -> apply
// identity under mask".  bench_baselines contrasts the two end to end
// (its graphblas vs graphblas_select columns).
#pragma once

#include <vector>

#include "graphblas/bitmap.hpp"
#include "graphblas/descriptor.hpp"
#include "graphblas/mask.hpp"
#include "graphblas/operations/dense_compact.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

namespace detail {

/// Dense-representation select kernel: the filter is a word-packed bitmap
/// AND — zero words skipped whole, the mask probe applied 64 lanes at a
/// time via probe_writable_word, the predicate run only at candidate bits
/// (ctz iteration) — staging a dense result, no compaction, no index
/// arrays.
template <typename W, typename Probe, typename Accum, typename Pred,
          typename U>
void select_vector_dense(Context& ctx, Vector<W>& w, const Probe& probe,
                         const Accum& accum, Pred pred, const Vector<U>& u,
                         const Descriptor& desc) {
  const Index n = u.size();
  auto& stage = ctx.get<DenseKernelStage<U>>();
  stage.reset(n);
  Index nnz = 0;
  if constexpr (!std::is_same_v<Probe, AlwaysFalseProbe>) {
    auto ubit = u.dense_bitmap();
    auto uval = u.dense_values();
    const std::size_t nwords = ubit.size();
    auto word_kernel = [&](std::size_t wd) -> Index {
      const BitmapWord uw = ubit[wd];
      if (uw == 0) return 0;  // whole-word skip of empty regions
      const BitmapWord cand = uw & probe_writable_word(probe, wd, uw);
      if (cand == 0) return 0;
      BitmapWord m = 0;
      bitmap_for_each_in_word(
          cand, static_cast<Index>(wd) * kBitmapWordBits, [&](Index i) {
            if (pred(static_cast<U>(uval[i]), i)) {
              m |= BitmapWord{1} << (i & 63);
              stage.val[i] = uval[i];
            }
          });
      stage.bit[wd] = m;
      return static_cast<Index>(std::popcount(m));
    };
    for (std::size_t wd = 0; wd < nwords; ++wd) nnz += word_kernel(wd);
  }
  masked_write_vector_dense(ctx, w, stage, nnz, probe, accum, desc.replace,
                            /*z_prefiltered=*/true);
}

}  // namespace detail

/// w<mask> accum= select(pred, u):  w keeps u's entries where
/// pred(value, index) holds.  Uses `ctx`'s workspaces; the mask probe is
/// pushed down so masked-out entries are never tested or staged.  A sparse
/// mask holding fewer entries than u drives the kernel instead
/// (detail::try_mask_driven); otherwise a dense-representation input takes
/// the positional bitmap kernel.  Results are bit-identical either way.
template <typename W, typename Mask, typename Accum, typename Pred,
          typename U>
  requires VectorSelectOpFor<Pred, U>
void select(Context& ctx, Vector<W>& w, const Mask& mask, const Accum& accum,
            Pred pred, const Vector<U>& u,
            const Descriptor& desc = default_desc) {
  detail::check_size_match(w.size(), u.size(), "select: w vs u");

  detail::with_vector_probe(mask, desc, w.size(), [&](const auto& probe) {
    detail::AscendingReader<U> ur(u);
    auto emit = [&](Index i, auto& zi, auto& zv) {
      const auto* x = ur.find(i);
      if (x != nullptr && pred(static_cast<U>(*x), i)) {
        zi.push_back(i);
        zv.push_back(*x);
      }
    };
    if (detail::try_mask_driven<U>(ctx, w, probe, accum, desc.replace,
                                   u.nvals(), emit)) {
      return;
    }
    if (u.is_dense()) {
      // Low-selectivity filters (bucket extraction keeping a thin value
      // range) produce sparse outputs; below the crossover the compacted
      // kernel beats the dense stage (see dense_compact.hpp).  Results are
      // bit-identical either way.
      if constexpr (!std::is_same_v<std::decay_t<decltype(probe)>,
                                    detail::AlwaysFalseProbe>) {
        auto uval = u.dense_values();
        auto keep = [&](Index i) {
          return pred(static_cast<U>(uval[i]), i);
        };
        if (detail::dense_output_prefers_compaction(
                ctx, u, [&](Index i) { return probe(i) && keep(i); })) {
          Vector<U> z(u.size());
          detail::compact_dense_to_sparse(z, u, probe, keep,
                                          [&](Index i) { return uval[i]; });
          detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                      desc.replace,
                                      /*z_prefiltered=*/true);
          return;
        }
      }
      detail::select_vector_dense(ctx, w, probe, accum, pred, u, desc);
      return;
    }
    Vector<U> z(u.size());
    auto& zi = z.mutable_indices();
    auto& zv = z.mutable_values();
    u.for_each([&](Index i, const U& x) {
      if (probe(i) && pred(x, i)) {
        zi.push_back(i);
        zv.push_back(x);
      }
    });
    detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                desc.replace,
                                /*z_prefiltered=*/true);
  });
}

/// Legacy signature: runs on the thread-local default context.
template <typename W, typename Mask, typename Accum, typename Pred,
          typename U>
  requires VectorSelectOpFor<Pred, U>
void select(Vector<W>& w, const Mask& mask, const Accum& accum, Pred pred,
            const Vector<U>& u, const Descriptor& desc = default_desc) {
  select(default_context(), w, mask, accum, pred, u, desc);
}

/// Value-only predicate convenience: wraps pred(value) into pred(value, i).
template <typename W, typename Pred, typename U>
  requires UnaryOpFor<Pred, U> && (!VectorSelectOpFor<Pred, U>)
void select(Context& ctx, Vector<W>& w, Pred pred, const Vector<U>& u,
            const Descriptor& desc = default_desc) {
  select(
      ctx, w, NoMask{}, NoAccumulate{},
      [&pred](const U& x, Index) { return static_cast<bool>(pred(x)); }, u,
      desc);
}

template <typename W, typename Pred, typename U>
  requires UnaryOpFor<Pred, U> && (!VectorSelectOpFor<Pred, U>)
void select(Vector<W>& w, Pred pred, const Vector<U>& u,
            const Descriptor& desc = default_desc) {
  select(default_context(), w, pred, u, desc);
}

/// Index-aware unmasked convenience overloads.
template <typename W, typename Pred, typename U>
  requires VectorSelectOpFor<Pred, U>
void select(Context& ctx, Vector<W>& w, Pred pred, const Vector<U>& u,
            const Descriptor& desc = default_desc) {
  select(ctx, w, NoMask{}, NoAccumulate{}, pred, u, desc);
}

template <typename W, typename Pred, typename U>
  requires VectorSelectOpFor<Pred, U>
void select(Vector<W>& w, Pred pred, const Vector<U>& u,
            const Descriptor& desc = default_desc) {
  select(default_context(), w, NoMask{}, NoAccumulate{}, pred, u, desc);
}

}  // namespace grb
