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
#include "graphblas/matrix.hpp"
#include "graphblas/operations/dense_compact.hpp"
#include "graphblas/operations/pointwise_parallel.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

namespace detail {

/// Dense-representation select kernel: the filter is a word-packed bitmap
/// AND — zero words skipped whole, the mask probe applied 64 lanes at a
/// time via probe_writable_word, the predicate run only at candidate bits
/// (ctz iteration) — staging a dense result, no compaction, no index
/// arrays.  Parallelizes over contiguous word ranges (one writer per
/// word), bit-identical to serial for any thread count.
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
#if defined(DSG_HAVE_OPENMP)
    if (n >= ctx.pointwise_parallel_threshold && omp_get_max_threads() > 1) {
      std::int64_t count = 0;
#pragma omp parallel for schedule(static) reduction(+ : count)
      for (std::ptrdiff_t pw = 0; pw < static_cast<std::ptrdiff_t>(nwords);
           ++pw) {
        count += static_cast<std::int64_t>(
            word_kernel(static_cast<std::size_t>(pw)));
      }
      nnz = static_cast<Index>(count);
      masked_write_vector_dense(ctx, w, stage, nnz, probe, accum,
                                desc.replace, /*z_prefiltered=*/true);
      return;
    }
#endif  // DSG_HAVE_OPENMP
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
          detail::compact_dense_to_sparse(ctx, z, u, probe, keep,
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
#if defined(DSG_HAVE_OPENMP)
    // Parallel two-pass kernel (bit-identical to serial; see
    // pointwise_parallel.hpp) once the input clears the Context threshold.
    auto ui = u.indices();
    auto uv = u.values();
    const std::size_t nu = ui.size();
    if (nu >= static_cast<std::size_t>(ctx.pointwise_parallel_threshold) &&
        omp_get_max_threads() > 1) {
      const int chunks = detail::pointwise_chunks(nu);
      auto keep = [&](std::size_t k) {
        return probe(ui[k]) && pred(static_cast<U>(uv[k]), ui[k]);
      };
      detail::parallel_chunked_compact(
          chunks,
          [&](int t) {
            const auto [b, e] = detail::chunk_range(nu, t, chunks);
            std::size_t count = 0;
            for (std::size_t k = b; k < e; ++k) {
              if (keep(k)) ++count;
            }
            return count;
          },
          [&](std::size_t total) {
            zi.resize(total);
            zv.resize(total);
          },
          [&](int t, std::size_t off) {
            const auto [b, e] = detail::chunk_range(nu, t, chunks);
            for (std::size_t k = b; k < e; ++k) {
              if (!keep(k)) continue;
              zi[off] = ui[k];
              zv[off] = uv[k];
              ++off;
            }
          });
      detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                  desc.replace,
                                  /*z_prefiltered=*/true);
      return;
    }
#endif  // DSG_HAVE_OPENMP
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

/// C<Mask> accum= select(pred, A): keeps A's entries where
/// pred(value, row, col) holds.
template <typename C, typename Mask, typename Accum, typename Pred,
          typename A>
  requires MatrixSelectOpFor<Pred, A>
void select(Matrix<C>& c, const Mask& mask, const Accum& accum, Pred pred,
            const Matrix<A>& a, const Descriptor& desc = default_desc) {
  const Matrix<A>* pa = desc.transpose_in0 ? &a.transpose_cached() : &a;
  detail::check_size_match(c.nrows(), pa->nrows(), "select: C vs A rows");
  detail::check_size_match(c.ncols(), pa->ncols(), "select: C vs A cols");

  Matrix<A> z(pa->nrows(), pa->ncols());
  std::vector<Index> zptr(pa->nrows() + 1, 0);
  std::vector<Index> zind;
  std::vector<storage_of_t<A>> zval;
  for (Index r = 0; r < pa->nrows(); ++r) {
    auto cols = pa->row_indices(r);
    auto vals = pa->row_values(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (pred(static_cast<A>(vals[k]), r, cols[k])) {
        zind.push_back(cols[k]);
        zval.push_back(vals[k]);
      }
    }
    zptr[r + 1] = static_cast<Index>(zind.size());
  }
  z.adopt(std::move(zptr), std::move(zind), std::move(zval));
  detail::write_matrix_result(c, std::move(z), mask, accum, desc);
}

/// Value-only predicate convenience (matrix).
template <typename C, typename Pred, typename A>
  requires UnaryOpFor<Pred, A> && (!MatrixSelectOpFor<Pred, A>)
void select(Matrix<C>& c, Pred pred, const Matrix<A>& a,
            const Descriptor& desc = default_desc) {
  select(
      c, NoMask{}, NoAccumulate{},
      [&pred](const A& x, Index, Index) { return static_cast<bool>(pred(x)); },
      a, desc);
}

/// Index-aware unmasked convenience overload (matrix).
template <typename C, typename Pred, typename A>
  requires MatrixSelectOpFor<Pred, A>
void select(Matrix<C>& c, Pred pred, const Matrix<A>& a,
            const Descriptor& desc = default_desc) {
  select(c, NoMask{}, NoAccumulate{}, pred, a, desc);
}

// --- Predefined index-aware predicates (GxB_TRIL / GxB_TRIU / diag). --------

/// Keeps entries strictly below the diagonal shifted by k: col < row + k.
struct TriLower {
  std::int64_t k = 0;
  template <typename T>
  bool operator()(const T&, Index r, Index c) const {
    return static_cast<std::int64_t>(c) <= static_cast<std::int64_t>(r) + k;
  }
};

/// Keeps entries on/above the shifted diagonal: col >= row + k.
struct TriUpper {
  std::int64_t k = 0;
  template <typename T>
  bool operator()(const T&, Index r, Index c) const {
    return static_cast<std::int64_t>(c) >= static_cast<std::int64_t>(r) + k;
  }
};

/// Keeps off-diagonal entries (removes self-loops).
struct OffDiagonal {
  template <typename T>
  bool operator()(const T&, Index r, Index c) const {
    return r != c;
  }
};

}  // namespace grb
