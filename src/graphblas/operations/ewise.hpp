// ewise.hpp — GrB_eWiseAdd and GrB_eWiseMult.
//
// eWiseAdd operates on the *union* of the input structures: where both
// operands are present the binary op combines them; where only one is
// present, that value passes through unchanged.  This pass-through is
// exactly the non-commutative-operator pitfall the paper analyses in
// Sec. V-B: computing the filter (tReq < t) with eWiseAdd(LT) returns t's
// value (truthy!) wherever tReq is absent, so the algorithm must apply tReq
// as a mask.  We implement the standard behaviour faithfully and unit-test
// the pitfall.
//
// eWiseMult operates on the *intersection*: output has entries only where
// both inputs do.
#pragma once

#include <bit>
#include <span>

#include "graphblas/bitmap.hpp"
#include "graphblas/descriptor.hpp"
#include "graphblas/mask.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

namespace detail {

/// In-place dense union: w aliases u, u is dense, every position writable,
/// no accumulator.  Then `w = u ⊕ v` collapses to scattering v's entries
/// into w's word-packed dense arrays — O(nnz(v)) instead of an
/// O(nnz(u) + nnz(v)) sorted merge.  This is the delta-stepping relaxation
/// `t = min(t, tReq)` once t has gone dense: cost proportional to the
/// request vector, not to the distance vector.
template <typename W, typename BinaryOp, typename V>
void ewise_add_dense_inplace(Vector<W>& w, BinaryOp op, const Vector<V>& v) {
  auto& bit = w.mutable_dense_bitmap();
  auto& val = w.mutable_dense_values();
  Index nnz = w.nvals();
  v.for_each([&](Index i, const V& x) {
    if (bitmap_test(bit.data(), i)) {
      val[i] = static_cast<storage_of_t<W>>(op(static_cast<W>(val[i]), x));
    } else {
      bitmap_set(bit.data(), i);
      val[i] = static_cast<storage_of_t<W>>(static_cast<W>(x));
      ++nnz;
    }
  });
  w.set_dense_nvals(nnz);
}

/// Dense union kernel: at least one operand is in the dense representation.
/// One pass over the bitmap words with the mask pushed down 64 lanes at a
/// time; a sparse operand's presence word is assembled from its sorted
/// entries as the cursor crosses each word, so words where neither side
/// stores anything cost two loads.  Fills `stage` and returns the stored
/// count.
template <typename Z, typename Probe, typename BinaryOp, typename U,
          typename V>
Index ewise_add_dense_kernel(DenseKernelStage<Z>& stage, const Probe& probe,
                             BinaryOp op, const Vector<U>& u,
                             const Vector<V>& v) {
  const Index n = u.size();
  if constexpr (std::is_same_v<Probe, AlwaysFalseProbe>) {
    (void)op;
    (void)n;
    return 0;
  } else {
    const bool ud = u.is_dense();
    const bool vd = v.is_dense();
    auto ub = ud ? u.dense_bitmap() : std::span<const BitmapWord>{};
    auto udv = ud ? u.dense_values()
                  : std::span<const storage_of_t<U>>{};
    auto ui = ud ? std::span<const Index>{} : u.indices();
    auto usv = ud ? std::span<const storage_of_t<U>>{} : u.values();
    auto vb = vd ? v.dense_bitmap() : std::span<const BitmapWord>{};
    auto vdv = vd ? v.dense_values()
                  : std::span<const storage_of_t<V>>{};
    auto vi = vd ? std::span<const Index>{} : v.indices();
    auto vsv = vd ? std::span<const storage_of_t<V>>{} : v.values();
    const std::size_t nwords = bitmap_words(n);

    // Sparse-side cursors: a and b sit at the first entry of the current
    // word.
    std::size_t a = 0, b = 0;
    Index nnz = 0;
    for (std::size_t wd = 0; wd < nwords; ++wd) {
      const Index base = static_cast<Index>(wd) * kBitmapWordBits;
      const Index bound = base + kBitmapWordBits;
      BitmapWord uwp;
      const std::size_t a0 = a;
      if (ud) {
        uwp = ub[wd];
      } else {
        uwp = 0;
        while (a < ui.size() && ui[a] < bound) {
          uwp |= BitmapWord{1} << (ui[a] & 63);
          ++a;
        }
      }
      BitmapWord vwp;
      const std::size_t b0 = b;
      if (vd) {
        vwp = vb[wd];
      } else {
        vwp = 0;
        while (b < vi.size() && vi[b] < bound) {
          vwp |= BitmapWord{1} << (vi[b] & 63);
          ++b;
        }
      }
      const BitmapWord cand = uwp | vwp;
      if (cand == 0) continue;  // whole-word skip of empty regions
      const BitmapWord m = cand & probe_writable_word(probe, wd, cand);
      if (m == 0) continue;
      stage.bit[wd] = m;
      nnz += static_cast<Index>(std::popcount(m));
      // Values by side, each a whole-word split of m: both-lanes combine,
      // one-sided lanes of a dense operand are copied by ctz walk, and a
      // sparse operand rides its [·0, ·) entry range once.
      const BitmapWord both = m & uwp & vwp;
      const BitmapWord uonly = m & uwp & ~vwp;
      const BitmapWord vonly = m & vwp & ~uwp;
      auto put = [&](Index i, const auto& x) {
        stage.val[i] = static_cast<storage_of_t<Z>>(static_cast<Z>(x));
      };
      if (ud && vd) {
        bitmap_for_each_in_word(
            both, base, [&](Index i) { put(i, op(udv[i], vdv[i])); });
      } else if (ud) {
        for (std::size_t k = b0; k < b; ++k) {
          const Index i = vi[k];
          const BitmapWord lane = BitmapWord{1} << (i & 63);
          if (both & lane) {
            put(i, op(udv[i], vsv[k]));
          } else if (vonly & lane) {
            put(i, vsv[k]);
          }
        }
      } else {
        for (std::size_t k = a0; k < a; ++k) {
          const Index i = ui[k];
          const BitmapWord lane = BitmapWord{1} << (i & 63);
          if (both & lane) {
            put(i, op(usv[k], vdv[i]));
          } else if (uonly & lane) {
            put(i, usv[k]);
          }
        }
      }
      if (ud) {
        bitmap_for_each_in_word(uonly, base,
                                [&](Index i) { put(i, udv[i]); });
      }
      if (vd) {
        bitmap_for_each_in_word(vonly, base,
                                [&](Index i) { put(i, vdv[i]); });
      }
    }
    return nnz;
  }
}

}  // namespace detail

/// w<mask> accum= u (+op) v  — union (eWiseAdd) on vectors, using `ctx`'s
/// workspaces.  The mask probe is pushed down into the merge: positions the
/// mask makes non-writable are never combined or staged.  A sparse mask
/// holding fewer entries than the merge would walk (nvals(u) + nvals(v))
/// drives the kernel instead (detail::try_mask_driven).  Dense-
/// representation operands take positional bitmap kernels; when w aliases u
/// and u is dense (the relaxation `t = min(t, tReq)`), the update happens
/// in place at O(nnz(v)).  Results are bit-identical across
/// representations.
template <typename W, typename Mask, typename Accum, typename BinaryOp,
          typename U, typename V>
void ewise_add(Context& ctx, Vector<W>& w, const Mask& mask,
               const Accum& accum, BinaryOp op, const Vector<U>& u,
               const Vector<V>& v, const Descriptor& desc = default_desc) {
  detail::check_size_match(u.size(), v.size(), "ewise_add: u vs v");
  detail::check_size_match(w.size(), u.size(), "ewise_add: w vs u");

  using Z = std::common_type_t<decltype(op(std::declval<U>(), std::declval<V>())), U, V>;
  detail::with_vector_probe(mask, desc, w.size(), [&](const auto& probe) {
    if constexpr (std::is_same_v<W, U> && std::is_same_v<Z, W> &&
                  std::is_same_v<std::decay_t<decltype(probe)>,
                                 detail::AlwaysTrueProbe> &&
                  detail::is_no_accum_v<Accum>) {
      // w := u ⊕ v with w aliasing a dense u: scatter v in place, O(nnz(v)).
      if (static_cast<const void*>(&w) == static_cast<const void*>(&u) &&
          w.is_dense()) {
        detail::ewise_add_dense_inplace(w, op, v);
        ++ctx.dense_writes;  // w stays dense: count it like a dense write
        return;
      }
    }
    detail::AscendingReader<U> ur(u);
    detail::AscendingReader<V> vr(v);
    auto emit = [&](Index i, auto& zi, auto& zv) {
      const auto* x = ur.find(i);
      const auto* y = vr.find(i);
      if (x != nullptr && y != nullptr) {
        zi.push_back(i);
        zv.push_back(static_cast<Z>(op(*x, *y)));
      } else if (x != nullptr) {
        zi.push_back(i);
        zv.push_back(static_cast<Z>(*x));  // lone operand passes through
      } else if (y != nullptr) {
        zi.push_back(i);
        zv.push_back(static_cast<Z>(*y));
      }
    };
    if (detail::try_mask_driven<Z>(ctx, w, probe, accum, desc.replace,
                                   u.nvals() + v.nvals(), emit)) {
      return;
    }
    if (u.is_dense() || v.is_dense()) {
      auto& stage = ctx.get<detail::DenseKernelStage<Z>>();
      stage.reset(u.size());
      const Index nnz =
          detail::ewise_add_dense_kernel(stage, probe, op, u, v);
      detail::masked_write_vector_dense(ctx, w, stage, nnz, probe, accum,
                                        desc.replace, /*z_prefiltered=*/true);
      return;
    }
    Vector<Z> z(u.size());
    auto& zi = z.mutable_indices();
    auto& zv = z.mutable_values();
    zi.reserve(u.nvals() + v.nvals());
    zv.reserve(u.nvals() + v.nvals());

    auto ui = u.indices();
    auto uv = u.values();
    auto vi = v.indices();
    auto vv = v.values();
    std::size_t a = 0, b = 0;
    while (a < ui.size() || b < vi.size()) {
      if (a < ui.size() && (b >= vi.size() || ui[a] < vi[b])) {
        if (probe(ui[a])) {
          zi.push_back(ui[a]);
          zv.push_back(static_cast<Z>(uv[a]));  // lone operand passes through
        }
        ++a;
      } else if (b < vi.size() && (a >= ui.size() || vi[b] < ui[a])) {
        if (probe(vi[b])) {
          zi.push_back(vi[b]);
          zv.push_back(static_cast<Z>(vv[b]));
        }
        ++b;
      } else {
        if (probe(ui[a])) {
          zi.push_back(ui[a]);
          zv.push_back(static_cast<Z>(op(uv[a], vv[b])));
        }
        ++a;
        ++b;
      }
    }
    detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                desc.replace,
                                /*z_prefiltered=*/true);
  });
}

/// Legacy signature: runs on the thread-local default context.
template <typename W, typename Mask, typename Accum, typename BinaryOp,
          typename U, typename V>
void ewise_add(Vector<W>& w, const Mask& mask, const Accum& accum,
               BinaryOp op, const Vector<U>& u, const Vector<V>& v,
               const Descriptor& desc = default_desc) {
  ewise_add(default_context(), w, mask, accum, op, u, v, desc);
}

/// Unmasked, non-accumulating convenience overloads.
template <typename W, typename BinaryOp, typename U, typename V>
void ewise_add(Context& ctx, Vector<W>& w, BinaryOp op, const Vector<U>& u,
               const Vector<V>& v, const Descriptor& desc = default_desc) {
  ewise_add(ctx, w, NoMask{}, NoAccumulate{}, op, u, v, desc);
}

template <typename W, typename BinaryOp, typename U, typename V>
void ewise_add(Vector<W>& w, BinaryOp op, const Vector<U>& u,
               const Vector<V>& v, const Descriptor& desc = default_desc) {
  ewise_add(default_context(), w, NoMask{}, NoAccumulate{}, op, u, v, desc);
}

namespace detail {

/// Both-dense intersection kernel: one whole-word bitmap AND per 64
/// positions into `stage`, op run only at surviving bits (ctz iteration).
template <typename Z, typename Probe, typename BinaryOp, typename U,
          typename V>
Index ewise_mult_dense_kernel(DenseKernelStage<Z>& stage, const Probe& probe,
                              BinaryOp op, const Vector<U>& u,
                              const Vector<V>& v) {
  Index nnz = 0;
  if constexpr (std::is_same_v<Probe, AlwaysFalseProbe>) {
    (void)op;
    return 0;
  } else {
    auto ub = u.dense_bitmap();
    auto uv = u.dense_values();
    auto vb = v.dense_bitmap();
    auto vv = v.dense_values();
    const std::size_t nwords = ub.size();
    auto word_kernel = [&](std::size_t wd) -> Index {
      const BitmapWord cand = ub[wd] & vb[wd];  // bulk word AND
      if (cand == 0) return 0;
      const BitmapWord m = cand & probe_writable_word(probe, wd, cand);
      if (m == 0) return 0;
      stage.bit[wd] = m;
      bitmap_for_each_in_word(
          m, static_cast<Index>(wd) * kBitmapWordBits,
          [&](Index i) { stage.val[i] = op(uv[i], vv[i]); });
      return static_cast<Index>(std::popcount(m));
    };
    for (std::size_t wd = 0; wd < nwords; ++wd) nnz += word_kernel(wd);
    return nnz;
  }
}

}  // namespace detail

/// w<mask> accum= u (.op) v  — intersection (eWiseMult) on vectors, using
/// `ctx`'s workspaces, with the mask pushed down into the merge.  A sparse
/// mask holding fewer entries than the kernels below would walk drives the
/// kernel instead (detail::try_mask_driven).  Both operands dense:
/// positional bitmap-AND kernel.  Exactly one dense: the sparse side is
/// walked and the dense side probed O(1) per entry, so the intersection
/// costs O(nnz(sparse side)) — no merge over the dense operand at all.
/// Results are bit-identical across representations.
template <typename W, typename Mask, typename Accum, typename BinaryOp,
          typename U, typename V>
void ewise_mult(Context& ctx, Vector<W>& w, const Mask& mask,
                const Accum& accum, BinaryOp op, const Vector<U>& u,
                const Vector<V>& v, const Descriptor& desc = default_desc) {
  detail::check_size_match(u.size(), v.size(), "ewise_mult: u vs v");
  detail::check_size_match(w.size(), u.size(), "ewise_mult: w vs u");

  using Z = decltype(op(std::declval<U>(), std::declval<V>()));
  detail::with_vector_probe(mask, desc, w.size(), [&](const auto& probe) {
    // The input-driven kernels walk the sparse side against a dense one,
    // both streams otherwise.
    Index walk = u.nvals() + v.nvals();
    if (u.is_dense() != v.is_dense()) {
      walk = u.is_dense() ? v.nvals() : u.nvals();
    }
    detail::AscendingReader<U> ur(u);
    detail::AscendingReader<V> vr(v);
    auto emit = [&](Index i, auto& zi, auto& zv) {
      const auto* x = ur.find(i);
      const auto* y = vr.find(i);
      if (x != nullptr && y != nullptr) {
        zi.push_back(i);
        zv.push_back(op(*x, *y));
      }
    };
    if (detail::try_mask_driven<Z>(ctx, w, probe, accum, desc.replace, walk,
                                   emit)) {
      return;
    }
    if (u.is_dense() && v.is_dense()) {
      auto& stage = ctx.get<detail::DenseKernelStage<Z>>();
      stage.reset(u.size());
      const Index nnz =
          detail::ewise_mult_dense_kernel(stage, probe, op, u, v);
      detail::masked_write_vector_dense(ctx, w, stage, nnz, probe, accum,
                                        desc.replace, /*z_prefiltered=*/true);
      return;
    }
    if (u.is_dense() != v.is_dense()) {
      // Walk the sparse side, probe the dense side's bitmap.
      Vector<Z> z(u.size());
      auto& zi = z.mutable_indices();
      auto& zv = z.mutable_values();
      if (u.is_dense()) {
        auto ub = u.dense_bitmap();
        auto uv = u.dense_values();
        auto vi = v.indices();
        auto vv = v.values();
        for (std::size_t k = 0; k < vi.size(); ++k) {
          const Index i = vi[k];
          if (detail::bitmap_test(ub.data(), i) && probe(i)) {
            zi.push_back(i);
            zv.push_back(op(uv[i], vv[k]));
          }
        }
      } else {
        auto vb = v.dense_bitmap();
        auto vv = v.dense_values();
        auto ui = u.indices();
        auto uv = u.values();
        for (std::size_t k = 0; k < ui.size(); ++k) {
          const Index i = ui[k];
          if (detail::bitmap_test(vb.data(), i) && probe(i)) {
            zi.push_back(i);
            zv.push_back(op(uv[k], vv[i]));
          }
        }
      }
      detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                  desc.replace,
                                  /*z_prefiltered=*/true);
      return;
    }
    Vector<Z> z(u.size());
    auto& zi = z.mutable_indices();
    auto& zv = z.mutable_values();

    auto ui = u.indices();
    auto uv = u.values();
    auto vi = v.indices();
    auto vv = v.values();
    std::size_t a = 0, b = 0;
    while (a < ui.size() && b < vi.size()) {
      if (ui[a] < vi[b]) {
        ++a;
      } else if (vi[b] < ui[a]) {
        ++b;
      } else {
        if (probe(ui[a])) {
          zi.push_back(ui[a]);
          zv.push_back(op(uv[a], vv[b]));
        }
        ++a;
        ++b;
      }
    }
    detail::masked_write_vector(ctx, w, std::move(z), probe, accum,
                                desc.replace,
                                /*z_prefiltered=*/true);
  });
}

/// Legacy signature: runs on the thread-local default context.
template <typename W, typename Mask, typename Accum, typename BinaryOp,
          typename U, typename V>
void ewise_mult(Vector<W>& w, const Mask& mask, const Accum& accum,
                BinaryOp op, const Vector<U>& u, const Vector<V>& v,
                const Descriptor& desc = default_desc) {
  ewise_mult(default_context(), w, mask, accum, op, u, v, desc);
}

/// Unmasked, non-accumulating convenience overloads.
template <typename W, typename BinaryOp, typename U, typename V>
void ewise_mult(Context& ctx, Vector<W>& w, BinaryOp op, const Vector<U>& u,
                const Vector<V>& v, const Descriptor& desc = default_desc) {
  ewise_mult(ctx, w, NoMask{}, NoAccumulate{}, op, u, v, desc);
}

template <typename W, typename BinaryOp, typename U, typename V>
void ewise_mult(Vector<W>& w, BinaryOp op, const Vector<U>& u,
                const Vector<V>& v, const Descriptor& desc = default_desc) {
  ewise_mult(default_context(), w, NoMask{}, NoAccumulate{}, op, u, v, desc);
}

}  // namespace grb
