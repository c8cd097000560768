// dense_compact.hpp — the dense-*output* decision for point-wise kernels
// over dense-representation inputs, and the compacted kernel it selects.
//
// A dense-input select/apply can stage its result two ways:
//
//   - dense stage: positional sweep writing a word-packed bitmap + value
//     array, then the dense write phase.  Cost is O(n/64) word traffic no
//     matter how few entries survive — unbeatable for dense outputs, pure
//     overhead for thin ones.
//   - compacted: ctz-walk the input bitmap and push surviving (index,
//     value) pairs straight into sorted-coordinate form, then the sparse
//     write phase.  Cost is O(survivors) plus the word walk.
//
// The crossover sits near 40% *output* density (measured on the
// select_range row of the spmspv_pointwise bench: below that, compaction
// wins; Context::dense_output_crossover holds the knob).  Output density
// is input density times filter selectivity; selectivity is estimated by
// sampling a few hundred stored entries.  Both paths produce bit-identical
// logical results — the choice moves time, never values.
#pragma once

#include <algorithm>
#include <cstddef>

#include "graphblas/bitmap.hpp"
#include "graphblas/context.hpp"
#include "graphblas/mask.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb::detail {

/// Estimated fraction of u's stored entries that pass `keep(i)`, from up to
/// ~256 samples spread evenly over the bitmap words.  Within each sampled
/// word the probed bit *rotates* (the first set bit at or cyclically after
/// sample-counter mod 64): probing a fixed intra-word position — e.g.
/// always the first set bit — skews the estimate whenever keep-probability
/// correlates with i mod 64, which structured inputs (grids, strided
/// frontiers) routinely produce.  Deterministic — fixed stride, no RNG —
/// so repeated runs take the same kernel path.  `u` must be in the dense
/// representation.
template <typename U, typename Keep>
double sampled_keep_fraction(const Vector<U>& u, const Keep& keep) {
  auto ubit = u.dense_bitmap();
  const std::size_t nwords = ubit.size();
  if (nwords == 0 || u.nvals() == 0) return 0.0;
  constexpr std::size_t kTargetSamples = 256;
  const std::size_t stride = std::max<std::size_t>(1, nwords / kTargetSamples);
  std::size_t samples = 0, hits = 0, probe = 0;
  for (std::size_t wd = 0; wd < nwords; wd += stride, ++probe) {
    const BitmapWord word = ubit[wd];
    if (word == 0) continue;
    // First set bit at or cyclically after the rotating start offset.
    const int start = static_cast<int>(probe % kBitmapWordBits);
    const int off =
        (start + std::countr_zero(std::rotr(word, start))) %
        static_cast<int>(kBitmapWordBits);
    const Index i = static_cast<Index>(wd) * kBitmapWordBits +
                    static_cast<Index>(off);
    ++samples;
    if (keep(i)) ++hits;
  }
  if (samples == 0) return 1.0;
  return static_cast<double>(hits) / static_cast<double>(samples);
}

/// True when the estimated output density (input density x sampled keep
/// rate) falls below the Context's dense-output crossover, i.e. when the
/// compacted kernel should replace the dense stage.
template <typename U, typename Keep>
bool dense_output_prefers_compaction(const Context& ctx, const Vector<U>& u,
                                     const Keep& keep) {
  if (ctx.dense_output_crossover <= 0.0) return false;
  if (ctx.dense_output_crossover >= 1.0) return true;
  const double est = u.density() * sampled_keep_fraction(u, keep);
  return est < ctx.dense_output_crossover;
}

/// Compacted kernel: z (sparse, empty) receives the entries of dense-
/// representation u that pass the pushed-down probe and `keep(i)`, with
/// values produced by `emit(i)`.  Walks the bitmap word-at-a-time (zero
/// words skipped outright, probe applied via probe_writable_word) and
/// ctz-iterates survivors.
template <typename Z, typename Probe, typename U, typename Keep,
          typename Emit>
void compact_dense_to_sparse(Vector<Z>& z, const Vector<U>& u,
                             const Probe& probe, const Keep& keep,
                             const Emit& emit) {
  auto ubit = u.dense_bitmap();
  const std::size_t nwords = ubit.size();
  auto& zi = z.mutable_indices();
  auto& zv = z.mutable_values();

  // Survivor word: input presence AND probe AND per-entry keep.
  auto survivors = [&](std::size_t wd) {
    BitmapWord m = ubit[wd];
    if (m == 0) return m;
    m &= probe_writable_word(probe, wd, m);
    BitmapWord out = 0;
    bitmap_for_each_in_word(m,
                            static_cast<Index>(wd) * kBitmapWordBits,
                            [&](Index i) {
                              if (keep(i)) out |= BitmapWord{1} << (i & 63);
                            });
    return out;
  };

  zi.reserve(static_cast<std::size_t>(u.nvals()));
  zv.reserve(static_cast<std::size_t>(u.nvals()));
  for (std::size_t wd = 0; wd < nwords; ++wd) {
    bitmap_for_each_in_word(survivors(wd),
                            static_cast<Index>(wd) * kBitmapWordBits,
                            [&](Index i) {
                              zi.push_back(i);
                              zv.push_back(emit(i));
                            });
  }
}

}  // namespace grb::detail
