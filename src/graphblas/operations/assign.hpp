// assign.hpp — GrB_assign of a scalar into a vector under a mask:
// w<mask> = value.
//
// This is the "set membership" idiom of the select ablation: S<tB> = true
// marks every position of the bucket frontier in the processed set.
#pragma once

#include "graphblas/bitmap.hpp"
#include "graphblas/context.hpp"
#include "graphblas/descriptor.hpp"
#include "graphblas/mask.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

/// w<mask> = value, using `ctx`'s workspaces.  The computed result holds
/// `value` at every position; the standard write rule (see mask.hpp) then
/// decides what w keeps.  A plain sparse mask drives the kernel
/// (detail::try_mask_driven against an input walk of n), so the cost is
/// O(|mask|) rather than O(n).  Otherwise — a dense or all-stored mask, a
/// complemented mask, or no mask — one sweep over the bitmap words asks the
/// probe 64 positions at a time.
template <typename W, typename Mask, typename T>
void assign_scalar(Context& ctx, Vector<W>& w, const Mask& mask,
                   const T& value, const Descriptor& desc = default_desc) {
  const Index n = w.size();
  detail::with_vector_probe(mask, desc, n, [&](const auto& probe) {
    auto emit = [&](Index i, auto& zi, auto& zv) {
      zi.push_back(i);
      zv.push_back(value);
    };
    if (detail::try_mask_driven<T>(ctx, w, probe, NoAccumulate{},
                                   desc.replace, n, emit)) {
      return;
    }
    Vector<T> z(n);
    auto& zi = z.mutable_indices();
    auto& zv = z.mutable_values();
    const std::size_t nwords = detail::bitmap_words(n);
    for (std::size_t wd = 0; wd < nwords; ++wd) {
      const detail::BitmapWord lanes = wd + 1 == nwords
                                           ? detail::bitmap_tail_mask(n)
                                           : ~detail::BitmapWord{0};
      detail::bitmap_for_each_in_word(
          lanes & detail::probe_writable_word(probe, wd, lanes),
          static_cast<Index>(wd) * detail::kBitmapWordBits,
          [&](Index i) { emit(i, zi, zv); });
    }
    detail::masked_write_vector(ctx, w, std::move(z), probe, NoAccumulate{},
                                desc.replace, /*z_prefiltered=*/true);
  });
}

}  // namespace grb
