// mask.hpp — mask and accumulator handling shared by every GraphBLAS
// operation.
//
// Every GraphBLAS operation has the form
//     C<M, desc> accum= T
// where T is the computed result.  The write phase is:
//   1. Z = accum ? (C union-combined with T via accum) : T
//   2. for every position p:
//        mask true at p  -> C[p] = Z[p] (absent if Z absent)
//        mask false at p -> C[p] kept, or deleted when desc.replace
// A value mask tests presence *and* truthiness; a structural mask
// (desc.mask_structure) tests presence only; desc.mask_complement flips the
// test.  `NoMask` means "all positions writable" (complement: none).
#pragma once

#include <algorithm>
#include <bit>
#include <span>
#include <type_traits>
#include <vector>

#include "graphblas/bitmap.hpp"
#include "graphblas/context.hpp"
#include "graphblas/descriptor.hpp"
#include "graphblas/matrix.hpp"
#include "graphblas/types.hpp"
#include "graphblas/vector.hpp"

namespace grb {

/// Tag: operation runs unmasked (GrB_NULL mask).
struct NoMask {};

/// Tag: results assign rather than accumulate (GrB_NULL accum).
struct NoAccumulate {};

namespace detail {

template <typename Mask>
inline constexpr bool is_no_mask_v = std::is_same_v<std::decay_t<Mask>, NoMask>;

template <typename Accum>
inline constexpr bool is_no_accum_v =
    std::is_same_v<std::decay_t<Accum>, NoAccumulate>;

/// Truth word of 64 consecutive one-byte values: bit b is set iff p[b] is
/// nonzero.  Branch-free: each group of eight bytes is assembled low byte
/// first (an endian-neutral expression compilers fold into one 8-byte
/// load), every byte's nonzero test lands in its high bit (SWAR: adding
/// 0x7F carries into bit 7 unless the low seven bits are zero), and one
/// multiply gathers the eight high bits into a single byte.
inline BitmapWord pack_nonzero_bytes(const unsigned char* p) {
  constexpr BitmapWord kLow7 = 0x7F7F7F7F7F7F7F7FULL;
  constexpr BitmapWord kByteLsb = 0x0101010101010101ULL;
  constexpr BitmapWord kGather = 0x0102040810204080ULL;
  BitmapWord t = 0;
  for (int k = 0; k < 8; ++k, p += 8) {
    const BitmapWord x =
        BitmapWord{p[0]} | BitmapWord{p[1]} << 8 | BitmapWord{p[2]} << 16 |
        BitmapWord{p[3]} << 24 | BitmapWord{p[4]} << 32 |
        BitmapWord{p[5]} << 40 | BitmapWord{p[6]} << 48 |
        BitmapWord{p[7]} << 56;
    const BitmapWord flags = ((((x & kLow7) + kLow7) | x) >> 7) & kByteLsb;
    t |= ((flags * kGather) >> 56) << (8 * k);
  }
  return t;
}

/// Point query against a vector mask under descriptor flags.  Probing cost
/// depends on the mask's storage representation:
///   - dense (word-packed bitmap) representation: O(1) bit test per point
///     probe, and — through writable_word — one 64-lane word per bulk
///     probe: a structural mask is one load, a one-byte value mask (bool)
///     one branch-free pack of its 64 values;
///   - sparse with every position stored (the fully-populated boolean
///     filters of delta-stepping): direct subscript into the value array,
///     and the same value pack per bulk probe;
///   - sparse otherwise: binary search per probe.
template <typename MaskT>
class VectorMaskProbe {
 public:
  VectorMaskProbe(const Vector<MaskT>& mask, const Descriptor& desc)
      : mask_(&mask),
        complement_(desc.mask_complement),
        structural_(desc.mask_structure) {
    if (mask.is_dense()) {
      mode_ = Mode::kBitmap;
      bit_ = mask.dense_bitmap().data();
      val_ = mask.dense_values().data();
    } else if (mask.nvals() == mask.size()) {
      mode_ = Mode::kAllStored;
      val_ = mask.values().data();
    } else {
      mode_ = Mode::kSearch;
    }
  }

  bool operator()(Index i) const {
    return complement_ ? !raw(i) : raw(i);
  }

  /// The mask-driven dispatch rule: a plain (non-complemented) sparse mask
  /// that binary-searches per probe, and stores fewer entries than the
  /// `walk` input entries the input-driven kernel would visit, is cheaper
  /// to iterate than to probe.
  bool drives(Index walk) const {
    return mode_ == Mode::kSearch && !complement_ && mask_->nvals() < walk;
  }

  /// Invokes f(i) at every writable position, ascending: the mask's stored
  /// entries, minus the stored-falsy ones under a value mask.  Only valid
  /// when drives() holds (sparse storage, no complement).
  template <typename F>
  void for_each_writable(F&& f) const {
    auto mi = mask_->indices();
    auto mv = mask_->values();
    for (std::size_t k = 0; k < mi.size(); ++k) {
      if (structural_ || mv[k] != storage_of_t<MaskT>(MaskT(0))) f(mi[k]);
    }
  }

  /// Bulk probe: a 64-lane writability word for bitmap word `wd`, correct
  /// at every lane set in `candidates` (other lanes unspecified — callers
  /// AND the result against candidate-derived words).  A structural bitmap
  /// mask answers with one whole-word AND-able load.  A value mask in the
  /// bitmap or all-stored mode ANDs in value_word, one branch-free pack of
  /// the word's 64 values when they are single bytes.  The search mode
  /// falls back to one raw probe per candidate, exactly the per-position
  /// cost the point query already paid.
  BitmapWord writable_word(std::size_t wd, BitmapWord candidates) const {
    BitmapWord t;
    switch (mode_) {
      case Mode::kBitmap:
        t = bit_[wd];
        if (!structural_) t &= value_word(wd, t & candidates);
        break;
      case Mode::kAllStored:
        t = structural_ ? ~BitmapWord{0} : value_word(wd, candidates);
        break;
      default:
        t = 0;
        bitmap_for_each_in_word(
            candidates, static_cast<Index>(wd) * kBitmapWordBits,
            [&](Index i) {
              if (raw(i)) t |= BitmapWord{1} << (i & 63);
            });
    }
    return complement_ ? ~t : t;
  }

 private:
  /// Value truth (stored value nonzero) of word wd's positions, correct at
  /// the lanes in `lanes`; val_ must index by position.  A full word of
  /// one-byte values is packed whole; the partial last word and wider
  /// value types test each lane in `lanes`.
  BitmapWord value_word(std::size_t wd, BitmapWord lanes) const {
    const Index base = static_cast<Index>(wd) * kBitmapWordBits;
    using S = storage_of_t<MaskT>;
    if constexpr (sizeof(S) == 1 && std::is_integral_v<S>) {
      if (base + kBitmapWordBits <= mask_->size()) {
        return pack_nonzero_bytes(
            reinterpret_cast<const unsigned char*>(val_ + base));
      }
    }
    BitmapWord t = 0;
    bitmap_for_each_in_word(lanes, base, [&](Index i) {
      if (val_[i] != S(MaskT(0))) t |= BitmapWord{1} << (i & 63);
    });
    return t;
  }

  /// Mask truth before descriptor complement.
  bool raw(Index i) const {
    switch (mode_) {
      case Mode::kBitmap:
        return bitmap_test(bit_, i) &&
               (structural_ || val_[i] != storage_of_t<MaskT>(MaskT(0)));
      case Mode::kAllStored:
        return structural_ || val_[i] != storage_of_t<MaskT>(MaskT(0));
      default:
        if (structural_) return mask_->has_element(i);
        auto v = mask_->extract_element(i);
        return v.has_value() && *v != MaskT(0);
    }
  }

  enum class Mode { kBitmap, kAllStored, kSearch };
  const Vector<MaskT>* mask_;
  const BitmapWord* bit_ = nullptr;
  const storage_of_t<MaskT>* val_ = nullptr;
  bool complement_;
  bool structural_;
  Mode mode_ = Mode::kSearch;
};

/// Point query against a matrix mask under descriptor flags.
template <typename MaskT>
class MatrixMaskProbe {
 public:
  MatrixMaskProbe(const Matrix<MaskT>& mask, const Descriptor& desc)
      : mask_(&mask),
        complement_(desc.mask_complement),
        structural_(desc.mask_structure) {}

  bool operator()(Index r, Index c) const {
    bool t = false;
    auto v = mask_->extract_element(r, c);
    if (structural_) {
      t = v.has_value();
    } else {
      t = v.has_value() && *v != MaskT(0);
    }
    return complement_ ? !t : t;
  }

 private:
  const Matrix<MaskT>* mask_;
  bool complement_;
  bool structural_;
};

struct AlwaysTrueProbe {
  constexpr bool operator()(Index) const { return true; }
  constexpr bool operator()(Index, Index) const { return true; }
};
struct AlwaysFalseProbe {
  constexpr bool operator()(Index) const { return false; }
  constexpr bool operator()(Index, Index) const { return false; }
};

/// Bulk (64-lane) probe evaluation for bitmap word `wd`: the word-packed
/// kernels apply the mask one word at a time instead of one position at a
/// time.  Lanes outside `candidates` are unspecified — every caller ANDs
/// the result (or its complement) against words derived from candidates,
/// whose padding/absent lanes are zero, so unspecified lanes never reach
/// an output.  No-mask probes are whole-word constants; a VectorMaskProbe
/// answers through its writable_word (one AND-able load for structural
/// bitmap masks, one byte pack for bool value masks); anything else
/// degrades to one point probe per candidate,
/// the same cost the positional kernels paid per candidate before.
template <typename Probe>
inline BitmapWord probe_writable_word(const Probe& probe, std::size_t wd,
                                      BitmapWord candidates) {
  if constexpr (std::is_same_v<Probe, AlwaysTrueProbe>) {
    (void)probe;
    (void)wd;
    (void)candidates;
    return ~BitmapWord{0};
  } else if constexpr (std::is_same_v<Probe, AlwaysFalseProbe>) {
    (void)probe;
    (void)wd;
    (void)candidates;
    return BitmapWord{0};
  } else if constexpr (requires { probe.writable_word(wd, candidates); }) {
    return probe.writable_word(wd, candidates);
  } else {
    BitmapWord t = 0;
    bitmap_for_each_in_word(candidates,
                            static_cast<Index>(wd) * kBitmapWordBits,
                            [&](Index i) {
                              if (probe(i)) t |= BitmapWord{1} << (i & 63);
                            });
    return t;
  }
}

/// Resolves (mask, desc) to a concrete probe type and invokes `f` with it.
/// Operations use this to build the probe *once* and share it between the
/// kernel (mask push-down: skip non-writable positions while computing) and
/// the write phase — positions the probe rejects either keep the old output
/// value or are deleted under replace, so their computed values are never
/// observable and the kernel may skip them outright.
template <typename Mask, typename F>
decltype(auto) with_vector_probe(const Mask& mask, const Descriptor& desc,
                                 Index out_size, F&& f) {
  if constexpr (is_no_mask_v<Mask>) {
    (void)mask;
    (void)out_size;
    if (desc.mask_complement) {
      // Complement of "no mask" (all true) is all false: nothing writable.
      return f(AlwaysFalseProbe{});
    }
    return f(AlwaysTrueProbe{});
  } else {
    check_size_match(mask.size(), out_size, "mask size vs output size");
    return f(VectorMaskProbe<typename Mask::value_type>(mask, desc));
  }
}

// ---------------------------------------------------------------------------
// Vector write phase.
// ---------------------------------------------------------------------------

/// Performs `w<probe> accum= z` with replace semantics.  `probe(i)` decides
/// writability per index; pass AlwaysTrueProbe for no mask.  The merge is
/// staged in ctx-owned buffers that are swapped with w's storage at the
/// end, so steady-state calls recycle capacity instead of reallocating.
///
/// `z_prefiltered` asserts that every entry of z already passed the probe
/// (true when the producing kernel pushed the mask down); the merge then
/// probes only positions present solely in w, instead of re-probing the
/// whole union.
template <typename W, typename Z, typename Probe, typename Accum>
void masked_write_vector(Context& ctx, Vector<W>& w, const Vector<Z>& z,
                         const Probe& probe, const Accum& accum, bool replace,
                         bool z_prefiltered = false) {
  auto& scratch = ctx.get<WriteScratch<storage_of_t<W>>>();
  auto& out_ind = scratch.ind;
  auto& out_val = scratch.val;
  out_ind.clear();
  out_val.clear();
  auto zi = z.indices();
  auto zv = z.values();

  if constexpr (is_no_accum_v<Accum>) {
    // Replace-mode write of a prefiltered z: positions outside the mask are
    // deleted, positions inside take z's entry or absence, so the old w
    // cannot reach the output — install z without touching w's entries
    // (for a dense w that skips a mirror build and a probe per old entry).
    // The cast still normalizes values when W != Z (bool vs uchar).
    if (replace && z_prefiltered) {
      out_ind.assign(zi.begin(), zi.end());
      out_val.reserve(zv.size());
      for (const auto& x : zv) out_val.push_back(static_cast<W>(x));
      w.swap_storage(out_ind, out_val);
      ctx.manage_representation(w);
      return;
    }
  }

  out_ind.reserve(w.nvals() + z.nvals());
  out_val.reserve(w.nvals() + z.nvals());
  auto wi = w.indices();
  auto wv = w.values();
  std::size_t a = 0, b = 0;
  while (a < wi.size() || b < zi.size()) {
    bool in_w = false, in_z = false;
    Index i = 0;
    if (a < wi.size() && (b >= zi.size() || wi[a] <= zi[b])) {
      i = wi[a];
      in_w = true;
      if (b < zi.size() && zi[b] == i) in_z = true;
    } else {
      i = zi[b];
      in_z = true;
    }

    if ((in_z && z_prefiltered) || probe(i)) {
      // Mask true: write Z-after-accum.
      if constexpr (is_no_accum_v<Accum>) {
        if (in_z) {
          out_ind.push_back(i);
          out_val.push_back(static_cast<W>(zv[b]));
        }
      } else {
        if (in_w && in_z) {
          out_ind.push_back(i);
          out_val.push_back(static_cast<W>(accum(wv[a], zv[b])));
        } else if (in_z) {
          out_ind.push_back(i);
          out_val.push_back(static_cast<W>(zv[b]));
        } else {  // only w
          out_ind.push_back(i);
          out_val.push_back(wv[a]);
        }
      }
    } else {
      // Mask false: keep old value unless replace.
      if (!replace && in_w) {
        out_ind.push_back(i);
        out_val.push_back(wv[a]);
      }
    }

    if (in_w) ++a;
    if (in_z) ++b;
  }
  w.swap_storage(out_ind, out_val);
  ctx.manage_representation(w);
}

/// Rvalue overload: when there is no accumulator and either there is no
/// mask (every position writable) or z is prefiltered under replace (see
/// the const overload), the output is exactly z — steal z's storage
/// instead of copying it.  This is the shape of most calls on the
/// delta-stepping hot path (unmasked replace-mode vxm / eWiseAdd / apply,
/// masked replace-mode apply).
template <typename W, typename Z, typename Probe, typename Accum>
void masked_write_vector(Context& ctx, Vector<W>& w, Vector<Z>&& z,
                         const Probe& probe, const Accum& accum, bool replace,
                         bool z_prefiltered = false) {
  if constexpr (std::is_same_v<W, Z> && is_no_accum_v<Accum>) {
    if (std::is_same_v<Probe, AlwaysTrueProbe> ||
        (replace && z_prefiltered)) {
      w = std::move(z);
      ctx.manage_representation(w);
      return;
    }
  }
  masked_write_vector(ctx, w, z, probe, accum, replace, z_prefiltered);
}

/// Dense-result write phase: performs `w<probe> accum= z` where z is a
/// dense-staged kernel result — bit i of z.bit word i>>6 marks presence,
/// `z.val[i]` holds the value, `znnz` counts the set bits.  The stage's
/// buffers are consumed (swapped into w on the fast path, or recycled by
/// the caller's next reset); w ends in the dense representation and is
/// then handed to the Context's density policy, which may demote it.
///
/// The merge runs one bitmap word (64 positions) at a time: words where
/// neither w nor z stores anything are skipped with two loads, the probe
/// is applied through probe_writable_word (one AND for structural bitmap
/// masks), the four write categories (take-z / accum-both / keep-w /
/// drop) are whole-word bit expressions, and only the surviving values are
/// copied, via ctz iteration.  Semantics are exactly masked_write_vector's,
/// position by position — the bit-identity tests compare the two on the
/// same inputs.
template <typename W, typename Z, typename Probe, typename Accum>
void masked_write_vector_dense(Context& ctx, Vector<W>& w,
                               DenseKernelStage<Z>& z, Index znnz,
                               const Probe& probe, const Accum& accum,
                               bool replace, bool z_prefiltered = false) {
  const Index n = w.size();
  // The dense twin of the sparse rvalue fast path: with no accumulator and
  // either no mask or a prefiltered z under replace, the result is exactly
  // z, so w adopts the stage's buffers and the stage inherits w's previous
  // dense buffers (capacity ping-pong, like the sparse write scratch).  W
  // and Z must be the *same element type* (not merely the same storage
  // type) so the adoption cannot skip the value-normalizing casts of the
  // general path (bool vs uchar).
  if constexpr (is_no_accum_v<Accum> && std::is_same_v<W, Z>) {
    if (std::is_same_v<Probe, AlwaysTrueProbe> ||
        (replace && z_prefiltered)) {
      ++ctx.dense_writes;
      w.swap_dense_storage(z.bit, z.val, znnz);
      ctx.manage_representation(w);
      return;
    }
  }
  auto& out = ctx.get<DenseWriteStage<storage_of_t<W>>>();
  out.reset(n);
  Index nnz = 0;

  const bool w_dense = w.is_dense();
  auto wbit = w_dense ? w.dense_bitmap() : std::span<const BitmapWord>{};
  auto wdv = w_dense ? w.dense_values()
                     : std::span<const storage_of_t<W>>{};
  auto wi = w_dense ? std::span<const Index>{} : w.indices();
  auto wv = w_dense ? std::span<const storage_of_t<W>>{} : w.values();
  std::size_t a = 0;  // cursor into (wi, wv) when w is sparse

  const std::size_t nwords = bitmap_words(n);
  for (std::size_t wd = 0; wd < nwords; ++wd) {
    const Index base = static_cast<Index>(wd) * kBitmapWordBits;
    const Index bound = base + kBitmapWordBits;
    const BitmapWord zw = z.bit[wd];

    // Presence word for w; a sparse w also remembers its entry range
    // [a0, a) so values can be read back by cursor below.
    BitmapWord ww = 0;
    const std::size_t a0 = a;
    if (w_dense) {
      ww = wbit[wd];
    } else {
      while (a < wi.size() && wi[a] < bound) {
        ww |= BitmapWord{1} << (wi[a] & 63);
        ++a;
      }
    }
    if ((zw | ww) == 0) continue;  // whole-word skip of empty regions

    // Prefiltered z entries are writable by contract, so the probe is
    // only consulted at w-only lanes then — the word analogue of the old
    // per-position `(in_z && z_prefiltered) || probe(i)` short-circuit.
    const BitmapWord pcand = z_prefiltered ? (ww & ~zw) : (zw | ww);
    const BitmapWord pw =
        pcand != 0 ? probe_writable_word(probe, wd, pcand) : 0;
    const BitmapWord writable = z_prefiltered ? (zw | pw) : pw;

    BitmapWord outw;
    if constexpr (is_no_accum_v<Accum>) {
      const BitmapWord takez = zw & writable;
      const BitmapWord keepw = replace ? 0 : (ww & ~writable);
      outw = takez | keepw;
      bitmap_for_each_in_word(takez, base, [&](Index i) {
        out.val[i] = static_cast<W>(static_cast<Z>(z.val[i]));
      });
      if (keepw != 0) {
        if (w_dense) {
          bitmap_for_each_in_word(keepw, base,
                                  [&](Index i) { out.val[i] = wdv[i]; });
        } else {
          for (std::size_t k = a0; k < a; ++k) {
            const Index i = wi[k];
            if (keepw & (BitmapWord{1} << (i & 63))) out.val[i] = wv[k];
          }
        }
      }
    } else {
      const BitmapWord both = ww & zw & writable;
      const BitmapWord zonly = zw & ~ww & writable;
      const BitmapWord wkeep =
          (ww & ~zw & writable) | (replace ? 0 : (ww & ~writable));
      outw = both | zonly | wkeep;
      bitmap_for_each_in_word(zonly, base, [&](Index i) {
        out.val[i] = static_cast<W>(static_cast<Z>(z.val[i]));
      });
      if ((both | wkeep) != 0) {
        if (w_dense) {
          bitmap_for_each_in_word(both, base, [&](Index i) {
            out.val[i] = static_cast<W>(accum(wdv[i], z.val[i]));
          });
          bitmap_for_each_in_word(wkeep, base,
                                  [&](Index i) { out.val[i] = wdv[i]; });
        } else {
          for (std::size_t k = a0; k < a; ++k) {
            const Index i = wi[k];
            const BitmapWord lane = BitmapWord{1} << (i & 63);
            if (both & lane) {
              out.val[i] = static_cast<W>(accum(wv[k], z.val[i]));
            } else if (wkeep & lane) {
              out.val[i] = wv[k];
            }
          }
        }
      }
    }
    out.bit[wd] = outw;
    nnz += static_cast<Index>(std::popcount(outw));
  }
  ++ctx.dense_writes;
  w.swap_dense_storage(out.bit, out.val, nnz);
  ctx.manage_representation(w);
}

// ---------------------------------------------------------------------------
// Mask-driven kernels.
// ---------------------------------------------------------------------------

/// Reads one input operand at ascending positions: an O(1) bitmap test
/// when the operand is dense, a forward merge cursor when it is sparse.
/// The cursor gallops (doubling steps, then a binary search inside the
/// last step), so a visit costs O(log gap) rather than O(gap) when the
/// positions are far apart in the operand's entry list.
template <typename U>
class AscendingReader {
 public:
  explicit AscendingReader(const Vector<U>& u) : dense_(u.is_dense()) {
    if (dense_) {
      bit_ = u.dense_bitmap().data();
      val_ = u.dense_values().data();
    } else {
      ind_ = u.indices();
      val_ = u.values().data();
    }
  }

  /// The stored value at i, or nullptr when i is absent.  Successive calls
  /// must pass strictly increasing positions.
  const storage_of_t<U>* find(Index i) {
    if (dense_) return bitmap_test(bit_, i) ? val_ + i : nullptr;
    const std::size_t n = ind_.size();
    if (k_ < n && ind_[k_] < i) {
      std::size_t step = 1;
      std::size_t hi = k_ + 1;
      while (hi < n && ind_[hi] < i) {
        k_ = hi;
        step *= 2;
        hi = k_ + step;
      }
      const auto first = ind_.begin() + static_cast<std::ptrdiff_t>(k_ + 1);
      const auto last =
          ind_.begin() + static_cast<std::ptrdiff_t>(std::min(hi, n));
      k_ = static_cast<std::size_t>(std::lower_bound(first, last, i) -
                                    ind_.begin());
    }
    return k_ < n && ind_[k_] == i ? val_ + k_ : nullptr;
  }

 private:
  bool dense_;
  const BitmapWord* bit_ = nullptr;
  std::span<const Index> ind_;
  const storage_of_t<U>* val_ = nullptr;
  std::size_t k_ = 0;
};

/// Point-wise vector ops (apply / select / ewise_add / ewise_mult /
/// assign_scalar) call this first.  When the probe's dispatch rule holds
/// against `walk` — the stored entries the input-driven kernel would
/// visit — it computes z by visiting only the mask's writable positions,
/// where `emit(i, zi, zv)` reads the inputs (through AscendingReader) and
/// appends the entry at i, if any.  z is sparse and prefiltered, then goes
/// through the ordinary write phase.  Returns false, doing nothing, when the input-driven
/// kernel should run instead.
template <typename Z, typename W, typename Probe, typename Accum,
          typename Emit>
bool try_mask_driven(Context& ctx, Vector<W>& w, const Probe& probe,
                     const Accum& accum, bool replace, Index walk,
                     Emit&& emit) {
  // NoMask resolves to the constant probes, which never drive.
  if constexpr (requires { probe.drives(walk); }) {
    if (!probe.drives(walk)) return false;
    ++ctx.mask_driven_calls;
    Vector<Z> z(w.size());
    auto& zi = z.mutable_indices();
    auto& zv = z.mutable_values();
    probe.for_each_writable([&](Index i) { emit(i, zi, zv); });
    masked_write_vector(ctx, w, std::move(z), probe, accum, replace,
                        /*z_prefiltered=*/true);
    return true;
  } else {
    return false;
  }
}

// ---------------------------------------------------------------------------
// Matrix write phase.
// ---------------------------------------------------------------------------

template <typename W, typename Z, typename Probe, typename Accum>
void masked_write_matrix(Matrix<W>& w, const Matrix<Z>& z, const Probe& probe,
                         const Accum& accum, bool replace) {
  const Index nrows = w.nrows();
  std::vector<Index> out_ptr(nrows + 1, 0);
  std::vector<Index> out_ind;
  std::vector<storage_of_t<W>> out_val;
  out_ind.reserve(w.nvals() + z.nvals());
  out_val.reserve(w.nvals() + z.nvals());

  for (Index r = 0; r < nrows; ++r) {
    auto wi = w.row_indices(r);
    auto wv = w.row_values(r);
    auto zi = z.row_indices(r);
    auto zv = z.row_values(r);
    std::size_t a = 0, b = 0;
    while (a < wi.size() || b < zi.size()) {
      bool in_w = false, in_z = false;
      Index c = 0;
      if (a < wi.size() && (b >= zi.size() || wi[a] <= zi[b])) {
        c = wi[a];
        in_w = true;
        if (b < zi.size() && zi[b] == c) in_z = true;
      } else {
        c = zi[b];
        in_z = true;
      }

      if (probe(r, c)) {
        if constexpr (is_no_accum_v<Accum>) {
          if (in_z) {
            out_ind.push_back(c);
            out_val.push_back(static_cast<W>(zv[b]));
          }
        } else {
          if (in_w && in_z) {
            out_ind.push_back(c);
            out_val.push_back(static_cast<W>(accum(wv[a], zv[b])));
          } else if (in_z) {
            out_ind.push_back(c);
            out_val.push_back(static_cast<W>(zv[b]));
          } else {
            out_ind.push_back(c);
            out_val.push_back(wv[a]);
          }
        }
      } else {
        if (!replace && in_w) {
          out_ind.push_back(c);
          out_val.push_back(wv[a]);
        }
      }

      if (in_w) ++a;
      if (in_z) ++b;
    }
    out_ptr[r + 1] = static_cast<Index>(out_ind.size());
  }
  w.adopt(std::move(out_ptr), std::move(out_ind), std::move(out_val));
}

template <typename W, typename Z, typename Mask, typename Accum>
void write_matrix_result(Matrix<W>& w, const Matrix<Z>& z, const Mask& mask,
                         const Accum& accum, const Descriptor& desc) {
  if constexpr (is_no_mask_v<Mask>) {
    if (desc.mask_complement) {
      masked_write_matrix(w, z, AlwaysFalseProbe{}, accum, desc.replace);
    } else {
      masked_write_matrix(w, z, AlwaysTrueProbe{}, accum, desc.replace);
    }
  } else {
    check_size_match(mask.nrows(), w.nrows(), "mask rows vs output rows");
    check_size_match(mask.ncols(), w.ncols(), "mask cols vs output cols");
    MatrixMaskProbe<typename Mask::value_type> probe(mask, desc);
    masked_write_matrix(w, z, probe, accum, desc.replace);
  }
}

/// Rvalue overload: unmasked non-accumulating writes are C := Z, so z's
/// CSR arrays move straight into the output (the A_L/A_H filter setup of
/// delta-stepping is four such applies over the whole matrix).
template <typename W, typename Z, typename Mask, typename Accum>
void write_matrix_result(Matrix<W>& w, Matrix<Z>&& z, const Mask& mask,
                         const Accum& accum, const Descriptor& desc) {
  if constexpr (std::is_same_v<W, Z> && is_no_mask_v<Mask> &&
                is_no_accum_v<Accum>) {
    if (!desc.mask_complement) {
      w = std::move(z);
      return;
    }
  }
  write_matrix_result(w, z, mask, accum, desc);
}

}  // namespace detail
}  // namespace grb
