// context.hpp — grb::Context, the reusable operation-workspace engine.
//
// Every push-style kernel in the substrate needs the same trio of scratch
// structures: a dense scatter accumulator, the touched-index list that makes
// it sparsely resettable, and result staging buffers for the write phase.
// Allocating and zero-filling those per call costs O(n) even when the input
// holds a handful of entries — which is exactly the delta-stepping hot path
// (light-phase frontiers of a few vertices on graphs of millions).  A
// Context owns these buffers and survives across calls, so steady-state
// operations cost O(work), not O(n):
//
//   - ScatterAccumulator::reset clears only the entries touched by the
//     previous call (O(previous output), not O(n));
//   - extraction switches between sparse (sort the touched list) and dense
//     (sweep the bitmap in index order) modes based on output density;
//   - the write phase swaps its staging buffers with the output vector's
//     storage, so capacity ping-pongs between them instead of being
//     reallocated.
//
// Operations take a Context& as their first argument; the legacy signatures
// forward to a thread-local default_context(), so existing callers (and the
// C API, which has no context parameter) get workspace reuse transparently.
// A Context is NOT thread-safe: use one per thread, or the per-thread
// default.  Every kernel runs on the calling thread.
#pragma once

#include <algorithm>
#include <memory>
#include <typeindex>
#include <utility>
#include <vector>

#include "graphblas/bitmap.hpp"
#include "graphblas/types.hpp"

namespace grb {

namespace detail {

/// Dense scatter accumulator with sparse reset.  `occupied` doubles as the
/// structure of the result; `touched` records which entries must be cleared
/// before the next use, making reset O(|touched|) instead of O(n).
/// `value` is never bulk-initialized: `occupied` guards first touch, so
/// stale values behind a zero bit are unreachable.
template <typename Z>
struct ScatterAccumulator {
  std::vector<storage_of_t<Z>> value;
  std::vector<unsigned char> occupied;
  std::vector<Index> touched;  // indices with occupied==1, unsorted

  /// Prepares the accumulator for a product of dimension n.  Steady state
  /// (same n as the previous call) is a sparse clear of the touched set;
  /// only a dimension change pays the full O(n) (re)initialization.
  void reset(Index n) {
    if (occupied.size() != static_cast<std::size_t>(n)) {
      value.resize(n);
      occupied.assign(n, 0);
      touched.clear();
    } else {
      for (Index j : touched) occupied[j] = 0;
      touched.clear();
    }
  }

  template <typename SR>
  void scatter(Index j, const Z& x, const SR& sr) {
    if (!occupied[j]) {
      occupied[j] = 1;
      value[j] = x;
      touched.push_back(j);
    } else {
      value[j] = sr.add(static_cast<Z>(value[j]), x);
    }
  }

  /// Emits (index, value) pairs in ascending index order into `out_ind` /
  /// `out_val`, choosing between sorting the touched list (sparse outputs)
  /// and sweeping the bitmap (dense outputs).  The bitmap sweep is O(n) but
  /// branch-predictable and sort-free; it wins once the output holds more
  /// than about an eighth of all positions.  The touched list is preserved
  /// either way so the next reset stays sparse.
  void extract_sorted(Index n, std::vector<Index>& out_ind,
                      std::vector<storage_of_t<Z>>& out_val) {
    out_ind.reserve(out_ind.size() + touched.size());
    out_val.reserve(out_val.size() + touched.size());
    if (touched.size() >= static_cast<std::size_t>(n / 8)) {
      for (Index j = 0; j < n; ++j) {
        if (occupied[j]) {
          out_ind.push_back(j);
          out_val.push_back(value[j]);
        }
      }
    } else {
      std::sort(touched.begin(), touched.end());
      for (Index j : touched) {
        out_ind.push_back(j);
        out_val.push_back(value[j]);
      }
    }
  }
};

/// Staging buffers for the masked write phase (see mask.hpp).  Keyed by the
/// output's storage type; distinct from the kernel accumulator slots so the
/// two never alias within one operation.
template <typename S>
struct WriteScratch {
  std::vector<Index> ind;
  std::vector<S> val;
};

/// Dense (word-packed bitmap + values) staging for kernels that compute a
/// dense-representation result (apply/select/ewise over dense inputs).
/// reset() zeroes the bitmap only — bitmap_words(n) words, so the clear
/// itself reads 64x less memory than the old byte bitmap — while values
/// are guarded by the bits, exactly like ScatterAccumulator.
template <typename Z>
struct DenseKernelStage {
  std::vector<BitmapWord> bit;
  std::vector<storage_of_t<Z>> val;
  void reset(Index n) {
    bit.assign(bitmap_words(n), 0);
    val.resize(n);
  }
};

/// Dense staging for the *write* phase of a dense result (mask/accum merge
/// with the old output).  A distinct template from DenseKernelStage so the
/// kernel's stage and the write stage never alias within one operation,
/// even when Z == W.
template <typename S>
struct DenseWriteStage {
  std::vector<BitmapWord> bit;
  std::vector<S> val;
  void reset(Index n) {
    bit.assign(bitmap_words(n), 0);
    val.resize(n);
  }
};

}  // namespace detail

/// Reusable operation workspace: a heterogeneous registry of scratch
/// structures, created on first use and reused for the lifetime of the
/// Context.  Lookup is a linear scan over a handful of type slots —
/// negligible next to any kernel, and the returned references are stable
/// (slots hold pointers, not inline objects).
class Context {
 public:
  /// Returns the Context-owned instance of T, default-constructing it on
  /// first request.  T identifies the workspace role as well as the element
  /// type (e.g. ScatterAccumulator<double> vs WriteScratch<double>).
  template <typename T>
  T& get() {
    const std::type_index key(typeid(T));
    for (auto& slot : slots_) {
      if (slot.first == key) return *static_cast<T*>(slot.second.get());
    }
    auto owned = std::make_shared<T>();
    T& ref = *owned;
    slots_.emplace_back(key, std::move(owned));
    return ref;
  }

  /// Releases every workspace buffer (memory pressure relief); the Context
  /// remains usable and will re-grow on demand.
  void release() { slots_.clear(); }

  // --- Storage-representation policy (see Vector::to_dense/to_sparse). -----
  //
  // Every vector write phase ends with manage_representation(w): a vector
  // whose density crosses dense_promote_density switches to the bitmap
  // representation; a dense vector falling to dense_demote_density or below
  // switches back.  The band between the two thresholds is hysteresis — a
  // vector hovering near one boundary keeps its current form instead of
  // paying an O(n) conversion per operation.  Representation never changes
  // results (pinned by tests/test_representation.cpp), so auto_representation
  // exists only for benchmarks that need to measure one path in isolation.

  /// Master switch for automatic representation management.
  bool auto_representation = true;
  /// Density at/above which a sparse vector is promoted to dense.
  static constexpr double dense_promote_density = 0.5;
  /// Density at/below which a dense vector is demoted to sparse.  Must be
  /// strictly below dense_promote_density for the hysteresis band to exist.
  static constexpr double dense_demote_density = 0.25;

  /// Estimated *output* density below which select/apply over a dense input
  /// compact straight into the sparse form instead of staging a dense
  /// result.  The dense stage sweeps the whole index domain twice (kernel +
  /// write) no matter how few entries survive, so a low-selectivity filter
  /// — bucket extraction keeping a thin [lo, hi) slice of t — is better
  /// served by ctz-compaction; the measured crossover on the
  /// spmspv_pointwise select_range row sits near 40% output density.  The
  /// kernels sample the input to estimate selectivity (see
  /// estimate_keep_fraction in select.hpp); results are bit-identical
  /// either way.  0 disables the compacted path, 1 forces it.
  double dense_output_crossover = 0.4;

  /// Instrumentation: number of vector write phases that installed a
  /// dense-representation result (before any policy demotion).  With
  /// auto_representation = false and no explicitly densified inputs this
  /// must stay 0 — tests/test_representation.cpp pins the
  /// bench_solver_batch "representation off" leg with it.
  std::size_t dense_writes = 0;

  /// Instrumentation: number of point-wise vector ops (apply / select /
  /// ewise_add / ewise_mult) that ran the mask-driven kernel, i.e. iterated
  /// a sparse mask's entries instead of walking the inputs (see
  /// try_mask_driven in mask.hpp).  Observed, never read by a kernel.
  std::size_t mask_driven_calls = 0;

  /// Applies the density policy to `v` (any type with size/density/
  /// is_dense/to_dense/to_sparse — templated to keep this header free of a
  /// vector.hpp include).
  template <typename Vec>
  void manage_representation(Vec& v) const {
#ifdef DSG_AUDIT_INVARIANTS
    // Every vector write phase ends here, making this the natural audit
    // boundary: the result the next kernel will consume is checked before
    // any representation change, and the converted form after (conversion
    // bugs would otherwise hide behind a clean pre-image).
    v.check_invariants("write-phase result");
#endif
    if (!auto_representation || v.size() == 0) return;
    const double d = v.density();
    if (v.is_dense()) {
      if (d <= dense_demote_density) v.to_sparse();
    } else if (d >= dense_promote_density) {
      v.to_dense();
    }
#ifdef DSG_AUDIT_INVARIANTS
    v.check_invariants("post-conversion");
#endif
  }

 private:
  std::vector<std::pair<std::type_index, std::shared_ptr<void>>> slots_;
};

/// The thread-local Context used by operations when the caller does not
/// pass one explicitly.  Gives signature-stable callers (tests, the C API)
/// cross-call workspace reuse for free; long-lived pipelines that want
/// deterministic buffer ownership create their own Context.
inline Context& default_context() {
  thread_local Context ctx;
  return ctx;
}

}  // namespace grb
