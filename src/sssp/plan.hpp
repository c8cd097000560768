// plan.hpp — GraphPlan, the reusable preprocessing artifact of the SSSP
// plan/execute API.
//
// Every SSSP entry point used to take a raw grb::Matrix and re-derive the
// same per-call state on every invocation: an O(|E|) weight validation and
// the A_L/A_H light/heavy split for the current Δ.  A GraphPlan hoists all
// of that into a build-once object, the way the GraphBLAS C API amortizes
// descriptors and operators across operations:
//
//   - construction scans the matrix once: validates non-negative weights
//     (throws grb::InvalidValue otherwise) and collects the degree/weight
//     statistics that drive the auto-Δ heuristic;
//   - Δ is fixed at construction — pass kAutoDelta (or any finite value
//     <= 0) to let the Meyer–Sanders-style heuristic pick it from the
//     stats; a non-finite Δ throws grb::InvalidValue;
//   - the light/heavy split (one pair of grb::Matrix A_L / A_H, read as
//     matrices by the GraphBLAS cores and as raw CSR spans by the fused
//     ones) and any algorithm-specific derived state (e.g. the C-API
//     matrix handles) are materialized lazily through a mutex-guarded
//     type-keyed cache, so a plan only ever pays for what the chosen
//     algorithm touches.  After materialization all accessors are const
//     reads, safe to share across the threads of a batched solve.
//
// A plan owns its matrix: move a Matrix in, or share a shared_ptr.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <typeindex>
#include <utility>
#include <vector>

#include "sssp/common.hpp"

namespace dsg {

namespace serving {
class PlanIo;  // trusted deserializer (src/serving/plan_io.cpp)
}  // namespace serving

namespace detail {

/// Raw CSR view of the plan's A_L / A_H, for the fused, OpenMP and bucket
/// variants.  The spans point into the two grb::Matrix objects that
/// light_matrix() / heavy_matrix() return, so there is one copy of the
/// split; when one half holds every edge, that half is A itself and the
/// split costs no copy at all.  Building it is one count pass and one fill
/// pass over A: the "matrix filtering" that costs 35-40% of fused runtime
/// per Sec. VI-C — exactly the work a GraphPlan amortizes across queries.
struct LightHeavySplit {
  std::span<const Index> light_ptr, light_ind;
  std::span<const double> light_val;
  std::span<const Index> heavy_ptr, heavy_ind;
  std::span<const double> heavy_val;
};

}  // namespace detail

/// Sentinel for "let the plan choose Δ from the graph's degree statistics".
inline constexpr double kAutoDelta = 0.0;

/// Per-execution options for the plan-based entry points
/// `(const GraphPlan&, grb::Context&, Index source, const ExecOptions&)`.
/// Everything graph- or Δ-shaped lives in the plan; this carries only what
/// can vary per solve.
struct ExecOptions {
  /// Collect the per-phase timers in SsspStats (small overhead).
  bool profile = false;
  /// OpenMP and async variants: thread count (0 = library default, see
  /// resolve_num_threads).
  int num_threads = 0;
  /// Optional query lifecycle control (deadline + cooperative cancel).
  /// Null = run to completion unconditionally.  Cores poll it at their
  /// round/bucket boundaries; on expiry/cancel they stop and return the
  /// distances computed so far with the matching SsspResult::status.
  const QueryControl* control = nullptr;
};

/// The team size for ExecOptions::num_threads = `requested`: `requested`
/// itself when > 0, else the library default — omp_get_max_threads() when
/// built with OpenMP (so OMP_NUM_THREADS applies), else the hardware
/// concurrency.  Always at least 1.
int resolve_num_threads(int requested);

/// One-pass structural statistics collected at plan construction.  These
/// feed the auto-Δ heuristic and are cheap enough to always compute (the
/// same pass performs the non-negativity validation).
struct PlanStats {
  Index num_vertices = 0;
  std::size_t num_edges = 0;       ///< stored (directed) entries
  Index max_out_degree = 0;
  double avg_out_degree = 0.0;
  double max_weight = 0.0;         ///< 0 when the graph has no edges
  double min_positive_weight = 0.0;  ///< 0 when no positive weight exists
};

class GraphPlan {
 public:
  /// Owning constructors: the plan keeps the matrix alive.  Throws
  /// grb::InvalidValue / grb::DimensionMismatch on an invalid graph
  /// (negative or non-finite weight, non-square, empty) or a non-finite Δ.
  explicit GraphPlan(grb::Matrix<double> a, double delta = kAutoDelta)
      : GraphPlan(std::make_shared<const grb::Matrix<double>>(std::move(a)),
                  delta) {}
  explicit GraphPlan(std::shared_ptr<const grb::Matrix<double>> a,
                     double delta = kAutoDelta);

  GraphPlan(GraphPlan&&) noexcept = default;
  GraphPlan& operator=(GraphPlan&&) noexcept = default;
  GraphPlan(const GraphPlan&) = delete;
  GraphPlan& operator=(const GraphPlan&) = delete;

  const grb::Matrix<double>& matrix() const { return *a_; }
  Index num_vertices() const { return a_->nrows(); }
  const PlanStats& stats() const { return stats_; }

  /// The bucket width this plan was built for (always > 0).
  double delta() const { return delta_; }
  /// True when Δ came from the auto heuristic rather than the caller.
  bool delta_was_auto() const { return delta_was_auto_; }

  /// The Meyer–Sanders-style Δ heuristic: Δ ≈ max_weight / avg_degree
  /// (bucket width such that one bucket's light-edge work stays near the
  /// average vertex neighbourhood), clamped below by the smallest positive
  /// weight so at least some edges qualify as light.
  static double auto_delta(const PlanStats& stats);

  /// Light/heavy split at this plan's Δ as raw CSR spans (fused / OpenMP
  /// / bucket variants).  Built on first use; later calls are const reads.
  const detail::LightHeavySplit& light_heavy() const;

  /// The same split — the same storage — as the grb matrices A_L / A_H
  /// (GraphBLAS variants).  Materializes it on first use, like
  /// light_heavy().  When every edge is light (every edge heavy),
  /// light_matrix() (heavy_matrix()) is matrix() and the other half is an
  /// empty n x n matrix.
  const grb::Matrix<double>& light_matrix() const;
  const grb::Matrix<double>& heavy_matrix() const;

  /// The weight w when every stored weight has w's bits and the pattern is
  /// symmetric (A(i,j) is stored exactly when A(j,i) is); nullopt
  /// otherwise, and for a graph with no edges.  On such a graph every
  /// k-hop path sums to the same value, so shortest distances are
  /// hop-count levels and the async engine runs level rounds that may
  /// pull a vertex from its first frontier neighbour.  The weight pass
  /// stops at the first weight that differs; the symmetry check is exact,
  /// one cursor per row over the sorted CSR rows, O(|V| + |E|).  Built on
  /// first use like the split and counted in setup_seconds().
  std::optional<double> uniform_symmetric_weight() const;

  /// Seconds spent building this plan so far: the validation/stats scan
  /// plus every lazy materialization to date.  This is the cost a
  /// per-query caller used to pay on every call.
  double setup_seconds() const;

  /// Version-stamped binary persistence (the CSR of A, the stats and the
  /// pinned Δ).  Implemented by the serving layer
  /// (src/serving/plan_io.cpp, the dsg_serving library — link it to use
  /// these); docs/ARCHITECTURE.md "Serving layer" specifies the file
  /// format.  A loaded plan builds its split lazily, like a fresh one;
  /// load() verifies magic/version/endianness/checksum and throws
  /// grb::InvalidValue on any mismatch.
  void save(const std::string& path) const;
  static GraphPlan load(const std::string& path);

  /// 64-bit structural fingerprint over the graph only — dimensions, CSR
  /// arrays, weights — NOT Δ, so one graph served at two bucket widths
  /// shares it (cache keys add Δ separately).  Computed once on first use,
  /// then a const read; identical across a save/load round trip because
  /// the underlying bytes are identical.
  std::uint64_t fingerprint() const;

  /// Audits the plan's structural invariants (see graphblas/audit.hpp):
  /// the adjacency CSR (monotone offsets, in-range ascending columns) and —
  /// when already materialized — the light/heavy split (every light weight
  /// in (0, Δ], every heavy weight > Δ, per-row partition exactly covering
  /// the positive-weight edges).  Lazily materialized state that has not
  /// been built yet is not forced.  Throws grb::audit::AuditError on
  /// violation; O(|V| + |E|).  Always compiled; with DSG_AUDIT_INVARIANTS
  /// the plan audits itself at construction and at split materialization.
  void check_invariants() const;

  /// Algorithm-specific derived state, built once per plan: returns the
  /// plan-owned T, constructing it via `make()` on first request (mutex
  /// guarded, so concurrent first use is safe).  The build time is added
  /// to setup_seconds().  Used e.g. by the C-API variant to park its
  /// GrB_Matrix handles.
  template <typename T, typename Make>
  const T& derived(Make&& make) const {
    std::lock_guard<std::mutex> lock(lazy_->mu);
    const std::type_index key(typeid(T));
    for (auto& slot : lazy_->slots) {
      if (slot.first == key) return *static_cast<const T*>(slot.second.get());
    }
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const T> owned = std::forward<Make>(make)();
    lazy_->extra_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const T& ref = *owned;
    lazy_->slots.emplace_back(key, std::move(owned));
    return ref;
  }

 private:
  friend class serving::PlanIo;

  /// Trusted-deserialization constructor (serving::PlanIo only): adopts
  /// checksum-verified stats and Δ without re-running the O(|E|)
  /// validation scan.  Under DSG_AUDIT_INVARIANTS the full structural
  /// audit still runs, so a corrupt-but-checksum-colliding file cannot
  /// slip through a debug build.
  struct Restored {};
  GraphPlan(Restored, std::shared_ptr<const grb::Matrix<double>> a,
            double delta, bool delta_was_auto, const PlanStats& stats);

  /// Audits one materialized light/heavy split against the matrix and Δ.
  void audit_split(const detail::LightHeavySplit& s) const;

  /// The derived slot of type T if already materialized, else nullptr —
  /// lets check_invariants audit lazily built state without forcing it.
  template <typename T>
  const T* peek_derived() const {
    std::lock_guard<std::mutex> lock(lazy_->mu);
    const std::type_index key(typeid(T));
    for (auto& slot : lazy_->slots) {
      if (slot.first == key) return static_cast<const T*>(slot.second.get());
    }
    return nullptr;
  }

  void init(double delta);

  struct Lazy {
    std::mutex mu;
    // Type-keyed slots (same shape as grb::Context): a handful of entries,
    // linear scan, stable references.
    std::vector<std::pair<std::type_index, std::shared_ptr<const void>>> slots;
    double extra_seconds = 0.0;  // lazy materialization time, guarded by mu
  };

  std::shared_ptr<const grb::Matrix<double>> a_;
  PlanStats stats_;
  double delta_ = 1.0;
  bool delta_was_auto_ = false;
  double scan_seconds_ = 0.0;
  std::unique_ptr<Lazy> lazy_;
};

}  // namespace dsg
