#include "sssp/plan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "graphblas/audit.hpp"

#if defined(DSG_HAVE_OPENMP)
#include <omp.h>
#endif

namespace dsg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Lazy-slot key types.  Each wraps the materialized artifact so the
// type-keyed cache can distinguish the roles.

/// The one light/heavy split: A_L and A_H, plus the raw CSR view over
/// them that light_heavy() hands out.  When one half holds every edge,
/// that half is the plan's A itself (shared, not copied) and the other is
/// an empty n x n matrix.  The slot lives behind a shared_ptr and is never
/// moved, so the view's spans stay valid for the plan's life (moving the
/// plan moves only the pointer to the cache).
struct SplitSlot {
  std::shared_ptr<const grb::Matrix<double>> light;
  std::shared_ptr<const grb::Matrix<double>> heavy;
  detail::LightHeavySplit view;
};

std::shared_ptr<SplitSlot> make_split_slot(
    std::shared_ptr<const grb::Matrix<double>> light,
    std::shared_ptr<const grb::Matrix<double>> heavy) {
  auto slot = std::make_shared<SplitSlot>();
  slot->light = std::move(light);
  slot->heavy = std::move(heavy);
  slot->view = {slot->light->row_ptr(), slot->light->col_ind(),
                slot->light->raw_values(), slot->heavy->row_ptr(),
                slot->heavy->col_ind(), slot->heavy->raw_values()};
  return slot;
}

struct FingerprintSlot {
  std::uint64_t value = 0;
};

struct UniformSymmetricSlot {
  std::optional<double> weight;
};

/// The weight every stored entry of `values` has, bit for bit, or nullopt
/// (also for no entries).  Stops at the first weight that differs.
std::optional<double> uniform_weight(std::span<const double> values) {
  if (values.empty()) return std::nullopt;
  const auto bits = std::bit_cast<std::uint64_t>(values[0]);
  for (const double w : values) {
    if (std::bit_cast<std::uint64_t>(w) != bits) return std::nullopt;
  }
  return values[0];
}

/// True when A(i,j) is stored exactly when A(j,i) is.  Rows are visited in
/// ascending order, and every entry (r, c) above the diagonal must be the
/// next unconsumed entry of row c: one cursor per row walks that row's
/// columns below the diagonal in the ascending order in which rows r < c
/// reach them.  When row r's turn comes, every row before it has been
/// visited, so its cursor must already have passed all of its columns
/// below r; an entry left there has no mirror above the diagonal.  Only
/// the entries above the diagonal make a random access.
bool pattern_is_symmetric(const grb::Matrix<double>& a) {
  const Index n = a.nrows();
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  std::vector<Index> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (Index r = 0; r < n; ++r) {
    const Index end = row_ptr[r + 1];
    Index k = cursor[r];
    if (k < end && col_ind[k] < r) return false;
    if (k < end && col_ind[k] == r) ++k;  // a self-loop mirrors itself
    for (; k < end; ++k) {
      const Index c = col_ind[k];
      Index& at = cursor[c];
      if (at == row_ptr[c + 1] || col_ind[at] != r) return false;
      ++at;
    }
  }
  return true;
}

// splitmix64 finalizer — the same mixer the fault-injection seeder uses;
// deterministic across platforms.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ v);
}

/// Four independent hash_combine chains: word k of each array goes to
/// lane k mod 4, so the CPU overlaps four mixes instead of waiting on one
/// long dependency chain; finish() folds the lanes in order.
struct LaneHash {
  static constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;  // FNV
  std::array<std::uint64_t, 4> lane{kBasis, kBasis + 1, kBasis + 2,
                                    kBasis + 3};

  template <typename T>
  void add(std::span<const T> words) {
    const std::size_t size = words.size();
    std::size_t k = 0;
    for (; k + 4 <= size; k += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        lane[l] = hash_combine(lane[l],
                               std::bit_cast<std::uint64_t>(words[k + l]));
      }
    }
    for (; k < size; ++k) {
      lane[k % 4] =
          hash_combine(lane[k % 4], std::bit_cast<std::uint64_t>(words[k]));
    }
  }

  std::uint64_t finish() const {
    std::uint64_t h = kBasis;
    for (const std::uint64_t l : lane) h = hash_combine(h, l);
    return h;
  }
};

/// A_L = A ∘ (0 < A <= Δ) and A_H = A ∘ (A > Δ) (Fig. 2 lines 15-21):
/// one pass counts each row's light/heavy entries, one pass fills them,
/// and the two matrices adopt the arrays.  Zero-weight edges go to
/// neither half.  When the count says one half holds every edge (unit
/// weights at Δ = 1, Fig. 3's setting, or Δ below every weight), that
/// half is A and the fill pass is skipped.
std::shared_ptr<SplitSlot> split_light_heavy(
    const std::shared_ptr<const grb::Matrix<double>>& shared_a,
    double delta) {
  const grb::Matrix<double>& a = *shared_a;
  const Index n = a.nrows();
  std::vector<Index> light_ptr(n + 1, 0);
  std::vector<Index> heavy_ptr(n + 1, 0);

  // Pass 1: count light/heavy entries per row.
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  auto values = a.raw_values();
  for (Index r = 0; r < n; ++r) {
    for (Index k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double w = values[k];
      if (w > 0.0 && w <= delta) {
        ++light_ptr[r + 1];
      } else if (w > delta) {
        ++heavy_ptr[r + 1];
      }
    }
  }
  for (Index r = 0; r < n; ++r) {
    light_ptr[r + 1] += light_ptr[r];
    heavy_ptr[r + 1] += heavy_ptr[r];
  }
  const bool all_light = light_ptr[n] == a.nvals();
  if (all_light || heavy_ptr[n] == a.nvals()) {
    auto empty = std::make_shared<const grb::Matrix<double>>(n, n);
    return all_light ? make_split_slot(shared_a, std::move(empty))
                     : make_split_slot(std::move(empty), shared_a);
  }
  std::vector<Index> light_ind(light_ptr[n]);
  std::vector<double> light_val(light_ptr[n]);
  std::vector<Index> heavy_ind(heavy_ptr[n]);
  std::vector<double> heavy_val(heavy_ptr[n]);

  // Pass 2: fill.  The cursors are freed before the matrices below
  // allocate their placeholder row offsets, so the peak stays at A plus
  // the split.
  {
    std::vector<Index> lnext(light_ptr.begin(), light_ptr.end() - 1);
    std::vector<Index> hnext(heavy_ptr.begin(), heavy_ptr.end() - 1);
    for (Index r = 0; r < n; ++r) {
      for (Index k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        const double w = values[k];
        const Index c = col_ind[k];
        if (w > 0.0 && w <= delta) {
          const Index slot = lnext[r]++;
          light_ind[slot] = c;
          light_val[slot] = w;
        } else if (w > delta) {
          const Index slot = hnext[r]++;
          heavy_ind[slot] = c;
          heavy_val[slot] = w;
        }
      }
    }
  }
  auto light = std::make_shared<grb::Matrix<double>>(n, n);
  light->adopt(std::move(light_ptr), std::move(light_ind),
               std::move(light_val));
  auto heavy = std::make_shared<grb::Matrix<double>>(n, n);
  heavy->adopt(std::move(heavy_ptr), std::move(heavy_ind),
               std::move(heavy_val));
  return make_split_slot(std::move(light), std::move(heavy));
}

}  // namespace

int resolve_num_threads(int requested) {
  if (requested > 0) return requested;
#if defined(DSG_HAVE_OPENMP)
  const int threads = omp_get_max_threads();
#else
  const int threads = static_cast<int>(std::thread::hardware_concurrency());
#endif
  return std::max(1, threads);
}

GraphPlan::GraphPlan(std::shared_ptr<const grb::Matrix<double>> a,
                     double delta)
    : a_(std::move(a)), lazy_(std::make_unique<Lazy>()) {
  if (!a_) {
    throw grb::InvalidValue("GraphPlan: null matrix");
  }
  init(delta);
}

GraphPlan::GraphPlan(Restored, std::shared_ptr<const grb::Matrix<double>> a,
                     double delta, bool delta_was_auto,
                     const PlanStats& stats)
    : a_(std::move(a)),
      stats_(stats),
      delta_(delta),
      delta_was_auto_(delta_was_auto),
      lazy_(std::make_unique<Lazy>()) {
#ifdef DSG_AUDIT_INVARIANTS
  check_invariants();
#endif
}

std::uint64_t GraphPlan::fingerprint() const {
  return derived<FingerprintSlot>([&] {
           auto slot = std::make_shared<FingerprintSlot>();
           const grb::Matrix<double>& a = *a_;
           const std::array<Index, 3> dims{a.nrows(), a.ncols(), a.nvals()};
           LaneHash h;
           h.add(std::span<const Index>(dims));
           h.add(a.row_ptr());
           h.add(a.col_ind());
           h.add(a.raw_values());
           slot->value = h.finish();
           return slot;
         })
      .value;
}

void GraphPlan::init(double delta) {
  const auto start = Clock::now();
  // The one Δ check of the library.  A finite Δ <= 0 means kAutoDelta; a
  // non-finite one is an error (+inf would make the bucket bounds
  // 0 * inf = NaN), matching the plan-file loader.
  if (!std::isfinite(delta)) {
    throw grb::InvalidValue("sssp: delta must be finite, got " +
                            std::to_string(delta));
  }
  const grb::Matrix<double>& a = *a_;
  if (a.nrows() != a.ncols()) {
    throw grb::DimensionMismatch("sssp: adjacency matrix must be square");
  }
  if (a.nrows() == 0) {
    throw grb::InvalidValue("sssp: empty graph");
  }

  // One pass: validation (non-negative weights) + weight stats.  Degrees
  // come straight from the CSR row pointers.
  stats_.num_vertices = a.nrows();
  stats_.num_edges = a.nvals();
  auto row_ptr = a.row_ptr();
  for (Index r = 0; r < a.nrows(); ++r) {
    stats_.max_out_degree =
        std::max(stats_.max_out_degree, row_ptr[r + 1] - row_ptr[r]);
  }
  stats_.avg_out_degree =
      static_cast<double>(stats_.num_edges) / static_cast<double>(a.nrows());
  double max_w = 0.0;
  double min_pos = 0.0;
  a.for_each([&](Index, Index, const double& w) {
    check_edge_weight(w);
    if (w > max_w) max_w = w;
    if (w > 0.0 && (min_pos == 0.0 || w < min_pos)) min_pos = w;
  });
  stats_.max_weight = max_w;
  stats_.min_positive_weight = min_pos;

  delta_was_auto_ = delta <= 0.0;
  delta_ = delta_was_auto_ ? auto_delta(stats_) : delta;
  scan_seconds_ = seconds_since(start);
#ifdef DSG_AUDIT_INVARIANTS
  // The construction scan just walked the whole matrix, so the extra
  // O(|V| + |E|) structural audit disappears into the same cache traffic.
  check_invariants();
#endif
}

double GraphPlan::auto_delta(const PlanStats& stats) {
  if (stats.num_edges == 0 || stats.max_weight <= 0.0) return 1.0;
  // Δ = max_w / d̄ keeps one bucket's expected light-edge frontier work at
  // about one average neighbourhood (the Meyer–Sanders Θ(1/d) guidance,
  // scaled by the weight range); the clamp keeps at least the cheapest
  // edges light so the bucketing is not pure Dijkstra.
  const double degree = std::max(1.0, stats.avg_out_degree);
  double delta = stats.max_weight / degree;
  if (stats.min_positive_weight > 0.0) {
    delta = std::max(delta, stats.min_positive_weight);
  }
  return delta;
}

const detail::LightHeavySplit& GraphPlan::light_heavy() const {
  return derived<SplitSlot>([&] {
           auto slot = split_light_heavy(a_, delta_);
#ifdef DSG_AUDIT_INVARIANTS
           audit_split(slot->view);
#endif
           return slot;
         })
      .view;
}

const grb::Matrix<double>& GraphPlan::light_matrix() const {
  light_heavy();  // materializes the one split
  return *peek_derived<SplitSlot>()->light;
}

const grb::Matrix<double>& GraphPlan::heavy_matrix() const {
  light_heavy();
  return *peek_derived<SplitSlot>()->heavy;
}

std::optional<double> GraphPlan::uniform_symmetric_weight() const {
  return derived<UniformSymmetricSlot>([&] {
           auto slot = std::make_shared<UniformSymmetricSlot>();
           const std::optional<double> w = uniform_weight(a_->raw_values());
           if (w && pattern_is_symmetric(*a_)) slot->weight = w;
           return slot;
         })
      .weight;
}

void GraphPlan::check_invariants() const {
  a_->check_invariants("GraphPlan adjacency matrix");
  if (const SplitSlot* slot = peek_derived<SplitSlot>()) {
    audit_split(slot->view);
  }
}

void GraphPlan::audit_split(const detail::LightHeavySplit& s) const {
  const Index n = a_->nrows();
  grb::audit::check_csr(s.light_ptr, s.light_ind, s.light_val.size(), n, n,
                        "GraphPlan light split");
  grb::audit::check_csr(s.heavy_ptr, s.heavy_ind, s.heavy_val.size(), n, n,
                        "GraphPlan heavy split");
  grb::audit::check_light_heavy(a_->row_ptr(), a_->raw_values(), s.light_ptr,
                                s.light_val, s.heavy_ptr, s.heavy_val, delta_,
                                "GraphPlan light/heavy partition");
}

double GraphPlan::setup_seconds() const {
  std::lock_guard<std::mutex> lock(lazy_->mu);
  return scan_seconds_ + lazy_->extra_seconds;
}

}  // namespace dsg
