#include "sssp/plan.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "graphblas/audit.hpp"

namespace dsg {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Lazy-slot key types.  Each wraps the materialized artifact so the
// type-keyed cache can distinguish the roles.
struct SplitSlot {
  detail::LightHeavySplit split;
};

struct GrbSplitSlot {
  grb::Matrix<double> light;
  grb::Matrix<double> heavy;
};

struct FingerprintSlot {
  std::uint64_t value = 0;
};

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

/// Builds a grb::Matrix directly from one half of the CSR split (no
/// predicate re-evaluation: the split already holds exactly the entries).
grb::Matrix<double> matrix_from_csr(Index nrows, Index ncols,
                                    const std::vector<Index>& ptr,
                                    const std::vector<Index>& ind,
                                    const std::vector<double>& val) {
  grb::Matrix<double> m(nrows, ncols);
  std::vector<Index> p(ptr);
  std::vector<Index> i(ind);
  std::vector<double> v(val);
  m.adopt(std::move(p), std::move(i), std::move(v));
  return m;
}

}  // namespace

namespace detail {

LightHeavySplit split_light_heavy(const grb::Matrix<double>& a, double delta) {
  const Index n = a.nrows();
  LightHeavySplit s;
  s.light_ptr.assign(n + 1, 0);
  s.heavy_ptr.assign(n + 1, 0);

  // Pass 1: count light/heavy entries per row.
  auto row_ptr = a.row_ptr();
  auto col_ind = a.col_ind();
  auto values = a.raw_values();
  for (Index r = 0; r < n; ++r) {
    for (Index k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double w = values[k];
      if (w > 0.0 && w <= delta) {
        ++s.light_ptr[r + 1];
      } else if (w > delta) {
        ++s.heavy_ptr[r + 1];
      }
    }
  }
  for (Index r = 0; r < n; ++r) {
    s.light_ptr[r + 1] += s.light_ptr[r];
    s.heavy_ptr[r + 1] += s.heavy_ptr[r];
  }
  s.light_ind.resize(s.light_ptr[n]);
  s.light_val.resize(s.light_ptr[n]);
  s.heavy_ind.resize(s.heavy_ptr[n]);
  s.heavy_val.resize(s.heavy_ptr[n]);

  // Pass 2: fill.
  std::vector<Index> lnext(s.light_ptr.begin(), s.light_ptr.end() - 1);
  std::vector<Index> hnext(s.heavy_ptr.begin(), s.heavy_ptr.end() - 1);
  for (Index r = 0; r < n; ++r) {
    for (Index k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double w = values[k];
      const Index c = col_ind[k];
      if (w > 0.0 && w <= delta) {
        const Index slot = lnext[r]++;
        s.light_ind[slot] = c;
        s.light_val[slot] = w;
      } else if (w > delta) {
        const Index slot = hnext[r]++;
        s.heavy_ind[slot] = c;
        s.heavy_val[slot] = w;
      }
    }
  }
  return s;
}

}  // namespace detail

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

void GraphPlan::install_split(detail::LightHeavySplit split) const {
  derived<SplitSlot>([&] {
    auto slot = std::make_shared<SplitSlot>();
    slot->split = std::move(split);
#ifdef DSG_AUDIT_INVARIANTS
    audit_split(slot->split);
#endif
    return slot;
  });
}

std::uint64_t GraphPlan::fingerprint() const {
  return derived<FingerprintSlot>([&] {
           auto slot = std::make_shared<FingerprintSlot>();
           const grb::Matrix<double>& a = *a_;
           std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
           h = hash_combine(h, a.nrows());
           h = hash_combine(h, a.ncols());
           h = hash_combine(h, a.nvals());
           for (Index p : a.row_ptr()) h = hash_combine(h, p);
           for (Index c : a.col_ind()) h = hash_combine(h, c);
           for (double w : a.raw_values()) {
             h = hash_combine(h, std::bit_cast<std::uint64_t>(w));
           }
           slot->value = h;
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
           auto slot = std::make_shared<SplitSlot>();
           slot->split = detail::split_light_heavy(*a_, delta_);
#ifdef DSG_AUDIT_INVARIANTS
           audit_split(slot->split);
#endif
           return slot;
         })
      .split;
}

void GraphPlan::check_invariants() const {
  a_->check_invariants("GraphPlan adjacency matrix");
  if (const SplitSlot* slot = peek_derived<SplitSlot>()) {
    audit_split(slot->split);
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

namespace {

/// Both grb halves materialize through this one derived() call, so there
/// is no ordering dependency between light_matrix() and heavy_matrix().
const GrbSplitSlot& grb_split_slot(const GraphPlan& plan) {
  const auto& s = plan.light_heavy();
  const auto& a = plan.matrix();
  return plan.derived<GrbSplitSlot>([&] {
    auto slot = std::make_shared<GrbSplitSlot>();
    slot->light = matrix_from_csr(a.nrows(), a.ncols(), s.light_ptr,
                                  s.light_ind, s.light_val);
    slot->heavy = matrix_from_csr(a.nrows(), a.ncols(), s.heavy_ptr,
                                  s.heavy_ind, s.heavy_val);
    return slot;
  });
}

}  // namespace

const grb::Matrix<double>& GraphPlan::light_matrix() const {
  return grb_split_slot(*this).light;
}

const grb::Matrix<double>& GraphPlan::heavy_matrix() const {
  return grb_split_slot(*this).heavy;
}

double GraphPlan::setup_seconds() const {
  std::lock_guard<std::mutex> lock(lazy_->mu);
  return scan_seconds_ + lazy_->extra_seconds;
}

}  // namespace dsg
