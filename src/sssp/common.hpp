// common.hpp — shared types for the SSSP algorithm family.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graphblas/matrix.hpp"
#include "graphblas/types.hpp"
#include "sssp/query_control.hpp"

namespace dsg {

using grb::Index;

/// Distance value meaning "unreachable".
inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Per-run instrumentation.  The counters expose the algorithm's control
/// structure (bucket count, phase count) and the timers feed e2ebench's
/// `sssp.*` phase metrics; the plan's setup cost is reported separately
/// (GraphPlan::setup_seconds(), bench_fig3_fusion's fused_setup_ms).
struct SsspStats {
  std::uint64_t outer_iterations = 0;  ///< buckets processed (i increments)
  std::uint64_t light_phases = 0;      ///< inner-loop light relaxation rounds
  std::uint64_t relax_requests = 0;    ///< relaxation requests generated
  /// delta_stepping_async level rounds that pulled (see async_stepping.hpp);
  /// 0 for every other core.
  std::uint64_t pull_rounds = 0;
  double light_seconds = 0.0;   ///< light-edge vxm / push phases
  double heavy_seconds = 0.0;   ///< heavy-edge vxm / push phases
  double vector_seconds = 0.0;  ///< point-wise vector filter/update work
};

/// Result of one SSSP run: dist[v] is the shortest-path weight from the
/// source to v.
///
/// Unreachable-vertex convention (library-wide invariant): dist always has
/// exactly |V| entries and an unreachable vertex is reported as exactly
/// +infinity (kInfDist) — never omitted, never NaN, never a finite
/// sentinel.  Every variant (including the GraphBLAS ones, which densify
/// their t vector with to_dense_array(kInfDist)) follows this, and
/// validate_sssp() accepts exactly this convention and no other.
struct SsspResult {
  std::vector<double> dist;
  SsspStats stats;
  /// How the run ended.  Anything other than kComplete means the query was
  /// interrupted (deadline/cancel) and dist holds valid *upper bounds* on
  /// the true distances — see query_control.hpp for the contract.
  SsspStatus status = SsspStatus::kComplete;
};

/// Throws grb::InvalidValue unless `w` is a finite, non-negative edge
/// weight (Dijkstra and delta-stepping require them).  Written as
/// !(isfinite && >= 0) rather than (w < 0): NaN compares false against
/// everything, so a plain negativity test waves NaN weights through into
/// the relaxation loop, where min(NaN, d) poisons distances.  The one
/// weight check of the library: GraphPlan applies it in its construction
/// scan, the Dijkstra oracle per call.
inline void check_edge_weight(double w) {
  if (!(std::isfinite(w) && w >= 0.0)) {
    throw grb::InvalidValue("sssp: non-finite or negative edge weight " +
                            std::to_string(w));
  }
}

/// Validates inputs common to the matrix-taking entry points (the
/// Dijkstra oracle, recover_parents).
/// Throws grb::DimensionMismatch / grb::InvalidValue /
/// grb::IndexOutOfBounds on violations.
inline void check_sssp_inputs(const grb::Matrix<double>& a, Index source) {
  if (a.nrows() != a.ncols()) {
    throw grb::DimensionMismatch("sssp: adjacency matrix must be square");
  }
  if (a.nrows() == 0) {
    throw grb::InvalidValue("sssp: empty graph");
  }
  grb::detail::check_index(source, a.nrows(), "sssp: source");
}

}  // namespace dsg
